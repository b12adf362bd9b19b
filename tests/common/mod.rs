//! Helpers shared by the root integration tests.

use gpgpu_repro::mem::FabricConfig;
use gpgpu_repro::sim::GpuConfig;

/// One core with 96 warp slots split over `nsched` scheduler partitions:
/// two bitmask words, and partition strides that do not divide 64. Sized
/// so Tiny-scale kernels keep well over 64 warps resident on average.
pub fn single_core(nsched: u32) -> GpuConfig {
    let mut c = GpuConfig::fermi();
    c.num_cores = 1;
    c.fabric = FabricConfig::fermi_like(1);
    c.fabric.partitions = 2;
    c.max_warps_per_core = 96;
    c.max_threads_per_core = 96 * 32;
    c.max_ctas_per_core = 32;
    c.regfile_per_core *= 4;
    c.smem_per_core *= 4;
    c.num_sched_per_core = nsched;
    c
}
