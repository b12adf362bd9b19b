//! Core sleep is invisible from outside the device. A core whose cycle
//! was a no-op sleeps until an event reaches it, and its slept cycles are
//! booked later in closed form; every public read must still see the
//! counters the reference loop (`GpuDevice::set_fast_forward(false)`,
//! every core stepped every cycle) produces.
//!
//! `run` books sleeping cores before it returns and is covered by
//! `golden_identity.rs`. This suite drives the public `step` by hand
//! instead, so it pins the booking on `step`'s return and before each
//! telemetry sample.

use gpgpu_repro::sim::{GpuConfig, GpuDevice, MemorySink, TelemetryConfig};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::irregular::RandomGather;
use gpgpu_repro::workloads::streaming::VecAdd;
use gpgpu_repro::workloads::Workload;

/// Stats are compared whenever the clock is a multiple of this. Prime, so
/// the checks drift across every phase of writeback and sample periods.
const CHECK_EVERY: u64 = 97;
const SAMPLE_EVERY: u64 = 250;
const MAX_CYCLES: u64 = 5_000_000;

/// A device with vecadd and gather launched concurrently, telemetry on.
fn device(fast: bool) -> (GpuDevice, Vec<Box<dyn Workload>>) {
    let factory = WarpPolicy::Gto.factory();
    let mut gpu = GpuDevice::new(
        GpuConfig::fermi(),
        factory.as_ref(),
        CtaPolicy::Baseline(None).scheduler(),
    );
    gpu.set_fast_forward(fast);
    gpu.enable_telemetry(TelemetryConfig::new(SAMPLE_EVERY), Box::new(MemorySink::new()));
    let mut workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VecAdd::new(8 * 1024)),
        Box::new(RandomGather::new(2 * 1024, 8)),
    ];
    for w in &mut workloads {
        let desc = w.prepare(gpu.mem());
        gpu.launch(desc);
    }
    (gpu, workloads)
}

fn samples_csv(gpu: &mut GpuDevice) -> String {
    let data = gpu.take_telemetry_data().expect("telemetry attached");
    let mut out = Vec::new();
    data.write_samples_csv(&mut out).expect("serialize samples");
    String::from_utf8(out).expect("csv is utf-8")
}

#[test]
fn hand_stepped_stats_match_the_reference_loop() {
    let (mut fast, fast_work) = device(true);
    let (mut reference, ref_work) = device(false);
    let mut checks = 0;
    while !reference.all_done() {
        assert!(reference.now() < MAX_CYCLES, "run did not finish");
        fast.step();
        reference.step();
        assert_eq!(fast.now(), reference.now());
        assert_eq!(fast.all_done(), reference.all_done(), "cycle {}", fast.now());
        if fast.now() % CHECK_EVERY == 0 {
            assert_eq!(fast.stats(), reference.stats(), "stats diverge at cycle {}", fast.now());
            checks += 1;
        }
    }
    assert_eq!(fast.stats(), reference.stats(), "final stats diverge");
    assert!(checks >= 20, "only {checks} checkpoints: the run proves little");
    for (f, r) in fast_work.iter().zip(&ref_work) {
        f.verify(fast.mem_ref()).expect("fast-path output verifies");
        r.verify(reference.mem_ref()).expect("reference output verifies");
    }
    assert_eq!(fast.mem_ref().content_hash(), reference.mem_ref().content_hash());
    assert_eq!(samples_csv(&mut fast), samples_csv(&mut reference), "interval series diverge");
}
