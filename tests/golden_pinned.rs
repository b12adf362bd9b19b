//! Pinned golden digests for the simulator's timing model.
//!
//! `golden_identity.rs` compares the fast cycle loop with the reference
//! loop; both share the issue stage, so a change that shifts both the
//! same way passes there. This suite instead hard-codes one FNV-1a digest
//! per run, taken over every `CoreStats` counter of every core, the
//! `SimStats` cycle/instruction/per-kernel/L1/fabric counters, and the
//! final `GlobalMem::content_hash`. Any change to simulated timing,
//! stall attribution, or memory contents changes a digest.
//!
//! The matrix covers the Fermi configuration under every named warp
//! policy and the three CTA policies the paper evaluates, plus a
//! single-core geometry with 96 warp slots (two bitmask words) and 1, 3
//! and 4 scheduler partitions, where warp slots split unevenly across
//! partitions. `vecadd` and `reduction` run at their Tiny-scale sizes;
//! `spmv-ell`, `fmaheavy` and `hotspot` are shrunk (fewer nonzeros,
//! iterations, rows) so the whole suite stays near 10 s in a debug build.
//!
//! Every kernel above is race-free, so none of them can see the order in
//! which global loads and stores of different cores land within one
//! cycle. The `racy` kernel pins that order: every CTA's lanes store
//! their CTA id to one shared word and load it straight back, so the
//! values they observe depend on exactly which cores' stores came first.
//!
//! When a change is *meant* to alter timing, the failure message lists
//! every new digest in the table's own syntax, ready to paste back.

use gpgpu_repro::isa::{Dim2, KernelBuilder, KernelDescriptor, SpecialReg};
use gpgpu_repro::sim::{CoreStats, GpuConfig, GpuDevice, SimStats};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::compute::FmaHeavy;
use gpgpu_repro::workloads::irregular::SpmvEll;
use gpgpu_repro::workloads::reduce::Reduction;
use gpgpu_repro::workloads::stencil::Hotspot;
use gpgpu_repro::workloads::streaming::VecAdd;
use gpgpu_repro::workloads::{run_workload_with_device, Workload};
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::single_core;

const MAX_CYCLES: u64 = 50_000_000;

const KERNELS: [&str; 5] = ["vecadd", "spmv-ell", "reduction", "fmaheavy", "hotspot"];

fn build(kernel: &str) -> Box<dyn Workload> {
    match kernel {
        "vecadd" => Box::new(VecAdd::new(16 * 1024)),
        "spmv-ell" => Box::new(SpmvEll::new(4 * 1024, 2)),
        "reduction" => Box::new(Reduction::new(16 * 1024)),
        "fmaheavy" => Box::new(FmaHeavy::new(8 * 1024, 24)),
        "hotspot" => Box::new(Hotspot::new(16)),
        _ => unreachable!("unknown kernel {kernel}"),
    }
}

const CTA_POLICIES: [(&str, CtaPolicy); 3] = [
    ("baseline", CtaPolicy::Baseline(None)),
    ("lcs", CtaPolicy::Lcs(0.7)),
    ("bcs", CtaPolicy::Bcs(2)),
];

/// FNV-1a over a stream of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn core_words(c: &CoreStats) -> [u64; 16] {
    // Destructured so a new counter cannot be left out silently.
    let CoreStats {
        issued,
        idle_slots,
        stalled_slots,
        issued_slots,
        gmem_transactions,
        shared_replays,
        ctas_completed,
        core_cycles,
        stall_no_resident,
        stall_scoreboard,
        stall_mem_pending,
        stall_exec_busy,
        stall_barrier,
        stall_ff_idle,
        cta_resident_cycles,
        warp_resident_cycles,
    } = *c;
    [
        issued,
        idle_slots,
        stalled_slots,
        issued_slots,
        gmem_transactions,
        shared_replays,
        ctas_completed,
        core_cycles,
        stall_no_resident,
        stall_scoreboard,
        stall_mem_pending,
        stall_exec_busy,
        stall_barrier,
        stall_ff_idle,
        cta_resident_cycles,
        warp_resident_cycles,
    ]
}

fn digest(stats: &SimStats, mem_hash: u64) -> u64 {
    let mut h = Fnv::new();
    h.word(stats.cycles);
    h.word(stats.instructions);
    h.word(stats.malformed_dispatches);
    for k in &stats.kernels {
        for v in [k.start_cycle, k.end_cycle, k.instructions, k.ctas] {
            h.word(v);
        }
    }
    let caches = [&stats.l1, &stats.fabric.l2];
    for c in caches {
        for v in [
            c.load_accesses,
            c.load_hits,
            c.store_accesses,
            c.store_hits,
            c.mshr_merges,
            c.reservation_fails,
            c.fills,
            c.writebacks,
        ] {
            h.word(v);
        }
    }
    let f = &stats.fabric;
    let d = &f.dram;
    for v in [
        d.reads,
        d.writes,
        d.row_hits,
        d.row_conflicts,
        d.row_empty,
        d.total_latency,
        d.rejected,
    ] {
        h.word(v);
    }
    for x in [&f.req_xbar, &f.resp_xbar] {
        for v in [x.packets, x.flits, x.rejected, x.queue_wait] {
            h.word(v);
        }
    }
    for v in [f.loads_in, f.loads_out, f.stores_in] {
        h.word(v);
    }
    h.word(stats.cores.len() as u64);
    for c in &stats.cores {
        for v in core_words(c) {
            h.word(v);
        }
    }
    h.word(mem_hash);
    h.0
}

/// Runs `kernel`, verifies its output, and digests the run.
fn run(cfg: GpuConfig, kernel: &str, warp: WarpPolicy, cta: CtaPolicy) -> (u64, SimStats) {
    let mut w = build(kernel);
    let factory = warp.factory();
    let (outcome, gpu) = run_workload_with_device(
        w.as_mut(),
        cfg,
        factory.as_ref(),
        cta.scheduler(),
        MAX_CYCLES,
    )
    .unwrap_or_else(|e| panic!("{kernel}/{warp}/{cta}: {e}"));
    let d = digest(&outcome.stats, gpu.mem_ref().content_hash());
    (d, outcome.stats)
}

/// Compares every computed digest with the table rows whose label starts
/// with `prefix`; on any mismatch, fails listing the computed rows.
fn check(table: &[(&str, u64)], prefix: &str, computed: &[(String, u64)]) {
    let rows: Vec<&(&str, u64)> = table
        .iter()
        .filter(|(l, _)| l.starts_with(prefix))
        .collect();
    let mismatched: Vec<&str> = computed
        .iter()
        .filter(|(label, d)| rows.iter().find(|(l, _)| l == label).map(|e| e.1) != Some(*d))
        .map(|(label, _)| label.as_str())
        .collect();
    if !mismatched.is_empty() || rows.len() != computed.len() {
        let listing: String = computed
            .iter()
            .map(|(l, d)| format!("    (\"{l}\", 0x{d:016x}),\n"))
            .collect();
        panic!(
            "{} pinned digest(s) changed: {}\ncomputed table:\n{listing}",
            mismatched.len(),
            mismatched.join(", ")
        );
    }
}

/// Runs one kernel under every warp policy × CTA policy on Fermi.
fn fermi_matrix(kernel: &str) {
    let mut computed = Vec::new();
    for (warp_name, warp) in WarpPolicy::all_named() {
        for (cta_name, cta) in CTA_POLICIES {
            let (d, _) = run(GpuConfig::fermi(), kernel, warp, cta);
            computed.push((format!("{kernel}/{warp_name}/{cta_name}"), d));
        }
    }
    check(FERMI, &format!("{kernel}/"), &computed);
}

#[test]
fn fermi_vecadd_matches_pinned_digests() {
    fermi_matrix("vecadd");
}

#[test]
fn fermi_spmv_ell_matches_pinned_digests() {
    fermi_matrix("spmv-ell");
}

#[test]
fn fermi_reduction_matches_pinned_digests() {
    fermi_matrix("reduction");
}

#[test]
fn fermi_fmaheavy_matches_pinned_digests() {
    fermi_matrix("fmaheavy");
}

#[test]
fn fermi_hotspot_matches_pinned_digests() {
    fermi_matrix("hotspot");
}

#[test]
fn single_core_partitions_match_pinned_digests() {
    let mut computed = Vec::new();
    for nsched in [1, 3, 4] {
        for kernel in KERNELS {
            let (d, stats) = run(
                single_core(nsched),
                kernel,
                WarpPolicy::Gto,
                CTA_POLICIES[0].1,
            );
            let label = format!("sched{nsched}/{kernel}");
            let warps = stats.cores[0].avg_resident_warps();
            assert!(
                warps > 64.0,
                "{label}: {warps:.1} avg warps leaves the second mask word idle"
            );
            computed.push((label, d));
        }
    }
    check(SINGLE_CORE, "", &computed);
}

const RACY_CTAS: u32 = 60;
const RACY_BLOCK: u32 = 64;
const RACY_ROUNDS: u32 = 4;

/// The racy kernel: each round, every lane stores its CTA id to the
/// shared word at `param 0`, loads the word back, and writes what it saw
/// to its own slot of round `r` in the output buffer at `param 1`.
fn racy_kernel(word: u64, out: u64) -> KernelDescriptor {
    let threads = RACY_CTAS * RACY_BLOCK;
    let mut k = KernelBuilder::new("racy", Dim2::x(RACY_BLOCK));
    let pword = k.param(0);
    let pout = k.param(1);
    let cta = k.special(SpecialReg::CtaIdX);
    let gid = k.global_tid_x();
    let off = k.shl(gid, 2u64);
    let slot = k.iadd(pout, off);
    for r in 0..RACY_ROUNDS {
        k.st_global_u32(cta, pword, 0);
        let seen = k.ld_global_u32(pword, 0);
        k.st_global_u32(seen, slot, i64::from(r * threads * 4));
    }
    let prog = Arc::new(k.build().expect("racy kernel is well-formed"));
    KernelDescriptor::builder(prog, Dim2::x(RACY_CTAS), Dim2::x(RACY_BLOCK))
        .regs_per_thread(16)
        .params([word, out])
        .build()
        .expect("valid launch")
}

/// Runs the racy kernel on Fermi under GTO and `cta`; digests the run
/// (stats and memory hash) followed by every observed value.
fn run_racy(cta: CtaPolicy) -> (u64, BTreeSet<u32>) {
    let factory = WarpPolicy::Gto.factory();
    let mut gpu = GpuDevice::new(GpuConfig::fermi(), factory.as_ref(), cta.scheduler());
    let slots = (RACY_CTAS * RACY_BLOCK * RACY_ROUNDS) as usize;
    let word = gpu.alloc(4);
    let out = gpu.alloc(slots as u64 * 4);
    gpu.launch(racy_kernel(word, out));
    gpu.run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("racy/{cta}: {e}"));
    let seen = gpu.mem_ref().read_u32_vec(out, slots);
    let mut h = Fnv(digest(&gpu.stats(), gpu.mem_ref().content_hash()));
    for &v in &seen {
        assert!(v < RACY_CTAS, "racy/{cta}: observed {v}, not a CTA id");
        h.word(u64::from(v));
    }
    (h.0, seen.into_iter().collect())
}

#[test]
fn fermi_racy_cross_core_order_matches_pinned_digests() {
    let mut computed = Vec::new();
    for (cta_name, cta) in CTA_POLICIES {
        let (d, ids) = run_racy(cta);
        assert!(
            ids.len() >= 2,
            "racy/{cta_name}: only CTA ids {ids:?} observed; the kernel raced nothing"
        );
        computed.push((format!("racy/{cta_name}"), d));
    }
    check(RACY, "", &computed);
}

const RACY: &[(&str, u64)] = &[
    ("racy/baseline", 0xcbbbec6d943b2ccb),
    ("racy/lcs", 0xcbbbec6d943b2ccb),
    ("racy/bcs", 0xb47bc1c51faece65),
];

const FERMI: &[(&str, u64)] = &[
    ("vecadd/lrr/baseline", 0x1a2b724b3cff7456),
    ("vecadd/lrr/lcs", 0x1a2b724b3cff7456),
    ("vecadd/lrr/bcs", 0x468756a8930a0971),
    ("vecadd/gto/baseline", 0xc69df454eb4e7cc5),
    ("vecadd/gto/lcs", 0xc69df454eb4e7cc5),
    ("vecadd/gto/bcs", 0x55ce2e731813ccdb),
    ("vecadd/two-level:8/baseline", 0x7a9ec90d21ed9fa4),
    ("vecadd/two-level:8/lcs", 0x7a9ec90d21ed9fa4),
    ("vecadd/two-level:8/bcs", 0xd54db4794e221460),
    ("vecadd/baws:2/baseline", 0xf5a940d02838d417),
    ("vecadd/baws:2/lcs", 0xf5a940d02838d417),
    ("vecadd/baws:2/bcs", 0x3d345a8b46a4c7f1),
    ("spmv-ell/lrr/baseline", 0x1ab1081e5c2a1e13),
    ("spmv-ell/lrr/lcs", 0x1ab1081e5c2a1e13),
    ("spmv-ell/lrr/bcs", 0x33bb1f0503d6ea4e),
    ("spmv-ell/gto/baseline", 0xf1237b61817e3920),
    ("spmv-ell/gto/lcs", 0xf1237b61817e3920),
    ("spmv-ell/gto/bcs", 0x7b69f088ccd4b00b),
    ("spmv-ell/two-level:8/baseline", 0xbe999e7f36b8987d),
    ("spmv-ell/two-level:8/lcs", 0xbe999e7f36b8987d),
    ("spmv-ell/two-level:8/bcs", 0x0dcc780b7fc9048c),
    ("spmv-ell/baws:2/baseline", 0x55cba0b837c8b99e),
    ("spmv-ell/baws:2/lcs", 0x55cba0b837c8b99e),
    ("spmv-ell/baws:2/bcs", 0xe6678d4f75e4cef2),
    ("reduction/lrr/baseline", 0xdcc5629f988075a1),
    ("reduction/lrr/lcs", 0xdcc5629f988075a1),
    ("reduction/lrr/bcs", 0x85fa5bf8811f37b9),
    ("reduction/gto/baseline", 0x74b0d025f87a5e1f),
    ("reduction/gto/lcs", 0x74b0d025f87a5e1f),
    ("reduction/gto/bcs", 0xf46d9da2f25e182d),
    ("reduction/two-level:8/baseline", 0x96864158b9f7615c),
    ("reduction/two-level:8/lcs", 0x96864158b9f7615c),
    ("reduction/two-level:8/bcs", 0xfa547e988f1a4809),
    ("reduction/baws:2/baseline", 0xa5f524d13298d004),
    ("reduction/baws:2/lcs", 0xa5f524d13298d004),
    ("reduction/baws:2/bcs", 0x28cc30fa2a201042),
    ("fmaheavy/lrr/baseline", 0xa676d864e3a9e34f),
    ("fmaheavy/lrr/lcs", 0xa676d864e3a9e34f),
    ("fmaheavy/lrr/bcs", 0xda94256c52bf01b7),
    ("fmaheavy/gto/baseline", 0x82da5e8223b12e78),
    ("fmaheavy/gto/lcs", 0x82da5e8223b12e78),
    ("fmaheavy/gto/bcs", 0x1205b793ef034e4e),
    ("fmaheavy/two-level:8/baseline", 0x9574bf40f633c0e2),
    ("fmaheavy/two-level:8/lcs", 0x9574bf40f633c0e2),
    ("fmaheavy/two-level:8/bcs", 0x26d39913cfbd3cbe),
    ("fmaheavy/baws:2/baseline", 0x6dcf255ac94ca341),
    ("fmaheavy/baws:2/lcs", 0x6dcf255ac94ca341),
    ("fmaheavy/baws:2/bcs", 0x3952694566b8b102),
    ("hotspot/lrr/baseline", 0xdc89da98a9b61275),
    ("hotspot/lrr/lcs", 0xdc89da98a9b61275),
    ("hotspot/lrr/bcs", 0x0b02fcc580233377),
    ("hotspot/gto/baseline", 0x34c124d5a434f4e9),
    ("hotspot/gto/lcs", 0x34c124d5a434f4e9),
    ("hotspot/gto/bcs", 0x983e85480e32da4c),
    ("hotspot/two-level:8/baseline", 0x189cca5bffc2112a),
    ("hotspot/two-level:8/lcs", 0x189cca5bffc2112a),
    ("hotspot/two-level:8/bcs", 0xf570a0368a9acd32),
    ("hotspot/baws:2/baseline", 0x35917fbdb9392d4c),
    ("hotspot/baws:2/lcs", 0x35917fbdb9392d4c),
    ("hotspot/baws:2/bcs", 0x928f4b9bb21b9f03),
];

const SINGLE_CORE: &[(&str, u64)] = &[
    ("sched1/vecadd", 0x41e67d5392af73bc),
    ("sched1/spmv-ell", 0x55889fd35718564e),
    ("sched1/reduction", 0xd5786e3cfb56f2bc),
    ("sched1/fmaheavy", 0x77098d50fd40890b),
    ("sched1/hotspot", 0x2a06a7dfca27a1f1),
    ("sched3/vecadd", 0xfedd68410cc21986),
    ("sched3/spmv-ell", 0xeafe58ab54001f15),
    ("sched3/reduction", 0xfb50454f366d214d),
    ("sched3/fmaheavy", 0x0a5346c9c28169f8),
    ("sched3/hotspot", 0xd2f0cf763181fd55),
    ("sched4/vecadd", 0x464ea69a61821f79),
    ("sched4/spmv-ell", 0xbf0c0b1ef4bb920b),
    ("sched4/reduction", 0xa7d98e9a9f7def6b),
    ("sched4/fmaheavy", 0x8ce63729c7fb5ef9),
    ("sched4/hotspot", 0x782465dcdd2b61e1),
];
