//! The `WarpScheduler` contract, checked from outside through the public
//! API (the same extension point `examples/custom_policy.rs` uses).
//!
//! * Every `candidates` slice the issue stage hands to `pick` is
//!   non-empty, strictly ascending, and holds only warp slots of the
//!   scheduler's own partition (`slot ≡ partition mod nsched`).
//! * A pick the issue stage cannot honour — `None`, or a slot that is not
//!   a candidate — costs the partition its slot, booked as
//!   `stall_exec_busy`; the run still completes, verifies, and balances.

use gpgpu_repro::sim::{
    assert_conservation, GpuConfig, IssueView, SimStats, WarpMeta, WarpScheduler,
    WarpSchedulerFactory,
};
use gpgpu_repro::tbs::{CtaPolicy, WarpPolicy};
use gpgpu_repro::workloads::{by_name, run_workload, Scale};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::single_core;

const MAX_CYCLES: u64 = 50_000_000;

/// Wraps a real policy, checking every candidate list it is handed and
/// declining its first `declines` picks.
#[derive(Debug)]
struct Checked {
    inner: Box<dyn WarpScheduler>,
    partition: usize,
    nsched: usize,
    declines: u64,
    picks: Arc<AtomicU64>,
    declined: Arc<AtomicU64>,
}

impl WarpScheduler for Checked {
    fn name(&self) -> &str {
        "checked"
    }

    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
        assert!(!candidates.is_empty(), "pick called without candidates");
        assert!(
            candidates.windows(2).all(|p| p[0] < p[1]),
            "candidates not strictly ascending: {candidates:?}"
        );
        assert!(
            candidates
                .iter()
                .all(|&c| c % self.nsched == self.partition),
            "partition {} of {} handed foreign slots: {candidates:?}",
            self.partition,
            self.nsched
        );
        self.picks.fetch_add(1, Ordering::Relaxed);
        if self.declines > 0 {
            self.declines -= 1;
            self.declined.fetch_add(1, Ordering::Relaxed);
            // Alternate the two ways a pick can be unusable: no pick at
            // all, and a slot that is not a candidate.
            return if self.declines.is_multiple_of(2) {
                None
            } else {
                (0..).find(|slot| !candidates.contains(slot))
            };
        }
        self.inner.pick(view, candidates)
    }

    fn on_issue(&mut self, slot: usize) {
        self.inner.on_issue(slot);
    }

    fn on_warp_start(&mut self, slot: usize, meta: &WarpMeta) {
        self.inner.on_warp_start(slot, meta);
    }

    fn on_warp_finish(&mut self, slot: usize) {
        self.inner.on_warp_finish(slot);
    }
}

#[derive(Debug)]
struct CheckedFactory {
    inner: Box<dyn WarpSchedulerFactory>,
    nsched: usize,
    declines: u64,
    picks: Arc<AtomicU64>,
    declined: Arc<AtomicU64>,
}

impl CheckedFactory {
    fn new(policy: WarpPolicy, cfg: &GpuConfig, declines: u64) -> Self {
        CheckedFactory {
            inner: policy.factory(),
            nsched: cfg.num_sched_per_core as usize,
            declines,
            picks: Arc::default(),
            declined: Arc::default(),
        }
    }
}

impl WarpSchedulerFactory for CheckedFactory {
    fn name(&self) -> &str {
        "checked"
    }

    fn create(&self, core: usize, slot: usize) -> Box<dyn WarpScheduler> {
        Box::new(Checked {
            inner: self.inner.create(core, slot),
            partition: slot,
            nsched: self.nsched,
            declines: self.declines,
            picks: Arc::clone(&self.picks),
            declined: Arc::clone(&self.declined),
        })
    }
}

fn run(kernel: &str, cfg: GpuConfig, factory: &CheckedFactory, cta: CtaPolicy) -> SimStats {
    let mut w = by_name(kernel, Scale::Tiny).expect("suite member");
    let stats = run_workload(w.as_mut(), cfg, factory, cta.scheduler(), MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{kernel}: {e}"))
        .stats;
    assert_conservation(&stats);
    stats
}

#[test]
fn candidates_are_nonempty_ascending_and_partition_local() {
    let cases = [
        (
            "vecadd",
            GpuConfig::fermi(),
            WarpPolicy::Gto,
            CtaPolicy::Bcs(2),
        ),
        (
            "reduction",
            GpuConfig::fermi(),
            WarpPolicy::Lrr,
            CtaPolicy::Baseline(None),
        ),
        (
            "hotspot",
            single_core(3),
            WarpPolicy::TwoLevel(8),
            CtaPolicy::Baseline(None),
        ),
        (
            "reduction",
            single_core(4),
            WarpPolicy::Baws(2),
            CtaPolicy::Bcs(2),
        ),
    ];
    for (kernel, cfg, warp, cta) in cases {
        let factory = CheckedFactory::new(warp, &cfg, 0);
        let stats = run(kernel, cfg, &factory, cta);
        let picks = factory.picks.load(Ordering::Relaxed);
        assert!(
            picks >= stats.instructions,
            "{kernel}: only {picks} picks checked"
        );
    }
}

#[test]
fn declined_picks_are_booked_as_exec_busy() {
    const DECLINES: u64 = 5;
    let cfg = GpuConfig::fermi();
    // vecadd has no shared-memory accesses, so an honoured scheduler
    // never books an exec-busy slot: every one below is a declined pick.
    let honest = CheckedFactory::new(WarpPolicy::Gto, &cfg, 0);
    let base = run("vecadd", cfg.clone(), &honest, CtaPolicy::Baseline(None));
    assert_eq!(base.stall_breakdown().exec_busy, 0);

    let declining = CheckedFactory::new(WarpPolicy::Gto, &cfg, DECLINES);
    let stats = run("vecadd", cfg.clone(), &declining, CtaPolicy::Baseline(None));
    let declined = declining.declined.load(Ordering::Relaxed);
    let instances = (cfg.num_cores * cfg.num_sched_per_core as usize) as u64;
    assert!(declined > DECLINES, "too few partitions ever got a pick");
    assert!(declined <= DECLINES * instances);
    assert_eq!(stats.stall_breakdown().exec_busy, declined);
    assert_eq!(stats.instructions, base.instructions);
}
