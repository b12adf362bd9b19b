//! Interfaces between the simulator and scheduling policies.
//!
//! The paper's contribution is a set of *policies* — warp schedulers (GTO,
//! LRR, two-level, block-aware) and CTA schedulers (round-robin baseline,
//! LCS, BCS, mixed CKE). The simulator defines the mechanism/policy split
//! here:
//!
//! * [`WarpScheduler`] picks which ready warp each issue slot takes each
//!   cycle, seeing per-warp metadata through [`IssueView`].
//! * [`CtaScheduler`] decides which pending CTA is dispatched to which
//!   core, seeing per-core occupancy through [`DispatchView`] and receiving
//!   [`CtaCompleteEvent`]s (which carry the per-CTA instruction-issue
//!   snapshot LCS uses as its sensor).
//!
//! Concrete policies live in the `tbs-core` crate.

use crate::config::GpuConfig;
use gpgpu_isa::KernelDescriptor;
use gpgpu_mem::Cycle;
use std::fmt;

/// Identifies a launched kernel within a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub usize);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Per-warp metadata a warp scheduler may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpMeta {
    /// The kernel this warp belongs to.
    pub kernel: KernelId,
    /// Global (linear) CTA id of the warp's CTA.
    pub cta_id: u64,
    /// CTA slot index on the core.
    pub cta_slot: usize,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// Monotonic dispatch stamp; lower = older (GTO's age).
    pub age: u64,
    /// Dynamic instructions issued by this warp so far.
    pub issued: u64,
}

/// A warp scheduler's read-only view of its core at issue time.
#[derive(Debug)]
pub struct IssueView<'a> {
    now: Cycle,
    core: usize,
    warps: &'a [Option<WarpMeta>],
}

impl<'a> IssueView<'a> {
    /// Builds a view (called by the core each issue cycle).
    pub fn new(now: Cycle, core: usize, warps: &'a [Option<WarpMeta>]) -> Self {
        IssueView { now, core, warps }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The core this view belongs to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Metadata of the warp in `slot`, if the slot is occupied.
    pub fn warp(&self, slot: usize) -> Option<&WarpMeta> {
        self.warps.get(slot).and_then(|w| w.as_ref())
    }
}

/// Picks which ready warp each issue slot executes. One instance exists
/// per (core, scheduler-slot) pair, created by a
/// [`WarpSchedulerFactory`].
///
/// `candidates` lists the warp slots that are *ready* (active, not
/// blocked on the scoreboard, a barrier, or a structural hazard), in
/// ascending slot order. Returning `None` or a slot not in `candidates`
/// issues nothing this cycle.
///
/// `Send` because a scheduler instance lives inside its core, so a whole
/// device may be built on one thread and run on another. Instances are
/// never shared between threads.
pub trait WarpScheduler: fmt::Debug + Send {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Chooses the warp slot to issue from, or `None` to idle.
    fn pick(&mut self, view: &IssueView<'_>, candidates: &[usize]) -> Option<usize>;

    /// Notification that `slot` issued an instruction this cycle.
    fn on_issue(&mut self, _slot: usize) {}

    /// Notification that a new warp was installed in `slot`.
    fn on_warp_start(&mut self, _slot: usize, _meta: &WarpMeta) {}

    /// Notification that the warp in `slot` finished.
    fn on_warp_finish(&mut self, _slot: usize) {}
}

/// Creates one [`WarpScheduler`] per (core, scheduler-slot). Shared by the
/// device across cores, hence `Send + Sync`.
pub trait WarpSchedulerFactory: fmt::Debug + Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Creates the scheduler instance for `core`'s issue slot `slot`.
    fn create(&self, core: usize, slot: usize) -> Box<dyn WarpScheduler>;
}

/// Summary of a running (dispatchable) kernel, as seen by a CTA scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSummary {
    /// The kernel's id.
    pub id: KernelId,
    /// Linear id of the next CTA awaiting dispatch.
    pub next_cta: u64,
    /// CTAs not yet dispatched.
    pub remaining: u64,
    /// Total CTAs in the grid.
    pub total_ctas: u64,
    /// Warps per CTA.
    pub warps_per_cta: u32,
}

/// Per-core occupancy as seen by a CTA scheduler during dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDispatchInfo {
    /// Total resident CTAs (all kernels).
    pub cta_count: u32,
    /// Resident CTAs per running kernel, in kernel order.
    pub kernel_ctas: Vec<(KernelId, u32)>,
    /// Additional CTAs of each running kernel that would fit right now
    /// (resource- and hardware-limit-constrained), in kernel order.
    pub capacity: Vec<(KernelId, u32)>,
    /// CTAs completed on this core per kernel, in kernel order.
    pub completed: Vec<(KernelId, u64)>,
}

impl CoreDispatchInfo {
    /// Additional CTAs of `kernel` that fit on this core right now.
    pub fn capacity_for(&self, kernel: KernelId) -> u32 {
        self.capacity
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Resident CTAs of `kernel` on this core.
    pub fn ctas_of(&self, kernel: KernelId) -> u32 {
        self.kernel_ctas
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// CTAs of `kernel` completed on this core so far.
    pub fn completed_of(&self, kernel: KernelId) -> u64 {
        self.completed
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

/// A CTA scheduler's view of the machine during a dispatch round.
#[derive(Debug)]
pub struct DispatchView<'a> {
    now: Cycle,
    kernels: &'a [KernelSummary],
    cores: &'a [CoreDispatchInfo],
}

impl<'a> DispatchView<'a> {
    /// Builds a view (called by the device each dispatch round).
    pub fn new(now: Cycle, kernels: &'a [KernelSummary], cores: &'a [CoreDispatchInfo]) -> Self {
        DispatchView { now, kernels, cores }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Running kernels with undispatched CTAs, in launch order.
    pub fn kernels(&self) -> &[KernelSummary] {
        self.kernels
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Occupancy of `core`.
    pub fn core(&self, core: usize) -> &CoreDispatchInfo {
        &self.cores[core]
    }
}

/// One dispatch decision: place `count` consecutive CTAs of `kernel`
/// (starting at its next undispatched CTA) onto `core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Target core.
    pub core: usize,
    /// Source kernel.
    pub kernel: KernelId,
    /// Number of consecutive CTAs (BCS uses > 1).
    pub count: u32,
}

/// Issue-count sample of one CTA slot, delivered with
/// [`CtaCompleteEvent`]. This is LCS's sensor: under a greedy warp
/// scheduler, the distribution of issued instructions across CTA slots
/// when the first CTA completes reveals how many CTAs the core can
/// usefully sustain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtaIssueSample {
    /// Kernel owning the slot.
    pub kernel: KernelId,
    /// Global CTA id in the slot.
    pub cta_id: u64,
    /// Instructions issued by this CTA on this core so far.
    pub issued: u64,
    /// Whether the CTA is still running (the completing CTA reports
    /// `false`).
    pub running: bool,
}

/// Emitted when a CTA retires from a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtaCompleteEvent {
    /// Core the CTA ran on.
    pub core: usize,
    /// Kernel it belonged to.
    pub kernel: KernelId,
    /// Its global CTA id.
    pub cta_id: u64,
    /// Completion cycle.
    pub cycle: Cycle,
    /// CTAs of this kernel completed on this core so far (including this
    /// one).
    pub completed_on_core: u64,
    /// Cumulative instructions this core has issued for this kernel
    /// (monotone across events — the sensor for rate-based policies).
    pub core_kernel_issued: u64,
    /// Issue counts of every CTA slot on the core at completion time.
    pub slot_snapshot: Vec<CtaIssueSample>,
}

/// Decides CTA placement. A single instance serves the whole device.
pub trait CtaScheduler: fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Notification that `kernel` has become dispatchable.
    fn on_kernel_launch(&mut self, _kernel: KernelId, _desc: &KernelDescriptor, _hw: &GpuConfig) {}

    /// Notification that a kernel has fully completed.
    fn on_kernel_finish(&mut self, _kernel: KernelId) {}

    /// Notification that a CTA retired (with the LCS sensor snapshot).
    fn on_cta_complete(&mut self, _ev: &CtaCompleteEvent) {}

    /// Returns the next placement, or `None` when nothing (more) should be
    /// dispatched this cycle. Called repeatedly within a cycle until
    /// `None`; every returned dispatch must fit (the device clamps
    /// `count` to the core's capacity and the kernel's remaining CTAs, and
    /// ignores dispatches that do not fit at all).
    fn select(&mut self, view: &DispatchView<'_>) -> Option<Dispatch>;

    /// Downcast hook for policies that expose post-run state (e.g. LCS's
    /// decided per-core limits). Implementations that want to be
    /// inspectable return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Turns policy-decision tracing on or off (see
    /// [`take_trace_events`](Self::take_trace_events)). The device calls
    /// this when telemetry is attached; policies without decisions to
    /// report may ignore it (the default).
    fn set_trace_enabled(&mut self, _on: bool) {}

    /// Drains the policy decisions buffered since the last call, in the
    /// order they were made. Only buffered while tracing is enabled, so
    /// the default (always empty, allocation-free) costs nothing.
    fn take_trace_events(&mut self) -> Vec<crate::telemetry::PolicyDecision> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_dispatch_info_lookups() {
        let k0 = KernelId(0);
        let k1 = KernelId(1);
        let info = CoreDispatchInfo {
            cta_count: 3,
            kernel_ctas: vec![(k0, 2), (k1, 1)],
            capacity: vec![(k0, 4), (k1, 0)],
            completed: vec![(k0, 7)],
        };
        assert_eq!(info.ctas_of(k0), 2);
        assert_eq!(info.ctas_of(KernelId(9)), 0);
        assert_eq!(info.capacity_for(k0), 4);
        assert_eq!(info.capacity_for(k1), 0);
        assert_eq!(info.completed_of(k0), 7);
        assert_eq!(info.completed_of(k1), 0);
    }

    #[test]
    fn kernel_id_display() {
        assert_eq!(KernelId(3).to_string(), "K3");
    }

    #[test]
    fn dispatch_view_accessors() {
        let kernels = vec![KernelSummary {
            id: KernelId(0),
            next_cta: 5,
            remaining: 10,
            total_ctas: 15,
            warps_per_cta: 4,
        }];
        let cores = vec![CoreDispatchInfo {
            cta_count: 0,
            kernel_ctas: vec![],
            capacity: vec![],
            completed: vec![],
        }];
        let v = DispatchView::new(42, &kernels, &cores);
        assert_eq!(v.now(), 42);
        assert_eq!(v.num_cores(), 1);
        assert_eq!(v.kernels()[0].remaining, 10);
        assert_eq!(v.core(0).cta_count, 0);
    }
}
