//! The SM (streaming multiprocessor) model: warp contexts, scoreboards,
//! issue logic, the load/store unit with its L1 cache, shared memory, and
//! CTA slot/resource management.
//!
//! Execution is *timing-first, functional-now*: an instruction's effects
//! (register writes, memory updates) happen within its issue cycle, while
//! its latency is enforced by per-register scoreboard bits that clear when
//! the modeled writeback completes. Loads additionally hold their
//! destination register until every coalesced line transaction returns
//! from the memory hierarchy.
//!
//! One cycle of a core is one call to [`Core::cycle`], which the device
//! makes core by core in fixed order: the core takes its fabric
//! responses, retires due writebacks, services the L1 port, issues, and
//! forwards the L1's downstream traffic into the fabric. Global loads and
//! stores read and write the shared functional memory at issue, in issue
//! order, so within a cycle a lower-numbered core's memory effects are
//! visible to every higher-numbered one.

use crate::coalesce::{coalesce, shared_conflict_passes};
use crate::config::GpuConfig;
use crate::memory::{GlobalMem, SharedMem};
use crate::record::{ExecRecord, WarpTrace};
use crate::sched_api::{
    CtaIssueSample, IssueView, KernelId, WarpMeta, WarpScheduler, WarpSchedulerFactory,
};
use crate::simt::{LaneMask, SimtStack};
use gpgpu_isa::{
    sem, AccessWidth, ExecClass, Instr, Instruction, KernelDescriptor, MemSpace, Operand, Pc,
    SpecialReg, WARP_SIZE,
};
use gpgpu_mem::{
    cache::DownstreamKind, Access, AccessKind, Cache, Cycle, MemFabric, MemRequest, MemResponse,
    ReqId,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-core issue/stall statistics.
///
/// Beyond the legacy slot counters, every scheduler-slot cycle that fails
/// to issue is attributed to exactly one cause in a fixed taxonomy (the
/// six `stall_*` counters), and cycle-weighted occupancy integrals record
/// how full the core was while time passed. The accounting identity
///
/// ```text
/// stall_no_resident + stall_scoreboard + stall_mem_pending
///   + stall_exec_busy + stall_barrier + stall_ff_idle
///   == idle_slots + stalled_slots
/// ```
///
/// holds per core at all times (checked by
/// [`conservation_violations`](crate::invariants::conservation_violations)),
/// so `issued_slots + Σ stall_* ` covers every scheduler slot exactly
/// once. All counters are strictly observational and byte-identical with
/// fast-forward on or off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions issued (warp-instructions, not lane-ops).
    pub issued: u64,
    /// Scheduler-slot cycles with no resident warps at all.
    pub idle_slots: u64,
    /// Scheduler-slot cycles where warps existed but none were ready.
    pub stalled_slots: u64,
    /// Scheduler-slot cycles that issued.
    pub issued_slots: u64,
    /// Global-memory line transactions generated.
    pub gmem_transactions: u64,
    /// Shared-memory replays beyond the first pass (bank conflicts).
    pub shared_replays: u64,
    /// CTAs completed.
    pub ctas_completed: u64,
    /// Core cycles observed (live plus fast-forwarded); equals the device
    /// clock, since every core is stepped (or accounted) every cycle.
    pub core_cycles: u64,
    /// Non-issuing slots of a scheduler partition with no resident warps
    /// (undersubscribed core), outside fast-forwardable quiet cycles.
    pub stall_no_resident: u64,
    /// Non-issuing slots where every resident warp waits on a scoreboard
    /// dependency (an in-flight ALU/SFU/shared writeback).
    pub stall_scoreboard: u64,
    /// Non-issuing slots attributable to the memory system: a warp with
    /// global loads outstanding, or a global access stopped by a full
    /// LSQ/MSHR.
    pub stall_mem_pending: u64,
    /// Non-issuing slots where a ready shared-memory access waits for the
    /// shared pipe (bank-conflict replays in flight).
    pub stall_exec_busy: u64,
    /// Non-issuing slots where every resident warp waits at a CTA barrier.
    pub stall_barrier: u64,
    /// Slots of provably-quiet cycles: nothing on this core could issue or
    /// make progress without an external event. These are exactly the
    /// cycles the idle fast-forward may skip, booked identically whether
    /// it does or not.
    pub stall_ff_idle: u64,
    /// Cycle-weighted resident-CTA integral: Σ over cycles of the CTA
    /// count. Divide by `core_cycles` for average CTA occupancy.
    pub cta_resident_cycles: u64,
    /// Cycle-weighted resident-warp integral: Σ over cycles of the
    /// resident warp count. Divide by `core_cycles` for average warp
    /// occupancy.
    pub warp_resident_cycles: u64,
}

impl CoreStats {
    /// Sum of the six stall-taxonomy counters; always equals
    /// `idle_slots + stalled_slots`.
    pub fn stall_total(&self) -> u64 {
        self.stall_no_resident
            + self.stall_scoreboard
            + self.stall_mem_pending
            + self.stall_exec_busy
            + self.stall_barrier
            + self.stall_ff_idle
    }

    /// Average resident CTAs over the core's lifetime (0 when no cycles
    /// have elapsed).
    pub fn avg_resident_ctas(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.cta_resident_cycles as f64 / self.core_cycles as f64
        }
    }

    /// Average resident warps over the core's lifetime (0 when no cycles
    /// have elapsed).
    pub fn avg_resident_warps(&self) -> f64 {
        if self.core_cycles == 0 {
            0.0
        } else {
            self.warp_resident_cycles as f64 / self.core_cycles as f64
        }
    }
}

/// A CTA that retired from this core this cycle (the device wraps this
/// into a [`CtaCompleteEvent`](crate::sched_api::CtaCompleteEvent)).
#[derive(Debug, Clone)]
pub struct CoreCtaCompletion {
    /// Core the CTA retired from.
    pub core: usize,
    /// Kernel the CTA belonged to.
    pub kernel: KernelId,
    /// Global CTA id.
    pub cta_id: u64,
    /// CTAs of that kernel completed on this core so far (including this).
    pub completed_on_core: u64,
    /// Cumulative instructions this core has issued for the kernel.
    pub core_kernel_issued: u64,
    /// Issue snapshot of all CTA slots at completion time.
    pub slot_snapshot: Vec<CtaIssueSample>,
}

#[derive(Debug)]
struct CtaState {
    kernel: KernelId,
    cta_id: u64,
    desc: Arc<KernelDescriptor>,
    warp_slots: Vec<usize>,
    live_warps: u32,
    barrier_arrived: u32,
    issued: u64,
    shared: SharedMem,
}

#[derive(Debug)]
struct Warp {
    kernel: KernelId,
    cta_slot: usize,
    cta_id: u64,
    warp_in_cta: u32,
    desc: Arc<KernelDescriptor>,
    stack: SimtStack,
    exited: LaneMask,
    regs: Vec<[u64; WARP_SIZE]>,
    preds: Vec<LaneMask>,
    pending_regs: u64,
    pending_preds: u8,
    outstanding_loads: u32,
    at_barrier: bool,
    /// Replay-mode position in this warp's recorded trace; unused (0) in
    /// direct execution.
    trace_cursor: u32,
}

/// One finished warp's captured trace, tagged with its policy-invariant
/// coordinates so the device can assemble per-core buffers into an
/// [`ExecRecord`] regardless of where the CTA scheduler placed the CTA.
#[derive(Debug)]
pub(crate) struct CapturedWarp {
    pub(crate) kernel: usize,
    pub(crate) cta_id: u64,
    pub(crate) warp_in_cta: u32,
    pub(crate) trace: WarpTrace,
}

/// Capture-mode state: one in-progress step buffer per warp slot, plus
/// the traces of already-retired warps.
#[derive(Debug, Default)]
struct CaptureState {
    bufs: Vec<WarpTrace>,
    done: Vec<CapturedWarp>,
}

#[derive(Debug, Clone, Copy)]
enum WbEvent {
    /// Clear the scoreboard bit of a register.
    Reg { warp: usize, reg: u8 },
    /// Clear the scoreboard bit of a predicate.
    Pred { warp: usize, pred: u8 },
    /// One line transaction of a tracked load finished.
    LoadPartDone { token: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    id: ReqId,
    line: u64,
    token: Option<u64>,
    is_store: bool,
}

/// One in-flight tracked load, stored in a slab indexed by its token.
/// A slot is free (and its token reusable) once `remaining` reaches 0:
/// every line transaction produces exactly one `LoadPartDone`, so no
/// event can reference a retired token.
#[derive(Debug, Clone, Copy)]
struct LoadTrack {
    warp: usize,
    reg: u8,
    remaining: u32,
}

/// Warp-local readiness verdict for one warp slot. A warp's scoreboard
/// outcome only changes through its own issue or an unblocking event
/// (writeback, load completion, barrier release, dispatch into the
/// slot), so between those the issue stage reuses the verdict, memoized
/// as one bit in one class of [`ReadySets`]. Structural resources (LSQ
/// space, shared pipe) are shared state and are re-checked fresh on
/// every scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadyState {
    /// Blocked for a warp-local reason; the payload records why, for
    /// stall attribution. Memoized together with the verdict: both become
    /// stale through exactly the same unblocking events.
    Blocked(BlockCause),
    /// Ready, with no structural dependence.
    Ready,
    /// Scoreboard passed; issues iff the LSQ has space.
    ReadyMemGlobal,
    /// Scoreboard passed; issues iff the shared-memory pipe is free.
    ReadyMemShared,
}

/// Why a warp-local readiness check came back blocked (carried inside
/// [`ReadyState::Blocked`], and memoized as its own class, so the stall
/// classifier can attribute the partition's lost cycle without
/// re-deriving anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockCause {
    /// Waiting at a CTA barrier.
    Barrier,
    /// Scoreboard dependency on an in-flight ALU/SFU/shared writeback.
    Scoreboard,
    /// Scoreboard dependency with global-memory loads outstanding.
    Mem,
}

/// Word `w` of every per-slot bitset: bit `i` stands for warp slot
/// `64 * w + i`. The six verdict classes are disjoint, and only the bits
/// of occupied, non-stale slots are meaningful.
#[derive(Debug, Clone, Copy, Default)]
struct SlotWord {
    /// A warp is resident in the slot.
    occupied: u64,
    /// The memoized verdict is out of date and must be recomputed before
    /// the slot's partition next scans.
    stale: u64,
    /// [`ReadyState::Ready`].
    ready: u64,
    /// [`ReadyState::ReadyMemGlobal`].
    mem_global: u64,
    /// [`ReadyState::ReadyMemShared`].
    mem_shared: u64,
    /// [`ReadyState::Blocked`] with [`BlockCause::Mem`].
    blocked_mem: u64,
    /// [`ReadyState::Blocked`] with [`BlockCause::Scoreboard`].
    blocked_sb: u64,
    /// [`ReadyState::Blocked`] with [`BlockCause::Barrier`].
    blocked_bar: u64,
}

/// The issue stage's readiness memo: per-class bitsets over warp slots
/// (see [`SlotWord`]) plus each scheduler partition's slot mask, so a
/// partition's scan, candidate list, and stall attribution are a few
/// word operations per 64 slots instead of a walk over its slots.
#[derive(Debug)]
struct ReadySets {
    words: Vec<SlotWord>,
    /// `partitions[s * words.len() + w]`: word `w` of the slots owned by
    /// scheduler partition `s` (slot `≡ s mod nsched`). Built once.
    partitions: Vec<u64>,
}

impl ReadySets {
    fn new(slots: usize, nsched: usize) -> Self {
        let nwords = slots.div_ceil(64);
        let mut partitions = vec![0u64; nsched * nwords];
        for slot in 0..slots {
            partitions[(slot % nsched) * nwords + (slot >> 6)] |= 1u64 << (slot & 63);
        }
        ReadySets {
            words: vec![SlotWord::default(); nwords],
            partitions,
        }
    }

    /// Word `w` of partition `s`'s occupied slots.
    fn occupied_in(&self, s: usize, w: usize) -> u64 {
        self.partitions[s * self.words.len() + w] & self.words[w].occupied
    }

    /// Whether partition `s` holds any resident warp.
    fn any_occupied(&self, s: usize) -> bool {
        (0..self.words.len()).any(|w| self.occupied_in(s, w) != 0)
    }

    /// A warp entered `slot`; its verdict is computed on first scan.
    fn insert(&mut self, slot: usize) {
        let word = &mut self.words[slot >> 6];
        word.occupied |= 1u64 << (slot & 63);
        word.stale |= 1u64 << (slot & 63);
    }

    /// The warp in `slot` retired.
    fn remove(&mut self, slot: usize) {
        self.words[slot >> 6].occupied &= !(1u64 << (slot & 63));
    }

    /// Drops `slot`'s memoized verdict. Every event that can change a
    /// warp-local verdict comes through here: the warp issuing, a
    /// writeback landing in the slot, a tracked load completing, or a
    /// barrier release.
    fn invalidate(&mut self, slot: usize) {
        self.words[slot >> 6].stale |= 1u64 << (slot & 63);
    }

    /// Memoizes `state` as `slot`'s verdict.
    fn record(&mut self, slot: usize, state: ReadyState) {
        let bit = 1u64 << (slot & 63);
        let word = &mut self.words[slot >> 6];
        word.stale &= !bit;
        word.ready &= !bit;
        word.mem_global &= !bit;
        word.mem_shared &= !bit;
        word.blocked_mem &= !bit;
        word.blocked_sb &= !bit;
        word.blocked_bar &= !bit;
        *match state {
            ReadyState::Ready => &mut word.ready,
            ReadyState::ReadyMemGlobal => &mut word.mem_global,
            ReadyState::ReadyMemShared => &mut word.mem_shared,
            ReadyState::Blocked(BlockCause::Mem) => &mut word.blocked_mem,
            ReadyState::Blocked(BlockCause::Scoreboard) => &mut word.blocked_sb,
            ReadyState::Blocked(BlockCause::Barrier) => &mut word.blocked_bar,
        } |= bit;
    }
}

/// Why one scheduler partition failed to issue this cycle. Recorded per
/// partition during the issue scan and folded into [`CoreStats`] once the
/// cycle's quiet verdict is known (quiet cycles collapse into
/// `stall_ff_idle` so live and fast-forwarded accounting agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStall {
    /// The partition issued — no stall to attribute.
    Issued,
    /// No resident warps in the partition.
    NoResident,
    /// Every resident warp blocked on a scoreboard dependency.
    Scoreboard,
    /// Blocked on the memory system (outstanding loads or LSQ/MSHR full).
    MemPending,
    /// A ready shared-memory access waits for the shared pipe.
    ExecBusy,
    /// Every resident warp waits at a CTA barrier.
    Barrier,
}

/// One streaming multiprocessor.
pub struct Core {
    id: usize,
    cfg: Arc<GpuConfig>,
    cta_slots: Vec<Option<CtaState>>,
    warps: Vec<Option<Warp>>,
    warp_meta: Vec<Option<WarpMeta>>,
    schedulers: Vec<Box<dyn WarpScheduler>>,
    used_threads: u32,
    used_warps: u32,
    used_regs: u32,
    used_smem: u32,
    l1: Cache,
    lsq: VecDeque<Txn>,
    staged_downstream: Option<gpgpu_mem::cache::Downstream>,
    /// Slab of in-flight tracked loads; a load's token is its slot index.
    load_slab: Vec<LoadTrack>,
    /// Free slots of `load_slab`, reused LIFO.
    load_free: Vec<u32>,
    /// Occupied slots of `load_slab` (slab length minus free list).
    live_loads: usize,
    /// Load transactions waiting on an L1 MSHR fill, `(txn id, token)`.
    /// Linear-scanned: bounded by the MSHR count, so scans stay tiny.
    txn_wait: Vec<(ReqId, u64)>,
    /// Outstanding downstream fetches, `(request id, line address)`.
    fill_wait: Vec<(ReqId, u64)>,
    next_req: u64,
    /// Writeback timer wheel: `wb_wheel[t & wb_mask]` holds the events of
    /// cycle `t`. The wheel is sized past the longest writeback delay, so
    /// buckets never alias; drained buckets keep their capacity.
    wb_wheel: Vec<Vec<WbEvent>>,
    wb_mask: usize,
    /// Events currently on the wheel.
    wb_pending: usize,
    /// Earliest cycle with a pending event (`Cycle::MAX` when empty).
    wb_next: Cycle,
    /// Warp slots that finished while the schedulers were detached for
    /// the issue stage; they are notified right after.
    finished_warps: Vec<usize>,
    shared_pipe_free: Cycle,
    stats: CoreStats,
    issued_per_kernel: Vec<u64>,
    completed_per_kernel: Vec<u64>,
    /// Persistent scratch for the issue stage (candidate list handed to
    /// the warp scheduler), reused so steady-state cycles do not allocate.
    scratch_candidates: Vec<usize>,
    /// Persistent ready-warp bitmask (one bit per warp slot), rebuilt per
    /// scheduler each cycle and used to validate the scheduler's pick.
    ready_mask: Vec<u64>,
    /// Whether the most recent issue stage found any ready warp. Lets
    /// [`quiet_wake`](Self::quiet_wake) reuse the issue stage's readiness
    /// scan instead of repeating it; only meaningful immediately after
    /// [`cycle`](Self::cycle) for the same cycle.
    had_ready_warp: bool,
    /// Readiness memo and slot occupancy as per-class bitsets (see
    /// [`ReadySets`]). The issue scan reads these words instead of poking
    /// the fat `Option<Warp>` array.
    ready_sets: ReadySets,
    /// Persistent scratch recording each scheduler partition's outcome
    /// for the current cycle; folded into the stall taxonomy at the end
    /// of the issue stage once the quiet verdict is known.
    scratch_outcomes: Vec<SlotStall>,
    /// Capture-mode trace buffers (`None` in direct/replay execution).
    capture: Option<CaptureState>,
    /// Replay-mode execution record (`None` in direct/capture execution).
    /// Shared read-only across cores.
    replay: Option<Arc<ExecRecord>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("ctas", &self.active_cta_count())
            .field("warps", &self.used_warps)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Builds core `id` with scheduler instances from `factory`.
    pub fn new(id: usize, cfg: Arc<GpuConfig>, factory: &dyn WarpSchedulerFactory) -> Self {
        let schedulers = (0..cfg.num_sched_per_core as usize)
            .map(|s| factory.create(id, s))
            .collect();
        // The wheel must outspan the longest writeback delay so a bucket
        // never holds events of two different cycles at once. Shared-memory
        // ops replay up to WARP_SIZE bank-conflict passes on top of their
        // base latency.
        let max_wb_delay = cfg
            .int_latency
            .max(cfg.fp_latency)
            .max(cfg.sfu_latency)
            .max(cfg.l1_latency)
            .max(cfg.shared_latency + WARP_SIZE as u32 - 1);
        let wheel_size = (max_wb_delay as usize + 2).next_power_of_two();
        let slots = cfg.max_warps_per_core as usize;
        Core {
            id,
            cta_slots: (0..cfg.max_ctas_per_core as usize).map(|_| None).collect(),
            warps: (0..slots).map(|_| None).collect(),
            warp_meta: (0..slots).map(|_| None).collect(),
            schedulers,
            used_threads: 0,
            used_warps: 0,
            used_regs: 0,
            used_smem: 0,
            l1: Cache::new(cfg.l1.clone()),
            lsq: VecDeque::new(),
            staged_downstream: None,
            load_slab: Vec::new(),
            load_free: Vec::new(),
            live_loads: 0,
            txn_wait: Vec::new(),
            fill_wait: Vec::new(),
            next_req: 0,
            wb_wheel: (0..wheel_size).map(|_| Vec::new()).collect(),
            wb_mask: wheel_size - 1,
            wb_pending: 0,
            wb_next: Cycle::MAX,
            finished_warps: Vec::new(),
            shared_pipe_free: 0,
            stats: CoreStats::default(),
            issued_per_kernel: Vec::new(),
            completed_per_kernel: Vec::new(),
            scratch_candidates: Vec::new(),
            ready_mask: vec![0; slots.div_ceil(64)],
            had_ready_warp: false,
            ready_sets: ReadySets::new(slots, cfg.num_sched_per_core as usize),
            scratch_outcomes: Vec::new(),
            capture: None,
            replay: None,
            cfg,
        }
    }

    /// Turns trace capture on or off. Capture only appends to side
    /// buffers from the issue stage — timing, statistics, and memory are
    /// untouched, so a capture run's outputs equal a direct run's.
    /// Toggle before dispatching any work.
    pub fn set_capture(&mut self, on: bool) {
        self.capture = on.then(|| CaptureState {
            bufs: (0..self.warps.len()).map(|_| WarpTrace::default()).collect(),
            done: Vec::new(),
        });
    }

    /// Installs (or clears) the execution record driving replay mode.
    /// Install before dispatching any work.
    pub fn set_replay(&mut self, record: Option<Arc<ExecRecord>>) {
        self.replay = record;
    }

    /// Drains the traces of every warp that retired while capture was on.
    pub(crate) fn take_captured(&mut self) -> Vec<CapturedWarp> {
        self.capture
            .as_mut()
            .map(|c| std::mem::take(&mut c.done))
            .unwrap_or_default()
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of resident CTAs.
    pub fn active_cta_count(&self) -> u32 {
        self.cta_slots.iter().filter(|s| s.is_some()).count() as u32
    }

    /// Resident CTAs belonging to `kernel`.
    pub fn cta_count_of(&self, kernel: KernelId) -> u32 {
        self.cta_slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|c| c.kernel == kernel))
            .count() as u32
    }

    /// Warps currently resident on this core (all kernels).
    pub fn resident_warps(&self) -> u32 {
        self.used_warps
    }

    /// L1 MSHR entries currently in use (instantaneous occupancy; the
    /// telemetry sampler's contention signal).
    pub fn l1_mshrs_in_use(&self) -> usize {
        self.l1.mshrs_in_use()
    }

    /// CTAs of `kernel` completed on this core so far.
    pub fn completed_of(&self, kernel: KernelId) -> u64 {
        self.completed_per_kernel.get(kernel.0).copied().unwrap_or(0)
    }

    /// Instructions issued for `kernel` on this core.
    pub fn issued_of(&self, kernel: KernelId) -> u64 {
        self.issued_per_kernel.get(kernel.0).copied().unwrap_or(0)
    }

    /// How many additional CTAs of `desc` fit right now, considering CTA
    /// slots, threads, warps, registers, and shared memory.
    pub fn capacity_for(&self, desc: &KernelDescriptor) -> u32 {
        let free_slots = self.cta_slots.iter().filter(|s| s.is_none()).count() as u32;
        let threads = desc.threads_per_cta();
        let warps = desc.warps_per_cta();
        let by_threads = (self.cfg.max_threads_per_core - self.used_threads) / threads;
        let by_warps = (self.cfg.max_warps_per_core - self.used_warps) / warps;
        let regs_per_cta = desc.regs_per_thread() * threads;
        let by_regs = if regs_per_cta == 0 {
            u32::MAX
        } else {
            (self.cfg.regfile_per_core - self.used_regs) / regs_per_cta
        };
        let by_smem = if desc.smem_per_cta() == 0 {
            u32::MAX
        } else {
            (self.cfg.smem_per_core - self.used_smem) / desc.smem_per_cta()
        };
        free_slots
            .min(by_threads)
            .min(by_warps)
            .min(by_regs)
            .min(by_smem)
    }

    /// The hardware occupancy limit for `desc` on an empty core
    /// (`min(max_ctas, resource limits)`) — the baseline "max CTAs" the
    /// paper's LCS throttles below.
    pub fn hw_max_ctas(cfg: &GpuConfig, desc: &KernelDescriptor) -> u32 {
        let threads = desc.threads_per_cta();
        let warps = desc.warps_per_cta();
        let regs_per_cta = desc.regs_per_thread() * threads;
        let by_regs = if regs_per_cta == 0 {
            u32::MAX
        } else {
            cfg.regfile_per_core / regs_per_cta
        };
        let by_smem = if desc.smem_per_cta() == 0 {
            u32::MAX
        } else {
            cfg.smem_per_core / desc.smem_per_cta()
        };
        cfg.max_ctas_per_core
            .min(cfg.max_threads_per_core / threads)
            .min(cfg.max_warps_per_core / warps)
            .min(by_regs)
            .min(by_smem)
    }

    /// Installs one CTA. The caller must have verified capacity with
    /// [`capacity_for`](Self::capacity_for).
    ///
    /// `age` supplies monotonically increasing dispatch stamps for the
    /// CTA's warps (GTO's notion of age).
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit.
    pub fn dispatch_cta(
        &mut self,
        kernel: KernelId,
        cta_id: u64,
        desc: &Arc<KernelDescriptor>,
        age: &mut u64,
    ) {
        assert!(self.capacity_for(desc) >= 1, "CTA does not fit on core");
        // Grow the dense per-kernel counters once here so the per-issue
        // and per-retire hot paths are plain indexed accesses.
        if self.issued_per_kernel.len() <= kernel.0 {
            self.issued_per_kernel.resize(kernel.0 + 1, 0);
            self.completed_per_kernel.resize(kernel.0 + 1, 0);
        }
        let slot = self
            .cta_slots
            .iter()
            .position(|s| s.is_none())
            .expect("free CTA slot");
        let warps_needed = desc.warps_per_cta() as usize;
        let threads = desc.threads_per_cta();
        let mut warp_slots = Vec::with_capacity(warps_needed);
        for (w, entry) in self.warps.iter().enumerate() {
            if entry.is_none() {
                warp_slots.push(w);
                if warp_slots.len() == warps_needed {
                    break;
                }
            }
        }
        assert_eq!(warp_slots.len(), warps_needed, "free warp slots");

        let reg_count = desc.program().reg_count().max(1) as usize;
        let pred_count = desc.program().pred_count() as usize;
        for (i, &w) in warp_slots.iter().enumerate() {
            let warp_in_cta = i as u32;
            let base = warp_in_cta * WARP_SIZE as u32;
            let mut mask: LaneMask = 0;
            for lane in 0..WARP_SIZE as u32 {
                if base + lane < threads {
                    mask |= 1 << lane;
                }
            }
            *age += 1;
            let meta = WarpMeta {
                kernel,
                cta_id,
                cta_slot: slot,
                warp_in_cta,
                age: *age,
                issued: 0,
            };
            self.warps[w] = Some(Warp {
                kernel,
                cta_slot: slot,
                cta_id,
                warp_in_cta,
                desc: Arc::clone(desc),
                stack: SimtStack::new(mask),
                exited: 0,
                regs: vec![[0; WARP_SIZE]; reg_count],
                preds: vec![0; pred_count],
                pending_regs: 0,
                pending_preds: 0,
                outstanding_loads: 0,
                at_barrier: false,
                trace_cursor: 0,
            });
            if let Some(cap) = &mut self.capture {
                cap.bufs[w].steps.clear();
                cap.bufs[w].addrs.clear();
            }
            self.warp_meta[w] = Some(meta);
            self.ready_sets.insert(w);
            for s in &mut self.schedulers {
                s.on_warp_start(w, &meta);
            }
        }
        self.used_threads += threads;
        self.used_warps += desc.warps_per_cta();
        self.used_regs += desc.regs_per_thread() * threads;
        self.used_smem += desc.smem_per_cta();
        self.cta_slots[slot] = Some(CtaState {
            kernel,
            cta_id,
            desc: Arc::clone(desc),
            warp_slots,
            live_warps: desc.warps_per_cta(),
            barrier_arrived: 0,
            issued: 0,
            shared: SharedMem::new(desc.smem_per_cta()),
        });
    }

    /// Issue-count snapshot of the resident CTA slots.
    pub fn cta_slot_snapshot(&self) -> Vec<CtaIssueSample> {
        self.cta_slots
            .iter()
            .flatten()
            .map(|c| CtaIssueSample {
                kernel: c.kernel,
                cta_id: c.cta_id,
                issued: c.issued,
                running: true,
            })
            .collect()
    }

    /// Handles a memory-fabric response (an L1 line fill).
    pub fn handle_response(&mut self, now: Cycle, resp: MemResponse) {
        let Some(i) = self.fill_wait.iter().position(|(id, _)| *id == resp.id) else {
            return; // not ours / already handled
        };
        let (_, line) = self.fill_wait.swap_remove(i);
        let out = self.l1.fill(line, now);
        for txn_id in out.ready {
            if let Some(i) = self.txn_wait.iter().position(|(id, _)| *id == txn_id) {
                let (_, token) = self.txn_wait.swap_remove(i);
                self.schedule_wb(now, WbEvent::LoadPartDone { token });
            }
        }
    }

    /// Invalidates the L1 (kernel-boundary cold cache).
    pub fn flush_l1(&mut self) {
        self.l1.flush();
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> &gpgpu_mem::CacheStats {
        self.l1.stats()
    }

    /// Core statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core holds no work at all.
    pub fn is_idle(&self) -> bool {
        self.cta_slots.iter().all(Option::is_none)
            && self.lsq.is_empty()
            && self.live_loads == 0
            && self.fill_wait.is_empty()
            && self.staged_downstream.is_none()
            && !self.l1.has_downstream()
    }

    fn fresh_req_id(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(((self.id as u64) << 48) | self.next_req)
    }

    /// Enqueues a writeback event for cycle `t` on the timer wheel.
    fn schedule_wb(&mut self, t: Cycle, ev: WbEvent) {
        self.wb_wheel[(t as usize) & self.wb_mask].push(ev);
        self.wb_pending += 1;
        if t < self.wb_next {
            self.wb_next = t;
        }
    }

    /// Whether this core can do nothing at cycle `now` without external
    /// input, and if so, the earliest future cycle its own state changes
    /// (`Cycle::MAX` when it has no pending events at all). `None` means
    /// the core is *not* quiet — it has memory work in flight or a warp
    /// that could issue — so cycles must not be skipped.
    ///
    /// Valid only immediately after [`cycle`](Self::cycle) for that same
    /// `now`: it reuses the issue stage's readiness scan
    /// (`had_ready_warp`) rather than repeating it. Readiness cannot
    /// appear out of thin air afterwards — it only changes through
    /// writebacks (capped by `wb_next`), the shared pipe draining (capped
    /// by `shared_pipe_free`), or memory responses (capped by the
    /// fabric's next event, checked by the caller).
    pub(crate) fn quiet_wake(&mut self, now: Cycle) -> Option<Cycle> {
        if self.had_ready_warp
            || !self.lsq.is_empty()
            || self.staged_downstream.is_some()
            || self.l1.has_downstream()
        {
            return None;
        }
        let mut wake = self.wb_next;
        // `>=`: at `shared_pipe_free == now` the pipe frees exactly on the
        // next cycle to run, which may make a shared-memory warp issuable
        // — that cycle must execute live, not be skipped.
        if self.shared_pipe_free >= now {
            wake = wake.min(self.shared_pipe_free);
        }
        Some(wake)
    }

    /// Books the scheduler-slot statistics for `cycles` skipped quiet
    /// cycles, exactly as the cycle-by-cycle loop would have: a scheduler
    /// partition with resident warps (none ready, by the quiet check)
    /// stalls, an empty one idles. Warp residency cannot change during
    /// quiet cycles, so one scan covers the whole span.
    ///
    /// Cycle accounting follows the same closed form: every skipped cycle
    /// is quiet by construction, so each would have booked its scheduler
    /// slots as `stall_ff_idle` had it run live (the issue stage applies
    /// the identical quiet predicate per cycle), and the occupancy
    /// integrals advance by the frozen residency times the span length.
    pub(crate) fn account_skipped(&mut self, cycles: u64) {
        let nsched = self.schedulers.len();
        for s in 0..nsched {
            if self.ready_sets.any_occupied(s) {
                self.stats.stalled_slots += cycles;
            } else {
                self.stats.idle_slots += cycles;
            }
        }
        self.stats.stall_ff_idle += nsched as u64 * cycles;
        self.stats.core_cycles += cycles;
        self.stats.cta_resident_cycles += u64::from(self.active_cta_count()) * cycles;
        self.stats.warp_resident_cycles += u64::from(self.used_warps) * cycles;
    }

    /// Advances the core one cycle: handles the fabric responses routed
    /// to it, retires due writebacks, services the L1 port, runs the
    /// issue stage (global loads and stores hit `gmem` at issue, in issue
    /// order), and forwards the L1's downstream traffic into the fabric.
    /// CTAs that retire are appended to `retired` in retirement order.
    pub fn cycle(
        &mut self,
        now: Cycle,
        fabric: &mut MemFabric,
        gmem: &mut GlobalMem,
        retired: &mut Vec<CoreCtaCompletion>,
    ) {
        while let Some(resp) = fabric.pop_response(self.id) {
            self.handle_response(now, resp);
        }
        self.process_writebacks(now);
        self.pump_l1(now);
        self.issue(now, gmem, retired);
        self.forward_downstream(now, fabric);
    }

    fn process_writebacks(&mut self, now: Cycle) {
        if self.wb_next > now {
            return;
        }
        // Drain every due bucket in cycle order. The wheel outspans the
        // longest writeback delay and the drain is never more than one
        // fast-forward jump behind `wb_next`, so buckets cannot alias.
        let mut t = self.wb_next;
        while t <= now {
            let idx = (t as usize) & self.wb_mask;
            if !self.wb_wheel[idx].is_empty() {
                let mut events = std::mem::take(&mut self.wb_wheel[idx]);
                self.wb_pending -= events.len();
                for ev in events.drain(..) {
                    match ev {
                        WbEvent::Reg { warp, reg } => {
                            if let Some(w) = self.warps[warp].as_mut() {
                                w.pending_regs &= !(1u64 << reg);
                                self.ready_sets.invalidate(warp);
                            }
                        }
                        WbEvent::Pred { warp, pred } => {
                            if let Some(w) = self.warps[warp].as_mut() {
                                w.pending_preds &= !(1u8 << pred);
                                self.ready_sets.invalidate(warp);
                            }
                        }
                        WbEvent::LoadPartDone { token } => {
                            let track = &mut self.load_slab[token as usize];
                            debug_assert!(track.remaining > 0, "event for retired token");
                            track.remaining -= 1;
                            if track.remaining == 0 {
                                let (warp, reg) = (track.warp, track.reg);
                                self.load_free.push(token as u32);
                                self.live_loads -= 1;
                                if let Some(w) = self.warps[warp].as_mut() {
                                    w.pending_regs &= !(1u64 << reg);
                                    w.outstanding_loads -= 1;
                                    self.ready_sets.invalidate(warp);
                                }
                            }
                        }
                    }
                }
                // Hand the drained buffer back so its capacity is reused.
                self.wb_wheel[idx] = events;
            }
            t += 1;
        }
        // Recompute the next pending cycle by scanning forward one wheel
        // revolution (only reachable buckets can hold events).
        self.wb_next = Cycle::MAX;
        if self.wb_pending > 0 {
            for dt in 1..=(self.wb_mask as u64 + 1) {
                if !self.wb_wheel[((now + dt) as usize) & self.wb_mask].is_empty() {
                    self.wb_next = now + dt;
                    break;
                }
            }
            debug_assert!(self.wb_next != Cycle::MAX, "pending events must be findable");
        }
    }

    /// Drives the L1 side of the load/store unit. The downstream messages
    /// an access produces stay queued inside the cache until
    /// [`forward_downstream`](Self::forward_downstream) runs at the end of
    /// the same cycle.
    fn pump_l1(&mut self, now: Cycle) {
        // One L1 port: service the head transaction.
        if let Some(&txn) = self.lsq.front() {
            let kind = if txn.is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let id = (!txn.is_store).then_some(txn.id);
            match self.l1.access(txn.line, kind, id, now) {
                Access::Hit => {
                    if let Some(token) = txn.token {
                        let t = now + u64::from(self.cfg.l1_latency);
                        self.schedule_wb(t, WbEvent::LoadPartDone { token });
                    }
                    self.lsq.pop_front();
                }
                Access::Miss | Access::MissMerged => {
                    if let Some(token) = txn.token {
                        self.txn_wait.push((txn.id, token));
                    }
                    self.lsq.pop_front();
                }
                Access::MissNoAlloc => {
                    self.lsq.pop_front();
                }
                Access::Fail(_) => {} // structural: retry next cycle
            }
        }
    }

    /// Forwards L1 downstream messages (fetches, write-throughs,
    /// writebacks) into the fabric until it back-pressures.
    fn forward_downstream(&mut self, now: Cycle, fabric: &mut MemFabric) {
        loop {
            if self.staged_downstream.is_none() {
                self.staged_downstream = self.l1.pop_downstream();
            }
            let Some(d) = self.staged_downstream else {
                break;
            };
            let (kind, size) = match d.kind {
                DownstreamKind::Fetch => (AccessKind::Load, 0),
                DownstreamKind::WriteThrough | DownstreamKind::Writeback => {
                    (AccessKind::Store, d.size)
                }
            };
            let id = self.fresh_req_id();
            let req = MemRequest {
                id,
                addr: d.addr,
                size,
                kind,
                core: self.id,
            };
            if fabric.try_submit(now, req) {
                if matches!(d.kind, DownstreamKind::Fetch) {
                    self.fill_wait.push((id, d.addr));
                }
                self.staged_downstream = None;
            } else {
                break;
            }
        }
    }

    /// Computes the warp-local readiness verdict for `slot`: whether the
    /// scoreboard, barrier, and SIMT-stack state let its next instruction
    /// issue. Structural hazards (LSQ space, shared pipe) are *not*
    /// folded in — they depend on shared state, so the issue stage checks
    /// them fresh against the returned `ReadyMem*` class each cycle. The
    /// verdict is cacheable until the warp issues or an unblocking event
    /// hits the slot.
    fn readiness(&mut self, slot: usize) -> ReadyState {
        let Some(w) = self.warps[slot].as_mut() else {
            return ReadyState::Blocked(BlockCause::Scoreboard);
        };
        if w.at_barrier {
            return ReadyState::Blocked(BlockCause::Barrier);
        }
        // Replay mode reads the next pc from the recorded trace (the
        // SIMT stack is not simulated); direct execution syncs the stack.
        // Everything below — the scoreboard, the structural classes — is
        // shared between the two modes.
        let pc = if let Some(rec) = &self.replay {
            rec.warp_trace(w.kernel.0, w.cta_id, w.warp_in_cta).steps[w.trace_cursor as usize].pc
        } else {
            match w.stack.sync(w.exited) {
                Some((pc, _mask)) => pc,
                None => return ReadyState::Blocked(BlockCause::Scoreboard),
            }
        };
        // Any scoreboard wait while the warp has global loads in flight is
        // attributed to memory — the load's latency is what the warp is
        // really paying for — otherwise to the in-core writeback pipe.
        let dep = if w.outstanding_loads > 0 {
            ReadyState::Blocked(BlockCause::Mem)
        } else {
            ReadyState::Blocked(BlockCause::Scoreboard)
        };
        let ins = *w.desc.program().fetch(pc);
        // Scoreboard: sources, destination, and involved predicates.
        let reg_pending = |r: gpgpu_isa::Reg| w.pending_regs & (1u64 << r.0) != 0;
        let pred_pending = |p: gpgpu_isa::Pred| w.pending_preds & (1u8 << p.0) != 0;
        if let Some(g) = ins.guard {
            if pred_pending(g.pred) {
                return dep;
            }
        }
        if ins.src_regs().iter().any(|r| reg_pending(*r)) {
            return dep;
        }
        if let Some(d) = ins.dst_reg() {
            if reg_pending(d) {
                return dep;
            }
        }
        match &ins.op {
            Instr::SetP { dst, .. } => {
                if pred_pending(*dst) {
                    return dep;
                }
            }
            Instr::PBool { dst, a, b, .. } => {
                if pred_pending(*dst) || pred_pending(*a) || pred_pending(*b) {
                    return dep;
                }
            }
            Instr::Sel { pred, .. } => {
                if pred_pending(*pred) {
                    return dep;
                }
            }
            Instr::BraCond { pred, .. } => {
                if pred_pending(*pred) {
                    return dep;
                }
            }
            Instr::Exit => {
                if w.pending_regs != 0 || w.pending_preds != 0 || w.outstanding_loads != 0 {
                    return dep;
                }
            }
            _ => {}
        }
        match ins.exec_class() {
            ExecClass::MemGlobal => ReadyState::ReadyMemGlobal,
            ExecClass::MemShared => ReadyState::ReadyMemShared,
            _ => ReadyState::Ready,
        }
    }

    /// The per-scheduler issue stage. Steady-state cycles run entirely on
    /// persistent scratch buffers (candidate list, ready bitmask) — no
    /// per-cycle allocation. CTA retirements are appended to `retired`.
    fn issue(&mut self, now: Cycle, gmem: &mut GlobalMem, retired: &mut Vec<CoreCtaCompletion>) {
        let nsched = self.schedulers.len();
        let mut schedulers = std::mem::take(&mut self.schedulers);
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        let mut ready = std::mem::take(&mut self.ready_mask);
        let mut outcomes = std::mem::take(&mut self.scratch_outcomes);
        outcomes.clear();
        self.had_ready_warp = false;
        for (s, sched) in schedulers.iter_mut().enumerate() {
            let mut occupied_any = false;
            candidates.clear();
            // Structural resources are re-read per scheduler: the
            // previous scheduler's issue may have consumed them.
            let lsq_has_space = self.lsq.len() < self.cfg.ldst_queue_len;
            let shared_free = self.shared_pipe_free <= now;
            for (w, ready_word) in ready.iter_mut().enumerate() {
                let occ = self.ready_sets.occupied_in(s, w);
                *ready_word = 0;
                if occ == 0 {
                    continue;
                }
                occupied_any = true;
                // Refresh stale verdicts in ascending slot order, at this
                // partition's turn (after earlier partitions issued).
                let mut stale = self.ready_sets.words[w].stale & occ;
                while stale != 0 {
                    let slot = (w << 6) | stale.trailing_zeros() as usize;
                    stale &= stale - 1;
                    let st = self.readiness(slot);
                    self.ready_sets.record(slot, st);
                }
                let word = &self.ready_sets.words[w];
                let mut cand = word.ready;
                if lsq_has_space {
                    cand |= word.mem_global;
                }
                if shared_free {
                    cand |= word.mem_shared;
                }
                cand &= occ;
                *ready_word = cand;
                while cand != 0 {
                    candidates.push((w << 6) | cand.trailing_zeros() as usize);
                    cand &= cand - 1;
                }
            }
            if !occupied_any {
                self.stats.idle_slots += 1;
                outcomes.push(SlotStall::NoResident);
                continue;
            }
            if candidates.is_empty() {
                self.stats.stalled_slots += 1;
                outcomes.push(self.classify_stall(s, lsq_has_space, shared_free));
                continue;
            }
            self.had_ready_warp = true;
            let view = IssueView::new(now, self.id, &self.warp_meta);
            let picked = sched.pick(&view, &candidates);
            // Validate the pick against the ready bitmask (O(1), vs. a
            // linear scan of the candidate list).
            let Some(slot) =
                picked.filter(|&p| p >> 6 < ready.len() && ready[p >> 6] & (1u64 << (p & 63)) != 0)
            else {
                // Defensive path: ready work existed but the policy
                // declined it — the issue unit sat on its hands.
                self.stats.stalled_slots += 1;
                outcomes.push(SlotStall::ExecBusy);
                continue;
            };
            sched.on_issue(slot);
            self.stats.issued_slots += 1;
            outcomes.push(SlotStall::Issued);
            // Issuing advances the warp's pc and scoreboard state: its
            // memoized verdict is stale.
            self.ready_sets.invalidate(slot);
            if let Some(c) = self.execute_one(slot, now, gmem) {
                retired.push(c);
            }
        }
        // Cycle accounting. A quiet cycle — no ready warp and no memory
        // work in flight on this core — is exactly one the idle
        // fast-forward may skip (`quiet_wake`); booking it as
        // `stall_ff_idle` here, from core-local state only, keeps every
        // counter byte-identical across fast-forward modes. Non-quiet
        // cycles book the per-partition attributions recorded during the
        // scan.
        let quiet = !self.had_ready_warp
            && self.lsq.is_empty()
            && self.staged_downstream.is_none()
            && !self.l1.has_downstream();
        if quiet {
            self.stats.stall_ff_idle += nsched as u64;
        } else {
            for o in &outcomes {
                match o {
                    SlotStall::Issued => {}
                    SlotStall::NoResident => self.stats.stall_no_resident += 1,
                    SlotStall::Scoreboard => self.stats.stall_scoreboard += 1,
                    SlotStall::MemPending => self.stats.stall_mem_pending += 1,
                    SlotStall::ExecBusy => self.stats.stall_exec_busy += 1,
                    SlotStall::Barrier => self.stats.stall_barrier += 1,
                }
            }
        }
        self.stats.core_cycles += 1;
        self.stats.cta_resident_cycles += u64::from(self.active_cta_count());
        self.stats.warp_resident_cycles += u64::from(self.used_warps);
        self.ready_mask = ready;
        self.scratch_candidates = candidates;
        self.scratch_outcomes = outcomes;
        self.schedulers = schedulers;
        for slot in std::mem::take(&mut self.finished_warps) {
            for s in &mut self.schedulers {
                s.on_warp_finish(slot);
            }
        }
    }

    /// Attributes a stalled scheduler partition (occupied, no candidates)
    /// to one taxonomy cause by OR-ing the partition's verdict classes
    /// and picking the highest-priority cause present: memory > execution
    /// unit > scoreboard > barrier. Reads only memoized state — by the
    /// time a partition stalls, every occupied slot's verdict was just
    /// refreshed by the scan.
    fn classify_stall(&self, s: usize, lsq_has_space: bool, shared_free: bool) -> SlotStall {
        let (mut mem, mut exec, mut sb, mut bar) = (0u64, 0u64, 0u64, 0u64);
        for (w, word) in self.ready_sets.words.iter().enumerate() {
            let occ = self.ready_sets.occupied_in(s, w);
            mem |= occ & word.blocked_mem;
            if !lsq_has_space {
                mem |= occ & word.mem_global;
            }
            if !shared_free {
                exec |= occ & word.mem_shared;
            }
            sb |= occ & word.blocked_sb;
            bar |= occ & word.blocked_bar;
        }
        if mem != 0 {
            SlotStall::MemPending
        } else if exec != 0 {
            SlotStall::ExecBusy
        } else if bar != 0 && sb == 0 {
            SlotStall::Barrier
        } else {
            SlotStall::Scoreboard
        }
    }

    /// Executes the next instruction of the warp in `slot` (readiness
    /// already verified). Returns a completion if this retired the warp's
    /// CTA.
    fn execute_one(
        &mut self,
        slot: usize,
        now: Cycle,
        gmem: &mut GlobalMem,
    ) -> Option<CoreCtaCompletion> {
        if self.replay.is_some() {
            return self.execute_one_replay(slot, now, gmem);
        }
        let cfg = Arc::clone(&self.cfg);
        let Core {
            warps,
            cta_slots,
            warp_meta,
            capture,
            lsq,
            wb_wheel,
            wb_mask,
            wb_pending,
            wb_next,
            load_slab,
            load_free,
            live_loads,
            next_req,
            shared_pipe_free,
            stats,
            issued_per_kernel,
            ready_sets,
            id: core_id,
            ..
        } = self;
        let wb_mask = *wb_mask;
        let w = warps[slot].as_mut().expect("warp present");
        let (pc, mask) = w.stack.sync(w.exited).expect("ready warp has a pc");
        let ins = *w.desc.program().fetch(pc);

        // Effective lane set: active mask restricted by the guard.
        let exec_mask = match ins.guard {
            Some(g) => {
                let pv = w.preds[g.pred.0 as usize];
                mask & if g.expect { pv } else { !pv }
            }
            None => mask,
        };

        // Capture: memory arms fill in the generated addresses below
        // (a stack copy — the arena push is the only heap traffic).
        let capturing = capture.is_some();
        let mut cap_addrs: Option<[u64; WARP_SIZE]> = None;

        // Statistics. The per-kernel vector was grown at dispatch time, so
        // the hot path is a plain indexed increment.
        stats.issued += 1;
        issued_per_kernel[w.kernel.0] += 1;
        if let Some(m) = warp_meta[slot].as_mut() {
            m.issued += 1;
        }
        let cta = cta_slots[w.cta_slot].as_mut().expect("cta present");
        cta.issued += 1;

        let read = |w: &Warp, op: Operand, lane: usize| -> u64 {
            match op {
                Operand::Reg(r) => w.regs[r.0 as usize][lane],
                Operand::Imm(v) => v,
            }
        };
        let lanes = |m: LaneMask| (0..WARP_SIZE).filter(move |l| m & (1 << l) != 0);

        macro_rules! schedule_wb {
            ($t:expr, $ev:expr) => {{
                let t: Cycle = $t;
                wb_wheel[(t as usize) & wb_mask].push($ev);
                *wb_pending += 1;
                if t < *wb_next {
                    *wb_next = t;
                }
            }};
        }
        macro_rules! schedule_reg_wb {
            ($t:expr, $reg:expr) => {
                schedule_wb!(
                    $t,
                    WbEvent::Reg {
                        warp: slot,
                        reg: $reg,
                    }
                )
            };
        }

        match ins.op {
            Instr::Alu { op, dst, a, b, c } => {
                for lane in lanes(exec_mask) {
                    let (av, bv, cv) = (read(w, a, lane), read(w, b, lane), read(w, c, lane));
                    w.regs[dst.0 as usize][lane] = sem::eval_alu(op, av, bv, cv);
                }
                let lat = match ins.exec_class() {
                    ExecClass::Sfu => cfg.sfu_latency,
                    ExecClass::FpAlu => cfg.fp_latency,
                    _ => cfg.int_latency,
                };
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(lat), dst.0);
                w.stack.advance();
            }
            Instr::Mov { dst, src } => {
                for lane in lanes(exec_mask) {
                    w.regs[dst.0 as usize][lane] = read(w, src, lane);
                }
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
                w.stack.advance();
            }
            Instr::Special { dst, sreg } => {
                for lane in lanes(exec_mask) {
                    w.regs[dst.0 as usize][lane] =
                        special_value(sreg, &w.desc, w.cta_id, w.warp_in_cta, lane);
                }
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
                w.stack.advance();
            }
            Instr::Param { dst, index } => {
                let v = w.desc.params()[index as usize];
                for lane in lanes(exec_mask) {
                    w.regs[dst.0 as usize][lane] = v;
                }
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
                w.stack.advance();
            }
            Instr::SetP { dst, cmp, ty, a, b } => {
                let mut pv = w.preds[dst.0 as usize];
                for lane in lanes(exec_mask) {
                    let r = sem::eval_cmp(cmp, ty, read(w, a, lane), read(w, b, lane));
                    if r {
                        pv |= 1 << lane;
                    } else {
                        pv &= !(1 << lane);
                    }
                }
                w.preds[dst.0 as usize] = pv;
                w.pending_preds |= 1u8 << dst.0;
                schedule_wb!(
                    now + u64::from(cfg.int_latency),
                    WbEvent::Pred { warp: slot, pred: dst.0 }
                );
                w.stack.advance();
            }
            Instr::PBool { dst, op, a, b } => {
                let (av, bv) = (w.preds[a.0 as usize], w.preds[b.0 as usize]);
                let mut pv = w.preds[dst.0 as usize];
                for lane in lanes(exec_mask) {
                    let bit = 1u32 << lane;
                    let r = sem::eval_pbool(op, av & bit != 0, bv & bit != 0);
                    if r {
                        pv |= bit;
                    } else {
                        pv &= !bit;
                    }
                }
                w.preds[dst.0 as usize] = pv;
                w.pending_preds |= 1u8 << dst.0;
                schedule_wb!(
                    now + u64::from(cfg.int_latency),
                    WbEvent::Pred { warp: slot, pred: dst.0 }
                );
                w.stack.advance();
            }
            Instr::Sel { dst, pred, a, b } => {
                let pv = w.preds[pred.0 as usize];
                for lane in lanes(exec_mask) {
                    let v = if pv & (1 << lane) != 0 {
                        read(w, a, lane)
                    } else {
                        read(w, b, lane)
                    };
                    w.regs[dst.0 as usize][lane] = v;
                }
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
                w.stack.advance();
            }
            Instr::Bra { target } => {
                w.stack.jump(target);
            }
            Instr::BraCond {
                pred,
                neg,
                target,
                reconv,
            } => {
                let pv = w.preds[pred.0 as usize];
                let cond = if neg { !pv } else { pv };
                let taken = mask & cond;
                let fall = mask & !cond;
                w.stack.branch(taken, fall, target, reconv);
            }
            Instr::Bar => {
                w.stack.advance();
                w.at_barrier = true;
                cta.barrier_arrived += 1;
                if cta.barrier_arrived >= cta.live_warps {
                    cta.barrier_arrived = 0;
                    for &ws in &cta.warp_slots {
                        if let Some(other) = warps_get_mut(warps, ws, slot) {
                            other.at_barrier = false;
                        }
                        ready_sets.invalidate(ws);
                    }
                    // `warps_get_mut` cannot hand back `slot` itself, so
                    // clear it explicitly.
                    warps[slot].as_mut().expect("self").at_barrier = false;
                }
            }
            Instr::Ld { space, dst, addr, width } => {
                let mut addrs = [0u64; WARP_SIZE];
                for lane in lanes(exec_mask) {
                    addrs[lane] =
                        w.regs[addr.base.0 as usize][lane].wrapping_add(addr.offset as u64);
                }
                if capturing {
                    cap_addrs = Some(addrs);
                }
                match space {
                    MemSpace::Global => {
                        for lane in lanes(exec_mask) {
                            w.regs[dst.0 as usize][lane] = gmem.read_width(addrs[lane], width);
                        }
                        let lines = coalesce(
                            &addrs,
                            exec_mask,
                            width.bytes(),
                            u64::from(cfg.l1.line_bytes),
                        );
                        if lines.is_empty() {
                            // Fully guarded off: behaves like a short ALU op.
                            w.pending_regs |= 1u64 << dst.0;
                            schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
                        } else {
                            stats.gmem_transactions += lines.len() as u64;
                            let track = LoadTrack {
                                warp: slot,
                                reg: dst.0,
                                remaining: lines.len() as u32,
                            };
                            let token = match load_free.pop() {
                                Some(i) => {
                                    load_slab[i as usize] = track;
                                    u64::from(i)
                                }
                                None => {
                                    load_slab.push(track);
                                    (load_slab.len() - 1) as u64
                                }
                            };
                            *live_loads += 1;
                            w.pending_regs |= 1u64 << dst.0;
                            w.outstanding_loads += 1;
                            for &line in &lines {
                                *next_req += 1;
                                lsq.push_back(Txn {
                                    id: ReqId(((*core_id as u64) << 48) | *next_req),
                                    line,
                                    token: Some(token),
                                    is_store: false,
                                });
                            }
                        }
                    }
                    MemSpace::Shared => {
                        for lane in lanes(exec_mask) {
                            let v = match width {
                                AccessWidth::W4 => u64::from(cta.shared.read_u32(addrs[lane])),
                                AccessWidth::W8 => cta.shared.read_u64(addrs[lane]),
                            };
                            w.regs[dst.0 as usize][lane] = v;
                        }
                        let passes = shared_conflict_passes(&addrs, exec_mask).max(1);
                        stats.shared_replays += u64::from(passes - 1);
                        *shared_pipe_free = now + u64::from(passes);
                        w.pending_regs |= 1u64 << dst.0;
                        schedule_reg_wb!(
                            now + u64::from(cfg.shared_latency) + u64::from(passes - 1),
                            dst.0
                        );
                    }
                }
                w.stack.advance();
            }
            Instr::St { space, src, addr, width } => {
                let mut addrs = [0u64; WARP_SIZE];
                for lane in lanes(exec_mask) {
                    addrs[lane] =
                        w.regs[addr.base.0 as usize][lane].wrapping_add(addr.offset as u64);
                }
                if capturing {
                    cap_addrs = Some(addrs);
                }
                match space {
                    MemSpace::Global => {
                        for lane in lanes(exec_mask) {
                            gmem.write_width(addrs[lane], read(w, src, lane), width);
                        }
                        let lines = coalesce(
                            &addrs,
                            exec_mask,
                            width.bytes(),
                            u64::from(cfg.l1.line_bytes),
                        );
                        stats.gmem_transactions += lines.len() as u64;
                        for &line in &lines {
                            *next_req += 1;
                            lsq.push_back(Txn {
                                id: ReqId(((*core_id as u64) << 48) | *next_req),
                                line,
                                token: None,
                                is_store: true,
                            });
                        }
                    }
                    MemSpace::Shared => {
                        for lane in lanes(exec_mask) {
                            let v = read(w, src, lane);
                            match width {
                                AccessWidth::W4 => cta.shared.write_u32(addrs[lane], v as u32),
                                AccessWidth::W8 => cta.shared.write_u64(addrs[lane], v),
                            }
                        }
                        let passes = shared_conflict_passes(&addrs, exec_mask).max(1);
                        stats.shared_replays += u64::from(passes - 1);
                        *shared_pipe_free = now + u64::from(passes);
                    }
                }
                w.stack.advance();
            }
            Instr::Exit => {
                w.exited |= exec_mask;
                w.stack.advance();
            }
        }

        if let Some(cap) = capture {
            cap.bufs[slot].push_step(pc, exec_mask, cap_addrs.as_ref());
        }

        // Did the warp finish?
        let w = warps[slot].as_mut().expect("warp present");
        if w.stack.is_done(w.exited) {
            let cta_slot = w.cta_slot;
            let kernel = w.kernel;
            self.retire_warp(slot, cta_slot, kernel, now)
        } else {
            None
        }
    }

    /// Replay-mode twin of [`execute_one`](Self::execute_one): issues the
    /// next recorded step of the warp in `slot`, performing every timing
    /// action of direct execution — statistics, scoreboard pending bits,
    /// writeback scheduling, coalescing, LSQ traffic, bank-conflict
    /// replays, barrier bookkeeping — while never evaluating semantics.
    /// Register/predicate values, shared/global memory data, and the
    /// SIMT stack are untouched; execution masks and addresses come from
    /// the record. The warp retires when its cursor reaches the end of
    /// its trace, which is exactly the issue after which the direct run
    /// retired it.
    fn execute_one_replay(
        &mut self,
        slot: usize,
        now: Cycle,
        gmem: &mut GlobalMem,
    ) -> Option<CoreCtaCompletion> {
        let cfg = Arc::clone(&self.cfg);
        let rec = Arc::clone(self.replay.as_ref().expect("replay record installed"));
        let Core {
            warps,
            cta_slots,
            warp_meta,
            lsq,
            wb_wheel,
            wb_mask,
            wb_pending,
            wb_next,
            load_slab,
            load_free,
            live_loads,
            next_req,
            shared_pipe_free,
            stats,
            issued_per_kernel,
            ready_sets,
            id: core_id,
            ..
        } = self;
        let wb_mask = *wb_mask;
        let w = warps[slot].as_mut().expect("warp present");
        let trace = rec.warp_trace(w.kernel.0, w.cta_id, w.warp_in_cta);
        let step = trace.steps[w.trace_cursor as usize];
        let ins = *w.desc.program().fetch(step.pc);
        let exec_mask = step.exec_mask;
        let zero_addrs = [0u64; WARP_SIZE];
        let addrs: &[u64; WARP_SIZE] = trace.addrs_of(&step).unwrap_or(&zero_addrs);

        stats.issued += 1;
        issued_per_kernel[w.kernel.0] += 1;
        if let Some(m) = warp_meta[slot].as_mut() {
            m.issued += 1;
        }
        let cta = cta_slots[w.cta_slot].as_mut().expect("cta present");
        cta.issued += 1;

        macro_rules! schedule_wb {
            ($t:expr, $ev:expr) => {{
                let t: Cycle = $t;
                wb_wheel[(t as usize) & wb_mask].push($ev);
                *wb_pending += 1;
                if t < *wb_next {
                    *wb_next = t;
                }
            }};
        }
        macro_rules! schedule_reg_wb {
            ($t:expr, $reg:expr) => {
                schedule_wb!(
                    $t,
                    WbEvent::Reg {
                        warp: slot,
                        reg: $reg,
                    }
                )
            };
        }

        match ins.op {
            Instr::Alu { dst, .. } => {
                let lat = match ins.exec_class() {
                    ExecClass::Sfu => cfg.sfu_latency,
                    ExecClass::FpAlu => cfg.fp_latency,
                    _ => cfg.int_latency,
                };
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(lat), dst.0);
            }
            Instr::Mov { dst, .. }
            | Instr::Special { dst, .. }
            | Instr::Param { dst, .. }
            | Instr::Sel { dst, .. } => {
                w.pending_regs |= 1u64 << dst.0;
                schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
            }
            Instr::SetP { dst, .. } | Instr::PBool { dst, .. } => {
                w.pending_preds |= 1u8 << dst.0;
                schedule_wb!(
                    now + u64::from(cfg.int_latency),
                    WbEvent::Pred { warp: slot, pred: dst.0 }
                );
            }
            Instr::Bra { .. } | Instr::BraCond { .. } | Instr::Exit => {
                // Control flow is the trace itself; nothing to time.
            }
            Instr::Bar => {
                w.at_barrier = true;
                cta.barrier_arrived += 1;
                if cta.barrier_arrived >= cta.live_warps {
                    cta.barrier_arrived = 0;
                    for &ws in &cta.warp_slots {
                        if let Some(other) = warps_get_mut(warps, ws, slot) {
                            other.at_barrier = false;
                        }
                        ready_sets.invalidate(ws);
                    }
                    warps[slot].as_mut().expect("self").at_barrier = false;
                }
            }
            Instr::Ld { space, dst, width, .. } => match space {
                MemSpace::Global => {
                    let lines =
                        coalesce(addrs, exec_mask, width.bytes(), u64::from(cfg.l1.line_bytes));
                    if lines.is_empty() {
                        w.pending_regs |= 1u64 << dst.0;
                        schedule_reg_wb!(now + u64::from(cfg.int_latency), dst.0);
                    } else {
                        stats.gmem_transactions += lines.len() as u64;
                        let track = LoadTrack {
                            warp: slot,
                            reg: dst.0,
                            remaining: lines.len() as u32,
                        };
                        let token = match load_free.pop() {
                            Some(i) => {
                                load_slab[i as usize] = track;
                                u64::from(i)
                            }
                            None => {
                                load_slab.push(track);
                                (load_slab.len() - 1) as u64
                            }
                        };
                        *live_loads += 1;
                        w.pending_regs |= 1u64 << dst.0;
                        w.outstanding_loads += 1;
                        for &line in &lines {
                            *next_req += 1;
                            lsq.push_back(Txn {
                                id: ReqId(((*core_id as u64) << 48) | *next_req),
                                line,
                                token: Some(token),
                                is_store: false,
                            });
                        }
                    }
                }
                MemSpace::Shared => {
                    let passes = shared_conflict_passes(addrs, exec_mask).max(1);
                    stats.shared_replays += u64::from(passes - 1);
                    *shared_pipe_free = now + u64::from(passes);
                    w.pending_regs |= 1u64 << dst.0;
                    schedule_reg_wb!(
                        now + u64::from(cfg.shared_latency) + u64::from(passes - 1),
                        dst.0
                    );
                }
            },
            Instr::St { space, width, .. } => match space {
                MemSpace::Global => {
                    // Replay never writes data, but page materialization is
                    // a telemetry observable (`gmem_pages`): touch the
                    // store's pages so they materialize on the same cycle
                    // as in direct execution.
                    gmem.touch_store(addrs, exec_mask, width);
                    let lines =
                        coalesce(addrs, exec_mask, width.bytes(), u64::from(cfg.l1.line_bytes));
                    stats.gmem_transactions += lines.len() as u64;
                    for &line in &lines {
                        *next_req += 1;
                        lsq.push_back(Txn {
                            id: ReqId(((*core_id as u64) << 48) | *next_req),
                            line,
                            token: None,
                            is_store: true,
                        });
                    }
                }
                MemSpace::Shared => {
                    let passes = shared_conflict_passes(addrs, exec_mask).max(1);
                    stats.shared_replays += u64::from(passes - 1);
                    *shared_pipe_free = now + u64::from(passes);
                }
            },
        }

        let w = warps[slot].as_mut().expect("warp present");
        w.trace_cursor += 1;
        if w.trace_cursor as usize == trace.steps.len() {
            let cta_slot = w.cta_slot;
            let kernel = w.kernel;
            self.retire_warp(slot, cta_slot, kernel, now)
        } else {
            None
        }
    }

    /// Removes a finished warp; retires its CTA if it was the last one.
    fn retire_warp(
        &mut self,
        slot: usize,
        cta_slot: usize,
        kernel: KernelId,
        _now: Cycle,
    ) -> Option<CoreCtaCompletion> {
        if let Some(cap) = &mut self.capture {
            if let Some(w) = self.warps[slot].as_ref() {
                cap.done.push(CapturedWarp {
                    kernel: w.kernel.0,
                    cta_id: w.cta_id,
                    warp_in_cta: w.warp_in_cta,
                    trace: std::mem::take(&mut cap.bufs[slot]),
                });
            }
        }
        self.warps[slot] = None;
        self.warp_meta[slot] = None;
        self.ready_sets.remove(slot);
        self.finished_warps.push(slot);
        let release_slots = {
            let cta = self.cta_slots[cta_slot].as_mut().expect("cta present");
            cta.live_warps -= 1;
            if cta.live_warps > 0 {
                // A warp exiting can release a barrier the rest wait at.
                if cta.barrier_arrived >= cta.live_warps {
                    cta.barrier_arrived = 0;
                    Some(cta.warp_slots.clone())
                } else {
                    Some(Vec::new())
                }
            } else {
                None
            }
        };
        if let Some(release) = release_slots {
            for ws in release {
                if let Some(w) = self.warps[ws].as_mut() {
                    w.at_barrier = false;
                    self.ready_sets.invalidate(ws);
                }
            }
            return None;
        }
        // CTA complete: snapshot first (including the finished CTA), then
        // free resources.
        let cta = self.cta_slots[cta_slot].take().expect("cta present");
        let mut snapshot = self.cta_slot_snapshot();
        snapshot.push(CtaIssueSample {
            kernel: cta.kernel,
            cta_id: cta.cta_id,
            issued: cta.issued,
            running: false,
        });
        let threads = cta.desc.threads_per_cta();
        self.used_threads -= threads;
        self.used_warps -= cta.desc.warps_per_cta();
        self.used_regs -= cta.desc.regs_per_thread() * threads;
        self.used_smem -= cta.desc.smem_per_cta();
        self.stats.ctas_completed += 1;
        self.completed_per_kernel[kernel.0] += 1;
        Some(CoreCtaCompletion {
            core: self.id,
            kernel,
            cta_id: cta.cta_id,
            completed_on_core: self.completed_per_kernel[kernel.0],
            core_kernel_issued: self.issued_per_kernel[kernel.0],
            slot_snapshot: snapshot,
        })
    }
}

/// Mutable access to another warp slot while `exclude` is conceptually
/// borrowed (used for barrier release; returns `None` for `exclude`).
fn warps_get_mut(warps: &mut [Option<Warp>], idx: usize, exclude: usize) -> Option<&mut Warp> {
    if idx == exclude {
        None
    } else {
        warps[idx].as_mut()
    }
}

/// Evaluates a special register for one lane.
fn special_value(
    sreg: SpecialReg,
    desc: &KernelDescriptor,
    cta_id: u64,
    warp_in_cta: u32,
    lane: usize,
) -> u64 {
    let lin = u64::from(warp_in_cta) * WARP_SIZE as u64 + lane as u64;
    let ntid_x = u64::from(desc.block().x);
    let (cx, cy) = desc.cta_coords(cta_id);
    match sreg {
        SpecialReg::TidX => lin % ntid_x,
        SpecialReg::TidY => lin / ntid_x,
        SpecialReg::NTidX => ntid_x,
        SpecialReg::NTidY => u64::from(desc.block().y),
        SpecialReg::CtaIdX => u64::from(cx),
        SpecialReg::CtaIdY => u64::from(cy),
        SpecialReg::NCtaIdX => u64::from(desc.grid().x),
        SpecialReg::NCtaIdY => u64::from(desc.grid().y),
        SpecialReg::LaneId => lane as u64,
        SpecialReg::CtaLinear => cta_id,
    }
}

/// Instruction-pointer-free helper used by tests and by readiness
/// diagnostics: the name of a [`Pc`]'s instruction in `desc`.
pub fn instr_name(desc: &KernelDescriptor, pc: Pc) -> String {
    let ins: &Instruction = desc.program().fetch(pc);
    format!("{ins}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched_api::WarpSchedulerFactory;
    use gpgpu_isa::{CmpOp, CmpTy, Dim2, KernelBuilder};
    use gpgpu_mem::FabricConfig;

    /// Trivial loose-round-robin scheduler for core unit tests (the real
    /// policies live in `tbs-core`).
    #[derive(Debug)]
    struct TestSched {
        last: usize,
    }

    impl WarpScheduler for TestSched {
        fn name(&self) -> &str {
            "test-rr"
        }
        fn pick(&mut self, _view: &IssueView<'_>, candidates: &[usize]) -> Option<usize> {
            let next = candidates
                .iter()
                .copied()
                .find(|&c| c > self.last)
                .or_else(|| candidates.first().copied());
            if let Some(n) = next {
                self.last = n;
            }
            next
        }
    }

    #[derive(Debug)]
    struct TestFactory;

    impl WarpSchedulerFactory for TestFactory {
        fn name(&self) -> &str {
            "test-rr"
        }
        fn create(&self, _core: usize, _slot: usize) -> Box<dyn WarpScheduler> {
            Box::new(TestSched { last: usize::MAX })
        }
    }

    fn small_cfg() -> Arc<GpuConfig> {
        let mut c = GpuConfig::fermi();
        c.num_cores = 1;
        c.fabric = FabricConfig::fermi_like(1);
        c.fabric.partitions = 2;
        c.validate();
        Arc::new(c)
    }

    fn run_core_to_completion(
        core: &mut Core,
        fabric: &mut MemFabric,
        gmem: &mut GlobalMem,
        max_cycles: u64,
    ) -> (u64, Vec<CoreCtaCompletion>) {
        let mut completions = Vec::new();
        for now in 0..max_cycles {
            core.cycle(now, fabric, gmem, &mut completions);
            fabric.tick(now);
            if core.is_idle() && fabric.quiesced() {
                return (now, completions);
            }
        }
        panic!("core did not finish within {max_cycles} cycles");
    }

    /// c[i] = a[i] + b[i]
    fn vecadd_desc(n: u32, a: u64, b: u64, c: u64) -> Arc<KernelDescriptor> {
        let mut k = KernelBuilder::new("vecadd", Dim2::x(64));
        let pa = k.param(0);
        let pb = k.param(1);
        let pc = k.param(2);
        let pn = k.param(3);
        let gid = k.global_tid_x();
        let in_range = k.setp(CmpOp::Lt, CmpTy::U64, gid, pn);
        k.if_then(in_range, |k| {
            let off = k.shl(gid, 2u64);
            let ea = k.iadd(pa, off);
            let eb = k.iadd(pb, off);
            let ec = k.iadd(pc, off);
            let va = k.ld_global_u32(ea, 0);
            let vb = k.ld_global_u32(eb, 0);
            let vc = k.iadd(va, vb);
            k.st_global_u32(vc, ec, 0);
        });
        let prog = Arc::new(k.build().unwrap());
        Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(n.div_ceil(64)), Dim2::x(64))
                .params([a, b, c, u64::from(n)])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn vecadd_single_cta_functional_and_retires() {
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let a = gmem.alloc(64 * 4);
        let b = gmem.alloc(64 * 4);
        let c = gmem.alloc(64 * 4);
        let av: Vec<u32> = (0..64).collect();
        let bv: Vec<u32> = (0..64).map(|i| 100 + i).collect();
        gmem.write_u32_slice(a, &av);
        gmem.write_u32_slice(b, &bv);

        let desc = vecadd_desc(64, a, b, c);
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &desc, &mut age);
        assert_eq!(core.active_cta_count(), 1);

        let (cycles, completions) =
            run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].cta_id, 0);
        assert_eq!(core.active_cta_count(), 0);
        assert!(cycles > 50, "must take real time (memory latency)");
        let out = gmem.read_u32_vec(c, 64);
        let expect: Vec<u32> = (0..64).map(|i| i + 100 + i).collect();
        assert_eq!(out, expect);
        assert!(core.stats().issued > 0);
        assert_eq!(core.stats().ctas_completed, 1);
    }

    #[test]
    fn capacity_respects_all_resources() {
        let cfg = small_cfg();
        let core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        // 256 threads/CTA, 20 regs/thread, 0 smem: thread-limited to 6.
        let mut k = KernelBuilder::new("t", Dim2::x(256));
        k.movi(0u64);
        let prog = Arc::new(k.build().unwrap());
        let d = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(100), Dim2::x(256))
                .regs_per_thread(20)
                .build()
                .unwrap(),
        );
        assert_eq!(core.capacity_for(&d), 6); // 1536 / 256
        assert_eq!(Core::hw_max_ctas(&cfg, &d), 6);
        // Shared-memory-limited: 20 KiB per CTA -> 2 CTAs.
        let mut k = KernelBuilder::new("t2", Dim2::x(64));
        k.movi(0u64);
        let prog = Arc::new(k.build().unwrap());
        let d = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(100), Dim2::x(64))
                .smem_per_cta(20 * 1024)
                .build()
                .unwrap(),
        );
        assert_eq!(Core::hw_max_ctas(&cfg, &d), 2);
        // Register-limited: 64 regs * 256 threads = 16384 -> 2 CTAs.
        let mut k = KernelBuilder::new("t3", Dim2::x(256));
        k.movi(0u64);
        let prog = Arc::new(k.build().unwrap());
        let d = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(100), Dim2::x(256))
                .regs_per_thread(64)
                .build()
                .unwrap(),
        );
        assert_eq!(Core::hw_max_ctas(&cfg, &d), 2);
    }

    #[test]
    fn barrier_synchronizes_warps() {
        // Each warp stores its warp id to shared memory, barriers, then
        // reads its neighbour's value: only correct if the barrier works.
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(128 * 4);

        let mut k = KernelBuilder::new("barrier", Dim2::x(128)); // 4 warps
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        // shared[tid] = tid
        let saddr = k.shl(tid, 2u64);
        k.st_shared_u32(tid, saddr, 0);
        k.bar();
        // v = shared[(tid + 32) % 128]
        let other = k.iadd(tid, 32u64);
        let wrapped = k.and(other, 127u64);
        let oaddr = k.shl(wrapped, 2u64);
        let v = k.ld_shared_u32(oaddr, 0);
        // out[tid] = v
        let goff = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, goff);
        k.st_global_u32(v, gaddr, 0);
        let prog = Arc::new(k.build().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(128))
                .smem_per_cta(128 * 4)
                .params([out])
                .build()
                .unwrap(),
        );

        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &desc, &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 128);
        let expect: Vec<u32> = (0..128).map(|t| (t + 32) % 128).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn divergent_branch_computes_both_sides() {
        // out[i] = if i % 2 == 0 { 10 } else { 20 }
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);

        let mut k = KernelBuilder::new("div", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let bit = k.and(tid, 1u64);
        let is_even = k.setp(CmpOp::Eq, CmpTy::U64, bit, 0u64);
        let v = k.reg();
        k.if_then_else(is_even, |k| k.mov_to(v, 10u64), |k| k.mov_to(v, 20u64));
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.st_global_u32(v, gaddr, 0);
        let prog = Arc::new(k.build().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &desc, &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 32);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, if i % 2 == 0 { 10 } else { 20 }, "lane {i}");
        }
    }

    #[test]
    fn loop_accumulates() {
        // out[tid] = sum(0..tid)
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);

        let mut k = KernelBuilder::new("loop", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let acc = k.movi(0u64);
        k.for_range(0u64, tid, 1u64, |k, i| {
            k.alu_to(gpgpu_isa::AluOp::IAdd, acc, acc, i);
        });
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.st_global_u32(acc, gaddr, 0);
        let prog = Arc::new(k.build().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &desc, &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 200_000);
        let got = gmem.read_u32_vec(out, 32);
        for (t, v) in got.iter().enumerate() {
            let expect: u32 = (0..t as u32).sum();
            assert_eq!(*v, expect, "tid {t}");
        }
    }

    #[test]
    fn multiple_ctas_track_issue_counts() {
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let a = gmem.alloc(256 * 4);
        let b = gmem.alloc(256 * 4);
        let c = gmem.alloc(256 * 4);
        gmem.write_u32_slice(a, &vec![1; 256]);
        gmem.write_u32_slice(b, &vec![2; 256]);
        let desc = vecadd_desc(256, a, b, c);
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        for cta in 0..4 {
            core.dispatch_cta(KernelId(0), cta, &desc, &mut age);
        }
        assert_eq!(core.active_cta_count(), 4);
        let snap = core.cta_slot_snapshot();
        assert_eq!(snap.len(), 4);
        let (_, completions) = run_core_to_completion(&mut core, &mut fabric, &mut gmem, 200_000);
        assert_eq!(completions.len(), 4);
        // Snapshot attached to the first completion includes issue counts.
        assert!(completions[0]
            .slot_snapshot
            .iter()
            .any(|s| !s.running && s.issued > 0));
        assert_eq!(core.completed_of(KernelId(0)), 4);
        assert_eq!(gmem.read_u32_vec(c, 256), vec![3u32; 256]);
    }

    #[test]
    fn guarded_store_skips_lanes() {
        let cfg = small_cfg();
        let mut fabric = MemFabric::new(cfg.fabric.clone());
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        gmem.write_u32_slice(out, &vec![7u32; 32]);

        let mut k = KernelBuilder::new("guard", Dim2::x(32));
        let pout = k.param(0);
        let tid = k.special(SpecialReg::TidX);
        let low = k.setp(CmpOp::Lt, CmpTy::U64, tid, 16u64);
        let off = k.shl(tid, 2u64);
        let gaddr = k.iadd(pout, off);
        k.with_guard(low, true, |k| {
            k.st_global_u32(99u64, gaddr, 0);
        });
        let prog = Arc::new(k.build().unwrap());
        let desc = Arc::new(
            KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                .params([out])
                .build()
                .unwrap(),
        );
        let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
        let mut age = 0;
        core.dispatch_cta(KernelId(0), 0, &desc, &mut age);
        run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
        let got = gmem.read_u32_vec(out, 32);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, if i < 16 { 99 } else { 7 }, "lane {i}");
        }
    }

    #[test]
    fn coalesced_load_uses_fewer_transactions_than_strided() {
        let cfg = small_cfg();
        let build = |stride: u64| {
            let mut k = KernelBuilder::new("access", Dim2::x(32));
            let pin = k.param(0);
            let tid = k.special(SpecialReg::TidX);
            let off = k.imul(tid, stride);
            let gaddr = k.iadd(pin, off);
            let v = k.ld_global_u32(gaddr, 0);
            let o = k.iadd(v, 0u64);
            let _ = o;
            let prog = Arc::new(k.build().unwrap());
            Arc::new(
                KernelDescriptor::builder(prog, Dim2::x(1), Dim2::x(32))
                    .params([0x10000])
                    .build()
                    .unwrap(),
            )
        };
        let run = |desc: Arc<KernelDescriptor>| {
            let mut fabric = MemFabric::new(cfg.fabric.clone());
            let mut gmem = GlobalMem::new();
            let mut core = Core::new(0, Arc::clone(&cfg), &TestFactory);
            let mut age = 0;
            core.dispatch_cta(KernelId(0), 0, &desc, &mut age);
            run_core_to_completion(&mut core, &mut fabric, &mut gmem, 100_000);
            core.stats().gmem_transactions
        };
        let coalesced = run(build(4));
        let strided = run(build(512));
        assert_eq!(coalesced, 1);
        assert_eq!(strided, 32);
    }

    #[test]
    fn special_values() {
        let mut k = KernelBuilder::new("s", Dim2::new(16, 2));
        k.movi(0u64);
        let prog = Arc::new(k.build().unwrap());
        let d = KernelDescriptor::builder(prog, Dim2::new(3, 2), Dim2::new(16, 2))
            .build()
            .unwrap();
        // CTA 4 => coords (1, 1) in a 3x2 grid.
        assert_eq!(special_value(SpecialReg::CtaIdX, &d, 4, 0, 0), 1);
        assert_eq!(special_value(SpecialReg::CtaIdY, &d, 4, 0, 0), 1);
        // Lane 17 of warp 0: linear tid 17 => (1, 1) in a 16x2 block.
        assert_eq!(special_value(SpecialReg::TidX, &d, 0, 0, 17), 1);
        assert_eq!(special_value(SpecialReg::TidY, &d, 0, 0, 17), 1);
        assert_eq!(special_value(SpecialReg::NTidX, &d, 0, 0, 0), 16);
        assert_eq!(special_value(SpecialReg::LaneId, &d, 0, 0, 9), 9);
        assert_eq!(special_value(SpecialReg::CtaLinear, &d, 4, 0, 0), 4);
    }
}
