//! `mem-small` and `compute-small`: suite kernels and seeded generated
//! kernels called directly and serially through `GpuDevice`, each under
//! the round-robin baseline, LCS and BCS, plus a mixed-CKE kernel pair.

use crate::metrics::{geomean, lcs_avg_limit, model_layers, Digest};
use crate::spans::Tracer;
use crate::{reference, Pass, Sim};
use gpgpu_bench::{Harness, ResultStore, RunEngine, RunResult, RunSpec};
use gpgpu_sim::{GpuConfig, GpuDevice, KernelId, SimStats};
use gpgpu_workloads::{by_name, Scale, SplitMix64, Workload};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tbs_core::{CtaPolicy, Lcs, WarpPolicy};

/// The three CTA policies every kernel runs under (GTO warp scheduling).
const POLICIES: [CtaPolicy; 3] = [
    CtaPolicy::Baseline(None),
    CtaPolicy::Lcs(0.7),
    CtaPolicy::Bcs(2),
];

/// `mem-small` kernels. The streaming kernels run at Small scale, where
/// their working sets exceed the modelled L2 and DRAM bounds them. The
/// irregular ones run at Tiny scale: at Small a single `spmv-ell` or
/// `gather` run takes 3-7 s of host time, more than a whole pass can
/// spend; at Tiny they stay MemPending-dominated against an L2-resident
/// working set.
const MEM_KERNELS: [(&str, Scale); 4] = [
    ("vecadd", Scale::Small),
    ("stridedcopy", Scale::Small),
    ("gather", Scale::Tiny),
    ("spmv-ell", Scale::Tiny),
];

/// `compute-small` kernels, all at Small scale.
const COMPUTE_KERNELS: [(&str, Scale); 5] = [
    ("fmaheavy", Scale::Small),
    ("kmeansdist", Scale::Small),
    ("matmul-tiled", Scale::Small),
    ("stencil2d", Scale::Small),
    ("hotspot", Scale::Small),
];

/// Kernel pairs run concurrently under mixed CKE (`cke_speedup`).
const MEM_PAIRS: [(&str, &str, Scale); 1] = [("vecadd", "stridedcopy", Scale::Small)];
const COMPUTE_PAIRS: [(&str, &str, Scale); 1] = [("kmeansdist", "hotspot", Scale::Small)];

/// Warm re-serves from the store per pass (each takes a few milliseconds).
const WARM_REPS: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mem,
    Compute,
}

/// One simulation of the workload: a kernel under a policy, or a pair.
struct RunDef {
    names: Vec<String>,
    cta: CtaPolicy,
    spec: RunSpec,
}

/// A run with its device built, inputs written and kernels launched.
struct Prepared {
    gpu: GpuDevice,
    workloads: Vec<Box<dyn Workload>>,
    kernels: Vec<KernelId>,
}

struct Done {
    stats: SimStats,
    kernels: Vec<KernelId>,
    lcs_limits: Option<Vec<u32>>,
    run_nanos: u64,
    digest: Digest,
}

pub struct Direct {
    runs: Vec<RunDef>,
    max_cycles: u64,
    dir: PathBuf,
    /// Each run's host time in the pass that last ran it: whether it
    /// still fits before a pass's deadline.
    last_unit_s: Vec<Cell<f64>>,
}

/// The seeded generated members: `gen:stream` knobs for `mem-small`, two
/// `gen:rand` kernels for `compute-small`. The suite kernels keep their
/// own fixed input generators.
fn seeded_members(kind: Kind, seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    match kind {
        // Odd strides of at least 33 words: every lane of a warp touches
        // its own line, so each seed stays memory-bound.
        Kind::Mem => vec![format!(
            "gen:stream/stride={},ffma={}",
            33 + 2 * (rng.next_u64() % 8),
            rng.next_u64() % 8
        )],
        Kind::Compute => (0..2)
            .map(|_| format!("gen:rand/seed={}", rng.next_u64() % 1_000_000))
            .collect(),
    }
}

impl Direct {
    pub fn new(
        kind: Kind,
        seed: u64,
        reduced: bool,
        max_cycles: Option<u64>,
        dir: PathBuf,
    ) -> Self {
        let (kernels, pairs) = match kind {
            Kind::Mem => (&MEM_KERNELS[..], &MEM_PAIRS[..]),
            Kind::Compute => (&COMPUTE_KERNELS[..], &COMPUTE_PAIRS[..]),
        };
        let mut h = Harness::default();
        if let Some(c) = max_cycles {
            h.max_cycles = c;
        }
        let at = |scale: Scale| Harness {
            scale: if reduced { Scale::Tiny } else { scale },
            ..h.clone()
        };
        let mut names: Vec<(String, Scale)> =
            kernels.iter().map(|(n, s)| (n.to_string(), *s)).collect();
        names.extend(
            seeded_members(kind, seed)
                .into_iter()
                .map(|n| (n, Scale::Tiny)),
        );
        let mut runs = Vec::new();
        for (name, scale) in &names {
            for cta in POLICIES {
                runs.push(RunDef {
                    names: vec![name.clone()],
                    cta,
                    spec: RunSpec::single(&at(*scale), name, WarpPolicy::Gto, cta),
                });
            }
        }
        for (a, b, scale) in pairs {
            let cta = CtaPolicy::MixedCke(0.7);
            runs.push(RunDef {
                names: vec![a.to_string(), b.to_string()],
                cta,
                spec: RunSpec::pair(&at(*scale), a, b, WarpPolicy::Gto, cta, false),
            });
        }
        Direct {
            last_unit_s: runs.iter().map(|_| Cell::new(0.0)).collect(),
            runs,
            max_cycles: h.max_cycles,
            dir,
        }
    }

    /// Builds the device, writes inputs and launches for run `i`.
    fn prepare(&self, i: usize, t: &Tracer) -> Option<Prepared> {
        let def = &self.runs[i];
        let run = i as u64 + 1;
        catch_unwind(AssertUnwindSafe(|| {
            let mut workloads = Vec::new();
            for name in &def.names {
                workloads.push(t.span("workloads.build", run, || by_name(name, def.spec.scale))?);
            }
            let mut gpu = t.span("device.new", run, || {
                GpuDevice::new(
                    GpuConfig::fermi(),
                    WarpPolicy::Gto.factory().as_ref(),
                    def.cta.scheduler(),
                )
            });
            let mut kernels = Vec::new();
            for w in workloads.iter_mut() {
                let desc = t.span("workloads.prepare", run, || w.prepare(gpu.mem()));
                kernels.push(t.span("device.launch", run, || gpu.launch(desc)));
            }
            Some(Prepared {
                gpu,
                workloads,
                kernels,
            })
        }))
        .ok()
        .flatten()
    }

    /// Simulates a prepared run, verifies its outputs and reads its stats.
    fn simulate(&self, i: usize, p: Prepared, t: &Tracer) -> Option<Done> {
        let run = i as u64 + 1;
        let Prepared {
            mut gpu,
            workloads,
            kernels,
        } = p;
        catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let result = t.span("device.run", run, || gpu.run(self.max_cycles));
            let run_nanos = t0.elapsed().as_nanos() as u64;
            if let Err(e) = result {
                eprintln!("run {} failed: {e}", self.runs[i].spec.key().as_str());
                return None;
            }
            for w in &workloads {
                if let Err(e) = t.span("workloads.verify", run, || w.verify(gpu.mem_ref())) {
                    eprintln!("run {} failed: {e}", self.runs[i].spec.key().as_str());
                    return None;
                }
            }
            let stats = t.span("device.stats", run, || gpu.stats());
            let lcs_limits = t.span("policy.decisions", run, || {
                gpu.cta_scheduler()
                    .as_any()
                    .and_then(|a| a.downcast_ref::<Lcs>())
                    .map(|lcs| {
                        let mut v: Vec<u32> = lcs.decisions().map(|(_, limit)| *limit).collect();
                        v.sort_unstable();
                        v
                    })
            });
            let violations = gpgpu_sim::conservation_violations(&stats);
            if !violations.is_empty() {
                eprintln!(
                    "run {} breaks conservation: {violations:?}",
                    self.runs[i].spec.key().as_str()
                );
                return None;
            }
            let mut digest = Digest::default();
            let mem_hash = gpu.mem_ref().content_hash();
            digest.add_run(self.runs[i].spec.key().as_str(), &stats, Some(mem_hash));
            Some(Done {
                stats,
                kernels: kernels.clone(),
                lcs_limits,
                run_nanos,
                digest,
            })
        }))
        .ok()
        .flatten()
    }

    /// One pass over the workload's runs. Each run is a timed unit: its
    /// set-up, simulation, verify and statistics. With a deadline, a run
    /// that would not finish before it (judged by its last time) is
    /// skipped, so the pass is partial; `None` when no run fits.
    pub fn pass(&self, t: &Tracer, deadline: Option<Instant>) -> Option<Pass> {
        let fits = |i: usize| {
            deadline.is_none_or(|d| {
                Instant::now() + Duration::from_secs_f64(self.last_unit_s[i].get()) <= d
            })
        };
        if !(0..self.runs.len()).any(fits) {
            return None;
        }
        let mut out = Pass::default();
        let untraced = Tracer::new(false);
        let first_span = t.mark();
        let mut done: Vec<Option<Done>> = Vec::new();
        for i in 0..self.runs.len() {
            if !fits(i) {
                done.push(None);
                continue;
            }
            // Before each unit: the reference job, and set-up (every run's
            // device, inputs and launches, untraced and dropped), so that
            // both sample the whole pass.
            out.ref_s.push(reference::time_job());
            let s0 = Instant::now();
            for j in 0..self.runs.len() {
                drop(self.prepare(j, &untraced));
            }
            out.setup_s.push(s0.elapsed().as_secs_f64());
            let u0 = Instant::now();
            let d = self.prepare(i, t).and_then(|p| self.simulate(i, p, t));
            let unit_s = u0.elapsed().as_secs_f64();
            self.last_unit_s[i].set(unit_s);
            let key = self.runs[i].spec.key().as_str().to_string();
            out.attempted += 1;
            match &d {
                Some(d) => {
                    out.runs.insert(key.clone(), d.digest);
                }
                None => out.failed += 1,
            }
            out.units.insert(key, unit_s);
            done.push(d);
        }
        out.complete = out.attempted == self.runs.len();
        out.spans = t.totals(first_span, t.mark());

        let ok: Vec<&Done> = done.iter().flatten().collect();
        for (def, d) in self.runs.iter().zip(&done) {
            if let Some(d) = d {
                let sim = Sim {
                    host_s: d.run_nanos as f64 / 1e9,
                    cycles: d.stats.cycles,
                    instructions: d.stats.instructions,
                };
                out.sims.insert(def.spec.key().as_str().to_string(), sim);
            }
        }
        out.sim_host_s = out.sims.values().map(|s| s.host_s).sum();
        let all: Vec<&SimStats> = ok.iter().map(|d| &d.stats).collect();
        out.sim_cycles = all.iter().map(|s| s.cycles).sum();

        let cycles = |name: &str, cta: CtaPolicy| -> Option<f64> {
            let i = self
                .runs
                .iter()
                .position(|r| r.names == [name] && r.cta == cta)?;
            done[i].as_ref().map(|d| d.stats.cycles as f64)
        };
        // Over the suite kernels only: the seeded members would make the
        // policy speedups differ from seed to seed.
        let speedup = |policy: CtaPolicy| {
            let ratios: Vec<f64> = self
                .runs
                .iter()
                .filter(|r| r.cta == policy && !r.names[0].starts_with("gen:"))
                .filter_map(|r| {
                    Some(
                        cycles(&r.names[0], CtaPolicy::Baseline(None))?
                            / cycles(&r.names[0], policy)?,
                    )
                })
                .collect();
            geomean(&ratios)
        };
        out.lcs_speedup = speedup(CtaPolicy::Lcs(0.7));
        out.bcs_speedup = speedup(CtaPolicy::Bcs(2));
        // Serial reference: the two kernels' baseline runs back to back.
        let cke: Vec<f64> = self
            .runs
            .iter()
            .zip(&done)
            .filter(|(r, _)| r.names.len() == 2)
            .filter_map(|(r, d)| {
                let serial = cycles(&r.names[0], CtaPolicy::Baseline(None))?
                    + cycles(&r.names[1], CtaPolicy::Baseline(None))?;
                Some(serial / d.as_ref()?.stats.cycles as f64)
            })
            .collect();
        out.cke_speedup = geomean(&cke);

        self.warm(&done, t, &mut out);

        let m = &mut out.layers;
        m.put("device.runs", ok.len() as f64, "count");
        m.put("device.run_s", out.sim_host_s, "s");
        m.put(
            "policy.lcs_avg_limit",
            lcs_avg_limit(ok.iter().filter_map(|d| d.lcs_limits.as_ref())),
            "ctas",
        );
        model_layers(&all, m);
        Some(out)
    }

    /// Saves every finished run to a fresh result store, then re-serves
    /// the whole workload from it through fresh engines: `warm_s`.
    fn warm(&self, done: &[Option<Done>], t: &Tracer, out: &mut Pass) {
        let store_dir = self.dir.join("store");
        let _ = std::fs::remove_dir_all(&store_dir);
        let Ok(store) = ResultStore::open(&store_dir) else {
            out.incorrect = true;
            return;
        };
        let mut specs = Vec::new();
        for (def, d) in self.runs.iter().zip(done) {
            let Some(d) = d else { continue };
            let result = RunResult {
                stats: d.stats.clone(),
                kernels: d.kernels.clone(),
                lcs_limits: d.lcs_limits.clone(),
                telemetry: None,
                via_replay: false,
            };
            out.incorrect |= store.save(&def.spec, &result, d.run_nanos).is_err();
            specs.push((def.spec.clone(), d));
        }
        let plan: Vec<RunSpec> = specs.iter().map(|(s, _)| s.clone()).collect();
        // One reader handle: opening a store probes the file system, which
        // would swamp the few milliseconds a re-serve takes.
        let Ok(reader) = ResultStore::open(&store_dir).map(Arc::new) else {
            out.incorrect = true;
            return;
        };
        let mut warm_s = Vec::new();
        let first_span = t.mark();
        for _ in 0..WARM_REPS {
            let w0 = Instant::now();
            let mut engine = RunEngine::new(1);
            engine.attach_store(Arc::clone(&reader));
            t.span("store.warm_execute", 0, || engine.execute_batch(&plan));
            warm_s.push(w0.elapsed().as_secs_f64());
            out.incorrect |= engine.runs_executed() != 0
                || specs
                    .iter()
                    .any(|(s, d)| engine.lookup(s).is_none_or(|r| r.stats != d.stats));
        }
        let st = reader.stats();
        let (hits, misses) = (st.hits, st.misses);
        out.warm_s = warm_s;
        let spans = t.totals(first_span, t.mark());
        let m = &mut out.layers;
        m.put("store.stored", store.stats().stored as f64, "count");
        m.put("store.bytes", crate::dir_bytes(&store_dir) as f64, "bytes");
        m.put("store.hits", hits as f64, "count");
        m.put("store.misses", misses as f64, "count");
        m.put(
            "store.warm_execute_s",
            spans.get("store.warm_execute_s").copied().unwrap_or(0.0) / WARM_REPS as f64,
            "s",
        );
    }
}
