//! `batch-tiny`: a cold batch of experiments at Tiny scale, driven the way
//! `exp --quick --store S --trace-dir T` drives them, followed by a warm
//! pass that rebuilds every table from the store the cold pass wrote.

use crate::metrics::{geomean, lcs_avg_limit, model_layers, ratio, Digest};
use crate::spans::Tracer;
use crate::{reference, Pass, Sim};
use gpgpu_bench::experiments::{collect_experiment, e08_cke, plan_experiment, trace_points};
use gpgpu_bench::{Harness, ResultStore, RunEngine, RunSpec, Table};
use gpgpu_sim::TelemetryConfig;
use gpgpu_workloads::Scale;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tbs_core::{CtaPolicy, WarpPolicy};

/// Specs per `execute_batch` call of the cold pass.
const CHUNK: usize = 6;

/// Warm passes per cold pass (a warm pass takes well under a second).
const WARM_REPS: usize = 1;

/// Set-up repetitions per pass: set-up takes well under a millisecond, so
/// `setup_s` is the median of many. The first `SETUP_WARMUP` only warm
/// the caches and are not timed.
const SETUP_REPS: usize = 51;
const SETUP_WARMUP: usize = 2;

/// What set-up hands to the cold pass: the store, the engine, each
/// experiment's planned specs and the trace points among them.
type SetUp = (
    Arc<ResultStore>,
    RunEngine,
    Vec<Vec<RunSpec>>,
    Vec<(String, RunSpec)>,
);

/// Experiments of the batch. E3-E5, E9 and E10 are left out so that a
/// run repeats a pass at least twice. The rest keep every kind of work:
/// the characterization baselines shared with E6 and E7 (deduplicated),
/// LCS and BCS runs of every suite kernel, E8's CKE pairs, E11's
/// generated kernels, and the E2 and E8 telemetry trace points.
const BATCH_IDS: [&str; 6] = ["e1", "e2", "e6", "e7", "e8", "e11"];

/// Experiments of the reduced self-test batch.
const REDUCED_IDS: [&str; 3] = ["e2", "e7", "e8"];

pub struct Batch {
    h: Harness,
    ids: Vec<String>,
    dir: PathBuf,
    /// Host time of the last pass: whether another fits before a deadline.
    last_pass_s: Cell<f64>,
}

impl Batch {
    pub fn new(reduced: bool, max_cycles: Option<u64>, dir: PathBuf) -> Self {
        let mut h = Harness::quick();
        // One worker. The benchmark runs on one CPU (see `pin_to_one_cpu`),
        // where a second worker would only take turns with the first; and
        // with two CPUs busy the batch's time also follows how contention
        // and the load balance fall across them, which the reference job,
        // timed on one thread, does not see.
        h.jobs = 1;
        if let Some(c) = max_cycles {
            h.max_cycles = c;
        }
        let ids = if reduced {
            &REDUCED_IDS[..]
        } else {
            &BATCH_IDS[..]
        };
        let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
        Batch {
            h,
            ids,
            dir,
            last_pass_s: Cell::new(0.0),
        }
    }

    /// Each experiment's specs, with its trace points when `traced`, and
    /// the trace points of all of them. An experiment's trace points are
    /// runs it plans itself, so they upgrade those runs with telemetry
    /// instead of adding simulations.
    fn plan(&self, traced: bool) -> (Vec<Vec<RunSpec>>, Vec<(String, RunSpec)>) {
        let cfg = TelemetryConfig::new(1000);
        let mut groups = Vec::new();
        let mut traces = Vec::new();
        for id in &self.ids {
            let mut specs = Vec::new();
            if traced {
                // First, so that they simulate with telemetry even when the
                // experiment's plain specs of the same runs land in an
                // earlier chunk of the execute phase.
                let points = trace_points(id, &self.h, cfg);
                specs.extend(points.iter().map(|(_, s)| s.clone()));
                traces.extend(points);
            }
            specs.extend(plan_experiment(id, &self.h));
            groups.push(specs);
        }
        (groups, traces)
    }

    /// Opens the store, builds the engine and plans the batch: everything
    /// before the first simulation call.
    fn set_up(&self, store_dir: &Path, t: &Tracer) -> Option<SetUp> {
        let store = t
            .span("store.open", 0, || {
                ResultStore::open(store_dir).map(Arc::new)
            })
            .ok()?;
        let (engine, specs, traces) = t.span("engine.plan", 0, || {
            let mut engine = RunEngine::new(self.h.jobs);
            engine.attach_store(Arc::clone(&store));
            let (specs, traces) = self.plan(true);
            (engine, specs, traces)
        });
        Some((store, engine, specs, traces))
    }

    /// One cold pass into a fresh store, then `WARM_REPS` warm passes;
    /// `None` when the pass would not finish before `deadline`.
    pub fn pass(&self, t: &Tracer, deadline: Option<Instant>) -> Option<Pass> {
        let pass0 = Instant::now();
        if deadline.is_some_and(|d| pass0 + Duration::from_secs_f64(self.last_pass_s.get()) > d) {
            return None;
        }
        let store_dir = self.dir.join("store");
        let out_dir = self.dir.join("csv");
        let trace_dir = self.dir.join("trace");
        for d in [&store_dir, &out_dir, &trace_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        let mut out = Pass::default();
        let mut io_ok = std::fs::create_dir_all(&out_dir).is_ok()
            && std::fs::create_dir_all(&trace_dir).is_ok();

        // Set-up repetitions, untraced, while the file system is as the
        // cold pass finds it: the last pass's files just removed. (Opening
        // a store probes the file system with a write, which slows as a
        // pass writes its files.)
        let untraced = Tracer::new(false);
        for rep in 0..SETUP_WARMUP + SETUP_REPS {
            let t0 = Instant::now();
            drop(self.set_up(&store_dir, &untraced));
            if rep >= SETUP_WARMUP {
                out.setup_s.push(t0.elapsed().as_secs_f64());
            }
        }
        // Before each phase: the reference job, so that it samples the
        // whole pass.
        let probe = |out: &mut Pass| out.ref_s.push(reference::time_job());
        probe(&mut out);
        let first_span = t.mark();
        let wall0 = Instant::now();
        let Some((store, engine, specs, traces)) = self.set_up(&store_dir, t) else {
            out.incorrect = true;
            return Some(out);
        };
        out.units
            .insert("set-up".into(), wall0.elapsed().as_secs_f64());
        // A chunk of one experiment's specs at a time on the shared
        // engine, which reuses the runs earlier chunks simulated: the
        // reference job between chunks samples the execute phase too.
        let mut execute_s = 0.0;
        let mut batch_ok = true;
        for (id, specs) in self.ids.iter().zip(&specs) {
            for (k, chunk) in specs.chunks(CHUNK).enumerate() {
                let t0 = Instant::now();
                batch_ok &= t.span("engine.execute", 0, || {
                    catch_unwind(AssertUnwindSafe(|| engine.execute_batch(chunk))).is_ok()
                });
                let took = t0.elapsed().as_secs_f64();
                execute_s += took;
                out.units.insert(format!("execute {id}/{k}"), took);
                probe(&mut out);
            }
        }
        let unique = unique_specs(&specs.concat());
        if !batch_ok {
            // Find exactly which runs fail: the rest still simulate.
            t.span("engine.execute", 0, || {
                for spec in unique.values() {
                    if engine.lookup(spec).is_none() {
                        let _ = catch_unwind(AssertUnwindSafe(|| engine.get(spec)));
                    }
                }
            });
        }
        let tables_t0 = Instant::now();
        let (tables, lost) = self.collect_and_write(&engine, &out_dir, t, &mut io_ok);
        out.units
            .insert("tables".into(), tables_t0.elapsed().as_secs_f64());
        probe(&mut out);
        let traces_t0 = Instant::now();
        let (events, samples) = t
            .span("telemetry.write", 0, || {
                write_traces(&trace_dir, &traces, &engine)
            })
            .unwrap_or_else(|_| {
                io_ok = false;
                (0, 0)
            });
        out.units
            .insert("traces".into(), traces_t0.elapsed().as_secs_f64());
        let cold_spans = (first_span, t.mark());

        let profiles = engine.profiles();
        for p in &profiles {
            let sim = Sim {
                host_s: p.wall_nanos as f64 / 1e9,
                cycles: p.cycles,
                instructions: p.instructions,
            };
            out.sims.insert(p.key.as_str().to_string(), sim);
        }
        let busy_s: f64 = out.sims.values().map(|s| s.host_s).sum();
        out.sim_host_s = busy_s;
        let mut stats = Vec::new();
        for (key, spec) in &unique {
            match engine.lookup(spec) {
                Some(r) => {
                    let mut digest = Digest::default();
                    digest.add_run(key, &r.stats, None);
                    out.runs.insert(key.clone(), digest);
                    stats.push(r);
                }
                None => out.failed += 1,
            }
        }
        out.attempted = unique.len();
        out.complete = true;
        let all: Vec<&gpgpu_sim::SimStats> = stats.iter().map(|r| &r.stats).collect();
        out.sim_cycles = all.iter().map(|s| s.cycles).sum();
        out.lcs_speedup = self.policy_speedup(&engine, CtaPolicy::Lcs(0.7));
        out.bcs_speedup = self.policy_speedup(&engine, CtaPolicy::Bcs(2));
        out.cke_speedup = self.cke_speedup(&engine);

        // Warm passes: a fresh engine on the same store, 0 simulations,
        // tables identical to the cold pass.
        let warm_dir = self.dir.join("csv-warm");
        let mut warm_store = Vec::new();
        let warm_reps = if out.failed == 0 { WARM_REPS } else { 0 };
        for _ in 0..warm_reps {
            let _ = std::fs::remove_dir_all(&warm_dir);
            io_ok &= std::fs::create_dir_all(&warm_dir).is_ok();
            let w0 = Instant::now();
            let Ok(ws) = t.span("store.open", 0, || {
                ResultStore::open(&store_dir).map(Arc::new)
            }) else {
                out.incorrect = true;
                return Some(out);
            };
            let mut warm = RunEngine::new(self.h.jobs);
            warm.attach_store(Arc::clone(&ws));
            let (specs, _) = t.span("engine.plan", 0, || self.plan(false));
            let ok = t.span("store.warm_execute", 0, || {
                catch_unwind(AssertUnwindSafe(|| warm.execute_batch(&specs.concat()))).is_ok()
            });
            let (warm_tables, _) = self.collect_and_write(&warm, &warm_dir, t, &mut io_ok);
            out.warm_s.push(w0.elapsed().as_secs_f64());
            out.incorrect |= !ok || warm.runs_executed() != 0 || warm_tables != tables;
            warm_store.push(ws.stats());
        }
        // An experiment whose tables could not be built must be explained
        // by a failed simulation.
        out.incorrect |= !io_ok || (lost > 0 && out.failed == 0);
        out.spans = t.totals(cold_spans.0, cold_spans.1);
        let warm_spans = t.totals(cold_spans.1, t.mark());
        out.layers.put(
            "store.warm_execute_s",
            warm_spans
                .get("store.warm_execute_s")
                .copied()
                .unwrap_or(0.0)
                / WARM_REPS as f64,
            "s",
        );

        let summary = engine.summary();
        let cold = store.stats();
        let m = &mut out.layers;
        m.put("engine.execute_s", execute_s, "s");
        m.put("engine.requested", summary.requested() as f64, "count");
        m.put("engine.executed", summary.executed as f64, "count");
        m.put(
            "engine.dedup_frac",
            ratio(summary.deduped as f64, summary.requested() as f64),
            "ratio",
        );
        m.put("engine.worker_busy_s", busy_s, "s");
        m.put(
            "engine.idle_frac",
            1.0 - ratio(busy_s, self.h.jobs as f64 * execute_s),
            "ratio",
        );
        m.put("store.stored", cold.stored as f64, "count");
        m.put("store.bytes", crate::dir_bytes(&store_dir) as f64, "bytes");
        m.put(
            "store.hits",
            (cold.hits + warm_store.iter().map(|s| s.hits).sum::<usize>()) as f64,
            "count",
        );
        m.put(
            "store.misses",
            (cold.misses + warm_store.iter().map(|s| s.misses).sum::<usize>()) as f64,
            "count",
        );
        m.put("telemetry.events", events as f64, "count");
        m.put("telemetry.samples", samples as f64, "count");
        m.put("device.runs", profiles.len() as f64, "count");
        m.put("device.run_s", busy_s, "s");
        m.put(
            "policy.lcs_avg_limit",
            lcs_avg_limit(stats.iter().filter_map(|r| r.lcs_limits.as_ref())),
            "ctas",
        );
        model_layers(&all, m);
        self.last_pass_s.set(pass0.elapsed().as_secs_f64());
        Some(out)
    }

    /// Collects every experiment and writes its CSVs, as `exp` does.
    /// Returns each table's rendering, in order, for the warm check, and
    /// the number of experiments whose collection panicked.
    fn collect_and_write(
        &self,
        engine: &RunEngine,
        dir: &Path,
        t: &Tracer,
        io_ok: &mut bool,
    ) -> (Vec<String>, usize) {
        let mut rendered = Vec::new();
        let mut lost = 0;
        for id in &self.ids {
            let tables: Vec<Table> = match t.span("engine.collect", 0, || {
                catch_unwind(AssertUnwindSafe(|| collect_experiment(id, &self.h, engine)))
            }) {
                Ok(tables) => tables,
                Err(_) => {
                    lost += 1;
                    continue;
                }
            };
            for (i, table) in tables.iter().enumerate() {
                let path = if tables.len() == 1 {
                    dir.join(format!("{id}.csv"))
                } else {
                    dir.join(format!("{id}_{}.csv", (b'a' + i as u8) as char))
                };
                *io_ok &= t.span("engine.csv", 0, || table.write_csv(&path)).is_ok();
                rendered.push(table.to_string());
            }
        }
        (rendered, lost)
    }

    /// Geomean over suite kernels the batch ran under both the GTO
    /// baseline and `policy`: baseline cycles ÷ policy cycles.
    fn policy_speedup(&self, engine: &RunEngine, policy: CtaPolicy) -> f64 {
        let ratios: Vec<f64> = gpgpu_workloads::suite(Scale::Tiny)
            .iter()
            .filter_map(|w| {
                let spec = |cta| RunSpec::single(&self.h, w.name(), WarpPolicy::Gto, cta);
                let base = engine.lookup(&spec(CtaPolicy::Baseline(None)))?;
                let pol = engine.lookup(&spec(policy))?;
                Some(base.stats.cycles as f64 / pol.stats.cycles as f64)
            })
            .collect();
        geomean(&ratios)
    }

    /// E8's mixed-CKE vs serial geomean over its kernel pairs.
    fn cke_speedup(&self, engine: &RunEngine) -> f64 {
        let ratios: Vec<f64> = e08_cke::PAIRS
            .iter()
            .filter_map(|(a, b)| {
                let pair = |cta, serial| RunSpec::pair(&self.h, a, b, WarpPolicy::Gto, cta, serial);
                let serial = engine.lookup(&pair(CtaPolicy::Baseline(None), true))?;
                let mixed = engine.lookup(&pair(CtaPolicy::MixedCke(0.7), false))?;
                Some(serial.stats.cycles as f64 / mixed.stats.cycles as f64)
            })
            .collect();
        geomean(&ratios)
    }
}

/// The plan's distinct runs, keyed (and so ordered) by content key.
fn unique_specs(specs: &[RunSpec]) -> BTreeMap<String, RunSpec> {
    let mut out = BTreeMap::new();
    for s in specs {
        out.entry(s.key().as_str().to_string())
            .or_insert_with(|| s.clone());
    }
    out
}

/// Writes each trace point's event trace and interval series, as `exp
/// --trace-dir` does. Returns the event and sample counts written.
fn write_traces(
    dir: &Path,
    traces: &[(String, RunSpec)],
    engine: &RunEngine,
) -> std::io::Result<(usize, usize)> {
    let (mut events, mut samples) = (0, 0);
    for (label, spec) in traces {
        let Some(data) = engine.lookup(spec).and_then(|r| r.telemetry.clone()) else {
            continue;
        };
        let mut w = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{label}.events.jsonl")),
        )?);
        data.write_events_jsonl(&mut w)?;
        w.flush()?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{label}.intervals.csv")),
        )?);
        data.write_samples_csv(&mut w)?;
        w.flush()?;
        events += data.events.len();
        samples += data.samples.len();
    }
    Ok((events, samples))
}
