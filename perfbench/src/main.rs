//! The repository benchmark: one command runs a named workload against
//! the simulator and its experiment harness, checks every simulated
//! result, and prints each metric by name with its unit. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-small --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics (see `perfbench/README.md` for both lists and what each layer
//! should move). A run repeats passes over its workload until `--seconds`
//! is spent. A pass is made of timed units (each simulation of a direct
//! workload; the phases of a batch). Host times are built from each
//! unit's median repetition and given at reference speed (see
//! `reference`), so that a busy neighbour on a shared host does not move
//! them.
//! `--reduced` (Tiny scale, smaller batch) and `--max-cycles N` (a cycle
//! budget, to force failures) exist for the benchmark's own tests.

mod batch;
mod direct;
mod heap;
mod metrics;
mod reference;
mod spans;

use gpgpu_bench::json::Json;
use metrics::{median, quantile, ratio, Digest, Metrics};
use spans::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["batch-tiny", "mem-small", "compute-small"];

/// Per-layer metrics, in print order. Host times come from the traced
/// passes' spans; counts and simulated-model figures from the runs'
/// statistics.
const PER_LAYER: [(&str, &str); 76] = [
    ("engine.plan_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.collect_s", "s"),
    ("engine.csv_s", "s"),
    ("engine.requested", "count"),
    ("engine.executed", "count"),
    ("engine.dedup_frac", "ratio"),
    ("engine.worker_busy_s", "s"),
    ("engine.idle_frac", "ratio"),
    ("engine.self_s", "s"),
    ("store.stored", "count"),
    ("store.bytes", "bytes"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.warm_s", "s"),
    ("store.warm_execute_s", "s"),
    ("store.self_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.samples", "count"),
    ("telemetry.write_s", "s"),
    ("telemetry.self_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.prepare_s", "s"),
    ("workloads.verify_s", "s"),
    ("workloads.self_s", "s"),
    ("device.new_s", "s"),
    ("device.run_s", "s"),
    ("device.stats_s", "s"),
    ("device.runs", "count"),
    ("device.sim_s_p50", "s"),
    ("device.sim_s_p95", "s"),
    ("device.ns_per_cycle", "ns"),
    ("device.ns_per_instr", "ns"),
    ("device.cycles", "cycles"),
    ("device.instructions", "instr"),
    ("device.ipc", "instr/cycle"),
    ("device.self_s", "s"),
    ("core_model.issued_frac", "ratio"),
    ("core_model.mem_pending_frac", "ratio"),
    ("core_model.scoreboard_frac", "ratio"),
    ("core_model.no_resident_frac", "ratio"),
    ("core_model.exec_busy_frac", "ratio"),
    ("core_model.barrier_frac", "ratio"),
    ("core_model.ff_idle_frac", "ratio"),
    ("core_model.avg_resident_ctas", "ctas"),
    ("core_model.avg_resident_warps", "warps"),
    ("core_model.gmem_transactions", "count"),
    ("core_model.shared_replays", "count"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.hit_rate", "ratio"),
    ("mem.l1.mshr_merges", "count"),
    ("mem.l1.reservation_fails", "count"),
    ("mem.xbar.req_packets", "count"),
    ("mem.xbar.req_wait_avg", "cycles"),
    ("mem.xbar.resp_wait_avg", "cycles"),
    ("mem.xbar.rejected", "count"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.hit_rate", "ratio"),
    ("mem.dram.accesses", "count"),
    ("mem.dram.row_hit_rate", "ratio"),
    ("mem.dram.avg_latency", "cycles"),
    ("mem.dram.rejected", "count"),
    ("policy.lcs_avg_limit", "ctas"),
    ("policy.malformed_dispatches", "count"),
    ("policy.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.passes", "count"),
    ("bench.attempted", "count"),
    ("bench.failed", "count"),
    ("bench.fail_frac", "ratio"),
    ("bench.ref_s", "s"),
    ("bench.host_scale", "ratio"),
    ("bench.peak_rss_mb", "MiB"),
];

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// An output check failed (beyond counted simulation failures).
    pub incorrect: bool,
    /// Every run of the workload was attempted (a pass cut short by the
    /// deadline is not complete).
    pub complete: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Host seconds of each timed unit the pass ran, by name.
    pub units: BTreeMap<String, f64>,
    /// Host seconds of each reference job timed between the units.
    pub ref_s: Vec<f64>,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Each finished simulation by content key: host seconds inside its
    /// simulation call, device cycles and warp-instructions.
    pub sims: BTreeMap<String, Sim>,
    pub sim_host_s: f64,
    pub sim_cycles: u64,
    pub lcs_speedup: f64,
    pub bcs_speedup: f64,
    pub cke_speedup: f64,
    pub warm_s: Vec<f64>,
    /// Digest of each finished run's results, by content key.
    pub runs: BTreeMap<String, Digest>,
    /// Per-layer counts and host times measured without spans.
    pub layers: Metrics,
    /// Per-layer span totals (empty when untraced).
    pub spans: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct Sim {
    pub host_s: f64,
    pub cycles: u64,
    pub instructions: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reduced: bool,
    max_cycles: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <batch-tiny|mem-small|compute-small> \
[--seed N] [--seconds N] [--trace 0|1] [--reduced] [--max-cycles N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reduced: false,
        max_cycles: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--reduced" {
            a.reduced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value.clone(),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1) as f64,
            "--trace" => match value.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            "--max-cycles" => a.max_cycles = Some(num()?.max(1)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Pins this process, and every thread it starts later, to the CPU it is
/// running on, so that the reference job shares a core with every timed
/// unit, the engine's worker thread included: contention from other
/// tenants of a shared host differs from core to core. Returns the CPU,
/// or `None` if the host refused.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the calling
    // thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A glibc `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised `cpu_set_t` that lives across the
    // call, its size is the size passed, and pid 0 names the calling
    // thread (this is called before the benchmark starts any thread).
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Cold passes never share work between simulations: one core-stepping
    // thread per simulation, no record/replay, fresh stores.
    gpgpu_sim::set_sim_threads_default(1);
    // The batch's simulations run on the engine's worker thread, not on
    // the thread that times the reference job; pinning keeps them on one
    // core. (The direct workloads run on one thread and stay free to move
    // off a busy core.)
    if args.workload == "batch-tiny" {
        match pin_to_one_cpu() {
            Some(cpu) => println!("pinned to cpu {cpu}"),
            None => eprintln!("warning: could not pin to one cpu; host times may spread more"),
        }
    }

    // Scratch space inside the benchmark's own directory of the checkout.
    let work_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }

    let untraced = Tracer::new(false);
    let traced = Tracer::new(true);
    type Runner = Box<dyn Fn(&Tracer, Option<Instant>) -> Option<Pass>>;
    let runner: Runner = match args.workload.as_str() {
        "batch-tiny" => {
            let b = batch::Batch::new(args.reduced, args.max_cycles, work.clone());
            Box::new(move |t, deadline| b.pass(t, deadline))
        }
        w => {
            let kind = if w == "mem-small" {
                direct::Kind::Mem
            } else {
                direct::Kind::Compute
            };
            let d =
                direct::Direct::new(kind, args.seed, args.reduced, args.max_cycles, work.clone());
            Box::new(move |t, deadline| d.pass(t, deadline))
        }
    };

    // Untraced passes give the end-to-end metrics. With --trace 1,
    // untraced and traced passes alternate, and the traced ones give the
    // per-layer metrics. The first pass of each kind is always whole;
    // later ones stop at the deadline.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    loop {
        let trace_now = args.trace && plain.len() > spanned.len();
        let first = if trace_now {
            spanned.is_empty()
        } else {
            plain.is_empty()
        };
        let tracer = if trace_now { &traced } else { &untraced };
        let Some(pass) = runner(tracer, (!first).then_some(deadline)) else {
            break;
        };
        println!(
            "pass {} ({}): units_s {:.4} ref_s {:.6} setup_s {:.6} sim_host_s {:.4} warm_s {:.6} failed {}/{}",
            plain.len() + spanned.len() + 1,
            if trace_now { "traced" } else { "untraced" },
            pass.units.values().sum::<f64>(),
            median(&pass.ref_s),
            median(&pass.setup_s),
            pass.sim_host_s,
            median(&pass.warm_s),
            pass.failed,
            pass.attempted
        );
        if trace_now { &mut spanned } else { &mut plain }.push(pass);
        let enough = !plain.is_empty() && (!args.trace || !spanned.is_empty());
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let rss = metrics::peak_rss_mb();
    let heap_mb = heap::peak_mb();
    let _ = std::fs::remove_dir_all(&work);

    let all: Vec<&Pass> = plain.iter().chain(&spanned).collect();
    let attempted: usize = all.iter().map(|p| p.attempted).sum();
    let failed: usize = all.iter().map(|p| p.failed).sum();
    // Every repetition of a run must reproduce its first result exactly.
    let first_runs = &plain[0].runs;
    let consistent = all.iter().all(|p| {
        !p.incorrect
            && p.runs
                .iter()
                .all(|(key, d)| first_runs.get(key).is_none_or(|f| f == d))
    });
    let mut digest = Digest::default();
    for (key, d) in first_runs {
        digest.add(key.as_bytes());
        digest.add(d.hex().as_bytes());
    }
    let correct = consistent && failed == 0;
    println!(
        "workload {} seed {} passes {}+{} traced ({} whole)",
        args.workload,
        args.seed,
        plain.len(),
        spanned.len(),
        all.iter().filter(|p| p.complete).count()
    );
    println!("sim_digest {}", digest.hex());
    let distinct: BTreeSet<&String> = plain.iter().flat_map(|p| p.sims.keys()).collect();
    println!(
        "sim_s samples {} (distinct simulations, each the median of up to {} passes)",
        distinct.len(),
        plain.len()
    );

    let e2e = end_to_end(&plain, heap_mb);
    for (name, v, unit) in &e2e.0 {
        println!("{name} = {v} {unit}");
    }
    let report = if args.trace {
        let mut layers = per_layer(&plain, &spanned);
        layers.put("trace.spans", traced.mark() as f64, "count");
        layers.put("bench.attempted", attempted as f64, "count");
        layers.put("bench.peak_rss_mb", rss, "MiB");
        layers.put("bench.failed", failed as f64, "count");
        layers.put(
            "bench.fail_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        let by_name: BTreeMap<&str, f64> =
            layers.0.iter().map(|(n, v, _)| (n.as_str(), *v)).collect();
        let layers = Metrics(
            PER_LAYER
                .iter()
                .map(|(n, u)| (n.to_string(), by_name.get(n).copied().unwrap_or(0.0), *u))
                .collect(),
        );
        for (name, v, unit) in &layers.0 {
            println!("{name} = {v} {unit}");
        }
        let path = work_root.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = std::fs::File::create(&path).and_then(|mut f| traced.write_jsonl(&mut f)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        layers
    } else {
        e2e
    };
    let mut metrics = Json::obj();
    for (name, v, unit) in &report.0 {
        metrics = metrics.with(
            name,
            Json::obj()
                .with("value", Json::Float(*v))
                .with("unit", Json::Str(unit.to_string())),
        );
    }
    let correct = correct && report.0.iter().all(|(_, v, _)| v.is_finite());
    let line = Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::UInt(attempted as u64))
        .with("failed", Json::UInt(failed as u64))
        .with("metrics", metrics);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// The factor that puts host seconds measured in `passes` at reference
/// speed: the reference job's nominal time over its median time there.
fn host_scale(passes: &[Pass]) -> f64 {
    let refs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ref_s.iter().copied())
        .collect();
    ratio(reference::NOMINAL_S, median(&refs))
}

/// Each distinct simulation's median host time over `passes` (as
/// measured), with the device cycles and warp-instructions of all of them.
fn typical_sims(passes: &[Pass]) -> (Vec<f64>, u64, u64) {
    let mut by_run: BTreeMap<&str, Vec<&Sim>> = BTreeMap::new();
    for p in passes {
        for (key, sim) in &p.sims {
            by_run.entry(key).or_default().push(sim);
        }
    }
    let sim_s = by_run
        .values()
        .map(|v| median(&v.iter().map(|s| s.host_s).collect::<Vec<_>>()))
        .collect();
    let cycles = by_run.values().map(|v| v[0].cycles).sum();
    let instructions = by_run.values().map(|v| v[0].instructions).sum();
    (sim_s, cycles, instructions)
}

/// Each timed unit's median host time over `passes` (as measured),
/// summed: one pass of the workload at typical speed.
fn typical_units(passes: &[Pass]) -> f64 {
    let mut by_unit: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (name, &s) in &p.units {
            by_unit.entry(name).or_default().push(s);
        }
    }
    by_unit.values().map(|v| median(v)).sum()
}

/// End-to-end metrics over the untraced passes. Host times are built from
/// each unit's median repetition (each simulation; each phase of a batch)
/// and put at reference speed, so that host contention, which slows the
/// reference job as well, cancels out.
fn end_to_end(passes: &[Pass], heap_mb: f64) -> Metrics {
    let scale = host_scale(passes);
    let (sim_s, cycles, instructions) = typical_sims(passes);
    let host_s = sim_s.iter().sum::<f64>() * scale;
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let first = &passes[0];
    let mut m = Metrics::default();
    m.put("wall_s", typical_units(passes) * scale, "s");
    let setup_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    m.put("setup_s", median(&setup_s) * scale, "s");
    m.put("sim_cycles_per_s", ratio(cycles as f64, host_s), "cycles/s");
    m.put(
        "sim_instr_per_s",
        ratio(instructions as f64, host_s),
        "instr/s",
    );
    m.put("peak_heap_mb", heap_mb, "MiB");
    m.put(
        "ok_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m.put("sim_cycles", first.sim_cycles as f64, "cycles");
    m.put("lcs_speedup", first.lcs_speedup, "x");
    m.put("bcs_speedup", first.bcs_speedup, "x");
    m.put("cke_speedup", first.cke_speedup, "x");
    m
}

/// Per-layer metrics: medians over the whole traced passes of the span
/// totals and counters, plus the tracing overhead against the untraced
/// passes. The per-simulation host-time quantiles and the warm re-serve
/// time come from the untraced passes. Host times are at reference speed,
/// like the end-to-end ones; `bench.ref_s` is the reference job's median
/// time as measured and `bench.host_scale` the factor applied.
fn per_layer(plain: &[Pass], spanned: &[Pass]) -> Metrics {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for p in spanned.iter().filter(|p| p.complete) {
        let mut seen = BTreeMap::new();
        for (name, v) in &p.spans {
            seen.insert(name.clone(), *v);
        }
        // Counters measured outside spans take precedence.
        for (name, v, _) in &p.layers.0 {
            seen.insert(name.clone(), *v);
        }
        let cycles = seen.get("device.cycles").copied().unwrap_or(0.0);
        let instructions = seen.get("device.instructions").copied().unwrap_or(0.0);
        let run_s = seen.get("device.run_s").copied().unwrap_or(0.0);
        seen.insert("device.ns_per_cycle".into(), ratio(run_s * 1e9, cycles));
        seen.insert(
            "device.ns_per_instr".into(),
            ratio(run_s * 1e9, instructions),
        );
        for (name, v) in seen {
            values.entry(name).or_default().push(v);
        }
    }
    let traced_scale = host_scale(spanned);
    let mut m = Metrics::default();
    for (name, vs) in values {
        let host_time = name.ends_with("_s") || name.starts_with("device.ns_per_");
        let scale = if host_time { traced_scale } else { 1.0 };
        m.put(name, median(&vs) * scale, "");
    }
    let scale = host_scale(plain);
    let (sim_s, _, _) = typical_sims(plain);
    m.put("device.sim_s_p50", quantile(&sim_s, 0.5) * scale, "s");
    m.put("device.sim_s_p95", quantile(&sim_s, 0.95) * scale, "s");
    let warm: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.warm_s.iter().copied())
        .collect();
    m.put("store.warm_s", median(&warm) * scale, "s");
    let untraced = typical_units(plain) * scale;
    let traced = typical_units(spanned) * traced_scale;
    m.put("trace.overhead_s", traced - untraced, "s");
    m.put("trace.untraced_wall_s", untraced, "s");
    m.put("trace.traced_wall_s", traced, "s");
    m.put("trace.passes", spanned.len() as f64, "count");
    let refs: Vec<f64> = plain.iter().flat_map(|p| p.ref_s.iter().copied()).collect();
    m.put("bench.ref_s", median(&refs), "s");
    m.put("bench.host_scale", scale, "ratio");
    m
}
