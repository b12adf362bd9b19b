//! Experiment CLI: regenerates the paper's tables and figures.
//!
//! ```text
//! exp --all                     # run E1..E11 at Small scale
//! exp e3 e5                     # run a subset
//! exp --quick --all             # Tiny scale (smoke test)
//! exp --store cache --all       # persistent result store: warm reruns
//!                               # simulate nothing
//! exp trace                     # telemetry smoke run (no tables)
//! exp --list                    # show experiment ids
//! exp <command> --help          # per-command options
//! ```
//!
//! Parsing lives in [`gpgpu_bench::cli`]; this binary only dispatches.
//! All selected experiments are planned up front and deduplicated through
//! one shared [`RunEngine`], so a baseline run shared by several
//! experiments simulates exactly once — and, with `--store`, at most once
//! across *processes*. Exit codes are stable: 0 success, 1 runtime
//! failure, 2 usage error.

use gpgpu_bench::cli::{
    Cli, Command, CommonArgs, FuzzArgs, Parsed, PerfArgs, ReportArgs, RunArgs, TraceArgs,
    EXIT_RUNTIME, EXIT_USAGE,
};
use gpgpu_bench::experiments::{all_ids, collect_experiment, plan_experiment, trace_points};
use gpgpu_bench::simcheck::{check_case, fuzz_seeds, FuzzCase};
use gpgpu_bench::{Harness, ReplayMode, ResultStore, RunEngine, RunSpec};
use gpgpu_sim::TelemetryConfig;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(Parsed::Exit(text)) => {
            // Tolerate a closed pipe (`exp --help | head`): a best-effort
            // write instead of println!'s broken-pipe panic.
            let _ = writeln!(std::io::stdout(), "{text}");
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Cli(cli)) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", gpgpu_bench::cli::usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // Apply process-wide simulation settings before anything simulates.
    if !cli.common.fast_forward {
        gpgpu_sim::set_fast_forward_default(false);
    }

    let mut h = Harness::default();
    h.scale = cli.common.scale;
    if let Some(jobs) = cli.common.jobs {
        h.jobs = jobs;
    }
    if let Some(dir) = &cli.common.out_dir {
        h.out_dir = dir.clone();
    }

    let store = match open_store(&cli.common) {
        Ok(s) => s,
        Err(code) => return code,
    };

    match cli.command {
        Command::Run(args) => run_experiments(&h, &cli.common, args, store),
        Command::Trace(args) => run_trace_smoke(&h, &cli.common, args, store),
        Command::Perf(args) => run_perf(&h, &args, &cli.common, store),
        Command::Fuzz(args) => run_fuzz(&h, &args),
        Command::Report(args) => run_report(&cli.common, &args),
    }
}

/// The `report` path: build cycle-accounting rows from the chosen source
/// (the CLI guarantees exactly one of `--store` / `--trace-dir`), render
/// text or JSON, and fail when any row breaks the conservation identity.
fn run_report(common: &CommonArgs, args: &ReportArgs) -> ExitCode {
    use gpgpu_bench::report;
    let rows = match &args.trace_dir {
        Some(dir) => report::rows_from_traces(dir),
        None => {
            let dir = common.store_dir.as_ref().expect("cli validated one source");
            let mut skipped = Vec::new();
            let rows = report::rows_from_store(dir, &mut skipped);
            for note in &skipped {
                eprintln!("warning: skipped store entry: {note}");
            }
            rows
        }
    };
    let rows = match rows {
        Ok(rows) if rows.is_empty() => {
            eprintln!("error: the source holds nothing to report on");
            return ExitCode::from(EXIT_RUNTIME);
        }
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    };
    let report = report::Report::from_rows(rows);
    if common.json {
        println!("{}", report.render_json().render());
    } else {
        print!("{}", report.render_text());
    }
    if !report.identity_ok() {
        eprintln!("error: stall-accounting conservation identity violated (see rows above)");
        return ExitCode::from(EXIT_RUNTIME);
    }
    ExitCode::SUCCESS
}

/// Opens `--store` (when given), failing fast on an unusable directory.
fn open_store(common: &CommonArgs) -> Result<Option<Arc<ResultStore>>, ExitCode> {
    let Some(dir) = &common.store_dir else {
        return Ok(None);
    };
    match ResultStore::open(dir) {
        Ok(s) => Ok(Some(Arc::new(s))),
        Err(e) => {
            eprintln!("error: cannot open store {}: {e}", dir.display());
            Err(ExitCode::from(EXIT_RUNTIME))
        }
    }
}

/// Creates `dir` if needed and verifies files can actually be created in
/// it (catches read-only mounts and paths under non-directories early).
fn ensure_writable_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(".write-probe");
    std::fs::File::create(&probe)?;
    std::fs::remove_file(&probe)
}

/// The default `run` path: plan, execute (through the store when given),
/// collect, write CSVs and traces.
fn run_experiments(
    h: &Harness,
    common: &CommonArgs,
    args: RunArgs,
    store: Option<Arc<ResultStore>>,
) -> ExitCode {
    let ids: Vec<String> = if args.all {
        all_ids().into_iter().map(String::from).collect()
    } else {
        args.ids.clone()
    };
    // Fail on an unusable trace directory before simulating anything —
    // a bad argument value, so it reports as a usage error.
    if let Some(dir) = &args.trace_dir {
        if let Err(e) = ensure_writable_dir(dir) {
            eprintln!(
                "error: cannot write to trace dir {}: {e}\n\n{}",
                dir.display(),
                gpgpu_bench::cli::usage()
            );
            return ExitCode::from(EXIT_USAGE);
        }
    }

    let total = std::time::Instant::now();

    // Plan every selected experiment up front so the engine can dedup
    // shared specs (e.g. the GTO baseline) across experiments, then
    // execute the unique remainder on the worker pool. Trace points are
    // batched alongside, upgrading the shared runs with telemetry.
    let mut engine = h.engine();
    if let Some(store) = store {
        engine.attach_store(store);
    }
    engine.set_replay_mode(common.replay);
    let mut specs = Vec::new();
    for id in &ids {
        specs.extend(plan_experiment(id, h));
    }
    let mut traces: Vec<(String, RunSpec)> = Vec::new();
    if args.trace_dir.is_some() {
        let cfg = TelemetryConfig::new(args.sample_every);
        for id in &ids {
            traces.extend(trace_points(id, h, cfg));
        }
        specs.extend(traces.iter().map(|(_, s)| s.clone()));
    }
    engine.execute_batch(&specs);

    for id in &ids {
        let t0 = std::time::Instant::now();
        let tables = collect_experiment(id, h, &engine);
        for (i, table) in tables.iter().enumerate() {
            println!("{table}");
            let path = if tables.len() == 1 {
                h.out_dir.join(format!("{id}.csv"))
            } else {
                h.out_dir.join(format!("{id}_{}.csv", (b'a' + i as u8) as char))
            };
            if let Err(e) = table.write_csv(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        println!("[{id} collected in {:.1?}]\n", t0.elapsed());
    }
    if let Some(dir) = &args.trace_dir {
        if let Err(e) = write_traces(dir, &traces, &engine) {
            eprintln!("error writing traces: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    }
    let summary = engine.summary();
    println!("{summary}");
    if common.json {
        println!("{}", summary.to_json());
    }
    // Diagnostics: per-run wall-clock ranking, for finding which
    // simulations dominate a batch.
    if std::env::var_os("EXP_PROFILE_RUNS").is_some() {
        let mut profiles = engine.profiles();
        profiles.sort_by_key(|p| std::cmp::Reverse(p.wall_nanos));
        for p in profiles.iter().take(25) {
            eprintln!(
                "[run {:>8.2}s {:>6.2} Mcycles {:>6.3} Mcyc/s] {}",
                p.wall_nanos as f64 / 1e9,
                p.cycles as f64 / 1e6,
                p.cycles_per_second() / 1e6,
                p.key.as_str()
            );
        }
    }
    println!("[all experiments took {:.1?}]", total.elapsed());
    ExitCode::SUCCESS
}

/// Writes each trace point's event trace and interval series under `dir`.
fn write_traces(
    dir: &Path,
    traces: &[(String, RunSpec)],
    engine: &RunEngine,
) -> std::io::Result<()> {
    for (label, spec) in traces {
        let result = engine.get(spec);
        let Some(data) = &result.telemetry else {
            eprintln!("warning: no telemetry recorded for {label}");
            continue;
        };
        let events = dir.join(format!("{label}.events.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&events)?);
        data.write_events_jsonl(&mut w)?;
        w.flush()?;
        let intervals = dir.join(format!("{label}.intervals.csv"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&intervals)?);
        data.write_samples_csv(&mut w)?;
        w.flush()?;
        println!(
            "[trace {label}: {} events, {} samples -> {}]",
            data.events.len(),
            data.samples.len(),
            dir.display()
        );
    }
    Ok(())
}

/// The `perf` path: simulate the full E1..E11 batch (no tables), report
/// per-simulation and wall-clock-aggregate throughput, write a
/// machine-readable `BENCH_sim.json`, and optionally gate against a
/// previous report.
///
/// The two rates answer different questions and must not be conflated:
/// the *per-simulation* rate (total cycles over summed worker time) is
/// how fast one simulation progresses — it is what the regression gate
/// compares, like for like. The *wall-clock aggregate* rate (total cycles
/// over batch elapsed time) additionally scales with `--jobs` batch
/// parallelism.
///
/// The gated reference batch always runs direct (replay off, no cached
/// results): a warm store or a cheap replay would fake the throughput
/// numbers. With `--replay auto|force`, the same batch then runs a
/// second time on a fresh replay-mode engine — the store, when given,
/// supplies execution records only — and the measured direct-vs-replay
/// wall-clock speedup is recorded in the JSON report.
fn run_perf(
    h: &Harness,
    args: &PerfArgs,
    common: &CommonArgs,
    store: Option<Arc<ResultStore>>,
) -> ExitCode {
    let json = common.json;
    let engine = h.engine();
    let mut specs = Vec::new();
    for id in all_ids() {
        specs.extend(plan_experiment(id, h));
    }
    let t0 = std::time::Instant::now();
    engine.execute_batch(&specs);
    let elapsed = t0.elapsed();
    let summary = engine.summary();
    println!("{summary}");
    println!(
        "[perf: {} Mcycles in {:.1}s elapsed ({} worker threads); {:.2} Mcycles/s per simulation, {:.2} Mcycles/s wall-clock aggregate]",
        summary.sim_cycles / 1_000_000,
        elapsed.as_secs_f64(),
        summary.jobs,
        summary.cycles_per_second() / 1e6,
        summary.wall_cycles_per_second(elapsed.as_nanos() as u64) / 1e6
    );

    // With --replay, run the identical batch again on a fresh engine in
    // replay mode (cold memo; the store, when given, supplies execution
    // records only) and measure the wall-clock improvement. Replay is
    // bit-identical to direct execution, so the cycle totals must agree.
    let replay_cmp = if common.replay != ReplayMode::Off {
        let mut replay_engine = h.engine();
        replay_engine.set_use_cached_results(false);
        if let Some(store) = store {
            replay_engine.attach_store(store);
        }
        replay_engine.set_replay_mode(common.replay);
        let t0 = std::time::Instant::now();
        replay_engine.execute_batch(&specs);
        let replay_elapsed = t0.elapsed();
        let rs = replay_engine.summary();
        if (rs.sim_cycles, rs.sim_instructions) != (summary.sim_cycles, summary.sim_instructions) {
            eprintln!(
                "error: replay batch diverged from direct execution ({} cycles / {} instructions vs {} / {})",
                rs.sim_cycles, rs.sim_instructions, summary.sim_cycles, summary.sim_instructions
            );
            return ExitCode::from(EXIT_RUNTIME);
        }
        let speedup = elapsed.as_secs_f64() / replay_elapsed.as_secs_f64().max(1e-9);
        println!(
            "[perf replay ({}): {} executed + {} replayed in {:.1}s vs {:.1}s direct ({speedup:.2}x)]",
            common.replay,
            rs.executed,
            rs.replayed,
            replay_elapsed.as_secs_f64(),
            elapsed.as_secs_f64()
        );
        Some((replay_elapsed, rs, speedup))
    } else {
        None
    };

    // The engine summary is already flat JSON; prepend the batch-level
    // elapsed time and wall-clock rate.
    let mut payload = format!(
        "{{\"bench\":\"exp_perf\",\"elapsed_nanos\":{},\"wall_cycles_per_second\":{:.1},{}",
        elapsed.as_nanos(),
        summary.wall_cycles_per_second(elapsed.as_nanos() as u64),
        &summary.to_json()[1..]
    );
    // Aggregate cycle accounting over the batch's unique runs, keyed by
    // the scale tier this invocation benchmarked. Observation-only data;
    // the gate keeps scanning for "cycles_per_second" untouched above.
    {
        let mut bd = gpgpu_sim::StallBreakdown::default();
        let mut seen = std::collections::HashSet::new();
        for spec in &specs {
            if seen.insert(spec.key().as_str().to_string()) {
                let b = engine.get(spec).stats.stall_breakdown();
                bd.core_cycles += b.core_cycles;
                bd.issued_slots += b.issued_slots;
                bd.idle_slots += b.idle_slots;
                bd.stalled_slots += b.stalled_slots;
                bd.no_resident += b.no_resident;
                bd.scoreboard += b.scoreboard;
                bd.mem_pending += b.mem_pending;
                bd.exec_busy += b.exec_busy;
                bd.barrier += b.barrier;
                bd.ff_idle += b.ff_idle;
                bd.cta_resident_cycles += b.cta_resident_cycles;
                bd.warp_resident_cycles += b.warp_resident_cycles;
            }
        }
        payload.pop(); // trailing '}'
        payload.push_str(&format!(
            ",\"stall_breakdown\":{{\"scale\":\"{}\",\"core_cycles\":{},\"issued_slots\":{}",
            gpgpu_bench::codec::scale_to_str(h.scale),
            bd.core_cycles,
            bd.issued_slots
        ));
        for (name, count) in bd.categories() {
            payload.push_str(&format!(",\"{name}\":{count}"));
        }
        payload.push_str(&format!(
            ",\"avg_resident_ctas\":{:.4},\"avg_resident_warps\":{:.4}}}}}",
            bd.avg_resident_ctas(),
            bd.avg_resident_warps()
        ));
    }
    // Measured record/replay comparison (observation-only; the gate
    // below still scans the direct batch's cycles_per_second).
    if let Some((replay_elapsed, rs, speedup)) = &replay_cmp {
        payload.pop(); // trailing '}'
        payload.push_str(&format!(
            ",\"replay\":{{\"mode\":\"{}\",\"direct_elapsed_nanos\":{},\"replay_elapsed_nanos\":{},\"speedup\":{speedup:.3},\"executed\":{},\"replayed\":{}}}}}",
            common.replay,
            elapsed.as_nanos(),
            replay_elapsed.as_nanos(),
            rs.executed,
            rs.replayed
        ));
    }
    if let Err(e) = std::fs::write(&args.bench_out, format!("{payload}\n")) {
        eprintln!("cannot write {}: {e}", args.bench_out.display());
        return ExitCode::from(EXIT_RUNTIME);
    }
    println!("[wrote {}]", args.bench_out.display());
    if json {
        println!("{payload}");
    }
    if let Some(base) = &args.baseline {
        let base_cps = match read_baseline_cps(base) {
            Ok(v) if v > 0.0 => v,
            Ok(_) => {
                eprintln!("baseline {} has no positive cycles_per_second", base.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", base.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        let cps = summary.cycles_per_second();
        println!(
            "[perf gate: {:.2} Mcycles/s vs baseline {:.2} Mcycles/s ({:+.1}%)]",
            cps / 1e6,
            base_cps / 1e6,
            (cps / base_cps - 1.0) * 100.0
        );
        if cps < base_cps * 0.75 {
            eprintln!("perf regression: throughput is >25% below the baseline");
            return ExitCode::from(EXIT_RUNTIME);
        }
    }
    ExitCode::SUCCESS
}

/// Extracts `cycles_per_second` from a previous `BENCH_sim.json` (flat
/// JSON; no parser dependency needed).
fn read_baseline_cps(path: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let key = "\"cycles_per_second\":";
    let start = text.find(key).ok_or("no cycles_per_second field")? + key.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().map_err(|e| e.to_string())
}

/// The `fuzz` path: either replay one reproducer file, or fuzz a seed
/// window and write a shrunk reproducer per failing seed under the
/// harness's out-dir. Exits nonzero when any oracle fired.
fn run_fuzz(h: &Harness, args: &FuzzArgs) -> ExitCode {
    if let Some(path) = &args.repro {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read reproducer {}: {e}", path.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        let case = match FuzzCase::from_repro(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bad reproducer {}: {e}", path.display());
                return ExitCode::from(EXIT_RUNTIME);
            }
        };
        println!("[fuzz: replaying {}]", path.display());
        let failures = check_case(&case);
        if failures.is_empty() {
            println!("[fuzz: reproducer is clean — all oracles passed]");
            return ExitCode::SUCCESS;
        }
        for f in &failures {
            println!("{f}");
        }
        println!("[fuzz: {} oracle failure(s)]", failures.len());
        return ExitCode::from(EXIT_RUNTIME);
    }

    let (lo, hi) = args.seeds;
    let t0 = std::time::Instant::now();
    let failures = fuzz_seeds(lo, hi, args.budget_cycles, h.jobs);
    if failures.is_empty() {
        println!(
            "[fuzz: seeds {lo}..{hi} clean ({} cases, {} oracle runs each) in {:.1?}]",
            hi - lo,
            3 + tbs_core::CtaPolicy::sweep_named().len(),
            t0.elapsed()
        );
        return ExitCode::SUCCESS;
    }
    if let Err(e) = ensure_writable_dir(&h.out_dir) {
        eprintln!("cannot write to out dir {}: {e}", h.out_dir.display());
        return ExitCode::from(EXIT_RUNTIME);
    }
    for f in &failures {
        println!("seed {} failed {} oracle check(s):", f.seed, f.failures.len());
        for x in &f.failures {
            println!("  {x}");
        }
        let path = h.out_dir.join(format!("simcheck-seed{}.repro", f.seed));
        match std::fs::write(&path, f.shrunk.to_repro()) {
            Ok(()) => println!("  shrunk reproducer: {}", path.display()),
            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
        }
        for x in &f.shrunk_failures {
            println!("  after shrink: {x}");
        }
    }
    println!(
        "[fuzz: {} of {} seeds failed in {:.1?}]",
        failures.len(),
        hi - lo,
        t0.elapsed()
    );
    ExitCode::from(EXIT_RUNTIME)
}

/// The `trace` smoke path: one traced kernel, trace files written, no
/// tables. Exists so CI (and humans) can exercise the full telemetry
/// pipeline in seconds.
fn run_trace_smoke(
    h: &Harness,
    common: &CommonArgs,
    args: TraceArgs,
    store: Option<Arc<ResultStore>>,
) -> ExitCode {
    let dir: PathBuf = args
        .trace_dir
        .unwrap_or_else(|| h.out_dir.join("traces"));
    if let Err(e) = ensure_writable_dir(&dir) {
        eprintln!(
            "error: cannot write to trace dir {}: {e}\n\n{}",
            dir.display(),
            gpgpu_bench::cli::usage()
        );
        return ExitCode::from(EXIT_USAGE);
    }
    let mut engine = h.engine();
    if let Some(store) = store {
        engine.attach_store(store);
    }
    engine.set_replay_mode(common.replay);
    let traces = trace_points("e5", h, TelemetryConfig::new(args.sample_every));
    let specs: Vec<RunSpec> = traces.iter().map(|(_, s)| s.clone()).collect();
    engine.execute_batch(&specs);
    if let Err(e) = write_traces(&dir, &traces, &engine) {
        eprintln!("error writing traces: {e}");
        return ExitCode::from(EXIT_RUNTIME);
    }
    let summary = engine.summary();
    println!("{summary}");
    if common.json {
        println!("{}", summary.to_json());
    }
    ExitCode::SUCCESS
}
