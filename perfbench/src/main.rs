//! `perfbench` — the repository benchmark: host cost of the MicroDeep
//! serving and training paths, end to end per workload and per layer.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out PATH] [--spans PATH] [--report PATH]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! metrics, ending with one JSON line `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced phase with `--trace 1`. Without it,
//! runs every workload, timed and traced, each in a fresh child process
//! of itself, one after another, and writes the
//! `zeiot-bench-trajectory/2` document to `--out` when given.
//!
//! `ZEIOT_BENCH_ITERS=N` replaces the time budget with N counted
//! operations; `BLESS_BENCH=1` rewrites `expected_digests.json` from a
//! `--seed 42` run. Everything runs on one thread. See README.md.

mod digests;
mod ladder;
mod spans;
mod stats;
mod workload;

use digests::{Checker, DEFAULT_SEED};
use spans::Spans;
use stats::{json_number, quantile, Metric};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Bench, Output, Workload, SEGMENTS};

const USAGE: &str = "usage: perfbench [--workload serve-f32|serve-int8|serve-lossy|train-lounge] \
[--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--spans PATH] [--report PATH]";

/// Timed seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Untimed operations before the traced ones.
const TRACE_WARMUP: usize = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        spans: None,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--report" => args.report = Some(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    }
}

/// What one phase of one workload measured.
struct Phase {
    name: &'static str,
    metrics: Vec<Metric>,
    extras: Vec<(String, f64)>,
    ops: usize,
    warmup: usize,
    wall_s: Vec<(&'static str, f64)>,
}

fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let bless = std::env::var("BLESS_BENCH").is_ok_and(|v| v == "1");
    let iters = match std::env::var("ZEIOT_BENCH_ITERS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("ZEIOT_BENCH_ITERS must be a positive integer, not {v}");
                return ExitCode::from(2);
            }
        },
        Err(_) => None,
    };
    let mut checker = match Checker::new(workload, args.seed, bless) {
        Ok(checker) => checker,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let phase = if args.trace {
        traced(workload, args, &mut checker)
    } else {
        timed(workload, args, iters, &mut checker)
    };
    let phase = match phase {
        Ok(phase) => phase,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench {}: seed {}, {} phase, {} ops after {} warm-up, 1 thread",
        workload.name(),
        args.seed,
        phase.name,
        phase.ops,
        phase.warmup
    );
    for m in &phase.metrics {
        let s = &m.samples;
        println!(
            "  {:<28} {:>16.6} {:<5}  median {:.6}  p10 {:.6}  p90 {:.6}  mad {:.6}  n {}",
            m.name, m.value, m.unit, s.median, s.p10, s.p90, s.mad, s.n
        );
    }
    for (name, value) in &phase.extras {
        println!("  {name:<28} {value:>16.6}");
    }
    let finite = phase.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric has no finite value");
    }
    let correct = finite && checker.failed == 0;
    let metrics: Vec<String> = phase
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();

    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, report_fragment(&phase, &checker)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if bless && args.seed != DEFAULT_SEED {
        eprintln!("BLESS_BENCH=1 only rewrites the --seed {DEFAULT_SEED} digests");
    } else if bless && correct {
        if let Err(e) = checker.bless(workload) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("blessed {} digests", workload.name());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-operation samples of the timed phase.
#[derive(Default)]
struct Tally {
    /// Seconds of each counted operation, by segment.
    segment_secs: [Vec<f64>; SEGMENTS],
    rates: Vec<f64>,
    /// `(correct, labelled, offered, shed or failed)` of each serving
    /// segment's first repetition.
    segments: [Option<[u64; 4]>; SEGMENTS],
    train_accuracy: Option<f64>,
    /// Re-placement epochs, migrations and handoff frames per operation.
    replace: Vec<[f64; 3]>,
}

impl Tally {
    fn add(
        &mut self,
        bench: &mut Bench,
        checker: &mut Checker,
        op: usize,
        secs: f64,
        output: &Output,
        counted: bool,
    ) {
        let answered = match output {
            Output::Serve(outcome) => {
                let t = outcome.report.total();
                self.segments[op % SEGMENTS].get_or_insert([
                    t.correct,
                    t.labelled,
                    t.offered,
                    t.shed() + t.failed,
                ]);
                if bench.workload == Workload::ServeLossy {
                    let r = outcome.report.replace.unwrap_or_default();
                    checker.require(
                        r.epochs >= 1,
                        "a serve-lossy segment re-places at least once",
                    );
                    self.replace
                        .push([r.epochs, r.migrations, r.handoff_frames].map(|v| v as f64));
                }
                t.served as f64
            }
            Output::Train(_) => {
                if op % SEGMENTS == SEGMENTS - 1 && self.train_accuracy.is_none() {
                    self.train_accuracy = Some(bench.held_out_accuracy());
                }
                bench.train.len() as f64
            }
        };
        if counted {
            self.segment_secs[op % SEGMENTS].push(secs);
            self.rates.push(answered / secs);
        }
    }

    /// Each segment's 10th-percentile operation time, averaged over the
    /// segments, in ms. Segments differ in the requests they offer, so a
    /// 10th percentile over all operations would sit inside the cheapest
    /// segment's distribution.
    fn segment_p10_ms(&self) -> f64 {
        let p10: Vec<f64> = self
            .segment_secs
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, 0.1) * 1e3)
            .collect();
        p10.iter().sum::<f64>() / p10.len() as f64
    }

    /// Summed segment counter `i` over the segments seen.
    fn segment_sum(&self, i: usize) -> f64 {
        self.segments.iter().flatten().map(|s| s[i] as f64).sum()
    }
}

/// Operations for `--seconds` (or `ZEIOT_BENCH_ITERS` counted
/// operations) after a warm-up of at least 2 operations and 5% of the
/// budget, untraced. The [`SETUP_REPS`] set-ups are spread over the run
/// — the first builds the state the operations use — so their median,
/// like the operation quantiles, samples the whole run rather than one
/// moment of it.
fn timed(
    workload: Workload,
    args: &Args,
    iters: Option<usize>,
    checker: &mut Checker,
) -> Result<Phase, String> {
    let timed_start = Instant::now();
    let mut setup_s = Vec::new();
    let setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let bench = Bench::setup(workload, args.seed, &mut Spans::new());
        setup_s.push(start.elapsed().as_secs_f64());
        bench
    };
    let mut bench = setup(&mut setup_s);

    let mut tally = Tally::default();
    let mut run = |bench: &mut Bench, tally: &mut Tally, op: usize, counted: bool| {
        bench.prepare(op);
        let start = Instant::now();
        let output = bench.execute(op);
        let secs = start.elapsed().as_secs_f64();
        let digest = bench.digest(op, &output);
        checker.check(op, digest);
        tally.add(bench, checker, op, secs, &output, counted);
    };
    let min_warmup = iters.map_or(2, |n| n.div_ceil(20).max(2));
    let mut op = 0;
    while op < min_warmup
        || (iters.is_none() && timed_start.elapsed().as_secs_f64() < 0.05 * args.seconds)
    {
        run(&mut bench, &mut tally, op, false);
        op += 1;
    }
    let warmup = op;
    // Seconds of operations so far: the budget excludes the set-ups
    // interleaved with them.
    let mut elapsed = 0.0;
    loop {
        let progress = match iters {
            Some(n) => (op - warmup) as f64 / n as f64,
            None if op == warmup => 0.0,
            None => elapsed / args.seconds,
        };
        if progress >= 1.0 {
            break;
        }
        if setup_s.len() < SETUP_REPS && progress * SETUP_REPS as f64 >= setup_s.len() as f64 {
            drop(setup(&mut setup_s));
        }
        let start = Instant::now();
        run(&mut bench, &mut tally, op, true);
        elapsed += start.elapsed().as_secs_f64();
        op += 1;
    }
    while setup_s.len() < SETUP_REPS {
        drop(setup(&mut setup_s));
    }
    let setup_wall: f64 = setup_s.iter().sum();
    let timed_wall = timed_start.elapsed().as_secs_f64() - setup_wall;

    let mut extras = Vec::new();
    if workload.serves() {
        let (correct, labelled) = (tally.segment_sum(0), tally.segment_sum(1));
        extras.push(("accuracy".to_owned(), correct / labelled));
        let (offered, unanswered) = (tally.segment_sum(2), tally.segment_sum(3));
        extras.push(("fail_share".to_owned(), unanswered / offered));
    } else {
        let accuracy = tally
            .train_accuracy
            .unwrap_or_else(|| bench.held_out_accuracy());
        extras.push(("accuracy".to_owned(), accuracy));
    }
    if !tally.replace.is_empty() {
        for (i, name) in ["epochs", "migrations", "handoff_frames"]
            .iter()
            .enumerate()
        {
            let per_op: Vec<f64> = tally.replace.iter().map(|r| r[i]).collect();
            extras.push((format!("replace.{name}_per_op"), stats::median(&per_op)));
        }
    }
    // Other work on a shared host stretches operations in bursts lasting
    // seconds, by 10-40%, so a run's median and p90 move with the
    // interference. The fastest decile of operations reads the code's
    // own cost: op_p10_ms is its time, req_per_s its rate.
    let ms: Vec<f64> = tally
        .segment_secs
        .iter()
        .flatten()
        .map(|s| s * 1e3)
        .collect();
    let rss = peak_rss_mb().ok_or("VmHWM is unavailable in /proc/self/status")?;
    Ok(Phase {
        name: "timed",
        metrics: vec![
            Metric::median("setup_s", "s", &setup_s),
            Metric::with_value(
                "req_per_s",
                "1/s",
                quantile(&tally.rates, 0.9),
                &tally.rates,
            ),
            Metric::with_value("op_p10_ms", "ms", tally.segment_p10_ms(), &ms),
            Metric::with_value("peak_rss_mb", "MB", rss, &[rss]),
        ],
        extras,
        ops: ms.len(),
        warmup,
        wall_s: vec![("setup", setup_wall), ("timed", timed_wall)],
    })
}

/// One set-up and [`TRACE_WARMUP`] untimed operations, then the traced
/// operations and the layer ladder, with spans throughout.
fn traced(workload: Workload, args: &Args, checker: &mut Checker) -> Result<Phase, String> {
    let mut spans = Spans::new();
    let setup_start = Instant::now();
    let mut bench = Bench::setup(workload, args.seed, &mut spans);
    for op in 0..TRACE_WARMUP {
        bench.prepare(op);
        let output = bench.execute(op);
        let digest = bench.digest(op, &output);
        checker.check(op, digest);
    }
    let setup_wall = setup_start.elapsed().as_secs_f64();
    let traced_start = Instant::now();
    let layers = ladder::traced_phase(&mut bench, &mut spans, checker, TRACE_WARMUP);
    let traced_wall = traced_start.elapsed().as_secs_f64();

    println!("self time by span (ms): name, count, total, self");
    let mut extras = layers.extras;
    for (name, t) in spans.self_times() {
        println!(
            "  {name:<32} {:>6} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
        extras.push((format!("self_ms.{name}"), t.self_ns as f64 / 1e6));
    }
    if let Some(path) = &args.spans {
        spans
            .append_jsonl(path, workload.name())
            .map_err(|e| format!("failed to write {path}: {e}"))?;
    }
    Ok(Phase {
        name: "traced",
        metrics: layers.metrics,
        extras,
        ops: ladder::TRACED_OPS,
        warmup: TRACE_WARMUP,
        wall_s: vec![("setup", setup_wall), ("traced", traced_wall)],
    })
}

/// The peak resident set of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One phase of one workload as a JSON object of the trajectory file.
fn report_fragment(phase: &Phase, checker: &Checker) -> String {
    let wall: Vec<String> = phase
        .wall_s
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    let digests: Vec<String> = checker
        .digests()
        .iter()
        .map(|d| d.map_or("null".to_owned(), |d| format!("\"{d:016x}\"")))
        .collect();
    let metrics: Vec<String> = phase
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"dispersion\": {}}}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples.to_json()
            )
        })
        .collect();
    let extras: Vec<String> = phase
        .extras
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    format!(
        "{{\"ops\": {}, \"warmup\": {}, \"wall_s\": {{{}}}, \"attempted\": {}, \"failed\": {}, \
         \"digests\": [{}], \"metrics\": {{{}}}, \"extras\": {{{}}}}}",
        phase.ops,
        phase.warmup,
        wall.join(", "),
        checker.attempted,
        checker.failed,
        digests.join(", "),
        metrics.join(", "),
        extras.join(", ")
    )
}

/// Runs every workload's timed and traced phases, each in a fresh child
/// process of this program, one at a time, and assembles the
/// trajectory document.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, "") {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let started = Instant::now();
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut phases = Vec::new();
        for (phase, trace) in [("timed", "0"), ("traced", "1")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace]);
            cmd.args(["--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if let (Some(path), "1") = (&args.spans, trace) {
                cmd.args(["--spans", path]);
            }
            let part = args
                .out
                .as_ref()
                .map(|out| format!("{out}.{}.{trace}.part", workload.name()));
            if let Some(part) = &part {
                cmd.args(["--report", part]);
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("{} {phase} phase failed: {status}", workload.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("cannot run {}: {e}", exe.display());
                    ok = false;
                }
            }
            let fragment = part.and_then(|p| {
                let text = std::fs::read_to_string(&p).ok();
                let _ = std::fs::remove_file(&p);
                text
            });
            phases.push(format!(
                "\"{phase}\": {}",
                fragment.as_deref().unwrap_or("null")
            ));
        }
        rows.push(format!(
            "    \"{}\": {{{}}}",
            workload.name(),
            phases.join(", ")
        ));
    }
    println!(
        "perfbench: all workloads in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if let Some(out) = &args.out {
        let iters = std::env::var("ZEIOT_BENCH_ITERS").unwrap_or_else(|_| "null".into());
        let git = git_rev().map_or("null".to_owned(), |r| format!("\"{r}\""));
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = format!(
            "{{\n  \"schema\": \"zeiot-bench-trajectory/2\",\n  \"manifest\": {{\"seed\": {}, \
             \"seconds\": {}, \"iters\": {iters}, \"threads\": 1, \"available_parallelism\": \
             {parallelism}, \"git_rev\": {git}, \"wall_s\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            json_number(args.seconds),
            json_number(started.elapsed().as_secs_f64()),
            rows.join(",\n")
        );
        if let Err(e) = std::fs::write(out, doc) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `git rev-parse HEAD` when run from the root of a git checkout.
fn git_rev() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}
