//! The shared CLI front end of the experiment binaries.
//!
//! Every `src/bin/e*.rs` harness accepts the same flag grammar —
//! experiment-specific numeric overrides plus the common `--threads N`,
//! `--json 1` and `--jsonl PATH` — and renders one [`ExperimentReport`].
//! [`run_experiment`] owns that whole preamble, so a binary reduces to
//! naming its flags and mapping them onto its `Params`. Experiments that
//! also sample causal traces use [`run_traced_experiment`], which adds
//! `--trace-jsonl PATH`:
//!
//! ```no_run
//! use zeiot_bench::cli::{override_u64, run_experiment};
//! # use zeiot_bench::report::ExperimentReport;
//! # struct Params { seed: u64 }
//! # impl Params { fn default() -> Self { Self { seed: 0 } } }
//! run_experiment(&["seed"], |map, runner| {
//!     let mut params = Params::default();
//!     override_u64(map, "seed", &mut params.seed);
//! #   let _ = (params, runner);
//! #   ExperimentReport::new("E0", "doc")
//!     // run_with(&params, runner)
//! });
//! ```

use crate::report::ExperimentReport;
use crate::sweep::SweepRunner;
use crate::{parse_args, runner_from_flags, take_string_flag};
use std::collections::BTreeMap;
use std::path::Path;
use zeiot_obs::trace::{write_traces_jsonl, Trace};

/// What went wrong before a report could be rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Malformed or unknown flags (exit code 2).
    Usage(String),
    /// The `--jsonl` or `--trace-jsonl` export could not be written
    /// (exit code 1).
    Io(String),
}

impl CliError {
    /// The process exit code the error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 1,
        }
    }

    /// The message printed to stderr.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) => m,
        }
    }
}

/// Parses `args`, runs the experiment, honours `--jsonl`, and returns
/// the text `run_experiment` would print (the report's table, or its
/// JSON when `--json 1` is set).
///
/// `param_flags` are the experiment-specific numeric flags; `--threads`,
/// `--json` and `--jsonl` are always accepted. The parsed overrides and
/// the `--threads`-derived [`SweepRunner`] are handed to `run`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed flags and [`CliError::Io`]
/// when the `--jsonl` export fails.
pub fn execute<F>(mut args: Vec<String>, param_flags: &[&str], run: F) -> Result<String, CliError>
where
    F: FnOnce(&BTreeMap<String, f64>, &SweepRunner) -> ExperimentReport,
{
    let jsonl = take_string_flag(&mut args, "jsonl").map_err(CliError::Usage)?;
    let mut allowed: Vec<&str> = param_flags.to_vec();
    allowed.extend(["threads", "json"]);
    let map = parse_args(&args, &allowed).map_err(CliError::Usage)?;
    let report = run(&map, &runner_from_flags(&map));
    if let Some(path) = &jsonl {
        zeiot_obs::write_jsonl(Path::new(path), &report.export_snapshot())
            .map_err(|e| write_error(path, e))?;
    }
    Ok(if map.get("json").copied().unwrap_or(0.0) != 0.0 {
        report.to_json()
    } else {
        report.to_string()
    })
}

/// [`execute`] for an experiment that also returns its sampled traces:
/// `--trace-jsonl PATH` is accepted on top of the common flags, and once
/// the report (and any `--jsonl` export) is done the traces are written
/// to `PATH` as JSON Lines, one trace per line.
///
/// # Errors
///
/// Returns [`CliError::Usage`] on malformed flags and [`CliError::Io`]
/// when either export fails.
pub fn execute_traced<F>(
    mut args: Vec<String>,
    param_flags: &[&str],
    run: F,
) -> Result<String, CliError>
where
    F: FnOnce(&BTreeMap<String, f64>, &SweepRunner) -> (ExperimentReport, Vec<Trace>),
{
    let trace_path = take_string_flag(&mut args, "trace-jsonl").map_err(CliError::Usage)?;
    let mut traces = Vec::new();
    let text = execute(args, param_flags, |map, runner| {
        let (report, sampled) = run(map, runner);
        traces = sampled;
        report
    })?;
    if let Some(path) = &trace_path {
        write_traces_jsonl(Path::new(path), &traces).map_err(|e| write_error(path, e))?;
    }
    Ok(text)
}

fn write_error(path: &str, e: std::io::Error) -> CliError {
    CliError::Io(format!("failed to write {path}: {e}"))
}

/// The whole experiment-binary `main`: parse `std::env::args`, run,
/// print. Exits with code 2 on flag errors and 1 on export errors.
pub fn run_experiment<F>(param_flags: &[&str], run: F)
where
    F: FnOnce(&BTreeMap<String, f64>, &SweepRunner) -> ExperimentReport,
{
    let args = std::env::args().skip(1).collect();
    finish(execute(args, param_flags, run));
}

/// [`run_experiment`] for a traced experiment (see [`execute_traced`]).
pub fn run_traced_experiment<F>(param_flags: &[&str], run: F)
where
    F: FnOnce(&BTreeMap<String, f64>, &SweepRunner) -> (ExperimentReport, Vec<Trace>),
{
    let args = std::env::args().skip(1).collect();
    finish(execute_traced(args, param_flags, run));
}

/// Prints the rendered report, or the error and exits with its code.
fn finish(result: Result<String, CliError>) {
    match result {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("{}", e.message());
            std::process::exit(e.exit_code());
        }
    }
}

/// Applies a parsed `--name value` override to a `usize` parameter.
pub fn override_usize(map: &BTreeMap<String, f64>, name: &str, field: &mut usize) {
    if let Some(&v) = map.get(name) {
        *field = v as usize;
    }
}

/// Applies a parsed `--name value` override to a `u64` parameter.
pub fn override_u64(map: &BTreeMap<String, f64>, name: &str, field: &mut u64) {
    if let Some(&v) = map.get(name) {
        *field = v as u64;
    }
}

/// Applies a parsed `--name value` override to an `f64` parameter.
pub fn override_f64(map: &BTreeMap<String, f64>, name: &str, field: &mut f64) {
    if let Some(&v) = map.get(name) {
        *field = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Row;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn demo_report(map: &BTreeMap<String, f64>, runner: &SweepRunner) -> ExperimentReport {
        let mut report = ExperimentReport::new("E0", "cli test");
        report.push(Row::measured_only(
            "seed",
            map.get("seed").copied().unwrap_or(-1.0),
            "value",
        ));
        report.push(Row::measured_only(
            "threads",
            runner.threads() as f64,
            "count",
        ));
        report
    }

    #[test]
    fn executes_with_overrides_and_runner() {
        let text = execute(
            args(&["--seed", "9", "--threads", "2"]),
            &["seed"],
            |m, r| {
                assert_eq!(m["seed"], 9.0);
                assert_eq!(r.threads(), 2);
                demo_report(m, r)
            },
        )
        .unwrap();
        assert!(text.contains("seed"));
    }

    #[test]
    fn json_mode_renders_json() {
        let text = execute(args(&["--json", "1"]), &[], demo_report).unwrap();
        assert!(text.trim_start().starts_with('{'), "not JSON: {text}");
    }

    #[test]
    fn usage_errors_exit_2_and_name_valid_flags() {
        let err = execute(args(&["--nope", "1"]), &["seed"], demo_report).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("--seed"), "{}", err.message());
        assert!(err.message().contains("--threads"), "{}", err.message());
    }

    #[test]
    fn jsonl_failure_exits_1() {
        let err = execute(
            args(&["--jsonl", "/nonexistent-dir/out.jsonl"]),
            &[],
            demo_report,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn trace_jsonl_belongs_to_traced_runs_only() {
        let traced = |m: &BTreeMap<String, f64>, r: &SweepRunner| (demo_report(m, r), Vec::new());
        let err = execute_traced(args(&["--trace-jsonl"]), &[], traced).unwrap_err();
        assert_eq!(
            err,
            CliError::Usage("--trace-jsonl needs a value".to_owned())
        );
        let unwritable = args(&["--trace-jsonl", "/nonexistent-dir/t.jsonl"]);
        let err = execute_traced(unwritable, &[], traced).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err
            .message()
            .starts_with("failed to write /nonexistent-dir/t.jsonl"));
        // An experiment without traces rejects the flag as unknown.
        let err = execute(args(&["--trace-jsonl", "t.jsonl"]), &[], demo_report).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().starts_with("unknown flag --trace-jsonl"));
    }

    #[test]
    fn overrides_apply_only_when_present() {
        let mut map = BTreeMap::new();
        map.insert("samples".to_owned(), 100.0);
        let (mut a, mut b, mut c) = (1usize, 1u64, 1.0f64);
        override_usize(&map, "samples", &mut a);
        override_u64(&map, "missing", &mut b);
        override_f64(&map, "samples", &mut c);
        assert_eq!((a, b, c), (100, 1, 100.0));
    }
}
