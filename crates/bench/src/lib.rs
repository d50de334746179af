//! # zeiot-bench
//!
//! Experiment harnesses regenerating every quantitative result in the
//! paper's evaluation, plus the extensions E9–E14 that probe the
//! MicroDeep mesh under faults, serving load, quantization, re-placement
//! and venue fusion.
//!
//! Each experiment is a library function (`experiments::e1_temperature`
//! … `e14_venue`) returning an [`ExperimentReport`] of paper-vs-measured
//! rows; E9–E14 share their deployment, baseline and serving constants
//! through [`experiments::mesh`]. The `src/bin/e*.rs` binaries are thin
//! wrappers over the shared [`cli`] front end. Integration tests run
//! reduced-size variants of the same functions, so the harness logic
//! itself is under test. Host CPU cost is measured separately, by
//! `perfbench` (see `BENCHMARK.json`).
//!
//! Run an experiment (release mode strongly recommended):
//!
//! ```text
//! cargo run --release -p zeiot-bench --bin e1_temperature
//! cargo run --release -p zeiot-bench --bin e10_serving -- --threads 4
//! cargo run --release -p zeiot-bench --bin e11_slo -- --trace-jsonl traces.jsonl
//! ```

pub mod cli;
pub mod experiments;
pub mod report;
pub mod sweep;

pub use report::{ExperimentReport, Row};
pub use sweep::{SweepOutcome, SweepRunner};

/// Builds the sweep runner a binary's parsed flags ask for: `--threads N`
/// (with `0` or no flag meaning "available parallelism").
pub fn runner_from_flags(map: &std::collections::BTreeMap<String, f64>) -> SweepRunner {
    SweepRunner::new(map.get("threads").copied().unwrap_or(0.0) as usize)
}

/// Parses `--key value` style arguments into overrides; unknown keys are
/// rejected with a helpful message listing `allowed`.
///
/// # Errors
///
/// Returns a human-readable error string on malformed input.
pub fn parse_args(
    args: &[String],
    allowed: &[&str],
) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key}"));
        };
        if !allowed.contains(&name) {
            let valid: Vec<String> = allowed.iter().map(|a| format!("--{a}")).collect();
            return Err(format!(
                "unknown flag --{name}; valid flags: {}",
                valid.join(", ")
            ));
        }
        let Some(value) = it.next() else {
            return Err(format!("--{name} needs a value"));
        };
        let parsed: f64 = value
            .parse()
            .map_err(|_| format!("--{name} value {value} is not a number"))?;
        out.insert(name.to_owned(), parsed);
    }
    Ok(out)
}

/// Removes a `--name value` string flag from `args` (if present) and
/// returns its value, leaving the numeric flags for [`parse_args`].
///
/// # Errors
///
/// Returns a human-readable error string if the flag is present without
/// a value.
pub fn take_string_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let flag = format!("--{name}");
    let Some(pos) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("--{name} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_string_flag_extracts_and_leaves_the_rest() {
        let mut args: Vec<String> = ["--seed", "7", "--jsonl", "out.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let path = take_string_flag(&mut args, "jsonl").unwrap();
        assert_eq!(path.as_deref(), Some("out.jsonl"));
        assert_eq!(args, vec!["--seed".to_string(), "7".to_string()]);
        assert_eq!(take_string_flag(&mut args, "jsonl").unwrap(), None);
        let mut dangling: Vec<String> = vec!["--jsonl".to_string()];
        assert!(take_string_flag(&mut dangling, "jsonl").is_err());
    }

    #[test]
    fn runner_from_flags_reads_threads() {
        let mut map = std::collections::BTreeMap::new();
        assert!(runner_from_flags(&map).threads() >= 1);
        map.insert("threads".to_owned(), 3.0);
        assert_eq!(runner_from_flags(&map).threads(), 3);
        map.insert("threads".to_owned(), 0.0);
        assert_eq!(
            runner_from_flags(&map).threads(),
            SweepRunner::default().threads()
        );
    }

    #[test]
    fn parse_args_happy_path() {
        let args: Vec<String> = ["--samples", "100", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let map = parse_args(&args, &["samples", "seed"]).unwrap();
        assert_eq!(map["samples"], 100.0);
        assert_eq!(map["seed"], 7.0);
    }

    #[test]
    fn parse_args_rejects_unknown_and_malformed() {
        let bad: Vec<String> = ["--nope", "1"].iter().map(|s| s.to_string()).collect();
        let err = parse_args(&bad, &["samples", "seed"]).unwrap_err();
        assert!(
            err.contains("--samples") && err.contains("--seed"),
            "unknown-flag error should name the valid flags: {err}"
        );
        assert!(parse_args(&bad, &["samples"]).is_err());
        let dangling: Vec<String> = ["--samples"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&dangling, &["samples"]).is_err());
        let not_num: Vec<String> = ["--samples", "abc"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&not_num, &["samples"]).is_err());
        let no_dash: Vec<String> = ["samples", "5"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&no_dash, &["samples"]).is_err());
    }
}
