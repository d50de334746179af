//! Rule `o1`: the observability-name registry round-trip.
//!
//! Metric and span names are stringly-typed joins: a typo'd emission
//! silently vanishes from every dashboard, report, and SLO that reads
//! the dump. `zeiot-obs::registry` declares the full vocabulary; this
//! pass checks both directions of the contract:
//!
//! * **membership** — every string literal flowing into a
//!   recorder/tracer API must be a registered name (a near-miss gets a
//!   "did you mean" suggestion);
//! * **round-trip** — every registered name must occur as a literal
//!   somewhere in the workspace outside the registry itself, so the
//!   table cannot accumulate dead rows.
//!
//! Extraction is lexical and deliberately one-sided: a *dynamic* name
//! (`format!`, a variable) is skipped — the runtime validation in
//! `zeiot_obs::jsonl::write_jsonl` is the backstop there — while a
//! literal name is always checked. Wildcard registry rows (`bench.*`)
//! license dynamic families and are exempt from the round-trip.

use crate::config::{Action, AuditConfig, Rule};
use crate::lexer::Line;
use crate::rules::{FileScan, RawFinding};
use std::collections::BTreeSet;
use zeiot_obs::registry::{is_registered_metric, is_registered_span, METRICS, SPANS};

/// The registry's own file — excluded from round-trip evidence.
pub(crate) const REGISTRY_REL: &str = "crates/obs/src/registry.rs";

/// Recorder/snapshot methods whose *first* argument is a metric name.
const METRIC_CALLS: [&str; 18] = [
    ".add(",
    ".inc(",
    ".counter(",
    ".counter_value(",
    ".counter_total(",
    ".counter_max(",
    ".counter_mean(",
    ".counters_named(",
    ".set_gauge(",
    ".gauge(",
    ".histogram(",
    ".histogram_ref(",
    ".observe(",
    ".series(",
    ".series_ref(",
    ".series_named(",
    ".series_value_stats(",
    ".sample(",
];

/// Tracer methods carrying a span name at varying argument positions —
/// the name is the only string argument, so "first literal inside the
/// call" finds it.
const SPAN_CALLS: [&str; 2] = [".push_span(", ".begin("];

/// One name literal flowing into an observability API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Emission {
    /// 0-based line of the call.
    pub(crate) line: usize,
    /// The literal name.
    pub(crate) name: String,
    /// Span name (vs metric name).
    pub(crate) is_span: bool,
}

/// Finds the first string literal inside the call whose `(` sits at
/// byte `open` of line `start`. With `first_arg_only`, any non-literal
/// first argument abandons the call as dynamic. Scans at most 10 lines.
fn literal_in_call(
    lines: &[Line],
    start: usize,
    open: usize,
    first_arg_only: bool,
) -> Option<String> {
    let mut depth = 0i32;
    for (li, line) in lines.iter().enumerate().skip(start).take(10) {
        let code = line.code.as_bytes();
        let mut idx = if li == start { open } else { 0 };
        while idx < code.len() {
            match code[idx] {
                b'"' => {
                    if let Some((_, text)) = line.strings.iter().find(|(o, _)| *o == idx) {
                        if depth >= 1 {
                            return Some(text.clone());
                        }
                    }
                }
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth <= 0 {
                        return None;
                    }
                }
                c => {
                    if first_arg_only && depth == 1 && !(c as char).is_whitespace() {
                        return None; // dynamic name — runtime validation owns it
                    }
                }
            }
            idx += 1;
        }
    }
    None
}

/// Extracts every literal name emission from one file's lexed lines.
pub(crate) fn emissions(lines: &[Line]) -> Vec<Emission> {
    let mut out = Vec::new();
    let groups: [(&[&str], bool, bool); 2] =
        [(&METRIC_CALLS, false, true), (&SPAN_CALLS, true, false)];
    for (i, line) in lines.iter().enumerate() {
        for (pats, is_span, first_only) in groups {
            for pat in pats {
                let mut from = 0;
                while let Some(rel) = line.code[from..].find(pat) {
                    let open = from + rel + pat.len() - 1;
                    if let Some(name) = literal_in_call(lines, i, open, first_only) {
                        out.push(Emission {
                            line: i,
                            name,
                            is_span,
                        });
                    }
                    from = from + rel + pat.len();
                }
            }
        }
    }
    out
}

/// Classic two-row Levenshtein distance, for typo suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Nearest registered name within edit distance 2, for the
/// "did you mean" hint.
fn nearest(name: &str, is_span: bool) -> Option<&'static str> {
    let table: &[&str] = if is_span { SPANS } else { METRICS };
    table
        .iter()
        .copied()
        .filter(|c| !c.ends_with(".*"))
        .map(|c| (edit_distance(name, c), c))
        .filter(|&(d, _)| d <= 2)
        .min()
        .map(|(_, c)| c)
}

/// Membership direction: every non-test literal emission in one file
/// must name a registered metric/span.
pub(crate) fn scan_membership(config: &AuditConfig, scan: &FileScan) -> Vec<RawFinding> {
    if config.action(Rule::O1) == Action::Off {
        return Vec::new();
    }
    let mut out = Vec::new();
    for e in emissions(&scan.lines) {
        if scan.in_test.get(e.line).copied().unwrap_or(false) {
            continue;
        }
        let (registered, kind) = if e.is_span {
            (is_registered_span(&e.name), "span")
        } else {
            (is_registered_metric(&e.name), "metric")
        };
        if registered {
            continue;
        }
        let hint = nearest(&e.name, e.is_span)
            .map(|s| format!("; did you mean \"{s}\"?"))
            .unwrap_or_default();
        out.push(RawFinding::new(
            Rule::O1,
            e.line,
            format!(
                "{kind} name \"{}\" is not declared in zeiot-obs::registry{hint}",
                e.name
            ),
        ));
    }
    out
}

/// Round-trip direction: every concrete registered name must occur as
/// a string literal somewhere in the workspace outside the registry
/// file itself (tests count — a name exercised only by a test is still
/// wired up). Returns `(file_index, finding)` pairs anchored at the
/// registry declaration lines.
pub(crate) fn scan_roundtrip(
    config: &AuditConfig,
    rels: &[&str],
    scans: &[FileScan],
) -> Vec<(usize, RawFinding)> {
    if config.action(Rule::O1) == Action::Off {
        return Vec::new();
    }
    let Some(reg) = rels.iter().position(|r| *r == REGISTRY_REL) else {
        return Vec::new(); // no registry in scope (single-file runs)
    };
    let mut evidence: BTreeSet<&str> = BTreeSet::new();
    for (i, scan) in scans.iter().enumerate() {
        if i == reg {
            continue;
        }
        for line in &scan.lines {
            evidence.extend(line.strings.iter().map(|(_, s)| s.as_str()));
        }
    }
    // Anchor each missing name at its declaration line in the registry.
    let decl_line = |name: &str| {
        scans[reg]
            .lines
            .iter()
            .position(|l| l.strings.iter().any(|(_, s)| s == name))
            .unwrap_or(0)
    };
    let mut out = Vec::new();
    for (table, kind) in [(METRICS, "metric"), (SPANS, "span")] {
        for &name in table {
            if name.ends_with(".*") || evidence.contains(name) {
                continue;
            }
            out.push((
                reg,
                RawFinding::new(
                    Rule::O1,
                    decl_line(name),
                    format!(
                        "registered {kind} name \"{name}\" is never emitted anywhere \
                         in the workspace: delete the registry row or wire up the \
                         emission it promises"
                    ),
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Layer;
    use crate::rules::scan_file;

    fn scan(src: &str) -> FileScan {
        scan_file(&AuditConfig::default(), "zeiot-sim", Layer::Lib, src)
    }

    #[test]
    fn emissions_capture_first_arg_metrics_and_any_arg_spans() {
        let src = "\
fn f(rec: &mut Recorder, tracer: &mut Tracer) {
    rec.add(\"mac.grants\", Label::Global, 1);
    rec.observe(
        \"serve.latency\",
        Label::Global,
        0.5,
    );
    tracer.begin(0, 7, \"serve.request\", SpanLayer::Request, t);
    rec.add(&dynamic_name, Label::Global, 1);
}
";
        let got = emissions(&scan(src).lines);
        let names: Vec<(&str, bool)> = got.iter().map(|e| (e.name.as_str(), e.is_span)).collect();
        assert_eq!(
            names,
            vec![
                ("mac.grants", false),
                ("serve.latency", false),
                ("serve.request", true),
            ],
            "{got:#?}"
        );
    }

    #[test]
    fn membership_flags_typos_with_a_suggestion() {
        let src = "fn f(rec: &mut Recorder) { rec.add(\"mac.grant\", Label::Global, 1); }\n";
        let s = scan(src);
        let hits = scan_membership(&AuditConfig::default(), &s);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert!(hits[0].message.contains("\"mac.grant\""));
        assert!(
            hits[0].message.contains("did you mean \"mac.grants\""),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn membership_accepts_registered_and_wildcard_names_and_skips_tests() {
        let src = "\
fn f(rec: &mut Recorder) {
    rec.add(\"mac.grants\", Label::Global, 1);
    rec.add(\"bench.anything_goes\", Label::Global, 1);
}
#[cfg(test)]
mod tests {
    fn g(rec: &mut Recorder) {
        rec.add(\"made.up.for.a.test\", Label::Global, 1);
    }
}
";
        let s = scan(src);
        assert!(scan_membership(&AuditConfig::default(), &s).is_empty());
    }

    #[test]
    fn roundtrip_reports_registered_but_never_emitted_names() {
        // A fake registry file declaring one emitted and one orphaned
        // name; the orphan must be reported at its declaration line.
        let registry = "pub const METRICS: &[&str] = &[\n    \"mac.grants\",\n];\n";
        let user = "fn f(rec: &mut Recorder) { rec.add(\"mac.grants\", Label::Global, 1); }\n";
        let cfg = AuditConfig::default();
        let scans = vec![scan(registry), scan(user)];
        let rels = vec![REGISTRY_REL, "crates/sim/src/lib.rs"];
        let hits = scan_roundtrip(&cfg, &rels, &scans);
        // Every real registry name except mac.grants is unreferenced in
        // this two-file workspace, so the pass flags all of them — and
        // anchors them in the registry file.
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|(file, _)| *file == 0));
        assert!(hits
            .iter()
            .all(|(_, f)| !f.message.contains("\"mac.grants\"")));
        assert!(hits
            .iter()
            .any(|(_, f)| f.message.contains("never emitted")));
        // Wildcard rows are exempt.
        assert!(hits.iter().all(|(_, f)| !f.message.contains(".*\"")));
    }

    #[test]
    fn edit_distance_is_symmetric_and_small_for_typos() {
        assert_eq!(edit_distance("serve.latency", "serve.latency"), 0);
        assert_eq!(edit_distance("serve.latncy", "serve.latency"), 1);
        assert_eq!(edit_distance("a", "abc"), 2);
        assert_eq!(nearest("hop.convv", true), Some("hop.conv"));
        assert_eq!(nearest("completely.unrelated", true), None);
    }
}
