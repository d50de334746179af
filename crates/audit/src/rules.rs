//! The determinism & hygiene rule set and the per-file analysis pass.
//!
//! Rules are pattern searches over lexed *code* (comments and string
//! interiors never fire — see [`crate::lexer`]), scoped per crate and
//! per layer by the [`AuditConfig`]:
//!
//! | rule | scope | pattern |
//! |------|-------|---------|
//! | `d1` | deterministic crates | `HashMap` / `HashSet` (iteration order is seed-dependent) |
//! | `d2` | every crate, library layer | `Instant::now` / `SystemTime` / `thread_rng` / `thread::current` / `env::var` |
//! | `d3` | deterministic crates | `.sum(` / `.reduce(` / `.fold(` within 5 lines of a `par_iter`-family call; integer turbofish sums (`.sum::<i32>()` …) are exempt — integer addition is associative, so reduction order cannot change the result |
//! | `d4` | deterministic crates, library layer | `SeedRng::new(` / `SeedRng::with_stream(` with a literal seed, or any fresh construction outside the blessed RNG-root crates — derived streams (`for_point`, `split`) keep the seed tree rooted at the master seed |
//! | `h1` | typed-error crates, library layer | `.unwrap()` / `.expect(` outside tests |
//! | `h2` | serve/fault | `pub fn … -> Result` without a `# Errors` doc section |
//!
//! Two further rules operate on the whole workspace rather than single
//! lines — `p1` (panic reachability over the [`crate::graph`] call
//! graph) and `o1` (the [observability-name registry] round-trip, see
//! [`crate::obsnames`]) — and feed their hits through the same
//! annotation pipeline via [`finalize`].
//!
//! [observability-name registry]: ../../obs/src/registry.rs
//!
//! A site that is deliberate carries a trailing or preceding
//! `// zeiot-audit: allow(<rule>) -- <justification>` comment; the
//! justification is mandatory, and annotations that suppress nothing
//! (`unused-allow`) or are malformed (`malformed-allow`) are findings
//! themselves, so suppressions cannot outlive the code they excuse.

use crate::config::{Action, AuditConfig, Layer, Rule};
use crate::finding::{AllowStatus, Finding};
use crate::lexer::{find_word, split_lines, test_mask, Line};

/// One parsed `// zeiot-audit: allow(…)` comment.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 0-based line index of the comment.
    pub line: usize,
    /// The rule named inside `allow(…)`, if it parsed.
    pub rule: Option<Rule>,
    /// Raw text inside `allow(…)`.
    pub rule_text: String,
    /// Justification after `--`, if present and non-empty.
    pub justification: Option<String>,
    /// 0-based line index the annotation covers (the annotated line
    /// itself for trailing comments, the next code line otherwise).
    pub target: Option<usize>,
}

const MARKER: &str = "zeiot-audit:";

/// Extracts allow annotations from lexed lines.
pub fn parse_annotations(lines: &[Line]) -> Vec<Annotation> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // Only a comment that *is* an annotation counts — prose that
        // merely quotes the grammar (like this crate's docs) does not.
        let text = line.comment.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = text.strip_prefix(MARKER).map(str::trim_start) else {
            continue;
        };
        let (rule_text, tail) = match rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) {
            Some((inner, tail)) => (inner.trim().to_string(), tail),
            None => (String::new(), rest),
        };
        let justification = tail
            .trim_start()
            .strip_prefix("--")
            .map(str::trim)
            .filter(|j| !j.is_empty())
            .map(str::to_string);
        let target = if line.code.trim().is_empty() {
            lines[i + 1..]
                .iter()
                .position(|l| !l.code.trim().is_empty())
                .map(|off| i + 1 + off)
        } else {
            Some(i)
        };
        out.push(Annotation {
            line: i,
            rule: Rule::parse(&rule_text),
            rule_text,
            justification,
            target,
        });
    }
    out
}

/// A rule hit before annotation matching.
#[derive(Debug, Clone)]
pub(crate) struct RawFinding {
    pub(crate) rule: Rule,
    pub(crate) line: usize, // 0-based
    pub(crate) message: String,
    /// Call chain for graph rules (p1); empty otherwise.
    pub(crate) chain: Vec<String>,
}

impl RawFinding {
    pub(crate) fn new(rule: Rule, line: usize, message: String) -> Self {
        Self {
            rule,
            line,
            message,
            chain: Vec::new(),
        }
    }
}

fn d2_patterns() -> [&'static str; 6] {
    [
        "Instant::now",
        "SystemTime",
        "thread_rng",
        "thread::current",
        "env::var",
        "env::var_os",
    ]
}

/// Patterns whose presence marks a parallel-iterator expression.
const PAR_PATTERNS: [&str; 3] = ["par_iter", "par_chunks", "par_bridge"];
/// Accumulators that are order-sensitive over floats.
const ACC_PATTERNS: [&str; 4] = [".sum(", ".sum::<", ".reduce(", ".fold("];
/// How many lines after a parallel call an accumulator is attributed
/// to it (a statement split across a fluent chain).
const D3_WINDOW: usize = 5;

/// Integer sums whose reduction order is provably irrelevant (integer
/// addition is associative and commutative, and the workspace's
/// quantized kernels rely on exactly that for thread-invariance).
/// These only match when the element type is pinned by turbofish —
/// an unannotated `.sum()` over integers still fires, because the
/// audit cannot see the type.
const D3_EXEMPT_SUMS: [&str; 10] = [
    ".sum::<i8>()",
    ".sum::<i16>()",
    ".sum::<i32>()",
    ".sum::<i64>()",
    ".sum::<u8>()",
    ".sum::<u16>()",
    ".sum::<u32>()",
    ".sum::<u64>()",
    ".sum::<usize>()",
    ".sum::<isize>()",
];

/// Removes the exempt integer-sum calls from a line before the d3
/// accumulator patterns are matched, so a line whose only accumulator
/// is an order-insensitive integer sum does not fire.
fn strip_exempt_integer_sums(code: &str) -> String {
    let mut out = code.to_string();
    for pat in D3_EXEMPT_SUMS {
        out = out.replace(pat, "");
    }
    out
}

/// The `SeedRng` constructors that start a fresh stream from a raw seed
/// (as opposed to deriving one from an existing stream).
const D4_CONSTRUCTORS: [&str; 2] = ["SeedRng::new(", "SeedRng::with_stream("];

/// Whether the first argument after `open` (a byte offset just past the
/// `(`) is an integer literal on the same line.
fn first_arg_is_int_literal(code: &str, open: usize) -> bool {
    code[open..]
        .trim_start()
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit())
}

fn scan_rules(
    config: &AuditConfig,
    crate_name: &str,
    layer: Layer,
    lines: &[Line],
    in_test: &[bool],
) -> Vec<RawFinding> {
    let mut raw = Vec::new();
    let enabled = |rule: Rule| config.action(rule) != Action::Off;

    let d1 = enabled(Rule::D1) && config.is_deterministic(crate_name);
    let d2 = enabled(Rule::D2) && layer == Layer::Lib;
    let d3 = enabled(Rule::D3) && config.is_deterministic(crate_name);
    let d4 = enabled(Rule::D4) && config.is_deterministic(crate_name) && layer == Layer::Lib;
    let h1 = enabled(Rule::H1) && config.is_typed_error(crate_name) && layer == Layer::Lib;

    let mut par_reach = 0usize; // lines remaining in the current D3 window
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            par_reach = par_reach.saturating_sub(1);
            continue;
        }
        let code = line.code.as_str();
        if d1 {
            for word in ["HashMap", "HashSet"] {
                if find_word(code, word).is_some() {
                    raw.push(RawFinding::new(
                        Rule::D1,
                        i,
                        format!(
                            "{word} in deterministic crate {crate_name}: iteration order \
                             is seed-dependent; use BTreeMap/BTreeSet or sorted iteration"
                        ),
                    ));
                }
            }
        }
        if d2 {
            for pat in d2_patterns() {
                if find_word(code, pat).is_some() {
                    raw.push(RawFinding::new(
                        Rule::D2,
                        i,
                        format!(
                            "`{pat}` outside the CLI layer: wall-clock, thread identity, \
                             OS randomness, and env branching break replay determinism"
                        ),
                    ));
                    break; // one D2 finding per line is enough
                }
            }
        }
        if d3 {
            if PAR_PATTERNS.iter().any(|p| code.contains(p)) {
                par_reach = D3_WINDOW;
            }
            let acc_code = strip_exempt_integer_sums(code);
            if par_reach > 0 && ACC_PATTERNS.iter().any(|p| acc_code.contains(p)) {
                raw.push(RawFinding::new(
                    Rule::D3,
                    i,
                    "accumulation over a parallel iterator: float reduction \
                     order must be fixed by a total-order merge"
                        .into(),
                ));
                par_reach = 0; // attribute one accumulator per parallel call
            } else {
                par_reach = par_reach.saturating_sub(1);
            }
        }
        if d4 {
            for ctor in D4_CONSTRUCTORS {
                let Some(at) = code.find(ctor) else { continue };
                let open = at + ctor.len();
                let name = &ctor[..ctor.len() - 1];
                if first_arg_is_int_literal(code, open) {
                    raw.push(RawFinding::new(
                        Rule::D4,
                        i,
                        format!(
                            "`{name}` with a literal seed in library code: hard-coded \
                             seeds shadow the experiment's master seed; derive the \
                             stream via SeedRng::for_point or split()"
                        ),
                    ));
                } else if !config.is_rng_root(crate_name) {
                    raw.push(RawFinding::new(
                        Rule::D4,
                        i,
                        format!(
                            "`{name}` outside an RNG-root crate: fresh streams fork the \
                             seed tree; derive from the caller's SeedRng via for_point \
                             or split() so replay stays a function of one master seed"
                        ),
                    ));
                }
            }
        }
        if h1 {
            for pat in [".unwrap()", ".expect("] {
                if code.contains(pat) {
                    raw.push(RawFinding::new(
                        Rule::H1,
                        i,
                        format!(
                            "`{pat}…` in library code of {crate_name}: route the failure \
                             through the crate's typed errors"
                        ),
                    ));
                }
            }
        }
    }

    if enabled(Rule::H2) && config.wants_errors_doc(crate_name) && layer == Layer::Lib {
        raw.extend(scan_errors_docs(lines, in_test));
    }
    raw
}

/// H2: every non-test `pub fn … -> Result` needs `# Errors` in its docs.
fn scan_errors_docs(lines: &[Line], in_test: &[bool]) -> Vec<RawFinding> {
    let mut raw = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let head = line.code.trim_start();
        let is_pub_fn = [
            "pub fn ",
            "pub const fn ",
            "pub async fn ",
            "pub unsafe fn ",
        ]
        .iter()
        .any(|p| head.starts_with(p));
        if !is_pub_fn {
            continue;
        }
        // Assemble the signature up to its body (or `;` for trait items).
        let mut sig = String::new();
        for l in lines.iter().skip(i).take(25) {
            let code = l.code.as_str();
            let end = code.find(['{', ';']).unwrap_or(code.len());
            sig.push_str(&code[..end]);
            sig.push(' ');
            if end < code.len() {
                break;
            }
        }
        let returns_result = sig
            .split_once("->")
            .is_some_and(|(_, ret)| find_word(ret, "Result").is_some());
        if !returns_result {
            continue;
        }
        // Walk the fn's own doc block upward through attributes. A
        // fully blank line or an inner doc (`//!`) ends the block —
        // module docs never document a specific fn.
        let mut has_errors_doc = false;
        for l in lines[..i].iter().rev() {
            let code = l.code.trim();
            let comment = l.comment.trim();
            if comment.starts_with("//!") || (code.is_empty() && comment.is_empty()) {
                break;
            }
            if !code.is_empty() && !code.starts_with("#[") {
                break;
            }
            if comment.contains("# Errors") {
                has_errors_doc = true;
                break;
            }
        }
        if !has_errors_doc {
            raw.push(RawFinding::new(
                Rule::H2,
                i,
                "`pub fn` returning Result without a `# Errors` doc section".into(),
            ));
        }
    }
    raw
}

/// Everything the per-line pass extracts from one file, kept around so
/// the workspace-level rules (`p1`, `o1`) can append their raw hits
/// before [`finalize`] runs the shared annotation pipeline.
pub(crate) struct FileScan {
    /// Trimmed source lines, for finding snippets.
    pub(crate) snippets: Vec<String>,
    /// Lexed lines (comments/strings separated from code).
    pub(crate) lines: Vec<Line>,
    /// Per-line `#[cfg(test)]` mask.
    pub(crate) in_test: Vec<bool>,
    /// Parsed `// zeiot-audit: allow(…)` comments.
    pub(crate) annotations: Vec<Annotation>,
    /// Per-line rule hits collected so far.
    pub(crate) raw: Vec<RawFinding>,
}

/// Lexes one file and runs every per-line rule over it.
pub(crate) fn scan_file(
    config: &AuditConfig,
    crate_name: &str,
    layer: Layer,
    src: &str,
) -> FileScan {
    let snippets = src.lines().map(|l| l.trim().to_string()).collect();
    let lines = split_lines(src);
    let in_test = test_mask(&lines);
    let annotations = parse_annotations(&lines);
    let raw = scan_rules(config, crate_name, layer, &lines, &in_test);
    FileScan {
        snippets,
        lines,
        in_test,
        annotations,
        raw,
    }
}

/// Matches raw hits against allow annotations, reports stale or
/// malformed annotations, and renders everything as [`Finding`]s in
/// line order.
pub(crate) fn finalize(config: &AuditConfig, rel_path: &str, scan: FileScan) -> Vec<Finding> {
    let FileScan {
        snippets,
        annotations,
        raw,
        ..
    } = scan;
    let snippet = |line: usize| snippets.get(line).cloned().unwrap_or_default();
    let mut used = vec![false; annotations.len()];
    let mut findings = Vec::new();

    for f in raw {
        let covering = annotations.iter().enumerate().find(|(_, a)| {
            a.rule == Some(f.rule) && a.justification.is_some() && a.target == Some(f.line)
        });
        let status = match covering {
            Some((idx, a)) => {
                used[idx] = true;
                AllowStatus::Suppressed {
                    justification: a.justification.clone().expect("checked above"),
                }
            }
            None => AllowStatus::Active,
        };
        findings.push(Finding {
            file: rel_path.to_string(),
            line: f.line + 1,
            rule: f.rule.id().to_string(),
            snippet: snippet(f.line),
            message: f.message,
            status,
            chain: f.chain,
        });
    }

    for (idx, a) in annotations.iter().enumerate() {
        let malformed = a.rule.is_none() || a.justification.is_none();
        if malformed && config.action(Rule::MalformedAllow) != Action::Off {
            let what = if a.rule.is_none() {
                format!("unknown rule `{}`", a.rule_text)
            } else {
                "missing `-- <justification>`".to_string()
            };
            findings.push(Finding {
                file: rel_path.to_string(),
                line: a.line + 1,
                rule: Rule::MalformedAllow.id().to_string(),
                snippet: snippet(a.line),
                message: format!("malformed allow annotation: {what}"),
                status: AllowStatus::Active,
                chain: Vec::new(),
            });
        } else if !malformed && !used[idx] && config.action(Rule::UnusedAllow) != Action::Off {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: a.line + 1,
                rule: Rule::UnusedAllow.id().to_string(),
                snippet: snippet(a.line),
                message: format!(
                    "stale allow annotation: no `{}` finding here to suppress",
                    a.rule.expect("well-formed").id()
                ),
                status: AllowStatus::Active,
                chain: Vec::new(),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.rule.clone()));
    findings
}

/// Runs the full single-file rule set over one source file.
///
/// `rel_path` is the workspace-relative path reported in findings;
/// `crate_name` and `layer` select which rules apply. The graph rules
/// run against a one-file call graph here (chains cannot cross files);
/// [`crate::audit_workspace`] runs them over the whole workspace
/// instead. Returns every finding — suppressed and
/// malformed-annotation ones included — in line order.
pub fn analyze_source(
    config: &AuditConfig,
    crate_name: &str,
    rel_path: &str,
    layer: Layer,
    src: &str,
) -> Vec<Finding> {
    let mut scan = scan_file(config, crate_name, layer, src);
    let items = crate::items::parse_items(&scan.lines, &scan.in_test);
    let facts = crate::graph::file_facts(crate_name, rel_path, &scan.lines, items);
    let facts = std::slice::from_ref(&facts);
    let graph = crate::graph::SymbolGraph::build(facts);
    for (file, f) in crate::panic::scan(config, facts, &[layer], &graph) {
        debug_assert_eq!(file, 0);
        scan.raw.push(f);
    }
    let membership = crate::obsnames::scan_membership(config, &scan);
    scan.raw.extend(membership);
    finalize(config, rel_path, scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(crate_name: &str, src: &str) -> Vec<Finding> {
        analyze_source(
            &AuditConfig::default(),
            crate_name,
            "src/lib.rs",
            Layer::Lib,
            src,
        )
    }

    #[test]
    fn d1_ignores_non_deterministic_crates_and_tests() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let hits = audit("zeiot-sim", src);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].rule.as_str(), hits[0].line), ("d1", 1));
        assert!(audit("zeiot-rf", src).is_empty());
    }

    #[test]
    fn d3_exempts_integer_turbofish_sums_but_not_untyped_ones() {
        let float_sum = "fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * x).sum() }\n";
        let hits = audit("zeiot-sim", float_sum);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "d3");

        // Integer addition is associative: a turbofish-pinned integer
        // sum over a parallel iterator is deterministic by construction.
        let int_sum = "fn f(xs: &[i32]) -> i32 { xs.par_iter().map(|x| x * 2).sum::<i32>() }\n";
        assert!(audit("zeiot-sim", int_sum).is_empty());

        // Without the turbofish the element type is invisible to the
        // lexical pass, so the conservative answer is to fire.
        let untyped = "fn f(xs: &[i32]) -> i32 { xs.par_iter().map(|x| x * 2).sum() }\n";
        assert_eq!(audit("zeiot-sim", untyped).len(), 1);
    }

    #[test]
    fn d4_flags_literal_seeds_and_fresh_streams_outside_rng_roots() {
        // A literal seed in library code fires even in an RNG-root crate.
        let literal = "fn f() { let rng = SeedRng::new(42); }\n";
        let hits = audit("zeiot-sim", literal);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert_eq!(hits[0].rule, "d4");
        assert!(hits[0].message.contains("literal seed"));

        // A fresh stream from a runtime seed fires outside RNG roots…
        let fresh = "fn f(seed: u64) { let rng = SeedRng::with_stream(seed, 1); }\n";
        let hits = audit("zeiot-sim", fresh);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert!(hits[0].message.contains("RNG-root"));

        // …but not inside one (zeiot-bench owns the master seed), and
        // derived streams never fire anywhere.
        assert!(audit("zeiot-bench", fresh).is_empty());
        let derived = "fn f(rng: &SeedRng) { let s = SeedRng::for_point(rng.seed(), 3); }\n";
        assert!(audit("zeiot-sim", derived).is_empty());

        // Test code is exempt like every other rule.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn f() { let r = SeedRng::new(7); }\n}\n";
        assert!(audit("zeiot-sim", test_only).is_empty());
    }

    #[test]
    fn d2_skips_the_bin_layer() {
        let src = "fn main() { let t = std::time::Instant::now(); let _ = t; }\n";
        let lib = audit("zeiot-rf", src);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].rule, "d2");
        let bin = analyze_source(
            &AuditConfig::default(),
            "zeiot-rf",
            "src/bin/tool.rs",
            Layer::Bin,
            src,
        );
        assert!(bin.is_empty());
    }

    #[test]
    fn annotations_target_trailing_or_next_code_line() {
        let src = "\
// zeiot-audit: allow(d1) -- key order never escapes: drained via sorted keys
use std::collections::HashMap;
use std::collections::HashSet; // zeiot-audit: allow(d1) -- bounded; never iterated
";
        let hits = audit("zeiot-plan", src);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| !f.status.is_active()), "{hits:#?}");
    }

    #[test]
    fn disabling_a_rule_silences_it() {
        let mut config = AuditConfig::default();
        config.set_action(Rule::D1, Action::Off);
        let hits = analyze_source(
            &config,
            "zeiot-sim",
            "src/lib.rs",
            Layer::Lib,
            "use std::collections::HashMap;\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn h2_accepts_documented_errors() {
        let src = "\
/// Frobs.
///
/// # Errors
///
/// Fails when the input is empty.
pub fn frob(x: &[u8]) -> Result<(), String> { if x.is_empty() { Err(\"e\".into()) } else { Ok(()) } }
";
        assert!(audit("zeiot-serve", src).is_empty());
    }
}
