//! # zeiot-audit — workspace determinism & hygiene linter
//!
//! Every quantitative result in this reproduction rests on byte-exact
//! determinism across thread counts: MicroDeep's balanced
//! correspondence, the E1–E10 golden fixtures, the serve/fault
//! equivalence suites. Nothing *statically* stopped a contributor from
//! reintroducing `HashMap` iteration, wall-clock reads, or unordered
//! float reductions — this crate is that missing tool. It is a
//! self-contained, lexer-based analyzer (no `syn`, no new
//! dependencies) that walks every workspace crate and enforces the
//! determinism contract documented in DESIGN.md §7b:
//!
//! * **d1** — no `HashMap`/`HashSet` in deterministic crates;
//! * **d2** — no wall clocks, thread identity, OS randomness, or env
//!   branching outside the CLI layer;
//! * **d3** — no float accumulation over parallel-iterator results
//!   without a total-order merge;
//! * **d4** — no fresh or literal-seeded `SeedRng` construction in
//!   library code outside the RNG-root crates: streams derive from the
//!   master seed via `for_point`/`split`;
//! * **h1** — no `unwrap()`/`expect()` in library code of the
//!   typed-error crates (`zeiot-serve`, `zeiot-fault`);
//! * **h2** — every `pub fn … -> Result` in those crates documents its
//!   `# Errors`.
//!
//! Beyond the per-line rules, the workspace pass builds an item-level
//! symbol graph ([`items`], [`graph`]) and runs two dataflow rules
//! over it:
//!
//! * **p1** — panic sites (`unwrap`/`expect`/panicking macros/
//!   indexing) transitively reachable from public APIs of the
//!   typed-error crates, reported with the call chain that proves
//!   reachability;
//! * **o1** — the observability-name registry round-trip: every
//!   metric/span literal flowing into a recorder/tracer API must be
//!   declared in `zeiot-obs::registry`, and every declared name must
//!   be emitted somewhere.
//!
//! Deliberate exceptions carry an inline annotation with a mandatory
//! justification —
//! `// zeiot-audit: allow(<rule>) -- <why this site is sound>` — and
//! the annotations themselves are audited: stale ones fire
//! `unused-allow`, malformed ones fire `malformed-allow`. There is no
//! grandfathering file: every finding is either fixed or annotated in
//! place.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p zeiot-audit -- --deny all
//! cargo run -p zeiot-audit -- --warn d3 --jsonl audit.jsonl
//! cargo run -p zeiot-audit -- --emit-graph graph.json
//! ```
//!
//! Findings export as structured JSONL through [`zeiot_obs`]; see
//! [`report`].

pub mod config;
pub mod finding;
pub mod graph;
pub mod items;
pub mod lexer;
mod obsnames;
mod panic;
pub mod report;
pub mod rules;
pub mod walk;

pub use config::{Action, AuditConfig, Layer, Rule, ALL_RULES};
pub use finding::{AllowStatus, Finding};
pub use graph::SymbolGraph;
pub use report::AuditReport;
pub use rules::analyze_source;
pub use walk::{workspace_sources, SourceSpec};

use std::io;
use std::path::Path;

/// Audits every workspace source under `root` with `config`, and
/// returns the symbol graph alongside the report (for `--emit-graph`).
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading sources.
pub fn audit_workspace_full(
    root: &Path,
    config: &AuditConfig,
) -> io::Result<(AuditReport, SymbolGraph)> {
    let specs = workspace_sources(root)?;
    let files_scanned = specs.len();

    // Pass 1: lex every file, run the per-line rules, and collect the
    // symbol-graph facts.
    let mut scans = Vec::with_capacity(specs.len());
    let mut facts = Vec::with_capacity(specs.len());
    let mut layers = Vec::with_capacity(specs.len());
    for spec in &specs {
        let src = std::fs::read_to_string(&spec.path)?;
        let scan = rules::scan_file(config, &spec.crate_name, spec.layer, &src);
        let items = items::parse_items(&scan.lines, &scan.in_test);
        facts.push(graph::file_facts(
            &spec.crate_name,
            &spec.rel,
            &scan.lines,
            items,
        ));
        layers.push(spec.layer);
        scans.push(scan);
    }

    // Pass 2: the workspace rules see every file at once and append
    // their raw hits to the owning file's scan, so annotation matching
    // and reporting stay uniform across rule families.
    let sym = SymbolGraph::build(&facts);
    for (file, f) in panic::scan(config, &facts, &layers, &sym) {
        scans[file].raw.push(f);
    }
    for scan in &mut scans {
        let membership = obsnames::scan_membership(config, scan);
        scan.raw.extend(membership);
    }
    let rels: Vec<&str> = specs.iter().map(|s| s.rel.as_str()).collect();
    for (file, f) in obsnames::scan_roundtrip(config, &rels, &scans) {
        scans[file].raw.push(f);
    }

    let mut findings = Vec::new();
    for (spec, scan) in specs.iter().zip(scans) {
        findings.extend(rules::finalize(config, &spec.rel, scan));
    }
    Ok((
        AuditReport {
            findings,
            files_scanned,
        },
        sym,
    ))
}

/// Audits every workspace source under `root` with `config`.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading sources.
pub fn audit_workspace(root: &Path, config: &AuditConfig) -> io::Result<AuditReport> {
    audit_workspace_full(root, config).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn workspace_audit_runs_and_scans_every_crate() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (report, graph) = audit_workspace_full(&root, &AuditConfig::default()).unwrap();
        assert!(report.files_scanned > 100, "only {}", report.files_scanned);
        // The symbol graph covers the workspace: thousands of fns, and
        // the serve entry points are present.
        assert!(graph.nodes.len() > 500, "only {} fns", graph.nodes.len());
        assert!(graph
            .nodes
            .iter()
            .any(|n| n.crate_name == "zeiot-serve" && n.is_pub));
    }
}
