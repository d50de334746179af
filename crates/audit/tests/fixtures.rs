//! The audit's own regression corpus: one known-bad fixture per rule
//! proving the rule fires on exactly its target pattern, plus
//! annotated fixtures proving suppression, staleness detection, and
//! malformed-annotation policing. Fixtures live under `fixtures/` as
//! plain text — they are never compiled.

use zeiot_audit::{analyze_source, AuditConfig, Finding, Layer};

fn audit_as(crate_name: &str, rel: &str, src: &str) -> Vec<Finding> {
    analyze_source(&AuditConfig::default(), crate_name, rel, Layer::Lib, src)
}

fn active<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.status.is_active())
        .collect()
}

#[test]
fn d1_fires_on_hash_collections_only_outside_tests() {
    let src = include_str!("../fixtures/d1_hash_collections.rs");
    let findings = audit_as("zeiot-sim", "fixtures/d1_hash_collections.rs", src);
    let d1 = active(&findings, "d1");
    // Two imports + two constructor lines; the string/comment decoys
    // and the #[cfg(test)] HashMap stay silent.
    assert_eq!(d1.len(), 4, "{findings:#?}");
    assert!(d1.iter().all(|f| f.line < 19));
    assert_eq!(findings.len(), d1.len(), "only d1 may fire: {findings:#?}");
}

#[test]
fn d2_fires_on_every_wall_clock_and_env_pattern() {
    let src = include_str!("../fixtures/d2_wall_clock.rs");
    let findings = audit_as("zeiot-rf", "fixtures/d2_wall_clock.rs", src);
    let d2 = active(&findings, "d2");
    // Instant::now, SystemTime, thread_rng, thread::current, env::var —
    // one per offending function.
    assert_eq!(d2.len(), 5, "{findings:#?}");
    assert_eq!(findings.len(), d2.len());
    let snippets: String = d2.iter().map(|f| f.snippet.as_str()).collect();
    for pattern in [
        "Instant::now",
        "SystemTime::now",
        "thread_rng",
        "thread::current",
        "env::var",
    ] {
        assert!(snippets.contains(pattern), "missing {pattern}");
    }
}

#[test]
fn d2_is_waived_in_the_cli_layer() {
    let src = include_str!("../fixtures/d2_wall_clock.rs");
    let findings = analyze_source(
        &AuditConfig::default(),
        "zeiot-rf",
        "src/bin/tool.rs",
        Layer::Bin,
        src,
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn d3_fires_on_parallel_float_accumulation_not_serial() {
    let src = include_str!("../fixtures/d3_parallel_float_sum.rs");
    let findings = audit_as("zeiot-sim", "fixtures/d3_parallel_float_sum.rs", src);
    let d3 = active(&findings, "d3");
    assert_eq!(d3.len(), 2, "{findings:#?}");
    // The same-line `.sum()` and the fluent-chain `.fold(`…
    assert!(d3[0].snippet.contains(".sum()"));
    assert!(d3[1].snippet.contains(".fold("));
    // …but the serial `iter().sum()` at the bottom never fires,
    assert!(d3
        .iter()
        .all(|f| !f.snippet.contains("iter().map(|s| s * s).sum()")
            || f.snippet.contains("par_iter")));
    // …and neither does the parallel integer sum: `.sum::<i32>()` is
    // order-insensitive (the quantized kernels' thread-invariance
    // argument), so d3 exempts it without an allow annotation.
    assert!(d3.iter().all(|f| !f.snippet.contains("sum::<i32>")));
    assert_eq!(findings.len(), d3.len());
}

#[test]
fn h1_fires_on_unwrap_and_expect_in_typed_error_crates() {
    let src = include_str!("../fixtures/h1_unwrap.rs");
    let findings = audit_as("zeiot-serve", "fixtures/h1_unwrap.rs", src);
    let h1 = active(&findings, "h1");
    // One `.unwrap()`, one `.expect(` — the total `unwrap_or` and the
    // test-module unwrap stay silent.
    assert_eq!(h1.len(), 2, "{findings:#?}");
    // The same sites double as p1 hits: each pub fn reaches its own
    // panic with a one-step chain.
    let p1 = active(&findings, "p1");
    assert_eq!(p1.len(), 2, "{findings:#?}");
    assert!(p1.iter().all(|f| f.chain.len() == 1), "{p1:#?}");
    assert_eq!(findings.len(), h1.len() + p1.len());
    // The same file in a crate without typed errors is silent.
    assert!(audit_as("zeiot-nn", "fixtures/h1_unwrap.rs", src).is_empty());
}

#[test]
fn h2_fires_only_on_undocumented_public_result_fns() {
    let src = include_str!("../fixtures/h2_missing_errors_doc.rs");
    let findings = audit_as("zeiot-serve", "fixtures/h2_missing_errors_doc.rs", src);
    let h2 = active(&findings, "h2");
    assert_eq!(h2.len(), 1, "{findings:#?}");
    assert!(h2[0].snippet.contains("parse_rate"));
    assert_eq!(findings.len(), h2.len());
}

#[test]
fn allow_annotations_suppress_with_their_justification() {
    let src = include_str!("../fixtures/allow_suppressed.rs");
    let findings = audit_as("zeiot-plan", "fixtures/allow_suppressed.rs", src);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    for f in &findings {
        assert_eq!(f.rule, "d1");
        assert!(!f.status.is_active(), "{f}");
        match &f.status {
            zeiot_audit::AllowStatus::Suppressed { justification } => {
                assert!(justification.contains("sorted") || justification.contains("order"));
            }
            other => panic!("expected suppression, got {other:?}"),
        }
    }
}

#[test]
fn stale_allow_annotations_are_flagged() {
    let src = include_str!("../fixtures/allow_unused.rs");
    let findings = audit_as("zeiot-plan", "fixtures/allow_unused.rs", src);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "unused-allow");
    assert!(findings[0].status.is_active());
}

#[test]
fn malformed_allow_annotations_are_flagged_and_do_not_suppress() {
    let src = include_str!("../fixtures/allow_malformed.rs");
    let findings = audit_as("zeiot-plan", "fixtures/allow_malformed.rs", src);
    let malformed = active(&findings, "malformed-allow");
    assert_eq!(malformed.len(), 2, "{findings:#?}");
    assert!(malformed[0].message.contains("justification"));
    assert!(malformed[1].message.contains("unknown rule `d9`"));
    // The HashMaps the broken annotations sat next to still count.
    assert_eq!(active(&findings, "d1").len(), 2);
}

#[test]
fn p1_reports_transitive_panics_with_their_call_chain() {
    let src = include_str!("../fixtures/p1_reachability.rs");
    let findings = audit_as("zeiot-serve", "fixtures/p1_reachability.rs", src);
    // `inner` panics and is reachable from the public root `entry`:
    // one active p1 finding carrying the two-step chain.
    let p1 = active(&findings, "p1");
    assert_eq!(p1.len(), 1, "{findings:#?}");
    assert_eq!(p1[0].chain.len(), 2, "{p1:#?}");
    assert!(p1[0].chain[0].contains("entry"), "{:?}", p1[0].chain);
    assert!(p1[0].chain[1].contains("inner"), "{:?}", p1[0].chain);
    assert!(p1[0].message.contains("unwrap"), "{}", p1[0].message);
    // The dead `never_called` indexes out of bounds but no public root
    // reaches it: silent.
    assert!(
        findings.iter().all(|f| !f.snippet.contains("empty[0]")),
        "{findings:#?}"
    );
    // `guarded`'s indexing is justified: suppressed, not active.
    let suppressed: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "p1" && !f.status.is_active())
        .collect();
    assert_eq!(suppressed.len(), 1, "{findings:#?}");
    assert!(suppressed[0].snippet.contains("values[0]"));
    // The unwrap doubles as h1; nothing else fires.
    assert_eq!(active(&findings, "h1").len(), 1);
    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn p1_is_scoped_to_typed_error_crates() {
    let src = include_str!("../fixtures/p1_reachability.rs");
    let findings = audit_as("zeiot-nn", "fixtures/p1_reachability.rs", src);
    // No typed-error contract, no roots — only the now-stale allow
    // annotation surfaces.
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "unused-allow");
}

#[test]
fn d4_distinguishes_literal_seeds_derivation_and_rng_roots() {
    let src = include_str!("../fixtures/d4_rng_discipline.rs");
    let findings = audit_as("zeiot-sim", "fixtures/d4_rng_discipline.rs", src);
    let d4 = active(&findings, "d4");
    // Two literal seeds plus one fresh stream outside an RNG root; the
    // `for_point` derivation and the test-module seed stay silent.
    assert_eq!(d4.len(), 3, "{findings:#?}");
    let literals = d4
        .iter()
        .filter(|f| f.message.contains("literal seed"))
        .count();
    assert_eq!(literals, 2, "{d4:#?}");
    assert_eq!(findings.len(), d4.len() + 1, "{findings:#?}");
    // The justified independent stream is suppressed, not active.
    assert!(findings
        .iter()
        .any(|f| f.rule == "d4" && !f.status.is_active()));
}

#[test]
fn d4_permits_fresh_streams_inside_rng_root_crates() {
    let src = include_str!("../fixtures/d4_rng_discipline.rs");
    let findings = audit_as("zeiot-bench", "fixtures/d4_rng_discipline.rs", src);
    // An RNG root may mint fresh streams, but literal seeds still
    // fire, and the now-unneeded allow annotation is flagged stale.
    let d4 = active(&findings, "d4");
    assert_eq!(d4.len(), 2, "{findings:#?}");
    assert!(d4.iter().all(|f| f.message.contains("literal seed")));
    assert_eq!(active(&findings, "unused-allow").len(), 1, "{findings:#?}");
}

#[test]
fn o1_checks_emitted_names_against_the_registry() {
    let src = include_str!("../fixtures/o1_observability_names.rs");
    let findings = audit_as("zeiot-scenario", "fixtures/o1_observability_names.rs", src);
    let o1 = active(&findings, "o1");
    // Two bad metric names and one bad span name; the registered
    // names, the dynamic family, and the test-module scratch name all
    // pass.
    assert_eq!(o1.len(), 3, "{findings:#?}");
    let typo = o1
        .iter()
        .find(|f| f.message.contains("serve.offerd"))
        .expect("typo finding");
    assert!(
        typo.message.contains("did you mean \"serve.offered\""),
        "{}",
        typo.message
    );
    let span_typo = o1
        .iter()
        .find(|f| f.message.contains("serve.inferr"))
        .expect("span typo finding");
    assert!(
        span_typo.message.contains("did you mean \"serve.infer\""),
        "{}",
        span_typo.message
    );
    assert!(o1.iter().any(|f| f.message.contains("made.up.metric")));
    // The justified off-registry name is suppressed, not active.
    assert!(findings
        .iter()
        .any(|f| f.rule == "o1" && !f.status.is_active()));
    assert_eq!(findings.len(), o1.len() + 1, "{findings:#?}");
}
