//! The acceptance gate: the workspace itself audits clean under
//! `--deny all`, and every allow annotation carries a justification.
//! CI runs the binary too; this test keeps the guarantee inside
//! `cargo test`.

use std::path::PathBuf;
use zeiot_audit::{audit_workspace, AllowStatus, AuditConfig};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_zero_unannotated_findings() {
    let report = audit_workspace(&repo_root(), &AuditConfig::default()).unwrap();
    let active: Vec<String> = report.active().map(|f| f.to_string()).collect();
    assert!(
        active.is_empty(),
        "active audit findings:\n{}",
        active.join("\n")
    );
}

#[test]
fn every_allow_annotation_carries_a_justification() {
    let report = audit_workspace(&repo_root(), &AuditConfig::default()).unwrap();
    let mut suppressed = 0;
    for f in &report.findings {
        if let AllowStatus::Suppressed { justification } = &f.status {
            suppressed += 1;
            assert!(
                justification.split_whitespace().count() >= 3,
                "{}: justification too thin: {justification:?}",
                f.file
            );
        }
    }
    // The two deliberate wall-clock sites (sim engine probe timing,
    // obs WallSpan) plus the p1 allow sites added with the reachability
    // rule; more may join, none may lose their justification.
    assert!(suppressed >= 20, "expected the known annotated sites");
}

#[test]
fn registry_round_trip_holds_workspace_wide() {
    // o1 both ways: every emitted literal is registered and every
    // registered name is emitted.
    let report = audit_workspace(&repo_root(), &AuditConfig::default()).unwrap();
    let o1: Vec<String> = report
        .active()
        .filter(|f| f.rule == "o1")
        .map(|f| f.to_string())
        .collect();
    assert!(o1.is_empty(), "o1 findings:\n{}", o1.join("\n"));
}
