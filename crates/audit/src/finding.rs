//! Findings: what a rule reports, with its allow status.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a finding stands after annotation matching.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllowStatus {
    /// The finding stands: no annotation covers it.
    Active,
    /// Suppressed by a `// zeiot-audit: allow(<rule>) -- <why>` comment.
    Suppressed {
        /// The annotation's mandatory justification text.
        justification: String,
    },
}

impl AllowStatus {
    /// Whether the finding still counts against the run.
    pub fn is_active(&self) -> bool {
        matches!(self, AllowStatus::Active)
    }

    /// Short tag used in metric labels and human output.
    pub fn tag(&self) -> &'static str {
        match self {
            AllowStatus::Active => "active",
            AllowStatus::Suppressed { .. } => "suppressed",
        }
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`d1`…`h2`, `unused-allow`, `malformed-allow`).
    pub rule: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What the rule objects to.
    pub message: String,
    /// Allow status.
    pub status: AllowStatus,
    /// For graph rules (p1): the call chain from a public API to the
    /// offending site, outermost first, as `crate::fn (file:line)`
    /// steps. Empty for per-line rules.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{} {} ({})\n    {}",
            self.rule,
            self.file,
            self.line,
            self.message,
            self.status.tag(),
            self.snippet
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain.join("\n     -> "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_serialize_with_structured_fields() {
        let f = Finding {
            file: "crates/sim/src/engine.rs".into(),
            line: 12,
            rule: "d1".into(),
            snippet: "use std::collections::HashMap;".into(),
            message: "hash collection in a deterministic crate".into(),
            status: AllowStatus::Active,
            chain: Vec::new(),
        };
        let json = serde_json::to_string(&f).unwrap();
        for field in [
            "\"file\"",
            "\"line\"",
            "\"rule\"",
            "\"snippet\"",
            "\"status\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let back: Finding = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn chains_render_and_round_trip_without_bloating_flat_findings() {
        let mut f = Finding {
            file: "crates/serve/src/shard.rs".into(),
            line: 40,
            rule: "p1".into(),
            snippet: "let v = xs[i];".into(),
            message: "indexing reachable from public API".into(),
            status: AllowStatus::Active,
            chain: Vec::new(),
        };
        // A chain-less finding renders flat — no `via` trailer.
        assert!(!f.to_string().contains("via"));
        f.chain = vec![
            "zeiot-serve::Server::run (crates/serve/src/server.rs:163)".into(),
            "zeiot-serve::Shard::poll (crates/serve/src/shard.rs:30)".into(),
        ];
        let text = f.to_string();
        assert!(text.contains("via zeiot-serve::Server::run"));
        assert!(text.contains("-> zeiot-serve::Shard::poll"));
        let json = serde_json::to_string(&f).unwrap();
        let back: Finding = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn status_tags_and_activity() {
        assert!(AllowStatus::Active.is_active());
        let s = AllowStatus::Suppressed {
            justification: "bounded".into(),
        };
        assert!(!s.is_active());
        assert_eq!(s.tag(), "suppressed");
    }
}
