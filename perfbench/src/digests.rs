//! Output checks: every operation's digest is compared with the committed
//! digest of its segment (default seed) and with the first repetition of
//! that segment in this run (any seed).

use crate::workload::{Workload, SEGMENTS};

/// The seed `expected_digests.json` pins.
pub const DEFAULT_SEED: u64 = 42;

const DIGEST_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_digests.json");

pub struct Checker {
    expected: Option<Vec<u64>>,
    seen: [Option<u64>; SEGMENTS],
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Under the default seed the committed digests are required, unless
    /// `bless` is set, in which case this run's digests replace them.
    pub fn new(workload: Workload, seed: u64, bless: bool) -> Result<Self, String> {
        let expected = if seed == DEFAULT_SEED && !bless {
            let committed = read_file()?;
            let digests = committed
                .into_iter()
                .find(|(name, _)| name == workload.name())
                .map(|(_, d)| d)
                .filter(|d| d.len() == SEGMENTS)
                .ok_or_else(|| {
                    format!(
                        "{DIGEST_FILE} has no digests for {}; rerun with BLESS_BENCH=1",
                        workload.name()
                    )
                })?;
            Some(digests)
        } else {
            None
        };
        Ok(Self {
            expected,
            seen: [None; SEGMENTS],
            attempted: 0,
            failed: 0,
        })
    }

    /// Checks operation `op`'s output digest.
    pub fn check(&mut self, op: usize, digest: u64) {
        let segment = op % SEGMENTS;
        let mut ok = true;
        if let Some(expected) = &self.expected {
            if expected[segment] != digest {
                eprintln!(
                    "op {op}: segment {segment} digest {digest:016x} != committed {:016x}",
                    expected[segment]
                );
                ok = false;
            }
        }
        match self.seen[segment] {
            Some(first) if first != digest => {
                eprintln!(
                    "op {op}: segment {segment} digest {digest:016x} != its first repetition {first:016x}"
                );
                ok = false;
            }
            Some(_) => {}
            None => self.seen[segment] = Some(digest),
        }
        self.record(ok);
    }

    /// Counts one more checked condition.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
        }
        self.record(ok);
    }

    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The first digest of each segment this run produced.
    pub fn digests(&self) -> [Option<u64>; SEGMENTS] {
        self.seen
    }

    /// Replaces `workload`'s committed digests with this run's.
    pub fn bless(&self, workload: Workload) -> Result<(), String> {
        let digests: Vec<u64> = self
            .seen
            .iter()
            .map(|d| d.ok_or("blessing needs at least 8 operations"))
            .collect::<Result<_, _>>()?;
        let mut entries = read_file().unwrap_or_default();
        entries.retain(|(name, _)| name != workload.name());
        entries.push((workload.name().to_owned(), digests));
        let mut text =
            format!("{{\n  \"schema\": \"zeiot-perfbench-digests/1\",\n  \"seed\": {DEFAULT_SEED}");
        for w in Workload::ALL {
            if let Some((_, d)) = entries.iter().find(|(name, _)| name == w.name()) {
                let hex: Vec<String> = d.iter().map(|v| format!("\"{v:016x}\"")).collect();
                text.push_str(&format!(",\n  \"{}\": [{}]", w.name(), hex.join(", ")));
            }
        }
        text.push_str("\n}\n");
        std::fs::write(DIGEST_FILE, text).map_err(|e| format!("failed to write {DIGEST_FILE}: {e}"))
    }
}

/// Reads `(workload, digests)` rows: one workload per line, as
/// [`Checker::bless`] writes them.
fn read_file() -> Result<Vec<(String, Vec<u64>)>, String> {
    let text = std::fs::read_to_string(DIGEST_FILE)
        .map_err(|e| format!("failed to read {DIGEST_FILE}: {e}"))?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some((key, rest)) = line.trim().split_once(':') else {
            continue;
        };
        let name = key.trim_matches('"');
        if Workload::parse(name).is_none() {
            continue;
        }
        let digests = rest
            .split('"')
            .skip(1)
            .step_by(2)
            .map(|hex| u64::from_str_radix(hex, 16))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("{DIGEST_FILE}: bad digest for {name}: {e}"))?;
        rows.push((name.to_owned(), digests));
    }
    Ok(rows)
}
