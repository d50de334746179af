//! Windowed metric snapshots: slicing a [`ServeOutcome`] into
//! per-window [`Snapshot`]s for burn-rate SLO evaluation
//! ([`zeiot_obs::slo`]).
//!
//! Each window covers exactly `[i·w, (i+1)·w)` of virtual time and
//! holds only that window's traffic (not cumulative totals), which is
//! the contract [`zeiot_obs::slo::SloSpec::evaluate`] expects. Events
//! are bucketed on the clock at which they become observable:
//!
//! * **offered / shed** counters land in the window of the request's
//!   *arrival* — admission decisions happen at the front door;
//! * **served / deadline-miss / latency** land in the window of the
//!   request's *completion* — a latency sample does not exist until the
//!   batch finishes;
//! * **failed** requests carry no completion time in their
//!   [`Completion`](crate::Completion), so they are bucketed by arrival.
//!
//! Completions after the horizon (the end-of-stream drain) fold into
//! the final window.

use crate::request::Outcome;
use crate::server::ServeOutcome;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_obs::{Label, Recorder, Snapshot};

/// Slices `outcome` into consecutive `window`-wide snapshots, each
/// paired with its window-end virtual time. Counters and the
/// `serve.latency` histogram are labeled per tenant
/// (`Label::part(name)`), matching the cumulative metrics
/// [`crate::Server::run`] records; each latency sample is additionally
/// observed under [`Label::Global`], the fleet-wide histogram
/// `Global`-scoped p99 SLOs read.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn windowed_snapshots(outcome: &ServeOutcome, window: SimDuration) -> Vec<(SimTime, Snapshot)> {
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert!(!window.is_zero(), "SLO window must be non-zero");
    let w = window.as_nanos();
    let n = outcome.report.horizon.as_nanos().div_ceil(w).max(1);
    let mut recorders: Vec<Recorder> = (0..n).map(|_| Recorder::new()).collect();
    let bucket = |t: SimTime| -> usize { (t.as_nanos() / w).min(n - 1) as usize };
    for c in &outcome.completions {
        let name = outcome
            .report
            .tenants
            .get(c.tenant)
            .map_or("?", |(name, _)| name.as_str());
        let label = Label::part(name.to_string());
        let arrived = bucket(c.arrival);
        // zeiot-audit: allow(p1) -- bucket() clamps to n-1, so every window index is in range
        recorders[arrived].add("serve.offered", label.clone(), 1);
        match &c.outcome {
            Outcome::Served {
                completion,
                missed_deadline,
                ..
            } => {
                recorders[arrived].add("serve.admitted", label.clone(), 1);
                let done = bucket(*completion);
                recorders[done].add("serve.served", label.clone(), 1);
                if *missed_deadline {
                    recorders[done].add("serve.deadline_miss", label.clone(), 1);
                }
                let latency = completion.duration_since(c.arrival).as_secs_f64();
                recorders[done].observe("serve.latency", label, latency);
                recorders[done].observe("serve.latency", Label::Global, latency);
            }
            Outcome::Shed { reason } => {
                let counter = match reason.label() {
                    "shard_queue_full" => "serve.shed.shard_queue_full",
                    _ => "serve.shed.tenant_limit",
                };
                recorders[arrived].add(counter, label, 1);
            }
            Outcome::Failed => {
                recorders[arrived].add("serve.admitted", label.clone(), 1);
                recorders[arrived].add("serve.failed", label, 1);
            }
        }
    }
    recorders
        .into_iter()
        .enumerate()
        .map(|(i, rec)| (SimTime::from_nanos((i as u64 + 1) * w), rec.snapshot()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Completion, RejectReason, ServiceMode};
    use crate::stats::{ServeReport, TenantStats};

    fn served(tenant: usize, seq: u64, arrival_ms: u64, completion_ms: u64) -> Completion {
        Completion {
            tenant,
            seq,
            arrival: SimTime::from_millis(arrival_ms),
            outcome: Outcome::Served {
                completion: SimTime::from_millis(completion_ms),
                mode: ServiceMode::Full,
                logits: vec![1.0, 0.0],
                prediction: 0,
                missed_deadline: completion_ms - arrival_ms > 100,
            },
        }
    }

    fn outcome(completions: Vec<Completion>) -> ServeOutcome {
        ServeOutcome {
            report: ServeReport {
                horizon: SimDuration::from_secs(3),
                tenants: vec![
                    ("alpha".to_string(), TenantStats::default()),
                    ("beta".to_string(), TenantStats::default()),
                ],
                fault: None,
                replace: None,
            },
            completions,
        }
    }

    #[test]
    fn events_land_in_arrival_and_completion_windows() {
        // Arrives in window 0, completes in window 1; a shed in window 2.
        let out = outcome(vec![
            served(0, 0, 900, 1_200),
            Completion {
                tenant: 1,
                seq: 0,
                arrival: SimTime::from_millis(2_100),
                outcome: Outcome::Shed {
                    reason: RejectReason::ShardQueueFull,
                },
            },
        ]);
        let windows = windowed_snapshots(&out, SimDuration::from_secs(1));
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].0, SimTime::from_secs(1));
        let alpha = Label::part("alpha");
        let beta = Label::part("beta");
        assert_eq!(windows[0].1.counter_value("serve.offered", &alpha), 1);
        assert_eq!(windows[0].1.counter_value("serve.served", &alpha), 0);
        assert_eq!(windows[1].1.counter_value("serve.served", &alpha), 1);
        assert_eq!(windows[2].1.counter_value("serve.offered", &beta), 1);
        assert_eq!(
            windows[2]
                .1
                .counter_value("serve.shed.shard_queue_full", &beta),
            1
        );
        // The latency sample rides the completion window, both
        // per-tenant and fleet-wide.
        assert!(windows[1]
            .1
            .histograms
            .iter()
            .any(|h| h.name == "serve.latency" && h.label == alpha));
        assert!(windows[1]
            .1
            .histograms
            .iter()
            .any(|h| h.name == "serve.latency" && h.label == Label::Global));
    }

    #[test]
    fn drain_spillover_folds_into_the_final_window() {
        let out = outcome(vec![served(0, 0, 2_900, 5_000)]);
        let windows = windowed_snapshots(&out, SimDuration::from_secs(1));
        assert_eq!(windows.len(), 3);
        let alpha = Label::part("alpha");
        assert_eq!(windows[2].1.counter_value("serve.served", &alpha), 1);
    }

    #[test]
    fn window_totals_match_cumulative_counts() {
        let out = outcome(vec![
            served(0, 0, 100, 250),
            served(0, 1, 1_100, 1_300),
            served(1, 0, 500, 800),
            Completion {
                tenant: 1,
                seq: 1,
                arrival: SimTime::from_millis(600),
                outcome: Outcome::Failed,
            },
        ]);
        let windows = windowed_snapshots(&out, SimDuration::from_secs(1));
        let offered: u64 = windows
            .iter()
            .map(|(_, s)| s.counter_total("serve.offered"))
            .sum();
        let served_total: u64 = windows
            .iter()
            .map(|(_, s)| s.counter_total("serve.served"))
            .sum();
        let failed: u64 = windows
            .iter()
            .map(|(_, s)| s.counter_total("serve.failed"))
            .sum();
        assert_eq!(offered, 4);
        assert_eq!(served_total, 3);
        assert_eq!(failed, 1);
    }
}
