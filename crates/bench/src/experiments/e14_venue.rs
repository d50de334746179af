//! E14 — composite venue scenarios: fused vs single-modality context
//! recognition under faults.
//!
//! No table in the paper corresponds to this harness; it evaluates the
//! `zeiot-scenario` integration layer (DESIGN.md §13) — the paper's
//! §III.B claim that direct and indirect sensing modalities should be
//! *integrated* — end to end through the serving runtime. Both venue
//! archetypes are compiled once (shared across the sweep); every sweep
//! point fixes a venue and a uniform fabric fault level, serves all
//! four modality tenants through one fault fabric, then scores every
//! fusion policy *and* every single-modality baseline against the
//! venue's ground-truth schedule from the same completions:
//!
//! - **does fusion help?** Fused accuracy per policy
//!   (reliability-weighted log-linear pooling, majority vote, best
//!   single) next to each modality alone; the headline `fusion margin`
//!   is reliability-weighted fused minus the best single.
//! - **does reliability weighting earn its keep?** Weights combine
//!   each modality's holdout calibration accuracy with live serving
//!   signals — degradation-state dwell fractions and answer rates — so
//!   a modality whose fabric misbehaves is discounted instead of
//!   poisoning the pool; per-answer stale results are discounted
//!   further, and shed/failed instants contribute zero weight (falling
//!   back gracefully to the surviving modalities).
//! - **is it deterministic?** The report and trace JSONL export are
//!   byte-identical across `--threads 1/4` (CI diffs the `e14_venue`
//!   bin's output), and the reduced report is a golden fixture.

use super::mesh;
use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_obs::trace::{Trace, TraceSampler, Tracer};
use zeiot_obs::Label;
use zeiot_scenario::{
    log_posterior, mode_discount, reliability_weight, ClassPosterior, CompiledScenario, Evidence,
    FusionEngine, FusionPolicy, FusionStats, Scenario, Venue, DEFAULT_EVIDENCE_FLOOR,
};
use zeiot_serve::{DegradedServing, DwellState, Outcome, ServiceMode};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Observation instants per venue (one synchronized request per
    /// modality per instant).
    pub observations: usize,
    /// Calibration draws per context level and modality.
    pub training_per_level: usize,
    /// Master seed.
    pub seed: u64,
    /// Deterministic trace sampling rate in `[0, 1]`.
    pub sample_rate: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            observations: 48,
            training_per_level: 30,
            seed: 42,
            sample_rate: 0.25,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            observations: 16,
            training_per_level: 12,
            seed: 42,
            sample_rate: 0.5,
        }
    }
}

/// Instant-`k` answer from one modality: the service mode it arrived
/// in and its raw class scores (absent when the request was shed,
/// failed, or missed the observation window).
type Answer = Option<(ServiceMode, Vec<f64>)>;

/// Uniform per-attempt fabric loss rates swept (0 = clean fabric).
pub const FAULT_LEVELS: [f64; 3] = [0.0, 0.05, 0.15];

/// The nominal operating point the headline acceptance row is read at.
pub const DEFAULT_FAULT: f64 = 0.05;

/// `(venue index, fault level)` of sweep point `index`, row-major over
/// [`Venue::ALL`] × [`FAULT_LEVELS`].
pub fn point(index: usize) -> (usize, f64) {
    (
        index / FAULT_LEVELS.len(),
        FAULT_LEVELS[index % FAULT_LEVELS.len()],
    )
}

/// Stable label of sweep point `index`.
fn point_label(index: usize) -> String {
    let (venue, fault) = point(index);
    format!(
        "{}, fault {}",
        Venue::ALL[venue].label(),
        fault_label(fault)
    )
}

/// Integer-percent fault tag (stable across float formatting).
fn fault_label(fault: f64) -> String {
    format!("{}%", (fault * 100.0).round() as u32)
}

/// What one sweep point produced.
#[derive(Debug, Clone)]
struct PointResult {
    /// Fused accuracy per [`FusionPolicy::ALL`] entry.
    fused: Vec<f64>,
    /// Accuracy of each modality alone (missing answers count wrong).
    singles: Vec<f64>,
    /// The reliability-weighted stream's counters.
    stats: FusionStats,
    /// Mean full-dwell fraction across the four tenants.
    full_dwell: f64,
    traces: Vec<Trace>,
}

/// Runs E14 serially (equivalent to [`run_with`] at any thread count).
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E14 and discards the trace export.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    run_with_traces(params, runner).0
}

/// Runs E14: both venues are compiled once and shared; each sweep point
/// serves the four modality tenants through one uniform-loss fabric,
/// then scores every fusion policy and single-modality baseline from
/// the same completions. Returns the report plus every sampled trace in
/// `(point, tenant, seq)` order — byte-identical across thread counts.
pub fn run_with_traces(params: &Params, runner: &SweepRunner) -> (ExperimentReport, Vec<Trace>) {
    let compiled: Vec<CompiledScenario> = Venue::ALL
        .iter()
        .map(|&venue| {
            Scenario::new(
                venue,
                params.observations,
                params.training_per_level,
                params.seed,
            )
            .compile()
            .expect("valid scenario spec")
        })
        .collect();
    let mesh_size = mesh::deployment().len();
    let plan_seed = params.seed ^ 0xFA17;
    let rate = params.sample_rate.clamp(0.0, 1.0);
    let points = Venue::ALL.len() * FAULT_LEVELS.len();

    let sweep = runner.run_seeded(params.seed ^ 0xE14A, points, |index, _rng, recorder| {
        let (venue_index, fault) = point(index);
        let scenario = &compiled[venue_index];
        let venue = Venue::ALL[venue_index];
        let observations = scenario.truth.len();
        let modality_count = scenario.modalities().len();

        let tenants = scenario.make_tenants(mesh_size).expect("compiled pools");
        // Every point serves through a fabric — fault 0 uses a lossless
        // plan rather than no fabric, so the clean arm exercises the
        // same gather/span machinery it is compared against.
        let mut server = mesh::server(4, 4, tenants).with_degraded(DegradedServing {
            plan: FaultPlan::uniform(plan_seed, fault).expect("valid rate"),
            policy: RecoveryPolicy::Degrade {
                mode: DegradeMode::LastValueHold,
            },
            pass_period: mesh::PASS_PERIOD,
            stale_cache: true,
            replace: None,
        });
        let mut tracer = Tracer::new(TraceSampler::rate(
            params.seed ^ 0xE14 ^ ((index as u64) << 8),
            rate,
        ));
        let outcome = server.run_traced(
            params.seed,
            scenario.horizon(),
            Some(&mut *recorder),
            Some(&mut tracer),
        );

        // Run-level modality weights: holdout calibration accuracy
        // discounted by each tenant's dwell health and answer rate.
        let weights: Vec<f64> = scenario
            .modalities()
            .iter()
            .zip(&outcome.report.tenants)
            .map(|(m, (_, stats))| reliability_weight(m.calib_accuracy, stats))
            .collect();
        let full_dwell = outcome
            .report
            .tenants
            .iter()
            .map(|(_, s)| s.dwell.fraction(DwellState::Full))
            .sum::<f64>()
            / modality_count as f64;

        // Answer matrix: instant k of modality t (periodic arrivals
        // make seq k the instant-k observation).
        let mut answers: Vec<Vec<Answer>> = vec![vec![None; observations]; modality_count];
        for c in &outcome.completions {
            if let Outcome::Served { mode, logits, .. } = &c.outcome {
                if (c.seq as usize) < observations {
                    answers[c.tenant][c.seq as usize] =
                        Some((*mode, logits.iter().map(|&v| f64::from(v)).collect()));
                }
            }
        }

        let singles: Vec<f64> = answers
            .iter()
            .map(|row| {
                let correct = row
                    .iter()
                    .zip(&scenario.truth)
                    .filter(|(answer, &truth)| match answer {
                        Some((_, scores)) => ClassPosterior::new(scores.clone()).argmax() == truth,
                        None => false,
                    })
                    .count();
                correct as f64 / observations as f64
            })
            .collect();

        let mut fused = Vec::with_capacity(FusionPolicy::ALL.len());
        let mut rw_stats = FusionStats::default();
        for policy in FusionPolicy::ALL {
            let mut engine = FusionEngine::new(policy);
            let correct = (0..observations)
                .filter(|&k| {
                    let evidence: Vec<Evidence> = (0..modality_count)
                        .map(|t| match &answers[t][k] {
                            // Raw modality scores are magnitude-
                            // incomparable (NB log-likelihoods vs CNN
                            // logits); pool bounded log-posteriors.
                            Some((mode, scores)) => Evidence {
                                log_scores: log_posterior(scores, DEFAULT_EVIDENCE_FLOOR),
                                weight: weights[t] * mode_discount(*mode),
                            },
                            None => Evidence {
                                log_scores: Vec::new(),
                                weight: 0.0,
                            },
                        })
                        .collect();
                    engine.estimate(&evidence) == Some(scenario.truth[k])
                })
                .count();
            fused.push(correct as f64 / observations as f64);
            engine.record_to(
                recorder,
                Label::part(format!(
                    "{}/f{}/{}",
                    venue.label(),
                    (fault * 100.0).round() as u32,
                    policy.label()
                )),
            );
            if policy == FusionPolicy::ReliabilityWeighted {
                rw_stats = engine.stats();
            }
        }

        PointResult {
            fused,
            singles,
            stats: rw_stats,
            full_dwell,
            traces: tracer.take_finished(),
        }
    });

    let mut report = ExperimentReport::new(
        "E14",
        "Composite venue scenarios: fused vs single-modality context recognition x venue x fault level",
    );

    for (venue_index, venue) in Venue::ALL.iter().enumerate() {
        for modality in compiled[venue_index].modalities() {
            report.push(Row::measured_only(
                format!(
                    "calib accuracy ({}, {})",
                    modality.kind.label(),
                    venue.label()
                ),
                modality.calib_accuracy,
                "fraction",
            ));
        }
    }

    for (index, result) in sweep.outputs.iter().enumerate() {
        let label = point_label(index);
        let (venue_index, _) = point(index);
        for (policy, accuracy) in FusionPolicy::ALL.iter().zip(&result.fused) {
            report.push(Row::measured_only(
                format!("fused accuracy ({}, {label})", policy.label()),
                *accuracy,
                "fraction",
            ));
        }
        for (modality, accuracy) in compiled[venue_index]
            .modalities()
            .iter()
            .zip(&result.singles)
        {
            report.push(Row::measured_only(
                format!("single accuracy ({}, {label})", modality.kind.label()),
                *accuracy,
                "fraction",
            ));
        }
        let best_single = result.singles.iter().copied().fold(0.0, f64::max);
        report.push(Row::measured_only(
            format!("fusion margin ({label})"),
            result.fused[0] - best_single,
            "fraction",
        ));
        report.push(Row::measured_only(
            format!("fallback instants ({label})"),
            result.stats.fallback as f64,
            "count",
        ));
        report.push(Row::measured_only(
            format!("abstained instants ({label})"),
            result.stats.abstained as f64,
            "count",
        ));
        report.push(Row::measured_only(
            format!("mean full-dwell fraction ({label})"),
            result.full_dwell,
            "fraction",
        ));
    }

    let margins: Vec<f64> = sweep
        .outputs
        .iter()
        .map(|r| r.fused[0] - r.singles.iter().copied().fold(0.0, f64::max))
        .collect();
    report.push_series("fusion margin by point", margins);

    report.attach_metrics(sweep.metrics);
    let traces: Vec<Trace> = sweep.outputs.into_iter().flat_map(|p| p.traces).collect();
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_obs::trace::SpanLayer;

    fn row(report: &ExperimentReport, label: &str) -> f64 {
        report.row(label).expect("row present").measured
    }

    #[test]
    fn point_grid_is_row_major() {
        assert_eq!(point(0), (0, 0.0));
        assert_eq!(point(1), (0, 0.05));
        assert_eq!(point(2), (0, 0.15));
        assert_eq!(point(3), (1, 0.0));
        assert_eq!(point(5), (1, 0.15));
    }

    #[test]
    fn fused_beats_singles_and_degrades_gracefully() {
        let params = Params::reduced();
        let (report, traces) = run_with_traces(&params, &SweepRunner::serial());
        for venue in Venue::ALL {
            // Zero-fault: reliability-weighted fusion at least matches
            // the best single modality.
            let clean = format!("{}, fault 0%", venue.label());
            assert!(
                row(&report, &format!("fusion margin ({clean})")) >= 0.0,
                "fused lost to a single modality on the clean fabric at {clean}"
            );
            assert_eq!(row(&report, &format!("abstained instants ({clean})")), 0.0);
            // Default fault level: fused strictly beats every single.
            let nominal = format!("{}, fault {}", venue.label(), fault_label(DEFAULT_FAULT));
            let fused = row(
                &report,
                &format!("fused accuracy (reliability_weighted, {nominal})"),
            );
            for modality in ["congestion", "counting", "csi", "cnn"] {
                let single = row(&report, &format!("single accuracy ({modality}, {nominal})"));
                assert!(
                    fused > single,
                    "fused ({fused}) did not beat {modality} ({single}) at {nominal}"
                );
            }
        }
        // Faults reduce full dwell below the clean arm's.
        let clean = row(&report, "mean full-dwell fraction (train_rush, fault 0%)");
        let faulty = row(&report, "mean full-dwell fraction (train_rush, fault 15%)");
        assert!(
            faulty < clean,
            "15% loss left dwell untouched: {faulty} vs {clean}"
        );
        // The sensing gathers leave fusion.gather hop spans in the
        // sampled traces.
        assert!(
            traces.iter().any(|t| t
                .spans
                .iter()
                .any(|s| s.layer == SpanLayer::Hop && s.name == "fusion.gather")),
            "no fusion.gather spans sampled"
        );
    }

    #[test]
    fn default_table_fused_beats_every_single_at_the_nominal_fault() {
        // The acceptance criterion is read off the committed
        // EXPERIMENTS.md table, which is produced at default params.
        let (report, _) = run_with_traces(&Params::default(), &SweepRunner::serial());
        for venue in Venue::ALL {
            let nominal = format!("{}, fault {}", venue.label(), fault_label(DEFAULT_FAULT));
            let fused = row(
                &report,
                &format!("fused accuracy (reliability_weighted, {nominal})"),
            );
            for modality in ["congestion", "counting", "csi", "cnn"] {
                let single = row(&report, &format!("single accuracy ({modality}, {nominal})"));
                assert!(
                    fused > single,
                    "fused ({fused}) did not beat {modality} ({single}) at {nominal}"
                );
            }
        }
    }

    #[test]
    fn report_and_traces_are_reproducible() {
        let (report_a, traces_a) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        let (report_b, traces_b) = run_with_traces(&Params::reduced(), &SweepRunner::serial());
        assert_eq!(report_a.to_json(), report_b.to_json());
        assert_eq!(traces_a, traces_b);
    }
}
