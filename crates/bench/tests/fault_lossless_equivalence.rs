//! Cross-check of the fault layer against the golden reports: executing
//! the E1 MicroDeep arm *through the lossy fabric* with a lossless fault
//! plan must reproduce the committed golden accuracy exactly. This pins
//! the fault layer's central contract — `FaultPlan::lossless()` is
//! byte-for-byte invisible — against the same fixture that guards the
//! plain pipeline, so the two paths cannot drift apart silently.

use std::path::PathBuf;
use zeiot_bench::experiments::e1_temperature;
use zeiot_bench::ExperimentReport;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_data::temperature::TemperatureFieldGenerator;
use zeiot_fault::{FaultPlan, RecoveryPolicy};
use zeiot_microdeep::lossy::LossyRuntime;
use zeiot_microdeep::{Assignment, DistributedCnn, WeightUpdate};

fn golden_microdeep_accuracy() -> f64 {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/e1_reduced.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let report: ExperimentReport = serde_json::from_str(&json).expect("parsable fixture");
    report
        .row("accuracy (MicroDeep)")
        .expect("fixture has the MicroDeep row")
        .measured
}

#[test]
fn e1_microdeep_arm_through_lossless_fabric_matches_golden_accuracy() {
    let params = e1_temperature::Params::reduced();

    // Replicate the E1 data pipeline and MicroDeep arm exactly — same
    // seeds, same stream derivation — but run every training and
    // evaluation pass through a LossyRuntime with a lossless plan.
    let mut rng = SeedRng::new(params.seed);
    let generator = TemperatureFieldGenerator::paper_lounge().expect("paper lounge");
    let mut data = generator.generate(params.samples, &mut rng);
    TemperatureFieldGenerator::normalize(&mut data);
    let split = data.len() * 4 / 5;
    let (train, test) = data.split_at(split);

    let config = e1_temperature::cnn_config();
    let topo = e1_temperature::deployment();
    let graph = config.unit_graph().expect("valid config");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    let mut arm_rng = SeedRng::for_point(params.seed ^ 0xE1A0, 1);
    let mut net = DistributedCnn::new(config, assignment, WeightUpdate::PerUnit, &mut arm_rng);
    let mut rt = LossyRuntime::new(
        FaultPlan::lossless(),
        RecoveryPolicy::FailFast,
        &topo,
        SimDuration::from_millis(500),
    );
    for _ in 0..params.epochs {
        net.train_epoch_lossy(train, 0.05, 16, &mut arm_rng, &mut rt)
            .expect("lossless epoch completes");
    }
    let accuracy = net.accuracy_lossy(test, &mut rt);

    let golden = golden_microdeep_accuracy();
    assert_eq!(
        accuracy, golden,
        "lossless lossy-path accuracy diverged from the golden E1 report"
    );
    // Sanity on the fabric itself: messages flowed, none were touched.
    let stats = rt.stats();
    assert!(stats.sent > 0, "no messages crossed the fabric");
    assert_eq!(stats.drops, 0);
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.aborted, 0);
    assert_eq!(stats.sent, stats.delivered);
}
