//! Differential testing of the int8 inference path against f32.
//!
//! Two properties, checked end-to-end through the public APIs (the
//! E12 report's thread invariance lives in the workspace
//! `parallel_determinism` suite):
//!
//! 1. **Accuracy-preserving**: across a sweep of random topologies,
//!    weight-update modes, seeds and inputs, the quantized forward pass
//!    agrees with the f32 forward pass on the top-1 class almost always,
//!    and every logit stays within a small error band around its f32
//!    value (scaled by the sample's logit spread, since symmetric
//!    per-tensor quantization has input-dependent absolute error).
//! 2. **Layout-invariant**: serving the identical int8 tenant workload
//!    through 1 shard and through 3 shards yields bit-identical logits
//!    per `(tenant, seq)` — integer accumulation leaves no room for
//!    scheduling-dependent rounding.

use std::collections::BTreeMap;

use zeiot_bench::experiments::mesh::{cnn_config, generate_data};
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_microdeep::{Assignment, DistributedCnn, QuantizedCnn, WeightUpdate};
use zeiot_net::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_serve::{ArrivalProcess, Outcome, QuantMode, ServeConfig, Server, Tenant, TenantSpec};

/// Trains a small deployment and returns `(f32 model, int8 model, test
/// set)` sharing identical learned weights.
fn trained_pair(
    seed: u64,
    topo: Topology,
    update: WeightUpdate,
) -> (DistributedCnn, QuantizedCnn, Vec<(Tensor, usize)>) {
    let config = cnn_config();
    let graph = config.unit_graph().unwrap();
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    let mut data_rng = SeedRng::with_stream(seed, 0xD1FF);
    let data = generate_data(24, &mut data_rng);
    let split = data.len() * 4 / 5;
    let (train, test) = data.split_at(split);

    let mut model_rng = SeedRng::with_stream(seed, 0x10DE);
    let mut net = DistributedCnn::new(config, assignment, update, &mut model_rng);
    let mut train_rng = SeedRng::with_stream(seed, 0x7E57);
    for _ in 0..6 {
        net.train_epoch(train, 0.08, 8, &mut train_rng);
    }

    let calibration: Vec<Tensor> = train.iter().map(|(x, _)| x.clone()).collect();
    let mut frozen = net.clone();
    let quantized = QuantizedCnn::new(&mut frozen, &calibration);
    (net, quantized, test.to_vec())
}

#[test]
fn int8_tracks_f32_across_topologies_and_seeds() {
    let cases: Vec<(u64, Topology, WeightUpdate)> = vec![
        (
            11,
            Topology::grid(3, 3, 2.0, 3.0).unwrap(),
            WeightUpdate::Independent,
        ),
        (
            29,
            Topology::grid(4, 4, 2.0, 3.0).unwrap(),
            WeightUpdate::Independent,
        ),
        (
            47,
            Topology::grid(3, 3, 2.0, 3.0).unwrap(),
            WeightUpdate::PerUnit,
        ),
        (
            83,
            Topology::grid(2, 5, 2.0, 3.0).unwrap(),
            WeightUpdate::Independent,
        ),
    ];

    let mut total = 0usize;
    let mut agreed = 0usize;
    for (seed, topo, update) in cases {
        let (mut f32_model, mut int8_model, test) = trained_pair(seed, topo, update);
        let mut case_agreed = 0usize;
        for (x, _) in &test {
            let f = f32_model.forward(x);
            let q = int8_model.forward_quantized(x);
            if f.argmax() == q.argmax() {
                case_agreed += 1;
            }
            // Per-logit band: quantization error scales with the logit
            // magnitude the activation/weight scales were chosen for.
            let span = f.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            for (&a, &b) in f.data().iter().zip(q.data()) {
                let delta = (a - b).abs();
                assert!(
                    delta <= 0.15 * span,
                    "seed {seed}: logit drifted {delta} (f32 {a}, int8 {b}, span {span})"
                );
            }
        }
        assert!(
            case_agreed * 10 >= test.len() * 8,
            "seed {seed}: top-1 agreement {case_agreed}/{}",
            test.len()
        );
        total += test.len();
        agreed += case_agreed;
    }
    assert!(
        agreed * 10 >= total * 9,
        "aggregate top-1 agreement too low: {agreed}/{total}"
    );
}

#[test]
fn int8_serving_logits_are_bit_exact_across_shard_layouts() {
    let deadline = SimDuration::from_millis(400);
    let horizon = SimDuration::from_secs(3);
    let service_time = SimDuration::from_millis(20);
    let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();

    let completions_with = |shards: usize| {
        let mut data_rng = SeedRng::with_stream(5, 0xD1FF);
        let pool = generate_data(12, &mut data_rng);
        let config = cnn_config();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut model_rng = SeedRng::with_stream(5, 0x10DE);
        let net = DistributedCnn::new(
            config,
            assignment,
            WeightUpdate::Independent,
            &mut model_rng,
        );
        let spec = TenantSpec::new("diff", ArrivalProcess::poisson(6.0), deadline)
            .with_quant(QuantMode::Int8);
        let tenant = Tenant::new(spec, net, pool).unwrap();
        let serve_config = ServeConfig::new(shards, 2, 32, service_time).unwrap();
        let mut server = Server::new(serve_config, topo.clone(), vec![tenant]).unwrap();
        server.run(77, horizon, None)
    };

    let one = completions_with(1);
    let three = completions_with(3);

    // Index logits by (tenant, seq): shard layout may reorder
    // completion times, but every answered request must carry the
    // identical bit pattern.
    let logits_by_seq = |outcome: &zeiot_serve::ServeOutcome| {
        let mut map: BTreeMap<(usize, u64), Vec<u32>> = BTreeMap::new();
        for c in &outcome.completions {
            if let Outcome::Served { logits, .. } = &c.outcome {
                map.insert(
                    (c.tenant, c.seq),
                    logits.iter().map(|v| v.to_bits()).collect(),
                );
            }
        }
        map
    };
    let one_map = logits_by_seq(&one);
    let three_map = logits_by_seq(&three);
    assert!(!one_map.is_empty());
    for (key, bits) in &one_map {
        if let Some(other) = three_map.get(key) {
            assert_eq!(bits, other, "request {key:?} answered differently");
        }
    }
    // Light load, no fabric: both layouts answer every request.
    assert_eq!(one_map.len(), three_map.len());
}
