//! Integration: the full MicroDeep pipeline across `zeiot-data`,
//! `zeiot-nn`, `zeiot-net` and `zeiot-microdeep`, at reduced scale.

use proptest::prelude::*;
use zeiot::core::id::NodeId;
use zeiot::core::rng::SeedRng;
use zeiot::data::gait::GaitGenerator;
use zeiot::data::temperature::TemperatureFieldGenerator;
use zeiot::microdeep::{Assignment, CnnConfig, CostModel, DistributedCnn, WeightUpdate};
use zeiot::net::Topology;
use zeiot::nn::tensor::Tensor;

#[test]
fn temperature_pipeline_learns_and_saves_traffic() {
    let mut rng = SeedRng::new(1);
    let generator = TemperatureFieldGenerator::paper_lounge().unwrap();
    let mut data = generator.generate(300, &mut rng);
    TemperatureFieldGenerator::normalize(&mut data);
    let (train, test) = data.split_at(240);

    let config = CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let topo = Topology::grid(10, 5, 5.0, 7.6).unwrap();
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    let mut net = DistributedCnn::new(config, assignment.clone(), WeightUpdate::PerUnit, &mut rng);
    let first_loss = net.train_epoch(train, 0.05, 16, &mut rng);
    let mut last_loss = first_loss;
    for _ in 0..6 {
        last_loss = net.train_epoch(train, 0.05, 16, &mut rng);
    }
    assert!(last_loss < first_loss, "loss did not decrease");
    assert!(net.accuracy(test) > 0.75);

    let cost = CostModel::new(&topo);
    let central = Assignment::centralized(&graph, &topo);
    let ratio = cost
        .peak_cost_ratio(&graph, &assignment, &central)
        .expect("centralized baseline has traffic");
    assert!(ratio < 0.5, "peak ratio {ratio}");
}

#[test]
fn all_three_update_modes_run_on_the_same_assignment() {
    let mut rng = SeedRng::new(2);
    let generator = GaitGenerator::paper_array().unwrap();
    let data = generator.generate(200, 3, &mut rng);
    let (train, test) = data.split_at(160);

    let config = CnnConfig::new(10, 8, 8, 4, 3, 2, 16, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let topo = Topology::grid(8, 8, 0.5, 0.75).unwrap();
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    for update in [
        WeightUpdate::Synchronized,
        WeightUpdate::Independent,
        WeightUpdate::PerUnit,
    ] {
        let mut net = DistributedCnn::new(config, assignment.clone(), update, &mut rng);
        for _ in 0..12 {
            net.train_epoch(train, 0.05, 16, &mut rng);
        }
        let acc = net.accuracy(test);
        assert!(acc > 0.7, "{update:?}: acc={acc}");
    }
}

#[test]
fn assignment_strategies_order_by_peak_cost() {
    let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let topo = Topology::grid(4, 4, 2.0, 3.0).unwrap();
    let cost = CostModel::new(&topo);

    let central = cost
        .forward_cost(&graph, &Assignment::centralized(&graph, &topo))
        .max_cost();
    let balanced = cost
        .forward_cost(&graph, &Assignment::balanced_correspondence(&graph, &topo))
        .max_cost();
    // The headline ordering of the paper.
    assert!(balanced < central, "balanced={balanced} central={central}");
    // Total traffic conservation sanity: some traffic exists everywhere.
    assert!(balanced > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MicroDeep computes the standard CNN (paper §IV.C). Over random
    /// configs and grids, under the centralized, the balanced and a
    /// seeded random placement, and in every weight-update mode, the
    /// distributed forward at initialisation equals the centralized
    /// network built from the same seed, bit for bit.
    #[test]
    fn distributed_forward_equals_the_centralized_network(
        shape in (1usize..3, 1usize..4, 1usize..5, 1usize..4),
        pooled in (1usize..4, 1usize..6, 1usize..12, 2usize..4),
        grid in (1usize..5, 1usize..5),
        seed in 0u64..u64::MAX,
    ) {
        let ((ic, oc, k, pool), (ph, pw, hidden, classes)) = (shape, pooled);
        let (h, w) = (pool * ph + k - 1, pool * pw + k - 1);
        let config = CnnConfig::new(ic, h, w, oc, k, pool, hidden, classes).unwrap();
        let graph = config.unit_graph().unwrap();
        let topo = Topology::grid(grid.0, grid.1, 2.0, 3.0).unwrap();
        let mut rng = SeedRng::with_stream(seed, 1);
        let mut random = Assignment::centralized(&graph, &topo);
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                random.set_host(l, u, NodeId::new(rng.below(topo.len()) as u32));
            }
        }
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::uniform(vec![ic, h, w], 1.0, &mut rng))
            .collect();
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let mut central = config.build_centralized(&mut SeedRng::new(seed));
        let expected: Vec<_> = inputs.iter().map(|x| bits(central.forward(x))).collect();
        for assignment in [
            Assignment::centralized(&graph, &topo),
            Assignment::balanced_correspondence(&graph, &topo),
            random,
        ] {
            for update in [
                WeightUpdate::Synchronized,
                WeightUpdate::Independent,
                WeightUpdate::PerUnit,
            ] {
                let mut net =
                    DistributedCnn::new(config, assignment.clone(), update, &mut SeedRng::new(seed));
                for (x, want) in inputs.iter().zip(&expected) {
                    prop_assert_eq!(&bits(net.forward(x)), want, "{:?}", update);
                }
            }
        }
    }
}
