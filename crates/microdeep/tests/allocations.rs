//! Heap allocations of one sample's passes, counted exactly.
//!
//! A counting global allocator forwards every call to the system
//! allocator and counts, per thread, each allocation and reallocation.
//! On the lounge CNN over the 10×5 grid, after one warm-up sample:
//! - a forward with no parameter change since the previous one allocates
//!   only the logits tensor it returns (two allocations), in every weight
//!   update mode, f32 and i8 alike, and so does one right after a
//!   migration, which re-points the packed weights instead of repacking;
//! - the forward right after `apply_gradients` repacks the weights into
//!   their old storage, and in the replica modes allocates the
//!   node-indexed replica table it packs from;
//! - the backward allocates nothing under `PerUnit` and its replica
//!   table in the replica modes, and the update allocates nothing;
//! - a lossy forward allocates what a perfect one does, so its per-unit
//!   bursts allocate nothing, and an aborted one allocates nothing at
//!   all; the fabric's dark-node list and bitmap, refreshed as the clock
//!   moves, and its link table allocate nothing after the first sample.
//!
//! The counts are per thread, and each test runs on its own, so no other
//! test's allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};
use zeiot_microdeep::replace::{apply_offline, plan_incremental};
use zeiot_microdeep::{
    Assignment, CnnConfig, DistributedCnn, LossyRuntime, QuantizedCnn, WeightUpdate,
};
use zeiot_net::Topology;
use zeiot_nn::loss::cross_entropy;
use zeiot_nn::tensor::Tensor;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's guarantees pass on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The lounge CNN, its grid, the balanced placement, a generator and
/// `n` uniform input samples.
fn lounge(n: usize) -> (CnnConfig, Topology, Assignment, SeedRng, Vec<Tensor>) {
    let config = CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).expect("the lounge CNN is valid");
    let topo = Topology::grid(10, 5, 5.0, 7.6).expect("the lounge grid is valid");
    let graph = config.unit_graph().expect("the lounge CNN is valid");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let mut rng = SeedRng::new(42);
    let shape = vec![1, 17, 25];
    let samples: Vec<Tensor> = (0..n)
        .map(|_| Tensor::uniform(shape.clone(), 1.0, &mut rng))
        .collect();
    (config, topo, assignment, rng, samples)
}

const MODES: [WeightUpdate; 3] = [
    WeightUpdate::PerUnit,
    WeightUpdate::Independent,
    WeightUpdate::Synchronized,
];

#[test]
fn training_passes_allocate_only_the_returned_logits() {
    let (config, _, assignment, mut rng, samples) = lounge(2);

    for update in MODES {
        let mut net = DistributedCnn::new(config, assignment.clone(), update, &mut rng);
        let mut counts = Vec::new();
        for (i, x) in samples.iter().enumerate() {
            let (forward, logits) = allocations(|| net.forward(x));
            let (_, grad) = cross_entropy(&logits, i % 2);
            let (backward, ()) = allocations(|| net.backward(&grad));
            let (apply, ()) = allocations(|| net.apply_gradients(0.05));
            counts.push((forward, backward, apply));
        }
        // The first sample is the warm-up: it sizes the model's buffers.
        // The second forward follows an update, so it repacks.
        let expected = if update == WeightUpdate::PerUnit {
            (2, 0, 0)
        } else {
            (3, 1, 0)
        };
        assert_eq!(counts[1], expected, "{update:?}: {counts:?}");
    }
}

#[test]
fn warm_forwards_allocate_only_the_returned_logits() {
    let (config, topo, assignment, mut rng, samples) = lounge(3);
    let graph = config.unit_graph().expect("the lounge CNN is valid");
    // The host of conv unit 0 goes dark, and its units move.
    let dark = [assignment.host_of(1, 0)];
    let (_, plan) = plan_incremental(&graph, &topo, &assignment, &dark, usize::MAX);
    assert!(plan.migrations.iter().any(|m| m.layer == 1));

    for update in MODES {
        let mut net = DistributedCnn::new(config, assignment.clone(), update, &mut rng);
        let mut q = QuantizedCnn::new(&mut net, &samples);
        // The first forward of each domain is the warm-up: it sizes the
        // model's buffers and packs its weights.
        let _ = net.forward(&samples[0]);
        let _ = q.forward_quantized(&samples[0]);
        let (f32_warm, _) = allocations(|| net.forward(&samples[1]));
        let (i8_warm, _) = allocations(|| q.forward_quantized(&samples[1]));
        apply_offline(&mut net, &graph, &plan.migrations, &dark);
        q.resync_placement(&net);
        let (f32_moved, _) = allocations(|| net.forward(&samples[2]));
        let (i8_moved, _) = allocations(|| q.forward_quantized(&samples[2]));
        let counts = [f32_warm, i8_warm, f32_moved, i8_moved];
        assert_eq!(
            counts, [2; 4],
            "{update:?}: f32, i8, then both after migrating"
        );
    }
}

#[test]
fn lossy_forwards_allocate_what_perfect_forwards_do() {
    let (config, topo, assignment, mut rng, samples) = lounge(4);
    // 5% loss, with a node dark from the third sample on, so that the
    // dark set first changes after the warm-up: the host of hidden unit
    // 0, whose samples then lose whole bursts, or the highest-numbered
    // node, the last bit of the dark-node bitmap.
    let outage = |node| {
        FaultPlan::uniform(42, 0.05)
            .and_then(|plan| plan.with_outage(node, SimTime::from_secs(1), SimTime::from_secs(60)))
            .expect("the plan is valid")
    };
    let last = topo.node_ids().max().expect("the grid has nodes");
    let zero_fill = RecoveryPolicy::Degrade {
        mode: DegradeMode::ZeroFill,
    };
    let runs = [
        (outage(assignment.host_of(3, 0)), zero_fill),
        (outage(last), zero_fill),
        // Fail-fast: every pass aborts in the middle of a burst.
        (
            FaultPlan::uniform(42, 0.05).expect("the plan is valid"),
            RecoveryPolicy::FailFast,
        ),
    ];
    for update in [WeightUpdate::PerUnit, WeightUpdate::Independent] {
        for (plan, policy) in &runs {
            let mut net = DistributedCnn::new(config, assignment.clone(), update, &mut rng);
            let period = SimDuration::from_millis(500);
            let mut rt = LossyRuntime::new(plan.clone(), *policy, &topo, period);
            let mut counts = Vec::new();
            for x in &samples {
                // The pass, then the clock's advance, which refreshes the
                // dark-node list and bitmap.
                counts.push(allocations(|| {
                    let completed = net.forward_lossy(x, &mut rt).is_some();
                    rt.advance_pass();
                    completed
                }));
            }
            let completed = counts.iter().filter(|&&(_, done)| done).count();
            if *policy == RecoveryPolicy::FailFast {
                assert_eq!(completed, 0, "{update:?}: fail-fast aborts");
            } else {
                assert_eq!(completed, counts.len(), "zero-fill never aborts");
                assert!(
                    rt.stats().degraded > 0,
                    "{update:?}: the fabric lost messages"
                );
            }
            // The first sample is the warm-up: it sizes the buffers, packs
            // the weights and builds the link table. A completed pass then
            // allocates the logits it returns, and an aborted one nothing.
            assert!(
                counts[1..]
                    .iter()
                    .all(|&(n, done)| n == if done { 2 } else { 0 }),
                "{update:?} {policy:?}: {counts:?}"
            );
        }
    }
}
