//! Heap allocations of one training sample's passes, counted exactly.
//!
//! A counting global allocator forwards every call to the system
//! allocator and counts, per thread, each allocation and reallocation.
//! On the lounge CNN over the 10×5 grid, after one warm-up sample, a
//! forward plus backward allocates only the logits tensor it returns;
//! the replica modes' forward adds its one node-indexed kernel table;
//! and the gradient update allocates nothing. One test, alone in its
//! binary, so no other test's allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use zeiot_core::rng::SeedRng;
use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
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

#[test]
fn training_passes_allocate_only_the_returned_logits() {
    let config = CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).expect("the lounge CNN is valid");
    let topo = Topology::grid(10, 5, 5.0, 7.6).expect("the lounge grid is valid");
    let graph = config.unit_graph().expect("the lounge CNN is valid");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let mut rng = SeedRng::new(42);
    let shape = vec![1, 17, 25];
    let samples: Vec<Tensor> = (0..2)
        .map(|_| Tensor::uniform(shape.clone(), 1.0, &mut rng))
        .collect();

    for update in [
        WeightUpdate::PerUnit,
        WeightUpdate::Independent,
        WeightUpdate::Synchronized,
    ] {
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
        let (forward, backward, apply) = counts[1];
        if update == WeightUpdate::PerUnit {
            assert_eq!(forward + backward, 2, "{update:?}: {counts:?}");
        } else {
            assert_eq!(forward, 3, "{update:?}: {counts:?}");
        }
        assert_eq!(apply, 0, "{update:?}: {counts:?}");
    }
}
