//! One snapshot across three subsystems, then a console report.
//!
//! Runs an instrumented slice of each subsystem the observability layer
//! covers — a distributed-CNN training pass (per-node radio counters,
//! replica drift), the coexistence MAC (grants, collisions, dummy
//! carriers), and an intermittent energy-harvesting device (capacitor
//! voltage, power cycles). Each subsystem records into its own
//! [`zeiot::obs::Recorder`] (they run on independent simulation clocks,
//! so their traces must not share one buffer); the snapshots are merged
//! and the per-subsystem highlights printed, followed by the full
//! summary.
//!
//! Run with: `cargo run --release --example observability_report`

use zeiot::backscatter::mac::{simulate_with, MacConfig, MacFaults, MacMode};
use zeiot::core::rng::SeedRng;
use zeiot::core::time::SimDuration;
use zeiot::core::units::{Joule, Watt};
use zeiot::data::gait::GaitGenerator;
use zeiot::energy::capacitor::Capacitor;
use zeiot::energy::consumer::PowerProfile;
use zeiot::energy::harvester::ConstantSource;
use zeiot::energy::intermittent::{IntermittentDevice, Task};
use zeiot::microdeep::{Assignment, CnnConfig, DistributedCnn, TrafficInstrument, WeightUpdate};
use zeiot::net::Topology;
use zeiot::obs::{Label, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeedRng::new(42);

    // ── MicroDeep: distributed CNN on a 4×4 mesh ─────────────────────
    let mut md_rec = Recorder::new();
    let config = CnnConfig::new(10, 8, 8, 4, 3, 2, 16, 2)?;
    let graph = config.unit_graph()?;
    let topo = Topology::grid(4, 4, 2.0, 3.0)?;
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    // Radio-level view: what each node's radio does in one training step.
    let instrument = TrafficInstrument::new(&topo);
    instrument.record_training_step(&graph, &assignment, &mut md_rec);
    instrument.record_assignment_cost(&graph, &assignment, topo.len(), &mut md_rec);

    // Learning-level view: loss and replica drift of an observed epoch.
    let generator = GaitGenerator::paper_array()?;
    let data = generator.generate(80, 5, &mut rng);
    let mut net = DistributedCnn::new(config, assignment, WeightUpdate::PerUnit, &mut rng);
    net.train_epoch_observed(&data, 0.04, 16, &mut rng, &mut md_rec);

    // ── Backscatter MAC: 20 devices, scheduled and naive ─────────────
    let mut mac_rec = Recorder::new();
    let mac_config = MacConfig::default_with_devices(20)?;
    let duration = SimDuration::from_secs(20);
    for mode in [MacMode::Scheduled, MacMode::Naive] {
        simulate_with(
            &mac_config,
            mode,
            duration,
            &mut SeedRng::new(1),
            &MacFaults::none(),
            Some(&mut mac_rec),
            None,
        );
    }

    // ── Energy: an intermittent tag at 20 µW harvest ─────────────────
    let mut energy_rec = Recorder::new();
    let mut device = IntermittentDevice::new(
        ConstantSource::new(Watt::new(20e-6))?,
        Capacitor::new(100e-6, 2.4, 1.8, 3.0)?,
        PowerProfile::backscatter_tag()?,
        SimDuration::from_millis(10),
    )?;
    let task = Task::new(
        1_000_000,
        10,
        Joule::from_microjoules(1.0),
        Joule::from_microjoules(5.0),
    )?;
    device.run(
        &task,
        SimDuration::from_secs(60),
        &mut rng,
        Some((&mut energy_rec, Label::part("tag-0"))),
    );

    // ── Per-subsystem highlights ─────────────────────────────────────
    let mut snap = md_rec.snapshot();
    snap.merge(mac_rec.snapshot());
    snap.merge(energy_rec.snapshot());

    println!("-- microdeep (one training step, {} nodes) --", topo.len());
    for name in ["microdeep.tx_messages", "microdeep.rx_messages"] {
        let max = snap.counter_max(name).expect("instrumented");
        let mean = snap.counter_mean(name).expect("instrumented");
        println!(
            "{name}: max {} at {}, mean {mean:.1} per node",
            max.value, max.label
        );
    }

    println!("-- mac ({} devices, {duration} each mode) --", 20);
    println!(
        "grants {} | collisions {} | dummy frames {} | samples dropped {}",
        snap.counter_total("mac.grants"),
        snap.counter_total("mac.collisions"),
        snap.counter_total("mac.dummy_frames"),
        snap.counter_total("mac.samples_dropped"),
    );

    println!("-- energy (20 µW harvest, 60 s) --");
    let (v_min, v_mean, v_max) = snap
        .series_value_stats("energy.capacitor_v")
        .expect("voltage sampled");
    println!("capacitor: min {v_min:.2} V, mean {v_mean:.2} V, max {v_max:.2} V");
    println!(
        "power cycles {} | brownouts {} | checkpoints {}",
        snap.counter_total("energy.power_cycles"),
        snap.counter_total("energy.brownouts"),
        snap.counter_total("energy.checkpoints"),
    );

    // ── Everything the recorders saw ─────────────────────────────────
    println!();
    println!("{snap}");
    Ok(())
}
