//! Elderly monitoring at a care facility — the paper's motivating
//! scenario (i): zero-energy fall detection end to end.
//!
//! The pipeline chains four subsystems:
//!
//! 1. an energy-harvesting device model decides how often each IR node
//!    can even afford to sense and backscatter;
//! 2. the coexistence MAC carries the sensor readings over the
//!    facility's existing Wi-Fi without disturbing it;
//! 3. MicroDeep runs the fall-detection CNN on the sensor mesh itself;
//! 4. a node failure is injected and the assignment repaired (§V
//!    resilience).
//!
//! Run with: `cargo run --release --example elderly_monitoring`

use zeiot::backscatter::mac::{simulate, MacConfig, MacMode};
use zeiot::core::id::NodeId;
use zeiot::core::rng::SeedRng;
use zeiot::core::time::SimDuration;
use zeiot::core::units::{Joule, Watt};
use zeiot::data::gait::GaitGenerator;
use zeiot::energy::capacitor::Capacitor;
use zeiot::energy::consumer::PowerProfile;
use zeiot::energy::harvester::ConstantSource;
use zeiot::energy::intermittent::{IntermittentDevice, Task};
use zeiot::microdeep::replace::plan_incremental;
use zeiot::microdeep::{Assignment, CnnConfig, CostModel, DistributedCnn, WeightUpdate};
use zeiot::net::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeedRng::new(2026);
    println!("— elderly-monitoring pipeline —\n");

    // 1. Energy: can a corridor node live on the facility's LED
    //    lighting (a small, steady photovoltaic yield)?
    let mut device = IntermittentDevice::new(
        ConstantSource::new(Watt::new(60e-6))?,
        Capacitor::new(220e-6, 2.4, 1.8, 3.0)?,
        PowerProfile::backscatter_tag()?,
        SimDuration::from_millis(10),
    )?;
    let workload = Task::new(
        u64::MAX / 2,
        10,
        Joule::from_microjoules(0.5),
        Joule::from_microjoules(0.4),
    )?;
    let outcome = device.run(&workload, SimDuration::from_secs(120), &mut rng, None);
    println!(
        "energy: duty cycle {:.0}% under corridor lighting ({} brownouts in 2 min)",
        outcome.duty_cycle * 100.0,
        outcome.brownouts
    );

    // 2. Communication: 30 sensor tags on the facility Wi-Fi.
    let mac = MacConfig::default_with_devices(30)?;
    let report = simulate(
        &mac,
        MacMode::Scheduled,
        SimDuration::from_secs(30),
        &mut rng,
    );
    println!(
        "mac: backscatter delivery {:.1}%, Wi-Fi delivery {:.1}%, dummy overhead {:.2}%",
        report.backscatter_delivery_ratio() * 100.0,
        report.wlan_delivery_ratio() * 100.0,
        report.dummy_overhead() * 100.0
    );

    // 3. Recognition: MicroDeep fall detection on the corridor array.
    let generator = GaitGenerator::paper_array()?;
    let data = generator.generate(400, 5, &mut rng);
    let (train, test) = data.split_at(320);
    let config = CnnConfig::new(10, 8, 8, 4, 3, 2, 16, 2)?;
    let graph = config.unit_graph()?;
    let topo = Topology::grid(8, 8, 0.5, 0.75)?;
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let mut net = DistributedCnn::new(config, assignment.clone(), WeightUpdate::PerUnit, &mut rng);
    for _ in 0..10 {
        net.train_epoch(train, 0.04, 16, &mut rng);
    }
    println!(
        "recognition: fall-detection accuracy {:.1}%",
        net.accuracy(test) * 100.0
    );

    // 4. Resilience: two nodes die; re-home their units.
    let failed = vec![NodeId::new(27), NodeId::new(36)];
    let (repaired, outcome) = plan_incremental(&graph, &topo, &assignment, &failed, usize::MAX);
    let cost = CostModel::new(&topo);
    let before = cost.forward_cost(&graph, &assignment).max_cost();
    let after = cost.forward_cost(&graph, &repaired).max_cost();
    println!(
        "resilience: {} units re-homed after {} node failures (fully recovered: {}), \
         peak cost {} → {}",
        outcome.migrations.len(),
        failed.len(),
        outcome.stranded == 0,
        before,
        after
    );
    Ok(())
}
