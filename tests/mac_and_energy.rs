//! Integration: backscatter PHY + registry + MAC + energy model working
//! together — a device must be admissible, reachable and energetically
//! viable for its reports to arrive.

use zeiot::backscatter::mac::{simulate, MacConfig, MacMode};
use zeiot::backscatter::phy::BackscatterLink;
use zeiot::backscatter::registry::{CycleRegistry, Registration};
use zeiot::core::id::DeviceId;
use zeiot::core::rng::SeedRng;
use zeiot::core::time::SimDuration;
use zeiot::core::units::{Joule, Watt};
use zeiot::energy::capacitor::Capacitor;
use zeiot::energy::consumer::{DeviceState, PowerProfile};
use zeiot::energy::harvester::ConstantSource;
use zeiot::energy::intermittent::{IntermittentDevice, Task};

#[test]
fn admitted_devices_deliver_under_the_scheduled_mac() {
    // Admission control and the simulator agree: a registry-full load
    // still delivers with high probability under scheduling.
    let mut registry = CycleRegistry::new(250e3, 0.10).unwrap();
    let prototype =
        Registration::new(DeviceId::new(0), SimDuration::from_millis(500), 256).unwrap();
    let capacity = registry.capacity_for(&prototype);
    assert!(capacity >= 10, "capacity={capacity}");
    let mut devices = Vec::new();
    for i in 0..capacity as u32 {
        let reg = Registration::new(DeviceId::new(i), SimDuration::from_millis(500), 256).unwrap();
        registry.register(reg).unwrap();
        devices.push(reg);
    }

    let config = MacConfig {
        devices,
        ..MacConfig::default_with_devices(1).unwrap()
    };
    let mut rng = SeedRng::new(4);
    let report = simulate(
        &config,
        MacMode::Scheduled,
        SimDuration::from_secs(20),
        &mut rng,
    );
    // Delivery approaches the configured link quality (0.9).
    assert!(
        report.backscatter_delivery_ratio() > 0.8,
        "delivery={}",
        report.backscatter_delivery_ratio()
    );
    assert!(report.wlan_delivery_ratio() > 0.95);
}

#[test]
fn energy_budget_supports_the_registered_cycle() {
    // A tag reporting every 500 ms: one report costs ~10 nJ of
    // backscatter plus sensing/compute; a 20 µW harvest sustains it.
    let tag = PowerProfile::backscatter_tag().unwrap();
    let report = tag.tx_energy(DeviceState::Backscatter, 256, 250e3);
    let sense = tag.energy(DeviceState::Sense, SimDuration::from_millis(5));
    let per_cycle = Joule::new(report.value() + sense.value());
    let harvest_per_cycle = Watt::new(20e-6).energy_over(SimDuration::from_millis(500));
    assert!(
        harvest_per_cycle.value() > 10.0 * per_cycle.value(),
        "harvest {} vs cost {}",
        harvest_per_cycle.value(),
        per_cycle.value()
    );

    // The intermittent device confirms it: near-full duty cycle.
    let mut device = IntermittentDevice::new(
        ConstantSource::new(Watt::new(20e-6)).unwrap(),
        Capacitor::new(100e-6, 2.4, 1.8, 3.0).unwrap(),
        tag,
        SimDuration::from_millis(10),
    )
    .unwrap();
    let task = Task::new(
        u64::MAX / 2,
        10,
        Joule::from_microjoules(0.2),
        Joule::from_microjoules(0.05),
    )
    .unwrap();
    let mut rng = SeedRng::new(5);
    let outcome = device.run(&task, SimDuration::from_secs(30), &mut rng, None);
    assert!(outcome.duty_cycle > 0.5, "duty={}", outcome.duty_cycle);
}

#[test]
fn link_quality_and_mac_success_are_consistent() {
    // Derive the link success from the PHY at a concrete geometry and
    // feed it to the MAC: the simulated delivery tracks it.
    let link = BackscatterLink::zigbee_testbed().unwrap();
    let success = link.packet_success(1.0, 8.0, 9.0);
    assert!(success > 0.9);

    let mut config = MacConfig::default_with_devices(10).unwrap();
    config.bs_packet_success = success;
    let mut rng = SeedRng::new(6);
    let report = simulate(
        &config,
        MacMode::Scheduled,
        SimDuration::from_secs(30),
        &mut rng,
    );
    assert!(
        (report.backscatter_delivery_ratio() - success).abs() < 0.05,
        "mac {} vs phy {}",
        report.backscatter_delivery_ratio(),
        success
    );
}

#[test]
fn naive_coexistence_collapses_under_load_scheduled_does_not() {
    let config = MacConfig::default_with_devices(60).unwrap();
    let mut rng = SeedRng::new(7);
    let sched = simulate(
        &config,
        MacMode::Scheduled,
        SimDuration::from_secs(20),
        &mut rng,
    );
    let mut rng = SeedRng::new(7);
    let naive = simulate(
        &config,
        MacMode::Naive,
        SimDuration::from_secs(20),
        &mut rng,
    );
    assert!(sched.backscatter_delivery_ratio() > naive.backscatter_delivery_ratio() + 0.2);
    assert!(sched.wlan_delivery_ratio() > naive.wlan_delivery_ratio() + 0.1);
}
