//! The WLAN-coexistence MAC (ref \[64\]) and its naive baseline, simulated
//! on the discrete-event engine.
//!
//! **Scheduled** (the proposed protocol): the AP knows every registered
//! device's cycle. Backscatter transmissions only happen under an AP
//! grant, placed when the channel is free; if no WLAN frame is pending to
//! serve as carrier, the AP transmits a *dummy packet* for the tag to
//! modulate. WLAN frames are never exposed to tag interference.
//!
//! **Naive** coexistence: tags opportunistically modulate whatever WLAN
//! frame comes by. Every rider corrupts the WLAN frame with some
//! probability ("the communication performance of the wireless LAN is
//! deteriorated"), two or more riders collide with each other, and when
//! WLAN traffic is thin there is simply no carrier to ride ("the packet
//! error rate of backscatter communication increases when there is not
//! enough wireless LAN traffic").

use crate::registry::{CycleRegistry, Registration};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use zeiot_core::error::{ConfigError, Result};
use zeiot_core::id::DeviceId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_fault::RecoveryPolicy;
use zeiot_obs::trace::{SpanEvent, SpanLayer, Tracer};
use zeiot_obs::{Label, Recorder, Severity};
use zeiot_sim::{Context, Engine, World};

/// Which MAC is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacMode {
    /// The \[64\] protocol: registration, grants, dummy carriers.
    Scheduled,
    /// Tags ride live WLAN frames opportunistically.
    Naive,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig {
    /// Poisson WLAN frame arrival rate (frames per second).
    pub wlan_arrival_rate_hz: f64,
    /// Airtime of one WLAN frame.
    pub wlan_frame_airtime: SimDuration,
    /// Channel-level success of an uninterfered WLAN frame.
    pub wlan_frame_success: f64,
    /// Registered IoT devices.
    pub devices: Vec<Registration>,
    /// Backscatter bit rate (bits per second).
    pub bs_bit_rate_bps: f64,
    /// Link-level success of one granted, collision-free backscatter
    /// packet.
    pub bs_packet_success: f64,
    /// Probability that one riding tag corrupts its WLAN carrier frame
    /// (naive mode only).
    pub tag_corruption_prob: f64,
}

impl MacConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on non-positive rates/airtimes or probabilities
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !(self.wlan_arrival_rate_hz > 0.0 && self.wlan_arrival_rate_hz.is_finite()) {
            return Err(ConfigError::new("wlan_arrival_rate_hz", "must be positive"));
        }
        if self.wlan_frame_airtime.is_zero() {
            return Err(ConfigError::new("wlan_frame_airtime", "must be non-zero"));
        }
        if !(self.bs_bit_rate_bps > 0.0 && self.bs_bit_rate_bps.is_finite()) {
            return Err(ConfigError::new("bs_bit_rate_bps", "must be positive"));
        }
        for (name, p) in [
            ("wlan_frame_success", self.wlan_frame_success),
            ("bs_packet_success", self.bs_packet_success),
            ("tag_corruption_prob", self.tag_corruption_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::new(name, "must be in [0, 1]"));
            }
        }
        Ok(())
    }

    /// A representative office scenario with `n` identical IoT devices:
    /// 200 WLAN frames/s of 1.5 ms (≈30 % channel load), devices sampling
    /// every 500 ms with 256-bit payloads at 250 kbps, 90 % link success,
    /// 50 % per-rider WLAN corruption.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches
    /// [`MacConfig::validate`].
    pub fn default_with_devices(n: usize) -> Result<Self> {
        let devices = (0..n)
            .map(|i| Registration::new(DeviceId::new(i as u32), SimDuration::from_millis(500), 256))
            .collect::<Result<Vec<_>>>()?;
        let config = Self {
            wlan_arrival_rate_hz: 200.0,
            wlan_frame_airtime: SimDuration::from_micros(1_500),
            wlan_frame_success: 0.98,
            devices,
            bs_bit_rate_bps: 250e3,
            bs_packet_success: 0.9,
            tag_corruption_prob: 0.5,
        };
        config.validate()?;
        Ok(config)
    }

    fn bs_airtime(&self, device: usize) -> SimDuration {
        self.devices[device].airtime(self.bs_bit_rate_bps)
    }
}

/// Fault injection for the scheduled MAC: grant loss on the downlink and
/// periodic AP state loss.
///
/// A *lost grant* models the tag missing the AP's announcement — the AP
/// still transmits the dummy carrier (the airtime is spent), but the tag
/// never modulates it. Recovery follows the configured
/// [`RecoveryPolicy`]: `Retransmit` re-queues the grant after the
/// policy's simulated-time backoff, everything else abandons the sample
/// (a MAC has nothing to degrade-fill with, so `Degrade` behaves like
/// `FailFast` here).
///
/// An *AP reset* drops the access point's volatile state: queued grants
/// die with it and every device must re-register its cycle before the
/// scheduler can serve it again.
#[derive(Debug, Clone, PartialEq)]
pub struct MacFaults {
    /// Probability that a granted device misses its grant.
    pub grant_loss_prob: f64,
    /// What the AP does about a missed grant.
    pub recovery: RecoveryPolicy,
    /// Interval between AP state losses (`None` = never).
    pub ap_reset_interval: Option<SimDuration>,
}

impl MacFaults {
    /// No faults: [`simulate_with`] degenerates byte-for-byte to
    /// [`simulate`].
    pub fn none() -> Self {
        Self {
            grant_loss_prob: 0.0,
            recovery: RecoveryPolicy::FailFast,
            ap_reset_interval: None,
        }
    }

    /// Validates the fault configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on a loss probability outside `[0, 1]` or a zero
    /// reset interval.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.grant_loss_prob) {
            return Err(ConfigError::new("grant_loss_prob", "must be in [0, 1]"));
        }
        if let Some(interval) = self.ap_reset_interval {
            if interval.is_zero() {
                return Err(ConfigError::new("ap_reset_interval", "must be non-zero"));
            }
        }
        Ok(())
    }
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MacReport {
    /// WLAN frames offered / delivered.
    pub wlan_offered: u64,
    /// Successfully delivered WLAN frames.
    pub wlan_delivered: u64,
    /// Backscatter samples generated by devices.
    pub bs_offered: u64,
    /// Backscatter samples delivered.
    pub bs_delivered: u64,
    /// Samples dropped because the previous one was still queued.
    pub bs_dropped: u64,
    /// Dummy carrier frames the AP transmitted (scheduled mode).
    pub dummy_frames: u64,
    /// Total airtime spent on dummy frames.
    pub dummy_airtime: SimDuration,
    /// Total channel-busy airtime.
    pub busy_airtime: SimDuration,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Grants the tag missed (fault injection).
    pub grant_losses: u64,
    /// Lost grants re-queued under a `Retransmit` policy.
    pub grant_retries: u64,
    /// Lost grants given up on (policy exhausted or non-retrying).
    pub grants_abandoned: u64,
    /// AP state losses.
    pub ap_resets: u64,
    /// Cycle re-registrations forced by AP resets.
    pub reregistrations: u64,
}

impl MacReport {
    /// Fraction of WLAN frames delivered.
    pub fn wlan_delivery_ratio(&self) -> f64 {
        if self.wlan_offered == 0 {
            return 1.0;
        }
        self.wlan_delivered as f64 / self.wlan_offered as f64
    }

    /// Fraction of backscatter samples delivered.
    pub fn backscatter_delivery_ratio(&self) -> f64 {
        if self.bs_offered == 0 {
            return 1.0;
        }
        self.bs_delivered as f64 / self.bs_offered as f64
    }

    /// Backscatter packet error rate (1 − delivery).
    pub fn backscatter_per(&self) -> f64 {
        1.0 - self.backscatter_delivery_ratio()
    }

    /// Fraction of wall time spent transmitting dummy carriers.
    pub fn dummy_overhead(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.dummy_airtime.as_secs_f64() / self.duration.as_secs_f64()
    }
}

#[derive(Debug, Clone)]
enum Event {
    WlanArrival,
    DeviceSample(usize),
    TxEnd(Tx),
    /// A lost grant comes back up for scheduling (retransmit policy).
    GrantRetry(usize),
    /// The AP loses its volatile state.
    ApReset,
}

#[derive(Debug, Clone)]
enum Tx {
    Wlan {
        riders: Vec<usize>,
    },
    Dummy {
        rider: usize,
    },
    /// A dummy carrier whose grant the tag never heard: the airtime is
    /// spent, nothing is modulated.
    DummyLost {
        rider: usize,
    },
}

struct MacWorld<'a> {
    mode: MacMode,
    config: MacConfig,
    faults: MacFaults,
    rng: SeedRng,
    channel_busy: bool,
    wlan_queue: u64,
    grant_queue: VecDeque<usize>,
    naive_pending: Vec<usize>,
    sample_pending: Vec<bool>,
    /// Per-device count of grant retries consumed for the current sample.
    retry_count: Vec<u32>,
    /// The AP's cycle registry; rebuilt from scratch on every AP reset.
    registry: CycleRegistry,
    report: MacReport,
    deadline: SimTime,
    recorder: Option<&'a mut Recorder>,
    tracer: Option<&'a mut Tracer>,
}

impl MacWorld<'_> {
    /// Appends a MAC event to device `device`'s trace (one trace per
    /// device, keyed `(device index, 0)`). Pure observation: no-op
    /// without a tracer or when sampling dropped the device.
    fn trace_event(&mut self, device: usize, at: SimTime, event: SpanEvent) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            let t = device as u64;
            if let Some(root) = tr.root(t, 0) {
                tr.event(t, 0, root, at, event);
            }
        }
    }

    fn try_start_tx(&mut self, ctx: &mut Context<'_, Event>) {
        if self.channel_busy || ctx.now() >= self.deadline {
            return;
        }
        match self.mode {
            MacMode::Scheduled => {
                if self.wlan_queue > 0 {
                    self.wlan_queue -= 1;
                    self.channel_busy = true;
                    self.report.busy_airtime += self.config.wlan_frame_airtime;
                    ctx.schedule_in(
                        self.config.wlan_frame_airtime,
                        Event::TxEnd(Tx::Wlan { riders: vec![] }),
                    );
                } else if let Some(device) = self.grant_queue.pop_front() {
                    // Dummy carrier covering the tag's airtime.
                    let airtime = self.config.bs_airtime(device);
                    self.channel_busy = true;
                    self.report.dummy_frames += 1;
                    self.report.dummy_airtime += airtime;
                    self.report.busy_airtime += airtime;
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        let label = Label::device(self.config.devices[device].device);
                        rec.inc("mac.grants", label);
                        rec.inc("mac.dummy_frames", Label::Global);
                    }
                    self.trace_event(device, ctx.now(), SpanEvent::Grant);
                    // Grant loss is rolled only under fault injection so
                    // the fault-free RNG stream is untouched.
                    let lost = self.faults.grant_loss_prob > 0.0
                        && self.rng.chance(self.faults.grant_loss_prob);
                    let tx = if lost {
                        Tx::DummyLost { rider: device }
                    } else {
                        Tx::Dummy { rider: device }
                    };
                    ctx.schedule_in(airtime, Event::TxEnd(tx));
                }
            }
            MacMode::Naive => {
                if self.wlan_queue > 0 {
                    self.wlan_queue -= 1;
                    self.channel_busy = true;
                    self.report.busy_airtime += self.config.wlan_frame_airtime;
                    // Every waiting tag jumps on the frame.
                    let riders = std::mem::take(&mut self.naive_pending);
                    ctx.schedule_in(
                        self.config.wlan_frame_airtime,
                        Event::TxEnd(Tx::Wlan { riders }),
                    );
                }
                // No WLAN traffic → tags have no carrier; they wait.
            }
        }
    }

    fn finish_sample(&mut self, device: usize, delivered: bool) {
        self.sample_pending[device] = false;
        self.retry_count[device] = 0;
        if delivered {
            self.report.bs_delivered += 1;
        }
    }

    /// Rebuilds the AP registry from scratch, re-admitting every device
    /// (the recovery an AP reset forces).
    fn reregister_all(&mut self) {
        self.registry = fresh_registry(&self.config);
        for reg in &self.config.devices {
            let admitted = self.registry.register(*reg).is_ok();
            if admitted {
                self.report.reregistrations += 1;
            }
            if let Some(rec) = self.recorder.as_deref_mut() {
                let label = Label::device(reg.device);
                if admitted {
                    rec.inc("mac.registrations", label);
                } else {
                    rec.inc("mac.registrations_rejected", label);
                }
            }
        }
    }
}

/// An AP-side registry sized for the configured channel; the budget is
/// the whole band (admission control is exercised, not stressed, here).
fn fresh_registry(config: &MacConfig) -> CycleRegistry {
    CycleRegistry::new(config.bs_bit_rate_bps, 1.0).expect("validated bit rate")
}

impl World for MacWorld<'_> {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<'_, Event>, event: Event) {
        match event {
            Event::WlanArrival => {
                if ctx.now() < self.deadline {
                    self.report.wlan_offered += 1;
                    self.wlan_queue += 1;
                    let gap = self.rng.exponential(self.config.wlan_arrival_rate_hz);
                    ctx.schedule_in(SimDuration::from_secs_f64(gap), Event::WlanArrival);
                    self.try_start_tx(ctx);
                }
            }
            Event::DeviceSample(device) => {
                if ctx.now() < self.deadline {
                    self.report.bs_offered += 1;
                    if self.sample_pending[device] {
                        // Previous sample never got out; it is superseded.
                        self.report.bs_dropped += 1;
                        if let Some(rec) = self.recorder.as_deref_mut() {
                            let label = Label::device(self.config.devices[device].device);
                            rec.inc("mac.samples_dropped", label);
                        }
                        match self.mode {
                            MacMode::Scheduled => {} // stays in grant queue
                            MacMode::Naive => {}     // stays in naive_pending
                        }
                    } else {
                        self.sample_pending[device] = true;
                        match self.mode {
                            MacMode::Scheduled => self.grant_queue.push_back(device),
                            MacMode::Naive => self.naive_pending.push(device),
                        }
                    }
                    ctx.schedule_in(
                        self.config.devices[device].cycle,
                        Event::DeviceSample(device),
                    );
                    self.try_start_tx(ctx);
                }
            }
            Event::TxEnd(tx) => {
                self.channel_busy = false;
                match tx {
                    Tx::Wlan { riders } => {
                        // WLAN frame outcome: base channel success, degraded
                        // by each riding tag (naive mode only has riders).
                        let mut success_p = self.config.wlan_frame_success;
                        for _ in &riders {
                            success_p *= 1.0 - self.config.tag_corruption_prob;
                        }
                        if self.rng.chance(success_p) {
                            self.report.wlan_delivered += 1;
                        }
                        // Tag outcomes: a single rider decodes with the
                        // link success; concurrent riders collide.
                        match riders.len() {
                            0 => {}
                            1 => {
                                let d = riders[0];
                                let ok = self.rng.chance(self.config.bs_packet_success);
                                self.finish_sample(d, ok);
                            }
                            _ => {
                                if let Some(rec) = self.recorder.as_deref_mut() {
                                    rec.inc("mac.collisions", Label::Global);
                                    rec.trace(
                                        ctx.now(),
                                        Severity::Debug,
                                        Label::Global,
                                        format!("{} tags collided on one frame", riders.len()),
                                    );
                                }
                                let tags = riders.len() as u64;
                                for d in riders {
                                    self.trace_event(d, ctx.now(), SpanEvent::Collision { tags });
                                    self.finish_sample(d, false);
                                }
                            }
                        }
                    }
                    Tx::Dummy { rider } => {
                        let ok = self.rng.chance(self.config.bs_packet_success);
                        self.finish_sample(rider, ok);
                    }
                    Tx::DummyLost { rider } => {
                        // The airtime was spent but the tag never heard
                        // the grant; recover per policy.
                        self.report.grant_losses += 1;
                        if let Some(rec) = self.recorder.as_deref_mut() {
                            let label = Label::device(self.config.devices[rider].device);
                            rec.inc("mac.grant_losses", label);
                        }
                        self.trace_event(rider, ctx.now(), SpanEvent::Loss { drops: 1 });
                        let next_retry = self.retry_count[rider] + 1;
                        let scheduled = self
                            .faults
                            .recovery
                            .retry_schedule()
                            .map(|s| ctx.schedule_retry(&s, next_retry, Event::GrantRetry(rider)))
                            .unwrap_or(false);
                        if scheduled {
                            self.retry_count[rider] = next_retry;
                            self.report.grant_retries += 1;
                            self.trace_event(
                                rider,
                                ctx.now(),
                                SpanEvent::Retransmit { retries: 1 },
                            );
                        } else {
                            self.report.grants_abandoned += 1;
                            self.finish_sample(rider, false);
                        }
                    }
                }
                self.try_start_tx(ctx);
            }
            Event::GrantRetry(device) => {
                // Only meaningful while the sample is still wanted; a
                // supersession or an AP reset may have settled it already.
                if ctx.now() < self.deadline && self.sample_pending[device] {
                    self.grant_queue.push_back(device);
                    self.try_start_tx(ctx);
                }
            }
            Event::ApReset => {
                if ctx.now() < self.deadline {
                    self.report.ap_resets += 1;
                    if let Some(rec) = self.recorder.as_deref_mut() {
                        rec.inc("mac.ap_resets", Label::Global);
                        rec.trace(
                            ctx.now(),
                            Severity::Warn,
                            Label::Global,
                            format!(
                                "AP reset: {} queued grants lost, re-registering {} devices",
                                self.grant_queue.len(),
                                self.config.devices.len()
                            ),
                        );
                    }
                    // Queued grants die with the AP's volatile state.
                    let orphaned: Vec<usize> = self.grant_queue.drain(..).collect();
                    for device in orphaned {
                        self.report.grants_abandoned += 1;
                        self.finish_sample(device, false);
                    }
                    self.reregister_all();
                    if let Some(interval) = self.faults.ap_reset_interval {
                        ctx.schedule_in(interval, Event::ApReset);
                    }
                }
            }
        }
    }
}

/// Runs one fault-free, unobserved MAC simulation for `duration` and
/// returns the report: [`simulate_with`] with [`MacFaults::none`] and
/// neither recorder nor tracer.
///
/// # Panics
///
/// Panics if `config` fails validation (call [`MacConfig::validate`] to
/// check fallibly) or has no devices.
pub fn simulate(
    config: &MacConfig,
    mode: MacMode,
    duration: SimDuration,
    rng: &mut SeedRng,
) -> MacReport {
    simulate_with(config, mode, duration, rng, &MacFaults::none(), None, None)
}

/// Runs one MAC simulation for `duration` under `faults`, recording into
/// `recorder` and tracing into `tracer` when given, and returns the
/// report.
///
/// Under fault injection grants can be missed by the tag (recovered per
/// the configured [`RecoveryPolicy`]) and the AP can periodically lose
/// its registry and grant queue. With [`MacFaults::none`] the report is
/// byte-for-byte identical to [`simulate`] at the same seed — the fault
/// paths never consume RNG.
///
/// A recorder counts `mac.grants` and `mac.samples_dropped` per device,
/// `mac.dummy_frames`, and `mac.collisions` with a debug trace event per
/// collision. Under faults it also counts `mac.grant_losses` per device,
/// and `mac.ap_resets` with a warning trace per reset plus the
/// re-registration each reset forces, as `mac.registrations` and
/// `mac.registrations_rejected` per device.
///
/// A tracer grows one trace per device (keyed `(device index, 0)`,
/// rooted at a [`SpanLayer::Mac`] span spanning the run) annotated with
/// [`SpanEvent::Grant`] per dummy carrier, [`SpanEvent::Collision`] per
/// shared frame, [`SpanEvent::Loss`] per missed grant, and
/// [`SpanEvent::Retransmit`] per re-queued grant.
///
/// The report is identical with or without a recorder or tracer at the
/// same seed.
///
/// # Panics
///
/// Panics if `config` or `faults` fail validation, or `config` has no
/// devices.
pub fn simulate_with(
    config: &MacConfig,
    mode: MacMode,
    duration: SimDuration,
    rng: &mut SeedRng,
    faults: &MacFaults,
    recorder: Option<&mut Recorder>,
    mut tracer: Option<&mut Tracer>,
) -> MacReport {
    config.validate().expect("invalid MAC config");
    faults.validate().expect("invalid MAC fault config");
    assert!(!config.devices.is_empty(), "need at least one device");
    let n = config.devices.len();
    // One trace per device, rooted at a Mac-layer span covering the run.
    if let Some(tr) = tracer.as_deref_mut() {
        for i in 0..n {
            let _ = tr.begin(i as u64, 0, "mac.device", SpanLayer::Mac, SimTime::ZERO);
        }
    }
    // Initial cycle registration (uncounted: it predates the run).
    let mut registry = fresh_registry(config);
    for reg in &config.devices {
        let _ = registry.register(*reg);
    }
    let world = MacWorld {
        mode,
        config: config.clone(),
        faults: faults.clone(),
        rng: rng.split(),
        channel_busy: false,
        wlan_queue: 0,
        grant_queue: VecDeque::new(),
        naive_pending: Vec::new(),
        sample_pending: vec![false; n],
        retry_count: vec![0; n],
        registry,
        report: MacReport::default(),
        deadline: SimTime::ZERO + duration,
        recorder,
        tracer,
    };
    let mut engine = Engine::new(world);
    engine.schedule_at(SimTime::ZERO, Event::WlanArrival);
    for (i, reg) in config.devices.iter().enumerate() {
        // Stagger first samples across the cycle to avoid phase artifacts.
        let offset = reg.cycle.mul_f64(i as f64 / n as f64);
        engine.schedule_at(SimTime::ZERO + offset, Event::DeviceSample(i));
    }
    if let Some(interval) = faults.ap_reset_interval {
        engine.schedule_at(SimTime::ZERO + interval, Event::ApReset);
    }
    engine.run_until(SimTime::ZERO + duration + SimDuration::from_secs(1));
    let mut world = engine.into_world();
    if let Some(tr) = world.tracer.as_deref_mut() {
        for i in 0..n {
            tr.finish(i as u64, 0, SimTime::ZERO + duration);
        }
    }
    let mut report = world.report;
    report.duration = duration;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: MacMode, devices: usize, seed: u64) -> MacReport {
        let config = MacConfig::default_with_devices(devices).unwrap();
        let mut rng = SeedRng::new(seed);
        simulate(&config, mode, SimDuration::from_secs(30), &mut rng)
    }

    #[test]
    fn scheduled_preserves_wlan_delivery() {
        let report = run(MacMode::Scheduled, 20, 1);
        // WLAN never carries riders: delivery ≈ base success.
        assert!(
            (report.wlan_delivery_ratio() - 0.98).abs() < 0.01,
            "ratio={}",
            report.wlan_delivery_ratio()
        );
    }

    #[test]
    fn naive_degrades_wlan_with_devices() {
        let few = run(MacMode::Naive, 2, 2);
        let many = run(MacMode::Naive, 40, 2);
        assert!(
            many.wlan_delivery_ratio() < few.wlan_delivery_ratio(),
            "few={} many={}",
            few.wlan_delivery_ratio(),
            many.wlan_delivery_ratio()
        );
    }

    #[test]
    fn scheduled_beats_naive_on_backscatter() {
        for devices in [30, 60] {
            let sched = run(MacMode::Scheduled, devices, 3);
            let naive = run(MacMode::Naive, devices, 3);
            assert!(
                sched.backscatter_delivery_ratio() > naive.backscatter_delivery_ratio(),
                "devices={devices}: sched={} naive={}",
                sched.backscatter_delivery_ratio(),
                naive.backscatter_delivery_ratio()
            );
        }
    }

    #[test]
    fn scheduled_delivery_close_to_link_quality() {
        let report = run(MacMode::Scheduled, 10, 4);
        // Without collisions, delivery ≈ link success (0.9).
        assert!(
            (report.backscatter_delivery_ratio() - 0.9).abs() < 0.05,
            "ratio={}",
            report.backscatter_delivery_ratio()
        );
    }

    #[test]
    fn dummy_frames_appear_only_in_scheduled_mode() {
        let sched = run(MacMode::Scheduled, 10, 5);
        let naive = run(MacMode::Naive, 10, 5);
        assert!(sched.dummy_frames > 0);
        assert_eq!(naive.dummy_frames, 0);
        assert!(sched.dummy_overhead() > 0.0 && sched.dummy_overhead() < 0.1);
    }

    #[test]
    fn thin_wlan_traffic_starves_naive_tags() {
        let mut config = MacConfig::default_with_devices(10).unwrap();
        config.wlan_arrival_rate_hz = 2.0; // almost no WLAN traffic
        let mut rng = SeedRng::new(6);
        let naive = simulate(
            &config,
            MacMode::Naive,
            SimDuration::from_secs(30),
            &mut rng,
        );
        let mut rng = SeedRng::new(6);
        let sched = simulate(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(30),
            &mut rng,
        );
        // Naive tags rarely find carriers; scheduled AP sends dummies.
        assert!(
            naive.backscatter_delivery_ratio() < 0.5,
            "naive={}",
            naive.backscatter_delivery_ratio()
        );
        assert!(
            sched.backscatter_delivery_ratio() > 0.8,
            "sched={}",
            sched.backscatter_delivery_ratio()
        );
        assert!(sched.dummy_overhead() > naive.dummy_overhead());
    }

    #[test]
    fn report_counters_are_consistent() {
        let report = run(MacMode::Scheduled, 15, 7);
        assert!(report.bs_delivered <= report.bs_offered);
        assert!(report.wlan_delivered <= report.wlan_offered);
        let utilization = report.busy_airtime.as_secs_f64() / report.duration.as_secs_f64();
        assert!(utilization > 0.0 && utilization <= 1.0);
        // ~60 samples per device over 30 s.
        assert!(report.bs_offered >= 14 * 60);
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(MacMode::Naive, 10, 42), run(MacMode::Naive, 10, 42));
    }

    #[test]
    fn observed_run_matches_unobserved_report() {
        let config = MacConfig::default_with_devices(12).unwrap();
        let mut rng = SeedRng::new(8);
        let plain = simulate(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(10),
            &mut rng,
        );
        let mut rng = SeedRng::new(8);
        let mut rec = Recorder::new();
        let observed = simulate_with(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(10),
            &mut rng,
            &MacFaults::none(),
            Some(&mut rec),
            None,
        );
        assert_eq!(plain, observed);
        // Every dummy frame is a grant; the counters must agree with the
        // report exactly.
        assert_eq!(
            rec.counter_value("mac.dummy_frames", &Label::Global),
            observed.dummy_frames
        );
        let grants: u64 = rec
            .counters()
            .filter(|(name, _, _)| *name == "mac.grants")
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(grants, observed.dummy_frames);
    }

    #[test]
    fn observed_naive_run_counts_collisions_and_drops() {
        let config = MacConfig::default_with_devices(40).unwrap();
        let mut rng = SeedRng::new(9);
        let mut rec = Recorder::new();
        let report = simulate_with(
            &config,
            MacMode::Naive,
            SimDuration::from_secs(10),
            &mut rng,
            &MacFaults::none(),
            Some(&mut rec),
            None,
        );
        assert!(rec.counter_value("mac.collisions", &Label::Global) > 0);
        assert!(!rec.trace_buffer().is_empty());
        let dropped: u64 = rec
            .counters()
            .filter(|(name, _, _)| *name == "mac.samples_dropped")
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(dropped, report.bs_dropped);
        assert_eq!(rec.counter_value("mac.dummy_frames", &Label::Global), 0);
    }

    #[test]
    fn no_faults_is_byte_identical_to_plain_simulate() {
        let config = MacConfig::default_with_devices(15).unwrap();
        for mode in [MacMode::Scheduled, MacMode::Naive] {
            let mut rng = SeedRng::new(11);
            let plain = simulate(&config, mode, SimDuration::from_secs(20), &mut rng);
            let mut rng = SeedRng::new(11);
            let faulted = simulate_with(
                &config,
                mode,
                SimDuration::from_secs(20),
                &mut rng,
                &MacFaults::none(),
                None,
                None,
            );
            assert_eq!(plain, faulted, "{mode:?}");
        }
    }

    #[test]
    fn grant_loss_without_retries_abandons_samples() {
        let config = MacConfig::default_with_devices(10).unwrap();
        let faults = MacFaults {
            grant_loss_prob: 0.3,
            recovery: RecoveryPolicy::FailFast,
            ap_reset_interval: None,
        };
        let mut rng = SeedRng::new(12);
        let report = simulate_with(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(20),
            &mut rng,
            &faults,
            None,
            None,
        );
        assert!(report.grant_losses > 0);
        assert_eq!(report.grant_losses, report.grants_abandoned);
        assert_eq!(report.grant_retries, 0);
        // Lost grants translate into undelivered samples.
        let mut rng = SeedRng::new(12);
        let clean = simulate(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(20),
            &mut rng,
        );
        assert!(report.bs_delivered < clean.bs_delivered);
    }

    #[test]
    fn retransmission_recovers_most_lost_grants() {
        let config = MacConfig::default_with_devices(10).unwrap();
        let retrying = MacFaults {
            grant_loss_prob: 0.3,
            recovery: RecoveryPolicy::Retransmit {
                max_retries: 4,
                timeout: SimDuration::from_millis(10),
                backoff: 2.0,
            },
            ap_reset_interval: None,
        };
        let abandoning = MacFaults {
            recovery: RecoveryPolicy::FailFast,
            ..retrying.clone()
        };
        let run = |faults: &MacFaults| {
            let mut rng = SeedRng::new(13);
            simulate_with(
                &config,
                MacMode::Scheduled,
                SimDuration::from_secs(20),
                &mut rng,
                faults,
                None,
                None,
            )
        };
        let with_retry = run(&retrying);
        let without = run(&abandoning);
        assert!(with_retry.grant_retries > 0);
        assert!(
            with_retry.backscatter_delivery_ratio() > without.backscatter_delivery_ratio(),
            "retry={} abandon={}",
            with_retry.backscatter_delivery_ratio(),
            without.backscatter_delivery_ratio()
        );
        // 0.3^5 residual loss: nearly everything is recovered.
        assert!(with_retry.grants_abandoned * 20 < with_retry.grant_losses.max(20));
    }

    #[test]
    fn zero_retry_retransmit_matches_fail_fast() {
        let config = MacConfig::default_with_devices(12).unwrap();
        let run = |recovery: RecoveryPolicy| {
            let faults = MacFaults {
                grant_loss_prob: 0.25,
                recovery,
                ap_reset_interval: None,
            };
            let mut rng = SeedRng::new(14);
            simulate_with(
                &config,
                MacMode::Scheduled,
                SimDuration::from_secs(15),
                &mut rng,
                &faults,
                None,
                None,
            )
        };
        let fail_fast = run(RecoveryPolicy::FailFast);
        let zero_retry = run(RecoveryPolicy::Retransmit {
            max_retries: 0,
            timeout: SimDuration::from_millis(10),
            backoff: 1.0,
        });
        assert_eq!(fail_fast, zero_retry);
    }

    #[test]
    fn ap_resets_force_reregistration_and_lose_queued_grants() {
        let mut config = MacConfig::default_with_devices(20).unwrap();
        // A repeated device id is refused at every re-registration.
        config.devices.push(config.devices[0]);
        let faults = MacFaults {
            grant_loss_prob: 0.0,
            recovery: RecoveryPolicy::FailFast,
            ap_reset_interval: Some(SimDuration::from_secs(5)),
        };
        let mut rng = SeedRng::new(15);
        let mut rec = Recorder::new();
        let report = simulate_with(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(21),
            &mut rng,
            &faults,
            Some(&mut rec),
            None,
        );
        assert_eq!(report.ap_resets, 4);
        assert_eq!(report.reregistrations, 4 * 20);
        assert_eq!(
            rec.counter_value("mac.ap_resets", &Label::Global),
            report.ap_resets
        );
        let total = |metric: &str| -> u64 {
            rec.counters()
                .filter(|(name, _, _)| *name == metric)
                .map(|(_, _, v)| v)
                .sum()
        };
        assert_eq!(total("mac.registrations"), report.reregistrations);
        assert_eq!(total("mac.registrations_rejected"), report.ap_resets);
        assert!(!rec.trace_buffer().is_empty());
    }

    #[test]
    fn fault_reports_are_deterministic() {
        let run = || {
            let config = MacConfig::default_with_devices(10).unwrap();
            let faults = MacFaults {
                grant_loss_prob: 0.2,
                recovery: RecoveryPolicy::Retransmit {
                    max_retries: 2,
                    timeout: SimDuration::from_millis(5),
                    backoff: 2.0,
                },
                ap_reset_interval: Some(SimDuration::from_secs(7)),
            };
            let mut rng = SeedRng::new(16);
            simulate_with(
                &config,
                MacMode::Scheduled,
                SimDuration::from_secs(20),
                &mut rng,
                &faults,
                None,
                None,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_run_is_pure_observation_and_annotates_devices() {
        use zeiot_obs::trace::{SpanEvent, TraceSampler, Tracer};
        let config = MacConfig::default_with_devices(10).unwrap();
        let faults = MacFaults {
            grant_loss_prob: 0.3,
            recovery: RecoveryPolicy::Retransmit {
                max_retries: 4,
                timeout: SimDuration::from_millis(10),
                backoff: 2.0,
            },
            ap_reset_interval: None,
        };
        let mut rng = SeedRng::new(13);
        let plain = simulate_with(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(20),
            &mut rng,
            &faults,
            None,
            None,
        );
        let mut rng = SeedRng::new(13);
        let mut tracer = Tracer::new(TraceSampler::always());
        let traced = simulate_with(
            &config,
            MacMode::Scheduled,
            SimDuration::from_secs(20),
            &mut rng,
            &faults,
            None,
            Some(&mut tracer),
        );
        assert_eq!(plain, traced, "tracing must not perturb the MAC");
        let traces = tracer.take_finished();
        assert_eq!(traces.len(), config.devices.len());
        let count = |pick: fn(&SpanEvent) -> u64| -> u64 {
            traces
                .iter()
                .flat_map(|t| t.spans.iter())
                .flat_map(|s| s.events.iter())
                .map(|e| pick(&e.event))
                .sum()
        };
        let grants = count(|e| u64::from(matches!(e, SpanEvent::Grant)));
        let losses = count(|e| match e {
            SpanEvent::Loss { drops } => *drops,
            _ => 0,
        });
        let retries = count(|e| match e {
            SpanEvent::Retransmit { retries } => *retries,
            _ => 0,
        });
        assert_eq!(grants, traced.dummy_frames);
        assert_eq!(losses, traced.grant_losses);
        assert_eq!(retries, traced.grant_retries);
    }

    #[test]
    fn traced_naive_run_records_collisions() {
        use zeiot_obs::trace::{SpanEvent, TraceSampler, Tracer};
        let config = MacConfig::default_with_devices(40).unwrap();
        let mut rng = SeedRng::new(9);
        let mut tracer = Tracer::new(TraceSampler::always());
        let _ = simulate_with(
            &config,
            MacMode::Naive,
            SimDuration::from_secs(10),
            &mut rng,
            &MacFaults::none(),
            None,
            Some(&mut tracer),
        );
        let traces = tracer.take_finished();
        assert!(traces
            .iter()
            .flat_map(|t| t.spans.iter())
            .flat_map(|s| s.events.iter())
            .any(|e| matches!(e.event, SpanEvent::Collision { tags } if tags >= 2)));
    }

    #[test]
    fn fault_config_validation() {
        assert!(MacFaults::none().validate().is_ok());
        assert!(MacFaults {
            grant_loss_prob: 1.5,
            ..MacFaults::none()
        }
        .validate()
        .is_err());
        assert!(MacFaults {
            ap_reset_interval: Some(SimDuration::ZERO),
            ..MacFaults::none()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic]
    fn empty_device_list_panics() {
        let config = MacConfig {
            devices: vec![],
            ..MacConfig::default_with_devices(1).unwrap()
        };
        let mut rng = SeedRng::new(1);
        let _ = simulate(&config, MacMode::Naive, SimDuration::from_secs(1), &mut rng);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn report_invariants_hold_for_random_configs(
            seed in 0u64..1000,
            devices in 1usize..30,
            wlan_rate in 5.0f64..400.0,
            bs_success in 0.1f64..1.0,
            scheduled in proptest::bool::ANY,
        ) {
            let mut config = MacConfig::default_with_devices(devices).unwrap();
            config.wlan_arrival_rate_hz = wlan_rate;
            config.bs_packet_success = bs_success;
            let mode = if scheduled { MacMode::Scheduled } else { MacMode::Naive };
            let mut rng = SeedRng::new(seed);
            let report = simulate(&config, mode, SimDuration::from_secs(5), &mut rng);
            // Counter sanity.
            prop_assert!(report.bs_delivered <= report.bs_offered);
            prop_assert!(report.wlan_delivered <= report.wlan_offered);
            prop_assert!(report.bs_dropped <= report.bs_offered);
            // Ratios bounded.
            prop_assert!((0.0..=1.0).contains(&report.wlan_delivery_ratio()));
            prop_assert!((0.0..=1.0).contains(&report.backscatter_delivery_ratio()));
            let utilization = report.busy_airtime.as_secs_f64() / report.duration.as_secs_f64();
            prop_assert!(utilization <= 1.0 + 1e-9);
            // Mode-specific structure.
            if mode == MacMode::Naive {
                prop_assert_eq!(report.dummy_frames, 0);
                prop_assert_eq!(report.dummy_airtime, SimDuration::ZERO);
            }
            // Scheduled delivery never exceeds the link quality by more
            // than sampling noise allows at 5 s horizons.
            if mode == MacMode::Scheduled && report.bs_offered > 20 {
                prop_assert!(
                    report.backscatter_delivery_ratio() <= bs_success + 0.35,
                    "delivery {} vs link {}",
                    report.backscatter_delivery_ratio(),
                    bs_success
                );
            }
        }
    }
}
