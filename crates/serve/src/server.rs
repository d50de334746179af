//! The serving layer's front door: tenants → shards → report.

use crate::request::{Completion, Request};
use crate::shard::Shard;
use crate::stats::{ServeReport, TenantStats};
use crate::tenant::Tenant;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_fault::{FaultPlan, FaultStats, RecoveryPolicy};
use zeiot_microdeep::lossy::LossyRuntime;
use zeiot_microdeep::replace::{ReplaceConfig, ReplaceStats, ReplacementEngine};
use zeiot_net::Topology;
use zeiot_obs::trace::{SpanLayer, Tracer};
use zeiot_obs::{Label, Recorder};

/// Sizing and timing of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker shards; tenant `t` is routed to shard `t % shards`.
    pub shards: usize,
    /// Maximum micro-batch size (requests of one tenant dispatched
    /// together).
    pub batch: usize,
    /// Bounded queue capacity per shard; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Worker time per inference.
    pub service_time: SimDuration,
    /// Fixed worker time per dispatched batch (amortized by batching).
    pub batch_overhead: SimDuration,
}

impl ServeConfig {
    /// Validates and builds a config with zero batch overhead.
    ///
    /// # Errors
    ///
    /// Returns an error if any count is zero or `service_time` is zero.
    pub fn new(
        shards: usize,
        batch: usize,
        queue_capacity: usize,
        service_time: SimDuration,
    ) -> Result<Self, String> {
        if shards == 0 || batch == 0 || queue_capacity == 0 {
            return Err(format!(
                "shards ({shards}), batch ({batch}) and queue capacity ({queue_capacity}) must be positive"
            ));
        }
        if service_time.is_zero() {
            return Err("service time must be non-zero".to_owned());
        }
        Ok(Self {
            shards,
            batch,
            queue_capacity,
            service_time,
            batch_overhead: SimDuration::ZERO,
        })
    }

    /// Sets the fixed per-batch dispatch overhead.
    pub fn with_batch_overhead(mut self, overhead: SimDuration) -> Self {
        self.batch_overhead = overhead;
        self
    }
}

/// Degraded-mode serving: route every shard's inferences through a
/// lossy fabric, with an optional stale-result cache as the last rung
/// before failure.
#[derive(Debug, Clone)]
pub struct DegradedServing {
    /// The fault scenario every shard's fabric follows.
    pub plan: FaultPlan,
    /// What a shard does about a lost message.
    pub policy: RecoveryPolicy,
    /// Fabric clock advance per executed inference (one sensing cycle),
    /// moving requests into and out of outage windows.
    pub pass_period: SimDuration,
    /// Answer from the last successful result when the fabric aborts a
    /// pass.
    pub stale_cache: bool,
    /// Runtime re-placement: when set, every tenant gets a
    /// [`ReplacementEngine`] that polls node liveness before each
    /// inference and re-homes units off dark nodes between requests,
    /// instead of letting them degrade to `Stale`/`Failed` for the rest
    /// of the run. `None` preserves the static placement.
    pub replace: Option<ReplaceConfig>,
}

/// What a run produced: the measured report plus the terminal
/// disposition of every offered request, sorted by `(tenant, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-tenant statistics and merged fabric counters.
    pub report: ServeReport,
    /// One entry per offered request.
    pub completions: Vec<Completion>,
}

/// The multi-tenant serving layer; see the crate docs.
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
    topology: Topology,
    tenants: Vec<Tenant>,
    degraded: Option<DegradedServing>,
}

impl Server {
    /// Builds a server hosting `tenants` over `topology` (the mesh the
    /// tenants' models are deployed on, used for hop-accurate fault
    /// latency when degraded serving is enabled).
    ///
    /// # Errors
    ///
    /// Returns an error if `tenants` is empty.
    pub fn new(
        config: ServeConfig,
        topology: Topology,
        tenants: Vec<Tenant>,
    ) -> Result<Self, String> {
        if tenants.is_empty() {
            return Err("a server needs at least one tenant".to_owned());
        }
        Ok(Self {
            config,
            topology,
            tenants,
            degraded: None,
        })
    }

    /// Enables degraded-mode serving.
    pub fn with_degraded(mut self, degraded: DegradedServing) -> Self {
        self.degraded = Some(degraded);
        self
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The hosted tenants.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Runs the serving loop over `horizon` of virtual time.
    ///
    /// Every tenant's arrival stream derives from
    /// [`SeedRng::for_point`]`(seed, tenant index)`; requests are fed to
    /// their shards in global `(arrival, tenant, seq)` order and each
    /// shard is simulated serially, so the whole run is a pure function
    /// of `(server, seed, horizon)` — recording into `recorder` never
    /// perturbs it.
    pub fn run(
        &mut self,
        seed: u64,
        horizon: SimDuration,
        recorder: Option<&mut Recorder>,
    ) -> ServeOutcome {
        self.run_traced(seed, horizon, recorder, None)
    }

    /// [`Server::run`] with causal tracing: every sampled request grows
    /// a span tree (admission → queue → batch → infer → fabric hops) in
    /// `tracer`, retired at completion.
    ///
    /// Tracing is pure observation — the returned [`ServeOutcome`] is
    /// byte-identical to an untraced [`Server::run`] with the same
    /// `(seed, horizon)` ([`Server::run`] itself delegates here with no
    /// tracer, so the two paths are literally the same code).
    pub fn run_traced(
        &mut self,
        seed: u64,
        horizon: SimDuration,
        mut recorder: Option<&mut Recorder>,
        mut tracer: Option<&mut Tracer>,
    ) -> ServeOutcome {
        // Install fresh re-placement engines for this run (stats and
        // liveness memory start clean, like the shards' fabrics). Only
        // CNN tenants get one: the engine migrates DistributedCnn
        // units, which custom models don't have.
        let engine_config = self.degraded.as_ref().and_then(|d| d.replace);
        for tenant in &mut self.tenants {
            tenant.replace = match tenant.model {
                crate::tenant::TenantModel::Cnn { .. } => {
                    engine_config.map(|cfg| ReplacementEngine::new(cfg, &self.topology))
                }
                crate::tenant::TenantModel::Custom(_) => None,
            };
        }

        // Materialize every tenant's arrival stream.
        let mut requests: Vec<Request> = Vec::new();
        for (t, tenant) in self.tenants.iter().enumerate() {
            let mut rng = SeedRng::for_point(seed, t as u64);
            for (seq, arrival) in tenant
                .spec
                .arrivals
                .arrivals(horizon, &mut rng)
                .into_iter()
                .enumerate()
            {
                let seq = seq as u64;
                let (input, label) = tenant.sample(seq);
                requests.push(Request {
                    tenant: t,
                    seq,
                    arrival,
                    deadline: arrival + tenant.spec.deadline,
                    input: input.clone(),
                    label: Some(label),
                });
            }
        }
        requests.sort_by_key(|r| (r.arrival, r.tenant, r.seq));

        let mut stats = vec![TenantStats::default(); self.tenants.len()];
        for r in &requests {
            // zeiot-audit: allow(p1) -- requests are generated from self.tenants, so ids are < stats.len()
            stats[r.tenant].offered += 1;
        }

        let mut shards: Vec<Shard> = (0..self.config.shards)
            .map(|i| {
                let fabric = self.degraded.as_ref().map(|d| {
                    LossyRuntime::new(d.plan.clone(), d.policy, &self.topology, d.pass_period)
                });
                Shard::new(
                    i,
                    self.config.batch,
                    self.config.queue_capacity,
                    self.config.service_time,
                    self.config.batch_overhead,
                    fabric,
                    self.degraded.as_ref().is_some_and(|d| d.stale_cache),
                )
            })
            .collect();

        for req in requests {
            if let Some(tr) = tracer.as_deref_mut() {
                let _ = tr.begin(
                    req.tenant as u64,
                    req.seq,
                    "serve.request",
                    SpanLayer::Request,
                    req.arrival,
                );
            }
            let s = req.tenant % self.config.shards;
            shards[s].offer(
                req,
                &mut self.tenants,
                &mut stats,
                recorder.as_deref_mut(),
                tracer.as_deref_mut(),
            );
        }
        for shard in &mut shards {
            shard.drain(&mut self.tenants, &mut stats, tracer.as_deref_mut());
        }

        // Close every tenant's dwell trajectory: the last completed
        // request's state persists to the end of the horizon, and a
        // tenant that never completed anything dwelt Full throughout.
        let horizon_end = zeiot_core::time::SimTime::ZERO + horizon;
        for shard in &mut shards {
            shard.finalize_dwell(&mut stats, horizon_end);
        }
        for s in &mut stats {
            if s.dwell.total().is_zero() {
                s.dwell.add(crate::stats::DwellState::Full, horizon);
            }
        }

        let mut completions: Vec<Completion> = shards
            .iter_mut()
            .flat_map(Shard::take_completions)
            .collect();
        completions.sort_by_key(|c| (c.tenant, c.seq));

        let fault = self.degraded.as_ref().map(|_| {
            let mut merged = FaultStats::default();
            for shard in &shards {
                if let Some(s) = shard.fault_stats() {
                    merged.merge(s);
                }
            }
            merged
        });
        let replace = engine_config.map(|_| {
            let mut merged = ReplaceStats::default();
            for tenant in &self.tenants {
                if let Some(engine) = &tenant.replace {
                    merged.merge(engine.stats());
                }
            }
            merged
        });

        if let Some(rec) = recorder {
            for (tenant, s) in self.tenants.iter().zip(&stats) {
                let label = Label::part(tenant.spec.name.clone());
                for (name, value) in [
                    ("serve.offered", s.offered),
                    ("serve.admitted", s.admitted),
                    ("serve.served", s.served),
                    ("serve.degraded", s.degraded),
                    ("serve.stale", s.stale),
                    ("serve.failed", s.failed),
                    ("serve.shed.shard_queue_full", s.shed_shard_full),
                    ("serve.shed.tenant_limit", s.shed_tenant_limit),
                    ("serve.deadline_miss", s.deadline_misses),
                ] {
                    rec.add(name, label.clone(), value);
                }
                for &latency in s.latencies() {
                    rec.observe("serve.latency", label.clone(), latency);
                }
                if let Some(q) = tenant.quantized_model() {
                    q.stats().record_to(rec, label.clone());
                }
                if let Some(engine) = &tenant.replace {
                    engine.record_to(rec, label);
                }
            }
            for shard in &shards {
                shard.record_fabric(rec);
            }
        }

        ServeOutcome {
            report: ServeReport {
                horizon,
                tenants: self
                    .tenants
                    .iter()
                    .zip(stats)
                    .map(|(t, s)| (t.spec.name.clone(), s))
                    .collect(),
                fault,
                replace,
            },
            completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::request::{Outcome, RejectReason, ServiceMode};
    use crate::tenant::TenantSpec;
    use zeiot_fault::DegradeMode;
    use zeiot_microdeep::{Assignment, CnnConfig, DistributedCnn, WeightUpdate};
    use zeiot_nn::tensor::Tensor;

    fn topology() -> Topology {
        Topology::grid(3, 3, 2.0, 3.0).unwrap()
    }

    fn small_net(seed: u64) -> DistributedCnn {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topology());
        let mut rng = SeedRng::new(seed);
        DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng)
    }

    fn pool(n: usize) -> Vec<(Tensor, usize)> {
        let mut rng = SeedRng::new(77);
        (0..n)
            .map(|i| {
                let mut img = Tensor::zeros(vec![1, 8, 8]);
                for y in 0..4 {
                    for x in 0..4 {
                        let (yy, xx) = if i % 2 == 0 { (y, x) } else { (y + 4, x + 4) };
                        img.set(&[0, yy, xx], 1.0 + rng.normal_with(0.0, 0.1) as f32);
                    }
                }
                (img, i % 2)
            })
            .collect()
    }

    fn tenant(name: &str, arrivals: ArrivalProcess) -> Tenant {
        let spec = TenantSpec::new(name, arrivals, SimDuration::from_millis(400));
        Tenant::new(spec, small_net(5), pool(8)).unwrap()
    }

    fn server(shards: usize, batch: usize, capacity: usize, tenants: Vec<Tenant>) -> Server {
        let config = ServeConfig::new(shards, batch, capacity, SimDuration::from_millis(40))
            .unwrap()
            .with_batch_overhead(SimDuration::from_millis(20));
        Server::new(config, topology(), tenants).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ServeConfig::new(0, 1, 1, SimDuration::from_millis(1)).is_err());
        assert!(ServeConfig::new(1, 0, 1, SimDuration::from_millis(1)).is_err());
        assert!(ServeConfig::new(1, 1, 0, SimDuration::from_millis(1)).is_err());
        assert!(ServeConfig::new(1, 1, 1, SimDuration::ZERO).is_err());
        let config = ServeConfig::new(2, 4, 8, SimDuration::from_millis(1)).unwrap();
        assert_eq!(config.batch_overhead, SimDuration::ZERO);
        assert!(Server::new(config, topology(), Vec::new()).is_err());
    }

    #[test]
    fn every_offered_request_has_a_disposition() {
        let mut server = server(
            2,
            2,
            16,
            vec![
                tenant("a", ArrivalProcess::poisson(8.0)),
                tenant("b", ArrivalProcess::periodic(SimDuration::from_millis(200))),
            ],
        );
        let outcome = server.run(42, SimDuration::from_secs(5), None);
        let total = outcome.report.total();
        assert_eq!(total.offered, outcome.completions.len() as u64);
        assert_eq!(total.offered, total.served + total.shed() + total.failed);
        assert!(total.served > 0);
        // Completions are sorted and unique by (tenant, seq).
        assert!(outcome
            .completions
            .windows(2)
            .all(|w| (w[0].tenant, w[0].seq) < (w[1].tenant, w[1].seq)));
    }

    #[test]
    fn runs_are_reproducible_and_recording_is_transparent() {
        let run = |record: bool| {
            let mut server = server(
                2,
                3,
                8,
                vec![
                    tenant("a", ArrivalProcess::poisson(12.0)),
                    tenant(
                        "b",
                        ArrivalProcess::bursts(
                            4,
                            SimDuration::from_millis(5),
                            SimDuration::from_millis(600),
                        ),
                    ),
                ],
            );
            let mut rec = Recorder::new();
            let outcome = server.run(7, SimDuration::from_secs(4), record.then_some(&mut rec));
            (outcome.report, outcome.completions)
        };
        let (report_a, completions_a) = run(false);
        let (report_b, completions_b) = run(true);
        assert_eq!(report_a, report_b);
        assert_eq!(completions_a, completions_b);
    }

    #[test]
    fn overload_sheds_with_typed_reasons() {
        // One shard, tiny queue, offered load far beyond capacity.
        let mut server = server(1, 1, 2, vec![tenant("hot", ArrivalProcess::poisson(200.0))]);
        let outcome = server.run(3, SimDuration::from_secs(2), None);
        let stats = outcome.report.tenant(0).unwrap();
        assert!(stats.shed_shard_full > 0, "{stats:?}");
        assert!(stats.shed_rate() > 0.5, "{stats:?}");
        assert!(outcome.completions.iter().any(|c| matches!(
            c.outcome,
            Outcome::Shed {
                reason: RejectReason::ShardQueueFull
            }
        )));
    }

    #[test]
    fn tenant_cap_binds_before_a_roomy_shard_queue() {
        let spec = TenantSpec::new(
            "capped",
            ArrivalProcess::poisson(200.0),
            SimDuration::from_millis(400),
        )
        .with_max_queued(2);
        let capped = Tenant::new(spec, small_net(5), pool(8)).unwrap();
        let mut server = server(1, 1, 64, vec![capped]);
        let outcome = server.run(3, SimDuration::from_secs(2), None);
        let stats = outcome.report.tenant(0).unwrap();
        assert!(stats.shed_tenant_limit > 0, "{stats:?}");
        assert_eq!(stats.shed_shard_full, 0, "{stats:?}");
    }

    #[test]
    fn deadlines_are_missed_under_queueing_not_when_idle() {
        // Light periodic load on an idle worker: no misses.
        let mut light = server(
            1,
            1,
            32,
            vec![tenant(
                "light",
                ArrivalProcess::periodic(SimDuration::from_millis(500)),
            )],
        );
        let outcome = light.run(1, SimDuration::from_secs(4), None);
        assert_eq!(outcome.report.tenant(0).unwrap().deadline_misses, 0);
        // Saturating load with a deep queue: the backlog overruns the
        // 400 ms deadline.
        let mut heavy = server(
            1,
            1,
            64,
            vec![tenant("heavy", ArrivalProcess::poisson(40.0))],
        );
        let outcome = heavy.run(1, SimDuration::from_secs(4), None);
        let stats = outcome.report.tenant(0).unwrap();
        assert!(stats.deadline_misses > 0, "{stats:?}");
        assert!(stats.deadline_miss_rate() > 0.0);
    }

    #[test]
    fn batching_amortizes_overhead_under_load() {
        let offered = ArrivalProcess::poisson(25.0);
        let run = |batch: usize| {
            let mut s = server(1, batch, 64, vec![tenant("t", offered)]);
            let outcome = s.run(11, SimDuration::from_secs(4), None);
            outcome.report.tenant(0).unwrap().clone()
        };
        let unbatched = run(1);
        let batched = run(8);
        // 25 req/s × (40 + 20) ms = 1.5 utilization unbatched: the queue
        // grows without bound. Batch 8 cuts per-request cost to 47.5 ms
        // (utilization < 1.2 → bounded by the queue cap but far fewer
        // late completions).
        assert!(
            batched.p99_latency().unwrap() < unbatched.p99_latency().unwrap(),
            "batched {:?} vs unbatched {:?}",
            batched.p99_latency(),
            unbatched.p99_latency()
        );
        assert!(batched.served >= unbatched.served);
    }

    #[test]
    fn degraded_serving_walks_the_ladder() {
        let degraded = DegradedServing {
            plan: FaultPlan::uniform(9, 0.1).unwrap(),
            policy: RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            pass_period: SimDuration::from_millis(100),
            stale_cache: true,
            replace: None,
        };
        let mut server = server(1, 2, 32, vec![tenant("t", ArrivalProcess::poisson(6.0))])
            .with_degraded(degraded);
        let outcome = server.run(21, SimDuration::from_secs(4), None);
        let stats = outcome.report.tenant(0).unwrap();
        // Zero-fill always completes: everything served, much of it
        // degraded, nothing failed.
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert!(stats.degraded > 0, "{stats:?}");
        let fault = outcome.report.fault.expect("fabric stats present");
        assert!(fault.drops > 0);
        assert!(fault.degraded > 0);
    }

    #[test]
    fn replacement_recovers_tenants_between_requests() {
        use zeiot_core::time::SimTime;
        use zeiot_microdeep::replace::ReplaceConfig;

        // Node 5 goes dark for the whole run; without re-placement every
        // pass substitutes its units' activations forever.
        let outage = || {
            FaultPlan::lossless()
                .with_outage(
                    zeiot_core::id::NodeId::new(5),
                    SimTime::ZERO,
                    SimTime::from_secs(100),
                )
                .unwrap()
        };
        let run = |replace: Option<ReplaceConfig>| {
            let degraded = DegradedServing {
                plan: outage(),
                policy: RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                pass_period: SimDuration::from_millis(100),
                stale_cache: false,
                replace,
            };
            let mut server = server(1, 2, 32, vec![tenant("t", ArrivalProcess::poisson(6.0))])
                .with_degraded(degraded);
            server.run(21, SimDuration::from_secs(4), None)
        };
        let static_run = run(None);
        let replaced = run(Some(ReplaceConfig::incremental(64)));
        let static_stats = static_run.report.tenant(0).unwrap();
        // Statically-placed serving substitutes the dark node's conv and
        // dense traffic on every pass. The engine migrates those units
        // before the first inference; only the node's pinned *sensor*
        // units keep degrading (their readings are physically gone), so
        // the per-pass substitution volume drops.
        assert!(static_stats.degraded > 0, "{static_stats:?}");
        let static_fault = static_run.report.fault.expect("fabric stats");
        let replaced_fault = replaced.report.fault.expect("fabric stats");
        assert!(
            replaced_fault.degraded < static_fault.degraded,
            "replace {replaced_fault:?} vs static {static_fault:?}"
        );
        let rstats = replaced.report.replace.expect("engine stats present");
        assert_eq!(rstats.epochs, 1);
        assert!(rstats.migrations > 0);
        assert!(rstats.handoff_cost > 0);
        assert!(static_run.report.replace.is_none());
    }

    #[test]
    fn zero_fault_replacement_is_byte_identical_to_the_static_path() {
        use zeiot_microdeep::replace::{ReplaceConfig, ReplaceStats};

        let run = |replace: Option<ReplaceConfig>| {
            let degraded = DegradedServing {
                plan: FaultPlan::lossless(),
                policy: RecoveryPolicy::FailFast,
                pass_period: SimDuration::from_millis(100),
                stale_cache: false,
                replace,
            };
            let mut server = server(2, 2, 32, vec![tenant("t", ArrivalProcess::poisson(8.0))])
                .with_degraded(degraded);
            server.run(7, SimDuration::from_secs(4), None)
        };
        let without = run(None);
        let with = run(Some(ReplaceConfig::incremental(8)));
        // The engine never fires on a lossless plan: identical requests,
        // identical logits, identical tenant stats and fabric counters.
        assert_eq!(without.completions, with.completions);
        assert_eq!(without.report.tenants, with.report.tenants);
        assert_eq!(without.report.fault, with.report.fault);
        assert_eq!(with.report.replace, Some(ReplaceStats::default()));
    }

    #[test]
    fn tenants_sharing_a_shard_hold_their_own_last_values() {
        use zeiot_core::id::NodeId;
        use zeiot_core::time::SimTime;

        // Tenant 0 ("b") and tenant 1 ("a") serve copies of one model on
        // one shard. Each shard pass advances the fabric 100 ms, and every
        // node goes dark from 150 ms on: b's first pass and then a's run
        // lit, every later pass substitutes each cross-node value with
        // the last one held for its edge.
        let mut plan = FaultPlan::lossless();
        for node in 0..9 {
            let (from, until) = (SimTime::from_millis(150), SimTime::from_secs(100));
            plan = plan.with_outage(NodeId::new(node), from, until).unwrap();
        }
        let run = |a_pool: Vec<(Tensor, usize)>| {
            let every = ArrivalProcess::periodic(SimDuration::from_millis(200));
            let spec = |name| TenantSpec::new(name, every, SimDuration::from_secs(10));
            let b = Tenant::new(spec("b"), small_net(5), pool(8)).unwrap();
            let a = Tenant::new(spec("a"), small_net(5), a_pool).unwrap();
            let degraded = DegradedServing {
                plan: plan.clone(),
                policy: RecoveryPolicy::Degrade {
                    mode: DegradeMode::LastValueHold,
                },
                pass_period: SimDuration::from_millis(100),
                stale_cache: false,
                replace: None,
            };
            let mut server = server(1, 1, 32, vec![b, a]).with_degraded(degraded);
            server.run(3, SimDuration::from_secs(2), None)
        };
        let served = |outcome: &ServeOutcome, tenant| -> Vec<(ServiceMode, Vec<f32>)> {
            let of_tenant = outcome.completions.iter().filter(|c| c.tenant == tenant);
            of_tenant
                .filter_map(|c| match &c.outcome {
                    Outcome::Served { mode, logits, .. } => Some((*mode, logits.clone())),
                    _ => None,
                })
                .collect()
        };
        let mut shifted = pool(8);
        for v in shifted.iter_mut().flat_map(|(x, _)| x.data_mut()) {
            *v = 3.0 - 2.0 * *v;
        }
        let (first, second) = (run(pool(8)), run(shifted));
        // Tenant a saw different inputs in the two runs...
        assert_ne!(served(&first, 1), served(&second, 1));
        // ...which must not reach tenant b's substituted passes.
        let b = served(&first, 0);
        assert!(b.len() > 2, "{b:?}");
        assert!(b[1..]
            .iter()
            .all(|(mode, _)| *mode == ServiceMode::Degraded));
        assert_eq!(b, served(&second, 0));
    }

    #[test]
    fn stale_cache_answers_when_the_fabric_aborts() {
        // Fail-fast at 0.4% loss: most passes complete (populating the
        // cache), some abort and fall back to stale answers.
        let degraded = DegradedServing {
            plan: FaultPlan::uniform(17, 0.004).unwrap(),
            policy: RecoveryPolicy::FailFast,
            pass_period: SimDuration::from_millis(100),
            stale_cache: true,
            replace: None,
        };
        let mut cached = server(1, 1, 64, vec![tenant("t", ArrivalProcess::poisson(10.0))])
            .with_degraded(degraded);
        let outcome = cached.run(23, SimDuration::from_secs(6), None);
        let stats = outcome.report.tenant(0).unwrap();
        assert!(stats.stale > 0, "{stats:?}");
        assert!(outcome.completions.iter().any(|c| matches!(
            c.outcome,
            Outcome::Served {
                mode: ServiceMode::Stale,
                ..
            }
        )));
        // Without the cache the same aborts become failures.
        let degraded = DegradedServing {
            plan: FaultPlan::uniform(17, 0.004).unwrap(),
            policy: RecoveryPolicy::FailFast,
            pass_period: SimDuration::from_millis(100),
            stale_cache: false,
            replace: None,
        };
        let mut server2 = server(1, 1, 64, vec![tenant("t", ArrivalProcess::poisson(10.0))])
            .with_degraded(degraded);
        let outcome = server2.run(23, SimDuration::from_secs(6), None);
        assert!(outcome.report.tenant(0).unwrap().failed > 0);
    }

    #[test]
    fn int8_tenants_serve_through_the_full_ladder() {
        use crate::tenant::QuantMode;
        let int8_tenant = |seed: u64| {
            let spec = TenantSpec::new(
                "q",
                ArrivalProcess::poisson(6.0),
                SimDuration::from_millis(400),
            )
            .with_quant(QuantMode::Int8);
            Tenant::new(spec, small_net(seed), pool(8)).unwrap()
        };
        // Plain serving: reproducible, counters recorded.
        let run = || {
            let mut server = server(1, 2, 32, vec![int8_tenant(5)]);
            let mut rec = Recorder::new();
            let outcome = server.run(42, SimDuration::from_secs(4), Some(&mut rec));
            (outcome.report, outcome.completions, rec.snapshot())
        };
        let (report_a, completions_a, snap_a) = run();
        let (report_b, completions_b, snap_b) = run();
        assert_eq!(report_a, report_b);
        assert_eq!(completions_a, completions_b);
        assert_eq!(snap_a, snap_b);
        let stats = report_a.tenant(0).unwrap();
        assert!(stats.served > 0);
        let label = Label::part("q");
        assert_eq!(snap_a.counter_value("quant.forwards", &label), stats.served);
        // Degraded serving: the integer pass walks the same ladder.
        let degraded = DegradedServing {
            plan: FaultPlan::uniform(9, 0.1).unwrap(),
            policy: RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            pass_period: SimDuration::from_millis(100),
            stale_cache: true,
            replace: None,
        };
        let mut server2 = server(1, 2, 32, vec![int8_tenant(5)]).with_degraded(degraded);
        let outcome = server2.run(21, SimDuration::from_secs(4), None);
        let stats = outcome.report.tenant(0).unwrap();
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert!(stats.degraded > 0, "{stats:?}");
    }

    #[test]
    fn int8_tenants_keep_their_function_under_re_placement() {
        use crate::tenant::QuantMode;
        use zeiot_core::id::NodeId;
        use zeiot_core::time::SimTime;
        use zeiot_microdeep::replace::ReplaceConfig;
        use zeiot_microdeep::QuantizedCnn;

        // Independent replicas that training drove apart, so a conv unit
        // that changes host reads other weights.
        let trained = |seed| {
            let mut net = small_net(seed);
            let mut rng = SeedRng::new(seed);
            for _ in 0..3 {
                net.train_epoch(&pool(8), 0.1, 4, &mut rng);
            }
            net
        };
        let int8_tenant = |name, seed| {
            let deadline = SimDuration::from_millis(400);
            let spec = TenantSpec::new(name, ArrivalProcess::poisson(6.0), deadline)
                .with_quant(QuantMode::Int8);
            Tenant::new(spec, trained(seed), pool(8)).unwrap()
        };
        // Nodes 4 and 5 go dark once ten passes have packed both
        // tenants' weights, and the engines move their units.
        let mut plan = FaultPlan::lossless();
        for node in [4, 5] {
            let (from, until) = (SimTime::from_secs(1), SimTime::from_secs(100));
            plan = plan.with_outage(NodeId::new(node), from, until).unwrap();
        }
        let degraded = DegradedServing {
            plan,
            policy: RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            pass_period: SimDuration::from_millis(100),
            stale_cache: false,
            replace: Some(ReplaceConfig::incremental(64)),
        };
        let tenants = vec![int8_tenant("q0", 5), int8_tenant("q1", 6)];
        let mut server = server(1, 2, 32, tenants).with_degraded(degraded);
        let outcome = server.run(21, SimDuration::from_secs(4), None);
        let replace = outcome.report.replace.expect("engine stats present");
        assert!(replace.migrations > 0, "{replace:?}");

        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for tenant in server.tenants() {
            // The clone keeps the packed rows `resync_placement` re-pointed;
            // the restored copy packs its own from its integer tables.
            let mut served = tenant.quantized_model().expect("an int8 tenant").clone();
            let json = serde_json::to_string(&served).unwrap();
            let mut restored: QuantizedCnn = serde_json::from_str(&json).unwrap();
            for (x, _) in pool(8) {
                let (got, want) = (served.forward_quantized(&x), restored.forward_quantized(&x));
                assert_eq!(bits(got), bits(want), "{}", tenant.spec.name);
            }
        }
    }

    #[test]
    fn dwell_times_tile_the_horizon_and_track_the_ladder() {
        use crate::stats::DwellState;
        let horizon = SimDuration::from_secs(4);
        // Clean serving: every tenant dwells Full for the whole run.
        let mut clean = server(1, 2, 32, vec![tenant("t", ArrivalProcess::poisson(6.0))]);
        let outcome = clean.run(21, horizon, None);
        let dwell = outcome.report.tenant(0).unwrap().dwell;
        assert!(dwell.total() >= horizon, "{dwell:?}");
        assert_eq!(dwell.degraded, SimDuration::ZERO);
        assert!((dwell.fraction(DwellState::Full) - 1.0).abs() < 1e-12);
        // Lossy serving: the ladder's Degraded rung shows up as dwell
        // time, and the buckets still tile at least the horizon (drain
        // may run past it).
        let degraded = DegradedServing {
            plan: FaultPlan::uniform(9, 0.1).unwrap(),
            policy: RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            pass_period: SimDuration::from_millis(100),
            stale_cache: true,
            replace: None,
        };
        let mut lossy = server(1, 2, 32, vec![tenant("t", ArrivalProcess::poisson(6.0))])
            .with_degraded(degraded);
        let outcome = lossy.run(21, horizon, None);
        let stats = outcome.report.tenant(0).unwrap();
        assert!(stats.degraded > 0, "{stats:?}");
        assert!(
            stats.dwell.degraded > SimDuration::ZERO,
            "{:?}",
            stats.dwell
        );
        assert!(stats.dwell.total() >= horizon, "{:?}", stats.dwell);
        // An idle tenant (no arrivals within the horizon) is credited a
        // full-horizon Full dwell rather than an empty trajectory.
        let mut idle = server(
            1,
            1,
            8,
            vec![tenant("idle", ArrivalProcess::poisson(0.001))],
        );
        let outcome = idle.run(3, horizon, None);
        let report_stats = outcome.report.tenant(0).unwrap();
        assert_eq!(report_stats.served, 0, "{report_stats:?}");
        assert_eq!(report_stats.dwell.full, horizon, "{report_stats:?}");
        let text = outcome.report.to_string();
        assert!(text.contains("dwell"), "{text}");
    }

    #[test]
    fn serve_metrics_reach_the_recorder() {
        let mut server = server(2, 2, 16, vec![tenant("obs", ArrivalProcess::poisson(10.0))]);
        let mut rec = Recorder::new();
        let outcome = server.run(31, SimDuration::from_secs(3), Some(&mut rec));
        let stats = outcome.report.tenant(0).unwrap();
        let label = Label::part("obs");
        assert_eq!(rec.counter_value("serve.offered", &label), stats.offered);
        assert_eq!(rec.counter_value("serve.served", &label), stats.served);
        assert_eq!(
            rec.histogram_ref("serve.latency", &label).unwrap().len(),
            stats.latencies().len()
        );
        let snap = rec.snapshot();
        assert!(snap
            .series
            .iter()
            .any(|s| s.name == "serve.queue_depth" && !s.points.is_empty()));
    }
}
