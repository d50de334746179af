//! One sharded worker queue: bounded admission, EDF ordering,
//! micro-batched dispatch, and the degradation ladder.
//!
//! A shard is a single virtual-time worker in front of a bounded queue.
//! Its life is a deterministic alternation of two moves:
//!
//! * **offer** — an arrival is presented; the shard first dispatches
//!   every micro-batch that completes at or before the arrival instant,
//!   then applies admission control (shard queue bound, then the
//!   tenant's cap) and either enqueues the request or sheds it with a
//!   typed [`RejectReason`].
//! * **dispatch** — when the worker frees up, it pops the
//!   earliest-deadline request (ties broken by `(tenant, seq)`, a total
//!   order) and gathers up to `batch − 1` more queued requests of the
//!   *same tenant* in EDF order — micro-batching amortizes the per-batch
//!   dispatch overhead, but only across requests that share a model.
//!   The batch occupies the worker for `batch_overhead + k ·
//!   service_time` and every request in it completes at the batch's end.
//!
//! A request already past its deadline when dispatched is still served
//! (and counted as a deadline miss): the tenant gets its answer late
//! rather than never, which matches how the rest of the workspace
//! prefers degraded answers over silence.

use crate::request::{Completion, Outcome, RejectReason, Request, ServiceMode, TenantId};
use crate::stats::{DwellState, TenantStats};
use crate::tenant::{Tenant, TenantModel};
use std::collections::BTreeMap;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_fault::FaultStats;
use zeiot_microdeep::lossy::LossyRuntime;
use zeiot_obs::trace::{ClockDomain, SpanEvent, SpanLayer, SpanScope, Tracer};
use zeiot_obs::{Label, Recorder};

/// `argmax` with the same first-tie-wins rule as
/// [`zeiot_nn::tensor::Tensor::argmax`].
fn argmax(values: &[f32]) -> usize {
    let Some(&first) = values.first() else {
        return 0;
    };
    let mut best = 0;
    let mut best_v = first;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// One worker + bounded EDF queue; see the module docs.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    batch: usize,
    queue_capacity: usize,
    service_time: SimDuration,
    batch_overhead: SimDuration,
    /// EDF order with a total tie-break: `(deadline, tenant, seq)`.
    queue: BTreeMap<(SimTime, TenantId, u64), Request>,
    queued_per_tenant: BTreeMap<TenantId, usize>,
    free_at: SimTime,
    fabric: Option<LossyRuntime>,
    stale_enabled: bool,
    stale: BTreeMap<TenantId, Vec<f32>>,
    /// Per tenant: the degradation state it currently dwells in and
    /// when it entered it (the previous completion instant). Tenants
    /// start `Full` at `t = 0`; sheds do not transition the state.
    dwell: BTreeMap<TenantId, (DwellState, SimTime)>,
    completions: Vec<Completion>,
}

impl Shard {
    /// Builds an idle shard. `fabric` is the shard's (optional) lossy
    /// transport; `stale_enabled` arms the stale-result cache rung of
    /// the degradation ladder.
    pub(crate) fn new(
        index: usize,
        batch: usize,
        queue_capacity: usize,
        service_time: SimDuration,
        batch_overhead: SimDuration,
        fabric: Option<LossyRuntime>,
        stale_enabled: bool,
    ) -> Self {
        Self {
            index,
            batch,
            queue_capacity,
            service_time,
            batch_overhead,
            queue: BTreeMap::new(),
            queued_per_tenant: BTreeMap::new(),
            free_at: SimTime::ZERO,
            fabric,
            stale_enabled,
            stale: BTreeMap::new(),
            dwell: BTreeMap::new(),
            completions: Vec::new(),
        }
    }

    /// The shard's index within the server.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Requests currently queued (not in service).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The fabric's fault counters, when this shard serves through one.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fabric.as_ref().map(|rt| rt.stats())
    }

    fn metric_label(&self) -> Label {
        Label::part(format!("shard{}", self.index))
    }

    /// Presents one arrival to the shard.
    pub(crate) fn offer(
        &mut self,
        req: Request,
        tenants: &mut [Tenant],
        stats: &mut [TenantStats],
        recorder: Option<&mut Recorder>,
        mut tracer: Option<&mut Tracer>,
    ) {
        self.dispatch_until(req.arrival, tenants, stats, tracer.as_deref_mut());
        // After the catch-up dispatches, an empty queue means the worker
        // is idle: the next batch cannot start before this arrival.
        if self.queue.is_empty() && self.free_at < req.arrival {
            self.free_at = req.arrival;
        }
        let tenant = req.tenant;
        let queued = self.queued_per_tenant.get(&tenant).copied().unwrap_or(0);
        let reject = if self.queue.len() >= self.queue_capacity {
            Some(RejectReason::ShardQueueFull)
        // zeiot-audit: allow(p1) -- tenant ids are dense server-allocated indices, always < tenants.len()
        } else if queued >= tenants[tenant].spec.max_queued {
            Some(RejectReason::TenantLimit)
        } else {
            None
        };
        match reject {
            Some(reason) => {
                match reason {
                    RejectReason::ShardQueueFull => stats[tenant].shed_shard_full += 1,
                    RejectReason::TenantLimit => stats[tenant].shed_tenant_limit += 1,
                }
                // A shed request's trace is a zero-length root carrying
                // the typed rejection: latency 0, attribution 0.
                if let Some(tr) = tracer {
                    let t = tenant as u64;
                    if let Some(root) = tr.root(t, req.seq) {
                        tr.event(
                            t,
                            req.seq,
                            root,
                            req.arrival,
                            SpanEvent::Shed {
                                reason: reason.label().to_string(),
                            },
                        );
                    }
                    tr.finish(t, req.seq, req.arrival);
                }
                self.completions.push(Completion {
                    tenant,
                    seq: req.seq,
                    arrival: req.arrival,
                    outcome: Outcome::Shed { reason },
                });
            }
            None => {
                stats[tenant].admitted += 1;
                *self.queued_per_tenant.entry(tenant).or_insert(0) += 1;
                self.queue
                    .insert((req.deadline, tenant, req.seq), req.clone());
            }
        }
        if let Some(rec) = recorder {
            rec.sample(
                "serve.queue_depth",
                self.metric_label(),
                req.arrival,
                self.queue.len() as f64,
            );
        }
    }

    /// Dispatches micro-batches while the worker frees up at or before
    /// `t` and work is queued.
    fn dispatch_until(
        &mut self,
        t: SimTime,
        tenants: &mut [Tenant],
        stats: &mut [TenantStats],
        mut tracer: Option<&mut Tracer>,
    ) {
        while !self.queue.is_empty() && self.free_at <= t {
            self.dispatch_batch(tenants, stats, tracer.as_deref_mut());
        }
    }

    /// Dispatches everything still queued (end of the arrival stream).
    pub(crate) fn drain(
        &mut self,
        tenants: &mut [Tenant],
        stats: &mut [TenantStats],
        mut tracer: Option<&mut Tracer>,
    ) {
        while !self.queue.is_empty() {
            self.dispatch_batch(tenants, stats, tracer.as_deref_mut());
        }
    }

    /// Takes the completion log (sorted later by the server).
    pub(crate) fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Closes every tenant's open dwell interval at the end of a run:
    /// the state its last completion left it in persists until
    /// `horizon_end` (or until that completion, when the drain ran past
    /// the horizon). Tenants that never completed a request have no
    /// entry here; the server credits them a full-horizon `Full` dwell.
    pub(crate) fn finalize_dwell(&mut self, stats: &mut [TenantStats], horizon_end: SimTime) {
        for (&tenant, &(state, since)) in &self.dwell {
            let end = if horizon_end > since {
                horizon_end
            } else {
                since
            };
            // zeiot-audit: allow(p1) -- dwell keys are admitted tenant ids, always < stats.len()
            stats[tenant].dwell.add(state, end.duration_since(since));
        }
        self.dwell.clear();
    }

    /// Writes the shard's fabric counters into `recorder` under its
    /// `shard<i>` label.
    pub(crate) fn record_fabric(&self, recorder: &mut Recorder) {
        if let Some(rt) = &self.fabric {
            rt.record_to(recorder, self.metric_label());
        }
    }

    fn dispatch_batch(
        &mut self,
        tenants: &mut [Tenant],
        stats: &mut [TenantStats],
        mut tracer: Option<&mut Tracer>,
    ) {
        let start = self.free_at;
        let Some((&head_key, _)) = self.queue.iter().next() else {
            return; // callers guard on a non-empty queue
        };
        let tenant = head_key.1;
        // EDF head plus up to `batch - 1` more requests of the same
        // tenant, in EDF order.
        let keys: Vec<(SimTime, TenantId, u64)> = self
            .queue
            .keys()
            .filter(|k| k.1 == tenant)
            .take(self.batch)
            .copied()
            .collect();
        let batch: Vec<Request> = keys.iter().filter_map(|k| self.queue.remove(k)).collect();
        if let Some(queued) = self.queued_per_tenant.get_mut(&tenant) {
            *queued = queued.saturating_sub(batch.len());
        }
        let completion = start + self.batch_overhead + self.service_time * batch.len() as u64;
        self.free_at = completion;
        for (slot, req) in batch.into_iter().enumerate() {
            // Serve-clock spans *tile*: queue [arrival, start] and batch
            // [start, completion] cover the root exactly; inside the
            // batch, the dispatch overhead and this request's own
            // service slot are children, leaving the other members'
            // slots as batch self-time. Attribution therefore sums to
            // the end-to-end latency by construction.
            let mut infer_span = None;
            if let Some(tr) = tracer.as_deref_mut() {
                let t = req.tenant as u64;
                if let Some(root) = tr.root(t, req.seq) {
                    let _ = tr.push_span(
                        t,
                        req.seq,
                        root,
                        SpanLayer::Queue,
                        "serve.queue",
                        ClockDomain::Serve,
                        req.arrival,
                        start,
                    );
                    if let Some(batch_span) = tr.push_span(
                        t,
                        req.seq,
                        root,
                        SpanLayer::Batch,
                        "serve.batch",
                        ClockDomain::Serve,
                        start,
                        completion,
                    ) {
                        let _ = tr.push_span(
                            t,
                            req.seq,
                            batch_span,
                            SpanLayer::Batch,
                            "serve.batch_overhead",
                            ClockDomain::Serve,
                            start,
                            start + self.batch_overhead,
                        );
                        let slot_start =
                            start + self.batch_overhead + self.service_time * slot as u64;
                        infer_span = tr.push_span(
                            t,
                            req.seq,
                            batch_span,
                            SpanLayer::Infer,
                            "serve.infer",
                            ClockDomain::Serve,
                            slot_start,
                            slot_start + self.service_time,
                        );
                    }
                }
            }
            let scope = match (tracer.as_deref_mut(), infer_span) {
                (Some(tr), Some(span)) => tr.scope(req.tenant as u64, req.seq, span),
                _ => None,
            };
            let answer = self.execute(&req, tenants, scope);
            // zeiot-audit: allow(p1) -- queued requests carry server-allocated tenant ids < stats.len()
            let s = &mut stats[req.tenant];
            let outcome = match answer {
                Some((mode, logits)) => {
                    s.served += 1;
                    match mode {
                        ServiceMode::Full => {}
                        ServiceMode::Degraded => s.degraded += 1,
                        ServiceMode::Stale => s.stale += 1,
                    }
                    let missed = completion > req.deadline;
                    if missed {
                        s.deadline_misses += 1;
                    }
                    s.push_latency(completion.duration_since(req.arrival));
                    let prediction = argmax(&logits);
                    if let Some(label) = req.label {
                        s.labelled += 1;
                        if prediction == label {
                            s.correct += 1;
                        }
                    }
                    Outcome::Served {
                        completion,
                        mode,
                        logits,
                        prediction,
                        missed_deadline: missed,
                    }
                }
                None => {
                    s.failed += 1;
                    Outcome::Failed
                }
            };
            // Close out the dwell interval that ends at this
            // completion: the tenant was in its previous state from the
            // last transition until now. Completions on one shard are
            // monotone (the worker frees up forward in time), so the
            // interval is never negative.
            let next_state = match &outcome {
                Outcome::Served { mode, .. } => match mode {
                    ServiceMode::Full => DwellState::Full,
                    ServiceMode::Degraded => DwellState::Degraded,
                    ServiceMode::Stale => DwellState::Stale,
                },
                Outcome::Failed => DwellState::Failed,
                Outcome::Shed { .. } => DwellState::Full, // unreachable in dispatch
            };
            let entry = self
                .dwell
                .entry(req.tenant)
                .or_insert((DwellState::Full, SimTime::ZERO));
            s.dwell.add(entry.0, completion.duration_since(entry.1));
            *entry = (next_state, completion);
            if let Some(tr) = tracer.as_deref_mut() {
                let t = req.tenant as u64;
                if let Some(root) = tr.root(t, req.seq) {
                    match &outcome {
                        Outcome::Served {
                            mode,
                            missed_deadline,
                            ..
                        } => {
                            if *mode == ServiceMode::Stale {
                                if let Some(infer) = infer_span {
                                    tr.event(t, req.seq, infer, completion, SpanEvent::Aborted);
                                    tr.event(t, req.seq, infer, completion, SpanEvent::StaleAnswer);
                                }
                            }
                            if *missed_deadline {
                                tr.event(t, req.seq, root, completion, SpanEvent::DeadlineMiss);
                            }
                        }
                        Outcome::Failed => {
                            if let Some(infer) = infer_span {
                                tr.event(t, req.seq, infer, completion, SpanEvent::Aborted);
                            }
                        }
                        Outcome::Shed { .. } => {}
                    }
                }
                tr.finish(t, req.seq, completion);
            }
            self.completions.push(Completion {
                tenant: req.tenant,
                seq: req.seq,
                arrival: req.arrival,
                outcome,
            });
        }
    }

    /// Runs one inference down the degradation ladder. When `scope` is
    /// present, the lossy runtime appends fabric-clock hop spans under
    /// its parent (the request's infer span). A tenant serving in
    /// [`crate::QuantMode::Int8`] executes its frozen integer model
    /// through the very same ladder.
    fn execute(
        &mut self,
        req: &Request,
        tenants: &mut [Tenant],
        mut scope: Option<SpanScope<'_>>,
    ) -> Option<(ServiceMode, Vec<f32>)> {
        // zeiot-audit: allow(p1) -- queued requests carry server-allocated tenant ids < tenants.len()
        let tenant = &mut tenants[req.tenant];
        let replace = &mut tenant.replace;
        let (substituted_before, logits) = match (&mut tenant.model, &mut self.fabric) {
            // No fabric: the exact in-memory pass, byte-identical to
            // calling the model's forward directly.
            (TenantModel::Cnn { net, quantized }, None) => {
                let logits = match quantized {
                    Some(q) => q.forward_quantized(&req.input),
                    None => net.forward(&req.input),
                };
                return Some((ServiceMode::Full, logits.data().to_vec()));
            }
            (TenantModel::Custom(model), None) => {
                return Some((ServiceMode::Full, model.infer(&req.input)));
            }
            (TenantModel::Cnn { net, quantized }, Some(rt)) => {
                // Re-place between requests: poll liveness and migrate
                // units off dark nodes before this inference runs. Done
                // ahead of the substitution snapshot so handoff-frame
                // corruption is charged to the migration (visible in the
                // fabric counters and `replace.migrate` spans), not to
                // this request's service mode.
                if let Some(engine) = replace {
                    if engine.poll(net, rt, scope.as_mut()) > 0 {
                        if let Some(q) = quantized {
                            q.resync_placement(net);
                        }
                    }
                }
                rt.select_model(req.tenant as u64);
                let substituted_before = rt.stats().degraded + rt.stats().corrupted;
                let out = match quantized {
                    Some(q) => q.forward_quantized_lossy_traced(&req.input, rt, scope.as_mut()),
                    None => net.forward_lossy_traced(&req.input, rt, scope.as_mut()),
                };
                rt.advance_pass();
                (substituted_before, out.map(|t| t.data().to_vec()))
            }
            (TenantModel::Custom(model), Some(rt)) => {
                // Custom models walk the very same ladder: their remote
                // feature gathers go through `rt`, substitutions mark
                // the answer Degraded, and an aborted pass falls back to
                // the stale cache.
                rt.select_model(req.tenant as u64);
                let substituted_before = rt.stats().degraded + rt.stats().corrupted;
                let out = model.infer_lossy(&req.input, rt, scope.as_mut());
                rt.advance_pass();
                (substituted_before, out)
            }
        };
        self.settle_lossy(req.tenant, substituted_before, logits)
    }

    /// The shared tail of a lossy execution: classify the completed
    /// pass as Full/Degraded from the fabric's substitution delta, feed
    /// the stale cache, or — on an aborted pass — fall back to it.
    fn settle_lossy(
        &mut self,
        tenant: TenantId,
        substituted_before: u64,
        logits: Option<Vec<f32>>,
    ) -> Option<(ServiceMode, Vec<f32>)> {
        let rt = self.fabric.as_mut()?;
        match logits {
            Some(logits) => {
                let substituted_after = rt.stats().degraded + rt.stats().corrupted;
                let mode = if substituted_after > substituted_before {
                    ServiceMode::Degraded
                } else {
                    ServiceMode::Full
                };
                if self.stale_enabled {
                    self.stale.insert(tenant, logits.clone());
                }
                Some((mode, logits))
            }
            None => {
                rt.note_aborted();
                if self.stale_enabled {
                    self.stale
                        .get(&tenant)
                        .cloned()
                        .map(|logits| (ServiceMode::Stale, logits))
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_matches_tensor_semantics() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1); // first tie wins
        assert_eq!(argmax(&[-1.0]), 0);
        assert_eq!(argmax(&[0.5, 0.25, 0.9]), 2);
    }
}
