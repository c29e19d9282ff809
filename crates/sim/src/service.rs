//! `JukeboxService`: a long-running request service over the stepped
//! multi-drive engine core.
//!
//! The batch entry points answer "what would this workload have done";
//! the service layer answers "what does this system do to the requests I
//! hand it": a bounded admission queue with typed backpressure, optional
//! per-request deadlines with typed timeout expiry, retry with capped
//! exponential backoff after permanent read failures, and graceful
//! degradation when drives are taken offline.
//!
//! ## Lifecycle
//!
//! Construct a [`SteppedMultiDrive`] in external-arrival mode, wrap it in
//! a [`JukeboxService`], then interleave [`JukeboxService::submit`] and
//! [`JukeboxService::run_until`] calls as simulated time advances;
//! [`JukeboxService::drain`] runs the engine to its horizon, resolves
//! every open ticket, and returns the final [`MetricsReport`] plus
//! [`ServiceStats`].
//!
//! ## Conservation
//!
//! Every submission resolves to **exactly one** of completed / rejected /
//! expired:
//! - *completed*: the block was delivered no later than the deadline;
//! - *rejected*: backpressure refused admission (the queue was full under
//!   [`AdmissionPolicy::RejectNew`], or the ticket was the shed victim
//!   under [`AdmissionPolicy::ShedOldest`]), or no drive was online;
//! - *expired*: the deadline passed while waiting, the block was
//!   delivered after the deadline, retries ran out, or the run drained
//!   with the ticket unresolved.
//!
//! `ServiceStats::check_conservation` asserts the sum; the chaos soak
//! (`tapesim-bench --bin chaos`) asserts it across seeded fault and
//! overload schedules.

use std::collections::{BTreeMap, BTreeSet};

use tapesim_layout::BlockId;
use tapesim_model::{Micros, SimTime};
use tapesim_workload::RequestId;

use crate::error::SimError;
use crate::metrics::MetricsReport;
use crate::multidrive::SteppedMultiDrive;
use crate::stepped::EngineEvent;

/// What the admission layer does when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new submission with [`SimError::Overloaded`].
    RejectNew,
    /// Cancel the oldest still-waiting ticket to make room; if nothing
    /// is cancellable (everything is in-flight), refuse the new
    /// submission instead.
    ShedOldest,
}

/// Configuration of a [`JukeboxService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum number of tickets waiting for service (queued in the
    /// engine or awaiting a retry). Submissions beyond this are subject
    /// to the admission policy.
    pub queue_capacity: usize,
    /// Behavior when the queue is full.
    pub admission: AdmissionPolicy,
    /// Per-request deadline, measured from the submission instant.
    /// `None` disables expiry.
    pub deadline: Option<Micros>,
    /// How many times a permanently failed read is resubmitted before
    /// the ticket expires. Each resubmission lets the scheduler fail
    /// over to any replica that is alive (or has healed) by then.
    pub max_retries: u32,
    /// Backoff before the first retry; doubled per attempt.
    pub backoff_base: Micros,
    /// Upper bound on the per-attempt backoff.
    pub backoff_cap: Micros,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            admission: AdmissionPolicy::RejectNew,
            deadline: None,
            max_retries: 2,
            backoff_base: Micros::from_secs(60),
            backoff_cap: Micros::from_secs(960),
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<(), SimError> {
        if self.queue_capacity == 0 {
            return Err(SimError::InvalidConfig("queue_capacity must be positive"));
        }
        if self.deadline.is_some_and(|d| d.is_zero()) {
            return Err(SimError::InvalidConfig("deadline must be positive"));
        }
        if self.max_retries > 0 && self.backoff_base.is_zero() {
            return Err(SimError::InvalidConfig(
                "backoff_base must be positive when retries are enabled",
            ));
        }
        if self.backoff_cap < self.backoff_base {
            return Err(SimError::InvalidConfig(
                "backoff_cap must be at least backoff_base",
            ));
        }
        Ok(())
    }
}

/// Handle to one submission, returned by [`JukeboxService::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// Externally observable state of a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketState {
    /// Waiting for or receiving service in the engine.
    Queued,
    /// A read attempt failed permanently; the ticket waits out its
    /// backoff before resubmission.
    AwaitingRetry,
    /// Delivered no later than its deadline.
    Completed,
    /// Refused admission (backpressure or no drive online), or shed.
    Rejected,
    /// Timed out: deadline passed, retries exhausted, or unresolved at
    /// drain.
    Expired,
}

/// Counters over every submission the service has seen. Conservation:
/// `submitted == completed + rejected + expired` once
/// [`JukeboxService::drain`] has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Submissions, including rejected ones.
    pub submitted: u64,
    /// Tickets delivered within their deadline.
    pub completed: u64,
    /// Tickets refused admission or shed.
    pub rejected: u64,
    /// Tickets that timed out (waiting, late delivery, or retries
    /// exhausted).
    pub expired: u64,
    /// Resubmissions performed (not counted in `submitted`).
    pub retries: u64,
}

impl ServiceStats {
    /// True when every submission is accounted for exactly once.
    pub fn check_conservation(&self) -> bool {
        self.submitted == self.completed + self.rejected + self.expired
    }
}

/// How a ticket was resolved; each outcome has its own
/// [`ServiceStats`] counter.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Completed,
    Rejected,
    Expired,
}

#[derive(Debug, Clone, Copy)]
enum TicketPhase {
    /// Live in the engine under this request id.
    Active(RequestId),
    /// Backing off; resubmit at the instant.
    Retry(SimTime),
    /// Resolved; the ticket never changes again.
    Done(Outcome),
}

impl TicketPhase {
    fn state(self) -> TicketState {
        match self {
            TicketPhase::Active(_) => TicketState::Queued,
            TicketPhase::Retry(_) => TicketState::AwaitingRetry,
            TicketPhase::Done(Outcome::Completed) => TicketState::Completed,
            TicketPhase::Done(Outcome::Rejected) => TicketState::Rejected,
            TicketPhase::Done(Outcome::Expired) => TicketState::Expired,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TicketRecord {
    block: BlockId,
    deadline: Option<SimTime>,
    attempts: u32,
    phase: TicketPhase,
}

/// The resilient service facade over a [`SteppedMultiDrive`] in
/// external-arrival mode. See the module docs for semantics.
///
/// Resolved tickets stay in `tickets` (for [`JukeboxService::state`])
/// but are never visited again: every per-call pass walks `open`, in
/// ascending index (submission) order, so the engine sees its `cancel`
/// and `submit_at` calls in the same order a scan of every ticket
/// would make them.
pub struct JukeboxService<'a> {
    engine: SteppedMultiDrive<'a>,
    cfg: ServiceConfig,
    tickets: Vec<TicketRecord>,
    /// Indices of the open tickets: phase `Active` or `Retry`.
    open: BTreeSet<usize>,
    /// Open tickets in phase `Retry`.
    retrying: usize,
    /// Engine request id → ticket index (retries mint fresh engine ids).
    by_request: BTreeMap<RequestId, usize>,
    stats: ServiceStats,
    /// Service-side clock: the latest instant the caller has driven the
    /// run to. Never behind the engine clock, but can be ahead of it when
    /// the engine parked with nothing schedulable.
    clock: SimTime,
}

impl<'a> JukeboxService<'a> {
    /// Wraps an external-arrival stepped engine. Fails when the engine
    /// generates its own workload or the config is inconsistent.
    pub fn new(engine: SteppedMultiDrive<'a>, cfg: ServiceConfig) -> Result<Self, SimError> {
        if !engine.is_external() {
            return Err(SimError::InvalidConfig(
                "JukeboxService requires an external-arrival engine",
            ));
        }
        cfg.validate()?;
        Ok(JukeboxService {
            engine,
            cfg,
            tickets: Vec::new(),
            open: BTreeSet::new(),
            retrying: 0,
            by_request: BTreeMap::new(),
            stats: ServiceStats::default(),
            clock: SimTime::ZERO,
        })
    }

    /// Counters so far (final only after [`JukeboxService::drain`]).
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The service clock (the latest instant driven to).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// State of a ticket, if it exists.
    pub fn state(&self, t: Ticket) -> Option<TicketState> {
        let idx = usize::try_from(t.0).ok()?;
        self.tickets.get(idx).map(|r| r.phase.state())
    }

    /// Tickets waiting for service: live in the engine's admission
    /// backlog or backing off before a retry. This is the quantity
    /// metered against [`ServiceConfig::queue_capacity`].
    pub fn backlog(&self) -> usize {
        self.engine.waiting() + self.retrying
    }

    /// Takes a drive out of service or brings it back (administrative,
    /// not the fault model). With survivors remaining the service
    /// degrades gracefully — the victims' requests re-queue onto the
    /// other drives. Losing the *last* drive drains the backlog: every
    /// waiting ticket expires and new submissions are rejected until a
    /// drive returns.
    pub fn set_drive_offline(&mut self, d: usize, offline: bool) -> Result<(), SimError> {
        self.engine.set_drive_offline(d, offline)?;
        if self.engine.drives_online() == 0 {
            self.expire_where(|_| true);
        }
        Ok(())
    }

    /// Number of drives currently available.
    pub fn drives_online(&self) -> usize {
        self.engine.drives_online()
    }

    /// Submits one block read at instant `at` (not before the service
    /// clock). Applies backpressure per the admission policy and starts
    /// the deadline clock at `at`. Returns the ticket, or
    /// [`SimError::Overloaded`] when the submission was rejected (the
    /// rejection is still counted in the stats).
    pub fn submit(&mut self, block: BlockId, at: SimTime) -> Result<Ticket, SimError> {
        self.run_until(at)?;
        let at = at.max(self.clock);
        self.stats.submitted += 1;
        if self.engine.drives_online() == 0 {
            self.stats.rejected += 1;
            return Err(SimError::Overloaded);
        }
        if self.backlog() >= self.cfg.queue_capacity {
            let made_room = match self.cfg.admission {
                AdmissionPolicy::RejectNew => false,
                AdmissionPolicy::ShedOldest => self.shed_oldest(),
            };
            if !made_room {
                self.stats.rejected += 1;
                return Err(SimError::Overloaded);
            }
        }
        let req = self.engine.submit_at(block, at)?;
        let idx = self.tickets.len();
        self.tickets.push(TicketRecord {
            block,
            deadline: self.cfg.deadline.map(|d| at + d),
            attempts: 0,
            phase: TicketPhase::Active(req),
        });
        self.open.insert(idx);
        self.by_request.insert(req, idx);
        Ok(Ticket(idx as u64))
    }

    /// Advances the run to instant `t` (clamped to the horizon):
    /// services requests, resolves completions and failures, expires
    /// deadlines, and performs due retries.
    pub fn run_until(&mut self, t: SimTime) -> Result<(), SimError> {
        let t = t.min(self.engine.horizon()).max(self.clock);
        loop {
            // Perform retries due before the target so resubmission
            // happens at the backoff instant, not late at `t`.
            let due_retry = self
                .open
                .iter()
                .filter_map(|&idx| match self.tickets[idx].phase {
                    TicketPhase::Retry(when) if when <= t => Some(when),
                    _ => None,
                })
                .min();
            let stop_at = due_retry.unwrap_or(t);
            self.engine.step_until(stop_at)?;
            self.clock = self.clock.max(stop_at);
            self.pump()?;
            if due_retry.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// Runs the engine to its horizon and resolves every open ticket
    /// (unresolved ones expire). Returns the engine's metrics report —
    /// with the service-level rejected/expired counters installed — and
    /// the service stats.
    pub fn drain(self) -> Result<(MetricsReport, ServiceStats), SimError> {
        let (report, stats, _) = self.drain_with_tickets()?;
        Ok((report, stats))
    }

    /// [`JukeboxService::drain`], additionally returning the final state
    /// of every ticket in submission order. After draining, each ticket
    /// is exactly one of completed / rejected / expired — the per-ticket
    /// conservation invariant the chaos soak asserts.
    pub fn drain_with_tickets(
        mut self,
    ) -> Result<(MetricsReport, ServiceStats, Vec<TicketState>), SimError> {
        let end = self.engine.horizon();
        self.run_until(end)?;
        // Let the engine run down whatever is still in flight past the
        // park point (it stops at the horizon regardless).
        while self.engine.step()? == crate::stepped::StepOutcome::Running {}
        self.clock = end;
        self.pump()?;
        self.expire_where(|_| true);
        // A ticket can survive `expire_where` only when its request was
        // still inside an active sweep when the horizon hit (cancel
        // refuses in-flight work). The run is over, so it was not
        // delivered: it expires unresolved.
        while let Some(idx) = self.next_open(0) {
            if let TicketPhase::Active(req) = self.tickets[idx].phase {
                self.by_request.remove(&req);
            }
            self.resolve(idx, Outcome::Expired);
        }
        let states = self.tickets.iter().map(|r| r.phase.state()).collect();
        let mut report = self.engine.finish();
        report.rejected = self.stats.rejected;
        report.expired = self.stats.expired;
        Ok((report, self.stats, states))
    }

    /// Drains engine events and applies deadline expiry at the current
    /// clock.
    fn pump(&mut self) -> Result<(), SimError> {
        for ev in self.engine.drain_events() {
            match ev {
                EngineEvent::Completed { req, at } => {
                    let Some(idx) = self.by_request.remove(&req) else {
                        continue;
                    };
                    // Deadline tie-break: a completion at *exactly* the
                    // deadline instant counts as served — the contract is
                    // "delivered no later than the deadline", so expiry
                    // requires `deadline < completion`. The symmetric
                    // rule below expires waiting tickets only once the
                    // clock is strictly past the deadline.
                    let met = self.tickets[idx].deadline.is_none_or(|d| at <= d);
                    let outcome = if met {
                        Outcome::Completed
                    } else {
                        Outcome::Expired
                    };
                    self.resolve(idx, outcome);
                }
                EngineEvent::Failed { req, at } => {
                    let Some(idx) = self.by_request.remove(&req) else {
                        continue;
                    };
                    self.schedule_retry(idx, at);
                }
            }
        }
        // Expire tickets whose deadline is strictly past while they are
        // still cancellable (waiting in the engine, or backing off). A
        // ticket already scheduled into a sweep runs to completion and is
        // classified by its completion instant above.
        let clock = self.clock;
        self.expire_where(|r| r.deadline.is_some_and(|d| d < clock));
        // Resubmit due retries.
        let due: Vec<(usize, SimTime)> = self
            .open
            .iter()
            .filter_map(|&idx| match self.tickets[idx].phase {
                TicketPhase::Retry(when) if when <= clock => Some((idx, when)),
                _ => None,
            })
            .collect();
        for (idx, when) in due {
            let req = self.engine.submit_at(self.tickets[idx].block, when)?;
            self.tickets[idx].phase = TicketPhase::Active(req);
            self.retrying -= 1;
            self.by_request.insert(req, idx);
            self.stats.retries += 1;
        }
        Ok(())
    }

    /// Moves a failed ticket into backoff, or expires it when retries
    /// are exhausted or the backoff could not beat the deadline.
    fn schedule_retry(&mut self, idx: usize, failed_at: SimTime) {
        let rec = &mut self.tickets[idx];
        if rec.attempts >= self.cfg.max_retries {
            self.resolve(idx, Outcome::Expired);
            return;
        }
        let shift = rec.attempts.min(63);
        let backoff = self
            .cfg
            .backoff_base
            .as_micros()
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_cap.as_micros());
        let retry_at = failed_at + Micros::from_micros(backoff);
        // A retry submitted at or after the deadline can never complete
        // in time (completion is strictly after submission), so expire
        // immediately instead of burning the attempt.
        let viable = rec.deadline.is_none_or(|d| retry_at < d);
        if !viable {
            self.resolve(idx, Outcome::Expired);
            return;
        }
        rec.attempts += 1;
        rec.phase = TicketPhase::Retry(retry_at);
        self.retrying += 1;
    }

    /// The first open ticket at index `from` or later.
    fn next_open(&self, from: usize) -> Option<usize> {
        self.open.range(from..).next().copied()
    }

    /// Moves an open ticket to its final phase: the only way a ticket
    /// leaves `open`.
    fn resolve(&mut self, idx: usize, outcome: Outcome) {
        if matches!(self.tickets[idx].phase, TicketPhase::Retry(_)) {
            self.retrying -= 1;
        }
        self.tickets[idx].phase = TicketPhase::Done(outcome);
        self.open.remove(&idx);
        match outcome {
            Outcome::Completed => self.stats.completed += 1,
            Outcome::Rejected => self.stats.rejected += 1,
            Outcome::Expired => self.stats.expired += 1,
        }
    }

    /// Expires every matching ticket that is still cancellable: waiting
    /// in the engine (cancel succeeds) or backing off. In-flight work is
    /// never preempted.
    fn expire_where<F: Fn(&TicketRecord) -> bool>(&mut self, pred: F) {
        let hits: Vec<usize> = self
            .open
            .iter()
            .copied()
            .filter(|&idx| pred(&self.tickets[idx]))
            .collect();
        for idx in hits {
            if self.cancel(idx) {
                self.resolve(idx, Outcome::Expired);
            }
        }
    }

    /// Sheds the oldest cancellable waiting ticket (lowest index =
    /// earliest submission). Returns whether room was made.
    fn shed_oldest(&mut self) -> bool {
        let mut from = 0;
        while let Some(idx) = self.next_open(from) {
            from = idx + 1;
            if self.cancel(idx) {
                self.resolve(idx, Outcome::Rejected);
                return true;
            }
        }
        false
    }

    /// Withdraws an open ticket from service if it is still waiting:
    /// backing off, or queued in the engine and not yet in a sweep.
    fn cancel(&mut self, idx: usize) -> bool {
        match self.tickets[idx].phase {
            TicketPhase::Active(req) if self.engine.cancel(req) => {
                self.by_request.remove(&req);
                true
            }
            TicketPhase::Retry(_) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::trace::NullSink;
    use tapesim_layout::{build_placement, Catalog, LayoutKind, PlacementConfig, PlacementScheme};
    use tapesim_model::{BlockSize, FaultConfig, JukeboxGeometry, TimingModel};
    use tapesim_sched::{make_scheduler, AlgorithmId, Scheduler, TapeSelectPolicy};
    use tapesim_workload::{ArrivalProcess, BlockSampler, RequestFactory};

    fn catalog() -> Catalog {
        build_placement(
            JukeboxGeometry::PAPER_DEFAULT,
            BlockSize::PAPER_DEFAULT,
            PlacementConfig {
                layout: LayoutKind::Horizontal,
                ph_percent: 10.0,
                scheme: PlacementScheme::Replication { nr: 0 },
                sp: 0.0,
            },
        )
        .unwrap()
        .catalog
    }

    fn factory(catalog: &Catalog) -> RequestFactory {
        let sampler = BlockSampler::from_catalog(catalog, 40.0);
        RequestFactory::new(sampler, ArrivalProcess::Closed { queue_length: 1 }, 1)
    }

    fn engine<'a>(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        sched: &'a mut dyn Scheduler,
        fac: &'a mut RequestFactory,
        cfg: &SimConfig,
        drives: u16,
        sink: &'a mut NullSink,
    ) -> SteppedMultiDrive<'a> {
        SteppedMultiDrive::new_external(
            catalog,
            timing,
            sched,
            fac,
            cfg,
            drives,
            &FaultConfig::NONE,
            7,
            sink,
        )
        .unwrap()
    }

    #[test]
    fn happy_path_conserves_and_completes() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Dynamic(TapeSelectPolicy::MaxBandwidth));
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 2, &mut sink);
        let mut svc = JukeboxService::new(eng, ServiceConfig::default()).unwrap();
        let mut tickets = Vec::new();
        for i in 0..25u32 {
            let t = svc
                .submit(
                    BlockId(i * 41),
                    SimTime::ZERO + Micros::from_secs(u64::from(i) * 40),
                )
                .unwrap();
            tickets.push(t);
        }
        let (report, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert_eq!(stats.submitted, 25);
        assert_eq!(stats.completed, 25);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.expired, 0);
        assert_eq!(report.served, 25);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.expired, 0);
    }

    #[test]
    fn reject_new_applies_backpressure() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        let mut svc = JukeboxService::new(
            eng,
            ServiceConfig {
                queue_capacity: 4,
                admission: AdmissionPolicy::RejectNew,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // A burst at t=0 overwhelms the 4-slot queue.
        let mut rejected = 0u64;
        for i in 0..12u32 {
            match svc.submit(BlockId(i * 17), SimTime::ZERO) {
                Ok(_) => {}
                Err(SimError::Overloaded) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "burst should trip backpressure");
        let (report, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert_eq!(stats.rejected, rejected);
        assert_eq!(report.rejected, rejected);
        // Admitted work is eventually served.
        assert_eq!(stats.completed, stats.submitted - rejected);
    }

    #[test]
    fn shed_oldest_prefers_new_work() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        let mut svc = JukeboxService::new(
            eng,
            ServiceConfig {
                queue_capacity: 4,
                admission: AdmissionPolicy::ShedOldest,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..12u32 {
            // Under shed-oldest the burst is admitted by evicting the
            // head of the queue; nothing should error.
            tickets.push(svc.submit(BlockId(i * 17), SimTime::ZERO).unwrap());
        }
        // The earliest cancellable submissions were shed.
        assert_eq!(svc.state(tickets[1]), Some(TicketState::Rejected));
        let (_, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert!(stats.rejected > 0, "shedding counts as rejection");
        assert!(stats.completed > 0);
    }

    #[test]
    fn deadlines_expire_waiting_work() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let blocks: Vec<BlockId> = (0..40u32).map(|i| BlockId(i * 17)).collect();

        // Calibrate: learn the completion-delay spread of this burst
        // without deadlines, then set the deadline to the midpoint so
        // the head of the burst completes in time and the tail cannot.
        let (min_delay, max_delay) = {
            let mut sched = make_scheduler(AlgorithmId::Fifo);
            let mut fac = factory(&cat);
            let mut sink = NullSink;
            let mut eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
            for b in &blocks {
                eng.submit_at(*b, SimTime::ZERO).unwrap();
            }
            eng.step_until(eng.horizon()).unwrap();
            let delays: Vec<u64> = eng
                .drain_events()
                .iter()
                .map(|e| match e {
                    EngineEvent::Completed { at, .. } => at.as_micros(),
                    EngineEvent::Failed { .. } => panic!("fault-free run failed a request"),
                })
                .collect();
            assert_eq!(delays.len(), blocks.len());
            (*delays.iter().min().unwrap(), *delays.iter().max().unwrap())
        };
        assert!(min_delay < max_delay);

        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        let mut svc = JukeboxService::new(
            eng,
            ServiceConfig {
                deadline: Some(Micros::from_micros((min_delay + max_delay) / 2)),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        for b in &blocks {
            let _ = svc.submit(*b, SimTime::ZERO);
        }
        let (report, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert!(stats.expired > 0, "tail of the burst must time out");
        assert_eq!(report.expired, stats.expired);
        assert!(stats.completed > 0, "head of the burst is served in time");
    }

    #[test]
    fn deadline_equal_to_completion_counts_served() {
        // Tie-break coverage: learn the exact completion instant of a
        // lone request, then re-run with the deadline set to exactly that
        // instant (must complete) and to one microsecond earlier (must
        // expire). Determinism makes the twin runs comparable.
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let block = BlockId(123);
        let submit_at = SimTime::ZERO + Micros::from_secs(10);

        let completion = {
            let mut sched = make_scheduler(AlgorithmId::Fifo);
            let mut fac = factory(&cat);
            let mut sink = NullSink;
            let mut eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
            eng.submit_at(block, submit_at).unwrap();
            eng.step_until(eng.horizon()).unwrap();
            let evs = eng.drain_events();
            match evs.as_slice() {
                [EngineEvent::Completed { at, .. }] => *at,
                other => panic!("expected one completion, got {other:?}"),
            }
        };
        let deadline_exact = completion.duration_since(submit_at);

        for (deadline, expect_completed) in [
            (deadline_exact, true),
            (deadline_exact - Micros::from_micros(1), false),
        ] {
            let mut sched = make_scheduler(AlgorithmId::Fifo);
            let mut fac = factory(&cat);
            let mut sink = NullSink;
            let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
            let mut svc = JukeboxService::new(
                eng,
                ServiceConfig {
                    deadline: Some(deadline),
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let t = svc.submit(block, submit_at).unwrap();
            let (_, stats) = svc.drain().unwrap();
            assert!(stats.check_conservation(), "{stats:?}");
            if expect_completed {
                assert_eq!(stats.completed, 1, "exact-deadline completion is served");
            } else {
                assert_eq!(stats.expired, 1, "one microsecond short must expire");
            }
            let _ = t;
        }
    }

    #[test]
    fn last_drive_loss_drains_and_rejects() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 2, &mut sink);
        let mut svc = JukeboxService::new(eng, ServiceConfig::default()).unwrap();
        for i in 0..10u32 {
            svc.submit(
                BlockId(i * 29),
                SimTime::ZERO + Micros::from_secs(u64::from(i)),
            )
            .unwrap();
        }
        svc.run_until(SimTime::ZERO + Micros::from_secs(200))
            .unwrap();
        // One drive down: keep serving on the survivor.
        svc.set_drive_offline(0, true).unwrap();
        assert_eq!(svc.drives_online(), 1);
        svc.run_until(SimTime::ZERO + Micros::from_secs(400))
            .unwrap();
        // Last drive down: backlog drains (expires), new work bounces.
        svc.set_drive_offline(1, true).unwrap();
        assert_eq!(svc.drives_online(), 0);
        assert_eq!(
            svc.submit(BlockId(1), SimTime::ZERO + Micros::from_secs(401)),
            Err(SimError::Overloaded)
        );
        let (_, stats) = svc.drain().unwrap();
        assert!(stats.check_conservation(), "{stats:?}");
        assert_eq!(stats.submitted, 11);
        assert_eq!(stats.rejected, 1);
        assert!(stats.expired > 0, "backlog expired on last-drive loss");
    }

    /// The open-ticket index, checked against a scan of every ticket.
    fn assert_index_matches_scan(svc: &JukeboxService<'_>) {
        let open: BTreeSet<usize> = (0..svc.tickets.len())
            .filter(|&idx| {
                matches!(
                    svc.tickets[idx].phase,
                    TicketPhase::Active(_) | TicketPhase::Retry(_)
                )
            })
            .collect();
        assert_eq!(svc.open, open, "open index out of step with the tickets");
        let retrying = svc
            .tickets
            .iter()
            .filter(|r| matches!(r.phase, TicketPhase::Retry(_)))
            .count();
        assert_eq!(svc.retrying, retrying, "retry count out of step");
    }

    #[test]
    fn open_index_tracks_every_transition() {
        // Without replicas every media error fails its request for good,
        // so tickets cycle through backoff, resubmission and exhaustion
        // alongside shedding, deadline expiry and drive loss.
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig {
            duration: Micros::from_secs(20_000),
            warmup: Micros::ZERO,
            max_pending: 5_000,
        };
        let faults = FaultConfig {
            media_error_per_read: 0.1,
            ..FaultConfig::NONE
        };
        let mut totals = ServiceStats::default();
        for admission in [AdmissionPolicy::RejectNew, AdmissionPolicy::ShedOldest] {
            for seed in 1u64..=2 {
                let mut sched = make_scheduler(AlgorithmId::Fifo);
                let mut fac = factory(&cat);
                let mut sink = NullSink;
                let eng = SteppedMultiDrive::new_external(
                    &cat,
                    &timing,
                    sched.as_mut(),
                    &mut fac,
                    &cfg,
                    3,
                    &faults,
                    seed,
                    &mut sink,
                )
                .unwrap();
                let mut svc = JukeboxService::new(
                    eng,
                    ServiceConfig {
                        queue_capacity: 6,
                        admission,
                        deadline: Some(Micros::from_secs(2_000)),
                        max_retries: 2,
                        backoff_base: Micros::from_secs(30),
                        backoff_cap: Micros::from_secs(240),
                    },
                )
                .unwrap();
                let mut x = seed;
                let mut draw = |n: u64| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (x >> 33) % n
                };
                let mut now = SimTime::ZERO;
                for _ in 0..60 {
                    match draw(4) {
                        0 | 1 => {
                            for i in 0..=draw(5) {
                                let block = BlockId(u32::try_from(draw(500)).unwrap());
                                match svc.submit(block, now + Micros::from_micros(i)) {
                                    Ok(_) | Err(SimError::Overloaded) => {}
                                    Err(e) => panic!("unexpected error: {e}"),
                                }
                            }
                        }
                        2 => {
                            now += Micros::from_secs(draw(400));
                            svc.run_until(now).unwrap();
                        }
                        _ => {
                            let d = usize::try_from(draw(3)).unwrap();
                            svc.set_drive_offline(d, draw(2) == 0).unwrap();
                        }
                    }
                    assert_index_matches_scan(&svc);
                }
                let (_, stats, tickets) = svc.drain_with_tickets().unwrap();
                assert!(stats.check_conservation(), "{stats:?}");
                assert!(tickets.iter().all(|t| matches!(
                    t,
                    TicketState::Completed | TicketState::Rejected | TicketState::Expired
                )));
                totals.completed += stats.completed;
                totals.rejected += stats.rejected;
                totals.expired += stats.expired;
                totals.retries += stats.retries;
            }
        }
        // The mix must have reached every transition the index tracks.
        assert!(totals.completed > 0, "{totals:?}");
        assert!(totals.rejected > 0, "{totals:?}");
        assert!(totals.expired > 0, "{totals:?}");
        assert!(totals.retries > 0, "{totals:?}");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let cat = catalog();
        let timing = TimingModel::paper_default();
        let cfg = SimConfig::quick();
        let mut sched = make_scheduler(AlgorithmId::Fifo);
        let mut fac = factory(&cat);
        let mut sink = NullSink;
        let eng = engine(&cat, &timing, sched.as_mut(), &mut fac, &cfg, 1, &mut sink);
        assert!(JukeboxService::new(
            eng,
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            }
        )
        .is_err());
    }
}
