//! The span recorder and the timing decorators that feed it.
//!
//! Spans are measured from outside the simulator: a [`TimedScheduler`]
//! wraps any `sched::Scheduler`, a [`TimedSink`] wraps any
//! `sim::TraceSink`, and the workload functions open spans around the
//! public calls they make into `layout`, `workload` and `sim`. Each span
//! keeps its name, start, end and parent; the recorder holds them in
//! memory and [`Recorder::summarize`] turns them into per-name totals at
//! the end of a run. Counters are recorded at the same boundaries.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use tapesim::model::TapeId;
use tapesim::sched::{ArrivalOutcome, JukeboxView, PendingList, Scheduler, ServiceList, SweepPlan};
use tapesim::sim::{TraceRecord, TraceSink};
use tapesim::workload::Request;

/// The span names, one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// Set-up of one repetition (root).
    Setup,
    /// The timed run of one repetition (root).
    Run,
    /// `layout::build_placement` / `build_fleet_placement`.
    LayoutBuild,
    /// Input generation (`workload::generate_trace`, request factories).
    WorkloadGen,
    /// `Scheduler::major_reschedule`.
    SchedMajor,
    /// `Scheduler::on_arrival`.
    SchedArrival,
    /// One engine `step` / `step_until` call.
    EngineStep,
    /// `TraceSink::record`.
    TraceRecord,
    /// `JukeboxService::submit`.
    ServiceSubmit,
    /// `JukeboxService::run_until`.
    ServiceRunUntil,
    /// The engine's `finish` (or the service's `drain`, which ends in it).
    MetricsFinish,
}

impl Name {
    /// Every name, in output order.
    pub const ALL: [Name; 11] = [
        Name::Setup,
        Name::Run,
        Name::LayoutBuild,
        Name::WorkloadGen,
        Name::SchedMajor,
        Name::SchedArrival,
        Name::EngineStep,
        Name::TraceRecord,
        Name::ServiceSubmit,
        Name::ServiceRunUntil,
        Name::MetricsFinish,
    ];

    /// The span's name as written out.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Setup => "setup",
            Name::Run => "run",
            Name::LayoutBuild => "layout.build",
            Name::WorkloadGen => "workload.gen",
            Name::SchedMajor => "sched.major",
            Name::SchedArrival => "sched.arrival",
            Name::EngineStep => "sim.engine.step",
            Name::TraceRecord => "sim.trace.record",
            Name::ServiceSubmit => "sim.service.submit",
            Name::ServiceRunUntil => "sim.service.run_until",
            Name::MetricsFinish => "sim.metrics.finish",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: Name,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Counts taken at the span boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `major_reschedule` calls that returned no plan.
    pub major_empty: u64,
    /// Pending-list length summed over `major_reschedule` calls.
    pub pending_sum: u64,
    /// Requests in the returned plans, summed.
    pub plan_requests: u64,
    /// `on_arrival` calls that inserted into the running sweep.
    pub arrival_inserted: u64,
}

/// In-memory span store shared (single-threaded) by the decorators and
/// the workload functions.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<u32>,
    counts: Cell<Counts>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(ROOT),
            counts: Cell::new(Counts::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span and returns
    /// its index for [`Recorder::exit`].
    pub fn enter(&self, name: Name) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans per run");
        spans.push(Span {
            name,
            parent: self.open.get(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.set(id);
        id
    }

    /// Closes the span `id` opened by [`Recorder::enter`].
    pub fn exit(&self, id: u32) {
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.end_ns = end;
        self.open.set(span.parent);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Updates the boundary counters.
    pub fn count(&self, f: impl FnOnce(&mut Counts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// The counters so far.
    pub fn counts(&self) -> Counts {
        self.counts.get()
    }

    /// How many spans were recorded.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// A copy of every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Per-name totals over every span recorded so far.
    pub fn summarize(&self) -> Summary {
        summarize(&self.spans.borrow())
    }
}

/// Runs `f` inside a span when a recorder is attached, else just runs it.
pub fn maybe<T>(rec: Option<&Recorder>, name: Name, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the time child spans cover), ns.
    pub self_ns: u64,
    /// Every span's duration, ns, in recording order.
    pub durations_ns: Vec<u64>,
}

/// Per-name totals of one set of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    by_name: Vec<NameTotals>,
}

impl Summary {
    /// The totals for `name` (all zero when no such span was recorded).
    pub fn get(&self, name: Name) -> &NameTotals {
        &self.by_name[name.index()]
    }
}

/// Computes per-name calls, durations and self times. A span's self
/// time is its duration minus the durations of its direct children;
/// spans are opened and closed in stack order, so children never
/// overlap each other and lie inside their parent.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name = vec![NameTotals::default(); Name::ALL.len()];
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = &mut by_name[s.name.index()];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child);
        t.durations_ns.push(dur);
    }
    Summary { by_name }
}

/// Renders spans one per line as `index parent name start_ns end_ns`
/// (parent `-` for roots).
pub fn write_spans(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            writeln!(
                out,
                "{i}\t-\t{}\t{}\t{}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        } else {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}",
                s.parent,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    Ok(())
}

/// A `Scheduler` decorator that times both entry points and counts what
/// they did, delegating everything to the wrapped scheduler.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    rec: Rc<Recorder>,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Scheduler>, rec: Rc<Recorder>) -> Self {
        TimedScheduler { inner, rec }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan> {
        let waiting = pending.len() as u64;
        let plan = self.rec.span(Name::SchedMajor, || {
            self.inner.major_reschedule(view, pending)
        });
        let planned = plan.as_ref().map_or(0, |p| p.list.requests() as u64);
        self.rec.count(|c| {
            c.pending_sum += waiting;
            c.plan_requests += planned;
            c.major_empty += u64::from(plan.is_none());
        });
        plan
    }

    fn on_arrival(
        &mut self,
        view: &JukeboxView<'_>,
        sweep_tape: TapeId,
        sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        let out = self.rec.span(Name::SchedArrival, || {
            self.inner
                .on_arrival(view, sweep_tape, sweep, request, pending)
        });
        if out == ArrivalOutcome::Inserted {
            self.rec.count(|c| c.arrival_inserted += 1);
        }
        out
    }

    fn checkpoint_state(&self) -> Option<String> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &str) -> Result<(), &'static str> {
        self.inner.restore_state(state)
    }
}

/// A `TraceSink` decorator that times each `record` call.
pub struct TimedSink<S> {
    inner: S,
    rec: Rc<Recorder>,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: S, rec: Rc<Recorder>) -> Self {
        TimedSink { inner, rec }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, rec: TraceRecord) {
        self.rec.span(Name::TraceRecord, || self.inner.record(rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) > step [10,60) > major [20,50) ; step [60,90) > record [70,75)
        let spans = [
            span(Name::Run, ROOT, 0, 100),
            span(Name::EngineStep, 0, 10, 60),
            span(Name::SchedMajor, 1, 20, 50),
            span(Name::EngineStep, 0, 60, 90),
            span(Name::TraceRecord, 3, 70, 75),
        ];
        let s = summarize(&spans);
        assert_eq!(s.get(Name::Run).total_ns, 100);
        assert_eq!(s.get(Name::Run).self_ns, 100 - 50 - 30);
        assert_eq!(s.get(Name::EngineStep).calls, 2);
        assert_eq!(s.get(Name::EngineStep).total_ns, 80);
        assert_eq!(s.get(Name::EngineStep).self_ns, (50 - 30) + (30 - 5));
        assert_eq!(s.get(Name::SchedMajor).self_ns, 30);
        assert_eq!(s.get(Name::TraceRecord).self_ns, 5);
        assert_eq!(s.get(Name::EngineStep).durations_ns, vec![50, 30]);
        assert_eq!(s.get(Name::Setup).calls, 0);
        // Self times plus nothing else cover the root exactly.
        let selves: u64 = Name::ALL.iter().map(|&n| s.get(n).self_ns).sum();
        assert_eq!(selves, 100);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let rec = Recorder::new();
        rec.span(Name::Run, || {
            rec.span(Name::EngineStep, || {
                rec.span(Name::SchedMajor, || {});
            });
            rec.span(Name::EngineStep, || {});
        });
        let spans = rec.spans();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, 1, 0]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let s = rec.summarize();
        let run = s.get(Name::Run);
        let children = s.get(Name::EngineStep).total_ns;
        assert_eq!(run.self_ns, run.total_ns - children);
        let mut out = Vec::new();
        write_spans(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("0\t-\trun\t"));
    }
}
