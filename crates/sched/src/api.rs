//! The scheduling interface of Section 2.2's service model.
//!
//! A scheduling algorithm is specified by a *major rescheduler* that at
//! tape-switch time chooses a tape and forms a retrieval schedule, and an
//! *incremental scheduler* that handles newly arriving requests — either
//! scheduling them on the fly or deferring them until the next invocation
//! of the major rescheduler.
//!
//! A retrieval schedule (the *service list*) is executed in a single sweep
//! over the tape: a forward phase (forward locates only) followed by a
//! reverse phase (reverse locates only).
#![allow(clippy::cast_possible_truncation)] // request ids are minted from a u32-bounded counter

use std::collections::VecDeque;

use tapesim_layout::Catalog;
use tapesim_model::{Micros, SimTime, SlotIndex, TapeId, TimingModel};
use tapesim_workload::Request;

/// Fleet-level state visible to the cost model: what this drive's
/// library robot pool is doing and how far away each tape is homed.
///
/// The pre-fleet engine exposed neither quantity, so the legacy value
/// [`FleetView::SINGLE`] (robot free now, no penalties) keeps every cost
/// computed by a single-library/single-robot run bit-identical to the
/// historical arithmetic — both extra terms are exactly zero micros.
#[derive(Clone, Copy)]
pub struct FleetView<'a> {
    /// Earliest instant the robot pool serving this drive's library can
    /// begin another exchange. `SimTime::ZERO` means "free now" and adds
    /// nothing to any cost.
    pub robot_free: SimTime,
    /// Extra mount latency per tape id (pass-through transfer from the
    /// tape's home library to this drive's library). An empty slice means
    /// no tape carries a penalty.
    pub mount_penalty: &'a [Micros],
}

impl FleetView<'static> {
    /// The legacy single-library view: robot free, no penalties.
    pub const SINGLE: FleetView<'static> = FleetView {
        robot_free: SimTime::ZERO,
        mount_penalty: &[],
    };
}

impl FleetView<'_> {
    /// How long a mount starting at `now` would wait for a robot arm.
    #[inline]
    pub fn robot_wait(&self, now: SimTime) -> Micros {
        Micros::from_micros(self.robot_free.as_micros().saturating_sub(now.as_micros()))
    }

    /// Pass-through penalty for mounting `tape` on this drive (zero when
    /// the tape is homed in this drive's library, and always zero for
    /// the legacy view).
    #[inline]
    pub fn penalty(&self, tape: TapeId) -> Micros {
        self.mount_penalty
            .get(tape.index())
            .copied()
            .unwrap_or(Micros::ZERO)
    }
}

/// A read-only snapshot of the jukebox state handed to schedulers.
///
/// In a single-drive jukebox (the paper's configuration) `unavailable` is
/// empty. The multi-drive extension passes the tapes currently mounted in
/// — or being switched into — *other* drives, which the scheduler must
/// not select.
#[derive(Clone, Copy)]
pub struct JukeboxView<'a> {
    /// The block-to-tape mapping.
    pub catalog: &'a Catalog,
    /// The drive + robot timing model (used for bandwidth estimates).
    pub timing: &'a TimingModel,
    /// The currently mounted tape, if any.
    pub mounted: Option<TapeId>,
    /// Current head position on the mounted tape: the slot at which the
    /// next read would start. Meaningful only when `mounted` is `Some`.
    pub head: SlotIndex,
    /// The current simulation time.
    pub now: SimTime,
    /// Tapes held by other drives; schedulers must not select them.
    /// Must be sorted ascending: [`JukeboxView::is_available`] binary
    /// searches it from the scheduler inner loop.
    pub unavailable: &'a [TapeId],
    /// Tapes currently failed (offline) per the fault injector;
    /// schedulers must not select them. Unlike `unavailable`, offline
    /// tapes may come back after repair, and a request whose only copies
    /// are offline should be left pending rather than scheduled. Must be
    /// sorted ascending, like `unavailable`.
    pub offline: &'a [TapeId],
    /// Fleet-level robot/pass-through state. [`FleetView::SINGLE`] for
    /// single-library runs (adds zero to every cost).
    pub fleet: FleetView<'a>,
}

impl JukeboxView<'_> {
    /// Checks (in debug builds) the sorted-slice contract on
    /// `unavailable` and `offline` that the binary searches below rely
    /// on. Engines call this once per view construction.
    #[inline]
    pub fn debug_assert_sorted(&self) {
        debug_assert!(
            // simlint: allow(panic, windows(2) yields exactly-2-element slices)
            self.unavailable.windows(2).all(|w| w[0] < w[1]),
            "JukeboxView::unavailable must be sorted ascending without duplicates"
        );
        debug_assert!(
            // simlint: allow(panic, windows(2) yields exactly-2-element slices)
            self.offline.windows(2).all(|w| w[0] < w[1]),
            "JukeboxView::offline must be sorted ascending without duplicates"
        );
    }

    /// True when `tape` may be selected by this drive's scheduler: it is
    /// neither held by another drive nor offline due to a fault.
    #[inline]
    pub fn is_available(&self, tape: TapeId) -> bool {
        self.unavailable.binary_search(&tape).is_err() && !self.is_offline(tape)
    }

    /// True when `tape` is failed/offline per the fault injector.
    #[inline]
    pub fn is_offline(&self, tape: TapeId) -> bool {
        self.offline.binary_search(&tape).is_ok()
    }
}

/// One stop of a sweep: a slot to read and the requests it satisfies.
///
/// Multiple outstanding requests for the same block are satisfied by a
/// single physical read, so they share one scheduled stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledRead {
    /// The slot to read on the sweep's tape.
    pub slot: SlotIndex,
    /// The requests satisfied by reading this slot (at least one).
    pub requests: Vec<Request>,
}

/// Which phase of the sweep a stop belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPhase {
    /// Ascending slots, forward locates.
    Forward,
    /// Descending slots, reverse locates, executed after the forward phase.
    Reverse,
}

impl SweepPhase {
    /// Stable lower-case name, used by trace serialization and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            SweepPhase::Forward => "forward",
            SweepPhase::Reverse => "reverse",
        }
    }
}

/// The retrieval schedule for one sweep: a forward phase of ascending
/// slots followed by a reverse phase of descending slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceList {
    forward: VecDeque<ScheduledRead>,
    reverse: VecDeque<ScheduledRead>,
}

impl ServiceList {
    /// An empty service list.
    pub fn new() -> Self {
        ServiceList::default()
    }

    /// Rebuilds a service list from explicit forward and reverse phases —
    /// the checkpoint-restore counterpart of [`ServiceList::forward_stops`]
    /// / [`ServiceList::reverse_stops`]. Errors (rather than panicking) if
    /// the phases are not strictly ordered, since checkpoint data comes
    /// from outside the process.
    pub fn from_parts(
        forward: Vec<ScheduledRead>,
        reverse: Vec<ScheduledRead>,
    ) -> Result<Self, &'static str> {
        if !forward
            .iter()
            .zip(forward.iter().skip(1))
            .all(|(a, b)| a.slot < b.slot)
        {
            return Err("forward stops must be strictly ascending");
        }
        if !reverse
            .iter()
            .zip(reverse.iter().skip(1))
            .all(|(a, b)| a.slot > b.slot)
        {
            return Err("reverse stops must be strictly descending");
        }
        if forward
            .iter()
            .chain(reverse.iter())
            .any(|s| s.requests.is_empty())
        {
            return Err("every stop must carry at least one request");
        }
        Ok(ServiceList {
            forward: forward.into(),
            reverse: reverse.into(),
        })
    }

    /// Builds a forward-only service list from stops sorted ascending by
    /// slot.
    ///
    /// # Panics
    /// Panics in debug builds if the stops are not strictly ascending.
    pub fn from_forward(stops: Vec<ScheduledRead>) -> Self {
        debug_assert!(
            // simlint: allow(panic, windows(2) yields exactly two elements)
            stops.windows(2).all(|w| w[0].slot < w[1].slot),
            "forward stops must be strictly ascending"
        );
        ServiceList {
            forward: stops.into(),
            reverse: VecDeque::new(),
        }
    }

    /// The next stop to execute and its phase, without removing it.
    pub fn peek(&self) -> Option<(&ScheduledRead, SweepPhase)> {
        if let Some(r) = self.forward.front() {
            Some((r, SweepPhase::Forward))
        } else {
            self.reverse.front().map(|r| (r, SweepPhase::Reverse))
        }
    }

    /// Removes and returns the next stop and its phase.
    pub fn pop(&mut self) -> Option<(ScheduledRead, SweepPhase)> {
        if let Some(r) = self.forward.pop_front() {
            Some((r, SweepPhase::Forward))
        } else {
            self.reverse.pop_front().map(|r| (r, SweepPhase::Reverse))
        }
    }

    /// True when both phases are exhausted.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty() && self.reverse.is_empty()
    }

    /// Number of stops remaining (forward + reverse).
    pub fn stops(&self) -> usize {
        self.forward.len() + self.reverse.len()
    }

    /// Number of requests remaining across all stops.
    pub fn requests(&self) -> usize {
        self.forward
            .iter()
            .chain(self.reverse.iter())
            .map(|r| r.requests.len())
            .sum()
    }

    /// Inserts a request into the forward phase at `slot`, merging with an
    /// existing stop at the same slot, keeping ascending order.
    ///
    /// The caller is responsible for checking that `slot` has not yet been
    /// passed by the head.
    pub fn insert_forward(&mut self, slot: SlotIndex, request: Request) {
        Self::insert_ordered(&mut self.forward, slot, request, /*ascending=*/ true);
    }

    /// Inserts a request into the reverse phase at `slot`, merging with an
    /// existing stop at the same slot, keeping descending order.
    pub fn insert_reverse(&mut self, slot: SlotIndex, request: Request) {
        Self::insert_ordered(&mut self.reverse, slot, request, /*ascending=*/ false);
    }

    fn insert_ordered(
        list: &mut VecDeque<ScheduledRead>,
        slot: SlotIndex,
        request: Request,
        ascending: bool,
    ) {
        let pos = list.partition_point(|r| {
            if ascending {
                r.slot < slot
            } else {
                r.slot > slot
            }
        });
        if let Some(stop) = list.get_mut(pos) {
            if stop.slot == slot {
                stop.requests.push(request);
                return;
            }
        }
        list.insert(
            pos,
            ScheduledRead {
                slot,
                requests: vec![request],
            },
        );
    }

    /// Iterator over forward-phase stops in execution order.
    pub fn forward_stops(&self) -> impl Iterator<Item = &ScheduledRead> {
        self.forward.iter()
    }

    /// Iterator over reverse-phase stops in execution order.
    pub fn reverse_stops(&self) -> impl Iterator<Item = &ScheduledRead> {
        self.reverse.iter()
    }

    /// Slot of the last stop of the forward phase, if any.
    pub fn forward_end(&self) -> Option<SlotIndex> {
        self.forward.back().map(|r| r.slot)
    }
}

/// A chosen tape plus the retrieval schedule for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// The tape to service.
    pub tape: TapeId,
    /// The stops to execute.
    pub list: ServiceList,
}

/// The pending list: all requests not yet scheduled for retrieval, in
/// arrival (FIFO) order.
#[derive(Debug, Clone, Default)]
pub struct PendingList {
    queue: VecDeque<Request>,
}

impl PendingList {
    /// An empty pending list.
    pub fn new() -> Self {
        PendingList::default()
    }

    /// Appends a newly arrived or deferred request.
    pub fn push(&mut self, r: Request) {
        self.queue.push_back(r);
    }

    /// The oldest pending request (the head of the list).
    pub fn oldest(&self) -> Option<&Request> {
        self.queue.front()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates the pending requests in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.queue.iter()
    }

    /// Removes and returns all requests for which `pred` is true,
    /// preserving arrival order in both the result and the remainder.
    pub fn extract<F: FnMut(&Request) -> bool>(&mut self, mut pred: F) -> Vec<Request> {
        let mut taken = Vec::new();
        self.queue.retain(|r| {
            if pred(r) {
                taken.push(*r);
                false
            } else {
                true
            }
        });
        taken
    }

    /// Removes the requests whose positions `taken` marks, preserving
    /// arrival order in the remainder.
    pub fn remove_marked(&mut self, taken: &[bool]) {
        let mut marks = taken.iter();
        self.queue.retain(|_| !marks.next().is_some_and(|&t| t));
    }
}

impl FromIterator<Request> for PendingList {
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Self {
        PendingList {
            queue: iter.into_iter().collect(),
        }
    }
}

/// Outcome of the incremental scheduler for a new arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// The request was inserted into the running sweep.
    Inserted,
    /// The request was deferred to the pending list.
    Deferred,
}

/// A scheduling algorithm: a major rescheduler plus an incremental
/// scheduler (Section 2.2).
pub trait Scheduler {
    /// A short, stable name for reports ("dynamic max-bandwidth", ...).
    fn name(&self) -> &str;

    /// Invoked at tape-switch time with the pending list. Selects the tape
    /// to service next, extracts the requests it will serve from
    /// `pending`, and returns the sweep plan. Returns `None` when nothing
    /// can be scheduled (empty pending list).
    fn major_reschedule(
        &mut self,
        view: &JukeboxView<'_>,
        pending: &mut PendingList,
    ) -> Option<SweepPlan>;

    /// Invoked when a request arrives during the execution of a sweep.
    /// Either inserts the request into `sweep` (the in-progress service
    /// list on `sweep_tape`) or defers it by appending to `pending`.
    ///
    /// The default implementation defers (the behaviour of all *static*
    /// algorithms).
    fn on_arrival(
        &mut self,
        _view: &JukeboxView<'_>,
        _sweep_tape: TapeId,
        _sweep: &mut ServiceList,
        request: Request,
        pending: &mut PendingList,
    ) -> ArrivalOutcome {
        pending.push(request);
        ArrivalOutcome::Deferred
    }

    /// Serializes whatever internal state the incremental scheduler
    /// carries across arrivals, for a checkpoint. Most algorithms are
    /// stateless between calls (their plans are derived fresh from the
    /// pending list) and return `None`, the default. The envelope
    /// algorithm returns its per-tape envelope boundaries, which stay
    /// live across a multi-drive sweep.
    fn checkpoint_state(&self) -> Option<String> {
        None
    }

    /// Restores state produced by [`Scheduler::checkpoint_state`] on a
    /// freshly constructed scheduler of the same algorithm. The default
    /// errors: a checkpoint carrying state for a stateless scheduler can
    /// only mean the configurations disagree.
    fn restore_state(&mut self, _state: &str) -> Result<(), &'static str> {
        Err("this scheduler carries no checkpointable state")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::BlockId;
    use tapesim_workload::RequestId;

    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            block: BlockId(id as u32),
            arrival: SimTime::ZERO,
        }
    }

    fn stop(slot: u32, ids: &[u64]) -> ScheduledRead {
        ScheduledRead {
            slot: SlotIndex(slot),
            requests: ids.iter().map(|&i| req(i)).collect(),
        }
    }

    #[test]
    fn service_list_pops_forward_then_reverse() {
        let mut l = ServiceList::from_forward(vec![stop(1, &[0]), stop(5, &[1])]);
        l.insert_reverse(SlotIndex(3), req(2));
        l.insert_reverse(SlotIndex(2), req(3));
        let order: Vec<(u32, SweepPhase)> = std::iter::from_fn(|| l.pop())
            .map(|(s, p)| (s.slot.0, p))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, SweepPhase::Forward),
                (5, SweepPhase::Forward),
                (3, SweepPhase::Reverse),
                (2, SweepPhase::Reverse),
            ]
        );
    }

    #[test]
    fn insert_forward_keeps_ascending_order_and_merges() {
        let mut l = ServiceList::from_forward(vec![stop(2, &[0]), stop(8, &[1])]);
        l.insert_forward(SlotIndex(5), req(2));
        l.insert_forward(SlotIndex(8), req(3)); // merge with existing stop
        let slots: Vec<u32> = l.forward_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![2, 5, 8]);
        assert_eq!(l.stops(), 3);
        assert_eq!(l.requests(), 4);
        let last = l.forward_stops().last().unwrap();
        assert_eq!(last.requests.len(), 2);
    }

    #[test]
    fn insert_reverse_keeps_descending_order() {
        let mut l = ServiceList::new();
        l.insert_reverse(SlotIndex(3), req(0));
        l.insert_reverse(SlotIndex(9), req(1));
        l.insert_reverse(SlotIndex(6), req(2));
        let slots: Vec<u32> = l.reverse_stops().map(|r| r.slot.0).collect();
        assert_eq!(slots, vec![9, 6, 3]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut l = ServiceList::from_forward(vec![stop(1, &[0])]);
        assert_eq!(l.peek().unwrap().0.slot, SlotIndex(1));
        assert_eq!(l.stops(), 1);
        l.pop();
        assert!(l.is_empty());
        assert!(l.peek().is_none());
    }

    #[test]
    fn forward_end_reports_last_forward_slot() {
        let l = ServiceList::from_forward(vec![stop(1, &[0]), stop(7, &[1])]);
        assert_eq!(l.forward_end(), Some(SlotIndex(7)));
        assert_eq!(ServiceList::new().forward_end(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn from_forward_rejects_unsorted() {
        let _ = ServiceList::from_forward(vec![stop(5, &[0]), stop(2, &[1])]);
    }

    #[test]
    fn pending_list_preserves_fifo_order() {
        let mut p = PendingList::new();
        for i in 0..5 {
            p.push(req(i));
        }
        assert_eq!(p.oldest().unwrap().id, RequestId(0));
        assert_eq!(p.len(), 5);
        let ids: Vec<u64> = p.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn remove_marked_keeps_the_rest_in_order() {
        let mut p: PendingList = (0..5).map(req).collect();
        p.remove_marked(&[true, false, false, true, false]);
        assert_eq!(p.iter().map(|r| r.id.0).collect::<Vec<_>>(), [1, 2, 4]);
    }

    #[test]
    fn extract_partitions_preserving_order() {
        let mut p: PendingList = (0..6).map(req).collect();
        let even = p.extract(|r| r.id.0 % 2 == 0);
        assert_eq!(even.iter().map(|r| r.id.0).collect::<Vec<_>>(), [0, 2, 4]);
        assert_eq!(p.iter().map(|r| r.id.0).collect::<Vec<_>>(), [1, 3, 5]);
    }
}
