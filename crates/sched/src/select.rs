//! Tape selection policies (Section 3.1).
//!
//! The static and dynamic algorithm families differ only in the criterion
//! by which the major rescheduler selects the next tape:
//!
//! * **round robin** — the next tape in jukebox order after the currently
//!   mounted tape that has a pending request;
//! * **max requests** — a tape with the maximal number of pending
//!   requests, ties broken by preferring the first in jukebox order
//!   starting at the currently mounted tape;
//! * **max bandwidth** — like max requests, but by effective bandwidth;
//! * **oldest request, max requests** — among the tapes that can satisfy
//!   the oldest request in the system, choose by max requests;
//! * **oldest request, max bandwidth** — likewise by max bandwidth.
#![allow(clippy::cast_precision_loss)] // queue lengths stay far below 2^53

use tapesim_model::TapeId;
use tapesim_workload::Request;

use crate::api::{JukeboxView, PendingList};
use crate::cost::effective_bandwidth;
use crate::index::{CopyEntry, CopyIndex};

/// The five tape-selection policies of Section 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapeSelectPolicy {
    /// Next tape in jukebox order with a pending request.
    RoundRobin,
    /// Tape with the most pending requests.
    MaxRequests,
    /// Tape with the highest effective bandwidth.
    MaxBandwidth,
    /// Tape satisfying the oldest request, by max requests.
    OldestMaxRequests,
    /// Tape satisfying the oldest request, by max bandwidth.
    OldestMaxBandwidth,
}

impl TapeSelectPolicy {
    /// All five policies, for sweeps over the algorithm family.
    pub const ALL: [TapeSelectPolicy; 5] = [
        TapeSelectPolicy::RoundRobin,
        TapeSelectPolicy::MaxRequests,
        TapeSelectPolicy::MaxBandwidth,
        TapeSelectPolicy::OldestMaxRequests,
        TapeSelectPolicy::OldestMaxBandwidth,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TapeSelectPolicy::RoundRobin => "round-robin",
            TapeSelectPolicy::MaxRequests => "max-requests",
            TapeSelectPolicy::MaxBandwidth => "max-bandwidth",
            TapeSelectPolicy::OldestMaxRequests => "oldest/max-requests",
            TapeSelectPolicy::OldestMaxBandwidth => "oldest/max-bandwidth",
        }
    }

    /// Selects the tape to service next from `index`, built from
    /// `pending` for this `view`, or `None` when no tape can be chosen.
    pub fn select(
        self,
        view: &JukeboxView<'_>,
        pending: &PendingList,
        index: &CopyIndex,
    ) -> Option<TapeId> {
        let oldest = match self {
            TapeSelectPolicy::RoundRobin => {
                // Scan mounted+1, mounted+2, ..., wrapping, ending at the
                // mounted tape itself.
                let t = view.catalog.geometry().tapes;
                let anchor = view.mounted.unwrap_or(TapeId(0));
                return (1..=t)
                    .map(|i| TapeId((anchor.0 + i) % t))
                    .find(|&tape| !index.row(tape).is_empty());
            }
            TapeSelectPolicy::MaxRequests | TapeSelectPolicy::MaxBandwidth => None,
            TapeSelectPolicy::OldestMaxRequests | TapeSelectPolicy::OldestMaxBandwidth => {
                Some(oldest_eligible(view, pending)?)
            }
        };
        let score = match self {
            TapeSelectPolicy::MaxBandwidth | TapeSelectPolicy::OldestMaxBandwidth => {
                Score::Bandwidth
            }
            _ => Score::Requests,
        };
        best_tape(
            view,
            score,
            |tape| index.row(tape),
            |tape| {
                oldest.is_none_or(|r| {
                    view.catalog
                        .replicas(r.block)
                        .iter()
                        .any(|a| a.tape == tape)
                })
            },
        )
    }
}

/// The request whose replica tapes the "oldest request" policies may
/// choose from: normally the oldest pending request. When fault
/// injection has taken *every* copy of the oldest request offline, the
/// policies would otherwise deadlock (no tape can ever be selected), so
/// they fail over to the oldest pending request that still has a copy on
/// a non-offline tape; the stranded request stays pending until a repair
/// brings a copy back. With no offline tapes — every fault-free
/// configuration — this is always the oldest request.
fn oldest_eligible<'p>(view: &JukeboxView<'_>, pending: &'p PendingList) -> Option<&'p Request> {
    let serviceable = |r: &Request| {
        view.catalog
            .replicas(r.block)
            .iter()
            .any(|a| !view.is_offline(a.tape))
    };
    let oldest = pending.oldest()?;
    if serviceable(oldest) {
        return Some(oldest);
    }
    pending.iter().find(|r| serviceable(r))
}

/// What [`best_tape`] maximizes over a tape's row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Score {
    /// The number of requests: the row length.
    Requests,
    /// The effective bandwidth of a sweep over the row's distinct slots.
    Bandwidth,
}

/// The tape ranking of every "best tape" policy, Section 3.1's and the
/// envelope's: among tapes that pass `eligible` and whose `row` (from a
/// [`CopyIndex`], so empty unless the tape is available) is non-empty,
/// the one with the highest `score`, ties broken by the first tape in
/// jukebox order starting at the mounted tape (tape 0 when none is
/// mounted).
pub(crate) fn best_tape<'a>(
    view: &JukeboxView<'_>,
    score: Score,
    row: impl Fn(TapeId) -> &'a [CopyEntry],
    eligible: impl Fn(TapeId) -> bool,
) -> Option<TapeId> {
    let geometry = view.catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    let mut best: Option<(f64, u16, TapeId)> = None;
    for tape in geometry.tape_ids() {
        let row = row(tape);
        if row.is_empty() || !eligible(tape) {
            continue;
        }
        debug_assert!(view.is_available(tape), "a row of an unavailable tape");
        let s = match score {
            Score::Requests => row.len() as f64,
            Score::Bandwidth => effective_bandwidth(view, tape, row),
        };
        let dist = geometry.circular_distance(anchor, tape);
        if best.is_none_or(|(bs, bd, _)| s > bs || (s == bs && dist < bd)) {
            best = Some((s, dist, tape));
        }
    }
    best.map(|(_, _, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_layout::{BlockId, Catalog};
    use tapesim_model::{
        BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, SlotIndex, TimingModel,
    };
    use tapesim_workload::{Request, RequestId};

    /// 4 tapes x 100 slots (1 MB blocks). Block i lives on tape i % 4 at
    /// slot 10 * (i / 4) + 5.
    fn catalog() -> Catalog {
        let g = JukeboxGeometry::new(4, 100);
        let mut b = Catalog::builder(g, BlockSize::from_mb(1), 40, 0);
        for i in 0..40u32 {
            b.place(
                BlockId(i),
                PhysicalAddr {
                    tape: TapeId((i % 4) as u16),
                    slot: SlotIndex(10 * (i / 4) + 5),
                },
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    fn req(id: u64, blockid: u32) -> Request {
        Request {
            id: RequestId(id),
            block: BlockId(blockid),
            arrival: SimTime::ZERO,
        }
    }

    /// Builds the pending list's index and runs the policy on it.
    fn pick(policy: TapeSelectPolicy, v: &JukeboxView<'_>, p: &PendingList) -> Option<TapeId> {
        let mut index = CopyIndex::default();
        index.build(v, p.iter());
        policy.select(v, p, &index)
    }

    fn view<'a>(
        catalog: &'a Catalog,
        timing: &'a TimingModel,
        mounted: Option<TapeId>,
    ) -> JukeboxView<'a> {
        JukeboxView {
            catalog,
            timing,
            mounted,
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        }
    }

    #[test]
    fn empty_pending_selects_nothing() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let v = view(&c, &t, None);
        let p = PendingList::new();
        for policy in TapeSelectPolicy::ALL {
            assert_eq!(pick(policy, &v, &p), None, "{}", policy.name());
        }
    }

    #[test]
    fn round_robin_scans_after_mounted() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Requests on tapes 1 and 3.
        let p: PendingList = vec![req(0, 1), req(1, 3)].into_iter().collect();
        let v = view(&c, &t, Some(TapeId(1)));
        // After tape 1 comes 2 (nothing), then 3 (has a request).
        assert_eq!(pick(TapeSelectPolicy::RoundRobin, &v, &p), Some(TapeId(3)));
        // After tape 3, wraps to 0 (nothing), then 1.
        let v3 = view(&c, &t, Some(TapeId(3)));
        assert_eq!(pick(TapeSelectPolicy::RoundRobin, &v3, &p), Some(TapeId(1)));
    }

    #[test]
    fn round_robin_can_reselect_mounted_as_last_resort() {
        let c = catalog();
        let t = TimingModel::paper_default();
        let p: PendingList = vec![req(0, 2)].into_iter().collect();
        let v = view(&c, &t, Some(TapeId(2)));
        assert_eq!(pick(TapeSelectPolicy::RoundRobin, &v, &p), Some(TapeId(2)));
    }

    #[test]
    fn max_requests_picks_heaviest_tape() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Three requests on tape 2, one on tape 0.
        let p: PendingList = vec![req(0, 0), req(1, 2), req(2, 6), req(3, 10)]
            .into_iter()
            .collect();
        let v = view(&c, &t, None);
        assert_eq!(pick(TapeSelectPolicy::MaxRequests, &v, &p), Some(TapeId(2)));
    }

    #[test]
    fn max_requests_tie_breaks_toward_mounted() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // One request each on tapes 0 and 3.
        let p: PendingList = vec![req(0, 0), req(1, 3)].into_iter().collect();
        // Mounted tape 3: distance(3->3)=0 beats distance(3->0)=1.
        let v = view(&c, &t, Some(TapeId(3)));
        assert_eq!(pick(TapeSelectPolicy::MaxRequests, &v, &p), Some(TapeId(3)));
        // Mounted tape 1: distance(1->3)=2 beats... distance(1->0)=3; so 3.
        let v1 = view(&c, &t, Some(TapeId(1)));
        assert_eq!(
            pick(TapeSelectPolicy::MaxRequests, &v1, &p),
            Some(TapeId(3))
        );
    }

    #[test]
    fn max_bandwidth_prefers_mounted_over_equal_work() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Identical work on tapes 0 and 1 (same slots), but tape 1 is
        // mounted, so it avoids the 81 s switch.
        let p: PendingList = vec![req(0, 0), req(1, 1)].into_iter().collect();
        let v = view(&c, &t, Some(TapeId(1)));
        assert_eq!(
            pick(TapeSelectPolicy::MaxBandwidth, &v, &p),
            Some(TapeId(1))
        );
    }

    #[test]
    fn oldest_policies_restrict_to_tapes_with_oldest() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Oldest request (id 0) is on tape 1; tape 2 has more requests but
        // cannot satisfy the oldest.
        let p: PendingList = vec![req(0, 1), req(1, 2), req(2, 6), req(3, 10)]
            .into_iter()
            .collect();
        let v = view(&c, &t, None);
        assert_eq!(
            pick(TapeSelectPolicy::OldestMaxRequests, &v, &p),
            Some(TapeId(1))
        );
        assert_eq!(
            pick(TapeSelectPolicy::OldestMaxBandwidth, &v, &p),
            Some(TapeId(1))
        );
    }

    #[test]
    fn offline_tapes_are_never_selected() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Requests on tapes 1 and 3; tape 3 has more work but is offline.
        let p: PendingList = vec![req(0, 1), req(1, 3), req(2, 7), req(3, 11)]
            .into_iter()
            .collect();
        let offline = [TapeId(3)];
        let v = JukeboxView {
            offline: &offline,
            fleet: crate::api::FleetView::SINGLE,
            ..view(&c, &t, None)
        };
        for policy in TapeSelectPolicy::ALL {
            assert_eq!(pick(policy, &v, &p), Some(TapeId(1)), "{}", policy.name());
        }
    }

    #[test]
    fn oldest_policies_fail_over_when_oldest_is_stranded() {
        let c = catalog();
        let t = TimingModel::paper_default();
        // Oldest request's only copy is on tape 1, which is offline. The
        // oldest policies must fall back to the next-oldest serviceable
        // request (block 2, on tape 2) instead of deadlocking.
        let p: PendingList = vec![req(0, 1), req(1, 2)].into_iter().collect();
        let offline = [TapeId(1)];
        let v = JukeboxView {
            offline: &offline,
            fleet: crate::api::FleetView::SINGLE,
            ..view(&c, &t, None)
        };
        assert_eq!(
            pick(TapeSelectPolicy::OldestMaxRequests, &v, &p),
            Some(TapeId(2))
        );
        assert_eq!(
            pick(TapeSelectPolicy::OldestMaxBandwidth, &v, &p),
            Some(TapeId(2))
        );
        // When every pending request is stranded, nothing is selected.
        let all_off = [TapeId(1), TapeId(2)];
        let v2 = JukeboxView {
            offline: &all_off,
            fleet: crate::api::FleetView::SINGLE,
            ..view(&c, &t, None)
        };
        assert_eq!(pick(TapeSelectPolicy::OldestMaxRequests, &v2, &p), None);
    }

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<&str> = TapeSelectPolicy::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
