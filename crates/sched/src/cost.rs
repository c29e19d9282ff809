//! Schedule cost evaluation and effective bandwidth (Section 3.1).
//!
//! The *effective bandwidth* of a schedule is the total number of bytes
//! retrieved divided by the seconds needed to perform the retrieval. The
//! time includes tape-switch overhead (rewind, eject, robotic tape motion,
//! and load) and schedule execution time (locating and reading through the
//! blocks in the service list), computed with the Section 2.1 timing
//! model.

use tapesim_model::{BlockSize, Micros, ReadContext, SlotIndex, TapeId, TimingModel};

use crate::api::{JukeboxView, ServiceList};
use crate::index::{distinct_slots, CopyEntry};

/// Time to execute a sequence of stops in the given order starting with
/// the head at `head`. Each stop is one locate (in whichever direction the
/// target lies) followed by one block read; after a read the head rests at
/// the following slot.
pub fn walk_cost(
    timing: &TimingModel,
    block: BlockSize,
    head: SlotIndex,
    stops: impl IntoIterator<Item = SlotIndex>,
) -> Micros {
    let mut pos = head;
    let mut total = Micros::ZERO;
    for s in stops {
        let (locate, dir) = timing.drive.locate(pos, s, block);
        let ctx = match dir {
            None => ReadContext::Streaming,
            Some(tapesim_model::LocateDirection::Forward) => ReadContext::AfterForwardLocate,
            Some(tapesim_model::LocateDirection::Reverse) => ReadContext::AfterReverseLocate,
        };
        total += locate + timing.drive.read_block(block, ctx);
        pos = s.next();
    }
    total
}

/// Time to execute a full service list (forward then reverse phase) from
/// `head`.
pub fn execution_cost(
    timing: &TimingModel,
    block: BlockSize,
    head: SlotIndex,
    list: &ServiceList,
) -> Micros {
    let stops = list
        .forward_stops()
        .map(|r| r.slot)
        .chain(list.reverse_stops().map(|r| r.slot));
    walk_cost(timing, block, head, stops)
}

/// Cost to prepare `tape` for service: zero when it is already mounted,
/// otherwise rewind (if a tape is mounted) + eject + exchange + load,
/// plus the fleet terms — the wait for this library's robot pool and the
/// pass-through transfer if `tape` is homed in another library. Both
/// fleet terms are exactly zero under [`crate::FleetView::SINGLE`], so
/// single-library costs are unchanged from the pre-fleet model.
pub fn mount_cost(view: &JukeboxView<'_>, tape: TapeId) -> Micros {
    let fleet = view.fleet.robot_wait(view.now) + view.fleet.penalty(tape);
    match view.mounted {
        Some(m) if m == tape => Micros::ZERO,
        Some(_) => {
            view.timing
                .full_switch_from(view.head, view.catalog.block_size())
                + fleet
        }
        // Empty drive: the robot fetches the tape and the drive loads it.
        None => view.timing.robot.exchange() + view.timing.drive.load() + fleet,
    }
}

/// Head position a sweep over `tape` would start from.
pub fn start_head(view: &JukeboxView<'_>, tape: TapeId) -> SlotIndex {
    match view.mounted {
        Some(m) if m == tape => view.head,
        _ => SlotIndex::BOT,
    }
}

/// Effective bandwidth (bytes per second) of sweeping `tape` over the
/// distinct slots of `row` (a [`crate::CopyIndex`] row or row prefix):
/// bytes of the distinct blocks read, divided by mount cost plus sweep
/// execution time.
pub fn effective_bandwidth(view: &JukeboxView<'_>, tape: TapeId, row: &[CopyEntry]) -> f64 {
    let block = view.catalog.block_size();
    let cost = mount_cost(view, tape)
        + walk_cost(
            view.timing,
            block,
            start_head(view, tape),
            distinct_slots(row),
        );
    cost.bytes_per_sec(distinct_slots(row).count() as u64 * block.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PendingList;
    use crate::index::CopyIndex;
    use tapesim_layout::{BlockId, Catalog};
    use tapesim_model::{JukeboxGeometry, PhysicalAddr, SimTime};
    use tapesim_workload::{Request, RequestId};

    fn block1() -> BlockSize {
        BlockSize::from_mb(1)
    }

    fn timing() -> TimingModel {
        TimingModel::paper_default()
    }

    /// 2 tapes x 100 slots of 1 MB; blocks 0..5 on tape 0 at slots
    /// 10,20,30,40,50; blocks 5..10 on tape 1 at slots 5,15,25,35,45.
    fn catalog() -> Catalog {
        let g = JukeboxGeometry::new(2, 100);
        let mut b = Catalog::builder(g, block1(), 10, 0);
        for i in 0..5u32 {
            b.place(
                BlockId(i),
                PhysicalAddr {
                    tape: TapeId(0),
                    slot: SlotIndex(10 + 10 * i),
                },
            )
            .unwrap();
        }
        for i in 0..5u32 {
            b.place(
                BlockId(5 + i),
                PhysicalAddr {
                    tape: TapeId(1),
                    slot: SlotIndex(5 + 10 * i),
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

    #[test]
    fn walk_cost_single_forward_stop() {
        let t = timing();
        let b = block1();
        // Locate 0 -> 10 (10 MB, short fwd) + read after forward locate.
        let cost = walk_cost(&t, b, SlotIndex(0), [SlotIndex(10)]);
        let expect =
            Micros::from_secs_f64(4.834 + 0.378 * 10.0) + Micros::from_secs_f64(0.38 + 1.77);
        assert_eq!(cost, expect);
    }

    #[test]
    fn walk_cost_contiguous_blocks_stream() {
        let t = timing();
        let b = block1();
        // Reading slots 10 and 11: second read needs no locate.
        let cost = walk_cost(&t, b, SlotIndex(10), [SlotIndex(10), SlotIndex(11)]);
        let expect = Micros::from_secs_f64(1.77) + Micros::from_secs_f64(1.77);
        assert_eq!(cost, expect);
    }

    #[test]
    fn walk_cost_reverse_stop() {
        let t = timing();
        let b = block1();
        let cost = walk_cost(&t, b, SlotIndex(30), [SlotIndex(10)]);
        // 20 MB reverse (short) + read after reverse locate.
        let expect = Micros::from_secs_f64(4.99 + 0.328 * 20.0) + Micros::from_secs_f64(1.77);
        assert_eq!(cost, expect);
    }

    #[test]
    fn execution_cost_covers_both_phases() {
        let t = timing();
        let b = block1();
        let mut list = ServiceList::new();
        list.insert_forward(SlotIndex(10), req(0, 0));
        list.insert_forward(SlotIndex(20), req(1, 1));
        list.insert_reverse(SlotIndex(5), req(2, 2));
        let by_walk = walk_cost(
            &t,
            b,
            SlotIndex(0),
            [SlotIndex(10), SlotIndex(20), SlotIndex(5)],
        );
        assert_eq!(execution_cost(&t, b, SlotIndex(0), &list), by_walk);
    }

    fn view_of<'a>(c: &'a Catalog, t: &'a TimingModel, mounted: Option<TapeId>) -> JukeboxView<'a> {
        JukeboxView {
            catalog: c,
            timing: t,
            mounted,
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        }
    }

    fn slots(row: &[CopyEntry]) -> Vec<SlotIndex> {
        distinct_slots(row).collect()
    }

    #[test]
    fn candidate_collects_and_dedups() {
        let c = catalog();
        let t = timing();
        let mut p = PendingList::new();
        p.push(req(0, 0)); // tape 0 slot 10
        p.push(req(1, 6)); // tape 1 slot 15
        p.push(req(2, 0)); // duplicate block
        p.push(req(3, 3)); // tape 0 slot 40
        let mut index = CopyIndex::default();
        index.build(&view_of(&c, &t, None), p.iter());
        // The duplicate block is one stop but counts twice.
        let row0 = index.row(TapeId(0));
        assert_eq!(slots(row0), vec![SlotIndex(10), SlotIndex(40)]);
        assert_eq!(row0.len(), 3);
        let row1 = index.row(TapeId(1));
        assert_eq!(slots(row1), vec![SlotIndex(15)]);
        assert_eq!(row1.len(), 1);
    }

    #[test]
    fn candidate_none_when_tape_has_nothing() {
        let c = catalog();
        let t = timing();
        let mut p = PendingList::new();
        p.push(req(0, 0));
        let v = view_of(&c, &t, None);
        let mut index = CopyIndex::default();
        index.build(&v, p.iter());
        assert!(index.row(TapeId(1)).is_empty());
        // No tape ranking offers a tape with an empty row.
        for policy in crate::TapeSelectPolicy::ALL {
            assert_eq!(policy.select(&v, &p, &index), Some(TapeId(0)));
        }
    }

    #[test]
    fn mount_cost_depends_on_state() {
        let c = catalog();
        let t = timing();
        let view = |mounted, head| JukeboxView {
            catalog: &c,
            timing: &t,
            mounted,
            head,
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: crate::api::FleetView::SINGLE,
        };
        // Already mounted: free.
        assert_eq!(
            mount_cost(&view(Some(TapeId(0)), SlotIndex(7)), TapeId(0)),
            Micros::ZERO
        );
        // Other tape mounted at slot 7: rewind + 81 s.
        let v = view(Some(TapeId(1)), SlotIndex(7));
        let expect = t.full_switch_from(SlotIndex(7), c.block_size());
        assert_eq!(mount_cost(&v, TapeId(0)), expect);
        // Empty drive: exchange + load only.
        assert_eq!(
            mount_cost(&view(None, SlotIndex(0)), TapeId(0)),
            Micros::from_secs(62)
        );
    }

    #[test]
    fn effective_bandwidth_prefers_mounted_tape() {
        let c = catalog();
        let t = timing();
        let p: PendingList = vec![req(0, 0), req(1, 5)].into_iter().collect();
        let view = view_of(&c, &t, Some(TapeId(0)));
        let mut index = CopyIndex::default();
        index.build(&view, p.iter());
        let bw = |tape| effective_bandwidth(&view, tape, index.row(tape));
        // Same single-block work, but tape 1 needs a switch.
        assert!(bw(TapeId(0)) > bw(TapeId(1)));
    }

    #[test]
    fn forward_list_groups_same_block() {
        let c = catalog();
        let t = timing();
        let mut p: PendingList = vec![req(0, 3), req(1, 0), req(2, 3), req(3, 7)]
            .into_iter()
            .collect();
        let mut index = CopyIndex::default();
        index.build(&view_of(&c, &t, None), p.iter());
        let list = index.take_sweep(TapeId(0), u32::MAX, SlotIndex::BOT, &mut p);
        let stops: Vec<(u32, Vec<u64>)> = list
            .forward_stops()
            .map(|s| (s.slot.0, s.requests.iter().map(|r| r.id.0).collect()))
            .collect();
        // Same-slot requests share one stop, in arrival order.
        assert_eq!(stops, vec![(10, vec![1]), (40, vec![0, 2])]);
        assert_eq!(p.iter().map(|r| r.id.0).collect::<Vec<_>>(), [3]);
    }
}
