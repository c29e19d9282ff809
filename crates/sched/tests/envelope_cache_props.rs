//! Property suite for the pending-copy index (`CopyIndex`) every major
//! rescheduler reads, the tape ranking built on it, the envelope's
//! extension cache (`ExtensionCache`) and the schedulers' reuse of their
//! buffers across calls: every shortcut must be bit-identical to a fresh
//! recomputation or a plain catalog scan.
//!
//! Four properties on random catalogs and request queues:
//!
//! 1. `compute_upper_envelope` (cached extension lists, invalidation on
//!    change) and `compute_upper_envelope_fresh` (rebuild everything on
//!    every iteration) produce identical envelopes, assignments, and
//!    per-tape counts.
//! 2. Every `CopyIndex` row equals a `copy_on_tape` scan of the pending
//!    list sorted by `(slot, position)`; every cached extension list
//!    holds exactly the distinct slots of the unassigned requests' copies
//!    (checked against a catalog scan), and every cached per-prefix cost
//!    equals the tape-switch charge plus an independent `prefix_cost`
//!    recomputation over those slots — exact `Micros` equality, no
//!    tolerance.
//! 3. One persistent `EnvelopeScheduler` per policy, reusing its buffers
//!    through a random sequence of arrivals (duplicates included),
//!    in-sweep arrivals, completions, cancellations, tape availability
//!    flips and head moves, returns at every major reschedule the same
//!    plan, remaining pending list and envelope as a brand-new
//!    scheduler given the same inputs.
//! 4. One persistent static scheduler per `TapeSelectPolicy`, through
//!    arrivals, duplicates, cancellations, held and offline tapes, mounts
//!    and head moves, chooses at every major reschedule the tape a
//!    test-local reference ranking picks from a catalog scan, and plans
//!    exactly the scan's sweep over it.
//!
//! A unit test pins the duplicate-request case on a hand-built catalog:
//! a block's slot stays inside the persistent scheduler's envelope while
//! any request for it is pending, and a sweep takes all of them at once.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tapesim_layout::{BlockId, Catalog};
use tapesim_model::{
    BlockSize, JukeboxGeometry, PhysicalAddr, SimTime, SlotIndex, TapeId, TimingModel,
};
use tapesim_sched::envelope::envelope_after_absorb;
use tapesim_sched::{
    compute_upper_envelope, compute_upper_envelope_fresh, mount_cost, prefix_cost, start_head,
    walk_cost, CopyIndex, EnvelopePolicy, EnvelopeScheduler, ExtensionCache, JukeboxView,
    PendingList, ScheduledRead, Scheduler, StaticScheduler, SweepPlan, TapeSelectPolicy,
};
use tapesim_workload::{Request, RequestId};

const TAPES: u16 = 3;
const SLOTS: u32 = 500;

/// Builds a random catalog on `TAPES` tapes x `SLOTS` slots (1 MB
/// blocks), each block with the requested number of copies at random
/// slots. Returns `None` when the placement stream runs dry.
#[allow(clippy::cast_possible_truncation)] // at most 8 blocks per generated case
fn random_catalog(
    placements: &[(u16, u32)],
    copies_per_block: &[usize],
) -> Option<(Catalog, Vec<BlockId>)> {
    let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
    let blocks = copies_per_block.len() as u32;
    let mut builder = Catalog::builder(g, BlockSize::from_mb(1), blocks, 0);
    let mut it = placements.iter();
    let mut ids = Vec::new();
    for (b, &copies) in copies_per_block.iter().enumerate() {
        let id = BlockId(b as u32);
        ids.push(id);
        let mut placed_tapes = Vec::new();
        let mut placed = 0;
        while placed < copies {
            let &(t, s) = it.next()?;
            let tape = TapeId(t % TAPES);
            if placed_tapes.contains(&tape) {
                continue;
            }
            let addr = PhysicalAddr {
                tape,
                slot: SlotIndex(s % SLOTS),
            };
            if builder.place(id, addr).is_ok() {
                placed_tapes.push(tape);
                placed += 1;
            }
        }
    }
    builder.build().ok().map(|c| (c, ids))
}

fn one_request_per_block(ids: &[BlockId]) -> Vec<Request> {
    ids.iter()
        .enumerate()
        .map(|(i, &b)| Request {
            id: RequestId(i as u64),
            block: b,
            arrival: SimTime::ZERO,
        })
        .collect()
}

/// Every copy of a `pending` request on `tape`, as `(slot, position)`
/// sorted by slot and then position: a `CopyIndex` row by catalog scan.
fn scan_row<'r>(
    catalog: &Catalog,
    pending: impl IntoIterator<Item = &'r Request>,
    tape: TapeId,
) -> Vec<(SlotIndex, usize)> {
    let mut row: Vec<(SlotIndex, usize)> = pending
        .into_iter()
        .enumerate()
        .filter_map(|(i, r)| catalog.copy_on_tape(r.block, tape).map(|a| (a.slot, i)))
        .collect();
    row.sort_unstable();
    row
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn cached_envelope_equals_fresh_recomputation(
        placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 60),
        copies in proptest::collection::vec(1usize..=3, 2..=8),
        mounted in proptest::option::of(0u16..TAPES),
        head in 0u32..SLOTS,
    ) {
        let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
            return Ok(());
        };
        let timing = TimingModel::paper_default();
        let view = JukeboxView {
            catalog: &catalog,
            timing: &timing,
            mounted: mounted.map(TapeId),
            head: SlotIndex(head),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: tapesim_sched::FleetView::SINGLE,
        };
        let pending = one_request_per_block(&ids);
        let cached = compute_upper_envelope(&view, &pending);
        let fresh = compute_upper_envelope_fresh(&view, &pending);
        prop_assert_eq!(cached, fresh);
    }

    #[test]
    fn cached_prefix_costs_match_fresh_prefix_cost(
        placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 60),
        copies in proptest::collection::vec(1usize..=3, 2..=8),
        mounted in proptest::option::of(0u16..TAPES),
    ) {
        let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
            return Ok(());
        };
        let timing = TimingModel::paper_default();
        let view = JukeboxView {
            catalog: &catalog,
            timing: &timing,
            mounted: mounted.map(TapeId),
            head: SlotIndex(0),
            now: SimTime::ZERO,
            unavailable: &[],
            offline: &[],
            fleet: tapesim_sched::FleetView::SINGLE,
        };
        let pending = one_request_per_block(&ids);
        // Drive the cache exactly as the extension loop does: from the
        // post-absorption envelope and assignment.
        let (env, assigned) = envelope_after_absorb(&view, &pending);
        let mut index = CopyIndex::default();
        index.build(&view, &pending);
        let mut cache = ExtensionCache::default();
        cache.reset(usize::from(TAPES));
        for t in 0..TAPES {
            let tape = TapeId(t);
            // The index row against a plain catalog scan.
            prop_assert_eq!(index.row(tape), scan_row(&catalog, &pending, tape), "tape {} row", t);
            cache.refresh(&view, &index, &assigned, &env, tape);
            prop_assert_eq!(cache.start(tape), SlotIndex(env[tape.index()]));
            let slots = cache.slots(tape).to_vec();
            // The list-based rebuild against a plain catalog scan.
            let mut scanned: Vec<SlotIndex> = pending
                .iter()
                .zip(&assigned)
                .filter(|(_, a)| a.is_none())
                .filter_map(|(r, _)| catalog.copy_on_tape(r.block, tape))
                .map(|a| a.slot)
                .collect();
            scanned.sort_unstable();
            scanned.dedup();
            prop_assert_eq!(&slots, &scanned, "tape {} extension list", t);
            let costs = cache.prefix_costs(tape).to_vec();
            prop_assert_eq!(slots.len(), costs.len());
            for k in 0..slots.len() {
                let expect =
                    cache.switch_charge(tape) + prefix_cost(&view, cache.start(tape), &slots[..=k]);
                prop_assert_eq!(
                    costs[k],
                    expect,
                    "tape {} prefix {} diverges from fresh recomputation",
                    t,
                    k
                );
            }
        }
    }

    /// Property 3: one persistent scheduler per policy, carried through
    /// arrivals (some of them in-sweep arrivals that extend its envelope),
    /// duplicate requests, completions, cancellations, availability flips
    /// and head moves, plans every major reschedule exactly as a
    /// brand-new scheduler does on the same inputs. The persistent
    /// scheduler's envelope is the "indexed" one: computed with the copy
    /// lists and buffers it carries over from earlier calls.
    #[test]
    fn indexed_envelope_equals_fresh_across_membership_churn(
        placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 80),
        copies in proptest::collection::vec(1usize..=3, 3..=8),
        mounted in proptest::option::of(0u16..TAPES),
        ops in proptest::collection::vec((0u16..7, 0u32..1000), 1..40),
    ) {
        let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
            return Ok(());
        };
        for policy in EnvelopePolicy::ALL {
            check_persistent_scheduler(&catalog, &ids, mounted.map(TapeId), &ops, policy)?;
        }
    }

    /// Property 4: every `TapeSelectPolicy` ranks tapes from the index
    /// exactly as a reference ranking over a catalog scan does.
    #[test]
    fn tape_selection_equals_reference_ranking_across_churn(
        placements in proptest::collection::vec((0u16..TAPES, 0u32..SLOTS), 80),
        copies in proptest::collection::vec(1usize..=3, 3..=8),
        ops in proptest::collection::vec((0u16..7, 0u32..1000), 1..40),
    ) {
        let Some((catalog, ids)) = random_catalog(&placements, &copies) else {
            return Ok(());
        };
        for policy in TapeSelectPolicy::ALL {
            check_family_scheduler(&catalog, &ids, &ops, policy)?;
        }
    }
}

/// Flips `tape`'s membership of the sorted set `tapes`.
fn flip(tapes: &mut Vec<TapeId>, tape: TapeId) {
    match tapes.binary_search(&tape) {
        Ok(p) => {
            tapes.remove(p);
        }
        Err(p) => tapes.insert(p, tape),
    }
}

/// The tape `policy` must choose, from a catalog scan of `pending`: the
/// next non-empty available tape after the anchor for round robin,
/// otherwise the highest request count or effective bandwidth among
/// eligible available tapes, ties to the smallest distance from the
/// anchor. The oldest-request policies are eligible on the replica tapes
/// of the oldest request with a copy on a tape that is not offline.
#[allow(clippy::cast_precision_loss)] // a few dozen requests at most
fn reference_select(
    policy: TapeSelectPolicy,
    view: &JukeboxView<'_>,
    pending: &PendingList,
) -> Option<TapeId> {
    let catalog = view.catalog;
    let geometry = catalog.geometry();
    let anchor = view.mounted.unwrap_or(TapeId(0));
    let candidates = geometry.tape_ids().filter_map(|tape| {
        let mut slots: Vec<SlotIndex> = scan_row(catalog, pending.iter(), tape)
            .into_iter()
            .map(|(slot, _)| slot)
            .collect();
        let count = slots.len();
        slots.dedup();
        (view.is_available(tape) && count > 0).then_some((tape, count, slots))
    });
    if policy == TapeSelectPolicy::RoundRobin {
        let after = TapeId((anchor.0 + 1) % geometry.tapes);
        return candidates
            .min_by_key(|&(tape, _, _)| geometry.circular_distance(after, tape))
            .map(|(tape, _, _)| tape);
    }
    let eligible: Option<Vec<TapeId>> = match policy {
        TapeSelectPolicy::OldestMaxRequests | TapeSelectPolicy::OldestMaxBandwidth => {
            let r = pending.iter().find(|r| {
                catalog
                    .replicas(r.block)
                    .iter()
                    .any(|a| !view.offline.contains(&a.tape))
            })?;
            Some(catalog.replicas(r.block).iter().map(|a| a.tape).collect())
        }
        _ => None,
    };
    let by_bandwidth = matches!(
        policy,
        TapeSelectPolicy::MaxBandwidth | TapeSelectPolicy::OldestMaxBandwidth
    );
    let block = catalog.block_size();
    candidates
        .filter(|(tape, _, _)| eligible.as_ref().is_none_or(|e| e.contains(tape)))
        .map(|(tape, count, slots)| {
            let score = if by_bandwidth {
                let cost = mount_cost(view, tape)
                    + walk_cost(
                        view.timing,
                        block,
                        start_head(view, tape),
                        slots.iter().copied(),
                    );
                cost.bytes_per_sec(slots.len() as u64 * block.bytes())
            } else {
                count as f64
            };
            (score, geometry.circular_distance(anchor, tape), tape)
        })
        .max_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite score")
                .then(b.1.cmp(&a.1))
        })
        .map(|(_, _, tape)| tape)
}

/// `(slot, request ids)` of each stop.
fn stop_ids<'a>(stops: impl Iterator<Item = &'a ScheduledRead>) -> Vec<(u32, Vec<u64>)> {
    stops
        .map(|s| (s.slot.0, s.requests.iter().map(|r| r.id.0).collect()))
        .collect()
}

/// Drives one persistent `StaticScheduler` through `ops` and checks
/// every major reschedule against [`reference_select`] and a scan-built
/// sweep over the chosen tape.
fn check_family_scheduler(
    catalog: &Catalog,
    ids: &[BlockId],
    ops: &[(u16, u32)],
    policy: TapeSelectPolicy,
) -> Result<(), TestCaseError> {
    let timing = TimingModel::paper_default();
    let mut sched = StaticScheduler::new(policy);
    let mut pending = PendingList::new();
    let mut next_id: u64 = 0;
    let (mut mounted, mut head) = (None, SlotIndex(0));
    let (mut unavailable, mut offline): (Vec<TapeId>, Vec<TapeId>) = (Vec::new(), Vec::new());
    for &(kind, payload) in ops {
        let tape = TapeId(u16::try_from(payload % u32::from(TAPES)).expect("reduced mod TAPES"));
        match kind {
            // Arrivals, sometimes a burst of duplicates for one block.
            0 | 1 => {
                let block = ids[payload as usize % ids.len()];
                for _ in 0..=u32::from(kind) * (payload % 3) {
                    next_id += 1;
                    pending.push(Request {
                        id: RequestId(next_id),
                        block,
                        arrival: SimTime::ZERO,
                    });
                }
            }
            // Completion or cancellation.
            2 if !pending.is_empty() => {
                let mut k = payload as usize % pending.len();
                pending.extract(|_| {
                    k = k.wrapping_sub(1);
                    k == usize::MAX
                });
            }
            // Another drive takes or releases a tape; a tape fails or is
            // repaired. The mounted tape stays available.
            3 if mounted != Some(tape) => flip(&mut unavailable, tape),
            4 if mounted != Some(tape) => flip(&mut offline, tape),
            // A mount (or an empty drive) and a head position.
            5 => {
                mounted =
                    (payload % 4 != 0 && !unavailable.contains(&tape) && !offline.contains(&tape))
                        .then_some(tape);
                head = SlotIndex(payload % SLOTS);
            }
            // Major reschedule against the reference.
            6 => {
                let view = JukeboxView {
                    catalog,
                    timing: &timing,
                    mounted,
                    head: if mounted.is_some() {
                        head
                    } else {
                        SlotIndex(0)
                    },
                    now: SimTime::ZERO,
                    unavailable: &unavailable,
                    offline: &offline,
                    fleet: tapesim_sched::FleetView::SINGLE,
                };
                let mut index = CopyIndex::default();
                index.build(&view, pending.iter());
                for t in catalog
                    .geometry()
                    .tape_ids()
                    .filter(|&t| view.is_available(t))
                {
                    let row: Vec<(SlotIndex, u64)> = index
                        .row(t)
                        .iter()
                        .map(|&(slot, i)| (slot, index.requests()[i].id.0))
                        .collect();
                    let scanned: Vec<(SlotIndex, u64)> = scan_row(catalog, pending.iter(), t)
                        .into_iter()
                        .map(|(slot, p)| (slot, pending.iter().nth(p).expect("scanned").id.0))
                        .collect();
                    prop_assert_eq!(row, scanned, "{} row of tape {}", policy.name(), t.0);
                }
                let expect = reference_select(policy, &view, &pending);
                let before: Vec<Request> = pending.iter().copied().collect();
                let plan = sched.major_reschedule(&view, &mut pending);
                prop_assert_eq!(
                    plan.as_ref().map(|p| p.tape),
                    expect,
                    "{} tape",
                    policy.name()
                );
                let Some(plan) = plan else { continue };
                // The reference sweep: every request with a copy on the
                // tape, split at the start head, stable-sorted by slot.
                let start = start_head(&view, plan.tape);
                let (mut forward, mut reverse) = (Vec::new(), Vec::new());
                let mut left = Vec::new();
                for r in &before {
                    match catalog.copy_on_tape(r.block, plan.tape) {
                        Some(a) if a.slot >= start => forward.push((a.slot, *r)),
                        Some(a) => reverse.push((a.slot, *r)),
                        None => left.push(r.id.0),
                    }
                }
                forward.sort_by_key(|&(slot, _)| slot);
                reverse.sort_by_key(|&(slot, _)| std::cmp::Reverse(slot));
                let group = |items: Vec<(SlotIndex, Request)>| {
                    let mut out: Vec<(u32, Vec<u64>)> = Vec::new();
                    for (slot, r) in items {
                        match out.last_mut() {
                            Some((s, ids)) if *s == slot.0 => ids.push(r.id.0),
                            _ => out.push((slot.0, vec![r.id.0])),
                        }
                    }
                    out
                };
                prop_assert_eq!(
                    stop_ids(plan.list.forward_stops()),
                    group(forward),
                    "{} forward",
                    policy.name()
                );
                prop_assert_eq!(
                    stop_ids(plan.list.reverse_stops()),
                    group(reverse),
                    "{} reverse",
                    policy.name()
                );
                prop_assert_eq!(
                    pending.iter().map(|r| r.id.0).collect::<Vec<_>>(),
                    left,
                    "{} pending",
                    policy.name()
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// Drives one persistent `EnvelopeScheduler` through `ops` and compares
/// every major reschedule with a brand-new scheduler's.
fn check_persistent_scheduler(
    catalog: &Catalog,
    ids: &[BlockId],
    mounted: Option<TapeId>,
    ops: &[(u16, u32)],
    policy: EnvelopePolicy,
) -> Result<(), TestCaseError> {
    let timing = TimingModel::paper_default();
    let mut sched = EnvelopeScheduler::new(policy);
    let mut pending = PendingList::new();
    let mut sweep: Option<SweepPlan> = None;
    let mut next_id: u64 = 0;
    let mut head = SlotIndex(0);
    // Sorted, as `JukeboxView::is_available` binary-searches it.
    let mut unavailable: Vec<TapeId> = Vec::new();
    for &(kind, payload) in ops {
        let view = JukeboxView {
            catalog,
            timing: &timing,
            mounted,
            head,
            now: SimTime::ZERO,
            unavailable: &unavailable,
            offline: &[],
            fleet: tapesim_sched::FleetView::SINGLE,
        };
        let mut request = |block: BlockId| {
            next_id += 1;
            Request {
                id: RequestId(next_id),
                block,
                arrival: SimTime::ZERO,
            }
        };
        match kind {
            // Arrival: into the pending list, or through the incremental
            // scheduler while a sweep is open (which may extend the
            // envelope the next reschedule must not depend on).
            0 => {
                let r = request(ids[payload as usize % ids.len()]);
                match sweep.as_mut() {
                    Some(plan) if payload % 2 == 0 => {
                        sched.on_arrival(&view, plan.tape, &mut plan.list, r, &mut pending);
                    }
                    _ => pending.push(r),
                }
            }
            // Duplicate requests for one block: a shrink that moves the
            // block must move all of them.
            1 => {
                let block = ids[payload as usize % ids.len()];
                for _ in 0..=payload % 3 {
                    let r = request(block);
                    pending.push(r);
                }
            }
            // Completion or cancellation: one pending request leaves.
            2 => {
                if !pending.is_empty() {
                    let victim = payload as usize % pending.len();
                    let mut k = 0;
                    pending.extract(|_| {
                        k += 1;
                        k - 1 == victim
                    });
                }
            }
            // Fault or fail-back: flip one tape's availability (the
            // mounted tape stays available, as in the simulator).
            3 => {
                let tape =
                    TapeId(u16::try_from(payload % u32::from(TAPES)).expect("reduced mod TAPES"));
                if mounted != Some(tape) {
                    match unavailable.binary_search(&tape) {
                        Ok(p) => {
                            unavailable.remove(p);
                        }
                        Err(p) => unavailable.insert(p, tape),
                    }
                }
            }
            // The head moves.
            4 => head = SlotIndex(payload % SLOTS),
            // Major reschedule, compared against a brand-new scheduler.
            _ => {
                let mut fresh_pending: PendingList = pending.iter().copied().collect();
                let plan = sched.major_reschedule(&view, &mut pending);
                let mut fresh = EnvelopeScheduler::new(policy);
                let fresh_plan = fresh.major_reschedule(&view, &mut fresh_pending);
                prop_assert_eq!(&plan, &fresh_plan, "{} plan", policy.name());
                prop_assert_eq!(
                    pending.iter().copied().collect::<Vec<_>>(),
                    fresh_pending.iter().copied().collect::<Vec<_>>(),
                    "{} remaining pending list",
                    policy.name()
                );
                if plan.is_some() {
                    prop_assert_eq!(
                        sched.current_envelope(),
                        fresh.current_envelope(),
                        "{} envelope",
                        policy.name()
                    );
                }
                sweep = plan;
            }
        }
    }
    Ok(())
}

#[test]
fn index_pin_refcounts_survive_duplicate_requests() {
    // Two requests for the same non-replicated block: while either is
    // pending, its slot must stay inside the envelope; once both leave it
    // must drop out. One persistent scheduler per policy carries its copy
    // lists across the three membership states, and a plan on the
    // block's tape must take both duplicates together.
    let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
    let mut b = Catalog::builder(g, BlockSize::from_mb(1), 2, 0);
    b.place(
        BlockId(0),
        PhysicalAddr {
            tape: TapeId(0),
            slot: SlotIndex(40),
        },
    )
    .unwrap();
    b.place(
        BlockId(1),
        PhysicalAddr {
            tape: TapeId(1),
            slot: SlotIndex(7),
        },
    )
    .unwrap();
    let catalog = b.build().unwrap();
    let timing = TimingModel::paper_default();
    let view = JukeboxView {
        catalog: &catalog,
        timing: &timing,
        mounted: None,
        head: SlotIndex(0),
        now: SimTime::ZERO,
        unavailable: &[],
        offline: &[],
        fleet: tapesim_sched::FleetView::SINGLE,
    };
    let req = |id: u64, blk: u32| Request {
        id: RequestId(id),
        block: BlockId(blk),
        arrival: SimTime::ZERO,
    };
    let both = vec![req(0, 0), req(1, 0), req(2, 1)];
    let one = vec![req(1, 0), req(2, 1)];
    let none = vec![req(2, 1)];
    for policy in EnvelopePolicy::ALL {
        let mut sched = EnvelopeScheduler::new(policy);
        for (members, expect) in [
            (&both, vec![41, 8, 0]),
            (&one, vec![41, 8, 0]),
            (&none, vec![0, 8, 0]),
        ] {
            let mut pending: PendingList = members.iter().copied().collect();
            let plan = sched
                .major_reschedule(&view, &mut pending)
                .expect("every pending request is plannable");
            assert_eq!(sched.current_envelope(), &expect, "{}", policy.name());
            assert_eq!(
                sched.current_envelope(),
                &compute_upper_envelope_fresh(&view, members).env,
                "{}",
                policy.name()
            );
            let on_tape_0 = members.iter().filter(|r| r.block == BlockId(0)).count();
            let (taken, left) = if plan.tape == TapeId(0) {
                (on_tape_0, members.len() - on_tape_0)
            } else {
                (members.len() - on_tape_0, on_tape_0)
            };
            assert_eq!(plan.list.requests(), taken, "{}", policy.name());
            assert_eq!(pending.len(), left, "{}", policy.name());
        }
    }
}

#[test]
fn refresh_after_invalidate_reflects_new_assignments() {
    // Two replicated blocks on tape 1; assigning one elsewhere and
    // invalidating must shrink tape 1's extension list, while a refresh
    // without invalidation keeps serving the cached (stale) list — the
    // contract the extension loop relies on.
    let g = JukeboxGeometry::new(TAPES, u64::from(SLOTS));
    let mut b = Catalog::builder(g, BlockSize::from_mb(1), 2, 0);
    let place = |b: &mut tapesim_layout::CatalogBuilder, blk: u32, t: u16, s: u32| {
        b.place(
            BlockId(blk),
            PhysicalAddr {
                tape: TapeId(t),
                slot: SlotIndex(s),
            },
        )
        .unwrap();
    };
    place(&mut b, 0, 0, 10);
    place(&mut b, 0, 1, 50);
    place(&mut b, 1, 0, 300);
    place(&mut b, 1, 1, 70);
    let catalog = b.build().unwrap();
    let timing = TimingModel::paper_default();
    let view = JukeboxView {
        catalog: &catalog,
        timing: &timing,
        mounted: None,
        head: SlotIndex(0),
        now: SimTime::ZERO,
        unavailable: &[],
        offline: &[],
        fleet: tapesim_sched::FleetView::SINGLE,
    };
    let pending = one_request_per_block(&[BlockId(0), BlockId(1)]);
    let env = vec![0, 0, 0];
    let mut assigned = vec![None, None];
    let mut index = CopyIndex::default();
    index.build(&view, &pending);
    let mut cache = ExtensionCache::default();
    cache.reset(usize::from(TAPES));
    cache.refresh(&view, &index, &assigned, &env, TapeId(1));
    assert_eq!(cache.slots(TapeId(1)), &[SlotIndex(50), SlotIndex(70)]);

    assigned[0] = Some(TapeId(0));
    cache.refresh(&view, &index, &assigned, &env, TapeId(1));
    assert_eq!(
        cache.slots(TapeId(1)),
        &[SlotIndex(50), SlotIndex(70)],
        "without invalidation the cached list is served as-is"
    );

    cache.invalidate(TapeId(1));
    cache.refresh(&view, &index, &assigned, &env, TapeId(1));
    assert_eq!(cache.slots(TapeId(1)), &[SlotIndex(70)]);
    assert_eq!(cache.prefix_costs(TapeId(1)).len(), 1);
    assert_eq!(
        cache.prefix_costs(TapeId(1))[0],
        cache.switch_charge(TapeId(1)) + prefix_cost(&view, SlotIndex(0), &[SlotIndex(70)])
    );
}
