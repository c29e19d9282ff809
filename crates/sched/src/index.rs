//! The pending-copy index every major rescheduler reads.
//!
//! At tape-switch time every algorithm of Section 3 asks one question:
//! which pending requests have a copy on each tape, and at which slots.
//! [`CopyIndex`] answers it once per major reschedule. Tape selection
//! reads a tape's row (its length is the request count, its distinct
//! slots the sweep), the envelope computation walks and binary-searches
//! the rows, and the chosen row becomes the sweep and the set of
//! requests taken off the pending list.

use tapesim_model::{SlotIndex, TapeId};
use tapesim_workload::Request;

use crate::api::{JukeboxView, PendingList, ScheduledRead, ServiceList};

/// One entry of a [`CopyIndex`] row: the slot of a request's copy on the
/// row's tape, and the request's index in [`CopyIndex::requests`].
pub type CopyEntry = (SlotIndex, usize);

/// Per tape, the `(slot, request)` of every indexed request's copy on
/// that tape, sorted by slot and then by request (arrival order).
///
/// The indexed requests are the pending requests with a copy on an
/// available tape, in arrival order: the only ones a drive can plan now.
/// Only copies on available tapes are indexed, so the row of a tape held
/// by another drive or offline is empty, and the row of an available tape
/// holds every pending request with a copy on it. The catalog keeps at
/// most one copy of a block per tape, so a request appears at most once
/// per row.
///
/// The rows are stored flat (compressed sparse rows: one entries vector
/// plus per-tape offsets). Building keeps every buffer's capacity, so an
/// index owned by a scheduler allocates nothing once it has grown.
#[derive(Debug, Clone, Default)]
pub struct CopyIndex {
    requests: Vec<Request>,
    /// Position in the pending list of each indexed request.
    positions: Vec<usize>,
    /// Row `t` is `entries[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
    entries: Vec<CopyEntry>,
    /// Per tape, whether it is available (a working buffer of `build`).
    available: Vec<bool>,
    /// The next free entry of each row (a working buffer of `build`).
    cursor: Vec<usize>,
    /// The pending positions a sweep takes (a working buffer of
    /// `take_sweep`).
    taken: Vec<bool>,
}

impl CopyIndex {
    /// Indexes `pending` (in arrival order) against the catalog and tape
    /// availability of `view`, replacing the previous contents.
    pub fn build<'r>(
        &mut self,
        view: &JukeboxView<'_>,
        pending: impl IntoIterator<Item = &'r Request>,
    ) {
        let CopyIndex {
            requests,
            positions,
            offsets,
            entries,
            available,
            cursor,
            taken: _,
        } = self;
        let catalog = view.catalog;
        let tapes = catalog.geometry().tapes as usize;
        available.clear();
        available.resize(tapes, true);
        for t in view.unavailable.iter().chain(view.offline) {
            available[t.index()] = false;
        }
        let copies = |r: &Request| {
            catalog
                .replicas(r.block)
                .iter()
                .filter(|a| available[a.tape.index()])
        };
        requests.clear();
        positions.clear();
        offsets.clear();
        offsets.resize(tapes + 1, 0);
        for (position, r) in pending.into_iter().enumerate() {
            let mut indexed = false;
            for a in copies(r) {
                offsets[a.tape.index() + 1] += 1;
                indexed = true;
            }
            if indexed {
                requests.push(*r);
                positions.push(position);
            } // else it waits for another drive or a repair
        }
        for t in 0..tapes {
            offsets[t + 1] += offsets[t];
        }
        cursor.clear();
        cursor.extend_from_slice(&offsets[..tapes]);
        entries.clear();
        entries.resize(offsets[tapes], (SlotIndex::BOT, 0));
        for (i, r) in requests.iter().enumerate() {
            for a in copies(r) {
                let next = &mut cursor[a.tape.index()];
                entries[*next] = (a.slot, i);
                *next += 1;
            }
        }
        // Each row was filled in request order; sorting by the unique
        // `(slot, request)` key keeps that order within a slot.
        for t in 0..tapes {
            if offsets[t + 1] - offsets[t] > 1 {
                entries[offsets[t]..offsets[t + 1]].sort_unstable();
            }
        }
    }

    /// The indexed requests, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// `tape`'s row: every indexed request's copy on it, by slot.
    pub fn row(&self, tape: TapeId) -> &[CopyEntry] {
        &self.entries[self.offsets[tape.index()]..self.offsets[tape.index() + 1]]
    }

    /// The prefix of `tape`'s row at slots below `end`.
    pub fn row_below(&self, tape: TapeId, end: u32) -> &[CopyEntry] {
        let row = self.row(tape);
        &row[..row.partition_point(|&(slot, _)| slot.0 < end)]
    }

    /// Takes the requests of `tape`'s row below slot `end` off `pending`
    /// (the list this index was built from) and returns them as one sweep
    /// starting with the head at `head`. Copies at or ahead of the head
    /// form the forward phase, ascending; copies behind it form the
    /// reverse phase, descending, read on the way back. Requests for one
    /// block share a stop in arrival order.
    pub fn take_sweep(
        &mut self,
        tape: TapeId,
        end: u32,
        head: SlotIndex,
        pending: &mut PendingList,
    ) -> ServiceList {
        let start = self.offsets[tape.index()];
        let len = self.row_below(tape, end).len();
        let row = &self.entries[start..start + len];
        debug_assert!(
            self.positions.last().is_none_or(|&p| p < pending.len()),
            "index built from another pending list"
        );
        let split = row.partition_point(|&(slot, _)| slot < head);
        let forward = stops(&row[split..], &self.requests);
        let mut reverse = stops(&row[..split], &self.requests);
        reverse.reverse();
        self.taken.clear();
        self.taken.resize(pending.len(), false);
        for &(_, i) in row {
            self.taken[self.positions[i]] = true;
        }
        pending.remove_marked(&self.taken);
        ServiceList::from_parts(forward, reverse)
            // simlint: allow(panic, a row is sorted by slot, so its grouped halves are strictly ordered)
            .expect("grouped sweep phases are strictly ordered")
    }
}

/// Groups ascending row entries into one stop per slot.
fn stops(entries: &[CopyEntry], requests: &[Request]) -> Vec<ScheduledRead> {
    let mut out: Vec<ScheduledRead> = Vec::new();
    for &(slot, i) in entries {
        match out.last_mut() {
            Some(stop) if stop.slot == slot => stop.requests.push(requests[i]),
            _ => out.push(ScheduledRead {
                slot,
                requests: vec![requests[i]],
            }),
        }
    }
    out
}

/// The distinct slots of a row (or row prefix), ascending.
pub(crate) fn distinct_slots(row: &[CopyEntry]) -> impl Iterator<Item = SlotIndex> + '_ {
    let mut last = None;
    row.iter()
        .map(|&(slot, _)| slot)
        .filter(move |&slot| last.replace(slot) != Some(slot))
}
