//! The simulator's event queue.
//!
//! [`crate::sim::Sim`] dispatches events in `(time, seq)` order — `time` is
//! virtual nanoseconds, `seq` a unique key that breaks ties (see the key
//! packing in `sim.rs`). [`Wheel`] provides that order with a hierarchical
//! timing wheel (Varghese & Lauck): far events land in time-bucketed slots
//! in O(1), cascading toward a small near-term heap (`due`) that provides
//! the final total order. Ties resolve by `seq`, never by insertion order or
//! bucket layout, so the pop order equals a `BinaryHeap<Reverse<Entry>>`'s
//! exactly — the unit tests below keep the heap as the oracle, on a random
//! interleaving and on the hold model. Why the wheel and not the heap is in
//! `DESIGN.md` §6 "Event loop".

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Total-order key of an event.
pub type EvKey = (SimTime, u64);

/// One queued event: a `(time, seq)` key plus an arbitrary payload.
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// Fire time, virtual ns.
    pub time: SimTime,
    /// Global push sequence number (unique; the tiebreak at equal times).
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> EvKey {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel.
// ---------------------------------------------------------------------------

/// Virtual ns per wheel tick (4.096 µs — comparable to the simulator's
/// typical inter-event gap).
const TICK_SHIFT: u64 = 12;
/// Slots per level (64).
const SLOT_SHIFT: u64 = 6;
const SLOTS: usize = 1 << SLOT_SHIFT;
/// Wheel levels; level `l` slots span `64^l` ticks. Four levels cover
/// `2^(12+24)` ns ≈ 68.7 virtual seconds from the cursor.
const LEVELS: usize = 4;
/// Ticks covered by the whole wheel; events beyond go to the overflow heap.
const WHEEL_SPAN: u64 = 1 << (SLOT_SHIFT * LEVELS as u64);

fn tick_of(time: SimTime) -> u64 {
    time >> TICK_SHIFT
}

/// Hashed hierarchical timing wheel.
///
/// Invariant: every event with `tick < cur_tick` lives in `due` (a heap, so
/// the final `(time, seq)` order never depends on bucket layout); every
/// event with `tick >= cur_tick` lives in the slot of the lowest level whose
/// window contained it at insert time, or in `overflow` past the horizon.
/// `due`'s minimum is therefore always the global minimum.
#[derive(Debug)]
pub struct Wheel<T> {
    due: BinaryHeap<Reverse<Entry<T>>>,
    /// `LEVELS × SLOTS` buckets (unordered within a bucket).
    slots: Vec<Vec<Entry<T>>>,
    /// Occupancy per level, to skip empty regions in O(1).
    level_count: [usize; LEVELS],
    cur_tick: u64,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
}

impl<T> Default for Wheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Wheel<T> {
    /// An empty wheel with the cursor at time 0.
    pub fn new() -> Self {
        Wheel {
            due: BinaryHeap::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            level_count: [0; LEVELS],
            cur_tick: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, e: Entry<T>) {
        self.len += 1;
        if tick_of(e.time) < self.cur_tick {
            self.due.push(Reverse(e));
        } else {
            self.insert_wheel(e);
        }
    }

    /// Places an event with `tick >= cur_tick` into the lowest level whose
    /// window reaches it.
    fn insert_wheel(&mut self, e: Entry<T>) {
        let t = tick_of(e.time);
        let delta = t - self.cur_tick;
        for l in 0..LEVELS {
            if delta < 1u64 << (SLOT_SHIFT * (l as u64 + 1)) {
                let idx = ((t >> (SLOT_SHIFT * l as u64)) & (SLOTS as u64 - 1)) as usize;
                self.slots[l * SLOTS + idx].push(e);
                self.level_count[l] += 1;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    fn wheel_occupancy(&self) -> usize {
        self.level_count.iter().sum::<usize>() + self.overflow.len()
    }

    /// Advances the cursor until at least one event cohort lands in `due`.
    /// Precondition: the wheel (slots or overflow) is non-empty.
    fn advance(&mut self) {
        loop {
            if self.level_count[0] > 0 {
                // Scan level 0 within the current rotation; the first
                // non-empty slot holds the next cohort.
                let rot_end = ((self.cur_tick >> SLOT_SHIFT) + 1) << SLOT_SHIFT;
                for t in self.cur_tick..rot_end {
                    let idx = (t & (SLOTS as u64 - 1)) as usize;
                    if !self.slots[idx].is_empty() {
                        let n = self.slots[idx].len();
                        for e in self.slots[idx].drain(..) {
                            self.due.push(Reverse(e));
                        }
                        self.level_count[0] -= n;
                        self.cur_tick = t + 1;
                        // The drain may leave the cursor exactly on a level
                        // boundary; the cascade must still run or the next
                        // advance would jump past the un-cascaded slot and
                        // deliver its events a full rotation late.
                        self.cascade();
                        return;
                    }
                }
                self.cur_tick = rot_end;
            } else if self.level_count[1..].iter().any(|c| *c > 0) {
                // Nothing near-term: skip to the next rotation boundary.
                self.cur_tick = ((self.cur_tick >> SLOT_SHIFT) + 1) << SLOT_SHIFT;
            } else {
                // Only the overflow holds events: jump straight to its
                // minimum and pull everything within the horizon back in.
                let Some(Reverse(head)) = self.overflow.peek() else {
                    return; // Defensive: violated precondition.
                };
                self.cur_tick = tick_of(head.time);
                while let Some(Reverse(h)) = self.overflow.peek() {
                    if tick_of(h.time) - self.cur_tick >= WHEEL_SPAN {
                        break;
                    }
                    let Reverse(e) = self.overflow.pop().expect("peeked");
                    self.insert_wheel(e);
                }
                continue;
            }
            self.cascade();
        }
    }

    /// When the cursor sits on a slot boundary of a higher level, drains
    /// that level's newly-entered slot down into finer levels — top level
    /// first, so nested re-insertions land ahead of the entered lower slots.
    /// A no-op at unaligned cursors.
    fn cascade(&mut self) {
        let entered = self.cur_tick;
        for l in (1..LEVELS).rev() {
            if self.level_count[l] == 0 {
                continue;
            }
            let width = 1u64 << (SLOT_SHIFT * l as u64);
            if entered & (width - 1) != 0 {
                continue;
            }
            let idx = ((entered >> (SLOT_SHIFT * l as u64)) & (SLOTS as u64 - 1)) as usize;
            let slot = l * SLOTS + idx;
            if self.slots[slot].is_empty() {
                continue;
            }
            let moved = std::mem::take(&mut self.slots[slot]);
            self.level_count[l] -= moved.len();
            for e in moved {
                self.insert_wheel(e);
            }
        }
    }

    fn ensure_due(&mut self) {
        while self.due.is_empty() && self.wheel_occupancy() > 0 {
            self.advance();
        }
    }

    /// The minimum `(time, seq)` key, if any. Takes `&mut self` because the
    /// wheel may cascade buckets to find its minimum.
    pub fn peek_key(&mut self) -> Option<EvKey> {
        self.ensure_due();
        self.due.peek().map(|Reverse(e)| e.key())
    }

    /// Removes and returns the minimum event.
    pub fn pop(&mut self) -> Option<Entry<T>> {
        self.ensure_due();
        let Reverse(e) = self.due.pop()?;
        self.len -= 1;
        Some(e)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The reference queue the wheel must agree with.
    type Heap = BinaryHeap<Reverse<Entry<u64>>>;

    fn e(time: SimTime, seq: u64) -> Entry<u64> {
        Entry {
            time,
            seq,
            item: seq,
        }
    }

    /// Drains a wheel fully, returning the pop order as keys.
    fn drain(q: &mut Wheel<u64>) -> Vec<EvKey> {
        std::iter::from_fn(|| q.pop()).map(|x| x.key()).collect()
    }

    fn drain_heap(q: &mut Heap) -> Vec<EvKey> {
        std::iter::from_fn(|| q.pop())
            .map(|Reverse(x)| x.key())
            .collect()
    }

    #[test]
    fn ties_resolve_by_seq_in_both_impls() {
        let mut wheel = Wheel::new();
        let mut heap = Heap::new();
        // Same timestamp, shuffled insertion order.
        for seq in [5u64, 1, 9, 0, 3] {
            wheel.push(e(1_000, seq));
            heap.push(Reverse(e(1_000, seq)));
        }
        let want = vec![(1_000, 0), (1_000, 1), (1_000, 3), (1_000, 5), (1_000, 9)];
        assert_eq!(drain_heap(&mut heap), want);
        assert_eq!(drain(&mut wheel), want);
    }

    /// Drives the wheel and the heap in lockstep over two input shapes,
    /// checking `peek_key`, `len` and the pop order at every step:
    /// - a random push/pop interleaving of near, far and tied times;
    /// - the hold model (Vaucher & Duval): prefill 10k timers uniformly over
    ///   a 10 s window (inside the 68.7 s horizon), then pop the minimum and
    ///   re-arm it at a random offset, so the population stays constant
    ///   while the clock sweeps forward, as mid-run in the simulator.
    #[test]
    fn wheel_matches_heap_on_random_interleaving() {
        const PREFILL: usize = 10_000;
        const WINDOW_NS: SimTime = 10_000_000_000;
        for (hold, steps) in [(false, 20_000), (true, PREFILL + 20_000)] {
            let mut rng = SmallRng::seed_from_u64(99);
            let mut heap = Heap::new();
            let mut wheel = Wheel::new();
            let mut seq = 0u64;
            let mut now: SimTime = 0;
            let mut heap_out = Vec::new();
            let mut wheel_out = Vec::new();
            for step in 0..steps {
                let pop = if hold {
                    step >= PREFILL
                } else {
                    rng.gen::<f64>() >= 0.55 && !heap.is_empty()
                };
                if pop {
                    let Reverse(a) = heap.pop().expect("heap non-empty");
                    assert_eq!(wheel.peek_key(), Some(a.key()), "peek agrees with pop");
                    let b = wheel.pop().expect("wheel matches heap occupancy");
                    now = a.time; // Pops advance the clock, like the simulator.
                    heap_out.push(a.key());
                    wheel_out.push(b.key());
                }
                // The hold model pushes on every step (prefill, then re-arm
                // of the popped timer); the interleaving when it did not pop.
                let dt = if hold {
                    Some(rng.gen_range(1..WINDOW_NS))
                } else if pop {
                    None
                } else {
                    // Mix of near, far, and same-tick times (plus ties).
                    Some(match rng.gen_range(0..4u32) {
                        0 => rng.gen_range(0..2_000),
                        1 => rng.gen_range(0..1_000_000),
                        2 => rng.gen_range(0..5_000_000_000),
                        _ => 0,
                    })
                };
                if let Some(dt) = dt {
                    heap.push(Reverse(e(now + dt, seq)));
                    wheel.push(e(now + dt, seq));
                    seq += 1;
                }
                assert_eq!(wheel.len(), heap.len());
            }
            heap_out.extend(drain_heap(&mut heap));
            wheel_out.extend(drain(&mut wheel));
            assert_eq!(heap_out, wheel_out);
            assert!(!heap_out.is_empty());
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn wheel_handles_overflow_horizon() {
        let mut q = Wheel::new();
        // Far beyond the 68.7 s horizon, plus a near event.
        q.push(e(500_000_000_000, 1));
        q.push(e(10, 2));
        q.push(e(900_000_000_000, 0));
        assert_eq!(
            drain(&mut q),
            vec![(10, 2), (500_000_000_000, 1), (900_000_000_000, 0)]
        );
    }

    /// Regression: a cohort drain that leaves the cursor exactly on a
    /// rotation boundary must still cascade the newly-entered level-1 slot.
    /// Without the cascade, the event at tick 70 here was skipped past and
    /// delivered after tick 130's cohort.
    #[test]
    fn wheel_cascades_when_drain_ends_on_rotation_boundary() {
        let tick = 1u64 << TICK_SHIFT;
        let mut q = Wheel::new();
        q.push(e(63 * tick, 0)); // level 0, last slot of rotation 0
        q.push(e(70 * tick, 1)); // level 1, slot 1 (ticks 64..127)
        q.push(e(130 * tick, 2)); // level 1, slot 2 (ticks 128..191)

        // Popping seq 0 drains tick 63 and parks the cursor at tick 64 — a
        // rotation boundary whose level-1 slot holds seq 1.
        assert_eq!(
            drain(&mut q),
            vec![(63 * tick, 0), (70 * tick, 1), (130 * tick, 2)]
        );
    }
}
