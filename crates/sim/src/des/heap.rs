//! The deterministic event heap: `(VirtualTime, seq, ComponentId)` wake-ups.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{ComponentId, VirtualTime};

/// A min-heap of component wake-ups with a **total**, seed-reproducible
/// order.
///
/// Every push is stamped with a monotonically increasing sequence number,
/// so entries at the same [`VirtualTime`] pop in insertion order — the
/// tie-break never depends on `BinaryHeap` internals, allocator state or
/// anything else outside the push sequence. That totality is what makes a
/// discrete-event run a pure function of its seeds.
///
/// Stale entries are handled by *lazy deletion*: the engine pushes a fresh
/// entry whenever a component's earliest wake-up changes, and on pop runs
/// the component only if the popped time still equals its
/// [`Component::next_tick`](super::component::Component::next_tick). Superseded
/// entries are skipped, never searched for.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    entries: BinaryHeap<Reverse<(VirtualTime, u64, ComponentId)>>,
    next_seq: u64,
}

impl EventHeap {
    /// An empty heap; the first push gets sequence number 0.
    pub(crate) fn new() -> Self {
        EventHeap::default()
    }

    /// Schedules a wake-up of `component` at `at`, stamping it with the
    /// next sequence number. Returns the stamp.
    pub(crate) fn push(&mut self, at: VirtualTime, component: ComponentId) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Reverse((at, seq, component)));
        seq
    }

    /// Removes and returns the earliest entry — ties broken by sequence
    /// number, i.e. insertion order.
    pub(crate) fn pop(&mut self) -> Option<(VirtualTime, u64, ComponentId)> {
        self.entries.pop().map(|Reverse(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_time_entries_pop_in_insertion_order() {
        let mut heap = EventHeap::new();
        let t = VirtualTime::new(9);
        // Push component ids in *descending* order so a heap that
        // tie-broke on ComponentId (or on nothing) would pop differently.
        for cid in (0..32).rev() {
            heap.push(t, ComponentId::new(cid));
        }
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop())
            .map(|(at, _, cid)| {
                assert_eq!(at, t);
                cid.index()
            })
            .collect();
        let expected: Vec<usize> = (0..32).rev().collect();
        assert_eq!(order, expected, "insertion order, not id order");
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_interleaved_pops() {
        let mut heap = EventHeap::new();
        assert_eq!(heap.push(VirtualTime::new(3), ComponentId::new(0)), 0);
        assert_eq!(heap.push(VirtualTime::new(1), ComponentId::new(1)), 1);
        assert_eq!(heap.pop().map(|(t, s, _)| (t.raw(), s)), Some((1, 1)));
        // Popping must not recycle stamps: later pushes keep counting up,
        // so an entry pushed after a pop still loses same-time ties to
        // everything pushed before it.
        assert_eq!(heap.push(VirtualTime::new(3), ComponentId::new(2)), 2);
        assert_eq!(heap.pop().map(|(_, s, c)| (s, c.index())), Some((0, 0)));
        assert_eq!(heap.pop().map(|(_, s, c)| (s, c.index())), Some((2, 2)));
        assert_eq!(heap.pop(), None);
    }
}
