//! Time-ordered event calendar with deterministic tie-breaking.
//!
//! The calendar is the hottest data structure of the simulator: every
//! protocol message, processor issue and timer passes through it once.
//! It is organised as a *bucketed calendar queue* (Brown, CACM 1988):
//!
//! * a ring of [`LANES`] per-cycle FIFO lanes covers the near future
//!   `[now, now + LANES)` — almost every event lands here, because
//!   protocol delays are small constants (see `ftcoma-protocol`'s
//!   `MemTiming` and the mesh latencies: tens to low hundreds of cycles);
//! * a conventional binary min-heap holds the far future (checkpoint
//!   timers, transport retransmission timeouts, scheduled faults).
//!
//! Because the ring spans exactly `LANES` cycles, each lane can only ever
//! hold events of a *single* cycle at a time, so plain FIFO push/pop per
//! lane preserves the global `(at, seq)` order exactly. The far heap keys
//! on `(at, seq)` too, and [`EventQueue::pop`] takes whichever of the two
//! is globally smallest — the delivery order is therefore byte-for-byte
//! identical to the previous pure-heap implementation (pinned by a
//! differential fuzz test against [`legacy::LegacyEventQueue`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Cycles;

/// Number of per-cycle lanes in the near-future ring (power of two).
///
/// Chosen to cover every constant protocol delay (remote misses are
/// ~108–124 cycles, injection hops and acks far less) plus typical
/// contention-induced slack; longer delays (checkpoint periods of
/// 50k+ cycles, transport RTOs of 1000+) spill to the far heap.
const LANES: usize = 1024;
const LANE_MASK: u64 = LANES as u64 - 1;

/// First sequence number of the *main* band: events scheduled after
/// [`EventQueue::seal`]. Construction-time and fork-time events live in
/// the pre band `[0, MAIN_SEQ_BASE)`, so a fault scheduled into a resumed
/// snapshot ties exactly like one scheduled before the run started.
const MAIN_SEQ_BASE: u64 = 1 << 63;

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event calendar.
///
/// Events are delivered in non-decreasing timestamp order; events scheduled
/// for the same cycle are delivered in the order they were scheduled (FIFO).
/// This determinism is what makes paired standard/ECP simulations with the
/// same seed directly comparable, as the paper's methodology requires.
///
/// The queue tracks the current simulation time: [`EventQueue::now`] is the
/// timestamp of the most recently popped event.
///
/// # Example
///
/// ```
/// use ftcoma_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(3, 'x');
/// q.schedule_in(1, 'y'); // at now (0) + 1
/// assert_eq!(q.pop(), Some((1, 'y')));
/// assert_eq!(q.now(), 1);
/// assert_eq!(q.pop(), Some((3, 'x')));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Near-future ring: lane `at & LANE_MASK` holds the FIFO of cycle
    /// `at` for every `at` in `[now, now + LANES)`. Entries are
    /// `(seq, event)`; the cycle is implied by the scan position.
    lanes: Vec<VecDeque<(u64, E)>>,
    /// Total events currently in the lanes.
    near_count: usize,
    /// Far future (`at - now >= LANES` at schedule time), keyed `(at, seq)`.
    far: BinaryHeap<Reverse<Entry<E>>>,
    /// All lanes for cycles in `[now, scan_floor)` are known empty — a
    /// cache that makes consecutive pops amortised O(1) instead of
    /// rescanning the same empty prefix of the ring.
    scan_floor: Cycles,
    /// Sequence counter for the pre band `[0, MAIN_SEQ_BASE)`: events
    /// scheduled before [`EventQueue::seal`] and via
    /// [`EventQueue::schedule_pre`] afterwards. Run-time scheduling never
    /// touches this counter, so a fork and a straight run hand identical
    /// pre seqs to scenario-injected events.
    pre_seq: u64,
    /// Sequence counter for the main band `[MAIN_SEQ_BASE, ..)`: events
    /// scheduled by the running simulation itself.
    main_seq: u64,
    /// Set by the first [`EventQueue::seal`]; routes plain `schedule`
    /// calls to the main band from then on.
    sealed: bool,
    now: Cycles,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            lanes: (0..LANES).map(|_| VecDeque::new()).collect(),
            near_count: 0,
            far: BinaryHeap::new(),
            scan_floor: 0,
            pre_seq: 0,
            main_seq: MAIN_SEQ_BASE,
            sealed: false,
            now: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_count + self.far.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near_count == 0 && self.far.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`): delivering events
    /// out of order would silently corrupt the simulation.
    pub fn schedule(&mut self, at: Cycles, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        let seq = if self.sealed {
            self.main_seq += 1;
            self.main_seq - 1
        } else {
            self.pre_seq += 1;
            self.pre_seq - 1
        };
        if at - self.now < LANES as u64 {
            self.lanes[(at & LANE_MASK) as usize].push_back((seq, event));
            self.near_count += 1;
            self.scan_floor = self.scan_floor.min(at);
        } else {
            self.far.push(Reverse(Entry { at, seq, event }));
        }
    }

    /// Schedules `event` `delay` cycles after the current time.
    pub fn schedule_in(&mut self, delay: Cycles, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedules `event` in the *pre* band regardless of sealing: the
    /// event ties with (and among) construction-time events, never with
    /// run-time ones. Scenario injection into a resumed snapshot uses
    /// this so a forked run pops faults in exactly the order a straight
    /// run would have.
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()`, like [`EventQueue::schedule`].
    pub fn schedule_pre(&mut self, at: Cycles, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        let seq = self.pre_seq;
        self.pre_seq += 1;
        if at - self.now < LANES as u64 {
            // The lane may already hold main-band entries for this cycle;
            // keep it sorted by seq so the front stays the minimum.
            let lane = &mut self.lanes[(at & LANE_MASK) as usize];
            let pos = lane.partition_point(|(s, _)| *s < seq);
            lane.insert(pos, (seq, event));
            self.near_count += 1;
            self.scan_floor = self.scan_floor.min(at);
        } else {
            self.far.push(Reverse(Entry { at, seq, event }));
        }
    }

    /// Seals the pre band: subsequent [`EventQueue::schedule`] calls
    /// allocate from the main band. Idempotent; the run loop calls it
    /// once before popping the first event.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Cycle of the earliest non-empty lane, bounded by `bound` (the far
    /// heap's head, if any): scanning past `bound` is pointless because
    /// the far event would win anyway. Advances the scan floor over the
    /// verified-empty prefix.
    fn earliest_near(&mut self, bound: Option<Cycles>) -> Option<Cycles> {
        if self.near_count == 0 {
            return None;
        }
        let mut c = self.scan_floor.max(self.now);
        let limit = self.now + LANES as u64;
        while c < limit {
            if bound.is_some_and(|b| b < c) {
                break;
            }
            if !self.lanes[(c & LANE_MASK) as usize].is_empty() {
                self.scan_floor = c;
                return Some(c);
            }
            c += 1;
        }
        self.scan_floor = c;
        None
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the calendar is empty.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let far_at = self.far.peek().map(|Reverse(e)| (e.at, e.seq));
        let near_at = self.earliest_near(far_at.map(|(at, _)| at));
        // Ties on the cycle resolve by seq: the lane front holds the
        // smallest seq of its cycle.
        let near_wins = match (near_at, far_at) {
            (Some(n), Some((f, f_seq))) => {
                n < f || (n == f && self.lanes[(n & LANE_MASK) as usize][0].0 < f_seq)
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if near_wins {
            let at = near_at.expect("near side has an event");
            let (_, event) = self.lanes[(at & LANE_MASK) as usize]
                .pop_front()
                .expect("scanned lane is non-empty");
            self.near_count -= 1;
            debug_assert!(at >= self.now);
            self.now = at;
            Some((at, event))
        } else {
            let Reverse(e) = self.far.pop().expect("far side has an event");
            debug_assert!(e.at >= self.now);
            self.now = e.at;
            Some((e.at, e.event))
        }
    }

    /// Timestamp of the next pending event, if any, without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        let far_at = self.far.peek().map(|Reverse(e)| e.at);
        if self.near_count > 0 {
            let mut c = self.scan_floor.max(self.now);
            let limit = self.now + LANES as u64;
            while c < limit {
                if far_at.is_some_and(|b| b < c) {
                    break;
                }
                if !self.lanes[(c & LANE_MASK) as usize].is_empty() {
                    return Some(match far_at {
                        Some(f) => f.min(c),
                        None => c,
                    });
                }
                c += 1;
            }
        }
        far_at
    }

    /// Drops every pending event, leaving the clock unchanged.
    ///
    /// Used when a global rollback discards all in-flight protocol activity.
    pub fn clear(&mut self) {
        if self.near_count > 0 {
            for lane in &mut self.lanes {
                lane.clear();
            }
            self.near_count = 0;
        }
        self.far.clear();
        self.scan_floor = self.now;
    }

    /// Drops pending events that do not satisfy `keep`, leaving the clock
    /// unchanged. Relative order of surviving events is preserved: lanes
    /// filter in place FIFO-stably, and the far heap's `(at, seq)` keys
    /// are untouched, so re-heapification cannot reorder deliveries.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        if self.near_count > 0 {
            let mut kept = 0;
            for lane in &mut self.lanes {
                lane.retain(|(_, e)| keep(e));
                kept += lane.len();
            }
            self.near_count = kept;
        }
        self.far.retain(|Reverse(e)| keep(&e.event));
    }

    /// Iterates over the pending events in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let near = self.lanes.iter().flatten().map(|(_, e)| e);
        near.chain(self.far.iter().map(|Reverse(e)| &e.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The previous pure-binary-heap calendar, kept compiled under `cfg(test)`
/// as the differential-testing oracle: the bucketed queue must reproduce
/// its `(at, seq)` delivery order exactly, byte for byte.
#[cfg(test)]
pub(crate) mod legacy {
    use super::{Cycles, Entry, Reverse};
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    pub(crate) struct LegacyEventQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
        now: Cycles,
    }

    impl<E> LegacyEventQueue<E> {
        pub(crate) fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                seq: 0,
                now: 0,
            }
        }

        pub(crate) fn now(&self) -> Cycles {
            self.now
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }

        pub(crate) fn schedule(&mut self, at: Cycles, event: E) {
            assert!(at >= self.now, "event scheduled in the past");
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry { at, seq, event }));
        }

        pub(crate) fn pop(&mut self) -> Option<(Cycles, E)> {
            let Reverse(e) = self.heap.pop()?;
            self.now = e.at;
            Some((e.at, e.event))
        }

        pub(crate) fn peek_time(&self) -> Option<Cycles> {
            self.heap.peek().map(|Reverse(e)| e.at)
        }

        pub(crate) fn clear(&mut self) {
            self.heap.clear();
        }

        pub(crate) fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
            let old = std::mem::take(&mut self.heap);
            self.heap = old
                .into_iter()
                .filter(|Reverse(e)| keep(&e.event))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyEventQueue;
    use super::*;
    use crate::DetRng;

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 'a'), (20, 'b'), (30, 'c')]);
    }

    #[test]
    fn iter_sees_near_and_far_events() {
        let mut q = EventQueue::new();
        q.schedule(3, 'a');
        q.schedule(LANES as u64 * 4, 'b');
        q.schedule(3, 'c');
        let mut seen: Vec<char> = q.iter().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec!['a', 'b', 'c']);
        assert_eq!(q.iter().count(), q.len());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.schedule(5, ());
        q.schedule(9, ());
        let mut last = 0;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn retain_filters_and_preserves_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(i % 3, i);
        }
        q.retain(|&i| i % 2 == 0);
        let mut seen = Vec::new();
        while let Some((_, i)) = q.pop() {
            seen.push(i);
        }
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|i| i % 2 == 0));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(1, ());
        q.schedule(2, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(42, ());
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.pop(), Some((42, ())));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn near_and_far_events_interleave_in_order() {
        let mut q = EventQueue::new();
        // Far event first (gets the smaller seq)...
        q.schedule(LANES as u64 * 3, 'f');
        q.schedule(5, 'n');
        assert_eq!(q.pop(), Some((5, 'n')));
        // ...then a near event at the *same* cycle as the far one, which
        // must lose the tie on seq.
        q.schedule(LANES as u64 * 3, 'g');
        assert_eq!(q.pop(), Some((LANES as u64 * 3, 'f')));
        assert_eq!(q.pop(), Some((LANES as u64 * 3, 'g')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lane_wraparound_keeps_single_cycle_per_lane() {
        let mut q = EventQueue::new();
        // Event at the very edge of the window, then advance time past it
        // and schedule into the same lane's next wrap.
        q.schedule(LANES as u64 - 1, 'a');
        assert_eq!(q.pop(), Some((LANES as u64 - 1, 'a')));
        q.schedule(2 * LANES as u64 - 1, 'b'); // same lane index, next wrap
        q.schedule(LANES as u64, 'c');
        assert_eq!(q.pop(), Some((LANES as u64, 'c')));
        assert_eq!(q.pop(), Some((2 * LANES as u64 - 1, 'b')));
    }

    #[test]
    fn peek_time_agrees_between_near_and_far() {
        let mut q = EventQueue::new();
        q.schedule(LANES as u64 + 50, 'f');
        assert_eq!(q.peek_time(), Some(LANES as u64 + 50));
        q.schedule(3, 'n');
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(LANES as u64 + 50));
    }

    /// Satellite regression: `retain` must never reorder surviving
    /// same-cycle events (rollback determinism depends on it). Property
    /// test over random schedules and predicates.
    #[test]
    fn retain_preserves_same_cycle_order_property() {
        let mut rng = DetRng::seeded(0x5EED_0001);
        for _ in 0..200 {
            let mut q = EventQueue::new();
            let mut expect: Vec<(Cycles, u32)> = Vec::new();
            let base = rng.below(1000);
            for id in 0..rng.below(200) as u32 {
                // Mix of near, window-edge and far timestamps.
                let at = base
                    + match rng.below(4) {
                        0 => rng.below(8),
                        1 => rng.below(LANES as u64),
                        2 => LANES as u64 - 1 + rng.below(3),
                        _ => LANES as u64 * (1 + rng.below(4)),
                    };
                q.schedule(at, id);
                expect.push((at, id));
            }
            let modulus = 2 + rng.below(5) as u32;
            q.retain(|&id| id % modulus != 0);
            expect.retain(|&(_, id)| id % modulus != 0);
            // Stable sort by time only: same-cycle events must keep their
            // original (schedule) order.
            expect.sort_by_key(|&(at, _)| at);
            let drained: Vec<(Cycles, u32)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained, expect);
        }
    }

    #[test]
    fn pre_band_events_pop_before_main_band_at_same_cycle() {
        let mut q = EventQueue::new();
        q.schedule(10, 'a'); // pre band (unsealed)
        q.seal();
        q.schedule(10, 'b'); // main band
        q.schedule_pre(10, 'c'); // pre band, sorted into the occupied lane
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 'a'), (10, 'c'), (10, 'b')]);
    }

    #[test]
    fn schedule_pre_ties_like_construction_time_scheduling() {
        // A straight run schedules both faults before sealing; a forked
        // run schedules them via `schedule_pre` after sealing, possibly
        // after main-band events already landed at the same cycle. Both
        // must deliver the faults first, in schedule order.
        let far = LANES as u64 * 5;
        let mut straight = EventQueue::new();
        straight.schedule(far, 'x');
        straight.schedule(far, 'y');
        straight.seal();
        let drained: Vec<_> = std::iter::from_fn(|| straight.pop()).collect();
        assert_eq!(drained, vec![(far, 'x'), (far, 'y')]);

        let mut forked = EventQueue::new();
        forked.seal();
        forked.schedule(far, 'm'); // main-band noise at the same cycle
        forked.schedule_pre(far, 'x');
        forked.schedule_pre(far, 'y');
        assert_eq!(forked.pop(), Some((far, 'x')));
        assert_eq!(forked.pop(), Some((far, 'y')));
        assert_eq!(forked.pop(), Some((far, 'm')));
        assert_eq!(forked.pop(), None);
    }

    #[test]
    fn seal_is_idempotent() {
        let mut q = EventQueue::new();
        q.seal();
        q.seal();
        q.schedule(1, 'a');
        q.schedule_pre(1, 'b');
        assert_eq!(q.pop(), Some((1, 'b')));
        assert_eq!(q.pop(), Some((1, 'a')));
    }

    /// Tentpole gate: a cloned queue must replay the exact pop stream of
    /// the original, including events scheduled *after* the clone point
    /// (both bands), because the seq counters travel with the clone.
    #[test]
    fn clone_reproduces_the_exact_pop_stream() {
        let mut rng = DetRng::seeded(0xC10E_5EED);
        let mut q = EventQueue::new();
        for id in 0..500u32 {
            q.schedule(rng.below(LANES as u64 * 3), id);
        }
        q.seal();
        for _ in 0..100 {
            q.pop();
        }
        for id in 500..600u32 {
            q.schedule_in(rng.below(LANES as u64 * 2), id);
        }
        let mut c = q.clone();
        q.schedule_pre(q.now() + 7, 1_000);
        c.schedule_pre(c.now() + 7, 1_000);
        q.schedule(q.now() + 3, 1_001);
        c.schedule(c.now() + 3, 1_001);
        loop {
            let (a, b) = (q.pop(), c.pop());
            assert_eq!(a, b);
            assert_eq!(q.now(), c.now());
            if a.is_none() {
                break;
            }
        }
    }

    /// Tentpole gate: 1M mixed schedule/pop/retain/clear/peek ops, seeded;
    /// the bucketed calendar and the legacy binary heap must produce
    /// identical pop sequences (exact `(at, seq)` order).
    #[test]
    fn differential_fuzz_against_legacy_heap() {
        let mut rng = DetRng::seeded(0xCA1E_17DA);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut old_q: LegacyEventQueue<u64> = LegacyEventQueue::new();
        let mut next_id = 0u64;
        for step in 0..1_000_000u64 {
            match rng.below(100) {
                // Scheduling dominates, with delays that exercise lanes,
                // the window edge and the far heap.
                0..=54 => {
                    let delay = match rng.below(10) {
                        0..=5 => rng.below(200),
                        6..=7 => rng.below(LANES as u64 + 64),
                        8 => LANES as u64 + rng.below(100_000),
                        _ => 0,
                    };
                    let at = new_q.now() + delay;
                    new_q.schedule(at, next_id);
                    old_q.schedule(at, next_id);
                    next_id += 1;
                }
                55..=94 => {
                    assert_eq!(new_q.pop(), old_q.pop(), "diverged at step {step}");
                    assert_eq!(new_q.now(), old_q.now());
                }
                95..=96 => {
                    assert_eq!(new_q.peek_time(), old_q.peek_time());
                    assert_eq!(new_q.len(), old_q.len());
                }
                97..=98 => {
                    let modulus = 2 + rng.below(7);
                    new_q.retain(|&id| id % modulus != 0);
                    old_q.retain(|&id| id % modulus != 0);
                    assert_eq!(new_q.len(), old_q.len());
                }
                _ => {
                    new_q.clear();
                    old_q.clear();
                }
            }
        }
        // Drain both completely: the tails must match too.
        loop {
            let (a, b) = (new_q.pop(), old_q.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
