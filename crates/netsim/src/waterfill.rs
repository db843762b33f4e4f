//! Incremental max-min fairness: the **water-filling** allocator behind
//! the fleet simulator's shared-WAN mechanics — the one max-min allocator
//! production code uses.
//!
//! [`progressive_fill`](crate::progressive_fill) answers one allocation
//! from scratch in `O(k²)`: every round rescans all `k` flows. The
//! multi-tenant fleet simulator re-solves the allocation at *every*
//! event — arrival, drain, trace breakpoint — and at facility scale that
//! quadratic rescan would dominate the run.
//!
//! [`WaterFiller`] maintains the same allocation *incrementally*. The
//! standard water-level characterization: with capacity `C` and caps
//! sorted ascending `c₁ ≤ … ≤ cₙ`, the flow at sorted position `j`
//! **passes** iff
//!
//! ```text
//! g(j) = Σ_{i≤j} cᵢ + c_j·(n−j) ≤ C
//! ```
//!
//! and the frozen prefix (the flows granted their caps) is the longest
//! run of leading flows that pass, of length `m`. The water level is
//! `L = (C − Σ_{i≤m} cᵢ) / (n−m)` (`+∞` when every flow passes). Grants
//! are then a pure function of `(cap, L)`: `cap` verbatim when `cap ≤ L`
//! — bit-equal to the demand, preserving `progressive_fill`'s contract
//! that an ordinary `<` separates clipped from unclipped flows — and `L`
//! otherwise. In exact arithmetic `g` is nondecreasing, so the first
//! failure ends every later run too; in floats, tied caps can make `g`
//! dip by an ulp, and the first failure is what defines `m`.
//!
//! The structure keeps flows sorted by `(cap, id)`: a drain or a cap
//! change is a position search and a bounded `memmove` (`k` is capped by
//! the fleet's DTN slot count, ≤ 4096), which on contiguous memory beats
//! pointer-chasing trees at every size the cap admits. An arrival is
//! placed lazily: the newest flow stays out of the sorted order, and
//! every query treats it as sitting at its `(cap, id)` position, until the
//! next arrival places it. The fleet often moves a flow to a floor cap in
//! the step that admits it, so that flow is searched and moved once, at
//! its final cap, and a flow that drains before the next arrival is never
//! searched at all. A mutation only marks the level stale. The next read
//! ([`WaterFiller::level`], [`WaterFiller::is_clipped`]) solves it with
//! **one scan up from the smallest cap**, carrying the running sum and
//! stopping at the first flow that fails — `O(m+1)` for `m` frozen flows,
//! and a contended fleet freezes few. The sum restarts from zero at every
//! solve, so the level never depends on mutation history, and mutations
//! between two reads cost no solve at all. The sorted order also gives
//! the fleet engine its status-flip query for free: when the level moves
//! from `L₀` to `L₁`, exactly the flows with caps in
//! `(min(L₀,L₁), max(L₀,L₁)]` can change sides — an `O(log k + flips)`
//! range visit instead of a full rescan.
//!
//! `progressive_fill` stays as the reference oracle: the differential
//! proptest below holds every [`WaterFiller`] grant to ≤ 1e-12 relative
//! error against it across random cap sets and event schedules.

use sss_sim::non_negative_finite;

/// Handle to a flow registered with a [`WaterFiller`].
///
/// Handles are slab indices: dense, copyable, and recycled after
/// [`WaterFiller::remove`] in deterministic LIFO order, so callers can
/// key side tables by [`WaterFlowId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaterFlowId(u32);

impl WaterFlowId {
    /// The dense slab index behind the handle (stable until the flow is
    /// removed; reused afterwards).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Incremental max-min fair allocator over one shared capacity.
///
/// Semantically identical to running
/// [`progressive_fill`](crate::progressive_fill) over the live caps
/// after every mutation, up to float re-association (the differential
/// tests hold the drift to ≤ 1e-12 relative); frozen grants are caps
/// **verbatim** in both. Mutations keep the sorted order and leave the
/// level stale; the reads that need it ([`WaterFiller::level`],
/// [`WaterFiller::is_clipped`]) take `&mut self` and solve it once.
///
/// ```
/// use sss_netsim::{progressive_fill, WaterFiller};
///
/// let mut wf = WaterFiller::new(10.0);
/// let a = wf.insert(2.0);
/// let b = wf.insert(9.0);
/// let c = wf.insert(9.0);
/// // Same allocation as the one-shot oracle, [2, 4, 4]: `a` keeps its
/// // cap and the other two are clipped to the water level.
/// assert_eq!(progressive_fill(10.0, &[2.0, 9.0, 9.0]), vec![2.0, 4.0, 4.0]);
/// assert_eq!(wf.level(), 4.0);
/// assert!(!wf.is_clipped(a) && wf.is_clipped(b) && wf.is_clipped(c));
/// // One flow drains: the next read re-levels the remaining two.
/// wf.remove(b);
/// assert_eq!(wf.level(), 8.0);
/// assert!(!wf.is_clipped(a) && wf.is_clipped(c));
/// ```
#[derive(Debug, Clone)]
pub struct WaterFiller {
    /// The shared capacity being divided.
    capacity: f64,
    /// Cap per slab slot (stale once the slot is freed).
    caps: Vec<f64>,
    /// Whether each slab slot currently holds a live flow.
    alive: Vec<bool>,
    /// Freed slab slots, reused LIFO.
    free: Vec<u32>,
    /// Live flow ids sorted ascending by `(cap, id)`, all but `unplaced`.
    order: Vec<u32>,
    /// The newest live flow, not yet in `order`: every query treats it as
    /// sitting at its `(cap, id)` position, and the next
    /// [`WaterFiller::insert`] places it there.
    unplaced: Option<u32>,
    /// The water level as of the last read (`+∞` when every demand
    /// fits); `None` once a mutation has made it stale.
    level: Option<f64>,
}

impl WaterFiller {
    /// An empty allocator over `capacity` (same units as the caps).
    ///
    /// # Panics
    /// Panics on a negative or non-finite capacity.
    pub fn new(capacity: f64) -> Self {
        assert!(
            non_negative_finite(capacity),
            "capacity must be finite and >= 0, got {capacity}"
        );
        WaterFiller {
            capacity,
            caps: Vec::new(),
            alive: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            unplaced: None,
            level: None,
        }
    }

    /// The shared capacity being divided.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.order.len() + usize::from(self.unplaced.is_some())
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current water level: every flow with `cap > level` is clipped
    /// to it. `+∞` when every demand fits within the capacity (all flows
    /// granted their caps), which makes `grant = min(cap, level)` the
    /// uniform rule. Solved here, once per run of mutations, in `O(m+1)`
    /// for `m` frozen flows.
    pub fn level(&mut self) -> f64 {
        match self.level {
            Some(level) => level,
            None => {
                let caps = self.sorted(0, self.unplaced).map(|f| self.caps[f as usize]);
                *self
                    .level
                    .insert(front_scan(self.capacity, self.len(), caps))
            }
        }
    }

    /// The registered cap of a live flow.
    ///
    /// # Panics
    /// Panics on a removed (or never-issued) handle.
    pub fn cap(&self, id: WaterFlowId) -> f64 {
        assert!(self.alive[id.index()], "flow {:?} is not live", id);
        self.caps[id.index()]
    }

    /// The flow's max-min fair grant: its cap **verbatim** when
    /// `cap ≤ level` (bit-equal to the demand, so `grant < cap` cleanly
    /// tests "clipped"), the water level otherwise.
    ///
    /// # Panics
    /// Panics on a removed handle.
    #[cfg(test)]
    pub(crate) fn grant(&mut self, id: WaterFlowId) -> f64 {
        let cap = self.cap(id);
        let level = self.level();
        if cap <= level {
            cap
        } else {
            level
        }
    }

    /// Whether the flow is currently clipped below its cap.
    ///
    /// # Panics
    /// Panics on a removed handle.
    pub fn is_clipped(&mut self, id: WaterFlowId) -> bool {
        self.cap(id) > self.level()
    }

    /// Register a flow demanding `cap`; the level goes stale. The new
    /// flow is left unplaced, and the flow this call places is the one
    /// the previous call left: a flow that drains, or whose cap changes,
    /// before the next insert costs no search for its insertion. A `-0.0`
    /// cap is stored, and granted, as `+0.0`.
    ///
    /// # Panics
    /// Panics on a negative or non-finite cap.
    pub fn insert(&mut self, cap: f64) -> WaterFlowId {
        assert!(
            non_negative_finite(cap),
            "flow cap must be finite and >= 0, got {cap}"
        );
        // `-0.0` passes the check, but its IEEE bits would sort it after
        // every positive cap in the `(cap bits, id)` order.
        let cap = cap.abs();
        if let Some(prev) = self.unplaced.take() {
            let pos = self.position_of(self.caps[prev as usize], prev);
            self.order.insert(pos, prev);
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.caps[id as usize] = cap;
                self.alive[id as usize] = true;
                id
            }
            None => {
                self.caps.push(cap);
                self.alive.push(true);
                (self.caps.len() - 1) as u32
            }
        };
        self.unplaced = Some(id);
        self.level = None;
        WaterFlowId(id)
    }

    /// Remove a drained flow; the level goes stale.
    ///
    /// # Panics
    /// Panics on a handle already removed.
    pub fn remove(&mut self, id: WaterFlowId) {
        let i = id.0;
        assert!(self.alive[i as usize], "flow {:?} is not live", id);
        if self.unplaced == Some(i) {
            self.unplaced = None;
        } else {
            let pos = self.position_of(self.caps[i as usize], i);
            debug_assert_eq!(self.order[pos], i);
            self.order.remove(pos);
        }
        self.alive[i as usize] = false;
        self.free.push(i);
        self.level = None;
    }

    /// Change a live flow's cap (a trace breakpoint moving its demand);
    /// the level goes stale. The unplaced flow only takes the new cap, so
    /// the next insert places it where that cap sorts. A `-0.0` cap is
    /// stored as `+0.0`, as in [`WaterFiller::insert`].
    ///
    /// # Panics
    /// Panics on a removed handle or an invalid cap.
    pub fn update(&mut self, id: WaterFlowId, cap: f64) {
        assert!(
            non_negative_finite(cap),
            "flow cap must be finite and >= 0, got {cap}"
        );
        let cap = cap.abs();
        let i = id.0;
        assert!(self.alive[i as usize], "flow {:?} is not live", id);
        if self.unplaced != Some(i) {
            let old = self.position_of(self.caps[i as usize], i);
            debug_assert_eq!(self.order[old], i);
            self.order.remove(old);
            let new = self.position_of(cap, i);
            self.order.insert(new, i);
        }
        self.caps[i as usize] = cap;
        self.level = None;
    }

    /// Visit every live flow whose cap lies in the half-open interval
    /// `(lo, hi]`, ascending. This is the fleet engine's **status-flip
    /// query**: after the level moves from `L₀` to `L₁`, only flows with
    /// caps in `(min(L₀,L₁), max(L₀,L₁)]` can have changed sides —
    /// `O(log k + flips)` instead of a full rescan. An infinite `hi`
    /// (the all-frozen level) visits everything above `lo`.
    pub fn for_caps_in(&self, lo: f64, hi: f64, mut visit: impl FnMut(WaterFlowId)) {
        if hi <= lo {
            return;
        }
        let start = self.order.partition_point(|&f| self.caps[f as usize] <= lo);
        // Above `lo`, the unplaced flow sorts after every flow before
        // `start`.
        let unplaced = self.unplaced.filter(|&f| self.caps[f as usize] > lo);
        for f in self.sorted(start, unplaced) {
            if self.caps[f as usize] > hi {
                break;
            }
            visit(WaterFlowId(f));
        }
    }

    /// The flows from `order[start]` on, ascending by `(cap, id)`, with
    /// `unplaced`, which must sort after `order[..start]`, merged in at
    /// its key: a merge, not a search, so it costs a compare a flow until
    /// `unplaced` is passed.
    fn sorted(&self, start: usize, unplaced: Option<u32>) -> Sorted<'_> {
        Sorted {
            caps: &self.caps,
            order: self.order[start..].iter(),
            unplaced: unplaced.map(|f| (self.caps[f as usize].to_bits(), f)),
        }
    }

    /// Sorted insertion point of `(cap, id)` — caps are finite and
    /// non-negative, so the IEEE bit pattern orders exactly like the
    /// value and the composite key needs no float comparator.
    fn position_of(&self, cap: f64, id: u32) -> usize {
        #[cfg(test)]
        tests::SEARCHES.with(|n| n.set(n.get() + 1));
        let key = (cap.to_bits(), id);
        self.order
            .partition_point(|&f| (self.caps[f as usize].to_bits(), f) < key)
    }

    /// Structural invariant, asserted by the tests after every mutation:
    /// order sorted by `(cap, id)` over live flows, and the unplaced flow
    /// live and not in it.
    #[cfg(test)]
    fn check_invariants(&self) {
        for (k, &f) in self.order.iter().enumerate() {
            assert!(self.alive[f as usize]);
            if k > 0 {
                let prev = self.order[k - 1];
                let a = (self.caps[prev as usize].to_bits(), prev);
                let b = (self.caps[f as usize].to_bits(), f);
                assert!(a < b, "order not sorted at {k}");
            }
        }
        if let Some(f) = self.unplaced {
            assert!(self.alive[f as usize], "the unplaced flow {f} is not live");
            assert!(!self.order.contains(&f), "the unplaced flow {f} is placed");
        }
        let live = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(self.len(), live, "every live flow is placed or unplaced");
    }
}

/// The live flows of a [`WaterFiller`] in ascending `(cap, id)` order:
/// a stretch of the sorted order, with the unplaced flow's key, when it
/// falls in that stretch, merged in where it sorts.
struct Sorted<'a> {
    caps: &'a [f64],
    order: std::slice::Iter<'a, u32>,
    /// The unplaced flow's `(cap bits, id)` until it is yielded.
    unplaced: Option<(u64, u32)>,
}

impl Iterator for Sorted<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if let Some(key) = self.unplaced {
            let before = |&f: &u32| (self.caps[f as usize].to_bits(), f) < key;
            if !self.order.as_slice().first().is_some_and(before) {
                self.unplaced = None;
                return Some(key.1);
            }
        }
        self.order.next().copied()
    }
}

/// The water level of `n` flows whose caps `caps` yields in ascending
/// `(cap, id)` order: one scan up from the smallest cap, with a running
/// sum of the caps that passed, which stops at the first flow that fails.
/// `rest` counts the flows above the current one as a float (exact below
/// 2⁵³), which spares an integer conversion per flow.
fn front_scan(capacity: f64, n: usize, caps: impl Iterator<Item = f64>) -> f64 {
    let mut used = 0.0;
    let mut rest = n as f64;
    for cap in caps {
        rest -= 1.0;
        let sum = used + cap;
        if sum + cap * rest > capacity {
            // `used` is 0 at the first flow. Past it, the flow before
            // passed with `fl(used + c·k) ≤ C` for some `c·k ≥ 0`, and
            // rounding is monotone, so `used ≤ C`: the level is ≥ +0.
            let level = (capacity - used) / (rest + 1.0);
            debug_assert!(level >= 0.0, "negative water level {level}");
            return level;
        }
        used = sum;
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::progressive_fill;
    use proptest::prelude::*;
    use proptest::{collection, TestRng};
    use sss_core::Scenario;
    use std::cell::Cell;

    thread_local! {
        /// Position searches this thread's filler ran.
        pub(super) static SEARCHES: Cell<u64> = const { Cell::new(0) };
    }

    /// The position searches `f` runs.
    fn searches(f: impl FnOnce()) -> u64 {
        let before = SEARCHES.get();
        f();
        SEARCHES.get() - before
    }

    /// Shadow model: `(id, cap)` in insertion order, the layout
    /// `progressive_fill` sees.
    struct Shadow {
        wf: WaterFiller,
        live: Vec<(WaterFlowId, f64)>,
    }

    impl Shadow {
        fn new(capacity: f64) -> Self {
            Shadow {
                wf: WaterFiller::new(capacity),
                live: Vec::new(),
            }
        }

        fn insert(&mut self, cap: f64) {
            let id = self.wf.insert(cap);
            self.live.push((id, cap));
        }

        fn remove(&mut self, pos: usize) {
            let (id, _) = self.live.remove(pos);
            self.wf.remove(id);
        }

        fn update(&mut self, pos: usize, cap: f64) {
            let (id, slot) = (self.live[pos].0, pos);
            self.wf.update(id, cap);
            self.live[slot].1 = cap;
        }

        /// Every grant within 1e-12 relative of the oracle, frozen
        /// grants bit-equal to their caps, and total grants within the
        /// capacity.
        fn assert_matches_oracle(&mut self) {
            self.wf.check_invariants();
            let caps: Vec<f64> = self.live.iter().map(|&(_, c)| c).collect();
            let want = progressive_fill(self.wf.capacity(), &caps);
            let scale = self
                .wf
                .capacity()
                .max(caps.iter().copied().fold(0.0, f64::max))
                .max(1.0);
            let mut total = 0.0;
            for (&(id, cap), &w) in self.live.iter().zip(&want) {
                let got = self.wf.grant(id);
                assert!(
                    (got - w).abs() <= 1e-12 * scale,
                    "grant {got} vs oracle {w} for cap {cap} (caps {caps:?}, C {})",
                    self.wf.capacity()
                );
                if !self.wf.is_clipped(id) {
                    // Verbatim up to the sign of zero: a `-0.0` cap is
                    // stored as `+0.0`.
                    assert_eq!(
                        got.to_bits(),
                        cap.abs().to_bits(),
                        "frozen grants must be the cap verbatim"
                    );
                }
                total += got;
            }
            if !self.live.is_empty() && self.wf.level().is_finite() {
                assert!(
                    total <= self.wf.capacity() * (1.0 + 1e-9) + 1e-9 * scale,
                    "grants {total} overshoot capacity {}",
                    self.wf.capacity()
                );
            }
        }
    }

    /// A `-0.0` cap sorts as zero: the level is the 1.75 that
    /// `progressive_fill` grants the two largest caps, and the flip query
    /// above 0.25 skips the zero flow.
    #[test]
    fn a_negative_zero_cap_sorts_as_zero() {
        let mut s = Shadow::new(5.0);
        for c in [-0.0, 1.0, 2.0, 3.0, 0.5] {
            s.insert(c);
            s.assert_matches_oracle();
        }
        assert_eq!(s.wf.level(), 1.75);
        let zero = s.live[0].0;
        s.wf.for_caps_in(0.25, 10.0, |id| {
            assert_ne!(id, zero, "visited the zero flow")
        });
        s.update(1, -0.0);
        s.assert_matches_oracle();
        s.wf.for_caps_in(0.25, 10.0, |id| assert_ne!(id, s.live[1].0));
    }

    #[test]
    fn matches_the_doc_example() {
        let mut s = Shadow::new(10.0);
        for c in [2.0, 9.0, 9.0] {
            s.insert(c);
            s.assert_matches_oracle();
        }
        assert_eq!(s.wf.grant(s.live[0].0), 2.0);
        assert_eq!(s.wf.grant(s.live[1].0), 4.0);
        assert!(s.wf.is_clipped(s.live[1].0));
        assert!(!s.wf.is_clipped(s.live[0].0));
    }

    #[test]
    fn single_flow_is_capped_by_capacity_only() {
        let mut s = Shadow::new(5.0);
        s.insert(3.0);
        s.assert_matches_oracle();
        assert_eq!(s.wf.grant(s.live[0].0), 3.0);
        s.update(0, 8.0);
        s.assert_matches_oracle();
        assert_eq!(s.wf.grant(s.live[0].0), 5.0);
    }

    #[test]
    fn all_frozen_when_capacity_dominates() {
        let mut s = Shadow::new(1e12);
        for c in [1.0, 2.5, 0.0, 7.0] {
            s.insert(c);
        }
        s.assert_matches_oracle();
        assert_eq!(s.wf.level(), f64::INFINITY);
        for &(id, cap) in &s.live {
            assert_eq!(s.wf.grant(id).to_bits(), cap.to_bits());
        }
    }

    #[test]
    fn zero_capacity_grants_zero_with_zero_caps_verbatim() {
        let mut s = Shadow::new(0.0);
        s.insert(1.0);
        s.insert(0.0);
        s.assert_matches_oracle();
        // The zero-cap flow "fits" (frozen at 0 verbatim); the other is
        // clipped to a zero level.
        assert!(!s.wf.is_clipped(s.live[1].0));
        assert!(s.wf.is_clipped(s.live[0].0));
        assert_eq!(s.wf.grant(s.live[0].0), 0.0);
    }

    #[test]
    fn tied_caps_land_on_the_same_side() {
        let mut s = Shadow::new(10.0);
        for _ in 0..4 {
            s.insert(3.0);
        }
        s.assert_matches_oracle();
        let clipped: Vec<bool> = s.live.iter().map(|&(id, _)| s.wf.is_clipped(id)).collect();
        assert!(
            clipped.iter().all(|&c| c) || clipped.iter().all(|&c| !c),
            "bit-equal caps must not straddle the level: {clipped:?}"
        );
    }

    #[test]
    fn removal_recycles_slab_slots_deterministically() {
        let mut wf = WaterFiller::new(100.0);
        let a = wf.insert(1.0);
        let b = wf.insert(2.0);
        wf.remove(a);
        let c = wf.insert(3.0);
        // LIFO reuse: the freed slot comes back.
        assert_eq!(c.index(), a.index());
        assert_eq!(wf.cap(b), 2.0);
        assert_eq!(wf.cap(c), 3.0);
        assert_eq!(wf.len(), 2);
    }

    #[test]
    fn flip_range_query_sees_exactly_the_crossers() {
        let mut wf = WaterFiller::new(100.0);
        let ids: Vec<WaterFlowId> = [1.0, 4.0, 6.0, 9.0].iter().map(|&c| wf.insert(c)).collect();
        let mut seen = Vec::new();
        wf.for_caps_in(1.0, 6.0, |id| seen.push(id));
        assert_eq!(seen, vec![ids[1], ids[2]], "(1, 6] is {{4, 6}}");
        seen.clear();
        wf.for_caps_in(6.0, f64::INFINITY, |id| seen.push(id));
        assert_eq!(seen, vec![ids[3]]);
        seen.clear();
        wf.for_caps_in(3.0, 3.0, |id| seen.push(id));
        assert!(seen.is_empty(), "an empty interval visits nothing");
    }

    /// The newest flow is unplaced until the next insert, and the reads
    /// see it where it sorts: removed, it costs no search and leaves the
    /// others' level; its caps above and below the level re-level as a
    /// placed flow's would.
    #[test]
    fn an_unplaced_flow_reads_as_a_placed_one() {
        let mut s = Shadow::new(10.0);
        s.insert(2.0);
        s.insert(9.0);
        s.insert(9.0);
        let new = s.live[2].0;
        assert_eq!(s.wf.unplaced, Some(new.0));
        s.assert_matches_oracle();
        assert_eq!(s.wf.level(), 4.0);
        // Below the level it keeps its cap, and the other clipped flow
        // takes the rest.
        assert_eq!(searches(|| s.update(2, 1.0)), 0);
        s.assert_matches_oracle();
        assert_eq!(s.wf.level(), 7.0);
        assert!(!s.wf.is_clipped(new));
        // Above it, it is clipped with the other.
        assert_eq!(searches(|| s.update(2, 20.0)), 0);
        s.assert_matches_oracle();
        assert_eq!(s.wf.level(), 4.0);
        assert!(s.wf.is_clipped(new));
        // Removed, it was never placed.
        assert_eq!(searches(|| s.remove(2)), 0);
        s.assert_matches_oracle();
        assert_eq!((s.wf.len(), s.wf.unplaced), (2, None));
        assert_eq!(s.wf.level(), 8.0);
        // The next insert has nothing to place.
        assert_eq!(searches(|| s.insert(3.0)), 0);
        s.assert_matches_oracle();
    }

    /// The flip query visits the unplaced flow in `(cap, id)` order: in
    /// every band that holds its cap and in none that does not, and,
    /// on a recycled slot below a tied flow's id, before that flow.
    #[test]
    fn the_flip_query_visits_the_unplaced_flow_in_order() {
        let mut wf = WaterFiller::new(100.0);
        let ids: Vec<WaterFlowId> = [1.0, 4.0, 9.0, 5.0].iter().map(|&c| wf.insert(c)).collect();
        let extra = wf.insert(6.0);
        let visit = |wf: &WaterFiller, lo: f64, hi: f64| {
            let mut seen = Vec::new();
            wf.for_caps_in(lo, hi, |id| seen.push(id));
            seen
        };
        assert_eq!(visit(&wf, 1.0, 9.0), [ids[1], ids[3], extra, ids[2]]);
        assert_eq!(visit(&wf, 5.0, 6.0), [extra]);
        assert_eq!(visit(&wf, 6.0, f64::INFINITY), [ids[2]]);
        assert_eq!(visit(&wf, 0.0, 5.5), [ids[0], ids[1], ids[3]]);
        assert_eq!(visit(&wf, 6.0, 6.0), []);
        // Slot 0 comes back for a flow tied with `ids[2]` at 9: it sorts
        // first on the id.
        wf.remove(ids[0]);
        let tied = wf.insert(9.0);
        assert_eq!(tied.index(), 0);
        wf.check_invariants();
        assert_eq!(visit(&wf, 5.0, 9.0), [extra, tied, ids[2]]);
        assert_eq!(visit(&wf, 8.0, f64::INFINITY), [tied, ids[2]]);
    }

    /// The fleet's admission pattern on 128 flows: a drain removes a
    /// placed flow, an admission inserts one, the step reads the level,
    /// and the new flow moves to a floor below its cap. Two searches per
    /// admission: the drain's, and the placement of the flow the previous
    /// admission left unplaced, at its floor. Placing each flow on insert
    /// and moving it on update took four.
    #[test]
    fn an_admission_places_its_flow_once() {
        let caps = tied_caps();
        let mut wf = WaterFiller::new(5e9);
        let mut live: Vec<(WaterFlowId, f64)> = (0..128)
            .map(|k| {
                let cap = caps[k % caps.len()];
                (wf.insert(cap), cap)
            })
            .collect();
        const ADMISSIONS: u64 = 1000;
        let mut levels = 0;
        let n = searches(|| {
            for a in 0..ADMISSIONS as usize {
                // Never the newest flow, which the fleet drains rarely.
                let (out, _) = live.remove(a * 7919 % (live.len() - 1));
                wf.remove(out);
                let cap = caps[a % caps.len()];
                let id = wf.insert(cap);
                let mut sorted: Vec<f64> = live.iter().map(|&(_, c)| c).collect();
                sorted.push(cap);
                sorted.sort_by(f64::total_cmp);
                let level = wf.level();
                assert_eq!(
                    level.to_bits(),
                    scanned_level(wf.capacity(), &sorted).to_bits()
                );
                levels += usize::from(level.is_finite());
                wf.update(id, 0.3 * cap);
                live.push((id, 0.3 * cap));
            }
        });
        wf.check_invariants();
        assert!(levels > 0, "the fleet's flows must contend");
        assert_eq!(n, 2 * ADMISSIONS);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_remove_panics() {
        let mut wf = WaterFiller::new(1.0);
        let id = wf.insert(1.0);
        wf.remove(id);
        wf.remove(id);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 48, ..Default::default()
        })]

        /// The tentpole differential: a `WaterFiller` driven through a
        /// random event schedule (inserts — including zero-cap flows —
        /// removes and cap updates) agrees with a fresh
        /// `progressive_fill` over the live caps after *every* mutation,
        /// to ≤ 1e-12 relative error, with frozen grants bit-equal.
        #[test]
        fn grants_match_progressive_fill_through_event_schedules(
            // Three capacity regimes: zero (everything clips to 0),
            // contended (the interesting case), and dominant
            // (all-frozen: every grant is a cap verbatim).
            capacity_class in 0u8..3,
            capacity_mantissa in 1.0f64..9.9,
            // One cap in eight is `-0.0`, which inserts and updates
            // must order as `+0.0`.
            ops in proptest::collection::vec(
                (
                    0u8..4,
                    any::<u16>(),
                    (0.0f64..1e9, 0u8..8).prop_map(|(c, z)| if z == 0 { -0.0 } else { c }),
                ),
                1..70,
            ),
        ) {
            let capacity = match capacity_class {
                0 => 0.0,
                1 => capacity_mantissa * 1e8,
                _ => capacity_mantissa * 1e12,
            };
            let mut s = Shadow::new(capacity);
            for (kind, pick, cap) in ops {
                match kind {
                    0 => s.insert(cap),
                    // Zero-cap flows: a session inside an outage window.
                    1 => s.insert(0.0),
                    2 if !s.live.is_empty() => {
                        let pos = pick as usize % s.live.len();
                        s.remove(pos);
                    }
                    3 if !s.live.is_empty() => {
                        let pos = pick as usize % s.live.len();
                        s.update(pos, cap);
                    }
                    _ => s.insert(cap),
                }
                s.assert_matches_oracle();
            }
        }
    }

    /// The caps a fleet's flows demand, as perfbench's `waterfill_layers`
    /// draws them: each catalog scenario's base rate and its 0.3× dip,
    /// plus zero (a session in an outage window). The set is small, so
    /// live caps tie often.
    fn tied_caps() -> Vec<f64> {
        let mut caps: Vec<f64> = Scenario::all()
            .iter()
            .flat_map(|s| {
                let eff = s.params.effective_rate().as_bytes_per_sec();
                [eff, 0.3 * eff]
            })
            .collect();
        caps.push(0.0);
        caps
    }

    /// `g(j)` over ascending caps, with the running sum left to right
    /// from zero.
    fn g_values(sorted: &[f64]) -> Vec<f64> {
        let n = sorted.len();
        let mut sum = 0.0;
        sorted
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                sum += c;
                sum + c * (n - j - 1) as f64
            })
            .collect()
    }

    /// The level from scratch: freeze leading flows while they pass and
    /// share what is left among the rest.
    fn scanned_level(capacity: f64, sorted: &[f64]) -> f64 {
        let n = sorted.len();
        let mut used = 0.0;
        for (j, g) in g_values(sorted).into_iter().enumerate() {
            if g > capacity {
                return (capacity - used) / (n - j) as f64;
            }
            used += sorted[j];
        }
        f64::INFINITY
    }

    /// The level as the prefix-sum allocator solved it: running prefix
    /// sums, then a binary search for the largest `m` with `g(m) ≤ C`.
    /// That is the longest passing run only while `g` is nondecreasing.
    fn bisected_level(capacity: f64, sorted: &[f64]) -> f64 {
        let n = sorted.len();
        let mut prefix = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &c in sorted {
            acc += c;
            prefix.push(acc);
        }
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let i = mid - 1;
            let g = prefix[i] + sorted[i] * (n - mid) as f64;
            if g <= capacity {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let m = lo;
        if m == n {
            f64::INFINITY
        } else {
            let used = if m == 0 { 0.0 } else { prefix[m - 1] };
            ((capacity - used) / (n - m) as f64).max(0.0)
        }
    }

    /// The lazy level under random interleavings of inserts, updates,
    /// removes and reads over tied caps: every read (`level` or
    /// `is_clipped`) answers bit for bit as a fresh front scan over the
    /// sorted live caps, and, whenever float `g` is nondecreasing over
    /// them, as the prefix-sum bisection the scan replaced. The flip
    /// query from the level to a catalog cap visits the live flows in
    /// that band in `(cap, id)` order, the unplaced newest one among them.
    ///
    /// The catalog's rates have short mantissas, so their sums are exact
    /// and `g` never dips over them. Half the cases scale the set by one
    /// factor, as a session's `θ` scales its demand: ties stay ties, sums
    /// round, and the bisection's precondition fails on some reads (the
    /// test asserts that both sides come up). A third of the cases start
    /// with every flow on one cap. Capacities sit at zero, across the
    /// contended-to-frozen range, and on a `g` value of the first flows or
    /// one ulp either side, which the first read sees.
    #[test]
    fn the_lazy_level_is_a_fresh_front_scan_bit_for_bit() {
        let catalog = tied_caps();
        let cases = (
            (0u8..2, 0.5f64..2.0),
            (0u8..3, 0.0f64..1.0, -1i8..=1),
            (0u8..3, collection::vec(0..catalog.len(), 1..=200)),
            collection::vec((0u8..5, any::<u16>(), 0..catalog.len()), 0..200),
        );
        let mut rng = TestRng::from_name(module_path!());
        let (mut reads, mut monotone, mut split) = (0u32, 0u32, 0u32);
        for case in 0..256 {
            let ((scaled, factor), (class, frac, nudge), (uniform, mut first), mut steps) =
                cases.generate(&mut rng);
            if uniform == 0 {
                // Every first flow on one cap: `g` is one value `n·c` in
                // exact arithmetic, and rounding alone orders it.
                let k = first[0];
                first.fill(k);
            }
            // Read first, while the capacity still sits on a `g` value.
            steps.insert(0, (3, 0, 0));
            let set: Vec<f64> = match scaled {
                0 => catalog.clone(),
                _ => catalog.iter().map(|&c| c * factor).collect(),
            };
            let mut sorted: Vec<f64> = first.iter().map(|&k| set[k]).collect();
            sorted.sort_by(f64::total_cmp);
            let capacity = match class {
                0 => 0.0,
                1 => 1.2 * frac * sorted.iter().sum::<f64>(),
                _ => {
                    let gs = g_values(&sorted);
                    let g = gs[(frac * gs.len() as f64) as usize];
                    match nudge {
                        -1 if g > 0.0 => f64::from_bits(g.to_bits() - 1),
                        1 => f64::from_bits(g.to_bits() + 1),
                        _ => g,
                    }
                }
            };
            let mut wf = WaterFiller::new(capacity);
            let mut live: Vec<(WaterFlowId, f64)> =
                first.iter().map(|&k| (wf.insert(set[k]), set[k])).collect();
            for (at, (kind, pick, k)) in steps.into_iter().enumerate() {
                let slot = pick as usize % live.len().max(1);
                match kind {
                    1 if !live.is_empty() => {
                        wf.update(live[slot].0, set[k]);
                        live[slot].1 = set[k];
                    }
                    2 if !live.is_empty() => {
                        wf.remove(live.swap_remove(slot).0);
                    }
                    3 | 4 => {
                        let mut sorted: Vec<f64> = live.iter().map(|&(_, c)| c).collect();
                        sorted.sort_by(f64::total_cmp);
                        let want = scanned_level(capacity, &sorted);
                        let ctx =
                            || format!("case {case}, step {at}, C {capacity:e}, caps {sorted:?}");
                        if kind == 4 && !live.is_empty() {
                            let (id, cap) = live[slot];
                            assert_eq!(wf.is_clipped(id), cap > want, "is_clipped: {}", ctx());
                        }
                        let got = wf.level();
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "level {got:e} vs scan {want:e}: {}",
                            ctx()
                        );
                        reads += 1;
                        // The flip query between the level and a catalog
                        // cap: the live flows in that band, in key order.
                        let (lo, hi) = if set[k] < got {
                            (set[k], got)
                        } else {
                            (got, set[k])
                        };
                        let mut band: Vec<(u64, u32)> = live
                            .iter()
                            .filter(|&&(_, c)| lo < c && c <= hi)
                            .map(|&(id, c)| (c.to_bits(), id.0))
                            .collect();
                        band.sort_unstable();
                        let mut seen = Vec::new();
                        wf.for_caps_in(lo, hi, |id| seen.push(id.0));
                        let want: Vec<u32> = band.into_iter().map(|(_, id)| id).collect();
                        assert_eq!(seen, want, "flows in ({lo:e}, {hi:e}]: {}", ctx());
                        let old = bisected_level(capacity, &sorted);
                        if g_values(&sorted).windows(2).all(|w| w[0] <= w[1]) {
                            monotone += 1;
                            assert_eq!(
                                got.to_bits(),
                                old.to_bits(),
                                "level {got:e} vs bisection {old:e}: {}",
                                ctx()
                            );
                        } else if got.to_bits() != old.to_bits() {
                            split += 1;
                        }
                    }
                    _ => live.push((wf.insert(set[k]), set[k])),
                }
                wf.check_invariants();
            }
        }
        eprintln!(
            "{monotone} of {reads} reads had a nondecreasing g; \
             the bisection answered otherwise on {split} of the rest"
        );
        assert!(
            0 < monotone && monotone < reads,
            "{monotone} of {reads} reads had a nondecreasing g: both sides must come up"
        );
    }
}
