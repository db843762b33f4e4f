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
//! sorted ascending `c₁ ≤ … ≤ cₙ`, a flow at sorted position `j` is
//! **frozen** (granted its cap) iff
//!
//! ```text
//! g(j) = Σ_{i≤j} cᵢ + c_j·(n−j) ≤ C        (g is nondecreasing in j)
//! ```
//!
//! so the frozen prefix length `m` is a binary search, and the water
//! level is `L = (C − Σ_{i≤m} cᵢ) / (n−m)` (`+∞` when every demand
//! fits). Grants are then a pure function of `(cap, L)`: `cap` verbatim
//! when `cap ≤ L` — bit-equal to the demand, preserving
//! `progressive_fill`'s contract that an ordinary `<` separates clipped
//! from unclipped flows — and `L` otherwise.
//!
//! The structure keeps flows sorted by `(cap, id)` with a running
//! prefix-sum array: building from `k` flows is `O(k log k)`, and when
//! one flow's cap changes, arrives or drains, **re-levelling is an
//! `O(log k)` binary search** over the repaired prefix sums. Positional
//! maintenance is a bounded `memmove` (`k` is capped by the fleet's DTN
//! slot count, ≤ 4096), which on contiguous memory beats pointer-chasing
//! trees at every size the cap admits. The sorted order also gives the
//! fleet engine its status-flip query for free: when the level moves
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
/// **verbatim** in both.
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
/// // One flow drains: the remaining two re-level in O(log k).
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
    /// Live flow ids sorted ascending by `(cap, id)`.
    order: Vec<u32>,
    /// `prefix[i]` = running sum of `caps` over `order[0..=i]`.
    prefix: Vec<f64>,
    /// The current water level; `+∞` when every demand fits.
    level: f64,
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
            prefix: Vec::new(),
            level: f64::INFINITY,
        }
    }

    /// The shared capacity being divided.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The current water level: every flow with `cap > level` is clipped
    /// to it. `+∞` when every demand fits within the capacity (all flows
    /// granted their caps), which makes `grant = min(cap, level)` the
    /// uniform rule.
    pub fn level(&self) -> f64 {
        self.level
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
    pub(crate) fn grant(&self, id: WaterFlowId) -> f64 {
        let cap = self.cap(id);
        if cap <= self.level {
            cap
        } else {
            self.level
        }
    }

    /// Whether the flow is currently clipped below its cap.
    ///
    /// # Panics
    /// Panics on a removed handle.
    pub fn is_clipped(&self, id: WaterFlowId) -> bool {
        self.cap(id) > self.level
    }

    /// Register a flow demanding `cap`; re-levels incrementally.
    ///
    /// # Panics
    /// Panics on a negative or non-finite cap.
    pub fn insert(&mut self, cap: f64) -> WaterFlowId {
        assert!(
            non_negative_finite(cap),
            "flow cap must be finite and >= 0, got {cap}"
        );
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
        let pos = self.position_of(cap, id);
        self.order.insert(pos, id);
        self.prefix.push(0.0);
        self.refresh_from(pos);
        WaterFlowId(id)
    }

    /// Remove a drained flow; re-levels incrementally.
    ///
    /// # Panics
    /// Panics on a handle already removed.
    pub fn remove(&mut self, id: WaterFlowId) {
        let i = id.0;
        assert!(self.alive[i as usize], "flow {:?} is not live", id);
        let pos = self.position_of(self.caps[i as usize], i);
        debug_assert_eq!(self.order[pos], i);
        self.order.remove(pos);
        self.prefix.pop();
        self.alive[i as usize] = false;
        self.free.push(i);
        self.refresh_from(pos);
    }

    /// Change a live flow's cap (a trace breakpoint moving its demand);
    /// re-levels incrementally.
    ///
    /// # Panics
    /// Panics on a removed handle or an invalid cap.
    pub fn update(&mut self, id: WaterFlowId, cap: f64) {
        assert!(
            non_negative_finite(cap),
            "flow cap must be finite and >= 0, got {cap}"
        );
        let i = id.0;
        assert!(self.alive[i as usize], "flow {:?} is not live", id);
        let old = self.position_of(self.caps[i as usize], i);
        debug_assert_eq!(self.order[old], i);
        self.order.remove(old);
        self.caps[i as usize] = cap;
        let new = self.position_of(cap, i);
        self.order.insert(new, i);
        self.refresh_from(old.min(new));
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
        for &f in &self.order[start..] {
            if self.caps[f as usize] > hi {
                break;
            }
            visit(WaterFlowId(f));
        }
    }

    /// Sorted insertion point of `(cap, id)` — caps are finite and
    /// non-negative, so the IEEE bit pattern orders exactly like the
    /// value and the composite key needs no float comparator.
    fn position_of(&self, cap: f64, id: u32) -> usize {
        let key = (cap.to_bits(), id);
        self.order
            .partition_point(|&f| (self.caps[f as usize].to_bits(), f) < key)
    }

    /// Repair the prefix sums from `from` onward and re-solve the level.
    /// The running sum re-uses `prefix[from-1]`, which is by induction
    /// bitwise equal to a fresh left-to-right summation of the current
    /// sorted caps — so the level never depends on mutation history.
    fn refresh_from(&mut self, from: usize) {
        let mut acc = if from == 0 {
            0.0
        } else {
            self.prefix[from - 1]
        };
        for k in from..self.order.len() {
            acc += self.caps[self.order[k] as usize];
            self.prefix[k] = acc;
        }
        self.relevel();
    }

    /// Binary-search the frozen prefix (the largest `m` with
    /// `g(m) ≤ C`; `g` is nondecreasing) and derive the water level —
    /// the `O(log k)` re-level at the heart of the structure.
    fn relevel(&mut self) {
        let n = self.order.len();
        if n == 0 {
            self.level = f64::INFINITY;
            return;
        }
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let i = mid - 1;
            let g = self.prefix[i] + self.caps[self.order[i] as usize] * (n - mid) as f64;
            if g <= self.capacity {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let m = lo;
        self.level = if m == n {
            f64::INFINITY
        } else {
            let used = if m == 0 { 0.0 } else { self.prefix[m - 1] };
            ((self.capacity - used) / (n - m) as f64).max(0.0)
        };
    }

    /// Structural invariants, asserted by the tests after every
    /// mutation: order sorted by `(cap, id)`, prefix sums bitwise equal
    /// to a fresh left-to-right summation.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut acc = 0.0f64;
        for (k, &f) in self.order.iter().enumerate() {
            assert!(self.alive[f as usize]);
            if k > 0 {
                let prev = self.order[k - 1];
                let a = (self.caps[prev as usize].to_bits(), prev);
                let b = (self.caps[f as usize].to_bits(), f);
                assert!(a < b, "order not sorted at {k}");
            }
            acc += self.caps[f as usize];
            assert_eq!(acc.to_bits(), self.prefix[k].to_bits(), "prefix at {k}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::progressive_fill;
    use proptest::prelude::*;

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
        fn assert_matches_oracle(&self) {
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
                    assert_eq!(
                        got.to_bits(),
                        cap.to_bits(),
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
            ops in proptest::collection::vec(
                (0u8..4, any::<u16>(), 0.0f64..1e9),
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
}
