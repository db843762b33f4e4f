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
//! The structure sorts flows by `(cap, id)` only as far as reads reach.
//! A flow is **settled** when the next arrival moves it off the unplaced
//! seat (below) or when its cap changes. A cap above the last solved
//! level (`+∞` before the first read) goes into an unsorted **bag**: an
//! `O(1)` push, and a swap-remove when the flow drains or moves. Any
//! other cap goes into the sorted order, by a position search and a
//! bounded `memmove` (`k` is capped by the fleet's DTN slot count,
//! ≤ 4096), which on contiguous memory beats pointer-chasing trees at
//! every size the cap admits. A contended fleet clips nearly every flow,
//! so nearly every flow waits in the bag, and no search is paid for its
//! order. The bag keeps `bag_floor`, a lower bound on its caps.
//!
//! An arrival is settled lazily: the newest flow stays unplaced, in
//! neither the order nor the bag, and every read treats it as sitting at
//! its `(cap, id)` position until the next arrival settles it. The fleet
//! often moves a flow to a floor cap in the step that admits it, so that
//! flow is settled once, at its final cap, and a flow that drains before
//! the next arrival is never settled at all.
//!
//! A mutation only marks the level stale. The next read
//! ([`WaterFiller::level`], [`WaterFiller::is_clipped`]) solves it with
//! **one scan up from the smallest cap**, carrying the running sum and
//! stopping at the first flow that fails — `O(m+1)` for `m` frozen flows,
//! and a contended fleet freezes few. The scan walks the order, with the
//! unplaced flow merged in at its key, up to the first cap at or above
//! `bag_floor`, and then tests the floor in the next flow's place. IEEE
//! rounding is monotone in each operand, so if
//! `fl(fl(used + b) + fl(b·rest)) > C` holds at `b = bag_floor`, it holds
//! at every larger cap: whichever flow is next fails, and the level
//! `(C − used)/rest` is bit for bit the full scan's (`rest` counts the
//! flows left as an integer-valued float). Only when this stand-in
//! passes does the scan tighten the floor to the bag's least cap, in one
//! pass over the bag, and, if that flow passes too, place it where the
//! scan stands, with no search, and go on. The sum restarts from zero at
//! every solve, so the level never depends on mutation history, and
//! mutations between two reads cost no solve at all.
//!
//! The sorted order also gives the fleet engine its status-flip query:
//! when the level moves from `L₀` to `L₁`, exactly the flows with caps in
//! `(min(L₀,L₁), max(L₀,L₁)]` can change sides. The query first places
//! the bag flows with caps up to the band's top, so it visits the band in
//! `(cap, id)` order — an `O(log k + flips)` range visit instead of a
//! full rescan, plus one pass over the bag when the band reaches its
//! floor.
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

/// The `(cap bits, id)` key of no flow: caps are finite, so it sorts after
/// every flow's key, and its cap reads as `+∞`.
const PAST_ALL: (u64, u32) = (f64::INFINITY.to_bits(), u32::MAX);

/// [`WaterFiller::bag_at`] of a slot whose flow is not in the bag.
const NOT_IN_BAG: u32 = u32::MAX;

/// Incremental max-min fair allocator over one shared capacity.
///
/// Semantically identical to running
/// [`progressive_fill`](crate::progressive_fill) over the live caps
/// after every mutation, up to float re-association (the differential
/// tests hold the drift to ≤ 1e-12 relative); frozen grants are caps
/// **verbatim** in both. Mutations settle flows into the sorted order or
/// the bag and leave the level stale; the reads that need it
/// ([`WaterFiller::level`], [`WaterFiller::is_clipped`]) take
/// `&mut self` and solve it once. They and the flip query
/// ([`WaterFiller::for_caps_in`]) move into the sorted order the bag
/// flows they reach.
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
    /// Settled flows sorted ascending by `(cap, id)`: those whose caps
    /// were at or below the last solved level when they settled, and the
    /// bag flows a read or a flip query has placed since.
    order: Vec<u32>,
    /// Settled flows whose caps were above the last solved level when
    /// they settled, in no order; a read places one only when the scan
    /// reaches it and it passes.
    bag: Vec<u32>,
    /// Each slab slot's index in `bag`, [`NOT_IN_BAG`] for a slot whose
    /// flow is not there.
    bag_at: Vec<u32>,
    /// A lower bound on every bag cap (`+∞` when the bag is empty): a
    /// drain or a move can leave it below the least cap, and a read that
    /// cannot answer from it tightens it to that cap.
    bag_floor: f64,
    /// The newest live flow, settled neither in `order` nor in `bag`:
    /// every read treats it as sitting at its `(cap, id)` position, and
    /// the next [`WaterFiller::insert`] settles it.
    unplaced: Option<u32>,
    /// The water level as of the last read (`+∞` before the first, or
    /// when every demand fits); what a flow's cap is compared with when
    /// it settles, stale or not.
    level: f64,
    /// Whether a mutation has made `level` stale since it was solved.
    stale: bool,
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
            bag: Vec::new(),
            bag_at: Vec::new(),
            bag_floor: f64::INFINITY,
            unplaced: None,
            level: f64::INFINITY,
            stale: false,
        }
    }

    /// The shared capacity being divided.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.order.len() + self.bag.len() + usize::from(self.unplaced.is_some())
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current water level: every flow with `cap > level` is clipped
    /// to it. `+∞` when every demand fits within the capacity (all flows
    /// granted their caps), which makes `grant = min(cap, level)` the
    /// uniform rule. Solved here, once per run of mutations, in `O(m+1)`
    /// for `m` frozen flows, plus a pass over the bag for each bag flow
    /// the scan reaches.
    pub fn level(&mut self) -> f64 {
        if self.stale {
            self.level = self.solve();
            self.stale = false;
        }
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
    /// flow is left unplaced, and the flow this call settles is the one
    /// the previous call left: a flow that drains, or whose cap changes,
    /// before the next insert costs nothing to settle. A `-0.0` cap is
    /// stored, and granted, as `+0.0`.
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
            self.settle(prev);
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
                self.bag_at.push(NOT_IN_BAG);
                (self.caps.len() - 1) as u32
            }
        };
        self.unplaced = Some(id);
        self.stale = true;
        WaterFlowId(id)
    }

    /// Remove a drained flow; the level goes stale. A bag flow leaves by
    /// a swap-remove, with no search.
    ///
    /// # Panics
    /// Panics on a handle already removed.
    pub fn remove(&mut self, id: WaterFlowId) {
        let i = id.0;
        assert!(self.alive[i as usize], "flow {:?} is not live", id);
        if self.unplaced == Some(i) {
            self.unplaced = None;
        } else {
            self.unsettle(i);
        }
        self.alive[i as usize] = false;
        self.free.push(i);
        self.stale = true;
    }

    /// Change a live flow's cap (a trace breakpoint moving its demand);
    /// the level goes stale. The unplaced flow only takes the new cap, so
    /// the next insert settles it by that cap; any other flow settles
    /// again at once, into the bag when the cap is above the last solved
    /// level. A `-0.0` cap is stored as `+0.0`, as in
    /// [`WaterFiller::insert`].
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
        if self.unplaced == Some(i) {
            self.caps[i as usize] = cap;
        } else {
            self.unsettle(i);
            self.caps[i as usize] = cap;
            self.settle(i);
        }
        self.stale = true;
    }

    /// Visit every live flow whose cap lies in the half-open interval
    /// `(lo, hi]`, ascending by `(cap, id)`. This is the fleet engine's
    /// **status-flip query**: after the level moves from `L₀` to `L₁`,
    /// only flows with caps in `(min(L₀,L₁), max(L₀,L₁)]` can have
    /// changed sides — `O(log k + flips)` instead of a full rescan. An
    /// infinite `hi` (the all-frozen level) visits everything above `lo`.
    /// When `hi` reaches the bag floor, the bag flows with caps up to
    /// `hi` are placed in the sorted order first, in one pass over the
    /// bag that also tightens the floor.
    pub fn for_caps_in(&mut self, lo: f64, hi: f64, mut visit: impl FnMut(WaterFlowId)) {
        if hi <= lo {
            return;
        }
        if hi >= self.bag_floor {
            self.place_bag_through(hi);
        }
        let mut at = self.order.partition_point(|&f| self.caps[f as usize] <= lo);
        // Above `lo`, the unplaced flow sorts after every flow before
        // `at`.
        let mut unplaced = self
            .unplaced
            .filter(|&f| self.caps[f as usize] > lo)
            .map_or(PAST_ALL, |f| self.key(f));
        loop {
            let head = self.order.get(at).map_or(PAST_ALL, |&f| self.key(f));
            let next = head.min(unplaced);
            if next == PAST_ALL || f64::from_bits(next.0) > hi {
                return;
            }
            if next == unplaced {
                unplaced = PAST_ALL;
            } else {
                at += 1;
            }
            visit(WaterFlowId(next.1));
        }
    }

    /// The water level of the live flows: one scan up from the smallest
    /// cap, with a running sum of the caps that passed, which stops at
    /// the first flow that fails. It walks `order` with the unplaced flow
    /// merged in at its key; at the bag floor it tests the floor in the
    /// next flow's place, and reaches into the bag only when that
    /// stand-in passes (see the module doc).
    fn solve(&mut self) -> f64 {
        let capacity = self.capacity;
        let mut used = 0.0;
        // The flows from the current one on, as a float (exact below
        // 2⁵³), which spares an integer conversion per flow.
        let mut rest = self.len() as f64;
        let mut at = 0;
        let mut unplaced = self.unplaced.map_or(PAST_ALL, |f| self.key(f));
        // The bag's least key once a tightening has found it: the floor
        // is exact until the scan places that flow.
        let mut least = None;
        loop {
            // The ordered flows below both the unplaced flow's cap and
            // the bag floor come next in key order.
            let stop = self.bag_floor.min(f64::from_bits(unplaced.0));
            while let Some(&f) = self.order.get(at) {
                let cap = self.caps[f as usize];
                if cap >= stop {
                    break;
                }
                rest -= 1.0;
                let sum = used + cap;
                if sum + cap * rest > capacity {
                    return share(capacity, used, rest + 1.0);
                }
                used = sum;
                at += 1;
            }
            // The next flow by key: `order[at]`, the unplaced flow or,
            // from the floor up, the bag's least.
            let head = self.order.get(at).map_or(PAST_ALL, |&f| self.key(f));
            let mut next = head.min(unplaced);
            if f64::from_bits(next.0) >= self.bag_floor {
                if self.bag.is_empty() {
                    // The floor is `+∞`, so `next` is past every flow:
                    // all of them passed.
                    return f64::INFINITY;
                }
                let bag_least = match least {
                    Some(key) => key,
                    None => {
                        let b = self.bag_floor;
                        if (used + b) + b * (rest - 1.0) > capacity {
                            #[cfg(test)]
                            tests::took(tests::Path::StandIn);
                            return share(capacity, used, rest);
                        }
                        *least.insert(self.tighten())
                    }
                };
                next = next.min(bag_least);
            }
            let cap = f64::from_bits(next.0);
            rest -= 1.0;
            let sum = used + cap;
            if sum + cap * rest > capacity {
                return share(capacity, used, rest + 1.0);
            }
            used = sum;
            if next == unplaced {
                unplaced = PAST_ALL;
                continue;
            }
            if least == Some(next) {
                // The bag's least passed. Every flow before `at` sorts
                // below it and `order[at]` above, so it goes there.
                self.take_from_bag(next.1);
                self.order.insert(at, next.1);
                least = None;
                #[cfg(test)]
                tests::took(tests::Path::ReadPlaced);
            }
            at += 1;
        }
    }

    /// Lower the bag floor to the bag's least cap, in one pass over the
    /// bag, and return that flow's key.
    fn tighten(&mut self) -> (u64, u32) {
        let least = self
            .bag
            .iter()
            .map(|&f| self.key(f))
            .fold(PAST_ALL, Ord::min);
        self.bag_floor = f64::from_bits(least.0);
        #[cfg(test)]
        tests::took(tests::Path::Tightened);
        least
    }

    /// Move every bag flow with a cap at or below `hi` to its place in
    /// `order`, and tighten the floor to the least cap left.
    fn place_bag_through(&mut self, hi: f64) {
        let mut floor = f64::INFINITY;
        let mut k = 0;
        while let Some(&f) = self.bag.get(k) {
            let cap = self.caps[f as usize];
            if cap <= hi {
                // The swap-remove brings an unvisited flow to `k`.
                self.take_from_bag(f);
                let pos = self.position_of(cap, f);
                self.order.insert(pos, f);
                #[cfg(test)]
                tests::took(tests::Path::FlipPlaced);
            } else {
                floor = floor.min(cap);
                k += 1;
            }
        }
        self.bag_floor = floor;
    }

    /// Settle flow `f`, in neither `order` nor the bag, by its cap: into
    /// the bag when the cap is above the last solved level, else at its
    /// `(cap, id)` position in `order`.
    fn settle(&mut self, f: u32) {
        let cap = self.caps[f as usize];
        if cap > self.level {
            self.bag_at[f as usize] = self.bag.len() as u32;
            self.bag.push(f);
            self.bag_floor = self.bag_floor.min(cap);
        } else {
            let pos = self.position_of(cap, f);
            self.order.insert(pos, f);
        }
    }

    /// Take settled flow `f` out of `order` or the bag.
    fn unsettle(&mut self, f: u32) {
        if self.bag_at[f as usize] == NOT_IN_BAG {
            let pos = self.position_of(self.caps[f as usize], f);
            debug_assert_eq!(self.order[pos], f);
            self.order.remove(pos);
        } else {
            self.take_from_bag(f);
        }
    }

    /// Swap-remove bag flow `f`. The floor stays a lower bound on the
    /// caps left, and goes back to `+∞` when none are.
    fn take_from_bag(&mut self, f: u32) {
        let at = self.bag_at[f as usize] as usize;
        self.bag.swap_remove(at);
        if let Some(&moved) = self.bag.get(at) {
            self.bag_at[moved as usize] = at as u32;
        }
        self.bag_at[f as usize] = NOT_IN_BAG;
        if self.bag.is_empty() {
            self.bag_floor = f64::INFINITY;
        }
    }

    /// Flow `f`'s `(cap bits, id)` key. Caps are finite and non-negative,
    /// so the IEEE bit pattern orders exactly like the value and the
    /// composite key needs no float comparator.
    #[inline]
    fn key(&self, f: u32) -> (u64, u32) {
        (self.caps[f as usize].to_bits(), f)
    }

    /// Sorted insertion point of `(cap, id)` in `order`.
    fn position_of(&self, cap: f64, id: u32) -> usize {
        #[cfg(test)]
        tests::SEARCHES.with(|n| n.set(n.get() + 1));
        let key = (cap.to_bits(), id);
        self.order.partition_point(|&f| self.key(f) < key)
    }

    /// Structural invariant, asserted by the tests after every mutation:
    /// order sorted by `(cap, id)` over live flows; every bag flow live,
    /// in neither the order nor the unplaced seat, found where `bag_at`
    /// says and at or above the floor; the floor `+∞` on an empty bag;
    /// the unplaced flow live and in neither; and `len` counting every
    /// live flow.
    #[cfg(test)]
    fn check_invariants(&self) {
        for (k, &f) in self.order.iter().enumerate() {
            assert!(self.alive[f as usize]);
            assert_eq!(
                self.bag_at[f as usize], NOT_IN_BAG,
                "ordered flow {f} in the bag"
            );
            if k > 0 {
                let prev = self.order[k - 1];
                assert!(self.key(prev) < self.key(f), "order not sorted at {k}");
            }
        }
        for (k, &f) in self.bag.iter().enumerate() {
            assert!(self.alive[f as usize], "the bag flow {f} is not live");
            assert_eq!(self.bag_at[f as usize] as usize, k, "bag_at of {f}");
            assert_ne!(self.unplaced, Some(f), "the bag flow {f} is unplaced");
            assert!(
                self.caps[f as usize] >= self.bag_floor,
                "the bag flow {f} is below the floor"
            );
        }
        for (f, &at) in self.bag_at.iter().enumerate() {
            if at != NOT_IN_BAG {
                assert_eq!(
                    self.bag.get(at as usize),
                    Some(&(f as u32)),
                    "bag_at of {f}"
                );
            }
        }
        if self.bag.is_empty() {
            assert_eq!(self.bag_floor, f64::INFINITY, "the floor of an empty bag");
        }
        if let Some(f) = self.unplaced {
            assert!(self.alive[f as usize], "the unplaced flow {f} is not live");
            assert!(!self.order.contains(&f), "the unplaced flow {f} is placed");
            assert_eq!(
                self.bag_at[f as usize], NOT_IN_BAG,
                "the unplaced flow {f} is in the bag"
            );
        }
        let live = self.alive.iter().filter(|&&a| a).count();
        assert_eq!(
            self.len(),
            live,
            "every live flow is ordered, in the bag or unplaced"
        );
    }
}

/// The level at the first flow that fails: what the `rest` flows from it
/// on share of what the passing flows left.
#[inline]
fn share(capacity: f64, used: f64, rest: f64) -> f64 {
    // `used` is 0 at the first flow. Past it, the flow before passed
    // with `fl(used + c·k) ≤ C` for some `c·k ≥ 0`, and rounding is
    // monotone, so `used ≤ C`: the level is ≥ +0.
    let level = (capacity - used) / rest;
    debug_assert!(level >= 0.0, "negative water level {level}");
    level
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
        /// How often this thread's filler took each [`Path`].
        static PATHS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
    }

    /// The bag's paths through a read and a flip query.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum Path {
        /// The bag floor answered a read in the next flow's place.
        StandIn,
        /// A read tightened the floor to the bag's least cap.
        Tightened,
        /// A read placed the bag's least flow, which passed.
        ReadPlaced,
        /// A flip query placed a bag flow in its band.
        FlipPlaced,
    }

    pub(super) fn took(path: Path) {
        let mut n = PATHS.get();
        n[path as usize] += 1;
        PATHS.set(n);
    }

    /// The position searches `f` runs.
    fn searches(f: impl FnOnce()) -> u64 {
        let before = SEARCHES.get();
        f();
        SEARCHES.get() - before
    }

    /// How often `f` took each [`Path`], in declaration order.
    fn paths(f: impl FnOnce()) -> [u64; 4] {
        let before = PATHS.get();
        f();
        let after = PATHS.get();
        std::array::from_fn(|k| after[k] - before[k])
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
        assert_eq!(visit(&mut wf, 1.0, 9.0), [ids[1], ids[3], extra, ids[2]]);
        assert_eq!(visit(&mut wf, 5.0, 6.0), [extra]);
        assert_eq!(visit(&mut wf, 6.0, f64::INFINITY), [ids[2]]);
        assert_eq!(visit(&mut wf, 0.0, 5.5), [ids[0], ids[1], ids[3]]);
        assert_eq!(visit(&mut wf, 6.0, 6.0), []);
        // Slot 0 comes back for a flow tied with `ids[2]` at 9: it sorts
        // first on the id.
        wf.remove(ids[0]);
        let tied = wf.insert(9.0);
        assert_eq!(tied.index(), 0);
        wf.check_invariants();
        assert_eq!(visit(&mut wf, 5.0, 9.0), [extra, tied, ids[2]]);
        assert_eq!(visit(&mut wf, 8.0, f64::INFINITY), [tied, ids[2]]);
    }

    /// The flows the flip query visits in `(lo, hi]`, in its order.
    fn visit(wf: &mut WaterFiller, lo: f64, hi: f64) -> Vec<WaterFlowId> {
        let mut seen = Vec::new();
        wf.for_caps_in(lo, hi, |id| seen.push(id));
        seen
    }

    /// A filler over `capacity` with a flow per cap, each insert followed
    /// by a read, so each flow settles against a level that counted it.
    /// Over 30 with the caps 40, 35, 45, 9 and a last one above 10, every
    /// flow but the last waits in the bag, whose floor is 9, and the last
    /// is unplaced: no flow is ever searched for.
    fn bagged(capacity: f64, caps: &[f64]) -> (WaterFiller, Vec<WaterFlowId>) {
        let mut wf = WaterFiller::new(capacity);
        let mut ids = Vec::new();
        let n = searches(|| {
            for &cap in caps {
                ids.push(wf.insert(cap));
                wf.level();
            }
        });
        assert_eq!((n, wf.order.len()), (0, 0), "every flow is in the bag");
        wf.check_invariants();
        (wf, ids)
    }

    /// The level over the live caps from scratch.
    fn scanned(wf: &WaterFiller) -> f64 {
        let mut caps: Vec<f64> = (0..wf.caps.len())
            .filter(|&f| wf.alive[f])
            .map(|f| wf.caps[f])
            .collect();
        caps.sort_by(f64::total_cmp);
        scanned_level(wf.capacity(), &caps)
    }

    /// A read whose next flow is in the bag or above its floor is
    /// answered from the floor alone: no search, no pass over the bag.
    #[test]
    fn a_read_the_floor_answers_searches_nothing() {
        let (mut wf, ids) = bagged(30.0, &[40.0, 35.0, 45.0, 9.0, 50.0]);
        assert_eq!((wf.bag.len(), wf.bag_floor), (4, 9.0));
        // With four flows, `9·4 > 30`: every flow is clipped, whatever
        // the bag's order.
        wf.remove(ids[2]);
        let mut level = 0.0;
        let n = searches(|| assert_eq!(paths(|| level = wf.level()), [1, 0, 0, 0]));
        assert_eq!(n, 0);
        assert_eq!(level.to_bits(), scanned(&wf).to_bits());
        assert_eq!(level, 7.5);
        wf.check_invariants();
    }

    /// The bag's least flow drains and leaves the floor below every cap
    /// left. The next read's stand-in passes (`9·3 ≤ 30`), so it tightens
    /// the floor to the least cap, 35, which fails: the level with no
    /// search, and the read after it is answered by the tight floor.
    #[test]
    fn a_stale_floor_is_tightened_by_the_read_that_reaches_it() {
        let (mut wf, ids) = bagged(30.0, &[40.0, 35.0, 45.0, 9.0, 50.0]);
        wf.remove(ids[2]);
        wf.remove(ids[3]);
        assert_eq!(wf.bag_floor, 9.0, "a drain leaves the floor as it was");
        let mut level = 0.0;
        let n = searches(|| assert_eq!(paths(|| level = wf.level()), [0, 1, 0, 0]));
        assert_eq!(n, 0);
        assert_eq!(level.to_bits(), scanned(&wf).to_bits());
        assert_eq!((wf.bag_floor, wf.bag.len()), (35.0, 2));
        wf.update(ids[4], 60.0);
        assert_eq!(paths(|| level = wf.level()), [1, 0, 0, 0]);
        assert_eq!(level.to_bits(), scanned(&wf).to_bits());
        wf.check_invariants();
    }

    /// Two drains lift the level over the bag's least flow: the read's
    /// stand-in passes, the least flow passes too and is placed where the
    /// scan stands, with no search, and the next bag flow ends the scan
    /// from the bag. The unplaced flow stays unplaced.
    #[test]
    fn a_read_places_the_one_bag_flow_that_passes() {
        let (mut wf, ids) = bagged(30.0, &[40.0, 35.0, 45.0, 9.0, 50.0]);
        wf.remove(ids[0]);
        wf.remove(ids[2]);
        let mut level = 0.0;
        let n = searches(|| assert_eq!(paths(|| level = wf.level()), [0, 2, 1, 0]));
        assert_eq!(n, 0);
        assert_eq!(level.to_bits(), scanned(&wf).to_bits());
        assert_eq!(level, 10.5);
        assert_eq!(
            (&wf.order[..], &wf.bag[..]),
            (&[ids[3].0][..], &[ids[1].0][..])
        );
        assert_eq!(wf.unplaced, Some(ids[4].0));
        assert!(!wf.is_clipped(ids[3]) && wf.is_clipped(ids[1]));
        wf.check_invariants();
    }

    /// A band below the floor places nothing. A band that reaches it
    /// places exactly the bag flows at or below its top, tightens the
    /// floor to the least cap left, and visits the band in `(cap, id)`
    /// order: the unplaced flow, tied at 40 with a bag flow of a lower
    /// id, after it.
    #[test]
    fn a_flip_query_places_only_the_bag_flows_in_its_band() {
        let (mut wf, ids) = bagged(30.0, &[40.0, 35.0, 45.0, 9.0, 40.0]);
        let n = searches(|| assert_eq!(visit(&mut wf, 5.0, 8.0), []));
        assert_eq!((n, wf.bag.len()), (0, 4));
        let mut seen = Vec::new();
        let placed = paths(|| seen = visit(&mut wf, 5.0, 42.0));
        assert_eq!(placed, [0, 0, 0, 3]);
        assert_eq!(seen, [ids[3], ids[1], ids[0], ids[4]]);
        assert_eq!((&wf.bag[..], wf.bag_floor), (&[ids[2].0][..], 45.0));
        wf.check_invariants();
        assert_eq!(wf.level().to_bits(), scanned(&wf).to_bits());
    }

    /// A `-0.0` cap moves a bag flow to the order as `+0.0`: below any
    /// level, granted its cap verbatim, and outside a band above zero.
    #[test]
    fn a_negative_zero_update_of_a_bag_flow_is_positive_zero() {
        let (mut wf, ids) = bagged(30.0, &[40.0, 35.0, 45.0, 9.0, 50.0]);
        wf.update(ids[1], -0.0);
        wf.check_invariants();
        assert_eq!(wf.order, [ids[1].0]);
        assert_eq!(wf.cap(ids[1]).to_bits(), 0.0f64.to_bits());
        assert_eq!(wf.grant(ids[1]).to_bits(), 0.0f64.to_bits());
        assert_eq!(wf.level().to_bits(), scanned(&wf).to_bits());
        assert!(!visit(&mut wf, 0.0, 100.0).contains(&ids[1]));
    }

    /// The fleet's admission pattern on 128 flows: a drain removes a
    /// settled flow, an admission inserts one, the step reads the level,
    /// and the new flow moves to a floor below its cap. Every floor but
    /// zero is above the level, so it settles into the bag and its drain
    /// swap-removes it: such an admission costs no search. The 198 left
    /// over 1000 admissions are 38 flows settled into the order (the
    /// last of the first 128, which the first admission settles before
    /// any read, and 37 zero floors) and 160 drains that find their flow
    /// there (all 128 first flows, settled at a level of `+∞`, and 32
    /// zero floors).
    /// Searching for every settled flow took two an admission, and
    /// placing each flow on insert and moving it on update four.
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
        const ADMISSIONS: usize = 1000;
        let mut levels = 0;
        let n = searches(|| {
            for a in 0..ADMISSIONS {
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
        assert_eq!(n, 198);
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
    /// that band in `(cap, id)` order, the unplaced newest one and the
    /// bag's among them. A bare read between mutations keeps the last
    /// level current, so the flows that settle above it wait in the bag
    /// as the fleet's do; the test asserts that the floor answered a
    /// read, that a read tightened it and placed a bag flow, and that a
    /// flip query placed one.
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
            collection::vec((0u8..6, any::<u16>(), 0..catalog.len()), 0..200),
        );
        let mut rng = TestRng::from_name(module_path!());
        let (mut reads, mut monotone, mut split) = (0u32, 0u32, 0u32);
        let before = PATHS.get();
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
                    5 => {
                        let mut sorted: Vec<f64> = live.iter().map(|&(_, c)| c).collect();
                        sorted.sort_by(f64::total_cmp);
                        let want = scanned_level(capacity, &sorted);
                        let got = wf.level();
                        assert_eq!(got.to_bits(), want.to_bits(), "case {case}, step {at}");
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
        let after = PATHS.get();
        let took: [u64; 4] = std::array::from_fn(|k| after[k] - before[k]);
        eprintln!(
            "{monotone} of {reads} reads had a nondecreasing g; \
             the bisection answered otherwise on {split} of the rest; \
             stand-in answers, tightenings, read and flip placements: {took:?}"
        );
        assert!(
            0 < monotone && monotone < reads,
            "{monotone} of {reads} reads had a nondecreasing g: both sides must come up"
        );
        assert!(
            took.iter().all(|&n| n > 0),
            "every bag path must come up: {took:?}"
        );
    }
}
