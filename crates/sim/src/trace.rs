//! Time-varying WAN bandwidth traces.
//!
//! The closed-form completion model treats the network as a constant
//! effective rate `α·Bw`; real campaigns see diurnal load cycles, bursty
//! loss episodes and scheduled maintenance windows. A [`BandwidthTrace`]
//! is a piecewise-constant rate over simulated time; the exact movement
//! pipelines integrate transfers over it, which is exactly where the
//! simulated completion diverges from the closed form.
//!
//! [`TraceShape`] is the bundled vocabulary the scenario catalog replays
//! under (see the shape constants documented on each variant):
//!
//! * `steady` — constant at the base rate (the closed-form assumption);
//! * `diurnal` — a staircase cosine between 10% and 100% of base
//!   (mean 55%), one full period per characteristic horizon;
//! * `bursty` — deterministic pseudo-random congestion dips to 30% of
//!   base, hitting ~25% of `horizon/32` slots;
//! * `outage` — one full outage window from 25% to 60% of the horizon.

use serde::{Deserialize, Serialize};
use sss_units::Rate;

use crate::time::{non_negative_finite, Seconds};

/// A piecewise-constant bandwidth profile over simulated time.
///
/// Segments cover `[start_i, start_{i+1})`; the last segment extends
/// forever and must carry a positive rate so every transfer terminates.
///
/// ```
/// use sss_sim::BandwidthTrace;
/// use sss_units::Rate;
///
/// let t = BandwidthTrace::from_segments(&[
///     (0.0, Rate::from_gigabytes_per_sec(1.0)),
///     (2.0, Rate::ZERO),                          // a 2-second outage
///     (4.0, Rate::from_gigabytes_per_sec(1.0)),
/// ])
/// .unwrap();
/// // 3 GB starting at t=0: 2 GB move before the outage, the rest after.
/// assert_eq!(t.finish_time(0.0, 3.0e9), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BandwidthTrace {
    /// Segment start times in seconds; strictly increasing, first is 0.
    starts_s: Vec<f64>,
    /// Rate of each segment in bytes per second.
    rates_bps: Vec<f64>,
}

/// A [`BandwidthTrace`]'s wire form: its columns as serialized, not yet
/// checked.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct TraceColumns {
    starts_s: Vec<f64>,
    rates_bps: Vec<f64>,
}

// A deserialized trace passes the checks of `from_segments`, so every
// integrator can rely on them.
impl Deserialize for BandwidthTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let TraceColumns {
            starts_s,
            rates_bps,
        } = TraceColumns::from_value(v)?;
        BandwidthTrace::from_columns(starts_s, rates_bps).map_err(serde::Error::custom)
    }
}

/// When the sends of a [`BandwidthTrace::send_chain`] are ready: they
/// carry consecutive units of a source that finishes one unit every
/// `period` seconds from t=0, the first send unit `first`, so send `i` is
/// ready at `period·(first + i + 1)` (bit for bit the instant
/// `FrameSource::frame_ready` gives frame `first + i`). For a finite,
/// non-negative period that instant never decreases in `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Production {
    /// Seconds between two units.
    pub period: f64,
    /// The unit the chain's first send carries.
    pub first: u32,
}

impl Production {
    /// When send `i` is ready. The unit count is an integer below 2^33,
    /// so it converts to `f64` exactly and never overflows.
    #[inline]
    fn ready(&self, i: u32) -> f64 {
        self.period * (u64::from(self.first) + u64::from(i) + 1) as f64
    }
}

/// Segments a [`BandwidthTrace::window_above`] chunk tests at once.
const LANES: usize = 8;

/// The 52 mantissa bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;

/// Slots a bursty trace cuts each horizon into.
const SLOTS: usize = 32;

/// Horizons a bursty trace repeats its slots over.
const HORIZONS: usize = 8;

/// Words of 64 dip flags a bursty trace's slots fill.
const WORDS: usize = SLOTS * HORIZONS / 64;

/// The share of base a bursty slot keeps when it dips: the layout and
/// [`DippedTrace`] both take a dipped slot's rate as `base * DIP_FACTOR`.
const DIP_FACTOR: f64 = 0.3;

impl BandwidthTrace {
    /// A constant-rate trace (the closed-form model's network).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite rate.
    pub fn steady(rate: Rate) -> Self {
        Self::from_segments(&[(0.0, rate)]).expect("steady trace from a positive rate")
    }

    /// Build from `(start_s, rate)` segments.
    ///
    /// Validates: at least one segment, first start at 0, strictly
    /// increasing finite starts, finite non-negative rates, and a
    /// positive final rate (so transfers always terminate).
    pub fn from_segments(segments: &[(f64, Rate)]) -> Result<Self, String> {
        let (starts_s, rates_bps) = segments
            .iter()
            .map(|&(start, rate)| (start, rate.as_bytes_per_sec()))
            .unzip();
        Self::from_columns(starts_s, rates_bps)
    }

    /// Build from the segment starts, in seconds, and the rates, in
    /// bytes per second, as two columns: the one validator behind every
    /// trace, `from_segments`, the bundled shapes and the wire form among
    /// them. Checks, in this order: one rate per start, at least one
    /// segment, a first start at 0, finite strictly increasing starts,
    /// finite non-negative rates and a positive final rate; the first
    /// failure is the error. [`BandwidthTrace::into_columns`] hands the
    /// columns back, so a caller can refill the same storage trace after
    /// trace.
    ///
    /// Each column is swept branch-free over every segment, and the
    /// first failure is looked for only once a sweep has found one, so
    /// a valid trace pays no per-segment branch.
    pub fn from_columns(starts_s: Vec<f64>, rates_bps: Vec<f64>) -> Result<Self, String> {
        if starts_s.len() != rates_bps.len() {
            return Err(format!(
                "a trace needs one rate per segment start, got {} starts and {} rates",
                starts_s.len(),
                rates_bps.len()
            ));
        }
        let (Some(&first), Some(&last)) = (starts_s.first(), rates_bps.last()) else {
            return Err("a trace needs at least one segment".into());
        };
        // sss-lint: allow(D004, traces must start at literal t=0; validation is exact)
        if first != 0.0 {
            return Err(format!("the first segment must start at t=0, got {first}"));
        }
        // Starts increase from 0, so a start that passes the `>` test is
        // non-negative: the predicate adds only finiteness.
        let rises = |w: &[f64]| non_negative_finite(w[1]) & (w[1] > w[0]);
        if !starts_s.windows(2).fold(true, |all, w| all & rises(w)) {
            let w = starts_s
                .windows(2)
                .find(|w| !rises(w))
                .expect("the sweep found a start that does not rise");
            return Err(format!(
                "segment starts must be finite and strictly increasing ({} then {})",
                w[0], w[1]
            ));
        }
        if !rates_bps
            .iter()
            .fold(true, |all, &r| all & non_negative_finite(r))
        {
            let (start, r) = starts_s
                .iter()
                .zip(&rates_bps)
                .find(|&(_, &r)| !non_negative_finite(r))
                .expect("the sweep found a rate that is not a rate");
            return Err(format!(
                "rate at t={start} must be finite and >= 0, got {r}"
            ));
        }
        if last <= 0.0 {
            return Err(
                "the final segment must have a positive rate (transfers must terminate)"
                    .to_string(),
            );
        }
        Ok(BandwidthTrace {
            starts_s,
            rates_bps,
        })
    }

    /// The trace's columns, segment starts and rates, as
    /// [`BandwidthTrace::from_columns`] took them.
    pub fn into_columns(self) -> (Vec<f64>, Vec<f64>) {
        (self.starts_s, self.rates_bps)
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.starts_s.len()
    }

    /// The rate in effect at time `t_s`, in bytes per second.
    ///
    /// **Breakpoint semantics: the lookup is right-continuous.** Segment
    /// `i` covers the half-open interval `[start_i, start_{i+1})`, so at
    /// exactly `t == start_i` the *new* segment's rate is already in
    /// effect — `rate_at(start_i) == rates[i]`, never the outgoing
    /// segment's rate. Queries before `t = 0` clamp to the first segment
    /// and queries past the last breakpoint return the final segment's
    /// rate (it extends forever). Every integrator in the workspace
    /// ([`BandwidthTrace::finish_time`], [`BandwidthTrace::fluid_completion`])
    /// shares this convention, which is what makes the fluid and exact
    /// simulators agree at breakpoint instants.
    ///
    /// ```
    /// use sss_sim::BandwidthTrace;
    /// use sss_units::Rate;
    ///
    /// let t = BandwidthTrace::from_segments(&[
    ///     (0.0, Rate::from_gigabytes_per_sec(2.0)),
    ///     (5.0, Rate::from_gigabytes_per_sec(1.0)),
    /// ])
    /// .unwrap();
    /// // At the breakpoint itself the new rate already applies.
    /// assert_eq!(t.rate_at(5.0), 1.0e9);
    /// assert_eq!(t.rate_at(4.999_999), 2.0e9);
    /// ```
    pub fn rate_at(&self, t_s: f64) -> f64 {
        self.segment_at(t_s).0
    }

    /// The next breakpoint strictly after `t_s`, or `None` when the
    /// current segment extends forever. The returned value is a segment
    /// start verbatim (no re-derived arithmetic), so event-driven
    /// integrators that advance to it land exactly on the breakpoint
    /// under the right-continuous [`BandwidthTrace::rate_at`] convention.
    pub fn next_change(&self, t_s: f64) -> Option<f64> {
        self.segment_at(t_s).1
    }

    /// The current segment in one lookup: the rate in effect at `t_s`
    /// **and** the next breakpoint strictly after it, from a single
    /// binary search.
    ///
    /// Exactly equivalent to `(rate_at(t_s), next_change(t_s))` — same
    /// right-continuous breakpoint semantics, the breakpoint returned as
    /// a segment start verbatim — but event-driven integrators that need
    /// both (the fleet engine does, per session-event) pay one
    /// `partition_point` instead of two.
    ///
    /// ```
    /// use sss_sim::BandwidthTrace;
    /// use sss_units::Rate;
    ///
    /// let t = BandwidthTrace::from_segments(&[
    ///     (0.0, Rate::from_gigabytes_per_sec(2.0)),
    ///     (5.0, Rate::from_gigabytes_per_sec(1.0)),
    /// ])
    /// .unwrap();
    /// assert_eq!(t.segment_at(0.0), (2.0e9, Some(5.0)));
    /// // At the breakpoint the new segment already rules: its rate is in
    /// // effect and the next change is strictly later (here: none).
    /// assert_eq!(t.segment_at(5.0), (1.0e9, None));
    /// ```
    pub fn segment_at(&self, t_s: f64) -> (f64, Option<f64>) {
        let idx = self.starts_s.partition_point(|&s| s <= t_s);
        (
            self.rates_bps[idx.saturating_sub(1)],
            self.starts_s.get(idx).copied(),
        )
    }

    /// How far ahead of `t_s` the trace stays above a threshold: walks
    /// segment indices forward from the segment containing `t_s` while
    /// `above(rate)` holds.
    ///
    /// Returns `None` when that first segment already fails — a window
    /// that ends at `t_s` crosses no breakpoint. Otherwise returns the
    /// minimum rate over the window and its end: the start of the first
    /// segment that fails `above`, as a segment start verbatim, or `None`
    /// when every later segment passes (the window has no end). A
    /// zero-rate segment ends the window whenever `above(0.0)` is false.
    ///
    /// The fleet engine calls this with `t_s` on a breakpoint to hold a
    /// clipped session at the smallest demand it will have before its
    /// demand can fall to the shared level.
    ///
    /// The later segments are tested eight at a time without a branch,
    /// keeping one minimum per lane; only the chunk where the window
    /// ends, and the short tail, are walked segment by segment. The lanes
    /// take a minimum by compare-and-select, not `f64::min`: every rate
    /// passed [`non_negative_finite`], so there is no NaN to handle, and
    /// the select vectorizes where `f64::min` does not.
    ///
    /// ```
    /// use sss_sim::BandwidthTrace;
    /// use sss_units::Rate;
    ///
    /// let t = BandwidthTrace::from_segments(&[
    ///     (0.0, Rate::from_bytes_per_sec(4.0)),
    ///     (1.0, Rate::from_bytes_per_sec(3.0)),
    ///     (2.0, Rate::from_bytes_per_sec(5.0)),
    ///     (3.0, Rate::from_bytes_per_sec(1.0)),
    /// ])
    /// .unwrap();
    /// // Above 2 B/s from t=1 until the 1 B/s segment at t=3.
    /// assert_eq!(t.window_above(1.0, |r| r > 2.0), Some((3.0, Some(3.0))));
    /// // The segment at t=3 is already at or below 2 B/s.
    /// assert_eq!(t.window_above(3.0, |r| r > 2.0), None);
    /// ```
    pub fn window_above(
        &self,
        t_s: f64,
        above: impl Fn(f64) -> bool,
    ) -> Option<(f64, Option<f64>)> {
        let first = self.segment_index(t_s);
        let mut min = self.rates_bps[first];
        if !above(min) {
            return None;
        }
        let smaller = |a: f64, b: f64| if b < a { b } else { a };
        let mut next = first + 1;
        let (chunks, _) = self.rates_bps[next..].as_chunks::<LANES>();
        let mut lanes = [min; LANES];
        for chunk in chunks {
            if !chunk.iter().fold(true, |all, &r| all & above(r)) {
                break;
            }
            for (lane, &r) in lanes.iter_mut().zip(chunk) {
                *lane = smaller(*lane, r);
            }
            next += LANES;
        }
        min = lanes.into_iter().fold(min, smaller);
        for (&start, &rate) in self.starts_s[next..].iter().zip(&self.rates_bps[next..]) {
            if !above(rate) {
                return Some((min, Some(start)));
            }
            min = smaller(min, rate);
        }
        Some((min, None))
    }

    /// Index of the segment containing `t_s` — the shared entry lookup
    /// behind [`BandwidthTrace::segment_at`] and the fluid integrators'
    /// walking cursors.
    fn segment_index(&self, t_s: f64) -> usize {
        self.starts_s
            .partition_point(|&s| s <= t_s)
            .saturating_sub(1)
    }

    /// The largest per-segment rate in the profile, bytes per second.
    ///
    /// The fluid streaming path's exactness test uses this: a source that
    /// generates at or above the peak service rate can never let the link
    /// starve, which makes the fluid integral the exact answer.
    pub fn max_rate(&self) -> f64 {
        self.rates_bps.iter().copied().fold(0.0, f64::max)
    }

    /// Mean rate over `[0, horizon_s]` in bytes per second.
    ///
    /// # Panics
    /// Panics on a non-positive horizon.
    pub fn mean_rate(&self, horizon_s: f64) -> f64 {
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "horizon must be positive, got {horizon_s}"
        );
        let mut moved = 0.0;
        let mut t = 0.0;
        for i in 0..self.starts_s.len() {
            let end = self
                .starts_s
                .get(i + 1)
                .copied()
                .unwrap_or(f64::INFINITY)
                .min(horizon_s);
            if end <= t {
                break;
            }
            moved += self.rates_bps[i] * (end - t);
            t = end;
        }
        moved / horizon_s
    }

    /// When a transfer of `bytes` starting at `start_s` finishes, moving
    /// at the traced rate.
    pub fn finish_time(&self, start_s: f64, bytes: f64) -> f64 {
        self.capped_finish_time(start_s, bytes, 1.0, f64::INFINITY)
    }

    /// A FIFO link's chain of `sends` transfers of `bytes` each; the link
    /// is first free at `free`. Send `i` starts once it is ready, at
    /// `ready_i = period·(first + i + 1)` of `production`, and the send
    /// before it has freed the link, and holds the link `overhead`
    /// seconds past its last byte:
    ///
    /// `start_i = max(ready_i, free_{i-1})`,
    /// `free_i = finish_time(start_i, bytes) + overhead`, `free_{-1} = free`,
    ///
    /// where a send ready exactly when the link frees starts at the free
    /// instant (which decides the sign of a zero start).
    ///
    /// `sent` sees every free instant in send order; the return value is
    /// the last one (`free` for no sends). Each finish is the
    /// `f64` that [`BandwidthTrace::finish_time`] returns. Starts never
    /// decrease, so the chain keeps the segment of the latest start in
    /// locals and steps forward through the breakpoints instead of
    /// binary-searching: a send that fits in that segment finishes at
    /// `start + bytes/rate`, and only a send that crosses a breakpoint
    /// integrates segment by segment.
    ///
    /// A backlogged chain jumps in closed form. After each single step
    /// whose next send is already ready, the chain adds the longest run
    /// of sends it can at once: the run's last send is ready by the
    /// link's free instant, so every send in it starts when the one
    /// before it frees the link; its last start still fits the segment,
    /// so every send in it takes the in-segment path; and its last free
    /// stays in the binade of the first, the `f64`s in `[2^e, 2^(e+1))`,
    /// which are all multiples of one spacing `u`. There each step
    /// `(free + bytes/rate) + overhead` rounds both sums to the same
    /// multiple of `u` unless a sum falls exactly halfway between two
    /// `f64`s (a tie, which rounds to the even neighbour), so `k` steps
    /// land on exactly `free + k·step`, the bits of `k` single steps, and
    /// `sent` sees each of those frees. The first send, idle sends, ties,
    /// binade tops, zero or subnormal instants, negative overheads,
    /// zero-byte sends and sends that cross a breakpoint keep the single
    /// step, so every instant is the same `f64` either way. A chain whose
    /// sends are ready early costs a few steps per segment and binade it
    /// crosses, whatever its send count.
    ///
    /// The WAN link starts free at 0. A constant-rate server that is busy
    /// before its first send, such as a file writer that must open the
    /// file first, is a chain on [`BandwidthTrace::steady`] from the
    /// instant it frees up.
    ///
    /// ```
    /// use sss_sim::{BandwidthTrace, Production};
    /// use sss_units::Rate;
    ///
    /// let t = BandwidthTrace::from_segments(&[
    ///     (0.0, Rate::from_gigabytes_per_sec(1.0)),
    ///     (2.0, Rate::ZERO),
    ///     (4.0, Rate::from_gigabytes_per_sec(1.0)),
    /// ])
    /// .unwrap();
    /// // Two 1.5 GB sends, both ready at t=0: the second one waits for
    /// // the link, then for the outage.
    /// let at_once = Production { period: 0.0, first: 0 };
    /// let mut free = Vec::new();
    /// let last = t.send_chain(0.0, 2, 1.5e9, 0.0, at_once, |f| free.push(f));
    /// assert_eq!(free, [1.5, 5.0]);
    /// assert_eq!(last, t.finish_time(1.5, 1.5e9));
    ///
    /// // The same sends on a link that is busy until t=1: the first one
    /// // moves 1 GB before the outage and the rest from t=4.
    /// let last = t.send_chain(1.0, 2, 1.5e9, 0.0, at_once, |_| {});
    /// assert_eq!(last, 6.0);
    ///
    /// // 2^20 one-byte sends on a 2^20 B/s link, all ready at once: every
    /// // sum is exact, so the link frees at 1 s, reached in a few jumps
    /// // per binade instead of 2^20 steps.
    /// let link = BandwidthTrace::steady(Rate::from_bytes_per_sec(1048576.0));
    /// assert_eq!(link.send_chain(0.0, 1 << 20, 1.0, 0.0, at_once, |_| {}), 1.0);
    /// ```
    ///
    /// # Panics
    /// Panics on a negative or non-finite first-free instant or period,
    /// before any send; then on a ready instant that overflows to
    /// infinity, a negative or non-finite `bytes` or free instant, and a
    /// start before the segment the chain has reached (a negative
    /// `overhead` can rewind it). The panic comes at the faulty send,
    /// after `sent` has seen every send before it: a jumped run never
    /// holds a faulty send.
    pub fn send_chain(
        &self,
        free: f64,
        sends: u32,
        bytes: f64,
        overhead: f64,
        production: Production,
        mut sent: impl FnMut(f64),
    ) -> f64 {
        // The segment of the latest start: its start, its end (infinite
        // for the final segment), its rate and one send's time at it. A
        // zero-byte send's time is -0.0, so `start + per_send` is `start`
        // bit for bit, -0.0 included, and the in-segment path needs no
        // zero test of its own.
        let segment = |seg: usize| {
            let rate = self.rates_bps[seg];
            let end = self.starts_s.get(seg + 1).copied().unwrap_or(f64::INFINITY);
            let per_send = if bytes > 0.0 { bytes / rate } else { -0.0 };
            (self.starts_s[seg], end, rate, per_send)
        };
        let mut seg = 0;
        let (mut seg_start, mut end, mut rate, mut per_send) = segment(seg);
        let mut free = Seconds::new(free).value();
        // A valid period makes every ready instant non-negative and
        // non-decreasing, which is what lets a run skip their checks.
        let period = production.period;
        assert!(
            non_negative_finite(period),
            "period must be non-negative and finite, got {period}"
        );
        let mut i = 0;
        while i < sends {
            // Both instants are checked, so one compare is their maximum:
            // `f64::max` would put its NaN handling on the chain, and
            // `start` needs no check of its own.
            let ready = Seconds::new(production.ready(i)).value();
            let start = if ready > free { ready } else { free };
            check_bytes(bytes);
            assert!(
                seg_start <= start,
                "segment cursor at t={seg_start} is past the start {start}"
            );
            if start >= end {
                while self.starts_s.get(seg + 1).is_some_and(|&s| s <= start) {
                    seg += 1;
                }
                (seg_start, end, rate, per_send) = segment(seg);
            }
            let finish = if rate > 0.0 && rate * (end - start) >= bytes {
                // The send fits in its segment: `walk`'s first step.
                start + per_send
            } else {
                self.walk(seg, start, bytes, 1.0, f64::INFINITY)
            };
            free = Seconds::new(finish + overhead).value();
            sent(free);
            i += 1;
            let cursor = (end, rate, per_send);
            if let Some((run, step)) =
                backlogged_run(production, i, sends, free, bytes, overhead, cursor)
            {
                // A counted range, so that with a `sent` that does nothing
                // the compiler deletes the loop.
                for k in 1..run + 1 {
                    sent(free + f64::from(k) * step);
                }
                free += f64::from(run) * step;
                i += run;
            }
        }
        free
    }

    /// [`BandwidthTrace::finish_time`] with the per-segment rate divided
    /// by `divisor` (a fair share of the link, e.g. DTN concurrency) and
    /// capped at `cap` bytes/s (a slower stage bounding the pipeline).
    ///
    /// Zero-rate intervals stall the transfer; the positive final segment
    /// guarantees termination.
    ///
    /// # Panics
    /// Panics on negative inputs, non-positive `divisor`/`cap`, or
    /// non-finite `start_s`/`bytes`.
    pub fn capped_finish_time(&self, start_s: f64, bytes: f64, divisor: f64, cap: f64) -> f64 {
        check_transfer(start_s, bytes);
        assert!(divisor > 0.0, "divisor must be positive, got {divisor}");
        assert!(cap > 0.0, "cap must be positive, got {cap}");
        self.walk(self.segment_index(start_s), start_s, bytes, divisor, cap)
    }

    /// The traced byte integrator behind every finish time: moves
    /// `bytes` from `start_s`, which lies in segment `seg`, at each
    /// segment's rate divided by `divisor` and capped at `cap`.
    #[inline]
    fn walk(&self, mut seg: usize, start_s: f64, bytes: f64, divisor: f64, cap: f64) -> f64 {
        // sss-lint: allow(D004, zero-byte transfer completes instantly; exact guard)
        if bytes == 0.0 {
            return start_s;
        }
        let mut remaining = bytes;
        let mut t = start_s;
        loop {
            let rate = (self.rates_bps[seg] / divisor).min(cap);
            match self.starts_s.get(seg + 1) {
                None => return t + remaining / rate, // final rate is positive
                Some(&end) => {
                    if rate > 0.0 {
                        let capacity = rate * (end - t);
                        if capacity >= remaining {
                            return t + remaining / rate;
                        }
                        remaining -= capacity;
                    }
                    t = end;
                    seg += 1;
                }
            }
        }
    }

    /// Completion time of a **fluid** transfer through a single-server
    /// queue fed by this trace — the closed-form fast path behind
    /// [`Fidelity::Fluid`](crate::Fidelity).
    ///
    /// `total_bytes` of fluid arrive at a constant `arrival_rate_bps`
    /// starting at `arrival_start_s` (pass `f64::INFINITY` for an
    /// instantaneous backlog); the server drains the backlog at the
    /// traced rate divided by `divisor` and capped at `cap` (the same
    /// knobs as [`BandwidthTrace::capped_finish_time`]). Instead of
    /// stepping per byte or per frame, time advances analytically to the
    /// next trace breakpoint, arrival end, backlog-empty instant or
    /// completion — `O(segments)` regardless of how many frames the
    /// bytes notionally split into.
    ///
    /// When the arrival rate is at least the peak service rate the
    /// server never starves and the result equals
    /// `capped_finish_time(arrival_start_s, total_bytes, ..)` up to
    /// floating-point re-association — the exactness condition, tested
    /// with [`BandwidthTrace::max_rate`], that every replay cell's burst
    /// source satisfies.
    ///
    /// # Panics
    /// Panics on negative/non-finite `arrival_start_s` or `total_bytes`,
    /// a non-positive `arrival_rate_bps`, or non-positive
    /// `divisor`/`cap`.
    pub fn fluid_completion(
        &self,
        arrival_start_s: f64,
        arrival_rate_bps: f64,
        total_bytes: f64,
        divisor: f64,
        cap: f64,
    ) -> f64 {
        assert!(
            non_negative_finite(arrival_start_s),
            "arrival start must be non-negative and finite, got {arrival_start_s}"
        );
        assert!(
            non_negative_finite(total_bytes),
            "bytes must be non-negative and finite, got {total_bytes}"
        );
        assert!(
            arrival_rate_bps > 0.0,
            "arrival rate must be positive, got {arrival_rate_bps}"
        );
        assert!(divisor > 0.0, "divisor must be positive, got {divisor}");
        assert!(cap > 0.0, "cap must be positive, got {cap}");
        // sss-lint: allow(D004, zero-byte transfer completes instantly; exact guard)
        if total_bytes == 0.0 {
            return arrival_start_s;
        }
        if arrival_rate_bps.is_infinite() {
            // The whole backlog exists up front: a plain traced drain.
            return self.capped_finish_time(arrival_start_s, total_bytes, divisor, cap);
        }
        let arrival_end = arrival_start_s + total_bytes / arrival_rate_bps;
        let mut t = arrival_start_s;
        let mut served = 0.0f64;
        let mut backlog = 0.0f64;
        let mut i = self.segment_index(t);
        loop {
            let mu = (self.rates_bps[i] / divisor).min(cap);
            let seg_end = self.starts_s.get(i + 1).copied().unwrap_or(f64::INFINITY);
            let lambda = if t < arrival_end {
                arrival_rate_bps
            } else {
                0.0
            };
            // The interval over which both rates are constant.
            let mut until = seg_end;
            if t < arrival_end {
                until = until.min(arrival_end);
            }
            // Service proceeds at μ while a backlog exists, else at the
            // arrival rate (capped by μ).
            let drain = if backlog > 0.0 { mu } else { mu.min(lambda) };
            // The backlog-empty instant, when one exists in this regime.
            let empty = if backlog > 0.0 && mu > lambda {
                t + backlog / (mu - lambda)
            } else {
                f64::INFINITY
            };
            if drain > 0.0 {
                // While fluid still arrives, the service target is the
                // untransferred total; once arrivals cease it is the
                // backlog itself — the same number in exact arithmetic,
                // but using the backlog keeps the completion and
                // backlog-empty events bitwise-coincident.
                let remaining = if lambda > 0.0 {
                    total_bytes - served
                } else {
                    backlog
                };
                let done = t + remaining / drain;
                // Completion is only reachable at `drain` while that rate
                // holds: up to the interval boundary, and — when a
                // backlog is draining — no further than the instant it
                // empties (service then slows to the arrival rate).
                if done <= until.min(empty) {
                    return done;
                }
            }
            // Advance to the next analytic event. Book-keep the state
            // exactly at the event rather than integrating a residual:
            // crossing `empty` zeroes the backlog by definition, and
            // crossing the arrival end means every byte not yet served
            // is queued — both identities hold in exact arithmetic, and
            // asserting them kills float-drift stalls.
            let next;
            if empty <= until {
                next = empty;
                served += drain * (next - t);
                backlog = 0.0;
            } else {
                next = until;
                let dt = next - t;
                served += drain * dt;
                backlog = (backlog + (lambda - drain) * dt).max(0.0);
            }
            if lambda > 0.0 && next >= arrival_end {
                backlog = (total_bytes - served).max(0.0);
                if backlog <= 0.0 {
                    // Service kept pace with every arrival: the last
                    // byte was served the instant it arrived.
                    return next;
                }
            }
            if next >= seg_end {
                i += 1;
            }
            t = next;
        }
    }

    /// The same breakpoints with every rate transformed by `f` — e.g.
    /// the streaming fluid path folding a fixed per-message overhead
    /// into an effective per-segment rate.
    ///
    /// # Errors
    /// Fails when `f` produces a non-finite or negative rate, or maps
    /// the final segment to a non-positive rate (transfers must
    /// terminate).
    pub fn mapped_rates(&self, f: impl Fn(f64) -> f64) -> Result<Self, String> {
        let rates_bps: Vec<f64> = self.rates_bps.iter().map(|&r| f(r)).collect();
        for (start, r) in self.starts_s.iter().zip(&rates_bps) {
            if !non_negative_finite(*r) {
                return Err(format!(
                    "mapped rate at t={start} must be finite and >= 0, got {r}"
                ));
            }
        }
        if *rates_bps.last().expect("non-empty") <= 0.0 {
            return Err("the mapped final rate must stay positive".into());
        }
        Ok(BandwidthTrace {
            starts_s: self.starts_s.clone(),
            rates_bps,
        })
    }
}

/// The bundled trace-shape vocabulary the replay layer exercises.
///
/// Every shape is built relative to a **characteristic horizon** — the
/// nominal (steady-rate) duration of the transfer being replayed — so the
/// same shape stresses a 0.3-second detector burst and a 6-minute LHC
/// dump equally: the transfer always spans the shape's features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceShape {
    /// Constant at the base rate — the closed-form model's network.
    Steady,
    /// A 16-step staircase cosine cycling between 100% and 10% of base
    /// (mean 55%), one full period per horizon, repeating for 8 horizons
    /// before settling back at base.
    Diurnal,
    /// Congestion episodes: the horizon is cut into 32 slots repeated
    /// over 8 horizons; each slot independently dips to 30% of base with
    /// probability 1/4, decided by a SplitMix64 stream of the seed.
    Bursty,
    /// A scheduled maintenance window: full outage (zero rate) from 25%
    /// to 60% of the horizon, base rate elsewhere.
    Outage,
}

/// A bursty trace's dips, one flag per slot in four words of 64, each
/// word's first slot in its top bit: bit `63 - k % 64` of word `k / 64`
/// is set when slot `k` of the 256 slots dips.
///
/// [`TraceShape::draw`] makes them from a seed and [`TraceShape::lay_out`]
/// lays a trace out from them. The other shapes draw nothing: their dips
/// are all clear, and their layouts ignore them.
///
/// The flags are drawn as far as they are read. A draw keeps the seed's
/// SplitMix64 state and draws no flag; a read of slot `k` draws, in slot
/// order, every flag up to `k` not drawn yet and none after it, so every
/// flag is the one an eager draw of all 256 makes. A [`DippedTrace`]
/// borrows the dips mutably, so a flag drawn once stays drawn, and a
/// layout completes a copy. Two dips compare equal when their flags do,
/// however far each was drawn. The default is clear dips, every flag
/// drawn.
#[derive(Debug, Clone, Copy)]
pub struct Dips {
    /// The flags, zero from slot `drawn` on.
    words: [u64; WORDS],
    /// How many flags, the first ones, are drawn.
    drawn: usize,
    /// The seed's SplitMix64 state after the last flag drawn.
    state: u64,
}

impl Default for Dips {
    fn default() -> Self {
        Dips {
            words: [0; WORDS],
            drawn: SLOTS * HORIZONS,
            state: 0,
        }
    }
}

impl PartialEq for Dips {
    fn eq(&self, other: &Self) -> bool {
        self.completed().words == other.completed().words
    }
}

impl Eq for Dips {}

impl Dips {
    /// The bursty dips of `seed`, no flag drawn yet.
    fn seeded(seed: u64) -> Dips {
        Dips {
            words: [0; WORDS],
            drawn: 0,
            state: seed,
        }
    }

    /// Draw every flag before slot `end` not drawn yet: one SplitMix64
    /// step a slot, the slot dipping when the state is a multiple of 4.
    /// Each word's new flags shift in at the bottom of a register, the
    /// first on top, and move up to their slots once the word's run ends.
    fn draw_to(&mut self, end: usize) {
        while self.drawn < end {
            let word = self.drawn / 64;
            let stop = end.min(word * 64 + 64);
            let mut flags = 0u64;
            for _ in self.drawn..stop {
                splitmix64(&mut self.state);
                flags = (flags << 1) | u64::from(self.state.is_multiple_of(4));
            }
            self.words[word] |= flags << (word * 64 + 64 - stop);
            self.drawn = stop;
        }
    }

    /// A copy with every flag drawn.
    fn completed(&self) -> Dips {
        let mut dips = *self;
        dips.draw_to(SLOTS * HORIZONS);
        dips
    }

    /// Whether slot `k` dips, drawing the flags up to it. No slot past
    /// the last does, a bursty trace's final segment among them.
    fn dipped(&mut self, k: usize) -> bool {
        if k >= SLOTS * HORIZONS {
            return false;
        }
        self.draw_to(k + 1);
        (self.words[k / 64] << (k % 64)) >> 63 == 1
    }

    /// The first slot at or after `from` whose flag is `dipped`, or the
    /// slot count when there is none: the index of a bursty trace's final
    /// segment, which never dips. Draws the flags up to the slot it
    /// returns and no further. Over the flags already drawn it masks the
    /// slots outside the span off its word and counts leading zeros, a
    /// word at a time; past them the span is the one flag it draws next.
    fn next_slot(&mut self, from: usize, dipped: bool) -> usize {
        let flip = if dipped { 0 } else { u64::MAX };
        let mut k = from;
        while k < SLOTS * HORIZONS {
            if k >= self.drawn {
                self.draw_to(k + 1);
            }
            // The drawn slots from `k` to the end of its word.
            let word = k / 64;
            let end = self.drawn.min(word * 64 + 64);
            let span = (u64::MAX >> (k % 64)) & (u64::MAX << (word * 64 + 64 - end));
            let flags = (self.words[word] ^ flip) & span;
            if flags != 0 {
                return word * 64 + flags.leading_zeros() as usize;
            }
            k = end;
        }
        SLOTS * HORIZONS
    }
}

/// One session's trace read in place: its shape's clear layout,
/// `shape.lay_out(base, horizon_s, &Dips::default())`, paired with the
/// session's [`Dips`], so the session's own trace is never laid out.
///
/// [`DippedTrace::segment_at`] and [`DippedTrace::window_above`] return,
/// bit for bit, what the same calls return on `shape.lay_out(base,
/// horizon_s, &dips)`. Every layout of a shape at one base and horizon
/// has the clear layout's starts, and a dipped slot's rate is its clear
/// rate times the factor the layout dips by. Only `bursty` reads its
/// dips; the view of any other shape reads the clear layout unchanged.
///
/// The view borrows the dips mutably: a read draws the dip flags up to
/// the last slot it reaches that were not drawn yet, and they stay drawn
/// in the session's dips for every later view.
///
/// The clear layout also carries every check the session's own layout
/// would make: those depend on the base and horizon alone.
#[derive(Debug)]
pub struct DippedTrace<'a> {
    clear: &'a BandwidthTrace,
    /// The session's dips; `None` for a shape that reads none.
    dips: Option<&'a mut Dips>,
}

impl<'a> DippedTrace<'a> {
    /// The view of `shape`'s layout from `dips` over `clear`, the layout
    /// of the same shape, base and horizon from clear dips. Shapes other
    /// than `bursty` ignore `dips`, as their layouts do.
    pub fn new(shape: TraceShape, clear: &'a BandwidthTrace, dips: &'a mut Dips) -> Self {
        let dips = match shape {
            TraceShape::Bursty => {
                debug_assert_eq!(clear.segments(), SLOTS * HORIZONS + 1);
                Some(dips)
            }
            _ => None,
        };
        DippedTrace { clear, dips }
    }

    /// [`BandwidthTrace::segment_at`] on the laid-out trace: one binary
    /// search over the clear starts, the rate picked from the clear rate
    /// and its dip by the segment's flag.
    pub fn segment_at(&mut self, t_s: f64) -> (f64, Option<f64>) {
        let idx = self.clear.starts_s.partition_point(|&s| s <= t_s);
        let seg = idx.saturating_sub(1);
        let rate = self.clear.rates_bps[seg];
        let pair = [rate, rate * DIP_FACTOR];
        let dipped = self.dips.as_mut().is_some_and(|dips| dips.dipped(seg));
        (
            pair[usize::from(dipped)],
            self.clear.starts_s.get(idx).copied(),
        )
    }

    /// [`BandwidthTrace::window_above`] on the laid-out trace, without
    /// its segment scan.
    ///
    /// When no slot dips from the segment containing `t_s` on, the rates
    /// from there are the clear layout's, and its scan answers. Otherwise
    /// the trace is bursty, and ahead of `t_s` it has two rates: the base
    /// in clear slots and the final segment, and the dip in dipped slots.
    /// `above` is called at most once on each, and the window's end is
    /// the next slot flagged unlike the first, found by counting leading
    /// zeros over the drawn dip words and drawing flags past them one at
    /// a time, and looked for only when the window ends. So `above` must
    /// be a pure function, as the scan's branch-free chunks already
    /// assume.
    pub fn window_above(
        &mut self,
        t_s: f64,
        above: impl Fn(f64) -> bool,
    ) -> Option<(f64, Option<f64>)> {
        let Some(dips) = self.dips.as_mut() else {
            return self.clear.window_above(t_s, above);
        };
        let first = self.clear.segment_index(t_s);
        let next_dip = dips.next_slot(first, true);
        if next_dip == SLOTS * HORIZONS {
            return self.clear.window_above(t_s, above);
        }
        // A bursty slot: its clear rate is the base.
        let base = self.clear.rates_bps[first];
        let dip = base * DIP_FACTOR;
        let dipped = next_dip == first;
        let (here, other) = if dipped { (dip, base) } else { (base, dip) };
        if !above(here) {
            return None;
        }
        if above(other) {
            // Every rate ahead passes, and one of them is a dip.
            return Some((dip, None));
        }
        let end = if dipped {
            dips.next_slot(first, false)
        } else {
            next_dip
        };
        Some((here, Some(self.clear.starts_s[end])))
    }
}

/// The transfer inputs every finish time checks.
///
/// # Panics
/// Panics on a negative or non-finite `start_s` or `bytes`.
#[inline(always)]
fn check_transfer(start_s: f64, bytes: f64) {
    assert!(
        non_negative_finite(start_s),
        "start must be non-negative and finite, got {start_s}"
    );
    check_bytes(bytes);
}

/// [`check_transfer`]'s check of `bytes`, for a caller whose start is
/// already a checked instant.
///
/// # Panics
/// Panics on a negative or non-finite `bytes`.
#[inline(always)]
fn check_bytes(bytes: f64) {
    assert!(
        non_negative_finite(bytes),
        "bytes must be non-negative and finite, got {bytes}"
    );
}

/// The run of backlogged sends a [`BandwidthTrace::send_chain`] jumps
/// once a single step has left the link free at `free`, with the sends
/// from `next` on still to go and the latest start in a segment that ends
/// at `end`, moving `rate`, where a send takes `per_send`: how many sends
/// the run holds and the constant step between their frees, or `None`
/// when the next send must take the single step.
///
/// A run holds `n` sends when the `n`-th is ready by `free`, so each
/// send in it starts at the free instant before it (ready instants never
/// decrease); when the `n`-th start `free + (n-1)·step` still fits the
/// segment, so each takes the in-segment path (the single step's fit
/// test never passes a later start after failing an earlier one); and
/// when the last free `free + n·step` is no higher than the top of
/// `free`'s binade. Inside the binade every `f64` is a multiple of its
/// spacing `u`, so the step `(f + per_send) + overhead` rounds each sum
/// by the same multiple of `u` from every free `f` there, unless a sum
/// is a tie; and `free + k·step` is a multiple of `u` inside the binade,
/// so it is computed exactly. Every ready instant and free of the run
/// lies between two checked instants, so each is a valid time, and no
/// start precedes the segment: each is at least `free`, which is at
/// least the single step's start.
#[inline]
fn backlogged_run(
    production: Production,
    next: u32,
    sends: u32,
    free: f64,
    bytes: f64,
    overhead: f64,
    (end, rate, per_send): (f64, f64, f64),
) -> Option<(u32, f64)> {
    // The single step's in-segment test.
    let fits = |start: f64| rate > 0.0 && rate * (end - start) >= bytes;
    // The argument below covers positive sends, a chain that never
    // rewinds (no negative overhead) and the binades of normal `f64`s;
    // everything else keeps the single step, and so does a next send
    // that is not ready or does not fit, before any binade arithmetic.
    let backlogged = next < sends
        && bytes > 0.0
        && overhead >= 0.0
        && free >= f64::MIN_POSITIVE
        && production.ready(next) <= free
        && fits(free);
    if !backlogged {
        return None;
    }
    // The largest `f64` of `free`'s binade, and the binade's spacing.
    let top = f64::from_bits(free.to_bits() | MANTISSA);
    let u = top - f64::from_bits(top.to_bits() - 1);
    // Neither addend is NaN (`fits` took a positive rate), so neither
    // sum is.
    let sum = free + per_send;
    let stepped = sum + overhead;
    if stepped > top {
        return None;
    }
    // Both sums stay in the binade, so each addend is below the instant
    // it is added to, and each sum's rounding error is exactly `addend -
    // (sum - instant)` (Fast2Sum). A tie's error is half a spacing, and
    // the comparison is exact on purpose.
    let tie = |error: f64| 2.0 * error.abs() == u;
    if tie(per_send - (sum - free)) || tie(overhead - (stepped - sum)) {
        return None;
    }
    let step = stepped - free;
    // Inside one binade the bit patterns are spaced as the values are.
    let room = top.to_bits() - free.to_bits();
    let units = stepped.to_bits() - free.to_bits();
    let left = sends - next;
    let most = room
        .checked_div(units)
        .map_or(left, |n| u32::try_from(n).map_or(left, |n| n.min(left)));
    // Where the fit test and the production would end the run, in real
    // arithmetic; `last_passing` settles the exact length from there.
    let Production { period, first } = production;
    let guess = ((end - per_send - free) / step + 1.0)
        .min(free / period - (f64::from(first) + f64::from(next)));
    let ok =
        |n: u32| production.ready(next + n - 1) <= free && fits(free + f64::from(n - 1) * step);
    // The cast saturates, and takes NaN to 0.
    Some((last_passing(most, guess as u32, ok), step))
}

/// The largest `n` in `0..=most` for which `ok(n)` holds, when `ok`
/// holds up to some `n` and for none past it (`ok(0)` is taken to hold).
/// Probes outward from `guess` in doubling strides until it brackets the
/// answer, then bisects the bracket, so a guess that is `g` off costs
/// about `2·log2(g)` probes and an exact one two.
fn last_passing(most: u32, guess: u32, ok: impl Fn(u32) -> bool) -> u32 {
    let ok = |n: u32| n == 0 || ok(n);
    let probe = guess.min(most);
    // `lo` passes and `up` fails.
    let (mut lo, mut up) = if ok(probe) {
        let (mut lo, mut stride) = (probe, 1u32);
        loop {
            if lo == most {
                return most;
            }
            let next = lo.saturating_add(stride).min(most);
            if !ok(next) {
                break (lo, next);
            }
            lo = next;
            stride = stride.saturating_mul(2);
        }
    } else {
        let (mut up, mut stride) = (probe, 1u32);
        loop {
            let next = up.saturating_sub(stride);
            if ok(next) {
                break (next, up);
            }
            up = next;
            stride = stride.saturating_mul(2);
        }
    };
    while up - lo > 1 {
        let mid = lo + (up - lo) / 2;
        if ok(mid) {
            lo = mid;
        } else {
            up = mid;
        }
    }
    lo
}

/// SplitMix64 finalizer — the same generator `sss_exec::SeedSequence`
/// uses, inlined so the kernel crate stays dependency-free.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z ^ (z >> 31);
}

impl TraceShape {
    /// Every bundled shape, in replay order.
    pub const ALL: [TraceShape; 4] = [
        TraceShape::Steady,
        TraceShape::Diurnal,
        TraceShape::Bursty,
        TraceShape::Outage,
    ];

    /// The shape's lowercase label (also the CLI/HTTP spelling).
    pub fn label(&self) -> &'static str {
        match self {
            TraceShape::Steady => "steady",
            TraceShape::Diurnal => "diurnal",
            TraceShape::Bursty => "bursty",
            TraceShape::Outage => "outage",
        }
    }

    /// Parse a lowercase label back into a shape.
    pub fn parse(s: &str) -> Result<TraceShape, String> {
        match s {
            "steady" => Ok(TraceShape::Steady),
            "diurnal" => Ok(TraceShape::Diurnal),
            "bursty" => Ok(TraceShape::Bursty),
            "outage" => Ok(TraceShape::Outage),
            other => Err(format!(
                "unknown trace shape {other:?}; known shapes: steady, diurnal, bursty, outage"
            )),
        }
    }

    /// Build the trace at `base` rate for a transfer whose nominal
    /// steady-rate duration is `horizon_s`. `seed` drives the `bursty`
    /// shape's dip placement (the other shapes ignore it), so traces are
    /// pure functions of `(shape, base, horizon, seed)`.
    ///
    /// A build is two steps, each public on its own: the draw, from the
    /// seed to its [`Dips`] ([`TraceShape::draw`]), and the layout, from
    /// the dips, base and horizon to the trace ([`TraceShape::lay_out`]),
    /// which draws all 256 flags. A caller that needs only some of a
    /// trace's rates can read it through a [`DippedTrace`] instead, which
    /// draws the flags as far as its reads reach, and lay it out later
    /// from the same dips, to the same bits.
    ///
    /// # Panics
    /// Panics on a non-positive base rate or horizon.
    pub fn build(&self, base: Rate, horizon_s: f64, seed: u64) -> BandwidthTrace {
        self.lay_out(base, horizon_s, &self.draw(seed))
    }

    /// The [`Dips`] of `seed`, as [`TraceShape::build`] draws them. The
    /// `bursty` shape keeps the seed's SplitMix64 state and draws no flag
    /// yet: each is drawn the first time a read reaches it. Every other
    /// shape returns clear dips.
    pub fn draw(&self, seed: u64) -> Dips {
        match self {
            TraceShape::Bursty => Dips::seeded(seed),
            _ => Dips::default(),
        }
    }

    /// Lay out the trace at `base` rate over the characteristic horizon
    /// `horizon_s` from drawn `dips` (see [`TraceShape::build`], which
    /// is this layout of its seed's draw). Only `bursty` reads the dips,
    /// from a copy it completes, so `dips` keeps only the flags it had.
    ///
    /// # Panics
    /// Panics on a non-positive base rate or horizon.
    pub fn lay_out(&self, base: Rate, horizon_s: f64, dips: &Dips) -> BandwidthTrace {
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "horizon must be positive, got {horizon_s}"
        );
        let base = base.as_bytes_per_sec();
        let (starts_s, rates_bps) = match self {
            TraceShape::Steady => (vec![0.0], vec![base]),
            TraceShape::Diurnal => {
                const STEPS: usize = 16;
                const PERIODS: usize = 8;
                // Each period repeats the same 16 steps: one cosine per step.
                let factors: [f64; STEPS] = std::array::from_fn(|step| {
                    let phase = 2.0 * std::f64::consts::PI * step as f64 / STEPS as f64;
                    0.55 + 0.45 * phase.cos()
                });
                let mut starts_s = Vec::with_capacity(STEPS * PERIODS + 1);
                let mut rates_bps = Vec::with_capacity(STEPS * PERIODS + 1);
                for k in 0..STEPS * PERIODS {
                    starts_s.push(horizon_s * k as f64 / STEPS as f64);
                    rates_bps.push(base * factors[k % STEPS]);
                }
                starts_s.push(horizon_s * PERIODS as f64);
                rates_bps.push(base);
                (starts_s, rates_bps)
            }
            TraceShape::Bursty => {
                // A `u32` index converts to `f64` in one instruction. Each
                // rate is picked from the pair by the top flag of its word
                // as the flags shift up: branched on, a quarter of the
                // slots dipping at random would mispredict.
                let slots = (SLOTS * HORIZONS) as u32;
                let pair = [base, base * DIP_FACTOR];
                let mut starts_s = Vec::with_capacity(SLOTS * HORIZONS + 1);
                starts_s.extend((0..slots).map(|k| horizon_s * f64::from(k) / SLOTS as f64));
                starts_s.push(horizon_s * HORIZONS as f64);
                let mut rates_bps = Vec::with_capacity(SLOTS * HORIZONS + 1);
                for word in dips.completed().words {
                    let mut flags = word;
                    rates_bps.extend((0..64).map(|_| {
                        let rate = pair[(flags >> 63) as usize];
                        flags <<= 1;
                        rate
                    }));
                }
                rates_bps.push(base);
                (starts_s, rates_bps)
            }
            TraceShape::Outage => (
                vec![0.0, 0.25 * horizon_s, 0.60 * horizon_s],
                vec![base, 0.0, base],
            ),
        };
        BandwidthTrace::from_columns(starts_s, rates_bps)
            .expect("bundled shapes build valid traces")
    }
}

impl std::fmt::Display for TraceShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Serialized as the lowercase label so the wire form, the CLI `--shapes`
// vocabulary and the CSV column all share one spelling — a shape read
// from a `/simulate` response can be echoed straight back into the next
// request.
impl Serialize for TraceShape {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl Deserialize for TraceShape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => TraceShape::parse(s).map_err(serde::Error::custom),
            other => Err(serde::Error::custom(format!(
                "expected a trace-shape string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gbs(x: f64) -> Rate {
        Rate::from_gigabytes_per_sec(x)
    }

    #[test]
    fn steady_is_a_plain_division() {
        let t = BandwidthTrace::steady(gbs(2.0));
        assert_eq!(t.finish_time(3.0, 4.0e9), 3.0 + 4.0e9 / 2.0e9);
        assert_eq!(t.rate_at(0.0), 2.0e9);
        assert_eq!(t.rate_at(1e9), 2.0e9);
        assert_eq!(t.mean_rate(10.0), 2.0e9);
    }

    #[test]
    fn next_change_walks_the_breakpoints() {
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(2.0)), (5.0, gbs(1.0))]).unwrap();
        assert_eq!(t.next_change(0.0), Some(5.0));
        assert_eq!(t.next_change(4.999), Some(5.0));
        // At the breakpoint the new segment is already in effect, so the
        // next change is strictly later (here: none).
        assert_eq!(t.next_change(5.0), None);
        assert_eq!(BandwidthTrace::steady(gbs(1.0)).next_change(0.0), None);
    }

    /// The fused lookup mirrors `next_change_walks_the_breakpoints`: at
    /// the breakpoint itself the new segment already rules in *both*
    /// halves of the pair.
    #[test]
    fn segment_at_walks_the_breakpoints() {
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(2.0)), (5.0, gbs(1.0))]).unwrap();
        assert_eq!(t.segment_at(0.0), (2.0e9, Some(5.0)));
        assert_eq!(t.segment_at(4.999), (2.0e9, Some(5.0)));
        // At the breakpoint the new segment is already in effect, so the
        // rate is the incoming one and the next change is strictly later
        // (here: none).
        assert_eq!(t.segment_at(5.0), (1.0e9, None));
        assert_eq!(t.segment_at(1e9), (1.0e9, None));
        // Queries before t=0 clamp to the first segment.
        assert_eq!(t.segment_at(-1.0), (2.0e9, Some(0.0)));
        assert_eq!(
            BandwidthTrace::steady(gbs(1.0)).segment_at(0.0),
            (1.0e9, None)
        );
    }

    /// `segment_at` is the pair `(rate_at, next_change)` bit-for-bit, for
    /// every bundled shape, at every breakpoint, just left of every
    /// breakpoint, and in every segment interior.
    #[test]
    fn segment_at_equals_the_two_lookup_pair_everywhere() {
        for shape in TraceShape::ALL {
            let t = shape.build(gbs(1.0), 10.0, 42);
            let mut queries = vec![-1.0, 0.0, 5.0, 1e9];
            for (i, &start) in t.starts_s.iter().enumerate() {
                queries.push(start);
                if i > 0 {
                    queries.push(start - start.abs() * 1e-12 - 1e-300);
                    queries.push((t.starts_s[i - 1] + start) / 2.0);
                }
            }
            for q in queries {
                let (rate, next) = t.segment_at(q);
                assert_eq!(rate, t.rate_at(q), "{shape}: rate at {q}");
                assert_eq!(next, t.next_change(q), "{shape}: next at {q}");
            }
        }
    }

    #[test]
    fn a_zero_rate_slot_ends_the_window() {
        let t = TraceShape::Outage.build(gbs(1.0), 10.0, 0);
        // Above any non-negative threshold, the outage at t=2.5 ends the
        // window that starts on the first segment.
        assert_eq!(t.window_above(0.0, |r| r > 0.0), Some((1.0e9, Some(2.5))));
        // Starting on the outage itself, the window is empty.
        assert_eq!(t.window_above(2.5, |r| r > 0.0), None);
    }

    #[test]
    fn the_final_segment_gives_a_window_with_no_end() {
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(0.5)), (1.0, gbs(3.0)), (2.0, gbs(2.0))])
            .unwrap();
        assert_eq!(t.window_above(1.0, |r| r > 1.0e9), Some((2.0e9, None)));
        // On the final segment itself, too.
        assert_eq!(t.window_above(7.0, |r| r > 1.0e9), Some((2.0e9, None)));
        // The minimum covers the segment containing `t_s` mid-segment.
        assert_eq!(t.window_above(0.5, |r| r > 0.1e9), Some((0.5e9, None)));
    }

    /// Asked on a breakpoint whose segment is already at or below the
    /// threshold, the window ends right there: it crosses no breakpoint.
    #[test]
    fn a_window_that_crosses_no_breakpoint_returns_nothing() {
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(2.0)), (1.0, gbs(0.5)), (2.0, gbs(3.0))])
            .unwrap();
        // The segment at t=1 is at the threshold: `above` is strict.
        assert_eq!(t.window_above(1.0, |r| r > 0.5e9), None);
        assert_eq!(t.window_above(1.5, |r| r > 1.0e9), None);
    }

    /// Every returned end is a segment start bit for bit, and every
    /// segment inside the window passes the threshold.
    #[test]
    fn a_returned_window_end_is_a_segment_start_verbatim() {
        for shape in TraceShape::ALL {
            let t = shape.build(gbs(1.0 / 3.0), 7.0 / 3.0, 42);
            for threshold in [0.05e9, 0.1e9, 0.2e9, 0.3e9] {
                let above = |r: f64| r > threshold;
                for (k, &start) in t.starts_s.iter().enumerate() {
                    let Some((min, end)) = t.window_above(start, above) else {
                        assert!(!above(t.rates_bps[k]), "{shape}: segment {k}");
                        continue;
                    };
                    let stop = match end {
                        Some(e) => t
                            .starts_s
                            .iter()
                            .position(|s| s.to_bits() == e.to_bits())
                            .unwrap_or_else(|| panic!("{shape}: end {e} is no segment start")),
                        None => t.starts_s.len(),
                    };
                    assert!(stop > k, "{shape}: the window covers segment {k}");
                    assert!(t.rates_bps[k..stop].iter().all(|&r| above(r)));
                    assert!(stop == t.starts_s.len() || !above(t.rates_bps[stop]));
                    let want = t.rates_bps[k..stop]
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(min.to_bits(), want.to_bits(), "{shape}: min from {start}");
                }
            }
        }
    }

    /// The scan `window_above` replaced, one segment at a time with
    /// `f64::min`: its oracle.
    fn scalar_window_above(
        t: &BandwidthTrace,
        t_s: f64,
        above: impl Fn(f64) -> bool,
    ) -> Option<(f64, Option<f64>)> {
        let mut i = t.segment_index(t_s);
        let mut min = t.rates_bps[i];
        if !above(min) {
            return None;
        }
        loop {
            i += 1;
            let Some(&start) = t.starts_s.get(i) else {
                return Some((min, None));
            };
            let rate = t.rates_bps[i];
            if !above(rate) {
                return Some((min, Some(start)));
            }
            min = min.min(rate);
        }
    }

    /// The construction `TraceShape::build` replaced, `(start, rate)`
    /// tuples through `from_segments`: its oracle.
    fn built_from_segments(
        shape: TraceShape,
        base: Rate,
        horizon_s: f64,
        seed: u64,
    ) -> BandwidthTrace {
        let segments = match shape {
            TraceShape::Steady => vec![(0.0, base)],
            TraceShape::Diurnal => {
                const STEPS: usize = 16;
                const PERIODS: usize = 8;
                let mut segments = Vec::with_capacity(STEPS * PERIODS + 1);
                for k in 0..STEPS * PERIODS {
                    let phase = 2.0 * std::f64::consts::PI * (k % STEPS) as f64 / STEPS as f64;
                    let multiplier = 0.55 + 0.45 * phase.cos();
                    segments.push((
                        horizon_s * k as f64 / STEPS as f64,
                        Rate::from_bytes_per_sec(base.as_bytes_per_sec() * multiplier),
                    ));
                }
                segments.push((horizon_s * PERIODS as f64, base));
                segments
            }
            TraceShape::Bursty => {
                const SLOTS: usize = 32;
                const HORIZONS: usize = 8;
                let dip = Rate::from_bytes_per_sec(base.as_bytes_per_sec() * 0.3);
                let mut state = seed;
                let mut segments = Vec::with_capacity(SLOTS * HORIZONS + 1);
                for k in 0..SLOTS * HORIZONS {
                    splitmix64(&mut state);
                    let dipped = state.is_multiple_of(4);
                    segments.push((
                        horizon_s * k as f64 / SLOTS as f64,
                        if dipped { dip } else { base },
                    ));
                }
                segments.push((horizon_s * HORIZONS as f64, base));
                segments
            }
            TraceShape::Outage => vec![
                (0.0, base),
                (0.25 * horizon_s, Rate::ZERO),
                (0.60 * horizon_s, base),
            ],
        };
        BandwidthTrace::from_segments(&segments).unwrap()
    }

    /// A window as raw bits, so equality means bit identity.
    fn window_bits(window: Option<(f64, Option<f64>)>) -> Option<(u64, Option<u64>)> {
        window.map(|(min, end)| (min.to_bits(), end.map(f64::to_bits)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..Default::default() })]

        /// The chunked scan answers as the scalar one does, bit for bit:
        /// on traces of 1 to 40 segments, so windows end in every lane
        /// of a chunk and in the tail; with rates of +0.0 and a few
        /// positive values, so rates tie the strict threshold, and with
        /// a threshold below zero, so zero-rate segments pass; queried
        /// on every segment start, mid-segment and past the last start.
        #[test]
        fn window_above_matches_the_scalar_scan_bit_for_bit(
            // (duration, rate level) pairs; level 0 is a zero-rate slot.
            segs in proptest::collection::vec((0.01f64..5.0, 0usize..4), 1..=40),
            pick in 0usize..5,
        ) {
            const LEVELS: [f64; 4] = [0.0, 1.0, 2.5, 4.0];
            let last = segs.len() - 1;
            let mut start = 0.0;
            let segments: Vec<(f64, Rate)> = segs
                .iter()
                .enumerate()
                .map(|(k, &(dur, level))| {
                    // The final rate must be positive.
                    let level = if k == last { 1 + level % 3 } else { level };
                    let segment = (start, Rate::from_bytes_per_sec(LEVELS[level]));
                    start += dur;
                    segment
                })
                .collect();
            let t = BandwidthTrace::from_segments(&segments).unwrap();
            let threshold = [-1.0, LEVELS[0], LEVELS[1], LEVELS[2], LEVELS[3]][pick];
            let above = |r: f64| r > threshold;
            let mut queries = vec![t.starts_s[last] + 1.0];
            for (k, &s) in t.starts_s.iter().enumerate() {
                queries.push(s);
                if let Some(&next) = t.starts_s.get(k + 1) {
                    queries.push((s + next) / 2.0);
                }
            }
            for q in queries {
                prop_assert_eq!(
                    window_bits(t.window_above(q, above)),
                    window_bits(scalar_window_above(&t, q, above)),
                    "at {} above {}", q, threshold
                );
            }
        }

        /// A `DippedTrace` reads as the layout of its dips, bit for bit:
        /// on every shape, at bases and horizons across many decades,
        /// over hand-set dips and over lazily drawn ones. The hand-set
        /// dips run from none through sparse and dense to all on every
        /// shape (the non-bursty views must ignore them), with every slot
        /// from a random one on clear, so windows start with no dip
        /// ahead. The drawn dips are drawn ahead to a random slot, and the
        /// view draws the rest as its reads reach them. `segment_at` is asked on every
        /// breakpoint, just left of it, between breakpoints, before 0 and
        /// past the last start, and `window_above` from the same instants,
        /// in shuffled order: under thresholds below the dip, on it,
        /// between the dip and the base and on the base, and under a
        /// predicate that passes the dip but not the base.
        #[test]
        fn the_dipped_view_reads_as_its_layout_bit_for_bit(
            pick in 0usize..TraceShape::ALL.len(),
            base_mantissa in 1.0f64..10.0,
            base_exp in -3i32..13,
            horizon_mantissa in 1.0f64..10.0,
            horizon_exp in -6i32..6,
            words in proptest::collection::vec(any::<u64>(), 12..=12),
            density in 0usize..6,
            cut in 0usize..=2 * SLOTS * HORIZONS,
            seed in any::<u64>(),
            ahead in 0usize..=SLOTS * HORIZONS,
            order in any::<u64>(),
        ) {
            let shape = TraceShape::ALL[pick];
            let base = Rate::from_bytes_per_sec(base_mantissa * 10f64.powi(base_exp));
            let horizon = horizon_mantissa * 10f64.powi(horizon_exp);
            let cut = cut.min(SLOTS * HORIZONS);
            let mut flags = [0u64; WORDS];
            for (k, flag) in flags.iter_mut().enumerate() {
                let (a, b, c) = (words[k], words[k + 4], words[k + 8]);
                let w = [0, a & b & c, a & b, a, a | b | c, u64::MAX][density];
                // Keep only the slots before the cut.
                let keep = cut.saturating_sub(64 * k).min(64);
                *flag = if keep == 64 { w } else { w & !(u64::MAX >> keep) };
            }
            let hand_set = Dips { words: flags, ..Dips::default() };
            let mut drawn = shape.draw(seed);
            drawn.draw_to(ahead);
            let clear = shape.lay_out(base, horizon, &Dips::default());
            for (source, mut dips) in [("hand-set", hand_set), ("drawn", drawn)] {
                let laid_out = shape.lay_out(base, horizon, &dips);
                let mut view = DippedTrace::new(shape, &clear, &mut dips);

                let last = *laid_out.starts_s.last().unwrap();
                let mut queries = vec![-1.0, last + 1.0, 2.0 * last + 1.0];
                for (k, &s) in laid_out.starts_s.iter().enumerate() {
                    queries.push(s);
                    queries.push(s - s.abs() * 1e-12 - 1e-300);
                    if let Some(&next) = laid_out.starts_s.get(k + 1) {
                        queries.push((s + next) / 2.0);
                    }
                }
                let mut state = order;
                for j in (1..queries.len()).rev() {
                    splitmix64(&mut state);
                    queries.swap(j, (state % (j as u64 + 1)) as usize);
                }
                let base = base.as_bytes_per_sec();
                let dip = base * DIP_FACTOR;
                let mid = (dip + base) / 2.0;
                let predicates: [(&str, &dyn Fn(f64) -> bool); 6] = [
                    ("above half the dip", &|r| r > dip / 2.0),
                    ("above the dip", &|r| r > dip),
                    ("above the midpoint", &|r| r > mid),
                    ("above the base", &|r| r > base),
                    ("below the midpoint", &|r| r < mid),
                    ("not the base", &|r| r != base),
                ];
                for &q in &queries {
                    let (rate, next) = view.segment_at(q);
                    let (want_rate, want_next) = laid_out.segment_at(q);
                    prop_assert_eq!(
                        rate.to_bits(),
                        want_rate.to_bits(),
                        "{} dips, {}: rate at {}", source, shape, q
                    );
                    prop_assert_eq!(
                        next.map(f64::to_bits),
                        want_next.map(f64::to_bits),
                        "{} dips, {}: next breakpoint after {}", source, shape, q
                    );
                    for (name, above) in predicates {
                        prop_assert_eq!(
                            window_bits(view.window_above(q, above)),
                            window_bits(laid_out.window_above(q, above)),
                            "{} dips, {}: window from {} {}", source, shape, q, name
                        );
                    }
                }
            }
        }

        /// Every shape builds the trace the tuple construction built,
        /// bit for bit, over bases and horizons across many decades, and
        /// so does the layout of the seed's draw, which completed holds
        /// the flags the eager draw makes.
        #[test]
        fn builds_match_the_tuple_construction_bit_for_bit(
            pick in 0usize..TraceShape::ALL.len(),
            base_mantissa in 1.0f64..10.0,
            base_exp in -3i32..13,
            horizon_mantissa in 1.0f64..10.0,
            horizon_exp in -6i32..6,
            seed in any::<u64>(),
        ) {
            let shape = TraceShape::ALL[pick];
            let base = Rate::from_bytes_per_sec(base_mantissa * 10f64.powi(base_exp));
            let horizon = horizon_mantissa * 10f64.powi(horizon_exp);
            let want = built_from_segments(shape, base, horizon, seed);
            let built = shape.build(base, horizon, seed);
            let laid_out = shape.lay_out(base, horizon, &shape.draw(seed));
            for got in [built, laid_out] {
                prop_assert_eq!(bits(&got.starts_s), bits(&want.starts_s));
                prop_assert_eq!(bits(&got.rates_bps), bits(&want.rates_bps));
            }
            let eager = match shape {
                TraceShape::Bursty => eager_draw(seed),
                _ => [0; WORDS],
            };
            prop_assert_eq!(shape.draw(seed).completed().words, eager);
        }
    }

    /// All 256 flags of `seed` drawn at once, a word at a time on the
    /// seed's chain: the oracle of the lazy draw.
    fn eager_draw(seed: u64) -> [u64; WORDS] {
        let mut state = seed;
        let mut words = [0; WORDS];
        for word in &mut words {
            for _ in 0..64 {
                splitmix64(&mut state);
                *word = (*word << 1) | u64::from(state.is_multiple_of(4));
            }
        }
        words
    }

    /// The first `n` flags of `words`, the others clear.
    fn first_flags(words: [u64; WORDS], n: usize) -> [u64; WORDS] {
        std::array::from_fn(|w| {
            let keep = n.saturating_sub(64 * w).min(64);
            if keep == 64 {
                words[w]
            } else {
                words[w] & !(u64::MAX >> keep)
            }
        })
    }

    /// A draw makes no flag, and a read draws the flags up to the last
    /// slot it reaches and none after, the eager draw's flags: through a
    /// `DippedTrace`, `segment_at` in slot `k` leaves `k + 1` drawn, and
    /// `window_above` from slot `k` leaves drawn the flags up to the next
    /// dip, or up to the next clear slot when a window that starts in a
    /// dip ends there (every flag when no dip is ahead, none from the
    /// final segment); and `next_slot` from every slot, for a dip and for
    /// a clear slot, from dips drawn ahead to before, at and past that
    /// slot, leaves drawn the flags up to the slot it returns (every flag
    /// when it finds none, none from past the last slot), or the ones
    /// drawn ahead when they reach further. Dips compare equal to a fresh
    /// draw of their seed however far each was drawn.
    #[test]
    fn a_read_draws_the_flags_up_to_its_slot_and_no_further() {
        // The fleet copies each session's dips and reads them on the pool.
        fn copy_send_sync<T: Copy + Send + Sync>() {}
        copy_send_sync::<Dips>();

        const ALL: usize = SLOTS * HORIZONS;
        let shape = TraceShape::Bursty;
        let clear = shape.lay_out(gbs(1.0), 2.0, &Dips::default());
        let (mut windows, mut ends_sought) = (0, 0);
        for seed in (0..12u64).map(|k| k * 7919) {
            let eager = eager_draw(seed);
            let flag = |k: usize| (eager[k / 64] << (k % 64)) >> 63 == 1;
            let fresh = shape.draw(seed);
            assert_eq!(fresh.drawn, 0, "seed {seed}: a draw makes no flag");
            let mut dips = fresh;
            for k in 0..ALL {
                let mid = (clear.starts_s[k] + clear.starts_s[k + 1]) / 2.0;
                DippedTrace::new(shape, &clear, &mut dips).segment_at(mid);
                assert_eq!(dips.drawn, k + 1, "seed {seed}: a read in slot {k}");
                assert_eq!(dips.words, first_flags(eager, k + 1), "seed {seed}");
                assert_eq!(dips, fresh, "seed {seed}: {} flags against none", k + 1);
            }
            let base = clear.rates_bps[0];
            let dip = base * DIP_FACTOR;
            let mid = (dip + base) / 2.0;
            let predicates: [(&str, &dyn Fn(f64) -> bool); 5] = [
                ("above half the dip", &|r| r > dip / 2.0),
                ("above the dip", &|r| r > dip),
                ("above the midpoint", &|r| r > mid),
                ("above the base", &|r| r > base),
                ("below the midpoint", &|r| r < mid),
            ];
            for k in 0..=ALL {
                let next_dip = (k..ALL).find(|&j| flag(j)).unwrap_or(ALL);
                let next_clear = (k..ALL).find(|&j| !flag(j)).unwrap_or(ALL);
                let dipped = next_dip == k;
                let (here, other) = if dipped { (dip, base) } else { (base, dip) };
                let next = clear.starts_s.get(k + 1).copied();
                let instants = [
                    Some(clear.starts_s[k]),
                    next.map(|n| (clear.starts_s[k] + n) / 2.0),
                ];
                for (name, above) in predicates {
                    // One past the furthest slot the window needs.
                    let need = if k == ALL {
                        0
                    } else if next_dip == ALL {
                        ALL
                    } else if dipped && above(here) && !above(other) {
                        ends_sought += usize::from(next_clear > k + 1);
                        (next_clear + 1).min(ALL)
                    } else {
                        next_dip + 1
                    };
                    for t in instants.into_iter().flatten() {
                        let mut dips = fresh;
                        DippedTrace::new(shape, &clear, &mut dips).window_above(t, above);
                        assert_eq!(
                            dips.drawn, need,
                            "seed {seed}: the window {name} from {t} in slot {k}"
                        );
                        assert_eq!(dips.words, first_flags(eager, need), "seed {seed}");
                        windows += 1;
                    }
                }
            }
            for from in 0..=ALL {
                for dipped in [true, false] {
                    let want = (from..ALL).find(|&k| flag(k) == dipped).unwrap_or(ALL);
                    for ahead in [0, from / 2, from, from + 1, from + 70] {
                        let ahead = ahead.min(ALL);
                        let mut dips = fresh;
                        dips.draw_to(ahead);
                        assert_eq!(dips.next_slot(from, dipped), want, "seed {seed}");
                        // A search from past the last slot reads none.
                        let read = if from == ALL { 0 } else { (want + 1).min(ALL) };
                        let drawn = ahead.max(read);
                        assert_eq!(
                            dips.drawn,
                            drawn,
                            "seed {seed}: the next {} slot from {from}, {ahead} drawn ahead",
                            if dipped { "dipped" } else { "clear" }
                        );
                        assert_eq!(dips.words, first_flags(eager, drawn), "seed {seed}");
                    }
                }
            }
        }
        assert!(windows > 10_000, "only {windows} windows read");
        assert!(
            ends_sought > 100,
            "only {ends_sought} dipped windows end past their slot"
        );
    }

    #[test]
    fn outage_stalls_then_resumes() {
        let t = TraceShape::Outage.build(gbs(1.0), 10.0, 0);
        // 2.5 GB fit before the outage at t=2.5; the next byte waits
        // until t=6.0.
        assert_eq!(t.finish_time(0.0, 2.5e9), 2.5);
        assert_eq!(t.finish_time(0.0, 3.5e9), 7.0);
        assert_eq!(t.rate_at(3.0), 0.0);
        assert!((t.mean_rate(10.0) - 0.65e9).abs() < 1.0);
    }

    #[test]
    fn capped_and_shared_rates() {
        let t = BandwidthTrace::steady(gbs(4.0));
        // Split 4 ways: 1 GB/s per share.
        assert_eq!(t.capped_finish_time(0.0, 1.0e9, 4.0, f64::INFINITY), 1.0);
        // A 0.5 GB/s downstream stage bounds the pipeline.
        assert_eq!(t.capped_finish_time(0.0, 1.0e9, 1.0, 0.5e9), 2.0);
    }

    #[test]
    fn zero_bytes_finish_immediately() {
        let t = BandwidthTrace::steady(gbs(1.0));
        assert_eq!(t.finish_time(7.5, 0.0), 7.5);
    }

    /// The ready instant of each of `sends` sends of `production`, written
    /// out as `FrameSource::frame_ready` computes a frame's.
    fn readies(production: Production, sends: usize) -> Vec<f64> {
        let first = production.first as usize;
        (0..sends)
            .map(|i| production.period * (first + i + 1) as f64)
            .collect()
    }

    /// The send chain written out with one `finish_time` per send from a
    /// link first free at `free`: every free instant of the chain, in
    /// send order. A send ready exactly when the link frees starts at the
    /// free instant, which decides the sign of a zero start.
    fn step_by_step(
        trace: &BandwidthTrace,
        mut free: f64,
        readies: &[f64],
        bytes: f64,
        overhead: f64,
    ) -> Vec<f64> {
        readies
            .iter()
            .map(|&ready| {
                let start = if ready > free { ready } else { free };
                free = trace.finish_time(start, bytes) + overhead;
                free
            })
            .collect()
    }

    /// Instants as raw bits, so equality means bit identity.
    fn bits(instants: &[f64]) -> Vec<u64> {
        instants.iter().map(|t| t.to_bits()).collect()
    }

    /// The send chain's free instants, and the instant it returns.
    fn chained(
        trace: &BandwidthTrace,
        free: f64,
        production: Production,
        sends: usize,
        bytes: f64,
        overhead: f64,
    ) -> (Vec<f64>, f64) {
        let mut frees = Vec::with_capacity(sends);
        let last = trace.send_chain(
            free,
            u32::try_from(sends).unwrap(),
            bytes,
            overhead,
            production,
            |free| frees.push(free),
        );
        (frees, last)
    }

    /// The chain's free instants, once they have replayed `step_by_step`
    /// bit for bit, and its return value the last of them.
    fn replayed(
        trace: &BandwidthTrace,
        free: f64,
        production: Production,
        sends: usize,
        bytes: f64,
        overhead: f64,
    ) -> Vec<f64> {
        let want = step_by_step(trace, free, &readies(production, sends), bytes, overhead);
        let (got, last) = chained(trace, free, production, sends, bytes, overhead);
        assert_eq!(bits(&got), bits(&want), "{bytes} B from {free}");
        assert_eq!(last.to_bits(), want.last().unwrap_or(&free).to_bits());
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..Default::default() })]

        /// The send chain replays step-by-step `finish_time` bit for bit:
        /// on every bundled shape and on random traces with zero-rate
        /// segments; under a production that bursts (the link never
        /// idles), keeps a cadence (it idles between sends), lands on a
        /// breakpoint or has all sends ready at once (period 0), or
        /// produces near the link's own pace, so backlogged runs and idle
        /// sends alternate as the rate changes; from the first unit or a
        /// later one; from a link first free at ±0, on a breakpoint or
        /// anywhere up to past the last one; for chains of 0–1000 sends;
        /// with sends that exactly fill the segment they start on and
        /// zero-byte sends; and with an overhead of +0.0, -0.0, a positive
        /// one, or a negative one shorter than any send, which never
        /// rewinds the chain.
        #[test]
        fn the_send_chain_replays_finish_time_bit_for_bit(
            trace_pick in 0usize..=TraceShape::ALL.len(),
            horizon in 0.05f64..20.0,
            seed in any::<u64>(),
            // (duration, rate level) pairs; level 0 is a zero-rate slot.
            segs in proptest::collection::vec((0.01f64..5.0, 0u32..4), 0..12),
            sends in 0usize..=1000,
            pace in 0u32..4,
            period in 0.0f64..1.0,
            first in 0u32..10_000,
            size_pick in 0u32..3,
            size in 0.0f64..1.0,
            fill_pick in any::<usize>(),
            overhead_pick in 0u32..4,
            free_pick in 0u32..4,
            free_at in 0.0f64..1.5,
        ) {
            let trace = match trace_pick {
                0 => {
                    let mut segments = vec![(0.0, gbs(1.0))];
                    let mut t = 0.0;
                    for (dur, level) in segs {
                        t += dur;
                        segments.push((t, gbs(f64::from(level) * 0.5)));
                    }
                    segments.push((t + 1.0, gbs(2.0)));
                    BandwidthTrace::from_segments(&segments).unwrap()
                }
                k => TraceShape::ALL[k - 1].build(gbs(1.0), horizon, seed),
            };
            // Sizes and periods scale with the breakpoint span, so a chain
            // crosses many breakpoints before it passes the last one.
            let last_start = *trace.starts_s.last().unwrap();
            let unit = if last_start > 0.0 { last_start / 64.0 } else { 1.0 / 64.0 };
            // A send that exactly fills a positive-rate segment when it
            // starts on that segment's breakpoint.
            let fillable: Vec<usize> = (0..trace.starts_s.len() - 1)
                .filter(|&k| trace.rates_bps[k] > 0.0)
                .collect();
            let bytes = match (size_pick, fillable.is_empty()) {
                (0, _) => 0.0,
                (1, false) => {
                    let k = fillable[fill_pick % fillable.len()];
                    trace.rates_bps[k] * (trace.starts_s[k + 1] - trace.starts_s[k])
                }
                _ => (0.01 + size) * unit * 1e9,
            };
            let production = match pace {
                0 => Production { period: 1e-9, first: 0 },
                1 => Production { period: period * unit, first },
                // Send `m - 1` ready on breakpoint `k`, up to the rounding
                // of the period; breakpoint 0 makes the period 0.
                2 => {
                    let k = fill_pick % trace.starts_s.len();
                    let m = 1 + fill_pick % 64;
                    Production { period: trace.starts_s[k] / m as f64, first: 0 }
                }
                // One send per 0.25 to 1.75 of its time at 1 GB/s.
                _ => Production { period: (0.25 + 1.5 * period) * bytes / 1e9, first },
            };
            // Every send holds the link at least `bytes / max_rate`, so a
            // negative overhead of half that frees it after its start.
            let overhead = match overhead_pick {
                0 => 0.0,
                1 => -0.0,
                2 => 0.1 * unit,
                _ => -0.5 * bytes / trace.max_rate(),
            };
            let free = match free_pick {
                0 => 0.0,
                1 => -0.0,
                2 => trace.starts_s[fill_pick % trace.starts_s.len()],
                _ => free_at * 64.0 * unit,
            };
            replayed(&trace, free, production, sends, bytes, overhead);
        }

        /// Jumped runs replay single steps bit for bit where rounding
        /// decides. On a 1 B/s link, where a send takes `bytes` seconds,
        /// from a first free anywhere in a random binade or just below its
        /// top, each send takes a whole or half number of the binade's
        /// spacings and the overhead does too (or is ±0), so about half
        /// the sums are ties, and chains climb into the next binade,
        /// where the spacing doubles. Sends are ready at once or by the
        /// first free.
        #[test]
        fn jumped_runs_replay_ties_and_binade_tops_bit_for_bit(
            exponent in -60i32..60,
            mantissa in 0u64..(1 << 52),
            near_top in any::<bool>(),
            below_top in 0u64..20_000,
            halves in 0u32..64,
            overhead_pick in 0u32..3,
            overhead_halves in 0u32..8,
            sends in 1usize..=300,
            spread in any::<bool>(),
        ) {
            let mantissa = if near_top { (1 << 52) - 1 - below_top } else { mantissa };
            let free = f64::from_bits(((exponent + 1023) as u64) << 52 | mantissa);
            let half = 2f64.powi(exponent - 53);
            let bytes = f64::from(halves) * half;
            let overhead = match overhead_pick {
                0 => f64::from(overhead_halves) * half,
                1 => 0.0,
                _ => -0.0,
            };
            let period = if spread { free / 512.0 } else { 0.0 };
            let one_bps = BandwidthTrace::steady(Rate::from_bytes_per_sec(1.0));
            replayed(&one_bps, free, Production { period, first: 0 }, sends, bytes, overhead);
        }
    }

    /// Sends that start on a breakpoint and exactly fill its segment take
    /// the in-segment path; the next send, starting on the following
    /// breakpoint, steps the cursor first. A send that overflows its
    /// segment by any amount integrates across the breakpoint. A jumped
    /// run may end with a send that exactly fills its segment.
    #[test]
    fn sends_that_fill_a_segment_match_finish_time() {
        let t = BandwidthTrace::from_segments(&[
            (0.0, gbs(1.0)),
            (2.0, gbs(0.5)),
            (6.0, Rate::ZERO),
            (7.0, gbs(2.0)),
        ])
        .unwrap();
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        for (free, bytes, production, sends) in [
            (0.0, 2.0e9, at_once, 4),
            (0.0, 1.0e9, at_once, 5),
            (0.0, 2.0e9 + 1.0, at_once, 3),
            // Ready on the breakpoints at t=2, 4 and 6, and at t=8.
            (
                0.0,
                1.0e9,
                Production {
                    period: 2.0,
                    first: 0,
                },
                4,
            ),
            (2.0, 0.5e9, at_once, 5),
        ] {
            replayed(&t, free, production, sends, bytes, 0.0);
        }
        // The first chain written out: 2 GB fill [0, 2) at 1 GB/s and
        // [2, 6) at 0.5 GB/s; the third send waits out the outage and
        // moves at 2 GB/s from t=7.
        assert_eq!(
            chained(&t, 0.0, at_once, 4, 2.0e9, 0.0).0,
            [2.0, 6.0, 8.0, 9.0]
        );
        // One-second sends from t=2: from t=4 the sends starting at 4 and
        // 5 are one jumped run, whose last send fills [2, 6) to its end.
        assert_eq!(
            chained(&t, 2.0, at_once, 5, 0.5e9, 0.0).0,
            [3.0, 4.0, 5.0, 6.0, 7.25]
        );
    }

    /// Chains on the edges of the jump, each replayed bit for bit against
    /// single steps, all sends ready at once. From a free just below 1,
    /// sends of exactly 1.5 and 2.5 spacings of the binade `[1, 2)` first
    /// land on an odd multiple of the spacing; from there each sum is a
    /// tie that rounds to the even neighbour, so the step after the first
    /// differs from it, and a jump from the first free would be wrong. A
    /// send under half a spacing stalls the chain on its first free.
    #[test]
    fn ties_and_stalls_replay_finish_time() {
        let u = f64::EPSILON;
        let one_bps = BandwidthTrace::steady(Rate::from_bytes_per_sec(1.0));
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        for (free, bytes, want) in [
            (
                1.0 - 0.5 * u,
                1.5 * u,
                [1.0 + u, 1.0 + 2.0 * u, 1.0 + 4.0 * u],
            ),
            (
                1.0 - 1.5 * u,
                2.5 * u,
                [1.0 + u, 1.0 + 4.0 * u, 1.0 + 6.0 * u],
            ),
        ] {
            let frees = replayed(&one_bps, free, at_once, 64, bytes, 0.0);
            assert_eq!(frees[..3], want, "{bytes} B");
        }
        let frees = replayed(&one_bps, 1.0, at_once, 64, 0.25 * u, 0.0);
        assert!(frees.iter().all(|&f| f == 1.0), "{frees:?}");
    }

    /// 2^24 sends of 2^-20 s each, all ready at t=0, from a link free at
    /// 0: the frees climb through the 24 binades from 2^-20 to 16, and
    /// each is exactly its send count times 2^-20.
    #[test]
    fn a_long_chain_crosses_binades_exactly() {
        let link = BandwidthTrace::steady(Rate::from_bytes_per_sec(1048576.0));
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        let mut count = 0u32;
        let last = link.send_chain(0.0, 1 << 24, 1.0, 0.0, at_once, |free| {
            count += 1;
            assert_eq!(free, f64::from(count) / 1048576.0);
        });
        assert_eq!((count, last), (1 << 24, 16.0));
    }

    /// `last_passing` finds every boundary from every guess: small ranges
    /// exhaustively, and boundaries across the whole `u32` range from
    /// guesses at both ends, where a stride saturates.
    #[test]
    fn last_passing_finds_the_boundary_from_any_guess() {
        for most in 0..40u32 {
            for bound in 0..=most {
                for guess in 0..50 {
                    let got = last_passing(most, guess, |n| n <= bound);
                    assert_eq!(got, bound, "most {most}, guess {guess}");
                }
            }
        }
        let most = u32::MAX - 1;
        for bound in [0, 1, 12_345, 1 << 31, most - 1, most] {
            for guess in [0, 1, bound, most, u32::MAX] {
                assert_eq!(last_passing(most, guess, |n| n <= bound), bound);
            }
        }
    }

    #[test]
    fn an_empty_chain_leaves_the_link_free_at_zero() {
        let t = BandwidthTrace::steady(gbs(1.0));
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        assert_eq!(chained(&t, 0.0, at_once, 0, 1.0e9, 0.5), (vec![], 0.0));
    }

    /// A fault fails the chain at the faulty send with the single step's
    /// message, after `sent` has seen exactly the sends before it; a
    /// fault right after a jumped run is no exception.
    fn assert_fails_at(
        trace: &BandwidthTrace,
        free: f64,
        production: Production,
        sends: usize,
        bytes: f64,
        overhead: f64,
        (send, message): (usize, &str),
    ) {
        let mut seen = Vec::new();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trace.send_chain(
                free,
                u32::try_from(sends).unwrap(),
                bytes,
                overhead,
                production,
                |f| seen.push(f),
            )
        }))
        .expect_err("the chain must fail");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some(message)
        );
        let want = step_by_step(trace, free, &readies(production, send), bytes, overhead);
        assert_eq!(bits(&seen), bits(&want), "{message}");
    }

    #[test]
    fn a_chain_rewound_by_a_negative_overhead_fails_loudly() {
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(1.0)), (2.0, gbs(0.5))]).unwrap();
        // The link is busy until t=3, on the second segment; the first
        // send frees it at 5 - 4 = 1, so the second would start before
        // the segment the chain has reached.
        let at_1 = (1, "segment cursor at t=2 is past the start 1");
        assert_fails_at(&t, 3.0, at_once, 2, 1.0e9, -4.0, at_1);
        // A backlogged chain from t=34.5 on the 2 GB/s segment from t=10:
        // each 1 GB send takes 0.5 s and the overhead hands back 1.5 s, so
        // send k starts at 34.5 - k, and send 25 at 9.5, before the
        // segment.
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(1.0)), (10.0, gbs(2.0))]).unwrap();
        let at_25 = (25, "segment cursor at t=10 is past the start 9.5");
        assert_fails_at(&t, 34.5, at_once, 40, 1.0e9, -1.5, at_25);
    }

    /// A period that is not a time fails before any send, even for a
    /// chain with no sends.
    #[test]
    fn a_period_that_is_not_a_time_fails_loudly() {
        let t = BandwidthTrace::steady(gbs(1.0));
        for period in [f64::NAN, -1.0, f64::INFINITY] {
            let message = format!("period must be non-negative and finite, got {period}");
            for sends in [0, 40] {
                let production = Production { period, first: 0 };
                assert_fails_at(&t, 0.0, production, sends, 1.0e9, 0.0, (0, &message));
            }
        }
    }

    /// Send `k` of a production every `f64::MAX / (k + 0.5)` seconds is
    /// ready at infinity. The chain fails there whether its sends wait
    /// to be produced (a link free at 0) or not: on a link busy until
    /// `0.99 · f64::MAX`, where a one-second send is lost in rounding and
    /// the chain stalls, every send before `k` but the first is one jumped
    /// run.
    #[test]
    fn a_ready_instant_that_is_not_a_time_fails_loudly() {
        let t = BandwidthTrace::steady(gbs(1.0));
        let message = "Seconds must be non-negative and finite, got inf";
        for send in [20, 32] {
            let production = Production {
                period: f64::MAX / (send as f64 + 0.5),
                first: 0,
            };
            for free in [0.0, 0.99 * f64::MAX] {
                assert_fails_at(&t, free, production, 40, 1.0e9, 0.0, (send, message));
            }
        }
    }

    #[test]
    fn bytes_or_a_free_that_is_not_a_time_fails_loudly() {
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        let bytes = (0, "bytes must be non-negative and finite, got inf");
        let t = BandwidthTrace::steady(gbs(1.0));
        assert_fails_at(&t, 0.0, at_once, 40, f64::INFINITY, 0.0, bytes);
        // At 1 B/s a send of f64::MAX / (k + 0.5) bytes takes as many
        // seconds, so the free instant of send k overflows; no run is
        // jumped, since each send doubles the free or more.
        let t = BandwidthTrace::steady(Rate::from_bytes_per_sec(1.0));
        for send in [20, 32] {
            let bytes = f64::MAX / (send as f64 + 0.5);
            let free = (send, "Seconds must be non-negative and finite, got inf");
            assert_fails_at(&t, 0.0, at_once, 40, bytes, 0.0, free);
        }
    }

    /// The first-free instant is checked like every other instant, even
    /// for a chain with no sends.
    #[test]
    #[should_panic(expected = "Seconds must be non-negative and finite")]
    fn a_first_free_instant_that_is_not_a_time_fails_loudly() {
        let at_once = Production {
            period: 0.0,
            first: 0,
        };
        chained(
            &BandwidthTrace::steady(gbs(1.0)),
            f64::NAN,
            at_once,
            0,
            1.0e9,
            0.0,
        );
    }

    #[test]
    fn start_mid_segment_integrates_correctly() {
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(1.0)), (2.0, gbs(0.5))]).unwrap();
        // Start at t=1: 1 GB in the first second, then 0.5 GB/s.
        assert_eq!(t.finish_time(1.0, 2.0e9), 4.0);
        // Start after the boundary entirely.
        assert_eq!(t.finish_time(3.0, 1.0e9), 5.0);
    }

    #[test]
    fn diurnal_mean_is_documented_55_percent() {
        let t = TraceShape::Diurnal.build(gbs(1.0), 8.0, 0);
        let mean = t.mean_rate(8.0);
        assert!(
            (mean - 0.55e9).abs() < 0.01e9,
            "diurnal mean {mean} far from 55% of base"
        );
        // Rates stay within the documented envelope.
        for k in 0..128 {
            let r = t.rate_at(8.0 * k as f64 / 128.0);
            assert!((0.1e9 - 1.0..=1.0e9 + 1.0).contains(&r), "rate {r}");
        }
    }

    #[test]
    fn bursty_is_deterministic_in_seed() {
        let a = TraceShape::Bursty.build(gbs(1.0), 4.0, 42);
        let b = TraceShape::Bursty.build(gbs(1.0), 4.0, 42);
        assert_eq!(a, b);
        let c = TraceShape::Bursty.build(gbs(1.0), 4.0, 43);
        assert_ne!(a, c, "different seeds should place dips differently");
        // Roughly a quarter of the slots dip.
        let dips = (0..256)
            .filter(|k| a.rate_at(4.0 * 8.0 * *k as f64 / 256.0) < 0.9e9)
            .count();
        assert!((32..96).contains(&dips), "dip count {dips} out of range");
    }

    #[test]
    fn shapes_round_trip_labels() {
        for shape in TraceShape::ALL {
            assert_eq!(TraceShape::parse(shape.label()), Ok(shape));
            assert_eq!(shape.to_string(), shape.label());
        }
        assert!(TraceShape::parse("tsunami").is_err());
    }

    /// Every validation failure names its fault in full, and an input
    /// with two faults names the one checked first: the first start,
    /// then the starts in order, then the rates in order, then the final
    /// rate.
    #[test]
    fn invalid_segments_rejected() {
        let bps = Rate::from_bytes_per_sec;
        let increasing = |a: &str, b: &str| {
            format!("segment starts must be finite and strictly increasing ({a} then {b})")
        };
        let first_start = "the first segment must start at t=0, got 1".to_string();
        for (segments, want) in [
            (vec![], "a trace needs at least one segment".to_string()),
            (vec![(1.0, gbs(1.0))], first_start.clone()),
            (vec![(0.0, gbs(1.0)), (0.0, gbs(2.0))], increasing("0", "0")),
            (
                vec![(0.0, gbs(1.0)), (f64::INFINITY, gbs(2.0))],
                increasing("0", "inf"),
            ),
            (
                vec![(0.0, Rate::ZERO)],
                "the final segment must have a positive rate (transfers must terminate)"
                    .to_string(),
            ),
            (
                vec![(0.0, bps(f64::NAN))],
                "rate at t=0 must be finite and >= 0, got NaN".to_string(),
            ),
            (
                vec![(0.0, bps(1.0)), (1.5, bps(-2.0)), (3.0, bps(1.0))],
                "rate at t=1.5 must be finite and >= 0, got -2".to_string(),
            ),
            // Two faults each: the one checked first is named.
            (vec![(1.0, gbs(1.0)), (0.5, gbs(1.0))], first_start),
            (
                vec![(0.0, bps(-1.0)), (2.0, bps(1.0)), (1.0, bps(1.0))],
                increasing("2", "1"),
            ),
            (
                vec![
                    (0.0, bps(1.0)),
                    (2.0, bps(1.0)),
                    (1.0, bps(1.0)),
                    (1.0, bps(1.0)),
                ],
                increasing("2", "1"),
            ),
            (
                vec![(0.0, bps(1.0)), (1.0, bps(f64::INFINITY)), (2.0, bps(-1.0))],
                "rate at t=1 must be finite and >= 0, got inf".to_string(),
            ),
            (
                vec![(0.0, bps(-1.0)), (1.0, Rate::ZERO)],
                "rate at t=0 must be finite and >= 0, got -1".to_string(),
            ),
        ] {
            let got = BandwidthTrace::from_segments(&segments).expect_err(&want);
            assert_eq!(got, want, "{segments:?}");
        }
    }

    /// Breakpoint-boundary semantics: `rate_at` is right-continuous —
    /// at exactly `t == start_i` the incoming segment's rate applies —
    /// for every bundled shape, at t == 0, at every interior breakpoint
    /// and at t == horizon.
    #[test]
    fn rate_lookup_is_right_continuous_at_breakpoints() {
        let base = gbs(1.0);
        let horizon = 10.0;
        for shape in TraceShape::ALL {
            let t = shape.build(base, horizon, 42);
            // t == 0 is itself the first breakpoint: the first segment's
            // rate is in effect (and negative queries clamp to it).
            assert_eq!(t.rate_at(0.0), t.rates_bps[0], "{shape}: t=0");
            assert_eq!(t.rate_at(-1.0), t.rates_bps[0], "{shape}: t<0 clamps");
            for (i, &start) in t.starts_s.iter().enumerate() {
                assert_eq!(
                    t.rate_at(start),
                    t.rates_bps[i],
                    "{shape}: at breakpoint t={start} the new segment must rule"
                );
                // Just before the breakpoint the outgoing segment rules.
                if i > 0 {
                    let before = start - start.abs() * 1e-12 - 1e-300;
                    assert_eq!(
                        t.rate_at(before),
                        t.rates_bps[i - 1],
                        "{shape}: left of breakpoint t={start}"
                    );
                }
            }
            // t == horizon: inside the shapes' repetition envelope (the
            // shapes extend 8 horizons before settling); the lookup is
            // the segment containing the horizon, never a panic.
            let at_horizon = t.rate_at(horizon);
            let idx = t.starts_s.partition_point(|&s| s <= horizon) - 1;
            assert_eq!(at_horizon, t.rates_bps[idx], "{shape}: t=horizon");
            // Far past the last breakpoint the final rate extends forever.
            let last = *t.starts_s.last().unwrap();
            assert_eq!(t.rate_at(last), *t.rates_bps.last().unwrap());
            assert_eq!(t.rate_at(last + 1e9), *t.rates_bps.last().unwrap());
        }
    }

    #[test]
    fn max_rate_is_the_peak_segment() {
        let base = gbs(2.0);
        assert_eq!(BandwidthTrace::steady(base).max_rate(), 2.0e9);
        for shape in TraceShape::ALL {
            let t = shape.build(base, 5.0, 7);
            assert_eq!(t.max_rate(), 2.0e9, "{shape}: shapes only degrade");
        }
    }

    #[test]
    fn fluid_with_instant_backlog_is_the_traced_drain() {
        for shape in TraceShape::ALL {
            let t = shape.build(gbs(1.0), 10.0, 3);
            let exact = t.capped_finish_time(0.5, 7.0e9, 2.0, 0.8e9);
            let fluid = t.fluid_completion(0.5, f64::INFINITY, 7.0e9, 2.0, 0.8e9);
            assert_eq!(fluid, exact, "{shape}");
        }
    }

    #[test]
    fn fluid_fast_arrivals_match_finish_time() {
        // An arrival rate at or above the peak service rate never lets
        // the server starve: the fluid completion is the plain traced
        // finish time (the fluid exactness condition).
        for shape in TraceShape::ALL {
            let t = shape.build(gbs(1.0), 10.0, 11);
            let exact = t.finish_time(1.0, 9.0e9);
            let fluid = t.fluid_completion(1.0, t.max_rate() * 4.0, 9.0e9, 1.0, f64::INFINITY);
            let rel = (fluid - exact).abs() / exact.abs().max(1e-12);
            assert!(rel <= 1e-9, "{shape}: fluid {fluid} vs exact {exact}");
        }
    }

    #[test]
    fn fluid_slow_arrivals_ride_the_arrival_end() {
        // A 1 MB/s trickle into a 1 GB/s server: the queue never forms
        // and the last byte is served the instant it arrives.
        let t = BandwidthTrace::steady(gbs(1.0));
        let done = t.fluid_completion(2.0, 1.0e6, 5.0e6, 1.0, f64::INFINITY);
        assert!((done - 7.0).abs() < 1e-9, "got {done}");
    }

    #[test]
    fn fluid_outage_stalls_like_the_exact_integrator() {
        let t = TraceShape::Outage.build(gbs(1.0), 10.0, 0);
        // Instant backlog of 3.5 GB: 2.5 GB drain before the outage at
        // t=2.5, the rest waits until t=6.0 — finishing at 7.0 either way.
        let fluid = t.fluid_completion(0.0, f64::INFINITY, 3.5e9, 1.0, f64::INFINITY);
        assert_eq!(fluid, 7.0);
        // A 0.5 GB/s feed of 4 GB backs up across the outage window:
        // 1.25 GB served arrival-limited by t=2.5, 1.75 GB queue during
        // the stall, service resumes at 6.0 and the backlog (0.75 GB at
        // the t=8 arrival end) drains at full rate — done at 8.75 s.
        let done = t.fluid_completion(0.0, 0.5e9, 4.0e9, 1.0, f64::INFINITY);
        assert!((done - 8.75).abs() <= 1e-9, "got {done}");
    }

    #[test]
    fn fluid_zero_bytes_complete_at_arrival_start() {
        let t = BandwidthTrace::steady(gbs(1.0));
        assert_eq!(t.fluid_completion(3.0, 1.0e9, 0.0, 1.0, f64::INFINITY), 3.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = TraceShape::Diurnal.build(gbs(1.0), 4.0, 7);
        let json = serde_json::to_string(&t).unwrap();
        let back: BandwidthTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // One spelling everywhere: wire form == label == CLI vocabulary.
        assert_eq!(
            serde_json::to_string(&TraceShape::Bursty).unwrap(),
            "\"bursty\""
        );
        for shape in TraceShape::ALL {
            let json = serde_json::to_string(&shape).unwrap();
            let round: TraceShape = serde_json::from_str(&json).unwrap();
            assert_eq!(round, shape);
        }
        assert!(serde_json::from_str::<TraceShape>("\"tsunami\"").is_err());
    }

    /// JSON that `from_segments` would reject fails to deserialize,
    /// naming the problem, instead of building a trace the integrators
    /// cannot run on.
    #[test]
    fn malformed_trace_json_is_rejected() {
        for (json, why) in [
            (r#"{"starts_s":[],"rates_bps":[]}"#, "at least one segment"),
            (
                r#"{"starts_s":[0.0,1.0],"rates_bps":[1.0]}"#,
                "one rate per",
            ),
            (r#"{"starts_s":[0.0],"rates_bps":[0.0]}"#, "positive rate"),
            (
                r#"{"starts_s":[1.0,0.5],"rates_bps":[1.0,2.0]}"#,
                "start at t=0",
            ),
            (
                r#"{"starts_s":[0.0,2.0,1.0],"rates_bps":[1.0,2.0,3.0]}"#,
                "strictly increasing",
            ),
            (r#"{"starts_s":[0.0,1.0],"rates_bps":[-1.0,2.0]}"#, ">= 0"),
            (
                r#"{"starts_s":[0.0],"rates_bps":[1.0],"rate":2.0}"#,
                "unknown field",
            ),
            (r#"{"starts_s":[0.0]}"#, "missing field"),
        ] {
            let err = serde_json::from_str::<BandwidthTrace>(json)
                .expect_err(json)
                .to_string();
            assert!(err.contains(why), "{json}: {err}");
        }
    }
}
