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
        if starts_s.len() != rates_bps.len() {
            return Err(serde::Error::custom(format!(
                "a trace needs one rate per segment start, got {} starts and {} rates",
                starts_s.len(),
                rates_bps.len()
            )));
        }
        let segments: Vec<(f64, Rate)> = starts_s
            .into_iter()
            .zip(rates_bps.into_iter().map(Rate::from_bytes_per_sec))
            .collect();
        BandwidthTrace::from_segments(&segments).map_err(serde::Error::custom)
    }
}

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
        if segments.is_empty() {
            return Err("a trace needs at least one segment".into());
        }
        // sss-lint: allow(D004, traces must start at literal t=0; validation is exact)
        if segments[0].0 != 0.0 {
            return Err(format!(
                "the first segment must start at t=0, got {}",
                segments[0].0
            ));
        }
        for w in segments.windows(2) {
            // Starts increase from 0, so a start that passes the `>` test
            // is non-negative: the predicate adds only finiteness.
            if !(non_negative_finite(w[1].0) && w[1].0 > w[0].0) {
                return Err(format!(
                    "segment starts must be finite and strictly increasing ({} then {})",
                    w[0].0, w[1].0
                ));
            }
        }
        for (start, rate) in segments {
            let r = rate.as_bytes_per_sec();
            if !non_negative_finite(r) {
                return Err(format!(
                    "rate at t={start} must be finite and >= 0, got {r}"
                ));
            }
        }
        let last = segments.last().expect("non-empty").1.as_bytes_per_sec();
        if last <= 0.0 {
            return Err(
                "the final segment must have a positive rate (transfers must terminate)"
                    .to_string(),
            );
        }
        Ok(BandwidthTrace {
            starts_s: segments.iter().map(|(s, _)| *s).collect(),
            rates_bps: segments.iter().map(|(_, r)| r.as_bytes_per_sec()).collect(),
        })
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
        let mut i = self.segment_index(t_s);
        let mut min = self.rates_bps[i];
        if !above(min) {
            return None;
        }
        loop {
            i += 1;
            let Some(&start) = self.starts_s.get(i) else {
                return Some((min, None));
            };
            let rate = self.rates_bps[i];
            if !above(rate) {
                return Some((min, Some(start)));
            }
            min = min.min(rate);
        }
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
    /// is first free at `free`. Send `i` starts once it is ready and the
    /// send before it has freed the link, and holds the link `overhead`
    /// seconds past its last byte:
    ///
    /// `start_i = max(ready(i), free_{i-1})`,
    /// `free_i = finish_time(start_i, bytes) + overhead`, `free_{-1} = free`.
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
    /// The WAN link starts free at 0. A constant-rate server that is busy
    /// before its first send, such as a file writer that must open the
    /// file first, is a chain on [`BandwidthTrace::steady`] from the
    /// instant it frees up.
    ///
    /// ```
    /// use sss_sim::BandwidthTrace;
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
    /// let mut free = Vec::new();
    /// let last = t.send_chain(0.0, 2, 1.5e9, 0.0, |_| 0.0, |f| free.push(f));
    /// assert_eq!(free, [1.5, 5.0]);
    /// assert_eq!(last, t.finish_time(1.5, 1.5e9));
    ///
    /// // The same sends on a link that is busy until t=1: the first one
    /// // moves 1 GB before the outage and the rest from t=4.
    /// let last = t.send_chain(1.0, 2, 1.5e9, 0.0, |_| 0.0, |_| {});
    /// assert_eq!(last, 6.0);
    /// ```
    ///
    /// # Panics
    /// Panics on a negative or non-finite first-free, ready or free
    /// instant or `bytes`, and when a start falls before the segment the
    /// chain has reached (a negative `overhead` can rewind it).
    pub fn send_chain(
        &self,
        free: f64,
        sends: u32,
        bytes: f64,
        overhead: f64,
        mut ready: impl FnMut(u32) -> f64,
        mut sent: impl FnMut(f64),
    ) -> f64 {
        // The segment of the latest start: its start, its end (infinite
        // for the final segment), its rate and one send's time at it.
        let segment = |seg: usize| {
            let rate = self.rates_bps[seg];
            let end = self.starts_s.get(seg + 1).copied().unwrap_or(f64::INFINITY);
            (self.starts_s[seg], end, rate, bytes / rate)
        };
        let mut seg = 0;
        let (mut seg_start, mut end, mut rate, mut per_send) = segment(seg);
        let mut free = Seconds::new(free).value();
        for i in 0..sends {
            // Both instants are checked, so one compare is their maximum:
            // `f64::max` would put its NaN handling on the chain.
            let ready_i = Seconds::new(ready(i)).value();
            let start = if ready_i > free { ready_i } else { free };
            check_transfer(start, bytes);
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
            // sss-lint: allow(D004, zero-byte transfer completes instantly; exact guard)
            let finish = if bytes == 0.0 {
                start
            } else if rate > 0.0 && rate * (end - start) >= bytes {
                // The send fits in its segment: `walk`'s first step.
                start + per_send
            } else {
                self.walk(seg, start, bytes, 1.0, f64::INFINITY)
            };
            free = Seconds::new(finish + overhead).value();
            sent(free);
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

    /// The same profile with every rate multiplied by `factor` (e.g. to
    /// deflate an `α·Bw` effective-rate trace by a θ I/O inflation).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite factor.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive and finite, got {factor}"
        );
        BandwidthTrace {
            starts_s: self.starts_s.clone(),
            rates_bps: self.rates_bps.iter().map(|r| r * factor).collect(),
        }
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
    assert!(
        non_negative_finite(bytes),
        "bytes must be non-negative and finite, got {bytes}"
    );
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
    /// # Panics
    /// Panics on a non-positive base rate or horizon.
    pub fn build(&self, base: Rate, horizon_s: f64, seed: u64) -> BandwidthTrace {
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "horizon must be positive, got {horizon_s}"
        );
        let segments = match self {
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
        BandwidthTrace::from_segments(&segments).expect("bundled shapes build valid traces")
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

    /// The send chain written out with one `finish_time` per send from a
    /// link first free at `free`: every free instant of the chain, in
    /// send order.
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
                free = trace.finish_time(ready.max(free), bytes) + overhead;
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
        readies: &[f64],
        bytes: f64,
        overhead: f64,
    ) -> (Vec<f64>, f64) {
        let mut frees = Vec::with_capacity(readies.len());
        let sends = u32::try_from(readies.len()).unwrap();
        let last = trace.send_chain(
            free,
            sends,
            bytes,
            overhead,
            |i| readies[i as usize],
            |free| frees.push(free),
        );
        (frees, last)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..Default::default() })]

        /// The send chain replays step-by-step `finish_time` bit for bit:
        /// on every bundled shape and on random traces with zero-rate
        /// segments; under burst readies (the link never idles),
        /// arrival-gated readies (it idles between sends) and readies on
        /// the breakpoints themselves; from a link first free at 0, on a
        /// breakpoint or anywhere up to past the last one; with sends that
        /// exactly fill the segment they start on, zero-byte sends, and
        /// with or without a per-send overhead.
        #[test]
        fn the_send_chain_replays_finish_time_bit_for_bit(
            trace_pick in 0usize..=TraceShape::ALL.len(),
            horizon in 0.05f64..20.0,
            seed in any::<u64>(),
            // (duration, rate level) pairs; level 0 is a zero-rate slot.
            segs in proptest::collection::vec((0.01f64..5.0, 0u32..4), 0..12),
            sends in 1usize..200,
            pace in 0u32..3,
            period in 0.0f64..1.0,
            size_pick in 0u32..3,
            size in 0.0f64..1.0,
            fill_pick in any::<usize>(),
            with_overhead in any::<bool>(),
            free_pick in 0u32..3,
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
            let readies: Vec<f64> = match pace {
                0 => (1..=sends).map(|i| 1e-9 * i as f64).collect(),
                1 => (1..=sends).map(|i| period * unit * i as f64).collect(),
                _ => (0..sends)
                    .map(|i| trace.starts_s[i * trace.starts_s.len() / sends])
                    .collect(),
            };
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
            let overhead = if with_overhead { 0.1 * unit } else { 0.0 };
            let free = match free_pick {
                0 => 0.0,
                1 => trace.starts_s[fill_pick % trace.starts_s.len()],
                _ => free_at * 64.0 * unit,
            };

            let want = step_by_step(&trace, free, &readies, bytes, overhead);
            let (got, last) = chained(&trace, free, &readies, bytes, overhead);
            prop_assert_eq!(bits(&got), bits(&want), "{} bytes", bytes);
            prop_assert_eq!(last.to_bits(), want.last().unwrap().to_bits());
        }
    }

    /// Sends that start on a breakpoint and exactly fill its segment take
    /// the in-segment path; the next send, starting on the following
    /// breakpoint, steps the cursor first. A send that overflows its
    /// segment by any amount integrates across the breakpoint.
    #[test]
    fn sends_that_fill_a_segment_match_finish_time() {
        let t = BandwidthTrace::from_segments(&[
            (0.0, gbs(1.0)),
            (2.0, gbs(0.5)),
            (6.0, Rate::ZERO),
            (7.0, gbs(2.0)),
        ])
        .unwrap();
        for (bytes, readies) in [
            (2.0e9, vec![0.0, 2.0, 6.0, 7.0]),
            (1.0e9, vec![0.0, 0.0, 2.0, 2.0, 4.5]),
            (2.0e9 + 1.0, vec![0.0, 0.0, 6.0]),
        ] {
            let (got, last) = chained(&t, 0.0, &readies, bytes, 0.0);
            let want = step_by_step(&t, 0.0, &readies, bytes, 0.0);
            assert_eq!(bits(&got), bits(&want), "{bytes} B");
            assert_eq!(last.to_bits(), got.last().unwrap().to_bits());
        }
        // The first chain written out: 2 GB fill [0, 2) at 1 GB/s and
        // [2, 6) at 0.5 GB/s; the third send waits out the outage and
        // moves at 2 GB/s from t=7.
        assert_eq!(
            chained(&t, 0.0, &[0.0, 2.0, 6.0, 7.0], 2.0e9, 0.0).0,
            [2.0, 6.0, 8.0, 9.0]
        );
    }

    #[test]
    fn an_empty_chain_leaves_the_link_free_at_zero() {
        let t = BandwidthTrace::steady(gbs(1.0));
        assert_eq!(chained(&t, 0.0, &[], 1.0e9, 0.5), (vec![], 0.0));
    }

    #[test]
    #[should_panic(expected = "is past the start")]
    fn a_chain_rewound_by_a_negative_overhead_fails_loudly() {
        let t = BandwidthTrace::from_segments(&[(0.0, gbs(1.0)), (2.0, gbs(0.5))]).unwrap();
        // The first send starts at t=3, on the second segment, and frees
        // the link at 5 - 4 = 1: the second send would start before the
        // segment the chain has reached.
        chained(&t, 0.0, &[3.0, 0.0], 1.0e9, -4.0);
    }

    #[test]
    #[should_panic(expected = "Seconds must be non-negative and finite")]
    fn a_ready_instant_that_is_not_a_time_fails_loudly() {
        chained(
            &BandwidthTrace::steady(gbs(1.0)),
            0.0,
            &[f64::NAN],
            1.0e9,
            0.0,
        );
    }

    /// The first-free instant is checked like every other instant, even
    /// for a chain with no sends.
    #[test]
    #[should_panic(expected = "Seconds must be non-negative and finite")]
    fn a_first_free_instant_that_is_not_a_time_fails_loudly() {
        chained(&BandwidthTrace::steady(gbs(1.0)), f64::NAN, &[], 1.0e9, 0.0);
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

    #[test]
    fn invalid_segments_rejected() {
        assert!(BandwidthTrace::from_segments(&[]).is_err());
        assert!(BandwidthTrace::from_segments(&[(1.0, gbs(1.0))]).is_err());
        assert!(BandwidthTrace::from_segments(&[(0.0, gbs(1.0)), (0.0, gbs(2.0))]).is_err());
        assert!(
            BandwidthTrace::from_segments(&[(0.0, Rate::ZERO)]).is_err(),
            "an all-zero trace would never terminate"
        );
        assert!(
            BandwidthTrace::from_segments(&[(0.0, Rate::from_bytes_per_sec(f64::NAN))]).is_err()
        );
    }

    #[test]
    fn scaled_divides_every_segment() {
        let t = TraceShape::Outage.build(gbs(2.0), 10.0, 0).scaled(0.5);
        assert_eq!(t.rate_at(0.0), 1.0e9);
        assert_eq!(t.rate_at(3.0), 0.0);
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
