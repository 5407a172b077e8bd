//! General piecewise-linear, non-decreasing curves on `[0, ∞)`.
//!
//! Both arrival curves (concave, e.g. token buckets) and service curves
//! (convex, e.g. rate-latency) are special cases of a [`Curve`]: a list of
//! breakpoints joined by straight segments and extended beyond the last
//! breakpoint by a constant final slope.  Coordinates are `f64` seconds on
//! the x-axis and `f64` bits on the y-axis; all conversions back to exact
//! integer quantities round pessimistically at the caller.

use crate::arena::with_scratch;
use crate::counters::{record_op, OpKind};
use crate::NcError;
use serde::{Deserialize, Serialize};

/// Numerical tolerance used when comparing curve ordinates (bits).
///
/// The workloads analysed here are kilobits over milliseconds, so one
/// millionth of a bit is far below any physically meaningful difference.
pub const EPS: f64 = 1e-6;

/// A non-decreasing piecewise-linear function `f : [0, ∞) → [0, ∞)`.
///
/// Invariants (enforced by [`Curve::new`]):
/// * breakpoint abscissas are finite, non-negative and strictly increasing,
///   and the first breakpoint is at `x = 0`;
/// * ordinates are finite, non-negative and non-decreasing;
/// * the final slope is finite and non-negative;
/// * (debug builds) the breakpoint list is *simplified*: no interior
///   breakpoint is collinear with its neighbours and the last breakpoint is
///   not collinear with the final slope — see [`Curve::simplify`].
///
/// A token-bucket arrival curve `γ_{r,b}` is represented with a single
/// breakpoint `(0, b)` and final slope `r` (i.e. the value *just after* the
/// origin; the conventional `γ(0) = 0` is irrelevant for the deviation-based
/// bounds and this representation yields exactly Cruz's closed forms).
///
/// ```
/// use netcalc::Curve;
///
/// // A token bucket: 512 bits of burst, 25.6 kbps sustained.
/// let alpha = Curve::affine(512.0, 25_600.0).unwrap();
/// assert_eq!(alpha.eval(0.0), 512.0);
/// assert_eq!(alpha.eval(1.0), 512.0 + 25_600.0);
///
/// // A rate-latency service curve: 10 Mbps after 16 µs of dead time.
/// let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
/// assert_eq!(beta.eval(16e-6), 0.0);
/// assert!((beta.eval(1.0) - 10_000_000.0 * (1.0 - 16e-6)).abs() < 1e-6);
///
/// // Envelopes of the same flow combine by pointwise minimum.
/// let staircase = Curve::staircase(512.0, 0.02, 8, 10_000_000.0).unwrap();
/// let tight = alpha.min(&staircase);
/// assert!(tight.eval(0.05) <= alpha.eval(0.05));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Breakpoints `(x seconds, y bits)`, sorted by `x`, starting at `x = 0`.
    points: Vec<(f64, f64)>,
    /// Slope (bits per second) beyond the last breakpoint.
    final_slope: f64,
}

impl Curve {
    /// Builds a curve from breakpoints and a final slope, validating the
    /// invariants listed on [`Curve`].
    pub fn new(points: Vec<(f64, f64)>, final_slope: f64) -> Result<Self, NcError> {
        if points.is_empty() {
            return Err(NcError::InvalidCurve(
                "curve needs at least one breakpoint".into(),
            ));
        }
        if !final_slope.is_finite() || final_slope < 0.0 {
            return Err(NcError::InvalidCurve(format!(
                "final slope must be finite and non-negative, got {final_slope}"
            )));
        }
        if points[0].0 != 0.0 {
            return Err(NcError::InvalidCurve(format!(
                "first breakpoint must be at x = 0, got x = {}",
                points[0].0
            )));
        }
        for w in points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if !(x1.is_finite() && y1.is_finite()) {
                return Err(NcError::InvalidCurve("non-finite breakpoint".into()));
            }
            if x1 <= x0 {
                return Err(NcError::InvalidCurve(format!(
                    "breakpoint abscissas must be strictly increasing ({x0} then {x1})"
                )));
            }
            if y1 + EPS < y0 {
                return Err(NcError::InvalidCurve(format!(
                    "curve must be non-decreasing ({y0} then {y1})"
                )));
            }
        }
        let (x0, y0) = points[0];
        if !(x0.is_finite() && y0.is_finite()) || y0 < 0.0 {
            return Err(NcError::InvalidCurve("invalid first breakpoint".into()));
        }
        debug_assert!(
            is_simplified(&points, final_slope),
            "curve has redundant (collinear) breakpoints: {points:?} slope {final_slope}; \
             route the construction through Curve::simplify"
        );
        Ok(Curve {
            points,
            final_slope,
        })
    }

    /// Builds a curve from raw breakpoints, eliminating redundant collinear
    /// breakpoints first (the construction path used by every operation that
    /// synthesizes breakpoint lists, so curves stay small on hot paths).
    fn simplified(points: Vec<(f64, f64)>, final_slope: f64) -> Result<Self, NcError> {
        Curve::new(simplify_points(points, final_slope), final_slope)
    }

    /// Returns the curve with every redundant breakpoint removed: interior
    /// breakpoints collinear with their neighbours (within [`EPS`]) and a
    /// last breakpoint collinear with the final slope.  The represented
    /// function is unchanged.
    pub fn simplify(&self) -> Curve {
        Curve {
            points: simplify_points(self.points.clone(), self.final_slope),
            final_slope: self.final_slope,
        }
    }

    /// Constructs a curve from an already-simplified breakpoint list (every
    /// min-plus kernel ends its synthesis with [`simplify_points_in_place`]).
    pub(crate) fn from_simplified_parts(points: Vec<(f64, f64)>, final_slope: f64) -> Curve {
        debug_assert!(is_simplified(&points, final_slope));
        Curve {
            points,
            final_slope,
        }
    }

    /// The constant-zero curve.
    pub fn zero() -> Self {
        Curve {
            points: vec![(0.0, 0.0)],
            final_slope: 0.0,
        }
    }

    /// An affine curve `f(t) = burst + rate·t` (a token-bucket envelope).
    pub fn affine(burst_bits: f64, rate_bps: f64) -> Result<Self, NcError> {
        if burst_bits < 0.0 || !burst_bits.is_finite() {
            return Err(NcError::InvalidCurve(format!("invalid burst {burst_bits}")));
        }
        Curve::new(vec![(0.0, burst_bits)], rate_bps)
    }

    /// A rate-latency curve `β_{R,T}(t) = R·(t − T)⁺`.
    pub fn rate_latency(rate_bps: f64, latency_s: f64) -> Result<Self, NcError> {
        if latency_s < 0.0 || !latency_s.is_finite() {
            return Err(NcError::InvalidCurve(format!(
                "invalid latency {latency_s}"
            )));
        }
        if latency_s == 0.0 {
            Curve::new(vec![(0.0, 0.0)], rate_bps)
        } else {
            Curve::simplified(vec![(0.0, 0.0), (latency_s, 0.0)], rate_bps)
        }
    }

    /// The tight piecewise-linear envelope of a source releasing `burst`
    /// bits at most once per `period` seconds: the staircase
    /// `f(t) = burst·(⌊t/period⌋ + 1)` with each riser represented as a
    /// ramp of slope `peak_rate` *ending* at the step instant, truncated to
    /// `steps` steps and continued with the average rate (which beyond the
    /// last step coincides with the token bucket, touching the staircase at
    /// every step instant).
    ///
    /// Placing the ramp before the jump keeps the curve an upper bound of
    /// the instantaneous-release staircase — two frames may arrive exactly
    /// `period` apart, so the envelope must already read `2·burst` at
    /// `t = period` — while staying below the affine token bucket
    /// everywhere (they touch exactly at the step instants).  Any
    /// `peak_rate` above the average rate is sound; callers use the line
    /// rate, which keeps the ramps physically meaningful and the floats
    /// well-conditioned.
    ///
    /// Falls back to the plain token bucket `γ_{burst/period, burst}` when
    /// the ramp cannot fit inside one period (`burst/peak_rate ≥ period`,
    /// i.e. the flow alone would saturate the line).
    pub fn staircase(
        burst_bits: f64,
        period_s: f64,
        steps: usize,
        peak_rate_bps: f64,
    ) -> Result<Self, NcError> {
        if period_s <= 0.0 || !period_s.is_finite() {
            return Err(NcError::InvalidCurve(format!("invalid period {period_s}")));
        }
        if burst_bits < 0.0 || !burst_bits.is_finite() {
            return Err(NcError::InvalidCurve(format!("invalid burst {burst_bits}")));
        }
        if peak_rate_bps < 0.0 || !peak_rate_bps.is_finite() {
            return Err(NcError::InvalidCurve(format!(
                "invalid peak rate {peak_rate_bps}"
            )));
        }
        let rate = burst_bits / period_s;
        if burst_bits == 0.0 || peak_rate_bps <= rate || burst_bits / peak_rate_bps >= period_s {
            return Curve::affine(burst_bits, rate);
        }
        let steps = steps.max(1);
        let riser = burst_bits / peak_rate_bps;
        let mut points = Vec::with_capacity(2 * steps + 1);
        points.push((0.0, burst_bits));
        for k in 1..=steps {
            let step = k as f64 * period_s;
            points.push((step - riser, burst_bits * k as f64));
            points.push((step, burst_bits * (k as f64 + 1.0)));
        }
        Curve::simplified(points, rate)
    }

    /// The breakpoints of the curve.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The slope beyond the last breakpoint, in bits per second.
    pub fn final_slope(&self) -> f64 {
        self.final_slope
    }

    /// The long-run growth rate of the curve (equal to the final slope).
    pub fn long_term_rate(&self) -> f64 {
        self.final_slope
    }

    /// Evaluates the curve at `t` seconds (`t < 0` is clamped to 0).
    pub fn eval(&self, t: f64) -> f64 {
        eval_points(&self.points, self.final_slope, t)
    }

    /// The smallest `t` such that `f(t) ≥ y` (the pseudo-inverse), or `None`
    /// if the curve never reaches `y` (flat tail below `y`).
    pub fn inverse(&self, y: f64) -> Option<f64> {
        if y <= self.points[0].1 + EPS {
            // Reached at (or before) the origin.
            return Some(0.0);
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if y <= y1 + EPS {
                if (y1 - y0).abs() < EPS {
                    // Flat segment that already reaches y (within tolerance).
                    return Some(x1.min(x0));
                }
                let t = x0 + (y - y0) * (x1 - x0) / (y1 - y0);
                return Some(t.clamp(x0, x1));
            }
        }
        let (last_x, last_y) = *self.points.last().expect("non-empty");
        if y <= last_y + EPS {
            return Some(last_x);
        }
        if self.final_slope <= 0.0 {
            return None;
        }
        Some(last_x + (y - last_y) / self.final_slope)
    }

    /// The largest `t` such that `f(t) ≤ y` — more precisely
    /// `inf { x : f(x) > y }` — or `None` if the curve never exceeds `y`
    /// (flat tail at or below `y`).
    ///
    /// This "upper pseudo-inverse" is what the horizontal-deviation
    /// computation needs on the service-curve side: a bit that arrives when
    /// the arrival curve reads `y` may have to wait until the *end* of any
    /// plateau of the service curve at level `y` (e.g. the full latency `T`
    /// of a rate-latency curve even when `y = 0`).
    pub fn inverse_upper(&self, y: f64) -> Option<f64> {
        if self.points[0].1 > y + EPS {
            return Some(0.0);
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if y1 > y + EPS {
                if (y1 - y0).abs() < EPS {
                    return Some(x0);
                }
                let t = x0 + (y - y0).max(0.0) * (x1 - x0) / (y1 - y0);
                return Some(t.clamp(x0, x1));
            }
        }
        let (last_x, last_y) = *self.points.last().expect("non-empty");
        if self.final_slope <= 0.0 {
            return None;
        }
        Some(last_x + (y - last_y).max(0.0) / self.final_slope)
    }

    /// Pointwise sum of two curves (the arrival curve of an aggregate flow):
    /// a two-pointer merge of both breakpoint grids on the thread-local
    /// scratch.
    pub fn add(&self, other: &Curve) -> Curve {
        record_op(OpKind::Add);
        with_scratch(|s| {
            let final_slope = add_points_into(
                (&self.points, self.final_slope),
                (&other.points, other.final_slope),
                &mut s.xs,
                &mut s.work,
            );
            Curve::from_simplified_parts(s.work.clone(), final_slope)
        })
    }

    /// Pointwise difference `self − other` of two curves, for splitting an
    /// aggregate envelope back into "everything but one flow".
    ///
    /// The caller must guarantee `other ≤ self` pointwise with the
    /// difference non-decreasing (true whenever `other` is one of the
    /// summands of `self`); float noise is clamped to keep the result a
    /// valid curve.  Runs a two-pointer merge of both breakpoint grids on
    /// the thread-local scratch.
    pub fn sub_envelope(&self, other: &Curve) -> Curve {
        record_op(OpKind::SubEnvelope);
        with_scratch(|s| {
            let final_slope = sub_envelope_points_into(
                (&self.points, self.final_slope),
                (&other.points, other.final_slope),
                &mut s.xs,
                &mut s.work,
            );
            Curve::from_simplified_parts(s.work.clone(), final_slope)
        })
    }

    /// Pointwise minimum of two curves (combining two envelopes of the same
    /// flow, e.g. token bucket ∧ staircase).
    pub fn min(&self, other: &Curve) -> Curve {
        self.combine(other, true)
    }

    /// Pointwise maximum of two curves (the upper envelope, used by the
    /// min-plus deconvolution).
    pub fn max(&self, other: &Curve) -> Curve {
        self.combine(other, false)
    }

    /// Shared implementation of [`Curve::min`] / [`Curve::max`]: the
    /// sweep-line [`combine_points_into`] kernel on the thread-local
    /// scratch.
    fn combine(&self, other: &Curve, take_min: bool) -> Curve {
        record_op(OpKind::Combine);
        with_scratch(|s| {
            let final_slope = combine_points_into(
                (&self.points, self.final_slope),
                (&other.points, other.final_slope),
                take_min,
                &mut s.grid,
                &mut s.crossings,
                &mut s.xs,
                &mut s.work,
            );
            Curve::from_simplified_parts(s.work.clone(), final_slope)
        })
    }

    /// The pre-sweep [`Curve::min`] / [`Curve::max`]: candidate grid by
    /// concat + sort + dedup, every candidate evaluated through the
    /// binary-search [`Curve::eval`].  Retained verbatim as the
    /// differential-test oracle (the sweep kernel is pinned
    /// breakpoint-identical against it) and the "old" side of the E17
    /// microbenchmarks.
    pub(crate) fn combine_candidates(&self, other: &Curve, take_min: bool) -> Curve {
        let (mut xs, mut crossings, mut out) = (vec![], vec![], vec![]);
        let final_slope = combine_points_into_candidates(
            (&self.points, self.final_slope),
            (&other.points, other.final_slope),
            take_min,
            &mut xs,
            &mut crossings,
            &mut out,
        );
        Curve {
            points: out,
            final_slope,
        }
    }

    /// `true` when the curve is convex under *exact* slope comparisons:
    /// segment slopes non-decreasing left to right and the final slope at
    /// least the last segment's.  Convex operands convolve by slope merge
    /// in linear time (see [`crate::minplus::convolve`]); curves failing the
    /// exact test simply take the general path, so false negatives cost
    /// speed, never correctness.
    pub fn is_convex(&self) -> bool {
        let mut prev: Option<f64> = None;
        for w in self.points.windows(2) {
            let s = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            if prev.is_some_and(|p| s < p) {
                return false;
            }
            prev = Some(s);
        }
        prev.is_none_or(|p| self.final_slope >= p)
    }

    /// Truncates an **arrival** curve at `horizon_s` seconds: exact on
    /// `[0, horizon_s]`, continued beyond with the *steepest* remaining
    /// slope, so the result dominates `self` everywhere and is a valid
    /// (possibly looser) arrival curve.  The result carries at most one
    /// breakpoint more than `self` has inside the horizon — re-truncating
    /// after every propagation step provably caps breakpoint growth along
    /// a multi-hop chain, because each hop's output can only populate the
    /// fixed window `[0, horizon_s]`.
    pub fn truncate_arrival(&self, horizon_s: f64) -> Result<Curve, NcError> {
        if !horizon_s.is_finite() || horizon_s < 0.0 {
            return Err(NcError::InvalidCurve(format!(
                "invalid horizon {horizon_s}"
            )));
        }
        let (last_x, _) = *self.points.last().expect("non-empty");
        if horizon_s >= last_x {
            return Ok(self.clone());
        }
        let keep = self.points.partition_point(|&(x, _)| x <= horizon_s);
        // keep >= 1: the first breakpoint sits at x = 0 <= horizon_s.
        let mut points = self.points[..keep].to_vec();
        let mut tail_slope = self.final_slope;
        for w in self.points[keep - 1..].windows(2) {
            tail_slope = tail_slope.max((w[1].1 - w[0].1) / (w[1].0 - w[0].0));
        }
        let boundary = self.eval(horizon_s);
        if horizon_s > points.last().expect("non-empty").0 {
            points.push((horizon_s, boundary));
        }
        Ok(Curve {
            points: simplify_points(points, tail_slope),
            final_slope: tail_slope,
        })
    }

    /// Truncates a **service** curve at `horizon_s` seconds: exact on
    /// `[0, horizon_s]`, continued beyond with the *shallowest* remaining
    /// slope (clamped at zero), so the result lower-bounds `self`
    /// everywhere — up to the crate-wide [`EPS`] validity tolerance on
    /// nearly-flat noise segments — and stays a valid service curve, with
    /// the same at-most-one-extra-breakpoint bound as
    /// [`Curve::truncate_arrival`].
    pub fn truncate_service(&self, horizon_s: f64) -> Result<Curve, NcError> {
        if !horizon_s.is_finite() || horizon_s < 0.0 {
            return Err(NcError::InvalidCurve(format!(
                "invalid horizon {horizon_s}"
            )));
        }
        let (last_x, _) = *self.points.last().expect("non-empty");
        if horizon_s >= last_x {
            return Ok(self.clone());
        }
        let keep = self.points.partition_point(|&(x, _)| x <= horizon_s);
        let mut points = self.points[..keep].to_vec();
        let mut tail_slope = self.final_slope;
        for w in self.points[keep - 1..].windows(2) {
            tail_slope = tail_slope.min((w[1].1 - w[0].1) / (w[1].0 - w[0].0));
        }
        let tail_slope = tail_slope.max(0.0);
        let boundary = self.eval(horizon_s);
        if horizon_s > points.last().expect("non-empty").0 {
            points.push((horizon_s, boundary));
        }
        Ok(Curve {
            points: simplify_points(points, tail_slope),
            final_slope: tail_slope,
        })
    }

    /// Horizontal shift to the left by `delta` seconds:
    /// `g(t) = f(t + delta)` — the output-envelope propagation of an
    /// element with delay bound `delta` (every bit leaves at most `delta`
    /// after it entered, so the output is bounded by the input envelope
    /// read `delta` later).
    pub fn shift_left(&self, delta: f64) -> Result<Curve, NcError> {
        if delta < 0.0 || !delta.is_finite() {
            return Err(NcError::InvalidCurve(format!("invalid shift {delta}")));
        }
        if delta == 0.0 {
            return Ok(self.clone());
        }
        let mut points = vec![(0.0, self.eval(delta))];
        for &(x, y) in &self.points {
            if x > delta + 1e-15 {
                points.push((x - delta, y));
            }
        }
        Curve::simplified(points, self.final_slope)
    }

    /// The positive part of a vertical shift down: `g(t) = (f(t) − c)⁺`,
    /// with the level crossing inserted as an exact breakpoint.  This is
    /// the store-and-forward packetizer correction `[β − l]⁺` for general
    /// service curves.
    pub fn saturating_sub_const(&self, c: f64) -> Result<Curve, NcError> {
        if c < 0.0 || !c.is_finite() {
            return Err(NcError::InvalidCurve(format!("invalid offset {c}")));
        }
        if c == 0.0 {
            return Ok(self.clone());
        }
        let raw: Vec<(f64, f64)> = self.points.iter().map(|&(x, y)| (x, y - c)).collect();
        Ok(clamp_nonneg(&raw, self.final_slope))
    }

    /// Horizontal shift to the right by `delta` seconds:
    /// `g(t) = f((t − delta)⁺)` keeping `g(t) = f(0)`… actually for service
    /// curves the natural shift is `g(t) = f(t − delta)` for `t ≥ delta`,
    /// `0` below, which is what this returns.
    pub fn shift_right(&self, delta: f64) -> Result<Curve, NcError> {
        if delta < 0.0 || !delta.is_finite() {
            return Err(NcError::InvalidCurve(format!("invalid shift {delta}")));
        }
        if delta == 0.0 {
            return Ok(self.clone());
        }
        let mut points = vec![(0.0, 0.0)];
        if self.points[0].1 > 0.0 {
            // Keep the jump after the dead time.
            points.push((delta, 0.0));
        }
        for &(x, y) in &self.points {
            let nx = x + delta;
            if points
                .last()
                .map(|&(px, _)| nx > px + 1e-15)
                .unwrap_or(true)
            {
                points.push((nx, y));
            } else if let Some(last) = points.last_mut() {
                last.1 = y;
            }
        }
        Curve::simplified(points, self.final_slope)
    }

    /// The greatest convex function below the curve (the lower convex
    /// hull of its graph, tail ray included).
    ///
    /// A convex minorant of a service curve is itself a valid (possibly
    /// looser) service curve, and convex curves convolve in linear time —
    /// the pay-bursts-only-once composition uses this to keep the network
    /// curve small over long paths.
    pub fn convex_minorant(&self) -> Curve {
        // The tail is a ray of slope `final_slope`; the minorant follows
        // the lower hull of the breakpoints up to the ray's support point
        // (the breakpoint minimising y − slope·x) and continues with the
        // ray from there.
        let support = self
            .points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ka = a.1 - self.final_slope * a.0;
                let kb = b.1 - self.final_slope * b.0;
                ka.partial_cmp(&kb).expect("finite breakpoints")
            })
            .map(|(i, _)| i)
            .expect("curve has at least one breakpoint");
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(support + 1);
        for &p in &self.points[..=support] {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Keep the hull turning left (slopes non-decreasing).
                let cross = (b.0 - a.0) * (p.1 - a.1) - (p.0 - a.0) * (b.1 - a.1);
                if cross <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        Curve {
            points: simplify_points(hull, self.final_slope),
            final_slope: self.final_slope,
        }
    }

    /// `true` if the two curves are equal within [`EPS`] at every breakpoint
    /// of either curve and have the same final slope (within `EPS`).
    pub fn approx_eq(&self, other: &Curve) -> bool {
        if (self.final_slope - other.final_slope).abs() > EPS {
            return false;
        }
        merged_abscissas(self, other)
            .iter()
            .all(|&x| (self.eval(x) - other.eval(x)).abs() <= EPS.max(1e-9 * self.eval(x).abs()))
    }
}

/// `true` when the middle point lies on the segment joining its neighbours
/// (within [`EPS`] bits), i.e. it carries no information.
fn collinear_mid(p0: (f64, f64), p1: (f64, f64), p2: (f64, f64)) -> bool {
    let (x0, y0) = p0;
    let (x1, y1) = p1;
    let (x2, y2) = p2;
    let predicted = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0);
    (y1 - predicted).abs() <= EPS
}

/// `true` when the last breakpoint lies on the line the previous breakpoint
/// extends with `slope` (within [`EPS`] bits).
fn collinear_tail(prev: (f64, f64), last: (f64, f64), slope: f64) -> bool {
    (last.1 - (prev.1 + slope * (last.0 - prev.0))).abs() <= EPS
}

/// Owning [`simplify_points_in_place`]: removes redundant breakpoints and
/// returns the list.
pub(crate) fn simplify_points(mut points: Vec<(f64, f64)>, final_slope: f64) -> Vec<(f64, f64)> {
    simplify_points_in_place(&mut points, final_slope);
    points
}

/// The invariant [`Curve::new`] asserts in debug builds: no breakpoint is
/// redundant under the [`EPS`] collinearity tolerance.
fn is_simplified(points: &[(f64, f64)], final_slope: f64) -> bool {
    for w in points.windows(3) {
        if collinear_mid(w[0], w[1], w[2]) {
            return false;
        }
    }
    if points.len() >= 2
        && collinear_tail(
            points[points.len() - 2],
            points[points.len() - 1],
            final_slope,
        )
    {
        return false;
    }
    true
}

/// Owning, validating [`clamp_nonneg_into`]: builds a curve from a
/// non-decreasing raw breakpoint list whose leading ordinates may be
/// negative.
pub(crate) fn clamp_nonneg(raw: &[(f64, f64)], final_slope: f64) -> Curve {
    let mut out = Vec::with_capacity(raw.len() + 1);
    clamp_nonneg_into(raw, final_slope, &mut out);
    Curve::new(out, final_slope).expect("clamped non-decreasing breakpoints form a valid curve")
}

/// Owning [`merged_xs_concat_sort_into`]: the sorted, deduplicated union of
/// the breakpoint abscissas of two curves.
pub(crate) fn merged_abscissas(a: &Curve, b: &Curve) -> Vec<f64> {
    let mut xs = Vec::with_capacity(a.points.len() + b.points.len());
    merged_xs_concat_sort_into(&a.points, &b.points, &mut xs);
    xs
}

/// Slice-level [`Curve::eval`]: evaluates the piecewise-linear function
/// given by `points` + `final_slope` at `t` (`t < 0` clamped to 0).  Shared
/// verbatim by the owning method and the kernels so both perform the
/// identical arithmetic.
pub(crate) fn eval_points(points: &[(f64, f64)], final_slope: f64, t: f64) -> f64 {
    let t = t.max(0.0);
    let (last_x, last_y) = *points.last().expect("curve has at least one point");
    if t >= last_x {
        return last_y + final_slope * (t - last_x);
    }
    // Find the segment containing t.
    let idx = match points.binary_search_by(|&(x, _)| x.partial_cmp(&t).expect("finite abscissa")) {
        Ok(i) => return points[i].1,
        Err(i) => i,
    };
    // idx >= 1 because points[0].0 == 0.0 <= t.
    let (x0, y0) = points[idx - 1];
    let (x1, y1) = points[idx];
    y0 + (y1 - y0) * (t - x0) / (x1 - x0)
}

/// Slice-level slope just after abscissa `x`.
pub(crate) fn slope_after(points: &[(f64, f64)], final_slope: f64, x: f64) -> f64 {
    let (last_x, _) = *points.last().expect("non-empty");
    if x >= last_x {
        return final_slope;
    }
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x >= x0 && x < x1 {
            return (y1 - y0) / (x1 - x0);
        }
    }
    final_slope
}

/// Removes redundant breakpoints in place: near-duplicate abscissas
/// (keeping the later ordinate), interior points collinear with their
/// neighbours, and trailing points collinear with the final slope.  A
/// read/write cursor pair compacts the buffer; the write cursor never
/// overtakes the read cursor (each input element yields at most one output
/// element).
pub(crate) fn simplify_points_in_place(points: &mut Vec<(f64, f64)>, final_slope: f64) {
    let mut w = 0usize;
    for r in 0..points.len() {
        let p = points[r];
        if w > 0 {
            let last = points[w - 1];
            if p.0 - last.0 < 1e-15 {
                // Near-duplicate abscissa: keep the later ordinate.
                points[w - 1] = (last.0, p.1);
                continue;
            }
        }
        while w >= 2 && collinear_mid(points[w - 2], points[w - 1], p) {
            w -= 1;
        }
        points[w] = p;
        w += 1;
    }
    while w >= 2 && collinear_tail(points[w - 2], points[w - 1], final_slope) {
        w -= 1;
    }
    points.truncate(w);
}

/// Clamps a non-decreasing raw breakpoint list whose leading ordinates may
/// be negative at zero, with the level crossing inserted as an exact
/// breakpoint (in the linear tail too, when the whole list is negative but
/// the final slope eventually reaches zero).  Writes the clamped breakpoints
/// into `out` (cleared first) and simplifies them in place; the caller owns
/// turning `out` into a [`Curve`].
pub(crate) fn clamp_nonneg_into(raw: &[(f64, f64)], final_slope: f64, out: &mut Vec<(f64, f64)>) {
    out.clear();
    let mut prev: Option<(f64, f64)> = None;
    for &(x, y) in raw {
        if let Some((px, py)) = prev {
            if py < 0.0 && y > 0.0 {
                out.push((px + (0.0 - py) * (x - px) / (y - py), 0.0));
            }
        }
        out.push((x, y.max(0.0)));
        prev = Some((x, y));
    }
    let (last_x, last_y) = *raw.last().expect("non-empty raw breakpoints");
    if last_y < 0.0 && final_slope > 0.0 {
        out.push((last_x - last_y / final_slope, 0.0));
    }
    simplify_points_in_place(out, final_slope);
}

/// Scale-aware tolerance for deduplicating two nearby candidate abscissas
/// `a` and `b` (seconds): one part in 10⁹ of their magnitude, capped at the
/// absolute `1e-12` floor the breakpoint grids use.  At the campaign's
/// millisecond-to-second abscissas this is exactly the historical `1e-12`,
/// but nanosecond-scale abscissas get a proportionally finer tolerance
/// (`1e-18` at `1e-9` seconds) instead of being spuriously merged three
/// decades above their resolution.
pub(crate) fn candidate_eps(a: f64, b: f64) -> f64 {
    (1e-12f64).min(1e-9 * a.abs().max(b.abs()))
}

/// A forward-only evaluation cursor over a breakpoint list: bitwise mirror
/// of [`eval_points`] for non-decreasing query sequences, advancing a
/// remembered segment index instead of binary-searching per query.  Every
/// branch (exact hit, linear tail, interior interpolation) performs the
/// identical float arithmetic on the identical operands.
pub(crate) struct CurveCursor<'a> {
    points: &'a [(f64, f64)],
    final_slope: f64,
    seg: usize,
}

impl<'a> CurveCursor<'a> {
    /// A cursor at the origin of `points`.
    pub(crate) fn new(points: &'a [(f64, f64)], final_slope: f64) -> Self {
        CurveCursor {
            points,
            final_slope,
            seg: 0,
        }
    }

    /// Evaluates at `t`.  Queries must be non-decreasing (callers pass
    /// sorted grids); the cursor only ever advances.
    pub(crate) fn eval(&mut self, t: f64) -> f64 {
        let t = t.max(0.0);
        let (last_x, last_y) = *self.points.last().expect("curve has at least one point");
        if t >= last_x {
            return last_y + self.final_slope * (t - last_x);
        }
        while self.points[self.seg].0 < t {
            self.seg += 1;
        }
        let (x1, y1) = self.points[self.seg];
        if x1 == t {
            // Exact breakpoint hit: the stored ordinate, like the Ok arm of
            // the binary search.
            return y1;
        }
        // seg >= 1 because points[0].0 == 0.0 <= t < points[seg].0.
        let (x0, y0) = self.points[self.seg - 1];
        y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    }
}

/// Forward-only mirror of [`Curve::inverse`] for (mostly) non-decreasing
/// query ordinates: resumes the window scan where the previous query
/// matched instead of rescanning from the origin.  A query below its
/// predecessor (possible at EPS-level noise on nearly-flat curves) rewinds
/// to the start, so every answer is bitwise identical to the fresh scan.
pub(crate) struct InverseCursor<'a> {
    points: &'a [(f64, f64)],
    final_slope: f64,
    win: usize,
    last_y: f64,
}

impl<'a> InverseCursor<'a> {
    /// A cursor over `points` with the scan window at the origin.
    pub(crate) fn new(points: &'a [(f64, f64)], final_slope: f64) -> Self {
        InverseCursor {
            points,
            final_slope,
            win: 0,
            last_y: f64::NEG_INFINITY,
        }
    }

    /// The smallest `t` with `f(t) ≥ y`, exactly as [`Curve::inverse`].
    pub(crate) fn inverse(&mut self, y: f64) -> Option<f64> {
        if y < self.last_y {
            self.win = 0;
        }
        self.last_y = y;
        if y <= self.points[0].1 + EPS {
            return Some(0.0);
        }
        // Windows before `win` failed `y' <= y1 + EPS` for some y' <= y, so
        // they fail for y too: the first satisfying window is never behind
        // the cursor.
        while self.win + 1 < self.points.len() {
            let (x0, y0) = self.points[self.win];
            let (x1, y1) = self.points[self.win + 1];
            if y <= y1 + EPS {
                if (y1 - y0).abs() < EPS {
                    return Some(x1.min(x0));
                }
                let t = x0 + (y - y0) * (x1 - x0) / (y1 - y0);
                return Some(t.clamp(x0, x1));
            }
            self.win += 1;
        }
        let (last_x, last_y) = *self.points.last().expect("non-empty");
        if y <= last_y + EPS {
            return Some(last_x);
        }
        if self.final_slope <= 0.0 {
            return None;
        }
        Some(last_x + (y - last_y) / self.final_slope)
    }
}

/// Forward-only mirror of [`Curve::inverse_upper`], with the same
/// resume-or-rewind discipline as [`InverseCursor`].
pub(crate) struct InverseUpperCursor<'a> {
    points: &'a [(f64, f64)],
    final_slope: f64,
    win: usize,
    last_y: f64,
}

impl<'a> InverseUpperCursor<'a> {
    /// A cursor over `points` with the scan window at the origin.
    pub(crate) fn new(points: &'a [(f64, f64)], final_slope: f64) -> Self {
        InverseUpperCursor {
            points,
            final_slope,
            win: 0,
            last_y: f64::NEG_INFINITY,
        }
    }

    /// `inf { x : f(x) > y }`, exactly as [`Curve::inverse_upper`].
    pub(crate) fn inverse_upper(&mut self, y: f64) -> Option<f64> {
        if y < self.last_y {
            self.win = 0;
        }
        self.last_y = y;
        if self.points[0].1 > y + EPS {
            return Some(0.0);
        }
        while self.win + 1 < self.points.len() {
            let (x0, y0) = self.points[self.win];
            let (x1, y1) = self.points[self.win + 1];
            if y1 > y + EPS {
                if (y1 - y0).abs() < EPS {
                    return Some(x0);
                }
                let t = x0 + (y - y0).max(0.0) * (x1 - x0) / (y1 - y0);
                return Some(t.clamp(x0, x1));
            }
            self.win += 1;
        }
        let (last_x, last_y) = *self.points.last().expect("non-empty");
        if self.final_slope <= 0.0 {
            return None;
        }
        Some(last_x + (y - last_y).max(0.0) / self.final_slope)
    }
}

/// The historical merged-abscissa construction: concat both breakpoint
/// lists, sort, dedup within an absolute `1e-12`.  Retained for the oracle
/// paths (the candidates combine kernel and [`merged_abscissas`]) so they
/// stay verbatim.
pub(crate) fn merged_xs_concat_sort_into(a: &[(f64, f64)], b: &[(f64, f64)], xs: &mut Vec<f64>) {
    xs.clear();
    xs.extend(a.iter().chain(b.iter()).map(|&(x, _)| x));
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
}

/// Two-pointer [`merged_xs_concat_sort_into`]: the union of two
/// *individually sorted* breakpoint lists' abscissas without the sort.
/// Ties take the first list's element first (what the stable sort of the
/// concatenation did) and the keep-first `1e-12` dedup is applied against
/// the last kept value (what `Vec::dedup_by` did), so the output is
/// element-for-element identical.
pub(crate) fn merged_xs_two_pointer_into(a: &[(f64, f64)], b: &[(f64, f64)], xs: &mut Vec<f64>) {
    xs.clear();
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let x = match (a.get(i), b.get(j)) {
            (Some(&(xa, _)), Some(&(xb, _))) => {
                if xa <= xb {
                    i += 1;
                    xa
                } else {
                    j += 1;
                    xb
                }
            }
            (Some(&(xa, _)), None) => {
                i += 1;
                xa
            }
            (None, Some(&(xb, _))) => {
                j += 1;
                xb
            }
            (None, None) => break,
        };
        if xs.last().is_none_or(|&last| (x - last).abs() >= 1e-12) {
            xs.push(x);
        }
    }
}

/// Merges the sorted base grid with the sorted crossing abscissas into
/// `out`, base values first on exact ties (they preceded the crossings in
/// the concatenation the stable sort saw), dropping any value within
/// `1e-12` of the last kept one.
pub(crate) fn merge_grids_into(base: &[f64], extra: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let x = match (base.get(i), extra.get(j)) {
            (Some(&xb), Some(&xe)) => {
                if xb <= xe {
                    i += 1;
                    xb
                } else {
                    j += 1;
                    xe
                }
            }
            (Some(&xb), None) => {
                i += 1;
                xb
            }
            (None, Some(&xe)) => {
                j += 1;
                xe
            }
            (None, None) => break,
        };
        if out.last().is_none_or(|&last| (x - last).abs() >= 1e-12) {
            out.push(x);
        }
    }
}

/// Sweep-line combine kernel on raw `(breakpoints, final_slope)` pairs:
/// computes `min`/`max` of `a` and `b` into `out` and returns the result's
/// final slope.  Replaces the historical concat-sort-dedup candidate pass
/// with two-pointer merges and forward-only cursors — O(n+m) instead of
/// O((n+m)·log(n+m)) with a binary search per candidate — while keeping
/// every comparison and float expression identical to
/// [`combine_points_into_candidates`]; the differential property tests pin
/// the two breakpoint-for-breakpoint.
pub(crate) fn combine_points_into(
    a: (&[(f64, f64)], f64),
    b: (&[(f64, f64)], f64),
    take_min: bool,
    grid: &mut Vec<f64>,
    crossings: &mut Vec<f64>,
    xs: &mut Vec<f64>,
    out: &mut Vec<(f64, f64)>,
) -> f64 {
    let (ap, a_slope) = a;
    let (bp, b_slope) = b;
    merged_xs_two_pointer_into(ap, bp, grid);
    // Tail crossing beyond the last breakpoint of either curve — checked
    // on the *breakpoint* grid before the interior crossings are appended
    // (see the regression note on the candidates kernel).
    let last = *grid.last().expect("non-empty");
    let da = eval_points(ap, a_slope, last) - eval_points(bp, b_slope, last);
    let ds = slope_after(ap, a_slope, last) - slope_after(bp, b_slope, last);
    let tail_cross = (da.abs() > EPS && ds.abs() > EPS && da.signum() != ds.signum())
        .then(|| last + da.abs() / ds.abs());
    // Interior crossings, walking the grid once with forward cursors: the
    // per-window differences are the same values the candidates kernel
    // recomputes per endpoint, and the crossing formula is verbatim.
    crossings.clear();
    let mut ca = CurveCursor::new(ap, a_slope);
    let mut cb = CurveCursor::new(bp, b_slope);
    let mut prev: Option<(f64, f64)> = None;
    for &x in grid.iter() {
        let d = ca.eval(x) - cb.eval(x);
        if let Some((x0, d0)) = prev {
            if (d0 > EPS && d < -EPS) || (d0 < -EPS && d > EPS) {
                crossings.push(x0 + (x - x0) * d0.abs() / (d0.abs() + d.abs()));
            }
        }
        prev = Some((x, d));
    }
    crossings.extend(tail_cross);
    merge_grids_into(grid, crossings, xs);
    let pick = if take_min { f64::min } else { f64::max };
    let mut ca = CurveCursor::new(ap, a_slope);
    let mut cb = CurveCursor::new(bp, b_slope);
    out.clear();
    for &x in xs.iter() {
        out.push((x, pick(ca.eval(x), cb.eval(x))));
    }
    let final_slope = pick(a_slope, b_slope);
    simplify_points_in_place(out, final_slope);
    final_slope
}

/// The pre-sweep combine kernel, verbatim: candidate grid built by
/// concat, sort and dedup, every candidate evaluated through the
/// binary-search [`eval_points`].  Retained as the differential-test
/// oracle and the "old" side of the E17 microbenchmarks.
///
/// The tail crossing is checked on the breakpoint grid *before* interior
/// crossings are appended (they are unsorted and all lie strictly inside
/// it, so consulting `xs.last()` after the extend would inspect the wrong
/// point and miss genuine tail crossings — a past regression made `min()`
/// dip below both operands).
pub(crate) fn combine_points_into_candidates(
    a: (&[(f64, f64)], f64),
    b: (&[(f64, f64)], f64),
    take_min: bool,
    xs: &mut Vec<f64>,
    crossings: &mut Vec<f64>,
    out: &mut Vec<(f64, f64)>,
) -> f64 {
    let (ap, a_slope) = a;
    let (bp, b_slope) = b;
    merged_xs_concat_sort_into(ap, bp, xs);
    let last = *xs.last().expect("non-empty");
    let da = eval_points(ap, a_slope, last) - eval_points(bp, b_slope, last);
    let ds = slope_after(ap, a_slope, last) - slope_after(bp, b_slope, last);
    let tail_cross = (da.abs() > EPS && ds.abs() > EPS && da.signum() != ds.signum())
        .then(|| last + da.abs() / ds.abs());
    crossings.clear();
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        let d0 = eval_points(ap, a_slope, x0) - eval_points(bp, b_slope, x0);
        let d1 = eval_points(ap, a_slope, x1) - eval_points(bp, b_slope, x1);
        if (d0 > EPS && d1 < -EPS) || (d0 < -EPS && d1 > EPS) {
            let t = x0 + (x1 - x0) * d0.abs() / (d0.abs() + d1.abs());
            crossings.push(t);
        }
    }
    xs.extend_from_slice(crossings);
    xs.extend(tail_cross);
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let pick = if take_min { f64::min } else { f64::max };
    out.clear();
    out.extend(xs.iter().map(|&x| {
        (
            x,
            pick(eval_points(ap, a_slope, x), eval_points(bp, b_slope, x)),
        )
    }));
    let final_slope = pick(a_slope, b_slope);
    simplify_points_in_place(out, final_slope);
    final_slope
}

/// Two-pointer [`Curve::add`] kernel: merged grid plus cursor evaluations,
/// written into `out`.  Returns the sum's final slope.
pub(crate) fn add_points_into(
    a: (&[(f64, f64)], f64),
    b: (&[(f64, f64)], f64),
    xs: &mut Vec<f64>,
    out: &mut Vec<(f64, f64)>,
) -> f64 {
    let (ap, a_slope) = a;
    let (bp, b_slope) = b;
    merged_xs_two_pointer_into(ap, bp, xs);
    let mut ca = CurveCursor::new(ap, a_slope);
    let mut cb = CurveCursor::new(bp, b_slope);
    out.clear();
    for &x in xs.iter() {
        out.push((x, ca.eval(x) + cb.eval(x)));
    }
    let final_slope = a_slope + b_slope;
    simplify_points_in_place(out, final_slope);
    final_slope
}

/// Two-pointer [`Curve::sub_envelope`] kernel — the "aggregate minus own
/// flow" split done in a single merge, written into `out`.  Returns the
/// difference's final slope.
pub(crate) fn sub_envelope_points_into(
    a: (&[(f64, f64)], f64),
    b: (&[(f64, f64)], f64),
    xs: &mut Vec<f64>,
    out: &mut Vec<(f64, f64)>,
) -> f64 {
    let (ap, a_slope) = a;
    let (bp, b_slope) = b;
    merged_xs_two_pointer_into(ap, bp, xs);
    let mut ca = CurveCursor::new(ap, a_slope);
    let mut cb = CurveCursor::new(bp, b_slope);
    out.clear();
    let mut prev = 0.0_f64;
    for &x in xs.iter() {
        let y = (ca.eval(x) - cb.eval(x)).max(prev).max(0.0);
        out.push((x, y));
        prev = y;
    }
    let final_slope = (a_slope - b_slope).max(0.0);
    simplify_points_in_place(out, final_slope);
    final_slope
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_curve_evaluation() {
        // 512 bits of burst at 25.6 kbps.
        let c = Curve::affine(512.0, 25_600.0).unwrap();
        assert_eq!(c.eval(0.0), 512.0);
        assert!((c.eval(1.0) - 26_112.0).abs() < EPS);
        assert!((c.eval(0.02) - (512.0 + 512.0)).abs() < EPS);
        assert_eq!(c.eval(-3.0), 512.0);
    }

    #[test]
    fn rate_latency_evaluation() {
        let c = Curve::rate_latency(10_000_000.0, 0.000_016).unwrap();
        assert_eq!(c.eval(0.0), 0.0);
        assert_eq!(c.eval(0.000_016), 0.0);
        assert!((c.eval(0.001_016) - 10_000.0).abs() < 1e-3);
        // Zero latency degenerates to a pure rate curve.
        let c0 = Curve::rate_latency(5.0, 0.0).unwrap();
        assert!((c0.eval(2.0) - 10.0).abs() < EPS);
    }

    #[test]
    fn staircase_hugs_the_periodic_release_pattern() {
        // 512 bits every 20 ms, risers at 10 Mbps (51.2 µs wide).
        let st = Curve::staircase(512.0, 0.02, 8, 10_000_000.0).unwrap();
        let tb = Curve::affine(512.0, 25_600.0).unwrap();
        // At every step instant the staircase has released k+1 bursts and
        // touches the token bucket exactly.
        for k in 0..=8u32 {
            let t = k as f64 * 0.02;
            assert!((st.eval(t) - 512.0 * (k as f64 + 1.0)).abs() < EPS, "k={k}");
            assert!((st.eval(t) - tb.eval(t)).abs() < EPS, "k={k}");
        }
        // In the flat part of a step it sits strictly below the token
        // bucket (that's the whole point).
        assert!(st.eval(0.01) + 100.0 < tb.eval(0.01));
        assert!((st.eval(0.01) - 512.0).abs() < EPS);
        // Beyond the covered steps it continues at the average rate —
        // i.e. exactly the token bucket.
        assert!((st.eval(0.18) - tb.eval(0.18)).abs() < 1e-3);
        // It never exceeds the token bucket anywhere.
        for i in 0..400 {
            let t = i as f64 * 0.001;
            assert!(st.eval(t) <= tb.eval(t) + EPS, "t={t}");
        }
        // A peak rate at or below the average rate degenerates to the
        // token bucket.
        let degenerate = Curve::staircase(512.0, 0.02, 8, 20_000.0).unwrap();
        assert!(degenerate.approx_eq(&tb));
    }

    #[test]
    fn staircase_upper_bounds_the_instantaneous_release() {
        // Frames of b bits released instantly at 0, T, 2T, … — the envelope
        // must dominate the closed-window count b·(⌊t/T⌋ + 1).
        let (b, t_period) = (1022.0 * 8.0, 0.016);
        let st = Curve::staircase(b, t_period, 12, 100_000_000.0).unwrap();
        for i in 0..2000 {
            let t = i as f64 * 1e-4;
            let released = b * ((t / t_period).floor() + 1.0);
            assert!(
                st.eval(t) + 1e-6 >= released,
                "t={t}: {} < {released}",
                st.eval(t)
            );
        }
    }

    #[test]
    fn constructor_rejects_invalid_curves() {
        assert!(Curve::new(vec![], 1.0).is_err());
        assert!(Curve::new(vec![(1.0, 0.0)], 1.0).is_err());
        assert!(Curve::new(vec![(0.0, 0.0), (0.0, 1.0)], 1.0).is_err());
        assert!(Curve::new(vec![(0.0, 2.0), (1.0, 1.0)], 1.0).is_err());
        assert!(Curve::new(vec![(0.0, 0.0)], -1.0).is_err());
        assert!(Curve::new(vec![(0.0, 0.0)], f64::NAN).is_err());
        assert!(Curve::affine(-1.0, 1.0).is_err());
        assert!(Curve::rate_latency(1.0, -0.1).is_err());
        assert!(Curve::staircase(1.0, 0.0, 3, 10.0).is_err());
        assert!(Curve::staircase(1.0, 1.0, 3, -1.0).is_err());
        assert!(Curve::staircase(-1.0, 1.0, 3, 10.0).is_err());
    }

    #[test]
    fn inverse_of_affine_and_rate_latency() {
        let a = Curve::affine(100.0, 50.0).unwrap();
        assert_eq!(a.inverse(100.0), Some(0.0));
        assert!((a.inverse(200.0).unwrap() - 2.0).abs() < 1e-9);
        let b = Curve::rate_latency(50.0, 1.0).unwrap();
        assert_eq!(b.inverse(0.0), Some(0.0));
        assert!((b.inverse(100.0).unwrap() - 3.0).abs() < 1e-9);
        // A flat curve never reaches values above its plateau.
        let flat = Curve::new(vec![(0.0, 0.0), (1.0, 5.0)], 0.0).unwrap();
        assert_eq!(flat.inverse(6.0), None);
        assert!((flat.inverse(5.0).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn add_two_token_buckets() {
        let a = Curve::affine(100.0, 10.0).unwrap();
        let b = Curve::affine(50.0, 5.0).unwrap();
        let s = a.add(&b);
        assert!((s.eval(0.0) - 150.0).abs() < EPS);
        assert!((s.eval(2.0) - 180.0).abs() < EPS);
        assert!((s.final_slope() - 15.0).abs() < EPS);
    }

    #[test]
    fn min_of_token_bucket_and_staircase_is_tighter() {
        let tb = Curve::affine(512.0, 25_600.0).unwrap();
        let st = Curve::staircase(512.0, 0.02, 8, 10_000_000.0).unwrap();
        let m = tb.min(&st);
        for &t in &[0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 1.0] {
            let expect = tb.eval(t).min(st.eval(t));
            assert!(
                (m.eval(t) - expect).abs() < 1e-3,
                "min mismatch at t={t}: {} vs {}",
                m.eval(t),
                expect
            );
        }
    }

    #[test]
    fn min_detects_crossing_inside_segment() {
        // a starts below b but grows faster; they cross at t = 10.
        let a = Curve::affine(0.0, 2.0).unwrap();
        let b = Curve::affine(10.0, 1.0).unwrap();
        let m = a.min(&b);
        assert!((m.eval(5.0) - 10.0).abs() < 1e-9);
        assert!((m.eval(10.0) - 20.0).abs() < 1e-9);
        assert!((m.eval(20.0) - 30.0).abs() < 1e-9);
        assert!((m.final_slope() - 1.0).abs() < EPS);
    }

    #[test]
    fn shift_right_adds_dead_time() {
        let c = Curve::rate_latency(100.0, 0.5).unwrap();
        let s = c.shift_right(0.5).unwrap();
        assert_eq!(s.eval(0.9), 0.0);
        assert!((s.eval(2.0) - 100.0).abs() < 1e-9);
        assert!(c.shift_right(-1.0).is_err());
        assert!(c.shift_right(0.0).unwrap().approx_eq(&c));
    }

    #[test]
    fn simplify_removes_collinear_and_tail_breakpoints() {
        let redundant = vec![(0.0, 0.0), (1.0, 10.0), (2.0, 20.0), (3.0, 25.0)];
        let simplified = simplify_points(redundant, 5.0);
        // (1, 10) is collinear between (0,0) and (2,20); (3,25) is collinear
        // with the final slope 5 from (2,20).
        assert_eq!(simplified, vec![(0.0, 0.0), (2.0, 20.0)]);
        assert!(is_simplified(&simplified, 5.0));
        // A curve built by min/add is already simplified.
        let a = Curve::affine(10.0, 5.0).unwrap();
        let b = Curve::affine(10.0, 5.0).unwrap();
        let s = a.add(&b);
        assert_eq!(s.points().len(), 1);
        assert!(s.min(&a).approx_eq(&a));
        // simplify() is idempotent and value-preserving.
        let st = Curve::staircase(512.0, 0.02, 4, 10_000_000.0).unwrap();
        assert!(st.simplify().approx_eq(&st));
    }

    #[test]
    fn combine_catches_the_tail_crossing_after_an_interior_crossing() {
        // a starts below b, overtakes it inside the breakpoint grid
        // (t = 2/3), then b overtakes a again in the linear tails (t = 2).
        // The tail check must run on the true last breakpoint, not on the
        // appended interior-crossing abscissa — a regression here made
        // min() dip below both operands (an unsound envelope).
        let a = Curve::new(vec![(0.0, 0.0), (1.0, 3.0)], 1.0).unwrap();
        let b = Curve::affine(1.0, 1.5).unwrap();
        let lo = a.min(&b);
        let hi = a.max(&b);
        for i in 0..80 {
            let t = i as f64 * 0.05;
            let (va, vb) = (a.eval(t), b.eval(t));
            assert!(
                (lo.eval(t) - va.min(vb)).abs() < 1e-9,
                "min wrong at t={t}: {} vs {}",
                lo.eval(t),
                va.min(vb)
            );
            assert!(
                (hi.eval(t) - va.max(vb)).abs() < 1e-9,
                "max wrong at t={t}: {} vs {}",
                hi.eval(t),
                va.max(vb)
            );
        }
        // The reviewer's concrete repro: the true minimum at t = 1.1.
        assert!((lo.eval(1.1) - 2.65).abs() < 1e-9);
    }

    #[test]
    fn max_is_the_upper_envelope() {
        // a starts below b but grows faster; they cross at t = 10.
        let a = Curve::affine(0.0, 2.0).unwrap();
        let b = Curve::affine(10.0, 1.0).unwrap();
        let m = a.max(&b);
        assert!((m.eval(0.0) - 10.0).abs() < 1e-9);
        assert!((m.eval(5.0) - 15.0).abs() < 1e-9);
        assert!((m.eval(10.0) - 20.0).abs() < 1e-9);
        assert!((m.eval(20.0) - 40.0).abs() < 1e-9);
        assert!((m.final_slope() - 2.0).abs() < EPS);
        // min and max bracket both operands everywhere.
        let lo = a.min(&b);
        for i in 0..50 {
            let t = i as f64 * 0.5;
            assert!(lo.eval(t) <= a.eval(t) + EPS && a.eval(t) <= m.eval(t) + EPS);
            assert!(lo.eval(t) <= b.eval(t) + EPS && b.eval(t) <= m.eval(t) + EPS);
        }
    }

    #[test]
    fn shift_left_reads_the_curve_later() {
        let st = Curve::staircase(512.0, 0.02, 8, 10_000_000.0).unwrap();
        let shifted = st.shift_left(0.005).unwrap();
        for i in 0..100 {
            let t = i as f64 * 0.002;
            assert!((shifted.eval(t) - st.eval(t + 0.005)).abs() < 1e-6, "t={t}");
        }
        assert!(st.shift_left(0.0).unwrap().approx_eq(&st));
        assert!(st.shift_left(-1.0).is_err());
        // Shifting past every breakpoint leaves the linear tail.
        let tail = st.shift_left(1.0).unwrap();
        assert_eq!(tail.points().len(), 1);
        assert!((tail.eval(0.0) - st.eval(1.0)).abs() < 1e-6);
    }

    #[test]
    fn saturating_sub_const_inserts_the_level_crossing() {
        let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
        // [β − l]⁺ for a rate-latency curve adds l/R of latency.
        let corrected = beta.saturating_sub_const(8_000.0).unwrap();
        let expect = Curve::rate_latency(10_000_000.0, 16e-6 + 8e-4).unwrap();
        assert!(corrected.approx_eq(&expect), "{corrected:?}");
        // Subtracting more than a flat curve ever reaches yields zero.
        let flat = Curve::new(vec![(0.0, 0.0), (1.0, 5.0)], 0.0).unwrap();
        assert!(flat
            .saturating_sub_const(10.0)
            .unwrap()
            .approx_eq(&Curve::zero()));
        assert!(beta.saturating_sub_const(0.0).unwrap().approx_eq(&beta));
        assert!(beta.saturating_sub_const(-1.0).is_err());
    }

    #[test]
    fn sub_envelope_recovers_the_other_summand() {
        let a = Curve::staircase(512.0, 0.02, 8, 10_000_000.0).unwrap();
        let b = Curve::affine(100.0, 40_000.0).unwrap();
        let sum = a.add(&b);
        let back = sum.sub_envelope(&b);
        for i in 0..100 {
            let t = i as f64 * 0.003;
            assert!((back.eval(t) - a.eval(t)).abs() < 1e-6, "t={t}");
        }
        assert!((back.final_slope() - a.final_slope()).abs() < EPS);
    }

    #[test]
    fn approx_eq_detects_differences() {
        let a = Curve::affine(100.0, 10.0).unwrap();
        let b = Curve::affine(100.0, 10.0).unwrap();
        let c = Curve::affine(101.0, 10.0).unwrap();
        assert!(a.approx_eq(&b));
        assert!(!a.approx_eq(&c));
    }
}
