//! Min-plus operations on piecewise-linear curves: the horizontal
//! deviation, convolution and the left-over service curve.
//!
//! Only the operations actually needed by the delay analysis are provided,
//! and all of them are exact for the curve shapes used in this workspace
//! (concave arrival curves with a jump at the origin, convex service curves
//! with a dead time).  The deviation is written for *any* non-decreasing
//! piecewise-linear curves, evaluating candidates on the union of
//! breakpoints and handling the linear tails analytically.
//!
//! Each operator has exactly one public entry point: [`convolve`],
//! [`leftover`] and [`horizontal_deviation`] here, and [`Curve::add`],
//! [`Curve::sub_envelope`] and [`Curve::min`] on the curve type.  Each
//! records its operator in [`crate::counters`] and runs its slice-level
//! kernel on the calling thread's scratch buffers.  [`leftover_within`] chains the
//! `sub_envelope` and `leftover` kernels on those buffers and records
//! both.  [`mod@reference`] keeps the candidate-enumeration oracles the
//! kernels are pinned against.

use crate::arena::with_scratch;
use crate::arrival::TokenBucket;
use crate::counters::{record_op, OpKind};
use crate::curve::{
    clamp_nonneg_into, combine_points_into, for_each_merged_x, simplify_points_in_place,
    sub_envelope_points_into, Curve, CurveCursor, InverseCursor, InverseUpperCursor, EPS,
};
use crate::service::RateLatency;
use crate::NcError;

/// The horizontal deviation `h(α, β) = sup_{t ≥ 0} inf { d ≥ 0 : α(t) ≤ β(t + d) }`
/// in seconds — the worst-case delay of a flow with arrival curve `α` served
/// with service curve `β` (FIFO per flow).
///
/// `tail`, when given, is a token bucket at or above `α` and a rate-latency
/// curve at or below `β`.  The deviation then stops at the first candidate
/// abscissa `t` where [`tail_bound`] falls below the largest delay found so
/// far: no candidate from `t` on can reach it, so the result is the same
/// value, bit for bit, as without `tail`.
///
/// Returns [`NcError::Unstable`] when the long-term arrival rate exceeds the
/// long-term service rate (the deviation would be unbounded).
///
/// ```
/// use netcalc::curve::Curve;
/// use netcalc::minplus::horizontal_deviation;
/// use netcalc::{RateLatency, TokenBucket};
/// use units::{DataRate, DataSize, Duration};
///
/// // Token bucket (10 kbit burst, 1 Mbps) through a 10 Mbps / 16 µs server:
/// // Cruz's closed form is T + b/R = 16 µs + 1 ms.
/// let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
/// let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
/// let h = horizontal_deviation(&alpha, &beta, None).unwrap();
/// assert!((h - 0.001_016).abs() < 1e-12);
///
/// // The same deviation, allowed to stop once the operands' closed forms
/// // rule out every later candidate.
/// let bucket = TokenBucket::new(DataSize::from_bits(10_000), DataRate::from_mbps(1));
/// let server = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
/// let early = horizontal_deviation(&alpha, &beta, Some((&bucket, &server))).unwrap();
/// assert_eq!(early.to_bits(), h.to_bits());
///
/// // An overloaded server has no finite bound.
/// let flood = Curve::affine(0.0, 20_000_000.0).unwrap();
/// assert!(horizontal_deviation(&flood, &beta, None).is_err());
/// ```
pub fn horizontal_deviation(
    alpha: &Curve,
    beta: &Curve,
    tail: Option<(&TokenBucket, &RateLatency)>,
) -> Result<f64, NcError> {
    record_op(OpKind::HorizontalDeviation);
    with_scratch(|s| horizontal_deviation_into(alpha, beta, tail, &mut s.candidates))
}

/// Kernel of [`horizontal_deviation`] on a caller-provided candidate
/// buffer.
///
/// Candidate abscissas: α's breakpoints, plus the abscissas where α reaches
/// the ordinate of one of β's breakpoints (the pseudo-inverse of a
/// breakpoint ordinate), plus β's last abscissa (beyond the last
/// breakpoints of both curves the deviation is non-increasing once
/// stability holds).  In between candidates both α(t) and β⁻¹(α(t)) are
/// affine in t, so the deviation is affine and its maximum over each
/// interval is attained at an endpoint.
///
/// The candidates are produced lazily in ascending order by merging the
/// three streams: the inverses ascend whenever β's ordinates do, because
/// [`InverseCursor`] is monotone in its query.  When β's ordinates do not
/// ascend (EPS-level noise), the candidates are collected and sorted
/// first.  Each candidate is evaluated with forward-only cursors
/// ([`CurveCursor`], [`InverseUpperCursor`]) that perform the arithmetic of
/// [`Curve::eval`] and [`Curve::inverse_upper`]; the maximum is
/// evaluation-order independent, so the result is bitwise that of
/// [`reference::horizontal_deviation`] (pinned by the differential
/// proptests).
fn horizontal_deviation_into(
    alpha: &Curve,
    beta: &Curve,
    tail: Option<(&TokenBucket, &RateLatency)>,
    candidates: &mut Vec<f64>,
) -> Result<f64, NcError> {
    if alpha.long_term_rate() > beta.long_term_rate() + EPS {
        return Err(NcError::Unstable {
            context: "horizontal deviation".into(),
            demand_bps: alpha.long_term_rate().ceil() as u64,
            capacity_bps: beta.long_term_rate().floor() as u64,
        });
    }
    let (ap, bp) = (alpha.points(), beta.points());
    let last = bp.last().map(|&(bx, _)| bx);
    if bp.windows(2).all(|w| w[0].1 <= w[1].1) {
        let mut inv = InverseCursor::new(ap, alpha.final_slope());
        let inverses = bp.iter().filter_map(|&(_, by)| inv.inverse(by));
        let sorted = MergeAscending::new(ap.iter().map(|&(x, _)| x), inverses, last);
        return deviation_sweep(alpha, beta, tail, sorted);
    }
    candidates.clear();
    candidates.extend(ap.iter().map(|&(x, _)| x));
    let mut inv = InverseCursor::new(ap, alpha.final_slope());
    candidates.extend(bp.iter().filter_map(|&(_, by)| inv.inverse(by)));
    candidates.extend(last);
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    deviation_sweep(alpha, beta, tail, candidates.iter().copied())
}

/// The largest deviation over ascending candidate abscissas, stopping
/// before the first candidate `t` whose [`tail_bound`] is below it.
fn deviation_sweep(
    alpha: &Curve,
    beta: &Curve,
    tail: Option<(&TokenBucket, &RateLatency)>,
    sorted: impl Iterator<Item = f64>,
) -> Result<f64, NcError> {
    let mut av = CurveCursor::new(alpha.points(), alpha.final_slope());
    let mut binv = InverseUpperCursor::new(beta.points(), beta.final_slope());
    let mut worst: f64 = 0.0;
    for t in sorted {
        if tail.is_some_and(|(bucket, server)| tail_bound(bucket, server, t) < worst - 1e-12) {
            break;
        }
        let a = av.eval(t);
        // Use the *upper* pseudo-inverse of β: a bit arriving when the
        // arrival curve reads `a` may wait until the end of any plateau of β
        // at level `a` (e.g. the full dead time of a rate-latency curve even
        // when `a = 0`).  This makes the computed value the true supremum
        // for the concave-arrival / convex-service pairs used here, and a
        // safe over-approximation otherwise.
        let d = match binv.inverse_upper(a) {
            Some(x) => (x - t).max(0.0),
            None => {
                // β never reaches α(t): only possible if β is eventually flat
                // while α keeps a value above the plateau — unbounded delay.
                return Err(NcError::Unstable {
                    context: "service curve plateaus below arrival curve".into(),
                    demand_bps: alpha.long_term_rate().ceil() as u64,
                    capacity_bps: beta.long_term_rate().floor() as u64,
                });
            }
        };
        if d > worst {
            worst = d;
        }
    }
    Ok(worst)
}

/// Two ascending streams and one extra value, merged in ascending order.
struct MergeAscending<A: Iterator<Item = f64>, B: Iterator<Item = f64>> {
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
    extra: Option<f64>,
}

impl<A: Iterator<Item = f64>, B: Iterator<Item = f64>> MergeAscending<A, B> {
    fn new(a: A, b: B, extra: Option<f64>) -> Self {
        MergeAscending {
            a: a.peekable(),
            b: b.peekable(),
            extra,
        }
    }
}

impl<A: Iterator<Item = f64>, B: Iterator<Item = f64>> Iterator for MergeAscending<A, B> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let head = match (self.a.peek(), self.b.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => return self.extra.take(),
        };
        if self.extra.is_some_and(|e| e < head) {
            return self.extra.take();
        }
        match self.a.peek() {
            Some(&x) if x == head => self.a.next(),
            _ => self.b.next(),
        }
    }
}

/// The largest delay any deviation candidate at or past `t` can carry when
/// the arrival curve lies under `bucket` and the service curve above
/// `server`: `T + (b + r·t + ε)/R − t`, or infinity when that is not
/// decreasing in `t`.
///
/// A candidate `t' ≥ t` reads at most `b + r·t'` on the arrival curve, and
/// the service curve reaches that by `T + (b + r·t')/R`; the delay there is
/// decreasing in `t'`.  `ε` covers the deviation's own tolerance (its
/// inverse stops within [`EPS`] of the ordinate it looks for) and the
/// float rounding of curves summed from many breakpoints.
pub fn tail_bound(bucket: &TokenBucket, server: &RateLatency, t: f64) -> f64 {
    let (b, r) = (bucket.burst().as_f64_bits(), bucket.rate().as_f64_bps());
    let (rate, latency) = (server.rate().as_f64_bps(), server.latency().as_secs_f64());
    let relative = 1e-9;
    if rate <= 0.0 || r / rate + relative >= 1.0 {
        return f64::INFINITY;
    }
    let slack = 16.0 * EPS + relative * (b + rate * t);
    latency + (b + r * t + slack) / rate - t
}

/// The exact min-plus convolution
/// `(f ⊗ g)(t) = inf_{0 ≤ s ≤ t} f(s) + g(t − s)`
/// of two piecewise-linear curves.
///
/// For any fixed `t` the objective `s ↦ f(s) + g(t − s)` is piecewise
/// linear with breakpoints where `s` hits a breakpoint of `f` or `t − s`
/// hits a breakpoint of `g`, so its minimum is attained at one of them.
/// The convolution is therefore the pointwise minimum of the finite family
/// of shifted-and-raised curves `t ↦ f(x_i) + g(t − x_i)` (one per
/// breakpoint `x_i` of `f`, held at `f(x_i) + g(0)` below `x_i`) and the
/// symmetric family over `g`'s breakpoints — each member dominates the
/// convolution, and at every `t` one of them attains it.
///
/// On two convex curves this reproduces the classical slope-sorted segment
/// concatenation; on rate-latency operands it reproduces
/// [`RateLatency::concatenate`] exactly (minimum rate, summed latencies),
/// which the property tests in the crate root pin down.  Staircase and
/// other non-convex operands take the member fold, and so does a convex
/// minorant that float noise leaves failing the exact
/// [`Curve::is_convex`] test.
///
/// ```
/// use netcalc::minplus::convolve;
/// use netcalc::RateLatency;
/// use units::{DataRate, Duration};
///
/// let a = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
/// let b = RateLatency::new(DataRate::from_mbps(100), Duration::from_micros(5));
/// assert!(convolve(&a.curve(), &b.curve()).approx_eq(&a.concatenate(&b).curve()));
/// ```
pub fn convolve(f: &Curve, g: &Curve) -> Curve {
    record_op(OpKind::Convolve);
    with_scratch(|s| {
        if f.is_convex() && g.is_convex() {
            let slope = merge_convolve_convex_into(f, g, &mut s.work);
            return Curve::from_simplified_parts(s.work.clone(), slope);
        }
        // Left fold of the member family by pointwise minimum: the first
        // member is adopted, every later one is combined into `acc`.
        let mut acc_slope = 0.0_f64;
        let mut first = true;
        for (outer, inner) in [(f, g), (g, f)] {
            for &(x, y) in outer.points() {
                let member_slope = shifted_raised_into(&mut s.member, inner, x, y);
                if first {
                    std::mem::swap(&mut s.acc, &mut s.member);
                    acc_slope = member_slope;
                    first = false;
                } else {
                    acc_slope = combine_points_into(
                        (&s.acc, acc_slope),
                        (&s.member, member_slope),
                        &mut s.grid,
                        &mut s.crossings,
                        &mut s.xs,
                        &mut s.work,
                    );
                    std::mem::swap(&mut s.acc, &mut s.work);
                }
            }
        }
        Curve::from_simplified_parts(s.acc.clone(), acc_slope)
    })
}

/// O(n+m) slope-merge convolution of two **convex** operands, written into
/// `out`; returns the result's final slope.
///
/// Classical result: the convolution of convex piecewise-linear curves
/// starts at `(0, f(0) + g(0))` and concatenates the segments of both
/// operands sorted by slope.  Each corner is emitted as the *absolute*
/// coordinate sum `(f_i.x + g_j.x, f_i.y + g_j.y)` of the breakpoints
/// consumed so far — exactly the member-curve breakpoints the
/// candidate-enumeration fold evaluates, so surviving corners carry
/// bit-identical coordinates (pinned by the differential proptests).
/// Segments at least as steep as the result's final slope
/// `min(f_slope, g_slope)` never materialize: the linear tail dominates
/// them, which also caps the output length.  Ties take `f`'s segment
/// first; either order yields the same polyline.
fn merge_convolve_convex_into(f: &Curve, g: &Curve, out: &mut Vec<(f64, f64)>) -> f64 {
    let fp = f.points();
    let gp = g.points();
    let final_slope = f.final_slope().min(g.final_slope());
    out.clear();
    out.push((fp[0].0 + gp[0].0, fp[0].1 + gp[0].1));
    let (mut fi, mut gi) = (0usize, 0usize);
    loop {
        let sf = (fi + 1 < fp.len()).then(|| (fp[fi + 1].1 - fp[fi].1) / (fp[fi + 1].0 - fp[fi].0));
        let sg = (gi + 1 < gp.len()).then(|| (gp[gi + 1].1 - gp[gi].1) / (gp[gi + 1].0 - gp[gi].0));
        let take_f = match (sf, sg) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let s = if take_f { sf } else { sg }.expect("selected side has a segment");
        if s >= final_slope {
            // Every remaining segment is at least as steep as the tail ray,
            // so the tail already dominates them.
            break;
        }
        if take_f {
            fi += 1;
        } else {
            gi += 1;
        }
        out.push((fp[fi].0 + gp[gi].0, fp[fi].1 + gp[gi].1));
    }
    simplify_points_in_place(out, final_slope);
    final_slope
}

/// Writes the member curve `t ↦ h((t − d)⁺) + c` of the convolution family
/// into `member`: `h` shifted right by `d`, raised by `c`, and held at
/// `h(0) + c` below `d`.  Returns the member's final slope.
fn shifted_raised_into(member: &mut Vec<(f64, f64)>, h: &Curve, d: f64, c: f64) -> f64 {
    member.clear();
    let h0 = h.points()[0].1;
    member.push((0.0, h0 + c));
    if d > 0.0 {
        member.push((d, h0 + c));
    }
    for &(x, y) in h.points() {
        if x > 0.0 {
            member.push((x + d, y + c));
        }
    }
    simplify_points_in_place(member, h.final_slope());
    h.final_slope()
}

/// The general blind-multiplexing **left-over service curve**: the service
/// seen by one flow sharing a server with guarantee `beta` and cross
/// traffic bounded by the arbitrary arrival curve `cross`,
///
/// `β_lo(t) = inf_{s ≥ t} [β(s) − α_cross(s)]⁺`,
///
/// i.e. the non-decreasing lower hull of the positive part of
/// `β − α_cross`.  Any non-decreasing function pointwise below
/// `[β − α_cross]⁺` is a valid service curve for the flow under *any*
/// work-conserving arbitration (the last-empty-time argument behind
/// Le Boudec & Thiran Thm 6.2.1 only evaluates it at a single lag), and
/// the hull is the largest such function.  For a convex `β` and concave
/// `cross` the difference is convex, the hull is the identity, and this
/// reproduces [`RateLatency::leftover`](crate::RateLatency::leftover)
/// exactly — the property tests in the crate root pin that down.
///
/// Returns [`NcError::Unstable`] when the cross traffic's long-term rate
/// reaches the server's (no finite left-over service exists).
///
/// ```
/// use netcalc::curve::Curve;
/// use netcalc::minplus::leftover;
///
/// // 10 Mbps / 16 µs server, 4 Mbps / 8 kbit cross traffic:
/// // the closed form is rate 6 Mbps, latency (10^7·16e-6 + 8000)/(6·10^6).
/// let beta = Curve::rate_latency(10e6, 16e-6).unwrap();
/// let cross = Curve::affine(8_000.0, 4e6).unwrap();
/// let lo = leftover(&beta, &cross).unwrap();
/// assert!(lo.approx_eq(&Curve::rate_latency(6e6, 8_160.0 / 6e6).unwrap()));
///
/// // Saturating cross traffic leaves nothing over.
/// assert!(leftover(&beta, &Curve::affine(0.0, 10e6).unwrap()).is_err());
/// ```
pub fn leftover(beta: &Curve, cross: &Curve) -> Result<Curve, NcError> {
    record_op(OpKind::Leftover);
    with_scratch(|s| {
        let slope = leftover_into(
            (beta.points(), beta.final_slope()),
            (cross.points(), cross.final_slope()),
            &mut s.diff,
            &mut s.member,
            &mut s.work,
        )?;
        Ok(Curve::from_simplified_parts(s.work.clone(), slope))
    })
}

/// The left-over service curve of one flow of an aggregate:
/// `leftover(beta, &aggregate.sub_envelope(own))` bit for bit, in one pass
/// on the scratch buffers, without materialising the cross traffic as a
/// curve.  Records one `sub_envelope` and one `leftover`.
///
/// Also returns the abscissa of the cross traffic's last breakpoint at or
/// below `until` (`−∞` when there is none): how far its breakpoints are
/// those of an aggregate known exact up to `until`.
pub fn leftover_within(
    beta: &Curve,
    aggregate: &Curve,
    own: &Curve,
    until: f64,
) -> Result<(Curve, f64), NcError> {
    record_op(OpKind::SubEnvelope);
    record_op(OpKind::Leftover);
    with_scratch(|s| {
        let cross_slope = sub_envelope_points_into(
            (aggregate.points(), aggregate.final_slope()),
            (own.points(), own.final_slope()),
            &mut s.acc,
        );
        let cross_until = s
            .acc
            .iter()
            .take_while(|&&(x, _)| x <= until)
            .last()
            .map_or(f64::NEG_INFINITY, |&(x, _)| x);
        let slope = leftover_into(
            (beta.points(), beta.final_slope()),
            (&s.acc, cross_slope),
            &mut s.diff,
            &mut s.member,
            &mut s.work,
        )?;
        Ok((
            Curve::from_simplified_parts(s.work.clone(), slope),
            cross_until,
        ))
    })
}

/// Kernel of [`leftover`] on breakpoint slices and caller-provided
/// buffers: the difference on a single two-pointer grid merge with cursor
/// evaluations (the historical path sorted the concatenated abscissas and
/// binary-searched per evaluation), then the identical right-to-left hull
/// walk.  Writes the simplified result into `out` and returns its final
/// slope.
fn leftover_into(
    beta: (&[(f64, f64)], f64),
    cross: (&[(f64, f64)], f64),
    diff: &mut Vec<(f64, f64)>,
    hull: &mut Vec<(f64, f64)>,
    out: &mut Vec<(f64, f64)>,
) -> Result<f64, NcError> {
    let ((bp, b_slope), (cp, c_slope)) = (beta, cross);
    let slope = b_slope - c_slope;
    if slope <= EPS {
        return Err(NcError::Unstable {
            context: "left-over service".into(),
            demand_bps: c_slope.ceil() as u64,
            capacity_bps: b_slope.floor() as u64,
        });
    }
    // The difference β − α_cross on the merged breakpoint grid (piecewise
    // linear there, possibly negative and non-monotone).
    diff.clear();
    let mut cb = CurveCursor::new(bp, b_slope);
    let mut cc = CurveCursor::new(cp, c_slope);
    for_each_merged_x(bp, cp, |x| diff.push((x, cb.eval(x) - cc.eval(x))));
    // Non-decreasing lower hull from the right: beyond the last breakpoint
    // the difference grows at `slope > 0`, so the hull equals the
    // difference there; walking segments right to left, a decreasing piece
    // flattens to its right endpoint and an increasing piece is capped by
    // the minimum seen so far (with the cap crossing inserted exactly).
    hull.clear();
    let mut cap = diff.last().expect("non-empty grid").1;
    hull.push(*diff.last().expect("non-empty grid"));
    for w in diff.windows(2).rev() {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if y0 > y1 {
            // Decreasing piece: the infimum over [t, x1] is its right end.
            cap = cap.min(y1);
            hull.push((x0, cap));
        } else {
            // Non-decreasing piece: hull follows it until the cap bites.
            if y1 > cap && y0 < cap {
                hull.push((x0 + (cap - y0) * (x1 - x0) / (y1 - y0), cap));
            }
            cap = cap.min(y0);
            hull.push((x0, cap));
        }
    }
    clamp_nonneg_into(hull.iter().rev().copied(), slope, out);
    Ok(slope)
}

pub mod reference {
    //! The candidate-enumeration min-plus operators retained **verbatim**
    //! from the pre-sweep implementation: every grid is built by
    //! concat + sort + dedup and every evaluation goes through the
    //! binary-search [`Curve::eval`] / scan-from-origin
    //! [`Curve::inverse_upper`].
    //!
    //! These are the oracles the differential property tests pin the sorted-
    //! merge kernels against (breakpoint-for-breakpoint, bit-for-bit), kept
    //! verbatim from before the sorted-merge rewrite.  They are *not*
    //! called by any analysis path, and they neither borrow the scratch
    //! buffers nor bump the op counters.

    use crate::curve::{clamp_nonneg, merged_abscissas, simplify_points, Curve, EPS};
    use crate::NcError;

    /// Pre-sweep pointwise minimum (candidate enumeration).
    pub fn min(a: &Curve, b: &Curve) -> Curve {
        a.min_candidates(b)
    }

    /// Pre-sweep [`crate::minplus::convolve`]: the member fold with the
    /// candidate-enumeration combine, no convex fast path.
    pub fn convolve(f: &Curve, g: &Curve) -> Curve {
        let mut result: Option<Curve> = None;
        let mut fold = |member: Curve| {
            result = Some(match result.take() {
                Some(acc) => min(&acc, &member),
                None => member,
            });
        };
        for &(x, y) in f.points() {
            fold(shifted_raised(g, x, y));
        }
        for &(x, y) in g.points() {
            fold(shifted_raised(f, x, y));
        }
        result.expect("curves have at least one breakpoint each")
    }

    /// The member curve `t ↦ h((t − d)⁺) + c` of the convolution family:
    /// `h` shifted right by `d`, raised by `c`, and held at `h(0) + c`
    /// below `d`.
    fn shifted_raised(h: &Curve, d: f64, c: f64) -> Curve {
        let h0 = h.points()[0].1;
        let mut points = vec![(0.0, h0 + c)];
        if d > 0.0 {
            points.push((d, h0 + c));
        }
        for &(x, y) in h.points() {
            if x > 0.0 {
                points.push((x + d, y + c));
            }
        }
        Curve::new(simplify_points(points, h.final_slope()), h.final_slope())
            .expect("shifting and raising a valid curve preserves validity")
    }

    /// Pre-sweep [`crate::minplus::leftover`]: sorted-grid difference with
    /// binary-search evaluations, then the right-to-left hull walk.
    pub fn leftover(beta: &Curve, cross: &Curve) -> Result<Curve, NcError> {
        let slope = beta.long_term_rate() - cross.long_term_rate();
        if slope <= EPS {
            return Err(NcError::Unstable {
                context: "left-over service".into(),
                demand_bps: cross.long_term_rate().ceil() as u64,
                capacity_bps: beta.long_term_rate().floor() as u64,
            });
        }
        let xs = merged_abscissas(beta, cross);
        let diff: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x, beta.eval(x) - cross.eval(x)))
            .collect();
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(diff.len() + 4);
        let mut cap = diff.last().expect("non-empty grid").1;
        hull.push(*diff.last().expect("non-empty grid"));
        for w in diff.windows(2).rev() {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if y0 > y1 {
                cap = cap.min(y1);
                hull.push((x0, cap));
            } else {
                if y1 > cap && y0 < cap {
                    hull.push((x0 + (cap - y0) * (x1 - x0) / (y1 - y0), cap));
                }
                cap = cap.min(y0);
                hull.push((x0, cap));
            }
        }
        hull.reverse();
        Ok(clamp_nonneg(&hull, slope))
    }

    /// Pre-sweep [`Curve::add`]: sorted-grid sum with binary-search
    /// evaluations.
    pub fn add(a: &Curve, b: &Curve) -> Curve {
        let points = merged_abscissas(a, b)
            .iter()
            .map(|&x| (x, a.eval(x) + b.eval(x)))
            .collect();
        let final_slope = a.final_slope() + b.final_slope();
        Curve::from_simplified_parts(simplify_points(points, final_slope), final_slope)
    }

    /// Pre-sweep [`Curve::sub_envelope`]: sorted-grid difference with
    /// binary-search evaluations, clamped non-decreasing and non-negative.
    pub fn sub_envelope(a: &Curve, b: &Curve) -> Curve {
        let mut prev = 0.0_f64;
        let points = merged_abscissas(a, b)
            .iter()
            .map(|&x| {
                prev = (a.eval(x) - b.eval(x)).max(prev).max(0.0);
                (x, prev)
            })
            .collect();
        let final_slope = (a.final_slope() - b.final_slope()).max(0.0);
        Curve::from_simplified_parts(simplify_points(points, final_slope), final_slope)
    }

    /// Pre-sweep [`crate::minplus::horizontal_deviation`]: rescans α per β
    /// ordinate and rescans β per candidate (O(n·m)).
    pub fn horizontal_deviation(alpha: &Curve, beta: &Curve) -> Result<f64, NcError> {
        if alpha.long_term_rate() > beta.long_term_rate() + EPS {
            return Err(NcError::Unstable {
                context: "horizontal deviation".into(),
                demand_bps: alpha.long_term_rate().ceil() as u64,
                capacity_bps: beta.long_term_rate().floor() as u64,
            });
        }
        let mut candidates: Vec<f64> = alpha.points().iter().map(|&(x, _)| x).collect();
        for &(_, by) in beta.points() {
            if let Some(t) = alpha.inverse(by) {
                candidates.push(t);
            }
        }
        if let Some(&(bx, _)) = beta.points().last() {
            candidates.push(bx);
        }
        let mut worst: f64 = 0.0;
        for &t in &candidates {
            let a = alpha.eval(t);
            let d = match beta.inverse_upper(a) {
                Some(x) => (x - t).max(0.0),
                None => {
                    return Err(NcError::Unstable {
                        context: "service curve plateaus below arrival curve".into(),
                        demand_bps: alpha.long_term_rate().ceil() as u64,
                        capacity_bps: beta.long_term_rate().floor() as u64,
                    });
                }
            };
            if d > worst {
                worst = d;
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{delay_bound, Envelope};
    use units::{DataRate, DataSize, Duration};

    #[test]
    fn horizontal_deviation_token_bucket_vs_rate_latency() {
        // b = 10_000 bits, r = 1 Mbps, served by R = 10 Mbps, T = 16 us.
        // Closed form: T + b/R = 16 us + 1 ms = 1.016 ms.
        let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
        let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
        let h = horizontal_deviation(&alpha, &beta, None).unwrap();
        assert!((h - 0.001_016).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn horizontal_deviation_detects_instability() {
        let alpha = Curve::affine(100.0, 2_000_000.0).unwrap();
        let beta = Curve::rate_latency(1_000_000.0, 0.0).unwrap();
        assert!(matches!(
            horizontal_deviation(&alpha, &beta, None),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn horizontal_deviation_flat_service_below_arrival() {
        // Service plateaus at 50 bits; arrival burst is 100 bits with zero
        // rate: same long-term rate (0) but the plateau never covers the
        // burst, so the delay is unbounded.
        let alpha = Curve::affine(100.0, 0.0).unwrap();
        let beta = Curve::new(vec![(0.0, 0.0), (1.0, 50.0)], 0.0).unwrap();
        assert!(matches!(
            horizontal_deviation(&alpha, &beta, None),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn horizontal_deviation_zero_when_service_dominates() {
        let alpha = Curve::affine(0.0, 1_000.0).unwrap();
        let beta = Curve::rate_latency(1_000_000.0, 0.0).unwrap();
        let h = horizontal_deviation(&alpha, &beta, None).unwrap();
        assert_eq!(h, 0.0);
    }

    #[test]
    fn early_exit_stops_before_the_tail() {
        // A 4 kbit frame every 10 ms through a 10 Mbps / 16 µs server: the
        // deviation, 416 µs, is attained at the origin, and the tail bound
        // at the next candidate (the first riser) is already below it.
        let frames = Curve::staircase(4_000.0, 0.01, 16, 10e6).unwrap();
        let bucket = TokenBucket::new(DataSize::from_bits(4_000), DataRate::from_bps(400_000));
        let server = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
        let beta = server.curve();
        let candidates: Vec<f64> = frames.points().iter().map(|&(x, _)| x).collect();
        let mut visited = 0;
        let h = deviation_sweep(
            &frames,
            &beta,
            Some((&bucket, &server)),
            candidates.iter().copied().inspect(|_| visited += 1),
        )
        .unwrap();
        assert_eq!(h, horizontal_deviation(&frames, &beta, None).unwrap());
        assert_eq!((visited, candidates.len()), (2, 33));
        assert_eq!(
            h,
            horizontal_deviation(&frames, &beta, Some((&bucket, &server))).unwrap()
        );
    }

    #[test]
    fn vertical_deviation_token_bucket_vs_rate_latency() {
        // The largest vertical gap of a token bucket over β_{R,T} — the
        // backlog bound — is the bucket at the end of the dead time:
        // b + r·T = 10_000 + 1e6 * 16e-6 = 10_016 bits.
        let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
        let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
        let v = (0..=2_000)
            .map(|i| i as f64 * 1e-7)
            .map(|t| alpha.eval(t) - beta.eval(t))
            .fold(0.0_f64, f64::max);
        assert!((v - 10_016.0).abs() < 1e-6, "v = {v}");
        assert!((alpha.eval(16e-6) - v).abs() < 1e-6);
    }

    #[test]
    fn vertical_deviation_detects_instability() {
        // An arrival rate above the service rate has no finite bound: the
        // deviation and the left-over service both reject it.
        let alpha = Curve::affine(0.0, 2.0).unwrap();
        let beta = Curve::affine(0.0, 1.0).unwrap();
        assert!(matches!(
            horizontal_deviation(&alpha, &beta, None),
            Err(NcError::Unstable { .. })
        ));
        assert!(matches!(
            leftover(&beta, &alpha),
            Err(NcError::Unstable { .. })
        ));
    }

    /// A 10 Mbps / 16 µs and a 100 Mbps / 5 µs server.
    fn two_servers() -> (RateLatency, RateLatency) {
        (
            RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16)),
            RateLatency::new(DataRate::from_mbps(100), Duration::from_micros(5)),
        )
    }

    #[test]
    fn convolution_of_rate_latency_curves() {
        let (a, b) = two_servers();
        let c = convolve(&a.curve(), &b.curve());
        let expect = Curve::rate_latency(10e6, 21e-6).unwrap();
        assert!(c.approx_eq(&expect));
        assert_eq!(
            a.concatenate(&b),
            RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(21))
        );
    }

    #[test]
    fn output_burst_closed_form() {
        // A (b, r) flow delayed by at most D leaves as the token bucket
        // (b + r·D, r), in exact integer bits.
        let bucket = TokenBucket::new(DataSize::from_bits(10_000), DataRate::from_mbps(1));
        let out = Envelope::from(bucket)
            .delayed(Duration::from_micros(16))
            .unwrap();
        assert_eq!(
            out.token_bucket(),
            TokenBucket::new(DataSize::from_bits(10_016), DataRate::from_mbps(1))
        );
    }

    #[test]
    fn deviations_with_staircase_arrival() {
        // A periodic flow's staircase envelope gives a delay no larger than
        // its token-bucket envelope.
        let tb = Curve::affine(512.0, 25_600.0).unwrap();
        let st = Curve::staircase(512.0, 0.02, 16, 10_000_000.0)
            .unwrap()
            .min(&tb);
        let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
        let h_tb = horizontal_deviation(&tb, &beta, None).unwrap();
        let h_st = horizontal_deviation(&st, &beta, None).unwrap();
        assert!(h_st <= h_tb + 1e-12);
    }

    // ---------------- general min-plus operators ----------------

    #[test]
    fn general_convolution_matches_the_rate_latency_closed_form() {
        let (a_server, b_server) = two_servers();
        let (a, b) = (a_server.curve(), b_server.curve());
        let general = convolve(&a, &b);
        let closed = a_server.concatenate(&b_server).curve();
        assert!(general.approx_eq(&closed), "{general:?} vs {closed:?}");
        // Convolution with the zero-latency infinite-server identity-ish
        // curve: β ⊗ β_{∞,0} is β itself only in the limit, but β ⊗ δ_0
        // with a huge rate is numerically β.
        let fast = Curve::rate_latency(1e15, 0.0).unwrap();
        assert!(convolve(&a, &fast).approx_eq(&a));
        // Commutativity.
        assert!(convolve(&a, &b).approx_eq(&convolve(&b, &a)));
    }

    #[test]
    fn general_convolution_handles_non_convex_operands() {
        // A staircase convolved with a rate-latency curve: spot-check the
        // defining infimum on a grid.
        let st = Curve::staircase(1_000.0, 0.01, 6, 10e6).unwrap();
        let beta = Curve::rate_latency(2e6, 1e-3).unwrap();
        let conv = convolve(&st, &beta);
        for i in 0..80 {
            let t = i as f64 * 5e-4;
            // The infimum is attained where s (resp. t − s) hits a
            // breakpoint, so evaluating on those candidates plus a grid is
            // exact.
            let mut candidates: Vec<f64> = (0..=400).map(|j| t * j as f64 / 400.0).collect();
            candidates.extend(st.points().iter().map(|&(x, _)| x));
            candidates.extend(beta.points().iter().map(|&(u, _)| t - u));
            let expect = candidates
                .into_iter()
                .filter(|&s| (0.0..=t).contains(&s))
                .map(|s| st.eval(s) + beta.eval(t - s))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (conv.eval(t) - expect).abs() <= 1e-3 + 1e-9 * expect,
                "t={t}: {} vs exact {expect}",
                conv.eval(t)
            );
        }
    }

    #[test]
    fn general_deconvolution_matches_the_token_bucket_closed_form() {
        // Output-envelope propagation of a token bucket (b, r) through a
        // server with delay bound D: the bucket (b + r·D, r), whose curve
        // is the input curve read D later.
        let bucket = TokenBucket::new(DataSize::from_bits(10_000), DataRate::from_mbps(1));
        let (server, _) = two_servers();
        let d = delay_bound(&bucket, &server).unwrap();
        let out = Envelope::from(bucket).delayed(d).unwrap();
        let shifted = bucket.curve().shift_left(d.as_secs_f64()).unwrap();
        assert!(out.effective_curve().approx_eq(&shifted), "{out:?}");
        // Unstable pair is rejected.
        let fat = TokenBucket::new(DataSize::from_bits(1), DataRate::from_mbps(20));
        assert!(matches!(
            delay_bound(&fat, &server),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn general_deconvolution_of_a_staircase_is_exact() {
        // A staircase delayed by D reads the input staircase D later,
        // capped by its inflated token bucket: spot-check on a grid.
        let period = Duration::from_millis(10);
        let env = Envelope::staircase(DataSize::from_bits(1_000), period, DataRate::from_mbps(10));
        let out = env.delayed(Duration::from_micros(2_500)).unwrap();
        let (input, cap) = (env.effective_curve(), out.token_bucket().curve());
        let output = out.effective_curve();
        for i in 0..60 {
            let t = i as f64 * 5e-4;
            let expect = input.eval(t + 2.5e-3).min(cap.eval(t));
            assert!(
                (output.eval(t) - expect).abs() <= 1e-6 + 1e-9 * expect,
                "t={t}: {} vs {expect}",
                output.eval(t)
            );
        }
        // The output envelope dominates the input's.
        assert!(output.eval(0.0) + 1e-6 >= input.eval(0.0));
    }

    #[test]
    fn general_leftover_matches_the_rate_latency_closed_form() {
        let beta = Curve::rate_latency(10e6, 16e-6).unwrap();
        let cross = Curve::affine(8_000.0, 4e6).unwrap();
        let lo = leftover(&beta, &cross).unwrap();
        let expect = Curve::rate_latency(6e6, (10e6 * 16e-6 + 8_000.0) / 6e6).unwrap();
        assert!(lo.approx_eq(&expect), "{lo:?} vs {expect:?}");
        // Saturation leaves nothing over.
        assert!(matches!(
            leftover(&beta, &Curve::affine(0.0, 10e6).unwrap()),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn general_leftover_with_staircase_cross_dominates_the_affine_one() {
        // Staircase cross traffic is pointwise below its token bucket, so
        // the left-over service is pointwise above the affine-cross one —
        // and the served flow's delay bound can only shrink.
        let beta = Curve::rate_latency(10e6, 16e-6).unwrap();
        let tb_cross = Curve::affine(8_000.0, 400_000.0).unwrap();
        let st_cross = Curve::staircase(8_000.0, 0.02, 16, 10e6).unwrap();
        let lo_tb = leftover(&beta, &tb_cross).unwrap();
        let lo_st = leftover(&beta, &st_cross).unwrap();
        for i in 0..200 {
            let t = i as f64 * 2.5e-4;
            assert!(lo_st.eval(t) + 1e-6 >= lo_tb.eval(t), "t={t}");
        }
        let own = Curve::affine(512.0, 25_600.0).unwrap();
        let h_st = horizontal_deviation(&own, &lo_st, None).unwrap();
        let h_tb = horizontal_deviation(&own, &lo_tb, None).unwrap();
        assert!(h_st <= h_tb + 1e-12);
    }

    #[test]
    fn general_leftover_is_a_lower_bound_of_the_positive_difference() {
        // The hull never exceeds [β − α]⁺ pointwise (that is what makes it
        // a valid blind-multiplexing service curve).
        let beta = Curve::rate_latency(10e6, 16e-6).unwrap();
        let cross = Curve::staircase(20_000.0, 0.004, 8, 10e6).unwrap();
        let lo = leftover(&beta, &cross).unwrap();
        for i in 0..400 {
            let t = i as f64 * 1e-4;
            let diff = (beta.eval(t) - cross.eval(t)).max(0.0);
            assert!(lo.eval(t) <= diff + 1e-6, "t={t}: {} > {diff}", lo.eval(t));
        }
    }
}
