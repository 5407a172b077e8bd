//! Min-plus operations on piecewise-linear curves: deviations, convolution
//! and deconvolution.
//!
//! Only the operations actually needed by the delay analysis are provided,
//! and all of them are exact for the curve shapes used in this workspace
//! (concave arrival curves with a jump at the origin, convex service curves
//! with a dead time).  The deviation routines are written for *any*
//! non-decreasing piecewise-linear curves, evaluating candidates on the
//! union of breakpoints and handling the linear tails analytically.
//!
//! Each operator has exactly one public entry point: [`convolve`],
//! [`deconvolve`], [`leftover`], [`horizontal_deviation`] and
//! [`vertical_deviation`] here, and [`Curve::add`], [`Curve::sub_envelope`],
//! [`Curve::min`] and [`Curve::max`] on the curve type.  Each records its
//! operator in [`crate::counters`] and runs its slice-level kernel on the
//! calling thread's scratch buffers.  [`mod@reference`] keeps the
//! candidate-enumeration oracles the kernels are pinned against.

use crate::arena::with_scratch;
use crate::counters::{record_op, OpKind};
use crate::curve::{
    candidate_eps, clamp_nonneg, clamp_nonneg_into, combine_points_into,
    merged_xs_two_pointer_into, simplify_points_in_place, Curve, CurveCursor, InverseCursor,
    InverseUpperCursor, EPS,
};
use crate::NcError;

/// The horizontal deviation `h(α, β) = sup_{t ≥ 0} inf { d ≥ 0 : α(t) ≤ β(t + d) }`
/// in seconds — the worst-case delay of a flow with arrival curve `α` served
/// with service curve `β` (FIFO per flow).
///
/// Returns [`NcError::Unstable`] when the long-term arrival rate exceeds the
/// long-term service rate (the deviation would be unbounded).
///
/// ```
/// use netcalc::curve::Curve;
/// use netcalc::minplus::horizontal_deviation;
///
/// // Token bucket (10 kbit burst, 1 Mbps) through a 10 Mbps / 16 µs server:
/// // Cruz's closed form is T + b/R = 16 µs + 1 ms.
/// let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
/// let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
/// let h = horizontal_deviation(&alpha, &beta).unwrap();
/// assert!((h - 0.001_016).abs() < 1e-12);
///
/// // An overloaded server has no finite bound.
/// let flood = Curve::affine(0.0, 20_000_000.0).unwrap();
/// assert!(horizontal_deviation(&flood, &beta).is_err());
/// ```
pub fn horizontal_deviation(alpha: &Curve, beta: &Curve) -> Result<f64, NcError> {
    record_op(OpKind::HorizontalDeviation);
    with_scratch(|s| horizontal_deviation_into(alpha, beta, &mut s.candidates))
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
/// The historical implementation rescanned α per β ordinate and rescanned β
/// per candidate — O(n·m).  Here the candidates are walked once, sorted,
/// with forward-only cursors ([`InverseCursor`], [`CurveCursor`],
/// [`InverseUpperCursor`]) that perform the identical per-query arithmetic;
/// the supremum over the candidate set is evaluation-order independent, so
/// the result is bitwise identical (pinned by the differential proptests).
fn horizontal_deviation_into(
    alpha: &Curve,
    beta: &Curve,
    candidates: &mut Vec<f64>,
) -> Result<f64, NcError> {
    if alpha.long_term_rate() > beta.long_term_rate() + EPS {
        return Err(NcError::Unstable {
            context: "horizontal deviation".into(),
            demand_bps: alpha.long_term_rate().ceil() as u64,
            capacity_bps: beta.long_term_rate().floor() as u64,
        });
    }
    candidates.clear();
    candidates.extend(alpha.points().iter().map(|&(x, _)| x));
    // β's ordinates are non-decreasing (up to EPS noise, which the cursor
    // absorbs by rewinding), so one resumable inverse cursor serves every
    // breakpoint.
    let mut inv = InverseCursor::new(alpha.points(), alpha.final_slope());
    for &(_, by) in beta.points() {
        if let Some(t) = inv.inverse(by) {
            candidates.push(t);
        }
    }
    if let Some(&(bx, _)) = beta.points().last() {
        candidates.push(bx);
    }
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut av = CurveCursor::new(alpha.points(), alpha.final_slope());
    let mut binv = InverseUpperCursor::new(beta.points(), beta.final_slope());
    let mut worst: f64 = 0.0;
    for &t in candidates.iter() {
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

/// The vertical deviation `v(α, β) = sup_{t ≥ 0} (α(t) − β(t))` in bits —
/// the worst-case backlog of a flow with arrival curve `α` served with
/// service curve `β`.
pub fn vertical_deviation(alpha: &Curve, beta: &Curve) -> Result<f64, NcError> {
    record_op(OpKind::VerticalDeviation);
    with_scratch(|s| vertical_deviation_into(alpha, beta, &mut s.candidates))
}

/// Kernel of [`vertical_deviation`] on a caller-provided candidate buffer:
/// a single two-pointer candidate merge with the scale-aware
/// [`candidate_eps`] dedup tolerance (the historical absolute `1e-12`
/// merged nanosecond-scale abscissas three decades above their
/// resolution), then one cursor walk over the sorted candidates.
fn vertical_deviation_into(
    alpha: &Curve,
    beta: &Curve,
    candidates: &mut Vec<f64>,
) -> Result<f64, NcError> {
    if alpha.long_term_rate() > beta.long_term_rate() + EPS {
        return Err(NcError::Unstable {
            context: "vertical deviation".into(),
            demand_bps: alpha.long_term_rate().ceil() as u64,
            capacity_bps: beta.long_term_rate().floor() as u64,
        });
    }
    candidates.clear();
    let (ap, bp) = (alpha.points(), beta.points());
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let x = match (ap.get(i), bp.get(j)) {
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
        if candidates
            .last()
            .is_none_or(|&last| (x - last).abs() >= candidate_eps(x, last))
        {
            candidates.push(x);
        }
    }
    let mut ca = CurveCursor::new(ap, alpha.final_slope());
    let mut cb = CurveCursor::new(bp, beta.final_slope());
    let mut worst = 0.0_f64;
    for &t in candidates.iter() {
        worst = worst.max(ca.eval(t) - cb.eval(t));
    }
    Ok(worst)
}

/// Min-plus convolution of two **convex** service curves restricted to the
/// rate-latency family: `β_{R1,T1} ⊗ β_{R2,T2} = β_{min(R1,R2), T1+T2}`.
///
/// The general convolution of convex piecewise-linear curves concatenates
/// their segments sorted by slope; for the rate-latency family used here the
/// closed form above is exact and is what this function computes, after
/// extracting `(R, T)` from each operand.  Returns an error if either curve
/// is not of rate-latency shape (more than one non-flat segment).
pub fn convolve_rate_latency(a: &Curve, b: &Curve) -> Result<Curve, NcError> {
    let (ra, ta) = as_rate_latency(a)?;
    let (rb, tb) = as_rate_latency(b)?;
    Curve::rate_latency(ra.min(rb), ta + tb)
}

/// Min-plus deconvolution `α ⊘ β` restricted to a token-bucket `α` and a
/// rate-latency `β`: the output arrival curve of a `(b, r)` flow served by
/// `β_{R,T}` (with `r ≤ R`) is the token bucket `(b + r·T, r)`.
///
/// Returns the output burst (in bits); the rate is unchanged.
pub fn output_burst_token_bucket(
    burst_bits: f64,
    rate_bps: f64,
    service_rate_bps: f64,
    service_latency_s: f64,
) -> Result<f64, NcError> {
    if rate_bps > service_rate_bps + EPS {
        return Err(NcError::Unstable {
            context: "output burst".into(),
            demand_bps: rate_bps.ceil() as u64,
            capacity_bps: service_rate_bps.floor() as u64,
        });
    }
    Ok(burst_bits + rate_bps * service_latency_s)
}

/// Interprets a curve as a rate-latency curve, returning `(rate, latency)`.
fn as_rate_latency(c: &Curve) -> Result<(f64, f64), NcError> {
    let pts = c.points();
    // Acceptable shapes: [(0,0)] with slope R (latency 0), or
    // [(0,0), (T,0)] with slope R.  Abscissas are compared with the crate
    // tolerance, not exact f64 equality, like the rest of the module.
    match pts {
        [(x0, y0)] if x0.abs() <= EPS && y0.abs() <= EPS => Ok((c.final_slope(), 0.0)),
        [(x0, y0), (x1, y1)] if x0.abs() <= EPS && y0.abs() <= EPS && y1.abs() <= EPS => {
            Ok((c.final_slope(), *x1))
        }
        _ => Err(NcError::InvalidCurve(
            "curve is not of rate-latency shape".into(),
        )),
    }
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
/// [`convolve_rate_latency`] exactly (minimum rate, summed latencies),
/// which the property tests in the crate root pin down.
///
/// ```
/// use netcalc::curve::Curve;
/// use netcalc::minplus::{convolve, convolve_rate_latency};
///
/// let a = Curve::rate_latency(10e6, 16e-6).unwrap();
/// let b = Curve::rate_latency(100e6, 5e-6).unwrap();
/// assert!(convolve(&a, &b).approx_eq(&convolve_rate_latency(&a, &b).unwrap()));
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
                        true,
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

/// The exact min-plus deconvolution
/// `(α ⊘ β)(t) = sup_{s ≥ 0} α(t + s) − β(s)`
/// of two piecewise-linear curves — the tightest arrival envelope of a flow
/// with input envelope `α` after a server guaranteeing `β` (output-envelope
/// propagation for any arrival/service pair).
///
/// Symmetric to [`convolve`]: for fixed `t` the objective is piecewise
/// linear in `s`, so the supremum is attained where `s` hits a breakpoint
/// of `β` (family `t ↦ α(t + s_j) − β(s_j)`) or `t + s` hits a breakpoint
/// of `α` (family `t ↦ α(x_i) − β((x_i − t)⁺)`).  The deconvolution is the
/// pointwise maximum of both families, each clamped at zero — valid
/// because the result is itself non-negative, so clamping changes no value
/// on the upper envelope.
///
/// The envelope is taken by a *balanced pairwise reduction* over the
/// member family rather than a left fold: with `N` members totalling `S`
/// breakpoints the sweep combines cost `O(S log N)` instead of the fold's
/// `O(N · R)` re-merges of an `R`-breakpoint accumulator.  The reduction
/// computes the same pointwise maximum; individual breakpoints may differ
/// from [`reference::deconvolve`] at the simplification tolerance because
/// intermediate envelopes simplify in a different association order — the
/// crate-root property tests pin `approx_eq` equality against the
/// reference on random curve pairs.
///
/// Returns [`NcError::Unstable`] when `α`'s long-term rate exceeds `β`'s
/// (the output burst would be unbounded).
///
/// ```
/// use netcalc::curve::Curve;
/// use netcalc::minplus::deconvolve;
///
/// // Token bucket (b, r) through β_{R,T}: the output is (b + r·T, r).
/// let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
/// let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
/// let out = deconvolve(&alpha, &beta).unwrap();
/// assert!(out.approx_eq(&Curve::affine(10_016.0, 1_000_000.0).unwrap()));
/// ```
pub fn deconvolve(alpha: &Curve, beta: &Curve) -> Result<Curve, NcError> {
    // No scratch borrow here: the reduction below calls `Curve::max`, which
    // borrows the scratch itself.
    record_op(OpKind::Deconvolve);
    if alpha.long_term_rate() > beta.long_term_rate() + EPS {
        return Err(NcError::Unstable {
            context: "deconvolution".into(),
            demand_bps: alpha.long_term_rate().ceil() as u64,
            capacity_bps: beta.long_term_rate().floor() as u64,
        });
    }
    let mut members: Vec<Curve> = Vec::with_capacity(beta.points().len() + alpha.points().len());
    // Family over β's breakpoints: α read s_j later, lowered by β(s_j).
    for &(s, v) in beta.points() {
        members.push(alpha.shift_left(s)?.saturating_sub_const(v)?);
    }
    // Family over α's breakpoints: the reflected service curve
    // t ↦ (α(x_i) − β((x_i − t)⁺))⁺, constant for t ≥ x_i.
    for &(x, y) in alpha.points() {
        let mut raw: Vec<(f64, f64)> = vec![(0.0, y - beta.eval(x))];
        for &(u, v) in beta.points().iter().rev() {
            if u < x {
                raw.push((x - u, y - v));
            }
        }
        members.push(clamp_nonneg(&raw, 0.0));
    }
    // Balanced pairwise reduction: adjacent members combine first, so the
    // large envelopes only appear near the root of the reduction tree.
    while members.len() > 1 {
        let mut next = Vec::with_capacity(members.len().div_ceil(2));
        let mut pairs = members.chunks_exact(2);
        for pair in &mut pairs {
            next.push(pair[0].max(&pair[1]));
        }
        if let [odd] = pairs.remainder() {
            next.push(odd.clone());
        }
        members = next;
    }
    Ok(members
        .pop()
        .expect("curves have at least one breakpoint each"))
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
            beta,
            cross,
            &mut s.xs,
            &mut s.diff,
            &mut s.member,
            &mut s.work,
        )?;
        Ok(Curve::from_simplified_parts(s.work.clone(), slope))
    })
}

/// Kernel of [`leftover`] on caller-provided buffers: a single two-pointer
/// grid merge with cursor evaluations (the historical path sorted the
/// concatenated abscissas and binary-searched per evaluation), then the
/// identical right-to-left hull walk.  Writes the simplified result into
/// `out` and returns its final slope.
fn leftover_into(
    beta: &Curve,
    cross: &Curve,
    xs: &mut Vec<f64>,
    diff: &mut Vec<(f64, f64)>,
    hull: &mut Vec<(f64, f64)>,
    out: &mut Vec<(f64, f64)>,
) -> Result<f64, NcError> {
    let slope = beta.long_term_rate() - cross.long_term_rate();
    if slope <= EPS {
        return Err(NcError::Unstable {
            context: "left-over service".into(),
            demand_bps: cross.long_term_rate().ceil() as u64,
            capacity_bps: beta.long_term_rate().floor() as u64,
        });
    }
    // The difference β − α_cross on the merged breakpoint grid (piecewise
    // linear there, possibly negative and non-monotone).
    merged_xs_two_pointer_into(beta.points(), cross.points(), xs);
    diff.clear();
    let mut cb = CurveCursor::new(beta.points(), beta.final_slope());
    let mut cc = CurveCursor::new(cross.points(), cross.final_slope());
    for &x in xs.iter() {
        diff.push((x, cb.eval(x) - cc.eval(x)));
    }
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
    hull.reverse();
    clamp_nonneg_into(hull, slope, out);
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
    //! merge kernels against (breakpoint-for-breakpoint, bit-for-bit) and
    //! the "old" side of the E17 kernel microbenchmarks.  They are *not*
    //! called by any analysis path, and they neither borrow the scratch
    //! buffers nor bump the op counters.

    use crate::curve::{clamp_nonneg, merged_abscissas, simplify_points, Curve, EPS};
    use crate::NcError;

    /// Pre-sweep pointwise minimum (candidate enumeration).
    pub fn min(a: &Curve, b: &Curve) -> Curve {
        a.combine_candidates(b, true)
    }

    /// Pre-sweep pointwise maximum (candidate enumeration).
    pub fn max(a: &Curve, b: &Curve) -> Curve {
        a.combine_candidates(b, false)
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

    /// Pre-sweep [`crate::minplus::deconvolve`]: the member fold with the
    /// candidate-enumeration combine.
    pub fn deconvolve(alpha: &Curve, beta: &Curve) -> Result<Curve, NcError> {
        if alpha.long_term_rate() > beta.long_term_rate() + EPS {
            return Err(NcError::Unstable {
                context: "deconvolution".into(),
                demand_bps: alpha.long_term_rate().ceil() as u64,
                capacity_bps: beta.long_term_rate().floor() as u64,
            });
        }
        let mut result: Option<Curve> = None;
        let mut fold = |member: Curve| {
            result = Some(match result.take() {
                Some(acc) => max(&acc, &member),
                None => member,
            });
        };
        for &(s, v) in beta.points() {
            fold(alpha.shift_left(s)?.saturating_sub_const(v)?);
        }
        for &(x, y) in alpha.points() {
            let mut raw: Vec<(f64, f64)> = vec![(0.0, y - beta.eval(x))];
            for &(u, v) in beta.points().iter().rev() {
                if u < x {
                    raw.push((x - u, y - v));
                }
            }
            fold(clamp_nonneg(&raw, 0.0));
        }
        Ok(result.expect("curves have at least one breakpoint each"))
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

    /// Pre-sweep [`crate::minplus::vertical_deviation`], including the
    /// historical absolute `1e-12` candidate dedup.
    pub fn vertical_deviation(alpha: &Curve, beta: &Curve) -> Result<f64, NcError> {
        if alpha.long_term_rate() > beta.long_term_rate() + EPS {
            return Err(NcError::Unstable {
                context: "vertical deviation".into(),
                demand_bps: alpha.long_term_rate().ceil() as u64,
                capacity_bps: beta.long_term_rate().floor() as u64,
            });
        }
        let mut candidates: Vec<f64> = alpha
            .points()
            .iter()
            .chain(beta.points().iter())
            .map(|&(x, _)| x)
            .collect();
        candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let worst = candidates
            .iter()
            .map(|&t| alpha.eval(t) - beta.eval(t))
            .fold(0.0_f64, f64::max);
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_deviation_token_bucket_vs_rate_latency() {
        // b = 10_000 bits, r = 1 Mbps, served by R = 10 Mbps, T = 16 us.
        // Closed form: T + b/R = 16 us + 1 ms = 1.016 ms.
        let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
        let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
        let h = horizontal_deviation(&alpha, &beta).unwrap();
        assert!((h - 0.001_016).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn horizontal_deviation_detects_instability() {
        let alpha = Curve::affine(100.0, 2_000_000.0).unwrap();
        let beta = Curve::rate_latency(1_000_000.0, 0.0).unwrap();
        assert!(matches!(
            horizontal_deviation(&alpha, &beta),
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
            horizontal_deviation(&alpha, &beta),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn horizontal_deviation_zero_when_service_dominates() {
        let alpha = Curve::affine(0.0, 1_000.0).unwrap();
        let beta = Curve::rate_latency(1_000_000.0, 0.0).unwrap();
        let h = horizontal_deviation(&alpha, &beta).unwrap();
        assert_eq!(h, 0.0);
    }

    #[test]
    fn vertical_deviation_token_bucket_vs_rate_latency() {
        // Backlog bound: b + r·T = 10_000 + 1e6 * 16e-6 = 10_016 bits.
        let alpha = Curve::affine(10_000.0, 1_000_000.0).unwrap();
        let beta = Curve::rate_latency(10_000_000.0, 16e-6).unwrap();
        let v = vertical_deviation(&alpha, &beta).unwrap();
        assert!((v - 10_016.0).abs() < 1e-6, "v = {v}");
    }

    #[test]
    fn vertical_deviation_detects_instability() {
        let alpha = Curve::affine(0.0, 2.0).unwrap();
        let beta = Curve::affine(0.0, 1.0).unwrap();
        assert!(matches!(
            vertical_deviation(&alpha, &beta),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn convolution_of_rate_latency_curves() {
        let a = Curve::rate_latency(10e6, 16e-6).unwrap();
        let b = Curve::rate_latency(100e6, 5e-6).unwrap();
        let c = convolve_rate_latency(&a, &b).unwrap();
        let expect = Curve::rate_latency(10e6, 21e-6).unwrap();
        assert!(c.approx_eq(&expect));
        // Non rate-latency operand is rejected.
        let tb = Curve::affine(10.0, 1.0).unwrap();
        assert!(convolve_rate_latency(&a, &tb).is_err());
    }

    #[test]
    fn output_burst_closed_form() {
        let b = output_burst_token_bucket(10_000.0, 1e6, 10e6, 16e-6).unwrap();
        assert!((b - 10_016.0).abs() < 1e-9);
        assert!(output_burst_token_bucket(1.0, 2e6, 1e6, 0.0).is_err());
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
        let h_tb = horizontal_deviation(&tb, &beta).unwrap();
        let h_st = horizontal_deviation(&st, &beta).unwrap();
        assert!(h_st <= h_tb + 1e-12);
    }

    // ---------------- general min-plus operators ----------------

    #[test]
    fn general_convolution_matches_the_rate_latency_closed_form() {
        let a = Curve::rate_latency(10e6, 16e-6).unwrap();
        let b = Curve::rate_latency(100e6, 5e-6).unwrap();
        let general = convolve(&a, &b);
        let closed = convolve_rate_latency(&a, &b).unwrap();
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
        let alpha = Curve::affine(10_000.0, 1e6).unwrap();
        let beta = Curve::rate_latency(10e6, 16e-6).unwrap();
        let out = deconvolve(&alpha, &beta).unwrap();
        let burst = output_burst_token_bucket(10_000.0, 1e6, 10e6, 16e-6).unwrap();
        assert!(
            out.approx_eq(&Curve::affine(burst, 1e6).unwrap()),
            "{out:?}"
        );
        // Unstable pair is rejected.
        let fat = Curve::affine(1.0, 20e6).unwrap();
        assert!(matches!(
            deconvolve(&fat, &beta),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn general_deconvolution_of_a_staircase_is_exact() {
        // Spot-check the defining supremum on a grid for a non-concave α.
        let st = Curve::staircase(1_000.0, 0.01, 6, 10e6).unwrap();
        let beta = Curve::rate_latency(2e6, 1e-3).unwrap();
        let out = deconvolve(&st, &beta).unwrap();
        for i in 0..60 {
            let t = i as f64 * 5e-4;
            let mut expect = 0.0_f64;
            for j in 0..=800 {
                let s = 0.08 * j as f64 / 800.0;
                expect = expect.max(st.eval(t + s) - beta.eval(s));
            }
            assert!(
                out.eval(t) + 1e-3 >= expect,
                "t={t}: {} under-approximates {expect}",
                out.eval(t)
            );
            assert!(
                out.eval(t) <= expect + 1e-3 + 1e-9 * expect,
                "t={t}: {} over-approximates {expect}",
                out.eval(t)
            );
        }
        // The output envelope dominates the input's shape shifted through
        // the service latency.
        assert!(out.eval(0.0) + 1e-6 >= st.eval(0.0));
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
        let h_st = horizontal_deviation(&own, &lo_st).unwrap();
        let h_tb = horizontal_deviation(&own, &lo_tb).unwrap();
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
