//! The certified horizon cut of the staircase analysis.
//!
//! A port's staircase curves span 16 periods of their slowest flow, yet
//! its deviations are attained inside the busy period.  The walk's port
//! analysis ([`walk_ports`](crate::walk_ports)) therefore cuts every flow's
//! effective curve at its first riser top past a per-port horizon `W`
//! (`horizon`) and continues it at its long-term rate
//! ([`netcalc::Curve::horizon_cut`]), then sums, subtracts and left-overs
//! the short curves.  Output envelopes stay the uncut ones.
//!
//! Each curve derived from cut operands carries an *exact-until* abscissa:
//! its breakpoints up to there equal, bit for bit, those the uncut operands
//! give.  A deviation on such curves is kept only when `deviation_is_exact`
//! certifies it equal to the deviation on the uncut curves; otherwise the
//! port (or, for the pay-bursts-only-once bound, the message's left-over
//! curves) is recomputed without the cut.  Every bound the analysis
//! reports is thus the uncut one.  `docs/EQUATIONS.md` states the
//! argument.

use crate::analysis::port::LeftoverCurve;
use netcalc::curve::EPS;
use netcalc::minplus::tail_bound;
use netcalc::{Curve, RateLatency, TokenBucket};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::ops::AddAssign;

/// The horizon in multiples of a port's largest per-flow token-bucket
/// delay.  Chosen by measurement on the seed-42 sweep (see CHANGES.md):
/// the riser-top floor of [`horizon`] sets most ports' horizon, and below
/// 16 the few ports it leaves to the factor fail more certificates.
pub(crate) const HORIZON_FACTOR: f64 = 16.0;

/// The horizon of a port whose largest per-flow token-bucket delay is
/// `delay` seconds and whose flows' latest second riser top lies at
/// `second_top` seconds: [`HORIZON_FACTOR`] × `delay`, and at least
/// `second_top`.
///
/// Cut past every second riser top, each staircase keeps two full steps,
/// so a left-over curve's first rising segment ends well inside the exact
/// part, and so does the first point where the whole cross traffic of a
/// harmonic port touches its token bucket again, which ends the first
/// rising edge of the left-over curve's convex minorant.  Cut at the first
/// riser top instead, both end where the exact part ends, and their
/// certificates fail.
pub(crate) fn horizon(delay: f64, second_top: f64) -> f64 {
    (HORIZON_FACTOR * delay).max(second_top)
}

/// An exact-until abscissa below every breakpoint: nothing is known equal.
pub(crate) const NOTHING_EXACT: f64 = f64::NEG_INFINITY;

/// An exact-until abscissa past every breakpoint: the whole curve, final
/// slope included, is the uncut one.
pub(crate) const ALL_EXACT: f64 = f64::INFINITY;

thread_local! {
    static COUNTS: [Cell<u64>; 3] = const { [const { Cell::new(0) }; 3] };
    #[cfg(test)]
    static CUT_DISABLED: Cell<bool> = const { Cell::new(false) };
}

/// What the horizon cut did on one thread, or summed over several.
///
/// Like [`netcalc::counters::OpCounters`] the counts are thread-local and
/// monotone: a campaign worker's snapshot when it finishes is its own work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HorizonCounters {
    /// Staircase ports analysed on cut curves (at least one curve cut).
    pub cut_ports: u64,
    /// Ports recomputed on uncut curves after a stage or per-hop
    /// certificate failed.
    pub port_fallbacks: u64,
    /// Messages whose pay-bursts-only-once bound was recomputed on the
    /// uncut curves of their path after its certificate failed.
    pub path_fallbacks: u64,
}

impl HorizonCounters {
    /// The counts the calling thread has recorded so far.
    pub fn snapshot() -> Self {
        COUNTS.with(|c| HorizonCounters {
            cut_ports: c[0].get(),
            port_fallbacks: c[1].get(),
            path_fallbacks: c[2].get(),
        })
    }
}

impl AddAssign for HorizonCounters {
    fn add_assign(&mut self, other: HorizonCounters) {
        self.cut_ports += other.cut_ports;
        self.port_fallbacks += other.port_fallbacks;
        self.path_fallbacks += other.path_fallbacks;
    }
}

/// The events [`HorizonCounters`] counts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HorizonEvent {
    CutPort,
    PortFallback,
    PathFallback,
}

/// Records one event on the calling thread.
pub(crate) fn record(event: HorizonEvent) {
    COUNTS.with(|c| {
        let counter = &c[event as usize];
        counter.set(counter.get() + 1);
    });
}

/// `true` unless inside `without_cut` (tests only): the horizon cut, the
/// deviations' early exit and the fused left-over pass are on.  Inside
/// `without_cut` the walk runs on uncut curves, evaluates every deviation
/// candidate and materialises every flow's cross traffic.
pub(crate) fn shortcuts() -> bool {
    #[cfg(test)]
    if CUT_DISABLED.with(Cell::get) {
        return false;
    }
    true
}

/// The token bucket over a deviation's arrival curve and the rate-latency
/// curve under its service curve, for the deviation to stop on
/// ([`netcalc::minplus::horizontal_deviation`]); `None` inside
/// `without_cut`.
pub(crate) fn early_exit<'a>(
    bucket: &'a TokenBucket,
    server: &'a RateLatency,
) -> Option<(&'a TokenBucket, &'a RateLatency)> {
    shortcuts().then_some((bucket, server))
}

/// Runs `f` with the horizon cut, the deviations' early exit and the fused
/// left-over pass switched off on this thread: the plain, uncut,
/// exhaustive walk.
#[cfg(test)]
pub(crate) fn without_cut<R>(f: impl FnOnce() -> R) -> R {
    CUT_DISABLED.with(|d| d.set(true));
    let result = f();
    CUT_DISABLED.with(|d| d.set(false));
    result
}

/// The exact-until abscissa of a curve built by one min-plus operation
/// (and its breakpoint simplification) from operands that are exact up to
/// `until`: its last breakpoint at or below `until`.
///
/// The operation's raw breakpoints agree up to `until`, and so do the
/// simplification's decisions on them, unless a later, differing
/// breakpoint happens to be collinear (within [`EPS`]) with the last
/// ones.  Such a coincidence would show in the `horizon_cut_is_invisible`
/// test and in every seed-42 pin.
pub(crate) fn exact_until(curve: &Curve, until: f64) -> f64 {
    if until == ALL_EXACT {
        return ALL_EXACT;
    }
    exact_prefix(curve, |&(x, _)| x <= until)
}

/// [`exact_until`] for raw breakpoints known equal while `raw` holds (on
/// an initial run of breakpoints).
pub(crate) fn exact_prefix(curve: &Curve, raw: impl Fn(&(f64, f64)) -> bool) -> f64 {
    let points = curve.points();
    last_of(points, points.iter().take_while(|p| raw(p)).count())
}

/// The abscissa of the last of `len` leading breakpoints.
fn last_of(points: &[(f64, f64)], len: usize) -> f64 {
    len.checked_sub(1).map_or(NOTHING_EXACT, |k| points[k].0)
}

/// The certificate of one horizontal deviation computed on cut curves:
/// `true` when `h`, the deviation of `alpha` against `beta`, is bit for bit
/// the deviation of the uncut curves.
///
/// `alpha` and `beta` are exact up to `alpha_until` and `beta_until`
/// ([`ALL_EXACT`] for an uncut curve).  `bucket` bounds the uncut and the
/// cut arrival curve from above, `server` the uncut and the cut service
/// curve from below.  `h_floor` is at most the deviation computed on the
/// cut curves.
///
/// Every deviation candidate before `t_L` is evaluated on exact breakpoints
/// in both computations, and both computations share those candidates.
/// Every candidate at or past `t_L`, in either computation, is at most
/// the closed form [`tail_bound`] `T + (b + r·t_L + ε)/R − t_L`
/// (decreasing in `t_L`).
/// When that tail bound is below `h_floor`, the maximum is attained before
/// `t_L` in both computations, on the same values.
pub(crate) fn deviation_is_exact(
    alpha: (&Curve, f64),
    beta: (&Curve, f64),
    h_floor: f64,
    bucket: &TokenBucket,
    server: &RateLatency,
) -> bool {
    let ((alpha, alpha_until), (beta, beta_until)) = (alpha, beta);
    if alpha_until == ALL_EXACT && beta_until == ALL_EXACT {
        return true;
    }
    let mut t_late = alpha_until;
    if beta_until != ALL_EXACT {
        // Past β's last exact breakpoint lie its uncut last abscissa (a
        // candidate) and windows the inverse may reach differently; α must
        // stay a few EPS below that breakpoint's ordinate for β's inverse
        // to stay on exact windows, and every α-inverse of a later β
        // ordinate then lands past `t_late`.
        let Some(&(x, y)) = beta.points().iter().rev().find(|p| p.0 <= beta_until) else {
            return false;
        };
        let below = alpha.inverse(y - 4.0 * EPS).unwrap_or(f64::INFINITY);
        t_late = t_late.min(x).min(below);
    }
    if !t_late.is_finite() || t_late < 0.0 {
        return false;
    }
    tail_bound(bucket, server, t_late) < h_floor - 1e-12
}

/// How far below a cut curve's value `y` an uncut curve computed from
/// the same operands may lie: every cut staircase lies on or above its
/// uncut one up to [`EPS`] per flow (a thousandth of a bit covers a
/// thousand flows), and the float rounding of sums and differences of a
/// few hundred breakpoints stays below `10⁻¹²·|y|`.
pub(crate) fn cut_margin(y: f64) -> f64 {
    1e-3 + 1e-12 * y.abs()
}

/// The exact prefix of the convex minorant of a left-over curve.
///
/// Past the curve's exact part, every breakpoint of the uncut left-over
/// curve is one of the cut curve's (up to `grid_until`), or lies at or
/// above the cut curve's value at `grid_until` (its running minimum comes
/// from further right), or lies past `grid_until` on or above the cut
/// curve — less [`cut_margin`] for the last two.  A hull edge of the cut
/// minorant ending in the exact part, whose supporting line stays clear of
/// the minorant at `grid_until`, is therefore below every breakpoint of
/// both left-over curves, and both hulls keep it.  Its end also has a
/// lower offset `y − r·x` (`r` the final slope) than every breakpoint
/// before it, so neither hull stops at an earlier support point.
pub(crate) fn minorant_exact_until(minorant: &Curve, leftover: &LeftoverCurve) -> f64 {
    let (until, grid) = (leftover.exact_until, leftover.grid_until);
    if until == ALL_EXACT || until == NOTHING_EXACT {
        return until;
    }
    let rate = minorant.final_slope();
    let offset = |&(x, y): &(f64, f64)| y - rate * x;
    let at_grid = minorant.eval(grid);
    let (mut lower, mut earliest) = (leftover.curve.points().iter().peekable(), f64::INFINITY);
    let points = minorant.points();
    let certified = points
        .windows(2)
        .take_while(|w| {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let slope = (y1 - y0) / (x1 - x0);
            let line = y0 + slope * (grid - x0);
            while let Some(p) = lower.next_if(|p| p.0 < x1) {
                earliest = earliest.min(offset(p));
            }
            x1 <= until && offset(&w[1]) < earliest && line < at_grid - 2.0 * cut_margin(at_grid)
        })
        .count();
    // The origin plus the end of every certified edge.
    last_of(points, certified + 1)
}

/// The exact-until abscissa of `conv`, the convolution of the convex
/// curves `f` and `g` exact up to `f_until` and `g_until`.
///
/// The convolution of convex curves starts at the sum of their origins and
/// concatenates their segments in slope order
/// ([`netcalc::minplus::convolve`]).  Replaying that merge on the cut
/// curves, every segment it takes is exact and no steeper than either
/// curve's last exact segment, until the first that is not: up to there
/// the uncut curves' merge takes the same segments, because every segment
/// past an exact prefix is steeper than the prefix's last one (both curves
/// are convex).  Non-convex operands take the general convolution, which
/// this does not cover.
pub(crate) fn convolution_exact_until(
    (f, f_until): (&Curve, f64),
    (g, g_until): (&Curve, f64),
    conv: &Curve,
) -> f64 {
    if f_until == ALL_EXACT && g_until == ALL_EXACT {
        return ALL_EXACT;
    }
    if !(f.is_convex() && g.is_convex()) {
        return NOTHING_EXACT;
    }
    let (fp, gp) = (f.points(), g.points());
    let exact = |points: &[(f64, f64)], until: f64| points.partition_point(|&(x, _)| x <= until);
    let (f_exact, g_exact) = (exact(fp, f_until), exact(gp, g_until));
    if f_exact == 0 || g_exact == 0 {
        return NOTHING_EXACT;
    }
    let slope = |p: &[(f64, f64)], i: usize| (p[i + 1].1 - p[i].1) / (p[i + 1].0 - p[i].0);
    let last_exact = |p: &[(f64, f64)], n: usize, until: f64| match (until == ALL_EXACT, n) {
        (true, _) => f64::INFINITY,
        (false, 0 | 1) => f64::NEG_INFINITY,
        (false, n) => slope(p, n - 2),
    };
    let shallow = last_exact(fp, f_exact, f_until).min(last_exact(gp, g_exact, g_until));
    let final_slope = f.final_slope().min(g.final_slope());
    let (mut fi, mut gi) = (0usize, 0usize);
    loop {
        let sf = (fi + 1 < fp.len()).then(|| slope(fp, fi));
        let sg = (gi + 1 < gp.len()).then(|| slope(gp, gi));
        let (take_f, s) = match (sf, sg) {
            (Some(a), Some(b)) if a <= b => (true, a),
            (Some(a), None) => (true, a),
            (_, Some(b)) => (false, b),
            (None, None) => break,
        };
        let exact_segment = if take_f {
            fi + 1 < f_exact
        } else {
            gi + 1 < g_exact
        };
        if s >= final_slope || !exact_segment || s > shallow {
            break;
        }
        if take_f {
            fi += 1;
        } else {
            gi += 1;
        }
    }
    exact_until(conv, fp[fi].0 + gp[gi].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::multi_hop::{
        analyze_multi_hop_with, flow_ports, walk_ports, FabricPort, PortResults, WalkFlow,
    };
    use crate::analysis::Approach;
    use crate::config::NetworkConfig;
    use ethernet::{Fabric, WrrUnit, WrrWeights};
    use netcalc::EnvelopeModel;
    use std::borrow::Cow;
    use std::collections::{BTreeMap, BTreeSet};
    use units::DataRate;
    use workload::{GeneratorConfig, WorkloadGenerator};

    #[test]
    fn horizon_cut_is_invisible() {
        // Generated workloads over every fabric shape, policy and line rate
        // the campaign draws from: the walk on horizon-cut curves reports
        // every bound of the walk on uncut curves, bit for bit, and so does
        // a walk that recomputes only the later half of the ports and reads
        // the rest from the first walk's results.
        let cases = if cfg!(debug_assertions) { 20 } else { 400 };
        let before = HorizonCounters::snapshot();
        let mut analysed = 0;
        let mut partial_fallbacks = 0;
        for case in 0..cases {
            let pick = |n: usize, salt: usize| (case * 7 + salt * 13 + case / 3) % n;
            let workload = WorkloadGenerator::new(GeneratorConfig {
                subsystems: 3 + pick(10, 1),
                messages_per_subsystem: 2 + pick(5, 2),
                min_payload_bytes: 8 + pick(57, 3) as u64,
                max_payload_bytes: 200 + 83 * pick(10, 4) as u64,
                sporadic_percent: 30 + 10 * pick(5, 5) as u8,
                urgent_percent: 10 + 10 * pick(3, 6) as u8,
                peer_percent: [0u8, 20, 40][pick(3, 7)],
                seed: case as u64,
            })
            .generate();
            let stations = workload.stations.len();
            let fabric = match pick(5, 8) {
                0 => Fabric::single_switch(stations),
                1 => Fabric::line(2, stations),
                2 => Fabric::line(3, stations),
                3 => Fabric::star_of_stars(2, stations),
                _ => Fabric::star_of_stars(3, stations),
            };
            let approach = match pick(3, 9) {
                0 => Approach::Fcfs,
                1 => Approach::StrictPriority,
                _ => Approach::Wrr {
                    weights: WrrWeights::new(&[4, 2, 1], WrrUnit::Frames),
                },
            };
            let rate = DataRate::from_mbps([100, 1_000, 10][pick(3, 10)]);
            let config = NetworkConfig::paper_default().with_link_rate(rate);
            let policy = approach.scheduling_policy(config.priority_levels);
            let paths: Vec<Vec<FabricPort>> = workload
                .messages
                .iter()
                .map(|m| flow_ports(&fabric, m.source.0, m.destination.0))
                .collect();
            let flow = |i: usize| WalkFlow {
                key: i,
                index: i,
                path: &paths[i],
                spec: Cow::Borrowed(&workload.messages[i]),
            };
            let walk = |flows: &[usize],
                        recompute: &dyn Fn(FabricPort) -> bool,
                        cache: &BTreeMap<FabricPort, PortResults<usize>>| {
                let flows: Vec<WalkFlow<'_, usize>> = flows.iter().map(|&i| flow(i)).collect();
                walk_ports(
                    &flows,
                    flow,
                    recompute,
                    cache,
                    &policy,
                    &config,
                    EnvelopeModel::Staircase,
                )
            };
            let all: Vec<usize> = (0..paths.len()).collect();
            let cut = walk(&all, &|_| true, &BTreeMap::new());
            let uncut = without_cut(|| {
                analyze_multi_hop_with(
                    &workload,
                    &config,
                    approach,
                    &fabric,
                    EnvelopeModel::Staircase,
                )
            });
            let (cut, uncut) = match (cut, uncut) {
                (Ok(cut), Ok(uncut)) => (cut, uncut),
                (cut, uncut) => {
                    assert_eq!(cut.err(), uncut.err(), "case {case}");
                    continue;
                }
            };
            analysed += 1;
            let messages: Vec<_> = cut.bounds.into_iter().map(|(_, bound)| bound).collect();
            assert_eq!(messages, uncut.messages, "case {case}");

            // The later half of the walk's topological port order is closed
            // downstream, so the earlier half can come from the cache.  The
            // re-walk is given only the flows those ports list, as the
            // admission engine gives it its dirty closure's.
            let late: BTreeSet<FabricPort> = cut.ports[cut.ports.len() / 2..]
                .iter()
                .map(|(port, _)| *port)
                .collect();
            let cache: BTreeMap<FabricPort, PortResults<usize>> = cut.ports.into_iter().collect();
            let touched: Vec<usize> = late
                .iter()
                .flat_map(|port| cache[port].flows().iter().copied())
                .collect::<BTreeSet<usize>>()
                .into_iter()
                .collect();
            let fallbacks = HorizonCounters::snapshot().path_fallbacks;
            let partial =
                walk(&touched, &|port| late.contains(&port), &cache).expect("the full walk passed");
            partial_fallbacks += HorizonCounters::snapshot().path_fallbacks - fallbacks;
            assert_eq!(partial.ports.len(), late.len(), "case {case}");
            let mut rewalked = messages.clone();
            for (i, bound) in partial.bounds {
                rewalked[i] = bound;
            }
            assert_eq!(rewalked, messages, "case {case}: partial re-walk");
        }
        let mut counts = HorizonCounters::snapshot();
        counts.cut_ports -= before.cut_ports;
        assert!(
            analysed * 2 > cases,
            "only {analysed} of {cases} cases analysed"
        );
        assert!(counts.cut_ports > 0, "no port was analysed on cut curves");
        // The release cases fail 28 pay-bursts-only-once certificates in
        // either walk; the debug cases fail none.
        assert!(
            cfg!(debug_assertions) || partial_fallbacks > 0,
            "no partial re-walk rebuilt a path from cached ports' inputs"
        );
    }
}
