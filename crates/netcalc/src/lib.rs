//! Network Calculus substrate for worst-case delay analysis.
//!
//! This crate implements the deterministic Network Calculus introduced by
//! Cruz ("A calculus for network delay", parts 1 and 2) as used by the paper
//! *Real-Time Communication over Switched Ethernet for Military
//! Applications* (Mifdaoui, Frances, Fraboul — CoNEXT 2005):
//!
//! * **Arrival curves** bound the traffic a flow can submit: a token-bucket
//!   regulated flow `i` with bucket depth `b_i` and rate `r_i = b_i / T_i`
//!   has arrival curve `R_i(t) = b_i + r_i·t` ([`arrival::TokenBucket`]).
//! * **Service curves** bound the service a network element guarantees: a
//!   link of capacity `C` behind a bounded technological latency is a
//!   rate-latency curve `β_{C,T}(t) = C·(t − T)⁺` ([`service::RateLatency`]).
//! * **Bounds**: the worst-case delay is the horizontal deviation between
//!   the arrival and service curves; for a token bucket through a
//!   rate-latency server it is the closed form `T + b/R` ([`bounds`]).
//! * **Multiplexers**: the paper's two aggregation formulas — the FCFS bound
//!   `D = Σ b_i / C + t_techno` and the strict-priority bound
//!   `D_p = (Σ_{q≤p} b_i + max_{q>p} b_j) / (C − Σ_{q<p} r_i) + t_techno` —
//!   plus weighted round robin, behind one class-indexed [`Mux`] ([`mux`]).
//!   [`Mux::delay_bound`] refines a class's closed form by the horizontal
//!   deviation of an aggregate arrival curve the caller supplies.
//!
//! General piecewise-linear curves and their min-plus algebra live in
//! [`curve`] and [`minplus`]; the closed forms used by the paper are special
//! cases and are cross-checked against the general machinery in the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod arrival;
pub mod bounds;
pub mod counters;
pub mod curve;
pub mod envelope;
pub mod minplus;
pub mod mux;
pub mod service;

pub use arrival::TokenBucket;
pub use bounds::delay_bound;
pub use curve::Curve;
pub use envelope::{Envelope, EnvelopeModel};
pub use minplus::{convolve, leftover};
pub use mux::{Mux, WrrAccounting};
pub use service::RateLatency;

/// Errors produced by the analysis routines.
///
/// Carries `serde` derives so services (e.g. the admission engine) can ship
/// structured failure verdicts over the wire.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum NcError {
    /// The aggregate reserved rate meets or exceeds the service capacity, so
    /// no finite bound exists (`C − Σ r_i ≤ 0` in the priority formula, or
    /// `r > R` in the single-flow bound).
    Unstable {
        /// Human-readable description of which stage is overloaded.
        context: String,
        /// Aggregate arrival rate in bits per second.
        demand_bps: u64,
        /// Available service rate in bits per second.
        capacity_bps: u64,
    },
    /// A curve was constructed with invalid parameters (e.g. a negative or
    /// non-finite coordinate).
    InvalidCurve(String),
}

impl core::fmt::Display for NcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NcError::Unstable {
                context,
                demand_bps,
                capacity_bps,
            } => write!(
                f,
                "unstable system ({context}): aggregate demand {demand_bps} b/s >= capacity {capacity_bps} b/s"
            ),
            NcError::InvalidCurve(msg) => write!(f, "invalid curve: {msg}"),
        }
    }
}

impl std::error::Error for NcError {}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use units::{DataRate, DataSize, Duration};

    /// Results of every scratch-backed entry point on one flow's curves:
    /// the curves (left-over, convolution, sum, envelope difference, min)
    /// and the deviation.
    type ScratchRun = (Vec<Curve>, f64);

    /// Runs every scratch-backed entry point on one flow's curves, in the
    /// order the per-port analysis calls them.
    fn scratch_run(
        own: &Curve,
        beta: &Curve,
        st_cross: &Curve,
        cross: &Curve,
    ) -> Result<ScratchRun, NcError> {
        let lo = minplus::leftover(beta, cross)?;
        let conv = minplus::convolve(beta, &lo);
        let sum = st_cross.add(cross);
        let back = sum.sub_envelope(cross);
        let min = st_cross.min(cross);
        let h = minplus::horizontal_deviation(own, &lo, None)?;
        Ok((vec![lo, conv, sum, back, min], h))
    }

    /// One flow's staircase on a `line`, delayed by `delay_us` µs and cut
    /// at `horizon_steps` half periods (uncut at 0), with the token bucket
    /// it lies under.
    fn delayed_cut_staircase(
        bytes: u64,
        period_ms: u64,
        shape: u64,
        line: DataRate,
    ) -> (Curve, TokenBucket) {
        let (delay_us, horizon_steps) = (shape % 5_000, shape / 5_000);
        let period = Duration::from_millis(period_ms);
        let env = Envelope::staircase(DataSize::from_bytes(bytes), period, line)
            .delayed(Duration::from_micros(delay_us))
            .unwrap();
        let curve = env.effective_curve().into_owned();
        let horizon = horizon_steps as f64 * period.as_secs_f64() / 2.0;
        let cut = (horizon_steps > 0)
            .then(|| curve.horizon_cut(&curve.riser_tops(), horizon))
            .flatten();
        (cut.unwrap_or(curve), env.token_bucket())
    }

    /// The sum of `flows` (`(bytes, period_ms, shape)`, see
    /// [`delayed_cut_staircase`]) from [`Curve::zero`] in order, the sum of
    /// their token buckets, and the abscissa of the first cut curve's end
    /// (infinity when none is cut).
    fn staircase_sum(flows: &[(u64, u64, u64)], line: DataRate) -> (Curve, TokenBucket, f64) {
        let mut sum = (
            Curve::zero(),
            TokenBucket::aggregate_all(None::<TokenBucket>),
            f64::INFINITY,
        );
        for &(bytes, period_ms, shape) in flows {
            let (curve, bucket) = delayed_cut_staircase(bytes, period_ms, shape, line);
            if shape >= 5_000 {
                sum.2 = sum.2.min(curve.points().last().unwrap().0);
            }
            sum = (sum.0.add(&curve), sum.1.aggregate(&bucket), sum.2);
        }
        sum
    }

    /// `true` when both deviations are the same value bit for bit, or both
    /// errors.
    fn same_deviation(a: Result<f64, NcError>, b: Result<f64, NcError>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
            (Err(_), Err(_)) => true,
            _ => false,
        }
    }

    proptest! {
        /// Delay bound of a token bucket against a rate-latency service curve
        /// computed by the closed form must equal the horizontal deviation of
        /// the general piecewise-linear curves (up to 1 ns of rounding).
        #[test]
        fn closed_form_matches_general_horizontal_deviation(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            latency_us in 0u64..10_000,
            capacity_mbps in 1u64..1_000,
        ) {
            let burst = DataSize::from_bytes(burst);
            let period = Duration::from_millis(period_ms);
            let tb = TokenBucket::for_message(burst, period);
            let capacity = DataRate::from_mbps(capacity_mbps);
            prop_assume!(tb.rate().bps() < capacity.bps());
            let sc = RateLatency::new(capacity, Duration::from_micros(latency_us));
            let closed = bounds::delay_bound(&tb, &sc).unwrap();
            let general = minplus::horizontal_deviation(&tb.curve(), &sc.curve(), None).unwrap();
            let general = Duration::from_secs_f64_ceil(general);
            let diff = closed.as_nanos().abs_diff(general.as_nanos());
            prop_assert!(diff <= 1, "closed {closed} vs general {general}");
        }

        /// [`bounds::delay_bound`] is the closed form of the curve
        /// deviation it replaces: on random token buckets and rate-latency
        /// servers, and on the edges the deviation treats specially (no
        /// dead time, a dead time worth at most `EPS` bits, `r = R`,
        /// `r > R + EPS`, `R = 0`), it equals
        /// `⌈h(γ_{r,b}, β_{R,T})⌉` bit for bit, errors included.
        #[test]
        fn delay_bound_is_the_curve_deviation(
            burst in 0u64..100_000_000,
            rate in 0u64..2_000_000_000,
            capacity in 0u64..2_000_000_000,
            latency_ns in 0u64..2_000_000_000,
        ) {
            let tiny_ns = 1 + latency_ns % 10;
            let tiny_capacity = capacity % (1_000 / tiny_ns + 1);
            for (rate, capacity, latency_ns) in [
                // Random stable pair.
                (rate % (capacity + 1), capacity, latency_ns),
                // No dead time.
                (rate % (capacity + 1), capacity, 0),
                // A dead time worth at most EPS bits: R·T ≤ 1000 bit·ns.
                (rate % (tiny_capacity + 1), tiny_capacity, tiny_ns),
                // r = R.
                (capacity, capacity, latency_ns),
                // r > R + EPS.
                (capacity + 1 + rate % 1_000, capacity, latency_ns),
                // R = 0, with and without arrivals.
                (0, 0, latency_ns),
                (1 + rate, 0, latency_ns),
            ] {
                let tb = TokenBucket::new(DataSize::from_bits(burst), DataRate::from_bps(rate));
                let rl = RateLatency::new(
                    DataRate::from_bps(capacity),
                    Duration::from_nanos(latency_ns),
                );
                let reference = minplus::horizontal_deviation(&tb.curve(), &rl.curve(), None)
                    .map(Duration::from_secs_f64_ceil);
                prop_assert_eq!(bounds::delay_bound(&tb, &rl), reference);
            }
        }

        /// The FCFS bound grows monotonically with every additional flow.
        #[test]
        fn fcfs_bound_monotone_in_flows(
            sizes in proptest::collection::vec(64u64..1_600, 1..20),
            capacity_mbps in 100u64..1_000,
        ) {
            let capacity = DataRate::from_mbps(capacity_mbps);
            let mut mux = Mux::fcfs(capacity, Duration::from_micros(16));
            let mut last = Duration::ZERO;
            for (k, s) in sizes.iter().enumerate() {
                let frame = DataSize::from_bytes(*s);
                mux.add_flow(0, TokenBucket::for_message(frame, Duration::from_millis(20)), frame);
                let d = mux.delay_bound(0, None, false).unwrap();
                prop_assert!(d >= last, "bound decreased after adding flow {k}");
                last = d;
            }
        }

        /// Pay bursts only once: for a token-bucket flow crossing a sequence
        /// of rate-latency servers, the end-to-end delay bound obtained from
        /// the *convolved* network service curve never exceeds the sum of
        /// the per-hop bounds (with the burst re-inflated at every hop by
        /// that hop's delay bound, as [`Envelope::delayed`] propagates it).
        #[test]
        fn convolved_bound_never_exceeds_per_hop_sum(
            burst in 64u64..50_000,
            period_ms in 1u64..500,
            hops in proptest::collection::vec((1u64..1_000, 0u64..5_000), 1..5),
        ) {
            let mut alpha = TokenBucket::for_message(
                DataSize::from_bytes(burst),
                Duration::from_millis(period_ms),
            );
            let servers: Vec<RateLatency> = hops
                .iter()
                .map(|&(rate_mbps, latency_us)| RateLatency::new(
                    DataRate::from_mbps(rate_mbps),
                    Duration::from_micros(latency_us),
                ))
                .collect();
            prop_assume!(servers.iter().all(|s| alpha.rate().bps() < s.rate().bps()));

            // Per-hop composition: pay the (growing) burst at every hop.
            let source = alpha;
            let mut hop_sum = Duration::ZERO;
            for server in &servers {
                let delay = bounds::delay_bound(&alpha, server).unwrap();
                hop_sum += delay;
                alpha = Envelope::from(alpha).delayed(delay).unwrap().token_bucket();
            }

            // Convolution: one rate-latency curve for the whole path.
            let network = servers[1..]
                .iter()
                .fold(servers[0], |acc, s| acc.concatenate(s));
            let convolved = bounds::delay_bound(&source, &network).unwrap();

            // ≤ up to one nanosecond of ceil rounding per hop.
            let slack = Duration::from_nanos(servers.len() as u64);
            prop_assert!(
                convolved <= hop_sum + slack,
                "convolved {convolved} > per-hop sum {hop_sum}"
            );
        }

        /// The general min-plus convolution agrees with the rate-latency
        /// closed form [`RateLatency::concatenate`] (minimum rate, summed
        /// latencies) on random rate-latency pairs.
        #[test]
        fn general_convolution_matches_closed_form(
            rate_a_mbps in 1u64..1_000,
            latency_a_us in 0u64..10_000,
            rate_b_mbps in 1u64..1_000,
            latency_b_us in 0u64..10_000,
        ) {
            let a = RateLatency::new(DataRate::from_mbps(rate_a_mbps), Duration::from_micros(latency_a_us));
            let b = RateLatency::new(DataRate::from_mbps(rate_b_mbps), Duration::from_micros(latency_b_us));
            let general = minplus::convolve(&a.curve(), &b.curve());
            let closed = a.concatenate(&b).curve();
            prop_assert!(general.approx_eq(&closed), "{general:?} vs {closed:?}");
        }

        /// Output-envelope propagation agrees with its definition on random
        /// token-bucket/rate-latency pairs: the bucket [`Envelope::delayed`]
        /// by the delay bound `D` is `(b + r·D, r)`, the input curve read
        /// `D` later, in whole bits (`r·D` rounded down).
        #[test]
        fn general_deconvolution_matches_closed_form(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            latency_us in 0u64..10_000,
            capacity_mbps in 1u64..1_000,
        ) {
            let tb = TokenBucket::for_message(
                DataSize::from_bytes(burst),
                Duration::from_millis(period_ms),
            );
            let capacity = DataRate::from_mbps(capacity_mbps);
            prop_assume!(tb.rate().bps() < capacity.bps());
            let server = RateLatency::new(capacity, Duration::from_micros(latency_us));
            let delay = bounds::delay_bound(&tb, &server).unwrap();
            let out = Envelope::from(tb).delayed(delay).unwrap().token_bucket();
            prop_assert_eq!(out.rate(), tb.rate());
            let read_later = tb.curve().eval(delay.as_secs_f64());
            let gap = read_later - out.burst().as_f64_bits();
            prop_assert!((-1e-6..1.0 + 1e-6).contains(&gap), "{out:?} vs {read_later}");
        }

        /// The general left-over service curve agrees with the closed-form
        /// blind-multiplexing residual on random token-bucket cross traffic,
        /// up to the closed form's pessimistic nanosecond latency ceil.
        #[test]
        fn general_leftover_matches_closed_form(
            cross_burst in 64u64..100_000,
            cross_period_ms in 1u64..1_000,
            latency_us in 0u64..10_000,
            capacity_mbps in 1u64..1_000,
        ) {
            let cross = TokenBucket::for_message(
                DataSize::from_bytes(cross_burst),
                Duration::from_millis(cross_period_ms),
            );
            let capacity = DataRate::from_mbps(capacity_mbps);
            prop_assume!(cross.rate().bps() < capacity.bps());
            let server = RateLatency::new(capacity, Duration::from_micros(latency_us));
            let closed = server.leftover(&cross).expect("stable by assumption");
            let general = minplus::leftover(&server.curve(), &cross.curve()).unwrap();
            // Same residual rate…
            prop_assert!((general.final_slope() - closed.rate().as_f64_bps()).abs() < 1.0);
            // …and the same latency up to the closed form's 1 ns ceil:
            // where the general hull starts serving vs T*.
            let t_general = general.inverse_upper(0.0).expect("positive residual rate");
            let t_closed = closed.latency().as_secs_f64();
            prop_assert!(
                (t_general - t_closed).abs() <= 2e-9 + 1e-9 * t_closed,
                "general latency {t_general} vs closed {t_closed}"
            );
        }

        /// A staircase envelope never yields a larger delay bound than the
        /// token bucket of the same flow, against any rate-latency server
        /// (the staircase is pointwise below the affine envelope).
        #[test]
        fn staircase_bound_never_exceeds_token_bucket_bound(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            latency_us in 0u64..10_000,
            capacity_mbps in 1u64..1_000,
            delay_us in 0u64..50_000,
        ) {
            let length = DataSize::from_bytes(burst);
            let period = Duration::from_millis(period_ms);
            let capacity = DataRate::from_mbps(capacity_mbps);
            let tb = TokenBucket::for_message(length, period);
            prop_assume!(tb.rate().bps() < capacity.bps());
            let beta = RateLatency::new(capacity, Duration::from_micros(latency_us));
            // Fresh at the source…
            let st = Envelope::staircase(length, period, capacity);
            let h_st = minplus::horizontal_deviation(&st.effective_curve(), &beta.curve(), None).unwrap();
            let h_tb = minplus::horizontal_deviation(&tb.curve(), &beta.curve(), None).unwrap();
            prop_assert!(h_st <= h_tb + 1e-12, "fresh: {h_st} > {h_tb}");
            // …and after propagating through an upstream delay, where the
            // staircase's flat step keeps the effective burst down.
            let delay = Duration::from_micros(delay_us);
            let st_out = st.delayed(delay).unwrap();
            let tb_out = Envelope::from(tb).delayed(delay).unwrap();
            let h_st = minplus::horizontal_deviation(&st_out.effective_curve(), &beta.curve(), None).unwrap();
            let h_tb = minplus::horizontal_deviation(&tb_out.effective_curve(), &beta.curve(), None).unwrap();
            prop_assert!(h_st <= h_tb + 1e-12, "delayed: {h_st} > {h_tb}");
        }

        /// WRR residual services never promise more than the port offers:
        /// the per-class residual rates sum to at most `C`, and the sum of
        /// the residual curves stays below the full port service curve at
        /// every sampled instant.
        #[test]
        fn wrr_residuals_sum_below_port_service(
            quanta in proptest::collection::vec(1u64..8, 2..5),
            sizes in proptest::collection::vec(64u64..1_518, 2..5),
            capacity_mbps in 10u64..1_000,
            byte_flag in 0u8..2,
        ) {
            let byte_mode = byte_flag == 1;
            let capacity = DataRate::from_mbps(capacity_mbps);
            let n = quanta.len().min(sizes.len());
            let accounting = if byte_mode { mux::WrrAccounting::Bytes } else { mux::WrrAccounting::Frames };
            let quanta: Vec<u64> = quanta[..n]
                .iter()
                .map(|&q| if byte_mode { q * 1_518 } else { q })
                .collect();
            let mut wrr = Mux::wrr(capacity, Duration::from_micros(16), accounting, &quanta);
            for (p, &s) in sizes[..n].iter().enumerate() {
                wrr.add_flow(p, TokenBucket::for_message(
                    DataSize::from_bytes(s),
                    Duration::from_millis(200),
                ), DataSize::from_bytes(s));
            }
            let port = RateLatency::new(capacity, Duration::from_micros(16));
            let residuals: Vec<RateLatency> = (0..n)
                .map(|p| wrr.residual_service(p).unwrap())
                .collect();
            let rate_sum: u64 = residuals.iter().map(|r| r.rate().bps()).sum();
            prop_assert!(rate_sum <= port.rate().bps(),
                "residual rates sum to {rate_sum} > {}", port.rate().bps());
            for t_us in [0u64, 16, 100, 1_000, 10_000, 100_000, 1_000_000] {
                let t = t_us as f64 * 1e-6;
                let sum: f64 = residuals.iter().map(|r| r.curve().eval(t)).sum();
                prop_assert!(sum <= port.curve().eval(t) + 1e-6,
                    "Σ residual {sum} above port service at t = {t_us} µs");
            }
        }

        /// A single-class WRR multiplexer is FCFS: same residual service
        /// curve, same delay bound, for any quantum and either accounting
        /// unit.
        #[test]
        fn single_class_wrr_equals_fcfs(
            quantum in 1u64..64,
            sizes in proptest::collection::vec(64u64..1_518, 1..8),
            capacity_mbps in 10u64..1_000,
            byte_flag in 0u8..2,
        ) {
            let byte_mode = byte_flag == 1;
            let capacity = DataRate::from_mbps(capacity_mbps);
            let accounting = if byte_mode { mux::WrrAccounting::Bytes } else { mux::WrrAccounting::Frames };
            let mut wrr = Mux::wrr(capacity, Duration::from_micros(16), accounting, &[quantum]);
            let mut fcfs = Mux::fcfs(capacity, Duration::from_micros(16));
            for &s in &sizes {
                let flow = TokenBucket::for_message(
                    DataSize::from_bytes(s),
                    Duration::from_millis(20),
                );
                wrr.add_flow(0, flow, DataSize::from_bytes(s));
                fcfs.add_flow(0, flow, DataSize::from_bytes(s));
            }
            let residual = wrr.residual_service(0).unwrap();
            prop_assert_eq!(residual.rate(), capacity);
            prop_assert_eq!(residual.latency(), Duration::from_micros(16));
            prop_assert_eq!(wrr.delay_bound(0, None, false), fcfs.delay_bound(0, None, false));
        }

        /// In a strict-priority multiplexer the bound of a higher priority
        /// (smaller index) never exceeds the bound the same flow set would
        /// get at a lower priority... stated the other way round: bounds are
        /// non-decreasing with the priority index when all levels carry the
        /// same traffic.
        #[test]
        fn priority_bounds_ordered(
            size in 64u64..1_518,
            capacity_mbps in 10u64..1_000,
            n_levels in 2usize..6,
        ) {
            let capacity = DataRate::from_mbps(capacity_mbps);
            let mut mux = Mux::static_priority(n_levels, capacity, Duration::from_micros(16));
            for p in 0..n_levels {
                mux.add_flow(p, TokenBucket::for_message(
                    DataSize::from_bytes(size),
                    Duration::from_millis(20),
                ), DataSize::from_bytes(size));
            }
            mux.check_stability().unwrap();
            let bounds: Vec<Duration> = (0..n_levels)
                .map(|p| mux.delay_bound(p, None, false).unwrap())
                .collect();
            for (p, w) in bounds.windows(2).enumerate() {
                prop_assert!(w[0] <= w[1],
                    "priority {p} bound {} > priority {} bound {}", w[0], p + 1, w[1]);
            }
        }

        /// The min-plus entry points run their kernels on the calling
        /// thread's reused scratch buffers.  After those buffers have held a
        /// ≈600-breakpoint port aggregate, every entry point must still give
        /// breakpoint-identical results to the same call on a fresh thread,
        /// whose buffers are allocated from empty.  The in-place simplify
        /// must match its owning form and be idempotent.
        #[test]
        fn arena_matches_allocating_breakpoint_identical(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            cross_burst in 64u64..100_000,
            cross_period_ms in 1u64..1_000,
            latency_us in 0u64..10_000,
            capacity_mbps in 1u64..1_000,
            steps in 1usize..16,
            increments in proptest::collection::vec((1u64..1_000, 0u64..1_000), 1..12),
            slope_x10 in 0u64..100,
        ) {
            let capacity = DataRate::from_mbps(capacity_mbps);
            let own = TokenBucket::for_message(
                DataSize::from_bytes(burst),
                Duration::from_millis(period_ms),
            );
            let cross = TokenBucket::for_message(
                DataSize::from_bytes(cross_burst),
                Duration::from_millis(cross_period_ms),
            );
            prop_assume!(own.rate().bps() + cross.rate().bps() < capacity.bps());
            let beta = Curve::rate_latency(
                capacity.as_f64_bps(),
                latency_us as f64 * 1e-6,
            ).unwrap();
            let cross_tb = cross.curve();
            let st_cross = Curve::staircase(
                cross.burst().as_f64_bits(),
                cross_period_ms as f64 * 1e-3,
                steps,
                capacity.as_f64_bps(),
            ).unwrap();
            let own_curve = own.curve();
            // Grow this thread's scratch to a loaded port's size first.
            let line = DataRate::from_mbps(100);
            let mut aggregate = Curve::zero();
            for i in 0..24u64 {
                aggregate = aggregate.add(&Envelope::staircase(
                    DataSize::from_bytes(64 + (i * 97) % 1_455),
                    Duration::from_millis(5 + (i * 7) % 45),
                    line,
                ).effective_curve());
            }
            prop_assert!(aggregate.points().len() > 100);
            for c in [&cross_tb, &st_cross] {
                let reused = scratch_run(&own_curve, &beta, &st_cross, c).unwrap();
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| scratch_run(&own_curve, &beta, &st_cross, c))
                        .join()
                        .expect("fresh-thread run panicked")
                }).unwrap();
                for (a, b) in reused.0.iter().zip(&fresh.0) {
                    prop_assert_eq!(a.points(), b.points());
                    prop_assert_eq!(a.final_slope(), b.final_slope());
                }
                prop_assert_eq!(reused.0.len(), fresh.0.len());
                prop_assert_eq!(reused.1, fresh.1);
            }
            // In-place simplify on a random (possibly collinear-heavy) raw
            // breakpoint list.
            let mut raw = vec![(0.0_f64, 0.0_f64)];
            let (mut x, mut y) = (0.0_f64, 0.0_f64);
            for &(dx, dy) in &increments {
                x += dx as f64 * 1e-4;
                y += dy as f64;
                raw.push((x, y));
            }
            let slope = slope_x10 as f64 * 0.1;
            let alloc = crate::curve::simplify_points(raw.clone(), slope);
            let mut in_place = raw;
            crate::curve::simplify_points_in_place(&mut in_place, slope);
            prop_assert_eq!(&alloc, &in_place);
            let mut again = in_place.clone();
            crate::curve::simplify_points_in_place(&mut again, slope);
            prop_assert_eq!(&again, &in_place);
            prop_assert!(Curve::new(in_place, slope).is_ok());
        }

        /// Every min-plus entry point agrees with the preserved
        /// candidate-enumeration implementation ([`minplus::reference`]) on
        /// campaign-shaped operand families, **bitwise**: the convex
        /// slope-merge convolution, the general (non-convex) convolution,
        /// the left-over hull, the two-pointer add and envelope difference,
        /// the sweep min combine and the horizontal deviation.
        ///
        /// The families run one after another on one thread, so every entry
        /// point reuses the thread-local scratch: a ~600-breakpoint port
        /// aggregate goes first and the one-breakpoint token bucket right
        /// after it, so a buffer that is not cleared on entry shows up as a
        /// mismatch.
        #[test]
        fn kernels_match_candidate_reference(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            cross_burst in 64u64..100_000,
            cross_period_ms in 1u64..1_000,
            latency_us in 0u64..10_000,
            capacity_mbps in 1u64..1_000,
            steps in 1usize..16,
        ) {
            use minplus::reference;
            let capacity = DataRate::from_mbps(capacity_mbps);
            let own = TokenBucket::for_message(
                DataSize::from_bytes(burst),
                Duration::from_millis(period_ms),
            );
            let cross = TokenBucket::for_message(
                DataSize::from_bytes(cross_burst),
                Duration::from_millis(cross_period_ms),
            );
            prop_assume!(own.rate().bps() + cross.rate().bps() < capacity.bps());
            let beta = Curve::rate_latency(
                capacity.as_f64_bps(),
                latency_us as f64 * 1e-6,
            ).unwrap();
            let cross_tb = cross.curve();
            let st_cross = Curve::staircase(
                cross.burst().as_f64_bits(),
                cross_period_ms as f64 * 1e-3,
                steps,
                capacity.as_f64_bps(),
            ).unwrap();
            let own_curve = own.curve();
            // A loaded port shaped like the campaign's: 24 staircase
            // envelopes with the scenario space's frame sizes and periods on
            // a 100 Mbps line, ≈600 breakpoints once summed, split back into
            // one flow's cross traffic the way the per-port analysis does.
            let line = DataRate::from_mbps(100);
            let port: Vec<Curve> = (0..24u64)
                .map(|i| Envelope::staircase(
                    DataSize::from_bytes(64 + (i * 97) % 1_455),
                    Duration::from_millis(5 + (i * 7) % 45),
                    line,
                ).effective_curve().into_owned())
                .collect();
            let mut aggregate = port[0].clone();
            for member in &port[1..] {
                let sum = aggregate.add(member);
                let sum_ref = reference::add(&aggregate, member);
                prop_assert_eq!(sum.points(), sum_ref.points());
                prop_assert_eq!(sum.final_slope(), sum_ref.final_slope());
                aggregate = sum;
            }
            let port_cross = aggregate.sub_envelope(&port[0]);
            let port_cross_ref = reference::sub_envelope(&aggregate, &port[0]);
            prop_assert_eq!(port_cross.points(), port_cross_ref.points());
            prop_assert_eq!(port_cross.final_slope(), port_cross_ref.final_slope());
            let port_beta = Curve::rate_latency(line.as_f64_bps(), 16e-6).unwrap();
            for (own_curve, beta, c) in [
                (&port[0], &port_beta, &port_cross),
                (&own_curve, &beta, &cross_tb),
                (&own_curve, &beta, &st_cross),
            ] {
                // Two-pointer add and envelope difference vs sorted grids.
                let sum = st_cross.add(c);
                let sum_ref = reference::add(&st_cross, c);
                prop_assert_eq!(sum.points(), sum_ref.points());
                prop_assert_eq!(sum.final_slope(), sum_ref.final_slope());
                let back = sum.sub_envelope(c);
                let back_ref = reference::sub_envelope(&sum, c);
                prop_assert_eq!(back.points(), back_ref.points());
                prop_assert_eq!(back.final_slope(), back_ref.final_slope());

                // Left-over hull: single grid merge vs sort-and-bisect.
                let lo = minplus::leftover(beta, c).unwrap();
                let lo_ref = reference::leftover(beta, c).unwrap();
                prop_assert_eq!(lo.points(), lo_ref.points());
                prop_assert_eq!(lo.final_slope(), lo_ref.final_slope());

                // Convex ⊗ convex: the O(n+m) slope merge vs the member fold.
                let minorant = lo.convex_minorant();
                let fast = minplus::convolve(&minorant, beta);
                let slow = reference::convolve(&minorant, beta);
                prop_assert_eq!(fast.points(), slow.points());
                prop_assert_eq!(fast.final_slope(), slow.final_slope());

                // General convolution (staircase operand defeats the convex
                // dispatch): member fold with sweep combines vs with
                // candidate-enumeration combines.
                let gen_new = minplus::convolve(&st_cross, &lo);
                let gen_ref = reference::convolve(&st_cross, &lo);
                prop_assert_eq!(gen_new.points(), gen_ref.points());
                prop_assert_eq!(gen_new.final_slope(), gen_ref.final_slope());

                // Sweep envelope combine vs candidate enumeration.
                let lo_min = st_cross.min(c);
                let min_ref = reference::min(&st_cross, c);
                prop_assert_eq!(lo_min.points(), min_ref.points());
                prop_assert_eq!(lo_min.final_slope(), min_ref.final_slope());

                // Deviation: monotone-cursor candidates vs O(n·m) rescans.
                prop_assert_eq!(
                    minplus::horizontal_deviation(own_curve, &lo, None).unwrap(),
                    reference::horizontal_deviation(own_curve, &lo).unwrap()
                );
            }
        }

        /// The horizon cut of a staircase, delayed or not, keeps the
        /// curve's breakpoints up to its cut bit for bit, continues at the
        /// staircase's long-term rate (within one bit per second of the
        /// token bucket's), and lies on or above the uncut curve — and at
        /// or below the token bucket — at every breakpoint of either curve.
        #[test]
        fn horizon_cut_keeps_the_prefix_and_bounds_the_staircase(
            bytes in 64u64..1_500,
            period_ms in 1u64..200,
            capacity_mbps in 10u64..1_000,
            delay_us in 0u64..20_000,
            horizon_steps in 1u64..20,
        ) {
            let length = DataSize::from_bytes(bytes);
            let period = Duration::from_millis(period_ms);
            let staircase = Envelope::staircase(length, period, DataRate::from_mbps(capacity_mbps));
            let delay = Duration::from_micros(delay_us.saturating_sub(10_000));
            let env = staircase.delayed(delay).unwrap();
            let Some(uncut) = env.extra() else {
                return Ok(());
            };
            let horizon = horizon_steps as f64 * period.as_secs_f64() / 2.0;
            let tops = uncut.riser_tops();
            let Some(cut) = uncut.horizon_cut(&tops, horizon) else {
                // No riser top past the horizon before the staircase ends.
                prop_assert!(tops.iter().all(|&x| x <= horizon));
                return Ok(());
            };
            let (cp, up) = (cut.points(), uncut.points());
            prop_assert!(cp.len() < up.len(), "the cut dropped no breakpoint");
            prop_assert!(cp.last().unwrap().0 > horizon, "cut before the horizon");
            for (k, (c, u)) in cp.iter().zip(up).enumerate() {
                prop_assert!(c.0.to_bits() == u.0.to_bits() && c.1.to_bits() == u.1.to_bits(),
                    "breakpoint {k} changed: {c:?} vs {u:?}");
            }
            prop_assert_eq!(cut.final_slope().to_bits(), uncut.final_slope().to_bits());
            let bucket = env.token_bucket().curve();
            prop_assert!((bucket.final_slope() - cut.final_slope()).abs() <= 1.0);
            for &(x, _) in cp.iter().chain(up) {
                let (c, u, b) = (cut.eval(x), uncut.eval(x), bucket.eval(x));
                prop_assert!(c + curve::EPS >= u, "cut below the staircase at {x}: {c} < {u}");
                prop_assert!(c <= b + curve::EPS, "cut above the bucket at {x}: {c} > {b}");
            }
        }

        /// The horizontal deviation with its early exit equals the
        /// candidate-enumeration oracle bit for bit: sums of delayed and cut
        /// staircases under their token bucket, against left-over curves of
        /// staircase cross traffic above their rate-latency bound, plus an
        /// unstable pair and a service curve whose ordinates dip by less
        /// than `EPS`, so that the inverse candidates come out unsorted.
        #[test]
        fn early_exit_deviation_matches_the_reference(
            flows in proptest::collection::vec((64u64..1_500, 1u64..100, 0u64..45_000), 1..7),
            cross in proptest::collection::vec((64u64..1_500, 1u64..100, 0u64..45_000), 0..7),
            capacity_mbps in 10u64..1_000,
            latency_us in 0u64..200,
        ) {
            use minplus::reference;
            let line = DataRate::from_mbps(capacity_mbps);
            let (alpha, bucket, _) = staircase_sum(&flows, line);
            let (cross_curve, cross_bucket, _) = staircase_sum(&cross, line);
            let port = RateLatency::new(line, Duration::from_micros(latency_us));
            let Some(server) = port.leftover(&cross_bucket) else {
                return Ok(());
            };
            let Ok(lo) = minplus::leftover(&port.curve(), &cross_curve) else {
                return Ok(());
            };
            let tail = Some((&bucket, &server));
            let exhaustive = minplus::horizontal_deviation(&alpha, &lo, None);
            let early = minplus::horizontal_deviation(&alpha, &lo, tail);
            prop_assert!(same_deviation(early.clone(), reference::horizontal_deviation(&alpha, &lo)),
                "{early:?} vs the reference");
            prop_assert!(same_deviation(early, exhaustive));

            let flood = alpha.add(&Curve::affine(0.0, lo.final_slope()).unwrap());
            prop_assert!(minplus::horizontal_deviation(&flood, &lo, tail).is_err());
            prop_assert!(reference::horizontal_deviation(&flood, &lo).is_err());

            // A rate-latency curve that dips 5·10⁻⁷ bits right after
            // reaching `y` against a token bucket below `y`: the inverse of
            // the dip lands before the inverse of `y`.
            let (b, r) = (bucket.burst().as_f64_bits(), bucket.rate().as_f64_bps());
            let (rate, latency) = (server.rate().as_f64_bps(), server.latency().as_secs_f64());
            let y = b + r * 1e-3 + 1.0;
            let top = latency + y / rate;
            let dipping = Curve::new(
                vec![(0.0, 0.0), (latency, 0.0), (top, y), (top + 1e-3, y - 5e-7)],
                rate,
            ).unwrap();
            prop_assert!(alpha.inverse(y - 5e-7) < alpha.inverse(y) || r == 0.0);
            let below = RateLatency::new(server.rate(), server.latency() + Duration::from_millis(2));
            let affine = bucket.curve();
            prop_assert!(same_deviation(
                minplus::horizontal_deviation(&affine, &dipping, Some((&bucket, &below))),
                reference::horizontal_deviation(&affine, &dipping),
            ));
        }

        /// The fused left-over pass equals the left-over against the
        /// materialised cross traffic, curve and cross-traffic exact-until
        /// alike, on aggregates of 1–12 delayed and cut staircases.
        #[test]
        fn fused_leftover_matches_the_two_step_pass(
            flows in proptest::collection::vec((64u64..1_500, 1u64..100, 0u64..45_000), 1..13),
            capacity_mbps in 10u64..1_000,
            latency_us in 0u64..200,
            pick in 0usize..12,
        ) {
            let line = DataRate::from_mbps(capacity_mbps);
            let (aggregate, _, first_cut) = staircase_sum(&flows, line);
            let (bytes, period_ms, shape) = flows[pick % flows.len()];
            let (own, _) = delayed_cut_staircase(bytes, period_ms, shape, line);
            let beta = Curve::rate_latency(line.as_f64_bps(), latency_us as f64 * 1e-6).unwrap();
            let cross = aggregate.sub_envelope(&own);
            let cross_until = cross
                .points()
                .iter()
                .take_while(|p| p.0 <= first_cut)
                .last()
                .map_or(f64::NEG_INFINITY, |p| p.0);
            match (
                minplus::leftover_within(&beta, &aggregate, &own, first_cut),
                minplus::leftover(&beta, &cross),
            ) {
                (Ok((fused, until)), Ok(two_step)) => {
                    prop_assert_eq!(until.to_bits(), cross_until.to_bits());
                    prop_assert_eq!(fused.final_slope().to_bits(), two_step.final_slope().to_bits());
                    prop_assert_eq!(fused.points().len(), two_step.points().len());
                    for (f, t) in fused.points().iter().zip(two_step.points()) {
                        prop_assert!(f.0.to_bits() == t.0.to_bits() && f.1.to_bits() == t.1.to_bits(),
                            "{f:?} vs {t:?}");
                    }
                }
                (Err(_), Err(_)) => {}
                (fused, two_step) => prop_assert!(false, "{fused:?} vs {two_step:?}"),
            }
        }

        /// Horizon truncation is sound: a staircase envelope represents
        /// `steps` steps exactly and continues with the average rate beyond
        /// them, so it reads `(k + 1)·burst` at every step instant `k·T`
        /// inside the horizon, dominates the instantaneous release
        /// `burst·(⌊t/T⌋ + 1)` everywhere — beyond the horizon too — stays
        /// below the token bucket `burst + t·burst/T` everywhere, and
        /// carries at most two breakpoints per step plus the origin.
        #[test]
        fn horizon_truncation_is_sound(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            steps in 1usize..16,
            capacity_mbps in 1u64..1_000,
        ) {
            let b = burst as f64 * 8.0;
            let period = period_ms as f64 * 1e-3;
            let st = Curve::staircase(
                b,
                period,
                steps,
                DataRate::from_mbps(capacity_mbps).as_f64_bps(),
            ).unwrap();
            let tol = |v: f64| 1e-6f64.max(1e-9 * v.abs());
            prop_assert!(st.points().len() <= 2 * steps + 1);
            for k in 0..=steps {
                let t = k as f64 * period;
                let exact = b * (k as f64 + 1.0);
                prop_assert!((st.eval(t) - exact).abs() <= tol(exact),
                    "step instant {k}: {} != {exact}", st.eval(t));
            }
            let horizon = steps as f64 * period;
            for i in 0..=80 {
                let t = 2.0 * horizon * i as f64 / 80.0;
                let value = st.eval(t);
                let released = b * ((t / period).floor() + 1.0);
                let bucket = b + t * b / period;
                prop_assert!(value + tol(released) >= released,
                    "staircase dipped below the release at t={t}: {value} < {released}");
                prop_assert!(value <= bucket + tol(bucket),
                    "staircase rose above the token bucket at t={t}: {value} > {bucket}");
            }
        }
    }
}
