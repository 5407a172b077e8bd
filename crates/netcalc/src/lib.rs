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
//!   the arrival and service curves and the worst-case backlog the vertical
//!   deviation ([`bounds`]).
//! * **Multiplexers**: the paper's two aggregation formulas — the FCFS bound
//!   `D = Σ b_i / C + t_techno` and the strict-priority bound
//!   `D_p = (Σ_{q≤p} b_i + max_{q>p} b_j) / (C − Σ_{q<p} r_i) + t_techno` —
//!   are implemented verbatim in [`mux`], together with service-curve based
//!   refinements.
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

pub use arrival::{ArrivalBound, PeriodicEnvelope, TokenBucket};
pub use bounds::{backlog_bound, delay_bound, output_burst};
pub use curve::Curve;
pub use envelope::{Envelope, EnvelopeModel};
pub use minplus::{convolve, deconvolve, leftover};
pub use mux::{
    FcfsMux, Mux, PriorityLevelReport, StaticPriorityMux, WrrAccounting, WrrClassReport, WrrFlow,
    WrrMux,
};
pub use service::{RateLatency, ServiceBound};

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
    /// The requested priority level does not exist in the multiplexer.
    UnknownPriority(usize),
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
            NcError::UnknownPriority(p) => write!(f, "unknown priority level {p}"),
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
    /// the curves (left-over, output envelope, convolution, sum, envelope
    /// difference, min, max) and the two deviations.
    type ScratchRun = (Vec<Curve>, f64, f64);

    /// Runs every scratch-backed entry point on one flow's curves, in the
    /// order the per-port analysis calls them.
    fn scratch_run(
        own: &Curve,
        beta: &Curve,
        st_cross: &Curve,
        cross: &Curve,
    ) -> Result<ScratchRun, NcError> {
        let lo = minplus::leftover(beta, cross)?;
        let out = minplus::deconvolve(own, &lo)?;
        let conv = minplus::convolve(beta, &lo);
        let sum = st_cross.add(cross);
        let back = sum.sub_envelope(cross);
        let min = st_cross.min(cross);
        let max = st_cross.max(cross);
        let h = minplus::horizontal_deviation(own, &lo)?;
        let v = minplus::vertical_deviation(own, &lo)?;
        Ok((vec![lo, out, conv, sum, back, min, max], h, v))
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
            let general = minplus::horizontal_deviation(&tb.curve(), &sc.curve()).unwrap();
            let general = Duration::from_secs_f64_ceil(general);
            let diff = closed.as_nanos().abs_diff(general.as_nanos());
            prop_assert!(diff <= 1, "closed {closed} vs general {general}");
        }

        /// The FCFS bound grows monotonically with every additional flow.
        #[test]
        fn fcfs_bound_monotone_in_flows(
            sizes in proptest::collection::vec(64u64..1_600, 1..20),
            capacity_mbps in 100u64..1_000,
        ) {
            let capacity = DataRate::from_mbps(capacity_mbps);
            let mut mux = FcfsMux::new(capacity, Duration::from_micros(16));
            let mut last = Duration::ZERO;
            for (k, s) in sizes.iter().enumerate() {
                mux.add_flow(TokenBucket::for_message(
                    DataSize::from_bytes(*s),
                    Duration::from_millis(20),
                ));
                let d = mux.delay_bound().unwrap();
                prop_assert!(d >= last, "bound decreased after adding flow {k}");
                last = d;
            }
        }

        /// Pay bursts only once: for a token-bucket flow crossing a sequence
        /// of rate-latency servers, the end-to-end delay bound obtained from
        /// the *convolved* network service curve never exceeds the sum of
        /// the per-hop bounds (with the burst re-inflated at every hop).
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
                hop_sum += bounds::delay_bound(&alpha, server).unwrap();
                alpha = bounds::output_burst(&alpha, server).unwrap();
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
        /// closed form (minimum rate, summed latencies) on random
        /// rate-latency pairs.
        #[test]
        fn general_convolution_matches_closed_form(
            rate_a_mbps in 1u64..1_000,
            latency_a_us in 0u64..10_000,
            rate_b_mbps in 1u64..1_000,
            latency_b_us in 0u64..10_000,
        ) {
            let a = Curve::rate_latency(rate_a_mbps as f64 * 1e6, latency_a_us as f64 * 1e-6).unwrap();
            let b = Curve::rate_latency(rate_b_mbps as f64 * 1e6, latency_b_us as f64 * 1e-6).unwrap();
            let general = minplus::convolve(&a, &b);
            let closed = minplus::convolve_rate_latency(&a, &b).unwrap();
            prop_assert!(general.approx_eq(&closed), "{general:?} vs {closed:?}");
        }

        /// The general min-plus deconvolution agrees with the token-bucket
        /// closed form `(b + r·T, r)` on random token-bucket/rate-latency
        /// pairs.
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
            let beta = Curve::rate_latency(
                capacity.as_f64_bps(),
                latency_us as f64 * 1e-6,
            ).unwrap();
            let out = minplus::deconvolve(&tb.curve(), &beta).unwrap();
            let closed_burst = minplus::output_burst_token_bucket(
                tb.burst().as_f64_bits(),
                tb.rate().as_f64_bps(),
                capacity.as_f64_bps(),
                latency_us as f64 * 1e-6,
            ).unwrap();
            let closed = Curve::affine(closed_burst, tb.rate().as_f64_bps()).unwrap();
            prop_assert!(out.approx_eq(&closed), "{out:?} vs {closed:?}");
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
            let h_st = minplus::horizontal_deviation(&st.curve(), &beta.curve()).unwrap();
            let h_tb = minplus::horizontal_deviation(&tb.curve(), &beta.curve()).unwrap();
            prop_assert!(h_st <= h_tb + 1e-12, "fresh: {h_st} > {h_tb}");
            // …and after propagating through an upstream delay, where the
            // staircase's flat step keeps the effective burst down.
            let delay = Duration::from_micros(delay_us);
            let st_out = st.delayed(delay).unwrap();
            let tb_out = Envelope::from(tb).delayed(delay).unwrap();
            let h_st = minplus::horizontal_deviation(&st_out.curve(), &beta.curve()).unwrap();
            let h_tb = minplus::horizontal_deviation(&tb_out.curve(), &beta.curve()).unwrap();
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
            let mut wrr = mux::WrrMux::new(capacity, Duration::from_micros(16), accounting, &quanta);
            for (p, &s) in sizes[..n].iter().enumerate() {
                wrr.add_flow(p, TokenBucket::for_message(
                    DataSize::from_bytes(s),
                    Duration::from_millis(200),
                ), DataSize::from_bytes(s)).unwrap();
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
            let mut wrr = mux::WrrMux::new(capacity, Duration::from_micros(16), accounting, &[quantum]);
            let mut fcfs = FcfsMux::new(capacity, Duration::from_micros(16));
            for &s in &sizes {
                let flow = TokenBucket::for_message(
                    DataSize::from_bytes(s),
                    Duration::from_millis(20),
                );
                wrr.add_flow(0, flow, DataSize::from_bytes(s)).unwrap();
                fcfs.add_flow(flow);
            }
            let residual = wrr.residual_service(0).unwrap();
            prop_assert_eq!(residual.rate(), capacity);
            prop_assert_eq!(residual.latency(), Duration::from_micros(16));
            prop_assert_eq!(wrr.delay_bound(0).unwrap(), fcfs.delay_bound().unwrap());
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
            let mut mux = StaticPriorityMux::new(n_levels, capacity, Duration::from_micros(16));
            for p in 0..n_levels {
                mux.add_flow(p, TokenBucket::for_message(
                    DataSize::from_bytes(size),
                    Duration::from_millis(20),
                )).unwrap();
            }
            let report = mux.analyze().unwrap();
            for w in report.windows(2) {
                prop_assert!(w[0].delay_bound <= w[1].delay_bound,
                    "priority {} bound {} > priority {} bound {}",
                    w[0].priority, w[0].delay_bound, w[1].priority, w[1].delay_bound);
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
                ).curve());
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
                prop_assert_eq!(reused.2, fresh.2);
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
        /// campaign-shaped operand families.  The convex slope-merge
        /// convolution, the general (non-convex) convolution, the left-over
        /// hull, the two-pointer add and envelope difference, the sweep
        /// min/max combine and both deviations are pinned **bitwise**; the
        /// balanced-reduction deconvolution computes the same function
        /// through a different association order, so it is pinned with the
        /// relative-tolerance [`Curve::approx_eq`].
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
            // A loaded port shaped like the campaign's (and E17's): 24
            // staircase envelopes with the scenario space's frame sizes and
            // periods on a 100 Mbps line, ≈600 breakpoints once summed, split
            // back into one flow's cross traffic the way the per-port
            // analysis does.
            let line = DataRate::from_mbps(100);
            let port: Vec<Curve> = (0..24u64)
                .map(|i| Envelope::staircase(
                    DataSize::from_bytes(64 + (i * 97) % 1_455),
                    Duration::from_millis(5 + (i * 7) % 45),
                    line,
                ).curve())
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
                let lo_max = st_cross.max(c);
                let max_ref = reference::max(&st_cross, c);
                prop_assert_eq!(lo_max.points(), max_ref.points());

                // Deviations: monotone-cursor candidates vs O(n·m) rescans.
                prop_assert_eq!(
                    minplus::horizontal_deviation(own_curve, &lo).unwrap(),
                    reference::horizontal_deviation(own_curve, &lo).unwrap()
                );
                prop_assert_eq!(
                    minplus::vertical_deviation(own_curve, &lo).unwrap(),
                    reference::vertical_deviation(own_curve, &lo).unwrap()
                );

                // Balanced-reduction deconvolution: same upper envelope,
                // different association order.
                let out = minplus::deconvolve(own_curve, &lo).unwrap();
                let out_ref = reference::deconvolve(own_curve, &lo).unwrap();
                prop_assert!(out.approx_eq(&out_ref), "{out:?} vs {out_ref:?}");
            }
        }

        /// Horizon truncation is sound: a truncated arrival curve dominates
        /// the original everywhere (it stays a valid upper envelope), a
        /// truncated service curve lower-bounds the original everywhere (it
        /// stays a valid guarantee), both are exact inside the horizon, and
        /// both carry at most one breakpoint more than the original had
        /// inside the horizon.
        #[test]
        fn horizon_truncation_is_sound(
            burst in 64u64..100_000,
            period_ms in 1u64..1_000,
            steps in 1usize..16,
            capacity_mbps in 1u64..1_000,
            latency_us in 0u64..10_000,
            horizon_pct in 5u64..200,
        ) {
            let horizon_frac = horizon_pct as f64 / 100.0;
            let capacity = DataRate::from_mbps(capacity_mbps);
            let st = Curve::staircase(
                burst as f64 * 8.0,
                period_ms as f64 * 1e-3,
                steps,
                capacity.as_f64_bps(),
            ).unwrap();
            let beta = Curve::rate_latency(
                capacity.as_f64_bps(),
                latency_us as f64 * 1e-6,
            ).unwrap();
            let last_x = st.points().last().unwrap().0.max(1e-6);
            let horizon = horizon_frac * last_x;
            let tol = |v: f64| 1e-6f64.max(1e-9 * v.abs());

            let ta = st.truncate_arrival(horizon).unwrap();
            let within = st.points().iter().filter(|p| p.0 <= horizon).count();
            prop_assert!(ta.points().len() <= within + 1);
            for i in 0..40 {
                let t = 2.0 * last_x * i as f64 / 39.0;
                let (orig, trunc) = (st.eval(t), ta.eval(t));
                prop_assert!(trunc + tol(orig) >= orig,
                    "arrival truncation dipped below the original at t={t}: {trunc} < {orig}");
                if t <= horizon {
                    prop_assert!((trunc - orig).abs() <= tol(orig),
                        "arrival truncation inexact inside the horizon at t={t}");
                }
            }

            let tb = beta.truncate_service(horizon).unwrap();
            let within = beta.points().iter().filter(|p| p.0 <= horizon).count();
            prop_assert!(tb.points().len() <= within + 1);
            for i in 0..40 {
                let t = 2.0 * last_x * i as f64 / 39.0;
                let (orig, trunc) = (beta.eval(t), tb.eval(t));
                prop_assert!(trunc <= orig + tol(orig),
                    "service truncation rose above the original at t={t}: {trunc} > {orig}");
                if t <= horizon {
                    prop_assert!((trunc - orig).abs() <= tol(orig),
                        "service truncation inexact inside the horizon at t={t}");
                }
            }
        }
    }
}
