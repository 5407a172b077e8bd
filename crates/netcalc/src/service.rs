//! Service curves: rate-latency servers.

use crate::arrival::TokenBucket;
use crate::curve::Curve;
use serde::{Deserialize, Serialize};
use units::{DataRate, Duration};

/// A rate-latency service curve `β_{R,T}(t) = R·(t − T)⁺`.
///
/// The paper models the output link of a station or of a switch port as a
/// constant-rate server of capacity `C` preceded by a bounded technological
/// latency `t_techno`; that is exactly `β_{C, t_techno}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLatency {
    rate: DataRate,
    latency: Duration,
}

impl RateLatency {
    /// Creates a rate-latency server.
    pub fn new(rate: DataRate, latency: Duration) -> Self {
        RateLatency { rate, latency }
    }

    /// The guaranteed service rate.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// The worst-case initial latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// The convex service curve `R·(t − T)⁺`, in (seconds, bits).
    pub fn curve(&self) -> Curve {
        Curve::rate_latency(self.rate.as_f64_bps(), self.latency.as_secs_f64())
            .expect("rate-latency parameters are always a valid curve")
    }

    /// The concatenation of two rate-latency servers traversed in sequence:
    /// the min-plus convolution of two rate-latency curves is again a
    /// rate-latency curve with the minimum of the rates and the sum of the
    /// latencies.
    pub fn concatenate(&self, next: &RateLatency) -> RateLatency {
        RateLatency {
            rate: self.rate.min(next.rate),
            latency: self.latency + next.latency,
        }
    }

    /// The blind-multiplexing **left-over service curve** seen by one flow
    /// that shares this server with token-bucket cross traffic `cross`:
    ///
    /// `β_i(t) = [β(t) − α_cross(t)]⁺ = (R − ρ)·(t − T*)⁺` with
    /// `T* = (R·T + σ) / (R − ρ)`,
    ///
    /// where `(σ, ρ)` are the cross traffic's burst and rate.  This is the
    /// standard arbitrary-multiplexing residual (Le Boudec & Thiran,
    /// Thm 6.2.1): it is a valid service curve for the flow under *any*
    /// work-conserving arbitration among the multiplexed flows — FIFO and
    /// non-preemptive strict priority included — which is what makes it the
    /// per-flow building block of the pay-bursts-only-once end-to-end
    /// analysis.  The latency is rounded **up** to the next nanosecond so
    /// the curve stays pessimistic.
    ///
    /// Returns `None` when the cross traffic saturates the server
    /// (`ρ ≥ R`): no finite left-over service exists.
    ///
    /// ```
    /// use netcalc::{RateLatency, TokenBucket};
    /// use units::{DataRate, DataSize, Duration};
    ///
    /// // A 10 Mbps link with 16 µs latency, shared with 4 Mbps / 8 kbit
    /// // cross traffic.
    /// let server = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
    /// let cross = TokenBucket::new(DataSize::from_bits(8_000), DataRate::from_mbps(4));
    /// let left = server.leftover(&cross).unwrap();
    /// assert_eq!(left.rate(), DataRate::from_mbps(6));
    /// // T* = (10^7·16e-6 + 8000) / (6·10^6) s = 8160/6e6 s = 1360 µs.
    /// assert_eq!(left.latency(), Duration::from_micros(1_360));
    /// // Saturating cross traffic leaves nothing over.
    /// assert!(server
    ///     .leftover(&TokenBucket::new(DataSize::ZERO, DataRate::from_mbps(10)))
    ///     .is_none());
    /// ```
    pub fn leftover(&self, cross: &TokenBucket) -> Option<RateLatency> {
        if cross.rate() >= self.rate {
            return None;
        }
        let residual = self.rate - cross.rate();
        let latency_s = (self.rate.as_f64_bps() * self.latency.as_secs_f64()
            + cross.burst().as_f64_bits())
            / residual.as_f64_bps();
        Some(RateLatency {
            rate: residual,
            latency: Duration::from_secs_f64_ceil(latency_s),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::delay_bound;
    use crate::mux::Mux;
    use units::DataSize;

    #[test]
    fn accessors_and_curve() {
        let s = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
        assert_eq!(s.rate(), DataRate::from_mbps(10));
        assert_eq!(s.latency(), Duration::from_micros(16));
        let c = s.curve();
        assert_eq!(c.eval(0.000_016), 0.0);
        assert!((c.eval(0.001_016) - 10_000.0).abs() < 1e-3);
    }

    #[test]
    fn constant_rate_has_zero_latency() {
        // A constant-rate server is the rate-latency server without dead
        // time: its curve starts rising at the origin.
        let s = RateLatency::new(DataRate::from_mbps(100), Duration::ZERO);
        assert_eq!(s.curve().points(), &[(0.0, 0.0)]);
        assert!((s.curve().eval(0.001) - 100_000.0).abs() < 1e-3);
    }

    #[test]
    fn concatenation_adds_latencies_and_takes_min_rate() {
        let a = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
        let b = RateLatency::new(DataRate::from_mbps(100), Duration::from_micros(5));
        let c = a.concatenate(&b);
        assert_eq!(c.rate(), DataRate::from_mbps(10));
        assert_eq!(c.latency(), Duration::from_micros(21));
    }

    #[test]
    fn residual_service() {
        // A strict-priority level's residual service: 4 Mbps of
        // higher-priority interference leaves 6 Mbps of a 10 Mbps / 16 µs
        // port, after a 600-bit lower-priority frame blocks it for
        // 600 / 6·10^6 s = 100 µs.
        let port = |higher: u64| {
            let mut mux =
                Mux::static_priority(3, DataRate::from_mbps(10), Duration::from_micros(16));
            let frame = DataSize::from_bits(600);
            mux.add_flow(
                0,
                TokenBucket::new(frame, DataRate::from_mbps(higher)),
                frame,
            );
            mux.add_flow(2, TokenBucket::new(frame, DataRate::from_bps(1)), frame);
            mux
        };
        let res = port(4).residual_service(1).unwrap();
        assert_eq!(res.rate(), DataRate::from_mbps(6));
        assert_eq!(res.latency(), Duration::from_micros(116));
        // Saturated by interference.
        assert!(port(10).residual_service(1).is_err());
        assert!(port(11).residual_service(1).is_err());
    }

    #[test]
    fn leftover_reduces_rate_and_inflates_latency() {
        let s = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
        let cross = TokenBucket::new(DataSize::from_bits(8_000), DataRate::from_mbps(4));
        let left = s.leftover(&cross).unwrap();
        assert_eq!(left.rate(), DataRate::from_mbps(6));
        assert_eq!(left.latency(), Duration::from_micros(1_360));
        // With no cross traffic the server is returned unchanged.
        let idle = s
            .leftover(&TokenBucket::new(DataSize::ZERO, DataRate::ZERO))
            .unwrap();
        assert_eq!(idle.rate(), s.rate());
        assert_eq!(idle.latency(), s.latency());
        // Saturation (ρ ≥ R) has no finite left-over.
        assert!(s
            .leftover(&TokenBucket::new(DataSize::ZERO, DataRate::from_mbps(10)))
            .is_none());
        assert!(s
            .leftover(&TokenBucket::new(DataSize::ZERO, DataRate::from_mbps(12)))
            .is_none());
    }

    #[test]
    fn leftover_latency_dominates_the_original() {
        let s = RateLatency::new(DataRate::from_mbps(100), Duration::from_micros(5));
        let cross = TokenBucket::new(DataSize::from_bytes(1518), DataRate::from_mbps(30));
        let left = s.leftover(&cross).unwrap();
        assert!(left.latency() >= s.latency());
        assert!(left.rate() < s.rate());
    }

    #[test]
    fn completion_time() {
        // The worst-case completion time of a lone burst is the delay bound
        // `T + b/R` of a token bucket that holds only that burst.
        let s = RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16));
        let completion = |size| delay_bound(&TokenBucket::new(size, DataRate::ZERO), &s).unwrap();
        // 100 bytes = 800 bits -> 80 us, plus 16 us latency.
        assert_eq!(
            completion(DataSize::from_bytes(100)),
            Duration::from_micros(96)
        );
        assert_eq!(completion(DataSize::ZERO), Duration::from_micros(16));
    }
}
