//! Arrival curves: token buckets and aggregates.

use crate::curve::Curve;
use serde::{Deserialize, Serialize};
use units::{DataRate, DataSize, Duration};

/// A token-bucket (σ, ρ) arrival envelope: at most `burst + rate·t` bits in
/// any window of length `t`.
///
/// The paper regulates every message stream `i` of length `b_i` and period
/// (or minimal inter-arrival time) `T_i` with the token bucket
/// `(b_i, r_i = b_i / T_i)`; [`TokenBucket::for_message`] builds exactly that
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenBucket {
    burst: DataSize,
    rate: DataRate,
}

impl TokenBucket {
    /// Creates a token bucket from an explicit burst and rate.
    pub fn new(burst: DataSize, rate: DataRate) -> Self {
        TokenBucket { burst, rate }
    }

    /// The paper's per-message shaper: bucket depth `b_i` (one message) and
    /// rate `r_i = b_i / T_i`.
    ///
    /// # Panics
    /// Panics if `period` is zero: a message with a zero period has no
    /// finite sustained rate and cannot be shaped.
    pub fn for_message(length: DataSize, period: Duration) -> Self {
        let rate = DataRate::per(length, period)
            .expect("message period must be non-zero to derive a shaper rate");
        TokenBucket {
            burst: length,
            rate,
        }
    }

    /// The bucket depth (maximal burst), in bits.
    pub fn burst(&self) -> DataSize {
        self.burst
    }

    /// The token accumulation rate.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// The affine arrival curve `b + r·t`, in (seconds, bits).
    pub fn curve(&self) -> Curve {
        Curve::affine(self.burst.as_f64_bits(), self.rate.as_f64_bps())
            .expect("token bucket parameters are always a valid affine curve")
    }

    /// The aggregate envelope of two token-bucket flows multiplexed together
    /// (bursts add, rates add).
    pub fn aggregate(&self, other: &TokenBucket) -> TokenBucket {
        TokenBucket {
            burst: self.burst + other.burst,
            rate: self.rate + other.rate,
        }
    }

    /// Aggregates an iterator of token buckets (identity: zero burst, zero
    /// rate).
    pub fn aggregate_all<T, I>(flows: I) -> TokenBucket
    where
        T: core::borrow::Borrow<TokenBucket>,
        I: IntoIterator<Item = T>,
    {
        flows.into_iter().fold(
            TokenBucket::new(DataSize::ZERO, DataRate::ZERO),
            |acc, f| acc.aggregate(f.borrow()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn for_message_matches_paper_definition() {
        // b_i = 512 bits (64 bytes), T_i = 20 ms -> r_i = 25.6 kbps.
        let tb = TokenBucket::for_message(DataSize::from_bytes(64), ms(20));
        assert_eq!(tb.burst(), DataSize::from_bytes(64));
        assert_eq!(tb.rate(), DataRate::from_kbps(25) + DataRate::from_bps(600));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn for_message_rejects_zero_period() {
        let _ = TokenBucket::for_message(DataSize::from_bytes(64), Duration::ZERO);
    }

    #[test]
    fn traffic_in_window() {
        let tb = TokenBucket::for_message(DataSize::from_bytes(64), ms(20));
        // Over one period the envelope allows the burst plus one more message
        // worth of tokens (or slightly more due to ceil on the rate).
        let allowed = tb.curve().eval(0.02);
        assert!(allowed >= DataSize::from_bytes(128).as_f64_bits());
        assert!(allowed <= DataSize::from_bytes(129).as_f64_bits());
        assert_eq!(tb.curve().eval(0.0), DataSize::from_bytes(64).as_f64_bits());
    }

    #[test]
    fn aggregate_adds_bursts_and_rates() {
        let a = TokenBucket::new(DataSize::from_bits(100), DataRate::from_bps(10));
        let b = TokenBucket::new(DataSize::from_bits(50), DataRate::from_bps(20));
        let agg = a.aggregate(&b);
        assert_eq!(agg.burst(), DataSize::from_bits(150));
        assert_eq!(agg.rate(), DataRate::from_bps(30));

        let all = TokenBucket::aggregate_all([&a, &b, &agg]);
        assert_eq!(all.burst(), DataSize::from_bits(300));
        assert_eq!(all.rate(), DataRate::from_bps(60));

        let none = TokenBucket::aggregate_all(core::iter::empty::<&TokenBucket>());
        assert_eq!(none.burst(), DataSize::ZERO);
        assert_eq!(none.rate(), DataRate::ZERO);
    }

    #[test]
    fn token_bucket_curve_is_affine() {
        let tb = TokenBucket::new(DataSize::from_bits(512), DataRate::from_bps(25_600));
        let c = tb.curve();
        assert!((c.eval(0.0) - 512.0).abs() < 1e-9);
        assert!((c.eval(1.0) - 26_112.0).abs() < 1e-6);
    }

    #[test]
    fn periodic_envelope_is_tighter_than_token_bucket() {
        // A periodic source's staircase envelope.
        let env = Envelope::staircase(DataSize::from_bytes(64), ms(20), DataRate::from_mbps(10));
        let tight = env.effective_curve();
        let loose = env.token_bucket().curve();
        // The staircase envelope never exceeds the token bucket…
        for &t in &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2] {
            assert!(tight.eval(t) <= loose.eval(t) + 1e-6);
        }
        // …is strictly below it inside a step…
        assert!(tight.eval(0.01) + 100.0 < loose.eval(0.01));
        // …and burst/rate accessors mirror the token bucket's.
        assert_eq!(env.burst(), DataSize::from_bytes(64));
        assert_eq!(env.rate(), env.token_bucket().rate());
        assert_eq!(
            env.token_bucket(),
            TokenBucket::for_message(env.burst(), ms(20))
        );
    }
}
