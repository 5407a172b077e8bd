//! The curve-carrying arrival abstraction the analysis stack threads end
//! to end.
//!
//! An [`Envelope`] always carries a token-bucket summary `(b, r)` — the
//! exact integer quantities the paper's closed forms consume — and may
//! additionally carry a tighter piecewise-linear constraint (e.g. the
//! staircase of a strictly periodic source).  Every consumer follows the
//! same contract:
//!
//! * when no flow carries an extra constraint, only the closed forms run
//!   and the results are **bit-identical** to the pre-curve pipeline;
//! * when extras are present, the general min-plus machinery runs on the
//!   effective curves and the result is the minimum of both bounds (each
//!   is sound on its own, so the minimum is too — and it never loses to
//!   the closed form).

use crate::arrival::{ArrivalBound, TokenBucket};
use crate::curve::Curve;
use crate::NcError;
use serde::{Deserialize, Serialize};
use units::{DataRate, DataSize, Duration};

/// Which arrival-envelope family an analysis derives for each flow — the
/// campaign's envelope ablation dimension.
///
/// `Ord` lets the model participate in composite cache keys (the admission
/// engine keys its per-port curve cache by `(port, policy arm, model)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EnvelopeModel {
    /// The paper's affine token bucket `(b_i, r_i = b_i / T_i)` only.
    TokenBucket,
    /// The staircase of the source's release pattern (tight for periodic
    /// and minimum-interarrival sporadic sources alike), carried alongside
    /// the token-bucket summary: `staircase ∧ token bucket`.
    Staircase,
}

impl core::fmt::Display for EnvelopeModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EnvelopeModel::TokenBucket => write!(f, "token-bucket"),
            EnvelopeModel::Staircase => write!(f, "staircase"),
        }
    }
}

/// Number of staircase steps an [`Envelope::staircase`] represents exactly
/// before its tail falls back to the token bucket.  Beyond the covered
/// steps the envelope *is* the token bucket, so steps only bound how long
/// the curve hugs tight; 16 periods comfortably covers every candidate
/// abscissa the deviation computations visit at avionics utilizations
/// while keeping aggregate curves small on the campaign hot path.
pub const STAIRCASE_STEPS: usize = 16;

/// An arrival envelope: a token-bucket summary plus an optional tighter
/// piecewise-linear constraint.
///
/// ```
/// use netcalc::{ArrivalBound, Envelope, TokenBucket};
/// use units::{DataRate, DataSize, Duration};
///
/// let tb = TokenBucket::for_message(DataSize::from_bytes(64), Duration::from_millis(20));
/// let plain = Envelope::from(tb);
/// assert!(!plain.has_extra());
///
/// let tight = Envelope::staircase(
///     DataSize::from_bytes(64),
///     Duration::from_millis(20),
///     DataRate::from_mbps(10),
/// );
/// assert!(tight.has_extra());
/// // The staircase never exceeds the token bucket.
/// assert!(tight.curve().eval(0.01) <= plain.curve().eval(0.01));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    tb: TokenBucket,
    /// A piecewise-linear envelope at or below the token bucket, present
    /// when the flow is known to obey a tighter constraint.
    extra: Option<Curve>,
}

impl Envelope {
    /// An envelope with a tighter piecewise-linear constraint.  The extra
    /// curve is intersected with the token bucket so the stored constraint
    /// never exceeds the affine summary.
    pub fn with_extra(tb: TokenBucket, extra: Curve) -> Self {
        let extra = extra.min(&tb.curve());
        Envelope {
            tb,
            extra: Some(extra),
        }
    }

    /// The staircase envelope of a source releasing at most one `length`
    /// message per `period` on a line of rate `peak_rate`
    /// ([`Curve::staircase`]).  Falls back to the plain token bucket when
    /// the staircase degenerates (one message's wire time reaches the
    /// period).
    pub fn staircase(length: DataSize, period: Duration, peak_rate: DataRate) -> Self {
        let tb = TokenBucket::for_message(length, period);
        let staircase = Curve::staircase(
            length.as_f64_bits(),
            period.as_secs_f64(),
            STAIRCASE_STEPS,
            peak_rate.as_f64_bps(),
        )
        .expect("message parameters are validated upstream");
        if staircase.approx_eq(&tb.curve()) {
            Envelope { tb, extra: None }
        } else {
            Envelope {
                tb,
                extra: Some(staircase),
            }
        }
    }

    /// Derives the envelope of a message under the given model.
    pub fn for_message(
        model: EnvelopeModel,
        length: DataSize,
        period: Duration,
        peak_rate: DataRate,
    ) -> Self {
        match model {
            EnvelopeModel::TokenBucket => TokenBucket::for_message(length, period).into(),
            EnvelopeModel::Staircase => Envelope::staircase(length, period, peak_rate),
        }
    }

    /// The token-bucket summary (exact integer burst and rate).
    pub fn token_bucket(&self) -> TokenBucket {
        self.tb
    }

    /// The extra piecewise-linear constraint, when one is carried.
    pub fn extra(&self) -> Option<&Curve> {
        self.extra.as_ref()
    }

    /// The effective arrival curve without cloning: borrows the extra
    /// constraint when present (the common case on the staircase hot
    /// path, where the curve can be large), and builds the
    /// single-breakpoint token-bucket curve otherwise.  Same curve as
    /// [`ArrivalBound::curve`].
    pub fn effective_curve(&self) -> std::borrow::Cow<'_, Curve> {
        match &self.extra {
            Some(curve) => std::borrow::Cow::Borrowed(curve),
            None => std::borrow::Cow::Owned(self.tb.curve()),
        }
    }

    /// `true` when the envelope is tighter than its token-bucket summary.
    pub fn has_extra(&self) -> bool {
        self.extra.is_some()
    }

    /// The instantaneous burst `α(0⁺)` of the token-bucket summary.
    pub fn burst(&self) -> DataSize {
        self.tb.burst()
    }

    /// The long-term sustained rate.
    pub fn rate(&self) -> DataRate {
        self.tb.rate()
    }

    /// The envelope of the flow after an element with delay bound `delay`:
    /// the token-bucket summary inflates to `(b + r·D, r)` (the paper's
    /// burstiness propagation, exact integer math) and the extra constraint
    /// shifts left by `D` (`α_out(t) = α_in(t + D)` — every bit leaves at
    /// most `D` after it entered).
    ///
    /// For a staircase extra this is where the tightness compounds: as long
    /// as the accumulated delay stays below the period, `α_in(D)` is still
    /// one burst, so the *effective* burst entering the next stage does not
    /// inflate at all.
    pub fn delayed(&self, delay: Duration) -> Result<Envelope, NcError> {
        let extra_bits = self.tb.rate().bits_in(delay);
        let tb = TokenBucket::new(self.tb.burst() + extra_bits, self.tb.rate());
        let extra = match &self.extra {
            Some(curve) => {
                let shifted = curve.shift_left(delay.as_secs_f64())?;
                // Re-intersect with the inflated token bucket so float
                // noise in the shift can never exceed the affine summary.
                Some(shifted.min(&tb.curve()))
            }
            None => None,
        };
        Ok(Envelope { tb, extra })
    }

    /// The aggregate envelope of multiplexed flows: token-bucket summaries
    /// aggregate exactly as before (bursts add, rates add), and if *any*
    /// flow carries an extra constraint, the aggregate carries the sum of
    /// the effective curves.
    pub fn aggregate_all<'a, I>(flows: I) -> Envelope
    where
        I: IntoIterator<Item = &'a Envelope>,
        I::IntoIter: Clone,
    {
        let iter = flows.into_iter();
        let tb = TokenBucket::aggregate_all(iter.clone().map(|e| &e.tb));
        let any_extra = iter.clone().any(|e| e.has_extra());
        let extra = any_extra.then(|| {
            let mut iter = iter;
            match iter.next() {
                None => Curve::zero(),
                Some(first) => {
                    let mut acc = first.curve();
                    for e in iter {
                        acc = acc.add(&e.effective_curve());
                    }
                    acc
                }
            }
        });
        Envelope { tb, extra }
    }
}

impl From<TokenBucket> for Envelope {
    fn from(tb: TokenBucket) -> Self {
        Envelope { tb, extra: None }
    }
}

impl ArrivalBound for Envelope {
    /// The effective arrival curve: the extra constraint when present
    /// (already intersected with the token bucket), the affine token
    /// bucket otherwise.
    fn curve(&self) -> Curve {
        match &self.extra {
            Some(curve) => curve.clone(),
            None => self.tb.curve(),
        }
    }

    fn burst(&self) -> DataSize {
        self.tb.burst()
    }

    fn rate(&self) -> DataRate {
        self.tb.rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minplus::horizontal_deviation;

    fn msg() -> (DataSize, Duration, DataRate) {
        (
            DataSize::from_bytes(1000),
            Duration::from_millis(20),
            DataRate::from_mbps(10),
        )
    }

    #[test]
    fn token_bucket_envelope_has_no_extra() {
        let (len, period, _) = msg();
        let env: Envelope = TokenBucket::for_message(len, period).into();
        assert!(!env.has_extra());
        assert_eq!(env.burst(), len);
        assert!(env.curve().approx_eq(&env.token_bucket().curve()));
    }

    #[test]
    fn staircase_envelope_is_below_the_token_bucket() {
        let (len, period, peak) = msg();
        let env = Envelope::staircase(len, period, peak);
        assert!(env.has_extra());
        let tb = env.token_bucket().curve();
        for i in 0..500 {
            let t = i as f64 * 1e-3;
            assert!(env.curve().eval(t) <= tb.eval(t) + 1e-6, "t={t}");
        }
        // Degenerate staircase (frame time ≥ period) falls back to the
        // token bucket.
        let slow = Envelope::staircase(len, Duration::from_micros(100), DataRate::from_mbps(10));
        assert!(!slow.has_extra());
    }

    #[test]
    fn model_selector_derives_the_right_family() {
        let (len, period, peak) = msg();
        assert!(!Envelope::for_message(EnvelopeModel::TokenBucket, len, period, peak).has_extra());
        assert!(Envelope::for_message(EnvelopeModel::Staircase, len, period, peak).has_extra());
        assert_eq!(EnvelopeModel::TokenBucket.to_string(), "token-bucket");
        assert_eq!(EnvelopeModel::Staircase.to_string(), "staircase");
    }

    #[test]
    fn delayed_inflates_the_summary_but_not_the_staircase_burst() {
        let (len, period, peak) = msg();
        let env = Envelope::staircase(len, period, peak);
        let delay = Duration::from_micros(500); // far below the 20 ms period
        let out = env.delayed(delay).unwrap();
        // The affine summary pays b + r·D, exactly as the paper's closed
        // form does.
        assert_eq!(
            out.token_bucket().burst(),
            env.token_bucket().burst() + env.rate().bits_in(delay)
        );
        // The staircase, read 500 µs later, still starts at one burst.
        let eff = out.curve().eval(0.0);
        assert!(
            (eff - len.as_f64_bits()).abs() < 1e-6,
            "effective burst {eff} inflated despite the flat step"
        );
    }

    #[test]
    fn aggregate_sums_summaries_and_curves() {
        let (len, period, peak) = msg();
        let a = Envelope::staircase(len, period, peak);
        let b: Envelope = TokenBucket::for_message(len, Duration::from_millis(40)).into();
        let agg = Envelope::aggregate_all([&a, &b]);
        assert!(agg.has_extra());
        assert_eq!(agg.burst(), a.burst() + b.burst());
        assert_eq!(agg.rate(), a.rate() + b.rate());
        let expect = a.curve().add(&b.curve());
        assert!(agg.curve().approx_eq(&expect));
        // A pure token-bucket aggregate carries no curve.
        let plain = Envelope::aggregate_all([&b]);
        assert!(!plain.has_extra());
        // Empty aggregate is the zero envelope.
        let none = Envelope::aggregate_all([]);
        assert_eq!(none.burst(), DataSize::ZERO);
    }

    #[test]
    fn staircase_aggregate_tightens_the_delay_bound_after_a_delay() {
        // The gain mechanism end to end: after a sub-period stage delay,
        // the staircase aggregate's effective burst is still Σ b while the
        // affine one pays Σ (b + r·D) — the downstream deviation shrinks.
        let (len, period, peak) = msg();
        let delay = Duration::from_millis(2);
        let staircase: Vec<Envelope> = (0..4)
            .map(|_| {
                Envelope::staircase(len, period, peak)
                    .delayed(delay)
                    .unwrap()
            })
            .collect();
        let affine: Vec<Envelope> = (0..4)
            .map(|_| {
                Envelope::from(TokenBucket::for_message(len, period))
                    .delayed(delay)
                    .unwrap()
            })
            .collect();
        let beta = Curve::rate_latency(10e6, 16e-6).unwrap();
        let h_st = horizontal_deviation(&Envelope::aggregate_all(staircase.iter()).curve(), &beta)
            .unwrap();
        let h_tb =
            horizontal_deviation(&Envelope::aggregate_all(affine.iter()).curve(), &beta).unwrap();
        assert!(
            h_st < h_tb - 1e-9,
            "staircase {h_st} did not beat affine {h_tb}"
        );
    }
}
