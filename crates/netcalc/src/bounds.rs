//! The worst-case delay of a token bucket through a rate-latency server, in
//! closed form.

use crate::arrival::TokenBucket;
use crate::curve::EPS;
use crate::service::RateLatency;
use crate::NcError;
use units::Duration;

/// The worst-case delay of a token-bucket flow through a rate-latency
/// server: the horizontal deviation `h(γ_{r,b}, β_{R,T})`, rounded **up**
/// to the next nanosecond.
///
/// This is the closed form `T + b/R`, evaluated exactly as
/// [`crate::minplus::horizontal_deviation`] evaluates the two curves, so the two
/// agree bit for bit, errors included (pinned by a proptest).  The
/// deviation's candidates are `t = 0` and the end of the dead time `T`;
/// at each the delay is `T + (b + r·t)/R − t`, floored at zero.  Like
/// [`crate::Curve::rate_latency`], a dead time worth at most
/// [`crate::curve::EPS`] bits of service counts as none.
pub fn delay_bound(flow: &TokenBucket, server: &RateLatency) -> Result<Duration, NcError> {
    let (burst, rate) = (flow.burst().as_f64_bits(), flow.rate().as_f64_bps());
    let (capacity, latency) = (server.rate().as_f64_bps(), server.latency().as_secs_f64());
    let unstable = |context: &str| NcError::Unstable {
        context: context.into(),
        demand_bps: rate.ceil() as u64,
        capacity_bps: capacity.floor() as u64,
    };
    if rate > capacity + EPS {
        return Err(unstable("horizontal deviation"));
    }
    if capacity <= 0.0 {
        return Err(unstable("service curve plateaus below arrival curve"));
    }
    let dead = if latency == 0.0 || (capacity * latency).abs() <= EPS {
        0.0
    } else {
        latency
    };
    let delay_at = |t: f64| (dead + (burst + rate * t) / capacity - t).max(0.0);
    let h = 0.0f64.max(delay_at(0.0)).max(delay_at(dead));
    Ok(Duration::from_secs_f64_ceil(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;
    use units::{DataRate, DataSize};

    fn flow() -> TokenBucket {
        // 10_000 bits burst, 1 Mbps sustained.
        TokenBucket::new(DataSize::from_bits(10_000), DataRate::from_mbps(1))
    }

    fn server() -> RateLatency {
        RateLatency::new(DataRate::from_mbps(10), Duration::from_micros(16))
    }

    #[test]
    fn delay_bound_closed_form() {
        // T + b/R = 16 us + 10_000/10^7 s = 16 us + 1 ms.
        let d = delay_bound(&flow(), &server()).unwrap();
        assert_eq!(d, Duration::from_micros(1_016));
    }

    #[test]
    fn backlog_bound_closed_form() {
        // The backlog b + r·T = 10_000 + 10^6 · 16e-6 = 10_016 bits is the
        // bucket read T later: the burst `Envelope::delayed` inflates it to.
        let q = Envelope::from(flow()).delayed(server().latency()).unwrap();
        assert_eq!(q.burst(), DataSize::from_bits(10_016));
    }

    #[test]
    fn output_burst_grows_by_rate_times_latency() {
        // After the server every bit has waited at most the delay bound
        // D = 1016 µs, so the burst grows to b + r·D = 11_016 bits.
        let d = delay_bound(&flow(), &server()).unwrap();
        let out = Envelope::from(flow()).delayed(d).unwrap().token_bucket();
        assert_eq!(out.burst(), DataSize::from_bits(11_016));
        assert_eq!(out.rate(), DataRate::from_mbps(1));
    }

    #[test]
    fn unstable_flow_is_rejected() {
        let fat = TokenBucket::new(DataSize::from_bits(1), DataRate::from_mbps(20));
        assert!(matches!(
            delay_bound(&fat, &server()),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn zero_burst_flow_has_latency_only_delay() {
        let thin = TokenBucket::new(DataSize::ZERO, DataRate::from_kbps(1));
        let d = delay_bound(&thin, &server()).unwrap();
        assert_eq!(d, Duration::from_micros(16));
    }
}
