//! Analysis of one multiplexing stage (a station uplink or a switch output
//! port), generic over the unified [`SchedulingPolicy`].

use crate::analysis::horizon;
use ethernet::{SchedulingPolicy, WrrUnit};
use netcalc::{Curve, Envelope, Mux, NcError, WrrAccounting};
use std::borrow::Cow;
use units::{DataRate, DataSize, Duration};
use workload::MessageId;

/// One shaped flow entering a multiplexing stage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageFlow<'a> {
    /// The message stream the flow belongs to.
    pub message: MessageId,
    /// The arrival envelope of the flow *at this stage* (at the source this
    /// is the shaper's `(b_i, r_i)` — possibly carrying a staircase curve —
    /// and at the switch it is the source stage's output envelope),
    /// borrowed from where the walk keeps it.
    pub envelope: Cow<'a, Envelope>,
    /// Queue index under the class-based policies (ignored by FCFS),
    /// clamped to the policy's queue count like the traffic classifier.
    pub priority: usize,
    /// The flow's maximal physical frame size — unlike the envelope burst
    /// it does not inflate across hops, and the WRR quantum accounting
    /// works on frames.
    pub frame: DataSize,
}

/// Builds the multiplexer of a stage, loaded with every flow's token
/// bucket: the single place that maps the unified [`SchedulingPolicy`]
/// onto the Network-Calculus [`Mux`] disciplines (FCFS, strict priority,
/// WRR).
///
/// `capacity` is the outgoing link rate `C`; `ttechno` is the element's
/// relaying latency (0 for an end system, the switch's `t_techno` for a
/// switch output port).  An overloaded stage fails here with
/// [`NcError::Unstable`], before any curve is built for it, so every
/// multiplexer this returns is stable.
pub(crate) fn mux_for_policy(
    flows: &[StageFlow<'_>],
    policy: &SchedulingPolicy,
    capacity: DataRate,
    ttechno: Duration,
) -> Result<Mux, NcError> {
    let mut mux = match policy {
        SchedulingPolicy::Fcfs => Mux::fcfs(capacity, ttechno),
        SchedulingPolicy::StrictPriority { levels } => {
            Mux::static_priority((*levels).max(1), capacity, ttechno)
        }
        SchedulingPolicy::Wrr { weights } => {
            let accounting = match weights.unit {
                WrrUnit::Frames => WrrAccounting::Frames,
                WrrUnit::Bytes => WrrAccounting::Bytes,
            };
            Mux::wrr(capacity, ttechno, accounting, &weights.active_quanta())
        }
    };
    for flow in flows {
        mux.add_flow(flow.priority, flow.envelope.token_bucket(), flow.frame);
    }
    mux.check_stability()?;
    Ok(mux)
}

/// The per-flow outcome of a stage analysis.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageBound {
    /// Worst-case delay through the stage (queueing + serialization +
    /// relaying latency).
    pub delay: Duration,
    /// The flow's arrival envelope after the stage (token-bucket summary
    /// inflated by the stage delay, extra curve shifted left by it);
    /// `None` at the flow's last hop, where no hop reads it.
    pub output: Option<Envelope>,
}

/// Analyses one stage: every flow's bound is its class's
/// [`Mux::delay_bound`], and, unless the stage is the flow's last hop
/// (`last_hop`), its output envelope is its input envelope delayed by that
/// bound.
///
/// `mux` is the stage's stable multiplexer loaded with `flows`
/// ([`mux_for_policy`]).  `aggregates[c]`, when present, is the aggregate
/// arrival curve the class-`c` bound is refined by; classes without one
/// (every class when `aggregates` is empty) keep the closed form.  Each
/// class's bound is computed once and shared by every flow of the class.
pub(crate) fn analyze_stage(
    flows: &[StageFlow<'_>],
    mux: &Mux,
    aggregates: &[Option<&Curve>],
    last_hop: &[bool],
) -> Result<Vec<StageBound>, NcError> {
    let classes = mux.class_count();
    let mut class_delay: Vec<Option<Duration>> = vec![None; classes];
    flows
        .iter()
        .zip(last_hop)
        .map(|(flow, &is_last)| {
            let class = mux.clamp(flow.priority);
            let delay = match class_delay[class] {
                Some(delay) => delay,
                None => {
                    let aggregate = aggregates.get(class).copied().flatten();
                    let delay = mux.delay_bound(class, aggregate, horizon::shortcuts())?;
                    class_delay[class] = Some(delay);
                    delay
                }
            };
            let output = if is_last {
                None
            } else {
                Some(flow.envelope.delayed(delay)?)
            };
            Ok(StageBound { delay, output })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethernet::WrrWeights;

    fn flow(id: usize, bytes: u64, period_ms: u64, priority: usize) -> StageFlow<'static> {
        StageFlow {
            message: MessageId(id),
            envelope: Cow::Owned(
                netcalc::TokenBucket::for_message(
                    DataSize::from_bytes(bytes),
                    Duration::from_millis(period_ms),
                )
                .into(),
            ),
            priority,
            frame: DataSize::from_bytes(bytes),
        }
    }

    fn c10() -> DataRate {
        DataRate::from_mbps(10)
    }

    /// Loads `flows` into the policy's mux at 10 Mbps and analyses the
    /// stage on closed forms, no flow at its last hop.
    fn stage(
        flows: &[StageFlow<'_>],
        policy: &SchedulingPolicy,
        ttechno: Duration,
    ) -> Result<Vec<StageBound>, NcError> {
        let mux = mux_for_policy(flows, policy, c10(), ttechno)?;
        analyze_stage(flows, &mux, &[], &vec![false; flows.len()])
    }

    fn fcfs() -> SchedulingPolicy {
        SchedulingPolicy::Fcfs
    }

    fn sp4() -> SchedulingPolicy {
        SchedulingPolicy::StrictPriority { levels: 4 }
    }

    fn wrr4() -> SchedulingPolicy {
        SchedulingPolicy::Wrr {
            weights: WrrWeights::new(&[4, 2, 1, 1], WrrUnit::Frames),
        }
    }

    #[test]
    fn fcfs_stage_gives_every_flow_the_same_bound() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let result = stage(&flows, &fcfs(), Duration::from_micros(16)).unwrap();
        assert_eq!(result.len(), 3);
        let d0 = result[0].delay;
        assert!(result.iter().all(|b| b.delay == d0));
        // Σ b = (68+86+1046) bytes = 9600 bits -> 960 us + 16 us.
        assert_eq!(d0, Duration::from_micros(976));
        // Output bursts are inflated.
        for (i, bound) in result.iter().enumerate() {
            let output = bound.output.as_ref().unwrap();
            assert!(output.burst() >= flows[i].envelope.burst());
            assert_eq!(output.rate(), flows[i].envelope.rate());
        }
    }

    #[test]
    fn priority_stage_orders_bounds_by_priority() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let result = stage(&flows, &sp4(), Duration::from_micros(16)).unwrap();
        assert!(result[0].delay <= result[1].delay);
        assert!(result[1].delay <= result[2].delay);
        // The urgent flow's bound beats the FCFS bound for the same stage.
        let fcfs = stage(&flows, &fcfs(), Duration::from_micros(16)).unwrap();
        assert!(result[0].delay < fcfs[0].delay);
    }

    #[test]
    fn wrr_stage_bounds_every_class() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let result = stage(&flows, &wrr4(), Duration::from_micros(16)).unwrap();
        assert_eq!(result.len(), 3);
        for (i, bound) in result.iter().enumerate() {
            assert!(bound.delay > Duration::ZERO);
            assert!(bound.output.as_ref().unwrap().burst() >= flows[i].envelope.burst());
        }
    }

    #[test]
    fn single_class_wrr_stage_equals_fcfs_stage() {
        let flows = [
            flow(0, 68, 20, 0),
            flow(1, 86, 40, 1),
            flow(2, 1046, 160, 3),
        ];
        let single = SchedulingPolicy::Wrr {
            weights: WrrWeights::new(&[2], WrrUnit::Frames),
        };
        let wrr = stage(&flows, &single, Duration::from_micros(16)).unwrap();
        let fcfs = stage(&flows, &fcfs(), Duration::from_micros(16)).unwrap();
        assert_eq!(wrr, fcfs);
    }

    #[test]
    fn priority_indices_above_the_class_count_are_clamped() {
        for policy in [sp4(), wrr4()] {
            let flows = [flow(0, 68, 20, 9)];
            let result = stage(&flows, &policy, Duration::ZERO).unwrap();
            assert_eq!(result.len(), 1);
            assert!(result[0].delay > Duration::ZERO);
        }
    }

    #[test]
    fn empty_stage_is_fine() {
        for policy in [fcfs(), sp4(), wrr4()] {
            assert!(stage(&[], &policy, Duration::ZERO).unwrap().is_empty());
        }
    }

    #[test]
    fn overload_is_reported() {
        // 1518 bytes every 1 ms ≈ 12 Mbps > 10 Mbps.
        let flows = [flow(0, 1518, 1, 0)];
        for policy in [fcfs(), sp4(), wrr4()] {
            assert!(stage(&flows, &policy, Duration::ZERO).is_err());
        }
    }
}
