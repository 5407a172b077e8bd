//! Multiplexer analysis: the paper's FCFS and strict-priority delay bounds,
//! plus the weighted-round-robin extension.
//!
//! A station (or a switch output port) multiplexes the shaped flows it
//! carries onto one physical link of capacity `C` preceded by a bounded
//! technological latency `t_techno`.  Three policies are analysed:
//!
//! * **FCFS** — a single queue; the bound is the same for every flow:
//!   `D = Σ_{i ∈ S} b_i / C + t_techno`.
//! * **Strict priority (802.1p)** — one queue per priority, always serving
//!   the highest non-empty priority, without preemption of the frame in
//!   transmission.  For priority `p` (0 = highest):
//!   `D_p = (Σ_{i ∈ ∪_{q≤p} S_q} b_i + max_{j ∈ ∪_{q>p} S_q} b_j) /
//!          (C − Σ_{i ∈ ∪_{q<p} S_q} r_i) + t_techno`.
//! * **Weighted round robin** ([`WrrMux`]) — one queue per class served
//!   cyclically under per-class quanta (frame-counted, or byte-counted with
//!   deficit carry-over).  Class `p` sees a residual rate-latency service
//!   of rate `φ_p / Σφ · C` whose latency is inflated by the other classes'
//!   maximal quanta plus one maximal frame of non-preemption — see
//!   [`WrrMux::residual_service`] for the exact accounting.
//!
//! All closed forms are special cases of the general curve machinery
//! (aggregate arrival envelope against a residual rate-latency service
//! curve); the unit tests cross-check the derivations.  The multiplexers
//! accept any [`Envelope`]: flows carrying only a token-bucket summary take
//! exactly the closed-form path (bit-identical to the paper's formulas),
//! while flows carrying a tighter piecewise-linear constraint (e.g.
//! staircase envelopes of periodic sources) additionally run the aggregate
//! through [`crate::minplus::horizontal_deviation`] and report the minimum of
//! both bounds.
//!
//! The policy-generic [`Mux`] dispatch wraps the three multiplexers behind
//! one class-indexed interface so the analysis layers select the residual
//! service per port from the unified scheduling policy instead of matching
//! on per-crate policy enums.

use crate::arrival::TokenBucket;
use crate::bounds;
use crate::envelope::Envelope;
use crate::service::{RateLatency, ServiceBound};
use crate::NcError;
use serde::{Deserialize, Serialize};
use units::{DataRate, DataSize, Duration};

/// Analysis of a FCFS multiplexer fed by shaped flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FcfsMux {
    capacity: DataRate,
    ttechno: Duration,
    flows: Vec<Envelope>,
}

impl FcfsMux {
    /// Creates an empty FCFS multiplexer in front of a link of capacity
    /// `capacity` with relaying-delay bound `ttechno`.
    pub fn new(capacity: DataRate, ttechno: Duration) -> Self {
        FcfsMux {
            capacity,
            ttechno,
            flows: Vec::new(),
        }
    }

    /// Adds a shaped flow to the multiplexer.
    pub fn add_flow(&mut self, flow: impl Into<Envelope>) {
        self.flows.push(flow.into());
    }

    /// Adds every flow from an iterator.
    pub fn add_flows<E: Into<Envelope>, I: IntoIterator<Item = E>>(&mut self, flows: I) {
        self.flows.extend(flows.into_iter().map(Into::into));
    }

    /// The flows currently multiplexed.
    pub fn flows(&self) -> &[Envelope] {
        &self.flows
    }

    /// `true` when any flow carries a constraint tighter than its
    /// token-bucket summary.
    fn has_extras(&self) -> bool {
        self.flows.iter().any(Envelope::has_extra)
    }

    /// The link capacity `C`.
    pub fn capacity(&self) -> DataRate {
        self.capacity
    }

    /// The technological latency bound `t_techno`.
    pub fn ttechno(&self) -> Duration {
        self.ttechno
    }

    /// The aggregate sustained rate `Σ r_i`.
    pub fn aggregate_rate(&self) -> DataRate {
        self.flows.iter().map(|f| f.rate()).sum()
    }

    /// The aggregate burst `Σ b_i`.
    pub fn aggregate_burst(&self) -> DataSize {
        self.flows.iter().map(|f| f.burst()).sum()
    }

    /// Link utilization `Σ r_i / C`.
    pub fn utilization(&self) -> f64 {
        self.aggregate_rate().utilization_of(self.capacity)
    }

    /// Checks long-term stability (`Σ r_i ≤ C`), returning the offending
    /// rates otherwise.
    pub fn check_stability(&self) -> Result<(), NcError> {
        let demand = self.aggregate_rate();
        if demand > self.capacity {
            Err(NcError::Unstable {
                context: "FCFS multiplexer".into(),
                demand_bps: demand.bps(),
                capacity_bps: self.capacity.bps(),
            })
        } else {
            Ok(())
        }
    }

    /// The paper's FCFS latency bound `D = Σ b_i / C + t_techno`, identical
    /// for every flow through the multiplexer.
    ///
    /// When flows carry envelope constraints tighter than their token
    /// buckets, the bound is the minimum of the closed form and the
    /// horizontal deviation of the aggregate arrival curve against the
    /// link's rate-latency curve (both are sound FCFS aggregate bounds).
    pub fn delay_bound(&self) -> Result<Duration, NcError> {
        self.check_stability()?;
        let queueing = self.capacity.transmission_time(self.aggregate_burst());
        let closed = queueing + self.ttechno;
        if !self.has_extras() {
            return Ok(closed);
        }
        let aggregate = Envelope::aggregate_all(self.flows.iter());
        let h = crate::minplus::horizontal_deviation(
            &aggregate.effective_curve(),
            &self.service_curve().curve(),
        )?;
        Ok(closed.min(Duration::from_secs_f64_ceil(h)))
    }

    /// The same bound obtained through the general curve machinery
    /// (aggregate token bucket vs. rate-latency `β_{C, t_techno}`), used to
    /// cross-validate [`FcfsMux::delay_bound`].
    pub fn delay_bound_via_curves(&self) -> Result<Duration, NcError> {
        self.check_stability()?;
        let aggregate = TokenBucket::aggregate_all(self.flows.iter().map(Envelope::token_bucket));
        bounds::delay_bound(&aggregate, &self.service_curve())
    }

    /// The worst-case backlog in the multiplexer queue (with envelope
    /// extras, the minimum of the closed-form and curve-aggregate vertical
    /// deviations).
    pub fn backlog_bound(&self) -> Result<DataSize, NcError> {
        self.check_stability()?;
        let aggregate = TokenBucket::aggregate_all(self.flows.iter().map(Envelope::token_bucket));
        let closed = bounds::backlog_bound(&aggregate, &self.service_curve())?;
        if !self.has_extras() {
            return Ok(closed);
        }
        let curves = Envelope::aggregate_all(self.flows.iter());
        let v = crate::minplus::vertical_deviation(
            &curves.effective_curve(),
            &self.service_curve().curve(),
        )?;
        Ok(closed.min(DataSize::from_bits(v.ceil() as u64)))
    }

    /// The rate-latency service curve offered by the outgoing link.
    pub fn service_curve(&self) -> RateLatency {
        RateLatency::new(self.capacity, self.ttechno)
    }

    /// The output envelope of one of the multiplexed flows after traversing
    /// this element.
    ///
    /// The FCFS element delays any bit of flow `i` by at most
    /// [`FcfsMux::delay_bound`], so the output is bounded by the input
    /// envelope read that much later ([`Envelope::delayed`]): the
    /// token-bucket summary inflates to `(b_i + r_i·D, r_i)` and any extra
    /// constraint shifts left by `D`.
    pub fn output_envelope(&self, flow: &Envelope) -> Result<Envelope, NcError> {
        flow.delayed(self.delay_bound()?)
    }
}

/// Per-priority results of a strict-priority multiplexer analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PriorityLevelReport {
    /// Priority level (0 = highest).
    pub priority: usize,
    /// Number of flows at this level.
    pub flow_count: usize,
    /// The paper's delay bound `D_p` for this level.
    pub delay_bound: Duration,
    /// Worst-case backlog of the queues at priority ≤ p.
    pub backlog_bound: DataSize,
    /// Residual service rate `C − Σ_{q<p} r_i` seen by this level.
    pub residual_rate: DataRate,
    /// Aggregate burst of levels ≤ p (the numerator's first term).
    pub aggregate_burst: DataSize,
    /// Worst lower-priority frame that can block this level.
    pub blocking_burst: DataSize,
}

/// Analysis of a strict-priority (802.1p) multiplexer with `n` levels,
/// level 0 being the most urgent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticPriorityMux {
    capacity: DataRate,
    ttechno: Duration,
    levels: Vec<Vec<Envelope>>,
}

impl StaticPriorityMux {
    /// Creates a strict-priority multiplexer with `levels` empty priority
    /// queues (the paper uses 4).
    pub fn new(levels: usize, capacity: DataRate, ttechno: Duration) -> Self {
        StaticPriorityMux {
            capacity,
            ttechno,
            levels: vec![Vec::new(); levels.max(1)],
        }
    }

    /// `true` when any flow of levels `q ≤ p` carries a constraint tighter
    /// than its token-bucket summary.
    fn has_extras_through(&self, priority: usize) -> bool {
        self.levels[..=priority]
            .iter()
            .flat_map(|l| l.iter())
            .any(Envelope::has_extra)
    }

    /// Number of priority levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The link capacity `C`.
    pub fn capacity(&self) -> DataRate {
        self.capacity
    }

    /// The technological latency bound `t_techno`.
    pub fn ttechno(&self) -> Duration {
        self.ttechno
    }

    /// Adds a shaped flow at priority `priority` (0 = highest).
    pub fn add_flow(&mut self, priority: usize, flow: impl Into<Envelope>) -> Result<(), NcError> {
        self.levels
            .get_mut(priority)
            .ok_or(NcError::UnknownPriority(priority))?
            .push(flow.into());
        Ok(())
    }

    /// The flows registered at a given priority.
    pub fn flows_at(&self, priority: usize) -> Result<&[Envelope], NcError> {
        self.levels
            .get(priority)
            .map(|v| v.as_slice())
            .ok_or(NcError::UnknownPriority(priority))
    }

    /// Total number of flows across all levels.
    pub fn flow_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Aggregate sustained rate over all levels.
    pub fn aggregate_rate(&self) -> DataRate {
        self.levels
            .iter()
            .flat_map(|l| l.iter())
            .map(|f| f.rate())
            .sum()
    }

    /// Link utilization over all levels.
    pub fn utilization(&self) -> f64 {
        self.aggregate_rate().utilization_of(self.capacity)
    }

    /// Sum of sustained rates of priorities strictly higher than `priority`
    /// (i.e. levels `q < p`).
    fn higher_rate(&self, priority: usize) -> DataRate {
        self.levels[..priority]
            .iter()
            .flat_map(|l| l.iter())
            .map(|f| f.rate())
            .sum()
    }

    /// Sum of bursts of priorities `q ≤ p`.
    fn cumulative_burst(&self, priority: usize) -> DataSize {
        self.levels[..=priority]
            .iter()
            .flat_map(|l| l.iter())
            .map(|f| f.burst())
            .sum()
    }

    /// Largest burst among strictly lower priorities (`q > p`), i.e. the
    /// non-preemptable frame that can block level `p`; zero for the lowest
    /// level.
    fn lower_blocking_burst(&self, priority: usize) -> DataSize {
        self.levels[priority + 1..]
            .iter()
            .flat_map(|l| l.iter())
            .map(|f| f.burst())
            .fold(DataSize::ZERO, DataSize::max)
    }

    /// The residual service rate `C − Σ_{q<p} r_i` available to level `p`,
    /// or an error if higher priorities already saturate the link.
    pub fn residual_rate(&self, priority: usize) -> Result<DataRate, NcError> {
        if priority >= self.levels.len() {
            return Err(NcError::UnknownPriority(priority));
        }
        let hp = self.higher_rate(priority);
        if hp >= self.capacity {
            return Err(NcError::Unstable {
                context: format!("priority {priority} residual rate"),
                demand_bps: hp.bps(),
                capacity_bps: self.capacity.bps(),
            });
        }
        Ok(self.capacity - hp)
    }

    /// The residual rate-latency service curve seen by priority `p`:
    /// rate `C − Σ_{q<p} r_i` and latency
    /// `t_techno + max_{q>p} b_j / (C − Σ_{q<p} r_i)`.
    ///
    /// The horizontal deviation of the aggregate `(Σ_{q≤p} b, Σ_{q≤p} r)`
    /// token bucket against this curve is exactly the paper's `D_p`.
    pub fn residual_service(&self, priority: usize) -> Result<RateLatency, NcError> {
        let rate = self.residual_rate(priority)?;
        let blocking = rate.transmission_time(self.lower_blocking_burst(priority));
        Ok(RateLatency::new(rate, self.ttechno + blocking))
    }

    /// Checks long-term stability of every level: the residual rate of each
    /// level must exceed the aggregate sustained rate of levels `q ≤ p`.
    pub fn check_stability(&self) -> Result<(), NcError> {
        for p in 0..self.levels.len() {
            let residual = self.residual_rate(p)?;
            let demand: DataRate = self.levels[..=p]
                .iter()
                .flat_map(|l| l.iter())
                .map(|f| f.rate())
                .sum();
            if demand > residual + self.higher_rate(p) {
                // Equivalent to Σ_{q≤p} r > C.
                return Err(NcError::Unstable {
                    context: format!("priority {p} cumulative load"),
                    demand_bps: demand.bps(),
                    capacity_bps: self.capacity.bps(),
                });
            }
        }
        Ok(())
    }

    /// The paper's strict-priority delay bound for level `priority`:
    ///
    /// `D_p = (Σ_{i∈∪_{q≤p} S_q} b_i + max_{j∈∪_{q>p} S_q} b_j) /
    ///        (C − Σ_{i∈∪_{q<p} S_q} r_i) + t_techno`.
    ///
    /// When flows of levels `q ≤ p` carry envelope constraints tighter
    /// than their token buckets, the bound is the minimum of the closed
    /// form and the horizontal deviation of their aggregate arrival curve
    /// against [`StaticPriorityMux::residual_service`] (both are sound
    /// non-preemptive strict-priority bounds).
    ///
    /// The deviation refinement has a *stronger* precondition than port
    /// stability: it feeds the cumulative aggregate `α_{≤p}` against the
    /// residual rate `C − Σ_{q<p} r`, so the higher-priority rates are
    /// counted on both sides and it is only defined when
    /// `Σ_{q≤p} r ≤ C − Σ_{q<p} r`.  A port can be perfectly stable
    /// (`Σ_{q≤p} r ≤ C`, which [`StaticPriorityMux::check_stability`]
    /// guarantees before bounds are computed) while violating that; the
    /// refinement is then skipped and the closed form — sound on its own —
    /// is the bound.
    pub fn delay_bound(&self, priority: usize) -> Result<Duration, NcError> {
        let residual = self.residual_rate(priority)?;
        let numerator = self.cumulative_burst(priority) + self.lower_blocking_burst(priority);
        let closed = residual.transmission_time(numerator) + self.ttechno;
        if !self.has_extras_through(priority) {
            return Ok(closed);
        }
        let aggregate =
            Envelope::aggregate_all(self.levels[..=priority].iter().flat_map(|l| l.iter()));
        let service = self.residual_service(priority)?;
        match crate::minplus::horizontal_deviation(&aggregate.effective_curve(), &service.curve()) {
            Ok(h) => Ok(closed.min(Duration::from_secs_f64_ceil(h))),
            Err(NcError::Unstable { .. }) => Ok(closed),
            Err(e) => Err(e),
        }
    }

    /// The closed-form bound via the general curve machinery (aggregate
    /// token bucket of levels ≤ p against
    /// [`StaticPriorityMux::residual_service`]); used to cross-validate
    /// [`StaticPriorityMux::delay_bound`].
    pub fn delay_bound_via_curves(&self, priority: usize) -> Result<Duration, NcError> {
        let aggregate = TokenBucket::aggregate_all(
            self.levels[..=priority]
                .iter()
                .flat_map(|l| l.iter())
                .map(Envelope::token_bucket),
        );
        let service = self.residual_service(priority)?;
        if aggregate.rate() > service.rate() {
            return Err(NcError::Unstable {
                context: format!("priority {priority} cumulative load"),
                demand_bps: aggregate.rate().bps(),
                capacity_bps: service.rate().bps(),
            });
        }
        bounds::delay_bound(&aggregate, &service)
    }

    /// The worst-case backlog of the queues holding priorities ≤ p (with
    /// envelope extras, the minimum of the closed-form and curve-aggregate
    /// vertical deviations).
    pub fn backlog_bound(&self, priority: usize) -> Result<DataSize, NcError> {
        let aggregate = TokenBucket::aggregate_all(
            self.levels[..=priority]
                .iter()
                .flat_map(|l| l.iter())
                .map(Envelope::token_bucket),
        );
        let service = self.residual_service(priority)?;
        if aggregate.rate() > service.rate() {
            return Err(NcError::Unstable {
                context: format!("priority {priority} cumulative load"),
                demand_bps: aggregate.rate().bps(),
                capacity_bps: service.rate().bps(),
            });
        }
        let closed = bounds::backlog_bound(&aggregate, &service)?;
        if !self.has_extras_through(priority) {
            return Ok(closed);
        }
        let curves =
            Envelope::aggregate_all(self.levels[..=priority].iter().flat_map(|l| l.iter()));
        // Same stronger-than-stability precondition as in `delay_bound`:
        // skip the refinement (not the bound) when the cumulative rate
        // exceeds the residual.
        match crate::minplus::vertical_deviation(&curves.effective_curve(), &service.curve()) {
            Ok(v) => Ok(closed.min(DataSize::from_bits(v.ceil() as u64))),
            Err(NcError::Unstable { .. }) => Ok(closed),
            Err(e) => Err(e),
        }
    }

    /// Full per-level report (one entry per priority level, ordered from the
    /// highest priority to the lowest).
    pub fn analyze(&self) -> Result<Vec<PriorityLevelReport>, NcError> {
        self.check_stability()?;
        (0..self.levels.len())
            .map(|p| {
                Ok(PriorityLevelReport {
                    priority: p,
                    flow_count: self.levels[p].len(),
                    delay_bound: self.delay_bound(p)?,
                    backlog_bound: self.backlog_bound(p)?,
                    residual_rate: self.residual_rate(p)?,
                    aggregate_burst: self.cumulative_burst(p),
                    blocking_burst: self.lower_blocking_burst(p),
                })
            })
            .collect()
    }

    /// The output envelope of one flow of priority `priority` after
    /// traversing this element ([`Envelope::delayed`] by the level's delay
    /// bound).
    pub fn output_envelope(&self, priority: usize, flow: &Envelope) -> Result<Envelope, NcError> {
        flow.delayed(self.delay_bound(priority)?)
    }
}

/// How a weighted-round-robin quantum is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WrrAccounting {
    /// `quantum` whole frames per visit (classic WRR).
    Frames,
    /// `quantum` bytes per visit, unused credit carried over (deficit
    /// round robin).
    Bytes,
}

/// One flow registered with a [`WrrMux`]: its arrival envelope plus the
/// physical frame size its packets keep on the wire (envelope bursts
/// inflate as a flow propagates, frame sizes do not — and the WRR quantum
/// accounting works on frames).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WrrFlow {
    /// The flow's arrival envelope at this multiplexer.
    pub envelope: Envelope,
    /// The flow's maximal physical frame size.
    pub frame: DataSize,
}

/// Per-class results of a weighted-round-robin multiplexer analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WrrClassReport {
    /// Class index.
    pub class: usize,
    /// Number of flows in the class.
    pub flow_count: usize,
    /// The class's quantum (frames or bytes per visit).
    pub quantum: u64,
    /// The class's delay bound.
    pub delay_bound: Duration,
    /// Worst-case backlog of the class queue.
    pub backlog_bound: DataSize,
    /// Residual service rate `φ_p / Σφ · C` of the class.
    pub residual_rate: DataRate,
    /// Residual service latency (quantum interference + non-preemption +
    /// `t_techno`).
    pub residual_latency: Duration,
}

/// Analysis of a weighted-round-robin multiplexer with per-class quanta.
///
/// The server cycles through the classes; a visit to class `p` serves up
/// to its quantum (whole frames under [`WrrAccounting::Frames`], bytes
/// with deficit carry-over under [`WrrAccounting::Bytes`]) and the frame
/// in transmission is never preempted.  While class `p` stays backlogged,
/// every full cycle guarantees it `g_p` bits and costs at most `i_j` bits
/// per competing class `j`, so the class sees the residual rate-latency
/// service computed by [`WrrMux::residual_service`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WrrMux {
    capacity: DataRate,
    ttechno: Duration,
    accounting: WrrAccounting,
    quanta: Vec<u64>,
    classes: Vec<Vec<WrrFlow>>,
}

impl WrrMux {
    /// Creates a WRR multiplexer with one queue per quantum entry (at
    /// least one; zero quanta are floored to one frame/byte).
    pub fn new(
        capacity: DataRate,
        ttechno: Duration,
        accounting: WrrAccounting,
        quanta: &[u64],
    ) -> Self {
        let quanta: Vec<u64> = if quanta.is_empty() {
            vec![1]
        } else {
            quanta.iter().map(|&q| q.max(1)).collect()
        };
        WrrMux {
            capacity,
            ttechno,
            accounting,
            classes: vec![Vec::new(); quanta.len()],
            quanta,
        }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.quanta.len()
    }

    /// The link capacity `C`.
    pub fn capacity(&self) -> DataRate {
        self.capacity
    }

    /// The technological latency bound `t_techno`.
    pub fn ttechno(&self) -> Duration {
        self.ttechno
    }

    /// The quantum accounting unit.
    pub fn accounting(&self) -> WrrAccounting {
        self.accounting
    }

    /// Adds a shaped flow with physical frame size `frame` to `class`.
    pub fn add_flow(
        &mut self,
        class: usize,
        flow: impl Into<Envelope>,
        frame: DataSize,
    ) -> Result<(), NcError> {
        self.classes
            .get_mut(class)
            .ok_or(NcError::UnknownPriority(class))?
            .push(WrrFlow {
                envelope: flow.into(),
                frame,
            });
        Ok(())
    }

    /// The flows registered in a class.
    pub fn flows_at(&self, class: usize) -> Result<&[WrrFlow], NcError> {
        self.classes
            .get(class)
            .map(|v| v.as_slice())
            .ok_or(NcError::UnknownPriority(class))
    }

    /// Total number of flows across all classes.
    pub fn flow_count(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    /// Aggregate sustained rate over all classes.
    pub fn aggregate_rate(&self) -> DataRate {
        self.classes
            .iter()
            .flat_map(|c| c.iter())
            .map(|f| f.envelope.rate())
            .sum()
    }

    /// Link utilization over all classes.
    pub fn utilization(&self) -> f64 {
        self.aggregate_rate().utilization_of(self.capacity)
    }

    /// Largest physical frame of a class, in bits (0 for an empty class).
    fn max_frame_bits(&self, class: usize) -> u64 {
        self.classes[class]
            .iter()
            .map(|f| f.frame.bits())
            .max()
            .unwrap_or(0)
    }

    /// Smallest physical frame of a class, in bits (0 for an empty class).
    fn min_frame_bits(&self, class: usize) -> u64 {
        self.classes[class]
            .iter()
            .map(|f| f.frame.bits())
            .min()
            .unwrap_or(0)
    }

    /// Bits one full visit **guarantees** class `p` while it is backlogged:
    /// `quantum` frames of its smallest frame, or the byte quantum itself
    /// (deficit carry-over makes byte quanta exact in the long run).
    fn guaranteed_bits(&self, class: usize) -> u64 {
        match self.accounting {
            WrrAccounting::Frames => self.quanta[class] * self.min_frame_bits(class),
            WrrAccounting::Bytes => self.quanta[class] * 8,
        }
    }

    /// Bits one visit lets class `j` **take** from the link at most:
    /// `quantum` frames of its largest frame, or the byte quantum.
    fn interference_bits(&self, class: usize) -> u64 {
        match self.accounting {
            WrrAccounting::Frames => self.quanta[class] * self.max_frame_bits(class),
            WrrAccounting::Bytes => self.quanta[class] * 8,
        }
    }

    /// Sum of per-visit interference over the *other, non-empty* classes —
    /// empty classes never hold traffic, so a live scheduler skips them
    /// instantly and they inflate nothing.
    fn other_interference_bits(&self, class: usize) -> u64 {
        (0..self.quanta.len())
            .filter(|&j| j != class && !self.classes[j].is_empty())
            .map(|j| self.interference_bits(j))
            .sum()
    }

    /// The one-off latency bits on top of the steady per-round
    /// interference: one non-preemptable frame of another class, plus (in
    /// byte mode) each competitor's possible deficit overshoot of up to one
    /// of its frames and the own class's carry-over `L_p/Q_p` share of a
    /// round.
    fn one_off_bits(&self, class: usize) -> u64 {
        let others =
            || (0..self.quanta.len()).filter(move |&j| j != class && !self.classes[j].is_empty());
        let blocking = others().map(|j| self.max_frame_bits(j)).max().unwrap_or(0);
        match self.accounting {
            WrrAccounting::Frames => blocking,
            WrrAccounting::Bytes => {
                let overshoot: u64 = others().map(|j| self.max_frame_bits(j)).sum();
                let quantum = self.quanta[class] * 8;
                let carry = (self.max_frame_bits(class) as f64
                    * self.other_interference_bits(class) as f64
                    / quantum as f64)
                    .ceil() as u64;
                blocking + overshoot + carry
            }
        }
    }

    /// The residual service rate of class `p`: the link capacity scaled by
    /// the class's guaranteed share of a round,
    /// `C · g_p / (g_p + Σ_{j≠p} i_j)` — equal to the quantum share
    /// `φ_p / Σφ · C` under byte accounting (rounded down, staying
    /// pessimistic).  Zero for an empty class under frame accounting.
    pub fn residual_rate(&self, class: usize) -> Result<DataRate, NcError> {
        if class >= self.quanta.len() {
            return Err(NcError::UnknownPriority(class));
        }
        let g = self.guaranteed_bits(class) as f64;
        let i = self.other_interference_bits(class) as f64;
        if g <= 0.0 {
            return Ok(DataRate::ZERO);
        }
        Ok(DataRate::from_bps(
            (self.capacity.as_f64_bps() * g / (g + i)).floor() as u64,
        ))
    }

    /// The residual rate-latency service curve seen by class `p`:
    ///
    /// `β_p = (φ_p / Σφ · C) · (t − Θ_p)⁺` with
    /// `Θ_p = t_techno + (Σ_{j≠p} i_j + o_p) / C`,
    ///
    /// where `i_j` is class `j`'s maximal per-visit quantum in bits and
    /// `o_p` the one-off bits: one maximal non-preemptable frame of another
    /// class, plus the byte-mode deficit corrections (each competitor may
    /// overshoot its quantum by almost one of its frames once, and the own
    /// class may leave up to one frame of credit unspent per round,
    /// `L_p/Q_p · Σ_{j≠p} i_j`).  The latency is rounded **up**, the rate
    /// **down**, so the curve stays pessimistic.
    ///
    /// With a single (non-empty) class the residual is exactly the full
    /// port service `β_{C, t_techno}` — the FCFS service curve.
    pub fn residual_service(&self, class: usize) -> Result<RateLatency, NcError> {
        let rate = self.residual_rate(class)?;
        let latency_bits = self.other_interference_bits(class) + self.one_off_bits(class);
        let latency = self
            .capacity
            .transmission_time(DataSize::from_bits(latency_bits));
        Ok(RateLatency::new(rate, self.ttechno + latency))
    }

    /// Checks long-term stability: every non-empty class's aggregate
    /// sustained rate must fit its residual rate.
    pub fn check_stability(&self) -> Result<(), NcError> {
        for p in 0..self.quanta.len() {
            if self.classes[p].is_empty() {
                continue;
            }
            let demand: DataRate = self.classes[p].iter().map(|f| f.envelope.rate()).sum();
            let residual = self.residual_rate(p)?;
            if demand > residual {
                return Err(NcError::Unstable {
                    context: format!("WRR class {p} residual rate"),
                    demand_bps: demand.bps(),
                    capacity_bps: residual.bps(),
                });
            }
        }
        Ok(())
    }

    /// `true` when any flow of class `p` carries a constraint tighter than
    /// its token-bucket summary.
    fn has_extras_at(&self, class: usize) -> bool {
        self.classes[class].iter().any(|f| f.envelope.has_extra())
    }

    /// The delay bound of class `p`: the aggregate class arrival envelope
    /// against [`WrrMux::residual_service`] — closed form
    /// `D_p = Θ_p + Σ_{i∈S_p} b_i / (φ_p/Σφ · C)`, reported as the minimum
    /// of the closed form and the curve-based horizontal deviation whenever
    /// a flow carries a tighter-than-token-bucket constraint (mirroring the
    /// FCFS and strict-priority multiplexers).  An empty class's bound is
    /// its residual latency.
    pub fn delay_bound(&self, class: usize) -> Result<Duration, NcError> {
        if class >= self.quanta.len() {
            return Err(NcError::UnknownPriority(class));
        }
        let service = self.residual_service(class)?;
        if self.classes[class].is_empty() {
            return Ok(service.latency());
        }
        let aggregate = TokenBucket::aggregate_all(
            self.classes[class]
                .iter()
                .map(|f| f.envelope.token_bucket()),
        );
        if aggregate.rate() > service.rate() {
            return Err(NcError::Unstable {
                context: format!("WRR class {class} residual rate"),
                demand_bps: aggregate.rate().bps(),
                capacity_bps: service.rate().bps(),
            });
        }
        let closed = bounds::delay_bound(&aggregate, &service)?;
        if !self.has_extras_at(class) {
            return Ok(closed);
        }
        let curves = Envelope::aggregate_all(self.classes[class].iter().map(|f| &f.envelope));
        let h = crate::minplus::horizontal_deviation(&curves.effective_curve(), &service.curve())?;
        Ok(closed.min(Duration::from_secs_f64_ceil(h)))
    }

    /// The worst-case backlog of class `p`'s queue (with envelope extras,
    /// the minimum of the closed-form and curve-aggregate vertical
    /// deviations).
    pub fn backlog_bound(&self, class: usize) -> Result<DataSize, NcError> {
        if class >= self.quanta.len() {
            return Err(NcError::UnknownPriority(class));
        }
        if self.classes[class].is_empty() {
            return Ok(DataSize::ZERO);
        }
        let service = self.residual_service(class)?;
        let aggregate = TokenBucket::aggregate_all(
            self.classes[class]
                .iter()
                .map(|f| f.envelope.token_bucket()),
        );
        if aggregate.rate() > service.rate() {
            return Err(NcError::Unstable {
                context: format!("WRR class {class} residual rate"),
                demand_bps: aggregate.rate().bps(),
                capacity_bps: service.rate().bps(),
            });
        }
        let closed = bounds::backlog_bound(&aggregate, &service)?;
        if !self.has_extras_at(class) {
            return Ok(closed);
        }
        let curves = Envelope::aggregate_all(self.classes[class].iter().map(|f| &f.envelope));
        let v = crate::minplus::vertical_deviation(&curves.effective_curve(), &service.curve())?;
        Ok(closed.min(DataSize::from_bits(v.ceil() as u64)))
    }

    /// Full per-class report, ordered by class index.
    pub fn analyze(&self) -> Result<Vec<WrrClassReport>, NcError> {
        self.check_stability()?;
        (0..self.quanta.len())
            .map(|p| {
                let service = self.residual_service(p)?;
                Ok(WrrClassReport {
                    class: p,
                    flow_count: self.classes[p].len(),
                    quantum: self.quanta[p],
                    delay_bound: self.delay_bound(p)?,
                    backlog_bound: self.backlog_bound(p)?,
                    residual_rate: service.rate(),
                    residual_latency: service.latency(),
                })
            })
            .collect()
    }

    /// The output envelope of one flow of class `class` after traversing
    /// this element ([`Envelope::delayed`] by the class's delay bound).
    pub fn output_envelope(&self, class: usize, flow: &Envelope) -> Result<Envelope, NcError> {
        flow.delayed(self.delay_bound(class)?)
    }
}

/// The policy-generic multiplexer: one class-indexed interface over the
/// three disciplines, so a caller holding the unified scheduling policy can
/// build the right analysis without matching on policy enums at every
/// stage.
///
/// Class indices are clamped to the available queues (FCFS has one), the
/// same collapse rule the traffic classifier and the simulator use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mux {
    /// A single FIFO.
    Fcfs(FcfsMux),
    /// Non-preemptive strict priority.
    StaticPriority(StaticPriorityMux),
    /// Weighted round robin.
    Wrr(WrrMux),
}

impl Mux {
    /// A FCFS multiplexer.
    pub fn fcfs(capacity: DataRate, ttechno: Duration) -> Self {
        Mux::Fcfs(FcfsMux::new(capacity, ttechno))
    }

    /// A strict-priority multiplexer with `levels` queues.
    pub fn static_priority(levels: usize, capacity: DataRate, ttechno: Duration) -> Self {
        Mux::StaticPriority(StaticPriorityMux::new(levels, capacity, ttechno))
    }

    /// A weighted-round-robin multiplexer over per-class quanta.
    pub fn wrr(
        capacity: DataRate,
        ttechno: Duration,
        accounting: WrrAccounting,
        quanta: &[u64],
    ) -> Self {
        Mux::Wrr(WrrMux::new(capacity, ttechno, accounting, quanta))
    }

    /// Number of queues the discipline serves.
    pub fn class_count(&self) -> usize {
        match self {
            Mux::Fcfs(_) => 1,
            Mux::StaticPriority(m) => m.level_count(),
            Mux::Wrr(m) => m.class_count(),
        }
    }

    /// Clamps a requested class to the available queues.
    fn clamp(&self, class: usize) -> usize {
        class.min(self.class_count().saturating_sub(1))
    }

    /// Adds a shaped flow with physical frame size `frame` at `class`
    /// (clamped; FCFS ignores the class, FCFS and strict priority ignore
    /// the frame size).
    pub fn add_flow(
        &mut self,
        class: usize,
        flow: impl Into<Envelope>,
        frame: DataSize,
    ) -> Result<(), NcError> {
        let class = self.clamp(class);
        match self {
            Mux::Fcfs(m) => {
                m.add_flow(flow);
                Ok(())
            }
            Mux::StaticPriority(m) => m.add_flow(class, flow),
            Mux::Wrr(m) => m.add_flow(class, flow, frame),
        }
    }

    /// Checks long-term stability of every class.
    pub fn check_stability(&self) -> Result<(), NcError> {
        match self {
            Mux::Fcfs(m) => m.check_stability(),
            Mux::StaticPriority(m) => m.check_stability(),
            Mux::Wrr(m) => m.check_stability(),
        }
    }

    /// The delay bound of `class` (clamped; identical for every class
    /// under FCFS).
    pub fn delay_bound(&self, class: usize) -> Result<Duration, NcError> {
        let class = self.clamp(class);
        match self {
            Mux::Fcfs(m) => m.delay_bound(),
            Mux::StaticPriority(m) => m.delay_bound(class),
            Mux::Wrr(m) => m.delay_bound(class),
        }
    }

    /// The residual rate-latency service seen by `class` (clamped): the
    /// full port service under FCFS, the priority residual under strict
    /// priority, the quantum-share residual under WRR.
    pub fn residual_service(&self, class: usize) -> Result<RateLatency, NcError> {
        let class = self.clamp(class);
        match self {
            Mux::Fcfs(m) => Ok(m.service_curve()),
            Mux::StaticPriority(m) => m.residual_service(class),
            Mux::Wrr(m) => m.residual_service(class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb(bytes: u64, period_ms: u64) -> TokenBucket {
        TokenBucket::for_message(
            DataSize::from_bytes(bytes),
            Duration::from_millis(period_ms),
        )
    }

    fn c10() -> DataRate {
        DataRate::from_mbps(10)
    }

    fn t16() -> Duration {
        Duration::from_micros(16)
    }

    // ---------------- FCFS ----------------

    #[test]
    fn fcfs_bound_matches_hand_calculation() {
        // Three flows of 100, 200, 300 bytes: Σ b = 600 B = 4800 bits.
        // D = 4800 / 10^7 + 16 us = 480 us + 16 us = 496 us.
        let mut mux = FcfsMux::new(c10(), t16());
        mux.add_flows([tb(100, 20), tb(200, 40), tb(300, 160)]);
        assert_eq!(mux.delay_bound().unwrap(), Duration::from_micros(496));
        assert_eq!(mux.flows().len(), 3);
        assert_eq!(mux.aggregate_burst(), DataSize::from_bytes(600));
    }

    #[test]
    fn fcfs_bound_agrees_with_curve_machinery() {
        let mut mux = FcfsMux::new(c10(), t16());
        mux.add_flows([tb(64, 20), tb(1518, 160), tb(256, 40), tb(512, 80)]);
        let a = mux.delay_bound().unwrap();
        let b = mux.delay_bound_via_curves().unwrap();
        assert!(a.as_nanos().abs_diff(b.as_nanos()) <= 1, "{a} vs {b}");
    }

    #[test]
    fn fcfs_empty_mux_has_pure_latency_bound() {
        let mux = FcfsMux::new(c10(), t16());
        assert_eq!(mux.delay_bound().unwrap(), t16());
        assert_eq!(mux.backlog_bound().unwrap(), DataSize::ZERO);
        assert_eq!(mux.utilization(), 0.0);
    }

    #[test]
    fn fcfs_detects_overload() {
        let mut mux = FcfsMux::new(DataRate::from_kbps(10), Duration::ZERO);
        // 1518 bytes every 1 ms is ~12 Mbps >> 10 kbps.
        mux.add_flow(tb(1518, 1));
        assert!(mux.check_stability().is_err());
        assert!(mux.delay_bound().is_err());
        assert!(mux.backlog_bound().is_err());
    }

    #[test]
    fn fcfs_backlog_bound() {
        let mut mux = FcfsMux::new(c10(), t16());
        mux.add_flow(tb(1000, 20));
        // Backlog = b + r·T = 8000 bits + 400_000 b/s * 16e-6 s = 8000 + 6.4 -> 8007 (ceil).
        let q = mux.backlog_bound().unwrap();
        assert!(
            q >= DataSize::from_bits(8_006) && q <= DataSize::from_bits(8_008),
            "{q}"
        );
    }

    #[test]
    fn fcfs_output_envelope_inflates_burst() {
        let mut mux = FcfsMux::new(c10(), t16());
        let f = Envelope::from(tb(1000, 20));
        mux.add_flow(f.clone());
        mux.add_flow(tb(500, 20));
        let out = mux.output_envelope(&f).unwrap();
        assert!(out.burst() > f.burst());
        assert_eq!(out.rate(), f.rate());
    }

    // ---------------- Strict priority ----------------

    /// Hand-computed example used across the workspace:
    ///
    /// * P0: one 64-byte urgent flow, T = 20 ms  -> b = 512 bits, r = 25.6 kbps
    /// * P1: one 1000-byte periodic flow, T = 40 ms -> b = 8_000 bits, r = 200 kbps
    /// * P2: one 1518-byte sporadic flow, T = 160 ms -> b = 12_144 bits, r = 75.9 kbps
    fn example_mux() -> StaticPriorityMux {
        let mut mux = StaticPriorityMux::new(3, c10(), t16());
        mux.add_flow(0, tb(64, 20)).unwrap();
        mux.add_flow(1, tb(1000, 40)).unwrap();
        mux.add_flow(2, tb(1518, 160)).unwrap();
        mux
    }

    #[test]
    fn priority_bound_matches_hand_calculation() {
        let mux = example_mux();
        // P0: (512 + max(8000, 12144)) / 10^7 + 16 us
        //   = 12656 / 10^7 s + 16 us = 1265.6 us + 16 us = 1281.6 -> 1282 us (ceil at ns precision: 1281.6 us).
        let d0 = mux.delay_bound(0).unwrap();
        assert_eq!(d0, Duration::from_nanos(1_265_600 + 16_000));
        // P1: (512 + 8000 + 12144) / (10^7 − 25600) + 16 us.
        let d1 = mux.delay_bound(1).unwrap();
        let expect_ns = (20_656.0_f64 / (10_000_000.0 - 25_600.0) * 1e9).ceil() as u64 + 16_000;
        assert_eq!(d1.as_nanos(), expect_ns);
        // P2: (512 + 8000 + 12144 + 0) / (10^7 − 25600 − 200000) + 16 us.
        let d2 = mux.delay_bound(2).unwrap();
        let expect_ns = (20_656.0_f64 / (10_000_000.0 - 225_600.0) * 1e9).ceil() as u64 + 16_000;
        assert_eq!(d2.as_nanos(), expect_ns);
    }

    #[test]
    fn priority_bound_agrees_with_curve_machinery() {
        let mux = example_mux();
        for p in 0..3 {
            let direct = mux.delay_bound(p).unwrap();
            let via_curves = mux.delay_bound_via_curves(p).unwrap();
            assert!(
                direct.as_nanos().abs_diff(via_curves.as_nanos()) <= 2,
                "p{p}: {direct} vs {via_curves}"
            );
        }
    }

    #[test]
    fn highest_priority_beats_fcfs_for_same_traffic() {
        // The point of the paper: the urgent class gets a much smaller bound
        // under strict priority than under FCFS with the same flow set.
        let mux = example_mux();
        let mut fcfs = FcfsMux::new(c10(), t16());
        fcfs.add_flows([tb(64, 20), tb(1000, 40), tb(1518, 160)]);
        let d_fcfs = fcfs.delay_bound().unwrap();
        let d_p0 = mux.delay_bound(0).unwrap();
        assert!(
            d_p0 < d_fcfs,
            "priority 0 bound {d_p0} not below FCFS bound {d_fcfs}"
        );
    }

    #[test]
    fn lowest_priority_has_no_blocking_term() {
        let mux = example_mux();
        let report = mux.analyze().unwrap();
        assert_eq!(report[2].blocking_burst, DataSize::ZERO);
        assert!(report[0].blocking_burst > DataSize::ZERO);
    }

    #[test]
    fn report_is_ordered_and_complete() {
        let mux = example_mux();
        let report = mux.analyze().unwrap();
        assert_eq!(report.len(), 3);
        for (p, lvl) in report.iter().enumerate() {
            assert_eq!(lvl.priority, p);
            assert_eq!(lvl.flow_count, 1);
            assert!(lvl.residual_rate <= c10());
            assert!(lvl.delay_bound > Duration::ZERO);
        }
        // Residual rate decreases with priority index.
        assert!(report[0].residual_rate >= report[1].residual_rate);
        assert!(report[1].residual_rate >= report[2].residual_rate);
    }

    #[test]
    fn unknown_priority_is_rejected() {
        let mut mux = StaticPriorityMux::new(2, c10(), t16());
        assert!(matches!(
            mux.add_flow(5, tb(64, 20)),
            Err(NcError::UnknownPriority(5))
        ));
        assert!(mux.flows_at(7).is_err());
        assert!(mux.delay_bound(3).is_err());
    }

    #[test]
    fn saturated_higher_priorities_make_lower_levels_unstable() {
        let mut mux = StaticPriorityMux::new(2, DataRate::from_kbps(100), Duration::ZERO);
        // 1518 bytes every 20 ms ≈ 607 kbps > 100 kbps.
        mux.add_flow(0, tb(1518, 20)).unwrap();
        mux.add_flow(1, tb(64, 20)).unwrap();
        assert!(mux.residual_rate(1).is_err());
        assert!(mux.delay_bound(1).is_err());
        assert!(mux.check_stability().is_err());
        assert!(mux.analyze().is_err());
    }

    #[test]
    fn cumulative_overload_detected_at_own_level() {
        // Higher priorities fit, but adding this level's own rate overloads C.
        let mut mux = StaticPriorityMux::new(2, DataRate::from_kbps(700), Duration::ZERO);
        mux.add_flow(0, tb(1518, 20)).unwrap(); // ~607 kbps
        mux.add_flow(1, tb(1518, 20)).unwrap(); // another ~607 kbps
        assert!(mux.residual_rate(1).is_ok());
        assert!(mux.check_stability().is_err());
    }

    #[test]
    fn curve_refinement_falls_back_to_the_closed_form_when_rates_exceed_the_residual() {
        // Stable port (600k + 300k ≤ 1M) whose cumulative rate at level 1
        // nevertheless exceeds the level-1 residual (900k > 1M − 600k):
        // the deviation refinement is undefined there (it counts the
        // higher-priority rates on both sides), so the staircase-carrying
        // bound must be the closed form rather than an `Unstable` error.
        let peak = DataRate::from_mbps(10);
        let mut mux = StaticPriorityMux::new(2, DataRate::from_mbps(1), Duration::ZERO);
        mux.add_flow(
            0,
            Envelope::staircase(DataSize::from_bytes(1_500), Duration::from_millis(20), peak),
        )
        .unwrap();
        mux.add_flow(
            1,
            Envelope::staircase(DataSize::from_bytes(750), Duration::from_millis(20), peak),
        )
        .unwrap();
        mux.check_stability().unwrap();
        // Level 0 keeps the refinement (600k ≤ 1M residual).
        mux.delay_bound(0).unwrap();
        // Closed form: (12_000 + 6_000 bits) / (1M − 600k) = 45 ms.
        let bound = mux.delay_bound(1).unwrap();
        assert_eq!(bound, Duration::from_millis(45));
        // The closed-form backlog is itself a deviation against the
        // residual, so in this regime it stays (correctly) unavailable.
        assert!(matches!(
            mux.backlog_bound(1),
            Err(NcError::Unstable { .. })
        ));
    }

    #[test]
    fn empty_levels_are_allowed() {
        let mut mux = StaticPriorityMux::new(4, c10(), t16());
        mux.add_flow(1, tb(1000, 40)).unwrap();
        let report = mux.analyze().unwrap();
        assert_eq!(report[0].flow_count, 0);
        // An empty highest level still suffers blocking from lower levels.
        assert!(report[0].delay_bound > t16());
        assert_eq!(report.len(), 4);
    }

    #[test]
    fn output_envelope_inflates_burst_by_level_delay() {
        let mux = example_mux();
        let f = Envelope::from(tb(64, 20));
        let out = mux.output_envelope(0, &f).unwrap();
        assert!(out.burst() >= f.burst());
        assert_eq!(out.rate(), f.rate());
    }

    // ---------------- Weighted round robin ----------------

    fn frame(bytes: u64) -> DataSize {
        DataSize::from_bytes(bytes)
    }

    /// Three classes with frame quanta 2:1:1 and one flow each.
    fn example_wrr() -> WrrMux {
        let mut mux = WrrMux::new(c10(), t16(), WrrAccounting::Frames, &[2, 1, 1]);
        mux.add_flow(0, tb(64, 20), frame(64)).unwrap();
        mux.add_flow(1, tb(1000, 40), frame(1000)).unwrap();
        mux.add_flow(2, tb(1518, 160), frame(1518)).unwrap();
        mux
    }

    #[test]
    fn wrr_single_class_residual_is_the_fcfs_service_curve() {
        for accounting in [WrrAccounting::Frames, WrrAccounting::Bytes] {
            let mut wrr = WrrMux::new(c10(), t16(), accounting, &[3]);
            let mut fcfs = FcfsMux::new(c10(), t16());
            for f in [tb(64, 20), tb(1000, 40), tb(1518, 160)] {
                wrr.add_flow(0, f, DataSize::from_bits(f.burst().bits()))
                    .unwrap();
                fcfs.add_flow(f);
            }
            // With no competing class there is no quantum interference and
            // no non-preemption blocking: the residual is β_{C, t_techno}.
            let residual = wrr.residual_service(0).unwrap();
            assert_eq!(residual.rate(), c10(), "{accounting:?}");
            assert_eq!(residual.latency(), t16(), "{accounting:?}");
            assert_eq!(
                wrr.delay_bound(0).unwrap(),
                fcfs.delay_bound().unwrap(),
                "{accounting:?}"
            );
        }
    }

    #[test]
    fn wrr_residual_services_sum_below_the_port_service() {
        let mux = example_wrr();
        let port = RateLatency::new(c10(), t16());
        let residuals: Vec<RateLatency> =
            (0..3).map(|p| mux.residual_service(p).unwrap()).collect();
        let rate_sum: u64 = residuals.iter().map(|r| r.rate().bps()).sum();
        assert!(rate_sum <= port.rate().bps());
        // Pointwise: Σ β_p(t) ≤ β(t) at sampled instants.
        for t_us in [0u64, 16, 100, 1_000, 10_000, 100_000] {
            let t = t_us as f64 * 1e-6;
            let sum: f64 = residuals.iter().map(|r| r.curve().eval(t)).sum();
            assert!(
                sum <= port.curve().eval(t) + 1e-6,
                "Σ residual {sum} above port service at t = {t_us} µs"
            );
        }
    }

    #[test]
    fn wrr_byte_quanta_give_the_exact_rate_share() {
        // Byte quanta 6000:2000:2000 → shares 60/20/20 of 10 Mbps.
        let mut mux = WrrMux::new(c10(), t16(), WrrAccounting::Bytes, &[6000, 2000, 2000]);
        mux.add_flow(0, tb(1000, 40), frame(1000)).unwrap();
        mux.add_flow(1, tb(1000, 40), frame(1000)).unwrap();
        mux.add_flow(2, tb(1518, 160), frame(1518)).unwrap();
        assert_eq!(mux.residual_rate(0).unwrap(), DataRate::from_mbps(6));
        assert_eq!(mux.residual_rate(1).unwrap(), DataRate::from_mbps(2));
        assert_eq!(mux.residual_rate(2).unwrap(), DataRate::from_mbps(2));
        // Latency of class 0: t_techno + (ΣQ' + ΣL' + L_max' + L_0·ΣQ'/Q_0)/C
        // with ΣQ' = 4000·8 bits, ΣL' = (1000+1518)·8, L_max' = 1518·8,
        // L_0 = 1000·8, Q_0 = 6000·8.
        let service = mux.residual_service(0).unwrap();
        let carry = (1000.0_f64 * 8.0 * 4000.0 * 8.0 / (6000.0 * 8.0)).ceil() as u64;
        let bits = 4000 * 8 + (1000 + 1518) * 8 + 1518 * 8 + carry;
        assert_eq!(
            service.latency(),
            t16() + c10().transmission_time(DataSize::from_bits(bits))
        );
    }

    #[test]
    fn wrr_report_is_ordered_and_complete() {
        let mux = example_wrr();
        let report = mux.analyze().unwrap();
        assert_eq!(report.len(), 3);
        for (p, class) in report.iter().enumerate() {
            assert_eq!(class.class, p);
            assert_eq!(class.flow_count, 1);
            assert!(class.delay_bound > Duration::ZERO);
            assert!(class.residual_rate <= c10());
            assert!(class.residual_latency >= t16());
        }
        assert_eq!(report[0].quantum, 2);
        assert!(mux.utilization() > 0.0 && mux.utilization() < 1.0);
        assert_eq!(mux.flow_count(), 3);
    }

    #[test]
    fn wrr_detects_class_overload() {
        // Class 1 gets a tiny quantum share but carries ~6 Mbps.
        let mut mux = WrrMux::new(c10(), Duration::ZERO, WrrAccounting::Bytes, &[15_000, 100]);
        mux.add_flow(0, tb(64, 20), frame(64)).unwrap();
        mux.add_flow(1, tb(1518, 2), frame(1518)).unwrap();
        assert!(mux.check_stability().is_err());
        assert!(mux.delay_bound(1).is_err());
        assert!(mux.analyze().is_err());
        // The under-loaded class is still fine on its own.
        assert!(mux.delay_bound(0).is_ok());
    }

    #[test]
    fn wrr_empty_class_has_latency_only_bound() {
        let mut mux = WrrMux::new(c10(), t16(), WrrAccounting::Frames, &[1, 1]);
        mux.add_flow(1, tb(1518, 40), frame(1518)).unwrap();
        let d0 = mux.delay_bound(0).unwrap();
        assert_eq!(d0, mux.residual_service(0).unwrap().latency());
        assert!(d0 > t16(), "empty class still blocked by the other class");
        assert_eq!(mux.backlog_bound(0).unwrap(), DataSize::ZERO);
    }

    #[test]
    fn wrr_unknown_class_is_rejected() {
        let mut mux = WrrMux::new(c10(), t16(), WrrAccounting::Frames, &[1, 1]);
        assert!(matches!(
            mux.add_flow(5, tb(64, 20), frame(64)),
            Err(NcError::UnknownPriority(5))
        ));
        assert!(mux.flows_at(7).is_err());
        assert!(mux.delay_bound(3).is_err());
        assert!(mux.backlog_bound(3).is_err());
    }

    #[test]
    fn wrr_bound_is_sound_for_the_rate_share_closed_form() {
        // Closed form spot check, byte quanta: D_0 = Θ_0 + b_0 / ρ_0.
        let mut mux = WrrMux::new(c10(), t16(), WrrAccounting::Bytes, &[6000, 2000, 2000]);
        mux.add_flow(0, tb(1000, 40), frame(1000)).unwrap();
        mux.add_flow(1, tb(1000, 40), frame(1000)).unwrap();
        mux.add_flow(2, tb(1518, 160), frame(1518)).unwrap();
        let service = mux.residual_service(0).unwrap();
        let expected = service.latency() + service.rate().transmission_time(frame(1000));
        let got = mux.delay_bound(0).unwrap();
        assert!(
            got.as_nanos().abs_diff(expected.as_nanos()) <= 1,
            "{got} vs {expected}"
        );
    }

    // ---------------- policy-generic dispatch ----------------

    #[test]
    fn mux_dispatch_matches_the_direct_multiplexers() {
        let flows = [tb(64, 20), tb(1000, 40), tb(1518, 160)];

        let mut direct_fcfs = FcfsMux::new(c10(), t16());
        let mut via_fcfs = Mux::fcfs(c10(), t16());
        for (p, f) in flows.iter().enumerate() {
            direct_fcfs.add_flow(*f);
            via_fcfs
                .add_flow(p, *f, DataSize::from_bits(f.burst().bits()))
                .unwrap();
        }
        assert_eq!(via_fcfs.class_count(), 1);
        for p in 0..3 {
            assert_eq!(
                via_fcfs.delay_bound(p).unwrap(),
                direct_fcfs.delay_bound().unwrap()
            );
        }
        assert_eq!(
            via_fcfs.residual_service(0).unwrap(),
            direct_fcfs.service_curve()
        );

        let mut direct_sp = StaticPriorityMux::new(3, c10(), t16());
        let mut via_sp = Mux::static_priority(3, c10(), t16());
        for (p, f) in flows.iter().enumerate() {
            direct_sp.add_flow(p, *f).unwrap();
            via_sp
                .add_flow(p, *f, DataSize::from_bits(f.burst().bits()))
                .unwrap();
        }
        for p in 0..3 {
            assert_eq!(
                via_sp.delay_bound(p).unwrap(),
                direct_sp.delay_bound(p).unwrap()
            );
            assert_eq!(
                via_sp.residual_service(p).unwrap(),
                direct_sp.residual_service(p).unwrap()
            );
        }
        // Out-of-range classes are clamped, exactly like the classifier.
        assert_eq!(
            via_sp.delay_bound(9).unwrap(),
            direct_sp.delay_bound(2).unwrap()
        );

        let mut direct_wrr = WrrMux::new(c10(), t16(), WrrAccounting::Frames, &[2, 1, 1]);
        let mut via_wrr = Mux::wrr(c10(), t16(), WrrAccounting::Frames, &[2, 1, 1]);
        for (p, f) in flows.iter().enumerate() {
            let fr = DataSize::from_bits(f.burst().bits());
            direct_wrr.add_flow(p, *f, fr).unwrap();
            via_wrr.add_flow(p, *f, fr).unwrap();
        }
        via_wrr.check_stability().unwrap();
        for p in 0..3 {
            assert_eq!(
                via_wrr.delay_bound(p).unwrap(),
                direct_wrr.delay_bound(p).unwrap()
            );
        }
    }

    #[test]
    fn single_level_priority_equals_fcfs() {
        // With a single priority level and no lower-priority blocking, the
        // strict-priority formula degenerates to the FCFS formula.
        let mut sp = StaticPriorityMux::new(1, c10(), t16());
        let mut fcfs = FcfsMux::new(c10(), t16());
        for f in [tb(64, 20), tb(1000, 40), tb(1518, 160)] {
            sp.add_flow(0, f).unwrap();
            fcfs.add_flow(f);
        }
        assert_eq!(sp.delay_bound(0).unwrap(), fcfs.delay_bound().unwrap());
    }
}
