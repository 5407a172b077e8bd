//! Multiplexer analysis: the paper's FCFS and strict-priority delay bounds,
//! plus the weighted-round-robin extension, behind one class-indexed
//! [`Mux`].
//!
//! A station (or a switch output port) multiplexes the shaped flows it
//! carries onto one physical link of capacity `C` preceded by a bounded
//! technological latency `t_techno`.  Three disciplines are analysed:
//!
//! * **FCFS** — a single queue; the bound is the same for every flow:
//!   `D = Σ_{i ∈ S} b_i / C + t_techno`.
//! * **Strict priority (802.1p)** — one queue per priority, always serving
//!   the highest non-empty priority, without preemption of the frame in
//!   transmission.  For priority `p` (0 = highest):
//!   `D_p = (Σ_{i ∈ ∪_{q≤p} S_q} b_i + max_{j ∈ ∪_{q>p} S_q} b_j) /
//!          (C − Σ_{i ∈ ∪_{q<p} S_q} r_i) + t_techno`.
//! * **Weighted round robin** — one queue per class served cyclically
//!   under per-class quanta (frame-counted, or byte-counted with deficit
//!   carry-over).  Class `p` sees a residual rate-latency service of rate
//!   `φ_p / Σφ · C` whose latency is inflated by the other classes'
//!   maximal quanta plus one maximal frame of non-preemption — see
//!   [`Mux::residual_service`] for the exact accounting.
//!
//! A [`Mux`] holds each flow's token bucket and frame size in its class's
//! queue and computes only these closed forms; the unit tests cross-check
//! them against the general curve machinery (a class's token-bucket total
//! against its residual rate-latency service curve).  A caller that knows
//! a class's aggregate arrival curve (e.g. the sum of the staircase
//! envelopes of periodic sources) passes it to [`Mux::delay_bound`], which
//! reports the minimum of the closed form and that curve's
//! [`crate::minplus::horizontal_deviation`] against the class's residual
//! service.
//!
//! Class indices are clamped to the available queues (FCFS has one), the
//! same collapse rule the traffic classifier and the simulator use.

use crate::arrival::TokenBucket;
use crate::bounds;
use crate::curve::Curve;
use crate::service::RateLatency;
use crate::NcError;
use units::{DataRate, DataSize, Duration};

/// How a weighted-round-robin quantum is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrrAccounting {
    /// `quantum` whole frames per visit (classic WRR).
    Frames,
    /// `quantum` bytes per visit, unused credit carried over (deficit
    /// round robin).
    Bytes,
}

/// The scheduling discipline of a [`Mux`].
#[derive(Debug, Clone, PartialEq)]
enum Discipline {
    /// A single FIFO.
    Fcfs,
    /// Non-preemptive strict priority, level 0 the most urgent.
    StaticPriority,
    /// Weighted round robin, one quantum per class.
    Wrr {
        accounting: WrrAccounting,
        quanta: Vec<u64>,
    },
}

/// A flow's token bucket at the multiplexer and its physical frame size:
/// bucket bursts inflate as a flow propagates, frame sizes do not, and the
/// WRR quantum accounting works on frames.
type Queue = Vec<(TokenBucket, DataSize)>;

/// A multiplexer fed by shaped flows under one scheduling discipline, with
/// one queue per class.
#[derive(Debug, Clone, PartialEq)]
pub struct Mux {
    discipline: Discipline,
    capacity: DataRate,
    ttechno: Duration,
    classes: Vec<Queue>,
}

impl Mux {
    /// A FCFS multiplexer in front of a link of capacity `capacity` with
    /// relaying-delay bound `ttechno`.
    pub fn fcfs(capacity: DataRate, ttechno: Duration) -> Self {
        Mux::new(Discipline::Fcfs, 1, capacity, ttechno)
    }

    /// A strict-priority multiplexer with `levels` queues (at least one;
    /// the paper uses 4).
    pub fn static_priority(levels: usize, capacity: DataRate, ttechno: Duration) -> Self {
        Mux::new(Discipline::StaticPriority, levels.max(1), capacity, ttechno)
    }

    /// A weighted-round-robin multiplexer with one queue per quantum entry
    /// (at least one; zero quanta are floored to one frame/byte).
    pub fn wrr(
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
        let classes = quanta.len();
        Mux::new(
            Discipline::Wrr { accounting, quanta },
            classes,
            capacity,
            ttechno,
        )
    }

    fn new(discipline: Discipline, classes: usize, capacity: DataRate, ttechno: Duration) -> Self {
        Mux {
            discipline,
            capacity,
            ttechno,
            classes: vec![Vec::new(); classes],
        }
    }

    /// Number of queues the discipline serves.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Clamps a requested class to the available queues.
    pub fn clamp(&self, class: usize) -> usize {
        class.min(self.classes.len().saturating_sub(1))
    }

    /// `true` when class `p`'s queue set is every class `q ≤ p` (strict
    /// priority), `false` when it is class `p` alone (FCFS, WRR); see
    /// [`Mux::class_bucket`].
    pub fn is_cumulative(&self) -> bool {
        self.discipline == Discipline::StaticPriority
    }

    /// Adds a shaped flow with physical frame size `frame` at `class`
    /// (clamped; FCFS and strict priority ignore the frame size).
    pub fn add_flow(&mut self, class: usize, bucket: TokenBucket, frame: DataSize) {
        let class = self.clamp(class);
        self.classes[class].push((bucket, frame));
    }

    /// Checks long-term stability of every class: the whole load must fit
    /// the link under FCFS, the cumulative load of levels `q ≤ p` under
    /// strict priority (whose higher levels must also leave level `p` a
    /// residual rate), and each non-empty class's load its residual rate
    /// under WRR.
    pub fn check_stability(&self) -> Result<(), NcError> {
        match &self.discipline {
            Discipline::Fcfs => {
                let demand = self.class_bucket(0).rate();
                if demand > self.capacity {
                    return Err(unstable("FCFS multiplexer".into(), demand, self.capacity));
                }
            }
            Discipline::StaticPriority => {
                for p in 0..self.classes.len() {
                    self.priority_rate(p)?;
                    let demand = self.class_bucket(p).rate();
                    if demand > self.capacity {
                        return Err(unstable(
                            format!("priority {p} cumulative load"),
                            demand,
                            self.capacity,
                        ));
                    }
                }
            }
            Discipline::Wrr { accounting, quanta } => {
                for p in 0..self.classes.len() {
                    if self.classes[p].is_empty() {
                        continue;
                    }
                    let demand = self.class_bucket(p).rate();
                    let residual = self.wrr_service(p, *accounting, quanta).rate();
                    if demand > residual {
                        return Err(unstable(
                            format!("WRR class {p} residual rate"),
                            demand,
                            residual,
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The delay bound of `class` (clamped; identical for every class
    /// under FCFS): the policy's closed form, refined by the class's
    /// aggregate arrival curve when the caller passes one.
    ///
    /// The closed forms are the paper's FCFS bound `Σ b_i / C + t_techno`,
    /// its strict-priority bound `D_p` (see the module docs), and under WRR
    /// the class's token-bucket total against
    /// [`Mux::residual_service`], `D_p = Θ_p + Σ_{i∈S_p} b_i / (φ_p/Σφ · C)`
    /// (an empty class's bound is its residual latency).  Each returns the
    /// error [`Mux::check_stability`] reports for `class`'s own condition
    /// when that fails: under strict priority both the residual rate and
    /// the cumulative load `Σ_{q≤p} r ≤ C`, which the closed form alone
    /// would not read.
    ///
    /// `aggregate` sums the same flows the closed form sums as token
    /// buckets ([`Mux::class_bucket`]): every flow under FCFS, the levels
    /// `q ≤ p` under strict priority, the class's own flows under WRR.  The
    /// bound is then `min(closed, ⌈h(aggregate, β)⌉)` against
    /// [`Mux::residual_service`]; both are sound, so the minimum is too.
    /// With `early_exit` the deviation stops once the closed form of that
    /// bucket through `β` rules out every later candidate
    /// ([`crate::minplus::horizontal_deviation`]); the bound is the same
    /// either way.
    ///
    /// The refinement falls back to the closed form when the deviation is
    /// unstable.  Under strict priority that happens on stable ports: the
    /// cumulative aggregate `α_{≤p}` meets the residual rate
    /// `C − Σ_{q<p} r`, so the higher-priority rates count on both sides,
    /// and `Σ_{q≤p} r ≤ C` does not imply `Σ_{q≤p} r ≤ C − Σ_{q<p} r`.
    /// Under FCFS and WRR [`Mux::check_stability`] already rules it out.
    pub fn delay_bound(
        &self,
        class: usize,
        aggregate: Option<&Curve>,
        early_exit: bool,
    ) -> Result<Duration, NcError> {
        let class = self.clamp(class);
        let closed = match &self.discipline {
            Discipline::Fcfs => {
                self.check_stability()?;
                let queueing = self
                    .capacity
                    .transmission_time(self.class_bucket(0).burst());
                queueing + self.ttechno
            }
            Discipline::StaticPriority => {
                let rate = self.priority_rate(class)?;
                let bucket = self.class_bucket(class);
                if bucket.rate() > self.capacity {
                    return Err(unstable(
                        format!("priority {class} cumulative load"),
                        bucket.rate(),
                        self.capacity,
                    ));
                }
                let numerator = bucket.burst() + self.blocking_burst(class);
                rate.transmission_time(numerator) + self.ttechno
            }
            Discipline::Wrr { accounting, quanta } => {
                let service = self.wrr_service(class, *accounting, quanta);
                if self.classes[class].is_empty() {
                    service.latency()
                } else {
                    let bucket = self.class_bucket(class);
                    if bucket.rate() > service.rate() {
                        return Err(unstable(
                            format!("WRR class {class} residual rate"),
                            bucket.rate(),
                            service.rate(),
                        ));
                    }
                    bounds::delay_bound(&bucket, &service)?
                }
            }
        };
        let Some(aggregate) = aggregate else {
            return Ok(closed);
        };
        let server = self.residual_service(class)?;
        let bucket = self.class_bucket(class);
        let tail = early_exit.then_some((&bucket, &server));
        match crate::minplus::horizontal_deviation(aggregate, &server.curve(), tail) {
            Ok(h) => Ok(closed.min(Duration::from_secs_f64_ceil(h))),
            Err(NcError::Unstable { .. }) => Ok(closed),
            Err(e) => Err(e),
        }
    }

    /// The token-bucket total of the flows `class`'s bound sums (clamped):
    /// every flow under FCFS, the levels `q ≤ p` under strict priority,
    /// the class's own flows under WRR — the queue set a flow of `class`
    /// is blind-multiplexed with, itself included.  Bursts and rates are
    /// integers, so the total is exact.
    pub fn class_bucket(&self, class: usize) -> TokenBucket {
        let class = self.clamp(class);
        let first = if self.is_cumulative() { 0 } else { class };
        total(&self.classes[first..=class])
    }

    /// The residual rate-latency service seen by `class` (clamped).
    ///
    /// * FCFS: the full port service `β_{C, t_techno}`.
    /// * Strict priority: rate `C − Σ_{q<p} r_i` and latency
    ///   `t_techno + max_{q>p} b_j / (C − Σ_{q<p} r_i)`; the horizontal
    ///   deviation of the levels' `q ≤ p` token-bucket total against it is
    ///   exactly the paper's `D_p`.  An error when the higher levels
    ///   saturate the link.
    /// * WRR: `β_p = (φ_p / Σφ · C) · (t − Θ_p)⁺` with
    ///   `Θ_p = t_techno + (Σ_{j≠p} i_j + o_p) / C`, where `i_j` is class
    ///   `j`'s maximal per-visit quantum in bits (`q_j` of its largest
    ///   frames, or the byte quantum) and `o_p` the one-off bits: one
    ///   maximal non-preemptable frame of another class, plus the byte-mode
    ///   deficit corrections (each competitor may overshoot its quantum by
    ///   almost one of its frames once, and the own class may leave up to
    ///   one frame of credit unspent per round, `L_p/Q_p · Σ_{j≠p} i_j`).
    ///   The rate is `C · g_p / (g_p + Σ_{j≠p} i_j)` with `g_p` the bits one
    ///   visit guarantees the class (`q_p` of its smallest frames, or the
    ///   byte quantum) — the quantum share `φ_p / Σφ · C` under byte
    ///   accounting, zero for an empty class under frame accounting.  Empty
    ///   classes never hold traffic, so a live scheduler skips them and
    ///   they inflate nothing.  The latency is rounded **up**, the rate
    ///   **down**, so the curve stays pessimistic; with a single
    ///   (non-empty) class it is exactly the FCFS service curve.
    pub fn residual_service(&self, class: usize) -> Result<RateLatency, NcError> {
        let class = self.clamp(class);
        match &self.discipline {
            Discipline::Fcfs => Ok(RateLatency::new(self.capacity, self.ttechno)),
            Discipline::StaticPriority => {
                let rate = self.priority_rate(class)?;
                let blocking = rate.transmission_time(self.blocking_burst(class));
                Ok(RateLatency::new(rate, self.ttechno + blocking))
            }
            Discipline::Wrr { accounting, quanta } => {
                Ok(self.wrr_service(class, *accounting, quanta))
            }
        }
    }

    /// The service a flow of `class` (clamped) is blind-multiplexed on
    /// against the rest of its queue set ([`Mux::class_bucket`]):
    /// `β_{C,t}` under FCFS, `β_{C, t + l/C}` with `l` the largest
    /// lower-priority burst under strict priority (non-preemptive
    /// blocking; the higher levels are part of the cross traffic rather
    /// than a reduced rate), the class's quantum-share residual
    /// ([`Mux::residual_service`]) under WRR.
    pub fn leftover_base(&self, class: usize) -> RateLatency {
        let class = self.clamp(class);
        match &self.discipline {
            Discipline::Fcfs | Discipline::StaticPriority => {
                let blocking = self.capacity.transmission_time(self.blocking_burst(class));
                RateLatency::new(self.capacity, self.ttechno + blocking)
            }
            Discipline::Wrr { accounting, quanta } => self.wrr_service(class, *accounting, quanta),
        }
    }

    /// The residual service rate `C − Σ_{q<p} r_i` left to strict-priority
    /// level `p`, or an error when the higher levels saturate the link.
    fn priority_rate(&self, priority: usize) -> Result<DataRate, NcError> {
        let higher = total(&self.classes[..priority]).rate();
        if higher >= self.capacity {
            return Err(unstable(
                format!("priority {priority} residual rate"),
                higher,
                self.capacity,
            ));
        }
        Ok(self.capacity - higher)
    }

    /// The largest burst queued in a class after `class` — under strict
    /// priority the non-preemptable frame that can block level `class`;
    /// zero for the last class.
    fn blocking_burst(&self, class: usize) -> DataSize {
        self.classes[class + 1..]
            .iter()
            .flatten()
            .map(|(bucket, _)| bucket.burst())
            .fold(DataSize::ZERO, DataSize::max)
    }

    /// [`Mux::residual_service`] of WRR class `class`.
    fn wrr_service(&self, class: usize, accounting: WrrAccounting, quanta: &[u64]) -> RateLatency {
        let frames = |j: usize| self.classes[j].iter().map(|(_, frame)| frame.bits());
        let max_frame = |j: usize| frames(j).max().unwrap_or(0);
        // The bits one visit lets class `j` send: `frame` is its smallest
        // frame for what the visit guarantees, its largest for what the
        // visit may take.
        let quantum_bits = |j: usize, frame: u64| match accounting {
            WrrAccounting::Frames => quanta[j] * frame,
            WrrAccounting::Bytes => quanta[j] * 8,
        };
        let others = || (0..quanta.len()).filter(|&j| j != class && !self.classes[j].is_empty());
        let interference: u64 = others().map(|j| quantum_bits(j, max_frame(j))).sum();
        let guaranteed = quantum_bits(class, frames(class).min().unwrap_or(0)) as f64;
        let rate = if guaranteed <= 0.0 {
            DataRate::ZERO
        } else {
            let share =
                self.capacity.as_f64_bps() * guaranteed / (guaranteed + interference as f64);
            DataRate::from_bps(share.floor() as u64)
        };
        let blocking = others().map(max_frame).max().unwrap_or(0);
        let one_off = match accounting {
            WrrAccounting::Frames => blocking,
            WrrAccounting::Bytes => {
                let overshoot: u64 = others().map(max_frame).sum();
                let quantum = quanta[class] * 8;
                let carry =
                    (max_frame(class) as f64 * interference as f64 / quantum as f64).ceil() as u64;
                blocking + overshoot + carry
            }
        };
        let latency = self
            .capacity
            .transmission_time(DataSize::from_bits(interference + one_off));
        RateLatency::new(rate, self.ttechno + latency)
    }
}

/// The token-bucket total of every flow in `queues`.
fn total(queues: &[Queue]) -> TokenBucket {
    TokenBucket::aggregate_all(queues.iter().flatten().map(|(bucket, _)| bucket))
}

/// The overload of a stage: `demand` meets or exceeds `capacity`.
fn unstable(context: String, demand: DataRate, capacity: DataRate) -> NcError {
    NcError::Unstable {
        context,
        demand_bps: demand.bps(),
        capacity_bps: capacity.bps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;
    use crate::minplus::horizontal_deviation;

    fn tb(bytes: u64, period_ms: u64) -> TokenBucket {
        TokenBucket::for_message(
            DataSize::from_bytes(bytes),
            Duration::from_millis(period_ms),
        )
    }

    fn frame(bytes: u64) -> DataSize {
        DataSize::from_bytes(bytes)
    }

    fn c10() -> DataRate {
        DataRate::from_mbps(10)
    }

    fn t16() -> Duration {
        Duration::from_micros(16)
    }

    /// `mux` loaded with `flows`, each `(class, bytes, period_ms)` with its
    /// message as its frame.
    fn loaded(mut mux: Mux, flows: &[(usize, u64, u64)]) -> Mux {
        for &(class, bytes, period_ms) in flows {
            mux.add_flow(class, tb(bytes, period_ms), frame(bytes));
        }
        mux
    }

    /// The closed-form delay bound of `class`.
    fn bound(mux: &Mux, class: usize) -> Duration {
        mux.delay_bound(class, None, false).unwrap()
    }

    /// `⌈h(γ, β)⌉` of `class`'s token-bucket total against its residual
    /// service on the general piecewise-linear curves: the curve-engine
    /// side of the closed-form cross-checks.
    fn deviation_via_curves(mux: &Mux, class: usize) -> Duration {
        let service = mux.residual_service(class).unwrap();
        let bucket = mux.class_bucket(class).curve();
        Duration::from_secs_f64_ceil(horizontal_deviation(&bucket, &service.curve(), None).unwrap())
    }

    // ---------------- FCFS ----------------

    #[test]
    fn fcfs_bound_matches_hand_calculation() {
        // Three flows of 100, 200, 300 bytes: Σ b = 600 B = 4800 bits.
        // D = 4800 / 10^7 + 16 us = 480 us + 16 us = 496 us.
        let flows = [(0, 100, 20), (1, 200, 40), (2, 300, 160)];
        let mux = loaded(Mux::fcfs(c10(), t16()), &flows);
        assert_eq!(bound(&mux, 0), Duration::from_micros(496));
        assert_eq!(mux.class_bucket(0).burst(), DataSize::from_bytes(600));
    }

    #[test]
    fn fcfs_bound_agrees_with_curve_machinery() {
        let flows = [(0, 64, 20), (0, 1518, 160), (0, 256, 40), (0, 512, 80)];
        let mux = loaded(Mux::fcfs(c10(), t16()), &flows);
        let (a, b) = (bound(&mux, 0), deviation_via_curves(&mux, 0));
        assert!(a.as_nanos().abs_diff(b.as_nanos()) <= 1, "{a} vs {b}");
    }

    #[test]
    fn fcfs_empty_mux_has_pure_latency_bound() {
        let mux = Mux::fcfs(c10(), t16());
        assert_eq!(bound(&mux, 0), t16());
        assert_eq!(
            mux.class_bucket(0),
            TokenBucket::new(DataSize::ZERO, DataRate::ZERO)
        );
    }

    #[test]
    fn fcfs_detects_overload() {
        // 1518 bytes every 1 ms is ~12 Mbps >> 10 kbps.
        let mux = loaded(
            Mux::fcfs(DataRate::from_kbps(10), Duration::ZERO),
            &[(0, 1518, 1)],
        );
        assert!(mux.check_stability().is_err());
        assert!(mux.delay_bound(0, None, false).is_err());
    }

    #[test]
    fn fcfs_backlog_bound() {
        // The FCFS queue is bounded through its token-bucket total, the
        // whole port's (1000 B every 20 ms: 8000 bits at 400 kb/s), against
        // the port's service: the backlog b + r·T = 8000 + 400_000 b/s ·
        // 16e-6 s = 8006.4 bits.
        let mux = loaded(Mux::fcfs(c10(), t16()), &[(0, 1000, 20)]);
        let total = mux.class_bucket(0);
        assert_eq!(total, tb(1000, 20));
        let latency = mux.residual_service(0).unwrap().latency();
        let backlog = total.burst() + total.rate().bits_in(latency);
        assert_eq!(backlog, DataSize::from_bits(8_006));
    }

    #[test]
    fn fcfs_output_envelope_inflates_burst() {
        let mux = loaded(Mux::fcfs(c10(), t16()), &[(0, 1000, 20), (0, 500, 20)]);
        let f = Envelope::from(tb(1000, 20));
        let out = f.delayed(bound(&mux, 0)).unwrap();
        assert!(out.burst() > f.burst());
        assert_eq!(out.rate(), f.rate());
    }

    // ---------------- Strict priority ----------------

    /// Hand-computed example used across the workspace:
    ///
    /// * P0: one 64-byte urgent flow, T = 20 ms  -> b = 512 bits, r = 25.6 kbps
    /// * P1: one 1000-byte periodic flow, T = 40 ms -> b = 8_000 bits, r = 200 kbps
    /// * P2: one 1518-byte sporadic flow, T = 160 ms -> b = 12_144 bits, r = 75.9 kbps
    fn example_mux() -> Mux {
        let flows = [(0, 64, 20), (1, 1000, 40), (2, 1518, 160)];
        loaded(Mux::static_priority(3, c10(), t16()), &flows)
    }

    #[test]
    fn priority_bound_matches_hand_calculation() {
        let mux = example_mux();
        // P0: (512 + max(8000, 12144)) / 10^7 + 16 us
        //   = 12656 / 10^7 s + 16 us = 1265.6 us + 16 us = 1281.6 -> 1282 us (ceil at ns precision: 1281.6 us).
        let d0 = bound(&mux, 0);
        assert_eq!(d0, Duration::from_nanos(1_265_600 + 16_000));
        // P1: (512 + 8000 + 12144) / (10^7 − 25600) + 16 us.
        let d1 = bound(&mux, 1);
        let expect_ns = (20_656.0_f64 / (10_000_000.0 - 25_600.0) * 1e9).ceil() as u64 + 16_000;
        assert_eq!(d1.as_nanos(), expect_ns);
        // P2: (512 + 8000 + 12144 + 0) / (10^7 − 25600 − 200000) + 16 us.
        let d2 = bound(&mux, 2);
        let expect_ns = (20_656.0_f64 / (10_000_000.0 - 225_600.0) * 1e9).ceil() as u64 + 16_000;
        assert_eq!(d2.as_nanos(), expect_ns);
    }

    #[test]
    fn priority_bound_agrees_with_curve_machinery() {
        let mux = example_mux();
        for p in 0..3 {
            let direct = bound(&mux, p);
            let via_curves = deviation_via_curves(&mux, p);
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
        let flows = [(0, 64, 20), (0, 1000, 40), (0, 1518, 160)];
        let d_fcfs = bound(&loaded(Mux::fcfs(c10(), t16()), &flows), 0);
        let d_p0 = bound(&mux, 0);
        assert!(
            d_p0 < d_fcfs,
            "priority 0 bound {d_p0} not below FCFS bound {d_fcfs}"
        );
    }

    #[test]
    fn lowest_priority_has_no_blocking_term() {
        let mux = example_mux();
        // Nothing below the lowest level can block it: its residual
        // latency is t_techno alone, and it is blind-multiplexed on the
        // bare port service.
        assert_eq!(mux.residual_service(2).unwrap().latency(), t16());
        assert_eq!(mux.leftover_base(2), RateLatency::new(c10(), t16()));
        // Level 0 waits for the largest lower-priority frame, 1518 B.
        assert!(mux.residual_service(0).unwrap().latency() > t16());
        let blocking = c10().transmission_time(frame(1518));
        assert_eq!(
            mux.leftover_base(0),
            RateLatency::new(c10(), t16() + blocking)
        );
    }

    #[test]
    fn report_is_ordered_and_complete() {
        let mux = example_mux();
        assert_eq!(mux.class_count(), 3);
        mux.check_stability().unwrap();
        let services: Vec<RateLatency> = (0..3).map(|p| mux.residual_service(p).unwrap()).collect();
        for (p, service) in services.iter().enumerate() {
            assert!(service.rate() <= c10());
            assert!(bound(&mux, p) > Duration::ZERO);
        }
        // Each level's queue set adds one flow.
        assert_eq!(mux.class_bucket(0), tb(64, 20));
        assert_eq!(
            mux.class_bucket(2).burst(),
            DataSize::from_bytes(64 + 1000 + 1518)
        );
        // Residual rate decreases with priority index.
        assert!(services[0].rate() >= services[1].rate());
        assert!(services[1].rate() >= services[2].rate());
    }

    #[test]
    fn unknown_priority_is_rejected() {
        // A priority past the last level is not an error: it is clamped to
        // the lowest level, like the traffic classifier.
        let mut mux = Mux::static_priority(2, c10(), t16());
        mux.add_flow(5, tb(64, 20), frame(64));
        assert_eq!(mux.class_bucket(0).burst(), DataSize::ZERO);
        assert_eq!(mux.class_bucket(1), tb(64, 20));
        assert_eq!(mux.class_bucket(7), tb(64, 20));
        assert_eq!(bound(&mux, 3), bound(&mux, 1));
    }

    #[test]
    fn saturated_higher_priorities_make_lower_levels_unstable() {
        // 1518 bytes every 20 ms ≈ 607 kbps > 100 kbps.
        let mux = loaded(
            Mux::static_priority(2, DataRate::from_kbps(100), Duration::ZERO),
            &[(0, 1518, 20), (1, 64, 20)],
        );
        assert!(mux.residual_service(1).is_err());
        assert!(mux.delay_bound(1, None, false).is_err());
        assert!(mux.check_stability().is_err());
    }

    #[test]
    fn cumulative_overload_detected_at_own_level() {
        // Higher priorities fit, but adding this level's own rate overloads C:
        // ~607 kbps at each of the two levels.
        let mux = loaded(
            Mux::static_priority(2, DataRate::from_kbps(700), Duration::ZERO),
            &[(0, 1518, 20), (1, 1518, 20)],
        );
        assert!(mux.residual_service(1).is_ok());
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
        let period = Duration::from_millis(20);
        let urgent = Envelope::staircase(DataSize::from_bytes(1_500), period, peak);
        let bulk = Envelope::staircase(DataSize::from_bytes(750), period, peak);
        let mut mux = Mux::static_priority(2, DataRate::from_mbps(1), Duration::ZERO);
        for (p, flow) in [&urgent, &bulk].into_iter().enumerate() {
            mux.add_flow(p, flow.token_bucket(), flow.burst());
        }
        mux.check_stability().unwrap();
        // Level 0 keeps the refinement (600k ≤ 1M residual).
        let level0 = urgent.effective_curve().into_owned();
        assert!(
            mux.delay_bound(0, Some(&level0), true).unwrap()
                <= mux.delay_bound(0, None, true).unwrap()
        );
        // Closed form: (12_000 + 6_000 bits) / (1M − 600k) = 45 ms.
        let cumulative = level0.add(&bulk.effective_curve());
        let bound = mux.delay_bound(1, Some(&cumulative), true).unwrap();
        assert_eq!(mux.delay_bound(1, Some(&cumulative), false).unwrap(), bound);
        assert_eq!(bound, Duration::from_millis(45));
        // The level's token-bucket total outruns its residual service.
        assert!(mux.class_bucket(1).rate() > mux.residual_service(1).unwrap().rate());
    }

    #[test]
    fn empty_levels_are_allowed() {
        let mux = loaded(Mux::static_priority(4, c10(), t16()), &[(1, 1000, 40)]);
        assert_eq!(mux.class_count(), 4);
        mux.check_stability().unwrap();
        assert_eq!(mux.class_bucket(0).burst(), DataSize::ZERO);
        // An empty highest level still suffers blocking from lower levels.
        assert!(bound(&mux, 0) > t16());
    }

    #[test]
    fn output_envelope_inflates_burst_by_level_delay() {
        let mux = example_mux();
        let f = Envelope::from(tb(64, 20));
        let out = f.delayed(bound(&mux, 0)).unwrap();
        assert!(out.burst() >= f.burst());
        assert_eq!(out.rate(), f.rate());
    }

    // ---------------- Weighted round robin ----------------

    /// Three classes with frame quanta 2:1:1 and one flow each.
    fn example_wrr() -> Mux {
        let flows = [(0, 64, 20), (1, 1000, 40), (2, 1518, 160)];
        loaded(
            Mux::wrr(c10(), t16(), WrrAccounting::Frames, &[2, 1, 1]),
            &flows,
        )
    }

    /// Byte quanta 6000:2000:2000 with one flow per class.
    fn byte_wrr() -> Mux {
        let flows = [(0, 1000, 40), (1, 1000, 40), (2, 1518, 160)];
        loaded(
            Mux::wrr(c10(), t16(), WrrAccounting::Bytes, &[6000, 2000, 2000]),
            &flows,
        )
    }

    #[test]
    fn wrr_single_class_residual_is_the_fcfs_service_curve() {
        let flows = [(0, 64, 20), (0, 1000, 40), (0, 1518, 160)];
        let fcfs = loaded(Mux::fcfs(c10(), t16()), &flows);
        for accounting in [WrrAccounting::Frames, WrrAccounting::Bytes] {
            let wrr = loaded(Mux::wrr(c10(), t16(), accounting, &[3]), &flows);
            // With no competing class there is no quantum interference and
            // no non-preemption blocking: the residual is β_{C, t_techno}.
            let residual = wrr.residual_service(0).unwrap();
            assert_eq!(residual.rate(), c10(), "{accounting:?}");
            assert_eq!(residual.latency(), t16(), "{accounting:?}");
            assert_eq!(bound(&wrr, 0), bound(&fcfs, 0), "{accounting:?}");
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
        let mux = byte_wrr();
        let rate = |p| mux.residual_service(p).unwrap().rate();
        assert_eq!(rate(0), DataRate::from_mbps(6));
        assert_eq!(rate(1), DataRate::from_mbps(2));
        assert_eq!(rate(2), DataRate::from_mbps(2));
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
        assert_eq!(mux.class_count(), 3);
        mux.check_stability().unwrap();
        let flows = [tb(64, 20), tb(1000, 40), tb(1518, 160)];
        for (p, flow) in flows.iter().enumerate() {
            // Each class's queue set is the class alone.
            assert_eq!(mux.class_bucket(p), *flow);
            let service = mux.residual_service(p).unwrap();
            assert!(bound(&mux, p) > Duration::ZERO);
            assert!(service.rate() <= c10());
            assert!(service.latency() >= t16());
        }
    }

    #[test]
    fn wrr_detects_class_overload() {
        // Class 1 gets a tiny quantum share but carries ~6 Mbps.
        let mux = loaded(
            Mux::wrr(c10(), Duration::ZERO, WrrAccounting::Bytes, &[15_000, 100]),
            &[(0, 64, 20), (1, 1518, 2)],
        );
        assert!(mux.check_stability().is_err());
        assert!(mux.delay_bound(1, None, false).is_err());
        // The under-loaded class is still fine on its own.
        assert!(mux.delay_bound(0, None, false).is_ok());
    }

    #[test]
    fn wrr_empty_class_has_latency_only_bound() {
        let mux = loaded(
            Mux::wrr(c10(), t16(), WrrAccounting::Frames, &[1, 1]),
            &[(1, 1518, 40)],
        );
        let d0 = bound(&mux, 0);
        assert_eq!(d0, mux.residual_service(0).unwrap().latency());
        assert!(d0 > t16(), "empty class still blocked by the other class");
    }

    #[test]
    fn wrr_unknown_class_is_rejected() {
        // A class past the last one is not an error: it is clamped to the
        // last class, like the traffic classifier.
        let mut mux = Mux::wrr(c10(), t16(), WrrAccounting::Frames, &[1, 1]);
        mux.add_flow(5, tb(64, 20), frame(64));
        assert_eq!(mux.class_bucket(1), tb(64, 20));
        assert_eq!(bound(&mux, 3), bound(&mux, 1));
        assert_eq!(mux.residual_service(9), mux.residual_service(1));
    }

    #[test]
    fn wrr_bound_is_sound_for_the_rate_share_closed_form() {
        // Closed form spot check, byte quanta: D_0 = Θ_0 + b_0 / ρ_0.
        let mux = byte_wrr();
        let service = mux.residual_service(0).unwrap();
        let expected = service.latency() + service.rate().transmission_time(frame(1000));
        let got = bound(&mux, 0);
        assert!(
            got.as_nanos().abs_diff(expected.as_nanos()) <= 1,
            "{got} vs {expected}"
        );
    }

    // ---------------- one multiplexer, three disciplines ----------------

    #[test]
    fn mux_dispatch_matches_the_direct_multiplexers() {
        let flows = [(0, 64, 20), (1, 1000, 40), (2, 1518, 160)];
        let fcfs = loaded(Mux::fcfs(c10(), t16()), &flows);
        let sp = loaded(Mux::static_priority(3, c10(), t16()), &flows);
        let wrr = loaded(
            Mux::wrr(c10(), t16(), WrrAccounting::Frames, &[2, 1, 1]),
            &flows,
        );
        assert_eq!(
            (fcfs.class_count(), sp.class_count(), wrr.class_count()),
            (1, 3, 3)
        );
        assert!(sp.is_cumulative() && !fcfs.is_cumulative() && !wrr.is_cumulative());
        let buckets = [tb(64, 20), tb(1000, 40), tb(1518, 160)];
        for p in 0..3 {
            // FCFS sums every flow, strict priority the levels up to p,
            // WRR the class alone.
            assert_eq!(fcfs.class_bucket(p), TokenBucket::aggregate_all(buckets));
            assert_eq!(
                sp.class_bucket(p),
                TokenBucket::aggregate_all(&buckets[..=p])
            );
            assert_eq!(wrr.class_bucket(p), buckets[p]);
            // FCFS is one class: every class reads the same bound and the
            // bare port service.
            assert_eq!(bound(&fcfs, p), bound(&fcfs, 0));
            assert_eq!(
                fcfs.residual_service(p).unwrap(),
                RateLatency::new(c10(), t16())
            );
            // Every bound is the class's total through its residual
            // service, up to the closed forms' nanosecond rounding.
            for mux in [&fcfs, &sp, &wrr] {
                let service = mux.residual_service(p).unwrap();
                let through = bounds::delay_bound(&mux.class_bucket(p), &service).unwrap();
                let d = bound(mux, p);
                assert!(
                    d.as_nanos().abs_diff(through.as_nanos()) <= 2,
                    "{d} vs {through}"
                );
            }
        }
        // Out-of-range classes are clamped, exactly like the classifier.
        assert_eq!(bound(&sp, 9), bound(&sp, 2));
    }

    #[test]
    fn overload_errors_are_pinned_per_discipline() {
        // These errors reach admission rejection reasons on the wire, so
        // their context text, demand and capacity are pinned whole.
        let unstable = |context: &str, demand_bps, capacity_bps| NcError::Unstable {
            context: context.to_string(),
            demand_bps,
            capacity_bps,
        };

        // FCFS: 1518 B every 1 ms is 12.144 Mbps on a 10 kbps link.
        let fcfs = loaded(
            Mux::fcfs(DataRate::from_kbps(10), Duration::ZERO),
            &[(0, 1518, 1)],
        );
        let overload = unstable("FCFS multiplexer", 12_144_000, 10_000);
        assert_eq!(fcfs.check_stability(), Err(overload.clone()));
        assert_eq!(fcfs.delay_bound(0, None, false), Err(overload));

        // Strict priority, residual saturation: level 0 takes exactly the
        // whole link (607.2 kbps), which its own cumulative load allows,
        // and leaves level 1 no residual rate.
        let sp = loaded(
            Mux::static_priority(3, DataRate::from_bps(607_200), Duration::ZERO),
            &[(0, 1518, 20), (1, 64, 20)],
        );
        let saturated = unstable("priority 1 residual rate", 607_200, 607_200);
        assert_eq!(sp.check_stability(), Err(saturated.clone()));
        assert_eq!(sp.delay_bound(1, None, false), Err(saturated));
        assert_eq!(
            sp.delay_bound(2, None, false),
            Err(unstable("priority 2 residual rate", 632_800, 607_200))
        );

        // Strict priority, cumulative load: levels 0 and 1 fit one at a
        // time (607.2 kbps each on 700 kbps) but not together.  The bound
        // reports the overload the stability check does, although the
        // residual rate `C − r_0` alone would leave level 1 a finite bound.
        let sp = loaded(
            Mux::static_priority(2, DataRate::from_kbps(700), Duration::ZERO),
            &[(0, 1518, 20), (1, 1518, 20)],
        );
        let overload = unstable("priority 1 cumulative load", 1_214_400, 700_000);
        assert_eq!(sp.check_stability(), Err(overload.clone()));
        assert_eq!(sp.delay_bound(1, None, false), Err(overload));

        // WRR in bytes: class 1's 100 B quantum against class 0's 15000 B
        // leaves it ⌊10 Mbps · 800 / 120800⌋ = 66225 b/s for 6.072 Mbps.
        let wrr = loaded(
            Mux::wrr(c10(), Duration::ZERO, WrrAccounting::Bytes, &[15_000, 100]),
            &[(0, 64, 20), (1, 1518, 2)],
        );
        let overload = unstable("WRR class 1 residual rate", 6_072_000, 66_225);
        assert_eq!(wrr.check_stability(), Err(overload.clone()));
        assert_eq!(wrr.delay_bound(1, None, false), Err(overload));
    }

    #[test]
    fn single_level_priority_equals_fcfs() {
        // With a single priority level and no lower-priority blocking, the
        // strict-priority formula degenerates to the FCFS formula.
        let flows = [(0, 64, 20), (0, 1000, 40), (0, 1518, 160)];
        let sp = loaded(Mux::static_priority(1, c10(), t16()), &flows);
        let fcfs = loaded(Mux::fcfs(c10(), t16()), &flows);
        assert_eq!(bound(&sp, 0), bound(&fcfs, 0));
    }
}
