//! Messages, stations and workloads.

use core::fmt;
use netcalc::{Envelope, EnvelopeModel};
use serde::{Deserialize, Serialize};
use shaping::TrafficClass;
use units::{DataRate, DataSize, Duration};

/// Identifier of a message within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub usize);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a station (avionics subsystem) within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StationId(pub usize);

impl fmt::Display for StationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An avionics subsystem attached to the network (and, in the baseline, a
/// remote terminal on the 1553B bus).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Station {
    /// Station identifier.
    pub id: StationId,
    /// Subsystem name.
    pub name: String,
}

/// How a message stream is activated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arrival {
    /// Strictly periodic production with the given period.
    Periodic {
        /// Production period.
        period: Duration,
    },
    /// Sporadic production with a minimal inter-arrival time.
    Sporadic {
        /// Minimal time between two consecutive productions.
        min_interarrival: Duration,
    },
}

impl Arrival {
    /// The period `T_i` the paper uses in the shaper: the period for
    /// periodic messages, the minimal inter-arrival time for sporadic ones.
    pub fn characteristic_interval(&self) -> Duration {
        match self {
            Arrival::Periodic { period } => *period,
            Arrival::Sporadic { min_interarrival } => *min_interarrival,
        }
    }

    /// `true` for periodic streams.
    pub fn is_periodic(&self) -> bool {
        matches!(self, Arrival::Periodic { .. })
    }
}

/// One message stream of the avionics application.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageSpec {
    /// Identifier within the workload.
    pub id: MessageId,
    /// Human-readable name (e.g. "nav-solution", "threat-warning").
    pub name: String,
    /// Producing station.
    pub source: StationId,
    /// Consuming station.
    pub destination: StationId,
    /// Application payload per message instance.
    pub payload: DataSize,
    /// Activation pattern.
    pub arrival: Arrival,
    /// Maximal end-to-end response time required by the application.
    pub deadline: Duration,
}

impl MessageSpec {
    /// The paper's traffic class of this message: periodic messages are
    /// class P1, sporadic messages are classed by their deadline (≤ 3 ms →
    /// P0, ≤ 160 ms → P2, otherwise P3).
    pub fn traffic_class(&self) -> TrafficClass {
        match self.arrival {
            Arrival::Periodic { .. } => TrafficClass::Periodic,
            Arrival::Sporadic { .. } => TrafficClass::for_sporadic_deadline(self.deadline),
        }
    }

    /// The paper's priority index (0–3) of this message.
    pub fn priority(&self) -> usize {
        self.traffic_class().priority()
    }

    /// The characteristic interval `T_i` (period or minimal inter-arrival
    /// time) used to derive the shaper rate.
    pub fn interval(&self) -> Duration {
        self.arrival.characteristic_interval()
    }

    /// The message length `b_i` on the Ethernet wire: the payload
    /// encapsulated in one 802.1Q-tagged Ethernet frame (padded to the
    /// minimum frame size when needed).
    ///
    /// Payloads above the 1500-byte MTU would need fragmentation; the
    /// avionics messages modelled here are far below it, and the constructor
    /// helpers in [`case_study`](mod@crate::case_study) and
    /// [`generator`](crate::generator) never exceed it.
    pub fn frame_size(&self) -> DataSize {
        ethernet::frame_size(self.payload)
    }

    /// The shaper rate `r_i = b_i / T_i` of this message (frame size over
    /// characteristic interval).
    pub fn shaper_rate(&self) -> DataRate {
        DataRate::per(self.frame_size(), self.interval())
            .expect("message intervals are validated to be non-zero")
    }

    /// The arrival envelope of this message under the given model, on a
    /// line of rate `link_rate`.
    ///
    /// The token-bucket model is the paper's `(b_i, r_i)` shaper contract.
    /// The staircase model additionally carries the staircase of the
    /// release pattern — exact for periodic messages and valid for
    /// sporadic ones too, whose minimal inter-arrival time bounds the
    /// release count of any window by the same `⌊t/T⌋ + 1`.
    pub fn arrival_envelope(&self, model: EnvelopeModel, link_rate: DataRate) -> Envelope {
        Envelope::for_message(model, self.frame_size(), self.interval(), link_rate)
    }

    /// `true` if the message's deadline is trivially unachievable (shorter
    /// than its own frame serialization would allow at any finite rate —
    /// i.e. zero).
    pub fn has_degenerate_deadline(&self) -> bool {
        self.deadline.is_zero()
    }
}

impl fmt::Display for MessageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}->{} {} every {} (deadline {})",
            self.name,
            self.traffic_class(),
            self.source,
            self.destination,
            self.payload,
            self.interval(),
            self.deadline
        )
    }
}

/// A complete avionics workload: stations plus the message streams between
/// them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The stations, indexed by [`StationId`].
    pub stations: Vec<Station>,
    /// The message streams, indexed by [`MessageId`].
    pub messages: Vec<MessageSpec>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Workload {
            stations: Vec::new(),
            messages: Vec::new(),
        }
    }

    /// Adds a station and returns its id.
    pub fn add_station(&mut self, name: impl Into<String>) -> StationId {
        let id = StationId(self.stations.len());
        self.stations.push(Station {
            id,
            name: name.into(),
        });
        id
    }

    /// Adds a message and returns its id.
    ///
    /// # Panics
    /// Panics if the message references an unknown station, has a zero
    /// characteristic interval, or its payload exceeds the Ethernet MTU —
    /// all configuration errors that must fail loudly.
    pub fn add_message(
        &mut self,
        name: impl Into<String>,
        source: StationId,
        destination: StationId,
        payload: DataSize,
        arrival: Arrival,
        deadline: Duration,
    ) -> MessageId {
        assert!(source.0 < self.stations.len(), "unknown source station");
        assert!(
            destination.0 < self.stations.len(),
            "unknown destination station"
        );
        assert!(
            !arrival.characteristic_interval().is_zero(),
            "message interval must be non-zero"
        );
        assert!(
            payload.bytes() <= ethernet::frame::MAX_PAYLOAD,
            "payload exceeds the Ethernet MTU"
        );
        let id = MessageId(self.messages.len());
        self.messages.push(MessageSpec {
            id,
            name: name.into(),
            source,
            destination,
            payload,
            arrival,
            deadline,
        });
        id
    }

    /// The message with the given id.
    pub fn message(&self, id: MessageId) -> &MessageSpec {
        &self.messages[id.0]
    }

    /// The station with the given id.
    pub fn station(&self, id: StationId) -> &Station {
        &self.stations[id.0]
    }

    /// Messages produced by a station.
    pub fn messages_from(&self, station: StationId) -> Vec<&MessageSpec> {
        self.messages
            .iter()
            .filter(|m| m.source == station)
            .collect()
    }

    /// Messages consumed by a station.
    pub fn messages_to(&self, station: StationId) -> Vec<&MessageSpec> {
        self.messages
            .iter()
            .filter(|m| m.destination == station)
            .collect()
    }

    /// Messages of a given traffic class.
    pub fn messages_of_class(&self, class: TrafficClass) -> Vec<&MessageSpec> {
        self.messages
            .iter()
            .filter(|m| m.traffic_class() == class)
            .collect()
    }

    /// The aggregate shaped rate offered to the network by all messages.
    pub fn total_rate(&self) -> DataRate {
        self.messages.iter().map(|m| m.shaper_rate()).sum()
    }

    /// The aggregate shaped rate converging on one destination station (the
    /// load of the switch output port serving it).
    pub fn rate_towards(&self, station: StationId) -> DataRate {
        self.messages
            .iter()
            .filter(|m| m.destination == station)
            .map(|m| m.shaper_rate())
            .sum()
    }

    /// Utilization of a link of the given capacity by the traffic towards a
    /// station.
    pub fn utilization_towards(&self, station: StationId, capacity: DataRate) -> f64 {
        self.rate_towards(station).utilization_of(capacity)
    }

    /// The tightest deadline in the workload.
    pub fn tightest_deadline(&self) -> Option<Duration> {
        self.messages.iter().map(|m| m.deadline).min()
    }
}

impl Default for Workload {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_station_workload() -> (Workload, StationId, StationId) {
        let mut w = Workload::new();
        let a = w.add_station("sensor");
        let b = w.add_station("mission-computer");
        (w, a, b)
    }

    #[test]
    fn classes_follow_paper_rules() {
        let (mut w, a, b) = two_station_workload();
        let urgent = w.add_message(
            "threat",
            a,
            b,
            DataSize::from_bytes(32),
            Arrival::Sporadic {
                min_interarrival: Duration::from_millis(20),
            },
            Duration::from_millis(3),
        );
        let periodic = w.add_message(
            "nav",
            a,
            b,
            DataSize::from_bytes(64),
            Arrival::Periodic {
                period: Duration::from_millis(40),
            },
            Duration::from_millis(40),
        );
        let sporadic = w.add_message(
            "event",
            a,
            b,
            DataSize::from_bytes(128),
            Arrival::Sporadic {
                min_interarrival: Duration::from_millis(40),
            },
            Duration::from_millis(80),
        );
        let background = w.add_message(
            "maintenance",
            a,
            b,
            DataSize::from_bytes(1024),
            Arrival::Sporadic {
                min_interarrival: Duration::from_millis(160),
            },
            Duration::from_millis(500),
        );
        assert_eq!(
            w.message(urgent).traffic_class(),
            TrafficClass::UrgentSporadic
        );
        assert_eq!(w.message(periodic).traffic_class(), TrafficClass::Periodic);
        assert_eq!(w.message(sporadic).traffic_class(), TrafficClass::Sporadic);
        assert_eq!(
            w.message(background).traffic_class(),
            TrafficClass::Background
        );
        assert_eq!(w.message(urgent).priority(), 0);
        assert_eq!(w.message(background).priority(), 3);
        assert_eq!(w.messages_of_class(TrafficClass::Periodic).len(), 1);
    }

    #[test]
    fn frame_size_includes_ethernet_overhead() {
        let (mut w, a, b) = two_station_workload();
        let small = w.add_message(
            "tiny",
            a,
            b,
            DataSize::from_bytes(8),
            Arrival::Periodic {
                period: Duration::from_millis(20),
            },
            Duration::from_millis(20),
        );
        // 8-byte payload -> padded, tagged minimum frame of 68 bytes.
        assert_eq!(w.message(small).frame_size(), DataSize::from_bytes(68));
        let large = w.add_message(
            "bulk",
            a,
            b,
            DataSize::from_bytes(1000),
            Arrival::Periodic {
                period: Duration::from_millis(160),
            },
            Duration::from_millis(160),
        );
        // 14 + 1000 + 4 + 4 (tag) = 1022 bytes.
        assert_eq!(w.message(large).frame_size(), DataSize::from_bytes(1022));
    }

    #[test]
    fn arrival_envelope_follows_the_model() {
        let (mut w, a, b) = two_station_workload();
        let id = w.add_message(
            "nav",
            a,
            b,
            DataSize::from_bytes(46),
            Arrival::Periodic {
                period: Duration::from_millis(20),
            },
            Duration::from_millis(20),
        );
        let link = DataRate::from_mbps(10);
        let tb = w
            .message(id)
            .arrival_envelope(EnvelopeModel::TokenBucket, link);
        assert!(!tb.has_extra());
        assert_eq!(tb.burst(), w.message(id).frame_size());
        assert_eq!(tb.rate(), w.message(id).shaper_rate());
        let st = w
            .message(id)
            .arrival_envelope(EnvelopeModel::Staircase, link);
        assert!(st.has_extra());
        assert_eq!(st.rate(), tb.rate());
    }

    #[test]
    fn shaper_rate_is_frame_size_over_interval() {
        let (mut w, a, b) = two_station_workload();
        let id = w.add_message(
            "nav",
            a,
            b,
            DataSize::from_bytes(46),
            Arrival::Periodic {
                period: Duration::from_millis(20),
            },
            Duration::from_millis(20),
        );
        // 46-byte payload -> 68-byte tagged frame = 544 bits / 20 ms = 27.2 kbps.
        assert_eq!(w.message(id).shaper_rate(), DataRate::from_bps(27_200));
    }

    #[test]
    fn workload_queries() {
        let (mut w, a, b) = two_station_workload();
        let c = w.add_station("display");
        for i in 0..3 {
            w.add_message(
                format!("a-to-b-{i}"),
                a,
                b,
                DataSize::from_bytes(64),
                Arrival::Periodic {
                    period: Duration::from_millis(20),
                },
                Duration::from_millis(20),
            );
        }
        w.add_message(
            "b-to-c",
            b,
            c,
            DataSize::from_bytes(64),
            Arrival::Periodic {
                period: Duration::from_millis(40),
            },
            Duration::from_millis(10),
        );
        assert_eq!(w.messages_from(a).len(), 3);
        assert_eq!(w.messages_to(b).len(), 3);
        assert_eq!(w.messages_to(c).len(), 1);
        assert_eq!(w.station(c).name, "display");
        assert!(w.rate_towards(b) > w.rate_towards(c));
        assert!(w.utilization_towards(b, DataRate::from_mbps(10)) > 0.0);
        assert_eq!(w.tightest_deadline(), Some(Duration::from_millis(10)));
        assert!(w.total_rate() >= w.rate_towards(b));
    }

    #[test]
    #[should_panic(expected = "unknown source station")]
    fn unknown_station_is_rejected() {
        let mut w = Workload::new();
        let b = w.add_station("only");
        w.add_message(
            "bad",
            StationId(7),
            b,
            DataSize::from_bytes(1),
            Arrival::Periodic {
                period: Duration::from_millis(20),
            },
            Duration::from_millis(20),
        );
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_is_rejected() {
        let (mut w, a, b) = two_station_workload();
        w.add_message(
            "bad",
            a,
            b,
            DataSize::from_bytes(1),
            Arrival::Periodic {
                period: Duration::ZERO,
            },
            Duration::from_millis(20),
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the Ethernet MTU")]
    fn oversized_payload_is_rejected() {
        let (mut w, a, b) = two_station_workload();
        w.add_message(
            "bad",
            a,
            b,
            DataSize::from_bytes(2000),
            Arrival::Periodic {
                period: Duration::from_millis(20),
            },
            Duration::from_millis(20),
        );
    }

    #[test]
    fn display_is_informative() {
        let (mut w, a, b) = two_station_workload();
        let id = w.add_message(
            "threat-warning",
            a,
            b,
            DataSize::from_bytes(32),
            Arrival::Sporadic {
                min_interarrival: Duration::from_millis(20),
            },
            Duration::from_millis(3),
        );
        let text = w.message(id).to_string();
        assert!(text.contains("threat-warning"));
        assert!(text.contains("P0/urgent"));
        assert!(text.contains("3ms"));
    }
}
