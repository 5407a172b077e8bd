//! MIL-STD-1553B data bus baseline.
//!
//! The incumbent interconnect the paper wants to replace is the
//! MIL-STD-1553B bus: a 1 Mbps serial command/response bus with a
//! centralized bus controller (BC) polling up to 31 remote terminals (RTs)
//! according to a transaction table.  Real-time behaviour comes from a
//! static cyclic schedule: a *major frame* no shorter than the largest
//! message period (160 ms in the paper's case study) divided into *minor
//! frames* matching the smallest period (20 ms); at each minor frame
//! boundary the BC issues the transactions assigned to that frame.
//!
//! This crate provides:
//!
//! * message-level timing of the protocol from its word timing constants
//!   ([`message`], [`word`]),
//! * remote-terminal addresses and the BC transaction table ([`terminal`],
//!   [`transaction`]),
//! * construction of major/minor frame schedules from a periodic message set
//!   and admission checks, including frame-structure *synthesis* for
//!   workloads not designed around the paper's 20 ms / 160 ms hierarchy
//!   ([`schedule`], [`Scheduler::fit`]),
//! * worst-case response-time analysis of the polled bus ([`analysis`]),
//! * a deterministic discrete-event simulation of the schedule used for the
//!   jitter comparison and the campaign's cross-technology validation
//!   ([`sim`], [`BusSimulation::over_horizon`]).
//!
//! # Quick start
//!
//! ```
//! use milstd1553::analysis::BusAnalysis;
//! use milstd1553::schedule::{PeriodicRequirement, Scheduler};
//! use milstd1553::terminal::RtAddress;
//! use milstd1553::transaction::Transaction;
//! use units::Duration;
//!
//! // Two periodic RT→BC transfers; frames synthesized from their periods.
//! let periods = [Duration::from_millis(20), Duration::from_millis(80)];
//! let scheduler = Scheduler::fit(periods);
//! let schedule = scheduler
//!     .schedule(vec![
//!         PeriodicRequirement::new(
//!             Transaction::rt_to_bc("nav", RtAddress::new(1).unwrap(), 1, 16),
//!             periods[0],
//!         ),
//!         PeriodicRequirement::new(
//!             Transaction::rt_to_bc("status", RtAddress::new(2).unwrap(), 1, 4),
//!             periods[1],
//!         ),
//!     ])
//!     .unwrap();
//! let analysis = BusAnalysis::analyze(&schedule);
//! // The polled bus can never respond faster than one issue period.
//! assert!(analysis.bound_for("nav").unwrap().worst_case > periods[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod message;
pub mod schedule;
pub mod sim;
pub mod terminal;
pub mod transaction;
pub mod word;

pub use analysis::{BusAnalysis, MessageResponseBound};
pub use message::{MessageTiming, TransferType};
pub use schedule::{MajorFrameSchedule, MinorFrame, ScheduleError, Scheduler};
pub use sim::{BusSimulation, ObservedMessageStats};
pub use terminal::RtAddress;
pub use transaction::Transaction;
pub use word::{BUS_RATE, WORD_BITS, WORD_TIME};
