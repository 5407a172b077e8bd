//! Full-duplex switched Ethernet, as far as the delay analysis and the
//! simulator read it.
//!
//! The paper replaces the MIL-STD-1553B bus with COTS Full-Duplex Switched
//! Ethernet: end systems connect to store-and-forward switches over
//! full-duplex links (no CSMA/CD, no collisions), and the urgent traffic is
//! tagged with 802.1p priorities.  The analysis needs three things from
//! Ethernet:
//!
//! * the size `b_i` of the 802.1Q-tagged frame a payload occupies on the
//!   wire ([`frame_size`]),
//! * the output-port scheduling policy ([`SchedulingPolicy`]),
//! * the switch cascade and its routes ([`Fabric`]) — the one network model
//!   the analysis, the simulator, the campaign and the admission service
//!   share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod frame;
pub mod switch;

pub use fabric::{Fabric, FabricError};
pub use frame::{frame_size, MAX_PAYLOAD};
pub use switch::{SchedulingPolicy, WrrUnit, WrrWeights, MAX_WRR_CLASSES};
