//! Remote-terminal addressing.

use core::fmt;
use serde::{Deserialize, Serialize};

/// A remote-terminal address (0–30; 31 is reserved for broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RtAddress(u8);

impl RtAddress {
    /// The broadcast address (31).
    pub const BROADCAST: RtAddress = RtAddress(31);

    /// Creates an RT address; returns `None` for values above 30 (31 is
    /// reserved and must be obtained via [`RtAddress::BROADCAST`]).
    pub fn new(value: u8) -> Option<Self> {
        if value < 31 {
            Some(RtAddress(value))
        } else {
            None
        }
    }

    /// The raw address value.
    pub fn value(&self) -> u8 {
        self.0
    }

    /// `true` for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        self.0 == 31
    }
}

impl fmt::Display for RtAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "RT*")
        } else {
            write!(f, "RT{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_addresses() {
        assert_eq!(RtAddress::new(0).unwrap().value(), 0);
        assert_eq!(RtAddress::new(30).unwrap().value(), 30);
        assert!(RtAddress::new(31).is_none());
        assert!(RtAddress::new(200).is_none());
    }

    #[test]
    fn broadcast() {
        assert!(RtAddress::BROADCAST.is_broadcast());
        assert_eq!(RtAddress::BROADCAST.value(), 31);
        assert!(!RtAddress::new(5).unwrap().is_broadcast());
    }

    #[test]
    fn display() {
        assert_eq!(RtAddress::new(7).unwrap().to_string(), "RT7");
        assert_eq!(RtAddress::BROADCAST.to_string(), "RT*");
    }
}
