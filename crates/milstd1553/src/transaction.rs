//! Bus-controller transactions (entries of the transaction table).

use crate::message::{MessageTiming, TransferType};
use crate::terminal::RtAddress;
use core::fmt;
use serde::{Deserialize, Serialize};
use units::Duration;

/// One entry of the bus controller's transaction table: a transfer between
/// the BC and one or two RTs, carrying a fixed number of data words.
///
/// ```
/// use milstd1553::transaction::Transaction;
/// use milstd1553::terminal::RtAddress;
/// use units::Duration;
///
/// // A 4-word RT→BC transfer: command + status + 4 data words = 6 words
/// // of 20 µs, plus the 12 µs RT response and the 4 µs intermessage gap.
/// let t = Transaction::rt_to_bc("nav", RtAddress::new(1).unwrap(), 1, 4);
/// assert_eq!(t.duration(), Duration::from_micros(6 * 20 + 12 + 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// A label linking the transaction back to the avionics message that
    /// generated it (used by the analysis and the simulation reports).
    pub label: String,
    /// Transfer format.
    pub transfer: TransferType,
    /// Source RT for RT->BC and RT->RT transfers; `None` when the BC is the
    /// source.
    pub source: Option<RtAddress>,
    /// Destination RT for BC->RT and RT->RT transfers; `None` when the BC is
    /// the destination.
    pub destination: Option<RtAddress>,
    /// Subaddress used for the transfer.
    pub subaddress: u8,
    /// Number of data words (1–32).
    pub data_words: u8,
}

impl Transaction {
    /// A BC→RT transfer.
    pub fn bc_to_rt(
        label: impl Into<String>,
        destination: RtAddress,
        subaddress: u8,
        data_words: u8,
    ) -> Self {
        Transaction {
            label: label.into(),
            transfer: TransferType::BcToRt,
            source: None,
            destination: Some(destination),
            subaddress,
            data_words,
        }
    }

    /// An RT→BC transfer.
    pub fn rt_to_bc(
        label: impl Into<String>,
        source: RtAddress,
        subaddress: u8,
        data_words: u8,
    ) -> Self {
        Transaction {
            label: label.into(),
            transfer: TransferType::RtToBc,
            source: Some(source),
            destination: None,
            subaddress,
            data_words,
        }
    }

    /// An RT→RT transfer.
    pub fn rt_to_rt(
        label: impl Into<String>,
        source: RtAddress,
        destination: RtAddress,
        subaddress: u8,
        data_words: u8,
    ) -> Self {
        Transaction {
            label: label.into(),
            transfer: TransferType::RtToRt,
            source: Some(source),
            destination: Some(destination),
            subaddress,
            data_words,
        }
    }

    /// The timing descriptor of this transaction.
    pub fn timing(&self) -> MessageTiming {
        MessageTiming::new(self.transfer, self.data_words)
    }

    /// Worst-case bus occupation of the transaction (including the trailing
    /// intermessage gap).
    pub fn duration(&self) -> Duration {
        self.timing().duration()
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} words ({})",
            self.label,
            self.transfer,
            self.data_words,
            self.duration()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(n: u8) -> RtAddress {
        RtAddress::new(n).unwrap()
    }

    #[test]
    fn constructors_set_endpoints() {
        let t = Transaction::bc_to_rt("nav-cmd", rt(4), 1, 8);
        assert_eq!(t.source, None);
        assert_eq!(t.destination, Some(rt(4)));
        let t = Transaction::rt_to_bc("nav-status", rt(4), 2, 16);
        assert_eq!(t.source, Some(rt(4)));
        assert_eq!(t.destination, None);
        let t = Transaction::rt_to_rt("nav-to-display", rt(4), rt(9), 3, 4);
        assert_eq!(t.source, Some(rt(4)));
        assert_eq!(t.destination, Some(rt(9)));
    }

    #[test]
    fn duration_delegates_to_timing() {
        let t = Transaction::bc_to_rt("m", rt(1), 1, 4);
        assert_eq!(t.duration(), Duration::from_micros(136));
        assert_eq!(t.timing().payload_bytes(), 8);
    }

    #[test]
    fn command_words_match_transfer_type() {
        // One command word for BC->RT and RT->BC; RT->RT needs a receive
        // command to the destination and a transmit command to the source.
        let t = Transaction::bc_to_rt("m", rt(5), 3, 8);
        assert_eq!(t.timing().command_words(), 1);
        assert_eq!(t.timing().data_words, 8);

        let t = Transaction::rt_to_bc("m", rt(6), 3, 8);
        assert_eq!(t.timing().command_words(), 1);

        let t = Transaction::rt_to_rt("m", rt(7), rt(8), 3, 8);
        assert_eq!(t.timing().command_words(), 2);
        assert_eq!(t.timing().data_words, 8);
    }

    #[test]
    fn display_includes_label_and_duration() {
        let t = Transaction::bc_to_rt("fuel-qty", rt(2), 1, 2);
        let s = t.to_string();
        assert!(s.contains("fuel-qty"));
        assert!(s.contains("BC->RT"));
    }
}
