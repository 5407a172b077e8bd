//! MIL-STD-1553B word timing: the constants every transaction's bus
//! occupation is built from.

use units::{DataRate, Duration};

/// The bus bit rate: 1 Mbps Manchester-II encoded.
pub const BUS_RATE: DataRate = DataRate::from_mbps(1);

/// Bits per word on the wire: 3 sync bit-times + 16 data bits + 1 parity bit.
pub const WORD_BITS: u64 = 20;

/// The wire time of one word at 1 Mbps: 20 µs.
pub const WORD_TIME: Duration = Duration::from_micros(20);

/// Maximum number of data words in a single 1553B message (word count field
/// value 0 encodes 32).
pub const MAX_DATA_WORDS: u8 = 32;

/// Worst-case RT response time (command received → status transmitted),
/// from MIL-STD-1553B: the RT shall respond within 4–12 µs.
pub const MAX_RESPONSE_TIME: Duration = Duration::from_micros(12);

/// Minimum intermessage gap the BC must leave between transactions.
pub const INTERMESSAGE_GAP: Duration = Duration::from_micros(4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_time_is_twenty_micros() {
        assert_eq!(WORD_TIME, Duration::from_micros(20));
        assert_eq!(
            BUS_RATE.transmission_time(units::DataSize::from_bits(WORD_BITS)),
            WORD_TIME
        );
    }
}
