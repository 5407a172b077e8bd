//! The wire size of an 802.1Q-tagged Ethernet II frame.

use units::DataSize;

/// Maximum payload (MTU) of a frame, bytes.
pub const MAX_PAYLOAD: u64 = 1500;
/// Destination + source MAC + EtherType, bytes.
const HEADER_SIZE: u64 = 14;
/// Frame check sequence, bytes.
const FCS_SIZE: u64 = 4;
/// Minimum untagged frame size (header + payload + FCS), bytes.
const MIN_FRAME_SIZE: u64 = 64;
/// The 802.1Q tag that carries the 802.1p priority, bytes.
const VLAN_TAG_SIZE: u64 = 4;

/// The size on the wire of the 802.1Q-tagged frame carrying `payload`
/// (header, tag, payload, FCS; preamble and inter-frame gap excluded): the
/// `b_i` a message contributes to the Network-Calculus formulas.
///
/// The payload counts in whole bytes.  The MAC pads the *untagged* frame to
/// its 64-byte minimum, and the tag adds 4 bytes on top.
pub fn frame_size(payload: DataSize) -> DataSize {
    let untagged = (HEADER_SIZE + payload.bytes() + FCS_SIZE).max(MIN_FRAME_SIZE);
    DataSize::from_bytes(untagged + VLAN_TAG_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size_bytes(payload_bytes: u64) -> u64 {
        frame_size(DataSize::from_bytes(payload_bytes)).bytes()
    }

    #[test]
    fn small_payload_is_padded_to_minimum() {
        assert_eq!(size_bytes(10), 68);
        // An empty payload is also padded.
        assert_eq!(size_bytes(0), 68);
    }

    #[test]
    fn large_payload_is_not_padded() {
        assert_eq!(size_bytes(1000), 1022);
        assert_eq!(size_bytes(MAX_PAYLOAD), 1522);
    }

    #[test]
    fn tag_adds_four_bytes() {
        assert_eq!(size_bytes(100), 14 + 100 + 4 + 4);
    }

    #[test]
    fn wire_size_bytes_tagged_minimum() {
        // A tagged minimum frame is 68 bytes (64 + 4): the MAC pads the
        // untagged frame, so padding stops at a 46-byte payload.
        assert_eq!(size_bytes(0), 68);
        assert_eq!(size_bytes(46), 68);
        assert_eq!(size_bytes(47), 69);
    }
}
