//! Packets and flow identifiers.

use serde::{Deserialize, Serialize};

/// Identifies one TCP flow within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

/// A simulated data segment. Acknowledgements do not travel as packets:
/// the receiver's answer is scheduled as its own event.
///
/// `wire_bytes` is what occupies link capacity and queue space: payload
/// plus header overhead. With the paper's MTU-9000 jumbo frames the data
/// MSS is 8,948 B and headers add 52 B (Ethernet + IPv4 + TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Byte offset of the segment's first payload byte in the flow.
    pub seq: u64,
    /// Payload byte count.
    pub payload_bytes: u32,
    /// Bytes occupied on the wire (payload + headers).
    pub wire_bytes: u32,
}

impl Packet {
    /// Header overhead assumed per packet (Ethernet 14 + IPv4 20 + TCP 20,
    /// rounded with minimal framing): 52 bytes. Checksum/preamble effects
    /// are below the model's resolution.
    pub const HEADER_BYTES: u32 = 52;

    /// Build a data segment.
    pub fn data(flow: FlowId, seq: u64, payload: u32) -> Self {
        Packet {
            flow,
            seq,
            payload_bytes: payload,
            wire_bytes: payload + Self::HEADER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_wire_size() {
        let p = Packet::data(FlowId(1), 100, 8948);
        assert_eq!(p.wire_bytes, 9000);
        assert_eq!(p.seq, 100);
    }
}
