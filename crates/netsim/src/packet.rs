//! Packets and flow identifiers.

use serde::{Deserialize, Serialize};

/// Identifies one TCP flow within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketKind {
    /// A data segment: `seq` is the byte offset of the first payload byte.
    Data {
        /// Byte offset of the segment's first byte in the flow.
        seq: u64,
        /// True when this is a retransmission (excluded from RTT samples,
        /// per Karn's algorithm).
        retransmit: bool,
    },
    /// A cumulative acknowledgement.
    Ack {
        /// All bytes below this offset have been received in order.
        cum_ack: u64,
    },
}

/// A simulated packet.
///
/// `wire_bytes` is what occupies link capacity and queue space: payload
/// plus header overhead. With the paper's MTU-9000 jumbo frames the data
/// MSS is 8,948 B and headers add 52 B (Ethernet + IPv4 + TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// Payload byte count (0 for pure ACKs).
    pub payload_bytes: u32,
    /// Bytes occupied on the wire (payload + headers).
    pub wire_bytes: u32,
    /// Segment or acknowledgement content.
    pub kind: PacketKind,
}

impl Packet {
    /// Header overhead assumed per packet (Ethernet 14 + IPv4 20 + TCP 20,
    /// rounded with minimal framing): 52 bytes. Checksum/preamble effects
    /// are below the model's resolution.
    pub const HEADER_BYTES: u32 = 52;

    /// Build a data segment.
    pub fn data(flow: FlowId, seq: u64, payload: u32, retransmit: bool) -> Self {
        Packet {
            flow,
            payload_bytes: payload,
            wire_bytes: payload + Self::HEADER_BYTES,
            kind: PacketKind::Data { seq, retransmit },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_wire_size() {
        let p = Packet::data(FlowId(1), 0, 8948, false);
        assert_eq!(p.wire_bytes, 9000);
        assert!(matches!(p.kind, PacketKind::Data { .. }));
    }

    #[test]
    fn retransmit_flag_preserved() {
        let p = Packet::data(FlowId(0), 100, 500, true);
        match p.kind {
            PacketKind::Data { seq, retransmit } => {
                assert_eq!(seq, 100);
                assert!(retransmit);
            }
            _ => panic!("expected data"),
        }
    }
}
