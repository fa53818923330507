//! Binary encoding of interkernel packets.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//!      0     1  kind
//!      1     1  flags        (bit 0: LAST chunk; bit 1: status bits ...)
//!      2     2  payload_len
//!      4     4  seq
//!      8     4  src_pid
//!     12     4  dst_pid
//!     16     4  word_a       kind-specific
//!     20     4  word_b       kind-specific
//!     24     4  word_c       kind-specific
//!     28     4  checksum     (FNV-1a over header-with-zeroed-checksum ++ payload)
//!     32     …  payload
//! ```
//!
//! The three kind-specific words carry addresses, offsets, totals, logical
//! ids and the like; see the `encode`/`decode` match arms for the exact
//! mapping per kind. Decoding is the single point where raw bytes become a
//! typed [`PacketBody`]: everything past this function works with body
//! structs, never with loose header words.

use crate::packet::{
    ForwardBody, GetPidReply, GetPidReq, MoveFromData, MoveFromReq, MoveToData, MsgBytes, Packet,
    PacketBody, PacketKind, ReplyBody, SendBody, TransferAck, TransferStatus, HEADER_LEN, MSG_LEN,
};

/// Flag bit: final chunk of a bulk transfer.
const FLAG_LAST: u8 = 0x01;

/// Errors produced when decoding a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a header.
    TooShort,
    /// Checksum mismatch — the frame was corrupted in flight.
    BadChecksum,
    /// Unknown kind discriminator.
    UnknownKind(u8),
    /// Header's payload length disagrees with the actual byte count.
    LengthMismatch {
        /// Length claimed in the header.
        claimed: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// Payload too small for the kind (e.g. a Send without a full message).
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooShort => write!(f, "packet shorter than header"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::UnknownKind(k) => write!(f, "unknown packet kind {k}"),
            WireError::LengthMismatch { claimed, actual } => {
                write!(
                    f,
                    "payload length mismatch: claimed {claimed}, got {actual}"
                )
            }
            WireError::Malformed => write!(f, "malformed packet body"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a, 32-bit.
fn fnv1a(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for part in parts {
        for &b in *part {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Encodes a packet to its on-wire byte representation: header and
/// payload written into one buffer of exactly the packet's length (one
/// allocation per packet).
pub fn encode(p: &Packet) -> Vec<u8> {
    let mut flags: u8 = 0;
    let (word_a, word_b, word_c): (u32, u32, u32);
    // The payload is at most two slices laid end to end (message, then
    // appended data); kinds with less leave the tail empty.
    let payload: [&[u8]; 2] = match &p.body {
        PacketBody::Send(b) => {
            word_a = b.appended_from;
            word_b = b.appended.len() as u32;
            word_c = 0;
            [&b.msg, &b.appended]
        }
        PacketBody::Reply(b) => {
            word_a = b.seg_dest;
            word_b = b.seg.len() as u32;
            word_c = 0;
            [&b.msg, &b.seg]
        }
        PacketBody::ReplyPending | PacketBody::Nack => {
            word_a = 0;
            word_b = 0;
            word_c = 0;
            [&[], &[]]
        }
        PacketBody::MoveToData(b) => {
            if b.last {
                flags |= FLAG_LAST;
            }
            word_a = b.dest;
            word_b = b.offset;
            word_c = b.total;
            [&b.data, &[]]
        }
        PacketBody::MoveFromReq(b) => {
            word_a = b.src;
            word_b = b.offset;
            word_c = b.total;
            [&[], &[]]
        }
        PacketBody::MoveFromData(b) => {
            if b.last {
                flags |= FLAG_LAST;
            }
            word_a = 0;
            word_b = b.offset;
            word_c = b.total;
            [&b.data, &[]]
        }
        PacketBody::TransferAck(b) => {
            word_a = b.received;
            word_b = b.status as u32;
            word_c = 0;
            [&[], &[]]
        }
        PacketBody::GetPidReq(b) => {
            word_a = b.logical_id;
            word_b = 0;
            word_c = 0;
            [&[], &[]]
        }
        PacketBody::GetPidReply(b) => {
            word_a = b.logical_id;
            word_b = b.pid;
            word_c = 0;
            [&[], &[]]
        }
        PacketBody::Forward(b) => {
            word_a = b.client;
            word_b = b.new_server;
            word_c = b.appended_from;
            [&b.msg, &b.appended]
        }
    };
    let payload_len = payload[0].len() + payload[1].len();

    let mut header = [0u8; HEADER_LEN];
    header[0] = p.kind() as u8;
    header[1] = flags;
    put_u16(&mut header, 2, payload_len as u16);
    put_u32(&mut header, 4, p.seq);
    put_u32(&mut header, 8, p.src_pid);
    put_u32(&mut header, 12, p.dst_pid);
    put_u32(&mut header, 16, word_a);
    put_u32(&mut header, 20, word_b);
    put_u32(&mut header, 24, word_c);
    // Checksum computed with the checksum field zeroed.
    let sum = fnv1a(&[&header, payload[0], payload[1]]);
    put_u32(&mut header, 28, sum);

    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&header);
    out.extend_from_slice(payload[0]);
    out.extend_from_slice(payload[1]);
    out
}

/// Decodes a packet from its on-wire byte representation, verifying the
/// checksum. This is the only place raw header words are interpreted;
/// the result carries fully typed bodies.
pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::TooShort);
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);

    let claimed = get_u16(header, 2) as usize;
    if claimed != payload.len() {
        return Err(WireError::LengthMismatch {
            claimed,
            actual: payload.len(),
        });
    }

    let stored_sum = get_u32(header, 28);
    let mut zeroed = [0u8; HEADER_LEN];
    zeroed.copy_from_slice(header);
    put_u32(&mut zeroed, 28, 0);
    if fnv1a(&[&zeroed, payload]) != stored_sum {
        return Err(WireError::BadChecksum);
    }

    let kind = PacketKind::from_u8(header[0]).ok_or(WireError::UnknownKind(header[0]))?;
    let flags = header[1];
    let seq = get_u32(header, 4);
    let src_pid = get_u32(header, 8);
    let dst_pid = get_u32(header, 12);
    let word_a = get_u32(header, 16);
    let word_b = get_u32(header, 20);
    let word_c = get_u32(header, 24);
    let last = flags & FLAG_LAST != 0;

    let take_msg = |payload: &[u8]| -> Result<(MsgBytes, Vec<u8>), WireError> {
        if payload.len() < MSG_LEN {
            return Err(WireError::Malformed);
        }
        let mut msg = [0u8; MSG_LEN];
        msg.copy_from_slice(&payload[..MSG_LEN]);
        Ok((msg, payload[MSG_LEN..].to_vec()))
    };

    // Kinds without a data payload must not smuggle one: a decoded packet
    // always re-encodes to the exact bytes it came from.
    let no_payload = || -> Result<(), WireError> {
        if payload.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed)
        }
    };

    let body = match kind {
        PacketKind::Send => {
            let (msg, appended) = take_msg(payload)?;
            if appended.len() != word_b as usize {
                return Err(WireError::Malformed);
            }
            PacketBody::Send(SendBody {
                msg,
                appended,
                appended_from: word_a,
            })
        }
        PacketKind::Reply => {
            let (msg, seg) = take_msg(payload)?;
            if seg.len() != word_b as usize {
                return Err(WireError::Malformed);
            }
            PacketBody::Reply(ReplyBody {
                msg,
                seg_dest: word_a,
                seg,
            })
        }
        PacketKind::ReplyPending => {
            no_payload()?;
            PacketBody::ReplyPending
        }
        PacketKind::Nack => {
            no_payload()?;
            PacketBody::Nack
        }
        PacketKind::MoveToData => PacketBody::MoveToData(MoveToData {
            dest: word_a,
            offset: word_b,
            total: word_c,
            last,
            data: payload.to_vec(),
        }),
        PacketKind::MoveFromReq => {
            no_payload()?;
            PacketBody::MoveFromReq(MoveFromReq {
                src: word_a,
                offset: word_b,
                total: word_c,
            })
        }
        PacketKind::MoveFromData => PacketBody::MoveFromData(MoveFromData {
            offset: word_b,
            total: word_c,
            last,
            data: payload.to_vec(),
        }),
        PacketKind::TransferAck => {
            no_payload()?;
            PacketBody::TransferAck(TransferAck {
                received: word_a,
                status: TransferStatus::from_u8(word_b as u8).ok_or(WireError::Malformed)?,
            })
        }
        PacketKind::GetPidReq => {
            no_payload()?;
            PacketBody::GetPidReq(GetPidReq { logical_id: word_a })
        }
        PacketKind::GetPidReply => {
            no_payload()?;
            PacketBody::GetPidReply(GetPidReply {
                logical_id: word_a,
                pid: word_b,
            })
        }
        PacketKind::Forward => {
            let (msg, appended) = take_msg(payload)?;
            PacketBody::Forward(ForwardBody {
                client: word_a,
                new_server: word_b,
                msg,
                appended,
                appended_from: word_c,
            })
        }
    };

    Ok(Packet {
        seq,
        src_pid,
        dst_pid,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        let msg: MsgBytes = core::array::from_fn(|i| i as u8);
        vec![
            Packet {
                seq: 7,
                src_pid: 0x0001_0002,
                dst_pid: 0x0003_0004,
                body: PacketBody::Send(SendBody {
                    msg,
                    appended: vec![9; 512],
                    appended_from: 0x1000,
                }),
            },
            Packet {
                seq: 7,
                src_pid: 0x0003_0004,
                dst_pid: 0x0001_0002,
                body: PacketBody::Reply(ReplyBody {
                    msg,
                    seg_dest: 0x2000,
                    seg: vec![1, 2, 3],
                }),
            },
            Packet {
                seq: 8,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::ReplyPending,
            },
            Packet {
                seq: 9,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::Nack,
            },
            Packet {
                seq: 10,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::MoveToData(MoveToData {
                    dest: 0x500,
                    offset: 1024,
                    total: 4096,
                    last: false,
                    data: vec![0xCC; 1024],
                }),
            },
            Packet {
                seq: 10,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::MoveToData(MoveToData {
                    dest: 0x500,
                    offset: 3072,
                    total: 4096,
                    last: true,
                    data: vec![0xDD; 1024],
                }),
            },
            Packet {
                seq: 11,
                src_pid: 1,
                dst_pid: 2,
                body: PacketBody::MoveFromReq(MoveFromReq {
                    src: 0x4000,
                    offset: 512,
                    total: 2048,
                }),
            },
            Packet {
                seq: 11,
                src_pid: 2,
                dst_pid: 1,
                body: PacketBody::MoveFromData(MoveFromData {
                    offset: 512,
                    total: 2048,
                    last: true,
                    data: vec![5; 100],
                }),
            },
            Packet {
                seq: 10,
                src_pid: 2,
                dst_pid: 1,
                body: PacketBody::TransferAck(TransferAck {
                    received: 4096,
                    status: TransferStatus::Complete,
                }),
            },
            Packet {
                seq: 0,
                src_pid: 1,
                dst_pid: 0,
                body: PacketBody::GetPidReq(GetPidReq { logical_id: 3 }),
            },
            Packet {
                seq: 0,
                src_pid: 5,
                dst_pid: 1,
                body: PacketBody::GetPidReply(GetPidReply {
                    logical_id: 3,
                    pid: 0x0002_0001,
                }),
            },
            Packet {
                seq: 12,
                src_pid: 0x0002_0001, // the forwarder
                dst_pid: 0x0001_0002, // the client being rebound
                body: PacketBody::Forward(ForwardBody {
                    client: 0x0001_0002,
                    new_server: 0x0002_0009,
                    msg,
                    appended: vec![3; 48],
                    appended_from: 0x3000,
                }),
            },
            Packet {
                seq: 12,
                src_pid: 0x0002_0001,
                dst_pid: 0x0003_0005, // hand-off to a third-host worker
                body: PacketBody::Forward(ForwardBody {
                    client: 0x0001_0002,
                    new_server: 0x0003_0005,
                    msg,
                    appended: vec![],
                    appended_from: 0,
                }),
            },
        ]
    }

    #[test]
    fn round_trip_all_kinds() {
        for p in sample_packets() {
            let bytes = encode(&p);
            assert_eq!(bytes.len(), p.wire_len());
            assert_eq!(bytes.capacity(), bytes.len(), "one exactly-sized buffer");
            let q = decode(&bytes).unwrap_or_else(|e| panic!("{e} for {p:?}"));
            assert_eq!(p, q);
        }
    }

    #[test]
    fn corruption_is_detected() {
        for p in sample_packets() {
            let bytes = encode(&p);
            for victim in [0usize, 5, bytes.len() - 1] {
                let mut bad = bytes.clone();
                bad[victim] ^= 0x40;
                match decode(&bad) {
                    // Flipping the kind byte may surface as UnknownKind or
                    // a checksum failure first; all are detections.
                    Err(_) => {}
                    Ok(q) => panic!("corruption not detected: {p:?} decoded as {q:?}"),
                }
            }
        }
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(decode(&[0u8; 10]), Err(WireError::TooShort));
    }

    #[test]
    fn truncated_payload_rejected() {
        let p = &sample_packets()[0];
        let bytes = encode(p);
        let cut = &bytes[..bytes.len() - 8];
        assert!(matches!(decode(cut), Err(WireError::LengthMismatch { .. })));
    }

    #[test]
    fn send_shorter_than_message_rejected() {
        // Hand-build a Send claiming a 4-byte payload: checksum valid but
        // body malformed.
        let mut header = [0u8; HEADER_LEN];
        header[0] = PacketKind::Send as u8;
        put_u16(&mut header, 2, 4);
        let payload = [1u8, 2, 3, 4];
        let sum = fnv1a(&[&header, &payload]);
        put_u32(&mut header, 28, sum);
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&payload);
        assert_eq!(decode(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn display_of_errors() {
        assert!(format!("{}", WireError::BadChecksum).contains("checksum"));
        assert!(format!("{}", WireError::UnknownKind(9)).contains('9'));
    }
}
