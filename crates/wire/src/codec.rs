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
//!     28     4  checksum     ([`checksum`] over header ++ payload, this field as zero)
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

/// Byte offset of the checksum field in the header.
const CHECKSUM_AT: usize = 28;

/// Multipliers of the two checksum lanes (odd, so each multiply is a
/// bijection of the 32-bit lane state).
const K_A: u32 = 0x9E37_79B1;
const K_B: u32 = 0x85EB_CA77;

/// One checksum step: mixes `word` into `lane`. For a fixed `word` the
/// step is a bijection of the lane state, and for a fixed state it is a
/// bijection of the word.
fn step(lane: u32, word: u32, k: u32) -> u32 {
    (lane ^ word).wrapping_mul(k).rotate_left(15)
}

/// The packet checksum of an encoded frame, reading its checksum field
/// (bytes 28..32 of a frame at least [`HEADER_LEN`] long) as zero, so it
/// gives the same value before and after [`encode`] patches the field in.
///
/// Two independent 32-bit lanes take the frame's aligned 4-byte words
/// in turn (even words to lane A, odd words to lane B), each step being
/// `(lane ^ word) * K` rotated. A final partial word is zero-padded and
/// carries the tail length in its top byte. The lanes combine as
/// `a ^ b.rotate_left(16)`.
///
/// Every step is a bijection of its lane's state and the combine is a
/// bijection in each lane, so any change confined to one aligned 4-byte
/// word — every single-byte corruption among them — always changes the
/// checksum. A scramble spanning several words slips through only on a
/// 32-bit collision.
pub fn checksum(frame: &[u8]) -> u32 {
    // The checksum field is the odd (lane B) word of this 8-byte pair.
    const SUM_PAIR: usize = CHECKSUM_AT / 8;
    let (mut a, mut b) = (0x2545_F491u32, 0x6C07_8965u32);
    let mut pairs = frame.chunks_exact(8);
    for (i, pair) in pairs.by_ref().enumerate() {
        a = step(a, get_u32(pair, 0), K_A);
        let odd = if i == SUM_PAIR { 0 } else { get_u32(pair, 4) };
        b = step(b, odd, K_B);
    }
    let mut rest = pairs.remainder();
    let mut lane_b = false;
    if rest.len() >= 4 {
        a = step(a, get_u32(rest, 0), K_A);
        rest = &rest[4..];
        lane_b = true;
    }
    if !rest.is_empty() {
        let mut tail = [0u8; 4];
        tail[..rest.len()].copy_from_slice(rest);
        tail[3] = rest.len() as u8;
        let tail = u32::from_le_bytes(tail);
        if lane_b {
            b = step(b, tail, K_B);
        } else {
            a = step(a, tail, K_A);
        }
    }
    a ^ b.rotate_left(16)
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

    // Header (checksum field still zero) and payload go into the one
    // buffer, which is then checksummed once and patched.
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&header);
    out.extend_from_slice(payload[0]);
    out.extend_from_slice(payload[1]);
    let sum = checksum(&out);
    put_u32(&mut out, CHECKSUM_AT, sum);
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

    if checksum(bytes) != get_u32(header, CHECKSUM_AT) {
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

    /// One packet of every kind, each encoded; the 512 B `Send` and the
    /// `Reply` with an odd 3-byte segment are among them.
    fn one_of_each_kind() -> Vec<Vec<u8>> {
        let mut seen = Vec::new();
        let mut frames = Vec::new();
        for p in sample_packets() {
            if !seen.contains(&p.kind()) {
                seen.push(p.kind());
                frames.push(encode(&p));
            }
        }
        assert_eq!(seen.len(), 11, "every packet kind is covered");
        frames
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        for bytes in one_of_each_kind() {
            let mut bad = bytes.clone();
            for victim in 0..bytes.len() {
                for flip in 1..=255u8 {
                    bad[victim] ^= flip;
                    assert!(
                        decode(&bad).is_err(),
                        "flip {flip:#04x} at byte {victim} of {} accepted",
                        bytes.len()
                    );
                    bad[victim] ^= flip;
                }
            }
        }
    }

    #[test]
    fn every_corruption_within_one_aligned_word_is_rejected() {
        // Fixed masks over two, three and four bytes of the word (single
        // bytes are the test above), plus pseudo-random ones; a mask with
        // no bit inside a short tail word is skipped.
        let mut masks = vec![0x8000_0001u32, 0x00FF_FF00, 0x0001_0101, 0xFFFF_FFFF];
        let mut x: u32 = 0x1234_5678;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            masks.push(x);
        }
        for bytes in one_of_each_kind() {
            let mut bad = bytes.clone();
            for start in (0..bytes.len()).step_by(4) {
                let end = (start + 4).min(bytes.len());
                for &mask in &masks {
                    let mask = mask.to_le_bytes();
                    if mask[..end - start].iter().all(|&m| m == 0) {
                        continue;
                    }
                    for (b, m) in bad[start..end].iter_mut().zip(mask) {
                        *b ^= m;
                    }
                    assert!(
                        decode(&bad).is_err(),
                        "mask {mask:02x?} on word at {start} of {} accepted",
                        bytes.len()
                    );
                    bad[start..end].copy_from_slice(&bytes[start..end]);
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
        let mut bytes = header.to_vec();
        bytes.extend_from_slice(&[1u8, 2, 3, 4]);
        let sum = checksum(&bytes);
        put_u32(&mut bytes, CHECKSUM_AT, sum);
        assert_eq!(decode(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn display_of_errors() {
        assert!(format!("{}", WireError::BadChecksum).contains("checksum"));
        assert!(format!("{}", WireError::UnknownKind(9)).contains('9'));
    }
}
