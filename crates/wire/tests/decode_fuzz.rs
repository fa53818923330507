//! Decode fuzzing: no byte sequence — random soup, truncations, or
//! checksum-repaired structural corruption — may ever panic the decoder.
//! Malformed input must surface as `Err`, because the kernel feeds every
//! received frame straight into `decode` and counts failures instead of
//! crashing.

use proptest::prelude::*;
use v_wire::{
    checksum, decode, encode, ForwardBody, Packet, PacketBody, SendBody, WireError, HEADER_LEN,
    MSG_LEN,
};

/// Rewrites the checksum field so a hand-mutated packet passes the
/// integrity check and reaches the kind/body parsing stages.
fn fix_checksum(bytes: &mut [u8]) {
    let sum = checksum(bytes);
    bytes[28..32].copy_from_slice(&sum.to_le_bytes());
}

fn sample_send() -> Packet {
    Packet {
        seq: 3,
        src_pid: 0x0001_0002,
        dst_pid: 0x0002_0001,
        body: PacketBody::Send(SendBody {
            msg: [0xAB; MSG_LEN],
            appended: vec![7; 64],
            appended_from: 0x100,
        }),
    }
}

fn sample_forward() -> Packet {
    Packet {
        seq: 9,
        src_pid: 0x0002_0001,
        dst_pid: 0x0001_0002,
        body: PacketBody::Forward(ForwardBody {
            client: 0x0001_0002,
            new_server: 0x0002_0007,
            msg: [0xCD; MSG_LEN],
            appended: vec![0x11; 40],
            appended_from: 0x3000,
        }),
    }
}

#[test]
fn every_truncation_of_a_forward_packet_is_rejected() {
    let bytes = encode(&sample_forward());
    for cut in 0..bytes.len() {
        let err = decode(&bytes[..cut]).expect_err("truncation must not decode");
        match err {
            WireError::TooShort | WireError::LengthMismatch { .. } => {}
            other => panic!("unexpected error class for cut {cut}: {other:?}"),
        }
    }
}

#[test]
fn corrupted_forward_bytes_never_decode_as_valid() {
    let bytes = encode(&sample_forward());
    for victim in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[victim] ^= 0x5A;
        if let Ok(p) = decode(&bad) {
            panic!("corruption at byte {victim} not detected: {p:?}");
        }
    }
}

#[test]
fn unknown_kind_with_valid_checksum_is_err_not_panic() {
    for kind in [0u8, 12, 42, 0xFF] {
        let mut bytes = encode(&sample_send());
        bytes[0] = kind;
        fix_checksum(&mut bytes);
        assert_eq!(decode(&bytes), Err(WireError::UnknownKind(kind)));
    }
}

#[test]
fn bad_transfer_status_with_valid_checksum_is_malformed() {
    // TransferAck carries its status in word_b; any value above 3 is
    // undefined.
    let mut header = [0u8; HEADER_LEN];
    header[0] = 8; // TransferAck
    header[20] = 200; // word_b: invalid status
    let mut bytes = header.to_vec();
    fix_checksum(&mut bytes);
    assert_eq!(decode(&bytes), Err(WireError::Malformed));
}

#[test]
fn message_bodies_shorter_than_a_message_are_malformed() {
    // Send, Reply and Forward all require a full 32-byte message up front.
    for kind in [1u8, 2, 11] {
        for short_len in [0usize, 1, MSG_LEN - 1] {
            let mut header = [0u8; HEADER_LEN];
            header[0] = kind;
            header[2..4].copy_from_slice(&(short_len as u16).to_le_bytes());
            let mut bytes = header.to_vec();
            bytes.extend(std::iter::repeat(0x5A).take(short_len));
            fix_checksum(&mut bytes);
            assert_eq!(decode(&bytes), Err(WireError::Malformed));
        }
    }
}

#[test]
fn appended_length_word_disagreeing_with_payload_is_malformed() {
    let mut bytes = encode(&sample_send());
    // word_b claims a different appended-segment length than is present.
    bytes[20..24].copy_from_slice(&999u32.to_le_bytes());
    fix_checksum(&mut bytes);
    assert_eq!(decode(&bytes), Err(WireError::Malformed));
}

#[test]
fn every_truncation_of_a_valid_packet_is_rejected() {
    let bytes = encode(&sample_send());
    for cut in 0..bytes.len() {
        let err = decode(&bytes[..cut]).expect_err("truncation must not decode");
        match err {
            WireError::TooShort | WireError::LengthMismatch { .. } => {}
            other => panic!("unexpected error class for cut {cut}: {other:?}"),
        }
    }
}

proptest! {
    /// Arbitrary byte soup: decode returns, never panics.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..1600)) {
        let _ = decode(&bytes);
    }

    /// Byte soup with a plausible header shape (valid kind byte, claimed
    /// length matching) still may not panic even after the checksum is
    /// repaired — this drives the per-kind body parsers with garbage.
    #[test]
    fn checksum_repaired_garbage_never_panics(
        kind in 0u8..16,
        flags in any::<u8>(),
        words in (any::<u32>(), any::<u32>(), any::<u32>()),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
    ) {
        let mut bytes = vec![0u8; HEADER_LEN];
        bytes[0] = kind;
        bytes[1] = flags;
        bytes[2..4].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        bytes[16..20].copy_from_slice(&words.0.to_le_bytes());
        bytes[20..24].copy_from_slice(&words.1.to_le_bytes());
        bytes[24..28].copy_from_slice(&words.2.to_le_bytes());
        bytes.extend_from_slice(&payload);
        fix_checksum(&mut bytes);
        if let Ok(p) = decode(&bytes) {
            // Whatever decoded must re-encode consistently.
            prop_assert_eq!(p.wire_len(), bytes.len());
        }
    }
}
