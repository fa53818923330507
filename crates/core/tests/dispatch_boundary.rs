//! The receive/dispatch boundary under hostile input: frames that no
//! in-simulation kernel would send — unknown packet kinds, corrupted
//! checksums, truncated headers — must be counted in the kernel stats
//! and dropped without disturbing the protocol engine.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::{EtherType, Frame, MacAddr};

/// Hand-builds an interkernel packet with an arbitrary kind byte, zero
/// payload and a correct checksum.
fn forged_packet(kind: u8) -> Vec<u8> {
    let mut header = vec![0u8; 32];
    header[0] = kind;
    let sum = v_wire::checksum(&header);
    header[28..32].copy_from_slice(&sum.to_le_bytes());
    header
}

fn two_hosts() -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz))
}

#[test]
fn unknown_packet_kind_is_counted_and_dropped() {
    let mut cl = two_hosts();
    let target = HostId(0);
    for kind in [0u8, 42, 0xFF] {
        let frame = Frame::new(
            MacAddr(1),
            MacAddr(2),
            EtherType::INTERKERNEL,
            forged_packet(kind),
        );
        cl.inject_frame(target, frame);
    }
    cl.run();
    let stats = cl.kernel_stats(target);
    assert_eq!(stats.unknown_kind_drops, 3, "every forged kind counted");
    assert_eq!(stats.checksum_drops, 0, "intact frames are not miscounted");
    // Nothing was delivered, retried or nacked as a consequence.
    assert_eq!(stats.aliens_allocated, 0);
    assert_eq!(stats.nacks_sent, 0);
}

#[test]
fn corrupted_and_truncated_frames_count_as_checksum_drops() {
    let mut cl = two_hosts();
    let target = HostId(0);
    // Valid kind byte (Nack) but a ruined checksum.
    let mut bad_sum = forged_packet(4);
    bad_sum[28] ^= 0xA5;
    // Shorter than a header.
    let runt = vec![1u8, 2, 3];
    for payload in [bad_sum, runt] {
        let frame = Frame::new(MacAddr(1), MacAddr(2), EtherType::INTERKERNEL, payload);
        cl.inject_frame(target, frame);
    }
    cl.run();
    let stats = cl.kernel_stats(target);
    assert_eq!(stats.checksum_drops, 2);
    assert_eq!(stats.unknown_kind_drops, 0);
}

#[test]
fn foreign_ethertype_without_handler_is_ignored() {
    let mut cl = two_hosts();
    let target = HostId(0);
    let frame = Frame::new(MacAddr(1), MacAddr(2), EtherType(0x9999), vec![0u8; 40]);
    cl.inject_frame(target, frame);
    cl.run();
    let stats = cl.kernel_stats(target);
    assert_eq!(stats.checksum_drops, 0);
    assert_eq!(stats.unknown_kind_drops, 0);
}
