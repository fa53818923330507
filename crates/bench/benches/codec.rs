//! Per-layer bench: the interkernel codec.
//!
//! Encode plus decode of the packets that dominate the engine's
//! traffic: the `GetPidReq` a boot storm broadcasts, a `Send` carrying
//! 512 appended bytes (a page write riding the request), and a `Reply`
//! with a 512-byte segment (a page read's answer, the commonest large
//! frame of a page workload).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use v_wire::{decode, encode, GetPidReq, Packet, PacketBody, ReplyBody, SendBody, MSG_LEN};

/// Round trips per timed sample.
const PER_SAMPLE: usize = 1000;

fn round_trip(c: &mut Criterion, id: &str, p: Packet) {
    let mut g = c.benchmark_group("codec");
    g.sample_size(20);
    g.bench_function(id, |b| {
        b.iter(|| {
            for _ in 0..PER_SAMPLE {
                let bytes = encode(black_box(&p));
                black_box(decode(&bytes).expect("valid encoding"));
            }
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    round_trip(
        c,
        "getpid_req_encode_decode_x1000",
        Packet {
            seq: 0,
            src_pid: 0x0101_0001,
            dst_pid: 0,
            body: PacketBody::GetPidReq(GetPidReq { logical_id: 0x40 }),
        },
    );
    round_trip(
        c,
        "send_512B_appended_encode_decode_x1000",
        Packet {
            seq: 7,
            src_pid: 0x0101_0001,
            dst_pid: 0x0202_0001,
            body: PacketBody::Send(SendBody {
                msg: [0x11; MSG_LEN],
                appended: vec![0x5A; 512],
                appended_from: 0x2_0000,
            }),
        },
    );
    round_trip(
        c,
        "reply_512B_segment_encode_decode_x1000",
        Packet {
            seq: 7,
            src_pid: 0x0202_0001,
            dst_pid: 0x0101_0001,
            body: PacketBody::Reply(ReplyBody {
                msg: [0x22; MSG_LEN],
                seg_dest: 0x2_0000,
                seg: vec![0xA5; 512],
            }),
        },
    );
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
