//! Host-time probes of single layers, each run at the shape a workload
//! used: the event queue at the workload's peak depth, the codec at its
//! mean frame size, one transmit on its topology with its station
//! count, and the block cache at the caching clients' capacity.
//!
//! Each probe times batches of calls to the layer's public functions
//! and reports the median batch's nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use v_fs::store::FileId;
use v_fs::{BlockCache, BLOCK_SIZE};
use v_kernel::HostId;
use v_net::{Delivery, EtherType, Frame, MacAddr, Topology};
use v_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use v_wire::{Packet, PacketBody, SendBody, HEADER_LEN, MSG_LEN};

use crate::median;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 9;

/// Times `BATCHES` batches of `per_batch` calls of `f` and returns the
/// median nanoseconds per call.
fn time_per_call(per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..per_batch {
            f(i);
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// An event the size of the kernel's, so heap moves cost what the
/// engine's do.
type ProbeEvent = [u8; EVENT_BYTES];
const EVENT_BYTES: usize = std::mem::size_of::<v_kernel::event::Event>();

/// `EventQueue::schedule` plus `pop` with `depth` events pending.
pub fn queue_op_ns(depth: usize) -> f64 {
    let mut rng = SplitMix64::new(1);
    let mut q: EventQueue<ProbeEvent> = EventQueue::new();
    let spread = 1_000_000u64;
    for _ in 0..depth.max(1) {
        q.schedule(SimTime::from_nanos(rng.below(spread)), [0; EVENT_BYTES]);
    }
    time_per_call(20_000, |_| {
        let (t, ev) = q.pop().expect("queue holds depth events");
        black_box(&ev);
        q.schedule(
            t + SimDuration::from_nanos(1 + rng.below(spread)),
            [0; EVENT_BYTES],
        );
    })
}

/// A `Send` packet whose encoding is `bytes` long (at least the bare
/// header plus message).
fn packet_of(bytes: usize) -> Packet {
    let appended = bytes.saturating_sub(HEADER_LEN + MSG_LEN);
    Packet {
        seq: 7,
        src_pid: 0x0101_0001,
        dst_pid: 0x0202_0001,
        body: PacketBody::Send(SendBody {
            msg: [0x11; MSG_LEN],
            appended: vec![0x5A; appended],
            appended_from: 0x2_0000,
        }),
    }
}

/// `codec::encode` and `codec::decode` of a packet of `bytes` bytes:
/// `(encode_ns, decode_ns)`.
pub fn codec_ns(bytes: usize) -> (f64, f64) {
    let p = packet_of(bytes);
    let wire = v_wire::encode(&p);
    let enc = time_per_call(20_000, |_| {
        black_box(v_wire::encode(black_box(&p)));
    });
    let dec = time_per_call(20_000, |_| {
        black_box(v_wire::decode(black_box(&wire)).expect("valid encoding"));
    });
    (enc, dec)
}

/// One `Transport::transmit` of a `bytes`-byte frame from station 0 on
/// `topology` with the given station placement, plus draining the
/// deliveries any gateway forwarded: `(broadcast_ns, unicast_ns)`. The
/// unicast goes to the last station, off the sender's segment when the
/// topology has more than one.
pub fn transmit_ns(topology: &Topology, station_segments: &[usize], bytes: usize) -> (f64, f64) {
    let probe = |dst: MacAddr| {
        let mut net = topology.build(1);
        for (i, &seg) in station_segments.iter().enumerate() {
            net.attach(HostId(i).station_mac(), seg);
        }
        let src = HostId(0).station_mac();
        let payload = vec![0u8; bytes];
        let mut out: Vec<Delivery> = Vec::new();
        let mut ready = SimTime::ZERO;
        let per_batch = if dst.is_broadcast() { 20 } else { 2_000 };
        time_per_call(per_batch, |_| {
            let frame = Frame::new(dst, src, EtherType::INTERKERNEL, payload.clone());
            let w = net.transmit(ready, frame, &mut out);
            net.poll_deliveries(&mut out);
            // Let every queue drain before the next frame, so each call
            // sees an idle network.
            ready = w.tx_end + SimDuration::from_millis(50);
            black_box(out.len());
            out.clear();
        })
    };
    let last = HostId(station_segments.len() - 1).station_mac();
    (probe(MacAddr::BROADCAST), probe(last))
}

/// `BlockCache::lookup` plus `insert` with the cache at `capacity`:
/// the miss-and-evict path a caching client takes on every miss.
pub fn cache_lookup_ns(capacity: usize) -> f64 {
    let capacity = capacity.max(1);
    let mut cache = BlockCache::new(capacity);
    let file = FileId(1);
    for b in 0..capacity as u32 {
        cache.insert(file, b, vec![0x5A; BLOCK_SIZE], None);
    }
    let cycle = 2 * capacity as u64;
    time_per_call(20_000, |i| {
        let block = (capacity as u64 + i % cycle) as u32;
        let hit = cache.lookup(file, block, BLOCK_SIZE, SimTime::ZERO);
        if black_box(hit).is_none() {
            cache.insert(file, block, vec![0x5A; BLOCK_SIZE], None);
        }
    })
}
