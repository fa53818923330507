//! Per-layer bench: broadcast fan-out through the transport.
//!
//! One 32-byte broadcast through [`Transport::transmit`] (plus draining
//! what the gateways forward), on a 125-station 3 Mb segment and on the
//! boot storm's 16-segment star with 2016 stations. This is the layer
//! a `GetPid` storm spends its deliveries in; every clean copy shares
//! the sender's payload buffer, so the cost per receiver is one
//! `Delivery` record.

use std::rc::Rc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use v_kernel::HostId;
use v_net::{EtherType, Frame, MacAddr, MeshConfig, NetworkKind, Topology, Transport};
use v_sim::{SimDuration, SimTime};

/// Broadcasts per timed sample.
const PER_SAMPLE: usize = 20;

/// A transport for `topology` with `stations` hosts, host `i` on
/// segment `i % segments`.
fn build(topology: &Topology, stations: usize) -> Box<dyn Transport> {
    let segments = topology.num_segments();
    let mut net = topology.build(1);
    for i in 0..stations {
        net.attach(HostId(i).station_mac(), i % segments);
    }
    net
}

fn bench_broadcast(c: &mut Criterion, id: &str, topology: Topology, stations: usize) {
    let mut net = build(&topology, stations);
    let src = HostId(0).station_mac();
    let payload: Rc<[u8]> = Rc::from([0x5A; 32]);
    let mut out = Vec::new();
    let mut ready = SimTime::ZERO;
    let mut g = c.benchmark_group("net_fanout");
    g.sample_size(20);
    g.bench_function(id, |b| {
        b.iter(|| {
            for _ in 0..PER_SAMPLE {
                let frame = Frame::new(
                    MacAddr::BROADCAST,
                    src,
                    EtherType::INTERKERNEL,
                    payload.clone(),
                );
                let win = net.transmit(ready, frame, &mut out);
                net.poll_deliveries(&mut out);
                black_box(out.len());
                out.clear();
                // Every queue drains before the next broadcast.
                ready = win.tx_end + SimDuration::from_millis(50);
            }
        })
    });
    g.finish();
}

fn bench_net_fanout(c: &mut Criterion) {
    bench_broadcast(
        c,
        "broadcast_32B_3mb_125_stations_x20",
        Topology::SingleSegment(NetworkKind::Experimental3Mb),
        125,
    );
    bench_broadcast(
        c,
        "broadcast_32B_storm_star16_2016_stations_x20",
        Topology::Mesh(MeshConfig::star(16)),
        2016,
    );
}

criterion_group!(benches, bench_net_fanout);
criterion_main!(benches);
