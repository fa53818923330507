//! Broadcast fan-out at the kernel boundary: one frame heard by many
//! hosts is scheduled as one batch and decoded once, yet every receiver
//! must still be accounted, charged and answered as if it had its own
//! copy — and a copy corrupted in flight must be rejected by exactly the
//! host that heard it.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::raw::{RawCtx, RawHandler};
use v_kernel::{Api, Cluster, ClusterConfig, CpuSpeed, HostId, Outcome, Pid, Program, Scope};
use v_net::{EtherType, FaultPlan, Frame, MacAddr};
use v_sim::SimDuration;

const HOSTS: usize = 9;
const NAME: u32 = 77;

/// Registers [`NAME`] for remote lookup, then blocks forever.
struct Registrar;
impl Program for Registrar {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.set_pid(NAME, api.self_pid(), Scope::Both);
                api.receive();
            }
            _ => api.exit(),
        }
    }
}

/// Resolves [`NAME`] by broadcast and records the answer.
struct Querier {
    found: Rc<RefCell<Option<Option<Pid>>>>,
}
impl Program for Querier {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.get_pid(NAME, Scope::Remote),
            Outcome::GetPid(r) => {
                *self.found.borrow_mut() = Some(r);
                api.exit();
            }
            _ => api.exit(),
        }
    }
}

#[test]
fn corrupted_broadcast_copies_are_rejected_only_where_they_landed() {
    let mut cfg = ClusterConfig::three_mb().with_hosts(HOSTS, CpuSpeed::Mc68000At10MHz);
    cfg.faults = FaultPlan {
        corrupt: 0.4,
        ..FaultPlan::NONE
    };
    let mut cl = Cluster::new(cfg);
    for h in 1..HOSTS {
        cl.spawn(HostId(h), "registrar", Box::new(Registrar));
    }
    cl.run();
    // Every registrar is parked in `Receive`: one Started resume each,
    // and nothing on the wire yet.
    let setup_events = cl.events_dispatched();
    assert_eq!(setup_events, (HOSTS - 1) as u64);
    assert_eq!(cl.medium_stats().deliveries, 0);

    let found = Rc::new(RefCell::new(None));
    cl.spawn(
        HostId(0),
        "querier",
        Box::new(Querier {
            found: found.clone(),
        }),
    );
    cl.run();

    let resolved = found.borrow().expect("querier finished");
    assert!(resolved.is_some(), "some clean copy must be answered");
    let net = cl.medium_stats();
    let stats: Vec<_> = (0..HOSTS).map(|h| cl.kernel_stats(HostId(h))).collect();
    let broadcasts = stats[0].getpid_broadcasts;
    assert!(broadcasts >= 1);
    assert!(
        net.corrupted > 0 && net.corrupted < net.deliveries,
        "the plan must corrupt some deliveries, not all: {net:?}"
    );

    // Every corrupted copy, request or reply, fails exactly one host's
    // checksum.
    let drops: u64 = stats.iter().map(|s| s.checksum_drops).sum();
    assert_eq!(drops, net.corrupted, "per-host drops sum to the medium's");
    assert!(stats.iter().all(|s| s.unknown_kind_drops == 0));

    // Each registrar heard every broadcast once: it either answered the
    // request or rejected its corrupted copy.
    for (h, s) in stats.iter().enumerate().skip(1) {
        assert_eq!(
            s.getpid_answers + s.checksum_drops,
            broadcasts,
            "host{h}: every clean GetPidReq is processed"
        );
    }
    let answers: u64 = stats.iter().map(|s| s.getpid_answers).sum();
    assert!(answers > 0);

    // Every delivery was dispatched exactly once. Besides frames, the
    // querier's run dispatched its Started resume, its GetPid resume and
    // one GetPid timer per broadcast (each fires, stale or not).
    let querier_events = 2 + broadcasts;
    assert_eq!(
        cl.events_dispatched() - setup_events - querier_events,
        net.deliveries,
        "frame events dispatched equal net deliveries"
    );
}

/// Logs `(own station, frame.dst)` for every raw frame it hears.
struct DstLog {
    log: Rc<RefCell<Vec<(MacAddr, MacAddr)>>>,
}
impl RawHandler for DstLog {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        self.log.borrow_mut().push((ctx.mac(), frame.dst));
    }
    fn on_timer(&mut self, _ctx: &mut dyn RawCtx, _token: u64) {}
}

/// Broadcasts one raw frame when poked.
struct Broadcaster;
impl RawHandler for Broadcaster {
    fn on_frame(&mut self, _ctx: &mut dyn RawCtx, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut dyn RawCtx, _token: u64) {
        ctx.send_frame(MacAddr::BROADCAST, vec![0x42; 64].into());
    }
}

#[test]
fn raw_broadcast_shows_each_receiver_its_own_station() {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(HOSTS, CpuSpeed::Mc68000At8MHz));
    let log = Rc::new(RefCell::new(Vec::new()));
    cl.register_raw_handler(HostId(0), EtherType::RAW_BENCH, Box::new(Broadcaster));
    for h in 1..HOSTS {
        cl.register_raw_handler(
            HostId(h),
            EtherType::RAW_BENCH,
            Box::new(DstLog { log: log.clone() }),
        );
    }
    cl.poke_raw_handler(HostId(0), EtherType::RAW_BENCH, 0, SimDuration::ZERO);
    cl.run();

    let want: Vec<(MacAddr, MacAddr)> = (1..HOSTS)
        .map(|h| (cl.mac(HostId(h)), cl.mac(HostId(h))))
        .collect();
    assert_eq!(
        *log.borrow(),
        want,
        "each handler sees its own station as dst, in station order"
    );
    // One timer, then the whole fan-out as one scheduled event.
    assert_eq!(cl.events_dispatched(), HOSTS as u64);
    assert_eq!(cl.sim_stats().scheduled, 2);
}
