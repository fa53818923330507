//! The benchmark's storm must be the shipped storm, not a copy
//! that has drifted from it: in the shipped power-on order it
//! reproduces `run_boot_storm(&BootStormConfig::new(2000))` exactly on
//! every engine count the shipped report carries.

use perfbench::storm::{self, PowerOn};
use perfbench::trace::Tracer;
use perfbench::{layer, SimOutcome};
use v_kernel::ClusterConfig;
use v_workloads::boot::{run_boot_storm, BootStormConfig, BootStormReport};

fn assert_same_storm(sim: &SimOutcome, shipped: &BootStormReport) {
    let l = &sim.layers;
    assert_eq!(sim.failures.total(), 0, "{:?}", sim.failures);
    assert_eq!(sim.boot_ms.len() as u64, shipped.loaded);
    assert_eq!(
        layer(l, "sim.events_dispatched") as u64,
        shipped.events_dispatched
    );
    assert_eq!(
        layer(l, "sim.events_scheduled") as u64,
        shipped.events_scheduled
    );
    assert_eq!(layer(l, "sim.events_popped") as u64, shipped.events_popped);
    assert_eq!(layer(l, "net.frames_sent") as u64, shipped.frames_sent);
    assert_eq!(layer(l, "net.deliveries") as u64, shipped.deliveries);
    assert_eq!(
        layer(l, "kernel.getpid_broadcasts") as u64,
        shipped.getpid_broadcasts
    );
    assert_eq!(
        layer(l, "kernel.retransmissions") as u64,
        shipped.retransmissions
    );
    assert_eq!(layer(l, "kernel.chunks_sent") as u64, shipped.chunks_sent);
}

#[test]
fn small_storm_matches_shipped_storm() {
    let mut cfg = BootStormConfig::new(300);
    cfg.image_size = 2048;
    let shipped = run_boot_storm(&cfg);
    let rep = storm::run_config(
        &cfg,
        PowerOn::Shipped,
        ClusterConfig::three_mb().seed,
        &mut Tracer::new(false),
    );
    assert_same_storm(&rep.sim, &shipped);
}

#[test]
fn full_storm_matches_shipped_counts() {
    let shipped = run_boot_storm(&BootStormConfig::new(storm::CLIENTS));
    let rep = storm::run(
        PowerOn::Shipped,
        ClusterConfig::three_mb().seed,
        &mut Tracer::new(false),
    );
    assert_same_storm(&rep.sim, &shipped);
    eprintln!("shipped storm: {}", shipped.to_json());
}
