//! Two runs with one seed must agree on every simulated metric and
//! per-layer count; a second seed must change the page workloads'
//! operation streams (and with them the simulated results).

use perfbench::pages::{self, PageConfig};
use perfbench::storm::{self, PowerOn};
use perfbench::trace::Tracer;
use perfbench::{layer, Workload};
use v_workloads::boot::BootStormConfig;

#[test]
fn page_workloads_repeat_exactly_and_follow_the_seed() {
    for w in [Workload::PageRw, Workload::CachedShare] {
        let a = w.run(11, &mut Tracer::new(false));
        let b = w.run(11, &mut Tracer::new(true));
        assert_eq!(
            a.sim.failures.total(),
            0,
            "{}: {:?}",
            w.name(),
            a.sim.failures
        );
        assert_eq!(a.sim, b.sim, "{}: same seed, same results", w.name());
        let c = w.run(12, &mut Tracer::new(false));
        assert_eq!(
            c.sim.failures.total(),
            0,
            "{}: {:?}",
            w.name(),
            c.sim.failures
        );
        assert_ne!(
            a.sim.read_ms,
            c.sim.read_ms,
            "{}: seed moves latencies",
            w.name()
        );
        assert_ne!(
            layer(&a.sim.layers, "sim.events_dispatched"),
            layer(&c.sim.layers, "sim.events_dispatched"),
            "{}: seed moves the engine's work",
            w.name()
        );
    }
}

#[test]
fn seed_picks_the_op_streams() {
    for cfg in [PageConfig::page_rw, PageConfig::cached_share] {
        let a = format!("{:?}", cfg(1).scripts());
        assert_eq!(a, format!("{:?}", cfg(1).scripts()));
        assert_ne!(a, format!("{:?}", cfg(2).scripts()));
    }
}

#[test]
fn cached_share_reads_hit_and_writes_call_back() {
    let rep = pages::run(&PageConfig::cached_share(3), &mut Tracer::new(false));
    let l = &rep.sim.layers;
    assert!(layer(l, "fs.cache_hits") > 0.0);
    assert!(layer(l, "fs.invalidations") > 0.0);
    assert_eq!(
        layer(l, "fs.cache_hits") + layer(l, "fs.cache_misses"),
        rep.sim.read_ms.len() as f64,
        "every read is a hit or a miss"
    );
}

#[test]
fn shuffled_storm_repeats_exactly() {
    let mut cfg = BootStormConfig::new(200);
    cfg.image_size = 2048;
    let run =
        |seed| storm::run_config(&cfg, PowerOn::Shuffled(seed), seed, &mut Tracer::new(false));
    let a = run(5);
    assert_eq!(a.sim.failures.total(), 0, "{:?}", a.sim.failures);
    assert_eq!(a.sim.boot_ms.len(), 200);
    assert_eq!(a.sim, run(5).sim);
    assert_ne!(
        a.sim.boot_ms,
        run(6).sim.boot_ms,
        "power-on order follows the seed"
    );
}
