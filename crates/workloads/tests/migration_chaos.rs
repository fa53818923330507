//! Live migration under the chaos harness: crashes on either side of
//! the move must never lose a file or an operation, and a replayed
//! fault schedule must reproduce the run bit-for-bit.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::disk::DiskModel;
use v_fs::store::BlockStore;
use v_fs::{
    spawn_rebalancer, spawn_shard_service, FileServerConfig, RebalancerConfig, ShardHandle,
    ShardMap, ShardOverlay, ShardService, BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::{SimDuration, SimTime};
use v_workloads::chaos::{run_with_faults, FaultSchedule};

/// Everything a chaos scenario needs a handle on after setup.
struct HotShards {
    services: Vec<ShardService>,
    reports: Vec<Rc<RefCell<FsClientReport>>>,
    ledger: Rc<RefCell<v_fs::MigrationLedger>>,
    overlay: Rc<RefCell<ShardOverlay>>,
    script_len: u64,
    names: Vec<String>,
}

/// Shard 0 on host 0 holding two hot files, shard 1 (empty) on host 1,
/// one streaming client per file on hosts 2–3, a rebalancer on host 2
/// sampling at 30 ms.
fn hot_shard_setup(cl: &mut Cluster) -> HotShards {
    let map = ShardMap::new(2);
    let hot_a = map.name_for_shard(0, "hotA");
    let hot_b = map.name_for_shard(0, "hotB");
    let mut services = Vec::new();
    for shard in 0..2 {
        let mut store = BlockStore::with_id_base(map.id_base(shard));
        if shard == 0 {
            store
                .create_with(&hot_a, &vec![0xA1; 4 * BLOCK_SIZE])
                .unwrap();
            store
                .create_with(&hot_b, &vec![0xB2; 4 * BLOCK_SIZE])
                .unwrap();
        }
        let fs_cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(1)),
            register: None,
            ..FileServerConfig::default()
        };
        services.push(spawn_shard_service(
            cl,
            HostId(shard),
            &map,
            shard,
            fs_cfg,
            store,
        ));
    }
    cl.run(); // services reach their Receive

    // Open once, stream reads past the sampling interval, close with a
    // write+read pair that proves the file still takes writes wherever
    // (and in whatever state) the chaos left it.
    let script_for = |expect: u8, fill: u8, name: &str| {
        let mut script = vec![FsCall::Open(name.to_string())];
        for _ in 0..60 {
            script.push(FsCall::ReadExpect {
                block: 1,
                count: BLOCK_SIZE as u32,
                expect,
            });
        }
        script.push(FsCall::WriteFill {
            block: 2,
            count: BLOCK_SIZE as u32,
            fill,
        });
        script.push(FsCall::ReadExpect {
            block: 2,
            count: BLOCK_SIZE as u32,
            expect: fill,
        });
        script
    };
    let overlay: Rc<RefCell<ShardOverlay>> = Default::default();
    let servers: Vec<_> = services.iter().map(|s| s.server).collect();
    let mut reports = Vec::new();
    let mut script_len = 0;
    for (i, (expect, fill, name)) in [(0xA1, 0x55, &hot_a), (0xB2, 0x66, &hot_b)]
        .into_iter()
        .enumerate()
    {
        let script = script_for(expect, fill, name);
        script_len = script.len() as u64;
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(2 + i),
            "client",
            Box::new(
                FsClient::with_servers(servers.clone(), script, rep.clone())
                    .with_overlay(overlay.clone()),
            ),
        );
        reports.push(rep);
    }
    let ledger = spawn_rebalancer(
        cl,
        HostId(2),
        RebalancerConfig {
            interval: SimDuration::from_millis(30),
            rounds: 1,
            min_score: 1.0,
            ..RebalancerConfig::default()
        },
        services.iter().map(ShardHandle::from).collect(),
        overlay.clone(),
    );
    HotShards {
        services,
        reports,
        ledger,
        overlay,
        script_len,
        names: vec![hot_a, hot_b],
    }
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(4, CpuSpeed::Mc68000At10MHz))
}

/// Crashing the *destination* mid-copy aborts the move cleanly: the
/// file stays at the old owner, the write drain is lifted (the closing
/// writes succeed there), and no client op fails or corrupts.
#[test]
fn destination_crash_mid_copy_aborts_and_file_stays_home() {
    let mut cl = cluster();
    let HotShards {
        services,
        reports,
        ledger,
        overlay,
        script_len,
        ..
    } = hot_shard_setup(&mut cl);
    // Sampling fires at 30 ms; the 4-block copy takes several more —
    // 33 ms lands inside it. (If the copy were somehow already done the
    // crash would instead exercise the post-flip path; the ledger
    // assertions below pin which one actually ran.)
    let sched = FaultSchedule::new().crash_at(SimTime::from_millis(33), HostId(1));
    run_with_faults(&mut cl, sched);

    let led = ledger.borrow();
    assert_eq!(led.completed, 0, "copy must not survive the crash: {led:?}");
    assert!(led.aborted >= 1, "the move must abort cleanly: {led:?}");
    assert_eq!(overlay.borrow().moves(), 0, "ownership never flipped");
    let s0 = services[0].stats.borrow();
    assert_eq!(s0.migrated_out, 0, "{s0:?}");
    for rep in &reports {
        let r = rep.borrow().clone();
        assert!(r.done, "{r:?}");
        assert_eq!(r.errors, 0, "no op may fail on an aborted move: {r:?}");
        assert_eq!(r.integrity_errors, 0, "{r:?}");
        assert_eq!(r.completed, script_len, "every op exactly once: {r:?}");
        assert_eq!(r.stale_owner_forwards, 0, "nothing moved: {r:?}");
    }
}

/// Crashing the *old owner* right after the ownership flip: the moved
/// file lives on at its new shard, and clients recover via the reply's
/// owner stamp or the overlay failover — zero failed ops either way.
#[test]
fn old_owner_crash_after_flip_fails_over_to_new_owner() {
    let mut cl = cluster();
    let HotShards {
        services,
        reports,
        ledger,
        script_len,
        names,
        ..
    } = hot_shard_setup(&mut cl);
    // Drive the sim in 1 ms steps until the commit lands, then kill the
    // old owner immediately — before most stale owner caches have had a
    // chance to self-correct.
    let mut t = SimTime::ZERO;
    while ledger.borrow().completed == 0 {
        t += SimDuration::from_millis(1);
        assert!(
            t <= SimTime::from_millis(300),
            "migration never committed: {:?}",
            ledger.borrow()
        );
        cl.run_until(t);
    }
    cl.crash_host(HostId(0));
    cl.run();

    let led = ledger.borrow();
    assert_eq!(led.completed, 1, "{led:?}");
    let moved = led.moves[0].file;
    let s1 = services[1].stats.borrow();
    assert_eq!(s1.migrated_in, 1, "{s1:?}");
    assert!(
        s1.heat.of(moved).0 > 0,
        "the new owner served the moved file: {s1:?}"
    );
    // Only the *migrated* file outlives its old owner; the one still
    // home on host 0 died with it, like any file on a crashed server.
    let moved_idx = names.iter().position(|n| *n == led.moves[0].name).unwrap();
    let r = reports[moved_idx].borrow().clone();
    assert!(r.done, "{r:?}");
    assert_eq!(r.errors, 0, "no op may fail across the failover: {r:?}");
    assert_eq!(r.integrity_errors, 0, "{r:?}");
    assert_eq!(r.completed, script_len, "every op exactly once: {r:?}");
    // Its client held a stale owner when host 0 died: it recovered
    // through a forward (pre-crash) or a Send-error failover (post).
    assert!(
        r.stale_owner_forwards + r.failovers >= 1,
        "a client recovery path must have fired: {r:?}"
    );
    // The stranded client may fail its remaining ops (its server is
    // gone) but must never corrupt or duplicate anything.
    let stranded = reports[1 - moved_idx].borrow().clone();
    assert_eq!(stranded.integrity_errors, 0, "{stranded:?}");
    assert!(stranded.completed < script_len, "{stranded:?}");
}

/// The same seed and fault schedule replay bit-for-bit: every ledger
/// counter, client report, and the final clock match across two runs.
#[test]
fn migration_chaos_replays_deterministically() {
    let run = || {
        let mut cl = cluster();
        let HotShards {
            services,
            reports,
            ledger,
            overlay,
            ..
        } = hot_shard_setup(&mut cl);
        let sched = FaultSchedule::new()
            .crash_at(SimTime::from_millis(33), HostId(1))
            .restart_at(SimTime::from_millis(120), HostId(1));
        run_with_faults(&mut cl, sched);
        let led = ledger.borrow().clone();
        let forwards = services[0].stats.borrow().moved_forwards;
        let overlay_moves = overlay.borrow().moves();
        let reps: Vec<_> = reports
            .iter()
            .map(|r| {
                let r = r.borrow();
                (
                    r.completed,
                    r.errors,
                    r.stale_owner_forwards,
                    r.write_retries,
                    r.failovers,
                )
            })
            .collect();
        (
            cl.now(),
            led.planned,
            led.completed,
            led.aborted,
            led.rounds,
            overlay_moves,
            forwards,
            reps,
            cl.medium_stats().frames_sent,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos replay must be deterministic");
}
