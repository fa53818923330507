//! The replicated read-only root under host crashes.
//!
//! These tests pin the fault-model contract at the file-service layer:
//! a client of a replica group never hangs when a replica's host
//! crashes — the kernel's retransmission budget surfaces `HostDown`,
//! the client fails over to the next replica, and the *same* file ids
//! keep working because every replica serves a clone of one store.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport, StepTimer, StepTimes};
use v_fs::replica::{spawn_replica, spawn_replica_group};
use v_fs::{BlockStore, DiskModel, FileServerConfig, BLOCK_SIZE};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId, Pid};
use v_sim::{SimDuration, SimTime};

const FILL: u8 = 0x5A;

fn root_store() -> BlockStore {
    let mut store = BlockStore::new();
    store
        .create_with("vmunix", &vec![FILL; 8 * BLOCK_SIZE])
        .unwrap();
    store
}

fn replica_cfg() -> FileServerConfig {
    FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(1)),
        ..FileServerConfig::default()
    }
}

/// A cluster of `replicas` server hosts plus `clients` client hosts,
/// with the replica group already spawned and quiescent.
fn replicated_cluster(replicas: usize, clients: usize) -> (Cluster, Vec<Pid>) {
    let cfg = ClusterConfig::three_mb().with_hosts(replicas + clients, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let hosts: Vec<HostId> = (0..replicas).map(HostId).collect();
    let pids = spawn_replica_group(&mut cl, &hosts, &replica_cfg(), &root_store());
    cl.run(); // every replica reaches its Receive
    (cl, pids)
}

fn read_script(blocks: u32) -> Vec<FsCall> {
    let mut script = vec![FsCall::Open("vmunix".into())];
    for i in 0..blocks {
        script.push(FsCall::ReadExpect {
            block: i % 8,
            count: BLOCK_SIZE as u32,
            expect: FILL,
        });
    }
    script
}

fn spawn_client(
    cl: &mut Cluster,
    host: HostId,
    pids: &[Pid],
    script: Vec<FsCall>,
) -> Rc<RefCell<FsClientReport>> {
    let rep = Rc::new(RefCell::new(FsClientReport::default()));
    cl.spawn(
        host,
        "replclient",
        Box::new(FsClient::replicas(pids.to_vec(), script, rep.clone())),
    );
    rep
}

/// Replicas are read-only: a write is refused with `ReadOnly` before
/// any side effect, and the data stays intact.
#[test]
fn replica_refuses_writes_and_keeps_data_intact() {
    let (mut cl, pids) = replicated_cluster(1, 1);
    let script = vec![
        FsCall::Open("vmunix".into()),
        FsCall::WriteFill {
            block: 0,
            count: BLOCK_SIZE as u32,
            fill: 0x00,
        },
        // The refused write must not have scribbled on the store.
        FsCall::ReadExpect {
            block: 0,
            count: BLOCK_SIZE as u32,
            expect: FILL,
        },
    ];
    let rep = spawn_client(&mut cl, HostId(1), &pids, script);
    cl.run();
    let r = rep.borrow().clone();
    assert!(r.done, "{r:?}");
    assert_eq!(r.errors, 1, "exactly the write is refused: {r:?}");
    assert_eq!(r.integrity_errors, 0, "{r:?}");
    assert_eq!(r.completed, 2, "open + read succeed: {r:?}");
    assert_eq!(r.failovers, 0);
}

/// Crash the current replica mid-script: the client must not hang — it
/// absorbs one `HostDown`, fails over, and finishes the script against
/// the next replica **with the file id it opened on the dead one**
/// (replica stores are clones, so ids agree).
#[test]
fn client_fails_over_across_a_replica_crash() {
    let (mut cl, pids) = replicated_cluster(3, 1);
    let rep = spawn_client(&mut cl, HostId(3), &pids, read_script(40));
    // Let the open and a few reads complete against replica 0, then
    // kill its host under the client.
    cl.run_until(SimTime::from_millis(60));
    cl.crash_host(HostId(0));
    cl.run();
    let r = rep.borrow().clone();
    assert!(r.done, "script must finish despite the crash: {r:?}");
    assert!(!r.gave_up, "{r:?}");
    assert!(r.failovers >= 1, "the crash must be noticed: {r:?}");
    assert_eq!(
        r.integrity_errors, 0,
        "clone stores serve identical data: {r:?}"
    );
    assert_eq!(r.completed, 41, "open + 40 reads: {r:?}");
    assert!(
        cl.kernel_stats(HostId(3)).host_down_failures >= 1,
        "failover must ride on the kernel's HostDown detection"
    );
}

/// The failover spike is bounded: exactly one read absorbs the
/// retransmission-budget wait; reads after the switch return to normal
/// latency against the surviving replica.
#[test]
fn failover_latency_spike_is_confined_to_one_operation() {
    let (mut cl, pids) = replicated_cluster(2, 1);
    let rep = Rc::new(RefCell::new(FsClientReport::default()));
    let times = Rc::new(RefCell::new(StepTimes::default()));
    let client = FsClient::replicas(pids, read_script(40), rep.clone());
    cl.spawn(
        HostId(2),
        "replclient",
        Box::new(StepTimer::new(client, times.clone())),
    );
    cl.run_until(SimTime::from_millis(60));
    cl.crash_host(HostId(0));
    cl.run();
    let r = rep.borrow().clone();
    assert!(r.done && !r.gave_up, "{r:?}");
    let op_ms = times.borrow().op_ms();
    let spikes: Vec<&(f64, f64)> = op_ms.iter().filter(|(_, lat)| *lat > 100.0).collect();
    assert_eq!(
        spikes.len(),
        1,
        "exactly one read absorbs the failure-detection wait: {op_ms:?}"
    );
    // After the spike, latency settles back to the no-fault regime.
    let after_spike = op_ms.iter().rev().take(5);
    for (_, lat) in after_spike {
        assert!(*lat < 100.0, "post-failover reads are normal: {op_ms:?}");
    }
}

/// When every replica is dead the client gives up with `gave_up` —
/// bounded retries, no infinite replica carousel, no hang. The same
/// bound holds for a sharded client whose shards are all dead; a
/// fixed-route client has nowhere to fail over, so its first `Send`
/// error is final.
#[test]
fn client_gives_up_when_all_replicas_are_down() {
    type Build = fn(&[Pid], Vec<FsCall>, Rc<RefCell<FsClientReport>>) -> FsClient;
    let routes: [(&str, usize, Build); 3] = [
        ("replicas", 2, |p, s, r| {
            FsClient::replicas(p.to_vec(), s, r)
        }),
        ("two shards", 2, |p, s, r| {
            FsClient::with_servers(p.to_vec(), s, r)
        }),
        ("fixed", 1, |p, s, r| FsClient::new(p[0], s, r)),
    ];
    for (route, servers, build) in routes {
        let (mut cl, pids) = replicated_cluster(servers, 1);
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(servers),
            "client",
            Box::new(build(&pids, read_script(40), rep.clone())),
        );
        cl.run_until(SimTime::from_millis(60));
        for host in 0..servers {
            cl.crash_host(HostId(host));
        }
        cl.run();
        let r = rep.borrow().clone();
        assert!(!r.done, "{route}: the script cannot have finished: {r:?}");
        if route == "fixed" {
            assert!(!r.gave_up, "{route}: {r:?}");
            assert_eq!(r.errors, 1, "{route}: one final error: {r:?}");
            assert_eq!(r.failovers, 0, "{route}: {r:?}");
            continue;
        }
        assert!(r.gave_up, "{route}: {r:?}");
        assert_eq!(
            r.failovers,
            2 * pids.len() as u64,
            "{route}: every server tried twice, a failover per attempt: {r:?}"
        );
    }
}

/// Failover under load: several clients hammer the group when the
/// primary dies. Every client finishes, every byte checks out, and the
/// surviving replicas pick up the whole working set.
#[test]
fn replica_group_survives_a_crash_under_concurrent_load() {
    const CLIENTS: usize = 4;
    let (mut cl, pids) = replicated_cluster(3, CLIENTS);
    let reps: Vec<_> = (0..CLIENTS)
        .map(|i| spawn_client(&mut cl, HostId(3 + i), &pids, read_script(30)))
        .collect();
    cl.run_until(SimTime::from_millis(80));
    cl.crash_host(HostId(0));
    cl.run();
    for (i, rep) in reps.iter().enumerate() {
        let r = rep.borrow().clone();
        assert!(r.done, "client {i} must finish: {r:?}");
        assert!(!r.gave_up, "client {i}: {r:?}");
        assert_eq!(r.integrity_errors, 0, "client {i}: {r:?}");
        assert_eq!(r.completed, 31, "client {i}: {r:?}");
        assert!(
            r.failovers >= 1,
            "client {i} was mid-script on the primary: {r:?}"
        );
    }
}

/// A restarted host can rejoin the group: after the crash the service
/// respawns a replica there ([`spawn_replica`]), and a fresh client
/// whose list starts at the reborn replica is served by it — the
/// kernel's suspect probe gets an answer and lifts the suspicion.
#[test]
fn restarted_host_serves_a_respawned_replica() {
    let (mut cl, pids) = replicated_cluster(2, 2);
    let rep = spawn_client(&mut cl, HostId(2), &pids, read_script(20));
    cl.run_until(SimTime::from_millis(60));
    cl.crash_host(HostId(0));
    cl.run();
    assert!(rep.borrow().done, "first client fails over and finishes");

    // Restart the dead host and respawn its replica — the kernel
    // remembers nothing, so registration happens afresh.
    cl.restart_host(HostId(0));
    let reborn = spawn_replica(&mut cl, HostId(0), &replica_cfg(), &root_store());
    cl.run();

    let mut order = vec![reborn];
    order.push(pids[1]);
    let rep2 = spawn_client(&mut cl, HostId(3), &order, read_script(10));
    cl.run();
    let r = rep2.borrow().clone();
    assert!(r.done, "{r:?}");
    assert_eq!(r.integrity_errors, 0, "{r:?}");
    assert_eq!(r.failovers, 0, "the reborn replica serves directly: {r:?}");
}
