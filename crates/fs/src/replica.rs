//! A replicated read-only root file service with client failover.
//!
//! The paper's diskless workstations hang off **one** file server; when
//! it dies, every workstation's root is gone. The deployments that
//! followed replicated the read-only portion of the root (boot images,
//! system binaries — the bulk of a diskless workstation's traffic, per
//! §6.3's program-loading analysis) across several machines, because
//! read-only state is trivially replicable: no coherence protocol, just
//! identical copies.
//!
//! This module provides that arrangement over the ordinary V IPC:
//!
//! * [`spawn_replica_group`] — `N` file servers on distinct hosts, each
//!   serving a *clone* of the same [`BlockStore`] with
//!   [`FileServerConfig::read_only`] set, all registered under one
//!   logical service id. Because the stores are clones, every replica
//!   allocates identical [`FileId`](crate::store::FileId)s — a file id obtained from one
//!   replica is valid at every other, so failover never invalidates an
//!   open file.
//! * [`spawn_replica`] — one such replica, also used to re-create a
//!   replica on a restarted host.
//!
//! Clients reach the group through the replica route of
//! [`FsClient`](crate::client::FsClient)
//! ([`FsClient::replicas`](crate::client::FsClient::replicas)): every
//! operation goes to the current replica, and when the kernel reports
//! its host down (`KernelError::HostDown`, surfaced as
//! `Outcome::Send(Err(_))`) the client **fails over** — it advances to
//! the next replica and re-issues the *same* script step. Read-only
//! semantics make the retry safe: a re-issued read is idempotent by
//! construction.
//!
//! The failover cost is one read that absorbs the kernel's
//! retransmission budget (the failure detector) before `HostDown`
//! arrives; every read after that is served at normal latency by the
//! next replica. The `v-bench failover` experiment measures exactly
//! that spike.

use v_kernel::{Cluster, HostId, Pid};

use crate::server::FileServerConfig;
use crate::store::BlockStore;

/// Spawns one read-only replica of `store` per host in `hosts`, each
/// registered under `cfg.register` (the same logical service id for the
/// whole group — resolve it with `GetPid` and any live replica may
/// answer). Returns the replicas' pids in `hosts` order.
///
/// Every replica serves `store.clone()`: identical directories,
/// identical file ids, identical data. `cfg.workers` picks each
/// replica's shape exactly as for a single server ([`crate::team`]).
/// [`FileServerConfig::read_only`] is forced on — a replica that
/// accepted writes would silently diverge from its peers.
pub fn spawn_replica_group(
    cl: &mut Cluster,
    hosts: &[HostId],
    cfg: &FileServerConfig,
    store: &BlockStore,
) -> Vec<Pid> {
    hosts
        .iter()
        .map(|&host| spawn_replica(cl, host, cfg, store))
        .collect()
}

/// Spawns a single read-only replica of `store` on `host` — the unit
/// [`spawn_replica_group`] is built from, also used to re-create a
/// replica on a restarted host (the kernel forgets everything on a
/// crash; re-registration is the service's job). Everything in `cfg`
/// except `read_only` passes through, so replicas can run worker teams
/// (`workers`) over striped disks (`disk_arms`) like any other server.
pub fn spawn_replica(
    cl: &mut Cluster,
    host: HostId,
    cfg: &FileServerConfig,
    store: &BlockStore,
) -> Pid {
    let cfg = FileServerConfig {
        read_only: true,
        ..cfg.clone()
    };
    crate::team::spawn_file_server(cl, host, cfg, store.clone()).server
}
