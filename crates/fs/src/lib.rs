//! File access for diskless workstations.
//!
//! "Network interprocess communication is predominantly used for remote
//! file access since most SUN workstations at Stanford are configured
//! without a local disk." This crate provides the file-service side of
//! that arrangement, built — as the paper insists — *on top of* the
//! general-purpose V IPC rather than a specialized protocol:
//!
//! * [`disk`] — the disk model (per-request positioning latency +
//!   transfer time) standing in for the file server's spindles; a
//!   [`DiskParams`]-built unit stripes blocks over several independent
//!   arms ([`FileServerConfig::disk_arms`]) so concurrent requests
//!   overlap their seeks;
//! * [`store`] — an in-memory block store with a flat directory
//!   (create/lookup/read/write), the server's cache+filesystem state;
//! * [`proto`] — the Verex-style I/O protocol: file requests and replies
//!   packed into 32-byte V messages;
//! * [`server`] — the file-server process: page reads answered with
//!   `ReplyWithSegment`, page writes taken from the appended segment via
//!   `ReceiveWithSegment`, large reads broken into `MoveTo`s of at most
//!   one transfer unit (the paper's VAX server used 4 KB), sequential
//!   read-ahead against the disk model;
//! * [`team`] — server *teams*: a receptionist that `Forward`s each
//!   request to an idle worker, so disk waits on one request overlap
//!   receive and file-system processing on the next
//!   ([`FileServerConfig::workers`]; `1` = the paper's sequential
//!   server, bit-identical);
//! * [`client`] — the stub routines that format requests, and the one
//!   scripted [`FsClient`](client::FsClient) process with three routes: a fixed server,
//!   a name-sharded service (owners resolved and cached per file), or
//!   a read-only replica group (failover to the next replica);
//! * [`shard`] — sharded file-service placement: a name-hash
//!   [`ShardMap`] partitioning the directory over several servers (one
//!   per segment of a mesh, typically), each registered under a
//!   distinct logical id, plus the migration [`ShardOverlay`];
//! * [`loader`] — program loading exactly as §6.3 describes (one block
//!   read for the header, then one large read via `MoveTo` into the new
//!   program space) and the §7 exec server that runs programs *on* the
//!   file server;
//! * [`replica`] — a replicated *read-only* root: N identical replicas
//!   spawned from clones of one [`BlockStore`], so file ids agree
//!   everywhere and a client can fail over between them;
//! * [`cache`] — per-client block caching ([`BlockCache`] + the
//!   invalidation [`CacheAgent`](cache::CacheAgent)) with a
//!   write-invalidate or lease consistency protocol driven by the
//!   server ([`CacheMode`]); `Off` is bit-identical to the pre-cache
//!   client;
//! * [`migrate`] — live file migration between shards: a four-exchange
//!   drain → copy → commit protocol built from ordinary V exchanges,
//!   with a destination-side [`MigrationAgent`](migrate::MigrationAgent)
//!   pulling blocks as plain reads and the old owner `Forward`ing
//!   stale requests after the flip;
//! * [`rebalance`] — the policy half: a [`Rebalancer`] process samples
//!   each shard's decayed [`FileHeat`], and while the hottest shard
//!   sits outside a configurable band of the mean it issues move-plans
//!   for the hottest files until the shards converge.

pub mod cache;
pub mod client;
pub mod disk;
pub mod loader;
pub mod migrate;
pub mod proto;
pub mod rebalance;
pub mod replica;
pub mod server;
pub mod shard;
pub mod store;
pub mod team;

pub use cache::{spawn_caching_client, BlockCache, CacheConfig, CacheMode, CacheStats};
pub use client::ShardedFsClient;
pub use disk::{DiskModel, DiskParams, DiskStats};
pub use migrate::{spawn_shard_service, ShardService};
pub use proto::{IoReply, IoRequest, IoStatus};
pub use rebalance::{
    spawn_rebalancer, MigrationLedger, MoveRecord, Rebalancer, RebalancerConfig, ShardHandle,
};
pub use replica::{spawn_replica, spawn_replica_group};
pub use server::{FileHeat, FileServer, FileServerConfig, FileServerStats, HeatEntry};
pub use shard::{spawn_shard_server, ShardMap, ShardOverlay};
pub use store::BlockStore;
pub use team::{spawn_file_server, FileServerTeam};

/// The file system's block (page) size, matching the paper's 512-byte
/// pages.
pub const BLOCK_SIZE: usize = 512;
