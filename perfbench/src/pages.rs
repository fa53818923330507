//! `page_rw` and `cached_share`: closed-loop page traffic from diskless
//! clients against two sharded file-server teams.
//!
//! Every client opens its shard's file and then runs a seeded stream of
//! 512-byte `ReadExpect` / `WriteFill` steps. Writes store the fill
//! byte the file was installed with, so every read stays byte-checked
//! while writers run at the same time.
//!
//! * `page_rw` runs the uncached `ShardedFsClient` with the servers'
//!   pids given (no broadcast), reads and writes 4:1 over the whole
//!   file.
//! * `cached_share` runs the caching client `spawn_caching_client`
//!   builds — an invalidation agent plus an `FsClient` carrying a
//!   32-block write-invalidate cache — re-reading a 16-block hot set
//!   with one write in 64 steps.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use v_fs::cache::{CacheAgent, CacheLayer};
use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::{
    spawn_file_server, BlockCache, BlockStore, CacheConfig, CacheMode, CacheStats, DiskModel,
    FileServerConfig, FileServerTeam, ShardMap, ShardedFsClient, BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId, Pid};
use v_net::MeshConfig;
use v_sim::{SimDuration, SimTime, SplitMix64};

use crate::trace::Tracer;
use crate::{collect_layers, drain, Failures, Hosts, OpLog, Rep, Shape, SimOutcome, Timed};

/// Byte every file is installed with and every write stores.
pub const FILL: u8 = 0x5A;

/// Positioning latency of every server disk (the file server's
/// default).
pub const DISK_ACCESS: SimDuration = SimDuration::from_millis(15);
/// Uniform extra latency per disk request, drawn from the seed. A real
/// arm's rotational position varies; without it, latencies sit on a
/// lattice of fixed service times and percentiles jump between lattice
/// points instead of moving with the load.
pub const DISK_JITTER: SimDuration = SimDuration::from_millis(4);

/// Shard servers, one per segment.
pub const SHARDS: usize = 2;
/// Blocks in each shard's file.
pub const FILE_BLOCKS: u32 = 256;
/// Worker processes per server team.
pub const WORKERS: usize = 4;
/// Disk arms per server.
pub const DISK_ARMS: usize = 2;

/// Shape of one page workload.
#[derive(Debug, Clone)]
pub struct PageConfig {
    /// Workload name, for spans.
    pub name: &'static str,
    /// Seed of the operation streams (and of the cluster).
    pub seed: u64,
    /// Client hosts, spread round-robin over the segments.
    pub clients: usize,
    /// Page steps per client after its open.
    pub ops_per_client: usize,
    /// Steps address blocks `0..span` of the file.
    pub span: u32,
    /// A step is a write with probability `write_num / write_den`.
    pub write_num: u64,
    /// See `write_num`.
    pub write_den: u64,
    /// Per-client write-invalidate cache capacity in blocks; 0 runs the
    /// uncached sharded client.
    pub cache_blocks: usize,
}

impl PageConfig {
    /// `page_rw`: 16 uncached clients, 4:1 reads to writes over a
    /// shard's whole file.
    pub fn page_rw(seed: u64) -> PageConfig {
        PageConfig {
            name: "workload.page_rw",
            seed,
            clients: 16,
            ops_per_client: 8000,
            span: 256,
            write_num: 1,
            write_den: 5,
            cache_blocks: 0,
        }
    }

    /// `cached_share`: 16 caching clients re-reading a 16-block hot set
    /// per shard file, one write in 64 steps.
    pub fn cached_share(seed: u64) -> PageConfig {
        PageConfig {
            name: "workload.cached_share",
            seed,
            clients: 16,
            ops_per_client: 8000,
            span: 16,
            write_num: 1,
            write_den: 64,
            cache_blocks: 32,
        }
    }

    fn file_name(&self, map: &ShardMap, shard: usize) -> String {
        map.name_for_shard(shard, "pages")
    }

    /// The scripts the seed picks, one per client: an open of the
    /// client's shard file, then the page steps.
    pub fn scripts(&self) -> Vec<Vec<FsCall>> {
        let map = ShardMap::new(SHARDS);
        let mut rng = SplitMix64::new(self.seed);
        (0..self.clients)
            .map(|j| {
                let mut rng = rng.fork(j as u64);
                let mut script = vec![FsCall::Open(self.file_name(&map, j % SHARDS))];
                for _ in 0..self.ops_per_client {
                    let block = rng.below(self.span as u64) as u32;
                    let count = BLOCK_SIZE as u32;
                    script.push(if rng.below(self.write_den) < self.write_num {
                        FsCall::WriteFill {
                            block,
                            count,
                            fill: FILL,
                        }
                    } else {
                        FsCall::ReadExpect {
                            block,
                            count,
                            expect: FILL,
                        }
                    });
                }
                script
            })
            .collect()
    }
}

/// The cluster after its servers are parked in `Receive`.
struct Stage {
    cl: Cluster,
    teams: Vec<FileServerTeam>,
}

/// Builds the cluster, installs each shard's file and parks the server
/// teams.
fn stage(cfg: &PageConfig) -> Stage {
    let cpu = CpuSpeed::Mc68000At10MHz;
    let map = ShardMap::new(SHARDS);
    let mut cluster_cfg = ClusterConfig::mesh(MeshConfig::star(SHARDS));
    cluster_cfg.seed = cfg.seed;
    for s in 0..SHARDS {
        cluster_cfg = cluster_cfg.with_host_on(cpu, s);
    }
    for j in 0..cfg.clients {
        cluster_cfg = cluster_cfg.with_host_on(cpu, j % SHARDS);
    }
    let mut cl = Cluster::new(cluster_cfg);
    let teams = (0..SHARDS)
        .map(|s| {
            let mut store = BlockStore::with_id_base(map.id_base(s));
            store
                .create_with(
                    &cfg.file_name(&map, s),
                    &vec![FILL; FILE_BLOCKS as usize * BLOCK_SIZE],
                )
                .expect("fresh store");
            // `spawn_shard_server` is exactly this call with `register`
            // set; it returns only the pid, and the benchmark needs the
            // team's stats.
            spawn_file_server(
                &mut cl,
                HostId(s),
                FileServerConfig {
                    disk: DiskModel::fixed(DISK_ACCESS).with_jitter(DISK_JITTER, cfg.seed),
                    disk_arms: DISK_ARMS,
                    workers: WORKERS,
                    register: Some(map.logical_id(s)),
                    cache_mode: if cfg.cache_blocks > 0 {
                        CacheMode::WriteInvalidate
                    } else {
                        CacheMode::Off
                    },
                    ..FileServerConfig::default()
                },
                store,
            )
        })
        .collect();
    cl.run();
    Stage { cl, teams }
}

/// Host seconds to set the workload up once, without running it.
pub fn setup_once(cfg: &PageConfig) -> f64 {
    let t0 = Instant::now();
    let st = stage(cfg);
    let s = t0.elapsed().as_secs_f64();
    drop(st);
    s
}

/// Runs one repetition of a page workload.
pub fn run(cfg: &PageConfig, tracer: &mut Tracer) -> Rep {
    let scripts = cfg.scripts();
    let root = tracer.begin(cfg.name, 0);
    let setup_span = tracer.begin("setup", root.id());
    let t0 = Instant::now();
    let Stage { mut cl, teams } = stage(cfg);
    let setup_s = t0.elapsed().as_secs_f64();
    tracer.end(setup_span);

    let servers: Vec<Pid> = teams.iter().map(|t| t.server).collect();
    let cache_cfg = CacheConfig::write_invalidate(cfg.cache_blocks);
    let reports: Vec<Rc<RefCell<FsClientReport>>> = (0..cfg.clients)
        .map(|_| Rc::new(RefCell::new(FsClientReport::default())))
        .collect();
    let logs: Vec<Rc<RefCell<OpLog>>> = (0..cfg.clients)
        .map(|_| Rc::new(RefCell::new(OpLog::default())))
        .collect();
    let mut caches = Vec::new();

    let timed = tracer.begin("pages.timed", root.id());
    let t1 = Instant::now();
    for (j, script) in scripts.iter().enumerate() {
        let host = HostId(SHARDS + j);
        let report = reports[j].clone();
        let log = logs[j].clone();
        if cfg.cache_blocks == 0 {
            let client =
                ShardedFsClient::with_servers(servers.clone(), script.clone(), report.clone());
            cl.spawn(host, "fsclient", Box::new(Timed::new(client, report, log)));
        } else {
            // What `spawn_caching_client` spawns in write-invalidate
            // mode — the agent, then the client carrying the cache
            // layer — with the client wrapped in `Timed`.
            let server = servers[j % SHARDS];
            let cache = Rc::new(RefCell::new(BlockCache::new(cache_cfg.capacity_blocks)));
            let agent = cl.spawn(
                host,
                "cache-agent",
                Box::new(CacheAgent::new(cache.clone())),
            );
            let layer = CacheLayer::new(cache.clone(), agent, cache_cfg.hit_cpu);
            let client = FsClient::new(server, script.clone(), report.clone()).with_cache(layer);
            cl.spawn(host, "fsclient", Box::new(Timed::new(client, report, log)));
            caches.push(cache);
        }
    }
    let pending_peak = drain(&mut cl, tracer, timed.id());
    let wall_s = t1.elapsed().as_secs_f64();
    tracer.end(timed);

    let mut failures = Failures::default();
    let mut read_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut first: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    let mut reads_issued = 0u64;
    for (j, script) in scripts.iter().enumerate() {
        let r = reports[j].borrow();
        let log = logs[j].borrow();
        failures.protocol += r.errors;
        failures.integrity += r.integrity_errors;
        if !r.done {
            failures.unfinished += 1;
        }
        if r.completed != script.len() as u64 || log.done.len() != script.len() {
            failures.mismatched += 1;
        }
        let Some(start) = log.started else {
            failures.unfinished += 1;
            continue;
        };
        first = Some(first.map_or(start, |t| t.min(start)));
        let mut prev = start;
        for (&at, call) in log.done.iter().zip(script) {
            let ms = at.since(prev).as_millis_f64();
            let name = match call {
                FsCall::ReadExpect { .. } => {
                    read_ms.push(ms);
                    "client.read"
                }
                FsCall::WriteFill { .. } => {
                    write_ms.push(ms);
                    "client.write"
                }
                _ => "client.open",
            };
            tracer.sim_span(
                name,
                root.id(),
                j as u64 + 1,
                prev.as_nanos(),
                at.as_nanos(),
            );
            prev = at;
        }
        last = Some(last.map_or(prev, |t| t.max(prev)));
        reads_issued += script
            .iter()
            .filter(|c| matches!(c, FsCall::ReadExpect { .. }))
            .count() as u64;
    }

    let mut cache = CacheStats::default();
    for c in &caches {
        let s = c.borrow().stats;
        cache.hits += s.hits;
        cache.misses += s.misses;
        cache.invalidated_blocks += s.invalidated_blocks;
    }
    if cfg.cache_blocks > 0 && cache.hits + cache.misses != reads_issued {
        failures.mismatched += 1;
    }

    let busy_ms = match (first, last) {
        (Some(a), Some(b)) => b.since(a).as_millis_f64(),
        _ => 0.0,
    };
    let layers = collect_layers(
        &cl,
        Hosts {
            servers: SHARDS,
            clients: cfg.clients,
        },
        &teams,
        &cache,
        (read_ms.len() + write_ms.len()) as u64,
        &[],
        pending_peak,
    );
    tracer.end(root);

    let topology = cl.config().topology.clone().expect("pages run on a mesh");
    let station_segments = cl.config().hosts.iter().map(|h| h.segment).collect();
    Rep {
        setup_s,
        wall_s,
        sim: SimOutcome {
            attempted: scripts.iter().map(|s| s.len() as u64).sum(),
            failures,
            boot_ms: Vec::new(),
            resolve_ms: Vec::new(),
            read_ms,
            write_ms,
            busy_ms,
            layers,
        },
        shape: Shape {
            topology,
            station_segments,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer;
    use v_fs::spawn_caching_client;

    /// The timed clients behave exactly like the shipped ones spawned
    /// directly: `ShardedFsClient::with_servers` for `page_rw`,
    /// `spawn_caching_client` for `cached_share`.
    #[test]
    fn timed_clients_are_the_shipped_clients() {
        for base in [PageConfig::page_rw(9), PageConfig::cached_share(9)] {
            let cfg = PageConfig {
                clients: 4,
                ops_per_client: 300,
                ..base
            };
            let ours = run(&cfg, &mut Tracer::new(false));
            assert_eq!(ours.sim.failures.total(), 0, "{:?}", ours.sim.failures);

            let Stage { mut cl, teams } = stage(&cfg);
            let servers: Vec<Pid> = teams.iter().map(|t| t.server).collect();
            let mut handles = Vec::new();
            for (j, script) in cfg.scripts().into_iter().enumerate() {
                let host = HostId(SHARDS + j);
                let report = Rc::new(RefCell::new(FsClientReport::default()));
                if cfg.cache_blocks == 0 {
                    let client = ShardedFsClient::with_servers(servers.clone(), script, report);
                    cl.spawn(host, "fsclient", Box::new(client));
                } else {
                    handles.push(spawn_caching_client(
                        &mut cl,
                        host,
                        servers[j % SHARDS],
                        script,
                        report,
                        &CacheConfig::write_invalidate(cfg.cache_blocks),
                    ));
                }
            }
            cl.run();
            let l = &ours.sim.layers;
            assert_eq!(
                layer(l, "sim.events_dispatched"),
                cl.events_dispatched() as f64
            );
            assert_eq!(
                layer(l, "net.frames_sent"),
                cl.medium_stats().frames_sent as f64
            );
            let hits: u64 = handles.iter().map(|h| h.stats().hits).sum();
            assert_eq!(layer(l, "fs.cache_hits"), hits as f64);
        }
    }
}
