//! `boot_storm`: the shipped boot storm at `BootStormConfig::new(2000)`,
//! driven from outside so each boot is timed from power-on.
//!
//! This module reproduces `v_workloads::boot::run_boot_storm` step for
//! step (same cluster, catalogue, server configuration, wave schedule
//! and client program) with two additions that change no event: each
//! client is wrapped to stamp its `GetPid` outcome, header read and
//! verified image, and the drain after the last wave runs in
//! [`crate::SAMPLE_STEP`] slices to sample the event-queue depth. The
//! shipped storm is reproduced exactly with [`PowerOn::Shipped`]; the
//! benchmark's seed picks a power-on order instead
//! ([`PowerOn::Shuffled`]), so its latencies are drawn from the same
//! storm shape under a different arrival order.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use v_fs::loader::{install_image, LoadReport, ProgramLoader};
use v_fs::{
    spawn_file_server, BlockStore, CacheStats, DiskModel, FileServerConfig, FileServerTeam,
    ShardMap,
};
use v_kernel::naming::Scope;
use v_kernel::{Api, Cluster, ClusterConfig, HostId, Outcome, Program};
use v_net::MeshConfig;
use v_sim::{SimDuration, SimTime, SplitMix64};
use v_workloads::boot::BootStormConfig;

use crate::trace::Tracer;
use crate::{collect_layers, drain, Failures, Hosts, Rep, Shape, SimOutcome};

/// Number of booting hosts.
pub const CLIENTS: usize = 2000;

/// The order in which the storm powers its clients on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerOn {
    /// Client `j` is the `j`-th to power on, as in the shipped storm.
    Shipped,
    /// A permutation drawn from the seed. Host placement, image
    /// placement and the wave schedule are unchanged; only which
    /// client each wave slot switches on differs.
    Shuffled(u64),
}

impl PowerOn {
    fn order(self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        if let PowerOn::Shuffled(seed) = self {
            let mut rng = SplitMix64::new(seed);
            for i in (1..n).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
        }
        order
    }
}

/// Milestones of one booting client on the simulated clock.
#[derive(Debug, Clone, Default)]
struct BootLog {
    power_on: Option<SimTime>,
    resolved: Option<SimTime>,
    opened: Option<SimTime>,
    header_read: Option<SimTime>,
    loaded: Option<SimTime>,
}

/// The shipped storm's client — broadcast `GetPid`, then the two-read
/// program load — with its milestones stamped from outside the loader.
struct BootClient {
    logical_id: u32,
    name: String,
    report: Rc<RefCell<LoadReport>>,
    resolve_failures: Rc<RefCell<u64>>,
    log: Rc<RefCell<BootLog>>,
    inner: Option<ProgramLoader>,
    replies: u32,
}

impl Program for BootClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        let at = api.now();
        match (&mut self.inner, outcome) {
            (None, Outcome::Started) => api.get_pid(self.logical_id, Scope::Both),
            (None, Outcome::GetPid(Some(server))) => {
                self.log.borrow_mut().resolved = Some(at);
                let mut loader = ProgramLoader::new(server, self.name.clone(), self.report.clone());
                loader.resume(api, Outcome::Started);
                self.inner = Some(loader);
            }
            (None, _) => {
                self.log.borrow_mut().resolved = Some(at);
                *self.resolve_failures.borrow_mut() += 1;
                api.exit();
            }
            (Some(loader), outcome) => {
                if matches!(outcome, Outcome::Send(Ok(_))) {
                    self.replies += 1;
                    let mut log = self.log.borrow_mut();
                    match self.replies {
                        1 => log.opened = Some(at),
                        2 => log.header_read = Some(at),
                        _ => {}
                    }
                }
                loader.resume(api, outcome);
                if self.report.borrow().loaded {
                    self.log.borrow_mut().loaded.get_or_insert(at);
                }
            }
        }
    }
}

/// The storm's cluster after its servers are parked in `Receive`.
struct Stage {
    cl: Cluster,
    map: ShardMap,
    names: Vec<String>,
    teams: Vec<FileServerTeam>,
}

/// Builds the storm's cluster, installs the replicated catalogue and
/// parks every shard server — the shipped storm's set-up, keeping the
/// server teams' stats handles.
fn stage(cfg: &BootStormConfig, cluster_seed: u64) -> Stage {
    let shards = cfg.shards;
    let map = ShardMap::new(shards);
    let mut cluster_cfg = ClusterConfig::mesh(MeshConfig::star(shards));
    cluster_cfg.seed = cluster_seed;
    for s in 0..shards {
        cluster_cfg = cluster_cfg.with_host_on(cfg.cpu, s);
    }
    for j in 0..cfg.clients {
        cluster_cfg = cluster_cfg.with_host_on(cfg.cpu, j % shards);
    }
    let mut cl = Cluster::new(cluster_cfg);

    let names: Vec<String> = (0..shards)
        .map(|s| map.name_for_shard(s, "bootimage"))
        .collect();
    let mut master = BlockStore::new();
    for name in &names {
        install_image(&mut master, name, cfg.image_size, 0xB7);
    }
    // `spawn_shard_server` is exactly this call with `register` set; it
    // returns only the pid, and the benchmark needs the team's stats.
    let teams: Vec<FileServerTeam> = (0..shards)
        .map(|s| {
            spawn_file_server(
                &mut cl,
                HostId(s),
                FileServerConfig {
                    disk: DiskModel::fixed(SimDuration::from_millis(2)),
                    disk_arms: cfg.disk_arms,
                    transfer_unit: 4096,
                    register: Some(map.logical_id(s)),
                    ..FileServerConfig::default()
                },
                master.clone(),
            )
        })
        .collect();
    cl.run();
    Stage {
        cl,
        map,
        names,
        teams,
    }
}

/// The storm shape the benchmark runs.
pub fn config() -> BootStormConfig {
    BootStormConfig::new(CLIENTS)
}

/// Host seconds to set the storm up once (the quantity `setup_s`
/// reports), without running it.
pub fn setup_once(cluster_seed: u64) -> f64 {
    let cfg = config();
    let t0 = Instant::now();
    let st = stage(&cfg, cluster_seed);
    let s = t0.elapsed().as_secs_f64();
    drop(st);
    s
}

/// Runs the storm once with the given power-on order.
pub fn run(power_on: PowerOn, cluster_seed: u64, tracer: &mut Tracer) -> Rep {
    run_config(&config(), power_on, cluster_seed, tracer)
}

/// Runs a storm of any shape once (tests use small ones).
pub fn run_config(
    cfg: &BootStormConfig,
    power_on: PowerOn,
    cluster_seed: u64,
    tracer: &mut Tracer,
) -> Rep {
    let root = tracer.begin("workload.boot_storm", 0);
    let setup_span = tracer.begin("setup", root.id());
    let t0 = Instant::now();
    let Stage {
        mut cl,
        map,
        names,
        teams,
    } = stage(cfg, cluster_seed);
    let setup_s = t0.elapsed().as_secs_f64();
    tracer.end(setup_span);

    let shards = cfg.shards;
    let order = power_on.order(cfg.clients);
    let reports: Vec<Rc<RefCell<LoadReport>>> = (0..cfg.clients)
        .map(|_| Rc::new(RefCell::new(LoadReport::default())))
        .collect();
    let logs: Vec<Rc<RefCell<BootLog>>> = (0..cfg.clients)
        .map(|_| Rc::new(RefCell::new(BootLog::default())))
        .collect();
    let resolve_failures = Rc::new(RefCell::new(0u64));

    let timed = tracer.begin("storm.timed", root.id());
    let t1 = Instant::now();
    let mut pending_peak = 0u64;
    let mut next = 0;
    while next < cfg.clients {
        let end = (next + cfg.wave.max(1)).min(cfg.clients);
        for &j in &order[next..end] {
            let shard = j % shards;
            logs[j].borrow_mut().power_on = Some(cl.now());
            cl.spawn(
                HostId(shards + j),
                "bootclient",
                Box::new(BootClient {
                    logical_id: map.logical_id(shard),
                    name: names[shard].clone(),
                    report: reports[j].clone(),
                    resolve_failures: resolve_failures.clone(),
                    log: logs[j].clone(),
                    inner: None,
                    replies: 0,
                }),
            );
        }
        next = end;
        if next < cfg.clients {
            let deadline = cl.now() + cfg.wave_spacing;
            let wave = tracer.begin("storm.wave_run_until", timed.id());
            cl.run_until(deadline);
            tracer.end(wave);
            pending_peak = pending_peak.max(cl.sim_stats().pending as u64);
        }
    }
    pending_peak = pending_peak.max(drain(&mut cl, tracer, timed.id()));
    let wall_s = t1.elapsed().as_secs_f64();
    tracer.end(timed);

    let mut failures = Failures {
        unresolved: *resolve_failures.borrow(),
        ..Failures::default()
    };
    let mut boot_ms = Vec::with_capacity(cfg.clients);
    let mut resolve_ms = Vec::with_capacity(cfg.clients);
    let mut read_ms = Vec::with_capacity(cfg.clients);
    let mut first_on: Option<SimTime> = None;
    let mut last_loaded: Option<SimTime> = None;
    for (j, (report, log)) in reports.iter().zip(&logs).enumerate() {
        let r = report.borrow();
        let l = log.borrow();
        failures.protocol += r.errors;
        failures.integrity += r.integrity_errors;
        let on = l.power_on.expect("every client is powered on");
        first_on = Some(first_on.map_or(on, |t| t.min(on)));
        let trace = j as u64 + 1;
        // The boot span parents the client's resolution and header-read
        // spans, so its self time is the rest of the load.
        let boot_span = match (r.loaded, l.loaded) {
            (true, Some(done)) => {
                boot_ms.push(done.since(on).as_millis_f64());
                last_loaded = Some(last_loaded.map_or(done, |t| t.max(done)));
                tracer.sim_span(
                    "client.boot",
                    root.id(),
                    trace,
                    on.as_nanos(),
                    done.as_nanos(),
                )
            }
            _ => {
                failures.unfinished += 1;
                root.id()
            }
        };
        if let Some(t) = l.resolved {
            resolve_ms.push(t.since(on).as_millis_f64());
            tracer.sim_span(
                "kernel.resolve",
                boot_span,
                trace,
                on.as_nanos(),
                t.as_nanos(),
            );
        }
        if let (Some(open), Some(hdr)) = (l.opened, l.header_read) {
            read_ms.push(hdr.since(open).as_millis_f64());
            tracer.sim_span(
                "fs.header_read",
                boot_span,
                trace,
                open.as_nanos(),
                hdr.as_nanos(),
            );
        }
    }
    let busy_ms = match (first_on, last_loaded) {
        (Some(a), Some(b)) => b.since(a).as_millis_f64(),
        _ => 0.0,
    };
    let layers = collect_layers(
        &cl,
        Hosts {
            servers: shards,
            clients: cfg.clients,
        },
        &teams,
        &CacheStats::default(),
        boot_ms.len() as u64,
        &resolve_ms,
        pending_peak,
    );
    tracer.end(root);

    let topology = cl
        .config()
        .topology
        .clone()
        .expect("the storm runs on a mesh");
    let station_segments = cl.config().hosts.iter().map(|h| h.segment).collect();
    Rep {
        setup_s,
        wall_s,
        sim: SimOutcome {
            attempted: cfg.clients as u64,
            failures,
            boot_ms,
            resolve_ms,
            read_ms,
            write_ms: Vec::new(),
            busy_ms,
            layers,
        },
        shape: Shape {
            topology,
            station_segments,
        },
    }
}
