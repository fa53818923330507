//! End-to-end and per-layer benchmark of the V kernel reproduction.
//!
//! Three workloads drive the shipped crates through their public entry
//! points; see `README.md` in this directory for why each was chosen
//! and which layer metric should move which end-to-end metric.
//!
//! * [`storm`] — `boot_storm`: the 2000-host open-loop boot storm;
//! * [`pages`] — `page_rw` (uncached sharded page traffic) and
//!   `cached_share` (write-invalidate caching clients on a hot set);
//! * [`probes`] — host-time microprobes of single layers, run at the
//!   shape a workload used;
//! * [`trace`] — the benchmark's own spans.
//!
//! One repetition of a workload yields a [`Rep`]: the host-clock setup
//! and timed-phase durations plus a [`SimOutcome`], everything the
//! simulation itself determined. A `SimOutcome` depends only on the
//! workload and its seed, so repetitions are compared for equality.

pub mod pages;
pub mod probes;
pub mod storm;
pub mod trace;

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::FsClientReport;
use v_fs::{CacheStats, FileServerTeam};
use v_kernel::{Api, Cluster, HostId, Outcome, Program};
use v_net::Topology;
use v_sim::SimTime;

/// Simulated step between `run_until` calls while a workload drains:
/// the event-queue depth is sampled at each step.
pub const SAMPLE_STEP: v_sim::SimDuration = v_sim::SimDuration::from_millis(10);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2000 diskless hosts booting an image in waves.
    BootStorm,
    /// Uncached random page reads and writes against sharded servers.
    PageRw,
    /// Write-invalidate caching clients re-reading a hot set.
    CachedShare,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "boot_storm" => Some(Workload::BootStorm),
            "page_rw" => Some(Workload::PageRw),
            "cached_share" => Some(Workload::CachedShare),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BootStorm => "boot_storm",
            Workload::PageRw => "page_rw",
            Workload::CachedShare => "cached_share",
        }
    }

    /// Runs one repetition: set up, run the timed phase to quiescence,
    /// collect and check.
    pub fn run(self, seed: u64, tracer: &mut trace::Tracer) -> Rep {
        match self {
            Workload::BootStorm => storm::run(storm::PowerOn::Shuffled(seed), seed, tracer),
            Workload::PageRw => pages::run(&pages::PageConfig::page_rw(seed), tracer),
            Workload::CachedShare => pages::run(&pages::PageConfig::cached_share(seed), tracer),
        }
    }
}

/// Failure counts of one repetition; all must be zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Requests refused with an error status (or a failed `Send`).
    pub protocol: u64,
    /// Reads whose bytes did not match, or writes the server
    /// acknowledged short.
    pub integrity: u64,
    /// Clients whose `GetPid` found no server.
    pub unresolved: u64,
    /// Clients that never finished their script or image load.
    pub unfinished: u64,
    /// Counter checks that did not reconcile (per-client completed ops
    /// against the script length; cache hits plus misses against the
    /// reads issued).
    pub mismatched: u64,
}

impl Failures {
    /// All failures together.
    pub fn total(&self) -> u64 {
        self.protocol + self.integrity + self.unresolved + self.unfinished + self.mismatched
    }
}

/// What the simulation determined in one repetition: latencies in
/// simulated milliseconds and per-layer counts. Identical for every
/// repetition of one workload and seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Operations attempted (boots, or script steps).
    pub attempted: u64,
    /// Failure counts.
    pub failures: Failures,
    /// Power-on to verified image, per booting client.
    pub boot_ms: Vec<f64>,
    /// Power-on to the `GetPid` outcome, per resolving client.
    pub resolve_ms: Vec<f64>,
    /// Per page read (the storm's header read counts as one).
    pub read_ms: Vec<f64>,
    /// Per page write.
    pub write_ms: Vec<f64>,
    /// Busy period: first start to last completion over all clients.
    pub busy_ms: f64,
    /// Per-layer counts, in report order.
    pub layers: Vec<(&'static str, f64)>,
}

/// The network shape a workload ran on, for the host-time probes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The workload's topology.
    pub topology: Topology,
    /// Segment of each attached station, in station order.
    pub station_segments: Vec<usize>,
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds to build the cluster, install the store and park
    /// the servers in `Receive`.
    pub setup_s: f64,
    /// Host seconds of the timed phase, up to quiescence.
    pub wall_s: f64,
    /// The simulated results.
    pub sim: SimOutcome,
    /// The network shape, for probes.
    pub shape: Shape,
}

/// Percentile `p` (0–100) of `v` by the nearest-rank rule; 0 for an
/// empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `v` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs `cl` to quiescence in [`SAMPLE_STEP`] slices, returning the
/// deepest event queue seen at a slice boundary. Equivalent to
/// [`Cluster::run`]: slicing changes no event's order.
pub fn drain(cl: &mut Cluster, tracer: &mut trace::Tracer, parent: u64) -> u64 {
    let mut peak = cl.sim_stats().pending as u64;
    let mut deadline = cl.now();
    while cl.sim_stats().pending > 0 {
        deadline += SAMPLE_STEP;
        let span = tracer.begin("sim.run_until", parent);
        cl.run_until(deadline);
        tracer.end(span);
        peak = peak.max(cl.sim_stats().pending as u64);
    }
    peak
}

/// Completion log of one scripted client, filled by [`Timed`].
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// When the client was first resumed.
    pub started: Option<SimTime>,
    /// Completion instant of each finished script step, in order.
    pub done: Vec<SimTime>,
}

/// Wraps a shipped scripted client and timestamps each step from
/// outside: a step finished when the client's completed-plus-failed
/// count went up while handling an outcome, at the instant that
/// outcome was delivered. The inner client is unaware of the wrapper
/// and nothing is charged for it.
pub struct Timed<P> {
    inner: P,
    report: Rc<RefCell<FsClientReport>>,
    log: Rc<RefCell<OpLog>>,
    seen: u64,
}

impl<P: Program> Timed<P> {
    /// Wraps `inner`, whose results go to `report`.
    pub fn new(inner: P, report: Rc<RefCell<FsClientReport>>, log: Rc<RefCell<OpLog>>) -> Self {
        Timed {
            inner,
            report,
            log,
            seen: 0,
        }
    }
}

impl<P: Program> Program for Timed<P> {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        let at = api.now();
        if matches!(outcome, Outcome::Started) {
            self.log.borrow_mut().started = Some(at);
        }
        self.inner.resume(api, outcome);
        let r = self.report.borrow();
        let steps = r.completed + r.errors;
        let mut log = self.log.borrow_mut();
        while self.seen < steps {
            log.done.push(at);
            self.seen += 1;
        }
    }
}

/// Host ranges of a workload's cluster: servers first, then clients.
#[derive(Debug, Clone, Copy)]
pub struct Hosts {
    /// Number of server hosts (hosts `0..servers`).
    pub servers: usize,
    /// Number of client hosts (the hosts after the servers).
    pub clients: usize,
}

/// Reads every layer's counters after a run. `ops` is the number of
/// workload operations completed, the base of per-op ratios;
/// `resolve_ms` feeds the naming-latency percentiles.
pub fn collect_layers(
    cl: &Cluster,
    hosts: Hosts,
    teams: &[FileServerTeam],
    cache: &CacheStats,
    ops: u64,
    resolve_ms: &[f64],
    pending_peak: u64,
) -> Vec<(&'static str, f64)> {
    let sim = cl.sim_stats();
    let medium = cl.medium_stats();
    let gw = cl.gateway_stats_total().unwrap_or_default();
    let elapsed = cl.now().since(SimTime::ZERO);

    let mut k = v_kernel::KernelStats::default();
    for h in 0..cl.num_hosts() {
        let s = cl.kernel_stats(HostId(h));
        k.sends_remote += s.sends_remote;
        k.retransmissions += s.retransmissions;
        k.reply_pending_sent += s.reply_pending_sent;
        k.duplicates_filtered += s.duplicates_filtered;
        k.getpid_broadcasts += s.getpid_broadcasts;
        k.aliens_allocated += s.aliens_allocated;
        k.chunks_sent += s.chunks_sent;
        k.transfer_resumes += s.transfer_resumes;
    }
    let client_cpu_ms: f64 = (hosts.servers..hosts.servers + hosts.clients)
        .map(|h| cl.cpu_busy(HostId(h)).as_millis_f64())
        .sum();
    let server_util = mean(
        &(0..hosts.servers)
            .map(|h| cl.cpu_busy(HostId(h)).as_secs_f64() / elapsed.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    let mut fs = v_fs::FileServerStats::default();
    let mut disk = v_fs::DiskStats::default();
    let mut disk_util = Vec::new();
    for t in teams {
        let s = t.stats.borrow();
        fs.reads += s.reads;
        fs.writes += s.writes;
        fs.large_reads += s.large_reads;
        fs.readahead_hits += s.readahead_hits;
        fs.forwarded += s.forwarded;
        fs.parked_peak = fs.parked_peak.max(s.parked_peak);
        fs.invalidations += s.invalidations;
        fs.invalidation_failures += s.invalidation_failures;
        let d = t.disk.borrow();
        disk.absorb(&d.stats());
        disk_util.push(d.utilization(elapsed));
    }

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let attempted_sends = (k.sends_remote + k.retransmissions) as f64;
    vec![
        ("sim.events_dispatched", cl.events_dispatched() as f64),
        ("sim.events_scheduled", sim.scheduled as f64),
        ("sim.events_popped", sim.popped as f64),
        ("sim.pending_peak", pending_peak as f64),
        ("net.frames_sent", medium.frames_sent as f64),
        ("net.bytes_sent", medium.bytes_sent as f64),
        ("net.deliveries", medium.deliveries as f64),
        (
            "net.fanout",
            ratio(medium.deliveries as f64, medium.frames_sent as f64),
        ),
        ("net.busy_ms", medium.busy.as_millis_f64()),
        ("net.deferrals", medium.deferrals as f64),
        ("net.dropped", medium.dropped as f64),
        ("net.gw_forwarded", gw.forwarded as f64),
        ("net.gw_max_queue", gw.max_queue as f64),
        ("net.gw_queue_drops", gw.queue_drops as f64),
        ("kernel.sends_remote", k.sends_remote as f64),
        ("kernel.retransmissions", k.retransmissions as f64),
        (
            "kernel.retransmit_ratio",
            ratio(k.sends_remote as f64, attempted_sends),
        ),
        ("kernel.reply_pending_sent", k.reply_pending_sent as f64),
        ("kernel.duplicates_filtered", k.duplicates_filtered as f64),
        ("kernel.getpid_broadcasts", k.getpid_broadcasts as f64),
        ("kernel.resolve_p50_ms", percentile(resolve_ms, 50.0)),
        ("kernel.resolve_p99_ms", percentile(resolve_ms, 99.0)),
        ("kernel.aliens_allocated", k.aliens_allocated as f64),
        ("kernel.chunks_sent", k.chunks_sent as f64),
        ("kernel.transfer_resumes", k.transfer_resumes as f64),
        (
            "kernel.client_cpu_ms_per_op",
            ratio(client_cpu_ms, ops as f64),
        ),
        ("kernel.server_cpu_util", server_util),
        ("fs.reads", fs.reads as f64),
        ("fs.writes", fs.writes as f64),
        ("fs.large_reads", fs.large_reads as f64),
        ("fs.readahead_hits", fs.readahead_hits as f64),
        ("fs.team_forwarded", fs.forwarded as f64),
        ("fs.parked_peak", fs.parked_peak as f64),
        ("fs.disk_requests", disk.requests as f64),
        ("fs.disk_busy_ms", disk.busy.as_millis_f64()),
        ("fs.disk_wait_ms", disk.waited.as_millis_f64()),
        ("fs.disk_util", mean(&disk_util)),
        ("fs.disk_max_queue", disk.max_queue_depth as f64),
        ("fs.cache_hits", cache.hits as f64),
        ("fs.cache_misses", cache.misses as f64),
        (
            "fs.cache_hit_rate",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        ),
        (
            "fs.cache_invalidated_blocks",
            cache.invalidated_blocks as f64,
        ),
        ("fs.invalidations", fs.invalidations as f64),
        ("fs.invalidation_failures", fs.invalidation_failures as f64),
    ]
}

/// Looks up a layer count by name.
pub fn layer(layers: &[(&'static str, f64)], name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no layer metric named {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
