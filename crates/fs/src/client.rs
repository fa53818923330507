//! Client-side helpers for the I/O protocol.
//!
//! Application processes access system services "through stub routines
//! that provide a procedural interface to the message primitives" (§3.4).
//! [`stub`] builds correctly-flagged request messages; [`FsClient`] is
//! the ready-made process that runs a script of file operations against
//! a fixed server, a sharded service or a replica group and verifies the
//! results, and [`StepTimer`] records when each of its steps finished.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use v_kernel::{naming::Scope, Access, Api, Message, Outcome, Pid, Program};
use v_sim::{SimDuration, SimTime};

use crate::cache::CacheLayer;
use crate::proto::{IoOp, IoReply, IoRequest, IoStatus, CACHE_DENY};
use crate::shard::{ShardMap, ShardOverlay};
use crate::store::FileId;
use crate::BLOCK_SIZE;

/// Stub routines: build request messages with the right segment grants.
pub mod stub {
    use super::*;

    /// Open-by-name: the name lives at `name_addr`/`name_len` in the
    /// client's space; read access is granted so it rides the request.
    pub fn open(name_addr: u32, name_len: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::Open,
            file: FileId(0),
            block: 0,
            count: 0,
            buffer: 0,
            aux: 0,
            tag,
        }
        .encode();
        m.set_segment(name_addr, name_len, Access::Read);
        m
    }

    /// Create a file of `size` bytes.
    pub fn create(name_addr: u32, name_len: u32, size: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::Create,
            file: FileId(0),
            block: 0,
            count: 0,
            buffer: 0,
            aux: size,
            tag,
        }
        .encode();
        m.set_segment(name_addr, name_len, Access::Read);
        m
    }

    /// Read one block into the buffer at `buffer` (write access granted
    /// so the server's `ReplyWithSegment`/`MoveTo` may deposit there).
    pub fn read(file: FileId, block: u32, count: u32, buffer: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::Read,
            file,
            block,
            count,
            buffer,
            aux: 0,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Write);
        m
    }

    /// Cached read: like [`read`] but announces the client's cache
    /// agent (`agent` = its pid) so the server registers the holder
    /// and answers with a cacheability grant.
    pub fn read_cached(
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        agent: u32,
        tag: u16,
    ) -> Message {
        let mut m = IoRequest {
            op: IoOp::ReadCached,
            file,
            block,
            count,
            buffer,
            aux: agent,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Write);
        m
    }

    /// Write one block from the buffer at `buffer` (read access granted;
    /// the kernel appends the first part to the request packet).
    /// `agent` names the writer's own cache agent (0 for uncached
    /// writers) so the server skips it during invalidation.
    pub fn write(
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        agent: u32,
        tag: u16,
    ) -> Message {
        let mut m = IoRequest {
            op: IoOp::Write,
            file,
            block,
            count,
            buffer,
            aux: agent,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Read);
        m
    }

    /// Query a file's length.
    pub fn query(file: FileId, tag: u16) -> Message {
        IoRequest {
            op: IoOp::Query,
            file,
            block: 0,
            count: 0,
            buffer: 0,
            aux: 0,
            tag,
        }
        .encode()
    }

    /// Large read of `count` bytes starting at block `block` into
    /// `buffer` (the server pushes with `MoveTo`s).
    pub fn read_large(file: FileId, block: u32, count: u32, buffer: u32, tag: u16) -> Message {
        let mut m = IoRequest {
            op: IoOp::ReadLarge,
            file,
            block,
            count,
            buffer,
            aux: 0,
            tag,
        }
        .encode();
        m.set_segment(buffer, count, Access::Write);
        m
    }
}

/// One step of an [`FsClient`] script.
#[derive(Debug, Clone)]
pub enum FsCall {
    /// Open by name; remembers the returned file id.
    Open(String),
    /// Create a file of the given size; remembers the id.
    Create(String, u32),
    /// Read `count` bytes of `block` into the client buffer and check
    /// every byte equals the expectation.
    ReadExpect {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
        /// Expected fill byte.
        expect: u8,
    },
    /// Fill the client buffer with a byte and write it to `block`.
    WriteFill {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
        /// Fill byte.
        fill: u8,
    },
    /// Read `count` bytes of `block` without checking the contents —
    /// used by consistency tests that race readers against writers,
    /// where either the old or the new fill is a legal answer.
    ReadAny {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
    },
    /// Query the file length and check it.
    QueryExpect(u32),
    /// Large read into the buffer plus a fill check.
    ReadLargeExpect {
        /// Starting block.
        block: u32,
        /// Byte count.
        count: u32,
        /// Expected fill byte.
        expect: u8,
    },
}

/// Outcome summary of an [`FsClient`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FsClientReport {
    /// Steps completed successfully.
    pub completed: u64,
    /// Protocol errors (bad status).
    pub errors: u64,
    /// Data mismatches.
    pub integrity_errors: u64,
    /// True once the whole script finished.
    pub done: bool,
    /// Simulated milliseconds from the first issued operation to script
    /// completion (0 until `done`).
    pub elapsed_ms: f64,
    /// Replies stamped by a different service than the one targeted:
    /// the request chased a migrated file through a server-side
    /// `Forward`, and the owner cache was corrected on the spot
    /// (reconciles against the servers'
    /// [`crate::FileServerStats::moved_forwards`]).
    pub stale_owner_forwards: u64,
    /// Writes refused with retry-after (file draining for migration)
    /// and re-issued after a backoff — each such write still completes
    /// exactly once.
    pub write_retries: u64,
    /// Failed `Send`s on a route that can fail over (shards, replicas),
    /// each re-routing the step to the next replica or the file's
    /// current owner; a give-up's last failed attempt counts too.
    pub failovers: u64,
    /// True when `2 × servers` consecutive attempts failed and the
    /// client abandoned the script (`done` stays false).
    pub gave_up: bool,
}

/// Client buffer locations.
const NAME_BUF: u32 = 0x0100;
pub(crate) const DATA_BUF: u32 = 0x20000;

/// First backoff before re-issuing a write refused with
/// [`IoStatus::RetryAfter`] (file draining for migration). It doubles
/// per refusal up to 64 ms, and [`MAX_RETRIES_PER_STEP`] refusals span
/// seconds: past the kernel's host-down detection a drain can stall
/// behind. A drain outliving that is stuck; the step counts an error.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(2);
const RETRY_BACKOFF_CAP_SHIFT: u32 = 5;
const MAX_RETRIES_PER_STEP: u32 = 64;

type Report = Rc<RefCell<FsClientReport>>;

/// Sharded-route state: the servers (given, or learned by `GetPid` in
/// shard order), the per-file owner cache and the migration overlay.
struct Shards {
    map: ShardMap,
    servers: Vec<Pid>,
    /// Owning server per file id, filled from open/create replies and
    /// self-corrected from the `owner` stamp on forwarded replies.
    owner_of: HashMap<u16, Pid>,
    overlay: Option<Rc<RefCell<ShardOverlay>>>,
}

/// Where each step goes, and what a failed `Send` means.
enum Route {
    /// One server; a `Send` error is final.
    Fixed(Pid),
    /// Opens go to the name's shard, block ops to the file's cached
    /// owner; a `Send` error drops that owner and re-routes the step.
    Sharded(Shards),
    /// Identical read-only replicas; a `Send` error rotates to the next.
    Replicas { pids: Vec<Pid>, current: usize },
}

impl Route {
    fn sharded(shards: usize, servers: Vec<Pid>) -> Route {
        Route::Sharded(Shards {
            map: ShardMap::new(shards),
            servers,
            owner_of: HashMap::new(),
            overlay: None,
        })
    }

    /// The server the next request for `call` (on `file`) goes to.
    fn target(&self, call: &FsCall, file: FileId) -> Pid {
        match self {
            Route::Fixed(pid) => *pid,
            Route::Replicas { pids, current } => pids[*current],
            Route::Sharded(s) => {
                let overlay = s.overlay.as_ref().map(|o| o.borrow());
                match call {
                    FsCall::Open(name) | FsCall::Create(name, _) => overlay
                        .and_then(|o| o.owner_of_name(name))
                        .unwrap_or_else(|| s.servers[s.map.shard_of_name(name)]),
                    // Cached owner, else a committed migration, else the id
                    // range's shard (a bad script gets server-side errors).
                    _ => s.owner_of.get(&file.0).copied().unwrap_or_else(|| {
                        overlay
                            .and_then(|o| o.owner_of_id(file))
                            .unwrap_or_else(|| s.servers[s.map.shard_of_id(file)])
                    }),
                }
            }
        }
    }

    /// Owner-cache upkeep after a reply from `target`: remember who
    /// answered an open, and follow a reply stamped by another service
    /// (it chased a migrated file through a `Forward`; returns true).
    fn on_reply(&mut self, call: &FsCall, reply: &IoReply, target: Pid, file: FileId) -> bool {
        let Route::Sharded(s) = self else {
            return false;
        };
        let opens = matches!(call, FsCall::Open(_) | FsCall::Create(_, _));
        if opens && reply.status == IoStatus::Ok {
            s.owner_of.insert(reply.file.0, target);
        }
        let Some(actual) = Pid::from_raw(reply.owner).filter(|&a| a != target) else {
            return false;
        };
        s.owner_of
            .insert(if opens { reply.file.0 } else { file.0 }, actual);
        true
    }

    /// Re-routes after a failed `Send`. Returns the servers behind the
    /// route (the give-up bound is `2 ×` that), `None` if it is final.
    fn fail_over(&mut self, file: FileId) -> Option<usize> {
        match self {
            Route::Fixed(_) => None,
            Route::Sharded(s) => {
                s.owner_of.remove(&file.0);
                Some(s.map.shards())
            }
            Route::Replicas { pids, current } => {
                *current = (*current + 1) % pids.len();
                Some(pids.len())
            }
        }
    }
}

/// The scripted file-service client: runs a script of [`FsCall`]s,
/// verifies every reply, and optionally carries a block cache (see
/// [`crate::cache`]). The constructor picks the route — one fixed
/// server ([`FsClient::new`]), a sharded service ([`crate::shard`],
/// [`FsClient::with_servers`] / [`FsClient::resolving`]) or a read-only
/// replica group ([`crate::replica`], [`FsClient::replicas`]). Every
/// route shares the cache hit path, the `RetryAfter` backoff and the
/// give-up bound of `2 × servers` consecutive failed attempts.
pub struct FsClient {
    route: Route,
    script: Vec<FsCall>,
    /// Shared results.
    pub report: Report,
    step: usize,
    file: FileId,
    /// Server the in-flight request went to.
    target: Option<Pid>,
    started: Option<SimTime>,
    cache: Option<CacheLayer>,
    pending_hit: Option<Vec<u8>>,
    /// A `RetryAfter` backoff is in flight for the current step.
    pending_retry: bool,
    retries_this_step: u32,
    consecutive_failures: usize,
}

/// The sharded client, by its historical name. Kept because the
/// benchmark package (`perfbench/src/pages.rs`) calls
/// `ShardedFsClient::with_servers`; new code uses [`FsClient`].
pub type ShardedFsClient = FsClient;

impl FsClient {
    fn on_route(route: Route, script: Vec<FsCall>, report: Report) -> Self {
        FsClient {
            route,
            script,
            report,
            step: 0,
            file: FileId(0),
            target: None,
            started: None,
            cache: None,
            pending_hit: None,
            pending_retry: false,
            retries_this_step: 0,
            consecutive_failures: 0,
        }
    }

    /// A client of the single file server `server`.
    pub fn new(server: Pid, script: Vec<FsCall>, report: Report) -> Self {
        FsClient::on_route(Route::Fixed(server), script, report)
    }

    /// A client of a sharded service whose servers' pids (index =
    /// shard) are supplied directly.
    pub fn with_servers(servers: Vec<Pid>, script: Vec<FsCall>, report: Report) -> Self {
        assert!(!servers.is_empty(), "need at least one shard server");
        FsClient::on_route(Route::sharded(servers.len(), servers), script, report)
    }

    /// A sharded client that first resolves all `shards` logical ids
    /// with broadcast `GetPid` (flooded mesh-wide), then runs the script.
    pub fn resolving(shards: usize, script: Vec<FsCall>, report: Report) -> Self {
        FsClient::on_route(Route::sharded(shards, Vec::new()), script, report)
    }

    /// A client of a read-only replica group, starting at the first.
    pub fn replicas(pids: Vec<Pid>, script: Vec<FsCall>, report: Report) -> Self {
        assert!(!pids.is_empty(), "need at least one replica");
        FsClient::on_route(Route::Replicas { pids, current: 0 }, script, report)
    }

    /// Attaches the shared placement overlay to a sharded client:
    /// committed migrations skip the forwarding hop, and block ops fail
    /// over to a file's new owner when the old one is dead.
    pub fn with_overlay(mut self, overlay: Rc<RefCell<ShardOverlay>>) -> Self {
        let Route::Sharded(s) = &mut self.route else {
            panic!("a placement overlay needs a sharded client");
        };
        s.overlay = Some(overlay);
        self
    }

    /// Attaches a block cache to the read path. Blocks are keyed by
    /// file id, which is unique across shards ([`ShardMap::id_base`])
    /// and identical across replicas, so one cache serves every route
    /// and stays valid after failover.
    pub fn with_cache(mut self, layer: CacheLayer) -> Self {
        self.cache = Some(layer);
        self
    }

    /// Resolves the next unknown shard server, or starts the script.
    fn start(&mut self, api: &mut Api<'_>) {
        match &self.route {
            Route::Sharded(s) if s.servers.len() < s.map.shards() => {
                api.get_pid(s.map.logical_id(s.servers.len()), Scope::Both)
            }
            _ => self.issue(api),
        }
    }

    /// Issues the current step: a cache hit, or a request to the route's
    /// target. With a cache, reads go out as `ReadCached` and writes
    /// carry the agent so the server skips it during invalidation.
    fn issue(&mut self, api: &mut Api<'_>) {
        let started = *self.started.get_or_insert(api.now());
        let Some(call) = self.script.get(self.step) else {
            let mut rep = self.report.borrow_mut();
            rep.done = true;
            rep.elapsed_ms = api.now().since(started).as_millis_f64();
            drop(rep);
            api.exit();
            return;
        };
        let (file, tag) = (self.file, self.step as u16);
        let mut agent = None;
        if let Some(layer) = self.cache.as_mut() {
            if let Some(data) = layer.try_hit(call, file, api.now()) {
                // A hit never touches the wire: no routing, no failure
                // detection — served even while servers die.
                self.pending_hit = Some(data);
                api.compute(layer.hit_cpu());
                return;
            }
            layer.on_issue(call, file);
            agent = Some(layer.agent_aux());
        }
        let target = self.route.target(call, file);
        self.target = Some(target);
        let msg = match call {
            FsCall::Open(name) | FsCall::Create(name, _) => {
                api.mem_write(NAME_BUF, name.as_bytes()).expect("name fits");
                let len = name.len() as u32;
                match call {
                    FsCall::Create(_, size) => stub::create(NAME_BUF, len, *size, tag),
                    _ => stub::open(NAME_BUF, len, tag),
                }
            }
            FsCall::ReadExpect { block, count, .. } | FsCall::ReadAny { block, count } => {
                api.mem_fill(DATA_BUF, *count as usize, 0x00).expect("fits");
                match agent {
                    Some(a) => stub::read_cached(file, *block, *count, DATA_BUF, a, tag),
                    None => stub::read(file, *block, *count, DATA_BUF, tag),
                }
            }
            FsCall::WriteFill { block, count, fill } => {
                api.mem_fill(DATA_BUF, *count as usize, *fill)
                    .expect("fits");
                stub::write(file, *block, *count, DATA_BUF, agent.unwrap_or(0), tag)
            }
            FsCall::QueryExpect(_) => stub::query(file, tag),
            FsCall::ReadLargeExpect { block, count, .. } => {
                api.mem_fill(DATA_BUF, *count as usize, 0x00).expect("fits");
                stub::read_large(file, *block, *count, DATA_BUF, tag)
            }
        };
        api.send(msg, target);
    }

    /// Verifies a reply against the current step, adopting the file id
    /// an open/create returned, and feeds the route and the cache.
    fn check(&mut self, api: &mut Api<'_>, reply: IoReply) {
        let call = &self.script[self.step];
        let mut rep = self.report.borrow_mut();
        if reply.status != IoStatus::Ok {
            rep.errors += 1;
        } else {
            let ok = match call {
                FsCall::Open(_) | FsCall::Create(_, _) => {
                    self.file = reply.file;
                    true
                }
                FsCall::QueryExpect(expect) => reply.value == *expect,
                FsCall::ReadExpect { count, expect, .. }
                | FsCall::ReadLargeExpect { count, expect, .. } => {
                    let got = api.mem_read(DATA_BUF, *count as usize).expect("fits");
                    got.iter().all(|b| b == expect)
                }
                FsCall::WriteFill { count, .. } => reply.value == (*count).min(BLOCK_SIZE as u32),
                FsCall::ReadAny { .. } => true,
            };
            if !ok {
                rep.integrity_errors += 1;
            }
            rep.completed += 1;
        }
        let stale = self
            .target
            .is_some_and(|t| self.route.on_reply(call, &reply, t, self.file));
        rep.stale_owner_forwards += u64::from(stale);
        drop(rep);
        if let Some(layer) = self.cache.as_mut() {
            layer.install_reply(api, call, self.file, &reply, api.now());
        }
    }

    /// Finishes the current step and issues the next.
    fn advance(&mut self, api: &mut Api<'_>) {
        self.retries_this_step = 0;
        self.step += 1;
        self.issue(api);
    }

    /// Abandons the script with one final error.
    fn abandon(&self, api: &mut Api<'_>) {
        self.report.borrow_mut().errors += 1;
        api.exit();
    }
}

impl Program for FsClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => self.start(api),
            Outcome::GetPid(found) => match (found, &mut self.route) {
                (Some(pid), Route::Sharded(s)) => {
                    s.servers.push(pid);
                    self.start(api);
                }
                _ => self.abandon(api),
            },
            Outcome::Send(Ok(reply)) => {
                self.consecutive_failures = 0;
                let reply = IoReply::decode(&reply);
                if reply.status != IoStatus::RetryAfter {
                    self.check(api, reply);
                } else if self.retries_this_step < MAX_RETRIES_PER_STEP {
                    // The file is draining for migration: back off, then
                    // re-issue the step to whoever owns the file by then.
                    let shift = self.retries_this_step.min(RETRY_BACKOFF_CAP_SHIFT);
                    self.retries_this_step += 1;
                    self.report.borrow_mut().write_retries += 1;
                    self.pending_retry = true;
                    api.delay(RETRY_BACKOFF * (1u64 << shift));
                    return;
                } else {
                    // Stuck drain: record the failure and move on.
                    self.report.borrow_mut().errors += 1;
                }
                self.advance(api);
            }
            Outcome::Send(Err(_)) => {
                // The target's host is presumed down: re-route and re-issue
                // the step (replica reads are idempotent by construction).
                let Some(servers) = self.route.fail_over(self.file) else {
                    return self.abandon(api);
                };
                self.consecutive_failures += 1;
                let mut rep = self.report.borrow_mut();
                rep.failovers += 1;
                rep.gave_up = self.consecutive_failures >= 2 * servers;
                let gave_up = rep.gave_up;
                drop(rep);
                if gave_up {
                    return self.abandon(api);
                }
                self.issue(api);
            }
            Outcome::Delay if self.pending_retry => {
                self.pending_retry = false;
                self.issue(api);
            }
            Outcome::Compute if self.pending_hit.is_some() => {
                // Deposit the bytes as a reply would and check a synthesized
                // `Ok` (its `CACHE_DENY` grant keeps it from re-installing).
                self.consecutive_failures = 0;
                let data = self.pending_hit.take().expect("hit in flight");
                api.mem_write(DATA_BUF, &data).expect("fits");
                let reply = IoReply {
                    status: IoStatus::Ok,
                    file: self.file,
                    value: data.len() as u32,
                    aux: CACHE_DENY,
                    owner: 0,
                    tag: self.step as u16,
                };
                self.check(api, reply);
                self.advance(api);
            }
            _ => api.exit(),
        }
    }
}

/// Completion instants of the steps of a [`StepTimer`]-wrapped client.
#[derive(Debug, Clone, Default)]
pub struct StepTimes {
    /// When the client was started.
    pub started: Option<SimTime>,
    /// When each finished step (completed or failed) finished, in order.
    pub done: Vec<SimTime>,
}

impl StepTimes {
    /// `(completed_at_ms, latency_ms)` per finished step. The client
    /// issues each step the instant the previous one finishes (a
    /// failover retry keeps the step's first issue), so a step's
    /// latency is the gap since the previous completion — since the
    /// start for the first.
    pub fn op_ms(&self) -> Vec<(f64, f64)> {
        let mut prev = self.started.unwrap_or(SimTime::ZERO);
        self.done
            .iter()
            .map(|&at| {
                let latency = at.since(prev).as_millis_f64();
                prev = at;
                (at.as_millis_f64(), latency)
            })
            .collect()
    }
}

/// Times an [`FsClient`]'s steps from outside: a step finished when the
/// report's `completed + errors` rose while handling an outcome, at the
/// instant that outcome was delivered. Charges nothing, so the wrapped
/// run is identical to the bare one.
pub struct StepTimer {
    client: FsClient,
    times: Rc<RefCell<StepTimes>>,
    seen: u64,
}

impl StepTimer {
    /// Wraps `client`, recording into `times`.
    pub fn new(client: FsClient, times: Rc<RefCell<StepTimes>>) -> StepTimer {
        StepTimer {
            client,
            times,
            seen: 0,
        }
    }
}

impl Program for StepTimer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        let at = api.now();
        if matches!(outcome, Outcome::Started) {
            self.times.borrow_mut().started = Some(at);
        }
        self.client.resume(api, outcome);
        let rep = self.client.report.borrow();
        let steps = rep.completed + rep.errors;
        let mut times = self.times.borrow_mut();
        while self.seen < steps {
            times.done.push(at);
            self.seen += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FileServer, FileServerConfig};
    use crate::store::BlockStore;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
    use v_sim::SimDuration;

    type Build = fn(Pid, Vec<FsCall>, Rc<RefCell<FsClientReport>>) -> FsClient;

    /// What a run leaves behind: the report, events dispatched, frames
    /// sent and the final clock.
    type Run = (FsClientReport, u64, u64, SimTime);

    /// Runs `script` from host 0 against one file server on host 1,
    /// with the client built by `build`.
    fn run_on(script: Vec<FsCall>, build: Build) -> Run {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        let data = vec![0x7Eu8; 4 * BLOCK_SIZE];
        store.create_with("boot", &data).unwrap();
        let server = cl.spawn(
            HostId(1),
            "fileserver",
            Box::new(FileServer::new(
                FileServerConfig {
                    disk: crate::disk::DiskModel::fixed(SimDuration::from_millis(1)),
                    ..FileServerConfig::default()
                },
                store,
            )),
        );
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(0),
            "fsclient",
            Box::new(build(server, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        (
            r,
            cl.events_dispatched(),
            cl.medium_stats().frames_sent,
            cl.now(),
        )
    }

    fn run_script(script: Vec<FsCall>) -> FsClientReport {
        run_on(script, FsClient::new).0
    }

    /// Against a single server the three routes pick the same target
    /// for every step, so they must run the same simulation: identical
    /// reports, event counts, frames and final clock.
    #[test]
    fn every_route_runs_a_single_server_script_identically() {
        let script = vec![
            FsCall::Open("boot".into()),
            FsCall::ReadExpect {
                block: 2,
                count: BLOCK_SIZE as u32,
                expect: 0x7E,
            },
            FsCall::WriteFill {
                block: 1,
                count: BLOCK_SIZE as u32,
                fill: 0x99,
            },
            FsCall::QueryExpect(4 * BLOCK_SIZE as u32),
            FsCall::ReadLargeExpect {
                block: 2,
                count: 2 * BLOCK_SIZE as u32,
                expect: 0x7E,
            },
        ];
        let fixed = run_on(script.clone(), FsClient::new);
        assert!(fixed.0.done && fixed.0.errors == 0, "{:?}", fixed.0);
        assert_eq!(fixed.0.completed, 5);
        let routes: [(&str, Build); 2] = [
            ("sharded", |s, script, r| {
                FsClient::with_servers(vec![s], script, r)
            }),
            ("replicas", |s, script, r| {
                FsClient::replicas(vec![s], script, r)
            }),
        ];
        for (route, build) in routes {
            assert_eq!(run_on(script.clone(), build), fixed, "{route}");
        }
    }

    #[test]
    fn open_read_write_query_round_trip() {
        let rep = run_script(vec![
            FsCall::Open("boot".into()),
            FsCall::QueryExpect(4 * BLOCK_SIZE as u32),
            FsCall::ReadExpect {
                block: 2,
                count: BLOCK_SIZE as u32,
                expect: 0x7E,
            },
            FsCall::WriteFill {
                block: 1,
                count: BLOCK_SIZE as u32,
                fill: 0x99,
            },
            FsCall::ReadExpect {
                block: 1,
                count: BLOCK_SIZE as u32,
                expect: 0x99,
            },
        ]);
        assert!(rep.done, "{rep:?}");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.integrity_errors, 0);
        assert_eq!(rep.completed, 5);
    }

    #[test]
    fn create_then_large_read() {
        let rep = run_script(vec![
            FsCall::Open("boot".into()),
            FsCall::ReadLargeExpect {
                block: 0,
                count: 4 * BLOCK_SIZE as u32,
                expect: 0x7E,
            },
            FsCall::Create("new".into(), 1024),
            FsCall::QueryExpect(1024),
            FsCall::WriteFill {
                block: 0,
                count: 512,
                fill: 0x11,
            },
            FsCall::ReadExpect {
                block: 0,
                count: 512,
                expect: 0x11,
            },
        ]);
        assert!(rep.done, "{rep:?}");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.integrity_errors, 0);
    }

    #[test]
    fn open_missing_file_reports_error() {
        let rep = run_script(vec![FsCall::Open("missing".into())]);
        assert!(rep.done);
        assert_eq!(rep.errors, 1);
        assert_eq!(rep.completed, 0);
    }
}
