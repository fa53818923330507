//! The cluster: hosts + network + event loop.
//!
//! A [`Cluster`] owns every simulated workstation, the shared Ethernet and
//! the event queue, and drives the whole system to quiescence. It is the
//! top-level object experiments construct; see the crate examples and the
//! `v-bench` experiments for usage.

use v_net::{Delivery, EtherType, Ethernet, Frame, MacAddr, Nic, Transport};
use v_sim::{EventQueue, SimDuration, SimTime};

use crate::aliens::AlienTable;
use crate::config::ClusterConfig;
use crate::costs::CostModel;
use crate::cpu::Cpu;
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::{Event, HostId, TimerKind};
use crate::host::Host;
use crate::hostmap::HostMap;
use crate::ipc::dispatch::decode_interkernel;
use crate::message::Message;
use crate::naming::{NameTable, Scope};
use crate::pcb::{Pcb, ProcState};
use crate::pid::{LogicalHost, Pid};
use crate::program::{Outcome, Program};
use crate::raw::RawHandler;
use crate::stats::KernelStats;

/// A blocking kernel call collected from a program resume.
#[derive(Debug)]
pub(crate) enum Pending {
    Send {
        msg: Message,
        to: Pid,
    },
    Receive,
    ReceiveSeg {
        buf: u32,
        size: u32,
    },
    MoveTo {
        dst: Pid,
        dest: u32,
        src: u32,
        count: u32,
    },
    MoveFrom {
        src_pid: Pid,
        dest: u32,
        src: u32,
        count: u32,
    },
    GetPid {
        logical_id: u32,
        scope: Scope,
    },
    Delay(SimDuration),
    Compute(SimDuration),
}

/// The simulated distributed system.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: Box<dyn Transport>,
    pub(crate) hosts: Vec<Host>,
    pub(crate) housekeeping_armed: Vec<bool>,
    /// Logical events dispatched: one per resume/frame/timer/chunk. A
    /// batched frame event counts once per receiver it names, so the
    /// number is comparable across delivery-batching changes.
    events_dispatched: u64,
    /// Reusable buffer for transport deliveries: every transmit drains
    /// into it and schedules from it, so the hot path never allocates a
    /// per-transmit vector.
    delivery_scratch: Vec<Delivery>,
}

impl Cluster {
    /// Builds a cluster from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration places a host on a segment the
    /// topology does not have (see [`ClusterConfig::validate`]).
    pub fn new(cfg: ClusterConfig) -> Cluster {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster configuration: {e}");
        }
        let mut net: Box<dyn Transport> = match &cfg.topology {
            None => Box::new(Ethernet::for_kind(cfg.network, cfg.seed)),
            Some(topology) => topology.build(cfg.seed),
        };
        // Only install an explicit plan: the default empty plan must not
        // clobber error rates a topology carries in its own parameters
        // (a WAN link's configured loss).
        if !cfg.faults.is_none() {
            net.set_faults(cfg.faults);
        }
        net.set_collision_bug(cfg.collision_bug);

        let mut hosts = Vec::with_capacity(cfg.hosts.len());
        for (i, hc) in cfg.hosts.iter().enumerate() {
            let mac = HostId(i).station_mac();
            net.attach(mac, hc.segment);
            let logical = hc
                .logical_host
                .unwrap_or_else(|| LogicalHost::from_station(mac.0));
            hosts.push(Host {
                id: HostId(i),
                logical,
                cpu: Cpu::new(hc.cpu),
                costs: CostModel::for_speed(hc.cpu),
                nic: Nic::new(mac),
                procs: Default::default(),
                next_uid: 1,
                aliens: AlienTable::new(cfg.protocol.alien_pool),
                names: NameTable::new(),
                hostmap: HostMap::new(cfg.addressing),
                out_moves: Default::default(),
                in_moves: Default::default(),
                in_fetches: Default::default(),
                out_serves: Default::default(),
                raw: Default::default(),
                stats: KernelStats::default(),
                up: true,
                suspects: Default::default(),
            });
        }
        let n = hosts.len();
        Cluster {
            cfg,
            queue: EventQueue::new(),
            net,
            hosts,
            housekeeping_armed: vec![false; n],
            events_dispatched: 0,
            delivery_scratch: Vec::new(),
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// A host's logical host identifier.
    pub fn logical_host(&self, host: HostId) -> LogicalHost {
        self.hosts[host.0].logical
    }

    /// A host's accumulated kernel statistics.
    pub fn kernel_stats(&self, host: HostId) -> KernelStats {
        self.hosts[host.0].stats
    }

    /// A host's total charged processor time.
    pub fn cpu_busy(&self, host: HostId) -> SimDuration {
        self.hosts[host.0].cpu.busy_total()
    }

    /// A host's processor utilization over the elapsed simulation time.
    pub fn cpu_utilization(&self, host: HostId) -> f64 {
        self.hosts[host.0].cpu.utilization(self.now())
    }

    /// Medium statistics (summed across segments on multi-segment
    /// topologies).
    pub fn medium_stats(&self) -> v_net::MediumStats {
        self.net.stats()
    }

    /// Per-gateway statistics, one entry per gateway in placement order
    /// ([`v_net::Topology::Mesh`] / [`v_net::Topology::Internetwork`]).
    /// Empty when the topology has no store-and-forward element.
    pub fn gateway_stats(&self) -> Vec<v_net::GatewayStats> {
        self.net.per_gateway_stats()
    }

    /// Gateway statistics summed across all gateways, when the topology
    /// has any.
    pub fn gateway_stats_total(&self) -> Option<v_net::GatewayStats> {
        self.net.gateway_stats()
    }

    /// Looks at a process's address space (testing / verification aid).
    pub fn read_process_memory(
        &self,
        host: HostId,
        pid: Pid,
        addr: u32,
        len: usize,
    ) -> Result<Vec<u8>, KernelError> {
        let pcb = self.hosts[host.0]
            .proc(pid)
            .ok_or(KernelError::NonexistentProcess)?;
        pcb.space.read(addr, len).map(|s| s.to_vec())
    }

    /// Writes a process's address space directly (testing aid; bypasses
    /// cost accounting, as test-fixture setup should).
    pub fn write_process_memory(
        &mut self,
        host: HostId,
        pid: Pid,
        addr: u32,
        data: &[u8],
    ) -> Result<(), KernelError> {
        let pcb = self.hosts[host.0]
            .proc_mut(pid)
            .ok_or(KernelError::NonexistentProcess)?;
        pcb.space.write(addr, data)
    }

    /// True if the process still exists.
    pub fn process_exists(&self, host: HostId, pid: Pid) -> bool {
        self.hosts[host.0].proc(pid).is_some()
    }

    /// Injects a frame as if it had just finished arriving at `host`'s
    /// interface (testing aid: exercises the receive/dispatch path with
    /// hand-built bytes that the in-simulation senders would never emit).
    pub fn inject_frame(&mut self, host: HostId, frame: v_net::Frame) {
        let at = self.now();
        self.queue.schedule(at, Event::Frame { host, frame });
    }

    /// Registers a raw protocol handler on a host (see [`RawHandler`]).
    pub fn register_raw_handler(
        &mut self,
        host: HostId,
        ethertype: EtherType,
        handler: Box<dyn RawHandler>,
    ) {
        self.hosts[host.0].register_raw(ethertype, handler);
    }

    /// A host's station address.
    pub fn mac(&self, host: HostId) -> MacAddr {
        self.hosts[host.0].nic.mac()
    }

    /// Schedules a timer callback into a registered raw handler after
    /// `delay` — the way a measurement harness kicks a raw protocol into
    /// motion (raw handlers otherwise only run on frame arrival).
    pub fn poke_raw_handler(
        &mut self,
        host: HostId,
        ethertype: EtherType,
        token: u64,
        delay: SimDuration,
    ) {
        let at = self.now() + delay;
        self.queue.schedule(
            at,
            Event::Timer {
                host,
                kind: crate::event::TimerKind::Raw {
                    ethertype: ethertype.0,
                    token,
                },
            },
        );
    }

    /// True while `host` is up (not crashed).
    pub fn host_is_up(&self, host: HostId) -> bool {
        self.hosts[host.0].up
    }

    /// Crashes a host: every process, alien descriptor, in-flight
    /// transfer, name registration and learned address on it is lost,
    /// and the interface stops hearing frames. Peer kernels notice only
    /// through the protocol: their retransmission budgets run out and
    /// their `Send`s fail with [`KernelError::HostDown`]. A no-op if the
    /// host is already down.
    pub fn crash_host(&mut self, host: HostId) {
        let addressing = self.cfg.addressing;
        let pool = self.cfg.protocol.alien_pool;
        let h = &mut self.hosts[host.0];
        if !h.up {
            return;
        }
        h.up = false;
        h.stats.crashes += 1;
        h.stats.processes_exited += h.procs.len() as u64;
        h.procs.clear();
        h.aliens = AlienTable::new(pool);
        h.names = NameTable::new();
        h.hostmap = HostMap::new(addressing);
        h.suspects.clear();
        h.out_moves.clear();
        h.in_moves.clear();
        h.in_fetches.clear();
        h.out_serves.clear();
        h.raw.clear();
        // Timers and events still queued against this host become no-ops
        // at dispatch; `stats` survive as the simulation's accounting.
    }

    /// Restarts a crashed host with an empty kernel: no processes, no
    /// registrations — scenarios respawn services explicitly. The local
    /// uid counter is *not* rewound, so stale pids from before the crash
    /// never collide with new processes (senders holding them get a
    /// clean Nack → [`KernelError::NonexistentProcess`]).
    ///
    /// # Panics
    ///
    /// Panics if the host is up.
    pub fn restart_host(&mut self, host: HostId) {
        let h = &mut self.hosts[host.0];
        assert!(!h.up, "restart_host({host:?}): host is not crashed");
        h.up = true;
        h.stats.restarts += 1;
    }

    /// Replaces the transport's fault plan at the current instant —
    /// the runtime counterpart of [`ClusterConfig::faults`], used by
    /// chaos schedules to open and heal lossy periods or partitions.
    pub fn set_faults(&mut self, plan: v_net::FaultPlan) {
        self.net.set_faults(plan);
    }

    /// Takes gateway `idx` of a mesh topology out of service: its queue
    /// is lost and routes are recomputed without it (possibly leaving
    /// segments unreachable — a partition). Returns false if the
    /// topology has no such gateway or it is already down.
    pub fn fail_gateway(&mut self, idx: usize) -> bool {
        self.net.fail_gateway(idx)
    }

    /// Brings gateway `idx` back into service and recomputes routes.
    /// Returns false if the topology has no such gateway or it is up.
    pub fn restore_gateway(&mut self, idx: usize) -> bool {
        self.net.restore_gateway(idx)
    }

    /// Spawns a process on `host` with the default address-space size.
    pub fn spawn(&mut self, host: HostId, name: &str, program: Box<dyn Program>) -> Pid {
        self.spawn_with_space(
            host,
            name,
            program,
            crate::addrspace::AddressSpace::DEFAULT_SIZE,
        )
    }

    /// Spawns a process with an explicit address-space size.
    pub fn spawn_with_space(
        &mut self,
        host: HostId,
        name: &str,
        program: Box<dyn Program>,
        space: usize,
    ) -> Pid {
        let now = self.now();
        let h = &mut self.hosts[host.0];
        assert!(h.up, "cannot spawn {name:?} on crashed host {host:?}");
        let uid = h.alloc_uid();
        let pid = Pid::new(h.logical, uid);
        let pcb = Pcb::new(pid, program, space, name.to_string());
        h.procs.insert(uid, pcb);
        h.stats.processes_spawned += 1;
        let span = h.cpu.charge(now, h.costs.spawn);
        self.queue.schedule(
            span.end,
            Event::Resume {
                host,
                pid,
                outcome: Outcome::Started,
            },
        );
        pid
    }

    /// Runs until the event queue is exhausted (the system is quiescent:
    /// every process blocked with nothing in flight).
    pub fn run(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            self.dispatch(t, ev);
        }
    }

    /// Runs until simulated time `deadline` (events at exactly `deadline`
    /// included) or quiescence, whichever is first.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.dispatch(t, ev);
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Engine counters of the underlying event queue (scheduled, popped,
    /// pending) — the observable events-processed surface.
    pub fn sim_stats(&self) -> v_sim::SimStats {
        self.queue.stats()
    }

    /// Logical events dispatched so far (a batched frame event counts
    /// once per receiver it names).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    fn dispatch(&mut self, t: SimTime, ev: Event) {
        match ev {
            Event::Frame { host, frame } => self.dispatch_frame(t, host, frame),
            Event::FrameBatch { frame, hosts } => self.dispatch_batch(t, frame, hosts),
            ev => {
                self.events_dispatched += 1;
                // A crashed host is deaf and inert: stale timers/resumes
                // are no-ops (their state was torn down with the
                // kernel). Housekeeping is the one timer still allowed
                // through — it finds empty tables and disarms itself, so
                // the armed flag cannot wedge across a crash/restart
                // cycle.
                let target = match &ev {
                    Event::Resume { host, .. } | Event::ChunkReady { host, .. } => Some(*host),
                    Event::Timer { host, kind } if !matches!(kind, TimerKind::Housekeeping) => {
                        Some(*host)
                    }
                    _ => None,
                };
                if let Some(h) = target {
                    if !self.hosts[h.0].up {
                        return;
                    }
                }
                match ev {
                    Event::Resume { host, pid, outcome } => {
                        self.handle_resume(t, host, pid, outcome)
                    }
                    Event::Timer { host, kind } => self.handle_timer(t, host, kind),
                    Event::ChunkReady { host, key } => self.ctx(host).handle_chunk_ready(t, key),
                    Event::Frame { .. } | Event::FrameBatch { .. } => unreachable!("handled above"),
                }
            }
        }
    }

    /// Dispatches one frame arrival: counts it as a logical event,
    /// applies the crashed-host check, and hands it to the receiving
    /// kernel.
    fn dispatch_frame(&mut self, t: SimTime, host: HostId, frame: Frame) {
        if self.hears(host) {
            self.ctx(host).handle_frame(t, frame);
        }
    }

    /// Dispatches one frame heard by several hosts. An interkernel
    /// payload is decoded once; each receiver then runs the per-host half
    /// of reception on its own clone of the packet. A raw-protocol frame
    /// goes to each receiver's handler in turn. Either way every receiver
    /// sees its own station as the frame's destination.
    fn dispatch_batch(&mut self, t: SimTime, mut frame: Frame, hosts: Vec<HostId>) {
        let decoded = (frame.ethertype == EtherType::INTERKERNEL)
            .then(|| decode_interkernel(self.cfg.protocol.encapsulation, &frame));
        for host in hosts {
            frame.dst = host.station_mac();
            match &decoded {
                Some(decoded) => {
                    if self.hears(host) {
                        self.ctx(host)
                            .receive_interkernel(t, &frame, decoded.clone());
                    }
                }
                None => self.dispatch_frame(t, host, frame.clone()),
            }
        }
    }

    /// Counts one frame arrival as a logical event and applies the
    /// crashed-host check: false if `host` is down, which drops it.
    fn hears(&mut self, host: HostId) -> bool {
        self.events_dispatched += 1;
        let h = &mut self.hosts[host.0];
        if !h.up {
            h.stats.frames_dropped_down += 1;
        }
        h.up
    }

    /// Builds the split-borrow context for one host.
    pub(crate) fn ctx(&mut self, host: HostId) -> Ctx<'_> {
        Ctx {
            host: &mut self.hosts[host.0],
            net: self.net.as_mut(),
            queue: &mut self.queue,
            proto: &self.cfg.protocol,
            host_id: host,
            housekeeping_armed: &mut self.housekeeping_armed[host.0],
            scratch: &mut self.delivery_scratch,
        }
    }

    fn handle_timer(&mut self, t: SimTime, host: HostId, kind: TimerKind) {
        match kind {
            TimerKind::Retransmit { pid, seq } => self.ctx(host).retransmit_timer(t, pid, seq),
            TimerKind::TransferStall { pid, seq, marker } => {
                self.ctx(host).transfer_stall_timer(t, pid, seq, marker)
            }
            TimerKind::GetPid { pid, logical_id } => {
                self.ctx(host).getpid_timer(t, pid, logical_id)
            }
            TimerKind::Housekeeping => self.ctx(host).housekeeping(t),
            TimerKind::Raw { ethertype, token } => self.raw_timer(t, host, ethertype, token),
        }
    }

    fn raw_timer(&mut self, t: SimTime, host: HostId, ethertype: u16, token: u64) {
        let Some(mut handler) = self.hosts[host.0].raw.remove(&ethertype) else {
            return;
        };
        {
            let mut ctx = self.ctx(host);
            let mut raw = crate::ipc::dispatch::RawCtxImpl::new(&mut ctx, t, EtherType(ethertype));
            handler.on_timer(&mut raw, token);
        }
        self.hosts[host.0].raw.insert(ethertype, handler);
    }

    fn handle_resume(&mut self, t: SimTime, host: HostId, pid: Pid, outcome: Outcome) {
        let Some(pcb) = self.hosts[host.0].proc_mut(pid) else {
            return; // process exited while the resume was in flight
        };
        let Some(mut program) = pcb.program.take() else {
            return; // re-entrant resume; cannot happen with correct state
        };
        pcb.state = ProcState::Ready;

        let mut api = Api {
            cl: self,
            host,
            pid,
            now: t,
            pending: None,
            exited: false,
        };
        program.resume(&mut api, outcome);
        let pending = api.pending.take();
        let exited = api.exited;
        let after = api.now;

        if exited {
            drop(program);
            self.exit_process(after, host, pid);
            return;
        }
        match self.hosts[host.0].proc_mut(pid) {
            Some(pcb) => pcb.program = Some(program),
            None => return, // exited as a side effect (cannot currently happen)
        }
        match pending {
            None => self.exit_process(after, host, pid),
            Some(p) => self.ctx(host).execute_blocking(after, pid, p),
        }
    }

    /// Terminates a process and cleans up everything referring to it.
    pub(crate) fn exit_process(&mut self, t: SimTime, host: HostId, pid: Pid) {
        let h = &mut self.hosts[host.0];
        if h.procs.remove(&pid.local()).is_none() {
            return;
        }
        h.stats.processes_exited += 1;
        h.names.purge_pid(pid);
        h.out_moves.remove(&pid.local());
        h.in_fetches.remove(&pid.local());
        h.in_moves.retain(|_, m| m.dest_pid != pid);
        h.out_serves.retain(|_, s| s.grantor != pid);

        // Fail local senders blocked on the departed process.
        let mut to_fail = Vec::new();
        for pcb in h.procs.values() {
            if let ProcState::AwaitingReplyLocal { to } = &pcb.state {
                if *to == pid {
                    to_fail.push(pcb.pid);
                }
            }
        }
        for sender in to_fail {
            let pcb = self.hosts[host.0].proc_mut(sender).expect("scanned above");
            pcb.state = ProcState::Ready;
            self.queue.schedule(
                t,
                Event::Resume {
                    host,
                    pid: sender,
                    outcome: Outcome::Send(Err(KernelError::NonexistentProcess)),
                },
            );
        }

        // Nack remote senders whose exchanges can no longer complete.
        // Replied aliens stay: their cached replies must keep answering
        // retransmissions of exchanges that *did* complete.
        let aliens = self.hosts[host.0].aliens.addressed_to_unreplied(pid);
        for src in aliens {
            let alien = self.hosts[host.0].aliens.remove(src).expect("listed");
            let mut ctx = self.ctx(host);
            ctx.send_nack(t, alien.src, alien.seq, pid);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts.len())
            .field("now", &self.now())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

/// The kernel interface handed to a [`Program`] during a resume.
///
/// Non-blocking operations (`reply`, `set_pid`, memory access, `spawn`,
/// `get_time`) execute immediately, charging processor time. Blocking
/// operations (`send`, `receive`, `move_to`, ...) may be issued **at most
/// once per resume**; the kernel runs them after the resume returns and
/// delivers the result via the next [`Outcome`].
pub struct Api<'a> {
    cl: &'a mut Cluster,
    host: HostId,
    pid: Pid,
    /// Time cursor: end of the charges incurred so far in this resume.
    now: SimTime,
    pending: Option<Pending>,
    exited: bool,
}

impl<'a> Api<'a> {
    fn set_pending(&mut self, p: Pending) {
        assert!(
            self.pending.is_none(),
            "process {} issued a second blocking kernel call in one resume",
            self.pid
        );
        self.pending = Some(p);
    }

    /// The calling process's pid.
    pub fn self_pid(&self) -> Pid {
        self.pid
    }

    /// The logical host this process runs on.
    pub fn local_host(&self) -> LogicalHost {
        self.cl.hosts[self.host.0].logical
    }

    /// Exact simulation time — a measurement-harness convenience with no
    /// 1983 counterpart and no processor charge. Programs that should
    /// measure the way the paper did use [`Api::get_time`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// `GetTime`: the kernel's software-maintained time, accurate to the
    /// paper's ±10 ms clock granularity. Charges the minimal kernel-call
    /// overhead.
    pub fn get_time(&mut self) -> SimTime {
        let h = &mut self.cl.hosts[self.host.0];
        let span = h.cpu.charge(self.now, h.costs.syscall_min);
        self.now = span.end;
        SimTime::from_millis(span.end.as_nanos() / 10_000_000 * 10)
    }

    /// `Send(message, pid)`: blocks until the receiver replies.
    pub fn send(&mut self, msg: Message, to: Pid) {
        self.set_pending(Pending::Send { msg, to });
    }

    /// `Receive(message)`: blocks until a message arrives.
    pub fn receive(&mut self) {
        self.set_pending(Pending::Receive);
    }

    /// `ReceiveWithSegment`: like `receive`, but also accepts up to
    /// `size` bytes of the sender's read-granted segment into the buffer
    /// at `buf` in this process's space.
    pub fn receive_with_segment(&mut self, buf: u32, size: u32) {
        self.set_pending(Pending::ReceiveSeg { buf, size });
    }

    /// `MoveTo`: copies `count` bytes from `src` in this process's space
    /// to `dest` in `dst`'s space. `dst` must be awaiting reply from this
    /// process and must have granted write access covering the range.
    pub fn move_to(&mut self, dst: Pid, dest: u32, src: u32, count: u32) {
        self.set_pending(Pending::MoveTo {
            dst,
            dest,
            src,
            count,
        });
    }

    /// `MoveFrom`: copies `count` bytes from `src` in `src_pid`'s space to
    /// `dest` in this process's space. `src_pid` must be awaiting reply
    /// from this process and must have granted read access.
    pub fn move_from(&mut self, src_pid: Pid, dest: u32, src: u32, count: u32) {
        self.set_pending(Pending::MoveFrom {
            src_pid,
            dest,
            src,
            count,
        });
    }

    /// `GetPid(logicalid, scope)`: resolves a logical id, broadcasting to
    /// other kernels when the scope requires it.
    pub fn get_pid(&mut self, logical_id: u32, scope: Scope) {
        self.set_pending(Pending::GetPid { logical_id, scope });
    }

    /// Sleeps without consuming processor time (I/O waits, disk latency).
    pub fn delay(&mut self, d: SimDuration) {
        self.set_pending(Pending::Delay(d));
    }

    /// Consumes `d` of processor time (application computation).
    pub fn compute(&mut self, d: SimDuration) {
        self.set_pending(Pending::Compute(d));
    }

    /// Terminates this process.
    pub fn exit(&mut self) {
        self.exited = true;
    }

    /// `Reply(message, pid)`: sends the reply to a process awaiting reply
    /// from this one. Non-blocking.
    pub fn reply(&mut self, msg: Message, to: Pid) -> Result<(), KernelError> {
        let me = self.pid;
        let t = self.now;
        let mut ctx = self.cl.ctx(self.host);
        let end = ctx.do_reply(t, me, msg, to, None)?;
        self.now = end;
        Ok(())
    }

    /// `ReplyWithSegment`: reply plus a short segment written to
    /// `dest_ptr` in the replied-to process's space (which must have
    /// granted write access there). `src_addr`/`len` name the data in
    /// *this* process's space. Non-blocking.
    pub fn reply_with_segment(
        &mut self,
        msg: Message,
        to: Pid,
        dest_ptr: u32,
        src_addr: u32,
        len: u32,
    ) -> Result<(), KernelError> {
        let me = self.pid;
        let t = self.now;
        let mut ctx = self.cl.ctx(self.host);
        let end = ctx.do_reply(t, me, msg, to, Some((dest_ptr, src_addr, len)))?;
        self.now = end;
        Ok(())
    }

    /// `Forward(message, from, to)`: hands a message received from
    /// `from` to another server process `to`, as though `from` had sent
    /// it there directly — `to` becomes the process the client awaits a
    /// reply from, and its `Reply`/`MoveTo`/`MoveFrom` reach the client
    /// unchanged, locally and across hosts. The forwarder must have
    /// received (and not yet replied to) the exchange. Non-blocking:
    /// the receptionist of a server team forwards and immediately
    /// receives the next request.
    pub fn forward(&mut self, msg: Message, from: Pid, to: Pid) -> Result<(), KernelError> {
        let me = self.pid;
        let t = self.now;
        let mut ctx = self.cl.ctx(self.host);
        let end = ctx.do_forward(t, me, msg, from, to)?;
        self.now = end;
        Ok(())
    }

    /// `SetPid(logicalid, pid, scope)`: registers a logical id.
    pub fn set_pid(&mut self, logical_id: u32, pid: Pid, scope: Scope) {
        let h = &mut self.cl.hosts[self.host.0];
        let span = h.cpu.charge(self.now, h.costs.name_op);
        self.now = span.end;
        h.names.set(logical_id, pid, scope);
    }

    /// Reads this process's own memory (no kernel charge: programs touch
    /// their own space directly).
    pub fn mem_read(&self, addr: u32, len: usize) -> Result<Vec<u8>, KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc(self.pid)
            .expect("own process exists");
        pcb.space.read(addr, len).map(|s| s.to_vec())
    }

    /// Writes this process's own memory.
    pub fn mem_write(&mut self, addr: u32, data: &[u8]) -> Result<(), KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc_mut(self.pid)
            .expect("own process exists");
        pcb.space.write(addr, data)
    }

    /// Fills a range of this process's memory.
    pub fn mem_fill(&mut self, addr: u32, len: usize, value: u8) -> Result<(), KernelError> {
        let pcb = self.cl.hosts[self.host.0]
            .proc_mut(self.pid)
            .expect("own process exists");
        pcb.space.fill(addr, len, value)
    }

    /// Size of this process's address space.
    pub fn mem_size(&self) -> usize {
        self.cl.hosts[self.host.0]
            .proc(self.pid)
            .expect("own process exists")
            .space
            .size()
    }

    /// Creates a process on this host (the kernel's process-creation
    /// service; used by the exec server of §7).
    pub fn spawn(&mut self, name: &str, program: Box<dyn Program>) -> Pid {
        // Charge creation cost at the cursor, then spawn through the
        // cluster so accounting stays in one place.
        let h = &mut self.cl.hosts[self.host.0];
        let span = h.cpu.charge(self.now, h.costs.spawn);
        self.now = span.end;
        let host = self.host;
        let uid = self.cl.hosts[host.0].alloc_uid();
        let logical = self.cl.hosts[host.0].logical;
        let pid = Pid::new(logical, uid);
        let pcb = Pcb::new(
            pid,
            program,
            crate::addrspace::AddressSpace::DEFAULT_SIZE,
            name.to_string(),
        );
        self.cl.hosts[host.0].procs.insert(uid, pcb);
        self.cl.hosts[host.0].stats.processes_spawned += 1;
        self.cl.queue.schedule(
            self.now,
            Event::Resume {
                host,
                pid,
                outcome: Outcome::Started,
            },
        );
        pid
    }
}
