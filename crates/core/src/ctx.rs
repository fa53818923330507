//! The shared-state core of the kernel protocol engine.
//!
//! [`Ctx`] is a split borrow of one host plus the shared medium, event
//! queue and protocol configuration. The protocol logic itself lives in
//! the [`crate::ipc`] module tree — one file per protocol concern — as
//! `impl Ctx` blocks; this file keeps only the state plumbing every
//! concern shares: processor charging, event scheduling and frame
//! emission.
//!
//! Timing discipline: a handler runs at its trigger's pop time, charges
//! processor costs as it goes, and schedules every externally visible
//! effect (process resume, frame transmission) at the end of the charges
//! that produce it.

use std::rc::Rc;

use v_net::{Delivery, EtherType, Frame, Transport};
use v_sim::{EventQueue, SimDuration, SimTime};

use crate::config::ProtocolConfig;
use crate::event::{Event, HostId, TimerKind};
use crate::host::Host;
use crate::pid::{LogicalHost, Pid};
use crate::program::Outcome;
use v_wire::{encode, Packet, PacketBody};

/// Result of handing a frame to the interface.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Emitted {
    /// When the sending processor finished the copy-in (it is free after
    /// this).
    pub cpu_done: SimTime,
    /// When the frame left the interface (next copy-in may start).
    pub tx_end: SimTime,
}

/// Split-borrow context for one host's kernel.
pub(crate) struct Ctx<'a> {
    pub host: &'a mut Host,
    pub net: &'a mut dyn Transport,
    pub queue: &'a mut EventQueue<Event>,
    pub proto: &'a ProtocolConfig,
    pub host_id: HostId,
    pub housekeeping_armed: &'a mut bool,
    /// Cluster-owned delivery buffer every transmit drains into and
    /// schedules from (always left empty between uses).
    pub scratch: &'a mut Vec<Delivery>,
}

impl Ctx<'_> {
    /// Charges processor time starting no earlier than `t`; returns the
    /// completion instant.
    pub(crate) fn charge(&mut self, t: SimTime, cost: SimDuration) -> SimTime {
        self.host.cpu.charge(t, cost).end
    }

    /// Cost of handing `n` bytes of message data between two co-located
    /// processes' spaces — the same-host loopback leg every local
    /// `Send`/`Reply` segment and local `MoveTo`/`MoveFrom` pays instead
    /// of the wire. Classic (Thoth-style) delivery charges the fixed
    /// bookkeeping plus a memory-to-memory copy; with
    /// [`ProtocolConfig::local_fastpath`] on, the kernel remaps the
    /// pages carrying the typed data into the peer's space for one fixed
    /// [`crate::CostModel::local_hop`], and the counters record the copy
    /// the exchange skipped. Never reached for remote peers, so the
    /// toggle cannot perturb the wire path.
    pub(crate) fn local_data_cost(&mut self, fixed: SimDuration, n: usize) -> SimDuration {
        if self.proto.local_fastpath {
            self.host.stats.local_fastpath_sends += 1;
            self.host.stats.local_fastpath_bytes_saved += n as u64;
            self.host.costs.local_hop
        } else {
            fixed + self.host.costs.copy_mem(n)
        }
    }

    /// Schedules a process resume on this host.
    pub(crate) fn resume_at(&mut self, at: SimTime, pid: Pid, outcome: Outcome) {
        self.queue.schedule(
            at,
            Event::Resume {
                host: self.host_id,
                pid,
                outcome,
            },
        );
    }

    /// Schedules a kernel timer on this host.
    pub(crate) fn timer_at(&mut self, at: SimTime, kind: TimerKind) {
        self.queue.schedule(
            at,
            Event::Timer {
                host: self.host_id,
                kind,
            },
        );
    }

    /// Arms the housekeeping sweep if it is not already pending.
    pub(crate) fn arm_housekeeping(&mut self, t: SimTime) {
        if !*self.housekeeping_armed {
            *self.housekeeping_armed = true;
            let at = t + self.proto.housekeeping;
            self.timer_at(at, TimerKind::Housekeeping);
        }
    }

    /// Encodes and transmits a packet to a logical host (or broadcast if
    /// the station is unknown in learned addressing mode).
    pub(crate) fn emit_packet(
        &mut self,
        t: SimTime,
        pkt: &Packet,
        to_host: LogicalHost,
    ) -> Emitted {
        self.emit_bytes(t, encode(pkt).into(), to_host)
    }

    /// Transmits pre-encoded packet bytes. Retransmission caches hand
    /// back the buffer an earlier frame carried, so re-sending it copies
    /// nothing.
    pub(crate) fn emit_bytes(
        &mut self,
        t: SimTime,
        bytes: Rc<[u8]>,
        to_host: LogicalHost,
    ) -> Emitted {
        let dst = match self.host.hostmap.resolve(to_host) {
            Some(mac) => mac,
            None => {
                self.host.hostmap.note_broadcast_fallback();
                v_net::MacAddr::BROADCAST
            }
        };
        self.emit_to_mac(t, bytes, dst)
    }

    /// Broadcasts a packet (naming queries).
    pub(crate) fn emit_broadcast(&mut self, t: SimTime, pkt: &Packet) -> Emitted {
        self.emit_to_mac(t, encode(pkt).into(), v_net::MacAddr::BROADCAST)
    }

    fn emit_to_mac(&mut self, t: SimTime, bytes: Rc<[u8]>, dst: v_net::MacAddr) -> Emitted {
        let encap = self.proto.encapsulation;
        let payload = if encap.extra_bytes() > 0 {
            let mut v = vec![0u8; encap.extra_bytes()];
            v.extend_from_slice(&bytes);
            v.into()
        } else {
            bytes
        };
        self.emit_frame(
            t,
            dst,
            EtherType::INTERKERNEL,
            payload,
            encap.extra_tx_cost(),
        )
    }

    /// Transmits a raw (non-interkernel) frame for a registered
    /// [`crate::raw::RawHandler`]; returns the instant the processor is
    /// free again.
    pub(crate) fn emit_raw(
        &mut self,
        t: SimTime,
        dst: v_net::MacAddr,
        ethertype: EtherType,
        payload: Rc<[u8]>,
    ) -> SimTime {
        self.emit_frame(t, dst, ethertype, payload, SimDuration::ZERO)
            .cpu_done
    }

    /// The one transmit path every frame takes: charges the copy-in and
    /// `extra_cost`, hands the frame to the transport, and schedules its
    /// deliveries (direct and gateway-forwarded alike) out of the
    /// cluster's reused scratch buffer. The payload buffer is shared by
    /// every clean delivery the transport produces, so no per-receiver
    /// byte copy happens anywhere on the way.
    fn emit_frame(
        &mut self,
        t: SimTime,
        dst: v_net::MacAddr,
        ethertype: EtherType,
        payload: Rc<[u8]>,
        extra_cost: SimDuration,
    ) -> Emitted {
        let wire_len = payload.len();
        // The copy into the single-buffered transmit interface cannot
        // begin until the previous frame has left it.
        let ready = self.host.nic.tx_ready_after(t);
        let cost = self.host.costs.frame_tx_cost(wire_len) + extra_cost;
        let span = self.host.cpu.charge(ready, cost);
        let frame = Frame::new(dst, self.host.nic.mac(), ethertype, payload);
        self.scratch.clear();
        let win = self.net.transmit(span.end, frame, self.scratch);
        self.host.nic.note_tx(win.tx_end, wire_len);
        self.schedule_scratch();
        // Forwarded deliveries a gateway produced ride the same buffer
        // (empty again after the schedule above).
        self.net.poll_deliveries(self.scratch);
        self.schedule_scratch();
        Emitted {
            cpu_done: span.end,
            tx_end: win.tx_end,
        }
    }

    /// Drains the delivery scratch into the event queue. Each run of
    /// same-instant deliveries of one frame — sharing one payload buffer
    /// ([`Rc::ptr_eq`]) — becomes a single [`Event::FrameBatch`] of the
    /// frame plus its receivers, so a broadcast's fan-out is one heap
    /// entry and one decode instead of one per receiver. A delivery
    /// corrupted in flight has bytes of its own and so becomes its own
    /// [`Event::Frame`], scheduled in its original position: scheduling
    /// order, and therefore FIFO tie-break order at dispatch, matches
    /// one event per delivery exactly.
    fn schedule_scratch(&mut self) {
        let mut drain = self.scratch.drain(..).peekable();
        while let Some(d) = drain.next() {
            let host = HostId::from_station_mac(d.dst);
            let same_frame =
                |n: &Delivery| n.at == d.at && Rc::ptr_eq(&n.frame.payload, &d.frame.payload);
            if drain.peek().is_some_and(same_frame) {
                let mut hosts = vec![host];
                while let Some(n) = drain.next_if(same_frame) {
                    hosts.push(HostId::from_station_mac(n.dst));
                }
                self.queue.schedule(
                    d.at,
                    Event::FrameBatch {
                        frame: d.frame,
                        hosts,
                    },
                );
            } else {
                self.queue.schedule(
                    d.at,
                    Event::Frame {
                        host,
                        frame: d.frame,
                    },
                );
            }
        }
    }

    /// Sends a negative acknowledgement for an exchange addressed to a
    /// nonexistent process.
    pub(crate) fn send_nack(&mut self, t: SimTime, to: Pid, seq: u32, dead: Pid) {
        let pkt = Packet {
            seq,
            src_pid: dead.raw(),
            dst_pid: to.raw(),
            body: PacketBody::Nack,
        };
        self.host.stats.nacks_sent += 1;
        self.emit_packet(t, &pkt, to.host());
    }
}
