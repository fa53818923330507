//! The dispatch boundary: syscalls in, frames in.
//!
//! Inbound frames are decoded exactly once — raw payload bytes become a
//! typed [`v_wire::PacketBody`] in [`decode_interkernel`], and every
//! protocol handler beyond this point consumes a body struct. Once means
//! once per *frame*, not per receiver: a broadcast heard by a thousand
//! hosts is decoded a single time, and each receiver runs only the
//! per-host half ([`Ctx::receive_interkernel`]) on its own clone of the
//! packet. Undecodable frames are counted (corruption vs. unknown kind)
//! by every host that heard them and dropped; the protocols above never
//! see them. Frames with a foreign ethertype fan out to the registered
//! raw-protocol handlers.

use v_net::{EtherType, Frame};
use v_sim::{SimDuration, SimTime};

use crate::cluster::Pending;
use crate::config::Encapsulation;
use crate::ctx::Ctx;
use crate::event::TimerKind;
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use v_wire::{decode, Packet, PacketBody, WireError};

impl Ctx<'_> {
    // ------------------------------------------------------------------
    // Blocking syscall execution
    // ------------------------------------------------------------------

    /// Executes the blocking call a program issued during its resume.
    pub(crate) fn execute_blocking(&mut self, t: SimTime, pid: Pid, pending: Pending) {
        match pending {
            Pending::Send { msg, to } => self.do_send(t, pid, msg, to),
            Pending::Receive => self.do_receive(t, pid, None),
            Pending::ReceiveSeg { buf, size } => self.do_receive(t, pid, Some((buf, size))),
            Pending::MoveTo {
                dst,
                dest,
                src,
                count,
            } => self.do_move_to(t, pid, dst, dest, src, count),
            Pending::MoveFrom {
                src_pid,
                dest,
                src,
                count,
            } => self.do_move_from(t, pid, src_pid, dest, src, count),
            Pending::GetPid { logical_id, scope } => self.do_get_pid(t, pid, logical_id, scope),
            Pending::Delay(d) => {
                let pcb = self.host.proc_mut(pid).expect("caller verified");
                pcb.state = ProcState::Waiting;
                self.resume_at(t + d, pid, Outcome::Delay);
            }
            Pending::Compute(d) => {
                let pcb = self.host.proc_mut(pid).expect("caller verified");
                pcb.state = ProcState::Waiting;
                let end = self.charge(t, d);
                self.resume_at(end, pid, Outcome::Compute);
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet reception
    // ------------------------------------------------------------------

    /// A frame finished arriving at this host's interface.
    pub(crate) fn handle_frame(&mut self, t: SimTime, frame: Frame) {
        if frame.ethertype != EtherType::INTERKERNEL {
            self.host.nic.note_rx(frame.payload.len());
            self.dispatch_raw(t, frame);
            return;
        }
        let decoded = decode_interkernel(self.proto.encapsulation, &frame);
        self.receive_interkernel(t, &frame, decoded);
    }

    /// The per-host half of receiving an interkernel frame, given the
    /// frame's decode result: counts the arrival, charges the receive
    /// path, drops what failed to decode, learns the sender's station,
    /// and dispatches the packet.
    pub(crate) fn receive_interkernel(
        &mut self,
        t: SimTime,
        frame: &Frame,
        decoded: Result<Packet, WireError>,
    ) {
        self.host.nic.note_rx(frame.payload.len());
        let encap = self.proto.encapsulation;
        let cost = self.host.costs.rx_dispatch
            + self.host.costs.frame_rx_cost(frame.payload.len())
            + encap.extra_rx_cost();
        let end = self.charge(t, cost);
        let pkt = match decoded {
            Ok(p) => p,
            Err(WireError::UnknownKind(_)) => {
                // The checksum held, so the frame arrived intact — the
                // sender just speaks a newer (or broken) protocol rev.
                self.host.stats.unknown_kind_drops += 1;
                self.host.nic.note_rx_bad();
                return;
            }
            Err(_) => {
                self.host.stats.checksum_drops += 1;
                self.host.nic.note_rx_bad();
                return;
            }
        };
        // Learn logical-host → station correspondences from traffic
        // (10 Mb addressing mode), and treat any frame from a condemned
        // peer as evidence of life.
        if let Some(src) = Pid::from_raw(pkt.src_pid) {
            self.host.hostmap.learn(src.host(), frame.src);
            if self.host.suspects.remove(&src.host()) {
                self.host.stats.peer_reprieves += 1;
            }
        }
        self.dispatch_packet(end, pkt);
    }

    /// Routes a decoded packet to its protocol handler. Bodies are
    /// already typed; this only resolves the pid words and fans out.
    fn dispatch_packet(&mut self, t: SimTime, pkt: Packet) {
        let seq = pkt.seq;
        let src = Pid::from_raw(pkt.src_pid);
        let dst = Pid::from_raw(pkt.dst_pid);
        match pkt.body {
            PacketBody::Send(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_send_pkt(t, src, dst, seq, body);
            }
            PacketBody::Reply(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_reply_pkt(t, src, dst, seq, body);
            }
            PacketBody::ReplyPending => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_reply_pending(t, src, dst, seq);
            }
            PacketBody::Nack => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_nack(t, src, dst, seq);
            }
            PacketBody::MoveToData(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_moveto_data(t, src, dst, seq, body);
            }
            PacketBody::MoveFromReq(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_movefrom_req(t, src, dst, seq, body);
            }
            PacketBody::MoveFromData(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_movefrom_data(t, src, dst, seq, body);
            }
            PacketBody::TransferAck(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_transfer_ack(t, src, dst, seq, body);
            }
            PacketBody::GetPidReq(body) => {
                let Some(src) = src else { return };
                self.handle_getpid_req(t, src, body);
            }
            PacketBody::GetPidReply(body) => {
                let Some(dst) = dst else { return };
                self.handle_getpid_reply(t, dst, body);
            }
            PacketBody::Forward(body) => {
                let (Some(src), Some(dst)) = (src, dst) else {
                    return;
                };
                self.handle_forward_pkt(t, src, dst, seq, body);
            }
        }
    }

    // ------------------------------------------------------------------
    // Raw protocol handlers
    // ------------------------------------------------------------------

    fn dispatch_raw(&mut self, t: SimTime, frame: Frame) {
        let cost = self.host.costs.frame_rx_cost(frame.payload.len());
        let end = self.charge(t, cost);
        let ety = frame.ethertype.0;
        let Some(mut handler) = self.host.raw.remove(&ety) else {
            return; // no handler registered; frame dropped
        };
        {
            let mut raw = RawCtxImpl::new(self, end, EtherType(ety));
            handler.on_frame(&mut raw, &frame);
        }
        self.host.raw.insert(ety, handler);
    }
}

/// Decodes the packet an interkernel frame carries past its
/// encapsulation header — the part of reception that depends only on the
/// frame, done once however many hosts heard it. A frame too short to
/// hold the encapsulation header counts as corrupted.
pub(crate) fn decode_interkernel(encap: Encapsulation, frame: &Frame) -> Result<Packet, WireError> {
    frame
        .payload_after(encap.extra_bytes())
        .map_or(Err(WireError::TooShort), decode)
}

/// [`crate::raw::RawCtx`] implementation over a kernel context.
pub(crate) struct RawCtxImpl<'c, 'a> {
    ctx: &'c mut Ctx<'a>,
    now: SimTime,
    ethertype: EtherType,
}

impl<'c, 'a> RawCtxImpl<'c, 'a> {
    pub(crate) fn new(ctx: &'c mut Ctx<'a>, now: SimTime, ethertype: EtherType) -> Self {
        RawCtxImpl {
            ctx,
            now,
            ethertype,
        }
    }
}

impl crate::raw::RawCtx for RawCtxImpl<'_, '_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn mac(&self) -> v_net::MacAddr {
        self.ctx.host.nic.mac()
    }

    fn send_frame(&mut self, dst: v_net::MacAddr, payload: std::rc::Rc<[u8]>) {
        self.now = self.ctx.emit_raw(self.now, dst, self.ethertype, payload);
    }

    fn charge(&mut self, cost: SimDuration) {
        self.now = self.ctx.host.cpu.charge(self.now, cost).end;
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let kind = TimerKind::Raw {
            ethertype: self.ethertype.0,
            token,
        };
        let at = self.now + delay;
        self.ctx.timer_at(at, kind);
    }
}
