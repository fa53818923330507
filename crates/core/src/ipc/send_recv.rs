//! The synchronous message exchange: `Send` / `Receive` / `Reply`.
//!
//! The sender side blocks on `Send` until the reply arrives (locally via
//! a direct hand-off, remotely via the retransmitted Send packet whose
//! reply doubles as the acknowledgement). The receiver side queues
//! senders — local processes and remote *aliens* alike — and the pump
//! delivers the head of the queue whenever the receiver is receptive.

use std::rc::Rc;

use v_sim::{SimDuration, SimTime};

use crate::aliens::{AlienState, SendVerdict};
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::TimerKind;
use crate::message::Message;
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use crate::segment::Access;
use v_wire::{encode, Packet, PacketBody, ReplyBody, SendBody};

impl Ctx<'_> {
    pub(crate) fn do_send(&mut self, t: SimTime, pid: Pid, msg: Message, to: Pid) {
        {
            let pcb = self.host.proc_mut(pid).expect("sender exists");
            pcb.out_msg = msg;
        }
        if to.is_local_to(self.host.logical) {
            self.host.stats.sends_local += 1;
            let send_cost = self.host.costs.send_local;
            let end = self.charge(t, send_cost);
            if self.host.proc(to).is_none() {
                self.resume_at(
                    end,
                    pid,
                    Outcome::Send(Err(KernelError::NonexistentProcess)),
                );
                return;
            }
            {
                let pcb = self.host.proc_mut(pid).expect("sender exists");
                pcb.state = ProcState::AwaitingReplyLocal { to };
            }
            let receiver = self.host.proc_mut(to).expect("checked above");
            receiver.senders.push_back(pid);
            if receiver.state.is_receiving() {
                self.pump(end, to, true);
            }
        } else {
            self.host.stats.sends_remote += 1;
            let cost = self.host.costs.send_remote + self.host.costs.timer_admin;
            let end = self.charge(t, cost);

            // Gather the appended segment prefix, if read access was
            // granted (§3.4's optimization: the first part of the segment
            // rides in the Send packet). The `appended_segments` ablation
            // reproduces the unmodified kernel, which sends the grant
            // unaccompanied.
            let grant = msg.segment();
            let (appended, appended_from) = match grant {
                Some(g) if self.proto.appended_segments && g.access.allows_read() && g.len > 0 => {
                    let n = (g.len as usize)
                        .min(self.proto.max_appended_segment)
                        .min(self.proto.max_data_per_packet);
                    let pcb = self.host.proc(pid).expect("sender exists");
                    match pcb.space.read(g.start, n) {
                        Ok(bytes) => (bytes.to_vec(), g.start),
                        Err(e) => {
                            self.fail_send(end, pid, e);
                            return;
                        }
                    }
                }
                _ => (Vec::new(), 0),
            };

            let seq = {
                let pcb = self.host.proc_mut(pid).expect("sender exists");
                pcb.next_seq()
            };
            let pkt = Packet {
                seq,
                src_pid: pid.raw(),
                dst_pid: to.raw(),
                body: PacketBody::Send(SendBody {
                    msg: *msg.as_bytes(),
                    appended,
                    appended_from,
                }),
            };
            let bytes: Rc<[u8]> = encode(&pkt).into();
            {
                // A condemned peer gets a short probe, not the full
                // ladder: bounded failover latency, but a restarted host
                // still gets a packet to answer (which clears suspicion).
                let max_retries = if self.host.suspects.contains(&to.host()) {
                    self.host.stats.sends_to_suspect += 1;
                    self.proto.suspect_retries
                } else {
                    self.proto.max_retries
                };
                let pcb = self.host.proc_mut(pid).expect("sender exists");
                pcb.state = ProcState::AwaitingReplyRemote {
                    to,
                    seq,
                    retries_left: max_retries,
                    packet: bytes.clone(),
                    grant,
                };
            }
            let emitted = self.emit_bytes(end, bytes, to.host());
            // Blocking the sender and dispatching other work happens off
            // the critical path, after the packet is on the wire.
            let block = self.host.costs.block_admin;
            self.charge(emitted.cpu_done, block);
            let timeout = self.proto.retransmit_timeout;
            self.timer_at(
                emitted.cpu_done + timeout,
                TimerKind::Retransmit { pid, seq },
            );
        }
    }

    pub(crate) fn fail_send(&mut self, t: SimTime, pid: Pid, err: KernelError) {
        if let Some(pcb) = self.host.proc_mut(pid) {
            pcb.state = ProcState::Ready;
        }
        self.resume_at(t, pid, Outcome::Send(Err(err)));
    }

    pub(crate) fn do_receive(&mut self, t: SimTime, pid: Pid, seg: Option<(u32, u32)>) {
        let recv_cost = self.host.costs.receive_local;
        let end = self.charge(t, recv_cost);
        {
            let pcb = self.host.proc_mut(pid).expect("receiver exists");
            pcb.state = match seg {
                None => ProcState::Receiving,
                Some((buf, size)) => ProcState::ReceivingSeg { buf, size },
            };
        }
        let has_queued = self
            .host
            .proc(pid)
            .map(|p| !p.senders.is_empty())
            .unwrap_or(false);
        if has_queued {
            self.pump(end, pid, false);
        }
    }

    /// Delivers the head of `receiver`'s sender queue to it.
    ///
    /// `dispatch` is true when this delivery *wakes* the receiver (send
    /// side), charging a context switch; false when the receiver found
    /// the message already queued during `Receive`.
    pub(crate) fn pump(&mut self, t: SimTime, receiver: Pid, dispatch: bool) {
        loop {
            let Some(pcb) = self.host.proc_mut(receiver) else {
                return;
            };
            if !pcb.state.is_receiving() {
                return;
            }
            let Some(sender) = pcb.senders.pop_front() else {
                return;
            };

            // Gather message + segment source, skipping stale queue
            // entries (dead senders, superseded aliens).
            enum SegData {
                None,
                Local { start: u32, len: u32 },
                Appended(Vec<u8>),
            }
            let (msg, seg) = if sender.is_local_to(self.host.logical) {
                match self.host.proc(sender) {
                    Some(sp) if matches!(sp.state, ProcState::AwaitingReplyLocal { to } if to == receiver) =>
                    {
                        let msg = sp.out_msg;
                        let seg = match msg.segment() {
                            Some(g) if g.access.allows_read() && g.len > 0 => SegData::Local {
                                start: g.start,
                                len: g.len,
                            },
                            _ => SegData::None,
                        };
                        (msg, seg)
                    }
                    _ => continue, // stale entry
                }
            } else {
                match self.host.aliens.get(sender) {
                    Some(a) if a.dst == receiver && a.state == AlienState::Queued => {
                        let seg = if a.appended.is_empty() {
                            SegData::None
                        } else {
                            SegData::Appended(a.appended.clone())
                        };
                        (a.msg, seg)
                    }
                    _ => continue, // stale entry
                }
            };

            // Deliver into the receiver, honouring ReceiveWithSegment.
            let (buf, size, wants_seg) = match &self.host.proc(receiver).expect("checked").state {
                ProcState::ReceivingSeg { buf, size } => (*buf, *size, true),
                _ => (0, 0, false),
            };

            let mut cost = SimDuration::ZERO;
            if dispatch {
                cost += self.host.costs.context_switch;
            }
            let mut seg_len: u32 = 0;
            let mut seg_bytes: Option<(u32, Vec<u8>)> = None;
            if wants_seg {
                match seg {
                    SegData::None => {}
                    SegData::Local { start, len } => {
                        let n = size.min(len);
                        if n > 0 {
                            let data = {
                                let sp = self.host.proc(sender).expect("checked");
                                sp.space.read(start, n as usize).ok().map(|d| d.to_vec())
                            };
                            if let Some(data) = data {
                                cost +=
                                    self.local_data_cost(self.host.costs.segment_fixed, n as usize);
                                seg_bytes = Some((buf, data));
                                seg_len = n;
                            }
                        }
                    }
                    SegData::Appended(data) => {
                        let n = (size as usize).min(data.len());
                        if n > 0 {
                            // Bytes came off the wire straight into their
                            // final location: only fixed handling cost.
                            cost += self.host.costs.segment_fixed;
                            seg_bytes = Some((buf, data[..n].to_vec()));
                            seg_len = n as u32;
                        }
                    }
                }
            }
            let end = self.charge(t, cost);

            if let Some((addr, data)) = seg_bytes {
                let pcb = self.host.proc_mut(receiver).expect("checked");
                if pcb.space.write(addr, &data).is_err() {
                    seg_len = 0; // receiver's own buffer was bogus
                }
            }

            // Mark the sender's exchange delivered.
            if sender.is_local_to(self.host.logical) {
                // Local sender stays AwaitingReplyLocal.
            } else if let Some(a) = self.host.aliens.get_mut(sender) {
                a.state = AlienState::Delivered;
            }

            let pcb = self.host.proc_mut(receiver).expect("checked");
            pcb.state = ProcState::Ready;
            let outcome = if wants_seg {
                Outcome::ReceiveSeg {
                    from: sender,
                    msg,
                    seg_len,
                }
            } else {
                Outcome::Receive { from: sender, msg }
            };
            self.resume_at(end, receiver, outcome);
            return;
        }
    }

    /// `Reply` / `ReplyWithSegment` (non-blocking). Returns the caller's
    /// new time cursor.
    pub(crate) fn do_reply(
        &mut self,
        t: SimTime,
        replier: Pid,
        msg: Message,
        to: Pid,
        seg: Option<(u32, u32, u32)>, // (dest_ptr, src_addr, len)
    ) -> Result<SimTime, KernelError> {
        if to.is_local_to(self.host.logical) {
            // Local reply.
            let awaiting = matches!(
                self.host.proc(to).map(|p| &p.state),
                Some(ProcState::AwaitingReplyLocal { to: t2 }) if *t2 == replier
            );
            if !awaiting {
                return Err(KernelError::NotAwaitingReply);
            }
            let mut cost = self.host.costs.reply_local + self.host.costs.context_switch;
            let mut write: Option<(u32, Vec<u8>)> = None;
            if let Some((dest_ptr, src_addr, len)) = seg {
                let target = self.host.proc(to).expect("checked");
                let grant = target
                    .out_msg
                    .segment()
                    .ok_or(KernelError::NoSegmentAccess)?;
                grant.check(dest_ptr, len, Access::Write)?;
                let rp = self.host.proc(replier).expect("replier exists");
                let data = rp.space.read(src_addr, len as usize)?.to_vec();
                cost += self.local_data_cost(self.host.costs.segment_fixed, len as usize);
                write = Some((dest_ptr, data));
            }
            let end = self.charge(t, cost);
            if let Some((addr, data)) = write {
                let target = self.host.proc_mut(to).expect("checked");
                target.space.write(addr, &data)?;
            }
            let target = self.host.proc_mut(to).expect("checked");
            target.state = ProcState::Ready;
            self.resume_at(end, to, Outcome::Send(Ok(msg)));
            Ok(end)
        } else {
            // Remote reply, through the alien.
            let (seq, grant) = match self.host.aliens.get(to) {
                Some(a) if a.dst == replier && a.state == AlienState::Delivered => {
                    (a.seq, a.msg.segment())
                }
                _ => return Err(KernelError::NotAwaitingReply),
            };
            let mut cost = self.host.costs.reply_remote;
            let (seg_dest, seg_data) = if let Some((dest_ptr, src_addr, len)) = seg {
                if len as usize > self.proto.max_data_per_packet {
                    return Err(KernelError::NoSegmentAccess);
                }
                let g = grant.ok_or(KernelError::NoSegmentAccess)?;
                g.check(dest_ptr, len, Access::Write)?;
                let rp = self.host.proc(replier).expect("replier exists");
                let data = rp.space.read(src_addr, len as usize)?.to_vec();
                cost += self.host.costs.segment_fixed;
                (dest_ptr, data)
            } else {
                (0, Vec::new())
            };
            let end = self.charge(t, cost);
            let pkt = Packet {
                seq,
                src_pid: replier.raw(),
                dst_pid: to.raw(),
                body: PacketBody::Reply(ReplyBody {
                    msg: *msg.as_bytes(),
                    seg_dest,
                    seg: seg_data,
                }),
            };
            let bytes: Rc<[u8]> = encode(&pkt).into();
            let emitted = self.emit_bytes(end, bytes.clone(), to.host());
            if self.proto.reply_caching {
                if let Some(a) = self.host.aliens.get_mut(to) {
                    a.state = AlienState::Replied {
                        packet: bytes,
                        at: emitted.cpu_done,
                    };
                }
                self.arm_housekeeping(emitted.cpu_done);
            } else {
                // "Alien keep = 0" ablation: the descriptor is freed the
                // moment the reply leaves; a retransmitted Send of this
                // exchange will be re-admitted and re-delivered instead
                // of being answered from the cache.
                self.host.aliens.remove(to);
            }
            let post = self.host.costs.alien_post;
            self.charge(emitted.cpu_done, post);
            Ok(emitted.cpu_done)
        }
    }

    // ------------------------------------------------------------------
    // Wire handlers
    // ------------------------------------------------------------------

    pub(crate) fn handle_send_pkt(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: SendBody,
    ) {
        if !dst.is_local_to(self.host.logical) {
            return; // stray broadcast-fallback delivery; not ours
        }
        // Duplicate filtering comes *before* the existence check: a
        // retransmission of an exchange that already completed must be
        // answered from the alien's cached reply even if the replier has
        // since exited (the sender's reply was lost, not the exchange).
        if let Some(alien) = self.host.aliens.get(src) {
            if alien.seq == seq {
                // A forwarded exchange's duplicate means the client may
                // have missed the rebind notification: repair it first.
                let note = alien.forward_note.clone();
                let forwarded = matches!(alien.state, AlienState::Forwarded { .. });
                if let Some(note) = note {
                    self.host.stats.forward_notes_resent += 1;
                    self.emit_bytes(t, note, src.host());
                }
                if forwarded {
                    // The exchange lives at the forwardee's kernel now;
                    // the re-sent note is the whole answer.
                    self.host.stats.duplicates_filtered += 1;
                    return;
                }
                match &self.host.aliens.get(src).expect("still present").state {
                    AlienState::Replied { packet, .. } => {
                        let packet = packet.clone();
                        self.host.stats.duplicates_filtered += 1;
                        self.host.stats.replies_retransmitted += 1;
                        self.emit_bytes(t, packet, src.host());
                    }
                    _ => {
                        self.host.stats.duplicates_filtered += 1;
                        self.host.stats.reply_pending_sent += 1;
                        let pkt = Packet {
                            seq,
                            src_pid: dst.raw(),
                            dst_pid: src.raw(),
                            body: PacketBody::ReplyPending,
                        };
                        self.emit_packet(t, &pkt, src.host());
                    }
                }
                return;
            }
        }
        if self.host.proc(dst).is_none() {
            self.send_nack(t, src, seq, dst);
            return;
        }
        // Is there an existing queued entry for this source? (Avoid
        // double-queueing when a superseding exchange replaces an alien
        // still sitting in the receiver's queue.)
        let already_queued = matches!(
            self.host.aliens.get(src),
            Some(a) if a.state == AlienState::Queued
        );
        match self.host.aliens.admit(src, seq, dst, body) {
            SendVerdict::Deliver => {
                self.host.stats.aliens_allocated += 1;
                let alloc = self.host.costs.alien_alloc + self.host.costs.unblock;
                let end = self.charge(t, alloc);
                self.arm_housekeeping(end);
                if !already_queued {
                    let pcb = self.host.proc_mut(dst).expect("checked");
                    pcb.senders.push_back(src);
                }
                let receiving = self
                    .host
                    .proc(dst)
                    .map(|p| p.state.is_receiving())
                    .unwrap_or(false);
                if receiving {
                    self.pump(end, dst, true);
                }
            }
            SendVerdict::RetransmitReply(packet) => {
                self.host.stats.duplicates_filtered += 1;
                self.host.stats.replies_retransmitted += 1;
                self.emit_bytes(t, packet, src.host());
            }
            SendVerdict::ReplyPending => {
                // Either a duplicate whose reply is still pending, or the
                // alien pool is exhausted.
                if matches!(self.host.aliens.get(src), Some(a) if a.seq == seq) {
                    self.host.stats.duplicates_filtered += 1;
                } else {
                    self.host.stats.aliens_exhausted += 1;
                }
                self.host.stats.reply_pending_sent += 1;
                let pkt = Packet {
                    seq,
                    src_pid: dst.raw(),
                    dst_pid: src.raw(),
                    body: PacketBody::ReplyPending,
                };
                self.emit_packet(t, &pkt, src.host());
            }
            SendVerdict::Drop => {
                self.host.stats.duplicates_filtered += 1;
            }
        }
    }

    /// Completes the sender's exchange from a wire `Reply` body — the
    /// `ReplyFields`-style struct the ROADMAP asked for, now simply the
    /// wire body itself.
    pub(crate) fn handle_reply_pkt(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: ReplyBody,
    ) {
        let grant = match self.host.proc(dst).map(|p| &p.state) {
            Some(ProcState::AwaitingReplyRemote {
                to, seq: s, grant, ..
            }) if *to == src && *s == seq => *grant,
            _ => return, // duplicate or stale reply
        };
        let msg = Message::from_bytes(body.msg);
        let mut cost =
            self.host.costs.reply_match + self.host.costs.unblock + self.host.costs.context_switch;
        let mut seg_err = None;
        if !body.seg.is_empty() {
            cost += self.host.costs.segment_fixed;
            let ok = grant
                .ok_or(KernelError::NoSegmentAccess)
                .and_then(|g| g.check(body.seg_dest, body.seg.len() as u32, Access::Write));
            match ok {
                Ok(()) => {
                    let pcb = self.host.proc_mut(dst).expect("checked");
                    if pcb.space.write(body.seg_dest, &body.seg).is_err() {
                        seg_err = Some(KernelError::BadAddress);
                    }
                }
                Err(e) => seg_err = Some(e),
            }
        }
        let end = self.charge(t, cost);
        let pcb = self.host.proc_mut(dst).expect("checked");
        pcb.state = ProcState::Ready;
        let outcome = match seg_err {
            None => Outcome::Send(Ok(msg)),
            Some(e) => Outcome::Send(Err(e)),
        };
        self.resume_at(end, dst, outcome);
    }

    pub(crate) fn handle_reply_pending(&mut self, _t: SimTime, src: Pid, dst: Pid, seq: u32) {
        let max = self.proto.max_retries;
        if let Some(ProcState::AwaitingReplyRemote {
            to,
            seq: s,
            retries_left,
            ..
        }) = self.host.proc_mut(dst).map(|p| &mut p.state)
        {
            if *to == src && *s == seq {
                *retries_left = max;
                self.host.stats.reply_pending_received += 1;
            }
        }
    }

    pub(crate) fn handle_nack(&mut self, t: SimTime, src: Pid, dst: Pid, seq: u32) {
        let matches = matches!(
            self.host.proc(dst).map(|p| &p.state),
            Some(ProcState::AwaitingReplyRemote { to, seq: s, .. }) if *to == src && *s == seq
        );
        if matches {
            self.host.stats.nacks_received += 1;
            self.fail_send(t, dst, KernelError::NonexistentProcess);
        }
    }
}
