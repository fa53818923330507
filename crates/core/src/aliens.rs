//! Alien process descriptors.
//!
//! When a Send packet arrives, the receiving kernel "creates an alien
//! process descriptor to represent the remote sending process ... and
//! saves the message in the message buffer field" (§3.2). Aliens never
//! execute — they are, as the paper notes, best thought of as message
//! buffers — but they are the receiver-side half of the reliability
//! machinery:
//!
//! * retransmitted Sends are recognized by (source pid, sequence number)
//!   and answered from the alien instead of being re-delivered;
//! * after the local process replies, the reply packet is cached in the
//!   alien "for a period of time" so a lost reply can be retransmitted;
//! * the pool is **bounded**: if no descriptor is free the new message is
//!   discarded and a reply-pending packet tells the sender to retry.

use std::rc::Rc;

use v_sim::SimTime;

use crate::message::Message;
use crate::pid::Pid;
use v_wire::SendBody;

/// Delivery state of an alien's message exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlienState {
    /// Message queued; the local receiver has not accepted it yet.
    Queued,
    /// The local receiver has received the message and will reply.
    Delivered,
    /// Replied: the encoded reply packet is cached for retransmission.
    Replied {
        /// Cached encoded reply packet — the very buffer the reply frame
        /// carried, shared rather than copied.
        packet: Rc<[u8]>,
        /// When the reply was generated (for retention expiry).
        at: SimTime,
    },
    /// Forwarded to a server on another host: the exchange now lives at
    /// the forwardee's kernel; this descriptor only answers duplicate
    /// Sends with the cached rebind notification until it expires.
    Forwarded {
        /// When the exchange was handed off (for retention expiry).
        at: SimTime,
    },
}

/// An alien descriptor.
#[derive(Debug, Clone)]
pub struct Alien {
    /// The remote sending process this alien stands in for.
    pub src: Pid,
    /// Sequence number of the exchange in progress.
    pub seq: u32,
    /// The local process the message is addressed to.
    pub dst: Pid,
    /// The 32-byte message.
    pub msg: Message,
    /// Appended segment bytes carried by the Send packet (the
    /// `ReceiveWithSegment` optimization), if any.
    pub appended: Vec<u8>,
    /// Address in the *sender's* space the appended bytes came from.
    pub appended_from: u32,
    /// Exchange state.
    pub state: AlienState,
    /// Encoded Forward rebind notification, cached once the exchange has
    /// been forwarded so a duplicate Send (the client missed the note)
    /// can be answered by re-sending it.
    pub forward_note: Option<Rc<[u8]>>,
}

/// Disposition of an arriving Send packet, as judged by the alien table.
#[derive(Debug)]
pub enum SendVerdict {
    /// Fresh message: an alien was created (or an older one for the same
    /// source replaced); deliver to the destination process.
    Deliver,
    /// Duplicate of an exchange whose reply is cached: retransmit it.
    RetransmitReply(Rc<[u8]>),
    /// Duplicate of an exchange still awaiting its reply — or the pool is
    /// exhausted: answer with a reply-pending packet.
    ReplyPending,
    /// Stale retransmission of an already-superseded exchange: drop.
    Drop,
}

/// The bounded alien pool of one kernel.
///
/// The pool is a flat vector scanned linearly: its capacity is a small
/// constant (the paper bounds the descriptor pool), so a scan beats a
/// hash, and insertion-ordered iteration makes exit-time nack emission
/// deterministic.
#[derive(Debug)]
pub struct AlienTable {
    pool: Vec<Alien>,
    capacity: usize,
}

impl AlienTable {
    /// Creates a pool with room for `capacity` aliens.
    pub fn new(capacity: usize) -> AlienTable {
        AlienTable {
            pool: Vec::new(),
            capacity,
        }
    }

    /// Number of live aliens.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if no aliens are live.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Looks up the alien for a remote sender.
    pub fn get(&self, src: Pid) -> Option<&Alien> {
        self.pool.iter().find(|a| a.src == src)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, src: Pid) -> Option<&mut Alien> {
        self.pool.iter_mut().find(|a| a.src == src)
    }

    /// Judges an arriving Send packet body and updates the table.
    ///
    /// `newer(a, b)` on sequence numbers is wrapping-aware: the sender
    /// increments per exchange, and because the sender is synchronous a
    /// numerically newer sequence implies the previous exchange completed,
    /// so its alien may be reused.
    pub fn admit(&mut self, src: Pid, seq: u32, dst: Pid, body: SendBody) -> SendVerdict {
        let slot = self.pool.iter().position(|a| a.src == src);
        if let Some(i) = slot {
            let alien = &self.pool[i];
            if alien.seq == seq {
                return match &alien.state {
                    AlienState::Replied { packet, .. } => {
                        SendVerdict::RetransmitReply(packet.clone())
                    }
                    _ => SendVerdict::ReplyPending,
                };
            }
            if !seq_newer(alien.seq, seq) {
                // Stale duplicate of a superseded exchange.
                return SendVerdict::Drop;
            }
            // Newer exchange from the same source: reuse the descriptor.
        } else if self.pool.len() >= self.capacity {
            // Pool exhausted: discard the message, tell the sender to
            // retry (it will find a descriptor once one frees up).
            return SendVerdict::ReplyPending;
        }
        let alien = Alien {
            src,
            seq,
            dst,
            msg: Message::from_bytes(body.msg),
            appended: body.appended,
            appended_from: body.appended_from,
            state: AlienState::Queued,
            forward_note: None,
        };
        match slot {
            Some(i) => self.pool[i] = alien,
            None => self.pool.push(alien),
        }
        SendVerdict::Deliver
    }

    /// Removes the alien for `src`.
    pub fn remove(&mut self, src: Pid) -> Option<Alien> {
        let i = self.pool.iter().position(|a| a.src == src)?;
        Some(self.pool.remove(i))
    }

    /// Drops replied and forwarded aliens older than `keep` at time
    /// `now`, freeing pool slots (the paper keeps replies "for a period
    /// of time"; a forwarded exchange's rebind note gets the same
    /// retention).
    pub fn sweep(&mut self, now: SimTime, keep: v_sim::SimDuration) -> usize {
        let before = self.pool.len();
        self.pool.retain(|a| match &a.state {
            AlienState::Replied { at, .. } | AlienState::Forwarded { at } => now.since(*at) < keep,
            _ => true,
        });
        before - self.pool.len()
    }

    /// Iterates over live aliens in admission order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Alien> {
        self.pool.iter()
    }

    /// Aliens addressed to a given local process (used at process exit),
    /// in admission order.
    pub fn addressed_to(&self, dst: Pid) -> Vec<Pid> {
        self.pool
            .iter()
            .filter(|a| a.dst == dst)
            .map(|a| a.src)
            .collect()
    }

    /// Aliens addressed to `dst` whose exchange will never be replied
    /// (still queued or delivered). `Replied` aliens are *not* listed:
    /// their cached reply must stay available to answer retransmissions
    /// even after the replier exits. `Forwarded` aliens are likewise
    /// excluded — their exchange completes at the forwardee's kernel.
    pub fn addressed_to_unreplied(&self, dst: Pid) -> Vec<Pid> {
        self.pool
            .iter()
            .filter(|a| {
                a.dst == dst
                    && !matches!(
                        a.state,
                        AlienState::Replied { .. } | AlienState::Forwarded { .. }
                    )
            })
            .map(|a| a.src)
            .collect()
    }
}

/// True if `b` is a (wrapping-aware) newer sequence number than `a`.
fn seq_newer(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) as i32 > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::LogicalHost;

    fn pid(h: u16, l: u16) -> Pid {
        Pid::new(LogicalHost(h), l)
    }

    fn table(cap: usize) -> AlienTable {
        AlienTable::new(cap)
    }

    fn body() -> SendBody {
        SendBody {
            msg: [0u8; 32],
            appended: vec![],
            appended_from: 0,
        }
    }

    #[test]
    fn fresh_message_is_delivered() {
        let mut t = table(4);
        let v = t.admit(pid(2, 1), 1, pid(1, 1), body());
        assert!(matches!(v, SendVerdict::Deliver));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(pid(2, 1)).unwrap().state, AlienState::Queued);
    }

    #[test]
    fn duplicate_before_reply_gets_reply_pending() {
        let mut t = table(4);
        t.admit(pid(2, 1), 1, pid(1, 1), body());
        let v = t.admit(pid(2, 1), 1, pid(1, 1), body());
        assert!(matches!(v, SendVerdict::ReplyPending));
    }

    #[test]
    fn duplicate_after_reply_retransmits_cached_reply() {
        let mut t = table(4);
        t.admit(pid(2, 1), 1, pid(1, 1), body());
        t.get_mut(pid(2, 1)).unwrap().state = AlienState::Replied {
            packet: Rc::from([1, 2, 3]),
            at: SimTime::ZERO,
        };
        let v = t.admit(pid(2, 1), 1, pid(1, 1), body());
        match v {
            SendVerdict::RetransmitReply(p) => assert_eq!(*p, [1, 2, 3]),
            other => panic!("expected retransmit, got {other:?}"),
        }
    }

    #[test]
    fn newer_seq_replaces_old_alien() {
        let mut t = table(4);
        t.admit(pid(2, 1), 1, pid(1, 1), body());
        t.get_mut(pid(2, 1)).unwrap().state = AlienState::Replied {
            packet: Rc::from([]),
            at: SimTime::ZERO,
        };
        let v = t.admit(pid(2, 1), 2, pid(1, 1), body());
        assert!(matches!(v, SendVerdict::Deliver));
        assert_eq!(t.get(pid(2, 1)).unwrap().seq, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn stale_seq_is_dropped() {
        let mut t = table(4);
        t.admit(pid(2, 1), 5, pid(1, 1), body());
        let v = t.admit(pid(2, 1), 4, pid(1, 1), body());
        assert!(matches!(v, SendVerdict::Drop));
    }

    #[test]
    fn pool_exhaustion_yields_reply_pending() {
        let mut t = table(2);
        t.admit(pid(2, 1), 1, pid(1, 1), body());
        t.admit(pid(2, 2), 1, pid(1, 1), body());
        let v = t.admit(pid(2, 3), 1, pid(1, 1), body());
        assert!(matches!(v, SendVerdict::ReplyPending));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn sweep_frees_old_replies_only() {
        let mut t = table(4);
        t.admit(pid(2, 1), 1, pid(1, 1), body());
        t.admit(pid(2, 2), 1, pid(1, 1), body());
        t.get_mut(pid(2, 1)).unwrap().state = AlienState::Replied {
            packet: Rc::from([]),
            at: SimTime::ZERO,
        };
        let freed = t.sweep(
            SimTime::from_millis(5000),
            v_sim::SimDuration::from_millis(1000),
        );
        assert_eq!(freed, 1);
        assert!(t.get(pid(2, 1)).is_none());
        assert!(t.get(pid(2, 2)).is_some());
    }

    #[test]
    fn seq_wrapping_comparison() {
        assert!(seq_newer(1, 2));
        assert!(!seq_newer(2, 1));
        assert!(seq_newer(u32::MAX, 0)); // wraps
        assert!(!seq_newer(0, u32::MAX));
    }

    #[test]
    fn addressed_to_finds_aliens() {
        let mut t = table(4);
        t.admit(pid(2, 1), 1, pid(1, 1), body());
        t.admit(pid(2, 2), 1, pid(1, 9), body());
        let v = t.addressed_to(pid(1, 1));
        assert_eq!(v, vec![pid(2, 1)]);
    }
}
