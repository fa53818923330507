//! A point-to-point WAN link.
//!
//! The paper's evaluation never leaves one shared Ethernet segment; this
//! medium models the regime beyond it — a long-haul serial link with
//! real propagation delay and per-frame loss, duplication and
//! reordering. The link is full duplex (each direction serializes
//! independently at the configured bandwidth) and connects exactly two
//! stations, so there is no contention — only distance and errors.

use v_sim::{SimDuration, SimTime, SplitMix64};

use crate::fault::{scrambled, Fate, FaultPlan, REDELIVERY_GAP};
use crate::frame::{Frame, MacAddr};
use crate::medium::{Delivery, MediumStats, TxWindow};
use crate::transport::Transport;

/// Physical and error parameters of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Serialization rate, bits per second, per direction.
    pub bits_per_sec: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Probability a frame is lost in transit.
    pub loss: f64,
    /// Probability a frame is duplicated (the copy arrives one
    /// redelivery interval later).
    pub duplicate: f64,
    /// Probability a frame is held back one extra propagation time,
    /// landing behind a frame sent after it.
    pub reorder: f64,
    /// Largest payload a single frame may carry.
    pub max_payload: usize,
}

impl LinkParams {
    /// A clean T1-grade long-haul line: 1.544 Mb/s, 30 ms one way.
    pub const T1: LinkParams = LinkParams {
        bits_per_sec: 1_544_000,
        propagation: SimDuration::from_millis(30),
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        max_payload: 1100,
    };

    /// Returns these parameters with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkParams {
        self.loss = loss;
        self
    }

    /// Time for `bytes` to serialize onto the line.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        let nanos = (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bits_per_sec;
        SimDuration::from_nanos(nanos)
    }
}

/// A full-duplex link between two stations.
#[derive(Debug)]
pub struct PointToPointLink {
    params: LinkParams,
    endpoints: Vec<MacAddr>,
    /// Per-endpoint transmit-direction free instant.
    free: [SimTime; 2],
    faults: FaultPlan,
    rng: SplitMix64,
    stats: MediumStats,
    redelivery_gap: SimDuration,
}

impl PointToPointLink {
    /// Creates a link with the given parameters.
    pub fn new(params: LinkParams, seed: u64) -> PointToPointLink {
        PointToPointLink {
            params,
            endpoints: Vec::new(),
            free: [SimTime::ZERO; 2],
            faults: FaultPlan {
                loss: params.loss,
                duplicate: params.duplicate,
                corrupt: 0.0,
            },
            rng: SplitMix64::new(seed),
            stats: MediumStats::default(),
            redelivery_gap: REDELIVERY_GAP,
        }
    }

    /// The link's parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    fn deliver(&mut self, at: SimTime, dst: MacAddr, frame: &Frame, corrupted: bool) -> Delivery {
        self.stats.deliveries += 1;
        let mut frame = frame.clone();
        frame.dst = dst;
        if corrupted {
            self.stats.corrupted += 1;
            frame.payload = scrambled(&mut self.rng, &frame.payload);
        }
        Delivery {
            at,
            dst,
            frame,
            corrupted,
        }
    }

    /// Counts a reordering, but only for frames that actually arrive —
    /// a dropped frame produced no delivery to reorder.
    fn note_reordered(&mut self, reordered: bool) {
        if reordered {
            self.stats.reordered += 1;
        }
    }
}

impl Transport for PointToPointLink {
    fn attach(&mut self, mac: MacAddr, _segment: usize) {
        assert!(!mac.is_broadcast(), "cannot attach the broadcast address");
        if self.endpoints.contains(&mac) {
            return;
        }
        assert!(
            self.endpoints.len() < 2,
            "a point-to-point link connects exactly two stations"
        );
        self.endpoints.push(mac);
    }

    fn transmit(&mut self, ready: SimTime, frame: Frame, out: &mut Vec<Delivery>) -> TxWindow {
        assert!(
            frame.payload.len() <= self.params.max_payload,
            "frame payload {} exceeds link MTU {}",
            frame.payload.len(),
            self.params.max_payload
        );
        let idx = self
            .endpoints
            .iter()
            .position(|&m| m == frame.src)
            .expect("transmitting station is not attached to this link");

        // Serialize in this direction; the other direction is
        // independent (full duplex).
        let tx_start = ready.max(self.free[idx]);
        let wire = self.params.wire_time(frame.wire_bytes());
        let tx_end = tx_start + wire;
        self.free[idx] = tx_end;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.wire_bytes() as u64;
        self.stats.busy += wire;

        let peer = self.endpoints.iter().copied().find(|&m| m != frame.src);
        let deliverable = match peer {
            Some(p) => frame.dst.is_broadcast() || frame.dst == p,
            None => false,
        };
        if deliverable {
            let dst = peer.expect("checked");
            let mut arrival = tx_end + self.params.propagation;
            let reordered = self.rng.chance(self.params.reorder);
            if reordered {
                arrival += self.params.propagation;
            }
            match self.faults.draw(&mut self.rng) {
                // A dropped frame produced no delivery to reorder.
                Fate::Drop => self.stats.dropped += 1,
                Fate::Deliver => {
                    self.note_reordered(reordered);
                    out.push(self.deliver(arrival, dst, &frame, false));
                }
                Fate::DeliverCorrupted => {
                    self.note_reordered(reordered);
                    out.push(self.deliver(arrival, dst, &frame, true));
                }
                Fate::DeliverTwice { corrupted } => {
                    self.note_reordered(reordered);
                    self.stats.duplicated += 1;
                    out.push(self.deliver(arrival, dst, &frame, corrupted));
                    out.push(self.deliver(arrival + self.redelivery_gap, dst, &frame, false));
                }
            }
        }
        TxWindow { tx_start, tx_end }
    }

    fn poll_deliveries(&mut self, _out: &mut Vec<Delivery>) {}

    fn stats(&self) -> MediumStats {
        self.stats
    }

    fn max_payload(&self) -> usize {
        self.params.max_payload
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        // Replaces the plan wholesale, like every transport — including
        // the baseline derived from the link's loss/duplication
        // parameters (fold the line's rates into the plan if both are
        // wanted).
        self.faults = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use crate::transport::transmit_collect as tx;

    fn frame(dst: MacAddr, src: MacAddr, len: usize) -> Frame {
        Frame::new(dst, src, EtherType::RAW_BENCH, vec![0x5A; len])
    }

    fn link(params: LinkParams) -> PointToPointLink {
        let mut l = PointToPointLink::new(params, 11);
        l.attach(MacAddr(1), 0);
        l.attach(MacAddr(2), 0);
        l
    }

    #[test]
    fn delivery_pays_serialization_plus_propagation() {
        let mut l = link(LinkParams::T1);
        let (w, ds) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 193));
        // 193 bytes at 1.544 Mb/s = 1 ms on the wire, then 30 ms of
        // distance.
        assert_eq!(w.tx_end, SimTime::from_millis(1));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].at, SimTime::from_millis(31));
    }

    #[test]
    fn directions_serialize_independently() {
        let mut l = link(LinkParams::T1);
        let (a, _) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1000));
        // The reverse direction is free even while 1→2 is busy.
        let (b, _) = tx(&mut l, SimTime::ZERO, frame(MacAddr(1), MacAddr(2), 64));
        assert_eq!(b.tx_start, SimTime::ZERO);
        // A second frame in the same direction defers.
        let (c, _) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(c.tx_start, a.tx_end);
    }

    #[test]
    fn loss_drops_frames() {
        let mut l = link(LinkParams::T1.with_loss(1.0));
        let (_, ds) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(ds.is_empty());
        assert_eq!(l.stats().dropped, 1);
    }

    #[test]
    fn set_faults_replaces_the_baseline_plan_wholesale() {
        let mut l = link(LinkParams::T1.with_loss(1.0));
        // An explicit empty plan clears even the params-derived loss,
        // exactly as it does on every other transport.
        l.set_faults(FaultPlan::NONE);
        let (_, ds) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(ds.len(), 1);
        assert_eq!(l.stats().dropped, 0);
    }

    #[test]
    fn corruption_scrambles_payload_and_is_flagged() {
        let mut l = link(LinkParams::T1);
        l.set_faults(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        });
        let (_, ds) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(ds.len(), 1);
        assert!(ds[0].corrupted);
        assert_ne!(*ds[0].frame.payload, [0x5A; 64]);
        assert_eq!(l.stats().corrupted, 1);
    }

    #[test]
    fn duplication_produces_a_second_copy() {
        let mut p = LinkParams::T1;
        p.duplicate = 1.0;
        let mut l = link(p);
        let (_, ds) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(ds.len(), 2);
        assert!(ds[1].at > ds[0].at);
        assert_eq!(l.stats().duplicated, 1);
    }

    #[test]
    fn reordered_frame_lands_behind_its_successor() {
        let mut p = LinkParams::T1;
        p.reorder = 1.0;
        let mut l = link(p);
        let (_, a) = tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        p.reorder = 0.0;
        let mut clean = link(p);
        let (_, b) = tx(&mut clean, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(a[0].at, b[0].at + LinkParams::T1.propagation);
        assert_eq!(l.stats().reordered, 1);
    }

    #[test]
    #[should_panic(expected = "exactly two stations")]
    fn third_station_is_rejected() {
        let mut l = link(LinkParams::T1);
        l.attach(MacAddr(3), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds link MTU")]
    fn oversized_frame_panics() {
        let mut l = link(LinkParams::T1);
        tx(&mut l, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 5000));
    }
}
