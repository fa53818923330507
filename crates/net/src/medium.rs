//! The shared Ethernet medium.

use v_sim::{SimDuration, SimTime, SplitMix64};

use crate::fault::{scrambled, Fate, FaultPlan, REDELIVERY_GAP};
use crate::frame::{Frame, MacAddr};

/// Which physical network flavour to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// The 2.94 Mb/s experimental Ethernet the paper's main tables use.
    Experimental3Mb,
    /// The 10 Mb/s standard Ethernet of §8.
    Standard10Mb,
}

/// Physical parameters of the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Physical bit rate, bits per second.
    pub bits_per_sec: u64,
    /// Fixed network + interface latency per frame (propagation, framing,
    /// receive-interrupt dispatch). The paper attributes ~0.3 ms of the
    /// 8 MHz network penalty to "network and interface latency"; most of
    /// that is interface handling charged by the CPU cost model, so the
    /// wire-level share here is small.
    pub latency: SimDuration,
    /// Largest payload a single frame may carry.
    pub max_payload: usize,
}

impl NetParams {
    /// Parameters for a network flavour.
    pub fn for_kind(kind: NetworkKind) -> NetParams {
        match kind {
            // 2.94 Mb/s; the paper measured single datagrams up to 1024
            // bytes (Table 4-1), so the experimental net's MTU comfortably
            // exceeds 1 KB of data plus a 32-byte interkernel header.
            NetworkKind::Experimental3Mb => NetParams {
                bits_per_sec: 2_940_000,
                latency: SimDuration::from_micros(30),
                max_payload: 1100,
            },
            // 10 Mb/s standard Ethernet, 1500-byte MTU.
            NetworkKind::Standard10Mb => NetParams {
                bits_per_sec: 10_000_000,
                latency: SimDuration::from_micros(25),
                max_payload: 1500,
            },
        }
    }

    /// Time for `bytes` to cross the wire at the physical bit rate.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        let nanos = (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bits_per_sec;
        SimDuration::from_nanos(nanos)
    }
}

/// The §5.4 hardware bug: the 3 Mb interface sometimes fails to detect a
/// collision, so instead of cleanly deferring, overlapping transmissions
/// go out anyway and "show up as corrupted packets" at the receivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionBug {
    /// Probability that a transmission which found the medium busy (and a
    /// contender queued) is corrupted rather than cleanly deferred.
    pub corrupt_prob: f64,
}

impl CollisionBug {
    /// Calibrated so two ping-pong pairs on the 3 Mb net lose roughly one
    /// packet in 2000, as the paper observed.
    pub const PAPER_3MB: CollisionBug = CollisionBug {
        corrupt_prob: 0.004,
    };
}

/// One frame arriving at one station.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Arrival instant at the destination interface (frame fully received
    /// into the interface's on-board buffer; the receiving CPU still has to
    /// copy it out, which the kernel charges separately).
    pub at: SimTime,
    /// The receiving station.
    pub dst: MacAddr,
    /// The frame (payload possibly corrupted).
    pub frame: Frame,
    /// True if fault injection or the collision bug corrupted the payload.
    /// Receivers must detect this via their protocol checksum; the flag
    /// exists only for medium statistics and test assertions.
    pub corrupted: bool,
}

/// Transmit window of one transmission; the deliveries it produces land
/// in a caller-owned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxWindow {
    /// When the transmission actually started (after any CSMA deferral).
    pub tx_start: SimTime,
    /// When the medium became free again; the sending interface is also
    /// busy until this instant (single-buffered transmitter).
    pub tx_end: SimTime,
}

/// Aggregate medium statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MediumStats {
    /// Frames handed to the medium.
    pub frames_sent: u64,
    /// Total payload bytes handed to the medium.
    pub bytes_sent: u64,
    /// Deliveries produced (broadcast counts each receiver).
    pub deliveries: u64,
    /// Deliveries dropped by fault injection.
    pub dropped: u64,
    /// Deliveries corrupted (fault injection or collision bug).
    pub corrupted: u64,
    /// Duplicate deliveries produced by fault injection.
    pub duplicated: u64,
    /// Deliveries held back past a later frame (point-to-point links
    /// only; a shared segment cannot reorder).
    pub reordered: u64,
    /// Transmissions that had to defer because the medium was busy.
    pub deferrals: u64,
    /// Frames corrupted by the collision-detection bug.
    pub bug_corruptions: u64,
    /// Accumulated medium busy time.
    pub busy: SimDuration,
}

impl MediumStats {
    /// Accumulates another counter set into this one (used to total
    /// multi-segment topologies).
    pub fn absorb(&mut self, o: &MediumStats) {
        // Exhaustive destructuring: adding a counter to the struct
        // without totalling it here is a compile error, not a silent
        // under-report in multi-segment topologies.
        let MediumStats {
            frames_sent,
            bytes_sent,
            deliveries,
            dropped,
            corrupted,
            duplicated,
            reordered,
            deferrals,
            bug_corruptions,
            busy,
        } = *o;
        self.frames_sent += frames_sent;
        self.bytes_sent += bytes_sent;
        self.deliveries += deliveries;
        self.dropped += dropped;
        self.corrupted += corrupted;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.deferrals += deferrals;
        self.bug_corruptions += bug_corruptions;
        self.busy += busy;
    }

    /// Fraction of `elapsed` the medium spent busy.
    ///
    /// Meaningful for a single medium's counters; on stats summed across
    /// segments ([`MediumStats::absorb`]) `busy` aggregates every
    /// segment, so this reports N × the per-segment average and can
    /// exceed 1.0.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }

    /// Offered load in bits per second over `elapsed`.
    pub fn offered_bits_per_sec(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            (self.bytes_sent * 8) as f64 / elapsed.as_secs_f64()
        }
    }
}

/// The shared broadcast medium connecting all stations.
///
/// A transmission occupies the medium for its wire time; a transmit request
/// arriving while the medium is busy defers until it is free (CSMA without
/// collisions — except in [`CollisionBug`] mode). Deliveries appear at
/// every addressed station one latency after transmission end.
#[derive(Debug)]
pub struct Ethernet {
    params: NetParams,
    /// Attached stations, kept sorted (broadcast fan-out iterates in
    /// address order, which fixes the per-receiver fault-RNG draw
    /// sequence and hence determinism).
    stations: Vec<MacAddr>,
    medium_free: SimTime,
    faults: FaultPlan,
    bug: Option<CollisionBug>,
    rng: SplitMix64,
    stats: MediumStats,
    /// Interval between a frame and its injected duplicate.
    redelivery_gap: SimDuration,
}

impl Ethernet {
    /// Creates a medium with the given physical parameters.
    pub fn new(params: NetParams, seed: u64) -> Self {
        Ethernet {
            params,
            stations: Vec::new(),
            medium_free: SimTime::ZERO,
            faults: FaultPlan::NONE,
            bug: None,
            rng: SplitMix64::new(seed),
            stats: MediumStats::default(),
            redelivery_gap: REDELIVERY_GAP,
        }
    }

    /// Creates a medium for a network flavour.
    pub fn for_kind(kind: NetworkKind, seed: u64) -> Self {
        Ethernet::new(NetParams::for_kind(kind), seed)
    }

    /// Physical parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Installs a fault plan.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Enables or disables the §5.4 collision-detection bug.
    pub fn set_collision_bug(&mut self, bug: Option<CollisionBug>) {
        self.bug = bug;
    }

    /// Registers a station so broadcasts reach it.
    pub fn register(&mut self, mac: MacAddr) {
        assert!(!mac.is_broadcast(), "cannot register the broadcast address");
        if let Err(pos) = self.stations.binary_search(&mac) {
            self.stations.insert(pos, mac);
        }
    }

    /// Medium statistics so far.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// Transmits `frame`, whose copy into the sending interface completed
    /// at `ready`, appending the resulting deliveries to `out`. Every
    /// clean delivery — each receiver of a broadcast, and an injected
    /// duplicate — carries the transmitted payload buffer itself (one
    /// reference-count bump, no byte copy); only a corrupted delivery
    /// gets bytes of its own. There is no per-transmit bookkeeping
    /// allocation either, which is what keeps a 2000-station boot-storm
    /// broadcast cheap.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the MTU — the kernel's transfer
    /// engines are responsible for fragmentation, and exceeding the MTU
    /// there is a protocol bug worth failing loudly on.
    pub fn transmit_into(
        &mut self,
        ready: SimTime,
        frame: Frame,
        out: &mut Vec<Delivery>,
    ) -> TxWindow {
        assert!(
            frame.payload.len() <= self.params.max_payload,
            "frame payload {} exceeds MTU {}",
            frame.payload.len(),
            self.params.max_payload
        );

        let deferred = self.medium_free > ready;
        if deferred {
            self.stats.deferrals += 1;
        }
        let tx_start = ready.max(self.medium_free);
        let wire = self.params.wire_time(frame.wire_bytes());
        let tx_end = tx_start + wire;
        self.medium_free = tx_end;

        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.wire_bytes() as u64;
        self.stats.busy += wire;

        // The §5.4 bug: a deferred transmission occasionally goes out
        // overlapped with the one in progress; the collision is undetected
        // and the frame arrives corrupted.
        let bug_corrupt = match (deferred, self.bug) {
            (true, Some(bug)) => self.rng.chance(bug.corrupt_prob),
            _ => false,
        };
        if bug_corrupt {
            self.stats.bug_corruptions += 1;
        }

        let arrival = tx_end + self.params.latency;
        if frame.dst.is_broadcast() {
            for i in 0..self.stations.len() {
                let dst = self.stations[i];
                if dst == frame.src {
                    continue;
                }
                self.deliver_fate(out, arrival, dst, frame.clone(), bug_corrupt);
            }
        } else {
            let dst = frame.dst;
            self.deliver_fate(out, arrival, dst, frame, bug_corrupt);
        }

        TxWindow { tx_start, tx_end }
    }

    /// Draws one receiver's fate and appends the resulting deliveries
    /// (zero, one or two) to `out`, consuming the frame.
    fn deliver_fate(
        &mut self,
        out: &mut Vec<Delivery>,
        arrival: SimTime,
        dst: MacAddr,
        frame: Frame,
        bug_corrupt: bool,
    ) {
        match self.faults.draw(&mut self.rng) {
            Fate::Drop => {
                self.stats.dropped += 1;
            }
            Fate::Deliver => {
                out.push(self.make_delivery(arrival, dst, frame, bug_corrupt));
            }
            Fate::DeliverCorrupted => {
                out.push(self.make_delivery(arrival, dst, frame, true));
            }
            Fate::DeliverTwice { corrupted } => {
                self.stats.duplicated += 1;
                let dup = frame.clone();
                out.push(self.make_delivery(arrival, dst, frame, corrupted || bug_corrupt));
                out.push(self.make_delivery(arrival + self.redelivery_gap, dst, dup, bug_corrupt));
            }
        }
    }

    fn make_delivery(
        &mut self,
        at: SimTime,
        dst: MacAddr,
        mut frame: Frame,
        corrupted: bool,
    ) -> Delivery {
        self.stats.deliveries += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use crate::transport::transmit_collect as tx;

    fn frame(dst: MacAddr, src: MacAddr, len: usize) -> Frame {
        Frame::new(dst, src, EtherType::RAW_BENCH, vec![0xAB; len])
    }

    fn net3() -> Ethernet {
        let mut e = Ethernet::for_kind(NetworkKind::Experimental3Mb, 42);
        e.register(MacAddr(1));
        e.register(MacAddr(2));
        e.register(MacAddr(3));
        e
    }

    #[test]
    fn wire_time_matches_bit_rate() {
        let p = NetParams::for_kind(NetworkKind::Experimental3Mb);
        // 1024 bytes at 2.94 Mb/s = 2.786 ms (the paper quotes 2.784 for
        // its rounded rate).
        let t = p.wire_time(1024).as_millis_f64();
        assert!((t - 2.786).abs() < 0.01, "t={t}");
        let p10 = NetParams::for_kind(NetworkKind::Standard10Mb);
        let t10 = p10.wire_time(1000).as_millis_f64();
        assert!((t10 - 0.8).abs() < 0.01, "t10={t10}");
    }

    #[test]
    fn unicast_delivers_to_destination_only() {
        let mut e = net3();
        let (w, ds) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].dst, MacAddr(2));
        assert!(!ds[0].corrupted);
        assert!(ds[0].at > w.tx_end);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut e = net3();
        let (_, ds) = tx(
            &mut e,
            SimTime::ZERO,
            frame(MacAddr::BROADCAST, MacAddr(1), 64),
        );
        let mut dsts: Vec<u16> = ds.iter().map(|d| d.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![2, 3]);
    }

    #[test]
    fn busy_medium_defers_second_transmission() {
        let mut e = net3();
        let (a, _) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
        let (b, _) = tx(
            &mut e,
            SimTime::from_micros(10),
            frame(MacAddr(1), MacAddr(3), 64),
        );
        assert_eq!(b.tx_start, a.tx_end, "second frame must defer");
        assert_eq!(e.stats().deferrals, 1);
    }

    #[test]
    fn idle_medium_transmits_immediately() {
        let mut e = net3();
        let (a, _) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        let later = a.tx_end + SimDuration::from_millis(1);
        let (b, _) = tx(&mut e, later, frame(MacAddr(1), MacAddr(2), 64));
        assert_eq!(b.tx_start, later);
        assert_eq!(e.stats().deferrals, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_frame_panics() {
        let mut e = net3();
        tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 5000));
    }

    #[test]
    fn loss_plan_drops_everything() {
        let mut e = net3();
        e.set_faults(FaultPlan::with_loss(1.0));
        let (_, ds) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(ds.is_empty());
        assert_eq!(e.stats().dropped, 1);
    }

    #[test]
    fn corruption_scrambles_payload() {
        let mut e = net3();
        e.set_faults(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        });
        let (_, ds) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(ds.len(), 1);
        assert!(ds[0].corrupted);
        assert_ne!(*ds[0].frame.payload, [0xAB; 64]);
    }

    #[test]
    fn duplication_produces_second_copy_later() {
        let mut e = net3();
        e.set_faults(FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::NONE
        });
        let (_, ds) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert_eq!(ds.len(), 2);
        assert!(ds[1].at > ds[0].at);
        assert_eq!(e.stats().duplicated, 1);
    }

    #[test]
    fn collision_bug_corrupts_some_deferred_frames() {
        let mut e = net3();
        e.set_collision_bug(Some(CollisionBug { corrupt_prob: 1.0 }));
        // First frame occupies the medium; second defers and must be
        // corrupted by the bug.
        tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
        let (_, ds) = tx(
            &mut e,
            SimTime::from_micros(5),
            frame(MacAddr(1), MacAddr(3), 64),
        );
        assert!(ds[0].corrupted);
        assert_eq!(e.stats().bug_corruptions, 1);
    }

    #[test]
    fn collision_bug_spares_idle_transmissions() {
        let mut e = net3();
        e.set_collision_bug(Some(CollisionBug { corrupt_prob: 1.0 }));
        let (_, ds) = tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 64));
        assert!(!ds[0].corrupted);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut e = net3();
        tx(&mut e, SimTime::ZERO, frame(MacAddr(2), MacAddr(1), 1024));
        let elapsed = SimDuration::from_millis(10);
        let u = e.stats().utilization(elapsed);
        assert!((u - 0.2786).abs() < 0.01, "u={u}");
    }
}
