//! The network-penalty measurement (Table 4-1).
//!
//! "The network penalty is obtained by measuring the time to transmit n
//! bytes from the main memory of one workstation to the main memory of
//! another and vice versa and dividing the total time for the experiment
//! by 2. ... The transfers are implemented at the data link layer and at
//! the interrupt level so that no protocol or process switching overhead
//! appears in the results."
//!
//! Implemented as a pair of raw handlers below the IPC layer: the
//! initiator sends an n-byte datagram, the reflector bounces it, `n`
//! round trips are timed and halved.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::raw::{RawCtx, RawHandler};
use v_net::{EtherType, Frame, MacAddr};
use v_sim::{SimDuration, SimTime};

/// Shared measurement state.
#[derive(Debug, Default)]
pub struct PenaltyState {
    /// Round trips completed.
    pub done: u64,
    /// Round trips requested.
    pub target: u64,
    /// First transmission instant.
    pub started: Option<SimTime>,
    /// Last reception instant.
    pub finished: Option<SimTime>,
    /// Payload mismatches observed.
    pub integrity_errors: u64,
}

impl PenaltyState {
    /// One-way network penalty per the paper's definition (total / 2n).
    pub fn penalty_ms(&self) -> f64 {
        if self.done == 0 {
            return 0.0;
        }
        let s = self.started.expect("started");
        let f = self.finished.expect("finished");
        f.since(s).as_millis_f64() / (2.0 * self.done as f64)
    }
}

/// Initiating side of the ping-pong.
pub struct PenaltyInitiator {
    /// Peer station.
    pub peer: MacAddr,
    /// Datagram size in bytes.
    pub size: usize,
    /// Shared state.
    pub state: Rc<RefCell<PenaltyState>>,
}

impl PenaltyInitiator {
    fn payload(&self, round: u64) -> Vec<u8> {
        let mut p = vec![(round & 0xFF) as u8; self.size];
        if !p.is_empty() {
            p[0] = 0xA5;
        }
        p
    }
}

impl RawHandler for PenaltyInitiator {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        let mut st = self.state.borrow_mut();
        if frame.payload.len() != self.size {
            st.integrity_errors += 1;
        }
        st.done += 1;
        st.finished = Some(ctx.now());
        let done = st.done;
        let target = st.target;
        drop(st);
        if done < target {
            ctx.send_frame(self.peer, self.payload(done).into());
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, _token: u64) {
        // Kick-off: record the start and launch the first datagram.
        self.state.borrow_mut().started = Some(ctx.now());
        ctx.send_frame(self.peer, self.payload(0).into());
    }
}

/// Reflecting side: bounce every datagram straight back.
pub struct PenaltyReflector;

impl RawHandler for PenaltyReflector {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        let back = frame.src;
        ctx.send_frame(back, frame.payload.clone());
    }

    fn on_timer(&mut self, _ctx: &mut dyn RawCtx, _token: u64) {}
}

/// Runs the Table 4-1 experiment for one datagram size on `cluster`
/// hosts 0 and 1; returns the measured one-way penalty in ms.
pub fn measure_penalty(
    cluster: &mut v_kernel::Cluster,
    size: usize,
    rounds: u64,
) -> (f64, Rc<RefCell<PenaltyState>>) {
    use v_kernel::HostId;
    let state = Rc::new(RefCell::new(PenaltyState {
        target: rounds,
        ..PenaltyState::default()
    }));
    let peer = cluster.mac(HostId(1));
    cluster.register_raw_handler(
        HostId(0),
        EtherType::RAW_BENCH,
        Box::new(PenaltyInitiator {
            peer,
            size,
            state: state.clone(),
        }),
    );
    cluster.register_raw_handler(HostId(1), EtherType::RAW_BENCH, Box::new(PenaltyReflector));
    cluster.poke_raw_handler(HostId(0), EtherType::RAW_BENCH, 0, SimDuration::ZERO);
    cluster.run();
    let ms = state.borrow().penalty_ms();
    (ms, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Cluster, ClusterConfig, CostModel, CpuSpeed};
    use v_net::NetParams;

    #[test]
    fn measured_penalty_matches_analytic_model() {
        for (cpu, n) in [
            (CpuSpeed::Mc68000At8MHz, 64usize),
            (CpuSpeed::Mc68000At8MHz, 1024),
            (CpuSpeed::Mc68000At10MHz, 512),
        ] {
            let cfg = ClusterConfig::three_mb().with_hosts(2, cpu);
            let kind = cfg.network;
            let mut cl = Cluster::new(cfg);
            let (ms, st) = measure_penalty(&mut cl, n, 200);
            assert_eq!(st.borrow().integrity_errors, 0);
            let model = CostModel::for_speed(cpu)
                .network_penalty(&NetParams::for_kind(kind), n)
                .as_millis_f64();
            let err = (ms - model).abs() / model;
            assert!(err < 0.02, "n={n}: measured {ms:.3} vs model {model:.3}");
        }
    }

    #[test]
    fn penalty_8mhz_matches_paper_values() {
        // Table 4-1, 8 MHz column.
        for (n, paper) in [
            (64usize, 0.80),
            (128, 1.20),
            (256, 2.00),
            (512, 3.65),
            (1024, 6.95),
        ] {
            let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
            let mut cl = Cluster::new(cfg);
            let (ms, _) = measure_penalty(&mut cl, n, 200);
            let err = (ms - paper).abs() / paper;
            assert!(err < 0.10, "n={n}: measured {ms:.3} vs paper {paper}");
        }
    }
}
