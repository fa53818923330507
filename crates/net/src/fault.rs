//! Per-frame fault injection.
//!
//! Local networks of the paper's era were unreliable datagram services with
//! *low but nonzero* error rates; the V kernel builds reliable message
//! transmission directly on top (§3). These knobs let tests and experiments
//! dial in loss, duplication and corruption deterministically and verify
//! that the retransmission / duplicate-suppression machinery preserves
//! exactly-once message-exchange semantics.

use std::rc::Rc;

use v_sim::{SimDuration, SplitMix64};

/// Interval between a frame and its injected duplicate, shared by every
/// transport so duplicate timing is uniform across media.
pub(crate) const REDELIVERY_GAP: SimDuration = SimDuration::from_micros(200);

/// Returns a copy of `payload` with a handful of bytes corrupted so
/// protocol checksums fail — the one corruption model every transport
/// applies. The bytes are copied before any is touched: the clean
/// buffer stays shared by every other receiver of the frame.
pub(crate) fn scrambled(rng: &mut SplitMix64, payload: &[u8]) -> Rc<[u8]> {
    let mut copy: Rc<[u8]> = Rc::from(payload);
    let bytes = Rc::get_mut(&mut copy).expect("a fresh copy has no other owner");
    if !bytes.is_empty() {
        let hits = 1 + rng.below(4) as usize;
        for _ in 0..hits {
            let idx = rng.below(bytes.len() as u64) as usize;
            bytes[idx] ^= (1 + rng.below(255)) as u8;
        }
    }
    copy
}

/// Probabilistic fault plan applied to every delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a delivered frame is silently dropped.
    pub loss: f64,
    /// Probability a delivered frame is duplicated (the copy arrives one
    /// redelivery interval later).
    pub duplicate: f64,
    /// Probability a delivered frame has its payload corrupted (caught by
    /// the protocol checksum at the receiver).
    pub corrupt: f64,
}

impl FaultPlan {
    /// A perfectly reliable network.
    pub const NONE: FaultPlan = FaultPlan {
        loss: 0.0,
        duplicate: 0.0,
        corrupt: 0.0,
    };

    /// Convenience constructor for a loss-only plan.
    pub fn with_loss(loss: f64) -> Self {
        FaultPlan {
            loss,
            ..FaultPlan::NONE
        }
    }

    /// True if all fault probabilities are zero.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.duplicate == 0.0 && self.corrupt == 0.0
    }

    /// Draws the fate of one delivery.
    pub fn draw(&self, rng: &mut SplitMix64) -> Fate {
        if self.is_none() {
            return Fate::Deliver;
        }
        if rng.chance(self.loss) {
            return Fate::Drop;
        }
        let corrupted = rng.chance(self.corrupt);
        if rng.chance(self.duplicate) {
            Fate::DeliverTwice { corrupted }
        } else if corrupted {
            Fate::DeliverCorrupted
        } else {
            Fate::Deliver
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Outcome of a fault draw for one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the frame intact.
    Deliver,
    /// Drop the frame.
    Drop,
    /// Deliver with corrupted payload.
    DeliverCorrupted,
    /// Deliver, then deliver a duplicate shortly after.
    DeliverTwice {
        /// Whether the first copy is corrupted.
        corrupted: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_always_delivers() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(FaultPlan::NONE.draw(&mut rng), Fate::Deliver);
        }
    }

    #[test]
    fn full_loss_always_drops() {
        let plan = FaultPlan::with_loss(1.0);
        let mut rng = SplitMix64::new(2);
        for _ in 0..100 {
            assert_eq!(plan.draw(&mut rng), Fate::Drop);
        }
    }

    #[test]
    fn loss_rate_is_respected() {
        let plan = FaultPlan::with_loss(0.3);
        let mut rng = SplitMix64::new(3);
        let drops = (0..10_000)
            .filter(|_| plan.draw(&mut rng) == Fate::Drop)
            .count();
        assert!((2_700..3_300).contains(&drops), "drops={drops}");
    }

    #[test]
    fn corrupt_only_plan_marks_corruption() {
        let plan = FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        };
        let mut rng = SplitMix64::new(4);
        assert_eq!(plan.draw(&mut rng), Fate::DeliverCorrupted);
    }

    #[test]
    fn duplicate_plan_duplicates() {
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::NONE
        };
        let mut rng = SplitMix64::new(5);
        assert_eq!(plan.draw(&mut rng), Fate::DeliverTwice { corrupted: false });
    }
}
