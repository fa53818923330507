//! Raw protocol handlers.
//!
//! The paper's comparators — WFS-style page access, streaming file access
//! — are "specialized protocols integrated into the transport layer".
//! This hook lets such protocols live *below* the V IPC layer, directly
//! on the data-link level, while sharing the same processor cost physics:
//! a handler registered for an ethertype receives that ethertype's frames
//! (after the kernel charges interrupt-level receive costs) and may send
//! frames, set timers and charge additional processor time.
//!
//! The network-penalty measurement of Table 4-1 is also implemented as a
//! raw handler: interrupt-level ping-pong with no protocol above it.

use std::rc::Rc;

use v_net::{Frame, MacAddr};
use v_sim::{SimDuration, SimTime};

/// Context handed to raw handlers.
///
/// Operations charge the host CPU exactly like kernel code: `send_frame`
/// pays frame build + per-byte copy, arriving frames have already paid
/// dispatch + parse + per-byte copy before `on_frame` runs.
pub trait RawCtx {
    /// Current simulation time (end of the charges already incurred for
    /// this activation).
    fn now(&self) -> SimTime;

    /// This station's address.
    fn mac(&self) -> MacAddr;

    /// Builds and transmits a frame carrying `payload` to `dst` under
    /// this handler's ethertype. The buffer is shared, not copied: an
    /// echo may hand back the payload of the frame it received.
    fn send_frame(&mut self, dst: MacAddr, payload: Rc<[u8]>);

    /// Charges additional processor time (protocol-specific service
    /// work).
    fn charge(&mut self, cost: SimDuration);

    /// Requests a timer callback with `token` after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
}

/// A protocol endpoint at the raw data-link level.
pub trait RawHandler {
    /// A frame for this handler's ethertype arrived (receive costs
    /// already charged). The payload is delivered as-is — possibly
    /// corrupted in flight; handlers do their own integrity checking, as
    /// the medium does not expose its corruption bookkeeping to
    /// protocols.
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame);

    /// A timer set through [`RawCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64);
}
