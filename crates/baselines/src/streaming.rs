//! A windowed streaming file-read protocol (the §6.2 comparator).
//!
//! Conventional systems hide network latency in sequential file access by
//! streaming: the server pushes pages ahead of the reader into a
//! client-side buffer pool. The paper argues (§6.2) this buys at most
//! 10–20 % over V's synchronous request-response because (a) local-net
//! latency is small, (b) the disk dominates, and (c) streaming adds
//! buffering copies and protocol overhead. This module implements such a
//! protocol so the claim is measured, not asserted.
//!
//! Shape: the client opens a stream (file of `n` pages, window `w`); the
//! server streams data pages, each gated on a per-page disk latency and
//! on window credit; the client acknowledges cumulatively as the
//! application *consumes* pages. Each consumed page pays one extra
//! buffer-to-user copy — the cost the paper attributes to streaming that
//! the V path does not pay (its data lands in the user buffer directly).
//!
//! Wire format: `[kind u8, pad u8, seq u16, count u32]` + data for pages.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::raw::{RawCtx, RawHandler};
use v_net::{Frame, MacAddr};
use v_sim::{SimDuration, SimTime};

const K_OPEN: u8 = 1;
const K_PAGE: u8 = 2;
const K_ACK: u8 = 3;

fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}
fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}
fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}
fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

const HDR: usize = 8;

/// Timer token: a page became ready off the simulated disk.
const TOK_DISK: u64 = 1;
/// Timer token: the client application consumed a page.
const TOK_CONSUME: u64 = 2;

/// Streaming file server: pushes pages as the disk yields them and the
/// window allows.
pub struct StreamServer {
    /// Page size in bytes.
    pub page_size: usize,
    /// Per-page disk latency.
    pub disk_latency: SimDuration,
    /// Fill pattern.
    pub pattern: u8,
    client: Option<MacAddr>,
    total: u16,
    window: u16,
    next_ready: u16, // pages the disk has produced
    next_sent: u16,  // pages pushed to the client
    acked: u16,      // cumulative ack from the client
    disk_busy: bool,
}

impl StreamServer {
    /// Creates a streaming server.
    pub fn new(page_size: usize, disk_latency: SimDuration, pattern: u8) -> StreamServer {
        StreamServer {
            page_size,
            disk_latency,
            pattern,
            client: None,
            total: 0,
            window: 0,
            next_ready: 0,
            next_sent: 0,
            acked: 0,
            disk_busy: false,
        }
    }

    fn pump(&mut self, ctx: &mut dyn RawCtx) {
        // Push every page that is both disk-ready and within the window.
        while self.next_sent < self.next_ready && self.next_sent < self.acked + self.window {
            let mut pkt = vec![0u8; HDR + self.page_size];
            pkt[0] = K_PAGE;
            put_u16(&mut pkt, 2, self.next_sent);
            put_u32(&mut pkt, 4, self.page_size as u32);
            pkt[HDR..].fill(self.pattern);
            ctx.send_frame(self.client.expect("stream open"), pkt.into());
            self.next_sent += 1;
        }
        // Keep the disk busy fetching the next page.
        if !self.disk_busy && self.next_ready < self.total {
            self.disk_busy = true;
            ctx.set_timer(self.disk_latency, TOK_DISK);
        }
    }
}

impl RawHandler for StreamServer {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        if frame.payload.len() < HDR {
            return;
        }
        match frame.payload[0] {
            K_OPEN => {
                self.client = Some(frame.src);
                self.total = get_u16(&frame.payload, 2);
                self.window = get_u32(&frame.payload, 4) as u16;
                self.next_ready = 0;
                self.next_sent = 0;
                self.acked = 0;
                self.disk_busy = false;
                self.pump(ctx);
            }
            K_ACK => {
                self.acked = get_u16(&frame.payload, 2);
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64) {
        if token == TOK_DISK {
            self.disk_busy = false;
            self.next_ready += 1;
            self.pump(ctx);
        }
    }
}

/// Shared measurement state of a streaming read.
#[derive(Debug, Default)]
pub struct StreamState {
    /// Pages consumed by the application.
    pub consumed: u64,
    /// Pages requested.
    pub target: u64,
    /// Start of the stream.
    pub started: Option<SimTime>,
    /// Last consumption.
    pub finished: Option<SimTime>,
    /// Bad pages.
    pub integrity_errors: u64,
}

impl StreamState {
    /// Elapsed milliseconds per consumed page.
    pub fn per_page_ms(&self) -> f64 {
        if self.consumed == 0 {
            return 0.0;
        }
        let s = self.started.expect("started");
        let f = self.finished.expect("finished");
        f.since(s).as_millis_f64() / self.consumed as f64
    }
}

/// Streaming client: buffers arriving pages, consumes them in order at
/// application speed, acknowledges cumulatively.
pub struct StreamClient {
    /// Server station.
    pub server: MacAddr,
    /// Page size in bytes.
    pub page_size: usize,
    /// Pages to read.
    pub total: u16,
    /// Window (buffer pool size in pages).
    pub window: u16,
    /// Application think time per page (zero = consume immediately).
    pub think: SimDuration,
    /// Extra per-page buffer-to-user copy cost (per byte).
    pub copy_per_byte: SimDuration,
    /// Shared state.
    pub state: Rc<RefCell<StreamState>>,
    buffered: u16, // highest in-order page received
    next_consume: u16,
    consuming: bool,
}

impl StreamClient {
    /// Creates a streaming client.
    pub fn new(
        server: MacAddr,
        page_size: usize,
        total: u16,
        window: u16,
        think: SimDuration,
        copy_per_byte: SimDuration,
        state: Rc<RefCell<StreamState>>,
    ) -> StreamClient {
        StreamClient {
            server,
            page_size,
            total,
            window,
            think,
            copy_per_byte,
            state,
            buffered: 0,
            next_consume: 0,
            consuming: false,
        }
    }

    fn try_consume(&mut self, ctx: &mut dyn RawCtx) {
        if self.consuming || self.next_consume >= self.buffered {
            return;
        }
        self.consuming = true;
        // The application "reads" the page: one buffer-to-user copy now,
        // then its think time.
        let copy = SimDuration::from_nanos(self.copy_per_byte.as_nanos() * self.page_size as u64);
        ctx.charge(copy);
        if self.think.is_zero() {
            self.finish_page(ctx);
        } else {
            ctx.set_timer(self.think, TOK_CONSUME);
        }
    }

    fn finish_page(&mut self, ctx: &mut dyn RawCtx) {
        self.consuming = false;
        self.next_consume += 1;
        {
            let mut st = self.state.borrow_mut();
            st.consumed += 1;
            st.finished = Some(ctx.now());
        }
        // Cumulative ack opens the window.
        let mut ack = vec![0u8; HDR];
        ack[0] = K_ACK;
        put_u16(&mut ack, 2, self.next_consume);
        ctx.send_frame(self.server, ack.into());
        self.try_consume(ctx);
    }
}

impl RawHandler for StreamClient {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        if frame.payload.len() < HDR || frame.payload[0] != K_PAGE {
            return;
        }
        let seq = get_u16(&frame.payload, 2);
        if frame.payload.len() != HDR + self.page_size {
            self.state.borrow_mut().integrity_errors += 1;
        }
        if seq == self.buffered {
            self.buffered += 1;
        }
        self.try_consume(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64) {
        match token {
            TOK_CONSUME => self.finish_page(ctx),
            _ => {
                // Kick-off: open the stream.
                self.state.borrow_mut().started = Some(ctx.now());
                let mut open = vec![0u8; HDR];
                open[0] = K_OPEN;
                put_u16(&mut open, 2, self.total);
                put_u32(&mut open, 4, self.window as u32);
                ctx.send_frame(self.server, open.into());
            }
        }
    }
}

/// Runs a streaming read of `pages` pages between hosts 0 (client) and 1
/// (server); returns ms per page consumed.
pub fn measure_streaming(
    cluster: &mut v_kernel::Cluster,
    pages: u16,
    disk_latency: SimDuration,
    think: SimDuration,
) -> (f64, Rc<RefCell<StreamState>>) {
    use v_kernel::HostId;
    use v_net::EtherType;
    let state = Rc::new(RefCell::new(StreamState {
        target: pages as u64,
        ..StreamState::default()
    }));
    let server_mac = cluster.mac(HostId(1));
    // The extra copy uses the client CPU's memory-copy rate.
    let copy_per_byte =
        v_kernel::CostModel::for_speed(v_kernel::CpuSpeed::Mc68000At10MHz).copy_mem_per_byte;
    cluster.register_raw_handler(
        HostId(1),
        EtherType::STREAMING,
        Box::new(StreamServer::new(512, disk_latency, 0x7E)),
    );
    cluster.register_raw_handler(
        HostId(0),
        EtherType::STREAMING,
        Box::new(StreamClient::new(
            server_mac,
            512,
            pages,
            8,
            think,
            copy_per_byte,
            state.clone(),
        )),
    );
    cluster.poke_raw_handler(HostId(0), EtherType::STREAMING, 0, SimDuration::ZERO);
    cluster.run();
    let ms = state.borrow().per_page_ms();
    (ms, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz))
    }

    #[test]
    fn streaming_approaches_the_disk_floor() {
        let mut cl = cluster();
        let (ms, st) = measure_streaming(
            &mut cl,
            200,
            SimDuration::from_millis(15),
            SimDuration::ZERO,
        );
        assert_eq!(st.borrow().integrity_errors, 0);
        assert_eq!(st.borrow().consumed, 200);
        // Streaming hides everything but the disk (+ copy): close to 15.
        assert!((15.0..16.5).contains(&ms), "streaming = {ms:.2}");
    }

    #[test]
    fn streaming_gain_over_v_is_bounded() {
        // V request-response sequential access measured ~17.1 ms/page at
        // 15 ms disk latency (Table 6-2); streaming must not beat it by
        // more than ~15 %.
        let mut cl = cluster();
        let (ms, _) = measure_streaming(
            &mut cl,
            200,
            SimDuration::from_millis(15),
            SimDuration::ZERO,
        );
        let v_ms = 17.13;
        let gain = (v_ms - ms) / v_ms;
        assert!(gain < 0.15, "streaming gain {gain:.2} exceeds paper bound");
        assert!(gain > 0.0, "streaming should still win slightly");
    }
}
