//! The benchmark's own spans.
//!
//! Spans are recorded around the benchmark's calls into each layer
//! (setup, each storm wave's `run_until`, the per-layer probes) on the
//! host clock, and for each client operation on the simulated clock.
//! They are kept in memory and written out when the run ends. With
//! tracing off every call is a no-op, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which clock a span's times are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock nanoseconds since the tracer was created.
    Host,
    /// Simulated nanoseconds since the cluster's time zero.
    Sim,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`layer.boundary`).
    pub name: &'static str,
    /// Identifier, unique within the tracer (0 is never used).
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Request identifier shared by the spans of one client (0 when the
    /// span belongs to no single client).
    pub trace: u64,
    /// Clock of `start` and `end`.
    pub clock: Clock,
    /// Start, nanoseconds.
    pub start: u64,
    /// End, nanoseconds.
    pub end: u64,
}

/// An open host-clock span; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// The span's id, to pass as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Opens a host-clock span under `parent` (0 for a root).
    pub fn begin(&mut self, name: &'static str, parent: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                start: 0,
            };
        }
        Open {
            id: self.alloc(),
            parent,
            name,
            start: self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Closes a host-clock span.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            trace: 0,
            clock: Clock::Host,
            start: open.start,
            end,
        });
    }

    /// Records a finished simulated-clock span and returns its id (0 when
    /// tracing is off).
    pub fn sim_span(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.alloc();
        self.spans.push(Span {
            name,
            id,
            parent,
            trace,
            clock: Clock::Sim,
            start,
            end,
        });
        id
    }

    /// Per-name totals: count, summed duration and self time (duration
    /// minus the time covered by child spans on the same clock), all in
    /// nanoseconds of the span's own clock.
    pub fn summary(&self) -> BTreeMap<&'static str, (Clock, u64, u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let clock_of: BTreeMap<u64, Clock> = self.spans.iter().map(|s| (s.id, s.clock)).collect();
        for s in &self.spans {
            if s.parent != 0 && clock_of.get(&s.parent) == Some(&s.clock) {
                *child_ns.entry(s.parent).or_default() += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (Clock, u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end - s.start;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_insert((s.clock, 0, 0, 0));
            e.1 += 1;
            e.2 += dur;
            e.3 += own;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let clock = match sp.clock {
                Clock::Host => "host",
                Clock::Sim => "sim",
            };
            writeln!(
                s,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"clock\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.id, sp.parent, sp.trace, clock, sp.start, sp.end
            )
            .expect("writing to a String cannot fail");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_same_clock() {
        let mut t = Tracer::new(true);
        t.spans.push(Span {
            name: "outer",
            id: 1,
            parent: 0,
            trace: 0,
            clock: Clock::Host,
            start: 0,
            end: 100,
        });
        t.spans.push(Span {
            name: "inner",
            id: 2,
            parent: 1,
            trace: 0,
            clock: Clock::Host,
            start: 10,
            end: 40,
        });
        t.spans.push(Span {
            name: "op",
            id: 3,
            parent: 1,
            trace: 7,
            clock: Clock::Sim,
            start: 0,
            end: 5_000,
        });
        let s = t.summary();
        assert_eq!(s["outer"], (Clock::Host, 1, 100, 70));
        assert_eq!(s["inner"], (Clock::Host, 1, 30, 30));
        assert_eq!(s["op"], (Clock::Sim, 1, 5_000, 5_000));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x", 0);
        t.end(o);
        t.sim_span("y", 0, 1, 0, 10);
        assert!(t.spans().is_empty());
    }
}
