//! Per-layer bench: the event queue.
//!
//! `EventQueue::pop` plus one `schedule` with about 66 k events pending,
//! the boot storm's peak depth (`sim.pending_peak` at N = 2000). Events
//! are the size of the kernel's, so heap moves cost what the engine's
//! do, and each re-scheduled event lands a random distance past the
//! popped one, as timers and deliveries do.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use v_sim::{EventQueue, SimDuration, SimTime, SplitMix64};

/// Pending events held throughout the bench.
const DEPTH: usize = 66_000;

/// Pop + schedule pairs per timed sample.
const PER_SAMPLE: usize = 1000;

/// Spread of event times, in simulated nanoseconds.
const SPREAD: u64 = 1_000_000;

type BenchEvent = [u8; std::mem::size_of::<v_kernel::event::Event>()];

fn bench_sim_queue(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    let mut q: EventQueue<BenchEvent> = EventQueue::new();
    let event: BenchEvent = [0; std::mem::size_of::<BenchEvent>()];
    for _ in 0..DEPTH {
        q.schedule(SimTime::from_nanos(rng.below(SPREAD)), event);
    }
    let mut g = c.benchmark_group("sim_queue");
    g.sample_size(20);
    g.bench_function("pop_schedule_66k_pending_x1000", |b| {
        b.iter(|| {
            for _ in 0..PER_SAMPLE {
                let (t, ev) = q.pop().expect("queue holds DEPTH events");
                black_box(&ev);
                q.schedule(t + SimDuration::from_nanos(1 + rng.below(SPREAD)), event);
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sim_queue);
criterion_main!(benches);
