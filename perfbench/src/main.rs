//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <boot_storm|page_rw|cached_share> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <dir>]
//! ```
//!
//! The workload is repeated until `--seconds` of host time have passed
//! (at least [`MIN_REPS`] times); host timings are medians over the
//! repetitions, and every repetition must reproduce the first one's
//! simulated results exactly. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run alternates untraced and traced
//! repetitions, so the tracing overhead is measured in one process.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::trace::{Clock, Tracer};
use perfbench::{layer, median, pages, percentile, probes, storm, Rep, Workload};

/// Fewest repetitions of the timed phase per run.
const MIN_REPS: usize = 3;
/// Set-ups timed per run (see [`sample_setups`]): at least
/// `SETUP_SAMPLES`, then more until `SETUP_BUDGET` is spent or
/// `SETUP_MAX` are taken. A set-up takes about a millisecond, so one
/// sample is noisy; the median of hundreds is not.
const SETUP_SAMPLES: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const SETUP_MAX: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup_once(w: Workload, seed: u64) -> f64 {
    match w {
        Workload::BootStorm => storm::setup_once(seed),
        Workload::PageRw => pages::setup_once(&pages::PageConfig::page_rw(seed)),
        Workload::CachedShare => pages::setup_once(&pages::PageConfig::cached_share(seed)),
    }
}

/// Times set-ups alone, each built and dropped without running. They run
/// on a helper thread while the main thread waits, so every sample sees
/// a fresh allocator arena: on the main thread a set-up's cost depends on
/// the heap the seed's repetitions left behind (up to a third slower on
/// some seeds), which is not the set-up's own cost.
fn sample_setups(w: Workload, seed: u64) -> Vec<f64> {
    std::thread::spawn(move || {
        let mut v = Vec::new();
        let started = Instant::now();
        while v.len() < SETUP_SAMPLES || (started.elapsed() < SETUP_BUDGET && v.len() < SETUP_MAX) {
            v.push(setup_once(w, seed));
        }
        v
    })
    .join()
    .expect("the set-up sampler does not panic")
}

/// Renders `(name, value, unit)` metrics as the result object's
/// `metrics` member.
fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}").expect("String");
    }
    s.push('}');
    s
}

/// The end-to-end metrics. Host timings are medians over repetitions;
/// the simulated ones are the same in every repetition.
fn end_to_end(
    w: Workload,
    reps: &[&Rep],
    setups: &[f64],
    peak_rss_mb: f64,
) -> Vec<(String, f64, &'static str)> {
    let sim = &reps[0].sim;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let ops: Vec<f64> = match w {
        Workload::BootStorm => sim.boot_ms.clone(),
        _ => sim.read_ms.iter().chain(&sim.write_ms).copied().collect(),
    };
    let ops_per_s = if sim.busy_ms > 0.0 {
        ops.len() as f64 * 1000.0 / sim.busy_ms
    } else {
        0.0
    };
    vec![
        ("setup_s".into(), median(setups), "s"),
        ("host_wall_s".into(), median(&walls), "s"),
        ("host_peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ("sim_op_p50_ms".into(), percentile(&ops, 50.0), "ms"),
        ("sim_op_p99_ms".into(), percentile(&ops, 99.0), "ms"),
        ("sim_ops_per_s".into(), ops_per_s, "ops/s"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    // Repeat the workload; with tracing on, odd repetitions are traced.
    let mut setups = Vec::new();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut last_tracer = None;
    let mut peak_rss = 0.0;
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let mut tracer = Tracer::new(traced);
        let rep = w.run(args.seed, &mut tracer);
        eprintln!(
            "perfbench: {} rep {} traced={} setup {:.4} s, timed {:.4} s",
            w.name(),
            reps.len(),
            traced,
            rep.setup_s,
            rep.wall_s
        );
        if reps.is_empty() {
            // Freed memory stays mapped, so later repetitions add
            // fragmentation, not workload: the peak is the first
            // repetition's.
            peak_rss = peak_rss_mb();
            setups = sample_setups(w, args.seed);
        }
        reps.push((traced, rep));
        if traced {
            last_tracer = Some(tracer);
        }
        if reps.len() >= MIN_REPS && started.elapsed() >= budget {
            break;
        }
    }

    let first = &reps[0].1.sim;
    let deterministic = reps.iter().all(|(_, r)| r.sim == *first);
    let failed = first.failures.total();
    let correct = deterministic && failed == 0 && first.attempted > 0;
    let error_rate = failed as f64 / first.attempted.max(1) as f64;

    let untraced: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();

    println!(
        "workload {} seed {} reps {}",
        w.name(),
        args.seed,
        reps.len()
    );
    println!(
        "checks: deterministic={deterministic} failures={:?} error_rate={error_rate}",
        first.failures
    );
    for (name, samples) in [
        ("boot", &first.boot_ms),
        ("resolve", &first.resolve_ms),
        ("read", &first.read_ms),
        ("write", &first.write_ms),
    ] {
        if !samples.is_empty() {
            println!(
                "sim {name}: n={} p50={:.4} ms p99={:.4} ms mean={:.4} ms",
                samples.len(),
                percentile(samples, 50.0),
                percentile(samples, 99.0),
                perfbench::mean(samples)
            );
        }
    }

    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        end_to_end(w, &untraced, &setups, peak_rss)
    } else {
        per_layer(
            w,
            &untraced,
            &traced,
            last_tracer
                .as_ref()
                .expect("every second repetition of a traced run is traced"),
            args.spans.as_deref(),
            args.seed,
        )
    };
    for (name, value, unit) in &metrics {
        println!("  {name:32} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        first.attempted,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed");
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced run: the simulation's counts, the
/// host-time probes at the workload's shape, and the tracing overhead.
fn per_layer(
    w: Workload,
    untraced: &[&Rep],
    traced: &[&Rep],
    tracer: &Tracer,
    spans_dir: Option<&str>,
    seed: u64,
) -> Vec<(String, f64, &'static str)> {
    let rep = traced[0];
    let sim = &rep.sim;
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let l = &sim.layers;
    let frames = layer(l, "net.frames_sent");
    let mean_frame = if frames > 0.0 {
        (layer(l, "net.bytes_sent") / frames).round() as usize
    } else {
        64
    };

    let mut probe_tracer = Tracer::new(true);
    let span = probe_tracer.begin("probe.queue", 0);
    let queue_ns = probes::queue_op_ns(layer(l, "sim.pending_peak") as usize);
    probe_tracer.end(span);
    let span = probe_tracer.begin("probe.codec", 0);
    let (enc_ns, dec_ns) = probes::codec_ns(mean_frame);
    probe_tracer.end(span);
    let span = probe_tracer.begin("probe.transmit", 0);
    let (bcast_ns, ucast_ns) =
        probes::transmit_ns(&rep.shape.topology, &rep.shape.station_segments, mean_frame);
    probe_tracer.end(span);
    let span = probe_tracer.begin("probe.cache", 0);
    let cache_ns = probes::cache_lookup_ns(pages::PageConfig::cached_share(seed).cache_blocks);
    probe_tracer.end(span);

    let dispatched = layer(l, "sim.events_dispatched");
    let unit_of = |name: &str| -> &'static str {
        if name.ends_with("_ms") || name.contains("_ms_") {
            "ms"
        } else if name.ends_with("_ns") {
            "ns"
        } else if name.starts_with("net.bytes") {
            "bytes"
        } else if name == "net.fanout" {
            "deliveries/frame"
        } else if name.ends_with("_ratio") || name.ends_with("_rate") || name.ends_with("_util") {
            "fraction"
        } else {
            "count"
        }
    };
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    for (name, value) in l {
        out.push((name.to_string(), *value, unit_of(name)));
        if *name == "sim.events_popped" {
            out.push((
                "sim.ns_per_event".into(),
                if dispatched > 0.0 {
                    untraced_wall * 1e9 / dispatched
                } else {
                    0.0
                },
                "ns",
            ));
        }
        if *name == "sim.pending_peak" {
            out.push(("sim.queue_op_ns".into(), queue_ns, "ns"));
            out.push(("wire.encode_ns".into(), enc_ns, "ns"));
            out.push(("wire.decode_ns".into(), dec_ns, "ns"));
            out.push(("wire.mean_frame_bytes".into(), mean_frame as f64, "bytes"));
        }
        if *name == "net.gw_queue_drops" {
            out.push(("net.broadcast_tx_ns".into(), bcast_ns, "ns"));
            out.push(("net.unicast_tx_ns".into(), ucast_ns, "ns"));
        }
    }
    out.push(("fs.cache_lookup_ns".into(), cache_ns, "ns"));
    for (name, samples) in [
        ("boot", &sim.boot_ms),
        ("read", &sim.read_ms),
        ("write", &sim.write_ms),
    ] {
        out.push((format!("op.{name}_count"), samples.len() as f64, "count"));
        out.push((format!("op.{name}_p50_ms"), percentile(samples, 50.0), "ms"));
        out.push((format!("op.{name}_p99_ms"), percentile(samples, 99.0), "ms"));
    }
    out.push(("trace.untraced_wall_s".into(), untraced_wall, "s"));
    out.push(("trace.traced_wall_s".into(), traced_wall, "s"));
    out.push(("trace.overhead_s".into(), traced_wall - untraced_wall, "s"));

    out.push(("trace.spans".into(), tracer.spans().len() as f64, "count"));
    println!("span summary (name, clock, count, total, self):");
    for (name, (clock, n, total, own)) in tracer.summary().into_iter().chain(probe_tracer.summary())
    {
        let unit = match clock {
            Clock::Host => "s host",
            Clock::Sim => "s sim",
        };
        println!(
            "  {name:24} {n:>8} {:>14.6} {:>14.6} {unit}",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
    if let Some(dir) = spans_dir {
        let path = format!("{dir}/spans-{}-{seed}.jsonl", w.name());
        let mut text = tracer.to_jsonl();
        text.push_str(&probe_tracer.to_jsonl());
        match std::fs::write(&path, text) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    out
}
