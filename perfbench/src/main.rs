//! `perfbench` — host-cost benchmark of the ncp2 simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload em3d256 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload's runs back to back through the
//! experiment engine (one worker, result cache off) for `--seconds`,
//! gating every run against the seed's sequential reference checksum.
//! `--trace 0` prints the end-to-end metrics (medians over the runs);
//! `--trace 1` then adds one traced run and the layer probes sized from it
//! and prints the per-layer metrics. A human-readable table goes to
//! standard error; the last line of standard output is the JSON result.
//! The exit code is 0 only if every run and probe passed its checks.
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod probes;
mod report;
mod runs;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ncp2::core::{CtrlCmd, Engine as CtrlEngine, SpanKind, TsGauge};
use ncp2::prelude::*;

use report::{median, tail, MetricSet, Outcome, END_TO_END, PER_LAYER};
use runs::Sample;
use workloads::{Kind, DEFAULT_SEED, HELD_OUT_SEED};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Test hook: corrupt the reference checksum so every run must fail.
    plant_wrong_reference: bool,
    /// Internal: make one measured run against this reference checksum
    /// and print its report line (see `runs::spawn_run`).
    child_run: Option<u64>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload ocean16|em3d256|water16-chaos \
         [--seed N] [--seconds S] [--trace 0|1]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}"
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: Kind::Tiny,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        plant_wrong_reference: false,
        child_run: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--plant-wrong-reference" => a.plant_wrong_reference = true,
            "--child-run" => {
                a.child_run = Some(value()?.parse().map_err(|e| format!("--child-run: {e}"))?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(reference) = args.child_run {
        println!(
            "{}",
            runs::child_run(&args.workload.job(args.seed), reference)
        );
        return ExitCode::SUCCESS;
    }
    let outcome = run(&args);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one invocation: the measured window, then (with `--trace 1`) the
/// traced run and probes.
fn run(args: &Args) -> Outcome {
    let kind = args.workload;
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} logical CPUs",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut reference = runs::reference_checksum(&kind.reference_job(args.seed));
    eprintln!("  sequential reference checksum {reference:#018x}");
    if args.plant_wrong_reference {
        reference ^= 1;
    }
    let child_args: Vec<String> = [
        "--child-run",
        &reference.to_string(),
        "--workload",
        kind.name(),
        "--seed",
        &args.seed.to_string(),
    ]
    .map(String::from)
    .to_vec();
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < 3 || start.elapsed() < window {
        let s = runs::spawn_run(&child_args);
        eprintln!(
            "  run {:>3}: wall {:.4} s, cpu {:.2} s, peak {:.1} MiB, {} cycles",
            samples.len(),
            s.wall_s,
            s.cpu_s,
            s.peak_rss_mb,
            s.sim_cycles
        );
        samples.push(s);
    }
    let mut failed = 0u64;
    for (i, s) in samples.iter().enumerate() {
        if let Err(e) = &s.verdict {
            eprintln!("perfbench: run {i} FAILED: {e}");
            failed += 1;
        }
    }
    let mut attempted = samples.len() as u64;
    // Timings come from the runs that passed; if none did, the outcome is
    // failed anyway and the medians cover every run.
    let passed: Vec<Sample> = samples
        .iter()
        .filter(|s| s.verdict.is_ok())
        .cloned()
        .collect();
    let samples = if passed.is_empty() { samples } else { passed };
    let metrics = if args.trace {
        let mut set = MetricSet::new(&PER_LAYER);
        let (a, f) = per_layer(kind, args.seed, reference, &samples, &mut set);
        attempted += a;
        failed += f;
        set
    } else {
        end_to_end(&samples)
    };
    let missing = metrics.missing();
    assert!(missing.is_empty(), "metrics never measured: {missing:?}");
    eprintln!(
        "perfbench: failed_frac {} ({failed} of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: metrics.into_values(),
    }
}

/// Prints one metric's median, tail percentile and sample count.
fn summarize(name: &str, unit: &str, xs: &[f64]) -> f64 {
    let m = median(xs);
    let tail = tail(xs).map_or("no tail (n < 20)".to_string(), |(p, v)| {
        format!("p{p} {v:.6}")
    });
    eprintln!(
        "  {name:<14} median {m:>14.6} {unit:<7} {tail}, n = {}",
        xs.len()
    );
    m
}

fn end_to_end(samples: &[Sample]) -> MetricSet {
    let mut set = MetricSet::new(&END_TO_END);
    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    eprintln!("end-to-end ({} runs, tracing off):", samples.len());
    for (name, xs) in [
        ("wall_s", col(|s| s.wall_s)),
        ("cpu_s", col(|s| s.cpu_s)),
        ("peak_rss_mb", col(|s| s.peak_rss_mb)),
        ("setup_s", col(|s| s.setup_s)),
        ("sim_cycles", col(|s| s.sim_cycles)),
    ] {
        let unit = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit);
        set.set(name, summarize(name, unit, &xs));
    }
    set
}

/// Makes the traced run and the probes and fills the per-layer metrics.
/// Returns the checks attempted and failed beyond the measured runs.
fn per_layer(
    kind: Kind,
    seed: u64,
    reference: u64,
    samples: &[Sample],
    set: &mut MetricSet,
) -> (u64, u64) {
    let mut checks = Checks::default();
    let untraced_wall = median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let phase = |i: usize| median(&samples.iter().map(|s| s.phases[i]).collect::<Vec<_>>());
    set.set("bench.setup_ms", phase(0) * 1e3);
    set.set("bench.sim_s", phase(1));
    set.set("bench.obs_export_ms", phase(2) * 1e3);

    let job = kind.traced_job(seed);
    let t = traced::traced_run(&job);
    checks.record("traced run", runs::gate(&t.result, reference, &job));
    let r = &t.result;
    let nprocs = kind.nprocs();
    checks.record(
        "per-thread accounting",
        (t.threads.len() == nprocs)
            .then_some(())
            .ok_or(format!("{} of {nprocs} threads reported", t.threads.len())),
    );

    // Front end.
    let frontend: f64 = t.threads.iter().map(|c| c.cpu_s).sum();
    set.set("proc.threads", t.threads.len() as f64);
    set.set("proc.frontend_cpu_s", frontend);
    set.set("proc.backend_cpu_s", t.cpu.total() - frontend);
    set.set("proc.user_s", t.cpu.user_s);
    set.set("proc.sys_s", t.cpu.sys_s);
    let switches: u64 = t.threads.iter().map(|c| c.ctx_switches).sum();
    set.set(
        "proc.ctx_switches",
        (switches + t.backend_thread.ctx_switches) as f64,
    );
    set.set(
        "proc.handoff_us",
        checks.value("handoff probe", probes::handoff_us(nprocs)),
    );
    set.set("proc.spawn_join_ms", probes::spawn_join_ms(nprocs));

    // Memory model, protocol handlers and controller.
    let log = r.obs.as_ref();
    let spans = |k: SpanKind| log.map_or(0, |l| l.spans.iter().filter(|s| s.kind == k).count());
    let engine_spans = |f: &dyn Fn(&ncp2::core::EngineSpan) -> bool| {
        log.map_or(0, |l| l.engine.iter().filter(|e| f(e)).count())
    };
    let agg = r.aggregate();
    let sum = |f: fn(&ncp2::core::NodeStats) -> u64| r.nodes.iter().map(f).sum::<u64>() as f64;
    set.set("mem.hit_spans", spans(SpanKind::MemHit) as f64);
    set.set("mem.stall_spans", spans(SpanKind::MemStall) as f64);
    set.set("sim.others_cycles", agg.get(Category::Other) as f64);
    set.set("core.faults", sum(|n| n.faults));
    set.set(
        "core.twins",
        (spans(SpanKind::Twin) + engine_spans(&|e| e.cmd == CtrlCmd::Twin)) as f64,
    );
    set.set("core.diffs_created", sum(|n| n.diffs_created));
    set.set("core.diffs_applied", sum(|n| n.diffs_applied));
    set.set("core.diff_bytes_applied", sum(|n| n.diff_bytes_applied));
    set.set("core.page_fetches", sum(|n| n.page_fetches));
    set.set("core.invalidations", sum(|n| n.invalidations));
    set.set("core.lock_acquires", sum(|n| n.lock_acquires));
    set.set("core.barriers", sum(|n| n.barriers));
    let prefetches = sum(|n| n.prefetches);
    let useful = sum(|n| n.prefetch_hits + n.prefetch_joins);
    set.set("core.prefetches", prefetches);
    set.set(
        "core.prefetch_useful_ratio",
        if prefetches > 0.0 {
            useful / prefetches
        } else {
            0.0
        },
    );
    eprintln!("  core.prefetch_useful_ratio = {useful} (hits + joins) / {prefetches} prefetches");
    set.set(
        "ctrl.commands",
        engine_spans(&|e| e.engine == CtrlEngine::CtrlCore) as f64,
    );
    set.set("ctrl.busy_cycles", sum(|n| n.controller_busy));
    set.set("sim.busy_cycles", agg.get(Category::Busy) as f64);
    set.set("sim.data_cycles", agg.get(Category::Data) as f64);
    set.set("sim.synch_cycles", agg.get(Category::Synch) as f64);
    set.set("sim.ipc_cycles", agg.get(Category::Ipc) as f64);

    // Network and transport.
    let flights = log.map_or(&[][..], |l| &l.flights[..]);
    set.set("net.messages", r.net.messages as f64);
    set.set("net.bytes", r.net.bytes as f64);
    set.set("net.blocking_cycles", r.net.total_blocking as f64);
    set.set(
        "net.replay_ns_per_msg",
        checks.value(
            "network replay",
            probes::replay_ns_per_msg(flights, nprocs, Duration::from_millis(300)),
        ),
    );
    let f = &r.fault;
    set.set("transport.frames_sent", f.frames_sent as f64);
    set.set("transport.acks_sent", f.acks_sent as f64);
    set.set("transport.retransmits", f.retransmits as f64);
    set.set("transport.dup_frames_dropped", f.dup_frames_dropped as f64);
    // Every frame is a logical message's first attempt, a retransmission
    // or an injected duplicate copy. With the hardened transport off each
    // logical message is exactly one delivery.
    let logical = f
        .frames_sent
        .saturating_sub(f.retransmits + f.dups_injected);
    set.set(
        "transport.goodput_ratio",
        if f.frames_sent > 0 {
            logical as f64 / f.frames_sent as f64
        } else {
            1.0
        },
    );
    let ts = r.ts.as_ref();

    // Event queue.
    let depth = ts.map_or(0, |t| {
        t.gauge_series(TsGauge::QueueDepth)
            .into_iter()
            .max()
            .unwrap_or(0)
    });
    set.set("queue.depth_max", depth as f64);
    set.set(
        "queue.push_pop_ns",
        checks.value("queue probe", probes::push_pop_ns(depth as usize)),
    );

    // Instrumentation sinks.
    set.set("obs.spans", log.map_or(0, |l| l.spans.len()) as f64);
    set.set("obs.engine_spans", log.map_or(0, |l| l.engine.len()) as f64);
    set.set("obs.flights", flights.len() as f64);
    set.set("obs.edges", log.map_or(0, |l| l.edges.len()) as f64);
    set.set("ts.windows", ts.map_or(0, |t| t.windows.len()) as f64);
    set.set("obs.export_ms", t.export_ms);
    set.set("obs.trace_overhead_s", t.wall_s - untraced_wall);
    set.set("verify.violations", r.violations.len() as f64);
    eprintln!(
        "  traced run: {:.3} s wall vs {untraced_wall:.3} s untraced median; {} threads",
        t.wall_s,
        t.threads.len()
    );
    (checks.attempted, checks.failed)
}

/// Tallies the traced run's and probes' self-checks.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            eprintln!("perfbench: {what} FAILED: {e}");
            self.failed += 1;
        }
    }

    /// Records a probe's verdict; a failed probe's metric reads 0.
    fn value(&mut self, what: &str, r: Result<f64, String>) -> f64 {
        let v = r.as_ref().copied().unwrap_or(0.0);
        self.record(what, r.map(|_| ()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn benchmark_command_line_parses() {
        let a = args("--workload em3d256 --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Kind::Em3d256);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert_eq!(
            args("--workload ocean16").expect("valid").seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload tiny --trace 2",
            "--workload tiny --seconds 0",
            "--workload tiny --seed -1",
            "--workload tiny --bogus",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        use ncp2_obs::json::JVal;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b = ncp2_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |k: &str| b.get(k).and_then(JVal::as_arr).expect(k).to_vec();
        let field = |v: &JVal, k: &str| v.get(k).and_then(JVal::as_str).expect(k).to_string();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let published: Vec<&str> = Kind::PUBLISHED.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, published);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let program: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    let better = if d.lower_is_better { "lower" } else { "higher" };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect();
            assert_eq!(
                declared, program,
                "{key} differs from the program's catalogue"
            );
        }
    }
}
