//! The traced run: one run with spans and the time series on, whose
//! workload threads report their own CPU time and context switches.
//!
//! It calls `run_app_with` itself rather than going through the engine,
//! because only a wrapped workload body can read each simulated processor's
//! thread counters as its last act. The configuration applied is the
//! engine's (see [`crate::runs::configure`]).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ncp2::apps::{run_app_with, Ctx, Workload};
use ncp2::prelude::RunResult;
use ncp2_bench::engine::Job;
use ncp2_obs::MetricsReport;

use crate::host::{Cpu, ThreadCost};
use crate::runs::configure;

/// A workload that records its thread's counters when its body returns.
struct ThreadProbe {
    inner: Box<dyn Workload>,
    sink: Arc<Mutex<Vec<ThreadCost>>>,
}

impl Workload for ThreadProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, ctx: &mut Ctx<'_>) -> u64 {
        let v = self.inner.run(ctx);
        let cost = ThreadCost::current();
        self.sink
            .lock()
            .expect("a workload thread panicked while recording its cost")
            .push(cost);
        v
    }

    fn racy_ranges(&self) -> Vec<std::ops::Range<u64>> {
        self.inner.racy_ranges()
    }
}

/// What the traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The run's result, with span log and time series.
    pub result: RunResult,
    /// Wall seconds: set-up, simulation and metrics export.
    pub wall_s: f64,
    /// Process CPU over the simulation.
    pub cpu: Cpu,
    /// Each workload thread's CPU and context switches.
    pub threads: Vec<ThreadCost>,
    /// The calling (back-end) thread's cost over the simulation.
    pub backend_thread: ThreadCost,
    /// Milliseconds of `MetricsReport::from_run`.
    pub export_ms: f64,
}

/// Runs `job` once with per-thread accounting.
pub fn traced_run(job: &Job) -> Traced {
    let t0 = Instant::now();
    let inner = job.workload.build();
    let racy = inner.racy_ranges();
    let sink = Arc::new(Mutex::new(Vec::with_capacity(job.params.nprocs)));
    let probe = ThreadProbe {
        inner,
        sink: Arc::clone(&sink),
    };
    let cpu0 = Cpu::process();
    let back0 = ThreadCost::current();
    let result = run_app_with(job.params.clone(), job.protocol, probe, |sim| {
        configure(sim, job, racy)
    });
    let backend_thread = ThreadCost::current().since(back0);
    let cpu = Cpu::process().since(cpu0);
    let t_export = Instant::now();
    let report = MetricsReport::from_run(&job.label, &result);
    let export_ms = t_export.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(report);
    let wall_s = t0.elapsed().as_secs_f64();
    let threads = std::mem::take(
        &mut *sink
            .lock()
            .expect("a workload thread panicked while recording its cost"),
    );
    Traced {
        result,
        wall_s,
        cpu,
        threads,
        backend_thread,
        export_ms,
    }
}
