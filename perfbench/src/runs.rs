//! Measured runs through the experiment engine, the per-run correctness
//! gate, and the set-up timing.
//!
//! Each measured run happens in a fresh child process (this binary with
//! `--child-run`), as a user's one-run process would: the allocator starts
//! empty, so peak RSS is the run's own and does not drift with what earlier
//! runs left behind. The child reports one JSON line; a child that crashes,
//! or hangs past a deadline and is killed, counts as a failed run.

use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ncp2_obs::json::JVal;

use ncp2::prelude::*;
use ncp2_bench::engine::{Engine, Job};
use ncp2_verify::VerifyOracle;

use crate::host::{self, Cpu};
use crate::report::median;

/// The engine every run goes through: one worker, result cache off (a hit
/// would time a file read, not the simulator), host phases attributed.
pub fn engine() -> Engine {
    Engine::new().no_cache().silent().with_jobs(1).with_prof()
}

/// Applies a job's run configuration to a fresh simulation, exactly as the
/// engine does before `Simulation::run`.
pub fn configure(sim: &mut Simulation, job: &Job, racy: Vec<std::ops::Range<u64>>) {
    if job.obs {
        sim.enable_obs();
    }
    if job.timeseries {
        sim.enable_timeseries();
    }
    if job.verify {
        let mut oracle = VerifyOracle::new(&job.params, &job.protocol);
        for range in racy {
            oracle.exempt_range(range);
        }
        sim.attach_observer(Box::new(oracle));
    }
    sim.attach_fault_plan(job.fault.clone());
}

/// The checksum every run of `job`'s inputs must reproduce, from the
/// sequential reference run. Not timed.
///
/// # Panics
///
/// Panics if the reference run itself panics: without a reference no run
/// can be checked.
pub fn reference_checksum(reference: &Job) -> u64 {
    engine().run_job(reference.clone()).result.checksum
}

/// The per-run correctness gate: the checksum equals the sequential
/// reference, and where sinks are on, the oracle saw no violation and the
/// span log conserves every node's cycle breakdown.
pub fn gate(result: &RunResult, reference: u64, job: &Job) -> Result<(), String> {
    if result.checksum != reference {
        return Err(format!(
            "checksum {:#x} != sequential reference {reference:#x}",
            result.checksum
        ));
    }
    if job.verify && !result.violations.is_empty() {
        return Err(format!(
            "{} oracle violation(s), first: {:?}",
            result.violations.len(),
            result.violations[0]
        ));
    }
    if job.obs {
        let log = result
            .obs
            .as_ref()
            .ok_or("observed run carries no span log")?;
        let errors = log.conservation_errors(&result.nodes);
        if let Some((node, detail)) = errors.first() {
            return Err(format!(
                "span conservation broken on {} node/category pair(s), first node {node}: {detail}",
                errors.len()
            ));
        }
    }
    Ok(())
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host wall seconds of `Engine::run_job`.
    pub wall_s: f64,
    /// Process CPU seconds over the run, exited threads included.
    pub cpu_s: f64,
    /// Peak resident set during the run, MiB.
    pub peak_rss_mb: f64,
    /// Simulated cycles (0 when the run panicked).
    pub sim_cycles: f64,
    /// The engine's `setup`, `sim` and `obs_export` phase seconds.
    pub phases: [f64; 3],
    /// Median set-up seconds (see [`setup_seconds`]) in the run's process.
    pub setup_s: f64,
    /// `Err` when the run failed its gate, panicked or deadlocked.
    pub verdict: Result<(), String>,
}

impl Sample {
    /// A run that produced no measurement.
    fn lost(why: String) -> Sample {
        Sample {
            wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            sim_cycles: 0.0,
            phases: [0.0; 3],
            setup_s: 0.0,
            verdict: Err(why),
        }
    }

    /// The one-line report a child process prints.
    pub fn to_line(&self) -> String {
        let error = match &self.verdict {
            Ok(()) => "null".to_string(),
            Err(e) => format!("\"{}\"", ncp2_obs::json::esc(e)),
        };
        format!(
            "{{\"wall_s\": {:?}, \"cpu_s\": {:?}, \"peak_rss_mb\": {:?}, \"sim_cycles\": {:?}, \
             \"phases\": [{:?}, {:?}, {:?}], \"setup_s\": {:?}, \"error\": {error}}}",
            self.wall_s,
            self.cpu_s,
            self.peak_rss_mb,
            self.sim_cycles,
            self.phases[0],
            self.phases[1],
            self.phases[2],
            self.setup_s
        )
    }

    /// Parses a line written by [`Sample::to_line`].
    pub fn from_line(line: &str) -> Result<Sample, String> {
        let v = ncp2_obs::json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(JVal::as_f64)
                .ok_or(format!("run report has no number {k}"))
        };
        let phases = v
            .get("phases")
            .and_then(JVal::as_arr)
            .filter(|p| p.len() == 3)
            .ok_or("run report has no three phases")?;
        let phase = |i: usize| phases[i].as_f64().ok_or("phase is not a number");
        Ok(Sample {
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            sim_cycles: num("sim_cycles")?,
            phases: [phase(0)?, phase(1)?, phase(2)?],
            setup_s: num("setup_s")?,
            verdict: match v.get("error") {
                Some(JVal::Str(e)) => Err(e.clone()),
                _ => Ok(()),
            },
        })
    }
}

/// The body of a child process: times set-up, makes one measured run of
/// `job` and returns its report line.
pub fn child_run(job: &Job, reference: u64) -> String {
    let setup_s = median(&setup_seconds(job, Duration::from_millis(20)));
    let mut s = measured_run(&engine(), job, reference);
    s.setup_s = setup_s;
    s.to_line()
}

/// Longest a measured run may take before it is deemed hung and killed.
/// The slowest workload's runs take a few seconds.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// Makes one measured run in a fresh child process running `args` (the
/// child's own command line) and collects its report.
pub fn spawn_run(args: &[String]) -> Sample {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Sample::lost(format!("cannot locate this binary: {e}")),
    };
    let mut child = match Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return Sample::lost(format!("cannot start a run process: {e}")),
    };
    let start = Instant::now();
    let status = loop {
        let lost = match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() > RUN_DEADLINE => {
                format!("run hung past {RUN_DEADLINE:?}; killed")
            }
            Ok(None) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            Err(e) => format!("lost track of the run process: {e}; killed"),
        };
        // Never leave a run process behind.
        let _ = child.kill();
        let _ = child.wait();
        return Sample::lost(lost);
    };
    let mut out = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut out);
    }
    match out.lines().last() {
        Some(line) if status.success() => {
            Sample::from_line(line).unwrap_or_else(|e| Sample::lost(format!("bad run report: {e}")))
        }
        _ => Sample::lost(format!("run process exited with {status} and no report")),
    }
}

/// Runs `job` once through the engine and gates its output.
pub fn measured_run(engine: &Engine, job: &Job, reference: u64) -> Sample {
    host::reset_peak_rss();
    let cpu0 = Cpu::process();
    let t0 = Instant::now();
    let rec = catch_unwind(AssertUnwindSafe(|| engine.run_job(job.clone())));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = Cpu::process().since(cpu0).total();
    let peak_rss_mb = host::peak_rss_mb();
    match rec {
        Ok(rec) => {
            let phase = |name: &str| {
                rec.host
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, h)| h.wall_ns as f64 / 1e9)
            };
            Sample {
                wall_s,
                cpu_s,
                peak_rss_mb,
                sim_cycles: rec.result.total_cycles as f64,
                phases: [phase("setup"), phase("sim"), phase("obs_export")],
                setup_s: 0.0,
                verdict: gate(&rec.result, reference, job),
            }
        }
        Err(panic) => Sample::lost(format!("run panicked: {}", panic_text(&panic))),
    }
}

/// The text of a caught panic (simulator deadlocks panic with a message).
pub fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-text panic".to_string())
}

/// Times everything a run does before `Simulation::run` begins: building
/// the workload, `Simulation::new`, and attaching sinks and fault plan.
/// Repeats for `budget` (at least 15 times) and returns the seconds of each
/// repetition; the simulation is dropped outside the timed span.
pub fn setup_seconds(job: &Job, budget: Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 15 || start.elapsed() < budget {
        let t0 = Instant::now();
        let workload = job.workload.build();
        let racy = workload.racy_ranges();
        let mut sim = Simulation::new(job.params.clone(), job.protocol);
        configure(&mut sim, job, racy);
        times.push(t0.elapsed().as_secs_f64());
        drop(std::hint::black_box((sim, workload)));
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    #[test]
    fn matching_run_passes_and_planted_wrong_reference_fails() {
        let job = Kind::Tiny.job(1);
        let reference = reference_checksum(&Kind::Tiny.reference_job(1));
        let engine = engine();
        let good = measured_run(&engine, &job, reference);
        assert_eq!(good.verdict, Ok(()));
        assert!(good.wall_s > 0.0 && good.sim_cycles > 0.0);
        let bad = measured_run(&engine, &job, reference ^ 1);
        let err = bad
            .verdict
            .expect_err("a wrong reference must fail the gate");
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn sink_runs_check_oracle_and_conservation() {
        let mut job = Kind::Tiny.job(1);
        job.obs = true;
        job.verify = true;
        let rec = engine().run_job(job.clone());
        let reference = rec.result.checksum;
        assert_eq!(gate(&rec.result, reference, &job), Ok(()));
        let mut broken = rec.result.clone();
        broken.obs.as_mut().expect("observed").spans.pop();
        let err = gate(&broken, reference, &job).expect_err("lost span must fail");
        assert!(err.contains("conservation"), "{err}");
    }

    #[test]
    fn run_report_line_round_trips() {
        let mut s = Sample::lost("checksum \"x\" differs".into());
        s.wall_s = 1.25;
        s.phases = [1e-6, 1.0, 0.0];
        let back = Sample::from_line(&s.to_line()).expect("parses");
        assert_eq!(back.verdict, s.verdict);
        assert_eq!((back.wall_s, back.phases), (s.wall_s, s.phases));
        s.verdict = Ok(());
        assert_eq!(
            Sample::from_line(&s.to_line()).expect("parses").verdict,
            Ok(())
        );
    }

    #[test]
    fn setup_timing_repeats() {
        let t = setup_seconds(&Kind::Tiny.job(1), Duration::ZERO);
        assert_eq!(t.len(), 15);
        assert!(t.iter().all(|&s| s > 0.0));
    }
}
