//! The benchmark's workloads and the seed-to-input mapping.
//!
//! Each workload is one engine [`Job`] built from the `--seed` argument; the
//! simulator receives only the generated inputs (Em3d graph seed, Water
//! molecule seed, fault-plan seed). Ocean has no random input.

use ncp2::prelude::*;
use ncp2_bench::engine::{Grid, Job, WorkloadSpec};
use ncp2_fault::{FaultPlan, LinkWindow};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out while the benchmark was written: later claims are
/// re-checked on it. Both seeds pass the correctness gate.
pub const HELD_OUT_SEED: u64 = 20_260_417;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Handoff-bound: many shared references, few messages. Runnable by
    /// hand; not in `BENCHMARK.json` (see the README's "Dropped workload").
    Ocean16,
    /// Back-end-bound: hundreds of thousands of messages on 256 nodes.
    Em3d256,
    /// Transport and sinks: fault plan, oracle, spans and time series on.
    Water16Chaos,
    /// A few-millisecond Ocean used only by the benchmark's own tests.
    Tiny,
}

impl Kind {
    /// The workloads `BENCHMARK.json` names, in its order.
    #[cfg(test)]
    pub const PUBLISHED: [Kind; 2] = [Kind::Em3d256, Kind::Water16Chaos];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::Ocean16, Kind::Em3d256, Kind::Water16Chaos, Kind::Tiny]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ocean16 => "ocean16",
            Kind::Em3d256 => "em3d256",
            Kind::Water16Chaos => "water16-chaos",
            Kind::Tiny => "tiny",
        }
    }

    /// Simulated processors, and so workload threads per run.
    pub fn nprocs(self) -> usize {
        match self {
            Kind::Ocean16 | Kind::Water16Chaos => 16,
            Kind::Em3d256 => 256,
            Kind::Tiny => 4,
        }
    }

    /// Whether the instrumentation sinks (spans, time series, oracle) are
    /// on in the measured runs.
    pub fn sinks(self) -> bool {
        self == Kind::Water16Chaos
    }

    /// The measured run for `seed`: sinks as the workload defines them,
    /// result cache irrelevant (the engine runs with it off).
    pub fn job(self, seed: u64) -> Job {
        let (protocol, fault) = match self {
            Kind::Ocean16 | Kind::Tiny => (Protocol::TreadMarks(OverlapMode::Base), None),
            Kind::Em3d256 => (Protocol::TreadMarks(OverlapMode::IPD), None),
            Kind::Water16Chaos => (
                Protocol::TreadMarks(OverlapMode::IPD),
                Some(chaos_plan(mix(seed, 3))),
            ),
        };
        Job {
            label: self.name().to_string(),
            params: SysParams::default().with_nprocs(self.nprocs()),
            protocol,
            workload: self.spec(seed),
            obs: self.sinks(),
            fault: fault.unwrap_or_else(FaultPlan::none),
            verify: self.sinks(),
            timeseries: self.sinks(),
        }
    }

    /// The traced run: the measured run with spans and the time series on.
    pub fn traced_job(self, seed: u64) -> Job {
        Job {
            obs: true,
            timeseries: true,
            ..self.job(seed)
        }
    }

    /// The sequential reference for `seed`: the same inputs on one
    /// processor under Base, no faults, no sinks. Checksums are invariant
    /// across mode and processor count, so every run must match it.
    pub fn reference_job(self, seed: u64) -> Job {
        let mut grid = Grid::new();
        let app = self.spec(seed).build().name();
        let i = grid.sequential(&SysParams::default(), app, false);
        let mut job = grid.jobs.swap_remove(i);
        job.workload = self.spec(seed);
        job
    }

    fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            Kind::Ocean16 => WorkloadSpec::Ocean(Ocean::default()),
            Kind::Tiny => WorkloadSpec::Ocean(Ocean { grid: 16, iters: 2 }),
            Kind::Em3d256 => WorkloadSpec::Em3d(Em3d {
                nodes: 512,
                degree: 2,
                remote_pct: 25,
                iters: 2,
                seed: mix(seed, 1),
            }),
            Kind::Water16Chaos => WorkloadSpec::Water(Water {
                seed: mix(seed, 2),
                ..Water::default()
            }),
        }
    }
}

/// The `chaos_report --check` fault plan: 1% drop, 0.5% duplicate, 0.5%
/// detected corruption, ack loss, and one latency spike on link 0→1 that
/// reorders in-flight frames.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_permille: 10,
        dup_permille: 5,
        corrupt_permille: 5,
        ack_faults: true,
        spikes: vec![LinkWindow {
            src: 0,
            dst: 1,
            start: 0,
            end: 500_000,
            extra: 3_000,
        }],
        ..FaultPlan::none()
    }
}

/// Derives one input seed per `salt` from the benchmark seed (SplitMix64
/// finaliser), so every `--seed`, 0 included, gives well-mixed inputs.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back() {
        for k in Kind::PUBLISHED {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn seed_drives_inputs_and_is_reproducible() {
        let a = format!("{:?}", Kind::Em3d256.job(1).workload);
        assert_eq!(a, format!("{:?}", Kind::Em3d256.job(1).workload));
        assert_ne!(a, format!("{:?}", Kind::Em3d256.job(2).workload));
        let f = |s| Kind::Water16Chaos.job(s).fault.seed;
        assert_eq!(f(7), f(7));
        assert_ne!(f(7), f(8));
        assert!(Kind::Water16Chaos.job(0).fault.validate().is_ok());
    }

    #[test]
    fn reference_is_sequential_with_the_same_inputs() {
        let r = Kind::Water16Chaos.reference_job(5);
        let m = Kind::Water16Chaos.job(5);
        assert_eq!(r.params.nprocs, 1);
        assert!(!r.fault.is_active() && !r.obs && !r.verify);
        assert_eq!(format!("{:?}", r.workload), format!("{:?}", m.workload));
    }
}
