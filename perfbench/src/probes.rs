//! Isolated layer probes, each sized from the traced run and each checking
//! itself against it.
//!
//! * front end: `ProcPort::call` round trips against an echo back end, and
//!   `ProcHarness::spawn` + `join`, at the workload's processor count;
//! * network: the traced run's flights replayed in injection order through
//!   a fresh `Network::transfer_timed`;
//! * event queue: `EventQueue` push+pop held at the run's peak depth.

use std::time::{Duration, Instant};

use ncp2::core::Flight;
use ncp2::net::Network;
use ncp2::sim::{EventQueue, Priority, ProcHarness, ProcOp, ProcReply, SysParams};

use crate::report::median;

/// Total `ProcPort::call` round trips per handoff probe, spread evenly over
/// the processors.
const HANDOFF_CALLS: usize = 16_384;

/// Echo round trips at `nprocs` workload threads: microseconds per call.
///
/// The back end serves the processors round-robin, as the simulator's
/// min-clock scheduling does, and replies to each `Read` with a value the
/// thread checks.
pub fn handoff_us(nprocs: usize) -> Result<f64, String> {
    let per = HANDOFF_CALLS.div_ceil(nprocs) as u64;
    let harness = ProcHarness::spawn(nprocs, move |pid, port| {
        for i in 0..per {
            let r = port.call(ProcOp::Read { addr: i, bytes: 8 });
            assert_eq!(r, ProcReply::Value(i ^ pid as u64), "echo reply mismatch");
        }
        port.call(ProcOp::Finish);
    });
    let t0 = Instant::now();
    for i in 0..per {
        for pid in 0..nprocs {
            match harness.next_op(pid) {
                ProcOp::Read { addr, .. } if addr == i => {
                    harness.reply(pid, ProcReply::Value(addr ^ pid as u64));
                }
                other => return Err(format!("processor {pid} sent {other:?} at call {i}")),
            }
        }
    }
    let elapsed = t0.elapsed();
    for pid in 0..nprocs {
        if harness.next_op(pid) != ProcOp::Finish {
            return Err(format!("processor {pid} did not finish"));
        }
        harness.reply(pid, ProcReply::Ack);
    }
    harness.join();
    Ok(elapsed.as_secs_f64() * 1e6 / (per * nprocs as u64) as f64)
}

/// `ProcHarness::spawn` + `join` of `nprocs` threads that only finish:
/// median milliseconds over five repetitions.
pub fn spawn_join_ms(nprocs: usize) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let harness = ProcHarness::spawn(nprocs, |_, port| {
                port.call(ProcOp::Finish);
            });
            for pid in 0..nprocs {
                let op = harness.next_op(pid);
                assert_eq!(op, ProcOp::Finish, "idle thread sent {op:?}");
                harness.reply(pid, ProcReply::Ack);
            }
            harness.join();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Replays `flights` in injection order through fresh networks of
/// `nprocs` nodes: median nanoseconds per transfer over repetitions
/// lasting at least `budget`. Fails unless every replay makes exactly one
/// transfer per recorded flight.
pub fn replay_ns_per_msg(
    flights: &[Flight],
    nprocs: usize,
    budget: Duration,
) -> Result<f64, String> {
    if flights.is_empty() {
        return Err("the traced run recorded no flights".into());
    }
    let mut order: Vec<&Flight> = flights.iter().collect();
    order.sort_by_key(|f| f.inject);
    let params = SysParams::default().with_nprocs(nprocs);
    let start = Instant::now();
    let mut per_msg = Vec::new();
    while per_msg.len() < 3 || start.elapsed() < budget {
        let mut net = Network::new(nprocs);
        let t0 = Instant::now();
        let mut last = 0;
        for f in &order {
            last = net
                .transfer_timed(f.inject, f.src, f.dst, f.bytes, &params)
                .arrival;
        }
        per_msg.push(t0.elapsed().as_secs_f64() * 1e9 / order.len() as f64);
        std::hint::black_box(last);
        let made = net.stats().messages;
        if made != order.len() as u64 {
            return Err(format!(
                "replay made {made} transfers for {} recorded flights",
                order.len()
            ));
        }
    }
    Ok(median(&per_msg))
}

/// Push+pop pairs per queue probe repetition.
const QUEUE_PAIRS: u64 = 400_000;

/// An `EventQueue` held at `depth` pending events: each step pops the
/// earliest event and pushes one a pseudo-random distance later. Median
/// nanoseconds per push+pop over five repetitions. Fails if the queue
/// ever pops out of time order or changes depth.
pub fn push_pop_ns(depth: usize) -> Result<f64, String> {
    let depth = depth.max(1);
    let mut times = Vec::new();
    for rep in 0..5u64 {
        let mut rng = 0x2545_F491_4F6C_DD1D_u64 ^ rep;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % 4096
        };
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth as u64 {
            q.push(next(), Priority::Normal, i);
        }
        let mut now = 0;
        let t0 = Instant::now();
        for _ in 0..QUEUE_PAIRS {
            let e = q.pop().ok_or("queue ran dry")?;
            if e.time < now {
                return Err(format!("popped time {} after {now}", e.time));
            }
            now = e.time;
            q.push(now + 1 + next(), Priority::Normal, e.payload);
        }
        times.push(t0.elapsed().as_secs_f64() * 1e9 / QUEUE_PAIRS as f64);
        if q.len() != depth {
            return Err(format!("queue depth drifted to {}", q.len()));
        }
    }
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_and_spawn_probes_run_at_small_counts() {
        assert!(handoff_us(3).expect("echo holds") > 0.0);
        assert!(spawn_join_ms(3) > 0.0);
    }

    #[test]
    fn queue_probe_holds_depth() {
        assert!(push_pop_ns(64).expect("order and depth hold") > 0.0);
    }

    #[test]
    fn replay_refuses_an_empty_flight_log() {
        assert!(replay_ns_per_msg(&[], 4, Duration::ZERO).is_err());
    }
}
