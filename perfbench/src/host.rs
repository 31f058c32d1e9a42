//! Host-cost readings from Linux `/proc`: process CPU, per-thread CPU and
//! context switches, and peak resident set.
//!
//! Process CPU comes from `/proc/self/stat`, whose `utime`/`stime` include
//! threads that have already exited, so the simulator's workload threads
//! are counted after they are joined. Per-thread CPU comes from
//! `/proc/thread-self/schedstat` (nanoseconds).

use std::fs;

/// `USER_HZ`: the unit of `/proc/*/stat` CPU times. Fixed at 100 by the
/// Linux ABI on every architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time split into user and system seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl Cpu {
    /// CPU of the whole process so far, including exited threads.
    pub fn process() -> Cpu {
        let stat =
            fs::read_to_string("/proc/self/stat").expect("Linux /proc/self/stat is readable");
        // Fields after the parenthesised command name, which may hold spaces;
        // utime and stime are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .expect("/proc/self/stat has a command name")
            .1;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> f64 {
            f[i].parse::<u64>()
                .expect("/proc/self/stat CPU field is a count") as f64
        };
        Cpu {
            user_s: ticks(11) / TICKS_PER_S,
            sys_s: ticks(12) / TICKS_PER_S,
        }
    }

    /// User plus system seconds.
    pub fn total(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU spent since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// CPU and context switches of the calling thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadCost {
    /// On-CPU seconds (user + system).
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl ThreadCost {
    /// Reads the calling thread's counters.
    pub fn current() -> ThreadCost {
        let sched = fs::read_to_string("/proc/thread-self/schedstat")
            .expect("Linux /proc/thread-self/schedstat is readable");
        let ns: u64 = sched
            .split_whitespace()
            .next()
            .and_then(|s| s.parse().ok())
            .expect("schedstat starts with the on-CPU nanoseconds");
        let status = fs::read_to_string("/proc/thread-self/status")
            .expect("Linux /proc/thread-self/status is readable");
        ThreadCost {
            cpu_s: ns as f64 / 1e9,
            ctx_switches: status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:"),
        }
    }

    /// Cost incurred since `earlier` (same thread).
    pub fn since(self, earlier: ThreadCost) -> ThreadCost {
        ThreadCost {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// The numeric value of a `Key:  <n> [kB]` line of a `/proc` status file.
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc status has no numeric {key}"))
}

/// Resets the process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mb`] reading covers only what follows.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux >= 4.0). Where that is
    // refused, the peak covers the whole process instead, which only ever
    // overstates a run's peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status is readable");
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_monotone() {
        let a = Cpu::process();
        let t0 = ThreadCost::current();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let b = Cpu::process();
        let t = ThreadCost::current().since(t0);
        assert!(b.since(a).total() >= 0.0);
        assert!(t.cpu_s > 0.0, "a 30 ms spin must show on-CPU time");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn status_field_reads_counts_and_sizes() {
        let s = "Name:\tx\nVmHWM:\t  1832 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM:"), 1832);
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), 7);
    }
}
