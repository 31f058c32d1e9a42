//! Workload framework: typed shared-memory access, shared-address
//! allocation, and the harness that runs a workload under a protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ncp2_core::{Protocol, RunResult, Simulation};
use ncp2_sim::{Cycles, ProcOp, ProcPort, SvcClass, SvcOp, SysParams};

/// A workload from the paper's application suite.
///
/// Implementations must be deterministic: the same configuration must issue
/// the same reference stream and produce the same checksum on any processor
/// count (see the crate docs for the fixed-point / fixed-order conventions).
pub trait Workload: Send + Sync + 'static {
    /// Display name as used in the paper's figures ("TSP", "Water", ...).
    fn name(&self) -> &'static str;

    /// The per-processor program. Runs on every simulated processor;
    /// returns this processor's checksum contribution (by convention only
    /// processor 0 reads the final state and returns non-zero, so checksums
    /// are independent of the processor count).
    fn run(&self, ctx: &mut Ctx<'_>) -> u64;

    /// Shared address ranges with *intentional* benign races, exempted from
    /// happens-before race detection. The canonical case is TSP's
    /// branch-and-bound bound, re-read optimistically outside its lock: a
    /// stale read only weakens pruning, never correctness. Empty for the
    /// (default) properly-synchronized workloads.
    fn racy_ranges(&self) -> Vec<std::ops::Range<u64>> {
        Vec::new()
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn run(&self, ctx: &mut Ctx<'_>) -> u64 {
        self.as_ref().run(ctx)
    }

    fn racy_ranges(&self) -> Vec<std::ops::Range<u64>> {
        self.as_ref().racy_ranges()
    }
}

/// Bump allocator for laying out the shared address space **before** the
/// simulation starts (all processors compute the same layout).
///
/// ```
/// use ncp2_apps::Alloc;
/// let mut a = Alloc::new();
/// let x = a.array_u32(100);     // 400 bytes, 8-aligned
/// let y = a.page_aligned_array_f64(10);
/// assert_eq!(x % 8, 0);
/// assert_eq!(y % 4096, 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Alloc {
    next: u64,
}

impl Alloc {
    /// Starts allocating at address zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `bytes` with the given alignment; returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn bytes(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = self.next.div_ceil(align) * align;
        self.next = base + bytes;
        base
    }

    /// An 8-aligned array of `n` u32 values.
    pub fn array_u32(&mut self, n: u64) -> u64 {
        self.bytes(4 * n, 8)
    }

    /// An 8-aligned array of `n` u64/f64 values.
    pub fn array_u64(&mut self, n: u64) -> u64 {
        self.bytes(8 * n, 8)
    }

    /// A page-aligned array of `n` u32 values (avoids cross-region false
    /// sharing where the original allocator would have).
    pub fn page_aligned_array_u32(&mut self, n: u64) -> u64 {
        self.bytes(4 * n, 4096)
    }

    /// A page-aligned array of `n` u64/f64 values.
    pub fn page_aligned_array_f64(&mut self, n: u64) -> u64 {
        self.bytes(8 * n, 4096)
    }

    /// Total bytes laid out so far.
    pub fn used(&self) -> u64 {
        self.next
    }
}

/// Per-processor execution context handed to [`Workload::run`].
///
/// Wraps the raw [`ProcPort`] with typed accessors. Every method is one or
/// more simulated operations; nothing here touches real shared state.
pub struct Ctx<'a> {
    port: &'a ProcPort,
    /// This processor's id.
    pub pid: usize,
    /// Total simulated processors.
    pub nprocs: usize,
}

impl<'a> Ctx<'a> {
    /// Wraps a port (used by the harness; workload code receives this).
    pub fn new(port: &'a ProcPort, pid: usize, nprocs: usize) -> Self {
        Ctx { port, pid, nprocs }
    }

    /// Burns `cycles` of local computation (private data + ALU work).
    pub fn compute(&self, cycles: Cycles) {
        if cycles > 0 {
            self.port.call(ProcOp::Compute(cycles));
        }
    }

    /// Reads a shared u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.port.call(ProcOp::Read { addr, bytes: 4 }).value() as u32
    }

    /// Writes a shared u32.
    pub fn write_u32(&self, addr: u64, v: u32) {
        self.port.call(ProcOp::Write {
            addr,
            bytes: 4,
            value: v as u64,
        });
    }

    /// Reads a shared u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.port.call(ProcOp::Read { addr, bytes: 8 }).value()
    }

    /// Writes a shared u64.
    pub fn write_u64(&self, addr: u64, v: u64) {
        self.port.call(ProcOp::Write {
            addr,
            bytes: 8,
            value: v,
        });
    }

    /// Reads a shared i64 (fixed-point convention).
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes a shared i64.
    pub fn write_i64(&self, addr: u64, v: i64) {
        self.write_u64(addr, v as u64);
    }

    /// Reads a shared f64 (bit pattern in a u64 cell).
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes a shared f64.
    pub fn write_f64(&self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Acquires a DSM lock.
    pub fn lock(&self, id: u32) {
        self.port.call(ProcOp::Lock(id));
    }

    /// Releases a DSM lock.
    pub fn unlock(&self, id: u32) {
        self.port.call(ProcOp::Unlock(id));
    }

    /// Global barrier (all processors must call it the same number of
    /// times, in the same program order).
    pub fn barrier(&self) {
        self.port.call(ProcOp::Barrier(0));
    }

    /// Reads this processor's current simulated clock (zero simulated
    /// cost). The open-loop service workload uses it to compute idle gaps
    /// and per-request response times in simulated cycles.
    pub fn now(&self) -> Cycles {
        self.port.call(ProcOp::Svc(SvcOp::Now)).value()
    }

    /// Marks a service-request dequeue; `depth` is this node's backlog
    /// (arrived, not yet served) after the dequeue. Zero simulated cost;
    /// feeds the `svc_queue_depth` time-series gauge and the trace.
    pub fn svc_dequeue(&self, depth: u64) {
        self.port.call(ProcOp::Svc(SvcOp::Dequeue { depth }));
    }

    /// Marks a service-request completion with its open-loop response time
    /// (completion − arrival, queueing included). Zero simulated cost;
    /// feeds the run's response-time histogram.
    pub fn svc_reply(&self, class: SvcClass, response: Cycles) {
        self.port
            .call(ProcOp::Svc(SvcOp::Reply { class, response }));
    }

    /// The contiguous block `[lo, hi)` of `total` items owned by this
    /// processor under a block partition.
    pub fn block_range(&self, total: u64) -> (u64, u64) {
        let per = total.div_ceil(self.nprocs as u64);
        let lo = (self.pid as u64 * per).min(total);
        let hi = ((self.pid as u64 + 1) * per).min(total);
        (lo, hi)
    }
}

/// Runs `app` under `protocol` on the machine described by `params` and
/// returns the run statistics (with the workload checksum filled in).
pub fn run_app<W: Workload>(params: SysParams, protocol: Protocol, app: W) -> RunResult {
    run_app_with(params, protocol, app, |_| {})
}

/// Like [`run_app`], but lets `configure` adjust the freshly built
/// [`Simulation`] before it runs — e.g. to attach a `verify` observer or arm
/// a fault-injection hook.
pub fn run_app_with<W: Workload>(
    params: SysParams,
    protocol: Protocol,
    app: W,
    configure: impl FnOnce(&mut Simulation),
) -> RunResult {
    let nprocs = params.nprocs;
    let app = Arc::new(app);
    let checksum = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(params, protocol);
    configure(&mut sim);
    let app2 = Arc::clone(&app);
    let ck = Arc::clone(&checksum);
    let mut result = sim.run(move |pid, port| {
        let mut ctx = Ctx::new(&port, pid, nprocs);
        let v = app2.run(&mut ctx);
        ck.fetch_xor(v, Ordering::SeqCst);
        port.call(ProcOp::Finish);
    });
    result.checksum = checksum.load(Ordering::SeqCst);
    result
}

/// Runs `app` on a single processor with the DSM disabled — the paper's
/// sequential baseline for speedup curves and checksum validation.
pub fn sequential_baseline<W: Workload>(params: &SysParams, app: W) -> RunResult {
    let seq = params.clone().with_nprocs(1);
    run_app(seq, Protocol::TreadMarks(ncp2_core::OverlapMode::Base), app)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_order() {
        let mut a = Alloc::new();
        let x = a.bytes(10, 8);
        let y = a.bytes(10, 8);
        assert_eq!(x, 0);
        assert_eq!(y, 16);
        let z = a.bytes(1, 4096);
        assert_eq!(z, 4096);
        assert_eq!(a.used(), 4097);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn alloc_rejects_bad_alignment() {
        Alloc::new().bytes(8, 3);
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for total in [0u64, 1, 7, 64, 100] {
            for n in [1usize, 3, 4, 16] {
                let mut covered = 0;
                for pid in 0..n {
                    let per = total.div_ceil(n as u64);
                    let lo = (pid as u64 * per).min(total);
                    let hi = ((pid as u64 + 1) * per).min(total);
                    covered += hi - lo;
                }
                assert_eq!(covered, total, "partition of {total} over {n}");
            }
        }
    }

    #[test]
    fn trivial_workload_round_trips_checksum() {
        struct W;
        impl Workload for W {
            fn name(&self) -> &'static str {
                "W"
            }
            fn run(&self, ctx: &mut Ctx<'_>) -> u64 {
                if ctx.pid == 0 {
                    ctx.write_u64(0, 0xDEAD);
                }
                ctx.barrier();
                let v = ctx.read_u64(0);
                ctx.barrier();
                if ctx.pid == 0 {
                    v
                } else {
                    assert_eq!(v, 0xDEAD);
                    0
                }
            }
        }
        let r = run_app(
            SysParams::default().with_nprocs(4),
            Protocol::TreadMarks(ncp2_core::OverlapMode::Base),
            W,
        );
        assert_eq!(r.checksum, 0xDEAD);
        let seq = sequential_baseline(&SysParams::default(), W);
        assert_eq!(seq.checksum, 0xDEAD);
        assert_eq!(seq.nprocs, 1);
    }

    #[test]
    #[should_panic(expected = "processor 1 gave up after reading 0")]
    fn workload_panic_message_reaches_the_caller() {
        struct Quitter;
        impl Workload for Quitter {
            fn name(&self) -> &'static str {
                "Quitter"
            }
            fn run(&self, ctx: &mut Ctx<'_>) -> u64 {
                let v = ctx.read_u64(0);
                if ctx.pid == 1 {
                    panic!("processor 1 gave up after reading {v}");
                }
                ctx.barrier();
                v
            }
        }
        run_app(
            SysParams::default().with_nprocs(2),
            Protocol::TreadMarks(ncp2_core::OverlapMode::Base),
            Quitter,
        );
    }
}
