//! Run-ahead front end: real Rust workload threads driving simulated
//! processors.
//!
//! Each simulated computation processor is an OS thread executing actual
//! workload code. The back end consumes each processor's [`ProcOp`]s one at
//! a time, in program order, and completes each at the simulated instant it
//! chooses. Only two operations return a value: [`ProcOp::Read`] and
//! [`SvcOp::Now`](crate::SvcOp::Now). A workload thread blocks on those
//! until the back end answers. Every other operation is posted to a bounded
//! per-processor FIFO and acknowledged at once, so the thread runs ahead to
//! its next value-returning operation, and blocks earlier only when its
//! cap of 64 posted operations is already waiting.
//!
//! Run-ahead cannot change a simulated result. A workload's operation
//! stream depends only on the values its reads return, workloads share no
//! host state, and the back end resumes exactly one processor at a time
//! (the one with the smallest local clock), consuming its operations in the
//! order they were issued. So the simulation is fully deterministic despite
//! using threads.
//!
//! Each processor's handoff is one slot: the FIFO plus a reply cell behind a
//! [`Mutex`]. A side that must wait parks its thread, and the other side
//! unparks it only when it is parked on that slot.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};

use crate::ops::{ProcId, ProcOp, ProcReply, SvcOp};

/// Most operations a workload thread may have posted and not yet consumed
/// by the back end. The FIFO grows on demand up to this cap.
const RUN_AHEAD: usize = 64;

/// Scheduling state of a simulated processor, tracked by back ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcStatus {
    /// Has (or will have) a pending operation to execute.
    #[default]
    Runnable,
    /// Waiting on the protocol (fault service, lock grant, barrier...).
    Blocked,
    /// Issued [`ProcOp::Finish`].
    Done,
}

/// Whether the back end answers `op` with a [`ProcReply::Value`] the
/// workload thread must wait for.
fn returns_value(op: &ProcOp) -> bool {
    matches!(op, ProcOp::Read { .. } | ProcOp::Svc(SvcOp::Now))
}

/// How a workload thread's body ended.
#[derive(Debug)]
enum Exit {
    Returned,
    Panicked(String),
}

/// One processor's handoff state, shared by its workload thread and the
/// back end.
#[derive(Debug, Default)]
struct SlotState {
    /// Posted operations the back end has not consumed, oldest first.
    ops: VecDeque<ProcOp>,
    /// The reply to the value-returning operation the worker waits on.
    reply: Option<ProcReply>,
    /// The back end, parked until this worker posts an operation or exits.
    backend: Option<Thread>,
    /// The worker, parked until the FIFO has room.
    room_waiter: Option<Thread>,
    /// The worker, parked until its reply arrives.
    reply_waiter: Option<Thread>,
    /// Set once the worker's body has returned or panicked.
    exit: Option<Exit>,
    /// Set once the back end has gone away: the worker must not wait.
    gone: bool,
}

#[derive(Debug, Default)]
struct Slot(Mutex<SlotState>);

impl Slot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // No code panics while holding the guard, and every critical
        // section leaves the state consistent, so a poisoned lock is safe
        // to use (and `Drop` must not panic on one).
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks the worker in `waiter` until the back end unparks it, then
    /// relocks. `handoff`, the back end if it waits on this worker, is
    /// unparked after the lock is released.
    ///
    /// # Panics
    ///
    /// Panics if the back end has gone away (simulation aborted).
    fn park_worker<'a>(
        &'a self,
        mut s: MutexGuard<'a, SlotState>,
        waiter: fn(&mut SlotState) -> &mut Option<Thread>,
        handoff: Option<Thread>,
    ) -> MutexGuard<'a, SlotState> {
        if s.gone {
            drop(s);
            panic!("simulation back end terminated");
        }
        *waiter(&mut s) = Some(std::thread::current());
        drop(s);
        unpark(handoff);
        std::thread::park();
        self.lock()
    }

    /// Records how the worker ended and wakes the back end if it waits on
    /// this worker.
    fn exit(&self, exit: Exit) {
        let mut s = self.lock();
        s.exit = Some(exit);
        let backend = s.backend.take();
        drop(s);
        unpark(backend);
    }
}

/// Unparks `thread` if there is one. Callers take the handle under the slot
/// lock and unpark after releasing it, so the woken thread does not block
/// on the lock.
fn unpark(thread: Option<Thread>) {
    if let Some(t) = thread {
        t.unpark();
    }
}

/// The text of a panic payload, as `panic!` with a literal or a format
/// string produces it.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Workload-side handle: issues operations and receives replies.
///
/// Handed to the workload closure by [`ProcHarness::spawn`]; workloads
/// normally use the ergonomic wrappers in `ncp2-apps` rather than calling
/// [`ProcPort::call`] directly.
#[derive(Debug)]
pub struct ProcPort {
    slot: Arc<Slot>,
}

impl ProcPort {
    /// Issues one operation.
    ///
    /// A value-returning operation ([`ProcOp::Read`],
    /// [`SvcOp::Now`](crate::SvcOp::Now)) blocks until the back end
    /// completes it. Any other operation is posted for the back end and
    /// returns [`ProcReply::Ack`] at once; it blocks only while the
    /// processor already has its cap of operations posted.
    ///
    /// # Panics
    ///
    /// Panics if the back end has gone away (simulation aborted).
    pub fn call(&self, op: ProcOp) -> ProcReply {
        let mut s = self.slot.lock();
        while s.ops.len() >= RUN_AHEAD {
            s = self.slot.park_worker(s, |s| &mut s.room_waiter, None);
        }
        s.ops.push_back(op);
        let mut backend = s.backend.take();
        if !returns_value(&op) {
            drop(s);
            unpark(backend);
            return ProcReply::Ack;
        }
        loop {
            if let Some(reply) = s.reply.take() {
                return reply;
            }
            s = self
                .slot
                .park_worker(s, |s| &mut s.reply_waiter, backend.take());
        }
    }
}

/// Owns the workload threads and the per-processor handoff slots.
///
/// ```
/// use ncp2_sim::{ProcHarness, ProcOp, ProcReply};
///
/// let harness = ProcHarness::spawn(2, |pid, port| {
///     port.call(ProcOp::Compute(10 * (pid as u64 + 1)));
///     port.call(ProcOp::Finish);
/// });
/// for pid in 0..2 {
///     assert!(matches!(harness.next_op(pid), ProcOp::Compute(_)));
///     harness.reply(pid, ProcReply::Ack);
///     assert_eq!(harness.next_op(pid), ProcOp::Finish);
///     harness.reply(pid, ProcReply::Ack);
/// }
/// harness.join();
/// ```
#[derive(Debug)]
pub struct ProcHarness {
    slots: Vec<Arc<Slot>>,
    /// Per processor: the back end consumed a value-returning operation and
    /// owes its reply. Only the back-end thread touches it.
    owed: Vec<Cell<bool>>,
    threads: Vec<JoinHandle<()>>,
}

impl ProcHarness {
    /// Spawns `n` workload threads, each running `body(pid, port)`.
    ///
    /// The body **must** end by issuing [`ProcOp::Finish`] (and may not issue
    /// anything afterwards). A panic in the body is caught on its thread and
    /// raised by [`next_op`](Self::next_op) once the back end has consumed
    /// every operation posted before it.
    pub fn spawn<F>(n: usize, body: F) -> Self
    where
        F: Fn(ProcId, ProcPort) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let slots: Vec<Arc<Slot>> = (0..n).map(|_| Arc::default()).collect();
        let threads = slots
            .iter()
            .enumerate()
            .map(|(pid, slot)| {
                let body = Arc::clone(&body);
                let slot = Arc::clone(slot);
                std::thread::Builder::new()
                    .name(format!("ncp2-proc-{pid}"))
                    .spawn(move || {
                        let port = ProcPort {
                            slot: Arc::clone(&slot),
                        };
                        let exit = match catch_unwind(AssertUnwindSafe(|| body(pid, port))) {
                            Ok(()) => Exit::Returned,
                            Err(payload) => Exit::Panicked(panic_message(&*payload)),
                        };
                        slot.exit(exit);
                    })
                    .expect("failed to spawn workload thread")
            })
            .collect();
        ProcHarness {
            owed: (0..n).map(|_| Cell::new(false)).collect(),
            slots,
            threads,
        }
    }

    /// Number of simulated processors.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the harness drives zero processors.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Takes the next operation from processor `pid`, blocking until the
    /// workload thread posts one.
    ///
    /// # Panics
    ///
    /// Panics with the workload's own message if its thread panicked, and
    /// if it exited without issuing [`ProcOp::Finish`]. Panics if the back
    /// end still owes `pid` the reply to a value-returning operation.
    pub fn next_op(&self, pid: ProcId) -> ProcOp {
        assert!(
            !self.owed[pid].get(),
            "back end asked processor {pid} for an op before replying to its read"
        );
        let slot = &self.slots[pid];
        let mut s = slot.lock();
        loop {
            if let Some(op) = s.ops.pop_front() {
                // A worker parked on a full FIFO waits until half of it has
                // drained, so it refills in bursts, not one op per wake-up.
                let worker = if s.ops.len() <= RUN_AHEAD / 2 {
                    s.room_waiter.take()
                } else {
                    None
                };
                drop(s);
                unpark(worker);
                self.owed[pid].set(returns_value(&op));
                return op;
            }
            if let Some(exit) = &s.exit {
                let why = match exit {
                    Exit::Panicked(msg) => format!("panicked: {msg}"),
                    Exit::Returned => "returned before Finish".to_string(),
                };
                drop(s);
                panic!("workload thread {pid} {why}");
            }
            s.backend = Some(std::thread::current());
            drop(s);
            std::thread::park();
            s = slot.lock();
        }
    }

    /// Completes processor `pid`'s pending operation.
    ///
    /// Only a value-returning operation has a workload thread waiting on
    /// it; the reply to any other operation is dropped (it is always
    /// [`ProcReply::Ack`]).
    pub fn reply(&self, pid: ProcId, reply: ProcReply) {
        if !self.owed[pid].replace(false) {
            debug_assert_eq!(
                reply,
                ProcReply::Ack,
                "value reply to processor {pid}, which waits on none"
            );
            return;
        }
        let mut s = self.slots[pid].lock();
        s.reply = Some(reply);
        let worker = s.reply_waiter.take();
        drop(s);
        unpark(worker);
    }

    /// Joins all workload threads, propagating any workload panic.
    ///
    /// # Panics
    ///
    /// Panics if any workload thread panicked.
    pub fn join(mut self) {
        self.release();
        for t in std::mem::take(&mut self.threads) {
            // invariant: the body's unwind is caught on its own thread
            t.join().expect("workload thread wrapper panicked");
        }
        for (pid, slot) in self.slots.iter().enumerate() {
            let panicked = match &slot.lock().exit {
                Some(Exit::Panicked(msg)) => Some(msg.clone()),
                _ => None,
            };
            if let Some(msg) = panicked {
                panic!("workload thread {pid} panicked: {msg}");
            }
        }
    }

    /// Marks every slot gone and unparks its worker, so a worker parked on
    /// a reply or on a full FIFO panics and exits.
    fn release(&self) {
        for slot in &self.slots {
            let mut s = slot.lock();
            s.gone = true;
            let waiters = [s.room_waiter.take(), s.reply_waiter.take()];
            drop(s);
            waiters.into_iter().for_each(unpark);
        }
    }
}

impl Drop for ProcHarness {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Spins until `cond` holds on processor `pid`'s slot.
    fn wait_for(harness: &ProcHarness, pid: ProcId, cond: fn(&SlotState) -> bool) {
        while !cond(&harness.slots[pid].lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn round_trip_many_ops() {
        let harness = ProcHarness::spawn(4, |pid, port| {
            for i in 0..100u64 {
                let r = port.call(ProcOp::Read {
                    addr: i * 4,
                    bytes: 4,
                });
                assert_eq!(r.value(), i + pid as u64);
            }
            port.call(ProcOp::Finish);
        });
        // Interleave processors round-robin.
        let mut counts = [0u64; 4];
        let mut done = 0;
        while done < 4 {
            for (pid, count) in counts.iter_mut().enumerate() {
                if *count > 100 {
                    continue;
                }
                match harness.next_op(pid) {
                    ProcOp::Read { addr, bytes: 4 } => {
                        assert_eq!(addr, *count * 4);
                        harness.reply(pid, ProcReply::Value(*count + pid as u64));
                        *count += 1;
                    }
                    ProcOp::Finish => {
                        harness.reply(pid, ProcReply::Ack);
                        *count = 101;
                        done += 1;
                    }
                    other => panic!("unexpected op {other:?}"),
                }
            }
        }
        harness.join();
    }

    #[test]
    fn pipelining_does_not_deadlock() {
        // The workload posts its next op before the back end asks for it.
        let harness = ProcHarness::spawn(1, |_, port| {
            port.call(ProcOp::Compute(1));
            port.call(ProcOp::Compute(2));
            port.call(ProcOp::Finish);
        });
        assert_eq!(harness.next_op(0), ProcOp::Compute(1));
        harness.reply(0, ProcReply::Ack);
        assert_eq!(harness.next_op(0), ProcOp::Compute(2));
        harness.reply(0, ProcReply::Ack);
        assert_eq!(harness.next_op(0), ProcOp::Finish);
        harness.reply(0, ProcReply::Ack);
        harness.join();
    }

    #[test]
    fn acks_beyond_the_cap_then_a_read_arrive_in_order() {
        let writes = 3 * RUN_AHEAD as u64 + 5;
        let harness = ProcHarness::spawn(1, move |_, port| {
            for i in 0..writes {
                let r = port.call(ProcOp::Write {
                    addr: i,
                    bytes: 8,
                    value: i,
                });
                assert_eq!(r, ProcReply::Ack);
            }
            let v = port.call(ProcOp::Read { addr: 0, bytes: 8 }).value();
            port.call(ProcOp::Compute(v));
            port.call(ProcOp::Finish);
        });
        for i in 0..writes {
            assert_eq!(
                harness.next_op(0),
                ProcOp::Write {
                    addr: i,
                    bytes: 8,
                    value: i
                }
            );
            harness.reply(0, ProcReply::Ack);
        }
        assert_eq!(harness.next_op(0), ProcOp::Read { addr: 0, bytes: 8 });
        harness.reply(0, ProcReply::Value(77));
        assert_eq!(harness.next_op(0), ProcOp::Compute(77));
        harness.reply(0, ProcReply::Ack);
        assert_eq!(harness.next_op(0), ProcOp::Finish);
        harness.reply(0, ProcReply::Ack);
        harness.join();
    }

    #[test]
    fn posted_ops_never_exceed_the_cap() {
        let total = 2 * RUN_AHEAD + 3;
        let returned = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&returned);
        let harness = ProcHarness::spawn(1, move |_, port| {
            for i in 0..total as u64 {
                port.call(ProcOp::Compute(i + 1));
                counter.fetch_add(1, Ordering::SeqCst);
            }
            port.call(ProcOp::Finish);
        });
        // The worker fills the FIFO and parks on it before any op is taken.
        wait_for(&harness, 0, |s| s.room_waiter.is_some());
        assert_eq!(harness.slots[0].lock().ops.len(), RUN_AHEAD);
        assert_eq!(returned.load(Ordering::SeqCst), RUN_AHEAD);
        for consumed in 1..=total {
            assert_eq!(harness.next_op(0), ProcOp::Compute(consumed as u64));
            harness.reply(0, ProcReply::Ack);
            assert!(harness.slots[0].lock().ops.len() <= RUN_AHEAD);
            // Each returned call posted an op; at most the cap are unconsumed.
            assert!(returned.load(Ordering::SeqCst) <= consumed + RUN_AHEAD);
        }
        assert_eq!(harness.next_op(0), ProcOp::Finish);
        harness.join();
    }

    #[test]
    fn value_ops_block_until_their_value_arrives() {
        let harness = ProcHarness::spawn(1, |_, port| {
            port.call(ProcOp::Compute(1));
            let v = port.call(ProcOp::Read { addr: 8, bytes: 8 }).value();
            port.call(ProcOp::Compute(v));
            let now = port.call(ProcOp::Svc(SvcOp::Now)).value();
            port.call(ProcOp::Compute(now));
            port.call(ProcOp::Finish);
        });
        assert_eq!(harness.next_op(0), ProcOp::Compute(1));
        harness.reply(0, ProcReply::Ack);
        assert_eq!(harness.next_op(0), ProcOp::Read { addr: 8, bytes: 8 });
        // Parked on the read with nothing posted behind it.
        wait_for(&harness, 0, |s| s.reply_waiter.is_some());
        assert!(harness.slots[0].lock().ops.is_empty());
        harness.reply(0, ProcReply::Value(5));
        assert_eq!(harness.next_op(0), ProcOp::Compute(5));
        harness.reply(0, ProcReply::Ack);
        assert_eq!(harness.next_op(0), ProcOp::Svc(SvcOp::Now));
        wait_for(&harness, 0, |s| s.reply_waiter.is_some());
        assert!(harness.slots[0].lock().ops.is_empty());
        harness.reply(0, ProcReply::Value(9));
        assert_eq!(harness.next_op(0), ProcOp::Compute(9));
        harness.reply(0, ProcReply::Ack);
        assert_eq!(harness.next_op(0), ProcOp::Finish);
        harness.join();
    }

    #[test]
    #[should_panic(expected = "workload thread 0 panicked: static message")]
    fn workload_panic_is_raised_after_its_posted_ops() {
        let harness = ProcHarness::spawn(1, |_, port| {
            port.call(ProcOp::Compute(1));
            panic!("static message");
        });
        assert_eq!(harness.next_op(0), ProcOp::Compute(1));
        harness.reply(0, ProcReply::Ack);
        harness.next_op(0);
    }

    #[test]
    fn dropping_the_harness_releases_parked_workers() {
        /// Signals on drop, so it fires when the worker's body unwinds.
        struct Exited(mpsc::Sender<ProcId>, ProcId);
        impl Drop for Exited {
            fn drop(&mut self) {
                let _ = self.0.send(self.1);
            }
        }
        let (tx, rx) = mpsc::channel();
        let harness = ProcHarness::spawn(2, move |pid, port| {
            let _guard = Exited(tx.clone(), pid);
            if pid == 0 {
                port.call(ProcOp::Read { addr: 0, bytes: 8 });
            }
            loop {
                port.call(ProcOp::Compute(1));
            }
        });
        assert_eq!(harness.next_op(0), ProcOp::Read { addr: 0, bytes: 8 });
        wait_for(&harness, 0, |s| s.reply_waiter.is_some());
        wait_for(&harness, 1, |s| s.room_waiter.is_some());
        drop(harness);
        let mut exited: Vec<ProcId> = (0..2)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("a parked worker did not exit")
            })
            .collect();
        exited.sort_unstable();
        assert_eq!(exited, [0, 1]);
    }
}
