//! Protocol-event observation: the hook surface behind the `verify` feature.
//!
//! When `ncp2-core` is compiled with the `verify` feature, [`Simulation`]
//! carries an optional boxed [`Observer`] and reports every semantically
//! interesting protocol step to it as a [`ProtocolEvent`]: shared-memory
//! accesses, synchronization operations, interval closures, write-notice
//! recording, diff creation/application and message send/delivery. The
//! `ncp2-verify` crate implements an observer that shadow-checks the
//! protocol invariants of the paper (diff completeness per §3.2, write-notice
//! coverage and vector-time monotonicity per the §2 LRC model, message
//! conservation) and runs a vector-clock happens-before race detector over
//! the observed accesses.
//!
//! Without the feature, none of the emission sites compile — the hooks cost
//! literally zero cycles and zero bytes. With the feature but no attached
//! observer, each site is a `None` check.
//!
//! [`Simulation`]: crate::Simulation

use std::fmt;

use ncp2_sim::ops::{BarrierId, LockId};

use crate::diff::Diff;
use crate::page::{PageBuf, PageId};
use crate::vtime::{IntervalId, VectorTime};

/// Message classification used for conservation accounting (one entry per
/// [`crate::msg::Msg`] variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// Acquire request to the lock manager.
    LockReq,
    /// Manager-to-last-owner forward.
    LockForward,
    /// Lock grant with write notices.
    LockGrant,
    /// Diff request to a writer.
    DiffReq,
    /// Diffs (or a page) from a writer.
    DiffReply,
    /// Barrier arrival at the manager.
    BarrierArrive,
    /// Barrier release broadcast.
    BarrierRelease,
    /// AURC automatic update (fire-and-forget).
    AurcUpdate,
    /// AURC page fetch request.
    AurcPageReq,
    /// AURC page fetch reply.
    AurcPageReply,
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl crate::msg::Msg {
    /// The conservation-accounting class of this message.
    pub fn kind(&self) -> MsgKind {
        use crate::msg::Msg;
        match self {
            Msg::LockReq { .. } => MsgKind::LockReq,
            Msg::LockForward { .. } => MsgKind::LockForward,
            Msg::LockGrant { .. } => MsgKind::LockGrant,
            Msg::DiffReq { .. } => MsgKind::DiffReq,
            Msg::DiffReply { .. } => MsgKind::DiffReply,
            Msg::BarrierArrive { .. } => MsgKind::BarrierArrive,
            Msg::BarrierRelease { .. } => MsgKind::BarrierRelease,
            Msg::AurcUpdate { .. } => MsgKind::AurcUpdate,
            Msg::AurcPageReq { .. } => MsgKind::AurcPageReq,
            Msg::AurcPageReply { .. } => MsgKind::AurcPageReply,
        }
    }
}

/// One observable protocol step. Events for a given processor are emitted in
/// that processor's program order; lock-chain and barrier-episode transfers
/// respect the underlying happens-before order (a release is always emitted
/// before the acquire it grants, and every arrival of a barrier episode is
/// emitted before any completion of that episode).
#[derive(Debug, Clone)]
pub enum ProtocolEvent {
    /// A shared-memory access performed on a valid page.
    Access {
        /// Accessing processor.
        pid: usize,
        /// Byte address.
        addr: u64,
        /// Access width in bytes (1, 2, 4 or 8).
        bytes: u8,
        /// Write or read.
        write: bool,
    },
    /// A lock acquire completed (write notices already processed).
    LockAcquired {
        /// Acquiring processor.
        pid: usize,
        /// The lock.
        lock: LockId,
    },
    /// A lock release began (before the grant is passed on).
    LockReleased {
        /// Releasing processor.
        pid: usize,
        /// The lock.
        lock: LockId,
    },
    /// A processor arrived at a barrier (after closing its interval).
    BarrierArrived {
        /// Arriving processor.
        pid: usize,
        /// The barrier.
        barrier: BarrierId,
    },
    /// A processor observed the barrier release.
    BarrierCompleted {
        /// Released processor.
        pid: usize,
        /// The barrier.
        barrier: BarrierId,
    },
    /// A writing interval closed at a release point.
    IntervalClosed {
        /// The interval's owner.
        pid: usize,
        /// The new interval id (`vt[pid]` after the bump).
        id: IntervalId,
        /// The owner's vector time after the bump.
        vt: VectorTime,
        /// Pages dirtied during the interval.
        pages: Vec<PageId>,
    },
    /// A write notice was recorded and its page invalidated at `pid`.
    NoticeRecorded {
        /// The processor applying the notice.
        pid: usize,
        /// The writing interval's owner.
        owner: usize,
        /// The writing interval's id.
        id: IntervalId,
        /// The page named by the notice.
        page: PageId,
    },
    /// A batch of interval announcements finished processing at `pid`
    /// (acquire or barrier release).
    AnnsProcessed {
        /// The processor whose vector time advanced.
        pid: usize,
        /// Its vector time after processing.
        vt: VectorTime,
    },
    /// A diff was created (twin comparison or dirty-bit DMA gather).
    DiffCreated {
        /// The diff's owner.
        pid: usize,
        /// The page it covers.
        page: PageId,
        /// The owner interval it belongs to.
        interval: IntervalId,
        /// The diff itself.
        diff: Diff,
        /// The owner's page contents at creation time.
        data: PageBuf,
    },
    /// A collected set of diffs (and possibly a whole page) was applied.
    DiffsApplied {
        /// The processor whose copy was updated.
        pid: usize,
        /// The page updated.
        page: PageId,
        /// `(owner, interval)` of every diff actually applied.
        applied: Vec<(usize, IntervalId)>,
        /// The page contents after application.
        data: PageBuf,
    },
    /// A protocol message left a node.
    MsgSent {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Message class.
        kind: MsgKind,
        /// Demand (normal-priority) transaction, as opposed to a prefetch.
        demand: bool,
    },
    /// A protocol message reached its receiver's handler.
    MsgDelivered {
        /// Receiver.
        dst: usize,
        /// Message class.
        kind: MsgKind,
        /// Demand (normal-priority) transaction.
        demand: bool,
    },
    /// A transport data frame was injected (one event per physical copy:
    /// retransmissions and fault-injected duplicates re-emit).
    FrameSent {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt (0 = original send).
        attempt: u32,
    },
    /// A transport frame arrived in order and its message was delivered.
    FrameAccepted {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt that got through.
        attempt: u32,
    },
    /// A transport frame arrived but was discarded as an already-delivered
    /// duplicate.
    FrameDuplicate {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt discarded.
        attempt: u32,
    },
    /// A transport frame was lost: dropped/corrupted by the fault plan,
    /// lost to a crash-restart window, or drained in flight at end of run.
    FrameDropped {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt lost.
        attempt: u32,
    },
}

/// A protocol invariant found broken by an observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two conflicting accesses not ordered by happens-before.
    Race {
        /// First (earlier-observed) accessor.
        first_pid: usize,
        /// Whether the first access was a write.
        first_write: bool,
        /// Second accessor.
        second_pid: usize,
        /// Whether the second access was a write.
        second_write: bool,
        /// Byte address of the 4-byte word the accesses conflict on.
        addr: u64,
    },
    /// Applying a freshly created diff to the page's previous contents did
    /// not reconstruct the writer's copy (§3.2 diff semantics; catches
    /// dirty-bit undercounting in the hardware-diff modes).
    DiffIncomplete {
        /// The diff's owner.
        pid: usize,
        /// The page.
        page: PageId,
        /// The owner interval.
        interval: IntervalId,
        /// Number of 4-byte words that differ after application.
        bad_words: usize,
    },
    /// A processor's vector time covers a writing interval for which it
    /// never recorded a write notice on one of the dirtied pages.
    WriteNoticeCoverage {
        /// The processor missing the notice.
        pid: usize,
        /// The writing interval's owner.
        owner: usize,
        /// The writing interval's id.
        interval: IntervalId,
        /// The page that should have been invalidated.
        page: PageId,
    },
    /// A vector time went backwards, or an interval id was skipped.
    VtRegression {
        /// The offending processor.
        pid: usize,
        /// Human-readable description.
        detail: String,
    },
    /// Message counts do not balance (lost reply, unpaired request, ...).
    MessageConservation {
        /// Human-readable description.
        detail: String,
    },
    /// Per-category span time does not sum to the node's breakdown totals
    /// (reported by the `obs` layer's conservation check).
    SpanConservation {
        /// The node whose accounting is off.
        node: usize,
        /// Human-readable description.
        detail: String,
    },
    /// The same foreign diff was applied twice to one node's page copy.
    DuplicateDiffApplication {
        /// The processor applying the diff.
        pid: usize,
        /// The page.
        page: PageId,
        /// The diff's owner.
        owner: usize,
        /// The diff's interval.
        interval: IntervalId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Race {
                first_pid,
                first_write,
                second_pid,
                second_write,
                addr,
            } => {
                let k = |w: bool| if w { "write" } else { "read" };
                write!(
                    f,
                    "race on word {addr:#x}: {} by P{first_pid} unordered with {} by P{second_pid}",
                    k(*first_write),
                    k(*second_write)
                )
            }
            Violation::DiffIncomplete {
                pid,
                page,
                interval,
                bad_words,
            } => write!(
                f,
                "incomplete diff for page {page} interval ({pid},{interval}): \
                 {bad_words} word(s) not reconstructed"
            ),
            Violation::WriteNoticeCoverage {
                pid,
                owner,
                interval,
                page,
            } => write!(
                f,
                "P{pid} covers interval ({owner},{interval}) but never recorded \
                 its write notice for page {page}"
            ),
            Violation::VtRegression { pid, detail } => {
                write!(f, "vector time regression at P{pid}: {detail}")
            }
            Violation::MessageConservation { detail } => {
                write!(f, "message conservation: {detail}")
            }
            Violation::SpanConservation { node, detail } => {
                write!(f, "span conservation at P{node}: {detail}")
            }
            Violation::DuplicateDiffApplication {
                pid,
                page,
                owner,
                interval,
            } => write!(
                f,
                "P{pid} applied diff ({owner},{interval}) to page {page} twice"
            ),
        }
    }
}

/// A shadow checker attached to a [`Simulation`](crate::Simulation) via
/// `attach_observer` (available when `ncp2-core` is built with the `verify`
/// feature).
pub trait Observer {
    /// Called at every protocol step, in observation order.
    fn on_event(&mut self, ev: &ProtocolEvent);

    /// Called once after the run completes; returns everything found broken.
    fn finish(&mut self) -> Vec<Violation> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use crate::vtime::VectorTime;

    #[test]
    fn every_msg_variant_has_a_kind() {
        let vt = VectorTime::new(2);
        let msgs = vec![
            Msg::LockReq {
                lock: 0,
                acquirer: 0,
                vt: vt.clone(),
            },
            Msg::LockForward {
                lock: 0,
                acquirer: 0,
                vt: vt.clone(),
            },
            Msg::LockGrant {
                lock: 0,
                anns: Default::default(),
                update_horizon: 0,
            },
            Msg::DiffReq {
                page: 0,
                intervals: Default::default(),
                requester: 0,
                requester_vt: std::sync::Arc::new(vt.clone()),
                prefetch: false,
                want_page: false,
            },
            Msg::DiffReply {
                page: 0,
                diffs: Default::default(),
                full_page: None,
                prefetch: false,
            },
            Msg::BarrierArrive {
                barrier: 0,
                from: 0,
                vt: vt.clone(),
                anns: Default::default(),
                horizons: Vec::new(),
            },
            Msg::BarrierRelease {
                barrier: 0,
                vt,
                anns: Default::default(),
                update_horizon: 0,
            },
            Msg::AurcUpdate { page: 0, from: 0 },
            Msg::AurcPageReq {
                page: 0,
                requester: 0,
                prefetch: false,
            },
            Msg::AurcPageReply {
                page: 0,
                prefetch: false,
            },
        ];
        let kinds: Vec<MsgKind> = msgs.iter().map(|m| m.kind()).collect();
        let mut unique = kinds.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), msgs.len(), "kinds must be distinct");
    }

    #[test]
    fn violations_render_with_context() {
        let v = Violation::Race {
            first_pid: 0,
            first_write: true,
            second_pid: 3,
            second_write: false,
            addr: 0x1000,
        };
        let s = v.to_string();
        assert!(
            s.contains("race") && s.contains("P0") && s.contains("P3"),
            "{s}"
        );
        let c = Violation::MessageConservation {
            detail: "lost reply".into(),
        };
        assert!(c.to_string().contains("lost reply"));
    }
}
