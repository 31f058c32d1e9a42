//! The simulated machine: 16 workstation nodes, their memory hierarchies,
//! protocol controllers, the mesh interconnect and the DSM protocol glue.
//!
//! [`Simulation`] owns the deterministic back end. Workload threads (the
//! front end) drive it through [`ncp2_sim::ProcHarness`]: the back end
//! always resumes the runnable processor with the smallest local clock, or
//! handles the earliest pending event, whichever comes first — so a run is
//! a deterministic function of (parameters, protocol, workload).

use std::collections::VecDeque;

use ncp2_mem::NodeMemory;
use ncp2_net::Network;
use ncp2_sim::ops::LockId;
use ncp2_sim::{
    Breakdown, Category, Cycles, EventQueue, Priority, ProcHarness, ProcOp, ProcReply, ProcStatus,
    SysParams,
};

use crate::bitvec::DirtyVec;
use crate::controller::Controller;
use crate::diff::DiffList;
use crate::interval::{AnnList, IntervalStore};
use crate::msg::Msg;
use crate::page::{page_of, PageBuf, PageId, PageState};
use crate::protocol::Protocol;
use crate::span::{CtrlCmd, EdgeKind, Engine, SpanId, SpanKind};
use crate::stats::{NodeStats, RunResult};
use crate::table::{DiffTable, FlatMap, IdSet};
use crate::vtime::{IntervalId, VectorTime};

/// Back-end events.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A protocol message reaches `dst`'s network interface.
    Msg { dst: usize, msg: Msg },
    /// A blocked processor's pending operation completes.
    Wake { pid: usize },
    /// One physical transport-frame copy reaches `dst`'s interface
    /// (`fault` feature: hardened transport engaged).
    #[cfg(feature = "fault")]
    Frame {
        src: usize,
        dst: usize,
        /// Link-local sequence number.
        seq: u64,
        /// Transmission attempt this copy belongs to.
        attempt: u32,
        msg: Msg,
        /// Fault verdict rolled at send time: the copy arrives damaged
        /// (dropped or detectably corrupted) and is discarded on arrival.
        lost: bool,
        /// Injection time at the sender (for the delivery dependency edge).
        sent_at: Cycles,
        /// Sender span anchoring the delivery edge.
        anchor: SpanId,
    },
    /// A cumulative acknowledgement for link `src → dst` arrives back at
    /// `src`: every frame with sequence number below `cum` is delivered.
    #[cfg(feature = "fault")]
    Ack { src: usize, dst: usize, cum: u64 },
    /// A retransmit timer for frame `seq` (at `attempt`) on `src → dst`.
    #[cfg(feature = "fault")]
    RetxCheck {
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    },
}

/// In-flight fault state: replies still outstanding plus collected payloads.
#[derive(Debug, Default)]
pub(crate) struct FaultWait {
    pub page: PageId,
    pub outstanding: usize,
    pub ready_at: Cycles,
    pub diffs: DiffList,
    pub full_page: Option<(PageBuf, VectorTime)>,
}

/// Why a processor is blocked.
#[derive(Debug, Default)]
pub(crate) enum Wait {
    #[default]
    None,
    /// TreadMarks access fault collecting diffs.
    Fault(FaultWait),
    /// Fault that found a prefetch already in flight for the page.
    PrefetchJoin {
        /// The page whose in-flight prefetch the fault joined.
        #[allow(dead_code)]
        page: PageId,
    },
    /// Waiting for a lock grant.
    Lock { lock: LockId },
    /// Waiting for a barrier release.
    Barrier,
    /// AURC page fetch from the home node.
    AurcFault { page: PageId },
}

impl Wait {
    fn category(&self) -> Category {
        match self {
            Wait::None => Category::Other,
            Wait::Fault(_) | Wait::PrefetchJoin { .. } | Wait::AurcFault { .. } => Category::Data,
            Wait::Lock { .. } | Wait::Barrier => Category::Synch,
        }
    }
}

/// One node's copy of a TreadMarks page.
#[derive(Debug)]
pub(crate) struct TmPage {
    pub data: PageBuf,
    pub state: PageState,
    /// Twin snapshot and the interval it belongs to (software modes only).
    pub twin: Option<(IntervalId, PageBuf)>,
    /// Snooped dirty-word bits (hardware-diff modes only).
    pub dirty: DirtyVec,
    /// Set when the page is dirtied in the open interval.
    pub in_cur_dirty: bool,
    /// Referenced since last (re)validation.
    pub referenced: bool,
    /// Referenced at the time it was last invalidated (prefetch heuristic).
    pub was_referenced: bool,
    /// Referenced during the most recent validity window (the non-sticky
    /// variant used by `PrefetchStrategy::RecentlyReferenced`).
    pub recently_referenced: bool,
    /// Completed prefetch not yet used by any access.
    pub prefetched_unused: bool,
    /// Unapplied write notices `(owner, interval)`.
    pub pending: Vec<(usize, IntervalId)>,
    /// Intervals of *this* node that dirtied the page (for full-page apply).
    pub own_intervals: Vec<IntervalId>,
}

impl TmPage {
    fn new(page_bytes: u64, page_words: u64) -> Self {
        TmPage {
            data: PageBuf::new(page_bytes),
            state: PageState::ReadOnly,
            twin: None,
            dirty: DirtyVec::new(page_words as usize),
            in_cur_dirty: false,
            referenced: false,
            was_referenced: false,
            recently_referenced: false,
            prefetched_unused: false,
            pending: Vec::new(),
            own_intervals: Vec::new(),
        }
    }
}

/// In-flight prefetch for one page.
#[derive(Debug, Default)]
pub(crate) struct PrefetchState {
    pub outstanding: usize,
    pub ready_at: Cycles,
    pub diffs: DiffList,
    pub full_page: Option<(PageBuf, VectorTime)>,
    /// Notices the prefetch will satisfy.
    pub requested: Vec<(usize, IntervalId)>,
    /// A fault is blocked waiting for this prefetch.
    pub joined: bool,
}

/// AURC per-node view of one page: nine protocol flags packed into one
/// word, so the per-node page table is a flat array of 2-byte records
/// instead of a hash map of bool structs.
#[derive(Debug, Default)]
pub(crate) struct AurcLocal {
    flags: u16,
}

/// Generates `name()` / `set_name()` (and optionally `take_name()`)
/// accessors for one packed flag bit.
macro_rules! aurc_flags {
    ($($(#[$doc:meta])* $bit:literal => $get:ident, $set:ident $(, $take:ident)?;)+) => {
        impl AurcLocal {
            $(
                $(#[$doc])*
                pub fn $get(&self) -> bool {
                    self.flags & (1 << $bit) != 0
                }

                /// Sets the flag read by the same-named accessor.
                pub fn $set(&mut self, v: bool) {
                    if v {
                        self.flags |= 1 << $bit;
                    } else {
                        self.flags &= !(1 << $bit);
                    }
                }

                $(
                    /// Returns the flag and clears it.
                    pub fn $take(&mut self) -> bool {
                        let v = self.$get();
                        self.$set(false);
                        v
                    }
                )?
            )+
        }
    };
}

aurc_flags! {
    /// The local copy (or home/pairwise mapping) is up to date.
    0 => valid, set_valid;
    /// Referenced since last (re)validation.
    1 => referenced, set_referenced;
    /// Referenced at the time it was last invalidated (prefetch heuristic).
    2 => was_referenced, set_was_referenced;
    /// Referenced during the most recent validity window (the non-sticky
    /// variant used by `PrefetchStrategy::RecentlyReferenced`).
    3 => recently_referenced, set_recently_referenced;
    /// Completed prefetch not yet used by any access.
    4 => prefetched_unused, set_prefetched_unused, take_prefetched_unused;
    /// A prefetch for this page is in flight.
    5 => prefetching, set_prefetching;
    /// The page was invalidated again while a prefetch was in flight; the
    /// reply must not re-validate it.
    6 => prefetch_stale, set_prefetch_stale, take_prefetch_stale;
    /// Dirtied in the open interval.
    7 => in_cur_dirty, set_in_cur_dirty;
    /// A fault is blocked waiting for an in-flight prefetch of this page.
    8 => joined, set_joined, take_joined;
}

/// AURC global sharing mode of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AurcMode {
    /// Touched by one processor only.
    Single(usize),
    /// Bi-directional pairwise mapping; `replaced` is set once the third
    /// sharer has displaced the original first sharer (§3.3) — the next
    /// outsider then forces home mode.
    Pairwise(usize, usize, bool),
    /// Written through to a home node by everyone.
    Home(usize),
}

/// AURC network-interface write cache: combines consecutive updates per
/// cache line before they hit the wire (§3.3).
#[derive(Debug, Default)]
pub(crate) struct WriteCache {
    /// FIFO of `(line address, destination)` entries.
    pub entries: VecDeque<(u64, usize)>,
    pub capacity: usize,
}

impl WriteCache {
    /// Inserts a line; returns an evicted entry if the cache was full.
    /// Returns `None` with no effect when the line is already present
    /// (combining hit, recorded by the caller).
    pub fn insert(&mut self, line: u64, dst: usize) -> InsertOutcome {
        if self.entries.iter().any(|&(l, d)| l == line && d == dst) {
            return InsertOutcome::Combined;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back((line, dst));
        InsertOutcome::Inserted { evicted }
    }

    /// Drains every entry (release-time flush).
    pub fn flush(&mut self) -> Vec<(u64, usize)> {
        self.entries.drain(..).collect()
    }
}

/// Result of a write-cache insert.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    Combined,
    Inserted { evicted: Option<(u64, usize)> },
}

/// Everything belonging to one workstation node.
pub(crate) struct Node {
    pub time: Cycles,
    pub status: ProcStatus,
    pub wait: Wait,
    pub wait_start: Cycles,
    /// Cycles spent servicing others while this processor was blocked
    /// (reclassified from wait time to IPC at wake).
    pub ipc_during_wait: Cycles,
    pub pending_op: Option<ProcOp>,
    pub mem: NodeMemory,
    pub ctrl: Controller,
    pub stats: NodeStats,
    // --- TreadMarks state ---
    pub vt: VectorTime,
    pub pages: FlatMap<TmPage>,
    pub store: IntervalStore,
    /// Diffs this node created for its own writes, keyed by (page, interval).
    pub diffs: DiffTable,
    pub cur_dirty: Vec<PageId>,
    pub last_barrier_vt: VectorTime,
    pub held_locks: IdSet,
    /// Locks whose grant token this node possesses (held or last released
    /// here and not yet passed on).
    pub owned_locks: IdSet,
    /// Forwarded acquire requests queued while this node holds the lock.
    pub lock_queue: FlatMap<VecDeque<(usize, VectorTime)>>,
    pub prefetches: FlatMap<PrefetchState>,
    // --- AURC state ---
    pub aurc_pages: FlatMap<AurcLocal>,
    pub wcache: WriteCache,
    /// At a home node: per-page arrival horizon of incoming updates.
    pub home_horizon: FlatMap<Cycles>,
    /// Per-destination arrival horizon of updates this node has emitted.
    pub out_horizon: Vec<Cycles>,
}

impl Node {
    fn new(pid: usize, params: &SysParams) -> Self {
        let _ = pid;
        Node {
            time: 0,
            status: ProcStatus::Runnable,
            wait: Wait::None,
            wait_start: 0,
            ipc_during_wait: 0,
            pending_op: None,
            mem: NodeMemory::new(params),
            ctrl: Controller::new(),
            stats: NodeStats::default(),
            vt: VectorTime::new(params.nprocs),
            pages: FlatMap::new(),
            store: IntervalStore::new(),
            diffs: DiffTable::new(),
            cur_dirty: Vec::new(),
            last_barrier_vt: VectorTime::new(params.nprocs),
            held_locks: IdSet::new(),
            owned_locks: IdSet::new(),
            lock_queue: FlatMap::new(),
            prefetches: FlatMap::new(),
            aurc_pages: FlatMap::new(),
            wcache: WriteCache {
                entries: VecDeque::new(),
                capacity: params.write_cache_entries,
            },
            home_horizon: FlatMap::new(),
            out_horizon: vec![0; params.nprocs],
        }
    }
}

/// Pending barrier episode at its manager.
#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    pub arrived: usize,
    pub merged_vt: Option<VectorTime>,
    /// Every arrival's announcement handles, deduplicated at release.
    pub anns: AnnList,
    /// AURC: `horizons[src][dst]` arrival horizon reported by each arrival.
    pub horizons: Vec<Vec<Cycles>>,
}

/// The complete simulated machine for one run.
pub struct Simulation {
    pub(crate) params: SysParams,
    pub(crate) protocol: Protocol,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) net: Network,
    pub(crate) nodes: Vec<Node>,
    /// `sums[owner][id]` is the component sum of owner's interval `id`'s
    /// close-time vector time: the causal sort key for diff application.
    /// It is a property of the interval, not of any node, so it is computed
    /// once when the interval closes (`sums[owner][0]` stands for "no
    /// interval"). Deliberately **not** garbage-collected: a page's pending
    /// notices can outlive the barrier that collects the full
    /// announcements, and the fault that finally services them still needs
    /// the causal order. 8 B per interval machine-wide.
    pub(crate) sums: Vec<Vec<u64>>,
    /// Lock manager state: last owner per lock (chain head).
    pub(crate) lock_last: FlatMap<usize>,
    pub(crate) barriers: FlatMap<BarrierState>,
    /// AURC master data plane and global sharing modes.
    pub(crate) master: FlatMap<PageBuf>,
    pub(crate) aurc_modes: FlatMap<AurcMode>,
    pub(crate) done: usize,
    pub(crate) seq: bool,
    pub(crate) trace: Vec<crate::trace::TraceEvent>,
    /// Open-loop service counters, lazily created by the first
    /// [`ProcOp::Svc`] lifecycle marker (stays `None` for the closed-loop
    /// kernels, so their results are bit-for-bit unchanged).
    pub(crate) svc: Option<crate::stats::SvcStats>,
    /// Shadow checker receiving protocol events (`verify` feature only).
    #[cfg(feature = "verify")]
    pub(crate) observer: Option<Box<dyn crate::observe::Observer>>,
    /// Mutation hook for oracle self-tests: when armed, exactly one foreign
    /// write notice is silently discarded during announcement processing.
    #[cfg(feature = "verify")]
    pub(crate) drop_notice_armed: bool,
    /// Span/flight/engine recorder (`obs` feature only, armed via
    /// [`Simulation::enable_obs`]).
    #[cfg(feature = "obs")]
    pub(crate) obs: Option<crate::span::ObsRecorder>,
    /// Windowed time-series recorder (`obs` feature only, armed via
    /// [`Simulation::enable_timeseries`]).
    #[cfg(feature = "obs")]
    pub(crate) ts: Option<crate::timeseries::TsRecorder>,
    /// Hardened-transport state (`fault` feature only, engaged via
    /// [`Simulation::attach_fault_plan`] with an active plan; `None` means
    /// every message takes the legacy exactly-once path).
    #[cfg(feature = "fault")]
    pub(crate) fault: Option<Box<crate::transport::FaultCtx>>,
    /// Mutation hook for oracle self-tests: when armed, the next intact
    /// inter-node data frame is consumed without delivery and without a
    /// terminal frame event — the conservation oracle must flag it.
    #[cfg(all(feature = "fault", feature = "verify"))]
    pub(crate) silent_frame_loss_armed: bool,
}

impl Simulation {
    /// Builds a machine with the given parameters and protocol.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`SysParams::validate`].
    pub fn new(params: SysParams, protocol: Protocol) -> Self {
        // invariant: construction-time precondition — a bad machine
        // description must fail loudly before any cycle is simulated
        params.validate().expect("invalid system parameters");
        let n = params.nprocs;
        Simulation {
            queue: EventQueue::new(),
            net: Network::new(n),
            nodes: (0..n).map(|p| Node::new(p, &params)).collect(),
            sums: vec![vec![0]; n],
            lock_last: FlatMap::new(),
            barriers: FlatMap::new(),
            master: FlatMap::new(),
            aurc_modes: FlatMap::new(),
            done: 0,
            seq: n == 1,
            trace: Vec::new(),
            svc: None,
            #[cfg(feature = "verify")]
            observer: None,
            #[cfg(feature = "verify")]
            drop_notice_armed: false,
            #[cfg(feature = "obs")]
            obs: None,
            #[cfg(feature = "obs")]
            ts: None,
            #[cfg(feature = "fault")]
            fault: None,
            #[cfg(all(feature = "fault", feature = "verify"))]
            silent_frame_loss_armed: false,
            params,
            protocol,
        }
    }

    /// Attaches a shadow observer that receives every protocol event; its
    /// findings land in [`RunResult::violations`]. Only effective when
    /// `ncp2-core` is built with the `verify` feature — without it the
    /// observer is dropped and the simulation carries no hooks at all.
    #[allow(unused_variables)]
    pub fn attach_observer(&mut self, observer: Box<dyn crate::observe::Observer>) {
        #[cfg(feature = "verify")]
        {
            self.observer = Some(observer);
        }
    }

    /// Arms the oracle-test mutation: the next foreign write notice processed
    /// anywhere in the machine is dropped without invalidating its page —
    /// the coverage oracle must flag it.
    #[cfg(feature = "verify")]
    pub fn inject_drop_write_notice(&mut self) {
        self.drop_notice_armed = true;
    }

    /// Arms span/flight/engine recording over simulated time; the resulting
    /// timeline lands in [`RunResult::obs`] and its conservation invariant
    /// (per-node, per-category span time equals the node's `Breakdown`) is
    /// checked at [`RunResult::violations`]. Only effective when `ncp2-core`
    /// is built with the `obs` feature — without it this is a no-op and every
    /// recording site compiles away, exactly like the `verify` hooks.
    pub fn enable_obs(&mut self) {
        #[cfg(feature = "obs")]
        {
            self.obs = Some(crate::span::ObsRecorder::new(self.params.nprocs));
        }
    }

    /// Arms windowed time-series recording over simulated time; the finished
    /// series lands in [`RunResult::ts`]. The window width comes from
    /// [`SysParams::ts_window`] (`0` auto-picks, doubling as the run grows).
    /// Only effective when `ncp2-core` is built with the `obs` feature —
    /// without it this is a no-op and every recording site compiles away,
    /// exactly like the `verify` hooks.
    pub fn enable_timeseries(&mut self) {
        #[cfg(feature = "obs")]
        {
            self.ts = Some(crate::timeseries::TsRecorder::new(
                self.params.nprocs,
                self.params.ts_window,
            ));
        }
    }

    // ----- obs recording (compiled away without the `obs` feature) --------

    /// Records one conserved processor span.
    #[cfg(feature = "obs")]
    pub(crate) fn obs_span(
        &mut self,
        node: usize,
        kind: SpanKind,
        cat: Category,
        start: Cycles,
        dur: Cycles,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.span(node, kind, cat, start, dur);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_span(
        &mut self,
        _node: usize,
        _kind: SpanKind,
        _cat: Category,
        _start: Cycles,
        _dur: Cycles,
    ) {
    }

    /// Records one controller-engine occupancy interval.
    #[cfg(feature = "obs")]
    pub(crate) fn obs_engine(
        &mut self,
        node: usize,
        engine: Engine,
        cmd: CtrlCmd,
        start: Cycles,
        end: Cycles,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.engine(node, engine, cmd, start, end);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_engine(
        &mut self,
        _node: usize,
        _engine: Engine,
        _cmd: CtrlCmd,
        _start: Cycles,
        _end: Cycles,
    ) {
    }

    /// Records one message flight.
    #[cfg(feature = "obs")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_flight(
        &mut self,
        src: usize,
        dst: usize,
        kind: crate::observe::MsgKind,
        bytes: u64,
        prefetch: bool,
        inject: Cycles,
        start: Cycles,
        arrival: Cycles,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.flight(src, dst, kind, bytes, prefetch, inject, start, arrival);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_flight(
        &mut self,
        _src: usize,
        _dst: usize,
        _kind: crate::observe::MsgKind,
        _bytes: u64,
        _prefetch: bool,
        _inject: Cycles,
        _start: Cycles,
        _arrival: Cycles,
    ) {
    }

    /// Notes a completed prefetch (for prefetch-to-use distances).
    #[cfg(feature = "obs")]
    pub(crate) fn obs_prefetch_done(&mut self, node: usize, page: PageId, t: Cycles) {
        if let Some(r) = self.obs.as_mut() {
            r.prefetch_done(node, page, t);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_prefetch_done(&mut self, _node: usize, _page: PageId, _t: Cycles) {}

    /// Notes an access consuming a completed prefetch.
    #[cfg(feature = "obs")]
    pub(crate) fn obs_prefetch_used(&mut self, node: usize, page: PageId, t: Cycles) {
        if let Some(r) = self.obs.as_mut() {
            r.prefetch_used(node, page, t);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_prefetch_used(&mut self, _node: usize, _page: PageId, _t: Cycles) {}

    /// Advances a node's barrier epoch.
    #[cfg(feature = "obs")]
    pub(crate) fn obs_epoch(&mut self, node: usize) {
        if let Some(r) = self.obs.as_mut() {
            r.epoch_advance(node);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_epoch(&mut self, _node: usize) {}

    /// Records one span charged off the node's own timeline (see
    /// [`crate::span::Span::detached`]).
    #[cfg(feature = "obs")]
    pub(crate) fn obs_span_detached(
        &mut self,
        node: usize,
        kind: SpanKind,
        cat: Category,
        start: Cycles,
        dur: Cycles,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.span_detached(node, kind, cat, start, dur);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_span_detached(
        &mut self,
        _node: usize,
        _kind: SpanKind,
        _cat: Category,
        _start: Cycles,
        _dur: Cycles,
    ) {
    }

    /// The most recent span recorded on `node` — the anchor every dependency
    /// edge must reference (enforced by the `xtask lint` edge-site rule and
    /// by [`crate::span::ObsRecorder::edge`] dropping unanchored edges).
    #[cfg(feature = "obs")]
    pub(crate) fn obs_last_span(&self, node: usize) -> SpanId {
        self.obs
            .as_ref()
            .map(|r| r.last_span(node))
            .unwrap_or(SpanId::NONE)
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_last_span(&self, _node: usize) -> SpanId {
        SpanId::NONE
    }

    /// Records one typed dependency edge.
    #[cfg(feature = "obs")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_edge(
        &mut self,
        kind: EdgeKind,
        src_node: usize,
        src_time: Cycles,
        dst_node: usize,
        dst_time: Cycles,
        work: Cycles,
        src_span: SpanId,
    ) {
        if let Some(r) = self.obs.as_mut() {
            r.edge(kind, src_node, src_time, dst_node, dst_time, work, src_span);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_edge(
        &mut self,
        _kind: EdgeKind,
        _src_node: usize,
        _src_time: Cycles,
        _dst_node: usize,
        _dst_time: Cycles,
        _work: Cycles,
        _src_span: SpanId,
    ) {
    }

    /// Notes an issued prefetch (anchors the eventual issue→first-use edge).
    #[cfg(feature = "obs")]
    pub(crate) fn obs_prefetch_issued(&mut self, node: usize, page: PageId, t: Cycles) {
        if let Some(r) = self.obs.as_mut() {
            r.prefetch_issued(node, page, t);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn obs_prefetch_issued(&mut self, _node: usize, _page: PageId, _t: Cycles) {}

    // ----- time-series recording (compiled away without `obs`) ------------

    /// Charges `n` events of counter `c` into the window holding cycle `t`.
    #[cfg(feature = "obs")]
    pub(crate) fn ts_count(&mut self, c: crate::timeseries::TsCounter, t: Cycles, n: u64) {
        if let Some(r) = self.ts.as_mut() {
            r.count(c, t, n);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn ts_count(&mut self, _c: crate::timeseries::TsCounter, _t: Cycles, _n: u64) {}

    /// Samples gauge `g` at value `v`; the window keeps the peak.
    #[cfg(feature = "obs")]
    pub(crate) fn ts_gauge(&mut self, g: crate::timeseries::TsGauge, t: Cycles, v: u64) {
        if let Some(r) = self.ts.as_mut() {
            r.gauge(g, t, v);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn ts_gauge(&mut self, _g: crate::timeseries::TsGauge, _t: Cycles, _v: u64) {}

    /// Notes a retransmission on link `src -> dst` (global counter plus the
    /// per-link series). Only the hardened transport retransmits, so the
    /// hook has no callers without the `fault` feature.
    #[cfg(feature = "obs")]
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    pub(crate) fn ts_retransmit(&mut self, src: usize, dst: usize, t: Cycles) {
        if let Some(r) = self.ts.as_mut() {
            r.retransmit(src, dst, t);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    pub(crate) fn ts_retransmit(&mut self, _src: usize, _dst: usize, _t: Cycles) {}

    /// Notes a transport frame entering (`up`) or leaving flight on link
    /// `src -> dst`. Flight is a hardened-transport notion, so the hook has
    /// no callers without the `fault` feature.
    #[cfg(feature = "obs")]
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    pub(crate) fn ts_flight(&mut self, src: usize, dst: usize, t: Cycles, up: bool) {
        if let Some(r) = self.ts.as_mut() {
            r.flight(src, dst, t, up);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    pub(crate) fn ts_flight(&mut self, _src: usize, _dst: usize, _t: Cycles, _up: bool) {}

    /// Charges controller busy cycles `[start, end)` to `node`'s occupancy
    /// series, clipped across window boundaries.
    #[cfg(feature = "obs")]
    pub(crate) fn ts_ctrl_span(&mut self, node: usize, start: Cycles, end: Cycles) {
        if let Some(r) = self.ts.as_mut() {
            r.span(node, start, end);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn ts_ctrl_span(&mut self, _node: usize, _start: Cycles, _end: Cycles) {}

    /// Accumulates page hot-spot attribution.
    #[cfg(feature = "obs")]
    pub(crate) fn ts_page(&mut self, page: PageId, transfers: u64, diff_bytes: u64, invals: u64) {
        if let Some(r) = self.ts.as_mut() {
            r.page(page, transfers, diff_bytes, invals);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn ts_page(
        &mut self,
        _page: PageId,
        _transfers: u64,
        _diff_bytes: u64,
        _invals: u64,
    ) {
    }

    /// Accumulates lock hot-spot attribution.
    #[cfg(feature = "obs")]
    pub(crate) fn ts_lock(&mut self, lock: u64, wait: Cycles, acquires: u64, migrations: u64) {
        if let Some(r) = self.ts.as_mut() {
            r.lock(lock, wait, acquires, migrations);
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub(crate) fn ts_lock(&mut self, _lock: u64, _wait: Cycles, _acquires: u64, _migrations: u64) {}

    /// Degradation-policy stub: without the `fault` feature (or without an
    /// attached plan — see `transport.rs`) no prefetch is ever shed.
    #[cfg(not(feature = "fault"))]
    #[inline(always)]
    pub(crate) fn shed_prefetch(&mut self, _pid: usize, _page: PageId, _now: Cycles) -> bool {
        false
    }

    /// Forwards one event to the attached observer, if any.
    #[cfg(feature = "verify")]
    pub(crate) fn emit(&mut self, ev: crate::observe::ProtocolEvent) {
        if let Some(obs) = self.observer.as_mut() {
            obs.on_event(&ev);
        }
    }

    /// Runs `body` on every simulated processor to completion and returns
    /// the run's statistics.
    ///
    /// The body receives `(pid, port)` and must finish with
    /// [`ProcOp::Finish`] (the `ncp2-apps` framework does this for you).
    ///
    /// # Panics
    ///
    /// Panics on deadlock (blocked processors with no pending events) and on
    /// workload panics.
    pub fn run<F>(mut self, body: F) -> RunResult
    where
        F: Fn(usize, ncp2_sim::ProcPort) + Send + Sync + 'static,
    {
        let harness = ProcHarness::spawn(self.params.nprocs, body);
        let n = self.params.nprocs;
        while self.done < n {
            let next_proc = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, nd)| nd.status == ProcStatus::Runnable)
                .min_by_key(|(pid, nd)| (nd.time, *pid))
                .map(|(pid, nd)| (pid, nd.time));
            // `peek` memoizes the minimum event's position inside the
            // calendar queue, so the `pop` in the arms below reuses the scan
            // instead of repeating it.
            let next_ev = self.queue.peek().map(|ev| ev.time);
            match (next_proc, next_ev) {
                (Some((pid, pt)), Some(et)) if et > pt => self.step_proc(pid, &harness),
                (_, Some(_)) => {
                    // invariant: peek returned Some just above
                    let ev = self.queue.pop().expect("peeked event");
                    let depth = self.queue.len() as u64;
                    self.ts_gauge(crate::timeseries::TsGauge::QueueDepth, ev.time, depth);
                    self.handle_event(ev.time, ev.payload, &harness);
                }
                (Some((pid, _)), None) => self.step_proc(pid, &harness),
                (None, None) => {
                    let stuck: Vec<usize> = self
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, nd)| nd.status == ProcStatus::Blocked)
                        .map(|(p, _)| p)
                        .collect();
                    // invariant: no runnable processor and no event means the
                    // protocol lost a wakeup — unrecoverable by definition
                    panic!("simulation deadlock: processors {stuck:?} blocked with no events");
                }
            }
        }
        harness.join();
        self.finish()
    }

    fn finish(mut self) -> RunResult {
        // Frames still in flight at run end (their messages already
        // delivered by another attempt, or gap-blocked prefetch stragglers)
        // get their terminal event so the conservation law balances.
        #[cfg(feature = "fault")]
        self.drain_inflight_frames();
        let total = self.nodes.iter().map(|nd| nd.time).max().unwrap_or(0);
        for nd in &mut self.nodes {
            nd.stats.controller_busy = nd.ctrl.busy();
        }
        #[cfg(feature = "verify")]
        let mut violations = self
            .observer
            .take()
            .map(|mut obs| obs.finish())
            .unwrap_or_default();
        #[cfg(not(feature = "verify"))]
        let mut violations: Vec<crate::observe::Violation> = Vec::new();
        let nodes: Vec<NodeStats> = self.nodes.iter().map(|nd| nd.stats).collect();
        #[cfg(feature = "obs")]
        let obs = self.obs.take().map(|r| r.into_log());
        #[cfg(not(feature = "obs"))]
        let obs: Option<crate::span::ObsLog> = None;
        #[cfg(feature = "obs")]
        let ts = self.ts.take().map(|r| r.into_log(total));
        #[cfg(not(feature = "obs"))]
        let ts: Option<crate::timeseries::TsLog> = None;
        if let Some(log) = &obs {
            for (node, detail) in log.conservation_errors(&nodes) {
                violations.push(crate::observe::Violation::SpanConservation { node, detail });
            }
        }
        #[cfg(feature = "fault")]
        let fault = self.fault.as_ref().map(|c| c.stats).unwrap_or_default();
        #[cfg(not(feature = "fault"))]
        let fault = crate::stats::FaultStats::default();
        RunResult {
            violations,
            protocol: self.protocol.label().to_string(),
            nprocs: self.params.nprocs,
            total_cycles: total,
            nodes,
            net: self.net.stats(),
            checksum: 0,
            trace: std::mem::take(&mut self.trace),
            obs,
            fault,
            ts,
            svc: self.svc.take(),
        }
    }

    // ----- processor stepping -------------------------------------------

    fn step_proc(&mut self, pid: usize, harness: &ProcHarness) {
        let op = harness.next_op(pid);
        match op {
            ProcOp::Compute(c) => {
                self.advance(pid, c, Category::Busy, SpanKind::Compute);
                harness.reply(pid, ProcReply::Ack);
            }
            ProcOp::Read { .. } | ProcOp::Write { .. } => {
                self.nodes[pid].pending_op = Some(op);
                if let Some(reply) = self.access(pid, op) {
                    self.nodes[pid].pending_op = None;
                    harness.reply(pid, reply);
                }
                // else: blocked; replied at wake.
            }
            ProcOp::Lock(l) => {
                self.nodes[pid].pending_op = Some(op);
                if self.seq {
                    self.advance(pid, 10, Category::Synch, SpanKind::SyncOp);
                    self.nodes[pid].pending_op = None;
                    harness.reply(pid, ProcReply::Ack);
                } else {
                    self.op_lock(pid, l);
                }
            }
            ProcOp::Unlock(l) => {
                if self.seq {
                    self.advance(pid, 10, Category::Synch, SpanKind::SyncOp);
                } else {
                    self.op_unlock(pid, l);
                }
                harness.reply(pid, ProcReply::Ack);
            }
            ProcOp::Barrier(b) => {
                self.nodes[pid].pending_op = Some(op);
                if self.seq {
                    self.advance(pid, 10, Category::Synch, SpanKind::SyncOp);
                    self.nodes[pid].pending_op = None;
                    harness.reply(pid, ProcReply::Ack);
                } else {
                    self.op_barrier(pid, b);
                }
            }
            ProcOp::Finish => {
                self.nodes[pid].status = ProcStatus::Done;
                self.done += 1;
                harness.reply(pid, ProcReply::Ack);
            }
            ProcOp::Svc(svc_op) => {
                let reply = self.svc_op(pid, svc_op);
                harness.reply(pid, reply);
            }
        }
    }

    /// Handles a zero-time service-plane marker: clock reads answer from
    /// the node clock, dequeue/reply markers accumulate the open-loop
    /// service statistics and emit trace/time-series samples. Never blocks
    /// and never advances simulated time.
    fn svc_op(&mut self, pid: usize, op: ncp2_sim::SvcOp) -> ProcReply {
        let now = self.nodes[pid].time;
        match op {
            ncp2_sim::SvcOp::Now => ProcReply::Value(now),
            ncp2_sim::SvcOp::Dequeue { depth } => {
                let svc = self.svc.get_or_insert_with(Default::default);
                svc.dequeues += 1;
                svc.queue_peak = svc.queue_peak.max(depth);
                self.record(now, pid, crate::trace::TraceKind::SvcDequeue { depth });
                self.ts_gauge(crate::timeseries::TsGauge::SvcQueueDepth, now, depth);
                ProcReply::Ack
            }
            ncp2_sim::SvcOp::Reply { class, response } => {
                let svc = self.svc.get_or_insert_with(Default::default);
                match class {
                    ncp2_sim::SvcClass::Get => svc.gets += 1,
                    ncp2_sim::SvcClass::Put => svc.puts += 1,
                    ncp2_sim::SvcClass::Session => svc.sessions += 1,
                }
                svc.response.observe(response);
                self.record(
                    now,
                    pid,
                    crate::trace::TraceKind::SvcReply { class, response },
                );
                ProcReply::Ack
            }
        }
    }

    /// Performs a read/write op. Returns `Some(reply)` when it completed
    /// synchronously, `None` when the processor blocked.
    fn access(&mut self, pid: usize, op: ProcOp) -> Option<ProcReply> {
        if self.seq {
            return Some(self.seq_access(pid, op));
        }
        match self.protocol {
            Protocol::TreadMarks(_) => self.tm_access(pid, op),
            Protocol::Aurc { .. } => self.aurc_access(pid, op),
        }
    }

    fn seq_access(&mut self, pid: usize, op: ProcOp) -> ProcReply {
        let (addr, write) = match op {
            ProcOp::Read { addr, .. } => (addr, false),
            ProcOp::Write { addr, .. } => (addr, true),
            _ => unreachable!("seq_access on non-memory op"),
        };
        self.charge_mem(pid, addr, write);
        let page = page_of(addr, self.params.page_bytes);
        let pb = self.params.page_bytes;
        let buf = self.master.get_or_insert_with(page, || PageBuf::new(pb));
        let off = (addr % self.params.page_bytes) as usize;
        match op {
            ProcOp::Read { bytes, .. } => ProcReply::Value(buf.read(off, bytes)),
            ProcOp::Write { bytes, value, .. } => {
                buf.write(off, bytes, value);
                ProcReply::Ack
            }
            _ => unreachable!(),
        }
    }

    // ----- shared helpers -----------------------------------------------

    /// Advances `pid`'s clock by `c` cycles of `cat`, spent on `kind`.
    pub(crate) fn advance(&mut self, pid: usize, c: Cycles, cat: Category, kind: SpanKind) {
        let nd = &mut self.nodes[pid];
        let start = nd.time;
        nd.time += c;
        nd.stats.breakdown.add(cat, c);
        self.obs_span(pid, kind, cat, start, c);
    }

    /// Runs the hardware timing of one data reference and charges the
    /// breakdown (1 busy cycle on a hit; TLB/stall cycles as Other).
    pub(crate) fn charge_mem(&mut self, pid: usize, addr: u64, write: bool) {
        let now = self.nodes[pid].time;
        let params = self.params.clone();
        let nd = &mut self.nodes[pid];
        let out = if write {
            nd.mem.write(now, addr, &params)
        } else {
            nd.mem.read(now, addr, &params)
        };
        let hit_cycles = if out.cache_hit || write { 1 } else { 0 };
        // overflow: a same-cycle hit makes the window shorter than the
        // busy charge; clamp the remainder to zero.
        let other = (out.done - now).saturating_sub(hit_cycles);
        nd.time = out.done;
        nd.stats.breakdown.add(Category::Busy, hit_cycles);
        nd.stats.breakdown.add(Category::Other, other);
        self.obs_span(pid, SpanKind::MemHit, Category::Busy, now, hit_cycles);
        self.obs_span(
            pid,
            SpanKind::MemStall,
            Category::Other,
            now + hit_cycles,
            other,
        );
    }

    /// Charges `dur` cycles of unexpected service work to processor `pid`
    /// starting at event time `now`; returns the service completion time.
    ///
    /// * Runnable processors are preempted (their clock is pushed back).
    /// * Blocked processors overlap the service with their wait; the cycles
    ///   are reclassified from wait time to `cat` at wake.
    /// * Finished processors absorb the work without extending the run.
    pub(crate) fn interrupt_proc(
        &mut self,
        pid: usize,
        now: Cycles,
        dur: Cycles,
        cat: Category,
        kind: SpanKind,
    ) -> Cycles {
        let nd = &mut self.nodes[pid];
        match nd.status {
            ProcStatus::Runnable => {
                let start = nd.time;
                nd.time += dur;
                nd.stats.breakdown.add(cat, dur);
                self.obs_span(pid, kind, cat, start, dur);
            }
            ProcStatus::Blocked => {
                // Overlapped with the wait; the span (reclassified to IPC)
                // is emitted at wake.
                nd.ipc_during_wait += dur;
            }
            ProcStatus::Done => {
                nd.stats.breakdown.add(cat, dur);
                // Charged at the requester's event time: the node's own
                // timeline already ended, so the span would puncture the
                // per-node tiling the dependency graph is built on.
                self.obs_span_detached(pid, kind, cat, now, dur);
            }
        }
        now + dur
    }

    /// Records a protocol trace event when tracing is enabled.
    pub(crate) fn record(&mut self, time: Cycles, node: usize, kind: crate::trace::TraceKind) {
        if self.params.trace {
            self.trace
                .push(crate::trace::TraceEvent { time, node, kind });
        }
    }

    /// Schedules delivery of `msg` leaving `src` at `t`.
    pub(crate) fn dispatch(&mut self, t: Cycles, src: usize, dst: usize, msg: Msg) {
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::MsgSent {
            src,
            dst,
            kind: msg.kind(),
            demand: !msg.is_prefetch(),
        });
        let bytes = msg.bytes(self.params.page_bytes, self.params.page_words());
        self.record(
            t,
            src,
            crate::trace::TraceKind::MsgSent {
                dst,
                bytes,
                prefetch: msg.is_prefetch(),
            },
        );
        // With an active fault plan the hardened transport carries every
        // inter-node message (sequence numbers, acks, retransmission);
        // loopback sends stay on the legacy path — no wire, no faults.
        #[cfg(feature = "fault")]
        if self.fault.is_some() && src != dst {
            self.transport_send(t, src, dst, msg);
            return;
        }
        let prio = if msg.is_prefetch() {
            Priority::Low
        } else {
            Priority::Normal
        };
        let params = self.params.clone();
        let tr = self.net.transfer_timed(t, src, dst, bytes, &params);
        self.ts_count(crate::timeseries::TsCounter::Messages, t, 1);
        self.ts_count(crate::timeseries::TsCounter::MessageBytes, t, bytes);
        self.obs_flight(
            src,
            dst,
            msg.kind(),
            bytes,
            msg.is_prefetch(),
            t,
            tr.start,
            tr.arrival,
        );
        self.obs_edge(
            EdgeKind::Msg(msg.kind()),
            src,
            t,
            dst,
            tr.arrival,
            0,
            self.obs_last_span(src),
        );
        self.queue.push(tr.arrival, prio, Ev::Msg { dst, msg });
    }

    /// Sends a message with the setup performed by the **protocol
    /// controller** (I-modes): occupies the controller, not the processor.
    pub(crate) fn ctrl_send(&mut self, t: Cycles, src: usize, dst: usize, msg: Msg) {
        let oh = self.params.messaging_overhead;
        let (s, end) = self.nodes[src].ctrl.run_io(t, oh);
        self.note_ctrl(src, Engine::CtrlIo, CtrlCmd::Send, s, end);
        self.dispatch(end, src, dst, msg);
    }

    /// Notes a controller command: one `ControllerCommand` trace event plus
    /// an engine-occupancy interval for the obs timeline.
    pub(crate) fn note_ctrl(
        &mut self,
        node: usize,
        engine: Engine,
        cmd: CtrlCmd,
        start: Cycles,
        end: Cycles,
    ) {
        self.record(
            start,
            node,
            crate::trace::TraceKind::ControllerCommand { cmd },
        );
        self.obs_engine(node, engine, cmd, start, end);
        self.ts_ctrl_span(node, start, end);
        self.obs_edge(
            EdgeKind::Ctrl(cmd),
            node,
            start,
            node,
            end,
            0,
            self.obs_last_span(node),
        );
    }

    /// Blocks `pid` with the given wait reason.
    pub(crate) fn block(&mut self, pid: usize, wait: Wait) {
        let nd = &mut self.nodes[pid];
        debug_assert_eq!(nd.status, ProcStatus::Runnable, "double block of {pid}");
        nd.status = ProcStatus::Blocked;
        nd.wait_start = nd.time;
        nd.ipc_during_wait = 0;
        nd.wait = wait;
    }

    /// Schedules `pid` to wake at `t`.
    pub(crate) fn schedule_wake(&mut self, pid: usize, t: Cycles) {
        self.queue.push(t, Priority::Urgent, Ev::Wake { pid });
    }

    // ----- event handling -------------------------------------------------

    fn handle_event(&mut self, t: Cycles, ev: Ev, harness: &ProcHarness) {
        match ev {
            Ev::Wake { pid } => self.handle_wake(pid, t, harness),
            Ev::Msg { dst, msg } => self.handle_msg(dst, t, msg),
            #[cfg(feature = "fault")]
            Ev::Frame {
                src,
                dst,
                seq,
                attempt,
                msg,
                lost,
                sent_at,
                anchor,
            } => self.on_frame(t, src, dst, seq, attempt, msg, lost, sent_at, anchor),
            #[cfg(feature = "fault")]
            Ev::Ack { src, dst, cum } => self.on_ack(t, src, dst, cum),
            #[cfg(feature = "fault")]
            Ev::RetxCheck {
                src,
                dst,
                seq,
                attempt,
            } => self.on_retx_check(t, src, dst, seq, attempt),
        }
    }

    fn handle_wake(&mut self, pid: usize, t: Cycles, harness: &ProcHarness) {
        let cat = self.nodes[pid].wait.category();
        let stall_kind = match self.nodes[pid].wait {
            Wait::None => SpanKind::SyncOp,
            Wait::Fault(_) | Wait::AurcFault { .. } => SpanKind::FaultStall,
            Wait::PrefetchJoin { .. } => SpanKind::PrefetchStall,
            Wait::Lock { .. } => SpanKind::LockStall,
            Wait::Barrier => SpanKind::BarrierStall,
        };
        let was_barrier = matches!(self.nodes[pid].wait, Wait::Barrier);
        let lock_wait = match self.nodes[pid].wait {
            Wait::Lock { lock } => Some(lock),
            _ => None,
        };
        let (wait_start, stall, reclass);
        {
            let nd = &mut self.nodes[pid];
            debug_assert_eq!(nd.status, ProcStatus::Blocked, "wake of non-blocked {pid}");
            // overflow: zero-length waits can wake in the arrival cycle;
            // clamp rather than underflow.
            let wait_dur = t.saturating_sub(nd.wait_start);
            reclass = nd.ipc_during_wait.min(wait_dur);
            stall = wait_dur - reclass;
            wait_start = nd.wait_start;
            nd.stats.breakdown.add(cat, stall);
            nd.stats.breakdown.add(Category::Ipc, reclass);
            nd.ipc_during_wait = 0;
            nd.time = nd.wait_start.max(t);
            nd.status = ProcStatus::Runnable;
            nd.wait = Wait::None;
        }
        self.obs_span(pid, stall_kind, cat, wait_start, stall);
        self.obs_span(
            pid,
            SpanKind::Service,
            Category::Ipc,
            wait_start + stall,
            reclass,
        );
        if was_barrier {
            // The barrier wait belongs to the epoch it closes; the next
            // epoch begins with the processor's release.
            self.obs_epoch(pid);
        }
        if let Some(lock) = lock_wait {
            // The full stall is attributed to the window where the grant
            // arrived — the moment the contention resolved.
            self.ts_lock(lock as u64, stall, 0, 0);
        }
        // invariant: a processor only blocks with its faulting op recorded
        let op = self.nodes[pid].pending_op.expect("wake without pending op");
        match op {
            ProcOp::Read { .. } | ProcOp::Write { .. } => {
                // The access retries; it may block again (e.g. new notices
                // arrived for the page while a prefetch was in flight).
                if let Some(reply) = self.access(pid, op) {
                    self.nodes[pid].pending_op = None;
                    harness.reply(pid, reply);
                }
            }
            ProcOp::Lock(_) | ProcOp::Barrier(_) => {
                self.nodes[pid].pending_op = None;
                harness.reply(pid, ProcReply::Ack);
            }
            other => unreachable!("unexpected pending op {other:?}"),
        }
    }

    pub(crate) fn handle_msg(&mut self, dst: usize, t: Cycles, msg: Msg) {
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::MsgDelivered {
            dst,
            kind: msg.kind(),
            demand: !msg.is_prefetch(),
        });
        match msg {
            Msg::LockReq { lock, acquirer, vt } => self.on_lock_req(dst, t, lock, acquirer, vt),
            Msg::LockForward { lock, acquirer, vt } => {
                self.on_lock_forward(dst, t, lock, acquirer, vt)
            }
            Msg::LockGrant {
                lock,
                anns,
                update_horizon,
            } => self.on_lock_grant(dst, t, lock, anns, update_horizon),
            Msg::BarrierArrive {
                barrier,
                from,
                vt,
                anns,
                horizons,
            } => self.on_barrier_arrive(dst, t, barrier, from, vt, anns, horizons),
            Msg::BarrierRelease {
                barrier,
                vt,
                anns,
                update_horizon,
            } => {
                let _ = barrier; // consumed by the verify hook below
                #[cfg(feature = "verify")]
                self.emit(crate::observe::ProtocolEvent::BarrierCompleted { pid: dst, barrier });
                self.on_barrier_release(dst, t, vt, anns, update_horizon)
            }
            Msg::DiffReq {
                page,
                intervals,
                requester,
                requester_vt,
                prefetch,
                want_page,
            } => self.on_diff_req(
                dst,
                t,
                page,
                intervals,
                requester,
                requester_vt,
                prefetch,
                want_page,
            ),
            Msg::DiffReply {
                page,
                diffs,
                full_page,
                prefetch,
            } => self.on_diff_reply(dst, t, page, diffs, full_page, prefetch),
            Msg::AurcUpdate { page, .. } => self.on_aurc_update(dst, t, page),
            Msg::AurcPageReq {
                page,
                requester,
                prefetch,
            } => self.on_aurc_page_req(dst, t, page, requester, prefetch),
            Msg::AurcPageReply { page, prefetch } => {
                self.on_aurc_page_reply(dst, t, page, prefetch)
            }
        }
    }

    /// Sends `msg` from `src`, charging the per-message software overhead to
    /// the right engine: the protocol controller under the I-modes, the
    /// computation processor otherwise. `servicing` selects preemptive
    /// charging ([`Self::interrupt_proc`]) over in-line charging (the
    /// processor is the acting party). Advances `*t` to the injection time.
    pub(crate) fn send_msg(
        &mut self,
        t: &mut Cycles,
        src: usize,
        dst: usize,
        msg: Msg,
        cat: Category,
        servicing: bool,
    ) {
        let offload = matches!(self.protocol, Protocol::TreadMarks(m) if m.offload());
        if offload {
            let issue = Controller::issue_cost(&self.params);
            if servicing {
                *t = self.interrupt_proc(src, *t, issue, cat, SpanKind::MsgSetup);
            } else {
                self.advance(src, issue, cat, SpanKind::MsgSetup);
                *t = self.nodes[src].time;
            }
            self.ctrl_send(*t, src, dst, msg);
        } else {
            let oh = self.params.messaging_overhead;
            if servicing {
                *t = self.interrupt_proc(src, *t, oh, cat, SpanKind::MsgSetup);
            } else {
                self.advance(src, oh, cat, SpanKind::MsgSetup);
                *t = self.nodes[src].time;
            }
            self.dispatch(*t, src, dst, msg);
        }
    }

    // ----- small accessors used by the protocol modules -------------------

    /// The overlap mode (TreadMarks protocols only).
    pub(crate) fn mode(&self) -> crate::protocol::OverlapMode {
        match self.protocol {
            Protocol::TreadMarks(m) => m,
            Protocol::Aurc { .. } => unreachable!("mode() called under AURC"),
        }
    }

    /// Lazily materializes node `pid`'s copy of `page`.
    pub(crate) fn tm_page(&mut self, pid: usize, page: PageId) -> &mut TmPage {
        let (pb, pw) = (self.params.page_bytes, self.params.page_words());
        self.nodes[pid]
            .pages
            .get_or_insert_with(page, || TmPage::new(pb, pw))
    }

    /// Lazily materializes the AURC master copy of `page`.
    pub(crate) fn master_page(&mut self, page: PageId) -> &mut PageBuf {
        let pb = self.params.page_bytes;
        self.master.get_or_insert_with(page, || PageBuf::new(pb))
    }

    /// Aggregated breakdown over every node (testing aid).
    pub fn aggregate(&self) -> Breakdown {
        self.nodes.iter().map(|n| n.stats.breakdown).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OverlapMode;

    fn sim(n: usize) -> Simulation {
        Simulation::new(
            SysParams::default().with_nprocs(n),
            Protocol::TreadMarks(OverlapMode::Base),
        )
    }

    #[test]
    fn write_cache_combines_and_evicts_fifo() {
        let mut wc = WriteCache {
            entries: VecDeque::new(),
            capacity: 2,
        };
        assert_eq!(wc.insert(1, 0), InsertOutcome::Inserted { evicted: None });
        assert_eq!(wc.insert(1, 0), InsertOutcome::Combined);
        assert_eq!(wc.insert(2, 0), InsertOutcome::Inserted { evicted: None });
        assert_eq!(
            wc.insert(3, 0),
            InsertOutcome::Inserted {
                evicted: Some((1, 0))
            }
        );
        let flushed = wc.flush();
        assert_eq!(flushed, vec![(2, 0), (3, 0)]);
        assert!(wc.entries.is_empty());
    }

    #[test]
    fn write_cache_keys_on_line_and_destination() {
        let mut wc = WriteCache {
            entries: VecDeque::new(),
            capacity: 4,
        };
        assert_eq!(wc.insert(7, 0), InsertOutcome::Inserted { evicted: None });
        // Same line to a different destination is a distinct entry.
        assert_eq!(wc.insert(7, 1), InsertOutcome::Inserted { evicted: None });
        assert_eq!(wc.insert(7, 0), InsertOutcome::Combined);
        assert_eq!(wc.entries.len(), 2);
    }

    #[test]
    fn wait_categories_match_paper_buckets() {
        assert_eq!(Wait::Fault(FaultWait::default()).category(), Category::Data);
        assert_eq!(Wait::PrefetchJoin { page: 0 }.category(), Category::Data);
        assert_eq!(Wait::AurcFault { page: 0 }.category(), Category::Data);
        assert_eq!(Wait::Lock { lock: 0 }.category(), Category::Synch);
        assert_eq!(Wait::Barrier.category(), Category::Synch);
    }

    #[test]
    fn interrupt_proc_preempts_runnable_processors() {
        let mut s = sim(2);
        s.nodes[1].time = 1000;
        let done = s.interrupt_proc(1, 500, 100, Category::Ipc, SpanKind::Service);
        assert_eq!(done, 600, "service completes at event time + duration");
        assert_eq!(s.nodes[1].time, 1100, "the processor is pushed back");
        assert_eq!(s.nodes[1].stats.breakdown.ipc, 100);
    }

    #[test]
    fn interrupt_proc_overlaps_blocked_processors() {
        let mut s = sim(2);
        s.nodes[1].status = ncp2_sim::ProcStatus::Blocked;
        s.nodes[1].wait_start = 400;
        let done = s.interrupt_proc(1, 500, 100, Category::Ipc, SpanKind::Service);
        assert_eq!(done, 600);
        assert_eq!(
            s.nodes[1].ipc_during_wait, 100,
            "charged against the wait at wake"
        );
        assert_eq!(
            s.nodes[1].stats.breakdown.ipc, 0,
            "not yet in the breakdown"
        );
    }

    #[test]
    fn advance_tags_categories() {
        let mut s = sim(1);
        s.advance(0, 10, Category::Busy, SpanKind::Compute);
        s.advance(0, 5, Category::Synch, SpanKind::SyncOp);
        assert_eq!(s.nodes[0].time, 15);
        assert_eq!(s.nodes[0].stats.breakdown.busy, 10);
        assert_eq!(s.nodes[0].stats.breakdown.synch, 5);
    }

    #[test]
    fn tm_page_is_lazily_zeroed_and_readable() {
        let mut s = sim(2);
        let tp = s.tm_page(1, 42);
        assert_eq!(tp.state, PageState::ReadOnly);
        assert_eq!(tp.data.read(0, 8), 0);
        assert!(!tp.referenced && tp.pending.is_empty());
        // Master pages too.
        assert_eq!(s.master_page(7).read(64, 4), 0);
    }

    #[test]
    fn dispatch_prioritizes_prefetch_messages_low() {
        let mut s = sim(2);
        let demand = Msg::AurcPageReq {
            page: 0,
            requester: 0,
            prefetch: false,
        };
        let pf = Msg::AurcPageReq {
            page: 1,
            requester: 0,
            prefetch: true,
        };
        assert!(!demand.is_prefetch());
        assert!(pf.is_prefetch());
        // At equal delivery time, the queue orders by priority: the demand
        // message (Normal) pops before the prefetch (Low) even though it
        // was pushed second — the paper's command-priority mechanism.
        let prio = |m: &Msg| {
            if m.is_prefetch() {
                Priority::Low
            } else {
                Priority::Normal
            }
        };
        s.queue.push(100, prio(&pf), Ev::Msg { dst: 1, msg: pf });
        s.queue.push(
            100,
            prio(&demand),
            Ev::Msg {
                dst: 1,
                msg: demand,
            },
        );
        let first = s.queue.pop().expect("event");
        match first.payload {
            Ev::Msg {
                msg: Msg::AurcPageReq { prefetch, .. },
                ..
            } => assert!(!prefetch),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid system parameters")]
    fn bad_params_are_rejected() {
        let p = SysParams {
            page_bytes: 3000,
            ..SysParams::default()
        };
        let _ = Simulation::new(p, Protocol::TreadMarks(OverlapMode::Base));
    }
}
