//! TreadMarks under the six overlap modes (§3.2, §5.1).
//!
//! Lazy release consistency with lazy diff creation: pages are invalidated
//! by write notices at acquires; the first access to an invalid page
//! collects diffs from the writers named in the pending notices. The
//! overlap modes move work between the computation processor, the protocol
//! controller's core, and the bit-vector DMA engine:
//!
//! * **Base/P** — everything on the computation processor.
//! * **I/I+P** — twin creation, diff generation/application and message
//!   handling on the controller; interval/write-notice processing stays on
//!   the processor (it is "complicated", §3.2).
//! * **I+D/I+P+D** — no twins at all; the snoop hardware keeps dirty-word
//!   bit vectors and the DMA engine generates diffs eagerly when an interval
//!   closes and applies incoming diffs by scatter-gather.

use std::sync::Arc;

use ncp2_sim::{Category, Cycles, ProcOp, ProcReply};

use crate::controller::Controller;
use crate::diff::{Diff, DiffList};
use crate::interval::{IntervalAnnouncement, IvlList};
use crate::msg::Msg;
use crate::page::{page_of, word_index, PageBuf, PageId, PageState};
use crate::span::{CtrlCmd, Engine, SpanKind};
use crate::system::{FaultWait, PrefetchState, Simulation, Wait};
use crate::vtime::{IntervalId, VectorTime};

impl Simulation {
    // ----- the access path -------------------------------------------------

    /// Handles one read/write. `None` means the processor blocked (fault).
    pub(crate) fn tm_access(&mut self, pid: usize, op: ProcOp) -> Option<ProcReply> {
        let (addr, write) = match op {
            ProcOp::Read { addr, .. } => (addr, false),
            ProcOp::Write { addr, .. } => (addr, true),
            _ => unreachable!("tm_access on non-memory op"),
        };
        let page = page_of(addr, self.params.page_bytes);
        let state = self.tm_page(pid, page).state;
        match state {
            PageState::Invalid => {
                if let Some(ps) = self.nodes[pid].prefetches.get_mut(page) {
                    ps.joined = true;
                    self.nodes[pid].stats.prefetch_joins += 1;
                    self.block(pid, Wait::PrefetchJoin { page });
                } else {
                    self.tm_start_fault(pid, page);
                }
                None
            }
            PageState::ReadOnly if write => {
                if self.mode().hw_diffs() {
                    // Snooping hardware tracks dirty words; no trap needed.
                    self.tm_page(pid, page).state = PageState::ReadWrite;
                } else {
                    self.tm_write_fault(pid, page);
                }
                Some(self.tm_do_access(pid, op))
            }
            _ => Some(self.tm_do_access(pid, op)),
        }
    }

    /// The access itself, on a valid page: hardware timing + data movement.
    fn tm_do_access(&mut self, pid: usize, op: ProcOp) -> ProcReply {
        let (addr, write) = match op {
            ProcOp::Read { addr, .. } => (addr, false),
            ProcOp::Write { addr, .. } => (addr, true),
            _ => unreachable!(),
        };
        #[cfg(feature = "verify")]
        {
            let bytes = match op {
                ProcOp::Read { bytes, .. } | ProcOp::Write { bytes, .. } => bytes,
                _ => 0,
            };
            self.emit(crate::observe::ProtocolEvent::Access {
                pid,
                addr,
                bytes,
                write,
            });
        }
        self.charge_mem(pid, addr, write);
        let page = page_of(addr, self.params.page_bytes);
        let (page_bytes, hw) = (self.params.page_bytes, self.mode().hw_diffs());
        let off = (addr % page_bytes) as usize;
        let widx = word_index(addr, page_bytes);
        let (reply, newly_dirty, was_prefetched) = {
            let tp = self.tm_page(pid, page);
            tp.referenced = true;
            let wp = std::mem::take(&mut tp.prefetched_unused);
            match op {
                ProcOp::Read { bytes, .. } => {
                    (ProcReply::Value(tp.data.read(off, bytes)), false, wp)
                }
                ProcOp::Write { bytes, value, .. } => {
                    debug_assert_eq!(tp.state, PageState::ReadWrite, "write to protected page");
                    tp.data.write(off, bytes, value);
                    if hw {
                        // The snoop sets one bit per 4-byte word touched.
                        for w in 0..(bytes as usize).div_ceil(4) {
                            tp.dirty.set(widx + w);
                        }
                    }
                    let nd = !tp.in_cur_dirty;
                    tp.in_cur_dirty = true;
                    (ProcReply::Ack, nd, wp)
                }
                _ => unreachable!(),
            }
        };
        if newly_dirty {
            self.nodes[pid].cur_dirty.push(page);
        }
        if was_prefetched {
            self.nodes[pid].stats.prefetch_hits += 1;
            let now = self.nodes[pid].time;
            self.obs_prefetch_used(pid, page, now);
        }
        reply
    }

    /// Software write fault: trap, settle any stale twin into its diff,
    /// create the new twin, unprotect.
    fn tm_write_fault(&mut self, pid: usize, page: PageId) {
        self.advance(
            pid,
            self.params.interrupt,
            Category::Other,
            SpanKind::Interrupt,
        );
        self.nodes[pid].stats.write_faults += 1;
        let t0 = self.nodes[pid].time;
        let after_old_diff = self.tm_force_diff(pid, page, t0);
        let end = self.tm_make_twin(pid, page, after_old_diff);
        self.advance(
            pid,
            after_old_diff - t0,
            Category::Data,
            SpanKind::DiffCreate,
        );
        self.advance(pid, end - after_old_diff, Category::Data, SpanKind::Twin);
        let open = self.open_interval_id(pid);
        let tp = self.tm_page(pid, page);
        let snapshot = tp.data.clone();
        tp.twin = Some((open, snapshot));
        tp.state = PageState::ReadWrite;
    }

    /// Id the open interval will get when it closes.
    fn open_interval_id(&self, pid: usize) -> IntervalId {
        self.nodes[pid].vt.get(pid) + 1
    }

    /// Timing of twin creation starting at `t` (page copy: 5 cycles/word on
    /// the executing engine plus a read+write page pass over memory).
    fn tm_make_twin(&mut self, pid: usize, _page: PageId, t: Cycles) -> Cycles {
        let params = self.params.clone();
        let cpu = Controller::twin_cost(&params);
        let words = 2 * params.page_words();
        self.nodes[pid].stats.twin_cycles += cpu;
        if self.mode().offload() {
            let (s, e) = self.nodes[pid].ctrl.run(t, cpu);
            self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::Twin, s, e);
            let (_, me) = self.nodes[pid].mem.dram.access(s, words, &params);
            let (_, pe) = self.nodes[pid].mem.pci.burst(s, words, &params);
            e.max(me).max(pe)
        } else {
            self.nodes[pid].stats.diff_proc_cycles += cpu;
            let (_, me) = self.nodes[pid].mem.dram.access(t + cpu, words, &params);
            me
        }
    }

    /// If `pid` holds unsettled local modifications of `page` (a twin in the
    /// software modes, dirty bits in the hardware modes), turn them into a
    /// stored diff now. Returns the processor-visible completion time; DMA /
    /// controller work proceeds asynchronously under the I-modes.
    pub(crate) fn tm_force_diff(&mut self, pid: usize, page: PageId, t: Cycles) -> Cycles {
        let params = self.params.clone();
        let mode = self.mode();
        if mode.hw_diffs() {
            let open = self.open_interval_id(pid);
            let tp = self.tm_page(pid, page);
            if tp.dirty.is_clean() {
                return t;
            }
            let diff = Diff::from_dirty_vec(page, pid, open, &tp.data, &tp.dirty);
            tp.dirty.clear();
            #[cfg(feature = "verify")]
            {
                let ev = crate::observe::ProtocolEvent::DiffCreated {
                    pid,
                    page,
                    interval: open,
                    diff: diff.clone(),
                    data: tp.data.clone(),
                };
                self.emit(ev);
            }
            let words = diff.word_count();
            self.tm_store_diff(pid, diff);
            self.record(t, pid, crate::trace::TraceKind::DiffCreated { page, words });
            let cpu = Controller::dma_cost(&params, words);
            let (s, e) = self.nodes[pid].ctrl.run(t, cpu);
            self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
            let gather = params.mem_scattered(words.max(1));
            let (_, _me) = self.nodes[pid].mem.dram.resource.reserve(s, gather);
            let (_, _pe) = self.nodes[pid].mem.pci.burst(s, words.max(1), &params);
            self.nodes[pid].stats.diff_create_cycles += cpu;
            self.nodes[pid].stats.diffs_created += 1;
            self.nodes[pid].stats.diff_bytes_created += 4 * words;
            self.ts_count(crate::timeseries::TsCounter::DiffsCreated, t, 1);
            self.ts_count(crate::timeseries::TsCounter::DiffBytesCreated, t, 4 * words);
            self.ts_page(page, 0, 4 * words, 0);
            t + Controller::issue_cost(&params)
        } else {
            let Some((tivl, twin)) = self.tm_page(pid, page).twin.take() else {
                return t;
            };
            let data = self.tm_page(pid, page).data.clone();
            let diff = Diff::from_twin(page, pid, tivl, &data, &twin);
            #[cfg(feature = "verify")]
            self.emit(crate::observe::ProtocolEvent::DiffCreated {
                pid,
                page,
                interval: tivl,
                diff: diff.clone(),
                data: data.clone(),
            });
            let words = diff.word_count();
            self.tm_store_diff(pid, diff);
            self.record(t, pid, crate::trace::TraceKind::DiffCreated { page, words });
            let cpu = Controller::sw_diff_scan(&params);
            self.nodes[pid].stats.diff_create_cycles += cpu;
            self.nodes[pid].stats.diffs_created += 1;
            self.nodes[pid].stats.diff_bytes_created += 4 * words;
            self.ts_count(crate::timeseries::TsCounter::DiffsCreated, t, 1);
            self.ts_count(crate::timeseries::TsCounter::DiffBytesCreated, t, 4 * words);
            self.ts_page(page, 0, 4 * words, 0);
            if mode.offload() {
                let (s, e) = self.nodes[pid].ctrl.run(t, cpu);
                self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
                let (_, _me) = self.nodes[pid]
                    .mem
                    .dram
                    .access(s, params.page_words(), &params);
                t + Controller::issue_cost(&params)
            } else {
                self.nodes[pid].stats.diff_proc_cycles += cpu;
                let (_, me) =
                    self.nodes[pid]
                        .mem
                        .dram
                        .access(t + cpu, params.page_words(), &params);
                me
            }
        }
    }

    /// Inserts a diff into the owner's store, merging with an earlier diff
    /// for the same (page, interval) if an invalidation forced one early.
    fn tm_store_diff(&mut self, pid: usize, diff: Diff) {
        let key = (diff.page, diff.interval);
        let nd = &mut self.nodes[pid];
        nd.diffs.merge_or_insert(diff);
        // invariant: the diff being stored was created from this page entry
        let tp = nd.pages.get_mut(key.0).expect("page exists");
        if !tp.own_intervals.contains(&key.1) {
            tp.own_intervals.push(key.1);
        }
    }

    /// Interval-close bookkeeping for the dirtied pages (called by
    /// [`Simulation::close_interval`]): eager DMA diffs in hardware modes,
    /// write protection (for lazy diffs) in software modes.
    pub(crate) fn tm_close_pages(&mut self, pid: usize, id: IntervalId, pages: &[PageId]) {
        let params = self.params.clone();
        let hw = self.mode().hw_diffs();
        for &page in pages {
            let tp = self.tm_page(pid, page);
            tp.in_cur_dirty = false;
            if tp.state == PageState::Invalid {
                // Invalidated mid-interval: its diff was forced already.
                continue;
            }
            if hw {
                if tp.dirty.is_clean() {
                    continue;
                }
                let diff = Diff::from_dirty_vec(page, pid, id, &tp.data, &tp.dirty);
                tp.dirty.clear();
                #[cfg(feature = "verify")]
                {
                    let ev = crate::observe::ProtocolEvent::DiffCreated {
                        pid,
                        page,
                        interval: id,
                        diff: diff.clone(),
                        data: tp.data.clone(),
                    };
                    self.emit(ev);
                }
                let words = diff.word_count();
                self.tm_store_diff(pid, diff);
                self.advance(
                    pid,
                    Controller::issue_cost(&params),
                    Category::Synch,
                    SpanKind::MsgSetup,
                );
                let now = self.nodes[pid].time;
                self.record(
                    now,
                    pid,
                    crate::trace::TraceKind::DiffCreated { page, words },
                );
                let cpu = Controller::dma_cost(&params, words);
                let (s, e) = self.nodes[pid].ctrl.run(now, cpu);
                self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
                let gather = params.mem_scattered(words.max(1));
                let (_, _me) = self.nodes[pid].mem.dram.resource.reserve(s, gather);
                let (_, _pe) = self.nodes[pid].mem.pci.burst(s, words.max(1), &params);
                self.nodes[pid].stats.diff_create_cycles += cpu;
                self.nodes[pid].stats.diffs_created += 1;
                self.nodes[pid].stats.diff_bytes_created += 4 * words;
                self.ts_count(crate::timeseries::TsCounter::DiffsCreated, now, 1);
                self.ts_count(
                    crate::timeseries::TsCounter::DiffBytesCreated,
                    now,
                    4 * words,
                );
                self.ts_page(page, 0, 4 * words, 0);
            } else {
                // Write-protect so the next interval's writes re-fault and
                // settle this twin lazily.
                tp.state = PageState::ReadOnly;
                self.advance(
                    pid,
                    params.list_processing,
                    Category::Synch,
                    SpanKind::NoticeMgmt,
                );
            }
        }
    }

    // ----- faults -----------------------------------------------------------

    /// Begins diff collection for an invalid page; blocks the processor.
    fn tm_start_fault(&mut self, pid: usize, page: PageId) {
        let now = self.nodes[pid].time;
        self.record(now, pid, crate::trace::TraceKind::Fault { page });
        self.nodes[pid].stats.faults += 1;
        self.advance(
            pid,
            self.params.interrupt,
            Category::Other,
            SpanKind::Interrupt,
        );
        let mut pending = crate::pool::take_pairs();
        pending.extend_from_slice(&self.tm_page(pid, page).pending);
        assert!(
            !pending.is_empty(),
            "fault on page {page} with no pending notices"
        );
        self.advance(
            pid,
            self.params.list_processing * pending.len() as Cycles,
            Category::Data,
            SpanKind::NoticeMgmt,
        );
        let mut requests = self.tm_build_requests(pid, page, &pending, false);
        crate::pool::put_pairs(pending);
        let outstanding = requests.len();
        let mut t = self.nodes[pid].time;
        for (owner, msg) in requests.drain(..) {
            self.send_msg(&mut t, pid, owner, msg, Category::Data, false);
        }
        crate::pool::put_reqs(requests);
        self.nodes[pid].time = t;
        self.block(
            pid,
            Wait::Fault(FaultWait {
                page,
                outstanding,
                ready_at: t,
                diffs: DiffList::new(),
                full_page: None,
            }),
        );
    }

    /// Groups pending notices into per-writer requests; flips to a whole
    /// page fetch from the most recent writer when the chain is long. Every
    /// request of the batch shares one snapshot of the requester's vector
    /// time. The returned buffer is pooled: drain it, then `put_reqs` it.
    fn tm_build_requests(
        &mut self,
        pid: usize,
        page: PageId,
        pending: &[(usize, IntervalId)],
        prefetch: bool,
    ) -> Vec<(usize, Msg)> {
        // Sorting `(owner, interval)` pairs groups them by ascending owner
        // with ascending intervals inside each group — the same deterministic
        // order the previous `BTreeMap<owner, Vec<_>>` grouping produced,
        // without its per-node allocations.
        let mut by_owner = crate::pool::take_pairs();
        by_owner.extend_from_slice(pending);
        by_owner.sort_unstable();
        let want_page_from = if pending.len() > self.params.page_req_threshold {
            pending
                .iter()
                .max_by_key(|&&(o, i)| (self.vt_sum(pid, o, i), o, i))
                .map(|&(o, _)| o)
        } else {
            None
        };
        let requester_vt = Arc::new(self.nodes[pid].vt.clone());
        let mut out = crate::pool::take_reqs();
        let mut i = 0;
        while i < by_owner.len() {
            let owner = by_owner[i].0;
            let mut ivls = IvlList::new();
            while i < by_owner.len() && by_owner[i].0 == owner {
                ivls.push(by_owner[i].1);
                i += 1;
            }
            let msg = Msg::DiffReq {
                page,
                intervals: ivls,
                requester: pid,
                requester_vt: Arc::clone(&requester_vt),
                prefetch,
                want_page: want_page_from == Some(owner),
            };
            out.push((owner, msg));
        }
        crate::pool::put_pairs(by_owner);
        out
    }

    /// Linear extension key for causal apply order: the component sum of an
    /// interval's vector time (strictly monotone along causal chains), or 0
    /// for an interval that has not closed yet (`pid`'s own open interval,
    /// whose diff an invalidation may have forced early).
    pub(crate) fn vt_sum(&self, pid: usize, owner: usize, ivl: IntervalId) -> u64 {
        let sum = self.sums[owner].get(ivl as usize).copied().unwrap_or(0);
        // The table knows every interval closed anywhere, but `pid` may only
        // order intervals it has seen: every lookup names one it has
        // recorded (its vector time covers exactly those) or one that has
        // not closed.
        debug_assert!(
            sum == 0 || self.nodes[pid].vt.covers_interval(owner, ivl),
            "processor {pid} looked up interval ({owner}, {ivl}) it never recorded"
        );
        sum
    }

    // ----- servicing diff requests ------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_diff_req(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        intervals: IvlList,
        requester: usize,
        requester_vt: Arc<VectorTime>,
        prefetch: bool,
        want_page: bool,
    ) {
        let params = self.params.clone();
        let mode = self.mode();
        let k = intervals.len() as Cycles;
        // Interval processing: on the controller for prefetches under the
        // I-modes (simple table lookups), on the processor otherwise.
        let mut c = if prefetch && mode.offload() {
            let (s, e) = self.nodes[dst].ctrl.run(t, params.list_processing * k);
            self.note_ctrl(dst, Engine::CtrlCore, CtrlCmd::ListWalk, s, e);
            e
        } else {
            self.interrupt_proc(
                dst,
                t,
                params.interrupt + params.list_processing * k,
                Category::Ipc,
                SpanKind::Service,
            )
        };
        self.tm_page(dst, page);
        let mut diffs_out = DiffList::new();
        let mut full: Option<(PageBuf, VectorTime)> = None;
        // A full page is only a sound substitute for diffs when this copy is
        // completely up to date: the reply tags the page with this node's
        // vector time, and the requester skips any diff that time covers.
        // A copy with pending (received-but-unapplied) notices is *missing*
        // intervals the vector time claims, so fall back to plain diffs.
        // Additionally the copy must dominate the requester's history: a
        // page tagged with a vector time that does not cover the requester's
        // would clobber concurrent intervals the requester already applied.
        let clean = want_page
            && self.nodes[dst]
                .pages
                .get(page)
                .is_some_and(|p| p.pending.is_empty())
            && self.nodes[dst].vt.covers(&requester_vt);
        let need_full = clean || {
            intervals.iter().any(|&ivl| {
                !self.nodes[dst].diffs.contains(page, ivl)
                    && !matches!(
                        self.nodes[dst].pages.get(page).and_then(|p| p.twin.as_ref()),
                        Some((tivl, _)) if *tivl == ivl
                    )
            })
        };
        if need_full {
            let (_, e) = self.nodes[dst]
                .mem
                .dram
                .access(c, params.page_words(), &params);
            c = e;
            let data = self.nodes[dst]
                .pages
                .get(page)
                // invariant: a whole-page request only reaches a node that
                // has served or written the page (entry created on access)
                .expect("page exists")
                .data
                .clone();
            full = Some((data, self.nodes[dst].vt.clone()));
        } else {
            for &ivl in intervals.iter() {
                // Settle a live twin for this interval even when a partial
                // diff already exists (an invalidation may have forced an
                // early diff and the page was re-dirtied afterwards within
                // the same interval); creation merges into the stored diff.
                let live_twin = matches!(
                    self.nodes[dst].pages.get(page).and_then(|p| p.twin.as_ref()),
                    Some((tivl, _)) if *tivl == ivl
                );
                if live_twin || !self.nodes[dst].diffs.contains(page, ivl) {
                    c = self.tm_create_diff_for_service(dst, page, ivl, c, prefetch);
                }
                diffs_out.push(
                    self.nodes[dst]
                        .diffs
                        .get(page, ivl)
                        // invariant: stored by the service path just above
                        .expect("diff stored")
                        .clone(),
                );
            }
        }
        let msg = Msg::DiffReply {
            page,
            diffs: diffs_out,
            full_page: full,
            prefetch,
        };
        if mode.offload() {
            self.ctrl_send(c, dst, requester, msg);
        } else {
            let tc = self.interrupt_proc(
                dst,
                c,
                params.messaging_overhead,
                Category::Ipc,
                SpanKind::MsgSetup,
            );
            self.dispatch(tc, dst, requester, msg);
        }
    }

    /// Lazy diff creation while servicing a request (twin comparison).
    fn tm_create_diff_for_service(
        &mut self,
        dst: usize,
        page: PageId,
        ivl: IntervalId,
        t: Cycles,
        _prefetch: bool,
    ) -> Cycles {
        let params = self.params.clone();
        let (tivl, twin) = self
            .tm_page(dst, page)
            .twin
            .take()
            // invariant: lazy diff creation is only requested for pages the
            // fault handler twinned earlier in the same interval
            .expect("twin for lazy diff");
        debug_assert_eq!(tivl, ivl, "twin interval mismatch");
        let data = self.tm_page(dst, page).data.clone();
        let diff = Diff::from_twin(page, dst, tivl, &data, &twin);
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::DiffCreated {
            pid: dst,
            page,
            interval: tivl,
            diff: diff.clone(),
            data: data.clone(),
        });
        let words = diff.word_count();
        self.tm_store_diff(dst, diff);
        self.record(t, dst, crate::trace::TraceKind::DiffCreated { page, words });
        let cpu = Controller::sw_diff_scan(&params);
        self.nodes[dst].stats.diff_create_cycles += cpu;
        self.nodes[dst].stats.diffs_created += 1;
        self.nodes[dst].stats.diff_bytes_created += 4 * words;
        self.ts_count(crate::timeseries::TsCounter::DiffsCreated, t, 1);
        self.ts_count(crate::timeseries::TsCounter::DiffBytesCreated, t, 4 * words);
        self.ts_page(page, 0, 4 * words, 0);
        if self.mode().offload() {
            let (s, e) = self.nodes[dst].ctrl.run(t, cpu);
            self.note_ctrl(dst, Engine::CtrlCore, CtrlCmd::DiffCreate, s, e);
            let (_, me) = self.nodes[dst]
                .mem
                .dram
                .access(s, params.page_words(), &params);
            let (_, pe) = self.nodes[dst]
                .mem
                .pci
                .burst(s, params.page_words(), &params);
            e.max(me).max(pe)
        } else {
            self.nodes[dst].stats.diff_proc_cycles += cpu;
            let c = self.interrupt_proc(dst, t, cpu, Category::Ipc, SpanKind::DiffCreate);
            let (_, me) = self.nodes[dst]
                .mem
                .dram
                .access(c, params.page_words(), &params);
            me
        }
    }

    // ----- receiving diffs ----------------------------------------------------

    pub(crate) fn on_diff_reply(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        mut diffs: DiffList,
        full_page: Option<(PageBuf, VectorTime)>,
        prefetch: bool,
    ) {
        if prefetch {
            self.tm_prefetch_reply(dst, t, page, diffs, full_page);
            return;
        }
        let ready = {
            let Wait::Fault(f) = &mut self.nodes[dst].wait else {
                // invariant: demand diff replies are only addressed to the
                // blocked requester (message conservation)
                panic!("diff reply for page {page} but processor {dst} is not faulting");
            };
            debug_assert_eq!(f.page, page, "diff reply for the wrong page");
            for d in diffs.drain() {
                f.diffs.push(d);
            }
            if full_page.is_some() {
                f.full_page = full_page;
            }
            f.outstanding -= 1;
            f.ready_at = f.ready_at.max(t);
            if f.outstanding > 0 {
                return;
            }
            (std::mem::take(&mut f.diffs), f.full_page.take(), f.ready_at)
        };
        let (got_diffs, got_page, ready_at) = ready;
        // Every notice pending now is satisfied; the page keeps its list's
        // capacity for the next invalidation.
        let mut requested = crate::pool::take_pairs();
        {
            let pending = &mut self.tm_page(dst, page).pending;
            requested.extend_from_slice(pending);
            pending.clear();
        }
        let (end, cpu) =
            self.tm_apply_collected(dst, page, got_diffs, got_page, ready_at, &requested, false);
        crate::pool::put_pairs(requested);
        self.obs_edge(
            crate::span::EdgeKind::FaultFill,
            dst,
            t,
            dst,
            end,
            cpu,
            self.obs_last_span(dst),
        );
        self.schedule_wake(dst, end);
    }

    fn tm_prefetch_reply(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        mut diffs: DiffList,
        full_page: Option<(PageBuf, VectorTime)>,
    ) {
        let complete = {
            let Some(ps) = self.nodes[dst].prefetches.get_mut(page) else {
                return; // stale reply for an abandoned prefetch
            };
            for d in diffs.drain() {
                ps.diffs.push(d);
            }
            if full_page.is_some() {
                ps.full_page = full_page;
            }
            ps.outstanding -= 1;
            ps.ready_at = ps.ready_at.max(t);
            ps.outstanding == 0
        };
        if !complete {
            return;
        }
        let ps = self.nodes[dst]
            .prefetches
            .remove(page)
            // invariant: a prefetch reply matches the outstanding prefetch
            // record that produced the request
            .expect("prefetch state");
        let (end, cpu) = self.tm_apply_collected(
            dst,
            page,
            ps.diffs,
            ps.full_page,
            ps.ready_at,
            &ps.requested,
            true,
        );
        crate::pool::put_pairs(ps.requested);
        self.record(
            end,
            dst,
            crate::trace::TraceKind::PrefetchCompleted { page },
        );
        self.nodes[dst].stats.prefetch_fills += 1;
        self.ts_count(crate::timeseries::TsCounter::PrefetchFills, end, 1);
        self.ts_page(page, 1, 0, 0);
        self.obs_prefetch_done(dst, page, end);
        if ps.joined {
            // Zero prefetch-to-use distance: a fault was already waiting.
            self.obs_prefetch_used(dst, page, end);
            self.obs_edge(
                crate::span::EdgeKind::PrefetchFill,
                dst,
                t,
                dst,
                end,
                cpu,
                self.obs_last_span(dst),
            );
            self.schedule_wake(dst, end);
        } else {
            self.tm_page(dst, page).prefetched_unused = true;
        }
    }

    /// Applies a collected set of diffs (and optionally a whole page) to
    /// `pid`'s copy in causal order, charging the right engine. Returns the
    /// completion time and the diff-apply work (cycles) folded into it — the
    /// portion a "hardware diffs" what-if scenario deletes from the fill.
    #[allow(clippy::too_many_arguments)]
    fn tm_apply_collected(
        &mut self,
        pid: usize,
        page: PageId,
        mut diffs: DiffList,
        full: Option<(PageBuf, VectorTime)>,
        start: Cycles,
        satisfied: &[(usize, IntervalId)],
        prefetch_ctx: bool,
    ) -> (Cycles, Cycles) {
        let params = self.params.clone();
        let mode = self.mode();
        let mut mem_words: u64 = 0;
        if let Some((data, pvt)) = &full {
            // Words this node wrote concurrently with the page's view must
            // survive the copy: re-apply own uncovered diffs on top.
            let mut own = crate::pool::take_clock();
            own.extend(
                self.tm_page(pid, page)
                    .own_intervals
                    .iter()
                    .copied()
                    .filter(|&ivl| !pvt.covers_interval(pid, ivl)),
            );
            for &ivl in &own {
                if let Some(d) = self.nodes[pid].diffs.get(page, ivl) {
                    diffs.push(d.clone());
                }
            }
            crate::pool::put_clock(own);
            diffs.retain(|d| d.owner == pid || !pvt.covers_interval(d.owner, d.interval));
            self.tm_page(pid, page).data.copy_from(data);
            mem_words += params.page_words();
            self.record(start, pid, crate::trace::TraceKind::PageFetched { page });
            self.nodes[pid].stats.page_fetches += 1;
            self.ts_count(crate::timeseries::TsCounter::PageFetches, start, 1);
            self.ts_page(page, 1, 0, 0);
        }
        diffs.sort_by_key(|d| (self.vt_sum(pid, d.owner, d.interval), d.owner, d.interval));
        let mut cpu: Cycles = 0;
        let mut apply_words: u64 = 0;
        for d in diffs.iter() {
            let words = d.word_count();
            mem_words += words;
            apply_words += words;
            cpu += if mode.hw_diffs() {
                Controller::dma_cost(&params, words)
            } else {
                Controller::sw_diff_apply(&params, words)
            };
        }
        {
            let tp = self.tm_page(pid, page);
            for d in diffs.iter() {
                d.apply(&mut tp.data);
            }
            tp.pending.retain(|n| !satisfied.contains(n));
            // Notices that arrived while the diffs were in flight keep the
            // page invalid: validating it here would let stale data be read
            // without a fault.
            tp.state = if !tp.pending.is_empty() {
                PageState::Invalid
            } else if mode.hw_diffs() {
                PageState::ReadWrite
            } else {
                PageState::ReadOnly
            };
            tp.was_referenced = false;
        }
        #[cfg(feature = "verify")]
        {
            let applied: Vec<(usize, IntervalId)> =
                diffs.iter().map(|d| (d.owner, d.interval)).collect();
            let data = self.tm_page(pid, page).data.clone();
            self.emit(crate::observe::ProtocolEvent::DiffsApplied {
                pid,
                page,
                applied,
                data,
            });
        }
        if !diffs.is_empty() {
            let words: u64 = diffs.iter().map(|d| d.word_count()).sum();
            self.record(
                start,
                pid,
                crate::trace::TraceKind::DiffApplied { page, words },
            );
        }
        self.nodes[pid].stats.diffs_applied += diffs.len() as u64;
        self.nodes[pid].stats.diff_apply_cycles += cpu;
        self.nodes[pid].stats.diff_bytes_applied += 4 * apply_words;
        self.ts_count(
            crate::timeseries::TsCounter::DiffsApplied,
            start,
            diffs.len() as u64,
        );
        self.ts_count(
            crate::timeseries::TsCounter::DiffBytesApplied,
            start,
            4 * apply_words,
        );
        self.ts_page(page, 0, 4 * apply_words, 0);
        // The controller (or NI) wrote main memory: the processor snoop
        // invalidates its stale cache lines.
        let base = page * params.page_bytes;
        self.nodes[pid]
            .mem
            .cache
            .invalidate_page(base, params.page_bytes);
        // Timing.
        let scattered = params.mem_scattered(mem_words.max(1));
        let end = if mode.offload() {
            let (s, e) = self.nodes[pid].ctrl.run(start, cpu);
            self.note_ctrl(pid, Engine::CtrlCore, CtrlCmd::DiffApply, s, e);
            let (_, me) = self.nodes[pid].mem.dram.resource.reserve(s, scattered);
            let (_, pe) = self.nodes[pid].mem.pci.burst(s, mem_words.max(1), &params);
            e.max(me).max(pe)
        } else if prefetch_ctx {
            // P mode: the processor is interrupted to apply the prefetch.
            self.nodes[pid].stats.diff_proc_cycles += cpu;
            let c = self.interrupt_proc(
                pid,
                start,
                params.interrupt + cpu,
                Category::Other,
                SpanKind::DiffApply,
            );
            let (_, me) = self.nodes[pid].mem.dram.resource.reserve(c, scattered);
            me
        } else {
            // Demand fault in Base/P: the blocked processor applies.
            self.nodes[pid].stats.diff_proc_cycles += cpu;
            let c = start + cpu;
            let (_, me) = self.nodes[pid].mem.dram.resource.reserve(c, scattered);
            me
        };
        (end, cpu)
    }

    // ----- write-notice processing and prefetch issue --------------------------

    /// Records announcements, merges the vector time and invalidates named
    /// pages. Runs on the (blocked) processor: the returned completion time
    /// extends the acquire.
    pub(crate) fn tm_process_anns(
        &mut self,
        pid: usize,
        anns: &[Arc<IntervalAnnouncement>],
        t: Cycles,
    ) -> Cycles {
        let params = self.params.clone();
        let mut c = t + params.list_processing * (anns.len() as Cycles + 1);
        for ann in anns {
            if self.nodes[pid].vt.covers_interval(ann.owner, ann.id) {
                continue;
            }
            self.nodes[pid].vt.observe(ann.owner, ann.id);
            self.nodes[pid].store.record(Arc::clone(ann));
            if ann.owner == pid {
                continue;
            }
            for &page in &ann.pages {
                #[cfg(feature = "verify")]
                {
                    // Oracle self-test mutation: drop this write notice on
                    // the floor (the page keeps its stale mapping).
                    if self.drop_notice_armed {
                        self.drop_notice_armed = false;
                        continue;
                    }
                }
                // Settle local modifications before losing the page.
                c = self.tm_force_diff(pid, page, c);
                let (was_valid, was_prefetched) = {
                    let tp = self.tm_page(pid, page);
                    let was_valid = tp.state != PageState::Invalid;
                    let mut was_prefetched = false;
                    if was_valid {
                        tp.state = PageState::Invalid;
                        tp.twin = None;
                        was_prefetched = std::mem::take(&mut tp.prefetched_unused);
                        tp.was_referenced |= tp.referenced;
                        tp.recently_referenced = tp.referenced;
                        tp.referenced = false;
                    }
                    let key = (ann.owner, ann.id);
                    if !tp.pending.contains(&key) {
                        tp.pending.push(key);
                    }
                    (was_valid, was_prefetched)
                };
                if was_prefetched {
                    self.nodes[pid].stats.useless_prefetches += 1;
                }
                if was_valid {
                    self.nodes[pid].stats.invalidations += 1;
                    self.ts_count(crate::timeseries::TsCounter::Invalidations, c, 1);
                    self.ts_page(page, 0, 0, 1);
                }
                #[cfg(feature = "verify")]
                self.emit(crate::observe::ProtocolEvent::NoticeRecorded {
                    pid,
                    owner: ann.owner,
                    id: ann.id,
                    page,
                });
                c += params.list_processing;
            }
        }
        #[cfg(feature = "verify")]
        {
            let vt = self.nodes[pid].vt.clone();
            self.emit(crate::observe::ProtocolEvent::AnnsProcessed { pid, vt });
        }
        c
    }

    /// Issues diff prefetches for invalid, previously referenced pages
    /// (the §3.2 heuristic), at low priority. The issuing cost extends the
    /// acquire's synchronization time.
    pub(crate) fn tm_issue_prefetches(&mut self, pid: usize, t: Cycles) -> Cycles {
        let params = self.params.clone();
        let mode = self.mode();
        let strategy = params.prefetch_strategy;
        let mut candidates: Vec<PageId> = self.nodes[pid]
            .pages
            .iter()
            .filter(|(page, tp)| {
                let interested = match strategy {
                    ncp2_sim::PrefetchStrategy::RecentlyReferenced => tp.recently_referenced,
                    _ => tp.was_referenced,
                };
                tp.state == PageState::Invalid
                    && interested
                    && !tp.pending.is_empty()
                    && !self.nodes[pid].prefetches.contains(*page)
            })
            .map(|(page, _)| page)
            .collect();
        candidates.sort_unstable();
        if let ncp2_sim::PrefetchStrategy::Capped(cap) = strategy {
            candidates.truncate(cap);
        }
        let mut c = t;
        for page in candidates {
            // Graceful degradation: under congestion (or a deep unacked
            // backlog) the transport sheds low-priority prefetch commands
            // first; demand traffic keeps its full retry budget.
            if self.shed_prefetch(pid, page, c) {
                continue;
            }
            self.record(c, pid, crate::trace::TraceKind::PrefetchIssued { page });
            self.obs_prefetch_issued(pid, page, c);
            self.nodes[pid].stats.prefetches += 1;
            self.ts_count(crate::timeseries::TsCounter::PrefetchIssued, c, 1);
            let mut pending = crate::pool::take_pairs();
            pending.extend_from_slice(&self.tm_page(pid, page).pending);
            let mut requests = self.tm_build_requests(pid, page, &pending, true);
            let outstanding = requests.len();
            for (owner, msg) in requests.drain(..) {
                c += if mode.offload() {
                    Controller::issue_cost(&params)
                } else {
                    params.messaging_overhead
                };
                if mode.offload() {
                    self.ctrl_send(c, pid, owner, msg);
                } else {
                    self.dispatch(c, pid, owner, msg);
                }
            }
            crate::pool::put_reqs(requests);
            self.nodes[pid].prefetches.insert(
                page,
                PrefetchState {
                    outstanding,
                    ready_at: c,
                    diffs: DiffList::new(),
                    full_page: None,
                    requested: pending,
                    joined: false,
                },
            );
        }
        c
    }
}
