//! AURC — automatic-update release consistency (§3.3).
//!
//! Shrimp-style network interfaces snoop write-throughs and forward them to
//! a remote mapping, combining consecutive updates in a small write cache.
//! Two sharers of a page map it bi-directionally (*pairwise sharing*: no
//! faults, no fetches); a page with more sharers gets a home node that
//! merges all updates, and every other sharer invalidates on acquire and
//! re-fetches the page from home on its next access.
//!
//! Modelling notes (see DESIGN.md): the data plane is a single master copy —
//! automatic updates are timing-only events, which is exact for
//! data-race-free programs. Timestamps are modelled operationally: every
//! node tracks, per destination, the arrival horizon of the updates it has
//! emitted; acquires wait for the releaser's horizon and home-page fetches
//! wait for the home's per-page horizon (the paper's flush/lock timestamp
//! comparison).

use std::sync::Arc;

use ncp2_sim::{Category, Cycles, ProcOp, ProcReply};

use crate::interval::IntervalAnnouncement;
use crate::msg::Msg;
use crate::page::{page_of, PageId};
use crate::span::SpanKind;
use crate::system::{AurcMode, InsertOutcome, Simulation, Wait};

impl Simulation {
    // ----- the access path --------------------------------------------------

    /// Handles one read/write under AURC. `None` means the processor blocked
    /// on a page fetch.
    pub(crate) fn aurc_access(&mut self, pid: usize, op: ProcOp) -> Option<ProcReply> {
        let (addr, write) = match op {
            ProcOp::Read { addr, .. } => (addr, false),
            ProcOp::Write { addr, .. } => (addr, true),
            _ => unreachable!("aurc_access on non-memory op"),
        };
        let page = page_of(addr, self.params.page_bytes);
        // Sharing-mode transition on first access by a new processor.
        let mode = self.aurc_modes.get(page).copied();
        let (new_mode, fetch_from) = match mode {
            None => (AurcMode::Single(pid), None),
            Some(AurcMode::Single(a)) if a == pid => (AurcMode::Single(a), None),
            Some(AurcMode::Single(a)) if self.params.aurc_pairwise => {
                (AurcMode::Pairwise(a, pid, false), Some(a))
            }
            Some(AurcMode::Single(a)) => {
                // Ablation: pairwise disabled — a second sharer goes straight
                // to home mode.
                let home =
                    // overflow: Fibonacci-hash multiply — wraparound is the mixing step.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.params.nprocs;
                (AurcMode::Home(home), Some(a))
            }
            Some(AurcMode::Pairwise(a, b, r)) if a == pid || b == pid => {
                (AurcMode::Pairwise(a, b, r), None)
            }
            Some(AurcMode::Pairwise(a, b, false)) => {
                // Third sharer replaces the first (§3.3); the replaced node
                // re-joins through the home path if it comes back.
                self.nodes[a]
                    .aurc_pages
                    .get_or_default(page)
                    .set_valid(false);
                (AurcMode::Pairwise(b, pid, true), Some(b))
            }
            Some(AurcMode::Pairwise(a, b, true)) => {
                // A fourth sharer: revert to write-through to a statically
                // assigned home node (AURC homes data and directory by a
                // page-id hash, so block-partitioned arrays do not land on
                // their own writers). The last pair members keep valid
                // copies.
                let home =
                    // overflow: Fibonacci-hash multiply — wraparound is the mixing step.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.params.nprocs;
                let _ = (a, b);
                (
                    AurcMode::Home(home),
                    Some(if home == pid { a } else { home }),
                )
            }
            Some(AurcMode::Home(h)) => (AurcMode::Home(h), None),
        };
        self.aurc_modes.insert(page, new_mode);
        let local_valid = {
            let lp = self.nodes[pid].aurc_pages.get_or_default(page);
            match new_mode {
                AurcMode::Single(a) if a == pid => {
                    lp.set_valid(true);
                    true
                }
                AurcMode::Pairwise(a, b, _) if (a == pid || b == pid) && fetch_from.is_none() => {
                    lp.valid()
                }
                AurcMode::Home(h) if h == pid => {
                    lp.set_valid(true);
                    true
                }
                _ => lp.valid() && fetch_from.is_none(),
            }
        };
        if !local_valid {
            let target = match (fetch_from, new_mode) {
                (Some(src), _) => src,
                (None, AurcMode::Home(h)) => h,
                (None, AurcMode::Pairwise(a, b, _)) => {
                    // A pair member with an invalid copy (it was displaced
                    // earlier): escalate to home mode at the other member.
                    let home = if a == pid { b } else { a };
                    self.aurc_modes.insert(page, AurcMode::Home(home));
                    home
                }
                (None, AurcMode::Single(_)) => unreachable!("single owner is always valid"),
            };
            if self.nodes[pid]
                .aurc_pages
                .get(page)
                .is_some_and(|lp| lp.prefetching())
            {
                self.nodes[pid]
                    .aurc_pages
                    .get_mut(page)
                    // invariant: the joining access created the entry above
                    .expect("entry")
                    .set_joined(true);
                self.nodes[pid].stats.prefetch_joins += 1;
                self.block(pid, Wait::AurcFault { page });
            } else {
                self.aurc_start_fetch(pid, page, target, false);
                self.block(pid, Wait::AurcFault { page });
            }
            return None;
        }
        Some(self.aurc_do_access(pid, op, write))
    }

    /// Fourth-and-later sharers force home mode: pairwise pages accessed by
    /// an outsider when both members are valid.
    fn aurc_do_access(&mut self, pid: usize, op: ProcOp, write: bool) -> ProcReply {
        let (addr, _) = match op {
            ProcOp::Read { addr, .. } | ProcOp::Write { addr, .. } => (addr, ()),
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
        let page_bytes = self.params.page_bytes;
        let line = addr / self.params.line_bytes;
        let off = (addr % page_bytes) as usize;
        // invariant: the faulting access classified the page before blocking
        let mode = *self.aurc_modes.get(page).expect("mode set by access path");
        let was_prefetched = {
            let lp = self.nodes[pid].aurc_pages.get_or_default(page);
            lp.set_referenced(true);
            lp.take_prefetched_unused()
        };
        if was_prefetched {
            self.nodes[pid].stats.prefetch_hits += 1;
            let now = self.nodes[pid].time;
            self.obs_prefetch_used(pid, page, now);
        }
        let reply = {
            let buf = self.master_page(page);
            match op {
                ProcOp::Read { bytes, .. } => ProcReply::Value(buf.read(off, bytes)),
                ProcOp::Write { bytes, value, .. } => {
                    buf.write(off, bytes, value);
                    ProcReply::Ack
                }
                _ => unreachable!(),
            }
        };
        if write {
            let newly_dirty = {
                let lp = self.nodes[pid].aurc_pages.get_or_default(page);
                let nd = !lp.in_cur_dirty();
                lp.set_in_cur_dirty(true);
                nd
            };
            if newly_dirty {
                self.nodes[pid].cur_dirty.push(page);
            }
            let update_dst = match mode {
                AurcMode::Single(_) => None,
                AurcMode::Pairwise(a, b, _) => Some(if pid == a { b } else { a }),
                AurcMode::Home(h) if h != pid => Some(h),
                AurcMode::Home(_) => None,
            };
            if let Some(dst) = update_dst {
                match self.nodes[pid].wcache.insert(line, dst) {
                    InsertOutcome::Combined => self.nodes[pid].stats.au_combined += 1,
                    InsertOutcome::Inserted {
                        evicted: Some((eline, edst)),
                    } => {
                        self.aurc_emit_update(pid, eline, edst, Category::Other);
                    }
                    InsertOutcome::Inserted { evicted: None } => {}
                }
            }
        }
        reply
    }

    /// Ships one combined write-cache line as an automatic update. Charges
    /// the per-update overhead to the processor (1 cycle by default — the
    /// paper's optimistic assumption; the §5.3 sweep raises it).
    fn aurc_emit_update(&mut self, pid: usize, line: u64, dst: usize, cat: Category) {
        let oh = self.params.au_messaging_overhead;
        self.advance(pid, oh, cat, SpanKind::UpdateFlush);
        // The outgoing line crosses the sender's PCI bus to the NI.
        let now = self.nodes[pid].time;
        let params = self.params.clone();
        let (_, t) = self.nodes[pid]
            .mem
            .pci
            .burst(now, params.line_words(), &params);
        let page = line * self.params.line_bytes / self.params.page_bytes;
        let msg = Msg::AurcUpdate { page, from: pid };
        // This bypasses `dispatch` (updates carry their own horizon
        // bookkeeping), so the send is reported here.
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::MsgSent {
            src: pid,
            dst,
            kind: msg.kind(),
            demand: !msg.is_prefetch(),
        });
        let bytes = msg.bytes(self.params.page_bytes, self.params.page_words());
        let params = self.params.clone();
        let tr = self.net.transfer_timed(t, pid, dst, bytes, &params);
        self.ts_count(crate::timeseries::TsCounter::Messages, t, 1);
        self.ts_count(crate::timeseries::TsCounter::MessageBytes, t, bytes);
        self.obs_flight(pid, dst, msg.kind(), bytes, false, t, tr.start, tr.arrival);
        self.obs_edge(
            crate::span::EdgeKind::Msg(msg.kind()),
            pid,
            t,
            dst,
            tr.arrival,
            0,
            self.obs_last_span(pid),
        );
        let arrival = tr.arrival;
        self.nodes[pid].out_horizon[dst] = self.nodes[pid].out_horizon[dst].max(arrival);
        self.queue.push(
            arrival,
            ncp2_sim::Priority::Normal,
            crate::system::Ev::Msg { dst, msg },
        );
        self.nodes[pid].stats.au_updates += 1;
    }

    /// Release-time write-cache flush (the paper's flush timestamps): every
    /// buffered line goes on the wire before the release can be observed.
    pub(crate) fn aurc_flush_wcache(&mut self, pid: usize, cat: Category) {
        let entries = self.nodes[pid].wcache.flush();
        for (line, dst) in entries {
            self.aurc_emit_update(pid, line, dst, cat);
        }
    }

    // ----- page fetches -------------------------------------------------------

    fn aurc_start_fetch(&mut self, pid: usize, page: PageId, target: usize, prefetch: bool) {
        if !prefetch {
            let now = self.nodes[pid].time;
            self.record(now, pid, crate::trace::TraceKind::Fault { page });
            self.nodes[pid].stats.faults += 1;
            self.advance(
                pid,
                self.params.interrupt,
                Category::Other,
                SpanKind::Interrupt,
            );
        }
        let msg = Msg::AurcPageReq {
            page,
            requester: pid,
            prefetch,
        };
        let mut t = self.nodes[pid].time;
        self.send_msg(&mut t, pid, target, msg, Category::Data, false);
        self.nodes[pid].time = t;
    }

    pub(crate) fn on_aurc_page_req(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        requester: usize,
        prefetch: bool,
    ) {
        let params = self.params.clone();
        // AURC has no protocol controller: the home processor services every
        // fetch — including useless prefetches, the paper's AURC+P poison.
        let c0 = self.interrupt_proc(dst, t, params.interrupt, Category::Ipc, SpanKind::Service);
        let horizon = self.nodes[dst].home_horizon.get(page).copied().unwrap_or(0);
        let start = c0.max(horizon);
        let (_, mem_read) = self.nodes[dst]
            .mem
            .dram
            .access(start, params.page_words(), &params);
        let (_, mem_end) = self.nodes[dst]
            .mem
            .pci
            .burst(mem_read, params.page_words(), &params);
        let c1 = self.interrupt_proc(
            dst,
            mem_end,
            params.messaging_overhead,
            Category::Ipc,
            SpanKind::MsgSetup,
        );
        self.dispatch(c1, dst, requester, Msg::AurcPageReply { page, prefetch });
    }

    pub(crate) fn on_aurc_page_reply(
        &mut self,
        dst: usize,
        t: Cycles,
        page: PageId,
        prefetch: bool,
    ) {
        let params = self.params.clone();
        let (_, pci_end) = self.nodes[dst]
            .mem
            .pci
            .burst(t, params.page_words(), &params);
        let (_, mem_end) = self.nodes[dst]
            .mem
            .dram
            .access(pci_end, params.page_words(), &params);
        let base = page * params.page_bytes;
        self.nodes[dst]
            .mem
            .cache
            .invalidate_page(base, params.page_bytes);
        self.record(t, dst, crate::trace::TraceKind::PageFetched { page });
        self.nodes[dst].stats.page_fetches += 1;
        self.ts_count(crate::timeseries::TsCounter::PageFetches, t, 1);
        self.ts_page(page, 1, 0, 0);
        let joined = {
            let lp = self.nodes[dst].aurc_pages.get_or_default(page);
            if prefetch {
                lp.set_prefetching(false);
                let stale = lp.take_prefetch_stale();
                if !stale {
                    lp.set_valid(true);
                }
                let joined = lp.take_joined();
                lp.set_prefetched_unused(!stale && !joined);
                joined
            } else {
                lp.set_valid(true);
                true
            }
        };
        if prefetch {
            self.record(
                mem_end,
                dst,
                crate::trace::TraceKind::PrefetchCompleted { page },
            );
            // The transfer itself was already attributed by the page-fetch
            // site above; this only counts the completed prefetch.
            self.nodes[dst].stats.prefetch_fills += 1;
            self.ts_count(crate::timeseries::TsCounter::PrefetchFills, mem_end, 1);
            self.obs_prefetch_done(dst, page, mem_end);
            if joined {
                // Zero prefetch-to-use distance: a fault was already waiting.
                self.obs_prefetch_used(dst, page, mem_end);
            }
        }
        if joined {
            debug_assert!(
                matches!(self.nodes[dst].wait, Wait::AurcFault { page: p } if p == page)
                    || !prefetch,
                "prefetch join without a matching fault"
            );
            let ekind = if prefetch {
                crate::span::EdgeKind::PrefetchFill
            } else {
                crate::span::EdgeKind::FaultFill
            };
            self.obs_edge(ekind, dst, t, dst, mem_end, 0, self.obs_last_span(dst));
            self.schedule_wake(dst, mem_end);
        }
    }

    pub(crate) fn on_aurc_update(&mut self, dst: usize, t: Cycles, page: PageId) {
        // The NI moves the line across the PCI bus into local memory
        // (both contended) and the per-page horizon advances.
        let params = self.params.clone();
        let (_, pci_end) = self.nodes[dst]
            .mem
            .pci
            .burst(t, params.line_words(), &params);
        let (_, mem_end) = self.nodes[dst]
            .mem
            .dram
            .access(pci_end, params.line_words(), &params);
        let h = self.nodes[dst].home_horizon.get_or_default(page);
        *h = (*h).max(mem_end);
    }

    // ----- write-notice processing and prefetch issue ---------------------------

    /// AURC acquire-side notice processing: invalidate non-home copies of
    /// home-mode pages (pairwise copies are kept up to date by the automatic
    /// updates).
    pub(crate) fn aurc_process_anns(
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
                c += params.list_processing;
                let invalidate = match self.aurc_modes.get(page) {
                    Some(AurcMode::Home(h)) => *h != pid,
                    _ => false,
                };
                if !invalidate {
                    continue;
                }
                let (had_copy, was_prefetched) = {
                    let lp = self.nodes[pid].aurc_pages.get_or_default(page);
                    let had = lp.valid();
                    lp.set_valid(false);
                    if lp.prefetching() {
                        lp.set_prefetch_stale(true);
                    }
                    lp.set_was_referenced(lp.was_referenced() | lp.referenced());
                    lp.set_recently_referenced(lp.referenced());
                    lp.set_referenced(false);
                    (had, lp.take_prefetched_unused())
                };
                if was_prefetched {
                    self.nodes[pid].stats.useless_prefetches += 1;
                }
                if had_copy {
                    self.nodes[pid].stats.invalidations += 1;
                    self.ts_count(crate::timeseries::TsCounter::Invalidations, c, 1);
                    self.ts_page(page, 0, 0, 1);
                }
            }
        }
        #[cfg(feature = "verify")]
        {
            let vt = self.nodes[pid].vt.clone();
            self.emit(crate::observe::ProtocolEvent::AnnsProcessed { pid, vt });
        }
        c
    }

    /// AURC+P: prefetch invalidated, previously referenced home pages from
    /// their homes. All processor-driven (no controller to hide behind).
    pub(crate) fn aurc_issue_prefetches(&mut self, pid: usize, t: Cycles) -> Cycles {
        let strategy = self.params.prefetch_strategy;
        let mut candidates: Vec<(PageId, usize)> = self.nodes[pid]
            .aurc_pages
            .iter()
            .filter(|(_, lp)| {
                let interested = match strategy {
                    ncp2_sim::PrefetchStrategy::RecentlyReferenced => lp.recently_referenced(),
                    _ => lp.was_referenced(),
                };
                !lp.valid() && interested && !lp.prefetching()
            })
            .filter_map(|(page, _)| match self.aurc_modes.get(page) {
                Some(AurcMode::Home(h)) if *h != pid => Some((page, *h)),
                _ => None,
            })
            .collect();
        candidates.sort_unstable();
        if let ncp2_sim::PrefetchStrategy::Capped(cap) = strategy {
            candidates.truncate(cap);
        }
        let mut c = t;
        for (page, home) in candidates {
            // Same degradation policy as the TreadMarks path: shed the
            // low-priority prefetch under congestion, keep demand traffic.
            if self.shed_prefetch(pid, page, c) {
                continue;
            }
            self.record(c, pid, crate::trace::TraceKind::PrefetchIssued { page });
            self.obs_prefetch_issued(pid, page, c);
            self.nodes[pid].stats.prefetches += 1;
            self.ts_count(crate::timeseries::TsCounter::PrefetchIssued, c, 1);
            c += self.params.messaging_overhead;
            let msg = Msg::AurcPageReq {
                page,
                requester: pid,
                prefetch: true,
            };
            self.dispatch(c, pid, home, msg);
            // invariant: the prefetch decision read this entry just above
            let lp = self.nodes[pid].aurc_pages.get_mut(page).expect("entry");
            lp.set_prefetching(true);
            lp.set_prefetch_stale(false);
            lp.set_joined(false);
        }
        c
    }
}
