//! Lock and barrier machinery shared by TreadMarks and AURC.
//!
//! Locks are distributed: a static manager (`lock mod nprocs`) forwards each
//! acquire to the last owner, which replies directly to the acquirer with
//! the write notices (interval announcements) the acquirer has not seen.
//! Barriers are centralized at `barrier mod nprocs`: arrivals carry the
//! intervals created since the last barrier, the manager merges and
//! rebroadcasts. Interval/write-notice processing is "complicated" protocol
//! work and always runs on the computation processor (§3.2), even with a
//! protocol controller.

use std::sync::Arc;

use ncp2_sim::ops::{BarrierId, LockId};
use ncp2_sim::{Category, Cycles};

use crate::interval::{AnnList, IntervalAnnouncement};
use crate::msg::Msg;
use crate::protocol::Protocol;
use crate::span::SpanKind;
use crate::system::{BarrierState, Simulation, Wait};
use crate::vtime::VectorTime;

impl Simulation {
    // ----- processor-issued operations ------------------------------------

    pub(crate) fn op_lock(&mut self, pid: usize, lock: LockId) {
        let manager = lock as usize % self.params.nprocs;
        self.advance(
            pid,
            self.params.list_processing,
            Category::Synch,
            SpanKind::NoticeMgmt,
        );
        let msg = Msg::LockReq {
            lock,
            acquirer: pid,
            vt: self.nodes[pid].vt.clone(),
        };
        let mut t = self.nodes[pid].time;
        self.send_msg(&mut t, pid, manager, msg, Category::Synch, false);
        self.block(pid, Wait::Lock { lock });
    }

    pub(crate) fn op_unlock(&mut self, pid: usize, lock: LockId) {
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::LockReleased { pid, lock });
        if matches!(self.protocol, Protocol::Aurc { .. }) {
            self.aurc_flush_wcache(pid, Category::Synch);
        }
        self.close_interval(pid);
        self.nodes[pid].held_locks.remove(lock);
        let waiter = self.nodes[pid]
            .lock_queue
            .get_mut(lock)
            .and_then(|q| q.pop_front());
        if let Some((acquirer, vt)) = waiter {
            self.nodes[pid].owned_locks.remove(lock);
            let t = self.nodes[pid].time;
            self.grant_lock(pid, t, lock, acquirer, &vt, false);
        }
    }

    pub(crate) fn op_barrier(&mut self, pid: usize, barrier: BarrierId) {
        let manager = barrier as usize % self.params.nprocs;
        if matches!(self.protocol, Protocol::Aurc { .. }) {
            self.aurc_flush_wcache(pid, Category::Synch);
        }
        self.close_interval(pid);
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::BarrierArrived { pid, barrier });
        let nd = &self.nodes[pid];
        let anns = nd.store.missing_for(&nd.last_barrier_vt);
        self.advance(
            pid,
            self.params.list_processing * (anns.len() as Cycles + 1),
            Category::Synch,
            SpanKind::NoticeMgmt,
        );
        let horizons = match self.protocol {
            Protocol::Aurc { .. } => self.nodes[pid].out_horizon.clone(),
            Protocol::TreadMarks(_) => Vec::new(),
        };
        let msg = Msg::BarrierArrive {
            barrier,
            from: pid,
            vt: self.nodes[pid].vt.clone(),
            anns,
            horizons,
        };
        let mut t = self.nodes[pid].time;
        self.send_msg(&mut t, pid, manager, msg, Category::Synch, false);
        self.block(pid, Wait::Barrier);
    }

    /// Closes the open interval if it dirtied anything: bumps the vector
    /// time, builds the interval's one shared announcement, enters its
    /// causal sort key in the machine-wide table, and prepares diffs per
    /// protocol (write-protect + lazy twins in software modes, eager DMA
    /// diffs in the hardware-diff modes, nothing in AURC).
    pub(crate) fn close_interval(&mut self, pid: usize) {
        if self.nodes[pid].cur_dirty.is_empty() {
            return;
        }
        let id = self.nodes[pid].vt.bump(pid);
        let pages = std::mem::replace(&mut self.nodes[pid].cur_dirty, crate::pool::take_ids());
        match self.protocol {
            Protocol::TreadMarks(_) => self.tm_close_pages(pid, id, &pages),
            Protocol::Aurc { .. } => {
                for &page in &pages {
                    if let Some(lp) = self.nodes[pid].aurc_pages.get_mut(page) {
                        lp.set_in_cur_dirty(false);
                    }
                }
            }
        }
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::IntervalClosed {
            pid,
            id,
            vt: self.nodes[pid].vt.clone(),
            pages: pages.clone(),
        });
        let ann = Arc::new(IntervalAnnouncement {
            owner: pid,
            id,
            vt: self.nodes[pid].vt.clone(),
            pages,
        });
        let sums = &mut self.sums[pid];
        debug_assert_eq!(sums.len(), id as usize, "intervals close in id order");
        sums.push(ann.vt_sum());
        self.nodes[pid].store.record(ann);
    }

    // ----- message handlers -----------------------------------------------

    pub(crate) fn on_lock_req(
        &mut self,
        manager: usize,
        t: Cycles,
        lock: LockId,
        acquirer: usize,
        vt: VectorTime,
    ) {
        let c = self.interrupt_proc(
            manager,
            t,
            self.params.interrupt + self.params.list_processing,
            Category::Ipc,
            SpanKind::Service,
        );
        let last = match self.lock_last.get(lock) {
            Some(&l) => l,
            None => {
                // First touch: the manager holds the grant token.
                self.lock_last.insert(lock, manager);
                self.nodes[manager].owned_locks.insert(lock);
                manager
            }
        };
        if last == acquirer {
            // Re-acquire with no intervening owner: nothing new to learn.
            let msg = Msg::LockGrant {
                lock,
                anns: AnnList::new(),
                update_horizon: 0,
            };
            let mut tc = c;
            self.send_msg(&mut tc, manager, acquirer, msg, Category::Ipc, true);
        } else {
            self.lock_last.insert(lock, acquirer);
            // The grant token leaves `last` for a different node: an owner
            // migration, the expensive case the hot-spot table counts.
            self.ts_lock(lock as u64, 0, 0, 1);
            let msg = Msg::LockForward { lock, acquirer, vt };
            let mut tc = c;
            self.send_msg(&mut tc, manager, last, msg, Category::Ipc, true);
        }
    }

    pub(crate) fn on_lock_forward(
        &mut self,
        holder: usize,
        t: Cycles,
        lock: LockId,
        acquirer: usize,
        vt: VectorTime,
    ) {
        let can_grant = self.nodes[holder].owned_locks.contains(lock)
            && !self.nodes[holder].held_locks.contains(lock);
        let c = self.interrupt_proc(
            holder,
            t,
            self.params.interrupt,
            Category::Ipc,
            SpanKind::Service,
        );
        if can_grant {
            self.nodes[holder].owned_locks.remove(lock);
            self.grant_lock(holder, c, lock, acquirer, &vt, true);
        } else {
            // Still inside (or still waiting for) the critical section: the
            // request waits here and is granted at the next unlock.
            let depth = {
                let q = self.nodes[holder].lock_queue.get_or_default(lock);
                q.push_back((acquirer, vt));
                q.len() as u64
            };
            self.ts_gauge(crate::timeseries::TsGauge::LockWaiters, c, depth);
        }
    }

    /// Computes and ships a lock grant from `holder` to `acquirer`, starting
    /// at time `t`. `servicing` is true when the holder reacts to a
    /// forwarded request (IPC) rather than granting at its own unlock
    /// (Synch).
    pub(crate) fn grant_lock(
        &mut self,
        holder: usize,
        t: Cycles,
        lock: LockId,
        acquirer: usize,
        acquirer_vt: &VectorTime,
        servicing: bool,
    ) {
        let anns = self.nodes[holder].store.missing_for(acquirer_vt);
        let work = self.params.list_processing * (anns.len() as Cycles + 1);
        let (mut t, cat) = if servicing {
            (
                self.interrupt_proc(holder, t, work, Category::Ipc, SpanKind::Service),
                Category::Ipc,
            )
        } else {
            self.advance(holder, work, Category::Synch, SpanKind::NoticeMgmt);
            (self.nodes[holder].time, Category::Synch)
        };
        let update_horizon = match self.protocol {
            Protocol::Aurc { .. } => self.nodes[holder].out_horizon[acquirer],
            Protocol::TreadMarks(_) => 0,
        };
        let msg = Msg::LockGrant {
            lock,
            anns,
            update_horizon,
        };
        self.send_msg(&mut t, holder, acquirer, msg, cat, servicing);
    }

    pub(crate) fn on_lock_grant(
        &mut self,
        acquirer: usize,
        t: Cycles,
        lock: LockId,
        anns: AnnList,
        update_horizon: Cycles,
    ) {
        debug_assert!(
            matches!(self.nodes[acquirer].wait, Wait::Lock { lock: l } if l == lock),
            "grant for a lock {lock} processor {acquirer} is not waiting on"
        );
        #[cfg(feature = "verify")]
        self.emit(crate::observe::ProtocolEvent::LockAcquired {
            pid: acquirer,
            lock,
        });
        let mut end = self.process_anns(acquirer, &anns, t);
        end = self.issue_prefetches(acquirer, end);
        self.nodes[acquirer].held_locks.insert(lock);
        self.nodes[acquirer].owned_locks.insert(lock);
        self.nodes[acquirer].stats.lock_acquires += 1;
        self.ts_count(crate::timeseries::TsCounter::LockAcquires, t, 1);
        self.ts_lock(lock as u64, 0, 1, 0);
        let wake = end.max(update_horizon);
        self.record(
            wake,
            acquirer,
            crate::trace::TraceKind::LockAcquired { lock },
        );
        self.obs_edge(
            crate::span::EdgeKind::LockGrant,
            acquirer,
            t,
            acquirer,
            wake,
            0,
            self.obs_last_span(acquirer),
        );
        self.schedule_wake(acquirer, wake);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_barrier_arrive(
        &mut self,
        manager: usize,
        t: Cycles,
        barrier: BarrierId,
        from: usize,
        vt: VectorTime,
        mut anns: AnnList,
        horizons: Vec<Cycles>,
    ) {
        let n = self.params.nprocs;
        let mut c = self.interrupt_proc(
            manager,
            t,
            self.params.interrupt + self.params.list_processing * (anns.len() as Cycles + 1),
            Category::Ipc,
            SpanKind::Service,
        );
        let bs = self.barriers.get_or_insert_with(barrier, || BarrierState {
            arrived: 0,
            merged_vt: None,
            anns: AnnList::new(),
            horizons: vec![Vec::new(); n],
        });
        for ann in anns.drain() {
            bs.anns.push(ann);
        }
        match &mut bs.merged_vt {
            Some(m) => m.merge(&vt),
            slot => *slot = Some(vt),
        }
        bs.horizons[from] = horizons;
        bs.arrived += 1;
        let arrived = bs.arrived;
        self.ts_gauge(
            crate::timeseries::TsGauge::BarrierWaiters,
            c,
            arrived as u64,
        );
        if arrived < n {
            return;
        }
        // Last arrival: release everyone.
        let mut bs = self
            .barriers
            .remove(barrier)
            // invariant: this is the nth arrival, so the state the first
            // arrival created is still present
            .expect("barrier state exists");
        // invariant: every arrival merges its vector time before this point
        let merged = bs.merged_vt.expect("at least one arrival");
        bs.anns.sort_dedup();
        let all_anns = Arc::new(bs.anns);
        for k in 0..n {
            let update_horizon = bs
                .horizons
                .iter()
                .filter(|h| !h.is_empty())
                .map(|h| h[k])
                .max()
                .unwrap_or(0);
            let msg = Msg::BarrierRelease {
                barrier,
                vt: merged.clone(),
                anns: Arc::clone(&all_anns),
                update_horizon,
            };
            self.send_msg(&mut c, manager, k, msg, Category::Ipc, true);
        }
    }

    pub(crate) fn on_barrier_release(
        &mut self,
        pid: usize,
        t: Cycles,
        vt: VectorTime,
        anns: Arc<AnnList>,
        update_horizon: Cycles,
    ) {
        debug_assert!(
            matches!(self.nodes[pid].wait, Wait::Barrier),
            "release for a barrier processor {pid} is not waiting on"
        );
        let mut end = self.process_anns(pid, &anns, t);
        let nd = &mut self.nodes[pid];
        nd.vt.merge(&vt);
        // The merged time is a floor every processor's vector time now
        // covers, so the intervals it covers can never again appear in a
        // `missing_for` result — collect them (TreadMarks GCs interval
        // records at barriers). Host-side only: message contents and
        // list-processing costs are computed from coverage-filtered sets
        // that never included these records.
        nd.store.gc_covered(&vt);
        nd.last_barrier_vt = vt;
        end = self.issue_prefetches(pid, end);
        self.nodes[pid].stats.barriers += 1;
        self.ts_count(crate::timeseries::TsCounter::Barriers, t, 1);
        let wake = end.max(update_horizon);
        self.record(wake, pid, crate::trace::TraceKind::BarrierReleased);
        self.obs_edge(
            crate::span::EdgeKind::BarrierRelease,
            pid,
            t,
            pid,
            wake,
            0,
            self.obs_last_span(pid),
        );
        self.schedule_wake(pid, wake);
    }

    // ----- protocol dispatch ----------------------------------------------

    /// Applies a batch of interval announcements at `pid` starting at `t`:
    /// records them, merges the vector time and invalidates named pages.
    /// Returns the completion time of the processor-side processing.
    pub(crate) fn process_anns(
        &mut self,
        pid: usize,
        anns: &[Arc<IntervalAnnouncement>],
        t: Cycles,
    ) -> Cycles {
        match self.protocol {
            Protocol::TreadMarks(_) => self.tm_process_anns(pid, anns, t),
            Protocol::Aurc { .. } => self.aurc_process_anns(pid, anns, t),
        }
    }

    /// Issues acquire-time prefetches when the protocol calls for them.
    /// Returns the (possibly extended) completion time.
    pub(crate) fn issue_prefetches(&mut self, pid: usize, t: Cycles) -> Cycles {
        if !self.protocol.prefetch() {
            return t;
        }
        match self.protocol {
            Protocol::TreadMarks(_) => self.tm_issue_prefetches(pid, t),
            Protocol::Aurc { .. } => self.aurc_issue_prefetches(pid, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OverlapMode;
    use crate::system::Ev;
    use ncp2_sim::SysParams;
    use proptest::prelude::*;

    fn sim(n: usize) -> Simulation {
        Simulation::new(
            SysParams::default().with_nprocs(n),
            Protocol::TreadMarks(OverlapMode::Base),
        )
    }

    /// Delivers queued messages (no processor runs) until `stop` matches the
    /// next one or the queue is empty; wake-ups are dropped.
    fn deliver_until(s: &mut Simulation, stop: impl Fn(&Msg) -> bool) {
        while let Some(ev) = s.queue.peek() {
            if matches!(&ev.payload, Ev::Msg { msg, .. } if stop(msg)) {
                return;
            }
            let ev = s.queue.pop().expect("peeked event");
            if let Ev::Msg { dst, msg } = ev.payload {
                s.handle_msg(dst, ev.time, msg);
            }
        }
    }

    /// Every node dirties page `pid` and arrives at barrier 0. Returns each
    /// owner's announcement handle, taken from its own store.
    fn arrive_all(s: &mut Simulation, n: usize) -> Vec<Arc<IntervalAnnouncement>> {
        for pid in 0..n {
            s.nodes[pid].cur_dirty.push(pid as u64);
            s.op_barrier(pid, 0);
        }
        (0..n)
            .map(|p| Arc::clone(s.nodes[p].store.get(p, 1).expect("own interval")))
            .collect()
    }

    #[test]
    fn a_64_node_barrier_shares_one_allocation_per_announcement() {
        let n = 64;
        let mut s = sim(n);
        let own = arrive_all(&mut s, n);
        deliver_until(&mut s, |m| matches!(m, Msg::BarrierRelease { .. }));
        // All n releases carry one list, and it holds the owners' very
        // allocations.
        let mut releases = Vec::new();
        while let Some(ev) = s.queue.pop() {
            if let Ev::Msg { dst, msg } = ev.payload {
                releases.push((ev.time, dst, msg));
            }
        }
        let lists: Vec<&Arc<AnnList>> = releases
            .iter()
            .map(|(_, _, m)| match m {
                Msg::BarrierRelease { anns, .. } => anns,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(lists.len(), n);
        assert!(lists.iter().all(|l| Arc::ptr_eq(l, lists[0])));
        let list = Arc::clone(lists[0]);
        assert_eq!(list.len(), n);
        for (a, o) in list.iter().zip(&own) {
            assert!(Arc::ptr_eq(a, o));
        }
        // Recording the release's announcements (the step of the release
        // handler before its barrier GC empties the stores) leaves every
        // node's store holding the same allocation.
        let mut probe = sim(n);
        for pid in 0..n {
            probe.process_anns(pid, &list, 0);
        }
        for (owner, a) in own.iter().enumerate() {
            for pid in 0..n {
                assert!(Arc::ptr_eq(
                    probe.nodes[pid].store.get(owner, 1).unwrap(),
                    a
                ));
            }
            // Ours, the owner's store, the shared list, n probe stores.
            assert_eq!(Arc::strong_count(a), 3 + n);
        }
        drop((probe, list));
        for (t, dst, msg) in releases {
            s.handle_msg(dst, t, msg);
        }
        for a in &own {
            // Delivered and collected everywhere: only our handle is left.
            assert_eq!(Arc::strong_count(a), 1);
        }
    }

    #[test]
    fn vt_sum_survives_the_barrier_gc() {
        let n = 4;
        let mut s = sim(n);
        let own = arrive_all(&mut s, n);
        deliver_until(&mut s, |_| false);
        for pid in 0..n {
            // The release collected every announcement ...
            assert!(s.nodes[pid].store.is_empty());
            for (owner, a) in own.iter().enumerate() {
                // ... but the causal sort key outlives it, for the pending
                // notices the release left on the pages.
                assert_eq!(s.vt_sum(pid, owner, 1), a.vt_sum());
                assert!(a.vt_sum() > 0);
                if owner != pid {
                    let page = s.nodes[pid].pages.get(owner as u64).unwrap();
                    assert_eq!(page.pending, vec![(owner, 1)]);
                }
            }
        }
    }

    proptest! {
        /// For random interval histories (closes, plus announcement
        /// propagation as on a lock grant), the machine-wide table holds
        /// each interval's vector-time sum, and every node that has
        /// recorded an interval reads that sum.
        #[test]
        fn sum_table_matches_announcements(
            steps in prop::collection::vec((0usize..4, 0usize..4, 0u64..6), 0..60)
        ) {
            let n = 4;
            let mut s = sim(n);
            let mut closed: Vec<Arc<IntervalAnnouncement>> = Vec::new();
            for &(p, q, page) in &steps {
                if p == q {
                    s.nodes[p].cur_dirty.push(page);
                    s.close_interval(p);
                    let id = s.nodes[p].vt.get(p);
                    closed.push(Arc::clone(s.nodes[p].store.get(p, id).unwrap()));
                } else {
                    let anns = s.nodes[p].store.missing_for(&s.nodes[q].vt);
                    s.process_anns(q, &anns, 0);
                }
            }
            for a in &closed {
                prop_assert_eq!(s.sums[a.owner][a.id as usize], a.vt_sum());
                for pid in 0..n {
                    if s.nodes[pid].vt.covers_interval(a.owner, a.id) {
                        prop_assert_eq!(s.vt_sum(pid, a.owner, a.id), a.vt_sum());
                    }
                }
            }
        }
    }
}
