//! Shard lifecycle: desired-state machine, reconciler vocabulary, and
//! deterministic fault injection.
//!
//! The paper's economics — virtines cheap enough to create and destroy
//! that isolation costs almost nothing (§5.2) — extend to *operations*:
//! shells and runs must be cheap to move **off** a shard that is being
//! restarted, reconfigured, or has failed. This module gives each shard
//! (and, one tier up, each node of a [`crate::Cluster`] — both tiers keep
//! their members in one `MemberSet`, see
//! `docs/lifecycle.md#two-tiers-one-member-set`) a desired state:
//!
//! ```text
//!              drain_shard                converged
//!   Active ───────────────▶ Draining ───────────────▶ Drained
//!     ▲                        │                         │
//!     │      restore_shard     │      restore_shard      │
//!     ◀────────────────────────┴─────────────────────────┘
//!     │
//!     │      fail_shard (operator or FaultPlan)
//!     └───────────────────────▶ Failed ── restore_shard ─▶ Active
//! ```
//!
//! and an idempotent **reconciliation loop** (`Dispatcher::reconcile`)
//! that converges actual state to desired state in vclock time:
//!
//! * a non-`Active` shard stops being scored by the placement engine as
//!   an admit / steal / resume-migration target
//!   ([`crate::placement::Candidate::eligible`]);
//! * queued requests, migratable parked runs, and pooled shells (warm and
//!   clean) are moved to eligible siblings through the same priced,
//!   quota-respecting `Candidate` cost machinery as steals and
//!   resume-time migration;
//! * parked runs that *cannot* move (no eligible sibling, or a spin-poll
//!   wait that pins its worker) ride a grace period
//!   ([`crate::DispatcherConfig::drain_grace`]) and are then hard-stopped
//!   and shed with [`crate::ShedReason::Evicted`] — the only
//!   post-admission shed;
//! * re-running the reconciler against a converged state performs zero
//!   actions, so an operator (or a control loop) can call it on every
//!   tick without thrashing.
//!
//! [`FaultPlan`] injects failures at chosen virtual instants, so a whole
//! kill-and-recover scenario replays bit-for-bit: shard failure
//! exercises the same detector → reconcile → re-admit path as an
//! operator-initiated drain.

use vclock::{costs, Cycles};

use crate::dispatcher::Dispatcher;
use crate::health::{HealthAction, HealthConfig, HealthDetector, HealthStats, ShardHealth};
use crate::openreq::CopyLoss;
use crate::request::{BlockMode, FailCause, Terminal};
use crate::shard::{align_up, Queued, Work};
use crate::tenant::ShedReason;

/// Desired/actual lifecycle state of one shard.
///
/// `Active` is the only state the placement engine scores; the other
/// three are holes in the candidate set that the reconciler is busy
/// emptying (`Draining`), has emptied (`Drained`), or abandoned wholesale
/// (`Failed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving normally: admits, donates steals, accepts migrations.
    Active,
    /// Marked for evacuation: no new placements; the reconciler is moving
    /// queued work, parked runs, and pooled shells to eligible siblings,
    /// and grace clocks tick on whatever cannot move.
    Draining,
    /// Evacuation converged: queue empty, no parked runs, no pooled
    /// shells. Safe to restart or reconfigure the underlying worker.
    Drained,
    /// The shard's hardware contexts are gone (fault injection or
    /// operator `fail`). Pooled shells were dropped and parked runs
    /// evicted; the shard holds nothing until restored.
    Failed,
}

impl ShardState {
    /// Stable snake_case label, matching the `vsched_shard_state` gauge
    /// documentation and the `/admin/drain` status payload.
    pub fn label(self) -> &'static str {
        match self {
            ShardState::Active => "active",
            ShardState::Draining => "draining",
            ShardState::Drained => "drained",
            ShardState::Failed => "failed",
        }
    }

    /// Numeric encoding for the `vsched_shard_state` Prometheus gauge:
    /// 0 = active, 1 = draining, 2 = drained, 3 = failed.
    pub fn gauge(self) -> u64 {
        match self {
            ShardState::Active => 0,
            ShardState::Draining => 1,
            ShardState::Drained => 2,
            ShardState::Failed => 3,
        }
    }

    /// Whether placement may score this shard as an admit / steal /
    /// migration target.
    pub fn is_active(self) -> bool {
        matches!(self, ShardState::Active)
    }
}

impl std::fmt::Display for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One observable action the reconciler took. `Dispatcher::reconcile`
/// returns the full list per pass; an empty list *is* the convergence
/// proof — the idempotence contract says a second pass over unchanged
/// state returns `[]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleAction {
    /// A queued request moved from a draining shard's run queue to an
    /// eligible sibling.
    RunRequeued { seq: u64, from: usize, to: usize },
    /// A parked (blocked) run's suspended state moved to an eligible
    /// sibling; its wait registration rides along untouched.
    ParkMigrated { seq: u64, from: usize, to: usize },
    /// A warm shell (snapshot identity and LRU stamp preserved) moved to
    /// an eligible sibling's warm list.
    WarmMigrated { from: usize, to: usize },
    /// A clean idle shell moved to an eligible sibling's clean list.
    CleanMigrated { from: usize, to: usize },
    /// An unmigratable parked run's grace clock was armed (or re-armed
    /// tighter): at timeline position `at` it will be evicted.
    EvictionArmed { seq: u64, shard: usize, at: u64 },
    /// A parked run was hard-stopped and shed with
    /// [`crate::ShedReason::Evicted`] — grace expired, or its shard
    /// failed.
    RunEvicted { seq: u64, shard: usize },
    /// A run lost to a shard failure was scheduled for an exactly-once
    /// re-submission under its tenant's [`crate::RetryPolicy`] instead
    /// of being shed (`seq` is the logical request; `shard` the failed
    /// shard that destroyed its last live copy).
    RunRetried { seq: u64, shard: usize },
    /// A failed shard's pooled shells were destroyed (`count` of them).
    ShellsDropped { shard: usize, count: usize },
    /// A draining shard's evacuation converged; its state advanced to
    /// [`ShardState::Drained`].
    Drained { shard: usize },
}

/// What a [`FaultEvent`] does when it fires. `Hang` and `Unhang` name a
/// member of the tier whose plan holds them — a shard in a dispatcher's
/// plan, a node in a cluster's ([`crate::Cluster::hang_node_at`]); the
/// kills are shard-tier only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The whole shard fails: pooled shells dropped, parked runs evicted,
    /// queued work re-admitted elsewhere — exactly `fail_shard`.
    KillShard(usize),
    /// One idle shell on the shard is destroyed (the cheapest clean one),
    /// modelling a single context loss the pool absorbs by re-creating.
    KillShell(usize),
    /// The member *wedges* without dying: it makes no progress (a shard
    /// runs no batches and fires no parked-run timeouts; a node is not
    /// advanced) but stays `Active` and keeps being scored — a gray
    /// failure. Nothing in the lifecycle machinery reacts to a hang; only
    /// the health detector ([`crate::HealthConfig`]) can notice the
    /// missed heartbeats and declare the member failed.
    Hang(usize),
    /// One hang on the member lifts; it recovers once no hang is left
    /// open. If the detector declared it failed in the meantime, its
    /// half-open probes start succeeding again and eventually restore it.
    Unhang(usize),
}

/// One scheduled fault at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual instant at which the fault fires.
    pub at: Cycles,
    /// What fails.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults, applied by the dispatcher
/// (or the cluster) as virtual time advances past each event's instant.
///
/// Determinism is the point: a plan replays the identical fault sequence
/// on every run, so a fault-recovery bench or property test is exactly
/// reproducible. Events fire in time order (ties in insertion order);
/// the same detector → reconcile → re-admit path runs whether the fault
/// came from a plan or an operator call.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Remaining events, sorted by time (stable on ties).
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a whole-shard failure at virtual instant `at` (builder
    /// style).
    pub fn kill_shard(mut self, at: Cycles, shard: usize) -> FaultPlan {
        self.push(at, FaultKind::KillShard(shard));
        self
    }

    /// Schedules a single-shell loss on `shard` at virtual instant `at`
    /// (builder style).
    pub fn kill_shell(mut self, at: Cycles, shard: usize) -> FaultPlan {
        self.push(at, FaultKind::KillShell(shard));
        self
    }

    /// Schedules a gray failure: `shard` hangs at `at` and recovers
    /// `duration` later (builder style). The pair models a wedged
    /// worker — a straggler the lifecycle machinery alone never notices,
    /// which is exactly what the health detector exists to catch.
    ///
    /// # Panics
    ///
    /// Panics if `at + duration` overflows the cycle counter.
    pub fn hang_shard(mut self, at: Cycles, shard: usize, duration: Cycles) -> FaultPlan {
        let until = at.get().checked_add(duration.get());
        self.hang(at, shard, Some(Cycles(until.expect("hang end overflows"))));
        self
    }

    /// Schedules a hang of `member` at `at` that lifts at `until` — or
    /// never, for `None` (a node kill).
    pub(crate) fn hang(&mut self, at: Cycles, member: usize, until: Option<Cycles>) {
        self.push(at, FaultKind::Hang(member));
        if let Some(until) = until {
            assert!(until >= at, "a hang cannot lift before it starts");
            self.push(until, FaultKind::Unhang(member));
        }
    }

    fn push(&mut self, at: Cycles, kind: FaultKind) {
        let i = self.events.partition_point(|x| x.at <= at);
        self.events.insert(i, FaultEvent { at, kind });
    }

    /// The virtual instant of the next pending fault, if any.
    pub fn next_at(&self) -> Option<Cycles> {
        self.events.first().map(|e| e.at)
    }

    /// Pops the next event due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: Cycles) -> Option<FaultEvent> {
        if self.next_at()? > now {
            return None;
        }
        Some(self.events.remove(0))
    }
}

/// One tier's members as the lifecycle sees them — the shards of a
/// [`Dispatcher`] or the nodes of a [`crate::Cluster`]: each member's
/// [`ShardState`] and the instant it left `Active`, its open-hang count,
/// the tier's [`FaultPlan`], and its optional [`HealthDetector`]. The
/// transition guards, hang stepping and the detector poll are written
/// here once; what a transition *does* to a shard or a node stays with
/// its tier.
#[derive(Debug, Default)]
pub(crate) struct MemberSet {
    state: Vec<ShardState>,
    /// When each member last left `Active` (cycles): a draining shard's
    /// grace periods are measured from the later of this and the park.
    left_active: Vec<u64>,
    /// Open hangs per member; a member is wedged while its count is
    /// nonzero, so overlapping hangs hold it until the last one lifts.
    hangs: Vec<u32>,
    /// The tier's fault schedule; step it with [`MemberSet::pop_due`].
    pub(crate) plan: FaultPlan,
    health: Option<HealthDetector>,
}

impl MemberSet {
    /// `n` members, all `Active` and unhung.
    pub(crate) fn new(n: usize) -> MemberSet {
        let mut m = MemberSet::default();
        for _ in 0..n {
            m.push();
        }
        m
    }

    /// Adds an `Active`, unhung member and returns its index.
    pub(crate) fn push(&mut self) -> usize {
        assert!(
            self.health.is_none(),
            "add every member before installing the health detector"
        );
        self.state.push(ShardState::Active);
        self.left_active.push(0);
        self.hangs.push(0);
        self.state.len() - 1
    }

    pub(crate) fn state(&self, i: usize) -> ShardState {
        self.state[i]
    }

    pub(crate) fn states(&self) -> &[ShardState] {
        &self.state
    }

    pub(crate) fn all_active(&self) -> bool {
        self.state.iter().all(|s| s.is_active())
    }

    pub(crate) fn left_active(&self, i: usize) -> u64 {
        self.left_active[i]
    }

    pub(crate) fn is_hung(&self, i: usize) -> bool {
        self.hangs[i] > 0
    }

    /// `Active → Draining` at `now`; any other state is left alone.
    /// Returns whether the member moved.
    pub(crate) fn drain(&mut self, i: usize, now: u64) -> bool {
        if !self.state[i].is_active() {
            return false;
        }
        self.state[i] = ShardState::Draining;
        self.left_active[i] = now;
        true
    }

    /// `Draining → Drained`, once the tier has emptied the member.
    pub(crate) fn drained(&mut self, i: usize) {
        debug_assert_eq!(self.state[i], ShardState::Draining);
        self.state[i] = ShardState::Drained;
    }

    /// Any state but `Failed` → `Failed` at `now` (idempotent). Returns
    /// whether the member moved.
    pub(crate) fn fail(&mut self, i: usize, now: u64) -> bool {
        match self.state[i] {
            ShardState::Failed => return false,
            ShardState::Active => self.left_active[i] = now,
            ShardState::Draining | ShardState::Drained => {}
        }
        self.state[i] = ShardState::Failed;
        true
    }

    /// Any state but `Active` → `Active` (a no-op on `Active`). Returns
    /// whether the member moved.
    pub(crate) fn restore(&mut self, i: usize) -> bool {
        if self.state[i].is_active() {
            return false;
        }
        self.state[i] = ShardState::Active;
        self.left_active[i] = 0;
        true
    }

    /// Pops the next fault due at or before `now` and applies a hang or
    /// unhang to the member's open-hang count; the tier applies the rest.
    pub(crate) fn pop_due(&mut self, now: Cycles) -> Option<FaultKind> {
        let kind = self.plan.pop_due(now)?.kind;
        match kind {
            FaultKind::Hang(i) => self.hangs[i] += 1,
            FaultKind::Unhang(i) => self.hangs[i] -= 1,
            FaultKind::KillShard(_) | FaultKind::KillShell(_) => {}
        }
        Some(kind)
    }

    /// Installs the failure detector, one monitor slot per member.
    pub(crate) fn set_health(&mut self, config: HealthConfig) {
        self.health = Some(HealthDetector::new(config, self.state.len()));
    }

    pub(crate) fn heartbeat_interval(&self) -> Option<Cycles> {
        self.health.as_ref().map(|h| h.config().heartbeat_interval)
    }

    /// A liveness signal from member `i` at `at` (free without a
    /// detector).
    pub(crate) fn heartbeat(&mut self, i: usize, at: u64) {
        if let Some(h) = &mut self.health {
            h.heartbeat(i, at);
        }
    }

    /// Polls the detector at `now`, reading liveness (no open hang) and
    /// monitoring (`Active`) in place. A hung member stays `Active`, so
    /// only its missing heartbeats give it away; liveness is ground truth
    /// for probes and the false-positive tripwire. The tier applies the
    /// returned actions.
    pub(crate) fn poll(&mut self, now: u64) -> Vec<HealthAction> {
        let (state, hangs) = (&self.state, &self.hangs);
        match &mut self.health {
            Some(h) => h.poll(now, |i| hangs[i] == 0, |i| state[i].is_active()),
            None => Vec::new(),
        }
    }

    pub(crate) fn health_stats(&self) -> Option<HealthStats> {
        self.health.as_ref().map(HealthDetector::stats)
    }

    /// Per-member detector view, index-aligned with the members.
    pub(crate) fn health_view(&self) -> Option<Vec<ShardHealth>> {
        let h = self.health.as_ref()?;
        Some((0..self.state.len()).map(|i| h.shard_health(i)).collect())
    }
}

impl Dispatcher {
    /// Installs a deterministic fault plan: each event fires as virtual
    /// time advances past its instant, through the same detector →
    /// reconcile → re-admit path as an operator-initiated drain or fail.
    /// Replaces any previous plan; a hang already open stays open.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.members.plan = plan;
    }

    /// Lifecycle state of one shard.
    ///
    /// # Panics
    ///
    /// Panics on a shard index out of range.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.members.state(shard)
    }

    /// Lifecycle states of every shard, in index order — the
    /// `vsched_shard_state` Prometheus gauge family.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.members.states().to_vec()
    }

    /// Marks a shard draining and runs one reconcile pass. New
    /// placements stop immediately (the shard leaves the eligible set);
    /// the returned actions show what the pass moved, armed, or
    /// converged. Idempotent: draining an already-draining or drained
    /// shard just re-runs the reconciler.
    ///
    /// # Panics
    ///
    /// Panics on a shard index out of range.
    pub fn drain_shard(&mut self, shard: usize) -> Vec<LifecycleAction> {
        self.members.drain(shard, self.last_arrival);
        self.reconcile()
    }

    /// Restores a draining, drained, or failed shard to `Active`: it
    /// rejoins the eligible set (placement, steal donation, migration
    /// target) at the next decision, and any armed grace clocks on runs
    /// still parked there are disarmed. Symmetric with
    /// [`Dispatcher::drain_shard`]; a no-op on an already-active shard.
    ///
    /// # Panics
    ///
    /// Panics on a shard index out of range.
    pub fn restore_shard(&mut self, shard: usize) {
        if !self.members.restore(shard) {
            return;
        }
        for p in self.parked.values_mut().filter(|p| p.shard == shard) {
            p.evict_at = u64::MAX;
        }
    }

    /// Fails a shard outright (fault injection or operator action): its
    /// pooled shells are destroyed, parked runs are evicted — their
    /// suspended hardware state died with the shard — and queued
    /// requests are re-admitted on an eligible sibling exactly once
    /// (shed with [`ShedReason::Evicted`] only when no sibling is
    /// eligible). The shard stays `Failed` (and empty) until
    /// [`Dispatcher::restore_shard`]. Idempotent: failing a failed
    /// shard does nothing.
    ///
    /// # Panics
    ///
    /// Panics on a shard index out of range.
    pub fn fail_shard(&mut self, shard: usize) -> Vec<LifecycleAction> {
        let mut actions = Vec::new();
        let now = self.last_arrival;
        if !self.members.fail(shard, now) {
            return actions;
        }

        // The pooled inventory is gone: these contexts lived on the
        // failed worker.
        let count = self.shards[shard].pool.drop_all_shells();
        if count > 0 {
            actions.push(LifecycleAction::ShellsDropped { shard, count });
        }

        // Queued fresh requests move to an eligible sibling (exactly
        // once — the entry itself is re-homed, never copied). Woken runs
        // waiting in the queue hold suspended state that died with the
        // shard: they are evicted like parked runs.
        let drained: Vec<Queued> = std::mem::take(&mut self.shards[shard].queue).into_vec();
        self.shards[shard].next_wake = u64::MAX;
        for q in drained {
            let ticket = q.ticket;
            let loss = if let Work::Resume(p) = q.work {
                debug_assert_eq!(p.shard, shard, "a woken run queues where it is homed");
                self.evict_parked(p, now, FailCause::ShardFailed);
                CopyLoss::Terminal
            } else if self.open.is_moot(ticket.seq) {
                // A hedge-race loser stranded on the failing shard: the
                // logical request already finished elsewhere, so the
                // entry just evaporates.
                self.copy_lost(ticket.seq, now, false)
            } else if let Some(dest) = self.evacuation_target(shard, now) {
                actions.push(self.requeue(q, shard, dest, now));
                continue;
            } else {
                let loss = self.copy_lost(ticket.seq, now, true);
                if loss == CopyLoss::Terminal {
                    self.tspan(ticket.seq, "queue_wait", String::new, ticket.arrival, now);
                    let cause = || FailCause::ShardFailed.label().to_string();
                    self.tspan(ticket.seq, "drain_evict", cause, now, now);
                    let end = Terminal::Shed {
                        reason: ShedReason::Evicted,
                        evict: Some(FailCause::ShardFailed),
                    };
                    self.settle(&ticket, now, end);
                }
                loss
            };
            actions.extend(eviction_action(loss, ticket.seq, shard));
        }

        // Parked runs: the suspension is lost with the worker.
        for token in self.parked_on(shard) {
            let p = self.unpark(token);
            let seq = p.ticket.seq;
            self.evict_parked(p, now, FailCause::ShardFailed);
            actions.push(LifecycleAction::RunEvicted { seq, shard });
        }
        actions
    }

    /// Decision point 5 (lifecycle evacuation): asks the engine which
    /// eligible sibling takes work, parked runs, or shells off `from`.
    fn evacuation_target(&self, from: usize, now: u64) -> Option<usize> {
        let c = self.candidates(Some(from), None, None, now);
        self.engine.evacuate(&c)
    }

    /// Re-homes one queue entry from `from` to `dest` — the entry itself
    /// moves, never a copy. A woken run carries its suspended shell, so
    /// its move is a migration and pays the hop like any other.
    fn requeue(&mut self, mut q: Queued, from: usize, dest: usize, now: u64) -> LifecycleAction {
        self.wasp.clock().tick(costs::VSCHED_QUEUE_OP);
        if let Work::Resume(p) = &mut q.work {
            self.migrate(p, from, dest);
        }
        let seq = q.ticket.seq;
        self.shards[dest].enqueue_at(q, self.config.tick.get(), now);
        self.tspan(
            seq,
            "reconcile",
            || format!("requeue shard={dest}"),
            now,
            now,
        );
        LifecycleAction::RunRequeued {
            seq,
            from,
            to: dest,
        }
    }

    /// When lifecycle evicts a run that parked at `blocked_from` on
    /// draining shard `idx`: the configured grace period past the later
    /// of the drain start and the park.
    pub(crate) fn grace_deadline(&self, idx: usize, blocked_from: u64) -> u64 {
        let since = self.members.left_active(idx);
        since
            .max(blocked_from)
            .saturating_add(self.config.drain_grace.get())
    }

    /// One pass of the lifecycle reconciliation loop: for every
    /// *draining* shard, moves queued work, migratable parked runs, and
    /// pooled shells (warm then clean) to eligible siblings through the
    /// engine's evacuation decision — priced hops, quota-respecting —
    /// arms per-tenant grace clocks on parked runs that cannot move, and
    /// advances fully-evacuated shards to `Drained`. Returns everything
    /// it did; **idempotent** — a second pass over unchanged state
    /// returns an empty list. Runs automatically as virtual time
    /// advances while any shard is non-active, so operators need not
    /// poll.
    pub fn reconcile(&mut self) -> Vec<LifecycleAction> {
        let mut actions = Vec::new();
        if self.members.all_active() {
            return actions;
        }
        let now = self.last_arrival;
        for i in 0..self.shards.len() {
            if self.members.state(i) != ShardState::Draining {
                continue;
            }

            // Queued work re-homes one entry at a time, each to the
            // currently cheapest eligible sibling. No eligible sibling
            // leaves the remainder in place: a draining shard still
            // executes its own backlog (degraded mode beats losing it).
            while !self.shards[i].queue.is_empty() {
                let Some(dest) = self.evacuation_target(i, now) else {
                    break;
                };
                let q = self.shards[i].queue.pop().expect("checked non-empty");
                actions.push(self.requeue(q, i, dest, now));
            }
            if self.shards[i].queue.is_empty() {
                self.shards[i].next_wake = u64::MAX;
            }

            // Parked runs migrate whole — suspension, shell, and
            // token-keyed wait registration (no re-registration needed).
            // Spin-poll parks pin their worker and cannot move; they (and
            // parks with no eligible destination) get a grace clock
            // instead, armed once and re-reported only if it changes.
            for token in self.parked_on(i) {
                let dest = if self.config.block == BlockMode::SpinPoll {
                    None
                } else {
                    self.evacuation_target(i, now)
                };
                let p = self.parked.remove(&token);
                let mut p = p.expect("token enumerated from the parked map");
                let seq = p.ticket.seq;
                match dest {
                    Some(dest) => {
                        self.migrate(&mut p, i, dest);
                        p.evict_at = u64::MAX;
                        self.tspan(seq, "reconcile", || format!("park shard={dest}"), now, now);
                        actions.push(LifecycleAction::ParkMigrated {
                            seq,
                            from: i,
                            to: dest,
                        });
                    }
                    None => {
                        let at = self.grace_deadline(i, p.blocked_from);
                        if p.evict_at != at {
                            p.evict_at = at;
                            actions.push(LifecycleAction::EvictionArmed { seq, shard: i, at });
                        }
                    }
                }
                self.parked.insert(token, p);
            }

            // Pooled shells: warm shells keep their (tenant, virtine)
            // key, snapshot identity, and LRU stamp, so cross-shard
            // budgets and quotas are unchanged by the move; clean shells
            // just change pools. Each transfer pays its hop.
            while self.shards[i].pool.warm_shells() > 0 {
                let Some(dest) = self.evacuation_target(i, now) else {
                    break;
                };
                let Some(warm) = self.shards[i].pool.export_warm_lru() else {
                    break;
                };
                self.wasp.clock().tick(self.topology.transfer_cost(i, dest));
                self.shards[dest].pool.import_warm(warm);
                actions.push(LifecycleAction::WarmMigrated { from: i, to: dest });
            }
            while self.shards[i].pool.idle_shells() > 0 {
                let Some(dest) = self.evacuation_target(i, now) else {
                    break;
                };
                let Some(clean) = self.shards[i].pool.take_idle_any() else {
                    break;
                };
                self.wasp.clock().tick(self.topology.transfer_cost(i, dest));
                self.shards[dest].pool.adopt_idle(clean);
                actions.push(LifecycleAction::CleanMigrated { from: i, to: dest });
            }

            // Converged: nothing queued, parked, or pooled.
            if self.shards[i].queue.is_empty()
                && self.parked.values().all(|p| p.shard != i)
                && self.shards[i].pool.warm_shells() == 0
                && self.shards[i].pool.idle_shells() == 0
            {
                self.members.drained(i);
                actions.push(LifecycleAction::Drained { shard: i });
            }
        }
        actions
    }

    /// Advances to `limit` like [`Dispatcher::advance_to`], firing any
    /// fault-plan events whose instant falls inside the window and
    /// running the reconciler while any shard is non-active. With no
    /// plan and every shard active this is exactly `advance_to` — the
    /// hot path pays one boolean check.
    pub(crate) fn advance_with_faults(&mut self, limit: u64) {
        self.reliability_eval();
        loop {
            if !self.members.all_active() {
                self.reconcile();
            }
            let due_at = self.members.plan.next_at();
            let Some(at) = due_at.filter(|at| at.get() <= limit) else {
                break;
            };
            self.advance_to(at.get());
            while let Some(kind) = self.members.pop_due(at) {
                match kind {
                    FaultKind::KillShard(shard) => {
                        self.fail_shard(shard);
                    }
                    FaultKind::KillShell(shard) => {
                        self.shards[shard].pool.drop_idle();
                    }
                    FaultKind::Unhang(shard) if !self.members.is_hung(shard) => {
                        // The wedged window is lost time, not deferred
                        // time: the worker's timeline resumes *now*, so
                        // backlogged work completes after the hang — it
                        // does not retroactively fill the gap.
                        let tick = self.config.tick.get();
                        let s = &mut self.shards[shard];
                        s.free_at = s.free_at.max(at.get());
                        if !s.queue.is_empty() {
                            s.next_wake = align_up(s.free_at, tick);
                        }
                    }
                    FaultKind::Hang(_) | FaultKind::Unhang(_) => {}
                }
            }
        }
        self.advance_to(limit);
    }

    /// Evaluates the failure detector at the dispatcher's arrival
    /// horizon. Declarations drive the existing `fail_shard` → reconcile
    /// → re-admit path; restorations go through
    /// [`Dispatcher::restore_shard`]. Free when no detector is installed.
    fn reliability_eval(&mut self) {
        for action in self.members.poll(self.last_arrival) {
            match action {
                HealthAction::Declare(shard) => {
                    self.fail_shard(shard);
                }
                HealthAction::Restore(shard) => self.restore_shard(shard),
            }
        }
    }
}

/// What a lifecycle pass reports for a copy a shard failure destroyed.
fn eviction_action(loss: CopyLoss, seq: u64, shard: usize) -> Option<LifecycleAction> {
    match loss {
        CopyLoss::Suppressed => None,
        CopyLoss::Retried(_) => Some(LifecycleAction::RunRetried { seq, shard }),
        CopyLoss::Terminal => Some(LifecycleAction::RunEvicted { seq, shard }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_labels_and_gauges_are_stable() {
        let states = [
            ShardState::Active,
            ShardState::Draining,
            ShardState::Drained,
            ShardState::Failed,
        ];
        let labels: Vec<&str> = states.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["active", "draining", "drained", "failed"]);
        let gauges: Vec<u64> = states.iter().map(|s| s.gauge()).collect();
        assert_eq!(gauges, [0, 1, 2, 3]);
        assert!(ShardState::Active.is_active());
        assert!(!ShardState::Draining.is_active());
        assert_eq!(ShardState::Drained.to_string(), "drained");
    }

    /// Every event due at `now` seconds, in firing order.
    fn due(plan: &mut FaultPlan, now: f64) -> Vec<FaultEvent> {
        std::iter::from_fn(|| plan.pop_due(Cycles::from_secs(now))).collect()
    }

    #[test]
    fn plan_fires_in_time_order_with_stable_ties() {
        let mut plan = FaultPlan::new()
            .kill_shard(Cycles::from_secs(0.5), 1)
            .kill_shell(Cycles::from_secs(0.2), 0)
            .kill_shard(Cycles::from_secs(0.5), 2);
        assert_eq!(plan.next_at(), Some(Cycles::from_secs(0.2)));
        assert_eq!(
            due(&mut plan, 0.5)
                .iter()
                .map(|e| e.kind)
                .collect::<Vec<_>>(),
            [
                FaultKind::KillShell(0),
                FaultKind::KillShard(1),
                FaultKind::KillShard(2),
            ],
            "time order, insertion order on the 0.5 tie"
        );
        assert_eq!(plan.events.len(), 0);
        assert!(due(&mut plan, 9.0).is_empty());
    }

    #[test]
    fn hang_shard_schedules_the_hang_and_the_recovery() {
        let mut plan =
            FaultPlan::new().hang_shard(Cycles::from_secs(0.3), 2, Cycles::from_secs(0.2));
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.next_at(), Some(Cycles::from_secs(0.3)));
        let due = due(&mut plan, 1.0);
        assert_eq!(
            due.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [FaultKind::Hang(2), FaultKind::Unhang(2)],
            "hang first, recovery duration later"
        );
        assert_eq!(due[1].at, Cycles::from_secs(0.5));
    }

    #[test]
    fn every_state_answers_drain_fail_and_restore_from_one_table() {
        use ShardState::{Active, Drained, Draining, Failed};
        // (from, drain, fail, restore): each op's next state and whether
        // the member set reported a transition.
        let table = [
            (Active, (Draining, true), (Failed, true), (Active, false)),
            (Draining, (Draining, false), (Failed, true), (Active, true)),
            (Drained, (Drained, false), (Failed, true), (Active, true)),
            (Failed, (Failed, false), (Failed, false), (Active, true)),
        ];
        // A member set with one member in `from`.
        let at = |from: ShardState| {
            let mut m = MemberSet::new(1);
            match from {
                Active => {}
                Draining => assert!(m.drain(0, 7)),
                Drained => {
                    assert!(m.drain(0, 7));
                    m.drained(0);
                }
                Failed => assert!(m.fail(0, 7)),
            }
            assert_eq!(m.state(0), from);
            m
        };
        for (from, drain, fail, restore) in table {
            let mut m = at(from);
            let moved = m.drain(0, 9);
            assert_eq!((m.state(0), moved), drain, "drain from {from}");
            let mut m = at(from);
            let moved = m.fail(0, 9);
            assert_eq!((m.state(0), moved), fail, "fail from {from}");
            let mut m = at(from);
            let moved = m.restore(0);
            assert_eq!((m.state(0), moved), restore, "restore from {from}");
        }
        // Leaving `Active` stamps the instant; a later transition out of
        // a non-Active state keeps it.
        let mut m = at(Draining);
        assert!(m.fail(0, 9));
        assert_eq!(m.left_active(0), 7);
    }

    #[test]
    fn overlapping_hangs_hold_a_member_until_the_last_one_lifts() {
        let mut m = MemberSet::new(1);
        m.plan = FaultPlan::new()
            .hang_shard(Cycles::from_secs(0.001), 0, Cycles::from_secs(0.010))
            .hang_shard(Cycles::from_secs(0.002), 0, Cycles::from_secs(0.002));
        let hung_after = |m: &mut MemberSet, t: f64| {
            while m.pop_due(Cycles::from_secs(t)).is_some() {}
            m.is_hung(0)
        };
        assert!(!hung_after(&mut m, 0.0005));
        assert!(hung_after(&mut m, 0.003));
        assert!(
            hung_after(&mut m, 0.005),
            "the first unhang is not the last"
        );
        assert!(!hung_after(&mut m, 0.011));
        // A hang with no recovery (a node kill) never lifts.
        m.plan.hang(Cycles::from_secs(0.02), 0, None);
        assert!(hung_after(&mut m, 1e9));
    }
}
