//! Shard lifecycle: desired-state machine, reconciler vocabulary, and
//! deterministic fault injection.
//!
//! The paper's economics — virtines cheap enough to create and destroy
//! that isolation costs almost nothing (§5.2) — extend to *operations*:
//! shells and runs must be cheap to move **off** a shard that is being
//! restarted, reconfigured, or has failed. This module gives each shard a
//! desired state:
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
//!   wait that pins its worker) ride a per-tenant grace period
//!   ([`crate::TenantProfile::drain_grace`]) and are then hard-stopped
//!   and shed with [`crate::ShedReason::Evicted`] — the only
//!   post-admission shed besides a missed deadline;
//! * re-running the reconciler against a converged state performs zero
//!   actions, so an operator (or a control loop) can call it on every
//!   tick without thrashing.
//!
//! [`FaultPlan`] injects failures at chosen virtual instants, seeded
//! through `vclock::rng` so a whole kill-and-recover scenario replays
//! bit-for-bit: shard failure exercises the same detector → reconcile →
//! re-admit path as an operator-initiated drain.

use vclock::rng::Rng;
use vclock::{costs, Cycles};
use vtrace::slo::Severity;

use crate::dispatcher::{cyc, Dispatcher};
use crate::health::HealthAction;
use crate::openreq::{CopyLoss, RetryCause};
use crate::request::{BlockMode, FailCause, Terminal};
use crate::shard::{align_up, Queued, Work};
use crate::tenant::{ShedReason, TenantId};

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

/// What a [`FaultEvent`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The whole shard fails: pooled shells dropped, parked runs evicted,
    /// queued work re-admitted elsewhere — exactly `fail_shard`.
    KillShard(usize),
    /// One idle shell on the shard is destroyed (the cheapest clean one),
    /// modelling a single context loss the pool absorbs by re-creating.
    KillShell(usize),
    /// The shard *wedges* without dying: it stops running batches and
    /// firing parked-run timeouts, but stays `Active` and keeps being
    /// scored by placement — a gray failure. Nothing in the lifecycle
    /// machinery reacts to a hang; only the health detector
    /// ([`crate::HealthConfig`]) can notice the missed heartbeats and
    /// declare the shard failed.
    HangShard(usize),
    /// The wedged shard recovers: batches and timeouts resume. If the
    /// detector declared it failed in the meantime, its half-open probes
    /// start succeeding again and eventually restore it.
    UnhangShard(usize),
}

/// One scheduled fault at a virtual instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time in seconds at which the fault fires.
    pub at_s: f64,
    /// What fails.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults, applied by the dispatcher
/// as virtual time advances past each event's instant.
///
/// Determinism is the point: a plan built with [`FaultPlan::random`] from
/// a seed replays the identical kill sequence on every run, so a
/// fault-recovery bench or property test is exactly reproducible. Events
/// fire in time order (ties in insertion order); the same detector →
/// reconcile → re-admit path runs whether the fault came from a plan or
/// an operator call.
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

    /// Schedules a whole-shard failure at `at_s` virtual seconds
    /// (builder style).
    pub fn kill_shard(mut self, at_s: f64, shard: usize) -> FaultPlan {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::KillShard(shard),
        });
        self
    }

    /// Schedules a single-shell loss on `shard` at `at_s` virtual
    /// seconds (builder style).
    pub fn kill_shell(mut self, at_s: f64, shard: usize) -> FaultPlan {
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::KillShell(shard),
        });
        self
    }

    /// Schedules a gray failure: `shard` hangs at `at_s` and recovers
    /// `duration_s` later (builder style). The pair models a wedged
    /// worker — a straggler the lifecycle machinery alone never notices,
    /// which is exactly what the health detector exists to catch.
    pub fn hang_shard(mut self, at_s: f64, shard: usize, duration_s: f64) -> FaultPlan {
        assert!(
            duration_s.is_finite() && duration_s >= 0.0,
            "hang duration must be finite"
        );
        self.push(FaultEvent {
            at_s,
            kind: FaultKind::HangShard(shard),
        });
        self.push(FaultEvent {
            at_s: at_s + duration_s,
            kind: FaultKind::UnhangShard(shard),
        });
        self
    }

    /// A seeded random plan: `count` faults spread uniformly over
    /// `(0, horizon_s)`, each killing a random shard (with probability
    /// `shard_kill_p`) or one of its shells. Same seed, same plan.
    pub fn random(
        seed: u64,
        shards: usize,
        count: usize,
        horizon_s: f64,
        shard_kill_p: f64,
    ) -> FaultPlan {
        assert!(shards > 0, "a fault plan needs at least one shard");
        let mut rng = Rng::seeded(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at_s = rng.range_f64(0.0, horizon_s);
            let shard = rng.below(shards);
            let kind = if rng.bool(shard_kill_p) {
                FaultKind::KillShard(shard)
            } else {
                FaultKind::KillShell(shard)
            };
            plan.push(FaultEvent { at_s, kind });
        }
        plan
    }

    fn push(&mut self, e: FaultEvent) {
        // Stable insert keeps ties in insertion order without a sort_by
        // over f64 keys (total order is fine here: NaN is rejected).
        assert!(
            e.at_s.is_finite() && e.at_s >= 0.0,
            "fault instant must be finite"
        );
        let i = self.events.partition_point(|x| x.at_s <= e.at_s);
        self.events.insert(i, e);
    }

    /// The virtual instant of the next pending fault, if any.
    pub fn next_at(&self) -> Option<f64> {
        self.events.first().map(|e| e.at_s)
    }

    /// Pops every event due at or before `now_s`, in order.
    pub fn take_due(&mut self, now_s: f64) -> Vec<FaultEvent> {
        let n = self.events.partition_point(|e| e.at_s <= now_s);
        self.events.drain(..n).collect()
    }

    /// Remaining scheduled events.
    pub fn pending(&self) -> usize {
        self.events.len()
    }
}

impl Dispatcher {
    /// Installs a deterministic fault plan: each event fires as virtual
    /// time advances past its instant, through the same detector →
    /// reconcile → re-admit path as an operator-initiated drain or fail.
    /// Replaces any previous plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Lifecycle state of one shard.
    ///
    /// # Panics
    ///
    /// Panics on a shard index out of range.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.shards[shard].state
    }

    /// Lifecycle states of every shard, in index order — the
    /// `vsched_shard_state` Prometheus gauge family.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.shards.iter().map(|s| s.state).collect()
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
        if self.shards[shard].state == ShardState::Active {
            self.shards[shard].state = ShardState::Draining;
            self.shards[shard].drain_since = self.last_arrival;
        }
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
        let s = &mut self.shards[shard];
        if s.state == ShardState::Active {
            return;
        }
        s.state = ShardState::Active;
        s.drain_since = 0;
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
        if self.shards[shard].state == ShardState::Failed {
            return actions;
        }
        self.shards[shard].state = ShardState::Failed;
        self.shards[shard].drain_since = self.last_arrival;
        let now = self.last_arrival;

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
                self.evict_parked(p, now, FailCause::ShardFailed)
            } else if self.open.is_moot(ticket.seq) {
                // A hedge-race loser stranded on the failing shard: the
                // logical request already finished elsewhere, so the
                // entry just evaporates.
                self.copy_lost(ticket.seq, now, None, None)
            } else if let Some(dest) = self.evacuation_target(shard, now) {
                actions.push(self.requeue(q, shard, dest, now));
                continue;
            } else {
                let loss = self.copy_lost(ticket.seq, now, Some(RetryCause::Queued), None);
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
            let loss = self.evict_parked(p, now, FailCause::ShardFailed);
            actions.extend(eviction_action(loss, seq, shard));
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

    /// When lifecycle evicts a run of `tenant` that parked at
    /// `blocked_from` on draining shard `idx`: the tenant's grace period
    /// (else the configured default) past the later of the drain start
    /// and the park.
    pub(crate) fn grace_deadline(&self, idx: usize, tenant: TenantId, blocked_from: u64) -> u64 {
        let grace = self.tenants[tenant.0]
            .profile
            .drain_grace
            .unwrap_or(self.config.drain_grace)
            .get();
        self.shards[idx]
            .drain_since
            .max(blocked_from)
            .saturating_add(grace)
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
        if self.shards.iter().all(|s| s.state.is_active()) {
            return actions;
        }
        let now = self.last_arrival;
        for i in 0..self.shards.len() {
            if self.shards[i].state != ShardState::Draining {
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
                        let at = self.grace_deadline(i, p.ticket.tenant, p.blocked_from);
                        if p.evict_at != at {
                            p.evict_at = at;
                            actions.push(LifecycleAction::EvictionArmed { seq, shard: i, at });
                        }
                    }
                }
                self.parked.insert(token, p);
            }

            // Pooled shells: warm exports keep their (tenant, virtine)
            // key, snapshot identity, and LRU stamp, so cross-shard
            // budgets and quotas are unchanged by the move; clean shells
            // just change pools. Each transfer pays its hop.
            while self.shards[i].pool.warm_shells() > 0 {
                let Some(dest) = self.evacuation_target(i, now) else {
                    break;
                };
                let Some(export) = self.shards[i].pool.export_warm_lru() else {
                    break;
                };
                self.wasp.clock().tick(self.topology.transfer_cost(i, dest));
                self.shards[dest].pool.import_warm(export);
                actions.push(LifecycleAction::WarmMigrated { from: i, to: dest });
            }
            while self.shards[i].pool.idle_shells() > 0 {
                let Some(dest) = self.evacuation_target(i, now) else {
                    break;
                };
                let Some(vm) = self.shards[i].pool.take_idle_any() else {
                    break;
                };
                self.wasp.clock().tick(self.topology.transfer_cost(i, dest));
                self.shards[dest].pool.adopt_idle(vm);
                actions.push(LifecycleAction::CleanMigrated { from: i, to: dest });
            }

            // Converged: nothing queued, parked, or pooled.
            if self.shards[i].queue.is_empty()
                && self.parked.values().all(|p| p.shard != i)
                && self.shards[i].pool.warm_shells() == 0
                && self.shards[i].pool.idle_shells() == 0
            {
                self.shards[i].state = ShardState::Drained;
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
            if self.shards.iter().any(|s| !s.state.is_active()) {
                self.reconcile();
            }
            let due_at = self
                .fault_plan
                .as_ref()
                .and_then(FaultPlan::next_at)
                .filter(|&at_s| cyc(at_s) <= limit);
            let Some(at_s) = due_at else {
                break;
            };
            self.advance_to(cyc(at_s));
            let due = self
                .fault_plan
                .as_mut()
                .expect("plan present: next_at returned an instant")
                .take_due(at_s);
            for event in due {
                match event.kind {
                    FaultKind::KillShard(shard) => {
                        self.fail_shard(shard);
                    }
                    FaultKind::KillShell(shard) => {
                        self.shards[shard].pool.drop_idle();
                    }
                    FaultKind::HangShard(shard) => {
                        self.shards[shard].hung = true;
                    }
                    FaultKind::UnhangShard(shard) => {
                        let tick = self.config.tick.get();
                        let now = cyc(at_s);
                        let s = &mut self.shards[shard];
                        s.hung = false;
                        // The wedged window is lost time, not deferred
                        // time: the worker's timeline resumes *now*, so
                        // backlogged work completes after the hang — it
                        // does not retroactively fill the gap.
                        s.free_at = s.free_at.max(now);
                        if !s.queue.is_empty() {
                            s.next_wake = align_up(s.free_at, tick);
                        }
                    }
                }
            }
        }
        self.advance_to(limit);
    }

    /// Evaluates the failure detector and the brownout controller at the
    /// dispatcher's arrival horizon. Detector declarations drive the
    /// existing `fail_shard` → reconcile → re-admit path; restorations go
    /// through [`Dispatcher::restore_shard`]. Free when neither is
    /// installed.
    fn reliability_eval(&mut self) {
        if self.health.is_none() && self.brownout.is_none() {
            return;
        }
        let now = self.last_arrival;
        if self.health.is_some() {
            // A hung shard is the detector's whole reason to exist: it
            // stays `Active` (placement keeps feeding it), so only the
            // missing heartbeats give it away. `alive` is ground truth
            // for the false-positive tripwire only — the detector's
            // decisions never read it.
            let alive: Vec<bool> = self.shards.iter().map(|s| !s.hung).collect();
            let monitored: Vec<bool> = self.shards.iter().map(|s| s.state.is_active()).collect();
            let actions = self
                .health
                .as_mut()
                .expect("checked above")
                .poll(now, &alive, &monitored);
            for action in actions {
                match action {
                    HealthAction::Declare(shard) => {
                        self.fail_shard(shard);
                    }
                    HealthAction::Restore(shard) => self.restore_shard(shard),
                }
            }
        }
        if let Some(b) = &mut self.brownout {
            let paging = match &mut self.slo {
                Some(slo) => {
                    slo.tick(Cycles(now));
                    slo.report()
                        .iter()
                        .any(|r| r.severity == Some(Severity::Page))
                }
                None => false,
            };
            b.evaluate(now, paging);
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

    #[test]
    fn plan_fires_in_time_order_with_stable_ties() {
        let mut plan = FaultPlan::new()
            .kill_shard(0.5, 1)
            .kill_shell(0.2, 0)
            .kill_shard(0.5, 2);
        assert_eq!(plan.next_at(), Some(0.2));
        let due = plan.take_due(0.5);
        assert_eq!(
            due.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [
                FaultKind::KillShell(0),
                FaultKind::KillShard(1),
                FaultKind::KillShard(2),
            ],
            "time order, insertion order on the 0.5 tie"
        );
        assert_eq!(plan.pending(), 0);
        assert!(plan.take_due(9.0).is_empty());
    }

    #[test]
    fn hang_shard_schedules_the_hang_and_the_recovery() {
        let mut plan = FaultPlan::new().hang_shard(0.3, 2, 0.2);
        assert_eq!(plan.pending(), 2);
        assert_eq!(plan.next_at(), Some(0.3));
        let due = plan.take_due(1.0);
        assert_eq!(
            due.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [FaultKind::HangShard(2), FaultKind::UnhangShard(2)],
            "hang first, recovery duration_s later"
        );
        assert_eq!(due[1].at_s, 0.5);
    }

    #[test]
    fn random_plan_replays_bit_for_bit_from_the_seed() {
        let a = FaultPlan::random(42, 4, 16, 1.0, 0.3);
        let b = FaultPlan::random(42, 4, 16, 1.0, 0.3);
        assert_eq!(a.events, b.events, "same seed, same plan");
        assert_eq!(a.pending(), 16);
        for w in a.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s, "sorted by instant");
        }
        let c = FaultPlan::random(43, 4, 16, 1.0, 0.3);
        assert_ne!(a.events, c.events, "different seed, different plan");
    }
}
