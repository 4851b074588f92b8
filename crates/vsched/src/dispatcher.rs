//! The dispatcher: construction, admission, the batch loop, execution
//! and completion, and the steals — with every placement, steal, and
//! migration *decision* delegated to the placement [`CostEngine`].
//!
//! A request is one `Ticket` (see [`crate::shard`]) from admission to
//! terminal outcome, and reaching a terminal outcome is one function,
//! `Dispatcher::settle`: the only code that gives an in-flight slot back,
//! counts a serve or a shed on every stats plane, feeds the SLO engine,
//! closes the trace, and records the [`Completion`]. The conservation
//! identity (`docs/reliability.md` states it) holds because `submit` is
//! the only code that takes a slot, `settle` the only code that returns
//! one, and [`crate::openreq`] lets exactly one copy of a logical request
//! reach it.
//!
//! This file owns the mechanisms (queues, pools, transfers, accounting);
//! the scoring that picks a shard at the four routing decision points
//! lives in [`crate::placement`] (see its decision-point diagram) over
//! the shard [`Topology`] of [`crate::topology`]. Two further
//! `impl Dispatcher` blocks live next door: `crate::parking` (a blocked
//! run's park, wake, resume placement, expiry, kill and eviction) and
//! the actuator in [`crate::lifecycle`] (drain / fail / restore, the
//! reconciler, fault-plan stepping, detector evaluation). The types a
//! caller configures, offers and gets back are [`crate::request`].

use std::collections::{BTreeMap, HashMap};

use vclock::stats::Histogram;
use vclock::{costs, Clock, Cycles};
use vtrace::slo::SloEngine;
use vtrace::TraceCollector;
use wasp::{
    CleanShell, ExitKind, Invocation, Pool, PoolStats, RunOutcome, RunResult, Shell, ShellRun,
    UsedShell, VirtineId, VirtineSpec, Wasp, WaspError,
};

use crate::health::{HealthConfig, HealthStats, ShardHealth};
use crate::lifecycle::MemberSet;
use crate::openreq::{hedge_delay, CopyFinish, CopyLoss, OpenTable, Timer};
use crate::placement::{Candidate, CostEngine, WarmPolicy, WarmVerdict};
use crate::request::{Completion, DispatcherConfig, DispatcherStats, FailCause, Request, Terminal};
use crate::shard::{align_up, Parked, Progress, Queued, Shard, ShardSnapshot, Ticket, Work};
use crate::tenant::{ShedReason, TenantId, TenantProfile, TenantState, TenantStats};
use crate::topology::{Hop, Topology};

/// A dispatcher's load at a glance ([`Dispatcher::load`]): the node-level
/// sums a tier above scores and drains by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatcherLoad {
    /// Requests waiting across every shard's run queue.
    pub queue_depth: usize,
    /// Clean shells parked across the shard pools.
    pub idle_shells: usize,
    /// Warm shells parked across the shard pools.
    pub warm_shells: usize,
    /// Earliest instant (cycles) at which any shard's worker frees up.
    pub free_at: u64,
    /// Blocked runs currently parked.
    pub parked: usize,
}

/// The sharded, multi-tenant virtine dispatcher.
///
/// See the crate docs for the paper mapping. Construction wraps an owned
/// [`Wasp`]; virtine specs are registered through [`Dispatcher::register`]
/// so the dispatcher can segregate shells by guest-memory size exactly as
/// the internal pool does.
pub struct Dispatcher {
    pub(crate) wasp: Wasp,
    pub(crate) config: DispatcherConfig,
    pub(crate) shards: Vec<Shard>,
    pub(crate) tenants: Vec<TenantState>,
    mem_sizes: HashMap<VirtineId, usize>,
    seq: u64,
    pub(crate) last_arrival: u64,
    completions: Vec<Completion>,
    pub(crate) stats: DispatcherStats,
    /// Next wait token handed to `hostsim`'s readiness machinery.
    pub(crate) next_token: u64,
    /// Every parked run, keyed (and so visited in order) by its wait
    /// token; each knows the shard it is parked on. See `crate::parking`.
    pub(crate) parked: BTreeMap<u64, Box<Parked>>,
    /// The socket/CCX grouping the engine prices hops against.
    pub(crate) topology: Topology,
    /// The policy layer behind every routing decision (see
    /// `crate::placement`'s decision-point diagram).
    pub(crate) engine: CostEngine,
    /// Shared park-order counter threaded through every warm park, so
    /// LRU comparisons are meaningful *across* shard pools.
    warm_stamp: u64,
    /// Per-invocation span recorder (disabled — and free — by default;
    /// see [`Dispatcher::enable_tracing`]).
    trace: TraceCollector,
    /// Declared objectives evaluated at every terminal event
    /// (completion, kill, shed); `None` until [`Dispatcher::set_slo`].
    pub(crate) slo: Option<SloEngine>,
    /// The shards as the lifecycle sees them: state, hangs, the fault
    /// plan ([`Dispatcher::set_fault_plan`]) and the failure detector
    /// ([`Dispatcher::set_health`]; absent — zero overhead, bit-identical
    /// runs — until installed).
    pub(crate) members: MemberSet,
    /// The exactly-once table: every copy of every request whose tenant
    /// opted into retries or hedging, and their timers.
    pub(crate) open: OpenTable,
    /// Trace id of the next door shed. A request refused at the door never
    /// gets a sequence number, so its one-span trace is keyed from a
    /// space counting down from `u64::MAX` — disjoint from sequence
    /// numbers, and untouched when tracing is off, so enabling tracing
    /// never renumbers a request.
    next_shed_trace: u64,
    /// Queue-wait distribution (arrival → first execution start).
    hist_queue_wait: Histogram,
    /// Service-time distribution (worker cycles, parked waits excluded).
    hist_exec: Histogram,
    /// End-to-end latency distribution (arrival → finish) across all
    /// tenants; per-tenant series live in `TenantState::e2e`.
    hist_e2e: Histogram,
}

impl Dispatcher {
    /// Builds a dispatcher over an owned runtime.
    ///
    /// # Panics
    ///
    /// Panics on a zero shard count, zero batch size, zero tick, or a
    /// topology whose shard count disagrees with `config.shards`.
    pub fn new(wasp: Wasp, config: DispatcherConfig) -> Dispatcher {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch_size >= 1, "need a positive batch size");
        assert!(config.tick.get() >= 1, "need a positive tick");
        let topology = config
            .topology
            .clone()
            .unwrap_or_else(|| Topology::flat(config.shards));
        assert_eq!(
            topology.shards(),
            config.shards,
            "topology shard count must match config.shards"
        );
        // Under a global warm budget the engine governs the cross-shard
        // total, so any one pool may hold up to the whole budget; the
        // fixed per-pool bound only binds when no budget is set.
        let pool_capacity = config.warm_budget.unwrap_or(config.warm_capacity);
        let warm_policy = WarmPolicy {
            global_budget: config.warm_budget,
            tenant_quota: config.warm_tenant_quota,
        };
        let engine = CostEngine::new(config.placement, config.batch_size, warm_policy);
        let shards = (0..config.shards)
            .map(|_| Shard::new(Pool::new(config.pool_mode).with_warm_capacity(pool_capacity)))
            .collect();
        let members = MemberSet::new(config.shards);
        Dispatcher {
            wasp,
            config,
            shards,
            tenants: Vec::new(),
            mem_sizes: HashMap::new(),
            seq: 0,
            last_arrival: 0,
            completions: Vec::new(),
            stats: DispatcherStats::default(),
            next_token: 0,
            parked: BTreeMap::new(),
            topology,
            engine,
            warm_stamp: 0,
            trace: TraceCollector::disabled(),
            slo: None,
            members,
            open: OpenTable::new(),
            next_shed_trace: u64::MAX,
            hist_queue_wait: Histogram::new(),
            hist_exec: Histogram::new(),
            hist_e2e: Histogram::new(),
        }
    }

    /// Enables invocation tracing, retaining the most recent `capacity`
    /// finished span trees (zero disables tracing again). Recording is
    /// host-side bookkeeping and charges no virtual cycle, so a traced run
    /// is identical in virtual time to an untraced one; when disabled (the
    /// default) nothing is recorded or allocated.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceCollector::with_capacity(capacity);
    }

    /// The invocation trace collector (empty and inert unless
    /// [`Dispatcher::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// Dumps retained invocation traces as JSON lines, newest first —
    /// the payload behind `GET /trace`. `tenant` filters by tenant
    /// *name*; an unknown name yields no lines.
    pub fn trace_json_lines(&self, tenant: Option<&str>, limit: usize) -> String {
        let tenant_idx = tenant.map(|name| {
            self.tenants
                .iter()
                .position(|t| t.profile.name == name)
                .unwrap_or(usize::MAX)
        });
        let names: Vec<&str> = self
            .tenants
            .iter()
            .map(|t| t.profile.name.as_str())
            .collect();
        self.trace.json_lines(tenant_idx, limit, &|i| {
            names
                .get(i)
                .map_or_else(|| format!("tenant-{i}"), |n| n.to_string())
        })
    }

    /// Installs an SLO engine; every later completion, kill, and shed is
    /// observed against its objectives.
    pub fn set_slo(&mut self, engine: SloEngine) {
        self.slo = Some(engine);
    }

    /// The installed SLO engine, if any.
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Advances the SLO engine's sliding windows to the dispatcher's
    /// current arrival horizon without recording an event, so alerts can
    /// clear across quiet periods.
    pub fn slo_tick(&mut self) {
        let at = self.last_arrival;
        if let Some(slo) = &mut self.slo {
            slo.tick(Cycles(at));
        }
    }

    /// Installs the heartbeat-driven failure detector (see
    /// [`crate::health`]): batch ticks feed it liveness, and as virtual
    /// time advances it drives suspected shards through the *existing*
    /// `fail_shard` → reconcile → re-admit path and restores them via
    /// half-open probes. Without this call the detector does not exist —
    /// no state, no cycles, bit-identical runs.
    pub fn set_health(&mut self, config: HealthConfig) {
        self.members.set_health(config);
    }

    /// The failure detector's counters, if one is installed.
    pub fn health_stats(&self) -> Option<HealthStats> {
        self.members.health_stats()
    }

    /// Per-shard detector state (suspicion, breaker, last heartbeat), in
    /// shard index order — the payload behind `GET /admin/health` and the
    /// `vsched_suspicion` gauge family. `None` when no detector is
    /// installed.
    pub fn shard_health(&self) -> Option<Vec<ShardHealth>> {
        self.members.health_view()
    }

    /// Queue-wait distribution (cycles from arrival to first execution
    /// start) across all served requests.
    pub fn queue_wait_hist(&self) -> &Histogram {
        &self.hist_queue_wait
    }

    /// Service-time distribution (worker cycles; parked waits excluded).
    pub fn exec_hist(&self) -> &Histogram {
        &self.hist_exec
    }

    /// End-to-end latency distribution (arrival → finish) across all
    /// tenants.
    pub fn e2e_hist(&self) -> &Histogram {
        &self.hist_e2e
    }

    /// One tenant's end-to-end latency distribution.
    pub fn tenant_e2e_hist(&self, id: TenantId) -> &Histogram {
        &self.tenants[id.0].e2e
    }

    /// Reconfigures the cross-shard warm policy at runtime — the
    /// operator knob the SLO pipeline is proven against (slash the
    /// budget, watch the burn-rate alert fire; restore it, watch the
    /// alert clear). Updates the engine's capacity policy and demotes
    /// existing resident warm shells (globally least-recently-parked
    /// first) down to the new budget. Note that per-pool capacity fixed
    /// at construction still caps any single pool: raising the budget
    /// above the construction-time bound widens the policy but not the
    /// pools.
    pub fn set_warm_budget(&mut self, budget: Option<usize>, tenant_quota: Option<usize>) {
        self.config.warm_budget = budget;
        self.config.warm_tenant_quota = tenant_quota;
        self.engine.set_warm_policy(WarmPolicy {
            global_budget: budget,
            tenant_quota,
        });
        if let Some(b) = budget {
            while self.warm_resident() > b {
                self.demote_warm_lru(None);
            }
        }
    }

    /// The shard topology in effect (flat unless configured).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The underlying runtime (clock, kernel, runtime stats).
    pub fn wasp(&self) -> &Wasp {
        &self.wasp
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> Clock {
        self.wasp.clock()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DispatcherConfig {
        &self.config
    }

    /// Registers a virtine spec through the dispatcher.
    pub fn register(&mut self, spec: VirtineSpec) -> Result<VirtineId, WaspError> {
        let mem_size = spec.mem_size;
        let id = self.wasp.register(spec)?;
        self.mem_sizes.insert(id, mem_size);
        Ok(id)
    }

    /// Registers a tenant.
    pub fn add_tenant(&mut self, profile: TenantProfile) -> TenantId {
        self.tenants.push(TenantState::new(profile));
        TenantId(self.tenants.len() - 1)
    }

    /// Pre-populates every shard's pool with `per_shard` clean shells of
    /// `mem_size` bytes (warm-up before a burst, §5.2).
    pub fn prewarm(&mut self, mem_size: usize, per_shard: usize) {
        for shard in &mut self.shards {
            shard
                .pool
                .prewarm(self.wasp.hypervisor(), mem_size, per_shard);
        }
    }

    /// Pre-populates a single shard's pool — skewed warm-ups for
    /// topology experiments (e.g. supply only one socket and watch where
    /// the other's steals land).
    ///
    /// # Panics
    ///
    /// Panics on a shard index out of range.
    pub fn prewarm_shard(&mut self, shard: usize, mem_size: usize, count: usize) {
        self.shards[shard]
            .pool
            .prewarm(self.wasp.hypervisor(), mem_size, count);
    }

    /// Warm shells a tenant has resident across every shard pool (the
    /// quantity [`DispatcherConfig::warm_tenant_quota`] bounds).
    pub fn warm_resident_of(&self, tenant: TenantId) -> usize {
        self.shards
            .iter()
            .map(|s| s.pool.warm_shells_of_tenant(tenant.0 as u64))
            .sum()
    }

    /// Warm shells resident across every shard pool (the quantity
    /// [`DispatcherConfig::warm_budget`] bounds).
    pub fn warm_resident(&self) -> usize {
        self.shards.iter().map(|s| s.pool.warm_shells()).sum()
    }

    /// Demotes the least-recently-parked warm shell across every shard
    /// pool (optionally restricted to one tenant) — the enforcement arm
    /// of the cross-shard warm budget and per-tenant quotas. The wipe is
    /// performed by the owning pool and counted in its
    /// [`wasp::PoolStats::warm_demoted`], like any LRU eviction.
    fn demote_warm_lru(&mut self, tenant: Option<u64>) {
        let oldest = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.pool.oldest_warm_stamp(tenant).map(|stamp| (stamp, i)))
            .min();
        if let Some((_, i)) = oldest {
            self.shards[i].pool.demote_oldest_warm(tenant);
        }
    }

    /// Offers one request. Returns its sequence number when admitted, or
    /// the [`ShedReason`] when refused at admission (in-flight cap or rate
    /// limit). Arrivals must be non-decreasing; earlier timestamps are
    /// clamped forward.
    ///
    /// Submission also advances the dispatcher: any shard batch scheduled
    /// before this arrival runs first, so admission sees up-to-date
    /// in-flight counts and the simulation stays online.
    ///
    /// # Panics
    ///
    /// Panics on a tenant or virtine the dispatcher never issued — both
    /// are programming errors, caught here rather than mid-drain.
    pub fn submit(&mut self, req: Request) -> Result<u64, ShedReason> {
        assert!(
            self.mem_sizes.contains_key(&req.virtine),
            "virtine not registered via Dispatcher::register"
        );
        let arrival = req.arrival.get().max(self.last_arrival);
        self.last_arrival = arrival;
        self.deliver_wakeups(arrival);
        self.advance_with_faults(arrival);

        let clock = self.wasp.clock();
        clock.tick(costs::VSCHED_ADMISSION);

        self.stats.submitted += 1;
        let tenant = self
            .tenants
            .get_mut(req.tenant.0)
            .expect("unknown tenant id");
        tenant.stats.submitted += 1;
        let (retry_policy, hedge_policy) = (tenant.profile.retry, tenant.profile.hedge);
        // The ticket the request travels under once admitted; a refusal
        // at the door leaves the sequence counter where it was.
        let ticket = Ticket {
            tenant: req.tenant,
            virtine: req.virtine,
            seq: self.seq,
            priority: tenant.profile.priority,
            arrival,
        };

        // Cap before bucket: a request refused at the in-flight cap must
        // not burn rate-limit tokens the tenant could use once a slot
        // frees up.
        let refused = if tenant.stats.in_flight >= tenant.profile.max_in_flight as u64 {
            Some(ShedReason::InFlightCap)
        } else if !tenant.bucket.admit(Cycles(arrival)) {
            Some(ShedReason::RateLimited)
        } else {
            None
        };
        if let Some(reason) = refused {
            return self.refuse(&ticket, reason);
        }
        // Placement is a pure read of the shards, so a refused request
        // never builds a candidate list.
        let shard = self.place(req.tenant, req.virtine);
        let tenant = &mut self.tenants[req.tenant.0];
        tenant.stats.admitted += 1;
        tenant.stats.in_flight += 1;
        self.stats.admitted += 1;
        self.seq += 1;

        // Retry/hedge bookkeeping. Connection-bound invocations are
        // excluded — replaying half a conversation on a live socket is
        // not exactly-once — and tenants with neither policy pay nothing
        // here.
        if (retry_policy.is_some() || hedge_policy.is_some()) && req.invocation.conn.is_none() {
            let hedge_at = hedge_policy.map(|policy| {
                self.stats.hedges_armed += 1;
                arrival.saturating_add(hedge_delay(&tenant.e2e, &self.hist_e2e, policy))
            });
            self.open
                .track(ticket, &req.args, &req.invocation, hedge_at);
        }

        self.enqueue_fresh(shard, ticket, req.args, req.invocation, 0);
        let seq = ticket.seq;
        let virtine = req.virtine.into_raw() as u64;
        self.trace
            .begin(seq, req.tenant.0, virtine, Cycles(arrival));
        self.tspan(seq, "admit", || format!("shard={shard}"), arrival, arrival);
        Ok(seq)
    }

    /// Refuses a request at the door.
    fn refuse(&mut self, ticket: &Ticket, reason: ShedReason) -> Result<u64, ShedReason> {
        let end = Terminal::Shed {
            reason,
            evict: None,
        };
        self.settle(ticket, ticket.arrival, end);
        Err(reason)
    }

    /// Queues a fresh copy — a first submission, a released retry, or a
    /// fired hedge — on `shard`, for a batch tick no earlier than
    /// `not_before`.
    fn enqueue_fresh(
        &mut self,
        shard: usize,
        ticket: Ticket,
        args: Vec<u8>,
        invocation: Invocation,
        not_before: u64,
    ) {
        self.wasp.clock().tick(costs::VSCHED_QUEUE_OP);
        let q = Queued {
            front: false,
            ticket,
            work: Work::Fresh { args, invocation },
        };
        self.shards[shard].enqueue_at(q, self.config.tick.get(), not_before);
    }

    /// The one way a request leaves the system. Gives back the in-flight
    /// slot an admitted request held, counts the outcome on the tenant,
    /// dispatcher, and (for a serve) shard stats planes, records the
    /// latency histograms, feeds the SLO engine, closes the trace, and —
    /// for a serve — records the [`Completion`]. `at` is the terminal
    /// instant on the request's timeline.
    ///
    /// Callers own everything that differs by path: which copy of the
    /// request gets here at all (`crate::openreq`), what happens to the
    /// shell, and the spans describing how the request got this far.
    pub(crate) fn settle(&mut self, ticket: &Ticket, at: u64, end: Terminal) {
        let tstats = &mut self.tenants[ticket.tenant.0].stats;
        // Door reasons refuse a request *before* it takes a slot.
        if !matches!(end, Terminal::Shed { reason, .. } if reason.at_door()) {
            tstats.in_flight -= 1;
        }
        match end {
            Terminal::Shed { reason, evict } => {
                *tstats.shed_counter(reason) += 1;
                // An eviction is counted by cause; `stats()` sums the
                // causes into `shed_evicted`.
                debug_assert_eq!(evict.is_some(), reason == ShedReason::Evicted);
                match evict {
                    Some(FailCause::GraceExpired) => self.stats.evicted_grace += 1,
                    Some(FailCause::ShardFailed) => self.stats.evicted_failed += 1,
                    None => *self.stats.shed_counter(reason) += 1,
                }
                if let Some(slo) = &mut self.slo {
                    slo.observe_shed(Cycles(at));
                }
                if !self.trace.enabled() {
                    return;
                }
                if !reason.at_door() {
                    return self.tfinish(ticket.seq, &format!("shed:{}", reason.label()), at);
                }
                // Never queued, never numbered: a one-span trace is the
                // refused request's entire timeline.
                let id = self.next_shed_trace;
                self.next_shed_trace -= 1;
                let virtine = ticket.virtine.into_raw() as u64;
                self.trace
                    .record_shed(id, ticket.tenant.0, virtine, Cycles(at), reason.label());
            }
            Terminal::Served {
                logical,
                shard,
                progress,
                breakdown: b,
                exit,
                result,
            } => {
                let exit_normal = exit.is_normal();
                // A run killed while parked is an abnormal serve — it held
                // its slot to the end — but it served nothing from its
                // shell, warm or stolen.
                let killed = exit == ExitKind::Blocked;
                tstats.served += 1;
                if !exit_normal {
                    tstats.abnormal += 1;
                }
                if progress.stolen && !killed {
                    tstats.stolen_serves += 1;
                }
                if b.warm_hit && !killed {
                    // Counted from the outcome, not the acquire: a stale
                    // warm shell (snapshot invalidated while parked) is
                    // wiped by the runtime and serves a full restore,
                    // which is not a hit.
                    tstats.warm_serves += 1;
                    self.shards[shard].stats.warm_hits += 1;
                }
                self.stats.blocked_cycles += b.blocked.get();
                self.shards[shard].stats.served += 1;
                let e2e = at - ticket.arrival;
                self.hist_queue_wait
                    .record(progress.first_start - ticket.arrival);
                self.hist_exec.record(progress.service_so_far);
                self.hist_e2e.record(e2e);
                self.tenants[ticket.tenant.0].e2e.record(e2e);
                if let Some(slo) = &mut self.slo {
                    slo.observe_served(Cycles(at), Cycles(e2e));
                }
                let how = match (killed, exit_normal) {
                    (true, _) => "timeout",
                    (false, true) => "completed",
                    (false, false) => "abnormal",
                };
                self.tfinish(ticket.seq, how, at);
                self.completions.push(Completion {
                    tenant: ticket.tenant,
                    virtine: ticket.virtine,
                    seq: logical,
                    shard,
                    arrival: Cycles(ticket.arrival).as_secs(),
                    start: Cycles(progress.first_start).as_secs(),
                    finish: Cycles(at).as_secs(),
                    service: Cycles(progress.service_so_far).as_secs(),
                    reused_shell: b.reused_shell,
                    stolen_shell: progress.stolen,
                    warm_hit: b.warm_hit,
                    exit_normal,
                    resumes: b.resumes,
                    migrated: progress.migrated,
                    exec_cycles: b.total.get(),
                    result,
                });
            }
        }
    }

    /// Records one trace span when tracing is on. `detail` is only called
    /// then, so the disabled path never formats a detail string.
    pub(crate) fn tspan(
        &mut self,
        id: u64,
        label: &'static str,
        detail: impl FnOnce() -> String,
        start: u64,
        end: u64,
    ) {
        if self.trace.enabled() {
            self.trace
                .span(id, label, detail(), Cycles(start), Cycles(end));
        }
    }

    /// Closes a request's trace with its terminal outcome.
    pub(crate) fn tfinish(&mut self, id: u64, outcome: &str, at: u64) {
        if self.trace.enabled() {
            self.trace.finish(id, outcome, Cycles(at));
        }
    }

    /// Runs every queued request to completion. Blocked runs whose sockets
    /// never become readable stay parked (forever, absent a tenant
    /// `max_block`): this is not a wait-for-the-world barrier. (Formerly
    /// `drain`; renamed so "drain" unambiguously means shard lifecycle
    /// draining — [`Dispatcher::drain_shard`].)
    pub fn run_to_idle(&mut self) {
        self.deliver_wakeups(self.last_arrival);
        self.advance_with_faults(u64::MAX);
    }

    /// Advances the dispatcher to virtual second `t_s`: delivers pending
    /// socket wake-ups (bytes sent by the driver since the last call are
    /// treated as arriving now) and runs every shard batch and block
    /// timeout scheduled before it. The trickled-delivery driver in
    /// `vhttp::dispatch` interleaves this with chunk sends.
    ///
    /// # Panics
    ///
    /// Panics on a NaN, infinite or negative `t_s`
    /// ([`Cycles::from_secs`]).
    pub fn run_until(&mut self, t_s: f64) {
        self.run_to(Cycles::from_secs(t_s));
    }

    /// [`Dispatcher::run_until`] at a virtual instant.
    pub(crate) fn run_to(&mut self, t: Cycles) {
        let t = t.get().max(self.last_arrival);
        self.last_arrival = t;
        self.deliver_wakeups(t);
        self.advance_with_faults(t);
    }

    /// Blocked runs currently parked across all shards.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Completions so far, in execution order — those no caller has taken
    /// yet. Every serve records exactly one, so `stats().served` minus
    /// this slice's length is how many [`Dispatcher::take_completions`]
    /// has already handed out (`vhttp`'s server keeps its place in the
    /// stream by that).
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Removes and returns the accumulated completions.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Aggregate statistics. The node-wide counters that are sums of
    /// per-shard ones are summed here, not kept twice: `served`,
    /// `batches`, `warm_hits`, `blocked`, `resumed`, `blocked_timeout`,
    /// `busy_wait_cycles`, `migrations` (Σ `migrated_in`), `stolen`
    /// (Σ `stolen_in`); `shed_evicted` is the sum of its two causes.
    pub fn stats(&self) -> DispatcherStats {
        let mut s = self.stats;
        for shard in &self.shards {
            let t = &shard.stats;
            s.served += t.served;
            s.batches += t.batches;
            s.warm_hits += t.warm_hits;
            s.blocked += t.blocked;
            s.resumed += t.resumed;
            s.blocked_timeout += t.blocked_timeout;
            s.busy_wait_cycles += t.busy_wait_cycles;
            s.migrations += t.migrated_in;
            s.stolen += t.stolen_in;
        }
        s.shed_evicted = s.evicted_grace + s.evicted_failed;
        s
    }

    /// One tenant's statistics.
    pub fn tenant_stats(&self, id: TenantId) -> TenantStats {
        self.tenants[id.0].stats
    }

    /// Handles of every registered tenant, in registration order (stats
    /// surfaces iterate these).
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        (0..self.tenants.len()).map(TenantId).collect()
    }

    /// One tenant's diagnostic name (stats surfaces label by it).
    pub fn tenant_name(&self, id: TenantId) -> &str {
        &self.tenants[id.0].profile.name
    }

    /// Read-only per-shard views (queue depth, idle shells, counters).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        let mut parked = vec![0; self.shards.len()];
        for p in self.parked.values() {
            parked[p.shard] += 1;
        }
        let views = self.shards.iter().zip(parked).zip(self.members.states());
        views
            .map(|((s, parked), &state)| s.snapshot(parked, state))
            .collect()
    }

    /// The whole dispatcher's load, summed over its shards without
    /// allocating — what [`crate::Cluster`] reads per routing decision
    /// and per drain check.
    pub fn load(&self) -> DispatcherLoad {
        let shards = self.shards.iter();
        DispatcherLoad {
            queue_depth: shards.clone().map(|s| s.queue.len()).sum(),
            idle_shells: shards.clone().map(|s| s.pool.idle_shells()).sum(),
            warm_shells: shards.clone().map(|s| s.pool.warm_shells()).sum(),
            free_at: shards.map(|s| s.free_at).min().unwrap_or(0),
            parked: self.parked.len(),
        }
    }

    /// Shell-pool statistics summed across shards. Shard-local reuse
    /// shows up in `reused`; cross-shard steals are counted in
    /// [`DispatcherStats::stolen`] (and per shard in
    /// [`crate::ShardStats`]), not in any single pool's numbers.
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            total += s.pool.stats();
        }
        total
    }

    /// Builds the engine's view of every shard for one decision.
    /// `anchor` is the shard distances are measured from (`None` at
    /// admit, which has no anchor: every hop reads as local); `key`
    /// fills the warm column with the per-key placement probe, while
    /// `mem_size` fills the steal-supply columns (idle shells, and —
    /// when no key is given — victim-eligible warm shells); `clamp`
    /// floors worker timelines at the decision instant.
    pub(crate) fn candidates(
        &self,
        anchor: Option<usize>,
        key: Option<(u64, usize)>,
        mem_size: Option<usize>,
        clamp: u64,
    ) -> Vec<Candidate> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let hop = anchor.map_or(Hop::Local, |a| self.topology.hop(a, i));
                Candidate {
                    shard: i,
                    queue_depth: s.queue.len(),
                    free_at: s.free_at.max(clamp),
                    idle_shells: mem_size.map_or(0, |m| s.pool.idle_shells_of(m)),
                    warm_shells: match (key, mem_size) {
                        (Some((t, v)), _) => usize::from(s.pool.has_warm(t, v)),
                        (None, Some(m)) => s.pool.warm_shells_of(m),
                        (None, None) => 0,
                    },
                    hop,
                    transfer_cost: hop.transfer_cost(),
                    eligible: self.members.state(i).is_active(),
                }
            })
            .collect()
    }

    /// Decision point 1 (admit): asks the engine which shard a fresh
    /// request queues on. The per-pool warm probe is only paid when the
    /// engine's policy actually reads it (snapshot-aware placement).
    fn place(&self, tenant: TenantId, virtine: VirtineId) -> usize {
        let key = self
            .engine
            .admit_reads_warm()
            .then_some((tenant.0 as u64, virtine.into_raw()));
        let c = self.candidates(None, key, None, 0);
        self.engine.admit(tenant.0, &c)
    }

    /// Records a completed steal transfer: charges the per-hop cost and
    /// bumps the distance-classed steal counters on every stats plane.
    fn account_steal(&mut self, donor: usize, thief: usize) {
        let hop = self.topology.hop(donor, thief);
        self.wasp.clock().tick(hop.transfer_cost());
        self.shards[thief].stats.stolen_in += 1;
        self.shards[donor].stats.stolen_out += 1;
        match hop {
            Hop::Local => unreachable!("a steal always crosses shards"),
            Hop::SameCcx => self.stats.stolen_same_ccx += 1,
            Hop::SameSocket => self.stats.stolen_cross_ccx += 1,
            Hop::CrossSocket => self.stats.stolen_cross_socket += 1,
            Hop::CrossNode => unreachable!("intra-node topology never yields a node hop"),
        }
    }

    /// Runs shard batches, block timeouts, retry releases, and hedge
    /// fires scheduled strictly before `limit`, earliest event first.
    /// Shards whose worker is spin-polling a blocked socket
    /// (`BlockMode::SpinPoll`) run no batches until the wake; their
    /// queued work backs up — that occupancy is exactly what
    /// event-driven dispatch removes. *Hung* shards run nothing at all:
    /// neither batches nor parked-run timeouts fire while the worker is
    /// wedged, so their queues back up silently until the health
    /// detector declares the failure.
    ///
    /// Simultaneous events resolve by a fixed rank — timeout, then retry
    /// release, then hedge fire, then batch — preserving the historical
    /// timeout-beats-batch tie and letting released work join a batch
    /// starting at the same instant.
    pub(crate) fn advance_to(&mut self, limit: u64) {
        loop {
            let next_batch = self
                .shards
                .iter()
                .enumerate()
                .filter(|&(i, s)| {
                    !s.queue.is_empty() && s.spinning == 0 && !self.members.is_hung(i)
                })
                .map(|(i, s)| (s.next_wake, i))
                .min()
                .filter(|&(wake, _)| wake < limit);
            // The earliest `max_block` expiry or lifecycle eviction among
            // the parked runs; ties go to the lower shard, then token.
            let next_timeout = self
                .parked
                .iter()
                .filter(|(_, p)| !self.members.is_hung(p.shard))
                .map(|(&token, p)| (p.timeout_at.min(p.evict_at), p.shard, token))
                .min()
                .filter(|&(at, _, _)| at < limit);
            let next_timer = self.open.next_timer().filter(|&(at, _)| at < limit);
            let candidates = [
                next_timeout.map(|(at, _, _)| (at, 0u8)),
                next_timer.map(|(at, timer)| (at, 1 + timer as u8)),
                next_batch.map(|(wake, _)| (wake, 3u8)),
            ];
            let Some(&(_, rank)) = candidates.iter().flatten().min() else {
                break;
            };
            match rank {
                0 => {
                    let (at, _, token) = next_timeout.expect("rank 0 came from next_timeout");
                    let p = self.unpark(token);
                    self.expire_parked(p, at);
                }
                3 => {
                    let (_, idx) = next_batch.expect("rank 3 came from next_batch");
                    self.run_batch_and_deliver(idx);
                }
                _ => {
                    let (_, timer) = next_timer.expect("ranks 1 and 2 came from next_timer");
                    self.fire_timer(timer);
                }
            }
        }
    }

    /// Executes one batch tick on shard `idx`, then delivers any socket
    /// wake-ups the batch itself produced (a virtine `send`ing to a socket
    /// another virtine is parked on), stamped at the worker's finish
    /// position — so guest-to-guest wakes resume within the same
    /// `drain`/`run_until` instead of waiting for the next external call.
    fn run_batch_and_deliver(&mut self, idx: usize) {
        self.run_batch(idx);
        self.deliver_wakeups(self.shards[idx].free_at);
    }

    /// Executes one batch tick on shard `idx`.
    fn run_batch(&mut self, idx: usize) {
        let tick = self.config.tick.get();
        let t_batch = self.shards[idx].next_wake;
        let mut free = self.shards[idx].free_at.max(t_batch);
        self.shards[idx].stats.batches += 1;
        // A batch tick is the worker's proof of life: the detector's
        // suspicion for this shard resets here, and *only* here — a hung
        // worker runs no batches, so its silence accrues.
        self.members.heartbeat(idx, t_batch);
        let clock = self.wasp.clock();

        for _ in 0..self.config.batch_size {
            let Some(q) = self.shards[idx].queue.pop() else {
                break;
            };
            clock.tick(costs::VSCHED_QUEUE_OP);
            let ticket = q.ticket;
            if self.open.is_moot(ticket.seq) {
                // A hedge-race loser whose sibling copy already reached
                // the terminal outcome: it never executes. It is a fresh
                // copy — a parked run is never tracked — so no shell is
                // held.
                self.copy_lost(ticket.seq, free, false);
                continue;
            }
            free = self.execute(idx, q, free);
            if self.shards[idx].spinning > 0 {
                // Spin-poll baseline: the worker just pinned itself on a
                // blocked socket; the rest of the batch waits behind it.
                break;
            }
        }

        let shard = &mut self.shards[idx];
        shard.free_at = free;
        shard.next_wake = if shard.queue.is_empty() {
            u64::MAX
        } else {
            align_up(free.max(t_batch + tick), tick)
        };
    }

    /// Runs one request on shard `idx`, starting no earlier than `free`;
    /// returns the shard worker's new timeline position. A request that
    /// blocks in `recv` parks instead of completing; a woken parked run
    /// resumes at the suspended hypercall instead of acquiring a shell.
    fn execute(&mut self, idx: usize, q: Queued, free: u64) -> u64 {
        let (args, invocation) = match q.work {
            Work::Resume(parked) => return self.execute_resume(idx, parked, free),
            Work::Fresh { args, invocation } => (args, invocation),
        };
        let ticket = q.ticket;
        let mem_size = *self
            .mem_sizes
            .get(&ticket.virtine)
            .expect("virtine registered via Dispatcher::register");
        let clock = self.wasp.clock();
        // Service spans acquire → run → release: a pool miss's
        // `KVM_CREATE_VM` occupies the shard worker like any other cost.
        let t0 = clock.now();

        // Acquire, cheapest sound mechanism first — steps 3 and 5 pick
        // their donor through the placement engine (near siblings first,
        // per-hop transfer cost):
        //   1. shard-local warm shell for this exact (tenant, virtine) —
        //      delta re-arm;
        //   2. shard-local clean shell;
        //   3. steal a *clean* shell from a sibling (stealing prefers
        //      clean shells: a sibling's warm shell is its fast path, so
        //      demoting one is the last resort before KVM_CREATE_VM);
        //   4. demote a local warm shell of another key (full wipe; the
        //      victim tenant is the requester itself when possible,
        //      otherwise the biggest warm hoard);
        //   5. demote-and-steal a sibling's warm shell (full wipe, same
        //      victim-tenant rule);
        //   6. KVM_CREATE_VM.
        let key = (ticket.tenant.0 as u64, ticket.virtine.into_raw());
        let mut stolen = false;
        let shell = if let Some(w) =
            self.shards[idx]
                .pool
                .acquire_warm(self.wasp.hypervisor(), key.0, key.1, mem_size)
        {
            Shell::Warm(w)
        } else if self.shards[idx].pool.idle_shells_of(mem_size) > 0 {
            // Guaranteed hit: `acquire` pops the parked shell, counts the
            // reuse in this shard's own stats, and charges bookkeeping.
            self.shards[idx]
                .pool
                .acquire(self.wasp.hypervisor(), mem_size)
        } else if let Some((donor, c)) = self.steal_from_sibling(idx, mem_size) {
            self.account_steal(donor, idx);
            stolen = true;
            Shell::Clean(c)
        } else if let Some(c) = self.shards[idx]
            .pool
            .warm_victim_tenant(mem_size, key.0)
            .and_then(|victim| self.shards[idx].pool.take_warm_victim_of(victim, mem_size))
        {
            self.stats.warm_demotions += 1;
            Shell::Clean(c)
        } else if let Some((donor, c)) = self.steal_warm_victim(idx, key.0, mem_size) {
            self.account_steal(donor, idx);
            self.stats.warm_demotions += 1;
            stolen = true;
            Shell::Clean(c)
        } else {
            // A miss everywhere: `acquire` creates (`KVM_CREATE_VM`).
            self.shards[idx]
                .pool
                .acquire(self.wasp.hypervisor(), mem_size)
        };
        let acquire = (clock.now() - t0).get();
        let src = match &shell {
            Shell::Warm(_) => "warm",
            Shell::Clean(_) if stolen => "stolen_clean",
            Shell::Clean(_) => "clean",
            Shell::Created(_) => "cold_create",
        };

        let run = ShellRun {
            shell,
            id: ticket.virtine,
            args: &args,
            invocation,
            narrow: self.tenants[ticket.tenant.0].profile.mask,
            resumable: true,
        };
        let run = self
            .wasp
            .run_on_shell(run)
            .expect("dispatch invariants uphold spec and shell size");
        let segment = (clock.now() - t0).get();
        let seq = ticket.seq;
        self.tspan(seq, "queue_wait", String::new, ticket.arrival, free);
        let shell = || src.to_string();
        self.tspan(seq, "shell_acquire", shell, free, free + acquire);
        self.tspan(seq, "exec", String::new, free + acquire, free + segment);
        let progress = Progress {
            first_start: free,
            service_so_far: segment,
            stolen,
            migrated: false,
        };
        self.segment_ended(idx, ticket, progress, run, free + segment)
    }

    /// Resumes a woken parked run on its shard; returns the new worker
    /// timeline position. The run either completes or blocks again (its
    /// next `recv` found the socket empty) and re-parks.
    fn execute_resume(&mut self, idx: usize, p: Box<Parked>, free: u64) -> u64 {
        let clock = self.wasp.clock();
        let t0 = clock.now();
        let run = self
            .wasp
            .resume_on_shell(p.run)
            .expect("suspended runs carry a registered virtine");
        let segment = (clock.now() - t0).get();
        let detail = || "resumed".to_string();
        self.tspan(p.ticket.seq, "exec", detail, free, free + segment);
        let progress = Progress {
            service_so_far: p.progress.service_so_far + segment,
            ..p.progress
        };
        self.segment_ended(idx, p.ticket, progress, run, free + segment)
    }

    /// Routes a run whose execution segment ended at worker position `at`:
    /// to its completion, or back to the parked set when it blocked
    /// again.
    fn segment_ended(
        &mut self,
        idx: usize,
        ticket: Ticket,
        progress: Progress,
        run: RunResult,
        at: u64,
    ) -> u64 {
        match run {
            RunResult::Done(outcome, used) => {
                self.complete(idx, &ticket, progress, outcome, used, at)
            }
            RunResult::Blocked(s) => self.park_suspended(idx, s, ticket, progress, at),
        }
    }

    /// Reports one queued copy of a request gone without finishing —
    /// destroyed with its shard, or a hedge-race loser surfacing — to the
    /// exactly-once table (`retry` when a shard failure took it), and does
    /// the bookkeeping every such site owes: the span of the retry the
    /// table may have scheduled, and the end of the copy's own trace when
    /// no shed will close it — a suppressed copy's always, a retried hedge
    /// duplicate's too (the retry continues under the logical trace).
    /// Only on [`CopyLoss::Terminal`] does the caller's shed proceed.
    pub(crate) fn copy_lost(&mut self, seq: u64, at: u64, retry: bool) -> CopyLoss {
        let loss = self
            .open
            .lose_copy(seq, at, retry, &mut self.tenants, &mut self.stats);
        if let CopyLoss::Retried(r) = loss {
            let detail = || format!("attempt={} cause=shard_failed_queued", r.attempt);
            self.tspan(r.logical, "retry", detail, at, r.release_at);
        }
        match loss {
            CopyLoss::Suppressed => self.tfinish(seq, "hedge:canceled", at),
            // Only a hedge duplicate's number differs from its request's.
            CopyLoss::Retried(r) if r.logical != seq => self.tfinish(seq, "hedge:canceled", at),
            _ => {}
        }
        loss
    }

    /// Completion epilogue for a run — fresh or resumed — whose last
    /// segment ended at worker position `finish`: releases the shell (warm
    /// when permitted) and settles the request as served. Returns the
    /// worker's new timeline position.
    fn complete(
        &mut self,
        idx: usize,
        ticket: &Ticket,
        progress: Progress,
        outcome: RunOutcome,
        used: UsedShell,
        finish: u64,
    ) -> u64 {
        let key = (ticket.tenant.0 as u64, ticket.virtine.into_raw());
        let CopyFinish::Won { logical } = self.open.finish_copy(ticket.seq, &mut self.stats) else {
            // This copy lost the hedge race: the logical request was
            // already served (or shed) by a sibling copy. Wipe the
            // shell back into the pool and suppress every stat — one
            // logical request, one terminal outcome.
            self.shards[idx].pool.release(used);
            self.tfinish(ticket.seq, "hedge:canceled", finish);
            return finish;
        };
        // Release: park warm (state still derives from the spec's current
        // snapshot, dirty log intact) or wipe clean. Warm parks go
        // through the engine's capacity verdict — decision point
        // "warm_release": cross-shard budget and per-tenant quota first,
        // the per-pool LRU bound as the remaining backstop. A shell
        // without the warm token takes the wiped release; the cross-shard
        // accounting walk only runs when the engine's capacity policy will
        // actually read the counts — the default (no budget, no quota)
        // parks unconditionally and leaves sizing to the per-pool LRU bound.
        let verdict = if !used.warm_parkable() {
            WarmVerdict::Demote
        } else if self.engine.warm_policy_active() {
            let tenant_resident: usize = self
                .shards
                .iter()
                .map(|s| s.pool.warm_shells_of_tenant(key.0))
                .sum();
            let global_resident: usize = self.shards.iter().map(|s| s.pool.warm_shells()).sum();
            self.engine.warm_release(tenant_resident, global_resident)
        } else {
            WarmVerdict::Park {
                evict_tenant_lru: false,
                evict_global_lru: false,
            }
        };
        match verdict {
            WarmVerdict::Demote => self.shards[idx].pool.release(used),
            WarmVerdict::Park {
                evict_tenant_lru,
                evict_global_lru,
            } => {
                if evict_tenant_lru {
                    self.demote_warm_lru(Some(key.0));
                }
                if evict_global_lru {
                    self.demote_warm_lru(None);
                }
                let stamp = self.warm_stamp;
                self.warm_stamp += 1;
                self.shards[idx]
                    .pool
                    .release_warm_stamped(used, key.0, key.1, stamp);
            }
        }

        let detail = || match outcome.breakdown.warm_hit {
            true => format!("warm_delta={}", outcome.breakdown.delta_pages),
            false => String::new(),
        };
        self.tspan(ticket.seq, "complete", detail, finish, finish);
        let end = Terminal::Served {
            logical,
            shard: idx,
            progress,
            breakdown: outcome.breakdown,
            exit: outcome.exit,
            result: outcome.invocation.result,
        };
        self.settle(ticket, finish, end);
        finish
    }

    /// Fires the table's earliest `timer` — a retry's backoff release or
    /// an armed hedge — and, when the request still wants the copy,
    /// places it through ordinary admission placement and queues it.
    fn fire_timer(&mut self, timer: Timer) {
        let fired = self
            .open
            .fire(timer, &mut self.seq, &mut self.tenants, &mut self.stats);
        let Some((at, respawn)) = fired else {
            return;
        };
        let (logical, ticket) = (respawn.logical, respawn.ticket);
        let shard = self.place(ticket.tenant, ticket.virtine);
        self.enqueue_fresh(shard, ticket, respawn.args, respawn.invocation, at);
        let copy = ticket.seq;
        if copy == logical {
            let detail = || format!("resubmit shard={shard}");
            self.tspan(logical, "retry", detail, at, at);
        } else {
            let virtine = ticket.virtine.into_raw() as u64;
            self.trace.begin(copy, ticket.tenant.0, virtine, Cycles(at));
            let origin = || format!("of={logical} shard={shard}");
            self.tspan(copy, "hedge", origin, at, at);
            let detail = || format!("copy={copy} shard={shard}");
            self.tspan(logical, "hedge", detail, at, at);
        }
    }

    /// Decision point 2 (acquire → clean steal): asks the engine for the
    /// donor — the nearest sibling with idle shells of the right size,
    /// richest within a hop class. Shells were wiped on release (§5.2),
    /// so the thief runs them directly — tenant data cannot cross shards.
    fn steal_from_sibling(&mut self, idx: usize, mem_size: usize) -> Option<(usize, CleanShell)> {
        let c = self.candidates(Some(idx), None, Some(mem_size), 0);
        let donor = self.engine.steal_clean(&c)?;
        let shell = self.shards[donor].pool.take_idle(mem_size)?;
        Some((donor, shell))
    }

    /// Decision point 3 (acquire → warm demote-steal): asks the engine
    /// for the donor shard (nearest first), then picks the victim
    /// *tenant* fairly — the thief's own warm shell when it has one
    /// parked there, otherwise the tenant holding the most (so one
    /// tenant's pressure thins the biggest hoard and can never wipe out a
    /// minority tenant's entire warm set). The last resort before
    /// `KVM_CREATE_VM`; the donor's pool performs the full (charged) wipe
    /// before the shell crosses shards, so no tenant data travels with it.
    fn steal_warm_victim(
        &mut self,
        idx: usize,
        thief_tenant: u64,
        mem_size: usize,
    ) -> Option<(usize, CleanShell)> {
        let c = self.candidates(Some(idx), None, Some(mem_size), 0);
        let donor = self.engine.steal_warm(&c)?;
        let victim = self.shards[donor]
            .pool
            .warm_victim_tenant(mem_size, thief_tenant)?;
        let shell = self.shards[donor]
            .pool
            .take_warm_victim_of(victim, mem_size)?;
        Some((donor, shell))
    }
}
