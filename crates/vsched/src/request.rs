//! What the dispatcher is configured with, offered, and reports: its
//! configuration, the [`Request`] it admits, the [`Completion`] it
//! records, the aggregate [`DispatcherStats`], and the terminal outcome
//! `Dispatcher::settle` is handed. Plain data; the behaviour lives in
//! [`crate::dispatcher`] and its `parking` / [`crate::lifecycle`] halves.

use vclock::Cycles;
use wasp::{Breakdown, ExitKind, Invocation, PoolMode, VirtineId};

use crate::shard::Progress;
use crate::tenant::{ShedReason, TenantId};
use crate::topology::Topology;

/// What a shard worker does when its virtine blocks in `recv` with no data
/// queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockMode {
    /// Event-driven dispatch: the run suspends (`wasp::SuspendedRun`),
    /// parks in the dispatcher's parked map — never seen by batch ticks,
    /// shell unstealable and undemotable because it rides inside the
    /// suspension — and gives the worker back. A wake re-queues it at the
    /// *front* of a run queue.
    #[default]
    EventDriven,
    /// The pre-suspension baseline: the worker spin-polls the socket until
    /// data arrives. The whole wait lands on the worker timeline (and in
    /// `busy_wait_cycles`), so one slow client occupies a shard. Kept as
    /// the comparison point the `blocked_io` bench and two unit tests
    /// measure [`BlockMode::EventDriven`] against — not a serving mode.
    SpinPoll,
}

/// Where an admitted request is queued. These are *configurations* of
/// the [`crate::CostEngine`] (match arms live there, not in the dispatcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Least-loaded shard (queue depth, then worker timeline, then index):
    /// spreads independent requests for throughput.
    #[default]
    LeastLoaded,
    /// `tenant index mod shards`: pins each tenant to one home shard, so a
    /// tenant's requests share warm state and its queue pressure stays
    /// local.
    ByTenant,
    /// Snapshot-aware: route to the shard whose pool already parks a warm
    /// shell for this request's `(tenant, virtine)` — turning placement
    /// into a cache-hit decision, since the warm shard serves the request
    /// with a dirty-page delta re-arm instead of a full sparse restore.
    /// Falls back to least-loaded when no shard is warm for the key, or
    /// when the warm shard's queue has fallen `batch_size` behind the
    /// least-loaded one (a warm hit saves microseconds; it must not buy
    /// them with milliseconds of queueing skew).
    SnapshotAware,
}

/// Dispatcher configuration.
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Number of shards (per-worker pools + queues). Throughput scales
    /// with shards until the offered load is covered.
    pub shards: usize,
    /// Maximum requests a shard executes per batch tick.
    pub batch_size: usize,
    /// Batch tick period in virtual time. Requests admitted mid-tick wait
    /// for the boundary; larger ticks trade latency for batching.
    pub tick: Cycles,
    /// Shell-pool mode for every shard (§5.2; `CachedAsync` is the
    /// paper's best configuration).
    pub pool_mode: PoolMode,
    /// Queue-placement policy.
    pub placement: Placement,
    /// Bound on warm shells resident per shard pool; zero disables warm
    /// caching (the pre-warm-cache dispatcher behavior).
    pub warm_capacity: usize,
    /// Blocked-I/O policy: suspend and give the worker back (default) or
    /// spin-poll the socket on the worker.
    pub block: BlockMode,
    /// The socket/CCX grouping of the shards; `None` puts every shard in
    /// one CCX ([`Topology::flat`]), which reproduces the pre-topology
    /// dispatcher exactly (every cross-shard hop costs the historical
    /// flat transfer). A grouped topology makes steals and resume-time
    /// migrations prefer near siblings and pay per-hop transfer costs.
    pub topology: Option<Topology>,
    /// Global cross-shard bound on resident warm shells. `None` leaves
    /// warm sizing to the fixed per-pool LRU bound (`warm_capacity`);
    /// `Some(b)` lets any one shard hold up to the whole budget (pools
    /// are opened to `b`) while the engine keeps the cross-shard total at
    /// `b` by demoting the globally least-recently-parked shell.
    pub warm_budget: Option<usize>,
    /// Cross-shard bound on warm shells per *tenant*: at quota, a
    /// tenant's next warm park demotes its own least-recently-parked
    /// shell — a churning tenant evicts itself, never a neighbor.
    pub warm_tenant_quota: Option<usize>,
    /// Grace period for parked runs stranded on a *draining*
    /// shard (no eligible sibling to migrate to, or a spin-poll wait
    /// that pins its worker): past it the run is hard-stopped and shed
    /// with [`ShedReason::Evicted`]. Measured from the later of the
    /// drain start and the park.
    pub drain_grace: Cycles,
}

impl Default for DispatcherConfig {
    fn default() -> DispatcherConfig {
        DispatcherConfig {
            shards: 4,
            batch_size: 8,
            tick: Cycles::from_micros(50.0),
            pool_mode: PoolMode::CachedAsync,
            placement: Placement::LeastLoaded,
            warm_capacity: wasp::DEFAULT_WARM_CAPACITY,
            block: BlockMode::EventDriven,
            topology: None,
            warm_budget: None,
            warm_tenant_quota: None,
            drain_grace: Cycles::from_micros(500.0),
        }
    }
}

/// One request offered to the dispatcher.
#[derive(Debug)]
pub struct Request {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Registered virtine to run.
    pub virtine: VirtineId,
    /// Marshalled arguments (written at guest address 0, §6.1).
    pub args: Vec<u8>,
    /// Invocation state (payload, bound connection, ...).
    pub invocation: Invocation,
    /// Arrival instant; must be non-decreasing across `submit` calls.
    pub arrival: Cycles,
}

impl Request {
    /// A plain request arriving at virtual second `arrival_s`: no
    /// arguments, no payload.
    ///
    /// # Panics
    ///
    /// Panics on a NaN, infinite or negative arrival
    /// ([`Cycles::from_secs`]).
    pub fn new(tenant: TenantId, virtine: VirtineId, arrival_s: f64) -> Request {
        Request {
            tenant,
            virtine,
            args: Vec::new(),
            invocation: Invocation::default(),
            arrival: Cycles::from_secs(arrival_s),
        }
    }

    /// Attaches an invocation (builder style).
    pub fn with_invocation(mut self, invocation: Invocation) -> Request {
        self.invocation = invocation;
        self
    }

    /// Attaches marshalled arguments (builder style).
    pub fn with_args(mut self, args: Vec<u8>) -> Request {
        self.args = args;
        self
    }
}

/// One executed request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Virtine that ran.
    pub virtine: VirtineId,
    /// The *logical* request's sequence number (the value `submit`
    /// returned). Exactly one completion carries each admitted sequence
    /// number, whatever path served it — a retry re-submission or the
    /// winner of a hedge race reports the original's number, and losing
    /// hedge copies are suppressed — so a duplicate here means the
    /// exactly-once machinery double-ran a request.
    pub seq: u64,
    /// Shard that executed the request.
    pub shard: usize,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Execution start on the shard's worker timeline.
    pub start: f64,
    /// Completion time.
    pub finish: f64,
    /// Pure service time (start → finish).
    pub service: f64,
    /// Whether the shell came from a pool (clean, warm, or stolen) rather
    /// than a fresh `KVM_CREATE_VM`.
    pub reused_shell: bool,
    /// Whether the shell was stolen from a sibling shard.
    pub stolen_shell: bool,
    /// Whether the request was served by a warm shell re-armed with its
    /// dirty-page delta (the snapshot-aware fast path).
    pub warm_hit: bool,
    /// Whether the virtine ended by normal means (`hlt`/`exit`).
    pub exit_normal: bool,
    /// Times the request blocked in a wait (`recv` or `read(0)` on its
    /// connection) and was resumed before completing (zero for a request that never
    /// waited).
    pub resumes: u32,
    /// Whether any resume migrated the run off the shard it blocked on
    /// (the completion's `shard` is then the landing shard).
    pub migrated: bool,
    /// Guest cycles the run charged (`Breakdown::total`: image + exec,
    /// parked time excluded) — the figure the byte-identical-cycles
    /// acceptance compares across parked/unparked and migrated/pinned
    /// executions of the same virtine.
    pub exec_cycles: u64,
    /// Result bytes the virtine returned (`return_data`).
    pub result: Vec<u8>,
}

impl Completion {
    /// End-to-end latency: queueing plus service.
    pub fn latency(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Aggregate dispatcher statistics, surfaced like `wasp::PoolStats`.
/// `Dispatcher::stats` sums the counters that are also kept per shard
/// (`served`, `batches`, `warm_hits`, `blocked`, `resumed`,
/// `blocked_timeout`, `busy_wait_cycles`, `migrations`, `stolen`) from the
/// shards' [`crate::ShardStats`], and `shed_evicted` from its two causes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatcherStats {
    /// Requests offered across all tenants.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests executed.
    pub served: u64,
    /// Requests shed at the token bucket.
    pub shed_rate_limit: u64,
    /// Requests shed at the in-flight cap.
    pub shed_in_flight: u64,
    /// Admitted runs hard-stopped by shard lifecycle
    /// ([`ShedReason::Evicted`]): the sum of the two cause counters
    /// below, kept separately so `shed()` stays a sum of disjoint
    /// reasons.
    pub shed_evicted: u64,
    /// Evictions caused by a drain grace expiry
    /// ([`DispatcherConfig::drain_grace`]).
    pub evicted_grace: u64,
    /// Evictions caused by shard failure (fault injection or operator
    /// [`crate::Dispatcher::fail_shard`]).
    pub evicted_failed: u64,
    /// Shells stolen between shards.
    pub stolen: u64,
    /// Steals whose donor shared the thief's CCX (one L3 away — the hop
    /// a topology-aware policy resolves first).
    pub stolen_same_ccx: u64,
    /// Steals whose donor sat on the thief's socket but a different CCX.
    pub stolen_cross_ccx: u64,
    /// Steals that crossed the socket interconnect — the last resort
    /// before `KVM_CREATE_VM`.
    pub stolen_cross_socket: u64,
    /// Batch ticks executed.
    pub batches: u64,
    /// Runs suspended at a blocking `recv` (block events; one request can
    /// block several times).
    pub blocked: u64,
    /// Parked runs re-queued by a socket wake.
    pub resumed: u64,
    /// Parked runs killed at their tenant's `max_block` bound.
    pub blocked_timeout: u64,
    /// Woken parked runs re-admitted on a different shard than the one
    /// they blocked on (resume-time migration).
    pub migrations: u64,
    /// Worker cycles burned waiting on blocked I/O. Event-driven dispatch
    /// keeps this at zero; the spin-poll baseline charges every parked
    /// wait here.
    pub busy_wait_cycles: u64,
    /// Requests served by a warm-shell delta re-arm.
    pub warm_hits: u64,
    /// Warm shells demoted (wiped to clean) on the acquire path — locally
    /// for a different key, or stolen from a sibling. Pool-internal LRU
    /// evictions are counted in [`wasp::PoolStats::warm_demoted`] instead.
    pub warm_demotions: u64,
    /// Virtual cycles served requests spent parked in waits
    /// (`Breakdown::blocked`, summed over completions and kills). The
    /// event-driven counterpart of `busy_wait_cycles`: time the request
    /// waited while the worker was *free* — exported as
    /// `vsched_blocked_cycles_total`.
    pub blocked_cycles: u64,
    /// Retries scheduled for requests that lost their *queued* copy to a
    /// shard failure (exported as `vsched_retries_total{cause=
    /// "shard_failed_queued"}`).
    pub retries_queued: u64,
    /// Always 0: a parked run is bound to a connection, is never tracked
    /// for retry, and a shard failure under it sheds it instead.
    pub retries_parked: u64,
    /// Requests currently between losing their last live copy and their
    /// retry's backoff release: they hold an in-flight slot with no copy
    /// queued or parked (the bridge term of the conservation identity,
    /// `docs/reliability.md`).
    pub retried_in_flight: u64,
    /// Hedges armed at submit (a fire instant was scheduled; most never
    /// fire because the primary finishes first).
    pub hedges_armed: u64,
    /// Hedge duplicates actually enqueued (`vsched_hedges_total{outcome=
    /// "fired"}`).
    pub hedges_fired: u64,
    /// Hedge races won by the *duplicate* (`outcome="won"`).
    pub hedges_won: u64,
    /// Copies suppressed after the race was decided — popped, parked, or
    /// completing after a sibling copy already reached the terminal
    /// outcome (`outcome="canceled"`).
    pub hedges_canceled: u64,
}

impl DispatcherStats {
    /// The counter of one shed reason.
    pub(crate) fn shed_counter(&mut self, reason: ShedReason) -> &mut u64 {
        match reason {
            ShedReason::RateLimited => &mut self.shed_rate_limit,
            ShedReason::InFlightCap => &mut self.shed_in_flight,
            ShedReason::Evicted => &mut self.shed_evicted,
        }
    }

    /// Sheds for one reason (the `shed_*` outcomes of the
    /// `vsched_requests_total` series).
    pub fn shed_by(&self, reason: ShedReason) -> u64 {
        let mut copy = *self;
        *copy.shed_counter(reason)
    }

    /// Total sheds across every cause.
    pub fn shed(&self) -> u64 {
        ShedReason::ALL.iter().map(|&r| self.shed_by(r)).sum()
    }

    /// Fraction of served requests that hit a warm shell (0 when nothing
    /// was served).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.served as f64
        }
    }
}

/// Why a parked run is being evicted (the `reason` label of the
/// `vsched_evictions_total` series and the `drain_evict` span detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailCause {
    /// Its drain grace expired while it sat unmigratable on a draining
    /// shard.
    GraceExpired,
    /// The shard it was parked on failed; the suspension died with it.
    ShardFailed,
}

impl FailCause {
    pub(crate) fn label(self) -> &'static str {
        match self {
            FailCause::GraceExpired => "grace_expired",
            FailCause::ShardFailed => "shard_failed",
        }
    }
}

/// How a request leaves the system — the one argument of
/// [`Dispatcher::settle`] that differs between its callers.
pub(crate) enum Terminal {
    /// Refused or dropped without a completion record. `evict` names the
    /// lifecycle cause when `reason` is [`ShedReason::Evicted`].
    Shed {
        reason: ShedReason,
        evict: Option<FailCause>,
    },
    /// Executed: ran to an exit (normal or not), or was killed while
    /// parked at its tenant's `max_block` bound ([`ExitKind::Blocked`]).
    Served {
        /// The number `submit` returned — the copy's own unless a hedge
        /// duplicate won the race.
        logical: u64,
        /// The shard that executed (or held) the run at the end.
        shard: usize,
        progress: Progress,
        /// The run's cycle attribution and shell provenance.
        breakdown: Breakdown,
        exit: ExitKind,
        /// The bytes the virtine returned (`return_data`).
        result: Vec<u8>,
    },
}
