//! The exactly-once table: one logical request, one terminal outcome.
//!
//! A tenant that opts into retries or hedging can have several *copies*
//! of one request in the system — the original, a hedge duplicate racing
//! it, a retry respawned after a shard failure took the last copy down.
//! The `OpenTable` is the only code that knows how many copies are
//! live, whether a retry is pending, and whether the race is already
//! decided; the dispatcher reports what happened to a copy
//! (`OpenTable::lose_copy`, `OpenTable::finish_copy`) and is told what
//! that means for the *logical* request. "First terminal outcome wins" is
//! thereby a property of this type: `copies`, `done`, and `pending_retry`
//! are private to the module, so no dispatcher path can forget to consult
//! them.
//!
//! Requests of tenants with neither policy — and connection-bound
//! requests, whose inputs cannot be replayed — are never tracked: every
//! question about them answers "the only copy", at the cost of one failed
//! hash lookup. Only a connection-bound run can block, so a parked run is
//! never a tracked copy: every copy this table counts is queued or
//! executing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use vclock::rng::Rng;
use vclock::stats::Histogram;
use vclock::Cycles;
use wasp::Invocation;

use crate::request::DispatcherStats;
use crate::shard::Ticket;
use crate::tenant::{HedgePolicy, TenantState};

/// A retry the table just scheduled (the facts its trace span records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScheduledRetry {
    pub logical: u64,
    /// The attempt the retry will be (1 = first re-submission).
    pub attempt: u32,
    /// When the backoff releases it.
    pub release_at: u64,
}

/// What became of a copy destroyed by a shard failure or cancellation
/// (see [`OpenTable::lose_copy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyLoss {
    /// Another copy of the logical request is still live (or already won);
    /// the caller must neither shed nor record anything terminal.
    Suppressed,
    /// An exactly-once retry was scheduled; the caller must not shed.
    Retried(ScheduledRetry),
    /// This was the last copy and no retry applies: the caller's terminal
    /// accounting (shed) proceeds as if retry/hedging did not exist.
    Terminal,
}

/// What became of a copy that finished executing (see
/// [`OpenTable::finish_copy`]).
pub(crate) enum CopyFinish {
    /// First terminal outcome for the logical request: count it, recording
    /// the completion under the logical sequence number.
    Won { logical: u64 },
    /// The race was already decided: suppress all accounting.
    Loser,
}

/// The two timers the table arms, in the order simultaneous ones fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Timer {
    /// A retry's backoff release.
    Retry,
    /// A hedge's fire instant.
    Hedge,
}

/// A fresh copy of a tracked request, rebuilt from its pristine inputs
/// for a retry (under the logical sequence number) or a hedge (under a
/// new one).
pub(crate) struct Respawn {
    pub logical: u64,
    pub ticket: Ticket,
    pub args: Vec<u8>,
    pub invocation: Invocation,
}

/// Submit-time state retained for a request whose tenant opted into
/// retries or hedging — everything needed to re-run it from scratch.
/// Entries exist only while the request is unresolved, so the map stays
/// proportional to in-flight work.
struct OpenReq {
    /// The original copy's ticket (`seq` is the logical sequence number).
    /// Re-submissions keep its arrival: latency spans every attempt, and a
    /// retry is the same promise, not a fresh one.
    ticket: Ticket,
    /// Pristine marshalled arguments for a re-submission.
    args: Vec<u8>,
    /// Pristine invocation inputs ([`Invocation::respawn`] of the
    /// original) — cloned again for each re-submission.
    invocation: Invocation,
    /// Attempts consumed so far (0 = only the first run).
    attempt: u32,
    /// Live copies: queued or executing (a pending retry is not a live
    /// copy — it is counted by `pending_retry`).
    copies: u32,
    /// A terminal outcome (completion, kill, or shed) has been recorded;
    /// every later copy event is suppressed.
    done: bool,
    /// A retry sits in the backoff heap awaiting release.
    pending_retry: bool,
}

impl OpenReq {
    /// A fresh copy under `copy_seq`, from the pristine inputs.
    fn respawn_copy(&self, copy_seq: u64) -> Respawn {
        Respawn {
            logical: self.ticket.seq,
            ticket: Ticket {
                seq: copy_seq,
                ..self.ticket
            },
            args: self.args.clone(),
            invocation: self.invocation.respawn(),
        }
    }
}

/// Open (unresolved) requests of retry/hedge tenants, with their timers.
pub(crate) struct OpenTable {
    /// Keyed by logical sequence number.
    open: HashMap<u64, OpenReq>,
    /// Hedge copy sequence number → logical sequence number.
    hedge_of: HashMap<u64, u64>,
    /// Pending retry releases: `(release_at, logical_seq)`, min-first.
    retry_heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Armed hedge fire instants: `(fire_at, logical_seq)`, min-first.
    /// Entries are lazily invalidated — a fire for a finished request is
    /// a no-op — so completion never searches the heap.
    hedge_heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Deterministic jitter source for retry backoff (detector probes use
    /// the detector's own stream, seeded from `HealthConfig::seed`).
    retry_rng: Rng,
}

impl OpenTable {
    pub(crate) fn new() -> OpenTable {
        OpenTable {
            open: HashMap::new(),
            hedge_of: HashMap::new(),
            retry_heap: BinaryHeap::new(),
            hedge_heap: BinaryHeap::new(),
            retry_rng: Rng::seeded(0x7E57_4E72),
        }
    }

    /// Starts tracking a just-admitted request (its one live copy is the
    /// original), keeping a pristine copy of the inputs so it can be
    /// re-run from scratch, and arms its hedge at `hedge_at` when the
    /// tenant hedges.
    pub(crate) fn track(
        &mut self,
        ticket: Ticket,
        args: &[u8],
        invocation: &Invocation,
        hedge_at: Option<u64>,
    ) {
        self.open.insert(
            ticket.seq,
            OpenReq {
                ticket,
                args: args.to_vec(),
                invocation: invocation.respawn(),
                attempt: 0,
                copies: 1,
                done: false,
                pending_retry: false,
            },
        );
        if let Some(at) = hedge_at {
            self.hedge_heap.push(Reverse((at, ticket.seq)));
        }
    }

    /// Whether this copy's logical request already reached its terminal
    /// outcome through a sibling copy: a hedge-race loser that must never
    /// execute, only be reported lost.
    pub(crate) fn is_moot(&self, copy_seq: u64) -> bool {
        let logical = self.hedge_of.get(&copy_seq).copied().unwrap_or(copy_seq);
        self.open.get(&logical).is_some_and(|o| o.done)
    }

    /// Whether `copy_seq` is a copy of a tracked request.
    pub(crate) fn tracks(&self, copy_seq: u64) -> bool {
        self.hedge_of.contains_key(&copy_seq) || self.open.contains_key(&copy_seq)
    }

    /// Drops a decided request's entry once nothing can refer to it again.
    fn forget_if_spent(&mut self, logical: u64) {
        let o = &self.open[&logical];
        if o.copies == 0 && !o.pending_retry {
            self.open.remove(&logical);
        }
    }

    /// Records the destruction of one copy of a request (shard failure or
    /// cancellation at `now`), and decides what the caller must do:
    ///
    /// - [`CopyLoss::Suppressed`]: the logical request is already done,
    ///   or another copy is still live (or a retry is pending) — the
    ///   caller records nothing terminal.
    /// - [`CopyLoss::Retried`]: this was the last live copy and an
    ///   exactly-once retry was scheduled (`retry` allows one) — the
    ///   caller records nothing terminal; the in-flight slot rides
    ///   through the backoff as `retried_in_flight`.
    /// - [`CopyLoss::Terminal`]: the caller's ordinary shed accounting
    ///   proceeds. Untracked requests (no retry/hedge policy) always
    ///   land here.
    pub(crate) fn lose_copy(
        &mut self,
        copy_seq: u64,
        now: u64,
        retry: bool,
        tenants: &mut [TenantState],
        stats: &mut DispatcherStats,
    ) -> CopyLoss {
        let logical = self.hedge_of.remove(&copy_seq).unwrap_or(copy_seq);
        let Some(o) = self.open.get_mut(&logical) else {
            return CopyLoss::Terminal;
        };
        o.copies = o.copies.saturating_sub(1);
        if o.done {
            // A loser of an already-decided race.
            stats.hedges_canceled += 1;
            self.forget_if_spent(logical);
            return CopyLoss::Suppressed;
        }
        if o.copies > 0 || o.pending_retry {
            // A surviving copy (or a pending retry) still carries the
            // request.
            return CopyLoss::Suppressed;
        }
        let retried = retry
            .then(|| self.try_schedule_retry(logical, now, tenants, stats))
            .flatten();
        if let Some(retried) = retried {
            return CopyLoss::Retried(retried);
        }
        // Last copy, no retry: the request's fate is the caller's shed.
        self.open.remove(&logical);
        CopyLoss::Terminal
    }

    /// Records a finished execution (completion or `max_block` kill) of
    /// one copy. The first terminal outcome wins and is recorded under the
    /// *logical* sequence number; every later copy is a
    /// [`CopyFinish::Loser`] the caller must suppress entirely.
    pub(crate) fn finish_copy(&mut self, copy_seq: u64, stats: &mut DispatcherStats) -> CopyFinish {
        let logical = self.hedge_of.remove(&copy_seq).unwrap_or(copy_seq);
        let Some(o) = self.open.get_mut(&logical) else {
            return CopyFinish::Won { logical };
        };
        o.copies = o.copies.saturating_sub(1);
        let won = !o.done;
        o.done = true;
        if !won {
            stats.hedges_canceled += 1;
        } else if copy_seq != logical {
            stats.hedges_won += 1;
        }
        self.forget_if_spent(logical);
        if won {
            CopyFinish::Won { logical }
        } else {
            CopyFinish::Loser
        }
    }

    /// Attempts to schedule an exactly-once re-submission of `logical`
    /// after it lost its last live copy to a shard failure at `now`.
    /// `None` (no policy, attempts exhausted, retry budget empty) leaves
    /// the caller to shed. The release instant is
    /// `now + backoff × 2^(attempt−1)`, jittered by the table's
    /// deterministic stream so synchronized losses do not re-converge
    /// into a thundering herd.
    fn try_schedule_retry(
        &mut self,
        logical: u64,
        now: u64,
        tenants: &mut [TenantState],
        stats: &mut DispatcherStats,
    ) -> Option<ScheduledRetry> {
        let o = self
            .open
            .get_mut(&logical)
            .expect("caller verified the entry");
        let tenant = &mut tenants[o.ticket.tenant.0];
        let policy = tenant.profile.retry?;
        if o.attempt + 1 >= policy.max_attempts {
            return None;
        }
        let bucket = tenant
            .retry_bucket
            .as_mut()
            .expect("a retry policy always builds a budget bucket");
        if !bucket.admit(Cycles(now)) {
            return None;
        }
        let base = policy.backoff.get() as f64 * 2f64.powi(o.attempt as i32);
        let factor = if policy.jitter_frac > 0.0 {
            self.retry_rng
                .range_f64(1.0 - policy.jitter_frac, 1.0 + policy.jitter_frac)
        } else {
            1.0
        };
        let release_at = now.saturating_add((base * factor) as u64);
        o.attempt += 1;
        o.pending_retry = true;
        self.retry_heap.push(Reverse((release_at, logical)));
        tenant.stats.retries += 1;
        tenant.stats.retried_in_flight += 1;
        stats.retried_in_flight += 1;
        stats.retries_queued += 1;
        Some(ScheduledRetry {
            logical,
            attempt: o.attempt,
            release_at,
        })
    }

    /// The earliest armed timer — a retry release before a hedge fire at
    /// the same instant, letting released work join the same batch.
    pub(crate) fn next_timer(&self) -> Option<(u64, Timer)> {
        let retry = self
            .retry_heap
            .peek()
            .map(|&Reverse((at, _))| (at, Timer::Retry));
        let hedge = self
            .hedge_heap
            .peek()
            .map(|&Reverse((at, _))| (at, Timer::Hedge));
        [retry, hedge].into_iter().flatten().min()
    }

    /// Pops the earliest `timer` and returns the copy it puts back into
    /// the system, if the request still wants one. `next_seq` is the
    /// dispatcher's sequence counter: a hedge duplicate draws from it.
    pub(crate) fn fire(
        &mut self,
        timer: Timer,
        next_seq: &mut u64,
        tenants: &mut [TenantState],
        stats: &mut DispatcherStats,
    ) -> Option<(u64, Respawn)> {
        let heap = match timer {
            Timer::Retry => &mut self.retry_heap,
            Timer::Hedge => &mut self.hedge_heap,
        };
        let Reverse((at, logical)) = heap.pop().expect("caller peeked this timer");
        let copy = match timer {
            Timer::Retry => self.release_retry(logical, tenants, stats),
            Timer::Hedge => self.fire_hedge(logical, next_seq, stats),
        };
        copy.map(|c| (at, c))
    }

    /// Releases a pending retry at its backoff instant: a fresh copy
    /// rebuilt from the pristine submit-time inputs, under the original
    /// sequence number and arrival. A retry whose request finished while
    /// it waited (a hedge copy won the race) is silently dropped.
    fn release_retry(
        &mut self,
        logical: u64,
        tenants: &mut [TenantState],
        stats: &mut DispatcherStats,
    ) -> Option<Respawn> {
        let o = self.open.get_mut(&logical)?;
        if !o.pending_retry {
            return None;
        }
        o.pending_retry = false;
        tenants[o.ticket.tenant.0].stats.retried_in_flight -= 1;
        stats.retried_in_flight -= 1;
        if o.done {
            // Decided while the retry waited out its backoff.
            self.forget_if_spent(logical);
            return None;
        }
        o.copies += 1;
        Some(o.respawn_copy(logical))
    }

    /// Fires an armed hedge: a duplicate copy of the still-unfinished
    /// request under a fresh sequence number. First completion wins;
    /// [`OpenTable::finish_copy`] / [`OpenTable::lose_copy`] suppress the
    /// loser wherever it surfaces next. A hedge for a request that already
    /// finished — or one waiting on a retry backoff — is a no-op.
    fn fire_hedge(
        &mut self,
        logical: u64,
        next_seq: &mut u64,
        stats: &mut DispatcherStats,
    ) -> Option<Respawn> {
        let o = self.open.get_mut(&logical)?;
        if o.done || o.pending_retry || o.copies == 0 {
            return None;
        }
        o.copies += 1;
        let copy = *next_seq;
        *next_seq += 1;
        self.hedge_of.insert(copy, logical);
        stats.hedges_fired += 1;
        Some(o.respawn_copy(copy))
    }
}

/// The hedge fire delay for one request: the observed tail
/// (`quantile × multiplier`) of the tenant's end-to-end latency
/// distribution — falling back to the global distribution, then to
/// the policy's floor while samples are scarce — but never below
/// [`HedgePolicy::min_delay`].
pub(crate) fn hedge_delay(tenant: &Histogram, global: &Histogram, policy: HedgePolicy) -> u64 {
    let hist = if tenant.count() >= policy.min_samples {
        tenant
    } else {
        global
    };
    let mut delay = policy.min_delay.get();
    if hist.count() >= policy.min_samples {
        let tail = hist.quantile(policy.quantile) as f64 * policy.multiplier;
        delay = delay.max(tail as u64);
    }
    delay
}
