//! Per-worker shards: a private shell pool plus a priority run queue — and the records (`Ticket`, `Parked`) a request travels as.
//!
//! §5.2's single shell pool amortizes `KVM_CREATE_VM`; at platform scale a
//! single pool becomes the serialization point every worker contends on.
//! Each shard therefore wraps its own [`wasp::Pool`], so the hot path —
//! clean-shell reuse, within a few percent of bare `vmrun` (Figure 8) —
//! touches only shard-local state. Cross-shard traffic exists on exactly
//! one path: work stealing, when a shard's clean list runs dry and a
//! sibling has idle shells — the donor picked by the placement engine
//! (near siblings first over the shard topology; see `crate::placement`
//! and `crate::topology`), with the per-hop transfer cost charged by
//! `dispatcher`.
//!
//! A run that blocks in `recv` (or `read(0)`) leaves the shard for
//! the dispatcher's parked map (`crate::parking`): batch ticks never see
//! it, its shell rides inside the `wasp::SuspendedRun` (outside the pool
//! — unstealable, undemotable), and a wake re-queues it at the *front* of
//! a run queue — chosen by placement, not pinned to this shard — so the
//! delivered bytes are consumed before any newly admitted work.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use wasp::{Invocation, Pool, SuspendedRun, VirtineId};

use crate::lifecycle::ShardState;
use crate::tenant::TenantId;

/// One copy of an admitted request, from admission to terminal outcome.
/// Filled in once — at `submit`, or when a retry or hedge respawns the
/// request from its pristine inputs — and carried, never re-typed,
/// through the run queue, the parked set, and the open-request table to
/// `Dispatcher::settle`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    pub tenant: TenantId,
    pub virtine: VirtineId,
    /// This copy's sequence number: the queue's FIFO tie-break and the key
    /// of its open trace. A retry runs under the logical request's own
    /// number; a hedge duplicate gets a fresh one (see `crate::openreq`).
    pub seq: u64,
    /// The tenant's priority.
    pub priority: u8,
    /// Original arrival (cycles); end-to-end latency spans every attempt
    /// and every park.
    pub arrival: u64,
}

/// What a run has consumed so far, threaded from its first execution
/// segment (possibly across parks and migrations) to its completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Progress {
    /// Worker-timeline position of the first execution segment's start.
    pub first_start: u64,
    /// Worker cycles consumed by the segments executed so far.
    pub service_so_far: u64,
    /// Whether the first segment ran on a stolen shell.
    pub stolen: bool,
    /// Whether any resume of this run migrated it off its blocking shard.
    pub migrated: bool,
}

/// A run suspended in a blocking wait, parked on the shard that was
/// executing it. On wake it is re-admitted through *placement* — the
/// least-loaded shard, which may not be the one it blocked on — so a
/// saturated home shard cannot hold a runnable virtine hostage
/// (resume-time migration).
#[derive(Debug)]
pub(crate) struct Parked {
    /// The shard the run is parked on (and, once woken, queued on): whose
    /// lifecycle state, hang, and spin gate apply to it. A migration is
    /// an assignment here; the wait registration is keyed by token alone.
    pub shard: usize,
    /// The suspended virtine: shell, invocation, and segment accounting.
    /// The whole record is boxed once per park, so the parked map and a
    /// woken run's queue entry move a pointer, not the suspension.
    pub run: SuspendedRun,
    pub ticket: Ticket,
    pub progress: Progress,
    /// Worker-timeline position when the run parked.
    pub blocked_from: u64,
    /// Timeline position at which the tenant's `max_block` kills the run;
    /// `u64::MAX` when unbounded.
    pub timeout_at: u64,
    /// Timeline position at which shard lifecycle hard-stops the run
    /// with `ShedReason::Evicted`; `u64::MAX` while the shard is active
    /// or while the run can still be migrated out. Armed by the
    /// reconciler (drain grace) and disarmed when the shard is restored.
    pub evict_at: u64,
}

/// What a queue entry executes when its batch tick pops it. `Fresh` is
/// the common case and stays inline: boxing it to even out the variants
/// would cost every request an allocation.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Work {
    /// Acquire a shell and start from the marshalled inputs.
    Fresh {
        args: Vec<u8>,
        invocation: Invocation,
    },
    /// Resume a woken blocked run at its suspended hypercall.
    Resume(Box<Parked>),
}

/// A queued, admitted request waiting for its shard's next batch tick.
#[derive(Debug)]
pub(crate) struct Queued {
    /// Woken blocked runs re-queue at the front: they hold a live shell
    /// and already-delivered bytes, so they outrank every priority class.
    pub front: bool,
    pub ticket: Ticket,
    pub work: Work,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Queued) -> bool {
        self.ticket.seq == other.ticket.seq
    }
}

impl Eq for Queued {}

impl Ord for Queued {
    /// Max-heap order: woken blocked runs first, then higher priority,
    /// then submission order.
    fn cmp(&self, other: &Queued) -> Ordering {
        let (a, b) = (&self.ticket, &other.ticket);
        self.front
            .cmp(&other.front)
            .then(a.priority.cmp(&b.priority))
            .then(b.seq.cmp(&a.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Queued) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-shard statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests this shard executed.
    pub served: u64,
    /// Batch ticks this shard ran.
    pub batches: u64,
    /// Shells this shard stole from siblings.
    pub stolen_in: u64,
    /// Shells siblings stole from this shard.
    pub stolen_out: u64,
    /// Requests this shard served from its own warm list (delta re-arm).
    pub warm_hits: u64,
    /// High-water mark of the shard's queue depth.
    pub max_queue_depth: usize,
    /// Runs that parked in a blocking wait on this shard (block events).
    pub blocked: u64,
    /// Parked runs resumed after their socket became readable.
    pub resumed: u64,
    /// Parked runs killed at their tenant's `max_block` bound.
    pub blocked_timeout: u64,
    /// Worker cycles burned waiting on blocked I/O (spin-poll dispatch
    /// charges the whole park here; event-driven dispatch charges none).
    pub busy_wait_cycles: u64,
    /// Woken runs this shard received that had parked on another shard
    /// (resume-time migration, inbound).
    pub migrated_in: u64,
    /// Woken runs that had parked on this shard and left for another
    /// (resume-time migration, outbound).
    pub migrated_out: u64,
}

/// One dispatcher shard: pool, run queue, and a worker timeline.
pub(crate) struct Shard {
    pub pool: Pool,
    pub queue: BinaryHeap<Queued>,
    /// Number of parked runs the worker is *spin-polling* on (spin-poll
    /// dispatch only): while nonzero the worker is occupied and runs no
    /// batches.
    pub spinning: usize,
    /// When this shard's worker finishes its current work (cycles).
    pub free_at: u64,
    /// The next batch tick at which this shard will run, `u64::MAX` when
    /// its queue is empty.
    pub next_wake: u64,
    pub stats: ShardStats,
}

impl Shard {
    pub(crate) fn new(pool: Pool) -> Shard {
        Shard {
            pool,
            queue: BinaryHeap::new(),
            spinning: 0,
            free_at: 0,
            next_wake: u64::MAX,
            stats: ShardStats::default(),
        }
    }

    /// Enqueues with an explicit lower bound on the batch tick — wake
    /// delivery, retries, and hedges all predate it with their original
    /// arrival; a first submission passes zero.
    pub(crate) fn enqueue_at(&mut self, q: Queued, tick: u64, not_before: u64) {
        let wake = align_up(self.free_at.max(q.ticket.arrival).max(not_before), tick);
        self.next_wake = self.next_wake.min(wake);
        self.queue.push(q);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
    }
}

/// Rounds `t` up to the next multiple of `tick` (identity on boundaries).
pub(crate) fn align_up(t: u64, tick: u64) -> u64 {
    debug_assert!(tick > 0);
    t.div_ceil(tick) * tick
}

/// A read-only view of one shard, for stats surfaces and experiments.
#[derive(Debug, Clone, Copy)]
pub struct ShardSnapshot {
    /// Requests waiting in the shard's run queue.
    pub queue_depth: usize,
    /// Blocked runs currently parked on this shard.
    pub parked: usize,
    /// Clean shells parked in the shard's pool.
    pub idle_shells: usize,
    /// Warm shells parked in the shard's pool.
    pub warm_shells: usize,
    /// Lifecycle state at snapshot time.
    pub state: ShardState,
    /// Counters.
    pub stats: ShardStats,
}

impl Shard {
    /// This shard's view; `parked` and `state` come from the dispatcher,
    /// which holds the parked runs of every shard in one map and the
    /// lifecycle states in its member set.
    pub(crate) fn snapshot(&self, parked: usize, state: ShardState) -> ShardSnapshot {
        ShardSnapshot {
            queue_depth: self.queue.len(),
            parked,
            idle_shells: self.pool.idle_shells(),
            warm_shells: self.pool.warm_shells(),
            state,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(priority: u8, seq: u64) -> Queued {
        Queued {
            front: false,
            ticket: Ticket {
                tenant: TenantId(0),
                virtine: VirtineId::from_raw(0),
                seq,
                priority,
                arrival: 0,
            },
            work: Work::Fresh {
                args: Vec::new(),
                invocation: Invocation::default(),
            },
        }
    }

    #[test]
    fn heap_pops_priority_then_fifo() {
        let mut h = BinaryHeap::new();
        h.push(q(0, 1));
        h.push(q(2, 3));
        h.push(q(2, 2));
        h.push(q(1, 4));
        h.push(q(0, 0));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop())
            .map(|x| x.ticket.seq)
            .collect();
        // Priority 2 first in submission order, then priority 1, then
        // priority 0 in submission order.
        assert_eq!(order, vec![2, 3, 4, 0, 1]);
    }

    #[test]
    fn woken_blocked_runs_outrank_every_priority_class() {
        let mut h = BinaryHeap::new();
        h.push(q(9, 0));
        let mut woken = q(0, 1);
        woken.front = true;
        h.push(woken);
        let order: Vec<u64> = std::iter::from_fn(|| h.pop())
            .map(|x| x.ticket.seq)
            .collect();
        assert_eq!(order, vec![1, 0], "front-of-queue beats priority 9");
    }

    #[test]
    fn align_up_is_identity_on_boundaries() {
        assert_eq!(align_up(0, 100), 0);
        assert_eq!(align_up(100, 100), 100);
        assert_eq!(align_up(101, 100), 200);
        assert_eq!(align_up(1, 100), 100);
    }
}
