//! The placement engine: every shell-routing policy decision in one
//! layer, priced by one cost function.
//!
//! The dispatcher makes exactly four routing decisions on the hot path.
//! Before this layer they lived as inline scoring scattered through
//! `dispatcher.rs`; now each is a question put to the [`CostEngine`]
//! over a slice of [`Candidate`]s, and the dispatcher only executes the
//! answer (pops, steals, transfers, charges the per-hop cost):
//!
//! ```text
//!                     ┌──────────────────────────────┐
//!     submit ───────► │ 1. admit                     │──► enqueue on shard
//!                     │    which shard queues it?    │
//!                     ├──────────────────────────────┤
//!     batch tick ───► │ 2. steal_clean (dry pool)    │──► take_idle from
//!                     │    which sibling donates a   │    the donor
//!                     │    clean shell?              │
//!                     ├──────────────────────────────┤
//!     batch tick ───► │ 3. steal_warm (last resort)  │──► demote + steal
//!                     │    whose warm shell demotes  │    from the donor
//!                     │    before KVM_CREATE_VM?     │
//!                     ├──────────────────────────────┤
//!     socket wake ──► │ 4. resume                    │──► requeue (maybe
//!                     │    which shard resumes the   │    migrating the
//!                     │    woken parked run?         │    suspended run)
//!                     ├──────────────────────────────┤
//!     release ──────► │ warm_release (capacity side  │──► park warm /
//!                     │ of the acquire chain)        │    evict LRU /
//!                     │ may this (tenant, shard)     │    demote
//!                     │ keep another warm shell?     │
//!                     └──────────────────────────────┘
//! ```
//!
//! Decisions 2 and 3 are the steal steps of the acquire chain (steps 3
//! and 5 of the chain in `dispatcher::Dispatcher::execute`); together
//! with admit and resume-migrate they are the ISSUE's four routing
//! decision points. `warm_release` is unnumbered on purpose: it routes
//! nothing, it decides whether capacity exists for a warm park.
//!
//! ## The cost function
//!
//! Every decision ranks candidates lexicographically by
//! `(queue_depth, free_at, transfer_cost, shard)` — queueing dominates
//! (milliseconds), worker availability next, then the [`crate::Hop`]
//! transfer price (microseconds), then the index as a deterministic tie
//! break. Donor selection for steals inverts the supply term:
//! `(hop, most shells, shard)` — distance first, because a steal's price
//! *is* the hop, and at equal distance the richest sibling hurts least.
//! This is how "a same-CCX donor always beats a cross-socket one at
//! equal load" (proptest-pinned) falls out of the model instead of being
//! a special case.
//!
//! ## Warm capacity as policy
//!
//! The fixed per-pool LRU bound of the warm cache is the binding
//! constraint the `warm_placement` bench exposed. [`WarmPolicy`] replaces
//! it with a **global cross-shard budget** plus **per-tenant quotas**:
//! on every warm release the engine is asked ([`CostEngine::warm_release`])
//! whether the shell may park and what must be demoted first — the
//! tenant's own least-recently-parked warm shell when the tenant is at
//! quota (a churning tenant evicts *itself*, never a neighbor), or the
//! globally oldest when the platform is at budget. The `topology_steal`
//! bench shows this beating fixed per-pool capacity on hit rate under a
//! cache-hostile tenant mix.
//!
//! [`CostEngine`] is the one engine: [`Placement`] variants are its
//! *configurations*, not dispatcher match arms.

use std::cmp::Reverse;

use crate::request::Placement;
use crate::topology::Hop;

/// One shard as seen by a placement decision. Candidate slices are always
/// indexed by shard: `candidates[i].shard == i` for every decision point,
/// so engines may look up siblings (e.g. a fallback's queue depth) by
/// index.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The shard index.
    pub shard: usize,
    /// Requests waiting in the shard's run queue.
    pub queue_depth: usize,
    /// When the shard's worker frees up (cycles), clamped to the decision
    /// instant — a `free_at` in the past means "free now", never "freer
    /// than an equally idle sibling".
    pub free_at: u64,
    /// Clean shells of the requested guest-memory size parked in the
    /// shard's pool (donor supply for clean steals).
    pub idle_shells: usize,
    /// Warm shells relevant to the decision: shells parked for the
    /// requesting `(tenant, virtine)` key at admit, victim-eligible warm
    /// shells of the requested size for warm steals.
    pub warm_shells: usize,
    /// Distance class from the decision's anchor shard (the requester for
    /// steals, the blocking shard for resumes; [`Hop::Local`] everywhere
    /// at admit, which has no anchor).
    pub hop: Hop,
    /// Cycles a transfer from this shard to the anchor would charge
    /// ([`Hop::transfer_cost`]).
    pub transfer_cost: u64,
    /// Whether the shard's lifecycle state admits new placements
    /// (`ShardState::Active`). Draining/drained/failed shards stay in
    /// the slice — it is always full-length and index-aligned — but
    /// engines must not pick them; every [`CostEngine`] decision filters
    /// on this column, falling back to the unfiltered ranking only when
    /// *no* shard is eligible (degraded mode beats losing work).
    pub eligible: bool,
}

/// What a warm release may do (the capacity half of the acquire chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmVerdict {
    /// Park the shell warm — after demoting the listed LRU victims so the
    /// budget and quota still hold afterwards.
    Park {
        /// Demote the releasing tenant's least-recently-parked warm shell
        /// first (the tenant is at its quota; it evicts itself).
        evict_tenant_lru: bool,
        /// Demote the globally least-recently-parked warm shell first
        /// (the platform is at its budget).
        evict_global_lru: bool,
    },
    /// Do not park: wipe and release clean (a zero budget or quota).
    Demote,
}

/// Cross-shard warm-capacity policy: a global budget on resident warm
/// shells plus a per-tenant quota, both spanning every shard pool.
/// `None` leaves the corresponding dimension to the per-pool LRU bound
/// ([`crate::DispatcherConfig::warm_capacity`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmPolicy {
    /// Bound on warm shells resident across *all* shard pools.
    pub global_budget: Option<usize>,
    /// Bound on warm shells any one tenant may keep resident across all
    /// shard pools.
    pub tenant_quota: Option<usize>,
}

impl WarmPolicy {
    /// Whether either dimension is active (the dispatcher skips the
    /// cross-shard accounting walk entirely otherwise).
    pub fn is_active(&self) -> bool {
        self.global_budget.is_some() || self.tenant_quota.is_some()
    }
}

/// The policy layer behind the dispatcher's routing decisions: one cost
/// model over the shard topology, configured by the [`Placement`] policy
/// the dispatcher was built with.
///
/// The engine is pure scoring: it never touches pools or queues, only
/// ranks the [`Candidate`]s the dispatcher hands it. The dispatcher
/// executes whatever it picks (and charges the transfer cost of the
/// chosen hop), so an engine bug can cost microseconds but never violate
/// wipe-on-steal isolation — the mechanism stays in the dispatcher.
#[derive(Debug, Clone)]
pub struct CostEngine {
    policy: Placement,
    /// The snapshot-aware skew guard: a warm shard may trail the
    /// least-loaded alternative by at most one batch of queue depth.
    batch_size: usize,
    warm: WarmPolicy,
}

impl CostEngine {
    /// Builds the engine for a dispatcher configuration. Distances reach
    /// it priced, in each [`Candidate`]'s `hop` and `transfer_cost`.
    pub fn new(policy: Placement, batch_size: usize, warm: WarmPolicy) -> CostEngine {
        CostEngine {
            policy,
            batch_size,
            warm,
        }
    }

    /// The shared lexicographic cost key: queueing, then availability,
    /// then distance, then index. Used verbatim by admit and resume;
    /// donor selection ([`CostEngine::donor`]) reorders around supply.
    fn cost(c: &Candidate) -> (usize, u64, u64, usize) {
        (c.queue_depth, c.free_at, c.transfer_cost, c.shard)
    }

    /// Donor selection for steals: nearest hop first (the steal's price
    /// *is* the distance), richest supply within a hop class, index as
    /// the tie break. `supply` extracts the relevant shell count. A
    /// non-`Active` shard never donates — its inventory is the
    /// reconciler's to move, and a steal from it would race the drain.
    fn donor(candidates: &[Candidate], supply: impl Fn(&Candidate) -> usize) -> Option<usize> {
        candidates
            .iter()
            .filter(|c| c.eligible && c.hop != Hop::Local && supply(c) > 0)
            .min_by_key(|c| (c.hop, Reverse(supply(c)), c.shard))
            .map(|c| c.shard)
    }

    /// The least-cost shard among lifecycle-eligible candidates, or —
    /// only when *every* shard is ineligible — among all of them:
    /// admission during a full-fleet drain degrades rather than panics,
    /// and the work executes locally on whatever shard takes it.
    fn least_eligible(candidates: &[Candidate]) -> usize {
        candidates
            .iter()
            .filter(|c| c.eligible)
            .min_by_key(|c| Self::cost(c))
            .or_else(|| candidates.iter().min_by_key(|c| Self::cost(c)))
            .map(|c| c.shard)
            .expect("at least one shard")
    }

    /// Decision 1 (admit): the shard a fresh request queues on.
    /// `tenant` is the submitting tenant's index (home-pinning hashes
    /// it); `candidates[i].warm_shells` counts warm shells for the
    /// request's key on shard `i` (zero unless
    /// [`CostEngine::admit_reads_warm`]).
    pub fn admit(&self, tenant: usize, candidates: &[Candidate]) -> usize {
        match self.policy {
            Placement::ByTenant => {
                // Home-pinning holds only while the home is eligible; a
                // draining home hands its tenants to the least-loaded
                // eligible sibling until restored.
                let home = tenant % candidates.len();
                if candidates[home].eligible {
                    home
                } else {
                    Self::least_eligible(candidates)
                }
            }
            Placement::LeastLoaded => Self::least_eligible(candidates),
            Placement::SnapshotAware => {
                let fallback = Self::least_eligible(candidates);
                candidates
                    .iter()
                    .filter(|c| c.eligible && c.warm_shells > 0)
                    .min_by_key(|c| Self::cost(c))
                    .filter(|c| {
                        // Don't trade µs of restore for ms of queueing:
                        // the warm shard must not be more than one batch
                        // behind the least-loaded alternative.
                        c.queue_depth <= candidates[fallback].queue_depth + self.batch_size
                    })
                    .map_or(fallback, |c| c.shard)
            }
        }
    }

    /// Whether [`CostEngine::admit`] reads the warm column. When `false`,
    /// the dispatcher skips the per-pool `has_warm` probe on the admission
    /// hot path (the column is filled with zeros).
    pub fn admit_reads_warm(&self) -> bool {
        matches!(self.policy, Placement::SnapshotAware)
    }

    /// Decision 2 (acquire → steal): the sibling that donates a *clean*
    /// shell to a dry shard, or `None` to fall through to the next
    /// acquire step. Candidates include the thief itself ([`Hop::Local`]),
    /// which is never picked, nor is a shard with no idle shells.
    pub fn steal_clean(&self, candidates: &[Candidate]) -> Option<usize> {
        Self::donor(candidates, |c| c.idle_shells)
    }

    /// Decision 3 (acquire → last resort): the sibling whose warm shell
    /// is demoted-and-stolen, or `None` to mint a fresh VM instead.
    /// `candidates[i].warm_shells` counts victim-eligible warm shells.
    pub fn steal_warm(&self, candidates: &[Candidate]) -> Option<usize> {
        Self::donor(candidates, |c| c.warm_shells)
    }

    /// Decision 4 (resume-migrate): the shard a woken parked run resumes
    /// on. The blocking shard is the anchor ([`Hop::Local`]); picking any
    /// other shard migrates the suspended run and pays the hop's
    /// transfer cost.
    pub fn resume(&self, candidates: &[Candidate]) -> usize {
        // The home shard is Hop::Local with transfer cost 0, so an idle
        // home never loses to an equally idle sibling, and among equally
        // loaded siblings the nearest wins — migration only happens when
        // it buys an earlier start, and then over the shortest hop. A
        // draining home is ineligible, so its woken runs migrate out by
        // construction.
        Self::least_eligible(candidates)
    }

    /// Decision 5 (lifecycle evacuation): the eligible sibling that
    /// receives a draining shard's queued work, parked runs, or pooled
    /// shells. The draining shard is the anchor ([`Hop::Local`]), so
    /// eligible non-local shards rank by the shared cost key — the
    /// evacuation pays the same priced hops as a steal in the other
    /// direction. `None` means nowhere to go: the reconciler leaves the
    /// work in place (degraded mode) and arms grace clocks on parked
    /// runs.
    pub fn evacuate(&self, candidates: &[Candidate]) -> Option<usize> {
        candidates
            .iter()
            .filter(|c| c.eligible && c.hop != Hop::Local)
            .min_by_key(|c| Self::cost(c))
            .map(|c| c.shard)
    }

    /// Whether [`CostEngine::warm_release`] actually inspects the
    /// residency counts. When `false`, the dispatcher skips the
    /// cross-shard accounting walk and parks unconditionally (the
    /// per-pool LRU bound still applies).
    pub fn warm_policy_active(&self) -> bool {
        self.warm.is_active()
    }

    /// Replaces the warm-capacity policy at runtime — the operator
    /// control surface behind [`crate::Dispatcher::set_warm_budget`]
    /// (e.g. slashing the budget mid-run to inject a degradation the
    /// SLO engine must notice).
    pub fn set_warm_policy(&mut self, policy: WarmPolicy) {
        self.warm = policy;
    }

    /// The capacity side of a warm release: given the releasing tenant's
    /// resident warm count and the global resident count (both across
    /// all shards, *excluding* the shell being released), may the shell
    /// park warm, and what must be demoted first?
    pub fn warm_release(&self, tenant_resident: usize, global_resident: usize) -> WarmVerdict {
        if self.warm.tenant_quota == Some(0) || self.warm.global_budget == Some(0) {
            return WarmVerdict::Demote;
        }
        let evict_tenant_lru = self.warm.tenant_quota.is_some_and(|q| tenant_resident >= q);
        // A tenant-LRU eviction frees one global slot for the shell being
        // parked, so the budget only forces its own eviction when the
        // quota didn't already make room.
        let evict_global_lru = !evict_tenant_lru
            && self
                .warm
                .global_budget
                .is_some_and(|b| global_resident >= b);
        WarmVerdict::Park {
            evict_tenant_lru,
            evict_global_lru,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    /// A candidate row with everything idle and the hop priced from `t`.
    fn cand(t: &Topology, anchor: usize, shard: usize) -> Candidate {
        Candidate {
            shard,
            queue_depth: 0,
            free_at: 0,
            idle_shells: 0,
            warm_shells: 0,
            hop: t.hop(anchor, shard),
            transfer_cost: t.transfer_cost(anchor, shard),
            eligible: true,
        }
    }

    fn engine(policy: Placement) -> CostEngine {
        CostEngine::new(policy, 8, WarmPolicy::default())
    }

    #[test]
    fn steal_prefers_the_nearest_donor_at_equal_supply() {
        // 2 sockets x 2 CCXs x 2 shards; thief is shard 0. Every sibling
        // holds one idle shell: the CCX sibling (shard 1) must win over
        // same-socket (2, 3) and cross-socket (4..8) donors.
        let t = Topology::grouped(2, 2, 2);
        let e = engine(Placement::LeastLoaded);
        let c: Vec<Candidate> = (0..8)
            .map(|i| Candidate {
                idle_shells: usize::from(i != 0),
                ..cand(&t, 0, i)
            })
            .collect();
        assert_eq!(e.steal_clean(&c), Some(1));
        // Same-CCX donor dry: nearest same-socket donor wins.
        let mut c2 = c.clone();
        c2[1].idle_shells = 0;
        assert_eq!(e.steal_clean(&c2), Some(2));
        // Whole socket dry: the steal crosses sockets rather than minting.
        for x in &mut c2[1..4] {
            x.idle_shells = 0;
        }
        assert_eq!(e.steal_clean(&c2), Some(4));
        // Everyone dry: fall through to creation.
        for x in &mut c2 {
            x.idle_shells = 0;
        }
        assert_eq!(e.steal_clean(&c2), None);
    }

    #[test]
    fn within_a_hop_class_the_richest_donor_wins() {
        let t = Topology::grouped(2, 1, 4);
        let e = engine(Placement::LeastLoaded);
        let mut c: Vec<Candidate> = (0..8).map(|i| cand(&t, 0, i)).collect();
        c[2].idle_shells = 1;
        c[3].idle_shells = 5;
        c[4].idle_shells = 9; // Richer, but cross-socket: must lose.
        assert_eq!(e.steal_clean(&c), Some(3));
    }

    #[test]
    fn warm_steal_uses_the_same_distance_first_ordering() {
        let t = Topology::grouped(2, 2, 2);
        let e = engine(Placement::LeastLoaded);
        let mut c: Vec<Candidate> = (0..8).map(|i| cand(&t, 0, i)).collect();
        c[5].warm_shells = 4; // Cross-socket hoard...
        c[3].warm_shells = 1; // ...loses to one same-socket victim.
        assert_eq!(e.steal_warm(&c), Some(3));
    }

    #[test]
    fn resume_prefers_home_then_near_siblings_on_ties() {
        let t = Topology::grouped(2, 2, 2);
        let e = engine(Placement::LeastLoaded);
        // All idle: the home shard (anchor 2) wins every tie.
        let c: Vec<Candidate> = (0..8).map(|i| cand(&t, 2, i)).collect();
        assert_eq!(e.resume(&c), 2);
        // Home backed up: the woken run lands on the nearest idle shard
        // (3, same CCX) — never an equally idle cross-socket one.
        let mut c2 = c;
        c2[2].queue_depth = 10;
        assert_eq!(e.resume(&c2), 3);
        // Queue depth still dominates distance: a shorter queue across
        // the socket beats a longer one next door.
        for x in &mut c2 {
            x.queue_depth = 3;
        }
        c2[6].queue_depth = 1;
        assert_eq!(e.resume(&c2), 6);
    }

    #[test]
    fn flat_topology_reproduces_the_pre_topology_orderings() {
        // Flat: distance never discriminates, so the richest donor wins
        // (the historical rule) and resume ties break home-then-index.
        let t = Topology::flat(4);
        let e = engine(Placement::LeastLoaded);
        let mut c: Vec<Candidate> = (0..4).map(|i| cand(&t, 0, i)).collect();
        c[1].idle_shells = 1;
        c[3].idle_shells = 4;
        assert_eq!(e.steal_clean(&c), Some(3));
        let r: Vec<Candidate> = (0..4).map(|i| cand(&t, 2, i)).collect();
        assert_eq!(e.resume(&r), 2, "idle home never loses");
    }

    #[test]
    fn ineligible_shards_are_never_placement_targets() {
        let t = Topology::grouped(2, 2, 2);
        let e = engine(Placement::LeastLoaded);
        // Shard 1 is the obvious winner on every axis but is draining.
        let mut c: Vec<Candidate> = (0..8)
            .map(|i| Candidate {
                queue_depth: usize::from(i != 1),
                idle_shells: 1,
                warm_shells: 1,
                ..cand(&t, 0, i)
            })
            .collect();
        c[1].eligible = false;
        assert_ne!(e.admit(0, &c), 1, "admit skips a draining shard");
        assert_ne!(e.steal_clean(&c), Some(1), "no donating while draining");
        assert_ne!(e.steal_warm(&c), Some(1));
        assert_ne!(e.resume(&c), 1);
        // ByTenant home-pinning yields to the drain and comes back.
        let by_tenant = engine(Placement::ByTenant);
        assert_ne!(by_tenant.admit(1, &c), 1, "draining home is abandoned");
        c[1].eligible = true;
        assert_eq!(by_tenant.admit(1, &c), 1, "restored home is re-pinned");
        // SnapshotAware ignores warm shells stranded on a draining shard.
        let snap = engine(Placement::SnapshotAware);
        let mut w: Vec<Candidate> = (0..8).map(|i| cand(&t, 0, i)).collect();
        w[1].warm_shells = 3;
        assert_eq!(snap.admit(0, &w), 1, "warm shard wins while active");
        w[1].eligible = false;
        assert_ne!(snap.admit(0, &w), 1, "but not while draining");
        // Full-fleet drain: degraded mode still places somewhere.
        for x in &mut w {
            x.eligible = false;
        }
        assert_eq!(e.admit(0, &w), 0, "no eligible shard falls back");
        assert_eq!(e.resume(&w), 0);
        assert_eq!(e.steal_clean(&w), None, "steals just fall through");
    }

    #[test]
    fn evacuate_picks_the_cheapest_eligible_sibling() {
        let t = Topology::grouped(2, 2, 2);
        let e = engine(Placement::LeastLoaded);
        // Anchor (draining shard) is 0; its CCX sibling 1 is also down.
        let mut c: Vec<Candidate> = (0..8).map(|i| cand(&t, 0, i)).collect();
        c[0].eligible = false;
        c[1].eligible = false;
        assert_eq!(
            e.evacuate(&c),
            Some(2),
            "nearest eligible sibling at equal load"
        );
        // Load dominates distance, same as every other decision.
        for x in &mut c[2..4] {
            x.queue_depth = 5;
        }
        assert_eq!(e.evacuate(&c), Some(4));
        // Nowhere to go: the reconciler gets None and degrades.
        for x in &mut c {
            x.eligible = false;
        }
        assert_eq!(e.evacuate(&c), None);
    }

    #[test]
    fn warm_release_enforces_quota_then_budget() {
        let park_free = WarmVerdict::Park {
            evict_tenant_lru: false,
            evict_global_lru: false,
        };
        // No policy: always park, never evict (the per-pool LRU rules).
        let e = CostEngine::new(Placement::LeastLoaded, 8, WarmPolicy::default());
        assert_eq!(e.warm_release(100, 100), park_free);

        let e = CostEngine::new(
            Placement::LeastLoaded,
            8,
            WarmPolicy {
                global_budget: Some(8),
                tenant_quota: Some(2),
            },
        );
        assert_eq!(e.warm_release(0, 0), park_free);
        assert_eq!(e.warm_release(1, 7), park_free);
        // At quota: the tenant evicts itself, which also makes room
        // globally — no double eviction.
        assert_eq!(
            e.warm_release(2, 8),
            WarmVerdict::Park {
                evict_tenant_lru: true,
                evict_global_lru: false,
            }
        );
        // Under quota but at budget: the globally oldest shell goes.
        assert_eq!(
            e.warm_release(1, 8),
            WarmVerdict::Park {
                evict_tenant_lru: false,
                evict_global_lru: true,
            }
        );
        // Zero quota or budget: warm caching is off for this release.
        let z = CostEngine::new(
            Placement::LeastLoaded,
            8,
            WarmPolicy {
                global_budget: Some(0),
                tenant_quota: None,
            },
        );
        assert_eq!(z.warm_release(0, 0), WarmVerdict::Demote);
    }
}
