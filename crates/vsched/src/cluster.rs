//! Multi-node fabric: N `Topology`-described dispatchers behind one
//! routing surface, with node-scale lifecycle and health.
//!
//! The single-node story prices every shell movement — steal, resume
//! migration, drain evacuation — through one [`Candidate`] cost model
//! over intra-node hops (`SameCcx < SameSocket < CrossSocket`). This
//! module lifts that model one tier: a [`Cluster`] owns N [`Dispatcher`]
//! *nodes*, and moving work between them is just another hop,
//! [`Hop::CrossNode`], priced by
//! `vclock::costs::VSCHED_TRANSFER_CROSS_NODE` (the run's state leaves
//! shared memory and crosses the simulated cluster network). Routing a
//! fresh request from the edge and choosing the destination for a
//! failover evacuation both go through [`CostEngine::evacuate`]
//! over node-level [`Candidate`] rows — the same lexicographic
//! `(queue_depth, free_at, transfer_cost, index)` key that places work
//! inside a node places it across nodes.
//!
//! **Lifecycle and health, lifted.** A node is a shard one tier up: the
//! cluster keeps its nodes in the member set a dispatcher keeps its
//! shards in — [`ShardState`], hangs, fault plan, [`crate::health`]
//! detector — whose rules `docs/lifecycle.md#two-tiers-one-member-set`
//! states once. What stays here is what a transition does to a node:
//! failing one *fences* it — every shard inside is failed, so no
//! stranded copy can run later and double-count against the edge's
//! exactly-once accounting — a draining node becomes `Drained` once its
//! [`Dispatcher::load`] is empty, and a hung node is not advanced, so it
//! emits no heartbeats. Node faults are scheduled at virtual instants
//! ([`Cluster::hang_node_at`] / [`Cluster::kill_node_at`]) and the
//! detector's only randomness is its seeded probe jitter, so a whole
//! partition → declare → evacuate → restore arc replays bit-for-bit.
//!
//! What does *not* cross nodes: suspended (parked) runs and
//! connection-bound invocations. A suspension's hardware state lives in
//! the node's hypervisor and a connection lives in the node's kernel —
//! neither survives the node, exactly as PR 8's retry machinery
//! excludes conn-bound work. The edge re-runs lost work from pristine
//! inputs instead (see `vhttp::ingress`); `docs/cluster.md` shows the
//! full handover sequence.

use vclock::Cycles;

use crate::dispatcher::Dispatcher;
use crate::health::{HealthAction, HealthConfig, HealthStats, ShardHealth};
use crate::lifecycle::{MemberSet, ShardState};
use crate::placement::{Candidate, CostEngine, WarmPolicy};
use crate::request::Placement;
use crate::topology::Hop;

/// One backend node: a topology-described dispatcher and the requests
/// the cluster routed to it.
struct Node {
    d: Dispatcher,
    routed: u64,
}

/// What [`Cluster::advance_to`] did, for logs and bench assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterAction {
    /// The node-level detector declared this node failed; it has been
    /// fenced (every shard failed) and left the routable set. The edge
    /// must now re-dispatch its unresolved work cross-node.
    NodeDeclared { node: usize },
    /// A full half-open probe streak restored this node: shards
    /// restored, routable again.
    NodeRestored { node: usize },
    /// A draining node finished its in-flight work and converged to
    /// `Drained`.
    NodeDrained { node: usize },
}

/// Cluster-level counters (the node-scale complement of
/// [`crate::DispatcherStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Requests routed to a node by [`Cluster::route`].
    pub routed: u64,
    /// Edge re-dispatches of work lost to a declared node, each charged
    /// one [`Hop::CrossNode`] transfer (reported via
    /// [`Cluster::note_evacuations`]).
    pub evacuated: u64,
    /// Virtual cycles charged for those cross-node transfers.
    pub transfer_cycles: u64,
}

/// N dispatcher nodes behind one priced routing surface.
///
/// The cluster is deliberately *not* an admission layer — per-tenant
/// edge accounting, attribution, and re-dispatch bookkeeping live in
/// the ingress (`vhttp::ingress`), which owns the pristine request
/// inputs. The cluster supplies the fabric: lockstep virtual-time
/// advancement, node lifecycle, the node-level failure detector, and
/// `Candidate`-priced node selection.
pub struct Cluster {
    nodes: Vec<Node>,
    /// The nodes as the lifecycle sees them: state, hangs, the fault
    /// plan and the node-level detector.
    members: MemberSet,
    engine: CostEngine,
    now: Cycles,
    stats: ClusterStats,
}

impl Cluster {
    /// An empty cluster; add nodes with [`Cluster::add_node`].
    pub fn new() -> Cluster {
        Cluster {
            nodes: Vec::new(),
            members: MemberSet::default(),
            engine: CostEngine::new(Placement::LeastLoaded, 1, WarmPolicy::default()),
            now: Cycles::ZERO,
            stats: ClusterStats::default(),
        }
    }

    /// Adds a backend node (an owned, fully configured dispatcher) and
    /// returns its index. Register identical specs and tenants on every
    /// node in the same order so ids agree cluster-wide — the ingress
    /// asserts this.
    pub fn add_node(&mut self, d: Dispatcher) -> usize {
        let i = self.members.push();
        self.nodes.push(Node { d, routed: 0 });
        i
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The dispatcher behind node `i`.
    pub fn node(&self, i: usize) -> &Dispatcher {
        &self.nodes[i].d
    }

    /// Mutable access to node `i`'s dispatcher (submissions, completion
    /// draining, operator knobs).
    pub fn node_mut(&mut self, i: usize) -> &mut Dispatcher {
        &mut self.nodes[i].d
    }

    /// Installs the node-level failure detector (one monitor slot per
    /// node). Absent, nodes are never declared — lifecycle is purely
    /// operator-driven, and runs stay bit-identical to a detector-free
    /// cluster.
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster.
    pub fn set_health(&mut self, config: HealthConfig) {
        assert!(!self.nodes.is_empty(), "install health after adding nodes");
        self.members.set_health(config);
    }

    /// Node `i`'s lifecycle state.
    pub fn node_state(&self, i: usize) -> ShardState {
        self.members.state(i)
    }

    /// Whether the edge may route new work to node `i`: lifecycle
    /// `Active`, the one eligibility rule of both tiers (a declared node
    /// stays `Failed` until the detector or an operator restores it).
    pub fn routable(&self, i: usize) -> bool {
        self.members.state(i).is_active()
    }

    /// Marks node `i` draining: the edge stops routing to it, in-flight
    /// work completes in place, and [`Cluster::advance_to`] converges it
    /// to `Drained` once empty.
    pub fn drain_node(&mut self, i: usize) {
        self.members.drain(i, self.now.get());
    }

    /// Returns node `i` to `Active` (routable again), restoring the
    /// shards a fence failed. A no-op on an `Active` node.
    pub fn restore_node(&mut self, i: usize) {
        if !self.members.restore(i) {
            return;
        }
        let d = &mut self.nodes[i].d;
        for s in 0..d.config().shards {
            if d.shard_state(s) == ShardState::Failed {
                d.restore_shard(s);
            }
        }
    }

    /// Fails node `i` and fences it: every shard inside is failed, so
    /// queued work sheds deterministically and no stranded copy can run
    /// later — the edge then re-dispatches from pristine inputs.
    /// Idempotent.
    pub fn fail_node(&mut self, i: usize) {
        if !self.members.fail(i, self.now.get()) {
            return;
        }
        let d = &mut self.nodes[i].d;
        for s in 0..d.config().shards {
            d.fail_shard(s);
        }
    }

    /// Schedules a gray failure: node `node` becomes unreachable at
    /// virtual second `at_s` for `duration_s` (no heartbeats, no
    /// progress), then answers probes again. The detector — not this
    /// call — declares the failure. Takes seconds, unlike its siblings,
    /// because `vperf` calls it so: both instants convert once with
    /// [`Cycles::from_secs`], the hang's end from `at_s + duration_s`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node, on a NaN, infinite or negative instant,
    /// and on a hang that would lift before it starts.
    pub fn hang_node_at(&mut self, at_s: f64, node: usize, duration_s: f64) {
        assert!(node < self.nodes.len(), "unknown node");
        let until = Cycles::from_secs(at_s + duration_s);
        let at = Cycles::from_secs(at_s);
        self.members.plan.hang(at, node, Some(until));
    }

    /// Schedules a permanent node death at virtual instant `at`: a hang
    /// that never lifts.
    pub fn kill_node_at(&mut self, at: Cycles, node: usize) {
        assert!(node < self.nodes.len(), "unknown node");
        self.members.plan.hang(at, node, None);
    }

    /// Node-level [`Candidate`] rows at virtual instant `now`, index-
    /// aligned with the node list. `anchor` is the node work would leave
    /// ([`Hop::Local`], never picked by evacuation); every other node is
    /// one [`Hop::CrossNode`] away — routing from the edge passes `None`
    /// and sees a uniform cross-node price, so the decision reduces to
    /// health and load exactly as the lexicographic key orders them.
    pub fn candidates(&self, anchor: Option<usize>, now: Cycles) -> Vec<Candidate> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let load = n.d.load();
                let hop = if anchor == Some(i) {
                    Hop::Local
                } else {
                    Hop::CrossNode
                };
                Candidate {
                    shard: i,
                    queue_depth: load.queue_depth,
                    free_at: load.free_at.max(now.get()),
                    idle_shells: load.idle_shells,
                    warm_shells: load.warm_shells,
                    hop,
                    transfer_cost: hop.transfer_cost(),
                    eligible: self.routable(i),
                }
            })
            .collect()
    }

    /// Picks the node for a fresh edge request at `now` — the least
    /// loaded routable node under the engine's evacuation key (from the
    /// edge, every node is one `CrossNode` hop). `None` when no node is
    /// routable; the edge sheds.
    pub fn route(&mut self, now: Cycles) -> Option<usize> {
        let c = self.candidates(None, now);
        let picked = self.engine.evacuate(&c)?;
        self.stats.routed += 1;
        self.nodes[picked].routed += 1;
        Some(picked)
    }

    /// Picks the destination for work evacuating off node `from` —
    /// same key, `from` anchored [`Hop::Local`] so it can never receive
    /// its own evacuation. `None` when no other node is routable.
    pub fn evacuation_target(&self, from: usize, now: Cycles) -> Option<usize> {
        self.engine.evacuate(&self.candidates(Some(from), now))
    }

    /// Records `n` cross-node re-dispatches performed by the edge, each
    /// charged one [`Hop::CrossNode`] transfer.
    pub fn note_evacuations(&mut self, n: u64) {
        self.stats.evacuated += n;
        self.stats.transfer_cycles += n * Hop::CrossNode.transfer_cost();
    }

    /// Requests routed to node `i` so far.
    pub fn routed_to(&self, i: usize) -> u64 {
        self.nodes[i].routed
    }

    /// Cluster counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Node-level detector counters, when a detector is installed.
    pub fn health_stats(&self) -> Option<HealthStats> {
        self.members.health_stats()
    }

    /// Per-node detector view (suspicion, breaker, last heartbeat),
    /// index-aligned with the node list.
    pub fn node_health(&self) -> Option<Vec<ShardHealth>> {
        self.members.health_view()
    }

    /// Advances every node in lockstep virtual time to `t`, applying
    /// due faults, feeding node heartbeats, polling the detector, and
    /// converging draining nodes. Returns every lifecycle action taken;
    /// a second call at an instant already reached returns none.
    ///
    /// Alive nodes advance and heartbeat once per step (half the
    /// detector's heartbeat interval, so silence is observed promptly);
    /// a hung node is frozen — its dispatcher does not advance and its
    /// monitor slot goes silent, which is exactly what a partitioned
    /// node looks like from a control plane.
    pub fn advance_to(&mut self, t: Cycles) -> Vec<ClusterAction> {
        let mut actions = Vec::new();
        if t <= self.now {
            return actions;
        }
        let step = match self.members.heartbeat_interval() {
            Some(hb) => Cycles(hb.get() / 2).max(Cycles::from_secs(1e-6)),
            None => t - self.now,
        };
        let mut now = self.now;
        while now < t {
            now = (now + step).min(t);
            // Node faults are hangs; the member set keeps their count.
            while self.members.pop_due(now).is_some() {}

            for i in 0..self.nodes.len() {
                if !self.members.is_hung(i) {
                    self.nodes[i].d.run_to(now);
                    self.members.heartbeat(i, now.get());
                }
            }

            for a in self.members.poll(now.get()) {
                match a {
                    HealthAction::Declare(i) => {
                        self.fail_node(i);
                        actions.push(ClusterAction::NodeDeclared { node: i });
                    }
                    HealthAction::Restore(i) => {
                        self.restore_node(i);
                        actions.push(ClusterAction::NodeRestored { node: i });
                    }
                }
            }

            for i in 0..self.nodes.len() {
                if self.members.state(i) == ShardState::Draining {
                    let load = self.nodes[i].d.load();
                    if load.queue_depth == 0 && load.parked == 0 {
                        self.members.drained(i);
                        actions.push(ClusterAction::NodeDrained { node: i });
                    }
                }
            }
        }
        self.now = t;
        actions
    }

    /// Runs every reachable node to idle (end-of-run settling; any
    /// scheduled hang must already have lifted).
    pub fn settle(&mut self) {
        for i in 0..self.nodes.len() {
            if !self.members.is_hung(i) {
                self.nodes[i].d.run_to_idle();
            }
        }
    }
}

impl Default for Cluster {
    fn default() -> Cluster {
        Cluster::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{FaultPlan, LifecycleAction};
    use crate::request::{DispatcherConfig, Request};
    use crate::tenant::TenantProfile;
    use vclock::costs;
    use wasp::{VirtineSpec, Wasp};

    const MEM: usize = 64 * 1024;

    fn node() -> Dispatcher {
        Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards: 2,
                ..DispatcherConfig::default()
            },
        )
    }

    fn spec(name: &str) -> VirtineSpec {
        let img = visa::assemble(".org 0x8000\n mov r0, 7\n hlt\n").unwrap();
        VirtineSpec::new(name, img, MEM).with_snapshot(false)
    }

    fn two_node_cluster() -> (Cluster, crate::TenantId, wasp::VirtineId) {
        let mut c = Cluster::new();
        let mut tenant = None;
        let mut virtine = None;
        for _ in 0..2 {
            let mut d = node();
            let v = d.register(spec("f")).unwrap();
            let t = d.add_tenant(TenantProfile::new("app"));
            assert!(virtine.is_none() || virtine == Some(v), "ids must agree");
            tenant = Some(t);
            virtine = Some(v);
            c.add_node(d);
        }
        (c, tenant.unwrap(), virtine.unwrap())
    }

    #[test]
    fn candidates_price_every_remote_node_one_cross_node_hop() {
        let (c, _, _) = two_node_cluster();
        let rows = c.candidates(Some(0), Cycles::ZERO);
        assert_eq!(rows[0].hop, Hop::Local);
        assert_eq!(rows[0].transfer_cost, 0);
        assert_eq!(rows[1].hop, Hop::CrossNode);
        assert_eq!(rows[1].transfer_cost, costs::VSCHED_TRANSFER_CROSS_NODE);
        assert!(rows.iter().all(|r| r.eligible));
    }

    #[test]
    fn route_prefers_the_less_loaded_node() {
        let (mut c, tenant, virtine) = two_node_cluster();
        // Load node 0 with queued work it has not run yet.
        for _ in 0..4 {
            c.node_mut(0)
                .submit(Request::new(tenant, virtine, 0.0))
                .unwrap();
        }
        assert_eq!(
            c.route(Cycles::ZERO),
            Some(1),
            "deeper queue must lose the route"
        );
        assert_eq!(c.stats().routed, 1);
        assert_eq!(c.routed_to(1), 1);
    }

    #[test]
    fn drained_node_leaves_the_routable_set_and_returns_on_restore() {
        let (mut c, _, _) = two_node_cluster();
        c.drain_node(0);
        assert!(!c.routable(0));
        assert_eq!(c.route(Cycles::ZERO), Some(1));
        // An empty draining node converges to Drained on the next tick.
        let actions = c.advance_to(Cycles::from_secs(0.001));
        assert!(actions.contains(&ClusterAction::NodeDrained { node: 0 }));
        assert_eq!(c.node_state(0), ShardState::Drained);
        c.restore_node(0);
        assert!(c.routable(0));
    }

    #[test]
    fn evacuation_target_never_picks_the_failed_node() {
        let (mut c, _, _) = two_node_cluster();
        c.fail_node(0);
        assert_eq!(c.evacuation_target(0, Cycles::ZERO), Some(1));
        assert_eq!(
            c.evacuation_target(1, Cycles::ZERO),
            None,
            "only the anchor is left"
        );
    }

    #[test]
    fn detector_declares_a_hung_node_and_probes_it_back() {
        let (mut c, tenant, virtine) = two_node_cluster();
        c.set_health(HealthConfig::new().with_seed(0xC1));
        // Queue work on node 1 so fencing has something to shed.
        c.node_mut(1)
            .submit(Request::new(tenant, virtine, 0.0))
            .unwrap();
        // Node 1 partitions for 10 ms — an eternity against the 500 µs
        // heartbeat interval and threshold 4.
        c.hang_node_at(0.001, 1, 0.010);
        let actions = c.advance_to(Cycles::from_secs(0.008));
        assert!(actions.contains(&ClusterAction::NodeDeclared { node: 1 }));
        assert!(!c.routable(1));
        assert_eq!(c.node_state(1), ShardState::Failed);
        assert_eq!(c.health_stats().unwrap().declared, 1);
        assert_eq!(c.health_stats().unwrap().false_positives, 0);
        // Fencing failed every shard inside.
        assert!(c
            .node(1)
            .shard_states()
            .iter()
            .all(|s| *s == ShardState::Failed));
        // The hang lifts; recovery probes restore the node.
        let actions = c.advance_to(Cycles::from_secs(0.030));
        assert!(actions.contains(&ClusterAction::NodeRestored { node: 1 }));
        assert!(c.routable(1));
        assert_eq!(c.health_stats().unwrap().restored, 1);
        // The whole arc replays bit-for-bit under the same seed.
        let run = |seed: u64| {
            let (mut c, t, v) = two_node_cluster();
            c.set_health(HealthConfig::new().with_seed(seed));
            c.node_mut(1).submit(Request::new(t, v, 0.0)).unwrap();
            c.hang_node_at(0.001, 1, 0.010);
            let mut log = Vec::new();
            log.extend(c.advance_to(Cycles::from_secs(0.008)));
            log.extend(c.advance_to(Cycles::from_secs(0.030)));
            (log, c.health_stats().unwrap().probes)
        };
        assert_eq!(run(0xC1), run(0xC1));
    }

    #[test]
    fn a_node_walks_the_same_state_sequence_as_a_shard() {
        // Drain, converge, restore; then a 10 ms hang from 2 ms that the
        // detector declares and probes back. The node tier first.
        let (mut c, _, _) = two_node_cluster();
        c.set_health(HealthConfig::new().with_seed(0xC3));
        c.hang_node_at(0.002, 0, 0.010);
        let mut nodes = Vec::new();
        c.drain_node(0);
        assert_eq!(c.node_state(0), ShardState::Draining, "until the next step");
        c.advance_to(Cycles::from_secs(0.001));
        nodes.push(c.node_state(0));
        c.restore_node(0);
        nodes.push(c.node_state(0));
        c.advance_to(Cycles::from_secs(0.010));
        nodes.push(c.node_state(0));
        c.advance_to(Cycles::from_secs(0.030));
        nodes.push(c.node_state(0));
        assert!(
            c.advance_to(Cycles::from_secs(0.030)).is_empty(),
            "an instant already reached"
        );
        assert!(
            c.advance_to(Cycles::from_secs(0.020)).is_empty(),
            "an instant in the past"
        );

        // The shard tier, same script: the detector polls as the
        // dispatcher advances, so walk it in 100 µs steps.
        let mut d = node();
        d.set_health(HealthConfig::new().with_seed(0xC3));
        d.set_fault_plan(FaultPlan::new().hang_shard(
            Cycles::from_secs(0.002),
            0,
            Cycles::from_secs(0.010),
        ));
        let walk = |d: &mut Dispatcher, from: f64, to: f64| {
            let steps = ((to - from) / 0.0001).round() as u32;
            for k in 1..=steps {
                d.run_until(from + f64::from(k) * 0.0001);
            }
        };
        let mut shards = Vec::new();
        // A drain reconciles at once: an empty shard converges before
        // the call returns.
        let drained = d.drain_shard(0);
        assert_eq!(drained, [LifecycleAction::Drained { shard: 0 }]);
        walk(&mut d, 0.0, 0.001);
        shards.push(d.shard_state(0));
        d.restore_shard(0);
        shards.push(d.shard_state(0));
        walk(&mut d, 0.001, 0.010);
        shards.push(d.shard_state(0));
        walk(&mut d, 0.010, 0.030);
        shards.push(d.shard_state(0));

        use ShardState::{Active, Drained, Failed};
        assert_eq!(nodes, [Drained, Active, Failed, Active]);
        assert_eq!(nodes, shards, "one state machine, two tiers");
        assert_eq!(c.health_stats().unwrap().declared, 1);
        assert_eq!(d.health_stats().unwrap().declared, 1);
    }

    #[test]
    fn an_operator_restore_of_a_declared_node_routes_at_once() {
        let (mut c, _, _) = two_node_cluster();
        c.set_health(HealthConfig::new().with_seed(0xC4));
        c.hang_node_at(0.001, 1, 0.010);
        let actions = c.advance_to(Cycles::from_secs(0.008));
        assert!(actions.contains(&ClusterAction::NodeDeclared { node: 1 }));
        assert!(!c.routable(1));
        // Eligibility is the state alone: no detector poll has run since
        // the restore, and the node is routable anyway.
        c.restore_node(1);
        assert!(c.routable(1));
        assert!(c
            .candidates(None, Cycles::from_secs(0.008))
            .iter()
            .all(|r| r.eligible));
    }

    #[test]
    fn kill_is_permanent_and_evacuation_counts_transfers() {
        let (mut c, _, _) = two_node_cluster();
        c.set_health(HealthConfig::new().with_seed(0xC2));
        c.kill_node_at(Cycles::from_secs(0.001), 0);
        let actions = c.advance_to(Cycles::from_secs(0.010));
        assert!(actions.contains(&ClusterAction::NodeDeclared { node: 0 }));
        c.note_evacuations(3);
        assert_eq!(c.stats().evacuated, 3);
        assert_eq!(
            c.stats().transfer_cycles,
            3 * costs::VSCHED_TRANSFER_CROSS_NODE
        );
        // Dead for good: far later, still not routable.
        c.advance_to(Cycles::from_secs(0.100));
        assert!(!c.routable(0));
        assert_eq!(c.health_stats().unwrap().restored, 0);
    }
}
