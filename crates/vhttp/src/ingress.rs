//! Cluster ingress: the edge tier in front of a multi-node
//! [`vsched::Cluster`].
//!
//! [`dispatch`](crate::dispatch) scales the paper's §6.3 server across
//! the shards of *one* dispatcher. This module scales it across
//! dispatchers: an [`Ingress`] owns a [`Cluster`] of backend nodes and
//! everything that belongs at the edge rather than on any node —
//!
//! * **The accept-loop virtine.** The front door is itself a virtine:
//!   a long-lived acceptor whose guest loops on a *blocking* `recv`
//!   over the simulated-net doorbell connection, so between
//!   connections it is parked (the `WaitReason` machinery — holding a
//!   shell but no worker) rather than spinning, and each arriving
//!   connection wakes it exactly like §6.3's blocking `recv` wakes a
//!   handler. Eight zero bytes on the doorbell make it fall out of the
//!   loop and `hlt` at shutdown.
//! * **Client attribution.** Each connection's first line is a
//!   PROXY-protocol-style header (`PROXY VSIM <tenant> <client>`)
//!   carried on the simulated-net connection; the acceptor consumes it
//!   and the edge parses it ([`encode_proxy`] / [`parse_proxy`]), so
//!   admission is charged to the *originating* client class, not to
//!   whatever hop delivered the connection.
//! * **Edge admission accounting.** Per-tenant [`TokenBucket`]s refill
//!   in virtual time at the ingress, so an over-budget tenant is shed
//!   at the edge ([`IngressShed::EdgeRate`]) and never consumes node
//!   queue space, node rate tokens, or a cross-node hop.
//! * **Health- and load-aware routing.** Every accepted connection is
//!   routed by [`Cluster::route`] — node-level [`vsched::Candidate`]
//!   rows under the same lexicographic key that places work inside a
//!   node, every node one `CrossNode` hop from the edge — and a node
//!   the detector declares ([`Cluster::routable`] false) stops
//!   receiving new work while it is fenced and evacuated.
//! * **Exactly-once failover.** While a request can still be
//!   re-dispatched the edge keeps its pristine inputs (a live `EdgeReq`
//!   record) and the `(node, node seq)` it is currently routed to. When
//!   the detector declares a node, the cluster fences it (every shard
//!   failed — queued copies shed, nothing stranded can run later), and
//!   the ingress re-dispatches the node's live requests to
//!   [`Cluster::evacuation_target`], charging each one
//!   `VSCHED_TRANSFER_CROSS_NODE` cycles of cross-node latency. The
//!   first terminal outcome retires the record and its key, so a second
//!   completion finds nothing to attribute itself to and is counted
//!   (the `ingress_fanout` bench gates that count at zero).
//! * **O(in-flight) state.** What the edge holds per request — record,
//!   index key, pristine args — is dropped at that first terminal
//!   outcome, and finished [`EdgeCompletion`]s stream out through
//!   [`Ingress::take_completions`]: a caller that drains holds memory
//!   for the work in flight, not for the run's history.
//!
//! The whole tier runs on the virtual clock: routing, suspicion,
//! fencing, evacuation, and replay are deterministic bit-for-bit. See
//! `docs/cluster.md` for the routing rules and the handover sequence
//! diagram.

use std::collections::{BTreeMap, HashMap};

use hostsim::{HostKernel, SockId};
use kvmsim::Hypervisor;
use vclock::{costs, Clock, Cycles};
use vsched::{
    Cluster, ClusterAction, Completion, Dispatcher, DispatcherConfig, HealthConfig, HealthStats,
    Request, ShedReason, TenantId, TenantProfile, TokenBucket,
};
use vtrace::TraceCollector;
use wasp::{HypercallMask, Invocation, VirtineId, VirtineSpec, Wasp, WaspConfig};

/// Port the edge doorbell connection rides on.
const DOORBELL_PORT: u16 = 79;
/// Guest memory for the acceptor virtine.
const ACCEPTOR_MEM: usize = 64 * 1024;
/// Virtual slack given to the edge dispatcher after a doorbell ring so
/// the acceptor's wake lands on a batch tick (edge ticks are 50 µs).
const ACCEPT_SLACK_S: f64 = 0.000_2;

/// Completions the outbox has room for before it first grows: 32 MiB of
/// *address space*, not memory. A block this large is mapped directly by
/// the system allocator — pages the run never writes are never resident,
/// and growing it remaps instead of copy-and-free — so a caller that
/// never drains (a bench collecting the whole run) pays for its
/// completions and nothing else. Left to double inside the heap, the
/// outbox strands its freed 1 + 2 + … + 16 MiB predecessors between
/// longer-lived blocks: 77 MiB peak RSS against 57 on `vperf`'s 300 k
/// request `cluster_fanout`.
const OUTBOX_RESERVE: usize = 1 << 19;

/// Builds the PROXY-style attribution line a connection carries as its
/// first bytes: `PROXY VSIM <tenant index> <client id>\r\n`.
pub fn encode_proxy(tenant: usize, client: u64) -> Vec<u8> {
    format!("PROXY VSIM {tenant} {client}\r\n").into_bytes()
}

/// Parses an [`encode_proxy`] attribution line back into
/// `(tenant index, client id, header length)`. `None` on anything that
/// is not a well-formed header — the edge sheds such connections rather
/// than guessing an attribution.
pub fn parse_proxy(bytes: &[u8]) -> Option<(usize, u64, usize)> {
    let end = bytes.windows(2).position(|w| w == b"\r\n")?;
    let line = std::str::from_utf8(&bytes[..end]).ok()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "PROXY" || parts.next()? != "VSIM" {
        return None;
    }
    let tenant = parts.next()?.parse().ok()?;
    let client = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((tenant, client, end + 2))
}

/// Why the ingress refused or abandoned a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressShed {
    /// The tenant's *edge* token bucket was empty: shed at the front
    /// door, no node ever saw the request.
    EdgeRate,
    /// The attribution header did not parse; the connection cannot be
    /// charged to anyone, so it is refused.
    BadAttribution,
    /// No routable node (every node draining, drained, or failed).
    NoHealthyNode,
    /// A backend node's own admission shed it (its [`ShedReason`]).
    Node(ShedReason),
}

/// Edge counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Connections offered to the edge.
    pub offered: u64,
    /// Connections that passed edge admission and were routed to a
    /// node.
    pub accepted: u64,
    /// Connections shed by the edge rate bucket.
    pub shed_edge_rate: u64,
    /// Connections refused for an unparseable attribution header.
    pub shed_bad_attribution: u64,
    /// Connections (or failover re-dispatches) dropped because no node
    /// was routable.
    pub shed_no_node: u64,
    /// Requests a backend node's own admission shed.
    pub shed_node: u64,
    /// Failover re-dispatches to a surviving node after a declaration.
    pub redispatched: u64,
    /// Terminal completions delivered to the edge.
    pub completed: u64,
    /// Node completions no live request answers for — a second terminal
    /// outcome, or work the edge never routed: the exactly-once
    /// tripwire; the bench gates it at zero.
    pub duplicates: u64,
    /// Times the parked acceptor virtine was woken by a doorbell ring.
    pub acceptor_wakes: u64,
}

impl IngressStats {
    /// Total edge-or-node sheds across every cause.
    pub fn shed(&self) -> u64 {
        self.shed_edge_rate + self.shed_bad_attribution + self.shed_no_node + self.shed_node
    }
}

/// The pristine record the edge keeps per accepted connection — enough
/// to re-run the request from scratch on another node. It lives until
/// the request's first terminal outcome (a node completion, or a shed
/// during failover) and is dropped there, args and all.
#[derive(Debug)]
struct EdgeReq {
    tenant: TenantId,
    client: u64,
    virtine: VirtineId,
    args: Vec<u8>,
    arrival: f64,
    /// Node currently responsible and the seq its dispatcher assigned —
    /// this record's one key in `Ingress::index`.
    node: usize,
    node_seq: u64,
    attempts: u32,
}

/// A terminal completion as the edge saw it.
#[derive(Debug, Clone)]
pub struct EdgeCompletion {
    /// Edge-assigned sequence number (offer order).
    pub edge_seq: u64,
    /// Originating tenant.
    pub tenant: TenantId,
    /// Attributed client id.
    pub client: u64,
    /// Node that served the request.
    pub node: usize,
    /// Arrival at the edge (virtual seconds).
    pub arrival: f64,
    /// Completion instant on the serving node.
    pub finish: f64,
    /// Pure service time on the serving node.
    pub service: f64,
    /// Submissions it took (1 = no failover).
    pub attempts: u32,
    /// Whether any attempt crossed nodes after a declaration.
    pub evacuated: bool,
}

/// The settled outcome of an ingress run ([`Ingress::finish`]).
#[derive(Debug)]
pub struct IngressRun {
    /// Terminal completions in edge-arrival order — those
    /// [`Ingress::take_completions`] had not already handed out.
    pub completions: Vec<EdgeCompletion>,
    /// Accepted requests that ended with neither a completion nor a
    /// shed — must be zero.
    pub lost: u64,
    /// Edge counters at the end of the run.
    pub stats: IngressStats,
    /// Node-level detector counters, when health was installed.
    pub health: Option<HealthStats>,
    /// The acceptor virtine's own completion (normal exit after the
    /// shutdown doorbell).
    pub acceptor: Completion,
}

/// The edge tier: accept-loop virtine, attribution, per-tenant edge
/// admission, health/load routing, and exactly-once failover over an
/// owned [`Cluster`].
pub struct Ingress {
    kernel: HostKernel,
    edge: Dispatcher,
    doorbell: SockId,
    cluster: Cluster,
    tenants: Vec<EdgeTenant>,
    /// Live requests by edge sequence number; failover re-submits in
    /// this (arrival) order.
    reqs: BTreeMap<u64, EdgeReq>,
    /// `(node, node seq) → edge seq` for completion attribution: one key
    /// per live record, naming where it is routed now.
    index: HashMap<(usize, u64), u64>,
    /// The next accepted connection's edge sequence number.
    next_seq: u64,
    /// Terminal completions not yet handed to the caller.
    outbox: Vec<EdgeCompletion>,
    stats: IngressStats,
    trace: TraceCollector,
    /// Trace id of the next edge shed. A connection shed at the edge
    /// never gets an edge sequence number, so its trace is keyed from a
    /// space counting down from `u64::MAX` — disjoint from sequence
    /// numbers, exactly as `Dispatcher` keys its door sheds.
    next_shed_trace: u64,
    now_s: f64,
}

/// What the edge knows of a connection once its attribution parsed —
/// the head of its trace, whichever id the trace ends up under.
struct Accepted {
    tenant: usize,
    client: u64,
    virtine: u64,
    at: Cycles,
}

struct EdgeTenant {
    id: TenantId,
    name: String,
    bucket: TokenBucket,
}

impl Ingress {
    /// An ingress over `nodes` backend nodes of `shards_per_node`
    /// shards each, with the acceptor virtine already parked on the
    /// doorbell.
    pub fn new(nodes: usize, shards_per_node: usize) -> Ingress {
        assert!(nodes >= 1, "need at least one backend node");
        let clock = Clock::new();
        let kernel = HostKernel::new(clock, None);
        kernel.net_listen(DOORBELL_PORT).expect("listen");
        let doorbell = kernel.net_connect(DOORBELL_PORT).expect("connect");
        let server = kernel
            .net_accept(DOORBELL_PORT)
            .expect("accept")
            .expect("pending doorbell");

        // The edge's own dispatcher: one shard, one tenant, one
        // long-lived virtine. The acceptor loops on a blocking recv —
        // empty doorbell parks it; any ring wakes it; a zero qword is
        // the shutdown pill.
        let wasp = Wasp::new(Hypervisor::kvm(kernel.clone()), WaspConfig::default());
        let mut edge = Dispatcher::new(
            wasp,
            DispatcherConfig {
                shards: 1,
                ..DispatcherConfig::default()
            },
        );
        let img = wasp::hypercall::assemble(
            "
.org 0x8000
accept:
  mov r0, HC_RECV
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0            ; flags: blocking
  out HC_PORT, r0
  mov r4, 0x4000
  load.q r5, [r4]      ; first qword of the line
  cmp r5, 0
  jne accept           ; attribution line: consume and re-park
  hlt                  ; zero qword: shutdown
",
        )
        .expect("acceptor image");
        let spec = VirtineSpec::new("acceptor", img, ACCEPTOR_MEM)
            .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
            .with_snapshot(false);
        let acceptor = edge.register(spec).expect("register acceptor");
        let edge_tenant = edge.add_tenant(
            TenantProfile::new("ingress").with_mask(HypercallMask::allowing(&[wasp::nr::RECV])),
        );
        edge.submit(
            Request::new(edge_tenant, acceptor, 0.0).with_invocation(Invocation::with_conn(server)),
        )
        .expect("park acceptor");

        let mut cluster = Cluster::new();
        for _ in 0..nodes {
            cluster.add_node(Dispatcher::new(
                Wasp::new_kvm_default(),
                DispatcherConfig {
                    shards: shards_per_node,
                    ..DispatcherConfig::default()
                },
            ));
        }

        Ingress {
            kernel,
            edge,
            doorbell,
            cluster,
            tenants: Vec::new(),
            reqs: BTreeMap::new(),
            index: HashMap::new(),
            next_seq: 0,
            outbox: Vec::with_capacity(OUTBOX_RESERVE),
            stats: IngressStats::default(),
            trace: TraceCollector::disabled(),
            next_shed_trace: u64::MAX,
            now_s: 0.0,
        }
    }

    /// Registers a virtine spec on *every* node, asserting the nodes
    /// hand back the same id (the edge keys its records by one id).
    pub fn register(&mut self, spec: VirtineSpec) -> VirtineId {
        let mut id = None;
        for i in 0..self.cluster.len() {
            let got = self
                .cluster
                .node_mut(i)
                .register(spec.clone())
                .expect("register on node");
            assert!(id.is_none() || id == Some(got), "node ids diverged");
            id = Some(got);
        }
        id.expect("at least one node")
    }

    /// Registers a tenant on every node with `profile`, and at the edge
    /// with a `rate_rps`/`burst` token bucket. Edge and node accounting
    /// are deliberately separate layers: the edge bucket is the
    /// platform's admission contract (shed before any node is touched),
    /// while the node profile bounds what one node will take on — keep
    /// node rates unlimited unless a test wants node-level sheds.
    pub fn add_tenant(&mut self, profile: TenantProfile, rate_rps: f64, burst: f64) -> TenantId {
        let mut id = None;
        for i in 0..self.cluster.len() {
            let got = self.cluster.node_mut(i).add_tenant(profile.clone());
            assert!(id.is_none() || id == Some(got), "tenant ids diverged");
            id = Some(got);
        }
        let id = id.expect("at least one node");
        assert_eq!(id.index(), self.tenants.len(), "edge table out of step");
        self.tenants.push(EdgeTenant {
            id,
            name: profile.name.clone(),
            bucket: TokenBucket::new(rate_rps, burst),
        });
        id
    }

    /// Installs the node-level failure detector on the cluster.
    pub fn set_health(&mut self, config: HealthConfig) {
        self.cluster.set_health(config);
    }

    /// Retains the last `capacity` finished edge traces (offer →
    /// route → complete/shed spans on the virtual clock).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceCollector::with_capacity(capacity);
    }

    /// The cluster underneath.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the cluster (fault planning, operator
    /// lifecycle, per-node knobs).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Edge counters.
    pub fn stats(&self) -> IngressStats {
        self.stats
    }

    /// Accepted requests that have not reached a terminal outcome — the
    /// records the edge is holding right now (the
    /// `vsched_ingress_live_requests` gauge).
    pub fn live_requests(&self) -> usize {
        self.reqs.len()
    }

    /// Removes and returns the terminal completions recorded since the
    /// last call, in the order they landed — the same contract as
    /// [`Dispatcher::take_completions`]. A long-lived caller drains here
    /// and holds O(in-flight) state; whatever is never taken comes back
    /// from [`Ingress::finish`].
    pub fn take_completions(&mut self) -> Vec<EdgeCompletion> {
        std::mem::take(&mut self.outbox)
    }

    /// Finished edge traces as JSON lines, newest first.
    pub fn trace_json(&self, limit: usize) -> String {
        self.trace.json_lines(None, limit, &|t| {
            self.tenants
                .get(t)
                .map_or_else(|| format!("tenant{t}"), |e| e.name.clone())
        })
    }

    /// Records one edge span — when tracing is on. `detail` is only
    /// called then, so the disabled path never formats a detail string.
    fn tspan(
        &mut self,
        id: u64,
        label: &'static str,
        detail: impl FnOnce() -> String,
        start: Cycles,
        end: Cycles,
    ) {
        if self.trace.enabled() {
            self.trace.span(id, label, detail(), start, end);
        }
    }

    /// Closes an edge trace with its terminal outcome, likewise: pass a
    /// literal or `format_args!`, rendered only when tracing is on.
    fn tfinish(&mut self, id: u64, outcome: impl std::fmt::Display, at: Cycles) {
        if self.trace.enabled() {
            self.trace.finish(id, &outcome.to_string(), at);
        }
    }

    /// Opens connection `conn`'s edge trace under `id` with its accept
    /// span.
    fn trace_accept(&mut self, id: u64, conn: &Accepted) {
        self.trace.begin(id, conn.tenant, conn.virtine, conn.at);
        let client = || format!("client={}", conn.client);
        self.tspan(id, "ingress_accept", client, conn.at, conn.at);
    }

    /// Traces a connection shed at the edge, under an id of its own (see
    /// `next_shed_trace`): the edge sequence number it was never given
    /// stays free for the next accepted connection's trace.
    fn trace_shed(&mut self, conn: &Accepted, outcome: impl std::fmt::Display) {
        if self.trace.enabled() {
            let id = self.next_shed_trace;
            self.next_shed_trace -= 1;
            self.trace_accept(id, conn);
            self.tfinish(id, outcome, conn.at);
        }
    }

    fn ring_doorbell(&mut self, line: &[u8], at_s: f64) {
        let before = self.edge.stats().resumed;
        self.kernel.net_send(self.doorbell, line).expect("doorbell");
        self.edge.run_until(at_s + ACCEPT_SLACK_S);
        self.stats.acceptor_wakes += self.edge.stats().resumed - before;
    }

    /// Offers a connection to the edge at `arrival_s`: the doorbell
    /// wakes the parked acceptor with the attribution line, the edge
    /// parses the same line, charges the tenant's edge bucket, routes
    /// by health and load, and submits to the chosen node. Returns the
    /// edge sequence number, or why the connection was shed.
    ///
    /// `args` are the pristine request inputs; the edge keeps a copy so
    /// failover can re-run the request on another node. Attribution
    /// (`PROXY VSIM <tenant> <client>`) is prepended to the submitted
    /// args, so the backend sees exactly what a proxied connection
    /// would carry.
    pub fn offer(
        &mut self,
        tenant: TenantId,
        client: u64,
        virtine: VirtineId,
        args: &[u8],
        arrival_s: f64,
    ) -> Result<u64, IngressShed> {
        self.stats.offered += 1;
        self.advance(arrival_s.max(self.now_s));
        let edge_seq = self.next_seq;
        let now = Cycles::from_secs(arrival_s);

        // The connection's first bytes carry the attribution; the
        // acceptor virtine consumes them off the wire and the edge
        // parses its own copy — one line, two readers.
        let line = encode_proxy(tenant.index(), client);
        self.ring_doorbell(&line, arrival_s);
        let Some((t_idx, parsed_client, _)) = parse_proxy(&line) else {
            self.stats.shed_bad_attribution += 1;
            return Err(IngressShed::BadAttribution);
        };
        debug_assert_eq!((t_idx, parsed_client), (tenant.index(), client));

        let conn = Accepted {
            tenant: t_idx,
            client,
            virtine: virtine.into_raw() as u64,
            at: now,
        };

        let edge_tenant = &mut self.tenants[t_idx];
        assert_eq!(edge_tenant.id, tenant, "unknown tenant");
        if !edge_tenant.bucket.admit(now) {
            self.stats.shed_edge_rate += 1;
            self.trace_shed(&conn, "shed:edge_rate");
            return Err(IngressShed::EdgeRate);
        }

        let Some(node) = self.cluster.route(now) else {
            self.stats.shed_no_node += 1;
            self.trace_shed(&conn, "shed:no_healthy_node");
            return Err(IngressShed::NoHealthyNode);
        };

        let mut full_args = line;
        full_args.extend_from_slice(args);
        let node_seq = match self
            .cluster
            .node_mut(node)
            .submit(Request::new(tenant, virtine, arrival_s).with_args(full_args))
        {
            Ok(seq) => seq,
            Err(reason) => {
                self.stats.shed_node += 1;
                self.trace_shed(&conn, format_args!("shed:node:{reason:?}"));
                return Err(IngressShed::Node(reason));
            }
        };

        // Accepted: only now does the connection own its edge sequence
        // number, and its trace the id.
        self.trace_accept(edge_seq, &conn);
        let route = || format!("node={node} node_seq={node_seq}");
        self.tspan(edge_seq, "ingress_route", route, now, now);
        self.stats.accepted += 1;
        self.next_seq += 1;
        self.index.insert((node, node_seq), edge_seq);
        let req = EdgeReq {
            tenant,
            client,
            virtine,
            args: args.to_vec(),
            arrival: arrival_s,
            node,
            node_seq,
            attempts: 1,
        };
        self.reqs.insert(edge_seq, req);
        Ok(edge_seq)
    }

    /// Drains terminal completions from every node. A completion retires
    /// the live record its `(node, node seq)` names — first terminal
    /// outcome wins — and goes to the outbox; one that names no live
    /// record is a second outcome for a request already retired (or work
    /// the edge never routed) and trips the exactly-once tripwire.
    fn collect_completions(&mut self) {
        for node in 0..self.cluster.len() {
            for c in self.cluster.node_mut(node).take_completions() {
                let Some(edge_seq) = self.index.remove(&(node, c.seq)) else {
                    self.stats.duplicates += 1;
                    continue;
                };
                let req = self
                    .reqs
                    .remove(&edge_seq)
                    .expect("a key names a live record");
                self.stats.completed += 1;
                let attempts = req.attempts;
                self.outbox.push(EdgeCompletion {
                    edge_seq,
                    tenant: req.tenant,
                    client: req.client,
                    node,
                    arrival: req.arrival,
                    finish: c.finish,
                    service: c.service,
                    attempts,
                    evacuated: attempts > 1,
                });
                let at = Cycles::from_secs(c.finish);
                let detail = || format!("node={node} attempts={attempts}");
                self.tspan(edge_seq, "ingress_complete", detail, at, at);
                self.tfinish(edge_seq, "ok", at);
            }
        }
    }

    /// Retires live request `edge_seq`, shed during failover: record and
    /// key go, and its trace closes with `outcome`.
    fn shed_live(&mut self, edge_seq: u64, outcome: impl std::fmt::Display, at: Cycles) {
        let req = self.reqs.remove(&edge_seq).expect("live record");
        self.index.remove(&(req.node, req.node_seq));
        self.tfinish(edge_seq, outcome, at);
    }

    /// Re-dispatches every live request routed to a declared node, in
    /// edge-arrival order. The node was fenced before this runs (all
    /// shards failed), so no copy of this work can still execute there —
    /// re-running the pristine inputs elsewhere cannot double-run. Each
    /// re-dispatch pays the cross-node transfer as arrival latency, and
    /// its new `(node, node seq)` replaces the superseded key.
    fn redispatch_from(&mut self, failed: usize, t_s: f64) {
        let transfer_s = Cycles(costs::VSCHED_TRANSFER_CROSS_NODE).as_secs();
        let live = self.reqs.iter().filter(|(_, r)| r.node == failed);
        let pending: Vec<u64> = live.map(|(&seq, _)| seq).collect();
        let mut moved = 0;
        let now = Cycles::from_secs(t_s);
        for edge_seq in pending {
            let Some(dst) = self.cluster.evacuation_target(failed, now) else {
                self.stats.shed_no_node += 1;
                self.shed_live(edge_seq, "shed:no_healthy_node", now);
                continue;
            };
            let req = &self.reqs[&edge_seq];
            let mut full_args = encode_proxy(req.tenant.index(), req.client);
            full_args.extend_from_slice(&req.args);
            let resubmit =
                Request::new(req.tenant, req.virtine, t_s + transfer_s).with_args(full_args);
            match self.cluster.node_mut(dst).submit(resubmit) {
                Ok(node_seq) => {
                    let req = self.reqs.get_mut(&edge_seq).expect("live record");
                    self.index.remove(&(failed, req.node_seq));
                    self.index.insert((dst, node_seq), edge_seq);
                    (req.node, req.node_seq) = (dst, node_seq);
                    req.attempts += 1;
                    moved += 1;
                    self.stats.redispatched += 1;
                    let landed = Cycles::from_secs(t_s + transfer_s);
                    let hop = || format!("from={failed} to={dst}");
                    self.tspan(edge_seq, "ingress_evacuate", hop, now, landed);
                }
                Err(reason) => {
                    self.stats.shed_node += 1;
                    self.shed_live(edge_seq, format_args!("shed:node:{reason:?}"), now);
                }
            }
        }
        self.cluster.note_evacuations(moved);
    }

    /// Advances the whole tier — edge dispatcher and cluster — to
    /// virtual second `t_s`, collecting completions and handling any
    /// node declarations with cross-node failover. Returns the
    /// cluster's lifecycle actions.
    pub fn advance(&mut self, t_s: f64) -> Vec<ClusterAction> {
        if t_s <= self.now_s {
            return Vec::new();
        }
        self.edge.run_until(t_s);
        let actions = self.cluster.advance_to(Cycles::from_secs(t_s));
        // Completions first: work that finished before a declaration is
        // terminal and must not be re-run.
        self.collect_completions();
        for a in &actions {
            if let ClusterAction::NodeDeclared { node } = a {
                self.redispatch_from(*node, t_s);
            }
        }
        self.now_s = t_s;
        actions
    }

    /// Shuts the tier down: the doorbell gets the zero pill (the
    /// acceptor falls out of its loop and halts), every node settles,
    /// and the edge records reconcile: the run carries every completion
    /// [`Ingress::take_completions`] has not already handed out, and a
    /// record still live is a lost request. Panics if the acceptor did not
    /// exit normally — a parked or killed acceptor means the front door
    /// machinery is broken.
    pub fn finish(mut self) -> IngressRun {
        // Let in-flight work land before the pill, then stop the
        // acceptor and settle the backends.
        self.edge.run_until(self.now_s);
        self.kernel
            .net_send(self.doorbell, &0u64.to_le_bytes())
            .expect("shutdown pill");
        self.edge.run_to_idle();
        let acceptor = self
            .edge
            .take_completions()
            .pop()
            .expect("acceptor completion");
        assert!(acceptor.exit_normal, "acceptor died abnormally");

        self.cluster.settle();
        self.collect_completions();

        let mut completions = self.outbox;
        completions.sort_unstable_by_key(|c| c.edge_seq);
        IngressRun {
            completions,
            lost: self.reqs.len() as u64,
            stats: self.stats,
            health: self.cluster.health_stats(),
            acceptor,
        }
    }

    /// The Prometheus text rendering of the edge tier: every family of
    /// `vhttp::expo::EDGE`, in table order — ingress counters plus
    /// per-node routing, lifecycle, and suspicion gauges. Backend node
    /// internals are each node's own
    /// [`prometheus_text`](crate::dispatch::prometheus_text) surface;
    /// this is the layer above it.
    pub fn metrics(&self) -> String {
        crate::expo::render(crate::expo::EDGE, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halt_spec(name: &str) -> VirtineSpec {
        let img = visa::assemble(".org 0x8000\n mov r0, 7\n hlt\n").unwrap();
        VirtineSpec::new(name, img, 64 * 1024).with_snapshot(false)
    }

    fn ingress(nodes: usize) -> (Ingress, TenantId, VirtineId) {
        let mut ing = Ingress::new(nodes, 2);
        let v = ing.register(halt_spec("f"));
        let t = ing.add_tenant(TenantProfile::new("app"), f64::INFINITY, f64::INFINITY);
        (ing, t, v)
    }

    #[test]
    fn proxy_attribution_round_trips() {
        let line = encode_proxy(3, 0xDEAD_BEEF);
        let (tenant, client, len) = parse_proxy(&line).unwrap();
        assert_eq!((tenant, client, len), (3, 0xDEAD_BEEF, line.len()));
        // Prefixed payload still parses: header length delimits it.
        let mut framed = line.clone();
        framed.extend_from_slice(b"GET / HTTP/1.0\r\n");
        let (_, _, len) = parse_proxy(&framed).unwrap();
        assert_eq!(&framed[len..], b"GET / HTTP/1.0\r\n");
        // Garbage is refused, not guessed.
        assert!(parse_proxy(b"PROXY TCP4 1 2\r\n").is_none());
        assert!(parse_proxy(b"PROXY VSIM 1\r\n").is_none());
        assert!(parse_proxy(b"PROXY VSIM 1 2 3\r\n").is_none());
        assert!(parse_proxy(b"no header at all").is_none());
    }

    #[test]
    fn connections_complete_across_nodes_and_the_acceptor_parks_between() {
        let (mut ing, t, v) = ingress(2);
        // One burst: queue depth grows as the burst lands, so
        // least-loaded routing alternates nodes.
        for i in 0..6 {
            ing.offer(t, i, v, b"", 0.001).unwrap();
        }
        ing.advance(0.05);
        // The front door was woken per ring and is parked again now.
        assert!(ing.stats().acceptor_wakes >= 1);
        let run = ing.finish();
        assert_eq!(run.completions.len(), 6);
        assert_eq!(run.lost, 0);
        assert_eq!(run.stats.duplicates, 0);
        assert!(run.acceptor.exit_normal);
        assert!(run.acceptor.resumes >= 1, "acceptor never parked");
        // Both nodes saw work: least-loaded routing spreads the burst.
        assert!(run.completions.iter().any(|c| c.node == 0));
        assert!(run.completions.iter().any(|c| c.node == 1));
    }

    #[test]
    fn edge_budget_exhaustion_sheds_before_any_node() {
        let (mut ing, t, v) = ingress(2);
        // Re-register a tight tenant: 2-token burst, slow refill.
        let tight = ing.add_tenant(TenantProfile::new("tight"), 10.0, 2.0);
        let mut shed = 0;
        for i in 0..5 {
            match ing.offer(tight, i, v, b"", 0.0001 * (i + 1) as f64) {
                Ok(_) => {}
                Err(IngressShed::EdgeRate) => shed += 1,
                Err(other) => panic!("unexpected shed {other:?}"),
            }
        }
        assert_eq!(shed, 3, "burst of 2 admits 2 of 5");
        // The shed connections never reached a node: node-side
        // submitted counts equal the accepted connections exactly.
        let node_submitted: u64 = (0..ing.cluster().len())
            .map(|i| ing.cluster().node(i).stats().submitted)
            .sum();
        assert_eq!(node_submitted, ing.stats().accepted);
        assert_eq!(ing.stats().shed_edge_rate, 3);
        let run = ing.finish();
        assert_eq!(run.completions.len(), 2);
        assert_eq!(run.lost, 0);
        let _ = t;
    }

    #[test]
    fn connection_arriving_during_node_drain_routes_around_it() {
        let (mut ing, t, v) = ingress(2);
        // Two pre-drain offers (empty-cluster ties route to node 0),
        // then drain node 0 mid-run.
        ing.offer(t, 0, v, b"", 0.001).unwrap();
        ing.offer(t, 1, v, b"", 0.002).unwrap();
        assert_eq!(ing.cluster().routed_to(0), 2, "ties route to node 0");
        ing.cluster_mut().drain_node(0);
        // Every connection arriving mid-drain lands on node 1.
        for i in 2..6 {
            ing.offer(t, i, v, b"", 0.003 + 0.001 * i as f64).unwrap();
        }
        assert_eq!(ing.cluster().routed_to(0), 2, "no routes after drain");
        assert_eq!(ing.cluster().routed_to(1), 4);
        let run = ing.finish();
        // Nothing was lost: in-flight work on the draining node
        // completed in place.
        assert_eq!(run.completions.len(), 6);
        assert_eq!(run.lost, 0);
    }

    #[test]
    fn declared_node_is_fenced_and_its_work_replayed_cross_node() {
        let (mut ing, t, _) = ingress(2);
        // Slow spins: work routed to node 0 is still queued when the
        // node wedges, so the replay path must actually fire.
        let slow = visa::assemble(
            "
.org 0x8000
  mov r1, 0xA000
  mov r2, 0
spin:
  store.q [r1], r2
  add r2, 1
  cmp r2, 40000
  jl spin
  hlt
",
        )
        .unwrap();
        let v = ing.register(VirtineSpec::new("slow", slow, 64 * 1024).with_snapshot(false));
        ing.set_health(HealthConfig::new().with_seed(0x1A6));
        // A burst at t=0.0002: least-loaded routing splits it between
        // the nodes, and every request needs milliseconds of spin.
        for i in 0..4 {
            ing.offer(t, i, v, b"", 0.0002).unwrap();
        }
        let on_zero = ing.cluster().routed_to(0);
        assert!(on_zero >= 1, "burst must land work on node 0");
        // Node 0 wedges before its first batch tick, queue still full;
        // the detector declares it; the edge replays its unresolved
        // work on node 1.
        ing.cluster_mut().hang_node_at(0.0003, 0, 0.200);
        let mut declared = false;
        for step in 1..=12 {
            for a in ing.advance(0.001 * step as f64) {
                declared |= matches!(a, ClusterAction::NodeDeclared { node: 0 });
            }
        }
        assert!(declared, "detector never declared the hung node");
        assert!(!ing.cluster().routable(0));
        assert!(ing.stats().redispatched >= 1, "replay path never fired");
        // Once the replayed work has completed on its new node nothing is
        // left at the edge: no record, and neither the superseded key
        // nor the one that replaced it.
        ing.advance(0.1);
        assert_eq!(ing.stats().completed, 4);
        assert!(ing.reqs.is_empty(), "live records: {:?}", ing.reqs);
        assert!(ing.index.is_empty(), "stale keys: {:?}", ing.index);
        let run = ing.finish();
        assert_eq!(run.lost, 0, "fenced work must be replayed, not lost");
        assert_eq!(run.stats.duplicates, 0, "replay must not double-run");
        assert_eq!(run.completions.len(), 4);
        assert_eq!(run.health.unwrap().declared, 1);
        assert!(
            run.completions.iter().any(|c| c.evacuated && c.node == 1),
            "an evacuated request should finish on the survivor"
        );
    }

    #[test]
    fn a_completion_no_live_request_answers_for_trips_the_tripwire() {
        let (mut ing, t, v) = ingress(2);
        ing.offer(t, 0, v, b"", 0.001).unwrap();
        // Work the edge never routed, straight onto a backend node: its
        // completion names no live record, exactly as a second completion
        // of an already-retired request would.
        let stray = Request::new(t, v, 0.001);
        ing.cluster_mut().node_mut(1).submit(stray).unwrap();
        ing.advance(0.05);
        assert_eq!(ing.stats().duplicates, 1);
        assert_eq!(ing.stats().completed, 1);
        assert!(ing.metrics().contains("vsched_ingress_duplicates_total 1"));
        let run = ing.finish();
        assert_eq!((run.completions.len(), run.lost), (1, 0));
    }

    /// Drives `n` offers at a fixed virtual rate with one node hang early
    /// in the run, draining `take_completions` every 256 offers. Returns
    /// the high-water marks of live records and index keys, every
    /// completion's edge seq (taken, then returned), and the run.
    fn drained_run(n: u64) -> (usize, usize, Vec<u64>, IngressRun) {
        let (mut ing, t, v) = ingress(3);
        ing.set_health(HealthConfig::new().with_seed(0xB0B));
        ing.cluster_mut().hang_node_at(0.004, 1, 0.010);
        let (mut live_hw, mut index_hw, mut seqs) = (0, 0, Vec::new());
        for i in 0..n {
            ing.offer(t, i, v, b"payload", 0.001 + i as f64 * 4e-6)
                .unwrap();
            live_hw = live_hw.max(ing.reqs.len());
            index_hw = index_hw.max(ing.index.len());
            assert_eq!(ing.live_requests(), ing.index.len(), "one key per record");
            if i % 256 == 255 {
                seqs.extend(ing.take_completions().iter().map(|c| c.edge_seq));
            }
        }
        let run = ing.finish();
        seqs.extend(run.completions.iter().map(|c| c.edge_seq));
        (live_hw, index_hw, seqs, run)
    }

    #[test]
    fn edge_state_is_bounded_by_work_in_flight_not_by_history() {
        let (live_small, index_small, ..) = drained_run(2_000);
        let (live, index, mut seqs, run) = drained_run(20_000);
        // Ten times the history, the same footprint: the hang episode
        // sets the high-water mark and nothing accumulates after it.
        assert_eq!((live, index), (live_small, index_small));
        assert!(run.stats.redispatched >= 1, "the hang never bit");
        assert!(
            run.completions.len() < 256,
            "finish returns the undrained tail"
        );
        // Taken plus returned is every request, exactly once.
        seqs.sort_unstable();
        assert!(
            seqs.iter().copied().eq(0..20_000),
            "a completion went missing"
        );
        assert_eq!((run.lost, run.stats.duplicates), (0, 0));
    }

    #[test]
    fn metrics_surface_ingress_series() {
        let (mut ing, t, v) = ingress(2);
        ing.offer(t, 7, v, b"", 0.001).unwrap();
        assert!(ing.metrics().contains("vsched_ingress_live_requests 1"));
        ing.advance(0.01);
        let m = ing.metrics();
        assert!(m.contains("vsched_ingress_live_requests 0"));
        assert!(m.contains("vsched_ingress_offered_total 1"));
        assert!(m.contains("vsched_ingress_accepted_total 1"));
        assert!(m.contains("vsched_ingress_routed_total{node=\"0\"}"));
        assert!(m.contains("vsched_ingress_node_state{node=\"1\"} 0"));
        assert!(m.contains("vsched_ingress_duplicates_total 0"));
    }

    #[test]
    fn edge_shed_traces_never_share_an_id_with_an_accepted_connection() {
        let (mut ing, _, v) = ingress(1);
        ing.enable_tracing(16);
        // A one-token edge bucket that refills every 10 ms.
        let tight = ing.add_tenant(TenantProfile::new("tight"), 100.0, 1.0);
        // Shed (no routable node), accept, shed (bucket empty), accept.
        ing.cluster_mut().drain_node(0);
        let refused = ing.offer(tight, 0, v, b"", 0.001);
        assert_eq!(refused, Err(IngressShed::NoHealthyNode));
        ing.cluster_mut().restore_node(0);
        let first = ing.offer(tight, 1, v, b"", 0.020).unwrap();
        let refused = ing.offer(tight, 2, v, b"", 0.021);
        assert_eq!(refused, Err(IngressShed::EdgeRate));
        let second = ing.offer(tight, 3, v, b"", 0.040).unwrap();
        ing.advance(0.1);

        let traces: Vec<_> = ing.trace.finished().collect();
        assert_eq!(traces.len(), 4, "every offer left one finished trace");
        let mut ids: Vec<u64> = traces.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "two trees under one id: {traces:#?}");
        // An accepted connection's trace is keyed by its edge sequence
        // number; a shed one never had a number to be keyed by.
        let served = traces.iter().filter(|t| t.outcome == "ok");
        assert_eq!(served.map(|t| t.id).collect::<Vec<_>>(), [first, second]);
        let shed = traces.iter().filter(|t| t.outcome.starts_with("shed:"));
        assert!(shed.clone().count() == 2 && shed.clone().all(|t| t.id > second));
        assert!(shed
            .flat_map(|t| &t.spans)
            .all(|s| s.label == "ingress_accept"));
    }

    #[test]
    fn edge_traces_record_the_route_and_completion() {
        let (mut ing, t, v) = ingress(2);
        ing.enable_tracing(16);
        ing.offer(t, 1, v, b"", 0.001).unwrap();
        ing.advance(0.01);
        let json = ing.trace_json(16);
        assert!(json.contains("ingress_accept"));
        assert!(json.contains("ingress_route"));
        assert!(json.contains("ingress_complete"));
    }
}
