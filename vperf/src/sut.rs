//! The system under test, as the benchmark sees it.
//!
//! Every call the benchmark makes into the repository's crates is in this
//! file and nowhere else, each wrapped in a host span named `layer.fn`. The
//! workloads, drills and ladder name only the types and functions defined
//! here, so the list of public entry points the benchmark depends on is this
//! file's list (reproduced in `README.md`). A change that alters one of
//! those signatures keeps a compatible entry point or is preceded by a
//! `benchmark` issue that edits this file.

use std::time::Instant;

use hostsim::{HostKernel, SockId};
use kvmsim::Hypervisor;
use vclock::stats::Histogram;
use vclock::Clock;
use vhttp::dispatch::DispatchedServer;
use vhttp::ingress::Ingress;
use vsched::{Dispatcher, DispatcherConfig, HealthConfig, Placement, Request, TenantProfile};
use wasp::{Invocation, VirtineSpec, Wasp, WaspConfig};

use crate::spans::span;

pub use vclock::rng::Rng;
pub use vclock::Cycles;
pub use vhttp::ingress::IngressStats;
pub use visa::asm::Image;
pub use vsched::TenantId as Tenant;
pub use wasp::{Breakdown, HypercallMask as Mask, PoolMode, VirtineId as Vid, WaspStats};

/// Virtual cycles per virtual second (the paper's 2.69 GHz `tinker`).
pub fn cycles_per_second() -> f64 {
    Cycles::from_micros(1e6).get() as f64
}

/// Virtual seconds → virtual cycles, as the dispatcher converts arrivals.
pub fn cycles_of_seconds(s: f64) -> u64 {
    Cycles::from_micros(s * 1e6).get()
}

/// The bare `KVM_RUN` round trip the paper prices pooled start-up against.
pub fn vmrun_floor_cycles() -> u64 {
    vclock::costs::kvm_run_round_trip()
}

// ---------------------------------------------------------------------------
// Toolchains: source text → image.

/// A virtine as the benchmark registers it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub image: Image,
    pub mem_size: usize,
    pub snapshot: bool,
    pub policy: Mask,
}

impl Spec {
    fn to_wasp(&self) -> VirtineSpec {
        VirtineSpec::new(self.name, self.image.clone(), self.mem_size)
            .with_policy(self.policy)
            .with_snapshot(self.snapshot)
    }
}

/// `vcc::compile`: the first `virtine`-annotated function of a mini-C unit,
/// default-deny policy, snapshot after boot.
pub fn compile_c(name: &'static str, source: &str) -> Spec {
    let unit = span("vcc.compile", || vcc::compile(source)).expect("benchmark C source compiles");
    let v = &unit.virtines[0];
    Spec {
        name,
        image: v.image.clone(),
        mem_size: v.mem_size,
        snapshot: true,
        policy: Mask::DENY_ALL,
    }
}

/// `visa::assemble`.
pub fn assemble(name: &'static str, source: &str, mem_size: usize, snapshot: bool) -> Spec {
    let image = span("visa.assemble", || visa::assemble(source)).expect("benchmark asm assembles");
    Spec {
        name,
        image,
        mem_size,
        snapshot,
        policy: Mask::DENY_ALL,
    }
}

/// The two data hypercalls of the §6.5 co-design.
fn data_policy() -> Mask {
    Mask::allowing(&[wasp::nr::GET_DATA, wasp::nr::RETURN_DATA])
}

/// `vjs::compile_engine` for the paper's base64 handler, no teardown.
pub fn compile_js_engine() -> Spec {
    let v = span("vjs.compile_engine", || {
        vjs::compile_engine(vjs::BASE64_HANDLER, false)
    })
    .expect("JS engine compiles");
    Spec {
        name: "js",
        image: v.image,
        mem_size: v.mem_size,
        snapshot: true,
        policy: data_policy(),
    }
}

/// `vaes::compile_aes_virtine`.
pub fn compile_aes() -> Spec {
    let v = span("vaes.compile_aes_virtine", vaes::compile_aes_virtine).expect("AES compiles");
    Spec {
        name: "aes",
        image: v.image,
        mem_size: v.mem_size,
        snapshot: true,
        policy: data_policy(),
    }
}

/// `vcc::marshal_args`.
pub fn marshal(args: &[i64]) -> Vec<u8> {
    vcc::marshal_args(args)
}

/// `vjs::reference_eval` of the base64 handler: the host-side oracle.
pub fn js_reference(data: &[u8]) -> Vec<u8> {
    vjs::reference_eval(vjs::BASE64_HANDLER, data).expect("base64 is a known builtin")
}

/// `vaes::payload`.
pub fn aes_payload(key: &[u8; 16], iv: &[u8; 16], data: &[u8]) -> Vec<u8> {
    vaes::payload(key, iv, data)
}

/// `vaes::aes::cbc_encrypt`: the host-side oracle.
pub fn aes_reference(key: &[u8; 16], iv: &[u8; 16], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    vaes::aes::cbc_encrypt(key, iv, &mut out);
    out
}

// ---------------------------------------------------------------------------
// visa: counters and the bare machine.

/// `visa::pred::counters`, both engines' retirements folded together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstCounters {
    pub retired: u64,
    pub blocks_built: u64,
    pub blocks_invalidated: u64,
    pub superinsts_fused: u64,
}

impl InstCounters {
    pub fn now() -> InstCounters {
        let c = visa::pred::counters();
        InstCounters {
            retired: c.retired_fast + c.retired_ref,
            blocks_built: c.blocks_built,
            blocks_invalidated: c.blocks_invalidated,
            superinsts_fused: c.superinsts_fused,
        }
    }

    pub fn since(self, earlier: InstCounters) -> InstCounters {
        InstCounters {
            retired: self.retired - earlier.retired,
            blocks_built: self.blocks_built - earlier.blocks_built,
            blocks_invalidated: self.blocks_invalidated - earlier.blocks_invalidated,
            superinsts_fused: self.superinsts_fused - earlier.superinsts_fused,
        }
    }
}

/// One run of an image on a bare `visa::Machine` — no hypervisor, no
/// runtime: `Machine::new`, `load_image`, `mem.write_bytes`, `run` until
/// `hlt`. Hypercall `out`s are ignored, so only hypercall-free kernels
/// compute their result here.
#[derive(Debug, Clone, Copy)]
pub struct BareRun {
    pub r0: u64,
    pub insts: u64,
    pub host_ns: u64,
}

pub fn run_bare(spec: &Spec, args: &[u8]) -> BareRun {
    use visa::cpu::{CpuConfig, CpuExit, Machine};
    let mut m = Machine::new(
        Clock::new(),
        CpuConfig::default(),
        spec.mem_size,
        spec.image.entry,
    );
    m.load_image(&spec.image);
    m.mem
        .write_bytes(wasp::ARGS_ADDR, args)
        .expect("args fit in guest memory");
    m.cpu.note_vmentry();
    let t = Instant::now();
    span("visa.machine_run", || loop {
        match m.run(500_000_000).expect("bare kernel must not fault") {
            CpuExit::Hlt => break,
            CpuExit::IoOut { .. } => {}
            CpuExit::IoIn { .. } => m.cpu.provide_in(0),
            CpuExit::StepLimit => panic!("bare kernel blew its step budget"),
        }
    });
    BareRun {
        r0: m.cpu.reg(visa::Reg(0)),
        insts: m.cpu.insts_retired(),
        host_ns: t.elapsed().as_nanos() as u64,
    }
}

// ---------------------------------------------------------------------------
// wasp: one embedded runtime.

/// What one invocation returned.
#[derive(Debug)]
pub struct Ran {
    pub ret: u64,
    pub normal: bool,
    pub result: Vec<u8>,
    pub hypercalls: u64,
    pub breakdown: Breakdown,
}

/// A `wasp::Wasp` on its own simulated host.
pub struct Runtime {
    wasp: Wasp,
    kernel: HostKernel,
    run_span: &'static str,
}

impl Runtime {
    /// `Wasp::new` over `Hypervisor::kvm(HostKernel::new(..))`. `run_span`
    /// names this runtime's `run` calls in the host trace, so the start
    /// paths of `invoke_modes` stay apart.
    pub fn new(pool_mode: PoolMode, warm_capacity: usize, run_span: &'static str) -> Runtime {
        span("wasp.new", || {
            let kernel = HostKernel::new(Clock::new(), None);
            let wasp = Wasp::new(
                Hypervisor::kvm(kernel.clone()),
                WaspConfig {
                    pool_mode,
                    warm_capacity,
                    ..WaspConfig::default()
                },
            );
            Runtime {
                wasp,
                kernel,
                run_span,
            }
        })
    }

    /// `Wasp::register`.
    pub fn register(&self, spec: &Spec) -> Vid {
        span("wasp.register", || self.wasp.register(spec.to_wasp())).expect("image fits")
    }

    /// `Wasp::prewarm`.
    pub fn prewarm(&self, mem_size: usize, count: usize) {
        span("wasp.prewarm", || self.wasp.prewarm(mem_size, count));
    }

    /// `Wasp::run` with marshalled `args` and a `get_data` payload.
    pub fn run(&self, id: Vid, args: &[u8], payload: Vec<u8>) -> Ran {
        let mut out = span(self.run_span, || {
            self.wasp.run(id, args, Invocation::with_payload(payload))
        })
        .expect("registered virtine");
        Ran {
            ret: out.ret,
            normal: out.exit.is_normal(),
            result: std::mem::take(&mut out.invocation.result),
            hypercalls: out.hypercalls,
            breakdown: out.breakdown,
        }
    }

    /// The runtime's virtual clock, in cycles.
    pub fn now_cycles(&self) -> u64 {
        self.wasp.clock().now().get()
    }

    pub fn stats(&self) -> WaspStats {
        self.wasp.stats()
    }
}

// ---------------------------------------------------------------------------
// The §6.3 server on one runtime: the `wasp` rung of `http_serve`.

const HTTP_PORT: u16 = 80;
const HTTP_PATH: &str = "/www/index.html";

fn http_body(file_size: usize) -> Vec<u8> {
    // The body `vhttp::dispatch::DispatchedServer` and `run_server` serve.
    (0..file_size).map(|i| b'a' + (i % 23) as u8).collect()
}

fn http_request() -> Vec<u8> {
    format!("GET {HTTP_PATH} HTTP/1.0\r\n\r\n").into_bytes()
}

/// `vhttp::server::compile_handler(true)` under `handler_policy()`: the §6.3
/// connection handler, snapshot after boot.
pub fn compile_http_handler() -> Spec {
    let handler = span("vhttp.compile_handler", || {
        vhttp::server::compile_handler(true)
    });
    Spec {
        name: "serve",
        image: handler.image,
        mem_size: handler.mem_size,
        snapshot: true,
        policy: vhttp::server::handler_policy(),
    }
}

fn response_is_full(resp: &[u8], body: &[u8]) -> bool {
    vhttp::response_status(resp) == Some(200) && vhttp::response_body(resp) == Some(body)
}

/// One connection at a time through `Wasp::run`, as `vhttp::server::
/// run_server(VirtineSnapshot)` does, keeping each request's [`Breakdown`].
pub struct WaspHttp {
    rt: Runtime,
    id: Vid,
    body: Vec<u8>,
    request: Vec<u8>,
}

impl WaspHttp {
    pub fn new(file_size: usize) -> WaspHttp {
        let rt = Runtime::new(
            PoolMode::CachedAsync,
            wasp::DEFAULT_WARM_CAPACITY,
            "wasp.run",
        );
        let body = http_body(file_size);
        rt.kernel.fs_add_file(HTTP_PATH, body.clone());
        rt.kernel.net_listen(HTTP_PORT).expect("listen");
        let id = span("wasp.register", || {
            rt.wasp.register(compile_http_handler().to_wasp())
        })
        .expect("fits");
        WaspHttp {
            rt,
            id,
            body,
            request: http_request(),
        }
    }

    /// Serves one request; `None` when the response was not a full 200.
    pub fn serve(&self) -> Option<Ran> {
        let k = &self.rt.kernel;
        let (client, conn) = span("hostsim.connect", || {
            let client = k.net_connect(HTTP_PORT).expect("connect");
            k.net_send(client, &self.request).expect("send");
            let conn = k.net_accept(HTTP_PORT).expect("accept").expect("pending");
            (client, conn)
        });
        let out = span("wasp.run", || {
            self.rt.wasp.run(self.id, &[], Invocation::with_conn(conn))
        })
        .expect("registered virtine");
        let resp = span("hostsim.recv", || {
            let resp = k.net_recv(client, self.body.len() + 512).ok().flatten();
            k.net_close(client).ok();
            k.net_close(conn).ok();
            resp
        });
        let good = out.exit.is_normal() && resp.is_some_and(|r| response_is_full(&r, &self.body));
        good.then_some(Ran {
            ret: out.ret,
            normal: true,
            result: Vec::new(),
            hypercalls: out.hypercalls,
            breakdown: out.breakdown,
        })
    }
}

// ---------------------------------------------------------------------------
// vsched: what any dispatcher-bearing tier exposes.

/// One completed request, whichever tier served it.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// Sequence number the tier assigned at admission.
    pub seq: u64,
    /// Shard (or, behind the ingress, node) that served it.
    pub place: usize,
    pub arrival_s: f64,
    pub finish_s: f64,
    /// Virtual cycles charged to the request on its worker.
    pub cycles: u64,
    pub warm_hit: bool,
    pub ok: bool,
    /// `return_data` bytes (empty on the HTTP tiers, which answer on the
    /// connection).
    pub result: Vec<u8>,
}

impl Done {
    pub fn latency_cycles(&self) -> u64 {
        cycles_of_seconds(self.finish_s - self.arrival_s)
    }

    fn of(c: &vsched::Completion) -> Done {
        Done {
            seq: c.seq,
            place: c.shard,
            arrival_s: c.arrival,
            finish_s: c.finish,
            cycles: c.exec_cycles,
            warm_hit: c.warm_hit,
            ok: c.exit_normal,
            result: c.result.clone(),
        }
    }
}

/// The public counters and histograms of the dispatchers under a tier,
/// summed over its nodes.
#[derive(Debug, Clone, Default)]
pub struct TierStats {
    pub served: u64,
    pub shed: u64,
    pub stolen: u64,
    pub parks: u64,
    pub migrations: u64,
    pub retries: u64,
    pub hedges_fired: u64,
    pub warm_hits: u64,
    pub shells_created: u64,
    pub shells_reused: u64,
    pub hypercalls: u64,
    pub denials: u64,
    pub wasp_blocks: u64,
    pub snapshot_restores: u64,
    pub delta_pages: u64,
    pub declared: u64,
    pub restored: u64,
    pub false_positives: u64,
    pub trace_spans: u64,
    pub trace_evicted: u64,
    pub queue_wait: Histogram,
    pub exec: Histogram,
}

impl TierStats {
    fn add(&mut self, d: &Dispatcher) {
        let s = d.stats();
        self.served += s.served;
        self.shed += s.shed();
        self.stolen += s.stolen;
        self.parks += s.blocked;
        self.migrations += s.migrations;
        self.retries += s.retries_queued + s.retries_parked;
        self.hedges_fired += s.hedges_fired;
        self.warm_hits += s.warm_hits;
        let p = d.pool_stats();
        self.shells_created += p.created;
        self.shells_reused += p.reused;
        let w = d.wasp().stats();
        self.hypercalls += w.hypercalls;
        self.denials += w.denials;
        self.wasp_blocks += w.blocks;
        self.snapshot_restores += w.snapshot_restores;
        self.delta_pages += w.delta_pages_copied;
        self.trace_spans += d.trace().spans_recorded();
        self.trace_evicted += d.trace().dropped();
        self.queue_wait.merge(d.queue_wait_hist());
        self.exec.merge(d.exec_hist());
    }

    fn add_health(&mut self, h: Option<vsched::HealthStats>) {
        if let Some(h) = h {
            self.declared += h.declared;
            self.restored += h.restored;
            self.false_positives += h.false_positives;
        }
    }
}

/// A bare `vsched::Dispatcher` over one runtime: the `vsched` rung.
pub struct Dispatch {
    d: Dispatcher,
}

impl Dispatch {
    /// `Dispatcher::new(Wasp::new_kvm_default(), ..)` — the configuration
    /// `vhttp::ingress` gives each backend node, with `shards` shards.
    pub fn new(shards: usize) -> Dispatch {
        span("vsched.new", || Dispatch {
            d: Dispatcher::new(
                Wasp::new_kvm_default(),
                DispatcherConfig {
                    shards,
                    ..DispatcherConfig::default()
                },
            ),
        })
    }

    pub fn register(&mut self, spec: &Spec) -> Vid {
        span("vsched.register", || self.d.register(spec.to_wasp())).expect("image fits")
    }

    /// A tenant whose mask allows everything, so each spec's own policy is
    /// the one in effect.
    pub fn add_tenant(&mut self, name: &str) -> Tenant {
        self.d
            .add_tenant(TenantProfile::new(name).with_mask(Mask::ALLOW_ALL))
    }

    /// `Dispatcher::enable_tracing`.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.d.enable_tracing(capacity);
    }

    /// `Dispatcher::submit`; `false` when admission shed the request.
    pub fn submit(
        &mut self,
        tenant: Tenant,
        id: Vid,
        args: Vec<u8>,
        payload: Vec<u8>,
        at_s: f64,
    ) -> bool {
        let req = Request::new(tenant, id, at_s)
            .with_args(args)
            .with_invocation(Invocation::with_payload(payload));
        span("vsched.submit", || self.d.submit(req)).is_ok()
    }

    /// `Dispatcher::run_to_idle` then `take_completions`.
    pub fn finish(&mut self) -> Vec<Done> {
        span("vsched.run_to_idle", || self.d.run_to_idle());
        self.d.take_completions().iter().map(Done::of).collect()
    }

    pub fn tier(&self) -> TierStats {
        let mut t = TierStats::default();
        t.add(&self.d);
        t.add_health(self.d.health_stats());
        t
    }

    /// `Dispatcher::trace_json_lines`.
    pub fn trace_dump(&self, limit: usize) -> String {
        span("vtrace.dump", || self.d.trace_json_lines(None, limit))
    }
}

/// The §6.3 server on a bare dispatcher: what `DispatchedServer` is made of
/// (`Dispatcher` + `HostKernel` sockets + the compiled handler), without
/// `vhttp::dispatch` itself. The `vsched` rung of `http_serve`, and the one
/// tier where the benchmark holds the response bytes and checks the body.
pub struct DispatchHttp {
    kernel: HostKernel,
    d: Dispatcher,
    id: Vid,
    pending: Vec<(SockId, SockId)>,
    body: Vec<u8>,
    request: Vec<u8>,
}

impl DispatchHttp {
    pub fn new(shards: usize, file_size: usize) -> DispatchHttp {
        span("vsched.new", || {
            let kernel = HostKernel::new(Clock::new(), None);
            let body = http_body(file_size);
            kernel.fs_add_file(HTTP_PATH, body.clone());
            kernel.net_listen(HTTP_PORT).expect("listen");
            let wasp = Wasp::new(Hypervisor::kvm(kernel.clone()), WaspConfig::default());
            let mut d = Dispatcher::new(
                wasp,
                DispatcherConfig {
                    shards,
                    placement: Placement::SnapshotAware,
                    ..DispatcherConfig::default()
                },
            );
            let id = d.register(compile_http_handler().to_wasp()).expect("fits");
            DispatchHttp {
                kernel,
                d,
                id,
                pending: Vec::new(),
                body,
                request: http_request(),
            }
        })
    }

    pub fn add_tenant(&mut self, name: &str) -> Tenant {
        self.d.add_tenant(vhttp::dispatch::http_tenant(name))
    }

    pub fn offer(&mut self, tenant: Tenant, at_s: f64) -> bool {
        self.d.run_until(at_s);
        let k = &self.kernel;
        let (client, server) = span("hostsim.connect", || {
            let client = k.net_connect(HTTP_PORT).expect("connect");
            let server = k.net_accept(HTTP_PORT).expect("accept").expect("pending");
            k.net_send(client, &self.request).expect("send");
            (client, server)
        });
        let req =
            Request::new(tenant, self.id, at_s).with_invocation(Invocation::with_conn(server));
        let admitted = span("vsched.submit", || self.d.submit(req)).is_ok();
        if admitted {
            self.pending.push((client, server));
        } else {
            k.net_close(client).ok();
            k.net_close(server).ok();
        }
        admitted
    }

    pub fn run_until(&mut self, t_s: f64) {
        span("vsched.run_until", || self.d.run_until(t_s));
    }

    /// Drains, then reads and checks every response: status 200 and the
    /// whole body. Returns the completions and the number of good responses.
    pub fn finish(&mut self) -> (Vec<Done>, u64) {
        span("vsched.run_to_idle", || self.d.run_to_idle());
        let done: Vec<Done> = self.d.take_completions().iter().map(Done::of).collect();
        let good = span("hostsim.recv", || {
            let mut good = 0;
            for &(client, server) in &self.pending {
                let resp = self
                    .kernel
                    .net_recv(client, self.body.len() + 512)
                    .ok()
                    .flatten();
                good += u64::from(resp.is_some_and(|r| response_is_full(&r, &self.body)));
                self.kernel.net_close(client).ok();
                self.kernel.net_close(server).ok();
            }
            good
        });
        self.pending.clear();
        (done, good)
    }
}

// ---------------------------------------------------------------------------
// vhttp: the two serving tiers.

/// What `DispatchedServer::finish` reports.
#[derive(Debug, Clone, Copy)]
pub struct HttpRun {
    /// Responses read back and verified as 200 by the server's own check.
    pub served: u64,
    pub shed: u64,
}

/// `vhttp::dispatch::DispatchedServer`.
pub struct HttpServer {
    s: DispatchedServer,
}

impl HttpServer {
    pub fn new(shards: usize, file_size: usize) -> HttpServer {
        span("vhttp.new", || HttpServer {
            s: DispatchedServer::new(shards, file_size),
        })
    }

    pub fn add_tenant(&mut self, name: &str) -> Tenant {
        self.s.add_tenant(vhttp::dispatch::http_tenant(name))
    }

    pub fn enable_tracing(&mut self, capacity: usize) {
        self.s.dispatcher_mut().enable_tracing(capacity);
    }

    pub fn offer(&mut self, tenant: Tenant, at_s: f64) -> bool {
        span("vhttp.offer", || self.s.offer(tenant, at_s)).is_ok()
    }

    pub fn offer_trickled(
        &mut self,
        tenant: Tenant,
        at_s: f64,
        chunks: usize,
        spread_s: f64,
    ) -> bool {
        span("vhttp.offer_trickled", || {
            self.s.offer_trickled(tenant, at_s, chunks, spread_s)
        })
        .is_ok()
    }

    pub fn run_until(&mut self, t_s: f64) {
        span("vhttp.run_until", || self.s.run_until(t_s));
    }

    /// `DispatchedServer::metrics`: the Prometheus text.
    pub fn metrics(&self) -> String {
        span("vhttp.metrics", || self.s.metrics())
    }

    /// Requests that reached a terminal outcome so far.
    pub fn settled(&self) -> u64 {
        let s = self.s.dispatcher().stats();
        s.served + s.shed()
    }

    /// `Dispatcher::completions` so far, in execution order.
    pub fn completions(&self) -> Vec<Done> {
        self.s
            .dispatcher()
            .completions()
            .iter()
            .map(Done::of)
            .collect()
    }

    pub fn tier(&self) -> TierStats {
        let mut t = TierStats::default();
        t.add(self.s.dispatcher());
        t
    }

    pub fn trace_dump(&self, limit: usize) -> String {
        span("vtrace.dump", || {
            self.s.dispatcher().trace_json_lines(None, limit)
        })
    }

    /// `DispatchedServer::finish`: drains, reads every response and panics
    /// on one that is not a 200.
    pub fn finish(self) -> HttpRun {
        let run = span("vhttp.finish", || self.s.finish());
        HttpRun {
            served: run.served,
            shed: run.shed_by_tenant.iter().sum(),
        }
    }
}

/// What `Ingress::finish` reports.
#[derive(Debug)]
pub struct EdgeRun {
    pub done: Vec<Done>,
    pub lost: u64,
    pub stats: IngressStats,
    pub acceptor_ok: bool,
    /// Completions that needed a cross-node re-dispatch.
    pub evacuated: u64,
}

/// `vhttp::ingress::Ingress` over its `vsched::Cluster`.
pub struct Edge {
    ing: Ingress,
    nodes: usize,
}

impl Edge {
    pub fn new(nodes: usize, shards_per_node: usize) -> Edge {
        span("vhttp.new", || Edge {
            ing: Ingress::new(nodes, shards_per_node),
            nodes,
        })
    }

    pub fn register(&mut self, spec: &Spec) -> Vid {
        span("vhttp.register", || self.ing.register(spec.to_wasp()))
    }

    /// A tenant with no edge or node rate limit, under each spec's own
    /// hypercall policy.
    pub fn add_tenant(&mut self, name: &str) -> Tenant {
        self.ing.add_tenant(
            TenantProfile::new(name).with_mask(Mask::ALLOW_ALL),
            f64::INFINITY,
            f64::INFINITY,
        )
    }

    /// `Ingress::set_health`: the node-level failure detector.
    pub fn set_health(&mut self, seed: u64) {
        self.ing.set_health(HealthConfig::new().with_seed(seed));
    }

    /// `Cluster::hang_node_at`: a gray failure the detector must find.
    pub fn hang_node_at(&mut self, at_s: f64, node: usize, duration_s: f64) {
        self.ing.cluster_mut().hang_node_at(at_s, node, duration_s);
    }

    /// Edge traces and every node's invocation traces.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.ing.enable_tracing(capacity);
        for i in 0..self.nodes {
            self.ing.cluster_mut().node_mut(i).enable_tracing(capacity);
        }
    }

    pub fn offer(&mut self, tenant: Tenant, client: u64, id: Vid, args: &[u8], at_s: f64) -> bool {
        span("vhttp.offer", || {
            self.ing.offer(tenant, client, id, args, at_s)
        })
        .is_ok()
    }

    pub fn advance(&mut self, t_s: f64) {
        span("vhttp.run_until", || {
            self.ing.advance(t_s);
        });
    }

    pub fn metrics(&self) -> String {
        span("vhttp.metrics", || self.ing.metrics())
    }

    pub fn stats(&self) -> IngressStats {
        self.ing.stats()
    }

    pub fn tier(&self) -> TierStats {
        let mut t = TierStats::default();
        for i in 0..self.nodes {
            t.add(self.ing.cluster().node(i));
        }
        t.add_health(self.ing.cluster().health_stats());
        t
    }

    /// `Ingress::trace_json` plus each node's `trace_json_lines`.
    pub fn trace_dump(&self, limit: usize) -> String {
        span("vtrace.dump", || {
            let mut out = self.ing.trace_json(limit);
            for i in 0..self.nodes {
                out.push_str(&self.ing.cluster().node(i).trace_json_lines(None, limit));
            }
            out
        })
    }

    pub fn finish(self) -> EdgeRun {
        let run = span("vhttp.finish", || self.ing.finish());
        let evacuated = run.completions.iter().filter(|c| c.evacuated).count() as u64;
        let done = run
            .completions
            .iter()
            .map(|c| Done {
                seq: c.edge_seq,
                place: c.node,
                arrival_s: c.arrival,
                finish_s: c.finish,
                cycles: cycles_of_seconds(c.service),
                warm_hit: false,
                ok: true,
                result: Vec::new(),
            })
            .collect();
        EdgeRun {
            done,
            lost: run.lost,
            stats: run.stats,
            acceptor_ok: run.acceptor.exit_normal,
            evacuated,
        }
    }
}

/// `vespid::load::pattern_arrivals(&locust_pattern(), scale)`: the paper's
/// ramp / burst / dip / burst / ramp-down shape, as `arrivals` offsets in
/// `[0, 1)` of the pattern's length.
///
/// The generator emits at most one arrival per millisecond of its 42 s
/// pattern; past [`LOCUST_MAX_ARRIVALS`] it would flatten the bursts, so
/// callers subdivide instead.
pub fn locust_shape(arrivals: usize) -> Vec<f64> {
    assert!(
        arrivals <= LOCUST_MAX_ARRIVALS,
        "pattern generator saturates"
    );
    let phases = vespid::load::locust_pattern();
    let length: f64 = phases.iter().map(|p| p.duration_s).sum();
    let mass: f64 = phases
        .iter()
        .map(|p| p.duration_s * (p.start_rps + p.end_rps) / 2.0)
        .sum();
    let mut at = vespid::load::pattern_arrivals(&phases, arrivals as f64 / mass);
    // The generator integrates in 1 ms steps, so the count lands within a
    // few arrivals of the request; pad or trim at the tail to make it exact.
    at.truncate(arrivals);
    while at.len() < arrivals {
        at.push(length - 1e-9);
    }
    at.iter().map(|t| t / length).collect()
}

/// Most arrivals [`locust_shape`] can place without flattening the bursts
/// (peak 180 req/s × scale × 1 ms step must stay under one).
pub const LOCUST_MAX_ARRIVALS: usize = 15_000;

// ---------------------------------------------------------------------------
// kvmsim and hostsim drills: timed calls straight into the two bottom layers.

/// Host microseconds of each `kvmsim` primitive on a VM shaped like the
/// workload's: its memory size, its image, and `dirty_pages` pages written
/// per invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvmDrill {
    pub create_vm_us: f64,
    pub clean_us: f64,
    pub snapshot_us: f64,
    pub restore_full_us: f64,
    pub restore_delta_us: f64,
    pub snapshot_copied_bytes: u64,
}

fn timed_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / 1e3
}

pub fn kvm_drill(spec: &Spec, dirty_pages: usize, iters: usize) -> KvmDrill {
    let hv = Hypervisor::kvm(HostKernel::new(Clock::new(), None));
    let page = vec![0xA5u8; 4096];
    let heap = spec.image.base + spec.image.bytes.len().next_multiple_of(4096) as u64;
    let dirty = |vm: &kvmsim::VmFd| {
        for p in 0..dirty_pages as u64 {
            vm.write_guest(heap + p * 4096, &page).expect("in bounds");
        }
    };
    let med = |xs: &mut Vec<f64>| crate::stats::median(xs);

    let mut create = Vec::new();
    let mut vm = hv.create_vm(spec.mem_size, spec.image.entry);
    for _ in 0..iters {
        create.push(timed_us(|| {
            vm = span("kvmsim.create_vm", || {
                hv.create_vm(spec.mem_size, spec.image.entry)
            });
        }));
    }
    vm.load_image(&spec.image);
    dirty(&vm);

    let mut snapshot = Vec::new();
    let mut snap = vm.snapshot();
    for _ in 0..iters {
        snapshot.push(timed_us(|| {
            snap = span("kvmsim.snapshot", || vm.snapshot())
        }));
    }
    let (mut full, mut delta, mut clean) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..iters {
        dirty(&vm);
        full.push(timed_us(|| span("kvmsim.restore", || vm.restore(&snap))));
        dirty(&vm);
        delta.push(timed_us(|| {
            span("kvmsim.restore_delta", || {
                vm.restore_delta(&snap);
            });
        }));
    }
    for _ in 0..iters {
        vm.load_image(&spec.image);
        dirty(&vm);
        clean.push(timed_us(|| {
            span("kvmsim.clean", || vm.clean(spec.image.entry));
        }));
    }
    KvmDrill {
        create_vm_us: med(&mut create),
        clean_us: med(&mut clean),
        snapshot_us: med(&mut snapshot),
        restore_full_us: med(&mut full),
        restore_delta_us: med(&mut delta),
        snapshot_copied_bytes: snap.copied_bytes() as u64,
    }
}

/// Host nanoseconds of the two `hostsim` paths the §6.3 handler leans on.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDrill {
    /// `net_send` + `net_recv` of a request-sized message on a connected
    /// socket pair.
    pub send_recv_ns: f64,
    /// `sys_open` + `sys_read` + `sys_close` of the served file.
    pub fs_read_ns: f64,
}

pub fn host_drill(file_size: usize, iters: usize) -> HostDrill {
    let k = HostKernel::new(Clock::new(), None);
    k.fs_add_file(HTTP_PATH, http_body(file_size));
    k.net_listen(HTTP_PORT).expect("listen");
    let client = k.net_connect(HTTP_PORT).expect("connect");
    let server = k.net_accept(HTTP_PORT).expect("accept").expect("pending");
    let msg = http_request();
    let t = Instant::now();
    span("hostsim.send_recv", || {
        for _ in 0..iters {
            k.net_send(client, &msg).expect("send");
            let got = k.net_recv(server, 2048).expect("recv").expect("data");
            assert_eq!(got.len(), msg.len());
        }
    });
    let send_recv_ns = t.elapsed().as_nanos() as f64 / iters as f64;
    let t = Instant::now();
    span("hostsim.fs_read", || {
        for _ in 0..iters {
            let fd = k.sys_open(HTTP_PATH).expect("open");
            let got = k.sys_read(fd, file_size).expect("read");
            assert_eq!(got.len(), file_size);
            k.sys_close(fd).expect("close");
        }
    });
    let fs_read_ns = t.elapsed().as_nanos() as f64 / iters as f64;
    HostDrill {
        send_recv_ns,
        fs_read_ns,
    }
}
