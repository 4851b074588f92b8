//! The §6.3 server at platform scale: concurrent connections through the
//! `vsched` dispatcher.
//!
//! `server::run_server` drives one connection at a time, exactly as the
//! paper's single-threaded server does. A serving platform instead accepts
//! many connections and lets a dispatcher place each connection-handler
//! virtine on a shard: admission control sheds abusive clients at the
//! door (token bucket / in-flight caps), shard pools keep the §5.2 reuse
//! path contention-free, and stealing keeps shards busy under skew.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hostsim::HostKernel;
use kvmsim::Hypervisor;
use vclock::Clock;
use vsched::{
    BlockMode, Dispatcher, DispatcherConfig, Request, ShedReason, TenantId, TenantProfile, Topology,
};
use wasp::{Invocation, VirtineSpec, Wasp, WaspConfig};

use crate::expo;
use crate::response_status;
use crate::server::{compile_handler, handler_policy};

/// A tenant profile pre-authorized for the §6.3 handler's seven host
/// interactions (and nothing else).
pub fn http_tenant(name: impl Into<String>) -> TenantProfile {
    TenantProfile::new(name).with_mask(handler_policy())
}

/// Renders a dispatcher's statistics in the Prometheus text exposition
/// format: every family of `vhttp::expo::NODE`, in table order.
pub fn prometheus_text(d: &Dispatcher) -> String {
    expo::render(expo::NODE, d)
}

/// Both ends of an admitted connection whose response is still to come.
#[derive(Debug)]
struct PendingConn {
    client: hostsim::SockId,
    server: hostsim::SockId,
}

/// Outcome of a dispatched server run.
#[derive(Debug, Default)]
pub struct DispatchedRun {
    /// Responses received and verified (status 200, full body).
    pub served: u64,
    /// Requests shed at admission, per tenant index.
    pub shed_by_tenant: Vec<u64>,
    /// Served requests per tenant index.
    pub served_by_tenant: Vec<u64>,
    /// End-to-end latencies (virtual seconds) of served requests.
    pub latencies: Vec<f64>,
    /// End-to-end latencies split by tenant index (slow clients dominate
    /// the global tail; per-tenant views isolate the victims).
    pub latencies_by_tenant: Vec<Vec<f64>>,
    /// Served requests per virtual second over the run.
    pub throughput_rps: f64,
    /// Final dispatcher statistics.
    pub stats: vsched::DispatcherStats,
}

/// A request chunk scheduled for delivery at a virtual time (slow-client
/// trickling). Ordered by delivery time for the pump's min-heap.
#[derive(Debug, PartialEq)]
struct ScheduledSend {
    /// Delivery time in virtual seconds.
    at_s: f64,
    /// Tie-break so deliveries at the same instant stay in schedule order.
    seq: u64,
    sock: hostsim::SockId,
    bytes: Vec<u8>,
}

impl Eq for ScheduledSend {}

impl PartialOrd for ScheduledSend {
    fn partial_cmp(&self, other: &ScheduledSend) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledSend {
    fn cmp(&self, other: &ScheduledSend) -> std::cmp::Ordering {
        self.at_s
            .total_cmp(&other.at_s)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A static-content HTTP server whose connection handlers run in virtines
/// placed by `vsched`.
///
/// Request delivery is *trickled*: each offer schedules its request bytes
/// as one or more chunks at virtual delivery times, and the server pumps
/// dispatcher progress and chunk sends in time order. A handler whose
/// `recv` outruns the client's chunks parks (event-driven dispatch) and
/// resumes per chunk — slow clients exercise the blocked-I/O path
/// end-to-end instead of being buffered host-side.
///
/// Responses are read at completion: every `offer*`, `run_until` and
/// `finish` ends by reading and checking the response of each request that
/// completed during the call and closing both sockets, so the host holds a
/// connection's endpoints and its unread response only while the request
/// is in flight — not until [`DispatchedServer::finish`]. Those host-side
/// `recv`/`close` calls tick the shared clock like any other syscall, so
/// *when* they land moves with the drain; no request's timeline reads that
/// clock (per-request figures are segment deltas), and the one stat that
/// does, [`vsched::DispatcherStats::blocked_cycles`], is documented as such.
pub struct DispatchedServer {
    kernel: HostKernel,
    dispatcher: Dispatcher,
    virtine: wasp::VirtineId,
    /// Open connections by the sequence number `submit` returned.
    pending: HashMap<u64, PendingConn>,
    /// Completions whose response has been read, counted from the
    /// dispatcher's first: a cursor that survives a caller draining
    /// `dispatcher_mut().take_completions()` between pumps.
    reaped: u64,
    /// The outcome so far; `finish` closes it.
    run: DispatchedRun,
    first_arrival: f64,
    last_finish: f64,
    file_size: usize,
    request_line: Vec<u8>,
    sends: BinaryHeap<Reverse<ScheduledSend>>,
    send_seq: u64,
}

const PORT: u16 = 80;
const FILE_PATH: &str = "/www/index.html";

/// Status line and content type of the host-side endpoints' answers.
const OK: &str = "200 OK";
const NDJSON: Option<&str> = Some("application/x-ndjson");

/// The `key=value` pairs of a request target's query string (pairs
/// without an `=` are skipped; no query yields nothing).
fn query_pairs(target: &str) -> impl Iterator<Item = (&str, &str)> {
    let query = target.split_once('?').map_or("", |(_, q)| q);
    query.split('&').filter_map(|pair| pair.split_once('='))
}

impl DispatchedServer {
    /// Builds a server over `shards` dispatcher shards serving a
    /// `file_size`-byte static file, with event-driven blocked I/O.
    pub fn new(shards: usize, file_size: usize) -> DispatchedServer {
        DispatchedServer::new_with(shards, file_size, BlockMode::EventDriven)
    }

    /// [`DispatchedServer::new`] with an explicit blocked-I/O policy
    /// (the `blocked_io` bench measures `SpinPoll` as its baseline).
    /// Handlers snapshot after boot (Figure 7's fast path), as §6.3's
    /// best configuration does.
    pub fn new_with(shards: usize, file_size: usize, block: BlockMode) -> DispatchedServer {
        DispatchedServer::new_on_topology(shards, None, file_size, block)
    }

    /// The full constructor: an explicit shard [`Topology`] (steals and
    /// resume-time migrations then prefer near siblings and pay per-hop
    /// transfer costs, surfaced by the `vsched_steal_transfers_total` and
    /// `vsched_topology` metrics) beside the blocked-I/O policy. `None`
    /// keeps the flat single-CCX topology.
    pub fn new_on_topology(
        shards: usize,
        topology: Option<Topology>,
        file_size: usize,
        block: BlockMode,
    ) -> DispatchedServer {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock, None);
        let body: Vec<u8> = (0..file_size).map(|i| b'a' + (i % 23) as u8).collect();
        kernel.fs_add_file(FILE_PATH, body);
        kernel.net_listen(PORT).expect("listen");

        let wasp = Wasp::new(Hypervisor::kvm(kernel.clone()), WaspConfig::default());
        let mut dispatcher = Dispatcher::new(
            wasp,
            DispatcherConfig {
                shards,
                // Connection handlers are snapshotted; routing each request
                // to the shard already warm for its (tenant, handler) key
                // serves it with a dirty-page delta re-arm. Least-loaded
                // placement actively defeats the warm cache here: with
                // empty queues it alternates shards, and each landing
                // demote-steals the *other* shard's warm shell.
                placement: vsched::Placement::SnapshotAware,
                block,
                topology,
                ..DispatcherConfig::default()
            },
        );
        let handler = compile_handler(true);
        let spec = VirtineSpec::new("serve", handler.image.clone(), handler.mem_size)
            .with_policy(handler_policy())
            .with_snapshot(true);
        let virtine = dispatcher.register(spec).expect("register handler");
        DispatchedServer {
            kernel,
            dispatcher,
            virtine,
            pending: HashMap::new(),
            reaped: 0,
            run: DispatchedRun::default(),
            first_arrival: f64::MAX,
            last_finish: 0.0,
            file_size,
            request_line: format!("GET {FILE_PATH} HTTP/1.0\r\n\r\n").into_bytes(),
            sends: BinaryHeap::new(),
            send_seq: 0,
        }
    }

    /// Registers a tenant (client class).
    pub fn add_tenant(&mut self, profile: TenantProfile) -> TenantId {
        self.run.shed_by_tenant.push(0);
        self.run.served_by_tenant.push(0);
        self.run.latencies_by_tenant.push(Vec::new());
        self.dispatcher.add_tenant(profile)
    }

    /// The dispatcher underneath.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }

    /// Mutable access to the dispatcher, for operator controls that live
    /// on it: [`Dispatcher::enable_tracing`], [`Dispatcher::set_slo`],
    /// [`Dispatcher::set_warm_budget`].
    pub fn dispatcher_mut(&mut self) -> &mut Dispatcher {
        &mut self.dispatcher
    }

    /// The Prometheus text rendering of the dispatcher's current state.
    pub fn metrics(&self) -> String {
        prometheus_text(&self.dispatcher)
    }

    /// Serves one operator request host-side over the simulated network:
    /// opens a client connection, issues `GET <target>`, accepts and reads
    /// it on the server end, answers with what `respond` makes of the
    /// *received* request target — `(status line, content type, body)` —
    /// and returns the raw HTTP response bytes the client read back. The
    /// path never occupies a shard worker or a virtine: an operator's
    /// monitoring and controls must not compete with tenant traffic.
    fn serve_host(
        &mut self,
        target: &str,
        respond: impl FnOnce(&mut Self, &str) -> (&'static str, Option<&'static str>, String),
    ) -> Vec<u8> {
        let client = self.kernel.net_connect(PORT).expect("connect");
        let request = format!("GET {target} HTTP/1.0\r\n\r\n");
        self.kernel
            .net_send(client, request.as_bytes())
            .expect("send");
        let server = self
            .kernel
            .net_accept(PORT)
            .expect("accept")
            .expect("pending connection");
        let req = self
            .kernel
            .net_recv(server, 512)
            .expect("recv")
            .expect("request bytes");
        assert_eq!(req, request.as_bytes(), "the request crossed intact");
        // Parse the target out of the request line, as a real handler
        // would — the caller's string never short-circuits this.
        let line = String::from_utf8_lossy(&req);
        let received = line.split_whitespace().nth(1).unwrap_or("/");
        let (status, content_type, body) = respond(self, received);
        let content_type =
            content_type.map_or_else(String::new, |t| format!("Content-Type: {t}\r\n"));
        let response = format!(
            "HTTP/1.0 {status}\r\n{content_type}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.kernel
            .net_send(server, response.as_bytes())
            .expect("send response");
        let resp = self
            .kernel
            .net_recv(client, response.len() + 512)
            .expect("recv")
            .expect("response bytes");
        self.kernel.net_close(client).ok();
        self.kernel.net_close(server).ok();
        resp
    }

    /// Serves `GET /metrics` host-side (see the scrape-charges-no-shard
    /// contract of `serve_host`) and returns the raw HTTP response bytes.
    pub fn fetch_metrics(&mut self) -> Vec<u8> {
        self.serve_host("/metrics", |s, _| {
            (OK, Some("text/plain; version=0.0.4"), s.metrics())
        })
    }

    /// Serves `GET /trace?tenant=<name>&limit=<n>` over the simulated
    /// network, host-side like [`DispatchedServer::fetch_metrics`]: the
    /// response body is one JSON object per line (newest invocation
    /// first), each a full span tree from the dispatcher's trace ring.
    /// Both query parameters are optional — omitting `tenant` dumps all
    /// tenants, omitting `limit` defaults to 100. Returns the raw HTTP
    /// response bytes; the body is empty when tracing is disabled.
    pub fn fetch_trace(&mut self, query: &str) -> Vec<u8> {
        self.serve_host(&format!("/trace{query}"), |s, target| {
            let mut tenant = None;
            let mut limit = 100usize;
            for pair in query_pairs(target) {
                match pair {
                    ("tenant", v) => tenant = Some(v),
                    ("limit", v) => limit = v.parse().unwrap_or(limit),
                    _ => {}
                }
            }
            (OK, NDJSON, s.dispatcher.trace_json_lines(tenant, limit))
        })
    }

    /// Serves `GET /admin/drain?shard=<i>&action=<a>` over the simulated
    /// network, host-side like [`DispatchedServer::fetch_metrics`] (an
    /// operator's lifecycle controls must not compete with tenant
    /// traffic). Actions: `drain` marks the shard draining and runs one
    /// reconcile pass, `restore` returns it to active, `fail` kills it
    /// (shells dropped, parked runs evicted, queued work re-homed), and
    /// `status` (the default) changes nothing. The response body lists
    /// every shard's lifecycle state as one JSON object per line. Error
    /// answers are distinct: a *malformed* request (unparseable shard
    /// index, unknown action, or a shard-targeting action with no shard)
    /// is 400 Bad Request, while a well-formed request naming a shard
    /// that does not exist is 404 Not Found — so an operator's tooling
    /// can tell "fix the query" from "wrong topology". Neither touches
    /// the dispatcher.
    pub fn fetch_admin_drain(&mut self, query: &str) -> Vec<u8> {
        self.serve_host(&format!("/admin/drain{query}"), |s, target| {
            let mut shard: Option<usize> = None;
            let mut action = "status";
            let mut bad_query = false;
            for pair in query_pairs(target) {
                match pair {
                    ("shard", v) => match v.parse() {
                        Ok(i) => shard = Some(i),
                        Err(_) => bad_query = true,
                    },
                    ("action", v) => action = v,
                    _ => {}
                }
            }
            let shards = s.dispatcher.shard_states().len();
            let valid_action = matches!(action, "status" | "drain" | "restore" | "fail");
            if bad_query || !valid_action || (action != "status" && shard.is_none()) {
                return ("400 Bad Request", None, String::new());
            }
            if let Some(i) = shard.filter(|&i| i >= shards) {
                let body =
                    format!("{{\"error\":\"unknown shard\",\"shard\":{i},\"shards\":{shards}}}\n");
                return ("404 Not Found", NDJSON, body);
            }
            match (action, shard) {
                ("drain", Some(i)) => {
                    s.dispatcher.drain_shard(i);
                }
                ("restore", Some(i)) => s.dispatcher.restore_shard(i),
                ("fail", Some(i)) => {
                    s.dispatcher.fail_shard(i);
                }
                _ => {}
            }
            let mut body = String::new();
            for (i, state) in s.dispatcher.shard_states().into_iter().enumerate() {
                use std::fmt::Write;
                let _ = writeln!(body, "{{\"shard\":{i},\"state\":\"{}\"}}", state.label());
            }
            (OK, NDJSON, body)
        })
    }

    /// Serves `GET /admin/health` over the simulated network, host-side
    /// like [`DispatchedServer::fetch_admin_drain`]: one JSON object per
    /// shard pairing its lifecycle state with the failure detector's
    /// view (suspicion score, circuit-breaker state, last observed
    /// heartbeat in cycles), then one summary line with the detector
    /// counters. Without an installed detector the per-shard lines carry
    /// lifecycle state only and the summary says `"detector":"disabled"`.
    pub fn fetch_admin_health(&mut self) -> Vec<u8> {
        self.serve_host("/admin/health", |s, _| {
            use std::fmt::Write;
            let mut body = String::new();
            let health = s.dispatcher.shard_health();
            for (i, state) in s.dispatcher.shard_states().into_iter().enumerate() {
                match &health {
                    Some(shards) => {
                        let h = &shards[i];
                        let _ = writeln!(
                            body,
                            "{{\"shard\":{i},\"state\":\"{}\",\"suspicion\":{},\
                             \"breaker\":\"{}\",\"last_seen\":{}}}",
                            state.label(),
                            h.suspicion,
                            h.breaker.label(),
                            h.last_seen
                        );
                    }
                    None => {
                        let _ = writeln!(body, "{{\"shard\":{i},\"state\":\"{}\"}}", state.label());
                    }
                }
            }
            match s.dispatcher.health_stats() {
                Some(h) => {
                    let _ = writeln!(
                        body,
                        "{{\"declared\":{},\"restored\":{},\"false_positives\":{},\
                         \"probes\":{},\"probe_failures\":{}}}",
                        h.declared, h.restored, h.false_positives, h.probes, h.probe_failures,
                    );
                }
                None => {
                    let _ = writeln!(body, "{{\"detector\":\"disabled\"}}");
                }
            }
            (OK, NDJSON, body)
        })
    }

    /// Opens a connection as `tenant` at virtual time `arrival_s`, sends
    /// the canned GET in one piece, and offers the accepted connection to
    /// the dispatcher — the fast-client path (the handler's first `recv`
    /// finds the whole request). Shed requests close the connection
    /// immediately (the platform's "503" path, charged to no shard).
    pub fn offer(&mut self, tenant: TenantId, arrival_s: f64) -> Result<(), ShedReason> {
        self.offer_trickled(tenant, arrival_s, 1, 0.0)
    }

    /// Opens a connection as `tenant` at `arrival_s` and delivers the
    /// canned GET in `chunks` pieces spread over `spread_s` virtual
    /// seconds — a slow (slowloris-style) client. The first chunk arrives
    /// with the request; the handler's next `recv` finds an empty socket
    /// and parks until the following chunk lands, so the blocked-I/O path
    /// runs end-to-end instead of the host buffering the request.
    pub fn offer_trickled(
        &mut self,
        tenant: TenantId,
        arrival_s: f64,
        chunks: usize,
        spread_s: f64,
    ) -> Result<(), ShedReason> {
        assert!(chunks >= 1);
        self.pump_until(arrival_s);
        let client = self.kernel.net_connect(PORT).expect("connect");
        let server = self
            .kernel
            .net_accept(PORT)
            .expect("accept")
            .expect("pending connection");

        let n = self.request_line.len();
        let chunks = chunks.min(n);
        let piece = n.div_ceil(chunks);
        let parts: Vec<Vec<u8>> = self
            .request_line
            .chunks(piece)
            .map(<[u8]>::to_vec)
            .collect();
        let step = if parts.len() > 1 {
            spread_s / (parts.len() - 1) as f64
        } else {
            0.0
        };
        // The first chunk is on the wire when the request is offered.
        self.kernel.net_send(client, &parts[0]).expect("send");

        let req = Request::new(tenant, self.virtine, arrival_s)
            .with_invocation(Invocation::with_conn(server));
        let admitted = self.dispatcher.submit(req);
        match admitted {
            Ok(seq) => {
                for (i, part) in parts.into_iter().enumerate().skip(1) {
                    self.send_seq += 1;
                    self.sends.push(Reverse(ScheduledSend {
                        at_s: arrival_s + i as f64 * step,
                        seq: self.send_seq,
                        sock: client,
                        bytes: part,
                    }));
                }
                self.pending.insert(seq, PendingConn { client, server });
            }
            Err(_) => {
                self.kernel.net_close(client).ok();
                self.kernel.net_close(server).ok();
                self.run.shed_by_tenant[tenant.index()] += 1;
            }
        }
        // `submit` ran every batch due before this arrival.
        self.reap();
        admitted.map(|_| ())
    }

    /// Advances the server to virtual time `t_s`: delivers due chunks and
    /// runs the dispatcher up to it. Lets a driver observe mid-run state
    /// (e.g. scrape `/metrics` while slow clients are parked).
    pub fn run_until(&mut self, t_s: f64) {
        self.pump_until(t_s);
        self.dispatcher.run_until(t_s);
        self.reap();
    }

    /// Delivers every scheduled chunk due at or before `t_s`, advancing
    /// the dispatcher to each delivery time first so parked handlers wake
    /// in timestamp order.
    fn pump_until(&mut self, t_s: f64) {
        while self.sends.peek().is_some_and(|Reverse(s)| s.at_s <= t_s) {
            let Reverse(s) = self.sends.pop().expect("peeked");
            self.dispatcher.run_until(s.at_s);
            // A peer closed mid-trickle is fine: the handler sees EOF.
            let _ = self.kernel.net_send(s.sock, &s.bytes);
        }
    }

    /// Reads and verifies the response of every request that completed
    /// since the last call, closes its connection, and folds the
    /// completion into the run's outcome.
    fn reap(&mut self) {
        let done = self.dispatcher.completions();
        // `served` counts every completion ever recorded; `done` is the
        // tail of them no caller has taken yet.
        let served = self.dispatcher.stats().served;
        let taken = served - done.len() as u64;
        for c in &done[self.reaped.saturating_sub(taken) as usize..] {
            assert!(c.exit_normal, "handler failed");
            let conn = self
                .pending
                .remove(&c.seq)
                .expect("completion of an open connection");
            let resp = self
                .kernel
                .net_recv(conn.client, self.file_size + 512)
                .expect("recv")
                .expect("response");
            assert_eq!(
                response_status(&resp),
                Some(200),
                "tenant {} got a bad response",
                c.tenant.index()
            );
            self.kernel.net_close(conn.client).ok();
            self.kernel.net_close(conn.server).ok();
            self.run.served += 1;
            self.run.served_by_tenant[c.tenant.index()] += 1;
            self.run.latencies.push(c.latency());
            self.run.latencies_by_tenant[c.tenant.index()].push(c.latency());
            self.first_arrival = self.first_arrival.min(c.arrival);
            self.last_finish = self.last_finish.max(c.finish);
        }
        self.reaped = served;
    }

    /// Drains the dispatcher, reads the responses still outstanding, and
    /// verifies each admitted request produced a correct 200.
    pub fn finish(mut self) -> DispatchedRun {
        self.pump_until(f64::INFINITY);
        self.dispatcher.run_to_idle();
        self.reap();
        assert!(
            self.pending.is_empty() && self.run.served == self.dispatcher.stats().admitted,
            "every admitted connection must complete"
        );
        let span = (self.last_finish - self.first_arrival).max(f64::EPSILON);
        DispatchedRun {
            throughput_rps: self.run.served as f64 / span,
            stats: self.dispatcher.stats(),
            ..self.run
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use vclock::stats;

    /// Convenience: serves `per_tenant` requests from each profile at
    /// `rate_rps` per tenant (interleaved arrivals) and returns the run.
    fn run_server_dispatched(
        shards: usize,
        profiles: Vec<TenantProfile>,
        per_tenant: usize,
        rate_rps: f64,
        file_size: usize,
    ) -> DispatchedRun {
        let mut server = DispatchedServer::new(shards, file_size);
        let tenants: Vec<TenantId> = profiles.into_iter().map(|p| server.add_tenant(p)).collect();
        for i in 0..per_tenant {
            let t = i as f64 / rate_rps;
            for &tenant in &tenants {
                let _ = server.offer(tenant, t);
            }
        }
        server.finish()
    }

    #[test]
    fn concurrent_connections_are_all_served_correctly() {
        let run = run_server_dispatched(
            4,
            vec![http_tenant("a"), http_tenant("b")],
            10,
            2_000.0,
            1024,
        );
        assert_eq!(run.served, 20);
        assert_eq!(run.served_by_tenant, vec![10, 10]);
        assert_eq!(run.shed_by_tenant, vec![0, 0]);
        assert!(run.throughput_rps > 0.0);
    }

    #[test]
    fn throttled_client_class_is_shed_while_others_are_served() {
        // An abusive client class limited to 50 rps offers 2000 rps; a
        // well-behaved class rides along unthrottled.
        let run = run_server_dispatched(
            2,
            vec![
                http_tenant("abusive").with_rate(50.0, 4.0),
                http_tenant("wellbehaved"),
            ],
            40,
            2_000.0,
            512,
        );
        let abusive = 0;
        let good = 1;
        assert!(run.shed_by_tenant[abusive] > 0, "rate limit never bound");
        assert_eq!(
            run.served_by_tenant[good], 40,
            "well-behaved tenant must be unaffected"
        );
        assert_eq!(
            run.served_by_tenant[abusive] + run.shed_by_tenant[abusive],
            40
        );
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text_with_warm_counters() {
        let mut server = DispatchedServer::new(2, 512);
        let good = server.add_tenant(http_tenant("good"));
        let bad = server.add_tenant(http_tenant("throttled").with_rate(10.0, 1.0));
        for i in 0..6 {
            let _ = server.offer(good, i as f64 * 0.001);
            let _ = server.offer(bad, i as f64 * 0.001);
        }
        server.dispatcher.run_to_idle();

        let resp = server.fetch_metrics();
        assert_eq!(response_status(&resp), Some(200));
        let text = String::from_utf8(resp).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();

        let stats = server.dispatcher().stats();
        assert!(stats.warm_hits > 0, "handler snapshots; repeats must hit");
        let mem = visa::mem::counters();
        let expect = [
            format!(
                "vsched_requests_total{{outcome=\"served\"}} {}",
                stats.served
            ),
            format!(
                "vsched_requests_total{{outcome=\"shed_rate_limit\"}} {}",
                stats.shed_rate_limit
            ),
            format!("vsched_warm_hits_total {}", stats.warm_hits),
            format!("vsched_warm_demotions_total {}", stats.warm_demotions),
            "vsched_topology{level=\"sockets\"} 1".to_string(),
            "vsched_topology{level=\"shards\"} 2".to_string(),
            format!(
                "vsched_steal_transfers_total{{distance=\"same_ccx\"}} {}",
                stats.stolen_same_ccx
            ),
            format!(
                "vsched_warm_resident {}",
                server.dispatcher().warm_resident()
            ),
            format!("vsched_blocked_total {}", stats.blocked),
            format!("vsched_resumed_total {}", stats.resumed),
            format!("vsched_busy_wait_cycles_total {}", stats.busy_wait_cycles),
            "vsched_parked 0".to_string(),
            "vsched_shard_parked{shard=\"0\"} 0".to_string(),
            format!(
                "vsched_requests_total{{outcome=\"shed_evicted\"}} {}",
                stats.shed_evicted
            ),
            format!(
                "vsched_tenant_served_total{{tenant=\"good\"}} {}",
                server.dispatcher().tenant_stats(good).served
            ),
            "# TYPE vsched_shard_warm_shells gauge".to_string(),
            "vsched_shard_queue_depth{shard=\"1\"} 0".to_string(),
            // Per-thread counters: nothing else moves them under this test.
            format!(
                "visa_mem_pages_total{{op=\"rearmed\"}} {}",
                mem.pages_rearmed
            ),
            format!(
                "visa_mem_buffers_total{{event=\"allocated\"}} {}",
                mem.buffers_allocated
            ),
        ];
        assert!(mem.pages_rearmed >= stats.warm_hits);
        for line in &expect {
            assert!(
                body.lines().any(|l| l == line),
                "metrics body missing `{line}`:\n{body}"
            );
        }
        // Every metric is announced with HELP and TYPE before its samples.
        for name in ["vsched_requests_total", "wasp_pool_shells_total"] {
            assert!(body.contains(&format!("# HELP {name} ")));
            assert!(body.contains(&format!("# TYPE {name} ")));
        }
    }

    #[test]
    fn trickled_requests_park_resume_and_still_serve_correctly() {
        // Two slow clients trickle their headers in 4 chunks over 20 ms
        // alongside fast traffic; every response must still be a full 200,
        // and the slow requests must actually take the park/resume path.
        let mut server = DispatchedServer::new(2, 512);
        let slow = server.add_tenant(http_tenant("slow"));
        let fast = server.add_tenant(http_tenant("fast"));
        server.offer_trickled(slow, 0.0, 4, 0.02).unwrap();
        server.offer_trickled(slow, 0.001, 4, 0.02).unwrap();
        for i in 0..6 {
            server.offer(fast, 0.002 + i as f64 * 0.001).unwrap();
        }
        let run = server.finish();
        assert_eq!(run.served, 8);
        assert_eq!(run.served_by_tenant, vec![2, 6]);
        let s = run.stats;
        assert!(s.blocked >= 2, "slow clients must block: {s:?}");
        assert!(s.resumed >= 2, "and resume per chunk: {s:?}");
        assert_eq!(s.busy_wait_cycles, 0, "event-driven burns no worker");
        // Slow latencies span their trickle; fast ones don't pay for it.
        let slow_p50 = stats::percentile(&run.latencies_by_tenant[slow.index()], 50.0);
        let fast_p99 = stats::percentile(&run.latencies_by_tenant[fast.index()], 99.0);
        assert!(slow_p50 >= 0.019, "slow p50 {slow_p50} spans the trickle");
        assert!(fast_p99 < 0.005, "fast p99 {fast_p99} rides free");
    }

    #[test]
    fn responses_are_read_as_they_land_so_open_sockets_track_work_in_flight() {
        const N: u64 = 2_000;
        let mut server = DispatchedServer::new(2, 512);
        let slow = server.add_tenant(http_tenant("slow"));
        let fast = server.add_tenant(http_tenant("fast"));
        let (mut taken, mut open_hw) = (0, 0);
        for i in 0..N {
            let at = i as f64 * 0.000_2;
            if i % 50 == 0 {
                server.offer_trickled(slow, at, 4, 0.004).unwrap();
            } else {
                server.offer(fast, at).unwrap();
            }
            // Two endpoints per connection still in flight, and nothing
            // else: a served connection's sockets are gone from the kernel.
            let s = server.dispatcher.stats();
            let open = server.kernel.net_open_sockets() as u64;
            assert!(open <= 2 * (s.admitted - s.served), "{open} open: {s:?}");
            open_hw = open_hw.max(open);
            // A caller draining the dispatcher between pumps must not move
            // the server's place in the completion stream.
            if i % 300 == 299 {
                taken += server.dispatcher_mut().take_completions().len() as u64;
            }
        }
        assert!(open_hw < N / 10, "open sockets peaked at {open_hw}");
        assert!(taken > N / 2, "the mid-run drains took {taken}");
        server.run_until(N as f64 * 0.000_2 + 0.01);
        assert_eq!(server.kernel.net_open_sockets(), 0);
        taken += server.dispatcher.completions().len() as u64;
        // Every response was read and checked exactly once: a skipped one
        // fails `finish`, a double read finds its connection already gone.
        let run = server.finish();
        assert_eq!((run.served, taken), (N, N));
        assert_eq!(run.served_by_tenant, vec![N / 50, N - N / 50]);
        assert_eq!(run.latencies.len() as u64, N);
    }

    #[test]
    fn grouped_topology_server_serves_and_reports_topology_gauges() {
        // A 2-socket topology flows through config to the dispatcher and
        // out the metrics endpoint; service is unaffected.
        let mut server = DispatchedServer::new_on_topology(
            8,
            Some(Topology::grouped(2, 2, 2)),
            512,
            BlockMode::EventDriven,
        );
        let tenant = server.add_tenant(http_tenant("t"));
        for i in 0..12 {
            server.offer(tenant, i as f64 * 0.0005).unwrap();
        }
        server.dispatcher.run_to_idle();
        let resp = server.fetch_metrics();
        assert_eq!(response_status(&resp), Some(200));
        let text = String::from_utf8(resp).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        for line in [
            "vsched_topology{level=\"sockets\"} 2",
            "vsched_topology{level=\"ccxs\"} 4",
            "vsched_topology{level=\"shards\"} 8",
        ] {
            assert!(
                body.lines().any(|l| l == line),
                "metrics body missing `{line}`"
            );
        }
        // Distance-classed steal counters reconcile with the total.
        let s = server.dispatcher().stats();
        assert_eq!(
            s.stolen,
            s.stolen_same_ccx + s.stolen_cross_ccx + s.stolen_cross_socket
        );
        let run = server.finish();
        assert_eq!(run.served, 12);
    }

    #[test]
    fn spin_poll_server_still_serves_trickled_requests_but_burns_workers() {
        let mut server = DispatchedServer::new_with(1, 256, BlockMode::SpinPoll);
        let slow = server.add_tenant(http_tenant("slow"));
        server.offer_trickled(slow, 0.0, 2, 0.01).unwrap();
        let run = server.finish();
        assert_eq!(run.served, 1);
        assert!(run.stats.busy_wait_cycles > 0, "the wait occupies a worker");
    }

    /// Parses an exposition body and checks it against the text format:
    /// HELP before TYPE before samples, each announced once; every sample
    /// of a declared family with a numeric value and no duplicate series;
    /// histogram buckets cumulative and `+Inf`-terminated at the
    /// `_count`. Returns each family's kind and every series.
    fn conform(body: &str) -> (HashMap<String, String>, HashSet<String>) {
        let mut helped: HashSet<&str> = HashSet::new();
        let mut typed: HashMap<String, String> = HashMap::new();
        let mut seen_series: HashSet<String> = HashSet::new();
        // Ordered histogram bucket values per (family, non-le labels).
        let mut buckets: HashMap<(String, String), Vec<(String, f64)>> = HashMap::new();
        let mut counts: HashMap<(String, String), f64> = HashMap::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(helped.insert(name), "duplicate HELP for {name}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let (name, kind) = (it.next().unwrap(), it.next().unwrap());
                assert!(
                    typed.insert(name.into(), kind.into()).is_none(),
                    "duplicate TYPE for {name}"
                );
                assert!(helped.contains(name), "TYPE before HELP for {name}");
                continue;
            }
            // A sample line: `name[{labels}] value`. A label value with a
            // raw (unescaped) newline would split into a line that fails
            // this parse.
            let (series, value) = line.rsplit_once(' ').unwrap_or(("", line));
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("sample value not a number in line `{line}`"));
            assert!(
                seen_series.insert(series.into()),
                "duplicate series `{series}`"
            );
            let name = series.split('{').next().unwrap();
            let kind = |f: &str| typed.get(f).map(String::as_str);
            // Resolve the family: histogram samples hang `_bucket`,
            // `_sum`, `_count` off the declared family name.
            let family = if typed.contains_key(name) {
                name.to_string()
            } else {
                let base = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or_else(|| panic!("sample `{name}` has no TYPE"));
                assert_eq!(
                    kind(base),
                    Some("histogram"),
                    "`{name}` suffix on a non-histogram family"
                );
                base.to_string()
            };
            assert!(
                helped.contains(family.as_str()),
                "sample `{series}` before its HELP"
            );
            if name.ends_with("_bucket") && kind(&family) == Some("histogram") {
                let labels = series.split_once('{').unwrap().1.trim_end_matches('}');
                let (others, le): (Vec<&str>, Vec<&str>) = labels
                    .split("\",")
                    .partition(|p| !p.trim_start().starts_with("le="));
                buckets
                    .entry((family, others.join(",")))
                    .or_default()
                    .push((le.join("").to_string(), value));
            } else if name.ends_with("_count") && kind(&family) == Some("histogram") {
                let labels = series.split_once('{').map_or("", |(_, l)| l);
                counts.insert((family, labels.trim_end_matches('}').to_string()), value);
            }
        }
        for ((family, labels), series) in &buckets {
            let mut prev = -1.0;
            for (le, v) in series {
                assert!(
                    *v >= prev,
                    "{family}{{{labels}}} buckets not cumulative at le={le}"
                );
                prev = *v;
            }
            let (last_le, last_v) = series.last().unwrap();
            assert!(
                last_le.contains("+Inf"),
                "{family}{{{labels}}} not +Inf-terminated (ends at {last_le})"
            );
            let count_labels = if labels.is_empty() {
                String::new()
            } else {
                format!("{labels}\"")
            };
            let count = counts
                .get(&(family.clone(), count_labels))
                .unwrap_or_else(|| panic!("{family}{{{labels}}} has no _count"));
            assert_eq!(last_v, count, "{family}{{{labels}}} +Inf != _count");
        }
        (typed, seen_series)
    }

    /// Every family of `table` is announced in `typed` with its kind, and
    /// nothing else is.
    fn announces_exactly<S>(typed: &HashMap<String, String>, table: &[expo::Family<S>]) {
        let declared: HashMap<String, String> = table
            .iter()
            .map(|f| (f.name.to_string(), f.kind.as_str().to_string()))
            .collect();
        assert_eq!(typed, &declared);
    }

    #[test]
    fn metrics_conform_to_prometheus_text_format() {
        use crate::ingress::Ingress;
        use vclock::Cycles;
        use vtrace::slo::{BurnPolicy, SloEngine, SloSpec};

        // The naming rule, off the tables: a counter and only a counter
        // ends in `_total`.
        let kinds = expo::NODE.iter().map(|f| (f.name, f.kind));
        for (name, kind) in kinds.chain(expo::EDGE.iter().map(|f| (f.name, f.kind))) {
            assert_eq!(
                name.ends_with("_total"),
                kind == expo::Kind::Counter,
                "{name} is a {kind:?}"
            );
        }

        let mut server = DispatchedServer::new(2, 256);
        // A hostile tenant name: quote, backslash, and newline must all
        // come out escaped or the scrape is unparseable.
        let evil = server.add_tenant(http_tenant("e\\v\"i\nl"));
        let good = server.add_tenant(http_tenant("good"));
        let d = server.dispatcher_mut();
        d.enable_tracing(64);
        d.set_health(vsched::HealthConfig::new());
        d.set_slo(SloEngine::new(
            vec![
                SloSpec::latency("e2e_p99", 0.99, Cycles::from_micros(50_000.0)),
                SloSpec::availability("availability", 0.999),
            ],
            BurnPolicy::default(),
        ));
        for i in 0..8 {
            let _ = server.offer(evil, i as f64 * 0.001);
            let _ = server.offer(good, i as f64 * 0.001);
        }
        server.dispatcher.run_to_idle();
        server.dispatcher.slo_tick();
        let text = String::from_utf8(server.fetch_metrics()).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let (typed, seen_series) = conform(body);
        // With an SLO engine and a detector installed, every row of the
        // table is announced, with its declared kind.
        announces_exactly(&typed, expo::NODE);
        // Escaped label values: the hostile name appears exactly in its
        // escaped form, never raw.
        assert!(
            body.contains("tenant=\"e\\\\v\\\"i\\nl\""),
            "escaped tenant label missing:\n{body}"
        );
        assert!(
            seen_series.contains("vsched_e2e_cycles_count{tenant=\"good\"}"),
            "e2e histogram not labelled per tenant"
        );
        // SLO gauges are exported for every declared objective, and an
        // alert gauge reads 1 exactly while its severity fires.
        let reports = server.dispatcher().slo().unwrap().report();
        for r in &reports {
            for sev in ["ticket", "page"] {
                let firing = r.severity.is_some_and(|s| s.to_string() == sev);
                let line = format!(
                    "vslo_alert{{slo=\"{}\",severity=\"{sev}\"}} {}",
                    r.name,
                    u8::from(firing)
                );
                assert!(body.lines().any(|l| l == line), "missing `{line}`");
            }
        }
        for series in [
            "vslo_error_budget_remaining{slo=\"e2e_p99\"}",
            "vslo_error_budget_remaining{slo=\"availability\"}",
            "vslo_burn_rate{slo=\"e2e_p99\",window=\"fast\"}",
            "vslo_burn_rate{slo=\"availability\",window=\"slow\"}",
        ] {
            assert!(
                seen_series.contains(series),
                "missing SLO series `{series}`:\n{body}"
            );
        }

        // The edge surface, with a detector and one hung node: every
        // family announced, suspicion a ratio like the node's.
        let mut ing = Ingress::new(2, 2);
        let img = visa::assemble(".org 0x8000\n mov r0, 7\n hlt\n").unwrap();
        let v = ing.register(VirtineSpec::new("f", img, 64 * 1024).with_snapshot(false));
        let t = ing.add_tenant(TenantProfile::new("app"), f64::INFINITY, f64::INFINITY);
        ing.set_health(vsched::HealthConfig::new());
        for i in 0..5 {
            ing.offer(t, i, v, b"", 0.001 * (i + 1) as f64).unwrap();
        }
        ing.cluster_mut().hang_node_at(0.006, 1, 1.0);
        ing.advance(0.00712);
        let edge = ing.metrics();
        let (typed, seen_series) = conform(&edge);
        announces_exactly(&typed, expo::EDGE);
        assert!(seen_series.contains("vsched_ingress_routed_total{node=\"1\"}"));
        assert!(
            edge.lines()
                .any(|l| l == "vsched_ingress_suspicion{node=\"1\"} 2.5"),
            "{edge}"
        );
    }

    #[test]
    fn trace_endpoint_dumps_span_trees_filtered_by_tenant() {
        let mut server = DispatchedServer::new(2, 256);
        let a = server.add_tenant(http_tenant("alpha"));
        let b = server.add_tenant(http_tenant("beta"));
        server.dispatcher_mut().enable_tracing(32);
        for i in 0..4 {
            server.offer(a, i as f64 * 0.001).unwrap();
            server.offer(b, i as f64 * 0.001).unwrap();
        }
        server.dispatcher.run_to_idle();

        let resp = server.fetch_trace("?tenant=alpha&limit=3");
        assert_eq!(response_status(&resp), Some(200));
        let text = String::from_utf8(resp).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3, "limit honoured:\n{body}");
        for l in &lines {
            assert!(l.contains("\"tenant\":\"alpha\""), "filter leaked: {l}");
            assert!(l.contains("\"outcome\":\"completed\""));
            for span in ["admit", "queue_wait", "shell_acquire", "exec", "complete"] {
                assert!(
                    l.contains(&format!("\"span\":\"{span}\"")),
                    "missing {span}: {l}"
                );
            }
        }

        // Unfiltered dump covers both tenants; default limit is ample.
        let all = String::from_utf8(server.fetch_trace("")).unwrap();
        let body = all.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body.lines().count(), 8);
        assert!(body.contains("\"tenant\":\"beta\""));

        // An unknown tenant matches nothing rather than erroring.
        let none = String::from_utf8(server.fetch_trace("?tenant=nobody")).unwrap();
        assert_eq!(none.split("\r\n\r\n").nth(1).unwrap(), "");
    }

    #[test]
    fn admin_drain_endpoint_drives_the_shard_lifecycle() {
        let mut server = DispatchedServer::new(2, 256);
        let tenant = server.add_tenant(http_tenant("t"));
        for i in 0..6 {
            server.offer(tenant, i as f64 * 0.001).unwrap();
        }
        server.dispatcher.run_to_idle();

        // Status: every shard active.
        let resp = server.fetch_admin_drain("");
        assert_eq!(response_status(&resp), Some(200));
        let text = String::from_utf8(resp).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            body.lines().collect::<Vec<_>>(),
            [
                "{\"shard\":0,\"state\":\"active\"}",
                "{\"shard\":1,\"state\":\"active\"}",
            ],
        );

        // Drain shard 0: with no live traffic it converges immediately.
        let text = String::from_utf8(server.fetch_admin_drain("?shard=0&action=drain")).unwrap();
        assert!(
            text.contains("{\"shard\":0,\"state\":\"drained\"}"),
            "{text}"
        );
        assert!(text.contains("{\"shard\":1,\"state\":\"active\"}"));
        // The gauge agrees with the payload.
        let metrics = String::from_utf8(server.fetch_metrics()).unwrap();
        assert!(metrics
            .lines()
            .any(|l| l == "vsched_shard_state{shard=\"0\"} 2"));
        assert!(metrics
            .lines()
            .any(|l| l == "vsched_shard_state{shard=\"1\"} 0"));

        // Traffic keeps flowing to the survivor while shard 0 is out.
        for i in 0..3 {
            server.offer(tenant, 1.0 + i as f64 * 0.001).unwrap();
        }
        server.dispatcher.run_to_idle();

        // Restore brings it back.
        let text = String::from_utf8(server.fetch_admin_drain("?shard=0&action=restore")).unwrap();
        assert!(text.contains("{\"shard\":0,\"state\":\"active\"}"));

        // Fail (nothing in flight): shells dropped, state failed, the
        // eviction counters stay zero, and the drop shows in the pool
        // series.
        let text = String::from_utf8(server.fetch_admin_drain("?shard=1&action=fail")).unwrap();
        assert!(text.contains("{\"shard\":1,\"state\":\"failed\"}"));
        let metrics = String::from_utf8(server.fetch_metrics()).unwrap();
        assert!(metrics
            .lines()
            .any(|l| l == "vsched_shard_state{shard=\"1\"} 3"));
        assert!(metrics
            .lines()
            .any(|l| l == "vsched_evictions_total{reason=\"grace_expired\"} 0"));
        assert!(metrics
            .lines()
            .any(|l| l == "vsched_evictions_total{reason=\"shard_failed\"} 0"));
        assert!(metrics.lines().any(|l| l
            .starts_with("wasp_pool_shells_total{event=\"dropped\"} ")
            && !l.ends_with(" 0")));
        server.fetch_admin_drain("?shard=1&action=restore");

        // Malformed requests answer 400 and change nothing.
        for bad in [
            "?shard=0&action=explode",
            "?action=drain",
            "?shard=zero&action=drain",
        ] {
            let resp = server.fetch_admin_drain(bad);
            assert_eq!(response_status(&resp), Some(400), "query `{bad}`");
        }
        // A well-formed request naming a shard outside the topology is
        // not a malformed query: it answers 404, with a body naming the
        // bound, and changes nothing.
        for missing in ["?shard=9&action=drain", "?shard=2&action=status"] {
            let resp = server.fetch_admin_drain(missing);
            assert_eq!(response_status(&resp), Some(404), "query `{missing}`");
        }
        let text = String::from_utf8(server.fetch_admin_drain("?shard=9&action=drain")).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            body.trim_end(),
            "{\"error\":\"unknown shard\",\"shard\":9,\"shards\":2}"
        );
        let run = server.finish();
        assert_eq!(run.served, 9, "lifecycle churn lost nothing");
    }

    #[test]
    fn admin_health_endpoint_reports_detector_state() {
        let mut server = DispatchedServer::new(2, 256);
        let tenant = server.add_tenant(http_tenant("t"));

        // Without a detector: lifecycle state only, summary says so.
        let resp = server.fetch_admin_health();
        assert_eq!(response_status(&resp), Some(200));
        let text = String::from_utf8(resp).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            body.lines().collect::<Vec<_>>(),
            [
                "{\"shard\":0,\"state\":\"active\"}",
                "{\"shard\":1,\"state\":\"active\"}",
                "{\"detector\":\"disabled\"}",
            ],
        );

        // With a detector installed, every shard reports its breaker and
        // suspicion, and the summary carries the counters.
        server
            .dispatcher_mut()
            .set_health(vsched::HealthConfig::new());
        for i in 0..4 {
            server.offer(tenant, i as f64 * 0.001).unwrap();
        }
        server.dispatcher.run_to_idle();
        let text = String::from_utf8(server.fetch_admin_health()).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines[..2].iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"shard\":{i},\"state\":\"active\"")),
                "{line}"
            );
            assert!(line.contains("\"breaker\":\"closed\""), "{line}");
            assert!(line.contains("\"suspicion\":"), "{line}");
            assert!(line.contains("\"last_seen\":"), "{line}");
        }
        assert!(
            lines[2].starts_with("{\"declared\":0,\"restored\":0,\"false_positives\":0,"),
            "steady state declares nothing: {}",
            lines[2]
        );
        // The suspicion gauge family rides the metrics scrape too.
        let metrics = String::from_utf8(server.fetch_metrics()).unwrap();
        assert!(metrics
            .lines()
            .any(|l| l.starts_with("vsched_suspicion{shard=\"0\"} ")));
        let run = server.finish();
        assert_eq!(run.served, 4);
    }

    #[test]
    fn metrics_scrape_charges_no_shard_and_serves_no_virtine() {
        let mut server = DispatchedServer::new(1, 128);
        let before = server.dispatcher().stats();
        let resp = server.fetch_metrics();
        assert_eq!(response_status(&resp), Some(200));
        let after = server.dispatcher().stats();
        assert_eq!(before, after, "scrapes must not touch dispatcher state");
    }

    #[test]
    fn more_shards_cut_tail_latency_under_load() {
        // ~27 µs of service per request: offering a request every 5 µs
        // saturates one shard several times over.
        let run =
            |shards| run_server_dispatched(shards, vec![http_tenant("t")], 60, 200_000.0, 512);
        let one = run(1);
        let eight = run(8);
        let p95_1 = stats::percentile(&one.latencies, 95.0);
        let p95_8 = stats::percentile(&eight.latencies, 95.0);
        assert!(
            p95_8 < p95_1,
            "8 shards should cut p95 latency: {p95_8} vs {p95_1}"
        );
        assert!(eight.throughput_rps > one.throughput_rps);
    }
}
