//! Event-driven blocked I/O under a slowloris mix.
//!
//! The §6.3 HTTP workload blocks in `vrecv` between boundary crossings.
//! Without suspension that wait is dead weight: a virtine parked in `recv`
//! either spin-polled (burning its shard worker for the whole wait) or the
//! host had to buffer the entire request before the virtine ever ran. The
//! run-loop contract now makes blocking an *exit*: the run suspends
//! (`wasp::SuspendedRun`), the shard worker goes back to useful work, and a
//! socket wake resumes the guest at the faulting hypercall.
//!
//! The adversarial mix: K slow clients trickle their request headers over
//! tens of milliseconds of virtual time (chunked `offer_trickled`
//! deliveries) while a fast tenant sustains steady traffic. Three runs:
//!
//! * **baseline** — the fast tenant alone (no slow clients): the floor.
//! * **spin-poll** — the pre-suspension policy: each blocked handler pins
//!   its shard worker until the next chunk lands, so the slow clients
//!   occupy every shard and the fast tenant queues behind them.
//! * **event-driven** — blocked handlers park; workers keep serving.
//!
//! The row's checks: event-driven keeps fast-tenant p99 within 2x of the
//! no-slow-client baseline while spin-poll degrades it >= 10x (so the mix
//! is adversarial), the worker busy cycles charged to blocked waits drop
//! to zero, and the slow clients really park and resume. Asserted in the
//! run: every request completes, and the parked-run and busy-wait gauges
//! are exported via the server's `/metrics` endpoint mid-trickle.

use crate::json::Obj;
use vhttp::dispatch::DispatchedServer;
use vsched::BlockMode;

/// Dispatcher shards.
const SHARDS: usize = 4;

/// Slow (slowloris) clients, all offered in the first few milliseconds.
const SLOW_CLIENTS: usize = 8;

/// Chunks each slow client's request headers arrive in.
const SLOW_CHUNKS: usize = 4;

/// Virtual time a slow client spreads its chunks over.
const SLOW_SPREAD_S: f64 = 0.030;

/// Fast tenants (one warm home shard each under snapshot-aware placement,
/// so the fast class genuinely runs on every shard — a single fast tenant
/// would hide on its one warm shard and dodge the pinned workers).
const FAST_TENANTS: usize = SHARDS;

/// Fast-class requests (round-robined over the fast tenants) and the
/// window they arrive in. The stream is large enough that the handful of
/// fast requests sharing a batch with a slow client's *boot* segment
/// (legitimate execution, present in any multi-tenant mix) sit above p99;
/// what p99 then measures is whether the slow clients' 30 ms *waits* leak
/// into fast-class latency.
const FAST_REQUESTS: usize = 1000;
const FAST_WINDOW_S: f64 = 0.040;

/// Static file size served.
const FILE_SIZE: usize = 512;

/// Resumes the event-driven run must reach: half the gaps between the
/// slow clients' chunks.
pub(super) const MIN_RESUMED: usize = SLOW_CLIENTS * (SLOW_CHUNKS - 1) / 2;

/// One run's artifact row.
fn run(label: &str, block: BlockMode, with_slow: bool) -> Obj {
    let mut server = DispatchedServer::new_with(SHARDS, FILE_SIZE, block);
    let fast: Vec<_> = (0..FAST_TENANTS)
        .map(|i| server.add_tenant(vhttp::dispatch::http_tenant(format!("fast{i}"))))
        .collect();
    let slow = server.add_tenant(vhttp::dispatch::http_tenant("slow"));

    // Offers interleave in arrival order (arrivals must be non-decreasing
    // across submits): slow connections staggered across the first few
    // milliseconds — least-loaded fallback spreads them over every shard —
    // and the fast stream at a steady cadence through their trickle
    // windows. The fast offers pump the clock; sample the parked gauge as
    // time passes.
    let slow_clients = if with_slow { SLOW_CLIENTS } else { 0 };
    let slow_offers = (0..slow_clients).map(|i| (i as f64 * 0.0005, true));
    let fast_gap = FAST_WINDOW_S / FAST_REQUESTS as f64;
    let fast_offers = (0..FAST_REQUESTS).map(|i| (0.0001 + i as f64 * fast_gap, false));
    let mut offers: Vec<(f64, bool)> = slow_offers.chain(fast_offers).collect();
    offers.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut max_parked_seen = 0;
    let mut scraped = false;
    let mut fast_rr = 0usize;
    for (arrival, is_slow) in offers {
        if is_slow {
            let offer = server.offer_trickled(slow, arrival, SLOW_CHUNKS, SLOW_SPREAD_S);
            offer.expect("unthrottled");
        } else {
            let offer = server.offer(fast[fast_rr % FAST_TENANTS], arrival);
            offer.expect("unthrottled");
            fast_rr += 1;
        }
        max_parked_seen = max_parked_seen.max(server.dispatcher().parked());
        if with_slow && !scraped && arrival > SLOW_SPREAD_S / 2.0 {
            // Mid-trickle observability: the /metrics scrape (which
            // always carries the parked and busy-wait families) answers
            // and never occupies a shard worker.
            scraped = true;
            let before = server.dispatcher().stats();
            let resp = server.fetch_metrics();
            assert_eq!(vhttp::response_status(&resp), Some(200));
            assert_eq!(before, server.dispatcher().stats(), "a scrape ran work");
        }
    }
    let run = server.finish();
    let expected = (FAST_REQUESTS + slow_clients) as u64;
    assert_eq!(run.served, expected, "{label}: every request must complete");

    // Percentiles come off the shared cycle histogram (the same bucketing
    // `/metrics` exports), not ad-hoc sorted-slice math.
    let fast_lat: Vec<f64> = fast
        .iter()
        .flat_map(|t| run.latencies_by_tenant[t.index()].iter().copied())
        .collect();
    let fast_h = crate::latency_histogram(&fast_lat);
    let slow_h = crate::latency_histogram(&run.latencies_by_tenant[slow.index()]);
    let slow_p99_ms = match with_slow {
        true => crate::hist_percentile_ms(&slow_h, 99.0),
        false => 0.0,
    };
    Obj::new()
        .str("label", label)
        .num("fast_p50_ms", crate::hist_percentile_ms(&fast_h, 50.0), 6)
        .num("fast_p99_ms", crate::hist_percentile_ms(&fast_h, 99.0), 6)
        .num("slow_p99_ms", slow_p99_ms, 6)
        .val("served", run.served)
        .val("blocked", run.stats.blocked)
        .val("resumed", run.stats.resumed)
        .val("busy_wait_cycles", run.stats.busy_wait_cycles)
        .val("max_parked_seen", max_parked_seen)
}

/// Runs: no slow clients, then spin-poll and event-driven with them.
pub(super) fn measure() -> Obj {
    let runs = [
        run("baseline (no slow clients)", BlockMode::EventDriven, false),
        run("spin-poll + slow clients", BlockMode::SpinPoll, true),
        run("event-driven + slow clients", BlockMode::EventDriven, true),
    ];
    let config = Obj::new()
        .val("shards", SHARDS)
        .val("slow_clients", SLOW_CLIENTS)
        .val("slow_chunks", SLOW_CHUNKS)
        .val("slow_spread_s", SLOW_SPREAD_S)
        .val("fast_requests", FAST_REQUESTS)
        .val("fast_window_s", FAST_WINDOW_S);
    Obj::new().rows("runs", runs).val("config", config)
}
