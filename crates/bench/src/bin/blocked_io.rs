//! Event-driven blocked I/O under a slowloris mix.
//!
//! The §6.3 HTTP workload blocks in `vrecv` between boundary crossings.
//! Before this PR that wait was dead weight: a virtine parked in `recv`
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
//! Acceptance: event-driven keeps fast-tenant p99 within 2x of the
//! no-slow-client baseline while spin-poll degrades it >= 10x, and the
//! worker busy cycles charged to blocked waits drop to zero. Parked-run
//! and busy-wait gauges are exported via the server's `/metrics` endpoint
//! (asserted mid-run). Writes `BENCH_blocked_io.json` for CI.

use bench::json::Obj;
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

struct RunResultRow {
    label: &'static str,
    fast_p50_ms: f64,
    fast_p99_ms: f64,
    slow_p99_ms: f64,
    served: u64,
    blocked: u64,
    resumed: u64,
    busy_wait_cycles: u64,
    max_parked_seen: usize,
}

fn run(label: &'static str, block: BlockMode, with_slow: bool) -> RunResultRow {
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
    enum Offer {
        Slow,
        Fast,
    }
    let mut offers: Vec<(f64, Offer)> = Vec::new();
    if with_slow {
        for i in 0..SLOW_CLIENTS {
            offers.push((i as f64 * 0.0005, Offer::Slow));
        }
    }
    for i in 0..FAST_REQUESTS {
        let arrival = 0.0001 + i as f64 * (FAST_WINDOW_S / FAST_REQUESTS as f64);
        offers.push((arrival, Offer::Fast));
    }
    offers.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut max_parked_seen = 0;
    let mut scraped = false;
    let mut fast_rr = 0usize;
    for (arrival, kind) in offers {
        match kind {
            Offer::Slow => server
                .offer_trickled(slow, arrival, SLOW_CHUNKS, SLOW_SPREAD_S)
                .expect("unthrottled"),
            Offer::Fast => {
                server
                    .offer(fast[fast_rr % FAST_TENANTS], arrival)
                    .expect("unthrottled");
                fast_rr += 1;
            }
        }
        max_parked_seen = max_parked_seen.max(server.dispatcher().parked());
        if with_slow && !scraped && arrival > SLOW_SPREAD_S / 2.0 {
            // Mid-trickle observability: the /metrics scrape exposes the
            // blocked-I/O gauges (and never occupies a shard worker).
            scraped = true;
            let resp = server.fetch_metrics();
            assert_eq!(vhttp::response_status(&resp), Some(200));
            let text = String::from_utf8(resp).expect("utf8 metrics");
            assert!(
                text.contains("vsched_parked") && text.contains("vsched_busy_wait_cycles_total"),
                "blocked-I/O gauges missing from /metrics"
            );
        }
    }
    if with_slow && block == BlockMode::EventDriven {
        assert!(
            max_parked_seen > 0,
            "slow clients must have been parked mid-trickle"
        );
    }

    let run = server.finish();
    let expected = FAST_REQUESTS as u64 + if with_slow { SLOW_CLIENTS as u64 } else { 0 };
    assert_eq!(run.served, expected, "{label}: every request must complete");

    // Percentiles come off the shared cycle histogram (the same bucketing
    // `/metrics` exports), not ad-hoc sorted-slice math.
    let fast_lat: Vec<f64> = fast
        .iter()
        .flat_map(|t| run.latencies_by_tenant[t.index()].iter().copied())
        .collect();
    let fast_h = bench::latency_histogram(&fast_lat);
    let slow_h = bench::latency_histogram(&run.latencies_by_tenant[slow.index()]);
    RunResultRow {
        label,
        fast_p50_ms: bench::hist_percentile_ms(&fast_h, 50.0),
        fast_p99_ms: bench::hist_percentile_ms(&fast_h, 99.0),
        slow_p99_ms: if with_slow {
            bench::hist_percentile_ms(&slow_h, 99.0)
        } else {
            0.0
        },
        served: run.served,
        blocked: run.stats.blocked,
        resumed: run.stats.resumed,
        busy_wait_cycles: run.stats.busy_wait_cycles,
        max_parked_seen,
    }
}

fn main() {
    let host = bench::HostTimer::start();
    bench::header(
        "Event-driven blocked I/O: slowloris clients vs fast tenants",
        "suspending virtines parked in recv keeps fast-tenant p99 near the \
         no-slow-client baseline while the spin-poll baseline collapses; \
         worker busy cycles charged to blocked waits drop to zero",
    );
    println!(
        "# {SLOW_CLIENTS} slow clients x {SLOW_CHUNKS} chunks over {:.0} ms, \
         {FAST_REQUESTS} fast requests over {:.0} ms, {SHARDS} shards",
        SLOW_SPREAD_S * 1e3,
        FAST_WINDOW_S * 1e3,
    );

    let baseline = run("baseline (no slow clients)", BlockMode::EventDriven, false);
    let spin = run("spin-poll + slow clients", BlockMode::SpinPoll, true);
    let event = run("event-driven + slow clients", BlockMode::EventDriven, true);

    println!("run                          | fast p50(ms) fast p99(ms) slow p99(ms)  blocked  resumed busy-wait(cyc)  parked");
    for r in [&baseline, &spin, &event] {
        println!(
            "{:<28} | {:>12.4} {:>12.4} {:>12.4} {:>8} {:>8} {:>14} {:>7}",
            r.label,
            r.fast_p50_ms,
            r.fast_p99_ms,
            r.slow_p99_ms,
            r.blocked,
            r.resumed,
            r.busy_wait_cycles,
            r.max_parked_seen,
        );
    }

    // Acceptance.
    assert_eq!(
        event.busy_wait_cycles, 0,
        "event-driven dispatch must charge no worker cycles to blocked waits"
    );
    assert!(
        spin.busy_wait_cycles > 0,
        "the spin-poll baseline burns workers on the wait"
    );
    assert!(
        event.fast_p99_ms <= 2.0 * baseline.fast_p99_ms,
        "event-driven fast p99 {:.4} ms must stay within 2x of the \
         no-slow-client baseline {:.4} ms",
        event.fast_p99_ms,
        baseline.fast_p99_ms
    );
    assert!(
        spin.fast_p99_ms >= 10.0 * baseline.fast_p99_ms,
        "spin-poll fast p99 {:.4} ms should collapse >= 10x vs baseline \
         {:.4} ms (otherwise the workload is not adversarial enough)",
        spin.fast_p99_ms,
        baseline.fast_p99_ms
    );
    assert!(
        event.resumed >= (SLOW_CLIENTS * (SLOW_CHUNKS - 1)) as u64 / 2,
        "slow clients must exercise repeated park/resume"
    );
    println!("#");
    println!(
        "# event-driven holds fast p99 at {:.1}x baseline while spin-poll degrades {:.1}x",
        event.fast_p99_ms / baseline.fast_p99_ms,
        spin.fast_p99_ms / baseline.fast_p99_ms
    );

    // JSON artifact for CI trend tracking.
    let rows = [&baseline, &spin, &event].map(|r| {
        Obj::new()
            .str("label", r.label)
            .num("fast_p50_ms", r.fast_p50_ms, 6)
            .num("fast_p99_ms", r.fast_p99_ms, 6)
            .num("slow_p99_ms", r.slow_p99_ms, 6)
            .val("served", r.served)
            .val("blocked", r.blocked)
            .val("resumed", r.resumed)
            .val("busy_wait_cycles", r.busy_wait_cycles)
            .val("max_parked_seen", r.max_parked_seen)
    });
    let config = Obj::new()
        .val("shards", SHARDS)
        .val("slow_clients", SLOW_CLIENTS)
        .val("slow_chunks", SLOW_CHUNKS)
        .val("slow_spread_s", SLOW_SPREAD_S)
        .val("fast_requests", FAST_REQUESTS)
        .val("fast_window_s", FAST_WINDOW_S);
    let doc = Obj::new().rows("runs", rows).val("config", config);
    bench::write_artifact("blocked_io", doc, &host);
}
