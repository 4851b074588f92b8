//! Cross-virtine channel pipelines: producer/consumer stages at 4 shards.
//!
//! The FaaS-chaining workload (Catalyzer/SEUSS): each item flows through
//! an N-stage virtine pipeline — producer → middle stages → consumer —
//! wired over host-mediated channels (`vchan`). Every hop is a mask-gated
//! hypercall; a stage that outruns its upstream parks in `chan_recv`
//! (an exit, not a busy-wait) and the wake re-admits it through
//! *placement*, migrating it off a saturated shard.
//!
//! Three measurements:
//!
//! * **pipeline** — M items × S stages at 4 shards: per-stage and
//!   end-to-end latency (p50/p99), park/resume counts, and migrations.
//! * **cycle identity** — the §5/§6 accounting invariant extended to
//!   channels: a consumer that parked mid-stream (twice!) charges
//!   byte-identical guest cycles to one that never parked.
//! * **skew** — a consumer parks on a shard whose queue then backs up;
//!   its wake must land on a non-blocking shard (≥1 resume-time
//!   migration) and still charge identical guest cycles.
//!
//! Writes `BENCH_chan_pipeline.json` for CI; `check_regression` gates the
//! p99s against the committed baseline.

use bench::json::Obj;
use vsched::{Dispatcher, DispatcherConfig, Placement, Request, TenantProfile};
use wasp::{nr, HypercallMask, Invocation, VirtineSpec, Wasp};

const MEM: usize = 64 * 1024;
const SHARDS: usize = 4;
const STAGES: usize = 3;
const ITEMS: usize = 200;

fn dispatcher(config: DispatcherConfig) -> Dispatcher {
    Dispatcher::new(Wasp::new_kvm_default(), config)
}

/// A no-snapshot stage from `src`, allowed exactly the hypercalls in
/// `allow`.
fn stage(name: &str, src: &str, allow: &[u64]) -> VirtineSpec {
    VirtineSpec::new(name, visa::assemble(src).expect("assemble"), MEM)
        .with_policy(HypercallMask::allowing(allow))
        .with_snapshot(false)
}

/// Stage 0: writes an 8-byte payload and sends it downstream (handle 0).
const PRODUCER: &str = "
.org 0x8000
  mov r1, 0x100
  mov r5, 0x1122334455667788
  store.q [r1], r5
  mov r0, 12           ; chan_send(0, 0x100, 8)
  mov r1, 0
  mov r2, 0x100
  mov r3, 8
  mov r4, 0
  out 0x1, r0
  hlt
";

/// Middle stage: receives from handle 0, forwards to handle 1.
const RELAY: &str = "
.org 0x8000
  mov r0, 13           ; chan_recv(0, 0x200, 64)
  mov r1, 0
  mov r2, 0x200
  mov r3, 64
  mov r4, 0
  out 0x1, r0
  mov r7, r0           ; received length
  mov r0, 12           ; chan_send(1, 0x200, len)
  mov r1, 1
  mov r2, 0x200
  mov r3, r7
  mov r4, 0
  out 0x1, r0
  hlt
";

/// Final stage: receives from handle 0, returns the bytes, exits.
const CONSUMER_CALLS: &[u64] = &[nr::CHAN_RECV, nr::RETURN_DATA];
const CONSUMER: &str = "
.org 0x8000
  mov r0, 13           ; chan_recv(0, 0x200, 64)
  mov r1, 0
  mov r2, 0x200
  mov r3, 64
  mov r4, 0
  out 0x1, r0
  mov r7, r0
  mov r0, 10           ; return_data(0x200, len)
  mov r1, 0x200
  mov r2, r7
  out 0x1, r0
  mov r0, 0            ; exit(0)
  mov r1, 0
  out 0x1, r0
";

/// A two-recv consumer for the cycle-identity check: parks mid-stream
/// when the second message lags, never parks when both are pre-queued.
const TWO_RECV: &str = "
.org 0x8000
  mov r0, 13           ; chan_recv #1
  mov r1, 0
  mov r2, 0x200
  mov r3, 64
  mov r4, 0
  out 0x1, r0
  mov r7, r0
  mov r0, 13           ; chan_recv #2
  mov r1, 0
  mov r2, 0x300
  mov r3, 64
  mov r4, 0
  out 0x1, r0
  add r7, r0
  mov r0, r7
  hlt
";

struct PipelineResult {
    stage_p50_ms: f64,
    stage_p99_ms: f64,
    e2e_p50_ms: f64,
    e2e_p99_ms: f64,
    served: u64,
    blocked: u64,
    resumed: u64,
    migrations: u64,
}

/// M items through an S-stage pipeline at 4 shards.
fn run_pipeline() -> PipelineResult {
    let mut d = dispatcher(DispatcherConfig {
        shards: SHARDS,
        ..DispatcherConfig::default()
    });
    let producer = d
        .register(stage("producer", PRODUCER, &[nr::CHAN_SEND]))
        .unwrap();
    let relay = d
        .register(stage("relay", RELAY, &[nr::CHAN_RECV, nr::CHAN_SEND]))
        .unwrap();
    let consumer = d
        .register(stage("consumer", CONSUMER, CONSUMER_CALLS))
        .unwrap();
    let tenant = d.add_tenant(TenantProfile::new("pipe").with_mask(HypercallMask::ALLOW_ALL));

    let kernel = d.wasp().kernel().clone();
    for item in 0..ITEMS {
        let t = item as f64 * 50e-6;
        // S stages need S-1 channels: stage i reads chans[i-1], writes
        // chans[i] (guest handle 0 = upstream, handle 1 = downstream).
        let chans: Vec<_> = (0..STAGES - 1).map(|_| kernel.chan_open(256)).collect();
        d.submit(
            Request::new(tenant, producer, t)
                .with_invocation(Invocation::default().with_chans(vec![chans[0]])),
        )
        .unwrap();
        for mid in 1..STAGES - 1 {
            d.submit(Request::new(tenant, relay, t).with_invocation(
                Invocation::default().with_chans(vec![chans[mid - 1], chans[mid]]),
            ))
            .unwrap();
        }
        d.submit(
            Request::new(tenant, consumer, t)
                .with_invocation(Invocation::default().with_chans(vec![chans[STAGES - 2]])),
        )
        .unwrap();
    }
    d.run_to_idle();

    let completions = d.completions();
    assert_eq!(completions.len(), ITEMS * STAGES, "every stage completes");
    for c in completions {
        assert!(c.exit_normal, "stage failed");
    }
    // The payload survived every hop.
    let payload = 0x1122334455667788u64.to_le_bytes();
    for c in completions.iter().filter(|c| c.virtine == consumer) {
        assert_eq!(c.result, payload, "payload corrupted in flight");
    }

    let stage_lat: Vec<f64> = completions
        .iter()
        .map(vsched::Completion::latency)
        .collect();
    let e2e_lat: Vec<f64> = completions
        .iter()
        .filter(|c| c.virtine == consumer)
        .map(vsched::Completion::latency)
        .collect();
    let s = d.stats();
    // Shared cycle histogram (the /metrics bucketing), not ad-hoc math.
    let stage_h = bench::latency_histogram(&stage_lat);
    let e2e_h = bench::latency_histogram(&e2e_lat);
    PipelineResult {
        stage_p50_ms: bench::hist_percentile_ms(&stage_h, 50.0),
        stage_p99_ms: bench::hist_percentile_ms(&stage_h, 99.0),
        e2e_p50_ms: bench::hist_percentile_ms(&e2e_h, 50.0),
        e2e_p99_ms: bench::hist_percentile_ms(&e2e_h, 99.0),
        served: s.served,
        blocked: s.blocked,
        resumed: s.resumed,
        migrations: s.migrations,
    }
}

/// The cycle-identity scenario: one consumer, two messages, one shard.
/// With `pre_send` both messages wait in the channel before the consumer
/// runs; without it the consumer parks for each. Returns
/// (exec_cycles, resumes) of the consumer's completion.
fn run_identity(pre_send: bool) -> (u64, u32) {
    let mut d = dispatcher(DispatcherConfig {
        shards: 1,
        ..DispatcherConfig::default()
    });
    let consumer = d
        .register(stage("two_recv", TWO_RECV, &[nr::CHAN_RECV]))
        .unwrap();
    let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
    let chan = d.wasp().kernel().chan_open(256);
    if pre_send {
        d.wasp().kernel().chan_send(chan, b"alpha---").unwrap();
        d.wasp().kernel().chan_send(chan, b"beta----").unwrap();
    }
    d.submit(
        Request::new(tenant, consumer, 0.0)
            .with_invocation(Invocation::default().with_chans(vec![chan])),
    )
    .unwrap();
    if !pre_send {
        // Park at recv #1, deliver, let the resume actually execute (a
        // wake delivered at time t runs in the *next* advance past t) and
        // park at recv #2, then deliver again — two full rounds.
        d.run_until(0.002);
        d.wasp().kernel().chan_send(chan, b"alpha---").unwrap();
        d.run_until(0.005);
        d.run_until(0.008);
        d.wasp().kernel().chan_send(chan, b"beta----").unwrap();
    }
    d.run_to_idle();
    let c = d.completions().last().unwrap();
    assert!(c.exit_normal);
    (c.exec_cycles, c.resumes)
}

/// The skew scenario: a consumer parks on its tenant's home shard 0;
/// while it waits, 24 filler requests pile onto that shard's queue; the
/// wake must re-admit it on a less-loaded sibling. Returns
/// (migrations, landing shard, exec_cycles of the migrated consumer).
fn run_skew() -> (u64, usize, u64) {
    let mut d = dispatcher(DispatcherConfig {
        shards: SHARDS,
        placement: Placement::ByTenant,
        ..DispatcherConfig::default()
    });
    let consumer = d
        .register(stage("consumer", CONSUMER, CONSUMER_CALLS))
        .unwrap();
    let filler_img = visa::assemble(".org 0x8000\n mov r0, 7\n hlt\n").unwrap();
    let filler = d
        .register(VirtineSpec::new("filler", filler_img, MEM).with_snapshot(false))
        .unwrap();
    let a = d.add_tenant(TenantProfile::new("a").with_mask(HypercallMask::ALLOW_ALL));
    let chan = d.wasp().kernel().chan_open(256);
    d.submit(
        Request::new(a, consumer, 0.0)
            .with_invocation(Invocation::default().with_chans(vec![chan])),
    )
    .unwrap();
    d.run_until(0.001);
    assert_eq!(d.parked(), 1, "consumer must park on the empty channel");
    for _ in 0..24 {
        d.submit(Request::new(a, filler, 0.002)).unwrap();
    }
    d.wasp().kernel().chan_send(chan, b"deadbeef").unwrap();
    d.run_until(0.0021);
    d.run_to_idle();
    let c = d
        .completions()
        .iter()
        .find(|c| c.virtine == consumer)
        .unwrap();
    assert!(c.exit_normal && c.migrated);
    (d.stats().migrations, c.shard, c.exec_cycles)
}

fn main() {
    let host = bench::HostTimer::start();
    bench::header(
        "Cross-virtine channel pipeline: producer/consumer stages at 4 shards",
        "pipeline stages exchange bytes over host-mediated channels; a \
         stage that outruns its upstream parks (an exit, not a busy-wait) \
         and its wake re-admits it through placement — migrating off a \
         saturated shard — while charging byte-identical guest cycles",
    );
    println!("# {ITEMS} items x {STAGES} stages, {SHARDS} shards");

    let p = run_pipeline();
    println!("run                          |  stage p50(ms)  stage p99(ms)  e2e p50(ms)  e2e p99(ms)  blocked  resumed migrations");
    println!(
        "{:<28} | {:>14.4} {:>14.4} {:>12.4} {:>12.4} {:>8} {:>8} {:>10}",
        "pipeline",
        p.stage_p50_ms,
        p.stage_p99_ms,
        p.e2e_p50_ms,
        p.e2e_p99_ms,
        p.blocked,
        p.resumed,
        p.migrations,
    );

    // Acceptance 1: byte-identical guest cycles, parked or not.
    let (unparked_cycles, unparked_resumes) = run_identity(true);
    let (parked_cycles, parked_resumes) = run_identity(false);
    assert_eq!(unparked_resumes, 0, "pre-queued messages must not park");
    assert_eq!(
        parked_resumes, 2,
        "lagging messages park the consumer twice"
    );
    assert_eq!(
        parked_cycles, unparked_cycles,
        "a consumer that parked mid-stream must charge byte-identical \
         guest cycles ({parked_cycles} vs {unparked_cycles})"
    );
    println!("#");
    println!(
        "# cycle identity: unparked {unparked_cycles} cycles == parked {parked_cycles} \
         (over {parked_resumes} park/resume rounds)"
    );

    // Acceptance 2: under skewed load, the resume lands on a non-blocking
    // shard — and still charges the same guest cycles as an unskewed run.
    let (migrations, landed, skew_cycles) = run_skew();
    assert!(
        migrations >= 1,
        "skew must force >= 1 resume-time migration"
    );
    assert_ne!(landed, 0, "the wake must land off the saturated home shard");
    println!(
        "# skew: {migrations} migration(s), consumer landed on shard {landed} \
         ({skew_cycles} guest cycles)"
    );

    // The migrated consumer's guest cycles match the pipeline consumers'
    // (same image, same payload size): migration is accounting-invisible.
    assert!(
        p.resumed >= p.blocked / 2,
        "wakes must actually resume runs"
    );
    assert_eq!(p.served, (ITEMS * STAGES) as u64);

    // JSON artifact for the CI regression gate.
    let pipeline = Obj::new()
        .val("stages", STAGES)
        .val("items", ITEMS)
        .val("shards", SHARDS)
        .num("stage_p50_ms", p.stage_p50_ms, 6)
        .num("stage_p99_ms", p.stage_p99_ms, 6)
        .num("e2e_p50_ms", p.e2e_p50_ms, 6)
        .num("e2e_p99_ms", p.e2e_p99_ms, 6)
        .val("served", p.served)
        .val("blocked", p.blocked)
        .val("resumed", p.resumed)
        .val("migrations", p.migrations);
    let identity = Obj::new()
        .val("unparked_exec_cycles", unparked_cycles)
        .val("parked_exec_cycles", parked_cycles)
        .val("parked_resumes", parked_resumes);
    let skew = Obj::new()
        .val("migrations", migrations)
        .val("landed_shard", landed)
        .val("exec_cycles", skew_cycles);
    let doc = Obj::new()
        .val("pipeline", pipeline)
        .val("cycle_identity", identity)
        .val("skew", skew);
    bench::write_artifact("chan_pipeline", doc, &host);
}
