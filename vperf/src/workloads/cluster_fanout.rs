//! `cluster_fanout` — open loop in virtual time, `vhttp::ingress::Ingress`
//! over 3 nodes × 2 shards, 6 tenants.
//!
//! *Why:* the guest does almost nothing here — a snapshotted function that
//! retires two instructions past its snapshot, plus a short no-snapshot spin
//! on every 64th request so that queues form — so host time is bookkeeping:
//! the edge bucket, PROXY encode and parse, doorbell and acceptor wake,
//! `Cluster::route`, admission and batching, the pools. This is the workload
//! on which decomposing `Dispatcher`, unifying the tiers or bounding the
//! edge's per-request records (peak RSS) shows, and it uses `vsched` under
//! failure where `http_serve` uses it steady: the node detector is on and
//! one seeded gray hang mid-run is declared, fenced, re-dispatched across
//! nodes and probe-restored.
//!
//! Within each rung of the rate ladder arrivals follow the paper's Locust
//! shape (`vespid::load::locust_pattern`: ramp, burst, dip, burst, ramp
//! down) compressed to the rung's length, so a rung's peak rate is about
//! twice its mean.

use std::time::Instant;

use crate::drills::{BareKernel, Target};
use crate::ladder::{self, Op};
use crate::layers::{self, Layer};
use crate::spans::span;
use crate::stats::Fingerprint;
use crate::sut::{self, Done, InstCounters, Rng, Spec};

use super::{ladder_capacity, ladder_notes, Rep, Rung, Size, LADDER, LATENCY_RUNG};

const NODES: usize = 3;
const SHARDS_PER_NODE: usize = 2;
const TENANTS: usize = 6;
const MEM: usize = 64 * 1024;

/// Nominal capacity (mean requests per virtual second of a rung),
/// calibrated once at this commit and frozen; see README.md.
pub const NOMINAL_RPS: f64 = 200_000.0;
/// A rung passes when its p99 is at most this (virtual µs).
pub const LIMIT_US: f64 = 500.0;
const GAP_S: f64 = 0.002;

const PER_RUNG_FULL: usize = 60_000;
const PER_RUNG_SMOKE: usize = 40;
const WARMUP_FULL: usize = 6_000;
const WARMUP_SMOKE: usize = 8;
const SCRAPE_EVERY_FULL: usize = 30_000;
const SCRAPE_EVERY_SMOKE: usize = 100;

/// Every `SLOW_EVERY`th request runs the spin instead of the fast function.
const SLOW_EVERY: usize = 64;
/// Iterations of the spin; tuned so the interpreter stays under a quarter
/// of host time (measured: 199 guest instructions per request on average).
const SPIN: usize = 3_000;

/// The gray failure: one node (seeded) goes silent for `HANG_S` somewhere
/// in the second quarter (seeded) of rung `HANG_RUNG`, where it touches well
/// under 1 % of the rung's requests; latency is read on another rung.
const HANG_RUNG: usize = 1;
const HANG_S: f64 = 0.008;

fn fast_spec() -> Spec {
    sut::assemble(
        "fast",
        "
.org 0x8000
  mov r1, 0xA000
  mov r2, 0
fill:
  store.q [r1], r2
  add r1, 8
  add r2, 1
  cmp r2, 512
  jl fill
  mov r0, 8            ; snapshot()
  out 0x1, r0
  mov r6, 0xC000
  store.q [r6], r2
  hlt
",
        MEM,
        true,
    )
}

fn slow_spec() -> Spec {
    sut::assemble(
        "slow",
        &format!(
            "
.org 0x8000
  mov r1, 0xA000
  mov r2, 0
spin:
  store.q [r1], r2
  add r2, 1
  cmp r2, {SPIN}
  jl spin
  hlt
"
        ),
        MEM,
        false,
    )
}

fn specs() -> [Spec; 2] {
    [fast_spec(), slow_spec()]
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub at_s: f64,
    pub tenant: usize,
    pub slow: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub warmup: Vec<Arrival>,
    pub rungs: Vec<Vec<Arrival>>,
    pub hang_node: usize,
    pub hang_at_s: f64,
}

#[cfg(test)]
impl Stream {
    pub fn ops(&self) -> usize {
        self.rungs.iter().map(Vec::len).sum()
    }
}

fn limit_cycles() -> u64 {
    sut::cycles_of_seconds(LIMIT_US * 1e-6)
}

pub fn stream(seed: u64, size: Size) -> Stream {
    let (warm, per_rung) = match size {
        Size::Full => (WARMUP_FULL, PER_RUNG_FULL),
        Size::Smoke => (WARMUP_SMOKE, PER_RUNG_SMOKE),
    };
    let mut rng = Rng::seeded(seed ^ 0x0063_6c75_7374_6572);
    // The pattern generator places at most 15 k arrivals; a longer rung
    // splits each of its slots into `split` equal parts.
    let split = per_rung.div_ceil(sut::LOCUST_MAX_ARRIVALS);
    let coarse = sut::locust_shape(per_rung.div_ceil(split));
    let shape: Vec<f64> = (0..per_rung)
        .map(|i| {
            let (slot, part) = (i / split, i % split);
            let next = coarse.get(slot + 1).copied().unwrap_or(1.0);
            coarse[slot] + (next - coarse[slot]) * part as f64 / split as f64
        })
        .collect();
    let mut index = 0usize;
    let mut arrivals = |rng: &mut Rng, start: f64, offsets: &[f64], len_s: f64| -> Vec<Arrival> {
        (0..offsets.len())
            .map(|i| {
                // Jitter inside the slot up to the next arrival keeps order.
                let next = offsets.get(i + 1).copied().unwrap_or(1.0);
                index += 1;
                Arrival {
                    at_s: start + len_s * (offsets[i] + rng.f64() * (next - offsets[i])),
                    tenant: rng.below(TENANTS),
                    slow: index.is_multiple_of(SLOW_EVERY),
                }
            })
            .collect()
    };
    let even: Vec<f64> = (0..warm).map(|i| i as f64 / warm as f64).collect();
    let rate0 = LADDER[0] * NOMINAL_RPS;
    let warmup = arrivals(&mut rng, 0.0, &even, warm as f64 / rate0);
    let mut start = warm as f64 / rate0 + GAP_S;
    let mut rungs = Vec::new();
    for mult in LADDER {
        let len_s = per_rung as f64 / (mult * NOMINAL_RPS);
        rungs.push(arrivals(&mut rng, start, &shape, len_s));
        start += len_s + GAP_S;
    }
    let hang_rung_len = per_rung as f64 / (LADDER[HANG_RUNG] * NOMINAL_RPS);
    let hang_at_s = rungs[HANG_RUNG][0].at_s + hang_rung_len * rng.range_f64(0.25, 0.5);
    Stream {
        warmup,
        rungs,
        hang_node: rng.below(NODES),
        hang_at_s,
    }
}

fn by_rung(stream: &Stream, drained: &[bool], done: &[Done]) -> Vec<Rung> {
    let mut out: Vec<Rung> = stream
        .rungs
        .iter()
        .zip(drained)
        .enumerate()
        .map(|(i, (r, &d))| Rung {
            rate: LADDER[i] * NOMINAL_RPS,
            latencies: Vec::with_capacity(r.len()),
            drained_in_gap: d,
        })
        .collect();
    // Completions come back in offer order; walk the rungs alongside.
    let mut seq = stream.warmup.len() as u64;
    for (i, r) in stream.rungs.iter().enumerate() {
        let end = seq + r.len() as u64;
        out[i].latencies.extend(
            done.iter()
                .filter(|d| (seq..end).contains(&d.seq))
                .map(Done::latency_cycles),
        );
        seq = end;
    }
    out
}

pub fn rep(seed: u64, size: Size, system_trace: bool) -> Rep {
    let stream = span("generate", || stream(seed, size));
    let scrape_every = match size {
        Size::Full => SCRAPE_EVERY_FULL,
        Size::Smoke => SCRAPE_EVERY_SMOKE,
    };

    let t_setup = Instant::now();
    let mut client = 0u64;
    let (mut edge, ids, tenants) = span("setup", || {
        let mut edge = sut::Edge::new(NODES, SHARDS_PER_NODE);
        let ids = specs().map(|s| edge.register(&s));
        let tenants: Vec<_> = (0..TENANTS)
            .map(|i| edge.add_tenant(&format!("tenant{i}")))
            .collect();
        edge.set_health(seed);
        edge.hang_node_at(stream.hang_at_s, stream.hang_node, HANG_S);
        for a in &stream.warmup {
            let ok = edge.offer(
                tenants[a.tenant],
                client,
                ids[usize::from(a.slow)],
                b"",
                a.at_s,
            );
            assert!(ok, "warm-up request shed");
            client += 1;
        }
        edge.advance(stream.rungs[0][0].at_s - GAP_S / 2.0);
        (edge, ids, tenants)
    });
    let setup_s = t_setup.elapsed().as_secs_f64();
    if system_trace {
        edge.enable_tracing(super::TRACE_CAPACITY);
    }

    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut drained = Vec::new();
    let mut metrics_bytes = 0;
    // The nodes' histograms and the system's trace as they stand at the end
    // of the latency rung, before the overloaded rung swamps them.
    let mut at_latency_rung = None;
    let c0 = InstCounters::now();
    let t = Instant::now();
    span("drive", || {
        for (i, rung) in stream.rungs.iter().enumerate() {
            for a in rung {
                let ok = edge.offer(
                    tenants[a.tenant],
                    client,
                    ids[usize::from(a.slow)],
                    b"",
                    a.at_s,
                );
                shed += u64::from(!ok);
                client += 1;
                offered += 1;
                if (offered as usize).is_multiple_of(scrape_every) {
                    metrics_bytes = edge.metrics().len();
                }
            }
            edge.advance(rung[rung.len() - 1].at_s + GAP_S);
            let s = edge.stats();
            drained.push(s.completed + s.shed() == s.offered);
            if i == LATENCY_RUNG {
                let t_dump = Instant::now();
                let dump = if system_trace {
                    edge.trace_dump(super::TRACE_CAPACITY)
                } else {
                    String::new()
                };
                at_latency_rung = Some((edge.tier(), dump, t_dump.elapsed().as_secs_f64()));
            }
        }
    });
    let (tier_low, dump, dump_s) = at_latency_rung.expect("the ladder has a latency rung");
    let (tier, run) = span("collect", || (edge.tier(), edge.finish()));
    let stream_s = t.elapsed().as_secs_f64();
    let insts = InstCounters::now().since(c0);

    let warm = stream.warmup.len() as u64;
    let (rungs, fingerprint, cycles, ok) = span("verify", || {
        let mut fp = Fingerprint::default();
        let (mut cycles, mut ok) = (0u64, 0u64);
        for d in run.done.iter().filter(|d| d.seq >= warm) {
            fp.u64(d.seq);
            fp.u64(d.place as u64);
            fp.u64(d.finish_s.to_bits());
            cycles += d.cycles;
            ok += 1;
        }
        (
            by_rung(&stream, &drained, &run.done),
            fp.value(),
            cycles,
            ok,
        )
    });
    let mut violations = Vec::new();
    let mut check = |holds: bool, what: String| {
        if !holds {
            violations.push(what);
        }
    };
    let s = run.stats;
    check(
        run.lost == 0,
        format!("{} accepted requests lost", run.lost),
    );
    check(
        s.duplicates == 0,
        format!("{} requests completed twice", s.duplicates),
    );
    check(run.acceptor_ok, "the acceptor virtine died".to_string());
    check(
        ok + shed == offered && s.offered == offered + warm,
        format!("conservation: offered {offered} != completed {ok} + shed {shed}"),
    );
    if size == Size::Full {
        check(
            (tier.declared, tier.restored, tier.false_positives) == (1, 1, 0),
            format!(
                "detector: declared {} restored {} false positives {} (want 1, 1, 0)",
                tier.declared, tier.restored, tier.false_positives
            ),
        );
        check(
            s.redispatched >= 1,
            "the hang never exercised cross-node re-dispatch".to_string(),
        );
    }
    // A duplicate or lost request has no single good completion: both count
    // against the ops that finished.
    let ok = ok.saturating_sub(s.duplicates + run.lost);

    let mut layer = Layer::new();
    layers::fill_visa(&mut layer, insts, offered, stream_s);
    layers::fill_vsched(&mut layer, &tier, &tier_low);
    layers::fill_wasp_from_tier(&mut layer, &tier);
    layer.insert("vhttp.metrics_bytes", metrics_bytes as f64);
    layer.insert("vhttp.redispatched", s.redispatched as f64);
    layer.insert("vhttp.duplicates", s.duplicates as f64);
    layer.insert("vhttp.lost", run.lost as f64);
    layer.insert(
        "vhttp.acceptor_wakes_per_op",
        s.acceptor_wakes as f64 / s.offered.max(1) as f64,
    );
    if system_trace {
        layers::fill_vtrace(&mut layer, &tier, &dump, dump_s);
    }
    let mut notes = ladder_notes(&rungs, limit_cycles());
    notes.push(format!(
        "node {} hung at {:.3} ms for {:.0} ms: declared {} restored {} redispatched {} ({} finished off-node)",
        stream.hang_node,
        stream.hang_at_s * 1e3,
        HANG_S * 1e3,
        tier.declared,
        tier.restored,
        s.redispatched,
        run.evacuated,
    ));
    Rep {
        setup_s,
        stream_s,
        attempted: offered,
        failed: offered - ok.min(offered),
        latencies: rungs[LATENCY_RUNG].latencies.clone(),
        cycles_per_op: cycles as f64 / ok.max(1) as f64,
        capacity_ops_per_s: ladder_capacity(&rungs, limit_cycles()),
        fingerprint,
        layer,
        notes,
        violations,
    }
}

pub fn ladder(seed: u64, size: Size, top_us_per_op: f64, layer: &mut Layer) -> Vec<String> {
    let stream = stream(seed, size);
    let all: Vec<&Arrival> = stream
        .warmup
        .iter()
        .chain(stream.rungs.iter().flatten())
        .collect();
    let ops: Vec<Op> = all
        .iter()
        .map(|a| Op {
            virtine: usize::from(a.slow),
            args: Vec::new(),
            payload: Vec::new(),
        })
        .collect();
    let arrivals: Vec<f64> = all.iter().map(|a| a.at_s).collect();
    let n = ops.len() as u64;
    let wasp = ladder::on_wasp(&specs(), &ops);
    let disp = ladder::on_dispatcher(
        &specs(),
        &ops,
        &arrivals,
        NODES * SHARDS_PER_NODE,
        TENANTS,
        false,
    );
    assert!(wasp.all_normal, "wasp rung: a guest exited abnormally");
    assert_eq!(
        (
            disp.admitted,
            disp.done.iter().filter(|d| d.ok).count() as u64
        ),
        (n, n),
        "dispatcher rung lost a request"
    );
    layers::fill_wasp_cycles(layer, &wasp.sums);
    let visa_us = layer["visa.insts_per_op"] * layer["visa.bare_host_ns_per_inst"] / 1e3;
    let wasp_us = ladder::us_per_op(wasp.host_s, n);
    let disp_us = ladder::us_per_op(disp.host_s, n);
    layer.insert("wasp.self_host_us_per_op", wasp_us - visa_us);
    layer.insert("vsched.host_us_per_op", disp_us);
    layer.insert("vsched.self_host_us_per_op", disp_us - wasp_us);
    layer.insert("vhttp.self_host_us_per_op", top_us_per_op - disp_us);
    vec![format!(
        "ladder: visa {visa_us:.2} -> wasp {wasp_us:.2} -> dispatcher {disp_us:.2} -> \
         Ingress {top_us_per_op:.2} us/op"
    )]
}

pub fn drill_target() -> Target {
    Target {
        spec: fast_spec(),
        dirty_pages: 1,
        // Nearly all guest instructions here are the spin's.
        bare: vec![BareKernel {
            spec: slow_spec(),
            args: Vec::new(),
            expect: 0,
        }],
    }
}
