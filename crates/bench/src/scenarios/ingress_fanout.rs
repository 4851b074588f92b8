//! Cluster-scale serving: the Figure 15-style mix fanned out across
//! 2–4 `vsched` nodes behind the `vhttp` ingress tier.
//!
//! The paper stops at one machine: virtines make isolated contexts
//! cheap enough that a single host serves the §6.3 workload at native
//! speed. This scenario asks the platform question on top of that
//! economics — what does the same mix look like behind an edge tier
//! that routes connections across *nodes*? Three runs, one
//! workload (snapshotted fast function at a fixed cadence with a
//! no-snapshot slow spin riding along — the Figure 15 mix shape):
//!
//! * **single** — one node, the intra-node baseline;
//! * **fanout** — the same offered load across `FANOUT_NODES` nodes,
//!   each identical to the single-node config: the edge's least-loaded
//!   routing (node-level `Candidate` rows, every node one `CrossNode`
//!   hop) spreads the bursts, and the p99 drops;
//! * **failover** — the fanout run with a mid-run gray failure: one
//!   node goes silent with work queued, the node-level detector
//!   declares it from observed silence alone, the cluster fences it
//!   (every shard failed — no stranded copy can double-run), the edge
//!   re-dispatches its unresolved requests cross-node (each charged
//!   `VSCHED_TRANSFER_CROSS_NODE` cycles of arrival latency), and
//!   half-open probes restore the node once the hang lifts.
//!
//! The row's checks:
//! * zero lost connections in every scenario: every accepted request
//!   ends in exactly one terminal completion or an accounted shed;
//! * zero duplicates in the failover: first-terminal-outcome-wins at the
//!   edge, fencing before re-dispatch — the exactly-once tripwire stays
//!   at zero;
//! * the failover is detector-declared (`declared == 1`, no operator
//!   call, no kill in the plan), actually exercises the replay path
//!   (`redispatched >= 1`), and is probe-restored (`restored == 1`)
//!   with zero false positives;
//! * fan-out helps: the load reaches every node, and the fanout p99
//!   stays at or below the single-node p99.
//!
//! Asserted in the run: the accept-loop virtine wakes and exits normally
//! in every scenario; the fault-free ones declare nothing and complete
//! nothing twice; the failure lands mid-run and an evacuated connection
//! finishes on a survivor; and the whole failover scenario replays
//! bit-for-bit: two runs under one seed produce identical (edge seq,
//! node, finish) streams.

use super::mix::{self, MEM};
use crate::json::Obj;
use vclock::costs::VSCHED_TRANSFER_CROSS_NODE;
use vclock::stats::percentile;
use vhttp::ingress::{EdgeCompletion, Ingress, IngressRun};
use vsched::HealthConfig;
use wasp::VirtineSpec;

const SHARDS_PER_NODE: usize = 2;
const FANOUT_NODES: usize = 3;

/// Offered load: a burst of fast connections every 100 µs, with a slow
/// one riding along every other round. Heavy enough that queues form on
/// one node (the fan-out has something to win) while a three-node
/// cluster stays comfortable.
const CADENCE_S: f64 = 0.0001;
const FAST_PER_ROUND: usize = 3;
const SLOW_EVERY: usize = 2;
const ROUNDS: usize = 200;

/// Detector randomness (probe jitter) — the replay gate runs the whole
/// failover scenario twice under this one seed.
const HEALTH_SEED: u64 = 0xFA90;

/// The failover hang: node 0 goes silent for 8 ms starting 4 ms in —
/// an eternity against the 500 µs heartbeat interval, lifted early
/// enough that recovery probes restore the node inside the run.
const FAIL_NODE: usize = 0;
const HANG_AT_S: f64 = 0.004;
const HANG_S: f64 = 0.008;

struct Outcome {
    run: IngressRun,
    routed: Vec<u64>,
    p99_us: f64,
}

fn run_scenario(nodes: usize, with_fault: bool) -> Outcome {
    let mut ing = Ingress::new(nodes, SHARDS_PER_NODE);
    let fast = ing.register(VirtineSpec::new("fast", mix::snap_image(), MEM));
    let slow = ing.register(VirtineSpec::new("slow", mix::slow_image(), MEM).with_snapshot(false));
    let tenant = ing.add_tenant(
        vsched::TenantProfile::new("app"),
        f64::INFINITY,
        f64::INFINITY,
    );
    ing.set_health(HealthConfig::new().with_seed(HEALTH_SEED));
    if with_fault {
        ing.cluster_mut().hang_node_at(HANG_AT_S, FAIL_NODE, HANG_S);
    }

    let mut declared_mid_run = false;
    let mut client: u64 = 0;
    let mut t = 0.0;
    for round in 0..ROUNDS {
        t += CADENCE_S;
        for _ in 0..FAST_PER_ROUND {
            client += 1;
            ing.offer(tenant, client, fast, b"", t).expect("edge admit");
        }
        if round % SLOW_EVERY == 0 {
            client += 1;
            ing.offer(tenant, client, slow, b"", t).expect("edge admit");
        }
        ing.advance(t);
        // Declarations fire inside advance calls (including the ones
        // `offer` makes); the stats counter sees them all.
        declared_mid_run |= ing.cluster().health_stats().is_some_and(|h| h.declared > 0);
    }
    // Settle window: lets the last bursts drain and — in the failover
    // scenario — gives the recovery probes room after the hang lifts.
    ing.advance(t + 0.005);
    let routed = (0..nodes).map(|i| ing.cluster().routed_to(i)).collect();
    let run = ing.finish();
    assert!(run.stats.acceptor_wakes > 0, "the acceptor never woke");
    assert!(run.acceptor.exit_normal, "acceptor died");
    if with_fault {
        assert!(declared_mid_run, "the failure must land mid-run");
        let survived = |c: &EdgeCompletion| c.evacuated && c.node != FAIL_NODE;
        assert!(
            run.completions.iter().any(survived),
            "an evacuated connection should finish on a survivor"
        );
    } else {
        let declared = run.health.as_ref().map(|h| h.declared);
        assert_eq!(declared, Some(0), "no declarations without a fault");
        assert_eq!(run.stats.duplicates, 0, "a connection completed twice");
    }
    let lat_us: Vec<f64> = (run.completions.iter())
        .map(|c| (c.finish - c.arrival) * 1e6)
        .collect();
    let p99_us = percentile(&lat_us, 99.0);
    Outcome {
        run,
        routed,
        p99_us,
    }
}

/// One node, the same load over three, and the three with a node failure.
pub(super) fn measure() -> Obj {
    let single = run_scenario(1, false);
    let fanout = run_scenario(FANOUT_NODES, false);
    // Replay fingerprint: every completion as (edge seq, node, finish bits).
    let failover = mix::replay_twice(
        || run_scenario(FANOUT_NODES, true),
        |o| {
            let all = o.run.completions.iter();
            all.map(|c| (c.edge_seq, c.node, c.finish.to_bits()))
                .collect::<Vec<_>>()
        },
    );
    let p99_factor = fanout.p99_us / single.p99_us;
    let h = failover.run.health.as_ref().expect("detector installed");
    let single_row = Obj::new()
        .val("served", single.run.completions.len())
        .num("p99_us", single.p99_us, 4)
        .val("lost", single.run.lost);
    let fanout_row = Obj::new()
        .val("nodes", FANOUT_NODES)
        .val("served", fanout.run.completions.len())
        .num("p99_us", fanout.p99_us, 4)
        .num("p99_factor", p99_factor, 4)
        .val("lost", fanout.run.lost)
        .list("routed", &fanout.routed);
    let redispatched = failover.run.stats.redispatched;
    let failover_row = Obj::new()
        .val("served", failover.run.completions.len())
        .num("p99_us", failover.p99_us, 4)
        .val("lost", failover.run.lost)
        .val("duplicates", failover.run.stats.duplicates)
        .val("redispatched", redispatched)
        .val("transfer_cycles", redispatched * VSCHED_TRANSFER_CROSS_NODE)
        .val("detector", mix::detector(h));
    let config = Obj::new()
        .val("fanout_nodes", FANOUT_NODES)
        .val("shards_per_node", SHARDS_PER_NODE)
        .val("cadence_s", CADENCE_S)
        .val("fast_per_round", FAST_PER_ROUND)
        .val("slow_every", SLOW_EVERY)
        .val("rounds", ROUNDS)
        .val("health_seed", HEALTH_SEED);
    Obj::new()
        .val("single", single_row)
        .val("fanout", fanout_row)
        .val("failover", failover_row)
        .val("config", config)
}
