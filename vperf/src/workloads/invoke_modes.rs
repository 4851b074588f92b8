//! `invoke_modes` — closed loop, one caller, `wasp::Wasp` direct.
//!
//! *Why:* creation latency is the paper's headline. One small function is
//! invoked through the four start paths the paper prices, so host time sits
//! in `kvmsim` copies and wipes and in `wasp` pool and marshalling code; the
//! restore and warm paths are two uses of the same snapshot layer, so a gain
//! for one that costs the other shows here.
//!
//! | path | runtime configuration | paper |
//! |---|---|---|
//! | create | `PoolMode::Disabled`, no snapshot | Fig. 2/8 "Wasp" |
//! | pooled | `CachedAsync` clean shell, no snapshot | "Wasp+CA", Table 1 boot |
//! | restore | snapshot, `warm_capacity = 0`: full sparse copy | Fig. 12 |
//! | warm | snapshot, dirty-page delta re-arm | §5.2 + PR 2 |

use std::time::Instant;

use crate::drills::{BareKernel, Target};
use crate::ladder::{self, Op};
use crate::layers::{self, BreakdownSums, Layer};
use crate::spans::span;
use crate::stats::Fingerprint;
use crate::sut::{self, InstCounters, PoolMode, Rng, Runtime, Spec, Vid};

use super::{Rep, Size};

/// Touches one heap page, spins `n % 16` iterations (so virtual latency
/// depends on the seeded argument) and returns `n + 1`.
pub const TOUCH_SRC: &str = "
virtine int touch(int n) {
    char* page = malloc(4096);
    int spins = n % 16;
    int acc = 0;
    int i = 0;
    while (i < spins) {
        acc = acc + i;
        i = i + 1;
    }
    page[n % 4096] = acc;
    return n + 1;
}
";

/// One way of starting a virtine.
#[derive(Debug, Clone, Copy)]
pub struct StartPath {
    pub name: &'static str,
    /// Name of this path's `Wasp::run` calls in the host trace.
    pub run_span: &'static str,
    pub pool_mode: PoolMode,
    pub snapshot: bool,
    pub warm_capacity: usize,
}

pub const PATHS: [StartPath; 4] = [
    StartPath {
        name: "create",
        run_span: "wasp.run_create",
        pool_mode: PoolMode::Disabled,
        snapshot: false,
        warm_capacity: 0,
    },
    StartPath {
        name: "pooled",
        run_span: "wasp.run_pooled",
        pool_mode: PoolMode::CachedAsync,
        snapshot: false,
        warm_capacity: 0,
    },
    StartPath {
        name: "restore",
        run_span: "wasp.run_restore",
        pool_mode: PoolMode::CachedAsync,
        snapshot: true,
        warm_capacity: 0,
    },
    StartPath {
        name: "warm",
        run_span: "wasp.run_warm",
        pool_mode: PoolMode::CachedAsync,
        snapshot: true,
        warm_capacity: 8,
    },
];

/// Paths (indices into [`PATHS`]) in the order one round invokes them:
/// 1 create, 1 pooled, 3 restore, 6 warm, the rare expensive ones spread
/// between the cheap ones. Frozen at this commit so each path takes about a
/// quarter of the stream's host time (measured 39.8 / 32.5 / 12.0 / 7.6 µs
/// per invocation → 26 / 21 / 23 / 30 %).
const ROUND: [usize; 11] = [3, 2, 3, 0, 3, 2, 3, 1, 3, 2, 3];

const ROUNDS_FULL: usize = 13_000;
const ROUNDS_SMOKE: usize = 20;
/// Warm-up rounds, part of set-up: pools filled, snapshots taken, block
/// caches and allocator warm.
const WARMUP_ROUNDS_FULL: usize = 400;
const WARMUP_ROUNDS_SMOKE: usize = 2;

impl StartPath {
    /// A runtime configured for this path with `spec` registered on it.
    pub fn runtime(&self, spec: &Spec) -> (Runtime, Vid) {
        let rt = Runtime::new(self.pool_mode, self.warm_capacity, self.run_span);
        let id = rt.register(&Spec {
            snapshot: self.snapshot,
            ..spec.clone()
        });
        if self.pool_mode != PoolMode::Disabled {
            rt.prewarm(spec.mem_size, 1);
        }
        (rt, id)
    }
}

pub fn touch_spec() -> Spec {
    sut::compile_c("touch", TOUCH_SRC)
}

fn rounds(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (WARMUP_ROUNDS_FULL, ROUNDS_FULL),
        Size::Smoke => (WARMUP_ROUNDS_SMOKE, ROUNDS_SMOKE),
    }
}

fn next_arg(rng: &mut Rng) -> i64 {
    rng.range_u64(0, 1 << 20) as i64
}

pub fn rep(seed: u64, size: Size) -> Rep {
    let (warmup, timed) = rounds(size);
    let mut rng = Rng::seeded(seed ^ 0x696e_766f_6b65);

    let t_setup = Instant::now();
    let rts: Vec<(Runtime, Vid)> = span("setup", || {
        let spec = touch_spec();
        let rts: Vec<_> = PATHS.iter().map(|p| p.runtime(&spec)).collect();
        for _ in 0..warmup {
            for p in ROUND {
                let n = next_arg(&mut rng);
                let ran = rts[p].0.run(rts[p].1, &sut::marshal(&[n]), Vec::new());
                assert_eq!(ran.ret, n as u64 + 1, "warm-up op returned the wrong value");
            }
        }
        rts
    });
    let setup_s = t_setup.elapsed().as_secs_f64();

    let n_ops = timed * ROUND.len();
    let mut sums = BreakdownSums::default();
    let mut by_path = [BreakdownSums::default(); 4];
    let mut latencies = Vec::with_capacity(n_ops);
    let mut fp = Fingerprint::default();
    let mut failed = 0u64;
    let virt0: u64 = rts.iter().map(|(rt, _)| rt.now_cycles()).sum();
    let c0 = InstCounters::now();
    let t = Instant::now();
    span("drive", || {
        for _ in 0..timed {
            for p in ROUND {
                let n = next_arg(&mut rng);
                let (rt, id) = &rts[p];
                let ran = rt.run(*id, &sut::marshal(&[n]), Vec::new());
                let identity = sums.add(&ran.breakdown, ran.hypercalls);
                by_path[p].add(&ran.breakdown, ran.hypercalls);
                failed += u64::from(!(ran.normal && ran.ret == n as u64 + 1 && identity));
                latencies.push(ran.breakdown.total.get());
                fp.u64(p as u64);
                fp.u64(ran.ret);
                fp.u64(ran.breakdown.total.get());
            }
        }
    });
    let stream_s = t.elapsed().as_secs_f64();
    let insts = InstCounters::now().since(c0);
    let virt1: u64 = rts.iter().map(|(rt, _)| rt.now_cycles()).sum();
    let virt_s = (virt1 - virt0) as f64 / sut::cycles_per_second();

    let mut layer = Layer::new();
    layers::fill_visa(&mut layer, insts, n_ops as u64, stream_s);
    layers::fill_wasp_cycles(&mut layer, &sums);
    layers::fill_wasp_ratios(&mut layer, &sums);
    let denials: u64 = rts.iter().map(|(rt, _)| rt.stats().denials).sum();
    let blocks: u64 = rts.iter().map(|(rt, _)| rt.stats().blocks).sum();
    layer.insert("wasp.denials", denials as f64);
    layer.insert("wasp.blocks_per_op", blocks as f64 / n_ops as f64);
    let notes = PATHS
        .iter()
        .zip(&by_path)
        .map(|(p, s)| {
            format!(
                "path {:<8} {:>6} ops: {:>7.0} cycles/op (acquire {:.0} image {:.0} exec {:.0} release {:.0})",
                p.name,
                s.ops,
                s.total as f64 / s.ops as f64,
                s.acquire as f64 / s.ops as f64,
                s.image as f64 / s.ops as f64,
                s.exec as f64 / s.ops as f64,
                s.release as f64 / s.ops as f64,
            )
        })
        .collect();
    Rep {
        setup_s,
        stream_s,
        attempted: n_ops as u64,
        failed,
        latencies,
        cycles_per_op: sums.total as f64 / n_ops as f64,
        capacity_ops_per_s: n_ops as f64 / virt_s,
        fingerprint: fp.value(),
        layer,
        notes,
        violations: Vec::new(),
    }
}

pub fn ladder(seed: u64, size: Size, top_us_per_op: f64, layer: &mut Layer) -> Vec<String> {
    let visa_us = layer["visa.insts_per_op"] * layer["visa.bare_host_ns_per_inst"] / 1e3;
    layer.insert("wasp.self_host_us_per_op", top_us_per_op - visa_us);
    let mut notes = vec![format!(
        "ladder: visa {visa_us:.2} us/op (insts x bare ns/inst) -> wasp {top_us_per_op:.2} us/op"
    )];
    let mut rng = Rng::seeded(seed ^ 0x696e_766f_6b65);
    let sample: Vec<Op> = (0..rounds(size).1 * ROUND.len() / 8)
        .map(|_| Op {
            virtine: 0,
            args: sut::marshal(&[next_arg(&mut rng)]),
            payload: Vec::new(),
        })
        .collect();
    notes.extend(ladder::closed_loop_upper_rungs(
        &[touch_spec()],
        &sample,
        0.000_05,
        layer,
    ));
    notes
}

pub fn drill_target() -> Target {
    Target {
        spec: touch_spec(),
        dirty_pages: 4,
        // Short and cold, like every invocation here: boot plus the function.
        bare: vec![BareKernel {
            spec: touch_spec(),
            args: sut::marshal(&[7]),
            expect: 8,
        }],
    }
}
