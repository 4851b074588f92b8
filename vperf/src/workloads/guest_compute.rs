//! `guest_compute` — closed loop, one caller, `Wasp::run` on the warm path
//! with long guests.
//!
//! *Why:* almost all host time is the interpreter with a hot block cache and
//! nothing above `wasp` runs, so this is the bypass workload for every
//! dispatcher or HTTP change, and the one where `visa.bare_host_ns_per_inst`
//! moves `host_ops_per_s` one for one.
//!
//! Four kernels share the instruction budget evenly — the recursive `fib` of
//! Figure 3/9 in assembly, the `vcc`-compiled string/ALU loop of
//! `interp_speed`, the `vjs` engine base64-ing about 1 KiB (Figure 14) and
//! `vaes` AES-128-CBC over 256 B (§6.4) — interleaved in a fixed round. The
//! sizes are smaller than the paper's (AES over 16 KiB retires 47 M guest
//! instructions, half a host second per op) so that one repetition holds
//! over a thousand ops and its p99 has more than ten samples beyond it.

use std::time::Instant;

use crate::drills::{BareKernel, Target};
use crate::ladder::{self, Op};
use crate::layers::{self, BreakdownSums, Layer};
use crate::spans::span;
use crate::stats::Fingerprint;
use crate::sut::{self, InstCounters, Rng, Spec};

use super::{Rep, Size};

/// The Figure 3/9 kernel: snapshot after the stack is set, then `fib(n)`
/// with `n` read from the marshalled argument at guest address 0.
pub const FIB_SRC: &str = "
.org 0x8000
  mov sp, 0x8000
  mov r0, 8            ; snapshot()
  out 0x1, r0
  mov r6, 0
  load.q r1, [r6]
  call fib
  hlt
fib:
  cmp r1, 2
  jl .base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
.base:
  mov r0, r1
  ret
";

/// The `interp_speed` http-handler shape: itoa/strlen byte loops, then an
/// ALU-heavy checksum loop.
pub const HTTP_SRC: &str = "
virtine int handle(int n) {
    char body[32];
    itoa(n * 37 % 100000, body);
    int len = strlen(body);
    int acc = 521;
    int i = 0;
    while (i < 5000) {
        acc = acc + (i * 31 + len) % 97;
        acc = acc % 1000000007;
        i = i + 1;
    }
    return acc + len;
}
";

const FIB_N: i64 = 20;
const FIB_RESULT: u64 = 6765;
const AES_BYTES: usize = 256;
const JS_MAX_BYTES: usize = 1024;

/// One round: 4 fib, 3 http, 11 js and 1 aes op, spread out rather than
/// back to back, so each kernel retires about 0.7 M guest instructions per
/// round (measured at this commit: fib(20) 175 k, http 236 k, js 1 KiB 68 k,
/// aes 256 B 762 k instructions per op).
const ROUND: [usize; 19] = [2, 0, 2, 1, 2, 2, 0, 2, 1, 2, 3, 2, 0, 2, 1, 2, 2, 0, 2];
const ROUNDS_FULL: usize = 75;
const ROUNDS_SMOKE: usize = 1;

pub fn fib_spec() -> Spec {
    sut::assemble("fib", FIB_SRC, 64 * 1024, true)
}

pub fn http_spec() -> Spec {
    sut::compile_c("http", HTTP_SRC)
}

/// What the http kernel returns for `n`, computed on the host.
pub fn http_reference(n: i64) -> u64 {
    let len = (n * 37 % 100_000).to_string().len() as i64;
    let mut acc: i64 = 521;
    for i in 0..5000 {
        acc = (acc + (i * 31 + len) % 97) % 1_000_000_007;
    }
    (acc + len) as u64
}

fn specs() -> Vec<Spec> {
    vec![
        fib_spec(),
        http_spec(),
        sut::compile_js_engine(),
        sut::compile_aes(),
    ]
}

/// What a result must be.
enum Expect {
    Ret(u64),
    Bytes(Vec<u8>),
}

fn rounds(size: Size) -> usize {
    match size {
        Size::Full => ROUNDS_FULL,
        Size::Smoke => ROUNDS_SMOKE,
    }
}

/// The op stream: `rounds` rounds, kernels interleaved in a fixed order,
/// inputs drawn from the seed.
fn stream(seed: u64, size: Size) -> Vec<(Op, Expect)> {
    let mut rng = Rng::seeded(seed ^ 0x6775_6573_7463_6f6d);
    let mut ops = Vec::with_capacity(rounds(size) * ROUND.len());
    for _ in 0..rounds(size) {
        for k in ROUND {
            ops.push(match k {
                0 => (
                    Op {
                        virtine: 0,
                        args: sut::marshal(&[FIB_N]),
                        payload: Vec::new(),
                    },
                    Expect::Ret(FIB_RESULT),
                ),
                1 => {
                    let n = rng.range_u64(1, 100_000) as i64;
                    (
                        Op {
                            virtine: 1,
                            args: sut::marshal(&[n]),
                            payload: Vec::new(),
                        },
                        Expect::Ret(http_reference(n)),
                    )
                }
                2 => {
                    let len = JS_MAX_BYTES - rng.below(16);
                    let data = rng.bytes(len);
                    let expect = sut::js_reference(&data);
                    (
                        Op {
                            virtine: 2,
                            args: Vec::new(),
                            payload: data,
                        },
                        Expect::Bytes(expect),
                    )
                }
                _ => {
                    let key: [u8; 16] = rng.bytes(16).try_into().expect("16 bytes");
                    let iv: [u8; 16] = rng.bytes(16).try_into().expect("16 bytes");
                    let data = rng.bytes(AES_BYTES);
                    (
                        Op {
                            virtine: 3,
                            args: Vec::new(),
                            payload: sut::aes_payload(&key, &iv, &data),
                        },
                        Expect::Bytes(sut::aes_reference(&key, &iv, &data)),
                    )
                }
            });
        }
    }
    ops
}

pub fn rep(seed: u64, size: Size) -> Rep {
    let ops = span("generate", || stream(seed, size));

    let t_setup = Instant::now();
    let (rt, ids) = span("setup", || {
        let specs = specs();
        let rt = sut::Runtime::new(sut::PoolMode::CachedAsync, 8, "wasp.run");
        let ids: Vec<_> = specs.iter().map(|s| rt.register(s)).collect();
        // The first run of each kernel boots and snapshots; by the end of
        // two rounds every shell is parked warm.
        for (op, _) in ops.iter().cycle().take(2 * ROUND.len()) {
            rt.run(ids[op.virtine], &op.args, op.payload.clone());
        }
        (rt, ids)
    });
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut sums = BreakdownSums::default();
    let mut latencies = Vec::with_capacity(ops.len());
    let mut fp = Fingerprint::default();
    let mut failed = 0u64;
    let stats0 = rt.stats();
    let virt0 = rt.now_cycles();
    let c0 = InstCounters::now();
    let t = Instant::now();
    span("drive", || {
        for (op, expect) in &ops {
            let ran = rt.run(ids[op.virtine], &op.args, op.payload.clone());
            let identity = sums.add(&ran.breakdown, ran.hypercalls);
            let right = match expect {
                Expect::Ret(v) => ran.ret == *v,
                Expect::Bytes(b) => ran.result == *b,
            };
            failed += u64::from(!(ran.normal && right && identity));
            latencies.push(ran.breakdown.total.get());
            fp.u64(op.virtine as u64);
            fp.u64(ran.ret);
            fp.bytes(&ran.result);
            fp.u64(ran.breakdown.total.get());
        }
    });
    let stream_s = t.elapsed().as_secs_f64();
    let insts = InstCounters::now().since(c0);
    let virt_s = (rt.now_cycles() - virt0) as f64 / sut::cycles_per_second();

    let n = ops.len() as u64;
    let mut layer = Layer::new();
    layers::fill_visa(&mut layer, insts, n, stream_s);
    layers::fill_wasp_cycles(&mut layer, &sums);
    layers::fill_wasp_ratios(&mut layer, &sums);
    let stats = rt.stats();
    layer.insert("wasp.denials", (stats.denials - stats0.denials) as f64);
    layer.insert(
        "wasp.blocks_per_op",
        (stats.blocks - stats0.blocks) as f64 / n as f64,
    );
    Rep {
        setup_s,
        stream_s,
        attempted: n,
        failed,
        latencies,
        cycles_per_op: sums.total as f64 / n as f64,
        capacity_ops_per_s: n as f64 / virt_s,
        fingerprint: fp.value(),
        layer,
        notes: Vec::new(),
        violations: Vec::new(),
    }
}

pub fn ladder(seed: u64, size: Size, top_us_per_op: f64, layer: &mut Layer) -> Vec<String> {
    let insts_per_op = layer["visa.insts_per_op"];
    let visa_us = insts_per_op * layer["visa.bare_host_ns_per_inst"] / 1e3;
    layer.insert("wasp.self_host_us_per_op", top_us_per_op - visa_us);
    let mut notes = vec![format!(
        "ladder: visa {visa_us:.2} us/op (insts x bare ns/inst) -> wasp {top_us_per_op:.2} us/op"
    )];
    // Every fourth round is enough for the tiers above: they add
    // microseconds to ops that cost hundreds.
    let sample: Vec<Op> = stream(seed, size)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (i / ROUND.len()).is_multiple_of(4))
        .map(|(_, (op, _))| op)
        .collect();
    // One caller: the next op arrives after the longest kernel has finished.
    notes.extend(ladder::closed_loop_upper_rungs(
        &specs(),
        &sample,
        0.002,
        layer,
    ));
    notes
}

pub fn drill_target() -> Target {
    Target {
        spec: sut::compile_js_engine(),
        dirty_pages: 4,
        // Long and hot: the two kernels that need no hypercall.
        bare: vec![
            BareKernel {
                spec: fib_spec(),
                args: sut::marshal(&[FIB_N]),
                expect: FIB_RESULT,
            },
            BareKernel {
                spec: http_spec(),
                args: sut::marshal(&[4217]),
                expect: http_reference(4217),
            },
        ],
    }
}
