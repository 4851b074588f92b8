//! Differential fuzzer: random guest programs through both interpreter
//! engines, demanding byte- and cycle-identical behaviour.
//!
//! Usage: `diff_fuzz [--iters N] [--seed S] [--insts I] [--lifecycle] [--loops]`
//!
//! Each iteration generates one random program from the seeded corpus — a
//! quarter of them counted loops (`corpus::random_loop_source`), the shape
//! the fast engine fast-forwards, and with `--loops` all of them —
//! assembles it, and runs it on the fast
//! and reference engines with identical seeded I/O. Exits non-zero on the
//! first divergence, printing the seed that reruns the case alone
//! (`--iters 1 --seed <reported>`), the divergence report, and the source.
//!
//! With `--lifecycle` each iteration generates *two* programs and a random
//! shell-lifecycle script over them (`diff::random_script`: snapshots, full
//! and delta restores, host pokes into the code, cleans that hand the shell
//! to the other image) and compares the engines after every step — the fast
//! engine's block cache survives all of those.

use vclock::rng::Rng;
use visa::{assemble, corpus, diff};

const MEM: usize = 1 << 20;

fn arg(name: &str, default: u64) -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            });
            return v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {name}: {v}");
                std::process::exit(2);
            });
        }
    }
    default
}

fn main() {
    let iters = arg("--iters", 500);
    let seed = arg("--seed", 0xF0CC_ACC1A);
    let insts = arg("--insts", 80) as usize;
    let lifecycle = std::env::args().any(|a| a == "--lifecycle");
    let all_loops = std::env::args().any(|a| a == "--loops");

    let mut divergences = 0u64;
    for i in 0..iters {
        // Derive one seed per case so any case reproduces standalone.
        let case_seed = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::seeded(case_seed);
        // A quarter of the cases are counted loops (all, with `--loops`);
        // outside lifecycle scripts those run in 4 MiB, where long mode's
        // 2 MiB identity window ends inside memory.
        let loops = rng.bool(0.25) || all_loops;
        let mem = if loops && !lifecycle { 4 << 20 } else { MEM };
        let mut program = || {
            let src = if loops {
                corpus::random_loop_source(&mut rng, mem as u64)
            } else if lifecycle && rng.bool(0.5) {
                corpus::random_source_paged(&mut rng, insts)
            } else {
                corpus::random_source(&mut rng, insts)
            };
            match assemble(&src) {
                Ok(img) => (img, src),
                Err(e) => {
                    eprintln!("case {i} (seed {case_seed:#x}): generated source failed to assemble: {e}\n{src}");
                    std::process::exit(2);
                }
            }
        };
        let (result, sources) = if lifecycle {
            let ((a, src_a), (b, src_b)) = (program(), program());
            let images = [a, b];
            let steps = diff::random_script(&mut rng, &images);
            (
                diff::compare_script(&images, mem, &steps, case_seed).map(drop),
                format!("{src_a}\nsecond image:\n{src_b}"),
            )
        } else {
            let (img, src) = program();
            (diff::compare(&img, mem, 50_000, case_seed), src)
        };
        if let Err(report) = result {
            let again = seed.wrapping_add(i);
            eprintln!("case {i} (rerun: --iters 1 --seed {again}) DIVERGED:\n{report}\nsource:\n{sources}");
            divergences += 1;
        }
    }
    if divergences > 0 {
        eprintln!("{divergences}/{iters} cases diverged");
        std::process::exit(1);
    }
    let mode = match (lifecycle, all_loops) {
        (true, _) => "lifecycle scripts",
        (false, true) => "counted loops",
        (false, false) => "cases",
    };
    println!("diff_fuzz: {iters} {mode}, fast == reference on all (seed {seed:#x})");
}
