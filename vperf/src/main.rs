//! `vperf` — one two-clock benchmark of the whole virtine tower.
//!
//! ```text
//! vperf                                    every workload, one process each
//! vperf --workload W --seed N              one workload
//!       --seconds S | --reps N             how long / how many repetitions
//!       --trace [0|1]                      the traced run: per-layer metrics
//!       --smoke                            a couple of hundred ops, one repetition
//! vperf --aa                               the suite twice; compares against the bounds
//! ```
//!
//! See `README.md` beside this crate for the metric catalogue and method.

mod drills;
mod ladder;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::process::ExitCode;

use run::Options;
use workloads::Which;

fn usage() -> ! {
    eprintln!(
        "usage: vperf [--workload {}] [--seed N] [--seconds S | --reps N] [--trace [0|1]] [--smoke] [--aa]",
        workloads::ALL.map(Which::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options::default();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{a} needs {what}");
                usage()
            })
        };
        match a.as_str() {
            "--workload" => {
                let name = value("a workload name");
                o.workload = Some(Which::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name}");
                    usage()
                }));
            }
            "--seed" => o.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--reps" => o.reps = Some(value("a count").parse().unwrap_or_else(|_| usage())),
            "--seconds" => o.seconds = Some(value("seconds").parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                // Bare `--trace` switches it on; the driver passes 0 or 1.
                o.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => o.smoke = true,
            "--aa" => o.aa = true,
            _ => {
                eprintln!("unknown argument {a}");
                usage()
            }
        }
    }
    o
}

fn main() -> ExitCode {
    let opts = parse_args();
    let ok = match opts.workload {
        Some(w) => run::one_workload(w, &opts),
        None => run::suite(&opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
