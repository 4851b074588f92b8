//! The serving scenarios: every row of [`bench::scenarios::SCENARIOS`] in
//! one process, each under its own host timer. Each writes its
//! `BENCH_<id>.json` and prints it with its checks' verdicts; the process
//! exits non-zero when a check fails. Numbers are virtual time.

fn main() {
    let failed = bench::scenarios::SCENARIOS
        .iter()
        .map(bench::scenarios::run)
        .sum();
    bench::check::exit_on(failed, "scenario");
}
