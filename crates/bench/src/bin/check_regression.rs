//! CI bench-regression gate.
//!
//! Walks every committed baseline in `crates/bench/baselines/` and checks
//! the fresh `BENCH_<name>.json` the bench left in the working directory
//! against the gates that baseline declares (rules: [`bench::gate`]).
//! Exits non-zero when any check fails or the gate table does not cover
//! its baseline exactly. The benches run on a deterministic virtual clock,
//! so in an unchanged tree every `exact` gate holds bit-for-bit. Refresh a
//! baseline by re-running its bench and committing the numbers under the
//! same `gates`.

use std::path::Path;

use bench::gate::{Report, TOLERANCE};

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let tolerance = TOLERANCE * 100.0;
    println!(
        "# bench regression gate: BENCH_*.json vs {} (drift {tolerance:.0}%)",
        dir.display()
    );
    let report = Report::walk(&dir, Path::new("."));
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "REGRESSED" };
        let what = format!("{}: {}", c.file, c.path);
        let (base, cur, rule) = (c.baseline, c.current, c.rule);
        println!("{verdict:>10}  {what:<58} baseline {base:>12.4}  current {cur:>12.4}  {rule:?}");
    }
    for error in &report.errors {
        println!("{:>10}  {error}", "ERROR");
    }
    let failed = report.checks.iter().filter(|c| !c.ok).count();
    let (checks, errors) = (report.checks.len(), report.errors.len());
    println!("#");
    if failed + errors > 0 || checks == 0 {
        println!("# {failed} of {checks} checks failed; {errors} errors");
        std::process::exit(1);
    }
    println!("# all {checks} checks pass");
}
