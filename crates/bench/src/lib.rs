//! Shared helpers for the benchmark binaries.
//!
//! The `paper` binary regenerates every table and figure of the paper's
//! evaluation; the `scenarios` binary drives the serving tiers built on
//! top of it, one row of [`scenarios::SCENARIOS`] each. Both state their
//! claims as [`check::Check`]s. All report virtual time (cycles, or µs at
//! 2.69 GHz). `paper`'s trial counts follow the paper's "1000 trials
//! unless otherwise noted", scaled down by default for quick runs; pass
//! `--trials N` to override.

pub mod check;
pub mod gate;
pub mod json;
pub mod scenarios;

use json::Obj;
use vclock::stats::Histogram;
use vclock::Cycles;

/// Parses `--trials N` from argv. A missing, unparsable or zero `N` means
/// `default`: no bench can summarize zero samples.
pub fn trials(default: usize) -> usize {
    trials_in(std::env::args(), default)
}

fn trials_in(args: impl IntoIterator<Item = String>, default: usize) -> usize {
    let mut after = args.into_iter().skip_while(|a| a != "--trials").skip(1);
    let n = after.next().and_then(|v| v.parse().ok());
    n.filter(|&n| n > 0).unwrap_or(default)
}

/// Recursive fib(20) into `r0`, then `hlt`: Figure 3's kernel in every
/// processor mode, and `interp_speed`'s call-heavy kernel. The caller
/// sets the origin and the stack.
pub const FIB20_ASM: &str = "
  mov r1, 20
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

/// Prints a header for a figure, table or scenario.
pub fn header(title: &str, claim: &str) {
    println!("# {title}");
    println!("# claim: {claim}");
    println!("#");
}

/// Folds end-to-end latencies in virtual seconds into the shared cycle
/// [`Histogram`] — the same log-linear bucketing the `/metrics` endpoint
/// exports, so bench percentiles and scraped quantiles agree to the
/// histogram's ≤6.25% bucket error instead of disagreeing by methodology.
pub fn latency_histogram(lat_s: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in lat_s {
        h.record(Cycles::from_secs(s).get());
    }
    h
}

/// Reads percentile `p` (0–100) out of a cycle histogram in milliseconds.
pub fn hist_percentile_ms(h: &Histogram, p: f64) -> f64 {
    Cycles(h.quantile(p / 100.0)).as_millis()
}

/// Host-side wall-clock attribution for a bench run.
///
/// Everything above reports *virtual* time (guest cycles at 2.69 GHz); this
/// measures what the simulation costs the *host* — wall time elapsed and
/// host nanoseconds per retired guest instruction, from the process-wide
/// [`visa::pred::counters`] retired totals. Started at the top of a bench's
/// `main` and folded into its JSON artifact by [`write_artifact`], so every
/// `BENCH_*.json` carries a `host` object tracking interpreter speed.
pub struct HostTimer {
    start: std::time::Instant,
    retired0: u64,
}

/// Guest instructions retired so far, both engines.
fn retired() -> u64 {
    let c = visa::pred::counters();
    c.retired_fast + c.retired_ref
}

impl HostTimer {
    /// Starts the timer and snapshots the retired-instruction counters.
    pub fn start() -> Self {
        let retired0 = retired();
        let start = std::time::Instant::now();
        Self { start, retired0 }
    }

    /// The `host` object: wall ms, retired guest instructions, and host
    /// ns per guest instruction (0 when the bench ran no guest code).
    fn obj(&self) -> Obj {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        let insts = retired().saturating_sub(self.retired0);
        let ns_per_inst = if insts == 0 {
            0.0
        } else {
            wall_ns / insts as f64
        };
        let obj = Obj::new().num("wall_ms", wall_ns / 1e6, 3);
        obj.val("guest_insts", insts)
            .num("ns_per_inst", ns_per_inst, 2)
    }
}

/// Writes `doc` as `BENCH_<name>.json`.
pub fn write_json(name: &str, doc: Obj) {
    std::fs::write(format!("BENCH_{name}.json"), doc.document()).expect("write JSON artifact");
    println!("# wrote BENCH_{name}.json");
}

/// Writes `BENCH_<name>.json`, appending the [`HostTimer`]'s `host` object
/// as a final top-level field. A baseline gates only the paths it lists,
/// so the wall-clock numbers ride along without perturbing any committed
/// baseline.
pub fn write_artifact(name: &str, doc: Obj, host: &HostTimer) {
    write_json(name, doc.val("host", host.obj()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_default_without_the_flag() {
        // No --trials in the test harness argv.
        assert_eq!(trials(123), 123);
    }

    #[test]
    fn host_timer_emits_a_json_object() {
        let j = json::Json::parse(&HostTimer::start().obj().to_string()).unwrap();
        assert!(j.get("wall_ms").and_then(json::Json::as_f64).is_some());
        assert!(j.get("ns_per_inst").and_then(json::Json::as_f64).is_some());
    }

    #[test]
    fn a_zero_or_unusable_trial_count_falls_back_to_the_default() {
        let trials = |args: &[&str]| trials_in(args.iter().map(|a| a.to_string()), 7);
        assert_eq!(trials(&["bench", "--trials", "3"]), 3);
        assert_eq!(trials(&["bench", "--trials", "0"]), 7);
        assert_eq!(trials(&["bench", "--trials", "-2"]), 7);
        assert_eq!(trials(&["bench", "--trials", "many"]), 7);
        assert_eq!(trials(&["bench", "--trials"]), 7);
        assert_eq!(trials(&["bench"]), 7);
    }
}
