//! Shared helpers for the per-figure benchmark binaries.
//!
//! Every binary regenerates one table or figure from the paper's
//! evaluation, printing the same rows/series the paper reports (in cycles
//! and/or µs of virtual time at 2.69 GHz). Trial counts follow the paper's
//! "1000 trials unless otherwise noted", scaled down by default for quick
//! runs; pass `--trials N` to override.

pub mod gate;
pub mod json;
pub mod scenario;

use json::Obj;
use vclock::stats::{Histogram, Summary};
use vclock::Cycles;

/// Parses `--trials N` from argv, defaulting to `default`.
pub fn trials(default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trials" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        }
    }
    default
}

/// Prints a header for a figure/table reproduction.
pub fn header(title: &str, claim: &str) {
    println!("# {title}");
    println!("# paper claim: {claim}");
    println!("#");
}

/// Formats a `Summary` of cycle samples as `mean ± std (min)` with µs.
pub fn fmt_cycles(s: &Summary) -> String {
    let us = Cycles(s.mean as u64).as_micros();
    format!(
        "{:>12.0} ± {:>8.0} cyc  ({:>9.2} µs, min {:>10.0})",
        s.mean, s.std_dev, us, s.min
    )
}

/// One labelled measurement row.
pub fn row(label: &str, s: &Summary) {
    println!("{label:<28} {}", fmt_cycles(s));
}

/// Folds end-to-end latencies in virtual seconds into the shared cycle
/// [`Histogram`] — the same log-linear bucketing the `/metrics` endpoint
/// exports, so bench percentiles and scraped quantiles agree to the
/// histogram's ≤6.25% bucket error instead of disagreeing by methodology.
pub fn latency_histogram(lat_s: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in lat_s {
        h.record(Cycles::from_micros(s * 1e6).get());
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

/// Writes `BENCH_<name>.json`, appending the [`HostTimer`]'s `host` object
/// as a final top-level field. A baseline gates only the paths it lists,
/// so the wall-clock numbers ride along without perturbing any committed
/// baseline.
pub fn write_artifact(name: &str, doc: Obj, host: &HostTimer) {
    let out = doc.val("host", host.obj()).document();
    std::fs::write(format!("BENCH_{name}.json"), out).expect("write JSON artifact");
    println!("# wrote BENCH_{name}.json");
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
    fn cycle_formatting_contains_units() {
        let s = Summary::of(&[1000.0, 2000.0]);
        let out = fmt_cycles(&s);
        assert!(out.contains("cyc"));
        assert!(out.contains("µs"));
    }
}
