//! The four workloads and what one repetition of any of them reports.
//!
//! A repetition rebuilds the system from source text, replays a fixed op
//! stream generated from the seed, and checks every result. Op counts never
//! depend on the seed; arrival jitter, tenant choice, payload bytes, the
//! slow clients and the hang instant do.

pub mod cluster_fanout;
pub mod guest_compute;
pub mod http_serve;
pub mod invoke_modes;

use crate::layers::Layer;
use crate::sut;

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size: about two host seconds per repetition.
    Full,
    /// A couple of hundred ops, for the unit tests and `--smoke`.
    Smoke,
}

/// One repetition's measurements. Host clock: `setup_s`, `stream_s`. Virtual
/// clock: everything else, and bit-identical across repetitions of one seed.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds from source text to a system ready for the stream.
    pub setup_s: f64,
    /// Host seconds over the timed op stream (drive and drain).
    pub stream_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual end-to-end latency of every op in the latency population
    /// (the whole stream when closed loop, the 0.5× rung when open loop).
    pub latencies: Vec<u64>,
    pub cycles_per_op: f64,
    pub capacity_ops_per_s: f64,
    /// Hash of the completion stream.
    pub fingerprint: u64,
    /// Per-layer observations this repetition can make from public stats.
    pub layer: Layer,
    /// Lines for the human-readable report (rate ladder, path mix).
    pub notes: Vec<String>,
    /// Broken invariants that are not a single op's failure (conservation,
    /// exactly-once, the detector's verdict); any makes the run incorrect.
    pub violations: Vec<String>,
}

impl Rep {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Per-rung record of an open-loop rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub latencies: Vec<u64>,
    /// Whether every request of the rung had settled one gap after its
    /// last arrival.
    pub drained_in_gap: bool,
}

/// Multiples of a workload's nominal capacity the open-loop ladder offers.
/// The top rung is 1.5× rather than 1.25×: both serving tiers have a knee a
/// quarter of nominal wide in which pass or fail depends on the seed, and a
/// capacity figure that flips with the seed resolves nothing.
pub const LADDER: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.5];
/// The rung virtual latency is read on: the lowest, where requests do not
/// queue behind each other. On the 0.5× rung `http_serve`'s median already
/// depends on which placement regime the seed lands in (162 k or 183 k
/// cycles); on this one ten seeds agree within 1 %.
pub const LATENCY_RUNG: usize = 0;

/// A rung's (p50, p99), when it has samples.
fn percentiles(r: &Rung) -> Option<(u64, u64)> {
    let mut sorted = r.latencies.clone();
    sorted.sort_unstable();
    (!sorted.is_empty()).then(|| {
        (
            crate::stats::percentile_sorted(&sorted, 50.0).value,
            crate::stats::percentile_sorted(&sorted, 99.0).value,
        )
    })
}

fn p99(r: &Rung) -> Option<u64> {
    percentiles(r).map(|(_, p99)| p99)
}

/// The highest rate that meets the latency limit without a growing backlog.
///
/// A rung passes when its p99 is at most `limit_cycles` and its backlog
/// drained inside the gap. The answer lies between the highest passing rung
/// and the rung above it; where that rung failed on latency, the crossing is
/// placed between the two by interpolating log p99 against rate, so a change
/// that moves either rung's tail moves the figure instead of leaving it on
/// the same step of the ladder. Zero when no rung passes.
pub fn ladder_capacity(rungs: &[Rung], limit_cycles: u64) -> f64 {
    let passes = |r: &Rung| r.drained_in_gap && p99(r).is_some_and(|p| p <= limit_cycles);
    let Some(top) = rungs.iter().rposition(passes) else {
        return 0.0;
    };
    let (pass, above) = (&rungs[top], rungs.get(top + 1));
    match (p99(pass), above.and_then(p99)) {
        (Some(lo), Some(hi)) if hi > limit_cycles && lo > 0 => {
            let above = above.expect("has a p99");
            let frac = (limit_cycles as f64 / lo as f64).ln() / (hi as f64 / lo as f64).ln();
            pass.rate + (above.rate - pass.rate) * frac
        }
        _ => pass.rate,
    }
}

/// Finished span trees each `vtrace` collector keeps in a traced
/// repetition. A ring, as in production: older trees are evicted and
/// counted (`vtrace.evicted`), and the dump stays a few megabytes.
pub const TRACE_CAPACITY: usize = 4_096;

/// One line per rung for the report.
pub fn ladder_notes(rungs: &[Rung], limit_cycles: u64) -> Vec<String> {
    rungs
        .iter()
        .map(|r| {
            let (p50, p99) = percentiles(r).unwrap_or((0, 0));
            format!(
                "rung {:>9.0} ops/s: n={} p50={} p99={} cycles (limit {}) drained_in_gap={}",
                r.rate,
                r.latencies.len(),
                p50,
                p99,
                limit_cycles,
                r.drained_in_gap
            )
        })
        .collect()
}

/// Arrival instants of one rung: `n` requests at mean rate `rate`, each
/// jittered uniformly inside its own slot so order is preserved.
pub fn jittered_arrivals(rng: &mut sut::Rng, start_s: f64, n: usize, rate: f64) -> Vec<f64> {
    (0..n)
        .map(|i| start_s + (i as f64 + rng.f64()) / rate)
        .collect()
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    InvokeModes,
    GuestCompute,
    HttpServe,
    ClusterFanout,
}

pub const ALL: [Which; 4] = [
    Which::InvokeModes,
    Which::GuestCompute,
    Which::HttpServe,
    Which::ClusterFanout,
];

impl Which {
    pub fn name(self) -> &'static str {
        match self {
            Which::InvokeModes => "invoke_modes",
            Which::GuestCompute => "guest_compute",
            Which::HttpServe => "http_serve",
            Which::ClusterFanout => "cluster_fanout",
        }
    }

    pub fn parse(name: &str) -> Option<Which> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One repetition. `system_trace` switches the system's own `vtrace` on
    /// where the workload has a dispatcher.
    pub fn rep(self, seed: u64, size: Size, system_trace: bool) -> Rep {
        match self {
            Which::InvokeModes => invoke_modes::rep(seed, size),
            Which::GuestCompute => guest_compute::rep(seed, size),
            Which::HttpServe => http_serve::rep(seed, size, system_trace),
            Which::ClusterFanout => cluster_fanout::rep(seed, size, system_trace),
        }
    }

    /// The layer ladder: replays the workload's ops against the other
    /// public tiers and writes the differences between adjacent rungs into
    /// `layer`. `top_us_per_op` is the workload's own untraced cost.
    pub fn ladder(
        self,
        seed: u64,
        size: Size,
        top_us_per_op: f64,
        layer: &mut Layer,
    ) -> Vec<String> {
        match self {
            Which::InvokeModes => invoke_modes::ladder(seed, size, top_us_per_op, layer),
            Which::GuestCompute => guest_compute::ladder(seed, size, top_us_per_op, layer),
            Which::HttpServe => http_serve::ladder(seed, size, top_us_per_op, layer),
            Which::ClusterFanout => cluster_fanout::ladder(seed, size, top_us_per_op, layer),
        }
    }

    /// The virtine the `kvmsim` and start-path drills are shaped after.
    pub fn drill_target(self) -> crate::drills::Target {
        match self {
            Which::InvokeModes => invoke_modes::drill_target(),
            Which::GuestCompute => guest_compute::drill_target(),
            Which::HttpServe => http_serve::drill_target(),
            Which::ClusterFanout => cluster_fanout::drill_target(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99: u64, drained: bool) -> Rung {
        // 100 samples: nearest-rank p99 is the 99th, which is `p99` here.
        let mut latencies = vec![p99 / 2; 98];
        latencies.extend([p99, p99 * 2]);
        Rung {
            rate,
            latencies,
            drained_in_gap: drained,
        }
    }

    #[test]
    fn capacity_is_the_highest_passing_rung_pushed_towards_a_failing_one() {
        let limit = 1_000;
        // Nothing above the passing rung fails on latency: its own rate.
        let all_pass = [rung(10.0, 100, true), rung(20.0, 200, true)];
        assert_eq!(ladder_capacity(&all_pass, limit), 20.0);
        // Crossing interpolated on log p99: 100 -> 10 000 crosses 1 000
        // half way.
        let knee = [rung(10.0, 100, true), rung(20.0, 10_000, true)];
        assert!((ladder_capacity(&knee, limit) - 15.0).abs() < 1e-9);
        // A rung that met the limit but kept a backlog does not pass, and
        // gives no latency to interpolate towards.
        let backlog = [rung(10.0, 100, true), rung(20.0, 500, false)];
        assert_eq!(ladder_capacity(&backlog, limit), 10.0);
        assert_eq!(ladder_capacity(&[rung(10.0, 5_000, true)], limit), 0.0);
        assert_eq!(ladder_notes(&knee, limit).len(), 2);
    }

    #[test]
    fn jittered_arrivals_stay_in_order_and_in_their_slots() {
        let mut rng = sut::Rng::seeded(3);
        let at = jittered_arrivals(&mut rng, 1.0, 100, 1000.0);
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        assert!(at[0] >= 1.0 && at[99] < 1.1);
        assert_eq!(Which::parse("http_serve"), Some(Which::HttpServe));
        assert_eq!(Which::parse("nope"), None);
    }
}
