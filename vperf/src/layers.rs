//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction, and the arithmetic that turns public stats into per-layer
//! metrics. `BENCHMARK.json` declares the same names; a unit test holds the
//! two lists equal.

use std::collections::BTreeMap;

use crate::spans;
use crate::sut::{Breakdown, InstCounters, TierStats};

/// Per-layer observations, keyed by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        lower_is_better: false,
        ..lo(name, unit)
    }
}

impl Metric {
    const fn within(self, bound: f64) -> Metric {
        Metric { bound, ..self }
    }
}

/// What a user of the system sees; reported with `--trace 0`.
///
/// Bounds (README.md has the measurements): for one seed the virtual
/// metrics repeat exactly, so their bound only covers what another seed's
/// inputs move; the host bounds sit just above this sandbox's A/A noise,
/// where back-to-back runs of the same binary differ by up to a fifth.
pub const END_TO_END: &[Metric] = &[
    lo("setup_s", "s").within(0.25),
    hi("host_ops_per_s", "1/s").within(0.25),
    lo("host_peak_rss_mb", "MiB").within(0.10),
    lo("virt_p50_cycles", "cycles").within(0.06),
    lo("virt_p99_cycles", "cycles").within(0.06),
    lo("virt_cycles_per_op", "cycles").within(0.06),
    hi("virt_capacity_ops_per_s", "1/s").within(0.06),
];

/// One layer each; reported with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    // visa: the interpreter.
    lo("visa.insts_per_op", "count"),
    lo("visa.blocks_built_per_op", "count"),
    lo("visa.blocks_built_per_kinst", "count"),
    lo("visa.blocks_invalidated_per_op", "count"),
    hi("visa.superinsts_fused_per_op", "count"),
    lo("visa.host_ns_per_inst", "ns"),
    lo("visa.bare_host_ns_per_inst", "ns"),
    lo("visa.assemble_host_ms", "ms"),
    // kvmsim: contexts, snapshots, wipes.
    lo("kvmsim.create_vm_host_us", "us"),
    lo("kvmsim.clean_host_us", "us"),
    lo("kvmsim.snapshot_host_us", "us"),
    lo("kvmsim.restore_full_host_us", "us"),
    lo("kvmsim.restore_delta_host_us", "us"),
    lo("kvmsim.snapshot_copied_bytes", "bytes"),
    lo("kvmsim.delta_pages_per_op", "pages"),
    // wasp: the runtime.
    lo("wasp.acquire_cycles_per_op", "cycles"),
    lo("wasp.image_cycles_per_op", "cycles"),
    lo("wasp.exec_cycles_per_op", "cycles"),
    lo("wasp.release_cycles_per_op", "cycles"),
    lo("wasp.create_host_us", "us"),
    lo("wasp.pooled_host_us", "us"),
    lo("wasp.restore_host_us", "us"),
    lo("wasp.warm_host_us", "us"),
    lo("wasp.self_host_us_per_op", "us"),
    hi("wasp.warm_hit_ratio", "ratio"),
    hi("wasp.shell_reuse_ratio", "ratio"),
    lo("wasp.hypercalls_per_op", "count"),
    lo("wasp.denials", "count"),
    lo("wasp.blocks_per_op", "count"),
    lo("wasp.vmrun_floor_ratio", "ratio"),
    // the guest toolchains.
    lo("vlibc.boot_cycles", "cycles"),
    lo("vcc.compile_host_ms", "ms"),
    lo("vcc.image_bytes", "bytes"),
    lo("vjs.compile_engine_host_ms", "ms"),
    lo("vjs.eval_host_ms", "ms"),
    lo("vjs.eval_cycles", "cycles"),
    lo("vaes.cbc_host_us_per_kib", "us"),
    lo("vaes.cbc_cycles_per_kib", "cycles"),
    // hostsim: the simulated kernel.
    lo("hostsim.send_recv_host_ns", "ns"),
    lo("hostsim.fs_read_host_ns", "ns"),
    // vsched: the dispatcher.
    lo("vsched.queue_wait_p50_cycles", "cycles"),
    lo("vsched.queue_wait_p99_cycles", "cycles"),
    lo("vsched.exec_p50_cycles", "cycles"),
    hi("vsched.warm_hit_ratio", "ratio"),
    lo("vsched.steals_per_kop", "1/kop"),
    lo("vsched.shells_created", "count"),
    lo("vsched.parks_per_kop", "1/kop"),
    lo("vsched.migrations_per_kop", "1/kop"),
    lo("vsched.retries", "count"),
    lo("vsched.hedges_fired", "count"),
    lo("vsched.shed", "count"),
    lo("vsched.declared", "count"),
    hi("vsched.restored", "count"),
    lo("vsched.false_positives", "count"),
    lo("vsched.host_us_per_op", "us"),
    lo("vsched.self_host_us_per_op", "us"),
    // vtrace: the system's own tracing.
    lo("vtrace.spans_per_op", "count"),
    lo("vtrace.host_overhead_pct", "%"),
    lo("vtrace.dump_host_ms", "ms"),
    lo("vtrace.dump_bytes", "bytes"),
    lo("vtrace.evicted", "count"),
    lo("vtrace.queue_wait_share", "ratio"),
    lo("vtrace.shell_acquire_share", "ratio"),
    hi("vtrace.exec_share", "ratio"),
    lo("vtrace.park_share", "ratio"),
    lo("vtrace.unattributed_share", "ratio"),
    // vhttp: the serving tiers.
    lo("vhttp.offer_host_us", "us"),
    lo("vhttp.finish_host_ms", "ms"),
    lo("vhttp.metrics_render_host_us", "us"),
    lo("vhttp.metrics_bytes", "bytes"),
    lo("vhttp.self_host_us_per_op", "us"),
    lo("vhttp.redispatched", "count"),
    lo("vhttp.duplicates", "count"),
    lo("vhttp.lost", "count"),
    lo("vhttp.acceptor_wakes_per_op", "count"),
    // bench: the benchmark itself.
    lo("bench.driver_self_pct", "%"),
    lo("bench.rep_spread_pct", "%"),
];

/// A layer map holding every declared per-layer metric at zero: a layer a
/// workload bypasses reports no work.
pub fn empty_layer() -> Layer {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

fn per(n: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        n as f64 / ops as f64
    }
}

/// `visa::pred::counters()` deltas over the timed stream.
pub fn fill_visa(layer: &mut Layer, c: InstCounters, ops: u64, stream_s: f64) {
    layer.insert("visa.insts_per_op", per(c.retired, ops));
    layer.insert("visa.blocks_built_per_op", per(c.blocks_built, ops));
    layer.insert(
        "visa.blocks_built_per_kinst",
        per(c.blocks_built * 1000, c.retired),
    );
    layer.insert(
        "visa.blocks_invalidated_per_op",
        per(c.blocks_invalidated, ops),
    );
    layer.insert("visa.superinsts_fused_per_op", per(c.superinsts_fused, ops));
    if c.retired > 0 {
        layer.insert("visa.host_ns_per_inst", stream_s * 1e9 / c.retired as f64);
    }
}

/// Running sums of `wasp::Breakdown` over a stream of invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakdownSums {
    pub ops: u64,
    pub acquire: u64,
    pub image: u64,
    pub exec: u64,
    pub release: u64,
    pub total: u64,
    pub warm_hits: u64,
    pub reused: u64,
    pub delta_pages: u64,
    pub hypercalls: u64,
}

impl BreakdownSums {
    /// Adds one invocation. Returns whether the one identity visible from
    /// outside holds: `acquire + image + exec + release == total`.
    pub fn add(&mut self, b: &Breakdown, hypercalls: u64) -> bool {
        self.ops += 1;
        self.acquire += b.acquire.get();
        self.image += b.image.get();
        self.exec += b.exec.get();
        self.release += b.release.get();
        self.total += b.total.get();
        self.warm_hits += u64::from(b.warm_hit);
        self.reused += u64::from(b.reused_shell);
        self.delta_pages += b.delta_pages;
        self.hypercalls += hypercalls;
        b.acquire.get() + b.image.get() + b.exec.get() + b.release.get() == b.total.get()
    }
}

/// The runtime's virtual cycle split, from per-invocation breakdowns.
pub fn fill_wasp_cycles(layer: &mut Layer, s: &BreakdownSums) {
    layer.insert("wasp.acquire_cycles_per_op", per(s.acquire, s.ops));
    layer.insert("wasp.image_cycles_per_op", per(s.image, s.ops));
    layer.insert("wasp.exec_cycles_per_op", per(s.exec, s.ops));
    layer.insert("wasp.release_cycles_per_op", per(s.release, s.ops));
}

/// The runtime's ratios, from per-invocation breakdowns.
pub fn fill_wasp_ratios(layer: &mut Layer, s: &BreakdownSums) {
    layer.insert("wasp.warm_hit_ratio", per(s.warm_hits, s.ops));
    layer.insert("wasp.shell_reuse_ratio", per(s.reused, s.ops));
    layer.insert("wasp.hypercalls_per_op", per(s.hypercalls, s.ops));
    layer.insert("kvmsim.delta_pages_per_op", per(s.delta_pages, s.ops));
}

/// The same ratios where only a tier's aggregate stats are visible.
pub fn fill_wasp_from_tier(layer: &mut Layer, t: &TierStats) {
    let ops = t.served;
    layer.insert("wasp.warm_hit_ratio", per(t.warm_hits, ops));
    layer.insert(
        "wasp.shell_reuse_ratio",
        per(t.shells_reused, t.shells_reused + t.shells_created),
    );
    layer.insert("wasp.hypercalls_per_op", per(t.hypercalls, ops));
    layer.insert("wasp.denials", t.denials as f64);
    layer.insert("wasp.blocks_per_op", per(t.wasp_blocks, ops));
    layer.insert("kvmsim.delta_pages_per_op", per(t.delta_pages, ops));
}

/// The dispatcher's public counters over the whole stream (`t`), and its
/// public histograms where latency is read (`unloaded`: the end of the
/// latency rung on a rate ladder, the whole stream otherwise).
pub fn fill_vsched(layer: &mut Layer, t: &TierStats, unloaded: &TierStats) {
    let ops = t.served;
    let (wait, exec) = (&unloaded.queue_wait, &unloaded.exec);
    layer.insert("vsched.queue_wait_p50_cycles", wait.quantile(0.5) as f64);
    layer.insert("vsched.queue_wait_p99_cycles", wait.quantile(0.99) as f64);
    layer.insert("vsched.exec_p50_cycles", exec.quantile(0.5) as f64);
    layer.insert("vsched.warm_hit_ratio", per(t.warm_hits, ops));
    layer.insert("vsched.steals_per_kop", per(t.stolen * 1000, ops));
    layer.insert("vsched.shells_created", t.shells_created as f64);
    layer.insert("vsched.parks_per_kop", per(t.parks * 1000, ops));
    layer.insert("vsched.migrations_per_kop", per(t.migrations * 1000, ops));
    layer.insert("vsched.retries", t.retries as f64);
    layer.insert("vsched.hedges_fired", t.hedges_fired as f64);
    layer.insert("vsched.shed", t.shed as f64);
    layer.insert("vsched.declared", t.declared as f64);
    layer.insert("vsched.restored", t.restored as f64);
    layer.insert("vsched.false_positives", t.false_positives as f64);
}

/// Where the virtual end-to-end latency of traced requests went, read back
/// from the system's own trace dump.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceShares {
    pub traces: u64,
    pub queue_wait: f64,
    pub shell_acquire: f64,
    pub exec: f64,
    pub park: f64,
    /// The part of e2e no span covers — ROADMAP item 1's "Σ layers == e2e"
    /// gap, measured.
    pub unattributed: f64,
}

fn u64_after(s: &str, key: &str) -> Option<u64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the JSON lines `Dispatcher::trace_json_lines` emits. Lines without
/// an `exec` span (sheds, the ingress's own zero-length edge marks) are not
/// requests a shard served and are skipped.
pub fn trace_shares(dump: &str) -> TraceShares {
    const LABELS: [&str; 4] = ["queue_wait", "shell_acquire", "exec", "park"];
    let mut sums = [0u64; 4];
    let (mut e2e, mut covered, mut traces) = (0u64, 0u64, 0u64);
    for line in dump.lines() {
        if !line.contains("\"span\":\"exec\"") {
            continue;
        }
        let (Some(arrival), Some(end)) =
            (u64_after(line, "\"arrival\":"), u64_after(line, "\"end\":"))
        else {
            continue;
        };
        traces += 1;
        e2e += end.saturating_sub(arrival);
        for part in line.split("{\"span\":\"").skip(1) {
            let label = part.split('"').next().unwrap_or("");
            let dur = match (u64_after(part, "\"start\":"), u64_after(part, "\"end\":")) {
                (Some(s), Some(e)) => e.saturating_sub(s),
                _ => 0,
            };
            if let Some(i) = LABELS.iter().position(|l| *l == label) {
                sums[i] += dur;
                covered += dur;
            }
        }
    }
    if e2e == 0 {
        return TraceShares::default();
    }
    let share = |c: u64| c as f64 / e2e as f64;
    TraceShares {
        traces,
        queue_wait: share(sums[0]),
        shell_acquire: share(sums[1]),
        exec: share(sums[2]),
        park: share(sums[3]),
        unattributed: 1.0 - share(covered.min(e2e)),
    }
}

/// The system's own tracing, from a traced tier: span counts, the dump, and
/// the latency shares parsed out of it.
pub fn fill_vtrace(layer: &mut Layer, t: &TierStats, dump: &str, dump_host_s: f64) {
    layer.insert("vtrace.spans_per_op", per(t.trace_spans, t.served));
    layer.insert("vtrace.evicted", t.trace_evicted as f64);
    layer.insert("vtrace.dump_host_ms", dump_host_s * 1e3);
    layer.insert("vtrace.dump_bytes", dump.len() as f64);
    let s = trace_shares(dump);
    layer.insert("vtrace.queue_wait_share", s.queue_wait);
    layer.insert("vtrace.shell_acquire_share", s.shell_acquire);
    layer.insert("vtrace.exec_share", s.exec);
    layer.insert("vtrace.park_share", s.park);
    layer.insert("vtrace.unattributed_share", s.unattributed);
}

/// Host timings of the `vhttp` tier's calls, from a span report. Both tiers
/// (`DispatchedServer`, `Ingress`) record under the same span names.
pub fn fill_vhttp_from_spans(layer: &mut Layer, report: &spans::Report) {
    let (offer_ns, offers) = report.total_under("drive", "vhttp.offer");
    let (slow_ns, slow) = report.total_under("drive", "vhttp.offer_trickled");
    if offers + slow > 0 {
        layer.insert(
            "vhttp.offer_host_us",
            (offer_ns + slow_ns) as f64 / 1e3 / (offers + slow) as f64,
        );
    }
    let (finish_ns, _) = report.total_under("collect", "vhttp.finish");
    layer.insert("vhttp.finish_host_ms", finish_ns as f64 / 1e6);
    let (metrics_ns, scrapes) = report.total_under("drive", "vhttp.metrics");
    if scrapes > 0 {
        layer.insert(
            "vhttp.metrics_render_host_us",
            metrics_ns as f64 / 1e3 / scrapes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_not_prometheus_series() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            // tools/check_docs.sh greps for these prefixes to find series
            // that docs/observability.md must catalogue.
            for prefix in ["vsched_", "vslo_", "visa_"] {
                assert!(!m.name.starts_with(prefix), "{}", m.name);
            }
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
        }
    }

    /// Pulls `"name": "...", "unit": "...", "better": "..."` triples out of
    /// one array of `BENCHMARK.json`.
    fn declared(json: &str, section: &str) -> Vec<(String, String, bool)> {
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, key: &str| {
            let rest = &obj[obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("open quote") + 1..];
            rest[..rest.find('"').expect("close quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name"),
                    field(obj, "unit"),
                    field(obj, "better") == "lower",
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = declared(json, section);
            let ours: Vec<(String, String, bool)> = ours
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.lower_is_better))
                .collect();
            assert_eq!(theirs, ours, "{section} differs from BENCHMARK.json");
        }
        for w in crate::workloads::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        // Bounds, in declaration order.
        let bounds: Vec<f64> = json
            .split("\"bound\":")
            .skip(1)
            .map(|rest| {
                let end = rest.find([',', '}', '\n']).expect("end");
                rest[..end].trim().parse().expect("bound is a number")
            })
            .collect();
        let ours: Vec<f64> = END_TO_END.iter().map(|m| m.bound).collect();
        assert_eq!(bounds, ours);
    }

    #[test]
    fn breakdown_sums_check_the_identity() {
        use crate::sut::Cycles;
        let mut s = BreakdownSums::default();
        let good = Breakdown {
            acquire: Cycles(1),
            image: Cycles(2),
            exec: Cycles(3),
            release: Cycles(4),
            total: Cycles(10),
            warm_hit: true,
            ..Breakdown::default()
        };
        assert!(s.add(&good, 7));
        let bad = Breakdown {
            total: Cycles(11),
            ..good
        };
        assert!(!s.add(&bad, 0));
        assert_eq!((s.ops, s.total, s.warm_hits, s.hypercalls), (2, 21, 2, 7));
    }

    #[test]
    fn trace_shares_split_e2e_and_report_the_gap() {
        let dump = "\
{\"id\":1,\"tenant\":\"a\",\"virtine\":0,\"arrival\":100,\"end\":200,\"outcome\":\"completed\",\"spans\":[\
{\"span\":\"admit\",\"detail\":\"\",\"start\":100,\"end\":100},\
{\"span\":\"queue_wait\",\"detail\":\"\",\"start\":100,\"end\":130},\
{\"span\":\"shell_acquire\",\"detail\":\"warm(delta=3)\",\"start\":130,\"end\":140},\
{\"span\":\"exec\",\"detail\":\"\",\"start\":140,\"end\":190}]}\n\
{\"id\":2,\"tenant\":\"a\",\"virtine\":0,\"arrival\":5,\"end\":5,\"outcome\":\"shed:rate_limited\",\"spans\":[]}\n";
        let s = trace_shares(dump);
        assert_eq!(s.traces, 1);
        assert!((s.queue_wait - 0.3).abs() < 1e-12);
        assert!((s.shell_acquire - 0.1).abs() < 1e-12);
        assert!((s.exec - 0.5).abs() < 1e-12);
        assert_eq!(s.park, 0.0);
        assert!((s.unattributed - 0.1).abs() < 1e-12);
        assert_eq!(trace_shares(""), TraceShares::default());
    }
}
