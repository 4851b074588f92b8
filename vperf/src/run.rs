//! The harness: repetitions, medians, the determinism check, the traced
//! run, the suite and its A/A comparison.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::layers::{self, Layer, Metric, END_TO_END, PER_LAYER};
use crate::report::{self, ResultLine, Value};
use crate::spans;
use crate::stats::{self, Spread};
use crate::workloads::{self, Rep, Size, Which};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<Which>,
    pub seed: u64,
    /// Timed repetitions; overrides `seconds`.
    pub reps: Option<usize>,
    /// Keep starting timed repetitions while they fit in this many seconds.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub aa: bool,
}

impl Options {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: None,
            seed: 1,
            reps: None,
            seconds: None,
            trace: false,
            smoke: false,
            aa: false,
        }
    }
}

/// Timed repetitions when neither `--reps` nor `--seconds` says otherwise.
const DEFAULT_REPS: usize = 7;
/// Untraced repetitions a traced run makes first, as its baseline.
const TRACE_BASELINE_REPS: usize = 3;
/// `--seconds` never cuts below this many repetitions.
const MIN_REPS: usize = 3;

/// Numbers from different hosts are never compared: the header says where
/// these came from.
fn machine_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"load1_at_start\": \"{load}\"}}")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The virtual side of a repetition: must be equal, bit for bit, across the
/// repetitions of one seed.
#[derive(Debug, Clone, PartialEq)]
struct Virtual {
    attempted: u64,
    failed: u64,
    fingerprint: u64,
    samples: usize,
    p50: stats::Percentile,
    p99: stats::Percentile,
    cycles_per_op_bits: u64,
    capacity_bits: u64,
}

impl Virtual {
    fn of(rep: &Rep) -> Virtual {
        let mut sorted = rep.latencies.clone();
        sorted.sort_unstable();
        Virtual {
            attempted: rep.attempted,
            failed: rep.failed,
            fingerprint: rep.fingerprint,
            samples: sorted.len(),
            p50: stats::percentile_sorted(&sorted, 50.0),
            p99: stats::percentile_sorted(&sorted, 99.0),
            cycles_per_op_bits: rep.cycles_per_op.to_bits(),
            capacity_bits: rep.capacity_ops_per_s.to_bits(),
        }
    }
}

fn value(m: &Metric, value: f64, spread: Option<Spread>) -> Value {
    Value {
        name: m.name.to_string(),
        value,
        unit: m.unit.to_string(),
        spread,
    }
}

fn e2e_metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("declared")
}

/// What a run has to say beside its numbers.
#[derive(Default)]
struct Log {
    /// Lines for the human-readable report.
    notes: Vec<String>,
    /// Anything that makes the run incorrect.
    problems: Vec<String>,
}

/// Everything one process measured for one workload.
struct Measured {
    reps: usize,
    /// Ops attempted and failed, summed over the timed repetitions.
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Value>,
    per_layer: Option<Vec<Value>>,
    log: Log,
}

/// The timed repetitions, and the process's peak RSS once the first
/// [`MIN_REPS`] of them are done: a fixed amount of work whatever
/// `--seconds` allows on top, so the figure does not drift with the count.
fn timed_reps(w: Which, opts: &Options) -> (Vec<Rep>, f64) {
    let size = opts.size();
    let target = match (opts.reps, opts.trace, opts.smoke) {
        (Some(n), _, _) => Some(n.max(1)),
        (None, _, true) => Some(1),
        (None, true, false) => Some(TRACE_BASELINE_REPS),
        (None, false, false) if opts.seconds.is_none() => Some(DEFAULT_REPS),
        _ => None,
    };
    let budget = opts.seconds.unwrap_or(f64::INFINITY);
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut rss = 0.0;
    loop {
        reps.push(w.rep(opts.seed, size, false));
        if reps.len() == MIN_REPS.min(target.unwrap_or(MIN_REPS)) {
            rss = peak_rss_mib();
        }
        let spent = t0.elapsed().as_secs_f64();
        let done = match target {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && spent + spent / reps.len() as f64 > budget,
        };
        if done {
            return (reps, rss);
        }
    }
}

fn measure(w: Which, opts: &Options) -> Measured {
    let mut log = Log::default();

    // One discarded warm-up repetition: page cache, allocator arenas, CPU
    // clocks. Its virtual side still has to agree with the others.
    let warmup = (!opts.smoke).then(|| w.rep(opts.seed, opts.size(), false));
    let (reps, rss) = timed_reps(w, opts);

    let first = Virtual::of(&reps[0]);
    for (i, r) in warmup.iter().chain(&reps).enumerate() {
        let this = Virtual::of(r);
        if this != first {
            log.problems.push(format!(
                "repetition {i} is not bit-identical in virtual time to the first: {this:?} vs {first:?}"
            ));
        }
        log.problems.extend(r.violations.iter().cloned());
    }
    if !stats::tail_is_backed(first.p99) && !opts.smoke {
        log.problems.push(format!(
            "p99 has only {} samples beyond it",
            first.p99.beyond
        ));
    }

    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let ops_per_s: Vec<f64> = reps.iter().map(|r| r.ok() as f64 / r.stream_s).collect();
    let (setup, ops_per_s) = (Spread::of(&setup), Spread::of(&ops_per_s));
    let r0 = &reps[0];
    let end_to_end = vec![
        value(e2e_metric("setup_s"), setup.median, Some(setup)),
        value(
            e2e_metric("host_ops_per_s"),
            ops_per_s.median,
            Some(ops_per_s),
        ),
        value(e2e_metric("host_peak_rss_mb"), rss, None),
        value(e2e_metric("virt_p50_cycles"), first.p50.value as f64, None),
        value(e2e_metric("virt_p99_cycles"), first.p99.value as f64, None),
        value(e2e_metric("virt_cycles_per_op"), r0.cycles_per_op, None),
        value(
            e2e_metric("virt_capacity_ops_per_s"),
            r0.capacity_ops_per_s,
            None,
        ),
    ];
    log.notes.push(format!(
        "{} ops per repetition ({} ok, {} failed); {} latency samples, {} beyond p99; fingerprint {:016x}",
        r0.attempted,
        r0.ok(),
        r0.failed,
        first.samples,
        first.p99.beyond,
        first.fingerprint
    ));
    log.notes.extend(r0.notes.iter().cloned());

    let per_layer = opts.trace.then(|| {
        let mut layer = layers::empty_layer();
        layer.extend(r0.layer.iter().map(|(k, v)| (*k, *v)));
        layer.insert("bench.rep_spread_pct", ops_per_s.iqr_pct());
        traced_run(w, opts, &first, &ops_per_s, &mut layer, &mut log);
        PER_LAYER
            .iter()
            .map(|m| value(m, layer[m.name], None))
            .collect()
    });
    Measured {
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        end_to_end,
        per_layer,
        log,
    }
}

/// One extra repetition with host spans and the system's own tracing on,
/// never mixed into the end-to-end numbers; then the drills and the ladder.
fn traced_run(
    w: Which,
    opts: &Options,
    untraced: &Virtual,
    untraced_ops_per_s: &Spread,
    layer: &mut Layer,
    log: &mut Log,
) {
    let Log { notes, problems } = log;
    // Repetition 0 is the warm-up, 1..=n the untraced ones; this is the next.
    spans::start(u32::try_from(untraced_ops_per_s.n + 1).unwrap_or(u32::MAX));
    let (size, untraced_ops_per_s) = (opts.size(), untraced_ops_per_s.median);
    let rep = spans::span("rep", || w.rep(opts.seed, size, true));
    let report = spans::finish();

    let traced = Virtual::of(&rep);
    if traced != *untraced {
        problems.push(format!(
            "tracing changed virtual time: traced {traced:?} vs untraced {untraced:?}"
        ));
    }
    // Every span nests under `rep`, so the self times account for all of it.
    let (root, accounted) = (report.root_ns() as f64, report.total_self_ns() as f64);
    if (accounted - root).abs() > 0.02 * root {
        problems.push(format!(
            "span self times sum to {accounted} ns of a {root} ns repetition"
        ));
    }
    let path = format!("TRACE_vperf_{}.jsonl", w.name());
    match std::fs::write(&path, report.to_jsonl(w.name())) {
        Ok(()) => notes.push(format!("wrote {path}")),
        Err(e) => problems.push(format!("cannot write {path}: {e}")),
    }

    // The system's own trace is only visible on the traced repetition.
    for (k, v) in &rep.layer {
        if k.starts_with("vtrace.") {
            layer.insert(k, *v);
        }
    }
    let traced_ops_per_s = rep.ok() as f64 / rep.stream_s;
    layer.insert(
        "vtrace.host_overhead_pct",
        (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0,
    );
    layers::fill_vhttp_from_spans(layer, &report);
    let by_layer = report.self_ns_by_layer();
    let root = report.root_ns().max(1) as f64;
    layer.insert(
        "bench.driver_self_pct",
        by_layer.get("bench").copied().unwrap_or(0) as f64 / root * 100.0,
    );
    let mut ranked: Vec<(&str, u64)> = by_layer.into_iter().collect();
    ranked.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    notes.push(format!(
        "traced repetition {:.3} s; span self time by layer called: {}",
        root / 1e9,
        ranked
            .iter()
            .map(|(l, ns)| format!("{l} {:.1}%", *ns as f64 / root * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if w == Which::InvokeModes {
        let (drive_ns, _) = report.total_under("rep", "drive");
        let shares: Vec<String> = workloads::invoke_modes::PATHS
            .iter()
            .map(|p| {
                let (ns, _) = report.total_under("drive", p.run_span);
                format!(
                    "{} {:.1}%",
                    p.name,
                    ns as f64 / drive_ns.max(1) as f64 * 100.0
                )
            })
            .collect();
        notes.push(format!(
            "start paths, share of drive time: {}",
            shares.join(", ")
        ));
    }

    crate::drills::run_all(layer, &w.drill_target(), opts.smoke);
    let top_us_per_op = 1e6 / untraced_ops_per_s;
    notes.extend(w.ladder(opts.seed, size, top_us_per_op, layer));
    let visa_us = layer["visa.insts_per_op"] * layer["visa.bare_host_ns_per_inst"] / 1e3;
    notes.push(format!(
        "interpreter share of host time (insts x bare ns/inst / op cost): {:.1}%",
        visa_us / top_us_per_op * 100.0
    ));
}

fn detail_json(w: Which, opts: &Options, m: &Measured, correct: bool) -> String {
    let list = |vs: &[Value]| {
        vs.iter()
            .map(report::value_json)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let strings = |xs: &[String]| {
        xs.iter()
            .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"size\": \"{}\", \"reps\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": [{}]",
        w.name(),
        opts.seed,
        if opts.smoke { "smoke" } else { "full" },
        m.reps,
        m.attempted,
        m.failed,
        list(&m.end_to_end),
    );
    if let Some(pl) = &m.per_layer {
        let _ = write!(out, ", \"per_layer\": [{}]", list(pl));
    }
    let _ = write!(
        out,
        ", \"notes\": [{}], \"problems\": [{}]}}",
        strings(&m.log.notes),
        strings(&m.log.problems)
    );
    out
}

/// Runs one workload in this process and prints its report; the last line
/// of standard output is the driver's JSON object.
pub fn one_workload(w: Which, opts: &Options) -> bool {
    println!(
        "# vperf workload={} seed={} size={} trace={}",
        w.name(),
        opts.seed,
        if opts.smoke { "smoke" } else { "full" },
        u8::from(opts.trace)
    );
    println!("# machine {}", machine_context());
    let m = measure(w, opts);
    for n in &m.log.notes {
        println!("# {n}");
    }
    for v in m.end_to_end.iter().chain(m.per_layer.iter().flatten()) {
        println!("{}", report::metric_line(v));
    }
    for p in &m.log.problems {
        println!("PROBLEM {p}");
    }
    let correct = m.log.problems.is_empty() && m.failed == 0;
    println!("detail: {}", detail_json(w, opts, &m, correct));
    let line = ResultLine {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        // With tracing on the driver wants the per-layer metrics and only
        // those; the end-to-end numbers of a traced run are not for
        // comparison.
        metrics: m.per_layer.unwrap_or(m.end_to_end),
    };
    println!("{}", line.to_json());
    correct
}

/// One child process per workload, so peak RSS and the interpreter's
/// process-wide counters are per workload.
fn run_children(opts: &Options) -> Vec<(Which, Option<ResultLine>, String)> {
    let exe = std::env::current_exe().expect("own path");
    workloads::ALL
        .iter()
        .map(|&w| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &opts.seed.to_string()]);
            if let Some(n) = opts.reps {
                cmd.args(["--reps", &n.to_string()]);
            }
            if let Some(s) = opts.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if opts.trace {
                cmd.args(["--trace", "1"]);
            }
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .expect("spawn own executable");
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            print!("{text}");
            let line = text.lines().last().and_then(ResultLine::parse);
            let detail = text
                .lines()
                .find_map(|l| l.strip_prefix("detail: "))
                .unwrap_or("null")
                .to_string();
            (w, line.filter(|_| out.status.success()), detail)
        })
        .collect()
}

/// Relative change of `b` against `a` in the direction that is worse.
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let rel = (b - a) / a;
    if m.lower_is_better {
        rel
    } else {
        -rel
    }
}

/// Runs every workload (twice with `--aa`) and writes `BENCH_vperf.json`.
pub fn suite(opts: &Options) -> bool {
    let machine = machine_context();
    let first = run_children(opts);
    let mut ok = first
        .iter()
        .all(|(_, line, _)| line.as_ref().is_some_and(|l| l.correct));
    let mut json = format!("{{\n  \"machine\": {machine},\n  \"runs\": [\n");
    let mut passes = vec![first];
    if opts.aa {
        passes.push(run_children(opts));
    }
    let details: Vec<&str> = passes
        .iter()
        .flatten()
        .map(|(_, _, d)| d.as_str())
        .collect();
    let _ = writeln!(json, "    {}\n  ]\n}}", details.join(",\n    "));
    match std::fs::write("BENCH_vperf.json", json) {
        Ok(()) => println!("# wrote BENCH_vperf.json"),
        Err(e) => {
            println!("PROBLEM cannot write BENCH_vperf.json: {e}");
            ok = false;
        }
    }

    if let [a, b] = &passes[..] {
        // A/A: the same code twice. A host metric that moves by more than
        // its own bound here cannot resolve a regression of that size.
        println!("# A/A: second pass against the first, per metric and workload");
        let metrics = if opts.trace { PER_LAYER } else { END_TO_END };
        for ((w, la, _), (_, lb, _)) in a.iter().zip(b) {
            let (Some(la), Some(lb)) = (la, lb) else {
                ok = false;
                continue;
            };
            ok &= lb.correct;
            for m in metrics.iter().filter(|m| m.bound > 0.0) {
                let (Some(va), Some(vb)) = (la.get(m.name), lb.get(m.name)) else {
                    continue;
                };
                let worse = worse_by(m, va, vb);
                let host = m.name.starts_with("host_") || m.name == "setup_s";
                let pass = if host {
                    worse.abs() <= m.bound
                } else {
                    va == vb
                };
                ok &= pass;
                println!(
                    "aa {:<15} {:<26} {:>16.6} -> {:>16.6}  {:+7.2}% (bound {:.0}%{}) {}",
                    w.name(),
                    m.name,
                    va,
                    vb,
                    worse * 100.0,
                    m.bound * 100.0,
                    if host { "" } else { ", must be equal" },
                    if pass { "ok" } else { "EXCEEDED" }
                );
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Which, seed: u64, trace: bool) -> Measured {
        measure(
            w,
            &Options {
                workload: Some(w),
                seed,
                trace,
                smoke: true,
                ..Options::default()
            },
        )
    }

    #[test]
    fn every_workload_passes_its_own_checks_at_smoke_size() {
        for w in workloads::ALL {
            let m = smoke(w, 1, false);
            assert!(
                m.log.problems.is_empty(),
                "{}: {:?}",
                w.name(),
                m.log.problems
            );
            assert_eq!((m.reps, m.failed), (1, 0), "{}", w.name());
            assert!(m.attempted >= 19, "{}", w.name());
            let names: Vec<&str> = m.end_to_end.iter().map(|v| v.name.as_str()).collect();
            let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared);
            for v in &m.end_to_end {
                assert!(v.value > 0.0, "{} {} is zero", w.name(), v.name);
            }
        }
    }

    #[test]
    fn seeds_change_the_inputs_but_not_the_op_counts() {
        for w in workloads::ALL {
            let (a, b) = (w.rep(1, Size::Smoke, false), w.rep(2, Size::Smoke, false));
            assert_eq!(a.attempted, b.attempted, "{}", w.name());
            assert_ne!(a.fingerprint, b.fingerprint, "{}", w.name());
            let again = w.rep(1, Size::Smoke, false);
            assert_eq!(Virtual::of(&a), Virtual::of(&again), "{}", w.name());
        }
        let (a, b) = (
            workloads::http_serve::stream(1, Size::Smoke),
            workloads::http_serve::stream(2, Size::Smoke),
        );
        assert_ne!(a, b);
        assert_eq!(a.ops(), b.ops());
        let (a, b) = (
            workloads::cluster_fanout::stream(1, Size::Smoke),
            workloads::cluster_fanout::stream(2, Size::Smoke),
        );
        assert_ne!(a, b);
        assert_eq!(a.ops(), b.ops());
    }

    #[test]
    fn a_traced_run_reports_every_declared_layer_metric() {
        let dir = std::env::temp_dir();
        std::env::set_current_dir(&dir).expect("temp dir");
        let m = smoke(Which::HttpServe, 1, true);
        assert!(m.log.problems.is_empty(), "{:?}", m.log.problems);
        let pl = m.per_layer.expect("traced");
        let names: Vec<&str> = pl.iter().map(|v| v.name.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        let get = |n: &str| pl.iter().find(|v| v.name == n).expect("metric").value;
        assert!(get("visa.blocks_built_per_op") > 50.0);
        assert!(get("vtrace.spans_per_op") > 0.0);
        assert!(get("vhttp.offer_host_us") > 0.0);
        assert!(get("kvmsim.restore_full_host_us") > 0.0);
        let trace =
            std::fs::read_to_string(dir.join("TRACE_vperf_http_serve.jsonl")).expect("trace");
        assert!(trace
            .lines()
            .any(|l| l.contains("\"path\":\"rep/drive/vhttp.offer\"")));
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = e2e_metric("setup_s");
        let higher = e2e_metric("host_ops_per_s");
        assert!((worse_by(lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 100.0, 110.0) < 0.0);
    }
}
