//! Soak gate for the edge tier's memory bound: a long-lived `Ingress`
//! whose caller drains `take_completions` must hold host memory for the
//! requests in flight, not for the run's history (ROADMAP: "serving
//! tiers hold O(in-flight) state").
//!
//! Offers N requests (default 3 000 000) for one tiny guest to a 3-node ×
//! 2-shard ingress at a fixed virtual rate, draining every 1 000 offers,
//! and compares two marks — 10 % and 100 % of the run. Exits non-zero when
//! peak RSS (`VmHWM`) grew by more than 10 % between them, when the
//! live-record high-water moved, or when anything was lost or duplicated.
//!
//! ```sh
//! cargo run --release --example edge_soak            # ~15 s
//! cargo run --release --example edge_soak -- 300000
//! ```

use virtines::vhttp::ingress::Ingress;
use virtines::vsched::TenantProfile;
use virtines::wasp::{HypercallMask, VirtineSpec};

const RATE_RPS: f64 = 100_000.0;
const DRAIN_EVERY: u64 = 1_000;

/// This process's peak resident set so far, in KiB (Linux).
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kib = line.and_then(|v| v.trim().strip_suffix("kB"));
    kib.and_then(|v| v.trim().parse().ok()).expect("VmHWM line")
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .map_or(3_000_000, |a| a.parse().expect("offer count"));
    assert!(n >= 10, "need at least ten offers to place the 10 % mark");

    let mut ing = Ingress::new(3, 2);
    let image = virtines::visa::assemble(".org 0x8000\n mov r0, 7\n hlt\n").expect("assemble");
    let tiny = ing.register(VirtineSpec::new("tiny", image, 64 * 1024).with_snapshot(false));
    let tenant = ing.add_tenant(
        TenantProfile::new("soak").with_mask(HypercallMask::ALLOW_ALL),
        f64::INFINITY,
        f64::INFINITY,
    );

    let (mut live_hw, mut completed) = (0, 0);
    let mut early = None;
    for i in 0..n {
        let at_s = i as f64 / RATE_RPS;
        ing.offer(tenant, i, tiny, b"", at_s).expect("unlimited");
        live_hw = live_hw.max(ing.live_requests());
        if (i + 1) % DRAIN_EVERY == 0 {
            completed += ing.take_completions().len() as u64;
        }
        if i + 1 == n / 10 {
            early = Some((live_hw, vm_hwm_kib()));
        }
    }
    let run = ing.finish();
    completed += run.completions.len() as u64;
    let (early_live, early_kib) = early.expect("passed the 10 % mark");
    let late_kib = vm_hwm_kib();

    let mib = |kib: u64| kib as f64 / 1024.0;
    println!("edge_soak: {n} offers at {RATE_RPS} req/s, drained every {DRAIN_EVERY}");
    println!(
        "   10 %: live-record high-water {early_live:>4}   VmHWM {:>7.1} MiB",
        mib(early_kib)
    );
    println!(
        "  100 %: live-record high-water {live_hw:>4}   VmHWM {:>7.1} MiB",
        mib(late_kib)
    );
    println!(
        "  completed {completed}, lost {}, duplicates {}",
        run.lost, run.stats.duplicates
    );

    let mut failures = Vec::new();
    if late_kib * 10 > early_kib * 11 {
        failures.push("VmHWM grew by more than 10 % after the 10 % mark");
    }
    if live_hw != early_live {
        failures.push("the live-record high-water moved after the 10 % mark");
    }
    if completed != n || run.lost != 0 || run.stats.duplicates != 0 {
        failures.push("requests were lost or completed twice");
    }
    for f in &failures {
        eprintln!("edge_soak FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("edge_soak ok");
}
