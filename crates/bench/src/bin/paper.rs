//! The paper's evaluation, one table per figure.
//!
//! Each figure or table this repo reproduces is one [`Figure`] in
//! [`FIGURES`]: its id, the gist of the paper's claim, its columns, the
//! code that measures its rows, and the [`Check`]s that claim implies. One
//! printer prints every table with its checks' verdicts, and the run
//! writes `BENCH_paper.json` (virtual numbers only, so its baseline gates
//! every value `exact`). The process exits non-zero when a check fails.
//!
//! Each figure has its own default trial count; `--trials N` overrides
//! them all (Figure 15 reads it as a percentage of the full Locust
//! pattern, and Figure 11 scales it down as `n` grows). The checks are
//! written for the default counts: at a handful of trials the one cold
//! call in a series can outweigh the rest. Numbers are cycles or µs of
//! virtual time at 2.69 GHz. `docs/paper.md` is the ledger: each claim in
//! full, its check, and what the simulation does not reproduce.

use bench::json::Obj;
use bench::FIB20_ASM;
use hostsim::HostKernel;
use kvmsim::Hypervisor;
use vclock::stats::{harmonic_mean, mean, min, percentile, Summary};
use vclock::{Clock, Cycles};
use visa::{CpuConfig, Image, Machine};
use wasp::{Invocation, NativeExit, NativeRunner, PoolMode, RunOutcome};
use wasp::{VirtineId, VirtineSpec, Wasp, WaspConfig};

/// A table cell: row label and column name.
type Cell = (&'static str, &'static str);

/// A measured row: its label and one value per column.
type Row = (String, Vec<f64>);

/// What a paper claim implies about its table. Bounds are inclusive.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Down one column, each row's value at most the next's.
    Order(&'static str, &'static [&'static str]),
    /// The first cell over the second, within `[lo, hi]`.
    Ratio(Cell, Cell, f64, f64),
    /// The cell within `[lo, hi]`.
    Band(Cell, f64, f64),
    /// Column `y` against column `x` over every row: the least-squares
    /// line's R² is at least the floor.
    Linear(&'static str, &'static str, f64),
}

use Check::{Band, Linear, Order, Ratio};

/// One figure or table of the paper.
struct Figure {
    id: &'static str,
    claim: &'static str,
    /// Default trial count.
    trials: usize,
    columns: &'static [&'static str],
    /// The rows at a trial count.
    measure: fn(usize) -> Vec<Row>,
    checks: &'static [Check],
}

/// The columns of a summary of cycle samples.
const CYCLES: &[&str] = &["mean", "std", "mean_us", "min"];

const FIGURES: &[Figure] = &[
    Figure {
        id: "Figure 2",
        claim: "context creation: function << vmrun << pthread << KVM create",
        trials: 1000,
        columns: CYCLES,
        measure: fig2,
        checks: &[Order("mean", &["function", "vmrun", "pthread", "KVM"])],
    },
    Figure {
        id: "Figure 3",
        claim: "fib(20) by processor mode (Tukey-filtered): 16-bit cheapest, ~10K cycles to 64",
        trials: 200,
        columns: CYCLES,
        measure: fig3,
        checks: &[Order("mean", &["16-bit", "32-bit", "64-bit"])],
    },
    Figure {
        id: "Figure 4",
        claim: "echo server from launch: main ~10K cycles; reply within 100-500K cycles",
        trials: 500,
        columns: CYCLES,
        measure: fig4,
        checks: &[Band(("main", "mean"), 8_000.0, 12_000.0)],
    },
    Figure {
        id: "Figure 8",
        claim: "creation: Wasp+CA within ~4% of vmrun, below pthread; process, SGX far above",
        trials: 500,
        columns: &["mean", "std", "mean_us", "min", "vs_vmrun_pct"],
        measure: fig8,
        checks: &[
            Ratio(("Wasp+CA shell", "mean"), ("vmrun", "mean"), 1.0, 1.04),
            Order("mean", &["vmrun", "Wasp+CA", "Wasp+C", "pthread"]),
            Order("mean", &["pthread", "process", "SGX create"]),
        ],
    },
    Figure {
        id: "Figure 11",
        claim: "fib(n), µs: snapshot ~2.5x faster than cold at fib(0); ~1.0x slowdown by n=25",
        trials: 50,
        columns: &["trials", "native", "virtine", "snap", "slow", "slow_snap"],
        measure: fig11,
        checks: &[Band(("fib(25)", "slow"), 0.95, 1.05)],
    },
    Figure {
        id: "Figure 12",
        claim: "start-up linear in image size at memcpy bandwidth (6.7 GB/s, ~2.3ms at 16MB)",
        trials: 20,
        columns: &["size_kb", "latency_us", "std_us", "mbps"],
        measure: fig12,
        checks: &[
            Linear("size_kb", "latency_us", 0.999),
            Band(("16384 KB", "mbps"), 6_000.0, 7_000.0),
        ],
    },
    Figure {
        id: "Figure 13",
        claim: "HTTP server: snapshots cost ~12% of native throughput; 7 hypercalls/request",
        trials: 200,
        columns: &["latency_us", "std_us", "rps", "hc_per_req", "drop_pct"],
        measure: fig13,
        checks: &[
            Order("rps", &["Virtine", "VirtineSnapshot", "Native"]),
            Band(("Virtine", "hc_per_req"), 7.0, 7.0),
        ],
    },
    Figure {
        id: "Figure 14",
        claim: "JS (base64): virtine 1.5-2x native; snapshot+NT below native (137 vs 419µs)",
        trials: 20,
        columns: &["mean_us", "slowdown"],
        measure: fig14,
        checks: &[Order(
            "mean_us",
            &["virtine+snapshot+NT", "native", "virtine"],
        )],
    },
    Figure {
        id: "Figure 15",
        claim: "Locust bursts, 8 workers: Vespid stays low; OpenWhisk containers fall behind",
        trials: 25,
        columns: &["span_s", "requests", "rps", "p50_ms", "p95_ms", "p99_ms"],
        measure: fig15,
        checks: &[Ratio(
            ("vespid", "p99_ms"),
            ("openwhisk", "p50_ms"),
            0.0,
            1.0,
        )],
    },
    Figure {
        id: "Table 1",
        claim: "boot breakdown, min cycles: ident map 28109 >> lgdt16 4118 > CR0.PE 3217 > ...",
        trials: 100,
        columns: &["min", "paper"],
        measure: table1,
        checks: &[
            Order("min", &["first inst", "ljmp32", "ljmp64", "lgdt32"]),
            Order("min", &["lgdt32", "CR0.PE", "lgdt16", "ident map"]),
            Ratio(("total", "min"), ("total", "paper"), 0.95, 1.05),
        ],
    },
    Figure {
        id: "Table 2",
        claim: "boundary crossing, µs: virtine ~5, between LwC (2.01) and Wedge (60)",
        trials: 200,
        columns: &["mean_us", "std_us", "min_us"],
        measure: table2,
        checks: &[Order("mean_us", &["LwC", "virtine", "Wedge"])],
    },
    Figure {
        id: "unikernel study",
        claim: "no-op boot: tens of µs cold, ~µs from snapshot, below Unikraft's 10s of µs",
        trials: 100,
        columns: &["latency_us"],
        measure: unikernel,
        checks: &[
            Band(("cold boot", "latency_us"), 10.0, 100.0),
            Band(("snapshot", "latency_us"), 0.0, 10.0),
        ],
    },
    Figure {
        id: "AES study",
        claim: "AES-128-CBC per-call virtine: slowdown shrinks as the block grows",
        trials: 5,
        columns: &["native_mbps", "virtine_mbps", "slowdown"],
        measure: aes,
        checks: &[
            Order("slowdown", &["16384 B", "4096 B", "1024 B"]),
            Order("slowdown", &["1024 B", "256 B", "64 B", "16 B"]),
        ],
    },
];

/// A figure's measured rows. The artifact and the checks read the exact
/// values; the printed table shows them to two decimals.
struct Table {
    fig: &'static Figure,
    rows: Vec<Row>,
}

impl Table {
    /// Column `col` of every row.
    fn values(&self, col: &str) -> Vec<f64> {
        let i = self.fig.columns.iter().position(|&c| c == col);
        let i = i.unwrap_or_else(|| panic!("{}: no column {col}", self.fig.id));
        self.rows.iter().map(|r| r.1[i]).collect()
    }

    fn cell(&self, (row, col): Cell) -> f64 {
        let i = self.rows.iter().position(|r| r.0 == row);
        self.values(col)[i.unwrap_or_else(|| panic!("{}: no row {row}", self.fig.id))]
    }

    /// Prints the table under its claim, then each check's verdict.
    /// Returns how many checks failed.
    fn print(&self) -> usize {
        bench::header(self.fig.id, self.fig.claim);
        let head = self.fig.columns.iter().map(|c| format!("{c:>13}"));
        println!("{:20}{}", "", head.collect::<String>());
        for (label, values) in &self.rows {
            let two = |v: &f64| format!("{:>13}", format!("{v:.2}").trim_end_matches(".00"));
            println!("{label:20}{}", values.iter().map(two).collect::<String>());
        }
        let mut failed = 0;
        for check in self.fig.checks {
            let holds = check.holds(self);
            println!("# {} {check:?}", if holds { "holds: " } else { "FAILED:" });
            failed += usize::from(!holds);
        }
        println!();
        failed
    }
}

impl Check {
    /// Whether the claim holds on `t`.
    fn holds(self, t: &Table) -> bool {
        let within = |v: f64, lo: f64, hi: f64| (lo..=hi).contains(&v);
        match self {
            Order(col, rows) => rows
                .windows(2)
                .all(|w| t.cell((w[0], col)) <= t.cell((w[1], col))),
            Ratio(a, b, lo, hi) => within(t.cell(a) / t.cell(b), lo, hi),
            Band(a, lo, hi) => within(t.cell(a), lo, hi),
            Linear(x, y, floor) => r_squared(&t.values(x), &t.values(y)) >= floor,
        }
    }
}

/// R² of the least-squares line through the points `(x, y)`.
fn r_squared(x: &[f64], y: &[f64]) -> f64 {
    let (mx, my) = (mean(x), mean(y));
    let dot = |a: &[f64], ma: f64, b: &[f64], mb: f64| -> f64 {
        a.iter().zip(b).map(|(a, b)| (a - ma) * (b - mb)).sum()
    };
    dot(x, mx, y, my).powi(2) / (dot(x, mx, x, mx) * dot(y, my, y, my))
}

fn main() {
    let (mut heads, mut json, mut failed) = (Vec::new(), Vec::new(), 0);
    for fig in FIGURES {
        let rows = (fig.measure)(bench::trials(fig.trials));
        let table = Table { fig, rows };
        failed += table.print();
        let columns = fig.columns.iter().map(|c| format!("{c:?}"));
        heads.push(Obj::new().str("id", fig.id).list("columns", columns));
        for (label, values) in &table.rows {
            let row = Obj::new().str("table", fig.id).str("label", label);
            json.push(row.list("values", values));
        }
    }
    bench::write_json("paper", Obj::new().rows("tables", heads).rows("rows", json));
    if failed > 0 {
        eprintln!("{failed} paper claim checks failed");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Shared measurement: KVM, the host, one Wasp

/// `[mean, std, mean in µs, min]` of cycle samples.
fn cycles(s: Summary) -> Vec<f64> {
    vec![s.mean, s.std_dev, Cycles(s.mean as u64).as_micros(), s.min]
}

/// Labelled cycle samples as [`CYCLES`] rows.
fn cycle_rows<const N: usize>(series: [(&str, Vec<f64>); N]) -> Vec<Row> {
    series
        .map(|(label, xs)| (label.to_string(), cycles(Summary::of(&xs))))
        .into()
}

/// `trials` KVM creates (create, load `img`, enter, `hlt`), then `trials`
/// bare `KVM_RUN`s on one reused context with `img` re-loaded, in cycles.
fn kvm(img: &Image, trials: usize) -> [Vec<f64>; 2] {
    let clock = Clock::new();
    let hv = Hypervisor::kvm(HostKernel::new(clock.clone(), None));
    let create = sample(trials, || {
        let t0 = clock.now();
        let vm = hv.create_vm(64 * 1024, 0x8000);
        vm.load_image(img);
        vm.vcpu().run(100).expect("run");
        (clock.now() - t0).get() as f64
    });
    let vm = hv.create_vm(64 * 1024, 0x8000);
    let vmrun = sample(trials, || {
        vm.load_image(img);
        let vcpu = vm.vcpu();
        clock.time(|| vcpu.run(100).expect("run")).1.get() as f64
    });
    [create, vmrun]
}

/// `trials` timings of `op` on one host kernel, in cycles.
fn host(trials: usize, op: impl Fn(&HostKernel)) -> Vec<f64> {
    let clock = Clock::new();
    let kernel = HostKernel::new(clock.clone(), None);
    sample(trials, || clock.time(|| op(&kernel)).1.get() as f64)
}

/// `n` readings of `f`.
fn sample(n: usize, f: impl FnMut() -> f64) -> Vec<f64> {
    std::iter::repeat_with(f).take(n).collect()
}

/// A Wasp under `config` on a fresh clock, holding `spec`.
fn wasp(config: WaspConfig, spec: VirtineSpec) -> (Wasp, VirtineId) {
    let w = Wasp::new(Hypervisor::kvm(HostKernel::new(Clock::new(), None)), config);
    let id = w.register(spec).expect("register");
    (w, id)
}

/// [`WaspConfig::default`] with another pool mode or no snapshots.
fn config(pool_mode: PoolMode, disable_snapshots: bool) -> WaspConfig {
    WaspConfig {
        pool_mode,
        disable_snapshots,
        ..WaspConfig::default()
    }
}

/// One invocation with integer `args`, which must end normally.
fn call(w: &Wasp, id: VirtineId, args: &[i64]) -> RunOutcome {
    let out = vcc::invoke(w, id, args).expect("run");
    assert!(out.exit.is_normal(), "{args:?}: {:?}", out.exit);
    out
}

/// End-to-end µs of one invocation.
fn us(out: RunOutcome) -> f64 {
    out.breakdown.total.as_micros()
}

/// A `hlt` image zero-padded to `size` bytes in `mem` bytes of memory,
/// default-deny and with no snapshot.
fn hlt_spec(size: usize, mem: usize) -> VirtineSpec {
    let mut img = visa::assemble(".org 0x8000\n hlt\n").expect("image");
    img.pad_to(size);
    VirtineSpec::new("hlt", img, mem).with_snapshot(false)
}

/// The one plain `virtine` function `name` of `src`: default-deny, with
/// a snapshot after boot.
fn compile(src: &str, name: &str) -> VirtineSpec {
    let unit = vcc::compile(src).expect("compile");
    let v = unit.virtine(name).expect("virtine");
    VirtineSpec::new(name, v.image.clone(), v.mem_size)
}

/// The recursive Fibonacci of Figure 11 and Table 2.
const FIB_C: &str = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";

// ---------------------------------------------------------------------------
// The figures

fn fig2(trials: usize) -> Vec<Row> {
    let img = visa::assemble(".org 0x8000\n hlt\n hlt\n hlt\n").expect("image");
    let [kvm, vmrun] = kvm(&img, trials);
    cycle_rows([
        ("KVM", kvm),
        ("vmrun", vmrun),
        ("pthread", host(trials, HostKernel::pthread_create_join)),
        ("function", host(trials, HostKernel::function_call)),
    ])
}

/// Where the boot images load, and the MSR their long-mode entry writes.
const ORG: &str = ".org 0x8000\n.equ EFER, 0xC0000080\n";

/// Real mode to 32-bit protected mode: GDT, CR0.PE, far jump.
const PROTECTED: &str = "
  lgdt gdt
  mov r0, 1
  mov cr0, r0
  ljmp32 prot
prot:
";

/// An identity map of the first GiB in 2 MB pages, then PAE, EFER.LME
/// and CR0.PG.
const PAGING: &str = "
  mov r1, 0x1000
  mov r2, 0x2003
  store.q [r1], r2
  mov r1, 0x2000
  mov r2, 0x3003
  store.q [r1], r2
  mov r3, 0
  mov r4, 0x83
  mov r5, 0x3000
ptloop:
  store.q [r5], r4
  add r5, 8
  add r4, 0x200000
  add r3, 1
  cmp r3, 512
  jl ptloop
  mov r7, 0x1000
  mov cr3, r7
  mov r7, 0x20
  mov cr4, r7
  mov r7, 0x100
  wrmsr EFER, r7
  mov r7, 0x80000001
  mov cr0, r7
";

fn fig3(trials: usize) -> Vec<Row> {
    let long = format!("{PROTECTED}{PAGING}  ljmp64 longm\nlongm:\n  mov sp, 0x200000\n");
    let modes = [
        (16, format!("  mov sp, 0x7000\n{FIB20_ASM}")),
        (
            32,
            format!("{PROTECTED}  mov sp, 0x100000\n{FIB20_ASM}gdt: .dq 0\n"),
        ),
        (64, format!("{long}{FIB20_ASM}gdt: .dq 0\n")),
    ];
    let rows = modes.map(|(mode, src)| {
        let img = visa::assemble(&format!("{ORG}{src}")).expect("image");
        let spec = VirtineSpec::new(format!("fib{mode}"), img, 4 << 20);
        let (w, id) = wasp(WaspConfig::default(), spec.with_snapshot(false));
        let xs = sample(trials, || {
            let out = call(&w, id, &[]);
            assert_eq!(out.ret, 6765, "fib(20) in {mode}-bit mode");
            out.breakdown.total.get() as f64
        });
        (format!("{mode}-bit"), cycles(Summary::of_tukey(&xs)))
    });
    rows.into()
}

fn fig4(trials: usize) -> Vec<Row> {
    let runs = vhttp::echo::run_echo_server(trials, Some(42));
    let at = |f: fn(&vhttp::echo::EchoMilestones) -> Cycles| {
        runs.iter().map(|m| f(m).get() as f64).collect()
    };
    cycle_rows([
        ("main", at(|m| m.to_main)),
        ("recv", at(|m| m.to_recv)),
        ("send", at(|m| m.to_send)),
        ("client", at(|m| m.total)),
    ])
}

fn fig8(trials: usize) -> Vec<Row> {
    // §2: "virtine images are typically small (~16KB)", so Wasp+C's
    // synchronous clean shows and Wasp+CA hides it in the background.
    let spec = || hlt_spec(16 * 1024, 64 * 1024);
    let [kvm, vmrun] = kvm(&spec().image, trials);
    // Each Wasp row is a warm pool's steady state: one untimed call first.
    let wasp = |pool_mode, of: fn(wasp::Breakdown) -> Cycles| {
        let (w, id) = wasp(config(pool_mode, false), spec());
        call(&w, id, &[]);
        sample(trials, || of(call(&w, id, &[]).breakdown).get() as f64)
    };
    // §5.2's "cost of provisioning a virtine shell": the invocation minus
    // its per-request image install.
    let shell = |b: wasp::Breakdown| b.total - b.image;
    let sgx_create = host(trials.min(20), HostKernel::sgx_create_enclave);
    let floor = mean(&vmrun);
    let mut rows = cycle_rows([
        ("process", host(trials, HostKernel::process_spawn)),
        ("pthread", host(trials, HostKernel::pthread_create_join)),
        ("KVM create", kvm),
        ("Wasp", wasp(PoolMode::Disabled, |b| b.total)),
        ("Wasp+C", wasp(PoolMode::Cached, |b| b.total)),
        ("Wasp+CA", wasp(PoolMode::CachedAsync, |b| b.total)),
        ("Wasp+CA shell", wasp(PoolMode::CachedAsync, shell)),
        ("vmrun", vmrun),
        ("SGX ECALL", host(trials, HostKernel::sgx_ecall)),
        ("SGX create", sgx_create),
    ]);
    for (_, v) in &mut rows {
        v.push((v[0] / floor - 1.0) * 100.0);
    }
    rows
}

fn fig11(base_trials: usize) -> Vec<Row> {
    let fib = compile(FIB_C, "fib");
    let rows = [0i64, 5, 10, 15, 20, 25].map(|n| {
        // Recursion cost explodes with n; scale trials down.
        let trials = match n {
            0..=10 => base_trials,
            11..=20 => (base_trials / 5).max(3),
            _ => 3,
        };
        let (img, args) = (&fib.image, vcc::marshal_args(&[n]));
        let native = host(trials, |k| {
            let native = NativeRunner::new(k.clone());
            let out = native.run(img, img.entry, &args, Invocation::default(), fib.mem_size);
            let returned = matches!(out.exit, NativeExit::Returned(_) | NativeExit::Exited(_));
            assert!(returned, "native fib({n}): {:?}", out.exit);
        });
        let native: Vec<f64> = native
            .iter()
            .map(|&c| Cycles(c as u64).as_micros())
            .collect();
        let virtine = |disable_snapshots| {
            let config = config(PoolMode::CachedAsync, disable_snapshots);
            let (w, id) = wasp(config, fib.clone());
            mean(&sample(trials, || us(call(&w, id, &[n]))))
        };
        let (nm, vm, sm) = (mean(&native), virtine(true), virtine(false));
        let row = vec![trials as f64, nm, vm, sm, vm / nm, sm / nm];
        (format!("fib({n})"), row)
    });
    rows.into()
}

fn fig12(trials: usize) -> Vec<Row> {
    let sizes = (0..=10).map(|i| (16 * 1024) << i);
    let rows = sizes.map(|size: usize| {
        let mem = (size + 0x8000 + 4096).next_power_of_two().max(64 * 1024);
        let (w, id) = wasp(WaspConfig::default(), hlt_spec(size, mem));
        call(&w, id, &[]);
        let s = Summary::of(&sample(trials, || us(call(&w, id, &[]))));
        let mbps = (size as f64 / (1024.0 * 1024.0)) / (s.mean / 1e6);
        let kb = size / 1024;
        (format!("{kb} KB"), vec![kb as f64, s.mean, s.std_dev, mbps])
    });
    rows.collect()
}

fn fig13(trials: usize) -> Vec<Row> {
    use vhttp::server::ServerMode::{Native, Virtine, VirtineSnapshot};
    let mut native = None;
    let rows = [Native, Virtine, VirtineSnapshot].map(|mode| {
        let run = vhttp::server::run_server(mode, trials, 4096, Some(13));
        let us: Vec<f64> = run.latencies.iter().map(|c| c.as_micros()).collect();
        let s = Summary::of(&us);
        // The paper aggregates throughput as the harmonic mean of
        // per-request rates.
        let rps = harmonic_mean(&us.iter().map(|l| 1e6 / l).collect::<Vec<_>>());
        let drop = (1.0 - rps / *native.get_or_insert(rps)) * 100.0;
        let hc = run.interactions_per_request;
        (format!("{mode:?}"), vec![s.mean, s.std_dev, rps, hc, drop])
    });
    rows.into()
}

fn fig14(trials: usize) -> Vec<Row> {
    let bars = vjs::study::run_js_study(trials, 4096).into_iter();
    bars.map(|b| (b.name.to_string(), vec![b.micros, b.slowdown]))
        .collect()
}

/// Each platform over the whole run, then in 2 s windows: completions
/// by finish time, latency percentiles by arrival time.
fn fig15(trials: usize) -> Vec<Row> {
    use vespid::{load, simulate, OpenWhiskModel, VespidPlatform};
    // A percentage of the full Locust pattern (~4600 requests), each of
    // which Vespid executes for real.
    let arrivals = load::pattern_arrivals(&load::locust_pattern(), trials as f64 / 100.0);
    let mut vespid = VespidPlatform::new(4096).expect("vespid engine");
    let vespid = simulate(&mut vespid, &arrivals, 8);
    let openwhisk = simulate(&mut OpenWhiskModel::default_vanilla(), &arrivals, 8);
    let mut rows = Vec::new();
    for run in [vespid, openwhisk] {
        let all = run.completed.len() as f64;
        let series = run.throughput_series(2.0).into_iter();
        let windows = series.map(|(t, rps)| (format!("{} {t}s", run.platform), t, 2.0, rps * 2.0));
        let whole = (run.platform.to_string(), 0.0, run.makespan(), all);
        for (label, from, span, done) in std::iter::once(whole).chain(windows) {
            let window = from..from + span;
            let arrived = run.completed.iter().filter(|c| window.contains(&c.arrival));
            let lat: Vec<f64> = arrived.map(|c| c.latency).collect();
            let p = |p| lat.first().map_or(0.0, |_| percentile(&lat, p) * 1e3);
            let row = vec![span, done, done / span, p(50.0), p(95.0), p(99.0)];
            rows.push((label, row));
        }
    }
    rows
}

/// Table 1's components between consecutive marks, with the paper's cycles.
const TABLE1: [(&str, f64); 7] = [
    ("first inst", 74.0),
    ("lgdt16", 4118.0),
    ("CR0.PE", 3217.0),
    ("ljmp32", 175.0),
    ("lgdt32", 681.0),
    ("ident map", 28109.0),
    ("ljmp64", 190.0),
];

fn table1(trials: usize) -> Vec<Row> {
    // Figure 3's long-mode boot plus a 32-bit GDT reload, with a zero-cost
    // mark after every component.
    let boot = format!(
        "{ORG}
  mark 0
  lgdt gdt
  mark 1
  mov r0, 1
  mov cr0, r0
  mark 2
  ljmp32 prot
prot:
  mark 3
  lgdt gdt
  mark 4
{PAGING}
  mark 5
  ljmp64 longm
longm:
  mark 6
  hlt
gdt: .dq 0
"
    );
    let img = visa::assemble(&boot).expect("boot");
    let mut laps = vec![Vec::new(); TABLE1.len()];
    for _ in 0..trials {
        let clock = Clock::new();
        let mut m = Machine::new(clock.clone(), CpuConfig::default(), 4 << 20, img.entry);
        m.load_image(&img);
        // Model VM entry so the first-instruction charge applies.
        m.cpu.note_vmentry();
        let mut at = clock.now();
        m.run(100_000).expect("boot runs");
        for (lap, &(_, t)) in laps.iter_mut().zip(&m.cpu.marks) {
            lap.push((t - at).get() as f64);
            at = t;
        }
    }
    let row = |(&(component, paper), xs): (&(&str, f64), Vec<f64>)| {
        (component.to_string(), vec![min(&xs), paper])
    };
    let mut rows: Vec<Row> = TABLE1.iter().zip(laps).map(row).collect();
    let total = |i: usize| rows.iter().map(|r| r.1[i]).sum();
    rows.push(("total".into(), vec![total(0), total(1)]));
    rows
}

fn table2(trials: usize) -> Vec<Row> {
    // Around KVM_RUN, as the paper measures it, on a snapshotted fib(0)
    // whose untimed first call takes the snapshot.
    let (w, id) = wasp(WaspConfig::default(), compile(FIB_C, "fib"));
    call(&w, id, &[0]);
    let s = Summary::of(&sample(trials, || us(call(&w, id, &[0]))));
    // The other systems are the paper's single numbers.
    let quoted = [
        ("Wedge", 60.0),
        ("LwC", 2.01),
        ("Enclosures", 0.9),
        ("SeCage", 0.5),
        ("Hodor", 0.1),
    ];
    let quoted = quoted.map(|(system, us)| (system.to_string(), vec![us, 0.0, us]));
    let mut rows = vec![("virtine".to_string(), vec![s.mean, s.std_dev, s.min])];
    rows.extend(quoted);
    rows
}

fn unikernel(trials: usize) -> Vec<Row> {
    let nop = compile("virtine int nop(int x) { return x; }", "nop");
    // A cold boot drops the snapshot before every call.
    let (w, id) = wasp(WaspConfig::default(), nop.clone());
    let cold = sample(trials, || {
        w.invalidate_snapshot(id);
        us(call(&w, id, &[0]))
    });
    // A snapshot boot takes it on an untimed first call.
    let (w, id) = wasp(WaspConfig::default(), nop);
    call(&w, id, &[0]);
    let warm = sample(trials, || us(call(&w, id, &[0])));
    let rows = [("cold boot", cold), ("snapshot", warm)];
    rows.map(|(boot, xs)| (boot.to_string(), vec![mean(&xs)]))
        .into()
}

fn aes(trials: usize) -> Vec<Row> {
    let speed = vaes::run_speed(&[16, 64, 256, 1024, 4096, 16 * 1024], trials);
    let row = |r: vaes::SpeedRow| vec![r.native_mbps, r.virtine_mbps, r.slowdown];
    speed
        .into_iter()
        .map(|r| (format!("{} B", r.block_size), row(r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: Figure = Figure {
        id: "synthetic",
        claim: "none",
        trials: 1,
        columns: &["x", "y"],
        measure: |_| Vec::new(),
        checks: &[],
    };

    /// Whether `check` holds on `y` against `x = 0, 1, 2, …`, in rows
    /// `r0, r1, …`.
    fn holds(check: Check, y: &[f64]) -> bool {
        let rows = (0..)
            .zip(y)
            .map(|(i, &y)| (format!("r{i}"), vec![i as f64, y]));
        let table = Table {
            fig: &FIG,
            rows: rows.collect(),
        };
        check.holds(&table)
    }

    const EPS: f64 = 1e-9;

    #[test]
    fn an_ordering_fails_once_two_rows_swap() {
        let c = Order("y", &["r0", "r1", "r2"]);
        assert!(holds(c, &[1.0, 2.0, 3.0]));
        assert!(holds(c, &[1.0, 2.0, 2.0]));
        assert!(!holds(c, &[1.0, 2.0, 2.0 - EPS]));
        assert!(!holds(c, &[2.0, 1.0, 3.0]));
    }

    #[test]
    fn a_ratio_band_fails_just_past_either_bound() {
        let c = Ratio(("r1", "y"), ("r0", "y"), 1.0, 1.04);
        assert!(holds(c, &[100.0, 100.0]));
        assert!(holds(c, &[100.0, 103.9]));
        assert!(!holds(c, &[100.0, 104.0 + EPS]));
        assert!(!holds(c, &[100.0, 100.0 - EPS]));
    }

    #[test]
    fn a_value_band_fails_just_past_either_bound() {
        let c = Band(("r0", "y"), 8.0, 12.0);
        assert!(holds(c, &[8.0]) && holds(c, &[12.0]));
        assert!(!holds(c, &[8.0 - EPS]));
        assert!(!holds(c, &[12.0 + EPS]));
    }

    #[test]
    fn a_linear_fit_fails_just_under_its_r_squared_floor() {
        // y = 2x + 1 with the middle point lifted by d: R² = 1 / (1 + d²/12).
        let y = |d: f64| [1.0, 3.0 + d, 5.0];
        let floor = r_squared(&[0.0, 1.0, 2.0], &y(0.1));
        assert!((floor - 1.0 / (1.0 + 0.01 / 12.0)).abs() < 1e-12);
        let c = Linear("x", "y", floor);
        assert!(holds(c, &y(0.0)));
        assert!(holds(c, &y(0.1)));
        assert!(!holds(c, &y(0.1 + 1e-6)));
    }

    #[test]
    fn every_check_names_a_column_of_its_figure() {
        for f in FIGURES {
            for check in f.checks {
                let cols = match *check {
                    Order(col, _) => vec![col],
                    Ratio(a, b, ..) => vec![a.1, b.1],
                    Band(a, ..) => vec![a.1],
                    Linear(x, y, _) => vec![x, y],
                };
                let named = cols.iter().all(|c| f.columns.contains(c));
                assert!(named, "{}: {check:?}", f.id);
            }
        }
    }
}
