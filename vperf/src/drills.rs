//! Drills: timed calls straight into single layers, independent of the
//! workload's own stream, run once per traced run.
//!
//! A drill gives a layer's cost on a fixed small input, so a later change
//! can name the number it expects to move. Those that depend on the shape of
//! a virtine (`kvmsim`'s copies and wipes) are run on the workload's own
//! main virtine: its image, memory size and dirty footprint.

use std::time::Instant;

use crate::layers::{BreakdownSums, Layer};
use crate::stats::median;
use crate::sut::{self, PoolMode, Runtime, Spec};
use crate::workloads::{guest_compute, invoke_modes};

/// What a workload's drills are shaped after.
pub struct Target {
    /// The workload's main virtine: the `kvmsim` drill copies and wipes a VM
    /// of its image and memory size.
    pub spec: Spec,
    /// 4 KiB pages one invocation of it dirties.
    pub dirty_pages: usize,
    /// Rung 0 of the ladder: hypercall-free guest code in the workload's
    /// interpreter regime (long and hot, or short and cold), run on a bare
    /// `visa::Machine`.
    pub bare: Vec<BareKernel>,
}

/// A kernel for the bare machine: image, marshalled arguments, and the `r0`
/// it must halt with.
pub struct BareKernel {
    pub spec: Spec,
    pub args: Vec<u8>,
    pub expect: u64,
}

/// A function that does nothing: what is left is `vlibc`'s boot.
pub const NULL_SRC: &str = "virtine int null_fn(int n) { return n; }";
/// Guest instructions each bare kernel is timed over, at least.
const BARE_MIN_INSTS: u64 = 2_000_000;
const JS_DRILL_BYTES: usize = 1024;
const AES_DRILL_BYTES: usize = 1024;

fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Rung 0 of the ladder: the workload's bare kernels, each on a fresh
/// machine per run (so a short kernel pays its block builds every time, as
/// it does after a restore). Also times the assembler on the `fib` source.
fn visa_drill(layer: &mut Layer, target: &Target, smoke: bool) {
    let (_, assemble_ms) = ms_of(guest_compute::fib_spec);
    layer.insert("visa.assemble_host_ms", assemble_ms);
    let (mut ns, mut insts) = (0u64, 0u64);
    for k in &target.bare {
        let first = sut::run_bare(&k.spec, &k.args);
        assert_eq!(first.r0, k.expect, "bare kernel {}", k.spec.name);
        let runs = if smoke {
            1
        } else {
            BARE_MIN_INSTS.div_ceil(first.insts.max(1))
        };
        for _ in 0..runs {
            let run = sut::run_bare(&k.spec, &k.args);
            ns += run.host_ns;
            insts += run.insts;
        }
    }
    layer.insert("visa.bare_host_ns_per_inst", ns as f64 / insts as f64);
}

fn kvm_drill(layer: &mut Layer, target: &Target, iters: usize) {
    let k = sut::kvm_drill(&target.spec, target.dirty_pages, iters);
    layer.insert("kvmsim.create_vm_host_us", k.create_vm_us);
    layer.insert("kvmsim.clean_host_us", k.clean_us);
    layer.insert("kvmsim.snapshot_host_us", k.snapshot_us);
    layer.insert("kvmsim.restore_full_host_us", k.restore_full_us);
    layer.insert("kvmsim.restore_delta_host_us", k.restore_delta_us);
    layer.insert(
        "kvmsim.snapshot_copied_bytes",
        k.snapshot_copied_bytes as f64,
    );
}

fn host_drill(layer: &mut Layer, iters: usize) {
    let h = sut::host_drill(4096, iters);
    layer.insert("hostsim.send_recv_host_ns", h.send_recv_ns);
    layer.insert("hostsim.fs_read_host_ns", h.fs_read_ns);
}

/// Host microseconds per invocation on each of the four start paths, on the
/// `invoke_modes` function, and the pooled path's virtual provisioning cost
/// against a bare `KVM_RUN` (Figure 8: within 4 %).
fn start_path_drill(layer: &mut Layer, iters: usize) {
    let spec = invoke_modes::touch_spec();
    const NAMES: [&str; 4] = [
        "wasp.create_host_us",
        "wasp.pooled_host_us",
        "wasp.restore_host_us",
        "wasp.warm_host_us",
    ];
    for (path, name) in invoke_modes::PATHS.iter().zip(NAMES) {
        let (rt, id) = path.runtime(&spec);
        let run = |n: i64| {
            let ran = rt.run(id, &sut::marshal(&[n]), Vec::new());
            assert_eq!(ran.ret, n as u64 + 1, "start-path drill");
        };
        (0..4).for_each(run);
        let t = Instant::now();
        (0..iters as i64).for_each(run);
        layer.insert(name, t.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }

    // Figure 8's "shell provisioning": a halting image on the pooled path,
    // the invocation minus its image install.
    let hlt = sut::assemble("hlt", ".org 0x8000\n hlt\n", 64 * 1024, false);
    let rt = Runtime::new(PoolMode::CachedAsync, 0, "wasp.run");
    let id = rt.register(&hlt);
    rt.run(id, &[], Vec::new());
    let b = rt.run(id, &[], Vec::new()).breakdown;
    layer.insert(
        "wasp.vmrun_floor_ratio",
        (b.total.get() - b.image.get()) as f64 / sut::vmrun_floor_cycles() as f64,
    );
}

/// Calls `build` `reps` times: the last result and the median host ms.
fn timed_build(reps: usize, build: impl Fn() -> Spec) -> (Spec, f64) {
    let runs: Vec<(Spec, f64)> = (0..reps.max(1)).map(|_| ms_of(&build)).collect();
    let ms: Vec<f64> = runs.iter().map(|(_, ms)| *ms).collect();
    let (spec, _) = runs.into_iter().next_back().expect("at least one run");
    (spec, median(&ms))
}

/// Evaluates `payload` on a registered virtine until `reps` warm runs are
/// timed (the first two boot and snapshot): median host ms and the virtual
/// cycles of one evaluation.
fn warm_eval(rt: &Runtime, id: sut::Vid, payload: &[u8], expect: &[u8], reps: usize) -> (f64, f64) {
    let mut host_ms = Vec::new();
    let mut sums = BreakdownSums::default();
    for i in 0..reps + 2 {
        let (ran, ms) = ms_of(|| rt.run(id, &[], payload.to_vec()));
        assert_eq!(ran.result, expect, "toolchain drill output");
        if i >= 2 {
            host_ms.push(ms);
            sums.add(&ran.breakdown, ran.hypercalls);
        }
    }
    (median(&host_ms), sums.total as f64 / sums.ops as f64)
}

/// The guest toolchains: compile times, image size, and what one evaluation
/// costs in both clocks.
fn toolchain_drill(layer: &mut Layer, reps: usize) {
    let (null, compile_ms) = timed_build(reps, || sut::compile_c("null", NULL_SRC));
    layer.insert("vcc.compile_host_ms", compile_ms);
    layer.insert("vcc.image_bytes", null.image.bytes.len() as f64);
    // Boot cost of the C runtime: the null function on the pooled path
    // with no snapshot boots `vlibc`'s crt0 and libc init on every call.
    let rt = Runtime::new(PoolMode::CachedAsync, 0, "wasp.run");
    let id = rt.register(&Spec {
        snapshot: false,
        ..null
    });
    rt.run(id, &sut::marshal(&[1]), Vec::new());
    let boot = rt.run(id, &sut::marshal(&[1]), Vec::new());
    layer.insert("vlibc.boot_cycles", boot.breakdown.exec.get() as f64);

    let (js, engine_ms) = timed_build(reps, sut::compile_js_engine);
    layer.insert("vjs.compile_engine_host_ms", engine_ms);
    let rt = Runtime::new(PoolMode::CachedAsync, 8, "wasp.run");
    let (js_id, aes_id) = (rt.register(&js), rt.register(&sut::compile_aes()));

    let data = vec![0x5au8; JS_DRILL_BYTES];
    let (ms, cycles) = warm_eval(&rt, js_id, &data, &sut::js_reference(&data), reps);
    layer.insert("vjs.eval_host_ms", ms);
    layer.insert("vjs.eval_cycles", cycles);

    let (key, iv) = ([0x2b; 16], [0x42; 16]);
    let data = vec![0xa5u8; AES_DRILL_BYTES];
    let payload = sut::aes_payload(&key, &iv, &data);
    let expect = sut::aes_reference(&key, &iv, &data);
    let (ms, cycles) = warm_eval(&rt, aes_id, &payload, &expect, reps);
    let kib = AES_DRILL_BYTES as f64 / 1024.0;
    layer.insert("vaes.cbc_host_us_per_kib", ms * 1e3 / kib);
    layer.insert("vaes.cbc_cycles_per_kib", cycles / kib);
}

/// Runs every drill; `smoke` cuts the iteration counts for debug builds.
pub fn run_all(layer: &mut Layer, target: &Target, smoke: bool) {
    let (reps, iters) = if smoke { (1, 8) } else { (5, 400) };
    visa_drill(layer, target, smoke);
    kvm_drill(layer, target, iters.min(50));
    host_drill(layer, iters * 10);
    start_path_drill(layer, iters);
    toolchain_drill(layer, reps);
}
