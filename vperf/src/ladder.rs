//! The layer ladder: one op stream replayed against each public tier that
//! can run it, so the difference between adjacent rungs is the upper
//! layer's own host cost.
//!
//! ```text
//! visa::Machine  →  wasp::Wasp::run  →  vsched::Dispatcher  →  DispatchedServer / Ingress
//!   (drills.rs)       on_wasp             on_dispatcher          the workload's own repetition
//! ```
//!
//! `http_serve` has its own rungs (its ops are connections, not argument
//! buffers); every other workload's ops are "run virtine k with these bytes"
//! and go through the two functions here.

use std::time::Instant;

use crate::layers::{self, BreakdownSums, Layer};
use crate::sut::{self, Done, Spec, TierStats};

/// One invocation of the stream: which registered virtine, and its inputs.
#[derive(Debug, Clone)]
pub struct Op {
    pub virtine: usize,
    pub args: Vec<u8>,
    pub payload: Vec<u8>,
}

/// The stream on one embedded runtime, one caller, warm path.
pub struct WaspRung {
    pub host_s: f64,
    pub sums: BreakdownSums,
    pub all_normal: bool,
    /// `return_data` bytes of every op, in stream order.
    pub results: Vec<Vec<u8>>,
}

pub fn on_wasp(specs: &[Spec], ops: &[Op]) -> WaspRung {
    let rt = sut::Runtime::new(sut::PoolMode::CachedAsync, 8, "wasp.run");
    let ids: Vec<_> = specs.iter().map(|s| rt.register(s)).collect();
    for (i, &id) in ids.iter().enumerate() {
        // First run takes the snapshot; keep it out of the timed stream.
        if let Some(op) = ops.iter().find(|o| o.virtine == i) {
            rt.run(id, &op.args, op.payload.clone());
        }
    }
    let mut sums = BreakdownSums::default();
    let mut all_normal = true;
    let mut results = Vec::with_capacity(ops.len());
    let t = Instant::now();
    for op in ops {
        let ran = rt.run(ids[op.virtine], &op.args, op.payload.clone());
        all_normal &= ran.normal;
        sums.add(&ran.breakdown, ran.hypercalls);
        results.push(ran.result);
    }
    WaspRung {
        host_s: t.elapsed().as_secs_f64(),
        sums,
        all_normal,
        results,
    }
}

/// The stream through a bare dispatcher.
pub struct DispatcherRung {
    pub host_s: f64,
    pub done: Vec<Done>,
    pub tier: TierStats,
    pub admitted: u64,
    /// The system's trace dump and the host seconds it took, when traced.
    pub dump: String,
    pub dump_s: f64,
}

pub fn on_dispatcher(
    specs: &[Spec],
    ops: &[Op],
    arrivals: &[f64],
    shards: usize,
    tenants: usize,
    trace: bool,
) -> DispatcherRung {
    assert_eq!(ops.len(), arrivals.len());
    let mut d = sut::Dispatch::new(shards);
    let ids: Vec<_> = specs.iter().map(|s| d.register(s)).collect();
    let tenants: Vec<_> = (0..tenants)
        .map(|i| d.add_tenant(&format!("t{i}")))
        .collect();
    if trace {
        d.enable_tracing(crate::workloads::TRACE_CAPACITY);
    }
    let t = Instant::now();
    let mut admitted = 0;
    for (i, (op, &at)) in ops.iter().zip(arrivals).enumerate() {
        admitted += u64::from(d.submit(
            tenants[i % tenants.len()],
            ids[op.virtine],
            op.args.clone(),
            op.payload.clone(),
            at,
        ));
    }
    let mut done = d.finish();
    let host_s = t.elapsed().as_secs_f64();
    done.sort_by_key(|d| d.seq);
    let t = Instant::now();
    let dump = if trace {
        d.trace_dump(crate::workloads::TRACE_CAPACITY)
    } else {
        String::new()
    };
    let dump_s = t.elapsed().as_secs_f64();
    DispatcherRung {
        host_s,
        done,
        tier: d.tier(),
        admitted,
        dump,
        dump_s,
    }
}

/// Host microseconds per op.
pub fn us_per_op(host_s: f64, ops: u64) -> f64 {
    host_s * 1e6 / ops.max(1) as f64
}

/// The upper rungs for a closed-loop workload, whose own tier is `wasp`: a
/// sample of its ops through a bare dispatcher (untraced, then traced with
/// the system's `vtrace` on), and a smoke-sized `http_serve` for the `vhttp`
/// timings — so the layers the workload bypasses still have their cost on
/// record beside it. Counts stay those of the workload itself.
pub fn closed_loop_upper_rungs(
    specs: &[Spec],
    sample: &[Op],
    spacing_s: f64,
    layer: &mut Layer,
) -> Vec<String> {
    let arrivals: Vec<f64> = (0..sample.len())
        .map(|i| (i + 1) as f64 * spacing_s)
        .collect();
    let wasp = on_wasp(specs, sample);
    let plain = on_dispatcher(specs, sample, &arrivals, 1, 1, false);
    let traced = on_dispatcher(specs, sample, &arrivals, 1, 1, true);
    // The rungs must compute what the workload computed: same bytes back
    // from every op, on every tier.
    assert!(wasp.all_normal, "wasp rung: a guest exited abnormally");
    for rung in [&plain, &traced] {
        assert_eq!(
            rung.admitted,
            sample.len() as u64,
            "dispatcher rung shed an op"
        );
        assert!(
            rung.done.iter().all(|d| d.ok) && rung.done.iter().map(|d| &d.result).eq(&wasp.results),
            "dispatcher rung returned different bytes than the wasp rung"
        );
    }
    let n = sample.len() as u64;
    let wasp_us = us_per_op(wasp.host_s, n);
    let disp_us = us_per_op(plain.host_s, n);
    layers::fill_vsched(layer, &plain.tier, &plain.tier);
    layer.insert("vsched.host_us_per_op", disp_us);
    layer.insert("vsched.self_host_us_per_op", disp_us - wasp_us);
    layers::fill_vtrace(layer, &traced.tier, &traced.dump, traced.dump_s);
    layer.insert(
        "vtrace.host_overhead_pct",
        (traced.host_s - plain.host_s) / plain.host_s * 100.0,
    );
    let mut notes = vec![format!(
        "ladder (sample of {n} ops): wasp {wasp_us:.2} us/op -> dispatcher {disp_us:.2} us/op \
         (traced {:.2} us/op)",
        us_per_op(traced.host_s, n)
    )];
    notes.extend(crate::workloads::http_serve::vhttp_drill(layer));
    notes
}
