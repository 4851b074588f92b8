//! `openssl speed`-style throughput harness (§6.4).
//!
//! The paper runs `openssl speed -elapsed -evp aes-128-cbc` with the block
//! cipher natively and in virtine context (with snapshotting). Because each
//! invocation provisions a virtine, "virtine creation overheads amplify the
//! invocation cost significantly": at a 16 KB block size they report a 17×
//! slowdown, dominated by copying the ~21 KB snapshot.

use hostsim::HostKernel;
use kvmsim::Hypervisor;
use vclock::Clock;
use wasp::{HypercallMask, Invocation, NativeRunner, VirtineSpec, Wasp, WaspConfig};

use crate::guest::{compile_aes_virtine, payload};

/// One row of the speed report.
#[derive(Debug, Clone)]
pub struct SpeedRow {
    /// Cipher block-buffer size in bytes.
    pub block_size: usize,
    /// Native throughput in MB/s (virtual time).
    pub native_mbps: f64,
    /// Virtine (with snapshotting) throughput in MB/s.
    pub virtine_mbps: f64,
    /// Slowdown factor (native / virtine).
    pub slowdown: f64,
}

/// Runs the speed sweep over `block_sizes`, performing `iters` encryptions
/// per size for each configuration.
pub fn run_speed(block_sizes: &[usize], iters: usize) -> Vec<SpeedRow> {
    let v = compile_aes_virtine().expect("AES virtine must compile");
    let key = [0x2b; 16];
    let iv = [0x42; 16];

    let mut rows = Vec::new();
    for &bs in block_sizes {
        let data = vec![0xA5u8; bs];
        let body = payload(&key, &iv, &data);

        // Native: same binary, run as ordinary code in the process.
        let native_clock = Clock::new();
        let native_kernel = HostKernel::new(native_clock.clone(), None);
        let native = NativeRunner::new(native_kernel);
        let t0 = native_clock.now();
        for _ in 0..iters {
            let out = native.run(
                &v.image,
                v.image.entry,
                &[],
                Invocation::with_payload(body.clone()),
                v.mem_size,
            );
            assert!(
                matches!(out.exit, wasp::NativeExit::Exited(0)),
                "native AES failed: {:?}",
                out.exit
            );
        }
        let native_secs = (native_clock.now() - t0).as_secs();

        // Virtine: one isolated context per encryption, snapshotting on.
        let virt_clock = Clock::new();
        let kernel = HostKernel::new(virt_clock.clone(), None);
        let wasp = Wasp::new(Hypervisor::kvm(kernel), WaspConfig::default());
        let spec = VirtineSpec::new("aes", v.image.clone(), v.mem_size).with_policy(
            HypercallMask::allowing(&[wasp::nr::GET_DATA, wasp::nr::RETURN_DATA]),
        );
        let id = wasp.register(spec).expect("register");
        let t0 = virt_clock.now();
        for _ in 0..iters {
            let out = wasp
                .run(id, &[], Invocation::with_payload(body.clone()))
                .expect("run");
            assert!(out.exit.is_normal(), "virtine AES failed: {:?}", out.exit);
        }
        let virt_secs = (virt_clock.now() - t0).as_secs();

        let total_mb = (bs * iters) as f64 / (1024.0 * 1024.0);
        let native_mbps = total_mb / native_secs;
        let virtine_mbps = total_mb / virt_secs;
        rows.push(SpeedRow {
            block_size: bs,
            native_mbps,
            virtine_mbps,
            slowdown: native_mbps / virtine_mbps,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtine_slowdown_shrinks_with_block_size() {
        // Small sizes/iterations keep the test quick; the `paper` bin sweeps
        // the full range (docs/paper.md, the AES study rows). Our
        // interpreted cipher inflates compute time relative to the paper's
        // AES-NI native path, so the slowdown factors compress toward 1 as
        // blocks grow — the *shape* (memory-bound per-invocation overhead,
        // amortized by compute) is what this asserts.
        let rows = run_speed(&[16, 512, 4096], 2);
        assert_eq!(rows.len(), 3);
        // Per-call provisioning overhead must dominate at tiny blocks...
        assert!(
            rows[0].slowdown > 1.2,
            "tiny blocks should show overhead: {rows:?}"
        );
        // ...and amortize monotonically with block size.
        assert!(
            rows[0].slowdown > rows[1].slowdown && rows[1].slowdown > rows[2].slowdown,
            "slowdown should shrink monotonically: {rows:?}"
        );
        assert!(rows[2].slowdown >= 1.0, "{rows:?}");
    }
}
