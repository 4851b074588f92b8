//! The §4.2 HTTP echo server: a minimal protected-mode guest.
//!
//! "We implemented a simple HTTP echo server where each request is handled
//! in a new virtual context employing our minimal environment. … this
//! example does not actually require 64-bit mode, so we omit paging and
//! leave the context in protected mode." Milestones (Figure 4) are
//! recorded with `mark`: reaching the server's main entry (C code), the
//! return from `recv()`, and the completion of `send()`.

use hostsim::HostKernel;
use kvmsim::Hypervisor;
use vclock::{Clock, Cycles};
use visa::asm::Image;
use wasp::{ExitKind, HypercallMask, Invocation, VirtineSpec, Wasp, WaspConfig};

/// Milestone id: guest main entry reached (left-most point of Figure 4).
pub const MARK_MAIN: u8 = 11;
/// Milestone id: `recv()` returned.
pub const MARK_RECV: u8 = 12;
/// Milestone id: `send()` completed.
pub const MARK_SEND: u8 = 13;

/// Assembles the echo-server guest image: real → protected mode (no
/// paging), then hypercall-based I/O, exactly as §4.2's runtime does
/// ("hypercall-based I/O … obviates the need to emulate network devices").
pub fn echo_image() -> Image {
    let src = "
.org 0x8000
start:
  lgdt gdt
  mov r0, 1
  mov cr0, r0          ; protected transition
  ljmp32 main32
main32:
  mark 11              ; server main entry (C code reached)
  mov sp, 0x180000
  mov r6, HC_RECV      ; recv(buf, 2048)
  mov r1, buf
  mov r2, 2048
  out HC_PORT, r6
  mark 12              ; recv() returned
  cmp r0, 0
  jle fail
  mov r6, HC_SEND      ; send(buf, n) -- echo it straight back
  mov r1, buf
  mov r2, r0
  out HC_PORT, r6
  mark 13              ; send() complete
  mov r6, HC_EXIT      ; exit(0)
  mov r1, 0
  out HC_PORT, r6
fail:
  mov r6, HC_EXIT
  mov r1, 1
  out HC_PORT, r6
gdt: .dq 0
buf: .space 2048
";
    wasp::hypercall::assemble(src).expect("echo image must assemble")
}

/// Figure 4 data for one request: cycles from virtine launch to each
/// milestone.
#[derive(Debug, Clone, Copy)]
pub struct EchoMilestones {
    /// Launch → guest main entry.
    pub to_main: Cycles,
    /// Launch → `recv()` return.
    pub to_recv: Cycles,
    /// Launch → `send()` completion.
    pub to_send: Cycles,
    /// Full request latency observed by the client.
    pub total: Cycles,
}

/// Runs `requests` echo requests, one fresh virtine per request, returning
/// per-request milestones. `noise_seed` reintroduces the host network-stack
/// variance responsible for Figure 4's error bars.
pub fn run_echo_server(requests: usize, noise_seed: Option<u64>) -> Vec<EchoMilestones> {
    let clock = Clock::new();
    let kernel = HostKernel::new(clock.clone(), noise_seed);
    let wasp = Wasp::new(Hypervisor::kvm(kernel.clone()), WaspConfig::default());
    let image = echo_image();
    // 2 MiB: protected-mode flat addresses, stack at 0x180000.
    let spec = VirtineSpec::new("echo", image, 2 * 1024 * 1024)
        .with_policy(HypercallMask::allowing(&[wasp::nr::SEND, wasp::nr::RECV]))
        .with_snapshot(false);
    let id = wasp.register(spec).expect("register echo");
    // Warm one shell so milestones measure context bring-up, not the
    // one-time `KVM_CREATE_VM` (the paper measures milestones inside an
    // already-provisioned context).
    wasp.prewarm(2 * 1024 * 1024, 1);

    const PORT: u16 = 8080;
    kernel.net_listen(PORT).expect("listen");

    let mut out = Vec::with_capacity(requests);
    let request = b"GET / HTTP/1.0\r\nHost: tinker\r\n\r\n";
    for _ in 0..requests {
        let client = kernel.net_connect(PORT).expect("connect");
        kernel.net_send(client, request).expect("send request");
        let conn = kernel
            .net_accept(PORT)
            .expect("accept")
            .expect("pending connection");

        let t0 = clock.now();
        let outcome = wasp
            .run(id, &[], Invocation::with_conn(conn))
            .expect("echo virtine");
        assert!(
            matches!(outcome.exit, ExitKind::Exited(0)),
            "echo failed: {:?}",
            outcome.exit
        );
        let echoed = kernel
            .net_recv(client, 4096)
            .expect("recv echo")
            .expect("echo data");
        let total = clock.now() - t0;
        assert_eq!(echoed, request, "echo must return the request verbatim");

        let find = |id: u8| {
            outcome
                .marks
                .iter()
                .find(|(m, _)| *m == id)
                .map(|(_, t)| *t - t0)
                .expect("milestone missing")
        };
        out.push(EchoMilestones {
            to_main: find(MARK_MAIN),
            to_recv: find(MARK_RECV),
            to_send: find(MARK_SEND),
            total,
        });
        kernel.net_close(client).ok();
        kernel.net_close(conn).ok();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestones_are_ordered_and_sub_millisecond() {
        let runs = run_echo_server(20, None);
        assert_eq!(runs.len(), 20);
        for m in &runs {
            assert!(m.to_main < m.to_recv);
            assert!(m.to_recv < m.to_send);
            assert!(m.to_send <= m.total);
            // §4.2: "we can achieve sub-millisecond HTTP response
            // latencies (<300 µs) without optimizations".
            assert!(
                m.total.as_micros() < 300.0,
                "echo latency {} µs",
                m.total.as_micros()
            );
        }
        // Main entry is ~10K cycles in the paper (protected mode, no
        // paging): check the right order of magnitude.
        let main_cycles = runs[0].to_main.get();
        assert!(
            (5_000..40_000).contains(&main_cycles),
            "main entry at {main_cycles} cycles"
        );
    }

    #[test]
    fn noise_widens_the_distribution() {
        let quiet = run_echo_server(30, None);
        let noisy = run_echo_server(30, Some(7));
        let spread = |runs: &[EchoMilestones]| {
            let xs: Vec<f64> = runs.iter().map(|m| m.total.get() as f64).collect();
            vclock::stats::std_dev(&xs)
        };
        assert!(spread(&noisy) > spread(&quiet));
    }
}
