//! Native-execution baseline runner.
//!
//! Every figure in the paper compares virtines against "native" execution of
//! the same function. In this reproduction *both* sides run the same guest
//! binary on the same simulated CPU, so compute costs are identical by
//! construction — exactly the paper's observation that "the virtine is not
//! executing code any faster than native" (§6.5). What differs is the
//! environment:
//!
//! * no virtual-context creation, image copy, boot sequence, or snapshot —
//!   the process already exists and its code is already mapped;
//! * hypercalls become ordinary system calls: one user/kernel round trip
//!   instead of a VM exit plus the double ring transitions of §6.3;
//! * faults abort the run (a native crash takes the process down; there is
//!   no isolation boundary to absorb it).

use hostsim::HostKernel;
use vclock::Cycles;
use visa::asm::Image;
use visa::cpu::{Cpu, CpuConfig, CpuState, Fault, Machine};
use visa::{CrReg, Mode, Reg};

use crate::hypercall::{self, HcOutcome, Invocation, HYPERCALL_PORT};
use crate::runtime::ARGS_ADDR;

/// How a native run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeExit {
    /// The function returned (guest `hlt`); value is `r0`.
    Returned(u64),
    /// The code called `exit` with this status.
    Exited(u64),
    /// The process crashed.
    Crashed(Fault),
    /// Step budget exhausted.
    StepLimit,
}

/// Result of a native baseline run.
#[derive(Debug)]
pub struct NativeOutcome {
    /// How the run ended.
    pub exit: NativeExit,
    /// `r0` at the end.
    pub ret: u64,
    /// Invocation state (stdout, result bytes, ...).
    pub invocation: Invocation,
    /// Milestone marks recorded during the run.
    pub marks: Vec<(u8, Cycles)>,
    /// Cycles consumed end to end.
    pub elapsed: Cycles,
    /// Number of system calls made.
    pub syscalls: u64,
}

/// Runs guest images directly, as host-native code would run.
#[derive(Debug, Clone)]
pub struct NativeRunner {
    kernel: HostKernel,
    /// Instruction budget per run.
    pub step_budget: u64,
}

impl NativeRunner {
    /// Creates a runner charging work to `kernel`'s clock.
    pub fn new(kernel: HostKernel) -> NativeRunner {
        NativeRunner {
            kernel,
            step_budget: 500_000_000,
        }
    }

    /// Runs `image` from `entry` as native code with `args` at address 0
    /// (mirroring the virtine marshalling ABI so the same binaries work).
    ///
    /// The CPU starts directly in 32-bit protected mode — a running process
    /// never pays the boot sequence; its address space is managed by the
    /// host OS off the critical path.
    pub fn run(
        &self,
        image: &Image,
        entry: u64,
        args: &[u8],
        mut invocation: Invocation,
        mem_size: usize,
    ) -> NativeOutcome {
        let clock = self.kernel.clock().clone();
        let t0 = clock.now();

        let mut machine = Machine::new(clock.clone(), CpuConfig::native(), mem_size, entry);
        machine
            .mem
            .write_bytes(image.base, &image.bytes)
            .expect("image must fit in native address space");
        if !args.is_empty() {
            machine
                .mem
                .write_bytes(ARGS_ADDR, args)
                .expect("args must fit");
        }
        // A live process context: protected mode, flat addressing, stack at
        // the top of the region. (No boot required; the state below is what
        // the loader already established.)
        let mut state = fabricated_process_state(&machine.cpu, entry);
        state.regs[Reg::SP.index()] = (mem_size as u64).min(u32::MAX as u64) & !0xF;
        machine.cpu.restore_state(&state);

        let mut syscalls = 0u64;
        let exit = loop {
            match machine.cpu.run(&mut machine.mem, self.step_budget) {
                Err(fault) => break NativeExit::Crashed(fault),
                Ok(visa::CpuExit::Hlt) => break NativeExit::Returned(machine.cpu.reg(Reg(0))),
                Ok(visa::CpuExit::StepLimit) => break NativeExit::StepLimit,
                Ok(visa::CpuExit::IoIn { .. }) => {
                    break NativeExit::Crashed(Fault::ModeViolation {
                        reason: "port input outside a virtine",
                    })
                }
                Ok(visa::CpuExit::IoOut { port, value }) if port == HYPERCALL_PORT => {
                    // Natively this is a syscall: one kernel round trip.
                    syscalls += 1;
                    self.kernel.syscall_overhead();
                    let hc_args = [1, 2, 3, 4, 5].map(|r| machine.cpu.reg(Reg(r)));
                    let (mem, kernel) = (&mut machine.mem, &self.kernel);
                    match hypercall::handle_canned(value, hc_args, mem, kernel, &mut invocation) {
                        Err(fault) => break NativeExit::Crashed(fault),
                        Ok(HcOutcome::Resume(v)) => machine.cpu.set_reg(Reg(0), v),
                        Ok(HcOutcome::Exit(code)) => break NativeExit::Exited(code),
                        // Snapshotting is a virtine concept; natively a
                        // no-op (the process keeps running).
                        Ok(HcOutcome::TakeSnapshot) => machine.cpu.set_reg(Reg(0), 0),
                        // The native baseline has no event loop to yield
                        // to: a blocking call that cannot complete behaves
                        // like its non-blocking form (EAGAIN).
                        Ok(HcOutcome::Block(_)) => {
                            self.kernel.syscall_overhead();
                            machine.cpu.set_reg(Reg(0), hypercall::WOULD_BLOCK);
                        }
                        Ok(HcOutcome::Kill(_)) => {
                            break NativeExit::Crashed(Fault::ModeViolation {
                                reason: "malformed syscall",
                            })
                        }
                    }
                }
                Ok(visa::CpuExit::IoOut { .. }) => {
                    break NativeExit::Crashed(Fault::ModeViolation {
                        reason: "port output outside a virtine",
                    })
                }
            }
        };

        let ret = machine.cpu.reg(Reg(0));
        let marks = std::mem::take(&mut machine.cpu.marks);
        NativeOutcome {
            exit,
            ret,
            invocation,
            marks,
            elapsed: clock.now() - t0,
            syscalls,
        }
    }
}

/// Builds the CPU state of an already-running process: protected mode with
/// the loader's GDT in place.
fn fabricated_process_state(cpu: &Cpu, entry: u64) -> CpuState {
    let mut state = cpu.save_state();
    state.mode = Mode::Prot32;
    state.cr0 = visa::inst::CR0_PE;
    state.gdt_base = Some(0);
    state.pc = entry;
    let _ = CrReg::Cr0; // (CR bits documented in visa::inst.)
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use vclock::Clock;

    fn runner() -> (Clock, NativeRunner) {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock.clone(), None);
        (clock, NativeRunner::new(kernel))
    }

    const FIB: &str = "
.org 0x8000
entry:
  mov r1, 0
  load.q r1, [r1]     ; arg from address 0
  call fib
  hlt
fib:
  cmp r1, 2
  jl .base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
.base:
  mov r0, r1
  ret
";

    #[test]
    fn native_fib_returns_correct_value() {
        let (_, r) = runner();
        let img = visa::assemble(FIB).unwrap();
        let out = r.run(
            &img,
            img.entry,
            &10u64.to_le_bytes(),
            Invocation::default(),
            1 << 20,
        );
        assert_eq!(out.exit, NativeExit::Returned(55));
        assert_eq!(out.syscalls, 0);
    }

    #[test]
    fn native_run_has_no_creation_overhead() {
        let (_, r) = runner();
        let img = visa::assemble(".org 0x8000\n hlt\n").unwrap();
        let out = r.run(&img, img.entry, &[], Invocation::default(), 1 << 16);
        // Just a hlt: a handful of cycles, no boot, no VM costs.
        assert!(
            out.elapsed.get() < 100,
            "native null call cost {} cycles",
            out.elapsed
        );
    }

    #[test]
    fn hypercalls_become_syscalls() {
        let (_, r) = runner();
        let img = crate::hypercall::assemble(
            "
.org 0x8000
  mov r0, HC_WRITE
  mov r1, 1
  mov r2, msg
  mov r3, 3
  out HC_PORT, r0
  mov r0, HC_EXIT
  mov r1, 0
  out HC_PORT, r0 ; exit(0)
msg: .ascii \"abc\"
",
        )
        .unwrap();
        let out = r.run(&img, img.entry, &[], Invocation::default(), 1 << 16);
        assert_eq!(out.exit, NativeExit::Exited(0));
        assert_eq!(out.invocation.stdout, b"abc");
        assert_eq!(out.syscalls, 2);
    }

    #[test]
    fn native_crash_is_reported() {
        let (_, r) = runner();
        let img = visa::assemble(".org 0x8000\n mov r1, 0\n mov r0, 1\n div r0, r1\n").unwrap();
        let out = r.run(&img, img.entry, &[], Invocation::default(), 1 << 16);
        assert!(matches!(out.exit, NativeExit::Crashed(_)));
    }

    #[test]
    fn snapshot_hypercall_is_a_native_noop() {
        let (_, r) = runner();
        let img = crate::hypercall::assemble(
            ".org 0x8000\n mov r0, HC_SNAPSHOT\n out HC_PORT, r0\n mov r0, 5\n hlt\n",
        )
        .unwrap();
        let out = r.run(&img, img.entry, &[], Invocation::default(), 1 << 16);
        assert_eq!(out.exit, NativeExit::Returned(5));
    }
}
