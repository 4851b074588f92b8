//! # Wasp — the embeddable virtine micro-hypervisor runtime
//!
//! The primary contribution of *Isolating Functions at the Hardware Limit
//! with Virtines* (EuroSys '22). Wasp lets a host program (the *virtine
//! client*) run individual functions in disposable, hardware-virtualized
//! execution contexts with microsecond-scale start-up:
//!
//! * **Hypercall interposition** ([`hypercall`]) — a virtine's only window
//!   to the outside world is a single-`out` hypercall ABI, checked against
//!   a default-deny [`HypercallMask`], then against its row of one table
//!   of calls ([`hypercall::TABLE`]) before Wasp's canned handler runs.
//! * **Shell pooling** ([`pool`]) — used contexts are wiped and cached so
//!   later requests skip `KVM_CREATE_VM`; with asynchronous cleaning the
//!   provisioning cost lands within a few percent of a bare `vmrun` (§5.2,
//!   Figure 8).
//! * **Snapshotting** ([`runtime`]) — a virtine can checkpoint itself after
//!   initialization; subsequent invocations of the same function resume
//!   from the snapshot and skip the boot path entirely (§5.2, Figure 7).
//! * **Blocked I/O** ([`hypercall`]) — a blocking `recv` or `read(0)` on
//!   the bound connection is an exit that suspends the run
//!   ([`SuspendedRun`]), never a busy-wait (§6.3).
//! * **Native baseline** ([`native`]) — the same binaries run natively for
//!   apples-to-apples comparisons, with hypercalls downgraded to syscalls.
//!
//! ```
//! use wasp::{Wasp, HypercallMask, Invocation};
//!
//! let wasp = Wasp::new_kvm_default();
//! let image = visa::assemble(".org 0x8000\n mov r0, 42\n hlt\n").unwrap();
//! let out = wasp
//!     .launch_once(image, 64 * 1024, HypercallMask::DENY_ALL, Invocation::default())
//!     .unwrap();
//! assert_eq!(out.ret, 42);
//! ```

pub mod hypercall;
pub mod native;
pub mod pool;
pub mod runtime;

pub use hypercall::{
    nr, HypercallMask, Invocation, WaitReason, WaitTarget, HYPERCALL_PORT, RECV_NONBLOCK,
    WOULD_BLOCK,
};
pub use native::{NativeExit, NativeOutcome, NativeRunner};
pub use pool::{
    CleanShell, Pool, PoolMode, PoolStats, Shell, UsedShell, WarmShell, DEFAULT_WARM_CAPACITY,
};
pub use runtime::{
    Breakdown, ExitKind, RunOutcome, RunResult, ShellRun, SuspendedRun, VirtineId, VirtineSpec,
    Wasp, WaspConfig, WaspError, WaspStats, ARGS_ADDR, LOAD_ADDR, NO_SNAPSHOT_ENV,
};
