//! The Wasp runtime: registering virtine specs and running invocations.
//!
//! Wasp is "a specialized, embeddable micro-hypervisor runtime that deploys
//! virtines with an easy-to-use interface" (§5.1). A *virtine client* (host
//! program) registers a [`VirtineSpec`] — binary image, memory size,
//! hypercall policy — and then [`Wasp::run`]s invocations against it. Each
//! invocation:
//!
//! 1. acquires a hardware context from the shell [`Pool`] (§5.2) — a
//!    *warm* shell parked by a previous run of the same virtine when one
//!    exists, a clean shell otherwise;
//! 2. installs the execution state, cheapest mechanism first:
//!    * **warm delta re-arm** — the shell still holds the snapshot state;
//!      only the pages the previous invocation dirtied are copied back
//!      (`kvmsim::VmFd::restore_delta`), collapsing the `image` term of
//!      [`Breakdown`] from the sparse-snapshot memcpy to a handful of
//!      pages;
//!    * **full sparse restore** — the spec has a snapshot but the shell is
//!      clean (§5.2 snapshotting, Figure 7);
//!    * **cold image install** — no snapshot yet;
//! 3. writes the marshalled arguments at guest address 0x0 (§6.1);
//! 4. runs the guest, interposing on every hypercall: the policy mask is
//!    checked first (default-deny, §5.1), then the call's arguments are
//!    decoded against its [`crate::hypercall::TABLE`] row and its canned
//!    handler runs;
//! 5. releases the shell back to the pool: *warm* (state kept resident,
//!    keyed to this virtine) after a normal snapshotted run, wiped clean
//!    per the pool mode otherwise.
//!
//! ## Warm/clean shell lifecycle and isolation
//!
//! The shell states are types; the [`crate::pool`] module docs list them,
//! their transitions and who pays each wipe. The runtime makes the two
//! moves the pool cannot:
//!
//! * it gives a run's [`UsedShell`] the warm token only when the shell's
//!   state provably equals *the spec's current snapshot plus the
//!   dirty-page log* — the run restored that exact snapshot (full or
//!   delta) or captured it, and exited normally; the token is the
//!   snapshot's `Rc`, compared by identity;
//! * it re-arms a [`Shell::Warm`] before the guest runs, erasing every
//!   page the previous invocation touched, only when the shell's snapshot
//!   is still the spec's current one; otherwise it wipes the shell in
//!   place. Either way no bit of a prior invocation's data is observable,
//!   so §5.2's no-information-leakage guarantee survives the optimization.
//!
//! ## Blocked/suspended runs (event-driven I/O)
//!
//! Runs are *resumable*: a blocking hypercall that cannot complete (today a
//! `recv` on an open-but-empty connection) is an **exit, not a busy-wait**.
//! [`Wasp::run_on_shell`] with [`ShellRun::resumable`] set returns
//! [`RunResult::Blocked`] carrying a [`SuspendedRun`] — the live run
//! (shell with its vCPU registers and guest memory, invocation state,
//! segmented accounting) plus what it waits on — and the caller's event
//! loop decides when the wait is over:
//!
//! ```text
//!  run_on_shell(ShellRun)                       wait satisfied
//!   install ─► exec_segment ──Block──► SuspendedRun ───────────► resume_on_shell
//!                 ▲    │              (parked: unstealable,      (delivers the bytes,
//!                 │    │ Exit          undemotable)               re-enters the guest at
//!                 │    ▼                    │                     the faulting hypercall)
//!                 │  finish_run             │ timeout / kill            │
//!                 │    │                    ▼ (abort_suspended)         │
//!                 │    ▼             ExitKind::Blocked                  │
//!                 │  RunResult::Done  → wiped release (§5.2)            │
//!                 └─────────────────────────────────────────────────────┘
//! ```
//!
//! One private record (`Live`) carries the run from install to outcome:
//! a segment borrows it, a suspension owns it, and `finish_run` consumes
//! it. While parked the shell is owned by the `SuspendedRun`, structurally
//! outside every pool: no steal, demotion, or re-arm path can observe it.
//! Accounting is segmented so a blocked-then-resumed run charges exactly
//! the guest cycles an unblocked run does ([`Breakdown::blocked`] absorbs
//! the parked wall-time; `exec`/`total` never include it, and the delivery
//! at resume is the one charged syscall the blocking `recv` is). Callers
//! without an event loop ([`Wasp::run`], or `resumable: false`) see
//! blocking calls degraded to their non-blocking form
//! ([`crate::hypercall::WOULD_BLOCK`]).

use std::cell::RefCell;
use std::rc::Rc;

use hostsim::HostKernel;
use kvmsim::{Hypervisor, VmExit, VmFd, VmSnapshot};
use vclock::{Clock, Cycles};
use visa::asm::Image;
use visa::cpu::Fault;
use visa::Reg;

use crate::hypercall::{self, HcOutcome, HypercallMask, Invocation, WaitReason, HYPERCALL_PORT};
use crate::pool::{Pool, PoolMode, PoolStats, Shell, UsedShell};

/// Guest address where marshalled arguments are placed ("the argument, n,
/// is loaded into the virtine's address space at address 0x0", §6.1).
pub const ARGS_ADDR: u64 = 0x0;

/// Guest address images are loaded at ("Wasp simply accepts a binary image,
/// loads it at guest virtual address 0x8000", §5.1).
pub const LOAD_ADDR: u64 = 0x8000;

/// Environment variable that disables snapshotting for language-extension
/// virtines ("all virtines created via our language extensions use Wasp's
/// snapshot feature by default. This can be disabled with the use of an
/// environment variable", §5.3).
pub const NO_SNAPSHOT_ENV: &str = "VIRTINE_NO_SNAPSHOT";

/// Runtime configuration for a [`Wasp`] instance.
#[derive(Debug, Clone)]
pub struct WaspConfig {
    /// Shell pooling mode (§5.2).
    pub pool_mode: PoolMode,
    /// Instruction budget per `KVM_RUN` before the watchdog fires.
    pub step_budget: u64,
    /// When `true`, snapshotting is disabled for every spec regardless of
    /// its own flag (the [`NO_SNAPSHOT_ENV`] escape hatch).
    pub disable_snapshots: bool,
    /// Bound on warm shells kept resident in the internal pool; zero
    /// disables warm caching (every release wipes, the pre-warm-cache
    /// behavior).
    pub warm_capacity: usize,
}

impl Default for WaspConfig {
    fn default() -> WaspConfig {
        WaspConfig {
            pool_mode: PoolMode::CachedAsync,
            step_budget: 500_000_000,
            disable_snapshots: false,
            warm_capacity: crate::pool::DEFAULT_WARM_CAPACITY,
        }
    }
}

impl WaspConfig {
    /// Default configuration, honouring [`NO_SNAPSHOT_ENV`] from the
    /// process environment.
    pub fn from_env() -> WaspConfig {
        WaspConfig {
            disable_snapshots: std::env::var_os(NO_SNAPSHOT_ENV).is_some(),
            ..WaspConfig::default()
        }
    }
}

/// A registered virtine: the unit the `virtine` keyword compiles to.
#[derive(Debug, Clone)]
pub struct VirtineSpec {
    /// Diagnostic name (usually the annotated function's name).
    pub name: String,
    /// The toolchain-produced binary image.
    pub image: Rc<Image>,
    /// Guest-physical memory size for this virtine's contexts.
    pub mem_size: usize,
    /// Hypercall policy (default-deny unless widened, §5.3).
    pub policy: HypercallMask,
    /// Whether invocations snapshot after initialization (§5.2).
    pub snapshot: bool,
}

impl VirtineSpec {
    /// Builds a spec with the default-deny policy and snapshotting enabled
    /// (the language-extension defaults of §5.3).
    pub fn new(name: impl Into<String>, image: Image, mem_size: usize) -> VirtineSpec {
        VirtineSpec {
            name: name.into(),
            image: Rc::new(image),
            mem_size,
            policy: HypercallMask::DENY_ALL,
            snapshot: true,
        }
    }

    /// Widens the policy (builder style).
    pub fn with_policy(mut self, policy: HypercallMask) -> VirtineSpec {
        self.policy = policy;
        self
    }

    /// Enables or disables snapshotting (builder style).
    pub fn with_snapshot(mut self, snapshot: bool) -> VirtineSpec {
        self.snapshot = snapshot;
        self
    }
}

/// Handle to a registered virtine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtineId(usize);

impl VirtineId {
    /// The registration index, for dispatch layers that key tables by
    /// virtine. Only meaningful against the `Wasp` that issued the handle.
    pub fn into_raw(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from [`VirtineId::into_raw`]. Running an id that
    /// was never registered yields [`WaspError::NoSuchVirtine`].
    pub fn from_raw(raw: usize) -> VirtineId {
        VirtineId(raw)
    }
}

/// How an invocation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitKind {
    /// The guest executed `hlt`; the value is `r0`.
    Halted(u64),
    /// The guest issued the `exit` hypercall with this code.
    Exited(u64),
    /// A hypercall was denied by the client's policy; the virtine was
    /// killed (the "request denied" arrow of Figure 5).
    Denied {
        /// The refused hypercall number.
        nr: u64,
    },
    /// A handler killed the virtine (malformed request, repeated one-shot
    /// call, unknown port, ...).
    Killed(&'static str),
    /// The guest faulted; the context was torn down.
    Faulted(Fault),
    /// The instruction budget ran out.
    StepLimit,
    /// The run was abandoned while suspended in a blocking wait (e.g. a
    /// scheduler's block timeout killed it). Its [`UsedShell`] never
    /// carries the warm token.
    Blocked,
}

impl ExitKind {
    /// Whether the invocation completed by normal means.
    pub fn is_normal(&self) -> bool {
        matches!(self, ExitKind::Halted(_) | ExitKind::Exited(_))
    }
}

/// Cycle attribution for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Breakdown {
    /// Acquiring a shell (pool hit or `KVM_CREATE_VM`).
    pub acquire: Cycles,
    /// Installing the image or restoring the snapshot (full, or the
    /// dirty-page delta on a warm hit), plus marshalling.
    pub image: Cycles,
    /// Guest execution including hypercall servicing.
    pub exec: Cycles,
    /// Releasing the shell (synchronous cleaning shows up here).
    pub release: Cycles,
    /// End-to-end invocation latency.
    pub total: Cycles,
    /// Whether the shell came from the pool.
    pub reused_shell: bool,
    /// Whether a snapshot was restored instead of a cold boot.
    pub restored_snapshot: bool,
    /// Whether the restore was a warm-shell delta re-arm rather than a
    /// full sparse copy.
    pub warm_hit: bool,
    /// Pages copied by the delta re-arm (zero unless `warm_hit`).
    pub delta_pages: u64,
    /// Virtual time spent suspended in blocking waits — *excluded* from
    /// `exec` and `total`, which therefore sum a blocked-then-resumed
    /// run's execution segments to the same guest-cycle figure an
    /// unblocked run reports (no double-charged re-entry).
    pub blocked: Cycles,
    /// Times the run blocked and was later resumed (zero for a run that
    /// never waited).
    pub resumes: u32,
}

/// The result of one virtine invocation.
#[derive(Debug)]
pub struct RunOutcome {
    /// How the guest ended.
    pub exit: ExitKind,
    /// `r0` at exit (the unmarshalled return value for `vcc` virtines).
    pub ret: u64,
    /// Invocation state: `return_data` result, captured stdout, fd table.
    pub invocation: Invocation,
    /// Milestones recorded by guest `mark` instructions.
    pub marks: Vec<(u8, Cycles)>,
    /// Number of hypercalls serviced.
    pub hypercalls: u64,
    /// Cycle attribution.
    pub breakdown: Breakdown,
}

impl RunOutcome {
    /// Convenience: the guest's `return_data` bytes.
    pub fn result_bytes(&self) -> &[u8] {
        &self.invocation.result
    }
}

/// How a run left the shell: finished (outcome plus the used shell), or —
/// only when [`ShellRun::resumable`] — suspended at a blocking hypercall
/// with the shell parked inside the [`SuspendedRun`].
#[derive(Debug)]
pub enum RunResult {
    /// The invocation completed; the shell goes to a pool's release or
    /// warm park, or is dropped.
    Done(RunOutcome, UsedShell),
    /// The invocation is parked on a [`WaitReason`]. Resume it with
    /// [`Wasp::resume_on_shell`] once the condition holds, or kill it with
    /// [`Wasp::abort_suspended`].
    Blocked(SuspendedRun),
}

/// A virtine suspended mid-invocation at a blocking hypercall.
///
/// The shell (and with it the vCPU register file and guest memory) rides
/// inside, so the suspended state *is* the parked shell: it cannot be
/// stolen, demoted, or re-armed by any pool path while the run is blocked —
/// the only exits are [`Wasp::resume_on_shell`] (deliver the awaited bytes
/// and continue exactly at the faulting hypercall) and
/// [`Wasp::abort_suspended`] (give the shell back, used and never warm).
/// Cycle accounting is segmented: execution before the block is already in
/// [`Breakdown::exec`]; parked time accrues to [`Breakdown::blocked`] and
/// never to `exec`/`total`.
#[derive(Debug)]
pub struct SuspendedRun {
    live: Live,
    wait: WaitReason,
    blocked_at: Cycles,
}

/// A run between install and outcome: everything an execution segment
/// reads or advances. A segment borrows it, a [`SuspendedRun`] owns it
/// across a park, and `Wasp::finish_run` turns it into the [`RunOutcome`].
#[derive(Debug)]
struct Live {
    vm: VmFd,
    id: VirtineId,
    /// The spec's policy intersected with the caller's narrowing mask.
    policy: HypercallMask,
    snapshot_enabled: bool,
    /// Length of the window at [`ARGS_ADDR`] the host wrote for this caller.
    args_len: usize,
    invocation: Invocation,
    hypercalls: u64,
    /// Marks drained from the vCPU at earlier suspensions.
    marks: Vec<(u8, Cycles)>,
    /// The snapshot the shell's state provably derives from, if any.
    armed: Option<Rc<VmSnapshot>>,
    breakdown: Breakdown,
}

impl Live {
    /// Captures the spec's snapshot *without this caller's arguments*: the
    /// snapshot serves every later caller of the spec, other tenants
    /// included. The window the host wrote is zeroed for the capture
    /// (host-side, uncharged) and its bytes put back through `write_guest`,
    /// so the page enters the dirty log and a delta re-arm of this shell
    /// still equals a full restore.
    fn capture_snapshot(&self) -> VmSnapshot {
        let in_range = "the args window is inside guest memory";
        let window = self.vm.read_guest(ARGS_ADDR, self.args_len);
        let window = window.expect(in_range);
        let zeroes = vec![0; window.len()];
        self.vm.write_guest(ARGS_ADDR, &zeroes).expect(in_range);
        let snap = self.vm.snapshot();
        self.vm.write_guest(ARGS_ADDR, &window).expect(in_range);
        snap
    }
}

/// One invocation on a caller-provided shell: the input of
/// [`Wasp::run_on_shell`].
#[derive(Debug)]
pub struct ShellRun<'a> {
    /// The shell to run on, in the state that picks its install; must be
    /// sized for the spec ([`WaspError::ShellSizeMismatch`] otherwise).
    pub shell: Shell,
    /// The registered virtine to run.
    pub id: VirtineId,
    /// Marshalled arguments, written at [`ARGS_ADDR`].
    pub args: &'a [u8],
    /// Invocation state (payload, bound connection, ...).
    pub invocation: Invocation,
    /// Intersected with the spec's [`HypercallMask`]: a tenant profile can
    /// only further restrict what the spec permits. Pass
    /// [`HypercallMask::ALLOW_ALL`] for spec-policy-only behavior.
    pub narrow: HypercallMask,
    /// Whether a blocking hypercall that cannot complete (a `recv` or
    /// `read(0)` on an empty connection) suspends the run
    /// ([`RunResult::Blocked`] — the contract of event-driven dispatch)
    /// instead of being degraded to its non-blocking form
    /// ([`crate::hypercall::WOULD_BLOCK`] in `r0`).
    pub resumable: bool,
}

impl SuspendedRun {
    /// The condition this run waits on.
    pub fn wait(&self) -> &WaitReason {
        &self.wait
    }

    /// The virtine being run.
    pub fn virtine(&self) -> VirtineId {
        self.live.id
    }
}

/// Errors raised before a virtine ever runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaspError {
    /// Unknown [`VirtineId`].
    NoSuchVirtine,
    /// The image does not fit below `mem_size`.
    ImageTooLarge {
        /// End address of the image.
        image_end: u64,
        /// Configured guest memory size.
        mem_size: usize,
    },
    /// A shell handed to [`Wasp::run_on_shell`] was sized for a different
    /// guest-memory footprint than the spec requires. Shards must segregate
    /// shells by size, exactly as the internal pool does.
    ShellSizeMismatch {
        /// The shell's guest-memory size.
        shell: usize,
        /// The spec's guest-memory size.
        spec: usize,
    },
}

impl std::fmt::Display for WaspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaspError::NoSuchVirtine => write!(f, "no such virtine"),
            WaspError::ImageTooLarge {
                image_end,
                mem_size,
            } => write!(
                f,
                "image ends at {image_end:#x} but guest memory is only {mem_size:#x} bytes"
            ),
            WaspError::ShellSizeMismatch { shell, spec } => write!(
                f,
                "shell has {shell:#x} bytes of guest memory but the spec needs {spec:#x}"
            ),
        }
    }
}

impl std::error::Error for WaspError {}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaspStats {
    /// Invocations launched.
    pub invocations: u64,
    /// Hypercalls serviced.
    pub hypercalls: u64,
    /// Hypercalls denied by policy.
    pub denials: u64,
    /// Snapshots taken.
    pub snapshots_taken: u64,
    /// Invocations that started from a snapshot.
    pub snapshot_restores: u64,
    /// Snapshot restores served by a warm-shell delta re-arm (a subset of
    /// `snapshot_restores`).
    pub warm_hits: u64,
    /// Total pages copied across all delta re-arms.
    pub delta_pages_copied: u64,
    /// Runs suspended at a blocking hypercall (each block event counts,
    /// so one run can contribute several).
    pub blocks: u64,
    /// Suspended runs resumed after their wait completed.
    pub resumes: u64,
}

struct SpecEntry {
    spec: VirtineSpec,
    snapshot: Option<Rc<VmSnapshot>>,
}

/// The embeddable Wasp runtime (one per virtine client).
pub struct Wasp {
    hv: Hypervisor,
    kernel: HostKernel,
    config: WaspConfig,
    pool: RefCell<Pool>,
    specs: RefCell<Vec<SpecEntry>>,
    stats: RefCell<WaspStats>,
}

/// How one guest-execution segment ended: the invocation finished (in any
/// of the classic ways) or parked at a blocking hypercall.
enum SegmentEnd {
    Exit(ExitKind),
    Block(WaitReason),
}

impl Wasp {
    /// Creates a runtime over the given hypervisor.
    pub fn new(hv: Hypervisor, config: WaspConfig) -> Wasp {
        let kernel = hv.kernel().clone();
        let pool = Pool::new(config.pool_mode).with_warm_capacity(config.warm_capacity);
        Wasp {
            hv,
            kernel,
            config,
            pool: RefCell::new(pool),
            specs: RefCell::new(Vec::new()),
            stats: RefCell::new(WaspStats::default()),
        }
    }

    /// Convenience: a KVM-backed runtime on a fresh deterministic host.
    pub fn new_kvm_default() -> Wasp {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock, None);
        Wasp::new(Hypervisor::kvm(kernel), WaspConfig::default())
    }

    /// The shared clock.
    pub fn clock(&self) -> Clock {
        self.kernel.clock().clone()
    }

    /// The simulated host kernel.
    pub fn kernel(&self) -> &HostKernel {
        &self.kernel
    }

    /// The underlying hypervisor handle.
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }

    /// Runtime statistics so far.
    pub fn stats(&self) -> WaspStats {
        *self.stats.borrow()
    }

    /// Pool statistics so far.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.borrow().stats()
    }

    /// Pre-creates `count` clean shells of `mem_size` bytes.
    pub fn prewarm(&self, mem_size: usize, count: usize) {
        self.pool.borrow_mut().prewarm(&self.hv, mem_size, count);
    }

    /// Registers a virtine spec, returning its handle.
    pub fn register(&self, mut spec: VirtineSpec) -> Result<VirtineId, WaspError> {
        let image_end = spec.image.base + spec.image.bytes.len() as u64;
        if image_end > spec.mem_size as u64 {
            return Err(WaspError::ImageTooLarge {
                image_end,
                mem_size: spec.mem_size,
            });
        }
        if self.config.disable_snapshots {
            spec.snapshot = false;
        }
        let mut specs = self.specs.borrow_mut();
        specs.push(SpecEntry {
            spec,
            snapshot: None,
        });
        Ok(VirtineId(specs.len() - 1))
    }

    /// Drops the stored snapshot for a spec (tests and experiments). Warm
    /// shells parked against the dropped snapshot become stale; the next
    /// acquire detects the mismatch (by `Rc` identity) and wipes them.
    pub fn invalidate_snapshot(&self, id: VirtineId) {
        if let Some(e) = self.specs.borrow_mut().get_mut(id.0) {
            e.snapshot = None;
        }
    }

    /// Tenant tag the runtime's internal pool keys warm shells under: Wasp
    /// embeds in a single virtine client, so there is exactly one tenant.
    const SELF_TENANT: u64 = 0;

    /// Runs one invocation on a shell from the internal pool.
    pub fn run(
        &self,
        id: VirtineId,
        args: &[u8],
        invocation: Invocation,
    ) -> Result<RunOutcome, WaspError> {
        let (mem_size, warm_eligible) = {
            let specs = self.specs.borrow();
            let e = specs.get(id.0).ok_or(WaspError::NoSuchVirtine)?;
            (e.spec.mem_size, e.spec.snapshot && e.snapshot.is_some())
        };
        let clock = self.kernel.clock().clone();
        let t0 = clock.now();

        // 1. Acquire a hardware context (Figure 6: reuse or provision) —
        // warm shell for this virtine first, clean shell otherwise.
        let warm = if warm_eligible {
            self.pool
                .borrow_mut()
                .acquire_warm(&self.hv, Self::SELF_TENANT, id.0, mem_size)
        } else {
            None
        };
        let shell = match warm {
            Some(w) => Shell::Warm(w),
            None => self.pool.borrow_mut().acquire(&self.hv, mem_size),
        };
        let t_acquired = clock.now();

        // 2.–4. Execute on the acquired shell.
        let run = ShellRun {
            shell,
            id,
            args,
            invocation,
            narrow: HypercallMask::ALLOW_ALL,
            resumable: false,
        };
        let RunResult::Done(mut outcome, used) = self.run_on_shell(run)? else {
            unreachable!("non-resumable runs never suspend");
        };

        // 5. Recycle the shell: park it warm when the run left it in
        // snapshot-derived state, wipe it otherwise.
        let t_exec = clock.now();
        self.pool
            .borrow_mut()
            .release_warm(used, Self::SELF_TENANT, id.0);
        let t_end = clock.now();

        outcome.breakdown.acquire = t_acquired - t0;
        outcome.breakdown.release = t_end - t_exec;
        outcome.breakdown.total = t_end - t0;
        Ok(outcome)
    }

    /// Runs one invocation on a caller-provided shell, returning the used
    /// shell instead of releasing it into Wasp's internal pool. This is the
    /// dispatcher entry point: a scheduling layer (e.g. `vsched`) that keeps
    /// its own sharded shell pools acquires a [`Shell`] itself, hands it
    /// here, and decides afterwards which shard's pool the [`UsedShell`] is
    /// released or parked warm in.
    ///
    /// The `breakdown.acquire`/`release` fields of the outcome are zero;
    /// they belong to whoever manages the shell's lifecycle.
    ///
    /// With [`ShellRun::resumable`] a blocking hypercall that cannot
    /// complete returns [`RunResult::Blocked`] — the run exits the shard
    /// worker instead of busy-waiting, until [`Wasp::resume_on_shell`]
    /// re-enters the guest at the faulting hypercall. Without it the result
    /// is always [`RunResult::Done`].
    pub fn run_on_shell(&self, run: ShellRun<'_>) -> Result<RunResult, WaspError> {
        let id = run.id;
        let (vm, reused, warm) = match run.shell {
            Shell::Created(c) => (c.0, false, None),
            Shell::Clean(c) => (c.0, true, None),
            Shell::Warm(w) => (w.vm, true, Some(w.snap)),
        };
        let (image, mem_size, policy, snapshot_enabled, snap) = {
            let specs = self.specs.borrow();
            let entry = specs.get(id.0).ok_or(WaspError::NoSuchVirtine)?;
            (
                Rc::clone(&entry.spec.image),
                entry.spec.mem_size,
                entry.spec.policy.intersect(run.narrow),
                entry.spec.snapshot,
                entry.snapshot.clone(),
            )
        };
        if vm.mem_size() != mem_size {
            return Err(WaspError::ShellSizeMismatch {
                shell: vm.mem_size(),
                spec: mem_size,
            });
        }
        self.stats.borrow_mut().invocations += 1;
        let clock = self.kernel.clock().clone();
        let t_acquired = clock.now();

        // 2. Install the execution state: warm delta re-arm when the shell
        // already holds the spec's current snapshot, else full sparse
        // restore, else cold image.
        let mut armed: Option<Rc<VmSnapshot>> = None;
        let mut warm_hit = false;
        let mut delta_pages = 0u64;
        let restored = match warm {
            Some(shell_snap)
                if snapshot_enabled
                    && snap
                        .as_ref()
                        .is_some_and(|cur| Rc::ptr_eq(cur, &shell_snap)) =>
            {
                delta_pages = vm.restore_delta(&shell_snap) as u64;
                warm_hit = true;
                {
                    let mut stats = self.stats.borrow_mut();
                    stats.snapshot_restores += 1;
                    stats.warm_hits += 1;
                    stats.delta_pages_copied += delta_pages;
                }
                armed = Some(shell_snap);
                true
            }
            stale => {
                if stale.is_some() {
                    // Stale warm shell: the snapshot it derives from is no
                    // longer the spec's current one (invalidated or
                    // re-registered since it parked). Demote in place with
                    // a full, charged wipe before the ordinary install.
                    vm.clean(LOAD_ADDR);
                }
                if let (true, Some(cur)) = (snapshot_enabled, &snap) {
                    vm.restore(cur);
                    self.stats.borrow_mut().snapshot_restores += 1;
                    armed = Some(Rc::clone(cur));
                    true
                } else {
                    vm.load_image(&image);
                    false
                }
            }
        };
        // 3. Marshal arguments into the address space (charged as a copy).
        if !run.args.is_empty() {
            self.kernel.memcpy(run.args.len());
            vm.write_guest(ARGS_ADDR, run.args)
                .expect("argument region must be inside guest memory");
        }
        let t_image = clock.now();

        // 4. Run, interposing on hypercalls, until the guest finishes or —
        // in resumable mode — parks at a blocking hypercall.
        let mut live = Live {
            vm,
            id,
            policy,
            snapshot_enabled,
            args_len: run.args.len(),
            invocation: run.invocation,
            hypercalls: 0,
            marks: Vec::new(),
            armed,
            breakdown: Breakdown {
                image: t_image - t_acquired,
                reused_shell: reused,
                restored_snapshot: restored,
                warm_hit,
                delta_pages,
                ..Breakdown::default()
            },
        };
        let end = self.exec_segment(&mut live, run.resumable);
        let t_exec = clock.now();
        live.breakdown.exec = t_exec - t_image;
        live.breakdown.total = t_exec - t_acquired;
        Ok(self.end_segment(live, end, t_exec))
    }

    /// Re-enters a [`SuspendedRun`] whose wait condition should now hold:
    /// delivers the awaited bytes straight into the parked hypercall's
    /// buffer (the one syscall the blocking `recv` is, charged here where
    /// the data actually arrives), places the count in `r0`, and continues
    /// guest execution at the instruction after the faulting hypercall. If
    /// the condition does not hold after all (a spurious wake-up), the run
    /// re-parks and [`RunResult::Blocked`] is returned again.
    pub fn resume_on_shell(&self, mut s: SuspendedRun) -> Result<RunResult, WaspError> {
        let clock = self.kernel.clock().clone();
        let t_resume = clock.now();

        // Spurious wake-ups re-park without charging anything: the
        // still-pending probe is the same free kernel-internal poll the
        // block decision used. A wake does not promise the data is still
        // there, so the probe is re-run rather than trusted. A wait whose
        // object failed meanwhile is over: the completion below reports
        // the failure.
        let still_blocked = self.kernel.wait_pending(s.wait.target) == Ok(true);
        s.live.breakdown.blocked += t_resume - s.blocked_at;
        if still_blocked {
            s.blocked_at = t_resume;
            return Ok(RunResult::Blocked(s));
        }
        let mut live = s.live;
        live.breakdown.resumes += 1;
        self.stats.borrow_mut().resumes += 1;

        // Complete the parked hypercall — the one charged syscall the
        // blocking call is — exactly as the unblocked path would have.
        let vm = &live.vm;
        let delivered = vm.with_mem(|mem| hypercall::complete(mem, &self.kernel, s.wait));

        let end = match delivered {
            Ok(r0) => {
                vm.set_reg(Reg(0), r0);
                self.exec_segment(&mut live, true)
            }
            Err(fault) => SegmentEnd::Exit(ExitKind::Faulted(fault)),
        };
        let t_end = clock.now();
        live.breakdown.exec += t_end - t_resume;
        live.breakdown.total = live.breakdown.image + live.breakdown.exec;
        Ok(self.end_segment(live, end, t_end))
    }

    /// Kills a [`SuspendedRun`] without resuming it (e.g. a scheduler's
    /// block timeout fired). Returns the outcome — [`ExitKind::Blocked`] —
    /// and the used shell, which holds the dead invocation's state and
    /// never the warm token.
    pub fn abort_suspended(&self, s: SuspendedRun) -> (RunOutcome, UsedShell) {
        let mut live = s.live;
        live.breakdown.blocked += self.kernel.clock().now() - s.blocked_at;
        live.breakdown.total = live.breakdown.image + live.breakdown.exec;
        self.finish_run(live, ExitKind::Blocked)
    }

    /// One guest-execution segment: runs until the guest finishes or, in
    /// resumable mode, hits a blocking hypercall. Non-resumable callers
    /// see blocking calls degraded to their non-blocking form
    /// ([`crate::hypercall::WOULD_BLOCK`] in `r0`).
    fn exec_segment(&self, live: &mut Live, resumable: bool) -> SegmentEnd {
        let vm = &live.vm;
        loop {
            match vm.run(self.config.step_budget) {
                Err(fault) => return SegmentEnd::Exit(ExitKind::Faulted(fault)),
                Ok(VmExit::Hlt) => return SegmentEnd::Exit(ExitKind::Halted(vm.reg(Reg(0)))),
                Ok(VmExit::StepLimit) => return SegmentEnd::Exit(ExitKind::StepLimit),
                Ok(VmExit::IoIn { .. }) => {
                    return SegmentEnd::Exit(ExitKind::Killed("unexpected port read"))
                }
                Ok(VmExit::IoOut { port, value }) if port == HYPERCALL_PORT => {
                    live.hypercalls += 1;
                    self.stats.borrow_mut().hypercalls += 1;
                    let n = value;
                    if !live.policy.allows(n) {
                        self.stats.borrow_mut().denials += 1;
                        return SegmentEnd::Exit(ExitKind::Denied { nr: n });
                    }
                    let hc_args = [1, 2, 3, 4, 5].map(|r| vm.reg(Reg(r)));
                    let (kernel, invocation) = (&self.kernel, &mut live.invocation);
                    let outcome = vm.with_mem(|mem| {
                        hypercall::handle_canned(n, hc_args, mem, kernel, invocation)
                    });
                    match outcome {
                        Err(fault) => return SegmentEnd::Exit(ExitKind::Faulted(fault)),
                        Ok(HcOutcome::Resume(v)) => vm.set_reg(Reg(0), v),
                        Ok(HcOutcome::Exit(code)) => {
                            return SegmentEnd::Exit(ExitKind::Exited(code))
                        }
                        Ok(HcOutcome::Kill(reason)) => {
                            return SegmentEnd::Exit(ExitKind::Killed(reason))
                        }
                        Ok(HcOutcome::Block(wait)) => {
                            if resumable {
                                self.stats.borrow_mut().blocks += 1;
                                return SegmentEnd::Block(wait);
                            }
                            // No event loop above us: degrade to the
                            // non-blocking form. The probe-and-fail is a
                            // full syscall round trip, like EAGAIN.
                            self.kernel.syscall_overhead();
                            vm.set_reg(Reg(0), hypercall::WOULD_BLOCK);
                        }
                        Ok(HcOutcome::TakeSnapshot) => {
                            // Resume value is fixed *before* the snapshot so
                            // restored invocations observe the same state.
                            vm.set_reg(Reg(0), 0);
                            if live.snapshot_enabled {
                                let mut specs = self.specs.borrow_mut();
                                let entry = &mut specs[live.id.0];
                                if entry.snapshot.is_none() {
                                    let taken = Rc::new(live.capture_snapshot());
                                    entry.snapshot = Some(Rc::clone(&taken));
                                    // The capture reset the dirty log, so
                                    // from here the shell's state is this
                                    // snapshot plus the log: warm-parkable.
                                    live.armed = Some(taken);
                                    self.stats.borrow_mut().snapshots_taken += 1;
                                }
                            }
                        }
                    }
                }
                Ok(VmExit::IoOut { .. }) => {
                    return SegmentEnd::Exit(ExitKind::Killed("write to unknown port"))
                }
            }
        }
    }

    /// What a finished segment turns the run into: a suspension parked at
    /// `at`, or the final outcome.
    fn end_segment(&self, mut live: Live, end: SegmentEnd, at: Cycles) -> RunResult {
        match end {
            SegmentEnd::Block(wait) => {
                live.marks.extend(live.vm.take_marks());
                RunResult::Blocked(SuspendedRun {
                    live,
                    wait,
                    blocked_at: at,
                })
            }
            SegmentEnd::Exit(exit) => {
                let (outcome, used) = self.finish_run(live, exit);
                RunResult::Done(outcome, used)
            }
        }
    }

    /// Epilogue shared by first-segment, resumed, and aborted runs: decides
    /// warm-parkability and assembles the [`RunOutcome`].
    fn finish_run(&self, live: Live, exit: ExitKind) -> (RunOutcome, UsedShell) {
        let Live {
            vm,
            id,
            snapshot_enabled,
            invocation,
            hypercalls,
            mut marks,
            armed,
            breakdown,
            ..
        } = live;
        let ret = vm.reg(Reg(0));
        marks.extend(vm.take_marks());

        // The shell may park warm only when its state provably derives
        // from the spec's *current* snapshot (compared by Rc identity — a
        // concurrent invalidate/re-register voids the token) and the run
        // ended by normal means; abnormal exits (an aborted suspension
        // among them) take the wiped release out of caution and hygiene.
        let warm = if snapshot_enabled && exit.is_normal() {
            let current = self
                .specs
                .borrow()
                .get(id.0)
                .and_then(|e| e.snapshot.clone());
            match (armed, current) {
                (Some(a), Some(c)) if Rc::ptr_eq(&a, &c) => Some(a),
                _ => None,
            }
        } else {
            None
        };

        (
            RunOutcome {
                exit,
                ret,
                invocation,
                marks,
                hypercalls,
                breakdown,
            },
            UsedShell { vm, warm },
        )
    }

    /// One-shot convenience: registers a throwaway spec (no snapshotting)
    /// and runs it once. Used by microbenchmarks.
    pub fn launch_once(
        &self,
        image: Image,
        mem_size: usize,
        policy: HypercallMask,
        invocation: Invocation,
    ) -> Result<RunOutcome, WaspError> {
        let spec = VirtineSpec::new("<oneshot>", image, mem_size)
            .with_policy(policy)
            .with_snapshot(false);
        let id = self.register(spec)?;
        self.run(id, &[], invocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercall::{nr, WaitTarget};
    use crate::pool::CleanShell;
    use vclock::costs;

    fn wasp(mode: PoolMode) -> Wasp {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock, None);
        Wasp::new(
            Hypervisor::kvm(kernel),
            WaspConfig {
                pool_mode: mode,
                ..WaspConfig::default()
            },
        )
    }

    const MEM: usize = 64 * 1024;

    /// Starts `id` on a freshly created shell, spec policy only.
    fn start(w: &Wasp, id: VirtineId, args: &[u8], inv: Invocation, resumable: bool) -> RunResult {
        let run = ShellRun {
            shell: Shell::Created(CleanShell::create(w.hypervisor(), MEM)),
            id,
            args,
            invocation: inv,
            narrow: HypercallMask::ALLOW_ALL,
            resumable,
        };
        w.run_on_shell(run).unwrap()
    }

    fn start_resumable(w: &Wasp, id: VirtineId, invocation: Invocation) -> RunResult {
        start(w, id, &[], invocation, true)
    }

    fn image(src: &str) -> Image {
        crate::hypercall::assemble(src).expect("assemble")
    }

    #[test]
    fn halting_virtine_returns_r0() {
        let w = wasp(PoolMode::CachedAsync);
        let img = image(".org 0x8000\n mov r0, 41\n add r0, 1\n hlt\n");
        let out = w
            .launch_once(img, MEM, HypercallMask::DENY_ALL, Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Halted(42));
        assert_eq!(out.ret, 42);
        assert!(out.breakdown.total.get() > 0);
    }

    #[test]
    fn exit_hypercall_is_always_allowed() {
        let w = wasp(PoolMode::CachedAsync);
        let img = image(".org 0x8000\n mov r0, HC_EXIT\n mov r1, 7\n out HC_PORT, r0\n");
        let out = w
            .launch_once(img, MEM, HypercallMask::DENY_ALL, Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Exited(7));
    }

    #[test]
    fn default_deny_kills_other_hypercalls() {
        let w = wasp(PoolMode::CachedAsync);
        // Attempt a write under deny-all.
        let img = image(".org 0x8000\n mov r0, HC_WRITE\n mov r1, 1\n mov r2, 0x8000\n mov r3, 4\n out HC_PORT, r0\n hlt\n");
        let out = w
            .launch_once(img, MEM, HypercallMask::DENY_ALL, Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Denied { nr: nr::WRITE });
        assert_eq!(w.stats().denials, 1);
    }

    #[test]
    fn permissive_policy_lets_write_reach_stdout() {
        let w = wasp(PoolMode::CachedAsync);
        let img = image(
            "
.org 0x8000
  mov r0, HC_WRITE
  mov r1, 1          ; fd 1
  mov r2, msg
  mov r3, 5
  out HC_PORT, r0
  mov r4, r0         ; bytes written
  mov r0, HC_EXIT ; exit(0)
  mov r1, 0
  out HC_PORT, r0
msg: .ascii \"hello\"
",
        );
        let out = w
            .launch_once(img, MEM, HypercallMask::ALLOW_ALL, Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Exited(0));
        assert_eq!(out.invocation.stdout, b"hello");
        assert_eq!(out.hypercalls, 2);
    }

    #[test]
    fn args_are_marshalled_to_address_zero() {
        let w = wasp(PoolMode::CachedAsync);
        let img = image(".org 0x8000\n mov r1, 0\n load.q r0, [r1]\n hlt\n");
        let spec = VirtineSpec::new("args", img, MEM).with_snapshot(false);
        let id = w.register(spec).unwrap();
        let out = w
            .run(id, &1234u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Halted(1234));
    }

    #[test]
    fn snapshot_skips_reinitialization_on_second_run() {
        let w = wasp(PoolMode::CachedAsync);
        // "Init" stores 7 at 0x7000 slowly; snapshot; then read args and add.
        let img = image(
            "
.org 0x8000
  mov r1, 0x7000
  mov r2, 0
  mov r3, 0
init:
  add r2, 7
  add r3, 1
  cmp r3, 1000
  jl init
  store.q [r1], r2
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r4, 0
  load.q r5, [r4]      ; arg
  load.q r6, [r1]
  mov r0, r5
  add r0, r6
  hlt
",
        );
        let spec = VirtineSpec::new("snap", img, MEM); // Snapshot on by default.
        let id = w.register(spec).unwrap();

        let out1 = w
            .run(id, &1u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out1.exit, ExitKind::Halted(7001));
        assert!(!out1.breakdown.restored_snapshot);
        assert_eq!(w.stats().snapshots_taken, 1);

        let out2 = w
            .run(id, &2u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out2.exit, ExitKind::Halted(7002));
        assert!(out2.breakdown.restored_snapshot);
        assert_eq!(w.stats().snapshot_restores, 1);
        // The restored run skips the init loop: far fewer executed cycles.
        assert!(
            out2.breakdown.exec < out1.breakdown.exec,
            "restore exec {} !< cold exec {}",
            out2.breakdown.exec,
            out1.breakdown.exec
        );
    }

    /// The snapshot fixture: a slow init loop, a snapshot, then
    /// args-dependent work — run N's result is 7000 + arg.
    fn snap_image() -> Image {
        image(
            "
.org 0x8000
  mov r1, 0x7000
  mov r2, 0
  mov r3, 0
init:
  add r2, 7
  add r3, 1
  cmp r3, 1000
  jl init
  store.q [r1], r2
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r4, 0
  load.q r5, [r4]      ; arg
  load.q r6, [r1]
  mov r0, r5
  add r0, r6
  hlt
",
        )
    }

    #[test]
    fn second_run_is_a_warm_hit_with_a_tiny_delta() {
        let w = wasp(PoolMode::CachedAsync);
        let id = w
            .register(VirtineSpec::new("warm", snap_image(), MEM))
            .unwrap();

        // Run 1: cold boot, takes the snapshot mid-run, parks warm.
        let out1 = w
            .run(id, &1u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out1.exit, ExitKind::Halted(7001));
        assert!(!out1.breakdown.warm_hit);

        // Run 2: re-armed from the warm shell — a delta of a couple of
        // pages (the args page and any post-snapshot writes), not the full
        // sparse snapshot.
        let out2 = w
            .run(id, &2u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out2.exit, ExitKind::Halted(7002), "re-arm must be exact");
        assert!(out2.breakdown.warm_hit && out2.breakdown.restored_snapshot);
        assert!(out2.breakdown.reused_shell);
        // Run 1's args were put back after its snapshot was captured
        // without them, so the first re-arm copies the args page too; run 3
        // must copy back exactly the pages run 2 dirtied after its re-arm
        // (the args page).
        assert!(
            out2.breakdown.delta_pages <= 4,
            "delta of {} pages",
            out2.breakdown.delta_pages
        );
        let out3 = w
            .run(id, &3u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out3.exit, ExitKind::Halted(7003));
        assert!(out3.breakdown.warm_hit);
        assert!(
            (1..=4).contains(&out3.breakdown.delta_pages),
            "delta of {} pages",
            out3.breakdown.delta_pages
        );
        // The one-page re-arm costs more than loading this fixture's
        // 60-byte image did; what it buys is the init loop it skips.
        let start = |b: &Breakdown| b.image + b.exec;
        assert!(
            start(&out2.breakdown) < start(&out1.breakdown),
            "warm start {} !< cold start {}",
            start(&out2.breakdown),
            start(&out1.breakdown)
        );
        let stats = w.stats();
        assert_eq!(stats.warm_hits, 2);
        assert_eq!(
            stats.delta_pages_copied,
            out2.breakdown.delta_pages + out3.breakdown.delta_pages
        );
    }

    /// `snapshot(); return *(u64*)8` — reads the second argument word.
    fn second_arg_image() -> Image {
        image(".org 0x8000\n mov r0, HC_SNAPSHOT\n out HC_PORT, r0\n mov r1, 8\n load.q r0, [r1]\n hlt\n")
    }

    #[test]
    fn a_snapshot_never_carries_the_capturing_callers_args() {
        // §5.2: the snapshot is shared by every later caller of the spec.
        // The capturing caller passes two words; later callers pass one, or
        // none, and must read zero where the first caller's second word was
        // — through the full restore and through the warm re-arm alike.
        let mut first_args = 1u64.to_le_bytes().to_vec();
        first_args.extend(0xDEAD_BEEFu64.to_le_bytes());
        for warm_capacity in [0, crate::pool::DEFAULT_WARM_CAPACITY] {
            let w = Wasp::new(
                Hypervisor::kvm(HostKernel::new(Clock::new(), None)),
                WaspConfig {
                    warm_capacity,
                    ..WaspConfig::default()
                },
            );
            let id = w
                .register(VirtineSpec::new("leak", second_arg_image(), MEM))
                .unwrap();
            let first = w.run(id, &first_args, Invocation::default()).unwrap();
            assert_eq!(first.exit, ExitKind::Halted(0xDEAD_BEEF), "its own args");
            for args in [&2u64.to_le_bytes()[..], &[]] {
                let later = w.run(id, args, Invocation::default()).unwrap();
                assert!(later.breakdown.restored_snapshot);
                assert_eq!(later.breakdown.warm_hit, warm_capacity > 0);
                assert_eq!(
                    later.exit,
                    ExitKind::Halted(0),
                    "read the first caller's args"
                );
            }
        }
    }

    #[test]
    fn the_capturing_shell_rearms_to_exactly_the_snapshot() {
        // The capturing run's args went back into memory after the capture,
        // so its shell differs from the snapshot on the args page; that page
        // must be in the dirty log, or a delta re-arm would keep the args.
        let w = wasp(PoolMode::CachedAsync);
        let id = w
            .register(VirtineSpec::new("rearm", second_arg_image(), MEM))
            .unwrap();
        let RunResult::Done(_, used) = start(&w, id, &[0xAA; 16], Invocation::default(), false)
        else {
            unreachable!("non-resumable runs never suspend")
        };
        let (vm, snap) = (used.vm, used.warm.expect("parkable"));
        assert_eq!(vm.read_guest(ARGS_ADDR, 16).unwrap(), [0xAA; 16]);
        assert!(vm.dirty_log().contains(&0));
        vm.restore_delta(&snap);
        let full = w.hypervisor().create_vm(MEM, LOAD_ADDR);
        full.restore(&snap);
        assert_eq!(
            vm.read_guest(0, MEM).unwrap(),
            full.read_guest(0, MEM).unwrap()
        );
        assert_eq!(full.read_guest(ARGS_ADDR, 16).unwrap(), [0; 16]);
    }

    #[test]
    fn warm_hit_lands_near_the_vmrun_floor() {
        // Acceptance: warm-hit acquire+image must be within 2x of a bare
        // KVM_RUN round trip for a small-dirty-footprint virtine, versus
        // the full sparse restore on the cold (clean-shell) path.
        let w = wasp(PoolMode::CachedAsync);
        let id = w
            .register(VirtineSpec::new("floor", snap_image(), MEM))
            .unwrap();
        w.run(id, &1u64.to_le_bytes(), Invocation::default())
            .unwrap();
        let warm = w
            .run(id, &2u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert!(warm.breakdown.warm_hit);
        let warm_cost = (warm.breakdown.acquire + warm.breakdown.image).get();
        assert!(
            warm_cost <= 2 * costs::kvm_run_round_trip(),
            "warm acquire+image {warm_cost} > 2x vmrun floor {}",
            2 * costs::kvm_run_round_trip()
        );

        // Same virtine without warm caching: the full sparse restore.
        let clock = Clock::new();
        let cold_w = Wasp::new(
            Hypervisor::kvm(HostKernel::new(clock, None)),
            WaspConfig {
                warm_capacity: 0,
                ..WaspConfig::default()
            },
        );
        let id = cold_w
            .register(VirtineSpec::new("full", snap_image(), MEM))
            .unwrap();
        cold_w
            .run(id, &1u64.to_le_bytes(), Invocation::default())
            .unwrap();
        let full = cold_w
            .run(id, &2u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert!(full.breakdown.restored_snapshot && !full.breakdown.warm_hit);
        let full_cost = (full.breakdown.acquire + full.breakdown.image).get();
        assert!(
            warm_cost < full_cost,
            "warm {warm_cost} must beat full restore {full_cost}"
        );
    }

    #[test]
    fn invalidated_snapshot_makes_warm_shells_stale_and_wiped() {
        let w = wasp(PoolMode::CachedAsync);
        let id = w
            .register(VirtineSpec::new("stale", snap_image(), MEM))
            .unwrap();
        w.run(id, &1u64.to_le_bytes(), Invocation::default())
            .unwrap();
        w.invalidate_snapshot(id);
        // The parked warm shell no longer matches any current snapshot:
        // the runtime wipes it in place and cold-boots (retaking the
        // snapshot mid-run).
        let out = w
            .run(id, &2u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Halted(7002));
        assert!(!out.breakdown.warm_hit && !out.breakdown.restored_snapshot);
        assert_eq!(w.stats().warm_hits, 0);
        // The shell parks warm against the *new* snapshot and hits again.
        let out = w
            .run(id, &3u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert!(out.breakdown.warm_hit);
        assert_eq!(out.exit, ExitKind::Halted(7003));
    }

    #[test]
    fn zero_warm_capacity_preserves_the_full_restore_path() {
        let clock = Clock::new();
        let w = Wasp::new(
            Hypervisor::kvm(HostKernel::new(clock, None)),
            WaspConfig {
                warm_capacity: 0,
                ..WaspConfig::default()
            },
        );
        let id = w
            .register(VirtineSpec::new("off", snap_image(), MEM))
            .unwrap();
        w.run(id, &1u64.to_le_bytes(), Invocation::default())
            .unwrap();
        let out = w
            .run(id, &2u64.to_le_bytes(), Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::Halted(7002));
        assert!(out.breakdown.restored_snapshot && !out.breakdown.warm_hit);
        assert_eq!(w.stats().warm_hits, 0);
    }

    #[test]
    fn abnormal_exits_never_park_warm() {
        let w = wasp(PoolMode::CachedAsync);
        // Snapshots, then attempts a denied hypercall (write under
        // deny-all): the run ends Denied and the shell must be wiped, not
        // parked warm.
        let img = image(
            ".org 0x8000\n mov r0, HC_SNAPSHOT\n out HC_PORT, r0\n mov r0, HC_WRITE\n mov r1, 1\n mov r2, 0x8000\n mov r3, 4\n out HC_PORT, r0\n hlt\n",
        );
        let id = w.register(VirtineSpec::new("deny", img, MEM)).unwrap();
        let RunResult::Done(out, used) = start(&w, id, &[], Invocation::default(), false) else {
            unreachable!("non-resumable runs never suspend")
        };
        assert!(matches!(out.exit, ExitKind::Denied { .. }));
        assert!(!used.warm_parkable());
        w.run(id, &[], Invocation::default()).unwrap();
        let out2 = w.run(id, &[], Invocation::default()).unwrap();
        assert!(
            !out2.breakdown.warm_hit,
            "no warm shell may survive an abnormal exit"
        );
    }

    #[test]
    fn snapshot_disabled_by_config_flag() {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock, None);
        let w = Wasp::new(
            Hypervisor::kvm(kernel),
            WaspConfig {
                disable_snapshots: true,
                ..WaspConfig::default()
            },
        );
        let img = image(".org 0x8000\n mov r0, HC_SNAPSHOT\n out HC_PORT, r0\n hlt\n");
        let id = w.register(VirtineSpec::new("s", img, MEM)).unwrap();
        w.run(id, &[], Invocation::default()).unwrap();
        let out = w.run(id, &[], Invocation::default()).unwrap();
        assert!(!out.breakdown.restored_snapshot);
        assert_eq!(w.stats().snapshots_taken, 0);
    }

    #[test]
    fn guest_fault_is_contained_and_reported() {
        let w = wasp(PoolMode::CachedAsync);
        let img = image(".org 0x8000\n mov r1, 0x200000\n load.q r0, [r1]\n hlt\n");
        let out = w
            .launch_once(img, MEM, HypercallMask::DENY_ALL, Invocation::default())
            .unwrap();
        assert!(matches!(out.exit, ExitKind::Faulted(_)));
        // The runtime survives and can run more virtines.
        let ok = w
            .launch_once(
                image(".org 0x8000\n hlt\n"),
                MEM,
                HypercallMask::DENY_ALL,
                Invocation::default(),
            )
            .unwrap();
        assert_eq!(ok.exit, ExitKind::Halted(0));
    }

    #[test]
    fn virtines_cannot_see_each_others_data() {
        // Virtine A writes a secret; virtine B (same spec, new invocation)
        // reads the same address and must see zero (§3.1 virtine isolation).
        let w = wasp(PoolMode::CachedAsync);
        let writer =
            image(".org 0x8000\n mov r1, 0x5000\n mov r2, 0xDEAD\n store.q [r1], r2\n hlt\n");
        let reader = image(".org 0x8000\n mov r1, 0x5000\n load.q r0, [r1]\n hlt\n");
        let wid = w
            .register(VirtineSpec::new("w", writer, MEM).with_snapshot(false))
            .unwrap();
        let rid = w
            .register(VirtineSpec::new("r", reader, MEM).with_snapshot(false))
            .unwrap();
        w.run(wid, &[], Invocation::default()).unwrap();
        let out = w.run(rid, &[], Invocation::default()).unwrap();
        assert_eq!(
            out.exit,
            ExitKind::Halted(0),
            "secret leaked across virtines"
        );
    }

    #[test]
    fn image_too_large_is_rejected() {
        let w = wasp(PoolMode::CachedAsync);
        let mut img = image(".org 0x8000\n hlt\n");
        img.pad_to(MEM);
        let err = w.register(VirtineSpec::new("big", img, MEM)).unwrap_err();
        assert!(matches!(err, WaspError::ImageTooLarge { .. }));
    }

    #[test]
    fn pool_reuse_shows_up_in_breakdown() {
        let w = wasp(PoolMode::CachedAsync);
        let img = image(".org 0x8000\n hlt\n");
        let id = w
            .register(VirtineSpec::new("p", img, MEM).with_snapshot(false))
            .unwrap();
        let cold = w.run(id, &[], Invocation::default()).unwrap();
        let warm = w.run(id, &[], Invocation::default()).unwrap();
        assert!(!cold.breakdown.reused_shell);
        assert!(warm.breakdown.reused_shell);
        assert!(
            warm.breakdown.acquire.get() * 50 < cold.breakdown.acquire.get(),
            "warm acquire {} vs cold acquire {}",
            warm.breakdown.acquire,
            cold.breakdown.acquire
        );
    }

    /// A connection-bound guest: stores a sentinel, blocking-recvs into
    /// 0x4000, and halts with the recv return value in `r0`.
    fn recv_image() -> Image {
        image(
            "
.org 0x8000
  mov r4, 0x5000
  mov r5, 0xDEAD
  store.q [r4], r5     ; per-invocation secret (wipe-on-kill check)
  mov r0, HC_RECV
  mov r1, 0x4000       ; buf
  mov r2, 64           ; max_len
  mov r3, 0            ; flags: blocking
  out HC_PORT, r0
  hlt
",
        )
    }

    /// A listening kernel plus an accepted connection pair.
    fn conn_pair(w: &Wasp, port: u16) -> (hostsim::SockId, hostsim::SockId) {
        let k = w.kernel();
        k.net_listen(port).unwrap();
        let client = k.net_connect(port).unwrap();
        let server = k.net_accept(port).unwrap().unwrap();
        (client, server)
    }

    fn recv_spec(w: &Wasp) -> VirtineId {
        w.register(
            VirtineSpec::new("recv", recv_image(), MEM)
                .with_policy(HypercallMask::allowing(&[nr::RECV]))
                .with_snapshot(false),
        )
        .unwrap()
    }

    #[test]
    fn blocked_then_resumed_run_charges_the_same_guest_cycles_as_unblocked() {
        // Run A: the data is already queued, so the run never blocks.
        let w = wasp(PoolMode::CachedAsync);
        let (client, server) = conn_pair(&w, 80);
        let id = recv_spec(&w);
        w.kernel().net_send(client, b"ping").unwrap();
        let RunResult::Done(out_a, _) = start_resumable(&w, id, Invocation::with_conn(server))
        else {
            panic!("pre-sent data must not block");
        };
        assert_eq!(out_a.exit, ExitKind::Halted(4));
        assert_eq!(out_a.breakdown.resumes, 0);
        assert_eq!(out_a.breakdown.blocked, Cycles::ZERO);

        // Run B: same guest, empty socket — blocks, waits out some virtual
        // time, then resumes when the bytes arrive.
        let w = wasp(PoolMode::CachedAsync);
        let (client, server) = conn_pair(&w, 80);
        let id = recv_spec(&w);
        let RunResult::Blocked(s) = start_resumable(&w, id, Invocation::with_conn(server)) else {
            panic!("empty socket must block");
        };
        assert_eq!(w.stats().blocks, 1);
        // Unrelated platform work passes while the run is parked.
        w.clock().tick(1_000_000);
        w.kernel().net_send(client, b"ping").unwrap();
        let RunResult::Done(out_b, _) = w.resume_on_shell(s).unwrap() else {
            panic!("readable socket must resume to completion");
        };
        assert_eq!(out_b.exit, ExitKind::Halted(4));
        assert_eq!(out_b.breakdown.resumes, 1);
        assert!(out_b.breakdown.blocked.get() >= 1_000_000);
        assert_eq!(w.stats().resumes, 1);

        // The acceptance invariant: segments sum to the unblocked figure —
        // no double-charged re-entry, and parked time stays out of
        // exec/total.
        assert_eq!(
            out_b.breakdown.exec, out_a.breakdown.exec,
            "blocked-then-resumed exec must equal the unblocked run's"
        );
        assert_eq!(out_b.breakdown.total, out_a.breakdown.total);
        assert_eq!(out_b.hypercalls, out_a.hypercalls);
    }

    /// One run parked three times on its connection — `recv`, `read(0)`,
    /// then `recv` again — carries its marks, its segmented clock and its
    /// exec charge through every park unchanged.
    #[test]
    fn a_run_parked_three_times_sums_its_segments() {
        let img = image(
            "
.org 0x8000
  mark 1
  mov r0, HC_RECV ; recv (blocking) into 0x4000
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0
  out HC_PORT, r0
  mark 2
  mov r0, HC_READ ; read(0) (always blocking) into 0x4100
  mov r1, 0
  mov r2, 0x4100
  mov r3, 64
  out HC_PORT, r0
  mark 3
  mov r0, HC_RECV ; recv (blocking) into 0x4200
  mov r1, 0x4200
  mov r2, 64
  mov r3, 0
  out HC_PORT, r0
  mark 4
  hlt
",
        );
        let setup = || {
            let w = wasp(PoolMode::CachedAsync);
            let (client, server) = conn_pair(&w, 80);
            let policy = HypercallMask::allowing(&[nr::RECV, nr::READ]);
            let spec = VirtineSpec::new("three_waits", img.clone(), MEM).with_policy(policy);
            let id = w.register(spec.with_snapshot(false)).unwrap();
            (w, id, Invocation::with_conn(server), client)
        };
        let mark_ids = |out: &RunOutcome| out.marks.iter().map(|m| m.0).collect::<Vec<_>>();

        // Run A: every wait is already satisfied — no park.
        let (w, id, invocation, client) = setup();
        for msg in [&b"ping"[..], b"go", b"pong"] {
            w.kernel().net_send(client, msg).unwrap();
        }
        let RunResult::Done(out_a, _) = start_resumable(&w, id, invocation) else {
            panic!("satisfied waits must not block");
        };
        assert_eq!(out_a.exit, ExitKind::Halted(4));
        assert_eq!((out_a.hypercalls, out_a.breakdown.resumes), (3, 0));
        assert_eq!(mark_ids(&out_a), [1, 2, 3, 4]);

        // Run B: nothing is ready at any of the three calls.
        let (w, id, invocation, client) = setup();
        let clock = w.clock();
        let shell = ShellRun {
            shell: Shell::Created(CleanShell::create(w.hypervisor(), MEM)),
            id,
            args: &[],
            invocation,
            narrow: HypercallMask::ALLOW_ALL,
            resumable: true,
        };
        let t0 = clock.now();
        let mut run = w.run_on_shell(shell).unwrap();
        // Time inside `run_on_shell`/`resume_on_shell`, and parked outside.
        let (mut inside, mut parked) = (clock.now() - t0, Cycles::ZERO);
        for (park, msg) in [&b"ping"[..], b"go", b"pong"].into_iter().enumerate() {
            let RunResult::Blocked(s) = run else {
                panic!("wait {park} must park");
            };
            assert_eq!(s.live.breakdown.resumes as usize, park);
            assert_eq!(s.live.breakdown.blocked, parked);
            assert_eq!(s.live.breakdown.total, inside, "segments so far");
            // Unrelated platform work passes, then the wait is satisfied.
            clock.tick(1_000_000 * (park as u64 + 1));
            w.kernel().net_send(client, msg).unwrap();
            let before = clock.now();
            parked += before - s.blocked_at;
            run = w.resume_on_shell(s).unwrap();
            inside += clock.now() - before;
        }
        let RunResult::Done(out_b, _) = run else {
            panic!("the third resume must run to completion");
        };
        assert_eq!(out_b.exit, ExitKind::Halted(4));

        // The totals are the sums of the segments...
        assert_eq!(out_b.breakdown.resumes, 3);
        assert_eq!(out_b.breakdown.blocked, parked);
        assert_eq!(out_b.breakdown.total, inside);
        assert_eq!(out_b.breakdown.image + out_b.breakdown.exec, inside);
        assert_eq!(mark_ids(&out_b), [1, 2, 3, 4], "marks survive every park");
        // ...and the guest pays exactly what the unblocked run pays.
        assert_eq!(out_b.breakdown.image, out_a.breakdown.image);
        assert_eq!(out_b.breakdown.exec, out_a.breakdown.exec);
        assert_eq!(out_b.hypercalls, out_a.hypercalls);
    }

    #[test]
    fn a_number_past_return_data_kills_or_is_denied() {
        // No hypercall is numbered past `return_data`: allowed, the call
        // is unknown and kills; masked, it is denied like any other.
        for n in nr::COUNT..15 {
            let img = image(&format!(
                ".org 0x8000
 mov r0, {n}
 out HC_PORT, r0
 hlt
"
            ));
            let w = wasp(PoolMode::CachedAsync);
            let out = w
                .launch_once(
                    img.clone(),
                    MEM,
                    HypercallMask::ALLOW_ALL,
                    Invocation::default(),
                )
                .unwrap();
            assert_eq!(out.exit, ExitKind::Killed("unknown hypercall"), "{n}");
            let exit_only = HypercallMask::allowing(&[nr::EXIT]);
            let out = w
                .launch_once(img, MEM, exit_only, Invocation::default())
                .unwrap();
            assert_eq!(out.exit, ExitKind::Denied { nr: n }, "{n}");
        }
    }

    #[test]
    fn spurious_resume_reparks_without_charging_exec() {
        let w = wasp(PoolMode::CachedAsync);
        let (client, server) = conn_pair(&w, 80);
        let id = recv_spec(&w);
        let RunResult::Blocked(s) = start_resumable(&w, id, Invocation::with_conn(server)) else {
            panic!("must block");
        };
        let exec_before = s.live.breakdown.exec;
        let RunResult::Blocked(s) = w.resume_on_shell(s).unwrap() else {
            panic!("still no data: must re-park");
        };
        assert_eq!(s.live.breakdown.exec, exec_before);
        assert_eq!(s.live.breakdown.resumes, 0);
        assert_eq!(w.stats().resumes, 0);
        w.kernel().net_send(client, b"ok").unwrap();
        let RunResult::Done(out, _) = w.resume_on_shell(s).unwrap() else {
            panic!("must complete");
        };
        assert_eq!(out.exit, ExitKind::Halted(2));
    }

    #[test]
    fn peer_close_while_parked_resumes_to_a_clean_eof() {
        let w = wasp(PoolMode::CachedAsync);
        let (client, server) = conn_pair(&w, 80);
        let id = recv_spec(&w);
        let RunResult::Blocked(s) = start_resumable(&w, id, Invocation::with_conn(server)) else {
            panic!("must block");
        };
        w.kernel().net_close(client).unwrap();
        let RunResult::Done(out, _) = w.resume_on_shell(s).unwrap() else {
            panic!("EOF is readable");
        };
        assert_eq!(out.exit, ExitKind::Halted(0), "EOF is 0, not an error");
    }

    #[test]
    fn aborted_suspended_run_reports_blocked_and_the_shell_wipes_clean() {
        let w = wasp(PoolMode::CachedAsync);
        let (_client, server) = conn_pair(&w, 80);
        let id = recv_spec(&w);
        let RunResult::Blocked(s) = start_resumable(&w, id, Invocation::with_conn(server)) else {
            panic!("must block");
        };
        assert_eq!(s.wait().target, WaitTarget::Sock(server));
        let (out, used) = w.abort_suspended(s);
        assert_eq!(out.exit, ExitKind::Blocked);
        assert!(!out.exit.is_normal());
        assert!(!used.warm_parkable(), "a killed block never parks warm");
        // The shell still holds the parked invocation's secret; the wiped
        // release erases it before any reuse.
        assert_eq!(
            u64::from_le_bytes(used.read_guest(0x5000, 8).unwrap().try_into().unwrap()),
            0xDEAD
        );
        let mut pool = Pool::new(PoolMode::CachedAsync);
        pool.release(used);
        let Shell::Clean(c) = pool.acquire(w.hypervisor(), MEM) else {
            panic!("the released shell is reused");
        };
        assert!(
            c.0.read_guest(0x5000, 8).unwrap().iter().all(|&b| b == 0),
            "secret survived the wipe"
        );
    }

    #[test]
    fn non_resumable_run_degrades_blocking_recv_to_would_block() {
        let w = wasp(PoolMode::CachedAsync);
        let (_client, server) = conn_pair(&w, 80);
        let id = recv_spec(&w);
        // Wasp::run has no event loop: the guest sees the sentinel rather
        // than the runtime deadlocking on a wait nobody will satisfy.
        let out = w.run(id, &[], Invocation::with_conn(server)).unwrap();
        assert_eq!(out.exit, ExitKind::Halted(crate::hypercall::WOULD_BLOCK));
        assert_eq!(w.stats().blocks, 0, "degraded calls are not suspensions");
    }

    #[test]
    fn step_limit_watchdog() {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock, None);
        let w = Wasp::new(
            Hypervisor::kvm(kernel),
            WaspConfig {
                step_budget: 1_000,
                ..WaspConfig::default()
            },
        );
        let img = image(".org 0x8000\nspin: jmp spin\n");
        let out = w
            .launch_once(img, MEM, HypercallMask::DENY_ALL, Invocation::default())
            .unwrap();
        assert_eq!(out.exit, ExitKind::StepLimit);
    }
}
