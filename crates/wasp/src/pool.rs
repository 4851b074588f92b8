//! The virtine shell pool: caching and recycling of virtual contexts.
//!
//! §5.2: "Wasp supports a pool of cached, uninitialized, virtines (shells)
//! that can be reused. … once we do this, and the relevant virtine returns,
//! we can clear its context, preventing information leakage, and cache it in
//! a pool of 'clean' virtines so the host OS need not pay the expensive cost
//! of re-allocating virtual hardware contexts."
//!
//! Three modes reproduce the Figure 8 bars:
//!
//! * [`PoolMode::Disabled`] — every request creates a VM from scratch
//!   ("Wasp");
//! * [`PoolMode::Cached`] — shells are recycled, and the memory wipe is
//!   charged synchronously on release ("Wasp+C");
//! * [`PoolMode::CachedAsync`] — shells are recycled and wiped in the
//!   background, off the request path ("Wasp+CA").
//!
//! On top of the paper's clean pool, a shell that just ran a *snapshotted*
//! virtine can park **warm**: still holding the restored state, keyed by
//! `(tenant, virtine)`, with the dirty-page log recording exactly which
//! pages the invocation diverged from the snapshot. Re-acquiring it re-arms
//! by copying back only those pages (`kvmsim::VmFd::restore_delta`) instead
//! of the full sparse snapshot — the SEUSS/Faasm-style resident warm
//! context, at hardware-dirty-logging exactness.
//!
//! ## Shell states
//!
//! A shell's lifecycle state is its type. Each type is move-only and owns
//! the shell's one `kvmsim::VmFd`, which no type hands out beyond this
//! crate, so every transition is a call that consumes one state and returns
//! the next:
//!
//! | type | holds | made by | leaves by |
//! |---|---|---|---|
//! | [`CleanShell`] | no non-zero byte, a vCPU in the reset state | `KVM_CREATE_VM` ([`CleanShell::create`], a pool miss, [`Pool::prewarm`]) or a wipe | a run: [`Wasp::run_on_shell`](crate::Wasp::run_on_shell) installs it, as [`Shell::Created`] or [`Shell::Clean`] |
//! | [`WarmShell`] | a snapshot plus the dirty-page log, keyed `(tenant, virtine)` | [`Pool::release_warm`] of a used shell that carries the warm token | a run as [`Shell::Warm`] — the delta re-arm when its snapshot is still the spec's current one (`Rc` identity), a wipe otherwise — or a wipe in the pool |
//! | [`UsedShell`] | whatever the run left | a finished run ([`RunResult::Done`](crate::RunResult::Done)) or [`Wasp::abort_suspended`](crate::Wasp::abort_suspended) | [`Pool::release`] (a wipe), [`Pool::release_warm`] (a warm park when the run left the token, a wipe otherwise), [`Pool::drop_shell`] |
//!
//! Between install and outcome the runtime holds the shell; a run blocked
//! in a wait holds it inside its [`SuspendedRun`](crate::SuspendedRun),
//! outside every pool, so no acquire, steal or demotion can reach it. Warm
//! and clean shells also move between pools whole ([`Pool::export_warm_lru`]
//! / [`Pool::import_warm`], [`Pool::take_idle`] / [`Pool::adopt_idle`]).
//!
//! Each exit's wipe, and who pays for it. `VmFd::clean` charges the memset
//! of the dirty extents to the shared clock; `VmFd::clean_async` does the
//! same work off it. Either way the pages the run touched are zeroed
//! eagerly, so a shell on a clean list holds no non-zero byte:
//!
//! | exit | wipe | paid by |
//! |---|---|---|
//! | [`Pool::release`], and [`Pool::release_warm`] without the token | `clean` under [`PoolMode::Cached`], `clean_async` under [`PoolMode::CachedAsync`], a drop under [`PoolMode::Disabled`] | the releasing caller's clock under `Cached` (a `Wasp::run`'s `Breakdown::release`); nobody otherwise |
//! | a warm shell evicted over capacity by a park or an import, [`Pool::demote_oldest_warm`] | `clean` under `Cached`, `clean_async` otherwise | the caller that parks, imports or demotes, under `Cached`; nobody otherwise |
//! | [`Pool::take_warm_victim_of`] (a demotion or a demote-steal on the acquire path) | `clean`, in every mode | the *requester's* acquire: the request that found no clean shell, whoever parked the victim |
//! | a stale [`Shell::Warm`] (its snapshot is no longer the spec's) | `clean`, in the runtime's install | the request, in `Breakdown::image` |
//! | a drop: [`Pool::drop_shell`], [`Pool::drop_all_shells`], [`Pool::drop_idle`], a `Disabled` release, an abandoned `SuspendedRun` | the `VmFd`'s drop, which retires the wiped buffer and its vCPU's block cache to the thread's spare list | nobody: a destroyed context is off the books |
//!
//! `KVM_CREATE_VM` is charged in full, always a new vCPU in the reset
//! state, on such a retired shell — already zero, its block cache adopted
//! as a cleaned shell's is — when the thread has one of the size: the state
//! `clean_async` leaves.
//!
//! **Isolation argument.** §5.2's no-information-leakage guarantee is that
//! a shell reaches another key only through a wipe, and a warm shell only
//! its own key, re-armed. The types above hold it; each `compile_fail`
//! block below is a move they refuse, beside a compiling sibling that makes
//! the legal one and differs from it in exactly one line (a unit test,
//! `each_compile_fail_doctest_differs_from_its_sibling_in_one_line`, holds
//! that, so the refused move is the only reason the block fails). A warm shell is not a clean one — it runs only as
//! [`Shell::Warm`], where the runtime re-arms or wipes it:
//!
//! ```compile_fail,E0308
//! # use wasp::{HypercallMask, Invocation, Shell, ShellRun, VirtineId, WarmShell};
//! fn start(warm: WarmShell, id: VirtineId) -> ShellRun<'static> {
//!     let shell = Shell::Clean(warm);
//!     let narrow = HypercallMask::ALLOW_ALL;
//!     ShellRun { shell, id, args: &[], invocation: Invocation::default(), narrow, resumable: false }
//! }
//! ```
//! ```
//! # use wasp::{HypercallMask, Invocation, Shell, ShellRun, VirtineId, WarmShell};
//! fn start(warm: WarmShell, id: VirtineId) -> ShellRun<'static> {
//!     let shell = Shell::Warm(warm);
//!     let narrow = HypercallMask::ALLOW_ALL;
//!     ShellRun { shell, id, args: &[], invocation: Invocation::default(), narrow, resumable: false }
//! }
//! ```
//!
//! A used shell reaches a clean list only through a wipe:
//!
//! ```compile_fail,E0308
//! # use wasp::{Pool, UsedShell};
//! fn recycle(pool: &mut Pool, used: UsedShell) {
//!     pool.adopt_idle(used);
//! }
//! ```
//! ```
//! # use wasp::{Pool, UsedShell};
//! fn recycle(pool: &mut Pool, used: UsedShell) {
//!     pool.release(used);
//! }
//! ```
//!
//! A clean shell has no `KVM_RUN` of its own: it runs only through
//! [`Wasp::run_on_shell`](crate::Wasp::run_on_shell), which installs an
//! image or a snapshot on it first:
//!
//! ```compile_fail,E0616
//! # use wasp::{CleanShell, HypercallMask, Invocation, Shell, ShellRun, VirtineId, Wasp};
//! fn start(wasp: &Wasp, clean: CleanShell, id: VirtineId) {
//!     let narrow = HypercallMask::ALLOW_ALL;
//!     let invocation = Invocation::default();
//!     let _ = (wasp, id, narrow, invocation, clean.0.run(1_000));
//! }
//! ```
//! ```
//! # use wasp::{CleanShell, HypercallMask, Invocation, Shell, ShellRun, VirtineId, Wasp};
//! fn start(wasp: &Wasp, clean: CleanShell, id: VirtineId) {
//!     let narrow = HypercallMask::ALLOW_ALL;
//!     let invocation = Invocation::default();
//!     let _ = wasp.run_on_shell(ShellRun { shell: Shell::Clean(clean), id, args: &[], invocation, narrow, resumable: false });
//! }
//! ```
//!
//! The rest is tests over the state the types leave: a recycled, demoted
//! or re-created shell serves the next tenant exactly as a never-used one
//! does (`tests/isolation/`).

use std::cmp::Reverse;
use std::collections::HashMap;
use std::rc::Rc;

use kvmsim::{Hypervisor, VmFd, VmSnapshot};
use vclock::costs;
use visa::cpu::Fault;

use crate::runtime::LOAD_ADDR;

/// Shell caching policy (§5.2, Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolMode {
    /// No pooling: from-scratch `KVM_CREATE_VM` per request ("Wasp").
    Disabled,
    /// Pooling with synchronous cleaning on release ("Wasp+C").
    Cached,
    /// Pooling with asynchronous (background) cleaning ("Wasp+CA").
    #[default]
    CachedAsync,
}

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Shells created from scratch (pool misses or pooling disabled).
    pub created: u64,
    /// Shells served from the pool (clean reuse *and* warm hits).
    pub reused: u64,
    /// Shells returned to the pool (clean *and* warm parks).
    pub released: u64,
    /// Warm shells handed out for a delta re-arm (a subset of `reused`).
    /// Counted at acquire time: a shell whose snapshot went stale while
    /// parked is still wiped by the runtime, so *confirmed* warm hits are
    /// the runtime's (`WaspStats::warm_hits`) and the dispatcher's
    /// numbers.
    pub warm_acquired: u64,
    /// Shells parked warm (a subset of `released`).
    pub warm_parked: u64,
    /// Warm shells demoted to the clean list via a full wipe (LRU
    /// eviction, cross-key fallback, or work stealing).
    pub warm_demoted: u64,
    /// Shells destroyed outright — fault injection (a killed shell or
    /// shard) or a failed shard's teardown. A dropped shell's hardware
    /// context is gone; the inventory invariant becomes
    /// `resident == created - dropped`.
    pub dropped: u64,
}

impl std::ops::AddAssign for PoolStats {
    /// Field-wise sum (a dispatcher totals its shard pools this way).
    fn add_assign(&mut self, o: PoolStats) {
        self.created += o.created;
        self.reused += o.reused;
        self.released += o.released;
        self.warm_acquired += o.warm_acquired;
        self.warm_parked += o.warm_parked;
        self.warm_demoted += o.warm_demoted;
        self.dropped += o.dropped;
    }
}

/// A shell that holds no byte of any earlier run, its vCPU in the reset
/// state at [`LOAD_ADDR`]: made only by `KVM_CREATE_VM`
/// or a wipe.
#[derive(Debug)]
pub struct CleanShell(pub(crate) VmFd);

impl CleanShell {
    /// `KVM_CREATE_VM` with `mem_size` bytes of guest memory, charged in
    /// full.
    pub fn create(hv: &Hypervisor, mem_size: usize) -> CleanShell {
        CleanShell(hv.create_vm(mem_size, LOAD_ADDR))
    }

    /// Zeroes the pages `vm` touched and resets its vCPU: the memset
    /// charged to the shared clock (`VmFd::clean`) or done off it
    /// (`VmFd::clean_async`).
    pub(crate) fn wipe(vm: VmFd, charged: bool) -> CleanShell {
        if charged {
            vm.clean(LOAD_ADDR);
        } else {
            vm.clean_async(LOAD_ADDR);
        }
        CleanShell(vm)
    }
}

/// A shell parked still holding the state a snapshotted run left — its
/// snapshot plus the dirty-page log — keyed to the `(tenant, virtine)`
/// that parked it. Opaque: it runs only as [`Shell::Warm`] for that key
/// (see the [module docs](self)), and otherwise leaves by a wipe.
#[derive(Debug)]
pub struct WarmShell {
    /// Opaque tenant tag (the dispatcher uses tenant indices; Wasp's own
    /// single-client pool uses 0).
    tenant: u64,
    /// `VirtineId::into_raw` of the virtine whose snapshot the state
    /// derives from.
    virtine: usize,
    pub(crate) vm: VmFd,
    /// The exact snapshot the shell's state derives from; compared by
    /// `Rc` identity on re-arm so a re-registered or invalidated snapshot
    /// can never be delta-restored against stale state.
    pub(crate) snap: Rc<VmSnapshot>,
    /// Park-order stamp for LRU decisions. Pool-local parks use the
    /// pool's own counter; a dispatcher spanning many pools passes a
    /// shared counter ([`Pool::release_warm_stamped`]) so "least recently
    /// parked" is comparable *across* shard pools.
    stamp: u64,
}

/// The shell a finished or aborted run gives back, holding whatever the
/// run left. It reaches a pool only through [`Pool::release`] or
/// [`Pool::release_warm`], or is destroyed by [`Pool::drop_shell`].
#[derive(Debug)]
pub struct UsedShell {
    pub(crate) vm: VmFd,
    /// The warm token: set only when the run exited normally and the
    /// shell's state provably equals this snapshot — the spec's current
    /// one — plus the dirty-page log.
    pub(crate) warm: Option<Rc<VmSnapshot>>,
}

impl UsedShell {
    /// Whether the run left the warm token: [`Pool::release_warm`] parks
    /// the shell warm instead of wiping it.
    pub fn warm_parkable(&self) -> bool {
        self.warm.is_some()
    }

    /// Reads what the run left in guest memory (bounds-checked).
    pub fn read_guest(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        self.vm.read_guest(addr, len)
    }

    /// Pages the run wrote since its shell was last snapshotted or
    /// restored (`kvmsim::VmFd::dirty_log`).
    pub fn dirty_log(&self) -> Vec<u64> {
        self.vm.dirty_log()
    }
}

/// The shell a run starts on ([`crate::ShellRun::shell`]); the runtime's
/// install step picks its re-arm by the variant.
#[derive(Debug)]
pub enum Shell {
    /// New from `KVM_CREATE_VM`.
    Created(CleanShell),
    /// Reused from a clean list.
    Clean(CleanShell),
    /// Parked warm: delta re-armed when its snapshot is still the spec's
    /// current one, wiped in place (charged) before the ordinary install
    /// otherwise.
    Warm(WarmShell),
}

/// The pool itself. Shells are segregated by guest-memory size: a shell's
/// hardware context is sized when created, so only same-sized requests can
/// reuse it. Warm shells additionally carry their `(tenant, virtine)` key.
#[derive(Debug)]
pub struct Pool {
    mode: PoolMode,
    clean: HashMap<usize, Vec<CleanShell>>,
    /// Warm shells in LRU order: oldest at the front, newest parks at the
    /// back. Bounded by `warm_capacity` (warm shells keep full guest state
    /// resident, so the cache is memory-bounded by design).
    warm: Vec<WarmShell>,
    warm_capacity: usize,
    /// Pool-local park-order counter (see [`WarmShell::stamp`]).
    warm_seq: u64,
    stats: PoolStats,
}

/// Default bound on resident warm shells per pool.
pub const DEFAULT_WARM_CAPACITY: usize = 8;

impl Pool {
    /// Creates a pool. Warm caching starts at [`DEFAULT_WARM_CAPACITY`];
    /// tune with [`Pool::with_warm_capacity`].
    pub fn new(mode: PoolMode) -> Pool {
        Pool {
            mode,
            clean: HashMap::new(),
            warm: Vec::new(),
            warm_capacity: DEFAULT_WARM_CAPACITY,
            warm_seq: 0,
            stats: PoolStats::default(),
        }
    }

    /// Sets the warm-shell bound (builder style). Zero disables warm
    /// caching entirely: `release_warm` degrades to a normal wiped release.
    pub fn with_warm_capacity(mut self, capacity: usize) -> Pool {
        self.warm_capacity = capacity;
        self
    }

    /// Statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of clean shells currently parked.
    pub fn idle_shells(&self) -> usize {
        self.clean.values().map(Vec::len).sum()
    }

    /// Number of clean shells parked for a specific guest-memory size.
    pub fn idle_shells_of(&self, mem_size: usize) -> usize {
        self.clean.get(&mem_size).map_or(0, Vec::len)
    }

    /// Number of warm shells currently parked.
    pub fn warm_shells(&self) -> usize {
        self.warm.len()
    }

    /// Number of warm shells parked of a specific guest-memory size.
    pub fn warm_shells_of(&self, mem_size: usize) -> usize {
        self.warm
            .iter()
            .filter(|w| w.vm.mem_size() == mem_size)
            .count()
    }

    /// Whether a warm shell is parked for `(tenant, virtine)` — the
    /// snapshot-aware placement probe.
    pub fn has_warm(&self, tenant: u64, virtine: usize) -> bool {
        self.warm
            .iter()
            .any(|w| w.tenant == tenant && w.virtine == virtine)
    }

    /// Number of warm shells a tenant has parked in this pool — summed
    /// across pools by the dispatcher to enforce cross-shard warm quotas.
    pub fn warm_shells_of_tenant(&self, tenant: u64) -> usize {
        self.warm.iter().filter(|w| w.tenant == tenant).count()
    }

    /// Park-order stamp of the least-recently-parked warm shell,
    /// optionally restricted to one tenant. Cross-pool comparable when
    /// every park went through [`Pool::release_warm_stamped`] with a
    /// shared counter.
    pub fn oldest_warm_stamp(&self, tenant: Option<u64>) -> Option<u64> {
        self.warm
            .iter()
            .filter(|w| tenant.is_none_or(|t| w.tenant == t))
            .map(|w| w.stamp)
            .min()
    }

    /// Demotes the least-recently-parked warm shell (optionally of one
    /// tenant) into this pool's clean list: full wipe per the pool's
    /// cleaning mode, off the request path like an LRU eviction. Returns
    /// whether a shell was demoted. This is the enforcement half of the
    /// cross-shard warm budget/quota policy.
    pub fn demote_oldest_warm(&mut self, tenant: Option<u64>) -> bool {
        let of_tenant = |w: &WarmShell| tenant.is_none_or(|t| w.tenant == t);
        let Some(victim) = self.take_oldest_warm(of_tenant) else {
            return false;
        };
        self.wipe_into_clean(victim.vm);
        self.stats.warm_demoted += 1;
        true
    }

    /// Removes the least-recently-parked warm shell matching `pred` —
    /// every warm exit but the keyed re-acquire picks its shell this way.
    fn take_oldest_warm(&mut self, pred: impl Fn(&WarmShell) -> bool) -> Option<WarmShell> {
        let matching = self.warm.iter().enumerate().filter(|(_, w)| pred(w));
        let (i, _) = matching.min_by_key(|(_, w)| w.stamp)?;
        Some(self.warm.remove(i))
    }

    /// Acquires a shell with `mem_size` bytes of guest memory: a clean
    /// cached shell when one is parked ([`Shell::Clean`]), a new one
    /// otherwise ([`Shell::Created`]).
    pub fn acquire(&mut self, hv: &Hypervisor, mem_size: usize) -> Shell {
        if self.mode != PoolMode::Disabled {
            if let Some(shell) = self.clean.get_mut(&mem_size).and_then(Vec::pop) {
                hv.kernel().clock().tick(costs::WASP_POOL_BOOKKEEPING);
                self.stats.reused += 1;
                return Shell::Clean(shell);
            }
        }
        self.stats.created += 1;
        Shell::Created(CleanShell::create(hv, mem_size))
    }

    /// Releases a used shell back to the pool, wiped (the first row of the
    /// wipe table in the [module docs](self)); under [`PoolMode::Disabled`]
    /// the shell is dropped.
    pub fn release(&mut self, shell: UsedShell) {
        if self.mode != PoolMode::Disabled {
            self.wipe_into_clean(shell.vm);
            self.stats.released += 1;
        }
    }

    /// Acquires a warm shell for `(tenant, virtine)` with `mem_size` bytes
    /// of guest memory, most recently parked first. The shell is handed
    /// over *un-re-armed*: the runtime's install step re-arms it
    /// ([`Shell::Warm`]), so the copy lands in the invocation's `image`
    /// cost term, exactly where the full restore it replaces used to.
    pub fn acquire_warm(
        &mut self,
        hv: &Hypervisor,
        tenant: u64,
        virtine: usize,
        mem_size: usize,
    ) -> Option<WarmShell> {
        if self.mode == PoolMode::Disabled || self.warm_capacity == 0 {
            return None;
        }
        let i = self.warm.iter().rposition(|w| {
            w.tenant == tenant && w.virtine == virtine && w.vm.mem_size() == mem_size
        })?;
        let w = self.warm.remove(i);
        hv.kernel().clock().tick(costs::WASP_WARM_BOOKKEEPING);
        self.stats.reused += 1;
        self.stats.warm_acquired += 1;
        Some(w)
    }

    /// Parks a used shell *warm* for `(tenant, virtine)` when its run left
    /// the warm token ([`UsedShell::warm_parkable`]): no wipe — the state
    /// stays resident for a delta re-arm by the same key. Without the
    /// token it takes [`Pool::release`]. Over capacity, the
    /// least-recently-parked warm shell is demoted: wiped per the pool's
    /// cleaning mode and moved to the clean list.
    pub fn release_warm(&mut self, shell: UsedShell, tenant: u64, virtine: usize) {
        let stamp = self.warm_seq;
        self.warm_seq += 1;
        self.release_warm_stamped(shell, tenant, virtine, stamp);
    }

    /// [`Pool::release_warm`] with an explicit park-order stamp. A
    /// dispatcher spanning many pools threads one shared counter through
    /// every park so LRU comparisons ([`Pool::oldest_warm_stamp`]) are
    /// meaningful across shards; stamps must be non-decreasing per pool.
    pub fn release_warm_stamped(
        &mut self,
        mut shell: UsedShell,
        tenant: u64,
        virtine: usize,
        stamp: u64,
    ) {
        let Some(snap) = shell.warm.take() else {
            return self.release(shell);
        };
        let warm = WarmShell {
            tenant,
            virtine,
            vm: shell.vm,
            snap,
            stamp,
        };
        if self.park_warm(warm) {
            self.stats.released += 1;
            self.stats.warm_parked += 1;
        }
    }

    /// Puts `shell` at the back of the warm list, demoting the pool's
    /// oldest warm shell when that overruns the bound. Returns whether it
    /// parked warm: under [`PoolMode::Disabled`] it is dropped like any
    /// other release, and at zero capacity it takes the wiped release.
    fn park_warm(&mut self, shell: WarmShell) -> bool {
        if self.mode == PoolMode::Disabled {
            return false;
        }
        if self.warm_capacity == 0 {
            self.wipe_into_clean(shell.vm);
            self.stats.released += 1;
            return false;
        }
        self.warm.push(shell);
        if self.warm.len() > self.warm_capacity {
            self.demote_oldest_warm(None);
        }
        true
    }

    /// Picks the tenant whose warm shell should be sacrificed when a
    /// demotion of `mem_size` bytes is unavoidable: the requesting tenant
    /// itself when it has one parked (a tenant's own churn costs only
    /// itself), otherwise the tenant holding the *most* warm shells of
    /// the size (ties broken toward the staler set) — so a demote-steal
    /// thins the biggest hoard instead of wiping out a minority tenant's
    /// entire warm set. Returns `None` when no warm shell of the size is
    /// parked.
    pub fn warm_victim_tenant(&self, mem_size: usize, prefer: u64) -> Option<u64> {
        let eligible = |w: &&WarmShell| w.vm.mem_size() == mem_size;
        if self
            .warm
            .iter()
            .filter(eligible)
            .any(|w| w.tenant == prefer)
        {
            return Some(prefer);
        }
        let mut counts: HashMap<u64, (usize, u64)> = HashMap::new();
        for w in self.warm.iter().filter(eligible) {
            let e = counts.entry(w.tenant).or_insert((0, u64::MAX));
            e.0 += 1;
            e.1 = e.1.min(w.stamp);
        }
        counts
            .into_iter()
            .max_by_key(|&(tenant, (count, oldest))| (count, Reverse(oldest), Reverse(tenant)))
            .map(|(tenant, _)| tenant)
    }

    /// Demotes `tenant`'s least-recently-parked warm shell of `mem_size`
    /// bytes: full synchronous wipe (charged to the caller — this sits on
    /// the acquire path, where a request found no warm hit and no clean
    /// shell), then hands the now-clean shell over. Mirrors
    /// [`Pool::take_idle`]: the caller accounts for the reuse. The
    /// demote-steal path pairs it with [`Pool::warm_victim_tenant`] so
    /// victim selection respects tenant fairness.
    pub fn take_warm_victim_of(&mut self, tenant: u64, mem_size: usize) -> Option<CleanShell> {
        let victim =
            self.take_oldest_warm(|w| w.tenant == tenant && w.vm.mem_size() == mem_size)?;
        self.stats.warm_demoted += 1;
        Some(CleanShell::wipe(victim.vm, true))
    }

    /// Wipes `vm` per the pool's cleaning mode — charged under
    /// [`PoolMode::Cached`], in the background otherwise — onto the clean
    /// list.
    fn wipe_into_clean(&mut self, vm: VmFd) {
        let shell = CleanShell::wipe(vm, self.mode == PoolMode::Cached);
        self.adopt_idle(shell);
    }

    /// Removes a clean shell of `mem_size` bytes from the pool without
    /// touching the pool's statistics, or returns `None` if none is
    /// parked. This is the work-stealing entry point: another shard's
    /// pool adopts the shell, and the *thief* accounts for the reuse —
    /// bumping this pool's `reused` would credit a serve to a shard that
    /// executed nothing.
    pub fn take_idle(&mut self, mem_size: usize) -> Option<CleanShell> {
        self.clean.get_mut(&mem_size).and_then(Vec::pop)
    }

    /// [`Pool::take_idle`] without a size constraint: removes one clean
    /// shell (smallest guest-memory size first, for determinism), or
    /// `None` when the clean lists are empty. The shard-drain evacuation
    /// loop uses this to empty a pool whose shells span several sizes.
    pub fn take_idle_any(&mut self) -> Option<CleanShell> {
        let size = *self
            .clean
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k)
            .min()?;
        self.clean.get_mut(&size).and_then(Vec::pop)
    }

    /// Adopts a clean shell evacuated from a sibling pool. The mirror of
    /// [`Pool::take_idle`]: no statistics move — the shell was already
    /// counted `created` by whichever pool minted it, and adoption is
    /// inventory relocation, not a release after a run.
    pub fn adopt_idle(&mut self, shell: CleanShell) {
        self.clean
            .entry(shell.0.mem_size())
            .or_default()
            .push(shell);
    }

    /// Exports the least-recently-parked warm shell *intact* — state,
    /// snapshot identity, and LRU stamp — for adoption by a sibling pool
    /// ([`Pool::import_warm`]). This is the shard-drain evacuation path:
    /// unlike every other warm exit (which wipes), the shell keeps its
    /// `(tenant, virtine)` key across the move, so no state ever becomes
    /// reachable by a different key.
    pub fn export_warm_lru(&mut self) -> Option<WarmShell> {
        self.take_oldest_warm(|_| true)
    }

    /// Adopts a warm shell exported from a sibling pool, preserving its
    /// key and park-order stamp. Over capacity, the pool's own oldest
    /// warm shell is demoted exactly as on a warm park; under
    /// [`PoolMode::Disabled`] or zero capacity the import degrades to a
    /// wiped release, like any warm park would.
    pub fn import_warm(&mut self, shell: WarmShell) {
        self.park_warm(shell);
    }

    /// Destroys one clean shell (smallest guest-memory size first) —
    /// the "kill a shell" fault-injection primitive. Returns whether a
    /// shell was dropped; counted in [`PoolStats::dropped`].
    pub fn drop_idle(&mut self) -> bool {
        let dropped = self.take_idle_any().is_some();
        self.stats.dropped += u64::from(dropped);
        dropped
    }

    /// Destroys every pooled shell, clean and warm — a failed shard's
    /// teardown: the hardware contexts die with the shard process.
    /// Returns how many were dropped (counted in [`PoolStats::dropped`]).
    /// Shells parked *outside* the pool (inside a `SuspendedRun`) are the
    /// caller's to account via [`Pool::drop_shell`].
    pub fn drop_all_shells(&mut self) -> usize {
        let n = self.idle_shells() + self.warm_shells();
        self.clean.clear();
        self.warm.clear();
        self.stats.dropped += n as u64;
        n
    }

    /// Destroys a shell the caller holds (e.g. one recovered from a
    /// suspended run on a failed shard), counting it in
    /// [`PoolStats::dropped`] so the pool's inventory arithmetic stays
    /// exact.
    pub fn drop_shell(&mut self, shell: UsedShell) {
        drop(shell);
        self.stats.dropped += 1;
    }

    /// Pre-populates the pool with `count` clean shells of `mem_size` bytes
    /// (warm-up before a burst, as a serverless front end would do).
    pub fn prewarm(&mut self, hv: &Hypervisor, mem_size: usize, count: usize) {
        for _ in 0..count {
            let shell = CleanShell::create(hv, mem_size);
            self.stats.created += 1;
            self.stats.released += 1;
            self.adopt_idle(shell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsim::HostKernel;
    use vclock::Clock;

    /// The code blocks of this module's docs, in order: whether each is a
    /// `compile_fail` block, and its lines that rustdoc does not hide.
    fn doc_blocks() -> Vec<(bool, Vec<&'static str>)> {
        let docs = include_str!("pool.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"))
            .map(|l| l.strip_prefix(' ').unwrap_or(l));
        let mut blocks = Vec::new();
        let mut open: Option<(bool, Vec<&str>)> = None;
        for line in docs {
            match (line.strip_prefix("```"), open.take()) {
                (Some(info), None) => open = Some((info.starts_with("compile_fail"), Vec::new())),
                (Some(_), Some(block)) => blocks.push(block),
                (None, Some((fails, mut lines))) => {
                    if line != "#" && !line.starts_with("# ") {
                        lines.push(line);
                    }
                    open = Some((fails, lines));
                }
                (None, None) => {}
            }
        }
        assert!(open.is_none(), "an unclosed code block");
        blocks
    }

    /// Stable rustdoc does not check a `compile_fail` block's error code,
    /// so a block could fail for a reason nobody meant. Each one is
    /// therefore followed by a compiling sibling (a doctest that must
    /// build) that differs from it in exactly one visible line: the
    /// refused move is then the only thing that can make it fail.
    #[test]
    fn each_compile_fail_doctest_differs_from_its_sibling_in_one_line() {
        let blocks = doc_blocks();
        let mut pairs = 0;
        for (i, (fails, lines)) in blocks.iter().enumerate() {
            if !fails {
                continue;
            }
            let Some((false, sibling)) = blocks.get(i + 1) else {
                panic!("compile_fail block {i} has no compiling sibling after it");
            };
            assert_eq!(lines.len(), sibling.len(), "block {i}: line counts differ");
            let differ = lines.iter().zip(sibling).filter(|(a, b)| a != b).count();
            assert_eq!(
                differ, 1,
                "block {i} differs from its sibling in {differ} lines"
            );
            pairs += 1;
        }
        assert_eq!(pairs, 3, "the three isolation moves");
    }

    fn hv() -> (Clock, Hypervisor) {
        let clock = Clock::new();
        (clock.clone(), Hypervisor::kvm(HostKernel::new(clock, None)))
    }

    const MEM: usize = 64 * 1024;

    fn vm(shell: &Shell) -> &VmFd {
        match shell {
            Shell::Created(c) | Shell::Clean(c) => &c.0,
            Shell::Warm(w) => &w.vm,
        }
    }

    fn reused(shell: &Shell) -> bool {
        !matches!(shell, Shell::Created(_))
    }

    /// `shell` as a run would give it back, with the warm token `warm`.
    fn used(shell: Shell, warm: Option<Rc<VmSnapshot>>) -> UsedShell {
        let vm = match shell {
            Shell::Created(c) | Shell::Clean(c) => c.0,
            Shell::Warm(w) => w.vm,
        };
        UsedShell { vm, warm }
    }

    #[test]
    fn disabled_pool_always_creates() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Disabled);
        let shell = pool.acquire(&hv, MEM);
        let reused1 = reused(&shell);
        pool.release(used(shell, None));
        let reused2 = reused(&pool.acquire(&hv, MEM));
        assert!(!reused1 && !reused2);
        assert_eq!(pool.stats().created, 2);
        assert_eq!(pool.idle_shells(), 0);
    }

    #[test]
    fn cached_pool_reuses_shells() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Cached);
        let shell = pool.acquire(&hv, MEM);
        assert!(!reused(&shell));
        pool.release(used(shell, None));
        assert_eq!(pool.idle_shells(), 1);
        assert!(reused(&pool.acquire(&hv, MEM)));
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn reuse_is_much_cheaper_than_creation() {
        let (clock, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        let (_, create_cost) = clock.time(|| pool.acquire(&hv, MEM));
        let shell = pool.acquire(&hv, MEM);
        pool.release(used(shell, None));
        let (_, reuse_cost) = clock.time(|| {
            let shell = pool.acquire(&hv, MEM);
            assert!(reused(&shell));
            shell
        });
        assert!(
            reuse_cost.get() * 100 < create_cost.get(),
            "reuse {reuse_cost} vs create {create_cost}"
        );
    }

    #[test]
    fn sync_clean_charges_async_does_not() {
        let (clock, hv) = hv();

        // The wipe cost tracks what the virtine dirtied, so dirty the
        // shells before releasing them.
        let mut sync_pool = Pool::new(PoolMode::Cached);
        let shell = sync_pool.acquire(&hv, MEM);
        vm(&shell).write_guest(0, &[7u8; 4096]).unwrap();
        let (_, sync_cost) = clock.time(|| sync_pool.release(used(shell, None)));

        let mut async_pool = Pool::new(PoolMode::CachedAsync);
        let shell = async_pool.acquire(&hv, MEM);
        vm(&shell).write_guest(0, &[7u8; 4096]).unwrap();
        let (_, async_cost) = clock.time(|| async_pool.release(used(shell, None)));

        assert!(sync_cost.get() > 0, "sync cleaning charges the wipe");
        assert_eq!(async_cost.get(), 0, "async cleaning is off the books");
    }

    #[test]
    fn recycled_shells_are_actually_clean() {
        let (_, hv) = hv();
        for mode in [PoolMode::Cached, PoolMode::CachedAsync] {
            let mut pool = Pool::new(mode);
            let shell = pool.acquire(&hv, MEM);
            vm(&shell)
                .write_guest(0x100, b"secret key material")
                .unwrap();
            pool.release(used(shell, None));
            let shell = pool.acquire(&hv, MEM);
            assert!(reused(&shell));
            let bytes = vm(&shell).read_guest(0x100, 19).unwrap();
            assert!(
                bytes.iter().all(|&b| b == 0),
                "information leaked through the pool under {mode:?}"
            );
        }
    }

    #[test]
    fn shells_are_segregated_by_memory_size() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Cached);
        let shell = pool.acquire(&hv, MEM);
        pool.release(used(shell, None));
        // A differently-sized request cannot reuse the parked shell.
        let shell = pool.acquire(&hv, 2 * MEM);
        assert!(!reused(&shell));
        assert_eq!(vm(&shell).mem_size(), 2 * MEM);
        assert_eq!(pool.idle_shells(), 1);
    }

    /// Parks a shell warm for `(tenant, virtine)`: runs nothing, just
    /// snapshots a VM so there is a state token to park against.
    fn park(hv: &Hypervisor, pool: &mut Pool, key: (u64, usize), data: &[u8]) -> Rc<VmSnapshot> {
        let shell = pool.acquire(hv, MEM);
        vm(&shell).write_guest(0x100, data).unwrap();
        let snap = Rc::new(vm(&shell).snapshot());
        pool.release_warm(used(shell, Some(Rc::clone(&snap))), key.0, key.1);
        snap
    }

    /// A warm shell of key `(7, 3)` holding snapshot state and
    /// post-snapshot dirt.
    fn warm_fixture(hv: &Hypervisor, pool: &mut Pool) -> Rc<VmSnapshot> {
        let shell = pool.acquire(hv, MEM);
        vm(&shell)
            .write_guest(0x100, b"resident snapshot state")
            .unwrap();
        let snap = Rc::new(vm(&shell).snapshot());
        vm(&shell).write_guest(0x2000, b"invocation dirt").unwrap();
        pool.release_warm(used(shell, Some(Rc::clone(&snap))), 7, 3);
        snap
    }

    #[test]
    fn warm_park_and_reacquire_round_trips_for_the_same_key() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        let snap = warm_fixture(&hv, &mut pool);
        assert_eq!(pool.warm_shells(), 1);
        assert!(pool.has_warm(7, 3));
        assert!(!pool.has_warm(7, 4));
        assert!(!pool.has_warm(8, 3));

        // Wrong key: no warm shell handed out.
        assert!(pool.acquire_warm(&hv, 8, 3, MEM).is_none());
        assert!(pool.acquire_warm(&hv, 7, 4, MEM).is_none());
        assert!(pool.acquire_warm(&hv, 7, 3, 2 * MEM).is_none());

        let w = pool.acquire_warm(&hv, 7, 3, MEM).expect("warm hit");
        assert!(Rc::ptr_eq(&w.snap, &snap));
        // The state is still resident (un-re-armed): both the snapshot
        // bytes and the previous invocation's dirt.
        assert_eq!(w.vm.read_guest(0x100, 4).unwrap(), b"resi");
        assert_eq!(w.vm.read_guest(0x2000, 4).unwrap(), b"invo");
        let s = pool.stats();
        assert_eq!((s.warm_acquired, s.warm_parked, s.reused), (1, 1, 1));
    }

    #[test]
    fn warm_capacity_evicts_lru_into_the_clean_list() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync).with_warm_capacity(2);
        for virtine in 0..3 {
            park(&hv, &mut pool, (0, virtine), b"secret");
        }
        // Oldest (virtine 0) was demoted: wiped and parked clean.
        assert_eq!(pool.warm_shells(), 2);
        assert!(!pool.has_warm(0, 0));
        assert!(pool.has_warm(0, 1) && pool.has_warm(0, 2));
        assert_eq!(pool.idle_shells_of(MEM), 1);
        assert_eq!(pool.stats().warm_demoted, 1);
        let shell = pool.acquire(&hv, MEM);
        assert!(reused(&shell));
        let bytes = vm(&shell).read_guest(0x100, 6).unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn take_warm_victim_wipes_before_handing_over() {
        let (clock, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        warm_fixture(&hv, &mut pool);
        assert!(
            pool.take_warm_victim_of(7, 2 * MEM).is_none(),
            "size segregated"
        );
        assert!(
            pool.take_warm_victim_of(8, MEM).is_none(),
            "tenant segregated"
        );
        let t0 = clock.now();
        let c = pool.take_warm_victim_of(7, MEM).expect("victim");
        assert!(
            (clock.now() - t0).get() > 0,
            "demotion on the acquire path charges the wipe"
        );
        assert!(c.0.read_guest(0x100, 8).unwrap().iter().all(|&b| b == 0));
        assert!(c.0.read_guest(0x2000, 8).unwrap().iter().all(|&b| b == 0));
        assert_eq!(pool.warm_shells(), 0);
        assert_eq!(pool.stats().warm_demoted, 1);
    }

    #[test]
    fn zero_warm_capacity_degrades_to_a_wiped_release() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync).with_warm_capacity(0);
        park(&hv, &mut pool, (0, 0), b"secret");
        assert_eq!(pool.warm_shells(), 0);
        assert!(pool.acquire_warm(&hv, 0, 0, MEM).is_none());
        assert_eq!(pool.idle_shells(), 1);
        let shell = pool.acquire(&hv, MEM);
        assert!(reused(&shell));
        let bytes = vm(&shell).read_guest(0x100, 6).unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn warm_victim_selection_prefers_the_requester_then_the_biggest_hoard() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        // Tenant 5 hoards three warm shells; tenant 9 parks one.
        for virtine in 0..3 {
            park(&hv, &mut pool, (5, virtine), b"");
        }
        park(&hv, &mut pool, (9, 0), b"");

        // A requester with its own shell parked sacrifices itself...
        assert_eq!(pool.warm_victim_tenant(MEM, 9), Some(9));
        // ...anyone else thins the hoard, never tenant 9's only shell.
        assert_eq!(pool.warm_victim_tenant(MEM, 7), Some(5));
        assert_eq!(pool.warm_victim_tenant(2 * MEM, 7), None, "size gated");
        let c = pool.take_warm_victim_of(5, MEM).expect("victim");
        assert_eq!(c.0.mem_size(), MEM);
        assert_eq!(pool.warm_shells_of_tenant(5), 2);
        assert_eq!(pool.warm_shells_of_tenant(9), 1);
        assert!(pool.take_warm_victim_of(3, MEM).is_none(), "tenant gated");
    }

    #[test]
    fn stamped_parks_drive_cross_pool_lru_demotion() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        // Shared-counter stamps arrive out of pool-local order of nothing:
        // park (tenant, virtine, stamp) = (1,0,10), (2,0,11), (1,1,12).
        for (tenant, virtine, stamp) in [(1, 0, 10), (2, 0, 11), (1, 1, 12)] {
            let shell = pool.acquire(&hv, MEM);
            vm(&shell).write_guest(0x100, b"warm state").unwrap();
            let snap = Rc::new(vm(&shell).snapshot());
            pool.release_warm_stamped(used(shell, Some(snap)), tenant, virtine, stamp);
        }
        assert_eq!(pool.oldest_warm_stamp(None), Some(10));
        assert_eq!(pool.oldest_warm_stamp(Some(1)), Some(10));
        assert_eq!(pool.oldest_warm_stamp(Some(2)), Some(11));
        assert_eq!(pool.oldest_warm_stamp(Some(3)), None);

        // Demote tenant 1's LRU: (1,0) goes, (1,1) stays warm.
        assert!(pool.demote_oldest_warm(Some(1)));
        assert!(!pool.has_warm(1, 0) && pool.has_warm(1, 1));
        assert_eq!(pool.oldest_warm_stamp(Some(1)), Some(12));
        assert_eq!(pool.idle_shells_of(MEM), 1, "demoted into clean");
        assert_eq!(pool.stats().warm_demoted, 1);
        // Global LRU is now tenant 2's shell.
        assert!(pool.demote_oldest_warm(None));
        assert!(!pool.has_warm(2, 0));
        assert!(!pool.demote_oldest_warm(Some(3)), "nothing of tenant 3");
        // Demoted shells come back clean.
        let shell = pool.acquire(&hv, MEM);
        assert!(reused(&shell));
        let bytes = vm(&shell).read_guest(0x100, 10).unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn warm_export_import_round_trips_with_key_and_stamp() {
        let (_, hv) = hv();
        let mut src = Pool::new(PoolMode::CachedAsync);
        let mut dst = Pool::new(PoolMode::CachedAsync);
        let snap = warm_fixture(&hv, &mut src);

        // LRU export: the shell leaves intact — key, snapshot identity,
        // and stamp all survive the move.
        let e = src.export_warm_lru().expect("one warm shell parked");
        assert_eq!((e.tenant, e.virtine), (7, 3));
        assert!(Rc::ptr_eq(&e.snap, &snap));
        assert_eq!(src.warm_shells(), 0);
        dst.import_warm(e);
        assert!(dst.has_warm(7, 3));
        assert_eq!(dst.oldest_warm_stamp(None), Some(0));

        // The destination re-arms it for the same key, like a local park:
        // the post-snapshot dirt is gone after the delta restore.
        let w = dst.acquire_warm(&hv, 7, 3, MEM).expect("warm hit");
        assert!(Rc::ptr_eq(&w.snap, &snap));
        w.vm.restore_delta(&w.snap);
        assert!(w.vm.read_guest(0x2000, 15).unwrap().iter().all(|&b| b == 0));
        assert_eq!(
            &w.vm.read_guest(0x100, 23).unwrap(),
            b"resident snapshot state"
        );
        dst.release(used(Shell::Warm(w), None));
        assert!(src.export_warm_lru().is_none(), "source is empty");
    }

    #[test]
    fn dropped_shells_balance_the_inventory_arithmetic() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        warm_fixture(&hv, &mut pool); // 1 warm
        pool.prewarm(&hv, MEM, 2); // 2 clean
        assert_eq!(pool.stats().created, 3);

        assert!(pool.drop_idle());
        assert_eq!(pool.idle_shells(), 1);
        assert_eq!(pool.stats().dropped, 1);
        assert_eq!(pool.drop_all_shells(), 2, "one clean + one warm");
        assert_eq!(pool.stats().dropped, 3);
        assert_eq!(pool.idle_shells() + pool.warm_shells(), 0);
        assert!(!pool.drop_idle(), "nothing left to kill");
        // resident == created - dropped holds at every step.
        let s = pool.stats();
        assert_eq!(s.created - s.dropped, 0);
    }

    #[test]
    fn disabled_pool_drops_warm_releases() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Disabled);
        park(&hv, &mut pool, (0, 0), b"");
        assert_eq!(pool.warm_shells() + pool.idle_shells(), 0);
    }

    #[test]
    fn prewarm_fills_the_pool() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync);
        pool.prewarm(&hv, MEM, 4);
        assert_eq!(pool.idle_shells(), 4);
        assert!(reused(&pool.acquire(&hv, MEM)));
    }
}
