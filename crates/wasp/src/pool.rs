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
//! ## Warm shells (shell lifecycle)
//!
//! On top of the paper's clean pool, a shell that just ran a *snapshotted*
//! virtine can park **warm**: still holding the restored state, keyed by
//! `(tenant, virtine)`, with the dirty-page log recording exactly which
//! pages the invocation diverged from the snapshot. Re-acquiring it re-arms
//! by copying back only those pages (see `kvmsim::VmFd::restore_delta`)
//! instead of the full sparse snapshot — the SEUSS/Faasm-style resident
//! warm context, at hardware-dirty-logging exactness.
//!
//! ```text
//!            KVM_CREATE_VM                 release (wiped, §5.2)
//!   create ───────────────► in use ─────────────────────────────► clean
//!                            ▲  │  │                               │
//!          acquire_warm      │  │  │ HcOutcome::Block              │ acquire
//!          (delta re-arm,    │  │  ▼ (blocking recv, no data)      ▼
//!          same key only)    │  │ blocked/suspended ── wake ──► in use
//!                            │  │  (shell held by SuspendedRun,
//!                            │  │   outside the pool: unstealable,
//!                            │  │   undemotable; timeout-kill exits
//!                            │  │   via the ordinary wiped release)
//!                            │  ▼
//!                            └─ warm[(tenant, virtine)] ── demote ─► clean
//!                               (release_warm after a snapshotted
//!                                run, normal exit; LRU evict /
//!                                cross-key / steal: full wipe)
//! ```
//!
//! What the edges physically do (the virtual clock charges them by dirty
//! *extent*; `kvmsim` crate docs, `visa::mem` module docs):
//!
//! * **release / demote** (`VmFd::clean`, `clean_async`): zeroes the pages
//!   the run touched, eagerly — a shell on the clean list holds no non-zero
//!   byte, under either cleaning mode;
//! * **acquire → install**: a full restore wipes (a no-op on a clean shell)
//!   and copies the pages the snapshot has content on; a warm re-arm copies
//!   the pages in the dirty log;
//! * **drop** (`PoolMode::Disabled` release, [`Pool::drop_shell`],
//!   [`Pool::drop_all_shells`], an abandoned `SuspendedRun`): the shell is
//!   destroyed *dirty* as far as the pool is concerned — the wipe happens in
//!   the drop itself, and the VM retires as a shell: the guest-memory buffer
//!   and its vCPU's block cache, parked together for reuse;
//! * **create** (`KVM_CREATE_VM`): charged in full, always a new vCPU in
//!   the reset state, on such a retired shell — already zero, its block
//!   cache adopted exactly as a cleaned shell's is — when the thread has
//!   one of the size. The isolation argument below covers it as written:
//!   the shell is in the state `clean_async` leaves.
//!
//! The **blocked/suspended** state is the event-driven I/O path: a virtine
//! parked in a blocking `recv` keeps its shell *inside* the
//! [`crate::SuspendedRun`], so none of the pool's acquire/steal/demote
//! paths can ever observe it — isolation of a parked invocation's live
//! state is structural, not a bookkeeping promise. Its transitions are
//! block → park → wake → resume (re-entering the guest at the faulting
//! hypercall) or timeout → kill → wiped release (`ExitKind::Blocked`).
//!
//! **Isolation argument.** A warm shell still contains the previous
//! invocation's data, so it may only be handed back *re-armed* and only to
//! the exact `(tenant, virtine)` key that parked it; the re-arm itself
//! erases the previous invocation's writes (every write set its dirty bit;
//! every dirty page is restored to snapshot contents). Every other exit
//! from the warm list — LRU eviction, cross-key demotion, work stealing —
//! goes through the same full wipe as a normal release, so §5.2's
//! no-information-leakage guarantee is preserved across tenants, virtines,
//! and shards.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::rc::Rc;

use kvmsim::{Hypervisor, VmFd, VmSnapshot};
use vclock::costs;

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

/// A warm shell: parked still holding the state a snapshotted run left
/// behind, re-armable only for the exact key that parked it.
#[derive(Debug)]
struct WarmShell {
    /// Opaque tenant tag (the dispatcher uses tenant indices; Wasp's own
    /// single-client pool uses 0).
    tenant: u64,
    /// `VirtineId::into_raw` of the virtine whose snapshot the state
    /// derives from.
    virtine: usize,
    vm: VmFd,
    /// The exact snapshot the shell's state derives from; compared by
    /// `Rc` identity on re-acquire so a re-registered or invalidated
    /// snapshot can never be delta-restored against stale state.
    snap: Rc<VmSnapshot>,
    /// Park-order stamp for LRU decisions. Pool-local parks use the
    /// pool's own counter; a dispatcher spanning many pools passes a
    /// shared counter ([`Pool::release_warm_stamped`]) so "least recently
    /// parked" is comparable *across* shard pools.
    stamp: u64,
}

/// A warm shell exported intact from one pool for adoption by another —
/// the shard-drain evacuation path. The state is *not* wiped: the entry
/// stays keyed to the same `(tenant, virtine)` on the destination pool,
/// so the §5.2 isolation argument is unchanged (only the exact key that
/// parked it may ever re-arm it, wherever it is resident). The stamp
/// rides along so cross-pool LRU ordering survives the move. Opaque: it
/// is the pool's own record, handed over as it is.
#[derive(Debug)]
pub struct WarmExport(WarmShell);

/// The pool itself. Shells are segregated by guest-memory size: a shell's
/// hardware context is sized when created, so only same-sized requests can
/// reuse it. Warm shells additionally carry their `(tenant, virtine)` key.
#[derive(Debug)]
pub struct Pool {
    mode: PoolMode,
    clean: HashMap<usize, Vec<VmFd>>,
    /// Warm shells in LRU order: oldest at the front, newest parks at the
    /// back. Bounded by `warm_capacity` (warm shells keep full guest state
    /// resident, so the cache is memory-bounded by design).
    warm: Vec<WarmShell>,
    warm_capacity: usize,
    /// Pool-local park-order counter (see [`WarmShell::stamp`]).
    warm_seq: u64,
    stats: PoolStats,
    /// Reset vector shells are parked at.
    entry: u64,
}

/// Default bound on resident warm shells per pool.
pub const DEFAULT_WARM_CAPACITY: usize = 8;

impl Pool {
    /// Creates a pool; `entry` is the guest address shells reset to
    /// (Wasp loads images at 0x8000, §5.1). Warm caching starts at
    /// [`DEFAULT_WARM_CAPACITY`]; tune with [`Pool::with_warm_capacity`].
    pub fn new(mode: PoolMode, entry: u64) -> Pool {
        Pool {
            mode,
            clean: HashMap::new(),
            warm: Vec::new(),
            warm_capacity: DEFAULT_WARM_CAPACITY,
            warm_seq: 0,
            stats: PoolStats::default(),
            entry,
        }
    }

    /// Sets the warm-shell bound (builder style). Zero disables warm
    /// caching entirely: `release_warm` degrades to a normal wiped release.
    pub fn with_warm_capacity(mut self, capacity: usize) -> Pool {
        self.warm_capacity = capacity;
        self
    }

    /// The pool's mode.
    pub fn mode(&self) -> PoolMode {
        self.mode
    }

    /// The warm-shell bound.
    pub fn warm_capacity(&self) -> usize {
        self.warm_capacity
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
        self.demote(victim.vm);
        true
    }

    /// Removes the least-recently-parked warm shell matching `pred` —
    /// every warm exit but the keyed re-acquire picks its shell this way.
    fn take_oldest_warm(&mut self, pred: impl Fn(&WarmShell) -> bool) -> Option<WarmShell> {
        let matching = self.warm.iter().enumerate().filter(|(_, w)| pred(w));
        let (i, _) = matching.min_by_key(|(_, w)| w.stamp)?;
        Some(self.warm.remove(i))
    }

    /// Acquires a shell with `mem_size` bytes of guest memory, reusing a
    /// clean cached shell when possible. Returns the shell and whether it
    /// was reused.
    pub fn acquire(&mut self, hv: &Hypervisor, mem_size: usize) -> (VmFd, bool) {
        if self.mode != PoolMode::Disabled {
            if let Some(vm) = self.clean.get_mut(&mem_size).and_then(Vec::pop) {
                hv.kernel().clock().tick(costs::WASP_POOL_BOOKKEEPING);
                self.stats.reused += 1;
                return (vm, true);
            }
        }
        self.stats.created += 1;
        (hv.create_vm(mem_size, self.entry), false)
    }

    /// Releases a used shell back to the pool. Under [`PoolMode::Cached`]
    /// the wipe is charged to the caller; under [`PoolMode::CachedAsync`]
    /// the wipe still happens (no information leaks, §3.3) but its cycles
    /// are not charged to the request timeline — the background cleaner
    /// pays them. Under [`PoolMode::Disabled`] the shell is dropped.
    pub fn release(&mut self, vm: VmFd) {
        match self.mode {
            PoolMode::Disabled => {
                // Dropped: the host frees the VM state off the books.
            }
            PoolMode::Cached => {
                vm.clean(self.entry);
                self.park(vm);
            }
            PoolMode::CachedAsync => {
                vm.clean_async(self.entry);
                self.park(vm);
            }
        }
    }

    /// Acquires a warm shell for `(tenant, virtine)` with `mem_size` bytes
    /// of guest memory, most recently parked first. The shell is returned
    /// *un-re-armed* together with the snapshot its state derives from; the
    /// caller (the runtime's install step) performs the delta re-arm so the
    /// copy lands in the invocation's `image` cost term, exactly where the
    /// full restore it replaces used to.
    pub fn acquire_warm(
        &mut self,
        hv: &Hypervisor,
        tenant: u64,
        virtine: usize,
        mem_size: usize,
    ) -> Option<(VmFd, Rc<VmSnapshot>)> {
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
        Some((w.vm, w.snap))
    }

    /// Parks a shell *warm* for `(tenant, virtine)`: no wipe — the state
    /// (snapshot plus dirty-page log) stays resident for a delta re-arm by
    /// the same key. Over capacity, the least-recently-parked warm shell is
    /// demoted: wiped per the pool's cleaning mode (asynchronously under
    /// [`PoolMode::CachedAsync`], i.e. off the request path) and moved to
    /// the clean list.
    ///
    /// Callers must only park shells whose state derives from `snap` with
    /// an intact dirty log (`Wasp` guarantees this via `RunOutcome`'s warm
    /// state token).
    pub fn release_warm(&mut self, vm: VmFd, tenant: u64, virtine: usize, snap: Rc<VmSnapshot>) {
        let stamp = self.warm_seq;
        self.warm_seq += 1;
        self.release_warm_stamped(vm, tenant, virtine, snap, stamp);
    }

    /// [`Pool::release_warm`] with an explicit park-order stamp. A
    /// dispatcher spanning many pools threads one shared counter through
    /// every park so LRU comparisons ([`Pool::oldest_warm_stamp`]) are
    /// meaningful across shards; stamps must be non-decreasing per pool.
    pub fn release_warm_stamped(
        &mut self,
        vm: VmFd,
        tenant: u64,
        virtine: usize,
        snap: Rc<VmSnapshot>,
        stamp: u64,
    ) {
        let shell = WarmShell {
            tenant,
            virtine,
            vm,
            snap,
            stamp,
        };
        if self.park_warm(shell) {
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
            self.release(shell.vm);
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
    pub fn take_warm_victim_of(&mut self, tenant: u64, mem_size: usize) -> Option<VmFd> {
        let victim =
            self.take_oldest_warm(|w| w.tenant == tenant && w.vm.mem_size() == mem_size)?;
        victim.vm.clean(self.entry);
        self.stats.warm_demoted += 1;
        Some(victim.vm)
    }

    /// Wipes an evicted warm shell per the pool's cleaning mode (off the
    /// request path under [`PoolMode::CachedAsync`], like any release) and
    /// parks it clean.
    fn demote(&mut self, vm: VmFd) {
        match self.mode {
            PoolMode::Cached => vm.clean(self.entry),
            _ => vm.clean_async(self.entry),
        }
        self.stats.warm_demoted += 1;
        self.clean.entry(vm.mem_size()).or_default().push(vm);
    }

    fn park(&mut self, vm: VmFd) {
        self.stats.released += 1;
        self.clean.entry(vm.mem_size()).or_default().push(vm);
    }

    /// Removes a clean shell of `mem_size` bytes from the pool without
    /// touching the pool's statistics, or returns `None` if none is
    /// parked. This is the work-stealing entry point: another shard's
    /// pool adopts the shell, and the *thief* accounts for the reuse —
    /// bumping this pool's `reused` would credit a serve to a shard that
    /// executed nothing. The shell was wiped on release (no cross-tenant
    /// leakage, §3.3/§5.2), so the thief can run it directly.
    pub fn take_idle(&mut self, mem_size: usize) -> Option<VmFd> {
        self.clean.get_mut(&mem_size).and_then(Vec::pop)
    }

    /// [`Pool::take_idle`] without a size constraint: removes one clean
    /// shell (smallest guest-memory size first, for determinism), or
    /// `None` when the clean lists are empty. The shard-drain evacuation
    /// loop uses this to empty a pool whose shells span several sizes.
    pub fn take_idle_any(&mut self) -> Option<VmFd> {
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
    /// inventory relocation, not a release after a run. The shell was
    /// wiped before it ever parked clean, so adoption is isolation-free.
    pub fn adopt_idle(&mut self, vm: VmFd) {
        self.clean.entry(vm.mem_size()).or_default().push(vm);
    }

    /// Exports the least-recently-parked warm shell *intact* — state,
    /// snapshot identity, and LRU stamp — for adoption by a sibling pool
    /// ([`Pool::import_warm`]). This is the shard-drain evacuation path:
    /// unlike every other warm exit (which wipes), the entry keeps its
    /// `(tenant, virtine)` key across the move, so no state ever becomes
    /// reachable by a different key.
    pub fn export_warm_lru(&mut self) -> Option<WarmExport> {
        self.take_oldest_warm(|_| true).map(WarmExport)
    }

    /// Adopts a warm shell exported from a sibling pool, preserving its
    /// key and park-order stamp. Over capacity, the pool's own oldest
    /// warm shell is demoted exactly as on a warm park; under
    /// [`PoolMode::Disabled`] or zero capacity the import degrades to a
    /// wiped release, like any warm park would.
    pub fn import_warm(&mut self, e: WarmExport) {
        self.park_warm(e.0);
    }

    /// Destroys one clean shell (smallest guest-memory size first) —
    /// the "kill a shell" fault-injection primitive. Returns whether a
    /// shell was dropped; counted in [`PoolStats::dropped`].
    pub fn drop_idle(&mut self) -> bool {
        match self.take_idle_any() {
            Some(vm) => {
                drop(vm);
                self.stats.dropped += 1;
                true
            }
            None => false,
        }
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
    pub fn drop_shell(&mut self, vm: VmFd) {
        drop(vm);
        self.stats.dropped += 1;
    }

    /// Pre-populates the pool with `count` clean shells of `mem_size` bytes
    /// (warm-up before a burst, as a serverless front end would do).
    pub fn prewarm(&mut self, hv: &Hypervisor, mem_size: usize, count: usize) {
        for _ in 0..count {
            let vm = hv.create_vm(mem_size, self.entry);
            self.stats.created += 1;
            self.park(vm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsim::HostKernel;
    use vclock::Clock;

    fn hv() -> (Clock, Hypervisor) {
        let clock = Clock::new();
        (clock.clone(), Hypervisor::kvm(HostKernel::new(clock, None)))
    }

    const ENTRY: u64 = 0x8000;
    const MEM: usize = 64 * 1024;

    #[test]
    fn disabled_pool_always_creates() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Disabled, ENTRY);
        let (vm1, reused1) = pool.acquire(&hv, MEM);
        pool.release(vm1);
        let (_, reused2) = pool.acquire(&hv, MEM);
        assert!(!reused1 && !reused2);
        assert_eq!(pool.stats().created, 2);
        assert_eq!(pool.idle_shells(), 0);
    }

    #[test]
    fn cached_pool_reuses_shells() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Cached, ENTRY);
        let (vm, reused) = pool.acquire(&hv, MEM);
        assert!(!reused);
        pool.release(vm);
        assert_eq!(pool.idle_shells(), 1);
        let (_, reused) = pool.acquire(&hv, MEM);
        assert!(reused);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn reuse_is_much_cheaper_than_creation() {
        let (clock, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
        let (_, create_cost) = clock.time(|| pool.acquire(&hv, MEM));
        let (vm, _) = pool.acquire(&hv, MEM);
        pool.release(vm);
        let (_, reuse_cost) = clock.time(|| {
            let (vm, reused) = pool.acquire(&hv, MEM);
            assert!(reused);
            vm
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
        let mut sync_pool = Pool::new(PoolMode::Cached, ENTRY);
        let (vm, _) = sync_pool.acquire(&hv, MEM);
        vm.write_guest(0, &[7u8; 4096]).unwrap();
        let (_, sync_cost) = clock.time(|| sync_pool.release(vm));

        let mut async_pool = Pool::new(PoolMode::CachedAsync, ENTRY);
        let (vm, _) = async_pool.acquire(&hv, MEM);
        vm.write_guest(0, &[7u8; 4096]).unwrap();
        let (_, async_cost) = clock.time(|| async_pool.release(vm));

        assert!(sync_cost.get() > 0, "sync cleaning charges the wipe");
        assert_eq!(async_cost.get(), 0, "async cleaning is off the books");
    }

    #[test]
    fn recycled_shells_are_actually_clean() {
        let (_, hv) = hv();
        for mode in [PoolMode::Cached, PoolMode::CachedAsync] {
            let mut pool = Pool::new(mode, ENTRY);
            let (vm, _) = pool.acquire(&hv, MEM);
            vm.write_guest(0x100, b"secret key material").unwrap();
            pool.release(vm);
            let (vm, reused) = pool.acquire(&hv, MEM);
            assert!(reused);
            let bytes = vm.read_guest(0x100, 19).unwrap();
            assert!(
                bytes.iter().all(|&b| b == 0),
                "information leaked through the pool under {mode:?}"
            );
        }
    }

    #[test]
    fn shells_are_segregated_by_memory_size() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::Cached, ENTRY);
        let (vm, _) = pool.acquire(&hv, MEM);
        pool.release(vm);
        // A differently-sized request cannot reuse the parked shell.
        let (vm2, reused) = pool.acquire(&hv, 2 * MEM);
        assert!(!reused);
        assert_eq!(vm2.mem_size(), 2 * MEM);
        assert_eq!(pool.idle_shells(), 1);
    }

    /// A parked-warm shell for pool tests: runs nothing, just snapshots a
    /// VM so there is a state token to park against.
    fn warm_fixture(hv: &Hypervisor, pool: &mut Pool) -> std::rc::Rc<kvmsim::VmSnapshot> {
        let (vm, _) = pool.acquire(hv, MEM);
        vm.write_guest(0x100, b"resident snapshot state").unwrap();
        let snap = std::rc::Rc::new(vm.snapshot());
        vm.write_guest(0x2000, b"invocation dirt").unwrap();
        pool.release_warm(vm, 7, 3, std::rc::Rc::clone(&snap));
        snap
    }

    #[test]
    fn warm_park_and_reacquire_round_trips_for_the_same_key() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
        let snap = warm_fixture(&hv, &mut pool);
        assert_eq!(pool.warm_shells(), 1);
        assert!(pool.has_warm(7, 3));
        assert!(!pool.has_warm(7, 4));
        assert!(!pool.has_warm(8, 3));

        // Wrong key: no warm shell handed out.
        assert!(pool.acquire_warm(&hv, 8, 3, MEM).is_none());
        assert!(pool.acquire_warm(&hv, 7, 4, MEM).is_none());
        assert!(pool.acquire_warm(&hv, 7, 3, 2 * MEM).is_none());

        let (vm, got) = pool.acquire_warm(&hv, 7, 3, MEM).expect("warm hit");
        assert!(std::rc::Rc::ptr_eq(&got, &snap));
        // The state is still resident (un-re-armed): both the snapshot
        // bytes and the previous invocation's dirt.
        assert_eq!(vm.read_guest(0x100, 4).unwrap(), b"resi");
        assert_eq!(vm.read_guest(0x2000, 4).unwrap(), b"invo");
        let s = pool.stats();
        assert_eq!((s.warm_acquired, s.warm_parked, s.reused), (1, 1, 1));
    }

    #[test]
    fn warm_capacity_evicts_lru_into_the_clean_list() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY).with_warm_capacity(2);
        for virtine in 0..3 {
            let (vm, _) = pool.acquire(&hv, MEM);
            vm.write_guest(0x100, b"secret").unwrap();
            let snap = std::rc::Rc::new(vm.snapshot());
            pool.release_warm(vm, 0, virtine, snap);
        }
        // Oldest (virtine 0) was demoted: wiped and parked clean.
        assert_eq!(pool.warm_shells(), 2);
        assert!(!pool.has_warm(0, 0));
        assert!(pool.has_warm(0, 1) && pool.has_warm(0, 2));
        assert_eq!(pool.idle_shells_of(MEM), 1);
        assert_eq!(pool.stats().warm_demoted, 1);
        let (vm, reused) = pool.acquire(&hv, MEM);
        assert!(reused);
        assert!(vm.read_guest(0x100, 6).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn take_warm_victim_wipes_before_handing_over() {
        let (clock, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
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
        let vm = pool.take_warm_victim_of(7, MEM).expect("victim");
        assert!(
            (clock.now() - t0).get() > 0,
            "demotion on the acquire path charges the wipe"
        );
        assert!(vm.read_guest(0x100, 8).unwrap().iter().all(|&b| b == 0));
        assert!(vm.read_guest(0x2000, 8).unwrap().iter().all(|&b| b == 0));
        assert_eq!(pool.warm_shells(), 0);
        assert_eq!(pool.stats().warm_demoted, 1);
    }

    #[test]
    fn zero_warm_capacity_degrades_to_a_wiped_release() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY).with_warm_capacity(0);
        let snap = {
            let (vm, _) = pool.acquire(&hv, MEM);
            vm.write_guest(0x100, b"secret").unwrap();
            let snap = std::rc::Rc::new(vm.snapshot());
            pool.release_warm(vm, 0, 0, snap.clone());
            snap
        };
        assert_eq!(pool.warm_shells(), 0);
        assert!(pool.acquire_warm(&hv, 0, 0, MEM).is_none());
        assert_eq!(pool.idle_shells(), 1);
        let (vm, reused) = pool.acquire(&hv, MEM);
        assert!(reused);
        assert!(vm.read_guest(0x100, 6).unwrap().iter().all(|&b| b == 0));
        drop(snap);
    }

    #[test]
    fn warm_victim_selection_prefers_the_requester_then_the_biggest_hoard() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
        // Tenant 5 hoards three warm shells; tenant 9 parks one.
        for virtine in 0..3 {
            let (vm, _) = pool.acquire(&hv, MEM);
            let snap = std::rc::Rc::new(vm.snapshot());
            pool.release_warm(vm, 5, virtine, snap);
        }
        let (vm, _) = pool.acquire(&hv, MEM);
        let snap = std::rc::Rc::new(vm.snapshot());
        pool.release_warm(vm, 9, 0, snap);

        // A requester with its own shell parked sacrifices itself...
        assert_eq!(pool.warm_victim_tenant(MEM, 9), Some(9));
        // ...anyone else thins the hoard, never tenant 9's only shell.
        assert_eq!(pool.warm_victim_tenant(MEM, 7), Some(5));
        assert_eq!(pool.warm_victim_tenant(2 * MEM, 7), None, "size gated");
        let vm = pool.take_warm_victim_of(5, MEM).expect("victim");
        assert_eq!(vm.mem_size(), MEM);
        assert_eq!(pool.warm_shells_of_tenant(5), 2);
        assert_eq!(pool.warm_shells_of_tenant(9), 1);
        assert!(pool.take_warm_victim_of(3, MEM).is_none(), "tenant gated");
    }

    #[test]
    fn stamped_parks_drive_cross_pool_lru_demotion() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
        // Shared-counter stamps arrive out of pool-local order of nothing:
        // park (tenant, virtine, stamp) = (1,0,10), (2,0,11), (1,1,12).
        for (tenant, virtine, stamp) in [(1, 0, 10), (2, 0, 11), (1, 1, 12)] {
            let (vm, _) = pool.acquire(&hv, MEM);
            vm.write_guest(0x100, b"warm state").unwrap();
            let snap = std::rc::Rc::new(vm.snapshot());
            pool.release_warm_stamped(vm, tenant, virtine, snap, stamp);
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
        let (vm, reused) = pool.acquire(&hv, MEM);
        assert!(reused);
        assert!(vm.read_guest(0x100, 10).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn warm_export_import_round_trips_with_key_and_stamp() {
        let (_, hv) = hv();
        let mut src = Pool::new(PoolMode::CachedAsync, ENTRY);
        let mut dst = Pool::new(PoolMode::CachedAsync, ENTRY);
        let snap = warm_fixture(&hv, &mut src);

        // LRU export: the entry leaves intact — key, snapshot identity,
        // and stamp all survive the move.
        let e = src.export_warm_lru().expect("one warm shell parked");
        assert_eq!((e.0.tenant, e.0.virtine), (7, 3));
        assert!(std::rc::Rc::ptr_eq(&e.0.snap, &snap));
        assert_eq!(src.warm_shells(), 0);
        dst.import_warm(e);
        assert!(dst.has_warm(7, 3));
        assert_eq!(dst.oldest_warm_stamp(None), Some(0));

        // The destination re-arms it for the same key, like a local park:
        // the post-snapshot dirt is gone after the delta restore.
        let (vm, got) = dst.acquire_warm(&hv, 7, 3, MEM).expect("warm hit");
        assert!(std::rc::Rc::ptr_eq(&got, &snap));
        vm.restore_delta(&got);
        assert!(vm.read_guest(0x2000, 15).unwrap().iter().all(|&b| b == 0));
        assert_eq!(
            &vm.read_guest(0x100, 23).unwrap(),
            b"resident snapshot state"
        );
        dst.release(vm);
        assert!(src.export_warm_lru().is_none(), "source is empty");
    }

    #[test]
    fn dropped_shells_balance_the_inventory_arithmetic() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
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
        let mut pool = Pool::new(PoolMode::Disabled, ENTRY);
        let (vm, _) = pool.acquire(&hv, MEM);
        let snap = std::rc::Rc::new(vm.snapshot());
        pool.release_warm(vm, 0, 0, snap);
        assert_eq!(pool.warm_shells() + pool.idle_shells(), 0);
    }

    #[test]
    fn prewarm_fills_the_pool() {
        let (_, hv) = hv();
        let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
        pool.prewarm(&hv, MEM, 4);
        assert_eq!(pool.idle_shells(), 4);
        let (_, reused) = pool.acquire(&hv, MEM);
        assert!(reused);
    }
}
