//! §5.2 in one suite: "once … the relevant virtine returns, we can clear its
//! context, preventing information leakage".
//!
//! `cargo test --test isolation` runs the tests below, and
//! `cargo test --doc -p wasp` the `compile_fail` doctests of the
//! `wasp::pool` module docs (each beside a compiling sibling that makes the
//! legal move). Each claim, and what holds it:
//!
//! | claim | held by |
//! |---|---|
//! | a used shell reaches a clean list only through a wipe | the types (`wasp::UsedShell` has no way onto a clean list but `Pool::release`); doctest "a used shell reaches a clean list only through a wipe" |
//! | a warm shell runs only for its own key, re-armed, or is wiped first | the types (`wasp::WarmShell` runs only as `Shell::Warm`); doctest "a warm shell is not a clean one" |
//! | a clean shell runs only after the runtime installs an image or a snapshot | the types (`wasp::CleanShell` keeps its VM private); doctest "a clean shell has no `KVM_RUN` of its own" |
//! | a wiped shell serves the next tenant exactly as a never-used one, under either cleaning mode | [`shell_memory::b_on_a_cleaned_shell_of_a`] |
//! | a warm shell demoted on the acquire path does too | [`shell_memory::b_on_a_demoted_warm_shell_of_a`] |
//! | a VM created on a destroyed shell's retired buffer and block cache does too, whichever way the shell was destroyed | [`shell_memory::b_on_a_vm_created_after_a_dirty_shell_was_dropped`], [`shell_memory::b_on_a_vm_created_after_a_failed_shards_teardown`], [`shell_memory::b_on_a_vm_created_after_a_suspended_run_was_abandoned`], [`shell_memory::b_on_a_vm_created_after_an_unpooled_release`] |
//! | a retained block never runs over bytes it was not built from | [`shell_memory::a_revived_block_cache_never_runs_a_block_from_a_page_the_next_image_leaves_zero`], [`predecode_retention::a_cleaned_shell_serves_the_next_tenant_exactly_like_a_never_used_one`], [`predecode_retention::restoring_snapshot_y_over_a_shell_armed_from_x_runs_y`] |
//! | what retention is for: the same image re-armed or reloaded rebuilds nothing | [`predecode_retention::rearming_or_cleaning_a_shell_for_the_same_image_rebuilds_nothing`] |
//! | a wipe zeroes exactly the pages the run touched, charged by extent | [`page_counts`] |
//! | a guest fault (a `jmp r` far outside memory, a load past its end) is contained: the run ends as a `Fault` with no host panic, the shell is never parked warm (`abnormal_exits_never_park_warm`), and the next tenant on the same one-shard dispatcher sees what it sees on a never-used shell | [`fault_containment`] |
//! | hypercalls are default-deny: under `DENY_ALL` every row of `wasp::hypercall::TABLE` but `exit` and `snapshot` is denied and counted, with no host side effect; a narrowing mask never widens a spec's; a number past the table is killed when allowed and denied when masked | [`default_deny`] |
//!
//! The warm re-arm's exactness and the warm token's rules are unit tests of
//! `wasp::runtime` (`the_capturing_shell_rearms_to_exactly_the_snapshot`,
//! `invalidated_snapshot_makes_warm_shells_stale_and_wiped`,
//! `abnormal_exits_never_park_warm`).

use std::sync::{Mutex, MutexGuard};

mod default_deny;
mod fault_containment;
mod page_counts;
mod predecode_retention;
mod shell_memory;

/// `visa::pred::counters()` is process-wide: every test here takes its
/// turn, so that a block count moving is that test's doing.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}
