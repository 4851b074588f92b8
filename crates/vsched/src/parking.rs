//! Parked runs: the dispatcher's half of a wait.
//!
//! A run that blocks suspends (`wasp::SuspendedRun`) and parks here, in
//! the dispatcher's one ordered map of parked runs (wait token →
//! [`Parked`], which knows its shard). `hostsim` owns the other half — the
//! object waited on and the wake ([`wasp::WaitTarget`]) — so this module
//! never asks *what kind* of wait it holds: it registers a token, takes
//! the woken tokens back, and decides where a woken run resumes, when a
//! parked one expires, and what a kill or an eviction costs.

use vclock::costs;
use wasp::SuspendedRun;

use crate::dispatcher::Dispatcher;
use crate::lifecycle::ShardState;
use crate::request::{BlockMode, FailCause, Terminal};
use crate::shard::{Parked, Progress, Queued, Ticket, Work};
use crate::tenant::ShedReason;

impl Dispatcher {
    /// Moves a suspended run (and the shell inside it) from shard `from`
    /// to shard `to`: one explicit transfer cost, priced by the hop it
    /// crosses exactly like a clean-shell steal, counted on both ends.
    /// The wait registration is keyed by token, not shard, so a parked
    /// run's later wake finds it wherever it went.
    pub(crate) fn migrate(&mut self, p: &mut Parked, from: usize, to: usize) {
        self.wasp
            .clock()
            .tick(self.topology.transfer_cost(from, to));
        p.shard = to;
        p.progress.migrated = true;
        self.shards[from].stats.migrated_out += 1;
        self.shards[to].stats.migrated_in += 1;
    }

    /// Wait tokens of the runs parked on `shard`, ascending — the order
    /// lifecycle passes visit them in.
    pub(crate) fn parked_on(&self, shard: usize) -> Vec<u64> {
        let on_shard = self.parked.iter().filter(|(_, p)| p.shard == shard);
        on_shard.map(|(&token, _)| token).collect()
    }

    /// Detaches the parked run registered under `token` from the parked
    /// map and from the host object it waits on (so a later readiness
    /// event wakes nobody).
    pub(crate) fn unpark(&mut self, token: u64) -> Box<Parked> {
        let p = self.parked.remove(&token);
        let p = p.expect("token names a parked run");
        self.wasp.kernel().wait_clear(p.run.wait().target);
        p
    }

    /// Parks a run that suspended at worker position `blocked_from` on
    /// shard `idx` and registers its wake-up. Returns the worker's new
    /// timeline position (the block instant: the worker is given back in
    /// event-driven mode; in spin-poll mode the shard's `spinning` gate
    /// holds further batches until the wake).
    pub(crate) fn park_suspended(
        &mut self,
        idx: usize,
        run: SuspendedRun,
        ticket: Ticket,
        progress: Progress,
        blocked_from: u64,
    ) -> u64 {
        // Only a connection-bound run blocks, and those are never
        // tracked: no parked run is a retry or hedge copy.
        debug_assert!(!self.open.tracks(ticket.seq));
        let token = self.next_token;
        self.next_token += 1;
        // Registration is race-free: an object that became ready between
        // the block decision and this call wakes immediately.
        let registered = self.wasp.kernel().wait_register(run.wait().target, token);
        registered.expect("a parked run's wait object outlives the park");
        let p = Parked {
            shard: idx,
            run,
            ticket,
            progress,
            blocked_from,
            timeout_at: match self.tenants[ticket.tenant.0].profile.max_block {
                Some(max) => blocked_from.saturating_add(max.get()),
                None => u64::MAX,
            },
            // Parking on a draining shard arms the grace clock
            // immediately; the next reconcile pass may still migrate the
            // run out (and disarm it) before the clock fires.
            evict_at: if self.members.state(idx) == ShardState::Draining {
                self.grace_deadline(idx, blocked_from)
            } else {
                u64::MAX
            },
        };
        self.tenants[ticket.tenant.0].stats.blocked += 1;
        self.shards[idx].stats.blocked += 1;
        if self.config.block == BlockMode::SpinPoll {
            self.shards[idx].spinning += 1;
        }
        self.parked.insert(token, Box::new(p));
        blocked_from
    }

    /// Moves every parked run whose wait ended back to the *front* of a
    /// run queue, stamped no earlier than `stamp`. The queue is chosen by
    /// *placement* ([`Dispatcher::resume_shard`]): under skewed load a
    /// wake re-admits the run on the least-loaded shard instead of
    /// pinning it to the (possibly saturated) shard it blocked on — the
    /// suspended shell rides inside the run, so the move is as
    /// isolation-safe as a shell steal, and completion accounting follows
    /// the landing shard.
    pub(crate) fn deliver_wakeups(&mut self, stamp: u64) {
        let tick = self.config.tick.get();
        for token in self.wasp.kernel().take_woken() {
            let Some(mut p) = self.parked.remove(&token) else {
                // The run was killed after the wake was queued.
                continue;
            };
            let (idx, seq) = (p.shard, p.ticket.seq);
            let wake = stamp.max(p.blocked_from);
            let bound = p.timeout_at.min(p.evict_at);
            if wake > bound {
                // The data arrived, but only after the tenant's max_block
                // bound (or the lifecycle grace clock) had already
                // expired: the kill fires at the bound, not the wake —
                // the budget is a hard ceiling, not a race against late
                // bytes. (A wake exactly at the bound still resumes,
                // matching advance_to's strict `at < limit`.)
                self.expire_parked(p, bound);
                continue;
            }
            self.settle_spin(idx, p.blocked_from, wake);
            self.shards[idx].stats.resumed += 1;
            self.wasp.clock().tick(costs::VSCHED_QUEUE_OP);
            let target = p.run.wait().target;
            self.tspan(seq, "park", || format!("{target:?}"), p.blocked_from, wake);
            let dest = self.resume_shard(idx, wake);
            if dest != idx {
                self.migrate(&mut p, idx, dest);
                let hop = self.topology.hop(idx, dest);
                self.tspan(seq, "migrate", || format!("hop={hop:?}"), wake, wake);
            }
            self.tspan(seq, "resume", || format!("shard={dest}"), wake, wake);
            let q = Queued {
                front: true,
                ticket: p.ticket,
                work: Work::Resume(p),
            };
            self.shards[dest].enqueue_at(q, tick, wake);
        }
    }

    /// Decision point 4 (resume-migrate): asks the engine which shard a
    /// woken parked run resumes on, anchored at the blocking shard — an
    /// idle home never loses a tie, and among equally loaded siblings the
    /// nearest wins, so migration only happens when it buys an earlier
    /// start, and then over the shortest hop. Worker timelines are
    /// clamped to `wake`: a `free_at` in the past means "free now", not
    /// "freer than the other idle shard". A resume needs no shell acquire
    /// — the shell rides inside the suspension — so warm-list affinity is
    /// irrelevant, the move is as isolation-safe as a shell steal, and a
    /// saturated home shard cannot hold a runnable virtine hostage.
    /// Pinned home under [`BlockMode::SpinPoll`] (the home worker *is*
    /// the wait there).
    fn resume_shard(&self, home: usize, wake: u64) -> usize {
        if self.config.block == BlockMode::SpinPoll {
            return home;
        }
        let c = self.candidates(Some(home), None, None, wake);
        self.engine.resume(&c)
    }

    /// Under [`BlockMode::SpinPoll`], closes out a parked run's spin
    /// window `[from, to]`: the worker was busy-polling the whole wait, so
    /// it lands on the worker timeline and in `busy_wait_cycles`. A no-op
    /// in event-driven mode.
    fn settle_spin(&mut self, idx: usize, from: u64, to: u64) {
        if self.config.block == BlockMode::SpinPoll {
            let spin = to - from;
            self.shards[idx].spinning -= 1;
            self.shards[idx].stats.busy_wait_cycles += spin;
            self.shards[idx].free_at = self.shards[idx].free_at.max(to);
        }
    }

    /// Ends a detached parked run whose bound expired at `at`: evicted
    /// when the lifecycle grace clock fired first, killed at the tenant's
    /// `max_block` otherwise (ties go to the kill, preserving
    /// pre-lifecycle behavior exactly).
    pub(crate) fn expire_parked(&mut self, p: Box<Parked>, at: u64) {
        if p.evict_at < p.timeout_at {
            self.evict_parked(p, at, FailCause::GraceExpired);
        } else {
            self.kill_parked(p, at);
        }
    }

    /// Hard-stops a parked run on behalf of shard lifecycle: the run is
    /// aborted, its shell wiped back into the (draining) shard's pool —
    /// or destroyed outright when the shard failed, taking the hardware
    /// context with it — and the request is shed with
    /// [`ShedReason::Evicted`]. Unlike [`Dispatcher::kill_parked`] this
    /// is a *shed*, not an abnormal serve: no completion is recorded, and
    /// no retry is tried — a parked run is bound to a connection, whose
    /// conversation cannot be replayed. The caller has already detached
    /// the run from the parked map (or popped it, woken, off its shard's
    /// queue).
    pub(crate) fn evict_parked(&mut self, p: Box<Parked>, at: u64, cause: FailCause) {
        let (idx, seq) = (p.shard, p.ticket.seq);
        let at = at.max(p.blocked_from);
        self.settle_spin(idx, p.blocked_from, at);
        let target = p.run.wait().target;
        let (outcome, used) = self.wasp.abort_suspended(p.run);
        match cause {
            // Draining: the worker is alive, the shell survives its run —
            // the ordinary wiped release, then the next reconcile pass
            // evacuates it like any other idle shell.
            FailCause::GraceExpired => self.shards[idx].pool.release(used),
            // Failed: the context died with the shard.
            FailCause::ShardFailed => self.shards[idx].pool.drop_shell(used),
        }
        self.tspan(seq, "park", || format!("{target:?}"), p.blocked_from, at);
        self.stats.blocked_cycles += outcome.breakdown.blocked.get();
        self.tspan(seq, "drain_evict", || cause.label().to_string(), at, at);
        let end = Terminal::Shed {
            reason: ShedReason::Evicted,
            evict: Some(cause),
        };
        self.settle(&p.ticket, at, end);
    }

    /// Kills a parked run whose tenant `max_block` expired at timeline
    /// position `at`: the shell is wiped back into the shard pool, the
    /// tenant's in-flight slot is released, and the completion surfaces as
    /// abnormal (`ExitKind::Blocked`). The caller has already detached the
    /// run from the parked map.
    fn kill_parked(&mut self, p: Box<Parked>, at: u64) {
        let (idx, seq) = (p.shard, p.ticket.seq);
        self.settle_spin(idx, p.blocked_from, at);
        let target = p.run.wait().target;
        let (outcome, used) = self.wasp.abort_suspended(p.run);
        // The shell still holds the killed invocation's state: the
        // ordinary wiped release (§5.2) erases it before any reuse.
        self.shards[idx].pool.release(used);
        self.tenants[p.ticket.tenant.0].stats.blocked_timeout += 1;
        self.shards[idx].stats.blocked_timeout += 1;
        self.tspan(seq, "park", || format!("{target:?}"), p.blocked_from, at);
        // Untracked, so the run is its own logical request.
        let end = Terminal::Served {
            logical: seq,
            shard: idx,
            progress: p.progress,
            breakdown: outcome.breakdown,
            exit: outcome.exit,
            result: outcome.invocation.result,
        };
        self.settle(&p.ticket, at, end);
    }
}

#[cfg(test)]
mod tests {
    use hostsim::SockId;
    use vclock::rng::Rng;
    use vclock::Cycles;
    use wasp::{HypercallMask, Invocation, VirtineId, VirtineSpec, Wasp};

    use crate::{
        Dispatcher, DispatcherConfig, FaultPlan, LifecycleAction, Placement, Request, TenantId,
        TenantProfile,
    };

    /// A dispatcher with a registered virtine that blocks in `recv` on
    /// its bound connection and halts once a message arrives.
    fn parking_lot(config: DispatcherConfig) -> (Dispatcher, VirtineId) {
        let mut d = Dispatcher::new(Wasp::new_kvm_default(), config);
        let src = ".org 0x8000\n mov r0, HC_RECV\n mov r1, 0x4000\n mov r2, 64\n mov r3, 0\n out HC_PORT, r0\n hlt\n";
        let img = wasp::hypercall::assemble(src).unwrap();
        let spec = VirtineSpec::new("recv", img, 64 * 1024)
            .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
            .with_snapshot(false);
        let id = d.register(spec).unwrap();
        (d, id)
    }

    /// Submits one run of `id` bound to a fresh connection on `port`;
    /// returns the client end, whose first `send` ends the run's wait.
    fn submit_recv(d: &mut Dispatcher, t: TenantId, id: VirtineId, port: u16, at: f64) -> SockId {
        let k = d.wasp().kernel().clone();
        k.net_listen(port).unwrap();
        let client = k.net_connect(port).unwrap();
        let server = k.net_accept(port).unwrap().unwrap();
        let inv = Invocation::with_conn(server);
        d.submit(Request::new(t, id, at).with_invocation(inv))
            .unwrap();
        client
    }

    fn open_tenant(d: &mut Dispatcher, name: &str) -> TenantId {
        d.add_tenant(TenantProfile::new(name).with_mask(HypercallMask::ALLOW_ALL))
    }

    /// `Dispatcher::parked`, the per-shard snapshots, and the map itself
    /// tell one story.
    fn assert_parked_views_agree(d: &Dispatcher) {
        let snaps = d.shard_snapshots();
        let total: usize = snaps.iter().map(|s| s.parked).sum();
        assert_eq!(
            d.parked(),
            total,
            "parked() vs summed ShardSnapshot::parked"
        );
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.parked, d.parked_on(i).len(), "shard {i}");
        }
    }

    #[test]
    fn equal_bounds_expire_in_bound_then_shard_then_token_order() {
        let (mut d, id) = parking_lot(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let (on_zero, on_one) = (open_tenant(&mut d, "a"), open_tenant(&mut d, "b"));
        // Shard 1's run parks first and gets the lower token.
        submit_recv(&mut d, on_one, id, 70, 0.0);
        d.run_to_idle();
        submit_recv(&mut d, on_zero, id, 71, 0.001);
        d.run_to_idle();
        let homes: Vec<usize> = d.parked.values().map(|p| p.shard).collect();
        assert_eq!(homes, [1, 0], "token order is the reverse of shard order");
        for p in d.parked.values_mut() {
            p.timeout_at = Cycles::from_secs(0.005).get();
        }
        d.run_until(0.01);
        let killed: Vec<(usize, f64)> = d
            .completions()
            .iter()
            .map(|c| (c.shard, c.finish))
            .collect();
        assert_eq!(
            killed,
            [(0, 0.005), (1, 0.005)],
            "the tie goes to the lower shard"
        );
        assert_eq!((d.parked(), d.stats().blocked_timeout), (0, 2));
    }

    #[test]
    fn a_run_parked_on_a_hung_shard_expires_only_after_the_unhang() {
        let (mut d, id) = parking_lot(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let t = d.add_tenant(
            TenantProfile::new("t")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_max_block(Cycles::from_secs(0.002)),
        );
        d.set_fault_plan(FaultPlan::new().hang_shard(
            Cycles::from_secs(0.001),
            0,
            Cycles::from_secs(0.010),
        ));
        submit_recv(&mut d, t, id, 70, 0.0);
        d.run_until(0.008);
        assert_eq!(d.parked(), 1, "a wedged worker fires no timeouts");
        assert_eq!(d.stats().blocked_timeout, 0);
        d.run_until(0.02);
        assert_eq!((d.parked(), d.stats().blocked_timeout), (0, 1));
        assert_parked_views_agree(&d);
    }

    #[test]
    fn a_drain_migrates_a_parked_run_by_reassigning_its_shard() {
        let (mut d, id) = parking_lot(DispatcherConfig {
            shards: 2,
            ..DispatcherConfig::default()
        });
        let t = open_tenant(&mut d, "t");
        let client = submit_recv(&mut d, t, id, 70, 0.0);
        d.run_to_idle();
        let (&token, home) = d.parked.iter().map(|(t, p)| (t, p.shard)).next().unwrap();
        let moved = d.drain_shard(home);
        let migrated = LifecycleAction::ParkMigrated {
            seq: 0,
            from: home,
            to: 1 - home,
        };
        assert!(moved.contains(&migrated), "{moved:?}");
        // Same token, same registration (a second one on the socket
        // would have been refused as busy): only the shard changed.
        assert_eq!(d.parked.keys().copied().collect::<Vec<_>>(), [token]);
        assert_eq!(d.parked[&token].shard, 1 - home);
        assert_eq!(d.next_token, token + 1, "no new token was issued");
        assert_parked_views_agree(&d);
        // The wake arrives under the original token and finds the run.
        d.wasp().kernel().net_send(client, b"ping").unwrap();
        d.run_until(0.01);
        d.run_to_idle();
        let c = &d.completions()[0];
        assert!(c.exit_normal && c.migrated && c.resumes == 1);
        assert_eq!((c.shard, d.parked()), (1 - home, 0));
    }

    #[test]
    fn parked_views_agree_through_a_random_park_wake_migrate_kill_fail_script() {
        let (mut d, id) = parking_lot(DispatcherConfig {
            shards: 3,
            ..DispatcherConfig::default()
        });
        let patient = open_tenant(&mut d, "patient");
        // Its runs are killed 2 ms into a park unless woken first.
        let hasty = d.add_tenant(
            TenantProfile::new("hasty")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_max_block(Cycles::from_secs(0.002)),
        );
        let mut rng = Rng::seeded(0x9A2C);
        let mut clients: Vec<SockId> = Vec::new();
        let mut now = 0.0;
        for step in 0..200u16 {
            now += rng.range_f64(0.0001, 0.001);
            match rng.below(6) {
                // Park: a new run blocks on a fresh connection.
                0 | 1 => {
                    let t = if rng.bool(0.3) { hasty } else { patient };
                    clients.push(submit_recv(&mut d, t, id, 1000 + step, now));
                }
                // Wake: some parked (or long gone) run's bytes arrive.
                2 if !clients.is_empty() => {
                    let client = clients.swap_remove(rng.below(clients.len()));
                    d.wasp().kernel().net_send(client, b"ping").unwrap();
                }
                // Migrate: drain a shard (its parked runs move out).
                3 => drop(d.drain_shard(rng.below(3))),
                // Fail: a shard dies with everything parked on it.
                4 => drop(d.fail_shard(rng.below(3))),
                _ => d.restore_shard(rng.below(3)),
            }
            assert_parked_views_agree(&d);
            // Kill: time passes, hasty runs hit their bound.
            d.run_until(now);
            assert_parked_views_agree(&d);
        }
        d.run_to_idle();
        assert_parked_views_agree(&d);
        let s = d.stats();
        assert!(s.blocked > 20 && s.resumed > 5 && s.migrations > 0, "{s:?}");
        assert!(s.blocked_timeout > 0 && s.evicted_failed > 0, "{s:?}");
        assert_eq!(s.admitted, s.served + s.shed_evicted + d.parked() as u64);
    }
}
