//! # vsched — the sharded, multi-tenant virtine dispatcher
//!
//! The paper shows that a *single* virtine client can provision isolated
//! execution contexts at the hardware limit: shell pooling and
//! snapshotting land start-up within a few percent of a bare `vmrun`
//! (§5.2, Figure 8). `vsched` is the layer a *platform* needs between
//! "millions of users" and that primitive: it admits, schedules, and
//! places invocations from many tenants onto Wasp without giving back the
//! microseconds the runtime worked for.
//!
//! ## Mechanisms, and the paper section each generalizes
//!
//! * **Sharded shell pools with work stealing** ([`Dispatcher`], one
//!   [`wasp::Pool`] per shard) — generalizes §5.2's single shell pool.
//!   One pool is a serialization point under concurrency; per-shard pools
//!   keep the acquire path (`WASP_POOL_BOOKKEEPING`, ~60 cycles)
//!   shard-local and contention-free. When a shard's clean list runs dry
//!   it steals a shell from the richest sibling, paying one explicit
//!   cross-shard transfer cost rather than imposing a lock on every
//!   request. Stolen shells were wiped on release, so §5.2's
//!   no-information-leakage guarantee ("we can clear its context,
//!   preventing information leakage") holds *across tenants and shards*,
//!   not just across successive invocations in one pool.
//! * **Warm shells and snapshot-aware placement**
//!   ([`Placement::SnapshotAware`], [`DispatcherConfig::warm_capacity`]) —
//!   generalizes §5.2's snapshotting the way SEUSS keeps snapshot-resident
//!   function contexts: a shell released after a snapshotted run parks
//!   *warm* in its shard's pool, keyed by `(tenant, virtine)`, and a later
//!   request for the same key is re-armed by copying back only the pages
//!   the previous invocation dirtied (`kvmsim`'s dirty-page log) instead
//!   of the full sparse snapshot. Placement then becomes a cache-hit
//!   decision: route to the shard already warm for the key, fall back to
//!   least-loaded. Stealing prefers clean shells; demoting a warm shell
//!   (LRU eviction, cross-key fallback, or a last-resort steal) is always
//!   a full wipe, so the §5.2 isolation guarantee is untouched — see the
//!   `wasp::pool` lifecycle diagram.
//! * **Topology-aware placement engine** ([`Topology`], [`CostEngine`])
//!   — every shell-routing decision
//!   (initial placement, the acquire chain's clean and warm steals,
//!   resume-time migration, warm-capacity verdicts) is scored by one
//!   policy layer over the shard→CCX→socket topology, through one
//!   [`Candidate`] cost function. Steals and migrations prefer near
//!   siblings and pay calibrated *per-hop* transfer costs
//!   (`vclock::costs::VSCHED_TRANSFER_*`); warm caching can trade the
//!   fixed per-pool LRU bound for a global cross-shard budget plus
//!   per-tenant quotas ([`DispatcherConfig::warm_budget`],
//!   [`DispatcherConfig::warm_tenant_quota`]) — see the decision-point
//!   diagram in [`placement`] and the `topology_steal` bench.
//! * **Multi-tenant admission control** ([`TenantProfile`]) — generalizes
//!   §5.1's default-deny posture from hypercalls to platform capacity.
//!   Each tenant gets a token-bucket rate limit ([`TokenBucket`]) and an
//!   in-flight cap (both shed at the door, before the request takes a
//!   sequence number), plus a [`wasp::HypercallMask`] *ceiling*
//!   intersected with every spec policy: a tenant profile can only narrow
//!   what a virtine may do, never widen it (the per-compartment resource budget framing
//!   of the related capability-hardware literature, see PAPERS.md).
//! * **Priority run queues with batched ticks** ([`Request`],
//!   [`DispatcherConfig::tick`]) — generalizes §7.1's single-queue
//!   serverless experiment. Admitted requests wait for their shard's next
//!   batch tick; each tick pops up to `batch_size` requests by (tenant
//!   priority, FIFO). Everything is driven by the `vclock` virtual
//!   clock, so a full platform run is deterministic and benchmarkable
//!   bit-for-bit — the property the reproduction depends on everywhere
//!   else.
//! * **Event-driven blocked I/O** ([`BlockMode`], the dispatcher's
//!   parked map) — generalizes §6.3's blocking `recv` from a busy-wait into an
//!   exit. A virtine that blocks suspends (`wasp::SuspendedRun` — shell,
//!   invocation, and segmented accounting ride together, outside every
//!   pool, so a parked shell is structurally unstealable and
//!   undemotable), the shard worker returns to useful work, and a socket
//!   wake re-queues the run at the *front* of its shard's queue. A
//!   per-tenant `max_block` bound kills runs parked too long (wiped
//!   shell, `blocked_timeout` stat); [`BlockMode::SpinPoll`] preserves
//!   the pre-suspension behavior as a measurable baseline (the
//!   `blocked_io` bench shows the fast-tenant p99 gap).
//! * **Dispatcher statistics** ([`DispatcherStats`], [`TenantStats`],
//!   [`ShardSnapshot`]) — surfaced exactly like `wasp::PoolStats`:
//!   per-tenant served/shed/stolen/blocked/in-flight and per-shard queue
//!   depth, parked runs, batches, busy-wait cycles, and steal traffic,
//!   so experiments (and the `dispatcher_scaling`/`blocked_io` benches)
//!   can attribute every request.
//! * **SLO-grade observability** ([`Dispatcher::enable_tracing`],
//!   [`Dispatcher::set_slo`]) — generalizes §5's breakdown methodology
//!   from a bench-time measurement into a serving-time surface. With
//!   tracing on, every invocation leaves a `vtrace` span tree (admit →
//!   queue-wait → shell-acquire → exec → park/resume → migrate →
//!   complete/shed) stamped on the virtual clock, dumpable as JSON
//!   lines; queue-wait, exec, and per-tenant end-to-end latency
//!   distributions accumulate in log2-bucketed
//!   [`vclock::stats::Histogram`]s feeding Prometheus `_bucket` series;
//!   and a [`vtrace::slo::SloEngine`] evaluates declared objectives
//!   (latency bounds, availability) over sliding vclock windows with
//!   multi-window burn-rate alerts. Runtime operator knobs
//!   ([`Dispatcher::set_warm_budget`]) inject the degradations the
//!   `slo_observe` bench proves the alerts catch. See
//!   `docs/observability.md` for the full metric catalog.
//! * **Shard lifecycle under live traffic** ([`lifecycle`],
//!   [`Dispatcher::drain_shard`] / [`Dispatcher::fail_shard`] /
//!   [`Dispatcher::restore_shard`]) — a per-shard desired-state machine
//!   (`Active → Draining → Drained`, plus `Failed`) driven by an
//!   idempotent reconciliation loop ([`Dispatcher::reconcile`]) in
//!   vclock time: a draining shard leaves the placement engine's
//!   eligible set, its queued work, migratable parked runs, and pooled
//!   shells evacuate to siblings through the same priced `Candidate`
//!   cost machinery as steals, and unmigratable parked runs ride a
//!   grace period ([`DispatcherConfig::drain_grace`]) before being shed
//!   as [`ShedReason::Evicted`]. [`FaultPlan`] injects shard/shell kills at
//!   chosen virtual instants (seeded via `vclock::rng`), so failure
//!   recovery replays bit-for-bit through the same reconcile path — see
//!   `docs/lifecycle.md` and the `drain_evict` bench.
//! * **Health-driven failover with exactly-once retry and hedging**
//!   ([`health`], [`Dispatcher::set_health`], [`RetryPolicy`] /
//!   [`HedgePolicy`]) — a heartbeat/suspicion failure detector in
//!   virtual time turns *gray* failures ([`FaultKind::Hang`]: the worker
//!   wedges but the shard stays `Active` and placement keeps feeding it)
//!   into declared failures through the same `fail_shard` → reconcile →
//!   re-admit path as the fault plan, and restores them via half-open
//!   circuit-breaker probes. Work lost to a shard failure is re-submitted exactly once
//!   under a per-tenant budgeted backoff, tail latency is optionally
//!   hedged from the observed p99 with first-completion-wins dedup
//!   ([`openreq`]). See `docs/reliability.md` and the `fault_recovery`
//!   bench.
//! * **One request record, one terminal outcome** ([`dispatcher`]) — a
//!   request is one ticket from admission on, and one function settles
//!   it, which is why the conservation identity (stated once, in
//!   `docs/reliability.md`) holds on every path.
//! * **Cluster-scale serving** ([`cluster`]) — N topology-described
//!   dispatchers become *nodes* behind one routing surface. Node
//!   selection and failover evacuation ride the same priced
//!   [`Candidate`] machinery as intra-node steals, one
//!   [`Hop::CrossNode`] further out
//!   (`vclock::costs::VSCHED_TRANSFER_CROSS_NODE`); the [`health`]
//!   detector runs a second instance with nodes as the monitored
//!   population, fencing a declared node (every shard failed, no
//!   stranded copy can double-run) while the `vhttp` ingress
//!   re-dispatches its unresolved work from pristine edge inputs. See
//!   `docs/cluster.md` and the `ingress_fanout` bench.
//!
//! ## Virtual time
//!
//! Every instant and duration `vsched` stores or is configured with is
//! [`vclock::Cycles`]. Seconds enter at three entry points only —
//! [`Request::new`], [`Dispatcher::run_until`] and
//! [`Cluster::hang_node_at`] — each converted once, on entry, by
//! [`vclock::Cycles::from_secs`], which refuses NaN, infinite and
//! negative times. [`Completion`] still reports f64 seconds.
//!
//! ## Example
//!
//! ```
//! use vsched::{Dispatcher, DispatcherConfig, Request, TenantProfile};
//! use wasp::{HypercallMask, VirtineSpec, Wasp};
//!
//! let mut d = Dispatcher::new(Wasp::new_kvm_default(), DispatcherConfig::default());
//! let image = visa::assemble(".org 0x8000\n mov r0, 42\n hlt\n").unwrap();
//! let id = d
//!     .register(VirtineSpec::new("answer", image, 64 * 1024).with_snapshot(false))
//!     .unwrap();
//! let tenant = d.add_tenant(TenantProfile::new("acme").with_rate(100.0, 8.0));
//! d.submit(Request::new(tenant, id, 0.0)).unwrap();
//! d.run_to_idle();
//! assert!(d.completions()[0].exit_normal);
//! ```

pub mod cluster;
pub mod dispatcher;
pub mod health;
pub mod lifecycle;
pub mod openreq;
mod parking;
pub mod placement;
pub mod request;
pub mod shard;
pub mod tenant;
pub mod topology;

pub use cluster::{Cluster, ClusterAction, ClusterStats};
pub use dispatcher::{Dispatcher, DispatcherLoad};
pub use health::{CircuitState, HealthConfig, HealthStats, ShardHealth};
pub use lifecycle::{FaultEvent, FaultKind, FaultPlan, LifecycleAction, ShardState};
pub use placement::{Candidate, CostEngine, WarmPolicy, WarmVerdict};
pub use request::{BlockMode, Completion, DispatcherConfig, DispatcherStats, Placement, Request};
pub use shard::{ShardSnapshot, ShardStats};
pub use tenant::{
    HedgePolicy, RetryPolicy, ShedReason, TenantId, TenantProfile, TenantStats, TokenBucket,
};
pub use topology::{Hop, Topology};

#[cfg(test)]
mod tests {
    use super::*;
    use vclock::Cycles;
    use wasp::{HypercallMask, Invocation, PoolMode, VirtineSpec, Wasp};

    const MEM: usize = 64 * 1024;

    fn dispatcher(config: DispatcherConfig) -> Dispatcher {
        Dispatcher::new(Wasp::new_kvm_default(), config)
    }

    fn halt_spec(name: &str) -> VirtineSpec {
        let img = visa::assemble(".org 0x8000\n mov r0, 7\n hlt\n").unwrap();
        VirtineSpec::new(name, img, MEM).with_snapshot(false)
    }

    #[test]
    fn single_request_round_trips() {
        let mut d = dispatcher(DispatcherConfig::default());
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("solo"));
        d.submit(Request::new(tenant, id, 0.0)).unwrap();
        d.run_to_idle();
        let c = &d.completions()[0];
        assert!(c.exit_normal);
        assert!(c.finish >= c.start && c.service > 0.0);
        assert_eq!(d.stats().served, 1);
        assert_eq!(d.tenant_stats(tenant).served, 1);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
    }

    #[test]
    fn rate_limited_tenant_is_shed_at_the_bucket() {
        let mut d = dispatcher(DispatcherConfig::default());
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("throttled").with_rate(10.0, 2.0));
        // Burst of 5 at t=0: bucket holds 2, the rest shed.
        let mut admitted = 0;
        for _ in 0..5 {
            if d.submit(Request::new(tenant, id, 0.0)).is_ok() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 2);
        assert_eq!(d.tenant_stats(tenant).shed_rate_limit, 3);
        d.run_to_idle();
        assert_eq!(d.tenant_stats(tenant).served, 2);
    }

    #[test]
    fn in_flight_cap_sheds_excess() {
        let mut d = dispatcher(DispatcherConfig {
            // One huge tick: nothing executes between the submissions.
            tick: Cycles::from_micros(10_000_000.0),
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("capped").with_max_in_flight(3));
        let results: Vec<bool> = (0..6)
            .map(|_| d.submit(Request::new(tenant, id, 0.0)).is_ok())
            .collect();
        assert_eq!(results.iter().filter(|&&ok| ok).count(), 3);
        assert_eq!(d.tenant_stats(tenant).shed_in_flight, 3);
        d.run_to_idle();
        assert_eq!(d.tenant_stats(tenant).served, 3);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
    }

    #[test]
    fn cap_shed_requests_do_not_burn_rate_tokens() {
        let mut d = dispatcher(DispatcherConfig::default());
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(
            TenantProfile::new("both")
                .with_rate(10.0, 2.0)
                .with_max_in_flight(1),
        );
        // Burst of three at t=0: one admitted, two refused at the cap —
        // which must not charge the bucket.
        assert!(d.submit(Request::new(tenant, id, 0.0)).is_ok());
        assert_eq!(
            d.submit(Request::new(tenant, id, 0.0)),
            Err(ShedReason::InFlightCap)
        );
        assert_eq!(
            d.submit(Request::new(tenant, id, 0.0)),
            Err(ShedReason::InFlightCap)
        );
        d.run_to_idle();
        // The second burst token is still there: a fourth request at the
        // same instant admits instead of being rate-limited.
        assert!(d.submit(Request::new(tenant, id, 0.0)).is_ok());
        let s = d.tenant_stats(tenant);
        assert_eq!(s.shed_in_flight, 2);
        assert_eq!(s.shed_rate_limit, 0);
    }

    #[test]
    fn a_door_shed_is_a_pure_refusal() {
        // One huge tick: nothing executes between the submissions, so the
        // clock moves only by what `submit` itself charges.
        let mut d = dispatcher(DispatcherConfig {
            tick: Cycles::from_micros(10_000_000.0),
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let capped = d.add_tenant(TenantProfile::new("capped").with_max_in_flight(1));
        let limited = d.add_tenant(TenantProfile::new("limited").with_rate(10.0, 1.0));
        assert_eq!(d.submit(Request::new(capped, id, 0.0)), Ok(0));
        assert_eq!(d.submit(Request::new(limited, id, 0.0)), Ok(1));
        let queues = |d: &Dispatcher| -> Vec<(u64, Vec<u64>)> {
            let seqs = |s: &shard::Shard| {
                let mut seqs: Vec<u64> = s.queue.iter().map(|q| q.ticket.seq).collect();
                seqs.sort_unstable();
                seqs
            };
            d.shards.iter().map(|s| (s.next_wake, seqs(s))).collect()
        };
        let before = queues(&d);
        for (tenant, reason) in [
            (capped, ShedReason::InFlightCap),
            (limited, ShedReason::RateLimited),
        ] {
            let t0 = d.clock().now();
            assert_eq!(d.submit(Request::new(tenant, id, 0.0)), Err(reason));
            assert_eq!(
                (d.clock().now() - t0).get(),
                vclock::costs::VSCHED_ADMISSION,
                "{reason}: the admission charge and nothing else"
            );
            assert_eq!(queues(&d), before, "{reason}: a queue moved");
        }
        // Neither refusal took a sequence number.
        let free = d.add_tenant(TenantProfile::new("free"));
        assert_eq!(d.submit(Request::new(free, id, 0.0)), Ok(2));
    }

    #[test]
    #[should_panic(expected = "virtual time must be finite and non-negative")]
    fn a_nan_arrival_is_refused_at_the_entry_point() {
        let _ = Request::new(TenantId(0), wasp::VirtineId::from_raw(0), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "virtine not registered")]
    fn submitting_an_unregistered_virtine_panics_at_the_door() {
        let mut d = dispatcher(DispatcherConfig::default());
        let tenant = d.add_tenant(TenantProfile::new("t"));
        let _ = d.submit(Request::new(tenant, wasp::VirtineId::from_raw(99), 0.0));
    }

    #[test]
    fn priority_then_fifo_orders_execution() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            batch_size: 8,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let low = d.add_tenant(TenantProfile::new("low").with_priority(0));
        let high = d.add_tenant(TenantProfile::new("high").with_priority(9));
        let s0 = d.submit(Request::new(low, id, 0.0)).unwrap();
        let s1 = d.submit(Request::new(low, id, 0.0)).unwrap();
        let s2 = d.submit(Request::new(high, id, 0.0)).unwrap();
        let s3 = d.submit(Request::new(low, id, 0.0)).unwrap();
        assert_eq!((s0, s1, s2, s3), (0, 1, 2, 3));
        d.run_to_idle();
        let seqs: Vec<u64> = d.completions().iter().map(|c| c.seq).collect();
        // The high-priority tenant's request first, then the low tenant's
        // in submission order.
        assert_eq!(seqs, vec![s2, s0, s1, s3]);
        let starts: Vec<f64> = d.completions().iter().map(|c| c.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shards_run_in_parallel_virtual_time() {
        // The same 8 requests on 1 vs 4 shards: wall (virtual) makespan
        // must shrink because shard workers overlap.
        let makespan = |shards: usize| {
            let mut d = dispatcher(DispatcherConfig {
                shards,
                batch_size: 2,
                ..DispatcherConfig::default()
            });
            let id = d.register(halt_spec("t")).unwrap();
            let tenant = d.add_tenant(TenantProfile::new("t"));
            for _ in 0..8 {
                d.submit(Request::new(tenant, id, 0.0)).unwrap();
            }
            d.run_to_idle();
            d.completions()
                .iter()
                .map(|c| c.finish)
                .fold(0.0f64, f64::max)
        };
        let one = makespan(1);
        let four = makespan(4);
        assert!(
            four < one / 2.0,
            "4 shards should at least halve the makespan: {four} vs {one}"
        );
    }

    #[test]
    fn dry_shard_steals_from_rich_sibling() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        // Tenant 0 homes on shard 0, tenant 1 on shard 1.
        let a = d.add_tenant(TenantProfile::new("a"));
        let b = d.add_tenant(TenantProfile::new("b"));
        // Warm shard 0 by running tenant A once (its shell parks there).
        d.submit(Request::new(a, id, 0.0)).unwrap();
        d.run_to_idle();
        assert_eq!(d.shard_snapshots()[0].idle_shells, 1);
        assert_eq!(d.shard_snapshots()[1].idle_shells, 0);
        // Tenant B's shard is dry: it must steal shard 0's clean shell.
        d.submit(Request::new(b, id, 1.0)).unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert!(c.stolen_shell && c.reused_shell);
        assert_eq!(d.stats().stolen, 1);
        assert_eq!(d.tenant_stats(b).stolen_serves, 1);
        assert_eq!(d.shard_snapshots()[1].stats.stolen_in, 1);
        assert_eq!(d.shard_snapshots()[0].stats.stolen_out, 1);
        // The shell migrated: only one was ever created.
        assert_eq!(d.pool_stats().created, 1);
    }

    #[test]
    fn tenant_mask_narrows_spec_policy() {
        let mut d = dispatcher(DispatcherConfig::default());
        // Spec allows write; the tenant ceiling does not.
        let img = wasp::hypercall::assemble(
            ".org 0x8000\n mov r0, HC_WRITE\n mov r1, 1\n mov r2, 0x8000\n mov r3, 4\n out HC_PORT, r0\n hlt\n",
        )
        .unwrap();
        let spec = VirtineSpec::new("w", img, MEM)
            .with_policy(HypercallMask::allowing(&[wasp::nr::WRITE]))
            .with_snapshot(false);
        let id = d.register(spec).unwrap();
        let open = d.add_tenant(TenantProfile::new("open").with_mask(HypercallMask::ALLOW_ALL));
        let locked = d.add_tenant(TenantProfile::new("locked"));
        d.submit(Request::new(open, id, 0.0)).unwrap();
        d.submit(Request::new(locked, id, 0.0)).unwrap();
        d.run_to_idle();
        let by_tenant: Vec<(usize, bool)> = d
            .completions()
            .iter()
            .map(|c| (c.tenant.index(), c.exit_normal))
            .collect();
        assert!(by_tenant.contains(&(open.index(), true)));
        assert!(by_tenant.contains(&(locked.index(), false)));
        assert_eq!(d.tenant_stats(locked).abnormal, 1);
        assert_eq!(d.tenant_stats(open).abnormal, 0);
    }

    #[test]
    fn payload_and_result_flow_through_dispatch() {
        let mut d = dispatcher(DispatcherConfig::default());
        // Echo the payload back via get_data/return_data.
        let img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r0, HC_GET_DATA
  mov r1, 0x4000
  mov r2, 64
  out HC_PORT, r0
  mov r3, r0         ; length
  mov r0, HC_RETURN_DATA
  mov r1, 0x4000
  mov r2, r3
  out HC_PORT, r0
  mov r0, HC_EXIT
  mov r1, 0
  out HC_PORT, r0 ; exit(0)
",
        )
        .unwrap();
        let spec = VirtineSpec::new("echo", img, MEM)
            .with_policy(HypercallMask::allowing(&[
                wasp::nr::GET_DATA,
                wasp::nr::RETURN_DATA,
            ]))
            .with_snapshot(false);
        let id = d.register(spec).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("echoer").with_mask(HypercallMask::ALLOW_ALL));
        d.submit(
            Request::new(tenant, id, 0.0)
                .with_invocation(Invocation::with_payload(b"ping".to_vec())),
        )
        .unwrap();
        d.run_to_idle();
        assert_eq!(d.completions()[0].result, b"ping");
    }

    #[test]
    fn batch_ticks_quantize_start_times() {
        let tick_s = 0.001;
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            batch_size: 1,
            tick: Cycles::from_secs(tick_s),
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        d.submit(Request::new(tenant, id, 0.0003)).unwrap();
        d.run_to_idle();
        let c = &d.completions()[0];
        // Arrived mid-tick: starts at the next boundary, not immediately.
        assert!(c.start >= tick_s - 1e-9, "start {}", c.start);
    }

    #[test]
    fn pool_disabled_mode_never_reuses() {
        let mut d = dispatcher(DispatcherConfig {
            pool_mode: PoolMode::Disabled,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        for i in 0..4 {
            d.submit(Request::new(tenant, id, i as f64 * 0.01)).unwrap();
        }
        d.run_to_idle();
        assert!(d.completions().iter().all(|c| !c.reused_shell));
        assert_eq!(d.pool_stats().created, 4);
    }

    /// A snapshotted spec: init loop, snapshot hypercall, then
    /// args-independent work, so repeat runs of the same (tenant, virtine)
    /// are warm-hit eligible.
    fn snap_spec(name: &str) -> VirtineSpec {
        let img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r1, 0x7000
  mov r2, 0
  mov r3, 0
init:
  add r2, 7
  add r3, 1
  cmp r3, 200
  jl init
  store.q [r1], r2
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  load.q r0, [r1]
  hlt
",
        )
        .unwrap();
        VirtineSpec::new(name, img, MEM)
    }

    #[test]
    fn repeat_requests_warm_hit_and_surface_in_stats() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let id = d.register(snap_spec("s")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        for i in 0..3 {
            d.submit(Request::new(tenant, id, i as f64 * 0.01)).unwrap();
        }
        d.run_to_idle();
        let c = d.completions();
        assert!(!c[0].warm_hit, "first run cold-boots");
        assert!(c[1].warm_hit && c[2].warm_hit, "repeats re-arm warm");
        assert_eq!(d.stats().warm_hits, 2);
        assert!((d.stats().warm_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(d.tenant_stats(tenant).warm_serves, 2);
        assert_eq!(d.pool_stats().warm_acquired, 2);
        assert_eq!(d.pool_stats().warm_parked, 3);
        assert_eq!(d.shard_snapshots()[0].stats.warm_hits, 2);
        assert_eq!(d.shard_snapshots()[0].warm_shells, 1);
    }

    #[test]
    fn snapshot_aware_placement_routes_to_the_warm_shard() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 4,
            placement: Placement::SnapshotAware,
            ..DispatcherConfig::default()
        });
        let id = d.register(snap_spec("s")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        // First request lands somewhere (least-loaded fallback) and parks
        // a warm shell there; every follow-up must chase that shard.
        d.submit(Request::new(tenant, id, 0.0)).unwrap();
        d.run_to_idle();
        let home = d.completions()[0].shard;
        for i in 1..6 {
            d.submit(Request::new(tenant, id, i as f64 * 0.01)).unwrap();
            d.run_to_idle();
        }
        let c = d.completions();
        assert!(
            c[1..].iter().all(|c| c.shard == home && c.warm_hit),
            "placement must chase the warm shell: {:?}",
            c.iter().map(|c| (c.shard, c.warm_hit)).collect::<Vec<_>>()
        );
        // Least-loaded placement with the same spacing sprays the requests
        // across shards (each drain leaves all queues empty, so the
        // tie-break rotates by worker timeline), missing the warm shell.
        let mut ll = dispatcher(DispatcherConfig {
            shards: 4,
            placement: Placement::LeastLoaded,
            ..DispatcherConfig::default()
        });
        let id = ll.register(snap_spec("s")).unwrap();
        let tenant = ll.add_tenant(TenantProfile::new("t"));
        for i in 0..6 {
            ll.submit(Request::new(tenant, id, i as f64 * 0.01))
                .unwrap();
            ll.run_to_idle();
        }
        assert!(
            ll.stats().warm_hits < d.stats().warm_hits,
            "snapshot-aware ({}) must beat least-loaded ({})",
            d.stats().warm_hits,
            ll.stats().warm_hits
        );
    }

    #[test]
    fn warm_caching_disabled_by_zero_capacity() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            warm_capacity: 0,
            ..DispatcherConfig::default()
        });
        let id = d.register(snap_spec("s")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        for i in 0..3 {
            d.submit(Request::new(tenant, id, i as f64 * 0.01)).unwrap();
        }
        d.run_to_idle();
        assert_eq!(d.stats().warm_hits, 0);
        assert_eq!(d.pool_stats().warm_parked, 0);
        // Shells still recycle through the clean list.
        assert!(d.pool_stats().reused >= 2);
    }

    #[test]
    fn cross_tenant_requests_demote_not_share_warm_shells() {
        // One shard, one snapshotted virtine, two tenants: tenant B's
        // request finds A's warm shell but may not re-arm it — it is
        // demoted (full wipe) and B pays the full restore.
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let id = d.register(snap_spec("s")).unwrap();
        let a = d.add_tenant(TenantProfile::new("a"));
        let b = d.add_tenant(TenantProfile::new("b"));
        d.submit(Request::new(a, id, 0.0)).unwrap();
        d.run_to_idle();
        assert_eq!(d.shard_snapshots()[0].warm_shells, 1);
        d.submit(Request::new(b, id, 0.01)).unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert!(!c.warm_hit, "warm shells never cross tenants");
        assert!(c.reused_shell, "but the hardware context is recycled");
        assert_eq!(d.stats().warm_demotions, 1);
        assert_eq!(d.tenant_stats(b).warm_serves, 0);
        // B's run parks its own warm shell; A's next request must then
        // miss (B demoted A's) while B hits.
        d.submit(Request::new(b, id, 0.02)).unwrap();
        d.run_to_idle();
        assert!(d.completions().last().unwrap().warm_hit);
    }

    /// A connection-bound spec: stores a sentinel at 0x5000, blocking-recvs
    /// into 0x4000, and halts with the recv length in `r0`.
    fn blocking_recv_spec(name: &str) -> VirtineSpec {
        let img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r4, 0x5000
  mov r5, 0xDEAD
  store.q [r4], r5
  mov r0, HC_RECV
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0            ; flags: blocking
  out HC_PORT, r0
  hlt
",
        )
        .unwrap();
        VirtineSpec::new(name, img, MEM)
            .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
            .with_snapshot(false)
    }

    /// An accepted connection pair on the dispatcher's kernel.
    fn conn_pair(d: &Dispatcher, port: u16) -> (hostsim::SockId, hostsim::SockId) {
        let k = d.wasp().kernel();
        k.net_listen(port).unwrap();
        let client = k.net_connect(port).unwrap();
        let server = k.net_accept(port).unwrap().unwrap();
        (client, server)
    }

    #[test]
    fn blocked_recv_parks_yields_the_worker_and_resumes_on_wake() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        let fast = d.register(halt_spec("f")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
        let (client, server) = conn_pair(&d, 90);

        d.submit(Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_to_idle();
        // Parked, not completed: the shell and in-flight slot stay held,
        // but the worker is free.
        assert_eq!(d.completions().len(), 0);
        assert_eq!(d.parked(), 1);
        assert_eq!(d.stats().blocked, 1);
        assert_eq!(d.tenant_stats(tenant).blocked, 1);
        assert_eq!(d.tenant_stats(tenant).in_flight, 1);
        assert_eq!(d.shard_snapshots()[0].parked, 1);

        // The freed worker serves other requests while the run is parked.
        d.submit(Request::new(tenant, fast, 0.001)).unwrap();
        d.run_to_idle();
        assert_eq!(d.completions().len(), 1, "worker was given back");
        assert!(d.completions()[0].exit_normal);

        // Data arrives: wake → front-of-queue resume → completion.
        d.wasp().kernel().net_send(client, b"ping").unwrap();
        d.run_until(0.01);
        d.run_to_idle();
        assert_eq!(d.completions().len(), 2);
        let c = d.completions().last().unwrap();
        assert!(c.exit_normal);
        assert_eq!(c.resumes, 1);
        assert!(
            c.latency() >= 0.009,
            "latency {} must span the parked wait",
            c.latency()
        );
        assert_eq!(d.stats().resumed, 1);
        assert_eq!(d.stats().busy_wait_cycles, 0, "event-driven burns nothing");
        assert_eq!(d.parked(), 0);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        assert_eq!(d.stats().served, 2);
    }

    #[test]
    fn spin_poll_baseline_occupies_the_worker_event_driven_does_not() {
        let run = |mode: BlockMode| {
            let mut d = dispatcher(DispatcherConfig {
                shards: 1,
                block: mode,
                ..DispatcherConfig::default()
            });
            let blocked = d.register(blocking_recv_spec("b")).unwrap();
            let fast = d.register(halt_spec("f")).unwrap();
            let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
            let (client, server) = conn_pair(&d, 90);
            d.submit(
                Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)),
            )
            .unwrap();
            d.submit(Request::new(tenant, fast, 0.0001)).unwrap();
            d.run_to_idle();
            let fast_done_while_parked = d.completions().len();
            // The slow client finally sends after 20 ms.
            d.wasp().kernel().net_send(client, b"x").unwrap();
            d.run_until(0.02);
            d.run_to_idle();
            assert_eq!(d.completions().len(), 2, "all served in the end");
            let fast_c = d
                .completions()
                .iter()
                .find(|c| c.virtine == fast)
                .unwrap()
                .clone();
            (fast_done_while_parked, fast_c.latency(), d.stats())
        };

        let (fast_during_event, fast_lat_event, s_event) = run(BlockMode::EventDriven);
        assert_eq!(fast_during_event, 1, "event-driven: worker freed");
        assert_eq!(s_event.busy_wait_cycles, 0);
        assert!(fast_lat_event < 0.001, "fast latency {fast_lat_event}");

        let (fast_during_spin, fast_lat_spin, s_spin) = run(BlockMode::SpinPoll);
        assert_eq!(
            fast_during_spin, 0,
            "spin-poll: the worker is pinned on the blocked socket"
        );
        assert!(
            s_spin.busy_wait_cycles > 0,
            "the whole wait is busy occupancy"
        );
        assert!(
            fast_lat_spin > 10.0 * fast_lat_event,
            "fast request pays the slow client's wait: {fast_lat_spin} vs {fast_lat_event}"
        );
    }

    #[test]
    fn woken_run_migrates_to_the_least_loaded_shard_under_skew() {
        // The consumer parks on shard 0 (its tenant's home under ByTenant
        // placement); while it waits, its home shard's queue backs up.
        // The wake must re-admit it through placement — on shard 1 — and
        // the migration must surface in every stats plane.
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let consumer = d.register(blocking_recv_spec("c")).unwrap();
        let filler = d.register(halt_spec("f")).unwrap();
        let a = d.add_tenant(TenantProfile::new("a").with_mask(HypercallMask::ALLOW_ALL));
        let (client, server) = conn_pair(&d, 90);
        d.submit(Request::new(a, consumer, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_until(0.001);
        assert_eq!(d.shard_snapshots()[0].parked, 1);

        // Pile work on home shard 0 (tenant a homes there); none of it
        // executes before the wake because it all arrives at one instant.
        for _ in 0..16 {
            d.submit(Request::new(a, filler, 0.002)).unwrap();
        }
        assert!(d.shard_snapshots()[0].queue_depth >= 16);
        d.wasp().kernel().net_send(client, b"go").unwrap();
        d.run_until(0.0021);
        d.run_to_idle();

        let c = d
            .completions()
            .iter()
            .find(|c| c.virtine == consumer)
            .unwrap();
        assert!(c.exit_normal);
        assert!(c.migrated, "resume must migrate off the saturated shard");
        assert_eq!(c.shard, 1, "landed on the least-loaded sibling");
        assert_eq!(d.stats().migrations, 1);
        assert_eq!(d.shard_snapshots()[0].stats.migrated_out, 1);
        assert_eq!(d.shard_snapshots()[1].stats.migrated_in, 1);
        // The shell followed the run: released into shard 1's pool.
        assert_eq!(d.tenant_stats(a).in_flight, 0);
        assert_eq!(
            d.stats().submitted,
            d.stats().served + d.stats().shed(),
            "conservation holds across the migration"
        );
    }

    #[test]
    fn parked_run_is_killed_at_max_block_and_its_shell_wipes() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        // A reader that returns the 8 bytes at the blocked run's sentinel
        // address via return_data.
        let reader_img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r0, HC_RETURN_DATA
  mov r1, 0x5000
  mov r2, 8
  out HC_PORT, r0
  hlt
",
        )
        .unwrap();
        let reader = d
            .register(
                VirtineSpec::new("reader", reader_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]))
                    .with_snapshot(false),
            )
            .unwrap();
        let tenant = d.add_tenant(
            TenantProfile::new("t")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_max_block(Cycles::from_secs(0.005)),
        );
        let (_client, server) = conn_pair(&d, 91);
        d.submit(Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        // Nobody ever sends: drain fires the 5 ms block timeout.
        d.run_to_idle();
        assert_eq!(d.parked(), 0);
        assert_eq!(d.stats().blocked_timeout, 1);
        assert_eq!(d.tenant_stats(tenant).blocked_timeout, 1);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        let c = d.completions().last().unwrap();
        assert!(!c.exit_normal, "a timeout kill is abnormal");
        assert!(c.finish >= 0.005, "killed at the bound, not before");

        // The killed run's shell went through the wiped release: the next
        // request reuses it and must see zeroes at the sentinel address.
        d.submit(Request::new(tenant, reader, 0.01)).unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert!(c.exit_normal && c.reused_shell && !c.stolen_shell);
        assert_eq!(c.result, vec![0u8; 8], "parked state leaked past a kill");
        assert_eq!(d.pool_stats().created, 1, "same shell, recycled");
        // Accounting stays conserved: both requests count as served.
        assert_eq!(d.stats().served, 2);
        assert_eq!(d.stats().submitted, d.stats().served + d.stats().shed());
    }

    #[test]
    fn a_shared_snapshot_never_carries_another_tenants_args() {
        // Two tenants share one snapshotted spec, so they share its snapshot
        // (§5.2). Whoever runs first captures it — with its own arguments in
        // guest memory at that instant. The function returns the 16 bytes of
        // its args window: the second tenant passes 8 and must get zeroes,
        // not the first tenant's tail, for the other 8.
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r0, HC_RETURN_DATA ; return_data(args window)
  mov r1, 0
  mov r2, 16
  out HC_PORT, r0
  hlt
",
        )
        .unwrap();
        let spec = VirtineSpec::new("shared", img, MEM)
            .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]));
        let shared = d.register(spec).unwrap();
        let mask = HypercallMask::ALLOW_ALL;
        let first = d.add_tenant(TenantProfile::new("first").with_mask(mask));
        let second = d.add_tenant(TenantProfile::new("second").with_mask(mask));
        d.submit(Request::new(first, shared, 0.0).with_args(vec![0xA1; 16]))
            .unwrap();
        d.run_to_idle();
        assert_eq!(d.completions()[0].result, vec![0xA1; 16], "its own args");
        for (at, args) in [(0.001, vec![0xB2; 8]), (0.002, Vec::new())] {
            let mut expected = args.clone();
            expected.resize(16, 0);
            d.submit(Request::new(second, shared, at).with_args(args))
                .unwrap();
            d.run_to_idle();
            let c = d.completions().last().unwrap();
            assert!(c.exit_normal && c.tenant == second);
            assert_eq!(c.result, expected, "the first tenant's args leaked");
        }
    }

    #[test]
    fn guest_to_guest_send_wakes_a_parked_run_within_one_drain() {
        // Virtine A parks in a blocking recv; virtine B's handler vsends
        // to A's socket from *inside* a batch. The wake produced mid-drain
        // must resume A in the same drain — not wait for the next
        // external submit/run_until.
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let recv = d.register(blocking_recv_spec("a")).unwrap();
        let send_img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r1, 0x100
  mov r4, 0x676e6970   ; \"ping\"
  store.q [r1], r4
  mov r0, HC_SEND ; send(buf, 4)
  mov r2, 4
  out HC_PORT, r0
  hlt
",
        )
        .unwrap();
        let send = d
            .register(
                VirtineSpec::new("b", send_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::SEND]))
                    .with_snapshot(false),
            )
            .unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
        let (client, server) = conn_pair(&d, 93);
        d.submit(Request::new(tenant, recv, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.submit(Request::new(tenant, send, 0.001).with_invocation(Invocation::with_conn(client)))
            .unwrap();
        d.run_to_idle();
        assert_eq!(d.completions().len(), 2, "one drain completes both");
        assert_eq!(d.parked(), 0);
        assert_eq!(d.stats().resumed, 1);
        assert!(d.completions().iter().all(|c| c.exit_normal));
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
    }

    #[test]
    fn data_arriving_after_max_block_still_kills_the_parked_run() {
        // The bound is a hard ceiling: a wake delivered in the same driver
        // call that crosses the timeout must not smuggle the run past it.
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        let tenant = d.add_tenant(
            TenantProfile::new("t")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_max_block(Cycles::from_secs(0.005)),
        );
        let (client, server) = conn_pair(&d, 92);
        d.submit(Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_until(0.001);
        assert_eq!(d.parked(), 1);
        // The client finally sends at t = 20 ms — 15 ms past the bound.
        d.wasp().kernel().net_send(client, b"late").unwrap();
        d.run_until(0.020);
        d.run_to_idle();
        assert_eq!(d.stats().blocked_timeout, 1, "late bytes must not revive");
        assert_eq!(d.stats().resumed, 0);
        let c = d.completions().last().unwrap();
        assert!(!c.exit_normal);
        // The bound counts from the block instant (first-segment service
        // pushes it slightly past 5 ms); the wake at 20 ms must not move it.
        assert!(
            (0.005..0.006).contains(&c.finish),
            "killed at the bound ({}), not the wake",
            c.finish
        );
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
    }

    #[test]
    fn distance_biased_steals_drain_near_donors_first() {
        // 2 sockets x 2 CCXs x 2 shards. Tenant 0 homes on shard 0
        // (ByTenant); its six blocking-recv requests each park holding a
        // shell, so every acquire must steal. Supply: 2 shells on the CCX
        // sibling (shard 1), 1 each on the same-socket shards (2, 3), 2 on
        // a cross-socket shard (4). Steals must drain 1, then 2 and 3,
        // then 4 — never the far socket while a near shell is parked.
        let mut d = dispatcher(DispatcherConfig {
            shards: 8,
            placement: Placement::ByTenant,
            topology: Some(Topology::grouped(2, 2, 2)),
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
        d.prewarm_shard(1, MEM, 2);
        d.prewarm_shard(2, MEM, 1);
        d.prewarm_shard(3, MEM, 1);
        d.prewarm_shard(4, MEM, 2);
        for i in 0..6 {
            let (_client, server) = conn_pair(&d, 100 + i as u16);
            d.submit(
                Request::new(tenant, blocked, i as f64 * 0.001)
                    .with_invocation(Invocation::with_conn(server)),
            )
            .unwrap();
            d.run_until(0.001 * (i + 1) as f64);
        }
        assert_eq!(d.parked(), 6, "every request parked holding a shell");
        let s = d.stats();
        assert_eq!(s.stolen, 6);
        assert_eq!(
            (s.stolen_same_ccx, s.stolen_cross_ccx, s.stolen_cross_socket),
            (2, 2, 2),
            "steals resolve near-first: {s:?}"
        );
        // Donor bookkeeping matches the ladder.
        let snaps = d.shard_snapshots();
        assert_eq!(snaps[1].stats.stolen_out, 2);
        assert_eq!(snaps[2].stats.stolen_out, 1);
        assert_eq!(snaps[3].stats.stolen_out, 1);
        assert_eq!(snaps[4].stats.stolen_out, 2);
        assert_eq!(snaps[0].stats.stolen_in, 6);
    }

    #[test]
    fn resume_migration_lands_on_the_nearest_idle_sibling() {
        // Grouped topology; the consumer parks on shard 0, whose queue
        // then backs up. Every other shard is equally idle: the wake must
        // migrate to shard 1 (same CCX), not an equally idle far shard.
        let mut d = dispatcher(DispatcherConfig {
            shards: 8,
            placement: Placement::ByTenant,
            topology: Some(Topology::grouped(2, 2, 2)),
            ..DispatcherConfig::default()
        });
        let consumer = d.register(blocking_recv_spec("c")).unwrap();
        let filler = d.register(halt_spec("f")).unwrap();
        let a = d.add_tenant(TenantProfile::new("a").with_mask(HypercallMask::ALLOW_ALL));
        let (client, server) = conn_pair(&d, 90);
        d.submit(Request::new(a, consumer, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_until(0.001);
        assert_eq!(d.shard_snapshots()[0].parked, 1);
        for _ in 0..16 {
            d.submit(Request::new(a, filler, 0.002)).unwrap();
        }
        d.wasp().kernel().net_send(client, b"go").unwrap();
        d.run_until(0.0021);
        d.run_to_idle();
        let c = d
            .completions()
            .iter()
            .find(|c| c.virtine == consumer)
            .unwrap();
        assert!(c.migrated);
        assert_eq!(c.shard, 1, "nearest idle sibling, not any idle shard");
        assert_eq!(d.shard_snapshots()[1].stats.migrated_in, 1);
    }

    #[test]
    fn warm_tenant_quota_caps_residency_by_self_eviction() {
        // Quota 2: tenant A's third distinct warm park demotes its own
        // least-recently-parked shell; tenant B's single warm shell is
        // never touched.
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::SnapshotAware,
            warm_tenant_quota: Some(2),
            ..DispatcherConfig::default()
        });
        let v: Vec<_> = (0..3)
            .map(|i| d.register(snap_spec(&format!("s{i}"))).unwrap())
            .collect();
        let a = d.add_tenant(TenantProfile::new("a"));
        let b = d.add_tenant(TenantProfile::new("b"));
        // Provisioned with clean shells so acquires never have to
        // cannibalize warm state: residency is bounded by *policy* here,
        // not by shell scarcity.
        d.prewarm(MEM, 2);
        d.submit(Request::new(b, v[0], 0.0)).unwrap();
        d.run_to_idle();
        assert_eq!(d.warm_resident_of(b), 1);
        for (i, &virtine) in v.iter().enumerate() {
            d.submit(Request::new(a, virtine, 0.01 * (i + 1) as f64))
                .unwrap();
            d.run_to_idle();
            assert!(
                d.warm_resident_of(a) <= 2,
                "quota violated: {} resident",
                d.warm_resident_of(a)
            );
        }
        assert_eq!(d.warm_resident_of(a), 2, "A holds exactly its quota");
        assert_eq!(d.warm_resident_of(b), 1, "B untouched by A's churn");
        // A's oldest key (v[0]) was the self-evicted one: a repeat for
        // v[2] still warm-hits, a repeat for v[0] must re-restore.
        d.submit(Request::new(a, v[2], 1.0)).unwrap();
        d.run_to_idle();
        assert!(d.completions().last().unwrap().warm_hit);
        d.submit(Request::new(a, v[0], 1.1)).unwrap();
        d.run_to_idle();
        assert!(!d.completions().last().unwrap().warm_hit);
    }

    #[test]
    fn global_warm_budget_bounds_total_residency_across_shards() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 4,
            placement: Placement::SnapshotAware,
            warm_budget: Some(2),
            ..DispatcherConfig::default()
        });
        let v: Vec<_> = (0..4)
            .map(|i| d.register(snap_spec(&format!("s{i}"))).unwrap())
            .collect();
        let tenants: Vec<_> = (0..4)
            .map(|i| d.add_tenant(TenantProfile::new(format!("t{i}"))))
            .collect();
        d.prewarm(MEM, 2);
        for (i, (&t, &virtine)) in tenants.iter().zip(&v).enumerate() {
            d.submit(Request::new(t, virtine, 0.01 * i as f64)).unwrap();
            d.run_to_idle();
            assert!(
                d.warm_resident() <= 2,
                "budget violated: {} resident",
                d.warm_resident()
            );
        }
        assert_eq!(d.warm_resident(), 2, "steady state pins the budget");
        // The two most recently parked keys are the residents.
        d.submit(Request::new(tenants[3], v[3], 1.0)).unwrap();
        d.run_to_idle();
        assert!(d.completions().last().unwrap().warm_hit);
        d.submit(Request::new(tenants[0], v[0], 1.1)).unwrap();
        d.run_to_idle();
        assert!(!d.completions().last().unwrap().warm_hit);
    }

    #[test]
    #[should_panic(expected = "topology shard count must match")]
    fn mismatched_topology_panics_at_construction() {
        let _ = dispatcher(DispatcherConfig {
            shards: 4,
            topology: Some(Topology::grouped(2, 2, 2)),
            ..DispatcherConfig::default()
        });
    }

    #[test]
    fn prewarm_gives_first_requests_clean_shells() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        d.prewarm(MEM, 2);
        d.submit(Request::new(tenant, id, 0.0)).unwrap();
        d.run_to_idle();
        assert!(d.completions()[0].reused_shell);
    }

    #[test]
    fn drain_evacuates_shells_and_reconcile_is_idempotent() {
        // Warm a shard, then drain it: the warm shell and the clean
        // shells must move to the sibling through the cost machinery, the
        // shard must converge to Drained, and a second reconcile pass
        // must perform zero actions (the idempotence contract).
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::SnapshotAware,
            ..DispatcherConfig::default()
        });
        let id = d.register(snap_spec("s")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        d.submit(Request::new(tenant, id, 0.0)).unwrap();
        d.run_to_idle();
        let home = d.completions()[0].shard;
        let sibling = 1 - home;
        assert_eq!(d.shard_snapshots()[home].warm_shells, 1);

        let actions = d.drain_shard(home);
        assert!(
            actions.contains(&LifecycleAction::WarmMigrated {
                from: home,
                to: sibling
            }),
            "warm shell must migrate: {actions:?}"
        );
        assert!(
            actions.contains(&LifecycleAction::Drained { shard: home }),
            "evacuation must converge: {actions:?}"
        );
        assert_eq!(d.shard_state(home), ShardState::Drained);
        assert_eq!(d.shard_snapshots()[home].warm_shells, 0);
        assert_eq!(d.shard_snapshots()[home].idle_shells, 0);
        assert_eq!(d.shard_snapshots()[sibling].warm_shells, 1);
        assert!(
            d.reconcile().is_empty(),
            "second converge pass performs zero actions"
        );

        // Warm identity survived the move: the repeat chases the shell to
        // the sibling and warm-hits there.
        d.submit(Request::new(tenant, id, 0.01)).unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert_eq!(c.shard, sibling);
        assert!(c.warm_hit, "migrated warm shell re-arms on the sibling");
        // Inventory arithmetic: nothing leaked, nothing destroyed.
        let p = d.pool_stats();
        assert_eq!(p.dropped, 0);
        assert_eq!(
            (d.pool_stats().created - p.dropped) as usize,
            d.shard_snapshots()
                .iter()
                .map(|s| s.idle_shells + s.warm_shells)
                .sum::<usize>(),
        );
    }

    #[test]
    fn drain_requeues_queued_work_exactly_once() {
        // A huge tick keeps submissions queued on the ByTenant home; the
        // drain must re-home them to the eligible sibling, where every
        // one is served exactly once.
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            tick: Cycles::from_micros(10_000_000.0),
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t")); // home = shard 0
                                                            // Arrivals strictly inside the first tick: t=0 would *be* a batch
                                                            // boundary and execute on submission.
        for i in 0..4 {
            d.submit(Request::new(tenant, id, (i + 1) as f64 * 1e-5))
                .unwrap();
        }
        assert_eq!(d.shard_snapshots()[0].queue_depth, 4);
        let actions = d.drain_shard(0);
        let requeued = actions
            .iter()
            .filter(|a| matches!(a, LifecycleAction::RunRequeued { from: 0, to: 1, .. }))
            .count();
        assert_eq!(requeued, 4, "every queued run re-homed: {actions:?}");
        assert_eq!(d.shard_state(0), ShardState::Drained);
        d.run_to_idle();
        assert_eq!(d.stats().served, 4, "exactly once, nothing lost");
        assert_eq!(d.stats().shed_evicted, 0);
        assert!(d.completions().iter().all(|c| c.shard == 1));
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
    }

    #[test]
    fn restore_is_symmetric_and_reconciler_goes_quiet() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t")); // home = shard 0
        d.drain_shard(0);
        d.submit(Request::new(tenant, id, 0.0)).unwrap();
        d.run_to_idle();
        assert_eq!(
            d.completions()[0].shard,
            1,
            "draining home hands its tenant to the sibling"
        );
        d.restore_shard(0);
        assert_eq!(d.shard_state(0), ShardState::Active);
        assert!(
            d.reconcile().is_empty(),
            "restore leaves nothing to reconcile"
        );
        d.submit(Request::new(tenant, id, 0.01)).unwrap();
        d.run_to_idle();
        assert_eq!(
            d.completions().last().unwrap().shard,
            0,
            "restored home is re-pinned"
        );
    }

    #[test]
    fn grace_expiry_evicts_an_unmigratable_parked_run() {
        // Spin-poll pins the blocked run to its worker, so the drain
        // cannot migrate it: the grace clock arms, the expiry hard-stops
        // the run with ShedReason::Evicted — a shed, not a serve — and
        // the freed shell then evacuates like any other, converging the
        // drain.
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            block: BlockMode::SpinPoll,
            drain_grace: Cycles::from_micros(2_000.0),
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
        let (_client, server) = conn_pair(&d, 91);
        d.submit(Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_to_idle();
        assert_eq!(d.parked(), 1);
        let home = d
            .shard_snapshots()
            .iter()
            .position(|s| s.parked == 1)
            .unwrap();

        let actions = d.drain_shard(home);
        assert!(
            actions.iter().any(
                |a| matches!(a, &LifecycleAction::EvictionArmed { shard, .. } if shard == home)
            ),
            "unmigratable park gets a grace clock: {actions:?}"
        );
        assert_eq!(
            d.shard_state(home),
            ShardState::Draining,
            "not yet converged"
        );

        d.run_until(0.01); // well past the 2 ms grace
        d.run_to_idle();
        assert_eq!(d.parked(), 0);
        assert_eq!(d.completions().len(), 0, "an eviction is not a completion");
        assert_eq!(d.stats().shed_evicted, 1);
        assert_eq!(d.stats().evicted_grace, 1);
        assert_eq!(d.stats().evicted_failed, 0);
        assert_eq!(d.tenant_stats(tenant).shed_evicted, 1);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        assert_eq!(
            d.tenant_stats(tenant).shed(),
            1,
            "conservation: the admitted run is accounted as shed"
        );
        assert!(
            d.stats().busy_wait_cycles > 0,
            "the spin window up to the eviction is busy occupancy"
        );
        // The freed shell evacuated and the drain converged (the
        // auto-reconcile inside run_to_idle did it).
        assert_eq!(d.shard_state(home), ShardState::Drained);
        assert_eq!(d.shard_snapshots()[home].idle_shells, 0);
        assert_eq!(d.shard_snapshots()[1 - home].idle_shells, 1);
        assert!(d.reconcile().is_empty());
    }

    #[test]
    fn restore_disarms_grace_clocks() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
        let (client, server) = conn_pair(&d, 92);
        d.submit(Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_to_idle();
        d.drain_shard(0);
        d.restore_shard(0);
        // The armed eviction must NOT fire after restore: the run waits
        // out the default 500 µs grace unharmed, then completes on wake.
        d.run_until(0.05);
        d.wasp().kernel().net_send(client, b"ping").unwrap();
        d.run_until(0.06);
        d.run_to_idle();
        assert_eq!(d.stats().shed_evicted, 0);
        assert_eq!(d.stats().served, 1);
        assert!(d.completions()[0].exit_normal);
    }

    #[test]
    fn fail_shard_drops_shells_evicts_parks_and_rehomes_queued() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            tick: Cycles::from_micros(10_000_000.0),
            ..DispatcherConfig::default()
        });
        let blocked = d.register(blocking_recv_spec("b")).unwrap();
        let fast = d.register(halt_spec("f")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_mask(HypercallMask::ALLOW_ALL));
        let (_client, server) = conn_pair(&d, 93);
        // Park a run on shard 0 first (small tick run), then pile fresh
        // work onto its queue under the huge tick.
        d.submit(Request::new(tenant, blocked, 0.0).with_invocation(Invocation::with_conn(server)))
            .unwrap();
        d.run_to_idle();
        assert_eq!(d.parked(), 1);
        for i in 0..3 {
            d.submit(Request::new(tenant, fast, 1.0 + i as f64 * 1e-5))
                .unwrap();
        }

        let actions = d.fail_shard(0);
        assert_eq!(d.shard_state(0), ShardState::Failed);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, LifecycleAction::RunEvicted { shard: 0, .. })),
            "the parked run dies with its shard: {actions:?}"
        );
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, LifecycleAction::RunRequeued { from: 0, to: 1, .. }))
                .count(),
            3,
            "fresh queued work re-homes exactly once: {actions:?}"
        );
        d.run_to_idle();
        assert_eq!(d.stats().served, 3, "re-homed work completes elsewhere");
        assert_eq!(d.stats().shed_evicted, 1);
        assert_eq!(d.stats().evicted_failed, 1);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        // No shell leaks: everything still pooled balances creations
        // minus the shells destroyed with the failed shard.
        let p = d.pool_stats();
        assert!(p.dropped > 0, "the failed shard's shells were destroyed");
        assert_eq!(
            (p.created - p.dropped) as usize,
            d.shard_snapshots()
                .iter()
                .map(|s| s.idle_shells + s.warm_shells)
                .sum::<usize>(),
        );
        assert_eq!(d.shard_snapshots()[0].idle_shells, 0);
        assert_eq!(d.shard_snapshots()[0].warm_shells, 0);

        // Failed shards restore to Active and serve again.
        d.restore_shard(0);
        d.submit(Request::new(tenant, fast, 2.0)).unwrap();
        d.run_to_idle();
        assert_eq!(d.completions().last().unwrap().shard, 0);
    }

    #[test]
    fn fault_plan_kills_fire_at_their_virtual_instant() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t")); // home = shard 0
        d.set_fault_plan(FaultPlan::new().kill_shard(Cycles::from_secs(0.05), 0));
        // Requests straddle the kill: before it they serve on the home,
        // after it they re-route to the survivor. Nothing is lost.
        for i in 0..10 {
            d.submit(Request::new(tenant, id, i as f64 * 0.01)).unwrap();
        }
        d.run_to_idle();
        assert_eq!(d.shard_state(0), ShardState::Failed);
        let s = d.stats();
        assert_eq!(s.served + s.shed(), 10, "conservation across the fault");
        assert_eq!(s.shed_evicted, 0, "halt runs never park, none evicted");
        assert_eq!(s.served, 10);
        let c = d.completions();
        assert!(c.iter().any(|c| c.shard == 0), "pre-fault runs on the home");
        assert!(
            c.iter().filter(|c| c.finish > 0.05).all(|c| c.shard == 1),
            "post-fault runs only on the survivor"
        );
        // Same seed, same plan, same outcome: the whole scenario replays.
        let mut d2 = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let id2 = d2.register(halt_spec("t")).unwrap();
        let tenant2 = d2.add_tenant(TenantProfile::new("t"));
        d2.set_fault_plan(FaultPlan::new().kill_shard(Cycles::from_secs(0.05), 0));
        for i in 0..10 {
            d2.submit(Request::new(tenant2, id2, i as f64 * 0.01))
                .unwrap();
        }
        d2.run_to_idle();
        assert_eq!(
            d.completions()
                .iter()
                .map(|c| (c.shard, c.finish.to_bits()))
                .collect::<Vec<_>>(),
            d2.completions()
                .iter()
                .map(|c| (c.shard, c.finish.to_bits()))
                .collect::<Vec<_>>(),
            "fault replay is bit-for-bit deterministic"
        );
    }

    #[test]
    fn kill_shell_faults_are_absorbed_by_the_pool() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        d.prewarm(MEM, 2);
        let before = d.pool_stats().created;
        d.set_fault_plan(FaultPlan::new().kill_shell(Cycles::from_secs(0.01), 0));
        for i in 0..4 {
            d.submit(Request::new(tenant, id, i as f64 * 0.01)).unwrap();
        }
        d.run_to_idle();
        assert_eq!(d.stats().served, 4, "a lost shell never loses a run");
        assert_eq!(d.pool_stats().dropped, 1);
        assert_eq!(
            d.shard_state(0),
            ShardState::Active,
            "shell loss != shard loss"
        );
        // The pool re-creates on demand; inventory stays balanced.
        let p = d.pool_stats();
        assert!(p.created >= before);
        assert_eq!(
            (p.created - p.dropped) as usize,
            d.shard_snapshots()
                .iter()
                .map(|s| s.idle_shells + s.warm_shells)
                .sum::<usize>(),
        );
    }

    #[test]
    fn health_detector_declares_a_hung_shard_and_restores_it() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            placement: Placement::ByTenant,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t").with_retry(RetryPolicy::new()));
        d.set_health(
            HealthConfig::new()
                .with_heartbeat_interval(Cycles::from_secs(0.0005))
                .with_suspicion_threshold(4.0)
                .with_probes(Cycles::from_secs(0.00025), 3),
        );
        // A gray failure on the tenant's home shard: no FaultPlan kill,
        // only a wedged worker from 5 ms to 20 ms. The shard stays
        // Active — only its heartbeat silence gives it away.
        d.set_fault_plan(FaultPlan::new().hang_shard(
            Cycles::from_secs(0.005),
            0,
            Cycles::from_secs(0.015),
        ));
        for step in 0..120u64 {
            let t = step as f64 * 0.0005;
            d.submit(Request::new(tenant, id, t)).unwrap();
            d.run_until(t + 0.0001);
        }
        d.run_to_idle();

        let h = d.health_stats().unwrap();
        assert_eq!(h.declared, 1, "the hang was declared exactly once");
        assert_eq!(h.restored, 1, "half-open probes restored it");
        assert_eq!(h.false_positives, 0, "only the dead shard was declared");
        assert!(h.probe_failures > 0, "the wedged worker ignored probes");

        // Failover lost nothing: queued work evacuated to the sibling.
        let s = d.stats();
        assert_eq!(s.served, 120, "every request completed");
        assert_eq!(s.shed(), 0);
        assert_eq!(s.retried_in_flight, 0);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        // While declared, everything ran on the survivor; after restore
        // the home shard serves again.
        assert!(d
            .completions()
            .iter()
            .filter(|c| c.finish > 0.008 && c.finish < 0.020)
            .all(|c| c.shard == 1));
        assert_eq!(d.completions().last().unwrap().shard, 0);
        assert!(d
            .shard_health()
            .unwrap()
            .iter()
            .all(|sh| sh.breaker == CircuitState::Closed));
    }

    #[test]
    fn overlapping_hangs_wedge_a_shard_until_the_last_one_lifts() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(TenantProfile::new("t"));
        // A 10 ms hang from 1 ms, and a 2 ms one nested inside it: the
        // nested hang's recovery at 4 ms must not un-wedge the shard.
        d.set_fault_plan(
            FaultPlan::new()
                .hang_shard(Cycles::from_secs(0.001), 0, Cycles::from_secs(0.010))
                .hang_shard(Cycles::from_secs(0.002), 0, Cycles::from_secs(0.002)),
        );
        d.submit(Request::new(tenant, id, 0.005)).unwrap();
        d.run_to_idle();
        let c = &d.completions()[0];
        assert!(c.finish > 0.011, "finished at {} inside the hang", c.finish);
    }

    #[test]
    fn detector_driven_failover_replays_bit_for_bit() {
        let run = || {
            let mut d = dispatcher(DispatcherConfig {
                shards: 2,
                placement: Placement::ByTenant,
                ..DispatcherConfig::default()
            });
            let id = d.register(halt_spec("t")).unwrap();
            let tenant = d.add_tenant(
                TenantProfile::new("t")
                    .with_retry(RetryPolicy::new().with_backoff(Cycles::from_secs(0.0002))),
            );
            d.set_health(
                HealthConfig::new()
                    .with_heartbeat_interval(Cycles::from_secs(0.0005))
                    .with_probes(Cycles::from_secs(0.00025), 2)
                    .with_seed(1234),
            );
            d.set_fault_plan(FaultPlan::new().hang_shard(
                Cycles::from_secs(0.003),
                0,
                Cycles::from_secs(0.01),
            ));
            for step in 0..60u64 {
                let t = step as f64 * 0.0005;
                d.submit(Request::new(tenant, id, t)).unwrap();
                d.run_until(t + 0.0001);
            }
            d.run_to_idle();
            let log: Vec<(u64, usize, u64)> = d
                .completions()
                .iter()
                .map(|c| (c.seq, c.shard, c.finish.to_bits()))
                .collect();
            (log, d.health_stats().unwrap())
        };
        let (log_a, health_a) = run();
        let (log_b, health_b) = run();
        assert_eq!(log_a, log_b, "same seed, same failover, same instants");
        assert_eq!(health_a, health_b);
        assert_eq!(health_a.declared, 1);
        assert_eq!(health_a.false_positives, 0);
    }

    #[test]
    fn queued_work_lost_with_no_surviving_shard_is_retried_not_shed() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 1,
            // One huge tick: the three requests pile up unexecuted.
            tick: Cycles::from_micros(10_000_000.0),
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(
            TenantProfile::new("t")
                .with_retry(RetryPolicy::new().with_backoff(Cycles::from_secs(0.0002))),
        );
        for _ in 0..3 {
            d.submit(Request::new(tenant, id, 0.0)).unwrap();
        }
        let actions = d.fail_shard(0);
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, LifecycleAction::RunRetried { shard: 0, .. }))
                .count(),
            3,
            "with no sibling to evacuate to, losses become retries: {actions:?}"
        );
        let s = d.stats();
        assert_eq!(s.retries_queued, 3);
        assert_eq!(s.retried_in_flight, 3, "riding the backoff window");
        assert_eq!(s.shed(), 0, "a retried loss is not a shed");
        assert_eq!(
            d.tenant_stats(tenant).in_flight,
            3,
            "retried work is still in flight"
        );

        d.restore_shard(0);
        d.run_to_idle();
        let s = d.stats();
        assert_eq!(s.served, 3, "every lost run re-ran after the backoff");
        assert_eq!(s.shed(), 0);
        assert_eq!(s.retried_in_flight, 0);
        assert_eq!(d.tenant_stats(tenant).retries, 3);
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        // Exactly once: three completions under three distinct logical
        // sequence numbers, none duplicated.
        let seqs: std::collections::HashSet<u64> = d.completions().iter().map(|c| c.seq).collect();
        assert_eq!(seqs.len(), 3);
    }

    #[test]
    fn a_connection_bound_run_is_never_hedged_or_retried() {
        // The tenant opts into both policies, but the request is bound to
        // a connection, whose conversation cannot be replayed: it is never
        // tracked, so it arms no hedge, and a shard failure under it
        // parked sheds it instead of retrying it.
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            ..DispatcherConfig::default()
        });
        let consumer = d.register(blocking_recv_spec("c")).unwrap();
        let tenant = d.add_tenant(
            TenantProfile::new("t")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_retry(RetryPolicy::new().with_jitter(0.0))
                .with_hedge(HedgePolicy::new().with_min_delay(Cycles::from_secs(0.0002))),
        );
        let (_client, server) = conn_pair(&d, 90);
        d.submit(
            Request::new(tenant, consumer, 0.0).with_invocation(Invocation::with_conn(server)),
        )
        .unwrap();
        // Well past the hedge delay, still parked.
        d.run_until(0.01);
        assert_eq!(d.parked(), 1, "the empty socket parks the run");
        assert_eq!(d.stats().hedges_armed, 0);
        assert_eq!(d.stats().hedges_fired, 0);

        let home = (0..2)
            .find(|&i| d.shard_snapshots()[i].parked == 1)
            .unwrap();
        let actions = d.fail_shard(home);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, LifecycleAction::RunEvicted { .. })),
            "the parked run was evicted: {actions:?}"
        );
        let s = d.stats();
        assert_eq!(s.shed_evicted, 1);
        assert_eq!((s.retries_queued, s.retries_parked), (0, 0));
        assert_eq!(d.tenant_stats(tenant).retries, 0);
        assert_eq!((s.retried_in_flight, d.parked()), (0, 0));
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);
        assert_eq!(s.submitted, s.served + s.shed(), "conservation");
    }

    #[test]
    fn a_hedged_request_escapes_a_straggler_shard() {
        let mut d = dispatcher(DispatcherConfig {
            shards: 2,
            ..DispatcherConfig::default()
        });
        let id = d.register(halt_spec("t")).unwrap();
        let tenant = d.add_tenant(
            TenantProfile::new("t")
                .with_hedge(HedgePolicy::new().with_min_delay(Cycles::from_secs(0.0002))),
        );
        // Shard 0 (the least-loaded pick at t=0) wedges before the
        // request's batch runs; the copy hedged at 200 µs lands on the
        // healthy sibling and wins.
        d.set_fault_plan(FaultPlan::new().hang_shard(
            Cycles::from_secs(0.0),
            0,
            Cycles::from_secs(0.01),
        ));
        d.submit(Request::new(tenant, id, 0.0)).unwrap();
        d.run_to_idle();

        let s = d.stats();
        assert_eq!(s.hedges_armed, 1);
        assert_eq!(s.hedges_fired, 1);
        assert_eq!(s.hedges_won, 1, "the copy beat the straggler");
        assert_eq!(s.hedges_canceled, 1, "the primary was suppressed");
        assert_eq!(s.served, 1, "first completion wins; one completion");
        assert_eq!(d.completions().len(), 1);
        let c = &d.completions()[0];
        assert_eq!(c.shard, 1, "served by the sibling, not the straggler");
        assert!(
            c.finish < 0.01,
            "finish {} must not wait out the 10 ms hang",
            c.finish
        );
        assert_eq!(d.tenant_stats(tenant).in_flight, 0);

        // A request with nothing to escape completes before its hedge
        // delay: armed, never fired.
        d.submit(Request::new(tenant, id, 0.02)).unwrap();
        d.run_to_idle();
        let s = d.stats();
        assert_eq!(s.served, 2);
        assert_eq!(s.hedges_armed, 2);
        assert_eq!(s.hedges_fired, 1, "a fast request never hedges");
        // Exactly once under hedging: distinct logical sequence numbers.
        let seqs: std::collections::HashSet<u64> = d.completions().iter().map(|c| c.seq).collect();
        assert_eq!(seqs.len(), 2);
    }
}
