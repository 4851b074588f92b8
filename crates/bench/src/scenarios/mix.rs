//! The Figure 15 serverless mix the scenarios share: the §5.2
//! snapshotted function and the slow spin, the dispatcher that serves
//! them, a fixed-cadence driver, per-phase recording, the exactly-once
//! ledger, and the bit-for-bit replay check.

use std::fmt::Debug;

use crate::json::Obj;
use vclock::stats::percentile;
use vclock::Cycles;
use vsched::{
    Completion, Dispatcher, DispatcherConfig, DispatcherStats, HealthStats, Placement, Request,
    TenantId, TenantProfile,
};
use wasp::{VirtineId, VirtineSpec, Wasp};

/// Guest memory of both mix functions.
pub const MEM: usize = 64 * 1024;

/// The §5.2 snapshotted function: a 4 KiB init footprint written before
/// the snapshot point, one page of dirt per invocation after it, so a warm
/// hit is a cheap delta re-arm and a cold create pays the fill loop.
pub fn snap_image() -> visa::asm::Image {
    wasp::hypercall::assemble(
        "
.org 0x8000
  mov r1, 0xA000
  mov r2, 0
fill:
  store.q [r1], r2
  add r1, 8
  add r2, 1
  cmp r2, 512
  jl fill
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r6, 0xC000
  store.q [r6], r2
  hlt
",
    )
    .expect("assemble")
}

/// The slow function: ~40k iterations of real work on every invocation
/// (registered without a snapshot, so warm re-arms cannot shortcut it) —
/// the mix's tail and the queue-builder behind it.
pub fn slow_image() -> visa::asm::Image {
    visa::assemble(
        "
.org 0x8000
  mov r1, 0xA000
  mov r2, 0
spin:
  store.q [r1], r2
  add r2, 1
  cmp r2, 40000
  jl spin
  hlt
",
    )
    .expect("assemble")
}

/// The mix's dispatcher: `shards` shards under `placement`, four warm
/// shells per pool, and a 5 µs batch tick.
pub fn dispatcher(shards: usize, placement: Placement) -> Dispatcher {
    let config = DispatcherConfig {
        shards,
        placement,
        warm_capacity: 4,
        tick: Cycles::from_micros(5.0),
        ..DispatcherConfig::default()
    };
    Dispatcher::new(Wasp::new_kvm_default(), config)
}

/// Registers `image` on `d` as `name`, in [`MEM`] of guest memory.
pub fn register(d: &mut Dispatcher, name: impl Into<String>, image: visa::asm::Image) -> VirtineId {
    d.register(VirtineSpec::new(name, image, MEM))
        .expect("register")
}

/// Fixed-cadence arrivals for one tenant: each round submits every `fast`
/// function one cadence apart, plus `slow.0` beside the last of them every
/// `slow.1` rounds, then runs the dispatcher up to the cursor.
pub struct Mix {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Functions submitted every round.
    pub fast: Vec<VirtineId>,
    /// A function submitted every `n`th round, and `n`.
    pub slow: Option<(VirtineId, usize)>,
    /// Virtual seconds between fast arrivals.
    pub cadence_s: f64,
}

impl Mix {
    /// Tenant `app` submitting `fns` snapshotted functions `fn0…` every
    /// `cadence_s`, with two clean shells prewarmed per shard.
    pub fn snapped(d: &mut Dispatcher, fns: usize, cadence_s: f64) -> Mix {
        let tenant = d.add_tenant(TenantProfile::new("app"));
        let fast = (0..fns)
            .map(|i| register(d, format!("fn{i}"), snap_image()))
            .collect();
        d.prewarm(MEM, 2);
        Mix {
            tenant,
            fast,
            slow: None,
            cadence_s,
        }
    }

    /// Submits round `round`'s arrivals from cursor `t` and runs up to it.
    pub fn round(&self, d: &mut Dispatcher, t: &mut f64, round: usize) {
        let fast = self.fast.iter().map(|&f| (f, self.cadence_s));
        let slow = self.slow.filter(|&(_, every)| round.is_multiple_of(every));
        for (f, gap) in fast.chain(slow.map(|(f, _)| (f, 0.0))) {
            *t += gap;
            d.submit(Request::new(self.tenant, f, *t)).expect("admit");
        }
        d.run_until(*t);
    }

    /// Drives rounds `0..rounds` from cursor `t`.
    pub fn drive(&self, d: &mut Dispatcher, t: &mut f64, rounds: usize) {
        (0..rounds).for_each(|round| self.round(d, t, round));
    }

    /// Records `rounds` rounds as one [`Phase`] settled for `settle_s`.
    pub fn phase(&self, d: &mut Dispatcher, t: &mut f64, rounds: usize, settle_s: f64) -> Phase {
        Phase::record(d, t, settle_s, |d, t| self.drive(d, t, rounds))
    }
}

/// Runs `window_s` past cursor `t` and moves the cursor there, so later
/// arrivals never land behind the advanced clock.
pub fn settle(d: &mut Dispatcher, t: &mut f64, window_s: f64) {
    d.run_until(*t + window_s);
    *t += window_s;
}

/// One measured phase: its completions and the dispatcher stats around it.
pub struct Phase {
    /// Everything that completed during the phase and its settle window.
    pub completions: Vec<Completion>,
    before: DispatcherStats,
    after: DispatcherStats,
}

impl Phase {
    /// Runs `body`, then settles for `settle_s` and takes the completions.
    pub fn record(
        d: &mut Dispatcher,
        t: &mut f64,
        settle_s: f64,
        body: impl FnOnce(&mut Dispatcher, &mut f64),
    ) -> Phase {
        let before = d.stats();
        body(d, t);
        settle(d, t, settle_s);
        let after = d.stats();
        let completions = d.take_completions();
        Phase {
            completions,
            before,
            after,
        }
    }

    /// How much stat `f` grew over the phase.
    pub fn delta(&self, f: impl Fn(&DispatcherStats) -> u64) -> u64 {
        f(&self.after) - f(&self.before)
    }

    /// p99 end-to-end latency in µs.
    pub fn p99_us(&self) -> f64 {
        let lat: Vec<f64> = self.completions.iter().map(|c| c.latency() * 1e6).collect();
        percentile(&lat, 99.0)
    }
}

/// The exactly-once ledger at quiesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactlyOnce {
    /// Admitted requests neither served nor shed after admission:
    /// `admitted − served − shed_evicted − retried_in_flight`
    /// (docs/reliability.md, "The conservation identity"). Door sheds
    /// (rate limit, in-flight cap) never entered `admitted`.
    pub lost: i64,
    /// Completions beyond the first for a logical sequence number.
    pub duplicates: i64,
}

impl ExactlyOnce {
    /// The ledger of `s` and every completion the run produced.
    pub fn of<'a>(s: &DispatcherStats, done: impl IntoIterator<Item = &'a Completion>) -> Self {
        let settled = s.served + s.shed_evicted + s.retried_in_flight;
        let mut seqs: Vec<u64> = done.into_iter().map(|c| c.seq).collect();
        let all = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        ExactlyOnce {
            lost: s.admitted as i64 - settled as i64,
            duplicates: (all - seqs.len()) as i64,
        }
    }
}

/// The health detector's counters as an artifact object.
pub fn detector(h: &HealthStats) -> Obj {
    let obj = Obj::new()
        .val("declared", h.declared)
        .val("restored", h.restored);
    obj.val("false_positives", h.false_positives)
        .val("probes", h.probes)
}

/// Runs `run` twice and asserts both runs leave the same `fingerprint`:
/// the scenario replays bit-for-bit under its seed. Returns the first.
pub fn replay_twice<T, F: PartialEq + Debug>(
    run: impl Fn() -> T,
    fingerprint: impl Fn(&T) -> F,
) -> T {
    let first = run();
    assert_eq!(
        fingerprint(&first),
        fingerprint(&run()),
        "two invocations of the same seed must replay bit-for-bit"
    );
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_door_shed_does_not_mask_a_lost_request() {
        // Two admitted, one served, one more refused at the token bucket
        // (never admitted): one admitted request is unaccounted for.
        let s = DispatcherStats {
            submitted: 3,
            admitted: 2,
            served: 1,
            shed_rate_limit: 1,
            ..DispatcherStats::default()
        };
        assert_eq!(ExactlyOnce::of(&s, []).lost, 1);
        // The formula this ledger replaced counted every shed reason, so
        // the door shed cancelled the lost request out.
        let masked =
            s.admitted as i64 - s.served as i64 - s.shed() as i64 - s.retried_in_flight as i64;
        assert_eq!(masked, 0);
    }
}
