//! Health-driven failover: a deterministic heartbeat/suspicion failure
//! detector with circuit-breaker recovery.
//!
//! The paper's economics make isolation contexts cheap enough to kill and
//! re-create freely (§5.2); this module supplies the *trigger*: instead of
//! failure being declared only by an operator or a scripted
//! [`crate::FaultPlan`], the dispatcher observes its own shards and
//! declares failure from missed heartbeats. Everything runs in virtual
//! time and draws randomness exclusively from `vclock::rng`, so a whole
//! detect → fail → reconcile → probe → restore arc replays bit-for-bit
//! from a seed.
//!
//! **Detection.** Every batch a shard runs is a heartbeat (the shard's
//! worker demonstrably made progress). When the gap since the last
//! heartbeat exceeds [`HealthConfig::heartbeat_interval`], the detector
//! probes the shard directly — an idle-but-healthy worker answers and is
//! never suspected (steady-state false positives are structurally zero),
//! while a wedged worker stays silent and its **suspicion** grows as the
//! ratio of silence to the expected interval, a discrete phi-accrual
//! score. Crossing [`HealthConfig::suspicion_threshold`] drives the
//! *existing* `fail_shard → reconcile → re-admit` path: queued work
//! evacuates to siblings, parked runs are evicted (and, for tenants with
//! a [`crate::RetryPolicy`], re-submitted), shells are dropped.
//!
//! **Recovery.** A declared shard trips a circuit breaker to
//! [`CircuitState::Open`]. Half-open probes fire every
//! [`HealthConfig::probe_interval`] (with seeded jitter, so probe storms
//! desynchronize deterministically); the first success moves the breaker
//! to [`CircuitState::HalfOpen`], and
//! [`HealthConfig::probes_to_restore`] *consecutive* successes close it
//! again via `restore_shard`. Any failure while half-open re-opens the
//! breaker and resets the streak.

use vclock::rng::Rng;
use vclock::Cycles;

/// Knobs for the heartbeat/suspicion failure detector. Installed with
/// `Dispatcher::set_health`; absent (the default) the dispatcher behaves
/// exactly as before — detection is strictly opt-in.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Expected worst-case gap between a shard's heartbeats while it has
    /// work. Past this gap the detector starts probing.
    pub heartbeat_interval: Cycles,
    /// Suspicion score (silence ÷ `heartbeat_interval`) at which the
    /// shard is declared failed.
    pub suspicion_threshold: f64,
    /// Cadence of half-open recovery probes against a declared shard.
    pub probe_interval: Cycles,
    /// Consecutive successful probes required to restore a declared
    /// shard.
    pub probes_to_restore: u32,
    /// Jitter fraction applied to each probe interval, in `[0, 1)`.
    pub probe_jitter_frac: f64,
    /// Seed for the detector's private `vclock::rng` stream.
    pub seed: u64,
}

impl HealthConfig {
    /// Conservative defaults: 500 µs heartbeat interval, threshold 4
    /// (two milliseconds of silence), 250 µs probe cadence, 3 probes to
    /// restore, 10% probe jitter.
    pub fn new() -> HealthConfig {
        HealthConfig {
            heartbeat_interval: Cycles::from_micros(500.0),
            suspicion_threshold: 4.0,
            probe_interval: Cycles::from_micros(250.0),
            probes_to_restore: 3,
            probe_jitter_frac: 0.1,
            seed: 0x004E_A174,
        }
    }

    /// Sets the heartbeat interval (builder style).
    pub fn with_heartbeat_interval(mut self, interval: Cycles) -> HealthConfig {
        assert!(
            interval > Cycles::ZERO,
            "heartbeat interval must be positive"
        );
        self.heartbeat_interval = interval;
        self
    }

    /// Sets the suspicion threshold (builder style).
    pub fn with_suspicion_threshold(mut self, threshold: f64) -> HealthConfig {
        assert!(threshold >= 1.0, "a sub-one threshold suspects heartbeats");
        self.suspicion_threshold = threshold;
        self
    }

    /// Sets the probe cadence and the number of consecutive successes
    /// that restore a shard (builder style).
    pub fn with_probes(mut self, interval: Cycles, to_restore: u32) -> HealthConfig {
        assert!(interval > Cycles::ZERO, "probe interval must be positive");
        assert!(to_restore >= 1, "restoring needs at least one probe");
        self.probe_interval = interval;
        self.probes_to_restore = to_restore;
        self
    }

    /// Sets the detector's RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> HealthConfig {
        self.seed = seed;
        self
    }
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig::new()
    }
}

/// Circuit-breaker state of one shard, as the detector sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: heartbeats (or idle probes) are arriving.
    Closed,
    /// Declared failed; recovery probes are failing (or have not yet
    /// succeeded).
    Open,
    /// Declared failed, but at least one recovery probe has succeeded;
    /// a full success streak will close the breaker.
    HalfOpen,
}

impl CircuitState {
    /// Stable snake_case label for the `/admin/health` payload.
    pub fn label(self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half_open",
        }
    }
}

/// What the detector wants done, returned from [`HealthDetector::poll`]
/// and applied by the dispatcher through its existing lifecycle entry
/// points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Suspicion crossed the threshold: `fail_shard` this shard.
    Declare(usize),
    /// The success streak completed: `restore_shard` this shard.
    Restore(usize),
}

/// Detector counters, exported through `Dispatcher::health_stats` and the
/// fault-recovery bench gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Shard failures this detector declared (threshold crossings).
    pub declared: u64,
    /// Declared shards restored after a full half-open success streak.
    pub restored: u64,
    /// Declarations against a shard that was actually alive at the
    /// instant of declaration. Probing before suspecting makes this
    /// structurally zero in steady state; the bench gates it exactly.
    pub false_positives: u64,
    /// Probes sent (liveness and half-open recovery).
    pub probes: u64,
    /// Probes that went unanswered.
    pub probe_failures: u64,
}

/// Read-only per-shard detector view, for `/admin/health` and the
/// `vsched_suspicion` gauge.
#[derive(Debug, Clone, Copy)]
pub struct ShardHealth {
    /// Current suspicion score (silence ÷ heartbeat interval; 0 while
    /// heartbeats arrive).
    pub suspicion: f64,
    /// Circuit-breaker state.
    pub breaker: CircuitState,
    /// Virtual instant (cycles) of the last observed heartbeat or
    /// successful probe.
    pub last_seen: u64,
}

#[derive(Debug, Clone, Copy)]
struct ShardMonitor {
    last_seen: u64,
    suspicion: f64,
    breaker: CircuitState,
    streak: u32,
    next_probe_at: u64,
}

/// The heartbeat/suspicion failure detector. Owned by the dispatcher;
/// fed heartbeats from batch ticks and polled as virtual time advances.
#[derive(Debug)]
pub struct HealthDetector {
    config: HealthConfig,
    rng: Rng,
    shards: Vec<ShardMonitor>,
    stats: HealthStats,
}

impl HealthDetector {
    /// A detector over `shards` shards, all initially healthy.
    pub fn new(config: HealthConfig, shards: usize) -> HealthDetector {
        HealthDetector {
            config,
            rng: Rng::seeded(config.seed),
            shards: vec![
                ShardMonitor {
                    last_seen: 0,
                    suspicion: 0.0,
                    breaker: CircuitState::Closed,
                    streak: 0,
                    next_probe_at: 0,
                };
                shards
            ],
            stats: HealthStats::default(),
        }
    }

    /// Records a liveness signal from shard `shard` at virtual instant
    /// `at` (cycles) — every batch tick is one.
    pub fn heartbeat(&mut self, shard: usize, at: u64) {
        let m = &mut self.shards[shard];
        m.last_seen = m.last_seen.max(at);
        if m.breaker == CircuitState::Closed {
            m.suspicion = 0.0;
        }
    }

    /// A jittered probe interval: the configured cadence scaled by a
    /// seeded uniform factor in `[1 − j, 1 + j)`.
    fn jittered_interval(&mut self) -> u64 {
        let j = self.config.probe_jitter_frac;
        let scale = if j > 0.0 {
            self.rng.range_f64(1.0 - j, 1.0 + j)
        } else {
            1.0
        };
        ((self.config.probe_interval.get() as f64) * scale) as u64
    }

    /// The knobs this detector runs with.
    pub(crate) fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Advances the detector to virtual instant `now`. `alive(i)` is
    /// whether shard `i`'s worker would answer a probe (a hung worker
    /// would not); `monitored(i)` is whether the shard is `Active` —
    /// shards an *operator* drained or failed are not the detector's to
    /// judge. Returns the lifecycle actions the dispatcher must apply.
    pub fn poll(
        &mut self,
        now: u64,
        alive: impl Fn(usize) -> bool,
        monitored: impl Fn(usize) -> bool,
    ) -> Vec<HealthAction> {
        let mut actions = Vec::new();
        let interval = self.config.heartbeat_interval.get().max(1);
        for i in 0..self.shards.len() {
            let breaker = self.shards[i].breaker;
            match breaker {
                CircuitState::Closed => {
                    if !monitored(i) {
                        // Operator-managed shard: hold the clock so a
                        // later restore starts from a clean slate.
                        let m = &mut self.shards[i];
                        m.last_seen = m.last_seen.max(now);
                        m.suspicion = 0.0;
                        continue;
                    }
                    let elapsed = now.saturating_sub(self.shards[i].last_seen);
                    if elapsed <= interval {
                        self.shards[i].suspicion = elapsed as f64 / interval as f64;
                        continue;
                    }
                    if now < self.shards[i].next_probe_at {
                        continue;
                    }
                    self.stats.probes += 1;
                    let next = now + self.jittered_interval();
                    let m = &mut self.shards[i];
                    m.next_probe_at = next;
                    if alive(i) {
                        // Idle but answering: healthy, never suspected.
                        m.last_seen = now;
                        m.suspicion = 0.0;
                    } else {
                        self.stats.probe_failures += 1;
                        m.suspicion = elapsed as f64 / interval as f64;
                    }
                    if self.shards[i].suspicion >= self.config.suspicion_threshold {
                        let m = &mut self.shards[i];
                        m.breaker = CircuitState::Open;
                        m.streak = 0;
                        self.stats.declared += 1;
                        // Probe-before-suspect makes declaring an
                        // answering shard impossible; the counter is the
                        // tripwire guarding that invariant (the bench
                        // gates it at exactly zero).
                        if alive(i) {
                            self.stats.false_positives += 1;
                        }
                        actions.push(HealthAction::Declare(i));
                    }
                }
                CircuitState::Open | CircuitState::HalfOpen => {
                    if monitored(i) {
                        // An operator restored the shard out from under
                        // the breaker: accept their judgement.
                        let m = &mut self.shards[i];
                        m.breaker = CircuitState::Closed;
                        m.streak = 0;
                        m.last_seen = now;
                        m.suspicion = 0.0;
                        continue;
                    }
                    if now < self.shards[i].next_probe_at {
                        continue;
                    }
                    self.stats.probes += 1;
                    let next = now + self.jittered_interval();
                    let restore_after = self.config.probes_to_restore;
                    let m = &mut self.shards[i];
                    m.next_probe_at = next;
                    if alive(i) {
                        m.streak += 1;
                        m.breaker = CircuitState::HalfOpen;
                        if m.streak >= restore_after {
                            m.breaker = CircuitState::Closed;
                            m.streak = 0;
                            m.last_seen = now;
                            m.suspicion = 0.0;
                            self.stats.restored += 1;
                            actions.push(HealthAction::Restore(i));
                        }
                    } else {
                        self.stats.probe_failures += 1;
                        m.streak = 0;
                        m.breaker = CircuitState::Open;
                    }
                }
            }
        }
        actions
    }

    /// Per-shard view for `/admin/health` and the `vsched_suspicion`
    /// gauge.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        let m = &self.shards[shard];
        ShardHealth {
            suspicion: m.suspicion,
            breaker: m.breaker,
            last_seen: m.last_seen,
        }
    }

    /// Detector counters.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyc(us: f64) -> u64 {
        Cycles::from_micros(us).get()
    }

    /// Polls with per-shard liveness and monitoring given as slices.
    fn poll(d: &mut HealthDetector, now: u64, alive: &[bool], on: &[bool]) -> Vec<HealthAction> {
        d.poll(now, |i| alive[i], |i| on[i])
    }

    fn detector() -> HealthDetector {
        // 100 µs heartbeat interval, threshold 3, 50 µs probes, 2 to
        // restore, no jitter so instants are easy to reason about.
        let cfg = HealthConfig {
            heartbeat_interval: Cycles::from_micros(100.0),
            suspicion_threshold: 3.0,
            probe_interval: Cycles::from_micros(50.0),
            probes_to_restore: 2,
            probe_jitter_frac: 0.0,
            seed: 7,
        };
        HealthDetector::new(cfg, 2)
    }

    #[test]
    fn idle_but_alive_shards_are_never_suspected() {
        let mut d = detector();
        let alive = [true, true];
        let active = [true, true];
        for step in 1..=100u64 {
            let actions = poll(&mut d, step * cyc(100.0), &alive, &active);
            assert!(actions.is_empty(), "a probed, answering shard is healthy");
        }
        assert_eq!(d.stats().declared, 0);
        assert_eq!(d.stats().false_positives, 0);
        assert!(d.stats().probes > 0, "silence past the interval probed");
        assert_eq!(d.stats().probe_failures, 0);
    }

    #[test]
    fn silence_grows_suspicion_and_crosses_the_threshold() {
        let mut d = detector();
        d.heartbeat(0, cyc(100.0));
        d.heartbeat(1, cyc(100.0));
        // Shard 0 wedges; shard 1 keeps beating.
        let alive = [false, true];
        let active = [true, true];
        let mut declared_at = None;
        for step in 3..=20u64 {
            let now = step * cyc(50.0);
            d.heartbeat(1, now);
            for a in poll(&mut d, now, &alive, &active) {
                assert_eq!(a, HealthAction::Declare(0));
                declared_at = Some(now);
            }
            if declared_at.is_some() {
                break;
            }
        }
        // Threshold 3 × 100 µs of silence after the 100 µs heartbeat:
        // declared at the first poll past 400 µs.
        assert_eq!(declared_at, Some(cyc(400.0)));
        assert_eq!(d.stats().declared, 1);
        assert_eq!(d.stats().false_positives, 0);
        assert_eq!(d.shard_health(0).breaker, CircuitState::Open);
        assert_eq!(d.shard_health(1).breaker, CircuitState::Closed);
        assert!(d.shard_health(0).suspicion >= 3.0);
    }

    #[test]
    fn half_open_probes_restore_after_a_success_streak() {
        let mut d = detector();
        let active = [true, true];
        // Wedge shard 0 and let the detector declare it.
        let mut now = cyc(500.0);
        assert_eq!(
            poll(&mut d, now, &[false, true], &active),
            vec![HealthAction::Declare(0)]
        );
        // Declared: the shard is no longer Active. Probes fail while it
        // stays wedged.
        now += cyc(50.0);
        assert!(poll(&mut d, now, &[false, true], &[false, true]).is_empty());
        assert_eq!(d.shard_health(0).breaker, CircuitState::Open);
        // It recovers: two consecutive successes (probes_to_restore = 2)
        // walk Open → HalfOpen → Closed.
        now += cyc(50.0);
        assert!(poll(&mut d, now, &[true, true], &[false, true]).is_empty());
        assert_eq!(d.shard_health(0).breaker, CircuitState::HalfOpen);
        now += cyc(50.0);
        assert_eq!(
            poll(&mut d, now, &[true, true], &[false, true]),
            vec![HealthAction::Restore(0)]
        );
        assert_eq!(d.shard_health(0).breaker, CircuitState::Closed);
        assert_eq!(d.stats().restored, 1);
    }

    #[test]
    fn a_failed_half_open_probe_resets_the_streak() {
        let mut d = detector();
        let mut now = cyc(500.0);
        assert_eq!(
            poll(&mut d, now, &[false, true], &[true, true]),
            vec![HealthAction::Declare(0)]
        );
        // Success, then a relapse, then two successes: only the final
        // streak restores.
        now += cyc(50.0);
        assert!(poll(&mut d, now, &[true, true], &[false, true]).is_empty());
        now += cyc(50.0);
        assert!(poll(&mut d, now, &[false, true], &[false, true]).is_empty());
        assert_eq!(
            d.shard_health(0).breaker,
            CircuitState::Open,
            "relapse re-opens"
        );
        now += cyc(50.0);
        assert!(poll(&mut d, now, &[true, true], &[false, true]).is_empty());
        now += cyc(50.0);
        assert_eq!(
            poll(&mut d, now, &[true, true], &[false, true]),
            vec![HealthAction::Restore(0)]
        );
    }

    #[test]
    fn operator_managed_shards_are_not_the_detectors_business() {
        let mut d = detector();
        // Shard 0 is operator-drained (not monitored) and silent: the
        // detector must hold its clock, not suspect it.
        for step in 1..=50u64 {
            let actions = poll(&mut d, step * cyc(100.0), &[false, true], &[false, true]);
            assert!(actions.is_empty());
        }
        assert_eq!(d.stats().declared, 0);
        assert_eq!(d.shard_health(0).suspicion, 0.0);
    }

    #[test]
    fn detector_replays_bit_for_bit_from_the_seed() {
        let run = || {
            let cfg = HealthConfig::new()
                .with_heartbeat_interval(Cycles::from_secs(0.0001))
                .with_probes(Cycles::from_secs(0.00005), 2)
                .with_seed(42);
            let mut d = HealthDetector::new(cfg, 3);
            let mut log = Vec::new();
            for step in 1..=200u64 {
                let now = step * cyc(25.0);
                // Shard 1 wedges for a window, then recovers.
                let hung = (40..=120).contains(&step);
                let alive = [true, !hung, true];
                let closed = d.shard_health(1).breaker == CircuitState::Closed;
                let monitored = [true, closed, true];
                for a in poll(&mut d, now, &alive, &monitored) {
                    log.push((step, a));
                }
            }
            (log, d.stats())
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        assert_eq!(log_a, log_b, "same seed, same declare/restore sequence");
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.declared, 1);
        assert_eq!(stats_a.restored, 1);
        assert_eq!(stats_a.false_positives, 0);
    }

    #[test]
    fn config_builders_validate() {
        let h = HealthConfig::new()
            .with_heartbeat_interval(Cycles::from_secs(0.001))
            .with_suspicion_threshold(8.0)
            .with_probes(Cycles::from_secs(0.0005), 5)
            .with_seed(9);
        assert_eq!(h.heartbeat_interval, Cycles::from_micros(1_000.0));
        assert_eq!(h.suspicion_threshold, 8.0);
        assert_eq!(h.probe_interval, Cycles::from_micros(500.0));
        assert_eq!((h.probes_to_restore, h.seed), (5, 9));
        assert_eq!(CircuitState::Closed.label(), "closed");
        assert_eq!(CircuitState::Open.label(), "open");
        assert_eq!(CircuitState::HalfOpen.label(), "half_open");
    }

    #[test]
    #[should_panic(expected = "heartbeat interval must be positive")]
    fn a_zero_heartbeat_interval_is_refused() {
        let _ = HealthConfig::new().with_heartbeat_interval(Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "probe interval must be positive")]
    fn a_zero_probe_interval_is_refused() {
        let _ = HealthConfig::new().with_probes(Cycles::ZERO, 3);
    }
}
