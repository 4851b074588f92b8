//! Tenant profiles and admission control.
//!
//! The paper isolates *functions* at the hardware limit; a serving platform
//! must additionally isolate *customers* from each other before any virtine
//! runs. Each tenant carries:
//!
//! * a **token bucket** ([`TenantProfile::rate_rps`]/[`TenantProfile::burst`])
//!   bounding its sustained admission rate — a misbehaving tenant is shed at
//!   the door instead of starving the shared shell pools;
//! * an **in-flight cap** ([`TenantProfile::max_in_flight`]) bounding how
//!   much queue and pool capacity one tenant can hold at once;
//! * a **hypercall ceiling** ([`TenantProfile::mask`]), intersected with
//!   each virtine spec's own policy — the default-deny posture of §5.1
//!   extends to tenants: a profile can only narrow what a spec permits,
//!   never widen it;
//! * a **base priority** feeding the shard run queues.

use vclock::stats::Histogram;
use vclock::Cycles;
use wasp::HypercallMask;

/// Handle to a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's index in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why the dispatcher refused a request at admission or dropped it after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty: it exceeded its sustained rate.
    RateLimited,
    /// The tenant already has `max_in_flight` requests queued or running.
    InFlightCap,
    /// Shard lifecycle evicted an admitted run that could not be
    /// re-admitted elsewhere: its drain grace period
    /// ([`crate::DispatcherConfig::drain_grace`]) expired while it was
    /// still parked on a draining shard, or the shard it was parked on
    /// failed and the suspended state died with it. This is the only
    /// post-admission shed; movable work (queued requests, migratable
    /// suspensions, warm shells) is relocated by the reconciler instead
    /// and never sees this reason.
    Evicted,
}

impl ShedReason {
    /// Every reason, in the order the stats surfaces list them.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::RateLimited,
        ShedReason::InFlightCap,
        ShedReason::Evicted,
    ];

    /// Whether the request was refused by `submit` itself — before it was
    /// admitted, so it never held an in-flight slot, a sequence number, or
    /// a queue entry. [`ShedReason::Evicted`] sheds an *admitted* request
    /// and must give its in-flight slot back.
    pub fn at_door(self) -> bool {
        self != ShedReason::Evicted
    }

    /// Stable snake_case label for this reason, matching the `outcome`
    /// label values of the `vsched_requests_total` Prometheus series
    /// (minus their `shed_` prefix namespacing) and the trace dump's
    /// `shed:<label>` outcomes.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limit",
            ShedReason::InFlightCap => "in_flight",
            ShedReason::Evicted => "evicted",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::RateLimited => write!(f, "rate limited"),
            ShedReason::InFlightCap => write!(f, "in-flight cap reached"),
            ShedReason::Evicted => write!(f, "evicted by shard lifecycle"),
        }
    }
}

/// Exactly-once retry policy for one tenant: work this tenant has
/// *admitted* that is then lost to a shard failure (queued work with no
/// eligible sibling to evacuate to, or a parked run whose suspended state
/// died with the shard) is re-submitted from scratch instead of being
/// shed with [`ShedReason::Evicted`].
///
/// Re-submission is bounded three ways: a per-request attempt cap, an
/// exponential backoff with seeded jitter (all randomness through
/// `vclock::rng`, so retries replay bit-for-bit), and a tenant-wide retry
/// *budget* token bucket — a failing shard cannot amplify a tenant's load
/// unboundedly. Only requests whose inputs the dispatcher still holds can
/// be re-run: a request bound to a live connection
/// (`wasp::Invocation::conn`) has consumed bytes the dispatcher cannot
/// replay, so it falls through to the normal eviction shed.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum total attempts per logical request, counting the first
    /// run (so `max_attempts: 3` allows two retries). Must be ≥ 2 or the
    /// policy retries nothing.
    pub max_attempts: u32,
    /// Backoff base: retry *n* (1-based) is released `backoff × 2^(n−1)`
    /// after the loss, scaled by jitter.
    pub backoff: Cycles,
    /// Jitter fraction in `[0, 1)`: each delay is scaled by a seeded
    /// uniform factor in `[1 − jitter_frac, 1 + jitter_frac)`.
    pub jitter_frac: f64,
    /// Sustained retry budget in retries per virtual second;
    /// `f64::INFINITY` disables the budget.
    pub budget_rps: f64,
    /// Retry-budget bucket capacity (largest retry burst from full).
    pub budget_burst: f64,
}

impl RetryPolicy {
    /// A conservative default: 3 total attempts, 100 µs backoff base,
    /// 10% jitter, 100 retries/s sustained with a burst of 16.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Cycles::from_micros(100.0),
            jitter_frac: 0.1,
            budget_rps: 100.0,
            budget_burst: 16.0,
        }
    }

    /// Sets the total attempt cap (builder style).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> RetryPolicy {
        assert!(max_attempts >= 2, "fewer than two attempts retries nothing");
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the backoff base (builder style).
    pub fn with_backoff(mut self, backoff: Cycles) -> RetryPolicy {
        self.backoff = backoff;
        self
    }

    /// Sets the jitter fraction (builder style).
    pub fn with_jitter(mut self, frac: f64) -> RetryPolicy {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0, 1)"
        );
        self.jitter_frac = frac;
        self
    }

    /// Sets the retry-budget rate and burst (builder style).
    pub fn with_budget(mut self, rps: f64, burst: f64) -> RetryPolicy {
        assert!(burst >= 1.0, "a sub-one budget burst admits no retry");
        self.budget_rps = rps;
        self.budget_burst = burst;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// Tail-hedging policy for one tenant: if a request has not completed
/// within a delay derived from *observed* end-to-end latency (the same
/// histograms Prometheus exports), a duplicate is submitted and the first
/// completion wins — the loser is canceled and suppressed, so the request
/// still completes (and is counted) exactly once.
///
/// Hedging only arms for requests whose inputs can be duplicated (no
/// bound connection). The delay is `max(min_delay, quantile × multiplier)`
/// over the tenant's own e2e histogram once it has enough samples, falling
/// back to the dispatcher-wide histogram, then to `min_delay` on a cold
/// start.
#[derive(Debug, Clone, Copy)]
pub struct HedgePolicy {
    /// Which observed e2e quantile seeds the delay (e.g. 0.99).
    pub quantile: f64,
    /// Multiplier applied to the observed quantile (≥ 1.0 keeps the
    /// hedge rate at roughly `1 − quantile` of traffic).
    pub multiplier: f64,
    /// Floor on the hedge delay, and the delay used while histograms are
    /// still cold.
    pub min_delay: Cycles,
    /// Histogram sample count below which a histogram is considered cold.
    pub min_samples: u64,
}

impl HedgePolicy {
    /// Hedge at the observed p99 (×1), floored at 200 µs, trusting
    /// histograms with at least 64 samples.
    pub fn new() -> HedgePolicy {
        HedgePolicy {
            quantile: 0.99,
            multiplier: 1.0,
            min_delay: Cycles::from_micros(200.0),
            min_samples: 64,
        }
    }

    /// Sets the quantile and multiplier (builder style).
    pub fn with_quantile(mut self, quantile: f64, multiplier: f64) -> HedgePolicy {
        assert!((0.0..1.0).contains(&quantile), "quantile must be in [0, 1)");
        assert!(multiplier > 0.0, "multiplier must be positive");
        self.quantile = quantile;
        self.multiplier = multiplier;
        self
    }

    /// Sets the delay floor (builder style).
    pub fn with_min_delay(mut self, min_delay: Cycles) -> HedgePolicy {
        assert!(
            min_delay > Cycles::ZERO,
            "a zero hedge delay duplicates every request"
        );
        self.min_delay = min_delay;
        self
    }
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy::new()
    }
}

/// Admission-control profile for one tenant.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Diagnostic name.
    pub name: String,
    /// Sustained admission rate in requests per virtual second;
    /// `f64::INFINITY` disables rate limiting.
    pub rate_rps: f64,
    /// Token-bucket capacity: the largest instantaneous burst admitted
    /// from a full bucket.
    pub burst: f64,
    /// Maximum requests this tenant may have queued or running at once.
    pub max_in_flight: usize,
    /// Hypercall ceiling, intersected with each spec's policy (§5.1
    /// default-deny, extended per tenant).
    pub mask: HypercallMask,
    /// Base priority; higher values are popped from shard queues first.
    pub priority: u8,
    /// Longest a virtine of this tenant may stay parked in one blocking
    /// wait (vclock time). A parked run holds a live shell and an
    /// in-flight slot; past the bound it is killed with a wiped shell and
    /// counted in [`TenantStats::blocked_timeout`]. `None` waits forever.
    pub max_block: Option<Cycles>,
    /// Exactly-once retry of work lost to shard failure; `None` (the
    /// default) sheds lost work with [`ShedReason::Evicted`] as before.
    pub retry: Option<RetryPolicy>,
    /// Tail hedging from observed latency; `None` (the default) never
    /// duplicates a request.
    pub hedge: Option<HedgePolicy>,
}

impl TenantProfile {
    /// An unthrottled, default-deny profile: no rate limit, a generous
    /// in-flight cap, and only the spec's own policy in effect — but no
    /// hypercalls beyond `exit`/`snapshot` unless [`Self::with_mask`]
    /// widens the ceiling.
    pub fn new(name: impl Into<String>) -> TenantProfile {
        TenantProfile {
            name: name.into(),
            rate_rps: f64::INFINITY,
            burst: 1.0,
            max_in_flight: usize::MAX,
            mask: HypercallMask::DENY_ALL,
            priority: 0,
            max_block: None,
            retry: None,
            hedge: None,
        }
    }

    /// Sets the token-bucket rate and burst capacity (builder style).
    pub fn with_rate(mut self, rate_rps: f64, burst: f64) -> TenantProfile {
        assert!(burst >= 1.0, "burst below one admits nothing");
        self.rate_rps = rate_rps;
        self.burst = burst;
        self
    }

    /// Sets the in-flight cap (builder style).
    pub fn with_max_in_flight(mut self, cap: usize) -> TenantProfile {
        self.max_in_flight = cap;
        self
    }

    /// Sets the hypercall ceiling (builder style).
    pub fn with_mask(mut self, mask: HypercallMask) -> TenantProfile {
        self.mask = mask;
        self
    }

    /// Sets the base priority (builder style).
    pub fn with_priority(mut self, priority: u8) -> TenantProfile {
        self.priority = priority;
        self
    }

    /// Bounds how long a virtine may stay parked in one blocking wait
    /// (builder style).
    pub fn with_max_block(mut self, max_block: Cycles) -> TenantProfile {
        assert!(
            max_block > Cycles::ZERO,
            "a zero block budget kills every block"
        );
        self.max_block = Some(max_block);
        self
    }

    /// Enables exactly-once retry of work lost to shard failure (builder
    /// style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> TenantProfile {
        self.retry = Some(retry);
        self
    }

    /// Enables tail hedging from observed latency (builder style).
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> TenantProfile {
        self.hedge = Some(hedge);
        self
    }
}

/// Per-tenant dispatcher statistics, surfaced like `wasp::PoolStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests offered by the tenant.
    pub submitted: u64,
    /// Requests admitted past rate limit and in-flight cap.
    pub admitted: u64,
    /// Requests that completed execution.
    pub served: u64,
    /// Requests shed because the token bucket was empty.
    pub shed_rate_limit: u64,
    /// Requests shed at the in-flight cap.
    pub shed_in_flight: u64,
    /// Served requests that ran on a shell stolen from a sibling shard.
    pub stolen_serves: u64,
    /// Served requests that hit a warm shell (delta re-arm).
    pub warm_serves: u64,
    /// Served requests that ended abnormally (policy denial, fault, kill).
    pub abnormal: u64,
    /// Requests currently queued or running.
    pub in_flight: u64,
    /// Times this tenant's virtines parked in a blocking wait (block
    /// events, not unique requests).
    pub blocked: u64,
    /// Parked runs killed at the tenant's `max_block` bound.
    pub blocked_timeout: u64,
    /// Admitted runs hard-stopped by shard lifecycle
    /// ([`ShedReason::Evicted`]): their drain grace expired while they
    /// were parked on a draining shard, or the shard they were parked on
    /// failed.
    pub shed_evicted: u64,
    /// Re-submissions performed by the retry machinery (attempts beyond
    /// the first, summed over all logical requests).
    pub retries: u64,
    /// Logical requests currently waiting out a retry backoff: admitted,
    /// not served, not shed, still counted in `in_flight` but with no
    /// live copy (the bridge term of the conservation identity,
    /// `docs/reliability.md`). Zero whenever the dispatcher is idle.
    pub retried_in_flight: u64,
}

impl TenantStats {
    /// The counter of one shed reason.
    pub(crate) fn shed_counter(&mut self, reason: ShedReason) -> &mut u64 {
        match reason {
            ShedReason::RateLimited => &mut self.shed_rate_limit,
            ShedReason::InFlightCap => &mut self.shed_in_flight,
            ShedReason::Evicted => &mut self.shed_evicted,
        }
    }

    /// Total sheds across every cause.
    pub fn shed(&self) -> u64 {
        let mut copy = *self;
        ShedReason::ALL.map(|r| *copy.shed_counter(r)).iter().sum()
    }
}

/// A token bucket refilled in virtual time — the one definition every
/// admission budget uses: the dispatcher's per-tenant rate limit, the
/// per-tenant retry budget (`crate::openreq`), and the `vhttp` ingress's
/// edge admission, which sheds a tenant over budget *in front of* the
/// cluster with the same refill semantics the dispatcher would apply.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    rate_rps: f64,
    burst: f64,
    last_refill: Cycles,
}

impl TokenBucket {
    /// A bucket holding `burst` tokens, refilled at `rate_rps` tokens
    /// per virtual second. A non-finite rate means unlimited.
    pub fn new(rate_rps: f64, burst: f64) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            rate_rps,
            burst,
            last_refill: Cycles::ZERO,
        }
    }

    /// Refills up to `now` and tries to charge one token; a refusal
    /// charges nothing.
    pub fn admit(&mut self, now: Cycles) -> bool {
        if !self.rate_rps.is_finite() {
            return true;
        }
        let dt = now.saturating_sub(self.last_refill).as_secs();
        self.tokens = (self.tokens + dt * self.rate_rps).min(self.burst);
        self.last_refill = Cycles(self.last_refill.get().max(now.get()));
        if self.tokens < 1.0 {
            return false;
        }
        self.tokens -= 1.0;
        true
    }
}

/// A registered tenant: profile plus live admission state.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub(crate) profile: TenantProfile,
    pub(crate) bucket: TokenBucket,
    /// The retry-budget bucket, present only when the profile carries a
    /// [`RetryPolicy`]: charged one token per re-submission.
    pub(crate) retry_bucket: Option<TokenBucket>,
    pub(crate) stats: TenantStats,
    /// End-to-end latency distribution (cycles, arrival → finish) of
    /// this tenant's served requests — the `vsched_e2e_cycles{tenant=…}`
    /// Prometheus series.
    pub(crate) e2e: Histogram,
}

impl TenantState {
    pub(crate) fn new(profile: TenantProfile) -> TenantState {
        let bucket = TokenBucket::new(profile.rate_rps, profile.burst);
        let retry_bucket = profile
            .retry
            .map(|r| TokenBucket::new(r.budget_rps, r.budget_burst));
        TenantState {
            profile,
            bucket,
            retry_bucket,
            stats: TenantStats::default(),
            e2e: Histogram::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_admits_burst_then_rate() {
        let mut b = TokenBucket::new(10.0, 3.0);
        let t0 = Cycles::ZERO;
        // Full bucket: three immediate admissions, then empty.
        assert!(b.admit(t0) && b.admit(t0) && b.admit(t0));
        assert!(!b.admit(t0));
        // 100 ms at 10 rps refills one token.
        let t1 = Cycles::from_micros(100_000.0);
        assert!(b.admit(t1));
        assert!(!b.admit(t1));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        // A long quiet period must not bank more than `burst` tokens.
        let late = Cycles::from_micros(10_000_000.0);
        assert!(b.admit(late) && b.admit(late));
        assert!(!b.admit(late));
    }

    #[test]
    fn infinite_rate_never_sheds() {
        let mut b = TokenBucket::new(f64::INFINITY, 1.0);
        for _ in 0..10_000 {
            assert!(b.admit(Cycles::ZERO));
        }
    }

    #[test]
    fn shed_reason_displays() {
        assert_eq!(ShedReason::RateLimited.to_string(), "rate limited");
        assert_eq!(ShedReason::InFlightCap.to_string(), "in-flight cap reached");
        assert_eq!(
            ShedReason::Evicted.to_string(),
            "evicted by shard lifecycle"
        );
        assert_eq!(ShedReason::Evicted.label(), "evicted");
    }

    #[test]
    fn retry_and_hedge_policies_build_and_default_off() {
        let p = TenantProfile::new("t");
        assert!(p.retry.is_none() && p.hedge.is_none());
        let p = p
            .with_retry(
                RetryPolicy::new()
                    .with_max_attempts(4)
                    .with_backoff(Cycles::from_secs(0.0005))
                    .with_jitter(0.25)
                    .with_budget(50.0, 8.0),
            )
            .with_hedge(
                HedgePolicy::new()
                    .with_quantile(0.95, 1.5)
                    .with_min_delay(Cycles::from_secs(0.001)),
            );
        let r = p.retry.unwrap();
        assert_eq!(r.max_attempts, 4);
        assert_eq!(r.backoff, Cycles::from_micros(500.0));
        assert_eq!(r.jitter_frac, 0.25);
        assert_eq!((r.budget_rps, r.budget_burst), (50.0, 8.0));
        let h = p.hedge.unwrap();
        assert_eq!((h.quantile, h.multiplier), (0.95, 1.5));
        assert_eq!(h.min_delay, Cycles::from_micros(1000.0));
        let ts = TenantState::new(TenantProfile::new("r").with_retry(RetryPolicy::new()));
        assert!(ts.retry_bucket.is_some(), "retry policy builds its bucket");
    }

    #[test]
    #[should_panic(expected = "a zero hedge delay duplicates every request")]
    fn a_zero_hedge_delay_is_refused() {
        let _ = HedgePolicy::new().with_min_delay(Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "a zero block budget kills every block")]
    fn a_zero_block_budget_is_refused() {
        let _ = TenantProfile::new("t").with_max_block(Cycles::ZERO);
    }
}
