//! Service-level objectives over sliding virtual-clock windows.
//!
//! Operators declare objectives — "p99 end-to-end latency ≤ N cycles"
//! (as a latency-bound SLO with a 0.99 good-fraction target) or
//! "availability ≥ 99.9%" — and the [`SloEngine`] classifies every
//! dispatcher completion or shed as *good* or *bad*, accumulating the
//! counts into a ring of fixed-width vclock buckets.
//!
//! Alerting follows the SRE-workbook multiwindow multi-burn-rate
//! policy: the *burn rate* is the fraction of events that were bad
//! divided by the error budget (`1 − objective`), so a burn rate of 1.0
//! spends exactly the budget over the window. A **page**-severity alert
//! fires when both the fast window (5-minute-equivalent by default) and
//! the slow window (1-hour-equivalent) burn at ≥ [`BurnPolicy::page_burn`];
//! a **ticket** fires at the lower [`BurnPolicy::ticket_burn`] threshold.
//! The fast window makes alerts fire quickly when an incident starts
//! and clear quickly when it ends; the slow window keeps a brief blip
//! from paging. All timestamps are virtual cycles, so alert-fire
//! latency is deterministic and CI-gateable.

use std::fmt;

use vclock::Cycles;

/// What an SLO measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Good iff the completion's end-to-end latency is ≤ `threshold`.
    /// Sheds and kills carry no latency sample and are not counted.
    Latency {
        /// Inclusive latency bound for a "good" event.
        threshold: Cycles,
    },
    /// Good iff the request was served (admitted and completed);
    /// bad on shed. This is `served / (served + shed)`.
    Availability,
}

/// One declared objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Display name, used as the `slo` label on exported gauges.
    pub name: String,
    /// Target good fraction in `(0, 1)`, e.g. `0.99` for "p99 ≤
    /// threshold" or `0.999` for three nines of availability.
    pub objective: f64,
    /// Goodness criterion.
    pub kind: SloKind,
}

impl SloSpec {
    /// A latency-bound SLO: `objective` of events must finish within
    /// `threshold` (e.g. `0.99` + threshold = "p99 e2e ≤ threshold").
    pub fn latency(name: &str, objective: f64, threshold: Cycles) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective,
            kind: SloKind::Latency { threshold },
        }
    }

    /// An availability SLO: `objective` of submitted requests must be
    /// served rather than shed.
    pub fn availability(name: &str, objective: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective,
            kind: SloKind::Availability,
        }
    }
}

/// Window sizes and burn-rate thresholds for alert evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnPolicy {
    /// Fast window (default: 5 virtual minutes). Controls how quickly
    /// alerts fire and clear.
    pub fast_window: Cycles,
    /// Slow window (default: 1 virtual hour). Keeps short blips from
    /// paging; also the span of the error-budget gauge.
    pub slow_window: Cycles,
    /// Burn rate at which a page fires (default 14.4: the workbook's
    /// "2% of a 30-day budget in one hour" rate).
    pub page_burn: f64,
    /// Burn rate at which a ticket fires (default 3.0).
    pub ticket_burn: f64,
}

impl Default for BurnPolicy {
    fn default() -> BurnPolicy {
        BurnPolicy {
            fast_window: Cycles::from_secs(5.0 * 60.0),
            slow_window: Cycles::from_secs(60.0 * 60.0),
            page_burn: 14.4,
            ticket_burn: 3.0,
        }
    }
}

/// Alert severity, ordered: a page outranks a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Sustained high burn in both windows — budget exhaustion is hours
    /// away; a human should look now.
    Ticket,
    /// See [`Severity::Page`] vs ticket ordering: `Page > Ticket`.
    Page,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Page => write!(f, "page"),
            Severity::Ticket => write!(f, "ticket"),
        }
    }
}

/// One alert transition (fire or clear), stamped in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// When the transition happened.
    pub at: Cycles,
    /// Name of the SLO that transitioned.
    pub slo: String,
    /// Severity entering (on fire) or leaving (on clear).
    pub severity: Severity,
    /// `true` when the alert fired, `false` when it cleared.
    pub fired: bool,
}

/// Point-in-time evaluation of one SLO, for gauges and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// SLO name.
    pub name: String,
    /// Declared good-fraction target.
    pub objective: f64,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Fraction of the slow-window error budget still unspent
    /// (`1 − burn_slow`; negative when overspent).
    pub budget_remaining: f64,
    /// Currently active alert severity, if any.
    pub severity: Option<Severity>,
    /// Good events in the slow window.
    pub good: u64,
    /// Bad events in the slow window.
    pub bad: u64,
}

/// Per-SLO sliding-window counters.
#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    /// Ring of `(good, bad)` counts, one slot per bucket of width
    /// `SloEngine::width`, spanning the slow window.
    ring: Vec<(u64, u64)>,
    slow_good: u64,
    slow_bad: u64,
    active: Option<Severity>,
}

/// Evaluates declared SLOs over sliding vclock windows and maintains
/// the burn-rate alert state machine.
///
/// Feed it one call per terminal dispatcher event —
/// [`SloEngine::observe_served`] on completion,
/// [`SloEngine::observe_shed`] on shed — and it classifies the event
/// for every SLO, updates the windows, and logs alert transitions.
#[derive(Debug)]
pub struct SloEngine {
    policy: BurnPolicy,
    /// Bucket width in cycles: `fast_window / FAST_BUCKETS`.
    width: u64,
    /// Ring length (buckets spanning the slow window).
    n: usize,
    /// Absolute bucket number of the newest ring slot.
    cur: u64,
    states: Vec<SloState>,
    log: Vec<AlertEvent>,
}

/// Resolution of the fast window, in buckets.
const FAST_BUCKETS: usize = 15;

impl SloEngine {
    /// Creates an engine for `specs` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if a spec's objective is outside `(0, 1)` or the policy
    /// windows are not `0 < fast_window ≤ slow_window`.
    pub fn new(specs: Vec<SloSpec>, policy: BurnPolicy) -> SloEngine {
        assert!(
            policy.fast_window.get() > 0 && policy.fast_window <= policy.slow_window,
            "windows must satisfy 0 < fast ≤ slow"
        );
        for s in &specs {
            assert!(
                s.objective > 0.0 && s.objective < 1.0,
                "objective must be in (0, 1): {}",
                s.name
            );
        }
        let width = (policy.fast_window.get() / FAST_BUCKETS as u64).max(1);
        let n = (policy.slow_window.get().div_ceil(width) as usize).max(FAST_BUCKETS);
        SloEngine {
            policy,
            width,
            n,
            cur: 0,
            states: specs
                .into_iter()
                .map(|spec| SloState {
                    spec,
                    ring: vec![(0, 0); n],
                    slow_good: 0,
                    slow_bad: 0,
                    active: None,
                })
                .collect(),
            log: Vec::new(),
        }
    }

    /// The policy this engine evaluates under.
    pub fn policy(&self) -> &BurnPolicy {
        &self.policy
    }

    /// Slides the windows forward to `now`, expiring aged-out buckets.
    fn advance(&mut self, now: Cycles) {
        let b = now.get() / self.width;
        if b <= self.cur {
            return; // Late-arriving event: charge the current bucket.
        }
        let steps = (b - self.cur).min(self.n as u64);
        for k in 1..=steps {
            let idx = ((self.cur + k) % self.n as u64) as usize;
            for st in &mut self.states {
                let (g, bd) = st.ring[idx];
                st.slow_good -= g;
                st.slow_bad -= bd;
                st.ring[idx] = (0, 0);
            }
        }
        self.cur = b;
    }

    /// Records a served completion with its end-to-end latency.
    pub fn observe_served(&mut self, now: Cycles, e2e: Cycles) {
        self.advance(now);
        let idx = (self.cur % self.n as u64) as usize;
        for st in &mut self.states {
            let good = match st.spec.kind {
                SloKind::Latency { threshold } => e2e <= threshold,
                SloKind::Availability => true,
            };
            if good {
                st.ring[idx].0 += 1;
                st.slow_good += 1;
            } else {
                st.ring[idx].1 += 1;
                st.slow_bad += 1;
            }
        }
        self.evaluate(now);
    }

    /// Records a shed: bad for availability SLOs, no latency sample.
    pub fn observe_shed(&mut self, now: Cycles) {
        self.advance(now);
        let idx = (self.cur % self.n as u64) as usize;
        for st in &mut self.states {
            if st.spec.kind == SloKind::Availability {
                st.ring[idx].1 += 1;
                st.slow_bad += 1;
            }
        }
        self.evaluate(now);
    }

    /// Advances the windows without recording an event, re-evaluating
    /// alerts (so they can clear during quiet periods).
    pub fn tick(&mut self, now: Cycles) {
        self.advance(now);
        self.evaluate(now);
    }

    fn burns(&self, st: &SloState) -> (f64, f64) {
        let budget = 1.0 - st.spec.objective;
        let mut fg = 0u64;
        let mut fb = 0u64;
        for k in 0..FAST_BUCKETS as u64 {
            if k > self.cur {
                break;
            }
            let (g, b) = st.ring[((self.cur - k) % self.n as u64) as usize];
            fg += g;
            fb += b;
        }
        let frac = |good: u64, bad: u64| {
            if good + bad == 0 {
                0.0
            } else {
                bad as f64 / (good + bad) as f64
            }
        };
        (
            frac(fg, fb) / budget,
            frac(st.slow_good, st.slow_bad) / budget,
        )
    }

    fn evaluate(&mut self, now: Cycles) {
        for i in 0..self.states.len() {
            let (bf, bs) = self.burns(&self.states[i]);
            let p = &self.policy;
            let next = if bf >= p.page_burn && bs >= p.page_burn {
                Some(Severity::Page)
            } else if bf >= p.ticket_burn && bs >= p.ticket_burn {
                Some(Severity::Ticket)
            } else {
                None
            };
            let st = &mut self.states[i];
            if next != st.active {
                if let Some(old) = st.active {
                    self.log.push(AlertEvent {
                        at: now,
                        slo: st.spec.name.clone(),
                        severity: old,
                        fired: false,
                    });
                }
                if let Some(new) = next {
                    self.log.push(AlertEvent {
                        at: now,
                        slo: st.spec.name.clone(),
                        severity: new,
                        fired: true,
                    });
                }
                st.active = next;
            }
        }
    }

    /// Every alert fire/clear transition so far, in virtual-time order.
    pub fn alert_log(&self) -> &[AlertEvent] {
        &self.log
    }

    /// Point-in-time evaluation of every SLO (does not advance time).
    pub fn report(&self) -> Vec<SloReport> {
        self.states
            .iter()
            .map(|st| {
                let (bf, bs) = self.burns(st);
                SloReport {
                    name: st.spec.name.clone(),
                    objective: st.spec.objective,
                    burn_fast: bf,
                    burn_slow: bs,
                    budget_remaining: 1.0 - bs,
                    severity: st.active,
                    good: st.slow_good,
                    bad: st.slow_bad,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_policy() -> BurnPolicy {
        BurnPolicy {
            fast_window: Cycles(1_500), // 100-cycle buckets
            slow_window: Cycles(6_000),
            page_burn: 5.0,
            ticket_burn: 2.0,
        }
    }

    #[test]
    fn burn_rate_matches_bad_fraction_over_budget() {
        // Availability objective 0.9 → budget 0.1; half the events bad
        // → burn rate 5.0 in both windows.
        let mut e = SloEngine::new(vec![SloSpec::availability("avail", 0.9)], tight_policy());
        for i in 0..10u64 {
            if i % 2 == 0 {
                e.observe_served(Cycles(i * 10), Cycles(1));
            } else {
                e.observe_shed(Cycles(i * 10));
            }
        }
        let r = &e.report()[0];
        assert!((r.burn_fast - 5.0).abs() < 1e-9);
        assert!((r.burn_slow - 5.0).abs() < 1e-9);
        assert!((r.budget_remaining - -4.0).abs() < 1e-9);
        assert_eq!((r.good, r.bad), (5, 5));
    }

    #[test]
    fn latency_slo_classifies_by_threshold_and_ignores_sheds() {
        let mut e = SloEngine::new(
            vec![SloSpec::latency("p99", 0.5, Cycles(100))],
            tight_policy(),
        );
        e.observe_served(Cycles(0), Cycles(50)); // good
        e.observe_served(Cycles(1), Cycles(100)); // good (inclusive)
        e.observe_served(Cycles(2), Cycles(101)); // bad
        e.observe_shed(Cycles(3)); // not a latency sample
        let r = &e.report()[0];
        assert_eq!((r.good, r.bad), (2, 1));
    }

    #[test]
    fn page_fires_on_sustained_burn_and_clears_after_recovery() {
        // Realistic budget (1%): a total outage pushes the slow-window
        // bad fraction past page_burn × budget within a few events.
        let mut e = SloEngine::new(vec![SloSpec::availability("avail", 0.99)], tight_policy());
        // Healthy traffic fills both windows.
        for i in 0..60u64 {
            e.observe_served(Cycles(i * 100), Cycles(1));
        }
        assert!(e.alert_log().is_empty());
        // Total outage: every request shed. The alert escalates
        // (ticket first, then page as the burn keeps climbing).
        for i in 60..90u64 {
            e.observe_shed(Cycles(i * 100));
        }
        let fired_at = e
            .alert_log()
            .iter()
            .find(|ev| ev.fired && ev.severity == Severity::Page)
            .expect("page should fire during outage")
            .at;
        // Fires within one fast window of the outage start.
        assert!(fired_at.get() - 6_000 <= 1_500, "fired at {fired_at}");
        // Recovery: healthy traffic ages the bad buckets out of the
        // fast window and the alert clears.
        for i in 90..200u64 {
            e.observe_served(Cycles(i * 100), Cycles(1));
        }
        let clear = e
            .alert_log()
            .iter()
            .find(|ev| !ev.fired && ev.severity == Severity::Page)
            .expect("page should clear after recovery");
        assert!(clear.at > fired_at);
        assert_eq!(e.report()[0].severity, None);
    }

    #[test]
    fn ticket_fires_below_page_threshold() {
        let mut e = SloEngine::new(vec![SloSpec::availability("avail", 0.9)], tight_policy());
        // 30% bad: burn 3.0 — above ticket (2.0), below page (5.0).
        // Bad events trail each decade so the early partial windows
        // never momentarily exceed the page threshold.
        for i in 0..100u64 {
            if i % 10 >= 7 {
                e.observe_shed(Cycles(i * 10));
            } else {
                e.observe_served(Cycles(i * 10), Cycles(1));
            }
        }
        assert_eq!(e.report()[0].severity, Some(Severity::Ticket));
        assert!(e
            .alert_log()
            .iter()
            .all(|ev| ev.severity == Severity::Ticket));
    }

    #[test]
    fn tick_alone_clears_stale_alerts() {
        let mut e = SloEngine::new(vec![SloSpec::availability("avail", 0.9)], tight_policy());
        for i in 0..60u64 {
            e.observe_shed(Cycles(i * 100));
        }
        assert_eq!(e.report()[0].severity, Some(Severity::Page));
        // A long quiet period empties both windows.
        e.tick(Cycles(100_000));
        assert_eq!(e.report()[0].severity, None);
        assert_eq!(e.report()[0].burn_slow, 0.0);
    }

    #[test]
    fn default_policy_is_five_minutes_and_one_hour() {
        let p = BurnPolicy::default();
        assert!((p.fast_window.as_secs() - 300.0).abs() < 1e-6);
        assert!((p.slow_window.as_secs() - 3600.0).abs() < 1e-6);
        assert!(p.page_burn > p.ticket_burn);
    }

    #[test]
    #[should_panic(expected = "objective must be in (0, 1)")]
    fn rejects_degenerate_objective() {
        SloEngine::new(
            vec![SloSpec::availability("bad", 1.0)],
            BurnPolicy::default(),
        );
    }
}
