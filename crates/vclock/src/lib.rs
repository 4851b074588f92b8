//! Virtual time-keeping for the virtines reproduction.
//!
//! Every component of the simulated stack (the guest CPU, the simulated host
//! kernel, the KVM-shaped hypervisor interface, and the Wasp runtime) charges
//! its work to a single shared [`Clock`] measured in CPU cycles. The
//! calibration constants in [`costs`] anchor the simulated machine to the
//! paper's `tinker` testbed (AMD EPYC 7281 "Naples", 16 cores @ 2.69 GHz),
//! so results are reported in the same units the paper uses: cycles, or
//! microseconds at 2.69 GHz.
//!
//! The clock is deliberately *virtual*: experiments are deterministic and
//! reproducible bit-for-bit, independent of the machine running the
//! simulation. A seeded [`noise::NoiseModel`] reintroduces the measurement
//! jitter (host scheduling events, network-stack variance) that the paper's
//! figures display as error bars, without sacrificing reproducibility.

pub mod costs;
pub mod noise;
pub mod rng;
pub mod stats;

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::rc::Rc;

/// Clock frequency of the paper's `tinker` machine in GHz (AMD EPYC 7281).
pub const TINKER_GHZ: f64 = 2.69;

/// A quantity of CPU cycles on the simulated machine.
///
/// `Cycles` is an additive newtype over `u64`. Use [`Cycles::as_micros`] to
/// convert to wall-clock time at the calibrated 2.69 GHz frequency.
///
/// # Examples
///
/// ```
/// use vclock::Cycles;
///
/// let c = Cycles(2_690);
/// assert!((c.as_micros() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the raw cycle count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Converts cycles to microseconds at the `tinker` frequency (2.69 GHz).
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / (TINKER_GHZ * 1_000.0)
    }

    /// Converts cycles to milliseconds at the `tinker` frequency.
    pub fn as_millis(self) -> f64 {
        self.as_micros() / 1_000.0
    }

    /// Converts cycles to seconds at the `tinker` frequency.
    pub fn as_secs(self) -> f64 {
        self.as_micros() / 1_000_000.0
    }

    /// Builds a cycle count from microseconds at the `tinker` frequency.
    pub fn from_micros(us: f64) -> Cycles {
        Cycles((us * TINKER_GHZ * 1_000.0).round() as u64)
    }

    /// Builds a cycle count from seconds at the `tinker` frequency: the
    /// one place a virtual instant or duration given in seconds enters
    /// the cycle domain. Exactly `from_micros(s * 1e6)`.
    ///
    /// # Panics
    ///
    /// Panics on NaN, an infinity, or a negative value — which would
    /// otherwise saturate silently to zero or `u64::MAX` cycles.
    pub fn from_secs(s: f64) -> Cycles {
        assert!(
            s.is_finite() && s >= 0.0,
            "virtual time must be finite and non-negative, got {s} s"
        );
        Cycles::from_micros(s * 1e6)
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// A monotonically increasing virtual cycle counter shared by every layer of
/// the simulated stack.
///
/// The clock is cheap to clone (`Rc` internally) so the guest CPU, the
/// simulated kernel, and the Wasp runtime can all advance the same timeline.
/// The simulation is single-threaded by design; "asynchronous" background
/// work (e.g. Wasp's asynchronous shell cleaning) is modelled by *not*
/// charging its cycles to this clock (see `wasp::pool`).
///
/// # Examples
///
/// ```
/// use vclock::{Clock, Cycles};
///
/// let clock = Clock::new();
/// let t0 = clock.now();
/// clock.advance(Cycles(100));
/// assert_eq!(clock.now() - t0, Cycles(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    cycles: Rc<Cell<u64>>,
}

impl Clock {
    /// Creates a clock starting at cycle zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Returns the current timestamp.
    pub fn now(&self) -> Cycles {
        Cycles(self.cycles.get())
    }

    /// Advances the clock by `delta` cycles.
    pub fn advance(&self, delta: Cycles) {
        self.cycles.set(self.cycles.get() + delta.0);
    }

    /// Advances the clock by a raw cycle count.
    pub fn tick(&self, delta: u64) {
        self.cycles.set(self.cycles.get() + delta);
    }

    /// Measures the cycles consumed by `f` on this clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Cycles) {
        let t0 = self.now();
        let out = f();
        (out, self.now() - t0)
    }
}

/// A labelled span of virtual time, used to attribute costs in experiment
/// breakdowns (e.g. Table 1's per-component boot costs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Human-readable label for the span (e.g. `"protected transition"`).
    pub label: String,
    /// Start timestamp.
    pub start: Cycles,
    /// End timestamp.
    pub end: Cycles,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let c = Clock::new();
        assert_eq!(c.now(), Cycles::ZERO);
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = Clock::new();
        c.advance(Cycles(5));
        c.tick(7);
        assert_eq!(c.now(), Cycles(12));
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(Cycles(10));
        b.advance(Cycles(32));
        assert_eq!(a.now(), Cycles(42));
        assert_eq!(b.now(), Cycles(42));
    }

    #[test]
    fn cycles_micros_round_trip() {
        let c = Cycles(123_456);
        let us = c.as_micros();
        assert_eq!(Cycles::from_micros(us), c);
    }

    #[test]
    fn from_secs_is_exactly_the_micros_conversion() {
        // Every seconds literal the benches and the vperf workloads pass
        // as an instant or a duration, then a seeded sweep of [0, 200) s.
        let literals = [
            0.0, 1e-6, 0.00003, 0.0001, 0.0002, 0.00025, 0.0005, 0.001, 0.002, 0.003, 0.004, 0.005,
            0.008, 0.010, 0.015, 0.030, 0.040, 0.05, 300.0, 3600.0,
        ];
        let mut rng = rng::Rng::seeded(0x5EC5);
        let sweep = (0..10_000).map(|_| rng.range_f64(0.0, 200.0));
        for s in literals.into_iter().chain(sweep) {
            assert_eq!(Cycles::from_secs(s), Cycles::from_micros(s * 1e6), "{s} s");
        }
        assert_eq!(Cycles::from_secs(1.0), Cycles(2_690_000_000));
    }

    #[test]
    fn from_secs_refuses_nan_infinite_and_negative_time() {
        for s in [f64::NAN, -1e-9, f64::INFINITY, f64::NEG_INFINITY] {
            let r = std::panic::catch_unwind(|| Cycles::from_secs(s));
            assert!(r.is_err(), "{s} s must panic");
        }
    }

    #[test]
    fn cycles_unit_conversions_are_consistent() {
        let c = Cycles(2_690_000_000);
        assert!((c.as_secs() - 1.0).abs() < 1e-9);
        assert!((c.as_millis() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn time_measures_closure_cost() {
        let c = Clock::new();
        let (val, d) = c.time(|| {
            c.advance(Cycles(99));
            "done"
        });
        assert_eq!(val, "done");
        assert_eq!(d, Cycles(99));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
    }

    #[test]
    fn span_duration() {
        let s = Span {
            label: "x".into(),
            start: Cycles(10),
            end: Cycles(25),
        };
        assert_eq!(s.duration(), Cycles(15));
    }
}
