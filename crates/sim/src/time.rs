//! Simulation time, frequencies and cycle arithmetic.
//!
//! All simulation time is kept in integer **picoseconds**. Picoseconds
//! are fine enough to represent every clock in the modelled system
//! exactly (250 MHz fabric = 4000 ps, 2.4 GHz Centaur core = 416⅔ ps is
//! the one exception — we round Centaur to 417 ps and document the
//! <0.1 % error), and a `u64` of picoseconds covers ~213 days of
//! simulated time, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulation timestamp or a duration, in picoseconds.
///
/// `SimTime` is used for both points in time and durations, with the
/// same arithmetic: `+`, `*` and `Sum` saturate at [`SimTime::MAX`],
/// the "never" deadline, and `-` panics on underflow in every build
/// profile (use [`SimTime::saturating_sub`] or [`SimTime::checked_sub`]
/// where operands may be reversed). Use [`SimTime::ZERO`] as the origin.
///
/// # Example
///
/// ```
/// use contutto_sim::SimTime;
/// let t = SimTime::from_ns(100) + SimTime::from_ps(500);
/// assert_eq!(t.as_ps(), 100_500);
/// assert_eq!(t.as_ns_f64(), 100.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The time origin (0 ps).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in whole nanoseconds, truncating.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time in nanoseconds as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time in microseconds as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[track_caller]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[track_caller]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A count of clock cycles in some clock domain.
///
/// `Cycles` is a plain newtype; combine it with a [`Frequency`] to get a
/// [`SimTime`]:
///
/// ```
/// use contutto_sim::{Cycles, Frequency};
/// let fabric = Frequency::from_mhz(250);
/// assert_eq!(fabric.cycles_to_time(Cycles(6)).as_ns(), 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the raw cycle count.
    pub const fn count(self) -> u64 {
        self.0
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

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A clock frequency.
///
/// Stored as the exact period in picoseconds, which is what every
/// simulation computation actually needs. Constructors round the period
/// to the nearest picosecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    period_ps: u64,
}

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub const fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be nonzero");
        Frequency {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is zero.
    pub const fn from_ghz(ghz: u64) -> Self {
        assert!(ghz > 0, "frequency must be nonzero");
        Frequency {
            period_ps: 1_000 / ghz,
        }
    }

    /// Creates a frequency from an explicit period in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_ps` is zero.
    pub const fn from_period_ps(period_ps: u64) -> Self {
        assert!(period_ps > 0, "period must be nonzero");
        Frequency { period_ps }
    }

    /// The clock period.
    pub const fn period(self) -> SimTime {
        SimTime::from_ps(self.period_ps)
    }

    /// The frequency in MHz (may round for non-integral values).
    pub const fn as_mhz(self) -> u64 {
        1_000_000 / self.period_ps
    }

    /// Converts a cycle count in this domain to a duration.
    pub const fn cycles_to_time(self, cycles: Cycles) -> SimTime {
        SimTime::from_ps(self.period_ps * cycles.0)
    }

    /// Converts a duration to whole cycles in this domain, rounding up.
    ///
    /// Rounding up models synchronization into a clock domain: an event
    /// arriving mid-cycle is visible at the next edge.
    pub const fn time_to_cycles_ceil(self, t: SimTime) -> Cycles {
        Cycles(t.as_ps().div_ceil(self.period_ps))
    }

    /// Returns the next clock edge at or after `t`.
    pub const fn next_edge(self, t: SimTime) -> SimTime {
        let p = self.period_ps;
        SimTime::from_ps(t.as_ps().div_ceil(p) * p)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mhz = 1_000_000.0 / self.period_ps as f64;
        if mhz >= 1000.0 {
            write!(f, "{:.3}GHz", mhz / 1000.0)
        } else {
            write!(f, "{mhz:.1}MHz")
        }
    }
}

/// Common clock domains of the modelled system, as in the paper.
pub mod clocks {
    use super::Frequency;

    /// ConTutto FPGA fabric clock: 250 MHz (paper §3.3).
    pub const FPGA_FABRIC: Frequency = Frequency::from_mhz(250);
    /// POWER8 nest / memory-bus clock: 2 GHz (paper §3.3: "we run the
    /// memory bus at 2 GHz"; 1 fabric cycle = 8 bus cycles).
    pub const POWER_BUS: Frequency = Frequency::from_ghz(2);
    /// Centaur internal clock, ~2.4 GHz (4:1 mux on a 9.6 Gb/s link).
    pub const CENTAUR_CORE: Frequency = Frequency::from_period_ps(417);
    /// DDR3-1600 I/O clock (800 MHz).
    pub const DDR3_IO: Frequency = Frequency::from_mhz(800);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1000));
    }

    #[test]
    fn time_arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ns(), 14);
        assert_eq!((a - b).as_ns(), 6);
        assert_eq!((a * 3).as_ns(), 30);
        assert_eq!((a / 2).as_ns(), 5);
        assert_eq!(a.saturating_sub(SimTime::from_ns(20)), SimTime::ZERO);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_ns(6)));
    }

    #[test]
    fn add_mul_and_sum_saturate_at_max() {
        let near = SimTime::MAX - SimTime::from_ps(1);
        assert_eq!(near + SimTime::from_ps(5), SimTime::MAX);
        let mut t = near;
        t += SimTime::from_ns(1);
        assert_eq!(t, SimTime::MAX);
        assert_eq!(SimTime::from_secs(3600) * u64::MAX, SimTime::MAX);
        assert_eq!([near, near].into_iter().sum::<SimTime>(), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn sub_assign_underflow_panics() {
        let mut t = SimTime::ZERO;
        t -= SimTime::from_ps(1);
    }

    #[test]
    fn time_min_max_sum() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total.as_ns(), 18);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ps(5).to_string(), "5ps");
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn frequency_period() {
        assert_eq!(Frequency::from_mhz(250).period(), SimTime::from_ps(4000));
        assert_eq!(Frequency::from_ghz(2).period(), SimTime::from_ps(500));
        assert_eq!(Frequency::from_mhz(250).as_mhz(), 250);
    }

    #[test]
    fn cycles_to_time_and_back() {
        let f = Frequency::from_mhz(250);
        assert_eq!(f.cycles_to_time(Cycles(6)), SimTime::from_ns(24));
        assert_eq!(f.time_to_cycles_ceil(SimTime::from_ns(24)), Cycles(6));
        // mid-cycle arrival rounds up
        assert_eq!(f.time_to_cycles_ceil(SimTime::from_ns(23)), Cycles(6));
        assert_eq!(f.time_to_cycles_ceil(SimTime::from_ps(1)), Cycles(1));
    }

    #[test]
    fn next_edge_alignment() {
        let f = Frequency::from_mhz(250); // 4 ns period
        assert_eq!(f.next_edge(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(f.next_edge(SimTime::from_ns(1)), SimTime::from_ns(4));
        assert_eq!(f.next_edge(SimTime::from_ns(4)), SimTime::from_ns(4));
        assert_eq!(f.next_edge(SimTime::from_ns(5)), SimTime::from_ns(8));
    }

    #[test]
    fn paper_clock_relationships() {
        // One fabric cycle equals 8 memory-bus cycles (paper §3.3).
        let fabric = clocks::FPGA_FABRIC.period();
        let bus = clocks::POWER_BUS.period();
        assert_eq!(fabric.as_ps() / bus.as_ps(), 8);
        // One knob step is 6 fabric cycles = 24 ns (paper §4.1).
        assert_eq!(
            clocks::FPGA_FABRIC.cycles_to_time(Cycles(6)),
            SimTime::from_ns(24)
        );
    }

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(9) - Cycles(4), Cycles(5));
        assert_eq!(Cycles(3) * 4, Cycles(12));
        assert_eq!(Cycles(7).count(), 7);
        let mut c = Cycles(1);
        c += Cycles(2);
        assert_eq!(c, Cycles(3));
    }
}
