//! Picosecond-resolution global time and per-domain clock arithmetic.
//!
//! The SegBus platform is a *globally asynchronous, locally synchronous*
//! (GALS) design: every segment and the central arbiter run in their own
//! clock domain (the paper's example uses 91, 98, 89 and 111 MHz). The
//! emulator counts *clock ticks* per domain but compares and reports times
//! globally; we therefore keep one global timeline in integer picoseconds
//! and convert ticks ⇄ picoseconds per domain.
//!
//! The paper reports e.g. `CA TCT = 54367` and
//! `Execution time = 489792303ps @ 111.00MHz`; with the rounded period
//! `1 ps · round(10^6 / 111) = 9009 ps` we get `54367 × 9009 = 489 792 303`,
//! i.e. the paper itself works with integer-picosecond periods. We follow
//! the same convention (see [`ClockDomain::from_mhz`]).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on (or a span of) the global timeline, in integer picoseconds.
///
/// `u64` picoseconds cover ~213 days, far beyond any emulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// Time zero — the start of the emulation.
    pub const ZERO: Picos = Picos(0);

    /// Saturating subtraction, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Value in microseconds as a float (for reports; the paper prints µs).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, other: Picos) -> Picos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Picos {
    type Output = Picos;
    #[inline]
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    #[inline]
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    #[inline]
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

/// A clock domain: a frequency expressed as an integer period in picoseconds.
///
/// Components belonging to a domain act only on that domain's clock edges;
/// converting a global instant into the domain therefore *rounds up* to the
/// next edge (see [`ClockDomain::next_edge`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClockDomain {
    period_ps: u64,
}

impl ClockDomain {
    /// Create a domain from an integer period in picoseconds.
    ///
    /// # Panics
    /// Panics if `period_ps` is zero.
    pub fn from_period_ps(period_ps: u64) -> ClockDomain {
        assert!(period_ps > 0, "clock period must be non-zero");
        ClockDomain { period_ps }
    }

    /// Fallible variant of [`ClockDomain::from_period_ps`] for untrusted
    /// inputs: returns `None` instead of panicking on a zero period.
    pub fn try_from_period_ps(period_ps: u64) -> Option<ClockDomain> {
        (period_ps > 0).then_some(ClockDomain { period_ps })
    }

    /// Fallible variant of [`ClockDomain::from_mhz`]: returns `None` if
    /// `mhz` is not a positive finite number.
    pub fn try_from_mhz(mhz: f64) -> Option<ClockDomain> {
        if !(mhz.is_finite() && mhz > 0.0) {
            return None;
        }
        let period = (1_000_000.0 / mhz).round() as u64;
        ClockDomain::try_from_period_ps(period.max(1))
    }

    /// Create a domain from a frequency in MHz, rounding the period to the
    /// nearest picosecond (the paper's convention: 111 MHz ⇒ 9009 ps).
    ///
    /// # Panics
    /// Panics if `mhz` is not a positive finite number.
    pub fn from_mhz(mhz: f64) -> ClockDomain {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        let period = (1_000_000.0 / mhz).round() as u64;
        ClockDomain::from_period_ps(period.max(1))
    }

    /// The period in picoseconds.
    #[inline]
    pub fn period_ps(&self) -> u64 {
        self.period_ps
    }

    /// The frequency in MHz implied by the integer period.
    #[inline]
    pub fn mhz(&self) -> f64 {
        1_000_000.0 / self.period_ps as f64
    }

    /// Duration of `ticks` clock ticks.
    #[inline]
    pub fn ticks_to_picos(&self, ticks: u64) -> Picos {
        Picos(ticks * self.period_ps)
    }

    /// Number of *complete* ticks elapsed at global instant `t`
    /// (`floor(t / period)`).
    #[inline]
    pub fn ticks_at(&self, t: Picos) -> u64 {
        t.0 / self.period_ps
    }

    /// Number of ticks needed to cover `t`, rounding up
    /// (`ceil(t / period)`). This is the tick count a component in this
    /// domain "consumes" while an activity of length `t` is ongoing.
    #[inline]
    pub fn ticks_covering(&self, t: Picos) -> u64 {
        t.0.div_ceil(self.period_ps)
    }

    /// The earliest clock edge at or after the global instant `t`.
    ///
    /// A component in this domain that becomes ready at `t` can only act at
    /// `next_edge(t)`.
    #[inline]
    pub fn next_edge(&self, t: Picos) -> Picos {
        Picos(t.0.div_ceil(self.period_ps) * self.period_ps)
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}MHz", self.mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_periods_round_as_printed() {
        // The four frequencies used in the paper's 3-segment experiment.
        assert_eq!(ClockDomain::from_mhz(91.0).period_ps(), 10989);
        assert_eq!(ClockDomain::from_mhz(98.0).period_ps(), 10204);
        assert_eq!(ClockDomain::from_mhz(89.0).period_ps(), 11236);
        assert_eq!(ClockDomain::from_mhz(111.0).period_ps(), 9009);
    }

    #[test]
    fn paper_execution_time_identity() {
        // CA TCT = 54367 @ 111 MHz ⇒ 489 792 303 ps, as printed in §4.
        let ca = ClockDomain::from_mhz(111.0);
        assert_eq!(ca.ticks_to_picos(54367), Picos(489_792_303));
        // SA1 TCT = 34764 @ 91 MHz ⇒ 382 021 596 ps.
        let s1 = ClockDomain::from_mhz(91.0);
        assert_eq!(s1.ticks_to_picos(34764), Picos(382_021_596));
        // SA2 TCT = 46031 @ 98 MHz ⇒ 469 700 324 ps.
        let s2 = ClockDomain::from_mhz(98.0);
        assert_eq!(s2.ticks_to_picos(46031), Picos(469_700_324));
        // SA3 TCT = 35884 @ 89 MHz ⇒ 403 192 624 ps. The paper prints
        // 403156740 (it used 89.01 MHz there); we assert our own identity.
        let s3 = ClockDomain::from_mhz(89.0);
        assert_eq!(s3.ticks_to_picos(35884), Picos(35884 * 11236));
    }

    #[test]
    fn edges_round_up() {
        let d = ClockDomain::from_period_ps(10);
        assert_eq!(d.next_edge(Picos(0)), Picos(0));
        assert_eq!(d.next_edge(Picos(1)), Picos(10));
        assert_eq!(d.next_edge(Picos(10)), Picos(10));
    }

    #[test]
    fn tick_conversions() {
        let d = ClockDomain::from_period_ps(100);
        assert_eq!(d.ticks_to_picos(7), Picos(700));
        assert_eq!(d.ticks_at(Picos(799)), 7);
        assert_eq!(d.ticks_covering(Picos(701)), 8);
        assert_eq!(d.ticks_covering(Picos(700)), 7);
    }

    #[test]
    fn picos_arithmetic() {
        assert_eq!(Picos(5) + Picos(6), Picos(11));
        assert_eq!(Picos(6) - Picos(5), Picos(1));
        assert_eq!(Picos(5).saturating_sub(Picos(9)), Picos::ZERO);
        assert_eq!(Picos(5).max(Picos(9)), Picos(9));
        assert_eq!(Picos(1_000_000).as_micros_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "clock period")]
    fn zero_period_rejected() {
        let _ = ClockDomain::from_period_ps(0);
    }
}
