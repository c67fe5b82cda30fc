//! Discrete allocation weights and weighted round-robin scheduling.
//!
//! The paper discretizes allocation weights in units of `r = 0.1%`, so a full
//! allocation is `R = 1/r = 1000` units. [`WeightVector`] maintains the
//! invariant that weights always sum to exactly the resolution, and
//! [`WrrScheduler`] realizes a weight vector as a smooth weighted round-robin
//! tuple-routing sequence at the splitter.

use std::fmt;

/// Default number of discrete resource units (`R = 1000`, i.e. 0.1% each).
pub const DEFAULT_RESOLUTION: u32 = 1000;

/// Error returned when constructing an invalid [`WeightVector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightError {
    /// The vector was empty.
    Empty,
    /// The weights did not sum to the required resolution.
    BadSum {
        /// Sum of the provided units.
        got: u64,
        /// The required sum (the resolution `R`).
        expected: u32,
    },
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::Empty => write!(f, "weight vector must not be empty"),
            WeightError::BadSum { got, expected } => {
                write!(f, "weights sum to {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// A vector of per-connection allocation weights in discrete units.
///
/// Invariant: the units always sum to exactly [`resolution`](Self::resolution)
/// (`R`, default 1000), i.e. the splitter always allocates 100% of its
/// traffic. Constructors enforce this.
///
/// # Examples
///
/// ```
/// use streambal_core::weights::WeightVector;
///
/// let w = WeightVector::even(3, 1000);
/// assert_eq!(w.units(), &[334, 333, 333]);
/// assert_eq!(w.units().iter().sum::<u32>(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WeightVector {
    units: Vec<u32>,
    resolution: u32,
}

impl WeightVector {
    /// Creates an (as-)even split of `resolution` units across `n`
    /// connections. Leftover units go to the lowest-indexed connections.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `resolution == 0`.
    pub fn even(n: usize, resolution: u32) -> Self {
        assert!(n > 0, "need at least one connection");
        assert!(resolution > 0, "resolution must be positive");
        let base = resolution / n as u32;
        let extra = (resolution % n as u32) as usize;
        let units = (0..n).map(|j| base + u32::from(j < extra)).collect();
        WeightVector { units, resolution }
    }

    /// Creates a weight vector from explicit units.
    ///
    /// # Errors
    ///
    /// Returns [`WeightError::Empty`] for an empty vector and
    /// [`WeightError::BadSum`] when the units do not sum to `resolution`.
    pub fn from_units(units: Vec<u32>, resolution: u32) -> Result<Self, WeightError> {
        if units.is_empty() {
            return Err(WeightError::Empty);
        }
        let got: u64 = units.iter().map(|&u| u64::from(u)).sum();
        if got != u64::from(resolution) {
            return Err(WeightError::BadSum {
                got,
                expected: resolution,
            });
        }
        Ok(WeightVector { units, resolution })
    }

    /// Quantizes non-negative fractions to units via largest-remainder
    /// rounding, producing a vector that sums exactly to `resolution`.
    ///
    /// Fractions need not sum to one; they are normalized first. All-zero
    /// fractions produce an even split.
    ///
    /// # Panics
    ///
    /// Panics if `fractions` is empty, `resolution == 0`, or any fraction is
    /// negative or non-finite.
    pub fn from_fractions(fractions: &[f64], resolution: u32) -> Self {
        assert!(!fractions.is_empty(), "need at least one connection");
        assert!(resolution > 0, "resolution must be positive");
        for &f in fractions {
            assert!(
                f.is_finite() && f >= 0.0,
                "fractions must be finite and >= 0"
            );
        }
        let total: f64 = fractions.iter().sum();
        if total <= 0.0 {
            return WeightVector::even(fractions.len(), resolution);
        }
        let exact: Vec<f64> = fractions
            .iter()
            .map(|&f| f / total * f64::from(resolution))
            .collect();
        let mut units: Vec<u32> = exact.iter().map(|&e| e.floor() as u32).collect();
        let assigned: u32 = units.iter().sum();
        let mut order: Vec<usize> = (0..fractions.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let mut leftover = resolution - assigned;
        for &j in order.iter().cycle() {
            if leftover == 0 {
                break;
            }
            units[j] += 1;
            leftover -= 1;
        }
        WeightVector { units, resolution }
    }

    /// Overwrites the units in place from a slice, preserving the sum
    /// invariant without reallocating (the existing capacity is reused when
    /// the connection count is unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`WeightError::Empty`] for an empty slice and
    /// [`WeightError::BadSum`] when the units do not sum to the vector's
    /// resolution; the vector is left unchanged on error.
    pub fn copy_from_units(&mut self, units: &[u32]) -> Result<(), WeightError> {
        if units.is_empty() {
            return Err(WeightError::Empty);
        }
        let got: u64 = units.iter().map(|&u| u64::from(u)).sum();
        if got != u64::from(self.resolution) {
            return Err(WeightError::BadSum {
                got,
                expected: self.resolution,
            });
        }
        self.units.clear();
        self.units.extend_from_slice(units);
        Ok(())
    }

    /// The per-connection units. Sums to [`resolution`](Self::resolution).
    pub fn units(&self) -> &[u32] {
        &self.units
    }

    /// The total number of units (`R`).
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Always `false`: weight vectors cannot be empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The allocation fraction of connection `j` (in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn fraction(&self, j: usize) -> f64 {
        f64::from(self.units[j]) / f64::from(self.resolution)
    }

    /// Iterates over `(connection, units)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.units.iter().copied().enumerate()
    }
}

impl fmt::Display for WeightVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (j, u) in self.iter() {
            if j > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{:.1}%",
                f64::from(u) * 100.0 / f64::from(self.resolution)
            )?;
        }
        write!(f, "]")
    }
}

/// Smooth weighted round-robin scheduler over a [`WeightVector`].
///
/// Implements the interleaved smooth WRR scheme: every pick, each
/// connection's credit grows by its weight; the connection with the highest
/// credit is chosen and pays back the total weight. Over any window of `R`
/// picks, connection `j` is chosen exactly `w_j` times, and picks are spread
/// as evenly as possible — matching how the paper's splitter realizes
/// fractional allocation weights tuple-by-tuple.
///
/// # Examples
///
/// ```
/// use streambal_core::weights::{WeightVector, WrrScheduler};
///
/// let w = WeightVector::from_units(vec![2, 1, 1], 4).unwrap();
/// let mut wrr = WrrScheduler::new(&w);
/// let picks: Vec<usize> = (0..4).map(|_| wrr.pick()).collect();
/// assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WrrScheduler {
    weights: Vec<i64>,
    credit: Vec<i64>,
    total: i64,
}

impl WrrScheduler {
    /// Creates a scheduler for the given weights.
    pub fn new(weights: &WeightVector) -> Self {
        let w: Vec<i64> = weights.units().iter().map(|&u| i64::from(u)).collect();
        let total = w.iter().sum();
        WrrScheduler {
            credit: vec![0; w.len()],
            weights: w,
            total,
        }
    }

    /// Installs new weights from raw units. At an unchanged width every
    /// connection's accumulated credit is reset. When the width changes,
    /// the surviving connections keep theirs — and with it their
    /// interleaving phase — and new connections start at 0, the neutral
    /// position a reset would give them; a shrink truncates the tail, so
    /// use it only after the removed connections' weights have been
    /// drained to zero.
    ///
    /// The units need not sum to a resolution: the WRR scheme itself only
    /// needs relative weights. Production callers pass a [`WeightVector`]'s
    /// [`units`](WeightVector::units); harnesses may drive the scheduler
    /// with deliberately non-simplex allocations (e.g. the chaos harness's
    /// sabotage modes, which mutation-test the invariant oracles).
    ///
    /// # Panics
    ///
    /// Panics if every unit is zero (the scheduler would have nothing to
    /// pick).
    pub fn set_units(&mut self, units: &[u32]) {
        assert!(
            units.iter().any(|&u| u > 0),
            "at least one unit must be positive"
        );
        if units.len() == self.weights.len() {
            self.credit.fill(0);
        } else {
            self.credit.resize(units.len(), 0);
        }
        self.weights.clear();
        self.weights.extend(units.iter().map(|&u| i64::from(u)));
        self.total = self.weights.iter().sum();
    }

    /// Picks the next connection to route a tuple to.
    ///
    /// Connections with zero weight are never picked.
    pub fn pick(&mut self) -> usize {
        let mut best = 0;
        let mut best_credit = i64::MIN;
        for (j, (c, &w)) in self.credit.iter_mut().zip(&self.weights).enumerate() {
            *c += w;
            if *c > best_credit && w > 0 {
                best_credit = *c;
                best = j;
            }
        }
        self.credit[best] -= self.total;
        best
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always `false`: schedulers are built from non-empty weight vectors.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_sums_to_resolution() {
        for n in 1..=17 {
            let w = WeightVector::even(n, 1000);
            assert_eq!(w.units().iter().sum::<u32>(), 1000, "n={n}");
            assert_eq!(w.len(), n);
            let max = *w.units().iter().max().unwrap();
            let min = *w.units().iter().min().unwrap();
            assert!(max - min <= 1, "even split is within one unit");
        }
    }

    #[test]
    fn from_units_validates_sum() {
        assert!(WeightVector::from_units(vec![500, 500], 1000).is_ok());
        let err = WeightVector::from_units(vec![500, 400], 1000).unwrap_err();
        assert_eq!(
            err,
            WeightError::BadSum {
                got: 900,
                expected: 1000
            }
        );
        assert_eq!(
            WeightVector::from_units(vec![], 1000).unwrap_err(),
            WeightError::Empty
        );
    }

    #[test]
    fn copy_from_units_reuses_in_place() {
        let mut w = WeightVector::even(2, 1000);
        w.copy_from_units(&[650, 350]).unwrap();
        assert_eq!(w.units(), &[650, 350]);
        // Errors leave the vector untouched.
        assert_eq!(
            w.copy_from_units(&[1, 2]).unwrap_err(),
            WeightError::BadSum {
                got: 3,
                expected: 1000
            }
        );
        assert_eq!(w.copy_from_units(&[]).unwrap_err(), WeightError::Empty);
        assert_eq!(w.units(), &[650, 350]);
    }

    #[test]
    fn from_fractions_quantizes_exactly() {
        let w = WeightVector::from_fractions(&[1.0, 1.0, 1.0], 1000);
        assert_eq!(w.units().iter().sum::<u32>(), 1000);
        let w = WeightVector::from_fractions(&[0.65, 0.35], 1000);
        assert_eq!(w.units(), &[650, 350]);
        // Not normalized on input.
        let w = WeightVector::from_fractions(&[13.0, 7.0], 1000);
        assert_eq!(w.units(), &[650, 350]);
    }

    #[test]
    fn from_fractions_all_zero_is_even() {
        let w = WeightVector::from_fractions(&[0.0, 0.0, 0.0, 0.0], 1000);
        assert_eq!(w.units(), &[250, 250, 250, 250]);
    }

    #[test]
    fn fraction_accessor() {
        let w = WeightVector::from_units(vec![650, 350], 1000).unwrap();
        assert!((w.fraction(0) - 0.65).abs() < 1e-12);
        assert!((w.fraction(1) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let w = WeightVector::even(2, 1000);
        assert_eq!(format!("{w}"), "[50.0%, 50.0%]");
    }

    #[test]
    fn wrr_respects_exact_frequencies() {
        let w = WeightVector::from_units(vec![500, 300, 200], 1000).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        let mut counts = [0u32; 3];
        for _ in 0..1000 {
            counts[wrr.pick()] += 1;
        }
        assert_eq!(counts, [500, 300, 200]);
    }

    #[test]
    fn wrr_never_picks_zero_weight() {
        let w = WeightVector::from_units(vec![0, 700, 300], 1000).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        for _ in 0..5000 {
            assert_ne!(wrr.pick(), 0);
        }
    }

    #[test]
    fn wrr_is_smooth() {
        // With a 50/25/25 split, connection 0 should never be picked three
        // times in a row.
        let w = WeightVector::from_units(vec![2, 1, 1], 4).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        let picks: Vec<usize> = (0..400).map(|_| wrr.pick()).collect();
        for window in picks.windows(3) {
            assert_ne!(window, &[0, 0, 0], "smooth WRR must interleave");
        }
    }

    #[test]
    fn wrr_set_units_accepts_non_simplex_weights() {
        let w = WeightVector::even(3, 1000);
        let mut wrr = WrrScheduler::new(&w);
        // Sums to 700, not 1000 — legal at this layer.
        wrr.set_units(&[0, 500, 200]);
        let mut counts = [0u32; 3];
        for _ in 0..700 {
            counts[wrr.pick()] += 1;
        }
        assert_eq!(counts, [0, 500, 200]);
    }

    #[test]
    fn wrr_set_units_rejects_all_zero() {
        // At the same width and at a new one alike.
        for units in [&[0, 0][..], &[0, 0, 0]] {
            let result = std::panic::catch_unwind(|| {
                let mut wrr = WrrScheduler::new(&WeightVector::even(2, 1000));
                wrr.set_units(units);
            });
            let message = result.expect_err("all-zero units must panic");
            assert_eq!(
                message.downcast_ref::<&str>(),
                Some(&"at least one unit must be positive"),
                "{units:?}"
            );
        }
    }

    #[test]
    fn wrr_resize_grows_and_shrinks() {
        let w = WeightVector::from_units(vec![600, 400], 1000).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        for _ in 0..7 {
            wrr.pick();
        }
        let grown = WeightVector::from_units(vec![500, 300, 200], 1000).unwrap();
        wrr.set_units(grown.units());
        assert_eq!(wrr.len(), 3);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            counts[wrr.pick()] += 1;
        }
        assert_eq!(counts, [1500, 900, 600], "exact frequencies after grow");

        let shrunk = WeightVector::from_units(vec![700, 300], 1000).unwrap();
        wrr.set_units(shrunk.units());
        assert_eq!(wrr.len(), 2);
        let mut counts = [0u32; 2];
        for _ in 0..1000 {
            counts[wrr.pick()] += 1;
        }
        assert_eq!(counts, [700, 300], "exact frequencies after shrink");
    }

    #[test]
    fn wrr_resize_preserves_surviving_credit() {
        // Same weights, one scheduler resized mid-stream with an identical
        // tail weight appended at zero: the surviving connections keep their
        // relative phase, so the next pick is not biased toward slot 0 the
        // way a full reset would be.
        let w = WeightVector::from_units(vec![500, 500], 1000).unwrap();
        let mut a = WrrScheduler::new(&w);
        let mut b = WrrScheduler::new(&w);
        let mut prefix = Vec::new();
        for _ in 0..5 {
            prefix.push(a.pick());
            b.pick();
        }
        // Grow `a` with a zero-weight extra slot: picks must continue the
        // same sequence as the untouched scheduler.
        a.set_units(&[500, 500, 0]);
        for _ in 0..10 {
            assert_eq!(a.pick(), b.pick(), "resize must not disturb survivors");
        }
    }

    #[test]
    fn wrr_set_units_takes_effect() {
        let w = WeightVector::even(2, 1000);
        let mut wrr = WrrScheduler::new(&w);
        wrr.pick();
        let w2 = WeightVector::from_units(vec![1000, 0], 1000).unwrap();
        wrr.set_units(w2.units());
        for _ in 0..100 {
            assert_eq!(wrr.pick(), 0);
        }
        // At the same width the credit is reset: the picks restart as a
        // fresh scheduler's do.
        let w3 = WeightVector::from_units(vec![300, 700], 1000).unwrap();
        wrr.set_units(w3.units());
        let mut fresh = WrrScheduler::new(&w3);
        for _ in 0..20 {
            assert_eq!(wrr.pick(), fresh.pick());
        }
    }
}
