//! The minimax separable resource allocation problem (RAP) and its solver.
//!
//! The load-balancing optimization of §5.2: given per-connection
//! non-decreasing blocking-rate functions `F_j` over discrete weights
//! `0..=R`, find weights `w_j` minimizing `max_j F_j(w_j)` subject to
//! `Σ_j m_j · w_j = R` and `m_j ≤ w_j ≤ M_j` (with `m_j` an optional
//! *multiplicity* — the number of identical connections a clustered item
//! stands for; plain problems use multiplicity 1).
//!
//! There is one solver, [`fox::solve`]: the greedy marginal-allocation
//! algorithm attributed to Fox (1966), `O(N + R log N)` with a binary heap
//! (less for the controller's idle slots, which it deals without the heap;
//! see [`fox`]). It is what the paper and the [controller](crate::controller) use. The
//! paper also cites Galil and Megiddo's `O(N log² R)` selection scheme as
//! a faster exact alternative; it is not implemented here.

pub mod fox;

use std::fmt;

/// Error constructing or solving a [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No functions were supplied.
    Empty,
    /// A function slice did not have length `resolution + 1`.
    BadFunctionLength {
        /// Index of the offending function.
        index: usize,
        /// Its actual length.
        len: usize,
        /// The expected length (`resolution + 1`).
        expected: usize,
    },
    /// A bounds or multiplicity vector had the wrong length.
    BadVectorLength,
    /// `lower > upper` for some item, or a bound exceeds the resolution.
    BadBounds {
        /// Index of the offending item.
        index: usize,
    },
    /// A multiplicity was zero.
    ZeroMultiplicity {
        /// Index of the offending item.
        index: usize,
    },
    /// The bounds make the problem infeasible
    /// (`Σ mult·lower > R` or `Σ mult·upper < R`).
    Infeasible,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Empty => write!(f, "problem has no functions"),
            SolveError::BadFunctionLength {
                index,
                len,
                expected,
            } => write!(f, "function {index} has length {len}, expected {expected}"),
            SolveError::BadVectorLength => {
                write!(
                    f,
                    "bounds/multiplicity length does not match function count"
                )
            }
            SolveError::BadBounds { index } => write!(f, "invalid bounds for item {index}"),
            SolveError::ZeroMultiplicity { index } => {
                write!(f, "multiplicity of item {index} is zero")
            }
            SolveError::Infeasible => write!(f, "bounds make the allocation infeasible"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A minimax separable RAP instance.
///
/// Functions are borrowed slices of length `R + 1`, assumed non-decreasing
/// (the model guarantees this via monotone regression; the solver does
/// not re-check in release builds). The [controller](crate::controller) does
/// not build one of these: it hands its per-round scratch to the greedy
/// loop directly.
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    functions: Vec<&'a [f64]>,
    lower: Vec<u32>,
    upper: Vec<u32>,
    multiplicity: Vec<u32>,
    tie_priority: Vec<u64>,
    resolution: u32,
}

impl<'a> Problem<'a> {
    /// Creates a problem with default bounds `[0, R]` and multiplicity 1.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Empty`] or [`SolveError::BadFunctionLength`] on
    /// malformed input.
    pub fn new(functions: Vec<&'a [f64]>, resolution: u32) -> Result<Self, SolveError> {
        if functions.is_empty() {
            return Err(SolveError::Empty);
        }
        let expected = resolution as usize + 1;
        for (index, f) in functions.iter().enumerate() {
            if f.len() != expected {
                return Err(SolveError::BadFunctionLength {
                    index,
                    len: f.len(),
                    expected,
                });
            }
            debug_assert!(
                f.windows(2).all(|w| w[0] <= w[1] + 1e-9),
                "function {index} is not non-decreasing"
            );
        }
        let n = functions.len();
        Ok(Problem {
            functions,
            lower: vec![0; n],
            upper: vec![resolution; n],
            multiplicity: vec![1; n],
            tie_priority: vec![0; n],
            resolution,
        })
    }

    /// Sets per-item lower and upper weight bounds (in units).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::BadVectorLength`] or [`SolveError::BadBounds`]
    /// on malformed input.
    pub fn with_bounds(mut self, lower: Vec<u32>, upper: Vec<u32>) -> Result<Self, SolveError> {
        if lower.len() != self.len() || upper.len() != self.len() {
            return Err(SolveError::BadVectorLength);
        }
        for (index, (&l, &u)) in lower.iter().zip(&upper).enumerate() {
            if l > u || u > self.resolution {
                return Err(SolveError::BadBounds { index });
            }
        }
        self.lower = lower;
        self.upper = upper;
        Ok(self)
    }

    /// Sets per-item multiplicities (units consumed per weight step).
    ///
    /// A clustered item standing for `k` identical connections has
    /// multiplicity `k`: granting it one more unit of *per-connection*
    /// weight consumes `k` units of the shared resource.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::BadVectorLength`] or
    /// [`SolveError::ZeroMultiplicity`] on malformed input.
    pub fn with_multiplicity(mut self, multiplicity: Vec<u32>) -> Result<Self, SolveError> {
        if multiplicity.len() != self.len() {
            return Err(SolveError::BadVectorLength);
        }
        for (index, &m) in multiplicity.iter().enumerate() {
            if m == 0 {
                return Err(SolveError::ZeroMultiplicity { index });
            }
        }
        self.multiplicity = multiplicity;
        Ok(self)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Always `false`: problems have at least one function.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The resource total `R`.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// The function slice of item `j` (length `R + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn function(&self, j: usize) -> &'a [f64] {
        self.functions[j]
    }

    /// Per-item lower bounds.
    pub fn lower(&self) -> &[u32] {
        &self.lower
    }

    /// Per-item upper bounds.
    pub fn upper(&self) -> &[u32] {
        &self.upper
    }

    /// Per-item multiplicities.
    pub fn multiplicity(&self) -> &[u32] {
        &self.multiplicity
    }

    /// Sets per-item tie-break priorities: among steps with *equal* marginal
    /// values (typically zero), the solver prefers higher priority.
    ///
    /// The minimax objective is unaffected — this only selects among
    /// optimal solutions. The [controller](crate::controller) passes each
    /// connection's *clean frontier* here, so spare units land on the
    /// connections with the most demonstrated headroom instead of being
    /// dealt out arbitrarily (which matters under the ordered-merge
    /// feedback: parking "free" units on a secretly slow connection caps
    /// the whole region's throughput).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::BadVectorLength`] on length mismatch.
    pub fn with_tie_priority(mut self, priority: Vec<u64>) -> Result<Self, SolveError> {
        if priority.len() != self.len() {
            return Err(SolveError::BadVectorLength);
        }
        self.tie_priority = priority;
        Ok(self)
    }

    /// Per-item tie-break priorities.
    pub fn tie_priority(&self) -> &[u64] {
        &self.tie_priority
    }

    /// Checks resource feasibility of the bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`] when the bounds cannot bracket `R`.
    pub fn check_feasible(&self) -> Result<(), SolveError> {
        let min: u64 = self
            .lower
            .iter()
            .zip(self.multiplicity.iter())
            .map(|(&l, &m)| u64::from(l) * u64::from(m))
            .sum();
        let max: u64 = self
            .upper
            .iter()
            .zip(self.multiplicity.iter())
            .map(|(&u, &m)| u64::from(u) * u64::from(m))
            .sum();
        if min > u64::from(self.resolution) || max < u64::from(self.resolution) {
            return Err(SolveError::Infeasible);
        }
        Ok(())
    }
}

/// The result of a solve: per-item weights and the achieved objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-item weights in units (per-connection weight for clustered items).
    pub weights: Vec<u32>,
    /// The minimax objective `max_j F_j(w_j)`.
    pub objective: f64,
    /// Total resource consumed, `Σ mult_j · w_j`. Equal to `R` when all
    /// multiplicities are 1; may fall short by less than the largest
    /// multiplicity otherwise (the caller distributes the remainder).
    pub assigned: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_validates_function_length() {
        let f0 = vec![0.0; 10];
        let err = Problem::new(vec![&f0], 10).unwrap_err();
        assert!(matches!(
            err,
            SolveError::BadFunctionLength { expected: 11, .. }
        ));
    }

    #[test]
    fn problem_rejects_empty() {
        assert_eq!(Problem::new(vec![], 10).unwrap_err(), SolveError::Empty);
    }

    #[test]
    fn bounds_validation() {
        let f0 = vec![0.0; 11];
        let p = Problem::new(vec![&f0], 10).unwrap();
        assert!(matches!(
            p.clone().with_bounds(vec![5], vec![3]).unwrap_err(),
            SolveError::BadBounds { index: 0 }
        ));
        assert!(matches!(
            p.clone().with_bounds(vec![0], vec![11]).unwrap_err(),
            SolveError::BadBounds { index: 0 }
        ));
        assert_eq!(
            p.with_bounds(vec![0, 0], vec![10, 10]).unwrap_err(),
            SolveError::BadVectorLength
        );
    }

    #[test]
    fn feasibility_check() {
        let f0 = vec![0.0; 11];
        let f1 = vec![0.0; 11];
        let p = Problem::new(vec![&f0, &f1], 10)
            .unwrap()
            .with_bounds(vec![0, 0], vec![4, 4])
            .unwrap();
        assert_eq!(p.check_feasible().unwrap_err(), SolveError::Infeasible);
        let p = Problem::new(vec![&f0, &f1], 10)
            .unwrap()
            .with_bounds(vec![6, 6], vec![10, 10])
            .unwrap();
        assert_eq!(p.check_feasible().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn zero_multiplicity_rejected() {
        let f0 = vec![0.0; 11];
        let p = Problem::new(vec![&f0], 10).unwrap();
        assert!(matches!(
            p.with_multiplicity(vec![0]).unwrap_err(),
            SolveError::ZeroMultiplicity { index: 0 }
        ));
    }
}
