//! Blocking-rate samples and smoothing.
//!
//! The data transport layer tracks a *cumulative blocking time* per
//! connection (the total time the splitter has spent blocked in `send`).
//! The balancer samples this counter periodically; first differences divided
//! by the time elapsed between samples yield the **blocking rate** — the
//! fraction of that time the splitter spent blocked on that connection. This
//! module provides the sample type and the exponential smoothing the paper
//! applies before feeding rates into the model.

use std::fmt;

/// A blocking rate: fraction of a sampling interval spent blocked, `>= 0`.
///
/// A rate of `1.0` means the splitter was blocked on this connection for the
/// entire interval. Rates are dimensionless, so sampling intervals of any
/// length are comparable.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BlockingRate(f64);

impl BlockingRate {
    /// Creates a blocking rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "blocking rate must be finite and >= 0"
        );
        BlockingRate(rate)
    }

    /// The raw rate value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for BlockingRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<BlockingRate> for f64 {
    fn from(r: BlockingRate) -> f64 {
        r.0
    }
}

/// One per-connection measurement delivered to the balancer each sampling
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionSample {
    /// Index of the connection the sample belongs to.
    pub connection: usize,
    /// The blocking rate observed over the last sampling interval.
    pub rate: BlockingRate,
}

impl ConnectionSample {
    /// Convenience constructor from a raw rate value.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(connection: usize, rate: f64) -> Self {
        ConnectionSample {
            connection,
            rate: BlockingRate::new(rate),
        }
    }
}

/// Exponentially weighted moving average used to smooth blocking rates.
///
/// `alpha` is the weight of the newest observation; the paper uses "an
/// appropriately smoothed single blocking rate value" — we default to
/// `alpha = 0.5` throughout the workspace.
///
/// # Examples
///
/// ```
/// use streambal_core::rate::Ewma;
///
/// let mut s = Ewma::new(0.5);
/// assert_eq!(s.update(1.0), 1.0); // first value passes through
/// assert_eq!(s.update(0.0), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a smoother with the given new-sample weight.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Folds a new observation in and returns the smoothed value.
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => self.alpha * sample + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    /// The current smoothed value, if any observation has arrived.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Clears the history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "finite")]
    fn rate_rejects_negative() {
        let _ = BlockingRate::new(-0.1);
    }

    #[test]
    fn ewma_first_sample_passes_through() {
        let mut s = Ewma::new(0.3);
        assert_eq!(s.update(0.8), 0.8);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut s = Ewma::new(0.5);
        for _ in 0..64 {
            s.update(0.42);
        }
        assert!((s.value().unwrap() - 0.42).abs() < 1e-9);
    }

    #[test]
    fn ewma_reset_forgets() {
        let mut s = Ewma::new(0.5);
        s.update(1.0);
        s.reset();
        assert_eq!(s.value(), None);
        assert_eq!(s.update(0.2), 0.2);
    }

    #[test]
    fn rate_display() {
        assert_eq!(BlockingRate::new(0.5).to_string(), "0.5000");
    }
}
