//! Blocking-rate samples.
//!
//! The data transport layer tracks a *cumulative blocking time* per
//! connection (the total time the splitter has spent blocked in `send`).
//! The balancer samples this counter periodically; first differences divided
//! by the time elapsed between samples yield the **blocking rate** — the
//! fraction of that time the splitter spent blocked on that connection. This
//! module provides the sample type; the exponential smoothing the paper
//! applies before feeding rates into the model happens per weight, in
//! [`BlockingRateFunction::observe`](crate::function::BlockingRateFunction::observe).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "finite")]
    fn rate_rejects_negative() {
        let _ = BlockingRate::new(-0.1);
    }

    #[test]
    fn rate_display() {
        assert_eq!(BlockingRate::new(0.5).to_string(), "0.5000");
    }
}
