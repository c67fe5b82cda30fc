//! Trace analysis: quantifying convergence, stability and adaptation from a
//! run's control-round samples — the metrics behind the paper's §6.1 prose
//! claims ("just 15 seconds into the experiment, we settle on a sustainable
//! load distribution", "the oscillations stabilize by 30 seconds", …).

use streambal_sim::metrics::RunResult;
use streambal_sim::SECOND_NS;

/// The first time (seconds) at which every connection's weight stays within
/// `tolerance_units` of its final value for the rest of the run, or `None`
/// if the run never settles (or recorded no samples).
pub fn settle_seconds(result: &RunResult, tolerance_units: u32) -> Option<u64> {
    let last = result.samples.last()?;
    let finals = &last.weights;
    let mut settled_from = None;
    for s in &result.samples {
        let within = s
            .weights
            .iter()
            .zip(finals)
            .all(|(&w, &f)| w.abs_diff(f) <= tolerance_units);
        match (within, settled_from) {
            (true, None) => settled_from = Some(s.t_ns / SECOND_NS),
            (false, Some(_)) => settled_from = None,
            _ => {}
        }
    }
    settled_from
}

/// Mean absolute per-round weight change of connection `j` over the last
/// `tail` samples — a stability measure (0 = perfectly stable).
///
/// # Panics
///
/// Panics if `j` is out of bounds for any sample.
pub fn weight_churn(result: &RunResult, j: usize, tail: usize) -> f64 {
    let n = result.samples.len();
    if n < 2 {
        return 0.0;
    }
    let start = n.saturating_sub(tail.max(2));
    let window = &result.samples[start..];
    let mut total = 0u64;
    for pair in window.windows(2) {
        total += u64::from(pair[0].weights[j].abs_diff(pair[1].weights[j]));
    }
    total as f64 / (window.len() - 1) as f64
}

/// The number of *re-exploration spikes* on connection `j`: rounds where
/// its weight rises by at least `threshold_units` over the previous round.
/// The adaptive balancer's decay produces these periodically; the static
/// variant produces none after convergence.
///
/// # Panics
///
/// Panics if `j` is out of bounds for any sample.
pub fn exploration_spikes(result: &RunResult, j: usize, threshold_units: u32) -> usize {
    result
        .samples
        .windows(2)
        .filter(|pair| {
            pair[1].weights[j] > pair[0].weights[j]
                && pair[1].weights[j] - pair[0].weights[j] >= threshold_units
        })
        .count()
}

/// Mean weights over the last `tail` samples (one value per connection).
pub fn mean_final_weights(result: &RunResult, tail: usize) -> Vec<f64> {
    let Some(first) = result.samples.first() else {
        return Vec::new();
    };
    let n = first.weights.len();
    let start = result.samples.len().saturating_sub(tail.max(1));
    let window = &result.samples[start..];
    (0..n)
        .map(|j| window.iter().map(|s| f64::from(s.weights[j])).sum::<f64>() / window.len() as f64)
        .collect()
}

/// How close a run's mean final weights are to a reference allocation:
/// the total absolute deviation in units (0 = identical).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn allocation_distance(mean_weights: &[f64], reference_units: &[u32]) -> f64 {
    assert_eq!(
        mean_weights.len(),
        reference_units.len(),
        "allocation widths differ"
    );
    mean_weights
        .iter()
        .zip(reference_units)
        .map(|(&m, &r)| (m - f64::from(r)).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_sim::RoundSnapshot;

    fn run_with_weights(series: Vec<Vec<u32>>) -> RunResult {
        let samples = series
            .into_iter()
            .enumerate()
            .map(|(i, weights)| RoundSnapshot {
                region: 0,
                t_ns: (i as u64 + 1) * SECOND_NS,
                rates: vec![0.0; weights.len()],
                weights,
                delivered: 1,
                clusters: None,
            })
            .collect();
        RunResult {
            policy: "test".into(),
            duration_ns: SECOND_NS,
            delivered: 1,
            sent: 1,
            rerouted: 0,
            blocked_ns: vec![],
            samples,
            latencies_ns: vec![],
            worker_busy_ns: vec![],
        }
    }

    #[test]
    fn settle_detects_first_stable_round() {
        let r = run_with_weights(vec![
            vec![900, 100],
            vec![600, 400],
            vec![510, 490],
            vec![505, 495],
            vec![500, 500],
        ]);
        assert_eq!(settle_seconds(&r, 20), Some(3));
        assert_eq!(settle_seconds(&r, 500), Some(1));
        assert_eq!(settle_seconds(&r, 0), Some(5));
    }

    #[test]
    fn settle_resets_on_later_divergence() {
        let r = run_with_weights(vec![
            vec![500, 500],
            vec![900, 100], // diverges again
            vec![500, 500],
        ]);
        assert_eq!(settle_seconds(&r, 10), Some(3));
    }

    #[test]
    fn churn_measures_movement() {
        let r = run_with_weights(vec![vec![500, 500], vec![400, 600], vec![450, 550]]);
        assert!((weight_churn(&r, 0, 10) - 75.0).abs() < 1e-9);
        let flat = run_with_weights(vec![vec![500, 500], vec![500, 500]]);
        assert_eq!(weight_churn(&flat, 0, 10), 0.0);
    }

    #[test]
    fn spikes_count_upward_jumps() {
        let r = run_with_weights(vec![
            vec![10, 990],
            vec![60, 940], // +50 spike
            vec![12, 988],
            vec![70, 930], // +58 spike
        ]);
        assert_eq!(exploration_spikes(&r, 0, 50), 2);
        assert_eq!(exploration_spikes(&r, 0, 100), 0);
    }

    #[test]
    fn mean_and_distance() {
        let r = run_with_weights(vec![vec![400, 600], vec![600, 400]]);
        let means = mean_final_weights(&r, 2);
        assert_eq!(means, vec![500.0, 500.0]);
        assert_eq!(allocation_distance(&means, &[500, 500]), 0.0);
        assert_eq!(allocation_distance(&means, &[450, 550]), 100.0);
    }

    #[test]
    fn empty_run_is_harmless() {
        let r = run_with_weights(vec![]);
        assert_eq!(settle_seconds(&r, 10), None);
        assert!(mean_final_weights(&r, 5).is_empty());
    }
}
