//! The arithmetic every reported number goes through: percentiles,
//! medians over windows, the quartiles `compare` and the acceptance
//! check use, and the open-loop due-time schedule.

/// Sorts `values` ascending (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (`0.0..=1.0`) of nanosecond samples, in
/// microseconds, by nearest rank on `(n - 1) * p`; 0 when empty.
pub fn percentile_us(samples_ns: &mut [u64], p: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.sort_unstable();
    let idx = ((samples_ns.len() - 1) as f64 * p).round() as usize;
    samples_ns[idx.min(samples_ns.len() - 1)] as f64 / 1e3
}

/// `[q1, q2, q3]` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them — the acceptance check
/// is stated in those terms, so `compare` must agree with it digit for
/// digit. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the "spread" the
/// acceptance check bounds.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// When request `k` of an open loop at `rate` requests per second is
/// due, in nanoseconds after the phase start. Integer arithmetic on the
/// request index, so the schedule cannot drift however long the phase.
pub fn due_ns(k: u64, rate: u64) -> u64 {
    ((u128::from(k) * 1_000_000_000) / u128::from(rate.max(1))) as u64
}

/// How many requests of an open loop at `rate` are due by `now_ns`
/// (the inverse of [`due_ns`]: request `k` is due iff `k < due_count`).
pub fn due_count(now_ns: u64, rate: u64) -> u64 {
    // floor(k * 1e9 / rate) <= now  <=>  k < (now + 1) * rate / 1e9.
    ((u128::from(now_ns) + 1) * u128::from(rate)).div_ceil(1_000_000_000) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        // 1..=100 µs, shuffled: sorted in place first.
        let mut ns: Vec<u64> = (1..=100u64).map(|i| (i * 37 % 101) * 1_000).collect();
        assert_eq!(percentile_us(&mut ns, 0.0), 1.0);
        assert_eq!(percentile_us(&mut ns, 0.5), 51.0); // (99 * 0.5).round() = 50
        assert_eq!(percentile_us(&mut ns, 0.99), 99.0);
        assert_eq!(percentile_us(&mut ns, 1.0), 100.0);
        assert_eq!(percentile_us(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_over_windows_ignores_one_bad_window() {
        // One stalled window must not move the run-level number.
        assert_eq!(median(&[50.0, 51.0, 49.0, 50.5, 5.0]), 50.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&ten).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5 = 1, got {s}");
    }

    #[test]
    fn open_loop_schedule_is_exact_and_invertible() {
        assert_eq!(due_ns(0, 20_000), 0);
        assert_eq!(due_ns(1, 20_000), 50_000);
        assert_eq!(due_ns(20_000, 20_000), 1_000_000_000);
        // No drift after an hour at an awkward rate.
        assert_eq!(due_ns(3 * 3600, 3), 3_600_000_000_000);
        for rate in [3u64, 1_000, 8_000, 20_000] {
            for now in [
                0u64,
                1,
                49_999,
                50_000,
                50_001,
                333_333_333,
                999_999_999,
                1_000_000_000,
            ] {
                let n = due_count(now, rate);
                assert!(due_ns(n - 1, rate) <= now, "request n-1 is due");
                assert!(due_ns(n, rate) > now, "request n is not yet due");
            }
        }
    }
}
