//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the slice for [`quantile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a ratio of nothing).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Completions per second from the times (seconds) at which operations
/// completed: the least-squares slope of the cumulative count against time.
/// For evenly spaced completions this is (n-1)/(last-first); for
/// completions that arrive in bursts (acks released together by a timer)
/// it is burst size over burst period, where counting from the first
/// completion to the last would count one burst too many. 0 for fewer
/// than two distinct times.
pub fn completion_rate(times: &[f64]) -> f64 {
    let n = times.len() as f64;
    let mean_t = times.iter().sum::<f64>() / n;
    let mean_i = (n - 1.0) / 2.0;
    let (mut cov, mut var) = (0.0, 0.0);
    for (i, t) in times.iter().enumerate() {
        cov += (t - mean_t) * (i as f64 - mean_i);
        var += (t - mean_t) * (t - mean_t);
    }
    ratio(cov, var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn completion_rate_of_even_and_bursty_arrivals() {
        let even: Vec<f64> = (0..50).map(|i| 3.0 + i as f64 * 0.2).collect();
        assert!((completion_rate(&even) - 5.0).abs() < 1e-9);
        // 16 bursts of 64 acks, one burst every 0.2 s: 320 per second.
        let bursty: Vec<f64> =
            (0..16).flat_map(|b| (0..64).map(move |k| b as f64 * 0.2 + k as f64 * 1e-5)).collect();
        assert!((completion_rate(&bursty) - 320.0).abs() < 1.0);
        assert_eq!(completion_rate(&[1.0]), 0.0);
        assert_eq!(completion_rate(&[]), 0.0);
    }
}
