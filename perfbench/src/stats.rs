//! Summary statistics and the derived per-layer ratios.
//!
//! The quartile helper reproduces Python's `statistics.quantiles(values, n=4)` (the
//! default `exclusive` method), so spreads the benchmark reports match the ones a reader
//! recomputes from the printed values.

use uldp_core::RoundTimings;

/// Median of `values` (mean of the two middle values for an even count); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them. A single value is its own quartiles; empty input gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    match values.len() {
        0 => return [0.0; 3],
        1 => return [values[0]; 3],
        _ => {}
    }
    let data = sorted(values);
    let len = data.len();
    let n = 4usize;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median (`0.0` when the median is zero).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `protocol.pipeline.overlap`: the phase seconds that rounds of `run_rounds` calls
/// report (`RoundOutput::timings`), summed, over those calls' wall-clock seconds. Above
/// 1 when the pipeline ran phases of different rounds at the same time; 0 without wall
/// time.
pub fn pipeline_overlap(timings: &[RoundTimings], wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    let phases: f64 = timings.iter().map(|t| t.total().as_secs_f64()).sum();
    phases / wall_s
}

/// `protocol.cache.hit_ratio`: re-randomised inverses over all inverses the server
/// distributed (fresh encryptions plus re-randomisations); 0 when it distributed none.
pub fn cache_hit_ratio(encrypted: u64, rerandomised: u64) -> f64 {
    let total = encrypted + rerandomised;
    if total == 0 {
        0.0
    } else {
        rerandomised as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use uldp_core::RoundOutput;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the exclusive method
        // extrapolates past the extremes of small samples.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 5]), 0.0);
    }

    fn output(enc_ms: u64, weigh_ms: u64, agg_ms: u64) -> RoundOutput {
        RoundOutput {
            aggregate: vec![0.0],
            dropped: None,
            timings: RoundTimings {
                server_encryption: Duration::from_millis(enc_ms),
                silo_weighting: Duration::from_millis(weigh_ms),
                aggregation: Duration::from_millis(agg_ms),
            },
        }
    }

    #[test]
    fn overlap_sums_phases_over_wall() {
        // Sequential rounds: the phases tile the wall-clock exactly.
        let outputs = [output(100, 700, 200), output(100, 700, 200)];
        let rounds: Vec<RoundTimings> = outputs.iter().map(|o| o.timings).collect();
        assert!((pipeline_overlap(&rounds, 2.0) - 1.0).abs() < 1e-12);
        // Round 2's fold ran under round 1's decrypt: 2.0 s of phases in 1.6 s.
        assert!((pipeline_overlap(&rounds, 1.6) - 1.25).abs() < 1e-12);
        assert_eq!(pipeline_overlap(&[], 1.0), 0.0);
        assert_eq!(pipeline_overlap(&rounds, 0.0), 0.0);
    }

    #[test]
    fn hit_ratio_counts_rerandomisations() {
        // 20 users: one fresh round then three cached rounds.
        assert!((cache_hit_ratio(20, 60) - 0.75).abs() < 1e-12);
        assert_eq!(cache_hit_ratio(1000, 0), 0.0);
        assert_eq!(cache_hit_ratio(0, 40), 1.0);
        assert_eq!(cache_hit_ratio(0, 0), 0.0);
    }
}
