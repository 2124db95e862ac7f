//! Order statistics for timing samples: medians, percentiles, the
//! reportable-tail rule and block-median throughput.

/// Sorts a copy of `values` ascending (total order, so a stray NaN cannot
/// panic the harness; it sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` in `[0, 100]` of an ascending
/// slice. Empty input yields NaN so a missing sample can never pass for a
/// measurement.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the acceptance driver computes. Fewer than two values have no
/// spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / percentile(&v, 50.0)
}

/// The candidate tail percentiles, highest first, in hundredths of a
/// percent so that "samples beyond" is integer arithmetic.
const TAILS: [usize; 5] = [9999, 9990, 9900, 9500, 9000];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, and its value. `None` when even p90 has too few.
pub fn reportable_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find(|&&p| sorted.len() * (10_000 - p) / 10_000 >= MIN_BEYOND)
        .map(|&p| (p as f64 / 100.0, percentile(sorted, p as f64 / 100.0)))
}

/// Throughput as the median over `blocks` equal consecutive blocks of the
/// timed region: each block's `work_per_round × rounds ÷ Σ round time`
/// (the gaps between rounds hold the harness's own probe and bookkeeping,
/// not the program). Rounds that do not fill the last block are left out.
pub fn block_median_rate(spans: &[(f64, f64)], work_per_round: f64, blocks: usize) -> f64 {
    let per_block = spans.len() / blocks.max(1);
    if per_block == 0 {
        return f64::NAN;
    }
    let rates: Vec<f64> = spans
        .chunks_exact(per_block)
        .take(blocks)
        .map(|b| work_per_round * b.len() as f64 / b.iter().map(|(s, e)| e - s).sum::<f64>())
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: 10 % of them is 9.9 -> nothing reportable.
        assert_eq!(reportable_tail(&ramp(99)), None);
        // 100 samples: exactly 10 beyond p90.
        assert_eq!(reportable_tail(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(reportable_tail(&ramp(199)).map(|t| t.0), Some(90.0));
        assert_eq!(reportable_tail(&ramp(200)).map(|t| t.0), Some(95.0));
        assert_eq!(reportable_tail(&ramp(999)).map(|t| t.0), Some(95.0));
        assert_eq!(reportable_tail(&ramp(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(reportable_tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(reportable_tail(&ramp(100_000)).map(|t| t.0), Some(99.99));
        let (p, v) = reportable_tail(&ramp(101)).unwrap();
        assert_eq!((p, v), (90.0, 90.0));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn block_median_ignores_one_slow_block() {
        // 10 rounds of 1 s each, back to back, except block 3 stalls.
        let mut spans = Vec::new();
        let mut t = 0.0;
        for i in 0..10 {
            let d = if i == 4 { 5.0 } else { 1.0 };
            spans.push((t, t + d));
            t += d;
        }
        // 5 blocks of 2 rounds: rates 8,8,8/6*... block 2 = 16/6, rest 8.
        assert_eq!(block_median_rate(&spans, 8.0, 5), 8.0);
        // One block = plain mean rate.
        assert_eq!(block_median_rate(&spans, 8.0, 1), 80.0 / 14.0);
        // Leftover rounds beyond the equal blocks are dropped.
        assert_eq!(block_median_rate(&spans[..7], 8.0, 3), 8.0);
        assert!(block_median_rate(&spans[..2], 8.0, 5).is_nan());
    }
}
