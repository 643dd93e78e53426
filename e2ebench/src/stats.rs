//! Order statistics the benchmark reports timings with.
//!
//! Percentiles use the nearest-rank rule on integer percents, so a
//! percentile is always one of the measured samples and the number of
//! samples beyond it is exact. A tail percentile is only trustworthy
//! when enough samples lie beyond it; [`supported`] says when.

/// Samples that must lie beyond a percentile before it is reported as
/// measured rather than as an extrapolation from a handful of points.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// the smallest rank with at least `p`% of the samples at or below it.
fn rank(n: usize, p: u32) -> usize {
    let p = p.min(100) as usize;
    (p * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of ascending `sorted`, or `None` for
/// no samples.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples put at least [`MIN_BEYOND`] beyond the `p`-th
/// percentile.
pub fn supported(n: usize, p: u32) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// `values` sorted ascending (NaN-free input assumed; NaN sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads read the same here as in a notebook. Needs at
/// least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// One operation of a timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// How long it took, in ms.
    pub ms: f64,
    /// The process's CPU clock when it completed, in seconds.
    pub cpu_s: f64,
    /// Units of work it did (1 per verdict, its steps per attack).
    pub work: f64,
}

/// CPU cost per unit of work in each of `chunks` runs of consecutive
/// operations: the timed phase starts at CPU time `cpu0`, the operations
/// are ordered by when they completed on the CPU clock and cut into
/// chunks of equal count, and a chunk costs the CPU time between its last
/// completion and the previous chunk's, over the work it holds. Chunk
/// boundaries sit on completions, so no operation is split. `None` if
/// there are fewer operations than chunks.
pub fn chunk_costs(ops: &[Op], cpu0: f64, chunks: usize) -> Option<Vec<f64>> {
    let chunks = chunks.max(1);
    if ops.len() < chunks {
        return None;
    }
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.cpu_s.total_cmp(&b.cpu_s));
    let mut costs = Vec::with_capacity(chunks);
    let (mut start, mut from) = (0, cpu0);
    for c in 1..=chunks {
        let end = ops.len() * c / chunks;
        let chunk = &ops[start..end];
        let to = chunk.last()?.cpu_s;
        costs.push((to - from) / chunk.iter().map(|o| o.work).sum::<f64>());
        (start, from) = (end, to);
    }
    Some(costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_costs_cut_on_completions() {
        // Six ops; each takes 0.5 CPU-s, and one of the middle pair does
        // 3 units of work.
        let ops: Vec<Op> = (1..=6)
            .rev()
            .map(|i| Op {
                ms: 1.0,
                cpu_s: 10.0 + 0.5 * i as f64,
                work: if i == 3 { 3.0 } else { 1.0 },
            })
            .collect();
        assert_eq!(chunk_costs(&ops, 10.0, 3), Some(vec![0.5, 0.25, 0.5]));
        assert_eq!(chunk_costs(&ops, 10.0, 1), Some(vec![3.0 / 8.0]));
        assert_eq!(chunk_costs(&ops, 10.0, 7), None);
    }

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        assert_eq!(percentile(&s, 99), Some(99.0));
        assert_eq!(percentile(&s, 100), Some(100.0));
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentile_ranks_are_exact_at_round_counts() {
        // 0.99 * 1000 is not exactly 990 in floating point; integer
        // ranks keep the p99 of 1000 samples at the 990th.
        let s = one_to(1000);
        assert_eq!(percentile(&s, 99), Some(990.0));
        assert_eq!(beyond(1000, 99), 10);
    }

    #[test]
    fn too_few_samples_beyond_p99_is_unsupported() {
        // A p99 from 10 samples is the maximum: nothing lies beyond it.
        assert_eq!(beyond(10, 99), 0);
        assert!(!supported(10, 99));
        assert_eq!(percentile(&one_to(10), 99), Some(10.0));
        // The first count with ten samples beyond p99 is 1000.
        assert!(!supported(999, 99));
        assert!(supported(1000, 99));
        assert!(supported(100, 90));
        assert!(!supported(99, 90));
        assert_eq!(beyond(0, 50), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4)
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            Some([1.25, 3.5, 5.75])
        );
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&one_to(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
