//! Order statistics over measured samples.

/// Median of `values` (mean of the middle two for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted nanosecond samples, in µs.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    percentile_sorted(samples, q) as f64 / 1e3
}

/// The decile on the fast side of per-pass values: the ninth decile of
/// throughputs (`higher_is_faster`), the first of latencies.
///
/// On a shared box, interference from outside the process comes in bursts
/// of seconds and only ever slows a pass down (memory latency on the
/// reference box swings by 2-4x), so the fast side of the passes is the
/// steadier reading of the code's own speed: it stays put until a burst
/// covers nine tenths of the window, where a median gives way at half
/// (README, "Steadiness"). Nearest rank, so with fewer than ten passes it
/// is the fastest one.
pub fn fast_decile(values: &[f64], higher_is_faster: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, if higher_is_faster { 0.9 } else { 0.1 })
}

/// First and third quartile, the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the driver
/// uses for spreads. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
    }
}
