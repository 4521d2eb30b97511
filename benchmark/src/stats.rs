//! Order statistics: the median, the tail percentile a sample count can
//! support, the quiet-decile readings behind the end-to-end metrics, and the
//! quartile spread `--compare` and the README's steadiness check use.

/// Sort a sample vector in place (NaN-free by construction: every sample is
/// a measured duration or count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nearest-rank percentile of a sorted slice, `q` in `0..=1`; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (p50, nearest rank) of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 0.5)
}

/// The 1-based nearest rank of the tail statistic `n` samples can support:
/// p99 needs at least ten samples beyond it, i.e. `n >= 1000`. With fewer,
/// the highest rank that still has ten samples beyond it is used instead
/// (never below the median), and the caller reports which quantile it was.
pub fn tail_rank(n: usize) -> usize {
    let median_rank = n.div_ceil(2);
    if n >= 1000 {
        (99 * n).div_ceil(100)
    } else {
        n.saturating_sub(10).max(median_rank)
    }
}

/// Median and supportable tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// The quantile `tail` was read at (0.99 when `n >= 1000`).
    pub tail_q: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n == 0 {
        return Summary { n, p50: 0.0, tail: 0.0, tail_q: 0.5 };
    }
    let rank = tail_rank(n);
    Summary {
        n,
        p50: percentile(&sorted, 0.5),
        tail: sorted[rank - 1],
        tail_q: rank as f64 / n as f64,
    }
}

/// Length of the slices [`Quiet`] cuts a measured stretch into.
pub const SLICE_S: f64 = 0.5;

/// A slice with fewer samples than this is not read.
const MIN_SLICE_SAMPLES: usize = 16;

/// The reading of the quietest tenth: the value at rank `ceil(n / 10)` from
/// the good end (smallest first unless `higher_is_better`). `None` when
/// there is nothing to read.
pub fn quiet_decile(readings: &[f64], higher_is_better: bool) -> Option<f64> {
    let mut sorted = readings.to_vec();
    sort(&mut sorted);
    if higher_is_better {
        sorted.reverse();
    }
    let rank = sorted.len().div_ceil(10);
    sorted.get(rank.wrapping_sub(1)).copied()
}

/// The end-to-end timing metrics of one window, read where the host was
/// quiet. This host is a small VM whose neighbours only ever add time — in
/// bursts of seconds and in spells of minutes — and a whole-window median of
/// unchanged code moved by 48% between runs. So each measured stretch is cut
/// into [`SLICE_S`] slices, each slice gives its own median, p90 and
/// completion rate, and the window reports the quiet decile of each: how the
/// program ran in the best tenth of the window. A change to the program
/// moves every slice; a neighbour's burst moves only the slices it covers.
/// With no whole slice (a `--quick` window) the plain statistic over all
/// samples is reported instead.
#[derive(Debug, Default)]
pub struct Quiet {
    p50s: Vec<f64>,
    p90s: Vec<f64>,
    rates: Vec<f64>,
    all: Vec<f64>,
    span_s: f64,
}

impl Quiet {
    /// Add one uninterrupted stretch: `values[i]` belongs to the operation
    /// that completed (open loop: was due) `at_s[i]` seconds after the
    /// stretch began, `at_s` ascending; the stretch lasted `stretch_s`.
    pub fn add_stretch(&mut self, at_s: &[f64], values: &[f64], stretch_s: f64) {
        assert_eq!(at_s.len(), values.len());
        self.all.extend_from_slice(values);
        self.span_s += stretch_s;
        let whole_slices = (stretch_s / SLICE_S).floor() as usize;
        let mut start = 0;
        for slice in 0..whole_slices {
            let end = start + at_s[start..].partition_point(|&t| t < (slice + 1) as f64 * SLICE_S);
            if end - start >= MIN_SLICE_SAMPLES {
                let mut sorted = values[start..end].to_vec();
                sort(&mut sorted);
                self.p50s.push(percentile(&sorted, 0.5));
                self.p90s.push(percentile(&sorted, 0.9));
                // Completions over the time between the first and the last,
                // so the rate is a measured time, not a count per slice.
                self.rates.push((end - start - 1) as f64 / (at_s[end - 1] - at_s[start]));
            }
            start = end;
        }
    }

    pub fn samples(&self) -> usize {
        self.all.len()
    }

    /// Every value added, in order.
    pub fn all(&self) -> &[f64] {
        &self.all
    }

    fn plain(&self, q: f64) -> f64 {
        let mut sorted = self.all.clone();
        sort(&mut sorted);
        percentile(&sorted, q)
    }

    pub fn p50(&self) -> f64 {
        quiet_decile(&self.p50s, false).unwrap_or_else(|| self.plain(0.5))
    }

    pub fn p90(&self) -> f64 {
        quiet_decile(&self.p90s, false).unwrap_or_else(|| self.plain(0.9))
    }

    /// Completions per second.
    pub fn rate(&self) -> f64 {
        let plain = if self.span_s > 0.0 { self.all.len() as f64 / self.span_s } else { 0.0 };
        quiet_decile(&self.rates, true).unwrap_or(plain)
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// returns them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        cuts[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Interquartile distance as a share of the median — the run-to-run spread.
/// 0 for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail_rank(1000), 990);
        assert_eq!(tail_rank(50_000), 49_500);
        // 999 samples leave only nine beyond p99: fall back to the highest
        // rank that keeps ten beyond it.
        assert_eq!(tail_rank(999), 989);
        for n in [21, 50, 200, 999, 1000, 1001, 7200] {
            assert!(n - tail_rank(n) >= 10, "n = {n}");
        }
        // 200 samples: ten beyond means p95.
        assert_eq!(tail_rank(200), 190);
        // Too few for any tail: the median.
        assert_eq!(tail_rank(20), 10);
        assert_eq!(tail_rank(3), 2);
    }

    #[test]
    fn summary_reads_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(|v| v as f64).collect();
        let s = summarize(&samples);
        assert_eq!((s.n, s.p50, s.tail, s.tail_q), (1000, 500.0, 990.0, 0.99));
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail), (2.0, 2.0));
        assert_eq!(summarize(&[]).p50, 0.0);
    }

    #[test]
    fn quiet_decile_reads_from_the_good_end() {
        let readings: Vec<f64> = (1..=48).map(|v| v as f64).collect();
        assert_eq!(quiet_decile(&readings, false), Some(5.0));
        assert_eq!(quiet_decile(&readings, true), Some(44.0));
        // Up to ten readings: the best one.
        assert_eq!(quiet_decile(&[3.0, 1.0, 2.0], false), Some(1.0));
        assert_eq!(quiet_decile(&[3.0, 1.0, 2.0], true), Some(3.0));
        assert_eq!(quiet_decile(&[], false), None);
    }

    /// 100 calls per second for `seconds`, each taking `us(t)` microseconds.
    fn stretch(seconds: usize, us: impl Fn(f64) -> f64) -> (Vec<f64>, Vec<f64>) {
        let at: Vec<f64> = (0..seconds * 100).map(|i| i as f64 / 100.0 + 0.005).collect();
        let values = at.iter().map(|&t| us(t)).collect();
        (at, values)
    }

    #[test]
    fn quiet_ignores_a_burst_but_not_a_slower_program() {
        // Calls cycle through 100..=149 us; a neighbour triples seconds 3..9
        // of a 12 s stretch (half of it).
        let cycle = |t: f64| 100.0 + ((t * 100.0) as usize % 50) as f64;
        let mut calm = Quiet::default();
        let (at, values) = stretch(12, cycle);
        calm.add_stretch(&at, &values, 12.0);
        assert_eq!((calm.p50(), calm.p90()), (124.0, 144.0));
        assert!((calm.rate() - 100.0).abs() < 1e-9);

        let mut noisy = Quiet::default();
        let burst = |t: f64| if (3.0..9.0).contains(&t) { 3.0 * cycle(t) } else { cycle(t) };
        let (at, values) = stretch(12, burst);
        noisy.add_stretch(&at, &values, 12.0);
        assert_eq!((noisy.p50(), noisy.p90()), (124.0, 144.0));
        assert_eq!(noisy.samples(), 1200);
        assert!(median(&values) > 140.0, "the whole-window median follows the burst");

        // The program itself 1.5x slower: every slice moves.
        let mut slower = Quiet::default();
        let (at, values) = stretch(12, |t| 1.5 * cycle(t));
        slower.add_stretch(&at, &values, 12.0);
        assert_eq!(slower.p50(), 186.0);
    }

    #[test]
    fn quiet_rate_follows_completions_and_stretches_add_up() {
        // Two 2 s stretches: 100/s, then 50/s. The quiet decile of eight
        // slices is the best one.
        let mut q = Quiet::default();
        let (at, values) = stretch(2, |_| 1.0);
        q.add_stretch(&at, &values, 2.0);
        let at: Vec<f64> = (0..100).map(|i| i as f64 / 50.0 + 0.01).collect();
        q.add_stretch(&at, &vec![1.0; 100], 2.0);
        assert!((q.rate() - 100.0).abs() < 1e-9);
        assert_eq!(q.samples(), 300);
        // No whole slice (a --quick window): plain statistics.
        let mut short = Quiet::default();
        short.add_stretch(&[0.1, 0.2, 0.3], &[5.0, 7.0, 6.0], 0.4);
        assert_eq!((short.p50(), short.p90()), (6.0, 7.0));
        assert!((short.rate() - 7.5).abs() < 1e-9);
        assert_eq!(Quiet::default().rate(), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some([1.5, 4.0, 12.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
