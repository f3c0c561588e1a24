//! Small measurement helpers: supported percentiles, result digests,
//! the process's peak memory.

use xkw_core::exec::ResultRow;
use xkw_core::semantics::Mtton;

/// A percentile needs this many samples beyond it before it is reported:
/// fewer, and the value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `p` (0 < p < 1) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — 50 samples
/// support p50 and p80, not p90.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// [`percentile`] for a metric cell: an unsupported percentile reads 0,
/// the value every metric takes when its layer did no (or too little)
/// work in a run.
pub fn pct_or_zero(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// A percentile that short stalls of the host do not move: `samples`, in
/// time order, are cut into consecutive segments of `chunk` samples, each
/// segment gives its own percentile `p`, and the median of those is
/// reported. A stall lands in one segment; pooled, it could push the p95 of
/// the whole run. Fewer than two full segments fall back to the pooled
/// percentile (0 when unsupported).
pub fn segmented_percentile(samples: &[f64], chunk: usize, p: f64) -> f64 {
    let per_segment: Vec<f64> = samples
        .chunks_exact(chunk)
        .filter_map(|segment| percentile(segment, p))
        .collect();
    if per_segment.len() < 2 {
        return pct_or_zero(samples, p);
    }
    median(&per_segment)
}

/// The plain median, for repeated measurements of one quantity (set-up
/// repetitions), where the sample is the population.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over (plan, score, assignment) of every row, in order.
pub fn digest_rows<'a>(rows: impl IntoIterator<Item = (u64, u64, &'a [u32])>) -> u64 {
    let mut h = Fnv::new();
    for (plan, score, assignment) in rows {
        h.eat(plan);
        h.eat(score);
        h.eat(assignment.len() as u64);
        for &a in assignment {
            h.eat(u64::from(a));
        }
    }
    h.0
}

pub fn digest_result_rows(rows: &[ResultRow]) -> u64 {
    digest_rows(
        rows.iter()
            .map(|r| (r.plan as u64, r.score as u64, r.assignment.as_slice())),
    )
}

/// FNV-1a over a deduplicated, sorted MTTON list.
pub fn digest_mttons(mttons: &[Mtton]) -> u64 {
    let mut h = Fnv::new();
    for m in mttons {
        h.eat(m.score as u64);
        h.eat(m.tos.len() as u64);
        for &t in &m.tos {
            h.eat(u64::from(t));
        }
    }
    h.0
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn refuses_percentiles_without_ten_samples_beyond() {
        // 50 inserts support p50 and p80 only.
        let s = ramp(50);
        assert_eq!(percentile(&s, 0.50), Some(25.0));
        assert_eq!(percentile(&s, 0.80), Some(40.0));
        assert_eq!(percentile(&s, 0.90), None);
        assert_eq!(percentile(&s, 0.95), None);
        // The median needs twenty samples.
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s = ramp(40);
        s.reverse();
        assert_eq!(percentile(&s, 0.50), Some(20.0));
        assert_eq!(pct_or_zero(&s, 0.90), 0.0);
    }

    #[test]
    fn segmented_percentile_ignores_one_stalled_segment() {
        // Three segments of 200; the middle one sat behind a stall.
        let mut s: Vec<f64> = ramp(200);
        s.extend(ramp(200).iter().map(|v| v + 1000.0));
        s.extend(ramp(200));
        assert_eq!(segmented_percentile(&s, 200, 0.95), 190.0);
        assert_eq!(segmented_percentile(&s, 200, 0.50), 100.0);
        // Pooled, the stall owns the tail.
        assert!(percentile(&s, 0.95).unwrap() > 1000.0);
        // Under two full segments: the pooled percentile.
        assert_eq!(segmented_percentile(&ramp(399), 200, 0.50), 200.0);
        assert_eq!(segmented_percentile(&ramp(30), 200, 0.95), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digests_depend_on_order_and_content() {
        let a = [1u32, 2];
        let b = [2u32, 1];
        let x = digest_rows([(0, 3, &a[..]), (1, 4, &b[..])]);
        let y = digest_rows([(1, 4, &b[..]), (0, 3, &a[..])]);
        assert_ne!(x, y);
        assert_eq!(x, digest_rows([(0, 3, &a[..]), (1, 4, &b[..])]));
    }
}
