//! Order statistics and the server's `stats` counters.

use crate::json::Json;

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of `sorted`, which must
/// be sorted ascending: the smallest sample with at least `p`% of the
/// samples at or below it.  `None` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (mean of the two middle ones for an even count);
/// 0 for no values.
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

/// Cut a timed phase into `count` windows of `window_s` seconds and return
/// each window's latencies in ms.  `samples` are `(completed at, latency ms)`
/// pairs, the time in seconds from the start of the phase; completions
/// after the last window are left out.
pub fn windows(samples: &[(f64, f64)], window_s: f64, count: usize) -> Vec<Vec<f64>> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); count];
    for &(at, ms) in samples {
        if let Some(b) = buckets.get_mut((at / window_s) as usize) {
            b.push(ms);
        }
    }
    buckets
}

/// The machine's `(steal, total)` CPU ticks so far, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The share of CPU ticks stolen between two `cpu_ticks` samples.
pub fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    let total = b.1.saturating_sub(a.1);
    if total == 0 {
        0.0
    } else {
        b.0.saturating_sub(a.0) as f64 / total as f64
    }
}

/// The indices of the `count` windows whose stolen CPU share is at most
/// the (lower) median of `steal`: at least half of them, and every one when
/// the steal values tie.  Every window when `steal` does not cover them all.
pub fn quiet_windows(steal: &[f64], count: usize) -> Vec<usize> {
    if steal.len() < count || count == 0 {
        return (0..count).collect();
    }
    let mut sorted = steal[..count].to_vec();
    sorted.sort_by(f64::total_cmp);
    let threshold = sorted[(count - 1) / 2];
    (0..count).filter(|&i| steal[i] <= threshold).collect()
}

/// The counters of one `stats` reply that the benchmark reads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerStats {
    pub requests: u64,
    pub frozen: (u64, u64),
    pub gate: (u64, u64),
    pub span: (u64, u64),
    pub hom: (u64, u64),
    pub evictions: u64,
    pub iso_classes: u64,
    pub governed_bytes: u64,
    /// Shed requests, timeouts and fuel exhaustions: each one a failure.
    pub refused: u64,
}

impl ServerStats {
    pub fn parse(reply: &str) -> Result<ServerStats, String> {
        let json = Json::parse(reply)?;
        let stats = json.get("stats").ok_or("stats reply without stats")?;
        let counters = json.get("counters").ok_or("stats reply without counters")?;
        let pair = |name: &str| -> Result<(u64, u64), String> {
            Ok((
                stats.u64_at(&format!("{name}_hits"))?,
                stats.u64_at(&format!("{name}_misses"))?,
            ))
        };
        let mut evictions = 0;
        for usage in ["frozen", "gate", "span", "hom", "cand"] {
            evictions += stats
                .get(&format!("{usage}_usage"))
                .ok_or("missing cache usage")?
                .u64_at("evictions")?;
        }
        Ok(ServerStats {
            requests: json.u64_at("requests")?,
            frozen: pair("frozen")?,
            gate: pair("gate")?,
            span: pair("span")?,
            hom: pair("hom")?,
            evictions,
            iso_classes: stats.u64_at("iso_classes")?,
            governed_bytes: stats.u64_at("governed_bytes")?,
            refused: counters.u64_at("shed_requests")?
                + counters.u64_at("timeouts")?
                + counters.u64_at("fuel_exhausted")?,
        })
    }
}

/// Hits over lookups of a `(hits, misses)` delta; 0 when nothing was
/// looked up.
pub fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = after.0.saturating_sub(before.0) as f64;
    let misses = after.1.saturating_sub(before.1) as f64;
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 95.0), Some(19.0));
        assert_eq!(percentile(&v, 99.0), Some(20.0));
        assert_eq!(percentile(&v, 100.0), Some(20.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[4.0], 95.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 100 samples: p95 is the 95th smallest, not the 96th.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(95.0));
    }

    #[test]
    fn windows_bucket_by_completion_time() {
        let samples = [(0.1, 1.0), (0.2, 3.0), (0.9, 2.0), (1.5, 10.0), (2.0, 99.0)];
        let w = windows(&samples, 1.0, 2);
        assert_eq!(w, vec![vec![1.0, 3.0, 2.0], vec![10.0]]);
        assert_eq!(
            windows(&[(0.5, 1.0)], 0.5, 3),
            vec![vec![], vec![1.0], vec![]]
        );
    }

    #[test]
    fn quiet_windows_keep_everything_at_or_below_the_median_steal() {
        let steal = [0.3, 0.0, 0.1, 0.0, 0.2];
        assert_eq!(quiet_windows(&steal, 5), vec![1, 2, 3]);
        // No steal anywhere: every window counts, late ones included.
        assert_eq!(quiet_windows(&[0.0; 15], 15), (0..15).collect::<Vec<_>>());
        // Ties at the median keep more than half.
        assert_eq!(quiet_windows(&[0.1, 0.0, 0.1, 0.1], 4), vec![0, 1, 2, 3]);
        assert_eq!(quiet_windows(&[0.5, 0.0, 0.1, 0.2], 4), vec![1, 2]);
        // Without steal figures for every window, every window counts.
        assert_eq!(quiet_windows(&[], 2), vec![0, 1]);
        assert_eq!(steal_share((10, 100), (30, 300)), 0.1);
        assert_eq!(steal_share((10, 100), (10, 100)), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn hit_ratio_of_a_delta() {
        assert_eq!(hit_ratio((10, 5), (40, 15)), 0.75);
        assert_eq!(hit_ratio((1, 1), (1, 1)), 0.0);
    }
}
