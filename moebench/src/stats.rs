//! Sample statistics: tail-checked percentiles and plain medians.

/// Samples that must lie beyond a reported percentile. A tail backed by
/// fewer samples than this is noise, so [`percentile`] refuses it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Smallest sample count for which [`percentile`] reports quantile `q`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - 1 - rank_index(n, q) >= MIN_BEYOND)
        .expect("some sample count leaves MIN_BEYOND samples past any q < 1")
}

/// Nearest-rank percentile `q` (in `0..1`) of `samples`.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie beyond the reported rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || n - 1 - rank_index(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {} samples, got {n}",
            q * 100.0,
            min_samples(q)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank_index(n, q)])
}

/// Median of a small set with no tail requirement (set-up repetitions,
/// per-iteration ratios); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Highest share of host CPU time the hypervisor may have taken (steal)
/// during a measurement window for the window to count as clean.
pub const STEAL_CLEAN: f64 = 0.02;

/// The windows measured on a clean host: every window whose steal share
/// is at most [`STEAL_CLEAN`], topped up with the least-stolen others to
/// at least `min` windows (or all of them, if fewer). Steal is time the
/// program could not run at all; on a host that steals nothing every
/// window is kept. Kept windows stay in measurement order.
pub fn clean_windows<T>(windows: Vec<(f64, T)>, min: usize) -> Vec<T> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[a].0.total_cmp(&windows[b].0).then(a.cmp(&b)));
    let clean = windows.iter().filter(|w| w.0 <= STEAL_CLEAN).count();
    let mut keep = vec![false; windows.len()];
    for &i in order.iter().take(clean.max(min)) {
        keep[i] = true;
    }
    windows
        .into_iter()
        .zip(keep)
        .filter_map(|((_, w), k)| k.then_some(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentiles_have_ten_samples_beyond_them() {
        for q in [0.5, 0.9] {
            let need = min_samples(q);
            for n in need..need + 40 {
                // Distinct values, shuffled, so "beyond" is unambiguous.
                let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
                let p = percentile(&samples, q).unwrap();
                let beyond = samples.iter().filter(|&&s| s > p).count();
                assert!(beyond >= MIN_BEYOND, "q={q} n={n}: {beyond} beyond {p}");
            }
            let short: Vec<f64> = (0..need - 1).map(|i| i as f64).collect();
            assert!(percentile(&short, q).is_err(), "q={q} n={}", need - 1);
        }
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.5), 20);
    }

    #[test]
    fn clean_windows_drop_stolen_ones_down_to_a_floor() {
        let w = vec![
            (0.0, 'a'),
            (0.30, 'b'),
            (0.01, 'c'),
            (0.10, 'd'),
            (0.05, 'e'),
        ];
        assert_eq!(clean_windows(w.clone(), 1), vec!['a', 'c']);
        assert_eq!(clean_windows(w.clone(), 4), vec!['a', 'c', 'd', 'e']);
        assert_eq!(clean_windows(w, 9).len(), 5);
        let calm: Vec<(f64, u32)> = (0..4).map(|i| (0.0, i)).collect();
        assert_eq!(clean_windows(calm, 1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
