//! Order statistics with an honesty rule: a percentile is reported only
//! when at least ten samples lie beyond it.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `sorted` (ascending) by nearest rank,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie above it — p50
/// needs 20 samples, p99 needs 1000.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - rank >= MIN_BEYOND).then(|| sorted[rank])
}

/// Sorts `xs` and returns its median under the [`percentile`] rule.
pub fn median(mut xs: Vec<f64>) -> Option<f64> {
    sort(&mut xs);
    percentile(&xs, 0.5)
}

/// Ascending sort of finite samples.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// The median of a handful of repetitions (no tail rule: it summarises
/// repeated set-ups, not a latency distribution).
pub fn median_of_reps(xs: &[f64]) -> f64 {
    quantile_of_reps(xs, 0.5)
}

/// The `p`-quantile of a handful of repetitions, interpolating linearly
/// between the two nearest ranks (Python's `statistics.quantiles` with
/// `method='inclusive'`).
pub fn quantile_of_reps(xs: &[f64], p: f64) -> f64 {
    let mut xs = xs.to_vec();
    sort(&mut xs);
    let pos = p * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Samples a tail window holds at least: twenty beyond its p99.
pub const WINDOW_REQUESTS: usize = 2_000;

/// The `q`-quantile of each window of consecutive slots, in slot order.
/// The benchmark reports a low quantile or the median of these: a tail
/// that bursts of host noise barely move.
///
/// On a shared host, a neighbour that takes a CPU for a few seconds
/// stretches every request that runs meanwhile, and the longest requests
/// most; a tail pooled over the whole run then measures how much of the
/// run the neighbour was busy. The program's own slow requests recur in
/// every window, so the calmer windows still show them, and a change
/// that slows them moves the reported value.
///
/// `per_slot` holds each slot's samples in slot order. A window starts at
/// every slot and takes slots until it holds [`WINDOW_REQUESTS`] samples;
/// windows that run out of slots first are dropped, unless there is no
/// other. `None` when a window fails the [`percentile`] rule.
pub fn window_tails(per_slot: &[Vec<f64>], q: f64) -> Option<Vec<f64>> {
    let mut tails = Vec::new();
    for start in 0..per_slot.len() {
        let mut xs = Vec::new();
        for slot in &per_slot[start..] {
            xs.extend_from_slice(slot);
            if xs.len() >= WINDOW_REQUESTS {
                break;
            }
        }
        if xs.len() < WINDOW_REQUESTS && !tails.is_empty() {
            break;
        }
        sort(&mut xs);
        tails.push(percentile(&xs, q)?);
    }
    (!tails.is_empty()).then_some(tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        assert_eq!(percentile(&ramp(999), 0.99), None, "9 samples beyond p99");
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.5), None, "9 samples beyond p50");
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn window_tails_slide_by_one_slot() {
        // Eleven slots of 2000: a window starts at each, one slot long.
        // The k-th slot's tail is 1980 * k, and the lower decile of
        // eleven tails is the second lowest.
        let slots: Vec<Vec<f64>> = (1..=11)
            .map(|k| ramp(2_000).into_iter().map(|x| x * k as f64).collect())
            .collect();
        let tails = window_tails(&slots, 0.99).unwrap();
        assert_eq!(tails.len(), 11);
        assert_eq!(tails[0], 1_980.0);
        assert_eq!(quantile_of_reps(&tails, 0.1), 1_980.0 * 2.0);
        // Windows take slots until full; windows that run out are dropped.
        let slots = vec![ramp(1_200), ramp(1_200), ramp(1_200)];
        assert_eq!(window_tails(&slots, 0.99).map(|t| t.len()), Some(2));
        // Too few samples for any window: the pooled rule applies.
        assert_eq!(window_tails(&[ramp(500), ramp(499)], 0.99), None);
        assert_eq!(
            window_tails(&[ramp(500), ramp(500)], 0.99),
            Some(vec![495.0])
        );
    }

    #[test]
    fn median_sorts_and_reps_take_the_middle() {
        let xs: Vec<f64> = ramp(21).into_iter().rev().collect();
        assert_eq!(median(xs), Some(11.0));
        assert_eq!(median_of_reps(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of_reps(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_of_reps(&[5.0, 1.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile_of_reps(&[7.0], 0.1), 7.0);
    }
}
