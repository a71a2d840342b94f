//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! naming rule, open-loop latency and the goodput/error accounting.

/// Median of `v` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile of `v` by the nearest-rank method: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(v: &[f64], p: u32) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// The tail percentiles the benchmark reports, highest first.
const LADDER: [u32; 4] = [99, 95, 90, 50];

/// The highest percentile on [`LADDER`] that leaves at least ten samples
/// strictly beyond it in `n` samples, or `None` when not even the median
/// does (fewer than 20 samples). A p99 therefore needs 1000 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// One open-loop request outcome as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// When the schedule said the request should be sent (ns since the
    /// phase epoch).
    pub due_ns: u64,
    /// When the request was actually written (ns since the epoch).
    pub sent_ns: u64,
    /// When its final answer was observed (ns since the epoch); `None`
    /// for a request that never completed.
    pub done_ns: Option<u64>,
    /// True when the answer arrived and was correct.
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, so a stalled server or a late
    /// generator inflates every request queued behind the stall. `None`
    /// for failures: they have no latency, only a missed limit.
    pub fn latency_ms(&self) -> Option<f64> {
        match (self.ok, self.done_ns) {
            (true, Some(done)) => Some(done.saturating_sub(self.due_ns) as f64 / 1e6),
            _ => None,
        }
    }

    /// How late the generator sent this request, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// True when the request succeeded within `limit_ms` of its due
    /// time. A failed or refused request misses every limit.
    pub fn within(&self, limit_ms: f64) -> bool {
        self.latency_ms().is_some_and(|l| l <= limit_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        // Whatever the rule picks really has ten samples beyond it.
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap() as usize;
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&v, p as u32);
            assert!(v.iter().filter(|&&x| x > cut).count() >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // A server that stalls for 100 ms at t=0 and then answers
        // instantly: requests due every 10 ms behind the stall are all
        // answered at t=100 ms, so their latency from the due time
        // shrinks only as the schedule catches up — and the generator's
        // lateness (sent after due) is included, not hidden.
        let ms = 1_000_000u64;
        let outs: Vec<Outcome> = (0..10u64)
            .map(|i| Outcome {
                due_ns: i * 10 * ms,
                sent_ns: i * 10 * ms + ms,
                done_ns: Some(100 * ms),
                ok: true,
            })
            .collect();
        let lat: Vec<f64> = outs.iter().filter_map(Outcome::latency_ms).collect();
        assert_eq!(lat[0], 100.0);
        assert_eq!(lat[9], 10.0);
        // Measured from the send time instead, every latency would read
        // as the post-send wait and the first would hide 1 ms of
        // generator lateness.
        assert_eq!(outs[0].late_ms(), 1.0);
        assert_eq!(median(&lat), 55.0);
    }

    #[test]
    fn failures_miss_every_limit() {
        let ok = Outcome {
            due_ns: 0,
            sent_ns: 0,
            done_ns: Some(5_000_000),
            ok: true,
        };
        let wrong = Outcome { ok: false, ..ok };
        let lost = Outcome {
            done_ns: None,
            ..ok
        };
        assert!(ok.within(5.0));
        assert!(!ok.within(4.9));
        assert!(!wrong.within(f64::INFINITY));
        assert!(!lost.within(f64::INFINITY));
        let good = [ok, wrong, lost, ok]
            .iter()
            .filter(|o| o.within(10.0))
            .count();
        assert_eq!(good, 2);
        // Failures carry no latency of their own: a caller must charge
        // them (serve_mix reads them as the drain deadline) rather than
        // drop them and flatter a percentile.
        assert_eq!(wrong.latency_ms(), None);
        assert_eq!(lost.latency_ms(), None);
    }
}
