use std::time::Duration;

/// Aggregated results of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Completed operations.
    pub ops: u64,
    /// Failed/timed-out operations.
    pub errors: u64,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
    /// Sum of every completed op's latency (exact).
    pub latency_sum: Duration,
    /// Largest single op latency (exact): Figure 7's metric.
    pub max_latency: Duration,
    /// Completed ops per time bucket (Figure 6's series).
    pub series: Vec<u64>,
    /// Width of one series bucket, in milliseconds.
    pub bucket_ms: u64,
}

impl WorkloadReport {
    /// An empty report with the given series configuration.
    pub fn new(bucket_ms: u64, num_buckets: usize) -> Self {
        WorkloadReport {
            ops: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            latency_sum: Duration::ZERO,
            max_latency: Duration::ZERO,
            series: vec![0; num_buckets],
            bucket_ms: bucket_ms.max(1),
        }
    }

    /// Records a completed op with its latency, attributed to the series
    /// bucket containing `at` (time since workload start).
    pub fn record(&mut self, at: Duration, latency: Duration) {
        self.ops += 1;
        self.latency_sum += latency;
        self.max_latency = self.max_latency.max(latency);
        let bucket = (at.as_millis() as u64 / self.bucket_ms) as usize;
        if let Some(slot) = self.series.get_mut(bucket) {
            *slot += 1;
        }
    }

    /// Records a failed op.
    pub fn record_error(&mut self) {
        self.errors += 1;
    }

    /// Operations per second over the whole run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Mean latency of the completed ops.
    pub fn mean_latency(&self) -> Duration {
        if self.ops == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.latency_sum.as_nanos() / u128::from(self.ops)) as u64)
    }

    /// Ops/sec per series bucket, for plotting.
    pub fn series_ops_per_sec(&self) -> Vec<f64> {
        let scale = 1000.0 / self.bucket_ms as f64;
        self.series.iter().map(|c| *c as f64 * scale).collect()
    }

    /// Merges a per-thread report into this aggregate.
    pub fn merge(&mut self, other: &WorkloadReport) {
        self.ops += other.ops;
        self.errors += other.errors;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latency_sum += other.latency_sum;
        self.max_latency = self.max_latency.max(other.max_latency);
        if self.series.len() < other.series.len() {
            self.series.resize(other.series.len(), 0);
        }
        for (a, b) in self.series.iter_mut().zip(&other.series) {
            *a += b;
        }
    }

    /// One-line summary used by the bench binaries.
    pub fn summary(&self) -> String {
        format!(
            "{:.0} ops/s over {:.2}s ({} ops, {} errors), mean {:.3}ms, max {:.3}ms",
            self.throughput(),
            self.elapsed.as_secs_f64(),
            self.ops,
            self.errors,
            self.mean_latency().as_secs_f64() * 1e3,
            self.max_latency.as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_series_and_throughput() {
        let mut r = WorkloadReport::new(100, 10);
        r.record(Duration::from_millis(50), Duration::from_micros(10));
        r.record(Duration::from_millis(150), Duration::from_micros(10));
        r.record(Duration::from_millis(151), Duration::from_micros(10));
        r.record(Duration::from_millis(9999), Duration::from_micros(10)); // out of range: dropped from series
        r.elapsed = Duration::from_secs(1);
        assert_eq!(r.ops, 4);
        assert_eq!(r.series[0], 1);
        assert_eq!(r.series[1], 2);
        assert_eq!(r.throughput(), 4.0);
        assert_eq!(r.series_ops_per_sec()[1], 20.0);
    }

    #[test]
    fn report_merge() {
        let mut a = WorkloadReport::new(100, 5);
        a.record(Duration::from_millis(10), Duration::from_micros(5));
        a.elapsed = Duration::from_secs(1);
        let mut b = WorkloadReport::new(100, 5);
        b.record(Duration::from_millis(10), Duration::from_micros(5));
        b.record(Duration::from_millis(20), Duration::from_micros(50));
        b.record_error();
        b.elapsed = Duration::from_secs(2);
        a.merge(&b);
        assert_eq!(a.ops, 3);
        assert_eq!(a.errors, 1);
        assert_eq!(a.series[0], 3);
        assert_eq!(a.elapsed, Duration::from_secs(2));
        assert_eq!(a.mean_latency(), Duration::from_micros(20));
        assert_eq!(a.max_latency, Duration::from_micros(50));
        let summary = a.summary();
        assert!(summary.contains("mean 0.020ms, max 0.050ms"), "{summary}");
        assert_eq!(WorkloadReport::new(100, 5).mean_latency(), Duration::ZERO);
    }
}
