//! Percentiles, the metric list and the result line.

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency summary of one window, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Latency {
    /// Sorts `lat_ns` in place and summarises it.
    pub fn of(lat_ns: &mut [u32]) -> Latency {
        lat_ns.sort_unstable();
        Latency {
            n: lat_ns.len(),
            p50_us: percentile(lat_ns, 50.0) as f64 / 1e3,
            p99_us: percentile(lat_ns, 99.0) as f64 / 1e3,
        }
    }
}

/// One reported metric: name, value, unit and the number of samples it
/// summarises.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// The human-readable table: one metric per line with its sample count.
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!("# {workload}\n");
    for m in metrics {
        out.push_str(&format!(
            "{:<34} {:>16.4} {:<8} n={}\n",
            m.name, m.value, m.unit, m.n
        ));
    }
    out
}

/// The single JSON result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number with all its digits; non-finite values (which no
/// metric should produce) become 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn latency_summary_reports_its_sample_count() {
        let mut lat: Vec<u32> = (0..1000).rev().map(|i| i * 1000).collect();
        let s = Latency::of(&mut lat);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50_us, 499.0);
        assert_eq!(s.p99_us, 989.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[metric("setup_s", 1.25, "s", 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(table("w", &[metric("setup_s", 1.25, "s", 3)]).contains("n=3"));
    }
}
