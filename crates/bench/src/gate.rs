//! The microbenchmark binaries' shared command line, report writer and
//! regression gate.
//!
//! `ring_bench` and `vos_bench` take the same arguments,
//! `[--quick] [--out PATH] [--check BASELINE [--min-ratio R]]`. Each
//! writes its report as JSON through [`obs::json`], and with `--check`
//! compares a few gated metrics against a committed baseline report.

/// The parsed command line of a microbenchmark binary.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--quick`: the short run CI gates on.
    pub quick: bool,
    /// `--out PATH`: where the JSON report goes.
    pub out: String,
    /// `--check BASELINE`: the committed report to gate against.
    pub check: Option<String>,
    /// `--min-ratio R`: a gated metric fails below `R` × its baseline.
    pub min_ratio: f64,
}

impl BenchArgs {
    /// Parses the process arguments, with `default_out` as the report
    /// path when `--out` is absent. Exits 2 on a bad command line,
    /// including one whose report path is its `--check` baseline: the
    /// run would overwrite the baseline and then gate against itself.
    pub fn from_env(bin: &str, default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::parse(default_out, &args).unwrap_or_else(|message| {
            eprintln!(
                "{message}\nusage: {bin} [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]"
            );
            std::process::exit(2);
        })
    }

    fn parse(default_out: &str, args: &[String]) -> Result<Self, String> {
        let mut parsed = BenchArgs {
            quick: false,
            out: default_out.to_string(),
            check: None,
            min_ratio: 0.8,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--out" => parsed.out = value()?,
                "--check" => parsed.check = Some(value()?),
                "--min-ratio" => {
                    parsed.min_ratio = value()?.parse().map_err(|_| "--min-ratio needs a number")?
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if parsed.check.as_ref() == Some(&parsed.out) {
            return Err(format!(
                "the report would overwrite the baseline {}: pass --out PATH",
                parsed.out
            ));
        }
        Ok(parsed)
    }

    /// Writes the report to `--out`.
    pub fn write_report(&self, json: &str) {
        std::fs::write(&self.out, format!("{json}\n")).expect("write report");
        eprintln!("  wrote {}", self.out);
    }

    /// With `--check`, compares each `(key, measured)` against
    /// `--min-ratio` × the baseline's value of the same key and exits 1
    /// if any falls below. `scope` names the baseline object holding
    /// the keys. Without `--check`, does nothing.
    pub fn gate(&self, bin: &str, scope: &str, metrics: &[(String, f64)]) {
        let Some(path) = &self.check else {
            return;
        };
        let baseline =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let mut failed = false;
        for (key, measured) in metrics {
            let base = baseline_metric(&baseline, scope, key)
                .unwrap_or_else(|| panic!("baseline {path} lacks {scope}.{key}"));
            let floor = base * self.min_ratio;
            let below = *measured < floor;
            failed |= below;
            let verdict = if below { "REGRESSION" } else { "ok" };
            eprintln!(
                "  gate {key}: measured {measured:.2} vs baseline {base:.2} (floor {floor:.2}) .. {verdict}"
            );
        }
        if failed {
            eprintln!(
                "{bin}: a gated metric fell more than {:.0}% below its baseline",
                (1.0 - self.min_ratio) * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// Reads the number at `"key"` inside the flat object that follows the
/// first `"scope"` key of a report. Enough to gate on a report without
/// a JSON parser; it reads the compact output of [`obs::json`] and the
/// indented reports committed by earlier versions alike.
pub fn baseline_metric(json: &str, scope: &str, key: &str) -> Option<f64> {
    let object = json.split(&format!("\"{scope}\"")).nth(1)?;
    let object = &object[..object.find('}')?];
    let tail = object.split(&format!("\"{key}\"")).nth(1)?;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shared_command_line() {
        let args = "--quick --out o.json --check B.json --min-ratio 0.5".split(' ');
        let args: Vec<String> = args.map(String::from).collect();
        let parsed = BenchArgs::parse("B.json", &args).unwrap();
        assert!(parsed.quick && parsed.out == "o.json" && parsed.min_ratio == 0.5);
        assert_eq!(parsed.check.as_deref(), Some("B.json"));
        let defaults = BenchArgs::parse("B.json", &[]).unwrap();
        assert!(!defaults.quick && defaults.out == "B.json" && defaults.check.is_none());
        for bad in [&["--bogus"][..], &["--out"], &["--min-ratio", "x"]] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(BenchArgs::parse("B.json", &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn refuses_to_write_the_report_over_its_baseline() {
        for args in ["--quick --check B.json", "--out o.json --check o.json"] {
            let args: Vec<String> = args.split(' ').map(String::from).collect();
            let message = BenchArgs::parse("B.json", &args).unwrap_err();
            assert!(message.contains("pass --out"), "{message}");
        }
        let args: Vec<String> = ["--check", "B.json", "--out", "o.json"]
            .map(String::from)
            .to_vec();
        assert!(BenchArgs::parse("B.json", &args).is_ok());
    }

    #[test]
    fn reads_a_key_only_within_its_scope() {
        let json = r#"{"other":{"a":9},"scope":{"a":1.500,"b":7},"after":3.000}"#;
        assert_eq!(baseline_metric(json, "scope", "a"), Some(1.5));
        assert_eq!(baseline_metric(json, "scope", "b"), Some(7.0));
        assert_eq!(baseline_metric(json, "scope", "after"), None);
        assert_eq!(baseline_metric(json, "missing", "a"), None);
    }

    /// The committed baselines the CI gates read.
    #[test]
    fn reads_the_committed_baselines() {
        let ring = include_str!("../../../BENCH_ring.json");
        let read = |key| baseline_metric(ring, "lockfree_ring", key);
        assert_eq!(read("stream_mops"), Some(25.24));
        let vos = include_str!("../../../BENCH_vos.json");
        let read = |key| baseline_metric(vos, "gate", key);
        assert_eq!(read("bulk_single_mbps_4096"), Some(5024.29));
        assert_eq!(read("stream_shared_mbps_4096"), Some(6858.05));
    }
}
