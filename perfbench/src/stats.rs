//! Exact order statistics and the per-run report.
//!
//! Every timed sample is kept; quantiles come from sorting them, never
//! from the engines' log2-bucket histograms (whose quantiles are only
//! accurate to within 2×).

use crate::calib::{HostProbe, HALF_WINDOW, REFERENCE_MS};
use std::fmt::Write as _;
use std::time::Duration;

/// A quantile is refused unless at least this many samples lie beyond
/// it, so a reported p90 always rests on a real tail.
pub const MIN_TAIL: usize = 10;

/// Every sample of one timed quantity, in recording order.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Records a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank `pct`-th percentile: the sample of 1-based rank
    /// `⌈pct·n/100⌉` in sorted order. Refused when fewer than
    /// [`MIN_TAIL`] samples rank above it.
    pub fn percentile(&self, pct: usize) -> Result<f64, String> {
        assert!((1..=100).contains(&pct), "percentile out of range");
        let n = self.0.len();
        let rank = (pct * n).div_ceil(100);
        if rank == 0 || n - rank < MIN_TAIL {
            return Err(format!(
                "p{pct} over {n} samples has {} beyond it, fewer than {MIN_TAIL}",
                n.saturating_sub(rank)
            ));
        }
        Ok(nearest_rank(&self.0, rank))
    }

    /// The samples scaled to a host on which the speed probe takes
    /// `reference` ms. `probes` holds one probe time per sample, taken
    /// in the same iteration, in the same order. Sample `i` is multiplied
    /// by `reference` over the median of the probes `i − half ..= i + half`
    /// (fewer at either end). The window spans about a second, so a slow
    /// spell of the host slows the sample and the probes around it alike
    /// and the scaled sample passes it by; the median keeps one stalled
    /// probe from moving it.
    pub fn host_scaled(
        &self,
        probes: &Samples,
        half: usize,
        reference: f64,
    ) -> Result<Samples, String> {
        let n = self.len();
        if probes.len() != n {
            return Err(format!("{n} samples but {} host probes", probes.len()));
        }
        let mut scaled = Samples::default();
        for (i, &x) in self.0.iter().enumerate() {
            let p = &probes.0[i.saturating_sub(half)..(i + half + 1).min(n)];
            scaled.push(x * reference / nearest_rank(p, p.len().div_ceil(2)));
        }
        Ok(scaled)
    }
}

/// The sample of 1-based `rank` in sorted order.
fn nearest_rank(values: &[f64], rank: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a quantile or mean, when it has any.
    pub samples: Option<usize>,
}

/// Everything one workload run reports: parameters for the header,
/// operation accounting, and metrics.
#[derive(Default)]
pub struct Report {
    pub params: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn param(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.params.push((key, value.to_string()));
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed, keeping the first
    /// few reasons for the log.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why.into());
        }
    }

    /// Counts `ok` as success or records `why` as a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, None);
    }

    /// A mean over `n` samples.
    pub fn mean(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.push(name, value, unit, Some(n));
    }

    /// Records `{prefix}_p50_{unit}` and `{prefix}_p90_{unit}` (or only
    /// the p50 when `with_p90` is false).
    pub fn quantiles(
        &mut self,
        prefix: &str,
        s: &Samples,
        unit: &'static str,
        with_p90: bool,
    ) -> Result<(), String> {
        let pcts: &[usize] = if with_p90 { &[50, 90] } else { &[50] };
        for &pct in pcts {
            let q = s.percentile(pct).map_err(|e| format!("{prefix}: {e}"))?;
            self.push(&format!("{prefix}_p{pct}_{unit}"), q, unit, Some(s.len()));
        }
        Ok(())
    }

    /// [`Report::quantiles`] of `s` scaled to the reference host speed
    /// ([`Samples::host_scaled`]), and of `s` as measured under
    /// `{prefix}_raw`. Returns the scaled samples.
    pub fn host_quantiles(
        &mut self,
        prefix: &str,
        s: &Samples,
        probe: &HostProbe,
        with_p90: bool,
    ) -> Result<Samples, String> {
        let scaled = s
            .host_scaled(&probe.ms, HALF_WINDOW, REFERENCE_MS)
            .map_err(|e| format!("{prefix}: {e}"))?;
        self.quantiles(prefix, &scaled, "ms", with_p90)?;
        self.quantiles(&format!("{prefix}_raw"), s, "ms", with_p90)?;
        Ok(scaled)
    }

    /// The median host probe time, printed next to the scaled metrics.
    pub fn host_probe(&mut self, probe: &HostProbe) -> Result<(), String> {
        let ms = probe.ms.percentile(50).map_err(|e| format!("host probe: {e}"))?;
        self.mean("host.probe_ms", ms, "ms", probe.ms.len());
        Ok(())
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The contract line: `correct`, `attempted`, `failed` and the named
    /// metrics, or an error naming the first metric this run lacks.
    pub fn result_line(&self, names: &[&str]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_on_hand_computed_inputs() {
        // 1..=100 pushed in reverse: rank ⌈50⌉ = 50, rank ⌈90⌉ = 90.
        let s = samples((1..=100).rev().map(f64::from));
        assert_eq!(s.percentile(50), Ok(50.0));
        assert_eq!(s.percentile(90), Ok(90.0));
        // n = 101: rank ⌈90.9⌉ = 91, and 10 samples lie beyond it.
        let s = samples((1..=101).map(f64::from));
        assert_eq!(s.percentile(90), Ok(91.0));
        assert_eq!(s.percentile(50), Ok(51.0));
        // Ties and unsorted input: 20 samples, ten 1s and ten 5s.
        let s = samples((0..20).map(|i| if i % 2 == 0 { 5.0 } else { 1.0 }));
        assert_eq!(s.percentile(50), Ok(1.0));
    }

    #[test]
    fn refuses_quantiles_without_ten_samples_beyond() {
        // n = 99: p90 is rank 90 with only 9 samples beyond it.
        assert!(samples((1..=99).map(f64::from)).percentile(90).is_err());
        // n = 19: the median (rank 10) has 9 beyond it.
        assert!(samples((1..=19).map(f64::from)).percentile(50).is_err());
        assert_eq!(samples((1..=20).map(f64::from)).percentile(50), Ok(10.0));
        assert!(Samples::default().percentile(50).is_err());
    }

    #[test]
    fn host_scaled_divides_out_a_slow_spell() {
        // Half-window 1. The last four samples ran at half speed: their
        // work and probes took twice as long. The stalled probe of 100
        // moves no median. Windows and their lower medians: (2, 2) → 2,
        // (2, 2, 2) → 2, (2, 2, 4) → 2, (2, 4, 4) → 4, (4, 4, 100) → 4,
        // (4, 100, 4) → 4, (100, 4) → 4.
        let s = samples([10.0, 20.0, 30.0, 40.0, 20.0, 40.0, 60.0]);
        let probes = samples([2.0, 2.0, 2.0, 4.0, 4.0, 100.0, 4.0]);
        let scaled = s.host_scaled(&probes, 1, 4.0).unwrap();
        assert_eq!(scaled.0, [20.0, 40.0, 60.0, 40.0, 20.0, 40.0, 60.0]);
        // Half-window 0 scales each sample by its own probe.
        let scaled = s.host_scaled(&probes, 0, 1.0).unwrap();
        assert_eq!(scaled.0, [5.0, 10.0, 15.0, 10.0, 5.0, 0.4, 15.0]);
        // One probe per sample.
        assert!(s.host_scaled(&samples([1.0; 4]), 1, 1.0).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let mut r = Report::default();
        r.ok();
        r.metric("a_ms", 1.5, "ms");
        r.metric("b", 2.0, "count");
        let line = r.result_line(&["a_ms"]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(r.result_line(&["missing"]).is_err());
        r.fail("x");
        assert!(r
            .result_line(&["a_ms"])
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
