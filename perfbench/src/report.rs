//! Result bookkeeping: named metrics with units, the attempted/failed
//! tally of output checks, order statistics, and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Named metric values with their units, printed in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.values.get(name).map(|&(_, u)| u)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// Operations attempted and failed. Every job that must finish, every pair
/// that must co-start, every RPC of the live workload and every output
/// check is one attempted operation; a failed check is a failed one.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the human-readable output.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.note(format!("{failed} of {n} {what} failed"));
        }
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, msg: String) {
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.note(f);
        }
    }
}

/// What one benchmark run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Output digest of the first pass.
    pub digest: u64,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted, self.tally.failed
        );
        for (i, (name, (value, unit))) in self.metrics.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values cannot be written as JSON numbers; they only
            // arise from a broken measurement, which the caller reports as a
            // failed check before printing.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += secs(t0);
    out
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally.count(3, 0, "jobs");
        o.metrics.set("jobs_per_s", 12.5, "1/s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"jobs_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }
}
