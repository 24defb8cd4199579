//! What a run prints: human-readable lines first (fingerprint, checks,
//! every metric with its unit), then one JSON result object as the
//! last line of standard output. The same record, with the fingerprint
//! and the checks, is written to `perfbench/results/`.

use crate::fingerprint::Fingerprint;
use crate::stats::Samples;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations failed, shed or timed out in the measured window.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Reports the `q` tail of `samples`, or fails a check when the
    /// sample count cannot support it.
    pub fn tail_metric(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        match samples.reportable(q) {
            Some(v) => self.metric(name, v, unit),
            None => self.check(
                name,
                false,
                format!("{} samples cannot support this percentile", samples.len()),
            ),
        }
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Folds in a probe's traced run: its operations, its checks and
    /// notes under the probe's name, and the metrics not yet reported.
    pub fn absorb(&mut self, probe: &str, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.push(format!("probe {probe}:"));
        self.notes
            .extend(other.notes.into_iter().map(|l| format!("  {l}")));
        self.checks.extend(other.checks.into_iter().map(|c| Check {
            name: format!("{probe}/{}", c.name),
            ..c
        }));
        for m in other.metrics {
            if !self.metrics.iter().any(|own| own.name == m.name) {
                self.metrics.push(m);
            }
        }
    }

    /// Every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record: fingerprint, checks and the result.
    pub fn record_json(&self, fp: &Fingerprint) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                    json_str(&c.name),
                    c.passed,
                    json_str(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"fingerprint\": {}, \"checks\": [{}], \"result\": {}}}\n",
            fp.to_json(),
            checks.join(", "),
            self.result_json()
        )
    }

    /// Prints the human-readable lines and, last, the result line.
    pub fn print(&self, fp: &Fingerprint) {
        println!("fingerprint {}", fp.to_json());
        for line in &self.notes {
            println!("{line}");
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok" } else { "FAIL" };
            println!("check {:<28} {verdict:<4} {}", c.name, c.detail);
        }
        for m in &self.metrics {
            println!("metric {:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.result_json());
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms_p50", 1.25, "ms");
        o.check("digest", true, "");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.metric("broken", f64::INFINITY, "ms");
        assert!(!o.correct());
        assert!(!o.result_json().contains("broken"));
    }

    #[test]
    fn a_probe_adds_only_what_is_missing() {
        let mut own = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        own.metric("shared", 1.0, "ms");
        let mut probe = Outcome {
            attempted: 2,
            failed: 1,
            ..Outcome::default()
        };
        probe.metric("shared", 2.0, "ms");
        probe.metric("probe_only", 3.0, "ms");
        probe.check("digest", false, "");
        own.absorb("p", probe);
        assert_eq!((own.attempted, own.failed), (5, 1));
        let values: Vec<(&str, f64)> = own
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.value))
            .collect();
        assert_eq!(values, [("shared", 1.0), ("probe_only", 3.0)]);
        assert_eq!(own.checks[0].name, "p/digest");
        assert!(!own.correct());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
