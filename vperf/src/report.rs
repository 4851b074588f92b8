//! What a run prints: one line per metric for people, and as the last line
//! of standard output one JSON object for the driver.

use std::fmt::Write as _;

use crate::stats::Spread;

/// A reported value with its unit and, for host metrics, the spread across
/// repetitions it is the median of.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub spread: Option<Spread>,
}

/// The driver's view of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Value>,
}

/// Shortest decimal form that reads back as the same `f64`.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value is not a number");
    format!("{v:?}")
}

impl ResultLine {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads back a line [`ResultLine::to_json`] wrote.
    pub fn parse(line: &str) -> Option<ResultLine> {
        let after = |s: &str, key: &str| s.find(key).map(|i| s[i + key.len()..].to_string());
        let word = |s: &str| {
            s.trim_start()
                .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
                .next()
                .unwrap_or("")
                .to_string()
        };
        let correct = word(&after(line, "\"correct\":")?) == "true";
        let attempted = word(&after(line, "\"attempted\":")?).parse().ok()?;
        let failed = word(&after(line, "\"failed\":")?).parse().ok()?;
        let body = after(line, "\"metrics\": {")?;
        let mut metrics = Vec::new();
        for part in body.split("\"}").filter(|p| p.contains("\"value\":")) {
            let name = part.split('"').nth(1)?.to_string();
            let value = word(&after(part, "\"value\":")?).parse().ok()?;
            let unit = after(part, "\"unit\": \"")?;
            metrics.push(Value {
                name,
                value,
                unit,
                spread: None,
            });
        }
        Some(ResultLine {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// `name value unit` with the spread beside a host metric.
pub fn metric_line(m: &Value) -> String {
    match &m.spread {
        Some(s) => format!(
            "{:<34} {:>16.6} {:<6} median of {} (q1 {:.6}, q3 {:.6}, iqr {:.2}%)",
            m.name,
            m.value,
            m.unit,
            s.n,
            s.q1,
            s.q3,
            s.iqr_pct()
        ),
        None => format!("{:<34} {:>16.6} {:<6}", m.name, m.value, m.unit),
    }
}

/// The same as a JSON object, for `BENCH_vperf.json`.
pub fn value_json(m: &Value) -> String {
    let spread = m.spread.map_or(String::new(), |s| {
        format!(
            ", \"q1\": {}, \"q3\": {}, \"n\": {}",
            num(s.q1),
            num(s.q3),
            s.n
        )
    });
    format!(
        "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"{spread}}}",
        m.name,
        num(m.value),
        m.unit
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let line = ResultLine {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Value {
                    name: "setup_s".into(),
                    value: 0.123_456_789_012_345_67,
                    unit: "s".into(),
                    spread: None,
                },
                Value {
                    name: "visa.insts_per_op".into(),
                    value: 5116.0,
                    unit: "count".into(),
                    spread: None,
                },
            ],
        };
        let json = line.to_json();
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        // Seventeen significant digits survive, not a rounded `{:.6}`.
        assert!(json.contains("\"value\": 0.1234567890123456"));
        assert_eq!(ResultLine::parse(&json), Some(line));
        assert_eq!(ResultLine::parse("not json"), None);
    }
}
