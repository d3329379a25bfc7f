//! Percentiles and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; `None` when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// An ordered list of named metrics with units. Registered metrics go
/// into the JSON result; informational ones are only printed.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, bool)>,
}

impl Metrics {
    /// Adds a metric registered in `BENCHMARK.json`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit, true));
    }

    /// Adds a metric that is printed but not part of the JSON result.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit, false));
    }

    /// `(name, value, unit, registered)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str, bool)> {
        self.entries.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over the registered
    /// metrics.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let registered = self.entries.iter().filter(|e| e.3);
        for (i, (name, value, unit, _)) in registered.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become -1.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        let mut m = Metrics::default();
        m.put("x", 1.5, "ms");
        assert_eq!(m.to_json(), "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}");
    }
}
