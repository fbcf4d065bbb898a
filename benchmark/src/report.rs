//! Order statistics and the hand-written JSON the benchmark prints (the
//! workspace has no serde).

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice, which is how a layer with no work reads.
pub fn median(values: &[f64]) -> f64 {
    abae_stats::quantile::quantile_unsorted(values, 0.5).unwrap_or(0.0)
}

/// The tail the benchmark reports: the highest percentile that still has
/// at least `beyond` samples above it. Returns `(percentile, value)`.
pub fn tail(values: &[f64], beyond: usize) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(
        n > beyond,
        "{n} samples cannot have {beyond} beyond the tail"
    );
    let rank = n - beyond;
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON value, enough for the benchmark's output lines.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// An integer count.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style).
    pub fn with(mut self, key: &str, value: Json) -> Self {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Appends `key: value` to an object in place.
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            fields.push((key.to_string(), value));
        }
    }

    /// Compact rendering on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `{:?}` prints every digit needed to round-trip the value.
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One metric entry of the result line: `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", Json::Num(value))
        .with("unit", Json::Str(unit.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // 10 values (31..=40) lie beyond the 75th percentile's value 30.
        assert_eq!(tail(&v, 10), (75.0, 30.0));
    }

    #[test]
    fn json_renders_compactly() {
        let j = Json::obj()
            .with("a", Json::Num(1.5))
            .with("b", Json::Str("x\"y".into()))
            .with("c", Json::Obj(vec![("d".into(), Json::Int(3))]));
        assert_eq!(j.render(), r#"{"a": 1.5, "b": "x\"y", "c": {"d": 3}}"#);
    }
}
