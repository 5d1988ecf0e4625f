//! Minimal machine-readable JSON output for the experiment binaries.
//!
//! The build environment is offline (no serde); this is the small subset a
//! perf-trajectory tracker needs: objects, arrays, numbers, strings,
//! rendered pretty enough to diff across PRs. `ablation_blocking` writes
//! `BENCH_ablation_blocking.json` into `bench_results/` next to its CSV.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A JSON value. Build nested structures with [`JsonValue::obj`] /
/// [`JsonValue::arr`] and the `From` impls for numbers/strings.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl JsonValue {
    /// Empty object.
    pub fn obj() -> Self {
        JsonValue::Obj(Vec::new())
    }

    /// Empty array.
    pub fn arr() -> Self {
        JsonValue::Arr(Vec::new())
    }

    /// Appends `key: value` (object values only; panics otherwise —
    /// builder misuse, not data-dependent).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        match &mut self {
            JsonValue::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object JsonValue"),
        }
        self
    }

    /// Appends an element (array values only; panics otherwise).
    #[must_use]
    pub fn push(mut self, value: impl Into<JsonValue>) -> Self {
        match &mut self {
            JsonValue::Arr(items) => items.push(value.into()),
            _ => panic!("push() on a non-array JsonValue"),
        }
        self
    }

    /// Renders with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close_pad = "  ".repeat(depth);
        match self {
            JsonValue::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format_number(*v));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_str_into(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    escape_str_into(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

/// Renders `s` as a quoted, escaped JSON string (shared by string values
/// and object keys).
fn escape_str_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Integers render without a fraction; everything else keeps full shortest
/// round-trip precision.
fn format_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Writes `value` to `dir/BENCH_<name>.json` (creating `dir` if needed);
/// returns the path.
pub fn write_bench_json(dir: &str, name: &str, value: &JsonValue) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("BENCH_{name}.json"));
    let mut file = fs::File::create(&path)?;
    writeln!(file, "{}", value.render())?;
    Ok(path)
}

/// Percentile (0..=100, nearest-rank on a copy) of a sample set; `0.0` for
/// an empty set.
///
/// Re-exported from [`ftgemm_obs`] so benchmark summaries and the metrics
/// histogram's [`quantile`](ftgemm_obs::Histogram::quantile) share one
/// rank-selection rule (same divisor, same rounding).
pub use ftgemm_obs::percentile;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let v = JsonValue::obj()
            .field("bench", "serve")
            .field("threads", 8usize)
            .field("rps", 1234.5f64)
            .field(
                "rows",
                JsonValue::arr().push(JsonValue::obj().field("max_batch", 1usize)),
            );
        let s = v.render();
        assert!(s.contains("\"bench\": \"serve\""));
        assert!(s.contains("\"threads\": 8"));
        assert!(s.contains("\"rps\": 1234.5"));
        assert!(s.contains("\"max_batch\": 1"));
    }

    #[test]
    fn escapes_strings_and_handles_nonfinite() {
        let v = JsonValue::obj()
            .field("s", "a\"b\\c\nd")
            .field("nan", f64::NAN);
        let s = v.render();
        assert!(s.contains("\\\"b\\\\c\\nd"));
        assert!(s.contains("\"nan\": null"));
    }

    #[test]
    fn escapes_object_keys() {
        let v = JsonValue::obj().field("p\"50\"", 1usize);
        assert!(v.render().contains("\"p\\\"50\\\"\": 1"));
    }

    #[test]
    fn percentiles() {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 0.0), 0.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample_at_any_pct() {
        for pct in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], pct), 7.5, "pct {pct}");
        }
    }

    #[test]
    fn percentile_two_samples_split_at_the_midpoint() {
        // Nearest-rank over [1, 9]: the fractional rank pct/100 rounds to
        // index 0 below 50% and to index 1 from 50% up (f64::round is
        // half-away-from-zero, so exactly 0.5 lands on the upper sample).
        let two = [1.0, 9.0];
        assert_eq!(percentile(&two, 0.0), 1.0);
        assert_eq!(percentile(&two, 49.0), 1.0);
        assert_eq!(percentile(&two, 50.0), 9.0);
        assert_eq!(percentile(&two, 100.0), 9.0);
    }

    #[test]
    fn percentile_sorts_its_input_copy() {
        // Unsorted input must give the same answers as sorted input, and
        // must not be reordered in place.
        let unsorted = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(percentile(&unsorted, 0.0), 10.0);
        assert_eq!(percentile(&unsorted, 50.0), 30.0);
        assert_eq!(percentile(&unsorted, 100.0), 50.0);
        assert_eq!(unsorted, [30.0, 10.0, 50.0, 20.0, 40.0]);
    }

    #[test]
    fn percentile_clamps_out_of_range_pct() {
        let samples = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 150.0), 3.0, "pct > 100 clamps to max");
    }

    #[test]
    fn roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("ftgemm-bench-json");
        let v = JsonValue::obj().field("x", 1usize);
        let p = write_bench_json(dir.to_str().unwrap(), "test", &v).unwrap();
        assert!(p.file_name().unwrap().to_str().unwrap() == "BENCH_test.json");
        let s = std::fs::read_to_string(p).unwrap();
        assert!(s.contains("\"x\": 1"));
    }
}
