//! The one writer behind every `BENCH_*.json` report.
//!
//! A report is a header — `schema`, `mode`, `cores`, then any further
//! header fields in the order they were added — and a `results` array
//! with one [`Row`] per line. A row is an ordered list of typed fields:
//! integers, numbers printed with a fixed number of decimals, strings,
//! and nested objects. Strings are escaped and non-finite numbers are
//! refused, so whatever [`Report::render`] returns is well-formed JSON
//! by construction.

use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Debug)]
enum Value {
    Int(u64),
    Num(f64, usize),
    Str(String),
    Obj(Row),
}

/// One JSON object of typed fields, kept in insertion order and
/// rendered on a single line.
#[derive(Clone, Debug, Default)]
pub struct Row {
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends an integer field.
    #[must_use]
    pub fn int(mut self, key: &'static str, value: u64) -> Row {
        self.fields.push((key, Value::Int(value)));
        self
    }

    /// Appends a number printed with exactly `decimals` decimals.
    #[must_use]
    pub fn num(mut self, key: &'static str, value: f64, decimals: usize) -> Row {
        self.fields.push((key, Value::Num(value, decimals)));
        self
    }

    /// Appends a string field.
    #[must_use]
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Row {
        self.fields.push((key, Value::Str(value.into())));
        self
    }

    /// Appends a nested object.
    #[must_use]
    pub fn obj(mut self, key: &'static str, value: Row) -> Row {
        self.fields.push((key, Value::Obj(value)));
        self
    }

    fn render(&self, out: &mut String) -> Result<(), String> {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_field(out, key, value)?;
        }
        out.push('}');
        Ok(())
    }
}

fn push_field(out: &mut String, key: &str, value: &Value) -> Result<(), String> {
    push_escaped(out, key);
    out.push_str(": ");
    match value {
        Value::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Num(v, decimals) => {
            if !v.is_finite() {
                return Err(format!("non-finite value {v} for \"{key}\""));
            }
            let _ = write!(out, "{v:.decimals$}");
        }
        Value::Str(s) => push_escaped(out, s),
        Value::Obj(row) => row.render(out)?,
    }
    Ok(())
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A benchmark report: header fields plus result rows.
#[derive(Clone, Debug)]
pub struct Report {
    header: Row,
    rows: Vec<Row>,
}

impl Report {
    /// A report tagged `schema`, run in `mode` (`quick` or `full`), on
    /// this machine's core count; `header` holds the further header
    /// fields (`workload`, a `baseline_pre_pr` note, …).
    pub fn new(schema: &str, mode: &str, header: Row) -> Report {
        let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
        Report::with_cores(schema, mode, cores, header)
    }

    fn with_cores(schema: &str, mode: &str, cores: usize, header: Row) -> Report {
        let mut fields = Row::new()
            .str("schema", schema)
            .str("mode", mode)
            .int("cores", cores as u64)
            .fields;
        fields.extend(header.fields);
        Report {
            header: Row { fields },
            rows: Vec::new(),
        }
    }

    /// Appends one result row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The report as JSON text: one header field per line, one result
    /// row per line.
    ///
    /// # Errors
    ///
    /// Names the field holding a non-finite number.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::from("{\n");
        for (key, value) in &self.header.fields {
            out.push_str("  ");
            push_field(&mut out, key, value)?;
            out.push_str(",\n");
        }
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    ");
            row.render(&mut out)?;
            let last = i + 1 == self.rows.len();
            out.push_str(if last { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        Ok(out)
    }

    /// Renders the report into `path` and returns the text written.
    ///
    /// # Errors
    ///
    /// A non-finite number (nothing is written then) or the I/O failure.
    pub fn write(&self, path: &Path) -> Result<String, String> {
        let text = self.render()?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(text)
    }
}

/// The shape of every result row in a rendered report: each key in
/// order of appearance (nested keys follow their object's key), with
/// the number of decimals of a numeric value and `None` otherwise.
/// Comparing shapes pins a report file to the writer without comparing
/// measurements.
pub fn row_shapes(json: &str) -> Vec<Vec<(String, Option<usize>)>> {
    json.lines()
        .skip_while(|line| line.trim() != "\"results\": [")
        .skip(1)
        .take_while(|line| line.trim_start().starts_with('{'))
        .map(line_shape)
        .collect()
}

fn line_shape(line: &str) -> Vec<(String, Option<usize>)> {
    let mut shape = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        // Scan to the closing quote, skipping escaped ones.
        let body = &rest[open + 1..];
        let mut escaped = false;
        let Some(end) = body.char_indices().find_map(|(i, c)| {
            let close = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            close.then_some(i)
        }) else {
            break;
        };
        let token = &body[..end];
        rest = &body[end + 1..];
        // A string followed by a colon is a key; anything else is a value.
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        let value = value.trim_start();
        let decimals = value
            .starts_with(|c: char| c == '-' || c.is_ascii_digit())
            .then(|| {
                let number = value.split([',', '}']).next().unwrap_or_default().trim();
                number.split_once('.').map_or(0, |(_, frac)| frac.len())
            });
        shape.push((token.to_string(), decimals));
    }
    shape
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_exact_bytes_and_shapes() {
        let mut report =
            Report::with_cores("ftc-test/v1", "quick", 2, Row::new().str("workload", "toy"));
        report.push(
            Row::new()
                .int("n", 10)
                .num("ms", -1.26, 1)
                .str("path", "owned")
                .obj("coalesce", Row::new().int("requests", 3)),
        );
        report.push(Row::new().int("n", 20).num("ms", 0.0, 3));
        let text = report.render().unwrap();
        assert_eq!(
            text,
            "{\n  \"schema\": \"ftc-test/v1\",\n  \"mode\": \"quick\",\n  \"cores\": 2,\n  \"workload\": \"toy\",\n  \"results\": [\n    {\"n\": 10, \"ms\": -1.3, \"path\": \"owned\", \"coalesce\": {\"requests\": 3}},\n    {\"n\": 20, \"ms\": 0.000}\n  ]\n}\n"
        );
        let shape = |pairs: &[(&str, Option<usize>)]| -> Vec<(String, Option<usize>)> {
            pairs.iter().map(|&(k, d)| (k.to_string(), d)).collect()
        };
        assert_eq!(
            row_shapes(&text),
            vec![
                shape(&[
                    ("n", Some(0)),
                    ("ms", Some(1)),
                    ("path", None),
                    ("coalesce", None),
                    ("requests", Some(0)),
                ]),
                shape(&[("n", Some(0)), ("ms", Some(3))]),
            ]
        );
    }

    #[test]
    fn refuses_non_finite_numbers() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut report = Report::with_cores("ftc-test/v1", "quick", 1, Row::new());
            report.push(Row::new().obj("inner", Row::new().num("ratio", bad, 2)));
            let err = report.render().unwrap_err();
            assert!(err.contains("\"ratio\""), "{err}");
        }
        let header = Row::new().obj("baseline", Row::new().num("x", f64::NAN, 1));
        let report = Report::with_cores("ftc-test/v1", "quick", 1, header);
        assert!(report.render().is_err());
    }

    #[test]
    fn escapes_strings() {
        let mut report = Report::with_cores("ftc-test/v1", "quick", 1, Row::new());
        report.push(Row::new().str("s", "a\"b\\c\nd\te\u{1}f ü"));
        let text = report.render().unwrap();
        assert!(
            text.contains(r#"{"s": "a\"b\\c\nd\te\u0001f ü"}"#),
            "{text}"
        );
        // The escaped value does not confuse the shape scanner.
        assert_eq!(row_shapes(&text), vec![vec![("s".to_string(), None)]]);
    }
}
