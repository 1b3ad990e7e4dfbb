//! Minimal JSON value tree and renderer shared by the figure generators.
//!
//! Every machine-readable figure (`BENCH_cache.json`, `BENCH_warmup.json`,
//! `BENCH_drift.json`, `BENCH_server.json`, `BENCH_compile.json`) is built
//! as a [`Json`] tree and rendered through this one deterministic writer
//! instead of per-bin hand-rolled `format!` strings. The house style is
//! compact — no spaces after `:` or `,` — with the top-level object and its
//! direct array children split across lines so diffs stay reviewable.
//!
//! Floats that need a fixed precision are carried pre-formatted as
//! [`Json::Raw`] (see [`Json::f1`]) so rendering is byte-deterministic and
//! never subject to float-formatting drift.

use incline_vm::trace::json::{JsonArray, JsonField, JsonObj};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// A pre-formatted number (fixed-precision floats).
    Raw(String),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// An object from `(key, value)` pairs (field order is preserved).
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A float rendered with one decimal place (`{:.1}`) — the precision
    /// every cycle-count figure uses.
    pub fn f1(v: f64) -> Json {
        Json::Raw(format!("{v:.1}"))
    }

    /// A float rendered with three decimal places (`{:.3}`).
    pub fn f3(v: f64) -> Json {
        Json::Raw(format!("{v:.3}"))
    }

    /// Fully compact rendering: no whitespace anywhere.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// The house rendering: a top-level object puts each field on its own
    /// line, a direct array child puts each element on its own line, and
    /// everything deeper is compact.
    pub fn render(&self) -> String {
        let Json::Obj(fields) = self else {
            return self.compact();
        };
        let mut out = String::from("{\n");
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str("  ");
            k.write_json(&mut out);
            out.push(':');
            match v {
                Json::Arr(items) if !items.is_empty() => {
                    for (j, item) in items.iter().enumerate() {
                        out.push_str(if j > 0 { ",\n    " } else { "[\n    " });
                        item.write_json(&mut out);
                    }
                    out.push_str("\n  ]");
                }
                other => other.write_json(&mut out),
            }
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push('}');
        out
    }
}

/// The tree renders through the workspace's one JSON writer (and its one
/// string escaper), `incline_trace::json`.
impl JsonField for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Bool(b) => b.write_json(out),
            Json::U64(v) => v.write_json(out),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => s.write_json(out),
            Json::Arr(items) => JsonArray(items.iter()).write_json(out),
            Json::Obj(fields) => {
                let mut obj = JsonObj::begin(out);
                for (k, v) in fields {
                    obj.field(k, v);
                }
                obj.end();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_has_no_spaces() {
        let j = Json::obj(vec![
            ("a", 1u64.into()),
            ("b", Json::Arr(vec![true.into(), "x".into()])),
        ]);
        assert_eq!(j.compact(), "{\"a\":1,\"b\":[true,\"x\"]}");
    }

    #[test]
    fn render_splits_top_level_and_arrays() {
        let j = Json::obj(vec![
            ("name", "w".into()),
            ("rows", Json::Arr(vec![Json::obj(vec![("x", 1u64.into())])])),
        ]);
        let text = j.render();
        assert!(text.starts_with("{\n  \"name\":\"w\",\n  \"rows\":[\n"));
        assert!(text.contains("    {\"x\":1}\n  ]"));
        assert!(text.ends_with("\n}"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::Str("a\"b\\c\n".into()).compact(),
            "\"a\\\"b\\\\c\\n\""
        );
    }

    #[test]
    fn fixed_precision_floats_are_deterministic() {
        assert_eq!(Json::f1(1234.56).compact(), "1234.6");
        assert_eq!(Json::f3(0.5).compact(), "0.500");
    }

    #[test]
    fn negative_and_bool_values() {
        assert_eq!(Json::I64(-3).compact(), "-3");
        assert_eq!(Json::Bool(false).compact(), "false");
    }
}
