//! The workspace's one JSON module — no external deps.
//!
//! **Writing.** [`JsonObj`] appends one flat object to a `String`; every
//! value goes through [`JsonField`], which encodes by *type*: integers as
//! numbers, `f64` with Rust's shortest-roundtrip `Display` (deterministic;
//! non-finite becomes `null`), strings through the one [`escape_into`],
//! method ids in their `Display` form (`"m3"`), `Option` as the value or
//! `null`, pairs and [`JsonArray`]s as arrays. [`CompileEvent::to_json`]
//! (generated by the `events!` declaration), the snapshot writer and the
//! figure tree of `incline-bench` all write through here.
//!
//! **Reading.** [`parse_object`] is the strict reader of the snapshot
//! format: flat objects whose values are unsigned integers, escape-free
//! strings, or arrays of those nested at most [`MAX_DEPTH`] deep. Anything
//! else is an error, never a panic: the reader keeps its own bounded stack
//! instead of recursing and allocates only for values it has actually read.
//!
//! [`CompileEvent::to_json`]: crate::CompileEvent::to_json

use std::fmt::Write as _;

use incline_ir::MethodId;
use incline_opt::OptStats;

use crate::event::{BailoutStage, CodeTier, OptPhase};

/// Appends `value` to `buf` with JSON string escaping (no quotes added).
/// Every character that needs an escape is one ASCII byte, so the text is
/// scanned as bytes and copied in the clean runs between them.
pub fn escape_into(buf: &mut String, value: &str) {
    let mut clean = 0;
    for (i, byte) in value.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        buf.push_str(&value[clean..i]);
        buf.push_str(escape);
        if escape == "\\u00" {
            let _ = write!(buf, "{byte:02x}");
        }
        clean = i + 1;
    }
    buf.push_str(&value[clean..]);
}

/// Appends `n` in decimal — `write!(buf, "{n}")` without the formatter.
fn push_u64(buf: &mut String, mut n: u64) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A value that knows its JSON encoding. One impl per type: the encoding of
/// an event field is a function of its type alone.
pub trait JsonField {
    /// Appends this value's JSON encoding to `buf`.
    fn write_json(&self, buf: &mut String);
}

/// One impl per listed type, each the closure-like body given.
macro_rules! json_fields {
    ($($ty:ty),*: |$self:ident, $buf:ident| $write:expr) => {$(
        impl JsonField for $ty {
            fn write_json(&self, $buf: &mut String) {
                let $self = self;
                $write;
            }
        }
    )*};
}
json_fields!(u64: |n, buf| push_u64(buf, *n));
json_fields!(u32, usize: |n, buf| push_u64(buf, *n as u64));
// The label enums, and ids: their `Display` is a bare identifier.
json_fields!(MethodId, OptPhase, BailoutStage, CodeTier: |label, buf| {
    let _ = write!(buf, "\"{label}\"");
});

impl JsonField for f64 {
    fn write_json(&self, buf: &mut String) {
        if self.is_finite() {
            let _ = write!(buf, "{self}");
        } else {
            buf.push_str("null");
        }
    }
}

impl JsonField for bool {
    fn write_json(&self, buf: &mut String) {
        buf.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonField for str {
    fn write_json(&self, buf: &mut String) {
        buf.push('"');
        escape_into(buf, self);
        buf.push('"');
    }
}

impl JsonField for String {
    fn write_json(&self, buf: &mut String) {
        self.as_str().write_json(buf);
    }
}

impl JsonField for char {
    fn write_json(&self, buf: &mut String) {
        self.encode_utf8(&mut [0; 4]).write_json(buf);
    }
}

impl<T: JsonField> JsonField for Option<T> {
    fn write_json(&self, buf: &mut String) {
        match self {
            Some(value) => value.write_json(buf),
            None => buf.push_str("null"),
        }
    }
}

/// A pair is the two-element array `[a,b]`.
impl<A: JsonField, B: JsonField> JsonField for (A, B) {
    fn write_json(&self, buf: &mut String) {
        buf.push('[');
        self.0.write_json(buf);
        buf.push(',');
        self.1.write_json(buf);
        buf.push(']');
    }
}

impl<T: JsonField + ?Sized> JsonField for &T {
    fn write_json(&self, buf: &mut String) {
        (**self).write_json(buf);
    }
}

/// The array helper: `[a,b,…]` with one element per item of the wrapped
/// iterator (cloned to be walked, so wrap `slice.iter()` or a `map` of it).
pub struct JsonArray<I>(pub I);

impl<I: Iterator + Clone> JsonField for JsonArray<I>
where
    I::Item: JsonField,
{
    fn write_json(&self, buf: &mut String) {
        buf.push('[');
        for (i, item) in self.0.clone().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            item.write_json(buf);
        }
        buf.push(']');
    }
}

/// An object holding the non-zero counters only.
impl JsonField for OptStats {
    fn write_json(&self, buf: &mut String) {
        let mut obj = JsonObj::begin(buf);
        for (name, value) in [
            ("const_fold", self.const_fold),
            ("strength_red", self.strength_red),
            ("branch_prune", self.branch_prune),
            ("typecheck_fold", self.typecheck_fold),
            ("devirt", self.devirt),
            ("gvn", self.gvn),
            ("rw_elim", self.rw_elim),
            ("dce", self.dce),
            ("blocks_merged", self.blocks_merged),
            ("loops_peeled", self.loops_peeled),
        ] {
            if value != 0 {
                obj.field(name, &value);
            }
        }
        obj.end();
    }
}

/// Incrementally appends one flat JSON object to a buffer: fields come out
/// in call order, compact; commas are placed in this module and nowhere
/// else.
pub struct JsonObj<'a> {
    buf: &'a mut String,
    first: bool,
}

impl<'a> JsonObj<'a> {
    /// Opens an object at the end of `buf`.
    pub fn begin(buf: &'a mut String) -> Self {
        buf.push('{');
        JsonObj { buf, first: true }
    }

    /// Appends `"key":value`.
    pub fn field<T: JsonField + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        key.write_json(self.buf);
        self.buf.push(':');
        value.write_json(self.buf);
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.buf.push('}');
    }
}

// ---- the strict reader -------------------------------------------------------

/// Deepest array nesting [`parse_object`] accepts — what the deepest value
/// of the snapshot format, a receiver histogram list
/// `[[site,[[class,count],…]],…]`, needs.
pub const MAX_DEPTH: usize = 4;

/// One parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// An unsigned integer.
    Num(u64),
    /// A string (the snapshot format needs no escapes).
    Str(String),
    /// An array of values.
    Arr(Vec<Val>),
}

/// A parsed flat object: ordered `(key, value)` pairs.
#[derive(Clone, Debug, Default)]
pub struct Obj {
    fields: Vec<(String, Val)>,
}

/// Keys paired with `[(a, b), ...]` lists, as read by [`Obj::nested_pairs`].
pub type NestedPairs = Vec<(u64, Vec<(u64, u64)>)>;

impl Obj {
    fn get(&self, key: &str) -> Option<&Val> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An unsigned integer field.
    pub fn num(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A 16-digit lowercase hex string field.
    pub fn hex(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.str(key)?, 16).ok()
    }

    /// `[[a,b],...]` — an array of integer pairs.
    pub fn pairs(&self, key: &str) -> Option<Vec<(u64, u64)>> {
        match self.get(key)? {
            Val::Arr(items) => items.iter().map(pair).collect(),
            _ => None,
        }
    }

    /// `[[k,[[a,b],...]],...]` — pairs whose second element is itself a
    /// pair list (receiver histograms).
    pub fn nested_pairs(&self, key: &str) -> Option<NestedPairs> {
        let Val::Arr(items) = self.get(key)? else {
            return None;
        };
        items
            .iter()
            .map(|item| {
                let Val::Arr(kv) = item else { return None };
                let [Val::Num(k), Val::Arr(hist)] = kv.as_slice() else {
                    return None;
                };
                let h: Option<Vec<(u64, u64)>> = hist.iter().map(pair).collect();
                Some((*k, h?))
            })
            .collect()
    }
}

fn pair(v: &Val) -> Option<(u64, u64)> {
    let Val::Arr(kv) = v else { return None };
    let [Val::Num(a), Val::Num(b)] = kv.as_slice() else {
        return None;
    };
    Some((*a, *b))
}

/// Parses one line as a flat JSON object.
///
/// # Errors
///
/// A message naming the first byte that is not part of the strict subset
/// described in the [module docs](self).
pub fn parse_object(line: &str) -> Result<Obj, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let obj = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(obj)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn object(&mut self) -> Result<Obj, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Obj { fields });
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Obj { fields });
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    /// One value. Arrays being filled wait in `open[..depth]`, innermost
    /// last, so the host stack does not grow with the input's nesting.
    fn value(&mut self) -> Result<Val, String> {
        let mut open: [Vec<Val>; MAX_DEPTH] = Default::default();
        let mut depth = 0;
        loop {
            self.skip_ws();
            let mut done = match self.peek() {
                Some(b'"') => Val::Str(self.string()?),
                Some(b'[') if depth == MAX_DEPTH => {
                    return Err(format!(
                        "arrays nest deeper than {MAX_DEPTH} at {}",
                        self.pos
                    ));
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() != Some(b']') {
                        depth += 1;
                        continue;
                    }
                    self.pos += 1;
                    Val::Arr(Vec::new())
                }
                Some(b'0'..=b'9') => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .map(Val::Num)
                        .ok_or_else(|| format!("bad number at {start}"))?
                }
                other => return Err(format!("unexpected value start {other:?}")),
            };
            // `done` is complete: hand it to the array it sits in, and
            // close every array that ends right after it.
            loop {
                if depth == 0 {
                    return Ok(done);
                }
                open[depth - 1].push(done);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        depth -= 1;
                        done = Val::Arr(std::mem::take(&mut open[depth]));
                    }
                    other => return Err(format!("expected `,` or `]`, found {other:?}")),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "bad utf-8 in string".to_string())?;
                self.pos += 1;
                return Ok(s.to_string());
            }
            if b == b'\\' {
                return Err("escapes are not part of the snapshot format".to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_text_holds_no_raw_control_quote_or_backslash() {
        for c in ('\0'..='\u{7f}').chain(['\u{80}', 'é', '→', '\u{2028}', '𝄞']) {
            let mut out = String::new();
            escape_into(&mut out, &format!("a{c}b"));
            let mut chars = out.chars();
            while let Some(ch) = chars.next() {
                assert!(ch as u32 >= 0x20 && ch != '"', "{c:?} left raw in {out:?}");
                // A backslash is never bare: it opens one of the escapes
                // (the hex digits of `\u` pass as plain characters).
                if ch == '\\' {
                    let escape = chars.next().expect("an escape follows");
                    assert!("\"\\nrtu".contains(escape), "{c:?}: {out:?}");
                }
            }
            let plain = (c as u32) >= 0x20 && c != '"' && c != '\\';
            assert_eq!(out == format!("a{c}b"), plain, "{c:?}: {out:?}");
        }
    }

    #[test]
    fn reader_accepts_the_snapshot_subset_and_nothing_else() {
        let obj = parse_object(
            "{ \"n\":7, \"s\":\"x\",\t\"a\":[], \"p\":[[1,2],[3,4]], \"r\":[[0,[[2,9]]]] }",
        )
        .unwrap();
        assert_eq!((obj.num("n"), obj.str("s")), (Some(7), Some("x")));
        assert_eq!(obj.pairs("a"), Some(vec![]));
        assert_eq!(obj.pairs("p"), Some(vec![(1, 2), (3, 4)]));
        assert_eq!(obj.nested_pairs("r"), Some(vec![(0, vec![(2, 9)])]));
        assert_eq!(
            (obj.num("s"), obj.pairs("n"), obj.hex("s")),
            (None, None, None)
        );
        for bad in [
            "{\"a\":1.5}",
            "{\"a\":-1}",
            "{\"a\":null}",
            "{\"a\":\"\\n\"}",
            "{\"a\":[{}]}",
            "{\"a\":[1,]}",
            "{\"a\":[1 2]}",
            "{\"a\":[1}",
            "{\"a\":18446744073709551616}",
            "{\"a\":1} x",
            "{\"a\":1",
            "",
        ] {
            assert!(parse_object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reader_bounds_nesting_without_recursing() {
        let nested =
            |depth: usize| format!("{{\"a\":{}1{}}}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_object(&nested(MAX_DEPTH)).is_ok());
        let err = parse_object(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nest deeper"), "{err}");
        // Two million brackets used to cost two million host frames.
        assert!(parse_object(&format!("{{\"a\":{}", "[".repeat(2_000_000))).is_err());
    }
}
