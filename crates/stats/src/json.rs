//! Dependency-free JSON: a value tree, a serializer, and a parser.
//!
//! The experiment harness (`arl-bench`) emits structured run records as
//! `BENCH_<experiment>.json` files so perf trajectories can be tracked by
//! machines, not just read off ASCII tables. The build environment has no
//! registry access, so this module hand-rolls the (small) subset of JSON
//! the harness needs: objects with ordered keys, arrays, strings, numbers,
//! booleans and null.
//!
//! ```
//! use arl_stats::Json;
//!
//! let v = Json::obj([
//!     ("name", Json::from("figure8")),
//!     ("cells", Json::from(96u64)),
//! ]);
//! let text = v.render();
//! assert_eq!(text, r#"{"name":"figure8","cells":96}"#);
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// A JSON value. Object keys keep insertion order so serialization is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive a round-trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

/// Shortest representation that round-trips: integers have no decimal
/// point; non-finite values (which JSON cannot express) become `null`.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write!(out, "{}", n as i64).unwrap();
    } else {
        // `{}` on f64 is the shortest string that parses back exactly.
        write!(out, "{n}").unwrap();
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

use std::fmt::Write as _;

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub(crate) message: String,
    /// Byte offset in the input.
    pub(crate) offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired —
                            // the serializer never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the longest run of plain bytes in one step.
                    // The run's delimiters (`"`, `\`, control bytes) are
                    // all ASCII and never occur inside a multi-byte UTF-8
                    // sequence, so the run slices cleanly out of the
                    // (already valid UTF-8) input.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.pos == start {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (v, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::Num(0.0), "0"),
            (Json::Num(-17.0), "-17"),
            (Json::Num(2.5), "2.5"),
            (Json::Str("hi".into()), r#""hi""#),
        ] {
            assert_eq!(v.render(), text);
            assert_eq!(Json::parse(text).unwrap(), v);
        }
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        assert_eq!(Json::Num(0.1).render(), "0.1");
        assert_eq!(Json::Num(1.0 / 3.0).render(), "0.3333333333333333");
        assert_eq!(Json::Num(1e20).render(), "100000000000000000000");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        // Integers up to 2^53 are exact.
        let big = (1u64 << 53) - 1;
        let rendered = Json::from(big).render();
        assert_eq!(rendered, big.to_string());
        assert_eq!(Json::parse(&rendered).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" slash\\ newline\n tab\t cr\r nul\u{1} unicode→é";
        let v = Json::Str(nasty.into());
        let text = v.render();
        assert!(text.contains("\\\"") && text.contains("\\\\") && text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Explicit \u escapes parse too.
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap(),
            Json::Str("Aé".into())
        );
    }

    #[test]
    fn nested_records_round_trip() {
        let v = Json::obj([
            ("experiment", Json::from("figure8")),
            ("threads", Json::from(4u64)),
            (
                "records",
                Json::Arr(vec![
                    Json::obj([
                        ("workload", Json::from("go")),
                        ("cycles", Json::from(123456u64)),
                        ("ipc", Json::from(3.25)),
                        ("accuracy", Json::from(None::<f64>)),
                    ]),
                    Json::obj([("workload", Json::from("swim")), ("ok", Json::from(true))]),
                ]),
            ),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // Key order is preserved through serialize → parse.
        assert_eq!(back.render(), text);
        // Navigation helpers.
        let records = back.get("records").unwrap().as_array().unwrap();
        assert_eq!(records[0].get("workload").unwrap().as_str(), Some("go"));
        assert_eq!(records[0].get("cycles").unwrap().as_u64(), Some(123456));
        assert_eq!(records[0].get("accuracy"), Some(&Json::Null));
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e1 , null ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(25.0)
        );
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\x\"", "{a:1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time_with_exact_content() {
        // Strings are consumed as byte runs between delimiters (the old
        // char-at-a-time loop revalidated the whole tail per character,
        // O(n²) — a multi-megabyte checkpoint blob took minutes). Pin the
        // run logic on escapes, multi-byte characters, and delimiters.
        let s = "plain μλti-byte → ok \"quoted\" back\\slash\nnewline\ttab".to_string()
            + &"0123456789abcdef".repeat(64 * 1024);
        let text = Json::from(s.clone()).render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_str(), Some(s.as_str()));
        // Raw control bytes are still rejected, mid-run included.
        assert!(Json::parse("\"abc\u{1}def\"").is_err());
    }
}
