//! The workspace's one JSON codec: a dependency-free parser plus a pretty
//! tree emitter. It reads the exported Chrome traces, the benchmark result
//! files and the s3a-mc counterexample files, and writes the latter.
//!
//! Integers stay exact: a number literal made only of digits that fits in
//! `u64` parses to [`Value::Int`], any other number to [`Value::Num`].
//! Objects keep document order, so an emitted file reads (and diffs) in
//! the order it was built.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number literal made only of digits that fits in `u64`.
    Int(u64),
    /// Any other number (signed, fractional, exponent, or too large).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value at an object key (the first match), if this is an object
    /// containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number of either form.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is an exact unsigned integer ([`Value::Int`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The flag, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize with two-space indentation, `": "` after keys, `[]` and
    /// `{}` for empty containers, and a trailing newline. A non-finite
    /// [`Value::Num`] has no JSON form and is written as `null`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` is the shortest text that reads back to the same f64,
            // and always carries a '.' or an exponent, so it stays a `Num`.
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                pad(out, indent);
                out.push(']');
            }
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.write(out, indent + 1);
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let b = input.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut m = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match c {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            // A high surrogate followed by a `\u` low
                            // surrogate encodes one character; any other
                            // surrogate is unpaired and decodes to U+FFFD.
                            if (0xd800..0xdc00).contains(&code)
                                && self.b[self.pos..].starts_with(b"\\u")
                            {
                                let save = self.pos;
                                self.pos += 2;
                                match self.hex4()? {
                                    low @ 0xdc00..0xe000 => {
                                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    }
                                    _ => self.pos = save,
                                }
                            }
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &self.b[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|t| t.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-utf8 \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// One RFC 8259 number: an optional `-`, then `0` or a digit run
    /// without a leading zero, then optionally `.` and at least one
    /// digit, then optionally `e`/`E`, a sign and at least one digit.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.digits() {
            0 => return Err(self.err("bad number")),
            n if n > 1 && self.b[self.pos - n] == b'0' => {
                return Err(self.err("leading zero in number"))
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("no digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("no digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }

    /// Skip a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// Escape a string for embedding in a JSON document (adds no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
        // Digits-only integers stay exact; u64::MAX does not survive f64.
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max, Value::Int(u64::MAX));
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(max.as_num(), Some(u64::MAX as f64));
        // Any other number is an f64, which `as_u64` does not answer for.
        for (text, n) in [
            ("-1", -1.0),
            ("2.0", 2.0),
            ("1e3", 1e3),
            ("18446744073709551616", 2f64.powi(64)),
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v, Value::Num(n), "{text}");
            assert_eq!((v.as_u64(), v.as_num()), (None, Some(n)), "{text}");
        }
    }

    #[test]
    fn round_trips_the_counterexample_shapes() {
        let doc = Value::Obj(vec![
            ("version".to_string(), Value::Int(1)),
            (
                "violation".to_string(),
                Value::Str("a \"quoted\"\nline".to_string()),
            ),
            (
                "choices".to_string(),
                Value::Arr(vec![
                    Value::Arr(vec![Value::Int(17), Value::Int(2)]),
                    Value::Arr(vec![Value::Int(423), Value::Int(u64::MAX)]),
                ]),
            ),
            ("empty".to_string(), Value::Arr(vec![])),
            ("chaos".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            ("nested".to_string(), Value::Obj(vec![])),
            ("ratio".to_string(), Value::Num(-0.25)),
        ]);
        // `Obj` equality compares fields in order, so this also checks
        // that key order (deliberately unsorted here) survives.
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn pretty_layout_is_pinned() {
        let doc = Value::Obj(vec![
            (
                "a".to_string(),
                Value::Arr(vec![Value::Int(1), Value::Null]),
            ),
            ("b".to_string(), Value::Arr(vec![])),
            ("c".to_string(), Value::Obj(vec![])),
            (
                "d".to_string(),
                Value::Obj(vec![("e\t".to_string(), Value::Bool(false))]),
            ),
            ("f".to_string(), Value::Num(1e20)),
            ("g".to_string(), Value::Num(f64::NAN)),
        ]);
        let expected = r#"{
  "a": [
    1,
    null
  ],
  "b": [],
  "c": {},
  "d": {
    "e\t": false
  },
  "f": 1e20,
  "g": null
}
"#;
        assert_eq!(doc.pretty(), expected);
        assert_eq!(Value::Str("x".into()).pretty(), "\"x\"\n");
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}, null], "c": 2.5}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_num), Some(2.5));
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(a[2], Value::Null);

        // Objects keep document order; `get` answers with the first match.
        let v = parse(r#"{"b": 1, "a": 2, "b": 3}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Value::Int(1)));
        let Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        let bad = "01 -01 00 0152 1. -1. 1.e3 .5 - --1 1e 1e+ 1E- +1 [01] {\"seed\":0152}";
        for bad in bad.split(' ') {
            assert!(parse(bad).is_err(), "{bad:?} is not JSON");
        }
        for (good, v) in [
            ("0", Value::Int(0)),
            ("10", Value::Int(10)),
            ("-0", Value::Num(-0.0)),
            ("0.5", Value::Num(0.5)),
            ("-10.25", Value::Num(-10.25)),
            ("0e0", Value::Num(0.0)),
            ("1E+2", Value::Num(100.0)),
            ("2e-1", Value::Num(0.2)),
        ] {
            assert_eq!(parse(good).unwrap(), v, "{good:?}");
        }
    }

    #[test]
    fn decodes_surrogate_pairs() {
        let v = parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}b"));
        // Unpaired surrogates still decode to U+FFFD, one per escape, and
        // the escape after a lone high surrogate is read on its own.
        for (doc, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote \" slash \\ newline \n tab \t done";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }
}
