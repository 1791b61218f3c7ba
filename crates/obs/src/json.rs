//! Minimal dependency-free JSON support: a writer for flat and nested
//! objects, and one parser for everything this workspace reads back —
//! JSONL event captures, metrics snapshots and proof certificates.
//!
//! The workspace builds fully offline, so `serde_json` is not available;
//! the event and metrics formats are deliberately simple enough that a
//! hand-rolled writer/parser covers them completely. Field order is the
//! insertion order of the writer, so serialization is deterministic —
//! a requirement for the byte-for-byte replay check in `cil replay`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Incremental writer for one JSON object; fields appear in call order.
#[derive(Debug, Default)]
pub struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjWriter { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":\"{}\"", escape(key), escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    /// Adds a raw, already-serialized JSON value (nested object/array).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.sep();
        let _ = write!(self.buf, "\"{}\":{}", escape(key), json);
        self
    }

    /// Finishes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Serializes a slice of integers as a JSON array.
pub fn num_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// A parsed JSON value tree: strings, unsigned integers, arrays, objects.
///
/// Floats, booleans and `null` never appear in this workspace's formats
/// and are rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative integer.
    Num(u64),
    /// An array of values.
    Arr(Vec<Node>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Node>),
}

impl Node {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Node::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is a number.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Node::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Node]> {
        match self {
            Node::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Node>> {
        match self {
            Node::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON value with arbitrary nesting (string and unsigned
/// integer scalars only).
///
/// # Errors
///
/// Returns a message describing the first syntax problem encountered,
/// including trailing garbage after the value.
pub fn parse_value(text: &str) -> Result<Node, String> {
    let mut chars = text.trim().chars().peekable();
    let node = parse_node(&mut chars)?;
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(node),
        Some(c) => Err(format!("trailing garbage starting at '{c}'")),
    }
}

fn parse_node(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<Node, String> {
    skip_ws(chars);
    match chars.peek() {
        Some('"') => Ok(Node::Str(parse_string(chars)?)),
        Some('{') => {
            chars.next();
            let mut out = BTreeMap::new();
            skip_ws(chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return Ok(Node::Obj(out));
            }
            loop {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                expect(chars, ':')?;
                let value = parse_node(chars)?;
                out.insert(key, value);
                skip_ws(chars);
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => return Ok(Node::Obj(out)),
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some('[') => {
            chars.next();
            let mut out = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&']') {
                chars.next();
                return Ok(Node::Arr(out));
            }
            loop {
                out.push(parse_node(chars)?);
                skip_ws(chars);
                match chars.next() {
                    Some(',') => continue,
                    Some(']') => return Ok(Node::Arr(out)),
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() => {
            let mut num = String::new();
            while chars.peek().is_some_and(char::is_ascii_digit) {
                num.push(chars.next().expect("peeked"));
            }
            Ok(Node::Num(
                num.parse().map_err(|_| format!("bad number '{num}'"))?,
            ))
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected '{want}', got {other:?}")),
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                    out.push(char::from_u32(code).ok_or(format!("bad codepoint \\u{hex}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_ordered_fields() {
        let s = ObjWriter::new()
            .str("type", "step")
            .num("index", 3)
            .str("value", "Some(7)")
            .finish();
        assert_eq!(s, r#"{"type":"step","index":3,"value":"Some(7)"}"#);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let line = ObjWriter::new().str("k", nasty).finish();
        let parsed = parse_value(&line).unwrap();
        assert_eq!(parsed.as_obj().unwrap()["k"], Node::Str(nasty.to_string()));
    }

    #[test]
    fn parse_reads_strings_and_numbers() {
        let n = parse_value(r#"{"a": "x", "b": 42}"#).unwrap();
        let m = n.as_obj().unwrap();
        assert_eq!(m["a"].as_str(), Some("x"));
        assert_eq!(m["b"].as_num(), Some(42));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_value("not json").is_err());
        assert!(parse_value(r#"{"a": }"#).is_err());
        assert!(parse_value(r#"{"a": "unterminated"#).is_err());
    }

    #[test]
    fn num_array_formats() {
        assert_eq!(num_array(&[]), "[]");
        assert_eq!(num_array(&[1, 2, 3]), "[1,2,3]");
    }

    #[test]
    fn parse_value_handles_nesting() {
        let n = parse_value(r#"{"a":{"b":[1,2,{"c":"x"}]},"d":7}"#).unwrap();
        let obj = n.as_obj().unwrap();
        assert_eq!(obj["d"].as_num(), Some(7));
        let arr = obj["a"].as_obj().unwrap()["b"].as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1));
        assert_eq!(arr[2].as_obj().unwrap()["c"].as_str(), Some("x"));
    }

    #[test]
    fn parse_value_rejects_trailing_garbage_and_other_scalars() {
        assert!(parse_value(r#"{"a":1} junk"#).is_err());
        assert!(parse_value(r#"{"a":true}"#).is_err());
        assert!(parse_value(r#"{"a":-1}"#).is_err());
        assert!(parse_value(r#"[1,2"#).is_err());
    }

    #[test]
    fn parse_value_round_trips_writer_output() {
        let written = ObjWriter::new()
            .str("s", "v\"w")
            .num("n", 3)
            .raw("inner", &ObjWriter::new().num("x", 1).finish())
            .raw("list", &num_array(&[4, 5]))
            .finish();
        let node = parse_value(&written).unwrap();
        let obj = node.as_obj().unwrap();
        assert_eq!(obj["s"].as_str(), Some("v\"w"));
        assert_eq!(obj["inner"].as_obj().unwrap()["x"].as_num(), Some(1));
        assert_eq!(obj["list"].as_arr().unwrap().len(), 2);
    }
}
