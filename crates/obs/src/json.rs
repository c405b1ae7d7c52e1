//! The workspace's one JSON codec.
//!
//! The workspace builds offline without serde, and everything it reads
//! or writes fits a small subset: finite numbers, UTF-8 strings,
//! `true`/`false`/`null`, arrays, and objects with insertion-ordered
//! keys. One lexer (whitespace, strings and `\u` escapes, numbers,
//! literals), one escaper and one number formatter serve two front ends:
//!
//! * the **tree** path — [`parse`] into a [`Json`] document, and
//!   [`Json::to_string_compact`] / [`Json::to_string_pretty`] — for the
//!   metrics, profile, flight-recorder and Chrome trace documents and
//!   the bench baseline file;
//! * the **flat** path — [`parse_object_into`] into a recycled
//!   [`ObjBuf`], and [`ObjWriter`] — for the serving protocol and trace
//!   files, which exchange one flat `{"key": scalar, ...}` object per
//!   line. Once its buffers have grown to a stream's shape, it allocates
//!   nothing per line.
//!
//! Both paths accept the same scalars, including raw control characters
//! inside strings, which the serving protocol has always let through.
//! Non-finite numbers (`1e999`) are rejected on input and written as
//! `null`. The text of a [`ParseError`] is protocol: the serve loop
//! copies it verbatim into the `error` field of `reject` records.

use std::fmt::Write as _;

/// A JSON value. The flat path only ever produces the scalar variants.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`, matching
    /// what browsers' `JSON.stringify` does).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object node from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String node helper.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Integer node helper (exact for |n| < 2⁵³).
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Looks up a key in an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// [`Json::as_f64`] under the serving protocol's name.
    pub fn as_num(&self) -> Option<f64> {
        self.as_f64()
    }

    /// The node as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The node as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the document compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes the document with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    let (k, v) = &pairs[i];
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// Writes `x` in its shortest round-trip form; non-finite values become
/// `null` (JSON has no NaN/inf). Public so list-in-string fields (the
/// trace `spec` record's comma-joined speeds) format their numbers
/// exactly as number fields do.
pub fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Same digits as `{x}`, through the cheaper integer printer (and
        // `-0` comes out as `0`).
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Writes `s` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Why a document or line failed to parse. The text is protocol (see the
/// module docs), pinned by tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// The shared lexer: a byte cursor over one document or line.
struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Lexer<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Fails on anything but whitespace after the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing input at byte {}", self.pos))
        }
    }

    /// Parses `open item (, item)* close`, or `open close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    /// Parses a JSON string into `out` (cleared first), reusing its
    /// capacity.
    fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        self.expect(b'"')?;
        out.clear();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        other => return Err(format!("bad escape \\{}", other as char)),
                    });
                }
                _ => {
                    // Copy the run up to the next quote or backslash
                    // through in one piece.
                    let start = self.pos - 1;
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    /// The four hex digits after `\u`.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex}"))?;
        self.pos += 4;
        // Surrogate pairs are outside the protocol's needs; reject rather
        // than mis-decode.
        char::from_u32(code).ok_or(format!("\\u{hex} is not a scalar value"))
    }

    /// Parses a JSON scalar into `slot`. A string value re-fills the
    /// slot's existing `Json::Str` in place when there is one, so a
    /// recycled slot of the same shape costs no allocation.
    fn scalar_into(&mut self, slot: &mut Json) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => {
                if !matches!(slot, Json::Str(_)) {
                    *slot = Json::Str(String::new());
                }
                let Json::Str(s) = slot else { unreachable!() };
                self.string_into(s)
            }
            Some(b't') => self.literal("true", slot, Json::Bool(true)),
            Some(b'f') => self.literal("false", slot, Json::Bool(false)),
            Some(b'n') => self.literal("null", slot, Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number run");
                let x: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
                if !x.is_finite() {
                    return Err(format!("non-finite number {text:?}"));
                }
                *slot = Json::Num(x);
                Ok(())
            }
            Some(b'{' | b'[') => Err("nested values are not supported".into()),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, slot: &mut Json, v: Json) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            *slot = v;
            Ok(())
        } else {
            Err(format!("expected {lit} at byte {}", self.pos))
        }
    }

    /// Parses any value, nesting included.
    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |lx| {
                    items.push(lx.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs: Vec<(String, Json)> = Vec::new();
                self.seq(b'{', b'}', |lx| {
                    let mut key = String::new();
                    lx.string_into(&mut key)?;
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    lx.expect(b':')?;
                    pairs.push((key, lx.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            _ => {
                let mut v = Json::Null;
                self.scalar_into(&mut v)?;
                Ok(v)
            }
        }
    }
}

/// Parses a JSON document. Trailing input, comments, duplicate keys,
/// non-finite numbers and surrogate escapes are rejected.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut lx = Lexer {
        bytes: text.as_bytes(),
        pos: 0,
    };
    lx.value()
        .and_then(|v| lx.end().map(|()| v))
        .map_err(ParseError)
}

/// Reusable storage for [`parse_object_into`]: the pair vector *and* the
/// key/value strings of previous lines are recycled, so parsing a stream
/// of records with the same shape (e.g. the all-numeric `mmsec serve`
/// submission lines) allocates nothing after the first line.
#[derive(Debug, Default)]
pub struct ObjBuf {
    pairs: Vec<(String, Json)>,
    len: usize,
}

impl ObjBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        ObjBuf::default()
    }

    /// The fields of the most recently parsed object.
    pub fn fields(&self) -> &[(String, Json)] {
        &self.pairs[..self.len]
    }

    /// Hands out the next recycled slot (or grows by one) and marks it
    /// live. The key string arrives cleared.
    fn next_slot(&mut self) -> &mut (String, Json) {
        if self.len == self.pairs.len() {
            self.pairs.push((String::new(), Json::Null));
        }
        let slot = &mut self.pairs[self.len];
        slot.0.clear();
        self.len += 1;
        slot
    }
}

/// Parses one flat JSON object (`{"key": scalar, ...}`) into `buf`,
/// recycling its storage. Duplicate keys keep their last value, matching
/// common JSON parser behavior. On error the buffer reads as empty.
pub fn parse_object_into(line: &str, buf: &mut ObjBuf) -> Result<(), ParseError> {
    buf.len = 0;
    let mut lx = Lexer {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let parsed = lx.seq(b'{', b'}', |lx| {
        // Read the key into the next recycled slot, then fold duplicates
        // back onto their first occurrence.
        let slot = buf.next_slot();
        lx.string_into(&mut slot.0)?;
        lx.expect(b':')?;
        let live = buf.len - 1;
        let dup = buf.pairs[..live]
            .iter()
            .position(|(k, _)| *k == buf.pairs[live].0);
        let target = match dup {
            Some(i) => {
                buf.len = live;
                i
            }
            None => live,
        };
        lx.scalar_into(&mut buf.pairs[target].1)
    });
    parsed.and_then(|()| lx.end()).map_err(|e| {
        buf.len = 0;
        ParseError(e)
    })
}

/// Parses one flat JSON object into a fresh vector. Convenience wrapper
/// over [`parse_object_into`] for one-shot callers and tests.
pub fn parse_object(line: &str) -> Result<Vec<(String, Json)>, ParseError> {
    let mut buf = ObjBuf::new();
    parse_object_into(line, &mut buf)?;
    buf.pairs.truncate(buf.len);
    Ok(buf.pairs)
}

/// Builds one flat JSON object incrementally.
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    /// Starts an object with a `"type"` discriminator field — every
    /// record in the serving protocol leads with one.
    pub fn typed(kind: &str) -> Self {
        let mut w = ObjWriter {
            buf: String::new(),
            first: true,
        };
        w.reset(kind);
        w
    }

    /// Restarts the writer on a fresh `"type"`-led object, reusing the
    /// buffer — a record-emitting loop pays no per-record allocation.
    pub fn reset(&mut self, kind: &str) -> &mut Self {
        self.buf.clear();
        self.buf.push('{');
        self.first = true;
        self.str_field("type", kind)
    }

    fn sep(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Appends a numeric field. Non-finite values serialize as `null`.
    pub fn num_field(&mut self, key: &str, x: f64) -> &mut Self {
        self.sep(key);
        write_num(&mut self.buf, x);
        self
    }

    /// Appends a string field.
    pub fn str_field(&mut self, key: &str, s: &str) -> &mut Self {
        self.sep(key);
        write_str(&mut self.buf, s);
        self
    }

    /// Closes the object in place and returns the line (no trailing
    /// newline). The buffer stays owned by the writer: call
    /// [`ObjWriter::reset`] to start the next record with zero
    /// allocations. Calling `close` twice without a reset would emit a
    /// malformed record — the borrow it returns makes that hard to do by
    /// accident.
    pub fn close(&mut self) -> &str {
        self.buf.push('}');
        &self.buf
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("edge-0 \"fast\"")),
            ("count", Json::int(42)),
            ("ratio", Json::Num(0.125)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::int(1), Json::str("two\n"), Json::Null]),
            ),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::int(7).to_string_compact(), "7");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(1.5).to_string_compact(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\":1,\"a\":2}").is_err());
        assert!(parse("[1e999]").is_err());
    }

    #[test]
    fn accessors() {
        let doc = parse("{\"a\": [1, 2.5], \"b\": \"x\"}").unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(doc.get("missing").is_none());
    }
}
