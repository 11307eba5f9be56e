//! A minimal streaming JSON writer (the workspace builds offline, so no
//! serde). Comma placement is handled by tracking whether the current
//! container already has a member; number formatting uses Rust's shortest
//! round-trip `Display`, which is deterministic for identical values.

use mpichgq_sim::FxHashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Streaming JSON writer over an owned `String`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: true once it has at least one member.
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer whose output buffer holds `bytes` before it first grows:
    /// a large document sized up front is written without reallocating.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            stack: Vec::new(),
        }
    }

    fn pre_value(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.stack.push(false);
    }

    pub fn end_object(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.stack.push(false);
    }

    pub fn end_array(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// Write an object key; the next write is its value.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        self.write_escaped(k);
        self.out.push(':');
        // The comma for this member was just emitted; clear the flag so the
        // value's own pre_value doesn't add one between ':' and the value
        // (it re-sets the flag for the member that follows).
        if let Some(has) = self.stack.last_mut() {
            *has = false;
        }
    }

    pub fn string(&mut self, s: &str) {
        self.pre_value();
        self.write_escaped(s);
    }

    pub fn u64(&mut self, v: u64) {
        self.raw_fmt(format_args!("{v}"));
    }

    pub fn i64(&mut self, v: i64) {
        self.raw_fmt(format_args!("{v}"));
    }

    /// Floats print via shortest-round-trip `Display`; non-finite values
    /// (not representable in JSON) become null.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // A numeric token that still parses as f64 ("1" is fine).
            self.raw_fmt(format_args!("{v}"));
        } else {
            self.raw("null");
        }
    }

    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    /// Append an already-serialized JSON value verbatim (comma placement
    /// still handled). The caller vouches that `raw` is valid JSON.
    pub fn raw(&mut self, raw: &str) {
        self.pre_value();
        self.out.push_str(raw);
    }

    /// [`JsonWriter::raw`] formatted in place: the value is written straight
    /// into the output instead of into a `String` of its own first.
    pub fn raw_fmt(&mut self, raw: std::fmt::Arguments<'_>) {
        self.pre_value();
        // `fmt::Write` for `String` cannot fail.
        let _ = self.out.write_fmt(raw);
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        // Everything escaped is one ASCII byte, so the stretches between
        // escapes are whole characters and are copied as they stand.
        let mut clean = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.push_str(&s[clean..i]);
            clean = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
        }
        self.out.push_str(&s[clean..]);
        self.out.push('"');
    }
}

/// A parsed JSON value. Integers are kept exact: a token without `.`, `e`
/// or `E` parses to [`JsonValue::UInt`] (or [`JsonValue::Int`] when
/// negative) so round-trip tests can check `u64`/`i64` fields without f64
/// precision loss; one too large for either reads as [`JsonValue::Float`].
/// Object member order is preserved.
///
/// The payloads are sized for a parsed document, not for building one:
/// containers are boxed slices of exactly their length, and a string value
/// written without escapes shares one allocation with every occurrence of
/// the same text in the document [`parse`] read it from.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Negative integer (exact).
    Int(i64),
    /// Non-negative integer (exact).
    UInt(u64),
    Float(f64),
    Str(Arc<str>),
    Arr(Box<[JsonValue]>),
    Obj(Box<[(String, JsonValue)]>),
}

// Three words: no payload is wider than a fat pointer.
const _: () = assert!(std::mem::size_of::<JsonValue>() == 24);

impl JsonValue {
    /// Look up a member of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `i64` if it is any in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::Int(v) => Some(v),
            JsonValue::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if numeric (integers convert losslessly up to
    /// 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Float(v) => Some(v),
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object members in document order.
    pub fn members(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// How deep [`parse`] lets containers nest. Far above anything the writer
/// emits (the deepest, a trace summary's histogram buckets, nest seven
/// deep); below it, recursive descent cannot run out of stack.
const MAX_DEPTH: usize = 256;

/// Parse a JSON document. Errors carry the byte offset of the problem.
/// Recursive descent over the grammar [`JsonWriter`] emits (plus standard
/// JSON it doesn't: `null`, bools, unicode escapes and surrogate pairs), so
/// `parse(&w.finish())` always succeeds on writer output; containers nested
/// more than 256 deep are an error, not a stack overflow.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        vals: Vec::new(),
        members: Vec::new(),
        unescaped: String::new(),
        shared: FxHashMap::default(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
    /// Items of the arrays open around `pos`, outermost first: an array
    /// pushes its items here and moves them into a slice of exactly their
    /// number when it closes.
    vals: Vec<JsonValue>,
    /// Members of the open objects, in the same way.
    members: Vec<(String, JsonValue)>,
    /// The last string that held an escape, decoded.
    unescaped: String,
    /// Every escape-free string value read so far, by its text in the input.
    shared: FxHashMap<&'a str, Arc<str>>,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
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

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => {
                let s = match self.string()? {
                    Some(text) => {
                        Arc::clone(self.shared.entry(text).or_insert_with(|| text.into()))
                    }
                    None => self.unescaped.as_str().into(),
                };
                Ok(JsonValue::Str(s))
            }
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mark = self.members.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(Box::default()));
        }
        loop {
            self.skip_ws();
            let key = match self.string()? {
                Some(text) => String::from(text),
                None => String::from(self.unescaped.as_str()),
            };
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            self.members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(self.members.drain(mark..).collect()));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mark = self.vals.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(Box::default()));
        }
        loop {
            self.skip_ws();
            let v = self.value()?;
            self.vals.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(self.vals.drain(mark..).collect()));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Read a string token. One without escapes is returned as the slice of
    /// the input between its quotes; one with escapes is decoded into
    /// `self.unescaped` and `None` is returned.
    fn string(&mut self) -> Result<Option<&'a str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        self.pos += len;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Some(&self.text[start..start + len]));
        }
        self.unescaped.clear();
        self.unescaped.push_str(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(None);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    self.unescaped.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    // One UTF-8 scalar: `pos` is on a character boundary,
                    // since everything consumed before it was whole.
                    let c = self.text[self.pos..].chars().next().unwrap();
                    self.unescaped.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The character of the `\u` escape whose `u` is at `pos`, leaving
    /// `pos` on its last hex digit. A high surrogate followed by a `\u`
    /// low surrogate is one character, and both escapes are consumed; a
    /// surrogate without its partner reads as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                self.pos += 6;
                let code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(code).unwrap());
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits at `at`, exactly: no sign, no fewer.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        hex.iter().try_fold(0, |code, &b| {
            let digit = (b as char).to_digit(16).ok_or("bad \\u escape")?;
            Ok(code << 4 | digit)
        })
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            // Exact while it fits. JSON has one number type, so an integer
            // literal beyond `i64` / `u64` — what the writer prints for
            // `f64(1e21)` — is a float below, not an error.
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn parses_writer_output_exactly() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("u");
        w.u64(u64::MAX);
        w.key("i");
        w.i64(-42);
        w.key("f");
        w.f64(1.5);
        w.key("s");
        w.string("a\"b\n");
        w.key("arr");
        w.begin_array();
        w.u64(1);
        w.u64(2);
        w.end_array();
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("u").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("i").unwrap().as_i64(), Some(-42));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\n"));
        let arr = v.get("arr").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
    }

    #[test]
    fn in_place_formatting_is_byte_identical_to_the_string_per_value_spelling() {
        // What the writer emitted while every number went through
        // `to_string` / `format!` and every character through `push`.
        fn escaped(s: &str) -> String {
            let mut out = String::from("\"");
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
            out + "\""
        }
        let floats = [0.0, -0.0, 1e21, 1.5e-7, f64::NAN, f64::INFINITY];
        let text = "q\"b\\n\nu\u{1}t\tr\r é→𝄞 \u{7f}\u{1f}";
        let mut w = JsonWriter::new();
        w.begin_array();
        let mut want = vec![];
        for v in [0, 7, u64::MAX] {
            w.u64(v);
            want.push(v.to_string());
        }
        for v in [0, -1, i64::MIN, i64::MAX] {
            w.i64(v);
            want.push(v.to_string());
        }
        for v in floats {
            w.f64(v);
            want.push(if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            });
        }
        for s in [text, "", "plain", "\"", "é"] {
            w.string(s);
            want.push(escaped(s));
        }
        w.raw_fmt(format_args!("{}.{:03}", 12, 5));
        want.push("12.005".into());
        w.end_array();
        let got = w.finish();
        assert_eq!(got, format!("[{}]", want.join(",")));
        // And literally, so the reference cannot drift along with the writer.
        let numbers = "[0,7,18446744073709551615,0,-1,-9223372036854775808,\
            9223372036854775807,0,-0,1000000000000000000000,0.00000015,null,null,";
        assert!(got.starts_with(numbers), "{got}");
        assert!(got.contains("\"q\\\"b\\\\n\\nu\\u0001t\\tr\\r é→𝄞 \u{7f}\\u001f\",\"\","));
    }

    #[test]
    fn exact_integers_do_not_round_trip_through_f64() {
        // 2^63 + 1 is not representable in f64; the parser must keep it.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v.as_u64(), Some(9223372036854775809));
    }

    #[test]
    fn integer_literals_beyond_64_bits_read_as_floats() {
        // `f64`'s `Display` prints 1e21 as a 22-digit integer.
        for v in [1e21, -1e21] {
            let mut w = JsonWriter::new();
            w.f64(v);
            assert_eq!(parse(&w.finish()), Ok(JsonValue::Float(v)));
        }
        // One past each exact range; the ends of the ranges stay exact.
        let float = |text: &str| parse(text).unwrap() == JsonValue::Float(text.parse().unwrap());
        assert!(float("18446744073709551616") && float("-9223372036854775809"));
        assert_eq!(parse(&u64::MAX.to_string()), Ok(JsonValue::UInt(u64::MAX)));
        assert_eq!(parse(&i64::MIN.to_string()), Ok(JsonValue::Int(i64::MIN)));
        assert!(parse("-").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.starts_with("nesting deeper than 256 at byte"), "{err}");
        }
        // The cap itself still parses, from the writer, in both kinds of
        // container; one more level does not.
        let nested = |depth: usize| {
            let mut w = JsonWriter::new();
            for d in 0..depth {
                if d % 2 == 0 {
                    w.begin_array();
                } else {
                    w.begin_object();
                    w.key("k");
                }
            }
            w.u64(1);
            for d in (0..depth).rev() {
                if d % 2 == 0 {
                    w.end_array();
                } else {
                    w.end_object();
                }
            }
            w.finish()
        };
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        // `[{"k":` is six bytes for two levels: the 257th opens at byte 768.
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 256 at byte 768");
    }

    #[test]
    fn unicode_escapes_pair_surrogates_and_take_exactly_four_hex_digits() {
        let text = |json: &str| parse(json).map(|v| v.as_str().unwrap().to_string());
        // A pair is one scalar, in either case; so is a pair after a lone half.
        assert_eq!(text(r#""\ud834\udd1e""#), Ok("𝄞".into()));
        assert_eq!(text(r#""a\uD834\uDD1Eb""#), Ok("a𝄞b".into()));
        assert_eq!(text(r#""\ud834\ud834\udd1e""#), Ok("\u{fffd}𝄞".into()));
        // Lone halves, and a high half followed by a non-surrogate escape,
        // which is still read as itself.
        assert_eq!(text(r#""x\ud834""#), Ok("x\u{fffd}".into()));
        assert_eq!(text(r#""\ud834y""#), Ok("\u{fffd}y".into()));
        assert_eq!(text(r#""\udd1e""#), Ok("\u{fffd}".into()));
        assert_eq!(text(r#""\udd1e\ud834""#), Ok("\u{fffd}\u{fffd}".into()));
        assert_eq!(text(r#""\ud834\u0041""#), Ok("\u{fffd}A".into()));
        assert_eq!(text(r#""\ud834\n""#), Ok("\u{fffd}\n".into()));
        assert_eq!(text(r#""\u00e9\u0041\u2192""#), Ok("éA→".into()));
        // Exactly four hex digits: no sign, no space, not fewer.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\ud834\u+c00""#,
        ] {
            assert_eq!(parse(bad), Err("bad \\u escape".into()), "{bad}");
        }
        assert_eq!(parse(r#""\u04"#), Err("truncated \\u escape".into()));
    }

    #[test]
    fn malformed_inputs_fail_with_the_messages_they_always_had() {
        // Each message as the parser before the slice-and-share rewrite
        // returned it, offsets included.
        let table = [
            ("\"abc", "unterminated string"),
            ("\"a\\qb\"", "bad escape at byte 3"),
            ("\"\\", "bad escape at byte 2"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\uZZZZ\"", "bad \\u escape"),
            ("[1,]", "unexpected input at byte 3"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("[\"é\" 1]", "expected ',' or ']' at byte 6"),
            ("{", "expected '\"' at byte 1"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{1:2}", "expected '\"' at byte 1"),
            ("{\"a\":1,}", "expected '\"' at byte 7"),
            ("{\"a\":{\"b\":1", "expected ',' or '}' at byte 11"),
            ("{\"é\":", "unexpected input at byte 6"),
            ("[\"a\",{\"b\":[1,2,}]", "unexpected input at byte 15"),
            ("1 2", "trailing data at byte 2"),
            ("{\"a\":1}}", "trailing data at byte 7"),
            ("-", "bad number at byte 0"),
            ("1e", "bad number at byte 0"),
            ("1.2.3", "bad number at byte 0"),
            ("nul", "invalid literal at byte 0"),
            ("tru", "invalid literal at byte 0"),
            ("", "unexpected input at byte 0"),
            ("  ", "unexpected input at byte 2"),
            ("[", "unexpected input at byte 1"),
        ];
        for (input, err) in table {
            assert_eq!(parse(input), Err(err.to_string()), "{input:?}");
        }
    }

    /// Writes `v` back out the way a producer of it would.
    fn write(w: &mut JsonWriter, v: &JsonValue) {
        match v {
            JsonValue::Null => w.raw("null"),
            JsonValue::Bool(b) => w.raw(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => w.i64(*i),
            JsonValue::UInt(u) => w.u64(*u),
            JsonValue::Float(f) => w.f64(*f),
            JsonValue::Str(s) => w.string(s),
            JsonValue::Arr(items) => {
                w.begin_array();
                items.iter().for_each(|item| write(w, item));
                w.end_array();
            }
            JsonValue::Obj(members) => {
                w.begin_object();
                for (k, v) in members.iter() {
                    w.key(k);
                    write(w, v);
                }
                w.end_object();
            }
        }
    }

    /// Random documents the writer can reproduce exactly: every variant,
    /// containers (empty ones too) nested up to six deep, keys from a small
    /// set so that objects repeat them, text that needs escaping, and only
    /// non-integral floats (the writer prints `2.0` as `2`, an integer).
    struct Docs;

    impl proptest::Strategy for Docs {
        type Value = JsonValue;
        fn generate(&self, rng: &mut proptest::TestRng) -> JsonValue {
            doc(rng, 0)
        }
    }

    fn doc(rng: &mut proptest::TestRng, depth: u32) -> JsonValue {
        // A container at the top, and none below the sixth level.
        let kind = match depth {
            0 => 6 + rng.below(4),
            1..=5 => rng.below(10),
            _ => rng.below(6),
        };
        match kind {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.below(2) == 1),
            2 => JsonValue::Int(match rng.below(4) {
                0 => i64::MIN,
                _ => -1 - (rng.next_u64() >> (1 + rng.below(63))) as i64,
            }),
            3 => JsonValue::UInt(match rng.below(4) {
                0 => u64::MAX,
                _ => rng.next_u64() >> rng.below(64),
            }),
            4 => JsonValue::Float(loop {
                let v = match rng.below(2) {
                    0 => f64::from_bits(rng.next_u64()),
                    _ => rng.below(1 << 20) as f64 / 64.0 - 8192.0,
                };
                if v.is_finite() && v.fract() != 0.0 {
                    break v;
                }
            }),
            5 => JsonValue::Str(text(rng).into()),
            6 | 7 => JsonValue::Arr((0..rng.below(5)).map(|_| doc(rng, depth + 1)).collect()),
            _ => JsonValue::Obj(
                (0..rng.below(5))
                    .map(|_| {
                        const KEYS: [&str; 5] = ["a", "", "k\"ey", "\\é", "𝄞\u{1}"];
                        let key = match rng.below(6) {
                            5 => text(rng),
                            i => KEYS[i as usize].to_string(),
                        };
                        (key, doc(rng, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    fn text(rng: &mut proptest::TestRng) -> String {
        const CHARS: [char; 16] = [
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\t',
            '\r',
            '\u{0}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '𝄞',
            '\u{10ffff}',
        ];
        (0..rng.below(9))
            .map(|_| CHARS[rng.below(16) as usize])
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]

        #[test]
        fn writer_output_parses_back_to_the_value_written(v in Docs) {
            let mut w = JsonWriter::new();
            write(&mut w, &v);
            let text = w.finish();
            proptest::prop_assert_eq!(parse(&text), Ok(v), "{}", text);
        }
    }
}
