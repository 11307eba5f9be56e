//! A minimal streaming JSON writer (the workspace builds offline, so no
//! serde). Comma placement is handled by tracking whether the current
//! container already has a member; number formatting uses Rust's shortest
//! round-trip `Display`, which is deterministic for identical values.

use std::fmt::Write as _;

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
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Negative integer (exact).
    Int(i64),
    /// Non-negative integer (exact).
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

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
/// JSON it doesn't: `null`, bools, unicode escapes), so
/// `parse(&w.finish())` always succeeds on writer output; containers nested
/// more than 256 deep are an error, not a stack overflow.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
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
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
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
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
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
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by JsonWriter;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
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
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
    }
}
