//! A minimal JSON reader for the JSONL wire format, plus the escaping and
//! number rules every JSON writer here shares.
//!
//! The workspace builds fully offline (no serde), so this module implements
//! exactly the JSON subset the service's wire format needs: objects,
//! arrays, strings with standard escapes, `i64`-exact numbers, booleans and
//! null. Object key order is preserved. Responses are not built as [`Json`]
//! trees: [`WireResponse::to_json`](crate::wire::WireResponse::to_json)
//! writes them straight into one `String` through [`write_escaped`] and
//! [`write_number`], the same two routines [`Json`]'s `Display` uses.

use core::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Integers up to `i64` round-trip exactly; floats are kept
    /// as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with key order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match); `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document from `text` (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Renders compact JSON (no whitespace), escaping strings per RFC 8259.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => {
                f.write_char('"')?;
                write_escaped(f, s)?;
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_char('"')?;
                    write_escaped(f, k)?;
                    write!(f, "\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` escaped for the inside of a JSON string literal (the quotes
/// are the caller's): `"`, `\`, `\n`, `\r` and `\t` become two-character
/// escapes, any other byte below 0x20 becomes `\u00xx`, and everything
/// else, 0x7f and non-ASCII text included, is copied verbatim. Each run
/// between two escapes is copied with one write.
///
/// # Errors
///
/// Only those of `out`; writing to a `String` cannot fail.
pub(crate) fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // `run` and `i` both sit next to ASCII bytes: char boundaries.
        out.write_str(&s[run..i])?;
        match short {
            Some(escape) => out.write_str(escape)?,
            None => {
                out.write_str("\\u00")?;
                out.write_char(char::from(HEX[usize::from(b >> 4)]))?;
                out.write_char(char::from(HEX[usize::from(b & 0xf)]))?;
            }
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// Writes the number `n`: an integral value below 9e15 in magnitude as an
/// `i64`, any other finite value with `{}`, and a non-finite one as `null`
/// (JSON has no inf/NaN; `null` keeps the output parseable).
///
/// # Errors
///
/// Only those of `out`; writing to a `String` cannot fail.
pub(crate) fn write_number<W: fmt::Write + ?Sized>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting. Input arrives over the wire from untrusted
/// clients; without a bound, the recursive-descent parser would turn a
/// line of `[[[[…` into an uncatchable stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The whole input; `pos` always sits on one of its char boundaries
    /// between tokens and string characters.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth >= MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let result = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                result
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
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
                _ => return Err(self.err("expected `,` or `]` in array")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this wire
                            // format; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(0..=0x1f) => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once. The run ends before an ASCII
                    // byte or at the end of the input, so it is whole
                    // UTF-8 and the slice cannot split a char.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = self
                        .text
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
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
        // lint: panic-ok(the number scanner above only ever consumes ASCII bytes)
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        match text.parse::<f64>() {
            // Overflowing literals like `1e999` parse to infinity, which
            // Display could not re-serialize as valid JSON — reject them.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err(format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let rendered = Json::Str(original.into()).to_string();
        let back = Json::parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Two-character escapes, `\u00xx` for the other control bytes,
        // and DEL and non-ASCII text copied verbatim.
        assert_eq!(
            Json::Str("a\"\\\n\r\t\u{1}\u{1f} \u{7f}é→".into()).to_string(),
            "\"a\\\"\\\\\\n\\r\\t\\u0001\\u001f \u{7f}é→\""
        );
    }

    #[test]
    fn object_roundtrips_preserving_order() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Num(1.0)),
            ("a".into(), Json::Bool(false)),
            (
                "nested".into(),
                Json::Arr(vec![Json::Null, Json::Str("s".into())]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"z":1,"a":false,"nested":[null,"s"]}"#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{'a': 1}",
            "\"bad \\x escape\"",
            "nul",
        ] {
            assert!(Json::parse(text).is_err(), "`{text}` should fail");
        }
    }

    #[test]
    fn rejects_unescaped_control_chars() {
        assert!(Json::parse("\"a\nb\"").is_err());
        // The offset names the control byte itself, after a multi-byte
        // run and an escape earlier in the same string.
        let err = Json::parse("{\"id\":\"é→x\\ty\u{1}z\"}").unwrap_err();
        assert_eq!(err.pos, 16, "{err}");
        assert_eq!(err.message, "unescaped control character in string");
        // An unterminated run ends at the end of the input.
        assert_eq!(Json::parse("\"é→").unwrap_err().pos, 6);
    }

    #[test]
    fn overflowing_numbers_are_rejected_and_nonfinite_renders_null() {
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-3.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Bool(true).as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let bomb: String = "[".repeat(300_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Nesting at the limit still parses.
        let ok = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 256 KiB string value, multi-byte characters and escapes
        // included. One pass over it takes milliseconds even unoptimized;
        // re-validating the rest of the line per character (~20 GB of
        // UTF-8 checks here) takes tens of seconds, far past the bound's
        // 20x headroom.
        let unit = "wire é\\n→";
        let value = unit.repeat(256 * 1024 / unit.len() + 1);
        let line = format!(r#"{{"program":"{value}"}}"#);
        assert!(line.len() >= 256 * 1024);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let elapsed = started.elapsed();
        let decoded = parsed.get("program").and_then(Json::as_str).unwrap();
        assert_eq!(decoded, value.replace("\\n", "\n"));
        assert!(
            elapsed < std::time::Duration::from_millis(1000),
            "a {} KiB string took {elapsed:?}",
            line.len() / 1024
        );
    }

    #[test]
    fn unicode_escape_decodes() {
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        assert!(Json::parse("\"\\ud800\"").is_err()); // lone surrogate
    }
}
