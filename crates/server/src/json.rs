//! Hand-rolled JSON for the wire format, in the spirit of the `vendor/`
//! stand-ins: no crates.io access, so this module implements exactly the
//! subset the service needs and documents it.
//!
//! **Supported subset** (a strict subset of RFC 8259):
//!
//! * Values: `null`, `true`/`false`, finite numbers, strings, arrays,
//!   objects.
//! * String escapes on input: `\" \\ \/ \b \f \n \r \t` and `\uXXXX`
//!   (including surrogate pairs).
//! * Numbers parse via [`str::parse::<f64>`] after syntax validation;
//!   integers up to 2⁵³ round-trip exactly.
//! * Objects preserve insertion order and allow duplicate keys
//!   ([`Json::get`] returns the first).
//!
//! **Encoding is newline-safe**: control characters (including `\n`) are
//! always escaped, so one encoded document never spans lines — a document
//! per line is a valid framing. Non-finite numbers encode as `null`
//! (they never occur in the wire format; scores are finite by
//! construction).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, rejecting trailing non-whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Shorthand for building an object value.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string: each run of characters that needs no
/// escape goes out in one `write_str`, and only `"`, `\` and the
/// controls below U+0020 one by one. Every byte that needs an escape is
/// ASCII, so a run ends on a character boundary.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "", // `\u00XX`, written below
            _ => continue,
        };
        if run < i {
            f.write_str(&s[run..i])?;
        }
        if escape.is_empty() {
            write!(f, "\\u{:04x}", b)?;
        } else {
            f.write_str(escape)?;
        }
        run = i + 1;
    }
    if run < s.len() {
        f.write_str(&s[run..])?;
    }
    f.write_str("\"")
}

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: deeper documents are rejected rather than risking
/// stack exhaustion on hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
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
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any byte run cut at ASCII boundaries
            // is valid UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        b => return Err(self.err(format!("unknown escape '\\{}'", b as char))),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // `f64::from_str` saturates huge magnitudes (e.g. `1e999`) to
        // infinity rather than failing; reject those here so a parsed
        // document never carries a non-finite number.
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-3.25),
            Json::Num(1e9),
            Json::Str("plain".into()),
            Json::Str("with \"quotes\" and \\ and \n tab\t".into()),
            Json::Str("unicode: ωβ 🚀".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = obj(vec![
            ("k", Json::Num(10.0)),
            ("floor", Json::Num(0.35)),
            (
                "reference",
                Json::Arr(vec![Json::Str("77 Mass Ave".into()), Json::Str("".into())]),
            ),
            ("nested", obj(vec![("deep", Json::Arr(vec![Json::Null]))])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn encoding_is_newline_safe() {
        let v = Json::Str("line1\nline2\rline3\u{85}".into());
        assert!(!v.to_string().contains('\n'));
        assert!(!v.to_string().contains('\r'));
        assert_eq!(roundtrip(&v), v);
    }

    /// Strings and object keys encode to exactly these texts: every
    /// escape class at the start, in the middle, at the end and next to
    /// the others, and the characters that pass through unchanged.
    #[test]
    fn strings_and_keys_encode_to_exact_text() {
        let cases: &[(&str, &str)] = &[
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("\"x", r#""\"x""#),
            ("x\"y", r#""x\"y""#),
            ("x\"", r#""x\"""#),
            ("\\x", r#""\\x""#),
            ("x\\y", r#""x\\y""#),
            ("x\\", r#""x\\""#),
            ("\nx", r#""\nx""#),
            ("x\ny", r#""x\ny""#),
            ("x\n", r#""x\n""#),
            ("\rx", r#""\rx""#),
            ("x\ry", r#""x\ry""#),
            ("x\r", r#""x\r""#),
            ("\tx", r#""\tx""#),
            ("x\ty", r#""x\ty""#),
            ("x\t", r#""x\t""#),
            ("\u{8}x", r#""\bx""#),
            ("x\u{8}y", r#""x\by""#),
            ("x\u{8}", r#""x\b""#),
            ("\u{c}x", r#""\fx""#),
            ("x\u{c}y", r#""x\fy""#),
            ("x\u{c}", r#""x\f""#),
            ("\u{0}x", r#""\u0000x""#),
            ("x\u{1b}y", r#""x\u001by""#),
            ("x\u{1f}", r#""x\u001f""#),
            ("\"\\\n\r\t\u{8}\u{c}\u{0}\"", r#""\"\\\n\r\t\b\f\u0000\"""#),
            (
                "\u{0}\u{1}\u{2}\u{3}\u{4}\u{5}\u{6}\u{7}\u{8}\u{9}\u{a}\u{b}\u{c}\u{d}\u{e}\u{f}\
                 \u{10}\u{11}\u{12}\u{13}\u{14}\u{15}\u{16}\u{17}\
                 \u{18}\u{19}\u{1a}\u{1b}\u{1c}\u{1d}\u{1e}\u{1f}",
                r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f""#,
            ),
            ("\u{7f}", "\"\u{7f}\""),
            ("x\u{7f}\n", "\"x\u{7f}\\n\""),
            ("é\n", "\"é\\n\""),
            ("\"€\"", "\"\\\"€\\\"\""),
            ("🚀\t🚀", "\"🚀\\t🚀\""),
            ("\u{1}é€🚀\u{7f}\\", "\"\\u0001é€🚀\u{7f}\\\\\""),
        ];
        for &(raw, want) in cases {
            assert_eq!(Json::Str(raw.to_owned()).to_string(), want, "value {raw:?}");
            let keyed = obj(vec![(raw, Json::Num(1.0)), ("", Json::Str(raw.to_owned()))]);
            assert_eq!(
                keyed.to_string(),
                format!("{{{want}:1,\"\":{want}}}"),
                "key {raw:?}"
            );
        }
    }

    #[test]
    fn integers_encode_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""Aé🚀""#).unwrap(), Json::Str("Aé🚀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(Json::parse(r#""\udc00""#).is_err()); // lone low is invalid
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": [1, 2], "c": "x", "a": 9}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_usize), Some(3)); // first wins
        assert_eq!(v.get("b").and_then(Json::as_array).map(<[_]>::len), Some(2));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }

    #[test]
    fn malformed_documents_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\x escape\"",
            "[1] trailing",
            "nan",
            "+1",
            "01e", // digits parse, then junk
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[_]>::len), Some(2));
    }

    #[test]
    fn non_finite_encodes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
