//! A minimal JSON tree with deterministic serialization and a strict
//! parser.
//!
//! Hand-rolled because this workspace builds without registry access. Two
//! properties matter here and are guaranteed: objects keep insertion order
//! (so exports are byte-stable run to run), and `u64` values round-trip
//! exactly (timestamps in nanoseconds exceed `f64`'s integer range).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer, serialized exactly.
    U64(u64),
    /// A signed integer, serialized exactly.
    I64(i64),
    /// A finite float, serialized via Rust's shortest round-trip format.
    F64(f64),
    /// A nanosecond count serialized as fractional microseconds with three
    /// decimals (`1234567` → `1234.567`) — exact, unlike going through
    /// `f64`. This is the Chrome-trace `ts`/`dur` convention.
    Micros(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if losslessly representable.
    #[cfg(test)]
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert; `Micros` divides by 1000).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::Micros(ns) => Some(ns as f64 / 1e3),
            _ => None,
        }
    }

    /// Parse a JSON document. Strict: one value, nothing but whitespace
    /// after it. Numbers with a fraction or exponent parse as [`Json::F64`];
    /// integers as [`Json::U64`]/[`Json::I64`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                at: pos,
                what: "trailing characters",
            });
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                debug_assert!(v.is_finite(), "JSON cannot represent {v}");
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}") // keep a ".0" so floats stay floats
                } else {
                    write!(f, "{v}")
                }
            }
            Json::Micros(ns) => write!(f, "{}.{:03}", ns / 1000, ns % 1000),
            Json::Str(s) => write_escaped(f, s),
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
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Where and why parsing failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// A short description.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError {
            at: *pos,
            what: "unexpected token",
        })
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(ParseError {
            at: *pos,
            what: "unexpected end of input",
        }),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(ParseError {
                        at: *pos,
                        what: "expected ':'",
                    });
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            at: *pos,
            what: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    what: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            at: *pos,
                            what: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            at: *pos,
                            what: "bad \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            at: *pos,
                            what: "bad \\u escape",
                        })?;
                        // Surrogate pairs are not needed by our exports.
                        out.push(char::from_u32(code).ok_or(ParseError {
                            at: *pos,
                            what: "bad codepoint",
                        })?);
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            what: "bad escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| ParseError {
                    at: *pos,
                    what: "invalid UTF-8",
                })?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| ParseError {
        at: start,
        what: "bad number",
    })?;
    if text.is_empty() || text == "-" {
        return Err(ParseError {
            at: start,
            what: "expected value",
        });
    }
    if is_float {
        text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
            at: start,
            what: "bad number",
        })
    } else if let Ok(v) = text.parse::<u64>() {
        Ok(Json::U64(v))
    } else if let Ok(v) = text.parse::<i64>() {
        Ok(Json::I64(v))
    } else {
        Err(ParseError {
            at: start,
            what: "integer out of range",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::obj([("zebra", Json::U64(1)), ("apple", Json::U64(2))]);
        assert_eq!(j.to_string(), r#"{"zebra":1,"apple":2}"#);
    }

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX - 7;
        let text = Json::U64(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn micros_renders_exact_decimal() {
        assert_eq!(Json::Micros(1_234_567).to_string(), "1234.567");
        assert_eq!(Json::Micros(42).to_string(), "0.042");
        assert_eq!(Json::Micros(0).to_string(), "0.000");
        let parsed = Json::parse("1234.567").unwrap();
        assert_eq!(parsed, Json::F64(1234.567));
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}";
        let text = Json::Str(s.to_string()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::obj([
            ("name", Json::Str("fig8".into())),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "xs",
                Json::Arr(vec![Json::U64(1), Json::I64(-2), Json::F64(0.5)]),
            ),
            ("nested", Json::obj([("k", Json::Str("v".into()))])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name").and_then(Json::as_str), Some("fig8"));
        assert_eq!(
            back.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            back.get("nested")
                .and_then(|n| n.get("k"))
                .and_then(Json::as_str),
            Some("v")
        );
        // Serialization is deterministic.
        assert_eq!(text, Json::parse(&text).unwrap().to_string());
    }

    #[test]
    fn float_formatting_keeps_type() {
        assert_eq!(Json::F64(3.0).to_string(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::F64(3.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let j = Json::parse("  { \"a\" : [ 1 , 2 ] }\n").unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
