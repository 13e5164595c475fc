//! A small hand-rolled JSON value, parser, and serializer.
//!
//! The workspace builds fully offline (xlint R8: path-only dependencies),
//! so the wire protocol cannot lean on serde. The server's protocol is
//! newline-delimited JSON with a flat, known vocabulary, which this module
//! covers completely: objects, arrays, strings with `\uXXXX` escapes,
//! integer and fractional numbers, booleans, null. Objects preserve
//! insertion order (a `Vec` of pairs) so serialized messages are
//! deterministic -- tests compare them textually.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64; integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key of an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content as u64, if this is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to compact JSON (no whitespace, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Build an object value from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Shorthand constructors.
pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// A whole-number value.
pub fn n(v: u64) -> Value {
    Value::Num(v as f64)
}

/// A boolean value.
pub fn b(v: bool) -> Value {
    Value::Bool(v)
}

/// Every byte that needs escaping is ASCII, so the unescaped runs between
/// them always end on char boundaries and are copied whole.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Value::Str(k) => k,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Value::Num).map_err(|_| format!("invalid number {text:?}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one go. Both
        // are ASCII, so the run ends on a char boundary, and validating
        // each run once keeps the parse linear in the string's length.
        let run_len = bytes[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or_else(|| "unterminated string".to_string())?;
        let run = std::str::from_utf8(&bytes[*pos..*pos + run_len]).map_err(|e| e.to_string())?;
        out.push_str(run);
        *pos += run_len + 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(out);
        }
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                // Surrogate pairs: join a high surrogate with the following
                // \uXXXX low surrogate.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if bytes.get(*pos + 5..*pos + 7) != Some(b"\\u") {
                        return Err("lone high surrogate".into());
                    }
                    let lo_hex = bytes
                        .get(*pos + 7..*pos + 11)
                        .ok_or_else(|| "truncated surrogate pair".to_string())?;
                    let lo_hex = std::str::from_utf8(lo_hex).map_err(|e| e.to_string())?;
                    let lo =
                        u32::from_str_radix(lo_hex, 16).map_err(|_| "bad surrogate".to_string())?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("invalid low surrogate".into());
                    }
                    *pos += 6;
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                        .ok_or_else(|| "invalid surrogate pair".to_string())?
                } else {
                    char::from_u32(cp).ok_or_else(|| "invalid code point".to_string())?
                };
                out.push(c);
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {pos}")),
        }
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let v = obj(vec![
            ("op", s("submit")),
            ("id", n(42)),
            ("ok", b(true)),
            ("nothing", Value::Null),
            ("keys", Value::Arr(vec![s("a=@x"), s("b=@y:num")])),
            ("nested", obj(vec![("pi", Value::Num(3.25))])),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"op":"submit","id":42,"ok":true,"nothing":null,"keys":["a=@x","b=@y:num"],"nested":{"pi":3.25}}"#
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}–\u{1F600}".to_string());
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        // Standard escape forms parse too.
        assert_eq!(parse(r#""Aé😀\/""#).unwrap(), Value::Str("Aé\u{1F600}/".to_string()));
    }

    #[test]
    fn multi_megabyte_strings_parse_in_linear_time() {
        // One period of the encoded text and what it decodes to: ASCII,
        // every short escape, \uXXXX (BMP and a surrogate pair), raw
        // multi-byte and astral characters.
        const ENCODED: &str = r#"ab\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00é中😀"#;
        const DECODED: &str = "ab\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1F600}é中😀";
        let periods = (4 << 20) / ENCODED.len() + 1;
        let text = format!("\"{}\"", ENCODED.repeat(periods));
        assert!(text.len() >= 4 << 20);
        let want = Value::Str(DECODED.repeat(periods));
        // Generous for a debug build; a per-character rescan of the rest of
        // the line needs minutes here.
        let budget = std::time::Duration::from_secs(10);
        let started = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), want);
        assert_eq!(parse(&want.to_json()).unwrap(), want);
        let took = started.elapsed();
        assert!(took < budget, "4 MiB string took {took:?}");
    }

    #[test]
    fn numbers_parse() {
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("12345678901").unwrap().as_u64(), Some(12345678901));
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("2.5e2").unwrap().as_f64(), Some(250.0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = parse(r#"{"a": {"b": [1, true, "x"]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn malformed_documents_error() {
        for bad in ["", "{", "[1,", r#"{"a"}"#, "tru", "1x", r#""\q""#, "{} extra"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        /// Characters that stress every serializer path: ASCII, all the
        /// short escapes, raw control chars, multi-byte BMP, and an
        /// astral-plane char (surrogate pair territory), plus JSON
        /// punctuation embedded in string content.
        const PALETTE: &[char] = &[
            'a',
            'Z',
            '9',
            '_',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0008}',
            '\u{000C}',
            '\u{1}',
            '\u{1f}',
            'é',
            '\u{2013}',
            '中',
            '\u{1F600}',
            ' ',
            ':',
            '{',
            '}',
            '[',
            ']',
            ',',
        ];

        fn strings() -> BoxedStrategy<String> {
            proptest::collection::vec(0usize..PALETTE.len(), 0..12)
                .prop_map(|idx| idx.into_iter().map(|i| PALETTE[i]).collect())
                .boxed()
        }

        /// Arbitrary JSON values: nested objects/arrays over leaves that
        /// cover null, booleans, whole numbers up to 2^53, exact binary
        /// fractions, and palette strings.
        fn values() -> BoxedStrategy<Value> {
            let leaf = prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                (0u64..(1u64 << 53)).prop_map(|u| Value::Num(u as f64)),
                ((-(1i64 << 31))..(1i64 << 31), 0u32..3)
                    .prop_map(|(m, d)| Value::Num(m as f64 / f64::from(1u32 << d))),
                strings().prop_map(Value::Str),
            ];
            leaf.prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
                    proptest::collection::vec((strings(), inner), 0..4).prop_map(Value::Obj),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// encode -> decode is the identity for every representable
            /// value, including escapes, unicode, nesting, and numbers at
            /// the edge of exact f64 integers.
            #[test]
            fn encode_decode_is_identity(v in values()) {
                let text = v.to_json();
                let back = parse(&text)
                    .map_err(|e| TestCaseError::fail(format!("{e} parsing {text:?}")))?;
                prop_assert_eq!(back, v);
            }

            /// Any truncation of a valid document either parses (a shorter
            /// prefix can itself be a complete document, e.g. numbers) or
            /// yields a structured error -- never a panic, and re-encoding
            /// a successful parse still round-trips.
            #[test]
            fn truncated_documents_never_panic(v in values(), cut in 0usize..64) {
                let text = v.to_json();
                let cut = cut.min(text.len());
                let prefix: String = text.chars().take(cut).collect();
                match parse(&prefix) {
                    Ok(reparsed) => {
                        let again = parse(&reparsed.to_json())
                            .map_err(TestCaseError::fail)?;
                        prop_assert_eq!(again, reparsed);
                    }
                    Err(e) => prop_assert!(!e.is_empty(), "error text must describe the failure"),
                }
            }

            /// Arbitrary palette junk (quotes, braces, backslashes, raw
            /// control characters) never panics the parser.
            #[test]
            fn arbitrary_input_never_panics(junk in strings()) {
                match parse(&junk) {
                    Ok(_) => {}
                    Err(e) => prop_assert!(!e.is_empty()),
                }
            }
        }
    }
}
