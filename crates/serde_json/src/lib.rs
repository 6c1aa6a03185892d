//! In-repo `serde_json` shim for offline builds.
//!
//! Renders and parses JSON text over the [`serde`] shim's [`Value`]
//! tree. The supported API is exactly what the workspace uses:
//! [`to_string`], [`to_vec`], [`from_str`], [`from_slice`], plus
//! [`Value`] itself.
//!
//! Numbers: integers round-trip exactly through `i64`/`u64`; floats
//! render with Rust's `Display`, which is shortest-round-trip (so the
//! `float_roundtrip` feature of real serde_json holds by construction).
//! Non-finite floats render as `null`, matching real serde_json.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

/// Result alias matching real serde_json's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Serializes `value` to a JSON byte vector.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parses a JSON string into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    T::from_value(&parse(s)?)
}

/// Parses JSON bytes into `T`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

// ------------------------------------------------------------- rendering

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                let mut s = f.to_string();
                // "2" would parse back as an integer; keep it a float.
                if !s.contains('.') && !s.contains('e') {
                    s.push_str(".0");
                }
                out.push_str(&s);
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_value(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(k, out);
                out.push(':');
                render_value(v, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a complete JSON document (trailing whitespace allowed).
fn parse(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!("expected `{}` at offset {}", b as char, self.pos)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(format!("unexpected input at offset {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::msg(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| Error::msg("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| Error::msg("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(Error::msg(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                // Multi-byte UTF-8: copy the full sequence through.
                b if b < 0x80 => out.push(b as char),
                _ => {
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let slice =
                        self.bytes.get(start..end).ok_or_else(|| Error::msg("truncated utf-8"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| Error::msg("invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| Error::msg("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::msg("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::I64(-3)),
            ("b".to_string(), Value::U64(u64::MAX)),
            ("c".to_string(), Value::F64(1.5)),
            ("d".to_string(), Value::Str("he\"llo\nworld".to_string())),
            ("e".to_string(), Value::Array(vec![Value::Null, Value::Bool(true)])),
            ("f".to_string(), Value::Object(vec![])),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn big_u64_round_trips_exactly() {
        let text = to_string(&u64::MAX).unwrap();
        assert_eq!(text, "18446744073709551615");
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(back, u64::MAX);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = to_string(&2.0f64).unwrap();
        assert_eq!(text, "2.0");
        let back: f64 = from_str(&text).unwrap();
        assert_eq!(back, 2.0);
    }

    #[test]
    fn float_display_round_trips() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-8] {
            let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
            assert_eq!(back, f, "{f}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let s: String = from_str(r#""aé😀b""#).unwrap();
        assert_eq!(s, "aé😀b");
        let round: String = from_str(&to_string(&"héllo😀").unwrap()).unwrap();
        assert_eq!(round, "héllo😀");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
        assert!(from_str::<u8>("300").is_err());
    }
}
