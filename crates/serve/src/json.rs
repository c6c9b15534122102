//! Minimal serde-free JSON object parser for protocol frames.
//!
//! The serve protocol deliberately restricts every frame to a *flat*
//! JSON object — string, integer, float, boolean or null values, no
//! nesting — which keeps the hand-rolled parser small enough to reason
//! about under adversarial input (the vendored-offline build rule bans
//! serde, mirroring the encoder in `telemetry::jsonl`). The parser is
//! total: any byte string either yields a field list or a typed
//! [`JsonError`]; it never panics and never loops without consuming
//! input, which the `tests/properties.rs` fuzz targets pin.
//!
//! Integers are kept exact (`u64`/`i64`) rather than routed through
//! `f64`, because scenario seeds are 64-bit and digests are compared
//! bit-for-bit.

// Frames are encoded with the telemetry escaper; re-exported here because
// the benchmark (`perfbench/src/serve_mix.rs`) imports this path.
pub use telemetry::jsonl::push_escaped;

/// A parsed scalar value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string (escapes resolved).
    Str(String),
    /// An integer without fractional part or exponent, in `u64` range.
    UInt(u64),
    /// A negative integer in `i64` range.
    Int(i64),
    /// Any other JSON number.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Why parsing failed. The message names the defect and the byte offset
/// so protocol errors are actionable from the client side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the defect in the frame payload.
    pub at: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

/// A parsed flat object: fields in source order. Duplicate keys are a
/// parse error — a request that says `"seed":1` and `"seed":2` is
/// ambiguous, and ambiguity in a determinism service is a defect.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    /// Field lookup by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All fields in source order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// String field, if present and a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer field, if present and a non-negative integer.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::UInt(v)) => Some(*v),
            _ => None,
        }
    }

    /// Float field: accepts any numeric value (integers widen).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Float(v)) => Some(*v),
            Some(Value::UInt(v)) => Some(*v as f64),
            Some(Value::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean field, if present and a boolean.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &'static str) -> Result<T, JsonError> {
        Err(JsonError { at: self.pos, what })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, byte: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(what)
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.require(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some(h) = self.bump().and_then(|b| (b as char).to_digit(16))
                            else {
                                return self.err("bad \\u escape");
                            };
                            code = code * 16 + h;
                        }
                        // Surrogates are refused rather than decoded: the
                        // protocol never emits them and accepting lone
                        // halves would mint invalid scalar values.
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return self.err("\\u escape is not a scalar value"),
                        }
                    }
                    _ => return self.err("unknown escape"),
                },
                Some(b) if b < 0x20 => return self.err("raw control byte in string"),
                Some(b) => {
                    // Reassemble multi-byte UTF-8: the payload is already
                    // validated UTF-8 by the framing layer, but re-check
                    // here so the parser is safe on raw byte input too.
                    let len: usize = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return self.err("invalid utf-8 in string"),
                    };
                    let start = self.pos - 1;
                    let Some(chunk) = self.bytes.get(start..start + len) else {
                        return self.err("invalid utf-8 in string");
                    };
                    match core::str::from_utf8(chunk) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = start + len;
                        }
                        Err(_) => return self.err("invalid utf-8 in string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !saw_digit {
            return self.err("malformed number");
        }
        // The framing layer guarantees UTF-8; the span is ASCII by
        // construction of the loop above.
        let Ok(text) = core::str::from_utf8(&self.bytes[start..self.pos]) else {
            return self.err("malformed number");
        };
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Float(v)),
            _ => self.err("malformed number"),
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{' | b'[') => self.err("nested values are not allowed in protocol frames"),
            _ => self.err("expected a value"),
        }
    }

    fn keyword(&mut self, word: &'static str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err("unknown keyword")
        }
    }
}

/// Parses one flat JSON object.
///
/// # Errors
///
/// [`JsonError`] naming the defect and byte offset: trailing garbage,
/// nesting, duplicate keys, malformed literals.
pub fn parse_object(text: &str) -> Result<Object, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.require(b'{', "expected '{'")?;
    let mut fields: Vec<(String, Value)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return p.err("duplicate key");
            }
            p.skip_ws();
            p.require(b':', "expected ':'")?;
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return p.err("expected ',' or '}'"),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing bytes after object");
    }
    Ok(Object { fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shape() {
        let obj = parse_object(
            "{\"op\":\"run\",\"seed\":3735928559,\"intensity\":0.5,\
             \"stream\":true,\"note\":null,\"neg\":-4}",
        )
        .unwrap();
        assert_eq!(obj.str_field("op"), Some("run"));
        assert_eq!(obj.u64_field("seed"), Some(0xdead_beef));
        assert_eq!(obj.f64_field("intensity"), Some(0.5));
        assert_eq!(obj.bool_field("stream"), Some(true));
        assert_eq!(obj.get("note"), Some(&Value::Null));
        assert_eq!(obj.get("neg"), Some(&Value::Int(-4)));
    }

    #[test]
    fn rejects_nesting_duplicates_and_trailing() {
        assert!(parse_object("{\"a\":{}}").is_err());
        assert!(parse_object("{\"a\":[1]}").is_err());
        assert!(parse_object("{\"a\":1,\"a\":2}").is_err());
        assert!(parse_object("{} x").is_err());
        assert!(parse_object("{\"a\":1e400}").is_err(), "non-finite float");
        assert!(parse_object("").is_err());
        assert!(parse_object("{\"a\"").is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        let mut rendered = String::from("{\"k\":");
        push_escaped(&mut rendered, "a\"\\\n\tb\u{1}—");
        rendered.push('}');
        let obj = parse_object(&rendered).unwrap();
        assert_eq!(obj.str_field("k"), Some("a\"\\\n\tb\u{1}—"));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let obj = parse_object("{\"seed\":18446744073709551615}").unwrap();
        assert_eq!(obj.u64_field("seed"), Some(u64::MAX));
    }
}
