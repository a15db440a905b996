//! JSON serialisation, vendored in place of `serde` + `serde_json`.
//!
//! Three layers:
//!
//! * [`Json`] — a dynamically typed JSON value with a recursive-descent
//!   [`Json::parse`] and a compact writer ([`Json::render`]).
//! * [`ToJson`] / [`FromJson`] — the trait pair that replaces serde's
//!   `Serialize`/`Deserialize` derives, with impls for the std types the
//!   workspace serialises (primitives, strings, options, vectors, tuples,
//!   string-keyed maps).
//! * [`impl_json_struct!`](crate::impl_json_struct),
//!   [`impl_json_newtype!`](crate::impl_json_newtype) and
//!   [`impl_json_enum!`](crate::impl_json_enum) — macros that generate both
//!   impls for the common shapes: structs, newtypes, and enums of unit and
//!   struct-like variants in the externally tagged form
//!   (`{"Variant": {…}}`). Enums with tuple payloads write it by hand.
//!
//! The wire format matches what serde_json produced before the migration:
//! compact separators, struct fields in declaration order, unit enum
//! variants as bare strings, newtype structs as their inner value, tuples
//! as arrays, non-finite floats as `null`, and unknown object fields
//! ignored on decode — so graphs serialised by older builds still load.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A dynamically typed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer (anything that fits `i64`).
    Int(i64),
    /// An unsigned integer above `i64::MAX`.
    UInt(u64),
    /// A float (or any number with a fraction/exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved (struct declaration order).
    Object(Vec<(String, Json)>),
}

/// A parse or decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of a parse error; 0 for decode (shape) errors.
    offset: usize,
}

impl JsonError {
    /// A decode error with a free-form message.
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }

    /// A type-mismatch decode error.
    pub fn expected(what: &str, got: &Json) -> Self {
        JsonError::msg(format!("expected {what}, got {}", got.type_name()))
    }

    /// A missing-field decode error.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        JsonError::msg(format!("missing field `{field}` while decoding {ty}"))
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} at byte {}", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Name of the contained type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Signed integer payload, if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Unsigned integer payload, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The object payload, if any.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a field of an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Parses a JSON document (one value plus optional whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters", p.pos));
        }
        Ok(value)
    }

    /// Renders the value compactly (serde_json-compatible separators).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{:?}` keeps float-ness ("1.0", not "1") and prints the
                    // shortest representation that round-trips.
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{lit}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                format!("unexpected character '{}'", other as char),
                self.pos,
            )),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at("unterminated string", self.pos)),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect_byte(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(JsonError::at(
                                            "invalid low surrogate",
                                            self.pos,
                                        ));
                                    }
                                    let code =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code).ok_or_else(|| {
                                        JsonError::at("invalid surrogate pair", self.pos)
                                    })?
                                } else {
                                    return Err(JsonError::at("lone surrogate", self.pos));
                                }
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| JsonError::at("invalid codepoint", self.pos))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::at("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at("control character in string", self.pos));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so this is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::at("invalid utf-8", self.pos))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| JsonError::at("unexpected end of input", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::at("truncated \\u escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::at("invalid \\u escape", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("invalid number", start))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::at(format!("invalid number `{text}`"), start))
    }
}

/// Serialisation into a [`Json`] value (the `Serialize` replacement).
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;
}

/// Deserialisation from a [`Json`] value (the `Deserialize` replacement).
pub trait FromJson: Sized {
    /// Decodes from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serialises any [`ToJson`] value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render()
}

/// Parses and decodes any [`FromJson`] value from a JSON string.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::expected("bool", v))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::expected("string", v))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

macro_rules! impl_json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v.as_i64().ok_or_else(|| JsonError::expected("integer", v))?;
                <$t>::try_from(raw)
                    .map_err(|_| JsonError::msg(format!("integer {raw} out of range")))
            }
        }
    )*};
}
impl_json_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(v) => Json::Int(v),
                    Err(_) => Json::UInt(wide),
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v.as_u64().ok_or_else(|| JsonError::expected("integer", v))?;
                <$t>::try_from(raw)
                    .map_err(|_| JsonError::msg(format!("integer {raw} out of range")))
            }
        }
    )*};
}
impl_json_unsigned!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("number", v))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .map(|x| x as f32)
            .ok_or_else(|| JsonError::expected("number", v))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::expected("array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::expected("2-element array", v)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::expected("3-element array", v)),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::expected("object", v))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_object()
            .ok_or_else(|| JsonError::expected("object", v))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serialising every listed field in declaration order (the serde-derive
/// format). Unknown fields are ignored on decode; missing fields error.
///
/// ```
/// # use chatgraph_support::impl_json_struct;
/// struct P { x: i64, y: i64 }
/// impl_json_struct!(P { x, y });
/// assert_eq!(chatgraph_support::json::to_string(&P { x: 1, y: 2 }), r#"{"x":1,"y":2}"#);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $( (stringify!($field).to_owned(),
                        $crate::json::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                if v.as_object().is_none() {
                    return Err($crate::json::JsonError::expected("object", v));
                }
                $( let $field = $crate::json::FromJson::from_json(
                    v.get(stringify!($field)).ok_or_else(|| {
                        $crate::json::JsonError::missing_field(
                            stringify!($ty),
                            stringify!($field),
                        )
                    })?,
                )?; )+
                Ok($ty { $($field),+ })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of struct-like and unit
/// variants in serde's externally tagged format: `{"Variant":{fields…}}`,
/// with fields in declaration order, and a bare `"Variant"` string for a
/// unit variant. Unit variants are listed without braces:
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Event {
///     Started { total: usize },
///     Finished,
/// }
/// chatgraph_support::impl_json_enum!(Event { Started { total }, Finished });
///
/// use chatgraph_support::json::{from_str, to_string};
/// assert_eq!(to_string(&Event::Started { total: 2 }), r#"{"Started":{"total":2}}"#);
/// assert_eq!(to_string(&Event::Finished), r#""Finished""#);
/// assert_eq!(from_str::<Event>(r#"{"Started":{"total":2}}"#).unwrap(), Event::Started { total: 2 });
/// assert!(from_str::<Event>(r#""Started""#).is_err());
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $( $variant:ident $({ $($field:ident),* $(,)? })? ),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                use $crate::json::Json;
                match self {
                    $( $ty::$variant { $($($field),*)? } => {
                        let fields: Vec<(String, Json)> = vec![$($(
                            (stringify!($field).to_owned(), $crate::json::ToJson::to_json($field)),
                        )*)?];
                        if fields.is_empty() {
                            Json::Str(stringify!($variant).to_owned())
                        } else {
                            Json::Object(vec![(stringify!($variant).to_owned(), Json::Object(fields))])
                        }
                    } )+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                use $crate::json::JsonError;
                let (tag, payload) = match (v.as_str(), v.as_object()) {
                    (Some(name), _) => (name, None),
                    (_, Some([(tag, payload)])) => (tag.as_str(), Some(payload)),
                    _ => return Err(JsonError::expected(concat!(stringify!($ty), " variant"), v)),
                };
                $( if tag == stringify!($variant) {
                    let unit = <[&str]>::is_empty(&[$($(stringify!($field)),*)?]);
                    if unit != payload.is_none() {
                        return Err(JsonError::msg(format!(
                            "{} variant `{tag}` in the wrong form",
                            stringify!($ty),
                        )));
                    }
                    return Ok($ty::$variant { $($($field: $crate::json::FromJson::from_json(
                        payload.and_then(|p| p.get(stringify!($field))).ok_or_else(|| {
                            JsonError::missing_field(stringify!($ty), stringify!($field))
                        })?,
                    )?),*)? });
                } )+
                Err(JsonError::msg(format!("unknown {} variant `{tag}`", stringify!($ty))))
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serialising it transparently as the inner value (the serde newtype
/// format: `NodeId(3)` is just `3` on the wire).
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "tru", "\"unterminated", "{\"a\"}", "[1 2]", "01x", "{}{}",
            "\"\\q\"", "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_prevents_stack_overflow() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" slash\\ newline\n tab\t bell\u{8} feed\u{c} unicode é 日本 \u{1}";
        let rendered = Json::Str(original.into()).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::Str(original.into()));
        // Escapes follow serde_json's choices.
        assert!(rendered.contains("\\\""));
        assert!(rendered.contains("\\n"));
        assert!(rendered.contains("\\u0001"));
        assert!(rendered.contains('é'));
    }

    #[test]
    fn unicode_escape_sequences_decode() {
        assert_eq!(
            Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap(),
            Json::Str("é😀".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn render_matches_serde_json_format() {
        let v = Json::Object(vec![
            ("int".into(), Json::Int(3)),
            ("float".into(), Json::Float(1.0)),
            ("neg".into(), Json::Float(-0.25)),
            ("s".into(), Json::Str("x".into())),
            ("list".into(), Json::Array(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"int":3,"float":1.0,"neg":-0.25,"s":"x","list":[true,null]}"#
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn value_roundtrip_through_text() {
        let v = Json::Object(vec![
            ("a".into(), Json::Array(vec![Json::Int(-1), Json::Float(0.5)])),
            ("b".into(), Json::Str("héllo\n".into())),
            ("c".into(), Json::Object(vec![("d".into(), Json::Bool(false))])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn primitive_codecs_roundtrip() {
        assert_eq!(from_str::<u32>(&to_string(&7u32)).unwrap(), 7);
        assert_eq!(from_str::<i64>(&to_string(&-9i64)).unwrap(), -9);
        assert_eq!(from_str::<f64>(&to_string(&2.5f64)).unwrap(), 2.5);
        assert_eq!(from_str::<bool>(&to_string(&true)).unwrap(), true);
        assert_eq!(from_str::<String>(&to_string("hi")).unwrap(), "hi");
        assert_eq!(
            from_str::<Option<u8>>(&to_string(&None::<u8>)).unwrap(),
            None
        );
        assert_eq!(
            from_str::<Vec<(u32, String)>>(&to_string(&vec![(1u32, "a".to_owned())])).unwrap(),
            vec![(1, "a".to_owned())]
        );
        let mut m = BTreeMap::new();
        m.insert("k".to_owned(), (1usize, 2usize));
        assert_eq!(
            from_str::<BTreeMap<String, (usize, usize)>>(&to_string(&m)).unwrap(),
            m
        );
    }

    #[test]
    fn integers_widen_to_float_on_decode() {
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<f32>("-2").unwrap(), -2.0);
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<i8>("200").is_err());
    }

    #[derive(Debug)]
    struct Demo {
        name: String,
        count: usize,
        ratio: f64,
    }
    impl_json_struct!(Demo { name, count, ratio });

    #[test]
    fn struct_macro_matches_serde_derive_format() {
        let d = Demo {
            name: "x".into(),
            count: 2,
            ratio: 0.5,
        };
        let s = to_string(&d);
        assert_eq!(s, r#"{"name":"x","count":2,"ratio":0.5}"#);
        let back: Demo = from_str(&s).unwrap();
        assert_eq!(back.name, "x");
        assert_eq!(back.count, 2);
        assert_eq!(back.ratio, 0.5);
    }

    #[test]
    fn struct_macro_ignores_unknown_and_rejects_missing() {
        let with_extra = r#"{"name":"x","count":2,"ratio":0.5,"extra":[1,2]}"#;
        assert!(from_str::<Demo>(with_extra).is_ok());
        let missing = r#"{"name":"x","count":2}"#;
        let err = from_str::<Demo>(missing).unwrap_err();
        assert!(err.to_string().contains("ratio"));
    }

    #[derive(Debug, PartialEq)]
    struct Wrapper(u32);
    impl_json_newtype!(Wrapper);

    #[test]
    fn newtype_macro_is_transparent() {
        assert_eq!(to_string(&Wrapper(5)), "5");
        assert_eq!(from_str::<Wrapper>("5").unwrap(), Wrapper(5));
    }

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    impl_json_enum!(Mode { Fast, Slow });

    #[test]
    fn unit_enum_macro_uses_variant_strings() {
        assert_eq!(to_string(&Mode::Fast), r#""Fast""#);
        assert_eq!(from_str::<Mode>(r#""Slow""#).unwrap(), Mode::Slow);
        assert!(from_str::<Mode>(r#""Medium""#).is_err());
    }
}
