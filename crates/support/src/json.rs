//! A small JSON value type with serialization, pretty-printing, and a
//! recursive-descent parser — enough to replace the external JSON
//! crates for the CLI's machine-readable output and the bench reports.
//!
//! Numbers are kept as either `i64` or `f64` so integer payloads
//! round-trip exactly; floats serialize via Rust's shortest-round-trip
//! `Display` formatting.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer-valued number.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Compact single-line serialization (`to_string()` comes with it).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Json {
    /// Multi-line serialization indented by two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Looks up a key in an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element at `idx` in an array; `None` on other variants.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(idx),
            _ => None,
        }
    }

    /// Numeric value as `f64` (from `Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array contents.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

/// `json["key"]` / `json[0]` sugar; panics on missing key like the
/// test-side indexing it replaces would surface anyway.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("no key {key:?} in {self:?}"))
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, idx: usize) -> &Json {
        self.at(idx)
            .unwrap_or_else(|| panic!("no index {idx} in {self:?}"))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        if n <= i64::MAX as u64 {
            Json::Int(n as i64)
        } else {
            Json::Float(n as f64)
        }
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}
impl<V: Into<Json>> From<BTreeMap<String, V>> for Json {
    fn from(map: BTreeMap<String, V>) -> Json {
        Json::Obj(map.into_iter().map(|(k, v)| (k, v.into())).collect())
    }
}

/// Builds a [`Json::Obj`] in insertion order.
#[derive(Clone, Debug, Default)]
pub struct ObjBuilder {
    fields: Vec<(String, Json)>,
}

impl ObjBuilder {
    /// An empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finalizes into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Display never uses exponent notation; avoid hundreds of
        // digits for extreme magnitudes
        let a = x.abs();
        let s = if a != 0.0 && !(1e-5..1e17).contains(&a) {
            format!("{x:e}")
        } else {
            format!("{x}")
        };
        out.push_str(&s);
        // "1" would parse back as an integer; keep the float marker
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
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
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::at(*pos, format!("expected {:?}", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError::at(*pos, format!("expected `{lit}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| ParseError::at(*pos, "unterminated escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let cp = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            // high surrogate: require the paired low one
                            expect(bytes, pos, b'\\')?;
                            expect(bytes, pos, b'u')?;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(ParseError::at(*pos, "invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| ParseError::at(*pos, "invalid \\u escape"))?);
                    }
                    other => {
                        return Err(ParseError::at(
                            *pos,
                            format!("invalid escape \\{}", *other as char),
                        ))
                    }
                }
            }
            Some(_) => {
                // consume one UTF-8 scalar
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| ParseError::at(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().unwrap();
                if (c as u32) < 0x20 {
                    return Err(ParseError::at(*pos, "unescaped control character"));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseError> {
    if *pos + 4 > bytes.len() {
        return Err(ParseError::at(*pos, "truncated \\u escape"));
    }
    let s = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(ParseError::at(start, "expected a value"));
    }
    if !is_float {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| ParseError::at(start, format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let j = Json::Str("a\"b\\c\nd\te\u{0001}f".to_string());
        assert_eq!(j.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
    }

    #[test]
    fn serializes_nested_structures() {
        let j = ObjBuilder::new()
            .field("name", "farmer")
            .field("n", 42u64)
            .field("ratio", 0.5)
            .field("tags", vec!["a", "b"])
            .field("none", Json::Null)
            .build();
        assert_eq!(
            j.to_string(),
            r#"{"name":"farmer","n":42,"ratio":0.5,"tags":["a","b"],"none":null}"#
        );
    }

    #[test]
    fn pretty_print_indents_two_spaces() {
        let j = ObjBuilder::new()
            .field("a", 1i64)
            .field("b", vec![1i64, 2])
            .build();
        assert_eq!(
            j.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}"
        );
    }

    #[test]
    fn floats_keep_a_float_marker() {
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::Float(1e300).to_string(), "1e300");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parses_what_it_prints() {
        let j = ObjBuilder::new()
            .field("s", "he said \"hi\"\n\\done")
            .field("i", -7i64)
            .field("x", 3.25)
            .field("flag", true)
            .field("arr", Json::Arr(vec![Json::Null, Json::Int(0)]))
            .field("nested", ObjBuilder::new().field("k", "v").build())
            .build();
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""\u00e9 \ud83d\ude00""#).unwrap(),
            Json::Str("\u{00e9} \u{1F600}".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn indexing_and_accessors() {
        let j = Json::parse(r#"{"n_rows": 24, "names": ["x"], "p": 0.25}"#).unwrap();
        assert_eq!(j["n_rows"].as_u64(), Some(24));
        assert_eq!(j["names"][0].as_str(), Some("x"));
        assert_eq!(j["p"].as_f64(), Some(0.25));
        assert!(j.get("missing").is_none());
    }
}
