//! A minimal JSON *parser*: builds a [`Json`] tree for the telemetry
//! files the workspace itself writes — `BENCH.json` benchmark snapshots
//! and the counter-profile export — and for the daemon's wire protocol.
//! It is also the workspace's JSON validator (`parse_json(s).is_ok()`),
//! strict to the RFC 8259 grammar (no leading zeros, exactly four hex
//! digits per `\u` escape). Std-only, recursive descent, no number
//! cleverness beyond `f64` (every number we write fits `f64` exactly:
//! counters are small and durations are nanosecond integers well under
//! 2^53).

/// A parsed JSON value. Object keys keep their textual order (the
/// telemetry writers emit deterministic key order, and keeping it makes
/// re-rendering stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs for the precision contract).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in textual key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (exact for |n| < 2^53).
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the tree back to JSON text. The inverse of [`parse_json`]:
    /// `parse_json(&t.render()) == Ok(t)` for every tree whose numbers
    /// are finite (the only values [`parse_json`] can produce — a
    /// hand-built non-finite number renders as `null`). Deterministic:
    /// object keys keep their stored order, no whitespace is emitted,
    /// and strings escape exactly `"`/`\`/control characters.
    #[must_use]
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
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
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

/// One JSON object field, for building trees by hand.
#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[allow(clippy::cast_possible_truncation)]
fn render_number(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // Integers in the exact range render without a fraction; everything
    // else uses Rust's shortest-round-trip `Display`, which `parse_json`
    // reads back to the same `f64`.
    if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one complete JSON value (with only whitespace around it).
///
/// # Errors
///
/// Returns `(byte offset, message)` for the first violation.
pub fn parse_json(s: &str) -> Result<Json, (usize, String)> {
    let b = s.as_bytes();
    let mut i = 0;
    skip_ws(b, &mut i);
    let v = value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err((i, "trailing content after JSON value".into()));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Json, (usize, String)> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i).map(Json::Str),
        Some(b't') => lit(b, i, "true", Json::Bool(true)),
        Some(b'f') => lit(b, i, "false", Json::Bool(false)),
        Some(b'n') => lit(b, i, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err((*i, format!("unexpected byte {:?}", *c as char))),
        None => Err((*i, "unexpected end of input".into())),
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<Json, (usize, String)> {
    *i += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, i);
        let k = string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err((*i, "expected ':' in object".into()));
        }
        *i += 1;
        skip_ws(b, i);
        let v = value(b, i)?;
        fields.push((k, v));
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err((*i, "expected ',' or '}' in object".into())),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<Json, (usize, String)> {
    *i += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, i);
        items.push(value(b, i)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err((*i, "expected ',' or ']' in array".into())),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<String, (usize, String)> {
    if b.get(*i) != Some(&b'"') {
        return Err((*i, "expected string".into()));
    }
    *i += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(out);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        // Exactly four ASCII hex digits: `from_str_radix`
                        // alone would also take a leading `+`.
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or((*i, "bad \\u escape".to_string()))?;
                        // Surrogates render as the replacement character:
                        // the in-tree writers never emit them.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    _ => return Err((*i, "bad escape".into())),
                }
                *i += 1;
            }
            0x00..=0x1f => return Err((*i, "raw control character in string".into())),
            _ => {
                // Copy the full UTF-8 sequence starting here.
                let start = *i;
                *i += 1;
                while *i < b.len() && (b[*i] & 0xc0) == 0x80 {
                    *i += 1;
                }
                match std::str::from_utf8(&b[start..*i]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err((start, "invalid UTF-8 in string".into())),
                }
            }
        }
    }
    Err((*i, "unterminated string".into()))
}

fn number(b: &[u8], i: &mut usize) -> Result<Json, (usize, String)> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > s
    };
    let int_start = *i;
    if !digits(b, i) || (b[int_start] == b'0' && *i - int_start > 1) {
        return Err((start, "malformed number".into()));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err((start, "malformed number".into()));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err((start, "malformed number".into()));
        }
    }
    let text = std::str::from_utf8(&b[start..*i]).map_err(|_| (start, "bad number".to_string()))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| (start, "malformed number".into()))
}

fn lit(b: &[u8], i: &mut usize, text: &str, v: Json) -> Result<Json, (usize, String)> {
    if b[*i..].starts_with(text.as_bytes()) {
        *i += text.len();
        Ok(v)
    } else {
        Err((*i, format!("expected `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(parse_json("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(parse_json("\"\\u00e9\"").unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn parses_structures_and_accessors() {
        let v = parse_json(r#"{"samples":[{"name":"x","median_ns":120}],"n":3}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        let samples = v.get("samples").and_then(Json::as_array).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(
            samples[0].get("median_ns").and_then(Json::as_f64),
            Some(120.0)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_accepts_and_rejects() {
        for (input, ok) in [
            ("{}", true),
            ("[1, [2, [3]]]", true),
            ("{\"a\":1} x", false),
            ("[1,]", false),
            ("\"\\q\"", false),
            ("", false),
        ] {
            assert_eq!(parse_json(input).is_ok(), ok, "parse {input:?}");
        }
    }

    #[test]
    fn non_integer_as_u64_is_none() {
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
        assert_eq!(parse_json("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn render_round_trips_hand_built_trees() {
        let t = obj(vec![
            ("s", Json::Str("a\"b\\c\n\u{1}é".into())),
            ("n", Json::Num(-2.5)),
            ("i", Json::Num(1234567.0)),
            (
                "a",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Obj(vec![])]),
            ),
        ]);
        let text = t.render();
        assert_eq!(parse_json(&text).unwrap(), t);
        // Rendering is deterministic and whitespace-free.
        assert_eq!(parse_json(&text).unwrap().render(), text);
    }

    #[test]
    fn render_escapes_control_characters() {
        let text = Json::Str("\u{0}\u{1f}\t".into()).render();
        assert_eq!(text, "\"\\u0000\\u001f\\t\"");
        assert_eq!(
            parse_json(&text).unwrap(),
            Json::Str("\u{0}\u{1f}\t".into())
        );
    }
}
