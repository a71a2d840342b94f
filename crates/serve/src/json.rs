//! A minimal JSON value parser/encoder for request bodies and
//! responses. The suite is std-only by policy (see ROADMAP), so this is
//! hand-rolled; it covers the full JSON grammar but keeps numbers as
//! `f64` (request fields are small integers and strings).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`; use [`Json::as_u64`] for counts).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting the parser accepts. The parser recurses per
/// level, so untrusted input must not choose the recursion depth: a
/// request body of `MAX_BODY` open brackets would otherwise overflow the
/// connection thread's stack and abort the whole process.
pub const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = parse_value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing characters at byte {i}"));
        }
        Ok(v)
    }

    /// Object field lookup (None on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object keys, for unknown-field diagnostics.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// A request body that parsed as a JSON object naming only known fields,
/// read through typed getters that treat an absent field and `null`
/// alike. `POST /v1/run` and `POST /v1/sweep` both start here.
pub(crate) struct Fields(Json);

impl Fields {
    /// Checks that `body` is UTF-8 JSON, an object, and names no field
    /// outside `known` (listed in the diagnostic, in the given order).
    pub(crate) fn parse(body: &[u8], known: &[&str]) -> Result<Fields, String> {
        let text =
            std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
        let v = Json::parse(text).map_err(|e| format!("malformed request body: {e}"))?;
        if !matches!(v, Json::Obj(_)) {
            return Err("request body must be a JSON object".to_string());
        }
        if let Some(k) = v.keys().into_iter().find(|k| !known.contains(k)) {
            return Err(format!("unknown field `{k}` (use {})", known.join(", ")));
        }
        Ok(Fields(v))
    }

    /// Field `name` through `as_t`; an absent or `null` field is `None`,
    /// a mistyped one is "field `name` must be `want`".
    fn field<'a, T>(
        &'a self,
        name: &str,
        want: &str,
        as_t: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.0.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(j) => as_t(j)
                .map(Some)
                .ok_or_else(|| format!("field `{name}` must be {want}")),
        }
    }

    /// A string field.
    pub(crate) fn str(&self, name: &str) -> Result<Option<&str>, String> {
        self.field(name, "a string", Json::as_str)
    }

    /// A non-negative integer field.
    pub(crate) fn u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.field(name, "a non-negative integer", Json::as_u64)
    }

    /// A boolean field.
    pub(crate) fn bool(&self, name: &str) -> Result<Option<bool>, String> {
        self.field(name, "a boolean", Json::as_bool)
    }

    /// An array field, each element converted by `item` in order.
    pub(crate) fn each<T>(
        &self,
        name: &str,
        item: impl FnMut(&Json) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, String> {
        let items = self.field(name, "an array", |j| match j {
            Json::Arr(items) => Some(items),
            _ => None,
        })?;
        items
            .map(|items| items.iter().map(item).collect())
            .transpose()
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {i}"
        )),
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = match parse_value(b, i, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {i} is not a string")),
                };
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                let v = parse_value(b, i, depth + 1)?;
                fields.push((key, v));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i).map(Json::Str),
        Some(b't') => lit(b, i, "true", Json::Bool(true)),
        Some(b'f') => lit(b, i, "false", Json::Bool(false)),
        Some(b'n') => lit(b, i, "null", Json::Null),
        Some(_) => parse_number(b, i),
    }
}

fn lit(b: &[u8], i: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {i}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    *i += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*i) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *i += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogates map to the replacement character; the
                        // service never emits them.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
                *i += 1;
            }
            Some(&c) => {
                if c < 0x20 {
                    return Err(format!("raw control character at byte {i}"));
                }
                // Copy the full UTF-8 sequence.
                let start = *i;
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(start..start + len)
                    .ok_or("truncated UTF-8 sequence".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *i += len;
            }
        }
    }
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<Json, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *i += 1;
    }
    let txt = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
    txt.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{txt}` at byte {start}"))
}

/// Escapes `s` for embedding inside a JSON string literal.
pub use hidisc::telemetry::json_escape as escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap(), &Json::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    /// A body of nothing but open brackets must come back as a parse
    /// error, not unbounded recursion: the service feeds this parser
    /// attacker-controlled bodies up to `http::MAX_BODY` bytes.
    #[test]
    fn deep_nesting_is_rejected_not_recursed() {
        for bomb in ["[".repeat(1024 * 1024), "{\"k\":".repeat(1024 * 1024)] {
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting deeper"), "error was: {err}");
        }
        // Depths inside the limit still parse.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn integer_extraction_is_exact() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "quote\" slash\\ newline\n tab\t control\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(s));
        assert_eq!(
            Json::parse(&doc).unwrap().get("k").unwrap().as_str(),
            Some(s)
        );
    }
}
