//! A minimal scanner for `ppe serve` response lines.
//!
//! The client must stay much cheaper than the server per request, or the
//! warm-hit throughput would measure the client: so instead of building a
//! JSON tree it finds the top-level fields and keeps the residual as the
//! raw escaped slice (a hit is checked byte-for-byte against that slice).

use ppe_server::Json;

/// The fields of one response line the benchmark checks.
#[derive(Debug, Default)]
pub struct Response<'a> {
    /// Cache disposition (`hit`, `miss`, `disk`, ...).
    pub cache: &'a str,
    /// The `ok` flag.
    pub ok: bool,
    /// The residual, still JSON-escaped (without the quotes).
    pub residual_raw: &'a str,
    /// Server-side wall time.
    pub wall_us: u64,
    /// Whether the `degradations` array is non-empty.
    pub degraded: bool,
    /// Whether the response is marked `shed`.
    pub shed: bool,
    /// The raw `exec` object, if any.
    pub exec_raw: Option<&'a str>,
    /// The raw `error` string, if any.
    pub error: Option<&'a str>,
}

/// End (exclusive) of the JSON string whose opening quote is at `start`.
fn string_end(s: &str, start: usize) -> Result<usize, String> {
    let bytes = s.as_bytes();
    let mut from = start + 1;
    loop {
        let rel = s[from..].find('"').ok_or("unterminated string")?;
        let q = from + rel;
        let mut backslashes = 0;
        while q - backslashes > start + 1 && bytes[q - backslashes - 1] == b'\\' {
            backslashes += 1;
        }
        if backslashes % 2 == 0 {
            return Ok(q + 1);
        }
        from = q + 1;
    }
}

/// End (exclusive) of the JSON value starting at `start`.
fn value_end(s: &str, start: usize) -> Result<usize, String> {
    let bytes = s.as_bytes();
    match bytes.get(start) {
        Some(b'"') => string_end(s, start),
        Some(b'{') | Some(b'[') => {
            let mut depth = 0usize;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        i = string_end(s, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            Err("unterminated container".into())
        }
        Some(_) => Ok(s[start..]
            .find([',', '}'])
            .map_or(s.len(), |rel| start + rel)),
        None => Err("missing value".into()),
    }
}

/// Scans a response line's top-level fields.
///
/// # Errors
///
/// Describes a line that is not a flat-keyed JSON object.
pub fn scan(line: &str) -> Result<Response<'_>, String> {
    let line = line.trim_end();
    let bytes = line.as_bytes();
    if bytes.first() != Some(&b'{') {
        return Err(format!("not an object: {}", clip(line)));
    }
    let mut r = Response::default();
    let mut i = 1;
    while i < bytes.len() && bytes[i] != b'}' {
        if bytes[i] != b'"' {
            return Err(format!("expected a key at byte {i}: {}", clip(line)));
        }
        let key_end = string_end(line, i)?;
        let key = &line[i + 1..key_end - 1];
        if bytes.get(key_end) != Some(&b':') {
            return Err(format!("expected `:` after `{key}`"));
        }
        let v = key_end + 1;
        let end = value_end(line, v)?;
        let raw = &line[v..end];
        match key {
            "cache" => r.cache = raw.trim_matches('"'),
            "ok" => r.ok = raw == "true",
            "residual" => r.residual_raw = &raw[1..raw.len() - 1],
            "wall_us" => r.wall_us = raw.parse().map_err(|_| "bad wall_us")?,
            "degradations" => r.degraded = raw != "[]",
            "shed" => r.shed = raw == "true",
            "exec" => r.exec_raw = Some(raw),
            "error" => r.error = Some(&raw[1..raw.len() - 1]),
            _ => {}
        }
        i = end;
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
    Ok(r)
}

/// The length of the text a JSON-escaped string slice decodes to
/// (residuals are ASCII: only two-byte escapes and `\u00XX` occur).
pub fn unescaped_len(raw: &str) -> usize {
    let bytes = raw.as_bytes();
    let mut len = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\\' {
            i += if bytes.get(i + 1) == Some(&b'u') {
                6
            } else {
                2
            };
        } else {
            i += 1;
        }
        len += 1;
    }
    len
}

/// Decodes a JSON-escaped string slice.
///
/// # Errors
///
/// Describes malformed escapes.
pub fn unescape(raw: &str) -> Result<String, String> {
    match Json::parse(&format!("\"{raw}\""))? {
        Json::Str(s) => Ok(s),
        _ => Err("not a string".into()),
    }
}

/// The execution outcome in an `exec` object: `Ok(value)` or the error.
///
/// # Errors
///
/// Describes a malformed object or a failed execution.
pub fn exec_value(raw: &str) -> Result<(String, u64), String> {
    let v = Json::parse(raw)?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = v.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("exec failed: {msg}"));
    }
    let value = v.get("value").and_then(Json::as_str).ok_or("no value")?;
    let ops = v.get("ops").and_then(Json::as_u64).unwrap_or(0);
    Ok((value.to_owned(), ops))
}

/// The first 200 bytes of `s`, for error messages.
pub fn clip(s: &str) -> &str {
    let mut end = s.len().min(200);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_a_response() {
        let line = r#"{"cache":"hit","degradations":[],"exec":{"ok":true,"value":"8","ops":3},"id":1,"key":"ab","ok":true,"residual":"(define (f x)\n  \"x\\\"\")","stats":{"a":1},"wall_us":12}"#;
        let r = scan(line).unwrap();
        assert_eq!(r.cache, "hit");
        assert!(r.ok && !r.degraded && !r.shed);
        assert_eq!(r.wall_us, 12);
        assert_eq!(exec_value(r.exec_raw.unwrap()).unwrap(), ("8".into(), 3));
        let text = unescape(r.residual_raw).unwrap();
        assert_eq!(text, "(define (f x)\n  \"x\\\"\")");
        assert_eq!(unescaped_len(r.residual_raw), text.len());
    }
}
