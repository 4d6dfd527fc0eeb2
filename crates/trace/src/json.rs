//! Hand-rolled, dependency-free JSON emission.
//!
//! The build environment is fully offline (no serde), so every exporter in
//! this crate serializes through these helpers. The rules are deliberately
//! strict so traces are *deterministic byte streams*:
//!
//! * object keys are written in the order the caller supplies them — no
//!   hashing, no reordering;
//! * `f64` uses Rust's shortest-roundtrip `{}` formatting, which is
//!   platform-independent; non-finite values serialize as `null`;
//! * strings are escaped per RFC 8259 (control characters as `\u00XX`).
//!
//! Determinism matters because the golden-trace test diffs JSONL output
//! bit-for-bit across `ADCOMP_THREADS` settings.

use std::fmt::Write as _;

/// Appends a JSON string literal (with quotes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends an `f64` as a JSON number (`null` for NaN/±inf).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for a single flat JSON object.
///
/// ```
/// use adcomp_trace::json::ObjWriter;
/// let mut o = ObjWriter::new();
/// o.str_field("ev", "decision");
/// o.u64_field("epoch", 3);
/// o.f64_field("cdr", 1.5);
/// assert_eq!(o.finish(), r#"{"ev":"decision","epoch":3,"cdr":1.5}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl ObjWriter {
    pub fn new() -> Self {
        ObjWriter { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_str(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_str(&mut self.buf, v);
        self
    }

    pub fn u64_field(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn i64_field(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn f64_field(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_f64(&mut self.buf, v);
        self
    }

    pub fn bool_field(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// A field whose value is already-serialized JSON (object/array).
    pub fn raw_field(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// An array of `u32` values.
    pub fn u32_array_field(&mut self, k: &str, vs: &[u32]) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Minimal JSONL validator used by the schema lint and unit tests: checks
/// that a line is one syntactically valid, flat-enough JSON value and
/// returns the top-level keys in order.
///
/// This is not a general JSON parser — it accepts exactly the subset this
/// crate emits (objects of strings, numbers, booleans, nulls, arrays of
/// numbers, and one level of nested objects).
pub fn validate_line(line: &str) -> Result<Vec<String>, String> {
    let mut p = Parser { b: line.as_bytes(), i: 0 };
    p.skip_ws();
    let keys = p.object(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(keys)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn object(&mut self, depth: usize) -> Result<Vec<String>, String> {
        if depth > 2 {
            return Err("nesting too deep".into());
        }
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(keys);
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b'{') => {
                self.object(depth + 1)?;
                Ok(())
            }
            Some(b'[') => {
                self.i += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.value(depth + 1)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected value at offset {}", self.i)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(|_| ())
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = self.peek().ok_or("dangling escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("short \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                _ if c < 0x20 => return Err("raw control char in string".into()),
                _ => {
                    // Re-borrow as char (handles multi-byte UTF-8).
                    let rest = std::str::from_utf8(&self.b[self.i - 1..])
                        .map_err(|_| "invalid UTF-8")?;
                    let ch = rest.chars().next().unwrap();
                    s.push(ch);
                    self.i += ch.len_utf8() - 1;
                }
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_everything_reserved() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\re\tf\u{1}g");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        s.push(' ');
        write_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null null");
    }

    #[test]
    fn obj_writer_roundtrips_through_validator() {
        let mut o = ObjWriter::new();
        o.str_field("ev", "x,y\"z");
        o.u64_field("n", 42);
        o.f64_field("t", 1.25);
        o.bool_field("ok", true);
        o.u32_array_field("bck", &[0, 1, 2]);
        let line = o.finish();
        let keys = validate_line(&line).expect("valid json");
        assert_eq!(keys, vec!["ev", "n", "t", "ok", "bck"]);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_line("{\"a\":}").is_err());
        assert!(validate_line("{\"a\":1} extra").is_err());
        assert!(validate_line("{\"a\":1").is_err());
        assert!(validate_line("[1,2]").is_err()); // top level must be object
    }
}
