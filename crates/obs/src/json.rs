//! Minimal hand-rolled JSON emission.
//!
//! The workspace vendors no JSON crate. This module centralizes
//! escaping and object/array assembly so every exporter — the
//! observability layer, `harness lint` and the bench reports — produces
//! byte-identical, canonically-ordered output (insertion order, no
//! whitespace).

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON string literal: `s` escaped and quoted.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Incremental JSON object writer with deterministic (insertion) field
/// order and no whitespace.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.buf.push(',');
        }
    }

    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.field_raw(key, &string(value))
    }

    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("\"{}\":{}", escape(key), value));
        self
    }

    /// A float with three decimals; a non-finite value, which JSON has
    /// no number for, becomes `null`.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        if !value.is_finite() {
            return self.field_raw(key, "null");
        }
        self.field_raw(key, &format!("{value:.3}"))
    }

    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("\"{}\":{}", escape(key), value));
        self
    }

    /// Insert a pre-rendered JSON value (object, array, or literal).
    pub fn field_raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(&format!("\"{}\":{}", escape(key), value));
        self
    }

    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

/// Render an array from pre-rendered JSON values.
pub fn array(values: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&v);
    }
    buf.push(']');
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn object_assembly() {
        let mut obj = JsonObject::new();
        obj.field_str("name", "x\"y");
        obj.field_u64("n", 7);
        obj.field_bool("ok", true);
        obj.field_raw("list", &array(["1".into(), "2".into()]));
        obj.field_f64("x", 2.0 / 3.0);
        obj.field_f64("inf", f64::INFINITY);
        assert_eq!(
            obj.finish(),
            "{\"name\":\"x\\\"y\",\"n\":7,\"ok\":true,\"list\":[1,2],\"x\":0.667,\"inf\":null}"
        );
    }
}
