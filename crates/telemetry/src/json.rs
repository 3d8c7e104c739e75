//! A tiny JSON document builder — the shared renderer behind the
//! trace endpoint and `nfi store inspect --json`.
//!
//! The workspace's flat-object *parser* lives in `nfi_sfi::jsontext`;
//! this is the writing side for the layers below `nfi-sfi` in the
//! dependency graph. Comma placement is tracked per nesting level, so
//! callers just emit keys and values in order.

/// Escapes `s` for use inside a JSON string literal.
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

/// An append-only JSON builder. Objects and arrays nest; values at the
/// top level or inside arrays are emitted with the `*_val`/`push_*`
/// methods, members inside objects with the `field_*` methods.
#[derive(Debug, Default)]
pub struct JsonBuf {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonBuf {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (`{`) as a value.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`) as a value.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push(']');
        self
    }

    /// Emits an object key; the next emitted value becomes its member.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\":");
        // The value that follows must not re-insert a comma.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Emits a string value.
    pub fn str_val(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Emits an unsigned integer value.
    pub fn u64_val(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Emits a boolean value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// `key(name)` followed by `str_val(v)`.
    pub fn field_str(&mut self, name: &str, v: &str) -> &mut Self {
        self.key(name).str_val(v)
    }

    /// `key(name)` followed by `u64_val(v)`.
    pub fn field_u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.key(name).u64_val(v)
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_nested_documents_with_correct_commas() {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_str("name", "x").field_u64("n", 3);
        j.key("items").begin_arr();
        j.u64_val(1).u64_val(2);
        j.begin_obj().field_str("k", "v").end_obj();
        j.end_arr();
        j.key("ok").bool_val(true);
        j.end_obj();
        assert_eq!(
            j.finish(),
            r#"{"name":"x","n":3,"items":[1,2,{"k":"v"}],"ok":true}"#
        );
    }
}
