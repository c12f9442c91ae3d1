//! Just enough JSON writing for the result line, `truth.json`, the span
//! file and `BENCHMARK.json`. Nothing here is ever read back by this
//! crate, so there is no parser.

use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits `f64` carries. Non-finite values
/// have no JSON form; they become `null` so the line stays parseable
/// and the reader sees the hole.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `[a, b, …]` from already-encoded elements.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// `{"k": v, …}` from keys and already-encoded values.
pub fn object<'a, I: IntoIterator<Item = (&'a str, String)>>(fields: I) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("µs"), "\"µs\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_break_the_line() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn objects_and_arrays_compose() {
        let o = object([("a", number(1.0)), ("b", array([string("x"), string("y")]))]);
        assert_eq!(o, r#"{"a": 1, "b": ["x", "y"]}"#);
    }
}
