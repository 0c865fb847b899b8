//! The workspace's one JSON writer.
//!
//! Every JSON file the workspace emits goes through [`Json`]: the
//! benchmark artifacts (`BENCH_*.json`), the experiment tables under
//! `results/`, and Chrome-trace exports. The writer is a small ordered
//! object builder: fields render exactly in insertion order, so the
//! schema is spelled out at the emit site rather than derived from
//! struct layout, and a diff of two files lines up field by field.
//! There is deliberately no parser: models and plans persist in the
//! canonical byte encodings ([`crate::encode`]), so nothing in the
//! workspace reads JSON back.

use std::fmt::Write as _;
use std::path::Path;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counts, sizes).
    UInt(u64),
    /// Finite float, shortest round-trip formatting.
    Num(f64),
    /// String, escaped on render.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object, for builder chaining via [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field (objects only).
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Fetch a field of an object by key (tests / CI-style validation).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (2-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => write_block(out, indent, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent + 1);
            }),
            Json::Obj(fields) => write_block(out, indent, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\": ");
                v.write(out, indent + 1);
            }),
        }
    }
}

fn write_block(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    if len == 0 {
        out.push(open);
        out.push(close);
        return;
    }
    out.push(open);
    for i in 0..len {
        out.push('\n');
        out.push_str(&"  ".repeat(indent + 1));
        item(out, i);
        if i + 1 < len {
            out.push(',');
        }
    }
    out.push('\n');
    out.push_str(&"  ".repeat(indent));
    out.push(close);
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
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

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A `u64` fingerprint as a fixed-width hex string (`"0x0123…"`) — u64
/// does not fit losslessly in a JSON number.
pub fn hex_u64(x: u64) -> String {
    format!("0x{x:016x}")
}

/// Write `value` to `path`, creating parent directories as needed.
pub fn write_json_file(path: &Path, value: &Json) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(path, value.render()).expect("write json file");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_render_in_insertion_order() {
        let j = Json::obj()
            .field("z", 1u64)
            .field("a", 2u64)
            .field("m", true);
        let s = j.render();
        let (zi, ai, mi) = (
            s.find("\"z\"").unwrap(),
            s.find("\"a\"").unwrap(),
            s.find("\"m\"").unwrap(),
        );
        assert!(zi < ai && ai < mi, "insertion order preserved:\n{s}");
        assert_eq!(j.get("a"), Some(&Json::UInt(2)));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn floats_round_trip_and_nonfinite_is_null() {
        assert_eq!(Json::from(0.1f64).render(), "0.1\n");
        assert_eq!(Json::from(f64::NAN).render(), "null\n");
        assert_eq!(Json::from(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn nested_pretty_rendering() {
        let j = Json::obj()
            .field("xs", vec![Json::UInt(1), Json::UInt(2)])
            .field("o", Json::obj().field("k", "v"))
            .field("empty", Vec::<Json>::new().into_iter().collect::<Vec<_>>());
        let expected = "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"o\": {\n    \"k\": \"v\"\n  },\n  \"empty\": []\n}\n";
        assert_eq!(j.render(), expected);
    }

    #[test]
    fn hex_fingerprints_are_fixed_width() {
        assert_eq!(hex_u64(0xff), "0x00000000000000ff");
        assert_eq!(hex_u64(u64::MAX), "0xffffffffffffffff");
    }
}
