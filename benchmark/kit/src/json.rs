//! A JSON writer (the benchmark only ever writes JSON; reading reports back
//! is `run.py compare`'s job).

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Non-finite values are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as given.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Self {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// One line, no spaces after separators except inside strings.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty.
                let flat = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                out.push('[');
                for (n, item) in items.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, if flat { None } else { indent }, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (n, (key, value)) in fields.iter().enumerate() {
                    if n > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_forms() {
        let j = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)])),
            ("c", Json::obj([("d", Json::str("x\"y\n"))])),
            ("e", Json::Arr(vec![])),
            ("f", Json::Bool(true)),
        ]);
        assert_eq!(
            j.compact(),
            r#"{"a":1,"b":[1.5,null],"c":{"d":"x\"y\n"},"e":[],"f":true}"#
        );
        assert_eq!(
            j.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [1.5, null],\n  \"c\": {\n    \"d\": \"x\\\"y\\n\"\n  },\n  \"e\": [],\n  \"f\": true\n}\n"
        );
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(Json::Num(1.2034567891).compact(), "1.2034567891");
        assert_eq!(Json::Num(3.0).compact(), "3");
    }
}
