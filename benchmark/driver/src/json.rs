//! A minimal JSON writer (the workspace is dependency-free).

/// A JSON value. Object keys keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// Text that is already JSON (the ledger the obs crate serialises).
    Raw(String),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn hex(xs: &[u64]) -> Json {
        Json::Arr(xs.iter().map(|x| Json::Str(format!("{x:016x}"))).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            // Non-finite values have no JSON form; a probe that divides by
            // a zero count reports null rather than corrupting the line.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` keeps every digit of the measurement.
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_str(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn renders_nested_values_with_escapes() {
        let v = Json::obj([
            ("a", Json::nums(&[1.5, 2.0])),
            ("b", Json::Str("x\"y\n".into())),
            ("c", Json::obj([("n", Json::Int(7))])),
            ("d", Json::Arr(vec![Json::Num(f64::NAN), Json::Null])),
            ("e", Json::hex(&[255])),
            ("f", Json::Raw("{\"k\":1}".into())),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":[1.5,2.0],"b":"x\"y\n","c":{"n":7},"d":[null,null],"e":["00000000000000ff"],"f":{"k":1}}"#
        );
    }
}
