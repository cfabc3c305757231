//! Minimal JSON emission for the fig/tab harnesses.
//!
//! Every harness prints a human-readable table and closes with one
//! machine-readable record of the same run: [`emit`] writes one
//! compact JSON object to stdout.
//!
//! Hand-rolled because the environment is offline (no serde); only
//! what the harnesses need is implemented.

/// A JSON value. Construct with the helpers ([`Json::obj`],
/// [`Json::arr`], `From` impls) rather than the variants directly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialize as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (kept exact; benchmark counters fit i64).
    Int(i64),
    /// Float.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f}"));
            } else {
                out.push_str("null"); // JSON has no NaN/Infinity
            }
        }
        Json::Str(s) => escape(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        write_value(self, &mut s);
        f.write_str(&s)
    }
}

/// Build one harness record: an object whose first key is `"id"` (the
/// figure/table identifier), followed by `fields` in order, and closed
/// by two machine-environment tags every record carries:
///
/// * `host_cores` — the detected core count. Throughput numbers from
///   different core counts are not comparable.
/// * `simd_dispatch` — the host's detected vector ISA (`"scalar"` /
///   `"sse2"` / `"avx2"`); a host tag, nothing dispatches on it.
pub fn record<K: Into<String>, V: Into<Json>>(
    id: &str,
    fields: impl IntoIterator<Item = (K, V)>,
) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("id".into(), Json::Str(id.into()))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.into(), v.into())));
    pairs.push((
        "host_cores".into(),
        Json::Int(lepton_simd::host_cores() as i64),
    ));
    pairs.push((
        "simd_dispatch".into(),
        Json::Str(lepton_simd::level_str().into()),
    ));
    Json::Obj(pairs)
}

/// Emit one harness record (see [`record`] for the shape) to stdout.
pub fn emit<K: Into<String>, V: Into<Json>>(id: &str, fields: impl IntoIterator<Item = (K, V)>) {
    println!("\n{}", record(id, fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_serialize_compactly() {
        let v = Json::obj([
            ("name", Json::from("fig\"x\"")),
            ("n", Json::from(3usize)),
            ("ratio", Json::from(0.25)),
            ("ok", Json::from(true)),
            ("bad", Json::Num(f64::NAN)),
            ("pts", Json::arr([1i64, 2, 3])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"fig\"x\"","n":3,"ratio":0.25,"ok":true,"bad":null,"pts":[1,2,3]}"#
        );
    }

    #[test]
    fn control_chars_are_escaped() {
        let v = Json::from("a\nb\tc\u{1}");
        assert_eq!(v.to_string(), "\"a\\nb\\tc\\u0001\"");
    }

    /// Every record is closed by the machine-environment tags that
    /// comparability depends on, and the dispatch tag reports the
    /// level the kernels actually run at.
    #[test]
    fn records_carry_environment_tags() {
        let rec = record("fig_test", [("mbps", Json::from(1.5))]);
        let Json::Obj(pairs) = rec else {
            panic!("record must be an object")
        };
        assert_eq!(pairs[0].0, "id");
        assert_eq!(pairs[1], ("mbps".into(), Json::Num(1.5)));
        let n = pairs.len();
        assert_eq!(
            pairs[n - 2],
            (
                "host_cores".into(),
                Json::Int(lepton_simd::host_cores() as i64)
            )
        );
        assert_eq!(
            pairs[n - 1],
            (
                "simd_dispatch".into(),
                Json::Str(lepton_simd::level_str().into())
            )
        );
    }

    #[test]
    fn nested_objects_keep_order() {
        let v = Json::obj([
            ("z", Json::obj([("k", Json::Null)])),
            ("a", Json::arr(Vec::<Json>::new())),
        ]);
        assert_eq!(v.to_string(), r#"{"z":{"k":null},"a":[]}"#);
    }
}
