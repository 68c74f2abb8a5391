//! The workspace's one JSON module: a [`Value`] tree, a recursive
//! descent parser ([`parse`]) and a compact writer (`Value`'s
//! `Display`), plus the record format every
//! `--obs-dir` artifact shares: a record is one [`Value`] on one line
//! ([`to_jsonl`] / [`write_jsonl`]), read back by [`read_jsonl`] and
//! key-checked by [`require`].
//!
//! The workspace builds offline, so this stands in for `serde_json`. It
//! lives here because `sjcm-obs` sits at the bottom of the crate graph:
//! every artifact writer builds its records as [`Value`]s and every
//! artifact validator reads them back through [`read_jsonl`], and the
//! `sjcm` facade re-exports it as `sjcm::json` for the CLI's on-disk
//! files — rectangle datasets (`[[[lo…],[hi…]], …]`) and tree metadata
//! objects, whose wire formats are those of the serde-based first
//! implementation, so files written by older builds still load.

use std::fmt;
use std::path::Path;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    /// Exact for every count, id and µs reading below 2^53.
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<const K: usize> From<[(&str, Value); K]> for Value {
    /// An object with these keys, in this order.
    fn from(pairs: [(&str, Value); K]) -> Self {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Compact JSON text; [`parse`] reads it back to an equal value, except
/// that a non-finite number (NaN, ±∞), which JSON cannot spell, is
/// written as `null`, and so reads back as [`Value::Null`]. This is the
/// only place the workspace spells a JSON number, string or `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) if !n.is_finite() => f.write_str("null"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Str(s) => f.write_str(&escape(s)),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses one JSON document (e.g. one JSONL line). Returns an error
/// message on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

/// A JSONL document: each record on its own line, every line
/// newline-terminated (the empty string for no records).
pub fn to_jsonl(records: impl IntoIterator<Item = Value>) -> String {
    records.into_iter().map(|r| format!("{r}\n")).collect()
}

/// Writes [`to_jsonl`] of `records` to `path`, creating its parent
/// directories first.
pub fn write_jsonl(path: &Path, records: impl IntoIterator<Item = Value>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, to_jsonl(records))
}

/// Reads a JSONL document back into its records, skipping blank lines.
/// A malformed line is an error `line N: …`. The writers never emit a
/// blank line, so in their files record `i` is line `i + 1`, which is
/// how the validators name a record.
pub fn read_jsonl(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Checks that `record` is an object holding every one of `keys`;
/// the error names the first missing key.
pub fn require(record: &Value, keys: &[&str]) -> Result<(), String> {
    if !matches!(record, Value::Obj(_)) {
        return Err("not a JSON object".to_string());
    }
    match keys.iter().find(|k| record.get(k).is_none()) {
        Some(k) => Err(format!("missing key {k}")),
        None => Ok(()),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Value::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_rect_dataset_format() {
        let text = "[[[0.1,0.2],[0.3,0.4]],[[0,0],[1,1]]]";
        let v = parse(text).unwrap();
        let rects = v.as_arr().unwrap();
        assert_eq!(rects.len(), 2);
        let lo = rects[0].as_arr().unwrap()[0].as_arr().unwrap();
        assert_eq!(lo[0].as_f64(), Some(0.1));
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn roundtrip_meta_object() {
        let v = Value::Obj(vec![
            ("root".into(), Value::Num(7.0)),
            ("len".into(), Value::Num(100.0)),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("root").unwrap().as_u64(), Some(7));
        assert_eq!(back.get("len").unwrap().as_u64(), Some(100));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn parses_strings_escapes_and_rejects_garbage() {
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Value::Str("a\n\"bA".into())
        );
        assert_eq!(parse("  null ").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert!(parse("[1,").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("NaN").is_err());
    }

    #[test]
    fn float_display_round_trips() {
        let v = Value::Num(0.123456789012345);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.as_f64(), Some(0.123456789012345));
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(parse(&Value::Num(x).to_string()), Ok(Value::Null), "{x}");
        }
    }

    #[test]
    fn as_u64_accepts_exactly_the_exact_non_negative_integers() {
        let two53 = 2f64.powi(53);
        assert_eq!(Value::Num(-0.0).as_u64(), Some(0));
        assert_eq!(Value::Num(two53).as_u64(), Some(1 << 53));
        assert_eq!(Value::Num(two53 + 2.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn display_round_trips_through_parse() {
        // A control character (written as \u0001) and a non-BMP scalar
        // (written raw), as a key and as a value: writer and parser
        // share `escape`'s alphabet.
        let tricky = "a\"b\\c\nd\te\u{1}\u{1F5FA}";
        let v = Value::Obj(vec![
            (tricky.into(), Value::Str(tricky.into())),
            ("n".into(), Value::Arr(vec![Value::Num(-0.5), Value::Null])),
        ]);
        let text = v.to_string();
        assert!(text.contains("\\u0001") && text.contains('\u{1F5FA}'));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let tricky = "a\"b\\c\nd\te\u{1}";
        let v = parse(&escape(tricky)).unwrap();
        assert_eq!(v.as_str(), Some(tricky));
    }

    #[test]
    fn parses_metric_lines() {
        let line = "{\"type\":\"gauge\",\"name\":\"drift.na.r1.l1\",\"value\":0.042}";
        let v = parse(line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("gauge"));
        assert_eq!(v.get("value").unwrap().as_f64(), Some(0.042));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\":[1,2,{\"b\":null}],\"c\":true}").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
    }

    #[test]
    fn jsonl_round_trips_records_and_names_bad_lines() {
        let records = vec![
            Value::from([("n", 7u64.into()), ("x", f64::NAN.into())]),
            Value::from([("s", "a\nb".into()), ("o", None::<u64>.into())]),
        ];
        let text = to_jsonl(records.clone());
        assert_eq!(text, "{\"n\":7,\"x\":null}\n{\"s\":\"a\\nb\",\"o\":null}\n");
        let back = read_jsonl(&format!("\n{text}  \n")).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].get("x"), Some(&Value::Null));
        assert_eq!(back[1], records[1]);
        assert_eq!(
            read_jsonl("{}\n{\"a\":}\n").unwrap_err().split(':').next(),
            Some("line 2")
        );
        assert_eq!(to_jsonl(Vec::new()), "");
    }

    #[test]
    fn write_jsonl_creates_the_parent_directory() {
        let dir = std::env::temp_dir().join(format!("sjcm_jsonl_{}", std::process::id()));
        let path = dir.join("nested").join("a.jsonl");
        write_jsonl(&path, [Value::from([("k", true.into())])]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"k\":true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn require_names_the_first_missing_key() {
        let v = Value::from([("a", 1u64.into()), ("b", Value::Null)]);
        assert_eq!(require(&v, &["a", "b"]), Ok(()));
        assert_eq!(require(&v, &["a", "c", "d"]), Err("missing key c".into()));
        assert!(require(&Value::Num(1.0), &[]).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("NaN").is_err());
        assert!(parse("{} junk").is_err());
    }
}
