//! A minimal JSON reader and writer for the bench artifacts.
//!
//! The workspace deliberately carries no external crates, so the bench
//! binaries write their `BENCH_*.json` artifacts with [`Obj`], and the CI
//! regression gate ([`crate::gate`]) parses those and the committed
//! baselines with this recursive descent parser instead of serde. It
//! covers exactly the JSON the writer emits: objects, arrays, strings
//! (with the escapes the writer uses), numbers, booleans, and null.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the artifacts only use f64-representable values).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        match p.peek() {
            None => Ok(v),
            Some(_) => Err(format!("trailing bytes at offset {}", p.pos)),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Dot-separated path lookup: object keys and array indices, e.g.
    /// `"runs.2.fast_p99_ms"` or `"micro.warm_acquire_image_cycles"`.
    pub fn path(&self, p: &str) -> Option<&Json> {
        let mut cur = self;
        for seg in p.split('.') {
            cur = match (cur, seg.parse::<usize>()) {
                (Json::Arr(items), Ok(i)) => items.get(i)?,
                _ => cur.get(seg)?,
            };
        }
        Some(cur)
    }

    /// The numbers at every leaf `pattern` names, in document order: a
    /// `*` segment matches every array index.
    pub fn numbers(&self, pattern: &str) -> Vec<f64> {
        let mut leaves = Vec::new();
        collect(self, "", &mut leaves);
        let named = leaves
            .into_iter()
            .filter(|(path, _)| matches(pattern, path));
        named.filter_map(|(_, leaf)| leaf.as_f64()).collect()
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A JSON object under construction for a bench artifact. Each field is
/// rendered as it is added, so a number keeps the decimals its field is
/// written with and the artifact parses back to exactly those values.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// A field in its `Display` form: an integer, a float at its shortest
    /// round-trip form, or a nested [`Obj`].
    pub fn val(mut self, key: &str, v: impl fmt::Display) -> Obj {
        self.0.push(format!("{key:?}: {v}"));
        self
    }

    /// A float at `decimals` fixed decimals.
    pub fn num(self, key: &str, v: f64, decimals: usize) -> Obj {
        self.val(key, format!("{v:.decimals$}"))
    }

    /// A string. Its quotes, backslashes, and line breaks are escaped the
    /// way Rust and JSON both write them.
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.val(key, format!("{v:?}"))
    }

    /// An array of `Display` items on one line.
    pub fn list<T: fmt::Display>(self, key: &str, items: impl IntoIterator<Item = T>) -> Obj {
        let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
        self.val(key, format!("[{}]", items.join(", ")))
    }

    /// An array of objects, one per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Obj {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("\n    {r}")).collect();
        self.val(key, format!("[{}\n  ]", rows.join(",")))
    }

    /// The object as a document, one top-level field per line.
    pub(crate) fn document(&self) -> String {
        format!("{{\n  {}\n}}\n", self.0.join(",\n  "))
    }
}

/// The object on one line.
impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

/// Every leaf under `j` with its dotted path.
pub(crate) fn collect<'a>(j: &'a Json, path: &str, out: &mut Vec<(String, &'a Json)>) {
    let children: Vec<(String, &Json)> = match j {
        Json::Obj(fields) => fields.iter().map(|(k, v)| (k.clone(), v)).collect(),
        Json::Arr(items) => (0..).zip(items).map(|(i, v)| (format!("{i}"), v)).collect(),
        leaf => return out.push((path.to_string(), leaf)),
    };
    for (seg, child) in children {
        collect(child, format!("{path}.{seg}").trim_start_matches('.'), out);
    }
}

/// Whether `pattern` names leaf `path`: segment by segment, where a `*`
/// matches any array index.
pub(crate) fn matches(pattern: &str, path: &str) -> bool {
    let (p, q): (Vec<&str>, Vec<&str>) = (pattern.split('.').collect(), path.split('.').collect());
    let seg = |(p, q): (&&str, &&str)| p == q || (*p == "*" && q.parse::<usize>().is_ok());
    p.len() == q.len() && p.iter().zip(&q).all(seg)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// The next byte past any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    /// Consumes `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(format!("expected `{}` at offset {}", c as char, self.pos)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.seq(b'}', Parser::field).map(Json::Obj),
            Some(b'[') => self.seq(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn field(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok((key, self.value()?))
    }

    /// The items of an array or object whose opening byte is next,
    /// through its `close` byte.
    fn seq<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        match self.b[self.pos..].starts_with(word.as_bytes()) {
            true => Ok(v).inspect(|_| self.pos += word.len()),
            false => Err(format!("bad keyword at offset {}", self.pos)),
        }
    }

    /// A string's bytes, unescaped, decoded as the UTF-8 they were written in.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.pos) {
            self.pos += 1;
            out.push(match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => match self.b.get(self.pos).inspect(|_| self.pos += 1) {
                    Some(&e @ (b'"' | b'\\' | b'/')) => e,
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    Some(b'r') => b'\r',
                    e => return Err(format!("unsupported escape {e:?} at offset {}", self.pos)),
                },
                _ => c,
            });
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let numeric = |c: &u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
        self.pos += self.b[start..].iter().take_while(|c| numeric(c)).count();
        let text = std::str::from_utf8(&self.b[start..self.pos]).ok();
        let n = text.and_then(|s| s.parse().ok());
        n.map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let doc = r#"{
  "runs": [
    {"label": "a b", "p99_ms": 1.25, "served": 1000, "ok": true},
    {"label": "c", "p99_ms": -2e-3, "served": 0, "ok": false}
  ],
  "config": {"shards": 4, "note": null}
}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.path("runs.0.label").unwrap().as_str(), Some("a b"));
        assert_eq!(j.path("runs.1.p99_ms").unwrap().as_f64(), Some(-2e-3));
        assert_eq!(j.path("config.shards").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.path("config.note"), Some(&Json::Null));
        assert!(matches!(j.path("runs"), Some(Json::Arr(rows)) if rows.len() == 2));
        assert_eq!(j.path("runs.0.ok"), Some(&Json::Bool(true)));
        assert!(j.path("runs.5.label").is_none());
        assert!(j.path("nope").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let j = Json::parse(r#"{"s": "a\"b\\c\nd"}"#).unwrap();
        assert_eq!(j.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn written_artifacts_read_back_to_the_same_values() {
        let labels = [
            "p99 (µs)",
            "a \"quoted\" row",
            "back\\slash",
            "two\nlines\tand\rmore",
        ];
        let doc = Obj::new()
            .rows(
                "runs",
                labels
                    .iter()
                    .map(|l| Obj::new().str("label", l).num("p50_ms", 0.06774049, 6)),
            )
            .val(
                "config",
                Obj::new().val("cadence_s", 0.0001).val("shards", 4),
            )
            .num("ratio", 2.0 / 3.0, 4)
            .list("routed", [300, 200, 200])
            .document();
        let j = Json::parse(&doc).unwrap();
        for (i, label) in labels.iter().enumerate() {
            let row = j.path(&format!("runs.{i}")).unwrap();
            assert_eq!(row.get("label").and_then(Json::as_str), Some(*label));
            assert_eq!(row.get("p50_ms").and_then(Json::as_f64), Some(0.067740));
        }
        assert_eq!(j.path("config.cadence_s").unwrap().as_f64(), Some(0.0001));
        assert_eq!(j.path("config.shards").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.path("ratio").unwrap().as_f64(), Some(0.6667));
        assert_eq!(j.path("routed.2").unwrap().as_f64(), Some(200.0));
        // The reader alone: a multi-byte character is one character.
        let j = Json::parse("{\"unit\": \"µs\"}").unwrap();
        assert_eq!(j.get("unit").and_then(Json::as_str), Some("µs"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }
}
