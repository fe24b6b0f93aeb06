//! The repository's JSON codec: one writer, one parser, one set of typed
//! field readers, dependency-free (the repository must build fully offline,
//! so this deliberately replaces `serde_json`).
//!
//! Every JSON document the system stores, ships or reports — journal and
//! queue lines, v2 wire frames, campaign specs, the metrics dump, the HTTP
//! bodies — is written through [`Writer`] and taken apart through the
//! `*_at` readers on [`Json`]; no other module knows how a key is quoted, a
//! string escaped or a list separated.
//!
//! * **Writing** is append-only into a caller's `String`: compact (no
//!   whitespace), keys in call order, `null` for `None`. Nothing is
//!   buffered, so a document embeds another by writing it in place.
//! * **Numbers.** Integers are exact: a number without fraction or exponent
//!   parses to [`Json::Int`] (`i128`, so every `u64` survives) and anything
//!   wider is an error, never a rounded value. A number with a fraction or
//!   exponent parses to [`Json::Float`] and must be finite (`1e999` is an
//!   error); the integer readers refuse it.
//! * **Depth.** Arrays and objects nest at most [`MAX_DEPTH`] deep; deeper
//!   input is an error before it is a stack overflow — every parser entry
//!   point sits behind a trust boundary (HTTP body, wire frame, file line).
//! * **Errors** are `String`s that name the field (or offset) at fault;
//!   no input panics.

/// Deepest array/object nesting [`parse`] accepts. The deepest document the
/// system itself writes — a status body embedding a report whose records
/// carry a deviation's commit arrays — nests 6 levels; 32 leaves room for
/// foreign documents while keeping the recursive descent within a few KiB
/// of stack whatever a peer sends.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, exactly.
    Int(i128),
    /// A finite number written with a fraction or an exponent.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The required field `key`, whatever its type.
    pub fn at(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    fn typed_at<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        read(self.at(key)?).ok_or_else(|| format!("`{key}` is not {what}"))
    }

    /// The required unsigned field `key`.
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.typed_at(key, "an unsigned 64-bit integer", Json::as_u64)
    }

    /// The required unsigned field `key`, checked to fit a `u32`.
    pub fn u32_at(&self, key: &str) -> Result<u32, String> {
        self.typed_at(key, "an unsigned 32-bit integer", Json::as_u32)
    }

    /// The required unsigned field `key`, checked to fit a `usize`.
    pub fn usize_at(&self, key: &str) -> Result<usize, String> {
        self.typed_at(key, "an unsigned machine-word integer", |v| {
            v.as_u64().and_then(|n| usize::try_from(n).ok())
        })
    }

    /// The required string field `key`.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.typed_at(key, "a string", Json::as_str)
    }

    /// The required boolean field `key`.
    pub fn bool_at(&self, key: &str) -> Result<bool, String> {
        self.typed_at(key, "a boolean", Json::as_bool)
    }

    /// The required array field `key`.
    pub fn array_at(&self, key: &str) -> Result<&[Json], String> {
        self.typed_at(key, "an array", Json::as_array)
    }

    /// The required object field `key`, as its `(name, value)` pairs in
    /// source order (for objects keyed by data, like labelled tallies).
    pub fn fields_at(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.typed_at(key, "an object", |v| match v {
            Json::Object(fields) => Some(fields.as_slice()),
            _ => None,
        })
    }

    /// The required field `key` as a list of unsigned integers (what
    /// [`Writer::u64s`] writes).
    pub fn u64s_at(&self, key: &str) -> Result<Vec<u64>, String> {
        self.array_at(key)?
            .iter()
            .map(|n| {
                n.as_u64()
                    .ok_or_else(|| format!("`{key}` holds a non-integer"))
            })
            .collect()
    }

    /// The optional field `key`: `None` when it is absent or `null`,
    /// otherwise what `read` — one of the `*_at` readers, or any decoder of
    /// the same shape — makes of it.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => read(self, key).map(Some),
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    use core::fmt::Write as _;
    // Keys, idents and most messages need no escape at all: copy them whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return out.push_str(s);
    }
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
}

/// Escapes a string for embedding in a JSON document (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// An append-only JSON writer over a caller's buffer.
///
/// The writer knows the text format — quoting, escaping, separators — and
/// nothing else: the caller says what comes next ([`key`](Self::key), a
/// value, an [`object`](Self::object) or [`array`](Self::array) scope) and
/// the bytes are appended at once. A value written after a value gets its
/// comma; a value written after a key or an opening bracket does not.
/// Calling `key` outside an object scope, or two keys in a row, produces
/// what it says — the writer does not validate its caller.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    /// Whether the next key or value must be preceded by a comma.
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, comma: false }
    }

    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.out
    }

    /// Starts a field: `"key":`, to be followed by exactly one value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        escape_into(out, key);
        out.push_str("\":");
        self.comma = false;
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        use core::fmt::Write as _;
        let _ = write!(self.value(), "{n}");
        self
    }

    /// A machine-word unsigned integer.
    pub fn usize(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    /// A number with exactly `decimals` fraction digits; `null` when `x` is
    /// not finite (JSON has no NaN or infinity).
    pub fn f64(&mut self, x: f64, decimals: usize) -> &mut Self {
        use core::fmt::Write as _;
        if x.is_finite() {
            let _ = write!(self.value(), "{x:.decimals$}");
            self
        } else {
            self.null()
        }
    }

    /// A string, quoted and escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        escape_into(out, s);
        out.push('"');
        self
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// `null` for `None`, otherwise what `write` appends for the value —
    /// e.g. `w.key("ert_window").opt(ert, Writer::u64)`.
    pub fn opt<T>(
        &mut self,
        v: Option<T>,
        write: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match v {
            None => self.null(),
            Some(v) => write(self, v),
        }
    }

    /// An already-serialized JSON value, verbatim (a stored report embedded
    /// in a status body).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.value().push_str(json);
        self
    }

    fn scope(&mut self, open: char, close: char, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.value().push(open);
        self.comma = false;
        fill(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// An object: `fill` writes its fields as `key` + value pairs.
    pub fn object(&mut self, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.scope('{', '}', fill)
    }

    /// An array: `fill` writes its elements as values.
    pub fn array(&mut self, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.scope('[', ']', fill)
    }

    /// An array of unsigned integers.
    pub fn u64s(&mut self, list: impl IntoIterator<Item = u64>) -> &mut Self {
        self.array(|w| {
            for n in list {
                w.u64(n);
            }
        })
    }
}

/// The document `fill` writes, as a fresh `String`.
pub fn to_string(fill: impl FnOnce(&mut Writer<'_>)) -> String {
    // Most documents are a line of a hundred-odd bytes: skip the doublings.
    let mut out = String::with_capacity(128);
    fill(&mut Writer::new(&mut out));
    out
}

/// The object whose fields `fill` writes, as a fresh `String`.
pub fn object(fill: impl FnOnce(&mut Writer<'_>)) -> String {
    to_string(|w| {
        w.object(fill);
    })
}

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Descends into an array or object, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    /// Consumes a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut well_formed = self.digits();
        let mut integer = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integer = false;
            well_formed &= self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            well_formed &= self.digits();
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let bad = |why: &str| Err(format!("bad number `{text}` at offset {start}: {why}"));
        if !well_formed {
            return bad("digits expected");
        }
        if integer {
            match text.parse::<i128>() {
                Ok(n) => Ok(Json::Int(n)),
                Err(e) => bad(&e.to_string()),
            }
        } else {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                _ => bad("out of range"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape whole. Both are
            // ASCII, so the run ends on a scalar boundary of the `&str`
            // the parser was handed.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("string at offset {start} is not UTF-8"))?,
            );
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = core::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|b| b as char))),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_record_shapes() {
        let v = parse(r#"{"i":3,"fault":{"structure":"RegFile","bit":12,"cycle":34},"ok":true,"msg":null,"neg":-5,"arr":[1,2,3]}"#)
            .unwrap();
        assert_eq!(v.get("i").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("fault").unwrap().get("structure").unwrap().as_str(),
            Some("RegFile")
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v.get("msg").unwrap().is_null());
        assert_eq!(v.get("neg").unwrap(), &Json::Int(-5));
        assert_eq!(v.get("arr").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnewline\n",
            "back\\slash",
            "ctrl\u{1}\u{1f}",
            "unicode ✓",
            "\"",
            "",
        ] {
            let doc = to_string(|w| {
                w.object(|w| {
                    w.key("m").str(s);
                });
            });
            assert_eq!(doc, format!("{{\"m\":\"{}\"}}", escape(s)));
            let v = parse(&doc).unwrap();
            assert_eq!(v.str_at("m"), Ok(s), "{doc}");
        }
        assert_eq!(escape("a\"b\\c\nd\u{1}é"), "a\\\"b\\\\c\\nd\\u0001é");
    }

    #[test]
    fn truncated_and_malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "[1,2",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"cut \\u12",
            "{\"a\" 1}",
            "12x",
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "1e999",
            "-1e999",
            "170141183460469231731687303715884105728",
            "{\"a\":1}garbage",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn large_u64_values_survive() {
        let n = u64::MAX;
        let v = parse(&format!("{{\"n\":{n}}}")).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(n));
    }

    #[test]
    fn fractions_and_exponents_parse_as_floats_and_integers_stay_exact() {
        let v = parse(r#"{"rate":4.1,"big":1e3,"neg":-2.5E-1,"n":7}"#).unwrap();
        assert_eq!(v.get("rate"), Some(&Json::Float(4.1)));
        assert_eq!(v.get("big"), Some(&Json::Float(1000.0)));
        assert_eq!(v.get("neg"), Some(&Json::Float(-0.25)));
        assert_eq!(v.get("n"), Some(&Json::Int(7)));
        // A float is never silently an integer.
        assert_eq!(v.get("big").unwrap().as_u64(), None);
        assert!(v.u64_at("big").unwrap_err().contains("`big`"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // What used to overflow the stack: an error, at any size.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec!["[[]]"; 1_000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn the_writer_places_commas_and_nulls() {
        let doc = to_string(|w| {
            w.object(|w| {
                w.key("a").u64(0);
                w.key("b").opt(None::<u64>, Writer::u64);
                w.key("c").opt(Some(u64::MAX), Writer::u64);
                w.key("d").u64s([1, 2, 3]);
                w.key("e").u64s([]);
                w.key("f").object(|_| {});
                w.key("g").array(|w| {
                    w.object(|w| {
                        w.key("x").bool(true);
                    });
                    w.object(|w| {
                        w.key("y").null();
                    });
                    w.str("s").raw("{\"z\":1}");
                });
                w.key("h").f64(2.0 / 3.0, 1).key("i").f64(f64::NAN, 1);
            });
        });
        assert_eq!(
            doc,
            r#"{"a":0,"b":null,"c":18446744073709551615,"d":[1,2,3],"e":[],"f":{},"g":[{"x":true},{"y":null},"s",{"z":1}],"h":0.7,"i":null}"#
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.u64s_at("d"), Ok(vec![1, 2, 3]));
        assert_eq!(v.array_at("g").map(<[Json]>::len), Ok(4));
    }

    #[test]
    fn typed_readers_name_the_field() {
        let v = parse(r#"{"n":18446744073709551616,"s":"x","z":null,"w":4294967296,"l":[1,"2"]}"#)
            .unwrap();
        for (got, field) in [
            (v.u64_at("n").map(|_| ()), "`n`"),
            (v.u64_at("s").map(|_| ()), "`s`"),
            (v.u64_at("gone").map(|_| ()), "`gone`"),
            (v.u32_at("w").map(|_| ()), "`w`"),
            (v.str_at("w").map(|_| ()), "`w`"),
            (v.bool_at("s").map(|_| ()), "`s`"),
            (v.array_at("s").map(|_| ()), "`s`"),
            (v.u64s_at("l").map(|_| ()), "`l`"),
            (v.opt("s", Json::u64_at).map(|_| ()), "`s`"),
        ] {
            assert!(got.unwrap_err().contains(field));
        }
        assert_eq!(v.u64_at("w"), Ok(1 << 32));
        assert_eq!(v.opt("z", Json::u64_at), Ok(None));
        assert_eq!(v.opt("gone", Json::str_at), Ok(None));
        assert_eq!(v.opt("s", Json::str_at), Ok(Some("x")));
        // Reading a field of a non-object is an error, not a panic.
        assert!(Json::Int(1).u64_at("k").is_err());
    }
}
