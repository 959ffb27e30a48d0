//! The workspace's one JSON writer and one JSON reader.
//!
//! Every document the workspace writes — `results/*.json`, the Chrome
//! trace, `SERVE_<scenario>.json` — is pushed through a [`Writer`]
//! (there is no serde). The layout has one rule: each container is
//! written in the [`Style`] its caller picks, **block** (one member per
//! line, indented two spaces per enclosing block) or **inline**
//! (`{"k": v, "k2": v2}` / `[a, b]`); an empty container is `{}` / `[]`
//! in either style. Every key and string is escaped here and nowhere
//! else, and a non-finite float is written as `null`. A report nests
//! inside another by writing itself into the caller's writer, so it
//! lands at the caller's depth.
//!
//! [`Json`] is the dependency-free reader for `hal-serve --verify` and
//! for tests that assert on a document's values rather than its bytes.

use std::fmt::Write as _;

/// How a container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// One member per line, indented two spaces per enclosing block.
    Block,
    /// All members on the opening line, separated by `", "`.
    Inline,
}

/// What [`Writer::int`] takes: whatever converts to `i128` — the integer
/// types (and `bool`) — all of whose `Display`s are JSON.
pub trait Int: std::fmt::Display {}
impl<T: TryInto<i128> + std::fmt::Display> Int for T {}

/// One open container.
struct Frame {
    close: char,
    block: bool,
    empty: bool,
}

/// A push-writer for one JSON document: open a container, push keys and
/// values into it, close it. [`Writer::finish`] (or [`document`]) hands
/// back the text with a trailing newline.
#[derive(Default)]
pub struct Writer {
    out: String,
    open: Vec<Frame>,
    /// Enclosing block containers — the indentation depth.
    blocks: usize,
    /// A key was just written: the next value follows it directly.
    keyed: bool,
}

/// The document `f` writes into a fresh [`Writer`].
pub fn document(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    f(&mut w);
    w.finish()
}

impl Writer {
    /// The finished document, newline-terminated.
    ///
    /// # Panics
    /// When a container is still open.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "JSON document finished with open containers");
        self.out.push('\n');
        self.out
    }

    /// Position for the next member: its separator and indentation, or
    /// nothing when it is the value of the key just written.
    fn member(&mut self, is_key: bool) {
        if std::mem::take(&mut self.keyed) {
            debug_assert!(!is_key, "a key where its value belongs");
            return;
        }
        let Some(f) = self.open.last_mut() else { return };
        debug_assert_eq!(f.close == '}', is_key, "object members need keys, array members none");
        let (first, block) = (std::mem::take(&mut f.empty), f.block);
        if !first {
            self.out.push_str(if block { "," } else { ", " });
        }
        if block {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.blocks {
            self.out.push_str("  ");
        }
    }

    fn begin(&mut self, open: char, close: char, style: Style) -> &mut Self {
        self.member(false);
        self.out.push(open);
        let block = style == Style::Block;
        self.blocks += usize::from(block);
        self.open.push(Frame { close, block, empty: true });
        self
    }

    /// Open an object; close it with [`Writer::end`].
    pub fn begin_obj(&mut self, style: Style) -> &mut Self {
        self.begin('{', '}', style)
    }

    /// Open an array; close it with [`Writer::end`].
    pub fn begin_arr(&mut self, style: Style) -> &mut Self {
        self.begin('[', ']', style)
    }

    /// Close the innermost open container.
    ///
    /// # Panics
    /// When no container is open.
    pub fn end(&mut self) -> &mut Self {
        let f = self.open.pop().expect("end() without an open container");
        if f.block {
            self.blocks -= 1;
            if !f.empty {
                self.newline();
            }
        }
        self.out.push(f.close);
        self
    }

    /// An object whose members `f` writes.
    pub fn obj(&mut self, style: Style, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.begin_obj(style);
        f(self);
        self.end()
    }

    /// An array whose members `f` writes.
    pub fn arr(&mut self, style: Style, f: impl FnOnce(&mut Writer)) -> &mut Self {
        self.begin_arr(style);
        f(self);
        self.end()
    }

    /// The next object member's key; its value is the next thing pushed.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.member(true);
        self.quoted(k);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.member(false);
        self.quoted(s);
        self
    }

    /// An inline array of strings.
    pub fn strs<S: AsRef<str>>(&mut self, items: impl IntoIterator<Item = S>) -> &mut Self {
        self.arr(Style::Inline, |w| {
            for s in items {
                w.str(s.as_ref());
            }
        })
    }

    /// An integer value.
    pub fn int(&mut self, v: impl Int) -> &mut Self {
        self.bare(v)
    }

    /// A float with exactly `decimals` digits after the point; `null`
    /// when `v` is NaN or infinite.
    pub fn float(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.bare(format_args!("{v:.decimals$}"))
        } else {
            self.null()
        }
    }

    /// A boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.bare(b)
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.bare("null")
    }

    /// A value whose `Display` is its JSON text.
    fn bare(&mut self, v: impl std::fmt::Display) -> &mut Self {
        self.member(false);
        let _ = write!(self.out, "{v}");
        self
    }

    /// `s` as a JSON string literal: quote, backslash, newline and every
    /// other control character escaped.
    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A parsed JSON value. Numbers are kept as `f64` — every artifact
/// number compared through it fits without precision loss at the
/// tolerances involved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (so `==` is key-order sensitive).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { s, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    /// Byte offset of the next unread character.
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Step over `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let next = self.peek() == Some(c);
        self.i += usize::from(next);
        next
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            return Ok(());
        }
        let found = self.peek().map(char::from);
        Err(format!("expected '{}' at offset {}, found {found:?}", char::from(c), self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.members(b'{', b'}', Self::field)?)),
            Some(b'[') => Ok(Json::Arr(self.members(b'[', b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at offset {}", other.map(char::from), self.i)),
        }
    }

    /// A container from `open` through `close`: its comma-separated
    /// members, each read by `member`.
    fn members<T>(
        &mut self,
        open: u8,
        close: u8,
        member: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut out = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            self.ws();
            out.push(member(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    /// One `"key": value` object member.
    fn field(&mut self) -> Result<(String, Json), String> {
        let k = self.string()?;
        self.ws();
        self.expect(b':')?;
        self.ws();
        Ok((k, self.value()?))
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.s[self.i..].chars();
        loop {
            match chars.next().ok_or("unterminated string")? {
                '"' => break,
                '\\' => out.push(match chars.next() {
                    Some(c @ ('"' | '\\' | '/')) => c,
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).ok().filter(|_| hex.len() == 4);
                        char::from_u32(code.ok_or("bad \\u escape")?).unwrap_or('\u{fffd}')
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }),
                c => out.push(c),
            }
        }
        self.i = self.s.len() - chars.as_str().len();
        Ok(out)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let rest = &self.s[start..];
        let len = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
        self.i += len.unwrap_or(rest.len());
        let text = &self.s[start..self.i];
        text.parse().map(Json::Num).map_err(|e| format!("bad number at offset {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::Style::{Block, Inline};
    use super::*;

    fn obj(fields: &[(&str, Json)]) -> Json {
        Json::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn block_inside_inline_inside_block_lands_at_the_callers_depth() {
        // The SPANS_ shape: a block document, a block array of inline
        // run objects, each holding a block report.
        let doc = document(|w| {
            w.obj(Block, |w| {
                w.key("runs").arr(Block, |w| {
                    w.obj(Inline, |w| {
                        w.key("label").str("a").key("spans").obj(Block, |w| {
                            w.key("n").int(1u8).key("h").arr(Inline, |w| {
                                w.int(2u8).int(-3i64);
                            });
                        });
                    });
                });
            });
        });
        let expect = r#"{
  "runs": [
    {"label": "a", "spans": {
      "n": 1,
      "h": [2, -3]
    }}
  ]
}
"#;
        assert_eq!(doc, expect);
        let n = |v: f64| Json::Num(v);
        let spans = obj(&[("n", n(1.0)), ("h", Json::Arr(vec![n(2.0), n(-3.0)]))]);
        let run = obj(&[("label", Json::Str("a".into())), ("spans", spans)]);
        assert_eq!(Json::parse(&doc), Ok(obj(&[("runs", Json::Arr(vec![run]))])));
    }

    #[test]
    fn empty_containers_are_braces_in_both_styles() {
        for style in [Block, Inline] {
            let doc = document(|w| {
                w.obj(style, |w| {
                    w.key("o").obj(style, |_| {}).key("a").arr(style, |_| {});
                });
            });
            let parsed = Json::parse(&doc).unwrap();
            assert_eq!(parsed, obj(&[("o", Json::Obj(vec![])), ("a", Json::Arr(vec![]))]));
            assert!(doc.contains("{}") && doc.contains("[]"), "{doc}");
        }
        assert_eq!(document(|w| { w.arr(Block, |_| {}); }), "[]\n");
    }

    #[test]
    fn keys_and_strings_round_trip_through_the_escaper() {
        let nasty = "q\"x\\ tab\t nl\n bell\u{7} nul\u{0} — a→b ü 😀";
        let doc = document(|w| {
            w.obj(Block, |w| {
                w.key(nasty).str(nasty).key("list").arr(Inline, |w| {
                    w.str(nasty).str("");
                });
            });
        });
        let v = Json::parse(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        assert_eq!(v.get(nasty).and_then(Json::as_str), Some(nasty));
        let list = v.get("list").and_then(Json::as_arr).unwrap();
        assert_eq!(list[0].as_str(), Some(nasty));
        assert_eq!(list[1].as_str(), Some(""));
    }

    #[test]
    fn numbers_bools_and_non_finite_floats() {
        let doc = document(|w| {
            w.arr(Inline, |w| {
                w.int(u64::MAX).int(i64::MIN).float(1.5, 3).float(2.0, 0);
                w.float(f64::NAN, 2).float(f64::INFINITY, 1).float(f64::NEG_INFINITY, 0);
                w.bool(true).bool(false).null();
            });
        });
        let expect = "[18446744073709551615, -9223372036854775808, 1.500, 2, null, null, null, \
                      true, false, null]\n";
        assert_eq!(doc, expect);
        let v = Json::parse(&doc).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[2].as_f64(), Some(1.5));
        assert_eq!(a[4], Json::Null);
        assert_eq!(a[7], Json::Bool(true));
    }

    #[test]
    #[should_panic(expected = "open containers")]
    fn an_unclosed_container_is_refused() {
        let mut w = Writer::default();
        w.begin_obj(Block);
        let _ = w.finish();
    }

    #[test]
    fn parser_reads_any_layout_and_rejects_malformed_input() {
        let v = Json::parse(r#" { "a" :[1 ,{"b":"x"}] , "c":null } "#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[1].get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(Json::parse(r#""é\/""#), Ok(Json::Str("é/".into())));
        assert!(Json::parse(r#"{"x": 1,}"#).is_err(), "trailing comma rejected");
        assert!(Json::parse("[1, 2] junk").is_err(), "trailing bytes rejected");
        assert!(Json::parse(r#"{"x": NaN}"#).is_err(), "NaN is not JSON");
        assert!(Json::parse(r#"{"x": "q"x"}"#).is_err(), "unescaped quote rejected");
    }
}
