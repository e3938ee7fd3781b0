//! Zero-copy structural scan of one top-level JSON object.
//!
//! The router's hot path forwards most lines untouched: it only needs
//! the raw spans of a few top-level members (`id`, `type`, `source`),
//! a digest of the source, and the ability to excise or splice the
//! `id` member. Building a full [`Json`](sempe_core::json::Json) tree
//! for that — and re-encoding it afterwards — costs more than every
//! other per-request step combined, so this module scans the line once
//! and hands out borrowed spans instead.
//!
//! The scanner is deliberately conservative: anything structurally
//! surprising (bad escape, mismatched brackets, trailing bytes, a key
//! spelled with escapes) returns `None` and the caller falls back to
//! the full-parse slow path. Nested values are held to the same grammar
//! and nesting limit as `sempe_core::json`, so every line the scanner
//! accepts is one that parser (and therefore a shard) accepts too.

use sempe_core::hash::Fnv1a;

/// Deepest value `sempe_core::json::parse` accepts (the top-level
/// object is depth 1).
const MAX_DEPTH: usize = 64;

/// One top-level member of the scanned object, as raw line spans.
pub(crate) struct Member<'a> {
    /// Key bytes between the quotes (never escaped: such lines take
    /// the slow path, so raw and decoded keys agree).
    pub(crate) key: &'a str,
    /// The value token exactly as written, quotes and all.
    pub(crate) value: &'a str,
    /// Offset of the key's opening quote in the line.
    start: usize,
    /// Offset one past the value's last byte.
    end: usize,
}

/// A successfully scanned top-level object.
pub(crate) struct TopLevel<'a> {
    line: &'a str,
    members: Vec<Member<'a>>,
}

struct Cur<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Cur<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, word: &[u8]) -> Option<()> {
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            Some(())
        } else {
            None
        }
    }

    /// Scan a string token; returns the inner span (between the
    /// quotes), with the cursor past the closing quote. Escapes are
    /// validated but not decoded.
    fn string(&mut self) -> Option<(usize, usize)> {
        self.eat(b'"')?;
        let start = self.pos;
        self.pos += unescape(&self.s[start..], |_| {})?;
        let end = self.pos;
        self.eat(b'"')?;
        Some((start, end))
    }

    /// Scan one value token of any type at nesting `depth`; returns
    /// its span.
    fn value(&mut self, depth: usize) -> Option<(usize, usize)> {
        if depth > MAX_DEPTH {
            return None;
        }
        let start = self.pos;
        match self.peek()? {
            b'"' => {
                self.string()?;
            }
            b'{' => self.container(b'}', depth)?,
            b'[' => self.container(b']', depth)?,
            b't' => self.lit(b"true")?,
            b'f' => self.lit(b"false")?,
            b'n' => self.lit(b"null")?,
            b'-' | b'0'..=b'9' => self.number()?,
            _ => return None,
        }
        Some((start, self.pos))
    }

    /// Scan an object (`close` is `}`) or array body, cursor on its
    /// opening bracket.
    fn container(&mut self, close: u8, depth: usize) -> Option<()> {
        self.pos += 1;
        self.ws();
        if self.eat(close).is_some() {
            return Some(());
        }
        loop {
            if close == b'}' {
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.ws();
            }
            self.value(depth + 1)?;
            self.ws();
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                    self.ws();
                }
                c if c == close => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// Strict JSON number grammar, so a scan-accepted line is one the
    /// shard will parse rather than bounce with `E_PARSE`.
    fn number(&mut self) -> Option<()> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek()? {
            b'0' => self.pos += 1,
            b'1'..=b'9' => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return None,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return None;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Some(())
    }
}

impl<'a> TopLevel<'a> {
    /// Scan one line as a top-level JSON object. `None` means "use the
    /// slow path", not necessarily "invalid".
    pub(crate) fn parse(line: &'a str) -> Option<TopLevel<'a>> {
        let mut c = Cur { s: line.as_bytes(), pos: 0 };
        c.ws();
        c.eat(b'{')?;
        c.ws();
        let mut members = Vec::new();
        if c.peek() == Some(b'}') {
            c.pos += 1;
        } else {
            loop {
                let key_quote = c.pos;
                let (ks, ke) = c.string()?;
                if line[ks..ke].contains('\\') {
                    return None;
                }
                c.ws();
                c.eat(b':')?;
                c.ws();
                let (vs, ve) = c.value(2)?;
                members.push(Member {
                    key: &line[ks..ke],
                    value: &line[vs..ve],
                    start: key_quote,
                    end: ve,
                });
                c.ws();
                match c.peek()? {
                    b',' => {
                        c.pos += 1;
                        c.ws();
                    }
                    b'}' => {
                        c.pos += 1;
                        break;
                    }
                    _ => return None,
                }
            }
        }
        c.ws();
        if c.pos != c.s.len() {
            return None;
        }
        Some(TopLevel { line, members })
    }

    /// Raw value span of the first member named `key` (same first-match
    /// rule as `Json::get`).
    pub(crate) fn value(&self, key: &str) -> Option<&'a str> {
        self.members.iter().find(|m| m.key == key).map(|m| m.value)
    }

    /// The line with the first `key` member excised, comma-correct.
    /// Identity copy when the member is absent.
    pub(crate) fn without(&self, key: &str) -> String {
        let Some(m) = self.members.iter().find(|m| m.key == key) else {
            return self.line.to_string();
        };
        let bytes = self.line.as_bytes();
        let mut start = m.start;
        let mut end = m.end;
        let mut j = end;
        while matches!(bytes.get(j), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            j += 1;
        }
        if bytes.get(j) == Some(&b',') {
            end = j + 1;
        } else {
            let mut k = start;
            while k > 0 && matches!(bytes.get(k - 1), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                k -= 1;
            }
            if k > 0 && bytes[k - 1] == b',' {
                start = k - 1;
            }
        }
        let mut out = String::with_capacity(self.line.len() - (end - start));
        out.push_str(&self.line[..start]);
        out.push_str(&self.line[end..]);
        out
    }
}

/// The inner span of a string token (`"abc"` → `abc`).
pub(crate) fn str_inner(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

fn hex4(s: &[u8], at: usize) -> Option<u32> {
    let mut v = 0u32;
    for k in 0..4 {
        let c = *s.get(at + k)?;
        let d = match c {
            b'0'..=b'9' => u32::from(c - b'0'),
            b'a'..=b'f' => u32::from(c - b'a' + 10),
            b'A'..=b'F' => u32::from(c - b'A' + 10),
            _ => return None,
        };
        v = v * 16 + d;
    }
    Some(v)
}

/// FNV-1a over the *decoded* bytes of a string token's inner span —
/// exactly `fnv1a(parsed_string.as_bytes())` without materializing the
/// string; `None` on anything `sempe_core::json` would reject.
pub(crate) fn fnv1a_unescaped(inner: &str) -> Option<u64> {
    let mut h = Fnv1a::new();
    let end = unescape(inner.as_bytes(), |bytes| h.write(bytes))?;
    (end == inner.len()).then(|| h.finish())
}

/// Decode a string body up to its closing quote (or the end of `s`),
/// feeding the decoded bytes to `sink`; returns where it stopped.
/// Escape semantics mirror `sempe_core::json` (including surrogate
/// pairs); `None` on an escape or control byte that parser rejects.
fn unescape(s: &[u8], mut sink: impl FnMut(&[u8])) -> Option<usize> {
    let mut i = 0usize;
    let mut run = 0usize;
    while i < s.len() {
        let b = s[i];
        if b == b'"' {
            break;
        } else if b == b'\\' {
            sink(&s[run..i]);
            i += 1;
            let esc = *s.get(i)?;
            i += 1;
            let decoded = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{08}',
                b'f' => '\u{0c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hi = hex4(s, i)?;
                    i += 4;
                    let cp = if (0xd800..0xdc00).contains(&hi) {
                        if s.get(i) == Some(&b'\\') && s.get(i + 1) == Some(&b'u') {
                            i += 2;
                            let lo = hex4(s, i)?;
                            i += 4;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return None;
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            return None;
                        }
                    } else {
                        hi
                    };
                    char::from_u32(cp)?
                }
                _ => return None,
            };
            let mut buf = [0u8; 4];
            sink(decoded.encode_utf8(&mut buf).as_bytes());
            run = i;
        } else if b < 0x20 {
            return None;
        } else {
            i += 1;
        }
    }
    sink(&s[run..i]);
    Some(i)
}

/// Number of top-level elements in an array token.
pub(crate) fn array_len(raw: &str) -> Option<u64> {
    let mut c = Cur { s: raw.as_bytes(), pos: 0 };
    c.ws();
    c.eat(b'[')?;
    c.ws();
    if c.peek() == Some(b']') {
        c.pos += 1;
        c.ws();
        return (c.pos == c.s.len()).then_some(0);
    }
    let mut n = 1u64;
    loop {
        c.value(3)?;
        c.ws();
        match c.peek()? {
            b',' => {
                c.pos += 1;
                c.ws();
                n += 1;
            }
            b']' => {
                c.pos += 1;
                break;
            }
            _ => return None,
        }
    }
    c.ws();
    (c.pos == c.s.len()).then_some(n)
}

#[cfg(test)]
#[path = "../../tests/unit/scan_json_differential.rs"]
mod json_differential;

#[cfg(test)]
mod tests {
    use super::*;
    use sempe_core::hash::fnv1a;
    use sempe_core::json::{self, Json};

    #[test]
    fn scans_members_and_rejects_trailing_garbage() {
        let line = r#"{"id":"a-1","type":"run","n":-1.5e3,"ok":true,"inner":{"x":[1,2]}}"#;
        let t = TopLevel::parse(line).expect("scans");
        assert_eq!(t.value("id"), Some(r#""a-1""#));
        assert_eq!(t.value("type"), Some(r#""run""#));
        assert_eq!(t.value("n"), Some("-1.5e3"));
        assert_eq!(t.value("ok"), Some("true"));
        assert_eq!(t.value("inner"), Some(r#"{"x":[1,2]}"#));
        assert_eq!(t.value("missing"), None);
        assert_eq!(str_inner(r#""a-1""#), Some("a-1"));

        assert!(TopLevel::parse(r#"{"a":1} extra"#).is_none());
        assert!(TopLevel::parse(r#"{"a":01}"#).is_none(), "leading zero");
        assert!(TopLevel::parse(r#"{"a":"\q"}"#).is_none(), "bad escape");
        assert!(TopLevel::parse(r#"{"a":[1}"#).is_none(), "mismatched brackets");
        assert!(TopLevel::parse(r#"[1,2]"#).is_none(), "not an object");
        assert!(TopLevel::parse("{}").expect("empty object").value("x").is_none());
    }

    #[test]
    fn without_excises_comma_correctly_everywhere() {
        let t = |l: &str, k: &str| TopLevel::parse(l).expect("scans").without(k);
        assert_eq!(t(r#"{"id":"x","a":1}"#, "id"), r#"{"a":1}"#);
        assert_eq!(t(r#"{"a":1,"id":"x","b":2}"#, "id"), r#"{"a":1,"b":2}"#);
        assert_eq!(t(r#"{"a":1,"id":"x"}"#, "id"), r#"{"a":1}"#);
        assert_eq!(t(r#"{"id":"x"}"#, "id"), r"{}");
        assert_eq!(t(r#"{"a":1}"#, "id"), r#"{"a":1}"#);
        // Spaced input stays parseable (not byte-identical — the shard
        // re-parses request lines anyway).
        let spaced = TopLevel::parse(r#"{ "id" : "x" , "a" : 1 }"#).expect("scans").without("id");
        assert!(json::parse(&spaced).is_ok(), "{spaced}");
    }

    #[test]
    fn unescaped_digest_matches_the_parsed_string() {
        for raw in [
            r"plain text",
            r"line\nbreaks\tand\\slashesA",
            r#"quoted \" inner"#,
            r"surrogate 😀 raw",
            "pair \\ud83d\\ude00 end",
            "codepoint \\u0041\\u00e9",
        ] {
            let parsed = match json::parse(&format!("\"{raw}\"")).expect("parses") {
                Json::Str(s) => s,
                other => panic!("expected string, got {other:?}"),
            };
            assert_eq!(
                fnv1a_unescaped(raw),
                Some(fnv1a(parsed.as_bytes())),
                "digest must match fnv1a(parsed) for {raw:?}"
            );
        }
        assert_eq!(fnv1a_unescaped(r"\ud83d alone"), None, "unpaired surrogate");
        assert_eq!(fnv1a_unescaped(r"\q"), None, "unknown escape");
    }

    #[test]
    fn array_len_counts_top_level_elements() {
        assert_eq!(array_len("[]"), Some(0));
        assert_eq!(array_len("[1]"), Some(1));
        assert_eq!(array_len(r#"[1,"a,b",[2,3],{"k":[4,5]}]"#), Some(4));
        assert_eq!(array_len("[1,2"), None);
        assert_eq!(array_len("{}"), None);
    }
}
