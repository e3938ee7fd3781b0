//! Differential test of the router's structural scanner
//! (`router/scan.rs`) against its oracle, `sempe_core::json`.
//!
//! The scanner is crate-private, so this file is compiled into the
//! library's unit tests as a child module of `router::scan` (see the
//! `#[path]` declaration there) rather than as an integration test.
//!
//! Seeded generated lines — nested values, `\uXXXX` escapes and
//! surrogate pairs (lone ones too), odd whitespace, duplicate and
//! escaped keys, numeric and string ids, deep nesting, trailing garbage,
//! and random byte-level damage — are fed to both. Whenever the scanner
//! accepts a line, every answer it gives must agree with the parsed
//! tree.

use sempe_core::hash::fnv1a;
use sempe_core::json::{self, Json};

use super::{array_len, fnv1a_unescaped, str_inner, TopLevel};

/// SplitMix64: a deterministic, dependency-free input stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

const KEYS: &[&str] = &["id", "type", "source", "inputs", "backend", "a", "b"];
const ESCAPED_KEYS: &[&str] = &[r"i\u0064", r"t\u0079pe", r"\u0061"];
const STRING_PARTS: &[&str] = &[
    "plain", "run", " ", r"\n", r"\t", r#"\""#, r"\\", r"\/", r"\b\f\r", r"\u0041", r"\u00e9",
    "é😀", r"😀", r"\ud83d", r"\ude00", r"\u12", r"\q",
];
const NUMBERS: &[&str] = &[
    "0",
    "7",
    "-1",
    "-0",
    "42",
    "1.5",
    "-2.25e3",
    "6E-2",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "01",
    "1.",
    "-",
    "1e",
];
const SPACE: &[&str] = &["", "", "", " ", "\t", "\r\n", "  \n "];

fn ws(rng: &mut Rng, out: &mut String) {
    out.push_str(rng.pick(SPACE));
}

fn string(rng: &mut Rng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(4) {
        out.push_str(rng.pick(STRING_PARTS));
    }
    out.push('"');
}

fn value(rng: &mut Rng, depth: u32, out: &mut String) {
    let pick = if depth >= 4 { rng.below(5) } else { rng.below(8) };
    match pick {
        0 => out.push_str(rng.pick(&["null", "true", "false"])),
        1 | 2 => out.push_str(rng.pick(NUMBERS)),
        3 | 4 => string(rng, out),
        5 | 6 => {
            let keyed = pick == 5;
            out.push(if keyed { '{' } else { '[' });
            ws(rng, out);
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                    ws(rng, out);
                }
                if keyed {
                    string(rng, out);
                    ws(rng, out);
                    out.push(':');
                    ws(rng, out);
                }
                value(rng, depth + 1, out);
                ws(rng, out);
            }
            out.push(if keyed { '}' } else { ']' });
        }
        _ => {
            // Deep nesting around the nesting limit of both parsers.
            let n = 58 + rng.below(10);
            out.push_str(&"[".repeat(n as usize));
            value(rng, 4, out);
            out.push_str(&"]".repeat(n as usize));
        }
    }
}

/// One request-shaped line: top-level members drawn from a small key
/// pool (so duplicates are common), sometimes damaged.
fn line(rng: &mut Rng) -> String {
    let mut out = String::new();
    ws(rng, &mut out);
    out.push('{');
    ws(rng, &mut out);
    for i in 0..rng.below(6) {
        if i > 0 {
            out.push(',');
            ws(rng, &mut out);
        }
        let key = if rng.below(10) == 0 { rng.pick(ESCAPED_KEYS) } else { rng.pick(KEYS) };
        out.push('"');
        out.push_str(key);
        out.push('"');
        ws(rng, &mut out);
        out.push(':');
        ws(rng, &mut out);
        match key {
            "id" if rng.below(2) == 0 => out.push_str(&rng.below(1000).to_string()),
            "type" => {
                out.push('"');
                out.push_str(rng.pick(&["run", "batch", "compile", "stats"]));
                out.push('"');
            }
            _ => value(rng, 0, &mut out),
        }
        ws(rng, &mut out);
    }
    out.push('}');
    ws(rng, &mut out);
    match rng.below(12) {
        0 => out.push_str(rng.pick(&["x", "}", ",", "{}", "\"\""])),
        1 => {
            // Byte-level damage at a char boundary.
            let at = rng.below(out.len() as u64 + 1) as usize;
            if out.is_char_boundary(at) {
                out.insert_str(at, rng.pick(&[",", ":", "{", "]", "\"", "\\", "\u{1}"]));
            }
        }
        2 if !out.is_empty() => {
            let at = rng.below(out.len() as u64) as usize;
            if out.is_char_boundary(at) && out.is_char_boundary(at + 1) {
                out.remove(at);
            }
        }
        _ => {}
    }
    out
}

/// `tree` with its first `key` member removed (the first-match rule
/// both `TopLevel::value` and `Json::get` follow).
fn without_first(tree: &Json, key: &str) -> Json {
    let mut tree = tree.clone();
    if let Json::Obj(members) = &mut tree {
        if let Some(pos) = members.iter().position(|(k, _)| k == key) {
            members.remove(pos);
        }
    }
    tree
}

#[test]
fn scanner_agrees_with_the_json_parser_on_every_line_it_accepts() {
    let mut rng = Rng(0x5CA7_D1FF);
    let (mut accepted, mut strings, mut arrays) = (0u32, 0u32, 0u32);
    for case in 0..20_000 {
        let line = line(&mut rng);
        let Some(scanned) = TopLevel::parse(&line) else { continue };
        accepted += 1;
        let tree = json::parse(&line).unwrap_or_else(|e| {
            panic!("case {case}: scanner accepted, parser rejects ({e}): {line}")
        });
        for key in KEYS.iter().chain(&["missing"]) {
            let got = scanned.value(key).map(|raw| {
                json::parse(raw)
                    .unwrap_or_else(|e| panic!("case {case}: span `{raw}` of {key} ({e}): {line}"))
            });
            assert_eq!(got.as_ref(), tree.get(key), "case {case}: value({key}) of {line}");
            match tree.get(key) {
                Some(Json::Str(decoded)) => {
                    strings += 1;
                    let inner = str_inner(scanned.value(key).unwrap()).expect("string span");
                    assert_eq!(
                        fnv1a_unescaped(inner),
                        Some(fnv1a(decoded.as_bytes())),
                        "case {case}: digest of {key} in {line}"
                    );
                }
                Some(Json::Arr(items)) => {
                    arrays += 1;
                    assert_eq!(
                        array_len(scanned.value(key).unwrap()),
                        Some(items.len() as u64),
                        "case {case}: array_len of {key} in {line}"
                    );
                }
                _ => {}
            }
        }
        let stripped = scanned.without("id");
        assert_eq!(
            json::parse(&stripped).ok(),
            Some(without_first(&tree, "id")),
            "case {case}: without(id) of {line} gave {stripped}"
        );
    }
    // The comparison is only as good as its coverage of each answer.
    assert!(accepted > 4_000, "only {accepted} of 20000 lines scanned");
    assert!(strings > 1_000 && arrays > 1_000, "strings {strings}, arrays {arrays}");
}

#[test]
fn scanner_defers_what_the_parser_rejects_or_decodes_differently() {
    for line in [
        // Nested grammar errors the shard would answer with `E_PARSE`.
        r#"{"type":"run","inputs":[1,,2]}"#,
        r#"{"type":"run","inputs":{"k" 1}}"#,
        r#"{"type":"run","inputs":[1 2]}"#,
        // Unpaired surrogates outside the digested `source`.
        r#"{"type":"run","backend":"\ud800"}"#,
        r#"{"type":"run","backend":"\udc00x"}"#,
        // An escaped key that decodes to a key scanned later.
        r#"{"t\u0079pe":"stats","type":"run"}"#,
    ] {
        assert!(TopLevel::parse(line).is_none(), "scanner must defer: {line}");
    }
    let nested = |n: usize| format!(r#"{{"a":{}1{}}}"#, "[".repeat(n), "]".repeat(n));
    assert!(json::parse(&nested(62)).is_ok() && TopLevel::parse(&nested(62)).is_some());
    assert!(json::parse(&nested(63)).is_err() && TopLevel::parse(&nested(63)).is_none());
}
