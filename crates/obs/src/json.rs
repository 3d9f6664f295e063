//! A minimal validating JSON parser for trace lines.
//!
//! The vendored `serde_json` shim only *serializes* (the build container
//! has no crates-io access), so trace validation — the `trace_lint`
//! binary and the CI smoke step — needs its own parser. This is a strict
//! recursive-descent implementation of the JSON grammar, specialized to
//! the one question the lint asks: *is this line a syntactically valid
//! JSON object, and what are its top-level keys?*
//!
//! Nesting is capped at 128 objects and arrays, so a hostile line cannot
//! overflow the parser's stack.

/// Deepest nesting of objects and arrays, the top-level object included,
/// that [`top_level_keys`] accepts. The deepest committed artifact nests
/// 4 levels.
const MAX_DEPTH: usize = 128;

/// Parse `line` as a JSON object and return its top-level keys in
/// document order. Errors describe the first syntax violation, or
/// nesting deeper than 128 levels, with a byte offset.
pub fn top_level_keys(line: &str) -> Result<Vec<String>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let keys = p.nested(Parser::object)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(keys)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self
            .peek()
            .ok_or_else(|| format!("unexpected end of input at offset {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let at = self.pos;
        let got = self.bump()?;
        if got != want {
            return Err(format!(
                "expected '{}' at offset {at}, found '{}'",
                want as char, got as char
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parse one object or array at `pos` with `parse`, one level deeper.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T, String>) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn object(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(keys),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, found '{}'",
                        self.pos - 1,
                        other as char
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.nested(Self::object)?;
                Ok(())
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at offset {}",
                other as char, self.pos
            )),
            None => Err(format!("unexpected end of input at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(()),
                other => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, found '{}'",
                        self.pos - 1,
                        other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            let d = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
                            code = code * 16 + d;
                        }
                        // Lone surrogates are replaced, not rejected: the
                        // lint cares about structure, not codepoints.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "invalid escape '\\{}' at offset {}",
                            other as char,
                            self.pos - 1
                        ))
                    }
                },
                b if b < 0x20 => {
                    return Err(format!(
                        "unescaped control byte 0x{b:02x} at offset {}",
                        self.pos - 1
                    ))
                }
                b => {
                    // Re-assemble UTF-8 continuation bytes; the input is a
                    // &str so the sequence is already valid.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    if self.pos > self.bytes.len() {
                        return Err(format!("truncated UTF-8 at offset {start}"));
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at offset {start}"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(format!("expected digits at offset {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected fraction digits at offset {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected exponent digits at offset {}", self.pos));
            }
        }
        // Leading zeros like "01" violate the grammar.
        let text = &self.bytes[start..self.pos];
        let unsigned = if text[0] == b'-' { &text[1..] } else { text };
        if unsigned.len() > 1 && unsigned[0] == b'0' && unsigned[1].is_ascii_digit() {
            return Err(format!("leading zero in number at offset {start}"));
        }
        Ok(())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(format!("expected '{word}' at offset {}", self.pos))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_rendered_events() {
        let line = crate::Event::new("probe_epoch")
            .field("epoch", 3u64)
            .field("benefit", -0.25e-3)
            .field("trace", vec![1.0, 2.5])
            .field("note", "a\"b\\c")
            .render(&[("cell_seed", crate::Value::U64(42))], "probe");
        let keys = top_level_keys(&line).expect("valid");
        assert_eq!(
            keys,
            vec![
                "event",
                "cell_seed",
                "phase",
                "epoch",
                "benefit",
                "trace",
                "note"
            ]
        );
    }

    #[test]
    fn accepts_nested_structures() {
        let keys =
            top_level_keys(r#"{"a":{"b":[1,2,{"c":null}]},"d":true,"e":false}"#).expect("valid");
        assert_eq!(keys, vec!["a", "d", "e"]);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}x",
            "[1,2]",
            r#"{"a":}"#,
            r#"{"a":01}"#,
            r#"{"a":1,}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":nul}"#,
            r#"{"a":1e}"#,
            "{\"a\":\"ctrl\u{1}\"}",
        ] {
            assert!(top_level_keys(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accepts_unicode_and_escapes() {
        let keys = top_level_keys(r#"{"k":"μ=0.5 →  é"}"#).expect("valid");
        assert_eq!(keys, vec!["k"]);
    }

    #[test]
    fn control_characters_round_trip_through_event_rendering() {
        // The renderer must escape every C0 control so its output always
        // re-parses; probe one field per control codepoint.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let line = crate::Event::new("edge")
                .field("payload", format!("a{c}b"))
                .render(&[], "test");
            let keys = top_level_keys(&line)
                .unwrap_or_else(|e| panic!("control 0x{code:02x} broke the line: {e}\n{line}"));
            assert_eq!(keys, vec!["event", "phase", "payload"]);
        }
    }

    #[test]
    fn escaped_controls_and_raw_controls_differ() {
        // Escaped forms are valid JSON…
        for ok in [
            r#"{"k":"\u0000"}"#,
            r#"{"k":"\u001f"}"#,
            r#"{"k":"\b\f\n\r\t"}"#,
        ] {
            assert!(top_level_keys(ok).is_ok(), "rejected {ok:?}");
        }
        // …raw control bytes are not, anywhere a string can appear.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let in_value = format!("{{\"k\":\"{c}\"}}");
            let in_key = format!("{{\"{c}\":1}}");
            assert!(
                top_level_keys(&in_value).is_err(),
                "accepted raw 0x{code:02x} in value"
            );
            assert!(
                top_level_keys(&in_key).is_err(),
                "accepted raw 0x{code:02x} in key"
            );
        }
    }

    #[test]
    fn non_ascii_keys_and_values_parse_at_every_utf8_width() {
        // 2-byte (é), 3-byte (→), and 4-byte (𝛼) sequences, in both key
        // and value position.
        let keys = top_level_keys(r#"{"é":"ok","→":2,"𝛼":"β γ 𝛿"}"#).expect("valid");
        assert_eq!(keys, vec!["é", "→", "𝛼"]);
        // \u escapes decode to the same key as the literal character.
        let escaped = top_level_keys(r#"{"é":1}"#).expect("valid");
        assert_eq!(escaped, vec!["é"]);
    }

    #[test]
    fn empty_keys_are_legal_json() {
        assert_eq!(top_level_keys(r#"{"":1}"#).expect("valid"), vec![""]);
        assert_eq!(
            top_level_keys(r#"{"":{"":[]},"x":""}"#).expect("valid"),
            vec!["", "x"]
        );
    }

    #[test]
    fn validation_failures_report_an_offset() {
        for (bad, why) in [
            (r#"{"k":"\x"}"#, "invalid escape"),
            (r#"{"k":"\u12"}"#, "truncated \\u"),
            (r#"{"k":"\u12zz"}"#, "non-hex \\u digits"),
            (r#"{"k" 1}"#, "missing colon"),
            (r#"{k:1}"#, "unquoted key"),
            (r#"{"k":1}{"#, "trailing object"),
            (r#"{"k":+1}"#, "leading plus"),
            (r#"{"k":.5}"#, "bare fraction"),
            (r#"{"k":1.}"#, "empty fraction"),
            (r#"{"k":[1,]}"#, "trailing array comma"),
            (r#"{"k":tru}"#, "truncated literal"),
            ("{\"k\":1}\u{0}", "trailing NUL"),
        ] {
            let err = top_level_keys(bad).expect_err(why);
            assert!(
                err.contains("offset"),
                "{why}: error {err:?} lacks an offset"
            );
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // 100,000 levels used to recurse once per level and abort the
        // whole process with a stack overflow.
        let deep = 100_000;
        let line = format!("{{\"a\":{}{}}}", "[".repeat(deep), "]".repeat(deep));
        let err = top_level_keys(&line).expect_err("too deep");
        assert!(err.contains("nesting") && err.contains("offset"), "{err}");
        // The same cap holds through objects.
        let objects = format!("{}1{}", "{\"k\":".repeat(deep), "}".repeat(deep));
        assert!(top_level_keys(&objects).is_err());

        // Exactly MAX_DEPTH levels, the top-level object included, parse;
        // one more does not, and the error points at the opening bracket.
        let nested = |levels: usize| {
            let arrays = levels - 1;
            format!("{{\"a\":{}{}}}", "[".repeat(arrays), "]".repeat(arrays))
        };
        assert_eq!(top_level_keys(&nested(MAX_DEPTH)), Ok(vec!["a".into()]));
        let err = top_level_keys(&nested(MAX_DEPTH + 1)).expect_err("one too deep");
        let offset = 5 + MAX_DEPTH - 1;
        assert!(err.ends_with(&format!("offset {offset}")), "{err}");
        // Depth is released on close: many shallow siblings are fine.
        let siblings = format!("{{\"a\":[{}]}}", vec!["[[]]"; 10_000].join(","));
        assert!(top_level_keys(&siblings).is_ok());
    }

    #[test]
    fn lone_surrogate_escapes_are_structurally_accepted() {
        // The lint checks structure, not codepoints: \ud800 becomes
        // U+FFFD rather than failing the whole trace line.
        let keys = top_level_keys(r#"{"\ud800":"\udfff"}"#).expect("valid");
        assert_eq!(keys, vec!["\u{fffd}"]);
    }
}
