//! Comment- and string-aware source preparation.
//!
//! The rule engine never looks at raw source: it looks at a
//! [`SourceMap`], where every comment and every string/char-literal
//! body has been blanked to spaces (structure and line numbers
//! preserved) and the comment text is kept separately for pragma
//! scanning. A rule pattern can therefore never false-positive on a
//! doc sentence like "uses `thread_rng`" or on a format string.
//!
//! A second pass over the blanked code tracks brace depth to mark
//! the `#[cfg(test)]` / `#[test]` regions (where the truncating-cast
//! rule does not apply), the bodies of `#[derive(Serialize)]` items
//! (where the unordered-collection rule does), and the bodies of
//! types with an `impl Snapshot for …` in the same file (where the
//! same rule applies: snapshot bytes must not depend on hash order).

/// One file, lexed for the rule engine. All vectors are indexed by
/// zero-based line number and have identical length.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    /// Source line with comments and literal bodies blanked to spaces.
    pub code: Vec<String>,
    /// Concatenated comment text of the line (without `//`/`/*`).
    pub comments: Vec<String>,
    /// Line is inside a `#[cfg(test)]` module or `#[test]` function.
    pub in_test: Vec<bool>,
    /// Line is inside the body of a `#[derive(.. Serialize ..)]` item.
    pub in_serialize: Vec<bool>,
    /// Line is inside the body of a `struct`/`enum` that has an
    /// `impl … Snapshot for <Name>` somewhere in the same file.
    pub in_snapshot: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Rust block comments nest; the payload is the nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string with `n` hashes: terminated by `"` + `n` `#`s.
    RawStr(u32),
    CharLit,
}

/// Lex `src` into a [`SourceMap`]. Never fails: unterminated literals
/// simply blank to end of file, which is what a later rustc run will
/// reject anyway.
pub fn lex(src: &str) -> SourceMap {
    let mut code: Vec<String> = Vec::new();
    let mut comments: Vec<String> = Vec::new();
    let mut state = State::Code;

    for line in src.split('\n') {
        let mut code_line = String::with_capacity(line.len());
        let mut comment_line = String::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        // A line comment never survives a newline.
        if state == State::LineComment {
            state = State::Code;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        comment_line.extend(&chars[i + 2..]);
                        // Keep column alignment for the rest of the line.
                        for _ in i..chars.len() {
                            code_line.push(' ');
                        }
                        i = chars.len();
                        continue;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code_line.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = State::Str;
                        code_line.push('"');
                    }
                    'r' | 'b' if !prev_is_ident(&code_line) => {
                        // Possible raw-string / byte-string prefix.
                        if let Some((hashes, skip)) = raw_string_prefix(&chars[i..]) {
                            state = State::RawStr(hashes);
                            for _ in 0..skip {
                                code_line.push(' ');
                            }
                            code_line.pop();
                            code_line.push('"');
                            i += skip;
                            continue;
                        }
                        code_line.push(c);
                    }
                    '\'' => {
                        // Lifetime or char literal? A char literal has a
                        // closing quote within a few characters.
                        if is_char_literal(&chars[i..]) {
                            state = State::CharLit;
                            code_line.push('\'');
                        } else {
                            code_line.push('\'');
                        }
                    }
                    _ => code_line.push(c),
                },
                // Entered only via the `//` branch, which consumes the
                // rest of the line; cleared at the top of each line.
                State::LineComment => code_line.push(' '),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth > 1 {
                            State::BlockComment(depth - 1)
                        } else {
                            State::Code
                        };
                        code_line.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        code_line.push_str("  ");
                        i += 2;
                        continue;
                    }
                    comment_line.push(c);
                    code_line.push(' ');
                }
                State::Str => match c {
                    '\\' => {
                        code_line.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = State::Code;
                        code_line.push('"');
                    }
                    _ => code_line.push(' '),
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                        state = State::Code;
                        code_line.push('"');
                        for _ in 0..hashes {
                            code_line.push(' ');
                        }
                        i += 1 + usize_of(hashes);
                        continue;
                    }
                    code_line.push(' ');
                }
                State::CharLit => match c {
                    '\\' => {
                        code_line.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '\'' => {
                        state = State::Code;
                        code_line.push('\'');
                    }
                    _ => code_line.push(' '),
                },
            }
            i += 1;
        }
        code.push(code_line);
        comments.push(comment_line);
    }

    let in_test = attribute_regions(&code, &["#[cfg(test)]", "#[test]"]);
    let in_serialize = serialize_regions(&code);
    let in_snapshot = snapshot_regions(&code);
    SourceMap {
        code,
        comments,
        in_test,
        in_serialize,
        in_snapshot,
    }
}

fn usize_of(n: u32) -> usize {
    n.try_into().unwrap_or(usize::MAX)
}

/// Does the blanked code built so far end in an identifier character
/// (so an `r` / `b` here is part of a name like `for` or `sub`, not a
/// raw-string prefix)?
fn prev_is_ident(code_line: &str) -> bool {
    code_line
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `chars` starts a raw/byte string prefix (`r"`, `r#"`, `br##"`,
/// `b"` …), return `(hash_count, chars_consumed_through_quote)`.
fn raw_string_prefix(chars: &[char]) -> Option<(u32, usize)> {
    let mut i = 0usize;
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    let raw = chars.get(i) == Some(&'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0u32;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return None;
    }
    if !raw && hashes > 0 {
        return None;
    }
    // Plain `b"…"` is an ordinary (escaped) string: let the `Str`
    // state handle it so `\"` works.
    if !raw {
        return None;
    }
    Some((hashes, i + 1))
}

/// Does `rest` (starting at the char after a `"`) close a raw string
/// with `hashes` hashes?
fn closes_raw(rest: &[char], hashes: u32) -> bool {
    let need = usize_of(hashes);
    rest.len() >= need && rest.iter().take(need).all(|&c| c == '#')
}

/// Is `chars[0] == '\''` the start of a char literal (vs a lifetime)?
fn is_char_literal(chars: &[char]) -> bool {
    match chars.get(1) {
        Some('\\') => true,
        Some(_) => chars.get(2) == Some(&'\''),
        None => false,
    }
}

/// Mark the lines belonging to items annotated with any of `needles`.
///
/// A marker arms on the attribute; the region spans from the next `{`
/// to its matching `}` (a `;` first — e.g. an annotated `use` or a
/// unit struct — just disarms).
fn attribute_regions(code: &[String], needles: &[&str]) -> Vec<bool> {
    marked_regions(code, |line| needles.iter().any(|n| line.contains(n)))
}

/// The brace scan behind [`attribute_regions`]: mark every line from
/// a `marker`-matching line through the matching `}` of the next `{`
/// (a `;` first just disarms, marking only the header lines).
fn marked_regions(code: &[String], marker: impl Fn(&str) -> bool) -> Vec<bool> {
    let mut out = vec![false; code.len()];
    let mut depth = 0i64;
    let mut armed = false;
    let mut region_floor: Option<i64> = None;
    for (ln, line) in code.iter().enumerate() {
        let open_at_line_start = region_floor.is_some();
        if region_floor.is_none() && marker(line) {
            armed = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if armed && region_floor.is_none() {
                        region_floor = Some(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_floor == Some(depth) {
                        region_floor = None;
                    }
                }
                ';' if armed && region_floor.is_none() => {
                    armed = false;
                    // The annotated braceless item ends here; its
                    // lines up to this one were marked via `armed`.
                    out[ln] = true;
                }
                _ => {}
            }
        }
        if open_at_line_start || region_floor.is_some() || armed {
            out[ln] = true;
        }
    }
    out
}

/// Lines inside the body of a `#[derive(.. Serialize ..)]` item.
/// The derive attribute and the item header line are included, so a
/// single-line `struct S { map: HashMap<K, V> }` is still caught.
fn serialize_regions(code: &[String]) -> Vec<bool> {
    // A derive attribute may wrap across lines; join each attribute
    // with its successors until the closing `)]` before testing.
    let mut flags = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        let start = code[i].find("#[derive(");
        if let Some(col) = start {
            let mut attr = String::new();
            let mut j = i;
            let mut rest = &code[j][col..];
            loop {
                attr.push_str(rest);
                if attr.contains(")]") {
                    break;
                }
                j += 1;
                if j >= code.len() {
                    break;
                }
                rest = &code[j];
            }
            if has_token(&attr, "Serialize") {
                flags[i] = true;
            }
        }
        i += 1;
    }
    // Expand each flagged derive to cover its item body.
    let marker = "#[derive(";
    let mut shadow: Vec<String> = code.to_vec();
    for (ln, f) in flags.iter().enumerate() {
        if !*f {
            // Hide non-Serialize derives from the region scan.
            if let Some(col) = shadow[ln].find(marker) {
                let blanked: String = shadow[ln]
                    .chars()
                    .enumerate()
                    .map(|(k, c)| if k >= col { ' ' } else { c })
                    .collect();
                shadow[ln] = blanked;
            }
        }
    }
    attribute_regions(&shadow, &[marker])
}

/// Lines inside the body of a `struct`/`enum` whose name appears as
/// the target of an `impl … Snapshot for <Name>` in this file.
///
/// Snapshot bytes are as order-sensitive as serde bytes, so the
/// unordered-collection rule extends to these types. Name collection
/// is line-local and tokenized: `impl<T: Codec> Snapshot for
/// EventQueue<T>` and `impl digg_snapshot::Snapshot for Sim` both
/// yield the identifier after `for`.
fn snapshot_regions(code: &[String]) -> Vec<bool> {
    let mut names: Vec<String> = Vec::new();
    for line in code {
        let toks = ident_tokens(line);
        if !toks.contains(&"impl") {
            continue;
        }
        for w in toks.windows(3) {
            if w[0] == "Snapshot" && w[1] == "for" {
                names.push(w[2].to_string());
            }
        }
    }
    if names.is_empty() {
        return vec![false; code.len()];
    }
    marked_regions(code, |line| {
        ident_tokens(line)
            .windows(2)
            .any(|w| (w[0] == "struct" || w[0] == "enum") && names.iter().any(|n| n == w[1]))
    })
}

/// Split a blanked code line into identifier tokens.
fn ident_tokens(line: &str) -> Vec<&str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect()
}

/// Word-boundary token containment: `needle` appears in `haystack` as
/// a maximal identifier token.
pub fn has_token(haystack: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before = haystack[..at].chars().next_back();
        let after = haystack[at + needle.len()..].chars().next();
        let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary(before) && boundary(after) {
            return true;
        }
        start = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let m = lex("let x = \"thread_rng\"; // uses thread_rng\nlet y = 1;");
        assert!(!m.code[0].contains("thread_rng"));
        assert!(m.comments[0].contains("uses thread_rng"));
        assert_eq!(m.code[1], "let y = 1;");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let m = lex("/* outer /* inner */ still */ code()\nafter();");
        assert!(!m.code[0].contains("outer"));
        assert!(m.code[0].contains("code()"));
        assert_eq!(m.code[1], "after();");
    }

    #[test]
    fn raw_strings_with_hashes() {
        let m = lex("let s = r#\"panic!(\"x\")\"#; call();");
        assert!(!m.code[0].contains("panic!"));
        assert!(m.code[0].contains("call();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let m = lex("fn f<'a>(x: &'a str) { let c = '}'; let q = '\\''; }");
        // The brace inside the char literal must not end the region scan.
        assert!(!m.code[0].contains('}') || m.code[0].matches('}').count() == 1);
        assert!(m.code[0].contains("'a str"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let m = lex(src);
        assert_eq!(m.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn serialize_derive_region() {
        let src = "#[derive(Debug, Serialize)]\nstruct S {\n    m: HashMap<u32, u32>,\n}\nstruct T {\n    m: HashMap<u32, u32>,\n}";
        let m = lex(src);
        assert!(m.in_serialize[2]);
        assert!(!m.in_serialize[5]);
    }

    #[test]
    fn non_serialize_derive_is_not_marked() {
        let src = "#[derive(Debug, Clone)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        let m = lex(src);
        assert!(!m.in_serialize[2]);
    }

    #[test]
    fn snapshot_impl_marks_struct_body() {
        let src = "pub struct Q<T> {\n    m: HashMap<u64, T>,\n}\nimpl<T: Codec> Snapshot for Q<T> {\n    fn snapshot(&self) -> Vec<u8> { Vec::new() }\n}\nstruct Other {\n    m: HashMap<u32, u32>,\n}";
        let m = lex(src);
        assert!(m.in_snapshot[1], "field of the Snapshot type is marked");
        assert!(!m.in_snapshot[7], "unrelated struct is not marked");
    }

    #[test]
    fn path_qualified_snapshot_impl_is_detected() {
        let src = "struct Sim {\n    s: HashSet<u32>,\n}\nimpl digg_snapshot::Snapshot for Sim {}";
        let m = lex(src);
        assert!(m.in_snapshot[1]);
    }

    #[test]
    fn snapshot_name_needs_token_boundary() {
        // `SimExt` must not be confused with a Snapshot impl on `Sim`.
        let src = "struct SimExt {\n    s: HashSet<u32>,\n}\nimpl Snapshot for Sim {}";
        let m = lex(src);
        assert!(!m.in_snapshot[1]);
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("use rand::random;", "random"));
        assert!(!has_token("random_range(0..3)", "random"));
        assert!(!has_token("thread_rngx", "thread_rng"));
    }
}
