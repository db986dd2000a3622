//! `regexlite` — a small, dependency-free regular-expression engine.
//!
//! DASSA's `das_search -e` option lets users select DAS files with an
//! arbitrary regex over file names / timestamps (the paper's example is
//! `das_search -e 170728224[567]10`). This crate provides the matching
//! engine: a classic Thompson-construction NFA executed with the
//! Pike-VM technique (breadth-first over input, linear time, no
//! exponential backtracking).
//!
//! Supported syntax:
//!
//! * literals, `.` (any char)
//! * character classes `[abc]`, ranges `[a-z0-9]`, negation `[^...]`
//! * escapes `\d \D \w \W \s \S` and `\.` etc.
//! * repetition `*`, `+`, `?`, bounded `{m}`, `{m,}`, `{m,n}`
//! * alternation `|`, grouping `(...)`
//! * anchors `^` and `$`
//!
//! # Example
//! ```
//! use regexlite::Regex;
//! let re = Regex::new("170728224[567]10").unwrap();
//! assert!(re.is_match("westSac_170728224510.dasf"));
//! assert!(!re.is_match("westSac_170728224810.dasf"));
//! ```

#![forbid(unsafe_code)]

mod ast;
mod compile;
mod parse;
mod vm;

pub use ast::Ast;
pub use parse::ParseError;

use compile::Program;

/// A compiled regular expression.
///
/// Construction parses and compiles the pattern once; matching is then
/// linear in `pattern_len * input_len` in the worst case.
#[derive(Debug, Clone)]
pub struct Regex {
    program: Program,
    pattern: String,
}

impl Regex {
    /// Parse and compile `pattern`.
    ///
    /// Returns a [`ParseError`] describing the offending position when the
    /// pattern is malformed.
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let ast = parse::parse(pattern)?;
        let program = compile::compile(&ast);
        Ok(Regex {
            program,
            pattern: pattern.to_string(),
        })
    }

    /// The original pattern string.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Does the pattern match anywhere inside `text`?
    ///
    /// Unanchored by default (like `grep`); use `^`/`$` in the pattern to
    /// anchor.
    pub fn is_match(&self, text: &str) -> bool {
        vm::search(&self.program, text).is_some()
    }

    /// Find the first match, returning `(start, end)` byte offsets.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        vm::search(&self.program, text)
    }

    /// Does the pattern match the *entire* `text`?
    pub fn is_full_match(&self, text: &str) -> bool {
        match vm::search_anchored(&self.program, text) {
            Some((0, end)) => end == text.len(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn literal_match() {
        assert!(m("abc", "xxabcxx"));
        assert!(!m("abc", "ab"));
    }

    #[test]
    fn dot_matches_any_char() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a-c"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn char_class() {
        assert!(m("[abc]", "b"));
        assert!(!m("[abc]", "d"));
        assert!(m("[a-z0-9]", "q"));
        assert!(m("[a-z0-9]", "7"));
        assert!(!m("[a-z0-9]", "Q"));
    }

    #[test]
    fn negated_class() {
        assert!(m("[^abc]", "d"));
        assert!(!m("[^abc]", "a"));
    }

    #[test]
    fn class_with_literal_dash() {
        assert!(m("[a-]", "-"));
        assert!(m("[-a]", "-"));
    }

    #[test]
    fn star_repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(!m("ab*c", "adc"));
    }

    #[test]
    fn plus_repetition() {
        assert!(!m("ab+c", "ac"));
        assert!(m("ab+c", "abc"));
        assert!(m("ab+c", "abbc"));
    }

    #[test]
    fn question_mark() {
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn bounded_repetition() {
        assert!(m("^a{3}$", "aaa"));
        assert!(!m("^a{3}$", "aa"));
        assert!(m("^a{2,}$", "aaaa"));
        assert!(!m("^a{2,}$", "a"));
        assert!(m("^a{1,3}$", "aa"));
        assert!(!m("^a{1,3}$", "aaaa"));
    }

    #[test]
    fn alternation() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("cat|dog", "catnip"));
        assert!(!m("cat|dog", "bird"));
    }

    #[test]
    fn grouping() {
        assert!(m("(ab)+", "ababab"));
        assert!(m("a(b|c)d", "acd"));
        assert!(!m("a(b|c)d", "aed"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("def$", "abcdef"));
        assert!(!m("def$", "defx"));
        assert!(m("^abc$", "abc"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"a\.c", "a.c"));
        assert!(!m(r"a\.c", "abc"));
        assert!(m(r"\d+", "x42y"));
        assert!(!m(r"^\d+$", "4a2"));
        assert!(m(r"\w+", "hello_1"));
        assert!(m(r"\s", "a b"));
        assert!(!m(r"\S", "  \t "));
    }

    #[test]
    fn paper_example_pattern() {
        // Section IV-A: das_search -e 170728224[567]10
        let re = Regex::new("170728224[567]10").unwrap();
        assert!(re.is_match("170728224510"));
        assert!(re.is_match("170728224610"));
        assert!(re.is_match("170728224710"));
        assert!(!re.is_match("170728224810"));
        assert!(!re.is_match("170728224511"));
    }

    #[test]
    fn find_reports_offsets() {
        let re = Regex::new("b+").unwrap();
        assert_eq!(re.find("aabbbcc"), Some((2, 5)));
        assert_eq!(re.find("nope"), None);
    }

    #[test]
    fn full_match() {
        let re = Regex::new("a+b").unwrap();
        assert!(re.is_full_match("aaab"));
        assert!(!re.is_full_match("aaabc"));
        assert!(!re.is_full_match("xaaab"));
    }

    #[test]
    fn empty_pattern_matches_everywhere() {
        let re = Regex::new("").unwrap();
        assert!(re.is_match(""));
        assert!(re.is_match("abc"));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new(")").is_err());
        assert!(Regex::new("[a").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{2,1}").is_err());
        assert!(Regex::new("a\\").is_err());
    }

    #[test]
    fn no_exponential_blowup() {
        // Classic pathological backtracking case; the Pike VM stays linear.
        let re = Regex::new("(a+)+$").unwrap();
        let text = "a".repeat(64) + "b";
        assert!(!re.is_match(&text));
    }

    #[test]
    fn unicode_input_is_handled_bytewise_safe() {
        // Multi-byte chars in the haystack must not panic.
        assert!(m("a.c", "a\u{00e9}c"));
        assert!(m("é", "café"));
    }
}
