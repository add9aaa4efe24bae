//! Tokenizer for the SegBus DSL.
//!
//! Produces identifier, integer, float and punctuation tokens with
//! line/column spans; skips `//` line comments and `/* … */` block
//! comments. Lexical failures surface as [`SegbusError`]s with code
//! `P001` (malformed input) or `P003` (integer literal out of range).
//!
//! The lexer is a pull lexer: each `next_token` call classifies the byte
//! at the cursor through one 256-entry table and lexes exactly one
//! token, so the parser holds one token at a time instead of a vector.

use std::fmt;

use segbus_model::diag::SegbusError;

/// Position of a token in the source (re-exported model type: 1-based
/// line/column).
pub use segbus_model::diag::SourceSpan as Span;

/// Token payload. Identifiers borrow their text from the source, so a
/// token is `Copy` and tokenizing allocates only the token vector.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// Identifier or keyword (`application`, `P0`, `freq_mhz`, …).
    Ident(&'a str),
    /// Unsigned integer literal.
    Int(u64),
    /// Floating-point literal (used for frequencies).
    Float(f64),
    /// `->`
    Arrow,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier {s:?}"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Float(v) => write!(f, "number {v}"),
            TokenKind::Arrow => f.write_str("'->'"),
            TokenKind::LBrace => f.write_str("'{'"),
            TokenKind::RBrace => f.write_str("'}'"),
            TokenKind::Semi => f.write_str("';'"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its position.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// Payload.
    pub kind: TokenKind<'a>,
    /// Where it starts.
    pub span: Span,
}

/// The class of a byte: which arm of [`Lexer::next_token`] handles it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `' '`, `'\t'` or `'\r'`.
    Space,
    /// `'\n'`: starts a line.
    Newline,
    /// `0`–`9`: starts a number, continues an identifier.
    Digit,
    /// An ASCII letter or `_`: starts or continues an identifier.
    Word,
    /// `{`, `}` or `;`.
    Punct,
    /// `-`: starts `->`, or joins two parts of an identifier.
    Dash,
    /// `/`: starts a comment.
    Slash,
    /// Anything else, every non-ASCII byte included.
    Other,
}

static CLASS: [Class; 256] = {
    let mut table = [Class::Other; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b' ' | b'\t' | b'\r' => Class::Space,
            b'\n' => Class::Newline,
            b'0'..=b'9' => Class::Digit,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Class::Word,
            b'{' | b'}' | b';' => Class::Punct,
            b'-' => Class::Dash,
            b'/' => Class::Slash,
            _ => Class::Other,
        };
        b += 1;
    }
    table
};

/// The offset of the first byte at or after `i` that is not a space.
fn skip_spaces(bytes: &[u8], mut i: usize) -> usize {
    while bytes
        .get(i)
        .is_some_and(|&b| CLASS[b as usize] == Class::Space)
    {
        i += 1;
    }
    i
}

/// `true` for a byte that continues an identifier.
fn continues_ident(b: u8) -> bool {
    matches!(CLASS[b as usize], Class::Word | Class::Digit)
}

/// The tokenizer.
///
/// Columns count bytes from the last `'\n'` (a `'\r'` is an ordinary
/// column), so the column of a position is `pos - line_start + 1` and
/// only a newline updates the line bookkeeping.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    /// Byte offset of the first byte of the current line.
    line_start: usize,
}

fn lex_err(span: Span, message: impl Into<String>) -> SegbusError {
    SegbusError::new("P001", message).with_span(span.line, span.col)
}

impl<'a> Lexer<'a> {
    /// Tokenize from the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    /// Tokenize everything, ending with an [`TokenKind::Eof`] token, or
    /// stop at the first lexical error.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>, SegbusError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            out.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }

    /// Step over the `'\n'` at the current position.
    fn newline(&mut self) {
        self.pos += 1;
        self.line += 1;
        self.line_start = self.pos;
    }

    /// The span of byte offset `at` on the current line.
    fn span_at(&self, at: usize) -> Span {
        Span {
            line: u32::try_from(self.line).unwrap_or(u32::MAX),
            col: u32::try_from(at - self.line_start + 1).unwrap_or(u32::MAX),
        }
    }

    /// Lex the next token, skipping the trivia before it. At the end of
    /// the source every call returns [`TokenKind::Eof`].
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, SegbusError> {
        let bytes = self.src.as_bytes();
        loop {
            let start = self.pos;
            let Some(&c) = bytes.get(start) else {
                return Ok(Token {
                    kind: TokenKind::Eof,
                    span: self.span_at(start),
                });
            };
            let kind = match CLASS[c as usize] {
                Class::Space => {
                    self.pos = skip_spaces(bytes, start + 1);
                    continue;
                }
                Class::Newline => {
                    self.newline();
                    // Most lines start with their indentation.
                    self.pos = skip_spaces(bytes, self.pos);
                    continue;
                }
                Class::Digit => self.number(start)?,
                Class::Word => self.ident(start),
                Class::Punct => {
                    self.pos += 1;
                    match c {
                        b'{' => TokenKind::LBrace,
                        b'}' => TokenKind::RBrace,
                        _ => TokenKind::Semi,
                    }
                }
                Class::Dash => {
                    if bytes.get(start + 1) != Some(&b'>') {
                        return Err(lex_err(self.span_at(start), "expected '->' after '-'"));
                    }
                    self.pos += 2;
                    TokenKind::Arrow
                }
                Class::Slash => {
                    match bytes.get(start + 1) {
                        Some(b'/') => {
                            self.pos = bytes[start..]
                                .iter()
                                .position(|&b| b == b'\n')
                                .map_or(bytes.len(), |i| start + i);
                        }
                        Some(b'*') => self.block_comment(start)?,
                        _ => return Err(self.unexpected(start)),
                    }
                    continue;
                }
                Class::Other => return Err(self.unexpected(start)),
            };
            return Ok(Token {
                kind,
                span: self.span_at(start),
            });
        }
    }

    /// Skip the block comment opening at `start`.
    fn block_comment(&mut self, start: usize) -> Result<(), SegbusError> {
        let open = self.span_at(start);
        let bytes = self.src.as_bytes();
        let mut i = start + 2;
        loop {
            match bytes.get(i) {
                Some(b'*') if bytes.get(i + 1) == Some(&b'/') => {
                    self.pos = i + 2;
                    return Ok(());
                }
                Some(b'\n') => {
                    i += 1;
                    self.line += 1;
                    self.line_start = i;
                }
                Some(_) => i += 1,
                None => return Err(lex_err(open, "unterminated block comment")),
            }
        }
    }

    /// An integer, or a float when one `.` sits between digits. Integers
    /// accumulate as they are read; floats go through `str::parse`.
    fn number(&mut self, start: usize) -> Result<TokenKind<'a>, SegbusError> {
        let bytes = self.src.as_bytes();
        let mut value = Some(0u64);
        let mut i = start;
        while let Some(&d) = bytes.get(i).filter(|d| d.is_ascii_digit()) {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            i += 1;
        }
        let is_float =
            bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
        if is_float {
            i += 1;
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        }
        self.pos = i;
        // ASCII digits and at most one dot: a char-boundary slice.
        let text = &self.src[start..i];
        let span = self.span_at(start);
        if is_float {
            text.parse()
                .map(TokenKind::Float)
                .map_err(|_| lex_err(span, format!("malformed number {text:?}")))
        } else {
            value.map(TokenKind::Int).ok_or_else(|| {
                SegbusError::new("P003", format!("integer {text:?} out of range"))
                    .with_span(span.line, span.col)
            })
        }
    }

    /// An identifier starting at `start` (a letter or `_`).
    fn ident(&mut self, start: usize) -> TokenKind<'a> {
        let bytes = self.src.as_bytes();
        let mut i = start + 1;
        while let Some(&b) = bytes.get(i) {
            if continues_ident(b) {
                i += 1;
            } else if b == b'-' && bytes.get(i + 1).is_some_and(|&n| continues_ident(n)) {
                // Interior hyphens are part of the name ("mp3-decoder");
                // "P0->P1" still lexes as an arrow because '>' follows.
                i += 2;
            } else {
                break;
            }
        }
        self.pos = i;
        // ASCII alphanumerics, '_' and '-': a char-boundary slice.
        TokenKind::Ident(&self.src[start..i])
    }

    /// `P001` for the character at `start`. Every token starts on a char
    /// boundary (trivia and tokens end on ASCII bytes), so the character
    /// is decoded whole, while the column stays a byte count.
    fn unexpected(&self, start: usize) -> SegbusError {
        let c = self.src[start..].chars().next().unwrap_or('\u{fffd}');
        lex_err(self.span_at(start), format!("unexpected character {c:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_the_basic_vocabulary() {
        assert_eq!(
            kinds("flow P0 -> P1 { items 576; }"),
            vec![
                TokenKind::Ident("flow"),
                TokenKind::Ident("P0"),
                TokenKind::Arrow,
                TokenKind::Ident("P1"),
                TokenKind::LBrace,
                TokenKind::Ident("items"),
                TokenKind::Int(576),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn floats_and_ints() {
        assert_eq!(
            kinds("91 91.5"),
            vec![TokenKind::Int(91), TokenKind::Float(91.5), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("a // line\n b /* block\n still */ c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Ident("b"),
                TokenKind::Ident("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let spans = |src: &str| -> Vec<(u32, u32)> {
            Lexer::new(src)
                .tokenize()
                .unwrap()
                .iter()
                .map(|t| (t.span.line, t.span.col))
                .collect()
        };
        assert_eq!(spans("a\n  b"), vec![(1, 1), (2, 3), (2, 4)]);
        // A block comment spanning lines moves the next token's line and
        // restarts its column at the last newline inside the comment.
        assert_eq!(spans("a /* x\n yy */ z"), vec![(1, 1), (2, 8), (2, 9)]);
        // CRLF: '\r' is an ordinary column, only '\n' starts a line.
        assert_eq!(
            spans("a\r\n  b\r\nc\r d"),
            vec![(1, 1), (2, 3), (3, 1), (3, 4), (3, 5)]
        );
        let e = Lexer::new("/* a\n b */ @").tokenize().unwrap_err();
        assert_eq!((e.code, e.span), ("P001", Some(Span { line: 2, col: 7 })));
        let e = Lexer::new("a\r\n  /* never").tokenize().unwrap_err();
        assert_eq!(e.span, Some(Span { line: 2, col: 3 }));
    }

    #[test]
    fn lex_errors() {
        assert_eq!(Lexer::new("@").tokenize().unwrap_err().code, "P001");
        assert_eq!(Lexer::new("- x").tokenize().unwrap_err().code, "P001");
        let e = Lexer::new("/* unterminated").tokenize().unwrap_err();
        assert_eq!(e.code, "P001");
        assert_eq!(e.span, Some(Span { line: 1, col: 1 }));
        let e = Lexer::new("99999999999999999999999")
            .tokenize()
            .unwrap_err();
        assert_eq!(e.code, "P003");
    }

    /// A non-ASCII character is named whole, at its byte-based column.
    #[test]
    fn unexpected_non_ascii_names_the_decoded_character() {
        let e = crate::parse_source("application é {}").unwrap_err();
        assert_eq!(e.code, "P001");
        assert_eq!(e.message, "unexpected character 'é'");
        assert_eq!(e.span, Some(Span { line: 1, col: 13 }));
        // After a two-byte character the column counts both bytes.
        let e = Lexer::new("a\n é ☃").tokenize().unwrap_err();
        assert_eq!(e.message, "unexpected character 'é'");
        assert_eq!(e.span, Some(Span { line: 2, col: 2 }));
        let e = Lexer::new("/* é */ x ☃").tokenize().unwrap_err();
        assert_eq!(e.message, "unexpected character '☃'");
        assert_eq!(e.span, Some(Span { line: 1, col: 12 }));
    }

    /// Integers accumulate with checked arithmetic: `u64::MAX` lexes and
    /// one more is `P003` naming the whole literal; a float of the same
    /// digits still lexes.
    #[test]
    fn integer_overflow_is_p003_and_floats_parse() {
        assert_eq!(
            kinds("18446744073709551615 0007"),
            vec![TokenKind::Int(u64::MAX), TokenKind::Int(7), TokenKind::Eof]
        );
        let e = Lexer::new("x 18446744073709551616;")
            .tokenize()
            .unwrap_err();
        assert_eq!(e.code, "P003");
        assert_eq!(e.message, "integer \"18446744073709551616\" out of range");
        assert_eq!(e.span, Some(Span { line: 1, col: 3 }));
        assert_eq!(
            kinds("18446744073709551616.5"),
            vec![TokenKind::Float(18446744073709551616.5), TokenKind::Eof]
        );
    }
}
