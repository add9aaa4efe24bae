//! Tokenizer for the SegBus DSL.
//!
//! Produces identifier, integer, float and punctuation tokens with
//! line/column spans; skips `//` line comments and `/* … */` block
//! comments. Lexical failures surface as [`SegbusError`]s with code
//! `P001` (malformed input) or `P003` (integer literal out of range).

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

    /// Tokenize everything, ending with an [`TokenKind::Eof`] token.
    ///
    /// The whole source is tokenized before parsing starts, so a lexical
    /// error anywhere wins over a syntax error earlier in the text.
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

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    /// Step over the `'\n'` at the current position.
    fn newline(&mut self) {
        self.pos += 1;
        self.line += 1;
        self.line_start = self.pos;
    }

    fn span(&self) -> Span {
        Span {
            line: u32::try_from(self.line).unwrap_or(u32::MAX),
            col: u32::try_from(self.pos - self.line_start + 1).unwrap_or(u32::MAX),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), SegbusError> {
        loop {
            match (self.peek(), self.peek2()) {
                (Some(b'\n'), _) => self.newline(),
                (Some(b' ' | b'\t' | b'\r'), _) => self.pos += 1,
                (Some(b'/'), Some(b'/')) => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                (Some(b'/'), Some(b'*')) => {
                    let start = self.span();
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(b'\n'), _) => self.newline(),
                            (None, _) => return Err(lex_err(start, "unterminated block comment")),
                            _ => self.pos += 1,
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'a>, SegbusError> {
        self.skip_trivia()?;
        let span = self.span();
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span,
            });
        };
        let kind = match c {
            b'{' => {
                self.pos += 1;
                TokenKind::LBrace
            }
            b'}' => {
                self.pos += 1;
                TokenKind::RBrace
            }
            b';' => {
                self.pos += 1;
                TokenKind::Semi
            }
            b'-' => {
                self.pos += 1;
                if self.peek() == Some(b'>') {
                    self.pos += 1;
                    TokenKind::Arrow
                } else {
                    return Err(lex_err(span, "expected '->' after '-'"));
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                let mut is_float = false;
                while let Some(d) = self.peek() {
                    if d.is_ascii_digit() {
                        self.pos += 1;
                    } else if d == b'.'
                        && !is_float
                        && self.peek2().is_some_and(|n| n.is_ascii_digit())
                    {
                        is_float = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                // ASCII digits and at most one dot: a char-boundary slice.
                let text = &self.src[start..self.pos];
                if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| lex_err(span, format!("malformed number {text:?}")))?,
                    )
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        SegbusError::new("P003", format!("integer {text:?} out of range"))
                            .with_span(span.line, span.col)
                    })?)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while let Some(d) = self.peek() {
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        self.pos += 1;
                    } else if d == b'-'
                        && self
                            .peek2()
                            .is_some_and(|n| n.is_ascii_alphanumeric() || n == b'_')
                    {
                        // Interior hyphens are part of the name ("mp3-decoder");
                        // "P0->P1" still lexes as an arrow because '>' follows.
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                // ASCII alphanumerics, '_' and '-': a char-boundary slice.
                TokenKind::Ident(&self.src[start..self.pos])
            }
            other => {
                return Err(lex_err(
                    span,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        Ok(Token { kind, span })
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
}
