//! Unified, span-carrying diagnostics shared by every front end.
//!
//! Each layer of the tool flow — DSL lexer/parser, XML parser/importer,
//! model construction, PSM validation and the emulator's pre-flight checks —
//! reports failures as a [`SegbusError`]: a stable error *code*, a
//! human-readable message and, when the input is text, the line/column
//! [`SourceSpan`] the error points at. Codes are grouped by layer:
//!
//! | prefix | layer                                              |
//! |--------|----------------------------------------------------|
//! | `P0xx` | DSL front end (lexing, parsing, literal ranges)    |
//! | `X0xx` | XML front end (well-formedness, scheme, values)    |
//! | `M0xx` | model construction ([`ModelError`] hard errors)    |
//! | `V0xx` | PSM validation ([`crate::validate::Constraint`])   |
//! | `C0xx` | emulator pre-flight checks (`segbus-core`)         |
//! | `T0xx` | trace layer (`.sbt` files, trace-requiring APIs)   |
//!
//! Codes are part of the public contract: golden tests assert on them and
//! scripts may grep reports for them, so existing codes must never be
//! renumbered.

use std::fmt;

use crate::error::ModelError;

/// A 1-based line/column position in a textual input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SourceSpan {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A structured diagnostic: stable code, message, optional source span.
///
/// Renders as `error[P003] at 3:14: message` (span present) or
/// `error[M006]: message` (no span).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegbusError {
    /// Stable error code, e.g. `"P003"` (see module docs for the scheme).
    pub code: &'static str,
    /// Human-readable description of the failure.
    pub message: String,
    /// Where in the textual input the error was detected, if applicable.
    pub span: Option<SourceSpan>,
}

impl SegbusError {
    /// A new diagnostic without a source span.
    pub fn new(code: &'static str, message: impl Into<String>) -> SegbusError {
        SegbusError {
            code,
            message: message.into(),
            span: None,
        }
    }

    /// Attach a 1-based line/column span.
    pub fn with_span(mut self, line: u32, col: u32) -> SegbusError {
        self.span = Some(SourceSpan { line, col });
        self
    }
}

impl fmt::Display for SegbusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "error[{}] at {span}: {}", self.code, self.message),
            None => write!(f, "error[{}]: {}", self.code, self.message),
        }
    }
}

impl std::error::Error for SegbusError {}

impl ModelError {
    /// The stable diagnostic code for this error (`M0xx`, or the `V0xx`
    /// code of the first failed constraint for [`ModelError::Invalid`]).
    pub fn code(&self) -> &'static str {
        match self {
            ModelError::UnknownProcess(_) => "M001",
            ModelError::UnknownSegment(_) => "M002",
            ModelError::EmptyFlow { .. } => "M003",
            ModelError::SelfFlow(_) => "M004",
            ModelError::DuplicateProcessName(_) => "M005",
            ModelError::NoSegments => "M006",
            ModelError::RingTooSmall(_) => "M007",
            ModelError::ZeroPackageSize => "M008",
            ModelError::Unplaced(_) => "M009",
            ModelError::InvalidNoise { .. } => "M010",
            ModelError::Invalid { first_code, .. } => first_code,
        }
    }
}

impl From<ModelError> for SegbusError {
    fn from(e: ModelError) -> SegbusError {
        SegbusError::new(e.code(), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    #[test]
    fn display_with_and_without_span() {
        let plain = SegbusError::new("M006", "platform has no segments");
        assert_eq!(plain.to_string(), "error[M006]: platform has no segments");
        let spanned = SegbusError::new("P003", "integer out of range").with_span(3, 14);
        assert_eq!(
            spanned.to_string(),
            "error[P003] at 3:14: integer out of range"
        );
    }

    #[test]
    fn model_error_codes_are_stable() {
        assert_eq!(ModelError::NoSegments.code(), "M006");
        assert_eq!(ModelError::ZeroPackageSize.code(), "M008");
        assert_eq!(ModelError::Unplaced(ProcessId(0)).code(), "M009");
        let invalid = ModelError::Invalid {
            errors: 1,
            first: "x".into(),
            first_code: "V003",
        };
        assert_eq!(invalid.code(), "V003");
        let converted: SegbusError = invalid.into();
        assert_eq!(converted.code, "V003");
        assert!(converted.span.is_none());
    }
}
