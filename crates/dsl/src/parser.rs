//! Recursive-descent parser for the SegBus DSL.
//!
//! Parsing produces model objects directly; [`ParsedSource::into_psm`]
//! resolves the process mapping and runs the full OCL-style validation,
//! converting any error-severity diagnostic into a [`SegbusError`].
//!
//! Error codes emitted by this front end:
//!
//! * `P001` — lexical error (from [`crate::lexer`]);
//! * `P002` — syntax error (unexpected token, unknown property);
//! * `P003` — integer literal out of the range its context allows;
//! * `P004` — source lacks an `application` or `platform` block;
//! * `P005` — a name references an undeclared process;
//! * `P006` — duplicate declaration;
//! * `P007` — a stochastic annotation (`items_dist`, `ticks_dist`,
//!   `jitter`) has unusable parameters (inverted range, empty choice,
//!   items distribution able to produce zero, …);
//! * `M0xx`/`V0xx` — model construction/validation failures, spanned to
//!   the block that produced them.

use std::collections::HashMap;

use segbus_model::diag::SegbusError;
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::{Allocation, Psm};
use segbus_model::platform::{Platform, Topology};
use segbus_model::psdf::{Application, CostModel, Flow, Process};
use segbus_model::stochastic::{Dist, FlowNoise};
use segbus_model::time::ClockDomain;

use crate::lexer::{Lexer, Span, Token, TokenKind};

/// A parsed `platform` block: the platform plus the `hosts` lists, with
/// process references still by name (resolved in [`ParsedSource::into_psm`]).
#[derive(Clone, Debug)]
pub struct PlatformSpec<'a> {
    /// The platform instance.
    pub platform: Platform,
    /// `(process name, segment, name span)` triples from the `hosts`
    /// clauses, the names borrowed from the source.
    pub hosts: Vec<(&'a str, SegmentId, Span)>,
    /// Where the `platform` keyword appeared.
    pub span: Span,
}

/// Everything found in one DSL source.
#[derive(Clone, Debug, Default)]
pub struct ParsedSource<'a> {
    /// `application` blocks in source order.
    pub applications: Vec<Application>,
    /// `platform` blocks in source order.
    pub platforms: Vec<PlatformSpec<'a>>,
}

impl ParsedSource<'_> {
    /// Combine the first application and first platform into a validated
    /// [`Psm`].
    pub fn into_psm(self) -> Result<Psm, SegbusError> {
        let missing = |what: &str| {
            SegbusError::new("P004", format!("source contains no {what} block")).with_span(1, 1)
        };
        let app = self
            .applications
            .into_iter()
            .next()
            .ok_or_else(|| missing("application"))?;
        let spec = self
            .platforms
            .into_iter()
            .next()
            .ok_or_else(|| missing("platform"))?;
        // First declaration wins, as in `Application::process_by_name`.
        let mut by_name: HashMap<&str, ProcessId> = HashMap::with_capacity(app.process_count());
        for (i, p) in app.processes().iter().enumerate() {
            by_name
                .entry(p.name.as_str())
                .or_insert(ProcessId(i as u32));
        }
        let mut alloc = Allocation::new(spec.platform.segment_count());
        for &(name, seg, span) in &spec.hosts {
            let &p = by_name.get(name).ok_or_else(|| {
                SegbusError::new(
                    "P005",
                    format!("hosts clause names unknown process {name:?}"),
                )
                .with_span(span.line, span.col)
            })?;
            alloc.assign(p, seg);
        }
        let at = spec.span;
        Psm::new(spec.platform, app, alloc)
            .map_err(|e| SegbusError::from(e).with_span(at.line, at.col))
    }
}

/// Parse a DSL source into its blocks.
///
/// The parser pulls one token at a time from the [`Lexer`]. A lexical
/// error anywhere still wins over a syntax error earlier in the text: on
/// any parser error the rest of the source is lexed, and its first
/// lexical error, if there is one, is returned instead.
pub fn parse_source(src: &str) -> Result<ParsedSource<'_>, SegbusError> {
    let mut lexer = Lexer::new(src);
    let tok = lexer.next_token()?;
    let mut parser = Parser {
        lexer,
        tok,
        lex_failed: false,
    };
    parser.source().map_err(|e| parser.lexical_error_or(e))
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token: lexed, not yet consumed.
    tok: Token<'a>,
    /// The lexer returned an error, which is final: nothing is left to
    /// drain.
    lex_failed: bool,
}

/// The processes of the application being parsed, by name.
type ProcessNames<'a> = HashMap<&'a str, ProcessId>;

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tok
    }

    /// Consume the current token and lex the next one. At the end of the
    /// source the current token stays [`TokenKind::Eof`].
    fn bump(&mut self) -> Result<Token<'a>, SegbusError> {
        let next = self
            .lexer
            .next_token()
            .inspect_err(|_| self.lex_failed = true)?;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    /// The error `parse_source` returns for the parser error `e`: the
    /// first lexical error in the rest of the source, else `e`.
    fn lexical_error_or(&mut self, e: SegbusError) -> SegbusError {
        if self.lex_failed {
            return e;
        }
        loop {
            match self.lexer.next_token() {
                Ok(t) if t.kind == TokenKind::Eof => return e,
                Ok(_) => {}
                Err(lexical) => return lexical,
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> SegbusError {
        self.err_code("P002", msg)
    }

    fn err_code(&self, code: &'static str, msg: impl Into<String>) -> SegbusError {
        let span = self.peek().span;
        SegbusError::new(code, msg).with_span(span.line, span.col)
    }

    fn expect_kind(&mut self, k: TokenKind<'_>) -> Result<Token<'a>, SegbusError> {
        if self.peek().kind == k {
            self.bump()
        } else {
            Err(self.err(format!("expected {k}, found {}", self.peek().kind)))
        }
    }

    fn ident(&mut self) -> Result<&'a str, SegbusError> {
        match self.peek().kind {
            TokenKind::Ident(s) => {
                self.bump()?;
                Ok(s)
            }
            other => Err(self.err(format!("expected an identifier, found {other}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), SegbusError> {
        match self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.bump()?;
                Ok(())
            }
            other => Err(self.err(format!("expected keyword {kw:?}, found {other}"))),
        }
    }

    fn int(&mut self) -> Result<u64, SegbusError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump()?;
                Ok(v)
            }
            other => Err(self.err(format!("expected an integer, found {other}"))),
        }
    }

    /// An integer that must fit in `u32` (package sizes, orders, reference
    /// sizes). Overflow is a spanned `P003`, never a silent truncation.
    fn int_u32(&mut self, what: &str) -> Result<u32, SegbusError> {
        let span = self.peek().span;
        let v = self.int()?;
        u32::try_from(v).map_err(|_| {
            SegbusError::new(
                "P003",
                format!("{what} value {v} is out of range (max {})", u32::MAX),
            )
            .with_span(span.line, span.col)
        })
    }

    fn number(&mut self) -> Result<f64, SegbusError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump()?;
                Ok(v as f64)
            }
            TokenKind::Float(v) => {
                self.bump()?;
                Ok(v)
            }
            other => Err(self.err(format!("expected a number, found {other}"))),
        }
    }

    fn source(&mut self) -> Result<ParsedSource<'a>, SegbusError> {
        let mut out = ParsedSource::default();
        loop {
            match self.peek().kind {
                TokenKind::Eof => return Ok(out),
                TokenKind::Ident("application") => {
                    out.applications.push(self.application()?);
                }
                TokenKind::Ident("platform") => {
                    out.platforms.push(self.platform()?);
                }
                other => {
                    return Err(self.err(format!(
                        "expected 'application' or 'platform', found {other}"
                    )))
                }
            }
        }
    }

    // -- application ---------------------------------------------------------

    fn application(&mut self) -> Result<Application, SegbusError> {
        self.keyword("application")?;
        let name = self.ident()?;
        let mut app = Application::new(name);
        let mut names = ProcessNames::new();
        self.expect_kind(TokenKind::LBrace)?;
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.bump()?;
                    return Ok(app);
                }
                TokenKind::Ident("process") => self.process(&mut app, &mut names)?,
                TokenKind::Ident("flow") => self.flow(&mut app, &names)?,
                TokenKind::Ident("cost") => self.cost(&mut app)?,
                other => {
                    return Err(self.err(format!(
                        "expected 'process', 'flow', 'cost' or '}}', found {other}"
                    )))
                }
            }
        }
    }

    fn process(
        &mut self,
        app: &mut Application,
        names: &mut ProcessNames<'a>,
    ) -> Result<(), SegbusError> {
        self.keyword("process")?;
        let name_span = self.peek().span;
        let name = self.ident()?;
        if names.contains_key(name) {
            return Err(
                SegbusError::new("P006", format!("process {name:?} is declared twice"))
                    .with_span(name_span.line, name_span.col),
            );
        }
        let p = match self.peek().kind {
            TokenKind::Ident("initial") => {
                self.bump()?;
                Process::initial(name)
            }
            TokenKind::Ident("final") => {
                self.bump()?;
                Process::final_(name)
            }
            _ => Process::new(name),
        };
        names.insert(name, app.add_process(p));
        self.expect_kind(TokenKind::Semi)?;
        Ok(())
    }

    fn flow(&mut self, app: &mut Application, names: &ProcessNames<'a>) -> Result<(), SegbusError> {
        self.keyword("flow")?;
        let src_span = self.peek().span;
        let src_name = self.ident()?;
        let &src = names.get(src_name).ok_or_else(|| {
            SegbusError::new("P005", format!("unknown source process {src_name:?}"))
                .with_span(src_span.line, src_span.col)
        })?;
        self.expect_kind(TokenKind::Arrow)?;
        let dst_span = self.peek().span;
        let dst_name = self.ident()?;
        let &dst = names.get(dst_name).ok_or_else(|| {
            SegbusError::new("P005", format!("unknown target process {dst_name:?}"))
                .with_span(dst_span.line, dst_span.col)
        })?;
        self.expect_kind(TokenKind::LBrace)?;
        let (mut items, mut order, mut ticks) = (None, None, None);
        let mut noise = FlowNoise::default();
        let mut noise_span: Option<Span> = None;
        while self.peek().kind != TokenKind::RBrace {
            let key_span = self.peek().span;
            let key = self.ident()?;
            match key {
                "items" => items = Some(self.int()?),
                "order" => order = Some(self.int_u32("order")?),
                "ticks" => ticks = Some(self.int()?),
                "items_dist" => {
                    noise_span.get_or_insert(key_span);
                    noise.items = Some(self.dist()?);
                }
                "ticks_dist" => {
                    noise_span.get_or_insert(key_span);
                    noise.ticks = Some(self.dist()?);
                }
                "jitter" => {
                    noise_span.get_or_insert(key_span);
                    noise.jitter = Some(self.dist()?);
                }
                other => return Err(self.err(format!("unknown flow property {other:?}"))),
            }
            self.expect_kind(TokenKind::Semi)?;
        }
        self.expect_kind(TokenKind::RBrace)?;
        let items = items.ok_or_else(|| self.err("flow lacks 'items'"))?;
        let order = order.ok_or_else(|| self.err("flow lacks 'order'"))?;
        let ticks = ticks.ok_or_else(|| self.err("flow lacks 'ticks'"))?;
        let id = app
            .add_flow(Flow::new(src, dst, items, order, ticks))
            .map_err(|e| {
                let span = self.peek().span;
                SegbusError::from(e).with_span(span.line, span.col)
            })?;
        if !noise.is_empty() {
            let span = noise_span.unwrap_or(src_span);
            noise.validate().map_err(|reason| {
                SegbusError::new("P007", format!("invalid distribution: {reason}"))
                    .with_span(span.line, span.col)
            })?;
            app.set_flow_noise(id, noise).map_err(|e| {
                SegbusError::new("P007", e.to_string()).with_span(span.line, span.col)
            })?;
        }
        Ok(())
    }

    /// A distribution literal, keyword-prefixed so no new lexer tokens are
    /// needed: `constant 5`, `uniform 300 400`, `normal 100 15 60 140`,
    /// `choice 0 3 10 1` (alternating value/weight pairs).
    fn dist(&mut self) -> Result<Dist, SegbusError> {
        let kind = self.ident()?;
        Ok(match kind {
            "constant" => Dist::Constant(self.int()?),
            "uniform" => Dist::Uniform {
                lo: self.int()?,
                hi: self.int()?,
            },
            "normal" => Dist::Normal {
                mean: self.int()?,
                std: self.int()?,
                lo: self.int()?,
                hi: self.int()?,
            },
            "choice" => {
                let mut pairs = Vec::new();
                while matches!(self.peek().kind, TokenKind::Int(_)) {
                    pairs.push((self.int()?, self.int()?));
                }
                Dist::Choice(pairs)
            }
            other => {
                return Err(self.err(format!(
                    "unknown distribution {other:?} (constant | uniform | normal | choice)"
                )))
            }
        })
    }

    fn cost(&mut self, app: &mut Application) -> Result<(), SegbusError> {
        self.keyword("cost")?;
        let kind = self.ident()?;
        let cm = match kind {
            "per_package" => CostModel::PerPackage,
            "per_item" => {
                self.keyword("reference")?;
                let r = self.int_u32("reference")?;
                CostModel::per_item(r).ok_or_else(|| {
                    self.err_code(
                        "P003",
                        "cost reference must be at least 1 (it is a divisor)",
                    )
                })?
            }
            "affine" => {
                self.keyword("base")?;
                let base_ticks = self.int()?;
                self.keyword("reference")?;
                let r = self.int_u32("reference")?;
                CostModel::affine(base_ticks, r).ok_or_else(|| {
                    self.err_code(
                        "P003",
                        "cost reference must be at least 1 (it is a divisor)",
                    )
                })?
            }
            other => {
                return Err(self.err(format!(
                    "unknown cost model {other:?} (per_item | per_package | affine)"
                )))
            }
        };
        app.set_cost_model(cm);
        self.expect_kind(TokenKind::Semi)?;
        Ok(())
    }

    // -- platform ---------------------------------------------------------------

    fn platform(&mut self) -> Result<PlatformSpec<'a>, SegbusError> {
        let block_span = self.peek().span;
        self.keyword("platform")?;
        let name = self.ident()?;
        self.expect_kind(TokenKind::LBrace)?;
        let mut package_size: Option<u32> = None;
        let mut topology: Option<Topology> = None;
        let mut ca_clock: Option<ClockDomain> = None;
        let mut segments: Vec<(&str, ClockDomain)> = Vec::new();
        let mut hosts: Vec<(&'a str, SegmentId, Span)> = Vec::new();
        loop {
            match self.peek().kind {
                TokenKind::RBrace => {
                    self.bump()?;
                    break;
                }
                TokenKind::Ident("package_size") => {
                    self.bump()?;
                    package_size = Some(self.int_u32("package_size")?);
                    self.expect_kind(TokenKind::Semi)?;
                }
                TokenKind::Ident("topology") => {
                    self.bump()?;
                    let t = self.ident()?;
                    topology = Some(match t {
                        "linear" => Topology::Linear,
                        "ring" => Topology::Ring,
                        other => {
                            return Err(
                                self.err(format!("unknown topology {other:?} (linear | ring)"))
                            )
                        }
                    });
                    self.expect_kind(TokenKind::Semi)?;
                }
                TokenKind::Ident("ca") => {
                    self.bump()?;
                    self.expect_kind(TokenKind::LBrace)?;
                    ca_clock = Some(self.clock()?);
                    self.expect_kind(TokenKind::RBrace)?;
                }
                TokenKind::Ident("segment") => {
                    self.bump()?;
                    let sname = self.ident()?;
                    let seg = SegmentId(segments.len() as u16);
                    self.expect_kind(TokenKind::LBrace)?;
                    let clock = self.clock()?;
                    // optional hosts clause
                    if self.peek().kind == TokenKind::Ident("hosts") {
                        self.bump()?;
                        while self.peek().kind != TokenKind::Semi {
                            let pspan = self.peek().span;
                            let pname = self.ident()?;
                            hosts.push((pname, seg, pspan));
                        }
                        self.expect_kind(TokenKind::Semi)?;
                    }
                    self.expect_kind(TokenKind::RBrace)?;
                    segments.push((sname, clock));
                }
                other => {
                    return Err(self.err(format!(
                    "expected 'package_size', 'topology', 'ca', 'segment' or '}}', found {other}"
                )))
                }
            }
        }
        let mut builder = Platform::builder(name);
        if let Some(s) = package_size {
            builder = builder.package_size(s);
        }
        if let Some(t) = topology {
            builder = builder.topology(t);
        }
        if let Some(c) = ca_clock {
            builder = builder.ca_clock(c);
        }
        for (sname, clock) in segments {
            builder = builder.segment(sname, clock);
        }
        let platform = builder
            .build()
            .map_err(|e| SegbusError::from(e).with_span(block_span.line, block_span.col))?;
        Ok(PlatformSpec {
            platform,
            hosts,
            span: block_span,
        })
    }

    /// `freq_mhz <number>;` or `period_ps <int>;`
    fn clock(&mut self) -> Result<ClockDomain, SegbusError> {
        let key = self.ident()?;
        let value_span = self.peek().span;
        let value_err = |msg: &str| {
            SegbusError::new("P003", msg.to_string()).with_span(value_span.line, value_span.col)
        };
        let clock = match key {
            "freq_mhz" => {
                let v = self.number()?;
                ClockDomain::try_from_mhz(v)
                    .ok_or_else(|| value_err("frequency must be positive"))?
            }
            "period_ps" => {
                let v = self.int()?;
                ClockDomain::try_from_period_ps(v)
                    .ok_or_else(|| value_err("period must be non-zero"))?
            }
            other => {
                return Err(self.err(format!(
                    "expected 'freq_mhz' or 'period_ps', found {other:?}"
                )))
            }
        };
        self.expect_kind(TokenKind::Semi)?;
        Ok(clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        // a two-stage pipeline on two segments
        application demo {
            cost per_item reference 36;
            process A initial;
            process B;
            process C final;
            flow A -> B { items 72; order 1; ticks 100; }
            flow B -> C { items 36; order 2; ticks 50; }
        }
        platform duo {
            package_size 36;
            ca { freq_mhz 111; }
            segment S1 { freq_mhz 91; hosts A B; }
            segment S2 { period_ps 10204; hosts C; }
        }
    "#;

    #[test]
    fn parses_a_complete_system() {
        let psm = crate::parse_system(GOOD).unwrap();
        assert_eq!(psm.application().process_count(), 3);
        assert_eq!(psm.application().flows().len(), 2);
        assert_eq!(psm.platform().segment_count(), 2);
        assert_eq!(psm.platform().package_size(), 36);
        assert_eq!(psm.platform().ca_clock().period_ps(), 9009);
        assert_eq!(
            psm.platform().segment_clock(SegmentId(1)).period_ps(),
            10204
        );
        let a = psm.application().process_by_name("A").unwrap();
        assert_eq!(psm.segment_of(a), SegmentId(0));
        let c = psm.application().process_by_name("C").unwrap();
        assert_eq!(psm.segment_of(c), SegmentId(1));
    }

    #[test]
    fn cost_models_parse() {
        let src = |cost: &str| {
            format!(
                "application a {{ cost {cost}; process X initial; process Y final;
                 flow X -> Y {{ items 36; order 1; ticks 10; }} }}
                 platform p {{ segment S {{ freq_mhz 100; hosts X Y; }} }}"
            )
        };
        let p1 = crate::parse_system(&src("per_package")).unwrap();
        assert_eq!(p1.application().cost_model(), CostModel::PerPackage);
        let p2 = crate::parse_system(&src("per_item reference 18")).unwrap();
        assert_eq!(
            p2.application().cost_model(),
            CostModel::per_item(18).unwrap()
        );
        let p3 = crate::parse_system(&src("affine base 40 reference 36")).unwrap();
        assert_eq!(
            p3.application().cost_model(),
            CostModel::affine(40, 36).unwrap()
        );
        // A zero reference is a divisor-by-zero: rejected at parse time.
        let e = crate::parse_system(&src("per_item reference 0")).unwrap_err();
        assert_eq!(e.code, "P003");
        let e = crate::parse_system(&src("affine base 40 reference 0")).unwrap_err();
        assert_eq!(e.code, "P003");
    }

    #[test]
    fn unknown_process_in_flow() {
        let e = parse_source(
            "application a { process X initial; flow X -> GHOST { items 1; order 1; ticks 1; } }",
        )
        .unwrap_err();
        assert_eq!(e.code, "P005");
        assert!(e.message.contains("GHOST"), "{e}");
    }

    #[test]
    fn unknown_process_in_hosts() {
        let src = "application a { process X initial; process Y final;
                    flow X -> Y { items 36; order 1; ticks 1; } }
                   platform p { segment S { freq_mhz 100; hosts X GHOST; } }";
        let e = parse_source(src).unwrap().into_psm().unwrap_err();
        assert_eq!(e.code, "P005");
        assert!(e.message.contains("GHOST"), "{e}");
    }

    #[test]
    fn validation_errors_surface() {
        // Y is never placed: V003 fires through Psm::new.
        let src = "application a { process X initial; process Y final;
                    flow X -> Y { items 36; order 1; ticks 1; } }
                   platform p { segment S { freq_mhz 100; hosts X; } }";
        let e = parse_source(src).unwrap().into_psm().unwrap_err();
        assert_eq!(e.code, "V003");
        assert!(e.message.contains("validation"), "{e}");
    }

    #[test]
    fn missing_flow_property() {
        let e = parse_source(
            "application a { process X initial; process Y final;
              flow X -> Y { items 36; order 1; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("ticks"), "{e}");
    }

    #[test]
    fn duplicate_process_rejected_at_parse_time() {
        let e = parse_source("application a { process X; process X; }").unwrap_err();
        assert_eq!(e.code, "P006");
        assert!(e.message.contains("twice"), "{e}");
    }

    #[test]
    fn error_spans_point_into_the_source() {
        let e = parse_source("application a {\n  process X;\n  bogus\n}").unwrap_err();
        assert_eq!(e.span.unwrap().line, 3, "{e}");
    }

    #[test]
    fn int_out_of_range_is_spanned_not_truncated() {
        // 2^32 + 1 used to truncate to package_size 1; now a P003.
        let src = "application a { process X initial; process Y final;
                    flow X -> Y { items 36; order 1; ticks 1; } }
                   platform p { package_size 4294967297;
                                segment S { freq_mhz 100; hosts X Y; } }";
        let e = parse_source(src).unwrap_err();
        assert_eq!(e.code, "P003");
        assert_eq!(e.span.unwrap().line, 3);
        assert!(e.message.contains("package_size"), "{e}");

        let e = parse_source("application a { cost per_item reference 4294967297; }").unwrap_err();
        assert_eq!(e.code, "P003");

        let e = parse_source("application a { cost affine base 1 reference 99999999999; }")
            .unwrap_err();
        assert_eq!(e.code, "P003");

        let e = parse_source(
            "application a { process X initial; process Y final;
              flow X -> Y { items 1; order 4294967297; ticks 1; } }",
        )
        .unwrap_err();
        assert_eq!(e.code, "P003");
    }

    #[test]
    fn stochastic_annotations_parse() {
        let src = "application a { process X initial; process Y final;
            flow X -> Y { items 360; order 1; ticks 100;
                items_dist uniform 300 400;
                ticks_dist normal 100 15 60 140;
                jitter choice 0 3 10 1; } }
           platform p { segment S { freq_mhz 100; hosts X Y; } }";
        let psm = crate::parse_system(src).unwrap();
        let app = psm.application();
        assert!(app.is_stochastic());
        let n = app.flow_noise(segbus_model::ids::FlowId(0)).unwrap();
        assert_eq!(n.items, Some(Dist::Uniform { lo: 300, hi: 400 }));
        assert_eq!(
            n.ticks,
            Some(Dist::Normal {
                mean: 100,
                std: 15,
                lo: 60,
                hi: 140
            })
        );
        assert_eq!(n.jitter, Some(Dist::Choice(vec![(0, 3), (10, 1)])));
        // The base values still parse: the model is usable deterministically.
        assert_eq!(app.flows()[0].items, 360);
    }

    #[test]
    fn invalid_distributions_are_p007() {
        let flow = |props: &str| {
            format!(
                "application a {{ process X initial; process Y final;
                  flow X -> Y {{ items 36; order 1; ticks 10; {props} }} }}"
            )
        };
        let e = parse_source(&flow("ticks_dist uniform 5 4;")).unwrap_err();
        assert_eq!(e.code, "P007");
        assert!(e.message.contains("inverted"), "{e}");
        let e = parse_source(&flow("jitter choice;")).unwrap_err();
        assert_eq!(e.code, "P007");
        // An items distribution must not be able to produce an empty flow.
        let e = parse_source(&flow("items_dist uniform 0 9;")).unwrap_err();
        assert_eq!(e.code, "P007");
        assert_eq!(e.span.unwrap().line, 2, "span points at the annotation");
        // Unknown distribution kinds are plain syntax errors.
        let e = parse_source(&flow("ticks_dist poisson 4;")).unwrap_err();
        assert_eq!(e.code, "P002");
        // An odd choice list is a syntax error at the missing weight.
        let e = parse_source(&flow("jitter choice 1 2 3;")).unwrap_err();
        assert_eq!(e.code, "P002");
    }

    #[test]
    fn empty_source_has_no_system() {
        let e = parse_source("").unwrap().into_psm().unwrap_err();
        assert_eq!(e.code, "P004");
        assert!(e.message.contains("no application"), "{e}");
    }

    #[test]
    fn garbage_top_level_rejected() {
        assert!(parse_source("banana {}").is_err());
    }

    /// The parser pulls tokens one at a time, yet a lexical error later
    /// in the text still wins over a syntax error before it.
    #[test]
    fn a_later_lexical_error_wins_over_an_earlier_syntax_error() {
        let src = "application a { bogus; }\nplatform p { }\n/* never closed";
        let e = parse_source(src).unwrap_err();
        assert_eq!(e.code, "P001", "{e}");
        assert_eq!(e.message, "unterminated block comment");
        assert_eq!(e.span, Some(Span { line: 3, col: 1 }));
        assert_eq!(Some(e), Lexer::new(src).tokenize().err());
        // A name error (P005) yields to a lexical error after it as well.
        let e = parse_source("application a { flow X -> Y { } } @").unwrap_err();
        assert_eq!((e.code, e.span), ("P001", Some(Span { line: 1, col: 35 })));
        // Without a lexical error the syntax error stands.
        let e = parse_source("application a { bogus; }\n/* closed */").unwrap_err();
        assert_eq!((e.code, e.span), ("P002", Some(Span { line: 1, col: 17 })));
    }
}
