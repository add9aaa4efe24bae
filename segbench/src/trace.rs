//! Spans recorded from the benchmark's side of each layer call.
//!
//! A span is a name, a start and an end (nanoseconds since the tracer was
//! created), the span that caused it and the request it belongs to. Spans
//! are kept in memory and written out once, after the traced replay. A
//! disabled tracer records nothing and only runs the closures, so the
//! untraced and traced runs execute the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `dsl.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request (operation) the span belongs to.
    pub request: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the timed closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tag the spans opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close the span `enter` returned.
    pub fn exit(&mut self, idx: Option<u32>) {
        if let Some(i) = idx {
            let end = self.now();
            self.spans[i as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close in LIFO order");
        }
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let g = self.enter(name);
        let r = f();
        self.exit(g);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children may overlap one another or run past
/// their parent's end; each covered nanosecond is subtracted once and
/// only within the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total - covered.min(total)
        })
        .collect()
}

/// Σ self nanoseconds per span name.
pub(crate) fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Write the spans as JSON: a header object whose `spans` member holds
/// one `[name, start_ns, end_ns, parent, request]` array per span, in
/// recording order (`parent` is an index into that list, or `null`).
pub(crate) fn write_spans(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> io::Result<()> {
    let mut out = String::with_capacity(48 * spans.len() + 128);
    let _ = writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "[\"{}\", {}, {}, {parent}, {}]{sep}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
