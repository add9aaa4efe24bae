//! Push-based newline-delimited decoding with a hard per-line byte cap.
//!
//! The serve core feeds raw socket bytes into a [`LineDecoder`] and
//! drains complete lines out of it. Over-limit lines are *discarded as
//! they stream in* (never accumulated), so a client sending an endless
//! line costs one fixed buffer, not memory proportional to the line.
//! The decoder is transport-agnostic — it never touches a socket — which
//! is what lets a single-threaded IO shard interleave partial reads from
//! hundreds of connections, and what makes slow-loris framing (bytes
//! trickled across line boundaries) a pure unit-test concern.
//!
//! The one platform-dependent question at this layer — "was that read
//! error a timeout or a disconnect?" — is answered in exactly one place,
//! [`is_idle_read_error`]: a timed-out or not-ready nonblocking read
//! surfaces as `WouldBlock` on some platforms and `TimedOut` on others,
//! and both (plus `Interrupted`) mean "try again later", never
//! "disconnect".

use std::collections::VecDeque;
use std::io::ErrorKind;

/// One decoded item from the byte stream.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodedLine {
    /// A complete line (terminator stripped, trailing `\r` removed).
    Line(String),
    /// A line exceeded the byte cap and was discarded up to its newline.
    Overflow,
}

/// `true` when a socket-read error means "no data right now" rather than
/// "the peer is gone": `WouldBlock` (nonblocking reads, and timed-out
/// reads on Unix), `TimedOut` (timed-out reads on Windows) and
/// `Interrupted` (signal). Every other error kind is a disconnect.
pub fn is_idle_read_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// Incremental newline-delimited decoder with a hard per-line byte cap.
///
/// Feed byte chunks of any size with [`feed`](LineDecoder::feed), drain
/// results with [`pop`](LineDecoder::pop), and flush the final
/// unterminated line (if any) with [`finish`](LineDecoder::finish) at
/// end of stream.
pub struct LineDecoder {
    /// Bytes of the current, still-unterminated line.
    partial: Vec<u8>,
    /// Decoded items not yet drained by the caller.
    ready: VecDeque<DecodedLine>,
    max_line_bytes: usize,
    /// Inside an over-limit line: drop bytes until the next newline.
    discarding: bool,
}

impl LineDecoder {
    /// A decoder accepting lines of at most `max_line_bytes` bytes
    /// (clamped to ≥ 1).
    pub fn new(max_line_bytes: usize) -> LineDecoder {
        LineDecoder {
            partial: Vec::new(),
            ready: VecDeque::new(),
            max_line_bytes: max_line_bytes.max(1),
            discarding: false,
        }
    }

    /// Absorb one chunk of stream bytes; complete lines become drainable
    /// through [`pop`](LineDecoder::pop).
    pub fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.discarding {
                // Resynchronise at the next newline without buffering.
                match bytes.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        self.discarding = false;
                        self.ready.push_back(DecodedLine::Overflow);
                        bytes = &bytes[i + 1..];
                    }
                    None => return,
                }
                continue;
            }
            match bytes.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if self.partial.len() + i > self.max_line_bytes {
                        self.reset_partial();
                        self.ready.push_back(DecodedLine::Overflow);
                    } else {
                        let mut line = std::mem::take(&mut self.partial);
                        line.extend_from_slice(&bytes[..i]);
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        self.ready.push_back(DecodedLine::Line(
                            String::from_utf8_lossy(&line).into_owned(),
                        ));
                    }
                    bytes = &bytes[i + 1..];
                }
                None => {
                    if self.partial.len() + bytes.len() > self.max_line_bytes {
                        self.reset_partial();
                        self.discarding = true;
                    } else {
                        self.partial.extend_from_slice(bytes);
                    }
                    return;
                }
            }
        }
    }

    /// The next decoded item, if one is complete.
    pub fn pop(&mut self) -> Option<DecodedLine> {
        self.ready.pop_front()
    }

    /// End of stream: the final unterminated line (or the overflow marker
    /// of a line still being discarded), if any.
    pub fn finish(&mut self) -> Option<DecodedLine> {
        if self.discarding {
            self.discarding = false;
            return Some(DecodedLine::Overflow);
        }
        if self.partial.is_empty() {
            return None;
        }
        let line = std::mem::take(&mut self.partial);
        Some(DecodedLine::Line(
            String::from_utf8_lossy(&line).into_owned(),
        ))
    }

    fn reset_partial(&mut self) {
        self.partial.clear();
        self.partial.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(d: &mut LineDecoder) -> Vec<DecodedLine> {
        std::iter::from_fn(|| d.pop()).collect()
    }

    #[test]
    fn whole_lines_decode() {
        let mut d = LineDecoder::new(64);
        d.feed(b"alpha\nbeta\r\n");
        assert_eq!(
            lines(&mut d),
            vec![
                DecodedLine::Line("alpha".into()),
                DecodedLine::Line("beta".into())
            ]
        );
        assert_eq!(d.finish(), None);
    }

    /// Slow-loris framing: bytes trickle in one at a time, across line
    /// boundaries, and the decoder still yields exactly the sent lines.
    #[test]
    fn single_byte_trickle_reassembles_lines() {
        let mut d = LineDecoder::new(64);
        let stream = b"first line\nsecond\nthird";
        let mut got = Vec::new();
        for &b in stream.iter() {
            d.feed(&[b]);
            got.extend(lines(&mut d));
        }
        got.extend(d.finish());
        assert_eq!(
            got,
            vec![
                DecodedLine::Line("first line".into()),
                DecodedLine::Line("second".into()),
                DecodedLine::Line("third".into())
            ]
        );
    }

    #[test]
    fn over_limit_lines_discard_without_buffering() {
        let mut d = LineDecoder::new(8);
        // 32 bytes, fed in 5-byte chunks: discarded as they stream.
        let long = [b'x'; 32];
        for chunk in long.chunks(5) {
            d.feed(chunk);
        }
        d.feed(b"\nok\n");
        assert_eq!(
            lines(&mut d),
            vec![DecodedLine::Overflow, DecodedLine::Line("ok".into())]
        );
        // An over-limit line cut off by EOF still reports the overflow.
        let mut d = LineDecoder::new(4);
        d.feed(b"toolongtail");
        assert_eq!(d.pop(), None);
        assert_eq!(d.finish(), Some(DecodedLine::Overflow));
    }

    #[test]
    fn two_overflows_in_one_chunk_both_surface() {
        let mut d = LineDecoder::new(4);
        d.feed(b"xxxxxxxx\nyyyyyyyy\nok\n");
        assert_eq!(
            lines(&mut d),
            vec![
                DecodedLine::Overflow,
                DecodedLine::Overflow,
                DecodedLine::Line("ok".into())
            ]
        );
    }

    #[test]
    fn exact_cap_line_is_accepted() {
        let mut d = LineDecoder::new(4);
        d.feed(b"abcd\nabcde\n");
        assert_eq!(
            lines(&mut d),
            vec![DecodedLine::Line("abcd".into()), DecodedLine::Overflow]
        );
    }

    #[test]
    fn idle_read_errors_are_classified() {
        for kind in [
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::Interrupted,
        ] {
            assert!(is_idle_read_error(&std::io::Error::from(kind)), "{kind:?}");
        }
        for kind in [
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(!is_idle_read_error(&std::io::Error::from(kind)), "{kind:?}");
        }
    }
}
