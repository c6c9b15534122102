//! Length-prefixed JSONL framing for the serve protocol.
//!
//! Every message on the wire — request or response — is one *frame*: a
//! 4-byte big-endian payload length followed by exactly that many bytes
//! of UTF-8, which by convention hold a single-line JSON object (the
//! repo's serde-free JSONL dialect, `telemetry::jsonl`). Length prefixes
//! make the stream self-synchronizing for well-behaved peers and make
//! hostile input *cheap to refuse*: a frame longer than the negotiated
//! cap is rejected before a single payload byte is buffered, and a
//! truncated stream is a typed [`FrameError`], never a hang on a
//! half-read length.
//!
//! The decoder has two entry points:
//!
//! * [`decode`] — a pure, incremental function over a byte slice, the
//!   unit the adversarial proptests grind on (`tests/properties.rs`): it
//!   must never panic, never over-read, and never consume bytes without
//!   producing a frame or an error.
//! * [`read_frame`]/[`write_frame`]/[`push_frame`] — blocking I/O
//!   wrappers used by the daemon and client, built on the same
//!   validation.

use std::io::{self, BufWriter, Read, Write};

/// Hard ceiling no configuration can raise: 64 MiB. Guards the daemon
/// against a hostile 4 GiB length prefix even if an operator configures
/// a generous per-connection cap.
pub const ABSOLUTE_MAX_FRAME: usize = 64 << 20;

/// Default per-connection frame cap: 1 MiB. Requests are small JSON
/// objects; response bodies are streamed line-by-line, so nothing
/// legitimate approaches this.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be decoded. Every variant is a protocol-level
/// fact the server reports as a typed error frame — decoding never
/// panics and never silently resynchronizes.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the connection's cap.
    Oversized {
        /// Length the peer declared.
        declared: usize,
        /// Cap it exceeded.
        max: usize,
    },
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The payload is not valid UTF-8.
    BadUtf8,
    /// Underlying socket/file error.
    Io(io::Error),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadUtf8 => write!(f, "frame payload is not valid UTF-8"),
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One step of incremental decoding over `buf`.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// Not enough bytes yet; no bytes consumed.
    NeedMore,
    /// One complete frame: the payload string and the total bytes
    /// consumed from the front of `buf` (header + payload).
    Frame {
        /// The UTF-8 payload.
        payload: String,
        /// Header + payload bytes consumed.
        consumed: usize,
    },
}

/// Decodes one frame from the front of `buf` without consuming input on
/// a short read. `max` is clamped to [`ABSOLUTE_MAX_FRAME`].
///
/// # Errors
///
/// [`FrameError::Oversized`] as soon as the 4-byte header declares a
/// payload over the cap (before any payload arrives), and
/// [`FrameError::BadUtf8`] for a complete but non-UTF-8 payload.
pub fn decode(buf: &[u8], max: usize) -> Result<Decoded, FrameError> {
    let max = max.min(ABSOLUTE_MAX_FRAME);
    if buf.len() < 4 {
        return Ok(Decoded::NeedMore);
    }
    let declared = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if declared > max {
        return Err(FrameError::Oversized { declared, max });
    }
    let Some(payload) = buf.get(4..4 + declared) else {
        return Ok(Decoded::NeedMore);
    };
    match core::str::from_utf8(payload) {
        Ok(s) => Ok(Decoded::Frame { payload: s.to_string(), consumed: 4 + declared }),
        Err(_) => Err(FrameError::BadUtf8),
    }
}

/// Encodes `payload` as one frame (header + bytes). The inverse of
/// [`decode`] for payloads under the cap.
pub fn encode(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(4 + bytes.len());
    // Payloads are produced by this crate and bounded well below u32::MAX;
    // saturate rather than wrap if that invariant is ever violated.
    let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// [`FrameError::Io`] if the peer has gone away or the write fails.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), FrameError> {
    w.write_all(&encode(payload)).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// Appends one frame to `w` without flushing.
///
/// Bytes are split at the buffer boundary: the buffer is always filled
/// to capacity before it is written out, so a run of frames reaches the
/// inner writer in full-capacity chunks — at most
/// ⌈bytes / capacity⌉ + 1 writes however the frames fall, where
/// appending whole frames would strand up to one frame's worth of
/// spare capacity per write.
///
/// # Errors
///
/// [`FrameError::Io`] if a write-out of the full buffer fails.
pub fn push_frame<W: Write>(w: &mut BufWriter<W>, payload: &str) -> Result<(), FrameError> {
    let bytes = encode(payload);
    // `head` fits exactly, so it never triggers a write; `tail`, if any,
    // finds the buffer full and writes it out (or, when it is itself at
    // least a buffer long, goes straight through).
    let room = w.capacity() - w.buffer().len();
    let (head, tail) = bytes.split_at(room.min(bytes.len()));
    w.write_all(head).and_then(|()| w.write_all(tail)).map_err(FrameError::Io)
}

/// Outcome of one blocking frame read.
pub enum ReadFrame {
    /// A complete frame arrived.
    Frame(String),
    /// The peer closed the stream cleanly on a frame boundary.
    Closed,
    /// The read timed out before a *new* frame's first byte arrived
    /// (only with a read timeout set on the stream); no bytes were lost.
    Idle,
}

/// Reads exactly one frame from `r`, blocking.
///
/// A clean EOF *between* frames is [`ReadFrame::Closed`]; EOF inside a
/// frame is [`FrameError::Truncated`]. A timeout before the first header
/// byte is [`ReadFrame::Idle`] (so accept loops can poll a shutdown
/// flag); a timeout mid-frame is an error — a half-sent frame means the
/// peer stalled, not idled.
///
/// # Errors
///
/// [`FrameError`] on oversize, truncation, UTF-8 or I/O failure.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<ReadFrame, FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header) {
        Fill::Full => {}
        Fill::Empty => return Ok(ReadFrame::Closed),
        Fill::TimedOutEmpty => return Ok(ReadFrame::Idle),
        Fill::Partial => return Err(FrameError::Truncated),
        Fill::Err(e) => return Err(FrameError::Io(e)),
    }
    let declared = u32::from_be_bytes(header) as usize;
    let max = max.min(ABSOLUTE_MAX_FRAME);
    if declared > max {
        return Err(FrameError::Oversized { declared, max });
    }
    let mut payload = vec![0u8; declared];
    match read_exact_or_eof(r, &mut payload) {
        Fill::Full => {}
        Fill::Empty | Fill::Partial | Fill::TimedOutEmpty => return Err(FrameError::Truncated),
        Fill::Err(e) => return Err(FrameError::Io(e)),
    }
    match String::from_utf8(payload) {
        Ok(s) => Ok(ReadFrame::Frame(s)),
        Err(_) => Err(FrameError::BadUtf8),
    }
}

enum Fill {
    Full,
    /// EOF before the first byte.
    Empty,
    /// Timeout before the first byte.
    TimedOutEmpty,
    /// EOF after some bytes.
    Partial,
    Err(io::Error),
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Fill {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return if filled == 0 { Fill::Empty } else { Fill::Partial },
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut) =>
            {
                return Fill::TimedOutEmpty;
            }
            Err(e) => return Fill::Err(e),
        }
    }
    Fill::Full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = encode("{\"op\":\"ping\"}");
        match decode(&frame, DEFAULT_MAX_FRAME) {
            Ok(Decoded::Frame { payload, consumed }) => {
                assert_eq!(payload, "{\"op\":\"ping\"}");
                assert_eq!(consumed, frame.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn short_reads_ask_for_more() {
        let frame = encode("{\"op\":\"ping\"}");
        for cut in 0..frame.len() {
            assert_eq!(
                decode(&frame[..cut], DEFAULT_MAX_FRAME).map_err(|_| ()),
                Ok(Decoded::NeedMore),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_payload() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.push(0);
        assert!(matches!(
            decode(&buf, DEFAULT_MAX_FRAME),
            Err(FrameError::Oversized { declared, .. }) if declared == u32::MAX as usize
        ));
        // The cap never exceeds the absolute ceiling.
        assert!(matches!(
            decode(&buf, usize::MAX),
            Err(FrameError::Oversized { max, .. }) if max == ABSOLUTE_MAX_FRAME
        ));
    }

    #[test]
    fn non_utf8_payload_is_refused() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(decode(&buf, DEFAULT_MAX_FRAME), Err(FrameError::BadUtf8)));
    }

    #[test]
    fn blocking_reader_sees_close_on_boundary_and_truncation_inside() {
        let mut ok = encode("{}");
        ok.extend_from_slice(&encode("{\"a\":1}")[..3]); // second frame cut mid-header
        let mut cursor = std::io::Cursor::new(ok);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Ok(ReadFrame::Frame(p)) if p == "{}"
        ));
        assert!(matches!(read_frame(&mut cursor, DEFAULT_MAX_FRAME), Err(FrameError::Truncated)));
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty, DEFAULT_MAX_FRAME), Ok(ReadFrame::Closed)));
    }

    #[test]
    fn pushed_frames_leave_in_full_buffers() {
        /// Records the size of every write that reaches it.
        #[derive(Default)]
        struct Sizes(Vec<usize>, Vec<u8>);
        impl Write for Sizes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        const CAP: usize = 64;
        // Frames smaller than, near, and larger than the buffer.
        let payloads: Vec<String> =
            [5, 59, 60, 61, 0, 200, 13, 64, 127, 7].iter().map(|&n| "x".repeat(n)).collect();
        let mut w = BufWriter::with_capacity(CAP, Sizes::default());
        for p in &payloads {
            push_frame(&mut w, p).unwrap();
        }
        w.flush().unwrap();
        let Sizes(sizes, bytes) = w.into_inner().map_err(|_| ()).unwrap();
        let expected: Vec<u8> = payloads.iter().flat_map(|p| encode(p)).collect();
        assert_eq!(bytes, expected, "bytes are neither lost nor reordered");
        let (last, full) = sizes.split_last().unwrap();
        assert!(full.iter().all(|&n| n >= CAP), "a write before the last was short: {sizes:?}");
        assert!(*last > 0);
        assert!(sizes.len() <= bytes.len().div_ceil(CAP) + 1, "{sizes:?}");
    }
}
