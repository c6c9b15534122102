//! A small blocking protocol client.
//!
//! Used by the `century-serve --request` mode, the test batteries and
//! the verify smoke: connect, send one request frame, collect response
//! frames until the terminal `result`/`error` frame. The client is
//! intentionally thin — it parses just enough of each response to
//! classify it, and hands the raw payloads back so tests can assert on
//! exact wire shapes.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use crate::frame::{self, FrameError, ReadFrame, DEFAULT_MAX_FRAME};
use crate::json::{parse_object, Object};

/// One response frame, classified by its `"type"` field.
#[derive(Debug)]
pub enum Response {
    /// The terminal `{"type":"result",...}` frame.
    Result(Object),
    /// A terminal `{"type":"error",...}` frame.
    Error {
        /// The typed wire code ([`crate::ServeError::code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// A streamed non-terminal frame (`body`, `sweep_arm`).
    Stream(Object),
}

/// Why a client call failed at the transport or protocol layer (as
/// opposed to an in-band [`Response::Error`]).
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failure.
    Io(std::io::Error),
    /// The server's frame could not be decoded.
    Frame(FrameError),
    /// The server sent a frame the client cannot classify.
    Protocol(String),
    /// The connection closed before a terminal frame.
    Disconnected,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o failed: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Disconnected => write!(f, "server closed before a terminal frame"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client. Responses are read through a buffer, so a
/// streamed body costs a few large reads rather than two per frame.
pub struct Client {
    stream: BufReader<TcpStream>,
    max_frame: usize,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4300`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        // A generous dead-peer guard: the protocol answers everything
        // with a frame, so a long silent gap means the daemon is gone.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
        // A request is one write; send it now rather than after the
        // previous response's delayed ACK.
        let _ = stream.set_nodelay(true);
        Ok(Client { stream: BufReader::new(stream), max_frame: DEFAULT_MAX_FRAME })
    }

    /// Sends one raw request payload (a JSON object line).
    ///
    /// # Errors
    ///
    /// [`ClientError::Frame`] if the write fails.
    pub fn send(&mut self, payload: &str) -> Result<(), ClientError> {
        frame::write_frame(self.stream.get_mut(), payload).map_err(ClientError::Frame)
    }

    /// Reads one response frame's raw payload (the binary's `--request`
    /// mode prints these verbatim, one per line).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or undecodable frames.
    pub fn read_raw(&mut self) -> Result<String, ClientError> {
        loop {
            match frame::read_frame(&mut self.stream, self.max_frame) {
                Ok(ReadFrame::Idle) => continue,
                Ok(ReadFrame::Closed) => return Err(ClientError::Disconnected),
                Ok(ReadFrame::Frame(payload)) => return Ok(payload),
                Err(e) => return Err(ClientError::Frame(e)),
            }
        }
    }

    /// Reads one response frame.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, undecodable frames, or
    /// frames without a recognizable `"type"`.
    pub fn read(&mut self) -> Result<Response, ClientError> {
        let payload = self.read_raw()?;
        classify(&payload)
    }

    /// Sends `payload` and collects frames until the terminal one.
    /// Returns `(streamed, terminal)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] if the transport fails before a terminal frame.
    pub fn call(&mut self, payload: &str) -> Result<(Vec<Object>, Response), ClientError> {
        self.send(payload)?;
        let mut streamed = Vec::new();
        loop {
            match self.read()? {
                Response::Stream(obj) => streamed.push(obj),
                terminal => return Ok((streamed, terminal)),
            }
        }
    }
}

/// Classifies one raw response payload by its `"type"` field.
///
/// # Errors
///
/// [`ClientError::Protocol`] for unparseable or untyped frames.
pub fn classify(payload: &str) -> Result<Response, ClientError> {
    let obj = parse_object(payload)
        .map_err(|e| ClientError::Protocol(format!("unparseable frame: {e}")))?;
    match obj.str_field("type") {
        Some("result") => Ok(Response::Result(obj)),
        Some("error") => Ok(Response::Error {
            code: obj.str_field("code").unwrap_or("unknown").to_string(),
            message: obj.str_field("message").unwrap_or("").to_string(),
        }),
        Some("body" | "sweep_arm") => Ok(Response::Stream(obj)),
        other => Err(ClientError::Protocol(format!("unknown frame type {other:?}"))),
    }
}
