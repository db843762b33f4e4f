//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! Deliberately minimal — the service speaks a small, fixed dialect
//! (JSON bodies, `Content-Length` framing, persistent connections) and
//! the container has no HTTP crate to lean on. The parser enforces hard
//! limits on header and body sizes so a misbehaving client cannot balloon
//! a connection's memory.
//!
//! The core is the *incremental* [`Parser`]: feed it whatever bytes the
//! socket produced and it consumes exactly up to the end of one complete
//! request, carrying partial state (a request line split mid-word, a body
//! split mid-`Content-Length`) across calls. The reactor pushes its
//! nonblocking read chunks straight into it.

use std::io::{self, Write};

/// Maximum accepted request-line/header-line length, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted body size, bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not a well-formed request.
    Malformed(String),
    /// The request body exceeds [`MAX_BODY`] ("413 Payload Too Large").
    TooLarge(String),
    /// The request line or header section exceeds a parser limit
    /// ("431 Request Header Fields Too Large").
    HeadersTooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::HeadersTooLarge(m) => write!(f, "request headers too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path (`/decide`), query string stripped.
    pub path: String,
    /// Header name/value pairs in wire order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub close: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Where an incremental parse currently stands — used to classify an EOF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePhase {
    /// Between requests: no byte of the next request has arrived. EOF here
    /// is the clean end of a keep-alive session.
    Idle,
    /// Mid request-line or mid-headers. EOF here is a malformed request.
    Head,
    /// Mid body (`Content-Length` bytes still owed). EOF here is a
    /// truncated transfer.
    Body,
}

/// Header-section fields accumulated before the body arrives.
#[derive(Debug, Default)]
struct Head {
    method: String,
    target: String,
    version: String,
    headers: Vec<(String, String)>,
}

#[derive(Debug)]
enum State {
    /// Accumulating the request line.
    Line(Vec<u8>),
    /// Accumulating header lines; the partial current line rides along.
    Headers(Head, Vec<u8>),
    /// Accumulating exactly `remaining` more body bytes.
    Body(Head, Vec<u8>, usize),
}

/// Incremental HTTP/1.1 request parser.
///
/// [`Parser::push`] consumes bytes from the front of the input and stops
/// at the end of the first complete request, returning how much it took —
/// the caller re-pushes the remainder (pipelined follow-up requests) on
/// its next iteration. All partial state lives inside the parser, so reads
/// may split the stream anywhere: mid request-line, between header bytes,
/// or in the middle of a counted body.
///
/// After an error the parser is poisoned; the owning connection is
/// expected to answer with the matching status and tear down.
#[derive(Debug)]
pub struct Parser {
    state: State,
}

impl Default for Parser {
    fn default() -> Self {
        Self::new()
    }
}

impl Parser {
    /// A parser at the boundary between requests.
    pub fn new() -> Self {
        Parser {
            state: State::Line(Vec::new()),
        }
    }

    /// Which phase the parser is in — classifies an EOF from the peer.
    pub fn phase(&self) -> ParsePhase {
        match &self.state {
            State::Line(buf) if buf.is_empty() => ParsePhase::Idle,
            State::Line(_) | State::Headers(..) => ParsePhase::Head,
            State::Body(..) => ParsePhase::Body,
        }
    }

    /// Feed `data`; returns `(consumed, request)`. Consumption stops at
    /// the end of the first complete request so pipelined successors stay
    /// in the caller's buffer. Always consumes at least one byte when
    /// `data` is non-empty and no request completes.
    pub fn push(&mut self, data: &[u8]) -> Result<(usize, Option<Request>), HttpError> {
        let mut used = 0;
        while used < data.len() {
            match &mut self.state {
                State::Line(line) => {
                    match take_line(line, &data[used..])? {
                        LineStep::Partial(n) => used += n,
                        LineStep::Complete(n) => {
                            used += n;
                            let text = finish_line(line)?;
                            let head = parse_request_line(&text)?;
                            self.state = State::Headers(head, Vec::new());
                        }
                    };
                }
                State::Headers(head, line) => {
                    match take_line(line, &data[used..])? {
                        LineStep::Partial(n) => used += n,
                        LineStep::Complete(n) => {
                            used += n;
                            let text = finish_line(line)?;
                            if text.is_empty() {
                                // End of headers: frame the body.
                                let remaining = content_length(head)?;
                                let head = std::mem::take(head);
                                if remaining == 0 {
                                    self.state = State::Line(Vec::new());
                                    return Ok((used, Some(build_request(head, Vec::new()))));
                                }
                                self.state =
                                    State::Body(head, Vec::with_capacity(remaining), remaining);
                            } else {
                                if head.headers.len() >= MAX_HEADERS {
                                    return Err(HttpError::HeadersTooLarge(format!(
                                        "more than {MAX_HEADERS} headers"
                                    )));
                                }
                                let (name, value) = text.split_once(':').ok_or_else(|| {
                                    HttpError::Malformed(format!("bad header line {text:?}"))
                                })?;
                                head.headers.push((
                                    name.trim().to_ascii_lowercase(),
                                    value.trim().to_owned(),
                                ));
                            }
                        }
                    };
                }
                State::Body(head, body, remaining) => {
                    let take = (data.len() - used).min(*remaining);
                    body.extend_from_slice(&data[used..used + take]);
                    used += take;
                    *remaining -= take;
                    if *remaining == 0 {
                        let head = std::mem::take(head);
                        let body = std::mem::take(body);
                        self.state = State::Line(Vec::new());
                        return Ok((used, Some(build_request(head, body))));
                    }
                }
            }
        }
        Ok((used, None))
    }
}

enum LineStep {
    /// All input consumed, newline not yet seen.
    Partial(usize),
    /// Consumed through a newline; `line` holds the full line (no `\n`).
    Complete(usize),
}

/// Append input to `line` up to and including the first `\n`, enforcing
/// [`MAX_LINE`] even when no newline has arrived yet.
fn take_line(line: &mut Vec<u8>, data: &[u8]) -> Result<LineStep, HttpError> {
    let (chunk, step) = match data.iter().position(|&b| b == b'\n') {
        Some(pos) => (&data[..pos], LineStep::Complete(pos + 1)),
        None => (data, LineStep::Partial(data.len())),
    };
    if line.len() + chunk.len() > MAX_LINE {
        return Err(HttpError::HeadersTooLarge(format!(
            "line exceeds {MAX_LINE} bytes"
        )));
    }
    line.extend_from_slice(chunk);
    Ok(step)
}

/// Terminate a completed line: strip the optional `\r`, decode UTF-8, and
/// reset the accumulator for the next line.
fn finish_line(line: &mut Vec<u8>) -> Result<String, HttpError> {
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(std::mem::take(line))
        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))
}

fn parse_request_line(text: &str) -> Result<Head, HttpError> {
    let mut parts = text.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_owned(), t.to_owned(), v.to_owned()),
        _ => return Err(HttpError::Malformed(format!("bad request line {text:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    Ok(Head {
        method,
        target,
        version,
        headers: Vec::new(),
    })
}

/// The body length the head frames: its `content-length`, or 0 without
/// one. A head that two readers could frame two ways is malformed (RFC
/// 9112 §6.3): any `transfer-encoding` (no chunked body is read here),
/// `content-length` values that differ, or a value that is not all ASCII
/// digits (`usize`'s parse would take a leading `+`). Identical repeats
/// frame one body and stay accepted.
fn content_length(head: &Head) -> Result<usize, HttpError> {
    if head.headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; frame the body with content-length".into(),
        ));
    }
    let mut value: Option<&str> = None;
    for (_, v) in head.headers.iter().filter(|(k, _)| k == "content-length") {
        match value {
            Some(first) if first != v => {
                return Err(HttpError::Malformed(format!(
                    "conflicting content-length values {first:?} and {v:?}"
                )))
            }
            _ => value = Some(v),
        }
    }
    let length = match value {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if length > MAX_BODY {
        return Err(HttpError::TooLarge(format!(
            "body of {length} bytes exceeds {MAX_BODY}"
        )));
    }
    Ok(length)
}

fn build_request(head: Head, body: Vec<u8>) -> Request {
    let connection = head
        .headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => head.version == "HTTP/1.0",
    };
    let path = head.target.split('?').next().unwrap_or("").to_owned();
    Request {
        method: head.method,
        path,
        headers: head.headers,
        body,
        close,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Write one JSON response, framing the body with `Content-Length`.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drive one parser over `chunks` the way a connection does: re-push
    /// each chunk's unconsumed tail until it is used up, collecting every
    /// completed request in order.
    fn feed<'a>(
        parser: &mut Parser,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Vec<Request>, HttpError> {
        let mut requests = Vec::new();
        for chunk in chunks {
            let mut offset = 0;
            while offset < chunk.len() {
                let (used, request) = parser.push(&chunk[offset..])?;
                offset += used;
                requests.extend(request);
            }
        }
        Ok(requests)
    }

    /// Every request in `wire`, pushed as one buffer.
    fn parse(wire: &[u8]) -> Result<Vec<Request>, HttpError> {
        feed(&mut Parser::new(), [wire])
    }

    /// The single request in `wire`.
    fn parse_one(wire: &[u8]) -> Request {
        let mut requests = parse(wire).unwrap();
        assert_eq!(requests.len(), 1, "expected exactly one request");
        requests.remove(0)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_one(b"POST /decide HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/decide");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn strips_query_string() {
        let req = parse_one(b"GET /scenarios?limit=3 HTTP/1.1\r\n\r\n");
        assert_eq!(req.path, "/scenarios");
    }

    #[test]
    fn empty_input_yields_nothing_and_stays_idle() {
        let mut parser = Parser::new();
        assert_eq!(parser.push(b"").unwrap(), (0, None));
        assert_eq!(parser.phase(), ParsePhase::Idle);
    }

    #[test]
    fn connection_close_honored() {
        let req = parse_one(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.close);
        let old = parse_one(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(old.close, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn bad_request_line_rejected() {
        assert!(matches!(
            parse(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    /// Two different `content-length` values are refused, not framed by
    /// the first: the bytes past a 2-byte body must not parse as a second,
    /// pipelined request. An identical repeat frames one body.
    #[test]
    fn conflicting_content_lengths_rejected() {
        let wire = b"POST /decide HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 30\r\n\r\n\
                     {}GET /healthz HTTP/1.1\r\n\r\n";
        assert!(matches!(parse(wire), Err(HttpError::Malformed(m)) if m.contains("conflicting")));
        let req =
            parse_one(b"POST /decide HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\n{}");
        assert_eq!(req.body, b"{}");
    }

    /// A `content-length` that is not all ASCII digits is refused, a
    /// leading `+` included.
    #[test]
    fn non_digit_content_length_rejected() {
        for value in ["+2", "-2", "2 2", "0x2", ""] {
            let wire = format!("POST /decide HTTP/1.1\r\ncontent-length: {value}\r\n\r\n{{}}");
            assert!(
                matches!(parse(wire.as_bytes()), Err(HttpError::Malformed(m)) if m.contains("bad content-length")),
                "{value:?}"
            );
        }
    }

    /// Any `transfer-encoding` is refused: its chunk lines must not parse
    /// as the next request after an empty body.
    #[test]
    fn transfer_encoding_rejected() {
        for extra in ["", "content-length: 2\r\n"] {
            let wire = format!(
                "POST /decide HTTP/1.1\r\ntransfer-encoding: chunked\r\n{extra}\r\n\
                 2\r\n{{}}\r\n0\r\n\r\n"
            );
            assert!(
                matches!(parse(wire.as_bytes()), Err(HttpError::Malformed(m)) if m.contains("transfer-encoding")),
                "{extra:?}"
            );
        }
    }

    #[test]
    fn oversized_body_rejected() {
        let text = format!(
            "POST /decide HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(text.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn oversized_header_line_is_431() {
        let text = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "y".repeat(MAX_LINE));
        assert!(matches!(
            parse(text.as_bytes()),
            Err(HttpError::HeadersTooLarge(_))
        ));
    }

    #[test]
    fn oversized_header_line_detected_before_newline() {
        // The overlong line never terminates; the parser must still bail
        // rather than buffer without bound.
        let mut parser = Parser::new();
        parser.push(b"GET / HTTP/1.1\r\n").unwrap();
        let err = parser.push(&vec![b'a'; MAX_LINE + 1]).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut text = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            text.push_str(&format!("x-h{i}: v\r\n"));
        }
        text.push_str("\r\n");
        assert!(matches!(
            parse(text.as_bytes()),
            Err(HttpError::HeadersTooLarge(_))
        ));
    }

    #[test]
    fn truncated_body_waits_in_body_phase() {
        let mut parser = Parser::new();
        let wire = b"POST /decide HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(feed(&mut parser, [&wire[..]]).unwrap().is_empty());
        assert_eq!(parser.phase(), ParsePhase::Body);
    }

    #[test]
    fn partial_head_waits_in_head_phase() {
        for wire in [&b"POST /decide HTTP/1.1\r\nHost: x\r\n"[..], b"POST /dec"] {
            let mut parser = Parser::new();
            assert!(feed(&mut parser, [wire]).unwrap().is_empty());
            assert_eq!(parser.phase(), ParsePhase::Head);
        }
    }

    /// Feed `wire` one byte at a time: every possible split boundary at once.
    fn parse_bytewise(wire: &[u8]) -> Request {
        let mut parser = Parser::new();
        for (i, b) in wire.iter().enumerate() {
            let (used, request) = parser.push(std::slice::from_ref(b)).unwrap();
            assert_eq!(used, 1, "byte {i} must be consumed");
            if let Some(request) = request {
                assert_eq!(i, wire.len() - 1, "completed early at byte {i}");
                return request;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn bytewise_split_equals_single_push() {
        let wire = b"POST /decide HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut parser = Parser::new();
        let (used, whole) = parser.push(wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(whole.unwrap(), parse_bytewise(wire));
    }

    #[test]
    fn split_mid_request_line_and_mid_body() {
        let mut parser = Parser::new();
        assert_eq!(parser.phase(), ParsePhase::Idle);
        let (_, r) = parser.push(b"POST /dec").unwrap();
        assert!(r.is_none());
        assert_eq!(parser.phase(), ParsePhase::Head);
        let (_, r) = parser
            .push(b"ide HTTP/1.1\r\ncontent-length: 6\r\n\r\nab")
            .unwrap();
        assert!(r.is_none());
        assert_eq!(parser.phase(), ParsePhase::Body);
        let (used, r) = parser.push(b"cdef").unwrap();
        assert_eq!(used, 4);
        let request = r.unwrap();
        assert_eq!(request.body, b"abcdef");
        assert_eq!(parser.phase(), ParsePhase::Idle);
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let wire =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /decide HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let mut parser = Parser::new();
        let (used, first) = parser.push(wire).unwrap();
        let first = first.unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(used < wire.len(), "must stop at the request boundary");
        let (used2, second) = parser.push(&wire[used..]).unwrap();
        assert_eq!(used + used2, wire.len());
        let second = second.unwrap();
        assert_eq!(second.path, "/decide");
        assert_eq!(second.body, b"hi");
    }

    #[test]
    fn bare_newlines_accepted() {
        let req = parse_bytewise(b"GET /scenarios HTTP/1.1\nHost: x\n\n");
        assert_eq!(req.path, "/scenarios");
        assert_eq!(req.header("host"), Some("x"));
    }

    /// Well-formed requests covering every framing the parser knows:
    /// counted bodies, no body, query strings, HTTP/1.0, bare `\n` line
    /// ends, empty header values and explicit connection tokens.
    const CORPUS: &[&[u8]] = &[
        b"POST /decide HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        b"GET /scenarios?limit=3 HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        b"POST /fleet HTTP/1.1\ncontent-length: 11\nconnection: close\n\n{\"load\":6 }",
        b"DELETE /healthz HTTP/1.1\r\nx-empty:\r\ncontent-length: 0\r\n\r\n",
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..Default::default() })]

        /// Any split of a corpus request — or of a pipelined pair — parses
        /// through [`Parser::push`] to exactly the requests the whole
        /// buffer yields, and leaves the parser idle.
        #[test]
        fn any_split_parses_like_the_whole_buffer(
            first in 0usize..CORPUS.len(),
            // `CORPUS.len()` itself means "no pipelined successor".
            second in 0usize..=CORPUS.len(),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut wire = CORPUS[first].to_vec();
            if let Some(next) = CORPUS.get(second) {
                wire.extend_from_slice(next);
            }
            let whole = parse(&wire).unwrap();
            prop_assert_eq!(whole.len(), 1 + usize::from(second < CORPUS.len()));

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.sort_unstable();
            let mut chunks: Vec<&[u8]> = Vec::new();
            let mut at = 0;
            for cut in cuts {
                chunks.push(&wire[at..cut]);
                at = cut;
            }
            chunks.push(&wire[at..]);
            let mut parser = Parser::new();
            let split = feed(&mut parser, chunks).unwrap();
            prop_assert_eq!(split, whole);
            prop_assert_eq!(parser.phase(), ParsePhase::Idle);
        }
    }

    #[test]
    fn response_has_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, b"{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn status_431_has_reason_phrase() {
        let mut out = Vec::new();
        write_response(&mut out, 431, b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{text}"
        );
    }
}
