//! A deliberately small HTTP/1.1 server-side codec: an *incremental*
//! request parser over a byte buffer (no I/O — the reactor owns the
//! sockets) and a response renderer, with hard size limits so a
//! misbehaving client cannot balloon memory.
//!
//! The parser supports keep-alive and pipelining by construction: it
//! consumes exactly one request from the front of the buffer and reports
//! how many bytes it used, so the caller can call it in a loop over
//! whatever bytes have arrived.

/// Maximum accepted request-line + header block, in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body, in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Path component (query string stripped).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The inbound `X-Request-Id`, when present and safe to echo
    /// (token characters only, bounded length). Unacceptable values are
    /// ignored and the server mints its own id instead.
    pub(crate) fn request_id(&self) -> Option<&str> {
        self.header("x-request-id")
            .filter(|v| crate::obs::acceptable_request_id(v))
    }
}

/// Why a request could not be parsed; maps onto a response status.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line / headers / length framing.
    Bad(String),
    /// Head or body over the size limits.
    TooLarge,
}

/// Tries to parse one complete request from the front of `buf`.
///
/// - `Ok(Some((request, consumed)))` — a full request was present; the
///   caller should drain `consumed` bytes and may call again (pipelining).
/// - `Ok(None)` — the bytes so far are a valid prefix; read more.
/// - `Err(_)` — the stream is unrecoverable; respond and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
    let Some(header_end) = find_header_end(&buf[..buf.len().min(MAX_HEAD + 4)]) else {
        if buf.len() > MAX_HEAD {
            return Err(ParseError::TooLarge);
        }
        return Ok(None);
    };
    let head_txt = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ParseError::Bad("non-UTF-8 request head".into()))?;

    let mut lines = head_txt.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version}")));
    }
    let http11 = version != "HTTP/1.0";
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Bad(format!("malformed header line `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body: exactly Content-Length bytes (chunked encoding unsupported).
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad Content-Length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge);
    }
    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ParseError::Bad("chunked bodies are not supported".into()));
    }
    let body_start = header_end + 4; // past the \r\n\r\n
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Ok(None); // body still in flight
    }
    let body = buf[body_start..consumed].to_vec();

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    Ok(Some((
        Request {
            method,
            path,
            headers,
            body,
            keep_alive,
        },
        consumed,
    )))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Renders one response into bytes for the connection's write buffer.
/// `keep_alive` decides the `Connection` header — the reactor closes the
/// connection after flushing iff it advertised `close`.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&'static str, String)],
    keep_alive: bool,
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Renders the head of a streamed (`Transfer-Encoding: chunked`)
/// response. The body follows as [`render_chunk`] frames terminated by
/// [`render_last_chunk`]; there is no `Content-Length`.
pub fn render_stream_head(
    status: u16,
    content_type: &str,
    extra_headers: &[(&'static str, String)],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\nConnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Frames one non-empty chunk of a streamed response body.
pub fn render_chunk(data: &[u8]) -> Vec<u8> {
    debug_assert!(
        !data.is_empty(),
        "an empty chunk would terminate the stream"
    );
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating zero-length chunk of a streamed response.
pub fn render_last_chunk() -> &'static [u8] {
    b"0\r\n\r\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_responses_frame_and_terminate() {
        let head = String::from_utf8(render_stream_head(
            200,
            "application/x-ndjson",
            &[("X-Request-Id", "abc".into())],
            true,
        ))
        .unwrap();
        assert!(head.contains("Transfer-Encoding: chunked\r\n"), "{head}");
        assert!(!head.contains("Content-Length"), "{head}");
        assert!(head.contains("X-Request-Id: abc\r\n"), "{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
        let chunk = render_chunk(b"{\"a\":1}\n");
        assert_eq!(chunk, b"8\r\n{\"a\":1}\n\r\n");
        assert_eq!(render_last_chunk(), b"0\r\n\r\n");
    }

    #[test]
    fn parses_incrementally_and_reports_consumed_bytes() {
        let req = b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        // Every strict prefix is "need more bytes".
        for cut in 0..req.len() {
            assert!(
                parse_request(&req[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (r, consumed) = parse_request(req).unwrap().unwrap();
        assert_eq!(consumed, req.len());
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/run");
        assert_eq!(r.body, b"body");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let two =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, used) = parse_request(two).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let (second, used2) = parse_request(&two[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(!second.keep_alive);
        assert_eq!(used + used2, two.len());
    }

    #[test]
    fn connection_header_and_version_drive_keep_alive() {
        let (r, _) = parse_request(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let (r, _) = parse_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(r.keep_alive);
        let (r, _) = parse_request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn size_limits_are_enforced() {
        let huge_head = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        assert!(matches!(
            parse_request(huge_head.as_bytes()),
            Err(ParseError::TooLarge)
        ));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse_request(huge_body.as_bytes()),
            Err(ParseError::TooLarge)
        ));
    }

    #[test]
    fn responses_advertise_the_connection_mode() {
        let keep = render_response(200, "application/json", &[], true, b"{}");
        let keep = String::from_utf8(keep).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(keep.contains("Content-Length: 2\r\n"), "{keep}");
        let close = render_response(
            503,
            "application/json",
            &[("Retry-After", "1".into())],
            false,
            b"x",
        );
        let close = String::from_utf8(close).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
        assert!(close.contains("Retry-After: 1\r\n"), "{close}");
        assert!(close.contains("503 Service Unavailable"), "{close}");
    }
}
