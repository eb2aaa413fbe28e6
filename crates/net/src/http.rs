//! Minimal HTTP/1.1 JSON gateway riding the same listener as the binary
//! protocol.
//!
//! A connection's reader sniffs the protocol from its first bytes:
//! anything that contradicts the `SMLRNET` magic (e.g. `GET ` from curl)
//! is parsed here instead. The gateway is deliberately small — enough for
//! curl-ability and health probes, not a web server:
//!
//! - `GET /forecast?sensor=0&h=5&deadline_ms=50&tenant=0` → forecast JSON
//! - `POST /observe?sensor=0&value=1.25` → `{"ok":true}`
//! - `GET /status` → the full fleet [`smiler_core::serve::StatusReport`]
//! - `GET /healthz` → `{"ok":true}` (answered inline, never queued)
//!
//! Every response carries `Connection: close` and the connection is torn
//! down after the first response; keep-alive, chunked bodies, TLS, and
//! percent-decoding are non-goals (sensor ids and values are plain
//! numbers). Request heads are capped at 8 KiB — a head that grows past
//! the cap is answered `431` and closed.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::ErrorCode;

/// Largest request head (request line + headers) the gateway accepts.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// Path component before any `?`.
    pub path: String,
    /// Query parameters in order of appearance, raw (no percent-decoding).
    pub query: Vec<(String, String)>,
    /// Total bytes of the request consumed from the connection buffer
    /// (head plus any `Content-Length` body).
    pub consumed: usize,
}

impl HttpRequest {
    /// Last value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Parse query parameter `key` as `T`, with a typed error naming the
    /// parameter on absence or parse failure.
    pub fn numeric_param<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.param(key).ok_or_else(|| format!("missing query parameter '{key}'"))?;
        raw.parse::<T>().map_err(|_| format!("query parameter '{key}' is not a valid number"))
    }
}

/// Result of trying to parse an HTTP request from buffered bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParse {
    /// The head (or declared body) is not complete yet; read more.
    NeedMore,
    /// A complete request.
    Request(HttpRequest),
    /// The bytes can never become a request this gateway accepts; the
    /// string is the reason for the `400` body.
    Bad(String),
    /// The head exceeded [`MAX_HEAD_BYTES`]; answer `431` and close.
    HeadTooLarge,
}

/// Try to parse one HTTP request from the front of `buf`.
pub fn parse(buf: &[u8]) -> HttpParse {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None if buf.len() > MAX_HEAD_BYTES => return HttpParse::HeadTooLarge,
        None => return HttpParse::NeedMore,
    };
    if head_end > MAX_HEAD_BYTES {
        return HttpParse::HeadTooLarge;
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head,
        Err(_) => return HttpParse::Bad("request head is not UTF-8".to_string()),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && parts.next().is_none() => (m, t, v),
        _ => return HttpParse::Bad("malformed request line".to_string()),
    };
    if !version.starts_with("HTTP/1.") {
        return HttpParse::Bad(format!("unsupported protocol version '{version}'"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(len) if len <= crate::frame::MAX_PAYLOAD_BYTES as usize => {
                        content_length = len;
                    }
                    _ => return HttpParse::Bad("unacceptable Content-Length".to_string()),
                }
            }
        }
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return HttpParse::NeedMore;
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    HttpParse::Request(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query,
        consumed: total,
    })
}

/// Byte offset just past the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|pos| pos + 4)
}

/// Render a complete HTTP/1.1 response with a JSON body. Always
/// `Connection: close` — the gateway serves one request per connection.
pub fn render_response(status: u16, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
    out
}

/// JSON error body `{"error":code,"detail":...}` for the gateway.
pub fn error_body(code: ErrorCode, detail: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"detail\":{}}}",
        code.as_str(),
        serde_json::to_string(detail).unwrap_or_else(|_| "\"\"".to_string())
    )
}

/// HTTP status a typed error maps to.
pub fn status_for(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::Overloaded | ErrorCode::ShuttingDown => 503,
        ErrorCode::Throttled => 429,
        ErrorCode::UnknownSensor => 404,
        ErrorCode::Fault | ErrorCode::Durability => 500,
        ErrorCode::BadRequest => 400,
        // Misdirected write: the client should retry against the primary
        // named in the error detail.
        ErrorCode::NotPrimary => 421,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_forecast_query() {
        let raw = b"GET /forecast?sensor=3&h=5&tenant=1 HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse(raw) {
            HttpParse::Request(req) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/forecast");
                assert_eq!(req.numeric_param::<usize>("sensor"), Ok(3));
                assert_eq!(req.numeric_param::<usize>("h"), Ok(5));
                assert_eq!(req.param("tenant"), Some("1"));
                assert_eq!(req.consumed, raw.len());
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn incomplete_head_needs_more() {
        assert_eq!(parse(b"GET /healthz HTTP/1.1\r\nHost"), HttpParse::NeedMore);
    }

    #[test]
    fn body_counts_toward_consumed() {
        let raw = b"POST /observe?sensor=0&value=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyz";
        match parse(raw) {
            HttpParse::Request(req) => assert_eq!(req.consumed, raw.len()),
            other => panic!("expected request, got {other:?}"),
        }
        let partial = &raw[..raw.len() - 2];
        assert_eq!(parse(partial), HttpParse::NeedMore);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET /forecast?sensor=0".to_vec();
        raw.extend(std::iter::repeat(b'a').take(MAX_HEAD_BYTES + 1));
        assert_eq!(parse(&raw), HttpParse::HeadTooLarge);
    }

    #[test]
    fn missing_param_is_typed() {
        let raw = b"GET /forecast?h=5 HTTP/1.1\r\n\r\n";
        match parse(raw) {
            HttpParse::Request(req) => {
                assert!(req.numeric_param::<usize>("sensor").is_err());
            }
            other => panic!("expected request, got {other:?}"),
        }
    }
}
