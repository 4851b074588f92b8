//! # vhttp — HTTP servers in virtines (§4.2 and §6.3)
//!
//! Two of the paper's experiments serve HTTP from virtual contexts:
//!
//! * the §4.2 **echo server** — a hand-written, protected-mode (no paging)
//!   guest whose startup milestones (reach C code, `recv()` return,
//!   `send()` complete) are Figure 4;
//! * the §6.3 **static-content server** — a mini-C connection handler,
//!   annotated per-connection, performing exactly the paper's seven host
//!   interactions per request: `recv`, `stat`, `open`, `read`, `write`,
//!   `close`, `exit` (Figure 13 measures its latency and throughput
//!   against a native handler).
//!
//! The native baseline handler performs the same system calls directly.
//!
//! [`dispatch`] scales the §6.3 server past the paper: concurrent
//! connections flow through the `vsched` dispatcher (sharded pools,
//! per-client-class admission control) instead of one blocking loop.
//! [`ingress`] scales past one dispatcher entirely: an edge tier (accept-loop virtine,
//! PROXY-style client attribution, per-tenant edge admission) routing
//! connections across a multi-node `vsched::cluster` with exactly-once
//! failover.

pub mod dispatch;
pub mod echo;
mod expo;
pub mod ingress;
pub mod server;

/// A parsed HTTP request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (`GET`, ...).
    pub method: String,
    /// Request path.
    pub path: String,
}

/// Parses the request line of an HTTP request.
pub fn parse_request(bytes: &[u8]) -> Option<Request> {
    let text = std::str::from_utf8(bytes).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    Some(Request { method, path })
}

/// Builds a minimal HTTP/1.0 response.
pub fn build_response(status: u16, reason: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Extracts the body of an HTTP response.
pub fn response_body(resp: &[u8]) -> Option<&[u8]> {
    let pos = resp.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(&resp[pos + 4..])
}

/// Checks a response's status code.
pub fn response_status(resp: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(resp).ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line() {
        let r = parse_request(b"GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/index.html");
        assert!(parse_request(b"garbage").is_none());
        assert!(parse_request(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn builds_and_reparses_responses() {
        let resp = build_response(200, "OK", b"hello");
        assert_eq!(response_status(&resp), Some(200));
        assert_eq!(response_body(&resp), Some(b"hello".as_slice()));

        let nf = build_response(404, "Not Found", b"");
        assert_eq!(response_status(&nf), Some(404));
        assert_eq!(response_body(&nf), Some(b"".as_slice()));
    }
}
