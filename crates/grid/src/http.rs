//! A minimal, dependency-free HTTP/1.1 surface for the campaign service.
//!
//! The control plane needs exactly three endpoints:
//!
//! * `POST /campaigns` — submit a campaign ([`SubmitSpec`] JSON body)
//! * `GET /campaigns/<id>` — one campaign's status (and, once finished,
//!   its full merged report)
//! * `GET /fleet` — fleet-wide status: workers, campaigns, wire tallies
//!
//! That does not justify an HTTP stack: this module implements just
//! enough of RFC 9112 to serve those routes — request line, headers (only
//! `Content-Length` is interpreted), a body, and a one-shot response with
//! `Connection: close`. The parser is incremental ([`HttpBuffer`]) so it
//! drops straight into the service's nonblocking event loop: feed it a
//! socket whenever the socket is readable, and it yields a routed request
//! exactly once the full message has arrived, no matter how the bytes
//! were fragmented.
//!
//! Everything unroutable gets a ready-made error response and the
//! connection closes — tenants talk to the service per-request, which
//! keeps connection state out of the event loop (no keep-alive
//! bookkeeping for a surface that sees a handful of requests per
//! campaign).

use crate::spec::SubmitSpec;
use avgi_faultsim::json::{self, Writer};
use std::io::Read;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 << 10;
/// Upper bound on a request body (a [`SubmitSpec`] is < 1 KiB).
pub const MAX_BODY: usize = 256 << 10;
/// Bytes one [`HttpBuffer::poll`] reads at most. A buffer holds at most a
/// head past [`MAX_HEAD`] by one read, a body of [`MAX_BODY`], and one more
/// read: `MAX_HEAD + READ_CHUNK + MAX_BODY + READ_CHUNK` bytes.
pub const READ_CHUNK: usize = 4096;

/// A routed control-plane request.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpRequest {
    /// `POST /campaigns` with a parsed submission body.
    Submit(SubmitSpec),
    /// `GET /campaigns/<id>`.
    Status(u64),
    /// `GET /fleet`.
    Fleet,
}

/// One poll of an HTTP connection.
#[derive(Debug)]
pub enum HttpPoll {
    /// No complete request yet; poll again when the socket is readable.
    Pending,
    /// A complete, routed request.
    Request(HttpRequest),
    /// The peer closed before completing a request.
    Closed,
    /// Malformed or unroutable input: send these response bytes and close.
    Bad(Vec<u8>),
}

/// Incremental request accumulator for one connection (see module docs).
#[derive(Debug, Default)]
pub struct HttpBuffer {
    buf: Vec<u8>,
}

impl HttpBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads whatever the socket has and returns a request once complete.
    ///
    /// `WouldBlock`/`TimedOut`/`Interrupted` map to [`HttpPoll::Pending`];
    /// real I/O errors surface as `Err` (close the connection).
    pub fn poll(&mut self, r: &mut (impl Read + ?Sized)) -> std::io::Result<HttpPoll> {
        let mut tmp = [0u8; READ_CHUNK];
        match r.read(&mut tmp) {
            // EOF, with or without half a request: nothing to respond to.
            Ok(0) => return Ok(HttpPoll::Closed),
            Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        Ok(self.try_route())
    }

    /// Attempts to parse and route the accumulated bytes.
    fn try_route(&mut self) -> HttpPoll {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_HEAD {
                return HttpPoll::Bad(error_response(431, "request head too large"));
            }
            return HttpPoll::Pending;
        };
        let head = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(h) => h,
            Err(_) => return HttpPoll::Bad(error_response(400, "non-UTF-8 head")),
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p),
            _ => return HttpPoll::Bad(error_response(400, "bad request line")),
        };
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    match value.trim().parse::<usize>() {
                        Ok(n) => content_length = n,
                        Err(_) => return HttpPoll::Bad(error_response(400, "bad content-length")),
                    }
                }
            }
        }
        if content_length > MAX_BODY {
            return HttpPoll::Bad(error_response(413, "body too large"));
        }
        let body_start = head_end + 4;
        if self.buf.len() < body_start + content_length {
            return HttpPoll::Pending;
        }
        let body = &self.buf[body_start..body_start + content_length];
        route(method, path, body)
    }
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Maps `(method, path, body)` to a control-plane request.
fn route(method: &str, path: &str, body: &[u8]) -> HttpPoll {
    match (method, path) {
        ("POST", "/campaigns") => {
            let text = match std::str::from_utf8(body) {
                Ok(t) => t,
                Err(_) => return HttpPoll::Bad(error_response(400, "non-UTF-8 body")),
            };
            match SubmitSpec::from_json(text) {
                Ok(spec) => HttpPoll::Request(HttpRequest::Submit(spec)),
                Err(e) => HttpPoll::Bad(error_response(400, &e)),
            }
        }
        ("GET", "/fleet") => HttpPoll::Request(HttpRequest::Fleet),
        ("GET", p) => match p
            .strip_prefix("/campaigns/")
            .and_then(|id| id.parse::<u64>().ok())
        {
            Some(id) => HttpPoll::Request(HttpRequest::Status(id)),
            None => HttpPoll::Bad(error_response(404, "no such route")),
        },
        ("POST", _) => HttpPoll::Bad(error_response(404, "no such route")),
        _ => HttpPoll::Bad(error_response(405, "method not allowed")),
    }
}

/// Builds the one-shot `{"error": message}` response every refusal uses.
pub fn error_response(status: u16, message: &str) -> Vec<u8> {
    response(status, |w| {
        w.key("error").str(message);
    })
}

/// Builds a complete one-shot response (`Connection: close`) whose body is
/// the JSON object `fill` writes the fields of.
pub fn response(status: u16, fill: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let body = json::object(fill);
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MAX_CHECKPOINTS;
    use avgi_muarch::fault::Structure;

    /// A `Read` that hands out a script of chunks, then `WouldBlock`s.
    struct Chunks {
        script: Vec<Vec<u8>>,
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.script.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let chunk = self.script.remove(0);
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn status_line(resp: &[u8]) -> String {
        String::from_utf8_lossy(resp)
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn submit_parses_across_arbitrary_fragmentation() {
        let spec = SubmitSpec::new("bitcount", Structure::RegFile, 32, 7);
        let body = spec.to_json();
        let raw = format!(
            "POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // Try every split point: the parser must be insensitive to where
        // the kernel fragments the stream.
        for cut in 1..raw.len() {
            let mut src = Chunks {
                script: vec![
                    raw.as_bytes()[..cut].to_vec(),
                    raw.as_bytes()[cut..].to_vec(),
                ],
            };
            let mut hb = HttpBuffer::new();
            let got = loop {
                match hb.poll(&mut src).unwrap() {
                    HttpPoll::Pending => continue,
                    other => break other,
                }
            };
            match got {
                HttpPoll::Request(HttpRequest::Submit(s)) => assert_eq!(s, spec),
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn get_routes_resolve() {
        let mut hb = HttpBuffer::new();
        let mut src = Chunks {
            script: vec![b"GET /campaigns/42 HTTP/1.1\r\n\r\n".to_vec()],
        };
        match hb.poll(&mut src).unwrap() {
            HttpPoll::Request(HttpRequest::Status(42)) => {}
            other => panic!("unexpected {other:?}"),
        }
        let mut hb = HttpBuffer::new();
        let mut src = Chunks {
            script: vec![b"GET /fleet HTTP/1.1\r\nAccept: */*\r\n\r\n".to_vec()],
        };
        match hb.poll(&mut src).unwrap() {
            HttpPoll::Request(HttpRequest::Fleet) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unroutable_and_malformed_requests_get_error_responses() {
        let cases: Vec<(&[u8], &str)> = vec![
            (b"GET /nope HTTP/1.1\r\n\r\n", "404"),
            (b"GET /campaigns/abc HTTP/1.1\r\n\r\n", "404"),
            (b"POST /nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n", "404"),
            (b"DELETE /fleet HTTP/1.1\r\n\r\n", "405"),
            (b"garbage\r\n\r\n", "400"),
            (
                b"POST /campaigns HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
                "400",
            ),
        ];
        for (raw, want) in cases {
            let mut hb = HttpBuffer::new();
            let mut src = Chunks {
                script: vec![raw.to_vec()],
            };
            match hb.poll(&mut src).unwrap() {
                HttpPoll::Bad(resp) => {
                    let line = status_line(&resp);
                    assert!(
                        line.contains(want),
                        "{:?}: wanted {want}, got {line}",
                        String::from_utf8_lossy(raw)
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// Posts `body` to `/campaigns` in socket-sized chunks; the refusal.
    fn refused(body: &str) -> (String, String) {
        let raw = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut src = Chunks {
            script: raw.as_bytes().chunks(4096).map(<[u8]>::to_vec).collect(),
        };
        let mut hb = HttpBuffer::new();
        loop {
            match hb.poll(&mut src).unwrap() {
                HttpPoll::Pending => continue,
                HttpPoll::Bad(resp) => {
                    let text = String::from_utf8(resp).unwrap();
                    let body = text.split_once("\r\n\r\n").unwrap().1.to_string();
                    return (status_line(text.as_bytes()), body);
                }
                other => panic!("{body:.60}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_submissions_are_refused_with_a_400_naming_the_field() {
        // 100 KB of `[`: the parser's recursion used to overflow the stack
        // and abort the process.
        let (status, body) = refused(&"[".repeat(100_000));
        assert!(status.contains("400"), "{status}");
        assert!(body.contains("nesting"), "{body}");
        // Well-formed, and sized to take a worker or the service down:
        // 24 TB of fault list, 444 TB of snapshots, a silently narrowed
        // integer (2^32 + 8 read as 8).
        let hostile = |field: &str, value: &str| {
            let mut fields = vec![
                ("workload", "\"bitcount\""),
                ("structure", "\"RegFile\""),
                ("faults", "8"),
                ("seed", "1"),
            ];
            fields.retain(|(name, _)| *name != field);
            fields.push((field, value));
            let fields: Vec<_> = fields
                .iter()
                .map(|(name, value)| format!("\"{name}\":{value}"))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let over = (MAX_CHECKPOINTS + 1).to_string();
        for (field, value) in [
            ("faults", "1000000000000"),
            ("faults", "1048577"),
            ("faults", "18446744073709551616"),
            ("checkpoints", "4000000000"),
            ("checkpoints", "4294967304"),
            ("checkpoints", over.as_str()),
            ("burst", "65"),
            ("burst", "4294967297"),
            ("priority", "4294967296"),
            ("weight", "-1"),
            ("quota", "1e3"),
            ("seed", "\"1\""),
            ("mode", "5"),
            ("preset", "7"),
        ] {
            let (status, body) = refused(&hostile(field, value));
            assert!(status.contains("400"), "{field}={value}: {status}");
            assert!(
                body.contains(&format!("`{field}`")),
                "{field}={value}: {body}"
            );
        }
        // The bounds themselves are accepted.
        let at_the_limit = hostile("checkpoints", &format!("{MAX_CHECKPOINTS}, \"burst\":64"));
        assert!(SubmitSpec::from_json(&at_the_limit).is_ok());
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let raw = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut hb = HttpBuffer::new();
        let mut src = Chunks {
            script: vec![raw.into_bytes()],
        };
        match hb.poll(&mut src).unwrap() {
            HttpPoll::Bad(resp) => assert!(status_line(&resp).contains("413")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn responses_carry_length_and_close() {
        let resp = String::from_utf8(response(200, |w| {
            w.key("ok").bool(true);
        }))
        .unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(resp.contains("Content-Length: 11\r\n"));
        assert!(resp.contains("Connection: close\r\n"));
        assert!(resp.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
