//! A deliberately small HTTP/1.1 subset over blocking [`TcpStream`]s:
//! enough for a JSON job API (request line, headers, `Content-Length`
//! bodies, `Connection: close` responses). No chunked encoding, no
//! keep-alive, no TLS — the service fronts a trusted lab network, and
//! the robustness budget is spent on job supervision instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the header block, request line included (guards
/// against a stuck or hostile client).
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// The raw body (empty without `Content-Length`).
    pub body: String,
}

/// Reads one line of the header block, never more than the `budget`
/// left of [`MAX_HEADER_BYTES`], so a line without a newline cannot
/// grow past the cap before it is checked.
fn read_header_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    what: &str,
) -> Result<String, String> {
    let mut line = String::new();
    let n = reader
        .take(*budget as u64)
        .read_line(&mut line)
        .map_err(|e| format!("read {what}: {e}"))?;
    if n == *budget && !line.ends_with('\n') {
        return Err(format!(
            "header block exceeds the {MAX_HEADER_BYTES}-byte cap"
        ));
    }
    *budget -= n;
    Ok(line)
}

/// Reads one request from the stream. `Err` strings describe malformed
/// or oversized input; the caller answers 400 and closes.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEADER_BYTES;
    let line = read_header_line(&mut reader, &mut budget, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line missing target")?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let h = read_header_line(&mut reader, &mut budget, "header")?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Ok(Request { method, path, body })
}

/// Writes a JSON response and flushes. `retry_after` adds the
/// backpressure header (seconds).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    retry_after: Option<u64>,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            "POST /jobs?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"a\": 1}\n");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip("GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_truncated_body() {
        let err = round_trip("POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert!(err.contains("read body"), "{err}");
    }

    #[test]
    fn rejects_request_line_past_header_cap() {
        // More than the cap with no newline, on a connection that stays
        // open: the reader must stop at the cap instead of buffering
        // until a newline or EOF (the read timeout fails the test then).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = s.write_all("x".repeat(MAX_HEADER_BYTES + 1).as_bytes());
            let _ = finished.recv();
        });
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let err = read_request(&mut conn).unwrap_err();
        drop(done);
        writer.join().unwrap();
        assert_eq!(
            err,
            format!("header block exceeds the {MAX_HEADER_BYTES}-byte cap")
        );
    }

    #[test]
    fn response_carries_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            text
        });
        let (mut conn, _) = listener.accept().unwrap();
        write_response(&mut conn, 429, "{}", Some(2)).unwrap();
        drop(conn);
        let text = reader.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
