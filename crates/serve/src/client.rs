//! A tiny blocking HTTP/1.1 client over `std::net::TcpStream` — enough
//! to drive every `gbc serve` endpoint from the smoke tests and CI
//! without shelling out to curl (which keeps the zero-dependency policy
//! intact).
//!
//! One request per connection, mirroring the server's one-shot model:
//! connect, write, read to EOF, parse. Returned errors are plain
//! strings; status codes are the caller's to interpret.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side I/O timeout (connect + read + write).
const TIMEOUT: Duration = Duration::from_secs(30);

/// `GET target` against `addr` (e.g. `"127.0.0.1:7171"`). Returns
/// `(status, body)`.
pub fn get(addr: &str, target: &str) -> Result<(u16, String), String> {
    request(addr, "GET", target, None)
}

/// `POST target` with a JSON body. Returns `(status, body)`.
pub fn post_json(addr: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    request(addr, "POST", target, Some(body))
}

/// Issue one request and read the full response.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;

    let body = body.unwrap_or("");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("write {addr}: {e}"))?;
    stream.write_all(body.as_bytes()).map_err(|e| format!("write {addr}: {e}"))?;

    // The server closes after one response, so EOF delimits it.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read {addr}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    parse_response(&text)
}

/// Split a serialized response into status code and body.
fn parse_response(text: &str) -> Result<(u16, String), String> {
    let Some((head, response_body)) = text.split_once("\r\n\r\n") else {
        return Err(format!("no header/body separator in response: {text:?}"));
    };
    let status_line = head.lines().next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let proto = parts.next().unwrap_or("");
    if !proto.starts_with("HTTP/1.") {
        return Err(format!("malformed status line: {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;
    Ok((status, response_body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_splits_status_and_body() {
        let (status, body) =
            parse_response("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"a\":1}\n")
                .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"a\":1}\n");
        assert!(parse_response("garbage").is_err());
        assert!(parse_response("SPDY/3 200\r\n\r\nx").is_err());
    }
}
