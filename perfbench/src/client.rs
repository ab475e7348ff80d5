//! A minimal keep-alive HTTP/1.1 client owned by the benchmark, so the
//! load generator's own cost does not change when the program's client
//! code does.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Requests that take longer than this count as failed (timed out).
const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    head: Vec<u8>,
}

/// One response: status and body bytes.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// The bytes the client sends for one request (also what the traced
/// replay feeds the server's parser).
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + target.len() + body.len());
    write_head(&mut out, method, target, body.len());
    out.extend_from_slice(body);
    out
}

fn write_head(out: &mut Vec<u8>, method: &str, target: &str, body_len: usize) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
    if method != "GET" {
        out.extend_from_slice(format!("Content-Length: {body_len}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            head: Vec::with_capacity(256),
        }
    }

    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.send("GET", target, &[])
    }

    /// Sends one request and reads its response. Any transport error
    /// drops the socket (the next request reconnects) and is returned:
    /// the caller counts it as a failed request.
    pub fn send(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        let out = self.exchange(method, target, body);
        if out.is_err() {
            self.stream = None;
            self.buf.clear();
        }
        out
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(TIMEOUT))?;
            s.set_write_timeout(Some(TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        self.head.clear();
        write_head(&mut self.head, method, target, body.len());
        let stream = self.stream.as_mut().expect("connected above");
        if body.is_empty() {
            stream.write_all(&self.head)?;
        } else {
            self.head.extend_from_slice(body);
            stream.write_all(&self.head)?;
        }
        let (status, body_start, body_len, close) = loop {
            if let Some(parsed) = parse_head(&self.buf)? {
                break parsed;
            }
            fill(stream, &mut self.buf)?;
        };
        while self.buf.len() < body_start + body_len {
            fill(stream, &mut self.buf)?;
        }
        let body = self.buf[body_start..body_start + body_len].to_vec();
        self.buf.drain(..body_start + body_len);
        if close {
            self.stream = None;
            self.buf.clear();
        }
        Ok(Reply { status, body })
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// Parses a buffered response head: `(status, body offset, body
/// length, connection closes)`, or `None` if the head is incomplete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, usize, usize, bool)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value.parse().map_err(|_| bad("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok(Some((status, end + 4, len, close)))
}
