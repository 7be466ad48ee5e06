//! The generator's own HTTP/1.1 client: pre-serialized requests out,
//! in-order responses in, pipelining allowed. It is deliberately not
//! the repository's `hre_svc::Client`, so a change to that client
//! cannot move the numbers this benchmark reports about the daemons.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
pub struct Resp {
    pub status: u16,
    pub body: Vec<u8>,
    /// `x-cache: HIT` (single elections answered from the cache).
    pub hit: bool,
    /// `x-backend`, set by the router on single requests.
    pub backend: Option<String>,
}

pub struct Conn {
    stream: TcpStream,
    /// Received bytes; `buf[start..]` is not yet parsed.
    buf: Vec<u8>,
    start: usize,
    chunk: Box<[u8; 1 << 16]>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            chunk: Box::new([0; 1 << 16]),
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Waits for the next response for at most `wait`; `Ok(None)` when
    /// none completed in time.
    pub fn recv_within(&mut self, wait: Duration) -> std::io::Result<Option<Resp>> {
        self.stream.set_read_timeout(Some(wait.max(Duration::from_micros(1))))?;
        let got = self.recv_inner(true);
        self.stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        got
    }

    /// Blocks (up to the 10 s socket timeout) for the next response.
    pub fn recv(&mut self) -> std::io::Result<Resp> {
        match self.recv_inner(false)? {
            Some(r) => Ok(r),
            None => Err(std::io::Error::new(ErrorKind::TimedOut, "no response within 10 s")),
        }
    }

    fn recv_inner(&mut self, may_time_out: bool) -> std::io::Result<Option<Resp>> {
        loop {
            if let Some(resp) = self.parse()? {
                return Ok(Some(resp));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            match self.stream.read(&mut self.chunk[..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if may_time_out
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One complete response from the buffer, if there is one.
    fn parse(&mut self) -> std::io::Result<Option<Resp>> {
        let data = &self.buf[self.start..];
        let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |why: &str| std::io::Error::new(ErrorKind::InvalidData, why.to_string());
        let head = std::str::from_utf8(&data[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut len, mut hit, mut backend) = (0usize, false, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse().map_err(|_| bad("bad content-length"))?,
                "x-cache" => hit = value == "HIT",
                "x-backend" => backend = Some(value.to_string()),
                _ => {}
            }
        }
        let body_start = head_end + 4;
        if data.len() < body_start + len {
            return Ok(None);
        }
        let body = data[body_start..body_start + len].to_vec();
        self.start += body_start + len;
        Ok(Some(Resp { status, body, hit, backend }))
    }
}

/// One `GET path` on a fresh connection; the status and body.
pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::connect(addr)?;
    conn.send(
        format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let resp = conn.recv()?;
    Ok((resp.status, resp.body))
}
