//! A minimal blocking RESP2 client: write a pipelined window, read its
//! replies back in order.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One decoded reply.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    Simple(String),
    Error(String),
    Nil,
    Bulk(Vec<u8>),
}

pub struct RespConn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl RespConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RespConn { stream, buf: Vec::with_capacity(64 * 1024), pos: 0 })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Block until one whole reply is buffered, then decode it.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf[self.pos..])? {
                self.pos += used;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                return Ok(reply);
            }
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Largest bulk reply accepted (the server's own default limit).
const MAX_BULK: i64 = 512 * 1024;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed reply: {what}"))
}

/// Decode one reply from the front of `buf`: `Ok(None)` until complete.
pub fn parse_reply(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let Some(eol) = buf.windows(2).position(|w| w == b"\r\n") else { return Ok(None) };
    if eol == 0 {
        return Err(bad("empty line"));
    }
    let tag = buf[0];
    let line = std::str::from_utf8(&buf[1..eol]).map_err(|_| bad("non-UTF-8 header"))?;
    let after = eol + 2;
    let reply = match tag {
        b'+' => Reply::Simple(line.to_string()),
        b'-' => Reply::Error(line.to_string()),
        b'$' => {
            let len: i64 = line.parse().map_err(|_| bad("bulk length"))?;
            if len < 0 {
                return Ok(Some((Reply::Nil, after)));
            }
            if len > MAX_BULK {
                return Err(bad("bulk length"));
            }
            let end = after + len as usize;
            if buf.len() < end + 2 {
                return Ok(None);
            }
            if &buf[end..end + 2] != b"\r\n" {
                return Err(bad("bulk terminator"));
            }
            return Ok(Some((Reply::Bulk(buf[after..end].to_vec()), end + 2)));
        }
        _ => return Err(bad("unknown reply type")),
    };
    Ok(Some((reply, after)))
}
