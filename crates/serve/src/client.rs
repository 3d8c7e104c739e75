//! A minimal blocking HTTP/1.1 client for exercising the daemon —
//! used by the integration tests, `nfi worker` and the repository
//! benchmark, not shipped as a public API promise. Speaks exactly the subset the server does:
//! `Content-Length` bodies, keep-alive, no chunking.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a connect attempt may take before it is a failure, and
/// the per-call read/write bound on an established connection. The
/// daemon answers fast or sheds fast; a client hanging for minutes is
/// always wrong.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest `Retry-After` the retry helper will actually honor — an
/// overloaded daemon advises seconds, not minutes, and a corrupt or
/// hostile header must not park the client forever.
const MAX_RETRY_AFTER: Duration = Duration::from_secs(10);

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// Body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).to_string()
    }

    /// First value of the named header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    token: Option<String>,
}

impl Client {
    /// Connects with [`IO_TIMEOUT`] bounding the connect attempt and
    /// every read/write — a wedged daemon surfaces as an error, never
    /// a hang.
    ///
    /// # Errors
    ///
    /// Reports connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, String> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| format!("bad address: {e}"))?
            .next()
            .ok_or("address resolves to nothing")?;
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("cannot connect {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            token: None,
        })
    }

    /// Attaches a bearer token: every subsequent [`Self::write_request`]
    /// carries `Authorization: Bearer <token>`.
    #[must_use]
    pub fn with_token(mut self, token: &str) -> Client {
        self.token = Some(token.to_string());
        self
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Reports transport failures and malformed responses.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> Result<Reply, String> {
        self.write_request(method, path, body)?;
        self.read_reply()
    }

    /// Writes a request without reading the response (pipelining).
    ///
    /// # Errors
    ///
    /// Reports transport failures.
    pub fn write_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<(), String> {
        let body = body.unwrap_or_default();
        let auth = match &self.token {
            Some(token) => format!("Authorization: Bearer {token}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: nfi\r\n{auth}Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer
            .write_all(head.as_bytes())
            .and_then(|()| self.writer.write_all(body))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Sends raw bytes verbatim (malformed-request tests).
    ///
    /// # Errors
    ///
    /// Reports transport failures.
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Half-closes the write side (EOF-mid-request tests).
    pub fn shutdown_write(&self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }

    /// Reads one response off the connection.
    ///
    /// # Errors
    ///
    /// Reports transport failures and malformed responses.
    pub fn read_reply(&mut self) -> Result<Reply, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        let mut parts = line.trim_end().splitn(3, ' ');
        let (version, status) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if !version.starts_with("HTTP/1.") {
            return Err(format!("malformed status line `{}`", line.trim_end()));
        }
        let status: u16 = status
            .parse()
            .map_err(|_| format!("malformed status `{status}`"))?;
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("read failed: {e}"))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("body read failed: {e}"))?;
        Ok(Reply {
            status,
            headers,
            body,
        })
    }
}

/// One-shot request on a fresh connection.
///
/// # Errors
///
/// Same contract as [`Client::send`].
pub fn request_once(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<Reply, String> {
    Client::connect(addr)?.send(method, path, body)
}

/// One-shot authenticated request on a fresh connection.
///
/// # Errors
///
/// Same contract as [`Client::send`].
pub fn request_once_as(
    addr: impl ToSocketAddrs,
    token: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<Reply, String> {
    Client::connect(addr)?
        .with_token(token)
        .send(method, path, body)
}

/// One-shot request that cooperates with the daemon's load shedding:
/// a `429`/`503` reply carrying `Retry-After` is retried (on a fresh
/// connection) after sleeping the advised seconds, up to `retries`
/// times. Any other status — and a shed reply once retries are spent —
/// is returned as-is for the caller to judge; transport errors are not
/// retried (the shed path is the one that *promises* the request was
/// not accepted, so only it is safely idempotent to repeat).
///
/// # Errors
///
/// Same contract as [`Client::send`].
pub fn request_with_retry(
    addr: impl ToSocketAddrs + Clone,
    token: Option<&str>,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    retries: usize,
) -> Result<Reply, String> {
    let mut attempt = 0;
    loop {
        let mut client = Client::connect(addr.clone())?;
        if let Some(token) = token {
            client = client.with_token(token);
        }
        let reply = client.send(method, path, body)?;
        let shed = matches!(reply.status, 429 | 503);
        if !shed || attempt >= retries {
            return Ok(reply);
        }
        let advised = reply
            .header("retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        std::thread::sleep(Duration::from_secs(advised).min(MAX_RETRY_AFTER));
        attempt += 1;
    }
}
