//! A blocking client for the `xmlprop/1` protocol — what the CLI's script
//! driver, the swap-under-load tests and CI sessions speak through.
//!
//! The client participates in the service's degradation story:
//!
//! * **connect** is bounded by [`ClientConfig::connect_timeout`]
//!   ([`TcpStream::connect_timeout`], never an indefinite block) and a
//!   server that sheds the connection with an `err overloaded` greeting
//!   line surfaces as a typed [`Error`] through the shared wire-code
//!   table;
//! * **send** retries *read-only* verbs ([`Request::is_read_only`]) over
//!   a fresh connection with bounded exponential backoff when the
//!   transport fails or the server sheds — torn connections under fault
//!   injection heal transparently.  `reload` and `quit` are never
//!   retried: a retry could apply a reload twice (epochs would tick
//!   twice) or kill a session the caller still holds.
//!
//! Each request is encoded into one reusable buffer and leaves in a single
//! write on a `TCP_NODELAY` socket, so no part of it waits on Nagle's
//! algorithm for the server's delayed ACK (see [`crate::server`]'s framing
//! rule).

use crate::protocol::{read_terminated_line, Request, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use xmlprop_pipeline::{Error, ErrorKind};

/// The client's timeout and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Longest a single connection attempt may block.
    pub connect_timeout: Duration,
    /// Reconnect-and-retry attempts for a failed read-only request.
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            retries: 3,
            backoff: Duration::from_millis(25),
        }
    }
}

/// One connected session: greeting consumed, ready to send requests.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The encoding buffer every request of this session reuses.
    out: Vec<u8>,
    greeting: String,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
}

impl Client {
    /// Connects to a server under the default [`ClientConfig`] and reads
    /// the greeting line.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, Error> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// [`Client::connect`] with an explicit timeout/retry policy.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, Error> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| Error::io(format!("cannot resolve server address: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(Error::io("server address resolved to nothing"));
        }
        Client::open(addrs, config)
    }

    fn open(addrs: Vec<SocketAddr>, config: ClientConfig) -> Result<Client, Error> {
        // Bounded connect: a black-holed address fails here instead of
        // pinning the caller on the platform's (minutes-long) default.
        let mut last = None;
        let connected = addrs.iter().find_map(|addr| {
            TcpStream::connect_timeout(addr, config.connect_timeout)
                .map_err(|e| last = Some(e))
                .ok()
        });
        let writer = connected.ok_or_else(|| {
            let cause = last.expect("no success implies at least one failure");
            Error::io(format!("cannot connect to server: {cause}"))
        })?;
        writer
            .set_nodelay(true)
            .map_err(|e| Error::io(format!("cannot set TCP_NODELAY: {e}")))?;
        let reader = writer
            .try_clone()
            .map_err(|e| Error::io(format!("cannot clone connection: {e}")))?;
        let mut reader = BufReader::new(reader);
        // A greeting cut short by EOF is a dead connection: a truncated
        // line must never pass for a complete one.
        let greeting = read_terminated_line(&mut reader, "reading greeting")?
            .ok_or_else(|| Error::io("server closed the connection during the greeting"))?;
        // A shed connection answers with an error line in greeting
        // position; reconstruct the typed error so callers (and the retry
        // loop) classify it through the one wire-code table.
        if let Some(rest) = greeting.strip_prefix("err ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            return Err(Error::from_wire(code, message));
        }
        if !greeting.starts_with("xmlprop/") {
            return Err(Error::protocol(format!("unexpected greeting `{greeting}`")));
        }
        Ok(Client {
            reader,
            writer,
            out: Vec::new(),
            greeting,
            addrs,
            config,
        })
    }

    /// The server's greeting line (protocol version, epoch, counts).
    pub fn greeting(&self) -> &str {
        &self.greeting
    }

    /// Sends one request and reads its response.  Transport failures and
    /// shed connections on a *read-only* request are retried over a fresh
    /// connection with exponential backoff (`backoff`, `2·backoff`, …, up
    /// to [`ClientConfig::retries`] attempts); `reload` and `quit` fail
    /// fast — retrying them could double-apply a publish or tear down a
    /// session twice.
    pub fn send(&mut self, request: &Request) -> Result<Response, Error> {
        let mut error = match self.send_once(request) {
            Ok(response) => return Ok(response),
            Err(e) => e,
        };
        if !request.is_read_only() {
            return Err(error);
        }
        for attempt in 0..self.config.retries {
            if !retryable(&error) {
                return Err(error);
            }
            std::thread::sleep(self.config.backoff * 2u32.saturating_pow(attempt));
            error = match self.reconnect().and_then(|()| self.send_once(request)) {
                Ok(response) => return Ok(response),
                Err(e) => e,
            };
        }
        Err(error)
    }

    fn send_once(&mut self, request: &Request) -> Result<Response, Error> {
        self.out.clear();
        request
            .write_to(&mut self.out)
            .and_then(|()| self.writer.write_all(&self.out))
            .map_err(|e| Error::io(format!("sending request: {e}")))?;
        Response::read_from(&mut self.reader)?
            // EOF where a response belongs is a transport failure (the
            // connection died), not a protocol violation — `io`, so the
            // read-only retry path can heal it.
            .ok_or_else(|| Error::io("server closed the connection before responding"))
    }

    /// Replaces this session with a fresh connection to the same address.
    fn reconnect(&mut self) -> Result<(), Error> {
        let fresh = Client::open(self.addrs.clone(), self.config)?;
        *self = fresh;
        Ok(())
    }
}

/// Whether a failure is worth a reconnect: transport errors (torn or
/// refused connections, timeouts) and shed connections are; everything
/// else — protocol violations, server-side request errors — is not.
fn retryable(error: &Error) -> bool {
    matches!(
        error.kind(),
        ErrorKind::Io | ErrorKind::Timeout | ErrorKind::Overloaded
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Server;
    use xmlprop_pipeline::{parse_keys_text, parse_rules_text, CorpusBundle, Jobs};

    #[test]
    fn connected_sockets_disable_nagle() {
        let bundle = CorpusBundle::prepare(
            parse_keys_text("K1: (ε, (//book, {@isbn}))\n", "keys").unwrap(),
            parse_rules_text(
                "rule book(isbn) { xb := xr//book; xi := xb/@isbn; isbn := value(xi); }\n",
                "rules",
            )
            .unwrap(),
        );
        let server = Server::bind("127.0.0.1:0", bundle, Jobs::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.writer.nodelay().ok(), Some(true));
        assert_eq!(client.reader.get_ref().nodelay().ok(), Some(true));
        let response = client.send(&Request::Ping).unwrap();
        assert_eq!(response.header, "ok ping bundle=1");
        server.shutdown();
    }
}
