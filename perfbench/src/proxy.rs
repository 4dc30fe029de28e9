//! A loopback HTTP/1.1 relay between the shard worker and the server, used
//! only by the traced run: it timestamps every exchange the worker makes
//! (lease, record post, shard done) without touching the worker's code.
//!
//! The service speaks `Content-Length`-framed HTTP only (see
//! `tats_service::http`), so a message is a head up to the blank line plus
//! exactly that many body bytes. Client connections are relayed one at a
//! time, in accept order; each one's exchanges are handed over when it
//! closes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::trace::Clock;

/// One relayed request/response pair.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub method: String,
    pub path: String,
    pub request_body: String,
    pub response_body: String,
    /// When the request's first line arrived and when the response had
    /// been written back, µs on the benchmark's clock.
    pub start_us: u64,
    pub end_us: u64,
}

/// A running relay.
pub struct Proxy {
    addr: String,
    closed: Receiver<Vec<Exchange>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Listens on an ephemeral loopback port and relays to `upstream`.
    pub fn start(upstream: &str, clock: Clock) -> io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let (tx, closed) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let upstream = upstream.to_string();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &upstream, clock, &stop, &tx))
        };
        Ok(Proxy {
            addr,
            closed,
            stop,
            thread: Some(thread),
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Blocks until the next client connection has closed and returns its
    /// exchanges (`None` if the relay died).
    pub fn next_connection(&self) -> Option<Vec<Exchange>> {
        self.closed.recv().ok()
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect(&self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &str,
    clock: Clock,
    stop: &AtomicBool,
    closed: &Sender<Vec<Exchange>>,
) {
    for client in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut exchanges = Vec::new();
        if let Ok(client) = client {
            if let Err(error) = relay(client, upstream, clock, &mut exchanges) {
                eprintln!("proxy: {error}");
            }
        }
        if closed.send(exchanges).is_err() {
            return;
        }
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn relay(
    client: TcpStream,
    upstream: &str,
    clock: Clock,
    exchanges: &mut Vec<Exchange>,
) -> io::Result<()> {
    client.set_nodelay(true)?;
    let mut client_out = client.try_clone()?;
    let mut client_in = BufReader::new(client);
    let mut server: Option<(TcpStream, BufReader<TcpStream>)> = None;
    loop {
        let mut start_us = 0;
        let Some(request) = read_message(&mut client_in, || start_us = clock.now_us())? else {
            return Ok(());
        };
        if server.is_none() {
            let stream = connect(upstream)?;
            let reader = BufReader::new(stream.try_clone()?);
            server = Some((stream, reader));
        }
        let (server_out, server_in) = server.as_mut().expect("connected above");
        server_out.write_all(&request.raw)?;
        let response = read_message(server_in, || {})?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        client_out.write_all(&response.raw)?;
        let end_us = clock.now_us();
        if response.closes {
            server = None;
        }
        let mut words = request.first_line.split_whitespace();
        exchanges.push(Exchange {
            method: words.next().unwrap_or_default().to_string(),
            path: words.next().unwrap_or_default().to_string(),
            request_body: request.body,
            response_body: response.body,
            start_us,
            end_us,
        });
    }
}

struct Message {
    raw: Vec<u8>,
    first_line: String,
    body: String,
    /// The sender announced `connection: close`.
    closes: bool,
}

/// Reads one message; `Ok(None)` on a clean close before its first byte.
/// `arrived` runs as soon as the first line is in.
fn read_message(
    reader: &mut BufReader<TcpStream>,
    mut arrived: impl FnMut(),
) -> io::Result<Option<Message>> {
    let mut raw = Vec::new();
    let mut first_line = String::new();
    let mut length = 0usize;
    let mut closes = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            if raw.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated head",
            ));
        }
        raw.extend_from_slice(line.as_bytes());
        if first_line.is_empty() {
            arrived();
            first_line = line.trim_end().to_string();
        } else if line == "\r\n" {
            break;
        } else if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                closes = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    raw.extend_from_slice(&body);
    Ok(Some(Message {
        raw,
        first_line,
        body: String::from_utf8_lossy(&body).into_owned(),
        closes,
    }))
}
