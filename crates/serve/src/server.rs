//! The threaded TCP front end: accept loop, fixed worker pool, graceful
//! shutdown.
//!
//! The shape is deliberately boring: one non-blocking accept loop feeds
//! a bounded queue drained by a fixed pool of worker threads, each
//! handling one connection at a time end to end (read → route → write →
//! close). No connection reuse, no speculative reads — a slow or
//! hostile client can cost at most one worker for one read-timeout.
//!
//! Shutdown is an endpoint, not a signal: `POST /shutdown` flips the
//! stop flag after its response is written, the accept loop stops
//! accepting, the workers drain every connection already accepted, and
//! [`Server::run`] returns a [`ServeSummary`]. (A SIGTERM handler would
//! need `unsafe`/libc, which this workspace forbids — the endpoint is
//! the portable, safe-Rust graceful path, and is what the CI smoke and
//! the `perfbench` serve workload use.)

use crate::http::{read_request, write_response, Limits, RecvError};
use crate::service::{reason_phrase, Service, ServiceConfig};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Everything `repro serve` can configure.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`--addr`); `:0` picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads (`--workers`; `0` =
    /// `std::thread::available_parallelism`).
    pub workers: usize,
    /// Socket limits: header/body caps and the read timeout.
    pub limits: Limits,
    /// Compute-layer knobs: admission limit, pipeline threads, cache caps.
    pub service: ServiceConfig,
    /// Emit one structured log line per request to stderr.
    pub log: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            limits: Limits::default(),
            service: ServiceConfig::default(),
            log: true,
        }
    }
}

/// What a completed [`Server::run`] hands back, for the CLI's exit line.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Requests handled (including error responses).
    pub requests: u64,
    /// Connections that died before a full request arrived.
    pub dead_connections: u64,
}

/// A bound, not-yet-running server. Splitting bind from run lets tests
/// and load harnesses learn the ephemeral port before serving.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    service: Service,
}

/// The connection queue the accept loop feeds and the workers drain.
#[derive(Default)]
struct Queue {
    ready: Mutex<VecDeque<TcpStream>>,
    wake: Condvar,
}

impl Server {
    /// Binds `config.addr` and prepares the service (empty cache).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let service = Service::new(config.service);
        Ok(Server {
            listener,
            local_addr,
            config,
            service,
        })
    }

    /// The actually-bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until `POST /shutdown`: accept loop on the calling thread,
    /// `workers` handler threads. In-flight and already-accepted
    /// connections are drained before returning; connections arriving
    /// after the stop flag are never accepted.
    pub fn run(&self) -> std::io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        let workers = match self.config.workers {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
        let queue = Queue::default();
        let stop = AtomicBool::new(false);
        let requests = std::sync::atomic::AtomicU64::new(0);
        let dead = std::sync::atomic::AtomicU64::new(0);
        // dmc-lint: allow(s2) -- long-lived worker pool draining a shared connection queue, not an indexed fan-out-and-join; report determinism is owned by the service layer (same request -> same bytes at any worker count), which the serve_http tests pin across --workers 1/2/4
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let mut ready = queue.ready.lock().unwrap_or_else(PoisonError::into_inner);
                    let stream = loop {
                        if let Some(s) = ready.pop_front() {
                            break s;
                        }
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        ready = queue
                            .wake
                            .wait(ready)
                            .unwrap_or_else(PoisonError::into_inner);
                    };
                    drop(ready);
                    match self.handle_connection(stream, &stop) {
                        Ok(()) => {
                            requests.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(()) => {
                            dead.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // Accept loop: non-blocking so the stop flag is honored
            // within one poll interval even when no client ever connects.
            while !stop.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let mut ready = queue.ready.lock().unwrap_or_else(PoisonError::into_inner);
                        ready.push_back(stream);
                        drop(ready);
                        queue.wake.notify_one();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("[serve] accept error: {e}");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            // Drain: wake every worker; each exits once the queue is
            // empty and the stop flag is up.
            queue.wake.notify_all();
        });
        Ok(ServeSummary {
            requests: requests.load(Ordering::Relaxed),
            dead_connections: dead.load(Ordering::Relaxed),
        })
    }

    /// One connection end to end. `Ok` = a response was written (even an
    /// error response); `Err` = the peer gave us nothing to respond to.
    fn handle_connection(&self, mut stream: TcpStream, stop: &AtomicBool) -> Result<(), ()> {
        // dmc-lint: allow(d2) -- wall-clock latency for the structured access log only; never part of a response body or cache key
        let t0 = std::time::Instant::now();
        let req = match read_request(&mut stream, &self.config.limits) {
            Ok(req) => req,
            Err(e) => {
                let (status, body) = match e {
                    RecvError::Timeout => (
                        408,
                        format!(
                            "request incomplete after {:?} (read timeout)\n",
                            self.config.limits.read_timeout
                        ),
                    ),
                    RecvError::HeaderTooLarge { limit } => (
                        431,
                        format!("request head exceeds the {limit}-byte limit\n"),
                    ),
                    RecvError::BodyTooLarge { limit } => (
                        413,
                        format!("request body exceeds the {limit}-byte limit\n"),
                    ),
                    RecvError::Malformed(why) => (400, format!("malformed request: {why}\n")),
                    RecvError::Closed | RecvError::Io(_) => return Err(()),
                };
                let _ = write_response(
                    &mut stream,
                    status,
                    reason_phrase(status),
                    "text/plain; charset=utf-8",
                    &body,
                );
                if self.config.log {
                    eprintln!(
                        "[serve] ? ? -> {status} outcome=- bytes={} ms={:.1}",
                        body.len(),
                        t0.elapsed().as_secs_f64() * 1e3
                    );
                }
                return Ok(());
            }
        };
        let reply = self.service.handle(&req);
        let written = write_response(
            &mut stream,
            reply.status,
            reply.reason,
            reply.content_type,
            &reply.body,
        );
        if reply.shutdown {
            // Flip the flag only after the response bytes are out, so
            // the shutting-down client always hears the acknowledgement.
            stop.store(true, Ordering::SeqCst);
        }
        if self.config.log {
            let outcome = reply.outcome.map_or("-", |o| o.label());
            eprintln!(
                "[serve] {} {} -> {} outcome={outcome} bytes={} ms={:.1}",
                req.method,
                req.path,
                reply.status,
                reply.body.len(),
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        written.map(|_| ()).map_err(|_| ())
    }
}
