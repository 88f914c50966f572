//! TCP front-end: line-delimited JSON over `std::net`.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated —
//! the simplest protocol a human can drive with `nc`. Each accepted
//! connection gets its own thread (connections are long-lived sessions
//! from a handful of clients, not a web-scale fan-in, so thread-per-
//! connection is the right amount of machinery). All connections share
//! one [`Service`]; concurrency control lives in the service's scheduler
//! and registry, not in the transport.

use crate::json::Json;
use crate::plan_cache::PlanCache;
use crate::proto::{err, ErrorCode, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Job worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue_capacity: usize,
    /// Optional plan-cache file shared with the `tune`/`decompose` CLI.
    pub plan_cache_path: Option<std::path::PathBuf>,
    /// Cap on in-memory tensors; beyond it the registry spills the least
    /// recently used to on-disk tile stores. `None` keeps everything
    /// resident (no spill tier).
    pub max_resident: Option<usize>,
    /// Directory for spilled tile stores. Only consulted when
    /// `max_resident` is set; defaults to a per-process temp directory.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            plan_cache_path: None,
            max_resident: None,
            spill_dir: None,
        }
    }
}

/// A running server: an accept loop plus per-connection threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

fn handle_connection(stream: TcpStream, service: &Service) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Json::parse(&line) {
            Ok(req) => service.handle(&req),
            Err(e) => err(ErrorCode::BadRequest, format!("invalid JSON: {e}")),
        };
        let mut out = response.to_string_compact();
        out.push('\n');
        crate::sync::assert_unlocked();
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving. Returns once the listener is live; use [`Server::addr`]
    /// for the bound address.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let plans = match &config.plan_cache_path {
            Some(path) => PlanCache::open(path)?,
            None => PlanCache::in_memory(),
        };
        let registry = match config.max_resident {
            Some(cap) => {
                let dir = config.spill_dir.clone().unwrap_or_else(|| {
                    std::env::temp_dir().join(format!("tenblock-spill-{}", std::process::id()))
                });
                crate::registry::Registry::with_spill(dir, cap)
            }
            None => crate::registry::Registry::new(),
        };
        let service = Arc::new(Service::with_registry(
            config.workers,
            config.queue_capacity,
            plans,
            registry,
        ));
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            // Connection threads are detached: they exit when their client
            // hangs up, and the process-lifetime service outlives them.
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                std::thread::spawn(move || handle_connection(stream, &service));
            }
        });
        Ok(Server {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (i.e. forever, absent
    /// [`Server::shutdown`] from another thread).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting connections. Existing connections finish their
    /// in-flight request and close when the client hangs up.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // `incoming()` blocks in accept(); poke it with a throwaway
        // connection so the loop observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Json {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(&line).unwrap()
    }

    #[test]
    fn serves_over_tcp() {
        let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let r = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"cmd":"gen","name":"t","dataset":"poisson1","nnz":1000,"seed":1}"#,
        );
        assert_eq!(r.get_bool("ok"), Some(true), "{r:?}");

        let stats = roundtrip(&mut stream, &mut reader, r#"{"cmd":"stats","tensor":"t"}"#);
        assert!(stats.get_usize("nnz").unwrap() > 0);

        // Malformed line gets an error response, and the connection
        // survives for the next request.
        let bad = roundtrip(&mut stream, &mut reader, "{nope");
        assert_eq!(bad.get_str("code"), Some("bad-request"));
        let list = roundtrip(&mut stream, &mut reader, r#"{"cmd":"list"}"#);
        assert_eq!(list.get_bool("ok"), Some(true));

        server.shutdown();
    }

    #[test]
    fn job_latency_histograms_populate_over_tcp() {
        let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let r = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"cmd":"gen","name":"t","dataset":"poisson1","nnz":2000,"seed":3}"#,
        );
        assert_eq!(r.get_bool("ok"), Some(true), "{r:?}");
        let job = roundtrip(
            &mut stream,
            &mut reader,
            r#"{"cmd":"mttkrp","tensor":"t","mode":0,"kernel":"mbrankb","rank":8,"reps":2,"wait":true}"#,
        );
        assert_eq!(job.get_str("state"), Some("done"), "{job:?}");

        let m = roundtrip(&mut stream, &mut reader, r#"{"cmd":"metrics"}"#);
        let metrics = m.get("metrics").unwrap();
        for key in ["job_queue_wait", "job_run", "job_latency"] {
            let h = metrics.get(key).unwrap();
            assert!(
                h.get_usize("total").unwrap() >= 1,
                "{key} recorded nothing: {h:?}"
            );
        }

        server.shutdown();
    }
}
