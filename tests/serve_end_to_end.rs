//! End-to-end test of `tenblock-serve` over real TCP: two concurrent
//! clients drive gen → tune → decompose → metrics, proving (a) the second
//! tune of the same tensor/rank is answered from the plan cache, (b) a
//! capacity-1 queue rejects overflow with a typed `queue-full` error, and
//! (c) a hostile tensor file is refused as `invalid-tensor` while the
//! server keeps answering.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tenblock_serve::{Json, Server, ServerConfig};

/// A line-delimited JSON client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn request(&mut self, req: &str) -> Json {
        self.stream.write_all(req.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Json::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn expect_ok(&mut self, req: &str) -> Json {
        let r = self.request(req);
        assert_eq!(r.get_bool("ok"), Some(true), "request {req} failed: {r:?}");
        r
    }
}

#[test]
fn two_clients_share_tensors_and_tuned_plans() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut a = Client::connect(addr);
    a.expect_ok(r#"{"cmd":"gen","name":"t","dataset":"poisson1","nnz":2000,"seed":11}"#);

    let tune_req = r#"{"cmd":"tune","tensor":"t","rank":8,"reps":1,"max_blocks":2,"wait":true}"#;
    let first = a.expect_ok(tune_req);
    assert_eq!(first.get_str("state"), Some("done"), "{first:?}");
    assert_eq!(
        first.get("result").unwrap().get_bool("cached"),
        Some(false),
        "first tune must actually run the heuristic"
    );

    // A *different* connection tunes the same tensor/rank and decomposes;
    // the tensor and the tuned plan are shared service state, not
    // per-connection state.
    let handle = std::thread::spawn(move || {
        let mut b = Client::connect(addr);
        let second = b.expect_ok(tune_req);
        assert_eq!(second.get_str("state"), Some("done"), "{second:?}");
        assert_eq!(
            second.get("result").unwrap().get_bool("cached"),
            Some(true),
            "second tune of the same shape+rank must be a plan-cache hit"
        );
        let d = b.expect_ok(
            r#"{"cmd":"decompose","tensor":"t","method":"als","rank":8,"iters":3,"wait":true}"#,
        );
        assert_eq!(d.get_str("state"), Some("done"), "{d:?}");
        assert!(d.get("result").unwrap().get_usize("iterations").unwrap() >= 1);
    });
    // Client A keeps working while B runs: stats answer immediately from
    // the registry even with jobs in flight.
    let stats = a.expect_ok(r#"{"cmd":"stats","tensor":"t"}"#);
    assert!(stats.get_usize("nnz").unwrap() > 0);
    handle.join().expect("client B");

    let m = a.expect_ok(r#"{"cmd":"metrics"}"#);
    let metrics = m.get("metrics").unwrap();
    let jobs = metrics.get("jobs").unwrap();
    assert!(jobs.get_usize("done").unwrap() >= 3, "{metrics:?}");
    assert_eq!(jobs.get_usize("failed"), Some(0), "{metrics:?}");
    let plan_cache = metrics.get("plan_cache").unwrap();
    assert!(plan_cache.get_usize("hits").unwrap() >= 1, "{metrics:?}");
    assert_eq!(plan_cache.get_usize("misses"), Some(1), "{metrics:?}");
    assert_eq!(metrics.get_usize("tensors"), Some(1));
}

#[test]
fn capacity_one_queue_rejects_with_typed_error() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(server.addr());
    c.expect_ok(r#"{"cmd":"gen","name":"t","dataset":"poisson1","nnz":2000,"seed":3}"#);

    // Fire slow jobs without waiting until one bounces off the full
    // queue. One worker plus one slot means the third-or-so rapid submit
    // must be rejected. MTTKRP with a large fixed rep count is the slow
    // job of choice: unlike ALS it cannot converge early, so the worker
    // stays busy long enough for the cancellation below to be meaningful.
    let slow = r#"{"cmd":"mttkrp","tensor":"t","mode":0,"kernel":"splatt","rank":8,"reps":4000}"#;
    let mut queued = Vec::new();
    let mut rejection = None;
    for _ in 0..8 {
        let r = c.request(slow);
        if r.get_bool("ok") == Some(true) {
            queued.push(r.get_str("job").unwrap().to_string());
        } else {
            rejection = Some(r);
            break;
        }
    }
    let rejection = rejection.expect("queue never filled");
    assert_eq!(
        rejection.get_str("code"),
        Some("queue-full"),
        "{rejection:?}"
    );
    assert_eq!(rejection.get_str("error"), Some("job queue is full"));

    let m = c.expect_ok(r#"{"cmd":"metrics"}"#);
    let metrics = m.get("metrics").unwrap();
    assert!(metrics.get("jobs").unwrap().get_usize("rejected").unwrap() >= 1);
    assert_eq!(metrics.get("queue").unwrap().get_usize("capacity"), Some(1));

    // Cancel the queued backlog (the running job is uncancellable — that
    // path must answer with a typed bad-request, not silently succeed).
    let mut cancelled = 0;
    for job in &queued {
        let r = c.request(&format!(r#"{{"cmd":"cancel","job":"{job}"}}"#));
        match r.get_bool("ok") {
            Some(true) => cancelled += 1,
            _ => assert_eq!(r.get_str("code"), Some("bad-request"), "{r:?}"),
        }
    }
    assert!(cancelled >= 1, "at least the queued job should cancel");

    // The running job eventually finishes; its terminal status is
    // observable via job-status.
    let first = &queued[0];
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let st = c.expect_ok(&format!(r#"{{"cmd":"job-status","job":"{first}"}}"#));
        match st.get_str("state") {
            Some("done") | Some("cancelled") => break,
            Some("failed") => panic!("job failed: {st:?}"),
            _ if Instant::now() > deadline => panic!("job never finished: {st:?}"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[test]
fn hostile_tensor_files_are_refused_and_the_server_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr());
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz-corpus");
    // A 44-byte header claiming 2^40 entries (once an allocation that
    // aborted the process), and two finite duplicates whose sum is `inf`.
    for (name, file) in [
        ("claim", "nnz-beyond-payload.tnsb"),
        ("dup", "dup-overflow.tns"),
    ] {
        let r = c.request(&format!(
            r#"{{"cmd":"load","name":"{name}","path":"{}"}}"#,
            corpus.join(file).display()
        ));
        assert_eq!(r.get_str("code"), Some("invalid-tensor"), "{file}: {r:?}");
        let list = c.expect_ok(r#"{"cmd":"metrics"}"#);
        let tensors = list.get("metrics").unwrap().get_usize("tensors");
        assert_eq!(tensors, Some(0), "{file}: {list:?}");
    }
}
