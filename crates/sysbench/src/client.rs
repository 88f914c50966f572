//! A serve-protocol client: one JSON object per line over TCP, parsed with
//! the harness's own reader. It knows nothing of `tenblock_serve` types.

use crate::json::Json;
use crate::stats::timed;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No request of any workload takes a tenth of this; a server that stops
/// answering becomes an error instead of a hung benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(150);

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|()| writer.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    /// One round trip. Any response that is not `"ok":true,"v":1` is an
    /// error carrying the server's code (`queue-full` included: a refusal
    /// is a failed operation here).
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        let line = format!("{req}\n");
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let resp = Json::parse(&resp).map_err(|e| format!("response is not JSON: {e}"))?;
        let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
        let v1 = resp.get("v").and_then(Json::as_f64) == Some(1.0);
        if !ok || !v1 {
            return Err(format!("refused: {resp}"));
        }
        Ok(resp)
    }

    /// A job request with `"wait":true`; returns the job's `result` object
    /// and the round-trip seconds, or an error unless the job is `done`.
    pub fn job(&mut self, req: &Json) -> Result<(Json, f64), String> {
        let (resp, secs) = timed(|| self.request(req));
        let resp = resp?;
        match (resp.get("state").and_then(Json::as_str), resp.get("result")) {
            (Some("done"), Some(result)) => Ok((result.clone(), secs)),
            _ => Err(format!("job did not finish: {resp}")),
        }
    }
}

pub fn cmd(name: &str) -> Json {
    Json::obj([("cmd", Json::str(name))])
}

pub fn load(handle: &str, path: &std::path::Path) -> Json {
    Json::obj([
        ("cmd", Json::str("load")),
        ("name", Json::str(handle)),
        ("path", Json::str(path.to_string_lossy())),
    ])
}

pub fn decompose(handle: &str, rank: usize, iters: usize) -> Json {
    Json::obj([
        ("cmd", Json::str("decompose")),
        ("tensor", Json::str(handle)),
        ("method", Json::str("als")),
        ("kernel", Json::str("mbrankb")),
        ("rank", Json::Num(rank as f64)),
        ("iters", Json::Num(iters as f64)),
        ("wait", Json::Bool(true)),
    ])
}

pub fn mttkrp(handle: &str, mode: usize, rank: usize) -> Json {
    Json::obj([
        ("cmd", Json::str("mttkrp")),
        ("tensor", Json::str(handle)),
        ("mode", Json::Num(mode as f64)),
        ("kernel", Json::str("mbrankb")),
        ("rank", Json::Num(rank as f64)),
        ("reps", Json::Num(1.0)),
        ("wait", Json::Bool(true)),
    ])
}
