//! `sysbench`: the repository's system benchmark, from `.tns` bytes to fit
//! — in memory, streamed from a tile store, and served over TCP — with each
//! layer's share measured from outside. See README.md.
//!
//! ```text
//! sysbench run [--seed S] [--seconds N] [--out FILE]   every workload, both phases
//! sysbench drive --workload W --seed S --seconds N --trace 0|1   one phase of one workload
//! sysbench check                                       the benchmark's own test, 1/50 scale
//! sysbench compare A.json B.json                       B against base A, by the declared bounds
//! ```

mod check;
mod client;
mod compare;
mod harness;
mod json;
mod layers;
mod machine;
mod spec;
mod stats;

use harness::{Metric, Opts, Report};
use json::Json;
use spec::{Declaration, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `--key value` pairs after the subcommand, plus bare arguments.
struct Args {
    flags: BTreeMap<String, String>,
    bare: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut bare = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.insert(key.to_string(), value.clone());
                }
                None => bare.push(a.clone()),
            }
        }
        Ok(Args { flags, bare })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }
}

/// Where scratch files and traces go: under the build directory, which is
/// inside the checkout and already ignored by git.
fn work_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let dir = target.join("sysbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn metric_json(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit)),
        ("samples", Json::Num(m.samples as f64)),
        ("spread", Json::Num(m.spread)),
    ])
}

/// Prints a phase's report: one line per metric, the failures, a line of
/// detail for `run` to collect, and last the driver's result object.
fn print_report(report: &Report) -> Result<(), String> {
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} was not measured (value {})", m.name, m.value));
        }
        println!(
            "{:<28} {:>16.6} {:<6} n={:<4} spread={:.2}%",
            m.name,
            m.value,
            m.unit,
            m.samples,
            100.0 * m.spread
        );
    }
    for note in &report.notes {
        eprintln!("FAILED: {note}");
    }
    println!("ops {}  ops_failed {}", report.ops, report.failed);
    let detail = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), metric_json(m)));
    println!("{}", Json::obj([("detail", Json::obj(detail))]));
    let metrics = report.metrics.iter().map(|m| {
        let fields = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        (m.name.clone(), Json::obj(fields))
    });
    let result = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.ops as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    Ok(())
}

/// One phase of one workload, as the driver runs it.
fn drive(args: &Args) -> Result<ExitCode, String> {
    let name: String = args
        .get("workload")?
        .ok_or("drive: --workload is required")?;
    let w = Workload::by_name(&name).ok_or(format!("no workload named {name:?}"))?;
    let opts = Opts {
        seed: args.get("seed")?.unwrap_or(1),
        seconds: args
            .get("seconds")?
            .map_or_else(|| Declaration::built_in().map(|d| d.run_seconds), Ok)?,
        smoke: false,
        corrupt_reference: false,
        machine: args
            .flags
            .get("machine")
            .map(|m| machine::Machine::from_arg(m))
            .transpose()?,
        work_dir: work_dir()?,
    };
    let report = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => harness::measure(&w, &opts)?,
        _ => layers::trace(&w, &opts)?,
    };
    print_report(&report)?;
    Ok(ExitCode::SUCCESS)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// Runs `drive` in a fresh process, so memory high-water mark and
/// allocator state are that phase's own; echoes its metric lines and
/// returns its detail and result objects.
fn drive_child(
    w: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    m: &machine::Machine,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["drive", "--workload", w, "--trace", &trace.to_string()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--machine", &m.to_arg()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn drive: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let [shown @ .., detail, result] = &lines[..] else {
        return Err(format!(
            "{w}: drive printed no result (exit {})",
            out.status
        ));
    };
    shown.iter().for_each(|l| println!("  {l}"));
    if !out.status.success() {
        return Err(format!("{w}: drive exited with {}", out.status));
    }
    Ok((Json::parse(detail)?, Json::parse(result)?))
}

/// Every workload, both phases, one after another; prints every metric and
/// optionally writes the record `compare` reads.
fn run(args: &Args) -> Result<ExitCode, String> {
    let decl = Declaration::built_in()?;
    let seed: u64 = args.get("seed")?.unwrap_or(1);
    let seconds: f64 = args.get("seconds")?.unwrap_or(decl.run_seconds);
    println!("machine probe (STREAM triad) ...");
    let m = machine::probe(false);
    println!(
        "machine: nproc {}  last-level cache {:.1} MiB  triad arrays {:.1} MiB each  triad {:.2} GB/s ({} threads) {:.2} GB/s (1 thread)",
        m.nproc, m.llc_mb, m.array_mb, m.triad_gbs, m.nproc, m.triad_1t_gbs
    );
    let commit = commit();
    println!("commit {commit}  seed {seed}  seconds {seconds}");

    let mut workloads = BTreeMap::new();
    let mut total_failed = 0.0;
    for w in &decl.workloads {
        let mut body = BTreeMap::new();
        let (mut ops, mut failed) = (0.0, 0.0);
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            println!("{w}: {section}");
            let (detail, result) = drive_child(w, seed, seconds, trace, &m)?;
            let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            ops += count("attempted");
            failed += count("failed");
            body.insert(
                section.to_string(),
                detail.get("detail").cloned().unwrap_or(Json::Null),
            );
        }
        body.insert("ops".into(), Json::Num(ops));
        body.insert("ops_failed".into(), Json::Num(failed));
        total_failed += failed;
        workloads.insert(w.clone(), Json::Obj(body));
    }
    let record = Json::obj([
        ("schema", Json::str("tenblock-sysbench-1")),
        ("commit", Json::str(commit)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "machine",
            Json::obj([
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
                ("nproc", Json::Num(m.nproc as f64)),
                ("llc_mb", Json::Num(m.llc_mb)),
                ("triad_array_mb", Json::Num(m.array_mb)),
                ("triad_gbs", Json::Num(m.triad_gbs)),
                ("triad_1t_gbs", Json::Num(m.triad_1t_gbs)),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(path) = args.flags.get("out") {
        std::fs::write(path, format!("{record}\n")).map_err(|e| format!("write {path}: {e}"))?;
        println!("record written to {path}");
    }
    // `is_nan` too: a count that could not be read is not a pass.
    if total_failed > 0.0 || total_failed.is_nan() {
        eprintln!("sysbench: {total_failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = &args.bare[..] else {
        return Err("usage: sysbench compare A.json B.json".into());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (rows, failures) = compare::compare(&Declaration::built_in()?, &read(a)?, &read(b)?);
    compare::print_rows(&rows);
    failures.iter().for_each(|f| eprintln!("FAILED: {f}"));
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first() else {
        eprintln!("usage: sysbench run|drive|check|compare ...  (see README.md)");
        return ExitCode::from(2);
    };
    let done = Args::parse(rest).and_then(|args| match sub.as_str() {
        "run" => run(&args),
        "drive" => drive(&args),
        "compare" => compare_cmd(&args),
        "check" => check::check(&work_dir()?, check::SCALE).map(|()| {
            println!("check: ok");
            ExitCode::SUCCESS
        }),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    done.unwrap_or_else(|why| {
        eprintln!("sysbench: {why}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    /// The benchmark's own test: the four workloads, shrunk, emit exactly
    /// the declared names, clean up, and notice a wrong result. `sysbench
    /// check` runs 1/50 scale; an unoptimised test build runs the kernels
    /// some fifteen times slower, so there it is 1/500.
    #[test]
    fn check_passes() {
        let scale = crate::check::SCALE * if cfg!(debug_assertions) { 10 } else { 1 };
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"),
            std::path::PathBuf::from,
        );
        let dir = target.join("sysbench-test");
        std::fs::create_dir_all(&dir).unwrap();
        crate::check::check(&dir, scale).unwrap();
    }
}
