//! The machine the numbers were taken on: core count, last-level cache,
//! and a STREAM-triad bandwidth probe that the kernel GB/s are set against.

use crate::stats::timed;
use std::hint::black_box;

const MIB: u64 = 1 << 20;

/// Array size when sysfs does not say how large the last-level cache is.
const FALLBACK_ARRAY_BYTES: u64 = 64 * MIB;

/// Probe results; the four `machine.*` metrics plus the array size that
/// has to be read next to `llc_mb` to judge the probe.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub nproc: usize,
    pub llc_mb: f64,
    pub array_mb: f64,
    pub triad_gbs: f64,
    pub triad_1t_gbs: f64,
}

impl Machine {
    /// `nproc,llc_mb,array_mb,triad_gbs,triad_1t_gbs`, the form in which
    /// `run` hands its one parent-side probe to the workload processes.
    pub fn to_arg(self) -> String {
        format!(
            "{},{},{},{},{}",
            self.nproc, self.llc_mb, self.array_mb, self.triad_gbs, self.triad_1t_gbs
        )
    }

    pub fn from_arg(s: &str) -> Result<Machine, String> {
        let f: Vec<f64> = s
            .split(',')
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|e| format!("--machine {t:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        match f[..] {
            [nproc, llc_mb, array_mb, triad_gbs, triad_1t_gbs] => Ok(Machine {
                nproc: nproc as usize,
                llc_mb,
                array_mb,
                triad_gbs,
                triad_1t_gbs,
            }),
            _ => Err("--machine wants five comma-separated numbers".into()),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the highest-level data or unified cache of cpu0, from sysfs.
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let (digits, unit) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let (Ok(level), Ok(n)) = (level.trim().parse::<u32>(), digits.parse::<u64>()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * unit));
        }
    }
    best.map(|(_, bytes)| bytes)
}

fn proc_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    proc_kb("/proc/self/status", "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// One triad pass `a[i] = b[i] + s*c[i]` split over `threads` threads;
/// returns GB/s counting the three arrays once each (STREAM's convention,
/// which leaves out the write-allocate read of `a`).
fn triad_gbs(a: &mut [f64], b: &[f64], c: &[f64], threads: usize) -> f64 {
    let s = black_box(3.0);
    let chunk = a.len().div_ceil(threads).max(1);
    let ((), secs) = timed(|| {
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + s * *z;
                    }
                });
            }
        });
    });
    black_box(&a[a.len() / 2]);
    (3 * 8 * a.len()) as f64 / secs / 1e9
}

/// Measures the machine. Each array is at least four times the last-level
/// cache (64 MiB when sysfs is silent) unless that would take the three
/// arrays past a quarter of `MemAvailable`; `smoke` shrinks them to 1 MiB
/// so `check` stays fast (the number it yields then means nothing).
pub fn probe(smoke: bool) -> Machine {
    let nproc = nproc();
    let llc = llc_bytes();
    let want = llc.map_or(FALLBACK_ARRAY_BYTES, |l| 4 * l);
    let cap = proc_kb("/proc/meminfo", "MemAvailable:").map_or(u64::MAX, |kb| kb * 1024 / 4 / 3);
    let array_bytes = if smoke { MIB } else { want.min(cap).max(MIB) };
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    // One warm-up (it also faults the pages in), then the best of three.
    let mut best = |threads: usize| {
        triad_gbs(&mut a, &b, &c, threads);
        (0..3)
            .map(|_| triad_gbs(&mut a, &b, &c, threads))
            .fold(0.0, f64::max)
    };
    let triad_gbs = best(nproc);
    let triad_1t_gbs = best(1);
    Machine {
        nproc,
        llc_mb: llc.map_or(0.0, |l| l as f64 / MIB as f64),
        array_mb: array_bytes as f64 / MIB as f64,
        triad_gbs,
        triad_1t_gbs,
    }
}
