//! `sysbench check`: the four workloads at 1/50 scale, both phases, in this
//! process and in seconds — a test of the benchmark itself: it emits what
//! `BENCHMARK.json` declares, cleans up after itself, and notices a wrong
//! result.

use crate::harness::{measure, Opts, Report};
use crate::layers::trace;
use crate::spec::{Declaration, Declared, Workload, WORKLOADS};
use std::path::Path;

/// `sysbench check` divides nonzeros by this and dimensions by ten.
pub const SCALE: usize = 50;

fn name_is_valid(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Holds what a phase emitted against what the declaration lists: the same
/// names (none missing, none undeclared), the same units, finite values.
fn names_match(report: &Report, declared: &[Declared], what: &str) -> Result<(), String> {
    for m in &report.metrics {
        let d = declared
            .iter()
            .find(|d| d.name == m.name)
            .ok_or(format!("{what}: {:?} is emitted but not declared", m.name))?;
        if d.unit != m.unit || !m.value.is_finite() || !name_is_valid(&m.name) {
            return Err(format!(
                "{what}: {:?} = {} {:?} (declared unit {:?})",
                m.name, m.value, m.unit, d.unit
            ));
        }
    }
    match declared.iter().find(|d| report.value(&d.name).is_none()) {
        Some(d) => Err(format!("{what}: {:?} is declared but not emitted", d.name)),
        None => Ok(()),
    }
}

fn no_scratch_left(work_dir: &Path) -> Result<(), String> {
    let left: Vec<String> = std::fs::read_dir(work_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("tmp-"))
        .collect();
    if left.is_empty() {
        Ok(())
    } else {
        Err(format!("scratch directories left behind: {left:?}"))
    }
}

/// Runs the check with workloads shrunk by `scale` (see `Workload::scaled`).
pub fn check(work_dir: &Path, scale: usize) -> Result<(), String> {
    let decl = Declaration::built_in()?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if decl.workloads != names {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the harness runs {names:?}",
            decl.workloads
        ));
    }
    let opts = |corrupt_reference| Opts {
        seed: 1,
        seconds: 0.0,
        smoke: true,
        corrupt_reference,
        machine: None,
        work_dir: work_dir.to_path_buf(),
    };
    for w in WORKLOADS.map(|w| w.scaled(scale)) {
        let measured = measure(&w, &opts(false))?;
        names_match(&measured, &decl.end_to_end, w.name)?;
        let traced = trace(&w, &opts(false))?;
        names_match(&traced, &decl.per_layer, w.name)?;
        for r in [&measured, &traced] {
            if r.failed != 0 || r.ops == 0 {
                return Err(format!(
                    "{}: {} of {} operations failed: {:?}",
                    w.name, r.failed, r.ops, r.notes
                ));
            }
        }
        // With every reference perturbed, the result checks must fire.
        if measure(&w, &opts(true))?.failed == 0 {
            return Err(format!("{}: a corrupted reference went unnoticed", w.name));
        }
        eprintln!(
            "check: {} ok ({} + {} operations)",
            w.name, measured.ops, traced.ops
        );
    }
    no_scratch_left(work_dir)?;

    // A run that dies half-way must clean up too: this workload's grid does
    // not fit its dimensions, so the library panics after set-up.
    let broken = Workload {
        dims: [4, 4, 4],
        nnz: 16,
        ..WORKLOADS[0]
    };
    eprintln!("check: provoking a panic to see the scratch directory go (a panic message follows)");
    let died = std::panic::catch_unwind(|| measure(&broken, &opts(false)));
    if matches!(died, Ok(Ok(_))) {
        return Err("the broken workload ran to completion".into());
    }
    no_scratch_left(work_dir)
}
