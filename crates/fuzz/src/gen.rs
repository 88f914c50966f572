//! Structure-aware generators: adversarial tensors and mutated `.tns`
//! byte streams.
//!
//! Each tensor class targets a boundary the kernels or the tuner have
//! historically mishandled elsewhere: empty tensors, degenerate (length-0
//! or length-1) modes, all-duplicate coordinates, hyper-sparse long-tail
//! dimensions, ranks straddling the register-block width, and clustered
//! dense blocks (blocks on both sides of the per-block loop choice). The
//! `.tns` mutator starts from a well-formed file and injects the
//! malformations the parser must reject (or survive) without panicking.

use crate::rng::FuzzRng;
use tenblock_tensor::{CooTensor, Entry, Idx, NMODES};

/// Ranks exercised by the differential runner: 0 (no columns), 1, and the
/// register-block boundary 16 with its neighbors, plus a non-multiple well
/// above it.
pub const RANKS: [usize; 6] = [0, 1, 15, 16, 17, 37];

/// One generated differential-fuzzing case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Generator class, for triage (`empty`, `all-duplicates`, …).
    pub label: &'static str,
    /// The tensor under test.
    pub coo: CooTensor,
    /// Factor-matrix rank for this case.
    pub rank: usize,
}

/// Random entries strictly inside `dims` (empty when any mode is 0).
fn entries_in(rng: &mut FuzzRng, dims: [usize; NMODES], n: usize) -> Vec<Entry> {
    if dims.contains(&0) {
        return Vec::new();
    }
    (0..n)
        .map(|_| Entry {
            idx: std::array::from_fn(|m| rng.below(dims[m]) as Idx),
            val: rng.signed_unit(),
        })
        .collect()
}

/// Draws one adversarial tensor case. Deterministic in the RNG stream.
///
/// Dimensions are bounded (largest mode ≤ 4096) so the differential runner
/// can allocate `dim x rank` factor matrices for every case; unbounded
/// coordinates are the `.tns` mutator's job and stay in the parse stage.
pub fn arb_case(rng: &mut FuzzRng) -> FuzzCase {
    let rank = *rng.pick(&RANKS);
    let (label, coo) = match rng.below(9) {
        0 => {
            // Empty tensor; modes may be zero-length.
            let dims = std::array::from_fn(|_| rng.below(6));
            ("empty", CooTensor::empty(dims))
        }
        1 => {
            // Single slice: mode 0 has exactly one index.
            let dims = [1, 1 + rng.below(12), 1 + rng.below(12)];
            let n = rng.below(40);
            let entries = entries_in(rng, dims, n);
            ("single-slice", CooTensor::from_entries(dims, entries))
        }
        2 => {
            // Single fiber: modes 1 and 2 have exactly one index.
            let dims = [1 + rng.below(24), 1, 1];
            let n = rng.below(40);
            let entries = entries_in(rng, dims, n);
            ("single-fiber", CooTensor::from_entries(dims, entries))
        }
        3 => {
            // Every entry shares one coordinate: construction must coalesce
            // them into a single nonzero by summing.
            let dims = std::array::from_fn(|_| 1 + rng.below(8));
            let idx = std::array::from_fn(|m| rng.below(dims[m]) as Idx);
            let n = 1 + rng.below(50);
            let entries = (0..n)
                .map(|_| Entry {
                    idx,
                    val: rng.signed_unit(),
                })
                .collect();
            ("all-duplicates", CooTensor::from_entries(dims, entries))
        }
        4 => {
            // Hyper-sparse long tail: one mode far longer than its nonzero
            // count, with entries clustered at the far end.
            let long = 16 + rng.below(4081);
            let dims = [long, 1 + rng.below(6), 1 + rng.below(6)];
            let n = 1 + rng.below(30);
            let mut entries = entries_in(rng, dims, n);
            for e in entries.iter_mut().take(n / 2) {
                e.idx[0] = (long - 1 - rng.below(8.min(long))) as Idx;
            }
            ("hyper-sparse", CooTensor::from_entries(dims, entries))
        }
        5 => {
            // Tiny but dense: most cells occupied.
            let dims = std::array::from_fn(|_| 1 + rng.below(4));
            let n = dims.iter().product::<usize>() * 2;
            let entries = entries_in(rng, dims, n);
            ("tiny-dense", CooTensor::from_entries(dims, entries))
        }
        6 => {
            // Plain uniform small tensor — the control group.
            let dims = std::array::from_fn(|_| 1 + rng.below(24));
            let n = rng.below(200);
            let entries = entries_in(rng, dims, n);
            ("uniform", CooTensor::from_entries(dims, entries))
        }
        7 => {
            // Mode lengths straddling the register-block width (16).
            let dims = std::array::from_fn(|_| 15 + rng.below(4));
            let n = rng.below(120);
            let entries = entries_in(rng, dims, n);
            ("reg-block-edge", CooTensor::from_entries(dims, entries))
        }
        _ => {
            // Clustered blocks: a few dense boxes on a sparse background —
            // blocks whose fibers pay for the register loop next to blocks
            // that run the accumulator loop.
            let dims: [usize; NMODES] = std::array::from_fn(|_| 8 + rng.below(57));
            let background = rng.below(25);
            let mut entries = entries_in(rng, dims, background);
            for _ in 0..1 + rng.below(4) {
                let side: [usize; NMODES] = std::array::from_fn(|m| 1 + rng.below(dims[m].min(6)));
                let base: [usize; NMODES] =
                    std::array::from_fn(|m| rng.below(dims[m] - side[m] + 1));
                for i in 0..side[0] {
                    for j in 0..side[1] {
                        for k in 0..side[2] {
                            if rng.below(4) != 0 {
                                entries.push(Entry {
                                    idx: [
                                        (base[0] + i) as Idx,
                                        (base[1] + j) as Idx,
                                        (base[2] + k) as Idx,
                                    ],
                                    val: rng.signed_unit(),
                                });
                            }
                        }
                    }
                }
            }
            ("clustered-blocks", CooTensor::from_entries(dims, entries))
        }
    };
    FuzzCase { label, coo, rank }
}

/// Renders a tensor as FROSTT `.tns` text (the repro format).
pub fn render_tns(coo: &CooTensor) -> String {
    let mut s = String::new();
    s.push_str(&format!("# dims {:?} nnz {}\n", coo.dims(), coo.nnz()));
    for e in coo.entries() {
        s.push_str(&format!(
            "{} {} {} {}\n",
            e.idx[0] as u64 + 1,
            e.idx[1] as u64 + 1,
            e.idx[2] as u64 + 1,
            e.val
        ));
    }
    s
}

/// Malformations injected into `.tns` text. The parser must turn every one
/// of these into `Ok` or a typed `TnsError` — never a panic.
const BAD_VALUES: [&str; 7] = ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "abc"];
const BAD_COORDS: [&str; 6] = [
    "0",
    "-3",
    "4294967297",           // Idx::MAX + 2 (1-based): must be rejected
    "18446744073709551616", // u64::MAX + 1: integer parse failure
    "4294967296",           // Idx::MAX + 1 (1-based): the largest legal coordinate
    "99999999999",
];

/// Produces a mutated `.tns` byte stream starting from a small well-formed
/// file. Returns the mutation label and the bytes.
pub fn mutant_tns(rng: &mut FuzzRng) -> (&'static str, Vec<u8>) {
    // Seed file: a handful of valid lines.
    let n = 1 + rng.below(8);
    let mut lines: Vec<String> = (0..n)
        .map(|_| {
            format!(
                "{} {} {} {}",
                1 + rng.below(9),
                1 + rng.below(9),
                1 + rng.below(9),
                rng.signed_unit()
            )
        })
        .collect();
    let target = rng.below(lines.len());
    let (label, mut bytes) = match rng.below(10) {
        0 => {
            // Replace the value field.
            let mut f: Vec<String> = lines[target].split(' ').map(str::to_string).collect();
            f[3] = rng.pick(&BAD_VALUES).to_string();
            lines[target] = f.join(" ");
            ("bad-value", join(&lines))
        }
        1 => {
            // Replace one coordinate field.
            let mut f: Vec<String> = lines[target].split(' ').map(str::to_string).collect();
            f[rng.below(3)] = rng.pick(&BAD_COORDS).to_string();
            lines[target] = f.join(" ");
            ("bad-coord", join(&lines))
        }
        2 => {
            // Drop trailing fields from one line.
            let keep = rng.below(4);
            let f: Vec<String> = lines[target]
                .split(' ')
                .take(keep)
                .map(str::to_string)
                .collect();
            lines[target] = f.join(" ");
            ("short-line", join(&lines))
        }
        3 => {
            // Append trailing fields (a 4-mode-looking line).
            lines[target].push_str(" 7 2.5");
            ("trailing-fields", join(&lines))
        }
        4 => {
            // Duplicate a line verbatim (coalescing path).
            let dup = lines[target].clone();
            lines.push(dup);
            ("duplicate-line", join(&lines))
        }
        5 => {
            // Interleave comments and blank lines.
            lines.insert(target, String::new());
            lines.insert(target, "# injected comment".to_string());
            ("comments", join(&lines))
        }
        6 => {
            // Truncate the byte stream mid-line.
            let b = join(&lines);
            let cut = 1 + rng.below(b.len().max(2) - 1);
            ("truncated", b[..cut].to_vec())
        }
        7 => {
            // Raw non-UTF-8 bytes: a parse error naming the line.
            let mut b = join(&lines);
            b.extend_from_slice(&[0xff, 0xfe, b'1', b' ', 0x80, b'\n']);
            ("non-utf8", b)
        }
        8 => {
            // Whitespace stress: tabs-as-spaces, runs of blanks, CR endings.
            let spaced: Vec<String> = lines
                .iter()
                .map(|l| l.replace(' ', "   ").replace(' ', " \t") + "\r")
                .collect();
            ("whitespace", join(&spaced))
        }
        _ => {
            // Near-Idx::MAX coordinates. Parse-stage only: an accepted file
            // with a ~4-billion dimension must never reach kernel
            // construction (the runner's size guard enforces that).
            let big = (Idx::MAX as u64 + 1) - rng.below(3) as u64;
            lines[target] = format!("{big} 1 1 0.5");
            ("huge-coord", join(&lines))
        }
    };
    // Occasionally stack a second structural edit on top.
    if rng.below(4) == 0 {
        bytes.extend_from_slice(b"# tail comment\n\n");
    }
    (label, bytes)
}

/// Byte offsets inside an order-3 `.tnsb` v2 tile store: the shared
/// header (magic 4 + version 4 + order 4 + dims 24 + nnz 8), then the
/// grid, tile count, and 36-byte table records. The mutator edits fields
/// in place at these offsets, so a well-formed seed becomes a precisely
/// malformed one rather than random noise.
const TNSB_HEADER_END: usize = 44;
const TNSB_VERSION_AT: usize = 4;
const TNSB_NNZ_AT: usize = 36;
const TNSB_GRID_AT: usize = TNSB_HEADER_END;
const TNSB_NTILES_AT: usize = TNSB_GRID_AT + 12;
const TNSB_TABLE_AT: usize = TNSB_NTILES_AT + 8;
const TNSB_RECORD: usize = 36;

fn patch_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn patch_u64_add(b: &mut [u8], at: usize, delta: u64) {
    let old = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    b[at..at + 8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
}

/// A small well-formed tile store with at least one tile, as bytes.
fn seed_tnsb(rng: &mut FuzzRng) -> Vec<u8> {
    let dims: [usize; NMODES] = std::array::from_fn(|_| 2 + rng.below(7));
    let n = 4 + rng.below(20);
    let mut entries = entries_in(rng, dims, n);
    // Guarantee a nonzero survivor even if random duplicates coalesce to
    // zero: the store must have at least one tile for record mutations.
    entries.push(Entry {
        idx: [0, 0, 0],
        val: 1.0,
    });
    let coo = CooTensor::from_entries(dims, entries);
    let grid: [usize; NMODES] = std::array::from_fn(|m| 1 + rng.below(dims[m].min(3)));
    let mut bytes = Vec::new();
    tenblock_tensor::TileStore::write_tiles(&coo, grid, &mut bytes)
        .expect("writing to a Vec cannot fail");
    bytes
}

/// Produces a mutated `.tnsb` tile-framing byte stream starting from a
/// well-formed store. Returns the mutation label and the bytes. Every
/// mutant must come back from `TileStore::validate_bytes` as `Ok` or a
/// typed `BinError` — never a panic.
pub fn mutant_tnsb(rng: &mut FuzzRng) -> (&'static str, Vec<u8>) {
    let mut b = seed_tnsb(rng);
    let n_tiles =
        u64::from_le_bytes(b[TNSB_NTILES_AT..TNSB_NTILES_AT + 8].try_into().unwrap()) as usize;
    let table_end = TNSB_TABLE_AT + n_tiles * TNSB_RECORD;
    let rec = TNSB_TABLE_AT + rng.below(n_tiles) * TNSB_RECORD;
    match rng.below(13) {
        0 => {
            // Cut mid-table: the reader must fail typed on the short read.
            let cut = TNSB_TABLE_AT + rng.below(table_end - TNSB_TABLE_AT);
            b.truncate(cut.max(1));
            ("truncated-table", b)
        }
        1 => {
            // Cut inside the payloads: the declared extents outrun the file.
            let cut = table_end.max(b.len().saturating_sub(1 + rng.below(19)));
            b.truncate(cut);
            ("truncated-payload", b)
        }
        2 => {
            // Tile claims one more nonzero than its byte length holds.
            patch_u64_add(&mut b, rec + 12, 1);
            ("lying-nnz", b)
        }
        3 => {
            // Byte length grows without the nonzeros to match: either the
            // nnz/len consistency check or extent tiling must fire.
            patch_u64_add(&mut b, rec + 28, 20);
            ("lying-len", b)
        }
        4 => {
            // Overlapping extents: a tile's offset rewinds into its
            // predecessor (or, with one tile, before the table end).
            patch_u64_add(&mut b, rec + 20, u64::MAX); // off -= 1
            ("overlapping-extents", b)
        }
        5 => {
            // Duplicate (or non-increasing) cell ids between records.
            if n_tiles >= 2 {
                let (first, second) = b.split_at_mut(TNSB_TABLE_AT + TNSB_RECORD);
                second[..12].copy_from_slice(&first[TNSB_TABLE_AT..TNSB_TABLE_AT + 12]);
            } else {
                // Single tile: make its cell id non-zero-minimal garbage
                // by pointing at the last grid cell twice over.
                patch_u32(&mut b, TNSB_TABLE_AT, u32::MAX);
            }
            ("duplicate-cell", b)
        }
        6 => {
            // Cell coordinate outside the grid.
            patch_u32(&mut b, rec + 4 * rng.below(3), u32::MAX);
            ("cell-out-of-range", b)
        }
        7 => {
            // Grid axis of zero, or far beyond the dimension.
            let at = TNSB_GRID_AT + 4 * rng.below(3);
            patch_u32(&mut b, at, if rng.below(2) == 0 { 0 } else { 0x7fff_ffff });
            ("bad-grid", b)
        }
        8 => {
            // Header nnz disagrees with the per-tile sum.
            patch_u64_add(&mut b, TNSB_NNZ_AT, 1);
            ("header-nnz-mismatch", b)
        }
        9 => {
            // Wrong payload version under a valid header (v1 bytes are not
            // a tile store; v0/v3 are unknown).
            patch_u32(&mut b, TNSB_VERSION_AT, *rng.pick(&[0u32, 1, 3, 99]));
            ("bad-version", b)
        }
        10 => {
            // Trailing garbage after the last declared extent.
            let junk = 1 + rng.below(24);
            for _ in 0..junk {
                b.push(rng.below(256) as u8);
            }
            ("trailing-garbage", b)
        }
        11 => {
            // Local coordinate outside its tile's span: the payload decode
            // must reject it (first local of the first tile's first entry).
            let off = u64::from_le_bytes(
                b[TNSB_TABLE_AT + 20..TNSB_TABLE_AT + 28]
                    .try_into()
                    .unwrap(),
            ) as usize;
            if off + 4 <= b.len() {
                patch_u32(&mut b, off, u32::MAX);
            }
            ("local-out-of-span", b)
        }
        _ => {
            // Single random bit flip anywhere: may survive (a value bit)
            // or trip any check, but must never panic.
            let at = rng.below(b.len());
            b[at] ^= 1 << rng.below(8);
            ("bit-flip", b)
        }
    }
}

fn join(lines: &[String]) -> Vec<u8> {
    let mut b = Vec::new();
    for l in lines {
        b.extend_from_slice(l.as_bytes());
        b.push(b'\n');
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_well_formed() {
        let mut a = FuzzRng::new(9);
        let mut b = FuzzRng::new(9);
        for _ in 0..200 {
            let ca = arb_case(&mut a);
            let cb = arb_case(&mut b);
            assert_eq!(ca.coo, cb.coo);
            assert_eq!(ca.rank, cb.rank);
            assert!(RANKS.contains(&ca.rank));
            assert!(ca.coo.dims().iter().all(|&d| d <= 4096));
            // Constructor invariant: every coordinate in range.
            for e in ca.coo.entries() {
                for m in 0..NMODES {
                    assert!((e.idx[m] as usize) < ca.coo.dims()[m]);
                }
            }
        }
    }

    #[test]
    fn all_classes_appear() {
        let mut rng = FuzzRng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            seen.insert(arb_case(&mut rng).label);
        }
        assert!(seen.len() >= 8, "only saw {seen:?}");
    }

    #[test]
    fn render_roundtrips_through_the_parser() {
        let mut rng = FuzzRng::new(11);
        for _ in 0..50 {
            let case = arb_case(&mut rng);
            if case.coo.nnz() == 0 {
                continue; // dims are not encoded in .tns text
            }
            let text = render_tns(&case.coo);
            let back = tenblock_tensor::io::read_tns(text.as_bytes()).unwrap();
            assert_eq!(back.nnz(), case.coo.nnz());
            assert_eq!(back.entries(), case.coo.entries());
        }
    }

    #[test]
    fn mutants_are_deterministic() {
        let mut a = FuzzRng::new(21);
        let mut b = FuzzRng::new(21);
        for _ in 0..100 {
            assert_eq!(mutant_tns(&mut a), mutant_tns(&mut b));
            assert_eq!(mutant_tnsb(&mut a), mutant_tnsb(&mut b));
        }
    }

    #[test]
    fn tnsb_seed_is_well_formed_and_every_class_appears() {
        let mut rng = FuzzRng::new(5);
        // The unmutated seed must validate: mutants start from health.
        for _ in 0..20 {
            let bytes = seed_tnsb(&mut rng);
            tenblock_tensor::TileStore::validate_bytes(&bytes).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let (label, bytes) = mutant_tnsb(&mut rng);
            seen.insert(label);
            // Never panics; outcome is Ok or a typed BinError.
            let _ = tenblock_tensor::TileStore::validate_bytes(&bytes);
        }
        assert!(seen.len() >= 12, "only saw {seen:?}");
    }

    #[test]
    fn targeted_tnsb_classes_are_rejected() {
        // Classes that break structure (everything except bit flips, which
        // may land in value bytes) must come back as typed errors.
        let mut rng = FuzzRng::new(77);
        for _ in 0..300 {
            let (label, bytes) = mutant_tnsb(&mut rng);
            if label == "bit-flip" {
                continue;
            }
            assert!(
                tenblock_tensor::TileStore::validate_bytes(&bytes).is_err(),
                "{label} mutant was accepted"
            );
        }
    }
}
