//! The fiber sort: one stable, linear-time definition of the `(slice, k, j)`
//! entry order every fibered layout and the streaming driver consume.
//!
//! The paper treats putting a block's nonzeros into fiber order as one-off
//! preprocessing (§V, Algorithm 2). Here it is least-significant-digit
//! counting passes over `j`, then `k`, then `slice`:
//!
//! * a digit is at most [`MAX_DIGIT_BITS`] wide, so no histogram exceeds
//!   `1 << 16` counters whatever the key extent, and the number of passes
//!   comes from the extents the caller already knows (a component of
//!   extent ≤ 1 costs none);
//! * records are *moved* between two caller-owned buffers — there is no
//!   index vector and no gather;
//! * every pass is stable, so records with equal keys keep their input
//!   order. `CooTensor` coordinates are unique and never tie; the tiles of
//!   an untrusted `.tnsb` store may, and then stream in stored order;
//! * stability also makes order that is already there free: when the
//!   input is lexicographically sorted by *some* order of the three key
//!   components (COO entries are, by `(i, j, k)`; so is a stored tile),
//!   the passes of the trailing components that order already settles are
//!   skipped — a linear-time remap between modes instead of a re-sort. The
//!   order is checked on the records, never taken on trust.
//!
//! Counting passes over a million scattered records miss the cache on
//! every move and are no faster than a comparison sort. The sort therefore
//! has two levels ([`FiberSorter::sort_runs`]): one counting pass buckets
//! the records into runs (by grid cell, [`sort_into_cells`], or by slice
//! range when there is no grid, [`FiberSorter::sort_by_ranges`]), and each
//! run is then sorted while it is cache resident. A streamed tile is
//! usually one such run ([`FiberSorter::sort_tile`]).

use crate::io_bin::BinError;
use crate::{Entry, NMODES};

/// Widest digit of a counting pass.
pub const MAX_DIGIT_BITS: u32 = 16;

/// Most runs one bucketing pass may create (its histogram has one counter
/// per run).
pub const MAX_RUNS: usize = 1 << MAX_DIGIT_BITS;

/// Byte size of a run that stays cache resident through its passes.
const RUN_BYTES: usize = 1 << 20;

/// The fiber key of a kernel-axis coordinate `[slice, j, k]`, most
/// significant component first: slice, then fiber (`k`), then the position
/// within the fiber (`j`).
#[inline]
pub fn fiber_key(c: [u32; NMODES]) -> [u64; NMODES] {
    [c[0] as u64, c[2] as u64, c[1] as u64]
}

/// Digit width for a run of `n` records: wide enough that a component
/// takes few passes, narrow enough that zeroing and scanning the histogram
/// stays proportional to moving the records.
fn digit_bits(n: usize) -> u32 {
    (usize::BITS - n.leading_zeros() + 2).clamp(4, MAX_DIGIT_BITS)
}

/// One digit of one key component.
#[derive(Debug, Clone, Copy)]
struct Plane {
    comp: usize,
    shift: u32,
    mask: u64,
    /// Distinct digit values: `mask + 1` below a component's top digit,
    /// exact for the top one.
    buckets: usize,
}

impl Plane {
    #[inline]
    fn digit(&self, v: u64) -> usize {
        ((v >> self.shift) & self.mask) as usize
    }
}

/// The passes sorting keys below `extents` (most significant component
/// first), least significant digit first.
fn planes<const N: usize>(extents: [u64; N], width: u32) -> impl Iterator<Item = Plane> {
    let mask = (1u64 << width) - 1;
    (0..N).rev().flat_map(move |comp| {
        let top = extents[comp].saturating_sub(1);
        let bits = u64::BITS - top.leading_zeros();
        (0..bits).step_by(width as usize).map(move |shift| Plane {
            comp,
            shift,
            mask,
            buckets: (top >> shift).min(mask) as usize + 1,
        })
    })
}

/// The six significance orders of the three fiber-key components.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// For each outcome of comparing two consecutive keys component by
/// component (base-3 digits, component 0 first: 0 less, 1 equal, 2
/// greater), the [`ORDERS`] under which the pair is non-decreasing: those
/// whose first unequal component is a "less".
const PAIR_ORDERS: [u8; 27] = {
    let mut table = [0u8; 27];
    let mut code = 0;
    while code < 27 {
        let cmp = [code / 9, code / 3 % 3, code % 3];
        let mut bit = 0;
        while bit < ORDERS.len() {
            let o = ORDERS[bit];
            let first_unequal = if cmp[o[0]] != 1 {
                cmp[o[0]]
            } else if cmp[o[1]] != 1 {
                cmp[o[1]]
            } else {
                cmp[o[2]]
            };
            if first_unequal != 2 {
                table[code] |= 1 << bit;
            }
            bit += 1;
        }
        code += 1;
    }
    table
};

/// Which of [`ORDERS`] a sequence of fiber keys has been lexicographically
/// non-decreasing under so far (one bit each).
struct Presorted(u8);

impl Presorted {
    /// Before any of `n` keys has been seen: every order still holds
    /// (none does for an empty sequence, which needs no verdict).
    fn new(n: usize) -> Self {
        Presorted(if n > 0 { (1 << ORDERS.len()) - 1 } else { 0 })
    }

    #[inline]
    fn observe(&mut self, prev: [u64; 3], cur: [u64; 3]) {
        let cmp = |c: usize| (prev[c] >= cur[c]) as usize + (prev[c] > cur[c]) as usize;
        self.0 &= PAIR_ORDERS[cmp(0) * 9 + cmp(1) * 3 + cmp(2)];
    }

    /// How many trailing key components need no pass. Stable passes over
    /// the leading components leave records that tie on them in input
    /// order; under any of the orders that is sorted by the last
    /// component, under one that ranks `k` before `j` by both, and under
    /// the key's own order the input is sorted already.
    fn settled(&self) -> usize {
        let holds = |bit: usize| self.0 & (1 << bit) != 0;
        if holds(0) {
            3
        } else if holds(2) || holds(3) {
            2
        } else if self.0 != 0 {
            1
        } else {
            0
        }
    }
}

/// Reusable histogram storage for the counting passes, so a stream of
/// tiles (or of runs) allocates nothing once warm.
#[derive(Debug, Default)]
pub struct FiberSorter {
    hist: Vec<usize>,
    ends: Vec<usize>,
}

impl FiberSorter {
    /// A sorter with no storage yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts the digits `digit(i) < buckets` of `n` records.
    fn count(&mut self, n: usize, buckets: usize, digit: impl Fn(usize) -> usize) {
        self.hist.clear();
        self.hist.resize(buckets, 0);
        let hist = self.hist.as_mut_slice();
        for i in 0..n {
            hist[digit(i)] += 1;
        }
    }

    /// The stable move of one counting pass: `self.hist[d]` holds how many
    /// of the `n` records have digit `d`; record `i` goes to the next free
    /// slot of bucket `digit(i)` by `place(i, slot)`. Afterwards
    /// `self.hist[d]` is the end offset of bucket `d`.
    fn scatter(
        &mut self,
        n: usize,
        digit: impl Fn(usize) -> usize,
        mut place: impl FnMut(usize, usize),
    ) {
        let hist = self.hist.as_mut_slice();
        let mut start = 0;
        for h in hist.iter_mut() {
            start += std::mem::replace(h, start);
        }
        for i in 0..n {
            let slot = &mut hist[digit(i)];
            place(i, *slot);
            *slot += 1;
        }
    }

    /// Sorts the cache-resident run `a` by `key(record) - base`, every
    /// component of which must be below `extents`, skipping the last
    /// `settled` components; `b` is the second buffer of the same length.
    /// Returns `true` when the sorted run ended in `b`.
    fn sort_run<'r, T: Copy, const N: usize>(
        &mut self,
        mut a: &'r mut [T],
        mut b: &'r mut [T],
        base: [u64; N],
        extents: [u64; N],
        settled: usize,
        key: &impl Fn(&T) -> [u64; N],
    ) -> bool {
        let mut in_b = false;
        for pl in planes(extents, digit_bits(a.len())).filter(|pl| pl.comp + settled < N) {
            let digit = |i: usize| pl.digit(key(&a[i])[pl.comp] - base[pl.comp]);
            self.count(a.len(), pl.buckets, digit);
            self.scatter(a.len(), digit, |i, p| b[p] = a[i]);
            std::mem::swap(&mut a, &mut b);
            in_b = !in_b;
        }
        in_b
    }

    /// The two-level sort. Record `i` of `n` is `load(i)` and belongs to
    /// run `run_of(i) < n_runs` (`n_runs ≤` [`MAX_RUNS`]); one counting
    /// pass moves the records into their runs, then each run is sorted by
    /// `key(record) - base_of(run)`, whose components must be below
    /// `extents` and whose last three are the fiber key, against a second
    /// buffer as long as the longest run. Returns the sorted records and
    /// each run's end offset.
    ///
    /// # Panics
    /// Panics when a run index or key component is out of its range — a
    /// caller bug; the records come from validated in-memory tensors.
    #[allow(clippy::too_many_arguments)]
    pub fn sort_runs<T: Copy, const N: usize>(
        &mut self,
        n: usize,
        load: impl Fn(usize) -> T,
        n_runs: usize,
        run_of: impl Fn(usize) -> usize,
        base_of: impl Fn(usize) -> [u64; N],
        extents: [u64; N],
        key: impl Fn(&T) -> [u64; N],
    ) -> (Vec<T>, &[usize]) {
        const { assert!(N >= 3, "the key ends in the three fiber components") };
        assert!(n_runs <= MAX_RUNS, "{n_runs} runs exceed one histogram");
        let fiber = |t: &T| {
            let k = key(t);
            [k[N - 3], k[N - 2], k[N - 1]]
        };
        // A run is a subsequence of the input, so whatever order the input
        // is in, every run is in too.
        let mut order = Presorted::new(n);
        let mut prev = [0; 3];
        self.hist.clear();
        self.hist.resize(n_runs, 0);
        for i in 0..n {
            self.hist[run_of(i)] += 1;
            if order.0 != 0 {
                let cur = fiber(&load(i));
                order.observe(prev, cur);
                prev = cur;
            }
        }
        let mut a = Vec::new();
        if n > 0 {
            a.resize(n, load(0));
            let dst = a.as_mut_slice();
            self.scatter(n, &run_of, |i, p| dst[p] = load(i));
        }
        std::mem::swap(&mut self.hist, &mut self.ends);
        let longest = run_lens(&self.ends).max().unwrap_or(0);
        let mut b = a[..longest].to_vec();
        let mut start = 0;
        for run in 0..n_runs {
            let end = self.ends[run];
            if end - start < 2 {
                start = end;
                continue;
            }
            let (run_a, run_b) = (&mut a[start..end], &mut b[..end - start]);
            let in_b = self.sort_run(run_a, run_b, base_of(run), extents, order.settled(), &key);
            if in_b && n_runs == 1 {
                // The only run is the whole of both buffers: trade them.
                std::mem::swap(&mut a, &mut b);
            } else if in_b {
                run_a.copy_from_slice(run_b);
            }
            start = end;
        }
        (a, &self.ends)
    }

    /// Sorts the `n` records `load(i)` by their fiber `key` (components
    /// below `extents`) through [`Self::sort_runs`], the runs being equal
    /// power-of-two ranges of the slice component.
    pub fn sort_by_ranges<T: Copy>(
        &mut self,
        n: usize,
        load: impl Fn(usize) -> T,
        extents: [u64; NMODES],
        key: impl Fn(&T) -> [u64; NMODES],
    ) -> Vec<T> {
        let top = extents[0].saturating_sub(1);
        let want = (n * std::mem::size_of::<T>() / RUN_BYTES).clamp(1, MAX_RUNS) as u64;
        let shift = (u64::BITS - top.leading_zeros())
            .saturating_sub(want.ilog2())
            .min(u64::BITS - 1);
        self.sort_runs(
            n,
            &load,
            (top >> shift) as usize + 1,
            |i| (key(&load(i))[0] >> shift) as usize,
            |run| [(run as u64) << shift, 0, 0],
            [1 << shift, extents[1], extents[2]],
            &key,
        )
        .0
    }

    /// Fiber-sorts one streamed tile: `locals`/`vals` are its entries in
    /// *original* mode axes and any order, `perm` the kernel orientation,
    /// `spans` the tile's extent per *kernel* axis. A tile is one run, and
    /// the source columns and `out` are its two buffers: the first
    /// counting pass permutes the records into kernel axes as it moves
    /// them into `out`, later passes move them back and forth, and the
    /// sorted `[slice, j, k]` offsets and values end in `out` (by a trade
    /// of the columns when the last pass went the other way). What is left
    /// in `locals`/`vals` is scratch; everything keeps its capacity for
    /// the next tile.
    ///
    /// This is an input boundary: the passes index histograms by offset,
    /// so every local offset is first held against its span and anything
    /// outside comes back as a typed [`BinError::Format`], whichever
    /// `TensorSource` produced it.
    pub fn sort_tile(
        &mut self,
        locals: &mut Vec<[u32; NMODES]>,
        vals: &mut Vec<f64>,
        perm: [usize; NMODES],
        spans: [usize; NMODES],
        out: &mut FiberCols,
    ) -> Result<(), BinError> {
        let n = locals.len();
        if vals.len() != n {
            return Err(BinError::Format(format!(
                "tile has {n} coordinates but {} values",
                vals.len()
            )));
        }
        let to_kernel = |l: [u32; NMODES]| [l[perm[0]], l[perm[1]], l[perm[2]]];
        let inside = |o: [u32; NMODES]| {
            ((o[0] as usize) < spans[0])
                & ((o[1] as usize) < spans[1])
                & ((o[2] as usize) < spans[2])
        };
        let mut order = Presorted::new(n);
        let mut all_inside = true;
        let mut prev = [0; NMODES];
        for &l in locals.iter() {
            let o = to_kernel(l);
            all_inside &= inside(o);
            if order.0 != 0 {
                let cur = fiber_key(o);
                order.observe(prev, cur);
                prev = cur;
            }
        }
        if !all_inside {
            let bad = locals.iter().position(|&l| !inside(to_kernel(l)));
            return Err(BinError::Format(format!(
                "tile entry {bad:?}: a local offset lies outside the tile's spans {spans:?}"
            )));
        }
        out.offs.resize(n, [0; NMODES]);
        out.vals.resize(n, 0.0);
        let extents = [spans[0] as u64, spans[2] as u64, spans[1] as u64];
        let mut passes = 0;
        for pl in planes(extents, digit_bits(n)).filter(|pl| pl.comp + order.settled() < NMODES) {
            // The kernel axis behind key component `comp` ([`fiber_key`]).
            let ax = [0, 2, 1][pl.comp];
            if passes == 0 {
                // Out of the source, into kernel axes.
                let (src, src_vals) = (locals.as_slice(), vals.as_slice());
                let digit = |i: usize| pl.digit(src[i][perm[ax]] as u64);
                let (dst, dst_vals) = (out.offs.as_mut_slice(), out.vals.as_mut_slice());
                self.count(n, pl.buckets, digit);
                self.scatter(n, digit, |i, p| {
                    dst[p] = to_kernel(src[i]);
                    dst_vals[p] = src_vals[i];
                });
            } else {
                // The source columns are spent: they are the other buffer.
                let (src, src_vals) = (out.offs.as_slice(), out.vals.as_slice());
                let digit = |i: usize| pl.digit(src[i][ax] as u64);
                let (dst, dst_vals) = (locals.as_mut_slice(), vals.as_mut_slice());
                self.count(n, pl.buckets, digit);
                self.scatter(n, digit, |i, p| {
                    dst[p] = src[i];
                    dst_vals[p] = src_vals[i];
                });
                std::mem::swap(locals, &mut out.offs);
                std::mem::swap(vals, &mut out.vals);
            }
            passes += 1;
        }
        if passes == 0 {
            for (dst, &l) in out.offs.iter_mut().zip(locals.iter()) {
                *dst = to_kernel(l);
            }
            out.vals.copy_from_slice(vals);
        }
        Ok(())
    }
}

/// Lengths of the runs whose end offsets are `ends`.
fn run_lens(ends: &[usize]) -> impl Iterator<Item = usize> + '_ {
    ends.iter().scan(0, |start, &end| {
        let len = end - *start;
        *start = end;
        Some(len)
    })
}

/// A tile's entries in kernel axes and fiber order, as the two columns the
/// BCOO micro-kernel reads.
#[derive(Debug, Default)]
pub struct FiberCols {
    /// Block-local `[slice, j, k]` offsets.
    pub offs: Vec<[u32; NMODES]>,
    /// Values, parallel to `offs`.
    pub vals: Vec<f64>,
}

impl FiberCols {
    /// Empty columns with room for `nnz` entries.
    pub fn with_capacity(nnz: usize) -> Self {
        FiberCols {
            offs: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }
}

/// `entries` (coordinates below `dims`) in the `(slice, k, j)` fiber order
/// of the orientation `perm`: the two-level sort over slice ranges.
pub fn fiber_sorted(dims: [usize; NMODES], perm: [usize; NMODES], entries: &[Entry]) -> Vec<Entry> {
    FiberSorter::new().sort_by_ranges(
        entries.len(),
        |i| entries[i],
        [
            dims[perm[0]] as u64,
            dims[perm[2]] as u64,
            dims[perm[1]] as u64,
        ],
        |e| fiber_key([e.idx[perm[0]], e.idx[perm[1]], e.idx[perm[2]]]),
    )
}

/// Records grouped by grid cell, each cell in fiber order.
#[derive(Debug)]
pub struct CellSorted<T> {
    /// The records, cell by cell.
    pub records: Vec<T>,
    /// `(grid coordinates, end offset in records)` of every nonempty cell,
    /// in row-major cell order; a cell starts where the one before ends.
    pub cells: Vec<([usize; NMODES], usize)>,
}

/// Groups the `n` records `load(i)` — `coords(record)` being a record's
/// kernel-axis `[slice, j, k]` coordinate — by the cells of a grid
/// (`bounds[ax]` are the boundaries of kernel axis `ax`; cells are ordered
/// row-major over `(a, b, c)`) and puts each cell's records into the
/// `(slice, k, j)` fiber order: the two-level sort with one run per cell
/// and keys relative to the cell's origin. Grids of more than
/// [`MAX_RUNS`] cells share a run between neighbouring cells and sort the
/// cell id with the key.
///
/// # Panics
/// Panics if a coordinate lies outside the bounds. The caller has checked
/// that the cell count fits `u64`.
pub fn sort_into_cells<T: Copy>(
    n: usize,
    load: impl Fn(usize) -> T,
    coords: impl Fn(&T) -> [u32; NMODES],
    bounds: &[Vec<usize>; NMODES],
) -> CellSorted<T> {
    let (nb, nc) = (bounds[1].len() as u64 - 1, bounds[2].len() as u64 - 1);
    // the caller bounds the cell count to u64 (see Panics) — lint: allow(index-overflow)
    let cells = (bounds[0].len() as u64 - 1) * nb * nc;
    let per_run = cells.div_ceil(MAX_RUNS as u64).max(1);
    let one_cell_runs = per_run == 1;
    let cell_of = |t: &T| {
        let at = coords(t);
        [0, 1, 2].map(|ax| bounds[ax].partition_point(|&b| b <= at[ax] as usize) - 1)
    };
    // an id is below the cell count — lint: allow(index-overflow)
    let id_of = |[a, b, c]: [usize; NMODES]| (a as u64 * nb + b as u64) * nc + c as u64;
    let cell_at = |id: u64| {
        [
            (id / nc / nb) as usize,
            (id / nc % nb) as usize,
            (id % nc) as usize,
        ]
    };
    let runs: Vec<u16> = (0..n)
        .map(|i| (id_of(cell_of(&load(i))) / per_run) as u16)
        .collect();
    let extent = |ax: usize| {
        let widths = bounds[ax].windows(2).map(|w| w[1] - w[0]);
        let extent = if one_cell_runs {
            widths.max()
        } else {
            bounds[ax].last().copied()
        };
        extent.unwrap_or(0) as u64
    };
    let mut sorter = FiberSorter::new();
    let (records, ends) = sorter.sort_runs(
        n,
        &load,
        cells.div_ceil(per_run) as usize,
        |i| runs[i] as usize,
        |run| {
            if one_cell_runs {
                let [a, b, c] = cell_at(run as u64);
                [
                    0,
                    bounds[0][a] as u64,
                    bounds[2][c] as u64,
                    bounds[1][b] as u64,
                ]
            } else {
                [run as u64 * per_run, 0, 0, 0]
            }
        },
        [per_run, extent(0), extent(2), extent(1)],
        |t| {
            let [s, k, j] = fiber_key(coords(t));
            [if one_cell_runs { 0 } else { id_of(cell_of(t)) }, s, k, j]
        },
    );
    let cells = if one_cell_runs {
        let starts = std::iter::once(&0).chain(ends);
        (0u64..)
            .zip(starts.zip(ends))
            .filter(|(_, (start, end))| start < end)
            .map(|(id, (_, &end))| (cell_at(id), end))
            .collect()
    } else {
        let mut cells: Vec<([usize; NMODES], usize)> = Vec::new();
        for (i, t) in records.iter().enumerate() {
            match cells.last_mut() {
                Some((cell, end)) if *cell == cell_of(t) => *end = i + 1,
                _ => cells.push((cell_of(t), i + 1)),
            }
        }
        cells
    };
    CellSorted { records, cells }
}
