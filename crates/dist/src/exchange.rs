//! The medium-grained exchange of Section VI-D, written once: one mode-`m`
//! MTTKRP on a [`Partition4D`] (3D is `t = 1`) as a list of collectives
//! built from the partition's chunk bounds. Table III prices the list
//! ([`Exchange::secs`]); [`ExchangeKernel`] runs it on thread-ranks, whose
//! counted wire bytes are exactly [`Exchange::wire_bytes`].
//!
//! Rank `g·p₃ + cell` is 3D cell `cell` (numbered as `CellGrid::id`) of
//! strip group `g`, which computes that strip's columns only. Within a
//! strip group, the cells sharing chunk `i` of mode `n` form a mode-`n`
//! layer, and each member owns an equal sub-slice of the chunk's rows:
//!
//! 1. for each mode `n ≠ m`, an all-gather of the owned factor rows within
//!    each mode-`n` layer (then every rank runs its local MTTKRP);
//! 2. a reduce-scatter of the partial mode-`m` rows within each mode-`m`
//!    layer, leaving each rank the sums of its own rows;
//! 3. when `t > 1`, an all-gather of those rows' strips among the `t`
//!    copies of each mode-`m` layer. Each rank trades only with the ranks
//!    at its position in the other copies, but the price treats each copy
//!    as one rank moving the whole chunk: an upper bound.
//!
//! A collective costs its largest group's α–β time; the list, the sum. The
//! handoff with the caller is not counted: each rank reads the factor rows
//! it owns from the caller's matrices, and strip group 0's owners hand
//! their full-width output rows back.

use crate::comm::CommParams;
use crate::exec::LocalKernel;
use crate::msg::run_world;
use crate::part4d::Partition4D;
use std::ops::Range;
use tenblock_core::block::BlockedKernel;
use tenblock_core::{MttkrpKernel, RaceReport};
use tenblock_tensor::cell_grid::uniform_bounds;
use tenblock_tensor::{DenseMatrix, NMODES};

/// What a collective moves.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// All-gather of mode `.0`'s factor rows.
    GatherFactor(usize),
    /// Reduce-scatter (sum) of the partial output rows.
    ReduceOutput,
    /// All-gather of the summed output rows' column strips.
    GatherStrips,
}

/// One rank's block in a collective: the rows it owns, in its strip's
/// columns.
#[derive(Debug)]
struct Member {
    rank: usize,
    rows: Range<usize>,
    cols: Range<usize>,
}

/// The bytes of `members`' blocks together.
fn bytes(members: &[Member]) -> u64 {
    let each = |m: &Member| (m.rows.len() * m.cols.len() * 8) as u64;
    members.iter().map(each).sum()
}

/// One collective: the same operation, run at once in disjoint groups. A
/// group's bytes are its members' blocks together: the gathered total, or
/// the reduced buffer.
#[derive(Debug)]
struct Collective {
    kind: Kind,
    /// Parties per group. A group lists its members party by party, and a
    /// member trades with the members at its position in the other
    /// parties (with one rank per party: every other member).
    parties: usize,
    groups: Vec<Vec<Member>>,
}

impl Collective {
    /// `rank`'s member, and the members it trades with (itself included,
    /// in party order).
    fn find(&self, rank: usize) -> (&Member, Vec<&Member>) {
        let (group, k) = self
            .groups
            .iter()
            .find_map(|g| g.iter().position(|m| m.rank == rank).map(|k| (g, k)))
            .expect("every rank takes part in every collective");
        let stride = group.len() / self.parties;
        let peers = group.iter().skip(k % stride).step_by(stride).collect();
        (&group[k], peers)
    }
}

/// The collectives of one mode-`m` MTTKRP (see the module doc).
#[derive(Debug)]
pub struct Exchange {
    mode: usize,
    collectives: Vec<Collective>,
}

impl Exchange {
    /// The mode-`mode` exchange on the grid whose chunk boundaries are
    /// `bounds` (`grid[n] + 1` entries for mode `n`), with rank strips of
    /// column boundaries `strips` (`t + 1` entries).
    pub fn new(bounds: [&[usize]; NMODES], strips: &[usize], mode: usize) -> Self {
        let grid = bounds.map(|b| b.len() - 1);
        let p3: usize = grid.iter().product();
        let t = strips.len() - 1;
        let cell = |id: usize| [id / grid[2] / grid[1], id / grid[2] % grid[1], id % grid[2]];
        // Chunk `i` of mode `n` in strip group `g`: its layer's members in
        // cell order, each with an equal sub-slice of the chunk.
        let layer = |n: usize, i: usize, g: usize| -> Vec<Member> {
            let cells: Vec<usize> = (0..p3).filter(|&id| cell(id)[n] == i).collect();
            let lo = bounds[n][i];
            let own = uniform_bounds(bounds[n][i + 1] - lo, cells.len());
            let member = |(k, id): (usize, usize)| Member {
                rank: g * p3 + id,
                rows: lo + own[k]..lo + own[k + 1],
                cols: strips[g]..strips[g + 1],
            };
            cells.into_iter().enumerate().map(member).collect()
        };
        let per_layer = |kind: Kind, n: usize| Collective {
            kind,
            parties: p3 / grid[n],
            groups: (0..t)
                .flat_map(|g| (0..grid[n]).map(move |i| layer(n, i, g)))
                .collect(),
        };
        let mut collectives: Vec<Collective> = (0..NMODES)
            .filter(|&n| n != mode)
            .map(|n| per_layer(Kind::GatherFactor(n), n))
            .collect();
        collectives.push(per_layer(Kind::ReduceOutput, mode));
        if t > 1 {
            collectives.push(Collective {
                kind: Kind::GatherStrips,
                parties: t,
                groups: (0..grid[mode])
                    .map(|i| (0..t).flat_map(|g| layer(mode, i, g)).collect())
                    .collect(),
            });
        }
        Exchange { mode, collectives }
    }

    /// Modeled seconds: each collective's largest group, priced with
    /// `comm`, summed in list order.
    pub fn secs(&self, comm: &CommParams) -> f64 {
        let worst = |c: &Collective| {
            let price = |g: &Vec<Member>| match c.kind {
                Kind::ReduceOutput => comm.reduce_scatter(c.parties, bytes(g) as f64),
                _ => comm.allgather(c.parties, bytes(g) as f64),
            };
            c.groups.iter().map(price).fold(0.0, f64::max)
        };
        self.collectives.iter().map(worst).sum()
    }

    /// Bytes one run sends between ranks: each member's block goes to the
    /// `parties - 1` members it trades with.
    pub fn wire_bytes(&self) -> u64 {
        let sent = |c: &Collective| {
            (c.parties as u64 - 1) * c.groups.iter().map(|g| bytes(g)).sum::<u64>()
        };
        self.collectives.iter().map(sent).sum()
    }
}

/// Rows `rows` x columns `cols` of `m`, row-major.
fn block(m: &DenseMatrix, rows: &Range<usize>, cols: &Range<usize>) -> Vec<f64> {
    rows.clone()
        .flat_map(|i| m.row(i)[cols.clone()].iter().copied())
        .collect()
}

/// Writes `data` (rows `rows` x columns `cols`, row-major) into `m`.
fn put(m: &mut DenseMatrix, rows: &Range<usize>, cols: &Range<usize>, data: &[f64]) {
    for (i, row) in rows.clone().zip(data.chunks_exact(cols.len())) {
        m.row_mut(i)[cols.clone()].copy_from_slice(row);
    }
}

/// One mode's MTTKRP run as its [`Exchange`] on thread-ranks, over a
/// [`Partition4D`]'s local kernels, built once. Its output is the MTTKRP of
/// the partition's relabeled tensor.
pub struct ExchangeKernel {
    exchange: Exchange,
    dims: [usize; NMODES],
    strips: Vec<usize>,
    /// Each cell's local kernel, shared by its `t` strip copies; `None` for
    /// a cell without nonzeros.
    locals: Vec<Option<BlockedKernel>>,
}

impl ExchangeKernel {
    /// The mode-`mode` kernel over `part`, each rank running `local`.
    pub fn new(part: &Partition4D, mode: usize, local: LocalKernel) -> Self {
        let p3 = part.part3();
        let locals = (0..p3.n_ranks())
            .map(|cell| {
                let x = p3.local(cell);
                (x.nnz() > 0).then(|| local.build(x, mode))
            })
            .collect();
        ExchangeKernel {
            exchange: Exchange::new(p3.bounds(), part.strip_bounds(), mode),
            dims: p3.dims(),
            strips: part.strip_bounds().to_vec(),
            locals,
        }
    }

    /// The collectives one call runs.
    pub fn exchange(&self) -> &Exchange {
        &self.exchange
    }

    /// Runs the exchange and returns the bytes the world counted.
    /// `checked` runs each local kernel through its `mttkrp_checked`; the
    /// first refusal, in rank order, is returned and leaves `out` as it
    /// was.
    ///
    /// # Panics
    /// Panics on a factor or output shape other than the partition's.
    pub fn run(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
        checked: bool,
    ) -> Result<u64, RaceReport> {
        let (mode, dims) = (self.exchange.mode, self.dims);
        let rank = *self.strips.last().expect("at least one strip");
        for (n, f) in factors.iter().enumerate().filter(|&(n, _)| n != mode) {
            assert_eq!((f.rows(), f.cols()), (dims[n], rank), "factor {n} shape");
        }
        assert_eq!((out.rows(), out.cols()), (dims[mode], rank), "output shape");
        let p3 = self.locals.len();
        let (results, bytes) = run_world(p3 * (self.strips.len() - 1), |ctx| {
            let (me, g) = (ctx.rank(), ctx.rank() / p3);
            let strip = 0..self.strips[g + 1] - self.strips[g];
            // This rank's copy of every factor at its strip's columns: rows
            // outside the gathered chunks stay zero.
            let mut local = dims.map(|d| DenseMatrix::zeros(d, strip.len()));
            let mut verdict = Ok(());
            // The rows this rank owns of the output, and their values.
            let (mut rows, mut owned) = (0..0, DenseMatrix::zeros(0, 0));
            for (tag, c) in self.exchange.collectives.iter().enumerate() {
                let (mine, peers) = c.find(me);
                let ranks: Vec<usize> = peers.iter().map(|p| p.rank).collect();
                let tag = tag as u64;
                match c.kind {
                    Kind::GatherFactor(n) => {
                        let data = block(factors[n], &mine.rows, &mine.cols);
                        for (p, data) in peers.iter().zip(ctx.allgather(&ranks, tag, data)) {
                            put(&mut local[n], &p.rows, &strip, &data);
                        }
                    }
                    Kind::ReduceOutput => {
                        let mut partial = DenseMatrix::zeros(dims[mode], strip.len());
                        if let Some(kernel) = &self.locals[me % p3] {
                            let fs = local.each_ref();
                            if checked {
                                verdict = kernel.mttkrp_checked(&fs, &mut partial);
                            } else {
                                kernel.mttkrp(&fs, &mut partial);
                            }
                        }
                        let parts = peers.iter().map(|p| block(&partial, &p.rows, &strip));
                        rows = mine.rows.clone();
                        let sums = ctx.reduce_scatter(&ranks, tag, parts.collect());
                        owned = DenseMatrix::from_vec(rows.len(), strip.len(), sums);
                    }
                    Kind::GatherStrips => {
                        let data = owned.as_slice().to_vec();
                        owned = DenseMatrix::zeros(rows.len(), rank);
                        for (p, data) in peers.iter().zip(ctx.allgather(&ranks, tag, data)) {
                            put(&mut owned, &(0..rows.len()), &p.cols, &data);
                        }
                    }
                }
            }
            (verdict, (g == 0).then_some((rows, owned)))
        });
        let owned: Vec<_> = results
            .into_iter()
            .map(|(v, o)| v.map(|()| o))
            .collect::<Result<_, _>>()?;
        for (rows, m) in owned.into_iter().flatten() {
            put(out, &rows, &(0..rank), m.as_slice());
        }
        Ok(bytes)
    }
}

impl MttkrpKernel for ExchangeKernel {
    fn mttkrp(&self, factors: &[&DenseMatrix; NMODES], out: &mut DenseMatrix) {
        self.run(factors, out, false).expect("checks are off");
    }

    fn mttkrp_checked(
        &self,
        factors: &[&DenseMatrix; NMODES],
        out: &mut DenseMatrix,
    ) -> Result<(), RaceReport> {
        self.run(factors, out, true).map(drop)
    }

    fn mode(&self) -> usize {
        self.exchange.mode
    }

    fn name(&self) -> &'static str {
        "medium-grained"
    }

    /// Every rank's local tensor: the `t` strip groups hold a copy each.
    fn tensor_bytes(&self) -> usize {
        let one: usize = self.locals.iter().flatten().map(|k| k.tensor_bytes()).sum();
        (self.strips.len() - 1) * one
    }
}
