//! The kernel tier — the paper's four kernels plus the workspace family —
//! executed under arbitrary SuperSchedules, behind one entry: [`validate`],
//! then [`run`].
//!
//! **The specialization tier is a table, not a set of loops.** A fast path
//! is one row `(kernel, FastPath) → row source × leaf` of the `match` in
//! [`run`] (listed as [`TIER`]):
//!
//! * a **row source** ([`RowSource`]) is the storage side: it delivers the
//!   matrix rows under an outer-loop range and a row's stored `(k, v)` in
//!   storage order, by internal iteration, skipping exact zeros. There are
//!   two — [`Csr`] over `pos/crd/vals` (reused unchanged over
//!   [`Transposed`], `DiscordantCsr`'s permutation, whose "rows" are the
//!   operand's columns) and [`Bcsr`] with its block layout and edge clamp —
//!   so the file holds one CSR row loop and one BCSR block traversal;
//! * a **leaf** is the kernel side, written once and generic over the
//!   source: SpMV dot, SpMV column scatter, SpMM register tile (32-column
//!   passes, then 8-column, then the remainder — the one SpMM leaf, over
//!   CSR and BCSR alike), Gustavson scatter/bitmap-sweep gather (the one
//!   leaf over a pooled dense temporary, see [`crate::workspace`]), fused
//!   SDDMM+SpMM (each sampled value added into the output as it is made).
//!
//! Layout work a row needs is done once, outside its leaf: the transpose
//! permutation at prepare ([`derive()`], owned by the
//! [`crate::PlannedKernel`], not by the plan), the fused leaf's
//! column-contiguous copy of `C` once per run ([`column_contiguous`]). The
//! generic SDDMM body gets the same treatment: its output's row-major slot
//! order is derived at prepare ([`SlotOrder`]), and it reads `Cᵀ` too.
//!
//! Because every source yields a row's entries in the order the plan's
//! concordant walk reaches them, every leaf accumulates each output element
//! in the interpreter's order (increasing `k`, exact-zero padding skipped)
//! *by construction*, and all engines share [`dispatch`]'s parallel region
//! — one output written in place, each element by the one outer coordinate
//! that owns it — so outputs are bit-identical, the property
//! `waco-verify`'s plan suite enforces. Plans without a tier row run the
//! **generic bodies**, written once over the [`Walk`] trait:
//! [`crate::PlannedKernel::run`] passes the plan's flat-op walker,
//! [`crate::oracle::run`] the [`crate::LoopNest`] interpreter (and
//! [`FastPath::None`], so the oracle never enters the tier). Outputs are additionally validated against the reference
//! implementations in `waco-tensor` by the test suite.

use crate::executor::{KernelArgs, KernelOutput};
use crate::nest::Ctx;
use crate::plan::{ExecutionPlan, FastPath, RunBody, RunCoords};
use crate::workspace;
use crate::{ExecError, Result};
use std::ops::Range;
use waco_format::{AxisPart, LevelStorage, SparseStorage};
use waco_runtime::{Claim, DisjointMut, ThreadPool};
use waco_schedule::Kernel;
use waco_tensor::coo::Entry;
use waco_tensor::{CooMatrix, CsrMatrix, DenseMatrix, DenseVector, Value};

/// The tier's rows: exactly the (kernel, variant) pairs the kernel entry
/// instantiates a row source × leaf for, in the order of its `match` in
/// `kernels.rs`. Every other pairing — including any [`FastPath`] recorded
/// on a kernel it has no row for — runs the generic body. `waco-verify`'s
/// plan suite iterates this list: a row without a pinned, bit-identical
/// case there fails it.
pub const TIER: &[(Kernel, FastPath)] = &[
    (Kernel::SpMV, FastPath::CsrRows),
    (Kernel::SpMV, FastPath::BcsrBlock),
    (Kernel::SpMV, FastPath::DiscordantCsr),
    (Kernel::SpMM, FastPath::RegBlockSpmm),
    (Kernel::SpMM, FastPath::BcsrBlock),
    (Kernel::SpGEMM, FastPath::GustavsonSpgemm),
    (Kernel::SddmmSpmm, FastPath::FusedSddmmSpmm),
];

pub(crate) fn check_storage(plan: &ExecutionPlan, st: &SparseStorage) -> Result<()> {
    if st.spec() != plan.spec() {
        return Err(ExecError::OperandMismatch(
            "storage spec does not match the plan's format spec".into(),
        ));
    }
    Ok(())
}

/// Everything a run checks before it touches data, for every kernel and
/// every engine: `args` name the plan's kernel, the operand is stored in
/// the plan's spec, and each dense operand has the shape the space expects.
///
/// # Errors
///
/// [`ExecError::OperandMismatch`] naming the first disagreement.
pub(crate) fn validate(
    plan: &ExecutionPlan,
    st: &SparseStorage,
    args: &KernelArgs<'_>,
) -> Result<()> {
    let kernel = plan.kernel();
    if kernel != args.kernel() {
        return Err(ExecError::OperandMismatch(format!(
            "plan is for {kernel}, args are for {}",
            args.kernel()
        )));
    }
    check_storage(plan, st)?;
    let (d, de) = (plan.sparse_dims(), plan.dense_extent());
    let dims = |name: &str, got: (usize, usize), want: (usize, usize)| {
        if got == want {
            return Ok(());
        }
        Err(ExecError::OperandMismatch(format!(
            "{kernel} operand {name} is {}x{}, expected {}x{}",
            got.0, got.1, want.0, want.1
        )))
    };
    let shape = |name, m: &DenseMatrix, want| dims(name, (m.nrows(), m.ncols()), want);
    match *args {
        KernelArgs::Spmv { x } => dims("x", (x.len(), 1), (d[1], 1)),
        KernelArgs::Spmm { b } => shape("B", b, (d[1], de)),
        KernelArgs::Sddmm { b, c } => shape("B", b, (d[0], de)).and(shape("C", c, (de, d[1]))),
        KernelArgs::Mttkrp { b, c } => shape("B", b, (d[1], de)).and(shape("C", c, (d[2], de))),
        KernelArgs::Spgemm { b } => dims("B", (b.nrows(), b.ncols()), (d[1], de)),
        // F's column count is free: it is the output width.
        KernelArgs::SddmmSpmm { b, c, f } => shape("B", b, (d[0], de))
            .and(shape("C", c, (de, d[1])))
            .and(shape("F", f, (d[1], f.ncols()))),
    }
}

/// What a generic kernel body needs from an engine: walk one subrange of
/// the outermost loop, calling `body(ctx, a_pos, a_val)` for every reachable
/// stored nonzero. Two implementations: [`crate::PlannedKernel`] (the plan's
/// flat-op walker — the serving engine) and [`crate::LoopNest`] (the dynamic
/// interpreter — reachable only through [`crate::oracle::run`]).
pub(crate) trait Walk: Sync {
    fn walk(&self, outer: Range<usize>, body: &mut impl FnMut(&Ctx<'_>, usize, Value));

    /// [`Walk::walk`] for a body that can take a whole run of a reduction:
    /// the plan walker hands it each innermost dense loop over an unstored
    /// dimension in one [`RunBody::run`] call
    /// ([`ExecutionPlan::walk_runs`]). The default is the per-entry walk.
    fn walk_runs(&self, outer: Range<usize>, body: &mut impl RunBody) {
        self.walk(outer, &mut |ctx, pos, v| body.entry(ctx, pos, v));
    }
}

/// How a kernel executes: `run(outer, out)` over the whole outer loop, or
/// over dynamically claimed ranges of it on the pool, every participant
/// writing the one output `out` (handed in zeroed, handed back filled) in
/// place. Every kernel run passes through here, so this is the one
/// observability point of the execution layer: a per-kernel span plus
/// `exec.kernel_runs` — kept to two relaxed atomic loads when no subscriber
/// is installed (the hot-loop budget the `substrates` microbench enforces).
/// The region is identical for every engine (tier rows included), so outputs
/// are bit-identical across them.
fn dispatch<T: Send>(
    plan: &ExecutionPlan,
    st: &SparseStorage,
    mut out: Vec<T>,
    run: impl Fn(Range<usize>, &mut Claim<'_, T>) + Sync,
) -> Vec<T> {
    let _span = if waco_obs::enabled() {
        waco_obs::counter("exec.kernel_runs", 1);
        waco_obs::span_owned(format!("exec/{}", plan.kernel()))
    } else {
        waco_obs::Span::disabled()
    };
    let extent = plan.outer_extent();
    // SAFETY: no output element is reached from two claims. Claims are
    // ranges of the outermost loop, and when there is more than one that
    // loop is the schedule's parallel variable: `SuperSchedule::validate`
    // rejects a parallel variable on a reduction dimension ("cannot
    // parallelize reduction dim") and `ExecutionPlan::build` hoists it
    // outermost, so it is one part of an index of the output (SDDMM's
    // position-indexed output included: a stored position is one `(i, j)`).
    // Two outer coordinates therefore never reach the same output element —
    // the argument that lets TACO's generated loop, and the row-at-a-time
    // workspace loops of Kjolstad et al., write in place. Every body below
    // writes `out` only at indices it derives from its own coordinates, and
    // each claim is tagged with its range's start, so debug builds check
    // exactly this on every parallel run.
    let shared = unsafe { DisjointMut::new(&mut out) };
    let body = |outer: Range<usize>| run(outer.clone(), &mut shared.claim(outer.start));
    // Work-gated: tiny operands run serially even under a parallel
    // schedule (see `ExecutionPlan::effective_parallel`).
    match plan.effective_parallel(st) {
        Some(p) => ThreadPool::global().run_chunked(extent, p.threads, p.chunk, body),
        None => body(0..extent),
    }
    out
}

/// [`dispatch`] into a zeroed dense output of `len` values.
fn dense(
    plan: &ExecutionPlan,
    st: &SparseStorage,
    len: usize,
    run: impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync,
) -> Vec<Value> {
    dispatch(plan, st, vec![0.0; len], run)
}

// ---------------------------------------------------------------------------
// Row sources
// ---------------------------------------------------------------------------

/// The storage side of a tier row. Both methods iterate internally, so a
/// leaf never sees `pos`/`crd` arithmetic or the padding skip.
trait RowSource: Sync {
    /// Where one row's entries live: what `rows` hands out and `entries`
    /// reads back (a leaf may stream a row more than once).
    type Row: Copy;

    /// Calls `each(i, row)` for every matrix row `i` under the outer-loop
    /// coordinates `outer`, ascending.
    fn rows(&self, outer: Range<usize>, each: impl FnMut(usize, Self::Row));

    /// Calls `each(k, v)` for every stored entry of `row` in storage order.
    /// Padding slots (exact `0.0`) are skipped like the interpreter's `Body`
    /// hook skips them; a genuine nonzero always has in-bounds coordinates,
    /// so the `v != 0.0` guard doubles as the bounds check for whatever the
    /// leaf gathers at `k`.
    fn entries(&self, row: Self::Row, each: impl FnMut(usize, Value));
}

/// Row-major CSR over `pos/crd/vals`: one row per outer coordinate.
struct Csr<'a> {
    pos: &'a [usize],
    crd: &'a [usize],
    vals: &'a [Value],
}

impl<'a> Csr<'a> {
    /// The compressed column level of a CSR-family storage (spec
    /// `i1(U) k1(C) i0(U) k0(U)` — what every tier row's predicate demands).
    fn of(st: &'a SparseStorage) -> Self {
        match st.level(1) {
            LevelStorage::Compressed { pos, crd } => Csr {
                pos,
                crd,
                vals: st.vals(),
            },
            LevelStorage::Uncompressed { .. } => {
                unreachable!("tier rows store a compressed column level")
            }
        }
    }
}

impl RowSource for Csr<'_> {
    type Row = usize;

    #[inline]
    fn rows(&self, outer: Range<usize>, mut each: impl FnMut(usize, usize)) {
        outer.for_each(|i| each(i, i));
    }

    #[inline]
    fn entries(&self, i: usize, mut each: impl FnMut(usize, Value)) {
        for q in self.pos[i]..self.pos[i + 1] {
            let v = self.vals[q];
            if v != 0.0 {
                each(self.crd[q], v);
            }
        }
    }
}

/// BCSR: CSR over block rows, each compressed entry one contiguous dense
/// `br × bc` block, so a row's inner loop runs over a block row with unit
/// stride — the autovectorizable shape the ≥16 block-column predicate exists
/// for. Block rows are outermost and each output row lives in exactly one,
/// so claims of block rows own disjoint output rows; rows past the matrix
/// edge hold only padding and are clamped away.
struct Bcsr<'a> {
    blocks: Csr<'a>,
    br: usize,
    bc: usize,
    nrows: usize,
}

impl<'a> Bcsr<'a> {
    fn of(plan: &ExecutionPlan, st: &'a SparseStorage) -> Self {
        Bcsr {
            blocks: Csr::of(st),
            br: plan.splits()[0],
            bc: plan.splits()[1],
            nrows: plan.sparse_dims()[0],
        }
    }
}

impl RowSource for Bcsr<'_> {
    /// (block row, row within the block).
    type Row = (usize, usize);

    #[inline]
    fn rows(&self, outer: Range<usize>, mut each: impl FnMut(usize, Self::Row)) {
        for i1 in outer {
            let first = i1 * self.br;
            for i in first..(first + self.br).min(self.nrows) {
                each(i, (i1, i - first));
            }
        }
    }

    #[inline]
    fn entries(&self, (i1, i0): Self::Row, mut each: impl FnMut(usize, Value)) {
        let (br, bc, b) = (self.br, self.bc, &self.blocks);
        for q in b.pos[i1]..b.pos[i1 + 1] {
            let block_row = &b.vals[(q * br + i0) * bc..(q * br + i0 + 1) * bc];
            let kbase = b.crd[q] * bc;
            for (k0, &v) in block_row.iter().enumerate() {
                if v != 0.0 {
                    each(kbase + k0, v);
                }
            }
        }
    }
}

/// `DiscordantCsr`'s storage: the operand's entries counting-sorted into a
/// transpose permutation `(pos, crd, vals)` — instead of the generic walk's
/// binary search per (k, i) pair. Built once, at prepare ([`derive()`]), and
/// read back on every run as a [`Csr`] whose rows are the operand's
/// columns: within a column the entries keep ascending row order, and
/// streaming columns in order hands every output row its products in
/// increasing `k` — the sequence the k-outermost interpreter produces,
/// hence bit identity.
#[derive(Debug, Clone)]
pub(crate) struct Transposed {
    pos: Vec<usize>,
    crd: Vec<usize>,
    vals: Vec<Value>,
}

impl Transposed {
    /// The counting sort, O(nnz + ncols).
    fn of(plan: &ExecutionPlan, st: &SparseStorage) -> Self {
        let (a, d) = (Csr::of(st), plan.sparse_dims());
        let (nrows, ncols) = (d[0], d[1]);
        // Column sizes come from one pass over `crd` alone, so they count
        // stored exact zeros too; the fill below skips those, and the slots
        // they leave at the end of a column keep `0.0` — padding the
        // streaming side skips like any other.
        let mut pos = vec![0usize; ncols + 1];
        for &k in a.crd {
            pos[k + 1] += 1;
        }
        for k in 0..ncols {
            pos[k + 1] += pos[k];
        }
        let mut next = pos.clone();
        let mut crd = vec![0usize; pos[ncols]];
        let mut vals = vec![0.0 as Value; pos[ncols]];
        a.rows(0..nrows, |i, row| {
            a.entries(row, |k, v| {
                crd[next[k]] = i;
                vals[next[k]] = v;
                next[k] += 1;
            });
        });
        Transposed { pos, crd, vals }
    }

    fn columns(&self) -> Csr<'_> {
        Csr {
            pos: &self.pos,
            crd: &self.crd,
            vals: &self.vals,
        }
    }
}

/// Calls `each(i, j, pos, v)` for every stored slot of a matrix operand
/// whose original coordinates `(i, j)` are in bounds, in storage order —
/// the storage's own coordinate walk, mapped back through the spec.
fn in_bounds_slots(
    plan: &ExecutionPlan,
    st: &SparseStorage,
    mut each: impl FnMut(usize, usize, usize, Value),
) {
    let (spec, dims) = (st.spec(), plan.sparse_dims());
    st.for_each_slot(|axis_coords, pos, v| {
        let mut outer = [0usize; 2];
        let mut inner = [0usize; 2];
        for (l, ax) in spec.order().iter().enumerate() {
            match ax.part {
                AxisPart::Outer => outer[ax.dim] = axis_coords[l],
                AxisPart::Inner => inner[ax.dim] = axis_coords[l],
            }
        }
        let i = spec.original_coord(0, outer[0], inner[0]);
        let j = spec.original_coord(1, outer[1], inner[1]);
        if i < dims[0] && j < dims[1] {
            each(i, j, pos, v);
        }
    });
}

/// SDDMM's output coordinates, row-major: every in-bounds slot that stores
/// a nonzero, as `(i, j, pos)` (24 B a slot) sorted by `(i, j)`. Slots
/// storing `0.0` are left out — the walk never reaches them, so their
/// output stays `0.0` and would be dropped. A run then gathers the output's
/// nonzero slots straight into a sorted COO, where the reference walks the
/// storage and sorts on every run.
#[derive(Debug, Clone)]
pub(crate) struct SlotOrder(Vec<(usize, usize, usize)>);

impl SlotOrder {
    fn of(plan: &ExecutionPlan, st: &SparseStorage) -> Self {
        let mut slots = Vec::new();
        in_bounds_slots(plan, st, |i, j, pos, v| {
            if v != 0.0 {
                slots.push((i, j, pos));
            }
        });
        // A stored position is one `(i, j)`: the keys are unique.
        slots.sort_unstable();
        SlotOrder(slots)
    }

    /// The nonzeros of the position-indexed output `out` as a COO.
    fn gather(&self, dims: &[usize], out: &[Value]) -> CooMatrix {
        let entries = self.0.iter().filter_map(|&(row, col, pos)| {
            let val = out[pos];
            (val != 0.0).then_some(Entry { row, col, val })
        });
        CooMatrix::from_sorted(dims[0], dims[1], entries.collect())
            .expect("prepare sorted unique in-bounds slots")
    }
}

/// Storage derived from the operand once, at prepare, next to the format
/// conversion, for what the plan's run would otherwise redo per run. The
/// [`crate::PlannedKernel`] owns it, so the plan stays storage-free and
/// cacheable; [`crate::oracle::run`] never reads it.
#[derive(Debug, Clone)]
pub(crate) enum Derived {
    /// `(SpMV, DiscordantCsr)`'s transpose permutation.
    Transposed(Transposed),
    /// The generic SDDMM body's output order — SDDMM, and SDDMM+SpMM off
    /// its fused row.
    SlotOrder(SlotOrder),
}

/// What [`Derived`] the plan's run reads; `None` for every other plan.
pub(crate) fn derive(plan: &ExecutionPlan, st: &SparseStorage) -> Option<Derived> {
    let row = (plan.kernel(), plan.fast_path());
    Some(match row {
        (Kernel::SpMV, FastPath::DiscordantCsr) => Derived::Transposed(Transposed::of(plan, st)),
        (Kernel::SDDMM | Kernel::SddmmSpmm, _) if !TIER.contains(&row) => {
            Derived::SlotOrder(SlotOrder::of(plan, st))
        }
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Leaves: one per kernel body, generic over the source. Each returns the
// range runner `dispatch` distributes: `(outer, out)`, taking from `out` the
// rows its source yields under `outer` and nothing else.
// ---------------------------------------------------------------------------

/// SpMV dot: `y[i] = Σ_k v·x[k]`, the row's sum held in a register.
fn spmv_dot<'a, S: RowSource>(
    src: &'a S,
    x: &'a [Value],
) -> impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync + 'a {
    move |outer, y| {
        src.rows(outer, |i, row| {
            let yi = y.at(i);
            let mut sum = *yi;
            src.entries(row, |k, v| sum += v * x[k]);
            *yi = sum;
        });
    }
}

/// SpMV column scatter over a transposed source: "row" `k` of the source is
/// column `k` of the operand, scattered into `y` at the stored row indices.
/// `k` is a reduction dimension, so such a plan can never be parallel: the
/// whole column range runs as one claim, which may write any `y[i]`.
fn spmv_scatter<'a, S: RowSource>(
    src: &'a S,
    x: &'a [Value],
) -> impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync + 'a {
    move |outer, y| {
        src.rows(outer, |k, col| {
            let xk = x[k];
            src.entries(col, |i, v| *y.at(i) += v * xk);
        });
    }
}

/// SpMM register tile, the leaf of every SpMM row (an output row narrower
/// than [`ExecutionPlan::SPMM_TILE`] is one remainder tile): the output
/// row is cut into 32-column tiles, then
/// [`ExecutionPlan::SPMM_TILE`]-column ones, then one remainder tile; each
/// accumulates in a register block while the row's nonzeros stream past
/// once, so a row of `nj` columns streams its nonzeros `nj / 32` + a few
/// times and the output row is loaded/stored once per tile instead of once
/// per nonzero. Bit identity with the interpreter holds because (a) per
/// (i, j) the products still sum in increasing-k order starting from +0.0,
/// and (b) a sum seeded with +0.0 can never be -0.0, so the final
/// `row[j] += reg[t]` into the zeroed output reproduces the direct sum
/// exactly.
fn spmm_reg_tile<'a, S: RowSource>(
    src: &'a S,
    b: &'a [Value],
    nj: usize,
) -> impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync + 'a {
    const T: usize = ExecutionPlan::SPMM_TILE;
    move |outer, c| {
        src.rows(outer, |i, row| {
            let out = c.slice(i * nj..(i + 1) * nj);
            let mut jt = 0;
            while nj - jt >= 32 {
                tile::<32, S>(src, row, b, nj, jt, &mut out[jt..jt + 32]);
                jt += 32;
            }
            while nj - jt >= T {
                tile::<T, S>(src, row, b, nj, jt, &mut out[jt..jt + T]);
                jt += T;
            }
            if jt < nj {
                let w = nj - jt;
                let mut reg = [0.0 as Value; T];
                src.entries(row, |k, v| {
                    for (r, &bv) in reg.iter_mut().zip(&b[k * nj + jt..k * nj + jt + w]) {
                        *r += v * bv;
                    }
                });
                for (o, &r) in out[jt..].iter_mut().zip(&reg) {
                    *o += r;
                }
            }
        });
    }
}

/// One full register tile of [`spmm_reg_tile`]: output columns
/// `jt..jt + W` of `row`, a constant trip count the compiler unrolls.
#[inline(always)]
fn tile<const W: usize, S: RowSource>(
    src: &S,
    row: S::Row,
    b: &[Value],
    nj: usize,
    jt: usize,
    out: &mut [Value],
) {
    let mut reg = [0.0 as Value; W];
    src.entries(row, |k, v| {
        let brow = &b[k * nj + jt..k * nj + jt + W];
        for t in 0..W {
            reg[t] += v * brow[t];
        }
    });
    for (o, &r) in out.iter_mut().zip(&reg) {
        *o += r;
    }
}

/// The rows of a sparse output that one claim of the outer loop owns,
/// ascending: each row's end offset into the block, then all the rows'
/// columns and values back to back. A claim writes one block, so a run
/// allocates per claim, not per output row.
#[derive(Clone, Default)]
struct RowBlock {
    ends: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<Value>,
}

impl RowBlock {
    /// Appends `(j, v)` to the open row unless `v` is an exact zero
    /// (cancellations included), which a sparse output does not store.
    #[inline]
    fn push(&mut self, j: usize, v: Value) {
        if v != 0.0 {
            self.cols.push(j);
            self.vals.push(v);
        }
    }

    fn end_row(&mut self) {
        self.ends.push(self.cols.len());
    }
}

/// Blocks come out with sorted unique columns from both SpGEMM arms, so CSR
/// is assembled directly — no COO round-trip, no O(nnz log nnz) sort — by
/// concatenating them in row order (empty blocks are slots no claim
/// started at).
fn assemble_csr(ni: usize, nj: usize, blocks: &[RowBlock]) -> CsrMatrix {
    let nnz = blocks.iter().map(|blk| blk.cols.len()).sum();
    let mut row_ptr = Vec::with_capacity(ni + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut out_vals = Vec::with_capacity(nnz);
    for blk in blocks {
        let base = col_idx.len();
        row_ptr.extend(blk.ends.iter().map(|&end| base + end));
        col_idx.extend_from_slice(&blk.cols);
        out_vals.extend_from_slice(&blk.vals);
    }
    CsrMatrix::from_parts(ni, nj, row_ptr, col_idx, out_vals)
        .expect("SpGEMM blocks cover every row, sorted, deduplicated, and in bounds")
}

/// Row-wise Gustavson SpGEMM: each output row scatter-accumulates into the
/// pooled dense workspace, marking its two-level bitmap, then the bitmap
/// sweep gathers the touched columns in ascending order (skipping exact
/// zeros, including cancellation) and resets them. The claim's block is
/// reserved up front from its product count, Σ nnz(`B[k,:]`) over its
/// stored entries (capped at rows × extent): a bound on its output, and
/// capacity never written is never resident. The generic arm densifies `B`
/// and runs the plan's `i → k → j` nest, so per output element the products
/// sum in the same ascending-`k` order from `+0.0` — extra `±0.0` terms
/// from `B`'s zeros are bitwise no-ops — making the two bit-identical on
/// the same plan.
fn gustavson<'a, S: RowSource>(
    src: &'a S,
    b: &'a CsrMatrix,
    extent: usize,
) -> impl Fn(Range<usize>, &mut Claim<'_, RowBlock>) + Sync + 'a {
    let bptr = b.row_ptr();
    move |outer, out| {
        let (mut rows, mut products) = (0, 0);
        src.rows(outer.clone(), |_, row| {
            rows += 1;
            src.entries(row, |k, _| products += bptr[k + 1] - bptr[k]);
        });
        let bound = products.min(rows * extent);
        let blk = out.at(outer.start);
        blk.ends.reserve_exact(rows);
        blk.cols.reserve_exact(bound);
        blk.vals.reserve_exact(bound);
        let mut ws = workspace::acquire(extent);
        src.rows(outer, |_, row| {
            src.entries(row, |k, v| {
                let (bcols, bvals) = b.row(k);
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    ws.add(j, v * bv);
                }
            });
            ws.drain(|j, d| blk.push(j, d));
            blk.end_row();
        });
        workspace::release(ws);
    }
}

/// `C` (`nk × nj`) copied column-contiguous, as `Cᵀ` (`nj × nk`): the fused
/// leaf's dot product for a stored `(i, j)` then reads row `j` with unit
/// stride instead of one float per `nj`-float row of `C`. Linear in an
/// operand the caller already materialised. The copy writes in order and
/// gathers down a column: the `nk` lines one column touches serve the next
/// fifteen columns too (a write-scattering loop over `C`'s rows runs ≈ 8×
/// slower at `nk` = 32).
fn column_contiguous(c: &DenseMatrix) -> DenseMatrix {
    let (nk, nj) = (c.nrows(), c.ncols());
    let mut ct = Vec::with_capacity(nj * nk);
    for j in 0..nj {
        ct.extend((0..nk).map(|k| c.get(k, j)));
    }
    DenseMatrix::from_vec(nj, nk, ct)
}

/// Fused SDDMM+SpMM: `E = (A ∘ (B C)) F` in one pass over `A`, with `C`
/// handed in as [`column_contiguous`]'s `Cᵀ`. For each stored `(i, j)` it
/// computes the sampled dot product `d = Σ_k v·B[i,k]·Cᵀ[j,k]` — `k`
/// ascending from `+0.0`, the interpreter's expression (the SDDMM) — and,
/// when `d` is nonzero, at once adds `d·F[j,:]` into output row `i` (the
/// SpMM). A row's entries arrive in ascending `j`, so the output row takes
/// exactly the additions, in the order, of an unfused CSR SpMM over the
/// intermediate, which skips the same exact-zero entries: fused and
/// unfused are bit-identical.
fn fused_sddmm_spmm<'a, S: RowSource>(
    src: &'a S,
    (b, ct, f): (&'a DenseMatrix, &'a DenseMatrix, &'a DenseMatrix),
) -> impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync + 'a {
    let (nt, fs) = (f.ncols(), f.as_slice());
    move |outer, e| {
        src.rows(outer, |i, row| {
            let (bi, out) = (b.row(i), e.slice(i * nt..(i + 1) * nt));
            src.entries(row, |j, v| {
                let mut d = 0.0 as Value;
                for (&bk, &ck) in bi.iter().zip(ct.row(j)) {
                    d += v * bk * ck;
                }
                if d != 0.0 {
                    for (o, &fv) in out.iter_mut().zip(&fs[j * nt..(j + 1) * nt]) {
                        *o += d * fv;
                    }
                }
            });
        });
    }
}

// ---------------------------------------------------------------------------
// Generic bodies: one per kernel, over whichever engine walks the plan.
// ---------------------------------------------------------------------------

/// A per-nonzero body as a range runner over `engine`'s walk; it writes the
/// output by index, every index derived from the walk's coordinates.
fn walked<'a, W: Walk>(
    engine: &'a W,
    body: impl Fn(&Ctx<'_>, usize, Value, &mut Claim<'_, Value>) + Sync + 'a,
) -> impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync + 'a {
    move |outer, out| engine.walk(outer, &mut |ctx, pos, v| body(ctx, pos, v, out))
}

/// Generic `C[i, j] += v · B[k, j]` into a dense `ni × nj` output — SpMM's
/// body, and SpGEMM's over a densified `B`.
fn spmm_walked<'a, W: Walk>(
    engine: &'a W,
    b: &'a DenseMatrix,
) -> impl Fn(Range<usize>, &mut Claim<'_, Value>) + Sync + 'a {
    let nj = b.ncols();
    walked(engine, move |ctx, _, v, c| {
        if let (Some(i), Some(k), Some(j)) = (ctx.coord(0), ctx.coord(1), ctx.coord(2)) {
            *c.at(i * nj + j) += v * b.get(k, j);
        }
    })
}

/// SDDMM's generic body: `acc[pos] += v · B[i,k] · Cᵀ[j,k]` into the
/// position-indexed output. Handed a whole `k` run, it loads the slot once,
/// adds the run's products for ascending `k` in a register — `Cᵀ`'s row
/// `j` read with unit stride — and stores once: the per-entry additions in
/// the per-entry order, so the same bits.
struct SddmmBody<'a, 'c> {
    b: &'a DenseMatrix,
    ct: &'a DenseMatrix,
    acc: &'a mut Claim<'c, Value>,
}

impl RunBody for SddmmBody<'_, '_> {
    const RUNS: bool = true;

    fn entry(&mut self, ctx: &Ctx<'_>, pos: usize, v: Value) {
        if let (Some(i), Some(j), Some(k)) = (ctx.coord(0), ctx.coord(1), ctx.coord(2)) {
            *self.acc.at(pos) += v * self.b.get(i, k) * self.ct.get(j, k);
        }
    }

    /// `ks` are coordinates of `k`, the one dimension `A` does not store.
    fn run(&mut self, ctx: &Ctx<'_>, pos: usize, v: Value, ks: RunCoords) {
        if let (Some(i), Some(j)) = (ctx.coord(0), ctx.coord(1)) {
            let (bi, cj) = (self.b.row(i), self.ct.row(j));
            let slot = self.acc.at(pos);
            let mut d = *slot;
            for k in ks {
                d += v * bi[k] * cj[k];
            }
            *slot = d;
        }
    }
}

/// SDDMM on any engine, shared by `sddmm` and the unfused arm of
/// `sddmm_spmm`: accumulate into the sparse output in `A`'s own format
/// (position-indexed, as TACO's generated code would), then hand back its
/// nonzeros as a row-major COO — gathered through the [`SlotOrder`] derived
/// at prepare on the serving path; for the oracle (`order` `None`), by the
/// reference assembly: the storage's coordinate walk, then a sort.
fn sddmm<W: Walk>(
    plan: &ExecutionPlan,
    st: &SparseStorage,
    engine: &W,
    (b, c): (&DenseMatrix, &DenseMatrix),
    order: Option<&SlotOrder>,
) -> CooMatrix {
    let ct = column_contiguous(c);
    let body = |outer, acc: &mut Claim<'_, Value>| {
        engine.walk_runs(outer, &mut SddmmBody { b, ct: &ct, acc });
    };
    let out = dense(plan, st, st.vals().len(), body);
    let dims = plan.sparse_dims();
    if let Some(order) = order {
        return order.gather(dims, &out);
    }
    let mut triplets = Vec::new();
    in_bounds_slots(plan, st, |i, j, pos, _| {
        if out[pos] != 0.0 {
            triplets.push((i, j, out[pos]));
        }
    });
    CooMatrix::from_triplets(dims[0], dims[1], triplets).expect("output coords in bounds")
}

/// Runs a validated kernel: the tier row for `(args' kernel, fast)` when
/// [`TIER`] has one, the generic body over `engine` otherwise. Callers run
/// [`validate`] first; `fast` is the plan's recorded variant and `derived`
/// what [`derive()`] built for it on the serving path, [`FastPath::None`] and
/// `None` from the oracle.
pub(crate) fn run<W: Walk>(
    plan: &ExecutionPlan,
    st: &SparseStorage,
    args: KernelArgs<'_>,
    engine: &W,
    fast: FastPath,
    derived: Option<&Derived>,
) -> KernelOutput {
    use KernelOutput::{Csr as CsrOut, Matrix, Sparse, Vector};
    let (d, de) = (plan.sparse_dims(), plan.dense_extent());
    let ni = d[0];
    let vector = |y| Vector(DenseVector::from_vec(y));
    let matrix = |nj, c| Matrix(DenseMatrix::from_vec(ni, nj, c));
    let slot_order = match derived {
        Some(Derived::SlotOrder(order)) => Some(order),
        _ => None,
    };
    match (args, fast) {
        // The tier, row for row as `TIER` lists it.
        (KernelArgs::Spmv { x }, FastPath::CsrRows) => {
            vector(dense(plan, st, ni, spmv_dot(&Csr::of(st), x.as_slice())))
        }
        (KernelArgs::Spmv { x }, FastPath::BcsrBlock) => vector(dense(
            plan,
            st,
            ni,
            spmv_dot(&Bcsr::of(plan, st), x.as_slice()),
        )),
        (KernelArgs::Spmv { x }, FastPath::DiscordantCsr) => {
            let Some(Derived::Transposed(t)) = derived else {
                unreachable!("prepare derives the transpose permutation");
            };
            let columns = t.columns();
            vector(dense(plan, st, ni, spmv_scatter(&columns, x.as_slice())))
        }
        (KernelArgs::Spmm { b }, FastPath::RegBlockSpmm) => matrix(
            de,
            dense(
                plan,
                st,
                ni * de,
                spmm_reg_tile(&Csr::of(st), b.as_slice(), de),
            ),
        ),
        (KernelArgs::Spmm { b }, FastPath::BcsrBlock) => matrix(
            de,
            dense(
                plan,
                st,
                ni * de,
                spmm_reg_tile(&Bcsr::of(plan, st), b.as_slice(), de),
            ),
        ),
        (KernelArgs::Spgemm { b }, FastPath::GustavsonSpgemm) => {
            // One slot per outer coordinate; a claim fills the one at its
            // range's start.
            let (src, slots) = (Csr::of(st), vec![RowBlock::default(); ni]);
            let extent = plan
                .workspace_extent()
                .expect("SpGEMM plans carry a Workspace op");
            let blocks = dispatch(plan, st, slots, gustavson(&src, b, extent));
            CsrOut(assemble_csr(ni, de, &blocks))
        }
        (KernelArgs::SddmmSpmm { b, c, f }, FastPath::FusedSddmmSpmm) => {
            let (src, nt, ct) = (Csr::of(st), f.ncols(), column_contiguous(c));
            let leaf = fused_sddmm_spmm(&src, (b, &ct, f));
            matrix(nt, dense(plan, st, ni * nt, leaf))
        }

        // Everything else: the generic body over the engine's walk. A
        // variant recorded on a kernel it has no row for lands here too.
        (KernelArgs::Spmv { x }, _) => {
            let x = x.as_slice();
            let body = walked(engine, |ctx, _, v, y| {
                if let (Some(i), Some(k)) = (ctx.coord(0), ctx.coord(1)) {
                    *y.at(i) += v * x[k];
                }
            });
            vector(dense(plan, st, ni, body))
        }
        (KernelArgs::Spmm { b }, _) => matrix(de, dense(plan, st, ni * de, spmm_walked(engine, b))),
        (KernelArgs::Sddmm { b, c }, _) => Sparse(sddmm(plan, st, engine, (b, c), slot_order)),
        (KernelArgs::Mttkrp { b, c }, _) => {
            let body = walked(engine, |ctx, _, v, out| {
                if let (Some(i), Some(k), Some(l), Some(j)) =
                    (ctx.coord(0), ctx.coord(1), ctx.coord(2), ctx.coord(3))
                {
                    *out.at(i * de + j) += v * b.get(k, j) * c.get(l, j);
                }
            });
            matrix(de, dense(plan, st, ni * de, body))
        }
        (KernelArgs::Spgemm { b }, _) => {
            // The plan's i → k → j nest over a densified B, compacted
            // row-major afterwards.
            let bd = b.to_coo().to_dense();
            let c = dense(plan, st, ni * de, spmm_walked(engine, &bd));
            let mut blk = RowBlock::default();
            for i in 0..ni {
                for (j, &v) in c[i * de..(i + 1) * de].iter().enumerate() {
                    blk.push(j, v);
                }
                blk.end_row();
            }
            CsrOut(assemble_csr(ni, de, &[blk]))
        }
        (KernelArgs::SddmmSpmm { b, c, f }, _) => {
            // The two phases unfused: SDDMM into a row-major COO, then an
            // SpMM of its entries, in order, against F.
            let nt = f.ncols();
            let mut e = vec![0.0 as Value; ni * nt];
            for (i, j, v) in sddmm(plan, st, engine, (b, c), slot_order).iter() {
                for (o, &fv) in e[i * nt..(i + 1) * nt].iter_mut().zip(f.row(j)) {
                    *o += v * fv;
                }
            }
            matrix(nt, e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, PlannedKernel};
    use waco_schedule::{named, ScheduleSampler, Space, SuperSchedule};
    use waco_tensor::csr::mttkrp_reference;
    use waco_tensor::gen::{self, Rng64};
    use waco_tensor::CooTensor3;

    fn prepare(a: &CooMatrix, sched: &SuperSchedule, space: &Space) -> PlannedKernel {
        Executor::planned().prepare(a, sched, space).unwrap()
    }

    fn close_m(a: &DenseMatrix, b: &DenseMatrix, tol: f32) {
        assert!(
            a.max_abs_diff(b) < tol,
            "diff {} >= {tol}",
            a.max_abs_diff(b)
        );
    }

    fn run_spmv(
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        x: &DenseVector,
    ) -> Result<DenseVector> {
        Executor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::Spmv { x })?
            .into_vector()
    }

    fn run_spmm(
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        Executor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::Spmm { b })?
            .into_matrix()
    }

    fn run_sddmm(
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
    ) -> Result<CooMatrix> {
        Executor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::Sddmm { b, c })?
            .into_sparse()
    }

    fn run_mttkrp(
        a: &CooTensor3,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        Executor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::Mttkrp { b, c })?
            .into_matrix()
    }

    #[test]
    fn spmv_default_matches_reference() {
        let mut rng = Rng64::seed_from(1);
        let a = gen::uniform_random(40, 40, 0.1, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![40, 40], 0);
        let sched = named::default_csr(&space);
        let x = DenseVector::from_fn(40, |i| (i % 7) as f32 - 3.0);
        let y = run_spmv(&a, &sched, &space, &x).unwrap();
        let r = CsrMatrix::from_coo(&a).spmv(&x);
        assert!(y.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn spmv_random_schedules_match() {
        let mut rng = Rng64::seed_from(2);
        let a = gen::powerlaw_rows(30, 30, 4.0, 1.1, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![30, 30], 0);
        let x = DenseVector::from_fn(30, |i| (i as f32).sin());
        let r = CsrMatrix::from_coo(&a).spmv(&x);
        let mut tested = 0;
        for sched in ScheduleSampler::new(&space, 2).take_schedules(40) {
            match run_spmv(&a, &sched, &space, &x) {
                Ok(y) => {
                    tested += 1;
                    assert!(
                        y.max_abs_diff(&r) < 1e-3,
                        "schedule {}",
                        sched.describe(&space)
                    );
                }
                Err(ExecError::Format(_)) => {} // over budget — excluded
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(tested > 10, "most sampled schedules should be buildable");
    }

    #[test]
    fn spmm_default_and_random_match() {
        let mut rng = Rng64::seed_from(3);
        let a = gen::blocked(24, 24, 4, 10, 0.8, &mut rng);
        let space = Space::new(Kernel::SpMM, vec![24, 24], 8);
        let b = DenseMatrix::from_fn(24, 8, |r, c| ((r + c) % 5) as f32 - 2.0);
        let r = CsrMatrix::from_coo(&a).spmm(&b);

        let c0 = run_spmm(&a, &named::default_csr(&space), &space, &b).unwrap();
        close_m(&c0, &r, 1e-3);

        let mut tested = 0;
        for sched in ScheduleSampler::new(&space, 3).take_schedules(25) {
            if let Ok(c) = run_spmm(&a, &sched, &space, &b) {
                tested += 1;
                close_m(&c, &r, 1e-3);
            }
        }
        assert!(tested > 5);
    }

    #[test]
    fn sddmm_matches_reference_dense() {
        let mut rng = Rng64::seed_from(4);
        let a = gen::uniform_random(20, 22, 0.15, &mut rng);
        let space = Space::new(Kernel::SDDMM, vec![20, 22], 6);
        let b = DenseMatrix::from_fn(20, 6, |r, c| (r * 2 + c) as f32 * 0.1);
        let c = DenseMatrix::from_fn(6, 22, |r, c| (r + c) as f32 * 0.2 - 0.5);
        let reference = CsrMatrix::from_coo(&a).sddmm(&b, &c).to_dense();

        let d0 = run_sddmm(&a, &named::default_csr(&space), &space, &b, &c).unwrap();
        close_m(&d0.to_dense(), &reference, 1e-3);

        let mut tested = 0;
        for sched in ScheduleSampler::new(&space, 4).take_schedules(25) {
            if let Ok(d) = run_sddmm(&a, &sched, &space, &b, &c) {
                tested += 1;
                close_m(&d.to_dense(), &reference, 1e-3);
            }
        }
        assert!(tested > 5);
    }

    #[test]
    fn mttkrp_matches_reference() {
        let mut rng = Rng64::seed_from(5);
        let a = gen::random_tensor3([10, 11, 12], 80, &mut rng);
        let space = Space::new(Kernel::MTTKRP, vec![10, 11, 12], 4);
        let b = DenseMatrix::from_fn(11, 4, |r, c| ((r * 3 + c) % 7) as f32 * 0.25);
        let c = DenseMatrix::from_fn(12, 4, |r, c| ((r + 2 * c) % 5) as f32 * 0.5 - 1.0);
        let reference = mttkrp_reference(&a, &b, &c);

        let d0 = run_mttkrp(&a, &named::default_csr(&space), &space, &b, &c).unwrap();
        close_m(&d0, &reference, 1e-3);

        let mut tested = 0;
        for sched in ScheduleSampler::new(&space, 5).take_schedules(20) {
            if let Ok(d) = run_mttkrp(&a, &sched, &space, &b, &c) {
                tested += 1;
                close_m(&d, &reference, 1e-3);
            }
        }
        assert!(tested > 5);
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let mut rng = Rng64::seed_from(6);
        let a = gen::powerlaw_rows(64, 64, 6.0, 1.2, &mut rng);
        let space = Space::new(Kernel::SpMM, vec![64, 64], 8).with_thread_options(vec![4, 8]);
        let b = DenseMatrix::from_fn(64, 8, |r, c| ((r ^ c) % 9) as f32 * 0.3);
        for mut sched in ScheduleSampler::new(&space, 6).take_schedules(10) {
            let Ok(par) = run_spmm(&a, &sched, &space, &b) else {
                continue;
            };
            sched.parallel = None;
            let ser = run_spmm(&a, &sched, &space, &b).unwrap();
            close_m(&par, &ser, 1e-2);
        }
    }

    /// The work gate: a parallel schedule over a tiny operand must execute
    /// serially (and still match the reference), while realistic work keeps
    /// the directive.
    #[test]
    fn small_work_is_gated_to_serial() {
        let mut rng = Rng64::seed_from(9);
        let a = gen::uniform_random(64, 64, 0.1, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![64, 64], 0).with_thread_options(vec![8]);
        let sched = named::default_csr(&space);
        let pk = prepare(&a, &sched, &space);
        let (plan, st) = (pk.plan(), pk.storage());
        assert!(plan.parallel().is_some(), "schedule asks for threads");
        assert!(
            plan.effective_parallel(st).is_none(),
            "~{} nnz of SpMV work sits below the cutoff",
            st.vals().len()
        );
        let x = DenseVector::from_fn(64, |i| (i % 5) as f32 - 2.0);
        let y = run_spmv(&a, &sched, &space, &x).unwrap();
        let r = CsrMatrix::from_coo(&a).spmv(&x);
        assert!(y.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn large_work_keeps_the_parallel_directive() {
        let mut rng = Rng64::seed_from(10);
        // ~26k nnz × dense extent 16 ≈ 420k work: clears the cutoff.
        let a = gen::uniform_random(1024, 1024, 0.025, &mut rng);
        let space = Space::new(Kernel::SpMM, vec![1024, 1024], 16).with_thread_options(vec![8]);
        let sched = named::default_csr(&space);
        let pk = prepare(&a, &sched, &space);
        let p = pk
            .plan()
            .effective_parallel(pk.storage())
            .expect("work clears the cutoff");
        assert!(p.threads > 1);
        let b = DenseMatrix::from_fn(1024, 16, |r, c| ((r + c) % 7) as f32 * 0.5 - 1.0);
        let par = pk.run(KernelArgs::Spmm { b: &b }).unwrap();
        let par = par.into_matrix().unwrap();
        let r = CsrMatrix::from_coo(&a).spmm(&b);
        close_m(&par, &r, 1e-2);
    }

    #[test]
    fn kernel_mismatch_rejected() {
        let space = Space::new(Kernel::SpMV, vec![8, 8], 0);
        let sched = named::default_csr(&space);
        let a = gen::mesh2d(3, 3);
        let r = run_spmm(&a, &sched, &space, &DenseMatrix::zeros(9, 1));
        assert!(matches!(r, Err(ExecError::OperandMismatch(_))));
    }

    #[test]
    fn operand_shape_rejected() {
        let space = Space::new(Kernel::SpMV, vec![9, 9], 0);
        let sched = named::default_csr(&space);
        let a = gen::mesh2d(3, 3);
        let r = run_spmv(&a, &sched, &space, &DenseVector::zeros(5));
        assert!(matches!(r, Err(ExecError::OperandMismatch(_))));
    }

    #[test]
    fn mismatched_storage_spec_rejected() {
        let mut rng = Rng64::seed_from(7);
        let a = gen::uniform_random(12, 12, 0.2, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![12, 12], 0);
        let sched = named::default_csr(&space);
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        let other = SparseStorage::from_matrix(&a, &waco_format::FormatSpec::csc(12, 12)).unwrap();
        let x = DenseVector::zeros(12);
        let r = validate(&plan, &other, &KernelArgs::Spmv { x: &x });
        assert!(matches!(r, Err(ExecError::OperandMismatch(_))));
    }

    fn run_spgemm(
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &CsrMatrix,
    ) -> Result<CsrMatrix> {
        Executor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::Spgemm { b })?
            .into_csr()
    }

    #[test]
    fn spgemm_matches_dense_reference() {
        let mut rng = Rng64::seed_from(12);
        let a = gen::uniform_random(24, 20, 0.15, &mut rng);
        let bc = gen::uniform_random(20, 28, 0.15, &mut rng);
        let b = CsrMatrix::from_coo(&bc);
        let space = Space::new(Kernel::SpGEMM, vec![24, 20], 28);
        let sched = named::default_csr(&space);

        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::GustavsonSpgemm);

        let c = run_spgemm(&a, &sched, &space, &b).unwrap();
        let ad = a.to_dense();
        let bd = bc.to_dense();
        let cd = c.to_coo().to_dense();
        for i in 0..24 {
            for j in 0..28 {
                let mut r = 0.0f32;
                for k in 0..20 {
                    r += ad.get(i, k) * bd.get(k, j);
                }
                assert!((cd.get(i, j) - r).abs() < 1e-3, "({i},{j})");
            }
        }
    }

    #[test]
    fn spgemm_sampled_schedules_match() {
        let mut rng = Rng64::seed_from(15);
        let a = gen::uniform_random(18, 16, 0.2, &mut rng);
        let b = CsrMatrix::from_coo(&gen::uniform_random(16, 14, 0.25, &mut rng));
        let space = Space::new(Kernel::SpGEMM, vec![18, 16], 14);
        let reference = run_spgemm(&a, &named::default_csr(&space), &space, &b)
            .unwrap()
            .to_coo()
            .to_dense();
        let mut tested = 0;
        for sched in ScheduleSampler::new(&space, 15).take_schedules(25) {
            if let Ok(c) = run_spgemm(&a, &sched, &space, &b) {
                tested += 1;
                close_m(&c.to_coo().to_dense(), &reference, 1e-3);
            }
        }
        assert!(tested > 5);
    }

    fn assert_csr_bits(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
        let bits = |m: &CsrMatrix| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    /// `a · b` on the Gustavson row at `threads` (chunk 1, so a parallel run
    /// claims many ranges), held bit for bit to the oracle when `oracle`.
    fn gustavson_run(a: &CooMatrix, b: &CsrMatrix, threads: usize, oracle: bool) -> CsrMatrix {
        let dims = vec![a.nrows(), a.ncols()];
        let space = Space::new(Kernel::SpGEMM, dims, b.ncols()).with_thread_options(vec![threads]);
        let mut sched = named::default_csr(&space);
        sched.parallel.as_mut().unwrap().chunk = 1;
        let pk = prepare(a, &sched, &space);
        assert_eq!(pk.plan().fast_path(), FastPath::GustavsonSpgemm);
        let parallel = pk.plan().effective_parallel(pk.storage()).is_some();
        assert_eq!(parallel, threads > 1, "case sized for {threads} threads");
        let args = KernelArgs::Spgemm { b };
        let got = pk.run(args).unwrap().into_csr().unwrap();
        if oracle {
            let want = crate::oracle::run(&pk, args).unwrap().into_csr().unwrap();
            assert_csr_bits(&got, &want, &format!("{threads} threads vs oracle"));
        }
        got
    }

    /// A `B` extent spanning three summary words (4 096 columns each), the
    /// last one partial and not a multiple of 64 either: serial and 4-thread
    /// runs equal the oracle and each other, bit for bit.
    #[test]
    fn gustavson_bitmap_sweeps_past_two_summary_words() {
        let mut rng = Rng64::seed_from(19);
        let a = gen::uniform_random(24, 20, 0.3, &mut rng);
        let b = CsrMatrix::from_coo(&gen::uniform_random(20, 9_000, 0.02, &mut rng));
        let serial = gustavson_run(&a, &b, 1, true);
        assert!(serial.col_idx().iter().any(|&j| j >= 2 * 4_096));
        let parallel = gustavson_run(&a, &b, 4, true);
        assert_csr_bits(&parallel, &serial, "4 threads vs serial");
    }

    /// Row 0's products at column 5 cancel to exactly `0.0` and are dropped;
    /// rows 1 and 4.. of `A` are empty, and row 2 reaches only an empty row
    /// of `B`; row 3 hits both edges of a bitmap word and of a summary word.
    #[test]
    fn gustavson_drops_cancellations_and_keeps_empty_rows() {
        let a = [(0, 0, 1.0), (0, 1, 1.0), (2, 2, 3.0), (3, 3, 0.5)];
        let a = CooMatrix::from_triplets(6, 4, a).unwrap();
        let b = [
            (0, 5, 2.0),
            (0, 70, 1.0),
            (1, 5, -2.0),
            (3, 0, 1.0),
            (3, 63, -1.0),
            (3, 4_095, 2.0),
            (3, 4_096, 4.0),
            (3, 8_999, 8.0),
        ];
        let b = CsrMatrix::from_coo(&CooMatrix::from_triplets(4, 9_000, b).unwrap());
        let c = gustavson_run(&a, &b, 1, true);
        assert_eq!(c.row_ptr(), [0, 1, 1, 1, 6, 6, 6]);
        assert_eq!(c.col_idx(), [70, 0, 63, 4_095, 4_096, 8_999]);
        assert_eq!(c.vals(), [1.0, 0.5, -0.5, 1.0, 2.0, 4.0]);
    }

    /// `A · I ≡ A` bit for bit across three summary words, serial and on 4
    /// threads. Here `A` is the oracle: the generic arm would densify the
    /// 9 000² identity.
    #[test]
    fn spgemm_by_identity_is_a() {
        const N: usize = 9_000;
        let mut rng = Rng64::seed_from(20);
        let a = gen::uniform_random(30, N, 0.01, &mut rng);
        let eye = CooMatrix::from_triplets(N, N, (0..N).map(|i| (i, i, 1.0))).unwrap();
        let eye = CsrMatrix::from_coo(&eye);
        let acsr = CsrMatrix::from_coo(&a);
        for threads in [1, 4] {
            let c = gustavson_run(&a, &eye, threads, false);
            assert_csr_bits(&c, &acsr, &format!("A·I on {threads} threads"));
        }
    }

    fn run_fused(
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
        b: &DenseMatrix,
        c: &DenseMatrix,
        f: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        Executor::planned()
            .prepare(a, sched, space)?
            .run(KernelArgs::SddmmSpmm { b, c, f })?
            .into_matrix()
    }

    /// The fused kernel must be bit-identical to running SDDMM then SpMM
    /// unfused over the intermediate — the tentpole equivalence claim.
    #[test]
    fn fused_sddmm_spmm_is_bit_identical_to_unfused() {
        let mut rng = Rng64::seed_from(16);
        let a = gen::powerlaw_rows(40, 36, 4.0, 1.2, &mut rng);
        let (nk, nt) = (6usize, 8usize);
        let b = DenseMatrix::from_fn(40, nk, |r, c| ((r * 3 + c) % 7) as f32 * 0.2 - 0.5);
        let c = DenseMatrix::from_fn(nk, 36, |r, c| ((r + 2 * c) % 5) as f32 * 0.3 - 0.6);
        let f = DenseMatrix::from_fn(36, nt, |r, c| ((r ^ c) % 9) as f32 * 0.15 - 0.4);

        for threads in [1usize, 4] {
            let space =
                Space::new(Kernel::SddmmSpmm, vec![40, 36], nk).with_thread_options(vec![threads]);
            let sched = named::default_csr(&space);
            let plan = ExecutionPlan::build(&sched, &space).unwrap();
            assert_eq!(plan.fast_path(), FastPath::FusedSddmmSpmm);
            let fused = run_fused(&a, &sched, &space, &b, &c, &f).unwrap();

            // Unfused: SDDMM through the executor, then a CSR SpMM of the
            // intermediate against F.
            let sd_space =
                Space::new(Kernel::SDDMM, vec![40, 36], nk).with_thread_options(vec![threads]);
            let inter = run_sddmm(&a, &named::default_csr(&sd_space), &sd_space, &b, &c).unwrap();
            let sp_space =
                Space::new(Kernel::SpMM, vec![40, 36], nt).with_thread_options(vec![threads]);
            let unfused = run_spmm(&inter, &named::default_csr(&sp_space), &sp_space, &f).unwrap();

            for (x, y) in fused.as_slice().iter().zip(unfused.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn fused_sampled_schedules_match() {
        let mut rng = Rng64::seed_from(18);
        let a = gen::uniform_random(20, 18, 0.2, &mut rng);
        let b = DenseMatrix::from_fn(20, 4, |r, c| (r + c) as f32 * 0.2 - 0.7);
        let c = DenseMatrix::from_fn(4, 18, |r, c| (2 * r + c) as f32 * 0.1 - 0.4);
        let f = DenseMatrix::from_fn(18, 5, |r, c| ((r * c) % 6) as f32 * 0.3 - 0.5);
        let space = Space::new(Kernel::SddmmSpmm, vec![20, 18], 4);
        let reference = run_fused(&a, &named::default_csr(&space), &space, &b, &c, &f).unwrap();
        let mut tested = 0;
        for sched in ScheduleSampler::new(&space, 18).take_schedules(25) {
            if let Ok(e) = run_fused(&a, &sched, &space, &b, &c, &f) {
                tested += 1;
                close_m(&e, &reference, 1e-3);
            }
        }
        assert!(tested > 5);
    }

    #[test]
    fn workspace_operand_shapes_rejected() {
        let a = gen::mesh2d(4, 4);
        let space = Space::new(Kernel::SpGEMM, vec![16, 16], 12);
        let sched = named::default_csr(&space);
        let wrong = CsrMatrix::from_coo(&gen::mesh2d(3, 3));
        let r = run_spgemm(&a, &sched, &space, &wrong);
        assert!(matches!(r, Err(ExecError::OperandMismatch(_))));

        let space = Space::new(Kernel::SddmmSpmm, vec![16, 16], 4);
        let sched = named::default_csr(&space);
        let b = DenseMatrix::zeros(16, 4);
        let c = DenseMatrix::zeros(4, 16);
        let f = DenseMatrix::zeros(9, 3); // wrong row count
        let r = run_fused(&a, &sched, &space, &b, &c, &f);
        assert!(matches!(r, Err(ExecError::OperandMismatch(_))));
    }
}
