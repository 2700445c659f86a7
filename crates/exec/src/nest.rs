//! The dynamic scheduled loop-nest interpreter.
//!
//! [`LoopNest`] binds an [`ExecutionPlan`]'s lowered metadata to a sparse
//! operand's hierarchical storage and walks the iteration space, re-deciding
//! per loop variable — dynamically, with a bound-variable mask — between
//! concordant iteration of the storage and discordant dense iteration plus
//! locate (see the crate docs). This is the *reference* execution strategy:
//! [`crate::PlannedKernel::run`] executes [`ExecutionPlan::walk`]'s
//! pre-resolved op sequence or a row of the specialization tier
//! ([`crate::TIER`]), and `waco-verify`'s plan suite checks every one of
//! them produces bit-identical outputs to [`crate::oracle::run`] — and, for
//! the generic walkers, identical [`Instrument`] streams. Kernels supply the
//! loop body; the simulator supplies an [`Instrument`].

use crate::plan::{var_slot, ExecutionPlan};
use waco_format::SparseStorage;
use waco_schedule::LoopVar;
use waco_tensor::Value;

/// Observation hooks for the walker. All methods have no-op defaults; the
/// cost simulator in `waco-sim` implements them to count events.
pub trait Instrument {
    /// `false` promises that every hook below is a no-op. [`ExecutionPlan::walk`]
    /// then skips the per-visit replay of the unit-extent ops' events
    /// outright instead of leaving it to the optimiser; every other hook is
    /// still called. Event-observing instruments keep the default `true`.
    const TRACING: bool = true;

    /// `true` promises that the instrument only sums: what `concordant`,
    /// `dense_loop` and `locate` add depends on their counts alone, not on
    /// the level, the variable or the order of the calls.
    /// [`ExecutionPlan::walk`] then reports the unit-extent ops' events of a
    /// whole run of children in one [`Instrument::bulk`] call instead of
    /// replaying them per child. Event-stream instruments keep the default
    /// `false`.
    const COUNTS: bool = false;

    /// `times` repetitions of `unit`: called only when `COUNTS`, in place
    /// of `times` replays of the unit-extent ops' events. The default drops
    /// them; an instrument that sets `COUNTS` adds them.
    fn bulk(&mut self, unit: UnitEvents, times: usize) {
        let _ = (unit, times);
    }

    /// A concordant iteration of storage level `level` is about to yield
    /// `children` entries.
    fn concordant(&mut self, level: usize, children: usize) {
        let _ = (level, children);
    }
    /// A discordant dense loop over `var` with `extent` iterations begins.
    fn dense_loop(&mut self, var: LoopVar, extent: usize) {
        let _ = (var, extent);
    }
    /// A locate on storage level `level` performed `probes` probes and
    /// `hit` says whether the coordinate was present.
    fn locate(&mut self, level: usize, probes: usize, hit: bool) {
        let _ = (level, probes, hit);
    }
    /// The innermost body executed for a stored nonzero.
    fn body(&mut self) {}
}

/// The events one pass over a stretch of unit-extent ops reports, each op
/// its one event: what [`Instrument::bulk`] hands over `times` at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitEvents {
    /// One-child concordant iterations (`concordant(level, 1)` each).
    pub concordant: u64,
    /// One-iteration dense loops (`dense_loop(var, 1)` each).
    pub dense: u64,
    /// One-probe locates that hit (`locate(level, 1, true)` each).
    pub locates: u64,
}

/// The no-op instrument used by real execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInstrument;

impl Instrument for NoInstrument {
    const TRACING: bool = false;
}

/// Kernel dimensions a plan can have: MTTKRP's `i, k, l, j`.
pub(crate) const MAX_DIMS: usize = 4;

/// Per-iteration context handed to kernel bodies: the bound axis coordinates
/// plus every dimension's original coordinate, resolved ahead of the body.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) bound: &'a [usize],
    /// Per dimension: `outer * split + inner`, and the extent (0 past them).
    pub(crate) coords: [usize; MAX_DIMS],
    pub(crate) extents: [usize; MAX_DIMS],
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(bound: &'a [usize], splits: &[usize], dims: &[usize]) -> Self {
        let (mut coords, mut extents) = ([0; MAX_DIMS], [0; MAX_DIMS]);
        for d in 0..splits.len() {
            coords[d] = bound[d * 2] * splits[d] + bound[d * 2 + 1];
            extents[d] = dims[d];
        }
        Ctx {
            bound,
            coords,
            extents,
        }
    }

    /// The original coordinate of kernel dimension `dim`, or `None` when the
    /// current split coordinates land in a partial block's padding
    /// (`coord >= extent`).
    #[inline]
    pub fn coord(&self, dim: usize) -> Option<usize> {
        let c = self.coords[dim];
        (c < self.extents[dim]).then_some(c)
    }

    /// The raw bound coordinate of a loop variable (axis coordinate).
    #[inline]
    pub fn axis_coord(&self, var: LoopVar) -> usize {
        self.bound[var_slot(var)]
    }
}

/// A loop nest: a lowered plan bound to a stored sparse operand, executed
/// by the dynamic interpreter.
pub struct LoopNest<'a> {
    a: &'a SparseStorage,
    plan: &'a ExecutionPlan,
}

impl<'a> LoopNest<'a> {
    /// Binds a lowered plan to an operand stored in its spec. No validation,
    /// no allocation.
    pub fn from_plan(plan: &'a ExecutionPlan, a: &'a SparseStorage) -> Self {
        debug_assert_eq!(a.spec(), plan.spec(), "operand stored in the plan's spec");
        LoopNest { a, plan }
    }

    /// Walks the subrange `outer_range` of the outermost loop, invoking
    /// `body(ctx, a_pos, a_val)` for every reachable stored nonzero slot and
    /// reporting events to `instr`.
    ///
    /// Stored slots whose value is exactly `0.0` (block padding) are skipped:
    /// every kernel multiplies by `A`, so they cannot contribute.
    pub fn walk<I: Instrument>(
        &self,
        outer_range: std::ops::Range<usize>,
        instr: &mut I,
        body: &mut impl FnMut(&Ctx<'_>, usize, Value),
    ) {
        let mut state = WalkState {
            plan: self.plan,
            a: self.a,
            bound: vec![0usize; self.plan.var_level.len()],
            bound_mask: vec![false; self.plan.var_level.len()],
            instr,
            body,
        };
        state.walk_outer(outer_range);
    }
}

struct WalkState<'n, 'a, I: Instrument, F: FnMut(&Ctx<'_>, usize, Value)> {
    plan: &'n ExecutionPlan,
    a: &'a SparseStorage,
    bound: Vec<usize>,
    bound_mask: Vec<bool>,
    instr: &'n mut I,
    body: &'n mut F,
}

impl<I: Instrument, F: FnMut(&Ctx<'_>, usize, Value)> WalkState<'_, '_, I, F> {
    fn walk_outer(&mut self, range: std::ops::Range<usize>) {
        if self.plan.order.is_empty() {
            return;
        }
        let v = self.plan.order[0];
        let slot = var_slot(v);
        // The outermost loop always iterates its dense range (this is the
        // parallel loop; OpenMP distributes dense iterations).
        self.instr.dense_loop(v, range.len());
        self.bound_mask[slot] = true;
        for c in range {
            self.bound[slot] = c;
            match self.catch_up(0, 0) {
                Some((d, p)) => self.walk_rec(1, d, p),
                None => continue,
            }
        }
        self.bound_mask[slot] = false;
    }

    fn walk_rec(&mut self, depth: usize, a_depth: usize, a_pos: usize) {
        if depth == self.plan.order.len() {
            debug_assert_eq!(a_depth, self.plan.nlevels, "all levels resolved at body");
            let val = self.a.value(a_pos);
            if val != 0.0 {
                self.instr.body();
                let ctx = Ctx::new(&self.bound, &self.plan.splits, &self.plan.dim_extents);
                (self.body)(&ctx, a_pos, val);
            }
            return;
        }
        let v = self.plan.order[depth];
        let slot = var_slot(v);
        let concordant = self.plan.var_level[slot] == Some(a_depth);
        self.bound_mask[slot] = true;
        if concordant {
            let iter = self.a.iterate(a_depth, a_pos);
            self.instr.concordant(a_depth, iter.len());
            // Collecting would allocate; LevelIter borrows immutably from
            // storage which is fine alongside &mut self fields.
            for (coord, pos) in iter {
                self.bound[slot] = coord;
                match self.catch_up(a_depth + 1, pos) {
                    Some((d, p)) => self.walk_rec(depth + 1, d, p),
                    None => continue,
                }
            }
        } else {
            let extent = self.plan.order_extents[depth];
            self.instr.dense_loop(v, extent);
            for coord in 0..extent {
                self.bound[slot] = coord;
                match self.catch_up(a_depth, a_pos) {
                    Some((d, p)) => self.walk_rec(depth + 1, d, p),
                    None => continue,
                }
            }
        }
        self.bound_mask[slot] = false;
    }

    /// Advances the storage cursor over every level whose axis variable is
    /// already bound, locating the bound coordinate. Returns `None` when a
    /// coordinate is structurally absent (the subtree contributes nothing).
    #[inline]
    fn catch_up(&mut self, mut d: usize, mut pos: usize) -> Option<(usize, usize)> {
        while d < self.plan.nlevels {
            let lv = self.plan.level_var[d];
            let slot = var_slot(lv);
            if !self.bound_mask[slot] {
                break;
            }
            let coord = self.bound[slot];
            let (found, probes) = self.a.level(d).locate_counted(pos, coord);
            self.instr.locate(d, probes, found.is_some());
            pos = found?;
            d += 1;
        }
        Some((d, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::{named, Kernel, Space, SuperSchedule};
    use waco_tensor::gen::{self, Rng64};
    use waco_tensor::CooMatrix;

    /// The plan for a (validated) schedule plus `m` stored in its spec —
    /// what every `LoopNest::from_plan` below binds.
    fn lowered(
        m: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
    ) -> (ExecutionPlan, SparseStorage) {
        let plan = ExecutionPlan::build(sched, space).expect("schedule validates against space");
        let st = SparseStorage::from_matrix(m, plan.spec()).unwrap();
        (plan, st)
    }

    /// Sums of A*x via the walker must equal reference SpMV for any schedule.
    fn walk_spmv(m: &CooMatrix, sched: &SuperSchedule, space: &Space) -> Vec<f32> {
        let (plan, st) = lowered(m, sched, space);
        let mut y = vec![0.0f32; m.nrows()];
        let x: Vec<f32> = (0..m.ncols()).map(|k| (k + 1) as f32).collect();
        LoopNest::from_plan(&plan, &st).walk(
            0..plan.outer_extent(),
            &mut NoInstrument,
            &mut |ctx, _, v| {
                let (Some(i), Some(k)) = (ctx.coord(0), ctx.coord(1)) else {
                    return;
                };
                y[i] += v * x[k];
            },
        );
        y
    }

    fn reference_spmv(m: &CooMatrix) -> Vec<f32> {
        let mut y = vec![0.0f32; m.nrows()];
        for (r, c, v) in m.iter() {
            y[r] += v * (c + 1) as f32;
        }
        y
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-3, "mismatch {x} vs {y}");
        }
    }

    #[test]
    fn default_schedule_walks_csr() {
        let mut rng = Rng64::seed_from(1);
        let m = gen::uniform_random(24, 24, 0.15, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![24, 24], 0);
        let sched = named::default_csr(&space);
        assert_close(&walk_spmv(&m, &sched, &space), &reference_spmv(&m));
    }

    #[test]
    fn random_schedules_match_reference() {
        let mut rng = Rng64::seed_from(2);
        let m = gen::uniform_random(19, 23, 0.2, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![19, 23], 0);
        let reference = reference_spmv(&m);
        for trial in 0..60 {
            let sched = SuperSchedule::sample(&space, &mut rng);
            let spec = sched.a_format_spec(&space).unwrap();
            if SparseStorage::from_matrix(&m, &spec).is_err() {
                continue; // over budget — excluded configuration
            }
            let got = walk_spmv(&m, &sched, &space);
            for (x, y) in got.iter().zip(&reference) {
                assert!(
                    (x - y).abs() < 1e-3,
                    "trial {trial}: {} → {x} vs {y}",
                    sched.describe(&space)
                );
            }
        }
    }

    #[test]
    fn parallel_var_is_hoisted() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let mut sched = named::default_csr(&space);
        // Parallelize i0 which sits late in the loop order.
        sched.parallel = Some(waco_schedule::Parallelize {
            var: LoopVar::inner(0),
            threads: 2,
            chunk: 1,
        });
        let mut rng = Rng64::seed_from(3);
        let m = gen::uniform_random(16, 16, 0.2, &mut rng);
        let (plan, _) = lowered(&m, &sched, &space);
        assert_eq!(plan.order()[0], LoopVar::inner(0));
        // Extent of i0 with split 1 is 1.
        assert_eq!(plan.outer_extent(), 1);
    }

    #[test]
    fn instrument_sees_events() {
        #[derive(Default)]
        struct Counter {
            concordant: usize,
            dense: usize,
            locates: usize,
            bodies: usize,
        }
        impl Instrument for Counter {
            fn concordant(&mut self, _l: usize, c: usize) {
                self.concordant += c;
            }
            fn dense_loop(&mut self, _v: LoopVar, e: usize) {
                self.dense += e;
            }
            fn locate(&mut self, _l: usize, _p: usize, _h: bool) {
                self.locates += 1;
            }
            fn body(&mut self) {
                self.bodies += 1;
            }
        }

        let mut rng = Rng64::seed_from(4);
        let m = gen::uniform_random(16, 16, 0.2, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let sched = named::default_csr(&space);
        let (plan, st) = lowered(&m, &sched, &space);
        let mut c = Counter::default();
        LoopNest::from_plan(&plan, &st).walk(0..plan.outer_extent(), &mut c, &mut |_, _, _| {});
        assert_eq!(c.bodies, m.nnz());
        assert!(c.concordant >= m.nnz(), "k level iterated concordantly");
        // Outer parallel i1 loop is dense (16) plus trivial inner loops.
        assert!(c.dense >= 16);
        // CSR default: outer i1 is located once per row (parallel hoist).
        assert!(c.locates >= 16);
    }

    #[test]
    fn work_estimate_orders_schedules() {
        let mut rng = Rng64::seed_from(5);
        let m = gen::uniform_random(64, 64, 0.05, &mut rng);
        let space = Space::new(Kernel::SpMV, vec![64, 64], 0);
        let good = named::default_csr(&space);
        // A deliberately discordant order: iterate k0/i0 outer with splits 1
        // is harmless, but iterate full k dense outside i.
        let mut bad = good.clone();
        bad.loop_order = vec![
            LoopVar::outer(1),
            LoopVar::outer(0),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        bad.parallel = None;
        // k-major traversal of a row-major CSR: k1 loop is dense.
        let (p_good, st_good) = lowered(&m, &good, &space);
        let (p_bad, st_bad) = lowered(&m, &bad, &space);
        let w_good = p_good.work_estimate(&st_good);
        let w_bad = p_bad.work_estimate(&st_bad);
        assert!(
            w_bad > 2.0 * w_good,
            "discordant estimate {w_bad} should exceed concordant {w_good}"
        );
    }

    #[test]
    fn partial_blocks_skip_padding() {
        // 5x5 matrix, 2x2 blocks: padded coords must not reach the body.
        let m = CooMatrix::from_triplets(5, 5, vec![(4, 4, 1.0), (0, 0, 2.0)]).unwrap();
        let space = Space::new(Kernel::SpMV, vec![5, 5], 0);
        let mut sched = named::default_csr(&space);
        sched.splits = vec![2, 2];
        let got = walk_spmv(&m, &sched, &space);
        assert_close(&got, &reference_spmv(&m));
    }
}
