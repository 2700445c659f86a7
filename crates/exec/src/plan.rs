//! Lowering of `(SuperSchedule, Space)` into a flat [`ExecutionPlan`] IR.
//!
//! The interpreter in [`crate::nest`] decides concordant-vs-discordant
//! traversal and locate catch-up *dynamically*, per loop variable, on every
//! walk. Those decisions depend only on the schedule's effective loop order
//! and the format's level order — never on the stored nonzeros — so they can
//! be made once, at plan-build time, the way TACO commits to a traversal
//! strategy at code generation time. [`ExecutionPlan::build`] validates the
//! schedule once, derives the format spec, and lowers the nest into a flat
//! op sequence:
//!
//! * [`PlanOp::ParallelChunk`] / [`PlanOp::DenseLoop`] — dense iteration of a
//!   loop variable's extent (the outermost op is always one of these: the
//!   parallel runtime distributes dense chunks, so even a stored outer level
//!   is dense-iterated and then located);
//! * [`PlanOp::ConcordantIter`] — the loop variable matches the next
//!   unresolved storage level, so the stored entries are enumerated directly;
//! * [`PlanOp::Locate`] — a level whose axis variable is already bound is
//!   resolved by probing ([`LocateKind`] records the strategy: constant-time
//!   stride arithmetic for uncompressed levels, binary search for compressed
//!   ones); a structural miss prunes the subtree;
//! * [`PlanOp::Body`] — a reachable stored nonzero; padding slots (exact
//!   `0.0`) are skipped.
//!
//! The plan is independent of any particular stored operand — it references
//! storage *levels*, not storage — so a plan can be cached (the serve layer
//! keys one by matrix fingerprint + schedule) and shared by every subsystem:
//! `waco-exec` runs it, `waco-sim` walks it under an event-counting
//! [`Instrument`], `waco-verify` diffs it against the dynamic interpreter,
//! and `waco-cli plan` pretty-prints it. [`ExecutionPlan::walk`] reproduces
//! the interpreter's instrument event stream exactly (same hooks, same
//! order, same arguments) and its body calls (same positions, values and
//! [`Ctx`] answers); `waco-verify`'s plan suite enforces both.
//!
//! **The walk is specialised once per call, not interpreted per entry**
//! (DESIGN §4.8): unit-extent ops only replay their events, the other ops
//! are resolved against the storage, the innermost loop runs the body
//! inline, and coordinates are kept up to date as slots are bound. A body
//! that takes runs (`RunBody`, through the uninstrumented
//! `ExecutionPlan::walk_runs`) is handed an innermost dense loop over an
//! unstored dimension — a reduction into one stored slot — in one call.
//!
//! For the hot CSR-family shapes the plan additionally records a
//! [`FastPath`] — the specialization tier: the kernel bypasses the generic
//! op executor and runs a monomorphized (row source, leaf) pair with no
//! per-element branching (see `kernels.rs`). `select_fast_path` is the
//! tier's one selection predicate, a pure function of the lowered shape that
//! reads no dense extent, so a plan lowered over a dense-collapsed space
//! records the variant the full space would; its reason string is recorded
//! alongside ([`ExecutionPlan::fast_path_reason`]) and surfaced by
//! `waco-cli plan`. Every name a variant goes by — wire
//! name, describe label, `exec.*` / `sim.*` counters — is one row of the
//! descriptor table next to the enum ([`FastPath::names`]).

use crate::nest::{Ctx, Instrument, NoInstrument, UnitEvents, MAX_DIMS};
use crate::Result;
use waco_format::{Axis, AxisPart, FormatSpec, LevelFormat, LevelStorage, SparseStorage};
use waco_schedule::{Kernel, LoopVar, Parallelize, Space, SuperSchedule};
use waco_tensor::Value;

#[inline]
pub(crate) fn part_index(p: AxisPart) -> usize {
    match p {
        AxisPart::Outer => 0,
        AxisPart::Inner => 1,
    }
}

/// The slot of a loop variable in the bound-coordinate array: `dim*2 + part`.
#[inline]
pub(crate) fn var_slot(v: LoopVar) -> usize {
    v.dim * 2 + part_index(v.part)
}

/// How a [`PlanOp::Locate`] resolves its coordinate — precomputed from the
/// level format so the IR records the cost class, not just the level index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateKind {
    /// Uncompressed level: `child = parent * extent + coord`, one probe.
    Stride(usize),
    /// Compressed level: binary search of the parent's crd segment.
    BinarySearch,
}

/// One op of the lowered loop nest. Ops form a single flat nesting: op `i+1`
/// runs inside op `i`; the last op is always [`PlanOp::Body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// The outermost dense loop when the schedule parallelizes it: its
    /// iterations are distributed to worker threads in dynamic chunks.
    ParallelChunk {
        /// The hoisted parallel loop variable.
        var: LoopVar,
        /// Bound-coordinate slot written by the loop.
        slot: usize,
        /// Full extent of the loop (each worker walks a subrange).
        extent: usize,
        /// Worker-thread count.
        threads: usize,
        /// Dynamic chunk size.
        chunk: usize,
    },
    /// A discordant dense loop over the variable's extent.
    DenseLoop {
        /// The loop variable.
        var: LoopVar,
        /// Bound-coordinate slot written by the loop.
        slot: usize,
        /// Loop extent (outer part: `ceil(n/split)`; inner part: `split`).
        extent: usize,
    },
    /// Concordant enumeration of a storage level's stored entries.
    ConcordantIter {
        /// The storage level being enumerated.
        level: usize,
        /// Bound-coordinate slot written by the yielded coordinates.
        slot: usize,
    },
    /// Resolve a level whose axis variable is already bound; a miss prunes.
    Locate {
        /// The storage level being probed.
        level: usize,
        /// Bound-coordinate slot holding the coordinate to locate.
        slot: usize,
        /// Precomputed probe strategy for the level.
        kind: LocateKind,
    },
    /// A dense temporary (workspace) scoped to the enclosing loop iteration,
    /// as the workspace kernels' cost is modelled: an `extent`-wide dense
    /// row that the sub-nest scatters into and that is gather-reset on the
    /// way out. The Stage-1 bound and the simulator price it for both
    /// kernels. At run time only Gustavson SpGEMM allocates it (from the
    /// pool in `crate::workspace`); the fused SDDMM+SpMM row adds each
    /// sampled value into its output as soon as it is computed, and the
    /// generic op executor passes through (it materializes a full dense
    /// accumulator instead).
    Workspace {
        /// Pre-resolved extent of the dense temporary, in values.
        extent: usize,
    },
    /// The innermost kernel body, run once per reachable stored nonzero.
    Body,
}

/// Monomorphized inner loops the plan qualifies for — the specialization
/// tier. Selection happens once, at lowering time, from the
/// `(FormatSpec, SuperSchedule)` pair (`select_fast_path`); the kernel
/// entry looks the recorded variant up in its (kernel, variant) table and
/// runs that row's source × leaf pair, and every variant is held to bit
/// identity against the dynamic interpreter by `waco-verify`'s plan suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPath {
    /// No fast path: run the generic op executor.
    None,
    /// Fully-concordant row-major CSR SpMV (spec `i1(U) k1(C) i0(U) k0(U)`,
    /// sparse splits 1, rows outermost): a direct pos/crd dot per row.
    CsrRows,
    /// The same CSR shape for SpMM, at every dense extent: the dense
    /// operand's columns are tiled into register-resident accumulator
    /// blocks (32 columns wide, then [`ExecutionPlan::SPMM_TILE`], then the
    /// remainder) so each stored nonzero is loaded once per tile.
    RegBlockSpmm,
    /// BCSR (split CSR, spec `i1(U) k1(C) i0(U) k0(U)` with block splits)
    /// whose block columns reach [`ExecutionPlan::BCSR_SIMD_MIN`]: the inner
    /// loop is an unrolled dense micro-kernel over the contiguous block row
    /// — the paper's "vectorize when the dense extent ≥ 16" heuristic
    /// (Fig. 14).
    BcsrBlock,
    /// Column-major traversal of row-major CSR SpMV: instead of the generic
    /// walk's per-(k, i) binary search, prepare sorts the operand's entries
    /// into a transpose permutation (counting sort, O(nnz + ncols)) owned by
    /// the [`crate::PlannedKernel`], not by the plan, and every run streams
    /// its columns in order — closing the concordant/discordant gap.
    DiscordantCsr,
    /// Row-wise Gustavson SpGEMM over row-major CSR: each output row is
    /// scatter-accumulated into the plan's workspace, its touched columns
    /// gathered in ascending order by a sweep of the workspace's two-level
    /// bitmap (no sort), and each claim's rows written as one block that
    /// assembly concatenates into the CSR output.
    GustavsonSpgemm,
    /// Fused SDDMM+SpMM over row-major CSR: one pass over the sparse
    /// operand's row computes each sampled SDDMM value and at once adds it,
    /// through the dense `F` operand, into the output row — the
    /// intermediate sparse product is never materialized, not even a row
    /// of it.
    FusedSddmmSpmm,
}

/// Every name one [`FastPath`] variant goes by — one row of the descriptor
/// table below.
#[derive(Debug)]
pub struct FastPathNames {
    /// Stable machine-readable name: the `waco-cli plan` JSON dump, trace
    /// rows, and the suffix of every counter below.
    pub wire_name: &'static str,
    /// Human-readable label used by [`ExecutionPlan::describe`].
    pub label: &'static str,
    /// Counter bumped once per validated [`crate::PlannedKernel::run`].
    pub exec_counter: &'static str,
    /// Counter bumped once per simulated kernel whose plan takes the variant.
    pub sim_counter: &'static str,
    /// Histogram of the ns the variant's pricing saved over the generic nest.
    pub sim_saved_ns: &'static str,
}

/// The descriptor table: one `Variant => wire name, label;` row per
/// variant. Counter names are derived from the wire name here and nowhere
/// else, so every string a variant is known by sits in its one row.
macro_rules! fast_path_table {
    ($($variant:ident => $wire:literal, $label:literal;)*) => {
        impl FastPath {
            /// The variant's row of the descriptor table.
            pub const fn names(self) -> &'static FastPathNames {
                match self {
                    $(FastPath::$variant => &FastPathNames {
                        wire_name: $wire,
                        label: $label,
                        exec_counter: concat!("exec.plan.fastpath.", $wire),
                        sim_counter: concat!("sim.plan.fastpath.", $wire),
                        sim_saved_ns: concat!("sim.plan.fastpath.", $wire, "_saved_ns"),
                    },)*
                }
            }
        }
    };
}

fast_path_table! {
    None => "none", "none (generic op executor)";
    CsrRows => "csr_rows", "csr-rows (monomorphized pos/crd loop)";
    RegBlockSpmm => "reg_block_spmm", "reg-block-spmm (register-tiled column blocks)";
    BcsrBlock => "bcsr_block", "bcsr-block (unrolled dense block micro-kernel)";
    DiscordantCsr => "discordant_csr", "discordant-csr (transpose-permutation column stream)";
    GustavsonSpgemm => "gustavson_spgemm", "gustavson-spgemm (row-wise workspace accumulator)";
    FusedSddmmSpmm => "fused_sddmm_spmm", "fused-sddmm-spmm (one-pass fused row)";
}

impl FastPath {
    /// Stable machine-readable name ([`FastPathNames::wire_name`]).
    pub const fn wire_name(self) -> &'static str {
        self.names().wire_name
    }
}

/// A schedule lowered once into a flat, pre-resolved op sequence.
///
/// Built by [`ExecutionPlan::build`] from a `(SuperSchedule, Space)` pair;
/// the format spec is derived internally, so the triple of the paper's
/// co-optimization — schedule, space, format — is validated and committed in
/// one place. The plan borrows nothing: it is `Send + Sync`, cheap to clone
/// behind an `Arc`, and reusable across any operand stored in its spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    kernel: Kernel,
    spec: FormatSpec,
    ops: Vec<PlanOp>,
    /// Indices into `ops` of the ops [`ExecutionPlan::walk`] visits ([`is_unit`]).
    visited: Vec<usize>,
    /// Effective loop order: the parallelized variable hoisted outermost.
    pub(crate) order: Vec<LoopVar>,
    /// Extent of each loop variable in `order`.
    pub(crate) order_extents: Vec<usize>,
    /// For each storage level, the loop variable it stores.
    pub(crate) level_var: Vec<LoopVar>,
    /// For each var slot (`dim*2+part`), the storage level, if any.
    pub(crate) var_level: Vec<Option<usize>>,
    /// Split size per kernel dimension (clamped to the dimension extent).
    pub(crate) splits: Vec<usize>,
    /// Extent per kernel dimension.
    pub(crate) dim_extents: Vec<usize>,
    /// Number of storage levels.
    pub(crate) nlevels: usize,
    sparse_dims: Vec<usize>,
    dense_extent: usize,
    parallel: Option<Parallelize>,
    fast: FastPath,
    /// Why `fast` was (or was not) selected: the satisfied predicate, or the
    /// first failed one on the road to `FastPath::None`.
    fast_why: &'static str,
}

impl ExecutionPlan {
    /// Validates `sched` against `space` and lowers it into a plan.
    ///
    /// This is the single validation point of the execution stack: kernels,
    /// the simulator, and the serve-side plan cache all build (or fetch)
    /// plans instead of re-validating per call.
    ///
    /// # Errors
    ///
    /// Schedule validation ([`crate::ExecError::Schedule`]) and format-spec
    /// derivation ([`crate::ExecError::Format`]) errors.
    pub fn build(sched: &SuperSchedule, space: &Space) -> Result<Self> {
        sched.validate(space)?;
        let spec = sched.a_format_spec(space)?;

        let mut order = sched.loop_order.clone();
        if let Some(p) = &sched.parallel {
            let idx = order
                .iter()
                .position(|v| *v == p.var)
                .expect("validated schedule contains its parallel var");
            let v = order.remove(idx);
            order.insert(0, v);
        }
        let order_extents: Vec<usize> =
            order.iter().map(|&v| sched.loop_extent(space, v)).collect();

        let level_var: Vec<LoopVar> = spec
            .order()
            .iter()
            .map(|ax| LoopVar {
                dim: ax.dim,
                part: ax.part,
            })
            .collect();
        let ndims = space.kernel.ndims();
        let mut var_level = vec![None; ndims * 2];
        for (l, v) in level_var.iter().enumerate() {
            var_level[var_slot(*v)] = Some(l);
        }
        let splits: Vec<usize> = (0..ndims)
            .map(|d| sched.splits[d].min(space.dim_extent(d).max(1)))
            .collect();
        let dim_extents: Vec<usize> = (0..ndims).map(|d| space.dim_extent(d)).collect();
        let nlevels = level_var.len();

        let mut ops = lower_ops(
            &order,
            &order_extents,
            &level_var,
            &var_level,
            nlevels,
            &spec,
            sched.parallel.as_ref(),
        );
        if space.kernel.uses_workspace() {
            // The workspace is scoped to one iteration of the outermost
            // (row) loop: allocated (or fetched from the reuse pool) on
            // entry, gather-reset on exit. Its extent is pre-resolved here
            // so execution never sizes a buffer per row.
            let extent = match space.kernel {
                Kernel::SpGEMM => space.dense_extent,
                _ => space.sparse_dims[1],
            };
            ops.insert(1, PlanOp::Workspace { extent });
        }
        let (fast, fast_why) = select_fast_path(space.kernel, &spec, &order, &splits);
        let visited = (0..ops.len())
            .filter(|&i| i == 0 || !is_unit(ops[i], &spec))
            .collect();

        Ok(ExecutionPlan {
            kernel: space.kernel,
            spec,
            ops,
            visited,
            order,
            order_extents,
            level_var,
            var_level,
            splits,
            dim_extents,
            nlevels,
            sparse_dims: space.sparse_dims.clone(),
            dense_extent: space.dense_extent,
            parallel: sched.parallel,
            fast,
            fast_why,
        })
    }

    /// The kernel the plan executes.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The format spec the sparse operand must be stored in.
    pub fn spec(&self) -> &FormatSpec {
        &self.spec
    }

    /// The lowered op sequence (outermost first, [`PlanOp::Body`] last).
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The effective loop order (parallel variable hoisted outermost).
    pub fn order(&self) -> &[LoopVar] {
        &self.order
    }

    /// Extent of each loop variable in [`ExecutionPlan::order`].
    pub fn order_extents(&self) -> &[usize] {
        &self.order_extents
    }

    /// Extent of the outermost (parallelizable) loop.
    pub fn outer_extent(&self) -> usize {
        self.order_extents[0]
    }

    /// Clamped split size per kernel dimension.
    pub fn splits(&self) -> &[usize] {
        &self.splits
    }

    /// Extent per kernel dimension.
    pub fn dim_extents(&self) -> &[usize] {
        &self.dim_extents
    }

    /// Sparse operand dimensions.
    pub fn sparse_dims(&self) -> &[usize] {
        &self.sparse_dims
    }

    /// Dense operand extent (`|j|` for SpMM/SDDMM, rank for MTTKRP).
    pub fn dense_extent(&self) -> usize {
        self.dense_extent
    }

    /// The schedule's parallelization directive, if any.
    pub fn parallel(&self) -> Option<&Parallelize> {
        self.parallel.as_ref()
    }

    /// Work (stored nonzeros × dense extent) below which a kernel runs
    /// serially whatever its schedule says. The value was fixed against the
    /// accumulate-and-merge region on an eight-participant pool, where a
    /// 10k-row SpMV (~80k nnz, work 80k) ran ~16 % faster serially. On the
    /// in-place region and two participants that SpMV runs at 0.65× serial
    /// when forced parallel: break-even is near 15–20k work for SpMV and
    /// near 300k for SpMM×16 (DESIGN §4.1.1 has the paired measurements),
    /// so the value is right for SpMM and conservative for SpMV. Changing it
    /// changes which plans run parallel and is left to a PR that claims that.
    pub const PARALLEL_WORK_CUTOFF: f64 = 250_000.0;

    /// The parallel directive the executor should actually honor for the
    /// operand `a`: the schedule's directive when the predicted work clears
    /// [`ExecutionPlan::PARALLEL_WORK_CUTOFF`], `None` otherwise. The
    /// schedule (and the simulator's timing of it) is unchanged — this is
    /// a runtime guard so small requests don't pay pool latency the cost
    /// model amortizes away at realistic sizes.
    pub fn effective_parallel(&self, a: &SparseStorage) -> Option<&Parallelize> {
        let p = self.parallel.as_ref().filter(|p| p.threads > 1)?;
        let work = a.vals().len() as f64 * self.dense_extent.max(1) as f64;
        (work >= Self::PARALLEL_WORK_CUTOFF).then_some(p)
    }

    /// Block-column width at which a BCSR plan takes the dense micro-kernel
    /// fast path — the paper's "vectorize when the dense extent ≥ 16"
    /// heuristic (Fig. 14): narrower blocks don't fill a SIMD register.
    pub const BCSR_SIMD_MIN: usize = 16;

    /// Narrowest full column tile of the register-blocked SpMM leaf: eight
    /// f32 accumulators fit one 256-bit register. The leaf covers 32
    /// columns a pass first, where the row is that wide, then this many,
    /// then one remainder tile narrower than this.
    pub const SPMM_TILE: usize = 8;

    /// The monomorphized fast path the plan qualifies for.
    pub fn fast_path(&self) -> FastPath {
        self.fast
    }

    /// The pre-resolved extent of the plan's dense temporary, if the plan
    /// carries a [`PlanOp::Workspace`] op (SpGEMM / fused SDDMM+SpMM).
    pub fn workspace_extent(&self) -> Option<usize> {
        self.ops.iter().find_map(|op| match *op {
            PlanOp::Workspace { extent } => Some(extent),
            _ => None,
        })
    }

    /// Why [`ExecutionPlan::fast_path`] was selected — or, for
    /// [`FastPath::None`], the first predicate that failed. Surfaced by
    /// `waco-cli plan` so tuning decisions are debuggable.
    pub fn fast_path_reason(&self) -> &'static str {
        self.fast_why
    }

    /// Walks the subrange `outer_range` of the outermost loop over `a`,
    /// invoking `body(ctx, a_pos, a_val)` for every reachable stored nonzero
    /// and reporting events to `instr` — the same contract, the same body
    /// calls with the same arguments and the same event stream as
    /// [`crate::LoopNest::walk`], driven by the flat op sequence instead of
    /// per-variable dynamic decisions, specialised once per call (see the
    /// module doc) so that no stored entry re-matches the op list.
    ///
    /// `a` must be stored in [`ExecutionPlan::spec`].
    pub fn walk<I: Instrument>(
        &self,
        a: &SparseStorage,
        outer_range: std::ops::Range<usize>,
        instr: &mut I,
        body: &mut impl FnMut(&Ctx<'_>, usize, Value),
    ) {
        self.walk_body(a, outer_range, instr, body);
    }

    /// [`ExecutionPlan::walk`], uninstrumented, for a body that takes runs:
    /// when the innermost visited op is a dense loop over a dimension the
    /// operand does not store (SDDMM's `k`), every child of it sits at the
    /// parent's storage position, and the whole loop is handed to
    /// [`RunBody::run`] in one call instead of one body call per child.
    pub(crate) fn walk_runs(
        &self,
        a: &SparseStorage,
        outer_range: std::ops::Range<usize>,
        body: &mut impl RunBody,
    ) {
        self.walk_body(a, outer_range, &mut NoInstrument, body);
    }

    fn walk_body<I: Instrument, B: RunBody>(
        &self,
        a: &SparseStorage,
        outer_range: std::ops::Range<usize>,
        instr: &mut I,
        body: &mut B,
    ) {
        debug_assert_eq!(a.spec(), &self.spec, "operand stored in the plan's spec");
        let loops = &self.visited[..self.visited.len() - 1];
        let mut steps: Vec<_> = loops.iter().map(|&i| Step::of(self.ops[i], a)).collect();
        if let Step::Loop(_, _, first, extent) = &mut steps[0] {
            (*first, *extent) = (outer_range.start, outer_range.len());
        }
        let unstored_leaf = matches!(
            steps.last(),
            Some(&Step::Loop(slot, ..)) if self.var_level[slot].is_none()
        );
        let units = match I::COUNTS {
            true => self.unit_events(),
            false => Vec::new(),
        };
        let mut w = Walker {
            plan: self,
            steps,
            vals: a.vals(),
            bound: [0; 2 * MAX_DIMS],
            coords: [0; MAX_DIMS],
            extents: [0; MAX_DIMS],
            unstored_leaf,
            units,
            instr,
            body,
        };
        w.extents[..self.dim_extents.len()].copy_from_slice(&self.dim_extents);
        // The outer loop is the leaf only here; `visit` keeps one inline body.
        if w.steps.len() == 1 {
            w.leaf(0, 0);
        } else {
            w.visit(0, 0);
        }
    }

    /// Per visited op `t` (0 has none before it), the unit-extent ops
    /// between visited ops `t - 1` and `t`, each counted as its one event.
    fn unit_events(&self) -> Vec<UnitEvents> {
        let mut units = vec![UnitEvents::default(); self.visited.len()];
        for (t, w) in self.visited.windows(2).enumerate() {
            for op in &self.ops[w[0] + 1..w[1]] {
                let u = &mut units[t + 1];
                match op {
                    PlanOp::DenseLoop { .. } => u.dense += 1,
                    PlanOp::ConcordantIter { .. } => u.concordant += 1,
                    PlanOp::Locate { .. } => u.locates += 1,
                    _ => {}
                }
            }
        }
        units
    }

    /// A cheap upper-bound estimate of the number of loop iterations a walk
    /// over `a` will perform, used to exclude pathological schedules the way
    /// the paper excludes configurations that run for over a minute.
    pub fn work_estimate(&self, a: &SparseStorage) -> f64 {
        let mut est = 1.0f64;
        for op in &self.ops {
            match *op {
                PlanOp::ConcordantIter { level, .. } => {
                    // Average branching of the level: children / parents.
                    let children = a.level(level).child_count(a.parent_count(level));
                    let parents = a.parent_count(level).max(1);
                    est *= (children as f64 / parents as f64).max(1.0);
                }
                PlanOp::ParallelChunk { extent, .. } | PlanOp::DenseLoop { extent, .. } => {
                    est *= extent as f64;
                }
                PlanOp::Locate { .. } | PlanOp::Workspace { .. } | PlanOp::Body => {}
            }
        }
        est
    }

    /// Human-readable dump of the plan: header, fast path, and one line per
    /// op — the text form `waco-cli plan` prints.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ExecutionPlan {} over {:?} (dense {}): {}",
            self.kernel,
            self.sparse_dims,
            self.dense_extent,
            self.spec.describe()
        );
        let _ = writeln!(
            s,
            "  fast path: {} — {}",
            self.fast.names().label,
            self.fast_why
        );
        for (i, op) in self.ops.iter().enumerate() {
            let pad = "  ".repeat(i + 1);
            match *op {
                PlanOp::ParallelChunk {
                    var,
                    extent,
                    threads,
                    chunk,
                    ..
                } => {
                    let _ = writeln!(
                        s,
                        "{pad}parallel_chunk {} extent {extent} ({threads} threads, chunk {chunk})",
                        self.var_name(var)
                    );
                }
                PlanOp::DenseLoop { var, extent, .. } => {
                    let _ = writeln!(s, "{pad}dense_loop {} extent {extent}", self.var_name(var));
                }
                PlanOp::ConcordantIter { level, .. } => {
                    let _ = writeln!(
                        s,
                        "{pad}concordant_iter level {level} ({})",
                        self.level_name(level)
                    );
                }
                PlanOp::Locate { level, kind, .. } => {
                    let strategy = match kind {
                        LocateKind::Stride(e) => format!("stride {e}"),
                        LocateKind::BinarySearch => "binary search".to_string(),
                    };
                    let _ = writeln!(
                        s,
                        "{pad}locate level {level} ({}) via {strategy}",
                        self.level_name(level)
                    );
                }
                PlanOp::Workspace { extent } => {
                    let _ = writeln!(
                        s,
                        "{pad}workspace extent {extent} (dense temporary, pooled)"
                    );
                }
                PlanOp::Body => {
                    let _ = writeln!(s, "{pad}body");
                }
            }
        }
        s
    }

    /// `i1`-style name of a loop variable (dim name + `1` outer / `0` inner).
    pub fn var_name(&self, v: LoopVar) -> String {
        let names = self.kernel.dim_names();
        format!("{}{}", names[v.dim], 1 - part_index(v.part))
    }

    /// `k1(C)`-style name of a storage level.
    fn level_name(&self, level: usize) -> String {
        let fmt = match self.spec.formats()[level] {
            LevelFormat::Uncompressed => "U",
            LevelFormat::Compressed => "C",
        };
        format!("{}({fmt})", self.var_name(self.level_var[level]))
    }
}

/// Lowers the effective loop order into the flat op sequence, replaying the
/// interpreter's dynamic decisions statically: variables bind in loop order,
/// levels resolve in storage order, the outermost loop is always dense.
fn lower_ops(
    order: &[LoopVar],
    order_extents: &[usize],
    level_var: &[LoopVar],
    var_level: &[Option<usize>],
    nlevels: usize,
    spec: &FormatSpec,
    parallel: Option<&Parallelize>,
) -> Vec<PlanOp> {
    let locate_kind = |level: usize| match spec.formats()[level] {
        LevelFormat::Uncompressed => LocateKind::Stride(spec.axis_extent(spec.order()[level])),
        LevelFormat::Compressed => LocateKind::BinarySearch,
    };
    let mut ops = Vec::with_capacity(order.len() + nlevels + 1);
    let mut bound = vec![false; var_level.len()];
    let mut resolved = 0usize;
    for (depth, (&v, &extent)) in order.iter().zip(order_extents).enumerate() {
        let slot = var_slot(v);
        // The outermost loop always iterates its dense range (this is the
        // parallel loop; the runtime distributes dense chunks).
        let concordant = depth > 0 && var_level[slot] == Some(resolved);
        if concordant {
            ops.push(PlanOp::ConcordantIter {
                level: resolved,
                slot,
            });
            resolved += 1;
        } else if depth == 0 {
            ops.push(match parallel {
                Some(p) => PlanOp::ParallelChunk {
                    var: v,
                    slot,
                    extent,
                    threads: p.threads,
                    chunk: p.chunk,
                },
                None => PlanOp::DenseLoop {
                    var: v,
                    slot,
                    extent,
                },
            });
        } else {
            ops.push(PlanOp::DenseLoop {
                var: v,
                slot,
                extent,
            });
        }
        bound[slot] = true;
        // Static catch-up: every level whose axis variable is now bound is
        // resolved in storage order by a locate.
        while resolved < nlevels && bound[var_slot(level_var[resolved])] {
            ops.push(PlanOp::Locate {
                level: resolved,
                slot: var_slot(level_var[resolved]),
                kind: locate_kind(resolved),
            });
            resolved += 1;
        }
    }
    debug_assert_eq!(resolved, nlevels, "all levels resolved before the body");
    ops.push(PlanOp::Body);
    ops
}

/// Selects the specialization tier for a lowered plan and records why.
///
/// Every variant requires the CSR-family storage shape — spec order
/// `i1 k1 i0 k0` with formats `U C U U` — because the monomorphized kernels
/// read `pos`/`crd` of level 1 directly. On top of that base:
///
/// * unit *sparse* splits + rows outermost → [`FastPath::CsrRows`] for SpMV,
///   [`FastPath::RegBlockSpmm`] for SpMM. Dense-dim splits are deliberately
///   ignored (the split-aware fix): splitting `j` changes neither the sparse
///   storage nor the per-output-element accumulation order, so the fast
///   path stays bit-identical.
/// * unit sparse splits + columns outermost (SpMV) →
///   [`FastPath::DiscordantCsr`]: per output element the products still
///   accumulate in increasing-k order, which a transpose-permutation
///   column stream reproduces exactly.
/// * block sparse splits in `i1 k1 i0 k0` traversal order with block
///   columns ≥ [`ExecutionPlan::BCSR_SIMD_MIN`] → [`FastPath::BcsrBlock`]:
///   the generic walk visits each block row's entries in
///   (k1, i0, k0) order, so a dense micro-kernel over the contiguous
///   `br × bc` block accumulates every output element in the identical
///   (k1 asc, k0 asc) order.
///
/// Returns the variant plus a static reason string: the satisfied predicate,
/// or the first failed one when falling back to [`FastPath::None`].
///
/// Pure, and reads no dense size: `spec` and `order` do not depend on dense
/// extents, and only the *sparse* prefix of `splits` is consulted. `waco-sim`
/// relies on that — its plan, lowered over the dense-collapsed space,
/// records the variant the executor runs over the true one.
fn select_fast_path(
    kernel: Kernel,
    spec: &FormatSpec,
    order: &[LoopVar],
    splits: &[usize],
) -> (FastPath, &'static str) {
    let csr_order = [
        Axis::outer(0),
        Axis::outer(1),
        Axis::inner(0),
        Axis::inner(1),
    ];
    let csr_formats = [
        LevelFormat::Uncompressed,
        LevelFormat::Compressed,
        LevelFormat::Uncompressed,
        LevelFormat::Uncompressed,
    ];
    if !matches!(
        kernel,
        Kernel::SpMV | Kernel::SpMM | Kernel::SpGEMM | Kernel::SddmmSpmm
    ) {
        return (
            FastPath::None,
            "only SpMV and SpMM (and the workspace kernels) have monomorphized kernels",
        );
    }
    if spec.order() != csr_order {
        return (
            FastPath::None,
            "storage level order is not the row-major i1 k1 i0 k0",
        );
    }
    if spec.formats() != csr_formats {
        return (
            FastPath::None,
            "level formats are not the CSR family U C U U",
        );
    }
    if kernel.uses_workspace() {
        // The workspace fast paths are strictly per-row: the dense
        // temporary's lifecycle is tied to one output row, so the sparse
        // operand must be unsplit row-major CSR walked rows-outermost.
        if !splits[..2].iter().all(|&s| s == 1) {
            return (
                FastPath::None,
                "workspace kernels require unit sparse splits (per-row temporary)",
            );
        }
        if order.first().copied() != Some(LoopVar::outer(0)) {
            return (
                FastPath::None,
                "workspace kernels need rows outermost (the temporary is row-scoped)",
            );
        }
        return match kernel {
            Kernel::SpGEMM => (
                FastPath::GustavsonSpgemm,
                "row-major CSR SpGEMM with rows outermost: Gustavson workspace accumulator",
            ),
            _ => (
                FastPath::FusedSddmmSpmm,
                "row-major CSR with rows outermost: fused SDDMM+SpMM over a workspace row",
            ),
        };
    }
    let nsparse = kernel.sparse_ndims();
    if splits[..nsparse].iter().all(|&s| s == 1) {
        match order.first().copied() {
            Some(v) if v == LoopVar::outer(0) => {
                if kernel == Kernel::SpMM {
                    (
                        FastPath::RegBlockSpmm,
                        "row-major CSR SpMM with rows outermost: register-tiled column blocks",
                    )
                } else {
                    (
                        FastPath::CsrRows,
                        "row-major CSR SpMV with rows outermost: direct pos/crd row loop",
                    )
                }
            }
            Some(v) if v == LoopVar::outer(1) => {
                if kernel == Kernel::SpMV {
                    (
                        FastPath::DiscordantCsr,
                        "column-major SpMV over row-major CSR: transpose-permutation column stream",
                    )
                } else {
                    (
                        FastPath::None,
                        "column-major SpMM is not specialized; only SpMV has a discordant fast path",
                    )
                }
            }
            _ => (
                FastPath::None,
                "effective loop order puts neither rows nor columns outermost",
            ),
        }
    } else {
        let sparse_order: Vec<LoopVar> =
            order.iter().filter(|v| v.dim < nsparse).copied().collect();
        let bcsr_traversal = [
            LoopVar::outer(0),
            LoopVar::outer(1),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        if sparse_order != bcsr_traversal {
            (
                FastPath::None,
                "split CSR (BCSR) requires the concordant i1 k1 i0 k0 traversal",
            )
        } else if splits[1] < ExecutionPlan::BCSR_SIMD_MIN {
            (
                FastPath::None,
                "BCSR block columns are narrower than the 16-wide SIMD threshold",
            )
        } else {
            (
                FastPath::BcsrBlock,
                "BCSR with block columns >= 16: unrolled dense block micro-kernel",
            )
        }
    }
}

/// Whether `op` always yields coordinate 0 at its parent's position: a dense
/// loop or an uncompressed level (iterated or located) of extent 1, or the
/// `Workspace` marker (the generic bodies keep a full dense accumulator).
fn is_unit(op: PlanOp, spec: &FormatSpec) -> bool {
    match op {
        PlanOp::DenseLoop { extent, .. } => extent == 1,
        PlanOp::ConcordantIter { level, .. } | PlanOp::Locate { level, .. } => {
            spec.formats()[level] == LevelFormat::Uncompressed
                && spec.axis_extent(spec.order()[level]) == 1
        }
        PlanOp::Workspace { .. } => true,
        PlanOp::ParallelChunk { .. } | PlanOp::Body => false,
    }
}

/// A visited loop or locate resolved against the stored operand, slot first
/// ([`Step::of`]); the outer `Loop(slot, var, first, n)` walks `first..first + n`.
#[derive(Clone, Copy)]
enum Step<'n> {
    Loop(usize, LoopVar, usize, usize),
    Dense(usize, usize, usize),
    Sparse(usize, usize, &'n [usize], &'n [usize]),
    Locate(usize, usize, &'n LevelStorage),
}

impl<'n> Step<'n> {
    fn of(op: PlanOp, a: &'n SparseStorage) -> Self {
        match op {
            PlanOp::ParallelChunk {
                var, slot, extent, ..
            } => Step::Loop(slot, var, 0, extent),
            PlanOp::DenseLoop { var, slot, extent } => Step::Loop(slot, var, 0, extent),
            PlanOp::ConcordantIter { level, slot } => match a.level(level) {
                &LevelStorage::Uncompressed { extent } => Step::Dense(slot, level, extent),
                LevelStorage::Compressed { pos, crd } => Step::Sparse(slot, level, pos, crd),
            },
            PlanOp::Locate { level, slot, .. } => Step::Locate(slot, level, a.level(level)),
            PlanOp::Workspace { .. } | PlanOp::Body => unreachable!("not a loop or locate"),
        }
    }
}

/// The children of a loop or locate at one parent position: child `c < len`
/// binds `slot` to `crd[c]` (or `first + c`), the original coordinate
/// `at + coord * scale`, and sits at `base + c * stride`.
struct Run<'n> {
    slot: usize,
    len: usize,
    first: usize,
    crd: Option<&'n [usize]>,
    base: usize,
    stride: usize,
    at: usize,
    scale: usize,
}

/// The original coordinates a dense run takes in its loop's dimension,
/// ascending.
pub(crate) type RunCoords = std::iter::StepBy<std::ops::Range<usize>>;

/// What a walk calls for the stored nonzeros it reaches: [`RunBody::entry`]
/// once per nonzero, as a plain `FnMut(&Ctx, pos, v)` body is called. A body
/// that sets [`RunBody::RUNS`] is instead handed, through
/// [`ExecutionPlan::walk_runs`], each leaf dense loop over an unstored
/// dimension whole: `run(ctx, pos, v, coords)`, with `ctx` at the run's
/// first child and `coords` the loop dimension's in-bounds coordinates (the
/// padding past its extent already cut). It must make exactly the updates
/// the per-child `entry` calls would, in the same order.
pub(crate) trait RunBody {
    /// Whether [`RunBody::run`] is implemented.
    const RUNS: bool = false;

    fn entry(&mut self, ctx: &Ctx<'_>, pos: usize, v: Value);

    fn run(&mut self, ctx: &Ctx<'_>, pos: usize, v: Value, coords: RunCoords) {
        let _ = (ctx, pos, v, coords);
        unreachable!("only a body that sets RUNS is handed runs");
    }
}

impl<F: FnMut(&Ctx<'_>, usize, Value)> RunBody for F {
    #[inline(always)]
    fn entry(&mut self, ctx: &Ctx<'_>, pos: usize, v: Value) {
        self(ctx, pos, v);
    }
}

/// The state of one [`ExecutionPlan::walk`]: visited op `t` is
/// `plan.ops[plan.visited[t]]`, resolved as `steps[t]` unless it is the body.
struct Walker<'n, I, B> {
    plan: &'n ExecutionPlan,
    steps: Vec<Step<'n>>,
    vals: &'n [Value],
    /// Bound coordinate per var slot (`dim*2 + part`); `coords` follows it.
    bound: [usize; 2 * MAX_DIMS],
    coords: [usize; MAX_DIMS],
    extents: [usize; MAX_DIMS],
    /// The innermost visited op is a dense loop over an unstored dimension.
    unstored_leaf: bool,
    /// Per visited op `t`, the events `replay(t)` reports (`COUNTS` only).
    units: Vec<UnitEvents>,
    instr: &'n mut I,
    body: &'n mut B,
}

impl<'n, I: Instrument, B: RunBody> Walker<'n, I, B> {
    fn enter(&mut self, run: &Run<'_>, c: usize) {
        let coord = run.crd.map_or(run.first + c, |crd| crd[c]);
        self.bound[run.slot] = coord;
        self.coords[run.slot / 2] = run.at + coord * run.scale;
    }

    /// The events of the unit-extent ops between visited ops `t - 1` and
    /// `t`, where the flat op list emits them; a counting instrument gets
    /// them from [`Walker::bulk`] instead.
    fn replay(&mut self, t: usize) {
        if !I::TRACING || I::COUNTS {
            return;
        }
        let plan = self.plan;
        for op in &plan.ops[plan.visited[t - 1] + 1..plan.visited[t]] {
            match *op {
                PlanOp::DenseLoop { var, .. } => self.instr.dense_loop(var, 1),
                PlanOp::ConcordantIter { level, .. } => self.instr.concordant(level, 1),
                PlanOp::Locate { level, .. } => self.instr.locate(level, 1, true),
                _ => {}
            }
        }
    }

    /// For a counting instrument, `times` replays of [`Walker::replay`]`(t)`
    /// at once.
    fn bulk(&mut self, t: usize, times: usize) {
        if I::COUNTS {
            self.instr.bulk(self.units[t], times);
        }
    }

    #[inline(always)]
    fn body(&mut self, pos: usize) {
        let val = self.vals[pos];
        if val != 0.0 {
            self.instr.body();
            let ctx = Ctx {
                bound: &self.bound,
                coords: self.coords,
                extents: self.extents,
            };
            self.body.entry(&ctx, pos, val);
        }
    }

    /// A leaf dense loop over an unstored dimension in one body call: every
    /// child sits at `pos`, so the value is read and checked once, and the
    /// children whose coordinate lands past the extent (the ones
    /// `Ctx::coord` would answer `None` for) are cut off the end.
    fn hand_run(&mut self, run: &Run<'_>, pos: usize) {
        let val = self.vals[pos];
        let first = run.at + run.first * run.scale;
        let end = self.extents[run.slot / 2].min(first + run.len * run.scale);
        if val == 0.0 || first >= end {
            return;
        }
        self.enter(run, 0);
        let ctx = Ctx {
            bound: &self.bound,
            coords: self.coords,
            extents: self.extents,
        };
        let coords = (first..end).step_by(run.scale);
        self.body.run(&ctx, pos, val, coords);
    }

    /// Reports loop or locate op `t`'s event at parent position `pos` and
    /// resolves the [`Run`] of its children.
    #[inline(always)]
    fn open(&mut self, t: usize, pos: usize) -> Run<'n> {
        let (slot, len, first, crd, base, stride) = match self.steps[t] {
            Step::Loop(slot, var, first, len) => {
                self.instr.dense_loop(var, len);
                (slot, len, first, None, pos, 0)
            }
            Step::Dense(slot, level, len) => {
                self.instr.concordant(level, len);
                (slot, len, 0, None, pos * len, 1)
            }
            Step::Sparse(slot, level, seg, crd) => {
                let (lo, hi) = (seg[pos], seg[pos + 1]);
                self.instr.concordant(level, hi - lo);
                (slot, hi - lo, 0, Some(&crd[lo..hi]), lo, 1)
            }
            Step::Locate(slot, level, storage) => {
                let coord = self.bound[slot];
                let (found, probes) = storage.locate_counted(pos, coord);
                self.instr.locate(level, probes, found.is_some());
                let (len, base) = (usize::from(found.is_some()), found.unwrap_or(0));
                (slot, len, coord, None, base, 0)
            }
        };
        // The other part of the slot's dimension stays bound for the run.
        let (other, split) = (self.bound[slot ^ 1], self.plan.splits[slot / 2]);
        let at = if slot % 2 == 0 { other } else { other * split };
        let scale = if slot % 2 == 0 { split } else { 1 };
        Run {
            slot,
            len,
            first,
            crd,
            base,
            stride,
            at,
            scale,
        }
    }

    /// Visits op `t` at parent position `pos`, running the next op's loop
    /// inline when that op is the [`Walker::leaf`], recursing otherwise.
    fn visit(&mut self, t: usize, pos: usize) {
        let height = self.steps.len() - t;
        let run = self.open(t, pos);
        self.bulk(t + 1, run.len);
        for c in 0..run.len {
            self.enter(&run, c);
            self.replay(t + 1);
            let child = run.base + c * run.stride;
            if height == 2 {
                self.leaf(t + 1, child);
            } else {
                self.visit(t + 1, child);
            }
        }
    }

    /// Op `t` of height 1: its loop calls the body per child, or hands the
    /// body the whole loop when the body takes runs, no event is observed,
    /// and the loop is over an unstored dimension.
    #[inline(always)]
    fn leaf(&mut self, t: usize, pos: usize) {
        let run = self.open(t, pos);
        if B::RUNS && !I::TRACING && self.unstored_leaf {
            return self.hand_run(&run, pos);
        }
        self.bulk(t + 1, run.len);
        for c in 0..run.len {
            self.enter(&run, c);
            self.replay(t + 1);
            self.body(run.base + c * run.stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::{named, ScheduleSampler};

    #[test]
    fn csr_default_lowers_to_expected_ops() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let sched = named::default_csr(&space);
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        // Default CSR parallelizes i1, so the outer op is a ParallelChunk
        // over rows followed by a locate of the stored row level, then the
        // concordant column level, then the trivial inner levels.
        assert!(matches!(
            plan.ops()[0],
            PlanOp::ParallelChunk { extent: 16, .. }
        ));
        assert!(matches!(
            plan.ops()[1],
            PlanOp::Locate {
                level: 0,
                kind: LocateKind::Stride(16),
                ..
            }
        ));
        assert!(matches!(
            plan.ops()[2],
            PlanOp::ConcordantIter { level: 1, .. }
        ));
        assert_eq!(plan.ops().last(), Some(&PlanOp::Body));
        assert_eq!(plan.fast_path(), FastPath::CsrRows);
        assert_eq!(plan.outer_extent(), 16);
    }

    #[test]
    fn discordant_order_lowers_to_dense_plus_binary_locate() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let mut sched = named::default_csr(&space);
        sched.parallel = None;
        // k-major over row-major CSR: the column loop is dense and the
        // compressed k1 level must be located per (k, i) pair.
        sched.loop_order = vec![
            LoopVar::outer(1),
            LoopVar::outer(0),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::DiscordantCsr);
        // The dense k1 loop runs outermost; the row level is still reached
        // concordantly underneath it, and the compressed k1 level is then
        // resolved by a per-(k, i) binary search — the discordant penalty.
        assert!(matches!(
            plan.ops()[0],
            PlanOp::DenseLoop { extent: 16, .. }
        ));
        assert!(matches!(
            plan.ops()[1],
            PlanOp::ConcordantIter { level: 0, .. }
        ));
        assert!(plan.ops().iter().any(|op| matches!(
            op,
            PlanOp::Locate {
                level: 1,
                kind: LocateKind::BinarySearch,
                ..
            }
        )));
    }

    #[test]
    fn invalid_schedule_is_rejected_once_at_build() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let mut sched = named::default_csr(&space);
        sched.loop_order.pop();
        assert!(ExecutionPlan::build(&sched, &space).is_err());
    }

    #[test]
    fn describe_names_every_op() {
        let space = Space::new(Kernel::SpMM, vec![8, 8], 4);
        let sched = named::default_csr(&space);
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        let text = plan.describe();
        assert!(text.contains("ExecutionPlan SpMM"));
        assert!(text.contains("concordant_iter level 1 (k1(C))"));
        assert!(text.contains("body"));
        assert_eq!(text.lines().count(), 2 + plan.ops().len());
    }

    #[test]
    fn narrow_blocks_fall_back_and_say_why() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let mut sched = named::default_csr(&space);
        sched.splits = vec![4, 4];
        // 4×4 blocks keep the CSR-family storage but sit below the SIMD
        // threshold, so the plan must fall back to the generic executor —
        // and say why.
        if ExecutionPlan::build(&sched, &space).is_ok() {
            let plan = ExecutionPlan::build(&sched, &space).unwrap();
            assert_eq!(plan.fast_path(), FastPath::None);
            assert!(
                plan.fast_path_reason().contains("SIMD threshold"),
                "reason: {}",
                plan.fast_path_reason()
            );
        }
    }

    #[test]
    fn wide_spmm_selects_register_tiling() {
        let space = Space::new(Kernel::SpMM, vec![32, 32], 16);
        let sched = named::default_csr(&space);
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::RegBlockSpmm);
        // Narrower than a tile, the same leaf runs one remainder tile.
        let narrow = Space::new(Kernel::SpMM, vec![32, 32], 4);
        let plan = ExecutionPlan::build(&named::default_csr(&narrow), &narrow).unwrap();
        assert_eq!(plan.fast_path(), FastPath::RegBlockSpmm);
    }

    /// Selection reads no dense extent: a plan lowered over the
    /// dense-collapsed space (what `waco-sim` walks) records the variant the
    /// true space does, for every kernel, under sampled schedules with and
    /// without their parallel directive — SpMM around the tile widths too.
    #[test]
    fn dense_collapsed_lowering_records_the_true_fast_path() {
        let mut cases = vec![
            (Kernel::SpMV, vec![48, 40], 0),
            (Kernel::SDDMM, vec![48, 40], 8),
            (Kernel::MTTKRP, vec![12, 10, 14], 8),
            (Kernel::SpGEMM, vec![48, 40], 24),
            (Kernel::SddmmSpmm, vec![48, 40], 8),
        ];
        for dense in [1, 5, 7, 8, 32, 41] {
            cases.push((Kernel::SpMM, vec![48, 40], dense));
        }
        let mut spmm_variants = std::collections::BTreeSet::new();
        for (kernel, dims, dense) in cases {
            let space = Space::new(kernel, dims, dense).with_thread_options(vec![1, 4]);
            let collapsed = Space {
                dense_extent: usize::from(kernel.ndims() > kernel.sparse_ndims()),
                ..space.clone()
            };
            let mut scheds = ScheduleSampler::new(&space, 43).take_schedules(100);
            scheds.push(named::default_csr(&space));
            for sched in scheds {
                let serial = SuperSchedule {
                    parallel: None,
                    ..sched.clone()
                };
                for sched in [sched, serial] {
                    let Ok(full) = ExecutionPlan::build(&sched, &space) else {
                        continue;
                    };
                    let reduced = ExecutionPlan::build(&sched, &collapsed).unwrap();
                    let what = format!("{kernel} dense {dense}: {}", sched.describe(&space));
                    assert_eq!(reduced.fast_path(), full.fast_path(), "{what}");
                    if kernel == Kernel::SpMM {
                        spmm_variants.insert(full.fast_path().wire_name());
                    }
                }
            }
        }
        assert!(
            spmm_variants.contains("reg_block_spmm"),
            "{spmm_variants:?}"
        );
    }

    #[test]
    fn dense_split_keeps_the_fast_path() {
        // The split-aware fix: splitting the dense j dimension changes
        // neither the sparse storage nor the per-element accumulation
        // order, so the row fast path must survive.
        let space = Space::new(Kernel::SpMM, vec![32, 32], 16);
        let mut sched = named::default_csr(&space);
        sched.splits = vec![1, 1, 4];
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::RegBlockSpmm);
    }

    #[test]
    fn simd_wide_blocks_select_bcsr() {
        let space = Space::new(Kernel::SpMV, vec![64, 64], 0);
        let mut sched = named::default_csr(&space);
        sched.splits = vec![16, 16];
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::BcsrBlock);
        // Narrow block rows are fine — only the block column width gates
        // the micro-kernel.
        sched.splits = vec![4, 16];
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::BcsrBlock);
    }

    #[test]
    fn column_major_spmv_selects_discordant_stream() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let mut sched = named::default_csr(&space);
        sched.parallel = None;
        sched.loop_order = vec![
            LoopVar::outer(1),
            LoopVar::outer(0),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        let plan = ExecutionPlan::build(&sched, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::DiscordantCsr);
        assert!(plan.parallel().is_none(), "k is a reduction dim");
    }

    #[test]
    fn workspace_kernels_lower_with_a_workspace_op() {
        for kernel in [Kernel::SpGEMM, Kernel::SddmmSpmm] {
            let space = Space::new(kernel, vec![16, 12], 8);
            let sched = named::default_csr(&space);
            let plan = ExecutionPlan::build(&sched, &space).unwrap();
            // The temporary sits directly inside the outer row loop.
            assert!(matches!(plan.ops()[1], PlanOp::Workspace { .. }));
            let want = if kernel == Kernel::SpGEMM { 8 } else { 12 };
            assert_eq!(plan.workspace_extent(), Some(want));
            let text = plan.describe();
            assert!(text.contains("workspace extent"));
            assert_eq!(text.lines().count(), 2 + plan.ops().len());
        }
        let space = Space::new(Kernel::SpGEMM, vec![16, 12], 8);
        let plan = ExecutionPlan::build(&named::default_csr(&space), &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::GustavsonSpgemm);
        let space = Space::new(Kernel::SddmmSpmm, vec![16, 12], 8);
        let plan = ExecutionPlan::build(&named::default_csr(&space), &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::FusedSddmmSpmm);
        // Splitting the sparse dims forfeits the per-row fast path but
        // keeps the workspace op (the generic executor still runs).
        let mut split = named::default_csr(&space);
        split.splits = vec![4, 4, 1];
        let plan = ExecutionPlan::build(&split, &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::None);
        assert!(plan.workspace_extent().is_some());
    }

    /// The CLI `plan` JSON, trace files and the benchmark's
    /// `exec.fast_path.*` rows read these strings; the table derives them,
    /// this pins them.
    #[test]
    fn every_name_of_every_variant_is_pinned() {
        let pinned = [
            (FastPath::None, "none"),
            (FastPath::CsrRows, "csr_rows"),
            (FastPath::RegBlockSpmm, "reg_block_spmm"),
            (FastPath::BcsrBlock, "bcsr_block"),
            (FastPath::DiscordantCsr, "discordant_csr"),
            (FastPath::GustavsonSpgemm, "gustavson_spgemm"),
            (FastPath::FusedSddmmSpmm, "fused_sddmm_spmm"),
        ];
        for (fp, wire) in pinned {
            let n = fp.names();
            assert_eq!(fp.wire_name(), wire);
            assert_eq!(n.exec_counter, format!("exec.plan.fastpath.{wire}"));
            assert_eq!(n.sim_counter, format!("sim.plan.fastpath.{wire}"));
            assert_eq!(n.sim_saved_ns, format!("sim.plan.fastpath.{wire}_saved_ns"));
            assert!(n.label.starts_with(&wire.replace('_', "-")), "{}", n.label);
        }
        // Spelled out once in full, so a grep for a counter finds this test.
        assert_eq!(
            FastPath::CsrRows.names().exec_counter,
            "exec.plan.fastpath.csr_rows"
        );
        assert_eq!(
            FastPath::RegBlockSpmm.names().sim_saved_ns,
            "sim.plan.fastpath.reg_block_spmm_saved_ns"
        );
    }

    #[test]
    fn non_csr_kernels_report_the_failed_predicate() {
        let space = Space::new(Kernel::MTTKRP, vec![8, 8, 8], 4);
        let plan = ExecutionPlan::build(&named::default_csr(&space), &space).unwrap();
        assert_eq!(plan.fast_path(), FastPath::None);
        assert!(plan.fast_path_reason().contains("only SpMV and SpMM"));
        assert!(plan.describe().contains(plan.fast_path_reason()));
    }
}
