//! SuperSchedule: the unified format + schedule template of WACO.
//!
//! A [`SuperSchedule`] (paper §4.1.2, Figure 10, Table 3) jointly describes:
//!
//! * **splits** — every splittable dimension is split exactly once; a split
//!   size of 1 reduces the template to an unsplit loop, which is how one
//!   template covers all the derived algorithms,
//! * a **compute schedule** — the traversal order of all loop variables and a
//!   `parallelize(var, threads, chunk)` directive mirroring OpenMP's
//!   `schedule(dynamic, chunk)`,
//! * a **format schedule** — the storage order and per-level format (U/C) of
//!   the sparse operand's axes, sharing the same split sizes.
//!
//! The template is kernel-specific: [`Kernel`] enumerates the four kernels of
//! the paper and [`Space`] fixes the concrete dimensions and the tuning
//! ranges, mirroring Table 3 (splits in `1..=32768`, chunk sizes in
//! `1..=256`, a machine-dependent thread count menu).
//!
//! [`encode`] turns a SuperSchedule into the neural-network input of the
//! paper's program embedder: one-hot vectors for categorical parameters and
//! flattened permutation matrices for order parameters.
//!
//! # Example
//!
//! ```
//! use waco_schedule::{Kernel, Space, SuperSchedule};
//! use waco_tensor::gen::Rng64;
//!
//! let space = Space::new(Kernel::SpMM, vec![512, 512], 32);
//! let mut rng = Rng64::seed_from(1);
//! let s = SuperSchedule::sample(&space, &mut rng);
//! assert!(s.validate(&space).is_ok());
//! let feats = waco_schedule::encode::encode(&s, &space);
//! assert_eq!(feats.len(), waco_schedule::encode::layout(&space).total_len());
//! ```

pub mod dominance;
pub mod encode;
pub mod named;
pub mod sample;

pub use dominance::{structure_classes, StructureKey};
pub use sample::ScheduleSampler;

use waco_format::{Axis, AxisPart, FormatSpec, LevelFormat};

/// The sparse tensor algebra kernels: the four of the paper plus the
/// workspace family (SpGEMM and fused SDDMM+SpMM), which lower through a
/// dense-temporary `Workspace` plan op and are executor-only: neither priced
/// nor tuned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// `C[i] = A[i,k] * B[k]` — sparse matrix × dense vector.
    SpMV,
    /// `C[i,j] = A[i,k] * B[k,j]` — sparse matrix × dense matrix.
    SpMM,
    /// `D[i,j] = A[i,j] * B[i,k] * C[k,j]` — sampled dense-dense matmul.
    SDDMM,
    /// `D[i,j] = A[i,k,l] * B[k,j] * C[l,j]` — matricized tensor times
    /// Khatri-Rao product.
    MTTKRP,
    /// `C[i,j] = A[i,k] * B[k,j]` with *sparse* `B` — row-wise Gustavson
    /// with a dense workspace row; output sparsity is data-dependent.
    SpGEMM,
    /// `E[i,t] = (A[i,j] * Σ_k B[i,k] C[k,j]) * F[j,t]` — SDDMM fused with
    /// the following SpMM in one pass over `A`, the workspace holding the
    /// intermediate SDDMM row.
    SddmmSpmm,
}

impl Kernel {
    /// The four kernels of the paper, in the paper's order: the ones priced and tuned.
    pub const ALL: [Kernel; 4] = [Kernel::SpMV, Kernel::SpMM, Kernel::SDDMM, Kernel::MTTKRP];

    /// The kernels that lower through a `Workspace` plan op. They are
    /// executor-only: neither priced nor tuned.
    pub const WORKSPACE: [Kernel; 2] = [Kernel::SpGEMM, Kernel::SddmmSpmm];

    /// Kernel dimension names, sparse-operand modes first, dense-only
    /// dimension (if any) last.
    pub fn dim_names(self) -> &'static [&'static str] {
        match self {
            Kernel::SpMV => &["i", "k"],
            Kernel::SpMM => &["i", "k", "j"],
            Kernel::SDDMM => &["i", "j", "k"],
            Kernel::MTTKRP => &["i", "k", "l", "j"],
            // j is B's column dimension (the workspace extent).
            Kernel::SpGEMM => &["i", "k", "j"],
            // k is the SDDMM contraction dimension (the dense extent); the
            // output dimension t comes from F at run time.
            Kernel::SddmmSpmm => &["i", "j", "k"],
        }
    }

    /// Number of modes of the sparse operand `A`.
    pub fn sparse_ndims(self) -> usize {
        match self {
            Kernel::SpMV | Kernel::SpMM | Kernel::SDDMM => 2,
            Kernel::MTTKRP => 3,
            Kernel::SpGEMM | Kernel::SddmmSpmm => 2,
        }
    }

    /// Total number of kernel dimensions (sparse modes + dense-only dim).
    pub fn ndims(self) -> usize {
        self.dim_names().len()
    }

    /// Whether this kernel consumes a second *sparse* operand (`B` for
    /// SpGEMM; `A` re-walked against dense `F` for the fused kernel's SpMM
    /// half). These are the kernels whose plans carry a `Workspace` op.
    pub fn uses_workspace(self) -> bool {
        matches!(self, Kernel::SpGEMM | Kernel::SddmmSpmm)
    }

    /// Whether kernel dimension `dim` is a reduction dimension (parallelizing
    /// over it would race on the output).
    pub fn is_reduction(self, dim: usize) -> bool {
        match self {
            Kernel::SpMV | Kernel::SpMM => dim == 1, // k
            Kernel::SDDMM => dim == 2,               // k
            Kernel::MTTKRP => dim == 1 || dim == 2,  // k, l
            Kernel::SpGEMM => dim == 1,              // k
            // j feeds the workspace scatter and k the SDDMM dot; only i
            // (independent output rows) is safe to parallelize.
            Kernel::SddmmSpmm => dim == 1 || dim == 2,
        }
    }

    /// Whether kernel dimension `dim` may be split. The MTTKRP rank dimension
    /// `j` is kept unsplit (it is small — 16 in the paper).
    pub fn is_splittable(self, dim: usize) -> bool {
        !(self == Kernel::MTTKRP && dim == 3)
    }

    /// The kernel's lowercase wire name — its spelling in the serve
    /// protocol, the tuning journal, CLI flags and verify reports.
    pub fn wire_name(self) -> &'static str {
        match self {
            Kernel::SpMV => "spmv",
            Kernel::SpMM => "spmm",
            Kernel::SDDMM => "sddmm",
            Kernel::MTTKRP => "mttkrp",
            Kernel::SpGEMM => "spgemm",
            Kernel::SddmmSpmm => "sddmm_spmm",
        }
    }

    /// The kernel a wire name spells, if any.
    pub fn from_wire_name(name: &str) -> Option<Kernel> {
        let mut all = Kernel::ALL.iter().chain(&Kernel::WORKSPACE);
        all.find(|k| k.wire_name() == name).copied()
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Kernel::SpMV => "SpMV",
            Kernel::SpMM => "SpMM",
            Kernel::SDDMM => "SDDMM",
            Kernel::MTTKRP => "MTTKRP",
            Kernel::SpGEMM => "SpGEMM",
            Kernel::SddmmSpmm => "SDDMM+SpMM",
        };
        write!(f, "{s}")
    }
}

/// A loop variable of the compute schedule: the outer or inner part of a
/// split kernel dimension. Unsplittable dimensions only use their outer part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopVar {
    /// Kernel dimension index (see [`Kernel::dim_names`]).
    pub dim: usize,
    /// Outer (`x1`) or inner (`x0`) part.
    pub part: AxisPart,
}

impl LoopVar {
    /// The outer loop variable of dimension `dim`.
    pub fn outer(dim: usize) -> Self {
        LoopVar {
            dim,
            part: AxisPart::Outer,
        }
    }

    /// The inner loop variable of dimension `dim`.
    pub fn inner(dim: usize) -> Self {
        LoopVar {
            dim,
            part: AxisPart::Inner,
        }
    }
}

/// The concrete tuning space for one kernel instance: dimensions plus the
/// Table 3 parameter menus.
#[derive(Debug, Clone, PartialEq)]
pub struct Space {
    /// Which kernel.
    pub kernel: Kernel,
    /// Extents of the sparse operand's modes (2 or 3 entries).
    pub sparse_dims: Vec<usize>,
    /// Extent of the dense-only dimension (`|j|` for SpMM/MTTKRP, `|k|` for
    /// SDDMM); ignored for SpMV.
    pub dense_extent: usize,
    /// Thread-count menu (paper: `[24, 48]` on the Xeon testbed).
    pub thread_options: Vec<usize>,
    /// Largest split size as a log2 exponent (paper: 15, i.e. 32768).
    pub max_split_log2: u32,
    /// Largest OpenMP chunk size as a log2 exponent (paper: 8, i.e. 256).
    pub max_chunk_log2: u32,
}

impl Space {
    /// A space with the paper's parameter menus and a default thread menu.
    ///
    /// # Panics
    ///
    /// Panics if `sparse_dims.len() != kernel.sparse_ndims()`.
    pub fn new(kernel: Kernel, sparse_dims: Vec<usize>, dense_extent: usize) -> Self {
        assert_eq!(
            sparse_dims.len(),
            kernel.sparse_ndims(),
            "expected {} sparse dims for {kernel}",
            kernel.sparse_ndims()
        );
        Self {
            kernel,
            sparse_dims,
            dense_extent,
            thread_options: vec![24, 48],
            max_split_log2: 15,
            max_chunk_log2: 8,
        }
    }

    /// Replaces the thread menu (e.g. `[8, 16]` for the EPYC-like machine).
    pub fn with_thread_options(mut self, options: Vec<usize>) -> Self {
        assert!(!options.is_empty(), "thread menu must be non-empty");
        self.thread_options = options;
        self
    }

    /// Extent of kernel dimension `dim`.
    pub fn dim_extent(&self, dim: usize) -> usize {
        if dim < self.sparse_dims.len() {
            self.sparse_dims[dim]
        } else {
            self.dense_extent
        }
    }

    /// All loop variables of this kernel's fully split template, in canonical
    /// order (outer then inner per dimension).
    pub fn loop_vars(&self) -> Vec<LoopVar> {
        let mut vars = Vec::new();
        for dim in 0..self.kernel.ndims() {
            vars.push(LoopVar::outer(dim));
            if self.kernel.is_splittable(dim) {
                vars.push(LoopVar::inner(dim));
            }
        }
        vars
    }

    /// Loop variables that may legally be parallelized (non-reduction dims).
    pub fn parallelizable_vars(&self) -> Vec<LoopVar> {
        self.loop_vars()
            .into_iter()
            .filter(|v| !self.kernel.is_reduction(v.dim))
            .collect()
    }

    /// Axes of the sparse operand `A` in canonical order.
    pub fn a_axes(&self) -> Vec<Axis> {
        let mut axes = Vec::new();
        for dim in 0..self.kernel.sparse_ndims() {
            axes.push(Axis::outer(dim));
            axes.push(Axis::inner(dim));
        }
        axes
    }

    /// The number of distinct configurations of the template (Table 3 size),
    /// as an `f64` because it overflows integers for real spaces.
    pub fn size_estimate(&self) -> f64 {
        let nvars = self.loop_vars().len() as f64;
        let naxes = self.a_axes().len() as f64;
        let splittable = (0..self.kernel.ndims())
            .filter(|&d| self.kernel.is_splittable(d))
            .count() as f64;
        let fact = |n: f64| (2..=n as u64).map(|x| x as f64).product::<f64>().max(1.0);
        let splits = ((self.max_split_log2 + 1) as f64).powf(splittable);
        let loop_orders = fact(nvars);
        let par = self.parallelizable_vars().len() as f64
            * self.thread_options.len() as f64
            * (self.max_chunk_log2 + 1) as f64;
        let level_orders = fact(naxes);
        let formats = 2f64.powf(naxes);
        splits * loop_orders * par * level_orders * formats
    }
}

/// The `parallelize` directive: which loop is distributed over threads and
/// how (OpenMP `schedule(dynamic, chunk)` semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelize {
    /// The parallelized loop variable (must be outermost in execution; the
    /// interpreter hoists it).
    pub var: LoopVar,
    /// Number of worker threads.
    pub threads: usize,
    /// Dynamic-scheduling chunk size (iterations per dispatch).
    pub chunk: usize,
}

/// The format schedule of the sparse operand: level order + level formats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FormatSchedule {
    /// Storage order of `A`'s axes, outermost first (a permutation of
    /// [`Space::a_axes`]).
    pub order: Vec<Axis>,
    /// Level format per level, parallel to `order`.
    pub formats: Vec<LevelFormat>,
}

/// A complete point of the co-optimization space: format and schedule
/// together.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperSchedule {
    /// Which kernel this schedule is for.
    pub kernel: Kernel,
    /// Split size per kernel dimension (1 = unsplit). Length =
    /// `kernel.ndims()`.
    pub splits: Vec<usize>,
    /// Traversal order of all loop variables, outermost first (a permutation
    /// of [`Space::loop_vars`]).
    pub loop_order: Vec<LoopVar>,
    /// Parallelization directive, or `None` for serial execution.
    pub parallel: Option<Parallelize>,
    /// Format schedule of the sparse operand.
    pub format: FormatSchedule,
}

/// Schedule validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError(pub String);

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SuperSchedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleError {}

impl SuperSchedule {
    /// Checks the schedule against its space: permutation-ness of orders,
    /// split ranges, parallelization legality.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] describing the first violation found.
    pub fn validate(&self, space: &Space) -> Result<(), ScheduleError> {
        if self.kernel != space.kernel {
            return Err(ScheduleError(format!(
                "kernel mismatch: schedule {} vs space {}",
                self.kernel, space.kernel
            )));
        }
        if self.splits.len() != space.kernel.ndims() {
            return Err(ScheduleError("split count != ndims".into()));
        }
        for (d, &s) in self.splits.iter().enumerate() {
            if s == 0 {
                return Err(ScheduleError(format!("split of dim {d} is zero")));
            }
            if !space.kernel.is_splittable(d) && s != 1 {
                return Err(ScheduleError(format!("dim {d} is not splittable")));
            }
            if s > (1usize << space.max_split_log2) {
                return Err(ScheduleError(format!("split {s} exceeds menu")));
            }
        }
        let mut want: Vec<LoopVar> = space.loop_vars();
        let mut got = self.loop_order.clone();
        want.sort();
        got.sort();
        if want != got {
            return Err(ScheduleError(
                "loop order is not a permutation of loop vars".into(),
            ));
        }
        let mut want_axes = space.a_axes();
        let mut got_axes = self.format.order.clone();
        want_axes.sort();
        got_axes.sort();
        if want_axes != got_axes {
            return Err(ScheduleError(
                "format order is not a permutation of A's axes".into(),
            ));
        }
        if self.format.formats.len() != self.format.order.len() {
            return Err(ScheduleError("format list length mismatch".into()));
        }
        if let Some(p) = &self.parallel {
            if space.kernel.is_reduction(p.var.dim) {
                return Err(ScheduleError(format!(
                    "cannot parallelize reduction dim {}",
                    space.kernel.dim_names()[p.var.dim]
                )));
            }
            if !self.loop_order.contains(&p.var) {
                return Err(ScheduleError("parallel var not in loop order".into()));
            }
            if p.threads == 0 || p.chunk == 0 {
                return Err(ScheduleError("threads and chunk must be positive".into()));
            }
            if p.chunk > (1usize << space.max_chunk_log2) {
                return Err(ScheduleError(format!("chunk {} exceeds menu", p.chunk)));
            }
        }
        Ok(())
    }

    /// The [`FormatSpec`] of the sparse operand under this schedule.
    ///
    /// Split sizes of the sparse modes carry over; the spec clamps splits to
    /// the dimension sizes.
    ///
    /// # Errors
    ///
    /// Propagates [`waco_format::FormatError`] for invalid orders (which
    /// [`SuperSchedule::validate`] would also have caught).
    pub fn a_format_spec(&self, space: &Space) -> waco_format::Result<FormatSpec> {
        let nsparse = space.kernel.sparse_ndims();
        FormatSpec::new(
            space.sparse_dims.clone(),
            self.splits[..nsparse].to_vec(),
            self.format.order.clone(),
            self.format.formats.clone(),
        )
    }

    /// Extent of a loop variable under this schedule's splits.
    pub fn loop_extent(&self, space: &Space, var: LoopVar) -> usize {
        let n = space.dim_extent(var.dim);
        let s = self.splits[var.dim].min(n);
        match var.part {
            AxisPart::Outer => n.div_ceil(s),
            AxisPart::Inner => s,
        }
    }

    /// A compact human-readable description.
    pub fn describe(&self, space: &Space) -> String {
        let names = self.kernel.dim_names();
        let var_name = |v: &LoopVar| {
            format!(
                "{}{}",
                names[v.dim],
                if v.part == AxisPart::Outer { "1" } else { "0" }
            )
        };
        let loops: Vec<String> = self.loop_order.iter().map(var_name).collect();
        let par = match &self.parallel {
            Some(p) => format!(" par({},t={},c={})", var_name(&p.var), p.threads, p.chunk),
            None => " serial".to_string(),
        };
        let fmt = self
            .a_format_spec(space)
            .map(|f| f.describe())
            .unwrap_or_else(|_| "<invalid>".into());
        format!(
            "{} splits={:?} loops=[{}]{} A=[{}]",
            self.kernel,
            self.splits,
            loops.join(","),
            par,
            fmt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_tensor::gen::Rng64;

    #[test]
    fn kernel_metadata() {
        assert_eq!(Kernel::SpMV.ndims(), 2);
        assert_eq!(Kernel::MTTKRP.sparse_ndims(), 3);
        assert!(Kernel::SpMM.is_reduction(1));
        assert!(!Kernel::SDDMM.is_reduction(1));
        assert!(Kernel::SDDMM.is_reduction(2));
        assert!(!Kernel::MTTKRP.is_splittable(3));
        assert!(Kernel::MTTKRP.is_reduction(2));
    }

    #[test]
    fn wire_names_are_pinned_and_round_trip() {
        // These strings are in committed journals and on the wire.
        let pinned = [
            (Kernel::SpMV, "spmv"),
            (Kernel::SpMM, "spmm"),
            (Kernel::SDDMM, "sddmm"),
            (Kernel::MTTKRP, "mttkrp"),
            (Kernel::SpGEMM, "spgemm"),
            (Kernel::SddmmSpmm, "sddmm_spmm"),
        ];
        for (kernel, name) in pinned {
            assert_eq!(kernel.wire_name(), name);
            assert_eq!(Kernel::from_wire_name(name), Some(kernel));
        }
        assert_eq!(Kernel::from_wire_name("SpMV"), None, "case-sensitive");
        assert_eq!(Kernel::from_wire_name(""), None);
    }

    #[test]
    fn workspace_kernel_metadata() {
        // The workspace kernels are executor-only: ALL stays the paper's four.
        assert_eq!(Kernel::ALL.len(), 4);
        for k in Kernel::WORKSPACE {
            assert!(k.uses_workspace());
            assert_eq!(k.sparse_ndims(), 2);
            assert_eq!(k.ndims(), 3);
        }
        assert!(!Kernel::SpMM.uses_workspace());
        // SpGEMM mirrors SpMM's iteration shape (i, k reduction, j).
        assert!(Kernel::SpGEMM.is_reduction(1));
        assert!(!Kernel::SpGEMM.is_reduction(2));
        // The fused kernel only parallelizes over rows.
        assert!(Kernel::SddmmSpmm.is_reduction(1));
        assert!(Kernel::SddmmSpmm.is_reduction(2));
        assert!(!Kernel::SddmmSpmm.is_reduction(0));
        // Both sample and validate through the generic Space machinery.
        for k in Kernel::WORKSPACE {
            let space = Space::new(k, vec![64, 48], 24);
            let mut rng = Rng64::seed_from(9);
            for _ in 0..8 {
                let s = SuperSchedule::sample(&space, &mut rng);
                s.validate(&space).unwrap();
                assert!(s.a_format_spec(&space).is_ok());
            }
        }
    }

    #[test]
    fn space_loop_vars() {
        let s = Space::new(Kernel::SpMV, vec![100, 100], 0);
        assert_eq!(s.loop_vars().len(), 4);
        assert_eq!(s.parallelizable_vars().len(), 2);
        let m = Space::new(Kernel::MTTKRP, vec![32, 32, 32], 16);
        assert_eq!(m.loop_vars().len(), 7);
        assert_eq!(m.a_axes().len(), 6);
        // i1, i0, j are parallelizable for MTTKRP.
        assert_eq!(m.parallelizable_vars().len(), 3);
    }

    #[test]
    fn space_size_is_astronomical() {
        let s = Space::new(Kernel::SpMV, vec![1 << 17, 1 << 17], 0);
        // Table 3: 16² splits × 4! loops × (2·2·9) par × 4! levels × 2⁴
        // formats ≈ 8.5e7 — far beyond exhaustive search.
        assert!(s.size_estimate() > 5e7);
    }

    #[test]
    fn validate_catches_violations() {
        let space = Space::new(Kernel::SpMM, vec![64, 64], 32);
        let mut s = named::default_csr(&space);
        assert!(s.validate(&space).is_ok());

        let mut bad = s.clone();
        bad.splits[0] = 0;
        assert!(bad.validate(&space).is_err());

        let mut bad = s.clone();
        bad.loop_order.swap_remove(0);
        assert!(bad.validate(&space).is_err());

        let mut bad = s.clone();
        bad.parallel = Some(Parallelize {
            var: LoopVar::outer(1),
            threads: 4,
            chunk: 8,
        });
        assert!(bad.validate(&space).is_err(), "k is a reduction dim");

        s.parallel = None;
        assert!(s.validate(&space).is_ok());
    }

    #[test]
    fn loop_extents_follow_splits() {
        let space = Space::new(Kernel::SpMV, vec![100, 100], 0);
        let mut s = named::default_csr(&space);
        s.splits[0] = 8;
        assert_eq!(s.loop_extent(&space, LoopVar::outer(0)), 13);
        assert_eq!(s.loop_extent(&space, LoopVar::inner(0)), 8);
        assert_eq!(s.loop_extent(&space, LoopVar::outer(1)), 100);
        assert_eq!(s.loop_extent(&space, LoopVar::inner(1)), 1);
    }

    #[test]
    fn describe_is_readable() {
        let space = Space::new(Kernel::SpMV, vec![16, 16], 0);
        let mut rng = Rng64::seed_from(2);
        let s = SuperSchedule::sample(&space, &mut rng);
        let d = s.describe(&space);
        assert!(d.contains("SpMV"));
        assert!(d.contains("loops="));
    }

    #[test]
    fn format_spec_roundtrip() {
        let space = Space::new(Kernel::SpMM, vec![32, 48], 8);
        let s = named::default_csr(&space);
        let spec = s.a_format_spec(&space).unwrap();
        assert_eq!(spec.dims(), &[32, 48]);
        assert_eq!(spec.describe(), "i1(U) k1(C) i0(U) k0(U)");
    }
}
