//! Symbolic (operand-free) iteration-domain bounds over the plan IR.
//!
//! Stage 1 of the two-stage tuning pipeline ranks candidate schedules by an
//! *asymptotic* cost term derived purely from the lowered [`crate::plan`] op
//! sequence and a small structural profile of the workload — nnz, dimension
//! extents, and the log2 degree histograms the serve-layer fingerprint
//! already computes. No stored operand is touched: the bound plays the role
//! of Ahrens & Kjolstad's asymptotic cost model, discarding schedules whose
//! iteration domain is dominated before the learned model (Stage 2) ever
//! scores them.
//!
//! The walk mirrors [`ExecutionPlan::work_estimate`] but replaces the
//! operand-dependent level occupancies with a balls-in-bins estimate: after
//! resolving a prefix of storage levels whose extents multiply to `E`, at
//! most `min(E, nnz)` positions are occupied. Compressed-level binary
//! searches are charged `log2` of the expected crd segment, inflated by a
//! skew factor from the degree histogram (an entry-weighted mean degree —
//! skewed matrices have longer hot segments than the uniform estimate).
//!
//! The bound is a *ranking* device, not a runtime prediction: the pruner
//! compares bounds of candidate plans for the same workload, where the
//! shared profile cancels out of every comparison.

use crate::plan::{ExecutionPlan, LocateKind, PlanOp};
use waco_tensor::stats::log2_histogram;
/// Width of the profile's degree histograms.
pub use waco_tensor::stats::HIST_BUCKETS;
use waco_tensor::{CooMatrix, CooTensor3};

/// The structural workload profile the bound is parameterized by.
///
/// Everything here is derivable from the 128-bit fingerprint's inputs:
/// dimensions, nnz, and the per-line (row / column) log2 degree histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymptoticProfile {
    /// Sparse operand dimension extents.
    pub dims: Vec<usize>,
    /// Stored nonzero count.
    pub nnz: usize,
    /// `row_hist[b]` counts mode-0 lines whose nnz `c` has
    /// `floor(log2(max(c,1))) == b` (bucket 0 holds empty and degree-1 lines).
    pub row_hist: [u64; HIST_BUCKETS],
    /// Same histogram over mode-1 lines (columns for a matrix).
    pub col_hist: [u64; HIST_BUCKETS],
}

impl AsymptoticProfile {
    /// Profiles a sparse matrix: dims, nnz, and both degree histograms.
    pub fn from_matrix(m: &CooMatrix) -> Self {
        AsymptoticProfile {
            dims: vec![m.nrows(), m.ncols()],
            nnz: m.nnz(),
            row_hist: log2_histogram(&m.row_nnz()),
            col_hist: log2_histogram(&m.col_nnz()),
        }
    }

    /// Profiles a 3-D tensor: mode-0 slice counts play the row role,
    /// mode-1 slice counts the column role.
    pub fn from_tensor3(t: &CooTensor3) -> Self {
        let dims = t.dims();
        let mut mode0 = vec![0usize; dims[0]];
        let mut mode1 = vec![0usize; dims[1]];
        for (i, k, _, _) in t.iter() {
            mode0[i] += 1;
            mode1[k] += 1;
        }
        AsymptoticProfile {
            dims: dims.to_vec(),
            nnz: t.nnz(),
            row_hist: log2_histogram(&mode0),
            col_hist: log2_histogram(&mode1),
        }
    }

    /// A skew-free profile for when only the shape is known (e.g. `waco-cli
    /// plan` on bare dimensions): nonzeros spread uniformly across lines.
    pub fn uniform(dims: &[usize], nnz: usize) -> Self {
        let line = |n: usize| {
            if n == 0 {
                [0u64; HIST_BUCKETS]
            } else {
                log2_histogram(&vec![nnz / n.max(1); n])
            }
        };
        AsymptoticProfile {
            dims: dims.to_vec(),
            nnz,
            row_hist: line(dims.first().copied().unwrap_or(0)),
            col_hist: line(dims.get(1).copied().unwrap_or(0)),
        }
    }

    /// Whether the workload is too sparse for asymptotic dominance to mean
    /// anything: with no more nonzeros than the longest dimension the sparse
    /// term cannot dominate — every candidate's cost is mostly constant
    /// dense-loop overhead the bound ranks poorly (measured winners on such
    /// workloads sit up to ~95× above the minimum bound). Stage 1 abstains
    /// on these, and nothing may hold the bound's ordering to account there.
    pub fn is_degenerate(&self) -> bool {
        self.nnz <= self.dims.iter().copied().max().unwrap_or(0)
    }

    /// Entry-weighted over line-weighted mean degree of a histogram — how
    /// much longer the segment a *random entry* sits in is, relative to the
    /// uniform estimate. 1.0 for uniform matrices, larger under skew.
    fn skew(hist: &[u64; HIST_BUCKETS]) -> f64 {
        let mut lines = 0.0f64;
        let mut entries = 0.0f64;
        let mut weighted = 0.0f64;
        for (b, &n) in hist.iter().enumerate() {
            let deg = (1u64 << b) as f64;
            let n = n as f64;
            lines += n;
            entries += n * deg;
            weighted += n * deg * deg;
        }
        if entries <= 0.0 || lines <= 0.0 {
            return 1.0;
        }
        (weighted / entries) / (entries / lines).max(1.0)
    }

    /// Skew factor for a storage level keyed by its axis dimension: rows
    /// (dim 0) and columns (dim 1) have histograms; other dims fall back to
    /// the uniform factor.
    fn dim_skew(&self, dim: usize) -> f64 {
        match dim {
            0 => Self::skew(&self.row_hist).max(1.0),
            1 => Self::skew(&self.col_hist).max(1.0),
            _ => 1.0,
        }
    }
}

/// The resolved bound of one [`PlanOp`]: how many times the op runs and the
/// primitive operations it is charged.
#[derive(Debug, Clone, PartialEq)]
pub struct OpBound {
    /// Iterations of the *enclosing* nest that reach this op.
    pub iterations: f64,
    /// Total primitive operations charged to the op (iterations × per-visit
    /// cost: extent for loops, probes for locates, writes for workspaces).
    pub cost: f64,
    /// Human-readable derivation, e.g. `"1.6e2 iters × log2(seg 9.0) probes"`.
    pub term: String,
}

/// The plan's total asymptotic cost term plus its per-op breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymptoticBound {
    /// Σ of per-op costs — the Stage-1 ranking key.
    pub work: f64,
    /// One entry per plan op, in op order.
    pub per_op: Vec<OpBound>,
}

impl AsymptoticBound {
    /// One-line summary for the CLI text renderer: total work and the
    /// dominant op's share.
    pub fn summary(&self) -> String {
        let (idx, dom) = self
            .per_op
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .map(|(i, b)| (i, b.cost))
            .unwrap_or((0, 0.0));
        format!(
            "work ≈ {:.3e} ops (dominant: op {} at {:.3e})",
            self.work, idx, dom
        )
    }
}

impl ExecutionPlan {
    /// Derives the plan's symbolic iteration-domain bound under `profile`.
    ///
    /// Deterministic in `(plan, profile)`; touches no stored operand. The
    /// walk tracks two quantities down the nest: `iters`, the number of
    /// iterations reaching each op, and `occ`, the balls-in-bins estimate of
    /// storage positions consistent with the resolved level prefix
    /// (`min(extent product, nnz)`).
    pub fn asymptotic_bound(&self, profile: &AsymptoticProfile) -> AsymptoticBound {
        let nnz = profile.nnz.max(1) as f64;
        let mut iters = 1.0f64;
        let mut occ = 1.0f64;
        let mut per_op = Vec::with_capacity(self.ops().len());
        let mut work = 0.0f64;
        let level_extent =
            |level: usize| self.spec().axis_extent(self.spec().order()[level]).max(1) as f64;
        for op in self.ops() {
            let entering = iters;
            let (cost, term) = match *op {
                PlanOp::ParallelChunk { extent, .. } | PlanOp::DenseLoop { extent, .. } => {
                    let cost = iters * extent as f64;
                    let term = format!("{iters:.3e} iters × extent {extent}");
                    iters *= extent as f64;
                    (cost, term)
                }
                PlanOp::ConcordantIter { level, .. } => {
                    let next = (occ * level_extent(level)).min(nnz);
                    let branch = (next / occ).max(1.0);
                    let cost = iters * branch;
                    let term = format!("{iters:.3e} iters × branch {branch:.1}");
                    iters *= branch;
                    occ = next;
                    (cost, term)
                }
                PlanOp::Locate { level, kind, .. } => {
                    let ext = level_extent(level);
                    let next = (occ * ext).min(nnz);
                    match kind {
                        LocateKind::Stride(_) => {
                            // Uncompressed level: one stride probe, always a
                            // hit (dense storage has every position).
                            let cost = iters;
                            let term = format!("{iters:.3e} iters × 1 stride probe");
                            occ = next;
                            (cost, term)
                        }
                        LocateKind::BinarySearch => {
                            // Segment searched = the parent line's crd run,
                            // so its length distribution is the *other*
                            // dimension's degree histogram (locating k under
                            // a bound i searches row i's segment). Misses
                            // prune the subtree, so only the surviving
                            // fraction descends.
                            let d = self.spec().order()[level].dim;
                            let skew = if d <= 1 { profile.dim_skew(1 - d) } else { 1.0 };
                            let seg = ((next / occ) * skew).max(1.0);
                            let probes = seg.log2().max(1.0);
                            let survive = (next / (occ * ext)).min(1.0);
                            let cost = iters * probes;
                            let term = format!(
                                "{iters:.3e} iters × log2(seg {seg:.1}) probes, {survive:.2} survive"
                            );
                            iters *= survive;
                            occ = next;
                            (cost, term)
                        }
                    }
                }
                PlanOp::Workspace { extent } => {
                    let cost = iters * extent as f64;
                    let term = format!("{iters:.3e} allocs × extent {extent}");
                    (cost, term)
                }
                PlanOp::Body => (iters, format!("{iters:.3e} bodies")),
            };
            work += cost;
            per_op.push(OpBound {
                iterations: entering,
                cost,
                term,
            });
        }
        AsymptoticBound { work, per_op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::{named, Kernel, LoopVar, Space};

    fn diag_matrix(n: usize) -> CooMatrix {
        CooMatrix::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0))).unwrap()
    }

    #[test]
    fn concordant_csr_beats_discordant_on_the_same_profile() {
        let space = Space::new(Kernel::SpMV, vec![64, 64], 0);
        let csr = named::default_csr(&space);
        let mut disc = named::default_csr(&space);
        disc.parallel = None;
        disc.loop_order = vec![
            LoopVar::outer(1),
            LoopVar::outer(0),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        let p_csr = ExecutionPlan::build(&csr, &space).unwrap();
        let p_disc = ExecutionPlan::build(&disc, &space).unwrap();
        let profile = AsymptoticProfile::uniform(&[64, 64], 256);
        let b_csr = p_csr.asymptotic_bound(&profile);
        let b_disc = p_disc.asymptotic_bound(&profile);
        assert!(
            b_csr.work < b_disc.work,
            "concordant {} !< discordant {}",
            b_csr.work,
            b_disc.work
        );
        // One term per op, all finite and positive.
        assert_eq!(b_csr.per_op.len(), p_csr.ops().len());
        for ob in &b_csr.per_op {
            assert!(ob.cost.is_finite() && ob.cost > 0.0);
        }
        assert!(b_csr.summary().contains("work ≈"));
    }

    #[test]
    fn bound_is_deterministic_for_a_fixed_profile() {
        let space = Space::new(Kernel::SpMM, vec![32, 32], 8);
        let plan = ExecutionPlan::build(&named::default_csr(&space), &space).unwrap();
        let m = diag_matrix(32);
        let profile = AsymptoticProfile::from_matrix(&m);
        let a = plan.asymptotic_bound(&profile);
        let b = plan.asymptotic_bound(&profile);
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_profile_charges_longer_binary_search_segments() {
        // One dense row vs. the same nnz spread evenly: the skewed profile's
        // entry-weighted segments are longer, so a discordant plan (which
        // binary-searches per probe) must cost at least as much.
        let n = 64;
        let skewed = CooMatrix::from_triplets(n, n, (0..n).map(|k| (0usize, k, 1.0))).unwrap();
        let space = Space::new(Kernel::SpMV, vec![n, n], 0);
        let mut disc = named::default_csr(&space);
        disc.parallel = None;
        disc.loop_order = vec![
            LoopVar::outer(1),
            LoopVar::outer(0),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        let plan = ExecutionPlan::build(&disc, &space).unwrap();
        let b_skew = plan.asymptotic_bound(&AsymptoticProfile::from_matrix(&skewed));
        let b_flat = plan.asymptotic_bound(&AsymptoticProfile::uniform(&[n, n], n));
        assert!(
            b_skew.work >= b_flat.work,
            "skewed {} < uniform {}",
            b_skew.work,
            b_flat.work
        );
    }

    #[test]
    fn workspace_term_scales_with_extent() {
        let space = Space::new(Kernel::SpGEMM, vec![16, 12], 8);
        let plan = ExecutionPlan::build(&named::default_csr(&space), &space).unwrap();
        let profile = AsymptoticProfile::uniform(&[16, 12], 48);
        let bound = plan.asymptotic_bound(&profile);
        let ws = bound
            .per_op
            .iter()
            .find(|b| b.term.contains("allocs"))
            .expect("workspace op bounded");
        // One workspace alloc per outer row iteration, extent 8 wide.
        assert!((ws.cost - 16.0 * 8.0).abs() < 1e-9, "cost {}", ws.cost);
    }

    #[test]
    fn tensor_profile_uses_mode_slices() {
        let t = CooTensor3::from_quads(
            [4, 4, 4],
            vec![(0, 0, 0, 1.0), (0, 1, 2, 1.0), (3, 1, 1, 1.0)],
        )
        .unwrap();
        let p = AsymptoticProfile::from_tensor3(&t);
        assert_eq!(p.dims, vec![4, 4, 4]);
        assert_eq!(p.nnz, 3);
        // Mode-0 slice counts: [2, 0, 0, 1] → bucket 1 once, bucket 0 thrice.
        assert_eq!(p.row_hist[1], 1);
        assert_eq!(p.row_hist[0], 3);
    }
}
