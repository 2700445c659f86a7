//! In-place parallel regions: every participant writes the one output, so a
//! plan's result must not depend on how many threads ran it or how its outer
//! loop was cut into claims. For the `ScheduleSampler` stream and for the
//! named corners of the disjointness argument — a dense variable, an inner
//! split part or a column of the position-indexed SDDMM output as the
//! parallel variable; a BCSR edge block — each plan runs at `threads ∈ {1, 2,
//! 8}` × `chunk ∈ {1, 7, 128}` over an operand above the work cut-off, and
//! its output must be bit-equal to the oracle's serial run of the same plan.
//! Debug builds check more on the way: an output element reached from two
//! claims panics inside the run (see `waco_runtime::DisjointMut`).

use std::sync::OnceLock;
use waco_exec::{oracle, ExecutionPlan, Executor, FastPath, KernelArgs, PlannedKernel};
use waco_runtime::{DisjointMut, ThreadPool};
use waco_schedule::{named, Kernel, LoopVar, Parallelize, ScheduleSampler, Space, SuperSchedule};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CooTensor3, CsrMatrix, DenseMatrix, DenseVector};

const THREADS: [usize; 3] = [1, 2, 8];
const CHUNKS: [usize; 3] = [1, 7, 128];

enum Sparse {
    Matrix(CooMatrix),
    Tensor(CooTensor3),
}

/// One kernel over one operand, with every dense operand it may read. Sized
/// so that stored values × dense extent clears
/// `ExecutionPlan::PARALLEL_WORK_CUTOFF` in any format — by fill rather than
/// by dimension where the dense extent is small (`density` is draws per cell,
/// with replacement: 3.5 fills 97 %), because the interpreter's discordant
/// walks cost the *product* of the dimensions.
struct Shape {
    space: Space,
    a: Sparse,
    x: DenseVector,
    b: DenseMatrix,
    c: DenseMatrix,
    f: DenseMatrix,
    b_sparse: CsrMatrix,
}

impl Shape {
    fn new(kernel: Kernel, dims: &[usize], density: f64, dense: usize) -> Self {
        let mut rng = Rng64::seed_from(77);
        let val = |r: usize, c: usize| ((r * 5 + 3 * c) % 13) as f32 * 0.19 - 1.1;
        let a = match *dims {
            [nr, nc] => Sparse::Matrix(gen::uniform_random(nr, nc, density, &mut rng)),
            [ni, nk, nl] => {
                let nnz = (density * (ni * nk * nl) as f64) as usize;
                Sparse::Tensor(gen::random_tensor3([ni, nk, nl], nnz, &mut rng))
            }
            _ => unreachable!("matrix or 3-D tensor"),
        };
        let (nd, d) = (dense.max(1), dims);
        let nnz = match &a {
            Sparse::Matrix(a) => a.nnz(),
            Sparse::Tensor(a) => a.nnz(),
        };
        assert!(
            (nnz * nd) as f64 >= ExecutionPlan::PARALLEL_WORK_CUTOFF,
            "{kernel}: {nnz} nnz x {nd} sits below the parallel work cut-off"
        );
        // B is indexed by the first sparse dimension for the two SDDMMs and
        // by the second for everything else.
        let b_rows = match kernel {
            Kernel::SDDMM | Kernel::SddmmSpmm => d[0],
            _ => d[1],
        };
        let c = match kernel {
            Kernel::MTTKRP => DenseMatrix::from_fn(d[2], nd, val),
            _ => DenseMatrix::from_fn(nd, d[1], val),
        };
        let b_sparse = gen::uniform_random(d[1], nd, 0.2, &mut rng);
        Shape {
            space: Space::new(kernel, dims.to_vec(), dense),
            a,
            x: DenseVector::from_fn(d[1], |i| val(i, 1)),
            b: DenseMatrix::from_fn(b_rows, nd, val),
            c,
            f: DenseMatrix::from_fn(d[1], 5, val),
            b_sparse: CsrMatrix::from_coo(&b_sparse),
        }
    }

    fn args(&self) -> KernelArgs<'_> {
        let Shape {
            x,
            b,
            c,
            f,
            b_sparse,
            ..
        } = self;
        match self.space.kernel {
            Kernel::SpMV => KernelArgs::Spmv { x },
            Kernel::SpMM => KernelArgs::Spmm { b },
            Kernel::SDDMM => KernelArgs::Sddmm { b, c },
            Kernel::MTTKRP => KernelArgs::Mttkrp { b, c },
            Kernel::SpGEMM => KernelArgs::Spgemm { b: b_sparse },
            Kernel::SddmmSpmm => KernelArgs::SddmmSpmm { b, c, f },
        }
    }

    fn prepare(&self, sched: &SuperSchedule) -> waco_exec::Result<PlannedKernel> {
        match &self.a {
            Sparse::Matrix(a) => Executor::planned().prepare(a, sched, &self.space),
            Sparse::Tensor(a) => Executor::planned().prepare_tensor3(a, sched, &self.space),
        }
    }

    /// `sched` with its outer loop distributed as `par(var, threads, chunk)`.
    fn parallel(
        &self,
        sched: &SuperSchedule,
        var: LoopVar,
        threads: usize,
        chunk: usize,
    ) -> waco_exec::Result<PlannedKernel> {
        self.prepare(&distributed(sched, var, threads, chunk))
    }

    /// Runs `sched` under `par(var, threads, chunk)` for every listed grain
    /// and holds each output to the oracle's serial run of the same plan.
    /// Returns whether the schedule prepared at all (a sampled format may be
    /// over the storage budget).
    fn check(&self, sched: &SuperSchedule, var: LoopVar, grains: &[(usize, usize)]) -> bool {
        // One thread: the same hoisted plan, walked serially by the
        // interpreter — the reference bits.
        let Ok(serial) = self.parallel(sched, var, 1, 1) else {
            return false;
        };
        let what = sched.describe(&self.space);
        let reference = oracle::run(&serial, self.args()).unwrap();
        for &(threads, chunk) in grains {
            // The directive changes the plan, never the stored operand.
            let plan = ExecutionPlan::build(&distributed(sched, var, threads, chunk), &self.space);
            let pk = Executor::planned()
                .prepare_stored(plan.unwrap(), serial.storage().clone())
                .unwrap();
            let par = pk.plan().effective_parallel(pk.storage());
            assert_eq!(par.is_some(), threads > 1, "{what}: above the cut-off");
            let hold = |engine: &str, out: waco_exec::KernelOutput| {
                if let Some(m) = out.bit_mismatch(&reference) {
                    panic!("{what} at t={threads} c={chunk}: {engine} vs serial: {m}");
                }
            };
            hold("plan", pk.run(self.args()).unwrap());
            // The interpreter shares `dispatch` with the plan walker, so it
            // re-checks the region only at the widest setting (it is the
            // slow half of this suite).
            if threads == 8 {
                hold("oracle", oracle::run(&pk, self.args()).unwrap());
            }
        }
        true
    }
}

fn distributed(sched: &SuperSchedule, var: LoopVar, threads: usize, chunk: usize) -> SuperSchedule {
    let mut sched = sched.clone();
    sched.parallel = Some(Parallelize {
        var,
        threads,
        chunk,
    });
    sched
}

/// The seven shapes: the six kernels, SpMM on both sides of the register
/// tile width.
fn shapes() -> &'static [Shape] {
    static SHAPES: OnceLock<Vec<Shape>> = OnceLock::new();
    SHAPES.get_or_init(|| {
        vec![
            Shape::new(Kernel::SpMV, &[521, 509], 3.5, 0),
            Shape::new(Kernel::SpMM, &[231, 227], 3.5, 5),
            Shape::new(Kernel::SpMM, &[231, 227], 0.85, 9),
            Shape::new(Kernel::SDDMM, &[187, 181], 3.0, 8),
            Shape::new(Kernel::MTTKRP, &[41, 37, 39], 0.85, 8),
            Shape::new(Kernel::SpGEMM, &[121, 103], 0.4, 64),
            Shape::new(Kernel::SddmmSpmm, &[187, 181], 3.0, 8),
        ]
    })
}

waco_check::props! {
    /// The sampler's stream: whatever loop order, format and splits it
    /// draws, under its own parallel variable (or the first legal one).
    cases = 42,
    fn sampled_schedules_write_in_place(
        shape in 0usize..7,
        idx in 0usize..24,
        threads in 0usize..3,
        chunk in 0usize..3,
    ) {
        let shape = &shapes()[shape];
        let sched = ScheduleSampler::new(&shape.space, 500)
            .take_schedules(idx + 1)
            .pop()
            .unwrap();
        let var = sched
            .parallel
            .map_or(shape.space.parallelizable_vars()[0], |p| p.var);
        shape.check(&sched, var, &[(THREADS[threads], CHUNKS[chunk])]);
    }
}

fn every_grain() -> Vec<(usize, usize)> {
    THREADS
        .iter()
        .flat_map(|&t| CHUNKS.iter().map(move |&c| (t, c)))
        .collect()
}

/// The corners of the disjointness argument, each at all nine grains.
#[test]
fn named_parallel_variables_write_in_place() {
    let s = shapes();
    let default = |shape: &Shape| named::default_csr(&shape.space);
    let split = |shape: &Shape, splits: &[usize]| {
        let mut sched = default(shape);
        sched.splits = splits.to_vec();
        sched
    };
    let (i1, i0) = (LoopVar::outer(0), LoopVar::inner(0));
    let cases: Vec<(&str, &Shape, SuperSchedule, LoopVar, FastPath)> = vec![
        // Default CSR over rows: the tier's row leaves, both SpMM widths.
        ("spmv rows", &s[0], default(&s[0]), i1, FastPath::CsrRows),
        ("spmm axpy", &s[1], default(&s[1]), i1, FastPath::CsrRows),
        (
            "spmm tile",
            &s[2],
            default(&s[2]),
            i1,
            FastPath::RegBlockSpmm,
        ),
        (
            "spgemm",
            &s[5],
            default(&s[5]),
            i1,
            FastPath::GustavsonSpgemm,
        ),
        ("fused", &s[6], default(&s[6]), i1, FastPath::FusedSddmmSpmm),
        // 521 rows in 16-row blocks: the last block row is clamped at 9.
        (
            "bcsr edge",
            &s[0],
            split(&s[0], &[16, 16]),
            i1,
            FastPath::BcsrBlock,
        ),
        // A split row index with the *inner* part hoisted outermost: claim
        // `c` owns rows `i ≡ c (mod 4)`, interleaved through the output.
        ("spmv i0", &s[0], split(&s[0], &[4, 1]), i0, FastPath::None),
        (
            "spmm i0",
            &s[2],
            split(&s[2], &[4, 1, 1]),
            i0,
            FastPath::None,
        ),
        // The dense variable: claims own columns of the output.
        (
            "spmm j1",
            &s[2],
            default(&s[2]),
            LoopVar::outer(2),
            FastPath::None,
        ),
        (
            "spgemm j1",
            &s[5],
            default(&s[5]),
            LoopVar::outer(2),
            FastPath::None,
        ),
        // SDDMM's output is indexed by storage position; a column claim
        // owns the positions of its columns, scattered through every row.
        (
            "sddmm j1",
            &s[3],
            default(&s[3]),
            LoopVar::outer(1),
            FastPath::None,
        ),
        (
            "sddmm j0",
            &s[3],
            split(&s[3], &[1, 4, 1]),
            LoopVar::inner(1),
            FastPath::None,
        ),
        (
            "mttkrp j",
            &s[4],
            default(&s[4]),
            LoopVar::outer(3),
            FastPath::None,
        ),
    ];
    for (name, shape, sched, var, fast) in cases {
        let selected = shape
            .parallel(&sched, var, 2, 1)
            .unwrap()
            .plan()
            .fast_path();
        assert_eq!(selected, fast, "{name}");
        assert!(shape.check(&sched, var, &every_grain()), "{name} prepares");
    }
}

/// What the owner check is for: a region whose claims do reach the same
/// element must not get as far as a second `&mut` to it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "two owners")]
fn overlapping_claims_panic_under_the_owner_check() {
    let mut out = vec![0.0f32; 64];
    // SAFETY: deliberately not upheld — every claim writes element 0.
    let out = unsafe { DisjointMut::new(&mut out) };
    ThreadPool::new(2).run_chunked(64, 2, 8, |r| {
        let mut mine = out.claim(r.start);
        *mine.at(r.start) += 1.0;
        *mine.at(0) += 1.0;
    });
}
