//! Metamorphic relations: properties that must hold between two executions
//! of the *same backend*, with no oracle in the loop. They catch bugs the
//! differential suite can miss when oracle and kernel would err together
//! (e.g. a shared misreading of the kernel's index expression).
//!
//! * **Permutation invariance** — permuting A's rows/columns and the dense
//!   operands consistently permutes the output: `y'[i] = y[p[i]]` for
//!   `A'[i][j] = A[p[i]][q[j]]`, `x'[j] = x[q[j]]`.
//! * **Scaling linearity** — scaling every stored value of the sparse
//!   operand by `α = 0.375` (an exact binary fraction, so `f32`
//!   multiplication is exact) scales every output by `α`.
//! * **SpMM collapse** — an SpMM with a single dense column computes
//!   exactly SpMV: column 0 of the SpMM result equals the SpMV result on
//!   the same matrix with the matching vector.
//! * **SpGEMM identity** — `A · I ≡ A` to the **bit**: against an identity
//!   CSR every workspace cell sees exactly `0.0 + v · 1.0`, a bitwise
//!   no-op, so the output reproduces A's dense image bit for bit.
//! * **Fused ≡ unfused** — fused SDDMM+SpMM equals SDDMM followed by an
//!   SpMM of the compacted intermediate to the **bit**, both on the default
//!   CSR schedule: both reduce over `j` in A's per-row column order, so
//!   there is no reassociation for a divergence to hide behind.
//!
//! Each relation runs for the kernels of [`VerifyConfig::kernels`] it is
//! about, and all but the last across a seeded stream of schedules,
//! because the point is that *schedules* must not break these algebraic
//! identities.

use waco_schedule::{named, Kernel, Space, SuperSchedule};
use waco_tensor::gen::Rng64;
use waco_tensor::{CooMatrix, CsrMatrix, DenseMatrix, DenseVector, Value};

use crate::corpus::{self, Case};
use crate::diff::Executor;
use crate::problem::{dense_vec, Operands, Problem, Sparse, FUSED_OUT_COLS};
use crate::sweep::{sweep, Tally, Verdict};
use crate::{mix_seed, SuiteReport, VerifyConfig};

/// The exact-in-`f32` scale factor used by the linearity relation.
const ALPHA: Value = 0.375;

/// Runs `sched` on a problem and on its transformed twin and holds the
/// twin's output to `expect(base output)`.
fn relate(
    exec: &dyn Executor,
    sched: &SuperSchedule,
    base: &Problem,
    twin: &Problem,
    expect: impl Fn(&[Value]) -> Vec<f64>,
    relation: &str,
) -> Verdict {
    match (base.run(exec, sched), twin.run(exec, sched)) {
        (Some(out), Some(twin_out)) => Verdict::from_divergence(
            twin.divergence(&expect(&out), &twin_out),
            &format!("{relation} relation violated"),
        ),
        _ => Verdict::Skip,
    }
}

/// `Fail` at the first flat index where `got`'s bits leave `expected`'s;
/// `what` names the two sides (`"A·I ≠ A"`).
fn bit_verdict(expected: &[Value], got: &[Value], what: &str) -> Verdict {
    let first = (0..expected.len().max(got.len()))
        .find(|&i| expected.get(i).map(|v| v.to_bits()) != got.get(i).map(|v| v.to_bits()));
    Verdict::from_detail(first.map(|i| {
        format!(
            "{what} at flat index {i}: expected {:?}, got {:?}",
            expected.get(i),
            got.get(i)
        )
    }))
}

fn permutation(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut p);
    p
}

fn inverse(p: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; p.len()];
    for (i, &src) in p.iter().enumerate() {
        inv[src] = i;
    }
    inv
}

/// Permutation invariance for SpMV: `A'[i][j] = A[p[i]][q[j]]` and
/// `x'[j] = x[q[j]]` give `y'[i] = y[p[i]]`.
fn perm_invariance(cfg: &VerifyConfig, exec: &dyn Executor, tally: &mut Tally) {
    sweep(
        cfg,
        tally,
        Kernel::SpMV,
        cfg.budget.metamorphic_schedules(),
        |case| format!("meta/perm/{case}"),
        |case, salt| {
            let dims = case.sparse.dims();
            let mut rng = Rng64::seed_from(mix_seed(cfg.seed, &format!("{salt}/p")));
            let p = permutation(dims[0], &mut rng);
            let q = permutation(dims[1], &mut rng);
            // `p[i]` names the source row landing at row `i`, so entries
            // move through the inverse maps.
            let (p_inv, q_inv) = (inverse(&p), inverse(&q));
            let entries = case.sparse.entries().into_iter();
            let permuted = case
                .sparse
                .with_entries(entries.map(|([r, c, _], v)| ([p_inv[r], q_inv[c], 0], v)));
            let x = dense_vec(dims[1], mix_seed(cfg.seed, &format!("{salt}/x")));
            let xp = DenseVector::from_fn(dims[1], |j| x.as_slice()[q[j]]);
            let base = Problem {
                case,
                space: Space::new(Kernel::SpMV, dims, 0),
                operands: Operands::Spmv { x },
            };
            let twin = Problem {
                operands: Operands::Spmv { x: xp },
                ..base.over(permuted)
            };
            (base, (twin, p))
        },
        |base, (twin, p), sched| {
            let expect = |y: &[Value]| p.iter().map(|&src| f64::from(y[src])).collect();
            relate(exec, sched, base, twin, expect, "perm-invariance")
        },
    );
}

/// Scaling linearity, for any kernel: scaling every stored value of the
/// sparse operand by [`ALPHA`] scales every output by it.
fn scaling(cfg: &VerifyConfig, exec: &dyn Executor, tally: &mut Tally, kernel: Kernel) {
    sweep(
        cfg,
        tally,
        kernel,
        cfg.budget.metamorphic_schedules(),
        |case| format!("meta/scale/{}/{case}", kernel.wire_name()),
        |case, salt| {
            let base = Problem::standard(case, kernel, cfg.seed, salt);
            let entries = base.case.sparse.entries().into_iter();
            let scaled = entries.map(|(at, v)| (at, v * ALPHA));
            let twin = base.over(base.case.sparse.with_entries(scaled));
            (base, twin)
        },
        |base, twin, sched| {
            let expect = |out: &[Value]| {
                let scale = |&v| f64::from(v) * f64::from(ALPHA);
                out.iter().map(scale).collect()
            };
            relate(exec, sched, base, twin, expect, "scaling")
        },
    );
}

/// SpMM with one dense column must compute SpMV (on the default CSR
/// schedule) of the same vector.
fn spmm_collapse(cfg: &VerifyConfig, exec: &dyn Executor, tally: &mut Tally) {
    sweep(
        cfg,
        tally,
        Kernel::SpMM,
        cfg.budget.metamorphic_schedules(),
        |case| format!("meta/collapse/{case}"),
        |case, salt| {
            let dims = case.sparse.dims();
            let x = dense_vec(dims[1], mix_seed(cfg.seed, &format!("{salt}/x")));
            let b = DenseMatrix::from_fn(dims[1], 1, |r, _| x.as_slice()[r]);
            let spmv = Problem {
                case: case.clone(),
                space: Space::new(Kernel::SpMV, dims.clone(), 0),
                operands: Operands::Spmv { x },
            };
            let y = spmv.run(exec, &named::default_csr(&spmv.space));
            let expected = y.map(|y| y.iter().map(|&v| f64::from(v)).collect::<Vec<f64>>());
            let spmm = Problem {
                case,
                space: Space::new(Kernel::SpMM, dims, 1),
                operands: Operands::Spmm { b },
            };
            (spmm, expected)
        },
        |spmm, expected, sched| match expected {
            None => Verdict::Skip,
            Some(y) => spmm.check(exec, sched, y, "spmm-collapse relation violated"),
        },
    );
}

/// `A · I ≡ A` at bit granularity: multiplying by I on the right must
/// reproduce A's dense image bit for bit, under every sampled schedule.
fn spgemm_identity(cfg: &VerifyConfig, exec: &dyn Executor, tally: &mut Tally) {
    sweep(
        cfg,
        tally,
        Kernel::SpGEMM,
        cfg.budget.metamorphic_schedules(),
        |case| format!("workspace/spgemm/{case}/identity"),
        |case, _| {
            let Sparse::Matrix(m) = &case.sparse else {
                unreachable!("SpGEMM's operand is a matrix")
            };
            let image = m.to_dense().as_slice().to_vec();
            let n = m.ncols();
            let eye = CooMatrix::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0)))
                .expect("identity triplets are in bounds");
            let b = CsrMatrix::from_coo(&eye);
            let space = Space::new(Kernel::SpGEMM, case.sparse.dims(), n);
            let problem = Problem {
                case,
                space,
                operands: Operands::Spgemm { b },
            };
            (problem, image)
        },
        |p, image, sched| match p.run(exec, sched) {
            None => Verdict::Skip,
            Some(got) => bit_verdict(image, &got, "A·I ≠ A"),
        },
    );
}

/// Fused ≡ unfused to the bit: SDDMM, then SpMM of the compacted
/// intermediate, everything on the default CSR schedule so both sides
/// reduce over j in the same per-row order. `None`: a storage over budget.
fn fused_vs_unfused(fused: &Problem, exec: &dyn Executor) -> Option<Verdict> {
    let Operands::SddmmSpmm { b, c, f } = fused.operands.clone() else {
        unreachable!("the fused kernel's problem carries its three operands")
    };
    let (dims, k) = (fused.case.sparse.dims(), fused.space.dense_extent);
    let sddmm = Problem {
        case: fused.case.clone(),
        space: Space::new(Kernel::SDDMM, dims.clone(), k),
        operands: Operands::Sddmm { b, c },
    };
    let inter = sddmm
        .execute(exec, &named::default_csr(&sddmm.space))?
        .into_sparse()
        .expect("SDDMM yields a sparse matrix");
    let spmm = Problem {
        case: Case {
            sparse: Sparse::Matrix(inter),
            ..fused.case.clone()
        },
        space: Space::new(Kernel::SpMM, dims, FUSED_OUT_COLS),
        operands: Operands::Spmm { b: f },
    };
    let unfused = spmm.run(exec, &named::default_csr(&spmm.space))?;
    let fused = fused.run(exec, &named::default_csr(&fused.space))?;
    Some(bit_verdict(&unfused, &fused, "fused ≠ unfused"))
}

/// [`fused_vs_unfused`] once per corpus case, on the default CSR schedule.
fn fused_unfused(cfg: &VerifyConfig, exec: &dyn Executor, tally: &mut Tally) {
    for case in corpus::cases(cfg.seed, cfg.budget, Kernel::SddmmSpmm) {
        let salt = format!("workspace/fused/{}", case.name);
        let fused = Problem::standard(case, Kernel::SddmmSpmm, cfg.seed, &salt);
        let verdict = fused_vs_unfused(&fused, exec).unwrap_or(Verdict::Skip);
        let sched = named::default_csr(&fused.space);
        tally.book(&fused.case, &fused.space, None, &sched, verdict);
    }
}

/// The metamorphic suite over the corpus.
pub fn metamorphic_suite(cfg: &VerifyConfig, exec: &dyn Executor) -> SuiteReport {
    let mut tally = Tally::new("metamorphic");
    if cfg.kernels.contains(&Kernel::SpMV) {
        perm_invariance(cfg, exec, &mut tally);
    }
    for &kernel in &cfg.kernels {
        scaling(cfg, exec, &mut tally, kernel);
    }
    if cfg.kernels.contains(&Kernel::SpMM) {
        spmm_collapse(cfg, exec, &mut tally);
    }
    if cfg.kernels.contains(&Kernel::SpGEMM) {
        spgemm_identity(cfg, exec, &mut tally);
    }
    if cfg.kernels.contains(&Kernel::SddmmSpmm) {
        fused_unfused(cfg, exec, &mut tally);
    }
    tally.finish()
}
