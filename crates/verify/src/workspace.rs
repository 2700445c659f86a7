//! Workspace-kernel suites: the two dense-temporary kernels (row-wise
//! Gustavson SpGEMM and fused SDDMM+SpMM) held to the dense `f64` oracle
//! and to their defining metamorphic identities.
//!
//! These suites run unconditionally — `VerifyConfig::kernels` defaults to
//! the four paper kernels, but the workspace subsystem feeds the serve
//! path's tuned plans, so every `waco-cli verify` run covers it:
//!
//! * `spgemm_oracle` — every sampled schedule of the SpGEMM space against
//!   [`crate::oracle::spgemm`], plus the `A · I ≡ A` right-identity at
//!   **bit** granularity: against an identity CSR, every workspace cell
//!   sees exactly `0.0 + v · 1.0`, which is a bitwise no-op, so the output
//!   must reproduce A's dense image bit for bit.
//! * `fusion_equivalence` — fused SDDMM+SpMM against
//!   [`crate::oracle::sddmm_spmm`] across sampled schedules, and fused ≡
//!   unfused (SDDMM, then SpMM of the compacted intermediate) to **bit**
//!   identity under the default CSR schedule: both sides reduce over `j`
//!   in A's per-row CSR column order, so there is no reassociation for a
//!   divergence to hide behind.

use waco_schedule::{named, Kernel, Space};
use waco_tensor::{CooMatrix, CsrMatrix, Value};

use crate::corpus::{self, Case};
use crate::diff::Executor;
use crate::problem::{Operands, Problem, Sparse, FUSED_OUT_COLS};
use crate::sweep::{sweep, Tally, Verdict};
use crate::{SuiteReport, VerifyConfig};

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

/// SpGEMM over the corpus: oracle agreement across the sampler stream,
/// then the right-identity `A · I ≡ A` at bit granularity.
pub fn spgemm_oracle_suite(cfg: &VerifyConfig, exec: &dyn Executor) -> SuiteReport {
    let mut tally = Tally::new("spgemm_oracle");
    sweep(
        cfg,
        &mut tally,
        Kernel::SpGEMM,
        cfg.budget.schedules_per_case(),
        |case| format!("workspace/spgemm/{case}"),
        |case, salt| Problem::standard(case, Kernel::SpGEMM, cfg.seed, salt).with_oracle(),
        |p, expected, sched| p.check(exec, sched, expected, "oracle disagreement"),
    );
    // Right-identity: multiplying by I on the right must reproduce A's
    // dense image bit for bit, under every sampled schedule.
    sweep(
        cfg,
        &mut tally,
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
    tally.finish()
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

/// Fused SDDMM+SpMM over the corpus: oracle agreement across the sampler
/// stream, then fused ≡ unfused to bit identity under the default CSR
/// schedule on both sides.
pub fn fusion_equivalence_suite(cfg: &VerifyConfig, exec: &dyn Executor) -> SuiteReport {
    let mut tally = Tally::new("fusion_equivalence");
    let salt = |case: &str| format!("workspace/fused/{case}");
    sweep(
        cfg,
        &mut tally,
        Kernel::SddmmSpmm,
        cfg.budget.schedules_per_case(),
        salt,
        |case, salt| Problem::standard(case, Kernel::SddmmSpmm, cfg.seed, salt).with_oracle(),
        |p, expected, sched| p.check(exec, sched, expected, "oracle disagreement"),
    );
    for case in corpus::cases(cfg.seed, cfg.budget, Kernel::SddmmSpmm) {
        let salt = salt(&case.name);
        let fused = Problem::standard(case, Kernel::SddmmSpmm, cfg.seed, &salt);
        let verdict = fused_vs_unfused(&fused, exec).unwrap_or(Verdict::Skip);
        let sched = named::default_csr(&fused.space);
        tally.book(&fused.case, &fused.space, None, &sched, verdict);
    }
    tally.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ExecBackend;
    use crate::Budget;

    #[test]
    fn workspace_suites_pass_on_the_production_backend() {
        let cfg = VerifyConfig::new(11, Budget::Smoke);
        let spgemm = spgemm_oracle_suite(&cfg, &ExecBackend);
        assert!(
            spgemm.failures.is_empty(),
            "spgemm_oracle must pass: {:?}",
            spgemm.failures.first().map(|f| f.to_string())
        );
        assert!(spgemm.executed > 20, "suite actually ran checks");

        let fused = fusion_equivalence_suite(&cfg, &ExecBackend);
        assert!(
            fused.failures.is_empty(),
            "fusion_equivalence must pass: {:?}",
            fused.failures.first().map(|f| f.to_string())
        );
        assert!(fused.executed > 20, "suite actually ran checks");
    }
}
