//! The verification corpus: sparsity structures chosen to hit the edges a
//! random uniform matrix never does — banded locality, dense blocks,
//! power-law skew, empty rows, a single entry, rectangular shapes, and an
//! entirely empty pattern. Every case is derived deterministically from the
//! harness seed so any failure names the exact matrix that produced it.

use waco_schedule::Kernel;
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CooTensor3};

use crate::problem::Sparse;
use crate::Budget;

/// One corpus case: a structure family instantiated from a seed.
#[derive(Debug, Clone)]
pub struct Case {
    /// Family label, stable across runs (goes into failure reports).
    pub name: String,
    /// The seed this operand was generated from (replay key).
    pub seed: u64,
    /// The sparse operand itself.
    pub sparse: Sparse,
}

/// The corpus `kernel`'s sparse operand is drawn from, for a harness seed:
/// seven matrix families for the 2-D kernels, three order-3 tensor families
/// for MTTKRP. `Nightly` scales the extents up; the family lists are
/// identical so smoke and nightly disagree only in size.
pub fn cases(seed: u64, budget: Budget, kernel: Kernel) -> Vec<Case> {
    let nightly = budget == Budget::Nightly;
    let mut cases = Vec::new();
    let mut case = |name: &str, salt: u64, build: &dyn Fn(&mut Rng64) -> Sparse| {
        let s = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cases.push(Case {
            name: name.to_string(),
            seed: s,
            sparse: build(&mut Rng64::seed_from(s)),
        });
    };

    if kernel.sparse_ndims() == 3 {
        let d = if nightly { 20 } else { 8 };
        case("random3", 11, &|rng| {
            Sparse::Tensor3(gen::random_tensor3([d, d + 1, d + 2], d * d, rng))
        });
        case("single-entry3", 12, &|rng| {
            let (i, k, l) = (rng.below(d), rng.below(d), rng.below(d));
            Sparse::Tensor3(
                CooTensor3::from_quads([d, d, d], [(i, k, l, -0.75f32)]).expect("in-bounds"),
            )
        });
        case("fibered3", 13, &|rng| {
            Sparse::Tensor3(gen::fibered_tensor3([d, d, d], 2, 0.7, rng))
        });
        return cases;
    }

    let n = if nightly { 96 } else { 24 };
    let mut matrix = |name: &str, salt: u64, build: &dyn Fn(&mut Rng64) -> CooMatrix| {
        case(name, salt, &|rng| Sparse::Matrix(build(rng)));
    };
    matrix("banded", 1, &|rng| gen::banded(n, 3, 0.8, rng));
    matrix("blocked", 2, &|rng| gen::blocked(n, n, 4, n / 2, 0.9, rng));
    matrix("powerlaw", 3, &|rng| {
        gen::powerlaw_rows(n, n, 4.0, 1.2, rng)
    });
    matrix("empty-rows", 4, &|rng| {
        // Uniform fill restricted to even rows: half the rows have no
        // entries at all, exercising zero-length compressed segments.
        let m = gen::uniform_random(n, n, 0.2, rng);
        let triplets = m.iter().filter(|(r, _, _)| r % 2 == 0);
        CooMatrix::from_triplets(n, n, triplets).expect("in-bounds")
    });
    matrix("single-entry", 5, &|rng| {
        let (r, c) = (rng.below(n - 2), rng.below(n + 3));
        CooMatrix::from_triplets(n - 2, n + 3, [(r, c, 0.5f32)]).expect("in-bounds")
    });
    matrix("rectangular", 6, &|rng| {
        gen::uniform_random(n / 2, n * 2, 0.15, rng)
    });
    matrix("empty", 7, &|_| CooMatrix::zeros(n / 2, n / 2));
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_covers_families() {
        for kernel in [Kernel::SpMM, Kernel::MTTKRP] {
            let a = cases(42, Budget::Smoke, kernel);
            let b = cases(42, Budget::Smoke, kernel);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((&x.name, x.seed, &x.sparse), (&y.name, y.seed, &y.sparse));
            }
        }
        let a = cases(42, Budget::Smoke, Kernel::SpMV);
        let names: Vec<&str> = a.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "banded",
                "blocked",
                "powerlaw",
                "empty-rows",
                "single-entry",
                "rectangular",
                "empty"
            ]
        );
        // Structure sanity.
        let dims_nnz = |name: &str| {
            let c = a.iter().find(|c| c.name == name).unwrap();
            (c.sparse.dims(), c.sparse.entries().len())
        };
        assert_eq!(dims_nnz("empty").1, 0);
        let (single, nnz) = dims_nnz("single-entry");
        assert_eq!(nnz, 1);
        assert_ne!(single[0], single[1]);
        let (rect, _) = dims_nnz("rectangular");
        assert_eq!(rect[1], 4 * rect[0]);
        assert_eq!(cases(7, Budget::Smoke, Kernel::MTTKRP).len(), 3);
    }

    #[test]
    fn seed_changes_content_not_shape_of_corpus() {
        let a = cases(1, Budget::Smoke, Kernel::SpMV);
        let b = cases(2, Budget::Smoke, Kernel::SpMV);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).any(|(x, y)| x.sparse != y.sparse));
    }
}
