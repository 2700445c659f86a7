//! Packed-key assembly against the tuple-sorting builder it replaced, array
//! for array: every level (`extent` / `pos` / `crd`), `vals` as bits,
//! `parent_counts`, and the error a build ends in.
//!
//! `oracle` is that builder (`build::plan` + `build::materialize` of the
//! commit before the packed keys) kept verbatim and test-local: one heap
//! tuple per nonzero, a comparison sort over them, one scan per level.

use waco_check::props;
use waco_format::{Axis, FormatError, FormatSpec, LevelFormat, LevelStorage, SparseStorage};
use waco_tensor::gen::{self, Family, Rng64};
use waco_tensor::{CooMatrix, Value};

mod oracle {
    use waco_format::{FormatError, FormatSpec, LevelFormat, LevelStorage};
    use waco_tensor::Value;

    type Result<T> = std::result::Result<T, FormatError>;

    /// Intermediate result of the planning pass: sorted axis-coordinate tuples
    /// and distinct-prefix counts per level.
    #[derive(Debug)]
    pub struct BuildPlan {
        /// Axis-coordinate tuples in storage order, sorted lexicographically,
        /// paired with their values.
        pub tuples: Vec<(Vec<usize>, Value)>,
        /// `prefix_counts[l]` = number of distinct prefixes of length `l + 1`.
        pub prefix_counts: Vec<usize>,
        /// Estimated storage words for the spec over these nonzeros.
        pub words: u64,
    }

    /// Plans a build: computes sorted tuples and the storage estimate.
    pub fn plan(
        spec: &FormatSpec,
        nonzeros: impl IntoIterator<Item = (Vec<usize>, Value)>,
    ) -> Result<BuildPlan> {
        let nlev = spec.num_levels();
        let mut tuples: Vec<(Vec<usize>, Value)> = Vec::new();
        for (coord, val) in nonzeros {
            if coord.len() != spec.ndims() {
                return Err(FormatError::DimMismatch {
                    spec_dims: spec.dims().to_vec(),
                    tensor_dims: vec![coord.len()],
                });
            }
            let tuple: Vec<usize> = spec
                .order()
                .iter()
                .map(|&axis| spec.axis_coord(axis, coord[axis.dim]))
                .collect();
            tuples.push((tuple, val));
        }
        tuples.sort_by(|a, b| a.0.cmp(&b.0));

        let mut prefix_counts = vec![0usize; nlev];
        for l in 0..nlev {
            let mut count = 0usize;
            let mut prev: Option<&[usize]> = None;
            for (t, _) in &tuples {
                let pfx = &t[..=l];
                if prev != Some(pfx) {
                    count += 1;
                    prev = Some(pfx);
                }
            }
            prefix_counts[l] = count;
        }
        let words = spec.storage_words(&prefix_counts);
        Ok(BuildPlan {
            tuples,
            prefix_counts,
            words,
        })
    }

    /// Materializes the levels and values array from a plan.
    ///
    /// Returns `(levels, vals, parent_counts)` where `parent_counts[l]` is the
    /// number of positions *entering* level `l` (so `parent_counts[0] == 1`).
    pub fn materialize(
        spec: &FormatSpec,
        plan: &BuildPlan,
        budget_words: u64,
    ) -> Result<(Vec<LevelStorage>, Vec<Value>, Vec<usize>)> {
        if plan.words > budget_words {
            return Err(FormatError::StorageTooLarge {
                estimated: plan.words,
                budget: budget_words,
            });
        }
        let nlev = spec.num_levels();
        let n = plan.tuples.len();
        let mut levels = Vec::with_capacity(nlev);
        let mut parent_counts = Vec::with_capacity(nlev);
        // Per-nonzero position at the previous level.
        let mut pos_prev: Vec<usize> = vec![0; n];
        let mut parent_count = 1usize;

        for l in 0..nlev {
            parent_counts.push(parent_count);
            let extent = spec.axis_extent(spec.order()[l]);
            match spec.formats()[l] {
                LevelFormat::Uncompressed => {
                    for (i, (t, _)) in plan.tuples.iter().enumerate() {
                        pos_prev[i] = pos_prev[i] * extent + t[l];
                    }
                    levels.push(LevelStorage::Uncompressed { extent });
                    parent_count *= extent;
                }
                LevelFormat::Compressed => {
                    // Entries = distinct (parent_pos, coord) pairs, in sorted
                    // order (the tuples are sorted, and parent positions are
                    // monotone in tuple order).
                    let mut pos = vec![0usize; parent_count + 1];
                    let mut crd = Vec::with_capacity(plan.prefix_counts[l]);
                    let mut prev: Option<(usize, usize)> = None;
                    for (pp, (t, _)) in pos_prev.iter_mut().zip(plan.tuples.iter()) {
                        let key = (*pp, t[l]);
                        if prev != Some(key) {
                            crd.push(key.1);
                            pos[key.0 + 1] += 1;
                            prev = Some(key);
                        }
                        *pp = crd.len() - 1;
                    }
                    for p in 0..parent_count {
                        pos[p + 1] += pos[p];
                    }
                    parent_count = crd.len();
                    levels.push(LevelStorage::Compressed { pos, crd });
                }
            }
        }

        let mut vals = vec![0.0 as Value; parent_count];
        for (i, (_, v)) in plan.tuples.iter().enumerate() {
            vals[pos_prev[i]] += v;
        }
        Ok((levels, vals, parent_counts))
    }
}

type Nonzeros = Vec<(Vec<usize>, Value)>;
/// `(levels, vals, parent_counts)`, as both builders hand them over.
type Arrays = (Vec<LevelStorage>, Vec<Value>, Vec<usize>);

/// What a build ends in, comparable across the two builders.
#[derive(Debug, PartialEq)]
enum Built {
    Stored {
        levels: Vec<LevelStorage>,
        val_bits: Vec<u32>,
        parent_counts: Vec<usize>,
    },
    TooLarge {
        estimated: u64,
        budget: u64,
    },
    DimMismatch {
        spec_dims: Vec<usize>,
        tensor_dims: Vec<usize>,
    },
}

fn outcome(r: Result<Arrays, FormatError>) -> Built {
    match r {
        Ok((levels, vals, parent_counts)) => Built::Stored {
            levels,
            val_bits: vals.iter().map(|v| v.to_bits()).collect(),
            parent_counts,
        },
        Err(FormatError::StorageTooLarge { estimated, budget }) => {
            Built::TooLarge { estimated, budget }
        }
        Err(FormatError::DimMismatch {
            spec_dims,
            tensor_dims,
        }) => Built::DimMismatch {
            spec_dims,
            tensor_dims,
        },
        Err(e) => panic!("unexpected build error: {e}"),
    }
}

fn arrays(st: SparseStorage) -> Arrays {
    let n = st.num_levels();
    (
        (0..n).map(|l| st.level(l).clone()).collect(),
        st.vals().to_vec(),
        (0..n).map(|l| st.parent_count(l)).collect(),
    )
}

fn old(spec: &FormatSpec, nonzeros: &Nonzeros, budget: u64) -> Built {
    outcome(
        oracle::plan(spec, nonzeros.iter().cloned())
            .and_then(|plan| oracle::materialize(spec, &plan, budget)),
    )
}

fn new(spec: &FormatSpec, nonzeros: &Nonzeros, budget: u64) -> Built {
    outcome(SparseStorage::from_nonzeros(spec, nonzeros.iter().cloned(), budget).map(arrays))
}

/// Both builders at the default budget, at exactly the size the storage
/// needs, and one word short of it (same `estimated` in the error).
fn check(spec: &FormatSpec, nonzeros: &Nonzeros) {
    const BUDGET: u64 = 1 << 22;
    let want = old(spec, nonzeros, BUDGET);
    assert_eq!(new(spec, nonzeros, BUDGET), want, "{spec} at {BUDGET}");
    let words = oracle::plan(spec, nonzeros.iter().cloned())
        .expect("`check` takes nonzeros of the spec's arity")
        .words;
    if words <= BUDGET {
        assert_eq!(new(spec, nonzeros, words), want, "{spec} at its size");
        let short = new(spec, nonzeros, words - 1);
        assert_eq!(short, old(spec, nonzeros, words - 1));
        assert!(matches!(short, Built::TooLarge { estimated, .. } if estimated == words));
    } else {
        assert!(matches!(want, Built::TooLarge { estimated, .. } if estimated == words));
    }
}

/// A random spec over `dims`: any level order, any level formats, and per
/// dimension a split of 1, a non-dividing one, the whole dimension, or one
/// beyond it (clamped by the spec).
fn random_spec(dims: &[usize], rng: &mut Rng64) -> FormatSpec {
    let mut order: Vec<Axis> = (0..dims.len())
        .flat_map(|d| [Axis::outer(d), Axis::inner(d)])
        .collect();
    rng.shuffle(&mut order);
    let formats = (0..order.len())
        .map(|_| *rng.pick(&[LevelFormat::Uncompressed, LevelFormat::Compressed]))
        .collect();
    let splits = dims
        .iter()
        .map(|&n| match rng.below(5) {
            0 => 1,
            1 => n,
            2 => n + 1 + rng.below(7),
            _ => 1 + rng.below(n),
        })
        .collect();
    FormatSpec::new(dims.to_vec(), splits, order, formats).expect("a valid random spec")
}

/// A family's `n`×`n` matrix folded onto `rows`×`cols`: the folds collide,
/// so the list holds duplicates, in an order that is not storage order.
fn folded(family: Family, n: usize, rows: usize, cols: usize, rng: &mut Rng64) -> Nonzeros {
    let mut nz: Nonzeros = family
        .generate(n, rng)
        .iter()
        .map(|(r, c, v)| (vec![r % rows, c % cols], v))
        .collect();
    rng.shuffle(&mut nz);
    nz
}

props! {
    /// The seven families × square / wide / tall / 1×n / n×1 shapes × random
    /// specs, duplicates included, through `from_nonzeros`.
    cases = 192,
    fn matrices_equal_tuple_sort(family in 0usize..7, n in 16usize..72, shape in 0usize..5,
                                 seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let (rows, cols) = match shape {
            0 => (n, n),
            1 => (n / 5 + 1, n),
            2 => (n, n / 5 + 1),
            3 => (1, n),
            _ => (n, 1),
        };
        let nz = folded(Family::ALL[family], n, rows, cols, &mut rng);
        for _ in 0..4 {
            check(&random_spec(&[rows, cols], &mut rng), &nz);
        }
    }

    /// Empty and single-entry inputs, and `from_matrix` (sorted, unique
    /// input) against the same oracle.
    cases = 96,
    fn small_and_sorted_inputs(rows in 1usize..40, cols in 1usize..40, entries in 0usize..3,
                               seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let nz: Nonzeros = (0..entries)
            .map(|_| (vec![rng.below(rows), rng.below(cols)], rng.value()))
            .collect();
        let spec = random_spec(&[rows, cols], &mut rng);
        check(&spec, &nz);

        let m = gen::uniform_random(rows, cols, 0.3, &mut rng);
        let sorted: Nonzeros = m.iter().map(|(r, c, v)| (vec![r, c], v)).collect();
        let want = old(&spec, &sorted, 1 << 22);
        let got = outcome(SparseStorage::from_operand(&m, &spec, 1 << 22).map(arrays));
        assert_eq!(got, want, "{spec}");
    }

    /// 3-D tensors with duplicates, any of the 6! level orders.
    cases = 96,
    fn tensors_equal_tuple_sort(i in 1usize..14, k in 1usize..14, l in 1usize..14,
                                nnz in 0usize..120, seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let nz: Nonzeros = (0..nnz)
            .map(|_| (vec![rng.below(i), rng.below(k), rng.below(l)], rng.value()))
            .collect();
        for _ in 0..3 {
            check(&random_spec(&[i, k, l], &mut rng), &nz);
        }
        let t = gen::random_tensor3([i, k, l], nnz.min(i * k * l), &mut rng);
        let spec = random_spec(&[i, k, l], &mut rng);
        let sorted: Nonzeros = t.iter().map(|(a, b, c, v)| (vec![a, b, c], v)).collect();
        let got = outcome(SparseStorage::from_operand(&t, &spec, 1 << 22).map(arrays));
        assert_eq!(got, old(&spec, &sorted, 1 << 22), "{spec}");
    }
}

/// The largest matrix the serve wire admits (`MAX_MATRIX_DIM` = 2²² a side),
/// entries in all four corners: 44–46 key bits, still a `u64`.
#[test]
fn widest_wire_matrix_with_corner_entries() {
    let n = 1usize << 22;
    let nz: Nonzeros = vec![
        (vec![n - 1, n - 1], 4.0),
        (vec![0, n - 1], 2.0),
        (vec![n - 1, 0], 3.0),
        (vec![0, 0], 1.0),
        (vec![n - 1, n - 1], 0.5),
    ];
    let mut rng = Rng64::seed_from(22);
    check(&FormatSpec::dcsr(n, n), &nz);
    check(&FormatSpec::csr(n, n), &nz);
    for _ in 0..24 {
        check(&random_spec(&[n, n], &mut rng), &nz);
    }
}

/// Extents of 2³⁰ a mode need 90 key bits: the `u128` path of the same
/// algorithm. (Compressed specs only: an uncompressed level of that extent
/// is an over-budget build for either builder, which `check` also compares.)
#[test]
fn three_d_spec_beyond_64_key_bits() {
    let n = 1usize << 30;
    let nz: Nonzeros = vec![
        (vec![n - 1, n - 1, n - 1], 1.0),
        (vec![0, 0, 0], 2.0),
        (vec![n - 1, 0, n - 1], 3.0),
        (vec![5, n / 2, 7], 4.0),
        (vec![0, 0, 0], 5.0),
        (vec![5, n / 2, 8], 6.0),
    ];
    check(&FormatSpec::csf3([n, n, n]), &nz);
    let mut rng = Rng64::seed_from(30);
    for _ in 0..24 {
        check(&random_spec(&[n, n, n], &mut rng), &nz);
    }
}

/// Beyond 128 key bits there is no key type; the build says so instead of
/// shifting coordinates off the end.
#[test]
fn more_than_128_key_bits_is_an_error() {
    let n = 1usize << 50;
    let r = SparseStorage::from_nonzeros(&FormatSpec::csf3([n, n, n]), [([0, 0, 0], 1.0)], 1 << 22);
    assert!(matches!(r, Err(FormatError::InvalidSpec(_))));
}

#[test]
fn shape_mismatch_is_dim_mismatch_for_both_operand_kinds() {
    let m = CooMatrix::from_triplets(4, 5, vec![(0, 0, 1.0)]).unwrap();
    let r = SparseStorage::from_matrix(&m, &FormatSpec::csr(5, 4));
    assert!(matches!(
        r,
        Err(FormatError::DimMismatch { spec_dims, tensor_dims })
            if spec_dims == vec![5, 4] && tensor_dims == vec![4, 5]
    ));
    let t = gen::random_tensor3([3, 4, 5], 6, &mut Rng64::seed_from(1));
    let r = SparseStorage::from_operand(&t, &FormatSpec::csf3([3, 4, 6]), 1 << 22);
    assert!(matches!(r, Err(FormatError::DimMismatch { .. })));
    // Arity, through `from_nonzeros`, for both builders.
    let nz: Nonzeros = vec![(vec![0, 0, 0], 1.0)];
    let spec = FormatSpec::csr(4, 4);
    assert_eq!(new(&spec, &nz, 1 << 22), old(&spec, &nz, 1 << 22));
}
