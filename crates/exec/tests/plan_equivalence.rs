//! Plan-equivalence cases that need an operand larger than the tiny spaces
//! `waco-verify`'s plan suite enumerates in full: each holds
//! [`PlannedKernel::run`] to the reference interpreter ([`oracle::run`])
//! bit for bit, outputs only. Event streams, body calls, chunked walks and
//! the one pinned case per [`waco_exec::TIER`] row live in that suite.

use waco_exec::{oracle, ExecutionPlan, Executor, FastPath, KernelArgs, PlannedKernel};
use waco_format::SparseStorage;
use waco_schedule::{named, Kernel, LoopVar, Space};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, DenseMatrix, DenseVector};

fn assert_outputs_match(pk: &PlannedKernel, args: KernelArgs<'_>, what: &str) {
    let plan = pk.run(args).unwrap();
    let interp = oracle::run(pk, args).unwrap();
    if let Some(m) = plan.bit_mismatch(&interp) {
        panic!("{what}: plan vs interpreter: {m}");
    }
}

/// What a plan derives from its operand at prepare — `DiscordantCsr`'s
/// transpose permutation, the generic SDDMM body's row-major slot order — is
/// owned by the `PlannedKernel`: every way of getting one — `prepare`,
/// `prepare_stored`, `clone` — must carry it, and a run must leave it as it
/// found it for the next.
#[test]
fn derived_storage_survives_every_constructor_and_rerun() {
    // Column 11 is empty, columns 26.. are empty, (3, 4) and (20, 0) are
    // explicit zeros, and the two (8, 7) duplicates cancel to a stored zero.
    let (nr, nc) = (37, 29);
    let mut triplets = vec![(3, 4, 0.0), (20, 0, 0.0), (8, 7, 2.5), (8, 7, -2.5)];
    for (i, k) in (0..nr).flat_map(|i| (0..26).map(move |k| (i, k))) {
        if k != 11 && (i * 7 + k * 3) % 5 == 0 {
            triplets.push((i, k, ((i * 29 + k) % 17) as f32 * 0.37 - 2.9));
        }
    }
    let a = CooMatrix::from_triplets(nr, nc, triplets).unwrap();
    assert!(a.iter().any(|(_, _, v)| v == 0.0), "zeros are stored");

    let spmv = Space::new(Kernel::SpMV, vec![nr, nc], 0);
    let mut discordant = named::default_csr(&spmv);
    discordant.parallel = None;
    discordant.loop_order = vec![
        LoopVar::outer(1),
        LoopVar::outer(0),
        LoopVar::inner(0),
        LoopVar::inner(1),
    ];
    let xs = [
        DenseVector::from_fn(nc, |k| k as f32 * 0.5 - 6.0),
        DenseVector::from_fn(nc, |k| ((k * 11) % 7) as f32 * -0.3 + 1.0),
    ];
    // SDDMM over 4×3 blocks: padded slots, and a slot order that is not the
    // storage order.
    let nk = 5;
    let sddmm = Space::new(Kernel::SDDMM, vec![nr, nc], nk);
    let mut blocked = named::default_csr(&sddmm);
    blocked.splits = vec![4, 3, 2];
    let bs = [
        DenseMatrix::from_fn(nr, nk, |i, k| ((i * 3 + k) % 7) as f32 * 0.2 - 0.5),
        DenseMatrix::from_fn(nr, nk, |i, k| ((i + 5 * k) % 4) as f32 * -0.7 + 1.1),
    ];
    let c = DenseMatrix::from_fn(nk, nc, |k, j| ((k + 2 * j) % 5) as f32 * 0.3 - 0.6);

    let args = |space: &Space, run: usize| match space.kernel {
        Kernel::SpMV => KernelArgs::Spmv { x: &xs[run] },
        _ => KernelArgs::Sddmm { b: &bs[run], c: &c },
    };
    for (space, sched) in [(&spmv, &discordant), (&sddmm, &blocked)] {
        let prepared = Executor::planned().prepare(&a, sched, space).unwrap();
        let plan = ExecutionPlan::build(sched, space).unwrap();
        let st = SparseStorage::from_matrix(&a, plan.spec()).unwrap();
        let stored = Executor::planned().prepare_stored(plan, st).unwrap();
        let cloned = prepared.clone();
        for (how, pk) in [
            ("prepare", &prepared),
            ("prepare_stored", &stored),
            ("clone", &cloned),
        ] {
            let how = format!("{}, {how}", space.kernel);
            let fast = match space.kernel {
                Kernel::SpMV => FastPath::DiscordantCsr,
                _ => FastPath::None,
            };
            assert_eq!(pk.plan().fast_path(), fast, "{how}");
            for run in 0..2 {
                assert_outputs_match(pk, args(space, run), &format!("{how}, run {run}"));
            }
        }
    }
}

/// The fused leaf reads `C` through a column-contiguous copy; its dot
/// products must keep the interpreter's bits, against both the oracle and
/// the unfused SDDMM → CSR SpMM composition: one-wide and odd contraction
/// widths, a `C` whose column count is no multiple of 8 or 16, dot products
/// that are exactly zero (zero `B` rows, zero `C` columns) or cancel to
/// zero, and an `F` narrower than a register tile.
#[test]
fn fused_column_contiguous_read_keeps_every_bit() {
    let (nr, nc, nt) = (301, 203, 5);
    let a = gen::uniform_random(nr, nc, 0.15, &mut Rng64::seed_from(36));
    let val = |r: usize, c: usize| ((r * 7 + c * 3) % 11) as f32 * 0.23 - 1.2;
    let f = DenseMatrix::from_fn(nc, nt, val);
    for nk in [1usize, 33] {
        // Rows of B repeat each value over a (2m, 2m + 1) pair, and every
        // fifth column of C is (+½, -½, …, 0): those dot products cancel
        // pair by pair to exactly zero. Every seventh row of B is zero.
        let b = DenseMatrix::from_fn(nr, nk, |i, k| if i % 7 == 0 { 0.0 } else { val(i, k / 2) });
        let c = DenseMatrix::from_fn(nk, nc, |k, j| match j % 5 {
            0 if k % 2 == 1 => -0.5,
            0 if k + 1 < nk => 0.5,
            0 => 0.0,
            _ => val(k, j),
        });
        let args = KernelArgs::SddmmSpmm {
            b: &b,
            c: &c,
            f: &f,
        };
        for threads in [1usize, 4] {
            let what = format!("nk {nk}, {threads} threads");
            let space = |kernel, dense| {
                Space::new(kernel, vec![nr, nc], dense).with_thread_options(vec![threads])
            };
            let prepare = |space: &Space, a: &CooMatrix| {
                Executor::planned()
                    .prepare(a, &named::default_csr(space), space)
                    .unwrap()
            };
            let fused = prepare(&space(Kernel::SddmmSpmm, nk), &a);
            assert_eq!(fused.plan().fast_path(), FastPath::FusedSddmmSpmm);
            assert_outputs_match(&fused, args, &what);

            let inter = prepare(&space(Kernel::SDDMM, nk), &a)
                .run(KernelArgs::Sddmm { b: &b, c: &c })
                .unwrap()
                .into_sparse()
                .unwrap();
            assert!(inter.nnz() < a.nnz(), "{what}: some dot products are zero");
            let unfused = prepare(&space(Kernel::SpMM, nt), &inter)
                .run(KernelArgs::Spmm { b: &f })
                .unwrap();
            if let Some(m) = fused.run(args).unwrap().bit_mismatch(&unfused) {
                panic!("{what}: fused vs unfused: {m}");
            }
        }
    }
}

#[test]
fn split_dense_dim_keeps_fast_path_and_bits() {
    // Regression for the split-aware fix: a dense-dimension split leaves the
    // sparse storage and accumulation order untouched, so the register-tiled
    // fast path must still be selected — and still match the interpreter,
    // whose walk *does* see the extra split loop structure.
    let mut rng = Rng64::seed_from(35);
    let a = gen::uniform_random(41, 35, 0.15, &mut rng);
    let space = Space::new(Kernel::SpMM, vec![41, 35], 16);
    let mut sched = named::default_csr(&space);
    sched.splits = vec![1, 1, 4];
    let b = DenseMatrix::from_fn(35, 16, |r, c| ((r + 2 * c) % 9) as f32 * 0.21 - 0.7);
    let pk = Executor::planned().prepare(&a, &sched, &space).unwrap();
    assert_eq!(pk.plan().fast_path(), FastPath::RegBlockSpmm);
    assert_outputs_match(&pk, KernelArgs::Spmm { b: &b }, "dense-split spmm");
}
