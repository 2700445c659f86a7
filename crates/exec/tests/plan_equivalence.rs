//! Plan-equivalence property suite: the flat-op plan executor (including its
//! monomorphized fast paths) must be **bit-identical** to the dynamic
//! reference interpreter — same outputs, same [`Instrument`] event stream —
//! for every schedule the shared `ScheduleSampler` stream produces, and for
//! one pinned case per row of the specialization tier ([`TIER`]). The verify
//! crate runs the same comparison over its structure corpus; this suite is
//! the fast, exec-local slice of it.

use waco_exec::{
    oracle, Ctx, ExecError, ExecutionPlan, Executor, FastPath, Instrument, KernelArgs, LoopNest,
    NoInstrument, PlannedKernel, TIER,
};
use waco_format::SparseStorage;
use waco_schedule::{
    named, FormatSchedule, Kernel, LoopVar, ScheduleSampler, Space, SuperSchedule,
};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CsrMatrix, DenseMatrix, DenseVector, Value};

/// Records the full event stream so plan and interpreter walks can be
/// compared event-for-event, not just count-for-count.
#[derive(Default, PartialEq, Debug)]
struct EventLog(Vec<Event>);

#[derive(PartialEq, Debug, Clone, Copy)]
enum Event {
    Concordant(usize, usize),
    Dense(LoopVar, usize),
    Locate(usize, usize, bool),
    Body,
}

impl Instrument for EventLog {
    fn concordant(&mut self, level: usize, children: usize) {
        self.0.push(Event::Concordant(level, children));
    }
    fn dense_loop(&mut self, var: LoopVar, extent: usize) {
        self.0.push(Event::Dense(var, extent));
    }
    fn locate(&mut self, level: usize, probes: usize, hit: bool) {
        self.0.push(Event::Locate(level, probes, hit));
    }
    fn body(&mut self) {
        self.0.push(Event::Body);
    }
}

/// One body call as a kernel body or `waco-sim`'s trackers see it: the
/// position, the value's bits, `ctx.coord(d)` for every dimension and
/// `ctx.axis_coord(v)` for every loop variable.
#[derive(PartialEq, Debug)]
struct BodyCall {
    pos: usize,
    bits: u32,
    coords: Vec<Option<usize>>,
    axis: Vec<usize>,
}

fn body_call(plan: &ExecutionPlan, ctx: &Ctx<'_>, pos: usize, v: Value) -> BodyCall {
    BodyCall {
        pos,
        bits: v.to_bits(),
        coords: (0..plan.kernel().ndims()).map(|d| ctx.coord(d)).collect(),
        axis: plan
            .order()
            .iter()
            .map(|&var| ctx.axis_coord(var))
            .collect(),
    }
}

/// The body calls of plan walks over the outer loop cut at `cuts`
/// (ascending): `[0, cuts[0])`, `[cuts[0], cuts[1])`, …, up to its extent.
fn plan_calls(plan: &ExecutionPlan, st: &SparseStorage, cuts: &[usize]) -> Vec<BodyCall> {
    let mut calls = Vec::new();
    let ends = cuts.iter().copied().chain([plan.outer_extent()]);
    let mut start = 0;
    for end in ends {
        plan.walk(st, start..end, &mut NoInstrument, &mut |ctx, pos, v| {
            calls.push(body_call(plan, ctx, pos, v));
        });
        start = end;
    }
    calls
}

/// Serial full-range walks of the same plan through both walkers must emit
/// identical event streams and make identical body calls (this is what
/// keeps `waco-sim` honest: its event counts, reuse trackers and
/// per-coordinate tallies come from the plan-driven walk).
fn assert_same_events(plan: &ExecutionPlan, st: &SparseStorage, what: &str) {
    let mut ev_plan = EventLog::default();
    let mut ev_interp = EventLog::default();
    let (mut calls_plan, mut calls_interp) = (Vec::new(), Vec::new());
    plan.walk(
        st,
        0..plan.outer_extent(),
        &mut ev_plan,
        &mut |ctx, pos, v| {
            calls_plan.push(body_call(plan, ctx, pos, v));
        },
    );
    LoopNest::from_plan(plan, st).walk(
        0..plan.outer_extent(),
        &mut ev_interp,
        &mut |ctx, pos, v| calls_interp.push(body_call(plan, ctx, pos, v)),
    );
    assert_eq!(
        ev_plan, ev_interp,
        "{what}: instrument event streams differ"
    );
    assert_eq!(calls_plan, calls_interp, "{what}: body calls differ");
}

/// Runs one prepared kernel and the oracle on it, asserting bit identity of
/// the output and event identity of the generic walks.
fn assert_planned_matches(pk: &PlannedKernel, args: KernelArgs<'_>, what: &str) {
    assert_outputs_match(pk, args, what);
    assert_same_events(pk.plan(), pk.storage(), what);
}

fn assert_outputs_match(pk: &PlannedKernel, args: KernelArgs<'_>, what: &str) {
    let plan = pk.run(args).unwrap();
    let interp = oracle::run(pk, args).unwrap();
    if let Some(m) = plan.bit_mismatch(&interp) {
        panic!("{what}: plan vs interpreter: {m}");
    }
}

#[test]
fn spmv_plan_matches_interpreter() {
    let mut rng = Rng64::seed_from(11);
    let a = gen::powerlaw_rows(37, 41, 5.0, 1.2, &mut rng);
    let space = Space::new(Kernel::SpMV, vec![37, 41], 0);
    let x = DenseVector::from_fn(41, |i| ((i * 7 % 13) as f32) * 0.31 - 1.5);
    let mut tested = 0;
    for (idx, sched) in ScheduleSampler::new(&space, 101)
        .take_schedules(40)
        .into_iter()
        .enumerate()
    {
        let pk = match Executor::planned().prepare(&a, &sched, &space) {
            Ok(pk) => pk,
            Err(ExecError::Format(_)) => continue, // over budget — excluded
            Err(e) => panic!("schedule {idx}: {e}"),
        };
        let what = format!("spmv schedule {idx}: {}", sched.describe(&space));
        assert_planned_matches(&pk, KernelArgs::Spmv { x: &x }, &what);
        tested += 1;
    }
    assert!(tested > 10, "most sampled schedules should be buildable");
}

#[test]
fn spmm_plan_matches_interpreter() {
    let mut rng = Rng64::seed_from(12);
    let a = gen::blocked(33, 29, 4, 12, 0.7, &mut rng);
    let space = Space::new(Kernel::SpMM, vec![33, 29], 5);
    let b = DenseMatrix::from_fn(29, 5, |r, c| ((r * 3 + c) % 9) as f32 * 0.21 - 0.9);
    let mut tested = 0;
    for (idx, sched) in ScheduleSampler::new(&space, 102)
        .take_schedules(30)
        .into_iter()
        .enumerate()
    {
        let Ok(pk) = Executor::planned().prepare(&a, &sched, &space) else {
            continue;
        };
        assert_planned_matches(
            &pk,
            KernelArgs::Spmm { b: &b },
            &format!("spmm schedule {idx}"),
        );
        tested += 1;
    }
    assert!(tested > 5);
}

/// A named SDDMM schedule over a space.
type Nest = (&'static str, fn(&Space) -> SuperSchedule);

/// SDDMM's tuned nest `j1 i1 j0 i0 k1 k0` over CSC, `k` split `ks`.
fn csc(space: &Space, ks: usize) -> SuperSchedule {
    use waco_format::{Axis, LevelFormat::*};
    let format = FormatSchedule {
        order: vec![
            Axis::outer(1),
            Axis::outer(0),
            Axis::inner(1),
            Axis::inner(0),
        ],
        formats: vec![Uncompressed, Compressed, Uncompressed, Uncompressed],
    };
    let p = named::default_csr(space)
        .parallel
        .expect("a parallel default");
    named::concordant(space, vec![1, 1, ks], format, p.threads, p.chunk)
}

#[test]
fn sddmm_plan_matches_interpreter() {
    let mut rng = Rng64::seed_from(13);
    let a = gen::uniform_random(26, 31, 0.12, &mut rng);
    let space = Space::new(Kernel::SDDMM, vec![26, 31], 6);
    let b = DenseMatrix::from_fn(26, 6, |r, c| (r * 2 + c) as f32 * 0.13);
    let c = DenseMatrix::from_fn(6, 31, |r, c| ((r + c) % 7) as f32 * 0.27 - 0.6);
    let mut tested = 0;
    for (idx, sched) in ScheduleSampler::new(&space, 103)
        .take_schedules(30)
        .into_iter()
        .enumerate()
    {
        let Ok(pk) = Executor::planned().prepare(&a, &sched, &space) else {
            continue;
        };
        assert_planned_matches(
            &pk,
            KernelArgs::Sddmm { b: &b, c: &c },
            &format!("sddmm schedule {idx}"),
        );
        tested += 1;
    }
    assert!(tested > 5);

    // Pinned nests over the run hand-off, where the walker passes each `k`
    // loop to the body whole and the output is gathered in the slot order
    // derived at prepare. The operand stores explicit zeros and a pair of
    // duplicates that cancel; B and C make some dot products cancel to
    // exactly zero (dropped from the COO) and zero others outright.
    let (nr, nc) = (211, 197);
    let zeros = [(3, 4, 0.0), (20, 0, 0.0), (8, 7, 2.5), (8, 7, -2.5)];
    let random = gen::uniform_random(nr, nc, 0.25, &mut Rng64::seed_from(38));
    let random = random
        .iter()
        .filter(|e| !zeros.iter().any(|z| (z.0, z.1) == (e.0, e.1)));
    let a = CooMatrix::from_triplets(nr, nc, zeros.into_iter().chain(random)).unwrap();
    assert_eq!(
        a.iter().filter(|e| e.2 == 0.0).count(),
        3,
        "zeros are stored"
    );
    let nests: [Nest; 6] = [
        ("default CSR", named::default_csr),
        // k1 outside k0: each slot takes several runs, the last one padded.
        ("k split 4", |space| {
            let mut s = named::default_csr(space);
            s.splits[2] = 4;
            s
        }),
        // `i1 j1 k0 i0 j0 k1`: runs of stride 4, padded.
        ("k split 4, k0 outside k1", |space| {
            let mut s = named::default_csr(space);
            s.splits[2] = 4;
            s.loop_order.swap(2, 5);
            s
        }),
        ("CSC", |space| csc(space, 1)),
        ("CSC, k split 4", |space| csc(space, 4)),
        // 4×3 blocks over 211×197: both sparse dims pad.
        ("sparse splits 4×3", |space| {
            let mut s = named::default_csr(space);
            s.splits = vec![4, 3, 1];
            s
        }),
    ];
    let val = |r: usize, c: usize| ((r * 7 + c * 3) % 11) as f32 * 0.23 - 1.2;
    let mut dropped = false;
    for nk in [1usize, 6, 33] {
        let b = DenseMatrix::from_fn(nr, nk, |i, k| if i % 7 == 0 { 0.0 } else { val(i, k / 2) });
        let c = DenseMatrix::from_fn(nk, nc, |k, j| match j % 5 {
            0 if k % 2 == 1 => -0.5,
            0 if k + 1 < nk => 0.5,
            0 => 0.0,
            _ => val(k, j),
        });
        let args = KernelArgs::Sddmm { b: &b, c: &c };
        for (nest, schedule) in nests {
            for threads in [1usize, 4] {
                let what = format!("sddmm {nest}, dense {nk}, {threads} threads");
                let space =
                    Space::new(Kernel::SDDMM, vec![nr, nc], nk).with_thread_options(vec![threads]);
                let pk = Executor::planned()
                    .prepare(&a, &schedule(&space), &space)
                    .unwrap();
                // The widest contraction clears the parallel cutoff.
                let parallel = pk.plan().effective_parallel(pk.storage()).is_some();
                assert!(
                    parallel || threads == 1 || nk < 33,
                    "{what}: runs in parallel"
                );
                assert_outputs_match(&pk, args, &what);
                if threads == 1 && nk < 33 {
                    assert_same_events(pk.plan(), pk.storage(), &what);
                }
                dropped |= pk.run(args).unwrap().into_sparse().unwrap().nnz() < a.nnz();
            }
        }
    }
    assert!(dropped, "some dot products are exactly zero");
}

#[test]
fn mttkrp_plan_matches_interpreter() {
    let mut rng = Rng64::seed_from(14);
    let a = gen::random_tensor3([11, 9, 13], 90, &mut rng);
    let space = Space::new(Kernel::MTTKRP, vec![11, 9, 13], 4);
    let b = DenseMatrix::from_fn(9, 4, |r, c| ((r * 5 + c) % 8) as f32 * 0.19);
    let c = DenseMatrix::from_fn(13, 4, |r, c| ((r + 3 * c) % 6) as f32 * 0.23 - 0.4);
    let mut tested = 0;
    for (idx, sched) in ScheduleSampler::new(&space, 104)
        .take_schedules(25)
        .into_iter()
        .enumerate()
    {
        let Ok(pk) = Executor::planned().prepare_tensor3(&a, &sched, &space) else {
            continue;
        };
        assert_planned_matches(
            &pk,
            KernelArgs::Mttkrp { b: &b, c: &c },
            &format!("mttkrp schedule {idx}"),
        );
        tested += 1;
    }
    assert!(tested > 5);
}

// ---------------------------------------------------------------------------
// Tier completeness: one pinned case per `TIER` row. Each case's schedule
// makes lowering select exactly that row's variant; its dims avoid multiples
// of the block/tile sizes so the padding guards and the edge clamp run; and
// its work clears `ExecutionPlan::PARALLEL_WORK_CUTOFF`, so the >1-thread
// pass really distributes chunks. A row added to `TIER` without a case here
// fails `every_tier_row_is_selected_and_bit_identical`.
// ---------------------------------------------------------------------------

/// Operand, dense extent, and how the default-CSR schedule is bent to select
/// the variant.
type TierCase = (CooMatrix, usize, fn(&mut SuperSchedule));

/// The pinned case of one tier row.
fn tier_case(kernel: Kernel, fast: FastPath) -> Option<TierCase> {
    let mut rng = Rng64::seed_from(31);
    let mut uniform = |nr, nc, density| gen::uniform_random(nr, nc, density, &mut rng);
    Some(match (kernel, fast) {
        (Kernel::SpMV, FastPath::CsrRows) => (uniform(1003, 997, 0.3), 0, |_| {}),
        // 16×16 blocks over dims that are not multiples of 16: both block
        // rows and block columns pad.
        (Kernel::SpMV, FastPath::BcsrBlock) => (uniform(519, 509, 0.1), 0, |s| {
            s.splits = vec![16, 16];
        }),
        // k is a reduction dimension: a discordant plan cannot be parallel.
        (Kernel::SpMV, FastPath::DiscordantCsr) => (uniform(203, 197, 0.2), 0, |s| {
            s.parallel = None;
            s.loop_order = vec![
                LoopVar::outer(1),
                LoopVar::outer(0),
                LoopVar::inner(0),
                LoopVar::inner(1),
            ];
        }),
        // Narrower than a register tile: the plain row loop.
        (Kernel::SpMM, FastPath::CsrRows) => (uniform(503, 497, 0.3), 5, |_| {}),
        // Dense extent 9 = one full 8-wide register tile plus a remainder
        // lane.
        (Kernel::SpMM, FastPath::RegBlockSpmm) => (uniform(503, 497, 0.15), 9, |_| {}),
        (Kernel::SpMM, FastPath::BcsrBlock) => (uniform(503, 497, 0.15), 7, |s| {
            s.splits = vec![16, 16, 1];
        }),
        (Kernel::SpGEMM, FastPath::GustavsonSpgemm) => (uniform(403, 397, 0.1), 31, |_| {}),
        (Kernel::SddmmSpmm, FastPath::FusedSddmmSpmm) => (uniform(503, 497, 0.2), 6, |_| {}),
        _ => return None,
    })
}

#[test]
fn every_tier_row_is_selected_and_bit_identical() {
    for &(kernel, fast) in TIER {
        let what = format!("{kernel} × {}", fast.wire_name());
        let (a, dense, bend) =
            tier_case(kernel, fast).unwrap_or_else(|| panic!("{what}: no pinned case"));
        let (nr, nc) = (a.nrows(), a.ncols());
        let val = |r: usize, c: usize| ((r * 5 + 3 * c) % 13) as f32 * 0.19 - 1.1;
        // Every kernel's operands, built whether or not this row reads them
        // (SpMV's dense extent is 0; dense matrices cannot be that narrow).
        let nd = dense.max(1);
        let x = DenseVector::from_fn(nc, |i| val(i, 1));
        let b_k = DenseMatrix::from_fn(nc, nd, val);
        let b_i = DenseMatrix::from_fn(nr, nd, val);
        let c = DenseMatrix::from_fn(nd, nc, val);
        let f = DenseMatrix::from_fn(nc, 5, val);
        let b_sparse = gen::uniform_random(nc, nd, 0.2, &mut Rng64::seed_from(32));
        let b_sparse = CsrMatrix::from_coo(&b_sparse);
        let args = match kernel {
            Kernel::SpMV => KernelArgs::Spmv { x: &x },
            Kernel::SpMM => KernelArgs::Spmm { b: &b_k },
            Kernel::SpGEMM => KernelArgs::Spgemm { b: &b_sparse },
            Kernel::SddmmSpmm => KernelArgs::SddmmSpmm {
                b: &b_i,
                c: &c,
                f: &f,
            },
            other => panic!("{what}: no operands for {other}"),
        };
        for threads in [1usize, 4] {
            let space = Space::new(kernel, vec![nr, nc], dense).with_thread_options(vec![threads]);
            let mut sched = named::default_csr(&space);
            bend(&mut sched);
            let pk = Executor::planned().prepare(&a, &sched, &space).unwrap();
            assert_eq!(pk.plan().fast_path(), fast, "{what}: selected variant");
            let parallel = pk.plan().effective_parallel(pk.storage()).is_some();
            assert_eq!(
                parallel,
                threads > 1 && sched.parallel.is_some(),
                "{what}: the case's work must clear the parallel cutoff"
            );
            // Outputs only: event streams belong to the generic walkers, not
            // to tier rows, and the sampler-stream tests above compare them.
            assert_outputs_match(&pk, args, &format!("{what}, {threads} threads"));
        }
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
    assert_planned_matches(&pk, KernelArgs::Spmm { b: &b }, "dense-split spmm");
}

/// A walk split into chunks of the outer loop — what every parallel claim
/// does — makes the body calls of the whole-range walk, in order, and both
/// match the interpreter's: SDDMM's default CSR (a dense `k1` between the
/// stored levels, then unit levels), MTTKRP, and splits that leave
/// partial-block padding.
#[test]
fn chunked_walks_make_the_whole_walks_body_calls() {
    let mut rng = Rng64::seed_from(37);
    let csr = |space: &Space| named::default_csr(space);
    // Sparse blocks pad the stored levels (those slots hold 0.0 and never
    // reach a body); a dense split of 4 over 6 pads a coordinate that does.
    let split = |space: &Space| {
        let mut s = named::default_csr(space);
        s.splits = vec![4, 3, 4][..s.splits.len()].to_vec();
        s
    };
    let spmv = Space::new(Kernel::SpMV, vec![37, 41], 0);
    let sddmm = Space::new(Kernel::SDDMM, vec![26, 31], 6);
    let mttkrp = Space::new(Kernel::MTTKRP, vec![11, 9, 13], 4);
    let mut cases = Vec::new();
    for (space, sched) in [
        (&spmv, split(&spmv)),
        (&sddmm, csr(&sddmm)),
        (&sddmm, split(&sddmm)),
        (&mttkrp, csr(&mttkrp)),
    ] {
        let plan = ExecutionPlan::build(&sched, space).unwrap();
        let st = match space.kernel {
            Kernel::MTTKRP => {
                let t = gen::random_tensor3([11, 9, 13], 90, &mut rng);
                SparseStorage::from_tensor3(&t, plan.spec()).unwrap()
            }
            _ => {
                let (nr, nc) = (space.sparse_dims[0], space.sparse_dims[1]);
                let m = gen::uniform_random(nr, nc, 0.15, &mut rng);
                SparseStorage::from_matrix(&m, plan.spec()).unwrap()
            }
        };
        cases.push((sched.describe(space), plan, st));
    }
    for (what, plan, st) in &cases {
        assert_same_events(plan, st, what);
        let n = plan.outer_extent();
        let whole = plan_calls(plan, st, &[]);
        assert!(!whole.is_empty(), "{what}: the walk reaches a body");
        for a in [1, n / 2, n - 1] {
            let chunked = plan_calls(plan, st, &[a]);
            assert_eq!(chunked, whole, "{what}: chunks [0, {a}) + [{a}, {n})");
        }
    }
    let padded = |(_, plan, st): &(String, ExecutionPlan, SparseStorage)| {
        plan_calls(plan, st, &[])
            .iter()
            .any(|c| c.coords.iter().any(Option::is_none))
    };
    assert!(padded(&cases[2]), "the split SDDMM reaches padded k");
}
