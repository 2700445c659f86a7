//! Plan equivalence — the one home of the rule *walker ≡ interpreter ≡
//! oracle*. The lowered [`ExecutionPlan`] executor (fast paths included) and
//! the dynamic reference interpreter must agree to the bit — output bits,
//! [`Instrument`] event streams and body calls, and the simulator's
//! bulk-counted [`EventCounts`] with the sums of that stream — and both with
//! the dense `f64` oracle, over three sweeps:
//!
//! * **Every structure class of a tiny space** (the share
//!   [`crate::Budget::class_fraction`] names), on operands holding an
//!   explicit zero, a cancelling duplicate, an empty row and an empty column.
//! * **The corpus** × the shared sampler stream, on larger operands.
//! * **One forced case per [`TIER`] row**, plus SDDMM's parallel run
//!   hand-off, at 1 and 4 threads; not *selecting* the row is a failure.
//!
//! The comparison is exact: a divergence means lowering resolved a loop
//! differently than the interpreter did, or a fast path changed the
//! floating-point evaluation order — bugs, not noise.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::time::Instant;

use waco_exec::{
    oracle, Ctx, ExecError, ExecutionPlan, FastPath, Instrument, LoopNest, NoInstrument,
    PlannedKernel, TIER,
};
use waco_format::LevelFormat::{Compressed, Uncompressed};
use waco_format::{Axis, SparseStorage};
use waco_runtime::ThreadPool;
use waco_schedule::{named, FormatSchedule, Kernel, LoopVar, Parallelize, Space, SuperSchedule};
use waco_sim::collector::EventCounts;
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CooTensor3, Value};

use crate::corpus::Case;
use crate::oracle::unflatten;
use crate::problem::{dense_image, Problem, Sparse};
use crate::sweep::{sweep, Tally, Verdict};
use crate::{mix_seed, SuiteReport, VerifyConfig};

/// Full event stream of one walk, compared event-for-event.
#[derive(Default, PartialEq)]
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

/// One body call as a kernel body or `waco-sim`'s reuse trackers and
/// per-coordinate tallies see it: position, value bits, `ctx.coord(d)` per
/// dimension (`usize::MAX` when padded), then `ctx.axis_coord(v)` per loop
/// variable — at most 2 + 4 + 7 words (MTTKRP); unused words stay 0.
type BodyCall = [usize; 13];

fn body_call(plan: &ExecutionPlan, ctx: &Ctx<'_>, pos: usize, v: Value) -> BodyCall {
    let dims = (0..plan.kernel().ndims()).map(|d| ctx.coord(d).unwrap_or(usize::MAX));
    let axes = plan.order().iter().map(|&var| ctx.axis_coord(var));
    let mut call = [0; 13];
    let head = [pos, v.to_bits() as usize];
    let words = head.into_iter().chain(dims).chain(axes);
    call.iter_mut().zip(words).for_each(|(w, x)| *w = x);
    call
}

/// Where two logs first differ, or `None` when they are equal.
fn first_divergence<T: PartialEq + Debug>(what: &str, plan: &[T], interp: &[T]) -> Option<String> {
    let idx = (0..plan.len().max(interp.len())).find(|&i| plan.get(i) != interp.get(i))?;
    let (p, i) = (plan.get(idx), interp.get(idx));
    Some(format!("{what} diverge at {idx}: plan {p:?} vs {i:?}"))
}

/// Serial full-range walks through both engines, then the plan walk cut in
/// two at 1, n/2 and n − 1 — what every parallel claim does: the first
/// diverging event, the first diverging body call, or the first cut whose
/// halves do not make the whole walk's body calls.
fn walks_mismatch(plan: &ExecutionPlan, st: &SparseStorage) -> Option<String> {
    let n = plan.outer_extent();
    let (mut ev_plan, mut ev_interp) = (EventLog::default(), EventLog::default());
    let (mut calls_plan, mut calls_interp) = (Vec::new(), Vec::new());
    plan.walk(st, 0..n, &mut ev_plan, &mut |ctx, pos, v| {
        calls_plan.push(body_call(plan, ctx, pos, v));
    });
    LoopNest::from_plan(plan, st).walk(0..n, &mut ev_interp, &mut |ctx, pos, v| {
        calls_interp.push(body_call(plan, ctx, pos, v));
    });
    let cut = |at: usize| {
        let mut calls = Vec::with_capacity(calls_plan.len());
        for range in [0..at, at..n] {
            plan.walk(st, range, &mut NoInstrument, &mut |ctx, pos, v| {
                calls.push(body_call(plan, ctx, pos, v));
            });
        }
        first_divergence(&format!("walks cut at {at}"), &calls, &calls_plan)
    };
    let cuts = BTreeSet::from([1, n / 2, n - 1]);
    first_divergence("event streams", &ev_plan.0, &ev_interp.0)
        .or_else(|| first_divergence("body calls", &calls_plan, &calls_interp))
        .or_else(|| cuts.into_iter().find_map(cut))
        .or_else(|| counts_mismatch(plan, st, &ev_plan.0))
}

/// The simulator's [`EventCounts`], which take a run's unit-extent events in
/// one bulk call, against the sums of the per-event stream of the same walk.
fn counts_mismatch(plan: &ExecutionPlan, st: &SparseStorage, events: &[Event]) -> Option<String> {
    let mut bulk = EventCounts::default();
    plan.walk(st, 0..plan.outer_extent(), &mut bulk, &mut |_, _, _| {});
    let mut summed = EventCounts::default();
    for &event in events {
        match event {
            Event::Concordant(level, children) => summed.concordant(level, children),
            Event::Dense(var, extent) => summed.dense_loop(var, extent),
            Event::Locate(level, probes, hit) => summed.locate(level, probes, hit),
            Event::Body => summed.body(),
        }
    }
    (bulk != summed).then(|| format!("bulk counts {bulk:?} vs the event stream's sums {summed:?}"))
}

/// The one comparator: the selected fast path is `None` or a [`TIER`] row
/// (another would count a fast path and run the generic body), and
/// [`PlannedKernel::run`] ≡ the interpreter to the bit; given the oracle's
/// `expected` answer, also the output within ε of it and [`walks_mismatch`]
/// (a forced case's tier row has no walk of its own).
fn compare(pk: &PlannedKernel, problem: &Problem, expected: Option<&[f64]>) -> Verdict {
    let (kernel, fast) = (problem.space.kernel, pk.plan().fast_path());
    if fast != FastPath::None && !TIER.contains(&(kernel, fast)) {
        let detail = format!("lowering selected `{}`, no TIER row", fast.wire_name());
        return Verdict::from_detail(Some(detail));
    }
    let plan = pk.run(problem.args()).expect("plan runs");
    let interp = oracle::run(pk, problem.args()).expect("interpreter runs");
    if let Some(m) = plan.bit_mismatch(&interp) {
        return Verdict::from_detail(Some(format!("plan vs interpreter: {m}")));
    }
    let Some(expected) = expected else {
        return Verdict::Pass;
    };
    let divergence = problem.divergence(expected, &dense_image(plan));
    if divergence.is_some() {
        return Verdict::from_divergence(divergence, "plan vs dense oracle");
    }
    Verdict::from_detail(walks_mismatch(pk.plan(), pk.storage()))
}

fn lowering_failed(e: ExecError) -> Verdict {
    Verdict::from_detail(Some(format!("lowering failed: {e}")))
}

/// The pinned problem and schedule of one forced row at one thread count
/// (`None`: the row has no case — a reported failure). Dims are not
/// multiples of the 16-wide blocks or the register tiles, so the padding
/// guards and the edge clamp run, and nnz × dense extent clears
/// [`ExecutionPlan::PARALLEL_WORK_CUTOFF`], so the >1-thread case really
/// distributes chunks. Both thread counts of a row share one matrix.
fn forced_case(
    kernel: Kernel,
    expected: FastPath,
    threads: usize,
    seed: u64,
) -> Option<(Problem, SuperSchedule)> {
    let name = format!("forced/{}/{}", kernel.wire_name(), expected.wire_name());
    let (nr, nc, density, dense) = match (kernel, expected) {
        (Kernel::SpMV, FastPath::CsrRows) => (1003, 997, 0.3, 0),
        (Kernel::SpMV, FastPath::BcsrBlock) => (519, 509, 0.1, 0),
        (Kernel::SpMV, FastPath::DiscordantCsr) => (203, 197, 0.2, 0),
        // Dense extent 41 = one 32-wide tile, one 8-wide tile and a
        // remainder lane: every width the register tile takes, over both
        // row sources.
        (Kernel::SpMM, FastPath::RegBlockSpmm | FastPath::BcsrBlock) => (503, 497, 0.15, 41),
        (Kernel::SpGEMM, FastPath::GustavsonSpgemm) => (403, 397, 0.1, 31),
        (Kernel::SddmmSpmm, FastPath::FusedSddmmSpmm) => (503, 497, 0.2, 6),
        // The generic body's `k` runs, handed over whole: 8 of 4 and a
        // padded one per output slot.
        (Kernel::SDDMM, FastPath::None) => (211, 197, 0.25, 33),
        _ => return None,
    };
    let space = Space::new(kernel, vec![nr, nc], dense).with_thread_options(vec![threads]);
    let mut sched = named::default_csr(&space);
    match expected {
        FastPath::BcsrBlock => sched.splits[..2].fill(16),
        // `k1 i1 i0 k0`; k is a reduction dimension, so a discordant plan
        // cannot be parallel.
        FastPath::DiscordantCsr => {
            sched.parallel = None;
            sched.loop_order.swap(0, 1);
        }
        // CSC, `k` split 4: `j1 i1 j0 i0 k1 k0`.
        FastPath::None => {
            let (o, i) = (Axis::outer, Axis::inner);
            let (u, c) = (Uncompressed, Compressed);
            let (order, formats) = (vec![o(1), o(0), i(1), i(0)], vec![u, c, u, u]);
            let format = FormatSchedule { order, formats };
            sched = named::concordant(&space, vec![1, 1, 4], format, threads, 4);
        }
        _ => {}
    }
    let matrix_seed = mix_seed(seed, &name);
    let matrix = gen::uniform_random(nr, nc, density, &mut Rng64::seed_from(matrix_seed));
    let case = Case {
        name: format!("{name}/{threads}t"),
        seed: matrix_seed,
        sparse: Sparse::Matrix(matrix),
    };
    let operand_seed = mix_seed(seed, &format!("{}/operands", case.name));
    Some((Problem::seeded(case, space, operand_seed), sched))
}

/// The rows forced cases pin — every [`TIER`] row, and SDDMM's generic one —
/// and the thread counts each is pinned at.
const FORCED_GENERIC: (Kernel, FastPath) = (Kernel::SDDMM, FastPath::None);
const FORCED_THREADS: [usize; 2] = [1, 4];

/// One forced case: the row must be *selected* by lowering (a fallback to
/// the generic walker is a failure, not a skip), must really run parallel
/// when asked to, and must match the interpreter bit-for-bit.
fn check_forced(
    problem: &Problem,
    sched: &SuperSchedule,
    expected: FastPath,
    threads: usize,
) -> Verdict {
    let pk = match problem.prepare(sched) {
        Ok(pk) => pk,
        Err(e) => return lowering_failed(e),
    };
    let plan = pk.plan();
    let parallel = plan.effective_parallel(pk.storage()).is_some();
    let detail = if plan.fast_path() != expected {
        let (want, chose) = (expected.wire_name(), plan.fast_path().wire_name());
        let why = plan.fast_path_reason();
        format!("expected fast path `{want}`, lowering chose `{chose}` ({why})")
    } else if parallel != (threads > 1 && sched.parallel.is_some()) {
        format!("case sized wrong: runs parallel = {parallel} at {threads} threads")
    } else {
        return compare(&pk, problem, None);
    };
    Verdict::from_detail(Some(detail))
}

/// A tiny operand of extents `dims` with every storage corner: index 1 of
/// mode 0 (a row) and index 2 of mode 1 (a column) empty, an explicit zero
/// at `[0, 1, 0]`, a duplicate pair cancelling to a stored zero at
/// `[last, 0, 0]`, and values at two thirds of the other coordinates.
fn tiny_operand(dims: &[usize]) -> Sparse {
    let last = dims[0] - 1;
    let mut entries = vec![
        ([0, 1, 0], 0.0),
        ([last, 0, 0], 0.75),
        ([last, 0, 0], -0.75),
    ];
    for flat in 0..dims.iter().product() {
        let mut at = [0; 3];
        at[..dims.len()].copy_from_slice(&unflatten(dims, flat));
        let corner = at[..2] == [0, 1] || at[..2] == [last, 0];
        if at[0] != 1 && at[1] != 2 && at.iter().sum::<usize>() % 3 != 2 && !corner {
            let sign = if flat % 3 == 0 { -1.0 } else { 1.0 };
            entries.push((at, sign * (0.3 + 0.17 * flat as f32)));
        }
    }
    let empty = match *dims {
        [nr, nc] => Sparse::Matrix(CooMatrix::from_triplets(nr, nc, []).expect("positive dims")),
        [a, b, c] => Sparse::Tensor3(CooTensor3::from_quads([a, b, c], []).expect("positive")),
        _ => unreachable!("an operand has two or three modes"),
    };
    empty.with_entries(entries)
}

/// Ordering `c % n!` of `items` (`n` of them), and `c / n!`.
fn nth_order<T: Copy>(items: &[T], mut c: usize) -> (Vec<T>, usize) {
    let mut rest = items.to_vec();
    let pick = |n| {
        let item = rest.remove(c % n);
        c /= n;
        item
    };
    ((1..=items.len()).rev().map(pick).collect(), c)
}

/// One kernel's tiny space — its split menu — and the problems every class
/// is checked on, each beside its dense oracle answer.
struct Tiny {
    problems: Vec<(Problem, Vec<f64>)>,
    menu: &'static [usize],
}

impl Tiny {
    /// SpMV on 4×4 and 5×6 (5×6 pads under splits 2 and 4), MTTKRP on
    /// 3×3×2 at rank 2, the others on 3×4 at dense extent 5 (a `k` split of
    /// 2 makes runs of 2, 2 and a padded 1); splits {1, 2, 4} for SpMV,
    /// {1, 2} for the rest.
    fn of(kernel: Kernel, seed: u64) -> Tiny {
        let (shapes, dense, menu): (&[&[usize]], _, _) = match kernel {
            Kernel::SpMV => (&[&[4, 4], &[5, 6]], 0, &[1, 2, 4][..]),
            Kernel::MTTKRP => (&[&[3, 3, 2]], 2, &[1, 2]),
            _ => (&[&[3, 4]], 5, &[1, 2]),
        };
        let problem = |dims: &&[usize]| {
            let name = format!("tiny/{}/{dims:?}", kernel.wire_name());
            let (seed, sparse) = (mix_seed(seed, &name), tiny_operand(dims));
            let space = Space::new(kernel, dims.to_vec(), dense);
            Problem::seeded(Case { name, seed, sparse }, space, seed).with_oracle()
        };
        let problems = shapes.iter().map(problem).collect();
        Tiny { problems, menu }
    }

    /// Splits from the menu × loop orders × level orders × level formats.
    fn classes(&self) -> usize {
        let (space, fact) = (&self.problems[0].0.space, |n| (1..=n).product::<usize>());
        let splittable = (0..space.kernel.ndims()).filter(|&d| space.kernel.is_splittable(d));
        let splits = self.menu.len().pow(splittable.count() as u32);
        let axes = space.a_axes().len();
        (splits * fact(space.loop_vars().len()) * fact(axes)) << axes
    }

    /// Class `c`'s serial member. Digits of `c`, least significant first: a
    /// U/C bit per level, the level order, the loop order, the splits.
    fn schedule(&self, c: usize) -> SuperSchedule {
        let (space, uc) = (&self.problems[0].0.space, [Uncompressed, Compressed]);
        let axes = space.a_axes();
        let formats = (0..axes.len()).map(|l| uc[(c >> l) & 1]).collect();
        let (order, c) = nth_order(&axes, c >> axes.len());
        let (loop_order, mut c) = nth_order(&space.loop_vars(), c);
        let split = |d| {
            if !space.kernel.is_splittable(d) {
                return 1;
            }
            let s = self.menu[c % self.menu.len()];
            c /= self.menu.len();
            s
        };
        SuperSchedule {
            kernel: space.kernel,
            splits: (0..space.kernel.ndims()).map(split).collect(),
            loop_order,
            parallel: None,
            format: FormatSchedule { order, formats },
        }
    }
}

/// Where the Stage-1 bound of a serial schedule's parallel members leaves
/// its own (`pk`'s) — `schedule::dominance` bounds each structure class
/// once on that claim. They are the orders that hoist to `sched`'s with its
/// outermost variable parallelized, all lowering to one plan; a schedule
/// whose outermost variable is a reduction has none.
fn bound_mismatch(problem: &Problem, sched: &SuperSchedule, pk: &PlannedKernel) -> Option<String> {
    let var = sched.loop_order[0];
    if problem.space.kernel.is_reduction(var.dim) {
        return None;
    }
    let mut member = sched.clone();
    member.parallel = Some(Parallelize {
        var,
        threads: 24,
        chunk: 4,
    });
    let member = ExecutionPlan::build(&member, &problem.space).expect("a class member lowers");
    let profile = problem.case.sparse.profile();
    let [p, s] = [&member, pk.plan()].map(|plan| plan.asymptotic_bound(&profile).work);
    (p.to_bits() != s.to_bits()).then(|| format!("Stage-1 bound {p} parallel, {s} serial"))
}

/// Every check of one sampled or enumerated schedule: [`compare`] against
/// the oracle, then, for a serial schedule, [`bound_mismatch`].
fn check(problem: &Problem, expected: &[f64], sched: &SuperSchedule) -> Verdict {
    match problem.prepare(sched) {
        Ok(pk) => match compare(&pk, problem, Some(expected)) {
            Verdict::Pass if sched.parallel.is_none() => {
                Verdict::from_detail(bound_mismatch(problem, sched, &pk))
            }
            verdict => verdict,
        },
        // Over budget: legitimately excluded from the space.
        Err(ExecError::Format(_)) => Verdict::Skip,
        Err(e) => lowering_failed(e),
    }
}

/// A prime above every tiny space's class count: class indices
/// `offset + t · CLASS_STRIDE` modulo the count are distinct, so the first
/// `1/n` of that walk is a seeded sample spread over every choice.
const CLASS_STRIDE: usize = 2_147_483_647;

/// Checks the budget's share of each selected kernel's tiny space on each
/// of its problems; returns the classes enumerated per kernel.
fn enumerate(cfg: &VerifyConfig, tally: &mut Tally) -> Vec<(Kernel, usize)> {
    let pool = ThreadPool::global();
    let mut counts = Vec::new();
    for &kernel in &cfg.kernels {
        let Some(fraction) = cfg.budget.class_fraction(kernel) else {
            continue;
        };
        let tiny = Tiny::of(kernel, cfg.seed);
        let salt = format!("classes/{}", kernel.wire_name());
        let (n, offset) = (tiny.classes(), mix_seed(cfg.seed, &salt) as usize);
        let stride = |t| (offset % n + t * CLASS_STRIDE) % n;
        let picked: Vec<usize> = (0..n / fraction).map(stride).collect();
        for (problem, expected) in &tiny.problems {
            let verdicts = pool.map(&picked, pool.max_participants(), |&c| {
                check(problem, expected, &tiny.schedule(c))
            });
            // Booking is serial: decode a schedule only for a record.
            for (&c, verdict) in picked.iter().zip(verdicts) {
                match verdict {
                    Verdict::Pass => tally.executed(),
                    v => tally.book(&problem.case, &problem.space, Some(c), &tiny.schedule(c), v),
                }
            }
        }
        counts.push((kernel, picked.len()));
    }
    counts
}

/// The plan-equivalence suite. Takes no injectable executor: both engines
/// under comparison live in `waco-exec`, and the property is exact equality
/// between them rather than oracle agreement.
pub fn plan_equivalence_suite(cfg: &VerifyConfig) -> SuiteReport {
    let mut tally = Tally::new("plan_equivalence");
    let start = Instant::now();
    let classes = enumerate(cfg, &mut tally);
    let class_seconds = start.elapsed().as_secs_f64();
    for &kernel in &cfg.kernels {
        sweep(
            cfg,
            &mut tally,
            kernel,
            cfg.budget.schedules_per_case(),
            |case| format!("plan/{}/{case}", kernel.wire_name()),
            |case, salt| Problem::standard(case, kernel, cfg.seed, salt).with_oracle(),
            |problem, expected, sched| check(problem, expected, sched),
        );
    }

    // Forced cases, one per row and thread count; a tier row nobody pinned a
    // case for is a failure too.
    let rows = TIER.iter().chain([&FORCED_GENERIC]);
    for &(kernel, expected) in rows.filter(|(k, _)| cfg.kernels.contains(k)) {
        for threads in FORCED_THREADS {
            match forced_case(kernel, expected, threads, cfg.seed) {
                Some((problem, sched)) => {
                    let verdict = check_forced(&problem, &sched, expected, threads);
                    tally.book(&problem.case, &problem.space, None, &sched, verdict);
                }
                None => {
                    tally.executed();
                    let name = format!("forced/{}", expected.wire_name());
                    let detail = "tier row has no pinned case".to_string();
                    tally.failure(Some(kernel), &name, None, None, None, detail);
                }
            }
        }
    }
    SuiteReport {
        classes,
        class_seconds,
        ..tally.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use std::collections::HashSet;
    use waco_schedule::StructureKey;

    #[test]
    fn smoke_corpus_is_bit_identical() {
        let cfg = VerifyConfig {
            kernels: vec![
                Kernel::SpMV,
                Kernel::MTTKRP,
                Kernel::SpGEMM,
                Kernel::SddmmSpmm,
            ],
            faults: false,
            ..VerifyConfig::new(7, Budget::Smoke)
        };
        let report = plan_equivalence_suite(&cfg);
        assert!(
            report.failures.is_empty(),
            "plan must match interpreter: {:?}",
            report.failures.first().map(|f| f.to_string())
        );
        assert!(report.executed > 20, "suite actually ran checks");
    }

    #[test]
    fn every_class_index_is_a_distinct_valid_structure_class() {
        let tiny = Tiny::of(Kernel::SpMV, 7);
        assert_eq!(tiny.classes(), 9 * 24 * 384);
        let space = &tiny.problems[0].0.space;
        let mut keys = HashSet::new();
        for c in 0..tiny.classes() {
            let sched = tiny.schedule(c);
            sched.validate(space).unwrap();
            assert!(keys.insert(StructureKey::of(&sched)), "class {c} repeats");
        }
        assert_eq!(Tiny::of(Kernel::SDDMM, 7).classes(), 8 * 720 * 384);
        assert_eq!(Tiny::of(Kernel::MTTKRP, 7).classes() % (1 << 16), 0);
    }

    #[test]
    fn tiny_operands_store_every_corner() {
        for dims in [&[4, 4][..], &[5, 6], &[3, 4], &[3, 3, 2]] {
            let entries = tiny_operand(dims).entries();
            let zeros = entries.iter().filter(|(_, v)| *v == 0.0).count();
            assert_eq!(zeros, 2, "{dims:?}: an explicit and a cancelled zero");
            let corners = entries.iter().all(|(at, _)| at[0] != 1 && at[1] != 2);
            assert!(corners, "{dims:?}: an empty row and column");
            assert!(entries.len() >= 5, "{dims:?}: {entries:?}");
        }
    }

    #[test]
    fn every_tier_row_has_a_forced_case_at_each_thread_count() {
        for &(kernel, fast) in TIER.iter().chain([&FORCED_GENERIC]) {
            for threads in FORCED_THREADS {
                let case = forced_case(kernel, fast, threads, 7);
                let (problem, sched) =
                    case.unwrap_or_else(|| panic!("{kernel} × {}", fast.wire_name()));
                let plan = ExecutionPlan::build(&sched, &problem.space).unwrap();
                assert_eq!(plan.fast_path(), fast, "{}", problem.case.name);
                assert_eq!(plan.kernel(), kernel, "{}", problem.case.name);
            }
        }
        // A pairing outside the tier has no case — that is how a row added
        // to `TIER` without one surfaces as a suite failure.
        assert!(forced_case(Kernel::SDDMM, FastPath::CsrRows, 1, 7).is_none());
    }
}
