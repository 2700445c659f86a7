//! Plan-equivalence suite: the lowered [`ExecutionPlan`] executor and the
//! dynamic reference interpreter are two independent implementations of the
//! same iteration-space semantics, and this suite holds them to
//! **bit identity** — identical output bits *and* identical [`Instrument`]
//! event streams — over the whole structure corpus and the shared
//! [`ScheduleSampler`] stream, plus one pinned case per row of the
//! specialization tier ([`TIER`]) at 1 and >1 threads (failing to *select*
//! the intended variant is itself a reported failure).
//!
//! This is the verify-crate half of the property (the exec crate runs a
//! fast local slice in `tests/plan_equivalence.rs`): any divergence means
//! either the static lowering resolved a loop differently than the
//! interpreter's dynamic decisions, or a monomorphized fast path changed
//! floating-point evaluation order — both are reportable bugs, not noise,
//! which is why the comparison is exact rather than tolerance-based.

use waco_exec::{
    oracle, Ctx, ExecError, ExecutionPlan, FastPath, Instrument, LoopNest, PlannedKernel, TIER,
};
use waco_format::SparseStorage;
use waco_schedule::{named, Kernel, LoopVar, Space, SuperSchedule};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::Value;

use crate::corpus::Case;
use crate::problem::{Problem, Sparse};
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

/// One body call: position, value bits, `ctx.coord(d)` per dimension and
/// `ctx.axis_coord(v)` per loop variable — what `waco-sim`'s reuse
/// trackers and per-coordinate tallies read.
type BodyCall = (usize, u32, Vec<Option<usize>>, Vec<usize>);

fn body_call(plan: &ExecutionPlan, ctx: &Ctx<'_>, pos: usize, v: Value) -> BodyCall {
    let coords = (0..plan.kernel().ndims()).map(|d| ctx.coord(d)).collect();
    let axis = plan
        .order()
        .iter()
        .map(|&var| ctx.axis_coord(var))
        .collect();
    (pos, v.to_bits(), coords, axis)
}

/// Where two logs first differ, or `None` when they are equal.
fn first_divergence<T: PartialEq + std::fmt::Debug>(
    what: &str,
    plan: &[T],
    interp: &[T],
) -> Option<String> {
    if plan == interp {
        return None;
    }
    let idx = plan
        .iter()
        .zip(interp)
        .position(|(p, i)| p != i)
        .unwrap_or_else(|| plan.len().min(interp.len()));
    Some(format!(
        "{what} diverge at {idx} (plan {}, interpreter {}): plan {:?} vs interpreter {:?}",
        plan.len(),
        interp.len(),
        plan.get(idx),
        interp.get(idx),
    ))
}

/// Serial full-range walks through both engines; reports the first
/// diverging event, then the first diverging body call.
fn events_mismatch(plan: &ExecutionPlan, st: &SparseStorage) -> Option<String> {
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
    first_divergence("event streams", &ev_plan.0, &ev_interp.0)
        .or_else(|| first_divergence("body calls", &calls_plan, &calls_interp))
}

/// Runs one prepared kernel through [`PlannedKernel::run`] and through the
/// interpreter and compares output bits; with `events`, then also the
/// generic walkers' event streams.
fn compare(pk: &PlannedKernel, problem: &Problem, events: bool) -> Verdict {
    let plan = pk.run(problem.args()).expect("plan runs");
    let interp = oracle::run(pk, problem.args()).expect("interpreter runs");
    let outputs = plan.bit_mismatch(&interp);
    let outputs = outputs.map(|m| format!("plan vs interpreter: {m}"));
    Verdict::from_detail(outputs.or_else(|| {
        let walks = events.then(|| events_mismatch(pk.plan(), pk.storage()));
        walks.flatten()
    }))
}

fn lowering_failed(e: ExecError) -> Verdict {
    Verdict::from_detail(Some(format!("lowering failed: {e}")))
}

/// The pinned problem and schedule of one [`TIER`] row at one thread count
/// (`None`: the row has no case — a reported failure). Dims are not
/// multiples of the 16-wide blocks or the 8-wide register tile, so the
/// padding guards and the edge clamp run, and nnz × dense extent clears
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
        // Narrower than a register tile: the plain row loop.
        (Kernel::SpMM, FastPath::CsrRows) => (503, 497, 0.3, 5),
        // Dense extent 9 = one full tile plus a remainder lane.
        (Kernel::SpMM, FastPath::RegBlockSpmm) => (503, 497, 0.15, 9),
        (Kernel::SpMM, FastPath::BcsrBlock) => (503, 497, 0.15, 7),
        (Kernel::SpGEMM, FastPath::GustavsonSpgemm) => (403, 397, 0.1, 31),
        (Kernel::SddmmSpmm, FastPath::FusedSddmmSpmm) => (503, 497, 0.2, 6),
        _ => return None,
    };
    let space = Space::new(kernel, vec![nr, nc], dense).with_thread_options(vec![threads]);
    let mut sched = named::default_csr(&space);
    match expected {
        FastPath::BcsrBlock => sched.splits[..2].fill(16),
        // k is a reduction dimension: a discordant plan cannot be parallel.
        FastPath::DiscordantCsr => {
            sched.parallel = None;
            sched.loop_order = vec![
                LoopVar::outer(1),
                LoopVar::outer(0),
                LoopVar::inner(0),
                LoopVar::inner(1),
            ];
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

/// Thread counts every tier row is pinned at.
const FORCED_THREADS: [usize; 2] = [1, 4];

/// One forced case: the row must be *selected* by lowering (a fallback to
/// the generic walker is a failure, not a skip), must really run parallel
/// when asked to, and must match the interpreter bit-for-bit. Event streams
/// are a property of the generic walkers, not of tier rows; the corpus
/// sweep compares them.
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
    if plan.fast_path() != expected {
        return Verdict::from_detail(Some(format!(
            "expected fast path `{}`, lowering chose `{}` ({})",
            expected.wire_name(),
            plan.fast_path().wire_name(),
            plan.fast_path_reason(),
        )));
    }
    if parallel != (threads > 1 && sched.parallel.is_some()) {
        return Verdict::from_detail(Some(format!(
            "case sized wrong: runs parallel = {parallel} at {threads} threads"
        )));
    }
    compare(&pk, problem, false)
}

/// The plan-equivalence suite over the whole corpus. Takes no injectable
/// executor: both engines under comparison live in `waco-exec`, and the
/// property is exact equality between them rather than oracle agreement.
pub fn plan_equivalence_suite(cfg: &VerifyConfig) -> SuiteReport {
    let mut tally = Tally::new("plan_equivalence");
    for &kernel in &cfg.kernels {
        sweep(
            cfg,
            &mut tally,
            kernel,
            cfg.budget.schedules_per_case(),
            |case| format!("plan/{}/{case}", kernel.wire_name()),
            |case, salt| (Problem::standard(case, kernel, cfg.seed, salt), ()),
            |problem, (), sched| match problem.prepare(sched) {
                Ok(pk) => compare(&pk, problem, true),
                // Over budget: legitimately excluded from the space.
                Err(ExecError::Format(_)) => Verdict::Skip,
                Err(e) => lowering_failed(e),
            },
        );
    }

    // Forced cases, one per tier row and thread count; a row nobody pinned a
    // case for is a failure too. Like the `workspace` suites, the workspace
    // kernels' rows run whether or not `cfg.kernels` (default: the four
    // paper kernels) names them.
    let selected = |k: &Kernel| cfg.kernels.contains(k) || k.uses_workspace();
    for &(kernel, expected) in TIER.iter().filter(|(k, _)| selected(k)) {
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
    tally.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    #[test]
    fn smoke_corpus_is_bit_identical() {
        let cfg = VerifyConfig {
            kernels: vec![Kernel::SpMV, Kernel::MTTKRP],
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
    fn every_tier_row_has_a_forced_case_at_each_thread_count() {
        for &(kernel, fast) in TIER {
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
