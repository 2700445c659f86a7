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
    oracle, ExecError, ExecutionPlan, Executor as KernelExecutor, FastPath, Instrument, KernelArgs,
    KernelOutput, LoopNest, PlannedKernel, TIER,
};
use waco_format::SparseStorage;
use waco_runtime::ThreadPool;
use waco_schedule::{named, Kernel, LoopVar, ScheduleSampler, Space, SuperSchedule};
use waco_serve::cache::schedule_to_json;
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CooTensor3, CsrMatrix, Value};

use crate::diff::{dense_extent_for, dense_mat, dense_vec, sparse_operand, FUSED_OUT_COLS};
use crate::{corpus, kernel_wire_name, mix_seed, Failure, SuiteReport, VerifyConfig};

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

/// First flat index where the two outputs' bits differ, as a detail string.
fn bits_mismatch(plan: &[Value], interp: &[Value]) -> Option<String> {
    if plan.len() != interp.len() {
        return Some(format!(
            "output lengths differ: plan {} vs interpreter {}",
            plan.len(),
            interp.len()
        ));
    }
    plan.iter()
        .zip(interp)
        .position(|(p, i)| p.to_bits() != i.to_bits())
        .map(|idx| {
            format!(
                "outputs differ at flat index {idx}: plan {} vs interpreter {}",
                plan[idx], interp[idx]
            )
        })
}

/// Serial full-range walks through both engines; reports the first
/// diverging event.
fn events_mismatch(plan: &ExecutionPlan, st: &SparseStorage) -> Option<String> {
    let mut ev_plan = EventLog::default();
    let mut ev_interp = EventLog::default();
    plan.walk(st, 0..plan.outer_extent(), &mut ev_plan, &mut |_, _, _| {});
    LoopNest::from_plan(plan, st).walk(0..plan.outer_extent(), &mut ev_interp, &mut |_, _, _| {});
    if ev_plan == ev_interp {
        return None;
    }
    let idx = ev_plan
        .0
        .iter()
        .zip(&ev_interp.0)
        .position(|(p, i)| p != i)
        .unwrap_or_else(|| ev_plan.0.len().min(ev_interp.0.len()));
    Some(format!(
        "event streams diverge at event {idx} (plan {} events, interpreter {}): plan {:?} vs interpreter {:?}",
        ev_plan.0.len(),
        ev_interp.0.len(),
        ev_plan.0.get(idx),
        ev_interp.0.get(idx),
    ))
}

/// Runs one prepared kernel through [`PlannedKernel::run`] and through the
/// oracle and compares the two outputs bit for bit.
fn outputs_mismatch(pk: &PlannedKernel, args: KernelArgs<'_>) -> Option<String> {
    let p = pk.run(args).expect("plan runs");
    let i = oracle::run(pk, args).expect("interpreter runs");
    match (&p, &i) {
        (KernelOutput::Vector(p), KernelOutput::Vector(i)) => {
            bits_mismatch(p.as_slice(), i.as_slice())
        }
        (KernelOutput::Matrix(p), KernelOutput::Matrix(i)) => {
            bits_mismatch(p.as_slice(), i.as_slice())
        }
        (KernelOutput::Sparse(p), KernelOutput::Sparse(i)) => sddmm_mismatch(p, i),
        (KernelOutput::Csr(p), KernelOutput::Csr(i)) => csr_mismatch(p, i),
        _ => Some("plan and interpreter returned different output variants".to_string()),
    }
}

/// Runs one prepared 2-D kernel on both engines over seed-derived operands
/// and compares output bits; with `events`, then also the generic walkers'
/// event streams.
fn compare_matrix(
    pk: &PlannedKernel,
    m: &CooMatrix,
    space: &Space,
    operand_seed: u64,
    events: bool,
) -> Option<String> {
    let (nr, nc, de) = (m.nrows(), m.ncols(), space.dense_extent);
    let (x, b, c, f, b_sparse);
    let args = match pk.kernel() {
        Kernel::SpMV => {
            x = dense_vec(nc, operand_seed);
            KernelArgs::Spmv { x: &x }
        }
        Kernel::SpMM => {
            b = dense_mat(nc, de, operand_seed);
            KernelArgs::Spmm { b: &b }
        }
        Kernel::SpGEMM => {
            b_sparse = CsrMatrix::from_coo(&sparse_operand(nc, de, operand_seed));
            KernelArgs::Spgemm { b: &b_sparse }
        }
        Kernel::SDDMM => {
            b = dense_mat(nr, de, operand_seed);
            c = dense_mat(de, nc, mix_seed(operand_seed, "c"));
            KernelArgs::Sddmm { b: &b, c: &c }
        }
        Kernel::SddmmSpmm => {
            b = dense_mat(nr, de, operand_seed);
            c = dense_mat(de, nc, mix_seed(operand_seed, "c"));
            f = dense_mat(nc, FUSED_OUT_COLS, mix_seed(operand_seed, "f"));
            KernelArgs::SddmmSpmm {
                b: &b,
                c: &c,
                f: &f,
            }
        }
        Kernel::MTTKRP => unreachable!("matrix path never sees MTTKRP"),
    };
    outputs_mismatch(pk, args).or_else(|| {
        if events {
            events_mismatch(pk.plan(), pk.storage())
        } else {
            None
        }
    })
}

/// Checks one (2-D kernel, matrix, schedule) point. `Err(())` = over-budget
/// configuration, legitimately excluded from the space.
#[allow(clippy::result_unit_err)]
fn check_matrix(
    m: &CooMatrix,
    sched: &SuperSchedule,
    space: &Space,
    operand_seed: u64,
) -> Result<Option<String>, ()> {
    let pk = match KernelExecutor::planned().prepare(m, sched, space) {
        Ok(pk) => pk,
        Err(ExecError::Format(_)) => return Err(()),
        Err(e) => return Ok(Some(format!("lowering failed: {e}"))),
    };
    Ok(compare_matrix(&pk, m, space, operand_seed, true))
}

/// SDDMM outputs are sparse: compare patterns and value bits.
fn sddmm_mismatch(p: &CooMatrix, i: &CooMatrix) -> Option<String> {
    let pt: Vec<_> = p.iter().collect();
    let it: Vec<_> = i.iter().collect();
    if pt.len() != it.len() {
        return Some(format!(
            "output nnz differ: plan {} vs interpreter {}",
            pt.len(),
            it.len()
        ));
    }
    for ((pr, pc, pv), (ir, ic, iv)) in pt.iter().zip(&it) {
        if (pr, pc) != (ir, ic) {
            return Some(format!(
                "output patterns differ: plan ({pr},{pc}) vs interpreter ({ir},{ic})"
            ));
        }
        if pv.to_bits() != iv.to_bits() {
            return Some(format!(
                "output value at ({pr},{pc}) differs: plan {pv} vs interpreter {iv}"
            ));
        }
    }
    None
}

/// SpGEMM outputs are CSR: compare the compacted structure exactly, then
/// value bits slot by slot.
fn csr_mismatch(p: &CsrMatrix, i: &CsrMatrix) -> Option<String> {
    if p.row_ptr() != i.row_ptr() || p.col_idx() != i.col_idx() {
        return Some(format!(
            "output CSR structure differs: plan {} nnz vs interpreter {} nnz",
            p.col_idx().len(),
            i.col_idx().len()
        ));
    }
    p.vals()
        .iter()
        .zip(i.vals())
        .position(|(pv, iv)| pv.to_bits() != iv.to_bits())
        .map(|idx| {
            format!(
                "output value at nnz slot {idx} differs: plan {} vs interpreter {}",
                p.vals()[idx],
                i.vals()[idx]
            )
        })
}

/// Checks one (MTTKRP, tensor, schedule) point.
#[allow(clippy::result_unit_err)]
fn check_tensor(
    t: &CooTensor3,
    sched: &SuperSchedule,
    space: &Space,
    operand_seed: u64,
) -> Result<Option<String>, ()> {
    let pk = match KernelExecutor::planned().prepare_tensor3(t, sched, space) {
        Ok(pk) => pk,
        Err(ExecError::Format(_)) => return Err(()),
        Err(e) => return Ok(Some(format!("lowering failed: {e}"))),
    };
    let [_, d1, d2] = t.dims();
    let rank = space.dense_extent;
    let b = dense_mat(d1, rank, operand_seed);
    let c = dense_mat(d2, rank, mix_seed(operand_seed, "c"));
    Ok(outputs_mismatch(&pk, KernelArgs::Mttkrp { b: &b, c: &c })
        .or_else(|| events_mismatch(pk.plan(), pk.storage())))
}

/// One pinned (matrix, schedule) pair that must lower to a specific tier
/// row and then match the interpreter bit-for-bit.
struct ForcedCase {
    name: String,
    matrix: CooMatrix,
    sched: SuperSchedule,
    space: Space,
}

/// The pinned case of one [`TIER`] row at one thread count (`None`: the row
/// has no case — a reported failure). Dims are not multiples of the 16-wide
/// blocks or the 8-wide register tile, so the padding guards and the edge
/// clamp run, and nnz × dense extent clears
/// [`ExecutionPlan::PARALLEL_WORK_CUTOFF`], so the >1-thread case really
/// distributes chunks. Both thread counts of a row share one matrix.
fn forced_case(
    kernel: Kernel,
    expected: FastPath,
    threads: usize,
    seed: u64,
) -> Option<ForcedCase> {
    let name = format!(
        "forced/{}/{}",
        kernel_wire_name(kernel),
        expected.wire_name()
    );
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
    let mut rng = Rng64::seed_from(mix_seed(seed, &name));
    Some(ForcedCase {
        name: format!("{name}/{threads}t"),
        matrix: gen::uniform_random(nr, nc, density, &mut rng),
        sched,
        space,
    })
}

/// Thread counts every tier row is pinned at.
const FORCED_THREADS: [usize; 2] = [1, 4];

/// The plan-equivalence suite over the whole corpus. Takes no injectable
/// executor: both engines under comparison live in `waco-exec`, and the
/// property is exact equality between them rather than oracle agreement.
pub fn plan_equivalence_suite(cfg: &VerifyConfig) -> SuiteReport {
    let pool = ThreadPool::global();
    let threads = pool.max_participants();
    let per_case = cfg.budget.schedules_per_case();
    let mut executed = 0usize;
    let mut skipped = 0usize;
    let mut failures = Vec::new();

    let mut record = |kernel: Kernel,
                      case_name: &str,
                      case_seed: u64,
                      space: &Space,
                      schedules: &[SuperSchedule],
                      verdicts: Vec<Result<Option<String>, ()>>,
                      executed: &mut usize,
                      skipped: &mut usize| {
        for (index, (sched, verdict)) in schedules.iter().zip(verdicts).enumerate() {
            match verdict {
                Err(()) => *skipped += 1,
                Ok(None) => *executed += 1,
                Ok(Some(detail)) => {
                    *executed += 1;
                    failures.push(Failure {
                        suite: "plan_equivalence",
                        kernel: Some(kernel_wire_name(kernel).to_string()),
                        case_name: case_name.to_string(),
                        matrix_seed: Some(case_seed),
                        schedule_index: Some(index),
                        schedule: Some(sched.describe(space)),
                        schedule_json: Some(schedule_to_json(sched)),
                        divergence: None,
                        detail,
                    });
                }
            }
        }
    };

    for kernel in cfg.kernels.iter().copied().filter(|&k| k != Kernel::MTTKRP) {
        for case in corpus::matrices(cfg.seed, cfg.budget) {
            let dense = dense_extent_for(kernel);
            let space = Space::new(
                kernel,
                vec![case.matrix.nrows(), case.matrix.ncols()],
                dense,
            );
            let salt = format!("plan/{}/{}", kernel_wire_name(kernel), case.name);
            let schedule_seed = mix_seed(cfg.seed, &salt);
            let operand_seed = mix_seed(cfg.seed, &format!("{salt}/operands"));
            let schedules = ScheduleSampler::new(&space, schedule_seed).take_schedules(per_case);
            let verdicts = pool.map(&schedules, threads, |sched| {
                check_matrix(&case.matrix, sched, &space, operand_seed)
            });
            record(
                kernel,
                &case.name,
                case.seed,
                &space,
                &schedules,
                verdicts,
                &mut executed,
                &mut skipped,
            );
        }
    }

    if cfg.kernels.contains(&Kernel::MTTKRP) {
        for case in corpus::tensors(cfg.seed, cfg.budget) {
            let rank = dense_extent_for(Kernel::MTTKRP);
            let space = Space::new(Kernel::MTTKRP, case.tensor.dims().to_vec(), rank);
            let salt = format!("plan/mttkrp/{}", case.name);
            let schedule_seed = mix_seed(cfg.seed, &salt);
            let operand_seed = mix_seed(cfg.seed, &format!("{salt}/operands"));
            let schedules = ScheduleSampler::new(&space, schedule_seed).take_schedules(per_case);
            let verdicts = pool.map(&schedules, threads, |sched| {
                check_tensor(&case.tensor, sched, &space, operand_seed)
            });
            record(
                Kernel::MTTKRP,
                &case.name,
                case.seed,
                &space,
                &schedules,
                verdicts,
                &mut executed,
                &mut skipped,
            );
        }
    }

    // Forced cases, one per tier row and thread count: the row must be
    // *selected* by lowering (a fallback to the generic walker is a failure,
    // not a skip, and so is a row nobody pinned a case for), must really run
    // parallel when asked to, and must match the interpreter bit-for-bit.
    // Event streams are a property of the generic walkers, not of tier
    // rows; the corpus sweep above compares them.
    // Like the `workspace` suites, the workspace kernels' rows run whether or
    // not `cfg.kernels` (default: the four paper kernels) names them.
    let selected = |k: &Kernel| cfg.kernels.contains(k) || k.uses_workspace();
    for &(kernel, expected) in TIER.iter().filter(|(k, _)| selected(k)) {
        for threads in FORCED_THREADS {
            executed += 1;
            let case = forced_case(kernel, expected, threads, cfg.seed);
            let fail = |detail: String| Failure {
                suite: "plan_equivalence",
                kernel: Some(kernel_wire_name(kernel).to_string()),
                case_name: match &case {
                    Some(c) => c.name.clone(),
                    None => format!("forced/{}", expected.wire_name()),
                },
                matrix_seed: None,
                schedule_index: None,
                schedule: case.as_ref().map(|c| c.sched.describe(&c.space)),
                schedule_json: case.as_ref().map(|c| schedule_to_json(&c.sched)),
                divergence: None,
                detail,
            };
            let Some(case) = &case else {
                failures.push(fail("tier row has no pinned case".to_string()));
                continue;
            };
            let operand_seed = mix_seed(cfg.seed, &format!("{}/operands", case.name));
            let pk = match KernelExecutor::planned().prepare(&case.matrix, &case.sched, &case.space)
            {
                Ok(pk) => pk,
                Err(e) => {
                    failures.push(fail(format!("lowering failed: {e}")));
                    continue;
                }
            };
            let parallel = pk.plan().effective_parallel(pk.storage()).is_some();
            if pk.plan().fast_path() != expected {
                failures.push(fail(format!(
                    "expected fast path `{}`, lowering chose `{}` ({})",
                    expected.wire_name(),
                    pk.plan().fast_path().wire_name(),
                    pk.plan().fast_path_reason(),
                )));
            } else if parallel != (threads > 1 && case.sched.parallel.is_some()) {
                failures.push(fail(format!(
                    "case sized wrong: runs parallel = {parallel} at {threads} threads"
                )));
            } else if let Some(detail) =
                compare_matrix(&pk, &case.matrix, &case.space, operand_seed, false)
            {
                failures.push(fail(detail));
            }
        }
    }

    SuiteReport {
        name: "plan_equivalence",
        executed,
        skipped,
        failures,
    }
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
                let case = case.unwrap_or_else(|| panic!("{kernel} × {}", fast.wire_name()));
                let plan = ExecutionPlan::build(&case.sched, &case.space).unwrap();
                assert_eq!(plan.fast_path(), fast, "{}", case.name);
                assert_eq!(plan.kernel(), kernel, "{}", case.name);
            }
        }
        // A pairing outside the tier has no case — that is how a row added
        // to `TIER` without one surfaces as a suite failure.
        assert!(forced_case(Kernel::SDDMM, FastPath::CsrRows, 1, 7).is_none());
    }
}
