//! What every kernel suite is made of: a [`sweep`] of the sampler stream over
//! the corpus on the pool, and the [`Tally`] its [`Verdict`]s are booked
//! into — the one place a [`Failure`] is built.
//!
//! **Salts.** A stream's salt names the suite, the kernel and the case
//! (`diff/spmv/banded`, `workspace/fused/empty`, `meta/scale/sddmm/blocked`);
//! [`mix_seed`] of it seeds the case's [`ScheduleSampler`], `{salt}/operands`
//! seeds the problem's operands. A salt never depends on another case, so
//! adding a case or a kernel shifts no existing stream.

use waco_runtime::ThreadPool;
use waco_schedule::{Kernel, ScheduleSampler, Space, SuperSchedule};
use waco_serve::cache::schedule_to_json;

use crate::corpus::{self, Case};
use crate::problem::Problem;
use crate::{mix_seed, Divergence, Failure, SuiteReport, VerifyConfig};

/// The outcome of one check.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// The schedule's storage is over budget (the space legitimately
    /// excludes the point) or a tuner declined the case.
    Skip,
    /// Ran and held.
    Pass,
    /// Ran and did not hold.
    Fail {
        /// First diverging coordinate, when the check compared values.
        divergence: Option<Divergence>,
        /// What was violated.
        detail: String,
    },
}

impl Verdict {
    /// `Fail` when `detail` names a violation.
    pub(crate) fn from_detail(detail: Option<String>) -> Verdict {
        detail.map_or(Verdict::Pass, |detail| Verdict::Fail {
            divergence: None,
            detail,
        })
    }

    /// `Fail` with `detail` when a comparison found a divergence.
    pub(crate) fn from_divergence(divergence: Option<Divergence>, detail: &str) -> Verdict {
        match divergence {
            None => Verdict::Pass,
            Some(d) => Verdict::Fail {
                divergence: Some(d),
                detail: detail.to_string(),
            },
        }
    }
}

/// One suite's running counts and failure records.
pub(crate) struct Tally(SuiteReport);

impl Tally {
    pub(crate) fn new(suite: &'static str) -> Tally {
        Tally(SuiteReport {
            name: suite,
            executed: 0,
            skipped: 0,
            failures: Vec::new(),
            classes: Vec::new(),
            class_seconds: 0.0,
        })
    }

    /// Counts one check that ran to completion.
    pub(crate) fn executed(&mut self) {
        self.0.executed += 1;
    }

    /// Counts one check that could not run.
    pub(crate) fn skipped(&mut self) {
        self.0.skipped += 1;
    }

    /// Records a failure without counting a check (a check may violate
    /// several properties). `at` is the schedule the check ran, with its
    /// sampler-stream index when it has one.
    pub(crate) fn failure(
        &mut self,
        kernel: Option<Kernel>,
        case_name: &str,
        matrix_seed: Option<u64>,
        at: Option<(Option<usize>, &SuperSchedule, &Space)>,
        divergence: Option<Divergence>,
        detail: String,
    ) {
        self.0.failures.push(Failure {
            suite: self.0.name,
            kernel: kernel.map(|k| k.wire_name().to_string()),
            case_name: case_name.to_string(),
            matrix_seed,
            schedule_index: at.and_then(|(index, _, _)| index),
            schedule: at.map(|(_, sched, space)| sched.describe(space)),
            schedule_json: at.map(|(_, sched, _)| schedule_to_json(sched)),
            divergence,
            detail,
        });
    }

    /// Counts one named check with no schedule behind it (a fault or a
    /// drill) and records its failure when `ok` is false.
    pub(crate) fn check(&mut self, case_name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.executed();
        if !ok {
            self.failure(None, case_name, None, None, None, detail());
        }
    }

    /// Counts one check of `sched` on `case` and records its failure.
    pub(crate) fn book(
        &mut self,
        case: &Case,
        space: &Space,
        index: Option<usize>,
        sched: &SuperSchedule,
        verdict: Verdict,
    ) {
        match verdict {
            Verdict::Skip => self.skipped(),
            Verdict::Pass => self.executed(),
            Verdict::Fail { divergence, detail } => {
                self.executed();
                let at = Some((index, sched, space));
                self.failure(
                    Some(space.kernel),
                    &case.name,
                    Some(case.seed),
                    at,
                    divergence,
                    detail,
                );
            }
        }
    }

    pub(crate) fn finish(self) -> SuiteReport {
        self.0
    }
}

/// One stream of a suite. For every corpus case of `kernel`: `build` makes
/// the case's [`Problem`] and whatever its schedules share (an oracle answer,
/// a transformed twin) from the case and its `salt`; `n` schedules are drawn
/// from the sampler stream the salt seeds; `check` judges each on the pool;
/// the verdicts are booked in stream order.
pub(crate) fn sweep<S: Sync>(
    cfg: &VerifyConfig,
    tally: &mut Tally,
    kernel: Kernel,
    n: usize,
    salt: impl Fn(&str) -> String,
    build: impl Fn(Case, &str) -> (Problem, S),
    check: impl Fn(&Problem, &S, &SuperSchedule) -> Verdict + Sync,
) {
    let pool = ThreadPool::global();
    for case in corpus::cases(cfg.seed, cfg.budget, kernel) {
        let salt = salt(&case.name);
        let (problem, shared) = build(case, &salt);
        let schedules =
            ScheduleSampler::new(&problem.space, mix_seed(cfg.seed, &salt)).take_schedules(n);
        let verdicts = pool.map(&schedules, pool.max_participants(), |sched| {
            check(&problem, &shared, sched)
        });
        for (index, (sched, verdict)) in schedules.iter().zip(verdicts).enumerate() {
            tally.book(&problem.case, &problem.space, Some(index), sched, verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;
    use waco_schedule::named;

    #[test]
    fn a_booked_failure_names_its_schedule_and_a_bare_one_cannot_fake_one() {
        let case = corpus::cases(1, Budget::Smoke, Kernel::SpMV).remove(0);
        let space = Space::new(Kernel::SpMV, case.sparse.dims(), 0);
        let sched = named::default_csr(&space);
        let mut tally = Tally::new("unit");
        tally.book(&case, &space, Some(3), &sched, Verdict::Skip);
        tally.book(&case, &space, Some(4), &sched, Verdict::Pass);
        let verdict = Verdict::from_detail(Some("broke".to_string()));
        tally.book(&case, &space, Some(5), &sched, verdict);
        tally.failure(None, "aggregate", None, None, None, "sum".to_string());
        let report = tally.finish();
        assert_eq!((report.executed, report.skipped), (2, 1));
        let [booked, bare] = &report.failures[..] else {
            panic!("two failures: {:?}", report.failures)
        };
        assert_eq!(booked.suite, "unit");
        assert_eq!(booked.kernel.as_deref(), Some("spmv"));
        assert_eq!(
            (&booked.case_name, booked.matrix_seed),
            (&case.name, Some(case.seed))
        );
        assert_eq!(booked.schedule_index, Some(5));
        assert_eq!(booked.schedule_json, Some(schedule_to_json(&sched)));
        assert_eq!(
            booked.schedule.as_deref(),
            Some(sched.describe(&space).as_str())
        );
        assert!(bare.schedule_index.is_none() && bare.schedule_json.is_none());
    }

    #[test]
    fn a_named_check_counts_once_and_fails_without_a_schedule() {
        let mut tally = Tally::new("drill");
        tally.check("held", true, || unreachable!("detail of a passing check"));
        tally.check("broke", false, || "why".to_string());
        let report = tally.finish();
        assert_eq!((report.executed, report.skipped), (2, 0));
        let [f] = &report.failures[..] else {
            panic!("one failure: {:?}", report.failures)
        };
        assert_eq!(
            (f.suite, &*f.case_name, &*f.detail),
            ("drill", "broke", "why")
        );
        assert!(f.kernel.is_none() && f.schedule.is_none() && f.divergence.is_none());
    }
}
