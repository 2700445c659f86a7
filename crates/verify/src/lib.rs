//! `waco-verify` — the repo's single correctness authority.
//!
//! WACO's premise is that every point of the SuperSchedule space is a
//! semantics-preserving reformulation of the same kernel: any (format,
//! schedule) pair the tuner emits must compute the same answer. This crate
//! checks that premise systematically instead of piecemeal:
//!
//! * [`oracle`] — naive dense `f64` oracles for SpMV/SpMM/SDDMM/MTTKRP plus
//!   the workspace kernels (SpGEMM, fused SDDMM+SpMM), and an epsilon-aware
//!   comparator reporting the first diverging coordinate.
//! * [`corpus`] — a seed-derived structure corpus (banded, blocked,
//!   power-law, empty-row, single-entry, rectangular, empty; three order-3
//!   tensor families for MTTKRP), one [`corpus::cases`] for every kernel.
//! * [`problem`] — the one kernel-call vocabulary: a [`problem::Problem`]
//!   owns a case's sparse operand (of either order), its schedule space and
//!   the seed-derived other operands, and answers `args` / `prepare` /
//!   `oracle` / `shape` / `over` for any of the six kernels.
//! * `sweep` — what a kernel suite consists of: sampler stream × corpus on
//!   the `waco-runtime` pool, with verdicts booked into one tally that builds
//!   every failure record.
//! * [`diff`] — the one-method [`diff::Executor`] every kernel execution
//!   goes through ([`diff::ExecBackend`] in production,
//!   [`diff::InterpreterBackend`] and the harness's broken backends by
//!   injection), and the differential fuzzer: the sampler stream against the
//!   oracle, failures shrunk by entry bisection.
//! * [`plan`] — plan equivalence, the one home of *walker ≡ interpreter ≡
//!   oracle*: the lowered `ExecutionPlan` executor and the reference
//!   interpreter must be bit-identical (outputs, instrument event streams,
//!   body calls) and within ε of the dense oracle over every structure
//!   class of a tiny space (the share [`Budget::class_fraction`] names),
//!   the corpus × sampler stream, and one forced case per tier row.
//! * [`metamorphic`] — permutation invariance, scalar-scaling linearity
//!   (any kernel), and SpMM-with-one-column ≡ SpMV, across schedules; and
//!   to bit identity, SpGEMM's `A · I ≡ A` and fused SDDMM+SpMM ≡ the
//!   unfused two-kernel composition.
//! * [`baselines`] — the `waco-baselines` tuners (FixedCSR/CSF,
//!   BestFormat, MKL-like, ASpT) run through the same comparator.
//! * [`search_pruning`] — the two-stage tuner: the asymptotically-pruned
//!   search must find equal-or-better schedules than the full search over
//!   the corpus at ≥2× fewer cost-model evaluations, the pruner never
//!   empties the candidate set or drops a dominating winner, and the
//!   asymptotic bound's ordering is cross-checked against simulator event
//!   counts wherever Stage 1 uses it.
//! * [`fault`] — fault injection for `waco-serve`: torn/bit-flipped
//!   journal writes and mid-frame TCP faults must never surface a wrong
//!   tune result.
//! * [`distributed`] — crash-failover drills for the sharded tier: kill a
//!   shard mid-tune or refuse its dial, pipeline across a slow and a fast
//!   shard, kill a journal sync mid-stream, corrupt or truncate the stream,
//!   restart and re-join — routed answers must stay bit-identical to the
//!   single-node oracle. The one home of the serve tier's drills.
//! * [`report`] — the JSON report `waco-cli verify` writes into `results/`.
//!
//! Every kernel suite runs the kernels [`VerifyConfig::kernels`] names and
//! no others; [`VerifyConfig::new`] names all six. `baselines` and
//! `search_pruning` skip the workspace kernels, which are executor-only.
//!
//! Everything is driven by one seed: a CI failure line names the seed,
//! kernel, corpus case, and schedule index, and `waco-cli verify --seed N`
//! replays it locally, bit for bit.

pub mod baselines;
pub mod corpus;
pub mod diff;
pub mod distributed;
pub mod fault;
pub mod metamorphic;
pub mod oracle;
pub mod plan;
pub mod problem;
pub mod report;
pub mod search_pruning;
mod sweep;

use std::path::PathBuf;

use waco_schedule::Kernel;
use waco_serve::Json;

pub use oracle::{Divergence, Tolerance};

/// How much work the harness does; the family lists are identical across
/// budgets so a nightly failure can be chased with a smoke-sized replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// CI-sized: small extents, a dozen schedules per case.
    Smoke,
    /// Nightly-sized: larger extents, a few dozen schedules per case.
    Nightly,
}

impl Budget {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Budget> {
        match s {
            "smoke" => Some(Budget::Smoke),
            "nightly" => Some(Budget::Nightly),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Budget::Smoke => "smoke",
            Budget::Nightly => "nightly",
        }
    }

    /// Schedules drawn from the sampler stream per (kernel, case).
    pub fn schedules_per_case(self) -> usize {
        match self {
            Budget::Smoke => 12,
            Budget::Nightly => 48,
        }
    }

    /// The plan suite's small-scope enumeration: `Some(n)` checks a seeded
    /// `1/n` of the kernel's tiny structure-class space (`n = 1`: every
    /// class), `None` none of it.
    pub fn class_fraction(self, kernel: Kernel) -> Option<usize> {
        use Kernel::*;
        match (self, kernel) {
            (_, SpMV) | (Budget::Nightly, SpMM | SDDMM) => Some(1),
            (Budget::Smoke, SpMM | SDDMM) | (Budget::Nightly, SpGEMM | SddmmSpmm) => Some(64),
            (Budget::Nightly, MTTKRP) => Some(1 << 16),
            (Budget::Smoke, _) => None,
        }
    }

    /// Schedules per metamorphic relation and case.
    pub fn metamorphic_schedules(self) -> usize {
        match self {
            Budget::Smoke => 4,
            Budget::Nightly => 16,
        }
    }
}

/// Harness configuration. One seed drives corpus generation, operand
/// values, and every sampler stream.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// The master seed (printed in every failure; replays the whole run).
    pub seed: u64,
    /// Work budget.
    pub budget: Budget,
    /// Kernels under test: the one kernel selector of every suite.
    pub kernels: Vec<Kernel>,
    /// Whether to run the serve-layer fault-injection suite (needs a
    /// filesystem scratch directory and loopback sockets).
    pub faults: bool,
}

impl VerifyConfig {
    /// All six kernels (the paper's four, then the workspace kernels),
    /// faults on.
    pub fn new(seed: u64, budget: Budget) -> Self {
        VerifyConfig {
            seed,
            budget,
            kernels: Kernel::ALL.into_iter().chain(Kernel::WORKSPACE).collect(),
            faults: true,
        }
    }
}

/// One confirmed check failure, carrying everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which suite found it.
    pub suite: &'static str,
    /// Kernel wire name (`spmv`/`spmm`/`sddmm`/`mttkrp`/`spgemm`/
    /// `sddmm_spmm`), when applicable.
    pub kernel: Option<String>,
    /// Corpus case / check name.
    pub case_name: String,
    /// The seed the failing operand was generated from.
    pub matrix_seed: Option<u64>,
    /// Index of the schedule in the sampler stream (replay key).
    pub schedule_index: Option<usize>,
    /// Human-readable schedule description.
    pub schedule: Option<String>,
    /// Machine-readable schedule encoding (the serve-layer JSON form).
    pub schedule_json: Option<Json>,
    /// First diverging coordinate, when the check compared values.
    pub divergence: Option<Divergence>,
    /// Free-form explanation (error text, relation name, fault detail).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.suite, self.case_name)?;
        if let Some(k) = &self.kernel {
            write!(f, " kernel={k}")?;
        }
        if let Some(s) = self.matrix_seed {
            write!(f, " matrix_seed={s}")?;
        }
        if let Some(i) = self.schedule_index {
            write!(f, " schedule_index={i}")?;
        }
        if let Some(d) = &self.divergence {
            write!(f, " {d}")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        if let Some(s) = &self.schedule {
            write!(f, " [{s}]")?;
        }
        Ok(())
    }
}

/// One suite's outcome.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Suite name (`differential`, `plan_equivalence`, `metamorphic`,
    /// `baselines`, `search_pruning`, `fault`, `distributed`).
    pub name: &'static str,
    /// Checks that executed to completion.
    pub executed: usize,
    /// Checks skipped because the schedule's storage was over budget (the
    /// space legitimately excludes those points) or a baseline declined.
    pub skipped: usize,
    /// Confirmed failures.
    pub failures: Vec<Failure>,
    /// Structure classes enumerated per kernel (the plan suite's; empty, and
    /// left out of the JSON report, for every other suite).
    pub classes: Vec<(Kernel, usize)>,
    /// Wall seconds the enumeration took: in [`VerifyReport::summary`] only,
    /// so two reports of one seed stay byte-identical.
    pub class_seconds: f64,
}

/// The whole run's outcome.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The master seed (replay key).
    pub seed: u64,
    /// Budget the run used.
    pub budget: Budget,
    /// Per-suite results, in execution order.
    pub suites: Vec<SuiteReport>,
}

impl VerifyReport {
    /// Whether every suite came back clean.
    pub fn passed(&self) -> bool {
        self.suites.iter().all(|s| s.failures.is_empty())
    }

    /// Total failure count.
    pub fn total_failures(&self) -> usize {
        self.suites.iter().map(|s| s.failures.len()).sum()
    }

    /// A terminal summary: one line per suite plus one line per failure.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.suites {
            out.push_str(&format!(
                "{:>12}: {} checks, {} skipped, {} failures\n",
                s.name,
                s.executed,
                s.skipped,
                s.failures.len()
            ));
            if !s.classes.is_empty() {
                let counts: Vec<_> = s.classes.iter().map(|(k, n)| format!("{k} {n}")).collect();
                let rate = s.classes.iter().map(|(_, n)| n).sum::<usize>() as f64 / s.class_seconds;
                let counts = counts.join(", ");
                out.push_str(&format!("  classes: {counts} ({rate:.0} classes/s)\n"));
            }
            for f in &s.failures {
                out.push_str(&format!("  FAIL {f}\n"));
            }
        }
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        out.push_str(&format!(
            "{verdict} (seed {}, budget {}; replay with `waco-cli verify --seed {} --budget {}`)\n",
            self.seed,
            self.budget.name(),
            self.seed,
            self.budget.name()
        ));
        out
    }
}

/// Runs the full harness with the production `waco-exec` backend.
pub fn run(cfg: &VerifyConfig) -> VerifyReport {
    run_with_executor(cfg, &diff::ExecBackend)
}

/// Runs the full harness against an injectable executor — the hook the
/// harness's own tests use to prove a broken lowering is caught.
pub fn run_with_executor(cfg: &VerifyConfig, exec: &dyn diff::Executor) -> VerifyReport {
    let mut suites = vec![
        diff::differential_suite(cfg, exec),
        plan::plan_equivalence_suite(cfg),
        metamorphic::metamorphic_suite(cfg, exec),
        baselines::baselines_suite(cfg, exec),
        search_pruning::search_pruning_suite(cfg),
    ];
    if cfg.faults {
        suites.push(fault::fault_suite(cfg));
        suites.push(distributed::distributed_suite(cfg));
    }
    VerifyReport {
        seed: cfg.seed,
        budget: cfg.budget,
        suites,
    }
}

/// Splits one master seed into an independent stream per (suite, kernel,
/// case) so adding a case never shifts another case's randomness.
pub(crate) fn mix_seed(seed: u64, salt: &str) -> u64 {
    seed ^ waco_runtime::hash::fnv1a64(salt.as_bytes())
}

/// A fresh, empty scratch directory for one check of a socket / filesystem
/// suite, unique to the suite, the process and the seed.
pub(crate) fn scratch_dir(suite: &str, cfg: &VerifyConfig, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "waco-verify-{suite}-{}-{}-{name}",
        std::process::id(),
        cfg.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}
