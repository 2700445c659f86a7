//! Deterministic machine-model cost simulation — the hardware substitute.
//!
//! The WACO paper measures ground-truth runtimes on a dual-socket 24-core
//! Xeon (icc) and an 8-core EPYC (gcc). This workspace replaces those
//! machines with a **deterministic simulator** that replays the scheduled
//! iteration space over the *actual* sparse structure (through the same
//! lowered [`waco_exec::plan::ExecutionPlan`] the executor runs, walked
//! under an event-counting instrument, so simulated and executed control
//! flow cannot diverge) and charges costs from a [`MachineConfig`]:
//!
//! * **traversal** — concordant level steps, wasted dense-loop iterations of
//!   discordant orders, and binary-search probes of discordant locates;
//! * **compute** — one fused multiply-add per stored nonzero per dense
//!   iteration, divided by the SIMD width when the innermost loop is a dense
//!   run at least [`MachineConfig::simd_threshold`] long (the icc heuristic
//!   of Figure 14: vectorization only kicks in at block size 16);
//! * **memory** — cache-line traffic of streaming the storage plus a
//!   FIFO-set reuse model of the kernel's gather operand (x rows for SpMV, B
//!   rows for SpMM, C columns for SDDMM, B/C rows for MTTKRP) against the
//!   machine's last-level cache — this is what rewards the paper's
//!   "sparse block" formats (§5.2.1);
//! * **parallelism** — the schedule's chunks are list-scheduled onto worker
//!   threads exactly like OpenMP `schedule(dynamic, chunk)`, so skewed row
//!   distributions produce real makespan imbalance, and SMT oversubscription
//!   gets a configurable throughput factor.
//!
//! Determinism makes every experiment in the workspace exactly reproducible;
//! pattern-dependence (the walker sees the true nonzeros) is what gives the
//! learned cost model in `waco-model` something meaningful to learn.
//!
//! # Walk, then price
//!
//! Timing a schedule is two steps. The **walk** replays the serial nest over
//! the stored operand once and only counts — traversal events, gather-operand
//! hits and misses, stored nonzeros per coordinate of every sparse loop
//! variable; it depends on (storage, loop order, splits, kernel, machine).
//! **Pricing** turns those totals into a [`SimReport`] under one
//! `parallelize(var, threads, chunk)`: SIMD, the fast-path factors, memory,
//! and the list schedule of the parallel variable's chunks. `parallelize` is
//! applied in place, after a walk that never sees it, so candidates that
//! differ only in it share a walk. [`Simulator::time_batch`], over a matrix
//! or an order-3 tensor alike, is the one implementation: it stores each
//! distinct format once — one storage alive at a time, besides one the
//! caller may hand [`Simulator::time_batch_reusing`] — walks each distinct
//! nest once per storage ([`Simulator::time_stored`], also callable on
//! storage the caller built), and prices every candidate, so slot `i` equals
//! the batch of one bit for bit; [`Simulator::time_matrix`] is that batch of
//! one.
//! The workspace kernels are executor-only: every entry refuses them with
//! [`SimError::ExecutorOnly`].
//!
//! # Example
//!
//! ```
//! use waco_sim::{MachineConfig, Simulator};
//! use waco_schedule::{named, Kernel, Space};
//! use waco_tensor::gen::{self, Rng64};
//!
//! let mut rng = Rng64::seed_from(3);
//! let a = gen::uniform_random(64, 64, 0.05, &mut rng);
//! let space = Space::new(Kernel::SpMV, vec![64, 64], 0);
//! let sched = named::default_csr(&space);
//! let sim = Simulator::new(MachineConfig::xeon_like());
//! let report = sim.time_matrix(&a, &sched, &space)?;
//! assert!(report.seconds > 0.0);
//! # Ok::<(), waco_sim::SimError>(())
//! ```

pub mod collector;
pub mod machine;
pub mod simulator;

pub use collector::{EventCounts, ReuseTracker};
pub use machine::MachineConfig;
pub use simulator::{SimReport, Simulator};

/// Errors from cost simulation.
#[derive(Debug, Clone)]
pub enum SimError {
    /// Building storage or the nest failed (invalid schedule / over budget).
    Exec(waco_exec::ExecError),
    /// The schedule's estimated work exceeds the simulation limit — the
    /// analog of the paper excluding configurations that run for a minute.
    TooExpensive {
        /// Estimated iteration count.
        estimate: f64,
        /// The configured limit.
        limit: f64,
    },
    /// A workspace kernel: executor-only, neither priced nor tuned.
    ExecutorOnly(waco_schedule::Kernel),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "simulation setup failed: {e}"),
            SimError::TooExpensive { estimate, limit } => {
                write!(
                    f,
                    "schedule too expensive to simulate: ~{estimate:.2e} > {limit:.2e}"
                )
            }
            SimError::ExecutorOnly(k) => {
                write!(f, "{k} is executor-only: neither priced nor tuned")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Exec(e) => Some(e),
            SimError::TooExpensive { .. } | SimError::ExecutorOnly(_) => None,
        }
    }
}

impl From<waco_exec::ExecError> for SimError {
    fn from(e: waco_exec::ExecError) -> Self {
        SimError::Exec(e)
    }
}

impl From<waco_format::FormatError> for SimError {
    fn from(e: waco_format::FormatError) -> Self {
        SimError::Exec(waco_exec::ExecError::Format(e))
    }
}

impl From<waco_schedule::ScheduleError> for SimError {
    fn from(e: waco_schedule::ScheduleError) -> Self {
        SimError::Exec(waco_exec::ExecError::Schedule(e))
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SimError>;
