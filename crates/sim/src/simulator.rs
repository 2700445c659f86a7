//! The cost simulator: replay, charge, and schedule onto virtual threads.

use crate::collector::{EventCounts, ReuseTracker};
use crate::machine::MachineConfig;
use crate::{Result, SimError};
use waco_exec::parallel::chunk_ranges;
use waco_exec::plan::{ExecutionPlan, FastPath};
use waco_format::{FormatSpec, LevelFormat, SparseStorage};
use waco_schedule::{Kernel, LoopVar, Space, SuperSchedule};
use waco_tensor::{CooMatrix, Operand};

/// Simulated timing of one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end simulated kernel time in seconds.
    pub seconds: f64,
    /// Simulated one-off format conversion (assembly) time in seconds.
    pub convert_seconds: f64,
    /// Traversal cost (concordant steps, dense iterations, locate probes), ns.
    pub traversal_ns: f64,
    /// Compute cost of innermost bodies after SIMD, ns.
    pub body_ns: f64,
    /// Memory cost (storage streaming + gather-operand misses), ns.
    pub mem_ns: f64,
    /// Workspace scatter-accumulate + gather-reset cost (zero for kernels
    /// without a dense temporary), ns.
    pub workspace_ns: f64,
    /// Parallel overhead (spawn + chunk dispatch), ns.
    pub parallel_ns: f64,
    /// Innermost dense run length used for the SIMD decision.
    pub simd_run: usize,
    /// SIMD speedup applied to bodies (1 = scalar).
    pub simd_factor: f64,
    /// Number of dynamic chunks dispatched.
    pub chunks: usize,
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Work-distribution quality: slowest thread's *work* span over the
    /// ideal even split (1.0 = perfectly balanced). Dispatch and spawn
    /// overheads are excluded — they are reported in `parallel_ns`.
    pub imbalance: f64,
    /// Gather-operand cache miss ratio.
    pub miss_ratio: f64,
    /// Stored nonzeros visited.
    pub bodies: u64,
    /// Total traversal events (concordant steps + dense iterations + locate
    /// probes + bodies) — the count the asymptotic bound of
    /// `waco_exec::asym` upper-models, used by the `search_pruning` suite to
    /// cross-check that simulated event counts respect the asymptotic
    /// ordering.
    pub events: u64,
}

/// Deterministic machine-model simulator.
///
/// See the crate docs for the model; construct with a [`MachineConfig`]
/// preset and call [`Simulator::time_batch`] (or [`Simulator::time_matrix`],
/// the batch of one).
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The machine being simulated.
    pub machine: MachineConfig,
    /// Reject schedules whose reduced walk exceeds this iteration estimate
    /// as too expensive, like the paper's 1-minute cutoff.
    pub work_limit: f64,
    /// Storage budget passed to format materialization, in words.
    pub storage_budget: u64,
}

impl Simulator {
    /// A simulator with default limits.
    pub fn new(machine: MachineConfig) -> Self {
        Self {
            machine,
            work_limit: 2e6,
            storage_budget: 1 << 24,
        }
    }

    /// The schedule space for a kernel instance on this machine (thread menu
    /// comes from the machine).
    pub fn space_for(&self, kernel: Kernel, sparse_dims: Vec<usize>, dense_extent: usize) -> Space {
        Space::new(kernel, sparse_dims, dense_extent)
            .with_thread_options(self.machine.thread_menu.clone())
    }

    /// Simulates a 2-D kernel (SpMV / SpMM / SDDMM / SpGEMM / fused
    /// SDDMM+SpMM) on sparse operand `a`: the batch of one.
    ///
    /// # Errors
    ///
    /// Invalid schedules, over-budget storage, and over-limit work estimates.
    pub fn time_matrix(
        &self,
        a: &CooMatrix,
        sched: &SuperSchedule,
        space: &Space,
    ) -> Result<SimReport> {
        let mut one = self.time_batch(a, std::slice::from_ref(sched), space);
        one.pop().expect("one report per schedule")
    }

    /// Simulates a candidate set on `a`, a matrix or (for MTTKRP) an order-3
    /// tensor. Slot `i` is exactly what the batch of one `scheds[i]` returns;
    /// the set shares what its members have in common — each distinct format
    /// is stored once (one storage alive at a time) and each distinct serial
    /// nest walked once per storage, leaving only the pricing per candidate.
    pub fn time_batch<'a>(
        &self,
        a: impl Into<Operand<'a>>,
        scheds: &[SuperSchedule],
        space: &Space,
    ) -> Vec<Result<SimReport>> {
        let a = a.into();
        let specs: Vec<Result<FormatSpec>> = scheds
            .iter()
            .map(|sched| {
                sched.validate(space)?;
                Ok(sched.a_format_spec(space)?)
            })
            .collect();
        let mut out: Vec<Option<Result<SimReport>>> = specs
            .iter()
            .map(|spec| spec.as_ref().err().cloned().map(Err))
            .collect();
        let valid: Vec<usize> = (0..scheds.len()).filter(|&i| specs[i].is_ok()).collect();
        for same_spec in groups(&valid, |i| specs[i].as_ref().ok()) {
            let spec = specs[same_spec[0]].as_ref().expect("a valid slot");
            // Dropped before the next format's storage is built.
            let st = SparseStorage::from_operand(a, spec, self.storage_budget);
            for same_nest in groups(&same_spec, |i| (&scheds[i].loop_order, &scheds[i].splits)) {
                let walk = match &st {
                    Ok(st) => self.walk(st, &scheds[same_nest[0]], space),
                    Err(e) => Err(e.clone().into()),
                };
                for i in same_nest {
                    let priced = walk.as_ref().map(|w| self.price(w, &scheds[i], space));
                    out[i] = Some(priced.map_err(SimError::clone));
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot is answered"))
            .collect()
    }

    /// Simulates a kernel over pre-built storage (reuse across schedules that
    /// share a format, and the `T_formatconvert`-free path of §5.6).
    ///
    /// # Errors
    ///
    /// Over-limit work estimates.
    pub fn time_stored(
        &self,
        st: &SparseStorage,
        sched: &SuperSchedule,
        space: &Space,
    ) -> Result<SimReport> {
        let walk = self.walk(st, sched, space)?;
        Ok(self.price(&walk, sched, space))
    }

    /// Replays `sched`'s serial nest over `st` once and counts. The totals
    /// depend on the storage, the loop order, the splits, the kernel and the
    /// machine — never on `parallelize`, which [`Simulator::price`] applies.
    fn walk(&self, st: &SparseStorage, sched: &SuperSchedule, space: &Space) -> Result<Walk> {
        let m = &self.machine;
        let kernel = space.kernel;
        let nsparse = kernel.sparse_ndims();

        let plan = lower_reduced(sched, space)?;

        // Dense-dim factors (true, unpadded product for compute; padded
        // outer factor for re-traversal).
        let d_total: f64 = (nsparse..kernel.ndims())
            .map(|d| space.dim_extent(d) as f64)
            .product();
        let first_sparse = plan
            .order()
            .iter()
            .position(|v| v.dim < nsparse)
            .unwrap_or(0);
        let d_above: f64 = plan.order()[..first_sparse]
            .iter()
            .filter(|v| v.dim >= nsparse)
            .map(|&v| sched.loop_extent(space, v) as f64)
            .product();

        let estimate = plan.work_estimate(st);
        if estimate > self.work_limit {
            return Err(SimError::TooExpensive {
                estimate,
                limit: self.work_limit,
            });
        }

        // SIMD decision from the *true* schedule's innermost non-trivial
        // loop. Unit-extent loops are eliminated by codegen (the paper's
        // "shaded lines can be ignored due to the split size 1"), so they
        // are skipped when finding the vectorization candidate.
        let innermost = plan
            .order()
            .iter()
            .rev()
            .find(|&&v| sched.loop_extent(space, v) > 1)
            .copied()
            .unwrap_or(*plan.order().last().expect("nests are non-empty"));
        let simd_run = if innermost.dim >= nsparse {
            sched.loop_extent(space, innermost)
        } else {
            let spec = st.spec();
            match spec
                .order()
                .iter()
                .position(|ax| ax.dim == innermost.dim && ax.part == innermost.part)
            {
                Some(l) if spec.formats()[l] == LevelFormat::Uncompressed => {
                    spec.axis_extent(spec.order()[l])
                }
                _ => 1,
            }
        };

        // One reuse tracker per gather operand, over the keys its dimension
        // can emit.
        let gathers = gather_operands(kernel, space, m);
        let mut trackers: Vec<ReuseTracker> = gathers
            .iter()
            .map(|&(dim, div, unit)| {
                let capacity = m.cache_bytes / gathers.len() / unit.max(1);
                ReuseTracker::new(capacity, space.dim_extent(dim).div_ceil(div))
            })
            .collect();
        // Visited nonzeros per coordinate of every sparse loop variable:
        // whichever one a schedule distributes over threads, its chunks are
        // list-scheduled from this one serial walk.
        let mut per_coord: Vec<(LoopVar, Vec<f64>)> = plan
            .order()
            .iter()
            .filter(|v| v.dim < nsparse)
            .map(|&v| (v, vec![0.0; sched.loop_extent(space, v)]))
            .collect();

        let mut ev = EventCounts::default();
        plan.walk(st, 0..plan.outer_extent(), &mut ev, &mut |ctx, _, _| {
            for (tracker, &(dim, div, _)) in trackers.iter_mut().zip(&gathers) {
                if let Some(c) = ctx.coord(dim) {
                    tracker.access(c / div);
                }
            }
            for (v, work) in &mut per_coord {
                work[ctx.axis_coord(*v)] += 1.0;
            }
        });

        let miss_lines = gathers
            .iter()
            .map(|&(_, _, unit)| (unit as f64 / m.line_bytes as f64).max(1.0))
            .sum::<f64>()
            / gathers.len() as f64;
        Ok(Walk {
            fast: plan.fast_path(),
            ev,
            miss_lines,
            hits: trackers.iter().map(ReuseTracker::hits).sum(),
            misses: trackers.iter().map(ReuseTracker::misses).sum(),
            per_coord,
            d_total,
            d_above,
            simd_run,
            storage_words: st.storage_words(),
            convert_seconds: self.convert_seconds(st),
        })
    }

    /// Charges one walk's totals to the machine under `sched`'s
    /// `parallelize`: SIMD, the fast-path factors, memory, and the list
    /// schedule of the parallel variable's chunks.
    fn price(&self, walk: &Walk, sched: &SuperSchedule, space: &Space) -> SimReport {
        let m = &self.machine;
        let kernel = space.kernel;
        let nsparse = kernel.sparse_ndims();
        let (fast, ev, hits, misses) = (walk.fast, walk.ev, walk.hits, walk.misses);
        let (d_total, d_above) = (walk.d_total, walk.d_above);
        let simd = m.simd_factor(walk.simd_run);

        let (fp_traversal_factor, fp_body_factor) = fastpath_cost_factors(fast);
        let stream_lines = (walk.storage_words as f64 * 4.0 / m.line_bytes as f64).ceil() * d_above;
        let generic_traversal_ns = d_above
            * (ev.concordant_steps as f64 * m.cost_concordant
                + ev.dense_steps as f64 * m.cost_dense_iter
                + ev.locate_probes as f64 * m.cost_locate_probe);
        let generic_body_ns = ev.bodies as f64 * d_total.max(1.0) * m.cost_body / simd;
        // Price the tier the executor would actually run, not the generic
        // nest: monomorphized kernels skip the per-op plan dispatch, so
        // simulated and measured fast-path ratios agree in sign.
        let traversal_ns = generic_traversal_ns * fp_traversal_factor;
        let body_ns = generic_body_ns * fp_body_factor;
        let fastpath_saved_ns = (generic_traversal_ns - traversal_ns) + (generic_body_ns - body_ns);
        // Workspace kernels: price the dense-temporary lifecycle explicitly.
        // SpGEMM scatters up to a B-row (dense upper bound |j|) per visited
        // nonzero and gathers each touched entry once at row compaction; the
        // fused kernel is priced as scattering one SDDMM value per stored
        // entry and gathering it back in the fused SpMM half, the plan's
        // `Workspace` op, though its leaf uses each value as it is made.
        let (ws_scatter, ws_gather): (f64, f64) = match kernel {
            Kernel::SpGEMM => {
                let s = ev.bodies as f64 * d_total.max(1.0);
                (s, s)
            }
            Kernel::SddmmSpmm => (ev.bodies as f64, ev.bodies as f64),
            _ => (0.0, 0.0),
        };
        let workspace_extent = match kernel {
            Kernel::SpGEMM => space.dense_extent,
            Kernel::SddmmSpmm => space.sparse_dims[1],
            _ => 0,
        };
        let workspace_ns = (ws_scatter + ws_gather) * m.cost_dense_iter
            + (workspace_extent as f64 * 4.0 / m.line_bytes as f64).ceil() * m.cost_mem_line;
        let gather_lines = misses as f64 * walk.miss_lines;
        let mem_ns = (gather_lines + stream_lines) * m.cost_mem_line;
        let work = traversal_ns + body_ns + mem_ns + workspace_ns;

        // OpenMP `schedule(dynamic, chunk)` over the parallel variable:
        // greedy list scheduling of per-chunk work (from the per-coordinate
        // distribution — skewed rows produce real imbalance). The parallel
        // region is re-entered once per iteration of every loop *outside*
        // the parallelized one, as TACO/OpenMP do. Threading is applied in
        // place: the serial walk's order is the written `loop_order`.
        let par = sched.parallel.as_ref().filter(|p| p.threads > 1);
        let parallel_over_dense = par.map(|p| p.var.dim >= nsparse).unwrap_or(false);
        let (threads, dispatch_each) = match par {
            Some(p) => (p.threads, m.cost_chunk_dispatch),
            None => (1, 0.0),
        };
        let regions: f64 = match par {
            Some(p) if !parallel_over_dense => {
                let order = &sched.loop_order;
                let pos = order.iter().position(|v| *v == p.var).unwrap_or(0);
                order[..pos]
                    .iter()
                    .map(|&v| sched.loop_extent(space, v) as f64)
                    .product()
            }
            Some(_) => 1.0,
            None => 0.0,
        };
        let speed = m.thread_speed(threads);
        let (makespan, balance_span, parallel_ns, nchunks) = if threads <= 1 {
            (work, work, 0.0, 1usize)
        } else if parallel_over_dense {
            let p = par.expect("threads > 1 implies parallel");
            let nchunks = sched.loop_extent(space, p.var).div_ceil(p.chunk.max(1));
            let dispatch = nchunks as f64 * dispatch_each;
            let overhead = m.cost_thread_spawn + dispatch;
            let even = work / (threads as f64 * speed);
            (
                even + dispatch / threads as f64 + m.cost_thread_spawn,
                even,
                overhead,
                nchunks,
            )
        } else {
            let p = par.expect("threads > 1 implies parallel");
            let (_, per_coord) = walk
                .per_coord
                .iter()
                .find(|(v, _)| *v == p.var)
                .expect("the walk tallied every parallelized sparse variable");
            let par_extent = per_coord.len();
            // Per-coordinate cost: proportional share of the total work by
            // visited nonzeros, plus a uniform loop-overhead floor.
            let weight_sum: f64 = per_coord.iter().sum::<f64>() + par_extent as f64;
            let coord_cost: Vec<f64> = per_coord
                .iter()
                .map(|&w| work * (w + 1.0) / weight_sum)
                .collect();
            let ranges = chunk_ranges(par_extent, p.chunk);
            let nchunks = ranges.len();
            let mut finish = vec![0.0f64; threads];
            // Work-only finish times feed `imbalance`: dispatch cost is a
            // real makespan term but not a distribution-quality signal (it
            // is reported separately in `parallel_ns`).
            let mut work_finish = vec![0.0f64; threads];
            for range in ranges {
                let c: f64 = coord_cost[range].iter().sum();
                let t = (0..threads)
                    .min_by(|&a, &b| finish[a].total_cmp(&finish[b]))
                    .expect("threads > 0");
                finish[t] += c / speed + dispatch_each;
                work_finish[t] += c / speed;
            }
            // Each of the `regions` re-entries schedules 1/regions of every
            // coordinate's work, so the summed makespan ≈ `span`; the spawn
            // cost is paid once per region.
            let span = finish.iter().copied().fold(0.0, f64::max);
            let work_span = work_finish.iter().copied().fold(0.0, f64::max);
            let spawn = m.cost_thread_spawn * regions.max(1.0);
            let overhead = spawn + nchunks as f64 * dispatch_each;
            (span + spawn, work_span, overhead, nchunks)
        };

        let ideal = if threads <= 1 {
            work
        } else {
            work / (threads as f64 * speed)
        };
        let total_ns = makespan;

        if waco_obs::enabled() {
            waco_obs::counter("sim.kernels_timed", 1);
            // Which specialization tier variant the plan takes, plus the ns
            // the variant's pricing saved over the generic nest — one event
            // pair per variant so simulated and measured ratios can be
            // compared directly from a trace.
            waco_obs::counter(fast.names().sim_counter, 1);
            if fast != FastPath::None {
                waco_obs::record(fast.names().sim_saved_ns, fastpath_saved_ns);
            }
            if kernel.uses_workspace() {
                waco_obs::counter("sim.workspace.scatter", ws_scatter as u64);
                waco_obs::counter("sim.workspace.gather", ws_gather as u64);
                waco_obs::record("sim.workspace.ns", workspace_ns);
            }
            waco_obs::counter("sim.concordant_steps", ev.concordant_steps);
            waco_obs::counter("sim.dense_steps", ev.dense_steps);
            waco_obs::counter("sim.locate_probes", ev.locate_probes);
            waco_obs::counter("sim.bodies", ev.bodies);
            waco_obs::counter("sim.cache_hits", hits);
            waco_obs::counter("sim.cache_misses", misses);
            waco_obs::record("sim.kernel_seconds", total_ns * 1e-9);
        }

        SimReport {
            seconds: total_ns * 1e-9,
            convert_seconds: walk.convert_seconds,
            traversal_ns,
            body_ns,
            mem_ns,
            workspace_ns,
            parallel_ns,
            simd_run: walk.simd_run,
            simd_factor: simd,
            chunks: nchunks,
            threads,
            imbalance: if ideal > 0.0 {
                balance_span / ideal
            } else {
                1.0
            },
            miss_ratio: if hits + misses == 0 {
                0.0
            } else {
                misses as f64 / (hits + misses) as f64
            },
            bodies: ev.bodies,
            events: ev.concordant_steps + ev.dense_steps + ev.locate_probes + ev.bodies,
        }
    }

    /// Simulated format conversion (assembly) time: linear in materialized
    /// storage words.
    pub fn convert_seconds(&self, st: &SparseStorage) -> f64 {
        st.storage_words() as f64 * self.machine.cost_convert_word * 1e-9
    }
}

/// The totals of one serial walk, before any cost is charged: what
/// [`Simulator::price`] turns into one [`SimReport`] per `parallelize`.
struct Walk {
    /// The tier variant the executor would run the nest with.
    fast: FastPath,
    ev: EventCounts,
    /// Gather-operand reuse, summed over the kernel's trackers.
    hits: u64,
    misses: u64,
    /// Cache lines one gather miss moves (mean over the gather operands).
    miss_lines: f64,
    /// Stored nonzeros visited per coordinate of each sparse loop variable.
    per_coord: Vec<(LoopVar, Vec<f64>)>,
    /// Product of the dense-only extents (unpadded).
    d_total: f64,
    /// Product of the dense loops written above the first sparse one.
    d_above: f64,
    /// Innermost dense run length, for the SIMD decision.
    simd_run: usize,
    storage_words: usize,
    convert_seconds: f64,
}

/// `slots` split into groups of equal `key`, first seen first.
fn groups<K: PartialEq>(slots: &[usize], key: impl Fn(usize) -> K) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in slots {
        match groups.iter_mut().find(|g| key(g[0]) == key(i)) {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// The kernel's gathered dense operands as the reuse model keys them:
/// `(kernel dimension, coordinates per unit, unit bytes)`.
fn gather_operands(kernel: Kernel, space: &Space, m: &MachineConfig) -> Vec<(usize, usize, usize)> {
    let row = 4 * space.dense_extent.max(1);
    match kernel {
        Kernel::SpMV => vec![(1, 16, m.line_bytes)],
        Kernel::SpMM => vec![(1, 1, row)],
        // C column j, B row i.
        Kernel::SDDMM => vec![(1, 1, row), (0, 1, row)],
        // B row k, C row l.
        Kernel::MTTKRP => vec![(1, 1, row), (2, 1, row)],
        // Sparse B's row k is the gathered operand (its CSR row, priced
        // densely at the workspace width).
        Kernel::SpGEMM => vec![(1, 1, row)],
        // C column j / F row j, B row i.
        Kernel::SddmmSpmm => vec![(1, 1, row), (0, 1, row)],
    }
}

/// What [`Simulator::walk`] replays: `sched` made serial and lowered over
/// the dense-collapsed space. Fast-path selection reads no dense extent, so
/// the plan records the tier variant the executor runs over the *true*
/// space.
fn lower_reduced(sched: &SuperSchedule, space: &Space) -> Result<ExecutionPlan> {
    let kernel = space.kernel;
    // Reduced space: collapse dense-only dims so the walk visits each
    // stored nonzero once; their extents are folded back analytically.
    let has_dense = kernel.ndims() > kernel.sparse_ndims();
    let reduced = Space {
        dense_extent: if has_dense { 1 } else { 0 },
        ..space.clone()
    };
    // Walk serially in the *written* loop order: TACO parallelizes a loop
    // in place, so the traversal (and therefore cache locality — e.g. the
    // k-outer "sparse block" reuse of §5.2.1) is that of the written nest;
    // threading is modeled afterwards from per-coordinate work. (Building
    // with `parallel: None` avoids the executor's hoisting.)
    let serial_sched = SuperSchedule {
        parallel: None,
        ..sched.clone()
    };
    // The same lowered plan the executor runs: the simulator replays its
    // flat op sequence under an event-counting instrument, so simulated and
    // executed traversal provably cannot drift.
    Ok(ExecutionPlan::build(&serial_sched, &reduced)?)
}

/// Cost multipliers `(traversal, body)` for the specialized kernel tier,
/// calibrated against the measured `fastpath_tier` microbench ratios: the
/// monomorphized kernels skip the plan walker's per-op dispatch (traversal
/// shrinks sharply) and the tiled variants additionally keep accumulators in
/// registers (body shrinks). `CsrRows` prices SpMV's row dot only; every
/// CSR SpMM takes the register tile's pair. `None` prices the generic nest
/// unchanged.
fn fastpath_cost_factors(fp: FastPath) -> (f64, f64) {
    match fp {
        FastPath::None => (1.0, 1.0),
        FastPath::CsrRows => (0.35, 0.9),
        FastPath::RegBlockSpmm => (0.35, 0.7),
        FastPath::BcsrBlock => (0.45, 0.7),
        FastPath::DiscordantCsr => (0.5, 0.9),
        FastPath::GustavsonSpgemm => (0.4, 0.9),
        FastPath::FusedSddmmSpmm => (0.4, 0.8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waco_schedule::{named, LoopVar, Parallelize, ScheduleSampler};
    use waco_tensor::gen::{self, Rng64};

    fn sim() -> Simulator {
        Simulator::new(MachineConfig::xeon_like())
    }

    #[test]
    fn deterministic() {
        let mut rng = Rng64::seed_from(1);
        let a = gen::uniform_random(64, 64, 0.05, &mut rng);
        let space = sim().space_for(Kernel::SpMV, vec![64, 64], 0);
        let sched = named::default_csr(&space);
        let r1 = sim().time_matrix(&a, &sched, &space).unwrap();
        let r2 = sim().time_matrix(&a, &sched, &space).unwrap();
        assert_eq!(r1, r2);
    }

    /// The reduced plan's recorded fast path is the variant a full-space
    /// lowering names — for every schedule the shared sampler emits, on all
    /// six kernels — so the simulator prices the tier row the executor runs.
    #[test]
    fn reduced_plan_fast_path_equals_full_space_lowering() {
        for (kernel, dims, dense) in [
            (Kernel::SpMV, vec![48, 40], 0),
            (Kernel::SpMM, vec![48, 40], 16),
            (Kernel::SpMM, vec![48, 40], 4),
            (Kernel::SDDMM, vec![48, 40], 8),
            (Kernel::MTTKRP, vec![12, 10, 14], 8),
            (Kernel::SpGEMM, vec![48, 40], 24),
            (Kernel::SddmmSpmm, vec![48, 40], 8),
        ] {
            let space = sim().space_for(kernel, dims, dense);
            let mut scheds = ScheduleSampler::new(&space, 77).take_schedules(200);
            scheds.push(named::default_csr(&space));
            let mut variants = std::collections::BTreeSet::new();
            for sched in &scheds {
                let fast = lower_reduced(sched, &space).unwrap().fast_path();
                let serial = SuperSchedule {
                    parallel: None,
                    ..sched.clone()
                };
                let full = ExecutionPlan::build(&serial, &space).unwrap();
                assert_eq!(fast, full.fast_path(), "{}", sched.describe(&space));
                variants.insert(fast.wire_name());
            }
            assert!(
                kernel == Kernel::SDDMM || kernel == Kernel::MTTKRP || variants.len() > 1,
                "{kernel}: the stream exercised only {variants:?}"
            );
        }
    }

    #[test]
    fn concordant_beats_discordant() {
        let mut rng = Rng64::seed_from(2);
        let a = gen::uniform_random(128, 128, 0.05, &mut rng);
        let space = sim().space_for(Kernel::SpMV, vec![128, 128], 0);
        let good = named::default_csr(&space);
        let mut bad = good.clone();
        // Column-major traversal of the row-major CSR: k1 outside i1.
        bad.loop_order = vec![
            LoopVar::outer(1),
            LoopVar::outer(0),
            LoopVar::inner(0),
            LoopVar::inner(1),
        ];
        bad.parallel = None;
        let mut good_serial = good.clone();
        good_serial.parallel = None;
        let tg = sim().time_matrix(&a, &good_serial, &space).unwrap();
        let tb = sim().time_matrix(&a, &bad, &space).unwrap();
        assert!(
            tb.seconds > 1.5 * tg.seconds,
            "discordant {}s vs concordant {}s",
            tb.seconds,
            tg.seconds
        );
    }

    #[test]
    fn fine_chunks_fix_skew() {
        // Heavily skewed rows: a few giant rows. Coarse chunks strand the
        // giant rows on one thread.
        let mut rng = Rng64::seed_from(3);
        let a = gen::powerlaw_rows(512, 512, 16.0, 1.4, &mut rng);
        let space = sim().space_for(Kernel::SpMV, vec![512, 512], 0);
        let mut fine = named::default_csr(&space);
        fine.parallel = Some(Parallelize {
            var: LoopVar::outer(0),
            threads: 24,
            chunk: 1,
        });
        let mut coarse = fine.clone();
        coarse.parallel = Some(Parallelize {
            var: LoopVar::outer(0),
            threads: 24,
            chunk: 256,
        });
        let tf = sim().time_matrix(&a, &fine, &space).unwrap();
        let tc = sim().time_matrix(&a, &coarse, &space).unwrap();
        assert!(
            tc.imbalance > tf.imbalance,
            "coarse imbalance {} should exceed fine {}",
            tc.imbalance,
            tf.imbalance
        );
    }

    #[test]
    fn simd_detected_for_dense_blocks() {
        let mut rng = Rng64::seed_from(4);
        let a = gen::blocked(128, 128, 16, 24, 1.0, &mut rng);
        let space = sim().space_for(Kernel::SpMV, vec![128, 128], 0);
        // BCSR 16x16 with k0 innermost: dense run of 16 → vectorized.
        let mut bcsr = named::default_csr(&space);
        bcsr.splits = vec![16, 16];
        let r = sim().time_matrix(&a, &bcsr, &space).unwrap();
        assert_eq!(r.simd_run, 16);
        assert!(r.simd_factor > 1.0);

        // 8-wide blocks stay scalar under the icc-like threshold of 16.
        let mut small = bcsr.clone();
        small.splits = vec![8, 8];
        let r8 = sim().time_matrix(&a, &small, &space).unwrap();
        assert_eq!(r8.simd_factor, 1.0);
    }

    #[test]
    fn sparse_block_format_improves_locality() {
        // Gather-operand working set far beyond a tiny cache: a k-split
        // compressed level (sparse block) restores locality.
        let mut machine = MachineConfig::xeon_like();
        machine.cache_bytes = 4096; // 64 lines — tiny on purpose
        let sim = Simulator::new(machine);
        let mut rng = Rng64::seed_from(5);
        let a = gen::uniform_random(256, 4096, 0.01, &mut rng);
        let space = sim.space_for(Kernel::SpMV, vec![256, 4096], 0);
        let csr = {
            let mut s = named::default_csr(&space);
            s.parallel = None;
            s
        };
        let sparse_block = {
            let cands = named::best_format_candidates(&space);
            let (_, splits, fmt) = cands
                .into_iter()
                .find(|(n, _, _)| n == "SparseBlock")
                .unwrap();
            let mut s = named::concordant(&space, splits, fmt, 1, 32);
            s.parallel = None;
            s
        };
        let t_csr = sim.time_matrix(&a, &csr, &space).unwrap();
        let t_sb = sim.time_matrix(&a, &sparse_block, &space).unwrap();
        assert!(
            t_sb.miss_ratio < t_csr.miss_ratio,
            "sparse block miss {} should beat CSR miss {}",
            t_sb.miss_ratio,
            t_csr.miss_ratio
        );
    }

    #[test]
    fn work_limit_rejects_pathological() {
        let mut rng = Rng64::seed_from(6);
        let a = gen::uniform_random(256, 256, 0.02, &mut rng);
        let mut sim = sim();
        sim.work_limit = 1000.0;
        let space = sim.space_for(Kernel::SpMV, vec![256, 256], 0);
        let sched = named::default_csr(&space);
        assert!(matches!(
            sim.time_matrix(&a, &sched, &space),
            Err(SimError::TooExpensive { .. })
        ));
    }

    #[test]
    fn spmm_dense_factor_scales_body() {
        let mut rng = Rng64::seed_from(7);
        let a = gen::uniform_random(64, 64, 0.05, &mut rng);
        // Both j extents below the SIMD threshold so the dense factor is
        // isolated from vectorization.
        let sp2 = sim().space_for(Kernel::SpMM, vec![64, 64], 2);
        let sp12 = sim().space_for(Kernel::SpMM, vec![64, 64], 12);
        let s2 = named::default_csr(&sp2);
        let s12 = named::default_csr(&sp12);
        let t2 = sim().time_matrix(&a, &s2, &sp2).unwrap();
        let t12 = sim().time_matrix(&a, &s12, &sp12).unwrap();
        assert!(t12.body_ns > 4.0 * t2.body_ns);
    }

    #[test]
    fn mttkrp_simulates() {
        let mut rng = Rng64::seed_from(8);
        let t = gen::random_tensor3([32, 32, 32], 400, &mut rng);
        let space = sim().space_for(Kernel::MTTKRP, vec![32, 32, 32], 16);
        let sched = named::default_csr(&space);
        let r = sim().time_batch(&t, &[sched], &space).remove(0).unwrap();
        assert!(r.seconds > 0.0);
        assert_eq!(r.bodies, t.nnz() as u64);
    }

    #[test]
    fn convert_time_scales_with_storage() {
        let mut rng = Rng64::seed_from(9);
        let a = gen::uniform_random(64, 64, 0.1, &mut rng);
        let space = sim().space_for(Kernel::SpMV, vec![64, 64], 0);
        let csr = named::default_csr(&space);
        let spec = csr.a_format_spec(&space).unwrap();
        let st = SparseStorage::from_matrix(&a, &spec).unwrap();
        let dense_spec = waco_format::FormatSpec::dense(64, 64);
        let st_dense = SparseStorage::from_matrix(&a, &dense_spec).unwrap();
        let s = sim();
        assert!(s.convert_seconds(&st_dense) > s.convert_seconds(&st));
    }

    #[test]
    fn more_threads_help_balanced_work() {
        let mut rng = Rng64::seed_from(10);
        let a = gen::uniform_random(2048, 2048, 0.004, &mut rng);
        let space = sim().space_for(Kernel::SpMV, vec![2048, 2048], 0);
        let mut s1 = named::default_csr(&space);
        s1.parallel = Some(Parallelize {
            var: LoopVar::outer(0),
            threads: 24,
            chunk: 16,
        });
        let mut s2 = s1.clone();
        s2.parallel = None;
        let tp = sim().time_matrix(&a, &s1, &space).unwrap();
        let ts = sim().time_matrix(&a, &s2, &space).unwrap();
        assert!(
            tp.seconds < ts.seconds,
            "24 threads {} should beat serial {}",
            tp.seconds,
            ts.seconds
        );
    }
}
