//! The candidate batch against a loop of single calls, and the array-backed
//! reuse tracker against the hash-set FIFO it replaced.
//!
//! A batch shares storage builds and walks between its members; sharing must
//! not show. Slot `i` of `time_batch` has to `==` what the batch of one
//! returns for `scheds[i]` — every `f64` of the `SimReport`, or the same
//! error — whatever else is in the batch and in whatever order, over a matrix
//! or an order-3 tensor, and the `sim.*` telemetry of one batch has to total
//! what the loop of single calls records.

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

use waco_check::props;
use waco_obs::Snapshot;
use waco_schedule::{named, Kernel, ScheduleSampler, Space, SuperSchedule};
use waco_sim::{MachineConfig, ReuseTracker, SimReport, Simulator};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::Operand;

/// The `waco-obs` registry is process-global; one telemetry comparison at a
/// time.
static OBS: Mutex<()> = Mutex::new(());

/// (kernel, sparse dims, dense extent): all six kernels, SpMM on both sides
/// of the register-tile width.
const CASES: [(Kernel, &[usize], usize); 7] = [
    (Kernel::SpMV, &[44, 36], 0),
    (Kernel::SpMM, &[44, 36], 16),
    (Kernel::SpMM, &[44, 36], 2),
    (Kernel::SDDMM, &[44, 36], 8),
    (Kernel::MTTKRP, &[11, 9, 13], 8),
    (Kernel::SpGEMM, &[44, 36], 24),
    (Kernel::SddmmSpmm, &[44, 36], 8),
];

/// A report, or the error with every field it carries.
type Outcome = Result<SimReport, String>;

fn outcome(r: waco_sim::Result<SimReport>) -> Outcome {
    r.map_err(|e| format!("{e:?}"))
}

/// Schedules no space accepts: a short loop order, a zero split, a chunk
/// beyond the menu, another kernel's schedule.
fn invalid(space: &Space) -> Vec<SuperSchedule> {
    let base = named::default_csr(space);
    let mut short = base.clone();
    short.loop_order.pop();
    let mut zero_split = base.clone();
    zero_split.splits[0] = 0;
    let mut big_chunk = base.clone();
    if let Some(p) = &mut big_chunk.parallel {
        p.chunk = 1 << 20;
    }
    let mut other_kernel = base;
    other_kernel.kernel = match space.kernel {
        Kernel::SpMV => Kernel::SpMM,
        _ => Kernel::SpMV,
    };
    vec![short, zero_split, big_chunk, other_kernel]
}

/// Everything `waco-sim` records, comparable across two runs. Counters are
/// exact. A histogram's count, extremes and buckets are exact too; its sum
/// is accumulated in call order, which a batch permutes, so it is compared
/// to rounding.
fn same_telemetry(a: &Snapshot, b: &Snapshot) {
    let sim_counters = |s: &Snapshot| -> Vec<(String, u64)> {
        let sim = s.counters.iter().filter(|(k, _)| k.starts_with("sim."));
        sim.map(|(k, v)| (k.clone(), *v)).collect()
    };
    assert_eq!(sim_counters(a), sim_counters(b));
    let names = |s: &Snapshot| -> Vec<String> {
        let sim = s.hists.keys().filter(|k| k.starts_with("sim."));
        sim.cloned().collect()
    };
    assert_eq!(names(a), names(b));
    for name in names(a) {
        let (x, y) = (&a.hists[&name], &b.hists[&name]);
        assert_eq!((x.count, x.min, x.max), (y.count, y.min, y.max), "{name}");
        assert_eq!(x.buckets, y.buckets, "{name}");
        assert!((x.sum - y.sum).abs() <= 1e-12 * x.sum.abs(), "{name} total");
    }
}

/// One batch — `scheds` with repeats and invalid schedules mixed in,
/// shuffled — against the loop of single calls, reports and telemetry.
fn check_batch(case: usize, mut scheds: Vec<SuperSchedule>, tight: bool, seed: u64) {
    let (kernel, dims, dense) = CASES[case];
    let mut rng = Rng64::seed_from(seed);
    let mut sim = Simulator::new(MachineConfig::xeon_like());
    if tight {
        // Budgets some candidates exceed: shared errors, not only reports.
        sim.storage_budget = 1500;
        sim.work_limit = 6e3;
    }
    let space = sim.space_for(kernel, dims.to_vec(), dense);
    let (matrix, tensor);
    let operand = match *dims {
        [r, c] => {
            matrix = gen::uniform_random(r, c, 0.12, &mut rng);
            Operand::Matrix(&matrix)
        }
        [i, k, l] => {
            tensor = gen::random_tensor3([i, k, l], 160, &mut rng);
            Operand::Tensor3(&tensor)
        }
        _ => unreachable!("2-D or 3-D cases"),
    };
    for _ in 0..scheds.len() / 3 {
        let again = rng.pick(&scheds).clone();
        scheds.push(again);
    }
    scheds.extend(invalid(&space));
    rng.shuffle(&mut scheds);

    let _exclusive = OBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    waco_obs::install();
    let singles: Vec<Outcome> = scheds
        .iter()
        .flat_map(|sched| sim.time_batch(operand, std::slice::from_ref(sched), &space))
        .map(outcome)
        .collect();
    let looped = waco_obs::uninstall();
    waco_obs::install();
    let batch: Vec<Outcome> = sim
        .time_batch(operand, &scheds, &space)
        .into_iter()
        .map(outcome)
        .collect();
    let batched = waco_obs::uninstall();

    assert_eq!(batch.len(), scheds.len());
    for (i, (got, want)) in batch.iter().zip(&singles).enumerate() {
        assert_eq!(got, want, "slot {i}: {}", scheds[i].describe(&space));
    }
    assert_eq!(
        looped.counter("sim.kernels_timed"),
        singles.iter().filter(|r| r.is_ok()).count() as u64
    );
    same_telemetry(&looped, &batched);
}

/// A `HashSet` + `VecDeque` FIFO: the tracker before it became an array.
fn hash_fifo(capacity: usize, keys: &[usize]) -> (u64, u64) {
    let capacity = capacity.max(1);
    let (mut set, mut queue) = (HashSet::new(), VecDeque::new());
    let (mut hits, mut misses) = (0, 0);
    for &key in keys {
        if set.contains(&key) {
            hits += 1;
            continue;
        }
        misses += 1;
        if set.len() >= capacity {
            if let Some(old) = queue.pop_front() {
                set.remove(&old);
            }
        }
        set.insert(key);
        queue.push_back(key);
    }
    (hits, misses)
}

props! {
    /// The shared sampler stream on every kernel, default and tight budgets.
    cases = 56,
    fn batch_slots_equal_single_calls(case in 0usize..7, tight in 0usize..2, n in 1usize..28,
                                      seed in 0u64..1_000_000) {
        let (kernel, dims, dense) = CASES[case];
        let space = Simulator::new(MachineConfig::xeon_like()).space_for(kernel, dims.to_vec(), dense);
        let scheds = ScheduleSampler::new(&space, seed).take_schedules(n);
        check_batch(case, scheds, tight == 1, seed);
    }

    /// Random key streams, streaming sweeps and blocked reuse, at capacity 1,
    /// below the domain, and at or beyond it (nothing is ever evicted).
    cases = 256,
    fn array_tracker_equals_hash_fifo(capacity in 0usize..48, domain in 1usize..40,
                                      pattern in 0usize..3, len in 0usize..700,
                                      seed in 0u64..1_000_000) {
        let mut rng = Rng64::seed_from(seed);
        let keys: Vec<usize> = (0..len)
            .map(|t| match pattern {
                0 => rng.below(domain),
                1 => t % domain,
                _ => (t / 24 * 4 + t % 4) % domain,
            })
            .collect();
        let mut tracker = ReuseTracker::new(capacity, domain);
        let mut hit_trace = Vec::new();
        for &key in &keys {
            hit_trace.push(tracker.access(key));
        }
        let (hits, misses) = hash_fifo(capacity, &keys);
        assert_eq!((tracker.hits(), tracker.misses()), (hits, misses));
        assert_eq!(hit_trace.iter().filter(|&&h| h).count() as u64, hits);
    }
}

/// The classic-configuration portfolio the tuner seeds its index with — the
/// candidates of a real tune come from it — as one batch per kernel: five
/// formats, each under the whole (threads × chunk) menu.
#[test]
fn portfolio_batch_equals_single_calls() {
    for (case, &(kernel, dims, dense)) in CASES.iter().enumerate() {
        let space =
            Simulator::new(MachineConfig::xeon_like()).space_for(kernel, dims.to_vec(), dense);
        check_batch(case, named::portfolio(&space), false, 7 + case as u64);
    }
}
