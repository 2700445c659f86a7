//! `kernel_exec`: real wall-clock `PlannedKernel::run` over a fixed plan set.
//!
//! Chosen because `exec` and `format` do all the work and tuning and serving
//! none: it is the roofline of the kernel tier — every fast path judged
//! against computed bytes moved and a stream probe of the same run, not
//! against the interpreter — and the bypass workload for every serve or tune
//! optimisation (prediction there: no change).
//!
//! The plan set is fixed by design; the seed only draws the nonzero
//! positions and the dense operands, so run times from different seeds
//! measure the same work.

use std::hint::black_box;
use std::time::Instant;

use waco_exec::{ExecutionPlan, Executor, FastPath, KernelArgs, KernelOutput, PlannedKernel};
use waco_format::{LevelStorage, SparseStorage};
use waco_schedule::named::default_csr;
use waco_schedule::{Kernel, LoopVar, Space, SuperSchedule};
use waco_serve::{Tuner, WacoTuner, WacoTunerConfig};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CsrMatrix, DenseMatrix, DenseVector};

use crate::stages;
use crate::trace::Tracer;
use crate::util::{geomean, median, mix, nproc, obs_counter, quantile, Outcome, SETUP_REPEATS};

const DENSE: usize = 32;
/// Output columns of the fused kernel's SpMM half.
const FUSED_T: usize = 8;
/// Every plan runs at least this often, however short the window.
const MIN_ROUNDS: usize = 30;
/// Size of the down-sized twin a tuned schedule is picked on.
const TWIN_N: usize = 1024;

/// The sparse operands. Sizes follow two rules from the issue that pull
/// apart: operands of ≥ 16 MiB (≈ 1M nonzeros, 4× the 4 MiB L2) and 2–50 ms
/// per run with ≥ 30 runs per plan. SpMV plans keep the full size; SpMM,
/// SpGEMM, the fused kernel and above all the generic-walker SDDMM
/// (≈ 1.2 µs per nonzero) are sized down until a run fits the time rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// uniform, 131072², ≈ 1.05M nnz.
    Uniform1M,
    /// 16×16 blocks at 90 % fill, 131072², ≈ 0.94M nnz.
    Blocked1M,
    /// 5-point mesh, 448×448 grid, ≈ 1.0M nnz.
    Mesh1M,
    /// power-law rows, 32768², ≈ 0.26M nnz.
    PowerLaw256K,
    /// uniform, 16384², ≈ 0.13M nnz (SpGEMM multiplies it by itself).
    Uniform128K,
    /// banded, 2048², ≈ 14k nnz.
    Banded16K,
}

impl Operand {
    const ALL: [Operand; 6] = [
        Operand::Uniform1M,
        Operand::Blocked1M,
        Operand::Mesh1M,
        Operand::PowerLaw256K,
        Operand::Uniform128K,
        Operand::Banded16K,
    ];

    /// Rows (and columns) of the operand.
    fn n(self) -> usize {
        match self {
            Operand::Uniform1M | Operand::Blocked1M => 131_072,
            Operand::Mesh1M => 448 * 448,
            Operand::PowerLaw256K => 32_768,
            Operand::Uniform128K => 16_384,
            Operand::Banded16K => 2_048,
        }
    }

    /// The family at `n` rows: [`Self::n`] for the operand itself,
    /// [`TWIN_N`] for the twin its tuned schedule is picked on.
    fn generate(self, n: usize, rng: &mut Rng64) -> CooMatrix {
        match self {
            Operand::Uniform1M | Operand::Uniform128K => {
                gen::uniform_random(n, n, 8.0 / n as f64, rng)
            }
            Operand::Blocked1M => gen::blocked(n, n, 16, n / 32, 0.9, rng),
            Operand::Mesh1M => {
                let side = (n as f64).sqrt().round() as usize;
                gen::mesh2d(side, side)
            }
            Operand::PowerLaw256K => gen::powerlaw_rows(n, n, 8.0, 1.1, rng),
            Operand::Banded16K => gen::banded(n, 8, 0.4, rng),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sched {
    /// `named::default_csr`.
    DefaultCsr,
    /// What the tuner picked on the operand's twin.
    Tuned,
    /// Column-major SpMV over row-major CSR.
    Discordant,
    /// Sparse splits `[s, s]` in the concordant BCSR traversal.
    Blocks(usize),
}

struct PlanSpec {
    name: &'static str,
    kernel: Kernel,
    operand: Operand,
    sched: Sched,
    /// The fast path this row exists to measure; `None` for a tuned row,
    /// which takes whatever its schedule selects.
    expect: Option<FastPath>,
}

const fn plan(
    name: &'static str,
    kernel: Kernel,
    operand: Operand,
    sched: Sched,
    expect: Option<FastPath>,
) -> PlanSpec {
    PlanSpec {
        name,
        kernel,
        operand,
        sched,
        expect,
    }
}

/// The fixed plan set: default CSR and the tuned schedule for SpMV, SpMM(32)
/// and SDDMM(32), one row per `FastPath` variant, and the generic walker on
/// a kernel that has fast paths.
#[rustfmt::skip]
const PLANS: [PlanSpec; 11] = [
    plan("spmv_csr", Kernel::SpMV, Operand::Uniform1M, Sched::DefaultCsr, Some(FastPath::CsrRows)),
    plan("spmv_tuned", Kernel::SpMV, Operand::Uniform1M, Sched::Tuned, None),
    plan("spmm_csr", Kernel::SpMM, Operand::PowerLaw256K, Sched::DefaultCsr, Some(FastPath::RegBlockSpmm)),
    plan("spmm_tuned", Kernel::SpMM, Operand::PowerLaw256K, Sched::Tuned, None),
    plan("sddmm_csr", Kernel::SDDMM, Operand::Banded16K, Sched::DefaultCsr, Some(FastPath::None)),
    plan("sddmm_tuned", Kernel::SDDMM, Operand::Banded16K, Sched::Tuned, None),
    plan("spmv_bcsr", Kernel::SpMV, Operand::Blocked1M, Sched::Blocks(16), Some(FastPath::BcsrBlock)),
    plan("spmv_discordant", Kernel::SpMV, Operand::Mesh1M, Sched::Discordant, Some(FastPath::DiscordantCsr)),
    plan("spmv_generic", Kernel::SpMV, Operand::Blocked1M, Sched::Blocks(4), Some(FastPath::None)),
    plan("spgemm", Kernel::SpGEMM, Operand::Uniform128K, Sched::DefaultCsr, Some(FastPath::GustavsonSpgemm)),
    plan("sddmm_spmm", Kernel::SddmmSpmm, Operand::PowerLaw256K, Sched::DefaultCsr, Some(FastPath::FusedSddmmSpmm)),
];

/// The kernels whose tuned plan is compared with their default-CSR plan.
const TUNED_KERNELS: [(&str, &str, &str); 3] = [
    ("spmv", "spmv_csr", "spmv_tuned"),
    ("spmm", "spmm_csr", "spmm_tuned"),
    ("sddmm", "sddmm_csr", "sddmm_tuned"),
];

fn dense_extent(kernel: Kernel, a: &CooMatrix) -> usize {
    match kernel {
        Kernel::SpMV => 0,
        Kernel::SpGEMM => a.ncols(),
        _ => DENSE,
    }
}

/// Dense (or second sparse) operands of one plan, owned so every run
/// borrows the same buffers.
enum Operands {
    Spmv {
        x: DenseVector,
    },
    Spmm {
        b: DenseMatrix,
    },
    Sddmm {
        b: DenseMatrix,
        c: DenseMatrix,
    },
    Spgemm {
        b: CsrMatrix,
    },
    Fused {
        b: DenseMatrix,
        c: DenseMatrix,
        f: DenseMatrix,
    },
}

impl Operands {
    fn generate(kernel: Kernel, a: &CooMatrix, rng: &mut Rng64) -> Self {
        let mut dense = |r: usize, c: usize| DenseMatrix::from_fn(r, c, |_, _| rng.value());
        match kernel {
            Kernel::SpMV => Operands::Spmv {
                x: DenseVector::from_vec(dense(1, a.ncols()).as_slice().to_vec()),
            },
            Kernel::SpMM => Operands::Spmm {
                b: dense(a.ncols(), DENSE),
            },
            Kernel::SDDMM => Operands::Sddmm {
                b: dense(a.nrows(), DENSE),
                c: dense(DENSE, a.ncols()),
            },
            Kernel::SpGEMM => Operands::Spgemm {
                b: CsrMatrix::from_coo(a),
            },
            Kernel::SddmmSpmm => Operands::Fused {
                b: dense(a.nrows(), DENSE),
                c: dense(DENSE, a.ncols()),
                f: dense(a.ncols(), FUSED_T),
            },
            Kernel::MTTKRP => unreachable!("the plan set holds matrix kernels only"),
        }
    }

    fn args(&self) -> KernelArgs<'_> {
        match self {
            Operands::Spmv { x } => KernelArgs::Spmv { x },
            Operands::Spmm { b } => KernelArgs::Spmm { b },
            Operands::Sddmm { b, c } => KernelArgs::Sddmm { b, c },
            Operands::Spgemm { b } => KernelArgs::Spgemm { b },
            Operands::Fused { b, c, f } => KernelArgs::SddmmSpmm { b, c, f },
        }
    }

    /// Bytes of the operands read besides the stored sparse one.
    fn bytes(&self) -> usize {
        let mat = |m: &DenseMatrix| m.as_slice().len() * 4;
        match self {
            Operands::Spmv { x } => x.len() * 4,
            Operands::Spmm { b } => mat(b),
            Operands::Sddmm { b, c } => mat(b) + mat(c),
            Operands::Spgemm { b } => {
                b.row_ptr().len() * 8 + b.col_idx().len() * 8 + b.vals().len() * 4
            }
            Operands::Fused { b, c, f } => mat(b) + mat(c) + mat(f),
        }
    }
}

fn storage_bytes(st: &SparseStorage) -> usize {
    let levels: usize = (0..st.num_levels())
        .map(|l| match st.level(l) {
            LevelStorage::Uncompressed { .. } => 0,
            LevelStorage::Compressed { pos, crd } => (pos.len() + crd.len()) * 8,
        })
        .sum();
    levels + st.vals().len() * 4
}

fn output_bytes(out: &KernelOutput) -> usize {
    match out {
        KernelOutput::Vector(v) => v.len() * 4,
        KernelOutput::Matrix(m) => m.as_slice().len() * 4,
        KernelOutput::Sparse(m) => m.nnz() * 4,
        KernelOutput::Csr(m) => m.row_ptr().len() * 8 + m.nnz() * 12,
    }
}

struct Prepared {
    spec: &'static PlanSpec,
    operand: usize,
    space: Space,
    schedule: SuperSchedule,
    kernel: PlannedKernel,
    operands: Operands,
    prepare_ms: f64,
}

struct Setup {
    operands: Vec<CooMatrix>,
    plans: Vec<Prepared>,
    /// Simulated default / tuned seconds of each twin tune.
    twin_speedups: Vec<f64>,
}

fn schedule_for(spec: &PlanSpec, space: &Space, tuned: Option<&SuperSchedule>) -> SuperSchedule {
    let mut sched = default_csr(space);
    match spec.sched {
        Sched::DefaultCsr => {}
        Sched::Tuned => return tuned.expect("a tuned schedule for every tuned row").clone(),
        Sched::Discordant => {
            // `k` is a reduction dimension, so the column-major nest is serial.
            sched.parallel = None;
            sched.loop_order = vec![
                LoopVar::outer(1),
                LoopVar::outer(0),
                LoopVar::inner(0),
                LoopVar::inner(1),
            ];
        }
        Sched::Blocks(s) => sched.splits = vec![s, s],
    }
    sched
}

/// Generates the operands, tunes the twins, prepares every plan. `tr`
/// records `exec.lower` and `format.materialize` under one span per plan.
fn set_up(seed: u64, tr: &mut Tracer, out: &mut Outcome) -> Setup {
    let operands: Vec<CooMatrix> = Operand::ALL
        .iter()
        .enumerate()
        .map(|(i, op)| op.generate(op.n(), &mut Rng64::seed_from(mix(seed, 0xe0 + i as u64))))
        .collect();

    let tuner = WacoTuner::new(WacoTunerConfig::default());
    let sim = stages::simulator();
    let mut plans = Vec::new();
    let mut twin_speedups = Vec::new();
    for (p, spec) in PLANS.iter().enumerate() {
        // `Operand::ALL` is in declaration order.
        let operand = spec.operand as usize;
        let a = &operands[operand];
        let space = Space::new(
            spec.kernel,
            vec![a.nrows(), a.ncols()],
            dense_extent(spec.kernel, a),
        );

        let tuned = (spec.sched == Sched::Tuned).then(|| {
            let twin = spec.operand.generate(
                TWIN_N.min(spec.operand.n()),
                &mut Rng64::seed_from(mix(seed, 0x7e1 + p as u64)),
            );
            let dense = dense_extent(spec.kernel, &twin);
            let outcome = tuner
                .tune(&twin, spec.kernel, dense)
                .expect("tuning a twin");
            let twin_space = sim.space_for(spec.kernel, vec![twin.nrows(), twin.ncols()], dense);
            let baseline = sim
                .time_matrix(&twin, &default_csr(&twin_space), &twin_space)
                .map_or(f64::INFINITY, |r| r.seconds);
            if outcome.kernel_seconds > baseline {
                out.error(format!(
                    "{}: tuned twin is slower than its default",
                    spec.name
                ));
            }
            twin_speedups.push(baseline / outcome.kernel_seconds);
            outcome.schedule
        });
        let mut schedule = schedule_for(spec, &space, tuned.as_ref());

        let request = p as u64;
        let t = Instant::now();
        tr.begin("exec.prepare", request);
        let mut built = build(a, &schedule, &space, request, tr);
        if built.is_err() && spec.sched == Sched::Tuned {
            // A twin's schedule may not fit the full operand's storage
            // budget; the row then measures the default and says so.
            out.warnings.push(format!(
                "{}: the twin's schedule does not prepare on the full operand; using default CSR",
                spec.name
            ));
            schedule = default_csr(&space);
            built = build(a, &schedule, &space, request, tr);
        }
        tr.end();
        let prepare_ms = t.elapsed().as_secs_f64() * 1e3;
        let kernel = built.unwrap_or_else(|e| panic!("{}: prepare failed: {e}", spec.name));
        if spec
            .expect
            .is_some_and(|want| want != kernel.plan().fast_path())
        {
            out.error(format!(
                "{}: expected fast path {:?}, the plan selected {:?} ({})",
                spec.name,
                spec.expect,
                kernel.plan().fast_path(),
                kernel.plan().fast_path_reason()
            ));
        }
        let operands_rng = &mut Rng64::seed_from(mix(seed, 0xd0 + p as u64));
        plans.push(Prepared {
            spec,
            operand,
            space,
            schedule,
            operands: Operands::generate(spec.kernel, a, operands_rng),
            kernel,
            prepare_ms,
        });
    }
    Setup {
        operands,
        plans,
        twin_speedups,
    }
}

/// `Executor::prepare` in its two halves — lowering, then format
/// materialisation — so the traced pass can time each.
fn build(
    a: &CooMatrix,
    schedule: &SuperSchedule,
    space: &Space,
    request: u64,
    tr: &mut Tracer,
) -> waco_exec::Result<PlannedKernel> {
    let plan = tr.time("exec.lower", request, || {
        ExecutionPlan::build(schedule, space)
    })?;
    let st = tr.time("format.materialize", request, || {
        SparseStorage::from_matrix(a, plan.spec())
    })?;
    Executor::planned().prepare_stored(plan, st)
}

fn close(expected: f64, actual: f64) -> bool {
    (expected - actual).abs() <= 1e-3 + 1e-3 * expected.abs().max(actual.abs())
}

fn dot(b: &DenseMatrix, i: usize, c: &DenseMatrix, j: usize) -> f64 {
    (0..b.ncols())
        .map(|k| f64::from(b.get(i, k)) * f64::from(c.get(k, j)))
        .sum()
}

/// Checks one plan's output against a straight loop over the COO triplets
/// with `f64` accumulators, at abs = rel = 1e-3. Returns the first mismatch.
fn check(a: &CooMatrix, operands: &Operands, got: &KernelOutput) -> Result<(), String> {
    /// A dense `nrows × cols` result, built by `fill(row, r, c, value)` per
    /// stored triplet.
    fn dense_rows(
        a: &CooMatrix,
        cols: usize,
        mut fill: impl FnMut(&mut [f64], usize, usize, f64),
    ) -> Vec<f64> {
        let mut want = vec![0.0f64; a.nrows() * cols];
        for (r, c, v) in a.iter() {
            fill(&mut want[r * cols..(r + 1) * cols], r, c, f64::from(v));
        }
        want
    }
    let compare = |want: &[f64], got: &[f32]| {
        if want.len() != got.len() {
            return Err(format!(
                "output has {} elements, expected {}",
                got.len(),
                want.len()
            ));
        }
        match want
            .iter()
            .zip(got)
            .position(|(&w, &g)| !close(w, f64::from(g)))
        {
            Some(i) => Err(format!("element {i}: expected {}, got {}", want[i], got[i])),
            None => Ok(()),
        }
    };
    match (operands, got) {
        (Operands::Spmv { x }, KernelOutput::Vector(y)) => {
            let want = dense_rows(a, 1, |row, _, c, v| {
                row[0] += v * f64::from(x.as_slice()[c])
            });
            compare(&want, y.as_slice())
        }
        (Operands::Spmm { b }, KernelOutput::Matrix(out)) => {
            let want = dense_rows(a, b.ncols(), |row, _, c, v| {
                for (w, &bv) in row.iter_mut().zip(b.row(c)) {
                    *w += v * f64::from(bv);
                }
            });
            compare(&want, out.as_slice())
        }
        (Operands::Sddmm { b, c }, KernelOutput::Sparse(out)) => {
            for (r, col, v) in a.iter() {
                let want = f64::from(v) * dot(b, r, c, col);
                let got = f64::from(out.get(r, col).unwrap_or(0.0));
                if !close(want, got) {
                    return Err(format!("entry ({r},{col}): expected {want}, got {got}"));
                }
            }
            Ok(())
        }
        (Operands::Spgemm { b }, KernelOutput::Csr(out)) => {
            let mut row = std::collections::BTreeMap::new();
            let mut entries = a.iter().peekable();
            for r in 0..a.nrows() {
                row.clear();
                while let Some(&(_, k, v)) = entries.peek().filter(|e| e.0 == r) {
                    let (cols, vals) = b.row(k);
                    for (&j, &w) in cols.iter().zip(vals) {
                        *row.entry(j).or_insert(0.0f64) += f64::from(v) * f64::from(w);
                    }
                    entries.next();
                }
                let (cols, vals) = out.row(r);
                for (&j, &g) in cols.iter().zip(vals) {
                    let want = row.remove(&j).unwrap_or(0.0);
                    if !close(want, f64::from(g)) {
                        return Err(format!("entry ({r},{j}): expected {want}, got {g}"));
                    }
                }
                if let Some((j, want)) = row.iter().find(|(_, w)| !close(**w, 0.0)) {
                    return Err(format!(
                        "entry ({r},{j}): expected {want}, the output has none"
                    ));
                }
            }
            Ok(())
        }
        (Operands::Fused { b, c, f }, KernelOutput::Matrix(out)) => {
            let want = dense_rows(a, f.ncols(), |row, r, col, v| {
                let d = v * dot(b, r, c, col);
                for (w, &fv) in row.iter_mut().zip(f.row(col)) {
                    *w += d * f64::from(fv);
                }
            });
            compare(&want, out.as_slice())
        }
        _ => Err("the output variant does not match the kernel".to_string()),
    }
}

/// Triad `a[i] = b[i] + s·c[i]` over three arrays that together match the
/// plan set's largest footprint, split over the cores the kernels may use.
/// The host's 260 MiB L3 is shared, so this is a same-footprint bound, not
/// DRAM bandwidth. Best of several passes, in GB/s.
fn stream_gbps(footprint_bytes: usize) -> f64 {
    let len = (footprint_bytes / 3 / 4).max(1 << 20);
    let threads = nproc().min(4);
    let mut a = vec![0.0f32; len];
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut best = f64::INFINITY;
    for _ in 0..8 {
        let t = Instant::now();
        std::thread::scope(|s| {
            let chunk = len.div_ceil(threads);
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, &b), &c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&mut a);
    }
    (3 * len * 4) as f64 / best * 1e-9
}

struct Timed {
    /// Per plan, every run in milliseconds.
    runs_ms: Vec<Vec<f64>>,
    /// Per plan, bytes of the last output.
    out_bytes: Vec<usize>,
    failed: u64,
}

/// Round-robin over the plan set, so a tuned plan and its default-CSR plan
/// interleave and drift hits every row alike.
fn timed_rounds(setup: &Setup, seconds: f64, out: &mut Outcome) -> Timed {
    let mut timed = Timed {
        runs_ms: vec![Vec::new(); setup.plans.len()],
        out_bytes: vec![0; setup.plans.len()],
        failed: 0,
    };
    let phase = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || phase.elapsed().as_secs_f64() < seconds {
        for (p, plan) in setup.plans.iter().enumerate() {
            let args = plan.operands.args();
            let t = Instant::now();
            let result = plan.kernel.run(black_box(args));
            timed.runs_ms[p].push(t.elapsed().as_secs_f64() * 1e3);
            match black_box(result) {
                Ok(o) => timed.out_bytes[p] = output_bytes(&o),
                Err(e) => {
                    timed.failed += 1;
                    out.error(format!("{}: run failed: {e}", plan.spec.name));
                }
            }
        }
        round += 1;
    }
    timed
}

/// One untimed run per plan, checked against the COO reference.
fn check_all(setup: &Setup, out: &mut Outcome) -> u64 {
    let mut wrong = 0;
    for plan in &setup.plans {
        let verdict = plan
            .kernel
            .run(plan.operands.args())
            .map_err(|e| e.to_string())
            .and_then(|o| check(&setup.operands[plan.operand], &plan.operands, &o));
        if let Err(e) = verdict {
            wrong += 1;
            out.error(format!("{}: wrong answer: {e}", plan.spec.name));
        }
    }
    wrong
}

pub fn run(seed: u64, seconds: f64, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut prepare_ms: Vec<Vec<f64>> = vec![Vec::new(); PLANS.len()];
    let mut setup = None;
    for k in 0..SETUP_REPEATS {
        let t = if k == 0 { start } else { Instant::now() };
        drop(setup.take());
        let s = set_up(seed, &mut off, &mut out);
        setups.push(t.elapsed().as_secs_f64());
        for (p, plan) in s.plans.iter().enumerate() {
            prepare_ms[p].push(plan.prepare_ms);
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    out.metric("setup_s", median(&mut setups), "s", setups.len());

    let timed = timed_rounds(&setup, seconds, &mut out);
    let runs: u64 = timed.runs_ms.iter().map(|r| r.len() as u64).sum();
    out.phase("run", runs, timed.failed);
    let wrong = check_all(&setup, &mut out);
    out.phase("check", setup.plans.len() as u64, wrong);

    // Quiet-machine figures (see `util`): a plan costs what its fastest
    // round cost. The median is the geomean over the plan set, the 90th
    // percentile is taken across the plans (the second slowest of eleven),
    // the rate is plans per second of kernel time.
    let rounds = timed.runs_ms[0].len();
    let mut fastest: Vec<f64> = timed
        .runs_ms
        .iter()
        .map(|r| r.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let per_s = PLANS.len() as f64 / (fastest.iter().sum::<f64>() * 1e-3);
    out.metric("op_ms_p50", geomean(&fastest), "ms", rounds);
    out.metric("op_ms_p90", quantile(&mut fastest, 0.9), "ms", rounds);
    out.metric("ops_per_s", per_s, "1/s", runs as usize);
    out.metric(
        "tuned_sim_speedup",
        geomean(&setup.twin_speedups),
        "x",
        setup.twin_speedups.len(),
    );
    let prepare: Vec<f64> = prepare_ms.iter_mut().map(|p| median(p)).collect();
    out.metric("prepare_ms_geomean", geomean(&prepare), "ms", SETUP_REPEATS);
    out.fact(
        "aliases",
        "op_ms_p50=run_ms_geomean op_ms_p90=90th percentile across the plan set ops_per_s=plan runs per second of kernel time",
    );
    out
}

pub fn trace(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let setup = set_up(seed, tr, &mut out);
    let parks_before = obs_counter("runtime.parks");
    let mut timed = timed_rounds(&setup, seconds, &mut out);
    let runs: u64 = timed.runs_ms.iter().map(|r| r.len() as u64).sum();
    out.metric(
        "runtime.parks",
        (obs_counter("runtime.parks") - parks_before) as f64,
        "count",
        runs as usize,
    );
    out.phase("run", runs, timed.failed);
    let wrong = check_all(&setup, &mut out);
    out.phase("check", setup.plans.len() as u64, wrong);

    let footprint = setup
        .plans
        .iter()
        .zip(&timed.out_bytes)
        .map(|(p, &o)| storage_bytes(p.kernel.storage()) + p.operands.bytes() + o)
        .max()
        .expect("a non-empty plan set");
    let stream = stream_gbps(footprint);
    out.metric("exec.stream_gbps", stream, "GB/s", 8);
    out.fact(
        "exec.stream_probe",
        format!("triad over 3 arrays totalling {footprint} bytes, {} threads; caches: L2 4 MiB/core, L3 260 MiB host-shared, so a same-footprint bound, not DRAM", nproc().min(4)),
    );

    let rounds = timed.runs_ms[0].len();
    let mut medians = Vec::new();
    for (p, plan) in setup.plans.iter().enumerate() {
        let name = plan.spec.name;
        let ms = quantile(&mut timed.runs_ms[p], 0.5);
        medians.push(ms);
        let bytes =
            storage_bytes(plan.kernel.storage()) + plan.operands.bytes() + timed.out_bytes[p];
        let gbps = bytes as f64 / (ms * 1e-3) * 1e-9;
        out.metric(format!("exec.run_ms.{name}"), ms, "ms", rounds);
        out.metric(format!("exec.bytes.{name}"), bytes as f64, "B", 1);
        out.metric(format!("exec.gbps.{name}"), gbps, "GB/s", rounds);
        out.metric(
            format!("exec.pct_stream.{name}"),
            100.0 * gbps / stream,
            "%",
            rounds,
        );
        out.fact(
            format!("exec.fast_path.{name}"),
            format!(
                "{}: {} [{}; bytes are computed from storage + operand + output sizes]",
                plan.kernel.plan().fast_path().wire_name(),
                plan.kernel.plan().fast_path_reason(),
                plan.schedule.describe(&plan.space),
            ),
        );
    }
    for (kernel, csr, tuned) in TUNED_KERNELS {
        let ms = |name: &str| {
            medians[PLANS
                .iter()
                .position(|p| p.name == name)
                .expect("listed plan")]
        };
        out.metric(
            format!("exec.tuned_vs_csr_wall.{kernel}"),
            ms(csr) / ms(tuned),
            "x",
            rounds,
        );
    }
    let mut prepare: Vec<f64> = setup.plans.iter().map(|p| p.prepare_ms).collect();
    out.metric(
        "exec.prepare_ms_geomean",
        geomean(&prepare),
        "ms",
        prepare.len(),
    );
    out.metric(
        "exec.prepare_ms_max",
        quantile(&mut prepare, 1.0),
        "ms",
        prepare.len(),
    );
    tr.report(&mut out, "exec.lower", "exec.lower_us", "us", 1e6);
    tr.report(
        &mut out,
        "format.materialize",
        "format.materialize_ms",
        "ms",
        1e3,
    );
    out
}
