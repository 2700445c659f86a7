//! Micro-benchmarks of every substrate: format assembly, the scheduled
//! interpreter (concordant vs discordant), the cost simulator, WACONet
//! inference, the program embedder, HNSW queries, and the parallel
//! runtime (persistent pool vs spawn-per-call, and the claim-grain rule).
//!
//! These benchmark the *reproduction's own machinery* (the paper's
//! tables/figures are regenerated by the `table*`/`fig*` binaries; see
//! EXPERIMENTS.md). Runs on the in-tree harness (`waco_bench::micro`),
//! prints a table, and writes `results/microbench.json`.
//!
//! ```sh
//! cargo bench -p waco-bench            # full precision
//! cargo bench -p waco-bench -- --smoke # CI-speed pass over every case
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use waco_anns::ScheduleIndex;
use waco_bench::Harness;
use waco_exec::{oracle, Executor, KernelArgs};
use waco_format::{FormatSpec, SparseStorage};
use waco_model::{CostModel, CostModelConfig};
use waco_runtime::{DisjointMut, ThreadPool};
use waco_schedule::{encode, named, Kernel, LoopVar, Parallelize, Space, SuperSchedule};
use waco_sim::{MachineConfig, Simulator};
use waco_sparseconv::waconet::{WacoNet, WacoNetConfig};
use waco_sparseconv::{Extractor, Pattern};
use waco_tensor::gen::{self, Rng64};
use waco_tensor::{CooMatrix, CsrMatrix, DenseVector};

fn bench_matrix(n: usize) -> CooMatrix {
    let mut rng = Rng64::seed_from(42);
    gen::uniform_random(n, n, 8.0 / n as f64, &mut rng)
}

fn format_assembly(h: &mut Harness) {
    let m = bench_matrix(1024);
    for (name, spec) in [
        ("csr_1024", FormatSpec::csr(1024, 1024)),
        ("bcsr8_1024", FormatSpec::bcsr(1024, 1024, 8, 8)),
        ("dcsr_1024", FormatSpec::dcsr(1024, 1024)),
    ] {
        let bench = format!("format_assembly/{name}");
        h.bench(&bench, || SparseStorage::from_matrix(&m, &spec).unwrap());
        let per_nnz = h.stat(&bench).unwrap().median_ns / m.nnz() as f64;
        h.record_value(&format!("{bench}_ns_per_nnz"), per_nnz);
    }
}

fn interpreter(h: &mut Harness) {
    let m = bench_matrix(512);
    let space = Space::new(Kernel::SpMV, vec![512, 512], 0);
    let x = DenseVector::from_fn(512, |i| i as f32 * 0.001);
    let mut concordant = named::default_csr(&space);
    concordant.parallel = None;
    h.bench("interpreter_spmv/concordant_csr", || {
        Executor::planned()
            .prepare(&m, &concordant, &space)
            .unwrap()
            .run(KernelArgs::Spmv { x: &x })
            .unwrap()
    });
    let mut discordant = concordant.clone();
    discordant.loop_order = vec![
        LoopVar::outer(1),
        LoopVar::outer(0),
        LoopVar::inner(0),
        LoopVar::inner(1),
    ];
    h.bench("interpreter_spmv/discordant_csr", || {
        Executor::planned()
            .prepare(&m, &discordant, &space)
            .unwrap()
            .run(KernelArgs::Spmv { x: &x })
            .unwrap()
    });
    let mut parallel = named::default_csr(&space);
    parallel.parallel = Some(waco_schedule::Parallelize {
        var: LoopVar::outer(0),
        threads: 4,
        chunk: 32,
    });
    h.bench("interpreter_spmv/parallel_4t", || {
        Executor::planned()
            .prepare(&m, &parallel, &space)
            .unwrap()
            .run(KernelArgs::Spmv { x: &x })
            .unwrap()
    });
}

fn simulator(h: &mut Harness) {
    let m = bench_matrix(1024);
    let sim = Simulator::new(MachineConfig::xeon_like());
    let space = sim.space_for(Kernel::SpMV, vec![1024, 1024], 0);
    let sched = named::default_csr(&space);
    h.bench("simulator/spmv_1024", || {
        sim.time_matrix(&m, &sched, &space).unwrap()
    });

    // The last step of a tune, shaped like a real one: the default CSR,
    // three survivors that keep its format and differ only in `parallelize`,
    // and two blocked formats — six candidates, three storages, three nests.
    // The matrix is 4x4-blocked (8 nnz per row like `bench_matrix`), as a
    // matrix whose top-k holds blocked formats is: every candidate then
    // costs about the same, as in a real tune. `loop` is one `time_matrix`
    // per candidate, `batch` the one call `Waco::tune_inner` makes; `main`
    // gates batch >= 1.3x loop.
    for n in [256, 1024] {
        let m = gen::blocked(n, n, 4, n * 5 / 9, 0.9, &mut Rng64::seed_from(42));
        let space = sim.space_for(Kernel::SpMM, vec![n, n], 32);
        let default = named::default_csr(&space);
        let reparallelized = |threads, chunk| {
            let mut s = default.clone();
            s.parallel = Some(Parallelize {
                var: LoopVar::outer(0),
                threads,
                chunk,
            });
            s
        };
        let blocked = |split: usize| {
            named::concordant(&space, vec![split, split, 1], default.format.clone(), 24, 4)
        };
        let candidates = [
            reparallelized(24, 1),
            reparallelized(48, 8),
            reparallelized(24, 64),
            blocked(4),
            blocked(2),
            default.clone(),
        ];
        h.bench(&format!("sim_measure/loop_6cand_{n}"), || {
            let mut total = 0.0;
            for sched in &candidates {
                total += sim.time_matrix(&m, sched, &space).unwrap().seconds;
            }
            total
        });
        h.bench(&format!("sim_measure/batch_6cand_{n}"), || {
            let reports = sim.time_batch(&m, &candidates, &space);
            reports
                .iter()
                .map(|r| r.as_ref().unwrap().seconds)
                .sum::<f64>()
        });
    }
}

fn waconet_forward(h: &mut Harness) {
    let m = bench_matrix(512);
    let p = Pattern::from_matrix(&m);
    let mut rng = Rng64::seed_from(1);
    let mut net = WacoNet::new_2d(WacoNetConfig::tiny(), &mut rng);
    h.bench("waconet/tiny_forward_4k_nnz", || net.forward(&p));

    // The serving extractor at three sizes of the same family (8 nnz per
    // row: 2k, 8k and 32k input sites). Beside each time goes the number of
    // sites the layers actually processed (the `sparseconv.active_sites`
    // counter of one traced pass) so `main` can gate ns/site: the rulebook
    // convolution must stay linear in its sites. Input sites would not do as
    // the denominator — the sparser 4096² pattern merges later in the
    // strided pyramid and processes 1.6x the sites per nonzero of the 256² one.
    let mut net = WacoNet::new_2d(WacoNetConfig::small(), &mut rng);
    for (class, n) in [("2k", 256), ("8k", 1024), ("32k", 4096)] {
        let p = Pattern::from_matrix(&bench_matrix(n));
        waco_obs::install();
        net.forward(&p);
        let sites = waco_obs::uninstall().counter("sparseconv.active_sites");
        h.record_value(&format!("waconet/active_sites_{class}"), sites as f64);
        h.bench(&format!("waconet/small_forward_{class}_sites"), || {
            net.forward(&p)
        });
    }
}

fn embedder_and_anns(h: &mut Harness) {
    let mut rng = Rng64::seed_from(2);
    let space = Space::new(Kernel::SpMM, vec![512, 512], 32);
    let layout = encode::layout(&space);
    let model = CostModel::for_kernel(Kernel::SpMM, &layout, CostModelConfig::tiny(), &mut rng);
    let sched = SuperSchedule::sample(&space, &mut rng);
    let enc = encode::encode_structured(&sched, &space);
    h.bench("embedder/program_embed_one", || model.embed(&enc));

    let index = ScheduleIndex::build(&model, &space, 512, 7);
    let feat = vec![0.1f32; 32];
    h.bench("anns/query_512", || {
        index.query_with_feature(&model, &feat, 10, 64)
    });
}

/// A body over ranges of rows, the way a parallel region runs it.
type RowRanges<'a> = &'a (dyn Fn(std::ops::Range<usize>) + Sync);

/// CSR SpMV into one `y` written in place: `region` decides which ranges of
/// rows run where, each range writes its own rows.
fn spmv_in_place(csr: &CsrMatrix, x: &DenseVector, region: impl Fn(RowRanges<'_>)) -> Vec<f32> {
    let mut y = vec![0.0f32; csr.nrows()];
    // SAFETY: a range of rows writes only those rows of `y`.
    let out = unsafe { DisjointMut::new(&mut y) };
    region(&|rows: std::ops::Range<usize>| {
        let mut mine = out.claim(rows.start);
        for (yi, r) in mine.slice(rows.clone()).iter_mut().zip(rows) {
            let (cols, vals) = csr.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                *yi += v * x.as_slice()[c];
            }
        }
    });
    y
}

/// The parallel region in numbers. Pool-vs-spawn on the paper's hot path: a
/// 10k-row SpMV asking for 8 threads with dynamic chunks, every range
/// writing its rows of one `y` in place — the persistent pool must be no
/// slower than spawning fresh threads per call, the whole point of
/// `waco-runtime`. Then the two halves of the batched-claim rule, through
/// `PlannedKernel::run` on the `kernel_exec` SpMV shape, both gated by
/// `main`: chunk 1 must cost what chunk 128 costs (one `fetch_add` per row
/// was 3.6x), and on power-law rows the batched claims must stay close to
/// the best two contiguous halves could do.
fn parallel_runtime(h: &mut Harness) {
    const N: usize = 10_000;
    const THREADS: usize = 8;
    const CHUNK: usize = 64;
    let m = bench_matrix(N);
    let csr = CsrMatrix::from_coo(&m);
    let x = DenseVector::from_fn(N, |i| (i % 17) as f32 * 0.25);
    h.bench("parallel_runtime/spmv_10k_pool_8t", || {
        spmv_in_place(&csr, &x, |f| {
            ThreadPool::global().run_chunked(N, THREADS, CHUNK, f)
        })
    });
    // The pre-pool strategy as the reference point: fresh scoped threads on
    // every call, claiming one chunk at a time.
    h.bench("parallel_runtime/spmv_10k_spawn_8t", || {
        spmv_in_place(&csr, &x, |f| {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| loop {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= N {
                            break;
                        }
                        f(start..(start + CHUNK).min(N));
                    });
                }
            });
        })
    });
    h.bench("parallel_runtime/spmv_10k_serial", || {
        spmv_in_place(&csr, &x, |f| f(0..N))
    });

    // `kernel_exec`'s SpMV operand (uniform, 131072 rows, ~1.05M nnz) under
    // the tuner's usual chunk 1 and default CSR's chunk 128.
    let plan_run = |m: &CooMatrix, threads: usize, chunk: usize| {
        let n = m.nrows();
        let space = Space::new(Kernel::SpMV, vec![n, n], 0);
        let mut sched = named::default_csr(&space);
        sched.parallel = Some(Parallelize {
            var: LoopVar::outer(0),
            threads,
            chunk,
        });
        let pk = Executor::planned().prepare(m, &sched, &space).unwrap();
        assert!(
            pk.plan().effective_parallel(pk.storage()).is_some(),
            "the operand clears the parallel work cutoff"
        );
        let x = DenseVector::from_fn(n, |i| (i % 17) as f32 * 0.25);
        move || pk.run(KernelArgs::Spmv { x: &x }).unwrap()
    };
    let uniform = bench_matrix(131_072);
    let (mut c1, mut c128) = (plan_run(&uniform, 24, 1), plan_run(&uniform, 24, 128));
    h.bench("parallel_runtime/spmv_131k_plan_c1", &mut c1);
    h.bench("parallel_runtime/spmv_131k_plan_c128", &mut c128);
    h.record_value(
        "parallel_runtime/spmv_131k_c1_vs_c128",
        paired_ratio(&mut c1, &mut c128),
    );

    // Power-law rows (~0.5M nnz over 65536 rows) in descending-degree order,
    // the order that punishes coarse claims most (equal row counts are then
    // far from equal work): two threads, chunk 1, against the static split a
    // balancer that knew the nonzero counts would make — two contiguous row
    // ranges of equal nnz, one claim each.
    let skewed = gen::powerlaw_rows(65_536, 65_536, 8.0, 1.1, &mut Rng64::seed_from(43));
    let mut degree = vec![0usize; skewed.nrows()];
    skewed.iter().for_each(|(r, _, _)| degree[r] += 1);
    let mut by_degree: Vec<usize> = (0..skewed.nrows()).collect();
    by_degree.sort_by_key(|&r| std::cmp::Reverse(degree[r]));
    let mut rank = vec![0usize; skewed.nrows()];
    by_degree
        .iter()
        .enumerate()
        .for_each(|(new, &old)| rank[old] = new);
    let relabelled = skewed.iter().map(|(r, c, v)| (rank[r], c, v));
    let skewed = CooMatrix::from_triplets(65_536, 65_536, relabelled).unwrap();
    let csr = CsrMatrix::from_coo(&skewed);
    let x = DenseVector::from_fn(csr.nrows(), |i| (i % 17) as f32 * 0.25);
    let half = csr.row_ptr().partition_point(|&p| p < csr.nnz() / 2);
    let halves = [0..half, half..csr.nrows()];
    let mut plan = plan_run(&skewed, 2, 1);
    let mut ideal = || {
        spmv_in_place(&csr, &x, |f| {
            ThreadPool::global().run_chunked(2, 2, 1, |part| f(halves[part.start].clone()))
        })
    };
    h.bench("parallel_runtime/spmv_powerlaw_plan_c1", &mut plan);
    h.bench("parallel_runtime/spmv_powerlaw_ideal_2way", &mut ideal);
    h.record_value(
        "parallel_runtime/spmv_powerlaw_c1_vs_ideal",
        paired_ratio(&mut plan, &mut ideal),
    );
}

/// Median of `a`'s time over `b`'s across alternating back-to-back runs. A
/// shared host's speed changes from one second to the next, so two benches
/// timed a few seconds apart cannot be divided; two runs a few milliseconds
/// apart can.
fn paired_ratio<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> f64 {
    let mut time = |first: bool| {
        let t = std::time::Instant::now();
        if first {
            std::hint::black_box(a());
        } else {
            std::hint::black_box(b());
        }
        t.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..41)
        .map(|pair| {
            // Alternate which side goes first.
            if pair % 2 == 0 {
                let ta = time(true);
                ta / time(false)
            } else {
                let tb = time(false);
                time(true) / tb
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// The lowering layer in numbers: what one `ExecutionPlan::build` costs,
/// what the serve-side plan cache saves (cold build-and-insert vs warm
/// `Arc` fetch), and what plan-driven execution buys over the dynamic
/// reference interpreter on the paper's hot path (10k-row CSR SpMV/SpMM at
/// 8 threads). `main` gates the plan-vs-interpreter ratio at 1.3x — the
/// monomorphized fast paths are the tentpole of the plan IR, and a
/// regression here means lowering stopped paying for itself.
fn plan_lowering(h: &mut Harness) {
    use waco_exec::{ExecutionPlan, FastPath};
    use waco_serve::fingerprint::Fingerprint;
    use waco_serve::PlanCache;
    use waco_tensor::DenseMatrix;

    const N: usize = 10_000;
    let m = bench_matrix(N);
    let space_v = Space::new(Kernel::SpMV, vec![N, N], 0);
    let space_m = Space::new(Kernel::SpMM, vec![N, N], 16);
    let par = Some(waco_schedule::Parallelize {
        var: LoopVar::outer(0),
        threads: 8,
        chunk: 64,
    });
    let mut sched_v = named::default_csr(&space_v);
    sched_v.parallel = par;
    let mut sched_m = named::default_csr(&space_m);
    sched_m.parallel = par;

    h.bench("plan_lowering/build_spmv_csr", || {
        ExecutionPlan::build(&sched_v, &space_v).unwrap()
    });

    let fp = Fingerprint::of_matrix(&m);
    h.bench("plan_lowering/plan_cache_cold", || {
        let cache = PlanCache::new(8);
        cache.get_or_lower(fp, &sched_v, &space_v).unwrap()
    });
    let cache = PlanCache::new(8);
    cache.get_or_lower(fp, &sched_v, &space_v).unwrap();
    h.bench("plan_lowering/plan_cache_warm", || {
        cache.get_or_lower(fp, &sched_v, &space_v).unwrap()
    });

    let pk_v = Executor::planned().prepare(&m, &sched_v, &space_v).unwrap();
    assert_eq!(
        pk_v.plan().fast_path(),
        FastPath::CsrRows,
        "CSR SpMV fast path"
    );
    // The executor's work gate: ~80k nnz of SpMV sits below
    // `ExecutionPlan::PARALLEL_WORK_CUTOFF`, so the 8-thread directive is
    // ignored at run time and `spmv_10k_plan_8t` must match the explicit
    // serial schedule (`main` prints the ratio; the bench baseline gate
    // holds it). SpMM×16 clears the cutoff and stays parallel.
    assert!(
        pk_v.plan().parallel().is_some()
            && pk_v.plan().effective_parallel(pk_v.storage()).is_none(),
        "10k SpMV is below the parallel work cutoff"
    );
    let x = DenseVector::from_fn(N, |i| (i % 17) as f32 * 0.25);
    h.bench("plan_lowering/spmv_10k_plan_8t", || {
        pk_v.run(KernelArgs::Spmv { x: &x }).unwrap()
    });
    h.bench("plan_lowering/spmv_10k_interp_8t", || {
        oracle::run(&pk_v, KernelArgs::Spmv { x: &x }).unwrap()
    });
    let mut sched_v_serial = named::default_csr(&space_v);
    sched_v_serial.parallel = None;
    let pk_vs = Executor::planned()
        .prepare(&m, &sched_v_serial, &space_v)
        .unwrap();
    h.bench("plan_lowering/spmv_10k_plan_serial", || {
        pk_vs.run(KernelArgs::Spmv { x: &x }).unwrap()
    });

    let pk_m = Executor::planned().prepare(&m, &sched_m, &space_m).unwrap();
    assert_eq!(
        pk_m.plan().fast_path(),
        FastPath::RegBlockSpmm,
        "wide CSR SpMM takes the register-tiled fast path"
    );
    assert!(
        pk_m.plan().effective_parallel(pk_m.storage()).is_some(),
        "SpMM x16 work clears the parallel cutoff"
    );
    let b = DenseMatrix::from_fn(N, 16, |r, c| ((r + c) % 11) as f32 * 0.125 - 0.5);
    h.bench("plan_lowering/spmm_10k_plan_8t", || {
        pk_m.run(KernelArgs::Spmm { b: &b }).unwrap()
    });
    h.bench("plan_lowering/spmm_10k_interp_8t", || {
        oracle::run(&pk_m, KernelArgs::Spmm { b: &b }).unwrap()
    });

    fastpath_tier(h);
    plan_walker(h);
}

/// The generic plan walker on its own: serial runs of two plans no tier row
/// claims — SpMV over 4x4 BCSR (below the 16-wide block threshold) and CSR
/// SDDMM x32 (a dense `k` loop under every stored entry) — each beside the
/// dynamic reference interpreter on the same prepared kernel. `main` gates
/// both paired ratios, so the walker cannot drift back into interpreting
/// its op list per stored entry unseen.
fn plan_walker(h: &mut Harness) {
    use waco_exec::FastPath;
    use waco_tensor::DenseMatrix;

    let serial = |m: &CooMatrix, space: &Space, splits: usize| {
        let mut sched = named::default_csr(space);
        sched.splits[..2].fill(splits);
        sched.parallel = None;
        let pk = Executor::planned().prepare(m, &sched, space).unwrap();
        assert_eq!(
            pk.plan().fast_path(),
            FastPath::None,
            "no tier row claims it"
        );
        pk
    };
    let mb = gen::blocked(4096, 4096, 16, 256, 0.9, &mut Rng64::seed_from(44));
    let pk_b = serial(&mb, &Space::new(Kernel::SpMV, vec![4096, 4096], 0), 4);
    let xb = DenseVector::from_fn(4096, |i| (i % 13) as f32 * 0.125 - 0.75);
    let mut walk = || pk_b.run(KernelArgs::Spmv { x: &xb }).unwrap();
    let mut interp = || oracle::run(&pk_b, KernelArgs::Spmv { x: &xb }).unwrap();
    h.bench("plan_walker/spmv_bcsr4", &mut walk);
    h.bench("plan_walker/spmv_bcsr4_interp", &mut interp);
    h.record_value(
        "plan_walker/spmv_bcsr4_interp_vs_walk",
        paired_ratio(&mut interp, &mut walk),
    );

    let ms = gen::banded(1024, 8, 0.4, &mut Rng64::seed_from(45));
    let pk_s = serial(&ms, &Space::new(Kernel::SDDMM, vec![1024, 1024], 32), 1);
    let b = DenseMatrix::from_fn(1024, 32, |r, c| ((r + c) % 7) as f32 * 0.25 - 0.5);
    let c = DenseMatrix::from_fn(32, 1024, |r, c| ((r * 3 + c) % 5) as f32 * 0.5 - 1.0);
    let args = KernelArgs::Sddmm { b: &b, c: &c };
    let mut walk = || pk_s.run(args).unwrap();
    let mut interp = || oracle::run(&pk_s, args).unwrap();
    h.bench("plan_walker/sddmm32_csr", &mut walk);
    h.bench("plan_walker/sddmm32_csr_interp", &mut interp);
    h.record_value(
        "plan_walker/sddmm32_csr_interp_vs_walk",
        paired_ratio(&mut interp, &mut walk),
    );
}

/// The specialization tier on serial single-kernel benches: each pair runs
/// the same prepared kernel through its monomorphized fast path and through
/// the dynamic reference interpreter. `main` hard-gates the discordant pair
/// at 4x.
fn fastpath_tier(h: &mut Harness) {
    use waco_exec::FastPath;
    use waco_tensor::DenseMatrix;

    // BCSR 16x16: the unrolled dense-block micro-kernel.
    let mut rng = Rng64::seed_from(43);
    let mb = gen::blocked(1024, 1024, 16, 512, 0.9, &mut rng);
    let space_b = Space::new(Kernel::SpMV, vec![1024, 1024], 0);
    let mut sched_b = named::default_csr(&space_b);
    sched_b.splits = vec![16, 16];
    sched_b.parallel = None;
    let pk_b = Executor::planned()
        .prepare(&mb, &sched_b, &space_b)
        .unwrap();
    assert_eq!(
        pk_b.plan().fast_path(),
        FastPath::BcsrBlock,
        "16x16 blocks take the BCSR micro-kernel"
    );
    let xb = DenseVector::from_fn(1024, |i| (i % 13) as f32 * 0.125 - 0.75);
    h.bench("plan_lowering/fastpath_bcsr", || {
        pk_b.run(KernelArgs::Spmv { x: &xb }).unwrap()
    });
    h.bench("plan_lowering/fastpath_bcsr_interp", || {
        oracle::run(&pk_b, KernelArgs::Spmv { x: &xb }).unwrap()
    });

    // Register-tiled SpMM, serial so the pair isolates the inner kernel.
    let mr = bench_matrix(2048);
    let space_r = Space::new(Kernel::SpMM, vec![2048, 2048], 16);
    let mut sched_r = named::default_csr(&space_r);
    sched_r.parallel = None;
    let pk_r = Executor::planned()
        .prepare(&mr, &sched_r, &space_r)
        .unwrap();
    assert_eq!(
        pk_r.plan().fast_path(),
        FastPath::RegBlockSpmm,
        "dense extent 16 takes the register-tiled SpMM path"
    );
    let br = DenseMatrix::from_fn(2048, 16, |r, c| ((r + 3 * c) % 9) as f32 * 0.125 - 0.5);
    h.bench("plan_lowering/spmm_regblock", || {
        pk_r.run(KernelArgs::Spmm { b: &br }).unwrap()
    });
    h.bench("plan_lowering/spmm_regblock_interp", || {
        oracle::run(&pk_r, KernelArgs::Spmm { b: &br }).unwrap()
    });

    // Discordant column-major SpMV over row-major CSR: the
    // transpose-permutation stream vs per-(k, i) binary locates.
    let md = bench_matrix(512);
    let space_d = Space::new(Kernel::SpMV, vec![512, 512], 0);
    let mut sched_d = named::default_csr(&space_d);
    sched_d.parallel = None;
    sched_d.loop_order = vec![
        LoopVar::outer(1),
        LoopVar::outer(0),
        LoopVar::inner(0),
        LoopVar::inner(1),
    ];
    let pk_d = Executor::planned()
        .prepare(&md, &sched_d, &space_d)
        .unwrap();
    assert_eq!(
        pk_d.plan().fast_path(),
        FastPath::DiscordantCsr,
        "column-major SpMV takes the discordant stream"
    );
    let xd = DenseVector::from_fn(512, |i| i as f32 * 0.001);
    h.bench("plan_lowering/spmv_discordant", || {
        pk_d.run(KernelArgs::Spmv { x: &xd }).unwrap()
    });
    h.bench("plan_lowering/spmv_discordant_interp", || {
        oracle::run(&pk_d, KernelArgs::Spmv { x: &xd }).unwrap()
    });
}

/// The observability layer must be invisible when no subscriber is
/// installed: the interpreter's per-kernel-call hook is two relaxed atomic
/// loads. This group measures (a) SpMV with tracing off, (b) SpMV with the
/// subscriber installed, and (c) the bare disabled hook sequence — and the
/// harness exits non-zero if the disabled hook costs more than 2% of one
/// SpMV invocation.
fn obs_overhead(h: &mut Harness) {
    let m = bench_matrix(512);
    let space = Space::new(Kernel::SpMV, vec![512, 512], 0);
    let x = DenseVector::from_fn(512, |i| i as f32 * 0.001);
    let mut sched = named::default_csr(&space);
    sched.parallel = None;

    assert!(
        !waco_obs::enabled(),
        "obs must be disabled for the baseline measurement"
    );
    h.bench("obs_overhead/spmv_512_disabled", || {
        Executor::planned()
            .prepare(&m, &sched, &space)
            .unwrap()
            .run(KernelArgs::Spmv { x: &x })
            .unwrap()
    });
    // The exact hook sequence the interpreter runs per kernel call when
    // tracing is off: one enabled() load for the span, one for the counter.
    h.bench("obs_overhead/disabled_hooks", || {
        let _span = if waco_obs::enabled() {
            waco_obs::span("obs_overhead/hook")
        } else {
            waco_obs::Span::disabled()
        };
        waco_obs::enabled()
    });
    waco_obs::install();
    h.bench("obs_overhead/spmv_512_enabled", || {
        Executor::planned()
            .prepare(&m, &sched, &space)
            .unwrap()
            .run(KernelArgs::Spmv { x: &x })
            .unwrap()
    });
    waco_obs::uninstall();
}

/// The serving layer's value proposition in numbers: tuning a matrix from
/// scratch (warm pipeline, cold cache) vs answering the same request from
/// the fingerprint-keyed cache. The warm path is fingerprint + sharded-LRU
/// hit; the cold path runs the full WACO query pipeline.
fn serve_cache(h: &mut Harness) {
    use waco_serve::fingerprint::Fingerprint;
    use waco_serve::{Decision, Tuner, TuningCache, WacoTuner, WacoTunerConfig};

    let dir = std::env::temp_dir().join(format!("waco-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let tuner = WacoTuner::new(WacoTunerConfig::default());
    tuner
        .warm_up(Kernel::SpMV, 0)
        .expect("tiny pipeline trains");
    let m = bench_matrix(64);

    h.bench("serve_cache/fingerprint_64", || Fingerprint::of_matrix(&m));
    h.bench("serve_cache/cold_tune_spmv_64", || {
        tuner.tune(&m, Kernel::SpMV, 0).expect("tune succeeds")
    });

    let cache = TuningCache::open(dir.join("tuning.journal"), 64).expect("cache opens");
    let fingerprint = Fingerprint::of_matrix(&m);
    let outcome = tuner.tune(&m, Kernel::SpMV, 0).expect("tune succeeds");
    cache
        .insert(Decision {
            fingerprint,
            kernel: Kernel::SpMV,
            dense_extent: 0,
            schedule: outcome.schedule,
            kernel_seconds: outcome.kernel_seconds,
            tuning_seconds: outcome.tuning_seconds,
        })
        .expect("insert succeeds");
    h.bench("serve_cache/warm_lookup_spmv_64", || {
        cache
            .lookup(fingerprint, Kernel::SpMV, 0)
            .expect("decision is cached")
    });
    // The warm path *after* ingest: re-fingerprint an already parsed
    // matrix, then hit the cache. Frame decode, `Request::from_json` and the
    // Matrix Market parse are not in here — `serve_wire/ingest_*` has them.
    h.bench("serve_cache/warm_request_spmv_64", || {
        let fp = Fingerprint::of_matrix(&m);
        cache
            .lookup(fp, Kernel::SpMV, 0)
            .expect("decision is cached")
    });

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm request as the server's threads run it, from the bytes of a real
/// frame to the bytes of the reply: `decode_frame` → `Request::from_json` →
/// `parse_and_fingerprint` (Matrix Market parse, `Fingerprint::of_matrix`)
/// → cache `lookup` → `encode_frame`, whole and stage by stage. Three sizes,
/// with each frame's length recorded beside its time so `main` can gate
/// ns/byte: ingest must stay linear in the bytes. At 256² the parse is also
/// paired with one FNV-1a pass over the same text, the cheapest reading of
/// every byte, so `main` can gate the scanner's cost per byte on any host.
fn serve_wire(h: &mut Harness) {
    use waco_runtime::hash::fnv1a64;
    use waco_serve::protocol::{
        decode_frame, encode_frame, request_json, tune_response, Decoded, Frame, Request,
    };
    use waco_serve::server::parse_and_fingerprint;
    use waco_serve::{Decision, Fingerprint, TuningCache};
    use waco_tensor::io::{parse_matrix_market, write_matrix_market};

    let dir = std::env::temp_dir().join(format!("waco-bench-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TuningCache::open(dir.join("tuning.journal"), 64).expect("cache opens");

    for n in [64, 256, 1024] {
        let m = bench_matrix(n);
        let mut text = Vec::new();
        write_matrix_market(&mut text, &m).expect("write to memory");
        let text = String::from_utf8(text).expect("matrix market output is ASCII");
        let frame = encode_frame(&request_json("tune", "spmv", 0, &text));
        cache
            .insert(Decision {
                fingerprint: Fingerprint::of_matrix(&m),
                kernel: Kernel::SpMV,
                dense_extent: 0,
                schedule: named::default_csr(&Space::new(Kernel::SpMV, vec![n, n], 0)),
                kernel_seconds: 1e-6,
                tuning_seconds: 1e-3,
            })
            .expect("insert succeeds");
        h.record_value(&format!("serve_wire/frame_bytes_s{n}"), frame.len() as f64);
        h.bench(&format!("serve_wire/decode_s{n}"), || decode_frame(&frame));
        let mut parse = || parse_matrix_market(&text).expect("matrix text parses");
        h.bench(&format!("serve_wire/parse_s{n}"), &mut parse);
        h.bench(&format!("serve_wire/fingerprint_s{n}"), || {
            Fingerprint::of_matrix(&m)
        });
        if n == 256 {
            let ratio = paired_ratio(&mut parse, || fnv1a64(text.as_bytes()));
            h.record_value("serve_wire/parse_vs_fnv_s256", ratio);
        }
        h.bench(&format!("serve_wire/ingest_s{n}"), || {
            let Decoded::Complete(_, Frame::Body(body)) = decode_frame(&frame) else {
                panic!("the frame is whole and well-formed");
            };
            let Ok(Request::Tune {
                kernel,
                dense_extent,
                matrix,
            }) = Request::from_json(&body)
            else {
                panic!("the frame holds a tune request");
            };
            let (_, fp) = parse_and_fingerprint(&matrix).expect("matrix text parses");
            let decision = cache
                .lookup(fp, kernel, dense_extent)
                .expect("decision is cached");
            encode_frame(&tune_response(&decision, true))
        });
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The two-stage tuning pipeline's headline trade, benched on the same
/// 64-row matrix as the serve-cache cold tune: a staged cold tune
/// (asymptotic pruning + masked ANNS, the default path `cold_tune_spmv_64`
/// exercises through the server) against the full unpruned search on the
/// same trained pipeline, plus the cost-model evaluation count each search
/// performed. `main` hard-gates the evaluation ratio at 2x — the
/// `search_pruning` verify suite locks result quality, this locks the work
/// reduction that pays for Stage 1.
fn search_pipeline(h: &mut Harness) {
    use waco_core::{SearchMode, Waco, WacoConfig};

    let sim = Simulator::new(MachineConfig::xeon_like());
    let cfg = WacoConfig::tiny();
    let corpus = gen::corpus(4, 24, cfg.seed);
    let (mut waco, _stats) =
        Waco::train(sim, Kernel::SpMV, &corpus, 0, cfg).expect("tiny pipeline trains");
    let m = bench_matrix(64);

    h.bench("search_pipeline/cold_tune_spmv_64_pruned", || {
        waco.tune(&m).expect("staged tune succeeds")
    });
    let staged = waco.tune(&m).expect("staged tune succeeds");
    waco.set_search_mode(SearchMode::Full);
    h.bench("search_pipeline/cold_tune_spmv_64_full", || {
        waco.tune(&m).expect("full tune succeeds")
    });
    let full = waco.tune(&m).expect("full tune succeeds");
    h.record_value(
        "search_pipeline/evals_pruned",
        staged.breakdown.evals as f64,
    );
    h.record_value("search_pipeline/evals_full", full.breakdown.evals as f64);
}

/// The workspace subsystem: the fused SDDMM+SpMM kernel against the unfused
/// two-kernel composition (SDDMM, materialize the intermediate as CSR, then
/// a hand-written CSR SpMM), and row-wise Gustavson SpGEMM against a naive
/// two-pass that scatters into a fresh full-width accumulator per row and
/// rescans the whole row to compact. `main` hard-gates the fusion ratio at
/// 1.3x.
fn workspace_kernels(h: &mut Harness) {
    use waco_exec::FastPath;
    use waco_tensor::DenseMatrix;

    let n = 1024;
    let (k, t) = (32, 32);
    let m = bench_matrix(n);

    // Fused: one pass over A, each sampled value added into the output as
    // it is made.
    let space_f = Space::new(Kernel::SddmmSpmm, vec![n, n], k);
    let mut sched_f = named::default_csr(&space_f);
    sched_f.parallel = None;
    let pk_f = Executor::planned().prepare(&m, &sched_f, &space_f).unwrap();
    assert_eq!(
        pk_f.plan().fast_path(),
        FastPath::FusedSddmmSpmm,
        "row-major CSR takes the fused row"
    );
    let b = DenseMatrix::from_fn(n, k, |r, c| ((r + 3 * c) % 11) as f32 * 0.125 - 0.5);
    let c = DenseMatrix::from_fn(k, n, |r, c| ((2 * r + c) % 7) as f32 * 0.25 - 0.75);
    let f = DenseMatrix::from_fn(n, t, |r, c| ((r * 5 + c) % 9) as f32 * 0.125 - 0.5);
    h.bench("workspace/fused_sddmm_spmm", || {
        pk_f.run(KernelArgs::SddmmSpmm {
            b: &b,
            c: &c,
            f: &f,
        })
        .unwrap()
    });

    // Unfused: the same SDDMM through its own plan, then the intermediate
    // materialized and multiplied — the allocation and second sweep fusion
    // exists to delete.
    let space_s = Space::new(Kernel::SDDMM, vec![n, n], k);
    let mut sched_s = named::default_csr(&space_s);
    sched_s.parallel = None;
    let pk_s = Executor::planned().prepare(&m, &sched_s, &space_s).unwrap();
    h.bench("workspace/unfused_sddmm_then_spmm", || {
        let d = pk_s
            .run(KernelArgs::Sddmm { b: &b, c: &c })
            .unwrap()
            .into_sparse()
            .unwrap();
        CsrMatrix::from_coo(&d).spmm(&f)
    });

    // Gustavson SpGEMM through the workspace fast path. Sparser and wider
    // than the fusion case: the workspace's bitmap sweep visits ~a dozen
    // columns per row where the naive two-pass rescans all `ng`.
    let ng = 2048;
    let mut rng = Rng64::seed_from(44);
    let ma = gen::uniform_random(ng, ng, 4.0 / ng as f64, &mut rng);
    let bs = CsrMatrix::from_coo(&gen::uniform_random(ng, ng, 4.0 / ng as f64, &mut rng));
    let space_g = Space::new(Kernel::SpGEMM, vec![ng, ng], ng);
    let mut sched_g = named::default_csr(&space_g);
    sched_g.parallel = None;
    let pk_g = Executor::planned()
        .prepare(&ma, &sched_g, &space_g)
        .unwrap();
    assert_eq!(
        pk_g.plan().fast_path(),
        FastPath::GustavsonSpgemm,
        "row-major CSR takes the Gustavson workspace path"
    );
    h.bench("workspace/spgemm_gustavson", || {
        pk_g.run(KernelArgs::Spgemm { b: &bs }).unwrap()
    });

    // Naive two-pass: a fresh ng-wide accumulator per row and a full-width
    // rescan to compact — no pooling, no bitmap.
    let a_csr = CsrMatrix::from_coo(&ma);
    h.bench("workspace/spgemm_two_pass", || {
        let mut row_ptr = vec![0usize; ng + 1];
        let mut col_idx = Vec::new();
        let mut vals: Vec<f32> = Vec::new();
        for i in 0..ng {
            let mut acc = vec![0.0f32; ng];
            let (cols, avs) = a_csr.row(i);
            for (&kk, &av) in cols.iter().zip(avs) {
                let (bcols, bvals) = bs.row(kk);
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    acc[j] += av * bv;
                }
            }
            for (j, &v) in acc.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        (row_ptr, col_idx, vals)
    });
}

fn main() {
    let mut h = Harness::from_args();
    println!("== substrate micro-benchmarks ==");
    format_assembly(&mut h);
    interpreter(&mut h);
    simulator(&mut h);
    waconet_forward(&mut h);
    embedder_and_anns(&mut h);
    parallel_runtime(&mut h);
    serve_cache(&mut h);
    serve_wire(&mut h);
    search_pipeline(&mut h);
    plan_lowering(&mut h);
    workspace_kernels(&mut h);
    obs_overhead(&mut h);

    let pool = h
        .stat("parallel_runtime/spmv_10k_pool_8t")
        .unwrap()
        .median_ns;
    let spawn = h
        .stat("parallel_runtime/spmv_10k_spawn_8t")
        .unwrap()
        .median_ns;
    println!(
        "\npersistent pool vs spawn-per-call at 8 threads: {:.2}x",
        spawn / pool
    );
    // The two halves of the batched-claim rule, each a median of paired
    // back-to-back runs (see `paired_ratio`).
    for (what, ratio) in [
        (
            "chunk 1 vs chunk 128, 131k-row SpMV",
            "spmv_131k_c1_vs_c128",
        ),
        (
            "chunk 1 vs the nnz-ideal two-way split, power-law SpMV",
            "spmv_powerlaw_c1_vs_ideal",
        ),
    ] {
        let r = h
            .stat(&format!("parallel_runtime/{ratio}"))
            .unwrap()
            .median_ns;
        println!("{what}: {r:.2}x");
        if r > 1.25 {
            eprintln!(
                "error: parallel_runtime/{ratio} reads {r:.2}x (the claim-grain \
                 gate allows 1.25x)"
            );
            std::process::exit(1);
        }
    }

    for n in [256, 1024] {
        let of = |mode: &str| {
            let name = format!("sim_measure/{mode}_6cand_{n}");
            h.stat(&name).unwrap().median_ns
        };
        let gain = of("loop") / of("batch");
        println!("top-k measurement, six candidates at {n}x{n}: one batch {gain:.2}x the loop");
        if gain < 1.3 {
            eprintln!(
                "error: the candidate batch is only {gain:.2}x a loop of single calls \
                 at {n}x{n} (the shared-measurement gate requires 1.3x)"
            );
            std::process::exit(1);
        }
    }

    let cold = h.stat("serve_cache/cold_tune_spmv_64").unwrap().median_ns;
    let warm = h
        .stat("serve_cache/warm_request_spmv_64")
        .unwrap()
        .median_ns;
    println!(
        "serve cache: warm request vs cold tune: {:.0}x",
        cold / warm
    );

    // Median time of one bench over the recorded size of its input.
    let ns_per = |bench: String, size: String| {
        h.stat(&bench).unwrap().median_ns / h.stat(&size).unwrap().median_ns
    };
    let ns_per_byte = |class: &str| {
        ns_per(
            format!("serve_wire/ingest_{class}"),
            format!("serve_wire/frame_bytes_{class}"),
        )
    };
    let (small, large) = (ns_per_byte("s64"), ns_per_byte("s1024"));
    println!(
        "request ingest: {small:.2} ns/byte at 64x64, {large:.2} ns/byte at \
         1024x1024 ({:.2}x)",
        large / small
    );
    if large > 2.0 * small {
        eprintln!(
            "error: ingesting a 1024x1024 frame costs {:.2}x as much per byte \
             as a 64x64 one (the linear-ingest gate allows 2x)",
            large / small
        );
        std::process::exit(1);
    }

    // One paired median: the Matrix Market parse of a 256² request over one
    // FNV-1a pass of its text. A 2-vCPU host reads 2.5x for the byte
    // scanner and 4.0x for the per-character reader it replaced.
    let r = h.stat("serve_wire/parse_vs_fnv_s256").unwrap().median_ns;
    println!("matrix market parse vs one FNV-1a pass over the text, 256x256: {r:.2}x");
    if r > 3.75 {
        eprintln!(
            "error: parsing 256x256 matrix text costs {r:.2}x a byte hash of it \
             (the scanner gate allows 3.75x)"
        );
        std::process::exit(1);
    }

    let ns_per_site = |class: &str| {
        ns_per(
            format!("waconet/small_forward_{class}_sites"),
            format!("waconet/active_sites_{class}"),
        )
    };
    let (small, large) = (ns_per_site("2k"), ns_per_site("32k"));
    println!(
        "feature extraction: {small:.0} ns per active site at 2k input sites, \
         {large:.0} at 32k ({:.2}x)",
        large / small
    );
    if large > 2.0 * small {
        eprintln!(
            "error: extracting a 32k-site pattern costs {:.2}x as much per active \
             site as a 2k-site one (the linear-extractor gate allows 2x)",
            large / small
        );
        std::process::exit(1);
    }

    let evals_full = h.stat("search_pipeline/evals_full").unwrap().median_ns;
    let evals_pruned = h.stat("search_pipeline/evals_pruned").unwrap().median_ns;
    let eval_ratio = evals_full / evals_pruned.max(1.0);
    let tune_pruned = h
        .stat("search_pipeline/cold_tune_spmv_64_pruned")
        .unwrap()
        .median_ns;
    let tune_full = h
        .stat("search_pipeline/cold_tune_spmv_64_full")
        .unwrap()
        .median_ns;
    println!(
        "two-stage search: {evals_full:.0} full-mode cost-model evals vs \
         {evals_pruned:.0} pruned ({eval_ratio:.2}x); cold tune {:.2}x",
        tune_full / tune_pruned
    );
    if eval_ratio < 2.0 {
        eprintln!(
            "error: the pruned search only cut cost-model evaluations \
             {eval_ratio:.2}x (the two-stage gate requires 2x)"
        );
        std::process::exit(1);
    }

    let build = h.stat("plan_lowering/build_spmv_csr").unwrap().median_ns;
    let cache_warm = h.stat("plan_lowering/plan_cache_warm").unwrap().median_ns;
    println!(
        "plan cache: warm fetch {cache_warm:.0}ns vs lowering {build:.0}ns ({:.1}x)",
        build / cache_warm
    );
    let mut plan_speedups = Vec::new();
    for kernel in ["spmv", "spmm"] {
        let plan = h
            .stat(&format!("plan_lowering/{kernel}_10k_plan_8t"))
            .unwrap()
            .median_ns;
        let interp = h
            .stat(&format!("plan_lowering/{kernel}_10k_interp_8t"))
            .unwrap()
            .median_ns;
        let speedup = interp / plan;
        println!("plan vs interpreter, 10k-row {kernel} at 8 threads: {speedup:.2}x");
        plan_speedups.push((kernel, speedup));
    }
    let gated = h.stat("plan_lowering/spmv_10k_plan_8t").unwrap().median_ns;
    let serial = h
        .stat("plan_lowering/spmv_10k_plan_serial")
        .unwrap()
        .median_ns;
    println!(
        "parallel work gate: 8t-scheduled 10k SpMV runs at {:.2}x the serial \
         schedule (gate sends it serial)",
        gated / serial
    );
    for (kernel, speedup) in plan_speedups {
        if speedup < 1.3 {
            eprintln!(
                "error: plan-driven {kernel} is only {speedup:.2}x the interpreter \
                 (the fast-path gate requires 1.3x)"
            );
            std::process::exit(1);
        }
    }

    for (label, fast, interp) in [
        (
            "bcsr 16x16 micro-kernel",
            "plan_lowering/fastpath_bcsr",
            "plan_lowering/fastpath_bcsr_interp",
        ),
        (
            "register-tiled spmm",
            "plan_lowering/spmm_regblock",
            "plan_lowering/spmm_regblock_interp",
        ),
    ] {
        let f = h.stat(fast).unwrap().median_ns;
        let i = h.stat(interp).unwrap().median_ns;
        println!("{label} vs interpreter: {:.2}x", i / f);
    }
    let disc_fast = h.stat("plan_lowering/spmv_discordant").unwrap().median_ns;
    let disc_interp = h
        .stat("plan_lowering/spmv_discordant_interp")
        .unwrap()
        .median_ns;
    let disc_speedup = disc_interp / disc_fast;
    println!("discordant stream vs interpreter, 512 SpMV: {disc_speedup:.2}x");
    if disc_speedup < 4.0 {
        eprintln!(
            "error: the discordant fast path is only {disc_speedup:.2}x the \
             interpreter (the gate requires 4x)"
        );
        std::process::exit(1);
    }

    // The walker's floors, from paired runs: on a 2-vCPU host its serial
    // SDDMM reads about 26x the interpreter (6.3x while the body was called
    // per `k` instead of per `k` loop) and its 4x4-BCSR SpMV 2.8-3.0x, where
    // a walker that re-matches its op list per stored entry read 1.5x and
    // 1.3x.
    for (what, ratio, floor) in [
        ("4x4-BCSR SpMV", "spmv_bcsr4_interp_vs_walk", 2.0),
        ("CSR SDDMM x32", "sddmm32_csr_interp_vs_walk", 3.0),
    ] {
        let r = h.stat(&format!("plan_walker/{ratio}")).unwrap().median_ns;
        println!("plan walker vs interpreter, serial {what}: {r:.2}x");
        if r < floor {
            eprintln!(
                "error: the plan walker runs {what} only {r:.2}x the interpreter \
                 (the walker gate requires {floor}x)"
            );
            std::process::exit(1);
        }
    }

    let fused = h.stat("workspace/fused_sddmm_spmm").unwrap().median_ns;
    let unfused = h
        .stat("workspace/unfused_sddmm_then_spmm")
        .unwrap()
        .median_ns;
    let fusion_speedup = unfused / fused;
    println!("fused SDDMM+SpMM vs unfused two-kernel: {fusion_speedup:.2}x");
    if fusion_speedup < 1.3 {
        eprintln!(
            "error: the fused SDDMM+SpMM kernel is only {fusion_speedup:.2}x the \
             unfused composition (the workspace gate requires 1.3x)"
        );
        std::process::exit(1);
    }
    let gus = h.stat("workspace/spgemm_gustavson").unwrap().median_ns;
    let two_pass = h.stat("workspace/spgemm_two_pass").unwrap().median_ns;
    println!("gustavson SpGEMM vs naive two-pass: {:.2}x", two_pass / gus);

    let spmv_off = h.stat("obs_overhead/spmv_512_disabled").unwrap().median_ns;
    let spmv_on = h.stat("obs_overhead/spmv_512_enabled").unwrap().median_ns;
    let hook = h.stat("obs_overhead/disabled_hooks").unwrap().median_ns;
    let hook_share = hook / spmv_off;
    println!(
        "obs: disabled hook {hook:.1}ns = {:.4}% of one SpMV ({spmv_off:.0}ns); \
         enabled subscriber costs {:.2}x",
        hook_share * 100.0,
        spmv_on / spmv_off
    );
    if hook_share >= 0.02 {
        eprintln!(
            "error: disabled-subscriber overhead {:.3}% exceeds the 2% budget",
            hook_share * 100.0
        );
        std::process::exit(1);
    }

    match h.write_results() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write results: {e}");
            std::process::exit(1);
        }
    }
}
