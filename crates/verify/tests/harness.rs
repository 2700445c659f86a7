//! Self-tests of the harness: the production backend must come back clean
//! with exactly the checks it is known to run, and a deliberately broken
//! backend must be caught on every kernel with a replayable failure record —
//! the harness's own false-negative check.

use waco_exec::{KernelArgs, KernelOutput, PlannedKernel};
use waco_schedule::Kernel;
use waco_tensor::{CooMatrix, CsrMatrix};
use waco_verify::diff::{ExecBackend, Executor};
use waco_verify::{run_with_executor, Budget, SuiteReport, VerifyConfig, VerifyReport};

fn suite<'a>(report: &'a VerifyReport, name: &str) -> &'a SuiteReport {
    let found = report.suites.iter().find(|s| s.name == name);
    found.unwrap_or_else(|| panic!("suite {name} ran"))
}

#[test]
fn clean_backend_passes_smoke_with_the_pinned_check_counts() {
    let mut cfg = VerifyConfig::new(42, Budget::Smoke);
    // The fault suite has its own test below; keep this one about kernels.
    cfg.faults = false;
    let report = run_with_executor(&cfg, &ExecBackend);
    assert!(report.passed(), "{}", report.summary());
    // (executed, skipped) per suite: an edit that drops checks turns this
    // red instead of shrinking a number in a JSON artifact.
    let pinned = [
        ("differential", 456, 0),
        ("plan_equivalence", 235_480, 0),
        ("metamorphic", 243, 0),
        ("baselines", 76, 0),
        ("search_pruning", 103, 10),
    ];
    let ran: Vec<_> = report
        .suites
        .iter()
        .map(|s| (s.name, s.executed, s.skipped))
        .collect();
    assert_eq!(ran, pinned);
    // Every SpMV structure class of the tiny space, a seeded 1/64 of
    // SpMM's and SDDMM's.
    let classes = &suite(&report, "plan_equivalence").classes;
    let expected = [
        (Kernel::SpMV, 82_944),
        (Kernel::SpMM, 34_560),
        (Kernel::SDDMM, 34_560),
    ];
    assert_eq!(classes[..], expected);
}

/// `VerifyConfig::kernels` is the one kernel selector: with none named, no
/// kernel suite runs a check or enumerates a class.
#[test]
fn an_empty_kernel_list_runs_no_kernel_check() {
    let mut cfg = VerifyConfig::new(42, Budget::Smoke);
    cfg.kernels = vec![];
    cfg.faults = false;
    let report = run_with_executor(&cfg, &ExecBackend);
    let ran: Vec<_> = report
        .suites
        .iter()
        .map(|s| (s.name, s.executed, s.skipped, s.classes.len()))
        .collect();
    let kernel_suites = [
        "differential",
        "plan_equivalence",
        "metamorphic",
        "baselines",
        "search_pruning",
    ];
    assert_eq!(ran, kernel_suites.map(|name| (name, 0, 0, 0)));
}

/// The serve tier's drills (`fault`, `distributed`) are the only place its
/// journal tears, failovers and sync faults are checked, so they gate here
/// the way the kernel suites do above.
#[test]
fn serve_drills_pass_with_the_pinned_check_counts() {
    let mut cfg = VerifyConfig::new(42, Budget::Smoke);
    cfg.kernels = vec![];
    let report = run_with_executor(&cfg, &ExecBackend);
    let drills = ["fault", "distributed"].map(|name| suite(&report, name));
    for s in drills {
        assert!(s.failures.is_empty(), "{}", report.summary());
    }
    let ran = drills.map(|s| (s.name, s.executed, s.skipped));
    assert_eq!(ran, [("fault", 843, 0), ("distributed", 40, 0)]);
}

/// A backend that mis-executes one kernel whenever the row dimension is
/// split — the shape of a real lowering bug (a tile boundary handled wrong):
/// every stored output value comes back one too large.
struct BrokenSplitLowering(Kernel);

impl Executor for BrokenSplitLowering {
    fn run(&self, pk: &PlannedKernel, args: KernelArgs<'_>) -> waco_exec::Result<KernelOutput> {
        let out = pk.run(args)?;
        if pk.kernel() != self.0 || pk.plan().splits()[0] == 1 {
            return Ok(out);
        }
        let bump = |m: &CooMatrix| {
            CooMatrix::from_triplets(
                m.nrows(),
                m.ncols(),
                m.iter().map(|(r, c, v)| (r, c, v + 1.0)),
            )
            .unwrap()
        };
        Ok(match out {
            KernelOutput::Vector(mut y) => {
                y.as_mut_slice().iter_mut().for_each(|v| *v += 1.0);
                KernelOutput::Vector(y)
            }
            KernelOutput::Matrix(mut m) => {
                m.as_mut_slice().iter_mut().for_each(|v| *v += 1.0);
                KernelOutput::Matrix(m)
            }
            KernelOutput::Sparse(m) => KernelOutput::Sparse(bump(&m)),
            KernelOutput::Csr(m) => KernelOutput::Csr(CsrMatrix::from_coo(&bump(&m.to_coo()))),
        })
    }
}

#[test]
fn broken_lowering_of_any_kernel_is_caught_with_a_replayable_record() {
    for kernel in VerifyConfig::new(42, Budget::Smoke).kernels {
        let mut cfg = VerifyConfig::new(42, Budget::Smoke);
        cfg.kernels = vec![kernel];
        cfg.faults = false;
        let report = run_with_executor(&cfg, &BrokenSplitLowering(kernel));

        let f = suite(&report, "differential").failures.first();
        let f = f.unwrap_or_else(|| panic!("differential missed the broken {kernel}"));
        assert_eq!(f.kernel.as_deref(), Some(kernel.wire_name()));
        assert!(f.matrix_seed.is_some() && !f.case_name.is_empty(), "{f}");
        assert!(f.schedule_index.is_some(), "{f}");
        assert!(f.schedule.as_deref().is_some_and(|s| !s.is_empty()), "{f}");
        assert!(f.schedule_json.is_some(), "{f}");
        let d = f.divergence.as_ref().expect("failure carries a divergence");
        assert!(
            (d.actual - d.expected - 1.0).abs() < 0.01,
            "perturbation is +1.0: {f}"
        );
        assert!(f.detail.contains("shrunk to 1 entries"), "{f}");

        // Replay: the same seed must reproduce the identical failure list.
        let replay = run_with_executor(&cfg, &BrokenSplitLowering(kernel));
        let lines = |r: &VerifyReport| -> Vec<String> {
            let all = r.suites.iter().flat_map(|s| &s.failures);
            all.map(|f| f.to_string()).collect()
        };
        assert_eq!(
            lines(&report),
            lines(&replay),
            "replay of {kernel} diverged"
        );
    }
}
