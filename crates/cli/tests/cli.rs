//! End-to-end tests of the `waco-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_waco-cli"))
}

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("waco-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn help_prints_usage() {
    let out = cli().arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("waco-cli gen"));
    assert!(text.contains("tune"));
}

#[test]
fn unknown_command_fails() {
    let out = cli().arg("bogus").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_inspect_bench_roundtrip() {
    let dir = tmpdir();
    let mtx = dir.join("g.mtx");
    let out = cli()
        .args(["gen", "--family", "blocked", "--size", "128", "--out"])
        .arg(&mtx)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    let out = cli().arg("inspect").arg(&mtx).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nonzeros"));
    assert!(text.contains("128 x 128"));

    let out = cli()
        .args(["bench", "--kernel", "spmv"])
        .arg(&mtx)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("configurations"));
}

#[test]
fn gen_rejects_unknown_family() {
    let dir = tmpdir();
    let out = cli()
        .args(["gen", "--family", "nope", "--out"])
        .arg(dir.join("x.mtx"))
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn train_then_tune_with_checkpoint() {
    let dir = tmpdir();
    let mtx = dir.join("t.mtx");
    let ckpt = dir.join("model.ckpt");
    assert!(cli()
        .args(["gen", "--family", "powerlaw", "--size", "96", "--out"])
        .arg(&mtx)
        .status()
        .expect("runs")
        .success());
    // Tiny training budget to keep the test fast.
    let out = cli()
        .args([
            "train",
            "--kernel",
            "spmv",
            "--matrices",
            "4",
            "--size",
            "48",
            "--epochs",
            "2",
            "--out",
        ])
        .arg(&ckpt)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists());

    let out = cli()
        .args([
            "tune",
            "--kernel",
            "spmv",
            "--matrices",
            "4",
            "--size",
            "48",
            "--epochs",
            "1",
            "--model",
        ])
        .arg(&ckpt)
        .arg(&mtx)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("WACO chose"), "{text}");
    assert!(text.contains("FixedCSR"));
}

#[test]
fn tune_missing_file_fails_cleanly() {
    let out = cli()
        .args(["tune", "--kernel", "spmv", "/nonexistent/path.mtx"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn errors_exit_with_code_2() {
    // Bad flag value.
    let out = cli()
        .args(["bench", "--dense", "abc", "x.mtx"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: "), "{err}");
    // Missing input file.
    let out = cli()
        .args(["inspect", "/nonexistent/path.mtx"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    // Unknown command.
    let out = cli().arg("bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    // A config override `validate` rejects, before any training.
    let out = cli()
        .args(["train", "--epochs", "0", "--out"])
        .arg(tmpdir().join("never-written.ckpt"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        err.trim_end(),
        "error: invalid configuration: train.epochs must be at least 1"
    );
}

#[test]
fn serve_and_query_roundtrip_on_ephemeral_port() {
    use std::io::BufRead;

    let dir = tmpdir().join("serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create serve dir");
    let mtx = dir.join("q.mtx");
    assert!(cli()
        .args(["gen", "--family", "banded", "--size", "64", "--out"])
        .arg(&mtx)
        .status()
        .expect("runs")
        .success());

    // Bind port 0 and parse the real port from the startup line.
    let trace = dir.join("serve-trace.json");
    let mut server = cli()
        .args(["serve", "--addr", "127.0.0.1:0", "--cache"])
        .arg(dir.join("cache"))
        .arg("--trace")
        .arg(&trace)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut stdout = std::io::BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();

    let query = |args: &[&str]| {
        let out = cli()
            .args(["query", "--addr", &addr])
            .args(args)
            .output()
            .expect("query runs");
        assert!(
            out.status.success(),
            "query {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // lookup before tuning: no decision yet.
    let text = query(&["--op", "lookup", "--kernel", "spmv", mtx.to_str().unwrap()]);
    assert!(text.contains("no cached decision"), "{text}");

    // First tune is computed, second is served from cache.
    let text = query(&["--kernel", "spmv", mtx.to_str().unwrap()]);
    assert!(text.contains("computed SpMV decision"), "{text}");
    assert!(text.contains("fingerprint"), "{text}");
    let text = query(&["--kernel", "spmv", mtx.to_str().unwrap()]);
    assert!(text.contains("cached SpMV decision"), "{text}");

    // The hit shows up in stats.
    let text = query(&["--op", "stats"]);
    assert!(text.contains("\"hits\":1"), "{text}");

    // Graceful drain; the server process exits 0 and writes its trace.
    let text = query(&["--op", "shutdown"]);
    assert!(text.contains("shutting down"), "{text}");
    let status = server.wait().expect("server exits");
    assert!(status.success());
    let trace_text = std::fs::read_to_string(&trace).expect("server trace written");
    assert!(trace_text.contains("serve.requests"), "{trace_text}");
}

#[test]
fn serve_rejects_bad_flags() {
    // Missing --cache.
    let out = cli()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cache"));
    // Non-loopback address.
    let out = cli()
        .args(["serve", "--addr", "8.8.8.8:80", "--cache", "/tmp/x"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    // Query without a server.
    let out = cli()
        .args([
            "query",
            "--op",
            "stats",
            "--timeout",
            "0.5",
            "--addr",
            "127.0.0.1:1",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn trace_flag_writes_json_with_pipeline_spans() {
    let dir = tmpdir();
    let mtx = dir.join("trace.mtx");
    let trace = dir.join("trace.json");
    assert!(cli()
        .args(["gen", "--family", "uniform", "--size", "64", "--out"])
        .arg(&mtx)
        .status()
        .expect("runs")
        .success());
    let out = cli()
        .args([
            "tune",
            "--kernel",
            "spmv",
            "--matrices",
            "3",
            "--size",
            "48",
            "--epochs",
            "1",
            "--trace",
        ])
        .arg(&trace)
        .arg(&mtx)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    // Structured trace: parses as our JSON and carries the extractor/ANNS
    // split that fig16b consumes.
    assert!(text.trim_start().starts_with('{'), "not JSON: {text}");
    let doc = waco_serve::Json::parse(&text).expect("trace parses");
    assert_eq!(
        doc.get("trace").and_then(waco_serve::Json::as_str),
        Some("waco-obs")
    );
    assert!(text.contains("feature_extraction"), "{text}");
    assert!(text.contains("anns_traversal"), "{text}");
    assert!(text.contains("tune/measure"), "{text}");
    // The span tree went to stderr.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace written to"), "{err}");
}

#[test]
fn plan_dumps_text_and_json() {
    let out = cli()
        .args(["plan", "--kernel", "spmv", "--rows", "64", "--cols", "64"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ExecutionPlan SpMV over [64, 64]"), "{text}");
    assert!(text.contains("parallel_chunk"), "{text}");
    assert!(text.contains("body"), "{text}");

    let out = cli()
        .args([
            "plan", "--kernel", "spmm", "--rows", "32", "--cols", "48", "--dense", "8", "--format",
            "json",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // A wide row-major CSR SpMM is claimed by the register-tiled tier, and
    // the report says why.
    assert!(text.contains("\"fast_path\":\"reg_block_spmm\""), "{text}");
    assert!(text.contains("\"fast_path_reason\":"), "{text}");
    assert!(text.contains("\"sparse_dims\":[32,48]"), "{text}");
    // The dumped schedule must round-trip through the serve wire form.
    assert!(text.contains("\"schedule\":"), "{text}");
}

/// The workspace kernels are executor-only: the commands that price or tune
/// refuse them with the typed error before reading any input, and `plan`
/// still lowers them.
#[test]
fn workspace_kernels_are_refused_except_by_plan() {
    for (kernel, name) in [("spgemm", "SpGEMM"), ("sddmm_spmm", "SDDMM+SpMM")] {
        for command in ["bench", "train", "tune"] {
            let out = cli()
                .args([command, "--kernel", kernel, "/nonexistent/path.mtx"])
                .output()
                .expect("runs");
            assert_eq!(out.status.code(), Some(2), "{command} --kernel {kernel}");
            let err = String::from_utf8_lossy(&out.stderr);
            let want = format!("error: {name} is executor-only: neither priced nor tuned");
            assert_eq!(err.trim_end(), want);
        }
        let out = cli()
            .args(["plan", "--kernel", kernel, "--rows", "32", "--cols", "32"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("workspace extent"));
    }
}

#[test]
fn plan_rejects_bad_schedule_json() {
    let out = cli()
        .args(["plan", "--kernel", "spmv", "--schedule", "{not json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--schedule"));
}

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    let dir = tmpdir();
    let mtx = dir.join("typo.mtx");
    let out = cli()
        .args(["gen", "--family", "uniform", "--sise", "999999", "--out"])
        .arg(&mtx)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --sise"), "{err}");
    assert!(!mtx.exists(), "a refused command wrote its output");

    let out = cli()
        .args(["inspect", "g.mtx", "--kernal", "spmm"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --kernal"));
}

/// `verify`'s exit code is CI's gate on a red harness run, so a flag it
/// cannot honour must stop it before any suite runs, not fall back to smoke.
#[test]
fn verify_refuses_bad_flags_without_running() {
    let report = tmpdir().join("never-written.json");
    for (flag, value, names) in [
        ("--budget", "bogus", "--budget"),
        ("--faults", "maybe", "--faults"),
        ("--budgte", "nightly", "unknown flag --budgte"),
    ] {
        let out = cli()
            .args(["verify", flag, value, "--out"])
            .arg(&report)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(names), "{err}");
        assert!(out.stdout.is_empty(), "{flag} {value} ran a suite");
        assert!(!report.exists(), "{flag} {value} wrote a report");
    }
}

/// CI compares the smoke script's `train` checkpoint with a committed
/// digest, on runners whose core count differs from a developer's machine:
/// that is sound only while training does not depend on the pool's size.
#[test]
fn train_checkpoint_does_not_depend_on_the_pool_size() {
    let dir = tmpdir();
    let ckpt = |threads: &str| {
        let path = dir.join(format!("pool{threads}.ckpt"));
        let out = cli()
            .env("WACO_POOL_THREADS", threads)
            .args([
                "train",
                "--kernel",
                "spmm",
                "--matrices",
                "4",
                "--size",
                "32",
                "--epochs",
                "2",
                "--out",
            ])
            .arg(&path)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).expect("checkpoint written")
    };
    assert!(
        ckpt("1") == ckpt("4"),
        "checkpoint bytes depend on the pool"
    );
}
