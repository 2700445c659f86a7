//! The JSON report `waco-cli verify` writes into `results/`. The document
//! is self-contained for replay: it names the seed, the budget, and — for
//! every failure — the kernel, corpus case, matrix seed, schedule index,
//! the schedule itself (both human- and machine-readable), and the first
//! diverging coordinate. The CLI writes [`to_json`] with `Json::write_file`.

use std::collections::BTreeMap;

use waco_schedule::Kernel;
use waco_serve::Json;

use crate::{Failure, SuiteReport, VerifyReport};

fn opt_str(v: &Option<String>) -> Json {
    v.as_ref().map_or(Json::Null, Json::str)
}

fn failure_json(f: &Failure) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("suite".to_string(), Json::str(f.suite));
    obj.insert("kernel".to_string(), opt_str(&f.kernel));
    obj.insert("case".to_string(), Json::str(&f.case_name));
    obj.insert(
        "matrix_seed".to_string(),
        f.matrix_seed.map_or(Json::Null, |s| Json::num(s as f64)),
    );
    obj.insert(
        "schedule_index".to_string(),
        f.schedule_index.map_or(Json::Null, |i| Json::num(i as f64)),
    );
    obj.insert("schedule".to_string(), opt_str(&f.schedule));
    obj.insert(
        "schedule_json".to_string(),
        f.schedule_json.clone().unwrap_or(Json::Null),
    );
    obj.insert(
        "divergence".to_string(),
        f.divergence.as_ref().map_or(Json::Null, |d| {
            Json::obj([
                (
                    "coord",
                    Json::Arr(d.coord.iter().map(|&c| Json::num(c as f64)).collect()),
                ),
                ("expected", Json::num(d.expected)),
                ("actual", Json::num(d.actual)),
            ])
        }),
    );
    obj.insert("detail".to_string(), Json::str(&f.detail));
    Json::Obj(obj)
}

fn suite_json(s: &SuiteReport) -> Json {
    let class = |(k, n): &(Kernel, usize)| (k.wire_name().to_string(), Json::num(*n as f64));
    let classes = Json::Obj(s.classes.iter().map(class).collect());
    let classes = (!s.classes.is_empty()).then_some(("classes", classes));
    let suite = [
        ("name", Json::str(s.name)),
        ("executed", Json::num(s.executed as f64)),
        ("skipped", Json::num(s.skipped as f64)),
        (
            "failures",
            Json::Arr(s.failures.iter().map(failure_json).collect()),
        ),
    ];
    Json::obj(suite.into_iter().chain(classes))
}

/// The whole report as a JSON document.
pub fn to_json(report: &VerifyReport) -> Json {
    Json::obj([
        ("seed", Json::num(report.seed as f64)),
        ("budget", Json::str(report.budget.name())),
        ("passed", Json::Bool(report.passed())),
        ("total_failures", Json::num(report.total_failures() as f64)),
        (
            "suites",
            Json::Arr(report.suites.iter().map(suite_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Tally;
    use crate::{Budget, Divergence};
    use waco_schedule::{named, Kernel, Space};

    #[test]
    fn report_json_roundtrips_the_failure_fields() {
        let space = Space::new(Kernel::SpMV, vec![8, 8], 0);
        let sched = named::default_csr(&space);
        let mut tally = Tally::new("differential");
        tally.failure(
            Some(Kernel::SpMV),
            "banded",
            Some(7),
            Some((Some(3), &sched, &space)),
            Some(Divergence {
                coord: vec![1, 2],
                expected: 1.0,
                actual: 2.0,
            }),
            "shrunk to 1 entries".into(),
        );
        let report = VerifyReport {
            seed: 42,
            budget: Budget::Smoke,
            suites: vec![tally.finish()],
        };
        let text = to_json(&report).to_string();
        let parsed = Json::parse(&text).expect("report text parses back");
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.get("budget").and_then(Json::as_str), Some("smoke"));
        assert_eq!(parsed.get("passed").and_then(Json::as_bool), Some(false));
        let suites = parsed.get("suites").and_then(Json::as_arr).unwrap();
        let fails = suites[0].get("failures").and_then(Json::as_arr).unwrap();
        let f = &fails[0];
        assert_eq!(f.get("kernel").and_then(Json::as_str), Some("spmv"));
        assert_eq!(f.get("matrix_seed").and_then(Json::as_u64), Some(7));
        assert_eq!(f.get("schedule_index").and_then(Json::as_u64), Some(3));
        let d = f.get("divergence").unwrap();
        assert_eq!(
            d.get("coord").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
    }
}
