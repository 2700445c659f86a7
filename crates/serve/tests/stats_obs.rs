//! The `stats` frame's `obs` section is the trace document: the same
//! `Snapshot::to_json` that `waco-cli --trace` writes, not a second shape.
//! Its own test binary, because installing the `waco-obs` subscriber is
//! process-global.

use std::time::Duration;

use waco_core::WacoError;
use waco_schedule::Kernel;
use waco_serve::tuner::{TunedOutcome, Tuner};
use waco_serve::{Client, Json, ServeConfig, Server};
use waco_tensor::CooMatrix;

/// `stats` never tunes.
struct NoTuner;

impl Tuner for NoTuner {
    fn tune(&self, _: &CooMatrix, _: Kernel, _: usize) -> Result<TunedOutcome, WacoError> {
        Err(WacoError::InvalidConfig("this test never tunes".into()))
    }
}

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(map) => map.keys().map(String::as_str).collect(),
        other => panic!("not an object: {other}"),
    }
}

#[test]
fn stats_obs_section_is_the_trace_document() {
    waco_obs::install();
    let dir = std::env::temp_dir().join(format!("waco-serve-stats-obs-{}", std::process::id()));
    let config = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .cache_dir(&dir)
        .workers(1)
        .build()
        .unwrap();
    let server = Server::start(config, std::sync::Arc::new(NoTuner)).unwrap();
    let mut client =
        Client::connect(&server.local_addr().to_string(), Duration::from_secs(30)).unwrap();
    let stats = client.stats().unwrap();
    client.shutdown().unwrap();
    server.wait().unwrap();
    let trace = waco_obs::uninstall().to_json();
    let _ = std::fs::remove_dir_all(&dir);

    let obs = stats
        .get("obs")
        .expect("an installed subscriber adds `obs`");
    assert_eq!(keys(obs), keys(&trace));
    assert_eq!(obs.get("trace").and_then(Json::as_str), Some("waco-obs"));
    let counters = obs.get("counters").and_then(Json::as_arr).unwrap();
    let requests = counters
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some("serve.requests"))
        .expect("the stats request itself is counted");
    assert_eq!(requests.get("value").and_then(Json::as_u64), Some(1));
}
