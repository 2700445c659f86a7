//! The tuning server: the [`crate::reactor`] event loop with a handler made
//! of an executor pool, an in-flight coalescing map, a completion queue,
//! and the `stats` frame.
//!
//! The reactor owns sockets, framing, reply ordering and the pipelining
//! bound (its module docs have the life of a request); this module decides
//! what each request means:
//!
//! 1. Cheap verbs (`stats`, `shutdown`, unparseable requests) are answered
//!    on the loop. `tune`/`lookup`/`sync` take a deferred slot and ship to
//!    a small executor pool ([`ServeConfigBuilder::workers`] threads) so
//!    matrix parsing, tuning and journal reads never stall the loop.
//! 2. **Coalescing:** concurrent `tune` misses for the same
//!    `(fingerprint, kernel, dense extent)` key register as waiters on the
//!    first in-flight tune; the single result answers all of them. Each
//!    waiter increments `serve.tune.coalesced` — under a load spike for one
//!    hot matrix, the tuner runs once.
//! 3. Executors encode the response frame, queue it as a completion and
//!    wake the loop, which fills the waiting slots.
//! 4. A `shutdown` request (or [`Server::begin_shutdown`]) closes the
//!    listener; the loop drains once every connection is gone, executors
//!    drain their queue, and [`Server::wait`] joins everything and syncs
//!    the journal.
//!
//! Every stage is observable: `serve.requests`, `serve.rejected_busy`,
//! `serve.rejected_timeout`, `serve.tune.calls`, `serve.tune.coalesced`,
//! and a `serve.request_seconds` histogram; the `stats` frame additionally
//! reports an always-on latency histogram (p50/p99) and cache / plan-cache
//! hit rates.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use waco_core::WacoError;
use waco_obs::HistStat;
use waco_schedule::Kernel;
use waco_tensor::io::parse_matrix_market;

use crate::cache::{Decision, TuningCache};
use crate::fingerprint::{fnv1a64, Fingerprint};
use crate::json::Json;
use crate::protocol::{
    encode_frame, error_response, lookup_response, sync_response, tune_response, Request,
    SyncRecord, MAX_MATRIX_DIM,
};
use crate::reactor::{Control, Endpoint, Handler, Reactor};
use crate::tuner::Tuner;

/// Records per `sync` response frame. Small enough that one frame stays far
/// under [`crate::protocol::MAX_FRAME_LEN`] even with large schedules, large
/// enough that warming a realistic journal takes a handful of roundtrips.
const SYNC_BATCH: usize = 32;

/// Validated server configuration. Construct via [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    endpoint: Endpoint,
    cache_dir: PathBuf,
    cache_capacity: usize,
    workers: usize,
}

impl ServeConfig {
    /// Starts a builder with localhost defaults (ephemeral port, 1024-entry
    /// cache, 4 executor workers, 64-connection cap, 30 s idle timeout). The
    /// worker count is a constant, not a reading of the host: executors
    /// mostly wait on cache locks and sockets, and kernels run on their own
    /// pool ([`ServeConfigBuilder::workers`] overrides).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: None,
            cache_capacity: 1024,
            workers: 4,
            queue_depth: 64,
            timeout_secs: 30.0,
        }
    }

    /// The configured bind address (port 0 = ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.endpoint.addr()
    }

    /// The cache directory.
    pub fn cache_dir(&self) -> &PathBuf {
        &self.cache_dir
    }

    /// The in-memory cache capacity (entries).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// The idle timeout.
    pub fn timeout(&self) -> Duration {
        self.endpoint.timeout()
    }
}

/// Validating builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    addr: String,
    cache_dir: Option<PathBuf>,
    cache_capacity: usize,
    workers: usize,
    queue_depth: usize,
    timeout_secs: f64,
}

impl ServeConfigBuilder {
    /// Bind address, e.g. `127.0.0.1:7077`. Must be a loopback address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Directory holding the tuning journal. Required.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// In-memory cache capacity (entries).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Number of tune-executor threads (matrix parsing + tuner calls run
    /// here, off the event loop).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Maximum concurrently open connections; excess connections are
    /// answered with a `busy` error frame and closed.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Idle timeout in seconds: a connection with no traffic and no
    /// response in flight for this long is closed.
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.timeout_secs = secs;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] for a missing cache dir, a non-loopback
    /// or unparseable address, zero workers/queue/capacity, or a
    /// non-positive timeout.
    pub fn build(self) -> Result<ServeConfig, WacoError> {
        let endpoint = Endpoint::validate(
            "serve",
            &self.addr,
            self.timeout_secs,
            "queue_depth",
            self.queue_depth,
        )?;
        let cache_dir = self
            .cache_dir
            .ok_or_else(|| WacoError::InvalidConfig("serve.cache_dir is required".into()))?;
        if self.cache_capacity == 0 {
            return Err(WacoError::InvalidConfig(
                "serve.cache_capacity must be at least 1".into(),
            ));
        }
        if self.workers == 0 {
            return Err(WacoError::InvalidConfig(
                "serve.workers must be at least 1".into(),
            ));
        }
        Ok(ServeConfig {
            endpoint,
            cache_dir,
            cache_capacity: self.cache_capacity,
            workers: self.workers,
        })
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

type InflightKey = (Fingerprint, Kernel, usize);

/// A coalesced request waiting on another request's in-flight tune.
struct Waiter {
    conn: u64,
    slot: u64,
    started: Instant,
}

/// A finished off-loop response on its way back to the event loop, already
/// encoded as a frame.
struct Completion {
    conn: u64,
    slot: u64,
    frame: Vec<u8>,
    started: Instant,
}

/// What an off-loop job does.
enum JobKind {
    /// `tune`/`lookup`: parse the matrix, consult the cache, maybe tune.
    Matrix {
        lookup_only: bool,
        kernel: Kernel,
        dense_extent: usize,
        matrix: String,
    },
    /// `sync`: read one batch of journal records (file I/O off the loop).
    Sync { offset: usize },
}

/// A request shipped to the executor pool.
struct Job {
    conn: u64,
    slot: u64,
    kind: JobKind,
    started: Instant,
}

/// State shared by the loop's handler, the executors, and [`Server`]
/// handles.
struct Shared {
    cache: TuningCache,
    tuner: Arc<dyn Tuner>,
    control: Arc<Control>,
    tune_calls: AtomicU64,
    coalesced: AtomicU64,
    inflight: Mutex<HashMap<InflightKey, Vec<Waiter>>>,
    completions: Mutex<Vec<Completion>>,
}

impl Shared {
    fn complete_all(&self, batch: Vec<Completion>) {
        self.completions
            .lock()
            .expect("completion lock poisoned")
            .extend(batch);
        self.control.wake();
    }

    fn begin_shutdown(&self) {
        if self.control.begin_shutdown() {
            waco_obs::counter("serve.shutdowns", 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Executors: matrix parsing, cache consultation, tuning, coalescing
// ---------------------------------------------------------------------------

fn executor_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = rx.lock().expect("job queue lock poisoned").recv();
        let Ok(job) = job else {
            return; // loop exited and the queue is drained
        };
        handle_job(shared, job);
    }
}

fn handle_job(shared: &Shared, job: Job) {
    match &job.kind {
        JobKind::Matrix {
            lookup_only,
            kernel,
            dense_extent,
            matrix,
        } => {
            handle_matrix_job(shared, &job, *lookup_only, *kernel, *dense_extent, matrix);
        }
        JobKind::Sync { offset } => {
            let response = sync_batch_response(shared, *offset);
            complete_one(shared, &job, &response);
        }
    }
}

/// Answers one `sync` request: a batch of journal records from `offset`,
/// each with its checksum, plus the resume cursor.
fn sync_batch_response(shared: &Shared, offset: usize) -> Json {
    let _span = waco_obs::span("serve.request.sync");
    let (tail, total) = match shared.cache.journal_records(offset) {
        Ok(v) => v,
        Err(e) => return error_response(&e.to_string(), false),
    };
    let mut records = Vec::with_capacity(tail.len().min(SYNC_BATCH));
    for payload in tail.iter().take(SYNC_BATCH) {
        let Ok(text) = std::str::from_utf8(payload) else {
            // Journal payloads are written as UTF-8 JSON; anything else
            // means local corruption we must not propagate to a peer.
            return error_response("journal holds a non-UTF-8 record; cannot stream it", false);
        };
        records.push(SyncRecord {
            crc: fnv1a64(payload),
            payload: text.to_string(),
        });
    }
    let next_offset = (offset + records.len()).min(total);
    waco_obs::counter("serve.sync.batches", 1);
    waco_obs::counter("serve.sync.records", records.len() as u64);
    sync_response(&records, next_offset, next_offset >= total, total)
}

fn handle_matrix_job(
    shared: &Shared,
    job: &Job,
    lookup_only: bool,
    kernel: Kernel,
    dense_extent: usize,
    matrix: &str,
) {
    let _span = waco_obs::span(if lookup_only {
        "serve.request.lookup"
    } else {
        "serve.request.tune"
    });
    let (m, fp) = match parse_and_fingerprint(matrix) {
        Ok(v) => v,
        Err(e) => return complete_one(shared, job, &error_response(&e, false)),
    };
    if lookup_only {
        let found = shared.cache.lookup(fp, kernel, dense_extent);
        return complete_one(shared, job, &lookup_response(found.as_ref()));
    }
    if let Some(d) = shared.cache.lookup(fp, kernel, dense_extent) {
        return complete_one(shared, job, &tune_response(&d, true));
    }

    // Cache miss: either join an in-flight tune for this key as a waiter, or
    // become the owner and tune once for everyone who piles up meanwhile.
    let key = (fp, kernel, dense_extent);
    {
        let mut inflight = shared.inflight.lock().expect("inflight lock poisoned");
        if let Some(waiters) = inflight.get_mut(&key) {
            waiters.push(Waiter {
                conn: job.conn,
                slot: job.slot,
                started: job.started,
            });
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.tune.coalesced", 1);
            return;
        }
        inflight.insert(key, Vec::new());
    }

    // Owner path. Re-check the cache: another owner may have finished
    // between our miss above and our registration. The request's miss is
    // already counted, so the re-check is an uncounted probe.
    let response = match shared.cache.probe(fp, kernel, dense_extent) {
        Some(d) => tune_response(&d, true),
        None => {
            shared.tune_calls.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.tune.calls", 1);
            match shared.tuner.tune(&m, kernel, dense_extent) {
                Ok(outcome) => {
                    let decision = Decision {
                        fingerprint: fp,
                        kernel,
                        dense_extent,
                        schedule: outcome.schedule,
                        kernel_seconds: outcome.kernel_seconds,
                        tuning_seconds: outcome.tuning_seconds,
                    };
                    if shared.cache.insert(decision.clone()).is_err() {
                        // The decision is still valid; degraded durability is
                        // worth reporting but not worth failing the request.
                        waco_obs::counter("serve.cache.insert_failures", 1);
                    }
                    tune_response(&decision, false)
                }
                Err(e) => error_response(&e.to_string(), false),
            }
        }
    };

    // Deliver the one result to the owner and every coalesced waiter.
    let waiters = shared
        .inflight
        .lock()
        .expect("inflight lock poisoned")
        .remove(&key)
        .unwrap_or_default();
    let frame = encode_frame(&response);
    let mut batch = Vec::with_capacity(1 + waiters.len());
    for w in waiters {
        batch.push(Completion {
            conn: w.conn,
            slot: w.slot,
            frame: frame.clone(),
            started: w.started,
        });
    }
    batch.push(Completion {
        conn: job.conn,
        slot: job.slot,
        frame,
        started: job.started,
    });
    shared.complete_all(batch);
}

fn complete_one(shared: &Shared, job: &Job, body: &Json) {
    shared.complete_all(vec![Completion {
        conn: job.conn,
        slot: job.slot,
        frame: encode_frame(body),
        started: job.started,
    }]);
}

/// The ingest both tiers share: Matrix Market text off the wire → matrix +
/// fingerprint, or the one-line message for an `ok:false` reply. Linear in
/// the text, and where the wire's dimension bound applies: a matrix wider
/// or taller than [`MAX_MATRIX_DIM`] is refused before anything is sized
/// by its dimensions.
pub fn parse_and_fingerprint(
    matrix: &str,
) -> Result<(waco_tensor::CooMatrix, Fingerprint), String> {
    let m = parse_matrix_market(matrix).map_err(|e| format!("parsing inline matrix: {e}"))?;
    if m.nrows().max(m.ncols()) > MAX_MATRIX_DIM {
        return Err(format!(
            "inline matrix is {}x{}; the wire accepts at most {MAX_MATRIX_DIM} rows or columns",
            m.nrows(),
            m.ncols()
        ));
    }
    let fp = Fingerprint::of_matrix(&m);
    Ok((m, fp))
}

// ---------------------------------------------------------------------------
// The reactor handler
// ---------------------------------------------------------------------------

/// The loop-thread half of the server. Dropping it (when the reactor
/// returns) drops the job sender; executors then drain the queue — late
/// completions go nowhere — and exit.
struct ServeHandler {
    shared: Arc<Shared>,
    jobs: Sender<Job>,
    requests: u64,
    busy_rejects: u64,
    timeout_rejects: u64,
    /// Service time in seconds of every answered request, backing the
    /// `stats` frame's latency section even when `waco-obs` is not installed.
    latency: HistStat,
}

impl Handler for ServeHandler {
    fn on_frame(&mut self, reactor: &mut Reactor, conn: u64, body: &Json, _raw: &[u8]) {
        self.requests += 1;
        waco_obs::counter("serve.requests", 1);
        let started = Instant::now();
        let kind = match Request::from_json(body) {
            Err(e) => return reactor.reply(conn, &error_response(&e.to_string(), false)),
            Ok(Request::Stats) => {
                let _span = waco_obs::span("serve.request.stats");
                let response = self.stats_response(reactor);
                self.record_latency(started);
                return reactor.reply(conn, &response);
            }
            Ok(Request::Shutdown) => {
                let _span = waco_obs::span("serve.request.shutdown");
                self.record_latency(started);
                reactor.reply(
                    conn,
                    &Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]),
                );
                reactor.close_after_flush(conn);
                return self.shared.begin_shutdown();
            }
            Ok(Request::Sync { offset }) => JobKind::Sync { offset },
            Ok(Request::Tune {
                kernel,
                dense_extent,
                matrix,
            }) => JobKind::Matrix {
                lookup_only: false,
                kernel,
                dense_extent,
                matrix,
            },
            Ok(Request::Lookup {
                kernel,
                dense_extent,
                matrix,
            }) => JobKind::Matrix {
                lookup_only: true,
                kernel,
                dense_extent,
                matrix,
            },
        };
        let Some(slot) = reactor.defer(conn) else {
            return;
        };
        let job = Job {
            conn,
            slot,
            kind,
            started,
        };
        if self.jobs.send(job).is_err() {
            // Executors are gone (shutdown race): fail the slot.
            let frame = encode_frame(&error_response("server is shutting down", false));
            reactor.fill(conn, slot, frame);
        }
    }

    /// Executors finished something: fill the slots they were working on.
    fn on_wake(&mut self, reactor: &mut Reactor) {
        let batch = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion lock poisoned"),
        );
        for c in batch {
            self.record_latency(c.started);
            reactor.fill(c.conn, c.slot, c.frame);
        }
    }

    fn on_busy(&mut self) -> Json {
        self.busy_rejects += 1;
        waco_obs::counter("serve.rejected_busy", 1);
        error_response("server busy: connection limit reached", true)
    }

    fn on_timeout(&mut self) {
        self.timeout_rejects += 1;
        waco_obs::counter("serve.rejected_timeout", 1);
    }
}

// ---------------------------------------------------------------------------
// Server handle
// ---------------------------------------------------------------------------

/// A running tuning server.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("executors", &self.executors.len())
            .finish()
    }
}

impl Server {
    /// Binds, opens the cache, and starts the event loop + executor pool.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] when the bind, the cache open, or the waker
    /// creation fails.
    pub fn start(config: ServeConfig, tuner: Arc<dyn Tuner>) -> Result<Server, WacoError> {
        let _span = waco_obs::span("serve.start");
        let cache = TuningCache::open(
            config.cache_dir.join("tuning.journal"),
            config.cache_capacity,
        )?;
        let (reactor, control) = Reactor::bind(&config.endpoint)?;
        let local_addr = reactor.local_addr();

        let shared = Arc::new(Shared {
            cache,
            tuner,
            control,
            tune_calls: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            completions: Mutex::new(Vec::new()),
        });

        let (jobs, jobs_rx) = channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let mut executors = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&jobs_rx);
            executors.push(std::thread::spawn(move || executor_loop(&shared, &rx)));
        }

        let handler = ServeHandler {
            shared: Arc::clone(&shared),
            jobs,
            requests: 0,
            busy_rejects: 0,
            timeout_rejects: 0,
            latency: HistStat::default(),
        };
        let event_loop = std::thread::spawn(move || reactor.run(handler));

        Ok(Server {
            shared,
            local_addr,
            event_loop: Some(event_loop),
            executors,
        })
    }

    /// The actual bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Flips the drain flag and wakes the loop. Idempotent;
    /// [`Server::wait`] completes the drain.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for drain: joins the event loop and every executor, then syncs
    /// the journal.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] if the final journal sync fails.
    pub fn wait(mut self) -> Result<(), WacoError> {
        if let Some(l) = self.event_loop.take() {
            let _ = l.join();
        }
        for w in self.executors.drain(..) {
            let _ = w.join();
        }
        self.shared.cache.sync()
    }
}

// ---------------------------------------------------------------------------
// The stats frame
// ---------------------------------------------------------------------------

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl ServeHandler {
    fn record_latency(&mut self, started: Instant) {
        let seconds = started.elapsed().as_secs_f64();
        self.latency.observe(seconds);
        waco_obs::record("serve.request_seconds", seconds);
    }

    fn stats_response(&self, reactor: &Reactor) -> Json {
        let shared = &self.shared;
        let cache = shared.cache.stats();
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::num(cache.hits as f64)),
                    ("misses", Json::num(cache.misses as f64)),
                    ("inserts", Json::num(cache.inserts as f64)),
                    ("resident", Json::num(cache.resident as f64)),
                    ("replayed", Json::num(cache.replayed as f64)),
                    ("capacity", Json::num(shared.cache.capacity() as f64)),
                    ("hit_rate", Json::num(rate(cache.hits, cache.misses))),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("requests", Json::num(self.requests as f64)),
                    ("rejected_busy", Json::num(self.busy_rejects as f64)),
                    ("rejected_timeout", Json::num(self.timeout_rejects as f64)),
                    ("connections", Json::num(reactor.connections() as f64)),
                    (
                        "tune_calls",
                        Json::num(shared.tune_calls.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "coalesced",
                        Json::num(shared.coalesced.load(Ordering::Relaxed) as f64),
                    ),
                    ("draining", Json::Bool(shared.control.draining())),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("count", Json::num(self.latency.count as f64)),
                    ("mean_ms", Json::num(self.latency.mean() * 1e3)),
                    ("p50_ms", Json::num(self.latency.quantile(0.5) * 1e3)),
                    ("p99_ms", Json::num(self.latency.quantile(0.99) * 1e3)),
                    // The observed maximum, 0 while empty.
                    ("max_ms", Json::num(self.latency.quantile(1.0) * 1e3)),
                ]),
            ),
        ];
        if let Some(pc) = shared.tuner.plan_cache_stats() {
            fields.push((
                "plan_cache",
                Json::obj([
                    ("hits", Json::num(pc.hits as f64)),
                    ("misses", Json::num(pc.misses as f64)),
                    ("resident", Json::num(pc.resident as f64)),
                    ("capacity", Json::num(pc.capacity as f64)),
                    ("hit_rate", Json::num(rate(pc.hits, pc.misses))),
                ]),
            ));
        }
        // Live `waco-obs` data when a subscriber is installed (`waco-cli
        // serve --trace`): the same document the trace file holds.
        if waco_obs::enabled() {
            fields.push(("obs", waco_obs::snapshot().to_json()));
        }
        Json::obj(fields)
    }
}
