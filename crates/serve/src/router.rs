//! The fingerprint-sharded router: a thin proxy that consistent-hashes
//! `tune`/`lookup` requests over the 128-bit sparsity fingerprint onto N
//! shard servers, with failover to the ring's next live shard.
//!
//! The router is the [`crate::reactor`] event loop — the same one under the
//! tuning server — with a handler made of a shard table and a hash ring. It
//! never tunes and never caches: its whole job is to pick a shard and move
//! frames. Life of a request, past what the reactor does for it:
//!
//! 1. `stats` and `shutdown` are answered locally (shutdown drains the
//!    *router*; shards stay up). `sync` is refused — journal streaming is
//!    shard-to-shard.
//! 2. `tune`/`lookup` bodies are fingerprinted on the loop (parsing is
//!    cheap relative to tuning) — except a frame whose exact bytes the
//!    request memo holds (the `memo` module; admitted on a frame's second
//!    arrival), which is routed by the fingerprint remembered for them —
//!    the request takes a deferred slot, and the
//!    frame's *exact bytes* are forwarded over one persistent connection
//!    per shard — listed to the reactor as handler fds — to the first
//!    reachable shard in [`HashRing::successors`] order. Shards answer in
//!    order, so the reply at the head of a shard's stream fills the slot at
//!    the head of its in-flight queue, byte-exact and unparsed: the client
//!    sees precisely what the shard said. Pipelined requests that hash to
//!    different shards complete in any order upstream; the reactor's slot
//!    queue puts them back in request order.
//! 3. **Failover:** a shard that refuses connections, dies mid-frame, or
//!    closes mid-stream is marked down; every request in flight on it is
//!    re-dispatched to the next live shard on that key's ring walk, which
//!    cold-tunes. Degraded, never wrong: the fallback shard computes the
//!    same deterministic decision the owner would have. A request only
//!    fails when *no* shard is reachable. Down shards are re-dialed after a
//!    cooldown.
//!
//! Observability: `serve.route.requests`, `serve.route.forwarded`,
//! `serve.route.failover`, `serve.route.shard_down`,
//! `serve.route.reconnects`, `serve.memo.hits`, and `router` and `memo`
//! sections in the local `stats` frame, the first with per-shard states.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use waco_core::WacoError;
use waco_runtime::poll::{Event, Interest};

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::memo::{Ingest, RequestMemo};
use crate::protocol::{encode_frame, error_response, frame_body, frame_extent, Extent, Request};
use crate::reactor::{parse_loopback, read_chunk, write_some, Control, Endpoint, Handler, Reactor};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::server::parse_and_fingerprint;

/// How long one blocking dial of a shard may take. Loopback refusals are
/// immediate; this only bounds a pathologically unresponsive stack.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a down shard stays quarantined before the router re-dials it.
const RETRY_COOLDOWN: Duration = Duration::from_secs(1);

/// Validated router configuration. Construct via [`RouterConfig::builder`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    endpoint: Endpoint,
    shards: Vec<SocketAddr>,
    vnodes: usize,
}

impl RouterConfig {
    /// Starts a builder with localhost defaults (ephemeral port,
    /// [`DEFAULT_VNODES`] ring points per shard, 64-connection cap, 30 s
    /// client idle timeout). Shard addresses are required.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: DEFAULT_VNODES,
            timeout_secs: 30.0,
            max_connections: 64,
        }
    }

    /// The configured bind address (port 0 = ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.endpoint.addr()
    }

    /// The shard addresses, in ring-index order.
    pub fn shards(&self) -> &[SocketAddr] {
        &self.shards
    }
}

/// Validating builder for [`RouterConfig`].
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    addr: String,
    shards: Vec<String>,
    vnodes: usize,
    timeout_secs: f64,
    max_connections: usize,
}

impl RouterConfigBuilder {
    /// Bind address, e.g. `127.0.0.1:7070`. Must be loopback.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Adds one shard address. Ring index = insertion order.
    pub fn shard(mut self, addr: impl Into<String>) -> Self {
        self.shards.push(addr.into());
        self
    }

    /// Virtual nodes per shard on the hash ring.
    pub fn vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Client idle timeout in seconds.
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.timeout_secs = secs;
        self
    }

    /// Maximum concurrently open client connections.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] for no shards, a non-loopback or
    /// unparseable address (router or shard), zero vnodes/connections, or a
    /// non-positive timeout.
    pub fn build(self) -> Result<RouterConfig, WacoError> {
        let endpoint = Endpoint::validate(
            "router",
            &self.addr,
            self.timeout_secs,
            "max_connections",
            self.max_connections,
        )?;
        if self.shards.is_empty() {
            return Err(WacoError::InvalidConfig(
                "router needs at least one shard address".into(),
            ));
        }
        let shards = self
            .shards
            .iter()
            .map(|s| parse_loopback("router shard", s))
            .collect::<Result<Vec<_>, _>>()?;
        if self.vnodes == 0 {
            return Err(WacoError::InvalidConfig(
                "router.vnodes must be at least 1".into(),
            ));
        }
        Ok(RouterConfig {
            endpoint,
            shards,
            vnodes: self.vnodes,
        })
    }
}

// ---------------------------------------------------------------------------
// The reactor handler
// ---------------------------------------------------------------------------

/// One request forwarded (or awaiting forwarding) to a shard. Keeps the
/// encoded frame and the fingerprint so a shard death can re-dispatch it
/// down the ring walk.
struct Pending {
    conn: u64,
    slot: u64,
    frame: Vec<u8>,
    fp: Fingerprint,
    tried: Vec<usize>,
}

/// The router's connection to one shard, watched by the reactor under the
/// shard's index while connected. `stream` is lazily dialed; `down_since`
/// quarantines a shard that failed until the cooldown passes.
struct Upstream {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    down_since: Option<Instant>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
}

impl Upstream {
    fn state_name(&self) -> &'static str {
        if self.stream.is_some() {
            "connected"
        } else if self.down_since.is_some() {
            "down"
        } else {
            "idle"
        }
    }
}

struct RouteHandler {
    control: Arc<Control>,
    ring: HashRing,
    upstreams: Vec<Upstream>,
    memo: RequestMemo,
    requests: u64,
    forwarded: u64,
    failover: u64,
    shard_down: u64,
    reconnects: u64,
}

impl Handler for RouteHandler {
    fn on_frame(&mut self, reactor: &mut Reactor, conn: u64, raw: &[u8]) {
        if let Some(ingest) = self.memo.get(raw) {
            self.count_request();
            return self.forward(reactor, conn, raw, ingest.fingerprint);
        }
        let body = match frame_body(raw) {
            Ok(body) => body,
            // Answered, but not counted: `requests` counts decoded bodies.
            Err(reply) => return reactor.reply(conn, &reply),
        };
        self.count_request();
        let (lookup_only, kernel, dense_extent, matrix) = match Request::from_json(&body) {
            Err(e) => return reactor.reply(conn, &error_response(&e.to_string(), false)),
            Ok(Request::Stats) => return reactor.reply(conn, &self.stats_response()),
            Ok(Request::Shutdown) => {
                reactor.reply(
                    conn,
                    &Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]),
                );
                reactor.close_after_flush(conn);
                self.control.begin_shutdown();
                return waco_obs::counter("serve.route.shutdowns", 1);
            }
            // Journal streaming is shard-to-shard: a joiner dials the
            // source shard directly (`serve --sync-from`).
            Ok(Request::Sync { .. }) => {
                return reactor.reply(
                    conn,
                    &error_response("sync must target a shard directly, not the router", false),
                )
            }
            Ok(Request::Tune {
                kernel,
                dense_extent,
                matrix,
            }) => (false, kernel, dense_extent, matrix),
            Ok(Request::Lookup {
                kernel,
                dense_extent,
                matrix,
            }) => (true, kernel, dense_extent, matrix),
        };
        let fingerprint = match parse_and_fingerprint(&matrix) {
            Ok((_, fp)) => fp,
            Err(e) => return reactor.reply(conn, &error_response(&e, false)),
        };
        if self.memo.sighted(raw) {
            let ingest = Ingest {
                lookup_only,
                kernel,
                dense_extent,
                fingerprint,
            };
            self.memo.admit(raw.to_vec(), ingest);
        }
        self.forward(reactor, conn, raw, fingerprint);
    }

    fn watch(&self, watch: &mut dyn FnMut(RawFd, u64, Interest)) {
        for (shard, up) in self.upstreams.iter().enumerate() {
            if let Some(stream) = &up.stream {
                let want = Interest {
                    read: true,
                    write: !up.wbuf.is_empty(),
                };
                watch(stream.as_raw_fd(), shard as u64, want);
            }
        }
    }

    fn on_event(&mut self, reactor: &mut Reactor, id: u64, event: Event) {
        let shard = id as usize;
        if event.readable {
            self.read_upstream(reactor, shard);
        }
        if event.writable {
            self.flush_upstream(reactor, shard);
        }
    }

    fn on_busy(&mut self) -> Json {
        error_response("router busy: connection limit reached", true)
    }
}

impl RouteHandler {
    fn count_request(&mut self) {
        self.requests += 1;
        waco_obs::counter("serve.route.requests", 1);
    }

    /// Takes a deferred slot for the frame `raw` and dispatches it by `fp`.
    fn forward(&mut self, reactor: &mut Reactor, conn: u64, raw: &[u8], fp: Fingerprint) {
        let Some(slot) = reactor.defer(conn) else {
            return;
        };
        self.dispatch(
            reactor,
            Pending {
                conn,
                slot,
                frame: raw.to_vec(),
                fp,
                tried: Vec::new(),
            },
        );
    }

    /// Forwards `pending` to the first reachable shard on its key's ring
    /// walk, skipping shards it already tried. When the chosen shard is not
    /// the key's owner, that is a failover. When no shard is reachable, the
    /// client gets an error frame — the only case a routed request fails.
    fn dispatch(&mut self, reactor: &mut Reactor, mut pending: Pending) {
        let order = self.ring.successors(pending.fp);
        let primary = order[0];
        for shard in order {
            if pending.tried.contains(&shard) {
                continue;
            }
            if !self.ensure_connected(shard) {
                continue;
            }
            pending.tried.push(shard);
            if shard != primary {
                self.failover += 1;
                waco_obs::counter("serve.route.failover", 1);
            }
            self.forwarded += 1;
            waco_obs::counter("serve.route.forwarded", 1);
            let up = &mut self.upstreams[shard];
            up.wbuf.extend_from_slice(&pending.frame);
            up.inflight.push_back(pending);
            return self.flush_upstream(reactor, shard);
        }
        reactor.fill(
            pending.conn,
            pending.slot,
            encode_frame(&error_response(
                "no shard reachable for this request",
                false,
            )),
        );
    }

    /// Dials the shard if needed. Returns `false` while it is quarantined
    /// or the dial fails (which starts/extends the quarantine).
    fn ensure_connected(&mut self, shard: usize) -> bool {
        let up = &mut self.upstreams[shard];
        if up.stream.is_some() {
            return true;
        }
        if up
            .down_since
            .is_some_and(|since| since.elapsed() < RETRY_COOLDOWN)
        {
            return false;
        }
        let dialed = TcpStream::connect_timeout(&up.addr, CONNECT_TIMEOUT).and_then(|s| {
            s.set_nonblocking(true)?;
            let _ = s.set_nodelay(true);
            Ok(s)
        });
        let Ok(stream) = dialed else {
            self.mark_down(shard);
            return false;
        };
        if up.down_since.take().is_some() {
            self.reconnects += 1;
            waco_obs::counter("serve.route.reconnects", 1);
        }
        up.stream = Some(stream);
        up.rbuf.clear();
        up.wbuf.clear();
        true
    }

    fn mark_down(&mut self, shard: usize) {
        let up = &mut self.upstreams[shard];
        if up.down_since.is_none() {
            self.shard_down += 1;
            waco_obs::counter("serve.route.shard_down", 1);
        }
        up.down_since = Some(Instant::now());
    }

    /// Tears down a failed shard connection and re-dispatches everything in
    /// flight on it down each key's ring walk — the mid-frame-death path.
    fn upstream_failed(&mut self, reactor: &mut Reactor, shard: usize) {
        let up = &mut self.upstreams[shard];
        up.stream = None;
        up.rbuf.clear();
        up.wbuf.clear();
        let stranded: Vec<Pending> = up.inflight.drain(..).collect();
        self.mark_down(shard);
        for p in stranded {
            self.dispatch(reactor, p);
        }
    }

    /// Reads whatever the shard has sent and pairs each complete response
    /// frame with the front of the shard's in-flight queue — shards answer
    /// strictly in order, so position is identity.
    fn read_upstream(&mut self, reactor: &mut Reactor, shard: usize) {
        let up = &mut self.upstreams[shard];
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        loop {
            match read_chunk(stream, &mut up.rbuf) {
                Ok(0) => break,
                Ok(_) => {}
                // The shard closed (or died); everything in flight on it
                // must be re-routed.
                Err(_) => return self.upstream_failed(reactor, shard),
            }
        }
        let mut consumed = 0;
        loop {
            match frame_extent(&up.rbuf[consumed..]) {
                Extent::Incomplete => break,
                // A shard violating framing cannot be trusted for the rest
                // of the stream either.
                Extent::Oversized(_) => return self.upstream_failed(reactor, shard),
                Extent::Complete(n) => {
                    // An unsolicited frame (no pending request) is dropped.
                    if let Some(p) = up.inflight.pop_front() {
                        let frame = up.rbuf[consumed..consumed + n].to_vec();
                        reactor.fill(p.conn, p.slot, frame);
                    }
                    consumed += n;
                }
            }
        }
        up.rbuf.drain(..consumed);
    }

    fn flush_upstream(&mut self, reactor: &mut Reactor, shard: usize) {
        let up = &mut self.upstreams[shard];
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        if write_some(stream, &mut up.wbuf).is_err() {
            self.upstream_failed(reactor, shard);
        }
    }

    fn stats_response(&self) -> Json {
        let shard_states = Json::Arr(
            self.upstreams
                .iter()
                .map(|u| {
                    Json::obj([
                        ("addr", Json::str(u.addr.to_string())),
                        ("state", Json::str(u.state_name())),
                        ("inflight", Json::num(u.inflight.len() as f64)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("ok", Json::Bool(true)),
            (
                "router",
                Json::obj([
                    ("shards", Json::num(self.upstreams.len() as f64)),
                    ("vnodes", Json::num(self.ring.vnodes() as f64)),
                    ("requests", Json::num(self.requests as f64)),
                    ("forwarded", Json::num(self.forwarded as f64)),
                    ("failover", Json::num(self.failover as f64)),
                    ("shard_down", Json::num(self.shard_down as f64)),
                    ("reconnects", Json::num(self.reconnects as f64)),
                    ("draining", Json::Bool(self.control.draining())),
                    ("shard_states", shard_states),
                ]),
            ),
            ("memo", self.memo.stats_json()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Router handle
// ---------------------------------------------------------------------------

/// A running router.
pub struct Router {
    control: Arc<Control>,
    local_addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Router {
    /// Binds and starts the proxy loop. Shards are dialed lazily on first
    /// use, so they may come up after the router does.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] when the bind or waker creation fails.
    pub fn start(config: RouterConfig) -> Result<Router, WacoError> {
        let _span = waco_obs::span("serve.route.start");
        let (reactor, control) = Reactor::bind(&config.endpoint)?;
        let local_addr = reactor.local_addr();
        let upstreams: Vec<Upstream> = config
            .shards
            .iter()
            .map(|&addr| Upstream {
                addr,
                stream: None,
                down_since: None,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                inflight: VecDeque::new(),
            })
            .collect();
        let handler = RouteHandler {
            control: Arc::clone(&control),
            ring: HashRing::with_vnodes(upstreams.len(), config.vnodes),
            upstreams,
            memo: RequestMemo::new(),
            requests: 0,
            forwarded: 0,
            failover: 0,
            shard_down: 0,
            reconnects: 0,
        };
        // Returning from `run` drops the handler and with it the shard
        // connections; the shards keep running.
        let thread = std::thread::spawn(move || reactor.run(handler));
        Ok(Router {
            control,
            local_addr,
            thread: Some(thread),
        })
    }

    /// The actual bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Flips the drain flag and wakes the loop; [`Router::wait`] completes
    /// the drain. Shards are not told to shut down.
    pub fn begin_shutdown(&self) {
        self.control.begin_shutdown();
    }

    /// Waits for the proxy loop to drain and exit.
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
