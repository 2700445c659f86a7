//! The one event loop under both serving tiers: a nonblocking localhost
//! listener with pipelined framing and in-order replies, generic over a
//! [`Handler`] that decides what a request *means*.
//! The tuning server ([`crate::server`]) is this loop plus an executor
//! pool; the router ([`crate::router`]) is this loop plus a shard table.
//!
//! Life of a request:
//!
//! 1. One thread owns the listener, a waker, and every client connection
//!    (capped by [`Endpoint`]'s connection limit; beyond it a connection is
//!    answered with the handler's `busy` frame and closed). All sockets are
//!    nonblocking. Readiness is one `poll(2)` call
//!    ([`waco_runtime::poll::wait`]) over a set rebuilt before every wait
//!    from the reactor's own tables: the listener, the waker, each
//!    connection by what it wants now, and the fds the handler lists in
//!    [`Handler::watch`].
//! 2. Complete frames are decoded straight out of a connection's read
//!    buffer, so a connection may pipeline. Each frame opens a *slot* at
//!    the back of that connection's queue. Malformed bodies and oversized
//!    prefixes are answered here; every well-formed body goes to
//!    [`Handler::on_frame`], which either answers at once
//!    ([`Reactor::reply`]) or takes the slot's id ([`Reactor::defer`]) and
//!    fills it later ([`Reactor::fill`]) from [`Handler::on_wake`] or
//!    [`Handler::on_event`].
//! 3. **Ordering:** only the ready *prefix* of a slot queue is ever moved
//!    to the socket, so replies leave in request order no matter in which
//!    order the handler fills them. Slot ids are consecutive per
//!    connection, which makes a fill an index off the front slot's id.
//! 4. **Bound:** a connection holds at most [`MAX_PIPELINED`] unanswered
//!    slots. At the cap — or while earlier replies are still waiting for
//!    the peer to read them — the reactor stops reading that connection
//!    (it is not watched for reading, bytes stay in the kernel) and resumes
//!    as slots flush, so a client that writes and never reads holds a bounded
//!    amount of memory and is throttled by TCP.
//! 5. [`Control::begin_shutdown`] closes the listener; [`Reactor::run`]
//!    returns once every connection is gone. Connections idle past the
//!    timeout are swept; a half-received frame at expiry is reported
//!    through [`Handler::on_timeout`].

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use waco_core::WacoError;
use waco_runtime::poll::{self, wake_pair, Event, Interest, PollFd, WakeReceiver, Waker};

use crate::json::Json;
use crate::protocol::{decode_frame, encode_frame, error_response, Decoded, Frame};

/// Most unanswered requests one connection may have in flight; see the
/// module docs, step 4.
pub const MAX_PIPELINED: usize = 128;

const READ_CHUNK: usize = 16 * 1024;

/// What the reactor asks of a tier. Every callback runs on the loop thread.
pub trait Handler {
    /// A complete, well-formed frame arrived on client `conn`; `raw` is its
    /// exact wire bytes (prefix + body). Must open exactly one slot on
    /// `conn`, through [`Reactor::reply`] or [`Reactor::defer`].
    fn on_frame(&mut self, reactor: &mut Reactor, conn: u64, body: &Json, raw: &[u8]);

    /// The waker fired ([`Control::wake`]): off-loop work has results.
    fn on_wake(&mut self, _reactor: &mut Reactor) {}

    /// The handler's own nonblocking fds, listed afresh before every wait:
    /// `watch(fd, id, interest)` for each. Their readiness arrives at
    /// [`Handler::on_event`] under `id`.
    fn watch(&self, _watch: &mut dyn FnMut(RawFd, u64, Interest)) {}

    /// Readiness on an fd the handler listed under `id` in
    /// [`Handler::watch`].
    fn on_event(&mut self, _reactor: &mut Reactor, _id: u64, _event: Event) {}

    /// A connection arrived over the cap: count it and say what to tell it
    /// before it is closed.
    fn on_busy(&mut self) -> Json;

    /// An idle connection was closed with a half-received frame buffered.
    fn on_timeout(&mut self) {}
}

/// Where a reactor listens and how it treats clients — the part of a
/// tier's configuration both tiers share.
#[derive(Debug, Clone)]
pub struct Endpoint {
    addr: SocketAddr,
    timeout: Duration,
    max_connections: usize,
}

impl Endpoint {
    /// Validates the shared settings. `tier` and `cap_name` only name the
    /// offending option in the message (`serve.queue_depth`, …).
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] for a non-loopback or unparseable
    /// address, a zero connection cap, or a non-positive timeout.
    pub fn validate(
        tier: &str,
        addr: &str,
        timeout_secs: f64,
        cap_name: &str,
        max_connections: usize,
    ) -> Result<Endpoint, WacoError> {
        let addr = parse_loopback(&format!("{tier}.addr"), addr)?;
        if max_connections == 0 {
            return Err(WacoError::InvalidConfig(format!(
                "{tier}.{cap_name} must be at least 1"
            )));
        }
        if !(timeout_secs > 0.0 && timeout_secs.is_finite()) {
            return Err(WacoError::InvalidConfig(format!(
                "{tier}.timeout_secs must be positive and finite, got {timeout_secs}"
            )));
        }
        Ok(Endpoint {
            addr,
            timeout: Duration::from_secs_f64(timeout_secs),
            max_connections,
        })
    }

    /// The configured bind address (port 0 = ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The idle timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }
}

/// Parses `text` as a loopback socket address; `what` names the option.
pub(crate) fn parse_loopback(what: &str, text: &str) -> Result<SocketAddr, WacoError> {
    let addr: SocketAddr = text.parse().map_err(|_| {
        WacoError::InvalidConfig(format!("{what} `{text}` is not a socket address"))
    })?;
    if !addr.ip().is_loopback() {
        return Err(WacoError::InvalidConfig(format!(
            "{what} `{addr}` is not a loopback address; the tuning service is localhost-only"
        )));
    }
    Ok(addr)
}

/// The cross-thread handle on a running reactor: its drain flag and waker.
#[derive(Debug)]
pub struct Control {
    shutdown: AtomicBool,
    waker: Waker,
}

impl Control {
    /// Flips the drain flag and wakes the loop. Idempotent; `true` for the
    /// call that flipped it.
    pub fn begin_shutdown(&self) -> bool {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        if first {
            self.waker.wake();
        }
        first
    }

    /// Whether the drain flag is set.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Makes the loop call [`Handler::on_wake`].
    pub fn wake(&self) {
        self.waker.wake();
    }
}

/// A response slot: replies flush strictly in request order, so a slot
/// holds either an encoded frame or a placeholder for a deferred request.
#[derive(Debug)]
enum SlotState {
    Waiting,
    Ready(Vec<u8>),
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Unanswered requests, oldest first. Ids are consecutive, so the
    /// front slot's id is `next_slot - pending.len()`.
    pending: VecDeque<SlotState>,
    next_slot: u64,
    last_activity: Instant,
    close_after_flush: bool,
}

impl Conn {
    fn push(&mut self, state: SlotState) -> u64 {
        let id = self.next_slot;
        self.next_slot += 1;
        self.pending.push_back(state);
        id
    }

    /// Opens a slot that is born answered.
    fn answer(&mut self, body: &Json) {
        self.push(SlotState::Ready(encode_frame(body)));
    }

    /// Whether the idle sweeper may close this connection: nothing buffered
    /// to write and no response in flight.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.wbuf.is_empty()
    }

    /// Whether more requests may be taken off this connection: framing is
    /// intact, the peer has read what it was sent, and the slot queue is
    /// under [`MAX_PIPELINED`].
    fn wants_read(&self) -> bool {
        !self.close_after_flush && self.wbuf.is_empty() && self.pending.len() < MAX_PIPELINED
    }
}

/// What an entry of the readiness set belongs to.
#[derive(Debug, Clone, Copy)]
enum Source {
    Listener,
    Waker,
    Conn(u64),
    Handler(u64),
}

/// The listener, the waker and the connection table. [`Reactor::run`]
/// drives it; a [`Handler`] steers it through the methods below.
#[derive(Debug)]
pub struct Reactor {
    control: Arc<Control>,
    listener: Option<TcpListener>,
    local_addr: SocketAddr,
    wake_rx: WakeReceiver,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections whose slot queue changed since they were last flushed.
    touched: Vec<u64>,
    max_connections: usize,
    timeout: Duration,
}

impl Reactor {
    /// Binds the listener and sets up the waker.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] when the bind or the waker creation fails.
    pub fn bind(endpoint: &Endpoint) -> Result<(Reactor, Arc<Control>), WacoError> {
        let listener = TcpListener::bind(endpoint.addr)
            .map_err(|e| WacoError::io(format!("binding {}", endpoint.addr), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| WacoError::io("setting listener nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| WacoError::io("reading bound address", e))?;
        let (waker, wake_rx) =
            wake_pair().map_err(|e| WacoError::io("creating event-loop waker", e))?;
        let control = Arc::new(Control {
            shutdown: AtomicBool::new(false),
            waker,
        });
        let reactor = Reactor {
            control: Arc::clone(&control),
            listener: Some(listener),
            local_addr,
            wake_rx,
            conns: HashMap::new(),
            next_token: 0,
            touched: Vec::new(),
            max_connections: endpoint.max_connections,
            timeout: endpoint.timeout,
        };
        Ok((reactor, control))
    }

    /// The actual bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently open client connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Answers the request being handled on `conn` right away.
    pub fn reply(&mut self, conn: u64, body: &Json) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.answer(body);
            self.touched.push(conn);
        }
    }

    /// Opens a slot for the request being handled on `conn`, to be
    /// [`Reactor::fill`]ed later; `None` if the connection is gone.
    pub fn defer(&mut self, conn: u64) -> Option<u64> {
        Some(self.conns.get_mut(&conn)?.push(SlotState::Waiting))
    }

    /// Completes a deferred slot with an encoded response frame. A
    /// connection that closed while the request was in flight swallows it.
    pub fn fill(&mut self, conn: u64, slot: u64, frame: Vec<u8>) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let front = c.next_slot - c.pending.len() as u64;
        if let Some(state) = slot
            .checked_sub(front)
            .and_then(|i| c.pending.get_mut(i as usize))
        {
            *state = SlotState::Ready(frame);
            self.touched.push(conn);
        }
    }

    /// Stops taking requests from `conn` and closes it once everything
    /// queued so far has been written.
    pub fn close_after_flush(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.close_after_flush = true;
        }
    }

    /// Runs the loop until shutdown has been requested and every
    /// connection is gone, then drops the handler.
    pub fn run<H: Handler>(mut self, mut handler: H) {
        let handler = &mut handler;
        let (mut set, mut sources) = (Vec::new(), Vec::new());
        loop {
            if self.control.draining() {
                self.listener = None;
            }
            if self.listener.is_none() && self.conns.is_empty() {
                return;
            }
            self.readiness_set(handler, &mut set, &mut sources);
            if poll::wait(&mut set, self.wait_budget()).is_err() {
                return; // a failing poll is unrecoverable
            }
            for (entry, &source) in set.iter().zip(&sources) {
                let Some(ev) = entry.event() else {
                    continue;
                };
                match source {
                    Source::Listener => self.accept_all(handler),
                    Source::Waker => {
                        self.wake_rx.drain();
                        handler.on_wake(&mut self);
                    }
                    Source::Handler(id) => handler.on_event(&mut self, id, ev),
                    Source::Conn(token) => {
                        if ev.readable {
                            self.read_conn(handler, token, ev.closed);
                        }
                        self.touched.push(token);
                    }
                }
            }
            // Flushing can resume a paused connection, whose requests can
            // touch further connections; run to a fixed point.
            while !self.touched.is_empty() {
                let mut batch = std::mem::take(&mut self.touched);
                batch.sort_unstable();
                batch.dedup();
                for token in batch {
                    self.advance(handler, token);
                }
            }
            self.sweep_idle(handler);
        }
    }

    /// Lists what the next wait watches, from the tables as they stand: the
    /// listener, the waker, every connection for what it wants now, and the
    /// handler's own fds. `sources[i]` says whose `set[i]` is.
    fn readiness_set<H: Handler>(
        &self,
        handler: &H,
        set: &mut Vec<PollFd>,
        sources: &mut Vec<Source>,
    ) {
        set.clear();
        sources.clear();
        let mut watch = |fd, source, interest| {
            set.push(PollFd::new(fd, interest));
            sources.push(source);
        };
        if let Some(l) = &self.listener {
            watch(l.as_raw_fd(), Source::Listener, Interest::READ);
        }
        watch(self.wake_rx.as_raw_fd(), Source::Waker, Interest::READ);
        for (&token, c) in &self.conns {
            let want = Interest {
                read: c.wants_read(),
                write: !c.wbuf.is_empty(),
            };
            watch(c.stream.as_raw_fd(), Source::Conn(token), want);
        }
        handler.watch(&mut |fd, id, interest| watch(fd, Source::Handler(id), interest));
    }

    /// How long the poll wait may block: until the earliest idle deadline
    /// among closable connections, capped to a 1 s heartbeat whenever any
    /// connection exists (so stuck flushes cannot wedge the loop), and
    /// unbounded only for an idle listener.
    fn wait_budget(&self) -> Option<Duration> {
        if self.conns.is_empty() {
            return None;
        }
        let now = Instant::now();
        let mut budget = Duration::from_secs(1);
        for c in self.conns.values() {
            if c.idle() {
                let deadline = c.last_activity + self.timeout;
                let remaining = deadline.saturating_duration_since(now);
                budget = budget.min(remaining.max(Duration::from_millis(10)));
            }
        }
        Some(budget)
    }

    fn accept_all<H: Handler>(&mut self, handler: &mut H) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        pending: VecDeque::new(),
                        next_slot: 0,
                        last_activity: Instant::now(),
                        close_after_flush: false,
                    };
                    if self.conns.len() >= self.max_connections {
                        // Over the connection cap: answer busy and close.
                        conn.answer(&handler.on_busy());
                        conn.close_after_flush = true;
                    }
                    self.conns.insert(token, conn);
                    self.touched.push(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Reads a chunk at a time, parsing as it goes, so a connection that
    /// hits its pipelining cap mid-burst stops being read right there.
    fn read_conn<H: Handler>(&mut self, handler: &mut H, token: u64, hangup: bool) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.wants_read() {
                // Paused: the bytes stay in the kernel. A hangup would keep
                // firing level-triggered, and the replies it is paused on
                // have nobody left to read them.
                if hangup {
                    self.close_conn(token);
                }
                return;
            }
            match read_chunk(&mut conn.stream, &mut conn.rbuf) {
                Ok(0) => return,
                Ok(_) => {
                    conn.last_activity = Instant::now();
                    self.parse_frames(handler, token);
                }
                Err(_) => {
                    // Peer closed or failed; any response still in flight
                    // has nobody left to read it.
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Opens a slot for every complete frame buffered on `token`, up to the
    /// pipelining cap; whatever is left stays buffered for [`Self::advance`].
    fn parse_frames<H: Handler>(&mut self, handler: &mut H, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // The handler gets `&mut self` while it looks at a frame's bytes,
        // so the buffer steps out of the table for the duration.
        let mut rbuf = std::mem::take(&mut conn.rbuf);
        let mut consumed = 0;
        while let Some(conn) = self.conns.get_mut(&token) {
            if !conn.wants_read() {
                break; // at the cap, or framing lost / draining: keep the tail
            }
            match decode_frame(&rbuf[consumed..]) {
                Decoded::Incomplete => break,
                Decoded::Oversized(msg) => {
                    // Answer, then close: the connection cannot be re-synced.
                    conn.answer(&error_response(&msg, false));
                    conn.close_after_flush = true;
                    break;
                }
                Decoded::Complete(n, Frame::Malformed(msg)) => {
                    // Framing is intact: answer and keep serving.
                    conn.answer(&error_response(&msg, false));
                    consumed += n;
                }
                Decoded::Complete(n, Frame::Body(body)) => {
                    let raw = &rbuf[consumed..consumed + n];
                    consumed += n;
                    handler.on_frame(self, token, &body, raw);
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            rbuf.drain(..consumed);
            conn.rbuf = rbuf;
        }
    }

    /// Flushes a connection as far as the socket allows (ready prefix of
    /// the slot queue → write buffer → socket) and resumes parsing if that
    /// made room.
    fn advance<H: Handler>(&mut self, handler: &mut H, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some(SlotState::Ready(frame)) = conn.pending.front_mut() {
            conn.wbuf.append(frame);
            conn.pending.pop_front();
        }
        match write_some(&mut conn.stream, &mut conn.wbuf) {
            Ok(0) => {}
            Ok(_) => conn.last_activity = Instant::now(),
            Err(_) => return self.close_conn(token),
        }
        if conn.close_after_flush && conn.idle() {
            return self.close_conn(token);
        }
        if conn.wants_read() && !conn.rbuf.is_empty() {
            self.parse_frames(handler, token);
        }
    }

    /// Dropping the connection closes its socket.
    fn close_conn(&mut self, token: u64) {
        self.conns.remove(&token);
    }

    /// Closes connections idle past the timeout. A half-received frame at
    /// expiry counts as a timed-out request — this is what unwedges the
    /// loop from peers that die mid-frame.
    fn sweep_idle<H: Handler>(&mut self, handler: &mut H) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) > self.timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            if self.conns.get(&token).is_some_and(|c| !c.rbuf.is_empty()) {
                handler.on_timeout();
            }
            self.close_conn(token);
        }
    }
}

/// One nonblocking read appended to `buf`. `Ok(0)` means the socket would
/// block; a peer that closed is an error here, like any other failure —
/// every caller tears the connection down on both.
pub(crate) fn read_chunk(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let len = buf.len();
    buf.resize(len + READ_CHUNK, 0);
    let result = loop {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => break Ok(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    buf.truncate(len + result.as_ref().map_or(0, |&n| n));
    result
}

/// Writes as much of `buf` as the socket takes without blocking and drains
/// what was written; returns how many bytes that was.
pub(crate) fn write_some(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut written = 0;
    let result = loop {
        if written == buf.len() {
            break Ok(());
        }
        match stream.write(&buf[written..]) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    buf.drain(..written);
    result.map(|()| written)
}
