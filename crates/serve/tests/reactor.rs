//! The reactor on its own: a scripted handler over real loopback sockets,
//! so ordering, the connection cap, framing loss, the idle sweep, the
//! pipelining bound and the drain are checked without a tuner or a shard in
//! the picture.
//!
//! The reactor hands the handler raw frames; the handler decodes them
//! itself and understands two requests: `{"echo":n}` is answered at once,
//! `{"hold":n}` takes a deferred slot that the test releases by number
//! through a command channel (the handler acknowledges each command after
//! applying it, so tests sequence on acks, not sleeps). A body that does
//! not decode gets `frame_body`'s error reply.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use waco_serve::protocol::{encode_frame, frame_body, read_frame, write_frame, MAX_FRAME_LEN};
use waco_serve::reactor::{Control, Endpoint, Handler, Reactor, MAX_PIPELINED};
use waco_serve::Json;

const LONG: Duration = Duration::from_secs(30);

#[derive(Default)]
struct Seen {
    frames: AtomicUsize,
    /// Frames whose body the handler could not decode.
    malformed: AtomicUsize,
    busy: AtomicUsize,
    timeouts: AtomicUsize,
    /// High-water mark of slots the handler was holding at once.
    max_held: AtomicUsize,
    /// `Reactor::connections()` as of the last [`Cmd::Count`].
    connections: AtomicUsize,
}

enum Cmd {
    /// Fill the slot of `{"hold":n}`.
    Release(u64),
    /// Fill every slot currently held, oldest first.
    ReleaseAll,
    /// Record how many connections the reactor has open.
    Count,
}

struct Script {
    seen: Arc<Seen>,
    cmds: Receiver<Cmd>,
    acks: Sender<()>,
    /// `(n, conn, slot)` of every unreleased `hold`, in arrival order.
    held: Vec<(u64, u64, u64)>,
}

impl Script {
    fn release(&mut self, reactor: &mut Reactor, at: usize) {
        let (n, conn, slot) = self.held.remove(at);
        let reply = Json::obj([("held", Json::num(n as f64))]);
        reactor.fill(conn, slot, encode_frame(&reply));
    }
}

impl Handler for Script {
    fn on_frame(&mut self, reactor: &mut Reactor, conn: u64, raw: &[u8]) {
        self.seen.frames.fetch_add(1, Ordering::SeqCst);
        let body = match frame_body(raw) {
            Ok(body) => body,
            Err(reply) => {
                self.seen.malformed.fetch_add(1, Ordering::SeqCst);
                return reactor.reply(conn, &reply);
            }
        };
        assert_eq!(
            raw,
            &encode_frame(&body)[..],
            "raw must be the frame's bytes"
        );
        if let Some(n) = body.get("hold").and_then(Json::as_u64) {
            let slot = reactor.defer(conn).expect("the framing connection is open");
            self.held.push((n, conn, slot));
            self.seen
                .max_held
                .fetch_max(self.held.len(), Ordering::SeqCst);
        } else {
            reactor.reply(conn, &body);
        }
    }

    fn on_wake(&mut self, reactor: &mut Reactor) {
        while let Ok(cmd) = self.cmds.try_recv() {
            match cmd {
                Cmd::Release(n) => {
                    let at = self.held.iter().position(|h| h.0 == n).expect("held");
                    self.release(reactor, at);
                }
                Cmd::ReleaseAll => {
                    while !self.held.is_empty() {
                        self.release(reactor, 0);
                    }
                }
                Cmd::Count => self
                    .seen
                    .connections
                    .store(reactor.connections(), Ordering::SeqCst),
            }
            let _ = self.acks.send(());
        }
    }

    fn on_busy(&mut self) -> Json {
        self.seen.busy.fetch_add(1, Ordering::SeqCst);
        Json::obj([("ok", Json::Bool(false)), ("busy", Json::Bool(true))])
    }

    fn on_timeout(&mut self) {
        self.seen.timeouts.fetch_add(1, Ordering::SeqCst);
    }
}

struct Rig {
    addr: SocketAddr,
    control: Arc<Control>,
    seen: Arc<Seen>,
    cmds: Sender<Cmd>,
    acks: Receiver<()>,
    thread: JoinHandle<()>,
}

impl Rig {
    fn start(timeout_secs: f64, max_connections: usize) -> Rig {
        let endpoint =
            Endpoint::validate("test", "127.0.0.1:0", timeout_secs, "cap", max_connections)
                .unwrap();
        let (reactor, control) = Reactor::bind(&endpoint).unwrap();
        let addr = reactor.local_addr();
        let seen = Arc::new(Seen::default());
        let (cmds, cmd_rx) = channel();
        let (ack_tx, acks) = channel();
        let script = Script {
            seen: Arc::clone(&seen),
            cmds: cmd_rx,
            acks: ack_tx,
            held: Vec::new(),
        };
        let thread = std::thread::spawn(move || reactor.run(script));
        Rig {
            addr,
            control,
            seen,
            cmds,
            acks,
            thread,
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_read_timeout(Some(LONG)).unwrap();
        s
    }

    /// Sends a command and waits until the handler has applied it.
    fn command(&self, cmd: Cmd) {
        self.cmds.send(cmd).unwrap();
        self.control.wake();
        self.acks.recv_timeout(LONG).expect("handler acks");
    }

    fn wait_for_frames(&self, n: usize) {
        let deadline = Instant::now() + LONG;
        while self.seen.frames.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "handler never saw {n} frames");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn stop(self) {
        self.control.begin_shutdown();
        self.thread.join().unwrap();
    }
}

fn hold(n: u64) -> Json {
    Json::obj([("hold", Json::num(n as f64))])
}

fn echo(n: u64) -> Json {
    Json::obj([("echo", Json::num(n as f64))])
}

fn send(s: &mut TcpStream, body: &Json) {
    write_frame(s, body).unwrap();
}

fn recv(s: &mut TcpStream) -> Json {
    read_frame(s).unwrap().expect("a frame, not a disconnect")
}

/// Asserts that nothing arrives on `s` for a little while. It can only
/// err towards passing, so it backs up — never replaces — an order check.
fn assert_quiet(s: &mut TcpStream) {
    s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut byte = [0u8; 1];
    match s.read(&mut byte) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("expected silence, got {other:?}"),
    }
    s.set_read_timeout(Some(LONG)).unwrap();
}

/// Asserts that the reactor closed `s`. A close with unread bytes on the
/// server side reaches the client as a reset rather than an EOF.
fn assert_closed(s: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match s.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("the reactor must close the connection, got {other:?}"),
    }
}

#[test]
fn out_of_order_fills_flush_in_request_order() {
    let rig = Rig::start(30.0, 8);
    let mut c = rig.connect();
    send(&mut c, &hold(0));
    send(&mut c, &hold(1));
    send(&mut c, &echo(2));
    send(&mut c, &hold(3));
    rig.wait_for_frames(4);

    // The last and the second slot become ready first; the first is still
    // waiting, so not even the already-answered echo may leave.
    rig.command(Cmd::Release(3));
    rig.command(Cmd::Release(1));
    assert_quiet(&mut c);

    rig.command(Cmd::Release(0));
    let replies: Vec<Json> = (0..4).map(|_| recv(&mut c)).collect();
    assert_eq!(
        replies,
        vec![
            Json::obj([("held", Json::num(0))]),
            Json::obj([("held", Json::num(1))]),
            echo(2),
            Json::obj([("held", Json::num(3))]),
        ]
    );
    drop(c);
    rig.stop();
}

#[test]
fn connection_cap_answers_busy_then_closes() {
    let rig = Rig::start(30.0, 1);
    let mut first = rig.connect();
    send(&mut first, &echo(1));
    assert_eq!(recv(&mut first), echo(1));

    let mut second = rig.connect();
    let reply = recv(&mut second);
    assert_eq!(reply.get("busy").and_then(Json::as_bool), Some(true));
    assert_closed(&mut second);
    assert_eq!(rig.seen.busy.load(Ordering::SeqCst), 1);

    // The admitted connection is unaffected.
    send(&mut first, &echo(2));
    assert_eq!(recv(&mut first), echo(2));
    drop(first);
    rig.stop();
}

#[test]
fn oversized_prefix_answers_then_closes() {
    let rig = Rig::start(30.0, 8);
    let mut c = rig.connect();
    // A good frame first: it is answered, and still ahead of the error.
    let mut bytes = encode_frame(&echo(7));
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
    bytes.extend_from_slice(b"whatever follows is never interpreted");
    c.write_all(&bytes).unwrap();
    assert_eq!(recv(&mut c), echo(7));
    let reply = recv(&mut c);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert!(reply
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("cap"));
    assert_closed(&mut c);
    assert_eq!(rig.seen.frames.load(Ordering::SeqCst), 1);
    rig.stop();
}

/// The reactor only frames: a body that is not JSON, or not even UTF-8,
/// reaches the handler like any other frame, takes its place in the reply
/// order, and the connection keeps serving. (A length prefix over the cap
/// is the reactor's to answer: `oversized_prefix_answers_then_closes`.)
#[test]
fn malformed_bodies_reach_the_handler_in_request_order() {
    let rig = Rig::start(30.0, 8);
    let mut c = rig.connect();
    let framed = |body: &[u8]| {
        let mut f = (body.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(body);
        f
    };
    let mut bytes = encode_frame(&hold(0));
    bytes.extend(framed(b"{\"echo\":"));
    bytes.extend(framed(&[0xff, 0xfe]));
    bytes.extend(encode_frame(&echo(3)));
    c.write_all(&bytes).unwrap();
    rig.wait_for_frames(4);
    assert_eq!(rig.seen.malformed.load(Ordering::SeqCst), 2);
    // The two error replies wait behind the held slot like any reply.
    assert_quiet(&mut c);
    rig.command(Cmd::Release(0));
    assert_eq!(recv(&mut c), Json::obj([("held", Json::num(0))]));
    for body in [&b"{\"echo\":"[..], &[0xff, 0xfe]] {
        let Err(want) = frame_body(&framed(body)) else {
            panic!("a malformed body decodes")
        };
        assert_eq!(recv(&mut c), want);
    }
    assert_eq!(recv(&mut c), echo(3));
    send(&mut c, &echo(4));
    assert_eq!(recv(&mut c), echo(4));
    assert_eq!(rig.seen.frames.load(Ordering::SeqCst), 5);
    drop(c);
    rig.stop();
}

#[test]
fn half_frame_at_idle_expiry_times_out_exactly_once() {
    let rig = Rig::start(0.2, 8);
    let mut torn = rig.connect();
    torn.write_all(&[0, 0]).unwrap(); // half a length prefix, then silence
    assert_closed(&mut torn);
    assert_eq!(rig.seen.timeouts.load(Ordering::SeqCst), 1);

    // A connection that idles with nothing buffered is swept too, but that
    // is not a timed-out request.
    let mut silent = rig.connect();
    assert_closed(&mut silent);
    assert_eq!(rig.seen.timeouts.load(Ordering::SeqCst), 1);
    assert_eq!(rig.seen.frames.load(Ordering::SeqCst), 0);
    rig.stop();
}

#[test]
fn withheld_fills_cap_a_connection_at_max_pipelined() {
    const EXTRA: usize = 50;
    let total = MAX_PIPELINED + EXTRA;
    let rig = Rig::start(30.0, 8);
    let mut c = rig.connect();
    let mut burst = Vec::new();
    for n in 0..total {
        burst.extend_from_slice(&encode_frame(&hold(n as u64)));
    }
    c.write_all(&burst).unwrap();

    // The handler answers nothing, so the reactor stops handing it frames
    // at the cap; the rest of the burst waits in buffers.
    rig.wait_for_frames(MAX_PIPELINED);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(rig.seen.frames.load(Ordering::SeqCst), MAX_PIPELINED);

    // Flushing the held slots makes room; the tail is then taken without
    // the client sending another byte.
    rig.command(Cmd::ReleaseAll);
    for n in 0..MAX_PIPELINED {
        assert_eq!(recv(&mut c), Json::obj([("held", Json::num(n as f64))]));
    }
    rig.wait_for_frames(total);
    rig.command(Cmd::ReleaseAll);
    for n in MAX_PIPELINED..total {
        assert_eq!(recv(&mut c), Json::obj([("held", Json::num(n as f64))]));
    }
    assert_eq!(rig.seen.max_held.load(Ordering::SeqCst), MAX_PIPELINED);
    drop(c);
    rig.stop();
}

#[test]
fn shutdown_stops_accepting_and_drains_open_connections() {
    let rig = Rig::start(30.0, 8);
    let mut c = rig.connect();
    send(&mut c, &hold(0));
    rig.wait_for_frames(1);

    assert!(rig.control.begin_shutdown(), "first call flips the flag");
    assert!(!rig.control.begin_shutdown(), "second call is a no-op");
    assert!(rig.control.draining());

    // The request in flight is still answered, and the connection keeps
    // working until the client is done with it.
    rig.command(Cmd::Release(0));
    assert_eq!(recv(&mut c), Json::obj([("held", Json::num(0))]));
    send(&mut c, &echo(1));
    assert_eq!(recv(&mut c), echo(1));

    // The listener is gone, so nobody new gets in (a connect may still be
    // parked in the dead listener's backlog, but it is never served).
    if let Ok(mut late) = TcpStream::connect(rig.addr) {
        late.set_read_timeout(Some(LONG)).unwrap();
        let _ = write_frame(&mut late, &echo(9));
        assert!(!matches!(read_frame(&mut late), Ok(Some(_))));
    }

    drop(c);
    rig.thread.join().unwrap();
}

#[test]
fn a_hundred_pipelining_connections_are_each_answered_in_order() {
    const CLIENTS: u64 = 100;
    let rig = Rig::start(30.0, CLIENTS as usize + 28);
    let mut clients: Vec<TcpStream> = (0..CLIENTS).map(|_| rig.connect()).collect();
    // Each client pipelines an echo, a hold and two more echoes in one write,
    // so every echo behind the hold waits for it.
    let script = |c: u64| {
        [
            echo(c * 10),
            hold(c * 10 + 1),
            echo(c * 10 + 2),
            echo(c * 10 + 3),
        ]
    };
    for (c, s) in (0..).zip(&mut clients) {
        let burst: Vec<u8> = script(c).iter().flat_map(encode_frame).collect();
        s.write_all(&burst).unwrap();
    }
    rig.wait_for_frames(4 * CLIENTS as usize);
    rig.command(Cmd::Count);
    assert_eq!(
        rig.seen.connections.load(Ordering::SeqCst),
        CLIENTS as usize
    );

    rig.command(Cmd::ReleaseAll);
    for (c, s) in (0..).zip(&mut clients) {
        let mut want = script(c);
        want[1] = Json::obj([("held", Json::num((c * 10 + 1) as f64))]);
        for w in want {
            assert_eq!(recv(s), w, "client {c}");
        }
    }
    drop(clients);
    rig.stop();
}

#[test]
fn a_client_that_hangs_up_at_the_cap_is_closed_once_its_holds_are_released() {
    let rig = Rig::start(30.0, 8);
    let mut gone = rig.connect();
    let burst: Vec<u8> = (0..MAX_PIPELINED as u64)
        .flat_map(|n| encode_frame(&hold(n)))
        .collect();
    gone.write_all(&burst).unwrap();
    rig.wait_for_frames(MAX_PIPELINED);
    drop(gone);

    // The paused connection is not watched for reading, so the hang-up is
    // noticed once the released replies are written and it reads again.
    rig.command(Cmd::ReleaseAll);
    let deadline = Instant::now() + LONG;
    loop {
        rig.command(Cmd::Count);
        if rig.seen.connections.load(Ordering::SeqCst) == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the hung-up client was never closed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut next = rig.connect();
    send(&mut next, &echo(1));
    assert_eq!(recv(&mut next), echo(1));
    drop(next);
    rig.stop();
}
