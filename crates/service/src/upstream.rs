//! The client-facing connection both event loops drive — the shard's
//! (`event_loop.rs`) and the router's (`router/event_loop.rs`) — and
//! the socket half the router's shard links reuse.
//!
//! A [`Link`] is one nonblocking socket with its [`Framer`] and
//! [`WriteBuf`]: edge-triggered read and flush, and enqueue under the
//! `write_trunc`/`write_stall` faults. An [`Upstream`] adds what a
//! client connection needs: the v1/v2 [`Mode`] and the legacy
//! serialization gate, the pending-line queue with `read_stall` parking
//! and oversized-line replies, the hello / mandatory-v2-id / id-replay
//! checks, and the frame-stall / write-stall / idle timers. What a loop
//! does with a request — the server's job queue, the router's jobs and
//! shard tier — stays in that loop, which keeps its own per-job record
//! `J` in [`Upstream::jobs`].

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use sempe_core::json::Json;
use sempe_core::telemetry::Counter;

use crate::conn::{FrameEvent, Framer, IdWindow, WriteBuf};
use crate::fault::{FaultInjector, FaultSite};
use crate::net::{prepare_stream, Event, Poller};
use crate::protocol::{
    with_id, Envelope, ErrorCode, Request, ServiceError, MAX_REQUEST_BYTES, PROTO_VERSION,
};

/// The event loops' fallback tick: the longest completions can sit
/// undelivered when a wake is lost, and the granularity of every
/// loop-side timer (deadlines, idle/frame timeouts, fault corks).
pub(crate) const LOOP_TICK_MS: i32 = 25;
/// Per-connection window of remembered request ids (reuse detection).
const ID_WINDOW: usize = 1024;

/// Accept every connection the listener has pending (edge-triggered:
/// must drain to `WouldBlock`) under the `accept_storm`/`accept_drop`
/// faults. Each survivor is counted in `total`, prepared, and handed to
/// `register`, which owns the `register_fail` policy and the poller.
pub(crate) fn accept_burst(
    listener: &TcpListener,
    injector: &FaultInjector,
    total: &Counter,
    mut register: impl FnMut(TcpStream),
) {
    // `accept_storm` models a thundering herd the loop sheds whole: one
    // roll per burst, dropping every connection in it.
    let storm = injector.fire(FaultSite::AcceptStorm);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if storm || injector.fire(FaultSite::AcceptDrop) {
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                total.inc();
                if prepare_stream(&stream).is_err() {
                    continue;
                }
                register(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            // Typically EMFILE/ENFILE under fd pressure: stop the burst
            // and let closing connections release descriptors.
            Err(_) => break,
        }
    }
}

/// One nonblocking socket with its read framer and write buffer.
pub(crate) struct Link {
    stream: TcpStream,
    framer: Framer,
    wbuf: WriteBuf,
    /// Edge-triggered writability: true until a write hits `WouldBlock`,
    /// re-armed by the next `EPOLLOUT` edge.
    writable: bool,
    /// When the socket first refused bytes we still owe it (the
    /// write-side analog of the frame timeout).
    write_stuck_since: Option<Instant>,
    /// Close the socket once the write buffer drains (shutdown
    /// responses, truncation faults, frame-stall errors).
    close_after_flush: bool,
    /// Last time bytes arrived or a line was queued.
    last_activity: Instant,
}

impl Link {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Link {
        Link {
            stream,
            framer: Framer::new(),
            wbuf: WriteBuf::new(),
            writable: true,
            write_stuck_since: None,
            close_after_flush: false,
            last_activity: now,
        }
    }

    /// Apply one poller event: an `EPOLLOUT` edge re-arms writes, a
    /// read edge drains the socket into `frames` (only when `feed`).
    /// Returns true when the peer closed or the read side failed.
    pub(crate) fn on_event(
        &mut self,
        ev: &Event,
        now: Instant,
        feed: bool,
        frames: &mut Vec<FrameEvent>,
    ) -> bool {
        if ev.writable {
            self.writable = true;
            self.write_stuck_since = None;
        }
        if !(ev.readable || ev.hangup) {
            return false;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return true,
                Ok(n) => {
                    self.last_activity = now;
                    if feed {
                        self.framer.feed(&chunk[..n], now, frames);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    /// Queue a line, applying the write-side fault sites per line.
    /// Returns true when `write_trunc` fired: only half the line is
    /// queued and the link closes once it has flushed.
    pub(crate) fn enqueue(&mut self, injector: &FaultInjector, line: &str, now: Instant) -> bool {
        self.last_activity = now;
        if injector.fire(FaultSite::WriteTrunc) {
            self.wbuf.enqueue_truncated(line);
            self.close_after_flush = true;
            true
        } else {
            if let Some(stall) = injector.stall(FaultSite::WriteStall) {
                self.wbuf.enqueue_stalled(line, stall, now);
            } else {
                self.wbuf.enqueue(line);
            }
            false
        }
    }

    /// Write as much as the socket (and any pending fault cork) allows.
    /// Returns how long the writes took when any bytes went out.
    pub(crate) fn flush(&mut self, now: Instant) -> io::Result<Option<Duration>> {
        if !self.writable {
            return Ok(None);
        }
        let start = Instant::now();
        let mut wrote_any = false;
        loop {
            let slice = self.wbuf.writable_slice(now);
            if slice.is_empty() {
                break;
            }
            match (&self.stream).write(slice) {
                Ok(n) => {
                    wrote_any = true;
                    self.wbuf.advance(n, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.writable = false;
                    self.write_stuck_since.get_or_insert(now);
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !wrote_any {
            return Ok(None);
        }
        self.write_stuck_since = None;
        Ok(Some(start.elapsed()))
    }

    /// The link asked to close and every queued byte has gone out.
    pub(crate) fn flushed_for_close(&self) -> bool {
        self.close_after_flush && self.wbuf.is_empty()
    }

    /// The peer has refused bytes we owe it for at least `timeout`.
    pub(crate) fn write_stalled(&self, now: Instant, timeout: Duration) -> bool {
        self.write_stuck_since.is_some_and(|since| now.duration_since(since) >= timeout)
    }

    /// Shut the socket down in both directions.
    pub(crate) fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Deregister from the poller and shut the socket down.
    pub(crate) fn close(&self, poller: &Poller) {
        let _ = poller.delete(self.stream.as_raw_fd());
        self.shutdown();
    }
}

/// Which protocol generation a connection speaks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Strictly serialized request→response; ids optional.
    Legacy,
    /// Pipelined, out-of-order, streaming; ids mandatory.
    V2,
}

/// A framed input item waiting to be processed, in arrival order.
enum PendingItem {
    Line {
        line: String,
        /// `read_stall` fault: the line may not be processed before
        /// this instant (later lines queue behind it).
        release: Option<Instant>,
        /// Whether the stall fault was already rolled for this line.
        rolled: bool,
    },
    TooLong {
        recovered: bool,
    },
}

/// All loop-owned state of one client connection; `J` is the owning
/// loop's record of one of its in-flight jobs.
pub(crate) struct Upstream<J> {
    link: Link,
    ids: IdWindow,
    pub(crate) mode: Mode,
    pending: VecDeque<PendingItem>,
    /// The owning loop's in-flight jobs on this connection. While one
    /// is in flight on a v1 connection no further line is served (the
    /// legacy serialization gate).
    pub(crate) jobs: HashMap<u64, J>,
    /// Peer sent EOF (or the read side died); buffered work still runs
    /// and pending responses still flush (half-close works).
    peer_closed: bool,
    /// Stop feeding the framer (post-truncation, post-stall).
    stop_reading: bool,
    /// Hard-close at the next reap.
    pub(crate) dead: bool,
}

impl<J> Upstream<J> {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Upstream<J> {
        Upstream {
            link: Link::new(stream, now),
            ids: IdWindow::new(ID_WINDOW),
            mode: Mode::Legacy,
            pending: VecDeque::new(),
            jobs: HashMap::new(),
            peer_closed: false,
            stop_reading: false,
            dead: false,
        }
    }

    /// Nothing queued in either direction and nothing in flight.
    fn quiescent(&self) -> bool {
        self.jobs.is_empty() && self.pending.is_empty() && self.link.wbuf.is_empty()
    }

    /// Apply one poller event, queueing every framed input item.
    pub(crate) fn on_event(&mut self, ev: &Event, now: Instant) {
        let mut frames = Vec::new();
        if self.link.on_event(ev, now, !self.stop_reading, &mut frames) {
            self.peer_closed = true;
        }
        self.pending.extend(frames.into_iter().map(|frame| match frame {
            FrameEvent::Line(line) => PendingItem::Line { line, release: None, rolled: false },
            FrameEvent::TooLong { recovered } => PendingItem::TooLong { recovered },
        }));
    }

    /// The next input line to serve, in arrival order, honoring the v1
    /// gate and `read_stall` parking. Oversized frames are answered on
    /// the way.
    pub(crate) fn next_line(&mut self, injector: &FaultInjector, now: Instant) -> Option<String> {
        loop {
            if self.link.close_after_flush || self.dead {
                return None;
            }
            if self.mode == Mode::Legacy && !self.jobs.is_empty() {
                return None;
            }
            match self.pending.front_mut()? {
                PendingItem::TooLong { recovered } => {
                    let recovered = *recovered;
                    self.pending.pop_front();
                    let e = ServiceError::new(
                        ErrorCode::BadRequest,
                        format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                    );
                    self.send(injector, &e.to_json(), now);
                    if !recovered {
                        self.close_when_flushed();
                        self.stop_reading = true;
                    }
                }
                PendingItem::Line { release, rolled, .. } => {
                    if !*rolled {
                        *rolled = true;
                        if let Some(stall) = injector.stall(FaultSite::ReadStall) {
                            *release = Some(now + stall);
                        }
                    }
                    if release.is_some_and(|r| now < r) {
                        return None; // parked: the fallback tick retries it
                    }
                    let Some(PendingItem::Line { line, .. }) = self.pending.pop_front() else {
                        return None;
                    };
                    return Some(line);
                }
            }
        }
    }

    /// Queue a response line under the write-side faults.
    pub(crate) fn send(&mut self, injector: &FaultInjector, line: &str, now: Instant) {
        if self.link.enqueue(injector, line, now) {
            self.stop_reading = true;
        }
    }

    /// Serve no further line; close once every queued byte has gone out.
    pub(crate) fn close_when_flushed(&mut self) {
        self.link.close_after_flush = true;
    }

    /// Parse one request line and apply the connection-level checks: a
    /// well-formed envelope, the mandatory v2 id, id replay, and a valid
    /// body. Returns `(id, deadline_ms, request)`; on any failure the
    /// error reply is queued and `None` returned.
    pub(crate) fn parse_request(
        &mut self,
        injector: &FaultInjector,
        line: &str,
        now: Instant,
    ) -> Option<(Option<String>, Option<u64>, Request)> {
        let envelope = match Envelope::parse(line) {
            Ok(e) => e,
            Err(e) => {
                self.send(injector, &e.to_json(), now);
                return None;
            }
        };
        if let Err(reply) = self.admit_id(envelope.id.as_deref()) {
            self.send(injector, &reply, now);
            return None;
        }
        match envelope.req {
            Ok(request) => Some((envelope.id, envelope.deadline_ms, request)),
            Err(e) => {
                self.send(injector, &with_id(&e.to_json(), envelope.id.as_deref()), now);
                None
            }
        }
    }

    /// The id rules: v2 requests must carry one, and no id may repeat
    /// within the window. `Err` holds the reply to send.
    pub(crate) fn admit_id(&mut self, id: Option<&str>) -> Result<(), String> {
        match id {
            None if self.mode == Mode::V2 => Err(ServiceError::new(
                ErrorCode::BadRequest,
                "v2 requests must carry an id (responses are matched by it)",
            )
            .to_json()),
            Some(id) if !self.ids.admit(id) => {
                let e = ServiceError::new(
                    ErrorCode::BadRequest,
                    format!("request id {id} was already used on this connection"),
                );
                Err(with_id(&e.to_json(), Some(id)))
            }
            _ => Ok(()),
        }
    }

    /// Answer a `hello`: upgrade a v1 connection to v2, or the error.
    pub(crate) fn hello(&mut self, proto: u64) -> String {
        if self.mode == Mode::V2 {
            ServiceError::new(
                ErrorCode::BadRequest,
                "duplicate hello: this connection already speaks v2",
            )
            .to_json()
        } else if proto != PROTO_VERSION {
            ServiceError::new(
                ErrorCode::BadRequest,
                format!("unsupported protocol version {proto} (this server speaks 2)"),
            )
            .to_json()
        } else {
            self.mode = Mode::V2;
            Json::obj()
                .with("ok", true)
                .with("type", "hello")
                .with("proto", PROTO_VERSION)
                .with("streaming", true)
                .encode()
        }
    }

    /// The connection timers. A partial frame (or an overflow drain)
    /// stalled past `frame_timeout` gets a structured error and a close
    /// after the flush (slow-loris defense). A peer that stopped draining
    /// what we owe it for as long, or a quiescent connection idle for
    /// `idle_timeout`, is marked dead.
    pub(crate) fn sweep(
        &mut self,
        injector: &FaultInjector,
        now: Instant,
        frame_timeout: Duration,
        idle_timeout: Duration,
    ) {
        if self.dead {
            return;
        }
        if !self.link.close_after_flush
            && self
                .link
                .framer
                .frame_started()
                .is_some_and(|started| now.duration_since(started) >= frame_timeout)
        {
            let e = ServiceError::new(ErrorCode::BadRequest, "request frame stalled mid-transfer");
            self.send(injector, &e.to_json(), now);
            self.close_when_flushed();
            self.stop_reading = true;
        }
        if self.link.write_stalled(now, frame_timeout)
            || (self.quiescent()
                && !self.link.framer.mid_frame()
                && now.duration_since(self.link.last_activity) >= idle_timeout)
        {
            self.dead = true;
        }
    }

    /// Flush the write buffer; returns how long the writes took when
    /// any bytes went out.
    pub(crate) fn flush(&mut self, now: Instant) -> Option<Duration> {
        if self.dead {
            return None;
        }
        let Ok(took) = self.link.flush(now) else {
            self.dead = true;
            return None;
        };
        if self.link.flushed_for_close() {
            self.link.shutdown();
            self.dead = true;
        }
        took
    }

    /// Whether the reap pass should close this connection now.
    pub(crate) fn should_close(&self, draining: bool) -> bool {
        self.dead
            || (self.peer_closed && self.quiescent())
            || (draining && self.quiescent() && !self.link.framer.mid_frame())
    }

    /// Deregister from the poller and shut the socket down.
    pub(crate) fn close(&self, poller: &Poller) {
        self.link.close(poller);
    }
}
