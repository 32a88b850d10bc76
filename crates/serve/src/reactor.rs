//! The server's event loops: N readiness-driven workers over
//! nonblocking sockets (`habf_util::poll` — raw epoll on Linux,
//! `poll(2)` on other unix targets).
//!
//! ## Architecture
//!
//! One blocking accept thread owns the listener, enforces the global
//! connection cap — the only admission check; a worker serves every
//! connection it is handed — and shards each accepted connection to a
//! worker by fd (`fd % workers`) over an mpsc channel, waking the
//! worker through a nonblocking socketpair byte. Each worker owns its
//! poller, its connections, and its buffers outright — no cross-worker
//! locks, no shared connection state. Per wakeup a worker:
//!
//! 1. drains readiness events, flushing writable connections and
//!    reading **at most one bounded chunk** (64 KiB) per readable
//!    connection — the fairness bound: a firehose peer cannot starve
//!    its neighbors, and level-triggered polling re-reports whatever
//!    was left in the kernel buffer;
//! 2. feeds each chunk to the connection's streaming
//!    [`FrameAssembler`], popping every complete frame — a partial
//!    frame stays buffered and holds no thread hostage;
//! 3. handles frames: non-`QUERY` requests are answered immediately
//!    into per-connection reply slots; `QUERY` frames are *coalesced* —
//!    all queries against the same tenant arriving in the same wakeup
//!    (across connections) merge into one `contains_batch` probe, one
//!    snapshot clone, one prefetch-pipeline pass — and their answer
//!    bitsets are scattered back into each connection's reply slot;
//! 4. encodes every connection's replies, in arrival order, into one
//!    pooled buffer and flushes with a single vectored write per
//!    connection; `WouldBlock` parks the remainder under write
//!    interest.
//!
//! An idle sweep bounds silence without blocking reads: a
//! connection silent past `read_timeout` gets one typed error frame
//! (mid-frame silence is a truncation) and a close. Reply ordering is
//! preserved per connection because coalesced slots resolve within the
//! same wakeup that queued them; coalescing never reorders effects
//! observably — inserts and rebuilds handled in the same wakeup only
//! make a merged probe's answers fresher, and the filters never drop
//! members, so the zero-false-negative contract holds.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use habf_core::tenant::TenantStore;
use habf_util::poll::{Event, Interest, Poller};

use crate::protocol::{self, frame_type, Frame, FrameAssembler, WireError};
use crate::server::{self, ServerConfig, TenantTable};

/// Poll token of the worker's wake pipe; connection slots start at 1.
const WAKE_TOKEN: u64 = 0;

/// Fairness bound: bytes one connection may read per wakeup.
const READ_CHUNK: usize = 64 * 1024;

/// Max buffers per vectored write call.
const MAX_IOVECS: usize = 16;

/// Reply-buffer pool bounds: keep at most this many recycled chunks,
/// and drop any chunk whose capacity ballooned past the cap.
const POOL_CHUNKS: usize = 64;
const POOL_CHUNK_CAP: usize = 1 << 20;

/// Shared read-only state every worker holds.
struct Shared {
    tenants: Arc<TenantTable>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    addr: Option<SocketAddr>,
    allow_shutdown: bool,
    read_timeout: Duration,
}

/// Runs the reactor: spawns the workers, then serves the accept loop on
/// this thread until the stop flag is raised, and joins the workers.
pub(crate) fn run(
    listener: TcpListener,
    tenants: Arc<TenantTable>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    let workers = resolve_workers(config.workers);
    let shared = Arc::new(Shared {
        tenants,
        stop: Arc::clone(&stop),
        active: Arc::clone(&active),
        addr: listener.local_addr().ok(),
        allow_shutdown: config.allow_shutdown,
        read_timeout: config.read_timeout,
    });

    let mut senders: Vec<mpsc::Sender<TcpStream>> = Vec::with_capacity(workers);
    let mut wakers: Vec<std::os::unix::net::UnixStream> = Vec::with_capacity(workers);
    let mut joins = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel();
        let Some((worker, waker)) = Worker::new(Arc::clone(&shared), rx) else {
            continue; // poller/socketpair creation failed; run narrower
        };
        senders.push(tx);
        wakers.push(waker);
        joins.push(std::thread::spawn(move || worker.run()));
    }
    if senders.is_empty() {
        // No worker could start (resource exhaustion): nothing can be
        // served; fail loudly rather than hang the accept loop.
        eprintln!("habf-serve: reactor failed to start any worker");
        return;
    }

    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if active.load(Ordering::Acquire) >= config.max_connections {
            server::refuse_busy(stream, config.busy_retry_ms);
            continue;
        }
        active.fetch_add(1, Ordering::AcqRel);
        let _ = stream.set_nodelay(true);
        let shard = usize::try_from(stream.as_raw_fd()).unwrap_or(0) % senders.len();
        match senders.get(shard) {
            Some(tx) if tx.send(stream).is_ok() => {
                if let Some(waker) = wakers.get(shard) {
                    // A full pipe means a wake byte is already pending.
                    let _ = (&*waker).write(&[1]);
                }
            }
            _ => {
                active.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    stop.store(true, Ordering::Release);
    drop(senders);
    for waker in &wakers {
        let _ = (&*waker).write(&[1]);
    }
    for join in joins {
        let _ = join.join();
    }
}

/// `0` = auto: one loop per available core, capped at 8 (past that the
/// accept thread, not the loops, is the bottleneck).
fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 8)
}

/// One queued reply for a connection, in request-arrival order.
enum Slot {
    /// A fully formed reply frame.
    Ready(Frame),
    /// An `ANSWERS` reply pending this wakeup's coalesced batch
    /// resolution: `count` answers starting at `offset` in batch
    /// `batch`.
    Query {
        batch: usize,
        offset: usize,
        count: usize,
    },
}

/// One wakeup's merged probe against a single tenant: every `QUERY`
/// frame that arrived this wakeup for this tenant, across connections.
struct PendingBatch {
    tenant: String,
    store: Arc<TenantStore>,
    /// The query frames' payloads, kept alive so keys borrow in place.
    payloads: Vec<Vec<u8>>,
    /// Every key as `(payload index, start, len)`, in merge order.
    keys: Vec<(usize, usize, usize)>,
    /// Filled by `resolve_batches`.
    answers: Vec<bool>,
}

/// Per-connection state owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: OutQueue,
    replies: Vec<Slot>,
    last_activity: Instant,
    /// Close once the output queue drains (clean EOF, decode error, or
    /// a served SHUTDOWN); no further reads happen.
    closing: bool,
    /// Registered for write readiness (output is parked).
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            asm: FrameAssembler::new(),
            out: OutQueue::default(),
            replies: Vec::new(),
            last_activity: Instant::now(),
            closing: false,
            want_write: false,
        }
    }
}

/// The per-connection output queue: whole reply buffers plus an offset
/// into the front one, drained with vectored writes.
#[derive(Default)]
struct OutQueue {
    chunks: VecDeque<Vec<u8>>,
    front_off: usize,
}

impl OutQueue {
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn push(&mut self, chunk: Vec<u8>, pool: &mut Vec<Vec<u8>>) {
        if chunk.is_empty() {
            recycle(pool, chunk);
        } else {
            self.chunks.push_back(chunk);
        }
    }

    /// Writes until drained or the socket refuses more. `Ok(true)` =
    /// drained; `Ok(false)` = `WouldBlock` with output remaining.
    fn flush(&mut self, stream: &mut TcpStream, pool: &mut Vec<Vec<u8>>) -> io::Result<bool> {
        loop {
            if self.chunks.is_empty() {
                return Ok(true);
            }
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(self.chunks.len().min(MAX_IOVECS));
            for (i, chunk) in self.chunks.iter().enumerate().take(MAX_IOVECS) {
                let bytes = if i == 0 {
                    chunk.get(self.front_off..).unwrap_or(&[])
                } else {
                    chunk.as_slice()
                };
                slices.push(IoSlice::new(bytes));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n, pool),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn advance(&mut self, mut n: usize, pool: &mut Vec<Vec<u8>>) {
        while n > 0 {
            let Some(front) = self.chunks.front() else {
                return;
            };
            let remaining = front.len().saturating_sub(self.front_off);
            if n >= remaining {
                n -= remaining;
                if let Some(done) = self.chunks.pop_front() {
                    recycle(pool, done);
                }
                self.front_off = 0;
            } else {
                self.front_off += n;
                return;
            }
        }
    }
}

/// Returns a drained chunk to the pool, unless the pool is full or the
/// chunk's capacity grew past the cap (no buffer hoarding).
fn recycle(pool: &mut Vec<Vec<u8>>, mut chunk: Vec<u8>) {
    if pool.len() < POOL_CHUNKS && chunk.capacity() <= POOL_CHUNK_CAP {
        chunk.clear();
        pool.push(chunk);
    }
}

/// Tenant name and key locations of a `QUERY` payload, decoded without
/// copying any key (ranges index into the payload buffer). Mirrors
/// `Request::parse`'s QUERY arm byte for byte.
fn decode_query_ranges(payload: &[u8]) -> Result<(String, Vec<(usize, usize)>), WireError> {
    let mut c = protocol::Cursor::new(payload);
    let tenant_raw = c.take_bytes()?;
    if tenant_raw.is_empty() {
        return Err(WireError::BadPayload("empty tenant name"));
    }
    let tenant = core::str::from_utf8(tenant_raw)
        .map_err(|_| WireError::BadPayload("tenant name not UTF-8"))?
        .to_string();
    let count = c.take_count()?;
    let mut keys = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let key = c.take_bytes()?;
        keys.push((c.pos() - key.len(), key.len()));
    }
    c.finish()?;
    Ok((tenant, keys))
}

/// What one bounded read produced, beyond bytes.
enum ReadOutcome {
    /// Progress or nothing to do; connection stays as-is.
    Open,
    /// The peer half-closed (EOF).
    Eof,
    /// Hard socket error: close without a reply.
    Dead,
}

/// One reactor worker: an event loop owning its poller, its shard of
/// the connections, and its buffer pool.
struct Worker {
    shared: Arc<Shared>,
    poller: Poller,
    wake: std::os::unix::net::UnixStream,
    intake: mpsc::Receiver<TcpStream>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    scratch: Vec<u8>,
    pool: Vec<Vec<u8>>,
    batches: Vec<PendingBatch>,
    pending_shutdown: bool,
}

impl Worker {
    /// Builds the worker and returns it with the accept thread's wake
    /// handle; `None` if the poller or socketpair cannot be created.
    fn new(
        shared: Arc<Shared>,
        intake: mpsc::Receiver<TcpStream>,
    ) -> Option<(Worker, std::os::unix::net::UnixStream)> {
        let mut poller = Poller::new().ok()?;
        let (waker, wake) = std::os::unix::net::UnixStream::pair().ok()?;
        wake.set_nonblocking(true).ok()?;
        waker.set_nonblocking(true).ok()?;
        poller
            .register(wake.as_raw_fd(), WAKE_TOKEN, Interest::READABLE)
            .ok()?;
        Some((
            Worker {
                shared,
                poller,
                wake,
                intake,
                conns: Vec::new(),
                free: Vec::new(),
                scratch: vec![0u8; READ_CHUNK],
                pool: Vec::new(),
                batches: Vec::new(),
                pending_shutdown: false,
            },
            waker,
        ))
    }

    /// The event loop.
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let tick = self.tick_timeout();
            if self.poller.wait(&mut events, Some(tick)).is_err() {
                break;
            }
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            let mut woken = false;
            for i in 0..events.len() {
                let Some(&ev) = events.get(i) else { break };
                if ev.token == WAKE_TOKEN {
                    woken = true;
                    continue;
                }
                let Some(token) = ev.token.checked_sub(1) else {
                    continue;
                };
                let slot = usize::try_from(token).unwrap_or(usize::MAX);
                if ev.writable {
                    self.flush_conn(slot);
                }
                if ev.readable {
                    self.service_readable(slot);
                }
            }
            if woken {
                self.drain_wake();
                self.intake();
            }
            self.resolve_batches();
            for slot in 0..self.conns.len() {
                self.finish_conn(slot);
            }
            self.sweep_idle();
            self.batches.clear();
            if self.pending_shutdown {
                self.shared.stop.store(true, Ordering::Release);
                // Wake the blocking accept loop so it observes the flag.
                if let Some(addr) = self.shared.addr {
                    let _ = TcpStream::connect(addr);
                }
            }
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
        }
        self.close_all();
    }

    /// Poll timeout: fine-grained enough that the idle sweep honors
    /// `read_timeout` promptly, coarse enough that an idle worker costs
    /// nothing.
    fn tick_timeout(&self) -> Duration {
        (self.shared.read_timeout / 2).clamp(Duration::from_millis(5), Duration::from_millis(250))
    }

    fn conn_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.conns.get_mut(slot).and_then(Option::as_mut)
    }

    /// Drains the wake pipe (its only content is wake bytes).
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.wake.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Admits every connection the accept thread handed over; the
    /// accept thread already checked the global cap.
    fn intake(&mut self) {
        while let Ok(stream) = self.intake.try_recv() {
            self.admit(stream);
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = slot as u64 + 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
            self.free.push(slot);
            return;
        }
        if let Some(entry) = self.conns.get_mut(slot) {
            *entry = Some(Conn::new(stream));
        }
    }

    /// One bounded read + streaming decode for a readable connection.
    fn service_readable(&mut self, slot: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = {
            let Some(conn) = self.conn_mut(slot) else {
                self.scratch = scratch;
                return;
            };
            if conn.closing {
                self.scratch = scratch;
                return;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => ReadOutcome::Eof,
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.asm.feed(scratch.get(..n).unwrap_or(&[]));
                    ReadOutcome::Open
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    ReadOutcome::Open
                }
                Err(_) => ReadOutcome::Dead,
            }
        };
        self.scratch = scratch;
        if matches!(outcome, ReadOutcome::Dead) {
            self.close_now(slot);
            return;
        }
        // Pop every complete frame the buffer now holds.
        loop {
            let next = match self.conn_mut(slot) {
                Some(conn) if !conn.closing => conn.asm.next_frame(),
                _ => break,
            };
            match next {
                Ok(Some(frame)) => self.dispatch(slot, frame),
                Ok(None) => break,
                Err(e) => {
                    // Header damage: one typed error frame, then close.
                    self.queue_error_close(slot, &e);
                    break;
                }
            }
        }
        if matches!(outcome, ReadOutcome::Eof) {
            let truncated = match self.conn_mut(slot) {
                Some(conn) if !conn.closing => {
                    if conn.asm.mid_frame() {
                        true
                    } else {
                        // EOF at a frame boundary: flush replies, close.
                        conn.closing = true;
                        false
                    }
                }
                _ => false,
            };
            if truncated {
                self.queue_error_close(slot, &WireError::Truncated);
            }
        }
    }

    /// Routes one decoded frame: queries to the coalescer, shutdown to
    /// its gate, everything else straight to the shared handler.
    fn dispatch(&mut self, slot: usize, frame: Frame) {
        match frame.kind {
            frame_type::QUERY => self.queue_query(slot, frame.payload),
            frame_type::SHUTDOWN => self.queue_shutdown(slot, &frame),
            _ => {
                let reply = server::handle_frame(&frame, &self.shared.tenants);
                self.push_ready(slot, reply);
            }
        }
    }

    /// Merges a `QUERY` into this wakeup's per-tenant batch and leaves
    /// an ordered reply slot pointing at its answer range.
    fn queue_query(&mut self, slot: usize, payload: Vec<u8>) {
        let (tenant, ranges) = match decode_query_ranges(&payload) {
            Ok(decoded) => decoded,
            Err(e @ WireError::Server { .. }) => {
                self.push_ready(slot, server::error_frame(e.code(), &e.to_string()));
                return;
            }
            Err(e) => {
                self.push_ready(
                    slot,
                    server::error_frame(protocol::error_code::BAD_FRAME, &e.to_string()),
                );
                return;
            }
        };
        let batch = match self.batches.iter().position(|b| b.tenant == tenant) {
            Some(found) => found,
            None => {
                let Some(store) = self.shared.tenants.get(&tenant) else {
                    self.push_ready(
                        slot,
                        server::error_frame(
                            protocol::error_code::UNKNOWN_TENANT,
                            &format!("no tenant {tenant:?}"),
                        ),
                    );
                    return;
                };
                self.batches.push(PendingBatch {
                    tenant,
                    store,
                    payloads: Vec::new(),
                    keys: Vec::new(),
                    answers: Vec::new(),
                });
                self.batches.len() - 1
            }
        };
        let Some(pending) = self.batches.get_mut(batch) else {
            return;
        };
        let payload_idx = pending.payloads.len();
        let offset = pending.keys.len();
        pending
            .keys
            .extend(ranges.iter().map(|&(start, len)| (payload_idx, start, len)));
        pending.payloads.push(payload);
        if let Some(conn) = self.conn_mut(slot) {
            conn.replies.push(Slot::Query {
                batch,
                offset,
                count: ranges.len(),
            });
        }
    }

    /// The `SHUTDOWN` gate: opt-in only, empty payload only; a served
    /// shutdown stops the whole reactor after this connection's replies
    /// flush.
    fn queue_shutdown(&mut self, slot: usize, frame: &Frame) {
        let (reply, stopping) = if self.shared.allow_shutdown && frame.payload.is_empty() {
            (
                Frame {
                    kind: frame_type::SHUTDOWN_OK,
                    payload: Vec::new(),
                },
                true,
            )
        } else if !self.shared.allow_shutdown {
            (
                server::error_frame(
                    protocol::error_code::SHUTDOWN_REFUSED,
                    "server does not allow remote shutdown",
                ),
                false,
            )
        } else {
            (
                server::error_frame(
                    protocol::error_code::BAD_FRAME,
                    "shutdown payload must be empty",
                ),
                false,
            )
        };
        self.push_ready(slot, reply);
        if stopping {
            self.pending_shutdown = true;
            if let Some(conn) = self.conn_mut(slot) {
                conn.closing = true;
            }
        }
    }

    fn push_ready(&mut self, slot: usize, frame: Frame) {
        if let Some(conn) = self.conn_mut(slot) {
            conn.replies.push(Slot::Ready(frame));
        }
    }

    /// Queues one typed error reply and marks the connection to close
    /// once it flushes (stream is desynchronized past this point).
    fn queue_error_close(&mut self, slot: usize, e: &WireError) {
        let reply = server::error_frame(e.code(), &e.to_string());
        if let Some(conn) = self.conn_mut(slot) {
            conn.replies.push(Slot::Ready(reply));
            conn.closing = true;
        }
    }

    /// Runs each tenant's merged probe: one snapshot clone and one
    /// batch-pipeline pass per tenant per wakeup, regardless of how
    /// many connections contributed keys.
    fn resolve_batches(&mut self) {
        for pending in &mut self.batches {
            let keys: Vec<&[u8]> = pending
                .keys
                .iter()
                .map(|&(p, start, len)| {
                    pending
                        .payloads
                        .get(p)
                        .and_then(|payload| payload.get(start..start + len))
                        .unwrap_or(&[])
                })
                .collect();
            pending.answers = pending.store.contains_batch(&keys);
        }
    }

    /// Encodes a connection's queued replies (in arrival order) into
    /// one pooled buffer and flushes it with a vectored write.
    fn finish_conn(&mut self, slot: usize) {
        let has_replies = match self.conn_mut(slot) {
            Some(conn) => !conn.replies.is_empty(),
            None => return,
        };
        if has_replies {
            let mut chunk = self.pool.pop().unwrap_or_default();
            let replies = match self.conn_mut(slot) {
                Some(conn) => std::mem::take(&mut conn.replies),
                None => Vec::new(),
            };
            for reply in replies {
                match reply {
                    Slot::Ready(frame) => {
                        let _ = protocol::append_frame(&mut chunk, frame.kind, &frame.payload);
                    }
                    Slot::Query {
                        batch,
                        offset,
                        count,
                    } => {
                        let answers = self
                            .batches
                            .get(batch)
                            .and_then(|b| b.answers.get(offset..offset + count))
                            .unwrap_or(&[]);
                        protocol::append_answers_frame(&mut chunk, answers);
                    }
                }
            }
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                conn.out.push(chunk, &mut self.pool);
            } else {
                recycle(&mut self.pool, chunk);
            }
        }
        let pending_io = match self.conn_mut(slot) {
            Some(conn) => !conn.out.is_empty() || conn.closing,
            None => false,
        };
        if pending_io {
            self.flush_conn(slot);
        }
    }

    /// Drives a connection's output queue; arms or disarms write
    /// interest and completes deferred closes.
    fn flush_conn(&mut self, slot: usize) {
        enum Next {
            Keep,
            Close,
            Arm(bool),
        }
        let next = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            match conn.out.flush(&mut conn.stream, &mut self.pool) {
                Ok(true) => {
                    if conn.closing {
                        Next::Close
                    } else if conn.want_write {
                        conn.want_write = false;
                        Next::Arm(false)
                    } else {
                        Next::Keep
                    }
                }
                Ok(false) => {
                    if conn.want_write {
                        Next::Keep
                    } else {
                        conn.want_write = true;
                        Next::Arm(true)
                    }
                }
                Err(_) => Next::Close,
            }
        };
        match next {
            Next::Keep => {}
            Next::Close => self.close_now(slot),
            Next::Arm(write) => {
                let interest = if write {
                    Interest::BOTH
                } else {
                    Interest::READABLE
                };
                let token = slot as u64 + 1;
                let fd = match self.conn_mut(slot) {
                    Some(conn) => conn.stream.as_raw_fd(),
                    None => return,
                };
                if self.poller.modify(fd, token, interest).is_err() {
                    self.close_now(slot);
                }
            }
        }
    }

    /// Applies `read_timeout` without blocking reads: a connection
    /// silent past the deadline gets one typed error (silence mid-frame
    /// is a truncation) and closes; a closing connection that cannot
    /// flush within a further deadline is dropped outright.
    fn sweep_idle(&mut self) {
        let timeout = self.shared.read_timeout;
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let state = match self.conns.get_mut(slot).and_then(Option::as_mut) {
                Some(conn) if now.duration_since(conn.last_activity) >= timeout => conn.closing,
                _ => continue,
            };
            if state {
                self.close_now(slot);
            } else {
                let e = WireError::Io(io::ErrorKind::TimedOut.into());
                self.queue_error_close(slot, &e);
                self.finish_conn(slot);
            }
        }
    }

    /// Closes a connection immediately: deregisters, shuts the socket
    /// down, releases the slot, and returns the connection count.
    fn close_now(&mut self, slot: usize) {
        let Some(entry) = self.conns.get_mut(slot) else {
            return;
        };
        let Some(conn) = entry.take() else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.free.push(slot);
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Stop path: a best-effort final flush, then close everything.
    fn close_all(&mut self) {
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                let _ = conn.out.flush(&mut conn.stream, &mut self.pool);
            }
            self.close_now(slot);
        }
    }
}
