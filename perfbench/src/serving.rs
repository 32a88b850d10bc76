//! The serve workloads: one in-process `habf-serve` reactor with one
//! worker, one client thread driving a closed loop of pre-encoded QUERY
//! frames over loopback, and (for `serve-adapt-mixed`) a writer
//! connection on the same thread that sends FEEDBACK frames and a REBUILD
//! at the end of every phase.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use habf_core::sharded::ShardedHabf;
use habf_core::{registry, AdaptPolicy, BuildInput, DynFilter, FilterSpec, Habf, TenantStore};
use habf_hashing::{HashFamily, HashProvider};
use habf_serve::protocol::{self, frame_type, FrameAssembler, Request, WireError};
use habf_serve::{Client, ServeModel, Server, ServerConfig, ServerHandle, TenantTable};

use crate::host::thread_cpu_s;
use crate::inputs::{self, ServeInputs};
use crate::metrics::{Measured, Ops};
use crate::summary::{mean, median, Latency, Sliced};
use crate::trace::Tracer;
use crate::Outcome;

const TENANT: &str = "bench";
/// Shards of the served `sharded-habf` tenant.
const SHARDS: usize = 8;
/// Fixed thread budget: one client thread (the caller) and one reactor
/// worker, so both fit a 2-core host without sharing a core.
pub const CLIENT_THREADS: usize = 1;
pub const REACTOR_WORKERS: usize = 1;
const WARMUP_S: f64 = 0.5;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Keys per frame when the benchmark checks answers outside the loop.
const CHECK_FRAME_KEYS: usize = 512;
/// Frames the traced run replays in-process through each layer.
const REPLAY_FRAMES: usize = 1_024;
const PINGS: usize = 200;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve-tiny-frames`
    Tiny,
    /// `serve-adapt-mixed`
    Adapt,
}

impl Kind {
    /// Reader connections and frames in flight on each, the steadiest
    /// tried on a 2-vCPU VM. Tiny frames need a deep pipeline, or both
    /// threads sleep between frames and the wakeup cost (which varies far
    /// more than the work) sets the pace. A 512-key frame is long enough
    /// to keep the worker busy with one frame per connection, and every
    /// extra frame in flight multiplies how many frames one host stall
    /// delays, which pushed those frames past p99.
    fn shape(self) -> (usize, usize) {
        match self {
            Kind::Tiny => (2, 16),
            Kind::Adapt => (2, 1),
        }
    }

    /// Setups per untraced run; `setup_s` and `build_s` are their
    /// medians.
    fn setup_repeats(self) -> usize {
        match self {
            Kind::Tiny => 7,
            Kind::Adapt => 3,
        }
    }

    fn inputs(self, seed: u64) -> ServeInputs {
        match self {
            Kind::Tiny => inputs::tiny_inputs(seed),
            Kind::Adapt => inputs::adapt_inputs(seed),
        }
    }

    fn spec(self) -> FilterSpec {
        let spec = FilterSpec::sharded(SHARDS)
            .threads(1)
            .seed(inputs::FILTER_SEED);
        match self {
            Kind::Tiny => spec.bits_per_key(inputs::TINY_BITS_PER_KEY),
            Kind::Adapt => spec.total_bits(inputs::ADAPT_TOTAL_BITS),
        }
    }
}

/// Wall time of each setup step, seconds.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    gen: f64,
    build: f64,
    encode: f64,
    write: f64,
    load_mmap: f64,
    spawn: f64,
    connect: f64,
    frames: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.gen
            + self.build
            + self.encode
            + self.write
            + self.load_mmap
            + self.spawn
            + self.connect
            + self.frames
    }
}

/// The writer connection. FEEDBACK frames go out without waiting for
/// their ACKs, which are read back just before the next write: a
/// blocking round trip on the client thread would hold back every reader
/// frame in flight, and those held-back frames sat right at p99. A
/// REBUILD waits for its reply, as the reactor worker is busy with it
/// anyway.
struct Writer {
    stream: TcpStream,
    /// Event counts of the FEEDBACK frames whose ACK is still unread.
    unacked: VecDeque<u32>,
}

impl Writer {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            unacked: VecDeque::new(),
        })
    }

    /// Reads one reply frame, turning an ERROR frame into its error.
    fn reply(&mut self) -> Result<protocol::Frame, WireError> {
        let frame = protocol::read_frame(&mut self.stream)?.ok_or(WireError::Truncated)?;
        if frame.kind != frame_type::ERROR {
            return Ok(frame);
        }
        let parts = protocol::decode_error_parts(&frame.payload)?;
        Err(match parts.retry_after_ms {
            Some(retry_after_ms) => WireError::Busy {
                retry_after_ms,
                message: parts.message,
            },
            None => WireError::Server {
                code: parts.code,
                message: parts.message,
            },
        })
    }

    /// Reads every outstanding ACK; counts the ones that acknowledged the
    /// wrong number of events.
    fn drain(&mut self) -> Result<u64, WireError> {
        let mut wrong = 0;
        while let Some(events) = self.unacked.pop_front() {
            let ack = self.reply()?;
            wrong += u64::from(ack.kind != frame_type::ACK || ack.payload != events.to_le_bytes());
        }
        Ok(wrong)
    }

    fn feedback(&mut self, frame: &[u8], events: u32) -> Result<u64, WireError> {
        let wrong = self.drain()?;
        self.stream.write_all(frame)?;
        self.unacked.push_back(events);
        Ok(wrong)
    }

    /// Sends a REBUILD and waits for it; returns the hints it used.
    fn rebuild(&mut self, frame: &[u8]) -> Result<(u64, u32), WireError> {
        let wrong = self.drain()?;
        self.stream.write_all(frame)?;
        let reply = self.reply()?;
        if reply.kind != frame_type::REBUILT {
            return Err(WireError::BadPayload("unexpected reply type"));
        }
        let mut c = protocol::Cursor::new(&reply.payload);
        let hints = c.take_u32()?;
        let _generation = c.take_u64()?;
        c.finish()?;
        Ok((wrong, hints))
    }
}

/// A served tenant with its connected clients.
struct Served {
    kind: Kind,
    inputs: ServeInputs,
    members: usize,
    /// Encoded QUERY frames, `frames[phase][frame]`.
    frames: Vec<Vec<Vec<u8>>>,
    /// Encoded FEEDBACK frames, `feedback[phase][frame]`, and the REBUILD.
    feedback: Vec<Vec<Vec<u8>>>,
    rebuild: Vec<u8>,
    /// Expected answers of phase 0's frames (read-only tenant only).
    expected: Option<Vec<Vec<bool>>>,
    store: Arc<TenantStore>,
    readers: Vec<Client>,
    writer: Writer,
    control: Client,
    handle: Option<ServerHandle>,
    image: PathBuf,
    times: SetupTimes,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let _ = std::fs::remove_file(&self.image);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Builds, persists, maps and serves the tenant, then connects and
/// pre-encodes the frames. Everything here happens before a clock starts.
fn setup(kind: Kind, seed: u64, work: &Path, ops: &mut Ops) -> Result<Served, String> {
    let mut times = SetupTimes::default();
    let (mut inputs, t) = timed(|| kind.inputs(seed));
    times.gen = t;
    let spec = kind.spec();
    let (filter, t) = timed(|| spec.build(&BuildInput::from_members(&inputs.members)));
    times.build = t;
    let filter = filter.map_err(|e| err("tenant build", e))?;
    check_members_in_process(filter.as_ref(), &inputs.members, ops);

    let (bytes, t) = timed(|| filter.to_container_bytes());
    times.encode = t;
    drop(filter);
    let image = work.join(format!("tenant-{}.habc", std::process::id()));
    // Synced, so the kernel's delayed writeback of the image cannot land
    // inside the measured window.
    let (written, t) = timed(|| {
        std::fs::File::create(&image).and_then(|mut f| {
            f.write_all(&bytes)?;
            f.sync_all()
        })
    });
    times.write = t;
    written.map_err(|e| err("write image", e))?;
    drop(bytes);

    // The frames hold the member keys they probe, so the member list can
    // move into the tenant (which needs it to rebuild) once they exist.
    let ((frames, feedback, rebuild), t) = timed(|| {
        let frames = encode_frames(&inputs);
        let feedback = inputs
            .feedback
            .iter()
            .map(|phase| {
                phase
                    .iter()
                    .map(|events| {
                        let events: Vec<(&[u8], f64)> = events
                            .iter()
                            .map(|&i| (inputs.others[i as usize].as_slice(), 1.0))
                            .collect();
                        frame(
                            frame_type::FEEDBACK,
                            &protocol::encode_feedback(TENANT, &events),
                        )
                    })
                    .collect()
            })
            .collect();
        let rebuild = frame(
            frame_type::REBUILD,
            &protocol::encode_rebuild(TENANT, inputs::FILTER_SEED, inputs::MAX_HINTS),
        );
        (frames, feedback, rebuild)
    });
    times.frames = t;
    let members = inputs.members.len();
    let (store, t) = timed(|| {
        TenantStore::open(TENANT, &image, AdaptPolicy::cost_threshold(f64::MAX)).map(|s| {
            if kind == Kind::Adapt {
                s.with_members(std::mem::take(&mut inputs.members))
            } else {
                s
            }
        })
    });
    times.load_mmap = t;
    let store = Arc::new(store.map_err(|e| err("open image", e))?);

    let (handle, t) = timed(|| {
        let tenants = Arc::new(TenantTable::new());
        tenants.add_shared(Arc::clone(&store));
        let config = ServerConfig {
            max_connections: 16,
            model: ServeModel::Reactor,
            workers: REACTOR_WORKERS,
            read_timeout: IO_TIMEOUT,
            ..ServerConfig::default()
        };
        Server::bind("127.0.0.1:0", tenants, config).and_then(Server::spawn)
    });
    times.spawn = t;
    let handle = handle.map_err(|e| err("start server", e))?;
    let addr = handle.addr();
    let (clients, t) = timed(|| {
        let (conns, _) = kind.shape();
        let clients = (0..=conns)
            .map(|_| Client::connect(addr, IO_TIMEOUT))
            .collect::<std::io::Result<Vec<Client>>>()?;
        Ok::<_, std::io::Error>((clients, Writer::connect(addr)?))
    });
    times.connect = t;
    let (mut readers, writer) = clients.map_err(|e| err("connect", e))?;
    let control = readers.pop().ok_or("no control connection")?;

    Ok(Served {
        kind,
        inputs,
        members,
        frames,
        feedback,
        rebuild,
        expected: None,
        store,
        readers,
        writer,
        control,
        handle: Some(handle),
        image,
        times,
    })
}

fn encode_frames(inputs: &ServeInputs) -> Vec<Vec<Vec<u8>>> {
    inputs
        .frames
        .iter()
        .map(|phase| {
            phase
                .iter()
                .map(|probes| {
                    let keys: Vec<&[u8]> = probes.iter().map(|&p| inputs.key(p)).collect();
                    frame(frame_type::QUERY, &protocol::encode_query(TENANT, &keys))
                })
                .collect()
        })
        .collect()
}

/// One encoded frame: header plus payload.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    protocol::append_frame(&mut out, kind, payload)
        .expect("benchmark frames stay far below the payload cap");
    out
}

/// Zero false negatives over every member, probed in-process on the
/// freshly built filter.
fn check_members_in_process(filter: &dyn DynFilter, members: &[Vec<u8>], ops: &mut Ops) {
    for chunk in members.chunks(4_096) {
        let keys: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
        let answers = match filter.as_batch() {
            Some(batch) => batch.contains_batch(&keys),
            None => keys.iter().map(|k| filter.contains(k)).collect(),
        };
        let missing = answers.iter().filter(|&&a| !a).count() as u64;
        ops.attempted += keys.len() as u64;
        ops.failed += missing;
        ops.false_negatives += missing;
    }
}

/// What one closed-loop window measured.
#[derive(Debug, Default)]
struct LoopResult {
    frames: u64,
    keys: u64,
    wall_s: f64,
    latencies_us: Vec<f64>,
    /// Completion time of each answered frame, seconds into the window.
    done_at_s: Vec<f64>,
    failed_frames: usize,
    stall_max_us: f64,
    busy: u64,
    rebuilds: u64,
    hints: u64,
    cpu_s: Option<f64>,
    send_ns: f64,
    maybe_others: u64,
    probed_others: u64,
}

impl LoopResult {
    fn keys_per_s(&self) -> f64 {
        self.keys as f64 / self.wall_s.max(1e-9)
    }

    fn sliced(&self) -> Sliced {
        let keys_per_frame = self.keys as f64 / self.frames.max(1) as f64;
        Sliced::of(
            &self.done_at_s,
            &self.latencies_us,
            keys_per_frame,
            self.wall_s,
        )
    }
}

struct InFlight {
    sent: Instant,
    send_start_ns: u64,
    send_end_ns: u64,
    phase: usize,
    frame: usize,
}

/// Classifies a failed reply; a BUSY refusal is also counted as such.
fn note_wire_error(e: &WireError, result: &mut LoopResult) {
    if matches!(e, WireError::Busy { .. }) {
        result.busy += 1;
    }
}

/// Drives the readers for `seconds`. With `adapt` the window is split
/// into phases: FEEDBACK frames of phase `p` go out evenly over its first
/// 90%, and a REBUILD follows its end; frames sent after that probe
/// phase `p + 1`'s stream.
fn drive(
    served: &mut Served,
    seconds: f64,
    adapt: bool,
    mut tracer: Option<&mut Tracer>,
    ops: &mut Ops,
) -> Result<LoopResult, String> {
    let Served {
        kind,
        inputs,
        frames,
        feedback,
        rebuild,
        expected,
        readers,
        writer,
        ..
    } = served;
    let (_, depth) = kind.shape();
    let phases = if adapt { frames.len() } else { 1 };
    let phase_len = seconds / phases as f64;
    let conns = readers.len();
    let mut result = LoopResult::default();
    let mut inflight: Vec<VecDeque<InFlight>> = (0..conns).map(|_| VecDeque::new()).collect();
    let mut next: Vec<usize> = (0..conns).map(|c| c * 7_919).collect();
    let mut last_reply: Vec<Option<Instant>> = vec![None; conns];

    let cpu_before = thread_cpu_s();
    let start = Instant::now();
    let mut phase = 0;
    let mut fed = 0;
    let mut stopping = false;

    let mut send = |c: usize,
                    phase: usize,
                    readers: &mut Vec<Client>,
                    inflight: &mut Vec<VecDeque<InFlight>>,
                    tracer: &mut Option<&mut Tracer>|
     -> Result<(), String> {
        let pool = &frames[phase];
        let frame = next[c] % pool.len();
        next[c] += 1;
        let sent = Instant::now();
        let send_start_ns = tracer.as_ref().map_or(0, |t| t.stamp(sent));
        readers[c]
            .send_raw(&pool[frame])
            .and_then(|()| readers[c].flush())
            .map_err(|e| err("send", e))?;
        let send_end_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
        inflight[c].push_back(InFlight {
            sent,
            send_start_ns,
            send_end_ns,
            phase,
            frame,
        });
        Ok(())
    };

    for c in 0..conns {
        for _ in 0..depth {
            send(c, phase, readers, &mut inflight, &mut tracer)?;
        }
    }
    let mut request_id = 0u64;
    loop {
        let mut pending = 0;
        for c in 0..conns {
            let Some(req) = inflight[c].pop_front() else {
                continue;
            };
            let reply = readers[c].recv_answers();
            let now = Instant::now();
            ops.attempted += 1;
            let answers = match reply {
                Ok(a) => a,
                Err(e) => {
                    note_wire_error(&e, &mut result);
                    ops.failed += 1 + inflight[c].len() as u64;
                    result.failed_frames += 1 + inflight[c].len();
                    return Err(err("query reply", e));
                }
            };
            let probes = &inputs.frames[req.phase][req.frame];
            if answers.len() != probes.len() {
                ops.failed += 1;
                result.failed_frames += 1;
            } else {
                let mut wrong = false;
                for (p, &a) in probes.iter().zip(&answers) {
                    if p.member {
                        if !a {
                            ops.false_negatives += 1;
                            wrong = true;
                        }
                    } else {
                        result.probed_others += 1;
                        result.maybe_others += u64::from(a);
                    }
                }
                if let Some(exp) = expected.as_ref().filter(|_| req.phase == 0) {
                    wrong |= exp[req.frame] != answers;
                }
                if wrong {
                    ops.failed += 1;
                    result.failed_frames += 1;
                } else {
                    result.frames += 1;
                    result.keys += probes.len() as u64;
                    result
                        .latencies_us
                        .push((now - req.sent).as_secs_f64() * 1e6);
                    result.done_at_s.push((now - start).as_secs_f64());
                }
            }
            if let Some(prev) = last_reply[c] {
                result.stall_max_us = result.stall_max_us.max((now - prev).as_secs_f64() * 1e6);
            }
            last_reply[c] = Some(now);
            if let Some(t) = tracer.as_deref_mut() {
                let end = t.stamp(now);
                let root = t.record("request", req.send_start_ns, end, None, request_id);
                t.record(
                    "client.send",
                    req.send_start_ns,
                    req.send_end_ns,
                    Some(root),
                    request_id,
                );
                request_id += 1;
            }
            if !stopping {
                send(c, phase, readers, &mut inflight, &mut tracer)?;
            }
            pending += inflight[c].len();
        }

        let elapsed = start.elapsed().as_secs_f64();
        if adapt && !stopping {
            let into_phase = (elapsed - phase as f64 * phase_len) / (0.9 * phase_len);
            let due = ((into_phase.clamp(0.0, 1.0)) * feedback[phase].len() as f64).ceil() as usize;
            let phase_over = elapsed >= (phase + 1) as f64 * phase_len;
            let due = if phase_over {
                feedback[phase].len()
            } else {
                due
            };
            while fed < due {
                ops.attempted += 1;
                let events = inputs.feedback[phase][fed].len() as u32;
                match writer.feedback(&feedback[phase][fed], events) {
                    Ok(wrong_acks) => ops.failed += wrong_acks,
                    Err(e) => {
                        note_wire_error(&e, &mut result);
                        ops.failed += 1;
                    }
                }
                fed += 1;
            }
            if phase_over {
                ops.attempted += 1;
                match writer.rebuild(rebuild) {
                    Ok((wrong_acks, hints)) => {
                        ops.failed += wrong_acks;
                        result.rebuilds += 1;
                        result.hints += u64::from(hints);
                    }
                    Err(e) => {
                        note_wire_error(&e, &mut result);
                        ops.failed += 1;
                    }
                }
                phase += 1;
                fed = 0;
                stopping = phase == phases;
            }
        } else if !stopping && elapsed >= seconds {
            stopping = true;
        }
        if stopping && pending == 0 {
            break;
        }
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result.cpu_s = thread_cpu_s()
        .zip(cpu_before)
        .map(|(after, before)| after - before);
    if let Some(t) = tracer {
        let layers = t.layers();
        result.send_ns = layers
            .get("client.send")
            .map_or(0.0, |l| l.total_ns as f64 / l.count.max(1) as f64);
    }
    Ok(result)
}

/// Queries `keys` over the control connection in checked frames and
/// returns the answers.
fn query_checked(served: &mut Served, keys: &[&[u8]], ops: &mut Ops) -> Result<Vec<bool>, String> {
    let mut out = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(CHECK_FRAME_KEYS) {
        ops.attempted += 1;
        match served.control.query(TENANT, chunk) {
            Ok(answers) => out.extend(answers),
            Err(e) => {
                ops.failed += 1;
                return Err(err("check query", e));
            }
        }
    }
    Ok(out)
}

/// Cost-weighted FPR over the workload's evaluation negatives, computed
/// from answers served over the wire.
fn weighted_fpr_over_wire(served: &mut Served, ops: &mut Ops) -> Result<f64, String> {
    // Lend the keys out of `served` while its control client is in use.
    let others = std::mem::take(&mut served.inputs.others);
    let (keys, costs): (Vec<&[u8]>, Vec<f64>) = served
        .inputs
        .eval
        .iter()
        .map(|&(i, cost)| (others[i as usize].as_slice(), cost))
        .unzip();
    let answers = query_checked(served, &keys, ops);
    drop(keys);
    served.inputs.others = others;
    let answers = answers?;
    let total: f64 = costs.iter().sum();
    let wasted: f64 = costs
        .iter()
        .zip(&answers)
        .filter(|(_, &a)| a)
        .map(|(c, _)| c)
        .sum();
    Ok(wasted / total.max(f64::MIN_POSITIVE))
}

/// Zero false negatives after the run: the read-only tenant re-checks
/// every member; the adaptive one re-sends the final phase's frames,
/// whose member keys must all still answer `true` after the last swap.
fn sweep_members(served: &mut Served, ops: &mut Ops) -> Result<(), String> {
    if served.kind == Kind::Tiny {
        let members = std::mem::take(&mut served.inputs.members);
        let keys: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let answers = query_checked(served, &keys, ops);
        drop(keys);
        served.inputs.members = members;
        let missing = answers?.iter().filter(|&&a| !a).count() as u64;
        ops.failed += missing;
        ops.false_negatives += missing;
        return Ok(());
    }
    let last = served.frames.len() - 1;
    for f in 0..served.frames[last].len() {
        ops.attempted += 1;
        let reply = served
            .control
            .send_raw(&served.frames[last][f])
            .and_then(|()| served.control.flush())
            .and_then(|()| served.control.recv_answers());
        let answers = reply.map_err(|e| {
            ops.failed += 1;
            err("sweep query", e)
        })?;
        let probes = &served.inputs.frames[last][f];
        let missing = probes
            .iter()
            .zip(&answers)
            .filter(|(p, &a)| p.member && !a)
            .count() as u64;
        if missing > 0 || answers.len() != probes.len() {
            ops.failed += 1;
            ops.false_negatives += missing;
        }
    }
    Ok(())
}

/// `space_bits / members`, read from the tenant's STATS frame.
fn bits_per_key_from_stats(served: &mut Served, ops: &mut Ops) -> Result<f64, String> {
    ops.attempted += 1;
    let json = served.control.stats(TENANT).map_err(|e| {
        ops.failed += 1;
        err("stats", e)
    })?;
    let field = "\"space_bits\":";
    let at = json.find(field).ok_or("stats without space_bits")? + field.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let bits: f64 = digits.parse().map_err(|e| err("space_bits", e))?;
    Ok(bits / served.members as f64)
}

/// For the read-only tenant, the in-process answers to every frame: the
/// loop compares each wire answer against them.
fn expected_answers(served: &mut Served) {
    if served.kind != Kind::Tiny {
        return;
    }
    let snapshot = served.store.snapshot();
    let expected = served.inputs.frames[0]
        .iter()
        .map(|probes| {
            probes
                .iter()
                .map(|&p| snapshot.contains(served.inputs.key(p)))
                .collect()
        })
        .collect();
    served.expected = Some(expected);
}

/// The untraced run: end-to-end metrics only.
pub fn run(kind: Kind, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut kept = None;
    for _ in 0..kind.setup_repeats() {
        drop(kept.take());
        let served = setup(kind, seed, work, &mut ops)?;
        setups.push(served.times.total());
        builds.push(served.times.build);
        kept = Some(served);
    }
    let mut served = kept.ok_or("no setup ran")?;
    expected_answers(&mut served);

    let mut warm_ops = Ops::default();
    drive(&mut served, WARMUP_S, false, None, &mut warm_ops)?;
    ops.add(warm_ops);
    let result = drive(&mut served, seconds, kind == Kind::Adapt, None, &mut ops)?;
    let weighted_fpr = weighted_fpr_over_wire(&mut served, &mut ops)?;
    let bits_per_key = bits_per_key_from_stats(&mut served, &mut ops)?;
    sweep_members(&mut served, &mut ops)?;

    let latency = Latency::of(result.latencies_us.clone(), result.failed_frames);
    let sliced = result.sliced();
    let mut m = Measured::default();
    m.set("setup_s", median(&setups));
    m.set("query_keys_per_s", sliced.rate);
    m.set("query_p50_us", sliced.p50);
    m.set("query_p99_us", sliced.p99.unwrap_or(0.0));
    m.set("build_s", median(&builds));
    m.set("weighted_fpr", weighted_fpr);
    m.set("bits_per_key", bits_per_key);
    m.set("success_frac", 1.0 - ops.failed_frac());
    let mut notes = loop_notes(&result, &latency);
    notes.push(("slices".into(), sliced.slices.to_string()));
    notes.push((
        "window_keys_per_s".into(),
        format!("{:.0}", result.keys_per_s()),
    ));
    notes.push(("window_p50_us".into(), format!("{:.1}", latency.p50)));
    notes.push((
        "window_p99_us".into(),
        format!("{:.1}", latency.p99.unwrap_or(0.0)),
    ));
    notes.push(("setups_s".into(), format!("{setups:?}")));
    notes.push(("builds_s".into(), format!("{builds:?}")));
    Ok(Outcome {
        measured: m,
        ops,
        notes,
    })
}

fn loop_notes(result: &LoopResult, latency: &Latency) -> Vec<(String, String)> {
    vec![
        ("latency_samples".into(), latency.samples.to_string()),
        ("samples_beyond_p99".into(), latency.beyond_p99.to_string()),
        ("frames".into(), result.frames.to_string()),
        ("window_s".into(), format!("{:.3}", result.wall_s)),
        ("rebuilds".into(), result.rebuilds.to_string()),
        ("hints".into(), result.hints.to_string()),
        ("stall_max_us".into(), format!("{:.1}", result.stall_max_us)),
        (
            "client_cpu_share".into(),
            result.cpu_s.map_or("unavailable".into(), |c| {
                format!("{:.3}", c / result.wall_s)
            }),
        ),
        (
            "nonmember_maybe_frac".into(),
            format!(
                "{:.5}",
                result.maybe_others as f64 / result.probed_others.max(1) as f64
            ),
        ),
    ]
}

/// Per-frame layer times of the in-process replay, nanoseconds.
#[derive(Debug, Default)]
struct Replay {
    decode: Vec<f64>,
    tenant: Vec<f64>,
    batch: Vec<f64>,
    scalar: Vec<f64>,
    encode: Vec<f64>,
    client_decode: Vec<f64>,
    keys: u64,
    request_bytes: u64,
    reply_bytes: u64,
}

/// Replays captured frames in-process through each layer's public
/// functions, checking that batch and scalar answers agree.
fn replay(served: &Served, tracer: &mut Tracer, ops: &mut Ops) -> Result<Replay, String> {
    let mut r = Replay::default();
    let snapshot = served.store.snapshot();
    let batch = snapshot.as_batch();
    let pool = &served.frames[0];
    for (i, frame) in pool.iter().take(REPLAY_FRAMES).enumerate() {
        let id = i as u64;
        let root = tracer.open("replay", None, id);
        let (parsed, span) = tracer.span("serve.protocol.decode", Some(root), id, || {
            let mut asm = FrameAssembler::new();
            asm.feed(frame);
            asm.next_frame()
                .and_then(|f| f.ok_or(WireError::Truncated))
                .and_then(|f| Request::parse(&f))
        });
        r.decode.push(span_ns(tracer, span));
        let Ok(Request::Query { keys, .. }) = parsed else {
            return Err("replayed frame is not a QUERY".into());
        };
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let (via_tenant, span) = tracer.span("core.tenant.contains_batch", Some(root), id, || {
            served.store.contains_batch(&slices)
        });
        r.tenant.push(span_ns(tracer, span));
        let (via_batch, span) = tracer.span("probe.batch", Some(root), id, || {
            batch.map(|b| b.contains_batch(&slices))
        });
        r.batch.push(span_ns(tracer, span));
        let (via_scalar, span) = tracer.span("probe.scalar", Some(root), id, || {
            slices
                .iter()
                .map(|k| snapshot.contains(k))
                .collect::<Vec<bool>>()
        });
        r.scalar.push(span_ns(tracer, span));
        ops.attempted += 1;
        let probes = &served.inputs.frames[0][i];
        let member_missing = probes.iter().zip(&via_scalar).any(|(p, &a)| p.member && !a);
        if via_batch.as_ref().is_some_and(|b| *b != via_scalar) || via_tenant != via_scalar {
            ops.failed += 1;
            return Err(format!(
                "replayed frame {i}: batch and scalar answers differ"
            ));
        }
        if member_missing {
            ops.failed += 1;
            ops.false_negatives += 1;
        }
        let mut reply = Vec::new();
        let ((), span) = tracer.span("serve.protocol.encode", Some(root), id, || {
            protocol::append_answers_frame(&mut reply, &via_scalar);
        });
        r.encode.push(span_ns(tracer, span));
        let (decoded, span) = tracer.span("client.decode", Some(root), id, || {
            protocol::read_frame(&mut reply.as_slice())
                .and_then(|f| f.ok_or(WireError::Truncated))
                .and_then(|f| protocol::decode_answers(&f.payload))
        });
        r.client_decode.push(span_ns(tracer, span));
        if decoded.map_err(|e| err("decode replayed reply", e))? != via_scalar {
            return Err(format!(
                "replayed frame {i}: reply round trip changed answers"
            ));
        }
        tracer.close(root);
        r.keys += slices.len() as u64;
        r.request_bytes += frame.len() as u64;
        r.reply_bytes += reply.len() as u64;
    }
    Ok(r)
}

fn span_ns(tracer: &Tracer, id: crate::trace::SpanId) -> f64 {
    tracer.duration_ns(id) as f64
}

/// Mean nanoseconds per key of hashing each frame key with the H0
/// functions of the shard that holds it.
fn hash_ns_per_key(served: &Served) -> Result<f64, String> {
    let snapshot = served.store.snapshot();
    let mut legacy = Vec::new();
    snapshot.write_payload(&mut legacy);
    let sharded = ShardedHabf::<Habf>::from_bytes(&legacy).map_err(|e| err("sharded image", e))?;
    let family = HashFamily::full();
    let mut frame_keys = Vec::new();
    for frame in served.frames[0].iter().take(REPLAY_FRAMES) {
        let parsed = protocol::read_frame(&mut frame.as_slice())
            .and_then(|f| f.ok_or(WireError::Truncated))
            .and_then(|f| Request::parse(&f));
        if let Ok(Request::Query { keys, .. }) = parsed {
            frame_keys.extend(keys);
        }
    }
    let keys: Vec<(&[u8], &[habf_hashing::HashId])> = frame_keys
        .iter()
        .map(|key| (key.as_slice(), sharded.shard(sharded.shard_of(key)).h0()))
        .collect();
    Ok(time_hashing(&family, &keys))
}

/// Times `family.hash_id` over each key's H0 ids, repeating passes for
/// at least a quarter second; nanoseconds per key.
pub fn time_hashing(family: &HashFamily, keys: &[(&[u8], &[habf_hashing::HashId])]) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    let mut acc = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < 0.25 {
        for &(key, ids) in keys {
            for &id in ids {
                acc ^= family.hash_id(id, key);
            }
        }
        passes += 1;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / (passes as f64 * keys.len().max(1) as f64)
}

/// The traced run: per-layer metrics.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let setup_root = tracer.open("setup", None, 0);
    let mut served = setup(kind, seed, work, &mut ops)?;
    tracer.close(setup_root);
    expected_answers(&mut served);

    let mut m = Measured::default();
    let t = served.times;
    m.set("workloads.gen_s", t.gen);
    m.set("core.registry.encode_s", t.encode);
    m.set("core.registry.load_mmap_s", t.load_mmap);
    let (loaded, owned_s) = timed(|| {
        std::fs::read(&served.image)
            .map_err(|e| err("read image", e))
            .and_then(|b| registry::load(&b).map_err(|e| err("load image", e)))
    });
    loaded?;
    m.set("core.registry.load_owned_s", owned_s);

    let mut rtts = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        ops.attempted += 1;
        let (pong, s) = timed(|| served.control.ping(&(i as u64).to_le_bytes()));
        pong.map_err(|e| err("ping", e))?;
        rtts.push(s * 1e6);
    }
    m.set("serve.reactor.ping_rtt_us", median(&rtts));

    // Equal untraced and traced windows of the read loop, back to back:
    // their throughput ratio is the tracing overhead. The adaptive
    // workload then runs its phased schedule (feedback and rebuilds),
    // traced, for the write-path figures.
    let adapt = kind == Kind::Adapt;
    let window = if adapt { seconds / 4.0 } else { seconds / 2.0 };
    let mut warm_ops = Ops::default();
    drive(&mut served, WARMUP_S, false, None, &mut warm_ops)?;
    ops.add(warm_ops);
    let plain = drive(&mut served, window, false, None, &mut ops)?;
    let traced = drive(&mut served, window, false, Some(&mut tracer), &mut ops)?;
    let request_self = tracer
        .layers()
        .get("request")
        .map_or(0.0, |l| l.mean_self_ns());
    m.set(
        "trace.overhead_frac",
        1.0 - traced.sliced().rate / plain.sliced().rate.max(1e-9),
    );
    let phased = if adapt {
        Some(drive(
            &mut served,
            seconds / 2.0,
            true,
            Some(&mut tracer),
            &mut ops,
        )?)
    } else {
        None
    };
    let writes = phased.as_ref().unwrap_or(&traced);
    m.set("serve.reactor.stall_max_us", writes.stall_max_us);
    m.set(
        "serve.reactor.busy_refusals",
        (plain.busy + traced.busy + phased.as_ref().map_or(0, |p| p.busy)) as f64,
    );
    m.set("core.tenant.rebuilds", writes.rebuilds as f64);
    m.set("core.tenant.hints", writes.hints as f64);
    let frames = traced.frames.max(1) as f64;
    m.set("client.send_ns_per_frame", traced.send_ns);
    if let Some(cpu) = traced.cpu_s {
        m.set("client.cpu_share", cpu / traced.wall_s);
        m.set(
            "client.recv_ns_per_frame",
            (cpu * 1e9 / frames - traced.send_ns).max(0.0),
        );
    }

    let r = replay(&served, &mut tracer, &mut ops)?;
    let keys_per_frame = r.keys as f64 / r.decode.len().max(1) as f64;
    m.set("serve.protocol.decode_ns_per_frame", mean(&r.decode));
    m.set("serve.protocol.encode_ns_per_frame", mean(&r.encode));
    m.set(
        "serve.protocol.request_bytes_per_key",
        r.request_bytes as f64 / r.keys.max(1) as f64,
    );
    m.set(
        "serve.protocol.reply_bytes_per_key",
        r.reply_bytes as f64 / r.keys.max(1) as f64,
    );
    m.set(
        "core.tenant.contains_batch_ns_per_key",
        mean(&r.tenant) / keys_per_frame,
    );
    m.set("probe.scalar_ns_per_key", mean(&r.scalar) / keys_per_frame);
    m.set("probe.batch_ns_per_key", mean(&r.batch) / keys_per_frame);
    m.set(
        "probe.batch_over_scalar",
        mean(&r.batch) / mean(&r.scalar).max(1e-9),
    );
    // Wait: the request span's self time (send excluded) minus the
    // server- and client-side layer times the replay measured per frame.
    let covered = mean(&r.decode) + mean(&r.tenant) + mean(&r.encode) + mean(&r.client_decode);
    m.set("serve.reactor.wait_us", (request_self - covered) / 1e3);
    m.set("hashing.hash_ns_per_key", hash_ns_per_key(&served)?);

    // The tenant write path in process: one phase's worth of feedback
    // events into `record_fp`, then one `rebuild_now`. The read-only tiny
    // tenant holds no member list, so it runs on a second store over the
    // same image, fed with its non-members.
    let (store, events): (Arc<TenantStore>, Vec<&[u8]>) = match kind {
        Kind::Adapt => (
            Arc::clone(&served.store),
            served.inputs.feedback[0]
                .iter()
                .flatten()
                .map(|&i| served.inputs.others[i as usize].as_slice())
                .collect(),
        ),
        Kind::Tiny => (
            Arc::new(
                TenantStore::open(TENANT, &served.image, AdaptPolicy::cost_threshold(f64::MAX))
                    .map_err(|e| err("open image", e))?
                    .with_members(served.inputs.members.clone()),
            ),
            served
                .inputs
                .others
                .iter()
                .take(inputs::FEEDBACK_EVENTS)
                .map(Vec::as_slice)
                .collect(),
        ),
    };
    let ((), s) = timed(|| {
        for key in &events {
            store.record_fp(key, 1.0);
        }
    });
    m.set(
        "core.tenant.record_fp_ns",
        s * 1e9 / events.len().max(1) as f64,
    );
    let (outcome, s) = timed(|| store.rebuild_now(inputs::FILTER_SEED, inputs::MAX_HINTS as usize));
    let outcome = outcome.map_err(|e| err("in-process rebuild", e))?;
    m.set("core.tenant.rebuild_s", s);
    if !adapt {
        m.set("core.tenant.rebuilds", 1.0);
        m.set("core.tenant.hints", outcome.hints as f64);
    }

    let trace_path = work
        .parent()
        .unwrap_or(work)
        .join("traces")
        .join(format!("{}-seed{seed}.jsonl", name(kind)));
    tracer
        .write_jsonl(&trace_path, 50_000)
        .map_err(|e| err("write trace", e))?;
    let latency = Latency::of(writes.latencies_us.clone(), writes.failed_frames);
    let mut notes = loop_notes(writes, &latency);
    notes.push(("trace_file".into(), trace_path.display().to_string()));
    notes.push(("spans".into(), tracer.len().to_string()));
    notes.push((
        "untraced_keys_per_s".into(),
        format!("{:.0}", plain.keys_per_s()),
    ));
    Ok(Outcome {
        measured: m,
        ops,
        notes,
    })
}

pub fn name(kind: Kind) -> &'static str {
    match kind {
        Kind::Tiny => "serve-tiny-frames",
        Kind::Adapt => "serve-adapt-mixed",
    }
}
