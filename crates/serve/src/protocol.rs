//! The wire protocol: length-framed binary frames over a byte stream.
//!
//! ## Frame layout
//!
//! ```text
//! +----+----+-----+------+-------------+=========+
//! | 'H'| 'F'| ver | type | len u32 LE  | payload |
//! +----+----+-----+------+-------------+=========+
//!   0    1    2     3      4..8          8..8+len
//! ```
//!
//! Every frame — request or reply — carries the 8-byte header: a 2-byte
//! magic, the protocol version ([`VERSION`]), the frame type, and the
//! payload length, capped at [`MAX_PAYLOAD`]. Integers are always
//! little-endian; costs are `f64` LE bits.
//!
//! ## Error discipline
//!
//! Decoding follows the persistence layer's rule: untrusted bytes
//! produce *typed* errors, never panics. Header-level damage (bad
//! magic, wrong version, oversized length, EOF mid-frame) desynchronizes
//! the stream — the server answers with one [`frame_type::ERROR`] frame
//! and closes. Payload-level damage (a request body that does not parse,
//! an unknown frame type) leaves the framing intact — the server answers
//! with an error frame and keeps serving the connection.
//!
//! ## Request payloads
//!
//! | type | payload |
//! |---|---|
//! | `PING` | opaque bytes, echoed back in `PONG` |
//! | `QUERY` | tenant, `count u32`, then `count` keys |
//! | `FEEDBACK` | tenant, `count u32`, then `count` × (key, `cost f64`) |
//! | `STATS` | tenant |
//! | `REBUILD` | tenant, `seed u64`, `max_hints u32` |
//! | `SHUTDOWN` | empty (admin stop; refused unless the server opts in) |
//! | `INSERT` | tenant, `count u32`, then `count` keys |
//!
//! where *tenant* and *key* are `len u16` + bytes (tenants must be
//! UTF-8). Replies: `ANSWERS` is `count u32` + a packed LSB-first
//! bitset; `ACK` is the accepted event count; `STATS_OK` is a UTF-8
//! JSON line; `REBUILT` is `hints u32` + `generation u64`; `INSERT_OK`
//! is `accepted u32` + `tiers u32` + `saturation f64`; `ERROR` is a
//! [`error_code`] byte + a UTF-8 message — except [`error_code::BUSY`],
//! which carries a `retry-after-ms u8` backoff hint between the code
//! and the message.
//!
//! ## Streaming decode
//!
//! [`read_frame`] blocks until a whole frame arrives — fine for a
//! client, a thread hostage for the server's event loops. The
//! [`FrameAssembler`] is the incremental face of the same codec: feed
//! it whatever bytes the socket had, pop complete frames, and a partial
//! frame simply stays buffered until more bytes arrive. Both paths
//! validate headers through one decoder, with the same pre-allocation
//! cap; [`write_frame`] and [`append_frame`] share one header encoder.

use std::io::{Read, Write};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"HF";

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Fixed frame header length: magic + version + type + payload length.
pub const HEADER_LEN: usize = 8;

/// Hard payload cap (16 MiB): a length field above this is a typed
/// error, not an allocation — byte soup must never size a buffer.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Frame type bytes. Requests are `0x0*`; replies set the high bit.
pub mod frame_type {
    /// Batched membership query → [`ANSWERS`].
    pub const QUERY: u8 = 0x01;
    /// FP/miss feedback events → [`ACK`].
    pub const FEEDBACK: u8 = 0x02;
    /// Tenant stats request → [`STATS_OK`].
    pub const STATS: u8 = 0x03;
    /// Explicit adaptation rebuild → [`REBUILT`].
    pub const REBUILD: u8 = 0x04;
    /// Liveness probe → [`PONG`] echoing the payload.
    pub const PING: u8 = 0x05;
    /// Clean server stop (honored only when the server enables it) →
    /// [`SHUTDOWN_OK`].
    pub const SHUTDOWN: u8 = 0x06;
    /// Incremental key insert into a growable tenant → [`INSERT_OK`].
    pub const INSERT: u8 = 0x07;
    /// Reply to [`QUERY`]: packed answer bitset.
    pub const ANSWERS: u8 = 0x81;
    /// Reply to [`FEEDBACK`]: accepted event count.
    pub const ACK: u8 = 0x82;
    /// Reply to [`STATS`]: JSON stats line.
    pub const STATS_OK: u8 = 0x83;
    /// Reply to [`REBUILD`]: hints used + new generation.
    pub const REBUILT: u8 = 0x84;
    /// Reply to [`PING`].
    pub const PONG: u8 = 0x85;
    /// Reply to [`SHUTDOWN`]: the server stops accepting after this.
    pub const SHUTDOWN_OK: u8 = 0x86;
    /// Reply to [`INSERT`]: accepted count + tier count + saturation.
    pub const INSERT_OK: u8 = 0x87;
    /// Typed failure reply to any request.
    pub const ERROR: u8 = 0xFF;
}

/// First payload byte of an [`frame_type::ERROR`] frame.
pub mod error_code {
    /// The request payload did not parse.
    pub const BAD_FRAME: u8 = 1;
    /// The frame type byte is not a known request.
    pub const UNKNOWN_TYPE: u8 = 2;
    /// The named tenant is not served.
    pub const UNKNOWN_TENANT: u8 = 3;
    /// A rebuild was refused or failed.
    pub const REBUILD_FAILED: u8 = 4;
    /// The declared payload length exceeds [`super::MAX_PAYLOAD`].
    pub const OVERSIZED: u8 = 5;
    /// The server is at its connection limit.
    pub const BUSY: u8 = 6;
    /// The frame did not start with the protocol magic.
    pub const BAD_MAGIC: u8 = 7;
    /// The frame declared an unsupported protocol version.
    pub const BAD_VERSION: u8 = 8;
    /// The stream ended mid-frame.
    pub const TRUNCATED: u8 = 9;
    /// A shutdown was requested but the server does not allow it.
    pub const SHUTDOWN_REFUSED: u8 = 10;
    /// An insert targeted a tenant whose filter cannot grow.
    pub const NOT_GROWABLE: u8 = 11;
}

/// A typed failure while reading or decoding wire bytes.
#[derive(Debug)]
pub enum WireError {
    /// Reading or writing the socket failed (includes read timeouts).
    Io(std::io::Error),
    /// The header did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The header declared a version this build does not speak.
    BadVersion(u8),
    /// The header declared a payload longer than [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The stream ended inside a header or payload.
    Truncated,
    /// A payload field did not decode.
    BadPayload(&'static str),
    /// The peer refused the connection at its limit, with a backoff
    /// hint ([`error_code::BUSY`] surfaced as its own variant).
    Busy {
        /// How long the server suggests waiting before reconnecting.
        retry_after_ms: u8,
        /// Human-readable detail.
        message: String,
    },
    /// The peer answered with an error frame.
    Server {
        /// One of [`error_code`].
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds cap"),
            Self::Truncated => write!(f, "stream ended mid-frame"),
            Self::BadPayload(what) => write!(f, "malformed payload: {what}"),
            Self::Busy {
                retry_after_ms,
                message,
            } => write!(f, "server busy (retry in {retry_after_ms} ms): {message}"),
            Self::Server { code, message } => write!(f, "server error {code}: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl WireError {
    /// The [`error_code`] the server reports this decode failure as.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            Self::Io(_) | Self::Truncated => error_code::TRUNCATED,
            Self::BadMagic(_) => error_code::BAD_MAGIC,
            Self::BadVersion(_) => error_code::BAD_VERSION,
            Self::Oversized(_) => error_code::OVERSIZED,
            Self::BadPayload(_) => error_code::BAD_FRAME,
            Self::Busy { .. } => error_code::BUSY,
            Self::Server { code, .. } => *code,
        }
    }
}

/// One decoded frame: the type byte and its raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// One of [`frame_type`].
    pub kind: u8,
    /// The raw payload bytes (decoded per-type by [`Request::parse`]).
    pub payload: Vec<u8>,
}

/// The one frame-header encoder. An over-cap payload is an error, so a
/// buggy caller cannot emit a frame no peer will accept.
fn encode_header(kind: u8, payload_len: usize) -> Result<[u8; HEADER_LEN], WireError> {
    // Saturate the reported length: a > 4 GiB payload must not wrap the
    // u32 (it used to report `len % 2^32` bytes in the error).
    let len = u32::try_from(payload_len).unwrap_or(u32::MAX);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let [m0, m1] = MAGIC;
    let [l0, l1, l2, l3] = len.to_le_bytes();
    Ok([m0, m1, VERSION, kind, l0, l1, l2, l3])
}

/// The one frame-header decoder: checks magic, version, and the length
/// cap, and returns the frame type and payload length. The cap is
/// checked before any caller sizes a buffer from the length.
fn decode_header(header: [u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    let [m0, m1, version, kind, l0, l1, l2, l3] = header;
    if [m0, m1] != MAGIC {
        return Err(WireError::BadMagic([m0, m1]));
    }
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    match usize::try_from(len) {
        Ok(len_usize) if len_usize <= MAX_PAYLOAD => Ok((kind, len_usize)),
        _ => Err(WireError::Oversized(len)),
    }
}

/// Writes one frame: header + payload.
///
/// # Errors
/// Propagates socket write errors; an over-cap payload is an error
/// here too, so a buggy caller cannot emit a frame no peer will accept.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&encode_header(kind, payload.len())?)?;
    w.write_all(payload)?;
    Ok(())
}

/// Fills `buf` like `read_exact` (retrying interrupts) but reports a short
/// read as the byte count instead of an error, so the caller can tell a
/// clean close (0 bytes) from a truncated frame.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Builds a fixed-size array prefix of `bytes` without a panic path; bytes
/// past `bytes.len()` stay zero. Callers pass exactly `N` checked bytes.
fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes) {
        *dst = *src;
    }
    out
}

/// Reads one frame. `Ok(None)` is a clean close: EOF exactly at a frame
/// boundary. Any other short read is [`WireError::Truncated`].
///
/// # Errors
/// Typed errors for every way untrusted bytes can fail to be a frame;
/// no input panics and — because the length field is capped before any
/// allocation — no input sizes a buffer.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        HEADER_LEN => {}
        _ => return Err(WireError::Truncated),
    }
    let (kind, len_usize) = decode_header(header)?;
    // `decode_header` already refused longer lengths; the bound stays
    // visible here, at the allocation.
    let mut payload = vec![0u8; len_usize.min(MAX_PAYLOAD)];
    if read_full(r, &mut payload)? != len_usize {
        return Err(WireError::Truncated);
    }
    Ok(Some(Frame { kind, payload }))
}

/// Once buffered leading garbage exceeds this, [`FrameAssembler::feed`]
/// compacts the buffer instead of letting it grow without bound.
const ASSEMBLER_COMPACT: usize = 64 * 1024;

/// Incremental frame decoder: the streaming face of [`read_frame`].
///
/// A reactor feeds it whatever bytes one nonblocking read produced and
/// pops complete frames; a frame split across reads stays buffered —
/// no thread is held hostage waiting for the rest. Header validation
/// (magic, version, length cap) happens as soon as the 8 header bytes
/// are present, so an adversarial length is refused before the payload
/// accumulates, and the cap bounds buffered memory per connection at
/// `MAX_PAYLOAD` + one read's worth of bytes.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read socket bytes to the internal buffer,
    /// compacting consumed space first when it has built up.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= ASSEMBLER_COMPACT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// True when EOF now would be mid-frame: some bytes are buffered
    /// that do not (yet) form a complete frame. After draining
    /// [`FrameAssembler::next_frame`] to `Ok(None)`, this is the
    /// truncation test.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Pops the next complete frame, if one is buffered. `Ok(None)`
    /// means "need more bytes", never an error.
    ///
    /// # Errors
    /// The same typed header errors as [`read_frame`]; after an error
    /// the stream is desynchronized and the connection should close
    /// (remaining buffered bytes are meaningless).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        let header_end = self
            .start
            .checked_add(HEADER_LEN)
            .ok_or(WireError::Truncated)?;
        let header = self
            .buf
            .get(self.start..header_end)
            .ok_or(WireError::Truncated)?;
        let (kind, len_usize) = decode_header(le_array(header))?;
        let frame_end = header_end
            .checked_add(len_usize)
            .ok_or(WireError::Truncated)?;
        let Some(payload) = self.buf.get(header_end..frame_end) else {
            return Ok(None); // partial payload: wait for more bytes
        };
        let frame = Frame {
            kind,
            payload: payload.to_vec(),
        };
        self.start = frame_end;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

/// Appends one frame (header + payload) to an in-memory buffer — the
/// allocation-reusing sibling of [`write_frame`] for reply batching.
///
/// # Errors
/// [`WireError::Oversized`] for an over-cap payload; nothing is
/// appended on error.
pub fn append_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    out.extend_from_slice(&encode_header(kind, payload.len())?);
    out.extend_from_slice(payload);
    Ok(())
}

/// Appends a complete `ANSWERS` frame — header and count + bitset
/// payload — straight into `out`, with no intermediate payload
/// allocation. Infallible: an answer set decoded from an in-cap QUERY
/// frame packs into well under [`MAX_PAYLOAD`] bytes.
pub fn append_answers_frame(out: &mut Vec<u8>, answers: &[bool]) {
    let payload_len = 4 + answers.len().div_ceil(8);
    let [m0, m1] = MAGIC;
    out.reserve(HEADER_LEN + payload_len);
    out.extend_from_slice(&[m0, m1, VERSION, frame_type::ANSWERS]);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&(answers.len() as u32).to_le_bytes());
    let bits_start = out.len();
    out.resize(bits_start + answers.len().div_ceil(8), 0);
    for (i, &hit) in answers.iter().enumerate() {
        if hit {
            out[bits_start + i / 8] |= 1 << (i % 8);
        }
    }
}

/// A bounds-checked little-endian payload reader. Every `take_*` is a
/// typed error past the end — the decoding face of the "byte soup never
/// panics" rule.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading `buf` from offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far — lets zero-copy callers turn a
    /// [`Cursor::take_bytes`] slice back into a payload-relative range.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::BadPayload("field past payload end"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::BadPayload("field past payload end"))?;
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(WireError::BadPayload("field past payload end"))
    }

    /// `u16` LE.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(le_array(self.take(2)?)))
    }

    /// `u32` LE.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(le_array(self.take(4)?)))
    }

    /// `u64` LE.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(le_array(self.take(8)?)))
    }

    /// `f64` from LE bits.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(le_array(self.take(8)?))))
    }

    /// A `len u16` + bytes field (keys, tenant names).
    pub fn take_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::from(self.take_u16()?);
        self.take(len)
    }

    /// A `u32` LE count field, widened to `usize` without an `as` cast.
    pub fn take_count(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.take_u32()?)
            .map_err(|_| WireError::BadPayload("count exceeds address space"))
    }

    /// Asserts the payload was consumed exactly; trailing bytes are a
    /// framing bug on the peer, not padding.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes after payload"))
        }
    }
}

fn take_tenant(c: &mut Cursor<'_>) -> Result<String, WireError> {
    let raw = c.take_bytes()?;
    if raw.is_empty() {
        return Err(WireError::BadPayload("empty tenant name"));
    }
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadPayload("tenant name not UTF-8"))
}

/// A fully decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; the payload is echoed back.
    Ping(Vec<u8>),
    /// Batched membership query against one tenant.
    Query {
        /// Tenant routing key.
        tenant: String,
        /// Probe keys, answered in order.
        keys: Vec<Vec<u8>>,
    },
    /// FP/miss feedback events for one tenant's adaptation log.
    Feedback {
        /// Tenant routing key.
        tenant: String,
        /// `(key, wasted cost)` events.
        events: Vec<(Vec<u8>, f64)>,
    },
    /// Stats snapshot request.
    Stats {
        /// Tenant routing key.
        tenant: String,
    },
    /// Explicit adaptation rebuild + hot swap.
    Rebuild {
        /// Tenant routing key.
        tenant: String,
        /// Build seed for the rebuild.
        seed: u64,
        /// Cap on mined hints.
        max_hints: u32,
    },
    /// Clean server stop (refused unless the server opted in).
    Shutdown,
    /// Incremental insert into a growable tenant's live filter.
    Insert {
        /// Tenant routing key.
        tenant: String,
        /// Keys to add as members.
        keys: Vec<Vec<u8>>,
    },
}

impl Request {
    /// Decodes a frame into a typed request.
    ///
    /// # Errors
    /// [`WireError::BadPayload`] on any malformed body and
    /// [`WireError::Server`] with [`error_code::UNKNOWN_TYPE`] for a
    /// type byte that is not a request.
    pub fn parse(frame: &Frame) -> Result<Self, WireError> {
        let mut c = Cursor::new(&frame.payload);
        match frame.kind {
            frame_type::PING => Ok(Self::Ping(frame.payload.clone())),
            frame_type::QUERY => {
                let tenant = take_tenant(&mut c)?;
                let count = c.take_count()?;
                let mut keys = Vec::with_capacity(count.min(65_536));
                for _ in 0..count {
                    keys.push(c.take_bytes()?.to_vec());
                }
                c.finish()?;
                Ok(Self::Query { tenant, keys })
            }
            frame_type::FEEDBACK => {
                let tenant = take_tenant(&mut c)?;
                let count = c.take_count()?;
                let mut events = Vec::with_capacity(count.min(65_536));
                for _ in 0..count {
                    let key = c.take_bytes()?.to_vec();
                    let cost = c.take_f64()?;
                    events.push((key, cost));
                }
                c.finish()?;
                Ok(Self::Feedback { tenant, events })
            }
            frame_type::STATS => {
                let tenant = take_tenant(&mut c)?;
                c.finish()?;
                Ok(Self::Stats { tenant })
            }
            frame_type::REBUILD => {
                let tenant = take_tenant(&mut c)?;
                let seed = c.take_u64()?;
                let max_hints = c.take_u32()?;
                c.finish()?;
                Ok(Self::Rebuild {
                    tenant,
                    seed,
                    max_hints,
                })
            }
            frame_type::SHUTDOWN => {
                c.finish()?;
                Ok(Self::Shutdown)
            }
            frame_type::INSERT => {
                let tenant = take_tenant(&mut c)?;
                let count = c.take_count()?;
                let mut keys = Vec::with_capacity(count.min(65_536));
                for _ in 0..count {
                    keys.push(c.take_bytes()?.to_vec());
                }
                c.finish()?;
                Ok(Self::Insert { tenant, keys })
            }
            other => Err(WireError::Server {
                code: error_code::UNKNOWN_TYPE,
                message: format!("unknown request type 0x{other:02x}"),
            }),
        }
    }
}

/// Encodes a query payload: tenant + count + keys.
#[must_use]
pub fn encode_query(tenant: &str, keys: &[impl AsRef<[u8]>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, tenant.as_bytes());
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        put_bytes(&mut out, key.as_ref());
    }
    out
}

/// Encodes a feedback payload: tenant + count + (key, cost) events.
#[must_use]
pub fn encode_feedback(tenant: &str, events: &[(impl AsRef<[u8]>, f64)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, tenant.as_bytes());
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for (key, cost) in events {
        put_bytes(&mut out, key.as_ref());
        out.extend_from_slice(&cost.to_bits().to_le_bytes());
    }
    out
}

/// Encodes a stats payload: the tenant name.
#[must_use]
pub fn encode_stats(tenant: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, tenant.as_bytes());
    out
}

/// Encodes an insert payload: tenant + count + keys (same body shape
/// as a query — only the frame type distinguishes probe from mutate).
#[must_use]
pub fn encode_insert(tenant: &str, keys: &[impl AsRef<[u8]>]) -> Vec<u8> {
    encode_query(tenant, keys)
}

/// Encodes an `INSERT_OK` payload.
#[must_use]
pub fn encode_insert_ok(accepted: u32, tiers: u32, saturation: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&accepted.to_le_bytes());
    out.extend_from_slice(&tiers.to_le_bytes());
    out.extend_from_slice(&saturation.to_bits().to_le_bytes());
    out
}

/// Decodes an `INSERT_OK` payload into `(accepted, tiers, saturation)`.
///
/// # Errors
/// [`WireError::BadPayload`] when the payload is not exactly 16 bytes.
pub fn decode_insert_ok(payload: &[u8]) -> Result<(u32, u32, f64), WireError> {
    let mut c = Cursor::new(payload);
    let accepted = c.take_u32()?;
    let tiers = c.take_u32()?;
    let saturation = c.take_f64()?;
    c.finish()?;
    Ok((accepted, tiers, saturation))
}

/// Encodes a rebuild payload: tenant + seed + hint cap.
#[must_use]
pub fn encode_rebuild(tenant: &str, seed: u64, max_hints: u32) -> Vec<u8> {
    let mut out = Vec::new();
    put_bytes(&mut out, tenant.as_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&max_hints.to_le_bytes());
    out
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    debug_assert!(bytes.len() <= u16::MAX as usize, "field too long for u16");
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Packs answers as count + LSB-first bitset (the `ANSWERS` payload).
#[must_use]
pub fn encode_answers(answers: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + answers.len().div_ceil(8));
    out.extend_from_slice(&(answers.len() as u32).to_le_bytes());
    out.resize(4 + answers.len().div_ceil(8), 0);
    for (i, &hit) in answers.iter().enumerate() {
        if hit {
            out[4 + i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpacks an `ANSWERS` payload.
///
/// # Errors
/// [`WireError::BadPayload`] when the bitset does not match the count.
pub fn decode_answers(payload: &[u8]) -> Result<Vec<bool>, WireError> {
    let mut c = Cursor::new(payload);
    let count = c.take_count()?;
    let bits = c.take(count.div_ceil(8))?;
    c.finish()?;
    // `bits` is exactly `count.div_ceil(8)` bytes (just taken), so the
    // lookup never misses; `.get` keeps the path index-panic-free.
    Ok((0..count)
        .map(|i| bits.get(i / 8).is_some_and(|&b| b >> (i % 8) & 1 == 1))
        .collect())
}

/// Encodes an `ERROR` payload: code byte + UTF-8 message.
#[must_use]
pub fn encode_error(code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + message.len());
    out.push(code);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Encodes a [`error_code::BUSY`] `ERROR` payload: code byte, the
/// retry-after-ms backoff hint, then the UTF-8 message.
#[must_use]
pub fn encode_busy(retry_after_ms: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.push(error_code::BUSY);
    out.push(retry_after_ms);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decoded fields of an `ERROR` payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorParts {
    /// One of [`error_code`].
    pub code: u8,
    /// The backoff hint a [`error_code::BUSY`] payload carries (absent
    /// on other codes, and tolerated absent on legacy BUSY frames).
    pub retry_after_ms: Option<u8>,
    /// Human-readable detail.
    pub message: String,
}

/// Decodes an `ERROR` payload into its typed parts, including the
/// BUSY retry-after hint.
///
/// # Errors
/// [`WireError::BadPayload`] when the payload is empty.
pub fn decode_error_parts(payload: &[u8]) -> Result<ErrorParts, WireError> {
    let (&code, rest) = payload
        .split_first()
        .ok_or(WireError::BadPayload("empty error payload"))?;
    let (retry_after_ms, rest) = match (code == error_code::BUSY, rest.split_first()) {
        (true, Some((&ms, tail))) => (Some(ms), tail),
        _ => (None, rest),
    };
    Ok(ErrorParts {
        code,
        retry_after_ms,
        message: String::from_utf8_lossy(rest).into_owned(),
    })
}

/// Decodes an `ERROR` payload into `(code, message)` (the BUSY backoff
/// hint, when present, is stripped from the message — use
/// [`decode_error_parts`] to read it).
///
/// # Errors
/// [`WireError::BadPayload`] when the payload is empty.
pub fn decode_error(payload: &[u8]) -> Result<(u8, String), WireError> {
    let parts = decode_error_parts(payload)?;
    Ok((parts.code, parts.message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame_type::QUERY, b"payload").expect("write");
        write_frame(&mut wire, frame_type::PING, b"").expect("write");
        let mut r = &wire[..];
        let f1 = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!(
            (f1.kind, f1.payload.as_slice()),
            (frame_type::QUERY, &b"payload"[..])
        );
        let f2 = read_frame(&mut r).expect("read").expect("frame");
        assert_eq!((f2.kind, f2.payload.len()), (frame_type::PING, 0));
        assert!(read_frame(&mut r).expect("clean eof").is_none());
    }

    #[test]
    fn header_damage_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame_type::PING, b"x").expect("write");

        let mut bad = wire.clone();
        bad[0] = b'Z';
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = wire.clone();
        bad[2] = 9;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::BadVersion(9))
        ));

        let mut bad = wire.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Oversized(_))
        ));

        for cut in 1..wire.len() {
            assert!(
                matches!(read_frame(&mut &wire[..cut]), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_write_reports_the_true_length() {
        // Pre-fix, the length was narrowed with `as u32` before the cap
        // check, so a >4 GiB payload wrapped to a small bogus length in
        // the error. The length must now survive verbatim (saturated
        // only past u32::MAX).
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        let mut wire = Vec::new();
        match write_frame(&mut wire, frame_type::QUERY, &payload) {
            Err(WireError::Oversized(len)) => {
                assert_eq!(len as usize, MAX_PAYLOAD + 1);
            }
            other => panic!("want Oversized, got {other:?}"),
        }
        assert!(wire.is_empty(), "no partial frame on error");
    }

    #[test]
    fn hostile_counts_error_without_allocating() {
        // A QUERY body declaring u32::MAX keys but carrying none: the
        // typed truncation error must arrive before any count-sized
        // allocation happens.
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u16.to_le_bytes());
        payload.extend_from_slice(b"fuzz");
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let frame = Frame {
            kind: frame_type::QUERY,
            payload,
        };
        assert!(Request::parse(&frame).is_err());

        // Same shape at the Cursor layer: `take_count` reads the field,
        // `take` refuses to slice past the payload end.
        let buf = u32::MAX.to_le_bytes();
        let mut c = Cursor::new(&buf);
        let count = c.take_count().expect("count reads");
        assert_eq!(count, u32::MAX as usize);
        assert!(c.take(count).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let keys = [b"alpha".to_vec(), b"beta".to_vec(), Vec::new()];
        let frame = Frame {
            kind: frame_type::QUERY,
            payload: encode_query("t1", &keys),
        };
        assert_eq!(
            Request::parse(&frame).expect("parse"),
            Request::Query {
                tenant: "t1".into(),
                keys: keys.to_vec(),
            }
        );

        let events = [(b"miss".to_vec(), 2.5)];
        let frame = Frame {
            kind: frame_type::FEEDBACK,
            payload: encode_feedback("t1", &events),
        };
        assert_eq!(
            Request::parse(&frame).expect("parse"),
            Request::Feedback {
                tenant: "t1".into(),
                events: events.to_vec(),
            }
        );

        let frame = Frame {
            kind: frame_type::REBUILD,
            payload: encode_rebuild("t1", 42, 128),
        };
        assert_eq!(
            Request::parse(&frame).expect("parse"),
            Request::Rebuild {
                tenant: "t1".into(),
                seed: 42,
                max_hints: 128,
            }
        );

        let keys = [b"late".to_vec(), b"comer".to_vec()];
        let frame = Frame {
            kind: frame_type::INSERT,
            payload: encode_insert("t1", &keys),
        };
        assert_eq!(
            Request::parse(&frame).expect("parse"),
            Request::Insert {
                tenant: "t1".into(),
                keys: keys.to_vec(),
            }
        );
    }

    #[test]
    fn insert_ok_round_trips_and_truncations_are_typed() {
        let payload = encode_insert_ok(7, 3, 1.25);
        assert_eq!(decode_insert_ok(&payload).expect("decode"), (7, 3, 1.25));
        for cut in 0..payload.len() {
            assert!(decode_insert_ok(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_insert_ok(&long).is_err(), "trailing byte accepted");
    }

    #[test]
    fn insert_payload_damage_is_typed_not_a_panic() {
        let payload = encode_insert("tenant", &[b"key".to_vec()]);
        for cut in 0..payload.len() {
            let frame = Frame {
                kind: frame_type::INSERT,
                payload: payload[..cut].to_vec(),
            };
            assert!(Request::parse(&frame).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn payload_damage_is_typed_not_a_panic() {
        // Truncations at every prefix of a valid query payload.
        let payload = encode_query("tenant", &[b"key".to_vec()]);
        for cut in 0..payload.len() {
            let frame = Frame {
                kind: frame_type::QUERY,
                payload: payload[..cut].to_vec(),
            };
            assert!(Request::parse(&frame).is_err(), "cut at {cut} parsed");
        }
        // Trailing garbage.
        let mut long = payload.clone();
        long.push(0);
        let frame = Frame {
            kind: frame_type::QUERY,
            payload: long,
        };
        assert!(matches!(
            Request::parse(&frame),
            Err(WireError::BadPayload("trailing bytes after payload"))
        ));
        // A count field promising more keys than the payload holds must
        // not pre-allocate unboundedly or panic.
        let mut lying = encode_query("tenant", &[b"key".to_vec()]);
        let tenant_len = 2 + "tenant".len();
        lying[tenant_len..tenant_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let frame = Frame {
            kind: frame_type::QUERY,
            payload: lying,
        };
        assert!(Request::parse(&frame).is_err());
    }

    #[test]
    fn answer_bitset_round_trips() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000] {
            let answers: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let payload = encode_answers(&answers);
            assert_eq!(payload.len(), 4 + n.div_ceil(8));
            assert_eq!(decode_answers(&payload).expect("decode"), answers);
        }
        assert!(
            decode_answers(&[1, 0, 0, 0]).is_err(),
            "missing bitset byte"
        );
    }

    #[test]
    fn error_frames_round_trip() {
        let payload = encode_error(error_code::UNKNOWN_TENANT, "no such tenant: x");
        let (code, message) = decode_error(&payload).expect("decode");
        assert_eq!(code, error_code::UNKNOWN_TENANT);
        assert_eq!(message, "no such tenant: x");
        assert!(decode_error(&[]).is_err());
    }

    #[test]
    fn busy_payload_carries_a_retry_hint() {
        let payload = encode_busy(25, "connection limit reached");
        let parts = decode_error_parts(&payload).expect("decode");
        assert_eq!(parts.code, error_code::BUSY);
        assert_eq!(parts.retry_after_ms, Some(25));
        assert_eq!(parts.message, "connection limit reached");
        // The plain decode strips the hint byte from the message.
        let (code, message) = decode_error(&payload).expect("decode");
        assert_eq!(code, error_code::BUSY);
        assert_eq!(message, "connection limit reached");
        // Non-BUSY codes carry no hint; their message starts right
        // after the code byte.
        let parts =
            decode_error_parts(&encode_error(error_code::BAD_FRAME, "nope")).expect("decode");
        assert_eq!(parts.retry_after_ms, None);
        assert_eq!(parts.message, "nope");
        // A legacy BUSY payload without the hint byte still decodes.
        let parts = decode_error_parts(&[error_code::BUSY]).expect("decode");
        assert_eq!((parts.retry_after_ms, parts.message.as_str()), (None, ""));
    }

    #[test]
    fn assembler_pops_frames_across_arbitrary_splits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame_type::QUERY, b"first-payload").expect("write");
        write_frame(&mut wire, frame_type::PING, b"").expect("write");
        write_frame(&mut wire, frame_type::FEEDBACK, &[0xAB; 300]).expect("write");

        // Feed the byte stream one byte at a time: every frame must pop
        // exactly once, exactly when its last byte arrives.
        for chunk in [1usize, 2, 3, 7, wire.len()] {
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                asm.feed(piece);
                while let Some(frame) = asm.next_frame().expect("decode") {
                    frames.push(frame);
                }
            }
            assert_eq!(frames.len(), 3, "chunk size {chunk}");
            assert_eq!(frames[0].kind, frame_type::QUERY);
            assert_eq!(frames[0].payload, b"first-payload");
            assert_eq!(frames[1].kind, frame_type::PING);
            assert_eq!(frames[2].payload.len(), 300);
            assert!(!asm.mid_frame(), "chunk size {chunk} left residue");
        }
    }

    #[test]
    fn assembler_header_damage_is_typed_and_partial_is_mid_frame() {
        let mut asm = FrameAssembler::new();
        asm.feed(b"ZZ");
        // Two bytes are not yet a header: no verdict either way.
        assert!(asm.next_frame().expect("need more").is_none());
        assert!(asm.mid_frame());
        asm.feed(&[0u8; 6]);
        assert!(matches!(asm.next_frame(), Err(WireError::BadMagic(_))));

        // An adversarial length is refused at header time, before any
        // payload bytes accumulate.
        let mut asm = FrameAssembler::new();
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        header.push(frame_type::QUERY);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        asm.feed(&header);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized(_))));

        // A valid header with a missing payload stays pending.
        let mut asm = FrameAssembler::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, frame_type::PING, b"full-payload").expect("write");
        asm.feed(&wire[..wire.len() - 1]);
        assert!(asm.next_frame().expect("need more").is_none());
        assert!(asm.mid_frame());
        asm.feed(&wire[wire.len() - 1..]);
        let frame = asm.next_frame().expect("decode").expect("frame");
        assert_eq!(frame.payload, b"full-payload");
        assert!(!asm.mid_frame());
    }

    #[test]
    fn append_frame_matches_write_frame_and_answers_append_matches_encode() {
        let mut written = Vec::new();
        write_frame(&mut written, frame_type::STATS, b"tenant-x").expect("write");
        let mut appended = Vec::new();
        append_frame(&mut appended, frame_type::STATS, b"tenant-x").expect("append");
        assert_eq!(written, appended);

        let oversized = vec![0u8; MAX_PAYLOAD + 1];
        let mut out = Vec::new();
        assert!(append_frame(&mut out, frame_type::QUERY, &oversized).is_err());
        assert!(out.is_empty(), "no partial frame on error");

        for n in [0usize, 1, 9, 513] {
            let answers: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
            let mut direct = Vec::new();
            append_answers_frame(&mut direct, &answers);
            let mut via_payload = Vec::new();
            write_frame(
                &mut via_payload,
                frame_type::ANSWERS,
                &encode_answers(&answers),
            )
            .expect("write");
            assert_eq!(direct, via_payload, "n = {n}");
        }
    }
}
