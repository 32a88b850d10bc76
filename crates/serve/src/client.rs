//! A small blocking client for the wire protocol: one request, one
//! reply, plus a pipelined batched-query path that keeps many `QUERY`
//! frames in flight on one connection.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{self, frame_type, Frame, WireError};

/// A connected protocol client. Replies are read through one buffer, so
/// a small reply costs one `read` syscall instead of one for its header
/// and one for its payload; requests go out as one `write` per call.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects and applies a read timeout so a dead server cannot
    /// wedge the caller.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, kind: u8, payload: &[u8], want: u8) -> Result<Frame, WireError> {
        // One write per request: with `TCP_NODELAY`, separate header and
        // payload writes would go out as two segments.
        let mut frame = Vec::with_capacity(protocol::HEADER_LEN + payload.len());
        protocol::append_frame(&mut frame, kind, payload)?;
        self.send_raw(&frame)?;
        self.read_reply(want)
    }

    fn read_reply(&mut self, want: u8) -> Result<Frame, WireError> {
        let frame = protocol::read_frame(&mut self.reader)?.ok_or(WireError::Truncated)?;
        if frame.kind == frame_type::ERROR {
            let parts = protocol::decode_error_parts(&frame.payload)?;
            if let Some(retry_after_ms) = parts.retry_after_ms {
                return Err(WireError::Busy {
                    retry_after_ms,
                    message: parts.message,
                });
            }
            return Err(WireError::Server {
                code: parts.code,
                message: parts.message,
            });
        }
        if frame.kind != want {
            return Err(WireError::BadPayload("unexpected reply type"));
        }
        Ok(frame)
    }

    /// Liveness probe: the server must echo `token`.
    ///
    /// # Errors
    /// Wire errors, or [`WireError::BadPayload`] on a wrong echo.
    pub fn ping(&mut self, token: &[u8]) -> Result<(), WireError> {
        let reply = self.call(frame_type::PING, token, frame_type::PONG)?;
        if reply.payload == token {
            Ok(())
        } else {
            Err(WireError::BadPayload("ping echo mismatch"))
        }
    }

    /// One batched membership query; answers come back in key order.
    ///
    /// # Errors
    /// Wire errors; [`WireError::Server`] carries typed server errors
    /// (unknown tenant, malformed frame …).
    pub fn query(
        &mut self,
        tenant: &str,
        keys: &[impl AsRef<[u8]>],
    ) -> Result<Vec<bool>, WireError> {
        let reply = self.call(
            frame_type::QUERY,
            &protocol::encode_query(tenant, keys),
            frame_type::ANSWERS,
        )?;
        let answers = protocol::decode_answers(&reply.payload)?;
        if answers.len() == keys.len() {
            Ok(answers)
        } else {
            Err(WireError::BadPayload("answer count mismatch"))
        }
    }

    /// Pipelines one `QUERY` frame per chunk of `chunk` keys, writing
    /// them all before draining the replies — the client face of the
    /// server's in-order frame loop. Answers return in key order.
    ///
    /// # Errors
    /// As for [`Client::query`].
    pub fn query_pipelined(
        &mut self,
        tenant: &str,
        keys: &[impl AsRef<[u8]>],
        chunk: usize,
    ) -> Result<Vec<bool>, WireError> {
        let chunk = chunk.max(1);
        let mut frames = Vec::new();
        for batch in keys.chunks(chunk) {
            protocol::append_frame(
                &mut frames,
                frame_type::QUERY,
                &protocol::encode_query(tenant, batch),
            )?;
        }
        self.send_raw(&frames)?;
        let mut answers = Vec::with_capacity(keys.len());
        for batch in keys.chunks(chunk) {
            let reply = self.read_reply(frame_type::ANSWERS)?;
            let got = protocol::decode_answers(&reply.payload)?;
            if got.len() != batch.len() {
                return Err(WireError::BadPayload("answer count mismatch"));
            }
            answers.extend(got);
        }
        Ok(answers)
    }

    /// Writes one already-encoded frame without waiting for the reply —
    /// the raw half of a depth-windowed pipeline (pair with
    /// [`Client::recv_answers`]). The caller is responsible for keeping
    /// sends and receives balanced.
    ///
    /// # Errors
    /// I/O failures from the socket write.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.reader.get_mut().write_all(frame)?;
        Ok(())
    }

    /// Flushes any buffered writes.
    ///
    /// # Errors
    /// I/O failures from the socket flush.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.reader.get_mut().flush()?;
        Ok(())
    }

    /// Reads one `ANSWERS` reply — the receive half of a depth-windowed
    /// pipeline over [`Client::send_raw`].
    ///
    /// # Errors
    /// As for [`Client::query`].
    pub fn recv_answers(&mut self) -> Result<Vec<bool>, WireError> {
        let reply = self.read_reply(frame_type::ANSWERS)?;
        protocol::decode_answers(&reply.payload)
    }

    /// Sends FP/miss feedback events; returns the server's accepted
    /// count.
    ///
    /// # Errors
    /// As for [`Client::query`].
    pub fn feedback(
        &mut self,
        tenant: &str,
        events: &[(impl AsRef<[u8]>, f64)],
    ) -> Result<u32, WireError> {
        let reply = self.call(
            frame_type::FEEDBACK,
            &protocol::encode_feedback(tenant, events),
            frame_type::ACK,
        )?;
        let bytes: [u8; 4] = reply
            .payload
            .as_slice()
            .try_into()
            .map_err(|_| WireError::BadPayload("ack payload size"))?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Fetches the tenant's stats JSON line.
    ///
    /// # Errors
    /// As for [`Client::query`].
    pub fn stats(&mut self, tenant: &str) -> Result<String, WireError> {
        let reply = self.call(
            frame_type::STATS,
            &protocol::encode_stats(tenant),
            frame_type::STATS_OK,
        )?;
        String::from_utf8(reply.payload).map_err(|_| WireError::BadPayload("stats not UTF-8"))
    }

    /// Asks the server to rebuild + hot-swap the tenant; returns
    /// `(hints used, new generation)`.
    ///
    /// # Errors
    /// As for [`Client::query`]; refused rebuilds come back as
    /// [`WireError::Server`] with
    /// [`protocol::error_code::REBUILD_FAILED`].
    pub fn rebuild(
        &mut self,
        tenant: &str,
        seed: u64,
        max_hints: u32,
    ) -> Result<(u32, u64), WireError> {
        let reply = self.call(
            frame_type::REBUILD,
            &protocol::encode_rebuild(tenant, seed, max_hints),
            frame_type::REBUILT,
        )?;
        let mut c = protocol::Cursor::new(&reply.payload);
        let hints = c.take_u32()?;
        let generation = c.take_u64()?;
        c.finish()?;
        Ok((hints, generation))
    }

    /// Inserts keys into a growable tenant's live filter; returns
    /// `(accepted, tiers, saturation)` after the insert.
    ///
    /// # Errors
    /// As for [`Client::query`]; a fixed-capacity tenant comes back as
    /// [`WireError::Server`] with
    /// [`protocol::error_code::NOT_GROWABLE`].
    pub fn insert(
        &mut self,
        tenant: &str,
        keys: &[impl AsRef<[u8]>],
    ) -> Result<(u32, u32, f64), WireError> {
        let reply = self.call(
            frame_type::INSERT,
            &protocol::encode_insert(tenant, keys),
            frame_type::INSERT_OK,
        )?;
        protocol::decode_insert_ok(&reply.payload)
    }

    /// Asks the server to stop cleanly. Servers refuse unless started
    /// with shutdown enabled (see `ServerConfig::allow_shutdown`).
    ///
    /// # Errors
    /// [`WireError::Server`] with
    /// [`protocol::error_code::SHUTDOWN_REFUSED`] when not permitted.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.call(frame_type::SHUTDOWN, &[], frame_type::SHUTDOWN_OK)
            .map(|_| ())
    }
}
