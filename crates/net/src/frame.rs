//! Length-delimited binary framing.
//!
//! Every message — data or control — travels as one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"DGS1"
//!      4     1  version      protocol version (currently 1)
//!      5     1  msg_type     see [`MsgType`]
//!      6     2  worker_id    u16 LE (0 on frames where it is meaningless)
//!      8     4  seq          u32 LE per-worker update sequence (0 = none)
//!     12     4  payload_len  u32 LE
//!     16     4  crc32        u32 LE, CRC-32 (IEEE) of the payload bytes
//!     20     …  payload
//! ```
//!
//! The header is exactly [`HEADER_BYTES`] = 20 bytes — the same constant
//! `dgs_core::protocol` charges per message in the simulated wire
//! accounting, asserted at compile time below so the simulated and real
//! byte counts can never drift.
//!
//! Reading is strictly bounded: the declared payload length is validated
//! against the caller's maximum *before* any buffer is sized by it, the
//! body is read through a `Take` of exactly that length (never past the
//! frame), and a CRC mismatch or bad magic is an error, never a panic.
//!
//! A frame lives in one buffer per hop. Sending: [`begin_frame`] leaves a
//! header placeholder, the codec appends the body, [`finish_frame`] CRCs
//! the body where it lies and patches the header in — the buffer handed to
//! the socket is the one the body was encoded into. Receiving:
//! [`read_frame_into`] and [`FrameDecoder::fill_from`] read the payload
//! straight from the socket into the buffer the decoder then parses.

use crate::crc::crc32;
use crate::error::{NetError, NetResult};
use crate::msg::HEADER_BYTES;
use dgs_tensor::BufferPool;
use std::io::{ErrorKind, Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"DGS1";

/// Protocol version spoken by this build.
pub const VERSION: u8 = 1;

/// Header length in bytes; must equal the simulated accounting's
/// [`HEADER_BYTES`].
pub const HEADER_LEN: usize = 20;

// The wire header and the simulated per-message overhead are the same
// number by construction; a drift is a compile error.
const _: () = assert!(HEADER_LEN == HEADER_BYTES, "frame header must match HEADER_BYTES");

/// Frame discriminator. Data frames (`Up*`/`Down*`) carry training
/// payloads and are charged to the data byte counters; everything else is
/// control traffic (handshake, heartbeats, shutdown, errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Worker→server dense update (ASGD uplink).
    UpDense = 0x01,
    /// Worker→server sparse Top-k update (GD-async / DGC-async / DGS).
    UpSparse = 0x02,
    /// Worker→server ternary-quantized sparse update (§6 extension).
    UpTernary = 0x03,
    /// Worker→server resynchronisation request (after a lost reply the
    /// worker's model no longer matches the server's `v_k`; the server
    /// answers with a dense model and resets its tracking).
    Resync = 0x04,
    /// Server→worker dense model (ASGD downlink, or a resync reply).
    DownDense = 0x11,
    /// Server→worker sparse model difference (MDT downlink).
    DownSparse = 0x12,
    /// Worker→server handshake: version (header), dim, applied count, θ0
    /// checksum.
    Hello = 0x21,
    /// Server→worker handshake acknowledgement; mirrors [`MsgType::Hello`].
    HelloAck = 0x22,
    /// Worker→span-server cluster handshake: span coordinates, partition
    /// layout hash, and the per-span θ0 checksum. A span server refuses a
    /// plain [`MsgType::Hello`] and a plain server refuses this, so a
    /// mis-wired topology fails at connect time rather than corrupting θ.
    ClusterHello = 0x23,
    /// Span-server→worker cluster handshake acknowledgement; echoes the
    /// validated coordinates and carries the full encoded partition map.
    ClusterHelloAck = 0x24,
    /// Worker→server liveness probe while waiting on a slow reply.
    Heartbeat = 0x31,
    /// Server→worker liveness answer.
    HeartbeatAck = 0x32,
    /// Worker→server graceful end-of-run. The byte stream is ordered, so
    /// any in-flight update was already drained before this arrives.
    Shutdown = 0x41,
    /// Server→worker shutdown acknowledgement.
    ShutdownAck = 0x42,
    /// Either direction: fatal condition description (UTF-8 payload).
    Error = 0x51,
}

impl MsgType {
    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<MsgType> {
        Some(match b {
            0x01 => MsgType::UpDense,
            0x02 => MsgType::UpSparse,
            0x03 => MsgType::UpTernary,
            0x04 => MsgType::Resync,
            0x11 => MsgType::DownDense,
            0x12 => MsgType::DownSparse,
            0x21 => MsgType::Hello,
            0x22 => MsgType::HelloAck,
            0x23 => MsgType::ClusterHello,
            0x24 => MsgType::ClusterHelloAck,
            0x31 => MsgType::Heartbeat,
            0x32 => MsgType::HeartbeatAck,
            0x41 => MsgType::Shutdown,
            0x42 => MsgType::ShutdownAck,
            0x51 => MsgType::Error,
            _ => return None,
        })
    }

    /// True for frames carrying training payloads (counted as data bytes).
    pub fn is_data(self) -> bool {
        matches!(
            self,
            MsgType::UpDense
                | MsgType::UpSparse
                | MsgType::UpTernary
                | MsgType::DownDense
                | MsgType::DownSparse
        )
    }

    /// True for worker→server frames.
    pub fn is_up(self) -> bool {
        matches!(
            self,
            MsgType::UpDense
                | MsgType::UpSparse
                | MsgType::UpTernary
                | MsgType::Resync
                | MsgType::Hello
                | MsgType::ClusterHello
                | MsgType::Heartbeat
                | MsgType::Shutdown
        )
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version from the wire.
    pub version: u8,
    /// Message discriminator.
    pub msg_type: MsgType,
    /// Sending/addressed worker id.
    pub worker: u16,
    /// Per-worker update sequence number (0 when not applicable).
    pub seq: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// A received frame: its header and its CRC-checked payload.
pub type Frame = (FrameHeader, Vec<u8>);

/// Starts a frame in the buffer it will travel in: clears `buf` and leaves
/// the header's [`HEADER_LEN`] bytes as a placeholder. The caller appends
/// the body behind it and [`finish_frame`] fills the header in, so a frame
/// is written once — never assembled in one buffer and copied into another.
/// Connections reuse one buffer across sends: it grows to the largest frame
/// ever sent and stays there, and nothing of an earlier frame survives the
/// `clear`.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; HEADER_LEN]);
}

/// Completes a frame begun by [`begin_frame`]: CRCs the body
/// (`buf[HEADER_LEN..]`) where it lies and writes the header in front of
/// it. A body whose length does not fit the u32 header field is refused
/// with [`NetError::TooLarge`] rather than silently truncated.
pub fn finish_frame(buf: &mut [u8], msg_type: MsgType, worker: u16, seq: u32) -> NetResult<()> {
    let Some((head, body)) = buf.split_first_chunk_mut::<HEADER_LEN>() else {
        return Err(NetError::Malformed("frame buffer shorter than its header"));
    };
    let len = u32::try_from(body.len())
        .map_err(|_| NetError::TooLarge { what: "frame payload", len: body.len() })?;
    // One array literal, mirroring `parse_header`'s destructure: the field
    // offsets live in one pattern and no byte is reached by indexing.
    let [m0, m1, m2, m3] = MAGIC;
    let [w0, w1] = worker.to_le_bytes();
    let [s0, s1, s2, s3] = seq.to_le_bytes();
    let [l0, l1, l2, l3] = len.to_le_bytes();
    let [c0, c1, c2, c3] = crc32(body).to_le_bytes();
    // dgs::allow(no-truncating-cast): repr(u8) enum discriminant, value-preserving by construction
    let ty = msg_type as u8;
    *head = [m0, m1, m2, m3, VERSION, ty, w0, w1, s0, s1, s2, s3, l0, l1, l2, l3, c0, c1, c2, c3];
    Ok(())
}

/// Encodes a complete frame around an already-encoded `payload` (control
/// frames: handshakes, error reasons, the empty payload). The encoded
/// length is exactly `HEADER_LEN + payload.len()`.
pub fn encode_frame_into(
    buf: &mut Vec<u8>,
    msg_type: MsgType,
    worker: u16,
    seq: u32,
    payload: &[u8],
) -> NetResult<()> {
    begin_frame(buf);
    buf.extend_from_slice(payload);
    finish_frame(buf, msg_type, worker, seq)
}

/// Encodes a complete frame (header + payload) into a fresh buffer.
pub fn encode_frame(
    msg_type: MsgType,
    worker: u16,
    seq: u32,
    payload: &[u8],
) -> NetResult<Vec<u8>> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, msg_type, worker, seq, payload)?;
    Ok(buf)
}

/// Writes one frame; returns the exact number of bytes put on the wire.
/// Header and payload go down in a single `write_all` so a frame is never
/// split across two syscalls by this layer.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg_type: MsgType,
    worker: u16,
    seq: u32,
    payload: &[u8],
) -> NetResult<usize> {
    let frame = encode_frame(msg_type, worker, seq, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Parses a 20-byte header buffer (magic/version/type validation only —
/// the CRC is checked against the body by [`read_frame`]).
pub fn parse_header(raw: &[u8; HEADER_LEN]) -> NetResult<FrameHeader> {
    // Irrefutable destructure of the fixed-size header: field offsets
    // live in one pattern and no byte is reached by indexing.
    let [m0, m1, m2, m3, version, ty, w0, w1, s0, s1, s2, s3, l0, l1, l2, l3, c0, c1, c2, c3] =
        *raw;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    if version != VERSION {
        return Err(NetError::BadVersion(version));
    }
    let msg_type = MsgType::from_u8(ty).ok_or(NetError::BadMsgType(ty))?;
    Ok(FrameHeader {
        version,
        msg_type,
        worker: u16::from_le_bytes([w0, w1]),
        seq: u32::from_le_bytes([s0, s1, s2, s3]),
        len: u32::from_le_bytes([l0, l1, l2, l3]),
        crc: u32::from_le_bytes([c0, c1, c2, c3]),
    })
}

/// Reads one frame's payload into a caller-owned buffer (cleared first)
/// and returns its header. `max_payload` bounds the declared length
/// *before* the buffer is grown to hold it. A clean EOF at a frame
/// boundary is [`NetError::Closed`]; EOF mid-frame is an I/O error
/// (truncation). After any error `payload` holds no usable bytes.
///
/// The payload is read straight into the buffer's spare capacity
/// (`Take::read_to_end`: never past the frame's end, no zero-fill of
/// memory the socket is about to overwrite), so a connection that keeps
/// its buffer across frames neither allocates nor touches a byte twice.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_payload: usize,
    payload: &mut Vec<u8>,
) -> NetResult<FrameHeader> {
    payload.clear();
    let mut raw = [0u8; HEADER_LEN];
    // First byte distinguishes clean close from truncation.
    let mut got = 0usize;
    while got < HEADER_LEN {
        // The loop bound keeps this `Some`; get_mut() keeps the wire
        // path free of panic sites even against a misbehaving reader.
        let Some(dst) = raw.get_mut(got..) else { break };
        match r.read(dst) {
            Ok(0) if got == 0 => return Err(NetError::Closed),
            Ok(0) => {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // With nothing consumed, a timeout is clean: the caller can
            // heartbeat and come back. Mid-header, the peer has stalled
            // and retrying would desynchronise the stream — fail hard.
            Err(e) if got == 0 => return Err(NetError::Io(e)),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "peer stalled inside frame header",
                )))
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let header = parse_header(&raw)?;
    let len = checked_len(&header, max_payload)?;
    payload.reserve(len);
    // `read_to_end` retries `Interrupted` itself and stops at the limit or
    // at EOF, whichever comes first.
    match r.by_ref().take(u64::from(header.len)).read_to_end(payload) {
        Ok(n) if n == len => {}
        Ok(_) => {
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "eof inside frame payload",
            )))
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            return Err(NetError::Io(std::io::Error::new(
                ErrorKind::TimedOut,
                "peer stalled inside frame payload",
            )))
        }
        Err(e) => return Err(NetError::Io(e)),
    }
    check_crc(&header, payload)?;
    Ok(header)
}

/// [`read_frame_into`] a fresh buffer.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> NetResult<Frame> {
    let mut payload = Vec::new();
    let header = read_frame_into(r, max_payload, &mut payload)?;
    Ok((header, payload))
}

/// The declared payload length as a `usize`, refused when it exceeds the
/// receiver's ceiling — checked before any buffer is sized by it.
fn checked_len(header: &FrameHeader, max_payload: usize) -> NetResult<usize> {
    let len = usize::try_from(header.len)
        .map_err(|_| NetError::Malformed("declared length exceeds address space"))?;
    if len > max_payload {
        return Err(NetError::Oversized { len, max: max_payload });
    }
    Ok(len)
}

/// CRC gate shared by every completion path (the empty payload included).
fn check_crc(header: &FrameHeader, payload: &[u8]) -> NetResult<()> {
    let actual = crc32(payload);
    if actual != header.crc {
        return Err(NetError::BadCrc { expected: header.crc, actual });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// incremental decoding

/// Decoder progress between [`FrameDecoder::advance`] calls.
enum DecodeState {
    /// Accumulating the fixed-size header.
    Header {
        /// Header bytes received so far.
        buf: [u8; HEADER_LEN],
        /// How many of `buf`'s bytes are filled.
        got: usize,
    },
    /// Header parsed and validated; accumulating `len` payload bytes
    /// (`buf.len()` tracks progress).
    Payload {
        /// The already-validated header.
        header: FrameHeader,
        /// `header.len` as a checked `usize` (validated ≤ `max_payload`).
        len: usize,
        /// Payload bytes received so far, in a buffer taken from the pool.
        buf: Vec<u8>,
    },
    /// A previous `advance` returned an error. The stream offset is no
    /// longer known, so resynchronising is impossible — every further
    /// call errors until the connection is torn down.
    Poisoned,
}

/// Incremental, push-based counterpart of [`read_frame`]: feed it byte
/// slices as they arrive from a nonblocking socket and it hands back
/// complete frames. Decoding decisions are identical to [`read_frame`] —
/// magic/version/type validated as soon as the header completes, the
/// declared length checked against `max_payload` *before* the payload
/// buffer is sized by it, and the CRC verified over the full payload
/// (including the empty one). Errors, never panics, on hostile input;
/// after an error the decoder is poisoned and refuses further bytes, so a
/// desynchronised stream cannot be misparsed as fresh frames.
///
/// Payload buffers come from the caller's [`BufferPool`] and leave the
/// decoder only inside a CRC-valid frame; the caller hands them back once
/// the frame is decoded. A buffer held when the decoder is poisoned or
/// dropped mid-frame is freed, never pooled.
pub struct FrameDecoder {
    max_payload: usize,
    state: DecodeState,
}

impl FrameDecoder {
    /// A decoder accepting payloads up to `max_payload` bytes.
    pub fn new(max_payload: usize) -> Self {
        FrameDecoder { max_payload, state: DecodeState::Header { buf: [0; HEADER_LEN], got: 0 } }
    }

    /// True when the decoder sits exactly on a frame boundary — an EOF
    /// here is a clean close, anywhere else it is truncation.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, DecodeState::Header { got: 0, .. })
    }

    /// Consumes a prefix of `input` and returns `(consumed, frame)`. A
    /// non-empty `input` always consumes at least one byte (or errors),
    /// so draining a buffer with a `while` loop over the unconsumed tail
    /// terminates. At most one frame is returned per call; call again
    /// with the remaining bytes for the next one. An empty `input`
    /// completes a payload that [`Self::fill_from`] has just filled.
    pub fn advance(
        &mut self,
        input: &[u8],
        pool: &mut BufferPool<u8>,
    ) -> NetResult<(usize, Option<Frame>)> {
        let step = self.step(input, pool);
        if step.is_err() {
            self.state = DecodeState::Poisoned;
        }
        step
    }

    /// One [`Self::advance`] step; the caller poisons the decoder on `Err`.
    fn step(
        &mut self,
        input: &[u8],
        pool: &mut BufferPool<u8>,
    ) -> NetResult<(usize, Option<Frame>)> {
        match &mut self.state {
            DecodeState::Poisoned => {
                Err(NetError::Malformed("frame decoder poisoned by an earlier error"))
            }
            DecodeState::Header { buf, got } => {
                let take = input.len().min(HEADER_LEN - *got);
                // Both sub-slices exist by construction of `take`;
                // get()-style access keeps this panic-free regardless.
                if let (Some(dst), Some(src)) =
                    (buf.get_mut(*got..*got + take), input.get(..take))
                {
                    dst.copy_from_slice(src);
                }
                *got += take;
                if *got < HEADER_LEN {
                    return Ok((take, None));
                }
                let header = parse_header(buf)?;
                let len = checked_len(&header, self.max_payload)?;
                if len == 0 {
                    // Zero-payload frames complete with the header; the
                    // CRC still has to cover the empty payload.
                    check_crc(&header, &[])?;
                    self.state = DecodeState::Header { buf: [0; HEADER_LEN], got: 0 };
                    return Ok((take, Some((header, Vec::new()))));
                }
                // Best fit, so a small frame does not take (and a hostile
                // length does not grow) the buffer a large frame will want
                // next; `len` was just checked against `max_payload`, so a
                // fresh allocation is bounded by the caller's ceiling.
                let buf = pool.acquire_fit(len).unwrap_or_else(|| Vec::with_capacity(len));
                self.state = DecodeState::Payload { header, len, buf };
                Ok((take, None))
            }
            DecodeState::Payload { header, len, buf } => {
                let take = input.len().min(len.saturating_sub(buf.len()));
                buf.extend_from_slice(input.get(..take).unwrap_or_default());
                if buf.len() < *len {
                    return Ok((take, None));
                }
                check_crc(header, buf)?;
                let frame = (*header, std::mem::take(buf));
                self.state = DecodeState::Header { buf: [0; HEADER_LEN], got: 0 };
                Ok((take, Some(frame)))
            }
        }
    }

    /// Direct fill: while a payload is incomplete, reads from `r` straight
    /// into the payload buffer's unfilled tail — never past the frame's
    /// end, with no scratch buffer in between — and returns what `read`
    /// would (`Ok(0)` is EOF; a nonblocking `r` may report `WouldBlock`
    /// after part of what it had was stored, which is kept). Returns
    /// `None` when no payload bytes are wanted: between frames, inside a
    /// header, after poisoning. Once this returns `Ok`, `advance(&[], ..)`
    /// yields the frame if it is complete.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> Option<std::io::Result<usize>> {
        let DecodeState::Payload { len, buf, .. } = &mut self.state else { return None };
        let need = len.saturating_sub(buf.len());
        if need == 0 {
            return None;
        }
        let need = u64::try_from(need).unwrap_or(u64::MAX);
        Some(r.by_ref().take(need).read_to_end(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn header_is_exactly_header_bytes() {
        // The layout: 4 magic + 1 version + 1 type + 2 worker + 4 seq +
        // 4 len + 4 crc.
        assert_eq!(4 + 1 + 1 + 2 + 4 + 4 + 4, HEADER_LEN);
        assert_eq!(HEADER_LEN, HEADER_BYTES);
        let frame = encode_frame(MsgType::Heartbeat, 0, 0, &[]).unwrap();
        assert_eq!(frame.len(), HEADER_LEN);
    }

    #[test]
    fn roundtrip_with_payload() {
        let payload = b"some bytes".to_vec();
        let frame = encode_frame(MsgType::UpSparse, 7, 42, &payload).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let (h, body) = read_frame(&mut Cursor::new(&frame), 1024).unwrap();
        assert_eq!(h.msg_type, MsgType::UpSparse);
        assert_eq!(h.worker, 7);
        assert_eq!(h.seq, 42);
        assert_eq!(h.len as usize, payload.len());
        assert_eq!(body, payload);
    }

    #[test]
    fn golden_header_bytes() {
        // Pin the exact layout so accidental field reorders fail loudly.
        let frame = encode_frame(MsgType::UpDense, 0x0102, 0x0304_0506, b"\x09").unwrap();
        assert_eq!(&frame[0..4], b"DGS1");
        assert_eq!(frame[4], 1); // version
        assert_eq!(frame[5], 0x01); // UpDense
        assert_eq!(&frame[6..8], &[0x02, 0x01]); // worker LE
        assert_eq!(&frame[8..12], &[0x06, 0x05, 0x04, 0x03]); // seq LE
        assert_eq!(&frame[12..16], &[0x01, 0x00, 0x00, 0x00]); // len LE
        assert_eq!(&frame[16..20], &crate::crc::crc32(b"\x09").to_le_bytes());
        assert_eq!(frame[20], 0x09);
    }

    #[test]
    fn in_place_encode_reuses_a_dirty_buffer_without_leaking_it() {
        let payload = b"a payload longer than the next frame's".to_vec();
        let mut buf = vec![0xAA; 4096];
        encode_frame_into(&mut buf, MsgType::UpSparse, 3, 17, &payload).unwrap();
        let mut plain = Vec::new();
        let n = write_frame(&mut plain, MsgType::UpSparse, 3, 17, &payload).unwrap();
        assert_eq!((n, &plain), (buf.len(), &buf));

        // A second, smaller frame in the same buffer carries nothing of the
        // first and does not move the allocation.
        let cap = buf.capacity();
        encode_frame_into(&mut buf, MsgType::Heartbeat, 0, 0, &[]).unwrap();
        assert_eq!(buf, encode_frame(MsgType::Heartbeat, 0, 0, &[]).unwrap());
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(buf.capacity(), cap);

        // The split form: placeholder, body appended by the caller, header
        // patched over the placeholder last.
        begin_frame(&mut buf);
        buf.extend_from_slice(&payload);
        finish_frame(&mut buf, MsgType::UpSparse, 3, 17).unwrap();
        assert_eq!(buf, plain);
        // Without its placeholder a buffer is refused, not indexed into.
        assert!(finish_frame(&mut [0u8; HEADER_LEN - 1], MsgType::Heartbeat, 0, 0).is_err());
    }

    #[test]
    fn read_frame_into_reuses_the_callers_buffer() {
        let big = encode_frame(MsgType::DownDense, 1, 1, &[7u8; 1000]).unwrap();
        let small = encode_frame(MsgType::UpSparse, 1, 2, b"tiny").unwrap();
        let stream = [big, small].concat();
        let mut cursor = Cursor::new(&stream);
        let mut payload = vec![0xAA; 16];
        let h = read_frame_into(&mut cursor, 1024, &mut payload).unwrap();
        assert_eq!((h.msg_type, payload.as_slice()), (MsgType::DownDense, &[7u8; 1000][..]));
        let cap = payload.capacity();
        let h = read_frame_into(&mut cursor, 1024, &mut payload).unwrap();
        assert_eq!((h.msg_type, payload.as_slice()), (MsgType::UpSparse, &b"tiny"[..]));
        assert_eq!(payload.capacity(), cap, "the small frame lands in the big frame's buffer");
        assert!(matches!(read_frame_into(&mut cursor, 1024, &mut payload), Err(NetError::Closed)));
        // An oversized declaration is refused before the buffer grows.
        let mut forged = encode_frame(MsgType::UpDense, 0, 1, &[0u8; 8]).unwrap();
        forged[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame_into(&mut Cursor::new(&forged), 1 << 20, &mut payload).unwrap_err();
        assert!(matches!(err, NetError::Oversized { .. }), "{err}");
        assert_eq!(payload.capacity(), cap);
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut Cursor::new(empty), 64), Err(NetError::Closed)));
    }

    #[test]
    fn truncated_header_and_payload_error() {
        let frame = encode_frame(MsgType::DownSparse, 1, 1, b"payload").unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN, frame.len() - 1] {
            let err = read_frame(&mut Cursor::new(&frame[..cut]), 64).unwrap_err();
            assert!(
                matches!(err, NetError::Io(_)),
                "cut {cut} should be a truncation error, got {err}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(MsgType::Hello, 0, 0, &[]).unwrap();
        frame[0] = b'X';
        assert!(matches!(read_frame(&mut Cursor::new(&frame), 64), Err(NetError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut frame = encode_frame(MsgType::Hello, 0, 0, &[]).unwrap();
        frame[4] = 99;
        assert!(matches!(read_frame(&mut Cursor::new(&frame), 64), Err(NetError::BadVersion(99))));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut frame = encode_frame(MsgType::Hello, 0, 0, &[]).unwrap();
        frame[5] = 0x7F;
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame), 64),
            Err(NetError::BadMsgType(0x7F))
        ));
    }

    #[test]
    fn oversized_len_rejected_before_allocation() {
        let mut frame = encode_frame(MsgType::UpDense, 0, 1, &[0u8; 8]).unwrap();
        // Forge a 4 GiB-ish declared length; read_frame must refuse based
        // on the cap alone, without attempting the allocation.
        frame[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&frame), 1 << 20).unwrap_err();
        assert!(matches!(err, NetError::Oversized { .. }), "{err}");
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut frame = encode_frame(MsgType::DownDense, 3, 9, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert!(matches!(read_frame(&mut Cursor::new(&frame), 64), Err(NetError::BadCrc { .. })));
    }

    #[test]
    fn msg_type_roundtrip_and_classes() {
        for ty in [
            MsgType::UpDense,
            MsgType::UpSparse,
            MsgType::UpTernary,
            MsgType::Resync,
            MsgType::DownDense,
            MsgType::DownSparse,
            MsgType::Hello,
            MsgType::HelloAck,
            MsgType::ClusterHello,
            MsgType::ClusterHelloAck,
            MsgType::Heartbeat,
            MsgType::HeartbeatAck,
            MsgType::Shutdown,
            MsgType::ShutdownAck,
            MsgType::Error,
        ] {
            assert_eq!(MsgType::from_u8(ty as u8), Some(ty));
        }
        assert_eq!(MsgType::from_u8(0x00), None);
        assert!(MsgType::UpDense.is_data() && MsgType::UpDense.is_up());
        assert!(MsgType::DownSparse.is_data() && !MsgType::DownSparse.is_up());
        assert!(!MsgType::Hello.is_data() && MsgType::Hello.is_up());
        assert!(!MsgType::HelloAck.is_up());
        assert!(!MsgType::ClusterHello.is_data() && MsgType::ClusterHello.is_up());
        assert!(!MsgType::ClusterHelloAck.is_data() && !MsgType::ClusterHelloAck.is_up());
    }

    // -- FrameDecoder (incremental path) ------------------------------------

    /// A stream of three frames covering empty, small, and multi-KB
    /// payloads — the decoder-test workload.
    fn sample_stream() -> (Vec<u8>, Vec<(MsgType, Vec<u8>)>) {
        let specs = vec![
            (MsgType::Heartbeat, Vec::new()),
            (MsgType::UpSparse, b"tiny payload".to_vec()),
            (MsgType::DownDense, (0..4096u32).flat_map(|i| i.to_le_bytes()).collect()),
        ];
        let mut stream = Vec::new();
        for (i, (ty, payload)) in specs.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(*ty, i as u16, i as u32, payload).unwrap());
        }
        (stream, specs)
    }

    type Frames = Vec<Frame>;

    /// Drains `input` through the decoder in chunks produced by `next`,
    /// returning the decoded frames. Payload buffers are kept (not handed
    /// back to `pool`) so the caller can inspect them.
    fn drain_chunked(
        dec: &mut FrameDecoder,
        pool: &mut BufferPool<u8>,
        input: &[u8],
        mut next: impl FnMut(usize) -> usize,
    ) -> NetResult<Frames> {
        let mut frames = Vec::new();
        let mut off = 0;
        while off < input.len() {
            let chunk_end = (off + next(off).max(1)).min(input.len());
            let mut chunk = &input[off..chunk_end];
            while !chunk.is_empty() {
                let (n, frame) = dec.advance(chunk, pool)?;
                assert!(n > 0, "non-empty input must consume bytes");
                chunk = &chunk[n..];
                frames.extend(frame);
            }
            off = chunk_end;
        }
        Ok(frames)
    }

    /// The evented connection's read loop in miniature: the first `split`
    /// bytes arrive through `advance`; from there on, whenever a payload is
    /// pending the reader fills it directly and otherwise `scratch`-sized
    /// reads go through `advance`. Each frame's payload goes back to
    /// `pool` after being copied out, as `Conn::feed` does.
    fn drain_direct(
        dec: &mut FrameDecoder,
        pool: &mut BufferPool<u8>,
        input: &[u8],
        split: usize,
        scratch: usize,
    ) -> NetResult<Frames> {
        fn keep(frames: &mut Frames, pool: &mut BufferPool<u8>, frame: Option<Frame>) {
            if let Some((h, payload)) = frame {
                frames.push((h, payload.clone()));
                pool.release(payload);
            }
        }
        let mut frames = Vec::new();
        let (mut head, mut rest) = input.split_at(split.min(input.len()));
        while !head.is_empty() {
            let (n, frame) = dec.advance(head, pool)?;
            head = &head[n..];
            keep(&mut frames, pool, frame);
        }
        let mut buf = vec![0u8; scratch];
        loop {
            let (read, direct) = match dec.fill_from(&mut rest) {
                Some(read) => (read.unwrap(), true),
                None => (rest.read(&mut buf).unwrap(), false),
            };
            if read == 0 {
                return Ok(frames);
            }
            let mut fresh = if direct { &[][..] } else { &buf[..read] };
            loop {
                let (n, frame) = dec.advance(fresh, pool)?;
                fresh = &fresh[n..];
                let done = frame.is_none();
                keep(&mut frames, pool, frame);
                if done && fresh.is_empty() {
                    break;
                }
            }
        }
    }

    #[test]
    fn decoder_byte_at_a_time_matches_read_frame() {
        let (stream, specs) = sample_stream();
        let mut pool = BufferPool::new(2);
        let mut dec = FrameDecoder::new(MAX_TEST_PAYLOAD);
        let frames = drain_chunked(&mut dec, &mut pool, &stream, |_| 1).unwrap();
        assert!(dec.is_idle());
        assert_eq!(frames.len(), specs.len());
        let mut cursor = Cursor::new(&stream);
        for (frame, (ty, payload)) in frames.iter().zip(&specs) {
            assert_eq!(frame.0.msg_type, *ty);
            assert_eq!(&frame.1, payload);
            let (h, body) = read_frame(&mut cursor, MAX_TEST_PAYLOAD).unwrap();
            assert_eq!((h, body), (frame.0, frame.1.clone()));
        }
    }

    const MAX_TEST_PAYLOAD: usize = 1 << 20;

    #[test]
    fn decoder_random_splits_match_one_shot() {
        let (stream, specs) = sample_stream();
        // Deterministic xorshift so every CI run feeds the same splits.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check = |frames: &Frames| {
            assert_eq!(frames.len(), specs.len());
            for (frame, (ty, payload)) in frames.iter().zip(&specs) {
                assert_eq!(frame.0.msg_type, *ty);
                assert_eq!(&frame.1, payload);
            }
        };
        let mut pool = BufferPool::new(2);
        for _ in 0..50 {
            let mut dec = FrameDecoder::new(MAX_TEST_PAYLOAD);
            let frames =
                drain_chunked(&mut dec, &mut pool, &stream, |_| (rng() % 977) as usize + 1)
                    .unwrap();
            assert!(dec.is_idle());
            check(&frames);
            // The same stream with the tail read by direct fill, through a
            // pool whose buffers have already carried other frames.
            let split = (rng() % stream.len() as u64) as usize;
            let frames =
                drain_direct(&mut dec, &mut pool, &stream, split, (rng() % 61) as usize + 1)
                    .unwrap();
            assert!(dec.is_idle());
            check(&frames);
        }
    }

    /// Direct fill against the one-shot reader at *every* split offset:
    /// wherever the hand-over from pushed bytes to direct reads falls —
    /// inside a header, on a frame boundary, inside a payload — the frames
    /// are the ones `read_frame` yields, and a read never runs past the
    /// end of its frame into the next one.
    #[test]
    fn direct_fill_matches_read_frame_at_every_split() {
        let (stream, _) = sample_stream();
        let mut want = Vec::new();
        let mut cursor = Cursor::new(&stream);
        while let Ok(frame) = read_frame(&mut cursor, MAX_TEST_PAYLOAD) {
            want.push(frame);
        }
        assert_eq!(want.len(), 3);
        let mut pool = BufferPool::new(2);
        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new(MAX_TEST_PAYLOAD);
            let got = drain_direct(&mut dec, &mut pool, &stream, split, 64).unwrap();
            assert!(dec.is_idle(), "split {split}");
            assert_eq!(got, want, "split {split}");
        }
    }

    /// A big frame's buffer, back in the pool, carries the next (small)
    /// frame: same allocation, and not one byte of the big payload shows.
    #[test]
    fn pooled_buffer_carries_a_small_frame_after_a_big_one() {
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let stream = [
            encode_frame(MsgType::DownDense, 0, 1, &big).unwrap(),
            encode_frame(MsgType::UpSparse, 0, 2, b"small").unwrap(),
        ]
        .concat();
        let mut pool = BufferPool::new(2);
        let mut dec = FrameDecoder::new(MAX_TEST_PAYLOAD);
        let mut used = 0;
        let payload = loop {
            let (n, frame) = dec.advance(&stream[used..], &mut pool).unwrap();
            used += n;
            if let Some((_, payload)) = frame {
                break payload;
            }
        };
        assert_eq!(payload, big);
        let (ptr, cap) = (payload.as_ptr(), payload.capacity());
        pool.release(payload);
        let retained = pool.retained_bytes();
        let frames = drain_direct(&mut dec, &mut pool, &stream[used..], HEADER_LEN, 8).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, b"small");
        assert_eq!(pool.retained_bytes(), retained, "the pool neither grew nor lost the buffer");
        let again = pool.acquire();
        assert_eq!((again.as_ptr(), again.capacity(), again.len()), (ptr, cap, 0));
    }

    #[test]
    fn decoder_mid_header_truncation_is_not_idle() {
        let frame = encode_frame(MsgType::UpSparse, 1, 1, b"abc").unwrap();
        let mut pool = BufferPool::new(2);
        for cut in 1..frame.len() {
            let mut dec = FrameDecoder::new(64);
            let got = drain_chunked(&mut dec, &mut pool, &frame[..cut], |_| 7).unwrap();
            assert!(got.is_empty(), "cut {cut} must not yield a frame");
            assert!(!dec.is_idle(), "cut {cut} leaves the decoder mid-frame");
        }
    }

    /// Flip one bit at every offset of an encoded frame. The decoder must
    /// never panic; payload- or CRC-byte corruption must fail the CRC;
    /// frames that do decode may differ from the original only in the
    /// fields the CRC does not cover (worker, seq). Pushed bytes and
    /// direct fill must agree on all of it, and neither may hand a buffer
    /// that carried a corrupt payload back to the pool.
    #[test]
    fn decoder_survives_corruption_at_every_offset() {
        let payload = b"corruptible payload bytes".to_vec();
        let clean = encode_frame(MsgType::UpSparse, 3, 9, &payload).unwrap();
        for offset in 0..clean.len() {
            let mut bad = clean.clone();
            bad[offset] ^= 0x40;
            for direct in [false, true] {
                let mut pool = BufferPool::new(2);
                let mut dec = FrameDecoder::new(64);
                let drained = if direct {
                    drain_direct(&mut dec, &mut pool, &bad, HEADER_LEN, 3)
                } else {
                    drain_chunked(&mut dec, &mut pool, &bad, |_| 3)
                };
                match drained {
                    Ok(frames) => {
                        for (_h, body) in frames {
                            // The CRC covers only the payload, so a frame that
                            // still decodes may differ in type/worker/seq — but
                            // its payload must be untouched, and magic/version/
                            // len corruption can never slip through (it errors
                            // or starves the payload instead).
                            assert_eq!(body, payload, "offset {offset}");
                            assert!(
                                (5..12).contains(&offset),
                                "offset {offset} decoded despite covered-byte corruption"
                            );
                        }
                    }
                    Err(e) => {
                        // Payload and CRC corruption must be caught as a CRC
                        // mismatch specifically.
                        if offset >= HEADER_LEN || (16..20).contains(&offset) {
                            assert!(
                                matches!(e, NetError::BadCrc { .. }),
                                "offset {offset}: expected BadCrc, got {e}"
                            );
                        }
                        // Poisoned: further feeding errors instead of
                        // resynchronising on garbage, direct fill wants
                        // nothing, and the corrupt buffer was freed.
                        assert!(dec.advance(&clean, &mut pool).is_err());
                        assert!(dec.fill_from(&mut &clean[..]).is_none());
                        assert_eq!(pool.idle(), 0, "offset {offset}");
                    }
                }
            }
        }
    }

    #[test]
    fn decoder_rejects_oversized_length_before_allocation() {
        let mut frame = encode_frame(MsgType::UpDense, 0, 1, &[0u8; 8]).unwrap();
        frame[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut pool = BufferPool::new(2);
        pool.release(Vec::with_capacity(64));
        let retained = pool.retained_bytes();
        let mut dec = FrameDecoder::new(1 << 20);
        let err = drain_chunked(&mut dec, &mut pool, &frame, |_| 5).unwrap_err();
        assert!(matches!(err, NetError::Oversized { .. }), "{err}");
        assert_eq!(pool.retained_bytes(), retained, "no pooled buffer was taken for it");
        // And the poisoned decoder refuses clean bytes afterwards.
        let clean = encode_frame(MsgType::Heartbeat, 0, 0, &[]).unwrap();
        assert!(dec.advance(&clean, &mut pool).is_err());
    }

    #[test]
    fn decoder_zero_payload_frames_complete_on_header() {
        let mut stream = encode_frame(MsgType::Heartbeat, 2, 0, &[]).unwrap();
        stream.extend_from_slice(&encode_frame(MsgType::Shutdown, 2, 0, &[]).unwrap());
        let mut pool = BufferPool::new(2);
        let mut dec = FrameDecoder::new(0);
        let frames = drain_chunked(&mut dec, &mut pool, &stream, |_| 2).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0.msg_type, MsgType::Heartbeat);
        assert_eq!(frames[1].0.msg_type, MsgType::Shutdown);
        assert!(dec.is_idle());
    }
}
