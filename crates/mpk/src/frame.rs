//! The socket backend's wire format: frame constants, the in-place
//! [`FrameReader`], exact-length [`read_frame`], [`encode_frame`], and the
//! one handshake frame, `RESUME`. The format itself is described in the
//! `socket` module's documentation.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Wire protocol version carried in every frame header.
pub(crate) const WIRE_VERSION: u8 = 1;
// Kind 0 is the retired cold-start `HELLO`. Do not reuse it: an old
// build's handshake must stay a refused frame.
/// Data frame: `src`/`tag` are the envelope fields, payload a
/// [`WireCodec`](crate::WireCodec) encoding of the message.
pub(crate) const KIND_DATA: u8 = 1;
/// Supervisor liveness probe: empty payload, never delivered to the
/// application — it only refreshes the receiver's last-heard clock.
pub(crate) const KIND_HEARTBEAT: u8 = 2;
/// Clean-shutdown notice written by
/// [`SocketTransport`](crate::SocketTransport)'s `Drop` so an orderly exit
/// is not mistaken for a crash.
pub(crate) const KIND_GOODBYE: u8 = 3;
/// The handshake, at cold start and on every reconnect: payload is the
/// sender's cluster size (`u32`) and last-seen iteration (`u64`); the
/// accepting side replies in kind.
pub(crate) const KIND_RESUME: u8 = 4;
/// Bytes of header inside the length-counted region (version + kind +
/// src + tag).
pub(crate) const FRAME_HEADER: usize = 10;
/// Total framing overhead per message on the wire (length prefix plus
/// header).
pub(crate) const FRAME_OVERHEAD: usize = 4 + FRAME_HEADER;
/// Default upper bound on a frame's length prefix; anything larger is
/// treated as a corrupt stream, not an allocation request.
pub(crate) const DEFAULT_MAX_FRAME: usize = 256 << 20;

/// Size a connection's receive buffer starts at, and stays at unless a
/// single frame is larger.
pub(crate) const READ_BUF: usize = 16 << 10;

pub(crate) fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// The `N` bytes of `bytes` starting at `at`, or `None` if it is too
/// short. Every fixed-width field a peer supplies — frame header,
/// handshake payload — is read through here, so a short buffer is a
/// `None` to handle, never a slice or conversion that can panic.
pub(crate) fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..)?.first_chunk::<N>().copied()
}

/// One frame borrowed from a [`FrameReader`]'s buffer:
/// `(kind, src, tag, payload)`.
pub(crate) type FrameRef<'a> = (u8, u32, u32, &'a [u8]);

/// The read half of one connection: a buffer filled by single `read`s and
/// parsed in place.
///
/// The buffer grows — doubling from [`READ_BUF`] — only when it is full of
/// bytes that have arrived and still holds no complete frame; a length
/// prefix alone, however large, allocates nothing.
pub(crate) struct FrameReader<R> {
    pub(crate) src: R,
    pub(crate) buf: Vec<u8>,
    /// `buf[start..end]` holds the bytes received and not yet popped.
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(src: R) -> Self {
        FrameReader {
            src,
            buf: Vec::new(),
            start: 0,
            end: 0,
        }
    }

    /// One `read` of at most `limit` bytes into the buffer's free tail.
    /// `Ok(0)` is EOF.
    pub(crate) fn read_some(&mut self, limit: usize) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let grown = (2 * self.buf.len()).max(READ_BUF);
                self.buf.resize(grown, 0);
            }
        }
        let room = (self.buf.len() - self.end).min(limit);
        let tail = &mut self.buf[self.end..self.end + room];
        let got = loop {
            match self.src.read(tail) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                other => break other?,
            }
        };
        self.end += got;
        Ok(got)
    }

    /// How many more bytes the frame at the front of the buffer needs:
    /// 0 when it is complete. A length prefix outside
    /// `FRAME_HEADER..=max_frame` is an error — the stream cannot be
    /// resynchronized.
    pub(crate) fn missing(&self, max_frame: usize) -> std::io::Result<usize> {
        let have = &self.buf[self.start..self.end];
        let Some(prefix) = le_bytes(have, 0) else {
            return Ok(4 - have.len());
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if !(FRAME_HEADER..=max_frame).contains(&len) {
            return Err(bad_data(format!(
                "frame length {len} out of bounds (cap {max_frame})"
            )));
        }
        Ok((4 + len).saturating_sub(have.len()))
    }

    /// Take the frame at the front of the buffer, if all of it has
    /// arrived. Errors as [`FrameReader::missing`], and on a wrong wire
    /// version.
    pub(crate) fn pop(&mut self, max_frame: usize) -> std::io::Result<Option<FrameRef<'_>>> {
        if self.missing(max_frame)? > 0 {
            return Ok(None);
        }
        let Some(header) = le_bytes::<FRAME_OVERHEAD>(&self.buf[self.start..self.end], 0) else {
            return Ok(None);
        };
        let [l0, l1, l2, l3, version, kind, s0, s1, s2, s3, t0, t1, t2, t3] = header;
        if version != WIRE_VERSION {
            return Err(bad_data(format!(
                "wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        let payload = self.start + FRAME_OVERHEAD;
        // In bounds: `missing` returned 0 for this length.
        self.start += 4 + u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        Ok(Some((
            kind,
            u32::from_le_bytes([s0, s1, s2, s3]),
            u32::from_le_bytes([t0, t1, t2, t3]),
            &self.buf[payload..self.start],
        )))
    }
}

/// One decoded frame: `(kind, src, tag, payload)`.
pub(crate) type Frame = (u8, u32, u32, Vec<u8>);

/// Read one frame and not a byte beyond it — the handshake's read, which
/// must leave the first data frame in the socket. `Ok(None)` on a clean
/// EOF at a frame boundary; any malformed header — including a declared
/// length above `max_frame` — is an error.
pub(crate) fn read_frame<R: Read>(
    stream: &mut R,
    max_frame: usize,
) -> std::io::Result<Option<Frame>> {
    let mut reader = FrameReader::new(stream);
    loop {
        let missing = reader.missing(max_frame)?;
        if missing == 0 {
            let frame = reader.pop(max_frame)?;
            return Ok(frame.map(|(kind, src, tag, payload)| (kind, src, tag, payload.to_vec())));
        }
        if reader.read_some(missing)? == 0 {
            return match reader.end {
                0 => Ok(None),
                _ => Err(ErrorKind::UnexpectedEof.into()),
            };
        }
    }
}

/// Encode a frame into `out` (cleared first).
pub(crate) fn encode_frame(
    out: &mut Vec<u8>,
    kind: u8,
    src: u32,
    tag: u32,
    payload: &dyn Fn(&mut Vec<u8>),
) {
    out.clear();
    out.extend_from_slice(&[0; 4]); // length, patched below
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&src.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    payload(out);
    let len = (out.len() - 4) as u32;
    out[0..4].copy_from_slice(&len.to_le_bytes());
}

/// Write a RESUME handshake frame carrying cluster size and our
/// last-seen iteration.
pub(crate) fn write_resume(
    stream: &mut TcpStream,
    rank: usize,
    size: usize,
    last_iter: u64,
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_OVERHEAD + 12);
    encode_frame(&mut frame, KIND_RESUME, rank as u32, 0, &|out| {
        out.extend_from_slice(&(size as u32).to_le_bytes());
        out.extend_from_slice(&last_iter.to_le_bytes());
    });
    stream.write_all(&frame)
}

/// Read and validate a `RESUME`, returning the peer's rank and its
/// reported last-seen iteration. The payload must be exactly the cluster
/// size then the iteration: a shorter one is not padded with zeros, a
/// longer one is not trimmed, and any other kind — the retired `HELLO`
/// included — is refused.
pub(crate) fn read_resume<R: Read>(stream: &mut R, size: usize) -> std::io::Result<(usize, u64)> {
    let (kind, src, _tag, payload) = read_frame(stream, DEFAULT_MAX_FRAME)?.ok_or_else(|| {
        std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed during handshake")
    })?;
    let fields = match (kind, payload.len()) {
        (KIND_RESUME, 12) => le_bytes(&payload, 0).zip(le_bytes(&payload, 4)),
        _ => None,
    };
    let Some((peer_size, last_iter)) = fields else {
        return Err(bad_data(format!(
            "expected RESUME, got frame kind {kind} with a {}-byte payload",
            payload.len()
        )));
    };
    let (peer_size, peer) = (u32::from_le_bytes(peer_size) as usize, src as usize);
    if peer_size != size {
        return Err(bad_data(format!(
            "peer believes cluster size is {peer_size}, ours is {size}"
        )));
    }
    if peer >= size {
        return Err(bad_data(format!(
            "peer rank {peer} out of range for size {size}"
        )));
    }
    Ok((peer, u64::from_le_bytes(last_iter)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        // A hostile 3.9 GiB length prefix must surface as InvalidData
        // from read_frame, never reach the allocator.
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = l.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&0xEFFF_FFFFu32.to_le_bytes()).unwrap();
            s.write_all(&[0u8; 32]).unwrap();
            s
        });
        // The writer keeps its end open: without a deadline a reader that
        // waits for the declared bytes would hang the test, not fail it.
        let bounded = |l: &TcpListener| {
            let (conn, _) = l.accept().unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            conn
        };
        let mut conn = bounded(&l);
        let err = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // A tight per-cluster cap rejects even modest frames.
        let l2 = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr2 = l2.local_addr().unwrap();
        let w2 = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr2).unwrap();
            let mut frame = Vec::new();
            encode_frame(&mut frame, KIND_DATA, 0, 0, &|out| {
                out.extend_from_slice(&[7u8; 1024]);
            });
            s.write_all(&frame).unwrap();
            s
        });
        let mut conn2 = bounded(&l2);
        let err2 = read_frame(&mut conn2, 128).unwrap_err();
        assert_eq!(err2.kind(), ErrorKind::InvalidData);
        drop(writer.join().unwrap());
        drop(w2.join().unwrap());
    }

    /// One frame as it travels.
    pub(crate) fn wire(frame: &Frame) -> Vec<u8> {
        let (kind, src, tag, payload) = frame;
        let mut out = Vec::new();
        encode_frame(&mut out, *kind, *src, *tag, &|out| {
            out.extend_from_slice(payload)
        });
        out
    }

    /// A stream that delivers `wire` in reads of the given sizes (cycled),
    /// then EOF.
    struct Chunked {
        wire: Vec<u8>,
        at: usize,
        chunks: Vec<usize>,
        turn: usize,
        /// The largest buffer any one `read` was handed.
        asked: usize,
    }

    impl Chunked {
        fn new(wire: Vec<u8>, chunks: Vec<usize>) -> Self {
            Chunked {
                wire,
                at: 0,
                chunks,
                turn: 0,
                asked: 0,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.asked = self.asked.max(buf.len());
            let chunk = self.chunks[self.turn % self.chunks.len()];
            self.turn += 1;
            let n = chunk.min(buf.len()).min(self.wire.len() - self.at);
            buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// Run a [`FrameReader`] over `stream` to EOF or the first error the
    /// way `drain` does: pop everything complete, then read once more.
    /// Returns the frames, the error if any, and the largest buffer seen.
    pub(crate) fn read_all<R: Read>(stream: R, max_frame: usize) -> (Vec<Frame>, bool, usize) {
        let mut reader = FrameReader::new(stream);
        let mut frames = Vec::new();
        let mut largest = 0;
        loop {
            loop {
                match reader.pop(max_frame) {
                    Ok(Some((kind, src, tag, payload))) => {
                        frames.push((kind, src, tag, payload.to_vec()))
                    }
                    Ok(None) => break,
                    Err(_) => return (frames, true, largest),
                }
            }
            let got = reader.read_some(usize::MAX).unwrap();
            largest = largest.max(reader.buf.len());
            if got == 0 {
                return (frames, false, largest);
            }
        }
    }

    mod frame_reader_props {
        use super::*;
        use proptest::prelude::*;

        /// Mostly small frames, with the occasional one larger than the
        /// initial buffer so growth and compaction are exercised.
        fn frame() -> impl Strategy<Value = Frame> {
            let len = prop_oneof![0usize..48, 0usize..600, 0usize..3 * READ_BUF];
            (any::<u8>(), any::<u32>(), any::<u32>(), len, any::<u8>()).prop_map(
                |(kind, src, tag, len, fill)| {
                    let payload = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    (kind, src, tag, payload)
                },
            )
        }

        fn chunks() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(prop_oneof![1usize..16, 1usize..5000], 1..8)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// However the bytes of a valid stream are split across
            /// reads, the in-place parser yields exactly the frames that
            /// were written — the same frames exact-length `read_frame`
            /// yields on the whole.
            #[test]
            fn any_chunking_yields_the_frames_read_frame_yields(
                frames in proptest::collection::vec(frame(), 0..12),
                chunks in chunks(),
            ) {
                let wire: Vec<u8> = frames.iter().flat_map(wire).collect();
                let mut whole = std::io::Cursor::new(wire.clone());
                let mut reference = Vec::new();
                while let Some(f) = read_frame(&mut whole, DEFAULT_MAX_FRAME).unwrap() {
                    reference.push(f);
                }
                prop_assert_eq!(&reference, &frames);
                let (got, failed, _) = read_all(Chunked::new(wire, chunks), DEFAULT_MAX_FRAME);
                prop_assert!(!failed);
                prop_assert_eq!(&got, &frames);
            }

            /// The handshake reader, on a valid `RESUME`, on the retired
            /// `HELLO` layout (kind 0, or a 4-byte payload), on a frame
            /// with a single field, its payload length or any one byte
            /// changed, and on arbitrary bytes: never a panic, never a
            /// read larger than what arrived, and an accepted frame names
            /// a rank of the cluster and is, byte for byte, the frame the
            /// writer emits for what the reader returned.
            #[test]
            fn handshake_readers_accept_only_exact_frames(
                layout in 0u8..3,
                rank in 0u32..4,
                last_iter in any::<u64>(),
                mutation in 0u8..7,
                (noise8, noise32, noise_at) in (any::<u8>(), any::<u32>(), any::<usize>()),
                junk in proptest::collection::vec(any::<u8>(), 0..64),
                chunks in chunks(),
            ) {
                // Layout 0 is a RESUME; 1 is an old HELLO (kind 0, size
                // only); 2 is a RESUME carrying HELLO's 4-byte payload.
                let (mut kind, mut src, mut size) =
                    (if layout == 1 { 0 } else { KIND_RESUME }, rank, 4u32);
                match mutation {
                    1 => kind = noise8,
                    2 => src = noise32,
                    3 => size = noise32,
                    _ => {}
                }
                let mut payload = size.to_le_bytes().to_vec();
                if layout == 0 {
                    payload.extend_from_slice(&last_iter.to_le_bytes());
                }
                if mutation == 4 {
                    payload.resize(noise_at % 16, 0xA5);
                }
                let mut input = wire(&(kind, src, 0, payload));
                if mutation == 5 {
                    let at = noise_at % input.len();
                    input[at] ^= noise8 | 1;
                }
                let input = if mutation == 6 { junk } else { input };
                let bound = READ_BUF.max(2 * input.len());

                let mut stream = Chunked::new(input.clone(), chunks);
                let resumed = read_resume(&mut stream, 4);
                prop_assert!(stream.asked <= bound);
                if mutation == 0 {
                    let told = (layout == 0).then_some((rank as usize, last_iter));
                    prop_assert_eq!(resumed.as_ref().ok(), told.as_ref());
                }

                if let Ok((peer, iter)) = resumed {
                    prop_assert!(peer < 4);
                    // The tag is carried and ignored; everything else is
                    // pinned by what the reader returned.
                    let tag = u32::from_le_bytes(le_bytes(&input, 10).unwrap());
                    let mut expected = 4u32.to_le_bytes().to_vec();
                    expected.extend_from_slice(&iter.to_le_bytes());
                    let expected = wire(&(KIND_RESUME, peer as u32, tag, expected));
                    prop_assert_eq!(&input[..stream.at], &expected[..]);
                }
            }

            /// Arbitrary bytes never panic the parser, and the buffer
            /// never outgrows what was delivered: a length prefix,
            /// whatever it promises, buys no memory.
            #[test]
            fn arbitrary_bytes_never_panic_or_outgrow_what_arrived(
                junk in proptest::collection::vec(any::<u8>(), 0..3000),
                plausible_len in 10u32..300_000_000,
                chunks in chunks(),
                small_cap in any::<bool>(),
            ) {
                // Half the cases start with a length prefix that passes
                // the range check, so the body path sees junk too.
                let mut wire = junk;
                if wire.len() >= 4 && wire[0] & 1 == 0 {
                    wire[..4].copy_from_slice(&plausible_len.to_le_bytes());
                }
                let delivered = wire.len();
                let max_frame = if small_cap { 1024 } else { DEFAULT_MAX_FRAME };
                let (_, _, largest) = read_all(Chunked::new(wire, chunks), max_frame);
                prop_assert!(largest <= READ_BUF.max(2 * delivered));
            }
        }
    }

    #[test]
    fn truncated_resume_is_refused_not_read_as_iteration_zero() {
        // A RESUME carrying the cluster size and no iteration used to be
        // accepted with `last_iter = 0`, which went into `peer_progress`.
        let mut short =
            std::io::Cursor::new(wire(&(KIND_RESUME, 1, 0, 2u32.to_le_bytes().to_vec())));
        let err = read_resume(&mut short, 2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // Nor is the retired HELLO, which carried exactly that payload.
        let mut hello = std::io::Cursor::new(wire(&(0, 1, 0, 2u32.to_le_bytes().to_vec())));
        let err = read_resume(&mut hello, 2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // Nor does the reader trim a payload that runs on.
        let mut long = 2u32.to_le_bytes().to_vec();
        long.extend_from_slice(&[0; 9]);
        let mut long = std::io::Cursor::new(wire(&(KIND_RESUME, 1, 0, long)));
        let err = read_resume(&mut long, 2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn handshake_read_of_a_declared_giant_frame_reads_into_the_small_buffer() {
        // The handshake's exact-length `read_frame` meets a dialer that
        // declares 200 MiB, sends three bytes and closes. No read may be
        // handed more than the initial buffer: the declared length bought
        // no memory here either.
        let mut wire = (200u32 << 20).to_le_bytes().to_vec();
        wire.extend_from_slice(&[WIRE_VERSION, KIND_RESUME, 0]);
        let mut dialer = Chunked::new(wire, vec![usize::MAX]);
        let err = read_frame(&mut dialer, DEFAULT_MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(dialer.asked <= READ_BUF, "asked for {} bytes", dialer.asked);
    }
}
