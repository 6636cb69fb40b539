//! Binary wire codec for the socket transport.
//!
//! The in-process backends move messages as Rust values; the TCP backend
//! ([`crate::SocketTransport`]) has to put them on a real wire. The
//! workspace has no registry access (so no serde/bincode); this module is
//! the small fixed-layout codec the socket framing uses instead:
//! little-endian fixed-width primitives, `u64` length prefixes for
//! variable-length containers — the same layout [`WireSize`] has always
//! *modelled*, now made real.
//!
//! Decoding is total: any input either yields a value consuming a prefix
//! of the buffer or returns `None`. The frame layer drops undecodable
//! payloads (a corrupted frame behaves like a checksum failure: the
//! message is lost, never garbled into a panic).

use crate::types::WireSize;

/// A value that can be encoded onto / decoded from the socket wire.
///
/// Implementations must round-trip: `decode(encode(x)) == x` with the
/// whole encoding consumed. Containers of zero-sized elements (e.g.
/// `Vec<()>`) are not wire-representable: a length prefix is validated
/// against the bytes that follow it and a zero-sized element contributes
/// none, so only the empty container is sure to round-trip.
pub trait WireCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value from the front of `buf`, advancing it past the
    /// bytes consumed. `None` if the buffer does not hold a valid
    /// encoding.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

/// Split `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

macro_rules! numeric_wire_codec {
    ($($t:ty),*) => {
        $(impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                let raw = take(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(raw.try_into().ok()?))
            }
        })*
    };
}
numeric_wire_codec!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// `usize` travels as `u64` so both sides of a connection agree on the
/// layout regardless of pointer width.
impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(buf)?).ok()
    }
}

impl WireCodec for isize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as i64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        isize::try_from(i64::decode(buf)?).ok()
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None, // corruption, not a bool
        }
    }
}

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(8 + self.len() * std::mem::size_of::<T>());
        (self.len() as u64).encode(out);
        for x in self {
            x.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let mut v = Vec::new();
        decode_elements(buf, &mut v)?;
        Some(v)
    }
}

/// Decode a length-prefixed run of elements onto `v`.
fn decode_elements<T: WireCodec>(buf: &mut &[u8], v: &mut Vec<T>) -> Option<()> {
    let len = usize::decode(buf)?;
    // Every wire-representable element consumes ≥ 1 byte, so a length
    // beyond the remaining buffer is corruption — reject it before
    // allocating.
    if len > buf.len() {
        return None;
    }
    // An element may be far larger in memory than on the wire (an empty
    // `Vec<f64>` is 8 bytes there and 24 here), so reserve only what the
    // remaining bytes could hold and let `v` grow: a frame of N bytes never
    // reserves more than N before its first element has decoded.
    v.reserve_exact(len.min(buf.len() / std::mem::size_of::<T>().max(1)));
    for _ in 0..len {
        v.push(T::decode(buf)?);
    }
    Some(())
}

impl<T: WireCodec, const N: usize> WireCodec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for x in self {
            x.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::decode(buf)?);
        }
        v.try_into().ok()
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(buf)?;
        let raw = take(buf, len)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

/// Like [`WireSize`], an `Arc` is transparent on the wire: the receiver
/// gets its own freshly-allocated copy (sharing is process-local).
impl<T: WireCodec> WireCodec for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        T::decode(buf).map(std::sync::Arc::new)
    }
}

/// Encode `value` into a fresh buffer (convenience for tests and the
/// handshake path; the data path reuses a scratch buffer).
pub fn encode_to_vec<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(value_size_hint(value));
    value.encode(&mut out);
    out
}

fn value_size_hint<T: WireCodec>(_v: &T) -> usize {
    16
}

/// Decode a value that must consume `buf` exactly.
pub fn decode_exact<T: WireCodec>(mut buf: &[u8]) -> Option<T> {
    let v = T::decode(&mut buf)?;
    buf.is_empty().then_some(v)
}

/// Sanity bridge between the model and the wire: for the container and
/// primitive impls above, the real encoding is exactly as long as
/// [`WireSize`] has always claimed. (Asserted in tests; the transports'
/// cost models need only proportionality, but exactness is free here.)
pub fn encoded_len_matches_wire_size<T: WireCodec + WireSize>(value: &T) -> bool {
    encode_to_vec(value).len() == value.wire_size()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_exact(&bytes).expect("round trip");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-5i64);
        round_trip(3.25f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(());
        round_trip(usize::MAX);
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let bits = 0x7ff8_0000_dead_beefu64;
        let bytes = encode_to_vec(&f64::from_bits(bits));
        let back: f64 = decode_exact(&bytes).unwrap();
        assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1.0f64, -2.5, 3.75]);
        round_trip(Vec::<f64>::new());
        round_trip("héllo".to_string());
        round_trip([1u32, 2, 3]);
        round_trip((7u64, 2.5f64));
        round_trip((1u8, 2u8, 3u32));
        round_trip(std::sync::Arc::new(vec![1.0f64, 2.0]));
    }

    #[test]
    fn encoded_len_agrees_with_wire_size_model() {
        assert!(encoded_len_matches_wire_size(&3.5f64));
        assert!(encoded_len_matches_wire_size(&vec![1.0f64; 10]));
        assert!(encoded_len_matches_wire_size(&"abc".to_string()));
        assert!(encoded_len_matches_wire_size(&(1u64, 2.0f64)));
        assert!(encoded_len_matches_wire_size(&std::sync::Arc::new(vec![
            0.5f64; 4
        ])));
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let bytes = encode_to_vec(&vec![1.0f64; 4]);
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert!(
                Vec::<f64>::decode(&mut slice).is_none(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocating() {
        let mut bytes = encode_to_vec(&vec![1.0f64; 2]);
        bytes[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_exact::<Vec<f64>>(&bytes).is_none());
    }

    #[test]
    fn length_prefix_reserves_no_more_than_the_buffer_holds() {
        /// As large in memory as a `Vec<f64>` (24 bytes against
        /// `DeltaFrame`'s 16-byte entries); never decodes, so what `v`
        /// holds afterwards is the up-front reservation alone.
        struct Never(#[allow(dead_code)] [u64; 3]);
        impl WireCodec for Never {
            fn encode(&self, _out: &mut Vec<u8>) {}
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                u8::decode(buf)?;
                None
            }
        }
        // The largest prefix the length check lets through.
        for tail in [1usize, 23, 24, 100, 4096] {
            let mut bytes = encode_to_vec(&(tail as u64));
            bytes.resize(8 + tail, 0);
            let mut v = Vec::<Never>::new();
            assert!(decode_elements(&mut &bytes[..], &mut v).is_none());
            let reserved = v.capacity() * std::mem::size_of::<Never>();
            assert!(reserved <= tail, "{reserved} B reserved for {tail} B");
        }
    }

    #[test]
    fn non_boolean_byte_is_rejected() {
        assert!(decode_exact::<bool>(&[2]).is_none());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = encode_to_vec(&"ab".to_string());
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        assert!(decode_exact::<String>(&bytes).is_none());
    }
}
