//! Common message-passing vocabulary: ranks, tags, envelopes, wire sizes.

/// A process's index within a parallel run (0-based, like an MPI rank or a
/// PVM task position).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(pub usize);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0 + 1) // paper numbers processors from P1
    }
}

/// An application-chosen message tag (protocol channel).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tag(pub u32);

/// A received message together with its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// Sending rank.
    pub src: Rank,
    /// Application tag.
    pub tag: Tag,
    /// The payload.
    pub msg: M,
}

/// Size of a value when serialized onto the wire, used by latency models.
///
/// Implementations should approximate the size a reasonable binary codec
/// would produce; exactness is unnecessary (the network model only needs the
/// right order of magnitude and proportionality).
pub trait WireSize {
    /// Approximate serialized size in bytes, excluding transport headers.
    fn wire_size(&self) -> usize;
}

/// Per-message fixed header overhead charged by transports, roughly a UDP
/// packet header plus PVM-style task routing.
pub const HEADER_BYTES: usize = 64;

/// Per-rank tallies of what the fault layer did to this rank's *sends*.
///
/// Zero everywhere when no fault layer is installed. `delivered` counts
/// messages that reached the destination mailbox at least once; `dropped`
/// counts messages no copy of which arrived (loss, partition, or a crashed
/// destination); `duplicated` counts extra copies beyond the original.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Sends that reached the destination mailbox.
    pub delivered: u64,
    /// Sends the fault layer swallowed entirely.
    pub dropped: u64,
    /// Extra copies injected beyond the originals.
    pub duplicated: u64,
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

macro_rules! primitive_wire_size {
    ($($t:ty),*) => {
        $(impl WireSize for $t {
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}
primitive_wire_size!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        8 + self.iter().map(|x| x.wire_size()).sum::<usize>()
    }
}

impl<T: WireSize, const N: usize> WireSize for [T; N] {
    fn wire_size(&self) -> usize {
        self.iter().map(|x| x.wire_size()).sum()
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size() + self.2.wire_size()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        8 + self.len()
    }
}

/// An `Arc` serializes as its payload: sharing is a process-local
/// optimisation (apps hand out cheap clones of one snapshot), invisible
/// on the wire.
impl<T: WireSize + ?Sized> WireSize for std::sync::Arc<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_displays_one_based() {
        assert_eq!(Rank(0).to_string(), "P1");
        assert_eq!(Rank(15).to_string(), "P16");
    }

    #[test]
    fn vec_size_includes_length_prefix() {
        let v = vec![1.0f64; 10];
        assert_eq!(v.wire_size(), 8 + 80);
    }

    #[test]
    fn string_size() {
        assert_eq!("abc".to_string().wire_size(), 11);
    }

    #[test]
    fn arc_is_transparent_on_the_wire() {
        let v = vec![1.0f64; 10];
        assert_eq!(std::sync::Arc::new(v.clone()).wire_size(), v.wire_size());
    }
}
