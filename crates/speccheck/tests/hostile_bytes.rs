//! Every byte of a data frame is the sending peer's word. Whatever a frame
//! holds, the three decoders a peer can reach — the N-body and vector
//! `IterMsg`s and a bare `DeltaFrame` — either reject it or return a value
//! whose encoding is exactly the bytes they were given; they never panic.

use mpk::{decode_exact, encode_to_vec, DeltaFrame, WireCodec};
use nbody::PartitionShared;
use proptest::prelude::*;
use speccore::IterMsg;

/// Decode `input` as a `T`; a value that comes back must re-encode to it.
fn decodes_canonically<T: WireCodec>(input: &[u8]) -> bool {
    match decode_exact::<T>(input) {
        Some(v) => {
            assert_eq!(
                encode_to_vec(&v),
                input,
                "decoded value re-encodes differently"
            );
            true
        }
        None => false,
    }
}

fn every_decoder(input: &[u8]) {
    decodes_canonically::<IterMsg<PartitionShared>>(input);
    decodes_canonically::<IterMsg<Vec<f64>>>(input);
    decodes_canonically::<DeltaFrame>(input);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder_and_decode_canonically(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        (l1, l2) in (0usize..5, 0usize..5),
        hit in any::<usize>(),
    ) {
        every_decoder(&noise);

        // Noise alone almost never parses, so also lay the four frame
        // shapes over it: arbitrary stamp and payload bytes behind honest
        // length prefixes. Those must decode.
        let mut src = noise.iter().copied().cycle();
        let mut take = |n: usize| -> Vec<u8> { (0..n).map(|_| src.next().unwrap_or(0)).collect() };
        let len = |n: usize| (n as u64).to_le_bytes().to_vec();
        let mut full_stamp = take(8);
        full_stamp[7] &= 0x7f;
        let mut delta_stamp = full_stamp.clone();
        delta_stamp[7] |= 0x80;

        let vector = [full_stamp.clone(), len(l1), take(8 * l1)].concat();
        let nbody = [full_stamp.clone(), len(l1), take(24 * l1), len(l1), take(24 * l1)].concat();
        let lopsided = [full_stamp, len(l1), take(24 * l1), len(l2), take(24 * l2)].concat();
        let frame = [len(l1), take(12 * l1)].concat();
        let delta = [delta_stamp, frame.clone()].concat();
        assert!(decodes_canonically::<IterMsg<Vec<f64>>>(&vector));
        assert!(decodes_canonically::<IterMsg<PartitionShared>>(&nbody));
        // Positions and velocities of one snapshot have one length.
        assert_eq!(decodes_canonically::<IterMsg<PartitionShared>>(&lopsided), l1 == l2);
        assert!(decodes_canonically::<DeltaFrame>(&frame));
        assert!(decodes_canonically::<IterMsg<Vec<f64>>>(&delta));
        assert!(decodes_canonically::<IterMsg<PartitionShared>>(&delta));

        // One well-formed frame with a byte flipped, cut short, or grown.
        for good in [vector, nbody, frame, delta] {
            every_decoder(&good);
            let at = hit % good.len();
            let mut flipped = good.clone();
            flipped[at] ^= 1 << (hit % 8);
            every_decoder(&flipped);
            every_decoder(&good[..at]);
            every_decoder(&[good, vec![hit as u8]].concat());
        }
    }
}
