//! Delta frames: sparse, quantization-floored partition updates.
//!
//! A sender that knows what a receiver already holds (its *shadow* of the
//! receiver's view) need not retransmit the whole partition every
//! iteration — only the entries that moved. A [`DeltaFrame`] is the sparse
//! encoding of that difference: `(index, new_value)` pairs over the
//! partition flattened to scalar lanes. Entries carry **absolute** new
//! values, not increments, so a duplicated frame re-applies idempotently
//! and a later full-state keyframe supersedes any number of lost frames.
//!
//! The *quantization floor* trades bandwidth for bounded error: an entry is
//! suppressed while `|current − shadow| ≤ floor`, so the receiver's copy of
//! any lane never strays more than `floor` from the sender's truth. Because
//! the diff is always taken against the shadow (what the receiver actually
//! holds), suppression error never accumulates across iterations. A floor
//! of exactly `0.0` compares *bit patterns* instead, making the delta
//! stream lossless: it reproduces the full broadcast bit-for-bit, including
//! `-0.0`/`NaN` transitions an epsilon test would miss.

use crate::codec::WireCodec;
use crate::types::WireSize;

/// A sparse partition update: absolute new values for the scalar lanes
/// that changed past the quantization floor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaFrame {
    /// `(lane index, new value)` pairs, ascending by index.
    pub entries: Vec<(u32, f64)>,
}

impl DeltaFrame {
    /// An empty frame (nothing moved past the floor).
    pub fn new() -> Self {
        DeltaFrame::default()
    }

    /// Number of entries carried.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no lane moved past the floor.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Diff `current` against `baseline` into this frame (clearing any
    /// previous contents), keeping entries whose change exceeds `floor`.
    ///
    /// With `floor == 0.0` the comparison is on bit patterns, so the frame
    /// captures *every* representational change (`-0.0`, `NaN` payloads)
    /// and replaying it reconstructs `current` exactly. Both slices must
    /// have the same length — the partition layout is fixed for a run.
    pub fn diff_into(&mut self, current: &[f64], baseline: &[f64], floor: f64) {
        assert_eq!(
            current.len(),
            baseline.len(),
            "delta diff requires a fixed lane layout"
        );
        self.entries.clear();
        if floor == 0.0 {
            for (i, (c, b)) in current.iter().zip(baseline).enumerate() {
                if c.to_bits() != b.to_bits() {
                    self.entries.push((i as u32, *c));
                }
            }
        } else {
            for (i, (c, b)) in current.iter().zip(baseline).enumerate() {
                if (c - b).abs() > floor {
                    self.entries.push((i as u32, *c));
                }
            }
        }
    }

    /// Convenience wrapper allocating a fresh frame.
    #[cfg(test)]
    pub(crate) fn diff(current: &[f64], baseline: &[f64], floor: f64) -> Self {
        let mut f = DeltaFrame::new();
        f.diff_into(current, baseline, floor);
        f
    }

    /// Apply this frame to `target` in place. Idempotent: entries are
    /// absolute values, so applying twice is the same as applying once.
    /// Lane indices are the sender's word: an entry past the end of
    /// `target` is skipped, never indexed.
    pub fn apply(&self, target: &mut [f64]) {
        for &(i, v) in &self.entries {
            if let Some(slot) = target.get_mut(i as usize) {
                *slot = v;
            }
        }
    }
}

impl WireSize for DeltaFrame {
    fn wire_size(&self) -> usize {
        self.entries.wire_size()
    }
}

impl WireCodec for DeltaFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(DeltaFrame {
            entries: Vec::<(u32, f64)>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_exact, encode_to_vec, encoded_len_matches_wire_size};

    #[test]
    fn zero_floor_diff_reconstructs_bit_exactly() {
        let base = vec![1.0, -0.0, 2.5, f64::NAN, 4.0];
        let mut cur = base.clone();
        cur[1] = 0.0; // -0.0 -> +0.0: equal under ==, different bits
        cur[2] = 2.5000001;
        cur[3] = 7.0;
        let frame = DeltaFrame::diff(&cur, &base, 0.0);
        assert_eq!(frame.len(), 3);
        let mut rebuilt = base.clone();
        frame.apply(&mut rebuilt);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt), bits(&cur));
    }

    #[test]
    fn floor_suppresses_small_changes_and_bounds_error() {
        let base = vec![1.0; 8];
        let cur: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 0.01).collect();
        let frame = DeltaFrame::diff(&cur, &base, 0.035);
        // Lanes 0..=3 moved by ≤ 0.03 → suppressed; 4..=7 exceed the floor.
        assert_eq!(
            frame.entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
        let mut rebuilt = base.clone();
        frame.apply(&mut rebuilt);
        for (r, c) in rebuilt.iter().zip(&cur) {
            assert!((r - c).abs() <= 0.035, "suppression error above the floor");
        }
    }

    #[test]
    fn identical_states_produce_an_empty_frame() {
        let xs = vec![1.0, 2.0, 3.0];
        assert!(DeltaFrame::diff(&xs, &xs, 0.0).is_empty());
        assert!(DeltaFrame::diff(&xs, &xs, 0.5).is_empty());
    }

    #[test]
    fn apply_is_idempotent() {
        let base = vec![0.0; 4];
        let cur = vec![1.0, 0.0, 3.0, 0.0];
        let frame = DeltaFrame::diff(&cur, &base, 0.0);
        let mut once = base.clone();
        frame.apply(&mut once);
        let mut twice = once.clone();
        frame.apply(&mut twice);
        assert_eq!(once, twice);
    }

    #[test]
    fn apply_skips_lanes_past_the_end() {
        let frame = DeltaFrame {
            entries: vec![(1, 5.0), (3, 9.0), (u32::MAX, 7.0)],
        };
        let mut target = vec![0.0; 3];
        frame.apply(&mut target);
        assert_eq!(target, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn codec_roundtrip_and_size_model_agree() {
        let frame = DeltaFrame {
            entries: vec![(0, 1.5), (7, -2.25), (1000, f64::MIN_POSITIVE)],
        };
        assert!(encoded_len_matches_wire_size(&frame));
        let bytes = encode_to_vec(&frame);
        assert_eq!(bytes.len(), 8 + 3 * 12);
        let back: DeltaFrame = decode_exact(&bytes).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn diff_into_reuses_the_allocation() {
        let mut frame = DeltaFrame::new();
        frame.diff_into(&[1.0, 2.0], &[0.0, 2.0], 0.0);
        assert_eq!(frame.entries, vec![(0, 1.0)]);
        frame.diff_into(&[1.0, 2.0], &[1.0, 2.0], 0.0);
        assert!(frame.is_empty());
    }
}
