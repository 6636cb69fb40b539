//! ASCII rendering of per-rank phase timelines — the quick-look
//! counterpart of the Chrome-trace export, for terminals and tests.

use crate::event::{EventKind, Mark, Phase};
use crate::trace::RunTrace;

fn glyph(phase: Phase) -> char {
    match phase {
        Phase::Compute => '#',
        Phase::CommWait => '.',
        Phase::Speculate => 's',
        Phase::Check => 'c',
        Phase::Correct => 'x',
    }
}

/// Overlay glyph for a fault mark, with priority: crash/recovery beats a
/// drop when both land in one cell. `None` for non-fault marks.
fn fault_glyph(mark: Mark) -> Option<(char, u8)> {
    match mark {
        Mark::MessageDropped { .. } => Some(('D', 1)),
        Mark::PeerCrashed { .. } => Some(('K', 3)),
        Mark::PeerRecovered { .. } => Some(('R', 2)),
        Mark::PeerSuspected { .. } => Some(('?', 1)),
        Mark::PeerQuarantined { .. } => Some(('Q', 2)),
        Mark::PeerRejoined { .. } => Some(('J', 2)),
        _ => None,
    }
}

/// Render per-rank phase bars over a common time axis, `width` cells wide.
///
/// Each cell shows the phase that occupied the most time within its time
/// slice (blank if no phase was active). Fault marks — drops, crashes,
/// recoveries — overlay their cell with `D`/`K`/`R`. A legend and the time
/// extent are appended; fault glyphs join the legend only when present, so
/// fault-free renders are unchanged.
pub fn render(traces: &[RunTrace], width: usize) -> String {
    let width = width.max(10);
    let end_ns = traces.iter().map(RunTrace::end_ns).max().unwrap_or(0);
    let mut out = String::new();
    if end_ns == 0 {
        out.push_str("(empty trace)\n");
        return out;
    }
    let mut any_faults = false;
    for trace in traces {
        // Per-cell occupancy: time each phase spent inside the cell.
        let mut cells: Vec<[u64; 5]> = vec![[0; 5]; width];
        for span in trace.spans() {
            let p = Phase::ALL.iter().position(|q| *q == span.phase).unwrap();
            // Distribute the span over the cells it overlaps.
            let first = (span.start_ns as u128 * width as u128 / end_ns as u128) as usize;
            let last =
                (span.end_ns.saturating_sub(1) as u128 * width as u128 / end_ns as u128) as usize;
            let last = last.min(width - 1);
            for (cell, slot) in cells.iter_mut().enumerate().take(last + 1).skip(first) {
                let cell_lo = (cell as u128 * end_ns as u128 / width as u128) as u64;
                let cell_hi = ((cell + 1) as u128 * end_ns as u128 / width as u128) as u64;
                let lo = span.start_ns.max(cell_lo);
                let hi = span.end_ns.min(cell_hi);
                if hi > lo {
                    slot[p] += hi - lo;
                }
            }
        }
        // Fault marks overlay the phase bar.
        let mut overlay: Vec<Option<(char, u8)>> = vec![None; width];
        for ev in &trace.events {
            if let EventKind::Mark(m) = ev.kind {
                if let Some((g, prio)) = fault_glyph(m) {
                    any_faults = true;
                    let cell = (ev.t_ns.min(end_ns.saturating_sub(1)) as u128 * width as u128
                        / end_ns as u128) as usize;
                    let cell = cell.min(width - 1);
                    let wins = match overlay[cell] {
                        None => true,
                        Some((_, p)) => p < prio,
                    };
                    if wins {
                        overlay[cell] = Some((g, prio));
                    }
                }
            }
        }
        out.push_str(&format!("rank {:>2} |", trace.rank));
        for (i, cell) in cells.iter().enumerate() {
            if let Some((g, _)) = overlay[i] {
                out.push(g);
                continue;
            }
            let best = (0..5).max_by_key(|i| cell[*i]).unwrap();
            out.push(if cell[best] == 0 {
                ' '
            } else {
                glyph(Phase::ALL[best])
            });
        }
        out.push_str("|\n");
    }
    let fault_legend = if any_faults {
        " D=drop K=crash R=recover ?=suspect Q=quarantine J=rejoin"
    } else {
        ""
    };
    out.push_str(&format!(
        "legend: #=compute .=comm_wait s=speculate c=check x=correct{}   span: 0..{:.3} ms\n",
        fault_legend,
        end_ns as f64 / 1e6
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn renders_dominant_phase_per_cell() {
        let mut r = Vec::new();
        // Rank 0: first half compute, second half waiting.
        r.span_begin(0, 0, Phase::Compute, None, None);
        r.span_end(0, 500, Phase::Compute);
        r.span_begin(0, 500, Phase::CommWait, None, None);
        r.span_end(0, 1000, Phase::CommWait);
        let traces = RunTrace::split_by_rank(r);
        let text = render(&traces, 10);
        let line = text.lines().next().unwrap();
        assert_eq!(line, "rank  0 |#####.....|");
        assert!(text.contains("legend:"));
    }

    #[test]
    fn empty_trace_is_handled() {
        assert!(render(&[], 40).contains("empty"));
    }

    #[test]
    fn fault_marks_overlay_the_bar_and_extend_the_legend() {
        let mut r = Vec::new();
        r.span_begin(0, 0, Phase::Compute, None, None);
        r.mark(0, 250, Mark::MessageDropped { to: 1, bytes: 64 });
        r.mark(0, 500, Mark::PeerCrashed { peer: 0 });
        r.mark(0, 750, Mark::PeerRecovered { peer: 0 });
        r.span_end(0, 1000, Phase::Compute);
        let traces = RunTrace::split_by_rank(r);
        let text = render(&traces, 10);
        let bar = text.lines().next().unwrap();
        assert_eq!(bar, "rank  0 |##D##K#R##|");
        assert!(text.contains("D=drop K=crash R=recover"));
    }

    #[test]
    fn fault_free_render_keeps_the_plain_legend() {
        let mut r = Vec::new();
        r.span_begin(0, 0, Phase::Compute, None, None);
        r.span_end(0, 1000, Phase::Compute);
        let traces = RunTrace::split_by_rank(r);
        let text = render(&traces, 10);
        assert!(
            text.contains("x=correct   span:"),
            "no fault legend: {text}"
        );
    }

    #[test]
    fn idle_time_stays_blank() {
        let mut r = Vec::new();
        r.span_begin(0, 800, Phase::Check, None, None);
        r.span_end(0, 1000, Phase::Check);
        let traces = RunTrace::split_by_rank(r);
        let line = render(&traces, 10);
        let bar = line.lines().next().unwrap();
        assert_eq!(bar, "rank  0 |        cc|");
    }
}
