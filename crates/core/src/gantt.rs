//! ASCII Gantt rendering of a traced run — a terminal-friendly companion
//! to the Fig. 10/11 series and the VCD export.
//!
//! One row per segment bus and one per producing process, the time axis
//! scaled to a fixed width:
//!
//! ```text
//! Segment 1 |████▌ ▐██▌  ▐█▌     |
//! P0        |▐▌▐▌▐▌              |
//! ```

use segbus_model::ids::SegmentId;
use segbus_model::time::Picos;

use crate::report::EmulationReport;
use crate::trace::TraceKind;

/// Render the run as an ASCII Gantt chart, `width` columns of timeline.
///
/// # Panics
/// Panics if the report was produced without tracing or `width` is zero.
pub fn ascii_gantt(report: &EmulationReport, width: usize) -> String {
    assert!(width > 0, "gantt width must be positive");
    let trace = report
        .trace
        .as_ref()
        .expect("gantt requires a traced run: use EmulatorConfig::traced()");
    let span = report.makespan.0.max(1);
    let col = |t: Picos| (((t.0 as u128) * width as u128) / (span as u128 + 1)) as usize;

    let mut out = String::new();
    let label_w = 10usize;

    // Bus rows.
    for i in 0..report.sas.len() {
        let seg = SegmentId(i as u16);
        let mut row = vec![' '; width];
        for (a, b) in trace.bus_intervals(seg) {
            let (c0, c1) = (col(a), col(b).max(col(a)));
            for cell in row.iter_mut().take((c1 + 1).min(width)).skip(c0) {
                *cell = '#';
            }
        }
        out.push_str(&format!("{:<label_w$}|", seg.to_string()));
        out.extend(row);
        out.push_str("|\n");
    }

    // Producer rows (compute intervals).
    let mut starts: std::collections::HashMap<(u32, u64), Picos> = std::collections::HashMap::new();
    let mut rows: Vec<Vec<char>> = vec![vec![' '; width]; report.fus.len()];
    for e in trace.events() {
        let (Some(p), Some(f), Some(pkg)) = (e.process, e.flow, e.package) else {
            continue;
        };
        match e.kind {
            TraceKind::ComputeStart => {
                starts.insert((f.0, pkg), e.at);
            }
            TraceKind::ComputeEnd => {
                if let Some(a) = starts.remove(&(f.0, pkg)) {
                    let (c0, c1) = (col(a), col(e.at).max(col(a)));
                    let row = &mut rows[p.index()];
                    for cell in row.iter_mut().take((c1 + 1).min(width)).skip(c0) {
                        *cell = '=';
                    }
                }
            }
            _ => {}
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if row.iter().all(|&c| c == ' ') {
            continue; // pure sinks have no compute row
        }
        out.push_str(&format!("{:<label_w$}|", format!("P{i}")));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:<label_w$}|0{:>w$}|\n",
        "time",
        format!("{:.1} us", report.makespan.as_micros_f64()),
        w = width - 1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmulatorConfig;
    use crate::test_support::estimate;

    fn traced_mp3() -> EmulationReport {
        estimate(
            EmulatorConfig::traced(),
            &segbus_apps::mp3::three_segment_psm(),
            1,
        )
    }

    #[test]
    fn rows_cover_segments_and_producers() {
        let g = ascii_gantt(&traced_mp3(), 72);
        assert!(g.contains("Segment 1 |"));
        assert!(g.contains("Segment 3 |"));
        assert!(g.contains("P0        |"));
        // P14 is a pure sink: no compute row.
        assert!(!g.contains("P14       |"));
        assert!(g.contains("time"));
        // All rows share the same width.
        let widths: Vec<usize> = g.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    fn busy_marks_exist_and_fit() {
        let g = ascii_gantt(&traced_mp3(), 40);
        let seg1 = g.lines().next().unwrap();
        assert!(seg1.contains('#'), "{seg1}");
        assert!(seg1.len() <= 10 + 1 + 40 + 1);
    }

    #[test]
    fn early_waves_paint_early_columns() {
        let g = ascii_gantt(&traced_mp3(), 60);
        // P0 computes only in the first waves: its marks sit left of centre.
        let p0 = g.lines().find(|l| l.starts_with("P0 ")).unwrap();
        let body = &p0[11..p0.len() - 1];
        let last_mark = body.rfind('=').unwrap();
        assert!(last_mark < 30, "P0 compute extends to column {last_mark}");
        // P13 computes late: its first mark sits right of centre.
        let p13 = g.lines().find(|l| l.starts_with("P13")).unwrap();
        let body = &p13[11..p13.len() - 1];
        let first_mark = body.find('=').unwrap();
        assert!(first_mark > 30, "P13 starts at column {first_mark}");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = ascii_gantt(&traced_mp3(), 0);
    }
}
