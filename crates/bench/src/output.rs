//! Output helpers for the `figs` binary: CSV series and aligned tables,
//! so each figure prints the same rows/series the paper reports, plus the
//! per-run observability files under `results/<experiment>/`.

use crate::RunMetrics;
use mpichgq_sim::TimeSeries;

/// Print a `(t, value)` series as CSV with a header.
pub fn print_series(title: &str, value_label: &str, s: &TimeSeries) {
    println!("# {title}");
    println!("time_s,{value_label}");
    print!("{}", s.to_csv());
}

/// Print a sweep family: one CSV block per row key.
pub fn print_sweep(
    title: &str,
    row_label: &str,
    col_label: &str,
    value_label: &str,
    rows: &[(u32, Vec<(f64, f64)>)],
) {
    println!("# {title}");
    println!("{row_label},{col_label},{value_label}");
    for (key, pts) in rows {
        for (x, y) in pts {
            println!("{key},{x:.0},{y:.1}");
        }
    }
}

/// Print an aligned table from header + rows of strings.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write an experiment's registry snapshot to
/// `results/<experiment>/metrics.json` (relative to the invocation
/// directory, like the `results/*.txt` series the figures print).
pub fn write_metrics(experiment: &str, metrics_json: &str) {
    write_json(experiment, "metrics", metrics_json);
}

/// Write a run's observability files under `results/<experiment>/`:
/// `metrics.json`, then `trace.json` when `trace` is set (the
/// packet-lifecycle Chrome trace; `qtrace` summarizes it, and it is
/// gitignored), then `timeline.json` when the run was sampled (`qtop`
/// summarizes it).
pub fn write_run(experiment: &str, run: &RunMetrics, trace: bool) {
    write_metrics(experiment, &run.metrics_json);
    if trace {
        write_json(experiment, "trace", &run.trace_json);
    }
    if let Some(doc) = &run.timeline_json {
        write_json(experiment, "timeline", doc);
    }
}

/// Write `results/<experiment>/<name>.json`, echoing the path on stderr so
/// figure logs stay clean CSV.
fn write_json(experiment: &str, name: &str, doc: &str) {
    let dir = std::path::Path::new("results").join(experiment);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("# {name}: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
