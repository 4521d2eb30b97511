//! Shared infrastructure for the benchmark harnesses that regenerate the
//! paper's tables and figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure:
//!
//! | binary | artifact |
//! |---|---|
//! | `table2` | Table II — single-thread scalar AOT vs JIT profile |
//! | `table3` | Table III — dataset statistics |
//! | `table4` | Table IV — execution time and code-generation overhead |
//! | `fig9` | Figure 9 — speedup over the auto-vectorized baseline |
//! | `fig10` | Figure 10 — speedup over the MKL-like baseline |
//! | `fig11` | Figure 11 — memory loads / branches / misses / instructions |
//!
//! Pass `--quick` to any binary to restrict the run to a representative
//! subset of the datasets (one per structural family) with fewer repetitions;
//! the full runs iterate over all 14 Table III stand-ins.

use jitspmm_sparse::datasets::{self, DatasetSpec};
use jitspmm_sparse::{CsrMatrix, DenseMatrix};
use std::time::{Duration, Instant};

/// Command-line configuration shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Run the reduced dataset suite with fewer repetitions.
    pub quick: bool,
    /// Number of timed repetitions per measurement (the paper uses 10).
    pub repetitions: usize,
    /// Worker threads (0 = all hardware threads).
    pub threads: usize,
}

impl HarnessConfig {
    /// Parse the process arguments (`--quick`, `--reps N`, `--threads N`).
    pub fn from_args() -> HarnessConfig {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let repetitions = value_after(&args, "--reps").unwrap_or(if quick { 3 } else { 5 });
        let threads = value_after(&args, "--threads").unwrap_or(0);
        HarnessConfig { quick, repetitions, threads }
    }

    /// The dataset suite selected by this configuration.
    pub fn datasets(&self) -> Vec<DatasetSpec> {
        if self.quick {
            datasets::quick_suite()
        } else {
            datasets::table3()
        }
    }
}

fn value_after(args: &[String], flag: &str) -> Option<usize> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

/// Generate the matrix for `spec`, reporting how long generation took.
pub fn load_dataset(spec: &DatasetSpec) -> (CsrMatrix<f32>, Duration) {
    let start = Instant::now();
    let matrix = spec.generate::<f32>();
    (matrix, start.elapsed())
}

/// A deterministic random dense input of `d` columns for `matrix`.
pub fn dense_input(matrix: &CsrMatrix<f32>, d: usize) -> DenseMatrix<f32> {
    DenseMatrix::random(matrix.ncols(), d, 0xC0FFEE)
}

/// Time `f` over `reps` repetitions and return the fastest run, mirroring
/// the paper's practice of reporting steady-state times (they average ten
/// runs; the minimum is the standard noise-robust alternative).
pub fn time_best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

/// The host's hardware-thread count as reported by the OS (1 when detection
/// fails). Recorded in every bench JSON file so archived numbers from
/// different machines stay interpretable.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Best and mean wall-clock time of one measured configuration — the record
/// the JSON-emitting `batch_size` bench serializes.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest single repetition.
    pub best: Duration,
    /// Mean over all repetitions.
    pub mean: Duration,
}

/// Time `f` over `reps` repetitions (after one untimed warm-up call, which
/// wakes cold pool workers and fills caches) and return best and mean.
pub fn measure(reps: usize, mut f: impl FnMut()) -> Stats {
    f();
    let mut best = Duration::MAX;
    let total_start = Instant::now();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    Stats { best, mean: total_start.elapsed() / reps.max(1) as u32 }
}

/// Measure two configurations with their repetitions interleaved (A, B, A,
/// B, ...), so slow drift in background load lands on both fairly instead of
/// biasing whichever ran second. Both are warmed up once, untimed.
pub fn measure_interleaved(
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Stats, Stats) {
    a();
    b();
    let reps = reps.max(1);
    let mut stats = [(Duration::MAX, Duration::ZERO), (Duration::MAX, Duration::ZERO)];
    for _ in 0..reps {
        for (which, f) in [(0usize, &mut a as &mut dyn FnMut()), (1, &mut b)] {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed();
            stats[which].0 = stats[which].0.min(elapsed);
            stats[which].1 += elapsed;
        }
    }
    let finish = |(best, total): (Duration, Duration)| Stats { best, mean: total / reps as u32 };
    (finish(stats[0]), finish(stats[1]))
}

/// Serialize a [`Stats`] as the `{"best_ns": ..., "mean_ns": ...}` object
/// every bench JSON file uses.
pub fn json_stats(s: &Stats) -> String {
    format!(r#"{{"best_ns": {}, "mean_ns": {}}}"#, s.best.as_nanos(), s.mean.as_nanos())
}

/// Write one benchmark's JSON (which should record [`host_cores`], so
/// archived numbers stay interpretable across machines) to
/// `<workspace root>/<file_name>` and echo it to stdout. Cargo runs benches
/// with the package directory as CWD, so the path is anchored at the
/// workspace root — the perf trajectory lives in one place, and CI uploads
/// the files from there. A write failure is reported, not fatal: the
/// numbers still reach stdout.
pub fn emit_bench_json(file_name: &str, json: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file_name);
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
    println!("{json}");
}

/// Geometric mean of a slice of ratios (the paper reports average speedups).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A fixed-width text table printer used by every harness binary.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append one row (must have as many cells as the header).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width must match the header");
        self.rows.push(cells);
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a number of events in scientific notation (e.g. `1.468e9`).
pub fn fmt_events(v: u64) -> String {
    format!("{:.3e}", v as f64)
}

/// Format a duration in seconds with four decimal places.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_constant_is_constant() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        let gm = geometric_mean(&[1.0, 4.0]);
        assert!((gm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn text_table_renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains("a-much-longer-name"));
        assert_eq!(rendered.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn time_best_of_returns_a_measurement() {
        let d = time_best_of(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.5000");
        assert!(fmt_events(1_468_364_884).starts_with("1.468e9"));
    }

    #[test]
    fn quick_suite_config_selects_fewer_datasets() {
        let quick = HarnessConfig { quick: true, repetitions: 1, threads: 1 };
        let full = HarnessConfig { quick: false, repetitions: 1, threads: 1 };
        assert!(quick.datasets().len() < full.datasets().len());
        assert_eq!(full.datasets().len(), 14);
    }
}
