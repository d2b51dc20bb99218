#![warn(missing_docs)]

//! # gist-bench
//!
//! The experiment harness: one binary per table/figure in the paper's
//! evaluation (run with `cargo run --release -p gist-bench --bin fig08_...`)
//! plus gist-testkit microbenchmarks for the encoding kernels and the
//! memory planner (`cargo run --release -p gist-bench --bin bench_...`,
//! JSON medians under `results/`).
//!
//! Each binary prints the same rows/series the paper reports, labelled with
//! the paper's reference numbers, so `EXPERIMENTS.md` can record
//! paper-vs-measured side by side.

pub mod altfmt;

/// Formats bytes as gigabytes with three decimals.
pub fn gb(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Formats bytes as megabytes with one decimal.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Prints a header line for a figure harness.
pub fn banner(figure: &str, caption: &str) {
    println!("==========================================================");
    println!("{figure}: {caption}");
    println!("==========================================================");
}

/// A simple fixed-width row printer: pads each cell to the given widths.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// The minibatch size the paper uses for its memory studies.
pub const PAPER_BATCH: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(gb(1 << 30), 1.0);
        assert_eq!(mb(1 << 20), 1.0);
    }

    #[test]
    fn row_pads_right() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
