//! `twindrivers-repro` — command-line front end for the reproduction.
//!
//! ```text
//! twindrivers-repro [scenario...]
//! ```
//!
//! Runs the named evaluation scenarios (`fig5` … `fig10`, `table1`,
//! `effort`, `ablations`, `rewrite` and the sweeps), or every scenario
//! when none is named — the same table `cargo bench -p twin-bench
//! --bench eval` runs.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    twin_bench::scenarios::run(&args)
}
