//! Figure 5: transmit performance for the netperf benchmark.
//!
//! Regenerates the four bars (domU, domU-twin, dom0, Linux) as aggregate
//! transmit throughput over five gigabit NICs, with CPU utilisation —
//! the paper's Linux bar saturates the links at 76.9% CPU.

use crate::{banner, packets, row, Sweep, PAPER_FIG5};
use twin_workloads::{run_netperf, Direction};
use twindrivers::Config;

/// Prints one netperf figure: a measured-vs-paper row per configuration.
pub(super) fn netperf(dir: Direction, paper: [(&str, f64); 4], improvement: &str) -> Sweep {
    for (config, (label, paper)) in Config::ALL.into_iter().zip(paper) {
        let r = run_netperf(config, dir, packets()).expect("netperf run");
        println!(
            "{}   ({:5.1}% CPU)",
            row(label, r.throughput.mbps, paper, "Mb/s"),
            r.throughput.cpu_util * 100.0
        );
    }
    println!();
    println!("  (improvement domU-twin / domU should be ~{improvement})");
    Sweep::report()
}

pub fn run() -> Sweep {
    banner(
        "Figure 5 — Transmit throughput (netperf, 5 x 1GbE)",
        "domU 1619 / domU-twin 3902 / dom0 4683 / Linux 4690 Mb/s",
    );
    netperf(Direction::Transmit, PAPER_FIG5, "2.4x in CPU-scaled units")
}
