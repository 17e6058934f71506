//! Figure 6: receive performance for the netperf benchmark.

use super::fig5::netperf;
use crate::{banner, Sweep, PAPER_FIG6};
use twin_workloads::Direction;

pub fn run() -> Sweep {
    banner(
        "Figure 6 — Receive throughput (netperf, 5 x 1GbE)",
        "domU 928 / domU-twin 2022 / dom0 2839 / Linux 3010 Mb/s",
    );
    netperf(Direction::Receive, PAPER_FIG6, "2.1x")
}
