//! Figure 7: CPU cycles per packet for the transmit workload, broken
//! down into the paper's four categories (dom0 / domU / Xen / e1000),
//! profiled on a single NIC.

use crate::{banner, packets, Sweep, PAPER_FIG7_TOTALS};
use twin_workloads::Direction;
use twindrivers::{Config, System};

/// Prints one breakdown figure: a per-category row per configuration,
/// then the paper's totals.
pub(super) fn breakdown(dir: Direction, paper_totals: &[(&str, f64)]) -> Sweep {
    for config in Config::ALL {
        let mut sys = System::build(config).expect("build");
        let b = match dir {
            Direction::Transmit => sys.measure_tx(packets()),
            Direction::Receive => sys.measure_rx(packets()),
        };
        println!("{}", b.expect("measure").row(config.label()));
    }
    println!();
    for (label, total) in paper_totals {
        println!("  paper total for {label}: {total:.0} cycles/packet");
    }
    Sweep::report()
}

pub fn run() -> Sweep {
    banner(
        "Figure 7 — CPU cycles per packet, transmit (single NIC profile)",
        "domU 21159 and domU-twin 9972 cycles/packet; rewritten driver \
         2218 vs native 960; dom0 virtualisation tax 1184",
    );
    breakdown(Direction::Transmit, &PAPER_FIG7_TOTALS)
}
