//! Figure 8: CPU cycles per packet for the receive workload, broken down
//! into the paper's four categories; the dominant TwinDrivers receive
//! cost is the hypervisor's copy into the guest (~3525 cycles/packet).

use super::fig7::breakdown;
use crate::{banner, Sweep, PAPER_FIG8_TOTALS};
use twin_workloads::Direction;

pub fn run() -> Sweep {
    banner(
        "Figure 8 — CPU cycles per packet, receive (single NIC profile)",
        "domU 35905 / domU-twin 20089 / dom0 14308 / Linux 11166",
    );
    breakdown(Direction::Receive, &PAPER_FIG8_TOTALS)
}
