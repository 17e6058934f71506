//! Figure 10: transmit throughput as a function of the number of
//! fast-path support routines implemented as upcalls instead of natively
//! in the hypervisor. `netif_rx` is always native, so the X axis runs
//! 0..=9 (paper: 3902 Mb/s at 0, 1638 at 1, down to 359 at 9).
//!
//! Beyond the paper's per-packet sweep, two more regimes show how the
//! burst pipeline and the deferred-upcall engine change the picture:
//! burst-32 synchronous upcalls (amortizing the stack but still paying
//! two switches per call), and burst-32 deferred upcalls (two switches
//! per *flush*).

use crate::{banner, packets, Sweep, PAPER_FIG10_ENDPOINTS};
use twindrivers::{throughput, Config, System, SystemOptions, UpcallMode, TESTBED_NICS};

/// A TwinDrivers system with `n` support routines forced to upcalls.
pub(super) fn build(n: usize, mode: UpcallMode) -> System {
    let opts = SystemOptions {
        upcall_count: n,
        upcall_mode: mode,
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).expect("build")
}

pub fn run() -> Sweep {
    banner(
        "Figure 10 — Transmit throughput vs upcalls per driver invocation",
        "3902 Mb/s at 0 upcalls, 1638 at 1, 359 at 9",
    );
    println!(
        "{:>8} {:>12} {:>16} {:>14} {:>14} {:>14}",
        "upcalls", "Mb/s", "cycles/packet", "upcalls/pkt", "b32 Mb/s", "b32+defer Mb/s"
    );
    for n in 0..=9usize {
        // The paper's regime: per-packet transmit, synchronous upcalls.
        let b = build(n, UpcallMode::Sync)
            .measure_tx(packets())
            .expect("measure");
        let t = throughput(b.total(), TESTBED_NICS);
        let upcalls = b.events.get("upcall").copied().unwrap_or(0) as f64 / b.packets as f64;
        // Burst 32, still synchronous: batching amortizes the stack and
        // doorbells but every upcall keeps its own switch-pair; with the
        // deferred engine queued upcalls drain in one switch-pair per
        // flush.
        let [t32, td] = [UpcallMode::Sync, UpcallMode::Deferred].map(|mode| {
            let m = build(n, mode)
                .measure_tx_burst(32, packets())
                .expect("measure b32");
            throughput(m.breakdown.total(), TESTBED_NICS)
        });
        println!(
            "{:>8} {:>12.0} {:>16.0} {:>14.2} {:>14.0} {:>14.0}",
            n,
            t.mbps,
            b.total(),
            upcalls,
            t32.mbps,
            td.mbps
        );
    }
    println!();
    for (n, mbps) in PAPER_FIG10_ENDPOINTS {
        println!("  paper at {n} upcalls: {mbps:.0} Mb/s");
    }
    Sweep::report()
}
