//! Deferred-upcall sweep: transmit throughput and upcall
//! cycles-to-completion percentiles, sweeping the number of forced
//! upcalls at burst 32 in both upcall modes.
//!
//! Not a paper figure — this extends Figure 10 with the deferred-upcall
//! engine: queued, batch-executed dom0 upcalls with completions turn the
//! per-call switch-pair into a per-flush one. Acceptance: at 4+ forced
//! upcalls the deferred path sustains **≥ 3×** the synchronous Mb/s,
//! while the synchronous path stays the per-call regime bit for bit.
//! Writes `BENCH_upcall.json`, gated against
//! `bench/baseline_upcall.json`.

use super::fig10::build;
use crate::{banner, packets, Entry, Sweep};
use twindrivers::measure::upcall_latency;
use twindrivers::{throughput, UpcallMode, TESTBED_NICS};

const UPCALL_COUNTS: [usize; 6] = [0, 1, 2, 4, 6, 9];
const BURST: usize = 32;

pub fn run() -> Sweep {
    banner(
        "Upcall sweep — deferred vs synchronous upcalls at burst 32",
        "repo extension (Fig 10, §4.2); acceptance: >= 3x Mb/s at 4+ forced upcalls",
    );
    let mut sweep = Sweep::new("upcall");
    sweep.header(Entry::new().int("packets", packets()).int("burst", BURST));
    let mut worst = f64::INFINITY;
    for n in UPCALL_COUNTS {
        let [sync, defer] = [
            ("sync", UpcallMode::Sync),
            ("deferred", UpcallMode::Deferred),
        ]
        .map(|(label, mode)| {
            let mut sys = build(n, mode);
            let b = sys.measure_tx_burst(BURST, packets()).expect("sweep point");
            let mbps = throughput(b.breakdown.total(), TESTBED_NICS).mbps;
            let lat = upcall_latency(&sys);
            sweep.push(
                Entry::new()
                    .str("config", "domU-twin")
                    .int("burst", BURST)
                    .int("upcalls", n)
                    .str("mode", label)
                    .f1("tx_cycles_per_packet", b.breakdown.total())
                    .f1("tx_mbps", mbps)
                    .int("p50_cycles", lat.p50)
                    .int("p99_cycles", lat.p99),
            );
            mbps
        });
        if n >= 4 {
            worst = worst.min(defer / sync.max(1.0));
        }
    }
    sweep.check(
        worst >= 3.0,
        format!("worst deferred/sync Mb/s at >= 4 upcalls = {worst:.2}x >= 3x"),
    );
    sweep
}
