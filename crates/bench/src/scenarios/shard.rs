//! Multi-NIC shard sweep: aggregate RX+TX throughput and amortized
//! cycles/packet, sweeping 1 → 8 NICs at burst 1 / 8 / 32 on the
//! TwinDrivers configuration (round-robin burst sharding).
//!
//! Not a paper figure — this extends the reproduction to the paper's
//! five-NIC-testbed scale (§6.1) and beyond: one driver image serves
//! every NIC, per-device rings/IRQ/softirq/adapter state, and the
//! aggregate is link-limited or CPU-limited per direction, whichever
//! binds first. Acceptance: aggregate RX+TX throughput scales ≥ 3× from
//! 1 to 4 NICs at burst 32. Writes `BENCH_shard.json`, gated against
//! `bench/baseline.json`.

use crate::{banner, packets, Entry, Sweep};
use twindrivers::measure::measure_aggregate_throughput;
use twindrivers::{Config, ShardPolicy, System};

const NIC_COUNTS: [usize; 4] = [1, 2, 4, 8];
const BURSTS: [usize; 3] = [1, 8, 32];

pub fn run() -> Sweep {
    banner(
        "Shard sweep — aggregate RX+TX throughput vs NIC count",
        "repo extension (testbed §6.1); acceptance: ≥ 3x aggregate from 1 to 4 NICs at burst 32",
    );
    let config = Config::TwinDrivers;
    let mut sweep = Sweep::new("shard");
    sweep.header(
        Entry::new()
            .int("packets", packets())
            .str("policy", "round-robin"),
    );
    let (mut base_agg32, mut four_agg32) = (0.0, 0.0);
    for nics in NIC_COUNTS {
        for burst in BURSTS {
            let mut sys = System::build_sharded(config, nics, ShardPolicy::RoundRobin)
                .expect("build sharded system");
            let a = measure_aggregate_throughput(&mut sys, burst, packets()).expect("sweep point");
            match (nics, burst) {
                (1, 32) => base_agg32 = a.aggregate_mbps(),
                (4, 32) => four_agg32 = a.aggregate_mbps(),
                _ => {}
            }
            sweep.push(
                Entry::new()
                    .str("config", config.label())
                    .int("nics", a.nics)
                    .int("burst", a.burst)
                    .f1("tx_cycles_per_packet", a.tx_cycles_per_packet)
                    .f1("rx_cycles_per_packet", a.rx_cycles_per_packet)
                    .f1("tx_mbps", a.tx.mbps)
                    .f1("rx_mbps", a.rx.mbps)
                    .f1("aggregate_mbps", a.aggregate_mbps()),
            );
        }
    }
    let scaling = four_agg32 / f64::max(base_agg32, 1.0);
    sweep.check(
        scaling >= 3.0,
        format!("aggregate scaling 1 -> 4 NICs at burst 32 = {scaling:.2}x >= 3x"),
    );
    sweep
}
