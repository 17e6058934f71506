//! Batch-size sweep over the burst datapath: amortized cycles/packet,
//! interrupts/packet and doorbells/packet at burst 1 / 8 / 32 / 128 on
//! every configuration.
//!
//! Not a paper figure — this measures the burst pipeline this repo adds
//! on top of the reproduction (interrupt coalescing and notification
//! amortization in the spirit of Kedia & Bansal's software passthrough
//! and Emmerich et al.'s batching analysis). Acceptance on the
//! TwinDrivers configuration: burst 32 moves the same traffic with
//! ≥ 1.3× fewer amortized cycles/packet than burst 1 in both
//! directions, and ≥ 8× fewer interrupts/packet on receive.

use crate::{banner, packets, Entry, Sweep};
use twindrivers::{BurstMeasurement, Config, System};

const BURSTS: [usize; 4] = [1, 8, 32, 128];

pub fn run() -> Sweep {
    banner(
        "Batch sweep — amortized cost vs burst size",
        "repo extension; acceptance: twin burst-32 ≥ 1.3x cycles, ≥ 8x irqs vs burst-1",
    );
    let mut sweep = Sweep::report();
    for config in Config::ALL {
        for dir in ["tx", "rx"] {
            let points: Vec<BurstMeasurement> = BURSTS
                .iter()
                .map(|&b| {
                    let mut sys = System::build(config).expect("build");
                    let m = match dir {
                        "tx" => sys.measure_tx_burst(b, packets()),
                        _ => sys.measure_rx_burst(b, packets()),
                    };
                    m.expect("sweep point")
                })
                .collect();
            let base = &points[0];
            for m in &points {
                sweep.push(
                    Entry::new()
                        .str("config", config.label())
                        .str("dir", dir)
                        .int("burst", m.burst)
                        .f1("cycles_per_packet", m.breakdown.total())
                        .f4("irqs_per_packet", m.irqs_per_packet)
                        .f4("doorbells_per_packet", m.doorbells_per_packet)
                        .f4("speedup", base.breakdown.total() / m.breakdown.total()),
                );
            }
            if config == Config::TwinDrivers {
                let b32 = &points[2];
                let speedup = base.breakdown.total() / b32.breakdown.total();
                sweep.check(
                    speedup >= 1.3,
                    format!("{dir} cycles/pkt burst 1 / burst 32 = {speedup:.2}x >= 1.3x"),
                );
                if dir == "rx" {
                    let fewer = base.irqs_per_packet / b32.irqs_per_packet.max(1e-9);
                    sweep.check(
                        fewer >= 8.0,
                        format!("rx irqs/pkt burst 1 / burst 32 = {fewer:.1}x >= 8x"),
                    );
                }
            }
        }
    }
    sweep
}
