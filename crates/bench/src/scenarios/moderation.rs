//! Interrupt-moderation sweep: receive cost, interrupt rate and
//! arrival-to-delivery latency percentiles, sweeping the per-device
//! `ITR` register × burst size × NIC count on the TwinDrivers
//! configuration (FlowHash sharding, paced arrivals).
//!
//! Not a paper figure — this wires the virtual-time engine to the real
//! e1000's interrupt-throttling register: each device suppresses IRQ
//! delivery until `ITR × 768` cycles have elapsed since its last
//! delivered interrupt, latching the cause meanwhile (no delivery is
//! ever lost). The arrival process offers bursts every
//! [`crate::gap_cycles`] of virtual time (`TWIN_BENCH_GAP_CYCLES`,
//! shared with the autotune sweep) — by default slightly above the
//! unmoderated path's per-interrupt service capacity at burst 32 on 4
//! NICs, the receive-livelock regime interrupt moderation exists for:
//! without moderation the backlog shows up as completion latency *and*
//! maximal interrupt rate; with it, one interrupt reaps several bursts.
//!
//! Acceptance (burst 32, 4 NICs): some ITR > 0 point cuts interrupts
//! per packet ≥ 4× against ITR 0 while keeping p99 arrival-to-delivery
//! latency ≤ 2× the ITR 0 p99, and interrupts/packet never rise with
//! ITR. Writes `BENCH_itr.json`, gated against `bench/baseline_itr.json`
//! (identity fields: nics/burst/itr/mode).

use crate::{banner, gap_cycles, packets, Entry, Sweep};
use twindrivers::{Config, PacedRx, ShardPolicy, System, SystemOptions};

/// `(nics, burst)` grid rows; the acceptance row is (4, 32).
const GRID: [(usize, usize); 3] = [(1, 32), (4, 8), (4, 32)];

/// ITR sweep values (768-cycle units; 0 = unmoderated). The sweep stops
/// at the ring-capacity knee: past ~2000 units the 127-descriptor RX
/// ring fills before the window opens and the packets-waiting override
/// takes over, so wider windows buy no further interrupt reduction.
const ITR_VALUES: [u32; 4] = [0, 500, 1000, 2000];

/// Moderation windows span several bursts, so the sweep needs enough
/// rounds for steady state regardless of the CI smoke budget.
pub(super) const MIN_PACKETS: u64 = 384;

fn measure(nics: usize, burst: usize, itr: u32, pkts: u64, gap: u64) -> PacedRx {
    let opts = SystemOptions {
        num_nics: nics,
        shard: ShardPolicy::FlowHash,
        itr,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build");
    sys.measure_rx_moderated(burst, pkts, gap)
        .expect("sweep point")
}

pub fn run() -> Sweep {
    banner(
        "Moderation sweep — ITR x burst x NICs, paced arrivals",
        "repo extension (virtual-time engine); acceptance: >= 4x fewer irqs/pkt at <= 2x p99, burst 32 / 4 NICs",
    );
    let pkts = packets().max(MIN_PACKETS);
    let gap = gap_cycles();
    let mut sweep = Sweep::new("itr");
    sweep.header(Entry::new().int("packets", pkts).int("gap_cycles", gap));
    let mut headline = Vec::new();
    for (nics, burst) in GRID {
        for itr in ITR_VALUES {
            let m = measure(nics, burst, itr, pkts, gap);
            sweep.push(
                Entry::new()
                    .str("config", "domU-twin")
                    .int("nics", m.nics)
                    .int("burst", m.burst)
                    .int("itr", m.itr)
                    .str("mode", "sync")
                    .f1("rx_cycles_per_packet", m.breakdown.total())
                    .f4("irqs_per_packet", m.irqs_per_packet)
                    .int("p50_cycles", m.latency.p50)
                    .int("p99_cycles", m.latency.p99)
                    .f1("rx_mbps", m.throughput().mbps),
            );
            if (nics, burst) == (4, 32) {
                headline.push(m);
            }
        }
    }
    let base = &headline[0];
    let best = headline[1..]
        .iter()
        .map(|m| {
            let fewer = base.irqs_per_packet / m.irqs_per_packet.max(1e-9);
            let p99 = m.latency.p99 as f64 / base.latency.p99.max(1) as f64;
            (m.itr, fewer, p99)
        })
        .filter(|&(_, fewer, p99)| fewer >= 4.0 && p99 <= 2.0)
        .max_by(|a, b| a.1.total_cmp(&b.1));
    sweep.check(
        best.is_some(),
        match best {
            Some((itr, fewer, p99)) => {
                format!("itr {itr} cuts irqs/pkt {fewer:.2}x (>= 4x) at p99 {p99:.2}x (<= 2x)")
            }
            None => "no ITR > 0 point cuts irqs/pkt >= 4x within 2x p99".into(),
        },
    );
    // Allow the flat tail (equal rates), never a rise.
    let monotone = headline
        .windows(2)
        .all(|w| w[1].irqs_per_packet <= w[0].irqs_per_packet + 1e-9);
    sweep.check(
        monotone,
        "irqs/pkt non-increasing along ITR at burst 32 / 4 NICs",
    );
    sweep
}
