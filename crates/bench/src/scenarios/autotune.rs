//! Autotune sweep: closed-loop per-device `ITR` tuning against the
//! static moderation grid, under offered load that **shifts mid-run**.
//!
//! The moderation sweep showed the static trade-off: at the heavy paced
//! load, wide `ITR` windows buy ~6× fewer interrupts/packet at ~1.9×
//! p99, while at light load any window only adds latency. No single
//! static setting is right on both sides — the pareto front moves with
//! the load. The auto-tuner (`SystemOptions::itr_autotune`, modeled on
//! Linux's `e1000_update_itr` state machine) retunes each device one
//! ladder rung per interval window from its observed traffic, so it
//! should land near the *per-phase* best static point on every phase of
//! a step or ramp profile.
//!
//! Acceptance (burst 32, 4 NICs, both profiles): in every phase the
//! auto-tuned system is within 15% of the per-phase best static `ITR`
//! on **both** interrupts/packet and p99 arrival→delivery latency,
//! where "best static" maximizes interrupt reduction subject to p99 ≤
//! 2× the phase's unmoderated p99 (the moderation sweep's acceptance
//! shape). The sweep also reports which static settings track every
//! phase — none, when a profile genuinely crosses regimes.
//!
//! Pacing shares `TWIN_BENCH_GAP_CYCLES` with the moderation sweep (the
//! heavy-phase gap; lighter phases derive from it — see
//! `LoadProfile::gaps`). Writes `BENCH_autotune.json`, gated against
//! `bench/baseline_autotune.json` (identity fields:
//! profile/phase/nics/burst/mode/itr).

use super::moderation::MIN_PACKETS;
use crate::{banner, gap_cycles, packets, Entry, Sweep};
use twindrivers::measure::{measure_rx_autotuned, AutotunedRx, LoadProfile};
use twindrivers::nic::ITR_LADDER;
use twindrivers::{Config, ShardPolicy, System, SystemOptions};

/// The acceptance grid: the moderation sweep's headline row.
const NICS: usize = 4;
const BURST: usize = 32;

/// Unmeasured frames at each phase start (the tuner's adaptation
/// transient; identical for static runs, so drift accounting matches).
const SETTLE_PACKETS: u64 = 256;

/// Best-static eligibility: p99 within this factor of the phase's
/// unmoderated (ITR 0) p99.
const P99_BUDGET: f64 = 2.0;

/// Tracking tolerance vs the per-phase best static point, both metrics.
const TRACK_TOLERANCE: f64 = 1.15;

fn measure(profile: LoadProfile, autotune: bool, itr: u32, pkts: u64, gap: u64) -> AutotunedRx {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: ShardPolicy::FlowHash,
        itr,
        itr_autotune: autotune,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).expect("build");
    measure_rx_autotuned(&mut sys, BURST, profile, gap, SETTLE_PACKETS, pkts).expect("profile run")
}

/// Index of the phase's best static run: max interrupt reduction
/// subject to the p99 budget against the unmoderated run (statics[0]
/// must be ITR 0). Ties break toward lower p99, then lower ITR.
fn best_static(statics: &[AutotunedRx], phase: usize) -> usize {
    let base_p99 = statics[0].phases[phase].latency.p99.max(1) as f64;
    let mut best = 0usize;
    for (i, s) in statics.iter().enumerate() {
        let p = &s.phases[phase];
        if p.latency.p99 as f64 > P99_BUDGET * base_p99 {
            continue;
        }
        let b = &statics[best].phases[phase];
        let better = p.irqs_per_packet < b.irqs_per_packet - 1e-12
            || (p.irqs_per_packet < b.irqs_per_packet + 1e-12 && p.latency.p99 < b.latency.p99);
        if better {
            best = i;
        }
    }
    best
}

/// Whether `run`'s phase point is within tolerance of `best`'s on both
/// interrupts/packet and p99.
fn tracks(run: &AutotunedRx, best: &AutotunedRx, phase: usize) -> bool {
    let a = &run.phases[phase];
    let b = &best.phases[phase];
    a.irqs_per_packet <= TRACK_TOLERANCE * b.irqs_per_packet + 1e-12
        && a.latency.p99 as f64 <= TRACK_TOLERANCE * b.latency.p99.max(1) as f64
}

fn push_phases(sweep: &mut Sweep, r: &AutotunedRx) {
    for (i, p) in r.phases.iter().enumerate() {
        let mut e = Entry::new()
            .str("config", "domU-twin")
            .str("profile", r.profile.label())
            .int("phase", i)
            .int("nics", r.nics)
            .int("burst", r.burst);
        e = if r.autotune {
            e.str("mode", "autotune")
        } else {
            e.str("mode", "static").int("itr", r.static_itr)
        };
        sweep.push(
            e.int("gap_cycles", p.gap_cycles)
                .f1("rx_cycles_per_packet", p.breakdown.total())
                .f4("irqs_per_packet", p.irqs_per_packet)
                .int("p50_cycles", p.latency.p50)
                .int("p99_cycles", p.latency.p99)
                .int("itr_end", p.itr)
                .int("retunes", p.retunes),
        );
    }
}

pub fn run() -> Sweep {
    banner(
        "Autotune sweep — closed-loop ITR vs the static grid under shifting load",
        "repo extension (e1000_update_itr); acceptance: within 15% of per-phase best static on irqs/pkt AND p99",
    );
    let pkts = packets().max(MIN_PACKETS);
    let gap = gap_cycles();
    let mut sweep = Sweep::new("autotune");
    sweep.header(Entry::new().int("packets", pkts).int("gap_cycles", gap));
    for profile in [LoadProfile::Step, LoadProfile::Ramp] {
        // The static grid IS the tuner's ladder: "tracking the pareto
        // front" is evaluated against the exact rungs the tuner can
        // land on.
        let statics: Vec<AutotunedRx> = ITR_LADDER
            .iter()
            .map(|&itr| measure(profile, false, itr, pkts, gap))
            .collect();
        let auto = measure(profile, true, 0, pkts, gap);
        for r in statics.iter().chain([&auto]) {
            push_phases(&mut sweep, r);
        }
        for phase in 0..auto.phases.len() {
            let b = &statics[best_static(&statics, phase)];
            sweep.check(
                tracks(&auto, b, phase),
                format!(
                    "{profile} phase {phase}: autotune within 15% of best static itr {} ({:.4} irqs/pkt, p99 {})",
                    b.static_itr, b.phases[phase].irqs_per_packet, b.phases[phase].latency.p99
                ),
            );
        }
        let chasers: Vec<u32> = statics
            .iter()
            .filter(|s| {
                (0..s.phases.len()).all(|ph| tracks(s, &statics[best_static(&statics, ph)], ph))
            })
            .map(|s| s.static_itr)
            .collect();
        println!("  {profile}: static settings tracking every phase: {chasers:?}");
    }
    sweep
}
