//! Measurement primitives: per-packet cycle breakdowns, the
//! cycles-to-throughput conversion used by every figure harness, and the
//! multi-NIC aggregate-throughput sweep.

use crate::system::{System, SystemError};
use std::collections::BTreeMap;
use twin_machine::{CostDomain, CycleMeter};
use twin_net::{wire_bits, EtherType, Frame, MacAddr, MTU};
use twin_xen::{DomId, DomainKind, GrantStats};

/// Modeled CPU frequency — the paper's 3.0 GHz Xeon.
pub const CPU_HZ: f64 = 3.0e9;

/// Number of gigabit NICs in the paper's testbed.
pub const TESTBED_NICS: u32 = 5;

/// Per-packet cycle breakdown in the paper's four categories
/// (Figures 7 and 8).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Cycles per packet per category.
    pub per_domain: BTreeMap<CostDomain, f64>,
    /// Packets measured.
    pub packets: u64,
    /// Selected event counts (total, not per packet).
    pub events: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Builds a breakdown from meter deltas over `packets` packets.
    pub fn from_meter(meter: &CycleMeter, packets: u64) -> Breakdown {
        let mut per_domain = BTreeMap::new();
        for d in CostDomain::ALL {
            per_domain.insert(d, meter.cycles(d) as f64 / packets.max(1) as f64);
        }
        Breakdown {
            per_domain,
            packets,
            events: meter.events().clone(),
        }
    }

    /// Cycles per packet for one category.
    pub fn cycles(&self, d: CostDomain) -> f64 {
        self.per_domain.get(&d).copied().unwrap_or(0.0)
    }

    /// Total cycles per packet.
    pub fn total(&self) -> f64 {
        self.per_domain.values().sum()
    }

    /// Renders one figure-style row: `label total dom0 domU Xen e1000`.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:>10}  total {:>8.0}   dom0 {:>8.0}   domU {:>8.0}   Xen {:>8.0}   e1000 {:>8.0}",
            self.total(),
            self.cycles(CostDomain::Dom0),
            self.cycles(CostDomain::DomU),
            self.cycles(CostDomain::Xen),
            self.cycles(CostDomain::Driver),
        )
    }
}

/// One point of a batch-size sweep: amortized per-packet cost and
/// notification rates at a fixed burst size.
#[derive(Clone, Debug)]
pub struct BurstMeasurement {
    /// Burst size measured.
    pub burst: usize,
    /// Per-packet cycle breakdown, amortized over the burst.
    pub breakdown: Breakdown,
    /// Hardware interrupts dispatched per packet (receive side; 1.0 at
    /// burst 1, ~1/N with N-frame coalescing).
    pub irqs_per_packet: f64,
    /// `TDT` doorbell writes per packet (transmit side).
    pub doorbells_per_packet: f64,
}

/// Latency percentiles over a set of cycles-to-completion samples —
/// the groundwork adaptive interrupt moderation needs, and the metric
/// that keeps upcall deferral honest: throughput may rise only while the
/// tail stays bounded.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of samples.
    pub samples: usize,
    /// Median cycles-to-completion.
    pub p50: u64,
    /// 99th-percentile cycles-to-completion.
    pub p99: u64,
    /// Worst observed.
    pub max: u64,
}

impl LatencyStats {
    /// Computes nearest-rank percentiles over `samples` (any order).
    /// All-zero on an empty set.
    pub fn from_samples(samples: &[u64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        LatencyStats {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            max: *sorted.last().unwrap(),
        }
    }

    /// One report row.
    pub fn row(&self) -> String {
        format!(
            "upcall latency  p50 {:>8} cyc   p99 {:>8} cyc   max {:>8} cyc   ({} samples)",
            self.p50, self.p99, self.max, self.samples
        )
    }
}

/// Capacity of the receive-latency reservoir held by a `System`: far
/// above any single measurement window's sample count (the sweeps
/// measure hundreds of frames per point), so the committed sweeps and
/// tests see exact percentiles, while an arbitrarily long paced run
/// stays at a fixed memory footprint.
pub const RX_LATENCY_RESERVOIR: usize = 65_536;

/// The deterministic bounded reservoir and nearest-rank percentile now
/// live in `twin_trace` (the metrics registry builds its histogram
/// summaries from the same primitives); re-exported here so every
/// existing consumer keeps its import path.
pub use twin_trace::{percentile, SampleReservoir};

/// Latency percentiles of every upcall completed in the current
/// measurement window of `sys` (empty stats outside TwinDrivers or when
/// no upcalls ran).
pub fn upcall_latency(sys: &System) -> LatencyStats {
    LatencyStats::from_samples(sys.upcall_latency_samples())
}

/// Result of converting a per-packet cost into netperf-style throughput.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Throughput {
    /// Achieved throughput in Mb/s.
    pub mbps: f64,
    /// CPU utilisation in [0, 1] (1.0 = saturated).
    pub cpu_util: f64,
}

/// Converts cycles/packet into aggregate TCP throughput over `nics`
/// gigabit links, netperf style: the CPU processes packets at
/// `CPU_HZ / cpp`; throughput is link-limited or CPU-limited, whichever
/// binds first (this is how the paper's Linux transmit saturates 5 NICs
/// at 76.9% CPU while every Xen configuration is CPU-bound).
pub fn throughput(cpp: f64, nics: u32) -> Throughput {
    let bits = wire_bits(MTU) as f64;
    let link_mbps = nics as f64 * 1000.0;
    let cpu_pps = CPU_HZ / cpp.max(1.0);
    let cpu_mbps = cpu_pps * bits / 1e6;
    if cpu_mbps >= link_mbps {
        Throughput {
            mbps: link_mbps,
            cpu_util: link_mbps / cpu_mbps,
        }
    } else {
        Throughput {
            mbps: cpu_mbps,
            cpu_util: 1.0,
        }
    }
}

/// One point of the multi-NIC shard sweep: amortized per-packet cost and
/// the aggregate throughput it sustains over `nics` gigabit links, both
/// directions.
#[derive(Clone, Debug)]
pub struct AggregateThroughput {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Burst size per driver invocation.
    pub burst: usize,
    /// Amortized transmit cycles/packet at this burst size.
    pub tx_cycles_per_packet: f64,
    /// Amortized receive cycles/packet at this burst size.
    pub rx_cycles_per_packet: f64,
    /// Transmit throughput over the `nics` links.
    pub tx: Throughput,
    /// Receive throughput over the `nics` links.
    pub rx: Throughput,
    /// Grant-table traffic (maps/unmaps/copies, with per-NIC
    /// attribution) over the whole measurement including warm-up —
    /// empty for configurations without a hypervisor.
    pub grants: GrantStats,
    /// Per-guest frames shed at the admission watermark over the
    /// measurement (guest id → drops); empty with overload control off.
    pub early_drops: BTreeMap<u32, u64>,
}

impl AggregateThroughput {
    /// Combined RX+TX throughput in Mb/s (full-duplex aggregate — the
    /// shard sweep's headline scaling figure).
    pub fn aggregate_mbps(&self) -> f64 {
        self.tx.mbps + self.rx.mbps
    }
}

/// One paced receive point: amortized receive cost, interrupt rate and
/// arrival-to-delivery latency percentiles of the frames measured under
/// a paced arrival process — one point of the moderation sweep
/// ([`System::measure_rx_moderated`]) or one phase of an autotune run
/// ([`measure_rx_autotuned`]).
#[derive(Clone, Debug)]
pub struct PacedRx {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per scheduled arrival burst.
    pub burst: usize,
    /// Widest per-device `ITR` at the end of the window
    /// ([`twin_nic::ITR_UNIT_CYCLES`]-cycle units; 0 = unmoderated):
    /// the static setting, or where a tuner sits when the window closes.
    pub itr: u32,
    /// Scheduled inter-burst gap in virtual cycles (the offered load).
    pub gap_cycles: u64,
    /// Frames measured.
    pub packets: u64,
    /// Per-packet cycle breakdown (idle time charges nothing, so this is
    /// pure processing cost).
    pub breakdown: Breakdown,
    /// Hardware interrupts dispatched per packet — the side moderation
    /// shrinks.
    pub irqs_per_packet: f64,
    /// Deliveries the ITR window held back (later coalesced into one
    /// interrupt).
    pub moderated_irqs: u64,
    /// Arrival-to-delivery latency percentiles — the side moderation
    /// spends.
    pub latency: LatencyStats,
    /// `ITR` retunes the auto-tuner performed in the window (0 for
    /// static runs).
    pub retunes: u64,
}

impl PacedRx {
    /// Receive throughput implied by the amortized per-packet cost over
    /// this system's links.
    pub fn throughput(&self) -> Throughput {
        throughput(self.breakdown.total(), self.nics)
    }
}

/// A multi-phase offered-load profile for the auto-tune harness: each
/// phase paces arrival bursts at a different inter-burst gap, so the
/// run crosses the latency/bulk regimes mid-measurement and a
/// closed-loop tuner has something to track that no static `ITR`
/// setting can follow.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LoadProfile {
    /// Two phases: light (latency regime), then heavy (the
    /// receive-livelock regime the moderation sweep paces).
    Step,
    /// Three phases stepping light → medium → heavy.
    Ramp,
}

impl LoadProfile {
    /// The JSON/label name.
    pub fn label(self) -> &'static str {
        match self {
            LoadProfile::Step => "step",
            LoadProfile::Ramp => "ramp",
        }
    }

    /// Per-phase inter-burst gaps, derived from the heavy (final) gap so
    /// the moderation and autotune benches share one pacing knob: the
    /// light phase offers 6× sparser arrivals (underloaded — windows
    /// mostly idle), the ramp's middle phase 3× (busy but unsaturated).
    pub fn gaps(self, heavy_gap_cycles: u64) -> Vec<u64> {
        match self {
            LoadProfile::Step => vec![heavy_gap_cycles * 6, heavy_gap_cycles],
            LoadProfile::Ramp => vec![heavy_gap_cycles * 6, heavy_gap_cycles * 3, heavy_gap_cycles],
        }
    }
}

impl std::fmt::Display for LoadProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of running one system through a shifting-load profile: the
/// per-phase points the autotune sweep compares against the per-phase
/// best static `ITR`.
#[derive(Clone, Debug)]
pub struct AutotunedRx {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per scheduled arrival burst.
    pub burst: usize,
    /// The load profile run.
    pub profile: LoadProfile,
    /// Whether the closed-loop tuner was active.
    pub autotune: bool,
    /// The fixed `ITR` programmed at build time (static runs; the
    /// tuner's starting point otherwise).
    pub static_itr: u32,
    /// One steady-state point per profile phase, in offered order
    /// (each phase leads with an unmeasured settle span).
    pub phases: Vec<PacedRx>,
}

/// Runs `sys` through `profile` — paced arrival bursts whose gap shifts
/// at each phase boundary — and reports per-phase steady-state points
/// (see [`PacedRx`]). Works identically for a static-`ITR` system and
/// an auto-tuning one ([`crate::SystemOptions::itr_autotune`]), which is
/// what makes the sweep's comparison apples-to-apples: same warm-up,
/// same pacing, same settle spans, same drift accounting.
///
/// `heavy_gap_cycles` is the final (heaviest) phase's gap — the same
/// knob the moderation sweep paces with; earlier phases derive from it
/// (see [`LoadProfile::gaps`]). Each phase injects `settle_packets`
/// unmeasured frames at the new load first (the tuner's adaptation
/// transient), then measures `packets_per_phase` frames.
///
/// # Errors
///
/// Propagates per-burst errors.
pub fn measure_rx_autotuned(
    sys: &mut System,
    burst: usize,
    profile: LoadProfile,
    heavy_gap_cycles: u64,
    settle_packets: u64,
    packets_per_phase: u64,
) -> Result<AutotunedRx, SystemError> {
    let static_itr = sys
        .world
        .nics
        .iter()
        .map(twin_nic::Nic::itr)
        .max()
        .unwrap_or(0);
    warm_rx(sys)?;
    let mut phases = Vec::new();
    for gap in profile.gaps(heavy_gap_cycles) {
        phases.push(sys.paced_rx_phase(burst, settle_packets, packets_per_phase, gap)?);
    }
    Ok(AutotunedRx {
        nics: sys.nic_count() as u32,
        burst,
        profile,
        autotune: sys.itr_autotune(),
        static_itr,
        phases,
    })
}

/// Closed-loop receive warm-up shared by the paced and open-loop
/// harnesses: 160 frames per NIC complete every ring's buffer-swap
/// cycle, then every delivery a moderation window holds back drains.
///
/// # Errors
///
/// Propagates faults.
pub fn warm_rx(sys: &mut System) -> Result<(), SystemError> {
    for _ in 0..160 * sys.nic_count() {
        sys.receive_one()?;
    }
    sys.drain_moderated()
}

/// Drives one **open-loop** arrival schedule: resets the measurement
/// window, then lands `bursts` bursts from `next_burst` `gap_cycles`
/// apart, each preceded by exactly the service up to its arrival
/// instant, and closes with one final gap of service. Returns the
/// frames offered.
///
/// # Errors
///
/// Propagates faults; arrival overruns are data, not errors.
pub fn open_loop(
    sys: &mut System,
    bursts: u64,
    gap_cycles: u64,
    mut next_burst: impl FnMut() -> Vec<Frame>,
) -> Result<u64, SystemError> {
    sys.reset_measurement();
    let t0 = sys.now_cycles();
    let mut offered = 0u64;
    for i in 0..bursts {
        let arrival = t0 + i * gap_cycles;
        sys.rx_open_loop_service(arrival)?;
        let frames = next_burst();
        offered += frames.len() as u64;
        sys.rx_open_loop_arrival(&frames, arrival)?;
    }
    sys.rx_open_loop_service(t0 + bursts * gap_cycles)?;
    Ok(offered)
}

/// Receive-side counters an open-loop harness snapshots around its
/// window: frames delivered into a set of guests, and the three places
/// a frame can die (admission watermark, demux queue cap, full ring).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RxCounters {
    /// Frames delivered into the guests the snapshot names.
    pub delivered: u64,
    /// Frames shed at the admission watermark.
    pub early_drops: u64,
    /// Frames dropped at a demux queue cap.
    pub queue_drops: u64,
    /// Frames dropped for want of a free RX descriptor.
    pub ring_drops: u64,
}

impl RxCounters {
    /// The totals now, with `delivered` summed over `guests`.
    pub fn take(sys: &System, guests: &[DomId]) -> RxCounters {
        RxCounters {
            delivered: guests.iter().map(|&g| sys.delivered_rx_for(g) as u64).sum(),
            early_drops: sys.rx_early_drops(),
            queue_drops: sys.rx_queue_drops(),
            ring_drops: sys.rx_ring_drops(),
        }
    }

    /// What accrued since this snapshot (same `guests`).
    pub fn delta(&self, sys: &System, guests: &[DomId]) -> RxCounters {
        let now = RxCounters::take(sys, guests);
        RxCounters {
            delivered: now.delivered - self.delivered,
            early_drops: now.early_drops - self.early_drops,
            queue_drops: now.queue_drops - self.queue_drops,
            ring_drops: now.ring_drops - self.ring_drops,
        }
    }
}

/// Worst p99 arrival-to-delivery latency across `guests` (0 when none
/// tracked a sample).
pub fn worst_p99(sys: &System, guests: &[DomId]) -> u64 {
    guests
        .iter()
        .map(|&g| LatencyStats::from_samples(sys.guest_rx_latency(g)).p99)
        .max()
        .unwrap_or(0)
}

/// An MTU-sized IPv4 frame from the harnesses' off-box peer.
pub fn wire_frame(dst: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame {
        dst,
        src: MacAddr([0x02, 0, 0, 0, 0, 0xee]),
        ethertype: EtherType::Ipv4,
        payload_len: MTU,
        flow,
        seq,
    }
}

/// An adversarial offered-load shape for the receive-livelock harness.
/// Every profile keeps the victim guests' rate fixed and sub-capacity
/// while the flood scales with the offered multiple — the fairness
/// question is always "does the flood's overload leak into bystanders",
/// and the profiles vary *how* the flood stresses the path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OverloadProfile {
    /// The whole flood is one heavy flow aimed at one guest — the
    /// classic receive-livelock shape (Mogul & Ramakrishnan).
    FloodOneGuest,
    /// The flood churns through a large flow-id space, defeating any
    /// flow-keyed affinity state (the `rx_flow_dev` map, shard hashing)
    /// while offering the same aggregate load.
    FlowChurn,
    /// One elephant flow carries most of the flood while a swarm of
    /// short mice flows carries the rest — bimodal, like a busy server
    /// behind a DoS.
    ElephantMice,
}

impl OverloadProfile {
    /// The JSON/label name.
    pub fn label(self) -> &'static str {
        match self {
            OverloadProfile::FloodOneGuest => "flood_one_guest",
            OverloadProfile::FlowChurn => "flow_churn",
            OverloadProfile::ElephantMice => "elephant_mice",
        }
    }
}

impl std::fmt::Display for OverloadProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fixed frames per victim guest per arrival burst — deliberately
/// independent of the offered multiple: victims stay well-behaved while
/// the flood scales past capacity.
pub const VICTIM_FRAMES_PER_BURST: usize = 4;

/// One point of the receive-livelock sweep: goodput, drop accounting
/// and victim-guest tail latency at a fixed offered-load multiple of
/// the calibrated knee.
#[derive(Clone, Debug)]
pub struct LivelockPoint {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per arrival burst at the 1.0× knee.
    pub burst: usize,
    /// Offered-load shape.
    pub profile: OverloadProfile,
    /// Offered load as tenths of the knee rate (integer identity: 10 =
    /// 1.0×, 100 = 10×).
    pub offered_x10: u32,
    /// Frames offered on the wire over the measured span.
    pub frames_offered: u64,
    /// Frames fully delivered into guests (the goodput numerator).
    pub frames_delivered: u64,
    /// Delivered throughput over the arrival span, in Mb/s.
    pub goodput_mbps: f64,
    /// Charged cycles per *delivered* packet — under livelock this
    /// balloons as work is sunk into frames that die at a queue cap.
    pub rx_cycles_per_packet: f64,
    /// Frames shed at the admission watermark (before any ring work).
    pub early_drops: u64,
    /// Frames dropped at a demux queue cap (after the reap — waste).
    pub queue_drops: u64,
    /// Frames dropped by the NICs for want of a free descriptor.
    pub ring_drops: u64,
    /// Hardware interrupts dispatched over the span.
    pub irqs: u64,
    /// Budgeted NAPI poll passes over the span.
    pub polls: u64,
    /// Frames delivered to the victim (non-flooded) guests.
    pub victim_delivered: u64,
    /// Worst p99 arrival-to-delivery latency across victim guests.
    pub victim_p99: u64,
}

impl LivelockPoint {
    /// Offered load as a multiple of the knee (1.0 = knee).
    pub fn offered(&self) -> f64 {
        f64::from(self.offered_x10) / 10.0
    }
}

/// Builds one arrival burst for `profile` at `offered_x10` tenths of
/// the knee: each victim guest gets its fixed trickle, the flood guest
/// gets the rest, and `seq` advances once per frame (unique `(flow,
/// seq)` keys for latency tracking).
fn overload_burst(
    profile: OverloadProfile,
    offered_x10: u32,
    burst_base: usize,
    flood: (DomId, MacAddr),
    victims: &[(DomId, MacAddr)],
    seq: &mut u64,
) -> Vec<Frame> {
    let total = (burst_base * offered_x10 as usize / 10).max(1);
    let victim_total = victims.len() * VICTIM_FRAMES_PER_BURST;
    let flood_frames = total.saturating_sub(victim_total);
    let mut out = Vec::with_capacity(victim_total + flood_frames);
    let mut push = |dst: MacAddr, flow: u32, seq: &mut u64| {
        out.push(wire_frame(dst, flow, *seq));
        *seq += 1;
    };
    // Victims first in the burst: under overload the tail of a burst is
    // likelier to find full rings, so this ordering is *generous* to
    // the uncontrolled config — it still collapses.
    for (gid, mac) in victims {
        for _ in 0..VICTIM_FRAMES_PER_BURST {
            push(*mac, 900 + gid.0, seq);
        }
    }
    for i in 0..flood_frames {
        let flow = match profile {
            OverloadProfile::FloodOneGuest => 800,
            OverloadProfile::FlowChurn => 1000 + (*seq % 1024) as u32,
            OverloadProfile::ElephantMice => {
                if i % 5 == 4 {
                    1000 + (*seq % 64) as u32 // every 5th frame: a mouse
                } else {
                    800 // the elephant
                }
            }
        };
        push(flood.1, flow, seq);
    }
    out
}

/// Runs one **open-loop** receive-livelock point: `bursts` arrival
/// bursts land at a fixed `gap_cycles` schedule (calibrated so 1.0×
/// saturates the consumer — the knee), each one
/// `offered_x10`/10 × the knee's `burst_base` frames shaped by
/// `profile`. Arrivals charge only what hardware forces at that instant
/// (ISR reap, or nothing for a masked poll-mode NIC); the consumer —
/// budgeted NAPI polls or standalone DRR flush rounds — runs only in
/// the gaps, exactly the regime where per-arrival interrupt work
/// starves delivery and goodput collapses (Mogul & Ramakrishnan; paper
/// §4.4's softirq discipline is the exposure).
///
/// The flood aims at the primary guest; every other guest is a
/// fixed-rate victim whose tail latency the overload controls must
/// bound. The span includes the post-schedule drain, so a backlogged
/// system cannot launder its backlog into goodput.
///
/// # Errors
///
/// Propagates faults; arrival overruns are data, not errors.
pub fn measure_rx_livelock(
    sys: &mut System,
    profile: OverloadProfile,
    offered_x10: u32,
    burst_base: usize,
    bursts: u64,
    gap_cycles: u64,
) -> Result<LivelockPoint, SystemError> {
    let flood_gid = sys.guest.expect("livelock harness needs a guest");
    let (flood, victims) = {
        let xen = sys.world.xen.as_ref().expect("livelock harness needs xen");
        let mut flood = None;
        let mut victims = Vec::new();
        for d in &xen.domains {
            if d.kind != DomainKind::Guest {
                continue;
            }
            if d.id == flood_gid {
                flood = Some((d.id, d.mac));
            } else {
                victims.push((d.id, d.mac));
            }
        }
        (flood.expect("primary guest present"), victims)
    };
    let victim_ids: Vec<DomId> = victims.iter().map(|v| v.0).collect();
    let all_ids: Vec<DomId> = std::iter::once(flood.0).chain(victim_ids.clone()).collect();
    sys.track_guest_latency();
    warm_rx(sys)?;
    let before = RxCounters::take(sys, &all_ids);
    let victims_before = RxCounters::take(sys, &victim_ids);
    // Sequence numbers clear of every closed-loop generator.
    let mut seq = 1_000_000u64;
    // The last burst gets exactly one gap of service, then the window
    // closes. Backlog still queued (or stranded in a masked ring) at
    // window close is NOT goodput — an open-loop source never stops, so
    // frames the consumer couldn't deliver inside the schedule are lost
    // throughput, not work in flight. Counting a tail drain would let a
    // livelocked system launder its backlog into goodput.
    let offered = open_loop(sys, bursts, gap_cycles, || {
        overload_burst(profile, offered_x10, burst_base, flood, &victims, &mut seq)
    })?;
    let d = before.delta(sys, &all_ids);
    let span = bursts * gap_cycles;
    let goodput_mbps = d.delivered as f64 * wire_bits(MTU) as f64 / (span as f64 / CPU_HZ) / 1e6;
    let breakdown = Breakdown::from_meter(&sys.machine.meter, d.delivered.max(1));
    // Flight-recorder export: a no-op unless TWIN_TRACE_OUT names a
    // directory (and empty unless the system was built with tracing).
    sys.export_trace(&format!("livelock_{}_{offered_x10}", profile.label()));
    Ok(LivelockPoint {
        nics: sys.nic_count() as u32,
        burst: burst_base,
        profile,
        offered_x10,
        frames_offered: offered,
        frames_delivered: d.delivered,
        goodput_mbps,
        rx_cycles_per_packet: breakdown.total(),
        early_drops: d.early_drops,
        queue_drops: d.queue_drops,
        ring_drops: d.ring_drops,
        irqs: breakdown.events.get("irq").copied().unwrap_or(0),
        polls: breakdown.events.get("napi_poll").copied().unwrap_or(0),
        victim_delivered: victims_before.delta(sys, &victim_ids).delivered,
        victim_p99: worst_p99(sys, &victim_ids),
    })
}

/// One point of the scheduler-affinity sweep: cycles/packet, cold
/// deliveries, migration accounting and per-guest tail latency for one
/// shard policy at one run/sleep duty cycle.
#[derive(Clone, Debug)]
pub struct AffinityPoint {
    /// NICs driven concurrently.
    pub nics: u32,
    /// Frames per arrival burst.
    pub burst: usize,
    /// Shard-policy label (`flowhash` / `affinity`).
    pub policy: &'static str,
    /// Run duty cycle in percent (100 = vCPUs never sleep).
    pub duty_pct: u32,
    /// Frames offered on the wire over the measured span.
    pub frames_offered: u64,
    /// Frames fully delivered into guests (equal to offered on a
    /// drop-free run — the acceptance requires it).
    pub frames_delivered: u64,
    /// Charged cycles per delivered packet, the headline metric the
    /// affinity win shows up in.
    pub rx_cycles_per_packet: f64,
    /// Deliveries that paid the cold sTLB/cache refill (softirq CPU ≠
    /// guest vCPU).
    pub cold_deliveries: u64,
    /// Affinity flow placements over the run (0 under FlowHash).
    pub placements: u64,
    /// Affinity flow migrations following the scheduler (0 with pinned
    /// vCPUs).
    pub migrations: u64,
    /// vCPU wakeups observed during the measured span.
    pub wakes: u64,
    /// Admission-watermark drops (must be 0 — the harness runs uncapped).
    pub early_drops: u64,
    /// Demux queue-cap drops (must be 0).
    pub queue_drops: u64,
    /// RX-descriptor drops (must be 0).
    pub ring_drops: u64,
    /// Per-(guest, flow) sequence inversions in the delivered logs
    /// (must be 0 — order is preserved across sleep deferral and
    /// migration alike).
    pub reorders: u64,
    /// Worst p99 arrival-to-delivery latency across the scheduled
    /// guests, in cycles (includes sleep deferral by construction).
    pub victim_p99: u64,
}

/// Counts per-(guest, flow) sequence inversions in every guest's
/// delivered log — the order-preservation check the affinity
/// acceptance gates on.
fn rx_reorders(sys: &System) -> u64 {
    let Some(xen) = sys.world.xen.as_ref() else {
        return 0;
    };
    let mut reorders = 0u64;
    for d in &xen.domains {
        let mut last: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for f in &d.rx_delivered {
            if let Some(prev) = last.insert(f.flow, f.seq) {
                if f.seq <= prev {
                    reorders += 1;
                }
            }
        }
    }
    reorders
}

/// Runs one **open-loop** scheduler-affinity point: `bursts` arrival
/// bursts land on a fixed `gap_cycles` schedule, each spread evenly
/// (round-robin) across the `traffic` guests on their fixed flows;
/// the consumer — per-arrival ISR reaps plus DRR flush rounds between
/// arrivals — follows the vCPU schedule registered from `vcpus`
/// (guest, cpu, run cycles, sleep cycles; an empty slice leaves every
/// guest always-running). After the schedule closes, the harness
/// drains the deferred backlog to the last frame — both policies
/// deliver identical frame sets on a drop-free run, so cycles per
/// delivered packet is an apples-to-apples comparison and sleep
/// deferral shows up in latency, not in lost goodput.
///
/// The system must be built with [`crate::SystemOptions::sched`] when `vcpus`
/// is non-empty. `policy` and `duty_pct` are reporting labels.
///
/// # Errors
///
/// Propagates faults; [`SystemError::Build`] if the post-schedule
/// drain fails to converge (a wedged consumer must fail loudly).
#[allow(clippy::too_many_arguments)] // one sweep point = one call site; the grid is the signature
pub fn measure_rx_affinity(
    sys: &mut System,
    traffic: &[(DomId, MacAddr, u32)],
    vcpus: &[(DomId, u32, u64, u64)],
    policy: &'static str,
    duty_pct: u32,
    burst: usize,
    bursts: u64,
    gap_cycles: u64,
) -> Result<AffinityPoint, SystemError> {
    // Closed-loop warm-up before any vCPU exists: every ring completes
    // its buffer-swap cycle with all guests running, identically for
    // every policy/duty combination.
    warm_rx(sys)?;
    for &(gid, cpu, run, sleep) in vcpus {
        sys.sched_add_vcpu(gid, cpu, run, sleep)?;
    }
    sys.track_guest_latency();
    let placements_before = sys.metrics().counter("sched.placements");
    let migrations_before = sys.metrics().counter("sched.migrations");
    let guests: Vec<DomId> = traffic.iter().map(|t| t.0).collect();
    let before = RxCounters::take(sys, &guests);
    let mut seq = 1_000_000u64; // clear of every closed-loop generator
    let offered = open_loop(sys, bursts, gap_cycles, || {
        (0..burst)
            .map(|j| {
                let (_, mac, flow) = traffic[j % traffic.len()];
                seq += 1;
                wire_frame(mac, flow, seq - 1)
            })
            .collect()
    })?;
    // Drain the deferred backlog: sleeping guests' frames deliver at
    // their wakeup edges. Unlike the livelock sweep this tail counts —
    // the question is delivery cost, not overload goodput, and both
    // policies deliver the same frames.
    let mut guard = 0u32;
    while sys
        .world
        .xen
        .as_ref()
        .is_some_and(|x| x.domains.iter().any(|d| !d.rx_queue.is_empty()))
    {
        let now = sys.now_cycles();
        sys.rx_open_loop_service(now + 100_000)?;
        guard += 1;
        if guard > 10_000 {
            return Err(SystemError::Build("affinity drain did not converge".into()));
        }
    }
    let d = before.delta(sys, &guests);
    let breakdown = Breakdown::from_meter(&sys.machine.meter, d.delivered.max(1));
    let ms = sys.metrics();
    sys.export_trace(&format!("affinity_{policy}_{duty_pct}"));
    Ok(AffinityPoint {
        nics: sys.nic_count() as u32,
        burst,
        policy,
        duty_pct,
        frames_offered: offered,
        frames_delivered: d.delivered,
        rx_cycles_per_packet: breakdown.total(),
        cold_deliveries: breakdown.events.get("cold_delivery").copied().unwrap_or(0),
        placements: ms.counter("sched.placements") - placements_before,
        migrations: ms.counter("sched.migrations") - migrations_before,
        wakes: breakdown.events.get("vcpu_run").copied().unwrap_or(0),
        early_drops: d.early_drops,
        queue_drops: d.queue_drops,
        ring_drops: d.ring_drops,
        reorders: rx_reorders(sys),
        victim_p99: worst_p99(sys, &guests),
    })
}

/// Measures aggregate RX+TX throughput of a (possibly multi-NIC) system
/// at a fixed burst size: `packets` packets move in each direction in
/// bursts of `burst`, sharded across the NICs by the system's policy;
/// the amortized cycles/packet convert to throughput via [`throughput`]
/// (link-limited or CPU-limited, whichever binds first — exactly how the
/// paper's five-NIC testbed aggregates).
///
/// The link ceiling per direction counts only NICs that **actually
/// carried traffic** during that direction's run: a 4-NIC system under
/// `ShardPolicy::Static(0)` is capped at one gigabit link, not four —
/// idle hardware adds no capacity.
///
/// A single NIC at burst 1 is the degenerate case and reproduces the
/// per-packet figures.
///
/// # Errors
///
/// Propagates measurement errors from the underlying burst sweeps.
pub fn measure_aggregate_throughput(
    sys: &mut System,
    burst: usize,
    packets: u64,
) -> Result<AggregateThroughput, SystemError> {
    let nics = sys.nic_count() as u32;
    // Everything this report derives — active links, grant traffic,
    // early drops — now comes from [`System::metrics`] registry deltas
    // rather than reaching into each stats struct. All counters are
    // integers, so the deltas are bit-exact with the old per-struct
    // bookkeeping.
    let links = |d: &twin_trace::MetricSet, dir: &str| -> u32 {
        (0..nics)
            .filter(|i| d.counter(&format!("nic{i}.{dir}_packets")) > 0)
            .count() as u32
    };

    let m0 = sys.metrics();
    let tx = sys.measure_tx_burst(burst, packets)?;
    let m1 = sys.metrics();
    let rx = sys.measure_rx_burst(burst, packets)?;
    let m2 = sys.metrics();

    let tx_links = links(&m1.delta_since(&m0), "tx");
    let rx_links = links(&m2.delta_since(&m1), "rx");

    let span = m2.delta_since(&m0);
    let mut grants = GrantStats {
        maps: span.counter("grant.maps"),
        unmaps: span.counter("grant.unmaps"),
        copies: span.counter("grant.copies"),
        ..GrantStats::default()
    };
    for (key, n) in span.counters_with_prefix("grant.dev") {
        let Some((dev, field)) = key["grant.dev".len()..].split_once('.') else {
            continue;
        };
        let Ok(dev) = dev.parse::<u32>() else {
            continue;
        };
        let slot = grants.per_device.entry(dev).or_default();
        match field {
            "maps" => slot.maps = n,
            "unmaps" => slot.unmaps = n,
            "copies" => slot.copies = n,
            _ => {}
        }
    }
    grants
        .per_device
        .retain(|_, d| d.maps + d.unmaps + d.copies > 0);

    let early_drops: BTreeMap<u32, u64> = span
        .counters_with_prefix("guest")
        .filter_map(|(key, n)| {
            let (g, field) = key["guest".len()..].split_once('.')?;
            (field == "early_drops" && n > 0).then(|| (g.parse::<u32>().ok(), n))
        })
        .filter_map(|(g, n)| Some((g?, n)))
        .collect();

    let tx_cpp = tx.breakdown.total();
    let rx_cpp = rx.breakdown.total();
    Ok(AggregateThroughput {
        nics,
        burst,
        tx_cycles_per_packet: tx_cpp,
        rx_cycles_per_packet: rx_cpp,
        tx: throughput(tx_cpp, tx_links.max(1)),
        rx: throughput(rx_cpp, rx_links.max(1)),
        grants,
        early_drops,
    })
}

/// A driver-fault class the fault sweep injects — the three failure
/// modes the paper's §4.5 safety machinery must contain: an SVM-rejected
/// illegal store, corrupted driver state that faults on the next
/// register access, and a runaway loop reclaimed by the VINO-style
/// execution watchdog.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Wild store into the hypervisor address space: SVM rejects the
    /// access and the invocation aborts at the faulting instruction.
    WildWrite,
    /// The driver corrupts its own adapter slot (`hw_addr` ← 1), so the
    /// very next register access dereferences garbage and faults — the
    /// wedged-ring shape: state is bad, not the current instruction.
    WedgedRing,
    /// Runaway spin: no illegal access at all; only the execution
    /// watchdog's cycle budget reclaims the CPU (paper §4.5.2).
    InfiniteLoop,
}

impl FaultClass {
    /// All three, in sweep order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::WildWrite,
        FaultClass::WedgedRing,
        FaultClass::InfiniteLoop,
    ];

    /// Table/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::WildWrite => "wild_write",
            FaultClass::WedgedRing => "wedged_ring",
            FaultClass::InfiniteLoop => "infinite_loop",
        }
    }

    /// The value [`System::arm_driver_fault`] writes into the driver's
    /// `fault_arm` word to fault device `dev`: the payload compares it
    /// against the active adapter slot's index + 1, so only an
    /// invocation *on behalf of that device* trips — other devices'
    /// invocations in the same pass sail past the armed payload.
    pub fn arm_value(self, dev: u32) -> u32 {
        dev + 1
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The five shared driver bodies every `*_dev` wrapper tail-jumps into
/// after selecting `cur_adapter` — a payload placed right after each
/// label runs on every hot-path invocation regardless of which device
/// (or which entry wrapper) triggered it.
const FAULT_SITES: [&str; 5] = [
    "e1000_xmit_frame:",
    "e1000_xmit_batch:",
    "e1000_intr:",
    "e1000_poll_rx_budget:",
    "e1000_poll_rx_batch:",
];

/// Builds a driver source with a **device-conditional, one-shot**
/// fault of the given class injected into every hot-path entry
/// (`FAULT_SITES`): each invocation loads the `fault_arm` data word,
/// skips ahead when it is zero or names a different device (the word
/// holds faulted-device-index + 1, compared against the active
/// `cur_adapter` slot), and otherwise disarms it (the store persists
/// even though the invocation is about to die — abort stops execution,
/// it does not roll memory back) and executes the fault body. Arm it
/// at runtime with [`System::arm_driver_fault`]; exactly one
/// invocation on behalf of the named device faults — sibling devices'
/// invocations in the same pass are untouched — and recovery resumes
/// with the payload dormant.
///
/// The unarmed check is a handful of extra instructions per invocation,
/// so cycle figures from a sabotaged build are *not* comparable with
/// the stock driver — fault sweeps must compare against a control
/// system built from the **same** source with the fault never armed.
pub fn fault_injected_source(class: FaultClass) -> String {
    let mut src = twin_kernel::e1000::source();
    for (i, site) in FAULT_SITES.iter().enumerate() {
        let body = match class {
            FaultClass::WildWrite => {
                "    movl $0xf0000100, %eax\n    movl $0x41414141, (%eax)".to_string()
            }
            FaultClass::WedgedRing => "    movl cur_adapter, %eax\n    movl $1, (%eax)".to_string(),
            FaultClass::InfiniteLoop => {
                format!(".Lfault_spin_{i}:\n    jmp .Lfault_spin_{i}")
            }
        };
        let payload = format!(
            "{site}\n    pushl %eax\n    pushl %ecx\n    movl fault_arm, %eax\n    \
             cmpl $0, %eax\n    je .Lfault_skip_{i}\n    movl cur_adapter, %ecx\n    \
             subl $adapter, %ecx\n    shrl $7, %ecx\n    addl $1, %ecx\n    \
             cmpl %ecx, %eax\n    jne .Lfault_skip_{i}\n    movl $0, %ecx\n    \
             movl %ecx, fault_arm\n{body}\n.Lfault_skip_{i}:\n    popl %ecx\n    popl %eax"
        );
        src = src.replace(site, &payload);
    }
    // The arm word lives with the driver's other data, zero (dormant)
    // until a harness writes it.
    src.replace(
        "    .globl cur_adapter",
        "    .globl fault_arm\nfault_arm:\n    .long 0\n    .globl cur_adapter",
    )
}

/// One point of the fault sweep: a fault class injected into one device
/// of a multi-NIC system, with recovery latency, in-flight loss
/// accounting, and blast radius measured purely from registry deltas
/// (`nic{i}.rx_packets`, `fault.*`) plus the recovery log.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Fault class injected.
    pub class: FaultClass,
    /// NICs in the system.
    pub nics: u32,
    /// The faulted device.
    pub dev: u32,
    /// Frames offered per device per round.
    pub burst: usize,
    /// Fault episodes injected (the sweep's fault-rate axis).
    pub episodes: u32,
    /// Mean cycles from fault detection to device reset completion.
    pub recovery_cycles: u64,
    /// Queued deferred upcalls replayed natively during teardown
    /// (frees/unlocks the faulted driver owed the kernel).
    pub replayed: u64,
    /// In-flight work discarded with accounting (queued upcalls with no
    /// replay policy + in-flight frames attributed to the dead device).
    pub dropped: u64,
    /// Grant mappings revoked across all episodes (zero-copy pools the
    /// faulted image had cached).
    pub revoked_mappings: u64,
    /// Frames the faulted device delivered in the pre-fault window.
    pub pre_delivered: u64,
    /// Frames it delivered in an equal window after recovery.
    pub post_delivered: u64,
    /// Frames sibling devices delivered from the first fault onward.
    pub sibling_delivered: u64,
    /// Sibling frames over the same schedule on the unfaulted control.
    pub sibling_control: u64,
    /// Frames offered to the faulted device in aborted invocations
    /// (upper bound on wire loss per episode: one burst).
    pub lost_frames: u64,
}

impl FaultPoint {
    /// Post-recovery goodput as a fraction of pre-fault goodput
    /// (acceptance: ≥ 0.95).
    pub fn recovery_frac(&self) -> f64 {
        self.post_delivered as f64 / self.pre_delivered.max(1) as f64
    }

    /// Sibling goodput as a fraction of the unfaulted control run
    /// (acceptance: within 5% of 1.0 — zero cross-NIC blast radius).
    pub fn sibling_frac(&self) -> f64 {
        self.sibling_delivered as f64 / self.sibling_control.max(1) as f64
    }
}

/// A flow set that [`crate::ShardPolicy::FlowHash`] provably balances across
/// `num_nics` devices: exactly `flows_per_nic` flows hash to each
/// device, found by scanning ids upward from
/// [`System::BALANCED_FLOW_BASE`] and keeping a flow only while its
/// device still has room. Returned in scan (ascending) order, so for
/// four NICs × two flows the set is exactly `203..=210` — the
/// hand-picked constant the autotune harness used to special-case —
/// and indexing round-robin by sequence number reproduces that
/// harness's traffic bit-exactly while generalising to any NIC count.
pub fn balanced_flow_set(num_nics: u32, flows_per_nic: usize) -> Vec<u32> {
    let n = num_nics.max(1);
    let mut per_dev = vec![0usize; n as usize];
    let mut out = Vec::with_capacity(n as usize * flows_per_nic);
    let mut flow = System::BALANCED_FLOW_BASE;
    while out.len() < n as usize * flows_per_nic {
        let dev = (flow.wrapping_mul(2_654_435_761) >> 16) % n;
        if per_dev[dev as usize] < flows_per_nic {
            per_dev[dev as usize] += 1;
            out.push(flow);
        }
        flow += 1;
    }
    out
}

/// Picks a flow id that [`ShardPolicy::FlowHash`] maps to `dev` (the
/// same multiplicative hash, mirrored), distinct per `salt` so repeated
/// windows can use fresh sequence spaces without colliding flows.
fn flow_for_dev(dev: u32, nics: u32, salt: u32) -> u32 {
    (0u32..)
        .map(|i| 0x5000 + salt * 1009 + i)
        .find(|f| (f.wrapping_mul(2_654_435_761) >> 16) % nics.max(1) == dev)
        .expect("some flow hashes to every device")
}

/// `burst` frames for device `dev`'s closed-loop fault schedule, on a
/// flow that hashes to it, numbered from its own sequence space.
fn fault_frames(dev: u32, nics: u32, burst: usize, seqs: &mut [u64]) -> Vec<Frame> {
    let flow = flow_for_dev(dev, nics, 0);
    (0..burst)
        .map(|_| {
            seqs[dev as usize] += 1;
            Frame {
                src: MacAddr([0x02, 0, 0, 0, 0, 0xfa]),
                ..wire_frame(MacAddr::for_guest(1), flow, seqs[dev as usize] - 1)
            }
        })
        .collect()
}

/// Offers both systems the identical closed-loop schedule: `rounds`
/// rounds of one `burst` per device.
fn paired_rounds(
    sys: &mut System,
    control: &mut System,
    rounds: u64,
    burst: usize,
    seqs: &mut [u64],
) -> Result<(), SystemError> {
    let nics = sys.nic_count() as u32;
    for _ in 0..rounds {
        for d in 0..nics {
            let frames = fault_frames(d, nics, burst, seqs);
            sys.receive_burst(&frames)?;
            control.receive_burst(&frames)?;
        }
    }
    Ok(())
}

/// Measures one fault-recovery episode set: identical closed-loop
/// per-device receive schedules run on `sys` (fault class armed
/// `episodes` times against device `dev`) and `control` (same sabotaged
/// source, never armed — see [`fault_injected_source`] for why the
/// control cannot be the stock driver). Both systems must be built with
/// [`crate::ShardPolicy::FlowHash`] and `sys` with `fault_recovery: true`.
///
/// Schedule: warm-up, a `rounds`-round pre-fault window, `episodes` ×
/// (one faulted round + one recovery round), then a `rounds`-round
/// post-recovery window. Each round offers `burst` frames to every
/// device through flows that hash to it. Per-device goodput comes from
/// `nic{i}.rx_packets` registry deltas; replay/drop accounting from the
/// `fault.*` counters and the recovery log.
///
/// # Errors
///
/// Propagates faults; [`SystemError::Build`] if the armed fault never
/// triggers or recovery does not occur (a broken harness must fail
/// loudly, not report vacuous goodput).
pub fn measure_fault_recovery(
    sys: &mut System,
    control: &mut System,
    dev: u32,
    class: FaultClass,
    rounds: u64,
    burst: usize,
    episodes: u32,
) -> Result<FaultPoint, SystemError> {
    let nics = sys.nic_count() as u32;
    let mut seqs: Vec<u64> = vec![0; nics as usize];
    // Closed-loop warm-up: fill every ring's buffer-swap cycle on both
    // systems so the measured windows see steady state.
    paired_rounds(sys, control, 4, burst, &mut seqs)?;
    let m0f = sys.metrics();
    paired_rounds(sys, control, rounds, burst, &mut seqs)?;
    let (m1f, m1c) = (sys.metrics(), control.metrics());

    // Fault episodes: arm, run one round (the target burst dies inside
    // the driver — whole burst counted lost, the bounded per-episode
    // loss), then one recovery round (the target's next invocation
    // finds the device quarantined, resets it, and serves). The control
    // runs the identical schedule unarmed.
    let mut lost = 0u64;
    for _ in 0..episodes {
        for round in 0..2 {
            for d in 0..nics {
                let frames = fault_frames(d, nics, burst, &mut seqs);
                control.receive_burst(&frames)?;
                if round == 0 && d == dev {
                    // Device-conditional arming: the one-shot payload
                    // fires on the target's next invocation only;
                    // sibling invocations sail past it.
                    sys.arm_driver_fault(class.arm_value(dev))?;
                    match sys.receive_burst(&frames) {
                        Err(SystemError::DriverAborted(_)) => lost += frames.len() as u64,
                        Ok(_) => {
                            return Err(SystemError::Build(format!(
                                "armed {class} fault never triggered on dev {dev}"
                            )))
                        }
                        Err(e) => return Err(e),
                    }
                } else {
                    sys.receive_burst(&frames)?;
                }
            }
        }
    }
    let m2f = sys.metrics();
    if sys.recovery_log().len() != episodes as usize {
        return Err(SystemError::Build(format!(
            "{} recoveries logged, expected {episodes}",
            sys.recovery_log().len()
        )));
    }

    paired_rounds(sys, control, rounds, burst, &mut seqs)?;
    let (m3f, m3c) = (sys.metrics(), control.metrics());

    let rx = |d: &twin_trace::MetricSet, i: u32| d.counter(&format!("nic{i}.rx_packets"));
    let siblings = |hi: &twin_trace::MetricSet, lo: &twin_trace::MetricSet| -> u64 {
        let delta = hi.delta_since(lo);
        (0..nics).filter(|i| *i != dev).map(|i| rx(&delta, i)).sum()
    };
    let fault_span = m3f.delta_since(&m0f);
    let recovery_cycles = {
        let log = sys.recovery_log();
        log.iter()
            .map(|r| r.recovered_at - r.quarantined_at)
            .sum::<u64>()
            / log.len().max(1) as u64
    };
    // Flight-recorder export: a no-op unless TWIN_TRACE_OUT names a
    // directory (and empty unless the system was built with tracing).
    sys.export_trace(&format!("fault_{}", class.label()));
    Ok(FaultPoint {
        class,
        nics,
        dev,
        burst,
        episodes,
        recovery_cycles,
        replayed: fault_span.counter("fault.inflight_replayed"),
        dropped: fault_span.counter("fault.inflight_dropped"),
        revoked_mappings: sys
            .recovery_log()
            .iter()
            .map(|r| r.revoked_mappings as u64)
            .sum(),
        pre_delivered: rx(&m1f.delta_since(&m0f), dev),
        post_delivered: rx(&m3f.delta_since(&m2f), dev),
        sibling_delivered: siblings(&m3f, &m1f),
        sibling_control: siblings(&m3c, &m1c),
        lost_frames: lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_vs_link_bound() {
        // Very cheap packets: link-bound, low CPU.
        let t = throughput(1000.0, 5);
        assert_eq!(t.mbps, 5000.0);
        assert!(t.cpu_util < 0.2);
        // Expensive packets: CPU-bound.
        let t = throughput(30_000.0, 5);
        assert!(t.mbps < 5000.0);
        assert_eq!(t.cpu_util, 1.0);
    }

    #[test]
    fn paper_scale_sanity() {
        // ~9972 cycles/packet (domU-twin TX) should land in the high
        // 3000s of Mb/s, like the paper's 3902.
        let t = throughput(9972.0, 5);
        assert!((3000.0..4800.0).contains(&t.mbps), "{}", t.mbps);
        // ~21159 (baseline domU) lands near 1619.
        let t = throughput(21159.0, 5);
        assert!((1400.0..2100.0).contains(&t.mbps), "{}", t.mbps);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        let one = [42u64];
        assert_eq!(percentile(&one, 50.0), 42);
        assert_eq!(percentile(&one, 99.0), 42);
    }

    #[test]
    fn latency_stats_from_unsorted_samples() {
        let s = LatencyStats::from_samples(&[500, 100, 900, 300, 700]);
        assert_eq!(s.samples, 5);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, 900);
        assert_eq!(s.max, 900);
        assert!(s.p50 <= s.p99);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
        let row = s.row();
        assert!(row.contains("p50"));
        assert!(row.contains("p99"));
    }

    #[test]
    fn reservoir_exact_below_capacity_bounded_above() {
        let mut r = SampleReservoir::new(8);
        for v in 0..8u64 {
            r.push(v);
        }
        // Below capacity: every sample retained in order — percentiles
        // are exact.
        assert_eq!(r.samples(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.seen(), 8);
        for v in 8..10_000u64 {
            r.push(v);
        }
        // Above: bounded at capacity, still a subset of what was pushed.
        assert_eq!(r.len(), 8);
        assert_eq!(r.seen(), 10_000);
        assert!(r.samples().iter().all(|&v| v < 10_000));
        // Determinism: an identical run holds identical samples.
        let mut r2 = SampleReservoir::new(8);
        for v in 0..10_000u64 {
            r2.push(v);
        }
        assert_eq!(r.samples(), r2.samples());
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.seen(), 0);
    }

    #[test]
    fn reservoir_spreads_over_the_whole_stream() {
        // A uniform reservoir over a long stream must keep samples from
        // early, middle and late thirds — a head-only or tail-only cap
        // would skew the percentiles a long paced run reports.
        let n = 300_000u64;
        let mut r = SampleReservoir::new(1024);
        for v in 0..n {
            r.push(v);
        }
        let third = |lo: u64, hi: u64| r.samples().iter().filter(|&&v| v >= lo && v < hi).count();
        let (a, b, c) = (
            third(0, n / 3),
            third(n / 3, 2 * n / 3),
            third(2 * n / 3, n),
        );
        assert_eq!(a + b + c, 1024);
        for (name, k) in [("early", a), ("middle", b), ("late", c)] {
            assert!(
                (170..=512).contains(&k),
                "{name} third holds {k} of 1024 samples"
            );
        }
    }

    #[test]
    fn load_profile_gaps_share_the_heavy_knob() {
        assert_eq!(LoadProfile::Step.gaps(150_000), vec![900_000, 150_000]);
        assert_eq!(
            LoadProfile::Ramp.gaps(150_000),
            vec![900_000, 450_000, 150_000]
        );
        assert_eq!(LoadProfile::Step.label(), "step");
        assert_eq!(LoadProfile::Ramp.to_string(), "ramp");
    }

    #[test]
    fn breakdown_row_mentions_categories() {
        let mut m = CycleMeter::new();
        m.charge_to(CostDomain::Xen, 500);
        m.charge_to(CostDomain::Driver, 100);
        let b = Breakdown::from_meter(&m, 10);
        assert_eq!(b.cycles(CostDomain::Xen), 50.0);
        assert_eq!(b.total(), 60.0);
        let row = b.row("test");
        assert!(row.contains("Xen"));
        assert!(row.contains("e1000"));
    }
}
