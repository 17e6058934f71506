//! `overload`: open-loop multi-guest overload on TwinDrivers with four
//! NICs under scheduler-aware affinity sharding. One guest is flooded by
//! a seeded elephant-and-mice stream; two victim guests, whose vCPUs run
//! at 50% duty and move to the next CPU every 16 wakeups, receive a
//! fixed trickle. NAPI polling, the admission
//! watermark, capped demux queues, weighted DRR, zero-copy pools and
//! deferred upcalls with a flush deadline are all on.
//!
//! Arrivals land through `rx_open_loop_arrival` on a fixed virtual-time
//! schedule — the gap and the offered load per arrival are constants,
//! never recalibrated, so a faster model does not change the offered
//! load — and the consumer runs through `rx_open_loop_service` in the
//! gaps. Victim latency is timed from the *scheduled* arrival, and the
//! generator's lateness against the schedule is reported.
//!
//! This is the only workload where admission, NAPI, DRR, virtual
//! timers, scheduler affinity and the deferred-upcall engine do the
//! work, and the only one where goodput, loss and tail latency move.

use crate::common::{self, ensure, sum_field, wire_frame, Rep, Rng, Window};
use crate::probe::Probe;
use std::time::Instant;
use twindrivers::net::{wire_bits, Frame, MacAddr, MTU};
use twindrivers::system::DomId;
use twindrivers::{Config, SchedOptions, ShardPolicy, System, SystemOptions, UpcallMode};

const NICS: usize = 4;
const CPUS: u32 = 4;
const NAPI_WEIGHT: usize = 8;
const WATERMARK: usize = 64;
const QUEUE_CAP: usize = 128;
const FLUSH_QUANTUM: usize = 8;
const VICTIM_WEIGHT: u32 = 2;
const FLUSH_DEADLINE_CYCLES: u64 = 200_000;
/// Victim vCPU schedule: 300k cycles running, 300k asleep (50% duty).
const PHASE_CYCLES: u64 = 300_000;
/// The hypervisor scheduler moves a victim's vCPU to the next CPU
/// after this many wakeups, and affinity placement follows it.
const MIGRATE_PERIOD: u32 = 16;
/// Scheduled gap between arrivals, in virtual cycles: the knee, i.e.
/// the time this configuration's consumer needs for one 32-frame burst
/// (32 x the 16,351 cycles per packet of a closed-loop burst-32 receive
/// to the flooded guest, measured once and fixed here).
const GAP_CYCLES: u64 = 523_000;
/// Frames per arrival: twice the knee's 32.
const FRAMES_PER_ARRIVAL: usize = 64;
/// Fixed trickle per victim per arrival.
const VICTIM_FRAMES: usize = 4;
/// One flood frame in this many belongs to a mouse flow.
const MOUSE_ONE_IN: u64 = 5;
const ELEPHANT_FLOW: u32 = 800;
const MICE_BASE: u32 = 1000;
const MICE: u64 = 64;
/// Victim flows are `VICTIM_FLOW_BASE + guest id`.
const VICTIM_FLOW_BASE: u32 = 900;
const WARMUP_PER_NIC: usize = 160;
const ARRIVALS: u64 = 200;
/// Every this many arrivals the frame accounting is checked mid-run.
const CHECK_EVERY: u64 = 8;

fn build(recorder: bool) -> Result<System, String> {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: ShardPolicy::Affinity,
        sched: Some(SchedOptions {
            num_cpus: CPUS,
            migrate_period: MIGRATE_PERIOD,
            ..SchedOptions::default()
        }),
        napi_weight: NAPI_WEIGHT,
        rx_backlog_watermark: Some(WATERMARK),
        rx_queue_cap: Some(QUEUE_CAP),
        rx_flush_quantum: FLUSH_QUANTUM,
        guest_weights: vec![(2, VICTIM_WEIGHT), (3, VICTIM_WEIGHT)],
        zero_copy: true,
        upcall_count: 2,
        upcall_mode: UpcallMode::Deferred,
        upcall_flush_deadline_cycles: Some(FLUSH_DEADLINE_CYCLES),
        tracing: recorder,
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).map_err(|e| format!("build: {e}"))
}

/// The arrival generator: each victim's fixed trickle first, then the
/// flood — one elephant flow plus seeded mice.
struct Gen {
    rng: Rng,
    seq: u64,
    flood: MacAddr,
    victims: Vec<DomId>,
}

impl Gen {
    fn arrival(&mut self) -> Vec<Frame> {
        let mut out = Vec::with_capacity(FRAMES_PER_ARRIVAL);
        for v in &self.victims {
            for _ in 0..VICTIM_FRAMES {
                self.seq += 1;
                out.push(wire_frame(
                    MacAddr::for_guest(v.0),
                    MTU,
                    VICTIM_FLOW_BASE + v.0,
                    self.seq,
                ));
            }
        }
        while out.len() < FRAMES_PER_ARRIVAL {
            let flow = if self.rng.below(MOUSE_ONE_IN) == 0 {
                MICE_BASE + self.rng.below(MICE) as u32
            } else {
                ELEPHANT_FLOW
            };
            self.seq += 1;
            out.push(wire_frame(self.flood, MTU, flow, self.seq));
        }
        out
    }
}

/// `offered + already waiting == delivered + every drop + still waiting`
/// since the window opened.
fn check_accounting(
    sys: &System,
    probe: &mut Probe,
    m0: &twindrivers::trace::MetricSet,
    offered: u64,
    waiting0: u64,
) -> Result<(), String> {
    let m = probe.call("core.metrics", || sys.metrics());
    let d: std::collections::BTreeMap<String, u64> = m
        .delta_since(m0)
        .counters()
        .map(|(k, v)| (format!("m.{k}"), v))
        .collect();
    let delivered = sum_field(&d, "guest", "delivered");
    let dropped = sum_field(&d, "guest", "early_drops")
        + sum_field(&d, "guest", "queue_drops")
        + sum_field(&d, "nic", "rx_missed");
    let waiting = common::queued(sys) + common::ring_pending(sys);
    ensure(offered + waiting0 == delivered + dropped + waiting, || {
        format!(
            "frame accounting: offered {offered} + waiting {waiting0} != delivered {delivered} + dropped {dropped} + waiting {waiting}"
        )
    })
}

pub fn run(seed: u64, recorder: bool, probe: &mut Probe) -> Result<Rep, String> {
    let t = Instant::now();
    let mut sys = probe.call("core.build_with", || build(recorder))?;
    let mut guests = vec![sys.guest.ok_or("no primary guest")?];
    for g in 2..=3 {
        let gid = probe
            .call("core.add_guest", || sys.add_guest(MacAddr::for_guest(g)))
            .map_err(|e| format!("add_guest: {e}"))?;
        probe
            .call("core.grant_zero_copy_pool", || {
                sys.grant_zero_copy_pool(gid)
            })
            .map_err(|e| format!("grant: {e}"))?;
        guests.push(gid);
    }
    let setup_ns = t.elapsed().as_nanos() as u64;
    let (flood, victims) = (guests[0], guests[1..].to_vec());

    // Closed-loop warm-up before any vCPU exists: every ring completes
    // its buffer-swap cycle.
    let warm = probe.open("bench.warmup");
    let flows = twindrivers::balanced_flow_set(NICS as u32, 2);
    for i in 0..WARMUP_PER_NIC * NICS {
        let f = wire_frame(
            MacAddr::for_guest(flood.0),
            MTU,
            flows[i % flows.len()],
            i as u64 + 1,
        );
        probe
            .call("core.receive_frame", || sys.receive_frame(&f))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    for (i, v) in victims.iter().enumerate() {
        probe
            .call("core.sched_add_vcpu", || {
                sys.sched_add_vcpu(*v, 1 + i as u32, PHASE_CYCLES, PHASE_CYCLES)
            })
            .map_err(|e| format!("sched_add_vcpu: {e}"))?;
    }
    sys.track_guest_latency();
    probe.close(warm);

    let mut gen = Gen {
        rng: Rng::new(seed),
        seq: 1_000_000,
        flood: MacAddr::for_guest(flood.0),
        victims: victims.clone(),
    };
    let mut window = Window::open(&sys, probe, setup_ns);
    let m0 = window.base().clone();
    let waiting0 = common::queued(&sys) + common::ring_pending(&sys);
    let t0 = sys.machine.meter.now();
    let mut offered = 0u64;
    let mut lag_max = 0u64;
    for k in 0..ARRIVALS {
        let due = t0 + k * GAP_CYCLES;
        let root = probe.begin_request("bench.arrival");
        probe
            .call("core.rx_open_loop_service", || {
                sys.rx_open_loop_service(due)
            })
            .map_err(|e| format!("rx_open_loop_service: {e}"))?;
        lag_max = lag_max.max(sys.machine.meter.now().saturating_sub(due));
        let frames = gen.arrival();
        offered += frames.len() as u64;
        probe
            .call("core.rx_open_loop_arrival", || {
                sys.rx_open_loop_arrival(&frames, due)
            })
            .map_err(|e| format!("rx_open_loop_arrival: {e}"))?;
        if (k + 1) % CHECK_EVERY == 0 {
            check_accounting(&sys, probe, &m0, offered, waiting0)?;
        }
        probe.end_request(root);
        window.lap();
    }
    // The last arrival gets one gap of service, then the window closes;
    // what is still waiting then is not goodput.
    let end = t0 + ARRIVALS * GAP_CYCLES;
    let root = probe.begin_request("bench.arrival");
    probe
        .call("core.rx_open_loop_service", || {
            sys.rx_open_loop_service(end)
        })
        .map_err(|e| format!("rx_open_loop_service: {e}"))?;
    probe.end_request(root);
    check_accounting(&sys, probe, &m0, offered, waiting0)?;
    let mut rep = window.close(&sys, probe);
    let model = &mut rep.model;
    let delivered = sum_field(model, "guest", "delivered");
    model.insert("offered".into(), offered);
    model.insert("span".into(), ARRIVALS * GAP_CYCLES);
    model.insert("wire_bits".into(), delivered * wire_bits(MTU));
    model.insert("gen_lag_max".into(), lag_max);
    model.insert("reorders".into(), common::reorders(&sys));
    let victim_lat: Vec<u64> = victims
        .iter()
        .flat_map(|v| sys.guest_rx_latency(*v).iter().copied())
        .collect();
    common::record_latency(model, "lat", &victim_lat);
    Ok(rep)
}
