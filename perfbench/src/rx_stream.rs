//! `rx_stream`: a closed-loop receive stream on TwinDrivers with four
//! NICs under flow-hash sharding, zero-copy pools and one guest. MTU
//! frames arrive in bursts of 32 through `receive_burst`, each burst
//! sent only after the previous one was delivered.
//!
//! This is the headline datapath point: burst, demux, grant-cache and
//! NIC-batch code do the host work, while the interpreter runs few
//! instructions per packet and no upcall, admission or scheduler code
//! runs — the workload that bypasses those layers.

use crate::common::{self, ensure, wire_frame, Rep, Rng, Window};
use crate::probe::Probe;
use std::time::Instant;
use twindrivers::net::{MacAddr, MTU};
use twindrivers::{Config, ShardPolicy, System, SystemOptions};

const NICS: usize = 4;
const BURST: usize = 32;
/// The flows the library's own receive generator cycles over, so the
/// shard split matches the committed zero-copy baseline's point.
const FLOWS: [u32; 8] = [101, 102, 103, 104, 105, 106, 107, 108];
/// Single-frame warm-up per NIC: more than one full RX-ring cycle, so
/// every ring has swapped its initial buffers.
const WARMUP_PER_NIC: usize = 160;
/// Bursts of the priming pass, which maps the pool slots first touched
/// at burst size.
const PRIME_BURSTS: usize = 4;
/// Measured bursts: one latency sample each, so at least 1,000.
const BURSTS: usize = 1024;

/// Burst generator: each burst carries every flow `BURST / FLOWS`
/// times, in an order drawn from the seed, with per-flow sequence
/// numbers increasing.
struct Gen {
    rng: Rng,
    seq: u64,
    dst: MacAddr,
}

impl Gen {
    fn burst(&mut self) -> Vec<twindrivers::net::Frame> {
        let mut flows: Vec<u32> = FLOWS.iter().copied().cycle().take(BURST).collect();
        self.rng.shuffle(&mut flows);
        flows
            .into_iter()
            .map(|flow| {
                self.seq += 1;
                wire_frame(self.dst, MTU, flow, self.seq)
            })
            .collect()
    }
}

pub fn run(seed: u64, recorder: bool, probe: &mut Probe) -> Result<Rep, String> {
    let opts = SystemOptions {
        num_nics: NICS,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        tracing: recorder,
        ..SystemOptions::default()
    };
    let t = Instant::now();
    let mut sys = probe
        .call("core.build_with", || {
            System::build_with(Config::TwinDrivers, &opts)
        })
        .map_err(|e| format!("build: {e}"))?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    let gid = sys.guest.ok_or("no primary guest")?;

    let mut gen = Gen {
        rng: Rng::new(seed),
        seq: 0,
        dst: MacAddr::for_guest(gid.0),
    };
    let warm = probe.open("bench.warmup");
    for i in 0..WARMUP_PER_NIC * NICS {
        gen.seq += 1;
        let f = wire_frame(gen.dst, MTU, FLOWS[i % FLOWS.len()], gen.seq);
        probe
            .call("core.receive_frame", || sys.receive_frame(&f))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    for _ in 0..PRIME_BURSTS {
        let frames = gen.burst();
        probe
            .call("core.receive_burst", || sys.receive_burst(&frames))
            .map_err(|e| format!("priming: {e}"))?;
    }
    probe.close(warm);

    let clock0 = sys.machine.meter.now();
    let mut window = Window::open(&sys, probe, setup_ns);
    let mut lat = Vec::with_capacity(BURSTS);
    for _ in 0..BURSTS {
        let root = probe.begin_request("bench.burst");
        let frames = gen.burst();
        let c0 = sys.machine.meter.now();
        let n = probe
            .call("core.receive_burst", || sys.receive_burst(&frames))
            .map_err(|e| format!("receive_burst: {e}"))?;
        lat.push(sys.machine.meter.now() - c0);
        probe.end_request(root);
        window.lap();
        ensure(n == BURST, || format!("burst delivered {n} of {BURST}"))?;
    }
    let mut rep = window.close(&sys, probe);
    let model = &mut rep.model;
    let offered = (BURSTS * BURST) as u64;
    model.insert("offered".into(), offered);
    model.insert("span".into(), sys.machine.meter.now() - clock0);
    model.insert(
        "wire_bits".into(),
        offered * twindrivers::net::wire_bits(MTU),
    );
    model.insert("reorders".into(), common::reorders(&sys));
    common::record_latency(model, "lat", &lat);
    Ok(rep)
}
