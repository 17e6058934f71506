//! `pingpong`: closed-loop request/response, one packet at a time, on
//! TwinDrivers with one NIC, the copy path and two support routines
//! forced onto synchronous upcalls (the paper's Figure 10 regime). Each
//! transaction takes one minimum-size request through `receive_frame`
//! and sends one MTU response through `transmit_one`.
//!
//! This is the paper's per-packet path: interpreted driver code, domain
//! switches, synchronous upcalls, SVM/stlb lookups and grant copies,
//! with no burst amortisation, grant cache, DRR or NAPI.

use crate::common::{self, ensure, wire_frame, Rep, Rng, Window};
use crate::probe::Probe;
use std::time::Instant;
use twindrivers::net::{wire_bits, MacAddr, MTU};
use twindrivers::{Config, System, SystemOptions, UpcallMode};

/// Minimum Ethernet payload: the request size.
const REQUEST_PAYLOAD: u32 = 46;
/// Request flows the seed draws from.
const REQUEST_FLOWS: u64 = 16;
/// Transactions before the window: more than one RX-ring cycle.
const WARMUP_TXNS: usize = 160;
/// Measured transactions: one latency sample each.
const TXNS: usize = 2048;

/// The remote end: sends requests, checks the responses on the wire.
struct Client {
    rng: Rng,
    dst: MacAddr,
    seq: u64,
    /// Sequence number the next response must carry.
    wire_seq: Option<u64>,
}

impl Client {
    /// One request in, one response out; returns the modelled round
    /// trip. Exactly one full-size response must reach the wire, in
    /// order.
    fn transaction(&mut self, sys: &mut System, probe: &mut Probe) -> Result<u64, String> {
        self.seq += 1;
        let flow = 1 + self.rng.below(REQUEST_FLOWS) as u32;
        let req = wire_frame(self.dst, REQUEST_PAYLOAD, flow, self.seq);
        let c0 = sys.machine.meter.now();
        probe
            .call("core.receive_frame", || sys.receive_frame(&req))
            .map_err(|e| format!("receive_frame: {e}"))?;
        probe
            .call("core.transmit_one", || sys.transmit_one())
            .map_err(|e| format!("transmit_one: {e}"))?;
        let round_trip = sys.machine.meter.now() - c0;
        let wire = sys.take_wire_frames();
        let n = self.seq;
        ensure(wire.len() == 1, || {
            format!("transaction {n}: {} wire frames", wire.len())
        })?;
        let f = &wire[0];
        ensure(f.payload_len == MTU, || {
            format!("transaction {n}: response payload {}", f.payload_len)
        })?;
        if let Some(expected) = self.wire_seq {
            ensure(f.seq == expected, || {
                format!("transaction {n}: response seq {} out of order", f.seq)
            })?;
        }
        self.wire_seq = Some(f.seq + 1);
        Ok(round_trip)
    }
}

pub fn run(seed: u64, recorder: bool, probe: &mut Probe) -> Result<Rep, String> {
    let opts = SystemOptions {
        upcall_count: 2,
        upcall_mode: UpcallMode::Sync,
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

    let mut client = Client {
        rng: Rng::new(seed),
        dst: MacAddr::for_guest(gid.0),
        seq: 0,
        wire_seq: None,
    };
    for _ in 0..WARMUP_TXNS {
        client.transaction(&mut sys, probe)?;
    }
    let clock0 = sys.machine.meter.now();
    let mut window = Window::open(&sys, probe, setup_ns);
    let mut lat = Vec::with_capacity(TXNS);
    for _ in 0..TXNS {
        let root = probe.begin_request("bench.txn");
        lat.push(client.transaction(&mut sys, probe)?);
        probe.end_request(root);
        window.lap();
    }
    let mut rep = window.close(&sys, probe);
    let model = &mut rep.model;
    let txns = TXNS as u64;
    model.insert("offered".into(), txns);
    model.insert("span".into(), sys.machine.meter.now() - clock0);
    model.insert(
        "wire_bits".into(),
        txns * (wire_bits(REQUEST_PAYLOAD) + wire_bits(MTU)),
    );
    model.insert("reorders".into(), common::reorders(&sys));
    common::record_latency(model, "lat", &lat);
    Ok(rep)
}
