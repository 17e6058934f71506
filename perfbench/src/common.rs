//! What every workload shares: the seeded generator, the measured
//! window (a pair of `System::metrics()` snapshots around the timed
//! loop), the per-repetition result and the checks on delivered frames.

use crate::probe::{CallStat, Probe};
use std::collections::BTreeMap;
use std::time::Instant;
use twindrivers::net::{EtherType, Frame, MacAddr};
use twindrivers::System;

/// splitmix64: a small, fast, seedable generator; the same seed gives
/// the same inputs on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7d1a_5eed_7d1a)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A frame from the wire peer to `dst`.
pub fn wire_frame(dst: MacAddr, payload_len: u32, flow: u32, seq: u64) -> Frame {
    Frame {
        dst,
        src: twindrivers::peer_mac(),
        ethertype: EtherType::Ipv4,
        payload_len,
        flow,
        seq,
    }
}

/// One repetition of a workload: a fresh system, set up, warmed up and
/// driven through the workload's fixed amount of work.
pub struct Rep {
    /// Host time of the set-up calls (`build_with`, `add_guest`, pool
    /// grants).
    pub setup_ns: u64,
    /// Host time of the measured window.
    pub window_ns: u64,
    /// The window's host time cut into chunks, one per request (burst,
    /// transaction or arrival): chunk `i` does the same modelled work in
    /// every repetition.
    pub chunks_ns: Vec<u64>,
    /// Modelled counters of the window; identical for every repetition
    /// with the same seed.
    pub model: BTreeMap<String, u64>,
    /// Calls and allocations made in the window, per call name.
    pub calls: BTreeMap<&'static str, CallStat>,
    /// Span cursor at the window's start.
    pub spans_from: usize,
}

impl Rep {
    pub fn get(&self, key: &str) -> u64 {
        self.model.get(key).copied().unwrap_or(0)
    }
}

/// The measured window: `System::metrics()` and meter snapshots at its
/// start, host time from its start in chunks.
pub struct Window {
    setup_ns: u64,
    m0: twindrivers::trace::MetricSet,
    queued0: u64,
    ring_pending0: u64,
    insns0: u64,
    charged0: u64,
    upcalls0: usize,
    spans_from: usize,
    t0: Instant,
    lap: Instant,
    chunks_ns: Vec<u64>,
}

impl Window {
    /// Opens the window of a repetition whose set-up took `setup_ns`.
    pub fn open(sys: &System, probe: &mut Probe, setup_ns: u64) -> Window {
        probe.reset_calls();
        let spans_from = probe.span_count();
        let m0 = probe.call("core.metrics", || sys.metrics());
        let t0 = Instant::now();
        Window {
            setup_ns,
            m0,
            queued0: queued(sys),
            ring_pending0: ring_pending(sys),
            insns0: sys.machine.meter.insns(),
            charged0: sys.machine.meter.total_cycles(),
            upcalls0: sys.upcall_latency_samples().len(),
            spans_from,
            t0,
            lap: t0,
            chunks_ns: Vec::new(),
        }
    }

    /// Ends the current chunk of host time.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.chunks_ns.push((now - self.lap).as_nanos() as u64);
        self.lap = now;
    }

    /// The `metrics()` snapshot taken when the window opened.
    pub fn base(&self) -> &twindrivers::trace::MetricSet {
        &self.m0
    }

    /// Closes the window: host time, then every `metrics()` counter's
    /// change (under `m.`) plus interpreted instructions (`insns`),
    /// charged cycles (`charged`), and frames waiting in guest queues
    /// (`queued`) and RX rings (`ring_pending`) at both ends, and the
    /// window's upcall completion latencies (`upcall_lat.*`).
    pub fn close(mut self, sys: &System, probe: &mut Probe) -> Rep {
        self.lap();
        let window_ns = self.t0.elapsed().as_nanos() as u64;
        let m1 = probe.call("core.metrics", || sys.metrics());
        let mut model: BTreeMap<String, u64> = m1
            .delta_since(&self.m0)
            .counters()
            .map(|(k, v)| (format!("m.{k}"), v))
            .collect();
        model.insert("insns".into(), sys.machine.meter.insns() - self.insns0);
        model.insert(
            "charged".into(),
            sys.machine.meter.total_cycles() - self.charged0,
        );
        model.insert("queued0".into(), self.queued0);
        model.insert("ring_pending0".into(), self.ring_pending0);
        model.insert("queued".into(), queued(sys));
        model.insert("ring_pending".into(), ring_pending(sys));
        record_latency(
            &mut model,
            "upcall_lat",
            &sys.upcall_latency_samples()[self.upcalls0..],
        );
        Rep {
            setup_ns: self.setup_ns,
            window_ns,
            chunks_ns: self.chunks_ns,
            model,
            calls: probe.calls.clone(),
            spans_from: self.spans_from,
        }
    }
}

/// Sum of the `m.<prefix>*.<field>` counters, e.g. every guest's
/// `delivered`.
pub fn sum_field(model: &BTreeMap<String, u64>, prefix: &str, field: &str) -> u64 {
    let head = format!("m.{prefix}");
    let tail = format!(".{field}");
    model
        .iter()
        .filter(|(k, _)| {
            k.starts_with(&head)
                && k.ends_with(&tail)
                && k[head.len()..k.len() - tail.len()]
                    .chars()
                    .all(|c| c.is_ascii_digit())
        })
        .map(|(_, v)| *v)
        .sum()
}

/// Per-(guest, flow) sequence inversions across every guest's delivered
/// log.
pub fn reorders(sys: &System) -> u64 {
    let Some(xen) = sys.world.xen.as_ref() else {
        return 0;
    };
    let mut inversions = 0;
    for d in &xen.domains {
        let mut last: BTreeMap<u32, u64> = BTreeMap::new();
        for f in &d.rx_delivered {
            if let Some(prev) = last.insert(f.flow, f.seq) {
                if f.seq <= prev {
                    inversions += 1;
                }
            }
        }
    }
    inversions
}

/// Frames waiting in guest demux queues.
pub fn queued(sys: &System) -> u64 {
    sys.world.xen.as_ref().map_or(0, |x| {
        x.domains.iter().map(|d| d.rx_queue.len() as u64).sum()
    })
}

/// Frames filled into RX rings and not yet reaped, over every NIC.
pub fn ring_pending(sys: &System) -> u64 {
    sys.world
        .nics
        .iter()
        .map(|n| u64::from(n.rx_pending()))
        .sum()
}

/// Records the nearest-rank count, p50 and p99 of `samples` under
/// `<name>.*`.
pub fn record_latency(model: &mut BTreeMap<String, u64>, name: &str, samples: &[u64]) {
    let s = twindrivers::LatencyStats::from_samples(samples);
    model.insert(format!("{name}.count"), s.samples as u64);
    model.insert(format!("{name}.p50"), s.p50);
    model.insert(format!("{name}.p99"), s.p99);
}

/// Fails with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}
