//! The TwinDrivers benchmark: three workloads, measured end to end and
//! per layer, on both of the system's clocks.
//!
//! * The **modelled** clock is the simulation's virtual cycles: cycles
//!   per packet, goodput, latency and the delivered share. These are
//!   deterministic for a seed, and the benchmark checks that every
//!   repetition reproduces them exactly.
//! * The **host** clock is how fast the simulator itself runs: simulated
//!   packets per host second, set-up time and peak memory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rx_stream|pingpong|overload|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One repetition builds a fresh system, warms it up and drives the
//! workload's fixed amount of work through public `System` calls; a run
//! repeats it for `--seconds`. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics,
//! interleaving untraced repetitions, repetitions with benchmark spans
//! around every call, and repetitions with the library's flight recorder
//! on, and writes the spans to `perfbench/spans/`. Every run checks the
//! workload's outputs; a failed check prints no numbers and exits 1.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! End-to-end metrics. A packet is a frame delivered to a guest or sent
//! on the wire in the measured window.
//! * `cycles_per_pkt`: charged modelled cycles per packet.
//! * `goodput_mbps`: wire bits of the packets over the modelled time the
//!   window spans (for `overload`, the arrival schedule).
//! * `lat_p50_cycles`, `lat_p99_cycles`: nearest-rank percentiles of a
//!   `rx_stream` burst's delivery time, a `pingpong` round trip, or an
//!   `overload` victim frame's time from its scheduled arrival to
//!   delivery; `bench.lat_samples` counts them (at least 1,000).
//! * `delivered_frac`: frames delivered over frames offered (1 in the
//!   closed loops, which the checks require).
//! * `sim_pkts_per_s`: packets per host second. Each window is timed in
//!   chunks of the same modelled work in every repetition; a chunk's
//!   time is its fastest repetition's (other tenants of the host only
//!   ever slow a chunk down), and the window's is their sum.
//! * `setup_s`: median host time of a repetition's set-up calls.
//! * `peak_rss_mb`: the process's peak resident set (VmHWM).

mod alloc;
mod common;
mod model;
mod overload;
mod pingpong;
mod probe;
mod rx_stream;

use common::{ensure, sum_field, Rep};
use probe::Probe;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

type RunFn = fn(u64, bool, &mut Probe) -> Result<Rep, String>;

/// `(name, one repetition, whether it is a closed loop)`.
const WORKLOADS: [(&str, RunFn, bool); 3] = [
    ("rx_stream", rx_stream::run, true),
    ("pingpong", pingpong::run, true),
    ("overload", overload::run, false),
];

/// Repetitions each variant runs at the least, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Modelled CPU frequency (cycles per modelled second).
const CPU_HZ: f64 = twindrivers::CPU_HZ;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric value with its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host time of one kind of repetition, with other tenants' slowdowns
/// filtered out. On a shared host other tenants only ever slow the
/// simulator down — by up to 2x, for tens of seconds at a time — so a
/// repetition's window is timed in chunks of the same modelled work,
/// each chunk's time is its fastest repetition's, and the window's is
/// their sum. Folding as repetitions arrive keeps the benchmark's own
/// memory independent of how many repetitions a run fits.
#[derive(Default)]
struct HostTimes {
    reps: usize,
    fastest_chunks_ns: Vec<u64>,
    setups_s: Vec<f64>,
}

impl HostTimes {
    fn add(&mut self, rep: &Rep) {
        if self.reps == 0 {
            self.fastest_chunks_ns = rep.chunks_ns.clone();
        }
        for (fastest, ns) in self.fastest_chunks_ns.iter_mut().zip(&rep.chunks_ns) {
            *fastest = (*fastest).min(*ns);
        }
        self.setups_s.push(rep.setup_ns as f64 / 1e9);
        self.reps += 1;
    }

    fn window_s(&self) -> f64 {
        self.fastest_chunks_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Packets moved in the window: frames delivered to guests plus frames
/// transmitted on the wire.
fn packets(rep: &Rep) -> u64 {
    sum_field(&rep.model, "guest", "delivered") + sum_field(&rep.model, "nic", "tx_packets")
}

/// The output checks every repetition must pass.
fn check(rep: &Rep, closed_loop: bool) -> Result<(), String> {
    let m = &rep.model;
    let delivered = sum_field(m, "guest", "delivered");
    let early = sum_field(m, "guest", "early_drops");
    let queue = sum_field(m, "guest", "queue_drops");
    let ring = sum_field(m, "nic", "rx_missed");
    let offered = rep.get("offered");
    let (q0, r0) = (rep.get("queued0"), rep.get("ring_pending0"));
    let (q1, r1) = (rep.get("queued"), rep.get("ring_pending"));
    ensure(
        offered + q0 + r0 == delivered + early + queue + ring + q1 + r1,
        || {
            format!("frames offered {offered} (+{q0} queued, +{r0} in rings) != delivered {delivered} + early {early} + queue {queue} + ring {ring} drops + {q1} queued + {r1} in rings")
        },
    )?;
    ensure(rep.get("reorders") == 0, || {
        format!("{} per-(guest, flow) reorders", rep.get("reorders"))
    })?;
    ensure(rep.get("lat.count") >= 1000, || {
        format!("only {} latency samples", rep.get("lat.count"))
    })?;
    let domains: u64 = ["dom0", "domU", "Xen", "e1000"]
        .iter()
        .map(|d| rep.get(&format!("m.meter.cycles.{d}")))
        .sum();
    ensure(domains == rep.get("charged"), || {
        format!("domain cycles {domains} != charged {}", rep.get("charged"))
    })?;
    ensure(packets(rep) > 0, || "no packets moved".into())?;
    // The per-domain shares of the per-layer split add up to the
    // end-to-end cycles per packet (to the last bits of an f64).
    let (mut e2e, mut layers) = (Metrics::new(), Metrics::new());
    modelled_end_to_end(rep, &mut e2e);
    modelled_per_layer(rep, &mut layers);
    let shares: f64 = layers
        .iter()
        .filter(|(k, _)| k.starts_with("machine.cycles_"))
        .map(|(_, (v, _))| v)
        .sum();
    let total = e2e["cycles_per_pkt"].0;
    ensure((shares - total).abs() <= total * 1e-12, || {
        format!("cycle shares sum to {shares}, cycles_per_pkt is {total}")
    })?;
    if closed_loop {
        ensure(delivered == offered && early + queue + ring == 0, || {
            format!("closed loop delivered {delivered} of {offered}")
        })?;
        // With no idle time, charged work is all the time that passed.
        ensure(rep.get("span") == rep.get("charged"), || {
            format!(
                "closed loop: {} cycles passed but {} charged",
                rep.get("span"),
                rep.get("charged")
            )
        })?;
    }
    Ok(())
}

/// End-to-end metrics on the modelled clock, from one repetition.
fn modelled_end_to_end(rep: &Rep, out: &mut Metrics) {
    let pkts = packets(rep);
    let delivered = sum_field(&rep.model, "guest", "delivered");
    out.insert(
        "cycles_per_pkt".into(),
        (ratio(rep.get("charged"), pkts), "cycles"),
    );
    let span_s = rep.get("span") as f64 / CPU_HZ;
    out.insert(
        "goodput_mbps".into(),
        (rep.get("wire_bits") as f64 / span_s / 1e6, "Mb/s"),
    );
    out.insert(
        "lat_p50_cycles".into(),
        (rep.get("lat.p50") as f64, "cycles"),
    );
    out.insert(
        "lat_p99_cycles".into(),
        (rep.get("lat.p99") as f64, "cycles"),
    );
    out.insert(
        "delivered_frac".into(),
        (ratio(delivered, rep.get("offered")), "fraction"),
    );
}

/// Per-layer metrics on the modelled clock, from one repetition.
fn modelled_per_layer(rep: &Rep, out: &mut Metrics) {
    let m = &rep.model;
    let pkts = packets(rep);
    let per_pkt = |v: u64| ratio(v, pkts);
    let ev = |name: &str| rep.get(&format!("m.event.{name}"));
    let offered = rep.get("offered");
    let delivered = sum_field(m, "guest", "delivered");
    let accepted = sum_field(m, "nic", "rx_packets");
    let reaped = (accepted + rep.get("ring_pending0")).saturating_sub(rep.get("ring_pending"));
    for (name, label) in [
        ("dom0", "dom0"),
        ("domU", "domU"),
        ("xen", "Xen"),
        ("driver", "e1000"),
    ] {
        out.insert(
            format!("machine.cycles_{name}_per_pkt"),
            (
                per_pkt(rep.get(&format!("m.meter.cycles.{label}"))),
                "cycles",
            ),
        );
    }
    out.insert(
        "machine.insns_per_pkt".into(),
        (per_pkt(rep.get("insns")), "count"),
    );
    out.insert(
        "svm.stlb_misses_per_pkt".into(),
        (per_pkt(ev("stlb_miss")), "count"),
    );
    out.insert(
        "svm.call_xlats_per_pkt".into(),
        (per_pkt(ev("stlb_call_xlat")), "count"),
    );
    out.insert("nic.irqs_per_pkt".into(), (per_pkt(ev("irq")), "count"));
    out.insert(
        "nic.doorbells_per_pkt".into(),
        (per_pkt(ev("doorbell")), "count"),
    );
    out.insert(
        "nic.mmio_per_pkt".into(),
        (per_pkt(ev("mmio_read") + ev("mmio_write")), "count"),
    );
    out.insert(
        "nic.ring_drop_frac".into(),
        (ratio(sum_field(m, "nic", "rx_missed"), offered), "fraction"),
    );
    out.insert(
        "xen.switches_per_pkt".into(),
        (per_pkt(rep.get("m.xen.switches")), "count"),
    );
    out.insert(
        "xen.hypercalls_per_pkt".into(),
        (per_pkt(rep.get("m.xen.hypercalls")), "count"),
    );
    out.insert(
        "xen.upcalls_per_pkt".into(),
        (per_pkt(rep.get("m.upcall.executed")), "count"),
    );
    out.insert(
        "xen.grant_copies_per_pkt".into(),
        (per_pkt(rep.get("m.grant.copies")), "count"),
    );
    out.insert(
        "xen.grant_maps_per_pkt".into(),
        (per_pkt(rep.get("m.grant.maps")), "count"),
    );
    let hits = rep.get("m.grantcache.hits");
    out.insert(
        "xen.grantcache_hit_ratio".into(),
        (
            ratio(hits, hits + rep.get("m.grantcache.misses")),
            "fraction",
        ),
    );
    out.insert(
        "xen.virqs_per_pkt".into(),
        (per_pkt(rep.get("m.xen.virqs_sent")), "count"),
    );
    out.insert(
        "xen.upcall_enqueues_per_flush".into(),
        (
            ratio(rep.get("m.upcall.enqueued"), rep.get("m.upcall.flushes")),
            "count",
        ),
    );
    out.insert(
        "xen.upcall_lat_p99_cycles".into(),
        (rep.get("upcall_lat.p99") as f64, "cycles"),
    );
    out.insert(
        "core.napi_polls_per_pkt".into(),
        (per_pkt(ev("napi_poll")), "count"),
    );
    out.insert(
        "core.delivered_per_reaped".into(),
        (ratio(delivered, reaped), "fraction"),
    );
    out.insert(
        "core.early_drop_frac".into(),
        (
            ratio(sum_field(m, "guest", "early_drops"), offered),
            "fraction",
        ),
    );
    out.insert(
        "core.queue_drop_frac".into(),
        (
            ratio(sum_field(m, "guest", "queue_drops"), offered),
            "fraction",
        ),
    );
    out.insert(
        "core.gen_lag_cycles_max".into(),
        (rep.get("gen_lag_max") as f64, "cycles"),
    );
    out.insert(
        "sched.cold_delivery_frac".into(),
        (ratio(ev("cold_delivery"), delivered), "fraction"),
    );
    out.insert(
        "sched.wakes".into(),
        (sum_field(m, "sched.guest", "wakes") as f64, "count"),
    );
    out.insert(
        "sched.migrations".into(),
        (rep.get("m.sched.migrations") as f64, "count"),
    );
    out.insert(
        "bench.lat_samples".into(),
        (rep.get("lat.count") as f64, "count"),
    );
}

/// Calls whose host time and allocations are split into the arrival,
/// consumer and transmit sides of the datapath.
const RX_ARRIVAL: [&str; 3] = [
    "core.receive_burst",
    "core.receive_frame",
    "core.rx_open_loop_arrival",
];
const RX_SERVICE: [&str; 1] = ["core.rx_open_loop_service"];
const TX: [&str; 1] = ["core.transmit_one"];

fn allocs_per_pkt(rep: &Rep, names: &[&str], out: &mut Metrics, key: &str) {
    let allocs: u64 = names
        .iter()
        .filter_map(|n| rep.calls.get(n))
        .map(|c| c.allocs)
        .sum();
    out.insert(key.into(), (ratio(allocs, packets(rep)), "count"));
}

/// Host-clock per-layer metrics from the spans of one traced repetition
/// (`from` is the span cursor at the repetition's start).
fn span_metrics(probe: &Probe, from: usize, rep: &Rep) -> Metrics {
    let all = probe.self_times(from);
    let window = probe.self_times(rep.spans_from);
    let self_ns = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|n| window.get(n))
            .map(|t| t.self_ns)
            .sum()
    };
    let total_s = |name: &str| all.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let pkts = packets(rep);
    let datapath = self_ns(&RX_ARRIVAL) + self_ns(&RX_SERVICE) + self_ns(&TX);
    let metrics = window.get("core.metrics").copied().unwrap_or_default();
    [
        ("isa.assemble_s", total_s("isa.assemble"), "s"),
        ("rewriter.rewrite_s", total_s("rewriter.rewrite"), "s"),
        ("core.build_s", total_s("core.build_with"), "s"),
        (
            "core.rx_arrival_ns_per_pkt",
            ratio(self_ns(&RX_ARRIVAL), pkts),
            "ns",
        ),
        (
            "core.rx_service_ns_per_pkt",
            ratio(self_ns(&RX_SERVICE), pkts),
            "ns",
        ),
        ("core.tx_ns_per_pkt", ratio(self_ns(&TX), pkts), "ns"),
        (
            "machine.host_ns_per_insn",
            ratio(datapath, rep.get("insns")),
            "ns",
        ),
        (
            "core.metrics_us_per_call",
            ratio(metrics.self_ns, metrics.spans) / 1e3,
            "us",
        ),
    ]
    .into_iter()
    .map(|(k, v, unit)| (k.to_string(), (v, unit)))
    .collect()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Every modelled counter must repeat exactly; `skip` names a key
/// prefix allowed to differ (the flight recorder's own counters).
fn same_model(a: &Rep, b: &Rep, skip: &str, what: &str) -> Result<(), String> {
    ensure(a.chunks_ns.len() == b.chunks_ns.len(), || {
        format!("host-time chunk counts differ between {what}")
    })?;
    let keep = |m: &BTreeMap<String, u64>| -> BTreeMap<String, u64> {
        m.iter()
            .filter(|(k, _)| skip.is_empty() || !k.starts_with(skip))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    let (ka, kb) = (keep(&a.model), keep(&b.model));
    if ka == kb {
        return Ok(());
    }
    let diff = ka
        .iter()
        .find(|(k, v)| kb.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", kb.get(k)))
        .unwrap_or_else(|| "key sets differ".into());
    Err(format!("modelled counters differ between {what} ({diff})"))
}

/// Which kind of repetition a traced run is on.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Variant {
    Plain,
    Spans,
    Recorder,
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
}

fn measure(name: &str, run: RunFn, closed_loop: bool, args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut probe = Probe::new();
    let mut metrics = Metrics::new();
    let mut attempted = 0;
    // Every repetition is checked against the first; only the first is
    // kept, with the host times folded into `HostTimes`.
    let mut accept = |first: &Option<Rep>, rep: &Rep, skip: &str, what: &str| {
        check(rep, closed_loop)?;
        attempted += rep.get("offered");
        match first {
            Some(first) => same_model(first, rep, skip, what),
            None => Ok(()),
        }
    };
    if !args.trace {
        let start = Instant::now();
        let mut first: Option<Rep> = None;
        let mut host = HostTimes::default();
        while host.reps < MIN_REPS || start.elapsed() < budget {
            let rep = run(args.seed, false, &mut probe)?;
            accept(&first, &rep, "", "repetitions")?;
            host.add(&rep);
            first.get_or_insert(rep);
        }
        let first = first.ok_or("no repetition ran")?;
        modelled_end_to_end(&first, &mut metrics);
        metrics.insert(
            "sim_pkts_per_s".into(),
            (packets(&first) as f64 / host.window_s(), "pkt/s"),
        );
        metrics.insert("setup_s".into(), (median(host.setups_s), "s"));
        metrics.insert("peak_rss_mb".into(), (peak_rss_mb()?, "MB"));
        return Ok(Outcome { metrics, attempted });
    }

    for (k, v) in model::rel_errors()? {
        metrics.insert(k, (v, "fraction"));
    }
    let source = twindrivers::kernel::e1000::source();
    let start = Instant::now();
    let mut base: Option<Rep> = None;
    let mut recorded: Option<Rep> = None;
    let (mut plain, mut spans, mut recorder) = (
        HostTimes::default(),
        HostTimes::default(),
        HostTimes::default(),
    );
    // Span figures of the traced repetition with the fastest window, for
    // the reason `HostTimes` gives.
    let mut span_figures: Option<(u64, Metrics)> = None;
    let order = [Variant::Plain, Variant::Spans, Variant::Recorder];
    let mut i = 0;
    while plain.reps.min(spans.reps).min(recorder.reps) < MIN_REPS || start.elapsed() < budget {
        let variant = order[i % order.len()];
        i += 1;
        probe.set_tracing(variant == Variant::Spans);
        let from = probe.span_count();
        if variant == Variant::Spans {
            // The two set-up stages `build_with` runs internally, timed
            // on their own.
            let module = probe
                .call("isa.assemble", || {
                    twindrivers::isa::asm::assemble("e1000", &source)
                })
                .map_err(|e| format!("assemble: {e}"))?;
            probe
                .call("rewriter.rewrite", || {
                    twindrivers::rewriter::rewrite(&module, &Default::default())
                })
                .map_err(|e| format!("rewrite: {e}"))?;
        }
        let rep = run(args.seed, variant == Variant::Recorder, &mut probe)?;
        probe.set_tracing(false);
        match variant {
            Variant::Plain => {
                accept(&base, &rep, "", "repetitions")?;
                if let Some(b) = &base {
                    ensure(b.calls == rep.calls, || {
                        "allocation counts differ between repetitions".into()
                    })?;
                }
                plain.add(&rep);
                base.get_or_insert(rep);
            }
            Variant::Spans => {
                accept(&base, &rep, "", "untraced and span-traced repetitions")?;
                if span_figures
                    .as_ref()
                    .is_none_or(|(ns, _)| rep.window_ns < *ns)
                {
                    span_figures = Some((rep.window_ns, span_metrics(&probe, from, &rep)));
                }
                spans.add(&rep);
            }
            Variant::Recorder => {
                // Tracing is free in the model: only the recorder's own
                // counters may differ between recorder-on and -off runs.
                accept(
                    &base,
                    &rep,
                    "m.trace.",
                    "recorder-off and recorder-on repetitions",
                )?;
                recorder.add(&rep);
                recorded.get_or_insert(rep);
            }
        }
    }
    let (base, recorded) = base.zip(recorded).ok_or("no repetition ran")?;
    modelled_per_layer(&base, &mut metrics);
    allocs_per_pkt(
        &base,
        &RX_ARRIVAL,
        &mut metrics,
        "core.rx_arrival_allocs_per_pkt",
    );
    allocs_per_pkt(
        &base,
        &RX_SERVICE,
        &mut metrics,
        "core.rx_service_allocs_per_pkt",
    );
    allocs_per_pkt(&base, &TX, &mut metrics, "core.tx_allocs_per_pkt");
    metrics.extend(span_figures.map(|(_, m)| m).unwrap_or_default());
    metrics.insert(
        "bench.span_overhead_frac".into(),
        (spans.window_s() / plain.window_s() - 1.0, "fraction"),
    );
    metrics.insert(
        "trace.recorder_overhead_frac".into(),
        (recorder.window_s() / plain.window_s() - 1.0, "fraction"),
    );
    metrics.insert(
        "trace.events_per_pkt".into(),
        (
            ratio(recorded.get("m.trace.events_recorded"), packets(&recorded)),
            "count",
        ),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{name}-seed{}.jsonl", args.seed));
    probe
        .write_spans(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(Outcome { metrics, attempted })
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs every workload, each in its own process, end to end and per
/// layer.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut all = Metrics::new();
    for (name, _, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: running {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            println!("== {name} (trace {trace})");
            for l in lines {
                println!("{l}");
            }
            ok &= out.status.success() && last.contains("\"correct\": true");
            let field = |key: &str| -> u64 {
                last.split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0)
            };
            attempted += field("attempted");
            failed += field("failed");
            // Each metric line of the table reads `name value unit`.
            for l in text.lines().filter(|l| l.starts_with("  ")) {
                let parts: Vec<&str> = l.split_whitespace().collect();
                if let [metric, value, unit] = parts[..] {
                    if let (Ok(v), Some(u)) = (value.parse(), UNITS.iter().find(|x| **x == unit)) {
                        all.insert(format!("{name}.{metric}"), (v, *u));
                    }
                }
            }
        }
    }
    println!("{}", result_json(ok, attempted, failed, &all));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every unit the benchmark prints.
const UNITS: [&str; 9] = [
    "cycles", "Mb/s", "fraction", "pkt/s", "s", "MB", "count", "ns", "us",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload rx_stream|pingpong|overload|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(&(name, run, closed_loop)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match measure(name, run, closed_loop, &args) {
        Ok(out) => {
            if let Some((k, _)) = out.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
                eprintln!("perfbench: {name}: metric {k} is not a finite number");
                println!("{}", result_json(false, out.attempted, 1, &Metrics::new()));
                return ExitCode::FAILURE;
            }
            for (k, (v, unit)) in &out.metrics {
                println!("  {k} {v} {unit}");
            }
            println!("{}", result_json(true, out.attempted, 0, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {name}: check failed: {e}");
            println!("{}", result_json(false, 0, 1, &Metrics::new()));
            ExitCode::FAILURE
        }
    }
}
