//! Table 1: functions called frequently from the e1000 network driver —
//! regenerated by tracing which support routines the driver (and the
//! paravirtual glue) touch during error-free transmit and receive, and
//! contrasted with the full set the driver calls across all its paths
//! (the paper counts 97).

use crate::{banner, Sweep, PAPER_TABLE1};
use twindrivers::{Config, System};

pub fn run() -> Sweep {
    banner(
        "Table 1 — Support routines on the error-free TX/RX fast path",
        "10 routines, out of 97 called by the driver overall",
    );
    let mut sys = System::build(Config::TwinDrivers).expect("build");
    sys.world.kernel.trace.enabled = true;
    sys.world.kernel.trace.phase = "fastpath".into();
    for _ in 0..64 {
        sys.transmit_one().expect("tx");
        sys.receive_one().expect("rx");
    }
    let fast = sys.world.kernel.trace.names_in_phase("fastpath");

    // The full support surface: every routine the driver references.
    let module = twin_isa::asm::assemble("e1000", &twindrivers::kernel::e1000::source())
        .expect("driver assembles");
    let total = module
        .undefined_symbols()
        .into_iter()
        .filter(|s| !s.starts_with("__svm"))
        .count();

    println!("  {:<24} Description", "Routine name");
    println!("  {:-<24} {:-<40}", "", "");
    for (name, desc) in PAPER_TABLE1 {
        let seen = if fast.contains(name) {
            "measured"
        } else {
            "MISSING "
        };
        println!("  {name:<24} {desc:<40} [{seen}]");
    }
    let extra: Vec<&String> = fast
        .iter()
        .filter(|n| !PAPER_TABLE1.iter().any(|(p, _)| *p == n.as_str()))
        .collect();
    println!();
    println!("  fast-path routines measured : {}", fast.len());
    println!("  unexpected fast-path entries: {extra:?}");
    println!("  total support routines called by the driver: {total} (paper: 97)");
    Sweep::report()
}
