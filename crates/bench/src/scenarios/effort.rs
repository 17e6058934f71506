//! §6.5 Engineering effort: the paper implemented the ten fast-path
//! support routines in 851 lines of commented C. This scenario counts
//! the equivalent artifacts of the reproduction: the hypervisor support
//! module versus the full dom0 support surface the upcall mechanism lets
//! the hypervisor *avoid* reimplementing.

use crate::{banner, Sweep, PAPER_EFFORT_LOC};
use std::path::Path;
use twin_kernel::{KNOWN_ROUTINES, TABLE1_FASTPATH};

fn loc(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count())
        .unwrap_or(0)
}

pub fn run() -> Sweep {
    banner(
        "§6.5 — Engineering effort",
        "851 LoC of commented C for the 10 hypervisor support routines",
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let hyper = loc(&root.join("crates/xen/src/support.rs"));
    let dom0 = loc(&root.join("crates/kernel/src/support.rs"));
    println!(
        "  hypervisor support (10 routines + upcalls): {hyper:>5} LoC  (paper: {PAPER_EFFORT_LOC})"
    );
    println!("  full dom0 support surface              : {dom0:>5} LoC");
    println!(
        "  routines implemented in the hypervisor : {:>5}",
        TABLE1_FASTPATH.len()
    );
    println!(
        "  routines reachable via upcalls instead : {:>5}",
        KNOWN_ROUTINES.len() - TABLE1_FASTPATH.len()
    );
    println!();
    println!(
        "  => the hypervisor implements {:.0}% of the support surface by",
        100.0 * TABLE1_FASTPATH.len() as f64 / KNOWN_ROUTINES.len() as f64
    );
    println!("     routine count; everything else is reused from dom0 by upcall.");
    Sweep::report()
}
