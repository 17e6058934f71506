//! Binary-rewriting statistics for the e1000 driver (paper §4): code
//! expansion, and how many sites needed memory, string, indirect-call
//! and spill rewriting.

use crate::Sweep;
use twindrivers::{Config, System};

pub fn run() -> Sweep {
    let sys = System::build(Config::TwinDrivers).expect("build");
    let s = sys.rewrite_stats.expect("stats");
    println!("binary rewriting of the e1000 driver:");
    println!(
        "  instructions : {} -> {} ({:.2}x)",
        s.insns_before,
        s.insns_after,
        s.expansion_factor()
    );
    println!(
        "  memory sites : {} ({:.0}% of instructions)",
        s.mem_sites,
        s.mem_fraction() * 100.0
    );
    println!("  string sites : {}", s.string_sites);
    println!("  indirect     : {}", s.indirect_sites);
    println!("  spill sites  : {}", s.spill_sites);
    Sweep::report()
}
