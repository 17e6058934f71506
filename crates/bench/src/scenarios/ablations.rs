//! Ablations for the rewriter's and the glue's design choices:
//!
//! * liveness analysis on/off (paper §4.1 footnote 3: spilling cost);
//! * header-copy threshold for the transmit glue (paper §5.3 uses 96 B);
//! * stack-access checking (paper §4.5.1 extension) overhead.

use crate::{banner, packets, Sweep};
use twin_machine::CostDomain;
use twin_rewriter::RewriteOptions;
use twindrivers::{Config, System, SystemOptions};

fn measure_tx_total(opts: &SystemOptions) -> (f64, f64) {
    let mut sys = System::build_with(Config::TwinDrivers, opts).expect("build");
    let b = sys.measure_tx(packets()).expect("measure");
    (b.total(), b.cycles(CostDomain::Driver))
}

fn with_rewrite(rewrite: RewriteOptions) -> SystemOptions {
    SystemOptions {
        rewrite,
        ..SystemOptions::default()
    }
}

pub fn run() -> Sweep {
    banner(
        "Ablations — liveness, header-copy threshold, stack checks",
        "design-choice costs, not a paper figure",
    );

    let (t_base, d_base) = measure_tx_total(&SystemOptions::default());
    println!("  baseline twin TX             : total {t_base:>8.0}  driver {d_base:>7.0}");

    let (t_nl, d_nl) = measure_tx_total(&with_rewrite(RewriteOptions {
        liveness: false,
        ..RewriteOptions::default()
    }));
    println!(
        "  without liveness (all spills): total {t_nl:>8.0}  driver {d_nl:>7.0}  (driver +{:.0}%)",
        100.0 * (d_nl - d_base) / d_base
    );

    let (t_sc, d_sc) = measure_tx_total(&with_rewrite(RewriteOptions {
        stack_checks: true,
        ..RewriteOptions::default()
    }));
    println!(
        "  with stack checks (§4.5.1)   : total {t_sc:>8.0}  driver {d_sc:>7.0}  (driver +{:.0}%)",
        100.0 * (d_sc - d_base) / d_base
    );

    println!();
    println!("  header-copy threshold sweep (paper default 96 B):");
    for bytes in [32u32, 64, 96, 192, 512, 1024] {
        let (t, _) = measure_tx_total(&SystemOptions {
            header_copy_bytes: bytes,
            ..SystemOptions::default()
        });
        println!("    copy {bytes:>5} B: total {t:>8.0} cycles/packet");
    }
    Sweep::report()
}
