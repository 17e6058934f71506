//! Figure 9: web server workload — response throughput as a function of
//! the offered request rate (knot server, SPECweb99 static file set,
//! httperf open-loop clients).

use crate::{banner, Sweep, PAPER_FIG9_PEAKS};
use twin_workloads::run_webserver;
use twindrivers::Config;

pub fn run() -> Sweep {
    banner(
        "Figure 9 — Web server throughput vs request rate",
        "peaks: Linux 855 / dom0 712 / domU-twin 572 / domU 269 Mb/s",
    );
    let rates: Vec<f64> = (1..=20).map(|i| i as f64 * 1000.0).collect();
    println!(
        "{:>8} {}",
        "reqs/s",
        ["Linux", "dom0", "domU-twin", "domU"]
            .map(|l| format!("{l:>11}"))
            .join(" ")
    );
    let series: Vec<_> = [
        Config::NativeLinux,
        Config::XenDom0,
        Config::TwinDrivers,
        Config::XenGuest,
    ]
    .into_iter()
    .map(|c| run_webserver(c, &rates, 150).expect("webserver run"))
    .collect();
    for (i, rate) in rates.iter().enumerate() {
        let cells: Vec<String> = series
            .iter()
            .map(|(_, pts)| format!("{:>11.0}", pts[i].goodput_mbps))
            .collect();
        println!("{:>8.0} {}", rate, cells.join(" "));
    }
    println!();
    println!("  measured peaks (Mb/s):");
    for (model, _) in &series {
        println!(
            "    {:>10}: {:>6.0}",
            model.config.label(),
            model.peak_mbps()
        );
    }
    println!("  paper peaks:");
    for (label, peak) in PAPER_FIG9_PEAKS {
        println!("    {label:>10}: {peak:>6.0}");
    }
    Sweep::report()
}
