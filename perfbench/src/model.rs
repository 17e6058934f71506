//! The model-accuracy step: per-packet burst-1 transmit and receive
//! cycles of the four configurations, measured the way the Figure 7 and
//! Figure 8 harnesses measure them, compared with the paper's totals.
//! The model is validated only against those totals: Figure 7 gives two
//! of the four transmit totals (domU, domU-twin), Figure 8 all four
//! receive totals.

use std::collections::BTreeMap;
use twin_bench::{PAPER_FIG7_TOTALS, PAPER_FIG8_TOTALS};
use twindrivers::{Config, System};

/// Counted packets per configuration and direction (the figure
/// harnesses' default).
const PACKETS: u64 = 300;

/// `model.fig7_rel_err.<config>` and `model.fig8_rel_err.<config>`:
/// |modelled − paper| / paper per configuration the paper reports.
pub fn rel_errors() -> Result<BTreeMap<String, f64>, String> {
    let build = |config: Config| System::build(config).map_err(|e| format!("build {config}: {e}"));
    let mut out = BTreeMap::new();
    for (fig, totals) in [
        ("fig7", &PAPER_FIG7_TOTALS[..]),
        ("fig8", &PAPER_FIG8_TOTALS[..]),
    ] {
        for config in Config::ALL {
            let label = config.label();
            let Some((_, paper)) = totals.iter().find(|(l, _)| *l == label) else {
                continue;
            };
            let mut sys = build(config)?;
            let modelled = if fig == "fig7" {
                sys.measure_tx(PACKETS)
            } else {
                sys.measure_rx(PACKETS)
            }
            .map_err(|e| format!("{fig} {config}: {e}"))?
            .total();
            out.insert(
                format!("model.{fig}_rel_err.{label}"),
                (modelled - paper).abs() / paper,
            );
        }
    }
    Ok(out)
}
