//! The paper's evaluation as one table of named scenarios, plus the
//! reference values and the JSON writer they share.
//!
//! Every figure, table and sweep is a scenario in [`scenarios`]:
//! `cargo bench -p twin-bench --bench eval -- <name>` (or
//! `twindrivers-repro <name>`) runs one, and no name runs them all. A
//! figure scenario prints the rows the paper reports next to the
//! paper's published values; a sweep scenario also prints one JSON
//! entry per point, checks its acceptance claims and writes
//! `BENCH_<name>.json` at the workspace root for the regression gate.

pub mod scenarios;

/// Paper values for Figure 5 (transmit throughput, Mb/s):
/// domU, domU-twin, dom0, Linux.
pub const PAPER_FIG5: [(&str, f64); 4] = [
    ("domU", 1619.0),
    ("domU-twin", 3902.0),
    ("dom0", 4683.0),
    ("Linux", 4690.0),
];

/// Paper values for Figure 6 (receive throughput, Mb/s).
pub const PAPER_FIG6: [(&str, f64); 4] = [
    ("domU", 928.0),
    ("domU-twin", 2022.0),
    ("dom0", 2839.0),
    ("Linux", 3010.0),
];

/// Paper values for Figure 7 (transmit cycles/packet, totals).
pub const PAPER_FIG7_TOTALS: [(&str, f64); 2] = [("domU", 21159.0), ("domU-twin", 9972.0)];

/// Paper values for Figure 8 (receive cycles/packet, totals).
pub const PAPER_FIG8_TOTALS: [(&str, f64); 4] = [
    ("domU", 35905.0),
    ("domU-twin", 20089.0),
    ("dom0", 14308.0),
    ("Linux", 11166.0),
];

/// Paper values for Figure 9 (web server peak throughput, Mb/s).
pub const PAPER_FIG9_PEAKS: [(&str, f64); 4] = [
    ("Linux", 855.0),
    ("dom0", 712.0),
    ("domU-twin", 572.0),
    ("domU", 269.0),
];

/// Paper values for Figure 10 (transmit throughput vs upcalls/invocation,
/// Mb/s): only the endpoints are stated numerically in the text.
pub const PAPER_FIG10_ENDPOINTS: [(usize, f64); 3] = [(0, 3902.0), (1, 1638.0), (9, 359.0)];

/// Paper Table 1: the ten fast-path support routines with descriptions.
pub const PAPER_TABLE1: [(&str, &str); 10] = [
    ("netdev_alloc_skb", "allocate sk_buffs"),
    ("dev_kfree_skb_any", "free sk_buffs"),
    ("netif_rx", "receive network packets"),
    ("dma_map_single", "map DMA buffer"),
    ("dma_map_page", "map DMA page"),
    ("dma_unmap_single", "unmap DMA buffer"),
    ("dma_unmap_page", "unmap DMA page"),
    ("spin_trylock", "acquire spinlock"),
    (
        "spin_unlock_irqrestore",
        "release spinlock, restore interrupts",
    ),
    ("eth_type_trans", "process MAC header"),
];

/// Paper §6.5: lines of commented C for the ten hypervisor routines.
pub const PAPER_EFFORT_LOC: usize = 851;

/// Prints the standard harness banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("  {title}");
    println!("  paper reference: {paper_ref}");
    println!("================================================================");
}

/// Formats a measured-vs-paper row.
pub fn row(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!(
        "  {label:>10}  measured {measured:>9.0} {unit:<5} paper {paper:>8.0} {unit:<5} ratio {:.2}",
        measured / paper
    )
}

/// Scales every scenario's run length (packets per measurement).
pub const PACKETS_VAR: &str = "TWIN_BENCH_PACKETS";

/// Overrides the paced sweeps' heavy-phase inter-burst gap.
pub const GAP_VAR: &str = "TWIN_BENCH_GAP_CYCLES";

/// Parses one numeric environment value: unset means `default`, and
/// anything but an unsigned integer is an error naming the variable
/// (a typo must not silently run the default budget).
///
/// # Errors
///
/// Returns the variable's name and the rejected value.
pub fn parse_env_u64(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("{name}={s:?} is not an unsigned integer")),
    }
}

fn env_u64(name: &str, default: u64) -> Result<u64, String> {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_env_u64(name, value.as_deref(), default)
}

/// Checks both numeric environment variables up front, so a malformed
/// value fails before any scenario runs.
///
/// # Errors
///
/// The first malformed variable, by name.
pub fn check_env() -> Result<(), String> {
    env_u64(PACKETS_VAR, 0)?;
    env_u64(GAP_VAR, 0).map(drop)
}

/// Number of packets per measurement (`TWIN_BENCH_PACKETS`, default 300).
///
/// # Panics
///
/// On a malformed value ([`check_env`] reports it cleanly first).
pub fn packets() -> u64 {
    env_u64(PACKETS_VAR, 300).unwrap_or_else(|e| panic!("{e}"))
}

/// Default scheduled inter-burst arrival gap for the paced receive
/// harnesses, in virtual cycles — slightly above the unmoderated
/// per-interrupt service capacity at burst 32 on 4 NICs (the
/// receive-livelock regime interrupt moderation exists for).
pub const DEFAULT_GAP_CYCLES: u64 = 150_000;

/// The paced harnesses' shared pacing knob: `TWIN_BENCH_GAP_CYCLES`
/// overrides the heavy-phase inter-burst gap for both the moderation
/// and the autotune sweeps, so one variable retargets the offered load
/// everywhere. The default reproduces the committed baselines
/// bit-exactly.
///
/// # Panics
///
/// On a malformed value ([`check_env`] reports it cleanly first).
pub fn gap_cycles() -> u64 {
    env_u64(GAP_VAR, DEFAULT_GAP_CYCLES).unwrap_or_else(|e| panic!("{e}"))
}

/// Whether flight-recorder exports are requested (`TWIN_TRACE_OUT`).
/// Tracing charges no cycles, so the sweep numbers are identical either
/// way.
pub fn tracing() -> bool {
    std::env::var_os("TWIN_TRACE_OUT").is_some()
}

/// One JSON object's `"key": value` fields, rendered in insertion order
/// with the exact number formats the committed baselines use.
#[derive(Clone, Debug, Default)]
pub struct Entry(Vec<String>);

impl Entry {
    /// An empty object.
    pub fn new() -> Entry {
        Entry::default()
    }

    fn field(mut self, key: &str, value: std::fmt::Arguments) -> Entry {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    /// A quoted string field.
    pub fn str(self, key: &str, v: &str) -> Entry {
        self.field(key, format_args!("\"{v}\""))
    }

    /// An integer or boolean field, printed as is.
    pub fn int(self, key: &str, v: impl std::fmt::Display) -> Entry {
        self.field(key, format_args!("{v}"))
    }

    /// A float field with one decimal (cycles, Mb/s, percentages).
    pub fn f1(self, key: &str, v: f64) -> Entry {
        self.field(key, format_args!("{v:.1}"))
    }

    /// A float field with four decimals (per-packet rates).
    pub fn f4(self, key: &str, v: f64) -> Entry {
        self.field(key, format_args!("{v:.4}"))
    }

    /// The one-line object: `{"a": 1, "b": "x"}`.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// A scenario's output: the JSON document of a sweep (top-level header
/// fields plus one entry per point) and its acceptance verdicts.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Writes `BENCH_<name>.json` on [`Sweep::finish`]; `None` prints
    /// only.
    name: Option<&'static str>,
    header: Entry,
    entries: Vec<String>,
    failed: Vec<String>,
}

impl Sweep {
    /// A sweep that writes `BENCH_<name>.json` at the workspace root.
    pub fn new(name: &'static str) -> Sweep {
        Sweep {
            name: Some(name),
            ..Sweep::default()
        }
    }

    /// A scenario that only prints (the paper's figures and tables).
    pub fn report() -> Sweep {
        Sweep::default()
    }

    /// Adds top-level fields, written before `"entries"`.
    pub fn header(&mut self, fields: Entry) {
        self.header.0.extend(fields.0);
    }

    /// Records one sweep point and prints it.
    pub fn push(&mut self, entry: Entry) {
        let line = entry.render();
        println!("    {line}");
        self.entries.push(line);
    }

    /// Records and prints one acceptance verdict; a failed one makes
    /// [`Sweep::finish`] return `Err`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            println!("  acceptance ok: {what}");
        } else {
            eprintln!("  ACCEPTANCE FAILED: {what}");
            self.failed.push(what);
        }
    }

    /// The JSON document [`Sweep::finish`] writes.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for field in &self.header.0 {
            out += &format!("  {field},\n");
        }
        out += &format!(
            "  \"entries\": [\n{}\n  ]\n}}\n",
            self.entries
                .iter()
                .map(|e| format!("    {e}"))
                .collect::<Vec<_>>()
                .join(",\n")
        );
        out
    }

    /// Writes `BENCH_<name>.json` (for a named sweep) and reports the
    /// verdicts.
    ///
    /// # Errors
    ///
    /// When the file cannot be written or any check failed.
    pub fn finish(self) -> Result<(), String> {
        if let Some(name) = self.name {
            let file = format!("BENCH_{name}.json");
            // Anchor at the workspace root regardless of cargo's cwd.
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&path, self.render()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("  wrote {file} ({} sweep points)", self.entries.len());
        }
        match self.failed.len() {
            0 => Ok(()),
            n => Err(format!("{n} acceptance check(s) failed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_consistent() {
        assert_eq!(PAPER_TABLE1.len(), 10);
        assert_eq!(PAPER_FIG5.len(), PAPER_FIG6.len());
        assert!(PAPER_FIG10_ENDPOINTS[0].1 > PAPER_FIG10_ENDPOINTS[1].1);
    }

    #[test]
    fn row_formats() {
        let r = row("Linux", 5000.0, 4690.0, "Mb/s");
        assert!(r.contains("Linux"));
        assert!(r.contains("1.07"));
    }
}
