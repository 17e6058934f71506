//! The named-scenario table: every figure, table and sweep of the
//! evaluation, one module each, behind one runner.

use crate::Sweep;
use std::process::ExitCode;

mod ablations;
mod affinity;
mod autotune;
mod batch;
mod effort;
mod fault;
mod fig10;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod livelock;
mod moderation;
mod rewrite;
mod shard;
mod table1;
mod upcall;
mod zerocopy;

/// A named scenario: it prints its rows and returns its sweep.
pub type Scenario = (&'static str, fn() -> Sweep);

/// Every scenario, in the order a bare run executes them.
pub const SCENARIOS: &[Scenario] = &[
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("table1", table1::run),
    ("effort", effort::run),
    ("ablations", ablations::run),
    ("rewrite", rewrite::run),
    ("batch", batch::run),
    ("shard", shard::run),
    ("upcall", upcall::run),
    ("moderation", moderation::run),
    ("autotune", autotune::run),
    ("zerocopy", zerocopy::run),
    ("livelock", livelock::run),
    ("fault", fault::run),
    ("affinity", affinity::run),
];

/// Runs the named scenarios in order (all of them when `names` is
/// empty; arguments starting with `-`, such as the `--bench` flag cargo
/// passes, are ignored). Fails without running anything on an unknown
/// name or a malformed `TWIN_BENCH_*` variable, and fails after the run
/// if any scenario could not write its output or failed an acceptance
/// check.
pub fn run<S: AsRef<str>>(names: &[S]) -> ExitCode {
    let names: Vec<&str> = names
        .iter()
        .map(AsRef::as_ref)
        .filter(|n| !n.starts_with('-'))
        .collect();
    let mut plan = Vec::new();
    for name in &names {
        match SCENARIOS.iter().find(|(n, _)| n == name) {
            Some(s) => plan.push(*s),
            None => {
                let known: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown scenario {name:?}; known: {}", known.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    if plan.is_empty() {
        plan = SCENARIOS.to_vec();
    }
    if let Err(e) = crate::check_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for (name, scenario) in plan {
        if let Err(e) = scenario().finish() {
            eprintln!("error: {name}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
