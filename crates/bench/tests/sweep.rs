//! The scenario runner's own contract: the JSON writer reproduces the
//! committed baselines byte for byte, a failed acceptance check fails
//! the sweep, an unknown scenario fails the run, and a malformed
//! numeric environment value is rejected by name.

use std::process::ExitCode;
use twin_bench::{parse_env_u64, scenarios, Entry, Sweep};

#[test]
fn rendering_reproduces_the_zerocopy_baseline_head() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/baseline_zerocopy.json"
    );
    let baseline = std::fs::read_to_string(path).expect("bench/baseline_zerocopy.json");
    let mut sweep = Sweep::report();
    sweep.header(Entry::new().int("packets", 64).str("policy", "flow-hash"));
    sweep.push(
        Entry::new()
            .str("config", "domU-twin")
            .int("zerocopy", false)
            .int("nics", 1)
            .int("burst", 1)
            .f1("tx_cycles_per_packet", 9868.0)
            .f1("rx_cycles_per_packet", 16105.0)
            .f1("aggregate_mbps", 2000.0)
            .int("grant_maps", 0)
            .int("grant_unmaps", 0)
            .int("grant_copies", 320),
    );
    let doc = sweep.render();
    // Everything up to the end of the first entry matches, and the
    // baseline continues with its second entry.
    let head = &doc[..doc.find("\n  ]").expect("entries close")];
    assert_eq!(&baseline[..head.len()], head);
    assert!(baseline[head.len()..].starts_with(",\n    {"));
    assert!(doc.ends_with("}\n  ]\n}\n"));
}

#[test]
fn number_formats_match_the_baselines() {
    let e = Entry::new()
        .f1("a", 6981.84)
        .f4("b", 1.0 / 32.0)
        .int("c", 7u64)
        .str("d", "x");
    assert_eq!(
        e.render(),
        r#"{"a": 6981.8, "b": 0.0312, "c": 7, "d": "x"}"#
    );
}

#[test]
fn finish_fails_after_a_failed_check() {
    let mut ok = Sweep::report();
    ok.check(true, "holds");
    assert_eq!(ok.finish(), Ok(()));

    let mut bad = Sweep::report();
    bad.check(true, "holds");
    bad.check(false, "does not hold");
    assert!(bad.finish().is_err());
}

#[test]
fn unknown_scenario_fails() {
    // `ExitCode` has no `PartialEq` at the MSRV; its `Debug` tells the
    // two codes apart.
    let code = scenarios::run(&["nope"]);
    assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::FAILURE));
    assert!(scenarios::SCENARIOS.iter().any(|(n, _)| *n == "rewrite"));
}

#[test]
fn env_values_parse_strictly() {
    assert_eq!(parse_env_u64("TWIN_BENCH_PACKETS", Some("64"), 300), Ok(64));
    assert_eq!(parse_env_u64("TWIN_BENCH_PACKETS", None, 300), Ok(300));
    for bad in ["64x", "", "-1", " 64"] {
        let err = parse_env_u64("TWIN_BENCH_PACKETS", Some(bad), 300).unwrap_err();
        assert!(err.contains("TWIN_BENCH_PACKETS"), "{err}");
    }
}
