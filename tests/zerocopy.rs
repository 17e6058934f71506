//! The zero-copy grant-mapped datapath end to end: off-mode stays
//! cycle-exact with the committed shard baseline, a warm pool pays no
//! per-packet grant traffic, every fallback trigger bounces through the
//! copy path, revocation quarantines cached grants, and the aggregate
//! sweep attributes grant work per device.

use twin_net::{EtherType, Frame, MacAddr, MTU};
use twindrivers::{
    measure_aggregate_throughput, peer_mac, Config, ShardPolicy, System, SystemError, SystemOptions,
};

fn zc_opts(nics: usize, zero_copy: bool) -> SystemOptions {
    SystemOptions {
        num_nics: nics,
        shard: ShardPolicy::FlowHash,
        zero_copy,
        ..SystemOptions::default()
    }
}

fn frame_to(mac: MacAddr, flow: u32, seq: u64) -> Frame {
    Frame {
        dst: mac,
        src: peer_mac(),
        ethertype: EtherType::Ipv4,
        payload_len: MTU,
        flow,
        seq,
    }
}

/// Zero-copy pools are a guest's; the configurations where dom0 itself
/// is the endpoint must refuse the option rather than report it active.
#[test]
fn zero_copy_requires_a_guest_configuration() {
    for config in [Config::NativeLinux, Config::XenDom0] {
        match System::build_with(config, &zc_opts(1, true)) {
            Err(SystemError::Build(msg)) => assert!(msg.contains("zero_copy"), "{config}: {msg}"),
            other => panic!(
                "{config}: zero_copy must be refused, got {:?}",
                other.map(|s| s.zero_copy())
            ),
        }
    }
    for config in [Config::XenGuest, Config::TwinDrivers] {
        let sys = System::build_with(config, &zc_opts(1, true)).expect("guest configs build");
        assert!(sys.zero_copy());
    }
}

/// One committed shard-baseline point: `(nics, burst, tx_cpp, rx_cpp)`.
fn parse_shard_baseline() -> (u64, Vec<(usize, usize, f64, f64)>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    let text = std::fs::read_to_string(path).expect("bench/baseline.json");
    let field = |line: &str, name: &str| -> f64 {
        let key = format!("\"{name}\": ");
        let i = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} in {line}"))
            + key.len();
        let rest = &line[i..];
        let end = rest.find([',', '}']).expect("field terminator");
        rest[..end].trim().parse().expect("numeric field")
    };
    let mut packets = 0u64;
    let mut points = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("\"packets\"") {
            packets = field(&format!("{{{line}"), "packets") as u64;
        }
        if line.starts_with('{') && line.contains("\"nics\"") {
            points.push((
                field(line, "nics") as usize,
                field(line, "burst") as usize,
                field(line, "tx_cycles_per_packet"),
                field(line, "rx_cycles_per_packet"),
            ));
        }
    }
    (packets, points)
}

#[test]
fn zero_copy_off_is_cycle_exact_with_the_shard_baseline() {
    // The knob must be invisible when off: with the grant cache, the
    // pool plumbing and the fallback accounting all compiled in, an
    // explicit `zero_copy: false` build reproduces the committed PR 2/3
    // shard baseline to the decimal.
    let (packets, points) = parse_shard_baseline();
    assert_eq!(packets, 64, "baseline was generated at 64 packets/point");
    for (nics, burst, tx_cpp, rx_cpp) in points
        .into_iter()
        .filter(|&(n, b, _, _)| b == 32 && (n == 1 || n == 4))
    {
        let opts = SystemOptions {
            num_nics: nics,
            shard: ShardPolicy::RoundRobin,
            zero_copy: false,
            ..SystemOptions::default()
        };
        let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
        let a = measure_aggregate_throughput(&mut sys, burst, packets).unwrap();
        assert!(
            (a.tx_cycles_per_packet - tx_cpp).abs() <= 0.051,
            "nics {nics} burst {burst}: tx {:.1} vs baseline {tx_cpp:.1}",
            a.tx_cycles_per_packet
        );
        assert!(
            (a.rx_cycles_per_packet - rx_cpp).abs() <= 0.051,
            "nics {nics} burst {burst}: rx {:.1} vs baseline {rx_cpp:.1}",
            a.rx_cycles_per_packet
        );
        assert!(sys.grant_cache_stats().is_none(), "no cache when off");
        assert_eq!(sys.machine.meter.event("grant_cache_hit"), 0);
        assert_eq!(sys.machine.meter.event("copy_fallback"), 0);
    }
}

#[test]
fn warm_pool_pays_no_per_packet_grant_traffic_and_beats_copy_mode() {
    // After a priming pass at the target burst, the measured RX window
    // must be all cache hits: zero maps, zero unmaps, zero fallbacks —
    // and the amortized cost must beat copy mode by the acceptance
    // margin (≥ 1.3× at 4 NICs / burst 32).
    let mut on = System::build_with(Config::TwinDrivers, &zc_opts(4, true)).unwrap();
    on.measure_rx_burst(32, 64).unwrap();
    let w = on.measure_rx_burst(32, 64).unwrap();
    assert_eq!(w.breakdown.events.get("grant_map"), None, "warm: no maps");
    assert_eq!(w.breakdown.events.get("grant_unmap"), None);
    assert_eq!(w.breakdown.events.get("copy_fallback"), None);
    assert!(
        w.breakdown
            .events
            .get("grant_cache_hit")
            .copied()
            .unwrap_or(0)
            >= 64,
        "every measured packet lands through the cache"
    );
    let stats = on.grant_cache_stats().unwrap();
    assert!(stats.misses > 0, "the priming pass faulted the pool in");
    assert_eq!(stats.evictions, 0, "pool fits the cache");

    let mut off = System::build_with(Config::TwinDrivers, &zc_opts(4, false)).unwrap();
    off.measure_rx_burst(32, 64).unwrap();
    let wo = off.measure_rx_burst(32, 64).unwrap();
    let ratio = wo.breakdown.total() / w.breakdown.total();
    assert!(
        ratio >= 1.3,
        "zero-copy RX speedup {ratio:.2}x below the 1.3x acceptance"
    );
}

#[test]
fn ungranted_guest_falls_back_to_copies_until_granted() {
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(1, true)).unwrap();
    let mac2 = MacAddr::for_guest(2);
    let g2 = sys.add_guest(mac2).unwrap();
    for seq in 0..8 {
        sys.receive_frame(&frame_to(mac2, 40, seq)).unwrap();
    }
    let fallbacks = sys.machine.meter.event("copy_fallback");
    assert_eq!(fallbacks, 8, "every frame to the ungranted guest bounces");

    // Granting the pool stops the fallbacks: first touch maps, the rest
    // hit.
    assert_eq!(sys.grant_zero_copy_pool(g2).unwrap(), 64, "pool granted");
    for seq in 8..16 {
        sys.receive_frame(&frame_to(mac2, 40, seq)).unwrap();
    }
    assert_eq!(
        sys.machine.meter.event("copy_fallback"),
        fallbacks,
        "granted guest takes the zero-copy path"
    );
    assert!(sys.machine.meter.event("grant_cache_hit") > 0);
}

#[test]
fn exhausted_pool_slice_falls_back() {
    // A one-frame pool: the first frame of a flow in a flush lands
    // zero-copy, everything behind it in the same pass bounces.
    let opts = SystemOptions {
        zero_copy_pool_frames: 1,
        ..zc_opts(1, true)
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mac1 = MacAddr::for_guest(1);
    let burst: Vec<Frame> = (0..6).map(|s| frame_to(mac1, 41, s)).collect();
    assert_eq!(sys.receive_burst(&burst).unwrap(), 6);
    assert_eq!(sys.machine.meter.event("pin_page"), 1, "slot 0 maps once");
    assert_eq!(
        sys.machine.meter.event("copy_fallback"),
        5,
        "slots past the pool bounce"
    );
}

#[test]
fn revocation_quarantines_cached_grants() {
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(1, true)).unwrap();
    let gid = sys.guest.unwrap();
    let mac1 = MacAddr::for_guest(1);
    for seq in 0..4 {
        sys.receive_frame(&frame_to(mac1, 42, seq)).unwrap();
    }
    assert!(sys.grant_cache_stats().unwrap().misses > 0, "pool warmed");
    let unmaps_before = sys.machine.meter.event("grant_unmap");
    let revoked = sys.revoke_zero_copy_grants(gid);
    assert!(revoked > 0, "live mappings were torn down");
    assert_eq!(sys.grant_cache_stats().unwrap().revoked as usize, revoked);
    assert_eq!(
        sys.machine.meter.event("grant_unmap") - unmaps_before,
        revoked as u64,
        "each revoked mapping owes one unmap"
    );
    // The quarantined guest bounces through copies until re-granted.
    sys.receive_frame(&frame_to(mac1, 42, 4)).unwrap();
    assert!(sys.machine.meter.event("copy_fallback") > 0);
    sys.grant_zero_copy_pool(gid).unwrap();
    let fallbacks = sys.machine.meter.event("copy_fallback");
    sys.receive_frame(&frame_to(mac1, 42, 5)).unwrap();
    assert_eq!(
        sys.machine.meter.event("copy_fallback"),
        fallbacks,
        "re-granting restores the zero-copy path"
    );
}

#[test]
fn aggregate_throughput_attributes_grant_work_per_device() {
    // TwinDrivers in copy mode: grant-copies happen per packet and the
    // sweep's stats break them down per NIC.
    let mut sys = System::build_with(Config::TwinDrivers, &zc_opts(4, false)).unwrap();
    let a = measure_aggregate_throughput(&mut sys, 8, 64).unwrap();
    assert!(a.grants.copies > 0, "copy mode grant-copies every packet");
    let per_dev: u64 = a.grants.per_device.values().map(|d| d.copies).sum();
    assert_eq!(per_dev, a.grants.copies, "per-device copies sum to total");
    assert!(
        a.grants.per_device.len() >= 2,
        "flow-hash sharding spreads grant work over the NICs"
    );

    // Baseline Xen guest: the I/O channel maps and unmaps per packet,
    // attributed to the single device.
    let mut xg = System::build(Config::XenGuest).unwrap();
    let a = measure_aggregate_throughput(&mut xg, 8, 64).unwrap();
    assert!(a.grants.maps > 0 && a.grants.unmaps > 0);
    assert_eq!(a.grants.device(0).maps, a.grants.maps);
    assert_eq!(a.grants.device(0).unmaps, a.grants.unmaps);
}

#[test]
fn iommu_pre_pins_the_pool_and_traffic_still_flows() {
    let opts = SystemOptions {
        iommu: true,
        ..zc_opts(1, true)
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let io = sys.world.iommu.as_ref().unwrap();
    assert_eq!(io.pinned_pages, 64, "whole pool pinned up front");
    assert!(
        io.allowlist_entries() < 32,
        "pool pins as coalesced ranges, not per-page entries"
    );
    // Doorbell-time RX/TX walks pass with the pool pinned.
    let mac1 = MacAddr::for_guest(1);
    let burst: Vec<Frame> = (0..8).map(|s| frame_to(mac1, 43, s)).collect();
    assert_eq!(sys.receive_burst(&burst).unwrap(), 8);
    assert_eq!(sys.transmit_burst(8).unwrap(), 8);
    assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 0);
}
