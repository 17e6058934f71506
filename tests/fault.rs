//! Fault isolation and live recovery, end to end (paper §4.5).
//!
//! The paper's safety story stops at "the hypervisor survives": SVM
//! rejects illegal accesses, the execution watchdog reclaims runaway
//! drivers (§4.5.2), and the faulted driver is aborted. These tests
//! pin down both that endpoint and what this codebase builds on top of
//! it — an abort that *leaks nothing* (grants revoked with balanced
//! unmaps, the deferred-upcall ring drained and its flush deadline
//! disarmed, NAPI poll spans closed, skb pools conserved) and, with
//! [`SystemOptions::fault_recovery`], per-device quarantine plus a
//! live reset that resumes traffic with zero cross-NIC blast radius.
//!
//! Fault injection is the device-conditional one-shot hook from
//! [`fault_injected_source`]: arm it for a device, and exactly one
//! driver invocation on behalf of that device executes the fault body.

use twin_net::{EtherType, Frame, MacAddr, MTU};
use twindrivers::kernel::e1000;
use twindrivers::measure::{fault_injected_source, measure_fault_recovery, FaultClass};
use twindrivers::{peer_mac, Config, ShardPolicy, System, SystemError, SystemOptions, UpcallMode};

/// Injects a payload right after a label of the stock driver source —
/// the free-form sibling of [`fault_injected_source`] for faults the
/// class enum does not model (e.g. a cross-domain store).
fn sabotage(marker: &str, payload: &str) -> String {
    e1000::source().replace(marker, &format!("{marker}\n{payload}"))
}

/// A flow id that [`ShardPolicy::FlowHash`] maps to `dev` (mirror of
/// the hypervisor's multiplicative hash).
fn flow_for(dev: u32, nics: u32) -> u32 {
    (0u32..)
        .map(|i| 0x7000 + i)
        .find(|f| (f.wrapping_mul(2_654_435_761) >> 16) % nics == dev)
        .expect("some flow hashes to every device")
}

/// `burst` in-order frames on `dev`'s flow, continuing from `*seq`.
fn frames_for(dev: u32, nics: u32, burst: usize, seq: &mut u64) -> Vec<Frame> {
    (0..burst)
        .map(|_| {
            let f = Frame {
                dst: MacAddr::for_guest(1),
                src: peer_mac(),
                ethertype: EtherType::Ipv4,
                payload_len: MTU,
                flow: flow_for(dev, nics),
                seq: *seq,
            };
            *seq += 1;
            f
        })
        .collect()
}

fn abort_reason(r: Result<usize, SystemError>) -> String {
    match r {
        Err(SystemError::DriverAborted(reason)) => reason,
        other => panic!("expected driver abort, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The §4.5 endpoint, promoted from `examples/fault_injection.rs`: SVM
// rejects, the watchdog reclaims, the hypervisor and dom0 survive.
// ---------------------------------------------------------------------

#[test]
fn wild_write_into_the_hypervisor_is_rejected_and_dom0_survives() {
    let evil = sabotage(
        "e1000_xmit_frame:",
        r#"
    pushl %eax
    movl $0xf0000100, %eax      # hypervisor text/data region
    movl $0x41414141, (%eax)    # corrupt it
    popl %eax
"#,
    );
    let opts = SystemOptions {
        driver_source: Some(evil),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    match sys.transmit_one() {
        Err(SystemError::DriverAborted(reason)) => {
            assert!(reason.contains("svm"), "SVM must be the rejector: {reason}");
        }
        other => panic!("expected driver abort, got {other:?}"),
    }
    // The abort is sticky but contained: the hypervisor survives and
    // refuses further fast-path invocations.
    assert!(sys.hyperdrv().unwrap().is_aborted());
    assert!(matches!(
        sys.transmit_one(),
        Err(SystemError::DriverAborted(_))
    ));
    assert!(
        sys.world.svm_hyp.as_ref().unwrap().stats().rejected >= 1,
        "the wild store must show up in the SVM reject counter"
    );
    // dom0's VM driver instance still serves config operations: the
    // faulted *hypervisor* instance is dead, not the driver domain.
    let stats_entry = sys.driver.entry("e1000_get_stats").unwrap();
    let dom0 = sys.world.kernel.space;
    let netdev = sys.netdevs[0] as u32;
    twindrivers::kernel::call_function(
        &mut sys.machine,
        &mut sys.world,
        dom0,
        twin_machine::ExecMode::Guest,
        twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096,
        stats_entry,
        &[netdev],
        1_000_000,
    )
    .expect("dom0 instance must keep serving after the hypervisor abort");
}

#[test]
fn wild_write_into_another_guest_is_rejected() {
    let evil = sabotage(
        "e1000_xmit_frame:",
        r#"
    pushl %eax
    movl $0x40000000, %eax      # a guest heap address, not dom0's
    movl $0x42424242, (%eax)
    popl %eax
"#,
    );
    let opts = SystemOptions {
        driver_source: Some(evil),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    assert!(matches!(
        sys.transmit_one(),
        Err(SystemError::DriverAborted(_))
    ));
}

#[test]
fn watchdog_reclaims_an_infinite_loop() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::InfiniteLoop)),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Dormant payload: traffic flows normally until armed.
    sys.transmit_one().unwrap();
    sys.arm_driver_fault(FaultClass::InfiniteLoop.arm_value(0))
        .unwrap();
    match sys.transmit_one() {
        Err(SystemError::DriverAborted(reason)) => {
            assert!(
                reason.contains("watchdog") || reason.contains("budget"),
                "the execution watchdog must be the reclaimer: {reason}"
            );
        }
        other => panic!("expected watchdog abort, got {other:?}"),
    }
}

#[test]
fn the_unmodified_driver_triggers_none_of_this() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    for _ in 0..50 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.world.svm_hyp.as_ref().unwrap().stats().rejected, 0);
}

// ---------------------------------------------------------------------
// Satellite regressions: abort must not leak.
// ---------------------------------------------------------------------

/// Regression: abort used to leave every guest's zero-copy grants
/// cached in the faulted image — mappings outliving the trust decision,
/// with no `grant_unmap` ever paid. Teardown now revokes them all, and
/// the registry proves each revoked mapping paid exactly one unmap.
#[test]
fn abort_revokes_zero_copy_grants_with_balanced_unmaps() {
    let nics = 2u32;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        zero_copy: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Warm the grant cache on both devices.
    let mut seq = 0u64;
    for _ in 0..2 {
        for d in 0..nics {
            let f = frames_for(d, nics, 8, &mut seq);
            assert_eq!(sys.receive_burst(&f).unwrap(), 8);
        }
    }
    let warm = sys.grant_cache_stats().unwrap();
    assert!(warm.hits > 0, "cache must be warm before the fault");
    assert_eq!(warm.revoked, 0);

    let m0 = sys.metrics();
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    let f = frames_for(0, nics, 8, &mut seq);
    abort_reason(sys.receive_burst(&f));

    let delta = sys.metrics().delta_since(&m0);
    let revoked = delta.counter("grantcache.revoked");
    assert!(revoked > 0, "abort must revoke the cached grants");
    assert_eq!(
        delta.counter("grant.unmaps"),
        revoked,
        "every revoked mapping owes exactly one grant_unmap"
    );
    assert_eq!(
        sys.grant_cache_stats().unwrap().revoked,
        revoked,
        "cache and grant-table accounting must agree"
    );
}

/// Regression: abort with a non-empty deferred-upcall ring used to
/// strand queued frees (skb-pool leak) and leave the flush-deadline
/// timer armed forever toward a dead ring. Teardown now drains the
/// ring — replaying restorative frees natively, discarding the rest
/// with accounting — and disarms the deadline.
#[test]
fn abort_drains_the_upcall_ring_and_disarms_the_flush_deadline() {
    let nics = 2u32;
    let deadline = 5_000_000u64;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(deadline),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    for _ in 0..2 {
        for d in 0..nics {
            let f = frames_for(d, nics, 8, &mut seq);
            assert_eq!(sys.receive_burst(&f).unwrap(), 8);
        }
    }
    // Steady state: every pass flushed its own ring.
    assert_eq!(sys.world.hyper.as_ref().unwrap().engine.depth(), 0);
    let pool_base = sys.world.kernel.pool.available();

    // Queue a free the driver owes dom0 (an skb leaves the pool) and a
    // non-restorative unmap, arming the flush deadline.
    let space = sys.world.kernel.space;
    let skb = sys
        .world
        .kernel
        .pool
        .alloc(&mut sys.machine, space)
        .expect("pool has skbs");
    {
        let twindrivers::system::World {
            kernel, xen, hyper, ..
        } = &mut sys.world;
        let hs = hyper.as_mut().unwrap();
        let xen = xen.as_mut().unwrap();
        hs.enqueue_upcall(
            "dev_kfree_skb_any",
            vec![skb.0 as u32],
            &mut sys.machine,
            kernel,
            xen,
        )
        .unwrap();
        hs.enqueue_upcall(
            "dma_unmap_single",
            vec![0x1234, 64],
            &mut sys.machine,
            kernel,
            xen,
        )
        .unwrap();
    }
    let engine = &sys.world.hyper.as_ref().unwrap().engine;
    assert_eq!(engine.depth(), 2);
    assert!(engine.flush_due_at().is_some(), "deadline armed on enqueue");
    assert_eq!(sys.world.kernel.pool.available(), pool_base - 1);

    // The armed pass: device 1's fault body sits at the handler entry,
    // so the abort lands with the two queued entries still in the ring
    // — before any conflicting native routine could force a flush and
    // before the burst-end flush point.
    let f = frames_for(1, nics, 8, &mut seq);
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(1))
        .unwrap();
    abort_reason(sys.receive_burst(&f));

    // Drained, accounted, disarmed — and the queued free executed, so
    // the skb is back (ring teardown returns more on top).
    assert!(sys.machine.meter.event("upcall_replayed") >= 1);
    assert!(sys.machine.meter.event("upcall_discarded") >= 1);
    let engine = &sys.world.hyper.as_ref().unwrap().engine;
    assert_eq!(engine.depth(), 0, "no upcall may stay queued past abort");
    assert!(engine.flush_due_at().is_none(), "deadline must be disarmed");
    assert!(sys.world.kernel.pool.available() >= pool_base);

    // An idle epoch spanning several deadline windows must not try to
    // flush toward the dead ring.
    let flushes = sys.world.hyper.as_ref().unwrap().engine.stats.flushes;
    sys.run_idle(3 * deadline).unwrap();
    let engine = &sys.world.hyper.as_ref().unwrap().engine;
    assert_eq!(engine.stats.flushes, flushes);
    assert_eq!(engine.depth(), 0);
}

/// Regression: every quarantine → reset episode used to leak a ring's
/// worth of skbs (the old rings' buffers were simply forgotten). Pool
/// occupancy at the same schedule point must now be identical across
/// repeated episodes.
#[test]
fn recovery_conserves_skb_pools_across_episodes() {
    let nics = 2u32;
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: nics as usize,
        shard: ShardPolicy::FlowHash,
        upcall_mode: UpcallMode::Deferred,
        upcall_count: 9,
        upcall_flush_deadline_cycles: Some(5_000_000),
        zero_copy: true,
        fault_recovery: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    let round = |sys: &mut System, seq: &mut u64| {
        for d in 0..nics {
            let f = frames_for(d, nics, 8, seq);
            assert_eq!(sys.receive_burst(&f).unwrap(), 8);
        }
    };
    for _ in 0..3 {
        round(&mut sys, &mut seq);
    }
    let occupancy = |sys: &System| {
        (
            sys.world.kernel.pool.available(),
            sys.world.kernel.hyper_pool.as_ref().unwrap().available(),
        )
    };
    let baseline = occupancy(&sys);

    for episode in 0..3u32 {
        sys.arm_driver_fault(FaultClass::WildWrite.arm_value(1))
            .unwrap();
        let f = frames_for(1, nics, 8, &mut seq);
        abort_reason(sys.receive_burst(&f));
        // Recovery + settle: the next invocation resets the device.
        round(&mut sys, &mut seq);
        round(&mut sys, &mut seq);
        assert_eq!(
            occupancy(&sys),
            baseline,
            "episode {episode} changed pool occupancy: a reset leaks skbs"
        );
    }
    assert_eq!(sys.recovery_log().len(), 3);
    assert!(sys.quarantined_devices().is_empty());
}

/// Regression: abort inside a NAPI poll pass used to leave the IRQ
/// IMC-masked with the `poll_entered_at` span open forever — the
/// residency metric kept growing and the device could never interrupt
/// again. Teardown now closes the span; recovery's `e1000_open`
/// re-enables `IMS`.
#[test]
fn abort_closes_the_napi_poll_span_and_recovery_rearms_the_irq() {
    let opts = SystemOptions {
        driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
        num_nics: 1,
        napi_weight: 8,
        fault_recovery: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    let mut seq = 0u64;
    let a = frames_for(0, 1, 4, &mut seq);
    let now = sys.now_cycles();
    sys.rx_open_loop_arrival(&a, now).unwrap();
    assert!(sys.in_poll_mode(0), "first irq enters poll mode");
    assert!(sys.world.nics[0].rx_irq_masked());

    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    let until = sys.now_cycles() + 600_000;
    match sys.rx_open_loop_service(until) {
        Err(SystemError::DriverAborted(_)) => {}
        other => panic!("expected abort inside the poll pass, got {other:?}"),
    }

    // Span closed at the abort: mode off, residency frozen.
    assert!(!sys.in_poll_mode(0), "teardown must exit poll mode");
    assert!(sys.machine.meter.event("napi_exit") >= 1);
    let frozen = sys.poll_mode_cycles(0);
    sys.run_idle(100_000).unwrap();
    assert_eq!(
        sys.poll_mode_cycles(0),
        frozen,
        "a closed span must not keep accruing residency"
    );
    // The IRQ stays masked until recovery re-opens the device.
    assert!(sys.world.nics[0].rx_irq_masked());

    // Next traffic toward the quarantined device: live recovery, IMS
    // re-armed, frames served.
    let b = frames_for(0, 1, 8, &mut seq);
    assert_eq!(sys.receive_burst(&b).unwrap(), 8);
    assert_eq!(sys.recovery_log().len(), 1);
    assert!(sys.quarantined_devices().is_empty());
    assert!(
        !sys.world.nics[0].rx_irq_masked(),
        "recovery must re-enable IMS"
    );
}

/// Regression: the abort path used to be invisible to the flight
/// recorder — no typed event, nothing to gate a trace artifact on. A
/// fault episode now emits the full typed sequence, and in recovery
/// mode the quarantine brackets pair up.
#[test]
fn fault_episodes_emit_typed_trace_events() {
    let nics = 2u32;
    let build = |recovery: bool| {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
            num_nics: nics as usize,
            shard: ShardPolicy::FlowHash,
            tracing: true,
            fault_recovery: recovery,
            ..SystemOptions::default()
        };
        System::build_with(Config::TwinDrivers, &opts).unwrap()
    };

    // Recovery mode: detect → enter → account → reset → exit.
    let mut sys = build(true);
    let mut seq = 0u64;
    for d in 0..nics {
        let f = frames_for(d, nics, 8, &mut seq);
        sys.receive_burst(&f).unwrap();
    }
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(1))
        .unwrap();
    let f = frames_for(1, nics, 8, &mut seq);
    abort_reason(sys.receive_burst(&f));
    let f = frames_for(1, nics, 8, &mut seq);
    assert_eq!(sys.receive_burst(&f).unwrap(), 8);

    let kinds = sys.machine.trace.counts_by_kind();
    for kind in [
        "fault_detected",
        "quarantine_enter",
        "inflight_accounted",
        "device_reset",
        "quarantine_exit",
    ] {
        assert_eq!(kinds.get(kind), Some(&1), "missing or duplicated {kind}");
    }
    assert_eq!(sys.machine.meter.event("driver_abort"), 1);
    assert_eq!(sys.machine.meter.event("quarantine_enter"), 1);
    assert_eq!(sys.machine.meter.event("quarantine_exit"), 1);
    assert_eq!(sys.machine.meter.event("device_reset"), 1);

    // Sticky mode: detect and account, but never a quarantine bracket
    // (the whole image is dead, not one device).
    let mut sys = build(false);
    let mut seq = 0u64;
    sys.arm_driver_fault(FaultClass::WildWrite.arm_value(0))
        .unwrap();
    let f = frames_for(0, nics, 8, &mut seq);
    abort_reason(sys.receive_burst(&f));
    let kinds = sys.machine.trace.counts_by_kind();
    assert_eq!(kinds.get("fault_detected"), Some(&1));
    assert_eq!(kinds.get("inflight_accounted"), Some(&1));
    assert_eq!(kinds.get("quarantine_enter"), None);
    assert_eq!(kinds.get("device_reset"), None);
}

// ---------------------------------------------------------------------
// The tentpole: quarantine one device, recover it live, and prove the
// blast radius is zero.
// ---------------------------------------------------------------------

/// Sibling devices must see *bit-exact* traffic through a fault
/// episode — not "within tolerance": the identical frame sequence an
/// unfaulted control run delivers. The faulted device loses exactly
/// the armed burst and nothing else.
#[test]
fn recovery_preserves_sibling_traffic_bit_exact() {
    let nics = 4u32;
    let dev = 1u32;
    let burst = 8usize;
    let build = |recovery: bool| {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WildWrite)),
            num_nics: nics as usize,
            shard: ShardPolicy::FlowHash,
            zero_copy: true,
            fault_recovery: recovery,
            ..SystemOptions::default()
        };
        System::build_with(Config::TwinDrivers, &opts).unwrap()
    };
    let mut sys = build(true);
    let mut control = build(false);

    let mut seq = 0u64;
    let mut lost_range = 0u64..0;
    for round in 0..7 {
        for d in 0..nics {
            let f = frames_for(d, nics, burst, &mut seq);
            assert_eq!(control.receive_burst(&f).unwrap(), burst);
            if round == 3 && d == dev {
                lost_range = f[0].seq..f[0].seq + burst as u64;
                sys.arm_driver_fault(FaultClass::WildWrite.arm_value(dev))
                    .unwrap();
                abort_reason(sys.receive_burst(&f));
            } else {
                assert_eq!(sys.receive_burst(&f).unwrap(), burst);
            }
        }
    }
    assert_eq!(sys.recovery_log().len(), 1);
    assert!(sys.quarantined_devices().is_empty());

    let gid = sys.guest.unwrap();
    let faulted = sys
        .world
        .xen
        .as_ref()
        .unwrap()
        .domain(gid)
        .rx_delivered
        .clone();
    let gid_c = control.guest.unwrap();
    let unfaulted = control
        .world
        .xen
        .as_ref()
        .unwrap()
        .domain(gid_c)
        .rx_delivered
        .clone();
    // Siblings: the exact same frames in the exact same per-flow order.
    for d in (0..nics).filter(|d| *d != dev) {
        let flow = flow_for(d, nics);
        let got: Vec<&Frame> = faulted.iter().filter(|f| f.flow == flow).collect();
        let want: Vec<&Frame> = unfaulted.iter().filter(|f| f.flow == flow).collect();
        assert_eq!(got, want, "sibling dev{d} traffic diverged");
    }
    // The faulted device: the control sequence minus exactly the armed
    // burst — bounded, accounted loss, nothing more.
    let flow = flow_for(dev, nics);
    let got: Vec<u64> = faulted
        .iter()
        .filter(|f| f.flow == flow)
        .map(|f| f.seq)
        .collect();
    let want: Vec<u64> = unfaulted
        .iter()
        .filter(|f| f.flow == flow)
        .map(|f| f.seq)
        .filter(|s| !lost_range.contains(s))
        .collect();
    assert_eq!(got, want, "faulted dev must lose the armed burst exactly");
}

/// The sweep harness itself, at test scale: full recovery, zero blast
/// radius, loss bounded to one burst per episode, for a second fault
/// class (wedged ring) so both SVM-reject shapes stay covered here.
#[test]
fn fault_harness_measures_full_recovery() {
    let nics = 2usize;
    let build = |recovery: bool| {
        let opts = SystemOptions {
            driver_source: Some(fault_injected_source(FaultClass::WedgedRing)),
            num_nics: nics,
            shard: ShardPolicy::FlowHash,
            fault_recovery: recovery,
            ..SystemOptions::default()
        };
        System::build_with(Config::TwinDrivers, &opts).unwrap()
    };
    let mut sys = build(true);
    let mut control = build(false);
    let p = measure_fault_recovery(&mut sys, &mut control, 1, FaultClass::WedgedRing, 2, 8, 1)
        .expect("fault point");
    assert_eq!(p.pre_delivered, 16);
    assert_eq!(p.post_delivered, 16, "recovery must restore full goodput");
    assert_eq!(p.sibling_delivered, p.sibling_control, "zero blast radius");
    assert_eq!(p.lost_frames, 8, "exactly the armed burst is lost");
    assert!(p.recovery_cycles > 0, "the reset costs real virtual time");
    assert_eq!(sys.recovery_log().len(), 1);
}

// ---------------------------------------------------------------------
// Guard rails.
// ---------------------------------------------------------------------

#[test]
fn fault_recovery_requires_the_twindrivers_config() {
    let opts = SystemOptions {
        fault_recovery: true,
        ..SystemOptions::default()
    };
    match System::build_with(Config::XenGuest, &opts) {
        Err(SystemError::Build(msg)) => assert!(msg.contains("fault_recovery")),
        other => panic!("expected a build error, got {other:?}"),
    }
}

#[test]
fn arming_requires_a_fault_injected_driver() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    match sys.arm_driver_fault(1) {
        Err(SystemError::Build(msg)) => assert!(msg.contains("fault_arm")),
        other => panic!("expected a build error, got {other:?}"),
    }
}
