//! End-to-end integration tests of the TwinDrivers pipeline across
//! crates: derivation, dual instances over shared data, fast-path
//! behaviour, and the concurrent config-path/fast-path split.

use twin_machine::{CostDomain, ExecMode};
use twindrivers::kernel::e1000;
use twindrivers::{Config, System, SystemOptions};

#[test]
fn all_four_systems_move_packets() {
    for config in Config::ALL {
        let mut sys = System::build(config).unwrap_or_else(|e| panic!("{config}: {e}"));
        for _ in 0..10 {
            sys.transmit_one()
                .unwrap_or_else(|e| panic!("{config} tx: {e}"));
        }
        assert_eq!(sys.take_wire_frames().len(), 10, "{config} transmit");
        for _ in 0..10 {
            sys.receive_one()
                .unwrap_or_else(|e| panic!("{config} rx: {e}"));
        }
        assert_eq!(sys.delivered_rx(), 10, "{config} receive");
    }
}

#[test]
fn both_instances_share_one_copy_of_driver_data() {
    // The hypervisor instance transmits; the *VM instance's* adapter
    // statistics must advance, because there is a single data instance
    // in dom0 (paper §3.2).
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let adapter = sys.driver.data_symbol("adapter").unwrap();
    let dom0 = sys.world.kernel.space;
    let before = sys
        .machine
        .read_u32(dom0, ExecMode::Guest, adapter + e1000::adapter::TX_PACKETS)
        .unwrap();
    for _ in 0..7 {
        sys.transmit_one().unwrap();
    }
    let after = sys
        .machine
        .read_u32(dom0, ExecMode::Guest, adapter + e1000::adapter::TX_PACKETS)
        .unwrap();
    assert_eq!(
        after - before,
        7,
        "stats written by the hypervisor instance"
    );

    // And the VM instance reads them through its own entry point.
    let get_stats = sys.driver.entry("e1000_get_stats").unwrap();
    let netdev = sys.netdevs[0] as u32;
    let stats_ptr = twindrivers::kernel::call_function(
        &mut sys.machine,
        &mut sys.world,
        dom0,
        ExecMode::Guest,
        twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096,
        get_stats,
        &[netdev],
        1_000_000,
    )
    .unwrap();
    assert_eq!(stats_ptr as u64, adapter + e1000::adapter::TX_PACKETS);
}

#[test]
fn config_ops_run_in_vm_instance_while_fast_path_runs_in_hypervisor() {
    // Paper §3.1: the VM instance keeps handling ethtool-style requests
    // and the watchdog while the hypervisor instance does TX/RX.
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    let dom0 = sys.world.kernel.space;
    let stack = twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096;

    for i in 0..20 {
        sys.transmit_one().unwrap();
        if i % 5 == 0 {
            // ethtool get_link through the indirect-dispatch table.
            let dispatch = sys.driver.entry("e1000_ethtool_dispatch").unwrap();
            let r = twindrivers::kernel::call_function(
                &mut sys.machine,
                &mut sys.world,
                dom0,
                ExecMode::Guest,
                stack,
                dispatch,
                &[2, 0],
                2_000_000,
            )
            .unwrap();
            assert_eq!(r, 1, "link is up");
        }
    }
    // Watchdog timer fires in dom0 (reads NIC stats registers): idle
    // past its 100-jiffy deadline and the virtual-time engine runs it in
    // the VM instance.
    assert!(
        !sys.world.kernel.timers.is_empty(),
        "watchdog armed by probe"
    );
    sys.run_idle(1000 * twin_kernel::CYCLES_PER_JIFFY).unwrap();
    let adapter = sys.driver.data_symbol("adapter").unwrap();
    let wd = sys
        .machine
        .read_u32(
            dom0,
            ExecMode::Guest,
            adapter + e1000::adapter::WATCHDOG_RUNS,
        )
        .unwrap();
    assert!(wd >= 1, "watchdog ran in the VM instance");
    assert_eq!(sys.take_wire_frames().len(), 20);
}

#[test]
fn twin_fast_path_makes_no_upcalls_by_default() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    for _ in 0..20 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    assert_eq!(
        sys.machine.meter.event("upcall"),
        0,
        "all ten fast-path routines are implemented in the hypervisor"
    );
    assert_eq!(sys.machine.meter.event("domain_switch"), 0);
}

#[test]
fn forced_upcalls_reach_dom0_and_still_work() {
    let opts = SystemOptions {
        upcall_count: 9,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for _ in 0..5 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.take_wire_frames().len(), 5, "upcalled path is correct");
    assert!(sys.machine.meter.event("upcall") >= 5);
    assert!(
        sys.machine.meter.event("domain_switch") >= 10,
        "each guest-context upcall switches to dom0 and back"
    );
}

#[test]
fn rewritten_driver_category_grows_but_stack_costs_do_not() {
    // The SVM tax lands on the driver; the guest kernel cost per packet
    // is the same stack either way.
    let mut native = System::build(Config::NativeLinux).unwrap();
    let nb = native.measure_tx(60).unwrap();
    let mut twin = System::build(Config::TwinDrivers).unwrap();
    let tb = twin.measure_tx(60).unwrap();
    assert!(tb.cycles(CostDomain::Driver) > 1.6 * nb.cycles(CostDomain::Driver));
    // Native stack cost ≈ twin guest stack cost (different category).
    let native_stack = nb.cycles(CostDomain::Dom0);
    let twin_stack = tb.cycles(CostDomain::DomU);
    let ratio = twin_stack / native_stack;
    assert!((0.5..1.5).contains(&ratio), "stack cost ratio {ratio:.2}");
}

#[test]
fn stlb_warm_after_startup() {
    let mut sys = System::build(Config::TwinDrivers).unwrap();
    // Warm up past one full RX-ring cycle (128 descriptors).
    for _ in 0..160 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    let misses_before = sys.world.svm_hyp.as_ref().unwrap().stats().misses;
    for _ in 0..100 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    let misses_after = sys.world.svm_hyp.as_ref().unwrap().stats().misses;
    let new_misses = misses_after - misses_before;
    assert!(
        new_misses <= 40,
        "steady state should mostly hit the stlb ({new_misses} new misses over 200 packets)"
    );
}

#[test]
fn header_copy_threshold_scales_copy_cost() {
    let small = SystemOptions {
        header_copy_bytes: 32,
        ..SystemOptions::default()
    };
    let large = SystemOptions {
        header_copy_bytes: 1024,
        ..SystemOptions::default()
    };
    let mut a = System::build_with(Config::TwinDrivers, &small).unwrap();
    let ba = a.measure_tx(40).unwrap();
    let mut b = System::build_with(Config::TwinDrivers, &large).unwrap();
    let bb = b.measure_tx(40).unwrap();
    assert!(
        bb.cycles(CostDomain::Xen) > ba.cycles(CostDomain::Xen) + 1000.0,
        "copying 1 KiB headers must cost visibly more than 32 B"
    );
    // Both still deliver full frames.
    a.take_wire_frames();
    for _ in 0..3 {
        a.transmit_one().unwrap();
    }
    assert_eq!(a.take_wire_frames()[0].len(), 1514);
}
