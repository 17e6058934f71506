//! Safety integration tests (paper §4.5): SVM containment of buggy and
//! malicious drivers, watchdog timeouts, stack protection, privileged
//! instruction scanning, and the IOMMU extension.

use twin_machine::ExecMode;
use twindrivers::kernel::e1000;
use twindrivers::{Config, System, SystemError, SystemOptions};

fn sabotage(marker: &str, payload: &str) -> String {
    let src = e1000::source();
    assert!(src.contains(marker), "marker present");
    src.replace(marker, &format!("{marker}\n{payload}"))
}

fn build_evil(payload: &str) -> System {
    let opts = SystemOptions {
        driver_source: Some(sabotage("e1000_xmit_frame:", payload)),
        ..SystemOptions::default()
    };
    System::build_with(Config::TwinDrivers, &opts).expect("evil driver still builds")
}

#[test]
fn wild_hypervisor_write_is_contained() {
    let mut sys = build_evil(
        r#"
    pushl %eax
    movl $0xf0200100, %eax      # the stlb itself
    movl $0xdeadbeef, (%eax)
    popl %eax
"#,
    );
    // Snapshot a hypervisor word the driver tried to clobber.
    let before = sys
        .machine
        .read_u32(sys.world.kernel.space, ExecMode::Hypervisor, 0xf020_0100)
        .unwrap();
    let err = sys.transmit_one().unwrap_err();
    assert!(matches!(err, SystemError::DriverAborted(_)), "{err}");
    let after = sys
        .machine
        .read_u32(sys.world.kernel.space, ExecMode::Hypervisor, 0xf020_0100)
        .unwrap();
    assert_eq!(before, after, "hypervisor memory untouched");
    assert!(sys.world.svm_hyp.as_ref().unwrap().stats().rejected >= 1);
}

#[test]
fn wild_read_of_unmapped_memory_is_contained() {
    let mut sys = build_evil(
        r#"
    pushl %eax
    movl $0x66660000, %eax
    movl (%eax), %eax
    popl %eax
"#,
    );
    let err = sys.transmit_one().unwrap_err();
    assert!(matches!(err, SystemError::DriverAborted(_)));
}

#[test]
fn runaway_driver_hits_watchdog() {
    let mut sys = build_evil("\n.Lforever:\n    jmp .Lforever\n");
    let err = sys.transmit_one().unwrap_err();
    match err {
        SystemError::DriverAborted(reason) => {
            assert!(reason.contains("watchdog"), "{reason}");
        }
        other => panic!("expected watchdog abort, got {other}"),
    }
}

#[test]
fn abort_is_sticky_and_dom0_survives() {
    let mut sys = build_evil(
        r#"
    pushl %eax
    movl $0xf0000000, %eax
    movl $1, (%eax)
    popl %eax
"#,
    );
    assert!(sys.transmit_one().is_err());
    assert!(sys.transmit_one().is_err(), "driver stays aborted");
    // dom0's own packet path (the VM instance in dom0) keeps working:
    // run a config op through the VM instance.
    let dom0 = sys.world.kernel.space;
    let entry = sys.driver.entry("e1000_get_link").unwrap();
    let r = twindrivers::kernel::call_function(
        &mut sys.machine,
        &mut sys.world,
        dom0,
        ExecMode::Guest,
        twin_kernel::DOM0_STACK_BASE + twin_kernel::DOM0_STACK_PAGES * 4096,
        entry,
        &[0],
        2_000_000,
    )
    .unwrap();
    assert_eq!(r, 1);
}

#[test]
fn privileged_instruction_rejected_at_rewrite_time() {
    // Paper §4.5.2: privileged instructions "can be detected and
    // prevented by static inspection of the driver code during binary
    // translation".
    let opts = SystemOptions {
        driver_source: Some(sabotage("e1000_xmit_frame:", "    hlt\n")),
        ..SystemOptions::default()
    };
    let err = System::build_with(Config::TwinDrivers, &opts).unwrap_err();
    match err {
        SystemError::Build(msg) => assert!(msg.contains("privileged"), "{msg}"),
        other => panic!("expected build rejection, got {other}"),
    }
}

#[test]
fn baseline_configs_accept_the_same_driver() {
    // The static scan only runs for the rewritten (hypervisor) driver;
    // native configs load the original unmodified.
    let opts = SystemOptions {
        driver_source: Some(e1000::source()),
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::NativeLinux, &opts).unwrap();
    sys.transmit_one().unwrap();
}

#[test]
fn stack_checks_extension_still_works_end_to_end() {
    let opts = SystemOptions {
        rewrite: twin_rewriter::RewriteOptions {
            stack_checks: true,
            ..twin_rewriter::RewriteOptions::default()
        },
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    for _ in 0..10 {
        sys.transmit_one().unwrap();
        sys.receive_one().unwrap();
    }
    assert_eq!(sys.take_wire_frames().len(), 10);
    assert_eq!(sys.delivered_rx(), 10);
}

#[test]
fn iommu_blocks_rogue_dma() {
    // A malicious driver writes a descriptor pointing at hypervisor-
    // reserved physical memory. SVM cannot catch DMA (paper §4.5 admits
    // this); the IOMMU extension does.
    let evil = sabotage(
        "    movl 20(%ebx), %eax\n    movl %eax, 0x3818(%ecx)     # TDT: the posted doorbell write",
        "", // no-op marker use; real sabotage below
    );
    let _ = evil;
    // Instead of patching assembly, poke a rogue descriptor directly
    // between xmit and the doorbell: simplest is to build with IOMMU and
    // scribble a descriptor, then ring TDT through the device model.
    let opts = SystemOptions {
        iommu: true,
        ..SystemOptions::default()
    };
    let mut sys = System::build_with(Config::TwinDrivers, &opts).unwrap();
    // Legitimate traffic passes.
    for _ in 0..5 {
        sys.transmit_one().unwrap();
    }
    assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 0);
    // Rogue descriptor: point at a frame that belongs to nobody.
    let tdbal = sys.world.nics[0].mmio_read(twin_nic::regs::TDBAL) as u64;
    let tdh = sys.world.nics[0].mmio_read(twin_nic::regs::TDH);
    let daddr = tdbal + tdh as u64 * twin_nic::DESC_SIZE;
    sys.machine.phys.write_u32(daddr, 0x0F00_0000); // unowned frame
    sys.machine.phys.write_u32(daddr + 8, 64);
    sys.machine
        .phys
        .write_u8(daddr + 11, twin_nic::txcmd::EOP | twin_nic::txcmd::RS);
    let iommu = sys.world.iommu.as_mut().unwrap();
    let err = iommu
        .check_tx_ring(&sys.machine, &mut sys.world.nics[0], tdh + 1)
        .unwrap_err();
    assert!(matches!(err, twin_machine::Fault::EnvFault(_)));
    assert_eq!(sys.world.iommu.as_ref().unwrap().blocked, 1);
}

/// The IOMMU guards the hypervisor driver's DMA; a configuration without
/// one must refuse the option instead of building unguarded.
#[test]
fn iommu_requires_the_twindrivers_config() {
    let opts = SystemOptions {
        iommu: true,
        ..SystemOptions::default()
    };
    for config in [Config::NativeLinux, Config::XenDom0, Config::XenGuest] {
        match System::build_with(config, &opts) {
            Err(SystemError::Build(msg)) => assert!(msg.contains("iommu"), "{config}: {msg}"),
            other => panic!("{config}: iommu must be refused, got {other:?}"),
        }
    }
}

/// A driver that lacks an entry point the system calls fails the build
/// with an error naming it, instead of building and panicking on the
/// first multi-NIC transmit burst.
#[test]
fn missing_driver_entry_fails_the_build_naming_it() {
    let src = e1000::source().replace("e1000_xmit_batch_dev", "e1000_xmit_batch_dev_renamed");
    let opts = SystemOptions {
        driver_source: Some(src),
        num_nics: 2,
        ..SystemOptions::default()
    };
    for config in [Config::TwinDrivers, Config::NativeLinux] {
        match System::build_with(config, &opts) {
            Err(SystemError::Build(msg)) => {
                assert!(msg.contains("`e1000_xmit_batch_dev`"), "{config}: {msg}");
            }
            Err(e) => panic!("{config}: expected a build error, got {e}"),
            Ok(mut sys) => panic!(
                "{config}: built without the entry; first burst: {:?}",
                sys.transmit_burst(8)
            ),
        }
    }
}
