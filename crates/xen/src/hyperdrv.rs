//! Loading the derived driver into the hypervisor (paper §5.2).
//!
//! The hypervisor loader resolves every *data* reference of the rewritten
//! driver to the corresponding dom0 address, using the relocation
//! information the dom0 module loader saved when the VM instance was
//! loaded — "this ensures that all hypervisor driver data references
//! point only to memory locations in dom0 address space". The `stlb`
//! symbol resolves to the hypervisor's translation table, and calls to
//! support routines become extern trampolines that the hypervisor
//! dispatches to its own implementations or to upcall stubs.

use std::collections::BTreeMap;
use twin_isa::{Module, INSN_SIZE};
use twin_kernel::{LoadError, LoadedDriver};
use twin_machine::{Fault, ImageId, Machine, HYPER_BASE, PAGE_SIZE};

/// Code base for the hypervisor driver instance. The VM instance loads at
/// a lower base; the difference is the constant code offset used by
/// `stlb_call` translation (paper §5.1.2).
pub const HYP_CODE_BASE: u64 = 0x0c00_0000;

/// Hypervisor driver stack (own stack in the hypervisor region, guarded —
/// paper §4.1).
pub const HYP_STACK_BASE: u64 = HYPER_BASE + 0x0080_0000;

/// Stack size in pages.
pub const HYP_STACK_PAGES: u64 = 8;

/// Dedicated upcall stack (paper §4.2: "the stub routine also switches
/// from the hypervisor stack to an 'upcall' stack").
pub const UPCALL_STACK_BASE: u64 = HYPER_BASE + 0x0090_0000;

/// Upcall stack size in pages.
pub const UPCALL_STACK_PAGES: u64 = 4;

/// The deferred-upcall request ring (hypervisor memory, shared with the
/// dom0 flush handler): each slot saves one queued upcall's routine id,
/// arity, stack parameters and continuation id, so the batched dom0 pass
/// can rebuild every call frame without touching the driver stack. The
/// dom0 handler resumes the driver instance by posting each routine's
/// return value back through the event channel
/// ([`crate::upcall::UPCALL_COMPLETION_PORT`]).
pub const UPCALL_RING_BASE: u64 = HYPER_BASE + 0x0098_0000;

/// Ring size in pages.
pub const UPCALL_RING_PAGES: u64 = 2;

/// Bytes per ring slot: routine id, arity, four saved arguments,
/// continuation id (lo, hi) — eight 32-bit words.
pub const UPCALL_RING_SLOT_BYTES: u64 = 32;

/// Number of ring slots (the hard ceiling on the engine's capacity).
pub const UPCALL_RING_SLOTS: u64 = UPCALL_RING_PAGES * PAGE_SIZE / UPCALL_RING_SLOT_BYTES;

/// The hypervisor driver instance: image, entry points, stack, and abort
/// state (a driver that makes an illegal access is aborted and stays
/// aborted until reloaded).
#[derive(Debug)]
pub struct HypervisorDriver {
    /// Loaded image id.
    pub image: ImageId,
    /// Code base (constant offset from the VM instance).
    pub code_base: u64,
    /// Exported entry points.
    pub entries: BTreeMap<String, u64>,
    /// Top of the driver's hypervisor stack.
    pub stack_top: u64,
    /// Abort reason, if the driver has been killed.
    pub aborted: Option<String>,
    /// Number of instructions.
    pub text_len: usize,
    /// Per-device quarantine: devices whose fault was contained to their
    /// adapter slot (fault-recovery mode) instead of killing the shared
    /// image. Maps device id → the abort reason that triggered it.
    pub quarantined: BTreeMap<u32, String>,
}

impl HypervisorDriver {
    /// Address of an exported function.
    pub fn entry(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Code range `(base, end)` for call-translation validation.
    pub fn code_range(&self) -> (u64, u64) {
        (
            self.code_base,
            self.code_base + self.text_len as u64 * INSN_SIZE,
        )
    }

    /// Marks the driver aborted (illegal access detected by SVM).
    pub fn abort(&mut self, reason: impl Into<String>) {
        if self.aborted.is_none() {
            self.aborted = Some(reason.into());
        }
    }

    /// Whether the driver is dead.
    pub fn is_aborted(&self) -> bool {
        self.aborted.is_some()
    }

    /// Quarantines one device: the shared image stays live for its
    /// siblings, but calls driving `dev` are refused until
    /// [`HypervisorDriver::release_device`]. First reason wins, like
    /// [`HypervisorDriver::abort`].
    pub fn quarantine_device(&mut self, dev: u32, reason: impl Into<String>) {
        self.quarantined.entry(dev).or_insert_with(|| reason.into());
    }

    /// Whether `dev` is quarantined.
    pub fn is_quarantined(&self, dev: u32) -> bool {
        self.quarantined.contains_key(&dev)
    }

    /// The abort reason that quarantined `dev`, if any.
    pub fn quarantined_reason(&self, dev: u32) -> Option<&str> {
        self.quarantined.get(&dev).map(String::as_str)
    }

    /// Releases `dev` from quarantine after recovery; returns the
    /// recorded reason.
    pub fn release_device(&mut self, dev: u32) -> Option<String> {
        self.quarantined.remove(&dev)
    }
}

/// Loads the rewritten module as the hypervisor instance.
///
/// * data symbols resolve to the **dom0** addresses recorded by the VM
///   load (`vm.data_symbols`) — single data instance;
/// * `stlb` resolves to `stlb_base` (the hypervisor table);
/// * unresolved support routines become extern trampolines (hypervisor
///   implementations or upcall stubs at dispatch time).
///
/// Also maps the driver stack and the upcall stack, leaving guard pages
/// below each.
///
/// # Errors
///
/// Returns [`LoadError`] on unresolved symbols or mapping faults.
pub fn load_hypervisor_driver(
    m: &mut Machine,
    rewritten: &Module,
    vm: &LoadedDriver,
    stlb_base: u64,
) -> Result<HypervisorDriver, LoadError> {
    m.map_hyper_fresh(HYP_STACK_BASE, HYP_STACK_PAGES)
        .map_err(LoadError::Fault)?;
    m.map_hyper_fresh(UPCALL_STACK_BASE, UPCALL_STACK_PAGES)
        .map_err(LoadError::Fault)?;
    m.map_hyper_fresh(UPCALL_RING_BASE, UPCALL_RING_PAGES)
        .map_err(LoadError::Fault)?;
    let image = m
        .load_image(rewritten, HYP_CODE_BASE, |name| {
            if name == twin_svm::STLB_SYMBOL {
                Some(stlb_base)
            } else {
                vm.data_symbol(name)
            }
        })
        .map_err(LoadError::Link)?;
    let entries = m.image(image).exports.clone();
    let text_len = m.image(image).insns.len();
    Ok(HypervisorDriver {
        image,
        code_base: HYP_CODE_BASE,
        entries,
        stack_top: HYP_STACK_BASE + HYP_STACK_PAGES * PAGE_SIZE,
        aborted: None,
        text_len,
        quarantined: BTreeMap::new(),
    })
}

/// Guard against misuse: ensure a fault aborts the driver and reports a
/// readable reason.
pub fn abort_reason_for(fault: &Fault) -> String {
    match fault {
        Fault::EnvFault(msg) => msg.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;
    use twin_kernel::load_driver;
    use twin_rewriter::{rewrite, RewriteOptions};

    #[test]
    fn loader_shares_data_with_vm_instance() {
        let src = r#"
            .text
            .globl get
        get:
            movl counter, %eax
            ret
            .data
        counter:
            .long 7
        "#;
        let module = assemble("d", src).unwrap();
        let rw = rewrite(&module, &RewriteOptions::default()).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        let vm = load_driver(&mut m, dom0, &rw.module, 0x0800_0000, 0x2800_0000, |n| {
            (n == twin_svm::STLB_SYMBOL).then_some(0x2900_0000)
        })
        .unwrap();
        let hyp =
            load_hypervisor_driver(&mut m, &rw.module, &vm, twin_svm::STLB_HYPER_BASE).unwrap();
        assert_eq!(hyp.code_base, HYP_CODE_BASE);
        assert!(hyp.entry("get").is_some());
        // Constant offset between the two instances' entry points.
        let off = hyp.entry("get").unwrap() as i64 - vm.entry("get").unwrap() as i64;
        assert_eq!(off, HYP_CODE_BASE as i64 - 0x0800_0000);
        // The hypervisor image's data reference points at dom0's counter.
        let (lo, hi) = hyp.code_range();
        assert!(lo < hi);
        assert!(!hyp.is_aborted());
    }

    #[test]
    fn abort_is_sticky() {
        let module = assemble("d", ".text\n.globl f\nf:\n ret\n").unwrap();
        let rw = rewrite(&module, &RewriteOptions::default()).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        let vm = load_driver(&mut m, dom0, &rw.module, 0x0800_0000, 0x2800_0000, |n| {
            (n == twin_svm::STLB_SYMBOL).then_some(0x2900_0000)
        })
        .unwrap();
        let mut hyp =
            load_hypervisor_driver(&mut m, &rw.module, &vm, twin_svm::STLB_HYPER_BASE).unwrap();
        hyp.abort("svm: bad access");
        hyp.abort("second");
        assert_eq!(hyp.aborted.as_deref(), Some("svm: bad access"));
    }

    #[test]
    fn quarantine_is_per_device_and_releasable() {
        let module = assemble("d", ".text\n.globl f\nf:\n ret\n").unwrap();
        let rw = rewrite(&module, &RewriteOptions::default()).unwrap();
        let mut m = Machine::new();
        let dom0 = m.new_space();
        let vm = load_driver(&mut m, dom0, &rw.module, 0x0800_0000, 0x2800_0000, |n| {
            (n == twin_svm::STLB_SYMBOL).then_some(0x2900_0000)
        })
        .unwrap();
        let mut hyp =
            load_hypervisor_driver(&mut m, &rw.module, &vm, twin_svm::STLB_HYPER_BASE).unwrap();
        hyp.quarantine_device(2, "illegal store");
        hyp.quarantine_device(2, "second");
        assert!(hyp.is_quarantined(2));
        assert!(!hyp.is_quarantined(0));
        assert!(!hyp.is_aborted()); // siblings keep serving
        assert_eq!(hyp.quarantined_reason(2), Some("illegal store"));
        assert_eq!(hyp.release_device(2).as_deref(), Some("illegal store"));
        assert!(!hyp.is_quarantined(2));
    }
}
