//! # twin-machine — the simulated machine
//!
//! Executes [`twin_isa`] code against simulated physical memory with 4 KiB
//! paging, per-domain address spaces, a shared hypervisor region (mapped in
//! every space, accessible only in hypervisor mode — like Xen's reserved
//! region), MMIO routing, faults, and a deterministic cycle cost model.
//!
//! The paper's evaluation is reported in *CPU cycles per packet* attributed
//! to four categories (dom0 kernel, guest kernel, Xen, the e1000 driver —
//! Figures 7/8). [`CycleMeter`] implements exactly that attribution: an
//! explicit stack of [`CostDomain`]s, charged by the interpreter for every
//! instruction and by the hypervisor/kernel models for every modeled
//! operation (domain switch, hypercall, grant op, copy, …) with constants
//! from [`CostParams`].
//!
//! Driver code runs *for real*: every instruction of the SVM-rewritten
//! driver is executed, counted and charged, so the 2–3× slowdown of the
//! rewritten driver (paper §6.2) emerges from the rewritten instruction
//! stream rather than from a fudge factor.
//!
//! Loading an image lowers its text once ([`op`]): each [`twin_isa::Insn`]
//! becomes a compact `Copy` [`Op`] with every symbol and label resolved,
//! each Figure 4 SVM fast path becomes one fused [`SvmCheck`], and a
//! block-end table records where each basic block ends. The run loop in
//! [`interp`] checks for the return sentinel, an extern trampoline, the
//! budget and the fetch once per block, not once per instruction. The
//! model cannot tell: counts, charges, events, faults and the clock seen
//! by device models are those of one-at-a-time execution
//! (`tests/lowered.rs` compares the two on random programs).
//!
//! ```
//! use twin_isa::asm::assemble;
//! use twin_machine::{Machine, Cpu, ExecMode, NullEnv, run, StopReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = assemble("m", ".text\n.globl f\nf:\n movl $7, %eax\n addl %eax, %eax\n ret\n")?;
//! let mut m = Machine::new();
//! let space = m.new_space();
//! let image = m.load_image(&module, 0x0800_0000, |_| None)?;
//! let mut cpu = Cpu::new(space, ExecMode::Guest);
//! m.map_stack(space, 0x3000_0000, 4)?;
//! cpu.set_stack(0x3000_0000 + 4 * 4096);
//! cpu.push_call_frame(&mut m, &[])?;
//! cpu.pc = m.image(image).export("f").unwrap();
//! let stop = run(&mut m, &mut cpu, &mut NullEnv, 1000)?;
//! assert_eq!(stop, StopReason::Returned);
//! assert_eq!(cpu.reg(twin_isa::Reg::Eax), 14);
//! # Ok(())
//! # }
//! ```

pub mod cost;
pub mod image;
pub mod interp;
pub mod mem;
pub mod op;
pub mod space;

pub use cost::{CostDomain, CostParams, CycleMeter, VirtualClock};
pub use image::{CodeImage, ImageId, LinkError};
pub use interp::{run, Cpu, Env, ExecMode, Fault, NullEnv, StopReason};
pub use mem::{PhysMem, PAGE_SIZE};
pub use op::{Arg, Ea, Jump, Op, SvmCheck};
pub use space::{PageEntry, PageKind, PageTable, SpaceId};

use space::Translation;
use std::sync::Arc;
use twin_isa::{Module, Width};

/// Base of the hypervisor-reserved virtual region, mapped into every
/// address space but accessible only in [`ExecMode::Hypervisor`].
pub const HYPER_BASE: u64 = 0xF000_0000;

/// Sentinel return address: `ret`-ing to it stops the interpreter with
/// [`StopReason::Returned`], which is how native code calls into ISA code.
pub const RETURN_SENTINEL: u64 = 0xFFFF_FFF0;

/// Base virtual address where extern trampolines are laid out; each
/// resolved extern symbol gets a unique address `EXTERN_BASE + 8*id`.
pub const EXTERN_BASE: u64 = 0xEE00_0000;

/// The complete simulated machine: physical memory, address spaces, the
/// shared hypervisor region, loaded code images, extern trampolines and the
/// cycle meter.
#[derive(Debug)]
pub struct Machine {
    /// Physical memory and frame allocator.
    pub phys: PhysMem,
    /// Per-domain address spaces, indexed by [`SpaceId`].
    spaces: Vec<PageTable>,
    /// The shared hypervisor region (addresses above [`HYPER_BASE`]).
    pub hyper: PageTable,
    /// Cycle accounting.
    pub meter: CycleMeter,
    /// Cost constants.
    pub cost: CostParams,
    /// Flight recorder (disabled by default). Recording is pure
    /// bookkeeping outside the charged path: [`Machine::trace_event`]
    /// *reads* the clock and domain stack but never charges, so a traced
    /// run's cycle accounting is bit-identical to an untraced run's.
    pub trace: twin_trace::FlightRecorder,
    /// Loaded images, append-only and never mutated after load; shared so
    /// the run loop can hold instructions by reference while it mutates
    /// the machine.
    images: Arc<Vec<CodeImage>>,
    /// Extern names, indexed by trampoline slot; append-only and shared
    /// like `images`, so the run loop borrows a name from its own handle.
    extern_names: Arc<Vec<Arc<str>>>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Creates a machine with default cost parameters and 256 MiB of
    /// simulated physical memory.
    pub fn new() -> Machine {
        Machine::with_cost(CostParams::default())
    }

    /// Creates a machine with explicit cost parameters.
    pub fn with_cost(cost: CostParams) -> Machine {
        Machine {
            phys: PhysMem::new(256 * 1024 * 1024 / PAGE_SIZE as usize),
            spaces: Vec::new(),
            hyper: PageTable::new(),
            meter: CycleMeter::new(),
            cost,
            trace: twin_trace::FlightRecorder::new(),
            images: Arc::default(),
            extern_names: Arc::default(),
        }
    }

    /// Current virtual time in cycles (monotonic; advanced by every cost
    /// charge and by explicit idle advances — see
    /// [`cost::VirtualClock`]).
    pub fn now_cycles(&self) -> u64 {
        self.meter.now()
    }

    /// Records a flight-recorder event stamped with the current virtual
    /// clock and cost domain. A branch-and-return while tracing is
    /// disabled; never charges a cycle either way.
    #[inline]
    pub fn trace_event(&mut self, event: twin_trace::TraceEvent) {
        if self.trace.enabled() {
            self.trace
                .record(self.meter.now(), self.meter.current_domain().label(), event);
        }
    }

    /// Creates a new, empty address space and returns its id.
    pub fn new_space(&mut self) -> SpaceId {
        let id = SpaceId(self.spaces.len());
        self.spaces.push(PageTable::new());
        id
    }

    /// Number of address spaces.
    pub fn space_count(&self) -> usize {
        self.spaces.len()
    }

    /// Borrow an address space's page table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a space of this machine.
    pub fn space(&self, id: SpaceId) -> &PageTable {
        &self.spaces[id.0]
    }

    /// Mutably borrow an address space's page table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a space of this machine.
    pub fn space_mut(&mut self, id: SpaceId) -> &mut PageTable {
        &mut self.spaces[id.0]
    }

    /// Registers an extern symbol, returning its trampoline address.
    /// Calling this address transfers control to [`Env::extern_call`].
    pub fn register_extern(&mut self, name: &str) -> u64 {
        if let Some(a) = self.extern_addr(name) {
            return a;
        }
        Arc::make_mut(&mut self.extern_names).push(name.into());
        EXTERN_BASE + 8 * (self.extern_names.len() - 1) as u64
    }

    /// Looks up an already-registered extern trampoline address.
    pub fn extern_addr(&self, name: &str) -> Option<u64> {
        self.extern_names
            .iter()
            .position(|n| **n == *name)
            .map(|i| EXTERN_BASE + 8 * i as u64)
    }

    /// Resolves a trampoline address back to the extern's name.
    pub fn extern_name(&self, addr: u64) -> Option<&str> {
        extern_slot(&self.extern_names, addr)
    }

    /// Loads a module's text at `code_base`, resolving local labels and
    /// data symbols via the module plus `resolve` for everything else
    /// (externs and cross-module symbols). Unresolved externs are
    /// auto-registered as trampolines. The text is lowered once, here
    /// (see [`op`]).
    ///
    /// The data section is *not* placed by this call — callers (the dom0
    /// module loader, the hypervisor ELF-like loader) map and fill data
    /// pages themselves and pass the resulting symbol addresses through
    /// `resolve`. See `twin-kernel` and `twin-xen`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Unresolved`] if a referenced symbol cannot be
    /// resolved, and [`LinkError::TrampolineWindow`] if the text would
    /// overlap `[EXTERN_BASE, RETURN_SENTINEL]`: the run loop dispatches
    /// those addresses as extern calls and returns, so such code could
    /// never run.
    pub fn load_image<F>(
        &mut self,
        module: &Module,
        code_base: u64,
        mut resolve: F,
    ) -> Result<ImageId, LinkError>
    where
        F: FnMut(&str) -> Option<u64>,
    {
        let end = code_base.saturating_add(module.text.len() as u64 * twin_isa::INSN_SIZE);
        if code_base < end && code_base <= RETURN_SENTINEL && end > EXTERN_BASE {
            return Err(LinkError::TrampolineWindow {
                module: module.name.clone(),
                base: code_base,
                end,
            });
        }
        // Register all declared externs up-front so their trampoline
        // addresses are stable, then link with full resolution.
        let declared: Vec<String> = module.externs.iter().cloned().collect();
        for name in &declared {
            // Caller-provided resolution wins; only register the rest.
            if resolve(name).is_none() {
                self.register_extern(name);
            }
        }
        let image = image::link(module, code_base, |name| {
            resolve(name).or_else(|| self.extern_addr(name))
        })?;
        let id = ImageId(self.images.len());
        Arc::make_mut(&mut self.images).push(image);
        Ok(id)
    }

    /// Borrow a loaded image.
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid.
    pub fn image(&self, id: ImageId) -> &CodeImage {
        &self.images[id.0]
    }

    /// Allocates `pages` physical frames and maps them contiguously at
    /// `base` in space `space` (read-write data pages).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfMemory`] when physical memory is exhausted.
    pub fn map_fresh(&mut self, space: SpaceId, base: u64, pages: u64) -> Result<(), Fault> {
        for i in 0..pages {
            let pfn = self.phys.alloc_frame().ok_or(Fault::OutOfMemory)?;
            self.spaces[space.0].map(base + i * PAGE_SIZE, PageEntry::ram(pfn, true));
        }
        Ok(())
    }

    /// Maps a stack of `pages` pages at `base`. The page below `base` is
    /// deliberately left unmapped as a guard page (paper §4.1: hypervisor
    /// driver stack overflow "is prevented by the use of guard pages").
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfMemory`] when physical memory is exhausted.
    pub fn map_stack(&mut self, space: SpaceId, base: u64, pages: u64) -> Result<(), Fault> {
        self.map_fresh(space, base, pages)
    }

    /// Allocates and maps pages in the *hypervisor* region.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::OutOfMemory`] when physical memory is exhausted.
    pub fn map_hyper_fresh(&mut self, base: u64, pages: u64) -> Result<(), Fault> {
        for i in 0..pages {
            let pfn = self.phys.alloc_frame().ok_or(Fault::OutOfMemory)?;
            self.hyper
                .map(base + i * PAGE_SIZE, PageEntry::ram(pfn, true));
        }
        Ok(())
    }

    /// Translates a virtual address in `space`/`mode` to a page entry and
    /// offset, without charging cycles.
    ///
    /// # Errors
    ///
    /// [`Fault::PageFault`] if unmapped, [`Fault::ProtFault`] for a guest
    /// touching the hypervisor region or writing a read-only page.
    #[inline]
    pub fn translate(
        &self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        write: bool,
    ) -> Result<Translation, Fault> {
        let table = if addr >= HYPER_BASE {
            if mode != ExecMode::Hypervisor {
                return Err(Fault::ProtFault { addr });
            }
            &self.hyper
        } else {
            &self.spaces[space.0]
        };
        let entry = table.lookup(addr).ok_or(Fault::PageFault { addr, write })?;
        if write && !entry.writable {
            return Err(Fault::ProtFault { addr });
        }
        Ok(Translation {
            entry,
            offset: addr % PAGE_SIZE,
        })
    }

    /// Reads `width` bytes at a virtual address (no cycle charge; the
    /// interpreter charges separately). Values are zero-extended.
    ///
    /// # Errors
    ///
    /// Propagates translation faults; MMIO pages cannot be read through
    /// this accessor and return [`Fault::MmioAccess`].
    #[inline]
    pub fn read_virt(
        &self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: Width,
    ) -> Result<u32, Fault> {
        let t = self.translate(space, mode, addr, false)?;
        self.read_translated(t, space, mode, addr, width)
    }

    /// [`Machine::read_virt`] given the translation `t` of `addr` itself.
    /// An access inside one page reads physical memory directly; one that
    /// crosses a page goes byte by byte, so a fault names the first byte
    /// that cannot be read.
    #[inline]
    pub(crate) fn read_translated(
        &self,
        t: Translation,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: Width,
    ) -> Result<u32, Fault> {
        let paddr = ram_paddr(t, addr)?;
        if t.offset + width.bytes() <= PAGE_SIZE {
            return Ok(self.phys.read_le(paddr, width));
        }
        let mut val = 0u32;
        for i in 0..width.bytes() {
            let t = self.translate(space, mode, addr + i, false)?;
            let b = self.phys.read_u8(ram_paddr(t, addr)?);
            val |= (b as u32) << (8 * i);
        }
        Ok(val)
    }

    /// Writes `width` bytes at a virtual address.
    ///
    /// # Errors
    ///
    /// Propagates translation faults; see [`Machine::read_virt`].
    #[inline]
    pub fn write_virt(
        &mut self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: Width,
        val: u32,
    ) -> Result<(), Fault> {
        let t = self.translate(space, mode, addr, true)?;
        self.write_translated(t, space, mode, addr, width, val)
    }

    /// [`Machine::write_virt`] given the write translation `t` of `addr`
    /// itself. A page-crossing write goes byte by byte: the bytes before a
    /// faulting one are written, and the fault names that byte.
    #[inline]
    pub(crate) fn write_translated(
        &mut self,
        t: Translation,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        width: Width,
        val: u32,
    ) -> Result<(), Fault> {
        let paddr = ram_paddr(t, addr)?;
        if t.offset + width.bytes() <= PAGE_SIZE {
            self.phys.write_le(paddr, width, val);
            return Ok(());
        }
        for i in 0..width.bytes() {
            let t = self.translate(space, mode, addr + i, true)?;
            self.phys
                .write_u8(ram_paddr(t, addr)?, (val >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// Reads a 32-bit little-endian value; convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`Machine::read_virt`].
    #[inline]
    pub fn read_u32(&self, space: SpaceId, mode: ExecMode, addr: u64) -> Result<u32, Fault> {
        self.read_virt(space, mode, addr, Width::Long)
    }

    /// Writes a 32-bit little-endian value; convenience wrapper.
    ///
    /// # Errors
    ///
    /// See [`Machine::write_virt`].
    #[inline]
    pub fn write_u32(
        &mut self,
        space: SpaceId,
        mode: ExecMode,
        addr: u64,
        val: u32,
    ) -> Result<(), Fault> {
        self.write_virt(space, mode, addr, Width::Long, val)
    }

    /// Copies `len` bytes of simulated memory between virtual ranges which
    /// may live in different spaces. Used by the hypervisor's packet-copy
    /// path; charges nothing (callers charge copy cycles explicitly).
    ///
    /// # Errors
    ///
    /// Propagates translation faults from either side.
    pub fn copy_virt(
        &mut self,
        src: (SpaceId, ExecMode, u64),
        dst: (SpaceId, ExecMode, u64),
        len: u64,
    ) -> Result<(), Fault> {
        // Chunks end at a page boundary on either side, so each needs one
        // translation per side, and the bytes and the fault before a bad
        // page are those of a byte-at-a-time copy.
        let mut done = 0;
        while done < len {
            let (s, d) = (src.2 + done, dst.2 + done);
            let n = (len - done)
                .min(PAGE_SIZE - s % PAGE_SIZE)
                .min(PAGE_SIZE - d % PAGE_SIZE);
            let ps = ram_paddr(self.translate(src.0, src.1, s, false)?, s)?;
            let pd = ram_paddr(self.translate(dst.0, dst.1, d, true)?, d)?;
            self.phys.copy_forward(ps, pd, n as usize);
            done += n;
        }
        Ok(())
    }
}

/// The name of the extern whose trampoline is at `addr`, in `names`.
#[inline]
pub(crate) fn extern_slot(names: &[Arc<str>], addr: u64) -> Option<&str> {
    if addr < EXTERN_BASE || (addr - EXTERN_BASE) % 8 != 0 {
        return None;
    }
    names.get(((addr - EXTERN_BASE) / 8) as usize).map(|n| &**n)
}

/// The physical address a RAM translation `t` names; an MMIO page faults
/// with the address of the access, `addr`.
#[inline]
fn ram_paddr(t: Translation, addr: u64) -> Result<u64, Fault> {
    match t.entry.kind {
        PageKind::Ram => Ok(t.entry.pfn * PAGE_SIZE + t.offset),
        PageKind::Mmio(_) => Err(Fault::MmioAccess { addr }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::Width;

    #[test]
    fn map_and_access() {
        let mut m = Machine::new();
        let s = m.new_space();
        m.map_fresh(s, 0x2000_0000, 2).unwrap();
        m.write_u32(s, ExecMode::Guest, 0x2000_0ffc, 0xdead_beef)
            .unwrap();
        assert_eq!(
            m.read_u32(s, ExecMode::Guest, 0x2000_0ffc).unwrap(),
            0xdead_beef
        );
        // Cross-page unaligned access works.
        m.write_u32(s, ExecMode::Guest, 0x2000_0ffe, 0x1234_5678)
            .unwrap();
        assert_eq!(
            m.read_u32(s, ExecMode::Guest, 0x2000_0ffe).unwrap(),
            0x1234_5678
        );
    }

    #[test]
    fn unmapped_faults() {
        let mut m = Machine::new();
        let s = m.new_space();
        let e = m.read_u32(s, ExecMode::Guest, 0x4000_0000).unwrap_err();
        assert!(matches!(e, Fault::PageFault { .. }));
    }

    #[test]
    fn hypervisor_region_protected_from_guests() {
        let mut m = Machine::new();
        let s = m.new_space();
        m.map_hyper_fresh(HYPER_BASE, 1).unwrap();
        let e = m.read_u32(s, ExecMode::Guest, HYPER_BASE).unwrap_err();
        assert!(matches!(e, Fault::ProtFault { .. }));
        assert!(m.read_u32(s, ExecMode::Hypervisor, HYPER_BASE).is_ok());
    }

    #[test]
    fn shared_mapping_between_spaces() {
        let mut m = Machine::new();
        let a = m.new_space();
        let b = m.new_space();
        let pfn = m.phys.alloc_frame().unwrap();
        m.space_mut(a).map(0x2000_0000, PageEntry::ram(pfn, true));
        m.space_mut(b).map(0x5000_0000, PageEntry::ram(pfn, true));
        m.write_u32(a, ExecMode::Guest, 0x2000_0004, 77).unwrap();
        assert_eq!(m.read_u32(b, ExecMode::Guest, 0x5000_0004).unwrap(), 77);
    }

    #[test]
    fn extern_registration_is_stable() {
        let mut m = Machine::new();
        let a1 = m.register_extern("netif_rx");
        let a2 = m.register_extern("netif_rx");
        assert_eq!(a1, a2);
        assert_eq!(m.extern_name(a1), Some("netif_rx"));
        assert_eq!(m.extern_addr("netif_rx"), Some(a1));
        let b = m.register_extern("netdev_alloc_skb");
        assert_ne!(a1, b);
    }

    #[test]
    fn readonly_pages_fault_on_write() {
        let mut m = Machine::new();
        let s = m.new_space();
        let pfn = m.phys.alloc_frame().unwrap();
        m.space_mut(s).map(0x2000_0000, PageEntry::ram(pfn, false));
        assert!(m
            .read_virt(s, ExecMode::Guest, 0x2000_0000, Width::Byte)
            .is_ok());
        let e = m
            .write_virt(s, ExecMode::Guest, 0x2000_0000, Width::Byte, 1)
            .unwrap_err();
        assert!(matches!(e, Fault::ProtFault { .. }));
    }

    #[test]
    fn copy_virt_across_spaces() {
        let mut m = Machine::new();
        let a = m.new_space();
        let b = m.new_space();
        m.map_fresh(a, 0x2000_0000, 1).unwrap();
        m.map_fresh(b, 0x2000_0000, 1).unwrap();
        for i in 0..16u32 {
            m.write_virt(a, ExecMode::Guest, 0x2000_0000 + i as u64, Width::Byte, i)
                .unwrap();
        }
        m.copy_virt(
            (a, ExecMode::Guest, 0x2000_0000),
            (b, ExecMode::Guest, 0x2000_0008),
            8,
        )
        .unwrap();
        assert_eq!(
            m.read_virt(b, ExecMode::Guest, 0x2000_000f, Width::Byte)
                .unwrap(),
            7
        );
    }
}
