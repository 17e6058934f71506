//! Equivalence of the memory fast path with a byte-at-a-time reference.
//!
//! `read_virt`/`write_virt`, the interpreter's loads and stores and
//! `copy_virt` translate once per page. The reference below is the
//! byte-wise algorithm they replace: one translation per byte, through
//! the public [`Machine::translate`]. Random accesses, biased towards page
//! ends, cross into unmapped, read-only and MMIO pages, and touch the
//! hypervisor region in both modes. Every case must give the same value
//! or fault (address included), the same bytes written before a fault,
//! and the same cycle-meter state.

use std::collections::BTreeSet;
use twin_isa::asm::assemble;
use twin_isa::{Reg, Width};
use twin_machine::{
    run, CostDomain, Cpu, ExecMode, Fault, Machine, NullEnv, PageEntry, PageKind, SpaceId,
    StopReason, HYPER_BASE, PAGE_SIZE,
};

/// SplitMix64: a small deterministic generator, so a failing case is
/// replayed from the seed it prints.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const CODE: u64 = 0x0800_0000;
const STACK: u64 = 0x3000_0000;
const LOW: u64 = 0x2000_0000;
/// The last guest page below the hypervisor region.
const BELOW_HYPER: u64 = HYPER_BASE - PAGE_SIZE;

#[derive(Copy, Clone)]
enum Page {
    Rw,
    Ro,
    Mmio,
    /// Read-write alias of the space's first RAM page.
    Alias,
    Unmapped,
}

/// Per-space layouts of six pages from `LOW`, differing so copies across
/// spaces meet different kinds at the same offsets.
const LAYOUTS: [[Page; 6]; 2] = [
    [
        Page::Rw,
        Page::Ro,
        Page::Unmapped,
        Page::Mmio,
        Page::Rw,
        Page::Alias,
    ],
    [
        Page::Rw,
        Page::Rw,
        Page::Mmio,
        Page::Unmapped,
        Page::Ro,
        Page::Alias,
    ],
];

/// Loads and stores of each width, one instruction each, then `ret`.
const PROGRAM: &str = "
    .text
ld1: movzbl (%ebx), %eax
    ret
ld2: movzwl (%ebx), %eax
    ret
ld4: movl (%ebx), %eax
    ret
st1: movb %eax, (%ebx)
    ret
st2: movw %eax, (%ebx)
    ret
st4: movl %eax, (%ebx)
    ret
";

/// Builds a machine with two spaces laid out per [`LAYOUTS`], a guest page
/// just below the hypervisor region, one hypervisor page, a stack and the
/// test program, with every RAM byte drawn from `seed`.
fn machine(seed: u64) -> (Machine, [SpaceId; 2]) {
    let mut m = Machine::new();
    let spaces = [m.new_space(), m.new_space()];
    for (s, layout) in spaces.iter().zip(LAYOUTS) {
        let first = m.phys.alloc_frame().unwrap();
        for (i, page) in layout.iter().enumerate() {
            let va = LOW + i as u64 * PAGE_SIZE;
            let entry = match page {
                Page::Rw if i == 0 => PageEntry::ram(first, true),
                Page::Rw => PageEntry::ram(m.phys.alloc_frame().unwrap(), true),
                Page::Ro => PageEntry::ram(m.phys.alloc_frame().unwrap(), false),
                Page::Mmio => PageEntry::mmio(0, 2),
                Page::Alias => PageEntry::ram(first, true),
                Page::Unmapped => continue,
            };
            m.space_mut(*s).map(va, entry);
        }
        m.map_fresh(*s, BELOW_HYPER, 1).unwrap();
        m.map_stack(*s, STACK, 1).unwrap();
    }
    m.map_hyper_fresh(HYPER_BASE, 1).unwrap();
    let module = assemble("t", PROGRAM).unwrap();
    m.load_image(&module, CODE, |_| None).unwrap();
    let mut rng = Rng(seed);
    for pfn in 0..m.phys.total_frames() as u64 - m.phys.free_frames() as u64 {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.next() as u8).collect();
        m.phys.write_bytes(pfn * PAGE_SIZE, &bytes);
    }
    (m, spaces)
}

/// A random address, half the time within four bytes of a page end.
fn addr(rng: &mut Rng) -> u64 {
    let pages = [
        LOW - PAGE_SIZE,
        LOW,
        LOW + PAGE_SIZE,
        LOW + 2 * PAGE_SIZE,
        LOW + 3 * PAGE_SIZE,
        LOW + 4 * PAGE_SIZE,
        LOW + 5 * PAGE_SIZE,
        BELOW_HYPER,
        HYPER_BASE,
    ];
    let off = if rng.below(2) == 0 {
        PAGE_SIZE - 1 - rng.below(4)
    } else {
        rng.below(PAGE_SIZE)
    };
    rng.pick(&pages) + off
}

fn mode(rng: &mut Rng) -> ExecMode {
    rng.pick(&[ExecMode::Guest, ExecMode::Hypervisor])
}

fn width(rng: &mut Rng) -> Width {
    rng.pick(&[Width::Byte, Width::Word, Width::Long])
}

// ---- the byte-at-a-time reference -------------------------------------

fn ref_read(m: &Machine, s: SpaceId, mode: ExecMode, addr: u64, w: Width) -> Result<u32, Fault> {
    let mut val = 0u32;
    for i in 0..w.bytes() {
        let t = m.translate(s, mode, addr + i, false)?;
        let pfn = match t.entry.kind {
            PageKind::Ram => t.entry.pfn,
            PageKind::Mmio(_) => return Err(Fault::MmioAccess { addr }),
        };
        let b = m.phys.read_u8(pfn * PAGE_SIZE + (addr + i) % PAGE_SIZE);
        val |= (b as u32) << (8 * i);
    }
    Ok(val)
}

fn ref_write(
    m: &mut Machine,
    s: SpaceId,
    mode: ExecMode,
    addr: u64,
    w: Width,
    val: u32,
) -> Result<(), Fault> {
    for i in 0..w.bytes() {
        let t = m.translate(s, mode, addr + i, true)?;
        let pfn = match t.entry.kind {
            PageKind::Ram => t.entry.pfn,
            PageKind::Mmio(_) => return Err(Fault::MmioAccess { addr }),
        };
        m.phys.write_u8(
            pfn * PAGE_SIZE + (addr + i) % PAGE_SIZE,
            (val >> (8 * i)) as u8,
        );
    }
    Ok(())
}

fn ref_copy(
    m: &mut Machine,
    src: (SpaceId, ExecMode, u64),
    dst: (SpaceId, ExecMode, u64),
    len: u64,
) -> Result<(), Fault> {
    for i in 0..len {
        let b = ref_read(m, src.0, src.1, src.2 + i, Width::Byte)?;
        ref_write(m, dst.0, dst.1, dst.2 + i, Width::Byte, b)?;
    }
    Ok(())
}

/// One `mov` load or store, as the byte-wise interpreter ran it under
/// [`NullEnv`]: a store charges the move first; the access translates its
/// first byte, charges, then reads or writes byte by byte; a load charges
/// the move last.
fn ref_insn(m: &mut Machine, cpu: &mut Cpu, store: bool, addr: u64, w: Width) -> Result<(), Fault> {
    let cost = &m.cost;
    let (ram, io, mov) = match store {
        false => (cost.load, cost.mmio_read, cost.mov_reg),
        true => (cost.store, cost.mmio_write, cost.mov_reg),
    };
    m.meter.count_insn();
    if store {
        m.meter.charge(mov);
    }
    let t = m.translate(cpu.space, cpu.mode, addr, store)?;
    let mmio = match t.entry.kind {
        PageKind::Ram => None,
        PageKind::Mmio(_) => Some(t.entry.pfn * PAGE_SIZE + t.offset),
    };
    if let Some(offset) = mmio {
        m.meter.charge(io);
        m.meter
            .count_event(if store { "mmio_write" } else { "mmio_read" });
        return Err(Fault::MmioAccess { addr: offset });
    }
    m.meter.charge(ram);
    if store {
        ref_write(m, cpu.space, cpu.mode, addr, w, cpu.reg(Reg::Eax))
    } else {
        let v = ref_read(m, cpu.space, cpu.mode, addr, w)?;
        m.meter.charge(mov);
        cpu.set_reg(Reg::Eax, v);
        Ok(())
    }
}

// ---- comparison ---------------------------------------------------------

/// Asserts two machines hold the same RAM bytes and meter state.
fn assert_same(fast: &Machine, reference: &Machine, case: &str) {
    let used = fast.phys.total_frames() - fast.phys.free_frames();
    let len = used * PAGE_SIZE as usize;
    assert!(
        fast.phys.read_bytes(0, len) == reference.phys.read_bytes(0, len),
        "{case}: memory differs"
    );
    let (a, b) = (&fast.meter, &reference.meter);
    assert_eq!(a.snapshot(), b.snapshot(), "{case}: per-domain cycles");
    assert_eq!(a.now(), b.now(), "{case}: virtual clock");
    assert_eq!(a.insns(), b.insns(), "{case}: instruction count");
    assert_eq!(a.events(), b.events(), "{case}: events");
    for d in CostDomain::ALL {
        assert_eq!(a.cycles(d), b.cycles(d), "{case}: {d} cycles");
    }
    assert_eq!(a.total_cycles(), b.total_cycles(), "{case}: total cycles");
}

/// The outcomes a run of cases must have covered.
const OUTCOMES: [&str; 4] = ["ok", "page fault", "prot fault", "mmio"];

fn outcome<T>(r: &Result<T, Fault>) -> &'static str {
    match r {
        Ok(_) => "ok",
        Err(Fault::PageFault { .. }) => "page fault",
        Err(Fault::ProtFault { .. }) => "prot fault",
        Err(Fault::MmioAccess { .. }) => "mmio",
        Err(_) => "other",
    }
}

/// Whether the byte at `at` is RAM accessible for the access.
fn ram_at(m: &Machine, at: (SpaceId, ExecMode, u64), write: bool) -> bool {
    m.translate(at.0, at.1, at.2, write)
        .is_ok_and(|t| t.entry.kind == PageKind::Ram)
}

fn assert_covered(seen: &BTreeSet<&str>) {
    for o in OUTCOMES {
        assert!(seen.contains(o), "no case ended in {o}: {seen:?}");
    }
}

const CASES: u64 = 4000;

#[test]
fn read_and_write_virt_match_bytewise_reference() {
    let seed = 0x5eed_0001;
    let (mut fast, spaces) = machine(seed);
    let (mut reference, _) = machine(seed);
    let mut rng = Rng(seed);
    let (mut seen, mut partial_writes) = (BTreeSet::new(), 0);
    for case in 0..CASES {
        let (s, mode, a, w) = (
            rng.pick(&spaces),
            mode(&mut rng),
            addr(&mut rng),
            width(&mut rng),
        );
        let label = format!("seed {seed:#x} case {case}: {mode:?} {a:#x} {w:?}");
        let got = fast.read_virt(s, mode, a, w);
        seen.insert(outcome(&got));
        assert_eq!(got, ref_read(&reference, s, mode, a, w), "{label}: read");
        let val = rng.next() as u32;
        let first_ok = ram_at(&fast, (s, mode, a), true);
        let got = fast.write_virt(s, mode, a, w, val);
        seen.insert(outcome(&got));
        partial_writes += (first_ok && got.is_err()) as u32;
        assert_eq!(
            got,
            ref_write(&mut reference, s, mode, a, w, val),
            "{label}: write"
        );
        assert_same(&fast, &reference, &label);
    }
    assert_covered(&seen);
    assert!(partial_writes > 0, "no write faulted after its first byte");
}

#[test]
fn copy_virt_matches_bytewise_reference() {
    let seed = 0x5eed_0002;
    let (mut fast, spaces) = machine(seed);
    let (mut reference, _) = machine(seed);
    let mut rng = Rng(seed);
    let mut partial_copies = 0;
    for case in 0..CASES / 4 {
        let src = (rng.pick(&spaces), mode(&mut rng), addr(&mut rng));
        let dst = (rng.pick(&spaces), mode(&mut rng), addr(&mut rng));
        let len = rng.pick(&[0, 1, 5, 300, PAGE_SIZE, 2 * PAGE_SIZE + 7]);
        let label = format!("seed {seed:#x} case {case}: {src:?} -> {dst:?} len {len}");
        let first_ok = ram_at(&fast, src, false) && ram_at(&fast, dst, true);
        let got = fast.copy_virt(src, dst, len);
        partial_copies += (len > 0 && first_ok && got.is_err()) as u32;
        assert_eq!(got, ref_copy(&mut reference, src, dst, len), "{label}");
        assert_same(&fast, &reference, &label);
    }
    assert!(partial_copies > 0, "no copy faulted part-way");
}

#[test]
fn interpreter_loads_and_stores_match_bytewise_reference() {
    let seed = 0x5eed_0003;
    let (mut fast, spaces) = machine(seed);
    let (mut reference, _) = machine(seed);
    let mut rng = Rng(seed);
    let domains = [CostDomain::Driver, CostDomain::Xen];
    let mut seen = BTreeSet::new();
    for case in 0..CASES {
        let (s, mode, a, w) = (
            rng.pick(&spaces),
            mode(&mut rng),
            addr(&mut rng),
            width(&mut rng),
        );
        let store = rng.below(2) == 0;
        let entry = format!("{}{}", if store { "st" } else { "ld" }, w.bytes());
        let label = format!("seed {seed:#x} case {case}: {entry} {mode:?} {a:#x}");
        let pc = fast.image(twin_machine::ImageId(0)).export(&entry).unwrap();
        let eax = rng.next() as u32;
        let domain = rng.pick(&domains);
        let cpu = |m: &mut Machine| {
            let mut cpu = Cpu::new(s, mode);
            cpu.set_stack(STACK + PAGE_SIZE);
            cpu.push_call_frame(m, &[]).unwrap();
            cpu.set_reg(Reg::Ebx, a as u32);
            cpu.set_reg(Reg::Eax, eax);
            cpu.pc = pc;
            cpu
        };

        let mut cpu_fast = cpu(&mut fast);
        fast.meter.push_domain(domain);
        let got = run(&mut fast, &mut cpu_fast, &mut NullEnv, 1);
        fast.meter.pop_domain();

        let mut cpu_ref = cpu(&mut reference);
        reference.meter.push_domain(domain);
        let want = ref_insn(&mut reference, &mut cpu_ref, store, a, w).map(|()| StopReason::Budget);
        reference.meter.pop_domain();

        seen.insert(outcome(&got));
        assert_eq!(got, want, "{label}");
        assert_eq!(
            cpu_fast.reg(Reg::Eax),
            cpu_ref.reg(Reg::Eax),
            "{label}: %eax"
        );
        assert_same(&fast, &reference, &label);
    }
    assert_covered(&seen);
}
