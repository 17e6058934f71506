//! Equivalence of lowered, block-at-a-time execution with a reference
//! that steps the assembler's instructions one at a time.
//!
//! `run` executes lowered ops a basic block at a time and runs each
//! Figure 4 SVM sequence as one fused op. The reference below is the
//! instruction-at-a-time interpreter that design replaces, over the
//! module's own [`Insn`]s with symbols resolved as it goes. Random
//! programs mix Figure 4 sequences (stlb hits and misses, slow paths
//! that refill the stlb in code or through an extern), accesses through
//! the translated address, ALU filler and forward branches, including
//! branches into the middle of a sequence. Every case runs from several
//! entry points, some inside a sequence or a block, with every budget up
//! to the length of the whole run, and with the stlb's two pages drawn
//! from RAM, read-only RAM, unmapped and MMIO, in the guest space or the
//! hypervisor region, in either CPU mode. Both sides must agree on the
//! result or fault, registers, flags, pc, per-domain cycles, the clock,
//! the instruction count, events, memory and device traffic.

use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;
use twin_isa::asm::assemble;
use twin_isa::{
    AluOp, Cond, Insn, MemRef, Module, Operand, Reg, ShiftOp, Target, UnOp, Width, INSN_SIZE,
};
use twin_machine::{
    run, CostDomain, Cpu, Env, ExecMode, Fault, Machine, PageEntry, PageKind, SpaceId, StopReason,
    HYPER_BASE, PAGE_SIZE, RETURN_SENTINEL,
};

/// SplitMix64, so a failing case is replayed from the seed it prints.
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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const CODE: u64 = 0x0800_0000;
const STACK: u64 = 0x3000_0000;
/// Four data pages: RAM, RAM, MMIO, read-only RAM.
const DATA: u64 = 0x2000_0000;
const DATA_PAGES: u64 = 4;
/// Where the stlb's two pages go in the guest space.
const GUEST_STLB: u64 = 0x4000_0000;
/// Where they go in the hypervisor region.
const HYPER_STLB: u64 = HYPER_BASE + 0x10_0000;
/// Longest run compared; the budgets swept are those up to its length.
const MAX_RUN: u64 = 256;

/// Registers a program computes with; `%ebx` and `%ebp` hold data
/// addresses and `%esp` the stack.
const WORK: [&str; 5] = ["eax", "ecx", "edx", "esi", "edi"];

/// `(page mask, index mask, shift)` of a site: the rewriter's, and others
/// the fusion must capture from the code just the same.
const MASKS: [(u32, u32, u32); 4] = [
    (0xffff_f000, 0x00ff_f000, 9),
    (0xffff_f000, 0x0000_3000, 9),
    (0xffff_ff00, 0x0000_0f00, 5),
    (0xffff_f000, 0x0000_1000, 0),
];

#[derive(Copy, Clone, Debug, PartialEq)]
enum Page {
    Ram,
    ReadOnly,
    Unmapped,
    Mmio,
}

/// One generated case: the program text and the machine layout.
#[derive(Debug)]
struct Case {
    source: String,
    /// Address the code's `stlb` symbol resolves to.
    stlb: u64,
    stlb_pages: [Page; 2],
    stlb_base: u64,
    mode: ExecMode,
    domain: CostDomain,
    /// Initial registers.
    regs: [u32; 8],
}

fn data_addr(rng: &mut Rng) -> u32 {
    let off = rng.below(DATA_PAGES * PAGE_SIZE);
    let off = if rng.chance(80) { off & !3 } else { off };
    (DATA + off) as u32
}

/// Generates a program of `chunks` pieces and its layout.
fn case(rng: &mut Rng) -> Case {
    let chunks = 3 + rng.below(7) as usize;
    let mut text = Vec::new();
    let mut slow = Vec::new();
    let mut sites = 0;
    // Labels a forward branch from chunk `j` may take: `c{j'}` for a later
    // chunk, and the mid-sequence labels of later sites.
    let mut mids: Vec<(usize, String)> = Vec::new();
    let mut branches: Vec<(usize, usize)> = Vec::new();
    let reg = |rng: &mut Rng| rng.pick(&WORK);
    for j in 0..chunks {
        text.push(format!("c{j}:"));
        match rng.below(10) {
            0..=4 => {
                let k = sites;
                sites += 1;
                let (pm, im, sh) = rng.pick(&MASKS);
                let (s1, s2, out) = if rng.chance(10) {
                    // Aliased scratch: the fused op must still act in order.
                    let r = reg(rng);
                    let (a, b) = (reg(rng), reg(rng));
                    (r, rng.pick(&[r, a]), rng.pick(&[r, b]))
                } else {
                    let mut regs = WORK;
                    for i in 0..3 {
                        let x = i + rng.below((WORK.len() - i) as u64) as usize;
                        regs.swap(i, x);
                    }
                    (regs[0], regs[1], regs[2])
                };
                let base = rng.pick(&["ebx", "ebp"]);
                let disp = rng.below(64) as i64 - 32;
                let ea = if rng.chance(20) {
                    format!("{disp}(%{base},%{},4)", reg(rng))
                } else {
                    format!("{disp}(%{base})")
                };
                let parts = [
                    format!("lea {ea}, %{s1}"),
                    format!("movl %{s1}, %{out}"),
                    format!("andl ${pm:#x}, %{s1}"),
                    format!("movl %{s1}, %{s2}"),
                    format!("andl ${im:#x}, %{s1}"),
                    format!("shrl ${sh}, %{s1}"),
                    format!("cmpl stlb(,%{s1},1), %{s2}"),
                    format!("jne slow{k}"),
                    format!("xorl stlb+4(,%{s1},1), %{out}"),
                ];
                let mid = 1 + rng.below(8) as usize;
                text.push(format!("retry{k}:"));
                for (i, p) in parts.iter().enumerate() {
                    if i == mid {
                        text.push(format!("mid{k}:"));
                        mids.push((j, format!("mid{k}")));
                    }
                    text.push(p.clone());
                }
                text.push(match rng.below(4) {
                    0 => format!("movl (%{out}), %{}", reg(rng)),
                    1 => format!("movl %{}, (%{out})", reg(rng)),
                    2 => format!("addl ${}, (%{out})", rng.below(100)),
                    _ => format!("movzbl (%{out}), %{}", reg(rng)),
                });
                slow.push(format!("slow{k}:"));
                if rng.chance(50) {
                    slow.push(format!("movl %{s2}, stlb(,%{s1},1)"));
                    slow.push(format!("movl $0, stlb+4(,%{s1},1)"));
                } else {
                    slow.push(format!("pushl %{s2}"));
                    slow.push(format!("pushl %{s1}"));
                    slow.push("call svm_fill".into());
                    slow.push("addl $8, %esp".into());
                }
                slow.push(format!("jmp retry{k}"));
            }
            5..=8 => {
                for _ in 0..1 + rng.below(4) {
                    let (a, b, c) = (reg(rng), reg(rng), reg(rng));
                    let imm = rng.next() as u32;
                    text.push(match rng.below(16) {
                        0 => format!("addl ${imm:#x}, %{a}"),
                        1 => format!("subl %{b}, %{a}"),
                        2 => format!("xorl %{b}, %{a}"),
                        3 => format!("andl ${imm:#x}, %{a}"),
                        4 => format!("orl %{b}, %{a}"),
                        5 => format!("shll ${}, %{a}", rng.below(32)),
                        6 => format!("sarl ${}, %{a}", rng.below(32)),
                        7 => format!("incl %{a}"),
                        8 => format!("decl %{a}"),
                        9 => format!("negl %{a}"),
                        10 => format!("cmpl %{b}, %{a}"),
                        11 => format!("testl ${imm:#x}, %{a}"),
                        12 => format!("movl ${imm:#x}, %{a}"),
                        13 => format!("lea 4(%{b},%{c},2), %{a}"),
                        14 => format!("imull %{b}, %{a}"),
                        _ => format!("pushl %{b}\npopl %{a}"),
                    });
                }
                if rng.chance(40) {
                    branches.push((j, text.len()));
                    text.push(String::new());
                }
            }
            _ => {
                text.push(format!("cmpl ${}, %{}", rng.below(8), reg(rng)));
                branches.push((j, text.len()));
                text.push(String::new());
                if rng.chance(10) {
                    text.push("hlt".into());
                }
            }
        }
    }
    // Forward branch targets: a later chunk, a later site's middle, or the end.
    for (j, at) in branches {
        let mut targets: Vec<String> = (j + 1..chunks).map(|t| format!("c{t}")).collect();
        targets.extend(mids.iter().filter(|(c, _)| *c > j).map(|(_, l)| l.clone()));
        targets.push("done".into());
        let cc = rng.pick(&["e", "ne", "l", "ge", "b", "a", "s", "mp"]);
        let to = &targets[rng.below(targets.len() as u64) as usize];
        text[at] = format!("j{cc} {to}");
    }
    let source = format!(
        ".extern svm_fill\n.text\nf:\n{}\ndone:\n ret\n{}\n",
        text.join("\n"),
        slow.join("\n")
    );

    // Slots mostly sit on the first page; the second is often not RAM.
    let first = [
        Page::Ram,
        Page::Ram,
        Page::Ram,
        Page::ReadOnly,
        Page::Unmapped,
        Page::Mmio,
    ];
    let second = [
        Page::Ram,
        Page::ReadOnly,
        Page::Unmapped,
        Page::Mmio,
        Page::Mmio,
    ];
    let stlb_pages = [rng.pick(&first), rng.pick(&second)];
    let stlb_base = if rng.chance(25) {
        HYPER_STLB
    } else {
        GUEST_STLB
    };
    // An stlb near the end of its first page puts a slot's translation,
    // or the slot itself, on the second page.
    let stlb = stlb_base + rng.pick(&[0, 0xfe4, 0xfec, 0xff4, 0xffc, 0xffe]);
    let mut regs = [0u32; 8];
    for r in &mut regs {
        let choices = [rng.next() as u32, rng.below(16) as u32, data_addr(rng)];
        *r = rng.pick(&choices);
    }
    regs[Reg::Ebx.index()] = data_addr(rng);
    regs[Reg::Ebp.index()] = data_addr(rng);
    Case {
        source,
        stlb,
        stlb_pages,
        stlb_base,
        mode: rng.pick(&[ExecMode::Guest, ExecMode::Hypervisor]),
        domain: rng.pick(&[CostDomain::Driver, CostDomain::Xen]),
        regs,
    }
}

/// MMIO reads return a hash of the access; writes and `svm_fill` calls
/// are recorded, so both sides must make the same device traffic.
#[derive(Default, PartialEq, Debug)]
struct TestEnv {
    /// `svm_fill(slot, tag)`: writes `tag` and a zero translation into the
    /// stlb slot at `stlb + slot`.
    stlb: u64,
    log: Vec<(char, u32, u64, u32)>,
}

impl Env for TestEnv {
    fn extern_call(&mut self, name: &str, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        assert_eq!(name, "svm_fill");
        let (slot, tag) = (cpu.arg(m, 0)?, cpu.arg(m, 1)?);
        self.log.push(('x', slot, 0, tag));
        m.meter.charge(17);
        m.meter.count_event("svm_fill");
        let at = (self.stlb as u32).wrapping_add(slot) as u64;
        m.write_u32(cpu.space, cpu.mode, at, tag)?;
        m.write_u32(cpu.space, cpu.mode, at + 4, 0)?;
        cpu.set_reg(Reg::Eax, 0);
        Ok(())
    }

    fn mmio_read(
        &mut self,
        m: &mut Machine,
        dev: u32,
        offset: u64,
        w: Width,
    ) -> Result<u32, Fault> {
        let v = ((offset as u32) ^ dev).wrapping_mul(0x9e37_79b9) & w.mask() as u32;
        self.log.push(('r', dev, offset, m.now_cycles() as u32));
        Ok(v)
    }

    fn mmio_write(
        &mut self,
        m: &mut Machine,
        dev: u32,
        offset: u64,
        _: Width,
        val: u32,
    ) -> Result<(), Fault> {
        self.log
            .push(('w', dev, offset, val ^ m.now_cycles() as u32));
        Ok(())
    }
}

fn map(m: &mut Machine, space: SpaceId, va: u64, page: Page, dev: u32) {
    let entry = match page {
        Page::Ram => PageEntry::ram(m.phys.alloc_frame().unwrap(), true),
        Page::ReadOnly => PageEntry::ram(m.phys.alloc_frame().unwrap(), false),
        Page::Mmio => PageEntry::mmio(dev, va / PAGE_SIZE % 16),
        Page::Unmapped => return,
    };
    if va >= HYPER_BASE {
        m.hyper.map(va, entry);
    } else {
        m.space_mut(space).map(va, entry);
    }
}

/// A machine laid out for `c` with the program loaded, its RAM filled from
/// `seed` and the stlb primed so the data pages mostly hit.
fn machine(c: &Case, module: &Module, seed: u64) -> (Machine, SpaceId) {
    let mut m = Machine::new();
    let space = m.new_space();
    m.map_stack(space, STACK, 1).unwrap();
    let data = [Page::Ram, Page::Ram, Page::Mmio, Page::ReadOnly];
    for (i, page) in data.into_iter().enumerate() {
        map(&mut m, space, DATA + i as u64 * PAGE_SIZE, page, 1);
    }
    for (i, page) in c.stlb_pages.into_iter().enumerate() {
        map(&mut m, space, c.stlb_base + i as u64 * PAGE_SIZE, page, 2);
    }
    let stlb = c.stlb;
    m.load_image(module, CODE, |s| (s == "stlb").then_some(stlb))
        .unwrap();
    let mut rng = Rng(seed);
    let used = m.phys.total_frames() - m.phys.free_frames();
    for pfn in 0..used as u64 {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.next() as u8).collect();
        m.phys.write_bytes(pfn * PAGE_SIZE, &bytes);
    }
    // Prime slots for every data page under every mask set; a translation
    // is the identity or moves the access to another data page.
    let hyper = ExecMode::Hypervisor;
    for (pm, im, sh) in MASKS {
        for page in 0..DATA_PAGES {
            let va = (DATA + page * PAGE_SIZE) as u32;
            let slot = (stlb as u32).wrapping_add((va & pm & im) >> sh) as u64;
            let other = (DATA + rng.below(DATA_PAGES) * PAGE_SIZE) as u32;
            let xlats = [0, 0, va ^ other];
            let xlat = rng.pick(&xlats);
            let fits = |a: u64| {
                m.translate(space, hyper, a, true)
                    .is_ok_and(|t| t.entry.kind == PageKind::Ram)
            };
            // A tag whose translation word is not RAM makes a hit whose
            // `xor` faults or reads a device.
            let xlat_fits = fits(slot + 4) && fits(slot + 7);
            if fits(slot) && fits(slot + 3) {
                m.write_u32(space, hyper, slot, va & pm).unwrap();
                if xlat_fits {
                    m.write_u32(space, hyper, slot + 4, xlat).unwrap();
                }
            }
        }
    }
    (m, space)
}

// ---- the instruction-at-a-time reference ------------------------------

/// The reference's view of the program: the module's instructions with
/// symbols resolved on use.
struct Reference<'a> {
    module: &'a Module,
    stlb: u64,
    /// Slow-path branches not taken and taken: stlb hits and misses.
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Translation words read from a page that is not RAM.
    device_xlats: Cell<u64>,
}

impl Reference<'_> {
    fn symbol(&self, m: &Machine, name: &str) -> u64 {
        if name == "stlb" {
            return self.stlb;
        }
        match self.module.labels.get(name) {
            Some(i) => CODE + *i as u64 * INSN_SIZE,
            None => m.extern_addr(name).expect("registered extern"),
        }
    }

    fn ea(&self, m: &Machine, cpu: &Cpu, mem: &MemRef) -> u64 {
        let mut a = mem.disp as u32;
        if let Some(sym) = &mem.sym {
            a = a.wrapping_add(self.symbol(m, sym) as u32);
        }
        if let Some(b) = mem.base {
            a = a.wrapping_add(cpu.reg(b));
        }
        if let Some((i, s)) = mem.index {
            a = a.wrapping_add(cpu.reg(i).wrapping_mul(s as u32));
        }
        a as u64
    }

    fn read(
        &self,
        m: &mut Machine,
        cpu: &Cpu,
        env: &mut TestEnv,
        o: &Operand,
        w: Width,
    ) -> Result<u32, Fault> {
        let mask = w.mask() as u32;
        Ok(match o {
            Operand::Reg(r) => cpu.reg(*r) & mask,
            Operand::Imm(v) => *v as u32 & mask,
            Operand::Mem(mem) => {
                let a = self.ea(m, cpu, mem);
                let xlat = mem.sym.is_some() && mem.disp == 4;
                if xlat
                    && m.translate(cpu.space, cpu.mode, a, false)
                        .is_ok_and(|t| t.entry.kind != PageKind::Ram)
                {
                    self.device_xlats.set(self.device_xlats.get() + 1);
                }
                load(m, cpu, env, a, w)? & mask
            }
            Operand::Sym(..) => unreachable!("programs take no symbol operands"),
        })
    }

    fn write(
        &self,
        m: &mut Machine,
        cpu: &mut Cpu,
        env: &mut TestEnv,
        o: &Operand,
        w: Width,
        v: u32,
    ) -> Result<(), Fault> {
        match o {
            Operand::Reg(r) => {
                let mask = w.mask() as u32;
                let old = cpu.reg(*r);
                cpu.set_reg(*r, (old & !mask) | (v & mask));
                Ok(())
            }
            Operand::Mem(mem) => {
                let a = self.ea(m, cpu, mem);
                store(m, cpu, env, a, w, v)
            }
            _ => unreachable!("programs write registers and memory only"),
        }
    }

    /// The run loop as it was before lowering: per instruction, the
    /// sentinel, extern, budget and fetch checks, then the instruction.
    fn run(
        &self,
        m: &mut Machine,
        cpu: &mut Cpu,
        env: &mut TestEnv,
        budget: u64,
    ) -> Result<StopReason, Fault> {
        let mut budget = budget;
        let end = CODE + self.module.text.len() as u64 * INSN_SIZE;
        loop {
            let pc = cpu.pc;
            if pc == RETURN_SENTINEL {
                return Ok(StopReason::Returned);
            }
            if let Some(name) = m.extern_name(pc).map(str::to_string) {
                env.extern_call(&name, m, cpu)?;
                cpu.pc = cpu.pop(m)? as u64;
                continue;
            }
            if budget == 0 {
                return Ok(StopReason::Budget);
            }
            budget -= 1;
            if !(CODE..end).contains(&pc) || pc % INSN_SIZE != 0 {
                return Err(Fault::BadFetch { pc });
            }
            let insn = &self.module.text[((pc - CODE) / INSN_SIZE) as usize];
            m.meter.count_insn();
            if self.step(insn, m, cpu, env)? {
                return Ok(StopReason::Halted);
            }
        }
    }

    /// Executes one instruction; returns whether it was `hlt`.
    fn step(
        &self,
        insn: &Insn,
        m: &mut Machine,
        cpu: &mut Cpu,
        env: &mut TestEnv,
    ) -> Result<bool, Fault> {
        let next = cpu.pc + INSN_SIZE;
        let c = m.cost.clone();
        let flags = |cpu: &mut Cpu, op, a, b, w| alu(&mut cpu.flags, op, a, b, w);
        match insn {
            Insn::Mov { w, dst, src } => {
                let v = self.read(m, cpu, env, src, *w)?;
                m.meter.charge(c.mov_reg);
                self.write(m, cpu, env, dst, *w, v)?;
            }
            Insn::Movzx { w, dst, src } => {
                let v = self.read(m, cpu, env, src, *w)?;
                m.meter.charge(c.mov_reg);
                cpu.set_reg(*dst, v);
            }
            Insn::Lea { dst, mem } => {
                let a = self.ea(m, cpu, mem);
                m.meter.charge(c.mov_reg);
                cpu.set_reg(*dst, a as u32);
            }
            Insn::Alu { op, w, dst, src } => {
                let b = self.read(m, cpu, env, src, *w)?;
                let a = self.read(m, cpu, env, dst, *w)?;
                let r = flags(cpu, *op, a, b, *w);
                m.meter.charge(c.alu);
                self.write(m, cpu, env, dst, *w, r)?;
            }
            Insn::Shift { op, dst, amount } => {
                let n = self.read(m, cpu, env, amount, Width::Byte)? & 31;
                let a = self.read(m, cpu, env, dst, Width::Long)?;
                let (r, cf) = match op {
                    ShiftOp::Shl => (a.wrapping_shl(n), n > 0 && (a >> (32 - n)) & 1 != 0),
                    ShiftOp::Shr => (a.wrapping_shr(n), n > 0 && (a >> (n - 1)) & 1 != 0),
                    ShiftOp::Sar => (
                        (a as i32).wrapping_shr(n) as u32,
                        n > 0 && ((a as i32) >> (n - 1)) & 1 != 0,
                    ),
                };
                cpu.flags.cf = cf;
                cpu.flags.of = false;
                cpu.flags.zf = r == 0;
                cpu.flags.sf = r >> 31 != 0;
                m.meter.charge(c.alu);
                self.write(m, cpu, env, dst, Width::Long, r)?;
            }
            Insn::Cmp { w, src, dst } | Insn::Test { w, src, dst } => {
                let b = self.read(m, cpu, env, src, *w)?;
                let a = self.read(m, cpu, env, dst, *w)?;
                let op = if matches!(insn, Insn::Cmp { .. }) {
                    AluOp::Sub
                } else {
                    AluOp::And
                };
                flags(cpu, op, a, b, *w);
                m.meter.charge(c.alu);
            }
            Insn::Un { op, w, dst } => {
                let a = self.read(m, cpu, env, dst, *w)?;
                let mask = w.mask() as u32;
                let cf = cpu.flags.cf;
                let r = match op {
                    UnOp::Neg => {
                        let r = a.wrapping_neg() & mask;
                        cpu.flags.cf = a != 0;
                        cpu.flags.zf = r == 0;
                        cpu.flags.sf = r & (1 << (w.bytes() * 8 - 1)) != 0;
                        r
                    }
                    UnOp::Not => {
                        let r = !a & mask;
                        cpu.flags.zf = r == 0;
                        cpu.flags.sf = r & (1 << (w.bytes() * 8 - 1)) != 0;
                        r
                    }
                    UnOp::Inc | UnOp::Dec => {
                        let op = if *op == UnOp::Inc {
                            AluOp::Add
                        } else {
                            AluOp::Sub
                        };
                        let r = flags(cpu, op, a, 1, *w);
                        cpu.flags.cf = cf;
                        r
                    }
                };
                m.meter.charge(c.alu);
                self.write(m, cpu, env, dst, *w, r)?;
            }
            Insn::Imul { dst, src } => {
                let b = self.read(m, cpu, env, src, Width::Long)?;
                let r = cpu.reg(*dst).wrapping_mul(b);
                cpu.flags.zf = r == 0;
                cpu.flags.sf = r >> 31 != 0;
                m.meter.charge(c.mul);
                cpu.set_reg(*dst, r);
            }
            Insn::Push { src } => {
                let v = self.read(m, cpu, env, src, Width::Long)?;
                m.meter.charge(c.store);
                cpu.push(m, v)?;
            }
            Insn::Pop { dst } => {
                m.meter.charge(c.load);
                let v = cpu.pop(m)?;
                self.write(m, cpu, env, dst, Width::Long, v)?;
            }
            Insn::Jmp {
                target: Target::Label(l),
            } => {
                m.meter.charge(c.branch_taken);
                cpu.pc = self.symbol(m, l);
                return Ok(false);
            }
            Insn::Jcc {
                cond,
                target: Target::Label(l),
            } => {
                if l.starts_with("slow") {
                    let n = if holds(cpu, *cond) {
                        &self.misses
                    } else {
                        &self.hits
                    };
                    n.set(n.get() + 1);
                }
                if holds(cpu, *cond) {
                    m.meter.charge(c.branch_taken);
                    cpu.pc = self.symbol(m, l);
                    return Ok(false);
                }
                m.meter.charge(c.branch_not_taken);
            }
            Insn::Call {
                target: Target::Label(l),
            } => {
                m.meter.charge(c.call);
                cpu.push(m, next as u32)?;
                cpu.pc = self.symbol(m, l);
                return Ok(false);
            }
            Insn::Ret => {
                m.meter.charge(c.ret);
                cpu.pc = cpu.pop(m)? as u64;
                return Ok(false);
            }
            Insn::Hlt => {
                cpu.pc = next;
                return Ok(true);
            }
            other => unreachable!("programs do not use `{other}`"),
        }
        cpu.pc = next;
        Ok(false)
    }
}

fn load(m: &mut Machine, cpu: &Cpu, env: &mut TestEnv, a: u64, w: Width) -> Result<u32, Fault> {
    let t = m.translate(cpu.space, cpu.mode, a, false)?;
    match t.entry.kind {
        PageKind::Ram => {
            m.meter.charge(m.cost.load);
            m.read_virt(cpu.space, cpu.mode, a, w)
        }
        PageKind::Mmio(dev) => {
            m.meter.charge(m.cost.mmio_read);
            m.meter.count_event("mmio_read");
            env.mmio_read(m, dev, t.entry.pfn * PAGE_SIZE + a % PAGE_SIZE, w)
        }
    }
}

fn store(
    m: &mut Machine,
    cpu: &Cpu,
    env: &mut TestEnv,
    a: u64,
    w: Width,
    v: u32,
) -> Result<(), Fault> {
    let t = m.translate(cpu.space, cpu.mode, a, true)?;
    match t.entry.kind {
        PageKind::Ram => {
            m.meter.charge(m.cost.store);
            m.write_virt(cpu.space, cpu.mode, a, w, v)
        }
        PageKind::Mmio(dev) => {
            m.meter.charge(m.cost.mmio_write);
            m.meter.count_event("mmio_write");
            env.mmio_write(m, dev, t.entry.pfn * PAGE_SIZE + a % PAGE_SIZE, w, v)
        }
    }
}

fn alu(f: &mut twin_machine::interp::Flags, op: AluOp, a: u32, b: u32, w: Width) -> u32 {
    let mask = w.mask() as u32;
    let sign = 1u32 << (w.bytes() * 8 - 1);
    let (a, b) = (a & mask, b & mask);
    let r = match op {
        AluOp::Add => {
            let r = a.wrapping_add(b) & mask;
            f.cf = (a as u64 + b as u64) > mask as u64;
            f.of = (a ^ r) & (b ^ r) & sign != 0;
            r
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b) & mask;
            f.cf = a < b;
            f.of = (a ^ b) & (a ^ r) & sign != 0;
            r
        }
        AluOp::And | AluOp::Or | AluOp::Xor => {
            f.cf = false;
            f.of = false;
            match op {
                AluOp::And => a & b,
                AluOp::Or => a | b,
                _ => a ^ b,
            }
        }
    };
    f.zf = r == 0;
    f.sf = r & sign != 0;
    r
}

fn holds(cpu: &Cpu, c: Cond) -> bool {
    let f = cpu.flags;
    match c {
        Cond::E => f.zf,
        Cond::Ne => !f.zf,
        Cond::L => f.sf != f.of,
        Cond::Le => f.zf || f.sf != f.of,
        Cond::G => !f.zf && f.sf == f.of,
        Cond::Ge => f.sf == f.of,
        Cond::B => f.cf,
        Cond::Be => f.cf || f.zf,
        Cond::A => !f.cf && !f.zf,
        Cond::Ae => !f.cf,
        Cond::S => f.sf,
        Cond::Ns => !f.sf,
    }
}

// ---- comparison ---------------------------------------------------------

/// One side of the comparison: a machine, its environment and the RAM it
/// starts every run from.
struct Side {
    m: Machine,
    env: TestEnv,
    ram: Vec<u8>,
}

impl Side {
    fn new(c: &Case, module: &Module, seed: u64) -> (Side, SpaceId) {
        let (m, space) = machine(c, module, seed);
        let used = (m.phys.total_frames() - m.phys.free_frames()) * PAGE_SIZE as usize;
        let ram = m.phys.read_bytes(0, used).to_vec();
        let env = TestEnv {
            stlb: c.stlb,
            log: Vec::new(),
        };
        (Side { m, env, ram }, space)
    }

    /// Restores RAM, clears the meter and device log, and returns a CPU
    /// about to run from `pc` with a frame returning to the sentinel.
    fn start(&mut self, c: &Case, space: SpaceId, pc: u64) -> Cpu {
        self.m.phys.write_bytes(0, &self.ram);
        self.m.meter.reset();
        self.env.log.clear();
        let mut cpu = Cpu::new(space, c.mode);
        for r in Reg::ALL {
            cpu.set_reg(r, c.regs[r.index()]);
        }
        cpu.set_stack(STACK + PAGE_SIZE);
        cpu.push_call_frame(&mut self.m, &[]).unwrap();
        cpu.pc = pc;
        self.m.meter.push_domain(c.domain);
        cpu
    }
}

/// Which part of the state two runs disagreed on, for the failure message.
fn assert_same(
    label: &str,
    (got, fast, cpu_f): (&Result<StopReason, Fault>, &Side, &Cpu),
    (want, reference, cpu_r): (&Result<StopReason, Fault>, &Side, &Cpu),
) {
    assert_eq!(got, want, "{label}: result or fault");
    assert_eq!(cpu_f.pc, cpu_r.pc, "{label}: pc");
    for r in Reg::ALL {
        assert_eq!(cpu_f.reg(r), cpu_r.reg(r), "{label}: %{r:?}");
    }
    assert_eq!(cpu_f.flags, cpu_r.flags, "{label}: flags");
    let (a, b) = (&fast.m.meter, &reference.m.meter);
    assert_eq!(a.snapshot(), b.snapshot(), "{label}: per-domain cycles");
    assert_eq!(a.now(), b.now(), "{label}: clock");
    assert_eq!(a.insns(), b.insns(), "{label}: instruction count");
    assert_eq!(a.events(), b.events(), "{label}: events");
    assert_eq!(fast.env, reference.env, "{label}: device traffic");
    let len = fast.ram.len();
    assert!(
        fast.m.phys.read_bytes(0, len) == reference.m.phys.read_bytes(0, len),
        "{label}: memory"
    );
}

/// What the cases of one property run covered.
#[derive(Default, Debug)]
struct Seen {
    outcomes: BTreeMap<String, u64>,
    fused_split: u64,
    mid_entries: u64,
    /// Fused runs that faulted at a sequence's `cmp` (part 7) or `xor`
    /// (part 9).
    tag_faults: u64,
    xlat_faults: u64,
    stlb_hits: u64,
    stlb_misses: u64,
    device_xlats: u64,
}

fn outcome(r: &Result<StopReason, Fault>) -> String {
    match r {
        Ok(s) => format!("{s:?}"),
        Err(f) => format!("{f:?}")
            .split([' ', '(', '{'])
            .next()
            .unwrap()
            .to_string(),
    }
}

/// Runs one case: for a few entry points, every budget up to the whole
/// run's length, on both sides.
fn check(seed: u64, seen: &mut Seen) {
    let mut rng = Rng(seed);
    let c = case(&mut rng);
    check_case(&c, seed, &mut rng, seen);
}

/// Compares the two sides on `c`, with RAM filled from `seed` and entry
/// points drawn from `rng`.
fn check_case(c: &Case, seed: u64, rng: &mut Rng, seen: &mut Seen) {
    let module = assemble("t", &c.source).unwrap_or_else(|e| panic!("{e}\n{}", c.source));
    let (mut fast, space) = Side::new(c, &module, seed);
    let (mut reference, _) = Side::new(c, &module, seed);
    let image = fast.m.image(twin_machine::ImageId(0)).clone();
    let reference_code = Reference {
        module: &module,
        stlb: c.stlb,
        hits: Cell::new(0),
        device_xlats: Cell::new(0),
        misses: Cell::new(0),
    };
    let len = module.text.len() as u64;
    let mut entries = vec![CODE];
    for _ in 0..3 {
        entries.push(CODE + rng.below(len) * INSN_SIZE);
    }
    for entry in entries {
        let fused_at = |pc: u64| {
            (0..9).find(|k| {
                pc >= CODE + k * INSN_SIZE
                    && matches!(
                        image.fetch(pc - k * INSN_SIZE),
                        Some(twin_machine::Op::SvmCheck(_))
                    )
            })
        };
        if fused_at(entry).is_some_and(|k| k > 0) {
            seen.mid_entries += 1;
        }
        let mut compare = |budget: u64| {
            let label = format!("seed {seed:#x} entry {entry:#x} budget {budget}");
            let mut cpu_f = fast.start(c, space, entry);
            let got = run(&mut fast.m, &mut cpu_f, &mut fast.env, budget);
            fast.m.meter.pop_domain();
            let mut cpu_r = reference.start(c, space, entry);
            let want = reference_code.run(&mut reference.m, &mut cpu_r, &mut reference.env, budget);
            reference.m.meter.pop_domain();
            assert_same(
                &format!("{label}\n{}", c.source),
                (&got, &fast, &cpu_f),
                (&want, &reference, &cpu_r),
            );
            *seen.outcomes.entry(outcome(&got)).or_default() += 1;
            // A fault counts as the fused op's when the run entered the
            // sequence at its start with the whole budget.
            let k = fused_at(cpu_f.pc);
            let whole = |k: u64| {
                budget == MAX_RUN && !(cpu_f.pc - k * INSN_SIZE < entry && entry <= cpu_f.pc)
            };
            match (&got, k) {
                (Ok(StopReason::Budget), Some(k)) if k > 0 => seen.fused_split += 1,
                (Err(_), Some(6)) if whole(6) => seen.tag_faults += 1,
                (Err(_), Some(8)) if whole(8) => seen.xlat_faults += 1,
                _ => {}
            }
            reference.m.meter.insns()
        };
        // The whole run, then every budget that stops it sooner.
        let total = compare(MAX_RUN);
        for budget in 0..total {
            compare(budget);
        }
    }
    seen.stlb_hits += reference_code.hits.get();
    seen.stlb_misses += reference_code.misses.get();
    seen.device_xlats += reference_code.device_xlats.get();
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn block_execution_matches_instruction_at_a_time_reference(seed in any::<u64>()) {
        let mut seen = Seen::default();
        check(seed, &mut seen);
    }
}

/// A fixed set of seeds must reach every outcome the property is about.
#[test]
fn the_reference_comparison_covers_its_cases() {
    let mut seen = Seen::default();
    for seed in 0..48 {
        check(seed, &mut seen);
    }
    // One site translating the first data page, whose slot's translation
    // word is the first word of the stlb's second page, of each kind.
    let source = "
        .text
    f:
    retry0:
        lea 0(%ebx), %ecx
        movl %ecx, %eax
        andl $0xfffff000, %ecx
        movl %ecx, %edx
        andl $0x00fff000, %ecx
        shrl $9, %ecx
        cmpl stlb(,%ecx,1), %edx
        jne slow0
        xorl stlb+4(,%ecx,1), %eax
        movl (%eax), %esi
    done:
        ret
    slow0:
        movl %edx, stlb(,%ecx,1)
        jmp retry0
    ";
    for second in [Page::Ram, Page::ReadOnly, Page::Unmapped, Page::Mmio] {
        let mut regs = [0; 8];
        regs[Reg::Ebx.index()] = DATA as u32 + 8;
        let c = Case {
            source: source.into(),
            stlb: GUEST_STLB + PAGE_SIZE - 4,
            stlb_pages: [Page::Ram, second],
            stlb_base: GUEST_STLB,
            mode: ExecMode::Guest,
            domain: CostDomain::Driver,
            regs,
        };
        check_case(&c, 7, &mut Rng(7), &mut seen);
    }
    for o in ["Returned", "Budget", "Halted", "PageFault", "ProtFault"] {
        assert!(
            seen.outcomes.contains_key(o),
            "no run ended in {o}: {seen:?}"
        );
    }
    assert!(
        seen.fused_split > 0,
        "no budget ended inside a fused sequence: {seen:?}"
    );
    assert!(
        seen.mid_entries > 0,
        "no entry inside a fused sequence: {seen:?}"
    );
    assert!(seen.stlb_hits > 0 && seen.stlb_misses > 0, "{seen:?}");
    assert!(seen.tag_faults > 0 && seen.xlat_faults > 0, "{seen:?}");
    assert!(seen.device_xlats > 0, "{seen:?}");
}
