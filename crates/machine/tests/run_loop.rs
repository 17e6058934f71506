//! The run loop's image cache and extern dispatch: control moving between
//! images and extern trampolines, wild jumps, images loaded while a run is
//! in progress, images refused in the trampoline window, and runs that
//! allocate nothing on the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use twin_isa::asm::assemble;
use twin_isa::{Reg, Width};
use twin_machine::{
    run, Cpu, Env, ExecMode, Fault, LinkError, Machine, StopReason, EXTERN_BASE, PAGE_SIZE,
    RETURN_SENTINEL,
};

/// Counts the heap allocations made by the current thread, so tests
/// running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const IMAGE_A: u64 = 0x0800_0000;
const IMAGE_B: u64 = 0x0900_0000;
const IMAGE_C: u64 = 0x0a00_0000;
const IMAGE_D: u64 = 0x0b00_0000;
const STACK: u64 = 0x3000_0000;
const DATA: u64 = 0x2000_0000;
const STLB: u64 = 0x4000_0000;

/// Image A's `f` calls image B's `g`, which calls the extern `add2`.
const A: &str = "
    .extern g
    .extern load_c
    .text
f:  pushl $37
    call g
    addl $4, %esp
    ret
wild:
    movl 4(%esp), %eax
    jmp *%eax
loader:
    call load_c
    call *%eax
    ret
";

const B: &str = "
    .extern add2
    .text
g:  pushl 4(%esp)
    pushl $5
    call add2
    addl $8, %esp
    ret
";

/// Loaded by the `load_c` extern while a run is in progress.
const C: &str = "
    .text
h:  movl $99, %eax
    ret
";

/// A Figure 4 SVM fast path translating `4(%ebx)`, a load through the
/// translation, then `add2(loaded, 5)`.
const D: &str = "
    .extern add2
    .text
d:  lea 4(%ebx), %ecx
    movl %ecx, %eax
    andl $0xfffff000, %ecx
    movl %ecx, %edx
    andl $0x00fff000, %ecx
    shrl $9, %ecx
    cmpl stlb(,%ecx,1), %edx
    jne miss
    xorl stlb+4(,%ecx,1), %eax
    movl (%eax), %eax
    pushl %eax
    pushl $5
    call add2
    addl $8, %esp
    ret
miss:
    ud2
";

/// Implements `add2` (sum of two arguments) and `load_c` (loads image C
/// and returns the address of its `h`); counts extern calls.
#[derive(Default)]
struct TestEnv {
    calls: u64,
}

impl Env for TestEnv {
    fn extern_call(&mut self, name: &str, m: &mut Machine, cpu: &mut Cpu) -> Result<(), Fault> {
        self.calls += 1;
        match name {
            "add2" => {
                let sum = cpu.arg(m, 0)? + cpu.arg(m, 1)?;
                cpu.set_reg(Reg::Eax, sum);
            }
            "load_c" => {
                let image = m
                    .load_image(&assemble("c", C).unwrap(), IMAGE_C, |_| None)
                    .unwrap();
                cpu.set_reg(Reg::Eax, m.image(image).export("h").unwrap() as u32);
            }
            _ => return Err(Fault::UnknownExtern(name.to_string())),
        }
        Ok(())
    }

    fn mmio_read(&mut self, _: &mut Machine, _: u32, a: u64, _: Width) -> Result<u32, Fault> {
        Err(Fault::MmioAccess { addr: a })
    }

    fn mmio_write(
        &mut self,
        _: &mut Machine,
        _: u32,
        a: u64,
        _: Width,
        _: u32,
    ) -> Result<(), Fault> {
        Err(Fault::MmioAccess { addr: a })
    }
}

/// A machine with images B then A loaded (A resolving `g` into B) and a
/// CPU with a stack, plus the address of A's `name`.
fn setup(name: &str) -> (Machine, Cpu, u64) {
    let mut m = Machine::new();
    let space = m.new_space();
    m.map_stack(space, STACK, 4).unwrap();
    let b = m
        .load_image(&assemble("b", B).unwrap(), IMAGE_B, |_| None)
        .unwrap();
    let g = m.image(b).export("g").unwrap();
    let a = m
        .load_image(&assemble("a", A).unwrap(), IMAGE_A, |s| {
            (s == "g").then_some(g)
        })
        .unwrap();
    let entry = m.image(a).export(name).unwrap();
    let mut cpu = Cpu::new(space, ExecMode::Guest);
    cpu.set_stack(STACK + 4 * PAGE_SIZE);
    (m, cpu, entry)
}

fn call(
    m: &mut Machine,
    cpu: &mut Cpu,
    env: &mut TestEnv,
    entry: u64,
    args: &[u32],
) -> Result<StopReason, Fault> {
    cpu.push_call_frame(m, args).unwrap();
    cpu.pc = entry;
    run(m, cpu, env, 1000)
}

#[test]
fn calls_cross_images_and_an_extern_and_return() {
    let (mut m, mut cpu, f) = setup("f");
    let mut env = TestEnv::default();
    for _ in 0..3 {
        let insns = m.meter.insns();
        assert_eq!(
            call(&mut m, &mut cpu, &mut env, f, &[]),
            Ok(StopReason::Returned)
        );
        assert_eq!(cpu.reg(Reg::Eax), 42);
        // f: push, call, add, ret; g: push, push, call, add, ret.
        assert_eq!(m.meter.insns() - insns, 9);
    }
    assert_eq!(env.calls, 3);
    assert_eq!(cpu.reg(Reg::Esp) as u64, STACK + 4 * PAGE_SIZE);
}

#[test]
fn wild_jumps_fault_at_the_target() {
    let (mut m, mut cpu, wild) = setup("wild");
    let end_of_a = m.image(twin_machine::ImageId(1)).end();
    let targets = [
        0x0700_0000,     // below every image
        IMAGE_A + 2,     // inside image A, not on an instruction
        end_of_a,        // just past image A
        IMAGE_B + 0x100, // past image B's few instructions
        IMAGE_C,         // where image C would load: not loaded yet
    ];
    let mut env = TestEnv::default();
    for pc in targets {
        let got = call(&mut m, &mut cpu, &mut env, wild, &[pc as u32]);
        assert_eq!(got, Err(Fault::BadFetch { pc }));
        assert_eq!(cpu.pc, pc);
    }
}

#[test]
fn an_image_loaded_during_a_run_is_fetched() {
    let (mut m, mut cpu, loader) = setup("loader");
    let mut env = TestEnv::default();
    assert_eq!(
        call(&mut m, &mut cpu, &mut env, loader, &[]),
        Ok(StopReason::Returned)
    );
    assert_eq!(cpu.reg(Reg::Eax), 99);
}

#[test]
fn extern_calls_allocate_nothing() {
    let (mut m, mut cpu, f) = setup("f");
    // Image D, with its stlb slot for `DATA` holding an identity
    // translation and `DATA + 4` holding 37.
    let space = cpu.space;
    m.map_fresh(space, DATA, 1).unwrap();
    m.map_fresh(space, STLB, 1).unwrap();
    m.write_u32(space, ExecMode::Guest, STLB, DATA as u32)
        .unwrap();
    m.write_u32(space, ExecMode::Guest, DATA + 4, 37).unwrap();
    let image = m
        .load_image(&assemble("d", D).unwrap(), IMAGE_D, |s| {
            (s == "stlb").then_some(STLB)
        })
        .unwrap();
    assert_eq!(m.image(image).svm_checks(), 1);
    let d = m.image(image).export("d").unwrap();
    cpu.set_reg(Reg::Ebx, DATA as u32);
    let mut env = TestEnv::default();
    // Through an extern call; through a fused site and an extern call;
    // and stopped by a budget inside that site's block and sequence.
    for (entry, budget, want) in [
        (f, 1000, StopReason::Returned),
        (d, 1000, StopReason::Returned),
        (d, 4, StopReason::Budget),
    ] {
        cpu.set_stack(STACK + 4 * PAGE_SIZE);
        cpu.push_call_frame(&mut m, &[]).unwrap();
        cpu.pc = entry;
        let before = allocs();
        let stop = run(&mut m, &mut cpu, &mut env, budget);
        let during = allocs() - before;
        assert_eq!(stop, Ok(want), "from {entry:#x}, budget {budget}");
        assert_eq!(
            during, 0,
            "a run from {entry:#x}, budget {budget} allocated"
        );
    }
    assert_eq!(env.calls, 2, "both full runs made their extern call");
    assert_eq!(cpu.pc, d + 4 * 4, "the budget stopped inside the sequence");
}

#[test]
fn images_in_the_trampoline_window_are_refused() {
    let mut m = Machine::new();
    // Two instructions and an extern, placed to end at each edge of
    // `[EXTERN_BASE, RETURN_SENTINEL]` and inside it.
    let module = assemble("w", ".extern add2\n.text\nw: call add2\n ret\n").unwrap();
    let len = 2 * twin_isa::INSN_SIZE;
    for base in [
        EXTERN_BASE - len + 4,
        EXTERN_BASE,
        EXTERN_BASE + 0x100,
        RETURN_SENTINEL - 4,
        RETURN_SENTINEL,
    ] {
        let got = m.load_image(&module, base, |_| None);
        assert_eq!(
            got.unwrap_err(),
            LinkError::TrampolineWindow {
                module: "w".into(),
                base,
                end: base + len,
            }
        );
    }
    assert_eq!(
        m.extern_addr("add2"),
        None,
        "a refused image registers nothing"
    );
    for base in [EXTERN_BASE - len, RETURN_SENTINEL + 4] {
        assert!(m.load_image(&module, base, |_| None).is_ok(), "{base:#x}");
    }
}

#[test]
fn overlapping_images_fetch_from_the_first_loaded() {
    // Y is loaded over X and runs past its end; a jump back into the
    // shared range executes X's instruction, as a scan in load order would.
    let mut m = Machine::new();
    let space = m.new_space();
    m.map_stack(space, STACK, 1).unwrap();
    let x = "
        .text
    x0: movl $1, %eax
        ret
    ";
    let y = "
        .text
    y0: movl $2, %eax
        ret
    y2: jmp y0
    ";
    m.load_image(&assemble("x", x).unwrap(), IMAGE_A, |_| None)
        .unwrap();
    let y = m
        .load_image(&assemble("y", y).unwrap(), IMAGE_A, |_| None)
        .unwrap();
    let y2 = m.image(y).export("y2").unwrap();
    let mut cpu = Cpu::new(space, ExecMode::Guest);
    cpu.set_stack(STACK + PAGE_SIZE);
    let mut env = TestEnv::default();
    assert_eq!(
        call(&mut m, &mut cpu, &mut env, y2, &[]),
        Ok(StopReason::Returned)
    );
    assert_eq!(cpu.reg(Reg::Eax), 1);
}
