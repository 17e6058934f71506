//! The run loop's image cache and extern dispatch: control moving between
//! images and extern trampolines, wild jumps, images loaded while a run is
//! in progress, and extern calls that allocate nothing on the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use twin_isa::asm::assemble;
use twin_isa::{Reg, Width};
use twin_machine::{run, Cpu, Env, ExecMode, Fault, Machine, StopReason, PAGE_SIZE};

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
const STACK: u64 = 0x3000_0000;

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
    let mut env = TestEnv::default();
    cpu.push_call_frame(&mut m, &[]).unwrap();
    cpu.pc = f;
    let before = allocs();
    let stop = run(&mut m, &mut cpu, &mut env, 1000);
    let during = allocs() - before;
    assert_eq!(stop, Ok(StopReason::Returned));
    assert_eq!(env.calls, 1, "the run made its extern call");
    assert_eq!(during, 0, "a run through an extern call allocated");
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
