//! Lowered code: the compact, fully resolved form the interpreter runs.
//!
//! [`Insn`] is the assembler's and the rewriter's IR: operands may name
//! symbols and labels, and memory references carry 64-bit displacements.
//! [`link`](crate::image::link) lowers every instruction once into an
//! [`Op`], a `Copy` value whose operands are only registers, 32-bit
//! immediates and resolved effective addresses, so an unlinked operand
//! cannot reach the run loop.
//!
//! Lowering also recognises the paper's Figure 4 SVM fast path by its
//! shape (see [`SvmCheck`]) and marks its first instruction as one fused
//! op, and it computes each image's block-end table: where the basic
//! block starting at every instruction ends.

use crate::interp::Cpu;
use twin_isa::{AluOp, Cond, Insn, MemRef, Operand, Reg, Rep, ShiftOp, StrOp, Target, UnOp, Width};

/// A resolved effective address `disp(base, index, scale)`, evaluated in
/// wrapping 32-bit arithmetic.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Ea {
    /// Displacement, including any resolved symbol's address.
    pub disp: u32,
    /// Base register.
    pub base: Option<Reg>,
    /// Index register and scale.
    pub index: Option<(Reg, u8)>,
}

impl Ea {
    /// The address this reference names under `cpu`'s registers.
    #[inline]
    pub fn addr(&self, cpu: &Cpu) -> u64 {
        let mut a = self.disp;
        if let Some(b) = self.base {
            a = a.wrapping_add(cpu.reg(b));
        }
        if let Some((i, s)) = self.index {
            a = a.wrapping_add(cpu.reg(i).wrapping_mul(s as u32));
        }
        a as u64
    }
}

/// A lowered operand: a register, an immediate or a memory reference.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Arg {
    /// Register.
    Reg(Reg),
    /// Immediate, truncated to the machine's 32 bits.
    Imm(u32),
    /// Memory at a resolved effective address.
    Mem(Ea),
}

/// A lowered control-transfer target.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Jump {
    /// Absolute code address.
    Abs(u64),
    /// Indirect through a register.
    Reg(Reg),
    /// Indirect through memory.
    Mem(Ea),
}

/// The paper's Figure 4 SVM fast path, recognised in linked code as the
/// nine instructions
///
/// ```text
/// lea  ea, s1              mov  s1, out
/// and  $page_mask, s1      mov  s1, s2
/// and  $index_mask, s1     shr  $shift, s1
/// cmp  stlb(,s1,1), s2     jne  slow
/// xor  stlb+4(,s1,1), out
/// ```
///
/// The masks, the shift and the stlb displacement are whatever the code
/// says; this crate does not know the SVM layout. Run as one op, the
/// sequence has exactly the effects of its parts, in their order.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SvmCheck {
    /// The address being translated.
    pub ea: Ea,
    /// Scratch register that ends up holding the stlb slot offset.
    pub s1: Reg,
    /// Scratch register that ends up holding the page tag.
    pub s2: Reg,
    /// Register that ends up holding the translated address.
    pub out: Reg,
    /// Shift turning the masked page number into a slot offset.
    pub shift: u32,
    /// Mask selecting the page tag.
    pub page_mask: u32,
    /// Mask selecting the stlb index bits of the page tag.
    pub index_mask: u32,
    /// Address of the stlb (its first slot's tag).
    pub stlb: u32,
    /// The slow path `jne` jumps to on a miss.
    pub slow: u64,
}

impl SvmCheck {
    /// Instructions in the sequence.
    pub const LEN: usize = 9;

    /// Recognises the sequence at the start of `ops`.
    fn recognise(ops: &[Op]) -> Option<SvmCheck> {
        use Arg::{Imm, Mem, Reg as R};
        const L: Width = Width::Long;
        let (ea, s1) = match ops.first()? {
            Op::Lea { dst, ea } => (*ea, *dst),
            _ => return None,
        };
        let slot = |disp| {
            Mem(Ea {
                disp,
                base: None,
                index: Some((s1, 1)),
            })
        };
        match ops.get(1..SvmCheck::LEN)? {
            &[Op::Mov {
                w: L,
                dst: R(out),
                src: R(a),
            }, Op::Alu {
                op: AluOp::And,
                w: L,
                dst: R(b),
                src: Imm(page_mask),
            }, Op::Mov {
                w: L,
                dst: R(s2),
                src: R(c),
            }, Op::Alu {
                op: AluOp::And,
                w: L,
                dst: R(d),
                src: Imm(index_mask),
            }, Op::Shift {
                op: ShiftOp::Shr,
                dst: R(e),
                amount: Imm(shift),
            }, Op::Cmp {
                w: L,
                src: Mem(tag),
                dst: R(f),
            }, Op::Jcc {
                cond: Cond::Ne,
                target: Jump::Abs(slow),
            }, Op::Alu {
                op: AluOp::Xor,
                w: L,
                dst: R(g),
                src: Mem(xlat),
            }] if [a, b, c, d, e] == [s1; 5]
                && f == s2
                && g == out
                && Mem(tag) == slot(tag.disp)
                && Mem(xlat) == slot(tag.disp.wrapping_add(4)) =>
            {
                Some(SvmCheck {
                    ea,
                    s1,
                    s2,
                    out,
                    // A shift count is taken modulo 32.
                    shift: shift & 31,
                    page_mask,
                    index_mask,
                    stlb: tag.disp,
                    slow,
                })
            }
            _ => None,
        }
    }
}

/// One lowered instruction. Variants mirror [`Insn`] with resolved
/// operands, plus [`Op::SvmCheck`] for a fused Figure 4 sequence.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Op {
    Mov {
        w: Width,
        dst: Arg,
        src: Arg,
    },
    Movzx {
        w: Width,
        dst: Reg,
        src: Arg,
    },
    Movsx {
        w: Width,
        dst: Reg,
        src: Arg,
    },
    Lea {
        dst: Reg,
        ea: Ea,
    },
    Alu {
        op: AluOp,
        w: Width,
        dst: Arg,
        src: Arg,
    },
    Shift {
        op: ShiftOp,
        dst: Arg,
        amount: Arg,
    },
    Cmp {
        w: Width,
        src: Arg,
        dst: Arg,
    },
    Test {
        w: Width,
        src: Arg,
        dst: Arg,
    },
    Un {
        op: UnOp,
        w: Width,
        dst: Arg,
    },
    Imul {
        dst: Reg,
        src: Arg,
    },
    Push {
        src: Arg,
    },
    Pop {
        dst: Arg,
    },
    Jmp {
        target: Jump,
    },
    Jcc {
        cond: Cond,
        target: Jump,
    },
    Call {
        target: Jump,
    },
    Ret,
    Str {
        op: StrOp,
        w: Width,
        rep: Rep,
    },
    Cli,
    Sti,
    Nop,
    Hlt,
    Int3,
    Ud2,
    /// The first instruction of a fused Figure 4 sequence. Executed on its
    /// own it is the sequence's `lea`; the other eight instructions follow
    /// it as ordinary ops, so code may enter the sequence part-way.
    SvmCheck(SvmCheck),
}

impl Op {
    /// Whether this op may transfer control somewhere other than the next
    /// instruction, which ends a basic block.
    fn ends_block(&self) -> bool {
        matches!(
            self,
            Op::Jmp { .. }
                | Op::Jcc { .. }
                | Op::Call { .. }
                | Op::Ret
                | Op::Hlt
                | Op::Int3
                | Op::Ud2
        )
    }
}

/// Lowers one instruction, resolving symbols and labels through `lookup`.
pub(crate) fn lower_insn<E, F>(insn: &Insn, lookup: &mut F) -> Result<Op, E>
where
    F: FnMut(&str) -> Result<u64, E>,
{
    Ok(match insn {
        Insn::Mov { w, dst, src } => Op::Mov {
            w: *w,
            dst: arg(dst, lookup)?,
            src: arg(src, lookup)?,
        },
        Insn::Movzx { w, dst, src } => Op::Movzx {
            w: *w,
            dst: *dst,
            src: arg(src, lookup)?,
        },
        Insn::Movsx { w, dst, src } => Op::Movsx {
            w: *w,
            dst: *dst,
            src: arg(src, lookup)?,
        },
        Insn::Lea { dst, mem } => Op::Lea {
            dst: *dst,
            ea: ea(mem, lookup)?,
        },
        Insn::Alu { op, w, dst, src } => Op::Alu {
            op: *op,
            w: *w,
            dst: arg(dst, lookup)?,
            src: arg(src, lookup)?,
        },
        Insn::Shift { op, dst, amount } => Op::Shift {
            op: *op,
            dst: arg(dst, lookup)?,
            amount: arg(amount, lookup)?,
        },
        Insn::Cmp { w, src, dst } => Op::Cmp {
            w: *w,
            src: arg(src, lookup)?,
            dst: arg(dst, lookup)?,
        },
        Insn::Test { w, src, dst } => Op::Test {
            w: *w,
            src: arg(src, lookup)?,
            dst: arg(dst, lookup)?,
        },
        Insn::Un { op, w, dst } => Op::Un {
            op: *op,
            w: *w,
            dst: arg(dst, lookup)?,
        },
        Insn::Imul { dst, src } => Op::Imul {
            dst: *dst,
            src: arg(src, lookup)?,
        },
        Insn::Push { src } => Op::Push {
            src: arg(src, lookup)?,
        },
        Insn::Pop { dst } => Op::Pop {
            dst: arg(dst, lookup)?,
        },
        Insn::Jmp { target } => Op::Jmp {
            target: jump(target, lookup)?,
        },
        Insn::Jcc { cond, target } => Op::Jcc {
            cond: *cond,
            target: jump(target, lookup)?,
        },
        Insn::Call { target } => Op::Call {
            target: jump(target, lookup)?,
        },
        Insn::Ret => Op::Ret,
        Insn::Str { op, w, rep } => Op::Str {
            op: *op,
            w: *w,
            rep: *rep,
        },
        Insn::Cli => Op::Cli,
        Insn::Sti => Op::Sti,
        Insn::Nop => Op::Nop,
        Insn::Hlt => Op::Hlt,
        Insn::Int3 => Op::Int3,
        Insn::Ud2 => Op::Ud2,
    })
}

fn ea<E, F>(m: &MemRef, lookup: &mut F) -> Result<Ea, E>
where
    F: FnMut(&str) -> Result<u64, E>,
{
    let disp = match &m.sym {
        Some(sym) => m.disp.wrapping_add(lookup(sym)? as i64),
        None => m.disp,
    };
    Ok(Ea {
        disp: disp as u32,
        base: m.base,
        index: m.index,
    })
}

fn arg<E, F>(o: &Operand, lookup: &mut F) -> Result<Arg, E>
where
    F: FnMut(&str) -> Result<u64, E>,
{
    Ok(match o {
        Operand::Reg(r) => Arg::Reg(*r),
        Operand::Imm(v) => Arg::Imm(*v as u32),
        Operand::Sym(name, off) => Arg::Imm((lookup(name)? as i64).wrapping_add(*off) as u32),
        Operand::Mem(m) => Arg::Mem(ea(m, lookup)?),
    })
}

fn jump<E, F>(t: &Target, lookup: &mut F) -> Result<Jump, E>
where
    F: FnMut(&str) -> Result<u64, E>,
{
    Ok(match t {
        Target::Label(name) => Jump::Abs(lookup(name)?),
        Target::Abs(a) => Jump::Abs(*a),
        Target::Reg(r) => Jump::Reg(*r),
        Target::Mem(m) => Jump::Mem(ea(m, lookup)?),
    })
}

/// Marks every Figure 4 sequence in `ops` as an [`Op::SvmCheck`].
pub(crate) fn fuse(ops: &mut [Op]) {
    for i in 0..ops.len() {
        if let Some(check) = SvmCheck::recognise(&ops[i..]) {
            ops[i] = Op::SvmCheck(check);
        }
    }
}

/// The block-end table of `ops`: entry `i` is the index one past the last
/// op of the basic block that starts at `i`. A block ends after an op
/// that may jump or stop, or at the end of the image; a fused sequence
/// lies inside a block, which continues after it when the stlb hits. Run
/// whole from `i`, a block executes at most `end[i] - i` instructions.
pub(crate) fn block_ends(ops: &[Op]) -> Vec<u32> {
    let n = ops.len();
    let mut end = vec![0u32; n];
    for i in (0..n).rev() {
        let next = match ops[i] {
            Op::SvmCheck(_) => i + SvmCheck::LEN,
            ref op if op.ends_block() => {
                end[i] = i as u32 + 1;
                continue;
            }
            _ => i + 1,
        };
        end[i] = if next < n { end[next] } else { next as u32 };
    }
    end
}
