//! Loaded code images and symbol resolution (linking).

use crate::op::{self, Op};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use twin_isa::{Module, INSN_SIZE};

/// Identifier of a loaded code image.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ImageId(pub usize);

/// Error produced when a module cannot be linked or placed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// A referenced symbol could not be resolved.
    Unresolved {
        /// The symbol that could not be resolved.
        symbol: String,
        /// Module being linked.
        module: String,
    },
    /// The code would overlap the extern-trampoline window
    /// `[EXTERN_BASE, RETURN_SENTINEL]`, where every pc is dispatched as
    /// an extern call or a return, so the code could never run.
    TrampolineWindow {
        /// Module being loaded.
        module: String,
        /// Requested code base.
        base: u64,
        /// End of the code (exclusive).
        end: u64,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Unresolved { symbol, module } => write!(
                f,
                "unresolved symbol `{symbol}` while linking module `{module}`"
            ),
            LinkError::TrampolineWindow { module, base, end } => write!(
                f,
                "module `{module}` at [{base:#x}, {end:#x}) overlaps the extern-trampoline window"
            ),
        }
    }
}

impl Error for LinkError {}

/// A fully linked code image: lowered ops with all symbols resolved to
/// absolute addresses, placed at `base`.
///
/// Op `i` occupies addresses `[base + i*INSN_SIZE, base + (i+1)*INSN_SIZE)`.
/// Exports map global label names to their absolute addresses.
#[derive(Clone, Debug)]
pub struct CodeImage {
    /// Image (module) name.
    pub name: String,
    /// Base code address.
    pub base: u64,
    /// The lowered code, one op per instruction of the module's text.
    pub ops: Arc<[Op]>,
    /// Block-end table: entry `i` is one past the last op of the basic
    /// block starting at op `i`.
    pub(crate) block_end: Arc<[u32]>,
    /// Exported label name → absolute address.
    pub exports: BTreeMap<String, u64>,
}

impl CodeImage {
    /// Whether `pc` falls inside this image.
    #[inline]
    pub fn contains(&self, pc: u64) -> bool {
        pc >= self.base && pc < self.end()
    }

    /// Index of the op at code address `pc`.
    ///
    /// Returns `None` if `pc` is outside the image or unaligned.
    #[inline]
    pub(crate) fn index(&self, pc: u64) -> Option<usize> {
        let off = pc.checked_sub(self.base)?;
        if off % INSN_SIZE != 0 || off / INSN_SIZE >= self.ops.len() as u64 {
            return None;
        }
        Some((off / INSN_SIZE) as usize)
    }

    /// The op at code address `pc`.
    ///
    /// Returns `None` if `pc` is outside the image or unaligned.
    #[inline]
    pub fn fetch(&self, pc: u64) -> Option<&Op> {
        self.index(pc).map(|i| &self.ops[i])
    }

    /// Address of an exported symbol.
    pub fn export(&self, name: &str) -> Option<u64> {
        self.exports.get(name).copied()
    }

    /// End address (exclusive).
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.ops.len() as u64 * INSN_SIZE
    }

    /// Number of Figure 4 SVM sequences lowered to one fused op.
    pub fn svm_checks(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::SvmCheck(_)))
            .count()
    }
}

/// Links `module` at `code_base`: local labels become absolute code
/// addresses; all other symbols (data symbols, externs, cross-module
/// references) are resolved through `resolve`. Each instruction is
/// lowered to an [`Op`], Figure 4 sequences are fused, and the block-end
/// table is built.
///
/// # Errors
///
/// Returns [`LinkError::Unresolved`] naming the first unresolvable symbol.
pub fn link<F>(module: &Module, code_base: u64, mut resolve: F) -> Result<CodeImage, LinkError>
where
    F: FnMut(&str) -> Option<u64>,
{
    let label_addr = |name: &str| -> Option<u64> {
        module
            .labels
            .get(name)
            .map(|idx| code_base + *idx as u64 * INSN_SIZE)
    };
    let mut lookup = |name: &str| -> Result<u64, LinkError> {
        label_addr(name)
            .or_else(|| resolve(name))
            .ok_or_else(|| LinkError::Unresolved {
                symbol: name.to_string(),
                module: module.name.clone(),
            })
    };

    let mut ops = module
        .text
        .iter()
        .map(|insn| op::lower_insn(insn, &mut lookup))
        .collect::<Result<Vec<Op>, LinkError>>()?;
    op::fuse(&mut ops);
    let block_end = op::block_ends(&ops).into();

    let mut exports = BTreeMap::new();
    for (name, idx) in &module.labels {
        exports.insert(name.clone(), code_base + *idx as u64 * INSN_SIZE);
    }

    Ok(CodeImage {
        name: module.name.clone(),
        base: code_base,
        ops: ops.into(),
        block_end,
        exports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Arg, Jump};
    use twin_isa::asm::assemble;
    use twin_isa::Reg;

    #[test]
    fn links_labels_and_data_syms() {
        let m = assemble(
            "t",
            r#"
            .text
            .globl f
        f:
            movl counter, %eax
            call g
            jmp f
        g:
            ret
        "#,
        )
        .unwrap();
        let img = link(&m, 0x1000, |s| (s == "counter").then_some(0x2000_0000)).unwrap();
        assert_eq!(img.export("f"), Some(0x1000));
        assert_eq!(img.export("g"), Some(0x1000 + 3 * INSN_SIZE));
        // movl counter -> absolute disp
        match img.ops[0] {
            Op::Mov {
                src: Arg::Mem(ea), ..
            } => assert_eq!(ea.disp, 0x2000_0000),
            other => panic!("unexpected {other:?}"),
        }
        match img.ops[1] {
            Op::Call {
                target: Jump::Abs(a),
            } => assert_eq!(a, 0x1000 + 3 * INSN_SIZE),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unresolved_symbol_errors() {
        let m = assemble("t", ".text\nf:\n call missing\n").unwrap();
        let e = link(&m, 0, |_| None).unwrap_err();
        assert!(matches!(&e, LinkError::Unresolved { symbol, .. } if symbol == "missing"));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn fetch_and_contains() {
        let m = assemble("t", ".text\nf:\n nop\n nop\n ret\n").unwrap();
        let img = link(&m, 0x100, |_| None).unwrap();
        assert!(img.contains(0x100));
        assert!(img.contains(0x100 + 2 * INSN_SIZE));
        assert!(!img.contains(0x100 + 3 * INSN_SIZE));
        assert!(img.fetch(0x100 + 1).is_none(), "unaligned fetch");
        assert!(matches!(img.fetch(0x100 + 2 * INSN_SIZE), Some(Op::Ret)));
        assert_eq!(img.end(), 0x100 + 3 * INSN_SIZE);
    }

    /// The Figure 4 sequence as the rewriter emits it, with `%ecx`/`%edx`
    /// scratch and the translated address in `%eax`.
    const FIG4: &str = "
        lea 8(%ebx), %ecx
        movl %ecx, %eax
        andl $0xfffff000, %ecx
        movl %ecx, %edx
        andl $0x00fff000, %ecx
        shrl $9, %ecx
        cmpl stlb(,%ecx,1), %edx
        jne slow
        xorl stlb+4(,%ecx,1), %eax
    ";

    fn linked(body: &str) -> CodeImage {
        let src = format!(".text\nf:\n{body}\n movl (%eax), %eax\n ret\nslow:\n jmp f\n");
        let m = assemble("t", &src).unwrap();
        link(&m, 0x1000, |s| (s == "stlb").then_some(0xf100_0000)).unwrap()
    }

    #[test]
    fn figure4_sequence_is_fused_with_its_constants() {
        let img = linked(FIG4);
        assert_eq!(img.svm_checks(), 1);
        let Op::SvmCheck(c) = img.ops[0] else {
            panic!("not fused: {:?}", img.ops[0]);
        };
        assert_eq!((c.s1, c.s2, c.out), (Reg::Ecx, Reg::Edx, Reg::Eax));
        assert_eq!(
            (c.page_mask, c.index_mask, c.shift),
            (0xffff_f000, 0x00ff_f000, 9)
        );
        assert_eq!(c.stlb, 0xf100_0000);
        assert_eq!(c.slow, 0x1000 + 11 * INSN_SIZE);
        // The other parts stay ordinary ops, for entry part-way.
        assert!(matches!(img.ops[1], Op::Mov { .. }));
        // One block runs the sequence, the load and the `ret`.
        assert_eq!(
            &img.block_end[..],
            &[11, 8, 8, 8, 8, 8, 8, 8, 11, 11, 11, 12]
        );
    }

    #[test]
    fn a_changed_shape_is_not_fused() {
        let variants = [
            FIG4.replace("jne slow", "je slow"),
            FIG4.replace("stlb+4(", "stlb+8("),
            FIG4.replace("movl %ecx, %edx", "movl %ebx, %edx"),
            FIG4.replace("cmpl stlb(,%ecx,1)", "cmpl stlb(,%ecx,2)"),
            FIG4.replace("shrl $9", "shll $9"),
        ];
        for body in variants {
            assert_eq!(linked(&body).svm_checks(), 0, "{body}");
        }
    }
}
