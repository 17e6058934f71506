//! Register liveness analysis over module text.
//!
//! The paper's rewriter needs scratch registers for the SVM fast path and
//! "avoid\[s\] the cost of spilling registers most of the time by doing a
//! register liveness analysis to determine the set of free registers
//! available at each instruction" (§4.1, footnote 3). This module computes
//! the classic backward may-live dataflow over the whole instruction
//! stream, using labels for branch-target edges.

use std::collections::HashMap;
use twin_isa::{Insn, Module, Reg, RegSet, Target};

/// Per-instruction live-out sets for a module.
#[derive(Clone, Debug)]
pub struct Liveness {
    live_out: Vec<RegSet>,
}

/// Registers assumed live at every exit (`ret`): the return value plus the
/// callee-saved set of the cdecl-like convention.
pub fn exit_live_set() -> RegSet {
    [Reg::Eax, Reg::Ebx, Reg::Esi, Reg::Edi, Reg::Ebp, Reg::Esp]
        .into_iter()
        .collect()
}

impl Liveness {
    /// Computes liveness for `module`.
    pub fn compute(module: &Module) -> Liveness {
        let n = module.text.len();
        let mut live_out = vec![RegSet::EMPTY; n];
        let mut live_in = vec![RegSet::EMPTY; n];
        let exit = exit_live_set();

        // Successor sets per instruction.
        let label_of = |t: &Target| -> Option<usize> {
            match t {
                Target::Label(l) => module.labels.get(l).copied(),
                _ => None,
            }
        };
        let succs: Vec<Vec<usize>> = module
            .text
            .iter()
            .enumerate()
            .map(|(i, insn)| match insn {
                Insn::Jmp { target } => label_of(target).into_iter().collect(),
                Insn::Jcc { target, .. } => {
                    let mut v: Vec<usize> = label_of(target).into_iter().collect();
                    if i + 1 < n {
                        v.push(i + 1);
                    }
                    v
                }
                Insn::Ret | Insn::Hlt | Insn::Int3 | Insn::Ud2 => Vec::new(),
                _ => {
                    if i + 1 < n {
                        vec![i + 1]
                    } else {
                        Vec::new()
                    }
                }
            })
            .collect();
        let exits: Vec<bool> = module
            .text
            .iter()
            .map(|insn| {
                matches!(insn, Insn::Ret)
                    // An indirect jump could go anywhere: treat as exit.
                    || matches!(insn, Insn::Jmp { target } if target.is_indirect())
            })
            .collect();

        // Backward fixpoint; reverse program order converges fast.
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out = if exits[i] { exit } else { RegSet::EMPTY };
                for &s in &succs[i] {
                    out = out.union(live_in[s]);
                }
                let insn = &module.text[i];
                let inn = insn.uses().union(out.difference(insn.defs()));
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }

        Liveness { live_out }
    }

    /// A conservative liveness that reports every register live everywhere
    /// (used for the no-liveness ablation: every SVM site must spill).
    pub fn all_live(module: &Module) -> Liveness {
        Liveness {
            live_out: vec![RegSet::ALL; module.text.len()],
        }
    }

    /// Live-out set of instruction `idx`.
    pub fn live_out(&self, idx: usize) -> RegSet {
        self.live_out.get(idx).copied().unwrap_or(RegSet::ALL)
    }

    /// Free-register histogram: for each instruction, how many scratch
    /// candidates are dead. Used for rewrite statistics.
    pub fn free_counts(&self, module: &Module) -> HashMap<usize, usize> {
        module
            .text
            .iter()
            .enumerate()
            .map(|(i, insn)| {
                let blocked = self.live_out(i).union(insn.uses());
                let free = Reg::SCRATCH_CANDIDATES
                    .iter()
                    .filter(|r| !blocked.contains(**r))
                    .count();
                (i, free)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twin_isa::asm::assemble;

    #[test]
    fn dead_after_last_use() {
        let m = assemble(
            "t",
            r#"
            .text
        f:
            movl $1, %ecx
            addl %ecx, %eax
            movl $2, %ecx
            ret
        "#,
        )
        .unwrap();
        let lv = Liveness::compute(&m);
        // After `addl %ecx, %eax`, the first %ecx value is dead (it is
        // redefined before any use).
        assert!(!lv.live_out(1).contains(Reg::Ecx));
        // %eax is live out of the add (it flows to ret).
        assert!(lv.live_out(1).contains(Reg::Eax));
    }

    #[test]
    fn live_through_branch() {
        let m = assemble(
            "t",
            r#"
            .text
        f:
            movl $5, %edx
            cmpl $0, %eax
            je take
            movl $0, %edx
        take:
            movl %edx, %ebx
            ret
        "#,
        )
        .unwrap();
        let lv = Liveness::compute(&m);
        // %edx live across the conditional branch (used at `take`).
        assert!(lv.live_out(2).contains(Reg::Edx));
        assert!(lv.live_out(0).contains(Reg::Edx));
    }

    #[test]
    fn loop_keeps_counter_live() {
        let m = assemble(
            "t",
            r#"
            .text
        f:
            movl $10, %ecx
        top:
            decl %ecx
            cmpl $0, %ecx
            jne top
            ret
        "#,
        )
        .unwrap();
        let lv = Liveness::compute(&m);
        // %ecx live out of the jne (back edge).
        assert!(lv.live_out(3).contains(Reg::Ecx));
    }

    #[test]
    fn call_kills_caller_saved() {
        let m = assemble(
            "t",
            r#"
            .extern g
            .text
        f:
            movl $1, %ecx
            call g
            movl %eax, %ebx
            ret
        "#,
        )
        .unwrap();
        let lv = Liveness::compute(&m);
        // %ecx dead before the call (call clobbers it, no use first).
        assert!(!lv.live_out(0).contains(Reg::Ecx));
        // %eax live out of the call (used after).
        assert!(lv.live_out(1).contains(Reg::Eax));
    }

    #[test]
    fn exit_set_conservative() {
        let m = assemble("t", ".text\nf:\n ret\n").unwrap();
        let lv = Liveness::compute(&m);
        let _ = lv; // live_out of ret itself is unused
        let ex = exit_live_set();
        assert!(ex.contains(Reg::Eax) && ex.contains(Reg::Ebx) && ex.contains(Reg::Esp));
        assert!(!ex.contains(Reg::Ecx) && !ex.contains(Reg::Edx));
    }

    #[test]
    fn all_live_mode() {
        let m = assemble("t", ".text\nf:\n nop\n ret\n").unwrap();
        let lv = Liveness::all_live(&m);
        assert_eq!(lv.live_out(0), RegSet::ALL);
        let free = lv.free_counts(&m);
        assert_eq!(free[&0], 0);
    }
}
