//! Programs: instruction sequences with labels and annotations.

use crate::annot::Annot;
use crate::instr::Instr;
use crate::{IsaError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A label: symbolic name for an instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    pub name: String,
    pub at: u32,
}

/// A DISA program: a flat sequence of instructions plus labels and the
/// per-instruction annotation field.
///
/// Execution begins at instruction 0 and ends at a `halt` (falling off the
/// end is an error caught by [`Program::validate`]).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Optional human-readable name (benchmark name, stream name...).
    pub name: String,
    instrs: Vec<Instr>,
    annots: Vec<Annot>,
    labels: Vec<Label>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            ..Program::default()
        }
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// True if the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`. Panics if out of range.
    #[inline]
    pub fn instr(&self, pc: u32) -> &Instr {
        &self.instrs[pc as usize]
    }

    /// The instruction at `pc`, if in range.
    #[inline]
    pub fn get(&self, pc: u32) -> Option<&Instr> {
        self.instrs.get(pc as usize)
    }

    /// The annotation at `pc`. Panics if out of range.
    #[inline]
    pub fn annot(&self, pc: u32) -> &Annot {
        &self.annots[pc as usize]
    }

    /// Mutable annotation at `pc`.
    #[inline]
    pub fn annot_mut(&mut self, pc: u32) -> &mut Annot {
        &mut self.annots[pc as usize]
    }

    /// Mutable instruction at `pc` (used by the separator to retarget
    /// branches).
    #[inline]
    pub fn instr_mut(&mut self, pc: u32) -> &mut Instr {
        &mut self.instrs[pc as usize]
    }

    /// All instructions.
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// All annotations (aligned with [`Program::instrs`]).
    #[inline]
    pub fn annots(&self) -> &[Annot] {
        &self.annots
    }

    /// Appends an instruction with a default annotation; returns its index.
    pub fn push(&mut self, i: Instr) -> u32 {
        self.push_annotated(i, Annot::default())
    }

    /// Appends an instruction with an explicit annotation; returns its
    /// index.
    pub fn push_annotated(&mut self, i: Instr, a: Annot) -> u32 {
        let pc = self.len();
        self.instrs.push(i);
        self.annots.push(a);
        pc
    }

    /// Defines a label at instruction index `at`.
    pub fn add_label(&mut self, name: impl Into<String>, at: u32) -> Result<()> {
        let name = name.into();
        if self.labels.iter().any(|l| l.name == name) {
            return Err(IsaError::DuplicateLabel(name));
        }
        self.labels.push(Label { name, at });
        Ok(())
    }

    /// All labels, in definition order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Looks up a label by name.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.iter().find(|l| l.name == name).map(|l| l.at)
    }

    /// The labels defined at a given instruction index.
    pub fn labels_at(&self, pc: u32) -> impl Iterator<Item = &str> {
        self.labels
            .iter()
            .filter(move |l| l.at == pc)
            .map(|l| l.name.as_str())
    }

    /// Checks structural invariants: every branch target is in range, the
    /// last instruction cannot fall off the end, labels point into the
    /// program.
    pub fn validate(&self) -> Result<()> {
        for (pc, i) in self.instrs.iter().enumerate() {
            if let Some(t) = i.target() {
                if t >= self.len() {
                    return Err(IsaError::Exec {
                        pc: pc as u32,
                        msg: format!("branch target {t} out of range (len {})", self.len()),
                    });
                }
            }
        }
        for l in &self.labels {
            if l.at > self.len() {
                return Err(IsaError::UndefinedLabel(format!(
                    "label {} points past end ({} > {})",
                    l.name,
                    l.at,
                    self.len()
                )));
            }
        }
        match self.instrs.last() {
            Some(Instr::Halt | Instr::Jump { .. }) => Ok(()),
            Some(_) => Err(IsaError::Exec {
                pc: self.len().saturating_sub(1),
                msg: "program can fall off the end (must end in halt or jump)".into(),
            }),
            None => Err(IsaError::Exec {
                pc: 0,
                msg: "empty program".into(),
            }),
        }
    }

    /// Counts instructions per stream annotation `(computation, access)`.
    pub fn stream_counts(&self) -> (usize, usize) {
        let access = self
            .annots
            .iter()
            .filter(|a| a.stream == crate::annot::Stream::Access)
            .count();
        (self.annots.len() - access, access)
    }
}

impl fmt::Display for Program {
    /// Disassembly listing with labels and annotation markers, suitable for
    /// re-assembly of the instruction text (labels are emitted; annotation
    /// markers appear as comments).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Group labels by address for O(1) lookup while printing.
        let mut by_addr: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for l in &self.labels {
            by_addr.entry(l.at).or_default().push(&l.name);
        }
        if !self.name.is_empty() {
            writeln!(f, "; program: {}", self.name)?;
        }
        for (pc, i) in self.instrs.iter().enumerate() {
            if let Some(ls) = by_addr.get(&(pc as u32)) {
                for l in ls {
                    writeln!(f, "{l}:")?;
                }
            }
            let a = &self.annots[pc];
            write!(f, "    {}", crate::asm::render_instr(i, self))?;
            let mut marks = Vec::new();
            if a.cmas {
                marks.push("cmas".to_string());
            }
            if let Some(t) = a.trigger {
                marks.push(format!("trigger={t}"));
            }
            if a.push_cq {
                marks.push("cq".to_string());
            }
            if a.probable_miss {
                marks.push("miss".to_string());
            }
            if a.scq_get {
                marks.push("scq".to_string());
            }
            if !marks.is_empty() {
                write!(f, "  ; [{}]", marks.join(","))?;
            }
            writeln!(f)?;
        }
        // Labels at end-of-program.
        if let Some(ls) = by_addr.get(&self.len()) {
            for l in ls {
                writeln!(f, "{l}:")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BranchCond, Instr};
    use crate::reg::IntReg;

    fn prog_with(instrs: Vec<Instr>) -> Program {
        let mut p = Program::new("t");
        for i in instrs {
            p.push(i);
        }
        p
    }

    #[test]
    fn push_and_index() {
        let mut p = Program::new("t");
        assert_eq!(p.push(Instr::Nop), 0);
        assert_eq!(p.push(Instr::Halt), 1);
        assert_eq!(p.len(), 2);
        assert!(matches!(p.instr(1), Instr::Halt));
        assert!(p.get(2).is_none());
    }

    #[test]
    fn labels() {
        let mut p = prog_with(vec![Instr::Nop, Instr::Halt]);
        p.add_label("loop", 1).unwrap();
        assert_eq!(p.label("loop"), Some(1));
        assert_eq!(p.label("nope"), None);
        assert!(p.add_label("loop", 0).is_err());
        assert_eq!(p.labels_at(1).collect::<Vec<_>>(), vec!["loop"]);
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let p = prog_with(vec![
            Instr::Branch {
                cond: BranchCond::Eq,
                a: IntReg::ZERO,
                b: IntReg::ZERO,
                target: 9,
            },
            Instr::Halt,
        ]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_requires_halt_or_jump_at_end() {
        assert!(prog_with(vec![Instr::Nop]).validate().is_err());
        assert!(prog_with(vec![Instr::Halt]).validate().is_ok());
        assert!(prog_with(vec![Instr::Jump { target: 0 }])
            .validate()
            .is_ok());
        assert!(prog_with(vec![]).validate().is_err());
    }

    #[test]
    fn stream_counts() {
        let mut p = prog_with(vec![Instr::Nop, Instr::Nop, Instr::Halt]);
        p.annot_mut(1).stream = crate::annot::Stream::Access;
        assert_eq!(p.stream_counts(), (2, 1));
    }
}
