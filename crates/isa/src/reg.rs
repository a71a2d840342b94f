//! Register and queue identifiers.
//!
//! DISA has 32 integer registers (`r0`..`r31`, with `r0` hard-wired to zero
//! as on MIPS) and 32 double-precision floating-point registers
//! (`f0`..`f31`). The architectural queues of the decoupled machine are not
//! registers; they are accessed only through the dedicated queue
//! instructions, but they are identified by the [`Queue`] enum throughout
//! the suite.

use std::fmt;

/// Number of integer registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point registers.
pub const NUM_FP_REGS: usize = 32;

/// An integer register `r0`..`r31`. `r0` always reads as zero; writes to it
/// are discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntReg(u8);

impl IntReg {
    /// The hard-wired zero register.
    pub const ZERO: IntReg = IntReg(0);

    /// Creates a register id. Panics if `n >= 32`.
    #[inline]
    pub fn new(n: u8) -> IntReg {
        assert!(
            (n as usize) < NUM_INT_REGS,
            "integer register out of range: r{n}"
        );
        IntReg(n)
    }

    /// Fallible constructor.
    pub fn try_new(n: u8) -> Option<IntReg> {
        ((n as usize) < NUM_INT_REGS).then_some(IntReg(n))
    }

    /// The register number.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for the hard-wired zero register.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A floating-point register `f0`..`f31` holding an `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FpReg(u8);

impl FpReg {
    /// Creates a register id. Panics if `n >= 32`.
    #[inline]
    pub fn new(n: u8) -> FpReg {
        assert!((n as usize) < NUM_FP_REGS, "fp register out of range: f{n}");
        FpReg(n)
    }

    /// Fallible constructor.
    pub fn try_new(n: u8) -> Option<FpReg> {
        ((n as usize) < NUM_FP_REGS).then_some(FpReg(n))
    }

    /// The register number.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The architectural queues of the HiDISC machine.
///
/// All queues carry raw 64-bit values (integer bits or `f64` bit patterns);
/// the receiving instruction decides the interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Queue {
    /// Load Data Queue: Access Processor → Computation Processor. Carries
    /// values loaded (or computed) by the AP that the CP consumes.
    Ldq,
    /// Store Data Queue: Computation Processor → Access Processor. Carries
    /// store data produced by the CP; paired with an address in the SAQ.
    Sdq,
    /// Computation Data Queue: Computation Processor → Access Processor.
    /// Carries *non-store* operands (e.g. addresses derived from
    /// floating-point results) — the dependences responsible for
    /// loss-of-decoupling events.
    Cdq,
    /// Control Queue: AP → CP branch-outcome tokens. The generalisation of
    /// the paper's End-Of-Data token (see DESIGN.md §3.1).
    Cq,
    /// Slip Control Queue: CMP → AP counting semaphore bounding the
    /// prefetch run-ahead distance (the paper's `PUT_SCQ`/`GET_SCQ`).
    Scq,
}

impl Queue {
    /// All queue kinds, for iteration in statistics code.
    pub const ALL: [Queue; 5] = [Queue::Ldq, Queue::Sdq, Queue::Cdq, Queue::Cq, Queue::Scq];

    /// Position in [`Queue::ALL`], which indexes every per-queue array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// True if speculative tail entries of this queue can be flushed on a
    /// run-ahead squash. The AP-produced queues (LDQ, CQ) buffer entries
    /// that only the CP consumes, so the producer can tag speculative
    /// pushes and retract them before the consumer sees them. SDQ/CDQ
    /// entries come from the non-speculating CP, and the SCQ is a
    /// cross-processor semaphore whose increments the CMP observes
    /// immediately — none of those can be recalled.
    pub fn flushable(self) -> bool {
        matches!(self, Queue::Ldq | Queue::Cq)
    }

    /// Short uppercase name as used in the paper ("LDQ", "SDQ", ...).
    pub fn name(self) -> &'static str {
        match self {
            Queue::Ldq => "LDQ",
            Queue::Sdq => "SDQ",
            Queue::Cdq => "CDQ",
            Queue::Cq => "CQ",
            Queue::Scq => "SCQ",
        }
    }
}

impl fmt::Display for Queue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_index_is_its_position_in_all() {
        for (i, q) in Queue::ALL.into_iter().enumerate() {
            assert_eq!(q.index(), i, "{q}");
        }
    }

    #[test]
    fn zero_register_identity() {
        assert!(IntReg::ZERO.is_zero());
        assert!(!IntReg::new(1).is_zero());
        assert_eq!(IntReg::ZERO.index(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntReg::new(17).to_string(), "r17");
        assert_eq!(FpReg::new(4).to_string(), "f4");
        assert_eq!(Queue::Ldq.to_string(), "LDQ");
    }

    #[test]
    fn try_new_bounds() {
        assert!(IntReg::try_new(31).is_some());
        assert!(IntReg::try_new(32).is_none());
        assert!(FpReg::try_new(31).is_some());
        assert!(FpReg::try_new(32).is_none());
    }

    #[test]
    #[should_panic]
    fn new_panics_out_of_range() {
        let _ = IntReg::new(32);
    }

    #[test]
    fn queue_all_distinct() {
        let mut names: Vec<_> = Queue::ALL.iter().map(|q| q.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Queue::ALL.len());
    }
}
