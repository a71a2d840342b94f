//! # DISA — the Decoupled Instruction Set Architecture
//!
//! This crate defines the instruction set used by the HiDISC simulation
//! suite. It plays the role that PISA (the Portable Instruction Set
//! Architecture of SimpleScalar 3.0) plays in the original paper:
//!
//! * a MIPS-like 64-bit RISC instruction set ([`Instr`]) with integer and
//!   floating-point register files,
//! * the *queue operations* of a decoupled architecture (sends/receives on
//!   the Load Data Queue, Store Data Queue, Control Queue, Computation Data
//!   Queue and Slip Control Queue),
//! * a per-instruction *annotation* ([`Annot`]) carrying the stream
//!   separation decided by the HiDISC compiler (Computation vs Access
//!   stream, CMAS membership, trigger points) — the equivalent of the
//!   annotation field of a SimpleScalar binary,
//! * a text assembler ([`asm::assemble`]), which builds every kernel and
//!   generated test program, and its disassembler ([`asm::render_instr`]),
//! * a functional (architectural) interpreter ([`interp::Interp`]) used for
//!   reference execution, cache profiling and slicer validation,
//! * the byte-addressed sparse [`mem::Memory`] shared by the functional and
//!   timing simulators.
//!
//! Programs are sequences of instructions addressed by *instruction index*
//! (not byte address); branch targets are instruction indices. This mirrors
//! how SimpleScalar treats its fixed-width 8-byte instructions.

#![forbid(unsafe_code)]

pub mod annot;
pub mod asm;
pub mod counters;
pub mod instr;
pub mod interp;
pub mod mem;
pub mod op;
pub mod program;
pub mod reg;
pub mod testgen;

pub use annot::{Annot, SpecDir, SquashHazard, Stream};
pub use instr::{AddrForm, BranchCond, Instr, RegRef, Src, Width};
pub use op::{FpBinOp, FpCmpOp, FpUnOp, IntOp};
pub use program::{Label, Program};
pub use reg::{FpReg, IntReg, Queue};

/// Errors produced by assembling, interpreting or otherwise manipulating
/// DISA programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Assembler error: message plus 1-based source line.
    Parse { line: usize, msg: String },
    /// A branch or jump targets a label that was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// Runtime error in the functional interpreter.
    Exec { pc: u32, msg: String },
    /// Memory access fault (unaligned or out of simulated range).
    Mem { addr: u64, msg: String },
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IsaError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            IsaError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            IsaError::Exec { pc, msg } => write!(f, "execution error at pc {pc}: {msg}"),
            IsaError::Mem { addr, msg } => write!(f, "memory error at {addr:#x}: {msg}"),
        }
    }
}

impl std::error::Error for IsaError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, IsaError>;
