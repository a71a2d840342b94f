//! Umbrella crate for the HiDISC simulation suite.
//!
//! Re-exports the public API of every workspace crate so that examples and
//! integration tests can use a single dependency. Downstream users should
//! normally depend on the individual crates (`hidisc`, `hidisc-isa`, ...)
//! directly.

#![forbid(unsafe_code)]

pub use hidisc;
pub use hidisc_isa as isa;
pub use hidisc_mem as mem;
pub use hidisc_ooo as ooo;
pub use hidisc_slicer as slicer;
pub use hidisc_workloads as workloads;
