//! # hidisc — the Hierarchical Decoupled Instruction Stream Computer
//!
//! The paper's primary contribution: a machine combining three processors,
//! one per level of the memory hierarchy, cooperating through
//! architectural FIFO queues:
//!
//! * the **Computation Processor** (CP) executes the Computation Stream;
//! * the **Access Processor** (AP) executes the Access Stream, runs ahead
//!   of the CP and feeds it through the Load Data Queue;
//! * the **Cache Management Processor** (CMP) speculatively executes Cache
//!   Miss Access Slices forked from the AP, prefetching into the caches the
//!   AP is about to touch.
//!
//! Four machine models are provided ([`Model`]), matching the paper's
//! evaluation:
//!
//! | model | processors | paper role |
//! |-------|------------|-----------|
//! | [`Model::Superscalar`] | 1 × 8-issue OoO | baseline |
//! | [`Model::CpAp`]        | CP + AP | conventional access/execute decoupling |
//! | [`Model::CpCmp`]       | superscalar + CMP | DDMT / speculative precomputation analogue |
//! | [`Model::HiDisc`]      | CP + AP + CMP | the full HiDISC |
//!
//! [`run_model`] compiles nothing itself — it takes a
//! [`hidisc_slicer::CompiledWorkload`] and an initial machine state and
//! simulates to completion, returning [`MachineStats`] with the cycle
//! count, IPC (work instructions / cycles), cache statistics and the
//! decoupling diagnostics used throughout the paper's evaluation section.

#![forbid(unsafe_code)]

pub mod cmp;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod funcval;
pub mod machine;
pub mod stats;

pub use cmp::{CmpConfig, CmpEngine, CmpStats};
pub use config::{fnv1a, ConfigError, MachineConfig, MachineConfigBuilder, Model, FNV_OFFSET};
pub use dynamic::DynamicConfig;
pub use error::RunError;
pub use hidisc_telemetry as telemetry;
pub use hidisc_telemetry::{Category, Telemetry, TraceConfig};
pub use machine::{run_model, Machine, SampledStats};
pub use stats::MachineStats;
