//! # hidisc-ooo — the out-of-order processor timing model
//!
//! A parameterised, execution-driven out-of-order core in the style of
//! SimpleScalar's `sim-outorder`, used for every processor in the suite:
//!
//! * the 8-issue baseline **superscalar** (all functional units),
//! * the **Computation Processor** (16-entry window, no load/store units),
//! * the **Access Processor** (64-entry window, integer + load/store only).
//!
//! ## Model summary
//!
//! Functional execution happens *in order at dispatch* (the sim-outorder
//! approach): by the time an instruction enters the register update unit
//! its result value is known, and the RUU tracks only *timing* readiness.
//! Loads read memory through the LSQ with exact store-to-load forwarding;
//! stores buffer their data in the LSQ and write memory at in-order commit.
//! Branches resolve functionally at dispatch; on a misprediction the
//! front-end is flushed and refetches once the branch *executes* (timing),
//! so wrong paths cost real cycles without polluting architectural state.
//!
//! The decoupled queue instructions integrate as follows:
//!
//! * queue **pops** (`recv`, `cbr`, `getscq`) happen at in-order dispatch —
//!   an empty queue stalls dispatch (these stall cycles are the paper's
//!   loss-of-decoupling time). `s.q` stores are the exception: they
//!   dispatch immediately and their data is popped in FIFO order by the
//!   load/store queue while younger instructions proceed (the SAQ/SDQ
//!   pairing of the paper);
//! * queue **pushes** (`send`, `l.q` loads, CQ tokens from annotated
//!   branches, `putscq`) happen at in-order commit — a full queue stalls
//!   commit.

#![forbid(unsafe_code)]

pub mod config;
pub mod core;
mod decode;
pub mod fu;
pub mod lsq;
pub mod predictor;
pub mod queues;
pub mod ruu;
pub mod stats;

pub use config::{CoreConfig, Latencies, Scheduler, MAX_RUU_SIZE};
pub use core::{CoreCtx, OooCore, TriggerFork};
pub use predictor::Bimodal;
pub use queues::{QueueConfig, QueueFile};
pub use stats::CoreStats;
