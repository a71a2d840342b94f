//! The out-of-order core must be architecturally equivalent to the
//! reference interpreter on arbitrary structured programs: same final
//! registers (observed through the arena stores) and same final memory.
//! Its pipeline trace must also show that it dispatches only what it
//! commits, in the same order.

use hidisc_isa::interp::Interp;
use hidisc_isa::mem::Memory;
use hidisc_isa::testgen::{random_program, GenConfig};
use hidisc_mem::{MemConfig, MemSystem};
use hidisc_ooo::{CoreConfig, CoreCtx, OooCore, QueueConfig, QueueFile};
use hidisc_telemetry::{Category, EventData, Telemetry, TraceConfig, TraceEvent, TraceSink};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Holds the pipeline trace's `Dispatch` and `Commit` events to one
/// `(seq, pc)` sequence: every commit retires the oldest dispatched
/// instruction not yet committed. So no wrong-path instruction ever
/// dispatches, and dispatch order is program order.
#[derive(Default)]
struct DispatchIsCommitOrder {
    in_flight: VecDeque<(u64, u32)>,
    commits: u64,
}

impl TraceSink for DispatchIsCommitOrder {
    fn event(&mut self, e: &TraceEvent) {
        match e.data {
            EventData::Dispatch { seq, pc } => self.in_flight.push_back((seq, pc)),
            EventData::Commit { seq, pc } => {
                assert_eq!(
                    self.in_flight.pop_front(),
                    Some((seq, pc)),
                    "cycle {}: commit #{} is not the oldest dispatch",
                    e.cycle,
                    self.commits
                );
                self.commits += 1;
            }
            _ => {}
        }
    }
}

fn run_core(cfg: CoreConfig, seed: u64, gen: GenConfig) -> (u64, u64, u64) {
    let (prog, mem, regs) = random_program(seed, gen);

    // Reference.
    let mut interp = Interp::new(&prog, mem.clone());
    for &(r, v) in &regs {
        interp.set_reg(r, v);
    }
    let ref_stats = interp.run(4_000_000).unwrap();
    let want = interp.mem.checksum();

    // Timing core.
    let mut core = OooCore::new("prop", cfg, prog);
    for &(r, v) in &regs {
        core.set_reg(r, v);
    }
    let mut data = mem;
    let mut mem_sys = MemSystem::new(MemConfig::paper());
    let mut queues = QueueFile::new(QueueConfig::paper());
    let mut triggers = Vec::new();
    let mut trace = Telemetry::new(TraceConfig {
        mask: Category::Pipeline.bit(),
        ..TraceConfig::OFF
    });
    let mut order = DispatchIsCommitOrder::default();
    let mut now = 0u64;
    while !core.is_done() {
        let mut ctx = CoreCtx {
            mem_sys: &mut mem_sys,
            queues: &mut queues,
            data: &mut data,
            triggers: &mut triggers,
            trace: &mut trace,
        };
        core.step(now, &mut ctx).unwrap();
        trace.drain_into(&mut order);
        now += 1;
        assert!(now < 80_000_000, "runaway core simulation (seed {seed})");
    }
    assert_eq!(trace.dropped(), 0, "seed {seed}: trace events dropped");
    assert!(
        order.in_flight.is_empty(),
        "seed {seed}: dispatched but never committed: {:?}",
        order.in_flight
    );
    assert_eq!(
        order.commits, ref_stats.instrs,
        "seed {seed}: commit events"
    );
    assert_eq!(data.checksum(), want, "seed {seed}: memory diverged");
    assert_eq!(
        core.stats().committed,
        ref_stats.instrs,
        "seed {seed}: committed count diverged"
    );
    (want, now, ref_stats.instrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn superscalar_matches_interpreter(seed in any::<u64>()) {
        run_core(CoreConfig::paper_superscalar(), seed, GenConfig::default());
    }

    #[test]
    fn narrow_inorderish_core_matches_interpreter(seed in any::<u64>()) {
        // A 1-wide, tiny-window core: stresses completely different
        // scheduling paths than the 8-wide machine.
        let cfg = CoreConfig {
            fetch_width: 1,
            dispatch_width: 1,
            issue_width: 1,
            commit_width: 1,
            ruu_size: 4,
            lsq_size: 2,
            ifq_size: 2,
            ..CoreConfig::paper_superscalar()
        };
        run_core(cfg, seed, GenConfig::default());
    }

    #[test]
    fn int_only_programs_run_on_ap_config(seed in any::<u64>()) {
        let gen = GenConfig { with_fp: false, ..GenConfig::default() };
        run_core(CoreConfig::paper_ap(), seed, gen);
    }

    #[test]
    fn timing_is_deterministic(seed in any::<u64>()) {
        let a = run_core(CoreConfig::paper_superscalar(), seed, GenConfig::default());
        let b = run_core(CoreConfig::paper_superscalar(), seed, GenConfig::default());
        prop_assert_eq!(a, b);
    }
}

/// Deep-nesting smoke test outside proptest (heavier programs).
#[test]
fn deep_programs_match() {
    let gen = GenConfig {
        max_depth: 3,
        max_block: 8,
        max_trip: 8,
        ..GenConfig::default()
    };
    for seed in 0..8 {
        run_core(CoreConfig::paper_superscalar(), seed * 7 + 1, gen);
    }
}

/// The memory state must match even with a cold, tiny cache forcing many
/// MSHR rejections and retries.
#[test]
fn tiny_memory_system_does_not_change_results() {
    use hidisc_mem::CacheConfig;
    for seed in 0..8 {
        let (prog, mem, regs) = random_program(seed, GenConfig::default());
        let mut interp = Interp::new(&prog, mem.clone());
        for &(r, v) in &regs {
            interp.set_reg(r, v);
        }
        interp.run(4_000_000).unwrap();
        let want = interp.mem.checksum();

        let mut core = OooCore::new("prop", CoreConfig::paper_superscalar(), prog);
        for &(r, v) in &regs {
            core.set_reg(r, v);
        }
        let mut data: Memory = mem;
        let mut mem_sys = MemSystem::new(MemConfig {
            l1: CacheConfig {
                sets: 2,
                block_bytes: 16,
                ways: 1,
                latency: 1,
            },
            l2: CacheConfig {
                sets: 4,
                block_bytes: 32,
                ways: 1,
                latency: 10,
            },
            mem_latency: 100,
            mshrs: 1,
        });
        let mut queues = QueueFile::new(QueueConfig::paper());
        let mut triggers = Vec::new();
        let mut trace = Telemetry::disabled();
        let mut now = 0u64;
        while !core.is_done() {
            let mut ctx = CoreCtx {
                mem_sys: &mut mem_sys,
                queues: &mut queues,
                data: &mut data,
                triggers: &mut triggers,
                trace: &mut trace,
            };
            core.step(now, &mut ctx).unwrap();
            now += 1;
            assert!(now < 200_000_000, "runaway (seed {seed})");
        }
        assert_eq!(data.checksum(), want, "seed {seed}");
    }
}
