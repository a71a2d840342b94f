//! Allocation budget of the cycle loop: once a machine is warm, simulating
//! an instruction must not touch the heap. The wakeup scheduler's ready
//! list and consumer buffers, the completion heap and the queues are all
//! sized at construction or recycled, so a window of steady-state cycles
//! makes (almost) no allocations. A regression here — a container that is
//! built and dropped per instruction — costs simulation speed long before
//! it shows in any statistic.
//!
//! The same holds for the functional warm phases of sampled runs, where
//! an instruction costs far less host time and a per-instruction
//! allocation would dominate.
//!
//! A counting global allocator tallies the allocations of the test's own
//! thread, so tests running alongside do not disturb the count.

use hidisc::{Machine, MachineConfig, Model};
use hidisc_slicer::{compile, CompiledWorkload, CompilerConfig, ExecEnv};
use hidisc_workloads::{by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of a
// const-initialised thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations per committed instruction allowed in steady state. With a
/// `BTreeSet` ready set, a fresh consumer vector per producer and
/// heap-held fast-forward snapshots, whole Paper-scale runs made 0.5–1.3;
/// these windows now make at most 0.0023. Sampled runs made 0.96 while
/// the warm phase built an error string and an event buffer per
/// instruction; they now make at most 0.0015.
const BUDGET: f64 = 0.01;

/// Cycles simulated before counting (caches, queues, buffers warm up).
const WARMUP: u64 = 10_000;
/// Cycles counted.
const WINDOW: u64 = 20_000;

/// Instructions committed by every core of `m` so far.
fn committed(m: &Machine, work: u64) -> u64 {
    m.stats(work).cores.iter().map(|(_, s)| s.committed).sum()
}

/// Allocations per committed instruction over a steady-state window of
/// `model` running the compiled workload.
fn allocs_per_instr(compiled: &CompiledWorkload, env: &ExecEnv, model: Model) -> f64 {
    let work = compiled.profile.dyn_instrs;
    let mut m = Machine::new(model, compiled, env, MachineConfig::paper());
    let done = m.run_to_cycle(WARMUP).unwrap();
    assert!(!done, "{model}: finished during warm-up");
    let before = committed(&m, work);
    let start = allocs();
    let done = m.run_to_cycle(WARMUP + WINDOW).unwrap();
    let n = allocs() - start;
    assert!(!done, "{model}: finished inside the window");
    let instrs = committed(&m, work) - before;
    assert!(instrs > 0, "{model}: nothing committed");
    n as f64 / instrs as f64
}

/// The workload compiled at `scale`, with its execution environment.
fn compiled(workload: &str, scale: Scale) -> (CompiledWorkload, ExecEnv) {
    let w = by_name(workload, scale, 42).expect("known workload");
    let env = ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    };
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    (compiled, env)
}

#[test]
fn steady_state_simulation_stays_within_the_allocation_budget() {
    for workload in ["tc", "pointer", "field"] {
        let (compiled, env) = compiled(workload, Scale::Paper);
        for model in Model::ALL {
            let rate = allocs_per_instr(&compiled, &env, model);
            assert!(
                rate < BUDGET,
                "{workload}/{model}: {rate:.4} allocations per committed instruction \
                 (budget {BUDGET})"
            );
        }
    }
}

/// Sampled runs alternate detailed windows of `DETAIL` pacing-core
/// instructions with functional warm phases of `SKIP`, so most
/// instructions retire in warm cycles.
const DETAIL: u64 = 2_000;
const SKIP: u64 = 20_000;

#[test]
fn sampled_runs_stay_within_the_allocation_budget() {
    for workload in ["tc", "field"] {
        let (compiled, env) = compiled(workload, Scale::Paper);
        // Between them these two models warm every core configuration
        // (superscalar, CP, AP) and the CMP.
        for model in [Model::CpCmp, Model::HiDisc] {
            let mut m = Machine::new(model, &compiled, &env, MachineConfig::paper());
            let start = allocs();
            let s = m
                .run_sampled(compiled.profile.dyn_instrs, DETAIL, SKIP)
                .unwrap();
            let n = allocs() - start;
            let instrs: u64 = s.stats.cores.iter().map(|(_, c)| c.committed).sum();
            let rate = n as f64 / instrs as f64;
            assert!(
                rate < BUDGET,
                "{workload}/{model}: {rate:.4} allocations per committed instruction \
                 over a sampled run (budget {BUDGET})"
            );
        }
    }
}
