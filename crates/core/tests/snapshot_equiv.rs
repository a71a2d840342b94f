//! Differential proof that snapshot/restore is invisible: for every
//! benchmark of the suite and every machine model, a run interrupted at
//! mid-flight — whether resumed in place, restored from an in-memory
//! clone of the machine, or rebuilt from the on-disk checkpoint byte
//! format — must produce exactly the statistics, cycle count and
//! final memory of the uninterrupted run.
//!
//! See DESIGN.md §16, "State snapshots and sampled simulation", for the
//! invariant this test pins down.

use hidisc::{Machine, MachineConfig, Model};
use hidisc_isa::wire::Enc;
use hidisc_slicer::{compile, CompiledWorkload, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};
use proptest::prelude::*;

fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

/// Arbitrary id standing in for the workload hash a real caller derives
/// from name/scale/seed.
const WORKLOAD_ID: u64 = 0x1517_c0de;

/// Runs the interrupted-and-resumed variants against the uninterrupted
/// baseline for one (workload, model, config) point.
fn check_point(
    name: &str,
    model: Model,
    compiled: &CompiledWorkload,
    env: &ExecEnv,
    cfg: MachineConfig,
) {
    let work = compiled.profile.dyn_instrs;
    let baseline = Machine::new(model, compiled, env, cfg)
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: baseline run failed: {e}"));
    let stop_at = baseline.cycles / 2;

    // Split run: stop at the midpoint, clone, keep going in place.
    let mut split = Machine::new(model, compiled, env, cfg);
    let finished = split
        .run_to_cycle(stop_at)
        .unwrap_or_else(|e| panic!("{name}/{model}: run_to_cycle failed: {e}"));
    assert!(!finished, "{name}/{model}: finished before the midpoint");
    assert_eq!(split.now(), stop_at, "{name}/{model}: stop overshot");
    let mut restored = split.clone();
    let bytes = split.save_checkpoint(WORKLOAD_ID);
    let split_stats = split
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: resumed run failed: {e}"));
    assert!(
        baseline.sim_eq(&split_stats),
        "{name}/{model}: split run diverged:\nbase: {baseline:#?}\nsplit: {split_stats:#?}"
    );

    // Resume the clone taken at the midpoint and run to the end again.
    assert_eq!(restored.now(), stop_at);
    let restored_stats = restored
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: restored run failed: {e}"));
    assert!(
        baseline.sim_eq(&restored_stats),
        "{name}/{model}: restored clone diverged"
    );

    // Rebuild a fresh machine from the serialized checkpoint bytes.
    let mut from_disk = Machine::new(model, compiled, env, cfg);
    from_disk
        .load_checkpoint(&bytes, WORKLOAD_ID)
        .unwrap_or_else(|e| panic!("{name}/{model}: load_checkpoint failed: {e}"));
    assert_eq!(from_disk.now(), stop_at);
    let disk_stats = from_disk
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: checkpointed run failed: {e}"));
    assert!(
        baseline.sim_eq(&disk_stats),
        "{name}/{model}: disk checkpoint diverged:\nbase: {baseline:#?}\ndisk: {disk_stats:#?}"
    );
}

/// Every `Scale::Test` workload × every model, fast-forward off and on:
/// interrupting at the midpoint (resume / restore / disk round-trip) is
/// simulation-identical to never stopping.
#[test]
fn snapshot_restore_is_stat_identical_across_suite_and_models() {
    for w in suite(Scale::Test, 42) {
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        for model in Model::ALL {
            for ff in [false, true] {
                let mut cfg = MachineConfig::paper();
                cfg.fast_forward = ff;
                check_point(w.name, model, &compiled, &env, cfg);
            }
        }
    }
}

/// The paper's Figure-10 high-latency point stalls far more (long
/// in-flight MSHR state crosses the snapshot boundary); equivalence must
/// hold there too.
#[test]
fn snapshot_restore_is_stat_identical_at_high_latency() {
    let w = &suite(Scale::Test, 7)[2]; // pointer: serial chase, stall-heavy
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    for model in Model::ALL {
        let mut cfg = MachineConfig::paper_with_latency(16, 160);
        cfg.fast_forward = true;
        check_point(w.name, model, &compiled, &env, cfg);
    }
}

/// Header validation: a checkpoint only loads into the machine it
/// describes, and every mismatch is a typed error, never a panic.
#[test]
fn checkpoint_header_is_validated() {
    let w = &suite(Scale::Test, 42)[0];
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let mut m = Machine::new(Model::HiDisc, &compiled, &env, MachineConfig::paper());
    m.run_to_cycle(100).unwrap();
    let bytes = m.save_checkpoint(WORKLOAD_ID);

    // Wrong workload id.
    let mut fresh = Machine::new(Model::HiDisc, &compiled, &env, MachineConfig::paper());
    assert!(fresh.load_checkpoint(&bytes, WORKLOAD_ID + 1).is_err());
    // Wrong model.
    let mut fresh = Machine::new(Model::CpAp, &compiled, &env, MachineConfig::paper());
    assert!(fresh.load_checkpoint(&bytes, WORKLOAD_ID).is_err());
    // Wrong configuration.
    let mut fresh = Machine::new(
        Model::HiDisc,
        &compiled,
        &env,
        MachineConfig::paper_with_latency(16, 160),
    );
    assert!(fresh.load_checkpoint(&bytes, WORKLOAD_ID).is_err());
    // Garbage magic.
    let mut garbled = bytes.clone();
    garbled[0] ^= 0xff;
    let mut fresh = Machine::new(Model::HiDisc, &compiled, &env, MachineConfig::paper());
    assert!(fresh.load_checkpoint(&garbled, WORKLOAD_ID).is_err());
    // The pristine bytes still load.
    assert!(fresh.load_checkpoint(&bytes, WORKLOAD_ID).is_ok());
}

/// A corrupt page count in the memory section — the last section before
/// the trailing `now`, `ff_jumps` and `ff_skipped` u64s — is a typed
/// error, never an allocation of that many pages.
#[test]
fn corrupt_memory_page_count_is_an_error() {
    let w = &suite(Scale::Test, 42)[0];
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let mut m = Machine::new(Model::HiDisc, &compiled, &env, MachineConfig::paper());
    m.run_to_cycle(100).unwrap();
    let mut section = Enc::new();
    m.data.save_state(&mut section);
    let section = section.finish();

    let bytes = m.save_checkpoint(WORKLOAD_ID);
    let at = bytes.len() - 24 - section.len();
    assert_eq!(&bytes[at..at + 8], &section[..8], "page count offset");
    for count in [1u64 << 36, 1 << 60] {
        let mut patched = bytes.clone();
        patched[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let mut fresh = Machine::new(Model::HiDisc, &compiled, &env, MachineConfig::paper());
        let loaded = fresh.load_checkpoint(&patched, WORKLOAD_ID);
        assert!(loaded.is_err(), "count {count:#x} loaded");
    }
}

/// Byte offset of the superscalar core's ready list in checkpoint
/// `bytes`, located from what the pipeline snapshot shows of the list's
/// neighbours: the list (a count, then that many strictly ascending
/// sequence numbers — at least two here) is followed by the completion
/// heap (a count, then one `(complete_at, seq)` pair per issued entry in
/// ascending order) and the core's warm-phase fields, all zero in a
/// detailed run. `None` unless exactly one offset fits.
fn ready_list_at(m: &Machine, bytes: &[u8]) -> Option<usize> {
    let window = &m.snapshots()[0].window;
    let waiting = window.iter().filter(|s| s.state == 'W').count() as u64;
    let mut issued: Vec<u64> = window
        .iter()
        .filter(|s| s.state == 'I')
        .map(|s| s.complete_at)
        .collect();
    issued.sort_unstable();
    let word = |at: usize| {
        let b = bytes.get(at..at + 8)?;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    };
    let fits = |p: usize| {
        let Some(k) = word(p).filter(|k| (2..=waiting).contains(k)) else {
            return false;
        };
        let k = k as usize;
        let seqs: Option<Vec<u64>> = (0..k).map(|i| word(p + 8 + 8 * i)).collect();
        let heap = p + 8 + 8 * k;
        let tail = heap + 8 + 16 * issued.len();
        seqs.is_some_and(|s| s.windows(2).all(|w| w[0] < w[1]))
            && word(heap) == Some(issued.len() as u64)
            && issued
                .iter()
                .enumerate()
                .all(|(i, &t)| word(heap + 8 + 16 * i) == Some(t))
            && bytes.get(tail..tail + 6) == Some(&[0u8; 6][..])
    };
    let mut hits = (0..bytes.len()).filter(|&p| fits(p));
    let at = hits.next()?;
    hits.next().is_none().then_some(at)
}

/// A tc checkpoint on the superscalar at the first cycle with at least
/// two ready entries and at least `issued` issued ones: the configuration,
/// the checkpoint bytes and the ready list's offset and length in them.
fn tc_checkpoint(issued: usize) -> (MachineConfig, Vec<u8>, usize, usize) {
    let w = &suite(Scale::Test, 42)[6]; // tc
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let cfg = MachineConfig::paper();
    let mut m = Machine::new(Model::Superscalar, &compiled, &env, cfg);
    loop {
        assert!(m.now() < 2000, "no cycle with two ready entries");
        m.run_to_cycle(m.now() + 1).unwrap();
        let in_flight = m.snapshots()[0]
            .window
            .iter()
            .filter(|s| s.state == 'I')
            .count();
        let bytes = m.save_checkpoint(WORKLOAD_ID);
        if let Some(at) = ready_list_at(&m, &bytes).filter(|_| in_flight >= issued) {
            let k = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            return (cfg, bytes, at, k);
        }
    }
}

/// Loads `patched` into a fresh tc superscalar machine.
fn load_tc(cfg: MachineConfig, patched: &[u8]) -> Result<(), hidisc_isa::wire::WireError> {
    let w = &suite(Scale::Test, 42)[6];
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let mut fresh = Machine::new(Model::Superscalar, &compiled, &env, cfg);
    fresh.load_checkpoint(patched, WORKLOAD_ID)
}

/// The ready list is derived state, so a list that `save_state` could
/// not have produced — longer than the window, out of order, or naming
/// an entry that is not waiting — is a typed error, never re-sorted or
/// trusted.
#[test]
fn corrupt_ready_list_is_an_error() {
    let (cfg, bytes, at, k) = tc_checkpoint(0);
    let ruu_size = cfg.superscalar.ruu_size as u64;
    let seqs = at + 8..at + 8 + 8 * k;
    let load = |patched: &[u8]| load_tc(cfg, patched);
    assert!(load(&bytes).is_ok(), "pristine bytes");

    let mut descending = bytes.clone();
    let reversed: Vec<u8> = bytes[seqs.clone()]
        .chunks(8)
        .rev()
        .flatten()
        .copied()
        .collect();
    descending[seqs.clone()].copy_from_slice(&reversed);
    let err = load(&descending).expect_err("descending list loaded");
    assert_eq!(err.what, "ready list not strictly ascending");

    for count in [ruu_size + 1, 1 << 60] {
        let mut oversize = bytes.clone();
        oversize[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let err = load(&oversize).expect_err("oversize list loaded");
        assert_eq!(err.what, "ready list longer than the window");
    }

    let mut stranger = bytes.clone();
    let last = seqs.end - 8;
    stranger[last..seqs.end].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = load(&stranger).expect_err("list naming a non-waiting entry loaded");
    assert_eq!(err.what, "ready list names an entry that is not waiting");
}

/// The completion list is derived state too: one naming a sequence number
/// outside the window, or an entry that is not issued, is a typed error
/// at load — not a panic at the first harvest.
#[test]
fn corrupt_completions_are_an_error() {
    let (cfg, bytes, at, k) = tc_checkpoint(1);
    // The completion list follows the ready list: a count, then
    // `(complete_at, seq)` pairs; patch the first pair's seq.
    let first_seq = at + 8 + 8 * k + 8 + 8;
    let load = |patched: &[u8]| load_tc(cfg, patched);
    assert!(load(&bytes).is_ok(), "pristine bytes");

    let mut outside = bytes.clone();
    outside[first_seq..first_seq + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = load(&outside).expect_err("completion outside the window loaded");
    assert_eq!(err.what, "completion names a seq outside the window");

    // The oldest ready entry is waiting, not issued.
    let mut waiting = bytes.clone();
    waiting[first_seq..first_seq + 8].copy_from_slice(&bytes[at + 8..at + 16]);
    let err = load(&waiting).expect_err("completion naming a waiting entry loaded");
    assert_eq!(err.what, "completion names an entry that is not issued");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disk-format property: for a machine stopped at an arbitrary cycle,
    /// save → load → save reproduces the exact same bytes (the format has
    /// one canonical encoding), and every truncation of the byte stream
    /// is a graceful error, never a panic.
    #[test]
    fn checkpoint_bytes_round_trip_exactly(stop in 1u64..1500, model_ix in 0usize..4) {
        let w = &suite(Scale::Test, 42)[2]; // pointer
        let env = env_of(w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
        let model = Model::ALL[model_ix];

        let mut m = Machine::new(model, &compiled, &env, MachineConfig::paper());
        m.run_to_cycle(stop).unwrap();
        let bytes = m.save_checkpoint(WORKLOAD_ID);

        let mut restored = Machine::new(model, &compiled, &env, MachineConfig::paper());
        restored.load_checkpoint(&bytes, WORKLOAD_ID).unwrap();
        prop_assert_eq!(restored.now(), m.now());
        prop_assert_eq!(restored.state_digest(), m.state_digest());
        let again = restored.save_checkpoint(WORKLOAD_ID);
        prop_assert_eq!(&again, &bytes, "re-encoding changed the byte stream");

        // Truncations degrade to errors.
        for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut fresh = Machine::new(model, &compiled, &env, MachineConfig::paper());
            prop_assert!(fresh.load_checkpoint(&bytes[..cut], WORKLOAD_ID).is_err());
        }
    }
}
