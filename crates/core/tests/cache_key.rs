//! The service's result cache is only sound if the canonical config
//! hash is (a) deterministic — the same configuration always produces
//! the same key — and (b) sensitive — any simulation-relevant field
//! change produces a different key, so distinct experiments can never
//! alias to one cache slot.

use hidisc::telemetry::TraceConfig;
use hidisc::MachineConfig;
use hidisc_ooo::Scheduler;
use proptest::prelude::*;

fn build(l2: u32, mem: u32, scq: usize, max_cycles: u64) -> MachineConfig {
    let mut q = MachineConfig::paper().queues;
    q.scq = scq;
    MachineConfig::builder()
        .latency(l2, mem)
        .queues(q)
        .max_cycles(max_cycles)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Determinism: two configs built from the same parameters hash to
    /// the same key (and the same canonical byte string).
    #[test]
    fn identical_configs_hash_identically(
        l2 in 1u32..64,
        mem in 50u32..300,
        scq in 1usize..64,
        max_cycles in 1_000u64..1_000_000_000,
    ) {
        let a = build(l2, mem, scq, max_cycles);
        let b = build(l2, mem, scq, max_cycles);
        prop_assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        prop_assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    /// Sensitivity on the swept axes: a change to the L2 latency, memory
    /// latency, or SCQ depth always changes the key.
    #[test]
    fn sweep_axis_changes_change_the_key(
        l2 in 1u32..64,
        mem in 50u32..300,
        scq in 1usize..64,
    ) {
        let base = build(l2, mem, scq, 1_000_000).canonical_hash();
        prop_assert!(base != build(l2 + 1, mem, scq, 1_000_000).canonical_hash());
        prop_assert!(base != build(l2, mem + 1, scq, 1_000_000).canonical_hash());
        prop_assert!(base != build(l2, mem, scq + 1, 1_000_000).canonical_hash());
    }
}

/// Every simulation-relevant field class perturbs the key; settings
/// excluded by design because they cannot change results (telemetry, the
/// issue scheduler, the fast-forward checker) do not.
#[test]
fn single_field_mutations_change_the_key() {
    let base = MachineConfig::paper();
    let base_key = base.canonical_hash();

    type Mutation = (&'static str, fn(&mut MachineConfig));
    let mutations: [Mutation; 11] = [
        ("mem.l2.latency", |c| c.mem.l2.latency += 1),
        ("mem.mem_latency", |c| c.mem.mem_latency += 1),
        ("mem.l1.ways", |c| c.mem.l1.ways *= 2),
        ("mem.l1.sets", |c| c.mem.l1.sets *= 2),
        ("queues.scq", |c| c.queues.scq += 1),
        ("queues.ldq", |c| c.queues.ldq += 1),
        ("ap.ruu_size", |c| c.ap.ruu_size += 1),
        ("cmp.max_threads", |c| c.cmp.max_threads += 1),
        ("deadlock_cycles", |c| c.deadlock_cycles += 1),
        ("max_cycles", |c| c.max_cycles += 1),
        ("fast_forward", |c| c.fast_forward = !c.fast_forward),
    ];
    let mut keys = vec![base_key];
    for (what, mutate) in mutations {
        let mut c = base;
        mutate(&mut c);
        let key = c.canonical_hash();
        assert_ne!(key, base_key, "mutating {what} left the key unchanged");
        keys.push(key);
    }
    // The mutants are also pairwise distinct — no accidental collisions
    // in this neighborhood of config space.
    let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
    assert_eq!(distinct.len(), keys.len(), "two mutants collided");

    // Telemetry and the scan scheduler (issue-identical to the ready
    // list) are deliberately not hashed: such a run may reuse a plain
    // run's cached result.
    let invisible: [Mutation; 2] = [
        ("trace", |c| {
            c.trace = TraceConfig::ALL_EVENTS.with_metrics_interval(100)
        }),
        ("cp.scheduler", |c| c.cp.scheduler = Scheduler::Scan),
    ];
    for (what, mutate) in invisible {
        let mut c = base;
        mutate(&mut c);
        assert_eq!(
            c.canonical_hash(),
            base_key,
            "mutating {what} changed the key"
        );
    }
}
