//! Machine-level statistics: the measures reported in the paper's
//! evaluation (IPC, speed-up, cache miss rate, loss-of-decoupling).

use crate::cmp::CmpStats;
use crate::config::Model;
use hidisc_isa::wire::Counters;
use hidisc_mem::MemStats;
use hidisc_ooo::queues::QueueStats;
use hidisc_ooo::CoreStats;
use std::fmt::Write;

/// Statistics of one simulated run.
#[derive(Debug, Clone)]
pub struct MachineStats {
    /// Which model ran.
    pub model: Model,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Useful work: dynamic instructions of the *original sequential
    /// program* (identical across models for the same workload).
    pub work_instrs: u64,
    /// Per-core statistics `(name, stats)`.
    pub cores: Vec<(&'static str, CoreStats)>,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// CMP statistics (models with a CMP).
    pub cmp: Option<CmpStats>,
    /// Queue statistics in [`hidisc_isa::Queue::ALL`] order.
    pub queues: [QueueStats; 5],
    /// Checksum of the final data memory (for cross-model validation).
    pub mem_checksum: u64,
    /// Host wall-clock time spent inside `run`/`run_observed`, in
    /// nanoseconds (simulator performance, not a simulated quantity).
    pub host_wall_ns: u64,
    /// Fast-forward jumps taken (0 when fast-forward is disabled).
    pub ff_jumps: u64,
    /// Simulated cycles skipped by fast-forward jumps (these cycles are
    /// fully accounted in `cycles` and every statistic; they were just not
    /// individually stepped).
    pub ff_skipped_cycles: u64,
}

impl MachineStats {
    /// A stats record carrying only the measures the figure reports read
    /// (cycles, useful work, L1 demand behaviour), with every other field
    /// empty. Rebuilds report inputs from serialised points — a cached
    /// `/v1/run` result or a sweep point — without a live simulation, so
    /// a figure assembled from minimal stats renders byte-identically to
    /// one assembled from full runs.
    pub fn minimal(
        model: Model,
        cycles: u64,
        work_instrs: u64,
        l1_demand_accesses: u64,
        l1_demand_misses: u64,
    ) -> MachineStats {
        let mut mem = MemStats::default();
        mem.l1.demand_accesses = l1_demand_accesses;
        mem.l1.demand_misses = l1_demand_misses;
        MachineStats {
            model,
            cycles,
            work_instrs,
            cores: Vec::new(),
            mem,
            cmp: None,
            queues: [QueueStats::default(); 5],
            mem_checksum: 0,
            host_wall_ns: 0,
            ff_jumps: 0,
            ff_skipped_cycles: 0,
        }
    }

    /// Instructions per cycle, in *useful work* terms: decoupled models
    /// are not credited for duplicated control or communication
    /// instructions.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.work_instrs as f64 / self.cycles as f64
        }
    }

    /// Speed-up of this run relative to a baseline run of the same
    /// workload.
    pub fn speedup_over(&self, baseline: &MachineStats) -> f64 {
        assert_eq!(
            self.work_instrs, baseline.work_instrs,
            "speed-up requires identical workloads"
        );
        baseline.cycles as f64 / self.cycles as f64
    }

    /// L1 demand miss rate of this run.
    pub fn l1_miss_rate(&self) -> f64 {
        self.mem.l1.demand_miss_rate()
    }

    /// Relative L1 demand miss rate vs a baseline (the quantity plotted in
    /// Figure 9; < 1.0 means misses were eliminated).
    pub fn miss_rate_ratio(&self, baseline: &MachineStats) -> f64 {
        let b = baseline.l1_miss_rate();
        if b == 0.0 {
            1.0
        } else {
            self.l1_miss_rate() / b
        }
    }

    /// Total loss-of-decoupling events across cores.
    pub fn lod_events(&self) -> u64 {
        self.cores.iter().map(|(_, s)| s.lod_events).sum()
    }

    /// Total committed instructions across cores (includes duplicated
    /// control and queue-communication overhead).
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(|(_, s)| s.committed).sum()
    }

    /// Communication/duplication overhead factor: committed instructions
    /// across all processors divided by useful work.
    pub fn overhead_factor(&self) -> f64 {
        if self.work_instrs == 0 {
            0.0
        } else {
            self.total_committed() as f64 / self.work_instrs as f64
        }
    }

    /// Simulator throughput in millions of simulated instructions
    /// (committed, across all cores) per host wall-clock second.
    pub fn msips(&self) -> f64 {
        if self.host_wall_ns == 0 {
            0.0
        } else {
            self.total_committed() as f64 * 1e3 / self.host_wall_ns as f64
        }
    }

    /// Host nanoseconds spent per simulated cycle (simulation speed; with
    /// fast-forward on, skipped cycles make this drop on stall-heavy runs).
    pub fn host_ns_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.host_wall_ns as f64 / self.cycles as f64
        }
    }

    /// True when two runs produced identical *simulated* results: every
    /// architectural statistic, cycle count and memory checksum. Host-side
    /// measurements (`host_wall_ns`, `ff_jumps`, `ff_skipped_cycles`) are
    /// excluded — they describe how the simulation was executed, not what
    /// it computed. This is the equivalence the fast-forward path
    /// guarantees against the per-cycle loop.
    pub fn sim_eq(&self, other: &MachineStats) -> bool {
        let MachineStats {
            model,
            cycles,
            work_instrs,
            cores,
            mem,
            cmp,
            queues,
            mem_checksum,
            host_wall_ns: _,
            ff_jumps: _,
            ff_skipped_cycles: _,
        } = self;
        *model == other.model
            && *cycles == other.cycles
            && *work_instrs == other.work_instrs
            && *cores == other.cores
            && *mem == other.mem
            && *cmp == other.cmp
            && *queues == other.queues
            && *mem_checksum == other.mem_checksum
    }

    /// Canonical JSON serialisation of exactly the fields
    /// [`MachineStats::sim_eq`] compares. Host-side measurements
    /// (`host_wall_ns`, `ff_jumps`, `ff_skipped_cycles`) are excluded,
    /// so two runs of the same configuration — direct, cached, traced,
    /// fast-forwarded or not — serialise to byte-identical documents.
    ///
    /// Counter records are written by `counters_json` from their field
    /// tables; the rest is destructured exhaustively, so adding a
    /// statistic is a compile error here until the encoding (and its
    /// consumers) are updated.
    pub fn to_json(&self) -> String {
        let MachineStats {
            model,
            cycles,
            work_instrs,
            cores,
            mem,
            cmp,
            queues,
            mem_checksum,
            host_wall_ns: _,
            ff_jumps: _,
            ff_skipped_cycles: _,
        } = self;

        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\"model\":\"{}\",\"cycles\":{cycles},\"workInstrs\":{work_instrs},\"cores\":[",
            model.name()
        ));
        for (i, (name, s)) in cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":\"{name}\",\"stats\":"));
            counters_json(&mut out, s);
            out.push('}');
        }
        out.push_str("],\"mem\":{\"l1\":");
        let MemStats {
            l1,
            l2,
            mem_accesses,
            mshr_rejects,
            mshr_merges,
        } = mem;
        counters_json(&mut out, l1);
        out.push_str(",\"l2\":");
        counters_json(&mut out, l2);
        out.push_str(&format!(
            ",\"memAccesses\":{mem_accesses},\
             \"mshrRejects\":{mshr_rejects},\"mshrMerges\":{mshr_merges}}}"
        ));
        out.push_str(",\"cmp\":");
        match cmp {
            None => out.push_str("null"),
            Some(c) => counters_json(&mut out, c),
        }
        out.push_str(",\"queues\":[");
        for (i, q) in queues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            counters_json(&mut out, q);
        }
        out.push_str(&format!("],\"memChecksum\":{mem_checksum}}}"));
        out
    }
}

/// Appends a counter record as a JSON object: one `"key":value` member per
/// field of its [`Counters`] table, in table order. A one-element field is
/// a scalar; longer ones are written as JSON arrays.
fn counters_json<C: Counters>(out: &mut String, c: &C) {
    let mut c = *c;
    let mut sep = '{';
    c.fields(|key, _, v| {
        let _ = write!(out, "{sep}\"{key}\":");
        sep = ',';
        match v {
            [x] => {
                let _ = write!(out, "{x}");
            }
            _ => {
                let items: Vec<String> = v.iter().map(u64::to_string).collect();
                let _ = write!(out, "[{}]", items.join(","));
            }
        }
    });
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(model: Model, cycles: u64, work: u64) -> MachineStats {
        MachineStats {
            model,
            cycles,
            work_instrs: work,
            cores: vec![],
            mem: MemStats::default(),
            cmp: None,
            queues: Default::default(),
            mem_checksum: 0,
            host_wall_ns: 0,
            ff_jumps: 0,
            ff_skipped_cycles: 0,
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let base = stats(Model::Superscalar, 1000, 2000);
        let fast = stats(Model::HiDisc, 800, 2000);
        assert!((base.ipc() - 2.0).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn speedup_rejects_mismatched_work() {
        let a = stats(Model::Superscalar, 1000, 2000);
        let b = stats(Model::HiDisc, 800, 2001);
        let _ = b.speedup_over(&a);
    }

    #[test]
    fn miss_ratio_guards_zero_baseline() {
        let a = stats(Model::Superscalar, 1, 1);
        let b = stats(Model::HiDisc, 1, 1);
        assert_eq!(b.miss_rate_ratio(&a), 1.0);
    }
}
