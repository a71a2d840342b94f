//! Chrome-trace export and stepping semantics.
//!
//! The golden test pins the exact JSON the [`StreamingSink`] emits for
//! a hand-built event sequence; the workload test validates a full run's
//! trace with a minimal JSON grammar checker (no parser dependency) and
//! proves the export is deterministic. The stepping test pins the
//! contract that a caller stepping into a stall window sees every cycle
//! (fast-forward never skips one under `step`), and that a `run`
//! afterwards may jump without changing the result.

use hidisc::telemetry::{
    EventData, MissKind, StreamingSink, Telemetry, TraceConfig, SOURCE_CMP, SOURCE_MACHINE,
};
use hidisc::{Machine, MachineConfig, Model};
use hidisc_isa::Queue;
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};

fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

// -----------------------------------------------------------------
// A minimal JSON validator: full grammar, no values retained.
// -----------------------------------------------------------------

struct JsonCheck<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonCheck<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => self.i += 2,
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.ws();
                    self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.value()?;
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                self.i += 1;
                while self.b.get(self.i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.i += 1;
                }
                Ok(())
            }
            _ => Err(format!("bad value at byte {}", self.i)),
        }
    }

    fn lit(&mut self, s: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonCheck {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i == p.b.len() {
        Ok(())
    } else {
        Err(format!("trailing garbage at byte {}", p.i))
    }
}

/// Exact document for a hand-built event sequence covering every `ph`
/// kind the sink emits (metadata, instant, complete, counter).
#[test]
fn chrome_sink_golden_fixture() {
    let mut tel = Telemetry::new(TraceConfig::ALL_EVENTS);
    tel.set_clock(5);
    tel.set_source(0);
    tel.emit(EventData::Fetch { pc: 3 });
    tel.emit(EventData::Issue {
        seq: 1,
        pc: 3,
        complete_at: 9,
    });
    tel.emit(EventData::MemMiss {
        addr: 64,
        kind: MissKind::Load,
        l2_hit: false,
        ready_at: 105,
    });
    tel.set_clock(6);
    tel.emit(EventData::QueuePush {
        q: Queue::Ldq,
        depth: 2,
    });
    tel.set_source(SOURCE_CMP);
    tel.emit(EventData::CmpSpawn { cmas: 0, live: 1 });
    tel.set_source(SOURCE_MACHINE);
    tel.emit(EventData::FastForward { skipped: 40 });

    let mut sink = StreamingSink::new(Vec::new(), &["CP"]);
    tel.drain_into(&mut sink);
    let got = String::from_utf8(sink.finish(None).unwrap()).unwrap();

    let want = concat!(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"hidisc\"}},\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"CP\"}},\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"mem\"}},\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"cmp\"}},\n",
        "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"machine\"}},\n",
        "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":5,\"s\":\"t\",\"cat\":\"pipeline\",\"name\":\"fetch\",\"args\":{\"pc\":3}},\n",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":5,\"dur\":4,\"cat\":\"pipeline\",\"name\":\"issue\",\"args\":{\"pc\":3,\"seq\":1}},\n",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":100,\"cat\":\"mem\",\"name\":\"miss-load\",\"args\":{\"addr\":64,\"kind\":\"load\",\"l2Hit\":false}},\n",
        "{\"ph\":\"C\",\"pid\":1,\"ts\":6,\"cat\":\"queue\",\"name\":\"LDQ\",\"args\":{\"depth\":2}},\n",
        "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":6,\"s\":\"t\",\"cat\":\"cmp\",\"name\":\"cmp-spawn\",\"args\":{\"cmas\":0}},\n",
        "{\"ph\":\"C\",\"pid\":1,\"ts\":6,\"cat\":\"cmp\",\"name\":\"cmp-live\",\"args\":{\"threads\":1}},\n",
        "{\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":6,\"dur\":40,\"cat\":\"machine\",\"name\":\"fast-forward\",\"args\":{\"skipped\":40}}\n",
        "]\n",
        "}\n",
    );
    assert_eq!(got, want);
    validate_json(&got).expect("golden fixture is not valid JSON");
}

/// A real run's trace must be grammatically valid JSON, carry events of
/// the pipeline/mem/queue/cmp categories, and export deterministically.
/// (`dm` is the suite's fork-heaviest workload, so every lane lights up.)
#[test]
fn dm_workload_trace_is_valid_and_deterministic() {
    let w = suite(Scale::Test, 7)
        .into_iter()
        .find(|w| w.name == "dm")
        .expect("suite lost its dm workload");
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let mut cfg = MachineConfig::paper();
    cfg.fast_forward = true;
    cfg.trace = TraceConfig::ALL_EVENTS.with_metrics_interval(256);

    let export = || {
        let mut m = Machine::new(Model::HiDisc, &compiled, &env, cfg);
        let mut sink = StreamingSink::new(Vec::new(), &["CP", "AP"]);
        let stats = m
            .run_streamed(compiled.profile.dyn_instrs, &mut sink)
            .unwrap();
        let doc = sink.finish(m.telemetry().metrics()).unwrap();
        (String::from_utf8(doc).unwrap(), stats)
    };
    let (doc, stats) = export();

    validate_json(&doc).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));
    for cat in ["pipeline", "mem", "queue", "cmp"] {
        assert!(
            doc.contains(&format!("\"cat\":\"{cat}\"")),
            "trace has no `{cat}` events"
        );
    }
    assert_eq!(
        stats.ff_jumps > 0,
        doc.contains("\"cat\":\"machine\""),
        "fast-forward jumps and machine-lane events disagree"
    );
    assert!(
        doc.contains("\"hidiscMetrics\":"),
        "metrics side table missing"
    );
    assert!(doc.contains("\"missLatency\":"));

    let (doc2, _) = export();
    assert_eq!(doc, doc2, "trace export is not deterministic");
}

/// A caller that steps the machine into the middle of a stall window —
/// exactly where fast-forward wants to jump — must see every cycle up to
/// its stop point, one per `step`, in order and without gaps; the rest of
/// the run (now free to jump) must finish with unchanged simulation
/// statistics.
#[test]
fn early_stop_mid_stall_window_observes_every_cycle_up_to_stop() {
    let w = suite(Scale::Test, 7)
        .into_iter()
        .find(|w| w.name == "pointer")
        .expect("suite lost its pointer workload");
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let mut cfg = MachineConfig::paper();
    cfg.fast_forward = true;

    let stop_at: u64 = 400;
    let mut m = Machine::new(Model::HiDisc, &compiled, &env, cfg).with_ff_check();
    for cycle in 1..=stop_at {
        assert!(m.step().unwrap(), "the workload halted at cycle {cycle}");
        assert_eq!(m.now(), cycle, "a step skipped or repeated a cycle");
    }
    let observed = m.run(compiled.profile.dyn_instrs).unwrap();
    assert!(
        observed.cycles > stop_at,
        "workload too short to stop stepping mid-run"
    );
    assert!(
        observed.ff_jumps > 0,
        "fast-forward never engaged after stepping stopped (vacuous test)"
    );

    let plain = Machine::new(Model::HiDisc, &compiled, &env, cfg)
        .run(compiled.profile.dyn_instrs)
        .unwrap();
    assert!(
        plain.sim_eq(&observed),
        "stepped-then-run machine diverged from plain run"
    );
    assert_eq!(plain.cycles, observed.cycles);
}
