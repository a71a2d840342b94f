//! Pins the content addresses the service hands out. Job keys name the
//! disk-cache files and route sweep points to shards (`key % N`), and
//! sweep ids coalesce equivalent grids, so neither may drift across a
//! refactor. Shard forwarding sends a point to its owner as
//! `JobSpec::to_json` and the owner re-parses it with
//! `JobSpec::from_json`; the round trip must keep the key.

use hidisc_bench::FIG10_LATENCIES;
use hidisc_serve::plan::{plan, Grid};
use hidisc_serve::JobSpec;
use hidisc_workloads::Scale;

/// The job key of a spec, through its own config.
fn key(spec: &JobSpec) -> u64 {
    let cfg = spec.config().expect("valid config");
    spec.key(&cfg)
}

fn key_of(body: &str) -> u64 {
    key(&JobSpec::from_json(body.as_bytes()).expect("body parses"))
}

fn assert_round_trips(spec: &JobSpec) {
    let back = JobSpec::from_json(spec.to_json().as_bytes()).expect("to_json re-parses");
    assert_eq!(key(&back), key(spec), "{}", spec.to_json());
}

fn fig8_grid() -> Grid {
    Grid {
        workloads: [
            "dm",
            "raytrace",
            "pointer",
            "update",
            "field",
            "neighborhood",
            "tc",
        ]
        .map(String::from)
        .to_vec(),
        scales: vec![Scale::Test],
        seeds: vec![2003],
        ..Grid::default()
    }
}

fn fig10_grid() -> Grid {
    Grid {
        workloads: vec!["pointer".into(), "neighborhood".into()],
        scales: vec![Scale::Test],
        seeds: vec![2003],
        latencies: FIG10_LATENCIES.iter().map(|&p| Some(p)).collect(),
        ..Grid::default()
    }
}

#[test]
fn job_keys_are_pinned() {
    for (body, pinned) in [
        (r#"{"workload":"dm"}"#, 0xa680221a8c22fc36),
        (
            r#"{"workload":"pointer","scale":"paper","seed":7,"model":"cp+cmp","l2_lat":8,"mem_lat":80,"scq_depth":4,"max_cycles":1000000}"#,
            0xb760dfa881135912,
        ),
        (r#"{"program":"li r1, 1\nhalt\n"}"#, 0x5d05dc24854edb5b),
    ] {
        assert_eq!(key_of(body), pinned, "{body}");
    }
}

#[test]
fn sweep_ids_are_pinned() {
    let fig8 = plan(&fig8_grid()).expect("fig8 grid plans");
    assert_eq!(fig8.points.len(), 28);
    assert_eq!(format!("{:016x}", fig8.id), "9d0ecac33e510889");
    let fig10 = plan(&fig10_grid()).expect("fig10 grid plans");
    assert_eq!(fig10.points.len(), 32);
    assert_eq!(format!("{:016x}", fig10.id), "4feb85551a6d8665");
}

#[test]
fn specs_round_trip_through_their_json_body() {
    for grid in [fig8_grid(), fig10_grid()] {
        for p in plan(&grid).expect("grid plans").points {
            assert_eq!(key(&p.spec), p.key, "{}", p.spec.to_json());
            assert_round_trips(&p.spec);
        }
    }
    assert_round_trips(
        &JobSpec::from_json(br#"{"program":"li r1, 1\nhalt\n"}"#).expect("program parses"),
    );
}
