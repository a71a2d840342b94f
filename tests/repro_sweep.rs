//! `repro sweep` end to end: the client's hand-built grid body, the
//! service's planner (fig10's latency pairs included) and its renderer
//! must reproduce the direct `repro` figure byte for byte.

use std::process::Command;

use hidisc_serve::{ServeConfig, Service};

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn sweep_fig10_matches_the_direct_csv() {
    let cfg = ServeConfig::builder()
        .workers(2)
        .queue_depth(64)
        .build()
        .expect("valid serve config");
    let svc = Service::start(cfg).expect("service start");
    let addr = svc.addr().to_string();

    let swept = repro(&["sweep", "fig10", "--scale", "test", "--addr", &addr]);
    let direct = repro(&["fig10", "--scale", "test", "--format", "csv"]);
    assert!(
        swept.starts_with("benchmark,l2_latency,mem_latency,"),
        "{swept}"
    );
    assert_eq!(swept, direct);

    svc.shutdown();
}
