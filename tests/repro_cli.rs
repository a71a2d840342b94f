//! `repro` argument validation that runs no simulation.

use std::process::Command;

#[test]
fn latencies_past_u32_exit_2_instead_of_wrapping() {
    let cases: [&[&str]; 4] = [
        &["params", "--l2-lat", "4294967300"],
        &["params", "--mem-lat", "4294967296"],
        &["bisect", "pointer", "--a", "4294967300:40", "--b", "16:160"],
        &["bisect", "pointer", "--a", "4:40", "--b", "16:4294967297"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("out of range"), "{args:?}: {stderr}");
    }
}
