//! `repro` argument validation that runs no simulation.

use std::process::Command;

#[test]
fn latencies_past_u32_exit_2_instead_of_wrapping() {
    let cases: [(&[&str], &str); 9] = [
        (&["params", "--l2-lat", "4294967300"], "out of range"),
        (&["params", "--mem-lat", "4294967296"], "out of range"),
        (
            &["bisect", "pointer", "--a", "4294967300:40", "--b", "16:160"],
            "out of range",
        ),
        (
            &["bisect", "pointer", "--a", "4:40", "--b", "16:4294967297"],
            "out of range",
        ),
        // In range for u32, but too long for the deadlock watchdog.
        (
            &["fig8", "--scale", "test", "--l2-lat", "4294967295"],
            "CFG003",
        ),
        (
            &[
                "fig8",
                "--scale",
                "test",
                "--l2-lat",
                "1",
                "--mem-lat",
                "49999",
            ],
            "CFG003",
        ),
        (
            &["bisect", "pointer", "--a", "4294967295:40", "--b", "16:160"],
            "CFG003",
        ),
        (
            &["bisect", "pointer", "--a", "4:40", "--b", "25000:25000"],
            "CFG003",
        ),
        // No `csv` command: `all --format csv` prints those figures.
        (&["csv"], "unknown command `csv`"),
    ];
    for (args, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn study_commands_refuse_machine_overrides() {
    let cases: [&[&str]; 4] = [
        &[
            "ablate",
            "--scale",
            "test",
            "--l2-lat",
            "16",
            "--mem-lat",
            "160",
        ],
        &["ablate", "--scq-depth", "4"],
        &["related", "--scale", "test", "--scq-depth", "4"],
        &["related", "--mem-lat", "160"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--l2-lat/--mem-lat/--scq-depth do not apply"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}
