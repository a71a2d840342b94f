//! Golden figures: `repro all --scale test --format csv` (table1, fig8,
//! table2, fig9, fig10) must reproduce the committed CSV byte for byte.
//! Any change in simulated behaviour shows up here as an explicit diff to
//! review; regenerate the file with the same command when the change is
//! intended.
//!
//! The Paper-scale counterpart, `tests/golden/all_paper.csv`, is too slow
//! for this suite: CI's `test` job runs
//! `repro all --scale paper --format csv` and `cmp`s its output with that
//! file. Regenerate it with the same command, in the same change as an
//! intended behaviour change.

use std::process::Command;

#[test]
fn repro_all_test_scale_csv_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "test", "--format", "csv"])
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_str!("golden/all_test.csv");
    let got = String::from_utf8(out.stdout).expect("CSV is UTF-8");
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "repro all --scale test --format csv differs from tests/golden/all_test.csv \
             at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            got.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
