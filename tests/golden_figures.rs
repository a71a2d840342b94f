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

/// Runs `repro <args>` and panics with the first differing line unless its
/// stdout equals `golden` (the contents of `tests/golden/<file>`).
fn assert_matches_golden(args: &[&str], file: &str, golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {} failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "repro {} differs from tests/golden/{file} at line {}:\n  got:    {:?}\n  golden: {:?}",
            args.join(" "),
            line + 1,
            got.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

#[test]
fn repro_all_test_scale_csv_matches_golden() {
    assert_matches_golden(
        &["all", "--scale", "test", "--format", "csv"],
        "all_test.csv",
        include_str!("golden/all_test.csv"),
    );
}

/// The studies outside `repro all`: the ablation and related-work grids,
/// the auxiliary speed-up suites and the sampled suite. Each file is the
/// stdout of `repro <args>` with the arguments in its row, e.g.
/// `repro ablate --scale test --format csv > tests/golden/ablate_test.csv`;
/// regenerate a file that way only for an intended behaviour change.
#[test]
fn repro_study_csvs_match_golden() {
    let csv = ["--scale", "test", "--format", "csv"];
    let study = |cmd: &'static str| [&[cmd][..], &csv[..]].concat();
    let cases: [(Vec<&str>, &str, &str); 5] = [
        (
            study("ablate"),
            "ablate_test.csv",
            include_str!("golden/ablate_test.csv"),
        ),
        (
            study("related"),
            "related_test.csv",
            include_str!("golden/related_test.csv"),
        ),
        (
            study("micro"),
            "micro_test.csv",
            include_str!("golden/micro_test.csv"),
        ),
        (
            study("extras"),
            "extras_test.csv",
            include_str!("golden/extras_test.csv"),
        ),
        (
            [&["fig8", "--sample", "500:2000"][..], &csv[..]].concat(),
            "fig8_sampled_test.csv",
            include_str!("golden/fig8_sampled_test.csv"),
        ),
    ];
    for (args, file, golden) in &cases {
        assert_matches_golden(args, file, golden);
    }
}

/// The two per-cycle readers of a run: `repro diag` (the CMP thread peak
/// is taken on every cycle) and `repro trace` (one line per traced
/// cycle, then the run finishes with fast-forward free to engage).
/// Neither prints host time. Regenerate with
/// `repro diag pointer --scale test > tests/golden/diag_pointer_test.txt`
/// and `repro trace update > tests/golden/trace_update.txt`, only for an
/// intended behaviour change.
#[test]
fn repro_diag_and_trace_text_match_golden() {
    assert_matches_golden(
        &["diag", "pointer", "--scale", "test"],
        "diag_pointer_test.txt",
        include_str!("golden/diag_pointer_test.txt"),
    );
    assert_matches_golden(
        &["trace", "update"],
        "trace_update.txt",
        include_str!("golden/trace_update.txt"),
    );
}
