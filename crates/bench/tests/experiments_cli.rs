//! The `experiments` table flags are a closed set: an unknown flag is a
//! usage error (exit 2, message on stderr), never a silent no-op run.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_table_flag_is_a_usage_error() {
    for args in [&["--e9"][..], &["--e6", "--e9"][..]] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument \"--e9\""),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("experiments [--e1 … --e7]"),
            "{args:?}: {stderr}"
        );
        // Validation precedes every table: nothing ran.
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn known_table_flag_runs_its_table() {
    let out = experiments(&["--e6"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
}
