//! The `experiments` flags are a closed set: an unknown flag, or a flag
//! the chosen mode would ignore, is a usage error (exit 2, message on
//! stderr), never a silent no-op run.

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

#[test]
fn window_with_a_non_streaming_schedule_is_a_usage_error() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("window-usage.txt");
    let out_file = out_path.to_str().expect("utf-8 temp path");
    let _ = std::fs::remove_file(&out_path);
    for schedule in [&["--seq"][..], &["--batch", "4"][..]] {
        let mut args = vec!["sweep", "--grid", "border", "--window", "8"];
        args.extend_from_slice(schedule);
        args.extend_from_slice(&["--out", out_file]);
        let out = experiments(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--window sizes the streaming schedule"),
            "{args:?}: {stderr}"
        );
        // Rejected before any work: no output file was created.
        assert!(!out_path.exists(), "{args:?}");
    }
    // On the streaming schedule the window is honoured.
    let out = experiments(&[
        "sweep", "--grid", "border", "--window", "2", "--out", out_file,
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("mode=streaming"));
    std::fs::remove_file(&out_path).expect("streaming sweep wrote its file");
}
