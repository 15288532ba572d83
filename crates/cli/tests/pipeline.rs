//! `ssj pipeline` through the binary: the deterministic window pipeline's
//! per-window rows as a user gets them.

use std::process::Command;

/// The `updates` column of `ssj pipeline --csv` over the default stream's
/// first 3 000 documents in event-time hours, at `--creators creators`.
fn hourly_updates(creators: usize) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_ssj"))
        .args([
            "pipeline",
            "--window-by",
            "Hour:1",
            "--count",
            "3000",
            "--csv",
        ])
        .args(["--creators", &creators.to_string()])
        .output()
        .expect("launch ssj");
    assert!(out.status.success(), "ssj pipeline failed: {}", out.status);
    let csv = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("a header").split(',').collect();
    let at = header
        .iter()
        .position(|&h| h == "updates")
        .expect("the column");
    lines
        .map(|row| row.split(',').nth(at).unwrap().to_owned())
        .collect()
}

/// §VI-B's chain is decided once per build, over the whole pane, so the
/// creator count cannot change routing's control plane: the δ-updates
/// applied at every boundary are the same at 1, 2 and 4 creators. When
/// each creator detected a chain over its own share, 8 of the 60 hours
/// differed between 1 and 2 creators. (Replication may differ: §IV-A's
/// two-phase grouping runs over different shares.)
#[test]
fn pipeline_updates_do_not_depend_on_the_creator_count() {
    let one = hourly_updates(1);
    assert_eq!(one.len(), 60, "one row per hour");
    assert!(one.iter().any(|u| u != "0"), "no hour applied an update");
    for creators in [2, 4] {
        assert_eq!(hourly_updates(creators), one, "{creators} creators");
    }
}
