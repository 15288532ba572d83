//! `ssj pipeline` through the binary: the deterministic window pipeline's
//! per-window rows as a user gets them.

use std::process::Command;

/// The `homed_fraction` column of `ssj pipeline --csv` over the default
/// stream's first 3 000 documents in event-time hours, at `--creators
/// creators`.
fn hourly_homed(creators: usize) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_ssj"))
        .args([
            "pipeline",
            "--window-by",
            "Hour:1",
            "--count",
            "3000",
            "--csv",
            // θ signals follow replication, which the creator count changes
            // (below): a θ no signal reaches keeps the bootstrap build.
            "--theta",
            "10",
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
        .position(|&h| h == "homed_fraction")
        .expect("the column");
    lines
        .map(|row| row.split(',').nth(at).unwrap().to_owned())
        .collect()
}

/// §VI-B's chain is decided once per build, over the whole pane, so the
/// creator count cannot change what the deployed table knows: the share
/// of documents homed in every hour — those with a view pair the table
/// lacks, or with no view under the chain — is the same at 1, 2 and 4
/// creators. When each creator detected a chain over its own share, the
/// δ-updates of 8 of the 60 hours differed between 1 and 2 creators.
/// Every hour brings a new `Hour` value, so most hours are homed whole.
/// (Replication may differ: §IV-A's two-phase grouping runs over
/// different shares.)
#[test]
fn pipeline_homed_share_does_not_depend_on_the_creator_count() {
    let one = hourly_homed(1);
    assert_eq!(one.len(), 60, "one row per hour");
    let routed = |h: &String| h != "0.000000" && h != "1.000000";
    assert!(one[1..].iter().any(routed), "no hour both routed and homed");
    for creators in [2, 4] {
        assert_eq!(hourly_homed(creators), one, "{creators} creators");
    }
}

/// There is no δ-update loop to tune: `--delta` is an unknown option, which
/// exits 2 with the usage.
#[test]
fn delta_is_an_unknown_option() {
    for cmd in ["run", "pipeline"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ssj"))
            .args([cmd, "--delta", "3"])
            .output()
            .expect("launch ssj");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("unknown option --delta"), "{cmd}: {stderr}");
    }
}
