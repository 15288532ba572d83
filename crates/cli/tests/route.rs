//! `ssj route` through the binary: a saved snapshot routes documents by the
//! Assigners' rule, a pair's partitions or, if the table does not know it,
//! its home.

use ssj_json::{Dictionary, Scalar};
use std::process::Command;

#[test]
fn route_prints_the_home_of_a_pair_the_snapshot_does_not_know() {
    let dir = std::env::temp_dir().join(format!("ssj-route-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (snapshot, input) = (dir.join("snapshot.json"), dir.join("docs.jsonl"));
    let ssj = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_ssj"))
            .args(args)
            .output()
            .expect("launch ssj");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{args:?}: {stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    let save = ["partition", "--count", "200", "--m", "8", "--no-expansion"];
    ssj(&[&save[..], &["--save", snapshot.to_str().unwrap()]].concat());
    std::fs::write(&input, "{\"NoSuchAttr\":\"zzz\"}\n").unwrap();
    let (stdout, stderr) = ssj(&[
        "route",
        "--load",
        snapshot.to_str().unwrap(),
        "--input",
        input.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).unwrap();
    // The home is a function of the pair's content, whatever dictionary
    // computes it.
    let dict = Dictionary::new();
    let pair = dict.intern("NoSuchAttr", Scalar::Str("zzz".into()));
    let home = ssj_partition::home_bit(dict.content_hashes().of(pair.avp), 8);
    let want = format!("d0 -> [{}] (homed)", home.trailing_zeros());
    assert_eq!(stdout.trim_end(), want);
    assert!(
        stderr.contains("routed 1 documents over 8 machines (1 homed)"),
        "{stderr}"
    );
}
