//! Cross-crate integration tests: the full system (free-running and
//! lock-step topology) against ground truth on both datasets.

use schema_free_stream_joins::ssj_core::{
    ground_truth_pairs, run_topology, run_topology_collect, DistRuntime, Reader, StreamJoinConfig,
    TopologyRunReport, WindowSpec,
};
use schema_free_stream_joins::ssj_data::{
    NoBenchConfig, NoBenchGen, ServerLogConfig, ServerLogGen,
};
use schema_free_stream_joins::ssj_json::{Dictionary, Document, FxHashSet};
use schema_free_stream_joins::ssj_partition::PartitionerKind;
use schema_free_stream_joins::ssj_runtime::wire::{decode_hello, encode_hello, read_frame, Hello};
use schema_free_stream_joins::ssj_runtime::{FaultPlan, RunError};
use ssj_bench::testutil::{lockstep_reader, oracle, shifting_stream};
use std::io::Write;
use std::os::unix::net::UnixListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serverlog(dict: &Dictionary, n: usize) -> Vec<Document> {
    ServerLogGen::new(ServerLogConfig::default(), dict.clone()).take_docs(n)
}

fn nobench(dict: &Dictionary, n: usize) -> Vec<Document> {
    NoBenchGen::new(NoBenchConfig::default(), dict.clone()).take_docs(n)
}

/// What `ssj pipeline` and the figures run: the lock-step topology with one
/// Assigner and batch 1, one pane per window of `windows`.
fn pipeline(
    cfg: StreamJoinConfig,
    dict: &Dictionary,
    windows: Vec<Vec<Document>>,
) -> TopologyRunReport {
    let cfg = StreamJoinConfig {
        assigners: 1,
        batch_size: 1,
        ..cfg
    };
    let reader = lockstep_reader(windows.iter().map(Vec::as_slice));
    run_topology_collect(cfg, dict, reader, FaultPlan::new(), None).expect("run")
}

/// `docs` cut into windows of `n`.
fn windows_of(docs: &[Document], n: usize) -> Vec<Vec<Document>> {
    docs.chunks(n).map(<[Document]>::to_vec).collect()
}

#[test]
fn pipeline_is_exact_on_server_logs_for_all_partitioners() {
    for kind in PartitionerKind::all() {
        let dict = Dictionary::new();
        let docs = serverlog(&dict, 600);
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(200))
            .with_partitioner(kind)
            .build()
            .unwrap();
        let report = pipeline(cfg, &dict, windows_of(&docs, 200));
        let truth = oracle(&docs, WindowSpec::tumbling(200)).windows;
        assert_eq!(
            report.joins_per_window,
            truth,
            "{}: lost or invented join results",
            kind.name()
        );
    }
}

#[test]
fn pipeline_is_exact_on_nobench_with_expansion() {
    let dict = Dictionary::new();
    let docs = nobench(&dict, 400);
    let cfg = StreamJoinConfig::default()
        .with_m(6)
        .with_window_spec(WindowSpec::tumbling(200))
        .with_expansion(true)
        .build()
        .unwrap();
    let report = pipeline(cfg, &dict, windows_of(&docs, 200));
    let truth = oracle(&docs, WindowSpec::tumbling(200)).windows;
    assert_eq!(report.joins_per_window, truth);
}

#[test]
fn threaded_topology_matches_pipeline_results() {
    let dict = Dictionary::new();
    let docs = serverlog(&dict, 450);
    let cfg = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(WindowSpec::tumbling(150))
        .with_partition_creators(2)
        .with_assigners(2)
        .build()
        .unwrap();

    let truth = oracle(&docs, WindowSpec::tumbling(150)).windows;
    assert_eq!(truth.len(), 3);
    let topo = run_topology(cfg.clone(), &dict, docs.clone()).expect("run");
    assert_eq!(topo.joins_per_window, truth, "threaded topology");
    let report = pipeline(cfg, &dict, windows_of(&docs, 150));
    assert_eq!(report.joins_per_window, truth, "lock-step pipeline");
}

/// Tier-1's one pass through recovery: a joiner crashed in the middle of
/// window 1 fails the first attempt, the run resumes at its first
/// undelivered window, and every window still equals brute force.
#[test]
fn crashed_joiner_recovers_to_ground_truth() {
    let dict = Dictionary::new();
    let docs = serverlog(&dict, 450);
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(WindowSpec::tumbling(150))
        .with_partition_creators(2)
        .with_assigners(2)
        .build()
        .unwrap();
    let plan = FaultPlan::new().crash("joiner", 1, 1, 5);
    let reader = Reader::Docs(docs.iter().cloned().map(Arc::new).collect());
    let report = run_topology_collect(cfg, &dict, reader, plan, None).expect("run");
    assert_eq!(report.runtime.attempts, 2, "the planned crash never fired");
    let (delivered, start) = report.runtime.resumed.expect("a resumed attempt");
    assert_eq!(
        start, delivered,
        "a tumbling run resumes at its first undelivered window"
    );
    assert_eq!(report.windows, [0, 1, 2]);
    let truth = oracle(&docs, WindowSpec::tumbling(150)).windows;
    assert_eq!(report.joins_per_window, truth);
}

/// Tier-1's one pass through the socket mesh: a 2-member group (threads
/// standing in for processes — own dictionary each, talking only over the
/// Unix sockets; member 1's starts empty and reads nothing) produces the
/// single-process run's joins.
#[test]
fn two_member_group_matches_single_process() {
    let cfg = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(WindowSpec::tumbling(150))
        .with_partition_creators(2)
        .with_assigners(2)
        .with_workers(2)
        .build()
        .unwrap();
    let dict = Dictionary::new();
    let solo_cfg = cfg.clone().with_workers(1).build().unwrap();
    let solo = run_topology(solo_cfg, &dict, serverlog(&dict, 450)).expect("solo run");

    let dir = std::env::temp_dir().join(format!("ssj-e2e-group-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let members: Vec<_> = (0..2)
        .map(|w| {
            let (cfg, dir) = (cfg.clone(), dir.clone());
            std::thread::spawn(move || {
                let dict = Dictionary::new();
                let docs = if w == 0 {
                    serverlog(&dict, 450)
                } else {
                    Vec::new()
                };
                let dr = DistRuntime {
                    workers: 2,
                    my_worker: w,
                    socket_dir: dir,
                    attempt: 0,
                };
                let reader = Reader::Docs(docs.into_iter().map(Arc::new).collect());
                run_topology_collect(cfg, &dict, reader, FaultPlan::new(), Some(&dr))
            })
        })
        .collect();
    let reports: Vec<_> = members.into_iter().map(|h| h.join().unwrap()).collect();
    let _ = std::fs::remove_dir_all(&dir);
    let reports: Vec<_> = reports
        .into_iter()
        .map(|r| r.expect("group member run"))
        .collect();
    // The reporter lives on member 0.
    assert_eq!(reports[0].joins_per_window, solo.joins_per_window);
    assert!(solo.joins_per_window.iter().any(|w| !w.is_empty()));
}

/// A peer that dies mid-frame: a fake worker 0 completes the handshake,
/// writes half a frame and exits. The survivor (worker 1, a group member
/// with no relaunch step, so it does not resume) stops within seconds, and
/// its run ends in a transport error naming worker 0 — no panic, no hang.
#[test]
fn a_peer_dying_mid_frame_ends_the_run_in_a_transport_error() {
    let dir = std::env::temp_dir().join(format!("ssj-e2e-dead-peer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Worker 0 listens at its attempt-0 socket; worker 1 connects and
    // speaks first, and gets its own hello back as worker 0's.
    let listener = UnixListener::bind(dir.join("ssj-w0.a0.sock")).unwrap();
    let fake = std::thread::spawn(move || {
        let (mut link, _) = listener.accept().unwrap();
        let mut body = Vec::new();
        assert!(read_frame(&mut link, &mut body).unwrap());
        let hello = decode_hello(&body).unwrap();
        let mut reply = Vec::new();
        encode_hello(&Hello { worker: 0, ..hello }, &mut reply);
        link.write_all(&reply).unwrap();
        // A length prefix promising 64 bytes, then 10 of them.
        link.write_all(&64u32.to_le_bytes()).unwrap();
        link.write_all(&[0; 10]).unwrap();
    });
    let cfg = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(WindowSpec::tumbling(150))
        .with_workers(2)
        .build()
        .unwrap();
    let dict = Dictionary::new();
    let reader = Reader::Docs(serverlog(&dict, 450).into_iter().map(Arc::new).collect());
    let survivor = DistRuntime {
        workers: 2,
        my_worker: 1,
        socket_dir: dir.clone(),
        attempt: 0,
    };
    let t0 = Instant::now();
    let run = run_topology_collect(cfg, &dict, reader, FaultPlan::new(), Some(&survivor));
    assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
    fake.join().expect("fake peer");
    let _ = std::fs::remove_dir_all(&dir);
    match run {
        Err(RunError::Transport(errors)) => {
            assert!(errors.iter().any(|e| e.contains("worker 0")), "{errors:?}")
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
}

/// A task that panics on a group member fails the whole attempt, not just
/// that member: the leader's run ends in a transport error naming the
/// member (for a driver that can relaunch it to resume), never in windows
/// without the member's share.
#[test]
fn a_member_task_panic_fails_the_leaders_attempt() {
    let cfg = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(WindowSpec::tumbling(150))
        .with_workers(2)
        .build()
        .unwrap();
    let dir = std::env::temp_dir().join(format!("ssj-e2e-member-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let members: Vec<_> = (0..2)
        .map(|w| {
            let (cfg, dir) = (cfg.clone(), dir.clone());
            std::thread::spawn(move || {
                let dict = Dictionary::new();
                let docs = if w == 0 {
                    serverlog(&dict, 450)
                } else {
                    Vec::new()
                };
                let dr = DistRuntime {
                    workers: 2,
                    my_worker: w,
                    socket_dir: dir,
                    attempt: 0,
                };
                // Joiner 1 lives on member 1; window 0 is broadcast to it.
                let plan = match w {
                    1 => FaultPlan::new().crash("joiner", 1, 0, 5),
                    _ => FaultPlan::new(),
                };
                let reader = Reader::Docs(docs.into_iter().map(Arc::new).collect());
                run_topology_collect(cfg, &dict, reader, plan, Some(&dr))
            })
        })
        .collect();
    let mut runs: Vec<_> = members.into_iter().map(|h| h.join().unwrap()).collect();
    let _ = std::fs::remove_dir_all(&dir);
    match runs.pop().unwrap() {
        Err(RunError::TaskPanicked(tasks)) => assert_eq!(tasks, ["joiner[1]"]),
        other => panic!("member 1: {other:?}"),
    }
    match runs.pop().unwrap() {
        Err(RunError::Transport(errors)) => {
            assert!(errors.iter().any(|e| e.contains("worker 1")), "{errors:?}")
        }
        other => panic!("leader: {other:?}"),
    }
}

/// Tier-1 runs only this package, so this is its one pass through the
/// Joiner's freeze path: every pane is frozen under the tree its own join
/// built and probed by the seven panes after it. Fixed seed; the truth is
/// brute force over the whole stream, filtered to pairs whose documents are
/// less than a window apart and keyed by the later document's pane.
#[test]
fn sliding_topology_matches_pane_filtered_brute_force() {
    const PANE: usize = 64;
    const PANES: usize = 8;
    let dict = Dictionary::new();
    let config = ServerLogConfig {
        seed: 14,
        ..ServerLogConfig::default()
    };
    let docs = ServerLogGen::new(config, dict.clone()).take_docs(PANE * 12);
    let cfg = StreamJoinConfig::default()
        .with_m(4)
        .with_window_spec(WindowSpec::sliding(PANE, PANES))
        .with_expansion(false)
        .build()
        .unwrap();
    let report = run_topology(cfg, &dict, docs.clone()).expect("run");

    let truth = oracle(&docs, WindowSpec::sliding(PANE, PANES)).windows;
    assert!(truth.iter().skip(PANES).all(|pane| !pane.is_empty()));
    assert_eq!(report.joins_per_window, truth);
}

/// Tier-1's pass through the Joiner's arrival path proper: panes of three
/// micro-batches, so every joiner drains mid-pane, seals or resets an open
/// tree that was filled across drains, and runs each pane under the order
/// of the one before — on a stream whose attribute mix shifts under that
/// order. In pane 2 `Location`, ubiquitous until then, vanishes from every
/// fifth document (the carried-over fast-path depth is wrong); in pane 3 a
/// `Trace` attribute appears that no earlier order ranked. Tumbling and
/// 4-pane sliding, against pane-filtered brute force.
#[test]
fn joins_on_arrival_across_micro_batches_and_shifting_attributes() {
    use schema_free_stream_joins::ssj_core::joiner::ARRIVAL_BATCH;
    use schema_free_stream_joins::ssj_json::DocId;
    const PANE: usize = 3 * ARRIVAL_BATCH;
    let dict = Dictionary::new();
    let docs: Vec<Document> = (0..5 * PANE as u64)
        .map(|i| {
            let (pane, x) = (i as usize / PANE, i.wrapping_mul(0x9E37_79B9) >> 7);
            let mut json = format!(r#"{{"Severity":"s{}","User":"u{}""#, x % 3, x % 7);
            if !(pane == 2 && i % 5 == 0) {
                json += &format!(r#","Location":"l{}""#, x % 5);
            }
            if pane >= 3 && i % 3 == 0 {
                json += &format!(r#","Trace":"t{}""#, x % 4);
            }
            Document::from_json(DocId(i), &(json + "}"), &dict).unwrap()
        })
        .collect();
    for panes in [1usize, 4] {
        let spec = match panes {
            1 => WindowSpec::tumbling(PANE),
            _ => WindowSpec::sliding(PANE, panes),
        };
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(spec)
            .with_expansion(false)
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).expect("run");
        for (w, held) in report.docs_per_joiner.iter().enumerate() {
            let most = held.iter().max().copied().unwrap_or(0);
            assert!(most > ARRIVAL_BATCH, "pane {w}: no joiner drained mid-pane");
        }
        let truth = oracle(&docs, spec).windows;
        assert!(truth.iter().all(|pane| !pane.is_empty()));
        assert_eq!(report.joins_per_window, truth, "{panes} pane(s) per window");
    }
}

/// The rare path: a repartition that fires. The value vocabulary changes at
/// pane 5 of 10, so the bootstrap table knows none of the later pairs, every
/// document of pane 5 is homed, and the Reporter sees the homed share of
/// the whole pane jump past θ over the (constant) baseline of panes 1–4. As
/// it closes pane 5 it signals, once, whatever the number of Assigners.
/// Both creators build groups a second time — at boundary 6,
/// over their share of the whole lookback, not of one pane — so the
/// Merger's boundary 6 deploys a rebuild, and from pane 7 on documents are
/// routed by the table again. The run is in lock-step so the signals reach
/// their targets before pane 6 does, every time; `batch_size` 1 makes the
/// shuffle per-document, so each creator holds exactly half of every pane.
#[test]
fn vocabulary_shift_forces_a_repartition() {
    const PANE: usize = 128;
    const RUN_PANES: usize = 10;
    const SHIFT: usize = 5;
    const M: usize = 4;
    let dict = Dictionary::new();
    let docs = shifting_stream(&dict, RUN_PANES, PANE, SHIFT);
    for (spec, expansion) in [
        (WindowSpec::tumbling(PANE), true),
        (WindowSpec::tumbling(PANE), false),
        (WindowSpec::sliding(PANE, 4), false),
    ] {
        let what = format!("{spec:?}, expansion {expansion}");
        let cfg = StreamJoinConfig::default()
            .with_m(M)
            .with_window_spec(spec)
            .with_expansion(expansion)
            .with_partition_creators(2)
            .with_assigners(2)
            .with_batch_size(1)
            .build()
            .unwrap();
        let reader = lockstep_reader(docs.chunks(PANE));
        let report = run_topology_collect(cfg, &dict, reader, FaultPlan::new(), None).expect("run");
        let rt = &report.runtime;

        let signals = rt.component_counter("reporter", "repartition_signals");
        assert_eq!(signals, 1, "{what}: one signal per pane");
        let creators: Vec<_> = rt
            .tasks
            .iter()
            .filter(|t| t.component == "creator")
            .collect();
        assert_eq!(creators.len(), 2);
        for c in &creators {
            assert_eq!(
                c.counter("group_computations"),
                2,
                "{what}: creator {}",
                c.task
            );
            // The bootstrap scans this creator's half of pane 0, the second
            // build its half of every pane in the lookback.
            assert_eq!(
                c.counter("group_build_docs") as usize,
                PANE / 2 + spec.panes_per_window() * PANE / 2,
                "{what}: creator {} did not scan its whole lookback",
                c.task
            );
        }
        // The bootstrap and the rebuild, nothing in between.
        let tables = rt.component_counter("merger", "table_broadcasts");
        assert_eq!(tables, 2, "{what}: tables deployed");
        // The rebuild took effect: every document of panes 5 and 6 was
        // homed, from pane 7 on documents are routed by the table again.
        let homed = |p: usize| report.routing[p].homed;
        assert_eq!((homed(SHIFT), homed(SHIFT + 1)), (PANE, PANE), "{what}");
        for p in SHIFT + 2..RUN_PANES {
            assert_eq!(homed(p), 0, "{what}: pane {p} still homed");
        }

        let truth = oracle(&docs, spec).windows;
        assert!(truth.iter().all(|pane| !pane.is_empty()));
        assert_eq!(report.joins_per_window, truth, "{what}");
    }
}

#[test]
fn topology_scales_joiner_count() {
    for m in [1usize, 2, 6] {
        let dict = Dictionary::new();
        let docs = serverlog(&dict, 200);
        let cfg = StreamJoinConfig::default()
            .with_m(m)
            .with_window_spec(WindowSpec::tumbling(100))
            .build()
            .unwrap();
        let report = run_topology(cfg, &dict, docs.clone()).expect("run");
        let truth = oracle(&docs, WindowSpec::tumbling(100)).windows;
        assert_eq!(report.joins_per_window[0], truth[0], "m={m}");
    }
}

#[test]
fn repeated_runs_of_pipeline_are_deterministic() {
    let run_once = || {
        let dict = Dictionary::new();
        let docs = serverlog(&dict, 600);
        let cfg = StreamJoinConfig::default()
            .with_m(4)
            .with_window_spec(WindowSpec::tumbling(200))
            .build()
            .unwrap();
        let r = pipeline(cfg, &dict, windows_of(&docs, 200));
        let q: Vec<_> = (0..r.routing.len())
            .map(|w| r.routing[w].quality(&r.docs_per_joiner[w]))
            .map(|q| {
                (
                    format!("{:.9}", q.replication),
                    format!("{:.9}", q.max_processing_load),
                )
            })
            .collect();
        (q, r.joins_per_window)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn window_isolation_no_cross_window_joins() {
    // Two windows engineered so cross-window pairs would join but
    // within-window pairs would not: tumbling windows must report nothing.
    let dict = Dictionary::new();
    let w1: Vec<Document> = (0..10u64)
        .map(|i| {
            Document::from_json(
                ssj_json_docid(i),
                &format!(r#"{{"k":{},"tag":"x{}"}}"#, i, i),
                &dict,
            )
            .unwrap()
        })
        .collect();
    let w2: Vec<Document> = (10..20u64)
        .map(|i| {
            Document::from_json(
                ssj_json_docid(i),
                &format!(r#"{{"k":{},"tag":"y{}"}}"#, i - 10, i),
                &dict,
            )
            .unwrap()
        })
        .collect();
    let mut all = w1.clone();
    all.extend(w2.clone());
    let cfg = StreamJoinConfig::default()
        .with_m(2)
        .with_window_spec(WindowSpec::tumbling(10))
        .with_expansion(false)
        .build()
        .unwrap();
    let report = pipeline(cfg, &dict, windows_of(&all, 10));
    assert_eq!(report.joins_per_window.len(), 2);
    for (w, pairs) in report.joins_per_window.iter().enumerate() {
        assert!(pairs.is_empty(), "cross-window leak in window {w}");
    }
}

fn ssj_json_docid(i: u64) -> schema_free_stream_joins::ssj_json::DocId {
    schema_free_stream_joins::ssj_json::DocId(i)
}

#[test]
fn event_time_windows_drive_the_pipeline() {
    use schema_free_stream_joins::ssj_core::{windows, SegmentSpec};
    let dict = Dictionary::new();
    let docs = serverlog(&dict, 1200);
    // Segment by the Hour attribute (4 half-hour slots per window).
    let ws = windows(
        docs.clone(),
        SegmentSpec::ByAttribute {
            attr: "Hour".into(),
            width: 4,
        },
        &dict,
    );
    assert!(ws.len() > 2, "expected several event-time windows");
    // Every window's documents fall in one 4-slot bucket.
    let hour = dict.intern_attr("Hour");
    for w in &ws {
        let buckets: FxHashSet<i64> = w
            .iter()
            .filter_map(|d| d.pair_for_attr(hour))
            .filter_map(|p| match dict.avp_scalar(p.avp) {
                schema_free_stream_joins::ssj_json::Scalar::Int(v) => Some(v.div_euclid(4)),
                _ => None,
            })
            .collect();
        assert_eq!(buckets.len(), 1, "window mixes buckets: {buckets:?}");
    }
    // The pipeline stays exact window by window.
    let cfg = StreamJoinConfig::default()
        .with_m(3)
        .with_window_spec(WindowSpec::tumbling(10_000))
        .build()
        .unwrap();
    let report = pipeline(cfg, &dict, ws.clone());
    assert_eq!(report.joins_per_window.len(), ws.len());
    for (w, pairs) in ws.iter().zip(&report.joins_per_window) {
        assert_eq!(pairs, &ground_truth_pairs(w));
    }
}

/// The one result path, driven directly: `run_topology_with` hands the sink
/// each window once, in window order, already canonical, with the joiners'
/// pre-dedup counts — and does so *while the stream is still being read*:
/// the reader runs at most `READER_LEAD` panes ahead of the sink (the
/// Reporter's `reader_lead` counter), fewer than the run's 8, so a result
/// path that held results until end-of-stream would stall it. Documents in
/// memory and a JSON Lines file streamed into a fresh dictionary, tumbling
/// and sliding.
#[test]
fn results_leave_the_topology_window_by_window() {
    use schema_free_stream_joins::ssj_core::{run_topology_with, WindowResult, READER_LEAD};
    use schema_free_stream_joins::ssj_json::write_documents_jsonl;
    use std::sync::Mutex;

    const PANE: usize = 120;
    const WINDOWS: usize = 8;
    let source = Dictionary::new();
    let docs = serverlog(&source, PANE * WINDOWS);
    let path = std::env::temp_dir().join(format!("ssj-e2e-results-{}.jsonl", std::process::id()));
    let mut file = std::fs::File::create(&path).expect("create input");
    write_documents_jsonl(&mut file, &docs, &source).expect("write input");

    for spec in [WindowSpec::tumbling(PANE), WindowSpec::sliding(PANE, 4)] {
        let truth = oracle(&docs, spec).windows;
        for streamed in [false, true] {
            let (dict, reader) = if streamed {
                (Dictionary::new(), Reader::File(path.clone()))
            } else {
                let docs = docs.iter().cloned().map(Arc::new).collect();
                (source.clone(), Reader::Docs(docs))
            };
            let cfg = StreamJoinConfig::default()
                .with_m(4)
                .with_window_spec(spec)
                .with_expansion(false)
                .with_metrics(true)
                .build()
                .unwrap();
            let calls: Arc<Mutex<Vec<WindowResult>>> = Arc::default();
            let sink = {
                let calls = Arc::clone(&calls);
                move |w: WindowResult| calls.lock().unwrap().push(w)
            };
            let runtime =
                run_topology_with(cfg, &dict, reader, FaultPlan::new(), None, sink).expect("run");
            let calls = std::mem::take(&mut *calls.lock().unwrap());
            let ids: Vec<u64> = calls.iter().map(|w| w.window).collect();
            let case = format!("{spec:?}, streamed {streamed}");
            assert_eq!(ids, (0..WINDOWS as u64).collect::<Vec<_>>(), "{case}");
            let (mut emitted_pairs, mut unique_pairs) = (0, 0);
            for (w, truth) in calls.iter().zip(&truth) {
                assert!(
                    w.pairs.windows(2).all(|p| p[0] < p[1]) && w.pairs.iter().all(|(a, b)| a < b),
                    "{case} window {}: not canonical",
                    w.window
                );
                assert_eq!(&w.pairs, truth, "{case} window {}", w.window);
                assert_eq!(w.docs_per_joiner.len(), 4);
                emitted_pairs += w.pairs_per_joiner.iter().sum::<usize>() as u64;
                unique_pairs += w.pairs.len() as u64;
            }
            // Each pair is found by its owner alone.
            assert!(unique_pairs > 0 && emitted_pairs == unique_pairs);
            // The joiners' own count of what they sent, and the reporter's
            // instruments, agree with what the sink was told.
            assert_eq!(
                runtime.component_counter("joiner", "join_pairs"),
                emitted_pairs
            );
            assert_eq!(
                runtime.component_counter("reporter", "pairs_emitted"),
                emitted_pairs
            );
            assert_eq!(
                runtime.component_counter("reporter", "pairs_unique"),
                unique_pairs
            );
            let folds = runtime
                .tasks
                .iter()
                .find(|t| t.component == "reporter")
                .and_then(|t| t.histogram("fold_ns"))
                .map(|h| h.count);
            assert_eq!(folds, Some(WINDOWS as u64), "{case}: one fold per window");
            let lead = runtime.component_counter("reporter", "reader_lead");
            assert!(
                (1..=READER_LEAD as u64).contains(&lead),
                "{case}: the reader ran {lead} panes ahead of the sink"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
