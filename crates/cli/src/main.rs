//! `ssj` — the schema-free stream-join command line.
//!
//! ```text
//! ssj generate --dataset rwdata --count 10000 --out docs.jsonl
//! ssj join     --algo fpj --input docs.jsonl [--emit]
//! ssj pipeline --dataset nbdata --m 8 --window 1500 --windows 6 --partitioner ag
//! ssj run      --dataset rwdata --count 6000 --m 4 --window 1500 [--dot]
//! ```

mod args;

use args::Args;
use parking_lot::Mutex;
use ssj_core::{
    run_topology_relaunching, run_topology_with, DistRuntime, Format, Reader, ReportSink,
    StreamJoinConfig, WindowResult,
};
use ssj_data::{NoBenchConfig, NoBenchGen, ServerLogConfig, ServerLogGen, TweetConfig, TweetGen};
use ssj_join::JoinAlgo;
use ssj_json::{write_documents_jsonl, Dictionary, DocId, Document, DocumentReader};
use ssj_partition::PartitionerKind;
use ssj_runtime::{FaultPlan, RunError, RunReport};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::usage());
            std::process::exit(2);
        }
    };
    let result = match args.command.as_deref() {
        Some("generate") => cmd_generate(&args),
        Some("join") => cmd_join(&args),
        Some("pipeline") => cmd_pipeline(&args),
        Some("partition") => cmd_partition(&args),
        Some("route") => cmd_route(&args),
        Some("stats") => cmd_stats(&args),
        Some("run") => cmd_run(&args),
        Some("help") | None => {
            print!("{}", args::usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", args::usage())),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn generate_docs(args: &Args, dict: &Dictionary) -> Result<Vec<Document>, String> {
    let count: usize = args.get_or("count", 10_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    match args.get("dataset").unwrap_or("rwdata") {
        "rwdata" | "rw" => Ok(ServerLogGen::new(
            ServerLogConfig {
                seed,
                ..Default::default()
            },
            dict.clone(),
        )
        .take_docs(count)),
        "nbdata" | "nb" => Ok(NoBenchGen::new(
            NoBenchConfig {
                seed,
                ..Default::default()
            },
            dict.clone(),
        )
        .take_docs(count)),
        "tweets" => Ok(TweetGen::new(
            TweetConfig {
                seed,
                ..Default::default()
            },
            dict.clone(),
        )
        .take_docs(count)),
        other => Err(format!(
            "unknown dataset '{other}' (rwdata|nbdata|tweets, aliases rw|nb)"
        )),
    }
}

fn load_docs(args: &Args, dict: &Dictionary) -> Result<Vec<Document>, String> {
    match args.get("input") {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            DocumentReader::new(file, dict.clone(), 0)
                .read_all()
                .map_err(|e| format!("{path}: {e}"))
        }
        None => generate_docs(args, dict),
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let dict = Dictionary::new();
    let docs = generate_docs(args, &dict)?;
    let write = |w: &mut dyn Write| -> io::Result<usize> {
        let mut buf = BufWriter::new(w);
        write_documents_jsonl(&mut buf, &docs, &dict)
    };
    let n = match args.get("out") {
        Some(path) => {
            let mut file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            write(&mut file).map_err(|e| e.to_string())?
        }
        None => write(&mut io::stdout().lock()).map_err(|e| e.to_string())?,
    };
    eprintln!("wrote {n} documents");
    Ok(())
}

fn cmd_join(args: &Args) -> Result<(), String> {
    let algo: JoinAlgo = args.get("algo").unwrap_or("fpj").parse()?;
    let dict = Dictionary::new();
    let docs = load_docs(args, &dict)?;
    let t0 = Instant::now();
    let pairs = ssj_join::join_batch(algo, &docs);
    let elapsed = t0.elapsed();
    if args.flag("stats") {
        let tree = ssj_join::FpTree::build(&docs);
        eprintln!("FP-tree: {}", ssj_join::TreeStats::of(&tree).summary());
    }
    eprintln!(
        "{}: {} documents -> {} join pairs in {:.3}s",
        algo.name(),
        docs.len(),
        pairs.len(),
        elapsed.as_secs_f64()
    );
    if args.flag("emit") {
        let by_id: ssj_json::FxHashMap<u64, &Document> =
            docs.iter().map(|d| (d.id().0, d)).collect();
        let stdout = io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        for (i, (a, b)) in pairs.iter().enumerate() {
            let joined = by_id[&a.0].merge(by_id[&b.0], DocId(i as u64));
            writeln!(out, "{}", joined.to_json(&dict)).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Build the window shape from `--window` / `--pane` / `--slide`.
///
/// `--pane N --slide P` selects a sliding window of `P` chained panes of
/// `N` documents; `--slide` alone refines `--window` into `P` equal panes.
/// Plain `--window` keeps the classic tumbling window.
fn window_spec(args: &Args) -> Result<ssj_core::WindowSpec, String> {
    let slide: usize = args.get_or("slide", 1)?;
    let spec = match (args.get("pane"), slide) {
        (Some(raw), p) => {
            let pane: usize = raw
                .parse()
                .map_err(|e| format!("invalid value for --pane: {e}"))?;
            ssj_core::WindowSpec::sliding(pane, p)
        }
        (None, 1) => ssj_core::WindowSpec::tumbling(args.get_or("window", 1_500)?),
        (None, p) => {
            let window: usize = args.get_or("window", 1_500)?;
            if !window.is_multiple_of(p) {
                return Err(format!(
                    "--slide {p} must divide --window {window} evenly (or give --pane directly)"
                ));
            }
            ssj_core::WindowSpec::sliding(window / p, p)
        }
    };
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn pipeline_config(args: &Args, metrics: bool) -> Result<StreamJoinConfig, String> {
    let window = window_spec(args)?;
    Ok(StreamJoinConfig::default()
        .with_m(args.get_or("m", 8)?)
        .with_window_spec(window)
        .with_theta(args.get_or("theta", 0.2)?)
        .with_partitioner(
            args.get("partitioner")
                .unwrap_or("ag")
                .parse::<PartitionerKind>()?,
        )
        // A sliding Assigner routes with the tables of every pane still in
        // the lookback, and those cannot mix expansions — expansion is forced
        // off there (`ConfigError::SlidingWithExpansion` would reject it
        // anyway).
        .with_expansion(!args.flag("no-expansion") && !window.is_sliding())
        .with_partition_creators(args.get_or("creators", 2)?)
        .with_assigners(args.get_or("assigners", 6)?)
        .with_batch_size(args.get_or("batch", 64)?)
        .with_metrics(metrics)
        .with_pool_workers(args.get_or("pool-workers", 0)?)
        .with_pin_cores(args.flag("pin-cores"))
        .with_workers(args.get_or("workers", 1)?)
        .build()?)
}

/// The deterministic window pipeline: the Fig. 2 topology in lock-step
/// ([`Reader::Lockstep`]) with one Assigner and batch 1, one row per window.
fn cmd_pipeline(args: &Args) -> Result<(), String> {
    // Its rows report the partitioner's replication and load, so it routes
    // by the paper's view: no routing key.
    let cfg = StreamJoinConfig {
        assigners: 1,
        batch_size: 1,
        key_routing: false,
        ..pipeline_config(args, false)?
    };
    let dict = Dictionary::new();
    let mut docs = load_docs(args, &dict)?;
    if let Some(w) = args
        .get("windows")
        .map(|v| v.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
    {
        docs.truncate(w * cfg.window_docs());
    }
    // Segment by count, or by an integer event-time attribute.
    let spec = match args.get("window-by") {
        Some(raw) => {
            let (attr, width) = raw
                .split_once(':')
                .ok_or("--window-by expects ATTR:WIDTH")?;
            ssj_core::SegmentSpec::ByAttribute {
                attr: attr.to_owned(),
                width: width
                    .parse()
                    .map_err(|e| format!("invalid width in --window-by: {e}"))?,
            }
        }
        None => ssj_core::SegmentSpec::Count(cfg.window_docs()),
    };
    let panes = ssj_core::windows(docs, spec, &dict)
        .into_iter()
        .map(|w| w.into_iter().map(Arc::new).collect())
        .collect();
    // The sink renders every window as the reporter closes it (streaming),
    // then the whole-run aggregates.
    let format = match (args.flag("csv"), args.flag("jsonl")) {
        (true, _) => Format::Csv,
        (_, true) => Format::Jsonl,
        _ => Format::Human,
    };
    let sink = Arc::new(Mutex::new(ReportSink::new(
        BufWriter::new(io::stdout()),
        format,
    )));
    let on_window = {
        let sink = Arc::clone(&sink);
        move |w: WindowResult| sink.lock().window(&w)
    };
    let reader = Reader::Lockstep(panes);
    run_topology_with(cfg, &dict, reader, FaultPlan::new(), None, on_window)
        .map_err(|e| e.to_string())?;
    let result = sink.lock().finish();
    result.map_err(|e| e.to_string())
}

fn cmd_partition(args: &Args) -> Result<(), String> {
    let m: usize = args.get_or("m", 8)?;
    if !(1..=ssj_partition::MAX_PARTITIONS).contains(&m) {
        return Err(ssj_core::ConfigError::PartitionsOutOfRange(m).to_string());
    }
    let kind: PartitionerKind = args.get("partitioner").unwrap_or("ag").parse()?;
    let dict = Dictionary::new();
    let docs = load_docs(args, &dict)?;
    let expansion = if args.flag("no-expansion") {
        None
    } else {
        ssj_partition::Expansion::detect(&docs, &dict, m)
    };
    if let Some(e) = &expansion {
        let chain: Vec<String> = e.chain.iter().map(|&a| dict.attr_name(a)).collect();
        println!(
            "expansion: {} -> '{}' (pna {:.3})",
            chain.join(" + "),
            dict.attr_name(e.synth_attr),
            e.pna
        );
    }
    let views: Vec<ssj_partition::View> =
        ssj_partition::batch_views(&docs, expansion.as_ref(), &dict)
            .into_iter()
            .flatten()
            .collect();
    let table = kind.create(&views, m);
    print!("{}", table.describe(&dict, 8));
    let stats = ssj_partition::route_batch(&table, &views);
    let quality = ssj_partition::WindowQuality::from_stats(&stats);
    println!(
        "
{} on {} documents: replication {:.3}, gini {:.3}, max load {:.3}",
        kind.name(),
        docs.len(),
        quality.replication,
        quality.load_balance,
        quality.max_processing_load
    );
    if let Some(path) = args.get("save") {
        let mut snapshot = ssj_json::Value::object();
        snapshot.insert("dictionary", dict.export());
        snapshot.insert("table", table.export());
        std::fs::write(path, snapshot.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("snapshot saved to {path}");
    }
    Ok(())
}

/// Route documents with a previously saved partition snapshot: one line per
/// document listing the machines it is sent to, by the Assigners' rule —
/// each pair's partitions, or the home of a pair the table does not know
/// (`(homed)` after the list).
fn cmd_route(args: &Args) -> Result<(), String> {
    let path = args.get("load").ok_or("route requires --load FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let snapshot = ssj_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let dict = Dictionary::import(
        snapshot
            .get("dictionary")
            .ok_or("snapshot missing 'dictionary'")?,
    )?;
    let table = ssj_partition::PartitionTable::import(
        snapshot.get("table").ok_or("snapshot missing 'table'")?,
    )
    .map_err(|e| format!("{path}: snapshot table: {e}"))?;
    let docs = load_docs(args, &dict)?;
    let m = table.m();
    let mut homed_docs = 0usize;
    let (mut view, mut targets) = (Vec::new(), Vec::new());
    let hashes = dict.content_hashes();
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for d in &docs {
        view.clear();
        view.extend(d.avps());
        let (mask, homed) =
            table.route_mask(&view, |avp| ssj_partition::home_bit(hashes.of(avp), m));
        targets.clear();
        targets.extend((0..m as u32).filter(|&p| mask & 1 << p != 0));
        homed_docs += homed as usize;
        let note = if homed { " (homed)" } else { "" };
        writeln!(out, "{} -> {targets:?}{note}", d.id()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "routed {} documents over {} machines ({} homed)",
        docs.len(),
        m,
        homed_docs
    );
    Ok(())
}

/// Attribute statistics of one batch: per attribute the document frequency,
/// the number of distinct values, and whether it is ubiquitous — the inputs
/// to the FP-tree ordering (§V-A) and the §VI-B expansion chain.
fn cmd_stats(args: &Args) -> Result<(), String> {
    let dict = Dictionary::new();
    let docs = load_docs(args, &dict)?;
    let n = docs.len();
    let mut freq: ssj_json::FxHashMap<ssj_json::AttrId, usize> = Default::default();
    for d in &docs {
        for p in d.pairs() {
            *freq.entry(p.attr).or_insert(0) += 1;
        }
    }
    let mut rows: Vec<(String, usize, usize)> = freq
        .into_iter()
        .map(|(attr, f)| (dict.attr_name(attr), f, dict.attr_distinct_values(attr)))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "{n} documents, {} attributes, {} pairs interned
",
        rows.len(),
        dict.avp_count()
    );
    println!(
        "{:<24} {:>10} {:>10} {:>10}",
        "attribute", "docs", "freq %", "distinct"
    );
    for (name, f, distinct) in rows.iter().take(30) {
        let marker = if *f == n { " *" } else { "" };
        println!(
            "{:<24} {:>10} {:>9.1}% {:>10}{marker}",
            name,
            f,
            100.0 * *f as f64 / n.max(1) as f64,
            distinct
        );
    }
    if rows.len() > 30 {
        println!("… and {} more attributes", rows.len() - 30);
    }
    println!(
        "
(* = ubiquitous: candidate for the §V-B fast path / §VI-B expansion)"
    );
    Ok(())
}

/// Run the threaded topology with the full observability layer: per-window
/// registry snapshots, latency histograms, and the window-lifecycle trace.
/// `--metrics-out FILE` dumps everything as JSON lines; stdout gets the
/// per-component summary table.
fn cmd_run(args: &Args) -> Result<(), String> {
    let metrics_on = !args.flag("no-metrics");
    let cfg = pipeline_config(args, metrics_on)?;
    if args.flag("dot") {
        // Print the topology graph without running it.
        println!("{}", ssj_core::topology_dot(cfg));
        return Ok(());
    }
    let dict = Dictionary::new();

    // Worker-process path: this process was spawned by a group leader with
    // the internal flags and without the input's. Run the local shard and
    // exit quietly — the leader owns the reader and all reporting, and our
    // dictionary fills with the symbols our links bring.
    if let Some(wid) = args.get("worker-id") {
        let wid: usize = wid
            .parse()
            .map_err(|e| format!("invalid --worker-id: {e}"))?;
        let dir = args
            .get("socket-dir")
            .ok_or("--worker-id requires --socket-dir")?;
        let dr = DistRuntime {
            workers: cfg.workers,
            my_worker: wid,
            socket_dir: std::path::PathBuf::from(dir),
            attempt: args.get_or("attempt", 0u32)?,
        };
        let (reader, plan) = (Reader::Docs(Vec::new()), FaultPlan::new());
        run_topology_with(cfg, &dict, reader, plan, Some(&dr), |_| {})
            .map_err(|e| e.to_string())?;
        return Ok(());
    }

    // Created before any work, so an unwritable path fails here.
    let joins_out = Arc::new(Mutex::new(JoinsOut::start(args.get("joins-out"))?));
    // The leader alone reads: a file streams (solo or as a group), generated
    // input is in memory.
    let group = WorkerGroup::launch(cfg.workers)?;
    let t0 = Instant::now();
    let reader = match args.get("input") {
        Some(path) => Reader::File(path.into()),
        None => Reader::Docs(load_docs(args, &dict)?.into_iter().map(Arc::new).collect()),
    };
    let runtime = group.run(cfg, &dict, reader, &joins_out)?;
    let elapsed = t0.elapsed();
    if let Some((delivered, start)) = runtime.resumed {
        eprintln!("resumed at pane {start}: the first undelivered window was {delivered}");
    }
    if let Some(path) = args.get("metrics-out") {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut out = BufWriter::new(file);
        runtime
            .write_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {} window snapshots, {} task records, {} trace events to {path}",
            runtime.windows.len(),
            runtime.tasks.len(),
            runtime.trace.len()
        );
    }
    print!("{}", runtime.summary_table());
    let mut out = joins_out.lock();
    println!(
        "{} documents, {} windows, {} join pairs in {:.3}s ({:.0} docs/s)",
        out.routing.docs,
        out.windows,
        out.pairs,
        elapsed.as_secs_f64(),
        out.routing.docs as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!("{}", out.routing);
    out.failed.take().map_or(Ok(()), Err)
}

/// The sink of `ssj run`: counts the windows the reporter hands over, their
/// documents, pairs and routing, and keeps nothing else of them. With `--joins-out`
/// it first appends the window to that file as one `w: a-b a-b ...` line,
/// in its canonical form (two files are byte-comparable).
struct JoinsOut {
    /// `--joins-out`: the path and the open file.
    file: Option<(String, File)>,
    windows: usize,
    pairs: usize,
    routing: RoutingTotals,
    /// The first write error: no line is written after it (none after a gap).
    failed: Option<String>,
}

/// What the control plane did over a run, summed from the windows'
/// routing: one line of `ssj run`'s output. The same stream and flags give
/// the same line, solo or as a group.
#[derive(Default)]
struct RoutingTotals {
    /// Panes whose boundary rebuilt the partitions after a θ signal.
    rebuilds: usize,
    /// Documents with a pair the table did not know, with no view, or
    /// without the table's routing key.
    homed: usize,
    /// Documents routed.
    docs: usize,
    /// Copies sent to the joiners.
    copies: usize,
}

impl RoutingTotals {
    fn add(&mut self, r: &ssj_core::PaneRouting) {
        self.rebuilds += r.rebuilt as usize;
        self.homed += r.homed;
        self.docs += r.docs;
        self.copies += r.copies;
    }
}

impl std::fmt::Display for RoutingTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Every table deployed after the bootstrap is a rebuild.
        write!(
            f,
            "routing: {} tables deployed after the bootstrap, {:.4} copies per document, homed share {:.4}",
            self.rebuilds,
            self.copies as f64 / self.docs.max(1) as f64,
            self.homed as f64 / self.docs.max(1) as f64
        )
    }
}

impl JoinsOut {
    /// Counts at zero, the file created empty. A line, once written, is
    /// never rewritten: a resumed run hands the sink only windows it has not
    /// had.
    fn start(path: Option<&str>) -> Result<JoinsOut, String> {
        let file = match path {
            Some(p) => Some(File::create(p).map_err(|e| format!("create {p}: {e}"))?),
            None => None,
        };
        Ok(JoinsOut {
            file: path.map(str::to_owned).zip(file),
            windows: 0,
            pairs: 0,
            routing: RoutingTotals::default(),
            failed: None,
        })
    }

    fn window(&mut self, w: WindowResult) {
        self.windows += 1;
        self.pairs += w.pairs.len();
        self.routing.add(&w.routing);
        let (Some((path, file)), None) = (&mut self.file, &self.failed) else {
            return;
        };
        // Built by hand: a pair per `write!` costs more than sorting them.
        let mut line = Vec::with_capacity(8 + 16 * w.pairs.len());
        push_decimal(&mut line, w.window);
        line.push(b':');
        for (a, b) in w.pairs {
            line.push(b' ');
            push_decimal(&mut line, a);
            line.push(b'-');
            push_decimal(&mut line, b);
        }
        line.push(b'\n');
        if let Err(e) = file.write_all(&line) {
            self.failed = Some(format!("write {path}: {e}"));
        }
    }
}

/// Append `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The other processes of a multi-process `--workers N` run, as the leader
/// (worker 0) holds them: workers `1..N`, child processes of this same
/// binary with the internal flags appended, meeting over Unix sockets in
/// `dir`. Dropping the group kills whatever is still running and removes
/// the directory.
struct WorkerGroup {
    exe: std::path::PathBuf,
    /// This process's own arguments, which every worker repeats but for
    /// the input's ([`member_args`]).
    base: Vec<String>,
    dir: std::path::PathBuf,
    workers: usize,
    children: Vec<std::process::Child>,
}

impl WorkerGroup {
    /// Start the workers of attempt 0.
    fn launch(workers: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("resolve own executable: {e}"))?;
        let dir = std::env::temp_dir().join(format!("ssj-group-{}", std::process::id()));
        if workers > 1 {
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let mut group = WorkerGroup {
            exe,
            base: member_args(std::env::args().skip(1)),
            dir,
            workers,
            children: Vec::new(),
        };
        group.spawn(0)?;
        Ok(group)
    }

    fn spawn(&mut self, attempt: u32) -> Result<(), String> {
        for w in 1..self.workers {
            let child = std::process::Command::new(&self.exe)
                .args(&self.base)
                .arg("--worker-id")
                .arg(w.to_string())
                .arg("--socket-dir")
                .arg(&self.dir)
                .arg("--attempt")
                .arg(attempt.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn worker {w}: {e}"))?;
            self.children.push(child);
        }
        Ok(())
    }

    fn kill(&mut self) {
        for mut child in self.children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Run the local shard over the mesh (the whole topology when solo).
    /// A failed attempt resumes at its first undelivered window; a group
    /// is relaunched for it, under the next attempt's socket names.
    fn run(
        mut self,
        cfg: StreamJoinConfig,
        dict: &Dictionary,
        reader: Reader,
        joins_out: &Arc<Mutex<JoinsOut>>,
    ) -> Result<RunReport, String> {
        let leader = DistRuntime {
            workers: cfg.workers,
            my_worker: 0,
            socket_dir: self.dir.clone(),
            attempt: 0,
        };
        let sink = {
            let joins_out = Arc::clone(joins_out);
            move |w| joins_out.lock().window(w)
        };
        let mut relaunch = |attempt: u32, failure: &RunError| {
            eprintln!("attempt {} failed: {failure}; relaunching", attempt - 1);
            self.kill();
            self.spawn(attempt)
        };
        let report = run_topology_relaunching(cfg, dict, reader, &leader, &mut relaunch, sink)
            .map_err(|e| e.to_string())?;
        for (w, mut child) in (1..).zip(self.children.drain(..)) {
            match child.wait() {
                Ok(status) if !status.success() => {
                    eprintln!("warning: worker {w} exited with {status}")
                }
                Ok(_) => {}
                Err(e) => eprintln!("warning: wait for worker {w}: {e}"),
            }
        }
        Ok(report)
    }
}

/// A member's arguments: the leader's without `--input`, `--dataset`,
/// `--count` and `--seed`, so a member cannot read or generate the input.
fn member_args(mut args: impl Iterator<Item = String>) -> Vec<String> {
    let mut kept = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" | "--dataset" | "--count" | "--seed" => drop(args.next()),
            _ => kept.push(arg),
        }
    }
    kept
}

impl Drop for WorkerGroup {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn window_flags_build_the_right_spec() {
        let tumbling = window_spec(&args(&["run", "--window", "600"])).unwrap();
        assert_eq!(tumbling, ssj_core::WindowSpec::tumbling(600));

        let paned = window_spec(&args(&["run", "--pane", "250", "--slide", "4"])).unwrap();
        assert_eq!(paned, ssj_core::WindowSpec::sliding(250, 4));

        // --slide splits --window into equal panes…
        let split = window_spec(&args(&["run", "--window", "1000", "--slide", "4"])).unwrap();
        assert_eq!(split, ssj_core::WindowSpec::sliding(250, 4));
        // …and rejects a non-divisible split.
        assert!(window_spec(&args(&["run", "--window", "1000", "--slide", "3"])).is_err());
        assert!(window_spec(&args(&["run", "--pane", "0"])).is_err());
    }

    /// A member is spawned without the input's flags, whatever their place.
    #[test]
    fn members_are_spawned_without_the_input() {
        let leader = "run --input f.jsonl --m 4 --dataset nb --count 9 --seed 3 --workers 2";
        let member = member_args(leader.split(' ').map(str::to_owned));
        assert_eq!(member, ["run", "--m", "4", "--workers", "2"]);
    }

    #[test]
    fn sliding_config_disables_expansion() {
        let cfg = pipeline_config(&args(&["run", "--pane", "100", "--slide", "4"]), false).unwrap();
        assert!(cfg.is_sliding());
        assert_eq!(cfg.pane_docs(), 100);
        assert_eq!(cfg.panes_per_window(), 4);
        assert!(!cfg.expansion);
    }
}
