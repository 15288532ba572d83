//! Socket transport for multi-process topologies (DESIGN.md §4f).
//!
//! A process group is a full mesh of Unix-domain stream sockets (the
//! framing is byte-stream only, so the links are TCP-ready). Worker `i`
//! **binds its own listener first**, then connects to every worker `k < i`
//! (retrying until the peer's listener exists — the OS backlog queues
//! early connects, so the mesh cannot deadlock), then accepts the
//! remaining `workers - 1 - i` links. Each link exchanges a [`Hello`] in
//! both directions and validates the wire version, group shape and
//! topology fingerprint before any data flows.
//!
//! Per peer link the executor runs two threads, each with a codec of its
//! own ([`WireCodec::link`]), so per-link codec state needs no lock:
//!
//! * the **writer** drains an unbounded channel of [`WireItem`]s, encodes
//!   frames into a cork buffer and flushes when the channel is momentarily
//!   empty (writev-style coalescing that never splits or merges an
//!   `Envelope::Batch`, preserving PR 2 batch boundaries). A write error
//!   marks the link dead and keeps draining — local sends never fail, so
//!   emitted counts stay deterministic.
//! * the **reader** decodes frames and forwards them into the target
//!   task's local channel (blocking sends give socket-level backpressure),
//!   notifying the scheduler hub edge-triggered, exactly like an
//!   in-process producer.
//!
//! Shutdown mirrors in-process channel-disconnect semantics with explicit
//! `Close` frames: when a producer's `Outbox` drops, it sends one `Close`
//! per remote (target, edge); the reader holds one local sender clone per
//! fed channel and drops it when the deterministic expected-close count
//! (computed from topology + placement on both sides) reaches zero.
//! Per-link FIFO guarantees no frame follows its producer's close, and it
//! is what keeps a task's input in order when two of its upstreams share a
//! link: every frame one process sends another travels one writer queue.
//!
//! Every edge is a forward edge: a frame with the wire's old feedback flag
//! set is a named transport error.
//!
//! A link EOF with closes still outstanding, or a frame cut short, means
//! the peer died. The reader then aborts the local run — every task stops
//! at its next step, so no window closes short of the dead peer's share —
//! and drops all held senders; the run ends in a transport error for its
//! driver to resume.

use std::fs;
use std::io::{self, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender, TryRecvError};

use crate::executor::Envelope;
use crate::metrics::TaskInstruments;
use crate::sched::Hub;
use crate::wire::{
    decode_frame, decode_hello, encode_frame, encode_hello, read_frame, Frame, Hello, Payload,
    WireCodec,
};

/// How long a joining worker waits for peers to appear / handshake.
const JOIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Writer cork buffer is force-flushed beyond this size even when more
/// items are queued.
const FLUSH_THRESHOLD: usize = 256 * 1024;

/// Everything a worker needs to join (or form) a process group.
#[derive(Debug, Clone)]
pub struct GroupSetup {
    /// Total processes in the group.
    pub workers: usize,
    /// This process's worker id in `0..workers`.
    pub my_worker: usize,
    /// Directory holding the group's Unix socket files.
    pub socket_dir: PathBuf,
    /// Attempt number; socket names embed it so a recovery re-run never
    /// races stale sockets from a killed previous attempt.
    pub attempt: u32,
    /// Fingerprint of the deployed topology + config; all workers must
    /// agree or the handshake fails.
    pub topo_fingerprint: u64,
}

impl GroupSetup {
    fn socket_path(&self, worker: usize) -> PathBuf {
        self.socket_dir
            .join(format!("ssj-w{worker}.a{}.sock", self.attempt))
    }
}

/// A joined process group: one connected, handshake-validated stream per
/// peer worker.
pub struct Group {
    my_worker: usize,
    workers: usize,
    pub(crate) peers: Vec<Option<UnixStream>>,
}

impl Group {
    /// This process's worker id.
    pub fn my_worker(&self) -> usize {
        self.my_worker
    }

    /// Total workers in the group.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

fn invalid<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn read_hello_frame(stream: &mut UnixStream, scratch: &mut Vec<u8>) -> io::Result<Hello> {
    if !read_frame(stream, scratch)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed during handshake",
        ));
    }
    decode_hello(scratch).map_err(invalid)
}

fn check_hello(setup: &GroupSetup, hello: &Hello, expect_worker: Option<usize>) -> io::Result<()> {
    if let Some(w) = expect_worker {
        if hello.worker != w {
            return Err(invalid(format!(
                "expected worker {w} on this link, peer claims {}",
                hello.worker
            )));
        }
    }
    if hello.workers != setup.workers {
        return Err(invalid(format!(
            "group size mismatch: ours {}, peer's {}",
            setup.workers, hello.workers
        )));
    }
    if hello.topo_fingerprint != setup.topo_fingerprint {
        return Err(invalid(format!(
            "topology fingerprint mismatch: ours {:#x}, peer's {:#x}",
            setup.topo_fingerprint, hello.topo_fingerprint
        )));
    }
    Ok(())
}

/// Join the process group described by `setup`: bind this worker's
/// listener, connect to every lower-numbered worker, accept every
/// higher-numbered one, and exchange + validate handshakes on each link.
///
/// The control-plane contract: the *connector* sends its [`Hello`] first;
/// the *acceptor* reads first (identifying which peer the link belongs
/// to), validates, then replies with its own. Either side rejecting the
/// handshake surfaces as `InvalidData` here.
pub fn join_group(setup: &GroupSetup) -> io::Result<Group> {
    assert!(setup.my_worker < setup.workers, "worker id out of range");
    let my_path = setup.socket_path(setup.my_worker);
    let _ = fs::remove_file(&my_path);
    fs::create_dir_all(&setup.socket_dir)?;
    let listener = UnixListener::bind(&my_path)?;

    let hello = Hello {
        worker: setup.my_worker,
        workers: setup.workers,
        topo_fingerprint: setup.topo_fingerprint,
    };
    let mut hello_buf = Vec::new();
    encode_hello(&hello, &mut hello_buf);

    let deadline = Instant::now() + JOIN_TIMEOUT;
    let mut scratch = Vec::new();
    let mut peers: Vec<Option<UnixStream>> = (0..setup.workers).map(|_| None).collect();

    // Connect to every lower-numbered worker; its listener is bound before
    // it starts connecting upward, so retry-until-present cannot deadlock.
    #[allow(clippy::needless_range_loop)] // `peers[w]` assignment below
    for w in 0..setup.my_worker {
        let path = setup.socket_path(w);
        let mut stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused
                    ) && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connecting to worker {w} at {}: {e}", path.display()),
                    ))
                }
            }
        };
        stream.set_read_timeout(Some(JOIN_TIMEOUT))?;
        stream.write_all(&hello_buf)?;
        let peer = read_hello_frame(&mut stream, &mut scratch)?;
        check_hello(setup, &peer, Some(w))?;
        stream.set_read_timeout(None)?;
        peers[w] = Some(stream);
    }

    // Accept every higher-numbered worker (they identify themselves in
    // their hello, so arrival order does not matter).
    listener.set_nonblocking(true)?;
    for _ in setup.my_worker + 1..setup.workers {
        let mut stream = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for peer workers to join",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(JOIN_TIMEOUT))?;
        let peer = read_hello_frame(&mut stream, &mut scratch)?;
        check_hello(setup, &peer, None)?;
        if peer.worker <= setup.my_worker || peer.worker >= setup.workers {
            return Err(invalid(format!(
                "unexpected peer worker id {}",
                peer.worker
            )));
        }
        if peers[peer.worker].is_some() {
            return Err(invalid(format!(
                "duplicate link from worker {}",
                peer.worker
            )));
        }
        stream.write_all(&hello_buf)?;
        stream.set_read_timeout(None)?;
        peers[peer.worker] = Some(stream);
    }
    drop(listener);
    let _ = fs::remove_file(&my_path);

    Ok(Group {
        my_worker: setup.my_worker,
        workers: setup.workers,
        peers,
    })
}

// ---------------------------------------------------------------------------
// Link threads (spawned by the executor, one pair per peer)
// ---------------------------------------------------------------------------

/// One unit on a writer thread's queue.
pub(crate) enum WireItem<M> {
    /// An envelope bound for remote global task `target`.
    Env { target: usize, env: Envelope<M> },
    /// A producer dropped its senders for this remote edge.
    Close { target: usize, from: usize },
}

fn encode_item<M: 'static>(item: WireItem<M>, codec: &dyn WireCodec<M>, out: &mut Vec<u8>) {
    let frame = match item {
        WireItem::Env { target, env } => {
            let (from, payload) = match env {
                Envelope::Data(m, f) => (f, Payload::Data(m)),
                Envelope::Batch(v, f) => (f, Payload::Batch(v)),
                Envelope::Punct(p, f) => (f, Payload::Punct(p)),
                Envelope::Eos(f) => (f, Payload::Eos),
            };
            Frame {
                target,
                from,
                feedback: false,
                payload,
            }
        }
        WireItem::Close { target, from } => Frame {
            target,
            from,
            feedback: false,
            payload: Payload::Close,
        },
    };
    encode_frame(&frame, codec, out);
}

/// Writer side of one peer link. Owns the queue receiver; exits when every
/// queue sender (task outboxes + the executor's own handle) is gone, then
/// half-closes the socket so the peer's reader sees a clean EOF.
pub(crate) fn writer_loop<M: 'static>(
    mut stream: UnixStream,
    rx: Receiver<WireItem<M>>,
    codec: Box<dyn WireCodec<M>>,
    insts: Arc<TaskInstruments>,
) {
    let bytes_sent = insts.counter("bytes_sent");
    let frames_sent = insts.counter("frames_sent");
    let serialize_ns = insts.counter("serialize_ns");
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut dead = false;

    let mut write_out = |buf: &mut Vec<u8>, dead: &mut bool, flush: bool| {
        if *dead || buf.is_empty() {
            buf.clear();
            return;
        }
        if stream.write_all(buf).is_err() || (flush && stream.flush().is_err()) {
            // Keep draining the queue so producers' sends keep succeeding;
            // the peer's death is surfaced by our reader on the same link.
            *dead = true;
        } else {
            bytes_sent.add(buf.len() as u64);
        }
        buf.clear();
    };

    'outer: loop {
        let mut item = match rx.recv() {
            Ok(i) => i,
            Err(_) => break,
        };
        loop {
            if !dead {
                let t0 = Instant::now();
                encode_item(item, &*codec, &mut buf);
                serialize_ns.add(t0.elapsed().as_nanos() as u64);
                frames_sent.inc();
                if buf.len() >= FLUSH_THRESHOLD {
                    write_out(&mut buf, &mut dead, false);
                }
            }
            match rx.try_recv() {
                Ok(next) => item = next,
                // Momentarily idle: cork point — flush what we have.
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
        write_out(&mut buf, &mut dead, true);
    }
    write_out(&mut buf, &mut dead, true);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// What one peer reader needs to dispatch frames locally: sender clones
/// for every local channel this peer can feed, and the deterministic number
/// of `Close` frames each will receive.
pub(crate) struct ReaderPlan<M> {
    /// Channel senders indexed by global target id.
    pub senders: Vec<Option<Sender<Envelope<M>>>>,
    /// Expected `Close` frames per target (one per remote producer task
    /// with an edge to it).
    pub closes: Vec<usize>,
}

/// Reader side of one peer link. Exits at link EOF (clean or not); on an
/// unclean one aborts the local run, and in all cases drops every held
/// sender so local channels disconnect.
pub(crate) fn reader_loop<M: Send + 'static>(
    mut stream: UnixStream,
    codec: Box<dyn WireCodec<M>>,
    mut plan: ReaderPlan<M>,
    hub: Arc<Hub>,
    errors: Arc<Mutex<Vec<String>>>,
    insts: Arc<TaskInstruments>,
    peer: usize,
) {
    let bytes_recv = insts.counter("bytes_recv");
    let frames_recv = insts.counter("frames_recv");
    let deserialize_ns = insts.counter("deserialize_ns");
    let disconnects = insts.counter("peer_disconnects");
    let notify = |target: usize| hub.notify(target);
    let mut scratch = Vec::new();
    let mut clean = true;
    loop {
        match read_frame(&mut stream, &mut scratch) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                errors
                    .lock()
                    .unwrap()
                    .push(format!("reading from worker {peer}: {e}"));
                clean = false;
                break;
            }
        }
        bytes_recv.add(4 + scratch.len() as u64);
        let t0 = Instant::now();
        let frame = match decode_frame(&scratch, &*codec) {
            Ok(f) => f,
            Err(e) => {
                errors
                    .lock()
                    .unwrap()
                    .push(format!("decoding frame from worker {peer}: {e}"));
                clean = false;
                break;
            }
        };
        deserialize_ns.add(t0.elapsed().as_nanos() as u64);
        frames_recv.inc();
        let target = frame.target;
        let rejected = if target >= plan.senders.len() {
            Some(format!(
                "worker {peer} sent frame for unknown task {target}"
            ))
        } else if frame.feedback {
            Some(format!(
                "worker {peer} sent a feedback frame for task {target}: there are no feedback edges"
            ))
        } else {
            None
        };
        if let Some(e) = rejected {
            errors.lock().unwrap().push(e);
            clean = false;
            break;
        }
        let (senders, closes) = (&mut plan.senders, &mut plan.closes);
        let env = match frame.payload {
            Payload::Data(m) => Envelope::Data(m, frame.from),
            Payload::Batch(v) => Envelope::Batch(v, frame.from),
            Payload::Punct(p) => Envelope::Punct(p, frame.from),
            Payload::Eos => Envelope::Eos(frame.from),
            Payload::Close => {
                // The remote producer dropped its senders for this edge;
                // mirror it locally once the last producer behind this
                // link has done so. FIFO per link means nothing else from
                // that producer can follow.
                if closes[target] > 0 {
                    closes[target] -= 1;
                    if closes[target] == 0 {
                        senders[target] = None;
                        notify(target);
                    }
                }
                continue;
            }
        };
        if let Some(tx) = &senders[target] {
            // Blocking send: a full local channel backpressures this link
            // at the socket layer, exactly like an in-process producer.
            let _ = tx.send(env);
            notify(target);
        }
    }

    // Unclean EOF (peer died or stream corrupt) with edges still open: a
    // window still waiting for the peer's share must not close without it,
    // so the run stops here.
    let died = plan.closes.iter().any(|&c| c > 0);
    if died {
        disconnects.inc();
        if clean {
            errors
                .lock()
                .unwrap()
                .push(format!("worker {peer} disconnected mid-run"));
        }
        hub.abort();
    }
    for target in 0..plan.senders.len() {
        if plan.senders[target].take().is_some() {
            notify(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn setup_for(dir: &std::path::Path, worker: usize, fp: u64) -> GroupSetup {
        GroupSetup {
            workers: 2,
            my_worker: worker,
            socket_dir: dir.to_path_buf(),
            attempt: 0,
            topo_fingerprint: fp,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ssj-transport-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn two_worker_mesh_handshakes() {
        let dir = scratch_dir("ok");
        let d1 = dir.clone();
        let peer = std::thread::spawn(move || join_group(&setup_for(&d1, 1, 42)).unwrap());
        let g0 = join_group(&setup_for(&dir, 0, 42)).unwrap();
        let g1 = peer.join().unwrap();
        assert_eq!(g0.my_worker(), 0);
        assert_eq!(g1.my_worker(), 1);
        assert!(g0.peers[1].is_some() && g0.peers[0].is_none());
        assert!(g1.peers[0].is_some() && g1.peers[1].is_none());

        // The link is a working byte stream in both directions.
        let mut a = g0.peers[1].as_ref().unwrap().try_clone().unwrap();
        let mut b = g1.peers[0].as_ref().unwrap().try_clone().unwrap();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let dir = scratch_dir("fp");
        let d1 = dir.clone();
        let peer = std::thread::spawn(move || join_group(&setup_for(&d1, 1, 7)));
        let r0 = join_group(&setup_for(&dir, 0, 8));
        let r1 = peer.join().unwrap();
        assert!(
            r0.is_err() || r1.is_err(),
            "mismatched topology fingerprints must fail the handshake"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    struct U64Codec;

    impl WireCodec<u64> for U64Codec {
        fn encode(&self, msg: &u64, out: &mut Vec<u8>) {
            crate::wire::put_varint(out, *msg);
        }
        fn decode(&self, cur: &mut crate::wire::Cursor) -> Result<u64, crate::wire::WireError> {
            cur.varint()
        }
        fn link(&self) -> Box<dyn WireCodec<u64>> {
            Box::new(U64Codec)
        }
    }

    /// Feed `frames` from worker 1 to a reader whose one local task, 0,
    /// expects one `Close`: what the task received, the run's transport
    /// errors, and whether the run was aborted.
    fn read_from_peer(frames: &[Frame<u64>]) -> (Vec<u64>, Vec<String>, bool) {
        let (mut peer, local) = UnixStream::pair().unwrap();
        let mut bytes = Vec::new();
        for f in frames {
            encode_frame(f, &U64Codec, &mut bytes);
        }
        peer.write_all(&bytes).unwrap();
        drop(peer);
        let (tx, rx) = crossbeam::channel::unbounded();
        let plan = ReaderPlan {
            senders: vec![Some(tx)],
            closes: vec![1],
        };
        let hub = Arc::new(Hub::new(
            vec![false],
            vec![Vec::new()],
            vec!["t[0]".into()],
            0,
        ));
        let errors = Arc::new(Mutex::new(Vec::new()));
        let mut registry = crate::metrics::MetricsRegistry::new(Default::default());
        let insts = registry.register("transport", 1);
        let codec = Box::new(U64Codec);
        reader_loop(
            local,
            codec,
            plan,
            Arc::clone(&hub),
            Arc::clone(&errors),
            insts,
            1,
        );
        let got = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|env| match env {
                Envelope::Data(m, _) => m,
                _ => u64::MAX,
            })
            .collect();
        let errors = errors.lock().unwrap().clone();
        (got, errors, hub.aborted())
    }

    fn frame(target: usize, flagged: bool, payload: Payload<u64>) -> Frame<u64> {
        Frame {
            target,
            from: 5,
            feedback: flagged,
            payload,
        }
    }

    /// A frame is delivered only to a task the reader feeds and only as a
    /// forward frame: one for an unknown task, or one with the old feedback
    /// flag set, ends the link in a named error and aborts the run.
    #[test]
    fn unknown_task_and_feedback_frames_are_named_errors() {
        let ok = [
            frame(0, false, Payload::Data(7)),
            frame(0, false, Payload::Close),
        ];
        assert_eq!(read_from_peer(&ok), (vec![7], Vec::new(), false));

        let unknown = [
            frame(0, false, Payload::Data(7)),
            frame(3, false, Payload::Data(8)),
        ];
        let (got, errors, aborted) = read_from_peer(&unknown);
        assert_eq!(got, [7]);
        assert_eq!(errors, ["worker 1 sent frame for unknown task 3"]);
        assert!(aborted);

        let flagged = [
            frame(0, true, Payload::Data(8)),
            frame(0, false, Payload::Close),
        ];
        let (got, errors, aborted) = read_from_peer(&flagged);
        assert!(got.is_empty());
        assert_eq!(
            errors,
            ["worker 1 sent a feedback frame for task 0: there are no feedback edges"]
        );
        assert!(aborted);
    }
}
