//! The traced run: the workload's first requests replayed, one at a time,
//! through a pipeline the harness owns, with a span around every call into
//! a layer.
//!
//! The pipeline is built from the same public cores as the live cluster —
//! the verifying client core, four node runtimes made from the same config
//! text (router + three storage nodes on the segmented store), and the wire
//! codec at every hop — but frames are carried by a queue instead of
//! sockets, and the node tick is driven when nothing else is left to do.
//! So a span's duration is the layer's own time with no waiting in it; the
//! waiting is what the live latency has on top (`node.wait_us`).
//!
//! Costs inside a layer call that a span around the call cannot see
//! (signature checks and the store append inside the server, signing inside
//! `capsule.append`, proof checking inside the client) are measured by
//! running the same work on the same input again right after the call, and
//! attached as child spans with `"mode":"replayed"`: their durations are
//! measured, their positions inside the parent are not.

use crate::stats;
use crate::sut::{
    self, Attach, AttachProgress, Client, Event, Msg, Pdu, Peer, PipeNode, Read, Replayer, Res,
    Side, CLIENT_PEER, REPLICAS, ROUTER_PEER,
};
use crate::workload::{check_records, Ctx, Kind, Op, OpStream, Params, Plan, THREADS};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests replayed per workload (200 with `--quick`), fewer if
/// [`TRACE_BUDGET`] runs out first.
const TRACED_OPS: usize = 2000;
const TRACE_BUDGET: Duration = Duration::from_secs(8);

/// Rounds of ticking all storage nodes without an ack coming out before a
/// request that still has no answer is given up on.
const MAX_IDLE_TICKS: usize = 8;

pub type SpanId = u32;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span this one is nested in: the request's root span for a
    /// layer call, the layer call for a replayed inner cost.
    pub parent: Option<SpanId>,
    /// The span whose output this call consumed (a decode's cause is the
    /// encode of the frame; a tick's cause is the call that left work for
    /// it). Following causes back from the reply that completed a request
    /// gives the request's blocking path.
    pub cause: Option<SpanId>,
    pub request_id: u64,
    /// `client`, `router`, `s0`..`s2`.
    pub node: &'static str,
    pub msg: Option<Msg>,
    pub replayed: bool,
    /// Frame size for `wire.*` spans.
    pub bytes: Option<usize>,
    /// Proof length for `capsule.proof_verify`.
    pub hops: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> String {
        let opt = |v: Option<SpanId>| v.map_or("null".to_string(), |v| v.to_string());
        let mut s = format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cause\":{},\
             \"request_id\":{},\"node\":\"{}\",\"mode\":\"{}\"",
            self.id,
            self.name,
            self.start_ns,
            self.end_ns,
            opt(self.parent),
            opt(self.cause),
            self.request_id,
            self.node,
            if self.replayed { "replayed" } else { "measured" },
        );
        if let Some(m) = self.msg {
            s.push_str(&format!(",\"msg\":\"{m:?}\""));
        }
        if let Some(b) = self.bytes {
            s.push_str(&format!(",\"bytes\":{b}"));
        }
        if let Some(h) = self.hops {
            s.push_str(&format!(",\"hops\":{h}"));
        }
        s.push('}');
        s
    }
}

const NODE_NAMES: [&str; REPLICAS + 2] = ["router", "s0", "s1", "s2", "client"];

struct Frame {
    to: Peer,
    from: Peer,
    bytes: Vec<u8>,
    /// The `wire.encode` span that produced the frame.
    cause: SpanId,
}

/// Where the current request's client side stands.
enum Phase {
    Idle,
    /// In the attach handshake; a cold start goes on to read `then_read`.
    Attaching {
        attach: Box<Attach>,
        then_read: Option<u64>,
    },
    Session {
        then_read: Option<u64>,
    },
    Reading {
        want: u64,
        first: u64,
        last: u64,
    },
    AwaitAck {
        seq: u64,
    },
    /// Completed by this `client.response` span.
    Done(SpanId),
}

struct Pipeline<'a> {
    ctx: &'a Ctx,
    router_name: sut::Name,
    nodes: Vec<PipeNode>,
    /// One principal per live client thread; `cur` is the one acting.
    clients: Vec<Client>,
    cur: usize,
    replayer: Replayer,
    queue: VecDeque<Frame>,
    epoch: Instant,
    /// Virtual time added to the clock so a driven tick finds its
    /// group-commit window elapsed.
    skew_us: u64,
    recording: bool,
    spans: Vec<Span>,
    request_id: u64,
    root: Option<SpanId>,
    /// The capsule the current request is about.
    capsule: usize,
    /// Last call into each node for the current request (a tick's cause).
    last_on_node: [Option<SpanId>; REPLICAS + 1],
    phase: Phase,
}

impl<'a> Pipeline<'a> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn now_us(&self) -> u64 {
        self.now_ns() / 1000 + self.skew_us
    }

    /// Runs `f` inside a span (just runs it while not recording).
    fn span<T>(
        &mut self,
        name: &'static str,
        node: Peer,
        cause: Option<SpanId>,
        msg: Option<Msg>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, SpanId) {
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        if !self.recording {
            return (out, 0);
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: self.root,
            cause,
            request_id: self.request_id,
            node: NODE_NAMES[node],
            msg,
            replayed: false,
            bytes: None,
            hops: None,
        });
        (out, id)
    }

    /// Replays the inner costs of the call recorded as `parent` and
    /// attaches them as children laid end to end from the parent's start,
    /// cut off at the parent's end.
    fn attach_replays(&mut self, parent: SpanId, side: Side, pdu: &Pdu) {
        if !self.recording {
            return;
        }
        let inners = self.replayer.replay(side, self.capsule, pdu);
        let first_id = self.spans.len() as SpanId;
        let mut cursor = self.spans[parent as usize].start_ns;
        for inner in &inners {
            let outer = inner.inside.map_or(parent, |i| first_id + i as SpanId);
            let start_ns =
                if inner.inside.is_some() { self.spans[outer as usize].start_ns } else { cursor };
            let end_ns = (start_ns + inner.nanos).min(self.spans[outer as usize].end_ns);
            let id = self.spans.len() as SpanId;
            self.spans.push(Span {
                id,
                name: inner.name,
                start_ns,
                end_ns,
                parent: Some(outer),
                cause: None,
                request_id: self.request_id,
                node: self.spans[parent as usize].node,
                msg: None,
                replayed: true,
                bytes: None,
                hops: inner.hops,
            });
            if inner.inside.is_none() {
                cursor = end_ns;
            }
        }
    }

    /// Encodes `pdu` (a `wire.encode` span) and queues the frame.
    fn transmit(&mut self, from: Peer, to: Peer, pdu: &Pdu, cause: Option<SpanId>) {
        let msg = sut::msg_of(pdu);
        let (bytes, id) = self.span("wire.encode", from, cause, Some(msg), |_| sut::encode(pdu));
        if self.recording {
            self.spans[id as usize].bytes = Some(bytes.len());
        }
        self.queue.push_back(Frame { to, from, bytes, cause: id });
    }

    /// Carries frames until the queue is empty.
    fn deliver_all(&mut self) -> Res<()> {
        while let Some(frame) = self.queue.pop_front() {
            let (pdu, decoded) =
                self.span("wire.decode", frame.to, Some(frame.cause), None, |_| {
                    sut::decode(&frame.bytes)
                });
            let pdu = pdu?;
            let msg = sut::msg_of(&pdu);
            if self.recording {
                let span = &mut self.spans[decoded as usize];
                (span.msg, span.bytes) = (Some(msg), Some(frame.bytes.len()));
            }
            if frame.to == CLIENT_PEER {
                self.client_receives(pdu, msg, decoded)?;
                continue;
            }
            let is_router = frame.to == ROUTER_PEER;
            let name = if is_router { "node.router.on_pdu" } else { "node.storage.on_pdu" };
            let replay_input = (!is_router && self.recording).then(|| pdu.clone());
            let now = self.now_us();
            let (out, id) = self.span(name, frame.to, Some(decoded), Some(msg), |p| {
                p.nodes[frame.to].on_pdu(now, frame.from, pdu)
            });
            self.last_on_node[frame.to] = Some(id);
            if let Some(input) = replay_input {
                self.attach_replays(id, Side::Storage, &input);
            }
            for (peer, pdu) in out {
                self.transmit(frame.to, peer, &pdu, Some(id));
            }
        }
        Ok(())
    }

    /// Ticks every storage node once, with the group-commit window
    /// elapsed. Returns true when a tick released something.
    fn tick_storage(&mut self) -> bool {
        self.skew_us += 5_000;
        let mut released = false;
        for node in 1..=REPLICAS {
            let now = self.now_us();
            let cause = self.last_on_node[node];
            let (out, id) =
                self.span("node.storage.tick", node, cause, None, |p| p.nodes[node].tick(now));
            for (peer, pdu) in out {
                // Anti-entropy probes go out on every tick; only an ack
                // released by the flush moves the request forward.
                released |= sut::msg_of(&pdu) != Msg::Other;
                self.transmit(node, peer, &pdu, Some(id));
            }
        }
        released
    }

    /// Sends a request the acting client builds inside a `client.request`
    /// span.
    fn client_sends(
        &mut self,
        cause: Option<SpanId>,
        build: impl FnOnce(&mut Self) -> Res<Pdu>,
    ) -> Res<()> {
        let (pdu, id) = self.span("client.request", CLIENT_PEER, cause, None, build);
        let pdu = pdu?;
        if self.recording {
            self.spans[id as usize].msg = Some(sut::msg_of(&pdu));
        }
        self.attach_replays(id, Side::ClientRequest, &pdu);
        self.transmit(CLIENT_PEER, ROUTER_PEER, &pdu, Some(id));
        Ok(())
    }

    fn send_attach(&mut self, then_read: Option<u64>) -> Res<()> {
        let router_name = self.router_name;
        self.client_sends(None, |p| {
            let (attach, hello) = p.clients[p.cur].attach_begin(router_name);
            p.phase = Phase::Attaching { attach: Box::new(attach), then_read };
            Ok(hello)
        })
    }

    fn send_read(&mut self, cause: Option<SpanId>, read: Read) -> Res<()> {
        let (first, last) = read.span();
        let name = self.ctx.names[0];
        self.client_sends(cause, |p| {
            let pdu = p.clients[p.cur].read_pdu(name, read);
            p.phase = Phase::Reading { want: pdu.seq, first, last };
            Ok(pdu)
        })
    }

    fn send_append(&mut self, capsule: usize, seq: u64) -> Res<()> {
        let ctx = self.ctx;
        let body = ctx.body(capsule, seq);
        self.client_sends(None, |p| {
            let (pdu, signed) =
                p.clients[p.cur].append_pdu(ctx.names[capsule], &body, ctx.plan.ack)?;
            if signed != seq {
                return Err(format!("writer signed seq {signed}, expected {seq}"));
            }
            p.phase = Phase::AwaitAck { seq };
            Ok(pdu)
        })
    }

    fn client_receives(&mut self, pdu: Pdu, msg: Msg, cause: SpanId) -> Res<()> {
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        if let Phase::Attaching { mut attach, then_read } = phase {
            let (step, id) =
                self.span("client.response", CLIENT_PEER, Some(cause), Some(msg), |_| {
                    attach.step(&pdu)
                });
            match step? {
                AttachProgress::Send(reply) => {
                    self.phase = Phase::Attaching { attach, then_read };
                    self.transmit(CLIENT_PEER, ROUTER_PEER, &reply, Some(id));
                }
                AttachProgress::Ignored => self.phase = Phase::Attaching { attach, then_read },
                AttachProgress::Done => {
                    self.phase = Phase::Session { then_read };
                    let ctx = self.ctx;
                    let capsule = self.capsule;
                    self.client_sends(Some(id), |p| {
                        // A cold start meets the capsule only now; the
                        // long-lived clients registered it before.
                        if then_read.is_some() {
                            p.clients[p.cur].track(&ctx.capsules[capsule])?;
                        }
                        Ok(p.clients[p.cur].session_pdu(ctx.names[capsule]))
                    })?;
                }
            }
            return Ok(());
        }
        self.phase = phase;
        let replay_input = self.recording.then(|| pdu.clone());
        let now = self.now_us();
        let (events, id) = self.span("client.response", CLIENT_PEER, Some(cause), Some(msg), |p| {
            p.clients[p.cur].on_pdu(now, pdu)
        });
        if let Some(input) = replay_input {
            self.attach_replays(id, Side::ClientResponse, &input);
        }
        let request = self.request_id;
        for ev in events {
            match (&self.phase, ev) {
                (_, Event::VerificationFailed(why)) => {
                    return Err(format!("traced request {request}: verification failed: {why}"))
                }
                (_, Event::NotServed(why)) => {
                    return Err(format!("traced request {request}: {why}"))
                }
                (Phase::Session { then_read }, Event::SessionReady) => match *then_read {
                    Some(seq) => self.send_read(Some(id), Read::Proof(seq))?,
                    None => self.phase = Phase::Done(id),
                },
                (Phase::AwaitAck { seq }, Event::Acked { seq: acked }) if *seq == acked => {
                    self.phase = Phase::Done(id);
                }
                (Phase::Reading { want, first, last }, Event::Read { request_seq, records })
                    if *want == request_seq =>
                {
                    check_records(self.ctx, 0, *first, *last, &records)
                        .map_err(|why| format!("traced request {request}: {why}"))?;
                    self.phase = Phase::Done(id);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Carries frames and drives ticks until the current request is done.
    /// Returns the `client.response` span that completed it.
    fn complete(&mut self) -> Res<SpanId> {
        let mut idle = 0;
        loop {
            self.deliver_all()?;
            if let Phase::Done(id) = self.phase {
                self.phase = Phase::Idle;
                return Ok(id);
            }
            if self.tick_storage() {
                idle = 0;
            } else {
                idle += 1;
                if idle > MAX_IDLE_TICKS {
                    return Err(format!("traced request {} never completed", self.request_id));
                }
            }
        }
    }

    /// Runs one generated request as client `thread`, under a root span.
    /// Returns the span that completed it.
    fn run_op(&mut self, thread: usize, op: Op, next_seq: &mut [u64]) -> Res<SpanId> {
        self.request_id += 1;
        self.cur = thread;
        self.last_on_node = [None; REPLICAS + 1];
        self.root = None;
        let ((), root) = self.span("op", CLIENT_PEER, None, None, |_| ());
        self.root = self.recording.then_some(root);
        self.capsule = 0;
        let mut parked = None;
        match op {
            Op::Append { capsule } => {
                self.capsule = capsule;
                next_seq[capsule] += 1;
                self.send_append(capsule, next_seq[capsule])?;
            }
            Op::Proof { seq } => self.send_read(None, Read::Proof(seq))?,
            Op::Scan { from } => {
                self.send_read(None, Read::Range(from, from + self.ctx.plan.scan_len - 1))?
            }
            Op::Cold { principal, seq } => {
                let seed = crate::gen::identity(self.ctx.seed, "cold-client", principal);
                let fresh = Client::new(&seed, &format!("cold-{principal}"));
                parked = Some(std::mem::replace(&mut self.clients[thread], fresh));
                self.send_attach(Some(seq))?;
            }
        }
        let done = self.complete();
        if let Some(long_lived) = parked {
            self.clients[thread] = long_lived;
        }
        if self.recording {
            self.spans[root as usize].end_ns = self.now_ns();
        }
        done
    }
}

/// Removes the pipeline's stores when the traced run ends, however it ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the traced run of one workload produced.
pub struct Traced {
    /// Per-layer metrics from spans (source `trace`) and probes.
    pub layers: BTreeMap<&'static str, f64>,
    pub requests: usize,
    pub spans: Vec<Span>,
    pub file: PathBuf,
}

/// Replays the first requests of `kind` through the traced pipeline,
/// writes the spans to `<out_dir>/trace_<workload>.jsonl`, and derives the
/// per-layer metrics. `live_p50_us` is the untraced run's median latency.
pub fn run_traced(kind: Kind, params: Params, out_dir: &Path, live_p50_us: f64) -> Res<Traced> {
    let plan = Plan::of(kind, params.quick);
    let ctx = Ctx::new(plan, params.seed);
    let root = out_dir.join(format!("trace-data-{}", std::process::id()));
    let _guard = DirGuard(root.clone());
    let (router_name, nodes) = sut::pipeline_nodes(&root, &ctx.node_seeds, &ctx.capsules)?;
    let mut p = Pipeline {
        ctx: &ctx,
        router_name,
        nodes,
        clients: Vec::new(),
        cur: 0,
        replayer: Replayer::new(&root.join("scratch"), &ctx.capsules)?,
        queue: VecDeque::new(),
        epoch: Instant::now(),
        skew_us: 0,
        recording: false,
        spans: Vec::new(),
        request_id: 0,
        root: None,
        capsule: 0,
        last_on_node: [None; REPLICAS + 1],
        phase: Phase::Idle,
    };

    // ---- untraced set-up, as the live run does it ------------------------
    for node in 1..=REPLICAS {
        let now = p.now_us();
        for (peer, pdu) in p.nodes[node].start(now) {
            p.transmit(node, peer, &pdu, None);
        }
    }
    p.deliver_all()?;
    if !p.nodes[1..].iter().all(PipeNode::is_attached) {
        return Err("pipeline storage nodes did not attach".into());
    }
    for t in 0..THREADS {
        let (client, capsule, _) = ctx.client(t)?;
        p.clients.push(client);
        (p.cur, p.capsule) = (t, capsule);
        p.send_attach(None)?;
        p.complete()?;
    }
    let mut next_seq = vec![0u64; plan.capsules];
    for capsule in 0..plan.capsules {
        for _ in 0..plan.preload {
            p.run_op(capsule, Op::Append { capsule }, &mut next_seq)?;
        }
    }

    // ---- the traced requests, alternating between the two clients --------
    p.recording = true;
    p.request_id = 0;
    let wanted = if params.quick { TRACED_OPS / 10 } else { TRACED_OPS };
    let mut streams: Vec<OpStream> =
        (0..THREADS).map(|t| OpStream::new(plan, params.seed, t)).collect();
    let started = Instant::now();
    let mut completions = Vec::new();
    for j in 0..wanted {
        if started.elapsed() > TRACE_BUDGET {
            break;
        }
        let thread = j % THREADS;
        let op = streams[thread].next_op();
        completions.push(p.run_op(thread, op, &mut next_seq)?);
    }
    let spans = std::mem::take(&mut p.spans);
    drop(p);

    let file = out_dir.join(format!("trace_{}.jsonl", kind.name()));
    write_spans(&file, &spans).map_err(|e| format!("write {}: {e}", file.display()))?;

    let mut layers = analyse(&spans, &completions);
    probes(&mut layers, &ctx, &root)?;
    let hops = layers["node.path_hops"];
    layers.insert(
        "node.wait_us",
        live_p50_us - layers["node.critical_path_us"] - hops * layers["net.hop_us"],
    );
    Ok(Traced { layers, requests: completions.len(), spans, file })
}

fn write_spans(file: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(file)?);
    for s in spans {
        writeln!(out, "{}", s.to_json())?;
    }
    out.flush()
}

/// The per-request buckets the blocking path's time is split into. Every
/// nanosecond of every span on the path lands in exactly one of them, so
/// for one request they sum to its `node.critical_path_us`.
const PATH_BUCKETS: [&str; 16] = [
    "client.request_us",
    "client.response_us",
    "capsule.append_us",
    "capsule.proof_verify_us",
    "crypto.path_us",
    "store.path_us",
    "wire.encode_us",
    "wire.decode_us",
    "router.forward_us",
    "router.attach_us",
    "server.append_us",
    "server.replicate_us",
    "server.read_us",
    "server.session_us",
    "server.tick_us",
    "node.critical_path_us",
];

fn bucket_of(span: &Span) -> &'static str {
    match (span.name, span.msg) {
        ("client.request", _) => "client.request_us",
        ("client.response", _) => "client.response_us",
        ("capsule.append", _) => "capsule.append_us",
        ("capsule.proof_verify", _) => "capsule.proof_verify_us",
        ("crypto.verify" | "cert.chain_verify", _) => "crypto.path_us",
        ("store.append", _) => "store.path_us",
        ("wire.encode", _) => "wire.encode_us",
        ("wire.decode", _) => "wire.decode_us",
        ("node.router.on_pdu", Some(Msg::Attach)) => "router.attach_us",
        ("node.router.on_pdu", _) => "router.forward_us",
        ("node.storage.on_pdu", Some(Msg::Append)) => "server.append_us",
        ("node.storage.on_pdu", Some(Msg::Read)) => "server.read_us",
        ("node.storage.on_pdu", Some(Msg::SessionInit)) => "server.session_us",
        ("node.storage.on_pdu", _) => "server.replicate_us",
        ("node.storage.tick", _) => "server.tick_us",
        (other, _) => unreachable!("span {other} has no bucket"),
    }
}

/// Median per-request metrics over the blocking paths of all requests.
fn analyse(spans: &[Span], completions: &[SpanId]) -> BTreeMap<&'static str, f64> {
    // Replayed children by the span they are inside.
    let mut children: BTreeMap<SpanId, Vec<SpanId>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.replayed) {
        children.entry(s.parent.expect("replayed spans have a parent")).or_default().push(s.id);
    }
    let mut per_request: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| per_request.entry(name).or_default().push(v);
    let mut frame_bytes = Vec::new();
    for &done in completions {
        let mut buckets: BTreeMap<&'static str, u64> =
            PATH_BUCKETS.iter().map(|b| (*b, 0)).collect();
        let (mut hops, mut request_bytes, mut response_bytes) = (0u64, 0u64, 0u64);
        let mut proof_hops = None;
        let mut at = Some(done);
        while let Some(id) = at {
            let span = &spans[id as usize];
            let inner = children.get(&id).map_or(&[][..], Vec::as_slice);
            // A replayed cost nested in another replayed cost (signing
            // inside capsule.append) is already counted by the outer one.
            let inner_nanos: u64 = inner.iter().map(|c| spans[*c as usize].nanos()).sum();
            for c in inner {
                let child = &spans[*c as usize];
                *buckets.get_mut(bucket_of(child)).expect("known bucket") += child.nanos();
                proof_hops = proof_hops.or(child.hops);
            }
            *buckets.get_mut(bucket_of(span)).expect("known bucket") += span.nanos() - inner_nanos;
            *buckets.get_mut("node.critical_path_us").expect("known bucket") += span.nanos();
            if let Some(bytes) = span.bytes {
                match (span.name, span.node) {
                    ("wire.encode", "client") => request_bytes += bytes as u64,
                    ("wire.decode", "client") => response_bytes += bytes as u64,
                    _ => {}
                }
                if span.name == "wire.encode" {
                    hops += 1;
                    frame_bytes.push(bytes as f64);
                }
            }
            at = span.cause;
        }
        let path: u64 =
            buckets.iter().filter(|(b, _)| **b != "node.critical_path_us").map(|(_, v)| v).sum();
        assert_eq!(path, buckets["node.critical_path_us"], "path buckets must sum to the path");
        for (name, nanos) in buckets {
            push(name, nanos as f64 / 1e3);
        }
        push("node.path_hops", hops as f64);
        push("wire.request_bytes", request_bytes as f64);
        push("wire.response_bytes", response_bytes as f64);
        push("capsule.proof_hops", proof_hops.unwrap_or(0) as f64);
    }
    let mut layers: BTreeMap<&'static str, f64> =
        per_request.into_iter().map(|(name, v)| (name, stats::median(&v))).collect();
    layers.insert("net.frame_bytes", stats::median(&frame_bytes));
    layers
}

/// Timed calls into single layers on the workload's own inputs.
fn probes(layers: &mut BTreeMap<&'static str, f64>, ctx: &Ctx, root: &Path) -> Res<()> {
    let bodies: Vec<Vec<u8>> = (1..=200).map(|seq| ctx.body(0, seq)).collect();
    let crypto = sut::probe_crypto(&ctx.capsules[0], &bodies[0]);
    layers.insert("crypto.sign_us", crypto.sign_us);
    layers.insert("crypto.verify_us", crypto.verify_us);
    layers.insert("crypto.mac_us", crypto.mac_us);
    layers.insert("crypto.sha256_mb_per_s", crypto.sha256_mb_per_s);
    layers.insert("cert.chain_verify_us", crypto.chain_verify_us);
    let store = sut::probe_store(&root.join("probe-store"), &ctx.capsules[0], &bodies)?;
    layers.insert("store.append_us", store.append_us);
    layers.insert("store.read_us", store.read_us);
    layers.insert("net.hop_us", sut::probe_net_hop_us(layers["net.frame_bytes"] as usize)?);
    Ok(())
}
