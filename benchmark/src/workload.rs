//! The workloads and the live driver.
//!
//! Every workload is a closed loop: two client threads, one `TcpNet`
//! connection each, every thread waiting for its replies. What each
//! workload is for is recorded next to it in [`Kind::why`], and repeated in
//! `/BENCHMARK.json` and `README.md`.

use crate::gen::{self, Rng};
use crate::stats;
use crate::sut::{
    Ack, Client, Cluster, Conn, ConnStats, Event, Name, NodeSeeds, Read, Res, Snapshot, REPLICAS,
};
use crate::sut::{CapsuleSpec, Pdu};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// Client threads, each with one connection (`nproc` of the reference box).
pub const THREADS: usize = 2;

/// A request unanswered for this long has failed.
const OP_DEADLINE: Duration = Duration::from_secs(10);

/// Appends in flight while preloading a capsule during set-up.
const PRELOAD_WINDOW: usize = 256;

/// Records per range request when reading a whole capsule back.
const READBACK_CHUNK: u64 = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    AppendDurable,
    AppendPipelined,
    ReadProof,
    ReadScan,
    ColdStart,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::AppendDurable,
        Kind::AppendPipelined,
        Kind::ReadProof,
        Kind::ReadScan,
        Kind::ColdStart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AppendDurable => "append_durable",
            Kind::AppendPipelined => "append_pipelined",
            Kind::ReadProof => "read_proof",
            Kind::ReadScan => "read_scan",
            Kind::ColdStart => "cold_start",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Why the workload exists: which layers it puts on the blocking path.
    pub fn why(self) -> &'static str {
        match self {
            Kind::AppendDurable => {
                "2 writers, 256 B signed appends, Quorum(1), one in flight: the IoT write; \
                 latency is group-commit wait + node tick + replication, crypto is <1% of it"
            }
            Kind::AppendPipelined => {
                "same path driven for rate: 1 KiB appends, Local ack, 64 in flight per writer; \
                 a durable-latency fix that costs throughput (or the reverse) shows here"
            }
            Kind::ReadProof => {
                "uniform ProofOf(seq) over 8192 x 4 KiB records (8x the block cache), MAC \
                 session: capsule proof build + client proof check + wire, almost no store"
            }
            Kind::ReadScan => {
                "uniform Range of 32 x 4 KiB records (128 KiB/op) over the same capsule: bulk \
                 bytes through the server read path, wire/net and 32 client signature checks"
            }
            Kind::ColdStart => {
                "each op is a fresh principal: attach, track, session, first ProofOf read; \
                 ~6 cold Ed25519 operations and a cert-chain walk per op with the store idle"
            }
        }
    }

    pub fn is_append(self) -> bool {
        matches!(self, Kind::AppendDurable | Kind::AppendPipelined)
    }
}

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Measured time, split evenly over the workload's rounds.
    pub seconds: f64,
    /// Smaller preloads for the smoke test.
    pub quick: bool,
}

/// Unmeasured lead-in before a measured window of `window` seconds: a
/// fifth of it.
pub fn warmup_for(window: f64) -> f64 {
    (window / 5.0).max(0.5)
}

/// The fixed shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub kind: Kind,
    /// Capsules hosted by the cluster (one per writer thread for appends).
    pub capsules: usize,
    pub body_len: usize,
    /// Records every writer appends to its capsule during set-up. The
    /// read workloads need the data; the append workloads get a short
    /// history so that they extend a capsule that has one, and so that no
    /// set-up is just a handful of directory fsyncs, which on this box
    /// take anything from 17 to 29 ms.
    pub preload: u64,
    /// Requests in flight per thread.
    pub window: usize,
    pub ack: Ack,
    /// Records per scan.
    pub scan_len: u64,
    /// Rounds per run: each round is a fresh cluster, its set-up, a
    /// warm-up and a measured window of `seconds / rounds`; every metric
    /// is the median over the rounds. How fast one cluster instance runs
    /// varies from instance to instance on a small shared box, so three
    /// instances say more than one instance run three times as long. A
    /// set-up that is seconds of preload is too dear to repeat and is
    /// itself an average over thousands of operations: those run one round.
    pub rounds: usize,
}

impl Plan {
    pub fn of(kind: Kind, quick: bool) -> Plan {
        let base = Plan {
            kind,
            capsules: 1,
            body_len: 4096,
            preload: 64,
            window: 1,
            ack: Ack::Local,
            scan_len: 32,
            rounds: 3,
        };
        match kind {
            Kind::AppendDurable => Plan { capsules: 2, body_len: 256, ack: Ack::Quorum1, ..base },
            Kind::AppendPipelined => Plan { capsules: 2, body_len: 1024, window: 64, ..base },
            Kind::ReadProof | Kind::ReadScan => {
                Plan { preload: if quick { 256 } else { 8192 }, rounds: 1, ..base }
            }
            Kind::ColdStart => {
                Plan { body_len: 256, preload: if quick { 64 } else { 1024 }, ..base }
            }
        }
    }
}

/// One generated request.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Append the next record of `capsule`.
    Append {
        capsule: usize,
    },
    Proof {
        seq: u64,
    },
    Scan {
        from: u64,
    },
    /// Fresh principal number `principal`, then a proof read of `seq`.
    Cold {
        principal: u64,
        seq: u64,
    },
}

/// The seeded request stream of one client thread.
pub struct OpStream {
    plan: Plan,
    thread: usize,
    rng: Rng,
    issued: u64,
}

impl OpStream {
    pub fn new(plan: Plan, seed: u64, thread: usize) -> OpStream {
        OpStream { plan, thread, rng: Rng::stream(seed, "ops", thread as u64), issued: 0 }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let p = &self.plan;
        match p.kind {
            Kind::AppendDurable | Kind::AppendPipelined => Op::Append { capsule: self.thread },
            Kind::ReadProof => Op::Proof { seq: self.rng.between(1, p.preload) },
            Kind::ReadScan => Op::Scan { from: self.rng.between(1, p.preload - p.scan_len + 1) },
            Kind::ColdStart => Op::Cold {
                principal: self.issued * THREADS as u64 + self.thread as u64,
                seq: self.rng.between(1, p.preload),
            },
        }
    }
}

/// The generated world of one run, shared read-only by the client
/// threads: node identities, capsules, and the workload's shape.
#[derive(Clone)]
pub struct Ctx {
    pub plan: Plan,
    pub seed: u64,
    pub node_seeds: NodeSeeds,
    pub capsules: Vec<CapsuleSpec>,
    pub names: Vec<Name>,
}

impl Ctx {
    pub fn new(plan: Plan, seed: u64) -> Ctx {
        let mut storage = [[0u8; 32]; REPLICAS];
        for (i, s) in storage.iter_mut().enumerate() {
            *s = gen::identity(seed, "storage", i as u64);
        }
        let capsules: Vec<CapsuleSpec> = (0..plan.capsules as u64)
            .map(|i| {
                CapsuleSpec::new(
                    &gen::identity(seed, "owner", i),
                    &gen::identity(seed, "writer", i),
                    &format!("benchmark capsule {i}"),
                )
            })
            .collect();
        Ctx {
            plan,
            seed,
            node_seeds: NodeSeeds { router: gen::identity(seed, "router", 0), storage },
            names: capsules.iter().map(|c| c.name()).collect(),
            capsules,
        }
    }

    pub fn body(&self, capsule: usize, seq: u64) -> Vec<u8> {
        gen::body(self.seed, capsule as u64, seq, self.plan.body_len)
    }

    /// The long-lived principal of client thread `t`, with its capsule
    /// registered: thread `t` writes capsule `t`; a capsule shared by both
    /// threads is written (preloaded) by thread 0 and only read by thread 1.
    /// Returns the client, its capsule, and whether it is the writer.
    pub fn client(&self, t: usize) -> Res<(Client, usize, bool)> {
        let mut client = Client::new(
            &gen::identity(self.seed, "client", t as u64),
            &format!("bench-client-{t}"),
        );
        let capsule = t.min(self.plan.capsules - 1);
        let writes = capsule == t;
        if writes {
            client.register_writer(&self.capsules[capsule])?;
        } else {
            client.track(&self.capsules[capsule])?;
        }
        Ok((client, capsule, writes))
    }
}

/// One client thread's connection, principal and bookkeeping.
pub struct Worker {
    pub conn: Conn,
    pub client: Client,
    /// The capsule this worker talks to, and whether it is its writer.
    pub capsule: usize,
    pub writes: bool,
    /// Highest seq of that capsule appended and acked by this worker.
    pub last_acked: u64,
    /// Requests that got no reply before their deadline.
    pub timeouts: u64,
}

impl Worker {
    /// Receives at most one PDU and runs it (and the timeout sweep)
    /// through the verifying core.
    fn pump(&mut self, wait: Duration) -> Res<Vec<Event>> {
        let mut events = self.client.sweep(self.conn.now_us());
        if let Some(pdu) = self.conn.recv(wait)? {
            events.extend(self.client.on_pdu(self.conn.now_us(), pdu));
        }
        Ok(events)
    }

    /// Sends `pdu` and waits for the event `pick` accepts. `Err` is a
    /// transport failure; `Ok(Err)` is this one request failing.
    fn call<T>(
        &mut self,
        pdu: Pdu,
        mut pick: impl FnMut(Event) -> Option<Result<T, String>>,
    ) -> Res<Result<T, String>> {
        self.conn.send(pdu)?;
        let deadline = Instant::now() + OP_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.timeouts += 1;
                return Ok(Err("no reply before the deadline".into()));
            }
            for ev in self.pump(left.min(Duration::from_millis(50)))? {
                match ev {
                    Event::VerificationFailed(why) => {
                        return Ok(Err(format!("verification failed: {why}")))
                    }
                    Event::NotServed(why) => return Ok(Err(why)),
                    other => {
                        if let Some(r) = pick(other) {
                            return Ok(r);
                        }
                    }
                }
            }
        }
    }

    /// One verified read whose content is checked against
    /// the generator. Returns the user bytes read.
    pub fn checked_read(
        &mut self,
        ctx: &Ctx,
        capsule: usize,
        read: Read,
    ) -> Res<Result<u64, String>> {
        let (first, last) = read.span();
        let pdu = self.client.read_pdu(ctx.names[capsule], read);
        let want = pdu.seq;
        self.call(pdu, |ev| match ev {
            Event::Read { request_seq, records } if request_seq == want => {
                Some(check_records(ctx, capsule, first, last, &records))
            }
            _ => None,
        })
    }

    /// Reads seqs `1..=last` of `capsule` back in verified ranges and
    /// checks every body against the generator.
    pub fn read_back(&mut self, ctx: &Ctx, capsule: usize, last: u64) -> Res<()> {
        let mut from = 1;
        while from <= last {
            let to = (from + READBACK_CHUNK - 1).min(last);
            self.checked_read(ctx, capsule, Read::Range(from, to))?
                .map_err(|why| format!("read-back of {from}..={to}: {why}"))?;
            from = to + 1;
        }
        Ok(())
    }
}

/// The user bytes in `records` when they are exactly seqs `first..=last`
/// of `capsule` as the generator made them.
pub fn check_records(
    ctx: &Ctx,
    capsule: usize,
    first: u64,
    last: u64,
    records: &[crate::sut::Rec],
) -> Result<u64, String> {
    if records.len() as u64 != last - first + 1 {
        return Err(format!("asked for seqs {first}..={last}, got {} records", records.len()));
    }
    let mut bytes = 0;
    for (rec, seq) in records.iter().zip(first..) {
        if rec.seq != seq || rec.body() != ctx.body(capsule, seq) {
            return Err(format!("record {seq} does not match the generator"));
        }
        bytes += rec.body().len() as u64;
    }
    Ok(bytes)
}

/// One completed (or failed) operation.
pub struct Sample {
    /// Seconds since the run's time zero at which the op started / ended.
    pub start: f64,
    pub end: f64,
    pub user_bytes: u64,
    pub ok: bool,
}

impl Sample {
    fn new(start: f64, end: f64, outcome: Result<u64, String>, kind: Kind) -> Sample {
        if let Err(why) = &outcome {
            eprintln!("  failed op on {}: {why}", kind.name());
        }
        Sample { start, end, ok: outcome.is_ok(), user_bytes: outcome.unwrap_or(0) }
    }
}

/// How long a closed loop keeps issuing.
#[derive(Clone, Copy)]
enum Limit {
    /// Until this many seconds past the instant.
    Until(Instant, f64),
    /// Until the worker's capsule holds this many records.
    Records(u64),
}

/// What one thread's loop saw.
struct Driven {
    samples: Vec<Sample>,
    /// Transport counters when the measured window opened.
    conn_at_open: ConnStats,
}

/// Drives one thread's closed loop from time zero until `until` seconds
/// past it, then drains what is in flight; the window opens at `open`.
fn drive(
    worker: &mut Worker,
    ctx: &Ctx,
    ops: &mut OpStream,
    zero: Instant,
    open: f64,
    until: f64,
) -> Res<Driven> {
    if ctx.plan.window > 1 {
        return pipelined(worker, ctx, ctx.plan.window, Limit::Until(zero, until), open);
    }
    let now = || zero.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut conn_at_open = None;
    while now() < until {
        let start = now();
        if conn_at_open.is_none() && start >= open {
            conn_at_open = Some(worker.conn.stats());
        }
        let outcome = match ops.next_op() {
            Op::Append { capsule } => append_one(worker, ctx, capsule)?,
            Op::Proof { seq } => worker.checked_read(ctx, 0, Read::Proof(seq))?,
            Op::Scan { from } => {
                worker.checked_read(ctx, 0, Read::Range(from, from + ctx.plan.scan_len - 1))?
            }
            Op::Cold { principal, seq } => cold_start(worker, ctx, principal, seq)?,
        };
        samples.push(Sample::new(start, now(), outcome, ctx.plan.kind));
    }
    Ok(Driven { samples, conn_at_open: conn_at_open.unwrap_or_default() })
}

fn append_one(worker: &mut Worker, ctx: &Ctx, capsule: usize) -> Res<Result<u64, String>> {
    let body = ctx.body(capsule, worker.last_acked + 1);
    let (pdu, seq) = worker.client.append_pdu(ctx.names[capsule], &body, ctx.plan.ack)?;
    let r = worker.call(pdu, |ev| match ev {
        Event::Acked { seq: s } if s == seq => Some(Ok(body.len() as u64)),
        _ => None,
    })?;
    if r.is_ok() {
        worker.last_acked = seq;
    }
    Ok(r)
}

/// Time to first verified read for a principal the cluster has never
/// seen, on the thread's long-lived connection.
fn cold_start(
    worker: &mut Worker,
    ctx: &Ctx,
    principal: u64,
    seq: u64,
) -> Res<Result<u64, String>> {
    let seed = gen::identity(ctx.seed, "cold-client", principal);
    let mut fresh = Client::new(&seed, &format!("cold-{principal}"));
    std::mem::swap(&mut worker.client, &mut fresh);
    let outcome = (|| {
        if let Err(why) = worker.client.attach(&worker.conn, OP_DEADLINE) {
            return Ok(Err(why));
        }
        worker.client.track(&ctx.capsules[0])?;
        if let Err(why) = worker.client.open_session(&worker.conn, ctx.names[0], OP_DEADLINE) {
            return Ok(Err(why));
        }
        worker.checked_read(ctx, 0, Read::Proof(seq))
    })();
    std::mem::swap(&mut worker.client, &mut fresh);
    outcome
}

/// Appends to the worker's capsule with `window` requests in flight. The
/// connection's counters are captured at the first issue `open` seconds
/// or more after time zero (the measured window opening).
fn pipelined(
    worker: &mut Worker,
    ctx: &Ctx,
    window: usize,
    limit: Limit,
    open: f64,
) -> Res<Driven> {
    let zero = match limit {
        Limit::Until(zero, _) => zero,
        Limit::Records(_) => Instant::now(),
    };
    let now = || zero.elapsed().as_secs_f64();
    let capsule = worker.capsule;
    let mut next_seq = worker.last_acked + 1;
    // In issue order: (record seq, start, issue instant).
    let mut in_flight: VecDeque<(u64, f64, Instant)> = VecDeque::new();
    let mut samples = Vec::new();
    let mut conn_at_open = None;
    loop {
        loop {
            let more = match limit {
                Limit::Until(_, until) => now() < until,
                Limit::Records(n) => next_seq <= n,
            };
            if in_flight.len() >= window || !more {
                break;
            }
            let start = now();
            if conn_at_open.is_none() && start >= open {
                conn_at_open = Some(worker.conn.stats());
            }
            let body = ctx.body(capsule, next_seq);
            let (pdu, seq) = worker.client.append_pdu(ctx.names[capsule], &body, ctx.plan.ack)?;
            if seq != next_seq {
                return Err(format!("writer signed seq {seq}, expected {next_seq}"));
            }
            worker.conn.send(pdu)?;
            in_flight.push_back((seq, start, Instant::now()));
            next_seq += 1;
        }
        let Some(&(_, _, oldest)) = in_flight.front() else { break };
        if oldest.elapsed() > OP_DEADLINE {
            // Nothing issued later can be trusted to arrive either.
            for (_, start, _) in in_flight.drain(..) {
                worker.timeouts += 1;
                let timed_out = Err("no ack before the deadline".to_string());
                samples.push(Sample::new(start, now(), timed_out, ctx.plan.kind));
            }
            break;
        }
        for ev in worker.pump(Duration::from_millis(50))? {
            match ev {
                Event::Acked { seq } => {
                    if let Some(i) = in_flight.iter().position(|(s, ..)| *s == seq) {
                        let (_, start, _) = in_flight.remove(i).expect("position is in range");
                        worker.last_acked = worker.last_acked.max(seq);
                        let acked = Ok(ctx.plan.body_len as u64);
                        samples.push(Sample::new(start, now(), acked, ctx.plan.kind));
                    }
                }
                Event::VerificationFailed(why) | Event::NotServed(why) => {
                    // The reply does not name its request: charge the oldest.
                    if let Some((_, start, _)) = in_flight.pop_front() {
                        samples.push(Sample::new(start, now(), Err(why), ctx.plan.kind));
                    }
                }
                _ => {}
            }
        }
    }
    Ok(Driven { samples, conn_at_open: conn_at_open.unwrap_or_default() })
}

/// A cluster set up for one workload: nodes running, clients attached
/// with sessions, capsule preloaded.
pub struct Stage {
    // Field order is drop order: connections close before the nodes stop.
    pub workers: Vec<Worker>,
    pub cluster: Cluster,
    pub ctx: Ctx,
    /// User bytes acked so far (preload, warm-up, measured, drained).
    pub acked_user_bytes: u64,
}

impl Stage {
    pub fn set_up(ctx: &Ctx, data_root: &Path) -> Res<Stage> {
        let cluster = Cluster::start(data_root, &ctx.node_seeds, &ctx.capsules)?;
        cluster.wait_adverts(REPLICAS as u64, OP_DEADLINE)?;
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let conn = Conn::open(cluster.router_addr(), cluster.router_name())?;
            let (mut client, capsule, writes) = ctx.client(t)?;
            client.attach(&conn, OP_DEADLINE)?;
            client.open_session(&conn, ctx.names[capsule], OP_DEADLINE)?;
            workers.push(Worker { conn, client, capsule, writes, last_acked: 0, timeouts: 0 });
        }
        let mut stage = Stage { workers, cluster, ctx: ctx.clone(), acked_user_bytes: 0 };
        let preload = ctx.plan.preload;
        for worker in stage.workers.iter_mut().filter(|w| w.writes) {
            let loaded = pipelined(
                worker,
                &stage.ctx,
                PRELOAD_WINDOW,
                Limit::Records(preload),
                f64::INFINITY,
            )?;
            if loaded.samples.iter().any(|s| !s.ok) || worker.last_acked != preload {
                return Err("preload did not complete".into());
            }
            stage.acked_user_bytes += loaded.samples.iter().map(|s| s.user_bytes).sum::<u64>();
        }
        Ok(stage)
    }
}

/// The result of one live run of one workload.
pub struct LiveRun {
    /// End-to-end metrics by name (medians over the run's rounds).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics read from the running system (source `live`).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations that ended inside a measured window.
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed (no failed op, read-back, convergence, restart).
    pub correct: bool,
    /// What went wrong, when something did.
    pub problems: Vec<String>,
    /// Latency samples behind the percentiles, over all rounds.
    pub latency_samples: usize,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Runs `kind` once: [`Plan::rounds`] rounds, each a fresh in-process
/// cluster, its set-up, a warm-up and a measured window; every metric is
/// the median over the rounds. `restart_check` adds the
/// stop/restart/read-everything-back durability check to the last round of
/// an append workload (and reports `store.restart_ms`).
pub fn run_live(kind: Kind, params: Params, out_dir: &Path, restart_check: bool) -> Res<LiveRun> {
    let plan = Plan::of(kind, params.quick);
    let ctx = Ctx::new(plan, params.seed);
    let mut rounds = Vec::new();
    for r in 0..plan.rounds {
        let data_root = out_dir.join(format!("data-{}-{r}", std::process::id()));
        let t = Instant::now();
        let mut stage = Stage::set_up(&ctx, &data_root)?;
        let setup_s = t.elapsed().as_secs_f64();
        let restart = restart_check && r + 1 == plan.rounds;
        rounds.push(measure(&mut stage, params.seconds / plan.rounds as f64, setup_s, restart)?);
    }
    let median_of = |pick: fn(&Round) -> &BTreeMap<&'static str, f64>| {
        let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for round in &rounds {
            for (name, v) in pick(round) {
                all.entry(name).or_default().push(*v);
            }
        }
        all.into_iter().map(|(name, v)| (name, stats::median(&v))).collect::<BTreeMap<_, _>>()
    };
    let mut e2e = median_of(|r| &r.e2e);
    e2e.insert("peak_rss_mb", peak_rss_mb());
    let problems: Vec<String> = rounds.iter().flat_map(|r| r.problems.clone()).collect();
    Ok(LiveRun {
        e2e,
        layers: median_of(|r| &r.layers),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        correct: problems.is_empty(),
        problems,
        latency_samples: rounds.iter().map(|r| r.latency_samples).sum(),
    })
}

/// What one round measured.
struct Round {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    latency_samples: usize,
}

/// Warm-up, measured window of `seconds`, and the checks after it, on a
/// cluster that is already set up.
fn measure(stage: &mut Stage, seconds: f64, setup_s: f64, restart_check: bool) -> Res<Round> {
    let kind = stage.ctx.plan.kind;
    let open = warmup_for(seconds);
    let until = open + seconds;
    let zero = Instant::now();
    let ctx = &stage.ctx;
    let cluster = &stage.cluster;
    let (driven, at_open, at_close) = std::thread::scope(|scope| {
        let handles: Vec<_> = stage
            .workers
            .iter_mut()
            .enumerate()
            .map(|(t, worker)| {
                scope.spawn(move || {
                    let mut ops = OpStream::new(ctx.plan, ctx.seed, t);
                    let driven = drive(worker, ctx, &mut ops, zero, open, until)?;
                    Ok::<_, String>((driven, worker.conn.stats()))
                })
            })
            .collect();
        let sleep_until = |secs: f64| {
            std::thread::sleep(Duration::from_secs_f64(secs).saturating_sub(zero.elapsed()))
        };
        sleep_until(open);
        let at_open = cluster.snapshot();
        sleep_until(until);
        let at_close = cluster.snapshot();
        let driven: Vec<Res<(Driven, ConnStats)>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect();
        (driven, at_open, at_close)
    });

    // An operation belongs to the window it ended in.
    let in_window = |s: &&Sample| s.end >= open && s.end <= until;
    let (mut frames, mut batched) = (0u64, 0u64);
    let (mut rate, mut byte_rate) = (0.0, 0.0);
    let mut measured = Vec::new();
    let mut problems = Vec::new();
    for d in driven {
        let (d, conn_at_close) = d?;
        frames += conn_at_close.frames_sent - d.conn_at_open.frames_sent;
        batched += conn_at_close.frames_batched - d.conn_at_open.frames_batched;
        if kind.is_append() {
            stage.acked_user_bytes += d.samples.iter().map(|s| s.user_bytes).sum::<u64>();
        }
        if d.samples.iter().any(|s| !s.ok) {
            problems.push(format!(
                "{} operations failed on one client",
                d.samples.iter().filter(|s| !s.ok).count()
            ));
        }
        // This thread's rate over the window (the window's ends cut no
        // operation in two, see `stats::completion_rate`).
        let ok: Vec<&Sample> = d.samples.iter().filter(in_window).filter(|s| s.ok).collect();
        let thread_rate = stats::completion_rate(&ok.iter().map(|s| s.end).collect::<Vec<_>>());
        let bytes: u64 = ok.iter().map(|s| s.user_bytes).sum();
        rate += thread_rate;
        byte_rate += thread_rate * stats::ratio(bytes as f64, ok.len() as f64);
        measured.extend(d.samples.into_iter().filter(|s| in_window(&s)));
    }
    let attempted = measured.len() as u64;
    let failed = measured.iter().filter(|s| !s.ok).count() as u64;
    let lat =
        stats::sorted(measured.iter().filter(|s| s.ok).map(|s| (s.end - s.start) * 1e6).collect());
    if lat.len() < 2 * THREADS {
        problems.push("too few operations completed inside the measured window".into());
    }

    let mut layers = live_layers(&at_close.since(&at_open), frames, batched, lat.len() as f64);
    layers.insert("client.p50_us", stats::quantile(&lat, 0.5));
    layers.insert("client.p99_us", stats::quantile(&lat, 0.99));
    layers.insert("client.timeouts", stage.workers.iter().map(|w| w.timeouts).sum::<u64>() as f64);
    if kind.is_append() {
        if let Err(why) = check_appends(stage, restart_check, &mut layers) {
            problems.push(why);
        }
    }

    let e2e = BTreeMap::from([
        ("setup_s", setup_s),
        ("ops_per_s", rate),
        ("user_mb_per_s", byte_rate / 1e6),
        ("p50_us", stats::quantile(&lat, 0.5)),
        ("p90_us", stats::quantile(&lat, 0.9)),
        (
            "disk_bytes_per_user_byte",
            stats::ratio(stage.cluster.data_bytes() as f64, stage.acked_user_bytes as f64),
        ),
    ]);
    Ok(Round { e2e, layers, attempted, failed, problems, latency_samples: lat.len() })
}

/// Per-layer metrics from registry deltas over the measured window; `n`
/// is the number of operations completed in it.
fn live_layers(
    d: &Snapshot,
    client_frames: u64,
    client_batched: u64,
    n: f64,
) -> BTreeMap<&'static str, f64> {
    let all = |key: &str| (d.storage_sum(key) + d.router(key)) as f64;
    let st = |key: &str| d.storage_sum(key) as f64;
    let frames = all("net.frames_encoded") + client_frames as f64;
    let hits = d.router("router.verify_cache_hits") as f64;
    let misses = d.router("router.verify_cache_misses") as f64;
    let (cache_hits, cache_misses) = (st("store.read_cache_hits"), st("store.read_cache_misses"));
    BTreeMap::from([
        ("net.frames_per_op", stats::ratio(frames, n)),
        (
            "net.batched_frame_ratio",
            stats::ratio(all("net.egress_batched_frames") + client_batched as f64, frames),
        ),
        (
            "router.forwards_per_op",
            stats::ratio(
                (d.router("router.pdus_forwarded") + d.router("router.pdus_delivered_local"))
                    as f64,
                n,
            ),
        ),
        ("router.vcache_hit_ratio", stats::ratio(hits, hits + misses)),
        ("server.acks_deferred_per_op", stats::ratio(st("server.acks_deferred"), n)),
        (
            "server.shed_ratio",
            stats::ratio(
                st("server.appends_shed"),
                st("server.appends_shed") + st("server.appends_committed"),
            ),
        ),
        ("store.flush_us", stats::ratio(st("store.fsync_us.sum"), st("store.fsync_us.count"))),
        ("store.entries_per_fsync", stats::ratio(st("store.entries_appended"), st("store.fsyncs"))),
        ("store.fsyncs_per_op", stats::ratio(st("store.fsyncs"), n)),
        ("store.cache_hit_ratio", stats::ratio(cache_hits, cache_hits + cache_misses)),
        ("store.reads_from_store_per_op", stats::ratio(st("store.reads_served_from_store"), n)),
        ("store.fd_opens_per_op", stats::ratio(st("store.segment_fd_opens"), n)),
        ("node.tick_us", stats::ratio(all("node.tick_us.sum"), all("node.tick_us.count"))),
    ])
}

/// The checks that follow an append workload, each fatal:
/// replicas converge on every acked record; a verified read-back returns
/// exactly the acked records; and (with `restart_check`) the same holds
/// after all three storage nodes are stopped and restarted on their data.
fn check_appends(
    stage: &mut Stage,
    restart_check: bool,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let total: u64 = stage.workers.iter().map(|w| w.last_acked).sum();
    // Every record is committed once where the client's request landed
    // and replicated into the other two stores.
    let deadline = Instant::now() + OP_DEADLINE;
    loop {
        let s = stage.cluster.snapshot();
        let held =
            s.storage_sum("server.appends_committed") + s.storage_sum("server.replicated_in");
        if held == total * REPLICAS as u64 {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "replicas did not converge: {held} record copies, expected {}",
                total * REPLICAS as u64
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    read_back_all(stage)?;
    if restart_check {
        let t = Instant::now();
        stage.cluster.stop_storage();
        stage.cluster.restart_storage()?;
        stage.cluster.wait_adverts(2 * REPLICAS as u64, Duration::from_secs(120))?;
        let w = &mut stage.workers[0];
        let last = w.last_acked;
        // The restarted servers hold no session: responses come signed.
        w.checked_read(&stage.ctx, w.capsule, Read::Proof(last))?
            .map_err(|why| format!("first read after restart: {why}"))?;
        layers.insert("store.restart_ms", t.elapsed().as_secs_f64() * 1e3);
        read_back_all(stage).map_err(|why| format!("after restart: {why}"))?;
    }
    Ok(())
}

/// Every worker reads its whole capsule back, in parallel.
fn read_back_all(stage: &mut Stage) -> Res<()> {
    let ctx = &stage.ctx;
    std::thread::scope(|scope| {
        let handles: Vec<_> = stage
            .workers
            .iter_mut()
            .map(|w| scope.spawn(move || w.read_back(ctx, w.capsule, w.last_acked)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().unwrap_or_else(|_| Err("read-back thread panicked".into())))
    })
}
