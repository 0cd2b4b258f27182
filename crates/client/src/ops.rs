//! The client driver: what a client does *after* a lost `SessionAccept`,
//! a failed check, a `Nack` or an attach rejection. Every answer comes
//! from an untrusted, anycast-chosen, possibly lagging replica, so this is
//! protocol, not glue — written once, with no clock, socket or fabric.
//!
//! [`Driver`] is the sans-I/O state, fed by whoever owns the transport;
//! [`attach`], [`session`], [`append`] and [`read`] are the retry loops
//! over a [`Pump`]. `gdp_node::ClusterClient` (TCP, wall clock) and
//! `gdp_sim::SimCluster` (seeded fabric, virtual clock) are the pumps; the
//! constants are the ones the chaos sweep validated, and the only ones.

use crate::client::{ClientEvent, GdpClient, VerifiedRead};
use gdp_router::{AttachStep, Attacher};
use gdp_server::{AckMode, ReadTarget};
use gdp_wire::{Name, Pdu};
use std::collections::VecDeque;

/// One attempt's share of an operation's window (µs): short enough that a
/// request lost to a mid-failover route retries well before the deadline.
const ATTEMPT_SLICE_US: u64 = 2_000_000;

/// Pause before a read is re-issued (µs): an attempt can end early on an
/// `Unreachable` or a server error, and an unroutable capsule must not
/// hot-loop request/error cycles.
const RETRY_PAUSE_US: u64 = 50_000;

/// Re-Hello cadence of an unfinished attach (µs).
const REHELLO_US: u64 = 300_000;

/// The server MAC'd a response under a flow key the client does not hold:
/// the handshake is half-established (its `SessionAccept` was lost) or the
/// key is from before a re-key. Recovered by re-keying.
const NO_SESSION: &str = "MAC response without session";

/// Verification failures that are an *honest* degradation the client
/// correctly detected and rejected — stale or partial replica state during
/// convergence, a flow key it does not hold — and so retries. Any other
/// reason is evidence of tampering and fails the operation the first time.
const HONEST_FAILURES: [&str; 4] =
    ["stale replica state", "range not contiguous", "range does not chain", NO_SESSION];

/// Why a driven operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Net(String),
    /// The attach window closed; this is the router's last rejection.
    AttachRejected(String),
    /// No acceptable response arrived before the deadline.
    Timeout(&'static str),
    /// The client core rejected the request.
    Client(&'static str),
    /// A response failed verification for a reason outside the
    /// honest-degradation list.
    Verification(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Net(e) => write!(f, "transport: {e}"),
            ClientError::AttachRejected(r) => write!(f, "attach rejected: {r}"),
            ClientError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            ClientError::Client(e) => write!(f, "client: {e}"),
            ClientError::Verification(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// The sans-I/O half of a driven client.
pub struct Driver {
    /// The protocol core (track capsules, build one-shot requests).
    pub core: GdpClient,
    /// Events no operation has consumed yet, oldest first.
    pub events: VecDeque<ClientEvent>,
    router: Name,
    expires: u64,
    /// `Some` from [`attach`] on; re-armed fresh on every rejection.
    attacher: Option<Attacher>,
    attached: bool,
    last_hello: u64,
    rejection: Option<String>,
    failures: Vec<&'static str>,
}

impl Driver {
    /// Wraps `core`, to be attached to `router` with an (empty) catalog
    /// and RtCert valid until `expires`.
    pub fn new(core: GdpClient, router: Name, expires: u64) -> Driver {
        Driver {
            core,
            events: VecDeque::new(),
            router,
            expires,
            attacher: None,
            attached: false,
            last_hello: 0,
            rejection: None,
            failures: Vec::new(),
        }
    }

    /// Every verification-failure reason ever reported that is not an
    /// honest degradation.
    pub fn hard_failures(&self) -> Vec<&'static str> {
        self.failures.iter().copied().filter(|r| !HONEST_FAILURES.contains(r)).collect()
    }

    fn arm(&mut self, now: u64) -> &Attacher {
        self.last_hello = now;
        let id = self.core.principal_id().clone();
        self.attacher.insert(Attacher::new(id, self.router, Vec::new(), self.expires))
    }

    /// Feeds one inbound PDU, stamped with the pump's clock. Returns the
    /// handshake reply to send, if the PDU was the router's challenge.
    pub fn on_pdu(&mut self, now: u64, pdu: Pdu) -> Option<Pdu> {
        if let Some(attacher) = self.attacher.as_mut().filter(|_| !self.attached) {
            match attacher.on_pdu(&pdu) {
                AttachStep::Send(reply) => return Some(reply),
                AttachStep::Done(_) => {
                    self.attached = true;
                    return None;
                }
                AttachStep::Failed(reason) => {
                    // Re-arm, but leave the next Hello to the cadence in
                    // `tick`: a re-Hello sent on rejection puts a second
                    // handshake in flight beside the first, and the pair
                    // chase each other forever (chaos seed 160).
                    self.rejection = Some(reason);
                    self.arm(now);
                    return None;
                }
                AttachStep::Ignored => {}
            }
        }
        for ev in self.core.handle_pdu(now, pdu) {
            if let ClientEvent::VerificationFailed { reason, .. } = &ev {
                self.failures.push(reason);
            }
            self.events.push_back(ev);
        }
        None
    }

    /// Timer work, on the same clock: expires pending requests whose
    /// responses were lost, and returns the Hello to re-send if the attach
    /// is unfinished and one is due.
    pub fn tick(&mut self, now: u64) -> Option<Pdu> {
        self.events.extend(self.core.sweep_timeouts(now));
        let attacher = self.attacher.as_ref().filter(|_| !self.attached)?;
        if now.saturating_sub(self.last_hello) < REHELLO_US {
            return None;
        }
        self.last_hello = now;
        Some(attacher.hello())
    }
}

/// What the policy needs from whoever owns the transport and the clock.
pub trait Pump {
    /// The state this pump feeds.
    fn driver(&mut self) -> &mut Driver;
    /// Monotonic µs; the one clock every `Driver` call is stamped with.
    fn now(&self) -> u64;
    /// Queues `pdu` toward the router.
    fn send(&mut self, pdu: Pdu) -> Result<(), ClientError>;
    /// Lets the world run one quantum toward `until`: inbound PDUs go to
    /// [`Driver::on_pdu`], timer work to [`Driver::tick`], what they
    /// return is sent. False once `until` is reached with nothing left
    /// to do at that instant.
    fn wait(&mut self, until: u64) -> Result<bool, ClientError>;
}

fn run_until(p: &mut impl Pump, until: u64) -> Result<(), ClientError> {
    // An instant already reached costs no quantum: whatever else is due
    // now is handled after the send that follows, not before it.
    if p.now() < until {
        while p.wait(until)? {}
    }
    Ok(())
}

/// Consumes queued events until `accept` takes one, pumping in between;
/// `None` once `until` passes. A hard verification failure ends the wait.
pub fn wait_for<T>(
    p: &mut impl Pump,
    until: u64,
    mut accept: impl FnMut(&ClientEvent) -> Option<T>,
) -> Result<Option<T>, ClientError> {
    loop {
        while let Some(ev) = p.driver().events.pop_front() {
            match ev {
                ClientEvent::VerificationFailed { reason, .. }
                    if !HONEST_FAILURES.contains(&reason) =>
                {
                    return Err(ClientError::Verification(reason));
                }
                ev => {
                    if let Some(v) = accept(&ev) {
                        return Ok(Some(v));
                    }
                }
            }
        }
        if !p.wait(until)? {
            return Ok(None);
        }
    }
}

/// Attaches to the router (secure-advertisement handshake), re-Helloing
/// at the cadence until `window_us` closes.
pub fn attach(p: &mut impl Pump, window_us: u64) -> Result<(), ClientError> {
    let now = p.now();
    let hello = p.driver().arm(now).hello();
    p.send(hello)?;
    while !p.driver().attached {
        if !p.wait(now + window_us)? {
            return Err(match p.driver().rejection.take() {
                Some(reason) => ClientError::AttachRejected(reason),
                None => ClientError::Timeout("attach"),
            });
        }
    }
    Ok(())
}

/// Establishes a flow key with a serving replica, with a fresh
/// `SessionInit` per attempt: a lost `SessionAccept` leaves the server
/// holding a key the client never learned (chaos seed 12).
pub fn session(p: &mut impl Pump, capsule: Name, window_us: u64) -> Result<(), ClientError> {
    let deadline = p.now() + window_us;
    loop {
        let init = p.driver().core.session_init(capsule);
        p.send(init)?;
        let slice = (p.now() + ATTEMPT_SLICE_US).min(deadline);
        let ready = |ev: &ClientEvent| matches!(ev, ClientEvent::SessionReady { .. }).then_some(());
        if wait_for(p, slice, ready)?.is_some() {
            return Ok(());
        }
        if p.now() >= deadline {
            return Err(ClientError::Timeout("session"));
        }
    }
}

/// One request under the retry rule. Each attempt: honour the capsule's
/// Nack back-off, `issue` and send, wait out a slice for `settle` to
/// return `Some(Some(answer))` (`Some(None)` ends the attempt early);
/// `settle` is also given the request seqs of every attempt so far.
/// Between attempts: re-key if the attempt saw [`NO_SESSION`], count the
/// retry, pause.
fn request<T>(
    p: &mut impl Pump,
    capsule: Name,
    window_us: u64,
    (what, pause_us): (&'static str, u64),
    mut issue: impl FnMut(&mut GdpClient) -> Pdu,
    mut settle: impl FnMut(&[u64], &ClientEvent) -> Option<Option<T>>,
) -> Result<T, ClientError> {
    let deadline = p.now() + window_us;
    let mut issued = Vec::new();
    loop {
        let not_before = p.driver().core.retry_not_before(&capsule).min(deadline);
        run_until(p, not_before)?;
        let pdu = issue(&mut p.driver().core);
        issued.push(pdu.seq);
        p.send(pdu)?;
        let slice = (p.now() + ATTEMPT_SLICE_US).min(deadline);
        let seen = p.driver().failures.len();
        if let Some(Some(answer)) = wait_for(p, slice, |ev| settle(&issued, ev))? {
            return Ok(answer);
        }
        if p.now() >= deadline {
            return Err(ClientError::Timeout(what));
        }
        if p.driver().failures[seen..].contains(&NO_SESSION) {
            let init = p.driver().core.session_init(capsule);
            p.send(init)?;
        }
        p.driver().core.mark_retry();
        run_until(p, p.now() + pause_us)?;
    }
}

/// Signs and appends one record, returning its seq once the durability
/// mode is acknowledged. A retry re-sends the *same signed record*
/// (appends are idempotent server-side) under a fresh request seq — the
/// sweep may have expired the old one, and a response to a swept seq is
/// ignored.
pub fn append(
    p: &mut impl Pump,
    capsule: Name,
    body: &[u8],
    ack: AckMode,
    window_us: u64,
) -> Result<u64, ClientError> {
    // Wall-clock timestamps are not part of the proof.
    let (first, record) =
        p.driver().core.append(capsule, body, 0, ack).map_err(ClientError::Client)?;
    let (want, mut first) = (record.header.seq, Some(first));
    request(
        p,
        capsule,
        window_us,
        ("append ack", 0),
        |core| first.take().unwrap_or_else(|| core.append_record(capsule, record.clone(), ack)),
        |_, ev| {
            matches!(ev, ClientEvent::AppendAcked { seq, .. } if *seq == want).then_some(Some(want))
        },
    )
}

/// One verified read; each attempt is a fresh request. Only an answer to
/// one of them settles it: a late answer to an earlier read answers that
/// read's target, not this one's.
pub fn read(
    p: &mut impl Pump,
    capsule: Name,
    target: ReadTarget,
    window_us: u64,
) -> Result<VerifiedRead, ClientError> {
    request(
        p,
        capsule,
        window_us,
        ("read result", RETRY_PAUSE_US),
        |core| core.read(capsule, target),
        |issued, ev| match ev {
            ClientEvent::ReadOk { request_seq, result, .. } if issued.contains(request_seq) => {
                Some(Some(result.clone()))
            }
            ClientEvent::Unreachable { .. } | ClientEvent::ServerError { .. } => Some(None),
            _ => None,
        },
    )
}
