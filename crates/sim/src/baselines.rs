//! Baseline systems for the Fig 8 case study.
//!
//! The paper compares the GDP against Amazon S3 and SSHFS (§IX). Neither
//! is available here, so we model their *client-observable transfer
//! behaviour* on the same simulated links (DESIGN.md, "Substitutions"):
//!
//! * **ObjectStore** (S3-like, via [`BaselineWorld::object_store_cloud`]) —
//!   whole objects moved in sequential
//!   multipart requests with a large per-request overhead, matching the
//!   paper's note that "TensorFlow's S3 implementation for loading data is
//!   not particularly efficient".
//! * **RemoteFs** (SSHFS-like, via [`BaselineWorld::remote_fs_cloud`]) —
//!   small fixed-size blocks with a bounded
//!   pipeline window; efficient in the common case, chatty per block.
//!
//! Both are a blob server answering an ad-hoc request/response protocol
//! on a `simnet` endpoint, over the same link models as the GDP worlds,
//! so bandwidth-delay effects are identical across systems; only
//! protocol behaviour differs.

use gdp_net::simnet::{LinkSpec, SimEndpoint, SimNet, MS};
use gdp_wire::{Name, Pdu, PduType};
use std::collections::HashMap;

/// S3-like part size (8 MiB).
pub const OBJECT_PART: usize = 8 * 1024 * 1024;
/// SSHFS-like block size (64 KiB).
pub const FS_BLOCK: usize = 64 * 1024;
/// SSHFS pipeline window (outstanding block requests).
pub const FS_WINDOW: usize = 8;
/// Modeled per-request processing overhead of the object store
/// (auth/index/slow client), per part, on reads.
pub const OBJECT_PART_OVERHEAD: u64 = 120 * MS;
/// Upload overhead factor for the object store (multipart init/commit and
/// the inefficient TF S3 writer): puts cost this multiple of the read
/// overhead.
pub const OBJECT_PUT_FACTOR: u64 = 3;
/// Modeled per-block server overhead of the remote fs.
pub const FS_BLOCK_OVERHEAD: u64 = 300; // µs

// Ad-hoc opcodes carried in the first payload byte.
const OP_PUT_PART: u8 = 1;
const OP_PUT_ACK: u8 = 2;
const OP_GET_PART: u8 = 3;
const OP_GET_RESP: u8 = 4;

fn req(src: Name, dst: Name, seq: u64, op: u8, body: Vec<u8>) -> Pdu {
    let mut payload = Vec::with_capacity(body.len() + 1);
    payload.push(op);
    payload.extend_from_slice(&body);
    Pdu { pdu_type: PduType::Data, src, dst, seq, payload: payload.into() }
}

/// The blob server (used for both baselines; behaviour differences are
/// in the *client* access patterns plus the per-request overhead).
struct BlobServer {
    name: Name,
    /// Per-request modeled processing overhead (µs).
    request_overhead: u64,
    /// Multiplier applied to `request_overhead` for PUT requests.
    put_factor: u64,
    objects: HashMap<(Name, u64), Vec<u8>>, // (object, part index) → bytes
    busy_until: u64,
}

impl BlobServer {
    /// Handles one request at `now`: the answer and how long the server's
    /// one core keeps it (queueing behind earlier requests included).
    fn handle(&mut self, now: u64, pdu: &Pdu) -> Option<(Pdu, u64)> {
        let (&op, body) = pdu.payload.as_slice().split_first()?;
        let factor = if op == OP_PUT_PART { self.put_factor } else { 1 };
        let done = now.max(self.busy_until) + self.request_overhead * factor;
        let object = Name(body.get(..32)?.try_into().ok()?);
        let word = |at: usize| Some(u64::from_be_bytes(body.get(at..at + 8)?.try_into().ok()?));
        let (op, answer) = match op {
            // body = object name (32) + part index (8) + total size (8) + bytes
            OP_PUT_PART => {
                self.objects.insert((object, word(32)?), body.get(48..)?.to_vec());
                (OP_PUT_ACK, Vec::new())
            }
            OP_GET_PART => {
                (OP_GET_RESP, self.objects.get(&(object, word(32)?)).cloned().unwrap_or_default())
            }
            _ => return None,
        };
        self.busy_until = done;
        Some((req(self.name, pdu.src, pdu.seq, op, answer), done - now))
    }
}

/// Synchronous driver for a baseline deployment: client ↔ server over the
/// given links, with configurable chunking and pipelining.
pub struct BaselineWorld {
    net: SimNet,
    client: SimEndpoint,
    server_ep: SimEndpoint,
    server: BlobServer,
    client_name: Name,
    /// Transfer chunk size.
    pub chunk: usize,
    /// Outstanding-request window (1 = strict request/response).
    pub window: usize,
    next_seq: u64,
}

impl BaselineWorld {
    /// Builds a client↔server pair with explicit directed links.
    pub fn new(
        seed: u64,
        up: LinkSpec,
        down: LinkSpec,
        request_overhead: u64,
        chunk: usize,
        window: usize,
    ) -> BaselineWorld {
        let net = SimNet::new(seed);
        let (client, server_ep) = (net.endpoint(), net.endpoint());
        net.connect_directed(client.addr, server_ep.addr, up);
        net.connect_directed(server_ep.addr, client.addr, down);
        let server = BlobServer {
            name: Name::from_content(b"baseline server"),
            request_overhead,
            put_factor: 1,
            objects: HashMap::new(),
            busy_until: 0,
        };
        BaselineWorld {
            net,
            client,
            server_ep,
            server,
            client_name: Name::from_content(b"baseline client"),
            chunk,
            window,
            next_seq: 1,
        }
    }

    /// S3-like deployment over a residential link: big parts, strict
    /// sequential requests, heavy per-request overhead (heavier on PUT:
    /// multipart init/commit).
    pub fn object_store_cloud(seed: u64) -> BaselineWorld {
        let mut w = BaselineWorld::new(
            seed,
            LinkSpec::residential_up(),
            LinkSpec::residential_down(),
            OBJECT_PART_OVERHEAD,
            OBJECT_PART,
            1,
        );
        w.server.put_factor = OBJECT_PUT_FACTOR;
        w
    }

    /// SSHFS-like deployment over a residential link: small blocks,
    /// pipeline window, tiny overhead.
    pub fn remote_fs_cloud(seed: u64) -> BaselineWorld {
        BaselineWorld::new(
            seed,
            LinkSpec::residential_up(),
            LinkSpec::residential_down(),
            FS_BLOCK_OVERHEAD,
            FS_BLOCK,
            FS_WINDOW,
        )
    }

    /// SSHFS-like deployment on an edge LAN.
    pub fn remote_fs_edge(seed: u64) -> BaselineWorld {
        BaselineWorld::new(
            seed,
            LinkSpec::lan(),
            LinkSpec::lan(),
            FS_BLOCK_OVERHEAD,
            FS_BLOCK,
            FS_WINDOW,
        )
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    fn send(&mut self, op: u8, body: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let _ = self
            .client
            .send(self.server_ep.addr, req(self.client_name, self.server.name, seq, op, body));
        seq
    }

    /// Runs the world — the server answering whatever reaches it — until
    /// the client holds a response, or nothing is left in flight.
    fn next_response(&mut self) -> Option<Pdu> {
        loop {
            while let Ok(Some((from, pdu))) = self.server_ep.try_recv() {
                if let Some((answer, delay)) = self.server.handle(self.net.now(), &pdu) {
                    let _ = self.server_ep.send_after(from, answer, delay);
                }
            }
            if let Ok(Some((_, pdu))) = self.client.try_recv() {
                return Some(pdu);
            }
            self.net.advance_to(self.net.next_event_at()?);
        }
    }

    /// Uploads an object, honoring chunk size and window. Returns elapsed
    /// virtual µs.
    pub fn put(&mut self, object: Name, bytes: &[u8]) -> u64 {
        let t0 = self.net.now();
        let total = bytes.len() as u64;
        let parts: Vec<&[u8]> =
            if bytes.is_empty() { vec![&[][..]] } else { bytes.chunks(self.chunk).collect() };
        let mut sent = 0usize;
        let mut acked = 0usize;
        while acked < parts.len() {
            while sent < parts.len() && sent - acked < self.window {
                let mut body = Vec::with_capacity(48 + parts[sent].len());
                body.extend_from_slice(&object.0);
                body.extend_from_slice(&(sent as u64).to_be_bytes());
                body.extend_from_slice(&total.to_be_bytes());
                body.extend_from_slice(parts[sent]);
                self.send(OP_PUT_PART, body);
                sent += 1;
            }
            if self.next_response().is_none() {
                break; // network drained without an ack — avoid hanging
            }
            acked += 1;
        }
        self.net.now() - t0
    }

    /// Downloads an object of known size. Returns (bytes, elapsed µs).
    pub fn get(&mut self, object: Name, size: usize) -> (Vec<u8>, u64) {
        let t0 = self.net.now();
        let nparts = if size == 0 { 1 } else { size.div_ceil(self.chunk) };
        let mut out = vec![Vec::new(); nparts];
        let mut requested = 0usize;
        let mut received = 0usize;
        let mut seq_to_part: HashMap<u64, usize> = HashMap::new();
        while received < nparts {
            while requested < nparts && requested - received < self.window {
                let mut body = Vec::with_capacity(40);
                body.extend_from_slice(&object.0);
                body.extend_from_slice(&(requested as u64).to_be_bytes());
                seq_to_part.insert(self.send(OP_GET_PART, body), requested);
                requested += 1;
            }
            let Some(resp) = self.next_response() else {
                break; // network drained without a response
            };
            if resp.payload.first() == Some(&OP_GET_RESP) {
                if let Some(part) = seq_to_part.remove(&resp.seq) {
                    out[part] = resp.payload[1..].to_vec();
                    received += 1;
                }
            }
        }
        (out.concat(), self.net.now() - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut w = BaselineWorld::remote_fs_edge(1);
        let obj = Name::from_content(b"blob");
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let put_time = w.put(obj, &data);
        assert!(put_time > 0);
        let (back, get_time) = w.get(obj, data.len());
        assert_eq!(back, data);
        assert!(get_time > 0);
    }

    #[test]
    fn empty_object() {
        let mut w = BaselineWorld::remote_fs_edge(2);
        let obj = Name::from_content(b"empty");
        w.put(obj, b"");
        let (back, _) = w.get(obj, 0);
        assert!(back.is_empty());
    }

    #[test]
    fn windowed_transfer_faster_than_sequential() {
        let data = vec![7u8; 2_000_000];
        let obj = Name::from_content(b"o");
        let mut seq = BaselineWorld::new(
            3,
            LinkSpec::residential_up(),
            LinkSpec::residential_down(),
            1000,
            FS_BLOCK,
            1,
        );
        seq.put(obj, &data);
        let (_, t_seq) = seq.get(obj, data.len());
        let mut win = BaselineWorld::new(
            3,
            LinkSpec::residential_up(),
            LinkSpec::residential_down(),
            1000,
            FS_BLOCK,
            8,
        );
        win.put(obj, &data);
        let (_, t_win) = win.get(obj, data.len());
        assert!(t_win < t_seq, "windowed {t_win} vs sequential {t_seq}");
    }

    #[test]
    fn object_store_slower_than_remote_fs_on_read() {
        // The calibrated Fig 8 ordering on the cloud path (reads are
        // download-bound at 100 Mbps; S3's per-part overhead dominates).
        let data = vec![1u8; 28_000_000];
        let obj = Name::from_content(b"model");
        let mut s3 = BaselineWorld::object_store_cloud(4);
        s3.put(obj, &data);
        let (_, t_s3) = s3.get(obj, data.len());
        let mut fs = BaselineWorld::remote_fs_cloud(4);
        fs.put(obj, &data);
        let (_, t_fs) = fs.get(obj, data.len());
        assert!(t_s3 > t_fs, "s3 {t_s3} fs {t_fs}");
    }
}
