//! The conformance suite from `gdp_net::conformance`, instantiated for
//! both transports: `TcpNet` over real loopback sockets and the
//! deterministic `simnet` fabric. The same PDU sequences must be
//! delivered, per-peer order preserved, and peers isolated — plus
//! transport-specific peer-death behavior.

use gdp_net::conformance as conf;
use gdp_net::simnet::{self, SimNetError};
use gdp_net::tcp::{PeerEvent, TcpNet, TcpNetConfig};
use gdp_wire::{Name, Pdu};
use std::time::Duration;

fn tcp() -> TcpNet {
    let cfg = TcpNetConfig {
        poll_interval: Duration::from_millis(5),
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(50),
        max_dial_attempts: 3,
        ..TcpNetConfig::default()
    };
    TcpNet::bind_with("127.0.0.1:0".parse().unwrap(), cfg).expect("bind loopback")
}

fn pdu(seq: u64, payload: Vec<u8>) -> Pdu {
    Pdu::data(Name::from_content(b"t-src"), Name::from_content(b"t-dst"), seq, payload)
}

// ---- SimNet (deterministic fabric, default no-fault config) -----------
//
// With `FaultSpec::reliable()` (fixed latency, no jitter/drop/dup) the
// fabric is FIFO and lossless, so the full conformance contract holds.
// Virtual time advances inside `recv_timeout`, so the suite's real-time
// delivery deadlines are trivially met.

#[test]
fn simnet_delivery_integrity() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let (a, b) = (net.endpoint(), net.endpoint());
    conf::check_delivery_integrity(&a, &b, b.addr);
}

#[test]
fn simnet_per_peer_ordering() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let (a, b) = (net.endpoint(), net.endpoint());
    conf::check_per_peer_ordering(&a, &b, b.addr, 500);
}

#[test]
fn simnet_interleaved_senders() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let (a, b, c) = (net.endpoint(), net.endpoint(), net.endpoint());
    conf::check_interleaved_senders(&a, &b, &c, c.addr, 200);
}

#[test]
fn simnet_timeout_honesty() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let a = net.endpoint();
    conf::check_timeout_honesty(&a);
}

#[test]
fn simnet_isolation() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let (a, b, bystander) = (net.endpoint(), net.endpoint(), net.endpoint());
    conf::check_isolation(&a, &b, b.addr, &bystander);
}

#[test]
fn simnet_oversized_refused() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let (a, b) = (net.endpoint(), net.endpoint());
    conf::check_oversized_refused(&a, &b, b.addr, gdp_wire::frame::MAX_FRAME);
}

#[test]
fn simnet_crashed_peer_drops_silently_then_errors_locally() {
    let net = simnet::SimNet::new(0xC0FFEE);
    let (a, b) = (net.endpoint(), net.endpoint());
    // A send toward a crashed peer succeeds locally (the wire eats it),
    // mirroring UDP/TCP-pool semantics where loss surfaces asynchronously.
    net.crash(b.addr);
    a.send(b.addr, pdu(1, vec![1])).unwrap();
    net.advance(1_000_000);
    assert_eq!(net.stats().dropped, 1);
    // A crashed endpoint's own calls fail fast with a typed error.
    assert!(matches!(b.try_recv(), Err(SimNetError::Crashed(_))));
    // An unknown address is a typed local error.
    assert!(matches!(a.send(999, pdu(2, vec![2])), Err(SimNetError::NoSuchEndpoint(999))));
    // Restart revives the address: fresh traffic flows again.
    net.restart(b.addr);
    a.send(b.addr, pdu(3, vec![3])).unwrap();
    let got = b.recv_timeout(Duration::from_secs(1)).unwrap().expect("delivered after restart");
    assert_eq!(got.1.seq, 3);
}

// ---- TcpNet over real loopback sockets --------------------------------

#[test]
fn tcp_delivery_integrity() {
    let (a, b) = (tcp(), tcp());
    conf::check_delivery_integrity(&a, &b, b.local_addr());
    a.shutdown();
    b.shutdown();
}

#[test]
fn tcp_per_peer_ordering() {
    let (a, b) = (tcp(), tcp());
    conf::check_per_peer_ordering(&a, &b, b.local_addr(), 500);
    a.shutdown();
    b.shutdown();
}

#[test]
fn tcp_interleaved_senders() {
    let (a, b, c) = (tcp(), tcp(), tcp());
    conf::check_interleaved_senders(&a, &b, &c, c.local_addr(), 200);
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn tcp_timeout_honesty() {
    let a = tcp();
    conf::check_timeout_honesty(&a);
    a.shutdown();
}

#[test]
fn tcp_isolation() {
    let (a, b, bystander) = (tcp(), tcp(), tcp());
    conf::check_isolation(&a, &b, b.local_addr(), &bystander);
    a.shutdown();
    b.shutdown();
    bystander.shutdown();
}

#[test]
fn tcp_oversized_refused() {
    let cfg = TcpNetConfig { max_frame: 64 * 1024, ..TcpNetConfig::default() };
    let bind = || TcpNet::bind_with("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let (a, b) = (bind(), bind());
    conf::check_oversized_refused(&a, &b, b.local_addr(), cfg.max_frame);
    assert_eq!(a.stats().encode_rejected, 1);
    assert_eq!(b.stats().frames_rejected, 0, "nothing oversized reached the wire");
    a.shutdown();
    b.shutdown();
}

#[test]
fn tcp_peer_death_reported_asynchronously() {
    let a = tcp();
    let b = tcp();
    let b_addr = b.local_addr();
    a.send(b_addr, pdu(1, vec![1])).unwrap();
    assert!(b.recv_timeout(Duration::from_secs(5)).unwrap().is_some());
    b.shutdown();
    // TCP peer death is asynchronous: the pool retries, then reports Down.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut saw_down = false;
    while std::time::Instant::now() < deadline {
        let _ = a.send(b_addr, pdu(2, vec![2]));
        if let Some(PeerEvent::Down(p)) = a.poll_peer_event() {
            if p == b_addr {
                saw_down = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_down, "dead TCP peer never reported Down");
    a.shutdown();
}
