//! Blocking client over TCP: the live pump of the one client driver.
//!
//! Everything a client decides — attach with re-Hello, session re-init,
//! append/read retries, Nack back-off, re-keying, which verification
//! failures are retried and which are fatal — is `gdp_client::ops`, the
//! same code the simulated clusters run. [`ClusterClient`] only supplies
//! that policy's [`Pump`]: a [`TcpNet`] endpoint and a monotonic clock.
//!
//! This is the piece examples, integration tests, and operator tooling
//! use to talk to a running `gdpd` cluster; latency-sensitive
//! applications would drive `GdpClient` themselves.

use gdp_capsule::{CapsuleMetadata, PointerStrategy};
use gdp_client::ops::{self, Driver, Pump};
use gdp_client::{GdpClient, VerifiedRead};
use gdp_crypto::SigningKey;
use gdp_net::tcp::{TcpNet, TcpNetConfig, TcpNetError};
use gdp_server::{AckMode, ReadTarget};
use gdp_wire::{Name, Pdu};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub use gdp_client::ops::ClientError;

use crate::node::FOREVER;

/// Longest one [`Pump::wait`] blocks on the socket, so timer work (the
/// deadline sweep, the re-Hello) runs at least this often.
const POLL: Duration = Duration::from_millis(50);

fn net_err(e: TcpNetError) -> ClientError {
    ClientError::Net(e.to_string())
}

/// A verifying GDP client attached to a router over real sockets.
pub struct ClusterClient {
    driver: Driver,
    net: TcpNet,
    router_addr: SocketAddr,
    /// How long each operation keeps retrying before it gives up.
    pub timeout: Duration,
    /// Epoch of the monotonic clock every driver call is stamped with.
    started: Instant,
}

impl ClusterClient {
    /// Binds an ephemeral socket, dials `router_addr`, and completes the
    /// secure-advertisement handshake as a plain (no-catalog) client.
    pub fn connect(
        router_addr: SocketAddr,
        router_name: Name,
        seed: &[u8; 32],
        label: &str,
    ) -> Result<ClusterClient, ClientError> {
        let cfg =
            TcpNetConfig { poll_interval: Duration::from_millis(5), ..TcpNetConfig::default() };
        let net = TcpNet::bind_with("127.0.0.1:0".parse().unwrap(), cfg).map_err(net_err)?;
        let mut me = ClusterClient {
            driver: Driver::new(GdpClient::from_seed(seed, label), router_name, FOREVER),
            net,
            router_addr,
            timeout: Duration::from_secs(10),
            started: Instant::now(),
        };
        // The router may not be up yet; the re-Hello cadence covers the
        // transport redialling underneath.
        let window = me.window_us();
        ops::attach(&mut me, window)?;
        Ok(me)
    }

    fn window_us(&self) -> u64 {
        self.timeout.as_micros() as u64
    }

    /// Direct access to the protocol core (track capsules, inspect state).
    pub fn core(&mut self) -> &mut GdpClient {
        &mut self.driver.core
    }

    /// Starts verifying reads of `metadata`'s capsule.
    pub fn track(&mut self, metadata: &CapsuleMetadata) -> Result<(), ClientError> {
        self.core().track_capsule(metadata).map_err(ClientError::Client)
    }

    /// Registers this client as a writer of the capsule.
    pub fn register_writer(
        &mut self,
        metadata: &CapsuleMetadata,
        key: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<(), ClientError> {
        self.core().register_writer(metadata, key, strategy).map_err(ClientError::Client)
    }

    /// Establishes an encrypted session flow with a serving replica.
    pub fn session(&mut self, capsule: Name) -> Result<(), ClientError> {
        let window = self.window_us();
        ops::session(self, capsule, window)
    }

    /// Appends a signed record and blocks until the durability mode is
    /// acknowledged, re-sending the same signed record while it is not.
    pub fn append(&mut self, capsule: Name, body: &[u8], ack: AckMode) -> Result<u64, ClientError> {
        let window = self.window_us();
        ops::append(self, capsule, body, ack, window)
    }

    /// Issues a verified read, retrying while the capsule is unroutable,
    /// a replica is mid-failover, or an answer is honestly stale.
    pub fn read(&mut self, capsule: Name, target: ReadTarget) -> Result<VerifiedRead, ClientError> {
        let window = self.window_us();
        ops::read(self, capsule, target, window)
    }

    /// Shuts the client's socket down.
    pub fn close(self) {
        self.net.shutdown();
    }
}

impl Pump for ClusterClient {
    fn driver(&mut self) -> &mut Driver {
        &mut self.driver
    }

    fn now(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn send(&mut self, pdu: Pdu) -> Result<(), ClientError> {
        self.net.send(self.router_addr, pdu).map_err(net_err)
    }

    fn wait(&mut self, until: u64) -> Result<bool, ClientError> {
        let now = self.now();
        if now >= until {
            return Ok(false);
        }
        if let Some(hello) = self.driver.tick(now) {
            self.send(hello)?;
        }
        let nap = POLL.min(Duration::from_micros(until - now));
        if let Some((_, pdu)) = self.net.recv_timeout(nap).map_err(net_err)? {
            let now = self.now();
            if let Some(reply) = self.driver.on_pdu(now, pdu) {
                self.send(reply)?;
            }
        }
        Ok(true)
    }
}
