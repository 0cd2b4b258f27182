//! The node daemon: the transport-agnostic [`NodeRuntime`] core (see
//! [`crate::runtime`]) driven by the real-socket [`TcpNet`] transport.
//!
//! One event-loop thread owns all protocol state. TCP peers (identified
//! by their advertised listen address) are mapped to stable router
//! neighbor ids inside the runtime; a peer whose connection pool gives up
//! is reported as a down neighbor so its routes are withdrawn (replica
//! failover). A co-located DataCapsule-server (role `both`) occupies a
//! reserved neighbor id and exchanges PDUs with the router in-process.
//!
//! The same runtime, wrapped over `gdp_net::simnet` instead of TCP, runs
//! inside the deterministic chaos simulator in `gdp-sim`.

use crate::config::NodeConfig;
use crate::ingress::IngressQueue;
use crate::runtime::{build_cores_with_obs, NodeRuntime};
use gdp_net::tcp::{PeerEvent, TcpNet, TcpNetConfig};
use gdp_obs::{Histogram, Metrics};
use gdp_wire::Name;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::runtime::FOREVER;

/// How often periodic maintenance (purge, server tick, re-attach) runs.
const TICK_INTERVAL: Duration = Duration::from_micros(crate::runtime::TICK_US);

/// Most PDUs staged through the priority queue per loop iteration; caps
/// how long a drain can defer the maintenance tick under a flood.
const INGRESS_BATCH: usize = 128;

/// Errors starting a node.
#[derive(Debug)]
pub enum NodeError {
    /// The transport failed to bind.
    Bind(gdp_net::tcp::TcpNetError),
    /// A host spec was rejected (chain does not end at this server, bad
    /// metadata, or an unusable store).
    Host(String),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Bind(e) => write!(f, "bind: {e}"),
            NodeError::Host(e) => write!(f, "host: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// A running node; dropping the handle does NOT stop it — call
/// [`NodeHandle::stop`].
pub struct NodeHandle {
    local: SocketAddr,
    router_name: Option<Name>,
    server_name: Option<Name>,
    stop: Arc<AtomicBool>,
    net: TcpNet,
    metrics: Metrics,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// Actual listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The router identity, when this node runs one.
    pub fn router_name(&self) -> Option<Name> {
        self.router_name
    }

    /// The DataCapsule-server identity, when this node runs one.
    pub fn server_name(&self) -> Option<Name> {
        self.server_name
    }

    /// The node's shared metric registry (router, server, store, net, and
    /// runtime scopes all report here).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Stops the event loop and shuts the transport down.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.net.shutdown();
    }

    /// Blocks until the node exits on its own (daemon main).
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.net.shutdown();
    }
}

/// Starts a node from its config: binds the listener, mounts hosted
/// capsules, and spawns the event-loop thread.
pub fn start(cfg: NodeConfig) -> Result<NodeHandle, NodeError> {
    let metrics = Metrics::new();
    let net_cfg = TcpNetConfig {
        admission_rate: cfg.admission_rate,
        admission_burst: cfg.admission_burst,
        ..TcpNetConfig::default()
    };
    let net = TcpNet::bind_with_obs(cfg.listen, net_cfg, &metrics.scope("net"))
        .map_err(NodeError::Bind)?;
    let local = net.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let (router, server) = build_cores_with_obs(&cfg, &metrics)?;
    let uplink = cfg.peers.first().copied();
    let runtime = NodeRuntime::new(cfg.role, router, server, cfg.router, uplink);
    let router_name = runtime.router_name();
    let server_name = runtime.server_name();

    let loop_net = net.clone();
    let loop_stop = Arc::clone(&stop);
    let loop_metrics = metrics.clone();
    let stats_path = cfg.stats_path.clone();
    let thread = std::thread::Builder::new()
        .name(format!("gdp-node-{}", cfg.label))
        .spawn(move || {
            let node_scope = loop_metrics.scope("node");
            let tick_us = node_scope.histogram("tick_us");
            let control_preempts = node_scope.counter("control_preempts");
            EventLoop {
                net: loop_net,
                stop: loop_stop,
                runtime,
                epoch: Instant::now(),
                metrics: loop_metrics,
                tick_us,
                control_preempts,
                ingress: IngressQueue::new(),
                stats_path,
            }
            .run();
        })
        .expect("spawn node event loop");

    Ok(NodeHandle { local, router_name, server_name, stop, net, metrics, thread: Some(thread) })
}

/// The TCP shell around [`NodeRuntime`]: real clock, real sockets.
struct EventLoop {
    net: TcpNet,
    stop: Arc<AtomicBool>,
    runtime: NodeRuntime<SocketAddr>,
    epoch: Instant,
    metrics: Metrics,
    /// Runtime-maintenance latency (scope `node`, metric `tick_us`).
    tick_us: Histogram,
    /// Times a control-plane PDU dequeued ahead of waiting Data (scope
    /// `node`, metric `control_preempts`).
    control_preempts: gdp_obs::Counter,
    /// Control-over-data priority staging between transport and runtime:
    /// each loop iteration drains a batch from the socket queue into it
    /// and processes control-plane PDUs first, so route convergence and
    /// session setup survive a Data flood (see DESIGN.md, "Overload &
    /// admission").
    ingress: IngressQueue<SocketAddr>,
    /// Metrics dump target; `<stats_path>.request` triggers a dump.
    stats_path: Option<PathBuf>,
}

impl EventLoop {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn transmit(&self, out: Vec<(SocketAddr, gdp_wire::Pdu)>) {
        for (peer, pdu) in out {
            let _ = self.net.send(peer, pdu);
        }
    }

    fn run(mut self) {
        let out = self.runtime.start(self.now());
        self.transmit(out);

        let mut last_tick = Instant::now() - TICK_INTERVAL;
        while !self.stop.load(Ordering::SeqCst) {
            while let Some(ev) = self.net.poll_peer_event() {
                if let PeerEvent::Down(addr) = ev {
                    let now = self.now();
                    let out = self.runtime.on_peer_down(now, addr);
                    self.transmit(out);
                }
            }
            // Stage a batch through the priority queue: block briefly for
            // the first PDU, then drain whatever else is already queued
            // (bounded, so a flood cannot starve the tick below), and
            // process control-plane PDUs ahead of Data.
            match self.net.recv_timeout(Duration::from_millis(20)) {
                Ok(Some((from, pdu))) => {
                    self.ingress.push(from, pdu);
                    while self.ingress.len() < INGRESS_BATCH {
                        match self.net.try_recv() {
                            Ok(Some((from, pdu))) => self.ingress.push(from, pdu),
                            Ok(None) | Err(_) => break,
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
            let preempts_before = self.ingress.preemptions();
            while let Some((from, pdu)) = self.ingress.pop() {
                let now = self.now();
                let out = self.runtime.on_pdu(now, from, pdu);
                self.transmit(out);
            }
            self.control_preempts.add(self.ingress.preemptions() - preempts_before);
            if last_tick.elapsed() >= TICK_INTERVAL {
                last_tick = Instant::now();
                let started = Instant::now();
                let now = self.now();
                let out = self.runtime.tick(now);
                self.tick_us.observe(started.elapsed().as_micros() as u64);
                self.transmit(out);
                self.serve_stats_request();
            }
        }
        // Final dump: a stopping daemon leaves its counters behind.
        self.dump_stats();
    }

    /// Operator-triggered stats dump: touching `<stats_path>.request`
    /// makes the next tick write the registry JSON to `stats_path` and
    /// delete the trigger (the daemon has no signal handler offline, so a
    /// trigger file stands in for SIGUSR1).
    fn serve_stats_request(&self) {
        let Some(path) = &self.stats_path else { return };
        let trigger = request_path(path);
        if trigger.exists() {
            self.dump_stats();
            let _ = std::fs::remove_file(trigger);
        }
    }

    fn dump_stats(&self) {
        let Some(path) = &self.stats_path else { return };
        let _ = std::fs::write(path, self.metrics.to_json());
    }
}

/// The trigger file watched next to a stats dump target.
pub fn request_path(stats_path: &std::path::Path) -> PathBuf {
    let mut os = stats_path.as_os_str().to_os_string();
    os.push(".request");
    PathBuf::from(os)
}
