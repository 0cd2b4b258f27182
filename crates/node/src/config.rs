//! `gdpd` configuration: a small line-oriented `key = value` format.
//!
//! No external parser dependencies are available offline, and the config
//! surface is deliberately tiny, so this is a hand-rolled format:
//!
//! ```text
//! # role of this node in the cluster
//! role       = both              # router | storage | both
//! listen     = 127.0.0.1:7000
//! seed       = 0101…01           # 64 hex chars: deterministic identity
//! label      = node-a            # human-readable identity label
//! peer       = 127.0.0.1:7001    # repeatable: addresses this node dials
//! router     = ab…cd             # Name (64 hex) of the router above this
//!                                # node, reached through the first `peer`:
//!                                # the one a storage node attaches to, the
//!                                # parent domain of a router (optional for
//!                                # a node that routes: without it the node
//!                                # is the root of its hierarchy)
//! data_dir   = /var/lib/gdp      # optional: capsules persist in one
//!                                # shared segmented group-commit log
//!                                # under <data_dir>/seglog/; in memory
//!                                # when absent
//! fsync      = batch(5)          # always | batch(<ms>), default batch(5):
//!                                # when an append is durable and may be
//!                                # acked (needs data_dir)
//! stats_path = /run/gdp/stats.json # optional: metrics dump target; the
//!                                # daemon dumps on shutdown and whenever
//!                                # `<stats_path>.request` appears
//! admission_rate  = 5000         # optional: per-peer ingest admission,
//!                                # frames/second; 0 (default) disables
//! admission_burst = 256          # optional: admission bucket depth in
//!                                # frames (requires admission_rate)
//! host       = <meta>:<chain>:<peer>,<peer>   # repeatable, see below
//! ```
//!
//! `store_engine = segmented` is still accepted (it was the opt-in when
//! there was a second engine) and changes nothing; `render` never emits it.
//!
//! A `host` entry tells a storage node to serve one DataCapsule. The three
//! `:`-separated fields are the hex-encoded wire encodings of the
//! [`CapsuleMetadata`], of this server's [`ServingChain`] (the owner's
//! delegation ending at *this* server), and a comma-separated (possibly
//! empty) list of replica-peer server [`Name`]s. Everything is hex so
//! specs survive any config transport; they are produced with
//! [`HostSpec::render`].

use gdp_capsule::CapsuleMetadata;
use gdp_cert::ServingChain;
use gdp_store::FsyncPolicy;
use gdp_wire::{Name, Wire};
use std::net::SocketAddr;
use std::path::PathBuf;

/// What protocol roles a node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// GDP-router only: forwards PDUs, terminates attach handshakes.
    Router,
    /// DataCapsule-server only: hosts capsules, attaches via `router`.
    Storage,
    /// Both in one process (the server attaches to the local router).
    Both,
}

impl Role {
    /// True if this node runs a router.
    pub fn routes(self) -> bool {
        matches!(self, Role::Router | Role::Both)
    }

    /// True if this node runs a DataCapsule-server.
    pub fn stores(self) -> bool {
        matches!(self, Role::Storage | Role::Both)
    }
}

/// One capsule this node serves: metadata + this server's delegation +
/// replica peers.
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// The capsule's signed metadata (defines its name).
    pub metadata: CapsuleMetadata,
    /// Owner → … → this server delegation chain.
    pub chain: ServingChain,
    /// Names of the other replicas serving this capsule.
    pub peers: Vec<Name>,
}

impl HostSpec {
    /// Renders the spec as the config-file `host =` value.
    pub fn render(&self) -> String {
        let peers: Vec<String> = self.peers.iter().map(|p| p.to_hex()).collect();
        format!(
            "{}:{}:{}",
            hex_encode(&self.metadata.to_wire()),
            hex_encode(&self.chain.to_wire()),
            peers.join(",")
        )
    }

    fn parse(value: &str) -> Result<HostSpec, ConfigError> {
        let mut parts = value.splitn(3, ':');
        let meta_hex = parts.next().unwrap_or("");
        let chain_hex = parts.next().ok_or(ConfigError::bad("host", "missing chain field"))?;
        let peers_csv = parts.next().unwrap_or("");
        let metadata = CapsuleMetadata::from_wire(
            &hex_decode(meta_hex).ok_or(ConfigError::bad("host", "metadata is not hex"))?,
        )
        .map_err(|_| ConfigError::bad("host", "metadata does not decode"))?;
        let chain = ServingChain::from_wire(
            &hex_decode(chain_hex).ok_or(ConfigError::bad("host", "chain is not hex"))?,
        )
        .map_err(|_| ConfigError::bad("host", "chain does not decode"))?;
        let mut peers = Vec::new();
        for p in peers_csv.split(',').filter(|p| !p.is_empty()) {
            peers.push(Name::from_hex(p).ok_or(ConfigError::bad("host", "bad peer name"))?);
        }
        Ok(HostSpec { metadata, chain, peers })
    }
}

/// Full configuration of one `gdpd` process.
///
/// `Debug` is implemented by hand: `seed` derives the node's signing key,
/// so it must never reach logs or crash reports.
#[derive(Clone)]
pub struct NodeConfig {
    /// Protocol roles to run.
    pub role: Role,
    /// TCP listen address (port 0 for OS-assigned).
    pub listen: SocketAddr,
    /// Identity seed (deterministic keypair).
    pub seed: [u8; 32],
    /// Identity label.
    pub label: String,
    /// Peers this node dials at startup; the first one is the address of
    /// the router named by `router`.
    pub peers: Vec<SocketAddr>,
    /// Name of the router above this node. Required for `Storage` (the
    /// router it attaches to); for `Router` and `Both` it is the parent
    /// domain's router — unknown names are forwarded to it and accepted
    /// advertisements are announced to it — and a node without one is a
    /// root.
    pub router: Option<Name>,
    /// Directory holding the node's segmented log (`<data_dir>/seglog/`);
    /// capsules live in memory when absent.
    pub data_dir: Option<PathBuf>,
    /// Durability policy of the segmented log; `None` keeps the default
    /// (`batch(5)`). Requires `data_dir`.
    pub fsync: Option<FsyncPolicy>,
    /// Where to dump the metrics registry as JSON. Dumped on shutdown,
    /// and on demand whenever a `<stats_path>.request` trigger file
    /// appears (the file is deleted once the dump is written).
    pub stats_path: Option<PathBuf>,
    /// Capsules this node serves (storage roles).
    pub hosts: Vec<HostSpec>,
    /// Per-peer token-bucket admission at TCP ingest, in frames/second;
    /// `0` (the default) disables admission control entirely (see
    /// DESIGN.md, "Overload & admission").
    pub admission_rate: u64,
    /// Admission bucket depth in frames (largest honest burst admitted at
    /// line rate). Only meaningful with `admission_rate > 0`.
    pub admission_burst: u64,
}

impl std::fmt::Debug for NodeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeConfig")
            .field("role", &self.role)
            .field("listen", &self.listen)
            .field("seed", &"[redacted; 32 bytes]")
            .field("label", &self.label)
            .field("peers", &self.peers)
            .field("router", &self.router)
            .field("data_dir", &self.data_dir)
            .field("fsync", &self.fsync)
            .field("stats_path", &self.stats_path)
            .field("hosts", &self.hosts)
            .field("admission_rate", &self.admission_rate)
            .field("admission_burst", &self.admission_burst)
            .finish()
    }
}

/// Config parse failures, with the offending key.
#[derive(Debug)]
pub struct ConfigError {
    /// The config key that failed.
    pub key: String,
    /// What was wrong with it.
    pub reason: String,
}

impl ConfigError {
    fn bad(key: &str, reason: &str) -> ConfigError {
        ConfigError { key: key.to_string(), reason: reason.to_string() }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config key `{}`: {}", self.key, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl NodeConfig {
    /// Parses the `key = value` config format. Unknown keys are an error
    /// (config typos should not silently change cluster behavior).
    pub fn parse(text: &str) -> Result<NodeConfig, ConfigError> {
        let mut role = None;
        let mut listen = None;
        let mut seed = None;
        let mut label = None;
        let mut router = None;
        let mut data_dir = None;
        let mut segmented_requested = false;
        let mut fsync = None;
        let mut stats_path = None;
        let mut peers = Vec::new();
        let mut hosts = Vec::new();
        let mut admission_rate = None;
        let mut admission_burst = None;
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) =
                line.split_once('=').ok_or(ConfigError::bad(line, "expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "role" => {
                    role = Some(match value {
                        "router" => Role::Router,
                        "storage" => Role::Storage,
                        "both" => Role::Both,
                        _ => return Err(ConfigError::bad("role", "must be router|storage|both")),
                    })
                }
                "listen" => {
                    listen = Some(
                        value.parse().map_err(|_| ConfigError::bad("listen", "bad socket addr"))?,
                    )
                }
                "seed" => {
                    let bytes = hex_decode(value).ok_or(ConfigError::bad("seed", "must be hex"))?;
                    let arr: [u8; 32] = bytes
                        .try_into()
                        .map_err(|_| ConfigError::bad("seed", "must be 32 bytes (64 hex chars)"))?;
                    seed = Some(arr);
                }
                "label" => label = Some(value.to_string()),
                "peer" => peers
                    .push(value.parse().map_err(|_| ConfigError::bad("peer", "bad socket addr"))?),
                "router" => {
                    router =
                        Some(Name::from_hex(value).ok_or(ConfigError::bad("router", "bad name"))?)
                }
                "data_dir" => data_dir = Some(PathBuf::from(value)),
                "store_engine" => match value {
                    "segmented" => segmented_requested = true,
                    "file" => {
                        return Err(ConfigError::bad(
                            "store_engine",
                            "the file engine was removed; segmented is the only engine",
                        ))
                    }
                    _ => return Err(ConfigError::bad("store_engine", "must be segmented")),
                },
                "fsync" => {
                    fsync = Some(
                        FsyncPolicy::parse(value)
                            .ok_or(ConfigError::bad("fsync", "must be always|batch(<ms>)"))?,
                    )
                }
                "stats_path" => stats_path = Some(PathBuf::from(value)),
                "host" => hosts.push(HostSpec::parse(value)?),
                "read_cache_bytes" | "max_open_segments" | "shards" | "shard_batch" => {
                    return Err(ConfigError::bad(
                        key,
                        "was removed; the built-in default is the only value in use",
                    ))
                }
                "admission_rate" => {
                    admission_rate = Some(value.parse::<u64>().map_err(|_| {
                        ConfigError::bad("admission_rate", "must be frames/second (0 disables)")
                    })?);
                }
                "admission_burst" => {
                    let n: u64 = value.parse().map_err(|_| {
                        ConfigError::bad("admission_burst", "must be a positive frame count")
                    })?;
                    if n == 0 {
                        return Err(ConfigError::bad("admission_burst", "must be at least 1"));
                    }
                    admission_burst = Some(n);
                }
                other => return Err(ConfigError::bad(other, "unknown key")),
            }
        }
        let cfg = NodeConfig {
            role: role.ok_or(ConfigError::bad("role", "missing"))?,
            listen: listen.ok_or(ConfigError::bad("listen", "missing"))?,
            seed: seed.ok_or(ConfigError::bad("seed", "missing"))?,
            label: label.ok_or(ConfigError::bad("label", "missing"))?,
            peers,
            router,
            data_dir,
            fsync,
            stats_path,
            hosts,
            admission_rate: admission_rate.unwrap_or(0),
            admission_burst: admission_burst.unwrap_or(64),
        };
        if admission_burst.is_some() && cfg.admission_rate == 0 {
            return Err(ConfigError::bad("admission_burst", "requires admission_rate > 0"));
        }
        if cfg.data_dir.is_none() {
            // Without a data_dir capsules live in memory: a key that tunes
            // or asks for the durable log is a mistake, not a no-op.
            for (key, set) in
                [("store_engine", segmented_requested), ("fsync", cfg.fsync.is_some())]
            {
                if set {
                    return Err(ConfigError::bad(key, "requires data_dir"));
                }
            }
        }
        if cfg.role == Role::Storage && cfg.router.is_none() {
            return Err(ConfigError::bad("router", "required for role = storage"));
        }
        if cfg.router.is_some() && cfg.peers.is_empty() {
            return Err(ConfigError::bad("peer", "the router above is reached through a peer"));
        }
        Ok(cfg)
    }

    /// Renders the config back to the file format (inverse of `parse`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let role = match self.role {
            Role::Router => "router",
            Role::Storage => "storage",
            Role::Both => "both",
        };
        out.push_str(&format!("role = {role}\n"));
        out.push_str(&format!("listen = {}\n", self.listen));
        // gdp-lint: allow(SK01) -- render() *is* the config file serializer; the seed is the file's contents, written only where the operator points it
        out.push_str(&format!("seed = {}\n", hex_encode(&self.seed)));
        out.push_str(&format!("label = {}\n", self.label));
        for p in &self.peers {
            out.push_str(&format!("peer = {p}\n"));
        }
        if let Some(r) = &self.router {
            out.push_str(&format!("router = {}\n", r.to_hex()));
        }
        if let Some(d) = &self.data_dir {
            out.push_str(&format!("data_dir = {}\n", d.display()));
        }
        if let Some(p) = &self.fsync {
            out.push_str(&format!("fsync = {}\n", p.render()));
        }
        if let Some(s) = &self.stats_path {
            out.push_str(&format!("stats_path = {}\n", s.display()));
        }
        if self.admission_rate != 0 {
            out.push_str(&format!("admission_rate = {}\n", self.admission_rate));
            if self.admission_burst != 64 {
                out.push_str(&format!("admission_burst = {}\n", self.admission_burst));
            }
        }
        for h in &self.hosts {
            out.push_str(&format!("host = {}\n", h.render()));
        }
        out
    }
}

/// Lowercase hex encoding.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Hex decoding; `None` on odd length or non-hex characters.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_capsule::MetadataBuilder;
    use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope};
    use gdp_crypto::SigningKey;

    fn sample_host() -> HostSpec {
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let writer = SigningKey::from_seed(&[2u8; 32]);
        let meta = MetadataBuilder::new().writer(&writer.verifying_key()).sign(&owner);
        let server = PrincipalId::from_seed(PrincipalKind::Server, &[3u8; 32], "cfg-srv");
        let chain = ServingChain::direct(
            AdCert::issue(&owner, meta.name(), server.name(), false, Scope::Global, 1 << 50),
            server.principal().clone(),
        );
        HostSpec { metadata: meta, chain, peers: vec![Name::from_content(b"replica-2")] }
    }

    #[test]
    fn roundtrip_full_config() {
        let cfg = NodeConfig {
            role: Role::Storage,
            listen: "127.0.0.1:7001".parse().unwrap(),
            seed: [7u8; 32],
            label: "storage-1".into(),
            peers: vec!["127.0.0.1:7000".parse().unwrap()],
            router: Some(Name::from_content(b"router")),
            data_dir: Some(PathBuf::from("/tmp/gdp-test")),
            fsync: Some(FsyncPolicy::Batch { interval_us: 7_000 }),
            stats_path: Some(PathBuf::from("/tmp/gdp-test/stats.json")),
            hosts: vec![sample_host()],
            admission_rate: 2_000,
            admission_burst: 128,
        };
        let text = cfg.render();
        let parsed = NodeConfig::parse(&text).unwrap();
        assert_eq!(parsed.role, cfg.role);
        assert_eq!(parsed.listen, cfg.listen);
        assert_eq!(parsed.seed, cfg.seed);
        assert_eq!(parsed.label, cfg.label);
        assert_eq!(parsed.peers, cfg.peers);
        assert_eq!(parsed.router, cfg.router);
        assert_eq!(parsed.data_dir, cfg.data_dir);
        assert_eq!(parsed.fsync, cfg.fsync);
        assert_eq!(parsed.stats_path, cfg.stats_path);
        assert_eq!(parsed.hosts.len(), 1);
        assert_eq!(parsed.hosts[0].metadata, cfg.hosts[0].metadata);
        assert_eq!(parsed.hosts[0].peers, cfg.hosts[0].peers);
        assert_eq!(parsed.admission_rate, cfg.admission_rate);
        assert_eq!(parsed.admission_burst, cfg.admission_burst);
    }

    #[test]
    fn admission_parse_render_and_validation() {
        let base = "role = router\nlisten = 127.0.0.1:0\nseed = 0101010101010101010101010101010101010101010101010101010101010101\nlabel = r\n";
        // Defaults: disabled, keys not emitted.
        let cfg = NodeConfig::parse(base).unwrap();
        assert_eq!(cfg.admission_rate, 0);
        assert_eq!(cfg.admission_burst, 64);
        assert!(!cfg.render().contains("admission"));
        // Rate alone round-trips with the default burst (not emitted).
        let cfg = NodeConfig::parse(&format!("{base}admission_rate = 5000\n")).unwrap();
        assert_eq!((cfg.admission_rate, cfg.admission_burst), (5000, 64));
        assert!(!cfg.render().contains("admission_burst"));
        // Rate + burst round-trip.
        let cfg =
            NodeConfig::parse(&format!("{base}admission_rate = 5000\nadmission_burst = 256\n"))
                .unwrap();
        let re = NodeConfig::parse(&cfg.render()).unwrap();
        assert_eq!((re.admission_rate, re.admission_burst), (5000, 256));
        // Burst without a rate is meaningless: reject with the key.
        let err = NodeConfig::parse(&format!("{base}admission_burst = 8\n")).unwrap_err();
        assert_eq!(err.key, "admission_burst");
        // Zero burst is rejected (a bucket that can never admit).
        let err = NodeConfig::parse(&format!("{base}admission_rate = 10\nadmission_burst = 0\n"))
            .unwrap_err();
        assert_eq!(err.key, "admission_burst");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = NodeConfig::parse(
            "# a router\nrole = router\n\nlisten = 127.0.0.1:0 # inline\nseed = 0101010101010101010101010101010101010101010101010101010101010101\nlabel = r\n",
        )
        .unwrap();
        assert_eq!(cfg.role, Role::Router);
    }

    #[test]
    fn unknown_key_rejected() {
        let err = NodeConfig::parse(
            "role = router\nlisten = 127.0.0.1:0\nseed = 00\nlabel = x\nbogus = 1\n",
        );
        assert!(err.is_err());
    }

    #[test]
    fn storage_requires_router_and_peer() {
        let text = format!(
            "role = storage\nlisten = 127.0.0.1:0\nseed = {}\nlabel = s\n",
            hex_encode(&[9u8; 32])
        );
        let err = NodeConfig::parse(&text).unwrap_err();
        assert_eq!(err.key, "router");
    }

    #[test]
    fn a_parent_router_needs_a_peer() {
        let base = format!(
            "role = router\nlisten = 127.0.0.1:0\nseed = {}\nlabel = leaf\nrouter = {}\n",
            hex_encode(&[9u8; 32]),
            Name::from_content(b"root").to_hex()
        );
        assert_eq!(NodeConfig::parse(&base).unwrap_err().key, "peer");
        let with_peer = format!("{base}peer = 127.0.0.1:7000\n");
        assert_eq!(
            NodeConfig::parse(&with_peer).unwrap().router,
            Some(Name::from_content(b"root"))
        );
    }

    #[test]
    fn store_engine_and_fsync_parse_render_and_validation() {
        let base = "role = router\nlisten = 127.0.0.1:0\nseed = 0101010101010101010101010101010101010101010101010101010101010101\nlabel = r\n";
        // Defaults: no explicit policy, keys not emitted.
        let cfg = NodeConfig::parse(base).unwrap();
        assert_eq!(cfg.fsync, None);
        assert!(!cfg.render().contains("fsync"));
        // An explicit policy round-trips; `store_engine = segmented` from
        // older configs still parses, changes nothing and is not emitted.
        let text =
            format!("{base}data_dir = /tmp/d\nstore_engine = segmented\nfsync = batch(12)\n");
        let cfg = NodeConfig::parse(&text).unwrap();
        assert_eq!(cfg.fsync, Some(FsyncPolicy::Batch { interval_us: 12_000 }));
        assert!(!cfg.render().contains("store_engine"));
        assert_eq!(NodeConfig::parse(&cfg.render()).unwrap().fsync, cfg.fsync);
        // The removed engine and the removed policy are rejected with the
        // offending key, as is any other bad value.
        let dir = format!("{base}data_dir = /tmp/d\n");
        for (line, key) in [
            ("store_engine = file", "store_engine"),
            ("store_engine = sqlite", "store_engine"),
            ("fsync = never", "fsync"),
            ("fsync = batch(0)", "fsync"),
        ] {
            assert_eq!(NodeConfig::parse(&format!("{dir}{line}\n")).unwrap_err().key, key);
        }
        // Both keys are meaningless without a data_dir: reject.
        let err = NodeConfig::parse(&format!("{base}store_engine = segmented\n")).unwrap_err();
        assert_eq!(err.key, "store_engine");
        let err = NodeConfig::parse(&format!("{base}fsync = always\n")).unwrap_err();
        assert_eq!(err.key, "fsync");
    }

    #[test]
    fn removed_tuning_keys_are_rejected_by_name() {
        let base = "role = router\nlisten = 127.0.0.1:0\nseed = 0101010101010101010101010101010101010101010101010101010101010101\nlabel = r\ndata_dir = /tmp/d\n";
        for (key, value) in [
            ("read_cache_bytes", "64"),
            ("max_open_segments", "64"),
            ("shards", "1"),
            ("shards", "4"),
            ("shard_batch", "64"),
        ] {
            let err = NodeConfig::parse(&format!("{base}{key} = {value}\n")).unwrap_err();
            assert_eq!(err.key, key);
            assert!(err.reason.contains("removed"), "{err}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        assert_eq!(hex_decode(&hex_encode(&[0x00, 0xff, 0x5a])).unwrap(), vec![0x00, 0xff, 0x5a]);
        assert!(hex_decode("zz").is_none());
        assert!(hex_decode("abc").is_none());
    }
}
