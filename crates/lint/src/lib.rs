//! # gdp-lint
//!
//! An offline, dependency-free static analyzer for the GDP workspace. The
//! paper's security argument (§IV/§VII) rests on invariants the compiler
//! cannot see; each rule here turns one of them from a code-review
//! convention into a CI gate. A check lives here only while no rustc or
//! clippy lint enforces the same invariant — hot-path panics, swallowed
//! wire variants, the single-writer counter and `unsafe` are compiler
//! lints declared in the files they guard (DESIGN.md, "Static analysis").
//!
//! | rule | invariant |
//! |---|---|
//! | `CT01` | MAC/tag/digest/signature byte comparisons are constant-time (`gdp_crypto::ct::eq`), never `==`/`!=` |
//! | `SK01` | secret key material never reaches `Debug`/format/trace output |
//! | `LK01` | the global lock graph is acyclic: no guard live-range (interprocedural, one call deep) acquires locks in a cycle-forming order |
//! | `LK02` | no blocking call (`fsync`, `write_all`, `pread_fill`, channel ops, `File::open`, `sleep`, `spawn`) while a hot-path lock is held |
//! | `CH01` | data-plane sends go to `bounded` channels, control lanes drain before data in dual-polling loops, cloned senders have a shutdown path |
//! | `OB02` | registered metric names, DESIGN.md's metric-namespace tables, and chaos conservation laws agree exactly |
//!
//! The first two are per-file token rules; the `LK`/`CH`/`OB02` family
//! runs on a two-pass, workspace-wide analysis: pass 1 builds a
//! cross-file symbol table and call graph ([`symbols`], [`callgraph`]),
//! pass 2 evaluates lock-guard live ranges, channel constructor kinds,
//! and the metric namespace against it.
//!
//! A finding is suppressed — deliberately and auditable — with a trailing
//! or preceding comment naming the rule *and a reason*:
//!
//! ```text
//! // gdp-lint: allow(SK01) -- render() writes the config file; the seed is its contents
//! ```
//!
//! Suppressions without a `-- reason` trailer are invalid and do not
//! suppress. The analyzer is a hand-rolled lexer (comment- and
//! string-aware, no `syn`) plus token-stream rules; it scans the whole
//! workspace in well under a second.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod symbols;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One diagnostic: a rule violation at an exact source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID (`CT01`, `SK01`, ...).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description with the fix direction.
    pub message: String,
}

/// A finding that was matched by a valid `gdp-lint: allow` comment.
#[derive(Clone, Debug)]
pub struct Suppressed {
    /// Rule ID.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// Line of the suppressed finding.
    pub line: usize,
}

/// Analyzer output.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by valid suppression comments.
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// Per-rule counts of unsuppressed findings (every rule present,
    /// zeros included, so CI logs show full coverage).
    pub fn by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut map: BTreeMap<&'static str, usize> =
            rules::RULE_IDS.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *map.entry(f.rule).or_insert(0) += 1;
        }
        map
    }
}

/// Rule configuration. [`LintConfig::default`] encodes the workspace
/// policy; tests may build custom configs.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Path fragments of modules where `LK02` polices blocking calls
    /// under a held lock.
    pub blocking_sensitive_modules: Vec<String>,
    /// Call names `LK02` treats as blocking. Structural refinements in
    /// the call-graph scan keep the common ones precise (`join` must be
    /// argless, `open` must be `File::open`/`.open(`, channel ops must
    /// be method calls; `try_send`/`try_recv` never match).
    pub blocking_calls: Vec<String>,
    /// Path fragments of data-plane modules for `CH01`: sends must go
    /// to bounded lanes, control drains before data, cloned senders
    /// need a shutdown path.
    pub data_plane_modules: Vec<String>,
    /// Identifier segments marking a channel name as a control lane
    /// (`ctrl_rx`, `ev_tx`, ...): exempt from the bounded-lane check
    /// and required to drain first in dual-polling loops.
    pub control_lane_markers: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            blocking_sensitive_modules: vec![
                "crates/router/src/router.rs".into(),
                "crates/router/src/fib.rs".into(),
                "crates/node/src/runtime.rs".into(),
                "crates/node/src/bin/gdpd.rs".into(),
                "crates/net/src/tcp.rs".into(),
                // The engine's once-cell for its shared log: only the
                // first open may run recovery under it, by an allow.
                "crates/store/src/engine.rs".into(),
                // The log has no lock; one put back around its I/O is
                // flagged here.
                "crates/store/src/seglog/mod.rs".into(),
                "crates/store/src/seglog/writer.rs".into(),
                "crates/store/src/seglog/cache.rs".into(),
                "crates/store/src/seglog/fdpool.rs".into(),
                // The rule's own fixture corpus.
                "fixtures/lk02/".into(),
            ],
            blocking_calls: [
                "fsync",
                "fdatasync",
                "sync_all",
                "sync_data",
                "write_all",
                "read_fill",
                "pread_fill",
                "read_exact",
                // The store's file layer (`gdp_store::io`): its sync, write
                // and open names are the std ones above.
                "read_at",
                "read_exact_at",
                "sleep",
                "send",
                "recv",
                "recv_timeout",
                "open",
                "connect",
                "accept",
                "join",
                "spawn",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            data_plane_modules: vec![
                "crates/router/src/router.rs".into(),
                "crates/node/src/runtime.rs".into(),
                "crates/node/src/bin/gdpd.rs".into(),
                "crates/net/src/tcp.rs".into(),
                // The rule's own fixture corpus.
                "fixtures/ch01/".into(),
            ],
            control_lane_markers: vec![
                "ctrl".into(),
                "control".into(),
                "ev".into(),
                "event".into(),
                "shutdown".into(),
                "wake".into(),
            ],
        }
    }
}

/// Convenience wrapper: lint `paths` under `root` with the default
/// workspace policy. `default_scan` selects the production file filter.
pub fn lint(root: &Path, paths: &[PathBuf], default_scan: bool) -> std::io::Result<Report> {
    engine::lint_paths(root, paths, &LintConfig::default(), default_scan)
}
