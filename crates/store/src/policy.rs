//! Durability policy of the storage engine.
//!
//! The segmented log ([`SegLog`](crate::SegLog)) answers *when does an
//! append become durable?* with one of two answers:
//!
//! * [`FsyncPolicy::Always`]: fsync after every append. Appends ack
//!   immediately *and* durably — at the cost of one `fdatasync` per record.
//! * [`FsyncPolicy::Batch`]: group-commit (the default, 5 ms). Appends are
//!   buffered and acked [`AppendAck::Pending`] with the durability epoch
//!   that will cover them; a periodic `flush(now)` issues one write + one
//!   fsync for the whole batch and advances the durable epoch. Bounded ack
//!   latency, one fsync amortised over every append in the window.
//!
//! There is no "never fsync" answer: an acked append is a durable append.
//!
//! The config syntax (`fsync = "always" | "batch(5)"`, argument in
//! milliseconds) round-trips through [`FsyncPolicy::parse`] and
//! [`FsyncPolicy::render`].

/// When appends are fsynced (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append.
    Always,
    /// Group-commit: one fsync per flush interval (µs).
    Batch {
        /// Maximum time an append waits for its covering fsync.
        interval_us: u64,
    },
}

impl FsyncPolicy {
    /// The default group-commit window: 5 ms.
    pub const DEFAULT_BATCH: FsyncPolicy = FsyncPolicy::Batch { interval_us: 5_000 };

    /// Parses the config syntax: `always` or `batch(<ms>)`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        let s = s.trim();
        if s == "always" {
            return Some(FsyncPolicy::Always);
        }
        let inner = s.strip_prefix("batch(")?.strip_suffix(')')?;
        let ms: u64 = inner.trim().parse().ok()?;
        if ms == 0 || ms > 60_000 {
            return None;
        }
        Some(FsyncPolicy::Batch { interval_us: ms * 1_000 })
    }

    /// Renders back to the config syntax (inverse of [`FsyncPolicy::parse`]).
    pub fn render(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Batch { interval_us } => format!("batch({})", interval_us / 1_000),
        }
    }
}

/// What a [`SegLog::append`](crate::SegLog::append) caller may
/// tell the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendAck {
    /// The record is durable: ack immediately.
    Durable,
    /// The record is written but not yet fsynced; hold the ack until
    /// [`maintain`](crate::SegLog::maintain) returns an epoch `>=` this.
    Pending(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        for p in [FsyncPolicy::Always, FsyncPolicy::DEFAULT_BATCH] {
            assert_eq!(FsyncPolicy::parse(&p.render()), Some(p));
        }
        assert_eq!(
            FsyncPolicy::parse("batch(25)"),
            Some(FsyncPolicy::Batch { interval_us: 25_000 })
        );
        assert_eq!(FsyncPolicy::parse(" always "), Some(FsyncPolicy::Always));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in
            ["", "batch", "batch()", "batch(0)", "batch(-1)", "batch(99999999)", "sync", "never"]
        {
            assert_eq!(FsyncPolicy::parse(bad), None, "{bad:?} must not parse");
        }
    }
}
