//! The capsule-access abstraction CAAPIs are built on.
//!
//! "The DataCapsule-interface is rather open to system integrators and they
//! can put together an interface of their choice that uses these
//! DataCapsules underneath" (paper §V-B). A [`CapsuleAccess`] backend is
//! that underneath: append/read/latest against capsules by flat name. Two
//! implementations exist:
//!
//! * [`LocalBackend`] — in-process capsules (tests, embedded use);
//! * `gdp_sim::GdpWorld` — the same operations driven through the full
//!   client → router → server stack on the simulator.

use gdp_capsule::{
    CapsuleError, CapsuleMetadata, CapsuleWriter, DataCapsule, PointerStrategy, Record,
};
use gdp_crypto::SigningKey;
use gdp_wire::Name;
use std::collections::HashMap;

/// Errors surfaced by CAAPIs.
#[derive(Debug)]
pub enum CaapiError {
    /// The capsule layer rejected the operation.
    Capsule(CapsuleError),
    /// The named capsule is unknown to the backend.
    UnknownCapsule(Name),
    /// A read returned no data.
    NotFound(String),
    /// The stored bytes did not parse as the CAAPI's record format.
    Format(String),
    /// The backend transport failed (timeout, unreachable, rejected).
    Transport(String),
    /// The operation conflicts with CAAPI invariants (e.g. duplicate key
    /// in a create-exclusive).
    Conflict(String),
}

impl std::fmt::Display for CaapiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaapiError::Capsule(e) => write!(f, "capsule error: {e}"),
            CaapiError::UnknownCapsule(n) => write!(f, "unknown capsule {n}"),
            CaapiError::NotFound(w) => write!(f, "not found: {w}"),
            CaapiError::Format(w) => write!(f, "format error: {w}"),
            CaapiError::Transport(w) => write!(f, "transport error: {w}"),
            CaapiError::Conflict(w) => write!(f, "conflict: {w}"),
        }
    }
}

impl std::error::Error for CaapiError {}

impl From<CapsuleError> for CaapiError {
    fn from(e: CapsuleError) -> Self {
        CaapiError::Capsule(e)
    }
}

/// Backend operations every CAAPI builds on.
pub trait CapsuleAccess {
    /// Creates a new capsule whose single writer this backend controls.
    /// Returns the capsule name.
    fn create_capsule(
        &mut self,
        metadata: CapsuleMetadata,
        writer: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<Name, CaapiError>;

    /// Appends a record body; returns the assigned sequence number.
    fn append(&mut self, capsule: &Name, body: &[u8]) -> Result<u64, CaapiError>;

    /// Appends several bodies; returns the last assigned sequence number.
    /// Backends with a network path override this to pipeline the appends
    /// (the single writer needs no round trip between records — §V-A:
    /// "the writer can make progress while the DataCapsule-server
    /// propagates the new updates ... in the background").
    fn append_batch(&mut self, capsule: &Name, bodies: &[Vec<u8>]) -> Result<u64, CaapiError> {
        let mut last = 0;
        for body in bodies {
            last = self.append(capsule, body)?;
        }
        Ok(last)
    }

    /// Reads one record by sequence number (verified).
    fn read(&mut self, capsule: &Name, seq: u64) -> Result<Record, CaapiError>;

    /// Reads an inclusive range (verified, oldest first).
    fn read_range(&mut self, capsule: &Name, from: u64, to: u64)
        -> Result<Vec<Record>, CaapiError>;

    /// The newest record, or `None` when empty.
    fn latest(&mut self, capsule: &Name) -> Result<Option<Record>, CaapiError>;

    /// Highest sequence number (0 when empty).
    fn latest_seq(&mut self, capsule: &Name) -> Result<u64, CaapiError> {
        Ok(self.latest(capsule)?.map(|r| r.header.seq).unwrap_or(0))
    }
}

struct LocalEntry {
    capsule: DataCapsule,
    writer: CapsuleWriter,
    clock: u64,
}

/// In-process backend: capsules live in memory, appends are immediate.
#[derive(Default)]
pub struct LocalBackend {
    entries: HashMap<Name, LocalEntry>,
}

impl LocalBackend {
    /// Creates an empty backend.
    pub fn new() -> LocalBackend {
        LocalBackend::default()
    }

    /// Direct read access to a capsule (test introspection).
    pub fn capsule(&self, name: &Name) -> Option<&DataCapsule> {
        self.entries.get(name).map(|e| &e.capsule)
    }
}

impl CapsuleAccess for LocalBackend {
    fn create_capsule(
        &mut self,
        metadata: CapsuleMetadata,
        writer: SigningKey,
        strategy: PointerStrategy,
    ) -> Result<Name, CaapiError> {
        let name = metadata.name();
        let capsule = DataCapsule::new(metadata.clone())?;
        let writer = CapsuleWriter::new(&metadata, writer, strategy)?;
        self.entries.insert(name, LocalEntry { capsule, writer, clock: 0 });
        Ok(name)
    }

    fn append(&mut self, capsule: &Name, body: &[u8]) -> Result<u64, CaapiError> {
        let entry = self.entries.get_mut(capsule).ok_or(CaapiError::UnknownCapsule(*capsule))?;
        entry.clock += 1;
        let record = entry.writer.append(body, entry.clock)?;
        let seq = record.header.seq;
        entry.capsule.ingest(record)?;
        Ok(seq)
    }

    fn read(&mut self, capsule: &Name, seq: u64) -> Result<Record, CaapiError> {
        let entry = self.entries.get(capsule).ok_or(CaapiError::UnknownCapsule(*capsule))?;
        Ok(entry.capsule.get_one(seq)?.clone())
    }

    fn read_range(
        &mut self,
        capsule: &Name,
        from: u64,
        to: u64,
    ) -> Result<Vec<Record>, CaapiError> {
        let entry = self.entries.get(capsule).ok_or(CaapiError::UnknownCapsule(*capsule))?;
        Ok(entry.capsule.range(from, to).into_iter().cloned().collect())
    }

    fn latest(&mut self, capsule: &Name) -> Result<Option<Record>, CaapiError> {
        let entry = self.entries.get(capsule).ok_or(CaapiError::UnknownCapsule(*capsule))?;
        Ok(entry.capsule.single_head()?.cloned())
    }
}

/// Helper: builds capsule metadata + a fresh writer key for a CAAPI-managed
/// capsule, signed by `owner`.
pub fn new_capsule_spec(owner: &SigningKey, description: &str) -> (CapsuleMetadata, SigningKey) {
    let writer = SigningKey::from_seed(&gdp_crypto::random_array32());
    let metadata = gdp_capsule::MetadataBuilder::new()
        .writer(&writer.verifying_key())
        .set_str(gdp_capsule::metadata::KEY_DESCRIPTION, description)
        .sign(owner);
    (metadata, writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_backend_roundtrip() {
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let mut backend = LocalBackend::new();
        let (meta, writer) = new_capsule_spec(&owner, "test");
        let name = backend.create_capsule(meta, writer, PointerStrategy::Chain).unwrap();
        assert_eq!(backend.append(&name, b"one").unwrap(), 1);
        assert_eq!(backend.append(&name, b"two").unwrap(), 2);
        assert_eq!(backend.read(&name, 1).unwrap().body, b"one");
        assert_eq!(backend.latest(&name).unwrap().unwrap().header.seq, 2);
        assert_eq!(backend.read_range(&name, 1, 2).unwrap().len(), 2);
        assert_eq!(backend.latest_seq(&name).unwrap(), 2);
    }

    #[test]
    fn unknown_capsule_errors() {
        let mut backend = LocalBackend::new();
        let ghost = Name::from_content(b"ghost");
        assert!(matches!(backend.append(&ghost, b"x"), Err(CaapiError::UnknownCapsule(_))));
        assert!(backend.read(&ghost, 1).is_err());
    }
}
