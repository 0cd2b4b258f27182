//! # gdp-router
//!
//! The GDP-router and its routing ecosystem: the [`Fib`] forwarding table,
//! the [`GLookup`] verified routing database (one per routing domain, with
//! hierarchical recursion to the parent and a global root — paper §VII),
//! the control-plane [`messages`], and the sans-I/O [`Router`] state
//! machine.
//!
//! Routing goals implemented (paper §VII): "(a) provide locality of access
//! and enable 'anycast' for the layer above, and (b) ensure routing
//! security to prevent trivial man-in-the-middle attacks, i.e. ensure that
//! people can not simply claim any name they desire."

#![forbid(unsafe_code)]

pub mod attach;
pub mod dht;
pub mod fib;
pub mod glookup;
pub mod messages;
pub mod router;

pub use attach::{attach_directly, AttachStep, Attacher};
pub use dht::{DhtCluster, DhtNode};
pub use fib::{Fib, FibEntry, NeighborId};
pub use glookup::GLookup;
pub use messages::{AdvertiseMsg, ControlMsg, LookupMsg, VerifiedRoute};
pub use router::{Outbox, Router};
