//! Control-over-data ingress prioritization for node event loops.
//!
//! Under overload the receive queue fills with Data-plane traffic, and a
//! router that processes it strictly FIFO starves the very messages that
//! would relieve the pressure: advertisements that install routes,
//! lookups that resolve them, attach handshakes, and session traffic.
//! [`IngressQueue`] is the fix: the event loop drains a batch from the
//! transport into it and pops control-plane PDUs first, so route
//! convergence continues while Data waits.
//!
//! Classification is deliberately cheap — the PDU type byte, plus a
//! one-byte peek at the Data payload tag for session handshakes. It is a
//! scheduling *hint* only: a wrong guess reorders a PDU within the batch,
//! it never drops or corrupts one. Within each class order stays FIFO, so
//! per-peer ordering guarantees survive for same-class traffic.
//!
//! This queue is every node's sole ingress path, and its prioritization
//! is what keeps convergence alive under a Data flood.

// Non-test matches on wire enums (`Pdu`, `PduType`, `DataMsg`) name every variant: a
// new variant is a compile error here, not silent message loss behind a `_ =>`.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use gdp_wire::{Pdu, PduType};
use std::collections::VecDeque;

/// Wire tags of the `DataMsg` session-handshake messages (`SessionInit`,
/// `SessionAccept`) — the one Data-plane exchange that gates everything
/// else a client does, so it rides with the control plane.
const TAG_SESSION_INIT: u8 = 0;
const TAG_SESSION_ACCEPT: u8 = 1;

/// A two-class priority queue the event loop drains batches through.
#[derive(Debug, Default)]
pub struct IngressQueue<P> {
    control: VecDeque<(P, Pdu)>,
    data: VecDeque<(P, Pdu)>,
    preemptions: u64,
}

/// True for PDUs that must dequeue ahead of Data under pressure.
fn is_control(pdu: &Pdu) -> bool {
    match pdu.pdu_type {
        PduType::Advertise | PduType::Lookup | PduType::RouterControl | PduType::Error => true,
        PduType::Data => {
            matches!(pdu.payload.first(), Some(&TAG_SESSION_INIT | &TAG_SESSION_ACCEPT))
        }
    }
}

impl<P> IngressQueue<P> {
    /// An empty queue.
    pub fn new() -> IngressQueue<P> {
        IngressQueue { control: VecDeque::new(), data: VecDeque::new(), preemptions: 0 }
    }

    /// Enqueues one received PDU into its class.
    pub fn push(&mut self, from: P, pdu: Pdu) {
        if is_control(&pdu) {
            self.control.push_back((from, pdu));
        } else {
            self.data.push_back((from, pdu));
        }
    }

    /// Dequeues the next PDU: control-plane first, FIFO within a class.
    pub fn pop(&mut self) -> Option<(P, Pdu)> {
        if let Some(item) = self.control.pop_front() {
            if !self.data.is_empty() {
                self.preemptions += 1;
            }
            return Some(item);
        }
        self.data.pop_front()
    }

    /// Queued PDUs across both classes.
    pub fn len(&self) -> usize {
        self.control.len() + self.data.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.control.is_empty() && self.data.is_empty()
    }

    /// Times a control-plane PDU dequeued ahead of waiting Data — the
    /// signal that prioritization actually did work under pressure.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_wire::Name;

    fn pdu(pdu_type: PduType, payload: &[u8]) -> Pdu {
        Pdu {
            pdu_type,
            src: Name::from_content(b"src"),
            dst: Name::from_content(b"dst"),
            seq: 0,
            payload: payload.to_vec().into(),
        }
    }

    #[test]
    fn control_dequeues_ahead_of_data() {
        let mut q = IngressQueue::new();
        q.push(1, pdu(PduType::Data, &[3])); // Append
        q.push(2, pdu(PduType::Data, &[5])); // Read
        q.push(3, pdu(PduType::Advertise, &[]));
        q.push(4, pdu(PduType::Lookup, &[]));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![3, 4, 1, 2], "control first, FIFO within class");
        assert_eq!(q.preemptions(), 2, "both control pops jumped queued data");
    }

    #[test]
    fn session_handshake_rides_with_control() {
        let mut q = IngressQueue::new();
        q.push(1, pdu(PduType::Data, &[3])); // Append: data class
        q.push(2, pdu(PduType::Data, &[TAG_SESSION_INIT])); // handshake
        q.push(3, pdu(PduType::Data, &[TAG_SESSION_ACCEPT])); // handshake
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.pop().unwrap().0, 3);
        assert_eq!(q.pop().unwrap().0, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_when_no_pressure() {
        // All-data and all-control batches stay strictly FIFO, and popping
        // control with no data waiting is not a preemption.
        let mut q = IngressQueue::new();
        for i in 0..4u32 {
            q.push(i, pdu(PduType::RouterControl, &[]));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(q.preemptions(), 0);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn empty_payload_data_is_data() {
        let mut q = IngressQueue::new();
        q.push(1u8, pdu(PduType::Data, &[]));
        q.push(2u8, pdu(PduType::Error, &[]));
        assert_eq!(q.pop().unwrap().0, 2, "error PDUs are control");
        assert_eq!(q.pop().unwrap().0, 1);
    }
}
