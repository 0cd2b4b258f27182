//! Control-plane messages carried in PDU payloads.
//!
//! Three families, matching the router-visible PDU types:
//! * [`AdvertiseMsg`] — the secure-advertisement handshake (§VII).
//! * [`ControlMsg`] — router-to-router route announcements up the domain
//!   hierarchy (GLookupService population).
//! * [`LookupMsg`] — GLookupService queries, recursing to the parent
//!   domain on a miss, with independently verifiable answers.

use gdp_cert::{
    AdvertExtension, Advertisement, CapsuleAdvert, CertError, Challenge, ChallengeProof, Principal,
    RtCert,
};
use gdp_wire::{DecodeError, Decoder, Encoder, Name, Wire};

/// A route to one capsule (or principal) that anyone can re-verify:
/// the full advertisement entry plus the server→router delegation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedRoute {
    /// The capsule entry (metadata + serving chain), or `None` when the
    /// route is for a bare principal (a client or server's own name).
    /// Boxed: a bare route, one per attached principal, then holds a
    /// pointer rather than an advert's worth of empty space.
    pub entry: Option<Box<CapsuleAdvert>>,
    /// The served name (capsule name, or the principal's own name).
    pub name: Name,
    /// The serving principal (public identity; lets anyone re-verify the
    /// RtCert and chain end).
    pub server: Principal,
    /// Server-issued delegation to the router that first admitted it.
    pub rtcert: RtCert,
    /// Expiry (min over the underlying certificates).
    pub expires: u64,
}

impl VerifiedRoute {
    /// The serving principal's flat name.
    pub fn server_name(&self) -> Name {
        self.server.name()
    }

    /// Full independent re-verification: the GLookupService is untrusted,
    /// so queriers (and routers caching answers) run this on every route
    /// they receive (paper §VII: "the returned information is
    /// independently verifiable").
    pub fn verify(&self, now: u64) -> Result<(), CertError> {
        if now > self.expires {
            return Err(CertError::Expired { kind: "VerifiedRoute", expires: self.expires, now });
        }
        let server_name = self.server.name();
        if self.rtcert.principal != server_name {
            return Err(CertError::BrokenChain("RtCert principal is not the server"));
        }
        self.rtcert.verify(&self.server.key, now)?;
        match &self.entry {
            Some(entry) => {
                if entry.capsule() != self.name {
                    return Err(CertError::BrokenChain("route name is not the entry capsule"));
                }
                entry.verify(&server_name, now)
            }
            None => {
                if self.name != server_name {
                    return Err(CertError::BrokenChain(
                        "bare route name is not the principal name",
                    ));
                }
                Ok(())
            }
        }
    }
}

impl Wire for VerifiedRoute {
    fn encode(&self, enc: &mut Encoder) {
        enc.option(&self.entry, |e, entry| entry.encode(e));
        enc.name(&self.name);
        self.server.encode(enc);
        self.rtcert.encode(enc);
        enc.varint(self.expires);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let entry = dec.option(CapsuleAdvert::decode)?.map(Box::new);
        let name = dec.name()?;
        let server = Principal::decode(dec)?;
        let rtcert = RtCert::decode(dec)?;
        let expires = dec.varint()?;
        Ok(VerifiedRoute { entry, name, server, rtcert, expires })
    }
}

/// Secure-advertisement handshake messages (PduType::Advertise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdvertiseMsg {
    /// Advertiser → router: request to attach.
    Hello,
    /// Router → advertiser: prove possession of your key.
    ChallengeMsg(Challenge),
    /// Advertiser → router: proof + catalog + RtCert for this router.
    Attach {
        /// Key-possession proof bound to this router.
        proof: ChallengeProof,
        /// Signed catalog of served capsules (may be empty for clients).
        advertisement: Advertisement,
        /// Delegation allowing this router to carry the advertiser's
        /// traffic (issued after the challenge succeeds, §VII).
        rtcert: RtCert,
    },
    /// Router → advertiser: attach accepted; `accepted` lists the names
    /// now routed here.
    Accepted {
        /// Names installed in the FIB.
        accepted: Vec<Name>,
    },
    /// Router → advertiser: attach rejected.
    Rejected {
        /// Human-readable reason (not trusted).
        reason: String,
    },
    /// Advertiser → router: defer the expiry of the previously attached
    /// catalog "as a group" without re-shipping the entries (paper §VII).
    Extend {
        /// Signed extension record bound to the catalog digest.
        extension: AdvertExtension,
    },
}

impl Wire for AdvertiseMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            AdvertiseMsg::Hello => {
                enc.u8(0);
            }
            AdvertiseMsg::ChallengeMsg(c) => {
                enc.u8(1);
                c.encode(enc);
            }
            AdvertiseMsg::Attach { proof, advertisement, rtcert } => {
                enc.u8(2);
                proof.encode(enc);
                advertisement.encode(enc);
                rtcert.encode(enc);
            }
            AdvertiseMsg::Accepted { accepted } => {
                enc.u8(3);
                enc.seq(accepted, |e, n| {
                    e.name(n);
                });
            }
            AdvertiseMsg::Rejected { reason } => {
                enc.u8(4);
                enc.string(reason);
            }
            AdvertiseMsg::Extend { extension } => {
                enc.u8(5);
                extension.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.u8()? {
            0 => AdvertiseMsg::Hello,
            1 => AdvertiseMsg::ChallengeMsg(Challenge::decode(dec)?),
            2 => AdvertiseMsg::Attach {
                proof: ChallengeProof::decode(dec)?,
                advertisement: Advertisement::decode(dec)?,
                rtcert: RtCert::decode(dec)?,
            },
            3 => AdvertiseMsg::Accepted { accepted: dec.seq(|d| d.name())? },
            4 => AdvertiseMsg::Rejected { reason: dec.string()? },
            5 => AdvertiseMsg::Extend { extension: AdvertExtension::decode(dec)? },
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

/// Router-to-router control messages (PduType::RouterControl).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlMsg {
    /// A child router announces reachability of a name through itself,
    /// carrying the verifiable route and the hop distance from the origin.
    Announce {
        /// The verifiable route.
        route: VerifiedRoute,
        /// Router hops from the serving attachment point.
        distance: u32,
    },
}

impl Wire for ControlMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ControlMsg::Announce { route, distance } => {
                enc.u8(0);
                route.encode(enc);
                enc.u32(*distance);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => Ok(ControlMsg::Announce {
                route: VerifiedRoute::decode(dec)?,
                distance: dec.u32()?,
            }),
            t => Err(DecodeError::BadTag(t as u64)),
        }
    }
}

/// GLookupService messages (PduType::Lookup).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LookupMsg {
    /// Query for a name; `query_id` correlates the answer.
    Query {
        /// Correlation id.
        query_id: u64,
        /// The flat name being resolved.
        name: Name,
    },
    /// Answer with zero or more verifiable routes.
    Answer {
        /// Echo of the query id.
        query_id: u64,
        /// The resolved name.
        name: Name,
        /// Verifiable routes (empty = not found).
        routes: Vec<VerifiedRoute>,
    },
}

impl Wire for LookupMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            LookupMsg::Query { query_id, name } => {
                enc.u8(0);
                enc.varint(*query_id);
                enc.name(name);
            }
            LookupMsg::Answer { query_id, name, routes } => {
                enc.u8(1);
                enc.varint(*query_id);
                enc.name(name);
                enc.seq(routes, |e, r| r.encode(e));
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.u8()? {
            0 => LookupMsg::Query { query_id: dec.varint()?, name: dec.name()? },
            1 => LookupMsg::Answer {
                query_id: dec.varint()?,
                name: dec.name()?,
                routes: dec.seq(VerifiedRoute::decode)?,
            },
            t => return Err(DecodeError::BadTag(t as u64)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_cert::{AdCert, PrincipalId, PrincipalKind, Scope, ServingChain};
    use gdp_crypto::SigningKey;

    fn sample_route() -> VerifiedRoute {
        let owner = SigningKey::from_seed(&[1u8; 32]);
        let server = PrincipalId::from_seed(PrincipalKind::Server, &[2u8; 32], "s");
        let router = PrincipalId::from_seed(PrincipalKind::Router, &[3u8; 32], "r");
        let capsule = Name::from_content(b"c");
        let rtcert = RtCert::issue(server.signing_key(), server.name(), router.name(), 99);
        let _chain = ServingChain::direct(
            AdCert::issue(&owner, capsule, server.name(), false, Scope::Global, 99),
            server.principal().clone(),
        );
        VerifiedRoute {
            entry: None,
            name: capsule,
            server: server.principal().clone(),
            rtcert,
            expires: 99,
        }
    }

    #[test]
    fn advertise_msgs_roundtrip() {
        let msgs = vec![
            AdvertiseMsg::Hello,
            AdvertiseMsg::ChallengeMsg(Challenge::random()),
            AdvertiseMsg::Accepted { accepted: vec![Name::from_content(b"x")] },
            AdvertiseMsg::Rejected { reason: "bad chain".to_string() },
        ];
        for m in msgs {
            assert_eq!(AdvertiseMsg::from_wire(&m.to_wire()).unwrap(), m);
        }
    }

    #[test]
    fn control_and_lookup_roundtrip() {
        let route = sample_route();
        let c = ControlMsg::Announce { route: route.clone(), distance: 3 };
        assert_eq!(ControlMsg::from_wire(&c.to_wire()).unwrap(), c);

        let q = LookupMsg::Query { query_id: 9, name: route.name };
        assert_eq!(LookupMsg::from_wire(&q.to_wire()).unwrap(), q);
        let a = LookupMsg::Answer { query_id: 9, name: route.name, routes: vec![route] };
        assert_eq!(LookupMsg::from_wire(&a.to_wire()).unwrap(), a);
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(AdvertiseMsg::from_wire(&[99]).is_err());
        assert!(ControlMsg::from_wire(&[99]).is_err());
        assert!(LookupMsg::from_wire(&[99]).is_err());
    }
}
