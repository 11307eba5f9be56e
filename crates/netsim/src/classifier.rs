//! Edge-router packet classification, marking, and policing.
//!
//! "Routers that are at the 'edge' of a DS network recognize packets that
//! should receive better service by classifying the packets based on
//! information in the header, such as source and destination addresses and
//! ports. ... Once an edge router classifies a packet as needing better
//! service, it marks that packet in the header with a particular service."
//! (§2)
//!
//! A [`Classifier`] holds an ordered rule list (like Cisco MQC class maps);
//! the first matching rule wins. Each rule marks the packet's DSCP and may
//! police it against a [`TokenBucket`], either dropping non-conformant
//! packets (the paper's configuration) or demoting them to best-effort
//! (an ablation in our benches).

use crate::packet::{Dscp, NodeId, Packet, Proto};
use crate::tokenbucket::TokenBucket;
use mpichgq_sim::SimTime;

/// A wildcard-capable match on the packet 5-tuple plus its DS field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSpec {
    pub src: Option<NodeId>,
    pub dst: Option<NodeId>,
    pub proto: Option<Proto>,
    pub src_port: Option<u16>,
    pub dst_port: Option<u16>,
    /// Match on the DS field — how a domain-ingress router polices the
    /// premium *aggregate* ("[a token bucket] is also used on the ingress
    /// router of a domain to police the premium aggregate", §5.1).
    pub dscp: Option<Dscp>,
}

impl FlowSpec {
    /// Match every packet (used for aggregate policing at domain ingress).
    pub fn any() -> FlowSpec {
        FlowSpec::default()
    }

    /// Match one direction of a transport flow exactly.
    pub fn exact(src: NodeId, dst: NodeId, proto: Proto, src_port: u16, dst_port: u16) -> FlowSpec {
        FlowSpec {
            src: Some(src),
            dst: Some(dst),
            proto: Some(proto),
            src_port: Some(src_port),
            dst_port: Some(dst_port),
            dscp: None,
        }
    }

    /// Match every packet already marked EF (the premium aggregate).
    pub fn ef_aggregate() -> FlowSpec {
        FlowSpec {
            dscp: Some(Dscp::Ef),
            ..FlowSpec::default()
        }
    }

    /// Match all traffic between a host pair (both ports wild) — how the
    /// QoS agent binds "all relevant flows" of a communicator link.
    pub fn host_pair(src: NodeId, dst: NodeId, proto: Proto) -> FlowSpec {
        FlowSpec {
            src: Some(src),
            dst: Some(dst),
            proto: Some(proto),
            src_port: None,
            dst_port: None,
            dscp: None,
        }
    }

    #[inline]
    pub(crate) fn matches(&self, p: &Packet) -> bool {
        self.src.is_none_or(|v| v == p.src)
            && self.dst.is_none_or(|v| v == p.dst)
            && self.proto.is_none_or(|v| v == p.proto())
            && self.src_port.is_none_or(|v| v == p.src_port)
            && self.dst_port.is_none_or(|v| v == p.dst_port)
            && self.dscp.is_none_or(|v| v == p.dscp)
    }
}

/// What to do with packets that exceed the policer's profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicingAction {
    /// Drop out-of-profile packets ("policing will throw out traffic above a
    /// certain rate", §2) — the paper's testbed configuration.
    Drop,
    /// Demote out-of-profile packets to best-effort instead of dropping.
    Demote,
    /// Keep the rule's class but escalate the drop precedence (RFC 2597
    /// style): an out-of-profile packet under an AF mark is forwarded as
    /// AF with the next-higher [`AfPrec`](crate::packet::AfPrec)
    /// precedence, so WRED discards it
    /// first under congestion. Under a non-AF mark this behaves like
    /// [`Demote`](PolicingAction::Demote).
    Remark,
}

/// One classifier rule: match, mark, optionally police.
#[derive(Debug)]
pub struct Rule {
    pub spec: FlowSpec,
    pub mark: Dscp,
    pub policer: Option<TokenBucket>,
    pub action: PolicingAction,
    /// Stable id so reservations can be modified/cancelled.
    pub id: u64,
    /// Conformant packets/bytes and policed drops/demotions.
    pub stats: RuleStats,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct RuleStats {
    pub conformant_pkts: u64,
    pub conformant_bytes: u64,
    pub policed_pkts: u64,
    pub policed_bytes: u64,
}

/// Verdict of classification for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward (the packet's DSCP has been set as a side effect).
    Forward,
    /// Drop at the edge (policed).
    Drop,
}

/// Aggregate marking/policing counters across all of a classifier's rules.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClassifierStats {
    /// Packets whose DS field was newly set to EF by a rule.
    pub marked_ef: u64,
    /// Packets whose DS field was newly set to an AF codepoint by a rule.
    pub marked_af: u64,
    /// Out-of-profile packets demoted to best-effort (Demote action).
    pub demoted: u64,
    /// Out-of-profile packets kept in class at escalated drop precedence
    /// (Remark action on an AF mark).
    pub(crate) remarked: u64,
}

/// An ordered list of rules applied at a router's edge ingress.
#[derive(Debug, Default)]
pub struct Classifier {
    rules: Vec<Rule>,
    next_id: u64,
    stats: ClassifierStats,
}

impl Classifier {
    pub fn new() -> Self {
        Classifier::default()
    }

    /// Install a rule; returns its id for later removal.
    pub fn install(
        &mut self,
        spec: FlowSpec,
        mark: Dscp,
        policer: Option<TokenBucket>,
        action: PolicingAction,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.rules.push(Rule {
            spec,
            mark,
            policer,
            action,
            id,
            stats: RuleStats::default(),
        });
        id
    }

    /// Remove a rule by id; returns whether it existed.
    pub fn remove(&mut self, id: u64) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        self.rules.len() != before
    }

    /// Replace the policer of rule `id` (reservation modification).
    pub fn set_policer(&mut self, id: u64, policer: Option<TokenBucket>) -> bool {
        if let Some(r) = self.rules.iter_mut().find(|r| r.id == id) {
            r.policer = policer;
            true
        } else {
            false
        }
    }

    /// Aggregate mark/demote counters (observability snapshots).
    pub(crate) fn stats(&self) -> ClassifierStats {
        self.stats
    }

    /// Installed rules, in match order (observability snapshots).
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Classify (and possibly mark/police) `pkt`. First match wins; packets
    /// matching no rule pass through as-is (already best-effort).
    #[inline]
    pub fn classify(&mut self, now: SimTime, pkt: &mut Packet) -> Verdict {
        for r in &mut self.rules {
            if !r.spec.matches(pkt) {
                continue;
            }
            let len = pkt.ip_len();
            let conforms = match &mut r.policer {
                Some(tb) => tb.try_consume(now, len),
                None => true,
            };
            if conforms {
                match r.mark {
                    Dscp::Ef if pkt.dscp != Dscp::Ef => self.stats.marked_ef += 1,
                    Dscp::Af(_) if !matches!(pkt.dscp, Dscp::Af(_)) => self.stats.marked_af += 1,
                    _ => {}
                }
                pkt.dscp = r.mark;
                r.stats.conformant_pkts += 1;
                r.stats.conformant_bytes += len as u64;
                return Verdict::Forward;
            }
            r.stats.policed_pkts += 1;
            r.stats.policed_bytes += len as u64;
            return match r.action {
                PolicingAction::Drop => Verdict::Drop,
                PolicingAction::Demote => {
                    self.stats.demoted += 1;
                    pkt.dscp = Dscp::BestEffort;
                    Verdict::Forward
                }
                PolicingAction::Remark => {
                    if let Dscp::Af(prec) = r.mark {
                        self.stats.remarked += 1;
                        pkt.dscp = Dscp::Af(prec.escalated());
                    } else {
                        self.stats.demoted += 1;
                        pkt.dscp = Dscp::BestEffort;
                    }
                    Verdict::Forward
                }
            };
        }
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::L4;

    fn pkt(src: u32, dst: u32, sport: u16, dport: u16) -> Packet {
        Packet {
            src: NodeId(src),
            dst: NodeId(dst),
            src_port: sport,
            dst_port: dport,
            dscp: Dscp::BestEffort,
            l4: L4::Udp,
            payload_len: 972, // ip_len = 1000
            id: 0,
            born: SimTime::ZERO,
        }
    }

    #[test]
    fn exact_spec_matching() {
        let spec = FlowSpec::exact(NodeId(1), NodeId(2), Proto::Udp, 10, 20);
        assert!(spec.matches(&pkt(1, 2, 10, 20)));
        assert!(!spec.matches(&pkt(1, 2, 10, 21)));
        assert!(!spec.matches(&pkt(2, 1, 10, 20)));
    }

    #[test]
    fn host_pair_ignores_ports() {
        let spec = FlowSpec::host_pair(NodeId(1), NodeId(2), Proto::Udp);
        assert!(spec.matches(&pkt(1, 2, 1, 1)));
        assert!(spec.matches(&pkt(1, 2, 99, 99)));
        assert!(!spec.matches(&pkt(2, 1, 1, 1)));
    }

    #[test]
    fn marking_without_policing() {
        let mut c = Classifier::new();
        c.install(FlowSpec::any(), Dscp::Ef, None, PolicingAction::Drop);
        let mut p = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(SimTime::ZERO, &mut p), Verdict::Forward);
        assert_eq!(p.dscp, Dscp::Ef);
    }

    #[test]
    fn policing_drops_out_of_profile() {
        let mut c = Classifier::new();
        // 2000-byte bucket: two 1000-byte packets conform, the third drops.
        let tb = TokenBucket::new(8_000, 2_000);
        let id = c.install(FlowSpec::any(), Dscp::Ef, Some(tb), PolicingAction::Drop);
        let now = SimTime::ZERO;
        for _ in 0..2 {
            let mut p = pkt(1, 2, 1, 1);
            assert_eq!(c.classify(now, &mut p), Verdict::Forward);
            assert_eq!(p.dscp, Dscp::Ef);
        }
        let mut p = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(now, &mut p), Verdict::Drop);
        let st = c.rules().find(|r| r.id == id).unwrap().stats;
        assert_eq!(st.conformant_pkts, 2);
        assert_eq!(st.policed_pkts, 1);
    }

    #[test]
    fn demote_marks_best_effort_instead_of_dropping() {
        let mut c = Classifier::new();
        let tb = TokenBucket::new(8_000, 1_000);
        c.install(FlowSpec::any(), Dscp::Ef, Some(tb), PolicingAction::Demote);
        let now = SimTime::ZERO;
        let mut p1 = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(now, &mut p1), Verdict::Forward);
        assert_eq!(p1.dscp, Dscp::Ef);
        let mut p2 = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(now, &mut p2), Verdict::Forward);
        assert_eq!(p2.dscp, Dscp::BestEffort);
    }

    #[test]
    fn first_match_wins_and_removal_works() {
        let mut c = Classifier::new();
        let id1 = c.install(
            FlowSpec::host_pair(NodeId(1), NodeId(2), Proto::Udp),
            Dscp::Ef,
            None,
            PolicingAction::Drop,
        );
        c.install(
            FlowSpec::any(),
            Dscp::BestEffort,
            None,
            PolicingAction::Drop,
        );
        let mut p = pkt(1, 2, 5, 5);
        c.classify(SimTime::ZERO, &mut p);
        assert_eq!(p.dscp, Dscp::Ef);
        assert!(c.remove(id1));
        assert!(!c.remove(id1));
        let mut p = pkt(1, 2, 5, 5);
        c.classify(SimTime::ZERO, &mut p);
        assert_eq!(p.dscp, Dscp::BestEffort);
    }

    #[test]
    fn ef_aggregate_spec_matches_marked_packets_only() {
        let spec = FlowSpec::ef_aggregate();
        let mut p = pkt(1, 2, 1, 1);
        assert!(!spec.matches(&p));
        p.dscp = Dscp::Ef;
        assert!(spec.matches(&p));
    }

    #[test]
    fn aggregate_policer_bounds_the_ef_class() {
        // Two upstream-marked EF flows pass a domain-ingress aggregate
        // policer with a 2000-byte bucket: only two 1000-byte packets of
        // the combined class conform.
        let mut c = Classifier::new();
        c.install(
            FlowSpec::ef_aggregate(),
            Dscp::Ef,
            Some(TokenBucket::new(8_000, 2_000)),
            PolicingAction::Drop,
        );
        let now = SimTime::ZERO;
        let mut fwd = 0;
        for i in 0..4 {
            let mut p = pkt(1 + i % 2, 2, 1, 1);
            p.dscp = Dscp::Ef;
            if c.classify(now, &mut p) == Verdict::Forward {
                fwd += 1;
            }
        }
        assert_eq!(fwd, 2);
        // Best-effort traffic is untouched by the aggregate rule.
        let mut be = pkt(3, 2, 1, 1);
        assert_eq!(c.classify(now, &mut be), Verdict::Forward);
        assert_eq!(be.dscp, Dscp::BestEffort);
    }

    #[test]
    fn remark_escalates_af_drop_precedence() {
        use crate::packet::AfPrec;
        let mut c = Classifier::new();
        let tb = TokenBucket::new(8_000, 1_000);
        c.install(
            FlowSpec::any(),
            Dscp::Af(AfPrec::Low),
            Some(tb),
            PolicingAction::Remark,
        );
        let now = SimTime::ZERO;
        let mut p1 = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(now, &mut p1), Verdict::Forward);
        assert_eq!(p1.dscp, Dscp::Af(AfPrec::Low));
        let mut p2 = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(now, &mut p2), Verdict::Forward);
        assert_eq!(p2.dscp, Dscp::Af(AfPrec::Medium));
        assert_eq!(c.stats().marked_af, 1);
        assert_eq!(c.stats().remarked, 1);
    }

    #[test]
    fn unmatched_packets_pass_through() {
        let mut c = Classifier::new();
        c.install(
            FlowSpec::host_pair(NodeId(7), NodeId(8), Proto::Tcp),
            Dscp::Ef,
            None,
            PolicingAction::Drop,
        );
        let mut p = pkt(1, 2, 1, 1);
        assert_eq!(c.classify(SimTime::ZERO, &mut p), Verdict::Forward);
        assert_eq!(p.dscp, Dscp::BestEffort);
    }
}
