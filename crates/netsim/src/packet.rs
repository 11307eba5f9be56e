//! Packets and protocol headers.
//!
//! Like classic network simulators (ns-2), the network layer knows the
//! *formats* of transport headers — routers classify on ports and the
//! DS field — while the transport *behaviour* (TCP state machines) lives in
//! the `mpichgq-tcp` crate. Payloads are modeled by length only; reliable
//! in-order delivery lets higher layers reconstruct message contents from a
//! side channel without copying bulk bytes through every queue.

use mpichgq_sim::SimTime;
use std::fmt;

/// A node in the network (host or router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Drop precedence within the Assured Forwarding PHB (RFC 2597): under
/// congestion, `High` precedence packets are discarded first and `Low`
/// last. Policers escalate the precedence of out-of-profile AF traffic
/// instead of dropping it at the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AfPrec {
    /// In-profile: dropped last.
    #[default]
    Low,
    Medium,
    /// Out-of-profile: dropped first.
    High,
}

impl AfPrec {
    /// Index into per-precedence tables (0 = `Low` … 2 = `High`).
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            AfPrec::Low => 0,
            AfPrec::Medium => 1,
            AfPrec::High => 2,
        }
    }

    /// The next-worse precedence (saturating at `High`) — what a policer's
    /// `Remark` action assigns to non-conformant AF traffic.
    #[inline]
    pub(crate) fn escalated(self) -> AfPrec {
        match self {
            AfPrec::Low => AfPrec::Medium,
            AfPrec::Medium | AfPrec::High => AfPrec::High,
        }
    }
}

/// Differentiated Services code point. We model the paper's two PHBs —
/// default (best-effort) and Expedited Forwarding (RFC 2598) — plus an
/// Assured Forwarding class (RFC 2597) with three drop precedences,
/// scheduled between EF and best-effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dscp {
    #[default]
    BestEffort,
    /// Assured Forwarding: weighted/assured service with per-packet drop
    /// precedence ([`AfPrec`]).
    Af(AfPrec),
    /// Expedited Forwarding: served from the strict-priority queue.
    Ef,
}

/// Transport protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    Tcp,
    Udp,
}

/// TCP header flags (only those the Reno model needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
}

/// TCP header fields carried through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    pub seq: u64,
    pub ack: u64,
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub wnd: u32,
}

/// Transport header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4 {
    Tcp(TcpHeader),
    Udp,
}

pub(crate) const IP_HEADER_BYTES: u32 = 20;
pub(crate) const TCP_HEADER_BYTES: u32 = 20;
pub(crate) const UDP_HEADER_BYTES: u32 = 8;

/// One IP packet in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    pub src: NodeId,
    pub dst: NodeId,
    pub src_port: u16,
    pub dst_port: u16,
    pub dscp: Dscp,
    pub l4: L4,
    /// Transport payload length in bytes (contents are modeled out of band).
    pub payload_len: u32,
    /// Monotonic id for tracing.
    pub id: u64,
    /// Sim time the packet entered the network ([`Net::send_ip`] stamps
    /// it); one-way delay at delivery is `now - born`. Constructors may
    /// leave it at [`SimTime::ZERO`].
    ///
    /// [`Net::send_ip`]: crate::Net::send_ip
    pub born: SimTime,
}

impl Packet {
    #[inline]
    pub(crate) fn proto(&self) -> Proto {
        match self.l4 {
            L4::Tcp(_) => Proto::Tcp,
            L4::Udp => Proto::Udp,
        }
    }

    /// Total IP datagram length (what routers queue and police on).
    #[inline]
    pub(crate) fn ip_len(&self) -> u32 {
        let l4h = match self.l4 {
            L4::Tcp(_) => TCP_HEADER_BYTES,
            L4::Udp => UDP_HEADER_BYTES,
        };
        IP_HEADER_BYTES + l4h + self.payload_len
    }

    #[inline]
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match &self.l4 {
            L4::Tcp(h) => Some(h),
            L4::Udp => None,
        }
    }
}

/// A flow's 5-tuple endpoints (as extracted from an MPI communicator by the
/// QoS agent: "basically port and machine names").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub src: NodeId,
    pub dst: NodeId,
    pub proto: Proto,
    pub src_port: u16,
    pub dst_port: u16,
}

impl FlowKey {
    #[inline]
    pub(crate) fn of(pkt: &Packet) -> FlowKey {
        FlowKey {
            src: pkt.src,
            dst: pkt.dst,
            proto: pkt.proto(),
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(l4: L4, payload: u32) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 1000,
            dst_port: 2000,
            dscp: Dscp::BestEffort,
            l4,
            payload_len: payload,
            id: 0,
            born: SimTime::ZERO,
        }
    }

    #[test]
    fn ip_len_includes_headers() {
        let t = pkt(
            L4::Tcp(TcpHeader {
                seq: 0,
                ack: 0,
                flags: TcpFlags {
                    ack: true,
                    ..TcpFlags::default()
                },
                wnd: 0,
            }),
            1460,
        );
        assert_eq!(t.ip_len(), 1500);
        let u = pkt(L4::Udp, 1472);
        assert_eq!(u.ip_len(), 1500);
    }
}
