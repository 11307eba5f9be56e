//! Protocol-overhead translation from application rates to network rates.
//!
//! "We also see that we require a reservation value of around 1.06 of the
//! sending rate, because of TCP packet overheads." (§5.3)
//!
//! Given the maximum message size from the QoS attribute, the agent can
//! compute exactly how many TCP segments a message becomes, and how many
//! bytes those segments occupy at the IP layer (where the edge policer
//! counts) and on the wire. The reservation is the application rate
//! multiplied by this factor.

use mpichgq_mpi::HEADER_BYTES;
use mpichgq_netsim::{Framing, Net, NodeId};

pub const DEFAULT_MSS: u32 = 1460;
pub(crate) const TCP_IP_HEADERS: u32 = 40;

/// Bytes at the IP layer for an `msg`-byte MPI message (MPI framing header
/// included) sent as MSS-sized TCP segments.
pub(crate) fn ip_bytes_for_message(msg: u32, mss: u32) -> u64 {
    let total = msg as u64 + HEADER_BYTES; // MPI record framing
    let segments = total.div_ceil(mss as u64).max(1);
    total + segments * TCP_IP_HEADERS as u64
}

/// Overhead factor at the IP layer: what the policer sees per application
/// byte.
pub fn ip_overhead_factor(msg: u32, mss: u32) -> f64 {
    if msg == 0 {
        return 1.0;
    }
    ip_bytes_for_message(msg, mss) as f64 / msg as f64
}

/// Overhead factor including layer-2 framing on a specific link type
/// (ATM cell padding is what pushed the paper's factor past 1.06).
pub fn wire_overhead_factor(msg: u32, mss: u32, framing: Framing) -> f64 {
    if msg == 0 {
        return 1.0;
    }
    let total = msg as u64 + HEADER_BYTES;
    let full_segs = total / mss as u64;
    let tail = (total % mss as u64) as u32;
    let mut wire = full_segs * framing.wire_bytes(mss + TCP_IP_HEADERS) as u64;
    if tail > 0 {
        wire += framing.wire_bytes(tail + TCP_IP_HEADERS) as u64;
    }
    wire as f64 / msg as f64
}

/// The worst (largest) per-byte overhead along the path from `src` to
/// `dst`, so the reservation is sufficient at every policed hop.
pub(crate) fn path_overhead_factor(net: &Net, src: NodeId, dst: NodeId, msg: u32, mss: u32) -> f64 {
    let Some(path) = net.path_chans(src, dst) else {
        return ip_overhead_factor(msg, mss);
    };
    // The edge policer counts IP bytes; links carry framed bytes. Use the
    // larger of the IP factor and the worst wire factor on the path.
    let mut factor = ip_overhead_factor(msg, mss);
    for chan in path {
        let f = wire_overhead_factor(msg, mss, net.chan(chan).cfg.framing);
        factor = factor.max(f);
    }
    factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_is_one_segment() {
        // 1000-byte message + 32-byte MPI header + 40 TCP/IP = 1072.
        assert_eq!(ip_bytes_for_message(1000, DEFAULT_MSS), 1072);
        let f = ip_overhead_factor(1000, DEFAULT_MSS);
        assert!((f - 1.072).abs() < 1e-9);
    }

    #[test]
    fn bulk_ip_overhead_near_paper_range() {
        // Large messages: per-1460-byte segment, 40 header bytes -> ~1.027
        // at the IP layer.
        let f = ip_overhead_factor(100 * 1024, DEFAULT_MSS);
        assert!(f > 1.02 && f < 1.04, "{f}");
    }

    #[test]
    fn atm_framing_pushes_factor_past_1_06() {
        // "a reservation value of around 1.06 of the sending rate" — with
        // AAL5 cell padding the wire factor exceeds 1.06 for bulk traffic.
        let f = wire_overhead_factor(100 * 1024, DEFAULT_MSS, Framing::AtmAal5);
        assert!(f > 1.06 && f < 1.2, "{f}");
        // Ethernet is lighter but still above the pure IP factor.
        let fe = wire_overhead_factor(100 * 1024, DEFAULT_MSS, Framing::Ethernet);
        let fip = ip_overhead_factor(100 * 1024, DEFAULT_MSS);
        assert!(fe > fip && fe < f, "fe={fe} fip={fip} f={f}");
    }

    #[test]
    fn tiny_messages_pay_huge_relative_overhead() {
        // A 100-byte message costs 132 + 40 = 172 IP bytes: factor 1.72.
        let f = ip_overhead_factor(100, DEFAULT_MSS);
        assert!((f - 1.72).abs() < 1e-9);
    }

    #[test]
    fn zero_message_guard() {
        assert_eq!(ip_overhead_factor(0, DEFAULT_MSS), 1.0);
        assert_eq!(wire_overhead_factor(0, DEFAULT_MSS, Framing::AtmAal5), 1.0);
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use mpichgq_netsim::{Garnet, GarnetCfg};

    #[test]
    fn garnet_path_factor_dominated_by_atm() {
        let g = Garnet::build(GarnetCfg::default());
        let f = path_overhead_factor(
            &g.net,
            g.premium_src,
            g.premium_dst,
            100 * 1024,
            DEFAULT_MSS,
        );
        // The path is ATM end to end: the wire factor applies.
        let atm = wire_overhead_factor(100 * 1024, DEFAULT_MSS, Framing::AtmAal5);
        assert!((f - atm).abs() < 1e-9, "path factor {f} vs atm {atm}");
    }

    #[test]
    fn unreachable_path_falls_back_to_ip_factor() {
        let g = Garnet::build(GarnetCfg::default());
        // Same endpoint twice: the zero-hop path has no framing; factor is
        // the IP factor.
        let f = path_overhead_factor(&g.net, g.premium_src, g.premium_src, 10_000, DEFAULT_MSS);
        assert!((f - ip_overhead_factor(10_000, DEFAULT_MSS)).abs() < 1e-9);
    }
}
