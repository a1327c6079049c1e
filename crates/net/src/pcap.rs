//! Capture snapshots and the query helpers analyzers build on.
//!
//! The paper determines the CAD "by measuring the time between the first
//! IPv6 packet and the first IPv4 packet observed in the client's packet
//! capture" (§4.3(i)). [`Capture`] provides exactly those primitives.

use std::time::Duration;

use lazyeye_sim::SimTime;

use crate::addr::Family;
use crate::packet::{Direction, PacketRecord, Proto};

/// An immutable snapshot of one host's packet capture.
#[derive(Clone, Debug, Default)]
pub struct Capture {
    records: Vec<PacketRecord>,
}

impl Capture {
    pub(crate) fn new(records: Vec<PacketRecord>) -> Capture {
        Capture { records }
    }

    /// All records in capture order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records filtered by an arbitrary predicate.
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&PacketRecord) -> bool + 'a,
    ) -> impl Iterator<Item = &'a PacketRecord> + 'a {
        self.records.iter().filter(move |r| pred(r))
    }

    /// Timestamp of the first transmitted TCP SYN of the given family —
    /// the raw observable behind the CAD analyzer.
    pub fn first_syn(&self, family: Family) -> Option<SimTime> {
        self.records
            .iter()
            .find(|r| {
                r.dir == Direction::Tx
                    && r.proto == Proto::Tcp
                    && r.kind == "SYN"
                    && r.family() == family
            })
            .map(|r| r.time)
    }

    /// Every transmitted SYN of a family, in order (shows retransmissions
    /// and per-address attempts).
    pub fn syn_times(&self, family: Family) -> Vec<SimTime> {
        self.records
            .iter()
            .filter(|r| {
                r.dir == Direction::Tx
                    && r.proto == Proto::Tcp
                    && r.kind == "SYN"
                    && r.family() == family
            })
            .map(|r| r.time)
            .collect()
    }

    /// Transmitted SYNs to *distinct* destination addresses, in first-seen
    /// order — the paper's per-address connection attempts (Figure 5).
    pub fn distinct_syn_dsts(&self) -> Vec<(std::net::IpAddr, SimTime)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.records {
            if r.dir == Direction::Tx && r.proto == Proto::Tcp && r.kind == "SYN" {
                let ip = r.dst.ip();
                if seen.insert(ip) {
                    out.push((ip, r.time));
                }
            }
        }
        out
    }

    /// The paper's CAD estimator: `first IPv4 SYN − first IPv6 SYN`.
    /// `None` when either family never attempted (no fallback observed).
    pub fn connection_attempt_delay(&self) -> Option<Duration> {
        let v6 = self.first_syn(Family::V6)?;
        let v4 = self.first_syn(Family::V4)?;
        v4.checked_duration_since(v6)
    }

    /// Received UDP payloads with timestamps.
    pub fn udp_rx(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records
            .iter()
            .filter(|r| r.dir == Direction::Rx && r.proto == Proto::Udp)
    }

    /// Counts packets of a family in a direction (Table 3's "# IPv6
    /// packets" uses Rx on the authoritative server).
    pub fn count_family(&self, dir: Direction, family: Family) -> usize {
        self.records
            .iter()
            .filter(|r| r.dir == dir && r.family() == family)
            .count()
    }

    /// A human-readable dump (one line per packet) for debugging testbeds.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in &self.records {
            let dir = match r.dir {
                Direction::Tx => "->",
                Direction::Rx => "<-",
            };
            let _ = writeln!(
                out,
                "{:>14}  {} {:7} {} -> {} ({} bytes)",
                r.time.to_string(),
                dir,
                r.kind,
                r.src,
                r.dst,
                r.payload.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{v4, v6};
    use bytes::Bytes;
    use std::net::SocketAddr;

    fn syn(t_ms: u64, src: std::net::IpAddr, dst: std::net::IpAddr) -> PacketRecord {
        PacketRecord {
            seq: t_ms,
            time: SimTime::from_millis(t_ms),
            dir: Direction::Tx,
            src: SocketAddr::new(src, 50000),
            dst: SocketAddr::new(dst, 80),
            proto: Proto::Tcp,
            kind: "SYN",
            payload: Bytes::new(),
        }
    }

    #[test]
    fn cad_is_first_v4_minus_first_v6() {
        let cap = Capture::new(vec![
            syn(0, v6("2001:db8::100"), v6("2001:db8::1")),
            syn(300, v4("192.0.2.100"), v4("192.0.2.1")),
            syn(1300, v6("2001:db8::100"), v6("2001:db8::1")), // retransmission
        ]);
        assert_eq!(
            cap.connection_attempt_delay(),
            Some(Duration::from_millis(300))
        );
    }

    #[test]
    fn cad_none_without_fallback() {
        let cap = Capture::new(vec![syn(0, v6("2001:db8::100"), v6("2001:db8::1"))]);
        assert_eq!(cap.connection_attempt_delay(), None);
    }

    #[test]
    fn distinct_syn_dsts_dedups_retransmissions() {
        let cap = Capture::new(vec![
            syn(0, v6("2001:db8::100"), v6("2001:db8::a")),
            syn(250, v6("2001:db8::100"), v6("2001:db8::b")),
            syn(1000, v6("2001:db8::100"), v6("2001:db8::a")), // retransmit
            syn(1250, v4("192.0.2.100"), v4("192.0.2.1")),
        ]);
        let dsts = cap.distinct_syn_dsts();
        assert_eq!(dsts.len(), 3);
        assert_eq!(dsts[0].0, v6("2001:db8::a"));
        assert_eq!(dsts[1].0, v6("2001:db8::b"));
        assert_eq!(dsts[2].0, v4("192.0.2.1"));
    }

    #[test]
    fn count_family() {
        let cap = Capture::new(vec![
            syn(0, v6("2001:db8::100"), v6("2001:db8::1")),
            syn(10, v6("2001:db8::100"), v6("2001:db8::1")),
            syn(20, v4("192.0.2.100"), v4("192.0.2.1")),
        ]);
        assert_eq!(cap.count_family(Direction::Tx, Family::V6), 2);
        assert_eq!(cap.count_family(Direction::Tx, Family::V4), 1);
        assert_eq!(cap.count_family(Direction::Rx, Family::V6), 0);
    }
}
