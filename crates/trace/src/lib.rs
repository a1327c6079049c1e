//! # lazyeye-trace — structured event traces of measurement runs
//!
//! Every simulated run can emit a timestamped event log: DNS queries sent
//! and answered per family, connection attempts started/succeeded/failed,
//! the address-selection order, the winner. A [`Trace`] is that log plus
//! the run's identity ([`TraceMeta`]: subject, case family, configured
//! delay, repetition, seed); a [`TraceSet`] is a collection of traces from
//! one sweep or campaign.
//!
//! Traces are the interchange format between the testbed (which *runs*
//! clients) and the `lazyeye-infer` crate (which *infers* client state
//! from observed behaviour, blackbox-checker style): the testbed never
//! interprets a trace, the inference layer never touches a simulation.
//!
//! Serialisation goes through `lazyeye-json` and is **round-trip stable**:
//! `emit → parse → re-emit` produces byte-identical text. Timestamps are
//! integer nanoseconds of virtual time, so no float formatting can drift.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use lazyeye_core::{HeEventKind, HeLog};
use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_net::Family;

/// Trace format version; bumped on incompatible layout changes.
pub const TRACE_VERSION: u64 = 1;

pub mod profile;

/// The identity of the run a trace records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Subject under test: a client profile id (`chrome-130.0`) or a
    /// resolver profile name (`Unbound`).
    pub subject: String,
    /// Case family: `"cad"`, `"rd"`, `"selection"`, `"resolver"` or a
    /// free-form label for ad-hoc runs.
    pub case: String,
    /// Second case axis: netem label (CAD), delayed record (RD), `"-"`
    /// when the case has none.
    pub condition: String,
    /// The configured delay of this run (ms): IPv6 path delay for CAD and
    /// resolver runs, DNS answer delay for RD runs, 0 for selection.
    pub configured_delay_ms: u64,
    /// Repetition index within the sweep cell.
    pub rep: u32,
    /// The run's simulation seed.
    pub seed: u64,
}

lazyeye_json::impl_json_struct!(TraceMeta {
    subject,
    case,
    condition,
    configured_delay_ms,
    rep,
    seed,
});

/// One observed event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The client sent a DNS query (client-side observation).
    DnsQuerySent {
        /// Record type, as its canonical name (`"AAAA"`, `"A"`, ...).
        qtype: String,
    },
    /// A DNS answer arrived at the client (or terminally failed).
    DnsAnswer {
        /// Record type answered.
        qtype: String,
        /// Usable records carried.
        records: u64,
        /// Outcome label (`"ok"`, `"nxdomain"`, `"timeout"`, ...).
        outcome: String,
    },
    /// A query arrived at the instrumented DNS server (server-side
    /// observation — the wire order the paper's Table 2/3 columns use).
    QueryArrived {
        /// Record type queried.
        qtype: String,
        /// Address family the query travelled over.
        family: Family,
    },
    /// The Resolution Delay timer was armed.
    ResolutionDelayStarted {
        /// Configured RD (ms).
        delay_ms: u64,
    },
    /// The Resolution Delay expired without the preferred family.
    ResolutionDelayExpired,
    /// The candidate list was (re)built.
    CandidatesBuilt {
        /// Interlaced candidate order as a `6`/`4` strip.
        families: String,
    },
    /// A connection attempt started.
    AttemptStarted {
        /// Attempt index in candidate order.
        index: u64,
        /// Destination address (textual).
        addr: String,
        /// Destination family.
        family: Family,
        /// Transport label (`"tcp"` / `"quic"`).
        proto: String,
    },
    /// An attempt completed its handshake.
    AttemptSucceeded {
        /// Attempt index.
        index: u64,
        /// Destination address.
        addr: String,
    },
    /// An attempt failed.
    AttemptFailed {
        /// Attempt index.
        index: u64,
        /// Destination address.
        addr: String,
        /// Error label.
        error: String,
    },
    /// The winning connection was established.
    Established {
        /// Winning address.
        addr: String,
        /// Winning family.
        family: Family,
        /// Winning transport.
        proto: String,
    },
    /// A cached outcome short-circuited the run (RFC 6555 §4.2).
    UsedCachedOutcome {
        /// The remembered address.
        addr: String,
    },
    /// The whole run failed.
    Failed {
        /// Reason label.
        reason: String,
    },
}

/// A timestamped event (virtual-time nanoseconds since run start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (ns of virtual time).
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// One run's trace: identity plus chronological events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The run's identity.
    pub meta: TraceMeta,
    /// Events in chronological order.
    pub events: Vec<TraceEvent>,
}

/// A collection of traces (a sweep, a campaign slice, a file).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// The traces, in emission order.
    pub traces: Vec<Trace>,
}

// ---------------------------------------------------------------------------
// Converters from live observations
// ---------------------------------------------------------------------------

fn proto_label(p: &lazyeye_core::CandidateProto) -> String {
    match p {
        lazyeye_core::CandidateProto::Tcp => "tcp".to_string(),
        lazyeye_core::CandidateProto::Quic => "quic".to_string(),
    }
}

/// Converts one engine event log into trace events (client-side view).
pub fn events_from_he_log(log: &HeLog) -> Vec<TraceEvent> {
    log.events
        .iter()
        .map(|e| {
            let kind = match &e.kind {
                HeEventKind::DnsQuerySent { qtype } => TraceEventKind::DnsQuerySent {
                    qtype: format!("{qtype:?}").to_uppercase(),
                },
                HeEventKind::DnsAnswer {
                    qtype,
                    records,
                    outcome,
                } => TraceEventKind::DnsAnswer {
                    qtype: format!("{qtype:?}").to_uppercase(),
                    records: *records as u64,
                    outcome: (*outcome).to_string(),
                },
                HeEventKind::ResolutionDelayStarted { delay } => {
                    TraceEventKind::ResolutionDelayStarted {
                        delay_ms: delay.as_millis() as u64,
                    }
                }
                HeEventKind::ResolutionDelayExpired => TraceEventKind::ResolutionDelayExpired,
                HeEventKind::CandidatesBuilt { families } => TraceEventKind::CandidatesBuilt {
                    families: lazyeye_net::strip::render(families),
                },
                HeEventKind::AttemptStarted { index, addr, proto } => {
                    TraceEventKind::AttemptStarted {
                        index: *index as u64,
                        addr: addr.to_string(),
                        family: Family::of(*addr),
                        proto: proto_label(proto),
                    }
                }
                HeEventKind::AttemptSucceeded { index, addr } => TraceEventKind::AttemptSucceeded {
                    index: *index as u64,
                    addr: addr.to_string(),
                },
                HeEventKind::AttemptFailed { index, addr, error } => {
                    TraceEventKind::AttemptFailed {
                        index: *index as u64,
                        addr: addr.to_string(),
                        error: (*error).to_string(),
                    }
                }
                HeEventKind::AttemptCancelled { index, addr } => TraceEventKind::AttemptFailed {
                    index: *index as u64,
                    addr: addr.to_string(),
                    error: "cancelled".to_string(),
                },
                HeEventKind::Established {
                    addr,
                    family,
                    proto,
                } => TraceEventKind::Established {
                    addr: addr.to_string(),
                    family: *family,
                    proto: proto_label(proto),
                },
                HeEventKind::UsedCachedOutcome { addr } => TraceEventKind::UsedCachedOutcome {
                    addr: addr.to_string(),
                },
                HeEventKind::Failed { reason } => TraceEventKind::Failed {
                    reason: (*reason).to_string(),
                },
            };
            TraceEvent {
                at_ns: e.at.as_nanos(),
                kind,
            }
        })
        .collect()
}

impl Trace {
    /// Builds a trace from an engine event log.
    pub fn from_he_log(meta: TraceMeta, log: &HeLog) -> Trace {
        Trace {
            meta,
            events: events_from_he_log(log),
        }
    }

    /// Merges extra events (e.g. server-side [`TraceEventKind::QueryArrived`]
    /// observations) into the trace, keeping chronological order. The merge
    /// is stable: same-instant events keep client-side before merged-in.
    pub fn merge_events(&mut self, extra: Vec<TraceEvent>) {
        self.events.extend(extra);
        self.events.sort_by_key(|e| e.at_ns);
    }

    // -- analysis helpers (what the inference layer reads) -----------------

    /// Time of the first connection attempt towards `family` (ms).
    pub fn first_attempt_ms(&self, family: Family) -> Option<f64> {
        self.events.iter().find_map(|e| match &e.kind {
            TraceEventKind::AttemptStarted { family: f, .. } if *f == family => {
                Some(e.at_ns as f64 / 1e6)
            }
            _ => None,
        })
    }

    /// Client-visible CAD: first IPv4 attempt − first IPv6 attempt (ms).
    pub fn observed_cad_ms(&self) -> Option<f64> {
        let v6 = self.first_attempt_ms(Family::V6)?;
        let v4 = self.first_attempt_ms(Family::V4)?;
        (v4 >= v6).then_some(v4 - v6)
    }

    /// The established family, if the run connected.
    pub fn established_family(&self) -> Option<Family> {
        self.events.iter().find_map(|e| match &e.kind {
            TraceEventKind::Established { family, .. } => Some(*family),
            _ => None,
        })
    }

    /// Whether a Resolution Delay timer was armed, and its configured
    /// delay (ms) when it was.
    pub fn resolution_delay_ms(&self) -> Option<u64> {
        self.events.iter().find_map(|e| match &e.kind {
            TraceEventKind::ResolutionDelayStarted { delay_ms } => Some(*delay_ms),
            _ => None,
        })
    }

    /// Whether the AAAA query hit the wire before the A query. Prefers the
    /// server-side [`TraceEventKind::QueryArrived`] order when present,
    /// falling back to the client-side send order.
    pub fn aaaa_first(&self) -> Option<bool> {
        let order = |want_server: bool| -> (Option<usize>, Option<usize>) {
            let mut first_aaaa = None;
            let mut first_a = None;
            for (i, e) in self.events.iter().enumerate() {
                let qt = match &e.kind {
                    TraceEventKind::QueryArrived { qtype, .. } if want_server => Some(qtype),
                    TraceEventKind::DnsQuerySent { qtype } if !want_server => Some(qtype),
                    _ => None,
                };
                match qt.map(String::as_str) {
                    Some("AAAA") if first_aaaa.is_none() => first_aaaa = Some(i),
                    Some("A") if first_a.is_none() => first_a = Some(i),
                    _ => {}
                }
            }
            (first_aaaa, first_a)
        };
        for want_server in [true, false] {
            if let (Some(x), Some(y)) = order(want_server) {
                return Some(x < y);
            }
        }
        None
    }

    /// Family sequence of distinct attempted addresses.
    pub fn attempt_order(&self) -> Vec<Family> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for e in &self.events {
            if let TraceEventKind::AttemptStarted { addr, family, .. } = &e.kind {
                if seen.insert(addr.clone()) {
                    out.push(*family);
                }
            }
        }
        out
    }

    /// Distinct addresses attempted towards `family`.
    pub fn addrs_used(&self, family: Family) -> usize {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::AttemptStarted {
                    addr, family: f, ..
                } if *f == family => Some(addr.as_str()),
                _ => None,
            })
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    /// Times (ms) at which queries arrived at the server over `family` —
    /// the resolver-case observable.
    pub fn query_arrivals_ms(&self, family: Family) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::QueryArrived { family: f, .. } if *f == family => {
                    Some(e.at_ns as f64 / 1e6)
                }
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// JSON mapping
// ---------------------------------------------------------------------------

lazyeye_json::impl_json_tagged!(TraceEventKind, "kind" {
    DnsQuerySent = "dns_query_sent" { qtype },
    DnsAnswer = "dns_answer" { qtype, records, outcome },
    QueryArrived = "query_arrived" { qtype, family },
    ResolutionDelayStarted = "rd_started" { delay_ms },
    ResolutionDelayExpired = "rd_expired",
    CandidatesBuilt = "candidates_built" { families },
    AttemptStarted = "attempt_started" { index, addr, family, proto },
    AttemptSucceeded = "attempt_succeeded" { index, addr },
    AttemptFailed = "attempt_failed" { index, addr, error },
    Established = "established" { addr, family, proto },
    UsedCachedOutcome = "used_cached_outcome" { addr },
    Failed = "failed" { reason },
});

impl ToJson for TraceEvent {
    /// Flattened: `{"at_ns": ..., "kind": ..., <payload>}`.
    fn to_json(&self) -> Json {
        self.kind
            .to_json()
            .with_leading("at_ns", self.at_ns.to_json())
    }
}

impl FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<TraceEvent, JsonError> {
        Ok(TraceEvent {
            at_ns: u64::from_json(&v["at_ns"])?,
            kind: TraceEventKind::from_json(v)?,
        })
    }
}

lazyeye_json::impl_json_struct!(Trace { meta, events });

impl ToJson for TraceSet {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", TRACE_VERSION.to_json()),
            ("traces", self.traces.to_json()),
        ])
    }
}

impl FromJson for TraceSet {
    fn from_json(v: &Json) -> Result<TraceSet, JsonError> {
        let version = u64::from_json(&v["version"])?;
        if version != TRACE_VERSION {
            return Err(JsonError::new(format!(
                "trace version {version} not supported (expected {TRACE_VERSION})"
            )));
        }
        Ok(TraceSet {
            traces: Vec::<Trace>::from_json(&v["traces"])?,
        })
    }
}

impl TraceSet {
    /// Serialises to pretty JSON (newline-terminated). Re-emitting a
    /// parsed trace set reproduces this text byte for byte.
    pub fn to_json_string(&self) -> String {
        let mut s = ToJson::to_json(self).to_string_pretty();
        s.push('\n');
        s
    }

    /// Parses a trace set from JSON text. Accepts either a full trace-set
    /// document or a single trace object.
    pub fn from_json_str(s: &str) -> Result<TraceSet, JsonError> {
        let v = Json::parse(s)?;
        if v.get("traces").is_some() {
            return FromJson::from_json(&v);
        }
        // A bare trace object: wrap it.
        Ok(TraceSet {
            traces: vec![Trace::from_json(&v)?],
        })
    }

    /// Appends a trace.
    pub fn push(&mut self, trace: Trace) {
        self.traces.push(trace);
    }

    /// Distinct subjects, in first-appearance order.
    pub fn subjects(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in &self.traces {
            if !out.contains(&t.meta.subject) {
                out.push(t.meta.subject.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            meta: TraceMeta {
                subject: "chrome-130.0".into(),
                case: "cad".into(),
                condition: "baseline".into(),
                configured_delay_ms: 320,
                rep: 1,
                seed: 42,
            },
            events: vec![
                TraceEvent {
                    at_ns: 0,
                    kind: TraceEventKind::DnsQuerySent {
                        qtype: "AAAA".into(),
                    },
                },
                TraceEvent {
                    at_ns: 50_000,
                    kind: TraceEventKind::QueryArrived {
                        qtype: "AAAA".into(),
                        family: Family::V4,
                    },
                },
                TraceEvent {
                    at_ns: 1_000_000,
                    kind: TraceEventKind::AttemptStarted {
                        index: 0,
                        addr: "2001:db8::1".into(),
                        family: Family::V6,
                        proto: "tcp".into(),
                    },
                },
                TraceEvent {
                    at_ns: 301_000_000,
                    kind: TraceEventKind::AttemptStarted {
                        index: 1,
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                },
                TraceEvent {
                    at_ns: 302_000_000,
                    kind: TraceEventKind::Established {
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let set = TraceSet {
            traces: vec![sample_trace()],
        };
        let text = set.to_json_string();
        let back = TraceSet::from_json_str(&text).unwrap();
        assert_eq!(back, set);
        assert_eq!(
            back.to_json_string(),
            text,
            "re-emit must be byte-identical"
        );
    }

    #[test]
    fn analysis_helpers() {
        let t = sample_trace();
        assert_eq!(t.observed_cad_ms(), Some(300.0));
        assert_eq!(t.established_family(), Some(Family::V4));
        assert_eq!(t.attempt_order(), vec![Family::V6, Family::V4]);
        assert_eq!(t.addrs_used(Family::V6), 1);
        assert_eq!(t.resolution_delay_ms(), None);
    }

    #[test]
    fn aaaa_first_prefers_server_side_order() {
        let mut t = sample_trace();
        // Server saw only AAAA: fall back to client-side send order, which
        // has no A either → unknown.
        assert_eq!(t.aaaa_first(), None);
        t.events.push(TraceEvent {
            at_ns: 60_000,
            kind: TraceEventKind::QueryArrived {
                qtype: "A".into(),
                family: Family::V4,
            },
        });
        assert_eq!(t.aaaa_first(), Some(true));
    }

    #[test]
    fn merge_keeps_chronological_order() {
        let mut t = sample_trace();
        t.merge_events(vec![TraceEvent {
            at_ns: 500_000,
            kind: TraceEventKind::QueryArrived {
                qtype: "A".into(),
                family: Family::V4,
            },
        }]);
        let times: Vec<u64> = t.events.iter().map(|e| e.at_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn bare_trace_object_parses() {
        let t = sample_trace();
        let text = ToJson::to_json(&t).to_string_pretty();
        let set = TraceSet::from_json_str(&text).unwrap();
        assert_eq!(set.traces, vec![t]);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let text = r#"{"version": 1, "traces": [{"meta": {"subject": "x", "case": "cad",
            "condition": "-", "configured_delay_ms": 0, "rep": 0, "seed": 0},
            "events": [{"at_ns": 0, "kind": "warp"}]}]}"#;
        assert!(TraceSet::from_json_str(text).is_err());
    }
}
