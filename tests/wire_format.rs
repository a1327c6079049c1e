//! Literal wire formats of every output kind a partial stores and every
//! trace event kind a trace stores.
//!
//! The checked-in partial fixtures hold only CAD and resolver campaign
//! outputs, and no pinned trace carries `used_cached_outcome` (sweeps
//! reset client history). The literals below were recorded before the
//! per-engine codecs were derived from `lazyeye-json`: each value must
//! serialise to its literal byte for byte and parse back equal.

use lazy_eye_inspection::campaign::{CampaignSpec, Checkpoint, RunOutput};
use lazy_eye_inspection::fleet::session::ResolverCheckOutput;
use lazy_eye_inspection::fleet::{FleetCheckpoint, FleetSpec, SessionOutput};
use lazy_eye_inspection::json::{FromJson, Json, ToJson};
use lazy_eye_inspection::net::Family;
use lazy_eye_inspection::testbed::{CadSample, RdSample, ResolverSample, SelectionResult};
use lazy_eye_inspection::trace::{TraceEvent, TraceEventKind};
use lazy_eye_inspection::webtool::{TierObservation, WebSessionResult};

/// Stored output `index` of a serialised partial, in compact form.
fn stored_output(partial: &str, index: usize) -> String {
    Json::parse(partial).unwrap()["outputs"][index].to_string_compact()
}

/// `empty` (a serialised partial with no outputs) holding `literal` as
/// its only stored output.
fn with_output(empty: &str, literal: &str) -> String {
    assert!(empty.contains("\"outputs\": []"), "{empty}");
    empty.replace("\"outputs\": []", &format!("\"outputs\": [{literal}]"))
}

fn campaign_outputs() -> Vec<(RunOutput, &'static str)> {
    vec![
        (
            RunOutput::Cad(CadSample {
                configured_delay_ms: 300,
                rep: 1,
                family: Some(Family::V6),
                observed_cad_ms: Some(299.875),
                aaaa_first: Some(true),
            }),
            r#"{"index":0,"kind":"cad","configured_delay_ms":300,"rep":1,"family":"v6","observed_cad_ms":299.875,"aaaa_first":true}"#,
        ),
        (
            RunOutput::Cad(CadSample {
                configured_delay_ms: 0,
                rep: 0,
                family: None,
                observed_cad_ms: None,
                aaaa_first: None,
            }),
            r#"{"index":0,"kind":"cad","configured_delay_ms":0,"rep":0,"family":null,"observed_cad_ms":null,"aaaa_first":null}"#,
        ),
        (
            RunOutput::Rd(RdSample {
                configured_delay_ms: 400,
                rep: 2,
                family: Some(Family::V4),
                first_attempt_ms: Some(50.5),
                used_rd: true,
            }),
            r#"{"index":0,"kind":"rd","configured_delay_ms":400,"rep":2,"family":"v4","first_attempt_ms":50.5,"used_rd":true}"#,
        ),
        (
            RunOutput::Selection(SelectionResult {
                order: vec![Family::V6, Family::V6, Family::V4, Family::V6],
                v6_used: 3,
                v4_used: 1,
            }),
            r#"{"index":0,"kind":"selection","order":"6646","v6_used":3,"v4_used":1}"#,
        ),
        (
            RunOutput::Selection(SelectionResult {
                order: Vec::new(),
                v6_used: 0,
                v4_used: 0,
            }),
            r#"{"index":0,"kind":"selection","order":"","v6_used":0,"v4_used":0}"#,
        ),
        (
            RunOutput::Resolver(ResolverSample {
                configured_delay_ms: 800,
                rep: 0,
                first_query_family: Some(Family::V4),
                v6_packets: 3,
                observed_cad_ms: Some(376.5),
                v6_retry_gap_ms: None,
                resolved: true,
                served_over_v6: false,
            }),
            r#"{"index":0,"kind":"resolver","configured_delay_ms":800,"rep":0,"first_query_family":"v4","v6_packets":3,"observed_cad_ms":376.5,"v6_retry_gap_ms":null,"resolved":true,"served_over_v6":false}"#,
        ),
    ]
}

#[test]
fn every_run_output_kind_has_a_pinned_wire_format() {
    let empty = Checkpoint::new(CampaignSpec::default(), 1, None).to_json_string();
    for (output, literal) in campaign_outputs() {
        let mut part = Checkpoint::new(CampaignSpec::default(), 1, None);
        part.record(0, output.clone());
        let text = part.to_json_string();
        assert_eq!(stored_output(&text, 0), literal);
        let back = Checkpoint::from_json_str(&with_output(&empty, literal)).unwrap();
        assert_eq!(format!("{:?}", back.completed()[&0]), format!("{output:?}"));
        assert_eq!(back.to_json_string(), text, "{literal}");
    }
}

fn fleet_outputs() -> Vec<(SessionOutput, &'static str)> {
    vec![
        (
            SessionOutput::Web(WebSessionResult {
                tiers: vec![
                    TierObservation {
                        delay_ms: 250,
                        families: vec![Some(Family::V6), None, Some(Family::V4)],
                        fetch_us: vec![800, 5_000_000, 1200],
                    },
                    TierObservation {
                        delay_ms: 300,
                        families: vec![None],
                        fetch_us: Vec::new(),
                    },
                ],
            }),
            r#"{"index":0,"kind":"web","tiers":[{"delay_ms":250,"families":"6x4","fetch_us":[800,5000000,1200]},{"delay_ms":300,"families":"x","fetch_us":[]}]}"#,
        ),
        (
            SessionOutput::Resolver(ResolverCheckOutput {
                capable: true,
                aaaa_first: Some(false),
                resolution_ms: 12.625,
            }),
            r#"{"index":0,"kind":"resolver","capable":true,"aaaa_first":false,"resolution_ms":12.625}"#,
        ),
        (
            SessionOutput::Resolver(ResolverCheckOutput {
                capable: false,
                aaaa_first: None,
                resolution_ms: 40.0,
            }),
            r#"{"index":0,"kind":"resolver","capable":false,"aaaa_first":null,"resolution_ms":40}"#,
        ),
    ]
}

#[test]
fn both_session_output_kinds_have_a_pinned_wire_format() {
    let empty = FleetCheckpoint::new(FleetSpec::default(), 1, None).to_json_string();
    for (output, literal) in fleet_outputs() {
        let mut part = FleetCheckpoint::new(FleetSpec::default(), 1, None);
        part.record(0, output.clone());
        let text = part.to_json_string();
        assert_eq!(stored_output(&text, 0), literal);
        let back = FleetCheckpoint::from_json_str(&with_output(&empty, literal)).unwrap();
        assert_eq!(back.completed()[&0], output);
        assert_eq!(back.to_json_string(), text, "{literal}");
    }
}

#[test]
fn pre_timing_web_sessions_still_load() {
    let empty = FleetCheckpoint::new(FleetSpec::default(), 1, None).to_json_string();
    let legacy = r#"{"index":0,"kind":"web","tiers":[{"delay_ms":0,"families":"64x"}]}"#;
    let back = FleetCheckpoint::from_json_str(&with_output(&empty, legacy)).unwrap();
    assert_eq!(
        back.completed()[&0],
        SessionOutput::Web(WebSessionResult {
            tiers: vec![TierObservation {
                delay_ms: 0,
                families: vec![Some(Family::V6), Some(Family::V4), None],
                fetch_us: Vec::new(),
            }],
        })
    );
}

fn trace_events() -> Vec<(TraceEventKind, &'static str)> {
    vec![
        (
            TraceEventKind::DnsQuerySent {
                qtype: "AAAA".into(),
            },
            r#"{"at_ns":7,"kind":"dns_query_sent","qtype":"AAAA"}"#,
        ),
        (
            TraceEventKind::DnsAnswer {
                qtype: "A".into(),
                records: 2,
                outcome: "ok".into(),
            },
            r#"{"at_ns":7,"kind":"dns_answer","qtype":"A","records":2,"outcome":"ok"}"#,
        ),
        (
            TraceEventKind::QueryArrived {
                qtype: "AAAA".into(),
                family: Family::V6,
            },
            r#"{"at_ns":7,"kind":"query_arrived","qtype":"AAAA","family":"v6"}"#,
        ),
        (
            TraceEventKind::ResolutionDelayStarted { delay_ms: 50 },
            r#"{"at_ns":7,"kind":"rd_started","delay_ms":50}"#,
        ),
        (
            TraceEventKind::ResolutionDelayExpired,
            r#"{"at_ns":7,"kind":"rd_expired"}"#,
        ),
        (
            TraceEventKind::CandidatesBuilt {
                families: "6464".into(),
            },
            r#"{"at_ns":7,"kind":"candidates_built","families":"6464"}"#,
        ),
        (
            TraceEventKind::AttemptStarted {
                index: 1,
                addr: "192.0.2.1".into(),
                family: Family::V4,
                proto: "tcp".into(),
            },
            r#"{"at_ns":7,"kind":"attempt_started","index":1,"addr":"192.0.2.1","family":"v4","proto":"tcp"}"#,
        ),
        (
            TraceEventKind::AttemptSucceeded {
                index: 0,
                addr: "2001:db8::1".into(),
            },
            r#"{"at_ns":7,"kind":"attempt_succeeded","index":0,"addr":"2001:db8::1"}"#,
        ),
        (
            TraceEventKind::AttemptFailed {
                index: 2,
                addr: "2001:db8::2".into(),
                error: "cancelled".into(),
            },
            r#"{"at_ns":7,"kind":"attempt_failed","index":2,"addr":"2001:db8::2","error":"cancelled"}"#,
        ),
        (
            TraceEventKind::Established {
                addr: "2001:db8::1".into(),
                family: Family::V6,
                proto: "quic".into(),
            },
            r#"{"at_ns":7,"kind":"established","addr":"2001:db8::1","family":"v6","proto":"quic"}"#,
        ),
        (
            TraceEventKind::UsedCachedOutcome {
                addr: "192.0.2.9".into(),
            },
            r#"{"at_ns":7,"kind":"used_cached_outcome","addr":"192.0.2.9"}"#,
        ),
        (
            TraceEventKind::Failed {
                reason: "all attempts failed".into(),
            },
            r#"{"at_ns":7,"kind":"failed","reason":"all attempts failed"}"#,
        ),
    ]
}

#[test]
fn every_trace_event_kind_has_a_pinned_wire_format() {
    for (kind, literal) in trace_events() {
        let event = TraceEvent { at_ns: 7, kind };
        assert_eq!(event.to_json().to_string_compact(), literal);
        let back = TraceEvent::from_json(&Json::parse(literal).unwrap()).unwrap();
        assert_eq!(back, event, "{literal}");
    }
}
