//! Causal profiling of a run: reconstruct the causal DAG behind a
//! trace, walk the critical path to `Established`, and attribute the
//! total establishment latency into exhaustive, non-overlapping phases.
//!
//! The attribution is **exact by construction**: the run's timeline
//! `[0, established)` is cut at every event boundary, each elementary
//! interval `[a, b)` is assigned to exactly one phase and contributes
//! `ms(b) − ms(a)` (floor of virtual nanoseconds to integer ms), so the
//! per-phase totals telescope to `ms(established)` with no residual —
//! whatever the event ordering. Everything here is a pure function of
//! the trace, hence of (spec, seed): profile outputs inherit the
//! virtual-clock determinism contract and can be byte-compared across
//! worker counts.

use crate::{Trace, TraceEvent, TraceEventKind};

/// The exhaustive phase taxonomy, in canonical display order.
///
/// * `resolution` — waiting for a usable DNS answer, including any armed
///   Resolution Delay window (the client *chose* to keep resolving).
/// * `stall` — answers are in hand but no attempt has started and no RD
///   timer explains the wait (the §5.2 wait-for-all-answers pathology).
/// * `cad` — an attempt is in flight but the winner has not started yet:
///   Connection Attempt Delay staggering and head-of-line attempt time.
/// * `fallback` — every started attempt has failed and the client is
///   waiting to launch the next candidate (post-failure fallback).
/// * `connect` — the winning attempt's own handshake time.
pub const PHASES: [&str; 5] = ["resolution", "stall", "cad", "fallback", "connect"];

/// One node of the causal DAG: an event that can cause later events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagNode {
    /// Index into [`CausalDag::nodes`] (stable, chronological).
    pub id: usize,
    /// Virtual time of the event (ns).
    pub at_ns: u64,
    /// Short label, e.g. `attempt_started(1)`.
    pub label: String,
}

/// The causal DAG reconstructed from one trace's client-side events.
///
/// Edges point from cause to effect and never go backwards in time, so
/// the structure is acyclic by construction. Server-side
/// [`TraceEventKind::QueryArrived`] observations are not part of the
/// client's causal story and are skipped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalDag {
    /// Nodes in chronological (emission) order.
    pub nodes: Vec<DagNode>,
    /// Directed `(cause, effect)` pairs of node ids.
    pub edges: Vec<(usize, usize)>,
}

fn node_label(kind: &TraceEventKind) -> Option<String> {
    Some(match kind {
        TraceEventKind::DnsQuerySent { qtype } => format!("dns_query_sent({qtype})"),
        TraceEventKind::DnsAnswer { qtype, .. } => format!("dns_answer({qtype})"),
        TraceEventKind::QueryArrived { .. } => return None,
        TraceEventKind::ResolutionDelayStarted { .. } => "rd_started".to_string(),
        TraceEventKind::ResolutionDelayExpired => "rd_expired".to_string(),
        TraceEventKind::CandidatesBuilt { .. } => "candidates_built".to_string(),
        TraceEventKind::AttemptStarted { index, .. } => format!("attempt_started({index})"),
        TraceEventKind::AttemptSucceeded { index, .. } => format!("attempt_succeeded({index})"),
        TraceEventKind::AttemptFailed { index, .. } => format!("attempt_failed({index})"),
        TraceEventKind::Established { .. } => "established".to_string(),
        TraceEventKind::UsedCachedOutcome { .. } => "used_cached_outcome".to_string(),
        TraceEventKind::Failed { .. } => "failed".to_string(),
    })
}

impl CausalDag {
    /// Reconstructs the DAG from a trace.
    pub fn from_trace(trace: &Trace) -> CausalDag {
        // Client-side events only, chronological; each keeps a pointer
        // back to the original kind for edge derivation.
        let events: Vec<&TraceEvent> = trace
            .events
            .iter()
            .filter(|e| !matches!(e.kind, TraceEventKind::QueryArrived { .. }))
            .collect();
        let nodes: Vec<DagNode> = events
            .iter()
            .enumerate()
            .map(|(id, e)| DagNode {
                id,
                at_ns: e.at_ns,
                label: node_label(&e.kind).expect("server events filtered"),
            })
            .collect();

        // `latest(pred)` — the most recent earlier node matching `pred`.
        // "Earlier" means a smaller node id: emission order is the causal
        // order even for same-instant events.
        let latest = |before: usize, pred: &dyn Fn(&TraceEventKind) -> bool| -> Option<usize> {
            (0..before).rev().find(|&j| pred(&events[j].kind))
        };

        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut push = |from: Option<usize>, to: usize| {
            if let Some(f) = from {
                edges.push((f, to));
            }
        };
        for (i, e) in events.iter().enumerate() {
            match &e.kind {
                TraceEventKind::DnsQuerySent { .. } | TraceEventKind::QueryArrived { .. } => {}
                TraceEventKind::DnsAnswer { qtype, .. } => {
                    let q = qtype.clone();
                    push(
                        latest(
                            i,
                            &|k| matches!(k, TraceEventKind::DnsQuerySent { qtype } if *qtype == q),
                        ),
                        i,
                    );
                }
                TraceEventKind::ResolutionDelayStarted { .. } => {
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::DnsAnswer { .. })),
                        i,
                    );
                }
                TraceEventKind::ResolutionDelayExpired => {
                    push(
                        latest(i, &|k| {
                            matches!(k, TraceEventKind::ResolutionDelayStarted { .. })
                        }),
                        i,
                    );
                }
                TraceEventKind::CandidatesBuilt { .. } => {
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::DnsAnswer { .. })),
                        i,
                    );
                }
                TraceEventKind::AttemptStarted { .. } => {
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::CandidatesBuilt { .. })),
                        i,
                    );
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::ResolutionDelayExpired)),
                        i,
                    );
                    // CAD edge: the previous attempt armed the stagger
                    // timer that launched this one.
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::AttemptStarted { .. })),
                        i,
                    );
                    // Fallback edge: a failure unblocked this attempt.
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::AttemptFailed { .. })),
                        i,
                    );
                    push(
                        latest(i, &|k| {
                            matches!(k, TraceEventKind::UsedCachedOutcome { .. })
                        }),
                        i,
                    );
                }
                TraceEventKind::AttemptSucceeded { index, .. }
                | TraceEventKind::AttemptFailed { index, .. } => {
                    let idx = *index;
                    push(
                        latest(
                            i,
                            &|k| matches!(k, TraceEventKind::AttemptStarted { index, .. } if *index == idx),
                        ),
                        i,
                    );
                }
                TraceEventKind::Established { .. } => {
                    let succ = latest(i, &|k| matches!(k, TraceEventKind::AttemptSucceeded { .. }));
                    if succ.is_some() {
                        push(succ, i);
                    } else {
                        push(
                            latest(i, &|k| {
                                matches!(k, TraceEventKind::UsedCachedOutcome { .. })
                            }),
                            i,
                        );
                    }
                }
                TraceEventKind::UsedCachedOutcome { .. } => {}
                TraceEventKind::Failed { .. } => {
                    push(
                        latest(i, &|k| matches!(k, TraceEventKind::AttemptFailed { .. })),
                        i,
                    );
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        CausalDag { nodes, edges }
    }

    /// Whether the DAG holds a `cause → effect` edge.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edges.binary_search(&(from, to)).is_ok()
    }

    /// The critical path to the first `established` node, as node ids in
    /// causal order. Walks backwards always taking the latest (then
    /// highest-id) predecessor — the event that actually gated each step.
    /// Empty when the run never established.
    pub fn critical_path(&self) -> Vec<usize> {
        let Some(goal) = self.nodes.iter().find(|n| n.label == "established") else {
            return Vec::new();
        };
        let mut path = vec![goal.id];
        let mut cur = goal.id;
        loop {
            let pred = self
                .edges
                .iter()
                .filter(|(_, to)| *to == cur)
                .map(|(from, _)| *from)
                .max_by_key(|&f| (self.nodes[f].at_ns, f));
            match pred {
                Some(p) => {
                    path.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }
}

/// The exact latency budget of one established run (integer virtual ms).
///
/// Invariant, asserted by tests and proptests:
/// `resolution + stall + cad + fallback + connect == total`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Total establishment latency: `ms(established)`.
    pub total_ms: u64,
    /// Time waiting for a usable DNS answer (incl. armed RD windows).
    pub resolution_ms: u64,
    /// Answers in hand, no attempt running, no RD timer armed.
    pub stall_ms: u64,
    /// Attempt(s) in flight before the winner started (CAD staggering).
    pub cad_ms: u64,
    /// All started attempts failed; waiting for the next candidate.
    pub fallback_ms: u64,
    /// The winning attempt's handshake time.
    pub connect_ms: u64,
    /// Critical-path node labels, `label@<ms>ms`, in causal order.
    pub critical_path: Vec<String>,
}

lazyeye_json::impl_json_struct!(Attribution {
    total_ms,
    resolution_ms,
    stall_ms,
    cad_ms,
    fallback_ms,
    connect_ms,
    critical_path,
});

impl Attribution {
    /// The phase values in [`PHASES`] order.
    pub fn phase_values(&self) -> [u64; 5] {
        [
            self.resolution_ms,
            self.stall_ms,
            self.cad_ms,
            self.fallback_ms,
            self.connect_ms,
        ]
    }

    /// The dominant phase name (ties break towards earlier phases).
    pub fn dominant_phase(&self) -> &'static str {
        dominant(&self.phase_values())
    }

    /// Folds this run into a latency budget: adds its total and phases
    /// to the sums `total_ms` / `phase_ms`, and hands every phase with its
    /// milliseconds to `stack` (one flame-graph stack per phase).
    pub fn fold(
        &self,
        total_ms: &mut u64,
        phase_ms: &mut [u64; 5],
        mut stack: impl FnMut(&'static str, u64),
    ) {
        *total_ms += self.total_ms;
        for ((sum, phase), ms) in phase_ms.iter_mut().zip(PHASES).zip(self.phase_values()) {
            *sum += ms;
            stack(phase, ms);
        }
    }
}

/// The dominant phase of per-phase values in [`PHASES`] order (ties
/// break towards earlier phases).
pub fn dominant(phase_ms: &[u64; 5]) -> &'static str {
    let mut best = 0usize;
    for (i, v) in phase_ms.iter().enumerate() {
        if *v > phase_ms[best] {
            best = i;
        }
    }
    PHASES[best]
}

fn ms(ns: u64) -> u64 {
    ns / 1_000_000
}

/// Attributes one run's establishment latency into phases.
///
/// Returns `None` when the trace never reaches `Established` (failed
/// runs, resolver-side traces that only carry `QueryArrived` events).
pub fn attribute(trace: &Trace) -> Option<Attribution> {
    let events: Vec<&TraceEvent> = trace
        .events
        .iter()
        .filter(|e| !matches!(e.kind, TraceEventKind::QueryArrived { .. }))
        .collect();
    let established = events.iter().find_map(|e| match &e.kind {
        TraceEventKind::Established { addr, .. } => Some((e.at_ns, addr.clone())),
        _ => None,
    });
    let (established_ns, winner_addr) = established?;

    // Boundary times of the four regions.
    let first_attempt_ns = events
        .iter()
        .find_map(|e| match &e.kind {
            TraceEventKind::AttemptStarted { .. } => Some(e.at_ns),
            _ => None,
        })
        .unwrap_or(established_ns);
    let first_answer_ns = events
        .iter()
        .find_map(|e| match &e.kind {
            TraceEventKind::DnsAnswer {
                records, outcome, ..
            } if *records > 0 && outcome == "ok" => Some(e.at_ns),
            _ => None,
        })
        .unwrap_or(first_attempt_ns);
    // The winning attempt: last start of the established address at or
    // before establishment (re-attempts of one address keep the latest).
    let winner_start_ns = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::AttemptStarted { addr, .. }
                if *addr == winner_addr && e.at_ns <= established_ns =>
            {
                Some(e.at_ns)
            }
            _ => None,
        })
        .next_back()
        .unwrap_or(first_attempt_ns);

    // Armed Resolution Delay windows [start, end): the client is still
    // *choosing* to resolve, so the wait counts as resolution.
    let mut rd_windows: Vec<(u64, u64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if let TraceEventKind::ResolutionDelayStarted { delay_ms } = &e.kind {
            let end = events[i + 1..]
                .iter()
                .find_map(|f| match f.kind {
                    TraceEventKind::ResolutionDelayExpired => Some(f.at_ns),
                    _ => None,
                })
                .unwrap_or_else(|| e.at_ns.saturating_add(delay_ms * 1_000_000));
            rd_windows.push((e.at_ns, end));
        }
    }

    // Attempt lifetimes: start → terminal (fail) time, for pendingness.
    let mut attempt_spans: Vec<(u64, Option<u64>)> = Vec::new();
    let mut open: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for e in &events {
        match &e.kind {
            TraceEventKind::AttemptStarted { index, .. } => {
                attempt_spans.push((e.at_ns, None));
                open.insert(*index, attempt_spans.len() - 1);
            }
            TraceEventKind::AttemptFailed { index, .. } => {
                if let Some(slot) = open.remove(index) {
                    attempt_spans[slot].1 = Some(e.at_ns);
                }
            }
            _ => {}
        }
    }

    // Cut the timeline at every boundary and classify each elementary
    // interval by its start instant.
    let mut cuts: Vec<u64> = vec![0, established_ns, first_attempt_ns, first_answer_ns];
    cuts.push(winner_start_ns);
    for e in &events {
        if e.at_ns <= established_ns {
            cuts.push(e.at_ns);
        }
    }
    for (s, e) in &rd_windows {
        cuts.push((*s).min(established_ns));
        cuts.push((*e).min(established_ns));
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut attr = Attribution {
        total_ms: ms(established_ns),
        ..Attribution::default()
    };
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let weight = ms(b) - ms(a);
        let slot = if a >= winner_start_ns {
            &mut attr.connect_ms
        } else if a >= first_attempt_ns {
            let pending = attempt_spans
                .iter()
                .any(|(s, end)| *s <= a && end.is_none_or(|t| t > a));
            if pending {
                &mut attr.cad_ms
            } else {
                &mut attr.fallback_ms
            }
        } else if a >= first_answer_ns {
            let in_rd = rd_windows.iter().any(|(s, e)| *s <= a && a < *e);
            if in_rd {
                &mut attr.resolution_ms
            } else {
                &mut attr.stall_ms
            }
        } else {
            &mut attr.resolution_ms
        };
        *slot += weight;
    }

    let dag = CausalDag::from_trace(trace);
    attr.critical_path = dag
        .critical_path()
        .into_iter()
        .map(|id| format!("{}@{}ms", dag.nodes[id].label, ms(dag.nodes[id].at_ns)))
        .collect();
    Some(attr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceMeta;
    use lazyeye_net::Family;

    fn meta() -> TraceMeta {
        TraceMeta {
            subject: "test-client".into(),
            case: "cad".into(),
            condition: "baseline".into(),
            configured_delay_ms: 0,
            rep: 0,
            seed: 1,
        }
    }

    fn ev(at_ms: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at_ns: at_ms * 1_000_000,
            kind,
        }
    }

    fn started(at_ms: u64, index: u64, addr: &str, family: Family) -> TraceEvent {
        ev(
            at_ms,
            TraceEventKind::AttemptStarted {
                index,
                addr: addr.into(),
                family,
                proto: "tcp".into(),
            },
        )
    }

    fn answer(at_ms: u64, qtype: &str) -> TraceEvent {
        ev(
            at_ms,
            TraceEventKind::DnsAnswer {
                qtype: qtype.into(),
                records: 1,
                outcome: "ok".into(),
            },
        )
    }

    fn query(qtype: &str) -> TraceEvent {
        ev(
            0,
            TraceEventKind::DnsQuerySent {
                qtype: qtype.into(),
            },
        )
    }

    fn cad_trace() -> Trace {
        Trace {
            meta: meta(),
            events: vec![
                query("AAAA"),
                query("A"),
                answer(20, "AAAA"),
                answer(25, "A"),
                ev(
                    25,
                    TraceEventKind::CandidatesBuilt {
                        families: "64".into(),
                    },
                ),
                started(25, 0, "2001:db8::1", Family::V6),
                started(325, 1, "192.0.2.1", Family::V4),
                ev(
                    345,
                    TraceEventKind::AttemptSucceeded {
                        index: 1,
                        addr: "192.0.2.1".into(),
                    },
                ),
                ev(
                    345,
                    TraceEventKind::Established {
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn cad_run_attributes_exactly() {
        let attr = attribute(&cad_trace()).expect("established run");
        assert_eq!(attr.total_ms, 345);
        assert_eq!(attr.resolution_ms, 20);
        assert_eq!(attr.stall_ms, 5);
        assert_eq!(attr.cad_ms, 300);
        assert_eq!(attr.fallback_ms, 0);
        assert_eq!(attr.connect_ms, 20);
        assert_eq!(attr.phase_values().iter().sum::<u64>(), attr.total_ms);
        assert_eq!(attr.dominant_phase(), "cad");
    }

    #[test]
    fn fallback_run_attributes_exactly() {
        let t = Trace {
            meta: meta(),
            events: vec![
                query("AAAA"),
                query("A"),
                answer(10, "AAAA"),
                answer(10, "A"),
                ev(
                    10,
                    TraceEventKind::CandidatesBuilt {
                        families: "64".into(),
                    },
                ),
                started(10, 0, "2001:db8::1", Family::V6),
                ev(
                    50,
                    TraceEventKind::AttemptFailed {
                        index: 0,
                        addr: "2001:db8::1".into(),
                        error: "rst".into(),
                    },
                ),
                started(60, 1, "192.0.2.1", Family::V4),
                ev(
                    80,
                    TraceEventKind::AttemptSucceeded {
                        index: 1,
                        addr: "192.0.2.1".into(),
                    },
                ),
                ev(
                    80,
                    TraceEventKind::Established {
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                ),
            ],
        };
        let attr = attribute(&t).unwrap();
        assert_eq!(
            (
                attr.resolution_ms,
                attr.stall_ms,
                attr.cad_ms,
                attr.fallback_ms,
                attr.connect_ms
            ),
            (10, 0, 40, 10, 20)
        );
        assert_eq!(attr.total_ms, 80);
    }

    #[test]
    fn stall_run_is_stall_dominant() {
        let t = Trace {
            meta: meta(),
            events: vec![
                query("AAAA"),
                query("A"),
                answer(30, "A"),
                answer(400, "AAAA"),
                ev(
                    400,
                    TraceEventKind::CandidatesBuilt {
                        families: "64".into(),
                    },
                ),
                started(400, 0, "2001:db8::1", Family::V6),
                ev(
                    420,
                    TraceEventKind::AttemptSucceeded {
                        index: 0,
                        addr: "2001:db8::1".into(),
                    },
                ),
                ev(
                    420,
                    TraceEventKind::Established {
                        addr: "2001:db8::1".into(),
                        family: Family::V6,
                        proto: "tcp".into(),
                    },
                ),
            ],
        };
        let attr = attribute(&t).unwrap();
        assert_eq!(attr.resolution_ms, 30);
        assert_eq!(attr.stall_ms, 370);
        assert_eq!(attr.connect_ms, 20);
        assert_eq!(attr.dominant_phase(), "stall");
        assert_eq!(attr.phase_values().iter().sum::<u64>(), attr.total_ms);
    }

    #[test]
    fn rd_window_counts_as_resolution() {
        let t = Trace {
            meta: meta(),
            events: vec![
                query("AAAA"),
                query("A"),
                answer(30, "A"),
                ev(30, TraceEventKind::ResolutionDelayStarted { delay_ms: 50 }),
                ev(80, TraceEventKind::ResolutionDelayExpired),
                ev(
                    80,
                    TraceEventKind::CandidatesBuilt {
                        families: "4".into(),
                    },
                ),
                started(80, 0, "192.0.2.1", Family::V4),
                ev(
                    100,
                    TraceEventKind::AttemptSucceeded {
                        index: 0,
                        addr: "192.0.2.1".into(),
                    },
                ),
                ev(
                    100,
                    TraceEventKind::Established {
                        addr: "192.0.2.1".into(),
                        family: Family::V4,
                        proto: "tcp".into(),
                    },
                ),
            ],
        };
        let attr = attribute(&t).unwrap();
        assert_eq!(attr.resolution_ms, 80);
        assert_eq!(attr.stall_ms, 0);
        assert_eq!(attr.connect_ms, 20);
        assert_eq!(attr.total_ms, 100);
    }

    #[test]
    fn failed_run_yields_none() {
        let t = Trace {
            meta: meta(),
            events: vec![
                query("AAAA"),
                ev(
                    3000,
                    TraceEventKind::Failed {
                        reason: "timeout".into(),
                    },
                ),
            ],
        };
        assert!(attribute(&t).is_none());
    }

    #[test]
    fn critical_path_is_a_real_dag_path() {
        let t = cad_trace();
        let dag = CausalDag::from_trace(&t);
        let path = dag.critical_path();
        assert!(path.len() >= 2, "path too short: {path:?}");
        assert_eq!(dag.nodes[*path.last().unwrap()].label, "established");
        for w in path.windows(2) {
            assert!(
                dag.has_edge(w[0], w[1]),
                "critical path step {} -> {} is not a DAG edge",
                dag.nodes[w[0]].label,
                dag.nodes[w[1]].label
            );
        }
        // The path threads through the winner's attempt.
        let labels: Vec<&str> = path.iter().map(|&i| dag.nodes[i].label.as_str()).collect();
        assert!(labels.contains(&"attempt_started(1)"), "{labels:?}");
    }

    #[test]
    fn attribution_json_roundtrip() {
        use lazyeye_json::{FromJson, ToJson};
        let attr = attribute(&cad_trace()).unwrap();
        let back = Attribution::from_json(&attr.to_json()).unwrap();
        assert_eq!(back, attr);
    }
}
