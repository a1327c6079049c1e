//! Fleet-plan expansion: a [`FleetSpec`] becomes a flat, deterministic
//! list of concrete sessions, each with its own derived seed.
//!
//! Expansion order is fixed (members in Table 5 × condition order; per
//! member CAD sessions then RD sessions; resolver checks last), so
//! session indices — and therefore seeds, executor sharding and the
//! collector fold — are a pure function of the spec.

use lazyeye_webtool::ResolverStack;

use crate::spec::{resolve_members, FleetSpec, Member};

/// What a single fleet session measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// One CAD web session (all 18 tiers) for `members[member]`.
    Cad {
        /// Index into the resolved member list.
        member: usize,
    },
    /// One RD web session (AAAA answers delayed) for `members[member]`.
    Rd {
        /// Index into the resolved member list.
        member: usize,
    },
    /// One delayed-**A** web session (the §5.2 wait-for-all-answers
    /// probe) for `members[member]`.
    RdA {
        /// Index into the resolved member list.
        member: usize,
    },
    /// One resolver check behind the given resolver stack.
    ResolverCheck {
        /// The recursive resolver's network stack.
        stack: ResolverStack,
    },
}

/// One concrete session of the fleet plan.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSpec {
    /// Position in the expanded plan (also the collector fold order).
    pub index: u64,
    /// The session's deployment seed, derived from
    /// `(fleet_seed, "fleet", index)`.
    pub seed: u64,
    /// What to measure.
    pub kind: SessionKind,
}

/// Domain tag separating fleet session seeds from every other seed
/// stream in the workspace.
const FLEET_SEED_TAG: u64 = 0x666c_6565_7400; // "fleet\0"

/// Derives the seed of session `index` from the fleet seed.
pub fn derive_session_seed(fleet_seed: u64, index: u64) -> u64 {
    rand::mix_words(fleet_seed ^ FLEET_SEED_TAG, &[index])
}

/// The resolved plan: members plus the flat session list.
pub struct FleetPlan {
    /// Population members, in expansion order.
    pub members: Vec<Member>,
    /// All sessions, index-dense and ordered.
    pub sessions: Vec<SessionSpec>,
}

/// Expands the spec into the concrete session plan.
///
/// The result is deterministic: same spec ⇒ same members, same sessions,
/// same seeds — regardless of how many workers later execute them. A
/// spec planning more than [`lazyeye_exec::MAX_PLANNED_ITEMS`] sessions
/// is refused before any is allocated.
pub fn expand(spec: &FleetSpec) -> Result<FleetPlan, String> {
    let members = resolve_members(spec)?;
    let per_member =
        u64::from(spec.cad_sessions) + u64::from(spec.rd_sessions) + u64::from(spec.rd_a_sessions);
    let planned = (members.len() as u64)
        .saturating_mul(per_member)
        .saturating_add(2 * u64::from(spec.resolver_checks));
    lazyeye_exec::check_plan_budget(planned, "sessions")?;
    let mut sessions = Vec::new();
    let push = |kind: SessionKind, sessions: &mut Vec<SessionSpec>| {
        let index = sessions.len() as u64;
        sessions.push(SessionSpec {
            index,
            seed: derive_session_seed(spec.seed, index),
            kind,
        });
    };
    for (member, _) in members.iter().enumerate() {
        for _ in 0..spec.cad_sessions {
            push(SessionKind::Cad { member }, &mut sessions);
        }
        for _ in 0..spec.rd_sessions {
            push(SessionKind::Rd { member }, &mut sessions);
        }
        for _ in 0..spec.rd_a_sessions {
            push(SessionKind::RdA { member }, &mut sessions);
        }
    }
    for stack in [ResolverStack::DualStack, ResolverStack::V4Only] {
        for _ in 0..spec.resolver_checks {
            push(SessionKind::ResolverCheck { stack }, &mut sessions);
        }
    }
    Ok(FleetPlan { members, sessions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            population: vec!["opera-114.0.0".to_string()],
            cad_sessions: 2,
            rd_sessions: 1,
            resolver_checks: 1,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn expansion_is_deterministic_and_dense() {
        let spec = tiny_spec();
        let a = expand(&spec).unwrap();
        let b = expand(&spec).unwrap();
        assert_eq!(a.sessions, b.sessions);
        for (i, s) in a.sessions.iter().enumerate() {
            assert_eq!(s.index, i as u64);
        }
        // 1 client × 2 conditions × (2 cad + 1 rd) + 2 stacks × 1 check.
        assert_eq!(a.sessions.len(), 2 * 3 + 2);
        assert_eq!(a.members.len(), 2);
    }

    #[test]
    fn session_seeds_do_not_collide() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| derive_session_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_session_seed(1, 7), derive_session_seed(2, 7));
    }

    #[test]
    fn rd_a_sessions_extend_the_plan_without_moving_existing_indices() {
        let base = expand(&tiny_spec()).unwrap();
        let with_rd_a = expand(&FleetSpec {
            rd_a_sessions: 1,
            ..tiny_spec()
        })
        .unwrap();
        // Per member the RdA sessions slot in after that member's Rd
        // sessions, so the plan grows — but a spec with the probe off
        // expands to the exact sessions (indices AND seeds) it always did.
        assert_eq!(with_rd_a.sessions.len(), base.sessions.len() + 2);
        assert_eq!(with_rd_a.sessions[3].kind, SessionKind::RdA { member: 0 });
        let rd_a_count = with_rd_a
            .sessions
            .iter()
            .filter(|s| matches!(s.kind, SessionKind::RdA { .. }))
            .count();
        assert_eq!(rd_a_count, 2);
    }

    #[test]
    fn cad_sessions_precede_rd_sessions_per_member() {
        let plan = expand(&tiny_spec()).unwrap();
        assert_eq!(plan.sessions[0].kind, SessionKind::Cad { member: 0 });
        assert_eq!(plan.sessions[1].kind, SessionKind::Cad { member: 0 });
        assert_eq!(plan.sessions[2].kind, SessionKind::Rd { member: 0 });
        assert_eq!(plan.sessions[3].kind, SessionKind::Cad { member: 1 });
        assert!(matches!(
            plan.sessions.last().unwrap().kind,
            SessionKind::ResolverCheck {
                stack: ResolverStack::V4Only
            }
        ));
    }
}
