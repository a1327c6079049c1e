//! Profile/report comparison primitives: typed field-level deltas shared
//! by the campaign's inference-vs-summary agreement check and the
//! `lazyeye campaign --diff` report differ.

use lazyeye_json::ToJson;

use crate::profile::InferredProfile;

/// One changed field: `field: old -> new`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDelta {
    /// Field path (`"cad.estimate_ms"`, `"cells[cad/chrome].v6_share_pct"`).
    pub field: String,
    /// Old / left-hand rendering (`"-"` for absent).
    pub old: String,
    /// New / right-hand rendering.
    pub new: String,
}

lazyeye_json::impl_json_struct!(FieldDelta { field, old, new });

impl std::fmt::Display for FieldDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} -> {}", self.field, self.old, self.new)
    }
}

/// Renders an optional value for a delta (`"-"` for `None`).
pub fn fmt_opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    }
}

/// Collects a delta when two renderings differ.
pub fn push_delta(out: &mut Vec<FieldDelta>, field: impl Into<String>, old: String, new: String) {
    if old != new {
        out.push(FieldDelta {
            field: field.into(),
            old,
            new,
        });
    }
}

/// A named field and how to render it for a delta.
pub type Field<T> = (&'static str, fn(&T) -> String);

/// Collects a delta, named `prefix` + the field's name, for every field
/// whose rendering differs between `old` and `new`, in `fields` order.
pub fn push_fields<T>(
    out: &mut Vec<FieldDelta>,
    prefix: &str,
    fields: &[Field<T>],
    old: &T,
    new: &T,
) {
    for (name, render) in fields {
        push_delta(out, format!("{prefix}{name}"), render(old), render(new));
    }
}

/// Matches two keyed lists the way every behaviour diff reads them:
/// returns the items only in `new` (in `new` order) and those only in
/// `old` (in `old` order), and calls `both` on each pair present in both,
/// in `old` order.
pub fn match_keyed<'a, T, K: PartialEq>(
    old: &'a [T],
    new: &'a [T],
    key: impl Fn(&T) -> K,
    mut both: impl FnMut(&T, &T),
) -> (Vec<&'a T>, Vec<&'a T>) {
    let added = new
        .iter()
        .filter(|n| !old.iter().any(|o| key(o) == key(n)))
        .collect();
    let mut removed = Vec::new();
    for o in old {
        match new.iter().find(|n| key(n) == key(o)) {
            Some(n) => both(o, n),
            None => removed.push(o),
        }
    }
    (added, removed)
}

/// Field-level diff of two inferred profiles (same subject or not); used
/// to compare a client across versions or campaigns.
pub fn diff_profiles(old: &InferredProfile, new: &InferredProfile) -> Vec<FieldDelta> {
    let fields: &[Field<InferredProfile>] = &[
        ("prefers_v6", |p| fmt_opt(&p.prefers_v6)),
        ("aaaa_first", |p| fmt_opt(&p.aaaa_first)),
        ("cad.implemented", |p| fmt_opt(&p.cad.implemented)),
        ("cad.estimate_ms", |p| fmt_opt(&p.cad.estimate_ms)),
        ("cad.last_v6_delay_ms", |p| fmt_opt(&p.cad.last_v6_delay_ms)),
        ("cad.first_v4_delay_ms", |p| {
            fmt_opt(&p.cad.first_v4_delay_ms)
        }),
        ("rd.implemented", |p| fmt_opt(&p.rd.implemented)),
        ("rd.delay_ms", |p| fmt_opt(&p.rd.delay_ms)),
        ("rd.waits_for_all_answers", |p| {
            fmt_opt(&p.rd.waits_for_all_answers)
        }),
        ("sorting", |p| p.sorting.to_json().to_string_compact()),
        ("v6_addrs_used", |p| fmt_opt(&p.v6_addrs_used)),
        ("v4_addrs_used", |p| fmt_opt(&p.v4_addrs_used)),
    ];
    let mut out = Vec::new();
    push_fields(&mut out, "", fields, old, new);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{CaseKind, Observation};
    use crate::profile::infer_profile;
    use lazyeye_net::Family;

    #[test]
    fn identical_profiles_produce_no_deltas() {
        let mut v6 = Observation::shell(CaseKind::Cad, "c", "baseline", 0, 0);
        v6.family = Some(Family::V6);
        let p = infer_profile("c", &[v6]);
        assert!(diff_profiles(&p, &p).is_empty());
    }

    #[test]
    fn changed_cad_shows_up() {
        let mk = |fallback: bool| {
            let mut v6 = Observation::shell(CaseKind::Cad, "c", "baseline", 0, 0);
            v6.family = Some(Family::V6);
            let mut far = Observation::shell(CaseKind::Cad, "c", "baseline", 400, 0);
            far.family = Some(if fallback { Family::V4 } else { Family::V6 });
            far.observed_cad_ms = fallback.then_some(300.0);
            infer_profile("c", &[v6, far])
        };
        let deltas = diff_profiles(&mk(false), &mk(true));
        assert!(deltas.iter().any(|d| d.field == "cad.implemented"));
        let d = deltas
            .iter()
            .find(|d| d.field == "cad.estimate_ms")
            .unwrap();
        assert_eq!(d.old, "-");
        assert_eq!(d.new, "300");
        assert_eq!(d.to_string(), "cad.estimate_ms: - -> 300");
    }
}
