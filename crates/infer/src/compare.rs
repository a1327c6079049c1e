//! Profile/report comparison primitives: typed field-level deltas shared
//! by the campaign's inference-vs-summary agreement check and the
//! `--diff` of campaign reports, fleet reports and inferred-profile sets,
//! plus the one text renderer all three diffs print through.

use std::fmt::Write as _;

use lazyeye_json::{FromJson, Json, ToJson};

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

/// A behaviour diff between two snapshots (campaign reports, fleet
/// reports, inferred-profile sets): the keys only one side has, and
/// sections of field deltas. Every `--diff` prints through
/// [`BehaviourDiff::render`].
pub trait BehaviourDiff: ToJson {
    /// The noun of one key (`cell`, `member`, `profile`).
    const NOUN: &'static str;
    /// The keys only in the new snapshot, then those only in the old one.
    fn keys(&self) -> (&[String], &[String]);
    /// The `(label, deltas)` sections, in print order.
    fn sections(&self) -> Vec<(&'static str, &[FieldDelta])>;

    /// `true` when the two snapshots behave identically.
    fn is_empty(&self) -> bool {
        let (added, removed) = self.keys();
        added.is_empty() && removed.is_empty() && self.sections().iter().all(|s| s.1.is_empty())
    }

    /// Pretty JSON when `json` is set. Else text: a `- {noun} {key}` line
    /// per removed key, a `+ {noun} {key}` line per added key, then a
    /// `~ {label}{delta}` line per delta of each section, in order; or
    /// `no behaviour changes`.
    fn render(&self, json: bool) -> String {
        let mut out = String::new();
        if json {
            self.to_json().write_pretty_into(&mut out);
            out.push('\n');
            return out;
        }
        let (added, removed) = self.keys();
        for key in removed {
            let _ = writeln!(out, "- {} {key}", Self::NOUN);
        }
        for key in added {
            let _ = writeln!(out, "+ {} {key}", Self::NOUN);
        }
        for (label, deltas) in self.sections() {
            for delta in deltas {
                let _ = writeln!(out, "~ {label}{delta}");
            }
        }
        if out.is_empty() {
            out.push_str("no behaviour changes\n");
        }
        out
    }
}

/// The behaviour changes between two inferred-profile sets, matched by
/// subject — `lazyeye infer --diff old.json new.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSetDiff {
    /// Subjects present only in the new set.
    pub added: Vec<String>,
    /// Subjects present only in the old set.
    pub removed: Vec<String>,
    /// Changed fields of subjects in both, prefixed with the subject.
    pub changed: Vec<FieldDelta>,
}

lazyeye_json::impl_json_struct!(ProfileSetDiff {
    added,
    removed,
    changed,
});

impl ProfileSetDiff {
    /// Diffs two profile sets subject by subject.
    pub fn new(old: &[InferredProfile], new: &[InferredProfile]) -> ProfileSetDiff {
        let mut changed = Vec::new();
        let subject = |p: &InferredProfile| p.subject.clone();
        let (added, removed) = match_keyed(old, new, subject, |o, n| {
            changed.extend(diff_profiles(o, n).into_iter().map(|delta| FieldDelta {
                field: format!("{}.{}", o.subject, delta.field),
                ..delta
            }))
        });
        ProfileSetDiff {
            added: added.into_iter().map(subject).collect(),
            removed: removed.into_iter().map(subject).collect(),
            changed,
        }
    }
}

impl BehaviourDiff for ProfileSetDiff {
    const NOUN: &'static str = "profile";

    fn keys(&self) -> (&[String], &[String]) {
        (&self.added, &self.removed)
    }

    fn sections(&self) -> Vec<(&'static str, &[FieldDelta])> {
        vec![("", &self.changed)]
    }
}

/// Reads inferred profiles from any of the JSON shapes the tool emits: a
/// bare array of profiles, an array of `{profile, conformance}` reports,
/// or an object carrying a `clients`/`profiles` array (the
/// `infer --trace` and `--campaign` outputs respectively).
pub fn profiles_from_json(v: &Json) -> Result<Vec<InferredProfile>, String> {
    if let Some(inner) = ["clients", "profiles"].iter().find_map(|key| v.get(key)) {
        return profiles_from_json(inner);
    }
    let entries = v
        .as_array()
        .ok_or("expected a profile array or an object with a clients/profiles key")?;
    let profile = |e: &Json| InferredProfile::from_json(e.get("profile").unwrap_or(e));
    entries
        .iter()
        .map(|e| profile(e).map_err(|err| format!("bad profile entry: {err}")))
        .collect()
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
    fn profile_sets_diff_by_subject_and_render_once() {
        let profile = |subject: &str, family: Family| {
            let mut o = Observation::shell(CaseKind::Cad, subject, "baseline", 0, 0);
            o.family = Some(family);
            infer_profile(subject, &[o])
        };
        let old = [profile("a", Family::V6), profile("b", Family::V6)];
        let new = [profile("b", Family::V4), profile("c", Family::V6)];
        let diff = ProfileSetDiff::new(&old, &new);
        assert_eq!(diff.added, vec!["c"]);
        assert_eq!(diff.removed, vec!["a"]);
        assert!(diff.changed.iter().all(|d| d.field.starts_with("b.")));
        let text = diff.render(false);
        assert!(
            text.starts_with("- profile a\n+ profile c\n~ b.prefers_v6: "),
            "{text}"
        );
        assert_eq!(
            ProfileSetDiff::new(&old, &old).render(false),
            "no behaviour changes\n"
        );

        // Every shape the tool emits reads back as the same profiles.
        let bare = Json::Arr(old.iter().map(ToJson::to_json).collect());
        let wrapped = Json::obj(vec![("clients", bare.clone())]);
        assert_eq!(profiles_from_json(&bare).unwrap(), old);
        assert_eq!(profiles_from_json(&wrapped).unwrap(), old);
        assert!(profiles_from_json(&Json::Null).is_err());
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
