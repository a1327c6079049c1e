//! Black-box bundles: the self-contained JSON artifact a
//! [trigger](crate::trigger) writes when an anomaly fires.
//!
//! A bundle holds its schema version and one **virtual** section —
//! trigger identity, full run provenance and the captured trace. The
//! section is a pure function of (spec, seed), so a bundle file's bytes
//! are the same whatever `--jobs` is, and the trace is what
//! `lazyeye replay` regenerates and diffs. Older bundles also carried a
//! host-time `wall` section; the parser accepts and ignores it, so
//! archived bundles still replay.
//!
//! This crate stays payload-agnostic (provenance and trace are opaque
//! [`Json`] values) so it can sit below `core`/`testbed` in the crate
//! graph; `lazyeye-campaign` builds the concrete payloads.

use lazyeye_json::{Json, JsonError};

/// Bundle schema version.
pub const BUNDLE_VERSION: u64 = 1;

/// A black-box bundle. See the module docs for the schema split.
#[derive(Clone, Debug, PartialEq)]
pub struct Bundle {
    /// Trigger kind label (e.g. `fastpath-fallback`).
    pub kind: String,
    /// Deduplication key: one bundle per (kind, key) per armed session.
    pub key: String,
    /// Human-oriented detail (refusal reason, panic message, verdict).
    pub detail: String,
    /// Full run provenance — everything needed to re-execute the run.
    pub provenance: Json,
    /// The captured trace (`Json::Null` when capture is impossible,
    /// e.g. for a run-panic bundle).
    pub trace: Json,
}

impl Bundle {
    /// Builds a bundle.
    pub fn new(
        kind: impl Into<String>,
        key: impl Into<String>,
        detail: impl Into<String>,
        provenance: Json,
        trace: Json,
    ) -> Bundle {
        Bundle {
            kind: kind.into(),
            key: key.into(),
            detail: detail.into(),
            provenance,
            trace,
        }
    }

    /// The virtual (deterministic) section: trigger identity,
    /// provenance and trace.
    pub fn virtual_json(&self) -> Json {
        Json::obj(vec![
            (
                "trigger",
                Json::obj(vec![
                    ("kind", Json::Str(self.kind.clone())),
                    ("key", Json::Str(self.key.clone())),
                    ("detail", Json::Str(self.detail.clone())),
                ]),
            ),
            ("provenance", self.provenance.clone()),
            ("trace", self.trace.clone()),
        ])
    }

    /// Pretty-printed virtual section plus trailing newline.
    pub fn virtual_json_string(&self) -> String {
        let mut out = self.virtual_json().to_string_pretty();
        out.push('\n');
        out
    }

    /// The complete bundle document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::UInt(BUNDLE_VERSION)),
            ("virtual", self.virtual_json()),
        ])
    }

    /// Pretty-printed bundle plus trailing newline (the on-disk format).
    pub fn to_json_string(&self) -> String {
        let mut out = self.to_json().to_string_pretty();
        out.push('\n');
        out
    }

    /// Parses a bundle document written by [`Bundle::to_json_string`].
    /// A top-level `wall` key, as older bundles carry, is ignored.
    pub fn from_json_str(s: &str) -> Result<Bundle, JsonError> {
        let doc = Json::parse(s)?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError::new("bundle: missing version"))?;
        if version != BUNDLE_VERSION {
            return Err(JsonError::new(format!(
                "bundle: unsupported version {version} (expected {BUNDLE_VERSION})"
            )));
        }
        let virt = doc
            .get("virtual")
            .ok_or_else(|| JsonError::new("bundle: missing virtual section"))?;
        let trigger = virt
            .get("trigger")
            .ok_or_else(|| JsonError::new("bundle: missing trigger"))?;
        let field = |key: &str| -> Result<String, JsonError> {
            trigger
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::new(format!("bundle: missing trigger.{key}")))
        };
        Ok(Bundle {
            kind: field("kind")?,
            key: field("key")?,
            detail: field("detail")?,
            provenance: virt.get("provenance").cloned().unwrap_or(Json::Null),
            trace: virt.get("trace").cloned().unwrap_or(Json::Null),
        })
    }

    /// Deterministic on-disk file name: `<kind>-<sanitized key>.json`
    /// with every non-alphanumeric character mapped to `-`.
    pub fn file_name(&self) -> String {
        let mut out = String::with_capacity(self.kind.len() + self.key.len() + 6);
        for c in self.kind.chars().chain("-".chars()).chain(self.key.chars()) {
            out.push(if c.is_ascii_alphanumeric() { c } else { '-' });
        }
        out.push_str(".json");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bundle {
        Bundle::new(
            "fastpath-fallback",
            "cad:chrome-130.0:baseline:d300:r1",
            "tie",
            Json::obj(vec![("seed", Json::Int(7))]),
            Json::obj(vec![("events", Json::Arr(vec![]))]),
        )
    }

    #[test]
    fn bundle_roundtrips_through_json() {
        let b = sample();
        let text = b.to_json_string();
        let parsed = Bundle::from_json_str(&text).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn bundle_holds_only_version_and_virtual_section() {
        let doc = sample().to_json();
        let keys: Vec<&str> = match &doc {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("bundle is not an object: {other:?}"),
        };
        assert_eq!(keys, ["version", "virtual"]);
    }

    #[test]
    fn file_name_is_sanitized() {
        assert_eq!(
            sample().file_name(),
            "fastpath-fallback-cad-chrome-130-0-baseline-d300-r1.json"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let err = Bundle::from_json_str("{\"version\": 99, \"virtual\": {}}").unwrap_err();
        assert!(format!("{err:?}").contains("unsupported version"));
    }
}
