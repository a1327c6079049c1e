//! The resumable, shardable run kernel both engines share.
//!
//! An engine describes itself as a [`Matrix`]: a spec that expands into
//! index-addressed items, how to run one item, which later passes follow
//! the first, and the output one item reduces to (which carries its own
//! JSON). As an [`Engine`]
//! it also folds a finished run into its [`Report`] and latency profile.
//! Everything between "spec" and "finished report" lives here, once:
//!
//! - [`Partial`] — how far a sweep got: the spec (so a resume or merge
//!   can verify it continues the *same* sweep), the planned first-pass
//!   item count, an optional [`Shard`], and the completed outputs keyed
//!   by item index. Saves are atomic (temp file + rename).
//! - [`merge`] — unions disjoint partials of one spec.
//! - [`Partial::run_passes`] — the one multi-pass driver: plans the
//!   sweep, runs every pass the engine asks for, skips the items the
//!   partial already holds and stitches them back in, in item order.
//! - [`Partial::finish`] / [`run`] — the driver plus the engine's report
//!   fold and, on request, its latency profile.
//! - [`Partial::run_shard`] — executes one shard's slice of the first
//!   pass into a partial.
//!
//! A partial read from disk is validated against its own spec before
//! anything iterates it ([`Partial::load`]): the planned count must be
//! the spec's expansion, a shard's stored indices must lie inside the
//! plan and belong to the shard, and every stored output must match the
//! kind of the item it is stitched to. Hostile files fail with an error,
//! and a spec over [`crate::MAX_PLANNED_ITEMS`] fails to plan.

use std::collections::BTreeMap;
use std::io::Write as _;

use lazyeye_json::{FromJson, Json, JsonError, ToJson};
use lazyeye_obs::profile::FlameGraph;

use crate::{execute_indexed_with, Shard};

/// Partial format version; bumped on incompatible layout changes.
const VERSION: u64 = 1;

/// What an engine supplies to the kernel, implemented on a marker type.
pub trait Matrix: Clone + std::fmt::Debug {
    /// The declarative spec a partial belongs to.
    type Spec: Clone + PartialEq + std::fmt::Debug + ToJson + FromJson;
    /// The expanded first pass (grown by later passes once a run
    /// finishes), plus whatever the run context borrows.
    type Plan;
    /// One index-addressed unit of work.
    type Item: Sync;
    /// One item's reduced outcome; its JSON is an object, stored after
    /// the item's index.
    type Output: Clone + Send + std::fmt::Debug + ToJson + FromJson;
    /// Lookup tables shared immutably by every worker.
    type Context<'a>: Sync
    where
        Self: 'a;
    /// The engine's error type.
    type Error: From<String> + std::fmt::Display;
    /// Engine-specific run options, passed through to the engine's hooks
    /// unread. Shard runs use the default.
    type Options: Default;
    /// JSON key of the planned first-pass count in the on-disk form.
    const COUNT_KEY: &'static str;
    /// Singular noun for one item, used in error messages.
    const ITEM: &'static str;
    /// Wall-span names of the passes, first pass first; passes past the
    /// end of the list run without a span.
    const PASS_SPANS: &'static [&'static str] = &[];

    /// Expands the spec's first pass.
    fn plan(spec: &Self::Spec) -> Result<Self::Plan, Self::Error>;
    /// The plan's items, in index order: the first pass, plus the later
    /// passes once [`Matrix::extend`] added them.
    fn items(plan: &Self::Plan) -> &[Self::Item];
    /// Appends a finished run's later-pass items to its plan.
    fn extend(plan: &mut Self::Plan, later: Vec<Self::Item>);
    /// Builds the worker context for `plan`.
    fn context<'a>(
        spec: &'a Self::Spec,
        plan: &'a Self::Plan,
        opts: &Self::Options,
    ) -> Result<Self::Context<'a>, Self::Error>;
    /// The pass after the first `passes` ones, planned from their
    /// `outputs` (item order), or `None` once the run is complete.
    /// Single-pass engines keep the default.
    fn next_pass(
        _spec: &Self::Spec,
        _plan: &Self::Plan,
        _passes: usize,
        _outputs: &[Self::Output],
    ) -> Option<Vec<Self::Item>> {
        None
    }
    /// Runs one item.
    fn run(ctx: &Self::Context<'_>, item: &Self::Item) -> Self::Output;
    /// The item's index in its sweep.
    fn index(item: &Self::Item) -> u64;
    /// Whether `output` is of the kind `item` produces.
    fn matches(item: &Self::Item, output: &Self::Output) -> bool;
}

/// An engine's finished report: its JSON, CSV and text forms, its JSON
/// form read back, and the behaviour changes between two reports.
pub trait Report: Sized {
    /// Appends the JSON form to `out`.
    fn json_into(&self, out: &mut String);
    /// Appends the CSV form to `out`.
    fn csv_into(&self, out: &mut String);
    /// The text form.
    fn text(&self) -> String;
    /// Parses a report from its JSON form.
    fn parse(text: &str) -> Result<Self, JsonError>;
    /// The behaviour changes from `old` to `new`, rendered as JSON when
    /// `json` is set, else as text.
    fn diff(old: &Self, new: &Self, json: bool) -> String;
}

/// A latency-budget table (rendered) and its flame graph.
pub type Profile = (String, FlameGraph);

/// A [`Matrix`] that folds a finished run into a report.
pub trait Engine: Matrix {
    /// The engine's name, also the tag of its front end's stderr lines.
    const NAME: &'static str;
    /// The engine's report.
    type Report: Report;

    /// Folds a finished run into the report.
    fn report(spec: &Self::Spec, run: &Run<Self>, opts: &Self::Options) -> Self::Report;
    /// Attributes the latency of a finished run's plan. A pure function
    /// of (spec, plan), like the report.
    fn profile(spec: &Self::Spec, plan: &Self::Plan) -> Profile;
}

/// A finished run: the plan grown by every later pass, and one output
/// per item, in item order.
pub struct Run<M: Matrix> {
    /// Every pass's items.
    pub plan: M::Plan,
    /// One output per item of [`Run::plan`].
    pub outputs: Vec<M::Output>,
}

/// Runs `spec` from scratch through every pass and folds its report.
/// `progress` receives `(finished, total)` after every item; the total
/// grows as later passes are planned.
pub fn run<E: Engine>(
    spec: &E::Spec,
    jobs: usize,
    opts: &E::Options,
    progress: impl FnMut(usize, usize),
) -> Result<E::Report, E::Error> {
    let part = Partial::<E>::fresh(spec.clone(), None)?;
    Ok(part.finish(jobs, opts, false, progress, |_, _| {})?.0)
}

fn err<M: Matrix>(message: impl Into<String>) -> M::Error {
    M::Error::from(message.into())
}

/// Serialisable sweep progress: spec identity plus completed outputs.
#[derive(Clone, Debug)]
pub struct Partial<M: Matrix> {
    /// The sweep this state belongs to.
    pub spec: M::Spec,
    /// Size of the first-pass expansion (shape check on resume/merge).
    pub planned: u64,
    /// The shard restriction this state was produced under, if any.
    pub shard: Option<Shard>,
    outputs: BTreeMap<u64, M::Output>,
}

impl<M: Matrix> Partial<M> {
    /// Fresh state for a sweep whose first pass expands to `planned`
    /// items.
    pub fn new(spec: M::Spec, planned: u64, shard: Option<Shard>) -> Self {
        Partial {
            spec,
            planned,
            shard,
            outputs: BTreeMap::new(),
        }
    }

    /// Fresh state for `spec`, planning it to learn the first-pass size.
    pub fn fresh(spec: M::Spec, shard: Option<Shard>) -> Result<Self, M::Error> {
        let planned = M::items(&M::plan(&spec)?).len() as u64;
        Ok(Self::new(spec, planned, shard))
    }

    /// Records one completed item.
    pub fn record(&mut self, index: u64, output: M::Output) {
        self.outputs.insert(index, output);
    }

    /// The completed outputs, keyed by item index.
    pub fn completed(&self) -> &BTreeMap<u64, M::Output> {
        &self.outputs
    }

    /// Number of completed items recorded.
    pub fn completed_count(&self) -> u64 {
        self.outputs.len() as u64
    }

    /// First-pass indices this state owns (its shard, or all) but has no
    /// output for. Iterates the planned count: validate first.
    pub fn missing(&self) -> Vec<u64> {
        (0..self.planned)
            .filter(|i| self.shard.is_none_or(|s| s.owns(*i)) && !self.outputs.contains_key(i))
            .collect()
    }

    /// Checks the stored shape against a first pass of `planned` items.
    /// A count mismatch means the expansion rules changed since the state
    /// was saved (or the file was edited): outputs are keyed by index, so
    /// stitching them onto a reindexed plan would silently corrupt the
    /// report. A shard's outputs must lie inside the plan and belong to
    /// the shard; an unsharded state may also hold later-pass outputs,
    /// which [`Partial::run_passes`] accounts for once the run is planned.
    pub fn validate_shape(&self, planned: u64) -> Result<(), M::Error> {
        if self.planned != planned {
            return Err(err::<M>(format!(
                "partial was written for a {}-{item} first pass but its spec expands to \
                 {planned} {item}s (the file was edited, or the expansion rules changed \
                 since it was saved); re-run instead of resuming",
                self.planned,
                item = M::ITEM
            )));
        }
        let Some(shard) = self.shard else {
            return Ok(());
        };
        if shard.count == 0 || shard.index >= shard.count {
            return Err(err::<M>(format!(
                "partial shard {}/{}: need 0 <= i < n",
                shard.index, shard.count
            )));
        }
        match self
            .outputs
            .keys()
            .find(|&&i| i >= planned || !shard.owns(i))
        {
            Some(index) => Err(err::<M>(format!(
                "partial for shard {}/{} holds {} {index}, which that shard of the \
                 {planned}-{} plan does not own",
                shard.index,
                shard.count,
                M::ITEM,
                M::ITEM
            ))),
            None => Ok(()),
        }
    }

    /// Serialises the state to pretty JSON.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.to_json_string_into(&mut out);
        out
    }

    /// [`Partial::to_json_string`] into a caller buffer (appends).
    pub fn to_json_string_into(&self, out: &mut String) {
        let outputs: Vec<Json> = self
            .outputs
            .iter()
            .map(|(index, output)| output.to_json().with_leading("index", index.to_json()))
            .collect();
        Json::obj(vec![
            ("version", VERSION.to_json()),
            ("spec", self.spec.to_json()),
            (M::COUNT_KEY, self.planned.to_json()),
            ("shard", self.shard.to_json()),
            ("outputs", Json::Arr(outputs)),
        ])
        .write_pretty_into(out);
        out.push('\n');
    }

    /// Parses a state back from JSON. Parsing only: [`Partial::load`]
    /// also validates.
    pub fn from_json_str(s: &str) -> Result<Self, JsonError> {
        let v = Json::parse(s)?;
        let version = u64::from_json(&v["version"])?;
        if version != VERSION {
            return Err(JsonError::new(format!(
                "partial version {version} not supported (expected {VERSION})"
            )));
        }
        let mut part = Partial::new(
            M::Spec::from_json(&v["spec"])?,
            u64::from_json(&v[M::COUNT_KEY])?,
            Option::<Shard>::from_json(&v["shard"])?,
        );
        for entry in v["outputs"]
            .as_array()
            .ok_or_else(|| JsonError::new("partial outputs: expected array"))?
        {
            let index = u64::from_json(&entry["index"])?;
            if part
                .outputs
                .insert(index, M::Output::from_json(entry)?)
                .is_some()
            {
                return Err(JsonError::new(format!(
                    "partial outputs: duplicate index {index}"
                )));
            }
        }
        Ok(part)
    }

    /// Writes the state to `path` atomically (temp file + rename), so a
    /// kill mid-save never leaves a truncated file. `buf` is a reusable
    /// serialisation buffer: periodic savers pass the same one each time.
    pub fn save(&self, path: &str, buf: &mut String) -> std::io::Result<()> {
        buf.clear();
        self.to_json_string_into(buf);
        let tmp = format!("{path}.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(buf.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads and validates a state from `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let part = Self::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
        // The planned count must be the spec's own expansion.
        M::plan(&part.spec)
            .and_then(|plan| part.validate_shape(M::items(&plan).len() as u64))
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(part)
    }

    /// The one multi-pass driver: plans the sweep, runs the first pass
    /// and every later pass [`Matrix::next_pass`] plans, and returns all
    /// items and outputs in item order. Items this partial already holds
    /// are kind-checked and stitched back in instead of run. `progress`
    /// sees one running total that grows with each pass; `on_result`
    /// fires on the calling thread for every fresh item, in completion
    /// order (side channels only, never report bytes).
    ///
    /// Each later pass is a pure function of the outputs before it, so a
    /// resumed or merged partial reproduces the uninterrupted run item
    /// for item.
    pub fn run_passes(
        &self,
        jobs: usize,
        opts: &M::Options,
        mut progress: impl FnMut(usize, usize),
        mut on_result: impl FnMut(&M::Item, &M::Output),
    ) -> Result<Run<M>, M::Error> {
        let spec = &self.spec;
        let mut plan = M::plan(spec)?;
        self.validate_shape(M::items(&plan).len() as u64)?;
        let mut later: Vec<M::Item> = Vec::new();
        let mut outputs: Vec<M::Output> = Vec::new();
        {
            let ctx = M::context(spec, &plan, opts)?;
            let (mut pass, mut passes, mut base) = (M::items(&plan), 0, 0);
            loop {
                let span = M::PASS_SPANS
                    .get(passes)
                    .and_then(|name| lazyeye_obs::trace::wall_span(*name));
                let mut planned = 0;
                outputs.extend(execute_missing::<M>(
                    pass,
                    &self.outputs,
                    jobs,
                    |item| M::run(&ctx, item),
                    |done, total| {
                        planned = total;
                        progress(base + done, base + total)
                    },
                    &mut on_result,
                )?);
                drop(span);
                base += planned;
                passes += 1;
                let Some(next) = M::next_pass(spec, &plan, passes, &outputs) else {
                    break;
                };
                let start = later.len();
                later.extend(next);
                pass = &later[start..];
            }
        }
        M::extend(&mut plan, later);
        // An output no pass stitched lies past the fully planned run.
        let total = M::items(&plan).len();
        if let Some((index, _)) = self.outputs.range(total as u64..).next() {
            return Err(err::<M>(format!(
                "stored output for {} {index} lies outside the {total}-{} plan",
                M::ITEM,
                M::ITEM
            )));
        }
        Ok(Run { plan, outputs })
    }

    /// Executes one shard of `spec`'s first pass — items with
    /// `index % shard.count == shard.index` — and returns the partial.
    /// Prior progress in `resume_from` (a partial of the same spec and
    /// shard) is kept and skipped over. `on_save` sees the partial after
    /// every newly completed item (wire periodic saves here).
    ///
    /// Shards stop at the first pass: a later pass may depend on every
    /// first-pass output, which no single shard has. The merge side runs
    /// it.
    pub fn run_shard(
        spec: &M::Spec,
        jobs: usize,
        shard: Shard,
        resume_from: Option<Self>,
        progress: impl FnMut(usize, usize),
        mut on_save: impl FnMut(&Self),
    ) -> Result<Self, M::Error> {
        let plan = M::plan(spec)?;
        let items = M::items(&plan);
        let mut part = match resume_from {
            Some(part) => {
                if &part.spec != spec {
                    return Err(err::<M>("resume: checkpoint is for a different spec"));
                }
                if part.shard != Some(shard) {
                    return Err(err::<M>(
                        "resume: checkpoint was produced under a different shard",
                    ));
                }
                part.validate_shape(items.len() as u64)?;
                part
            }
            None => Self::new(spec.clone(), items.len() as u64, Some(shard)),
        };
        let ctx = M::context(spec, &plan, &M::Options::default())?;
        let stored = part.outputs.clone();
        execute_missing::<M>(
            items.iter().filter(|item| shard.owns(M::index(item))),
            &stored,
            jobs,
            |item| M::run(&ctx, item),
            progress,
            |item, output| {
                part.record(M::index(item), output.clone());
                on_save(&part);
            },
        )?;
        Ok(part)
    }
}

impl<E: Engine> Partial<E> {
    /// Runs whatever this partial lacks through every pass
    /// ([`Partial::run_passes`]) and folds the report, plus the latency
    /// profile when `profile` is set. Resume, merge and fresh runs all
    /// finish here, so their reports are byte-identical.
    pub fn finish(
        &self,
        jobs: usize,
        opts: &E::Options,
        profile: bool,
        progress: impl FnMut(usize, usize),
        on_result: impl FnMut(&E::Item, &E::Output),
    ) -> Result<(E::Report, Option<Profile>), E::Error> {
        let run = self.run_passes(jobs, opts, progress, on_result)?;
        let report = E::report(&self.spec, &run, opts);
        Ok((report, profile.then(|| E::profile(&self.spec, &run.plan))))
    }
}

/// Folds disjoint partials (shard outputs, interrupted checkpoints) of
/// the *same* sweep into one. They must agree on spec and first-pass
/// size; the result carries no shard restriction.
pub fn merge<M: Matrix>(
    parts: impl IntoIterator<Item = Partial<M>>,
) -> Result<Partial<M>, M::Error> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Err(err::<M>("merge needs at least one partial"));
    };
    let mut merged = Partial {
        shard: None,
        ..first
    };
    for part in parts {
        if part.spec != merged.spec {
            return Err(err::<M>("merge: partials come from different specs"));
        }
        if part.planned != merged.planned {
            return Err(err::<M>(format!(
                "merge: partials disagree on the first-pass {} count ({} vs {})",
                M::ITEM,
                part.planned,
                merged.planned
            )));
        }
        merged.outputs.extend(part.outputs);
    }
    Ok(merged)
}

/// Runs every item of `items` that `completed` lacks over `jobs` workers
/// and returns all outputs **in item order**, stored ones stitched back
/// in place. Each stored output is checked against its item's kind
/// before anything runs.
///
/// `progress` receives `(finished, pending)` for this call's fresh items;
/// `on_result` fires on the calling thread for each fresh item, in
/// completion order (side channels only, never report bytes).
fn execute_missing<'i, M: Matrix>(
    items: impl IntoIterator<Item = &'i M::Item>,
    completed: &BTreeMap<u64, M::Output>,
    jobs: usize,
    run: impl Fn(&M::Item) -> M::Output + Sync,
    progress: impl FnMut(usize, usize),
    mut on_result: impl FnMut(&M::Item, &M::Output),
) -> Result<Vec<M::Output>, M::Error>
where
    M::Item: 'i,
{
    let items: Vec<&M::Item> = items.into_iter().collect();
    let mut pending = Vec::with_capacity(items.len());
    for &item in &items {
        match completed.get(&M::index(item)) {
            None => pending.push(item),
            Some(stored) if M::matches(item, stored) => {}
            Some(_) => {
                return Err(err::<M>(format!(
                    "stored output for {} {} is not of the kind its plan entry produces",
                    M::ITEM,
                    M::index(item)
                )))
            }
        }
    }
    let fresh = execute_indexed_with(
        pending.len(),
        jobs,
        |position| run(pending[position]),
        progress,
        |position, output| on_result(pending[position], output),
    );
    if pending.len() == items.len() {
        return Ok(fresh);
    }
    let mut fresh = fresh.into_iter();
    Ok(items
        .iter()
        .map(|item| match completed.get(&M::index(item)) {
            Some(stored) => stored.clone(),
            None => fresh.next().expect("one fresh output per pending item"),
        })
        .collect())
}
