//! Stage spans: named wall-clock timings of the stack's stages, each
//! recorded into its stage [`Histogram`] and, inside a trace, into the
//! trace's span tree.
//!
//! The stage names form one closed vocabulary, [`StageId`], spanning
//! the whole stack — the fit pipeline in `mccatch-core`, refit and
//! model swap in `mccatch-stream`, shard fan-out and restore in
//! `mccatch-tenant`, snapshot save/load in `mccatch-persist`, and the
//! request path of `mccatch-server`. All layers record into one
//! process-global [`StageRecorder`] ([`global()`]), which `/metrics`
//! scrapes as the `mccatch_stage_duration_seconds` family.
//!
//! There is one rule: a closed [`Span`] is always recorded in its stage
//! histogram, and, when a trace is active on the thread, also becomes a
//! node of that trace. Sites that bracket a region hold a [`Span`];
//! sites that measured a `Duration` elsewhere call [`record_stage`].

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::{self, SpanHandle, Trace};
use std::fmt::Display;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// Declares [`StageId`] with each stage's exposition name written once.
macro_rules! stages {
    ($($(#[doc = $doc:literal])* $id:ident => $name:literal,)*) => {
        /// Every stage the stack records, in exposition order: the
        /// discriminant is the stage's histogram slot.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum StageId {
            $($(#[doc = $doc])* $id,)*
        }

        impl StageId {
            /// Every stage, in exposition order.
            pub const ALL: &'static [StageId] = &[$(StageId::$id,)*];

            /// The exposition name: the `stage` label of
            /// `mccatch_stage_duration_seconds` and the trace span name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(StageId::$id => $name,)*
                }
            }
        }
    };
}

stages! {
    /// Reference-tree construction (`mccatch-core`).
    FitBuild => "fit_build",
    /// Neighbor counting over the radius grid.
    FitCounting => "fit_counting",
    /// Oracle-plot assembly and MDL plateau search.
    FitPlotting => "fit_plotting",
    /// Microcluster gelling (`spot_microclusters`).
    FitGelling => "fit_gelling",
    /// Per-microcluster scoring.
    FitScoring => "fit_scoring",
    /// A full refit, fit plus swap, successful or not (`mccatch-stream`).
    StreamRefit => "stream_refit",
    /// Publishing the refit model into the store.
    StreamSwap => "stream_swap",
    /// Scatter/gather of a query batch across a tenant's shards.
    TenantFanout => "tenant_fanout",
    /// Rebuilding one tenant at warm restart.
    TenantRestore => "tenant_restore",
    /// Serializing a model snapshot.
    PersistSave => "persist_save",
    /// Deserializing a model snapshot.
    PersistLoad => "persist_load",
    /// One served request, from its parsed head to its routed response
    /// (`mccatch-server`).
    Request => "request",
    /// Reading the request body after its head.
    Parse => "parse",
    /// Tenant-scope resolution and the endpoint/method match.
    Route => "route",
    /// The endpoint dispatch.
    Handle => "handle",
    /// Scoring one NDJSON `/score` batch.
    ScoreBatch => "score_batch",
    /// Ingesting one NDJSON `/ingest` batch.
    IngestBatch => "ingest_batch",
    /// One shard's part of a tenant fan-out (`mccatch-tenant`).
    ShardScore => "shard_score",
    /// Ingesting one event into its shard.
    ShardIngest => "shard_ingest",
    /// Claiming a slot in a shard's bounded admission queue.
    QueueAdmit => "queue_admit",
    /// One shard's part of a tenant refit.
    ShardRefit => "shard_refit",
    /// Prequential scoring of one ingested event (`mccatch-stream`).
    Score => "score",
}

impl StageId {
    /// This stage's histogram slot in the [`StageRecorder`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// The stage-timing sink: one [`Histogram`] per [`StageId`].
#[derive(Debug)]
pub struct StageRecorder {
    hists: [Histogram; StageId::ALL.len()],
}

impl Default for StageRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StageRecorder {
    /// A recorder with one empty histogram per stage.
    pub const fn new() -> Self {
        Self {
            hists: [const { Histogram::new() }; StageId::ALL.len()],
        }
    }

    /// Snapshots every stage histogram, in [`StageId::ALL`] order.
    pub fn snapshot(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        StageId::ALL
            .iter()
            .map(|s| (s.name(), self.hists[s.index()].snapshot()))
            .collect()
    }

    pub(crate) fn record(&self, stage: StageId, elapsed: Duration) {
        self.hists[stage.index()].record(elapsed);
    }
}

/// The process-global stage recorder every layer records into and
/// `/metrics` scrapes.
pub fn global() -> &'static StageRecorder {
    static GLOBAL: StageRecorder = StageRecorder::new();
    &GLOBAL
}

/// Records a stage duration measured elsewhere (the core fit's
/// `RunStats` durations, the server's body read): into the global
/// recorder, and, when a trace is active on the thread, as a child of
/// the current span that ends now and lasted `elapsed`.
pub fn record_stage(stage: StageId, elapsed: Duration) {
    global().record(stage, elapsed);
    if let Some(parent) = trace::current() {
        parent.record(stage.name(), elapsed);
    }
}

/// The one timing guard: `let _span = Span::enter(StageId::PersistSave);`.
///
/// Dropping it records the elapsed time in its stage histogram. When a
/// trace is active, the span is also a node of the trace — a child of
/// the span that was current when it opened — and it is itself the
/// thread's current span until it drops, so spans opened deeper in the
/// call stack nest under it with no plumbing. Spans drop in reverse
/// opening order on the thread that opened them (the guard is not
/// `Send`); to open children on worker threads, hand them a
/// [`SpanHandle`] from [`trace::current`].
#[derive(Debug)]
pub struct Span {
    stage: StageId,
    start: Instant,
    node: Option<trace::Node>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// Opens `stage` now, under the thread's current span if any.
    pub fn enter(stage: StageId) -> Self {
        Self::open(stage, Instant::now(), trace::current())
    }

    /// Opens `stage` as a root that started at `start`: the root node of
    /// `trace` when one is given (the trace should have been started at
    /// the same instant), a histogram-only span otherwise.
    pub fn root(stage: StageId, trace: Option<&Trace>, start: Instant) -> Self {
        Self::open(stage, start, trace.map(Trace::root_parent))
    }

    pub(crate) fn open(stage: StageId, start: Instant, parent: Option<SpanHandle>) -> Self {
        Self {
            stage,
            start,
            node: parent.map(trace::Node::open),
            _not_send: PhantomData,
        }
    }

    /// This span's id within its trace, or 0 when no trace is active.
    pub fn id(&self) -> u64 {
        self.node.as_ref().map_or(0, trace::Node::id)
    }

    /// Attaches a key=value attribute to the span's trace node. The
    /// value is only rendered when a trace is active.
    pub fn attr(&mut self, key: &'static str, value: impl Display) {
        if let Some(node) = &mut self.node {
            node.attr(key, value.to_string());
        }
    }

    /// Builder-style [`Span::attr`].
    pub fn with_attr(mut self, key: &'static str, value: impl Display) -> Self {
        self.attr(key, value);
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        global().record(self.stage, elapsed);
        if let Some(node) = self.node.take() {
            node.close(self.stage.name(), self.start, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_buckets_by_stage() {
        let r = StageRecorder::new();
        r.record(StageId::FitCounting, Duration::from_micros(5));
        r.record(StageId::FitCounting, Duration::from_micros(5));
        r.record(StageId::PersistSave, Duration::from_millis(1));
        let snap = r.snapshot();
        assert_eq!(snap.len(), StageId::ALL.len());
        let count_of = |name: &str| {
            snap.iter()
                .find(|(s, _)| *s == name)
                .map(|(_, h)| h.count())
                .unwrap()
        };
        assert_eq!(count_of("fit_counting"), 2);
        assert_eq!(count_of("persist_save"), 1);
        assert_eq!(count_of("fit_build"), 0);
        assert_eq!(snap.iter().map(|(_, h)| h.count()).sum::<u64>(), 3);
    }

    #[test]
    fn span_records_on_drop_into_the_global_recorder() {
        let count = || global().snapshot()[StageId::StreamSwap.index()].1.count();
        let before = count();
        {
            let _span = Span::enter(StageId::StreamSwap);
        }
        assert_eq!(count(), before + 1);
    }

    #[test]
    fn stage_ids_mirror_the_stages_vocabulary_exactly() {
        // The original eleven series keep their names and order; the
        // serving stages append after them.
        let legacy = [
            "fit_build",
            "fit_counting",
            "fit_plotting",
            "fit_gelling",
            "fit_scoring",
            "stream_refit",
            "stream_swap",
            "tenant_fanout",
            "tenant_restore",
            "persist_save",
            "persist_load",
        ];
        let names: Vec<&str> = StageId::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names[..legacy.len()], legacy);
        assert_eq!(names[legacy.len()], "request");
        assert_eq!(names.len(), 22);
        for (i, id) in StageId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
