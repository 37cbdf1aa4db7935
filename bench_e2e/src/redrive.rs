//! The traced run's engine paths, re-driven from the benchmark's own code.
//!
//! Each function repeats, call for call, what the engine does inside one
//! public operation, using the same public functions, so that a span can
//! sit around every call into a layer:
//!
//! * [`Redrive::ingest`] is `LogStore::ingest`: `Broker::ingest`'s
//!   per-record `pick_shard`, then `worker_for` + `Worker::append` per
//!   shard sub-batch, then the inline archive pass of `run_builder`
//!   (drain → build + upload → ack, or restore on failure).
//! * [`Redrive::query`] is `LogStore::query_with_options` with
//!   `QueryOptions::default()`: parse/bind/plan, the LogBlock map, one
//!   scatter task per source in canonical order on the engine's query
//!   pool, then merge and finalize, restarting on `Stale` like the broker.
//!
//! When the engine's own code changes, these copies must follow it; the
//! traced run's correctness checks (the same ones the untraced run passes)
//! are what catch a copy that drifted.

use crate::trace::Tracer;
use logstore_cache::CachedObjectSource;
use logstore_core::databuilder::{build_and_upload_drain, BuildConfig, BuildReport};
use logstore_core::engine::{ClusterShared, Store};
use logstore_core::executor::Task;
use logstore_core::{DrainId, IngestReport, LogStore};
use logstore_logblock::scan::DecodeStats;
use logstore_logblock::LogBlockReader;
use logstore_oss::LatencyModel;
use logstore_query::exec::{
    empty_partial, finalize, merge_partials, Partial, QueryResult, QueryStats,
};
use logstore_query::{analyze, parse_query, ExecutionCounters, QueryScope, RowCollector, ScanPlan};
use logstore_types::{Error, LogRecord, RecordBatch, Result, ShardId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counts taken at the layer boundaries while re-driving.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// `pick_shard` calls.
    pub route_calls: AtomicU64,
    /// `Worker::append` calls.
    pub append_calls: AtomicU64,
    /// `Worker::append` calls that returned an error (backpressure included).
    pub append_failed: AtomicU64,
    /// Archive passes that drained at least one shard.
    pub archive_passes: AtomicU64,
    /// Archive passes with a failed upload or ack.
    pub archive_failed_passes: AtomicU64,
    /// LogBlocks built by archive passes.
    pub archive_blocks: AtomicU64,
    /// Rows archived by archive passes.
    pub archive_rows: AtomicU64,
}

/// What one re-driven query returns besides its result.
pub struct Queried {
    /// The finalized result.
    pub result: QueryResult,
    /// Scanner counters of the successful attempt.
    pub stats: QueryStats,
    /// Decode volume and partial bytes of the successful attempt.
    pub counters: ExecutionCounters,
    /// LogBlocks the map returned for the query's window.
    pub candidates: u64,
    /// LogBlocks the tenant has in the map.
    pub mapped: u64,
    /// Attempts restarted on `Stale`.
    pub stale_retries: u64,
}

/// One scatter task's output: the broker's per-source triple plus the
/// intervals of the layer calls it made on its pool thread.
type TracedSource = ((Partial, QueryStats, DecodeStats), Vec<(&'static str, u64, u64)>);

/// Re-drives the engine's paths through its public calls.
pub struct Redrive {
    shared: Arc<ClusterShared>,
    build: BuildConfig,
    flush_bytes: usize,
    oss: LatencyModel,
    selector: AtomicU64,
    /// Boundary counts.
    pub counts: LayerCounts,
}

impl Redrive {
    /// Re-drives `store`.
    pub fn new(store: &LogStore) -> Self {
        let config = store.config();
        Redrive {
            shared: Arc::clone(store.shared()),
            build: BuildConfig {
                compression: config.compression,
                block_rows: config.block_rows,
                max_rows_per_logblock: config.max_rows_per_logblock,
            },
            flush_bytes: config.rowstore_flush_bytes,
            oss: config.oss_latency.clone(),
            selector: AtomicU64::new(0),
            counts: LayerCounts::default(),
        }
    }

    /// `LogStore::ingest`, traced.
    pub fn ingest(&self, tr: &mut Tracer, records: Vec<LogRecord>) -> Result<IngestReport> {
        tr.request("ingest", |tr| {
            let by_shard = tr.span("route", |_| -> Result<BTreeMap<ShardId, Vec<LogRecord>>> {
                let mut by_shard: BTreeMap<ShardId, Vec<LogRecord>> = BTreeMap::new();
                self.counts.route_calls.fetch_add(records.len() as u64, Ordering::Relaxed);
                for record in records {
                    let selector = self.selector.fetch_add(1, Ordering::Relaxed);
                    let shard = self.shared.controller.pick_shard(record.tenant_id, selector)?;
                    by_shard.entry(shard).or_default().push(record);
                }
                Ok(by_shard)
            })?;
            let mut report = IngestReport::default();
            for (shard, records) in by_shard {
                let n = records.len() as u64;
                self.counts.append_calls.fetch_add(1, Ordering::Relaxed);
                let appended = tr.span("append", |_| {
                    self.shared.worker_for(shard)?.append(shard, RecordBatch::from_records(records))
                });
                if appended.is_err() {
                    self.counts.append_failed.fetch_add(1, Ordering::Relaxed);
                }
                match appended {
                    Ok(()) => report.accepted += n,
                    Err(Error::Backpressure(_)) => report.rejected += n,
                    Err(e @ Error::Cluster(_)) => return Err(e),
                    Err(e) => {
                        report.failed += n;
                        report.first_failure.get_or_insert(e.to_string());
                    }
                }
            }
            report.archive_degraded = self.archive_pass(tr).is_err();
            Ok(report)
        })
    }

    /// `run_builder(false)`: drain shards over the flush threshold, build
    /// and upload their LogBlocks, then ack (or restore on failure).
    fn archive_pass(&self, tr: &mut Tracer) -> Result<()> {
        let _build = self.shared.metadata.begin_build();
        let mut first_error: Option<Error> = None;
        let mut pass = BuildReport::default();
        let mut drained = false;
        let mut failed = false;
        for worker in self.shared.worker_snapshot() {
            let (drains, drain_error) =
                tr.span("archive.drain", |_| worker.drain_for_build(self.flush_bytes, false));
            if let Some(e) = drain_error {
                failed = true;
                first_error.get_or_insert(e);
            }
            for (shard, seq, rows) in drains {
                drained = true;
                let drain_id = seq.map(|seq| DrainId { shard, seq });
                let mut outcome = tr.span("archive.build", |tr| {
                    let outcome = build_and_upload_drain(
                        rows,
                        &self.shared.schema,
                        &self.build,
                        self.shared.store.as_ref(),
                        &self.shared.metadata,
                        drain_id,
                    );
                    // The upload's share of the span is the OSS time the
                    // latency model slept for these PUTs.
                    let now = tr.now();
                    tr.record(
                        "archive.upload",
                        now.saturating_sub(self.upload_ns(&outcome.report)),
                        now,
                    );
                    outcome
                });
                pass.merge(&outcome.report);
                let close = if outcome.is_complete() {
                    tr.span("archive.ack", |_| worker.ack_archived(shard))
                } else {
                    failed = true;
                    first_error = first_error.or(outcome.error.take());
                    tr.span("archive.ack", |_| worker.restore_unarchived(shard, outcome.unarchived))
                };
                if let Err(e) = close {
                    failed = true;
                    first_error.get_or_insert(e);
                }
            }
        }
        if drained {
            self.counts.archive_passes.fetch_add(1, Ordering::Relaxed);
            self.counts.archive_blocks.fetch_add(pass.blocks_built, Ordering::Relaxed);
            self.counts.archive_rows.fetch_add(pass.rows_archived, Ordering::Relaxed);
        }
        if failed {
            self.counts.archive_failed_passes.fetch_add(1, Ordering::Relaxed);
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Wall time the latency model sleeps for a build's PUTs: the modelled
    /// cost without jitter (its expectation), times the sleep fraction.
    fn upload_ns(&self, report: &BuildReport) -> u64 {
        let modelled = report.blocks_built * self.oss.base_latency_us * 1_000
            + report.bytes_uploaded * self.oss.per_byte_ns;
        (modelled as f64 * self.oss.time_scale) as u64
    }

    /// `LogStore::query_with_options(sql, &QueryOptions::default())`, traced.
    pub fn query(&self, tr: &mut Tracer, sql: &str) -> Result<Queried> {
        tr.request("query", |tr| {
            let (bound, plan, scope) = tr.span("plan", |_| -> Result<_> {
                let parsed = parse_query(sql)?;
                if parsed.table != self.shared.schema.name {
                    return Err(Error::Query(format!("unknown table '{}'", parsed.table)));
                }
                let bound = Arc::new(analyze::bind(&parsed, &self.shared.schema)?);
                let scope = QueryScope::extract(&bound);
                let plan = Arc::new(ScanPlan::new(&bound, &self.shared.schema, true)?);
                Ok((bound, plan, scope))
            })?;
            let tenant =
                scope.tenant.ok_or_else(|| Error::Query("queries must pin a tenant".into()))?;
            const MAX_ATTEMPTS: u64 = 3;
            let mut stale_retries = 0;
            loop {
                match self.attempt(tr, &bound, &plan, &scope, tenant) {
                    Ok(mut q) => {
                        q.stale_retries = stale_retries;
                        return Ok(q);
                    }
                    Err(Error::Stale(_)) if stale_retries + 1 < MAX_ATTEMPTS => stale_retries += 1,
                    Err(e) => return Err(e),
                }
            }
        })
    }

    /// One scatter/gather pass against the current LogBlock map.
    fn attempt(
        &self,
        tr: &mut Tracer,
        bound: &Arc<logstore_query::Query>,
        plan: &Arc<ScanPlan>,
        scope: &QueryScope,
        tenant: logstore_types::TenantId,
    ) -> Result<Queried> {
        let (mapped, shards, entries) = tr.span("map", |_| {
            let mapped = self.shared.metadata.all_blocks(tenant).len() as u64;
            if scope.is_empty_window() {
                return (mapped, Vec::new(), Vec::new());
            }
            let mut shards = self.shared.controller.read_shards(tenant);
            shards.sort_unstable();
            let mut entries = self.shared.metadata.blocks_for(tenant, scope.range);
            entries.sort_unstable_by(|a, b| a.path.cmp(&b.path));
            (mapped, shards, entries)
        });
        let candidates = entries.len() as u64;
        let mut tasks: Vec<Task<TracedSource>> = Vec::new();
        for shard in shards {
            let shared = Arc::clone(&self.shared);
            let plan = Arc::clone(plan);
            let range = scope.range;
            let origin = tr.origin();
            tasks.push(Box::new(move || {
                let start = ns_since(origin);
                let mut stats = QueryStats::default();
                let worker = shared.worker_for(shard)?;
                let mut collector = RowCollector::new(&plan, &shared.schema)?;
                worker.for_each_record(shard, tenant, range, |r| collector.push_record(r))?;
                let partial = collector.finish(&mut stats);
                let marks = vec![("realtime", start, ns_since(origin))];
                Ok(((partial, stats, DecodeStats::default()), marks))
            }));
        }
        for entry in entries {
            let shared = Arc::clone(&self.shared);
            let plan = Arc::clone(plan);
            let origin = tr.origin();
            tasks.push(Box::new(move || {
                let mut stats = QueryStats::default();
                let mut decode = DecodeStats::default();
                let mut marks = Vec::with_capacity(3);
                let path = entry.path.clone();
                let scan = (|| {
                    let t0 = ns_since(origin);
                    let source = CachedObjectSource::open_with_known_size(
                        Arc::clone(&shared.store),
                        entry.path.clone(),
                        Arc::clone(&shared.cache),
                        shared.cache_block_size,
                        entry.bytes,
                    );
                    let reader = LogBlockReader::open(source)?;
                    let t1 = ns_since(origin);
                    marks.push(("open", t0, t1));
                    let ranges = prefetch_ranges(&reader, &plan);
                    let outcome = shared.prefetcher.prefetch_wave(reader.pack().source(), ranges);
                    stats.prefetch_errors += outcome.errors as u64;
                    let t2 = ns_since(origin);
                    marks.push(("prefetch", t1, t2));
                    let partial = plan.collect_block(&reader, true, &mut stats, &mut decode);
                    marks.push(("collect", t2, ns_since(origin)));
                    partial
                })();
                match scan {
                    Ok(partial) => Ok(((partial, stats, decode), marks)),
                    Err(Error::NotFound(_)) if !shared.metadata.is_block_mapped(tenant, &path) => {
                        Err(Error::Stale(format!("LogBlock {path} removed mid-query")))
                    }
                    Err(e) => Err(e),
                }
            }));
        }
        // The scatter span's own time is the executor's: dispatch to the
        // pool, queueing for a pool thread, and handing results back.
        let results = tr.span("scatter", |tr| {
            let pool = &self.shared.query_pool;
            let results = pool.scatter(pool.threads(), tasks);
            for (_, marks) in results.iter().flatten() {
                for &(name, start, end) in marks {
                    tr.record(name, start, end);
                }
            }
            results
        });
        let mut stats = QueryStats::default();
        let mut counters = ExecutionCounters::default();
        let mut partials = Vec::new();
        for result in results {
            let ((partial, task_stats, decode), _) = result?;
            stats.merge(&task_stats);
            counters.absorb(&decode, &partial);
            partials.push(partial);
        }
        let result = tr.span("merge", |_| -> Result<QueryResult> {
            let merged = if partials.is_empty() {
                empty_partial(bound)
            } else {
                plan.finish_partial(merge_partials(partials)?)?
            };
            finalize(merged, bound, &self.shared.schema)
        })?;
        Ok(Queried { result, stats, counters, candidates, mapped, stale_retries: 0 })
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// The member ranges a query touches in one LogBlock: the broker's
/// plan-aware prefetch wave (predicate columns plus the plan's columns).
fn prefetch_ranges(
    reader: &LogBlockReader<CachedObjectSource<Store>>,
    plan: &ScanPlan,
) -> Vec<(u64, u64)> {
    let schema = reader.schema();
    let mut cols: Vec<usize> = Vec::new();
    let names = plan.predicates.iter().map(|p| &p.column).chain(plan.columns.iter());
    for idx in names.filter_map(|name| schema.column_index(name)) {
        if !cols.contains(&idx) {
            cols.push(idx);
        }
    }
    let mut ranges = Vec::new();
    for col in cols {
        for member in [
            logstore_logblock::meta::index_member(col),
            logstore_logblock::meta::index_data_member(col),
            logstore_logblock::meta::col_member(col),
        ] {
            if let Some(range) = reader.pack().member_object_range(&member) {
                ranges.push(range);
            }
        }
    }
    ranges
}
