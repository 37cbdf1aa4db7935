//! The three workloads, their inputs, their correctness checks and the
//! metrics they report.
//!
//! * `ingest`: closed loop, 2 producers, 64-row batches over 200 Zipfian
//!   tenants into a 3-replica store with a WAL (`FlushPolicy::Flush`) whose
//!   inline archive pass runs many cycles per run.
//! * `query_cold`: closed loop, 2 clients running the eight §6.3 templates
//!   over the Zipfian head of an archived-only dataset several times larger
//!   than the memory cache, on sleeping OSS.
//! * `mixed`: open loop, 1 producer and 1 query client at fixed rates on a
//!   unreplicated store with a WAL and a warm cache; the producer also runs
//!   `control_tick` and `compact` + `gc` on a fixed schedule.
//!
//! Every input (records and SQL) is generated from `--seed` before timing
//! starts. See `README.md` for why each workload exists.

use crate::redrive::{Queried, Redrive};
use crate::stats::{label, median, median_rate, ms, run_open_loop, Request, Samples, WallClock};
use crate::trace::{write_spans, Breakdown, Span, Tracer};
use crate::{Args, Report};
use logstore_core::config::BalancerKind;
use logstore_core::{ClusterConfig, LogStore, OpenParts, QueryOptions};
use logstore_oss::{
    FaultyStore, LatencyModel, MemoryStore, ObjectStore, RetryingStore, SimulatedOss,
};
use logstore_query::exec::QueryResult;
use logstore_types::{LogRecord, TenantId, Timestamp, Value};
use logstore_wal::{FlushPolicy, WalConfig};
use logstore_workload::queries::tenant_queries;
use logstore_workload::{LogRecordGenerator, Zipfian};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["ingest", "query_cold", "mixed"];

/// Rows per ingest batch.
const BATCH_ROWS: usize = 64;
/// Zipf skew of tenant traffic in every workload.
const THETA: f64 = 0.99;
/// Sleep fraction of the `oss_like` latency model on `ingest`: small, so
/// uploads cost real but short wall time.
const INGEST_TIME_SCALE: f64 = 0.01;
/// Sleep fraction on `query_cold`, where OSS round trips are the point.
/// At 0.02 the run was CPU-bound and its throughput moved by a third
/// between runs; at 0.05 sleeping dominates and it holds within a tenth.
const COLD_TIME_SCALE: f64 = 0.05;
/// The traced run alternates untraced and traced slices of this length, so
/// both see the same engine state; the difference is `trace.overhead_frac`.
const TRACE_SLICE_MS: u128 = 250;
/// First timestamp of every generated history.
const T0: i64 = 1_600_000_000_000;

/// Runs the named workload.
pub fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "ingest" => ingest(args),
        "query_cold" => query_cold(args),
        "mixed" => mixed(args),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

// ---------------------------------------------------------------- inputs

/// Pre-generated ingest batches plus the tenant of every row, kept apart
/// so the per-tenant oracle costs nothing while timing.
struct Batches {
    batches: Vec<Vec<LogRecord>>,
    tenants: Vec<Vec<TenantId>>,
}

/// `n` batches over `tenants` Zipfian tenants. Row `k` of stream `stream`
/// gets timestamp `T0 + (k * streams + stream) * step_ms`.
fn batches(
    seed: u64,
    stream: u64,
    streams: u64,
    n: usize,
    tenants: u64,
    step_ms: i64,
    first_row: u64,
) -> Batches {
    let mut gen = LogRecordGenerator::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream));
    let mut rng = StdRng::seed_from_u64(seed ^ (stream << 32) ^ 0x5eed);
    let zipf = Zipfian::new(tenants, THETA);
    let mut out = Batches { batches: Vec::with_capacity(n), tenants: Vec::with_capacity(n) };
    let mut k = first_row;
    for _ in 0..n {
        let mut batch = Vec::with_capacity(BATCH_ROWS);
        let mut ids = Vec::with_capacity(BATCH_ROWS);
        for _ in 0..BATCH_ROWS {
            let tenant = TenantId(zipf.next(&mut rng) + 1);
            let ts = Timestamp(T0 + (k as i64 * streams as i64 + stream as i64) * step_ms);
            batch.push(gen.record(tenant, ts));
            ids.push(tenant);
            k += 1;
        }
        out.batches.push(batch);
        out.tenants.push(ids);
    }
    out
}

/// The eight §6.3 templates for each tenant in `1..=head` (the largest
/// tenants of the Zipfian population), `variants` times over with fresh
/// random windows, filters and APIs each time.
fn query_set(seed: u64, head: u64, variants: u64, start: Timestamp, end: Timestamp) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_u64);
    (0..variants)
        .flat_map(|_| 1..=head)
        .flat_map(|t| tenant_queries(TenantId(t), start, end, &mut rng))
        .collect()
}

/// The closed-loop clients' query sequences over a [`query_set`] of
/// `variants` rounds: one walk that takes the rounds in order, each in a
/// seeded shuffle, and that client `c` of `clients` starts at round
/// `c * variants / clients` (cycling). Every stretch of one round runs each
/// tenant's eight templates once, so the tail is made of the set's slowest
/// queries in fixed proportion. With uniform draws the p99 hung on how
/// often a run happened to draw the largest tenant's few full-history
/// queries.
fn pass_sequences(seed: u64, clients: u64, set_len: usize, variants: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc11e);
    let round = set_len / variants as usize;
    let mut walk: Vec<usize> = (0..set_len).collect();
    for r in walk.chunks_mut(round) {
        r.shuffle(&mut rng);
    }
    (0..clients)
        .map(|c| {
            let mut from = walk.clone();
            from.rotate_left((c * variants / clients) as usize * round);
            from
        })
        .collect()
}

/// The open-loop client's query sequence: uniform draws from
/// [`query_set`]. Drawing tenants uniformly within the head (rather than by
/// their Zipf weight) keeps one seed's handful of largest-tenant queries
/// from setting the run's tail.
fn query_sequence(seed: u64, client: u64, set_len: usize, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ (client << 40) ^ 0xc11e);
    (0..n).map(|_| rng.gen_range(0..set_len)).collect()
}

// ---------------------------------------------------------------- engines

/// The `oss_like` model at a sleep fraction.
fn oss(time_scale: f64) -> LatencyModel {
    LatencyModel::oss_like().with_time_scale(time_scale)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn base_config(seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::for_testing();
    c.seed = seed;
    c.query_threads = threads();
    c.prefetch_threads = 8;
    c
}

/// The write workloads' WAL: `FlushPolicy::Flush`, the engine's default,
/// which writes every group commit to the OS and leaves node loss to Raft
/// replication, as the paper's write path does. With `FlushPolicy::Sync`
/// the ack time was the shared disk's fsync time: while another tenant of
/// the host was writing, `ingest` lost half its throughput and its p50
/// quadrupled, where under `Flush` they moved by a fifth.
fn wal() -> WalConfig {
    WalConfig { flush: FlushPolicy::Flush, ..WalConfig::default() }
}

/// Sets up `reps` engines and keeps the last; earlier ones are dropped (and
/// their directories removed) before the next starts. Each rep runs
/// `prepare` on its directory untimed, then times `open`. Returns the
/// engine and the median set-up time in seconds.
fn timed_setup<T>(
    run_dir: &Path,
    reps: usize,
    mut prepare: impl FnMut(&Path),
    mut open: impl FnMut(&Path) -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let dir = run_dir.join(format!("setup-{rep}"));
        prepare(&dir);
        let start = Instant::now();
        let engine = open(&dir);
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(engine) {
            drop(old);
            let old_dir = run_dir.join(format!("setup-{}", rep - 1));
            if old_dir.exists() {
                std::fs::remove_dir_all(&old_dir).expect("remove an old set-up directory");
            }
        }
    }
    println!("setup_reps = {times:?} s");
    (kept.expect("at least one set-up"), median(&times))
}

// ---------------------------------------------------------------- per-thread results

/// Counters of the re-driven queries.
#[derive(Default)]
struct QueryCounts {
    n: u64,
    candidates: u64,
    mapped: u64,
    realtime_rows: u64,
    decode_rows: u64,
    decode_bytes: u64,
    blocks_visited: u64,
    partial_bytes: u64,
    prefetch_errors: u64,
}

impl QueryCounts {
    fn absorb(&mut self, q: &Queried) {
        self.n += 1;
        self.candidates += q.candidates;
        self.mapped += q.mapped;
        self.realtime_rows += q.stats.realtime_rows_scanned;
        self.decode_rows += q.counters.decode.rows_decoded;
        self.decode_bytes += q.counters.decode.bytes_decoded;
        self.blocks_visited += q.stats.blocks_visited;
        self.partial_bytes += q.counters.partial_bytes;
        self.prefetch_errors += q.stats.prefetch_errors;
    }

    fn merge(&mut self, o: &QueryCounts) {
        self.n += o.n;
        self.candidates += o.candidates;
        self.mapped += o.mapped;
        self.realtime_rows += o.realtime_rows;
        self.decode_rows += o.decode_rows;
        self.decode_bytes += o.decode_bytes;
        self.blocks_visited += o.blocks_visited;
        self.partial_bytes += o.partial_bytes;
        self.prefetch_errors += o.prefetch_errors;
    }
}

/// What one client or producer thread measured.
#[derive(Default)]
struct ThreadOut {
    ingest: Samples,
    query: Samples,
    late: Samples,
    rows_attempted: u64,
    rows_acked: u64,
    rows_failed: u64,
    batches: u64,
    batches_failed: u64,
    /// Acked rows per tenant, from fully accepted batches only.
    acked_by_tenant: BTreeMap<TenantId, u64>,
    /// A batch was partly accepted, so only the total can be checked.
    partial_batches: u64,
    queries: u64,
    queries_failed: u64,
    mismatches: u64,
    stale_retries: u64,
    first_error: Option<String>,
    /// Service time and count of operations in untraced / traced slices.
    plain: (Duration, u64),
    traced: (Duration, u64),
    counts: QueryCounts,
    spans: Vec<Span>,
    ticks: (Duration, u64),
    compactions: (Duration, u64),
    blocks_merged: u64,
    gc_deleted: u64,
    /// Wall time from the start of the phase to this thread's last op.
    elapsed: Duration,
    /// Completion time and amount (acked rows, or 1 per query) of every
    /// successful operation, for the per-second median rate.
    done: Vec<(Duration, u64)>,
}

impl ThreadOut {
    /// Counts every row of fully accepted batches ingested outside the
    /// measured phase (the tenant of each row, batch by batch).
    fn add_acked(&mut self, tenants: &[Vec<TenantId>]) {
        for ids in tenants {
            self.rows_acked += ids.len() as u64;
            for t in ids {
                *self.acked_by_tenant.entry(*t).or_default() += 1;
            }
        }
    }

    fn merge(&mut self, o: ThreadOut) {
        self.ingest.extend(&o.ingest);
        self.query.extend(&o.query);
        self.late.extend(&o.late);
        self.rows_attempted += o.rows_attempted;
        self.rows_acked += o.rows_acked;
        self.rows_failed += o.rows_failed;
        self.batches += o.batches;
        self.batches_failed += o.batches_failed;
        for (t, n) in o.acked_by_tenant {
            *self.acked_by_tenant.entry(t).or_default() += n;
        }
        self.partial_batches += o.partial_batches;
        self.queries += o.queries;
        self.queries_failed += o.queries_failed;
        self.mismatches += o.mismatches;
        self.stale_retries += o.stale_retries;
        self.first_error = self.first_error.take().or(o.first_error);
        self.plain = (self.plain.0 + o.plain.0, self.plain.1 + o.plain.1);
        self.traced = (self.traced.0 + o.traced.0, self.traced.1 + o.traced.1);
        self.counts.merge(&o.counts);
        self.spans.extend(o.spans);
        self.ticks = (self.ticks.0 + o.ticks.0, self.ticks.1 + o.ticks.1);
        self.compactions =
            (self.compactions.0 + o.compactions.0, self.compactions.1 + o.compactions.1);
        self.blocks_merged += o.blocks_merged;
        self.gc_deleted += o.gc_deleted;
        self.elapsed = self.elapsed.max(o.elapsed);
        self.done.extend(o.done);
    }
}

/// One thread's handle on the engine for the measured phase: sends each
/// operation through the public API, or through the re-drive with spans
/// during the traced slices of a traced run.
struct Runner<'a> {
    store: &'a LogStore,
    redrive: Option<&'a Redrive>,
    origin: Instant,
    tracer: Tracer,
    out: ThreadOut,
}

impl<'a> Runner<'a> {
    fn new(
        store: &'a LogStore,
        redrive: Option<&'a Redrive>,
        origin: Instant,
        thread: u64,
    ) -> Self {
        Runner {
            store,
            redrive,
            origin,
            tracer: Tracer::new(origin, thread),
            out: ThreadOut::default(),
        }
    }

    /// The re-drive to use for an operation starting now, if any.
    fn traced_slice(&self) -> Option<&'a Redrive> {
        self.redrive.filter(|_| (self.origin.elapsed().as_millis() / TRACE_SLICE_MS) % 2 == 1)
    }

    fn account(&mut self, traced: bool, took: Duration) {
        let slot = if traced { &mut self.out.traced } else { &mut self.out.plain };
        slot.0 += took;
        slot.1 += 1;
        self.out.elapsed = self.origin.elapsed();
    }

    fn note_error(&mut self, e: String) {
        self.out.first_error.get_or_insert(e);
    }

    /// One ingest call; returns its service time and whether every row was
    /// accepted.
    fn ingest(&mut self, batch: Vec<LogRecord>, tenants: &[TenantId]) -> (Duration, bool) {
        let rows = batch.len() as u64;
        let redrive = self.traced_slice();
        let start = Instant::now();
        let result = match redrive {
            Some(r) => r.ingest(&mut self.tracer, batch),
            None => self.store.ingest(batch),
        };
        let took = start.elapsed();
        self.account(redrive.is_some(), took);
        self.out.batches += 1;
        self.out.rows_attempted += rows;
        let ok = match result {
            Ok(report) => {
                self.out.rows_acked += report.accepted;
                self.out.done.push((self.out.elapsed, report.accepted));
                self.out.rows_failed += report.rejected + report.failed;
                if let Some(e) = report.first_failure {
                    self.note_error(e);
                }
                if report.rejected > 0 {
                    self.note_error(format!("{} rows refused by backpressure", report.rejected));
                }
                if report.accepted == rows {
                    for t in tenants {
                        *self.out.acked_by_tenant.entry(*t).or_default() += 1;
                    }
                } else if report.accepted > 0 {
                    self.out.partial_batches += 1;
                }
                report.accepted == rows
            }
            Err(e) => {
                self.out.rows_failed += rows;
                self.note_error(e.to_string());
                false
            }
        };
        if !ok {
            self.out.batches_failed += 1;
        }
        (took, ok)
    }

    /// One query; returns its service time and whether it succeeded.
    /// A result that differs from `expect` counts as a mismatch.
    fn query(&mut self, sql: &str, expect: Option<&QueryResult>) -> (Duration, bool) {
        let redrive = self.traced_slice();
        let start = Instant::now();
        let result = match redrive {
            Some(r) => r.query(&mut self.tracer, sql).map(|q| {
                self.out.counts.absorb(&q);
                (q.result, q.stale_retries)
            }),
            None => self
                .store
                .query_with_options(sql, &QueryOptions::default())
                .map(|e| (e.result, e.stale_retries)),
        };
        let took = start.elapsed();
        self.account(redrive.is_some(), took);
        self.out.queries += 1;
        match result {
            Ok((result, stale)) => {
                self.out.stale_retries += stale;
                self.out.done.push((self.out.elapsed, 1));
                if expect.is_some_and(|e| *e != result) {
                    self.out.mismatches += 1;
                    self.note_error(format!("result differs from the baseline: {sql}"));
                }
                (took, true)
            }
            Err(e) => {
                self.out.queries_failed += 1;
                self.note_error(format!("{sql}: {e}"));
                (took, false)
            }
        }
    }

    /// A maintenance call on the producer thread, as its own traced request.
    fn maintain<T>(&mut self, name: &'static str, f: impl FnOnce(&LogStore) -> T) -> (Duration, T) {
        let store = self.store;
        let start = Instant::now();
        let out = if self.traced_slice().is_some() {
            self.tracer.request("maintain", |tr| tr.span(name, |_| f(store)))
        } else {
            f(store)
        };
        (start.elapsed(), out)
    }

    fn finish(mut self) -> ThreadOut {
        self.out.spans = self.tracer.take();
        self.out
    }
}

fn record(samples: &mut Samples, took: Duration, ok: bool) {
    if ok {
        samples.push(ms(took));
    } else {
        samples.push_failed();
    }
}

// ---------------------------------------------------------------- checks

/// The write workloads' oracle, run after the measured phase: flush
/// everything, check that per-tenant `COUNT(*)` adds up to the acked rows
/// (and matches per tenant when every batch was all-or-nothing), then GC
/// and check that the OSS listing equals the union of the tenant maps.
fn check_writes(store: &LogStore, out: &ThreadOut, tenants: u64) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = store.flush() {
        errors.push(format!("final flush: {e}"));
    }
    let mut total = 0u64;
    for t in 1..=tenants {
        let sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {t}");
        let n = match store.query(&sql) {
            Ok(r) => r.rows.first().and_then(|row| row.first()).and_then(Value::as_u64),
            Err(e) => {
                errors.push(format!("{sql}: {e}"));
                None
            }
        };
        let n = n.unwrap_or(0);
        total += n;
        let expected = out.acked_by_tenant.get(&TenantId(t)).copied().unwrap_or(0);
        if out.partial_batches == 0 && n != expected {
            errors.push(format!("tenant {t}: COUNT(*) = {n}, acked {expected}"));
        }
    }
    if total != out.rows_acked {
        errors
            .push(format!("COUNT(*) over all tenants = {total}, acked rows = {}", out.rows_acked));
    }
    let gc = store.gc();
    if gc.retained > 0 {
        errors.push(format!("gc retained {} tombstones", gc.retained));
    }
    if let Err(e) = check_listing(store) {
        errors.push(e);
    }
    errors
}

/// The OSS listing must equal the union of the tenant maps.
fn check_listing(store: &LogStore) -> Result<(), String> {
    let shared = store.shared();
    let listed: BTreeSet<String> =
        shared.fault_layer().list("").map_err(|e| format!("list: {e}"))?.into_iter().collect();
    let mapped: BTreeSet<String> = shared
        .metadata
        .tenants()
        .into_iter()
        .flat_map(|t| shared.metadata.all_blocks(t))
        .map(|e| e.path)
        .collect();
    if listed != mapped {
        let extra = listed.difference(&mapped).count();
        let missing = mapped.difference(&listed).count();
        return Err(format!(
            "OSS listing != tenant maps: {extra} unmapped objects, {missing} missing"
        ));
    }
    Ok(())
}

/// Stored OSS bytes per archived row.
fn oss_bytes_per_row(store: &LogStore) -> f64 {
    let shared = store.shared();
    let bytes = shared.fault_layer().inner().total_bytes();
    let rows: u64 = shared
        .metadata
        .tenants()
        .into_iter()
        .flat_map(|t| shared.metadata.all_blocks(t))
        .map(|e| e.rows)
        .sum();
    bytes as f64 / rows.max(1) as f64
}

/// Peak resident set size (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- reporting

/// Prints a latency sample's median and tail with the sample count and
/// returns `(p50, p99)`; when the sample cannot support p99, the highest
/// supported percentile stands in for it.
fn latency(name: &str, s: &Samples) -> (f64, f64) {
    let n = s.len();
    // Under twenty samples no percentile is supported; the run missed
    // every limit.
    let p50 = s.percentile(500).unwrap_or(f64::INFINITY);
    println!("{name}_p50_ms = {p50:.4} ms (n={n})");
    let p99 = match s.percentile(990) {
        Some(v) => v,
        None => {
            let (pm, v) = s.tail().unwrap_or((500, p50));
            println!("{name}: p99 needs 1000 samples, have {n}: reporting {}", label(pm));
            v
        }
    };
    println!("{name}_p99_ms = {p99:.4} ms (n={n})");
    if let Some((pm, v)) = s.tail().filter(|(pm, _)| *pm > 990) {
        println!("{name}_{}_ms = {v:.4} ms (n={n})", label(pm));
    }
    (p50, p99)
}

fn fail_frac(name: &str, failed: u64, attempted: u64, what: &str) {
    let frac = failed as f64 / attempted.max(1) as f64;
    println!("{name}_fail_frac = {frac:.6} ({failed} of {attempted} {what})");
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json` order.
struct EndToEnd {
    setup_s: f64,
    throughput: f64,
    p50: f64,
    p99: f64,
    oss_bytes_per_row: f64,
}

fn end_to_end(report: &mut Report, e: EndToEnd) {
    report.metric("setup_s", e.setup_s, "s");
    report.metric("throughput_per_s", e.throughput, "1/s");
    report.metric("latency_p50_ms", e.p50, "ms");
    report.metric("latency_p99_ms", e.p99, "ms");
    report.metric("oss_bytes_per_row", e.oss_bytes_per_row, "B/row");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Engine-wide counters sampled at the start and at the end of the
/// measured phase (the end before the correctness checks touch anything).
struct EngineCounters {
    oss: logstore_oss::OssMetrics,
    cache: logstore_cache::CacheStats,
    blocks: usize,
    routes: usize,
}

impl EngineCounters {
    fn take(store: &LogStore) -> Self {
        EngineCounters {
            oss: store.oss_metrics(),
            cache: store.cache_stats(),
            blocks: store.block_count(),
            routes: store.route_count(),
        }
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn per_layer(
    report: &mut Report,
    store: &LogStore,
    redrive: &Redrive,
    out: &ThreadOut,
    (before, after): (&EngineCounters, &EngineCounters),
    trace_file: &Path,
) {
    let mut bd = Breakdown { rows: BTreeMap::new(), root_ns: 0, root_self_ns: 0.0 };
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(trace_file).expect("create the span file"));
    // Spans were merged thread after thread; split them back by request
    // base so each thread's parent indices stay local.
    for (thread, spans) in split_threads(&out.spans).into_iter().enumerate() {
        bd.merge(&Breakdown::of(spans));
        write_spans(&mut file, thread, spans).expect("write the span file");
    }
    std::io::Write::flush(&mut file).expect("flush the span file");
    println!("spans written to {}", trace_file.display());
    print_layer_table(&bd);

    let c = &redrive.counts;
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us = |name: &str| bd.row(name).attributed_ns / 1e3;
    let traced_batches = bd.row("ingest").count as f64;
    let traced_queries = out.counts.n as f64;
    let passes = get(&c.archive_passes);

    let mut append = Samples::default();
    for s in out.spans.iter().filter(|s| s.name == "append") {
        append.push((s.end - s.start) as f64 / 1e3);
    }
    report.metric("route.calls_per_batch", per(get(&c.route_calls), traced_batches), "count");
    report.metric("route.us_per_batch", per(us("route"), traced_batches), "us");
    report.metric("append.calls_per_batch", per(get(&c.append_calls), traced_batches), "count");
    report.metric("append.p50_us", append.percentile(500).unwrap_or(0.0), "us");
    report.metric(
        "append.p99_us",
        append.percentile(990).or(append.tail().map(|t| t.1)).unwrap_or(0.0),
        "us",
    );
    report.metric("append.fail_frac", per(get(&c.append_failed), get(&c.append_calls)), "1");
    report.metric("archive.passes", passes, "count");
    report.metric("archive.drain_ms", per(us("archive.drain") / 1e3, passes), "ms");
    report.metric("archive.build_ms", per(us("archive.build") / 1e3, passes), "ms");
    report.metric("archive.upload_ms", per(us("archive.upload") / 1e3, passes), "ms");
    report.metric("archive.ack_ms", per(us("archive.ack") / 1e3, passes), "ms");
    report.metric("archive.blocks_per_pass", per(get(&c.archive_blocks), passes), "count");
    report.metric(
        "archive.rows_per_block",
        per(get(&c.archive_rows), get(&c.archive_blocks)),
        "rows",
    );
    report.metric("archive.failed_passes", get(&c.archive_failed_passes), "count");

    let oss_d = |f: fn(&logstore_oss::OssMetrics) -> u64| {
        f(&after.oss).saturating_sub(f(&before.oss)) as f64
    };
    let cache_d = after.cache.delta_since(&before.cache);
    let all_queries = out.queries as f64;
    report.metric(
        "oss.puts_per_krow",
        per(oss_d(|m| m.put_requests) * 1e3, out.rows_attempted as f64),
        "count",
    );
    report.metric("oss.gets_per_query", per(oss_d(|m| m.get_requests), all_queries), "count");
    report.metric("oss.bytes_read_per_query", per(oss_d(|m| m.bytes_read), all_queries), "B");
    // Modelled GET time (jitter-free expectation): on the write workloads
    // the engine-wide modelled total also holds the uploads.
    let model = &store.config().oss_latency;
    let get_ms = (oss_d(|m| m.get_requests) * model.base_latency_us as f64 * 1e3
        + oss_d(|m| m.bytes_read) * model.per_byte_ns as f64)
        / 1e6;
    report.metric("oss.modelled_ms_per_query", per(get_ms, all_queries), "ms");

    let q = &out.counts;
    report.metric("plan.us", per(us("plan"), traced_queries), "us");
    report.metric("map.candidates_per_query", per(q.candidates as f64, traced_queries), "count");
    // Share of the tenant's mapped blocks the map left out (0 with no
    // queries).
    let pruned = if q.mapped > 0 { 1.0 - q.candidates as f64 / q.mapped as f64 } else { 0.0 };
    report.metric("map.pruned_frac", pruned, "1");
    report.metric("realtime.us", per(us("realtime"), traced_queries), "us");
    report.metric("realtime.rows_per_query", per(q.realtime_rows as f64, traced_queries), "rows");
    report.metric("open.us", per(us("open"), traced_queries), "us");
    report.metric("prefetch.us", per(us("prefetch"), traced_queries), "us");
    report.metric("prefetch.errors", q.prefetch_errors as f64, "count");
    report.metric("collect.us", per(us("collect"), traced_queries), "us");
    report.metric("decode.rows_per_query", per(q.decode_rows as f64, traced_queries), "rows");
    report.metric("decode.bytes_per_query", per(q.decode_bytes as f64, traced_queries), "B");
    report.metric(
        "scan.blocks_visited_per_query",
        per(q.blocks_visited as f64, traced_queries),
        "count",
    );
    report.metric("merge.us", per(us("merge"), traced_queries), "us");
    report.metric("scatter.us", per(us("scatter"), traced_queries), "us");
    report.metric("partial.bytes_per_query", per(q.partial_bytes as f64, traced_queries), "B");
    report.metric("cache.hit_ratio", cache_d.hit_rate(), "1");
    report.metric(
        "cache.origin_bytes_per_query",
        per(cache_d.bytes_from_origin as f64, all_queries),
        "B",
    );
    report.metric("cache.singleflight_waits", cache_d.singleflight_waits as f64, "count");
    report.metric("cache.coalesced_gets", cache_d.coalesced_gets as f64, "count");

    report.metric(
        "compact.ms_per_pass",
        per(ms(out.compactions.0), out.compactions.1 as f64),
        "ms",
    );
    report.metric("compact.blocks_merged", out.blocks_merged as f64, "count");
    report.metric("gc.deleted", out.gc_deleted as f64, "count");
    report.metric("blocks.live_end", after.blocks as f64, "count");
    report.metric("ctrl.tick_ms", per(ms(out.ticks.0), out.ticks.1 as f64), "ms");
    report.metric("ctrl.routes_end", after.routes as f64, "count");

    report.metric(
        "harness.gen_late_p99_ms",
        out.late.percentile(990).or(out.late.tail().map(|t| t.1)).unwrap_or(0.0),
        "ms",
    );
    let plain = per(out.plain.0.as_secs_f64(), out.plain.1 as f64);
    let traced = per(out.traced.0.as_secs_f64(), out.traced.1 as f64);
    report.metric("trace.overhead_frac", per(traced, plain) - 1.0, "1");
    report.metric("trace.coverage_frac", bd.coverage(), "1");
    report.metric("query.stale_retries", out.stale_retries as f64, "count");
}

/// Splits merged spans back into per-thread runs: every thread's spans
/// were appended as one contiguous block with its own request base.
fn split_threads(spans: &[Span]) -> Vec<&[Span]> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=spans.len() {
        if i == spans.len() || spans[i].request >> 40 != spans[start].request >> 40 {
            if i > start {
                out.push(&spans[start..i]);
            }
            start = i;
        }
    }
    out
}

fn print_layer_table(bd: &Breakdown) {
    println!("layer table (traced slices; attributed wall time, share of traced end-to-end):");
    let total = bd.root_ns as f64;
    for (name, row) in &bd.rows {
        println!(
            "  {name:<16} spans={:<8} self_ms={:<12.3} attributed_ms={:<12.3} share={:.4}",
            row.count,
            row.self_ns as f64 / 1e6,
            row.attributed_ns / 1e6,
            if total > 0.0 { row.attributed_ns / total } else { 0.0 }
        );
    }
    println!(
        "  traced end-to-end ms = {:.3}, covered by layers = {:.4}",
        total / 1e6,
        bd.coverage()
    );
}

fn trace_file(args: &Args) -> std::path::PathBuf {
    let dir = Path::new("bench_e2e").join("out");
    std::fs::create_dir_all(&dir).expect("create bench_e2e/out");
    dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed))
}

fn finish(report: &mut Report, out: &ThreadOut, errors: Vec<String>) {
    if let Some(e) = &out.first_error {
        println!("first failure: {e}");
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    report.correct = errors.is_empty() && out.mismatches == 0;
    println!("correct = {}", report.correct);
}

/// Spawns one thread per input with a shared start, returning the merged
/// results. Each thread gets a fresh [`Runner`].
fn in_threads<I: Send>(
    store: &LogStore,
    redrive: Option<&Redrive>,
    origin_at: &Barrier,
    inputs: Vec<I>,
    body: impl Fn(&mut Runner, I, Instant) + Sync,
) -> ThreadOut {
    let origin_slot = std::sync::OnceLock::new();
    let mut merged = ThreadOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                let body = &body;
                let origin_slot = &origin_slot;
                s.spawn(move || {
                    origin_at.wait();
                    let origin = *origin_slot.get_or_init(Instant::now);
                    let mut runner = Runner::new(store, redrive, origin, i as u64 + 1);
                    body(&mut runner, input, origin);
                    runner.finish()
                })
            })
            .collect();
        for h in handles {
            merged.merge(h.join().expect("a benchmark thread panicked"));
        }
    });
    merged
}

// ---------------------------------------------------------------- ingest

const INGEST_TENANTS: u64 = 200;
const INGEST_PRODUCERS: u64 = 2;
/// Batches generated per producer. Producers cycle through them, copying
/// each batch before its call is timed, so the input pool stays small.
const INGEST_POOL_BATCHES: usize = 2048;
/// Set-up is a recovery: `LogStore::open` replays this many batches left
/// unarchived in the WAL. Opening an empty store takes about a millisecond
/// of directory creation and fsync, whose median halved between runs half
/// an hour apart on the same host; a replay is CPU work that holds steadier.
const INGEST_RECOVER_BATCHES: usize = 320;
const INGEST_SETUP_REPS: usize = 5;

fn ingest_config(seed: u64, dir: &Path) -> ClusterConfig {
    let mut c = base_config(seed);
    c.data_dir = Some(dir.to_path_buf());
    c.wal = wal();
    c.raft_replicas = 3;
    c.oss_latency = oss(INGEST_TIME_SCALE);
    c.rowstore_flush_bytes = 256 << 10;
    c
}

fn ingest(args: &Args) -> Report {
    let inputs: Vec<Batches> = (0..INGEST_PRODUCERS)
        .map(|p| batches(args.seed, p, INGEST_PRODUCERS, INGEST_POOL_BATCHES, INGEST_TENANTS, 1, 0))
        .collect();
    let recover = batches(
        args.seed,
        INGEST_PRODUCERS,
        INGEST_PRODUCERS + 1,
        INGEST_RECOVER_BATCHES,
        INGEST_TENANTS,
        1,
        0,
    );
    let prepare = |dir: &Path| {
        let mut config = ingest_config(args.seed, dir);
        config.rowstore_flush_bytes = usize::MAX;
        // Synced, so the timed recovery finds no dirty pages to write back.
        config.wal.flush = FlushPolicy::Sync;
        let store = LogStore::open(config).expect("open the store to recover");
        for batch in &recover.batches {
            let report = store.ingest(batch.clone()).expect("ingest before recovery");
            assert_eq!(report.accepted as usize, batch.len(), "rows to recover must be accepted");
        }
        // Dropped without a flush: every row stays in the WAL only.
    };
    let (store, setup_s) = timed_setup(&args.run_dir, INGEST_SETUP_REPS, prepare, |dir| {
        LogStore::open(ingest_config(args.seed, dir)).expect("recover the ingest store")
    });
    // Archive the recovered rows before timing, so the first timed batch
    // does not pay for them.
    store.flush().expect("flush the recovered rows");
    let redrive = args.trace.then(|| Redrive::new(&store));
    let before = EngineCounters::take(&store);
    let barrier = Barrier::new(INGEST_PRODUCERS as usize);
    let deadline = Duration::from_secs(args.seconds);
    let mut out = in_threads(&store, redrive.as_ref(), &barrier, inputs, |d, input, origin| {
        for (batch, ids) in input.batches.iter().zip(&input.tenants).cycle() {
            if origin.elapsed() >= deadline {
                return;
            }
            let (took, ok) = d.ingest(batch.clone(), ids);
            record(&mut d.out.ingest, took, ok);
        }
    });
    let after = EngineCounters::take(&store);
    let rows_per_s = median_rate(&out.done, args.seconds);
    let mean_rows_per_s = out.rows_acked as f64 / out.elapsed.as_secs_f64();
    out.add_acked(&recover.tenants);
    let errors = check_writes(&store, &out, INGEST_TENANTS);
    let mut report =
        Report { attempted: out.batches, failed: out.batches_failed, ..Report::default() };
    println!("ingest_rows_per_s = {rows_per_s:.3} 1/s (median second; mean {mean_rows_per_s:.3})");
    let (p50, p99) = latency("ingest_ack", &out.ingest);
    fail_frac("ingest", out.rows_failed, out.rows_attempted, "rows");
    match &redrive {
        Some(r) => per_layer(&mut report, &store, r, &out, (&before, &after), &trace_file(args)),
        None => end_to_end(
            &mut report,
            EndToEnd {
                setup_s,
                throughput: rows_per_s,
                p50,
                p99,
                oss_bytes_per_row: oss_bytes_per_row(&store),
            },
        ),
    }
    finish(&mut report, &out, errors);
    report
}

// ---------------------------------------------------------------- query_cold

const COLD_TENANTS: u64 = 100;
const COLD_ROWS: usize = 400_000;
/// Rows between flushes while loading: each flush adds one time slice of
/// LogBlocks per tenant, which the LogBlock map can prune.
const COLD_FLUSH_EVERY: usize = 50_000;
const COLD_HEAD: u64 = 48;
/// Random instances of each tenant's eight templates: 3072 distinct
/// queries, so the p99 lies among many queries' latencies rather than at
/// the edge of the largest tenant's handful.
const COLD_VARIANTS: u64 = 8;
const COLD_CLIENTS: u64 = 2;
const COLD_SETUP_REPS: usize = 3;
const COLD_CACHE_BYTES: usize = 2 << 20;
/// History span of the dataset: 48 hours.
const COLD_SPAN_MS: i64 = 48 * 3600 * 1000;

fn cold_config(seed: u64) -> ClusterConfig {
    let mut c = base_config(seed);
    c.block_rows = 1024;
    c.max_rows_per_logblock = 65536;
    c.cache_block_size = 8 * 1024;
    c.cache_memory_bytes = COLD_CACHE_BYTES;
    c.rowstore_flush_bytes = usize::MAX;
    c.rowstore_backpressure_bytes = usize::MAX;
    c
}

/// The store stack of [`logstore_core::Store`] over `objects`' contents,
/// with `model` applied.
fn store_with(model: LatencyModel, seed: u64, objects: &MemoryStore) -> Arc<logstore_core::Store> {
    let memory = MemoryStore::new();
    for path in objects.list("").expect("list the loaded objects") {
        memory
            .put(&path, &objects.get(&path).expect("read a loaded object"))
            .expect("copy an object");
    }
    let c = ClusterConfig::for_testing();
    Arc::new(RetryingStore::new(
        SimulatedOss::new(FaultyStore::new(memory, c.oss_fault_scope, 0.0, seed), model, seed),
        c.oss_retry,
        seed,
    ))
}

/// Loads the history through `LogStore::ingest` + `flush` on a store with
/// no modelled latency, then opens the measured engine over a sleeping
/// copy of the same objects and the same LogBlock map. The loader stays
/// open as the baseline oracle: same data, no sleeping.
fn cold_setup(seed: u64, history: &[LogRecord]) -> (LogStore, LogStore) {
    let loader = LogStore::open(cold_config(seed)).expect("open the loader");
    for (i, chunk) in history.chunks(5000).enumerate() {
        let report = loader.ingest(chunk.to_vec()).expect("load ingest");
        assert_eq!(report.accepted as usize, chunk.len(), "the load must not be refused");
        if (i + 1) * 5000 % COLD_FLUSH_EVERY == 0 {
            loader.flush().expect("load flush");
        }
    }
    loader.flush().expect("load flush");
    let mut config = cold_config(seed);
    config.oss_latency = oss(COLD_TIME_SCALE);
    let store = store_with(config.oss_latency.clone(), seed, loader.shared().fault_layer().inner());
    let parts = OpenParts {
        store: Some(store),
        metadata: Some(Arc::clone(&loader.shared().metadata)),
        hooks: None,
    };
    let cold = LogStore::open_with(config, parts).expect("open the cold store");
    (cold, loader)
}

fn query_cold(args: &Args) -> Report {
    let spec = logstore_workload::WorkloadSpec::new(COLD_TENANTS, THETA);
    let end = Timestamp(T0 + COLD_SPAN_MS);
    let history = LogRecordGenerator::new(args.seed).history(&spec, COLD_ROWS, Timestamp(T0), end);
    let sqls = query_set(args.seed, COLD_HEAD, COLD_VARIANTS, Timestamp(T0), end);
    let sequences = pass_sequences(args.seed, COLD_CLIENTS, sqls.len(), COLD_VARIANTS);
    let ((store, loader), setup_s) =
        timed_setup(&args.run_dir, COLD_SETUP_REPS, |_| {}, |_| cold_setup(args.seed, &history));
    drop(history);
    let dataset_bytes = loader.shared().fault_layer().inner().total_bytes();
    println!(
        "dataset: {} rows, {} LogBlocks, {dataset_bytes} bytes; memory cache {COLD_CACHE_BYTES} bytes",
        COLD_ROWS,
        store.block_count()
    );
    let baseline = baseline_results(&loader, &sqls);
    drop(loader);

    // Warm-up: both clients run until the hit ratio of successive slices
    // levels off; the measured phase continues their sequences from there.
    let warm = warm_up(&store, &sqls, &sequences);
    let redrive = args.trace.then(|| Redrive::new(&store));
    let before = EngineCounters::take(&store);
    let barrier = Barrier::new(COLD_CLIENTS as usize);
    let deadline = Duration::from_secs(args.seconds);
    let inputs: Vec<(usize, &Vec<usize>)> = sequences.iter().map(|s| (warm, s)).collect();
    let out = in_threads(&store, redrive.as_ref(), &barrier, inputs, |d, (from, seq), origin| {
        for &q in seq.iter().cycle().skip(from) {
            if origin.elapsed() >= deadline {
                return;
            }
            let (took, ok) = d.query(&sqls[q], Some(&baseline[q]));
            record(&mut d.out.query, took, ok);
        }
    });
    let after = EngineCounters::take(&store);
    let queries_per_s = median_rate(&out.done, args.seconds);
    let mut report =
        Report { attempted: out.queries, failed: out.queries_failed, ..Report::default() };
    println!(
        "query_per_s = {queries_per_s:.3} 1/s (median second; mean {:.3})",
        out.queries as f64 / out.elapsed.as_secs_f64()
    );
    let (p50, p99) = latency("query", &out.query);
    fail_frac("query", out.queries_failed, out.queries, "queries");
    println!(
        "cache_hit_ratio = {:.4}, oss_gets_per_query = {:.2}",
        after.cache.delta_since(&before.cache).hit_rate(),
        (after.oss.get_requests - before.oss.get_requests) as f64 / out.queries.max(1) as f64
    );
    match &redrive {
        Some(r) => per_layer(&mut report, &store, r, &out, (&before, &after), &trace_file(args)),
        None => end_to_end(
            &mut report,
            EndToEnd {
                setup_s,
                throughput: queries_per_s,
                p50,
                p99,
                oss_bytes_per_row: oss_bytes_per_row(&store),
            },
        ),
    }
    finish(&mut report, &out, Vec::new());
    report
}

/// Every query's `QueryOptions::baseline()` result (sequential, no cache,
/// no pushdown), computed on two threads.
fn baseline_results(loader: &LogStore, sqls: &[String]) -> Vec<QueryResult> {
    let half = sqls.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = sqls
            .chunks(half)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|sql| {
                            loader
                                .query_with_options(sql, &QueryOptions::baseline())
                                .expect("baseline query")
                                .result
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("a baseline thread panicked")).collect()
    })
}

/// Runs both clients' sequences until the cache hit ratio of two
/// successive 500 ms slices differs by less than 0.02 (at most 6 s).
/// Returns how many queries each client consumed.
fn warm_up(store: &LogStore, sqls: &[String], sequences: &[Vec<usize>]) -> usize {
    let stop = AtomicBool::new(false);
    let mut used = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = sequences
            .iter()
            .map(|seq| {
                let stop = &stop;
                s.spawn(move || {
                    let mut n = 0;
                    for &q in seq.iter().cycle() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        store
                            .query_with_options(&sqls[q], &QueryOptions::default())
                            .expect("warm-up query");
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let start = Instant::now();
        let mut last = store.cache_stats();
        let mut prev_ratio = -1.0;
        loop {
            std::thread::sleep(Duration::from_millis(500));
            let now = store.cache_stats();
            let ratio = now.delta_since(&last).hit_rate();
            last = now;
            if (ratio - prev_ratio).abs() < 0.02 || start.elapsed() > Duration::from_secs(6) {
                println!(
                    "warm-up: {:.2} s, slice hit ratio {ratio:.4}",
                    start.elapsed().as_secs_f64()
                );
                break;
            }
            prev_ratio = ratio;
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            used = used.max(h.join().expect("a warm-up client panicked"));
        }
    });
    used
}

// ---------------------------------------------------------------- mixed

const MIXED_TENANTS: u64 = 100;
const MIXED_HEAD: u64 = 20;
const MIXED_VARIANTS: u64 = 4;
/// Rows loaded (and archived) before timing, so queries see both archived
/// blocks and live row-store shards.
const MIXED_PRELOAD_BATCHES: usize = 600;
const MIXED_SETUP_REPS: usize = 3;
/// Producer schedule: ingest batches per second (each of `BATCH_ROWS`).
const MIXED_BATCH_RATE: u64 = 100;
/// Query client schedule: queries per second.
const MIXED_QUERY_RATE: u64 = 200;
/// Every this many producer slots is a `control_tick` (2 per second).
const MIXED_TICK_EVERY: u64 = MIXED_BATCH_RATE / 2;
/// Every this many producer slots is a `compact` + `gc` (2 per second):
/// frequent, short passes, so a run holds many of the stalls they cause.
const MIXED_COMPACT_EVERY: u64 = MIXED_BATCH_RATE / 2;
/// Milliseconds between consecutive rows' timestamps.
const MIXED_STEP_MS: i64 = 10;

fn mixed_config(seed: u64, dir: &Path) -> ClusterConfig {
    let mut c = base_config(seed);
    c.data_dir = Some(dir.to_path_buf());
    c.wal = wal();
    c.raft_replicas = 1;
    // Modelled but not slept: on a warm cache queries rarely reach OSS,
    // and sleeping compaction reads stalled the producer for up to a
    // second, which made the run's tail a matter of luck.
    c.oss_latency = oss(0.0);
    // One producer and one query client already use both cores: sources
    // run on the client's own thread instead of queueing for a pool that
    // competes with the producer for the same cores.
    c.query_threads = 1;
    c.prefetch_threads = 1;
    c.cache_memory_bytes = 64 << 20;
    c.rowstore_flush_bytes = 1 << 20;
    // The preload's single traffic window overloads the head tenant's
    // shard, so the set-up tick splits that tenant across shards (a route
    // epoch change); the measured phase's 500 ms windows stay below both
    // limits, so its ticks find nothing to move.
    c.shard_capacity = 12_000;
    c.flow.per_tenant_shard_limit = 2_000;
    c.balancer = BalancerKind::MaxFlow;
    // Merge only the small blocks the archive pass leaves behind; merged
    // blocks are past the threshold and are not rewritten again.
    c.compact_small_rows = Some(512);
    c
}

fn mixed(args: &Args) -> Report {
    let slots = MIXED_BATCH_RATE * args.seconds;
    let preload = batches(args.seed, 0, 1, MIXED_PRELOAD_BATCHES, MIXED_TENANTS, MIXED_STEP_MS, 0);
    let first_row = (MIXED_PRELOAD_BATCHES * BATCH_ROWS) as u64;
    let live = batches(args.seed, 1, 1, slots as usize, MIXED_TENANTS, MIXED_STEP_MS, first_row);
    let end = Timestamp(T0 + (first_row as i64 + slots as i64 * BATCH_ROWS as i64) * MIXED_STEP_MS);
    let sqls = query_set(args.seed, MIXED_HEAD, MIXED_VARIANTS, Timestamp(T0), end);
    let queries =
        query_sequence(args.seed, 0, sqls.len(), (MIXED_QUERY_RATE * args.seconds) as usize);

    let (store, setup_s) = timed_setup(
        &args.run_dir,
        MIXED_SETUP_REPS,
        |_| {},
        |dir| {
            let store = LogStore::open(mixed_config(args.seed, dir)).expect("open the mixed store");
            for batch in &preload.batches {
                let report = store.ingest(batch.clone()).expect("preload ingest");
                assert_eq!(
                    report.accepted as usize,
                    batch.len(),
                    "the preload must not be refused"
                );
            }
            store.control_tick().expect("preload control tick");
            store.flush().expect("preload flush");
            store.compact().expect("preload compaction");
            store.gc();
            store
        },
    );
    let Batches { tenants: preload_tenants, .. } = preload;
    // Warm the cache on every distinct query once.
    for sql in &sqls {
        store.query_with_options(sql, &QueryOptions::default()).expect("warm-up query");
    }

    let redrive = args.trace.then(|| Redrive::new(&store));
    let before = EngineCounters::take(&store);
    let barrier = Barrier::new(2);
    let until = Duration::from_secs(args.seconds);
    enum Role {
        Producer(Batches),
        Client(Vec<usize>),
    }
    let roles = vec![Role::Producer(live), Role::Client(queries)];
    let mut out = in_threads(&store, redrive.as_ref(), &barrier, roles, |d, role, origin| {
        let clock = WallClock(origin);
        match role {
            Role::Producer(input) => {
                let mut batches = input.batches.into_iter().zip(input.tenants);
                let mut kinds = Vec::new();
                let requests = run_open_loop(
                    &clock,
                    Duration::from_secs(1) / MIXED_BATCH_RATE as u32,
                    until,
                    |i| {
                        if i % MIXED_TICK_EVERY == MIXED_TICK_EVERY - 1 {
                            let (took, r) = d.maintain("ctrl", |s| s.control_tick());
                            d.out.ticks = (d.out.ticks.0 + took, d.out.ticks.1 + 1);
                            kinds.push(false);
                            return Some(
                                r.map_err(|e| d.note_error(format!("control_tick: {e}"))).is_ok(),
                            );
                        }
                        if i % MIXED_COMPACT_EVERY == MIXED_COMPACT_EVERY / 2 - 1 {
                            let (took, r) = d.maintain("compact", |s| {
                                let compacted = s.compact();
                                (compacted, s.gc())
                            });
                            d.out.compactions =
                                (d.out.compactions.0 + took, d.out.compactions.1 + 1);
                            d.out.gc_deleted += r.1.deleted;
                            kinds.push(false);
                            return Some(match r.0 {
                                Ok(c) => {
                                    d.out.blocks_merged += c.blocks_merged;
                                    true
                                }
                                Err(e) => {
                                    d.note_error(format!("compact: {e}"));
                                    false
                                }
                            });
                        }
                        let (batch, ids) = batches.next()?;
                        kinds.push(true);
                        Some(d.ingest(batch, &ids).1)
                    },
                );
                file_requests(&mut d.out.ingest, &mut d.out.late, &requests, &kinds);
            }
            Role::Client(seq) => {
                let mut next = seq.into_iter();
                let requests = run_open_loop(
                    &clock,
                    Duration::from_secs(1) / MIXED_QUERY_RATE as u32,
                    until,
                    |_| {
                        let q = next.next()?;
                        Some(d.query(&sqls[q], None).1)
                    },
                );
                file_requests(
                    &mut d.out.query,
                    &mut d.out.late,
                    &requests,
                    &vec![true; requests.len()],
                );
            }
        }
    });
    let after = EngineCounters::take(&store);
    // Until the last completion: a producer that falls behind its schedule
    // finishes late and lowers the rate.
    let elapsed = out.elapsed.as_secs_f64();
    let live_acked = out.rows_acked;
    out.add_acked(&preload_tenants);
    let errors = check_writes(&store, &out, MIXED_TENANTS);
    let mut report = Report {
        attempted: out.batches + out.queries,
        failed: out.batches_failed + out.queries_failed,
        ..Report::default()
    };
    println!(
        "ingest_rows_per_s = {:.3} 1/s (offered {} 1/s)",
        live_acked as f64 / elapsed,
        MIXED_BATCH_RATE * BATCH_ROWS as u64
    );
    latency("ingest_ack", &out.ingest);
    fail_frac("ingest", out.rows_failed, out.rows_attempted, "rows");
    println!(
        "query_per_s = {:.3} 1/s (offered {MIXED_QUERY_RATE} 1/s)",
        out.queries as f64 / elapsed
    );
    fail_frac("query", out.queries_failed, out.queries, "queries");
    println!(
        "generator_late_p99_ms = {:.4} ms (n={})",
        out.late.tail().map_or(0.0, |t| t.1),
        out.late.len()
    );
    // The gated latencies are the read side's: queries run on their own
    // thread, so the producer's maintenance stalls reach them only through
    // the engine, not through the producer's own backlog.
    let (p50, p99) = latency("query", &out.query);
    match &redrive {
        Some(r) => per_layer(&mut report, &store, r, &out, (&before, &after), &trace_file(args)),
        None => end_to_end(
            &mut report,
            EndToEnd {
                setup_s,
                throughput: (out.batches + out.queries - out.batches_failed - out.queries_failed)
                    as f64
                    / elapsed,
                p50,
                p99,
                oss_bytes_per_row: oss_bytes_per_row(&store),
            },
        ),
    }
    finish(&mut report, &out, errors);
    report
}

/// Files open-loop requests: client requests (`kinds[i]`) go into the
/// latency sample, timed from when they were due; every request's
/// lateness goes into the generator-lateness sample.
fn file_requests(samples: &mut Samples, late: &mut Samples, requests: &[Request], kinds: &[bool]) {
    for (r, &is_client) in requests.iter().zip(kinds) {
        late.push(r.late_ms);
        if is_client {
            if r.ok {
                samples.push(r.latency_ms);
            } else {
                samples.push_failed();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::pass_sequences;

    #[test]
    fn each_round_of_a_walk_runs_its_queries_once() {
        let (variants, round) = (4u64, 6usize);
        let walks = pass_sequences(7, 2, variants as usize * round, variants);
        assert_eq!(walks, pass_sequences(7, 2, variants as usize * round, variants));
        for (c, walk) in walks.iter().enumerate() {
            for (i, chunk) in walk.chunks(round).enumerate() {
                let r = (i + c * 2) % variants as usize;
                let mut got = chunk.to_vec();
                got.sort_unstable();
                assert_eq!(got, (r * round..(r + 1) * round).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn rounds_are_shuffled_by_the_seed() {
        let a = pass_sequences(1, 1, 64, 1);
        assert_ne!(a[0], (0..64).collect::<Vec<_>>());
        assert_ne!(a, pass_sequences(2, 1, 64, 1));
    }
}
