//! Ingest write-path benchmark: the seed-shaped write path (every append
//! holds one shard lock across encode + WAL fsync + row-store insert, so
//! the group-commit WAL sees one producer at a time) vs
//! the group-commit fast path (encode outside locks, concurrent producers
//! coalesced into one WAL frame + one fsync per epoch, short lock only
//! for the row-store apply).
//!
//! Producer counts 1/4/16/64, fixed work per producer, durable appends
//! (`FlushPolicy::Sync`) in both modes so the comparison is fsync against
//! fsync. Emits `BENCH_ingest.json` with rows/s, p99 ack latency and
//! fsyncs-per-batch per (mode, producers) cell, plus a replay check that
//! every appended frame survives reopen.
//!
//! `--smoke` runs a tiny matrix into a temp file and asserts the
//! invariants hold, including exactly one fsync per batch on the
//! baseline at every producer count (used by `scripts/check.sh`).

use logstore_sync::OrderedMutex;
use logstore_types::{LogRecord, TableSchema, TenantId, Timestamp};
use logstore_wal::{FlushPolicy, GroupCommitWal, Lsn, RowStore, ShardStore, WalConfig};
use logstore_workload::LogRecordGenerator;
use std::sync::Arc;
use std::time::Instant;

/// Rows per append call (one ingest sub-batch).
const ROWS_PER_BATCH: usize = 16;

/// Producer counts of the sweep.
const PRODUCERS: [usize; 4] = [1, 4, 16, 64];

struct Knobs {
    /// Append calls per producer.
    appends_per_producer: usize,
    out_path: std::path::PathBuf,
    smoke: bool,
}

/// One (mode, producers) cell.
struct Cell {
    producers: usize,
    rows_per_sec: f64,
    p99_ack_ms: f64,
    appends: u64,
    fsyncs: u64,
    wall_ms: f64,
}

impl Cell {
    fn fsyncs_per_batch(&self) -> f64 {
        self.fsyncs as f64 / self.appends as f64
    }
}

fn wal_config() -> WalConfig {
    WalConfig { flush: FlushPolicy::Sync, ..WalConfig::default() }
}

/// Pre-generated per-producer record batches so both modes ingest
/// identical data (generation cost is excluded from the timed region).
/// Encoding is NOT pre-done: where it happens is part of what each mode
/// measures — under the shard lock at the seed, outside every lock on
/// the fast path.
fn workloads(producers: usize, appends: usize) -> Vec<Vec<Vec<LogRecord>>> {
    (0..producers)
        .map(|p| {
            let mut generator = LogRecordGenerator::new(0x1265 + p as u64);
            (0..appends)
                .map(|i| {
                    (0..ROWS_PER_BATCH)
                        .map(|r| {
                            generator.record(
                                TenantId((p % 7) as u64 + 1),
                                Timestamp((i * ROWS_PER_BATCH + r) as i64),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn percentile_ms(mut latencies_ns: Vec<u64>, p: f64) -> f64 {
    latencies_ns.sort_unstable();
    if latencies_ns.is_empty() {
        return 0.0;
    }
    let idx = ((latencies_ns.len() as f64 - 1.0) * p).round() as usize;
    latencies_ns[idx] as f64 / 1e6
}

/// The seed-shaped write path: one lock around the whole append (encode,
/// the WAL fsync and the row-store insert all run under it, serializing
/// every producer — so no two appends ever share a group).
struct BaselineShard {
    wal: GroupCommitWal,
    rows: RowStore,
}

fn run_baseline(dir: &std::path::Path, producers: usize, work: &[Vec<Vec<LogRecord>>]) -> Cell {
    let (wal, replayed) = GroupCommitWal::open(dir, wal_config()).expect("open baseline wal");
    assert!(replayed.is_empty(), "baseline bench dir must start empty");
    let shard = Arc::new(OrderedMutex::new(
        "bench.ingest.baseline",
        BaselineShard { wal, rows: RowStore::new(TableSchema::request_log()) },
    ));
    let start = Instant::now();
    let mut joins = Vec::new();
    for batches in work.iter().take(producers).cloned() {
        let shard = Arc::clone(&shard);
        joins.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(batches.len());
            for batch in batches {
                let op = Instant::now();
                // Seed shape: encode, fsyncing append and row-store
                // insert all serialized under the one shard lock.
                let mut guard = shard.lock();
                let payload = ShardStore::encode_batch_payload(&batch);
                let lsn = guard.wal.append(&payload).expect("baseline append");
                for record in batch {
                    guard.rows.insert(record);
                }
                guard.wal.confirm_applied(lsn);
                drop(guard);
                latencies.push(op.elapsed().as_nanos() as u64);
            }
            latencies
        }));
    }
    let mut latencies = Vec::new();
    for j in joins {
        latencies.extend(j.join().expect("baseline producer"));
    }
    let wall = start.elapsed();
    let appends = (producers * work[0].len()) as u64;
    let guard = shard.lock();
    assert_eq!(guard.rows.row_count() as u64, appends * ROWS_PER_BATCH as u64);
    let stats = guard.wal.stats();
    drop(guard);
    assert_eq!(stats.appends, appends);
    Cell {
        producers,
        rows_per_sec: (appends * ROWS_PER_BATCH as u64) as f64 / wall.as_secs_f64(),
        p99_ack_ms: percentile_ms(latencies, 0.99),
        appends,
        fsyncs: stats.fsyncs,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

/// The group-commit fast path: stage into the shared WAL with no locks
/// held (concurrent producers coalesce into one frame + one fsync), then
/// a short lock only for the row-store apply.
fn run_group(dir: &std::path::Path, producers: usize, work: &[Vec<Vec<LogRecord>>]) -> Cell {
    let (wal, replayed) = GroupCommitWal::open(dir, wal_config()).expect("open group wal");
    assert!(replayed.is_empty(), "group bench dir must start empty");
    let wal = Arc::new(wal);
    let rows =
        Arc::new(OrderedMutex::new("bench.ingest.rows", RowStore::new(TableSchema::request_log())));
    let start = Instant::now();
    let mut joins = Vec::new();
    for batches in work.iter().take(producers).cloned() {
        let wal = Arc::clone(&wal);
        let rows = Arc::clone(&rows);
        joins.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(batches.len());
            for batch in batches {
                let op = Instant::now();
                // Fast-path shape: encode with no locks held, coalesce
                // into a shared group commit, short lock only to apply.
                let payload = ShardStore::encode_batch_payload(&batch);
                let lsn: Lsn = wal.append(&payload).expect("group append");
                {
                    let mut guard = rows.lock();
                    for record in batch {
                        guard.insert(record);
                    }
                }
                wal.confirm_applied(lsn);
                latencies.push(op.elapsed().as_nanos() as u64);
            }
            latencies
        }));
    }
    let mut latencies = Vec::new();
    for j in joins {
        latencies.extend(j.join().expect("group producer"));
    }
    let wall = start.elapsed();
    let appends = (producers * work[0].len()) as u64;
    assert_eq!(rows.lock().row_count() as u64, appends * ROWS_PER_BATCH as u64);
    let stats = wal.stats();
    assert_eq!(stats.appends, appends);
    Cell {
        producers,
        rows_per_sec: (appends * ROWS_PER_BATCH as u64) as f64 / wall.as_secs_f64(),
        p99_ack_ms: percentile_ms(latencies, 0.99),
        appends,
        fsyncs: stats.fsyncs,
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

/// Round-trips a batch payload through the shard framing (tag byte +
/// encoded batch), as the recovery path would.
fn decode_payload(payload: &[u8]) -> Vec<logstore_types::LogRecord> {
    logstore_codec::batch::decode_batch(&payload[1..]).expect("payload roundtrip")
}

/// Reopen the group WAL and verify every appended frame replays — the
/// no-loss check behind the throughput numbers.
fn verify_replay(dir: &std::path::Path, expected_appends: u64) {
    let (_, replayed) = GroupCommitWal::open(dir, wal_config()).expect("reopen group wal");
    assert_eq!(
        replayed.len() as u64,
        expected_appends,
        "replay must return every appended batch exactly once"
    );
    let rows: u64 = replayed.iter().map(|(_, payload)| decode_payload(payload).len() as u64).sum();
    assert_eq!(rows, expected_appends * ROWS_PER_BATCH as u64);
}

fn json_cells(cells: &[Cell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"producers\": {}, \"rows_per_sec\": {:.0}, \"p99_ack_ms\": {:.3}, \
                 \"appends\": {}, \"fsyncs\": {}, \"fsyncs_per_batch\": {:.3}, \
                 \"wall_ms\": {:.1}}}",
                c.producers,
                c.rows_per_sec,
                c.p99_ack_ms,
                c.appends,
                c.fsyncs,
                c.fsyncs_per_batch(),
                c.wall_ms
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

fn main() {
    // The baseline appends under a held shard lock on purpose; debug
    // builds' lock analysis rejects exactly that, so only release runs.
    if cfg!(debug_assertions) {
        eprintln!("bench_ingest runs in release builds only (cargo run --release ...)");
        std::process::exit(2);
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let knobs = if smoke {
        Knobs {
            appends_per_producer: 8,
            out_path: std::env::temp_dir()
                .join(format!("BENCH_ingest_smoke_{}.json", std::process::id())),
            smoke: true,
        }
    } else {
        Knobs { appends_per_producer: 96, out_path: "BENCH_ingest.json".into(), smoke: false }
    };
    let scratch =
        std::env::temp_dir().join(format!("logstore-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut baseline = Vec::new();
    let mut group = Vec::new();
    let producer_counts: &[usize] = if knobs.smoke { &[1, 4, 16] } else { &PRODUCERS };
    for &producers in producer_counts {
        let work = workloads(producers, knobs.appends_per_producer);
        let base_dir = scratch.join(format!("baseline-{producers}"));
        let group_dir = scratch.join(format!("group-{producers}"));
        std::fs::create_dir_all(&base_dir).expect("mkdir");
        std::fs::create_dir_all(&group_dir).expect("mkdir");
        let b = run_baseline(&base_dir, producers, &work);
        let g = run_group(&group_dir, producers, &work);
        verify_replay(&group_dir, g.appends);
        println!(
            "producers={producers:>2}  baseline {:>9.0} rows/s ({:.2} fsyncs/batch, p99 {:.2}ms)  \
             group {:>9.0} rows/s ({:.2} fsyncs/batch, p99 {:.2}ms)  speedup {:.2}x",
            b.rows_per_sec,
            b.fsyncs_per_batch(),
            b.p99_ack_ms,
            g.rows_per_sec,
            g.fsyncs_per_batch(),
            g.p99_ack_ms,
            g.rows_per_sec / b.rows_per_sec
        );
        baseline.push(b);
        group.push(g);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // Invariants the acceptance criteria (and the smoke gate) rest on:
    // group commit must coalesce fsyncs below one per batch under
    // concurrency, and the 16-producer cell must show real speedup.
    let idx16 = producer_counts.iter().position(|&p| p == 16).expect("16-producer cell");
    let speedup16 = group[idx16].rows_per_sec / baseline[idx16].rows_per_sec;
    let coalesced = group[idx16].fsyncs_per_batch();
    assert!(
        coalesced < 1.0,
        "group commit must coalesce fsyncs at 16 producers (got {coalesced:.3}/batch)"
    );
    if knobs.smoke {
        // The shard lock must keep serializing the baseline's producers:
        // every batch is its own group with its own fsync.
        for b in &baseline {
            assert_eq!(
                b.fsyncs,
                b.appends,
                "baseline at {} producers: {:.3} fsyncs/batch, want 1.000",
                b.producers,
                b.fsyncs_per_batch()
            );
        }
    } else {
        assert!(speedup16 >= 3.0, "expected >=3x at 16 producers, got {speedup16:.2}x");
    }

    let json = format!(
        "{{\n  \"bench\": \"ingest_group_commit\",\n  \"rows_per_batch\": {},\n  \
         \"appends_per_producer\": {},\n  \"flush_policy\": \"sync\",\n  \
         \"speedup_at_16_producers\": {:.2},\n  \"baseline\": {},\n  \"group_commit\": {}\n}}\n",
        ROWS_PER_BATCH,
        knobs.appends_per_producer,
        speedup16,
        json_cells(&baseline),
        json_cells(&group)
    );
    std::fs::write(&knobs.out_path, json).expect("write bench json");
    println!("wrote {}", knobs.out_path.display());
    if knobs.smoke {
        let _ = std::fs::remove_file(&knobs.out_path);
    }
}
