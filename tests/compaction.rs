//! Compaction, retention and GC end to end: the expire→delete ordering
//! fix (map swap before any delete, tombstones retried, one tenant's OSS
//! error isolated from the rest), background compaction of small
//! LogBlocks, and the query-vs-expire race surfacing as a clean retry
//! instead of a raw OSS `NotFound`.

use logstore::core::{ClusterConfig, CrashHooks, LogStore, OpenParts, QueryOptions, QueryPoint};
use logstore::oss::ObjectStore;
use logstore::types::{LogRecord, TenantId, Timestamp, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

fn rec(t: u64, ts: i64, msg: &str) -> LogRecord {
    LogRecord::new(
        TenantId(t),
        Timestamp(ts),
        vec![
            Value::from("10.0.0.1"),
            Value::from("/api"),
            Value::I64(ts % 500),
            Value::Bool(ts % 7 == 0),
            Value::from(msg),
        ],
    )
}

fn count(s: &LogStore, tenant: u64) -> u64 {
    let sql = format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = {tenant}");
    s.query(&sql).expect("count query").rows[0][0].as_u64().unwrap()
}

/// Many small flushes → many small LogBlocks; one compaction pass must
/// collapse them, halve (at least) the per-query OSS GET count, and leave
/// every query result byte-identical.
#[test]
fn compaction_reduces_blocks_preserving_results() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    let mut ts = 0i64;
    for _cycle in 0..8 {
        for _ in 0..25 {
            ts += 1;
            s.ingest(vec![rec(1, ts, if ts % 3 == 0 { "timeout upstream" } else { "ok" })])
                .unwrap();
        }
        s.flush().unwrap();
    }
    let blocks_before = s.block_count();
    assert!(blocks_before >= 8, "each forced flush must cut a block, got {blocks_before}");

    let queries = [
        "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1".to_string(),
        "SELECT log FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC".to_string(),
        "SELECT latency FROM request_log WHERE tenant_id = 1 AND log CONTAINS 'timeout'"
            .to_string(),
        format!("SELECT COUNT(*) FROM request_log WHERE tenant_id = 1 AND ts >= {}", ts / 2),
    ];
    let before: Vec<_> = queries.iter().map(|q| s.query(q).unwrap()).collect();

    let report = s.compact().unwrap();
    assert!(report.runs_committed >= 1, "{report:?}");
    assert_eq!(report.rows_rewritten, 200);
    let gc = s.gc();
    assert_eq!(gc.deleted as usize, report.blocks_merged as usize, "{gc:?}");
    assert_eq!(gc.retained, 0);

    let blocks_after = s.block_count();
    assert!(
        blocks_after * 2 <= blocks_before,
        "compaction must at least halve the block count: {blocks_before} -> {blocks_after}"
    );
    // The deleted sources must be gone from OSS and the surviving object
    // set must exactly mirror the map.
    let raw = s.shared().fault_layer().inner();
    let on_oss = raw.list("tenants/").unwrap().len();
    assert_eq!(on_oss, blocks_after, "OSS must hold exactly the mapped blocks");
    assert!(s.shared().metadata.tombstones().is_empty());

    for (q, reference) in queries.iter().zip(before) {
        // Scan the merged blocks cold: the block cache still holds the
        // deleted sources' neighborhoods unless eviction did its job.
        let after = s.query(q).unwrap();
        assert_eq!(after.rows, reference.rows, "result changed across compaction: {q}");
    }
}

/// The historical bug: a failed OSS delete aborted expiration *after* the
/// map was mutated, leaking the object forever. Now the map swap commits
/// first, the failed delete parks the path on the tombstone list, and the
/// next pass retries it.
#[test]
fn expired_block_survives_failed_delete_and_is_retried() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    s.set_retention(TenantId(1), Some(1_000));
    for i in 0..40 {
        s.ingest(vec![rec(1, i, "short-lived")]).unwrap();
    }
    s.flush().unwrap();
    assert_eq!(s.block_count(), 1);
    let path = s.shared().metadata.all_blocks(TenantId(1))[0].path.clone();

    // Every OSS op fails: the expire pass must still unmap the block.
    s.shared().fault_layer().fail_next(u64::MAX);
    let deleted = s.expire(Timestamp(100_000)).unwrap();
    assert_eq!(deleted, 0, "the delete failed; nothing may be reported deleted");
    assert!(s.shared().metadata.all_blocks(TenantId(1)).is_empty(), "map swap must commit");
    assert_eq!(count(&s, 1), 0, "expired rows must be invisible immediately");
    assert_eq!(
        s.shared().metadata.tombstones(),
        vec![path.clone()],
        "the undeleted object must be tombstoned, not forgotten"
    );
    let raw = s.shared().fault_layer().inner();
    assert!(raw.head(&path).is_ok(), "the object is still on OSS (delete failed)");

    // A GC pass under the same faults keeps the tombstone and reports why.
    let failed = s.gc();
    assert_eq!((failed.deleted, failed.retained), (0, 1));
    let (failed_path, error) = failed.last_failed_delete.expect("the failed delete is reported");
    assert_eq!(failed_path, path);
    assert!(error.contains("injected oss fault"), "the delete's cause must survive: {error}");

    // Next pass, faults cleared: the tombstone drains.
    s.shared().fault_layer().clear_faults();
    let gc = s.gc();
    assert_eq!(gc.deleted, 1);
    assert!(raw.head(&path).is_err(), "retried delete must remove the object");
    assert!(s.shared().metadata.tombstones().is_empty());
}

/// One tenant's OSS failure must not abort the other tenants' expiration:
/// the pass visits everyone, and only the failed delete's path stays
/// tombstoned.
#[test]
fn one_tenants_delete_failure_does_not_abort_others() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    for t in [1u64, 2] {
        s.set_retention(TenantId(t), Some(1_000));
        for i in 0..20 {
            s.ingest(vec![rec(t, i, "doomed")]).unwrap();
        }
    }
    s.flush().unwrap();
    assert_eq!(s.block_count(), 2);

    // Exactly one delete fails (tenant 1's block sorts first); tenant 2's
    // must proceed.
    s.shared().fault_layer().fail_next(1);
    let deleted = s.expire(Timestamp(100_000)).unwrap();
    assert_eq!(deleted, 1, "the other tenant's delete must not be aborted");
    assert!(s.shared().metadata.all_blocks(TenantId(1)).is_empty());
    assert!(s.shared().metadata.all_blocks(TenantId(2)).is_empty());
    assert_eq!(s.shared().metadata.tombstones().len(), 1);

    let gc = s.gc();
    assert_eq!(gc.deleted, 1, "the failed delete is retried next pass");
    assert_eq!(s.shared().fault_layer().inner().list("tenants/").unwrap().len(), 0);
}

/// Queries racing expiration and compaction: every query either succeeds
/// with a consistent result or reports a typed retryable error — never a
/// raw OSS `NotFound`, never a partial result.
#[test]
fn query_racing_expire_and_compact_never_sees_not_found() {
    let mut config = ClusterConfig::for_testing();
    config.rowstore_flush_bytes = 16 << 10;
    let s = Arc::new(LogStore::open(config).unwrap());
    s.set_retention(TenantId(1), Some(500));

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut queries = 0u64;
            let mut retried = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let sql = "SELECT COUNT(*) FROM request_log WHERE tenant_id = 1";
                match s.query_with_options(sql, &QueryOptions::default()) {
                    Ok(exec) => retried += exec.stale_retries,
                    Err(e) => {
                        assert!(
                            e.is_retryable(),
                            "query must fail retryably or not at all, got: {e}"
                        );
                        retried += 1;
                    }
                }
                queries += 1;
            }
            (queries, retried)
        }));
    }

    // Writer/compactor/expirer loop: keep creating small blocks, merging
    // them, and expiring old ones while the readers hammer the map.
    let mut ts = 0i64;
    for cycle in 0..60 {
        for _ in 0..15 {
            ts += 10;
            s.ingest(vec![rec(1, ts, "churn")]).unwrap();
        }
        s.flush().unwrap();
        if cycle % 3 == 0 {
            s.compact().unwrap();
            s.gc();
        }
        if cycle % 4 == 0 {
            // Retention 500ms behind the newest row: steadily expire.
            s.expire(Timestamp(ts)).unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_queries = 0;
    for reader in readers {
        let (queries, _retried) = reader.join().expect("reader must not panic");
        total_queries += queries;
    }
    assert!(total_queries > 0, "the readers never ran");
}

/// Runs `action` against the store the first time an armed query attempt
/// reaches `point` — a map change landing in an exact window of the
/// query, with no thread race involved.
struct ChangeMapAt {
    point: QueryPoint,
    store: OnceLock<Weak<LogStore>>,
    armed: AtomicBool,
    action: fn(&LogStore),
}

impl CrashHooks for ChangeMapAt {
    fn query_reached(&self, point: QueryPoint) {
        if point == self.point && self.armed.swap(false, Ordering::SeqCst) {
            let store = self.store.get().and_then(Weak::upgrade).expect("store is alive");
            (self.action)(&store);
        }
    }
}

/// A store with eight small tenant-1 LogBlocks (compactable, and the
/// first four expirable at retention 1 000 ms by `now` = 5 500) whose
/// query attempts call `action` once at `point` when armed.
fn store_changing_map_at(
    point: QueryPoint,
    action: fn(&LogStore),
) -> (Arc<LogStore>, Arc<ChangeMapAt>) {
    let hooks = Arc::new(ChangeMapAt {
        point,
        store: OnceLock::new(),
        armed: AtomicBool::new(false),
        action,
    });
    let parts =
        OpenParts { hooks: Some(hooks.clone() as Arc<dyn CrashHooks>), ..OpenParts::default() };
    let s = Arc::new(LogStore::open_with(ClusterConfig::for_testing(), parts).unwrap());
    hooks.store.set(Arc::downgrade(&s)).expect("set once");
    s.set_retention(TenantId(1), Some(1_000));
    for block in 0..8i64 {
        let base = if block < 4 { block * 25 } else { 5_000 + block * 25 };
        for i in 0..25 {
            s.ingest(vec![rec(1, base + i, if i % 3 == 0 { "timeout upstream" } else { "ok" })])
                .unwrap();
        }
        s.flush().unwrap();
    }
    assert_eq!(s.block_count(), 8);
    (s, hooks)
}

/// Deterministic form of the race above: a planned LogBlock is deleted —
/// expired or compacted away, then garbage-collected — after the query
/// snapshotted the map but before its I/O stage opens the block, or after
/// the I/O stage but before its CPU stage decodes it. Each time the query
/// must come back through one stale retry with the rows of the new map,
/// never as a raw `NotFound`.
#[test]
fn block_deleted_between_snapshot_and_decode_replans() {
    let sql = "SELECT log FROM request_log WHERE tenant_id = 1 ORDER BY ts ASC";
    let expire: fn(&LogStore) = |s| assert_eq!(s.expire(Timestamp(5_500)).unwrap(), 4);
    let compact: fn(&LogStore) = |s| {
        assert!(s.compact().unwrap().runs_committed >= 1);
        assert!(s.gc().deleted >= 2);
    };
    let direct = QueryOptions { use_cache: false, use_prefetch: false, ..QueryOptions::default() };
    let cases = [
        ("expire before open", QueryPoint::MapSnapshotted, expire, QueryOptions::default()),
        ("compact before open", QueryPoint::MapSnapshotted, compact, QueryOptions::default()),
        ("compact before decode", QueryPoint::WindowStaged, compact, direct.clone()),
        ("expire before decode", QueryPoint::WindowStaged, expire, direct),
    ];
    for (case, point, action, opts) in cases {
        for parallelism in [1usize, 4] {
            let (s, hooks) = store_changing_map_at(point, action);
            let opts = opts.clone().with_parallelism(parallelism);
            hooks.armed.store(true, Ordering::SeqCst);
            let raced = s
                .query_with_options(sql, &opts)
                .unwrap_or_else(|e| panic!("{case} at parallelism {parallelism}: {e}"));
            assert!(!hooks.armed.load(Ordering::SeqCst), "{case}: the hook never fired");
            assert_eq!(raced.stale_retries, 1, "{case} at parallelism {parallelism}");
            // The replanned attempt read the new map: the same rows as a
            // query that starts after the change.
            let after = s.query_with_options(sql, &opts).unwrap();
            assert_eq!(after.stale_retries, 0);
            assert_eq!(raced.result, after.result, "{case} at parallelism {parallelism}");
            let expected = if case.starts_with("expire") { 100 } else { 200 };
            assert_eq!(raced.result.rows.len(), expected, "{case}");
        }
    }
}

/// Retention semantics end to end: expired rows disappear from queries,
/// unexpired rows survive, accounting never underflows, and the final
/// OSS state mirrors the map.
#[test]
fn retention_expires_exactly_the_old_blocks() {
    let s = LogStore::open(ClusterConfig::for_testing()).unwrap();
    s.set_retention(TenantId(1), Some(1_000));
    // Old block: ts 0..50. New block: ts 5_000..5_050.
    for i in 0..50 {
        s.ingest(vec![rec(1, i, "old")]).unwrap();
    }
    s.flush().unwrap();
    for i in 0..50 {
        s.ingest(vec![rec(1, 5_000 + i, "new")]).unwrap();
    }
    s.flush().unwrap();
    assert_eq!(count(&s, 1), 100);

    // now = 5_500: the old block (max_ts 49 < 4_500) expires, the new one
    // (max_ts 5_049 > 4_500) must survive.
    let deleted = s.expire(Timestamp(5_500)).unwrap();
    assert_eq!(deleted, 1);
    assert_eq!(count(&s, 1), 50, "only unexpired rows survive");
    let usage = s.tenant_usage(TenantId(1));
    assert_eq!(usage.archived_rows, 50, "expire must debit the archived-row counter");
    assert_eq!(s.shared().fault_layer().inner().list("tenants/").unwrap().len(), 1);
}
