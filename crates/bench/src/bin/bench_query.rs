//! Aggregation-pushdown benchmark: the §6.3 aggregation templates run
//! against an aged Zipfian multi-tenant dataset under the four
//! {pushdown, data skipping} configurations.
//!
//! Measures, summed over the query set: partial-state bytes moved from
//! sources to the executor, rows/bytes decoded into typed batches,
//! batches run through vectorized predicate evaluation, LogBlocks
//! visited, and modelled OSS time (an `oss_like` latency model at
//! `time_scale` 0: every request's cost is modelled, none is slept). Every configuration must return
//! byte-identical results, and pushdown must move at least 10× fewer
//! partial bytes than the row-transport plan — the acceptance bar.
//! Emits `BENCH_query.json`.
//!
//! `--smoke` runs a small matrix into a temp file and asserts the same
//! invariants (used by `scripts/check.sh`).

use logstore_bench::dataset::{build_engine, DatasetParams};
use logstore_core::{LogStore, QueryOptions};
use logstore_oss::LatencyModel;
use logstore_types::TenantId;
use logstore_workload::queries::tenant_queries;
use rand::SeedableRng;

struct Knobs {
    params: DatasetParams,
    /// Queries are generated for tenants 1..=query_tenants (the Zipfian
    /// head, where the rows are).
    query_tenants: u64,
    out_path: std::path::PathBuf,
    smoke: bool,
}

/// Counter sums for one {pushdown, skipping} configuration.
#[derive(Default)]
struct Config {
    use_pushdown: bool,
    use_skipping: bool,
    partial_bytes: u64,
    rows_decoded: u64,
    bytes_decoded: u64,
    batches_evaluated: u64,
    blocks_visited: u64,
    modelled_oss_ms: f64,
    results: Vec<Vec<Vec<logstore_types::Value>>>,
}

fn run_config(s: &LogStore, workload: &[String], use_pushdown: bool, use_skipping: bool) -> Config {
    s.clear_cache();
    let opts = QueryOptions { use_pushdown, use_skipping, ..QueryOptions::default() };
    let mut c = Config { use_pushdown, use_skipping, ..Config::default() };
    for sql in workload {
        let exec = s.query_with_options(sql, &opts).expect("bench query");
        c.partial_bytes += exec.counters.partial_bytes;
        c.rows_decoded += exec.counters.decode.rows_decoded;
        c.bytes_decoded += exec.counters.decode.bytes_decoded;
        c.batches_evaluated += exec.counters.decode.batches_evaluated;
        c.blocks_visited += exec.stats.blocks_visited;
        c.modelled_oss_ms += exec.modelled_oss.as_secs_f64() * 1e3;
        c.results.push(exec.result.rows);
    }
    c
}

fn config_json(c: &Config) -> String {
    format!(
        "    {{\"pushdown\": {}, \"skipping\": {}, \"partial_bytes\": {}, \
         \"rows_decoded\": {}, \"bytes_decoded\": {}, \"batches_evaluated\": {}, \
         \"blocks_visited\": {}, \"modelled_oss_ms\": {:.3}}}",
        c.use_pushdown,
        c.use_skipping,
        c.partial_bytes,
        c.rows_decoded,
        c.bytes_decoded,
        c.batches_evaluated,
        c.blocks_visited,
        c.modelled_oss_ms
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let knobs = if smoke {
        Knobs {
            params: DatasetParams { tenants: 12, theta: 0.99, rows: 30_000, seed: 61 },
            query_tenants: 4,
            out_path: std::env::temp_dir()
                .join(format!("BENCH_query_smoke_{}.json", std::process::id())),
            smoke: true,
        }
    } else {
        Knobs {
            params: DatasetParams { tenants: 100, theta: 0.99, rows: 120_000, seed: 61 },
            query_tenants: 16,
            out_path: "BENCH_query.json".into(),
            smoke: false,
        }
    };

    println!("loading {} rows across {} tenants ...", knobs.params.rows, knobs.params.tenants);
    let setup = build_engine(LatencyModel::oss_like(), &knobs.params);

    // The aggregation slice of the §6.3 template mix: grouped top-K,
    // whole-history COUNT, the wide ungrouped aggregate, and the
    // time-bucketed histogram (templates 5-8).
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut workload = Vec::new();
    for tenant in 1..=knobs.query_tenants {
        let qs = tenant_queries(TenantId(tenant), setup.start, setup.end, &mut rng);
        workload.extend(qs.into_iter().skip(4));
    }
    println!("{} aggregation queries in the workload", workload.len());

    let matrix = [(true, true), (true, false), (false, true), (false, false)];
    let configs: Vec<Config> = matrix
        .iter()
        .map(|&(pushdown, skipping)| run_config(&setup.store, &workload, pushdown, skipping))
        .collect();

    // Byte-identical results across the whole matrix.
    for c in &configs[1..] {
        assert_eq!(
            c.results, configs[0].results,
            "results diverged at pushdown={} skipping={}",
            c.use_pushdown, c.use_skipping
        );
    }

    // Pushdown vs row transport, both with skipping on (the production
    // pairing): ≥10× fewer partial-state bytes moved.
    let on = &configs[0];
    let off = &configs[2];
    let bytes_ratio = off.partial_bytes as f64 / on.partial_bytes.max(1) as f64;
    println!(
        "partial bytes {} -> {} ({bytes_ratio:.1}x) | rows decoded {} -> {} | \
         batches evaluated {} vs {}",
        off.partial_bytes,
        on.partial_bytes,
        off.rows_decoded,
        on.rows_decoded,
        off.batches_evaluated,
        on.batches_evaluated
    );
    assert!(
        bytes_ratio >= 10.0,
        "pushdown must move >=10x fewer partial bytes, got {bytes_ratio:.2}x"
    );
    // Skipping must prune decode work with pushdown held fixed.
    let no_skip = &configs[1];
    assert!(
        on.bytes_decoded <= no_skip.bytes_decoded,
        "skipping must not increase decode volume: {} vs {}",
        on.bytes_decoded,
        no_skip.bytes_decoded
    );

    let mut json = String::from(
        "{\n  \"bench\": \"query_pushdown\",\n  \"oss_model\": \"oss_like, time_scale 0\",\n",
    );
    json.push_str(&format!(
        "  \"tenants\": {},\n  \"rows\": {},\n  \"queries\": {},\n  \
         \"partial_bytes_reduction\": {:.2},\n  \"configs\": [\n",
        knobs.params.tenants,
        knobs.params.rows,
        workload.len(),
        bytes_ratio
    ));
    let lines: Vec<String> = configs.iter().map(config_json).collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&knobs.out_path, json).expect("write bench json");
    println!("wrote {}", knobs.out_path.display());
    if knobs.smoke {
        let _ = std::fs::remove_file(&knobs.out_path);
    }
}
