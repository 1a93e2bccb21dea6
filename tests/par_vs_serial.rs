//! Differential serial-vs-parallel harness: every query must produce
//! the identical result (same tuples, same order, same errors) whether
//! the engine runs with 1 worker (the legacy serial path) or N workers
//! (page-/chunk-partitioned intra-operator parallelism).
//!
//! The parallel executor is designed to be extensionally equal to the
//! serial engine by construction — same operator implementations, page-
//! ordered reduction — and these tests check that equality end to end
//! through the full parse/check/optimize/execute stack.

use proptest::prelude::*;
use sos_exec::Value;
use sos_system::Database;
use std::sync::Arc;

/// Worker counts exercised against the serial baseline.
const WORKERS: &[usize] = &[2, 8];

/// ~35 tuples per page; 3000 tuples spread over ~85 heap pages.
fn heap_db(pool: Arc<sos_storage::BufferPool>, n: usize) -> Database {
    let mut db = Database::builder().pool(pool).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        type mate = tuple(<(j, int), (tag, string)>);
        create heap_rep : tidrel(item);
        create mate_rep : tidrel(mate);
        create items : rel(item);
        create mates : rel(mate);
    "#,
    )
    .unwrap();
    let items: Vec<Value> = (0..n)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("{:0180}", i)),
            ])
        })
        .collect();
    db.bulk_insert("heap_rep", items).unwrap();
    // Model-level relations stay small: bulk model inserts are O(n^2),
    // and the chunked in-memory paths engage from 64 tuples anyway.
    let small: Vec<Value> = (0..300)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("i{i}")),
            ])
        })
        .collect();
    db.bulk_insert("items", small).unwrap();
    let mates: Vec<Value> = (0..90)
        .map(|i| {
            Value::tuple(vec![
                Value::Int((i * 3) as i64),
                Value::Str(format!("m{i}")),
            ])
        })
        .collect();
    db.bulk_insert("mate_rep", mates.clone()).unwrap();
    db.bulk_insert("mates", mates).unwrap();
    db
}

fn run(db: &mut Database, q: &str) -> Result<Value, String> {
    db.query(q).map_err(|e| e.to_string())
}

/// Run every query serially, then under each parallel worker count, and
/// require identical outcomes (values *and* errors).
fn assert_differential(db: &mut Database, queries: &[&str]) {
    db.set_parallelism(1);
    let serial: Vec<Result<Value, String>> = queries.iter().map(|q| run(db, q)).collect();
    for &w in WORKERS {
        db.set_parallelism(w);
        for (q, expected) in queries.iter().zip(&serial) {
            let got = run(db, q);
            assert_eq!(&got, expected, "query `{q}` diverged at workers={w}");
        }
    }
    db.set_parallelism(1);
}

#[test]
fn scans_filters_and_counts_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    assert_differential(
        &mut db,
        &[
            "heap_rep feed count",
            "heap_rep feed consume",
            "heap_rep feed filter[k mod 7 = 0] count",
            "heap_rep feed filter[grp = 3] consume",
            "heap_rep feed filter[k < 0] count",
            "heap_rep feed filter[pad != \"x\"] filter[k mod 2 = 1] count",
        ],
    );
}

#[test]
fn projections_and_replacements_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    assert_differential(
        &mut db,
        &[
            "heap_rep feed project[(k2, fun (t: item) t k * 2)] consume",
            "heap_rep feed project[(k2, fun (t: item) t k * 2), (g, fun (t: item) t grp)] count",
            "heap_rep feed replace[k, fun (t: item) t k + 1000000] consume",
            "heap_rep feed filter[k mod 3 = 0] replace[grp, fun (t: item) t grp * t grp] consume",
        ],
    );
}

#[test]
fn aggregates_and_blocking_operators_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    assert_differential(
        &mut db,
        &[
            "heap_rep feed sum[k]",
            "heap_rep feed min[k]",
            "heap_rep feed max[k]",
            "heap_rep feed avg[k]",
            "heap_rep feed filter[grp = 7] sum[k]",
            "heap_rep feed collect feed count",
            "heap_rep feed sortby[grp] head[25] consume",
            "heap_rep feed project[(g, fun (t: item) t grp)] sortby[g] rdup consume",
            "heap_rep feed head[7] consume",
        ],
    );
}

#[test]
fn model_select_and_joins_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    assert_differential(
        &mut db,
        &[
            "items select[k mod 2 = 0] count",
            "items select[grp > 5]",
            "items mates join[k = j] count",
            "items mates join[k < j] count",
            "heap_rep feed mate_rep feed hashjoin[k, j] consume",
            "heap_rep feed mate_rep feed hashjoin[k, j] count",
        ],
    );
}

#[test]
fn runtime_errors_match_serial() {
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    // k = 0 divides by zero; the parallel path must surface the same
    // error the serial drain does.
    assert_differential(
        &mut db,
        &[
            "heap_rep feed filter[100 div k = 1] count",
            "heap_rep feed replace[k, fun (t: item) t k div t grp] consume",
        ],
    );
}

#[test]
fn parallel_paths_run_and_release_every_pin() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = heap_db(pool.clone(), 3000);
    db.set_parallelism(4);
    db.reset_metrics();

    db.query("heap_rep feed consume").unwrap();
    let feed = db.op_stats("feed").expect("feed ran");
    assert!(feed.parallel_invocations >= 1, "feed stats: {feed:?}");
    assert_eq!(feed.max_workers, 4);
    assert_eq!(feed.tuples_out, 3000);
    assert!(feed.pages_scanned >= 2, "feed stats: {feed:?}");

    db.query("heap_rep feed filter[grp = 3] count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert!(count.parallel_invocations >= 1, "count stats: {count:?}");
    assert_eq!(count.tuples_in, 3000);

    db.query("items select[k mod 2 = 0] count").unwrap();
    let select = db.op_stats("select").expect("select ran");
    assert!(select.parallel_invocations >= 1, "select stats: {select:?}");

    // The buffer pool must come out quiescent and consistent.
    assert_eq!(pool.pinned_frames(), 0, "scans leaked page pins");
    let s = pool.stats();
    assert_eq!(s.logical_reads, s.cache_hits + s.physical_reads);
}

#[test]
fn impure_predicates_fall_back_to_serial() {
    // A predicate referencing a database object is not context-free, so
    // the parallel planner must refuse it — and the query still works.
    let mut db = heap_db(sos_storage::mem_pool(4096), 3000);
    db.run("create threshold : int; update threshold := 1500;")
        .unwrap();
    db.set_parallelism(1);
    let serial = run(&mut db, "heap_rep feed filter[k < threshold] count");
    db.set_parallelism(4);
    db.reset_metrics();
    let parallel = run(&mut db, "heap_rep feed filter[k < threshold] count");
    assert_eq!(serial, parallel);
    assert_eq!(
        db.op_stats("feed").map_or(0, |s| s.parallel_invocations),
        0,
        "an object-referencing predicate must stay on the serial path"
    );
}

#[test]
fn uncompiled_pipelines_run_serially() {
    // Only compiled programs run on parallel workers: with the
    // expression compiler off, a filter-count stays serial even with
    // four workers, and still agrees with the one-worker result.
    let pool = sos_storage::mem_pool(4096);
    let mut db = Database::builder()
        .pool(pool.clone())
        .compile_exprs(false)
        .workers(4)
        .build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        create heap_rep : tidrel(item);
    "#,
    )
    .unwrap();
    let items: Vec<Value> = (0..3000)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("{:0180}", i)),
            ])
        })
        .collect();
    db.bulk_insert("heap_rep", items).unwrap();
    let query = "heap_rep feed filter[k mod 7 = 0] count";
    db.reset_metrics();
    let parallel = run(&mut db, query);
    let count = db.op_stats("count").expect("count ran");
    assert_eq!(count.parallel_invocations, 0, "count stats: {count:?}");
    db.set_parallelism(1);
    assert_eq!(parallel, run(&mut db, query));
    assert_eq!(parallel, Ok(Value::Int(429)));
    assert_eq!(pool.pinned_frames(), 0, "serial scan leaked page pins");
}

#[test]
fn parallel_speedup_on_multicore() {
    // The acceptance check for the parallel scan: >1.5x on a machine
    // with enough cores. On small machines it degenerates to a smoke
    // test (the differential suites above still verify correctness).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut db = heap_db(sos_storage::mem_pool(8192), 100_000);
    let time = |db: &mut Database, w: usize| {
        db.set_parallelism(w);
        let start = std::time::Instant::now();
        for _ in 0..3 {
            assert_eq!(
                db.query("heap_rep feed filter[k mod 7 = 0] count").unwrap(),
                Value::Int(14286)
            );
        }
        start.elapsed()
    };
    let serial = time(&mut db, 1);
    let parallel = time(&mut db, cores.min(8));
    if cores >= 4 {
        assert!(
            serial.as_secs_f64() > 1.5 * parallel.as_secs_f64(),
            "expected >1.5x speedup on {cores} cores: serial {serial:?} vs parallel {parallel:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary data, arbitrary filter modulus: 4 workers agree with 1
    /// worker on filtered counts, full drains, replacements, and sums.
    #[test]
    fn random_data_parallel_equals_serial(
        keys in prop::collection::vec(-1000i64..1000, 0..150),
        m in 1i64..20,
    ) {
        let mut db = Database::builder().build();
        db.run(
            r#"
            type itm = tuple(<(k, int), (pad, string)>);
            create h : tidrel(itm);
        "#,
        )
        .unwrap();
        let tuples: Vec<Value> = keys
            .iter()
            .map(|k| Value::tuple(vec![Value::Int(*k), Value::Str(format!("{k:0150}"))]))
            .collect();
        db.bulk_insert("h", tuples).unwrap();
        let queries = [
            format!("h feed filter[k mod {m} = 0] count"),
            "h feed consume".to_string(),
            format!("h feed replace[k, fun (t: itm) t k mod {m}] consume"),
            "h feed sum[k]".to_string(),
        ];
        db.set_parallelism(1);
        let serial: Vec<Result<Value, String>> =
            queries.iter().map(|q| run(&mut db, q)).collect();
        db.set_parallelism(4);
        for (q, expected) in queries.iter().zip(&serial) {
            let got = run(&mut db, q);
            prop_assert!(&got == expected, "query `{}` diverged: {:?} vs {:?}", q, got, expected);
        }
    }
}
