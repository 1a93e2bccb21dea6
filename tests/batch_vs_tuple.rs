//! Differential batch-vs-tuple harness: every query must produce the
//! identical result (same tuples, same order, same errors) whether the
//! cursor pipeline is drained one tuple at a time (batch width 1 — the
//! exact legacy path), in vectorized batches, or in batches with the
//! parallel operators engaged on top.
//!
//! Batch widths 1, 7 and 1024 are exercised deliberately: 1 is the
//! legacy A/B switch, 7 never divides a page's tuple count (so every
//! refill spills a remainder into the cursor buffer — the boundary
//! bugs), and 1024 is the production default.

use sos_exec::Value;
use sos_system::Database;

/// Batch widths exercised against the tuple-at-a-time baseline.
const BATCHES: &[usize] = &[1, 7, 1024];
/// Worker counts layered on top of each batch width.
const WORKERS: &[usize] = &[1, 4];

/// ~35 tuples per page; heap + clustering B-tree + small model relation.
fn rep_db(n: usize) -> Database {
    let mut db = Database::builder().build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        create heap_rep : tidrel(item);
        create items_rep : btree(item, k, int);
        create items : rel(item);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (0..n)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("{:0180}", i)),
            ])
        })
        .collect();
    db.bulk_insert("heap_rep", tuples.clone()).unwrap();
    db.bulk_insert("items_rep", tuples).unwrap();
    let small: Vec<Value> = (0..200)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("i{i}")),
            ])
        })
        .collect();
    db.bulk_insert("items", small).unwrap();
    db
}

fn run(db: &mut Database, q: &str) -> Result<Value, String> {
    db.query(q).map_err(|e| e.to_string())
}

/// Run every query tuple-at-a-time serially, then under each batch
/// width and worker count, and require identical outcomes (values *and*
/// errors).
fn assert_differential(db: &mut Database, queries: &[&str]) {
    db.set_batch_size(1);
    db.set_parallelism(1);
    let baseline: Vec<Result<Value, String>> = queries.iter().map(|q| run(db, q)).collect();
    for &b in BATCHES {
        for &w in WORKERS {
            db.set_batch_size(b);
            db.set_parallelism(w);
            for (q, expected) in queries.iter().zip(&baseline) {
                let got = run(db, q);
                assert_eq!(
                    &got, expected,
                    "query `{q}` diverged at batch={b} workers={w}"
                );
            }
        }
    }
    db.set_batch_size(1);
    db.set_parallelism(1);
}

#[test]
fn scans_filters_and_counts_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
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
fn btree_ranges_match_tuple_at_a_time() {
    // E5's plan pair: range query vs filtered full scan over the
    // clustering B-tree, at several selectivities.
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            "items_rep feed count",
            "items_rep range[100, 250] count",
            "items_rep range[100, 250] consume",
            "items_rep feed filter[k <= 250] filter[k >= 100] count",
            "items_rep range[2995, 9999] consume",
            "items_rep range[9999, 10000] count",
        ],
    );
}

#[test]
fn projections_replacements_and_heads_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            "heap_rep feed project[(k2, fun (t: item) t k * 2)] consume",
            "heap_rep feed project[(k2, fun (t: item) t k * 2), (g, fun (t: item) t grp)] count",
            "heap_rep feed replace[k, fun (t: item) t k + 1000000] consume",
            "heap_rep feed filter[k mod 3 = 0] replace[grp, fun (t: item) t grp * t grp] consume",
            // head boundaries around the batch widths in play.
            "heap_rep feed head[1] consume",
            "heap_rep feed head[7] consume",
            "heap_rep feed head[8] consume",
            "heap_rep feed filter[grp = 2] head[25] consume",
        ],
    );
}

#[test]
fn blocking_operators_and_joins_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    assert_differential(
        &mut db,
        &[
            "heap_rep feed sum[k]",
            "heap_rep feed avg[k]",
            "heap_rep feed collect feed count",
            "heap_rep feed sortby[grp] head[25] consume",
            "heap_rep feed project[(g, fun (t: item) t grp)] sortby[g] rdup consume",
            "items_rep feed (fun (t: item) heap_rep feed filter[fun (u: item) t k = u k] head[1]) \
             search_join count",
        ],
    );
}

#[test]
fn e3_style_programs_match_tuple_at_a_time() {
    // The Section 2.4 cities program (E3): model-level selects through
    // plain objects, views, and parameterized views.
    let mut db = Database::builder().build();
    db.run(
        r#"
        type city = tuple(<(name, string), (pop, int), (country, string)>);
        type city_rel = rel(city);
        create cities : city_rel;
        update cities := insert(cities, mktuple[(name, "Hagen"), (pop, 190000), (country, "Germany")]);
        update cities := insert(cities, mktuple[(name, "Paris"), (pop, 2100000), (country, "France")]);
        update cities := insert(cities, mktuple[(name, "Nice"), (pop, 340000), (country, "France")]);
        create french_cities : ( -> city_rel);
        update french_cities := fun () cities select[country = "France"];
        create cities_in : (string -> city_rel);
        update cities_in := fun (c: string) cities select[country = c];
    "#,
    )
    .unwrap();
    assert_differential(
        &mut db,
        &[
            "cities select[pop > 1000000]",
            "french_cities select[pop > 1000000]",
            r#"cities_in ("Germany") count"#,
        ],
    );
}

#[test]
fn runtime_errors_match_tuple_at_a_time() {
    let mut db = rep_db(3000);
    // A second tuple type, so the search join below has disjoint
    // attributes.
    db.run(
        r#"
        type mate = tuple(<(j, int), (tag, string)>);
        create mate_rep : tidrel(mate);
    "#,
    )
    .unwrap();
    let mates: Vec<Value> = (0..50)
        .map(|i| Value::tuple(vec![Value::Int(i), Value::Str(format!("m{i}"))]))
        .collect();
    db.bulk_insert("mate_rep", mates).unwrap();
    // The outer filter fails at k = 9 ("division by zero"); the parameter
    // function fails earlier, at k = 4 ("modulo by zero"). The search
    // join pulls its outer side one tuple at a time, so k = 4's error
    // wins at every width. The `consume` form also takes the parallel
    // search-join rewrite at four workers.
    let search_join = "heap_rep feed filter[100 div (k - 9) > -1000] \
        (fun (t: item) mate_rep feed filter[fun (m: mate) m j mod (t k - 4) = 0]) \
        search_join count";
    let search_join_consume = search_join.replace(" count", " consume");
    // k = 0 divides by zero; every batch width must surface the same
    // error the tuple-at-a-time drain does.
    assert_differential(
        &mut db,
        &[
            "heap_rep feed filter[100 div k = 1] count",
            "heap_rep feed replace[k, fun (t: item) t k div t grp] consume",
            search_join,
            &search_join_consume,
        ],
    );
    for q in [search_join, &search_join_consume] {
        let err = run(&mut db, q).unwrap_err();
        assert!(err.contains("modulo by zero"), "`{q}`: {err}");
    }
}

#[test]
fn batched_drains_are_visible_in_metrics() {
    let mut db = rep_db(3000);
    db.set_parallelism(1);
    db.set_batch_size(256);
    db.reset_metrics();
    db.query("heap_rep feed filter[grp = 3] count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert!(count.batches > 0, "count stats: {count:?}");
    assert_eq!(count.batched_rows, 300);
    assert!(
        count.rows_per_batch() > 0 && count.rows_per_batch() <= 256,
        "count stats: {count:?}"
    );

    // Width 1 runs the same batch path: one batch per surviving row.
    db.set_batch_size(1);
    db.reset_metrics();
    db.query("heap_rep feed filter[grp = 3] count").unwrap();
    let count = db.op_stats("count").expect("count ran");
    assert_eq!(count.batches, 300, "count stats: {count:?}");
    assert_eq!(count.batched_rows, 300, "count stats: {count:?}");
}

#[test]
fn batch_width_one_keeps_pins_balanced() {
    let pool = sos_storage::mem_pool(4096);
    let mut db = Database::builder().pool(pool.clone()).build();
    db.run(
        r#"
        type item = tuple(<(k, int), (grp, int), (pad, string)>);
        create heap_rep : tidrel(item);
    "#,
    )
    .unwrap();
    let tuples: Vec<Value> = (0..2000)
        .map(|i| {
            Value::tuple(vec![
                Value::Int(i as i64),
                Value::Int((i % 10) as i64),
                Value::Str(format!("{:0180}", i)),
            ])
        })
        .collect();
    db.bulk_insert("heap_rep", tuples).unwrap();
    for &b in BATCHES {
        db.set_batch_size(b);
        db.query("heap_rep feed filter[k mod 3 = 1] consume")
            .unwrap();
        assert_eq!(pool.pinned_frames(), 0, "batch={b} leaked page pins");
    }
}
