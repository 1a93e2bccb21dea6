//! `point_mix`: the short-statement path, where per-statement fixed costs
//! dominate — parser, checker, the optimizer's rule search, B-tree
//! descent.
//!
//! Data: an in-memory model relation `items` represented by a clustering
//! `btree(item, k, int)`, bulk-loaded with 100k rows (the even keys
//! `0, 2, .., 199998`), small enough to stay resident in the default
//! 4096-frame pool.
//!
//! Statement mix, drawn from the seed:
//! * 80% point selections `items select[k = c] count`, `c` Zipf-skewed
//!   over the whole key space `0..200000` (odd keys are absent until
//!   inserted, so both 0 and 1 are checked);
//! * 10% short range selections at either end of the key space
//!   (`k < c` near the low end, `k >= c` near the high end), which the
//!   optimizer turns into B-tree half-range scans;
//! * 10% single-row inserts of absent odd keys through the model relation.
//!
//! Regime guard: no buffer-pool evictions after warm-up.

use crate::gen::{pad, Rng, Zipf};
use crate::trace::Tracer;
use crate::{execute, expect_count, query_int, Kind, Report, Workload};
use sos_exec::Value;
use sos_system::{Database, Output};
use std::collections::BTreeSet;

const ROWS: u64 = 100_000;
const KEY_SPACE: u64 = 2 * ROWS;
/// Width of the short ranges at either end of the key space.
const MAX_RANGE: u64 = 64;
const PAD: usize = 24;

const SCHEMA: &str = r#"
    type item = tuple(<(k, int), (v, int), (pad, string)>);
    create items : rel(item);
    create items_rep : btree(item, k, int);
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, items, items_rep);
"#;

pub struct PointMix {
    seed: u64,
    db: Option<Database>,
    /// Keys currently stored, as the generator knows them.
    live: BTreeSet<u64>,
    ops: Rng,
    zipf: Zipf,
    /// Zipf rank -> key, so hot keys spread over the whole tree.
    rank_key: Vec<u64>,
    evictions_at_mark: u64,
}

impl PointMix {
    pub fn new(seed: u64) -> PointMix {
        let root = Rng::new(seed);
        PointMix {
            seed,
            db: None,
            live: BTreeSet::new(),
            ops: root.fork(1),
            zipf: Zipf::new(KEY_SPACE as usize, 0.99),
            rank_key: root.fork(2).permutation(KEY_SPACE as usize),
            evictions_at_mark: 0,
        }
    }

    fn database(&mut self) -> &mut Database {
        self.db.as_mut().expect("set up")
    }
}

/// The initial rows: every even key, with a seeded value.
fn rows(seed: u64) -> Vec<Value> {
    let mut rng = Rng::new(seed).fork(3);
    (0..ROWS)
        .map(|i| {
            let k = 2 * i;
            Value::tuple(vec![
                Value::Int(k as i64),
                Value::Int(rng.below(1_000_000) as i64),
                Value::Str(pad(k, PAD)),
            ])
        })
        .collect()
}

impl Workload for PointMix {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.db = None;
        let data = rows(self.seed);
        let mut db = Database::builder().build();
        db.run(SCHEMA).map_err(|e| e.to_string())?;
        let n = tr
            .time("Database::bulk_load", || db.bulk_load("items_rep", data))
            .map_err(|e| e.to_string())?;
        expect_count("rows loaded", n as i64, ROWS as i64)?;
        self.live = (0..ROWS).map(|i| 2 * i).collect();
        self.db = Some(db);
        Ok(())
    }

    fn rows_loaded(&self) -> u64 {
        ROWS
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Kind, String> {
        let dice = self.ops.below(100);
        if dice < 80 {
            let key = self.rank_key[self.zipf.sample(&mut self.ops)];
            let want = self.live.contains(&key) as i64;
            let got = query_int(
                self.database(),
                tr,
                &format!("items select[k = {key}] count"),
            )?;
            expect_count(&format!("point k = {key}"), got, want)?;
            Ok(Kind::Read)
        } else if dice < 90 {
            let width = 1 + self.ops.below(MAX_RANGE);
            let (query, want) = if self.ops.below(2) == 0 {
                let c = width;
                let want = self.live.range(..c).count();
                (format!("items select[k < {c}] count"), want)
            } else {
                let c = KEY_SPACE - width;
                let want = self.live.range(c..).count();
                (format!("items select[k >= {c}] count"), want)
            };
            let got = query_int(self.database(), tr, &query)?;
            expect_count(&query, got, want as i64)?;
            Ok(Kind::Read)
        } else {
            let key = loop {
                let k = 2 * self.ops.below(ROWS) + 1;
                if !self.live.contains(&k) {
                    break k;
                }
            };
            let v = self.ops.below(1_000_000);
            let stmt = format!(
                "update items := insert(items, mktuple[(k, {key}), (v, {v}), (pad, \"{}\")]);",
                pad(key, PAD)
            );
            match execute(self.database(), tr, &stmt)? {
                Output::Updated(_) => {}
                other => return Err(format!("{stmt}: unexpected output {other:?}")),
            }
            self.live.insert(key);
            Ok(Kind::Write)
        }
    }

    fn db(&mut self) -> Option<&mut Database> {
        self.db.as_mut()
    }

    fn mark(&mut self) {
        self.evictions_at_mark = self.database().metrics().pool.evictions;
    }

    fn finish(&mut self, _tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
        let evictions = self.database().metrics().pool.evictions - self.evictions_at_mark;
        report.guard(
            format!("point_mix: {evictions} buffer-pool evictions after warm-up (want 0)"),
            evictions == 0,
        );
        Ok(())
    }
}
