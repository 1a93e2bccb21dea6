//! `scan_join`: the analytic path, where the executor (cursors, batches,
//! compiled bytecode) and buffer-pool misses dominate and the front end
//! is a rounding error.
//!
//! Data, all in one in-memory database with the default 4096-frame pool:
//! * `heap`, a `tidrel` of 200k padded rows — about 5000 pages, more than
//!   the pool holds, so every full pass evicts and reads pages back;
//! * the model relations `emps` (8000 rows) and `depts` (50 rows) over
//!   heap representations;
//! * the spatial schema: model `cities` over a `btree(city, pop, int)` and
//!   `states` over an LSD-tree keyed by bounding box, with a 12x12 grid of
//!   octagonal states and 4000 cities placed either well inside a state or
//!   in the gap between states.
//!
//! Queries, in a fixed rotation with seeded literals:
//! * `heap feed filter[g = c] count` — a compiled filter-count pass;
//! * `heap feed filter[h = c] consume` — a pass that materialises ~4000
//!   tuples;
//! * `emps depts join[dept = dno] count` — a model equi-join the
//!   optimizer turns into a hash join;
//! * `cities states join[center inside region] count` — a model spatial
//!   join through the LSD-tree.
//!
//! Regime guard: every heap pass reads pages from disk.

use crate::gen::{pad, Rng};
use crate::trace::Tracer;
use crate::{execute, expect_count, query_int, Kind, Report, Workload};
use sos_exec::Value;
use sos_geom::{Point, Polygon};
use sos_system::{Database, Output};

const HEAP_ROWS: u64 = 200_000;
const HEAP_PAD: usize = 180;
const G_VALUES: u64 = 97;
const H_VALUES: u64 = 50;
const EMPS: u64 = 8_000;
const DEPTS: u64 = 50;
/// Employees' departments are drawn from `0..EMP_DEPTS`; only `0..DEPTS`
/// exist, so some employees have no partner.
const EMP_DEPTS: u64 = 60;
const GRID: u64 = 12;
const CELL: f64 = 100.0;
const CITIES: u64 = 4_000;

/// The query rotation: heap filter-count, heap consume, equi-join,
/// spatial join, heap filter-count. Weighting the heap passes keeps the
/// median and the tail inside one query class each.
const ROTATION: [Query; 5] = [
    Query::FilterCount,
    Query::Consume,
    Query::EquiJoin,
    Query::SpatialJoin,
    Query::FilterCount,
];

#[derive(Clone, Copy)]
enum Query {
    FilterCount,
    Consume,
    EquiJoin,
    SpatialJoin,
}

const SCHEMA: &str = r#"
    type hrow = tuple(<(k, int), (g, int), (h, int), (pad, string)>);
    create heap : tidrel(hrow);
    type emp = tuple(<(ename, string), (dept, int)>);
    type dpt = tuple(<(dno, int), (dname, string)>);
    create emps : rel(emp);
    create depts : rel(dpt);
    create emps_rep : tidrel(emp);
    create depts_rep : tidrel(dpt);
    type city = tuple(<(cname, string), (center, point), (pop, int)>);
    type state = tuple(<(sname, string), (region, pgon)>);
    create cities : rel(city);
    create states : rel(state);
    create cities_rep : btree(city, pop, int);
    create states_rep : lsdtree(state, fun (s: state) bbox(s region));
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, emps, emps_rep);
    update rep := insert(rep, depts, depts_rep);
    update rep := insert(rep, cities, cities_rep);
    update rep := insert(rep, states, states_rep);
"#;

/// Every generated input and the answers derived from it.
struct Data {
    heap: Vec<Value>,
    emps: Vec<Value>,
    depts: Vec<Value>,
    cities: Vec<Value>,
    states: Vec<Value>,
    /// Rows per `g` value.
    g_count: Vec<i64>,
    /// Rows and key sum per `h` value.
    h_count: Vec<i64>,
    h_key_sum: Vec<i64>,
    join_pairs: i64,
    spatial_pairs: i64,
}

fn generate(seed: u64) -> Data {
    let root = Rng::new(seed);
    let mut rng = root.fork(11);
    let mut g_count = vec![0; G_VALUES as usize];
    let mut h_count = vec![0; H_VALUES as usize];
    let mut h_key_sum = vec![0; H_VALUES as usize];
    let heap = (0..HEAP_ROWS)
        .map(|k| {
            let g = rng.below(G_VALUES);
            let h = rng.below(H_VALUES);
            g_count[g as usize] += 1;
            h_count[h as usize] += 1;
            h_key_sum[h as usize] += k as i64;
            Value::tuple(vec![
                Value::Int(k as i64),
                Value::Int(g as i64),
                Value::Int(h as i64),
                Value::Str(pad(k, HEAP_PAD)),
            ])
        })
        .collect();

    let mut rng = root.fork(12);
    let mut join_pairs = 0;
    let emps = (0..EMPS)
        .map(|i| {
            let dept = rng.below(EMP_DEPTS);
            join_pairs += (dept < DEPTS) as i64;
            Value::tuple(vec![Value::Str(format!("e{i}")), Value::Int(dept as i64)])
        })
        .collect();
    let depts = (0..DEPTS)
        .map(|d| Value::tuple(vec![Value::Int(d as i64), Value::Str(format!("d{d}"))]))
        .collect();

    // States: one octagon per grid cell, inset from the cell border so
    // neighbouring states never touch. A city is either placed in the
    // central square of a cell (inside that state and no other) or in the
    // strip along a cell's left border (inside no state).
    let (inset, cut) = (10.0, 20.0);
    let states = (0..GRID * GRID)
        .map(|i| {
            let (x0, y0) = ((i % GRID) as f64 * CELL, (i / GRID) as f64 * CELL);
            let (lo, hi) = (inset, CELL - inset);
            let corners = [
                (lo + cut, lo),
                (hi - cut, lo),
                (hi, lo + cut),
                (hi, hi - cut),
                (hi - cut, hi),
                (lo + cut, hi),
                (lo, hi - cut),
                (lo, lo + cut),
            ];
            let poly = Polygon::new(
                corners
                    .iter()
                    .map(|(x, y)| Point::new(x0 + x, y0 + y))
                    .collect(),
            );
            Value::tuple(vec![Value::Str(format!("s{i}")), Value::Pgon(poly)])
        })
        .collect();
    let mut rng = root.fork(13);
    let mut spatial_pairs = 0;
    let cities = (0..CITIES)
        .map(|i| {
            let cell = rng.below(GRID * GRID);
            let (x0, y0) = ((cell % GRID) as f64 * CELL, (cell / GRID) as f64 * CELL);
            let inside = rng.below(10) < 8;
            let (x, y) = if inside {
                spatial_pairs += 1;
                let (lo, hi) = (inset + cut + 1.0, CELL - inset - cut - 1.0);
                (rng.range_f64(lo, hi), rng.range_f64(lo, hi))
            } else {
                (
                    rng.range_f64(1.0, inset - 1.0),
                    rng.range_f64(1.0, CELL - 1.0),
                )
            };
            Value::tuple(vec![
                Value::Str(format!("c{i}")),
                Value::Point(Point::new(x0 + x, y0 + y)),
                Value::Int(rng.below(1_000_000) as i64),
            ])
        })
        .collect();

    Data {
        heap,
        emps,
        depts,
        cities,
        states,
        g_count,
        h_count,
        h_key_sum,
        join_pairs,
        spatial_pairs,
    }
}

pub struct ScanJoin {
    data: Data,
    db: Option<Database>,
    literals: Rng,
    next: usize,
    heap_passes: u64,
    passes_without_reads: u64,
}

impl ScanJoin {
    pub fn new(seed: u64) -> ScanJoin {
        ScanJoin {
            data: generate(seed),
            db: None,
            literals: Rng::new(seed).fork(14),
            next: 0,
            heap_passes: 0,
            passes_without_reads: 0,
        }
    }

    fn database(&mut self) -> &mut Database {
        self.db.as_mut().expect("set up")
    }

    /// One heap pass, checked for physical reads (the regime guard).
    fn heap_pass(&mut self, tr: &mut Tracer, q: Query) -> Result<(), String> {
        let before = self.database().metrics().pool.physical_reads;
        match q {
            Query::FilterCount => {
                let c = self.literals.below(G_VALUES);
                let got = query_int(
                    self.database(),
                    tr,
                    &format!("heap feed filter[g = {c}] count"),
                )?;
                expect_count(&format!("heap g = {c}"), got, self.data.g_count[c as usize])?;
            }
            Query::Consume => {
                let c = self.literals.below(H_VALUES);
                let stmt = format!("query heap feed filter[h = {c}] consume;");
                let rows = match execute(self.database(), tr, &stmt)? {
                    Output::Query(Value::Rel(rows)) => rows,
                    other => return Err(format!("{stmt}: expected a rel, got {other:?}")),
                };
                let mut key_sum = 0;
                for row in &rows {
                    match row {
                        Value::Tuple(f) => match (&f[0], &f[2]) {
                            (Value::Int(k), Value::Int(h)) if *h == c as i64 => key_sum += k,
                            _ => return Err(format!("{stmt}: wrong row {row:?}")),
                        },
                        _ => return Err(format!("{stmt}: not a tuple: {row:?}")),
                    }
                }
                expect_count(&stmt, rows.len() as i64, self.data.h_count[c as usize])?;
                expect_count(
                    &format!("{stmt} key sum"),
                    key_sum,
                    self.data.h_key_sum[c as usize],
                )?;
            }
            Query::EquiJoin | Query::SpatialJoin => unreachable!("not a heap pass"),
        }
        self.heap_passes += 1;
        if self.database().metrics().pool.physical_reads == before {
            self.passes_without_reads += 1;
        }
        Ok(())
    }
}

impl Workload for ScanJoin {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.db = None;
        let d = &self.data;
        let loads = [
            ("heap", d.heap.clone()),
            ("emps_rep", d.emps.clone()),
            ("depts_rep", d.depts.clone()),
            ("cities_rep", d.cities.clone()),
            ("states_rep", d.states.clone()),
        ];
        let mut db = Database::builder().build();
        db.run(SCHEMA).map_err(|e| e.to_string())?;
        for (object, rows) in loads {
            let want = rows.len();
            let n = tr
                .time("Database::bulk_load", || db.bulk_load(object, rows))
                .map_err(|e| format!("bulk_load {object}: {e}"))?;
            expect_count(object, n as i64, want as i64)?;
        }
        self.db = Some(db);
        Ok(())
    }

    fn rows_loaded(&self) -> u64 {
        HEAP_ROWS + EMPS + DEPTS + CITIES + GRID * GRID
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Kind, String> {
        let q = ROTATION[self.next % ROTATION.len()];
        self.next += 1;
        match q {
            Query::FilterCount | Query::Consume => self.heap_pass(tr, q)?,
            Query::EquiJoin => {
                let query = "emps depts join[dept = dno] count";
                let got = query_int(self.database(), tr, query)?;
                expect_count(query, got, self.data.join_pairs)?;
            }
            Query::SpatialJoin => {
                let query = "cities states join[center inside region] count";
                let got = query_int(self.database(), tr, query)?;
                expect_count(query, got, self.data.spatial_pairs)?;
            }
        }
        Ok(Kind::Read)
    }

    fn db(&mut self) -> Option<&mut Database> {
        self.db.as_mut()
    }

    fn round(&self) -> u64 {
        ROTATION.len() as u64
    }

    fn mark(&mut self) {
        self.heap_passes = 0;
        self.passes_without_reads = 0;
    }

    fn finish(&mut self, _tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
        let (passes, dry) = (self.heap_passes, self.passes_without_reads);
        report.guard(
            format!("scan_join: {dry} of {passes} heap passes read no page from disk (want 0)"),
            dry == 0 && passes > 0,
        );
        Ok(())
    }
}
