//! `durable_write`: the write path with a real commit, where WAL appends,
//! page images, the per-commit catalog snapshot and fsync dominate.
//!
//! Data: a file-backed database (`DurabilityConfig::dir` under the run's
//! scratch directory, default `SyncPolicy::PerCommit`) holding the model
//! relation `items` over a clustering `btree(item, k, int)`, bulk-loaded
//! with 20k rows (the even keys `0, 2, .., 39998`).
//!
//! Statement mix, drawn from the seed: 60% single-row inserts of absent
//! keys, 10% single-key deletes, 10% non-key modifies (`v := v + 1`) and
//! 20% point reads of any key. Every [`CHECKPOINT_EVERY`] statements the
//! next statement first takes a `Database::checkpoint`.
//!
//! After the measured window the run
//! 1. reports `write_amp` (WAL bytes appended per byte of user tuple data
//!    written: 40 bytes per inserted or modified tuple, 8 per deleted
//!    key);
//! 2. checkpoints and reports `space_amp` (`pages.db` bytes per byte of
//!    live user tuple data);
//! 3. runs a fixed tail of [`TAIL`] statements, drops the database and
//!    reopens it, timing recovery (`recovery_s`) over exactly that tail;
//! 4. checks that the reopened database holds exactly the rows every
//!    acknowledged statement left;
//! 5. replays a prefix of the same statement stream over a `FaultDisk`
//!    pair that crashes on the first write after the last acknowledged
//!    statement, discarding every unsynced write, and checks that every
//!    acknowledged statement survives recovery.
//!
//! Regime guard: at least two checkpoints complete in the measured window.

use crate::gen::{pad, Rng};
use crate::trace::Tracer;
use crate::{execute, expect_count, query_int, Kind, Report, Workload};
use sos_exec::Value;
use sos_storage::{DiskManager, FaultClock, FaultDisk, FaultSchedule, MemDisk};
use sos_system::{Database, DurabilityConfig, Output};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const ROWS: u64 = 20_000;
const KEY_SPACE: u64 = 2 * ROWS;
const PAD: usize = 24;
/// User bytes of one tuple: two ints and the pad.
const TUPLE_BYTES: u64 = 8 + 8 + PAD as u64;
const KEY_BYTES: u64 = 8;
pub const CHECKPOINT_EVERY: u64 = 500;
/// Statements between the final checkpoint and the reopen.
pub const TAIL: u64 = 100;
/// Statements replayed over the crashing disks.
const FAULT_PREFIX: u64 = 40;

const SCHEMA: &str = r#"
    type item = tuple(<(k, int), (v, int), (pad, string)>);
    create items : rel(item);
    create items_rep : btree(item, k, int);
    create rep : catalog(<ident, ident>);
    update rep := insert(rep, items, items_rep);
"#;

fn rows(seed: u64) -> Vec<Value> {
    let mut rng = Rng::new(seed).fork(21);
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

/// Build the schema and bulk-load the initial rows.
fn load(db: &mut Database, tr: &mut Tracer, seed: u64) -> Result<(), String> {
    let data = rows(seed);
    db.run(SCHEMA).map_err(|e| e.to_string())?;
    let n = tr
        .time("Database::bulk_load", || db.bulk_load("items_rep", data))
        .map_err(|e| e.to_string())?;
    expect_count("rows loaded", n as i64, ROWS as i64)
}

/// What one statement does to the rows, as the generator knows them.
#[derive(Clone, Copy)]
enum Effect {
    Insert(u64, i64),
    Delete(u64),
    Modify(u64),
    /// A point read expecting this count.
    Read(u64, i64),
}

/// The seeded statement stream and the rows it has produced so far
/// (`key -> v`), advanced only by acknowledged statements.
#[derive(Clone)]
struct Stream {
    rng: Rng,
    rows: BTreeMap<u64, i64>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut rng = Rng::new(seed).fork(21);
        let rows = (0..ROWS)
            .map(|i| (2 * i, rng.below(1_000_000) as i64))
            .collect();
        Stream {
            rng: Rng::new(seed).fork(22),
            rows,
        }
    }

    /// A key drawn uniformly from the live keys, or from the absent ones.
    fn key(&mut self, live: bool) -> u64 {
        loop {
            let k = self.rng.below(KEY_SPACE);
            if self.rows.contains_key(&k) == live {
                return k;
            }
        }
    }

    fn next(&mut self) -> (String, Effect) {
        let dice = self.rng.below(100);
        if dice < 58 {
            let k = self.key(false);
            let v = self.rng.below(1_000_000) as i64;
            let src = format!(
                "update items := insert(items, mktuple[(k, {k}), (v, {v}), (pad, \"{}\")]);",
                pad(k, PAD)
            );
            (src, Effect::Insert(k, v))
        } else if dice < 68 {
            let k = self.key(true);
            let src = format!("update items := delete(items, fun (t: item) t k = {k});");
            (src, Effect::Delete(k))
        } else if dice < 80 {
            let k = self.key(true);
            let src = format!(
                "update items := modify(items, fun (t: item) t k = {k}, v, fun (t: item) t v + 1);"
            );
            (src, Effect::Modify(k))
        } else {
            let k = self.rng.below(KEY_SPACE);
            let want = self.rows.contains_key(&k) as i64;
            (
                format!("items select[k = {k}] count"),
                Effect::Read(k, want),
            )
        }
    }

    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Insert(k, v) => {
                self.rows.insert(k, v);
            }
            Effect::Delete(k) => {
                self.rows.remove(&k);
            }
            Effect::Modify(k) => *self.rows.get_mut(&k).expect("live key") += 1,
            Effect::Read(..) => {}
        }
    }

    /// User bytes a statement writes (see the module docs).
    fn user_bytes(effect: Effect) -> u64 {
        match effect {
            Effect::Insert(..) | Effect::Modify(_) => TUPLE_BYTES,
            Effect::Delete(_) => KEY_BYTES,
            Effect::Read(..) => 0,
        }
    }

    /// Run the next statement against `db`, check its result and, once
    /// acknowledged, apply it. Returns its effect.
    fn step(&mut self, db: &mut Database, tr: &mut Tracer) -> Result<Effect, String> {
        let (src, effect) = self.next();
        if let Effect::Read(k, want) = effect {
            let got = query_int(db, tr, &src)?;
            expect_count(&format!("point k = {k}"), got, want)?;
        } else {
            match execute(db, tr, &src)? {
                Output::Updated(_) => {}
                other => return Err(format!("{src}: unexpected output {other:?}")),
            }
        }
        self.apply(effect);
        Ok(effect)
    }
}

/// Compare every stored row with the rows the acknowledged statements
/// left. Returns a description of the first difference.
fn verify_rows(db: &mut Database, want: &BTreeMap<u64, i64>) -> Result<(), String> {
    let rows = match db.query("items_rep feed") {
        Ok(Value::Stream(rows)) | Ok(Value::Rel(rows)) => rows,
        Ok(other) => return Err(format!("items_rep feed: unexpected {other:?}")),
        Err(e) => return Err(format!("items_rep feed: {e}")),
    };
    let mut got = BTreeMap::new();
    for row in &rows {
        match row {
            Value::Tuple(f) => match (&f[0], &f[1]) {
                (Value::Int(k), Value::Int(v)) => {
                    got.insert(*k as u64, *v);
                }
                _ => return Err(format!("malformed row {row:?}")),
            },
            _ => return Err(format!("not a tuple: {row:?}")),
        }
    }
    if got.len() != rows.len() {
        return Err(format!(
            "{} rows but {} distinct keys",
            rows.len(),
            got.len()
        ));
    }
    if &got == want {
        return Ok(());
    }
    let missing = want.keys().find(|k| !got.contains_key(k));
    let extra = got.keys().find(|k| !want.contains_key(k));
    let changed = want
        .iter()
        .find(|(k, v)| got.get(k).is_some_and(|g| g != *v));
    Err(format!(
        "{} rows stored, {} expected; first missing key {missing:?}, first extra key {extra:?}, \
         first changed row {changed:?}",
        got.len(),
        want.len()
    ))
}

pub struct DurableWrite {
    seed: u64,
    dir: PathBuf,
    db: Option<Database>,
    stream: Stream,
    statements: u64,
    checkpoints: u64,
    user_bytes: u64,
    /// WAL bytes, user bytes and checkpoints when the measurement began.
    at_mark: (u64, u64, u64),
}

impl DurableWrite {
    pub fn new(seed: u64, dir: &Path) -> DurableWrite {
        DurableWrite {
            seed,
            dir: dir.to_path_buf(),
            db: None,
            stream: Stream::new(seed),
            statements: 0,
            checkpoints: 0,
            user_bytes: 0,
            at_mark: (0, 0, 0),
        }
    }

    fn database(&mut self) -> &mut Database {
        self.db.as_mut().expect("set up")
    }

    fn open(&self) -> Result<Database, String> {
        Database::builder()
            .durability(DurabilityConfig::dir(&self.dir))
            .try_build()
            .map_err(|e| format!("open {}: {e}", self.dir.display()))
    }

    fn checkpoint(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let db = self.db.as_mut().expect("set up");
        tr.time("Database::checkpoint", || db.checkpoint())
            .map_err(|e| format!("checkpoint: {e}"))?;
        self.checkpoints += 1;
        Ok(())
    }

    /// Replay a prefix of the statement stream over crashing disks; see
    /// the module docs. Returns the number of acknowledged statements.
    fn fault_replay(&self) -> Result<u64, String> {
        let mut tr = Tracer::new();
        type Media = (Arc<dyn DiskManager>, Arc<dyn DiskManager>);
        let open = |media: &Media, schedule: FaultSchedule| {
            let clock = FaultClock::new(schedule);
            let data = Arc::new(FaultDisk::new(Arc::clone(&media.0), Arc::clone(&clock)));
            let wal = Arc::new(FaultDisk::new(Arc::clone(&media.1), Arc::clone(&clock)));
            let db = Database::builder()
                .durability(DurabilityConfig::disks(data, wal))
                .try_build();
            (db, clock)
        };
        let fresh = || -> Media { (Arc::new(MemDisk::new()), Arc::new(MemDisk::new())) };

        // Fault-free pass: count the writes up to the last acknowledgement.
        let media = fresh();
        let (db, clock) = open(&media, FaultSchedule::default());
        let mut db = db.map_err(|e| format!("fault replay open: {e}"))?;
        load(&mut db, &mut tr, self.seed)?;
        let mut stream = Stream::new(self.seed);
        for _ in 0..FAULT_PREFIX {
            stream.step(&mut db, &mut tr)?;
        }
        let crash_at = clock.writes();
        drop(db);

        // Crashing pass: the same statements until the first write after
        // the last acknowledgement crashes the disks, losing every
        // unsynced write.
        let media = fresh();
        let (db, clock) = open(&media, FaultSchedule::crash_at(crash_at));
        let mut db = db.map_err(|e| format!("fault replay open: {e}"))?;
        load(&mut db, &mut tr, self.seed)?;
        let mut stream = Stream::new(self.seed);
        let mut acked = 0;
        let in_flight = loop {
            let before = stream.clone();
            if stream.step(&mut db, &mut tr).is_err() {
                break before;
            }
            acked += 1;
            if acked > 2 * FAULT_PREFIX {
                return Err("fault replay: the disks never crashed".into());
            }
        };
        if !clock.crashed() {
            return Err("fault replay: a statement failed without a crash".into());
        }
        drop(db);

        // Every acknowledged statement must survive. The statement the
        // crash interrupted was never acknowledged: it may or may not have
        // landed, but nothing else is allowed.
        let mut landed = in_flight;
        let (_, effect) = landed.next();
        landed.apply(effect);
        let mut db = Database::builder()
            .durability(DurabilityConfig::disks(media.0, media.1))
            .try_build()
            .map_err(|e| format!("fault replay reopen: {e}"))?;
        verify_rows(&mut db, &stream.rows)
            .or_else(|e| verify_rows(&mut db, &landed.rows).map_err(|_| e))
            .map(|()| acked)
            .map_err(|e| format!("fault replay after {acked} acknowledged statements: {e}"))
    }
}

impl Workload for DurableWrite {
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.db = None;
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        }
        let mut db = self.open()?;
        load(&mut db, tr, self.seed)?;
        self.db = Some(db);
        self.stream = Stream::new(self.seed);
        self.statements = 0;
        Ok(())
    }

    fn rows_loaded(&self) -> u64 {
        ROWS
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<Kind, String> {
        if self.statements > 0 && self.statements.is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoint(tr)?;
        }
        self.statements += 1;
        let db = self.db.as_mut().expect("set up");
        let effect = self.stream.step(db, tr)?;
        self.user_bytes += Stream::user_bytes(effect);
        Ok(match effect {
            Effect::Read(..) => Kind::Read,
            _ => Kind::Write,
        })
    }

    fn db(&mut self) -> Option<&mut Database> {
        self.db.as_mut()
    }

    fn mark(&mut self) {
        let wal_bytes = self.database().metrics().wal.bytes;
        self.at_mark = (wal_bytes, self.user_bytes, self.checkpoints);
    }

    fn finish(&mut self, tr: &mut Tracer, report: &mut Report) -> Result<(), String> {
        let wal_bytes = self.database().metrics().wal.bytes - self.at_mark.0;
        let user_bytes = self.user_bytes - self.at_mark.1;
        report.set(
            "write_amp",
            wal_bytes as f64 / user_bytes.max(1) as f64,
            "ratio",
        );
        let checkpoints = self.checkpoints - self.at_mark.2;
        report.guard(
            format!("durable_write: {checkpoints} checkpoints in the measured window (want >= 2)"),
            checkpoints >= 2,
        );

        self.checkpoint(tr)?;
        let file_bytes = std::fs::metadata(self.dir.join("pages.db"))
            .map_err(|e| e.to_string())?
            .len();
        let live_bytes = self.stream.rows.len() as u64 * TUPLE_BYTES;
        report.set("space_amp", file_bytes as f64 / live_bytes as f64, "ratio");

        // A fixed tail after the last checkpoint, so recovery replays the
        // same amount of log in every run.
        for _ in 0..TAIL {
            let db = self.db.as_mut().expect("set up");
            self.stream.step(db, tr)?;
        }
        self.db = None;
        let t = Instant::now();
        let open = tr.begin("DatabaseBuilder::try_build");
        let reopened = self.open();
        tr.end(open);
        let mut db = reopened?;
        report.set("recovery_s", t.elapsed().as_secs_f64(), "s");
        if let Some(info) = db.recovery_info() {
            report.set(
                "storage.recovery.scanned_records",
                info.scanned_records as f64,
                "count",
            );
            report.set(
                "storage.recovery.replayed_pages",
                info.replayed_pages as f64,
                "count",
            );
        }
        let survived = verify_rows(&mut db, &self.stream.rows);
        report.guard(
            format!(
                "durable_write: reopened database holds every acknowledged write ({})",
                survived.as_ref().err().map_or("ok", String::as_str)
            ),
            survived.is_ok(),
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&self.dir);

        let replay = self.fault_replay();
        report.guard(
            format!(
                "durable_write: crash after the last acknowledgement loses nothing ({})",
                match &replay {
                    Ok(n) => format!("{n} acknowledged statements survived"),
                    Err(e) => e.clone(),
                }
            ),
            replay.is_ok(),
        );
        Ok(())
    }
}

impl Drop for DurableWrite {
    fn drop(&mut self) {
        self.db = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
