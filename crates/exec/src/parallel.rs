//! Intra-operator parallelism: data-parallel drains of scan-backed
//! cursor pipelines and chunked evaluation over in-memory relations.
//!
//! The serial engine stays the source of truth. A scan pipeline runs
//! data-parallel only when every `filter`, `project` and `replace` over
//! the scan carries a compiled program ([`crate::compile`]). Compiled
//! programs never read the evaluation context, so each worker drives a
//! copy of the ordinary cursor spine — the same
//! [`Cursor::next_batch_into`] arms the serial drain runs — over its
//! share of the decoded scan units, and per-worker results are reduced
//! in unit order. The outcome is extensionally equal to the serial drain
//! by construction — `tests/par_vs_serial.rs` checks this
//! differentially. The in-memory `select` / `join` and the search-join
//! rewrite call compiled programs directly on worker threads. With the
//! expression compiler off (`compile_exprs(false)`), closure pipelines
//! run serially.
//!
//! `workers == 1` (the default on single-core machines) never spawns and
//! never takes any code path here.

use crate::compile::{compile_silent, CompiledFun};
use crate::engine::{EvalCtx, ExecEngine};
use crate::error::{ExecError, ExecResult};
use crate::stream::Cursor;
use crate::value::{Closure, Value};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_storage::heap::HeapFile;
use sos_storage::keys::KeyBytes;
use sos_storage::PageId;
use std::sync::Arc;

/// Minimum heap pages before a scan is worth partitioning.
pub const PAR_MIN_PAGES: usize = 2;
/// Minimum in-memory tuples before chunked evaluation is worth spawning.
pub const PAR_MIN_TUPLES: usize = 64;

// ---------------------------------------------------------------------
// Scan plans: scan units plus the compiled cursor spine over them.
// ---------------------------------------------------------------------

/// One independently scannable fragment of a source: a single heap page,
/// a B-tree leaf-chain range (one partition of a partitioned B-tree), or
/// an already-materialized partition (LSD-trees materialize on scan).
/// Units are listed in serial scan order, so concatenating per-unit
/// results reproduces the serial drain.
enum ScanUnit {
    HeapPage(Arc<HeapFile>, PageId),
    BTreeRange(Arc<crate::handles::BTreeHandle>, KeyBytes, KeyBytes),
    Mem(Vec<Value>),
}

/// An undrained scan plus the compiled pipeline steps stacked on it —
/// the fragment of a cursor spine that can run data-parallel. Sources
/// are a plain heap scan (one unit per page) or a partition scan (heap
/// partitions contribute per-page units, B-tree partitions one
/// leaf-walk unit each, LSD partitions their materialized tuples).
pub struct HeapPlan {
    units: Vec<ScanUnit>,
    /// The spine's steps over an empty [`Cursor::Mat`] leaf; each worker
    /// copies it and refills the leaf with every decoded batch.
    spine: Cursor,
}

impl HeapPlan {
    /// Extract a plan from a cursor spine. `None` whenever any part of
    /// the spine must stay serial: a partially drained or non-scannable
    /// source, a step without a compiled program, a `head` (early
    /// termination is the point of pipelining), or a shared link another
    /// value still holds.
    fn from_cursor(cursor: &Cursor) -> Option<HeapPlan> {
        Some(HeapPlan {
            units: scan_units(cursor)?,
            spine: copy_spine(cursor),
        })
    }

    /// Run the spine over every record of a contiguous unit chunk on
    /// each worker: records are decoded in place via the storage
    /// `visit_page`/`visit_leaf` helpers into batches of the engine's
    /// width, each batch refills the leaf of the worker's spine copy,
    /// and the spine is drained with [`Cursor::next_batch_into`] into one
    /// accumulator per chunk. The worker's [`EvalCtx`] is local, over an
    /// empty store and catalog: compiled programs never read it. Chunk
    /// results come back in unit order, so concatenation matches the
    /// serial scan; the first error in unit order wins.
    fn scan_chunks<T, F>(
        &self,
        engine: &ExecEngine,
        workers: usize,
        emit: F,
    ) -> ExecResult<Vec<(T, ChunkStats)>>
    where
        T: Default + Send,
        F: Fn(&mut T, &mut Vec<Value>) + Sync,
    {
        let width = engine.batch_size().max(1);
        let chunks = par_chunks(
            &self.units,
            workers,
            |_, part| -> ExecResult<(T, ChunkStats)> {
                let mut acc = T::default();
                let mut cs = ChunkStats::default();
                let mut store = Default::default();
                let mut catalog = Default::default();
                let mut ctx = EvalCtx::new(engine, &mut store, &mut catalog);
                let mut spine = copy_spine(&self.spine);
                let mut kept = Vec::with_capacity(width.min(4096));
                let mut batch: Vec<Value> = Vec::with_capacity(width.min(4096));
                let mut flush =
                    |rows: Vec<Value>, acc: &mut T, cs: &mut ChunkStats| -> ExecResult<()> {
                        if rows.is_empty() {
                            return Ok(());
                        }
                        cs.batches += 1;
                        *leaf_mut(&mut spine) = Cursor::materialized(rows);
                        while spine.next_batch_into(&mut ctx, width, &mut kept)? > 0 {}
                        emit(acc, &mut kept);
                        kept.clear();
                        Ok(())
                    };
                for unit in part {
                    match unit {
                        ScanUnit::HeapPage(heap, pid) => {
                            cs.pages += 1;
                            heap.visit_page::<ExecError, _>(*pid, |_, rec| {
                                cs.read += 1;
                                batch.push(Value::decode_tuple(rec)?);
                                Ok(())
                            })?;
                        }
                        ScanUnit::BTreeRange(handle, lo, hi) => {
                            let mut pid = Some(handle.tree.find_leaf(lo)?);
                            let mut past_hi = false;
                            while let Some(p) = pid {
                                if past_hi {
                                    break;
                                }
                                cs.pages += 1;
                                let next =
                                    handle.tree.visit_leaf::<ExecError, _>(p, |k, bytes| {
                                        if past_hi || k < lo.as_slice() {
                                            return Ok(());
                                        }
                                        if k > hi.as_slice() {
                                            past_hi = true;
                                            return Ok(());
                                        }
                                        cs.read += 1;
                                        batch.push(Value::decode_tuple(bytes)?);
                                        Ok(())
                                    })?;
                                pid = next;
                                while batch.len() >= width {
                                    let rest = batch.split_off(width);
                                    flush(std::mem::replace(&mut batch, rest), &mut acc, &mut cs)?;
                                }
                            }
                        }
                        ScanUnit::Mem(rows) => {
                            cs.read += rows.len();
                            batch.extend(rows.iter().cloned());
                        }
                    }
                    while batch.len() >= width {
                        let rest = batch.split_off(width);
                        flush(std::mem::replace(&mut batch, rest), &mut acc, &mut cs)?;
                    }
                }
                flush(batch, &mut acc, &mut cs)?;
                Ok((acc, cs))
            },
        );
        chunks.into_iter().collect()
    }

    fn collect(&self, engine: &ExecEngine, workers: usize) -> ExecResult<Vec<Value>> {
        let chunks = self.scan_chunks(engine, workers, |rows: &mut Vec<Value>, kept| {
            rows.append(kept);
        })?;
        let mut cs = ChunkStats::default();
        let mut out = Vec::new();
        for (mut rows, c) in chunks {
            cs.merge(&c);
            out.append(&mut rows);
        }
        engine
            .stats
            .record("feed", workers, cs.read, out.len(), cs.pages);
        engine.stats.record_batches(
            "feed",
            cs.pages.max(cs.batches as usize) as u64,
            cs.read as u64,
        );
        Ok(out)
    }

    fn count(&self, engine: &ExecEngine, workers: usize) -> ExecResult<i64> {
        let chunks = self.scan_chunks(engine, workers, |n: &mut i64, kept| {
            *n += kept.len() as i64;
        })?;
        let mut cs = ChunkStats::default();
        let mut total = 0i64;
        for (n, c) in chunks {
            cs.merge(&c);
            total += n;
        }
        // `count` emits one value; tuples_out = 1 matches the serial path.
        engine.stats.record("count", workers, cs.read, 1, cs.pages);
        engine.stats.record_batches(
            "count",
            cs.pages.max(cs.batches as usize) as u64,
            cs.read as u64,
        );
        Ok(total)
    }
}

/// The scan units under an eligible spine (see [`HeapPlan::from_cursor`]).
fn scan_units(cursor: &Cursor) -> Option<Vec<ScanUnit>> {
    match cursor {
        Cursor::Heap {
            heap,
            pages,
            page_idx,
            buf,
        } => {
            if *page_idx != 0 || !buf.is_empty() {
                return None;
            }
            Some(
                pages
                    .iter()
                    .map(|p| ScanUnit::HeapPage(heap.clone(), *p))
                    .collect(),
            )
        }
        Cursor::PartScan { cursors, idx, .. } => {
            if *idx != 0 {
                return None;
            }
            let mut units = Vec::new();
            for c in cursors {
                match c {
                    Cursor::Heap { .. } => units.extend(scan_units(c)?),
                    Cursor::BTreeRange {
                        handle,
                        lo,
                        hi,
                        primed,
                        done,
                        buf,
                        ..
                    } => {
                        if *primed || *done || !buf.is_empty() {
                            return None;
                        }
                        units.push(ScanUnit::BTreeRange(handle.clone(), lo.clone(), hi.clone()));
                    }
                    Cursor::Mat(buf) => {
                        units.push(ScanUnit::Mem(buf.iter().cloned().collect()));
                    }
                    _ => return None,
                }
            }
            Some(units)
        }
        Cursor::Filter {
            input,
            compiled: Some(_),
            ..
        }
        | Cursor::Replace {
            input,
            compiled: Some(_),
            ..
        } => scan_units(input),
        Cursor::Project {
            input, compiled, ..
        } if compiled.iter().all(Option::is_some) => scan_units(input),
        // A shared link inside a spine is parallel-safe only when the
        // spine is its sole owner (a clone elsewhere could observe a
        // partial drain).
        Cursor::Shared(arc) if Arc::strong_count(arc) == 1 => scan_units(&arc.lock()),
        _ => None,
    }
}

/// A copy of a spine's steps over an empty [`Cursor::Mat`] leaf (the
/// steps share their compiled programs).
fn copy_spine(spine: &Cursor) -> Cursor {
    match spine {
        Cursor::Filter {
            input,
            pred,
            compiled,
        } => Cursor::Filter {
            input: Box::new(copy_spine(input)),
            pred: pred.clone(),
            compiled: compiled.clone(),
        },
        Cursor::Project {
            input,
            funs,
            compiled,
        } => Cursor::Project {
            input: Box::new(copy_spine(input)),
            funs: funs.clone(),
            compiled: compiled.clone(),
        },
        Cursor::Replace {
            input,
            idx,
            fun,
            compiled,
        } => Cursor::Replace {
            input: Box::new(copy_spine(input)),
            idx: *idx,
            fun: fun.clone(),
            compiled: compiled.clone(),
        },
        Cursor::Shared(arc) => copy_spine(&arc.lock()),
        _ => Cursor::materialized(Vec::new()),
    }
}

/// The leaf under a plan spine's steps.
fn leaf_mut(spine: &mut Cursor) -> &mut Cursor {
    match spine {
        Cursor::Filter { input, .. }
        | Cursor::Project { input, .. }
        | Cursor::Replace { input, .. } => leaf_mut(input),
        leaf => leaf,
    }
}

/// Per-chunk scan accounting, merged in unit order.
#[derive(Default)]
struct ChunkStats {
    read: usize,
    pages: usize,
    batches: u64,
}

impl ChunkStats {
    fn merge(&mut self, other: &ChunkStats) {
        self.read += other.read;
        self.pages += other.pages;
        self.batches += other.batches;
    }
}

// ---------------------------------------------------------------------
// Drain hooks: entry points called by the serial operators.
// ---------------------------------------------------------------------

/// Try to drain a cursor in parallel. `None` falls back to the serial
/// drain; `Some` returns the tuples in serial page order and leaves the
/// cursor consumed (as a serial drain would).
pub fn try_par_drain(engine: &ExecEngine, cursor: &mut Cursor) -> Option<ExecResult<Vec<Value>>> {
    if let Cursor::Shared(arc) = cursor {
        let arc = arc.clone();
        let mut guard = arc.lock();
        return try_par_drain(engine, &mut guard);
    }
    let workers = engine.workers();
    if workers <= 1 {
        return None;
    }
    let plan = HeapPlan::from_cursor(cursor)?;
    if plan.units.len() < PAR_MIN_PAGES {
        return None;
    }
    let result = plan.collect(engine, workers);
    if result.is_ok() {
        *cursor = Cursor::Mat(Default::default());
    }
    Some(result)
}

/// Try to count a cursor's tuples in parallel without materializing them
/// (the filter + count pushdown). Same contract as [`try_par_drain`].
pub fn try_par_count(engine: &ExecEngine, cursor: &mut Cursor) -> Option<ExecResult<i64>> {
    if let Cursor::Shared(arc) = cursor {
        let arc = arc.clone();
        let mut guard = arc.lock();
        return try_par_count(engine, &mut guard);
    }
    let workers = engine.workers();
    if workers <= 1 {
        return None;
    }
    let plan = HeapPlan::from_cursor(cursor)?;
    if plan.units.len() < PAR_MIN_PAGES {
        return None;
    }
    let result = plan.count(engine, workers);
    if result.is_ok() {
        *cursor = Cursor::Mat(Default::default());
    }
    Some(result)
}

// ---------------------------------------------------------------------
// Parallel search join.
// ---------------------------------------------------------------------

/// The recognized shapes of a `search_join` parameter function whose
/// inner side is *outer-invariant* (references no outer-tuple variable):
///
/// * `fun (o) SRC filter[fun (d) PRED]` — the inner source evaluates
///   once, `PRED(o, d)` must compile; workers then join outer chunks
///   against the materialized inner side.
/// * `fun (o) SRC exactmatch[K] / point_search[K] / overlap_search[K]`
///   — the index handle evaluates once, the key expression `K(o)` must
///   compile; workers probe the index (partition-pruned for partitioned
///   indexes) per outer tuple.
enum SjInner {
    FilterMat { pred: Arc<CompiledFun> },
    Probe { op: ProbeOp, key: Arc<CompiledFun> },
}

#[derive(Clone, Copy, PartialEq)]
enum ProbeOp {
    Exact,
    Point,
    Overlap,
}

impl ProbeOp {
    fn name(self) -> &'static str {
        match self {
            ProbeOp::Exact => "exactmatch",
            ProbeOp::Point => "point_search",
            ProbeOp::Overlap => "overlap_search",
        }
    }
}

/// Whether `attr` occurs as a variable anywhere in `te`. Conservative:
/// shadowing is ignored, so a shadowed occurrence still counts as a use
/// (which only ever disables the rewrite).
fn expr_refs_var(te: &TypedExpr, name: &sos_core::Symbol) -> bool {
    match &te.node {
        TypedNode::Var(v) => v == name,
        TypedNode::Const(_) | TypedNode::Object(_) => false,
        TypedNode::Lambda { body, .. } => expr_refs_var(body, name),
        TypedNode::List(items) | TypedNode::Tuple(items) => {
            items.iter().any(|i| expr_refs_var(i, name))
        }
        TypedNode::Apply { args, .. } => args.iter().any(|a| expr_refs_var(a, name)),
        TypedNode::ApplyFun { fun, args } => {
            expr_refs_var(fun, name) || args.iter().any(|a| expr_refs_var(a, name))
        }
    }
}

/// Try to run a `search_join` cursor data-parallel. `None` falls back to
/// the serial nested-loop drain; `Some` returns the joined tuples in
/// serial order and leaves the cursor consumed.
///
/// The rewrite applies when the parameter function's inner source is
/// outer-invariant (see [`SjInner`]): the source is evaluated *once*
/// under the closure's captured environment instead of once per outer
/// tuple, and the per-tuple work (compiled predicate or compiled key +
/// index probe) runs on worker threads over outer chunks. Per-tuple probe
/// results keep the serial operator's order, so concatenation in chunk
/// order reproduces the serial join exactly.
pub fn try_par_search_join(
    ctx: &mut EvalCtx,
    cursor: &mut Cursor,
) -> Option<ExecResult<Vec<Value>>> {
    if let Cursor::Shared(arc) = cursor {
        let arc = arc.clone();
        let mut guard = arc.lock();
        return try_par_search_join(ctx, &mut guard);
    }
    let engine = ctx.engine;
    let workers = engine.workers();
    if workers <= 1 {
        return None;
    }
    let Cursor::SearchJoin {
        outer,
        fun,
        current_outer: None,
        inner,
    } = cursor
    else {
        return None;
    };
    if !inner.is_empty() {
        return None;
    }
    let [(outer_param, outer_ty)] = fun.params.as_slice() else {
        return None;
    };
    let TypedNode::Apply { op, args, .. } = &fun.body.node else {
        return None;
    };
    let [src, second] = args.as_slice() else {
        return None;
    };
    if expr_refs_var(src, outer_param) {
        return None;
    }
    let plan = match op.as_str() {
        "filter" => {
            let TypedNode::Lambda { params, body } = &second.node else {
                return None;
            };
            let [inner_param] = params.as_slice() else {
                return None;
            };
            let pred = Arc::new(Closure {
                params: vec![(outer_param.clone(), outer_ty.clone()), inner_param.clone()],
                body: (**body).clone(),
                captured: fun.captured.clone(),
            });
            SjInner::FilterMat {
                pred: compile_silent(engine, &pred)?,
            }
        }
        probe @ ("exactmatch" | "point_search" | "overlap_search") => {
            let op = match probe {
                "exactmatch" => ProbeOp::Exact,
                "point_search" => ProbeOp::Point,
                _ => ProbeOp::Overlap,
            };
            let key = Arc::new(Closure {
                params: vec![(outer_param.clone(), outer_ty.clone())],
                body: second.clone(),
                captured: fun.captured.clone(),
            });
            SjInner::Probe {
                op,
                key: compile_silent(engine, &key)?,
            }
        }
        _ => return None,
    };
    // Evaluate the outer-invariant inner source once, under the closure's
    // captured environment (exactly the environment the serial per-tuple
    // evaluation would see, minus the unused outer binding).
    let src_closure = Closure {
        params: Vec::new(),
        body: src.clone(),
        captured: fun.captured.clone(),
    };
    // Drain the outer side first, keeping the serial join's error order:
    // a parameter-function error at an earlier outer row wins over an
    // outer-side error at a later row. A failed parallel drain leaves the
    // cursor untouched, so the serial join takes over; a serial drain
    // pulls one tuple at a time, as the join itself would, and keeps the
    // rows before the failure.
    let (outer_tuples, mut outer_err) = match try_par_drain(engine, outer) {
        Some(Ok(ts)) => (ts, None),
        Some(Err(_)) => return None,
        None => {
            let mut ts = Vec::new();
            let err = loop {
                match outer.next(ctx) {
                    Ok(Some(t)) => ts.push(t),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            (ts, err)
        }
    };
    let mut run = || -> ExecResult<Vec<Value>> {
        if outer_tuples.is_empty() {
            return outer_err.take().map_or(Ok(Vec::new()), Err);
        }
        let src_value = ctx.call(&src_closure, Vec::new())?;
        let (out, inner_len) = match &plan {
            SjInner::FilterMat { pred } => {
                let inner_tuples = crate::stream::materialize(ctx, src_value)?;
                let chunks = par_chunks(
                    &outer_tuples,
                    workers,
                    |_, part| -> ExecResult<Vec<Value>> {
                        let mut out = Vec::new();
                        for o in part {
                            for i in &inner_tuples {
                                if pred.call(&[o.clone(), i.clone()])?.as_bool("filter")? {
                                    out.push(crate::ops::relational::concat_tuples(
                                        o,
                                        i,
                                        "search_join",
                                    )?);
                                }
                            }
                        }
                        Ok(out)
                    },
                );
                (merge_chunks(chunks)?, inner_tuples.len())
            }
            SjInner::Probe { op, key } => {
                let chunks = par_chunks(
                    &outer_tuples,
                    workers,
                    |_, part| -> ExecResult<(Vec<Value>, u64, u64)> {
                        let mut out = Vec::new();
                        let (mut total, mut pruned) = (0u64, 0u64);
                        for o in part {
                            let k = key.call(std::slice::from_ref(o))?;
                            let matches =
                                probe_index(&src_value, *op, &k, &mut total, &mut pruned)?;
                            for m in &matches {
                                out.push(crate::ops::relational::concat_tuples(
                                    o,
                                    m,
                                    "search_join",
                                )?);
                            }
                        }
                        Ok((out, total, pruned))
                    },
                );
                let mut out = Vec::new();
                let (mut total, mut pruned) = (0u64, 0u64);
                for c in chunks {
                    let (mut rows, t, p) = c?;
                    out.append(&mut rows);
                    total += t;
                    pruned += p;
                }
                engine.stats.record_partitions("search_join", total, pruned);
                (out, 0)
            }
        };
        if let Some(e) = outer_err.take() {
            return Err(e);
        }
        engine.stats.record(
            "search_join",
            workers,
            outer_tuples.len() + inner_len,
            out.len(),
            0,
        );
        Ok(out)
    };
    let result = run();
    if result.is_ok() {
        *cursor = Cursor::Mat(Default::default());
    }
    Some(result)
}

/// Probe one index value with a key — the operator semantics of
/// `exactmatch`/`point_search`/`overlap_search` evaluated directly
/// against storage (safe on worker threads: no engine context). For
/// partitioned indexes the probe is pruned to candidate partitions
/// (equality routing for B-trees, cover intersection for LSD-trees) and
/// surviving partitions are probed in partition order.
fn probe_index(
    target: &Value,
    op: ProbeOp,
    key: &Value,
    total: &mut u64,
    pruned: &mut u64,
) -> ExecResult<Vec<Value>> {
    match (target, op) {
        (Value::BTree(h), ProbeOp::Exact) => {
            let k = crate::handles::encode_key("exactmatch", key)?;
            h.tree
                .lookup(&k)?
                .iter()
                .map(|bytes| Value::decode_tuple(bytes))
                .collect()
        }
        (Value::LsdTree(h), ProbeOp::Point) => {
            let Value::Point(p) = key else {
                return Err(ExecError::TypeMismatch {
                    op: "point_search".into(),
                    expected: "point".into(),
                    found: key.kind_name().into(),
                });
            };
            let mut out = Vec::new();
            for e in h.tree.point_search(*p)? {
                out.push(Value::decode_tuple(&e.payload)?);
            }
            Ok(out)
        }
        (Value::LsdTree(h), ProbeOp::Overlap) => {
            let Value::Rect(r) = key else {
                return Err(ExecError::TypeMismatch {
                    op: "overlap_search".into(),
                    expected: "rect".into(),
                    found: key.kind_name().into(),
                });
            };
            let mut out = Vec::new();
            for e in h.tree.overlap_search(*r)? {
                out.push(Value::decode_tuple(&e.payload)?);
            }
            Ok(out)
        }
        (Value::Part(h), _) => {
            *total += h.part_count() as u64;
            let mask = match (op, key) {
                (ProbeOp::Exact, _) => {
                    h.candidate_mask(&[crate::partition::KeyCond::Eq(key.clone())])
                }
                (ProbeOp::Point, Value::Point(p)) => h.cover_mask(|c| c.contains_point(p)),
                (ProbeOp::Overlap, Value::Rect(r)) => h.cover_mask(|c| c.intersects(r)),
                _ => vec![true; h.part_count()],
            };
            let mut out = Vec::new();
            for (p, keep) in h.parts.iter().zip(&mask) {
                if !keep {
                    *pruned += 1;
                    continue;
                }
                out.extend(probe_index(p, op, key, total, pruned)?);
            }
            Ok(out)
        }
        (other, op) => Err(ExecError::TypeMismatch {
            op: op.name().into(),
            expected: "index representation".into(),
            found: other.kind_name().into(),
        }),
    }
}

// ---------------------------------------------------------------------
// Chunked evaluation over in-memory tuple slices.
// ---------------------------------------------------------------------

/// Run `f` over contiguous chunks of `items` on scoped worker threads,
/// returning per-chunk results in chunk order (so concatenation
/// reproduces serial order and the first error in chunk order is the
/// first error in item order). `f` receives each chunk's base index.
pub fn par_chunks<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return vec![f(0, items)];
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| {
                let f = &f;
                scope.spawn(move || f(i * chunk, part))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Flatten chunk results, surfacing the first error in chunk order.
fn merge_chunks(chunks: Vec<ExecResult<Vec<Value>>>) -> ExecResult<Vec<Value>> {
    let mut out = Vec::new();
    for c in chunks {
        out.append(&mut c?);
    }
    Ok(out)
}

/// Parallel `select`/`filter` over an in-memory relation. `None` when
/// the predicate does not compile or the input is too small to bother.
pub fn try_par_filter(
    engine: &ExecEngine,
    tuples: &[Value],
    pred: &Value,
    op: &'static str,
) -> Option<ExecResult<Vec<Value>>> {
    let workers = engine.workers();
    if workers <= 1 || tuples.len() < PAR_MIN_TUPLES {
        return None;
    }
    let fun = compile_silent(engine, pred.as_closure(op).ok()?)?;
    let chunks = par_chunks(tuples, workers, |_, part| -> ExecResult<Vec<Value>> {
        let mut keep = Vec::new();
        for t in part {
            if fun.call(std::slice::from_ref(t))?.as_bool(op)? {
                keep.push(t.clone());
            }
        }
        Ok(keep)
    });
    let out = merge_chunks(chunks);
    if let Ok(kept) = &out {
        engine
            .stats
            .record(op, workers, tuples.len(), kept.len(), 0);
    }
    Some(out)
}

/// Parallel nested-loop `join`: partitions the left side, each worker
/// joins its chunk against the whole right side.
pub fn try_par_join(
    engine: &ExecEngine,
    left: &[Value],
    right: &[Value],
    pred: &Value,
) -> Option<ExecResult<Vec<Value>>> {
    let workers = engine.workers();
    if workers <= 1 || left.len().saturating_mul(right.len()) < PAR_MIN_TUPLES {
        return None;
    }
    let fun = compile_silent(engine, pred.as_closure("join").ok()?)?;
    let chunks = par_chunks(left, workers, |_, part| -> ExecResult<Vec<Value>> {
        let mut out = Vec::new();
        for l in part {
            for r in right {
                if fun.call(&[l.clone(), r.clone()])?.as_bool("join")? {
                    out.push(crate::ops::relational::concat_tuples(l, r, "join")?);
                }
            }
        }
        Ok(out)
    });
    let out = merge_chunks(chunks);
    if let Ok(joined) = &out {
        engine
            .stats
            .record("join", workers, left.len() + right.len(), joined.len(), 0);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_preserves_order_and_offsets() {
        let items: Vec<i64> = (0..100).collect();
        for workers in [1, 3, 8, 200] {
            let chunks = par_chunks(&items, workers, |base, part| {
                part.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        assert_eq!((base + i) as i64, *v, "base offsets line up");
                        v * 2
                    })
                    .collect::<Vec<_>>()
            });
            let flat: Vec<i64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items.iter().map(|v| v * 2).collect::<Vec<_>>());
        }
    }
}
