//! Vectorized batch execution: operators over fixed-capacity columnar
//! chunks instead of single tuples.
//!
//! A [`Batch`] holds up to `batch_rows` rows column-major (the engine's
//! rows-per-batch parameter, [`BATCH_ROWS`] by default), so expression
//! evaluation ([`Expr::eval_batch`]) and aggregation loop tight over one
//! column at a time instead of re-dispatching through the operator tree
//! per row. Every operator emits batches of at most `batch_rows` rows,
//! and its output rows, their order, its errors and its memory charges
//! do not depend on the batch size — which the differential suite in
//! the data layer enforces byte-for-byte at batch 1, 64 and 1024.

use std::time::{Duration, Instant};

use sbdms_kernel::error::{Result, ServiceError};

use super::aggregate::{AggSpec, Grouper};
use super::expr::Expr;
use super::join::BuildSide;
use super::vhash;
use super::ExecContext;
use crate::record::{Datum, Tuple};
use crate::sort::{ExternalSorter, SortKey};
use sbdms_storage::page::PageId;

/// Default batch capacity: large enough to amortise per-batch overhead,
/// small enough that a batch of wide tuples stays cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// A fixed-capacity chunk of rows stored column-major, with an optional
/// *selection vector*: a sorted list of live physical row indices.
///
/// Filters and probes emit selections instead of compacting copies —
/// the payload columns stay untouched and are only gathered when a
/// consumer genuinely needs dense data (late materialisation). All
/// row-oriented accessors (`rows`, `row`, `encode_row`, `into_rows`,
/// `slice`) speak *logical* rows, i.e. they see only selected rows;
/// `column` stays physical so kernels can pair it with [`Batch::sel`]
/// and index directly.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// One `Vec<Datum>` per column, all the same (physical) length.
    columns: Vec<Vec<Datum>>,
    /// Physical row count, tracked explicitly so zero-column batches
    /// still know their cardinality.
    rows: usize,
    /// Live physical row indices, strictly increasing. `None` = dense
    /// (all physical rows live).
    sel: Option<Vec<u32>>,
}

impl Batch {
    /// Empty batch with `width` columns.
    pub fn new(width: usize) -> Batch {
        Batch {
            columns: vec![Vec::new(); width],
            rows: 0,
            sel: None,
        }
    }

    /// Build from row-major tuples (all the same width).
    pub fn from_rows(rows: Vec<Tuple>) -> Batch {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut batch = Batch {
            columns: (0..width)
                .map(|_| Vec::with_capacity(rows.len()))
                .collect(),
            rows: 0,
            sel: None,
        };
        for row in rows {
            batch.push(row);
        }
        batch
    }

    /// Build from pre-transposed columns of `rows` length each.
    pub fn from_columns(columns: Vec<Vec<Datum>>, rows: usize) -> Batch {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Batch {
            columns,
            rows,
            sel: None,
        }
    }

    /// Number of logical (selected) rows.
    pub fn rows(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.rows,
        }
    }

    /// Whether the batch holds no logical rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The selection vector, if any. Pairs with [`Batch::column`]:
    /// kernels iterate the selection and index the physical column.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// One *physical* column as a slice, if in range. Consult
    /// [`Batch::sel`] for which entries are live.
    pub fn column(&self, i: usize) -> Option<&[Datum]> {
        self.columns.get(i).map(|c| c.as_slice())
    }

    /// One physical column as a slice, with the same error a
    /// row-expression column reference raises.
    pub fn try_column(&self, i: usize) -> Result<&[Datum]> {
        self.column(i)
            .ok_or_else(|| ServiceError::InvalidInput(format!("column {i} out of range")))
    }

    /// Append one row. Only valid on dense batches.
    pub fn push(&mut self, row: Tuple) {
        debug_assert!(self.sel.is_none(), "push on a selected batch");
        debug_assert_eq!(row.len(), self.columns.len());
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Physical row index of logical row `r`.
    #[inline]
    fn phys(&self, r: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[r] as usize,
            None => r,
        }
    }

    /// Materialise one logical row (cloning).
    pub fn row(&self, r: usize) -> Tuple {
        let p = self.phys(r);
        self.columns.iter().map(|c| c[p].clone()).collect()
    }

    /// Transpose back to row-major tuples (logical rows only).
    pub fn into_rows(self) -> Vec<Tuple> {
        let width = self.columns.len();
        if let Some(sel) = &self.sel {
            return sel
                .iter()
                .map(|&p| {
                    let mut row = Vec::with_capacity(width);
                    for col in &self.columns {
                        row.push(col[p as usize].clone());
                    }
                    row
                })
                .collect();
        }
        let mut rows: Vec<Tuple> = (0..self.rows).map(|_| Vec::with_capacity(width)).collect();
        for col in self.columns {
            for (row, v) in rows.iter_mut().zip(col) {
                row.push(v);
            }
        }
        rows
    }

    /// Decompose into dense columns plus the row count (gathers through
    /// the selection vector if one is present; free when dense).
    pub fn into_dense_columns(self) -> (Vec<Vec<Datum>>, usize) {
        let flat = self.flatten();
        (flat.columns, flat.rows)
    }

    /// Restrict to the given logical row indices (strictly increasing).
    /// Composes with an existing selection; the payload columns are
    /// never copied.
    pub fn select(mut self, indices: Vec<u32>) -> Batch {
        self.sel = Some(match self.sel.take() {
            None => indices,
            Some(old) => indices.into_iter().map(|i| old[i as usize]).collect(),
        });
        self
    }

    /// Keep only logical rows whose mask entry is true, preserving
    /// order. The all-true mask is free; otherwise this produces a
    /// selection vector, not a compacted copy.
    pub fn retain(self, keep: &[bool]) -> Batch {
        debug_assert_eq!(keep.len(), self.rows());
        if keep.iter().all(|k| *k) {
            return self;
        }
        let indices = keep
            .iter()
            .enumerate()
            .filter(|(_, k)| **k)
            .map(|(i, _)| i as u32)
            .collect();
        self.select(indices)
    }

    /// Gather the selected rows into a dense batch; identity when
    /// already dense.
    pub fn flatten(mut self) -> Batch {
        let Some(sel) = self.sel.take() else {
            return self;
        };
        let columns = self
            .columns
            .iter()
            .map(|col| sel.iter().map(|&p| col[p as usize].clone()).collect())
            .collect();
        Batch {
            columns,
            rows: sel.len(),
            sel: None,
        }
    }

    /// Copy out `len` logical rows starting at `start`.
    pub fn slice(&self, start: usize, len: usize) -> Batch {
        match &self.sel {
            None => Batch {
                columns: self
                    .columns
                    .iter()
                    .map(|c| c[start..start + len].to_vec())
                    .collect(),
                rows: len,
                sel: None,
            },
            Some(sel) => {
                let window = &sel[start..start + len];
                Batch {
                    columns: self
                        .columns
                        .iter()
                        .map(|c| window.iter().map(|&p| c[p as usize].clone()).collect())
                        .collect(),
                    rows: len,
                    sel: None,
                }
            }
        }
    }

    /// Canonical encoding of one logical row — identical bytes to
    /// `encode_tuple(&self.row(r))` without materialising the row.
    pub fn encode_row(&self, r: usize) -> Vec<u8> {
        let p = self.phys(r);
        let mut out = Vec::with_capacity(2 + self.columns.len() * 9);
        out.extend_from_slice(&(self.columns.len() as u16).to_le_bytes());
        for col in &self.columns {
            col[p].encode_into(&mut out);
        }
        out
    }
}

/// A stream of batches, the vectorized engine's execution currency.
pub type BatchStream = Box<dyn Iterator<Item = Result<Batch>> + Send>;

/// Collect a batch stream back into row-major tuples.
pub fn collect_rows(input: BatchStream) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    for batch in input {
        out.extend(batch?.into_rows());
    }
    Ok(out)
}

/// Drain a batch stream into materialised batches, staying columnar.
fn collect_batches(input: BatchStream) -> Result<Vec<Batch>> {
    input.collect()
}

/// Chunk pre-materialised tuples into batches of `batch_rows`. Column
/// capacities are exact (the source length is known), so the transpose
/// is one move per datum with no reallocation.
pub fn values_batches(rows: Vec<Tuple>, batch_rows: usize) -> BatchStream {
    let mut rows = rows.into_iter();
    Box::new(std::iter::from_fn(move || {
        let first = rows.next()?;
        let width = first.len();
        let chunk = batch_rows.min(rows.len() + 1);
        let mut columns: Vec<Vec<Datum>> =
            (0..width).map(|_| Vec::with_capacity(chunk)).collect();
        for (col, v) in columns.iter_mut().zip(first) {
            col.push(v);
        }
        for _ in 1..chunk {
            let row = rows.next().expect("chunk bounded by remaining rows");
            debug_assert_eq!(row.len(), width);
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Some(Ok(Batch {
            columns,
            rows: chunk,
            sel: None,
        }))
    }))
}

/// Chunk pre-transposed columns into batches of `batch_rows` without
/// ever materialising row tuples — the covering index-only scan's entry
/// point into the vectorized engine. All columns must be `rows` long.
pub fn columnar_batches(columns: Vec<Vec<Datum>>, rows: usize, batch_rows: usize) -> BatchStream {
    debug_assert!(columns.iter().all(|c| c.len() == rows));
    let width = columns.len();
    let mut columns: Vec<std::vec::IntoIter<Datum>> =
        columns.into_iter().map(|c| c.into_iter()).collect();
    let mut remaining = rows;
    Box::new(std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        let chunk = batch_rows.max(1).min(remaining);
        remaining -= chunk;
        let cols: Vec<Vec<Datum>> = columns
            .iter_mut()
            .map(|c| c.by_ref().take(chunk).collect())
            .collect();
        debug_assert_eq!(cols.len(), width);
        Some(Ok(Batch {
            columns: cols,
            rows: chunk,
            sel: None,
        }))
    }))
}

/// Where a heap scan's rows come from, one data page at a time. The
/// scan owns the page order and the batching; the source decides which
/// rows of a page a reader sees (the data layer's table read: the
/// committed heap, or a snapshot resolved page by page) and decodes
/// them with [`HeapFile::walk_page`](crate::heap::HeapFile::walk_page) and
/// [`decode_tuple_into`](crate::record::decode_tuple_into).
pub trait PageSource: Send + 'static {
    /// Append the rows `page` contributes, field `i` to `columns[i]`,
    /// and return how many.
    fn page(&mut self, page: PageId, columns: &mut [Vec<Datum>]) -> Result<usize>;

    /// Append the rows that follow the last page and return how many.
    fn tail(&mut self, _columns: &mut [Vec<Datum>]) -> Result<usize> {
        Ok(0)
    }
}

/// Sequential scan of `pages` into batches of `width` columns. Records
/// decode from the page frame straight into column vectors (no tuple per
/// row, no transpose); every batch but the last holds exactly
/// `batch_rows` rows. A batch takes the pending column vectors whole:
/// no decoded datum is copied again, only the rest of the page behind
/// the batch moves into fresh vectors (a page much longer than the batch
/// is cut into copied windows instead). Memory is bounded by one batch
/// plus one page, and every page boundary is one cooperative
/// cancellation point. The source is dropped as soon as it has no more
/// rows (or fails), which releases whatever it holds before the last
/// batches drain.
pub fn scan_batches(
    pages: Vec<PageId>,
    width: usize,
    source: impl PageSource,
    batch_rows: usize,
    ctx: ExecContext,
) -> BatchStream {
    Box::new(HeapScan {
        pages: pages.into_iter(),
        source: Some(source),
        pending: vec![Vec::new(); width],
        rows: 0,
        head: 0,
        batch_rows: batch_rows.max(1),
        ctx,
    })
}

/// The state of one [`scan_batches`] stream. Pages decode into
/// `pending`; a batch takes the pending vectors whole (see
/// [`HeapScan::cut`]).
struct HeapScan<S> {
    pages: std::vec::IntoIter<PageId>,
    /// `None` once the last page and the tail are read.
    source: Option<S>,
    /// Decoded rows not yet emitted start at `head`; `rows` is the
    /// physical length of every pending column.
    pending: Vec<Vec<Datum>>,
    rows: usize,
    head: usize,
    batch_rows: usize,
    ctx: ExecContext,
}

impl<S: PageSource> HeapScan<S> {
    /// Read the next page (or, past the last, the tail) into `pending`,
    /// first dropping the rows already emitted so `pending` never holds
    /// more than one batch plus one page.
    fn fill(&mut self) -> Result<()> {
        let Some(source) = self.source.as_mut() else {
            return Ok(());
        };
        if self.head > 0 {
            for col in &mut self.pending {
                col.drain(..self.head);
            }
            self.rows -= self.head;
            self.head = 0;
        }
        let read = match self.pages.next() {
            Some(page) => self
                .ctx
                .check()
                .and_then(|()| source.page(page, &mut self.pending)),
            None => {
                let tail = source.tail(&mut self.pending);
                self.source = None;
                tail
            }
        };
        match read {
            Ok(n) => {
                self.rows += n;
                Ok(())
            }
            Err(e) => {
                self.source = None;
                self.pending.iter_mut().for_each(Vec::clear);
                (self.rows, self.head) = (0, 0);
                Err(e)
            }
        }
    }

    /// Move the next `n` pending rows out into a batch. When no more
    /// than a batch of rows would stay behind (in a steady scan, the
    /// rest of one page), the batch takes the pending vectors whole and
    /// only the rows behind it move into fresh ones. Otherwise (a page
    /// much longer than the batch) the `n` rows are moved out of a
    /// window and `head` steps past them.
    fn cut(&mut self, n: usize) -> Batch {
        let rest = self.rows - self.head - n;
        let columns = if self.head == 0 && rest <= self.batch_rows {
            self.rows = rest;
            let more = self.source.is_some();
            self.pending
                .iter_mut()
                .map(|col| {
                    // Room for the next page, unless no page follows.
                    let mut behind = Vec::with_capacity(if more { col.capacity() } else { rest });
                    behind.extend(col.drain(n..));
                    std::mem::replace(col, behind)
                })
                .collect()
        } else {
            let window = self.head..self.head + n;
            self.head += n;
            self.pending
                .iter_mut()
                .map(|col| {
                    col[window.clone()]
                        .iter_mut()
                        .map(|d| std::mem::replace(d, Datum::Null))
                        .collect()
                })
                .collect()
        };
        Batch::from_columns(columns, n)
    }
}

impl<S: PageSource> Iterator for HeapScan<S> {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Result<Batch>> {
        while self.rows - self.head < self.batch_rows && self.source.is_some() {
            if let Err(e) = self.fill() {
                return Some(Err(e));
            }
        }
        let n = (self.rows - self.head).min(self.batch_rows);
        (n > 0).then(|| Ok(self.cut(n)))
    }
}

/// Keep rows for which `predicate` evaluates to TRUE (NULL drops).
/// Emits a selection vector over the input batch instead of compacting:
/// comparison predicates run through [`Expr::filter_indices`]'s direct
/// select kernels, everything else falls back to a vectorized mask.
pub fn filter_batches(input: BatchStream, predicate: Expr) -> BatchStream {
    Box::new(input.filter_map(move |batch| {
        let batch = match batch {
            Ok(b) => b,
            Err(e) => return Some(Err(e)),
        };
        let indices = match predicate.filter_indices(&batch) {
            Ok(Some(indices)) => indices,
            Ok(None) => match predicate.eval_batch(&batch) {
                Ok(vals) => vals
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.is_true())
                    .map(|(i, _)| i as u32)
                    .collect(),
                Err(e) => return Some(Err(e)),
            },
            Err(e) => return Some(Err(e)),
        };
        if indices.is_empty() {
            return None;
        }
        if indices.len() == batch.rows() {
            return Some(Ok(batch));
        }
        Some(Ok(batch.select(indices)))
    }))
}

/// Evaluate one expression per output column, whole columns at a time.
pub fn project_batches(input: BatchStream, exprs: Vec<Expr>) -> BatchStream {
    Box::new(input.map(move |batch| {
        let batch = batch?;
        let rows = batch.rows();
        let columns = exprs
            .iter()
            .map(|e| e.eval_batch(&batch))
            .collect::<Result<Vec<_>>>()?;
        Ok(Batch::from_columns(columns, rows))
    }))
}

/// Sort the input (materialising) with the [`ExternalSorter`], which
/// checks for cancellation, accounts (or spills) buffered runs, and
/// picks its workers from the input's size.
pub fn sort_batches(
    input: BatchStream,
    keys: Vec<SortKey>,
    memory_budget: usize,
    batch_rows: usize,
    ctx: ExecContext,
) -> Result<BatchStream> {
    let rows = collect_rows(input)?;
    let sorter = ExternalSorter::new(memory_budget).with_context(ctx);
    let out = sorter.sort_auto(rows, &keys)?;
    Ok(values_batches(out.tuples, batch_rows))
}

/// Pass at most `n` rows after skipping `offset`, slicing batches at the
/// boundaries.
pub fn limit_batches(input: BatchStream, n: usize, offset: usize) -> BatchStream {
    let mut input = input;
    let mut to_skip = offset;
    let mut remaining = n;
    Box::new(std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        loop {
            let batch = match input.next()? {
                Ok(b) => b,
                Err(e) => return Some(Err(e)),
            };
            let rows = batch.rows();
            if to_skip >= rows {
                to_skip -= rows;
                continue;
            }
            let start = to_skip;
            to_skip = 0;
            let take = remaining.min(rows - start);
            remaining -= take;
            let out = if start == 0 && take == rows {
                batch
            } else {
                batch.slice(start, take)
            };
            return Some(Ok(out));
        }
    }))
}

/// Remove duplicate rows, streaming in first-occurrence order. Rows are
/// told apart by their canonical encoding (as `encode_row` writes it),
/// decided by the GROUP BY kernel's group table without encoding: a row
/// is hashed a column at a time and compared in place, and only a new
/// row's values are kept. Every batch is a cancellation point and each
/// new row is charged against the query's memory account (its encoded
/// length plus 48 bytes of set entry).
pub fn distinct_batches(input: BatchStream, ctx: ExecContext) -> BatchStream {
    let mut seen: Option<Grouper> = None;
    Box::new(input.filter_map(move |batch| {
        let batch = match batch {
            Ok(b) => b,
            Err(e) => return Some(Err(e)),
        };
        if let Err(e) = ctx.check() {
            return Some(Err(e));
        }
        let seen = seen.get_or_insert_with(|| Grouper::distinct(batch.width()));
        let out = match seen.first_seen(&batch, &ctx) {
            Ok(mask) => batch.retain(&mask),
            Err(e) => return Some(Err(e)),
        };
        if out.is_empty() {
            None
        } else {
            Some(Ok(out))
        }
    }))
}

/// Nested-loop join with an arbitrary predicate over the concatenated
/// row (left columns first). Candidate pairs are generated in
/// left-outer/right-inner order, `batch_rows` at a time, and filtered
/// with one vectorized predicate evaluation per candidate batch. Every
/// candidate batch is one cooperative cancellation point, so even a
/// cross-product aborts within one batch of its deadline.
pub fn nested_loop_join_batches(
    left: BatchStream,
    right: BatchStream,
    predicate: Expr,
    batch_rows: usize,
    ctx: ExecContext,
) -> Result<BatchStream> {
    let left_rows = collect_rows(left)?;
    let right_rows = collect_rows(right)?;
    let width = left_rows.first().map(|r| r.len()).unwrap_or(0)
        + right_rows.first().map(|r| r.len()).unwrap_or(0);
    let (mut li, mut ri) = (0usize, 0usize);
    Ok(Box::new(std::iter::from_fn(move || {
        if right_rows.is_empty() {
            return None;
        }
        loop {
            if li >= left_rows.len() {
                return None;
            }
            if let Err(e) = ctx.check() {
                return Some(Err(e));
            }
            let mut candidates = Batch::new(width);
            while candidates.rows() < batch_rows && li < left_rows.len() {
                let mut row = Vec::with_capacity(width);
                row.extend_from_slice(&left_rows[li]);
                row.extend_from_slice(&right_rows[ri]);
                candidates.push(row);
                ri += 1;
                if ri == right_rows.len() {
                    ri = 0;
                    li += 1;
                }
            }
            let mask = match predicate.eval_batch(&candidates) {
                Ok(vals) => vals.iter().map(|v| v.is_true()).collect::<Vec<_>>(),
                Err(e) => return Some(Err(e)),
            };
            let out = candidates.retain(&mask);
            if !out.is_empty() {
                return Some(Ok(out));
            }
        }
    })))
}

/// Hash equi-join over batches: NULL keys never match, output columns
/// are always left-then-right, output order follows the probe input,
/// and `Auto` builds from the smaller materialised side. The build side
/// is charged against the query's memory account and every build/probe
/// batch is a cancellation point.
pub fn hash_join_batches(
    left: BatchStream,
    right: BatchStream,
    left_col: usize,
    right_col: usize,
    build: BuildSide,
    batch_rows: usize,
    ctx: ExecContext,
) -> Result<BatchStream> {
    let directed = |build, build_col, probe, probe_col, build_is_left| {
        hash_join_directed(
            build,
            build_col,
            probe,
            probe_col,
            build_is_left,
            batch_rows,
            ctx,
        )
    };
    match build {
        BuildSide::Left => directed(left, left_col, right, right_col, true),
        BuildSide::Right => directed(right, right_col, left, left_col, false),
        BuildSide::Auto => {
            // Materialise both sides as batches (no row transposition)
            // just to count rows; the smaller side builds.
            let l = collect_batches(left)?;
            let r = collect_batches(right)?;
            let l_rows: usize = l.iter().map(Batch::rows).sum();
            let r_rows: usize = r.iter().map(Batch::rows).sum();
            let build_left = l_rows <= r_rows;
            let l: BatchStream = Box::new(l.into_iter().map(Ok));
            let r: BatchStream = Box::new(r.into_iter().map(Ok));
            if build_left {
                directed(l, left_col, r, right_col, true)
            } else {
                directed(r, right_col, l, left_col, false)
            }
        }
    }
}

/// Memory charge for one build batch: only rows the table will actually
/// store (non-NULL key), each at 24 bytes of row header + 16 per datum +
/// string payload, plus a 32-byte table entry. An out-of-range key
/// column stores nothing and charges nothing.
fn batch_build_bytes(batch: &Batch, key_col: usize) -> u64 {
    let Some(keys) = batch.column(key_col) else {
        return 0;
    };
    let width = batch.width() as u64;
    let mut valid = 0u64;
    let mut str_bytes = 0u64;
    let mut add_row = |p: usize| {
        if matches!(keys[p], Datum::Null) {
            return;
        }
        valid += 1;
        for col in &batch.columns {
            if let Datum::Str(s) = &col[p] {
                str_bytes += s.len() as u64;
            }
        }
    };
    match &batch.sel {
        None => (0..batch.rows).for_each(&mut add_row),
        Some(sel) => sel.iter().for_each(|&p| add_row(p as usize)),
    }
    (24 + 32 + 16 * width) * valid + str_bytes
}

/// Hash-join core: build a columnar open-addressing table
/// ([`vhash::JoinTable`]) from one input, probe batch-at-a-time. Each
/// probe batch's matches leave in batches of at most `batch_rows` rows
/// (duplicate-heavy keys fan one probe batch out into several);
/// `build_is_left` keeps output columns `left ++ right`.
///
/// Late materialisation: the probe pass produces only
/// `(probe_row, build_row)` index pairs — it touches nothing but the
/// key columns — and every payload column is gathered afterwards in one
/// tight loop per column. Selection vectors on probe batches feed the
/// probe kernel directly; no compaction happens anywhere.
fn hash_join_directed(
    build: BatchStream,
    build_col: usize,
    probe: BatchStream,
    probe_col: usize,
    build_is_left: bool,
    batch_rows: usize,
    ctx: ExecContext,
) -> Result<BatchStream> {
    // Materialise the build side columnar: batches concatenate
    // column-wise, no row round trip.
    let mut build_cols: Vec<Vec<Datum>> = Vec::new();
    for batch in build {
        ctx.check()?;
        let batch = batch?;
        ctx.charge(batch_build_bytes(&batch, build_col))?;
        let (cols, _rows) = batch.into_dense_columns();
        if build_cols.is_empty() {
            build_cols = cols;
        } else {
            for (dst, src) in build_cols.iter_mut().zip(cols) {
                dst.extend(src);
            }
        }
    }
    let build_width = build_cols.len();
    // Out-of-range build column: nothing is stored; no table, no matches.
    let table = build_cols.get(build_col).map(|keys| vhash::JoinTable::build(keys));
    let mut scratch = vhash::ProbeScratch::default();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    // Matches of the current probe batch not yet emitted: the batch and
    // the offset of its next pair.
    let mut pending: Option<(Batch, usize)> = None;
    let mut probe = probe;
    Ok(Box::new(std::iter::from_fn(move || loop {
        if let Some((batch, start)) = pending.take() {
            let end = (start + batch_rows).min(pairs.len());
            let chunk = &pairs[start..end];
            // Late materialisation: gather payload columns only now, one
            // tight loop per output column.
            let mut columns: Vec<Vec<Datum>> = Vec::with_capacity(build_width + batch.width());
            let probe_cols =
                (0..batch.width()).map(|c| vhash::gather_probe(batch.column(c).unwrap(), chunk));
            if build_is_left {
                columns.extend(build_cols.iter().map(|c| vhash::gather_build(c, chunk)));
                columns.extend(probe_cols);
            } else {
                columns.extend(probe_cols);
                columns.extend(build_cols.iter().map(|c| vhash::gather_build(c, chunk)));
            }
            if end < pairs.len() {
                pending = Some((batch, end));
            }
            return Some(Ok(Batch::from_columns(columns, chunk.len())));
        }
        let batch = match probe.next()? {
            Ok(b) => b,
            Err(e) => return Some(Err(e)),
        };
        if let Err(e) = ctx.check() {
            return Some(Err(e));
        }
        let Some(table) = &table else {
            continue;
        };
        // Out-of-range probe column: matches nothing.
        let Some(keys) = batch.column(probe_col) else {
            continue;
        };
        // Match pairs in probe order, build-insertion order per key.
        pairs.clear();
        table.probe_pairs(&build_cols[build_col], keys, batch.sel(), &mut scratch, &mut pairs);
        if !pairs.is_empty() {
            pending = Some((batch, 0));
        }
    })))
}

/// Bench instrumentation: run the columnar hash join once over
/// pre-materialised inputs, probing `batch_rows` rows at a time and
/// timing its three phases separately. Returns
/// `(build, probe, gather, output_rows)`. The row/column transposition
/// at the edges is deliberately untimed — it is shared scaffolding, not
/// part of the join.
pub fn hash_join_phases(
    build_rows: &[Tuple],
    probe_rows: &[Tuple],
    build_col: usize,
    probe_col: usize,
    batch_rows: usize,
) -> (Duration, Duration, Duration, usize) {
    let (build_cols, _) = Batch::from_rows(build_rows.to_vec()).into_dense_columns();
    let (probe_cols, probe_len) = Batch::from_rows(probe_rows.to_vec()).into_dense_columns();
    let t0 = Instant::now();
    let table = vhash::JoinTable::build(&build_cols[build_col]);
    let build_time = t0.elapsed();
    let mut scratch = vhash::ProbeScratch::default();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let (mut probe_time, mut gather_time) = (Duration::ZERO, Duration::ZERO);
    let mut out_rows = 0usize;
    let mut start = 0;
    while start < probe_len {
        let end = (start + batch_rows.max(1)).min(probe_len);
        pairs.clear();
        let t = Instant::now();
        table.probe_pairs(
            &build_cols[build_col],
            &probe_cols[probe_col][start..end],
            None,
            &mut scratch,
            &mut pairs,
        );
        probe_time += t.elapsed();
        let t = Instant::now();
        let mut columns: Vec<Vec<Datum>> = Vec::with_capacity(build_cols.len() + probe_cols.len());
        columns.extend(build_cols.iter().map(|c| vhash::gather_build(c, &pairs)));
        columns.extend(
            probe_cols
                .iter()
                .map(|c| vhash::gather_probe(&c[start..end], &pairs)),
        );
        gather_time += t.elapsed();
        out_rows += pairs.len();
        std::hint::black_box(&columns);
        start = end;
    }
    (build_time, probe_time, gather_time, out_rows)
}

/// Hash-aggregate batches grouped by `group_by` expressions; output rows
/// are `group values ++ aggregate values` in first-seen group order,
/// emitted columnar. The [`Grouper`] kernel maps each batch's rows to
/// group ids in one pass and folds each aggregate through them in
/// another, allocating per new group and per batch, never per row.
/// Every input batch is a cancellation point and each new group (the
/// global one included, once input arrives) is charged once.
pub fn aggregate_batches(
    input: BatchStream,
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    batch_rows: usize,
    ctx: ExecContext,
) -> Result<BatchStream> {
    let mut grouper = Grouper::new(group_by, aggs);
    for batch in input {
        ctx.check()?;
        grouper.push(&batch?, &ctx)?;
    }
    let (columns, rows) = grouper.finish()?;
    Ok(columnar_batches(columns, rows, batch_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::aggregate::AggFunc;
    use crate::exec::expr::BinOp;
    use crate::exec::join::JoinAlgorithm;

    fn rows(vals: &[(i64, &str)]) -> Vec<Tuple> {
        vals.iter()
            .map(|(a, b)| vec![Datum::Int(*a), Datum::Str(b.to_string())])
            .collect()
    }

    fn collect(s: BatchStream) -> Vec<Tuple> {
        collect_rows(s).unwrap()
    }

    #[test]
    fn scan_cuts_exact_batches_across_uneven_pages() {
        /// Page `p` holds `sizes[p]` rows numbered on from the last.
        struct Counted {
            sizes: Vec<usize>,
            next: i64,
        }
        impl PageSource for Counted {
            fn page(&mut self, page: PageId, columns: &mut [Vec<Datum>]) -> Result<usize> {
                let n = self.sizes[page as usize];
                for _ in 0..n {
                    columns[0].push(Datum::Int(self.next));
                    self.next += 1;
                }
                Ok(n)
            }
            fn tail(&mut self, columns: &mut [Vec<Datum>]) -> Result<usize> {
                columns[0].push(Datum::Int(-1));
                Ok(1)
            }
        }
        let sizes = vec![1, 3, 2, 0, 5, 1, 1, 4];
        let total: usize = sizes.iter().sum();
        let mut want: Vec<Tuple> = (0..total as i64).map(|i| vec![Datum::Int(i)]).collect();
        want.push(vec![Datum::Int(-1)]);
        for batch_rows in 1..=total + 2 {
            let source = Counted { sizes: sizes.clone(), next: 0 };
            let pages = (0..sizes.len() as PageId).collect();
            let batches: Vec<Batch> =
                scan_batches(pages, 1, source, batch_rows, ExecContext::default())
                    .collect::<Result<_>>()
                    .unwrap();
            let (last, full) = batches.split_last().unwrap();
            assert!(full.iter().all(|b| b.rows() == batch_rows), "batch {batch_rows}");
            assert!(last.rows() <= batch_rows);
            let got: Vec<Tuple> = batches.into_iter().flat_map(Batch::into_rows).collect();
            assert_eq!(got, want, "batch {batch_rows}");
        }
    }

    #[test]
    fn heap_scan_cuts_exact_batches_in_storage_order() {
        use crate::heap::HeapFile;
        use crate::record::{decode_tuple, decode_tuple_into, encode_tuple};
        use sbdms_storage::buffer::BufferPool;
        use sbdms_storage::services::StorageEngine;
        use std::sync::Arc;

        /// Every live record of each page, as the heap holds it.
        struct HeapPages(Arc<BufferPool>);
        impl PageSource for HeapPages {
            fn page(&mut self, page: PageId, columns: &mut [Vec<Datum>]) -> Result<usize> {
                let mut rows = 0;
                HeapFile::walk_page(&self.0, page, |_, record| {
                    rows += 1;
                    decode_tuple_into(record, columns, None)
                })?;
                Ok(rows)
            }
        }

        let dir = std::env::temp_dir()
            .join("sbdms-batch-tests")
            .join(format!("scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StorageEngine::open(&dir, 8).unwrap();
        let heap = HeapFile::create(engine.buffer.clone()).unwrap();
        let mut rids = Vec::new();
        for i in 0..300i64 {
            // Every 50th row spills to an overflow chain.
            let pad = if i % 50 == 7 { 9000 } else { 40 };
            let row = vec![Datum::Int(i), Datum::Str("p".repeat(pad))];
            rids.push(heap.insert(&encode_tuple(&row)).unwrap());
        }
        for rid in rids.iter().step_by(9) {
            heap.delete(*rid).unwrap();
        }
        let want: Vec<Tuple> = heap
            .scan()
            .unwrap()
            .into_iter()
            .map(|(_, bytes)| decode_tuple(&bytes).unwrap())
            .collect();
        assert!(heap.data_pages().unwrap().len() > 3);
        let pages = heap.data_pages().unwrap();
        for batch_rows in [1usize, 7, 64, 1024] {
            let mut scan = HeapScan {
                pages: pages.clone().into_iter(),
                source: Some(HeapPages(engine.buffer.clone())),
                pending: vec![Vec::new(); 2],
                rows: 0,
                head: 0,
                batch_rows,
                ctx: ExecContext::default(),
            };
            let mut batches = Vec::new();
            while let Some(batch) = scan.next() {
                batches.push(batch.unwrap());
                // Memory stays bounded by one batch plus one page.
                assert!(scan.rows <= batch_rows + 100, "batch {batch_rows}: {}", scan.rows);
            }
            let (last, full) = batches.split_last().unwrap();
            assert!(full.iter().all(|b| b.rows() == batch_rows), "batch {batch_rows}");
            assert!(last.rows() >= 1 && last.rows() <= batch_rows);
            let got: Vec<Tuple> = batches.into_iter().flat_map(Batch::into_rows).collect();
            assert_eq!(got, want, "batch {batch_rows}");
        }
    }

    #[test]
    fn batch_round_trips_rows() {
        let input = rows(&[(1, "a"), (2, "b"), (3, "c")]);
        let batch = Batch::from_rows(input.clone());
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.width(), 2);
        assert_eq!(batch.column(0).unwrap()[1], Datum::Int(2));
        assert_eq!(batch.row(2), input[2]);
        assert_eq!(batch.into_rows(), input);
    }

    #[test]
    fn values_batches_chunk_at_capacity() {
        let input: Vec<Tuple> = (0..10).map(|i| vec![Datum::Int(i)]).collect();
        let batches: Vec<Batch> = values_batches(input.clone(), 4)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(
            batches.iter().map(Batch::rows).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let flat: Vec<Tuple> = batches.into_iter().flat_map(Batch::into_rows).collect();
        assert_eq!(flat, input);
    }

    #[test]
    fn encode_row_matches_tuple_encoding() {
        let batch = Batch::from_rows(vec![vec![
            Datum::Int(7),
            Datum::Null,
            Datum::Str("x".into()),
        ]]);
        assert_eq!(batch.encode_row(0), crate::record::encode_tuple(&batch.row(0)));
    }

    #[test]
    fn filter_retains_true_rows_in_order() {
        let input = values_batches(rows(&[(1, "a"), (5, "b"), (3, "c")]), 2);
        let out = collect(filter_batches(input, Expr::col(0).ge(Expr::int(3))));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][0], Datum::Int(5));
        assert_eq!(out[1][0], Datum::Int(3));
    }

    #[test]
    fn selection_vector_edge_cases() {
        let input = rows(&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let b = Batch::from_rows(input.clone());
        // All-pass retain is free and stays dense.
        let all = b.clone().retain(&[true; 4]);
        assert!(all.sel().is_none());
        assert_eq!(all.rows(), 4);
        // None-pass.
        let none = b.clone().retain(&[false; 4]);
        assert!(none.is_empty());
        assert!(none.into_rows().is_empty());
        // Single survivor: logical accessors all see only that row.
        let one = b.clone().retain(&[false, false, true, false]);
        assert_eq!(one.rows(), 1);
        assert_eq!(one.row(0), input[2]);
        assert_eq!(one.encode_row(0), crate::record::encode_tuple(&input[2]));
        // Selecting within a selection composes through logical rows.
        let composed = b.clone().select(vec![0, 2, 3]).select(vec![1, 2]);
        assert_eq!(
            composed.into_rows(),
            vec![input[2].clone(), input[3].clone()]
        );
        // Slicing a selected batch is logical too.
        let sl = b.clone().select(vec![1, 2, 3]).slice(1, 2);
        assert_eq!(sl.into_rows(), vec![input[2].clone(), input[3].clone()]);
        // Flatten gathers to a dense batch.
        let flat = b.select(vec![1, 3]).flatten();
        assert!(flat.sel().is_none());
        let (cols, n) = flat.into_dense_columns();
        assert_eq!(n, 2);
        assert_eq!(cols[0], vec![Datum::Int(2), Datum::Int(4)]);
    }

    #[test]
    fn join_consumes_filtered_selection_batches() {
        // The filter emits a selection vector; the join's probe and
        // build paths must both read through it.
        let users: Vec<Tuple> = vec![
            vec![Datum::Int(1), Datum::Str("alice".into())],
            vec![Datum::Int(2), Datum::Str("bob".into())],
            vec![Datum::Int(3), Datum::Str("carol".into())],
        ];
        let orders: Vec<Tuple> = vec![
            vec![Datum::Int(10), Datum::Int(1)],
            vec![Datum::Int(11), Datum::Int(3)],
            vec![Datum::Int(12), Datum::Int(2)],
            vec![Datum::Int(13), Datum::Int(3)],
        ];
        for build in [BuildSide::Left, BuildSide::Right] {
            let filtered = filter_batches(
                values_batches(orders.clone(), 3),
                Expr::col(1).ge(Expr::int(2)),
            );
            let out = collect(
                hash_join_batches(
                    values_batches(users.clone(), 2),
                    filtered,
                    0,
                    1,
                    build,
                    BATCH_ROWS,
                    ExecContext::default(),
                )
                .unwrap(),
            );
            // Output follows probe order: with build=Left the filtered
            // orders are probed (order 11, 12, 13); with build=Right the
            // users are probed (bob's order first).
            let expected = match build {
                BuildSide::Left => vec![
                    vec![
                        Datum::Int(3),
                        Datum::Str("carol".into()),
                        Datum::Int(11),
                        Datum::Int(3),
                    ],
                    vec![
                        Datum::Int(2),
                        Datum::Str("bob".into()),
                        Datum::Int(12),
                        Datum::Int(2),
                    ],
                    vec![
                        Datum::Int(3),
                        Datum::Str("carol".into()),
                        Datum::Int(13),
                        Datum::Int(3),
                    ],
                ],
                _ => vec![
                    vec![
                        Datum::Int(2),
                        Datum::Str("bob".into()),
                        Datum::Int(12),
                        Datum::Int(2),
                    ],
                    vec![
                        Datum::Int(3),
                        Datum::Str("carol".into()),
                        Datum::Int(11),
                        Datum::Int(3),
                    ],
                    vec![
                        Datum::Int(3),
                        Datum::Str("carol".into()),
                        Datum::Int(13),
                        Datum::Int(3),
                    ],
                ],
            };
            assert_eq!(out, expected, "{build:?}");
        }
    }

    #[test]
    fn hash_join_phases_counts_output() {
        let build: Vec<Tuple> = (0..100).map(|i| vec![Datum::Int(i % 10)]).collect();
        let probe: Vec<Tuple> = (0..50).map(|i| vec![Datum::Int(i % 10)]).collect();
        for batch_rows in [1, 7, BATCH_ROWS] {
            let (_, _, _, out_rows) = hash_join_phases(&build, &probe, 0, 0, batch_rows);
            assert_eq!(out_rows, 500);
        }
    }

    #[test]
    fn project_computes_columns() {
        let input = values_batches(rows(&[(2, "x"), (3, "y")]), BATCH_ROWS);
        let out = collect(project_batches(
            input,
            vec![
                Expr::col(1),
                Expr::bin(BinOp::Mul, Expr::col(0), Expr::int(10)),
            ],
        ));
        assert_eq!(out[0], vec![Datum::Str("x".into()), Datum::Int(20)]);
        assert_eq!(out[1], vec![Datum::Str("y".into()), Datum::Int(30)]);
    }

    #[test]
    fn limit_slices_across_batches() {
        let input: Vec<Tuple> = (0..10).map(|i| vec![Datum::Int(i)]).collect();
        let out = collect(limit_batches(values_batches(input, 3), 4, 5));
        assert_eq!(
            out,
            (5..9).map(|i| vec![Datum::Int(i)]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_first_seen_order_across_batches() {
        let input = values_batches(rows(&[(1, "a"), (2, "b"), (1, "a"), (1, "c")]), 2);
        let out = collect(distinct_batches(input, ExecContext::default()));
        assert_eq!(out.len(), 3);
        assert_eq!(out[0][0], Datum::Int(1));
        assert_eq!(out[1][0], Datum::Int(2));
    }

    #[test]
    fn joins_match_naive_reference() {
        let users: Vec<Tuple> = vec![
            vec![Datum::Int(1), Datum::Str("alice".into())],
            vec![Datum::Int(2), Datum::Str("bob".into())],
            vec![Datum::Null, Datum::Str("ghost".into())],
        ];
        let orders: Vec<Tuple> = vec![
            vec![Datum::Int(10), Datum::Int(1)],
            vec![Datum::Int(11), Datum::Int(1)],
            vec![Datum::Int(12), Datum::Null],
            vec![Datum::Int(13), Datum::Int(2)],
        ];
        // Reference: a plain nested loop over the rows, SQL equality
        // (NULL never matches), left columns first.
        let mut expected: Vec<Tuple> = Vec::new();
        for u in &users {
            for o in &orders {
                if u[0].sql_eq(&o[1]) {
                    expected.push(u.iter().chain(o).cloned().collect());
                }
            }
        }
        expected.sort_by(|a, b| crate::sort::compare_tuples(a, b, &[SortKey::asc(2)]));
        assert_eq!(expected.len(), 3);
        let engine = super::super::VectorEngine::default();
        for algo in [JoinAlgorithm::Hash, JoinAlgorithm::NestedLoop] {
            let mut out = collect(
                engine
                    .equi_join(
                        algo,
                        values_batches(users.clone(), 2),
                        values_batches(orders.clone(), 3),
                        0,
                        1,
                        2,
                        BuildSide::Auto,
                    )
                    .unwrap(),
            );
            out.sort_by(|a, b| crate::sort::compare_tuples(a, b, &[SortKey::asc(2)]));
            assert_eq!(
                out, expected,
                "{algo:?} must match the nested-loop reference"
            );
        }
    }

    #[test]
    fn aggregate_matches_naive_reference() {
        let sales: Vec<Tuple> = vec![
            vec![Datum::Str("eu".into()), Datum::Int(10)],
            vec![Datum::Str("us".into()), Datum::Int(20)],
            vec![Datum::Str("eu".into()), Datum::Null],
            vec![Datum::Str("eu".into()), Datum::Float(0.5)],
        ];
        let aggs = || {
            vec![
                AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                AggSpec::new(AggFunc::Count, Expr::col(1)),
                AggSpec::new(AggFunc::Sum, Expr::col(1)),
                AggSpec::new(AggFunc::Avg, Expr::col(1)),
                AggSpec::new(AggFunc::Min, Expr::col(1)),
                AggSpec::new(AggFunc::Max, Expr::col(1)),
            ]
        };
        // Reference: group with a BTreeMap (by display text, first-seen
        // order kept separately) and fold each group by hand.
        let reference = |grouped: bool| -> Vec<Tuple> {
            let mut order: Vec<String> = Vec::new();
            let mut groups: std::collections::BTreeMap<String, Vec<&Tuple>> =
                std::collections::BTreeMap::new();
            for row in &sales {
                let key = if grouped {
                    row[0].to_string()
                } else {
                    String::new()
                };
                if !groups.contains_key(&key) {
                    order.push(key.clone());
                }
                groups.entry(key).or_default().push(row);
            }
            order
                .iter()
                .map(|key| {
                    let rows = &groups[key];
                    let vals: Vec<f64> = rows
                        .iter()
                        .filter_map(|r| match r[1] {
                            Datum::Int(i) => Some(i as f64),
                            Datum::Float(x) => Some(x),
                            _ => None,
                        })
                        .collect();
                    let all_int = rows.iter().all(|r| !matches!(r[1], Datum::Float(_)));
                    let sum = vals.iter().sum::<f64>();
                    let pick = |want_min: bool| {
                        let mut best: Option<Datum> = None;
                        for r in rows.iter().filter(|r| !r[1].is_null()) {
                            let better = best.as_ref().is_none_or(|b| {
                                let c = r[1].order(b);
                                if want_min {
                                    c.is_lt()
                                } else {
                                    c.is_gt()
                                }
                            });
                            if better {
                                best = Some(r[1].clone());
                            }
                        }
                        best.unwrap_or(Datum::Null)
                    };
                    let mut out = if grouped {
                        vec![rows[0][0].clone()]
                    } else {
                        vec![]
                    };
                    out.extend([
                        Datum::Int(rows.len() as i64),
                        Datum::Int(vals.len() as i64),
                        if all_int {
                            Datum::Int(sum as i64)
                        } else {
                            Datum::Float(sum)
                        },
                        Datum::Float(sum / vals.len() as f64),
                        pick(true),
                        pick(false),
                    ]);
                    out
                })
                .collect()
        };
        for (group_by, grouped) in [(vec![], false), (vec![Expr::col(0)], true)] {
            for batch_rows in [1, 2, BATCH_ROWS] {
                let out = collect(
                    aggregate_batches(
                        values_batches(sales.clone(), batch_rows),
                        group_by.clone(),
                        aggs(),
                        batch_rows,
                        ExecContext::default(),
                    )
                    .unwrap(),
                );
                assert_eq!(out, reference(grouped), "batch {batch_rows}");
            }
        }
        // The literal answer for the EU group, as a spot check of the
        // reference itself.
        assert_eq!(
            reference(true)[0],
            vec![
                Datum::Str("eu".into()),
                Datum::Int(3),
                Datum::Int(2),
                Datum::Float(10.5),
                Datum::Float(5.25),
                Datum::Float(0.5),
                Datum::Int(10),
            ]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_identity_row() {
        let out = collect(
            aggregate_batches(
                values_batches(vec![], BATCH_ROWS),
                vec![],
                vec![
                    AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                    AggSpec::new(AggFunc::Sum, Expr::col(0)),
                ],
                BATCH_ROWS,
                ExecContext::default(),
            )
            .unwrap(),
        );
        assert_eq!(out, vec![vec![Datum::Int(0), Datum::Null]]);
    }

    #[test]
    fn eval_batch_matches_row_eval() {
        let input = vec![
            vec![Datum::Int(1), Datum::Null, Datum::Str("ab".into())],
            vec![Datum::Int(5), Datum::Int(5), Datum::Str("cd".into())],
            vec![Datum::Null, Datum::Int(2), Datum::Str("ab".into())],
        ];
        let exprs = vec![
            Expr::col(0).eq(Expr::int(5)),
            Expr::col(0).lt(Expr::col(1)),
            Expr::bin(BinOp::Add, Expr::col(0), Expr::col(1)),
            Expr::bin(BinOp::Like, Expr::col(2), Expr::str("a%")),
            Expr::col(0).ge(Expr::int(2)).and(Expr::col(1).eq(Expr::int(2))),
            Expr::Unary(super::super::expr::UnaryOp::IsNull, Box::new(Expr::col(1))),
        ];
        let batch = Batch::from_rows(input.clone());
        for e in exprs {
            let vectorized = e.eval_batch(&batch).unwrap();
            let scalar: Vec<Datum> = input.iter().map(|t| e.eval(t).unwrap()).collect();
            assert_eq!(vectorized, scalar, "{e:?}");
        }
    }

    #[test]
    fn eval_batch_propagates_errors() {
        let batch = Batch::from_rows(vec![vec![Datum::Int(1)]]);
        assert!(Expr::col(9).eval_batch(&batch).is_err());
        assert!(Expr::bin(BinOp::Div, Expr::col(0), Expr::int(0))
            .eval_batch(&batch)
            .is_err());
    }
}
