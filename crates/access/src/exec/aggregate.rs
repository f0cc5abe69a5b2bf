//! Grouped aggregation: the aggregate functions, the grouping table and
//! the typed per-group state columns the batch kernel folds into.
//!
//! A [`Grouper`] consumes one batch at a time in two passes. The first
//! maps every logical row to a dense group id: it hashes the key columns
//! a column at a time, then probes a [`GroupTable`] (open addressing over
//! group ids) a row at a time. Group identity is the bytes
//! `Datum::encode_into` writes, so NULLs form one group and `Int 1` and
//! `Float 1.0` stay apart; [`same_key`] decides it without encoding. The
//! second pass folds each aggregate's argument column through those ids
//! in one typed loop per aggregate. Memory is allocated per new group
//! and per batch, never per row: a bare column is read in place, and
//! COUNT, SUM and AVG clone no `Datum`. A global aggregate (no GROUP BY)
//! is the same kernel with every row in group 0.
//!
//! NULLs are ignored by all aggregates except `CountAll` (SQL
//! semantics); an empty input with no grouping yields one row of
//! aggregate identities. SUM over INT values is exact: it accumulates in
//! an `i128`, and a total outside INT is an `InvalidInput` error. A SUM
//! that sees a FLOAT returns the `f64` total of its values in row order.
//!
//! Errors come in the order a row-at-a-time loop would raise them: a
//! group's memory charge before any aggregate of its first row, and
//! within a row, aggregates in order.

use sbdms_kernel::error::{Result, ServiceError};

use super::batch::Batch;
use super::column::Column;
use super::expr::Expr;
use super::vhash;
use super::ExecContext;
use crate::record::{Datum, DatumRef};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) — counts rows, including NULL inputs.
    CountAll,
    /// COUNT(expr) — counts non-NULL values.
    Count,
    /// SUM(expr).
    Sum,
    /// AVG(expr).
    Avg,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
}

/// One aggregate column specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// The argument (ignored for `CountAll`).
    pub arg: Expr,
}

impl AggSpec {
    /// Shorthand constructor.
    pub fn new(func: AggFunc, arg: Expr) -> AggSpec {
        AggSpec { func, arg }
    }
}

/// Memory charge for one new group: its encoded key length counted
/// twice, the group tuple (24 bytes of header + 16 per datum + string
/// payload), and 48 bytes per aggregate state. The formula is older than
/// this table and kept as it was, so a query's accounting, and every
/// limit tuned to it, does not move.
fn group_bytes<'a>(key_len: usize, group: impl Iterator<Item = DatumRef<'a>>, aggs: usize) -> u64 {
    let tuple: u64 = 24
        + group
            .map(|d| {
                16 + match d {
                    DatumRef::Str(s) => s.len() as u64,
                    _ => 0,
                }
            })
            .sum::<u64>();
    2 * key_len as u64 + tuple + 48 * aggs as u64
}

/// One key or argument column of a batch, read at logical rows. A bare
/// column reference reads the batch's typed column in place through its
/// selection; any other expression is evaluated once for the whole
/// batch into a dense column.
struct Arg<'b> {
    col: std::borrow::Cow<'b, Column>,
    sel: Option<&'b [u32]>,
}

impl<'b> Arg<'b> {
    /// `e` over `batch`, with the errors `Expr::eval_batch` raises.
    fn of(e: &Expr, batch: &'b Batch) -> Result<Arg<'b>> {
        Ok(match e {
            Expr::Col(i) => Arg {
                col: std::borrow::Cow::Borrowed(batch.try_column(*i)?),
                sel: batch.sel(),
            },
            _ => Arg {
                col: std::borrow::Cow::Owned(e.eval_column(batch)?),
                sel: None,
            },
        })
    }

    /// Physical row of logical row `r`.
    #[inline]
    fn phys(&self, r: usize) -> usize {
        self.sel.map_or(r, |sel| sel[r] as usize)
    }

    /// Logical row `r`.
    #[inline]
    fn get(&self, r: usize) -> DatumRef<'_> {
        self.col.get(self.phys(r))
    }
}

/// Empty directory slot.
const EMPTY: u32 = u32::MAX;

/// Whether two values encode to the same bytes under
/// `Datum::encode_into`: the identity of a group key column. NULL
/// equals NULL, a FLOAT compares by its bits, and no value of one type
/// equals a value of another.
#[inline]
fn same_key(a: DatumRef, b: DatumRef) -> bool {
    match (a, b) {
        (DatumRef::Null, DatumRef::Null) => true,
        (DatumRef::Bool(x), DatumRef::Bool(y)) => x == y,
        (DatumRef::Int(x), DatumRef::Int(y)) => x == y,
        (DatumRef::Float(x), DatumRef::Float(y)) => x.to_bits() == y.to_bits(),
        (DatumRef::Str(x), DatumRef::Str(y)) => x == y,
        _ => false,
    }
}

/// Group keys to dense group ids, in first-seen order: a power-of-two
/// directory of group ids probed linearly, at most half full. Each
/// group's hash is kept, so a probe compares key values only on a full
/// hash match and growth rehashes nothing. The table holds no key of
/// its own: a group's key is its values in the [`Grouper`]'s output
/// columns, which the caller compares.
struct GroupTable {
    hashes: Vec<u64>,
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
}

impl GroupTable {
    fn new() -> GroupTable {
        GroupTable {
            hashes: Vec::new(),
            slots: Vec::new(),
            shift: 64,
        }
    }

    /// The group with `hash` whose key `is_key` accepts, or the slot a
    /// new group would take. Grows first when one more group would pass
    /// half full, so the slot stays valid for [`GroupTable::insert`].
    #[inline]
    fn find(
        &mut self,
        hash: u64,
        is_key: impl Fn(usize) -> bool,
    ) -> std::result::Result<u32, usize> {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut s = (hash >> self.shift) as usize;
        loop {
            let g = self.slots[s];
            if g == EMPTY {
                return Err(s);
            }
            if self.hashes[g as usize] == hash && is_key(g as usize) {
                return Ok(g);
            }
            s = (s + 1) & mask;
        }
    }

    /// Add the next group at the slot [`GroupTable::find`] returned.
    fn insert(&mut self, slot: usize, hash: u64) -> u32 {
        let g = self.hashes.len() as u32;
        self.slots[slot] = g;
        self.hashes.push(hash);
        g
    }

    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(16);
        self.shift = 64 - slots.trailing_zeros();
        self.slots = vec![EMPTY; slots];
        let mask = slots - 1;
        for (g, &hash) in self.hashes.iter().enumerate() {
            let mut s = (hash >> self.shift) as usize;
            while self.slots[s] != EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = g as u32;
        }
    }
}

/// What a SUM group has seen; the order is the promotion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Seen {
    Nothing,
    Ints,
    Float,
}

/// The running state of one aggregate for every group: typed vectors
/// indexed by group id.
enum States {
    Count(Vec<i64>),
    Sum {
        ints: Vec<i128>,
        floats: Vec<f64>,
        seen: Vec<Seen>,
    },
    Avg {
        totals: Vec<f64>,
        counts: Vec<i64>,
    },
    /// NULL while a group has seen no value.
    MinMax {
        best: Vec<Datum>,
        is_min: bool,
    },
}

/// A fold error and the logical row it happened at.
type RowError = (usize, ServiceError);

fn not_a_number(func: &str, value: DatumRef) -> ServiceError {
    ServiceError::InvalidInput(format!("{func} requires numbers, got {}", value.to_owned()))
}

impl States {
    fn new(func: AggFunc) -> States {
        match func {
            AggFunc::CountAll | AggFunc::Count => States::Count(Vec::new()),
            AggFunc::Sum => States::Sum {
                ints: Vec::new(),
                floats: Vec::new(),
                seen: Vec::new(),
            },
            AggFunc::Avg => States::Avg {
                totals: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => States::MinMax {
                best: Vec::new(),
                is_min: func == AggFunc::Min,
            },
        }
    }

    /// Append the identity state of one new group.
    fn push_group(&mut self) {
        match self {
            States::Count(n) => n.push(0),
            States::Sum { ints, floats, seen } => {
                ints.push(0);
                floats.push(0.0);
                seen.push(Seen::Nothing);
            }
            States::Avg { totals, counts } => {
                totals.push(0.0);
                counts.push(0);
            }
            States::MinMax { best, .. } => best.push(Datum::Null),
        }
    }

    /// COUNT(*): one per row.
    fn count_rows(&mut self, gids: &[u32]) {
        if let States::Count(n) = self {
            for &g in gids {
                n[g as usize] += 1;
            }
        }
    }

    /// Fold logical rows `0..gids.len()` of `arg` into their groups.
    /// Stops at the first value the aggregate cannot take. COUNT and SUM
    /// over an INT or FLOAT column loop over the raw values.
    fn fold(&mut self, arg: &Arg, gids: &[u32]) -> std::result::Result<(), RowError> {
        // Every logical row's (row, group, physical row), in row order.
        let rows = || {
            gids.iter()
                .enumerate()
                .map(|(r, &g)| (r, g as usize, arg.phys(r)))
        };
        match (self, &*arg.col) {
            (States::Count(n), col) => {
                for (_, g, p) in rows() {
                    n[g] += !col.is_null(p) as i64;
                }
            }
            (States::Sum { ints, floats, seen }, Column::Int(vals, valid)) => {
                for (_, g, p) in rows() {
                    if valid.get(p) {
                        ints[g] += vals[p] as i128;
                        floats[g] += vals[p] as f64;
                        seen[g] = seen[g].max(Seen::Ints);
                    }
                }
            }
            (States::Sum { floats, seen, .. }, Column::Float(vals, valid)) => {
                for (_, g, p) in rows() {
                    if valid.get(p) {
                        floats[g] += vals[p];
                        seen[g] = Seen::Float;
                    }
                }
            }
            (States::Sum { ints, floats, seen }, col) => {
                for (r, g, p) in rows() {
                    match col.get(p) {
                        DatumRef::Null => {}
                        DatumRef::Int(i) => {
                            ints[g] += i as i128;
                            floats[g] += i as f64;
                            seen[g] = seen[g].max(Seen::Ints);
                        }
                        DatumRef::Float(x) => {
                            floats[g] += x;
                            seen[g] = Seen::Float;
                        }
                        other => return Err((r, not_a_number("SUM", other))),
                    }
                }
            }
            (States::Avg { totals, counts }, col) => {
                for (r, g, p) in rows() {
                    match col.get(p) {
                        DatumRef::Null => continue,
                        DatumRef::Int(i) => totals[g] += i as f64,
                        DatumRef::Float(x) => totals[g] += x,
                        other => return Err((r, not_a_number("AVG", other))),
                    }
                    counts[g] += 1;
                }
            }
            (States::MinMax { best, is_min }, Column::Int(vals, valid)) => {
                for (_, g, p) in rows() {
                    if !valid.get(p) {
                        continue;
                    }
                    let v = vals[p];
                    let b = &mut best[g];
                    let better = match &*b {
                        Datum::Int(x) => (v < *x) == *is_min && v != *x,
                        Datum::Null => true,
                        b => DatumRef::Int(v).order(&b.as_ref()) == min_max_want(*is_min),
                    };
                    if better {
                        *b = Datum::Int(v);
                    }
                }
            }
            (States::MinMax { best, is_min }, col) => {
                let want = min_max_want(*is_min);
                for (_, g, p) in rows() {
                    let value = col.get(p);
                    let b = &mut best[g];
                    if !value.is_null() && (b.is_null() || value.order(&b.as_ref()) == want) {
                        *b = value.to_owned();
                    }
                }
            }
        }
        Ok(())
    }

    /// The aggregate's value for every group, in group order.
    fn finish(self) -> Result<Column> {
        Ok(match self {
            States::Count(n) => Column::Int(n, Default::default()),
            States::Sum { ints, floats, seen } => Column::from_datums(
                ints.into_iter()
                    .zip(floats)
                    .zip(seen)
                    .map(|((int, float), seen)| match seen {
                        Seen::Nothing => Ok(Datum::Null),
                        Seen::Ints => i64::try_from(int).map(Datum::Int).map_err(|_| {
                            ServiceError::InvalidInput(format!(
                                "integer overflow: SUM {int} is out of INT range"
                            ))
                        }),
                        Seen::Float => Ok(Datum::Float(float)),
                    })
                    .collect::<Result<_>>()?,
            ),
            States::Avg { totals, counts } => Column::from_datums(
                totals
                    .into_iter()
                    .zip(counts)
                    .map(|(t, n)| {
                        if n == 0 {
                            Datum::Null
                        } else {
                            Datum::Float(t / n as f64)
                        }
                    })
                    .collect(),
            ),
            States::MinMax { best, .. } => Column::from_datums(best),
        })
    }
}

/// The ordering of a new value against the best so far that makes it
/// the new MIN (`Less`) or MAX (`Greater`).
fn min_max_want(is_min: bool) -> std::cmp::Ordering {
    if is_min {
        std::cmp::Ordering::Less
    } else {
        std::cmp::Ordering::Greater
    }
}

/// What a new group is charged to the query's memory account.
#[derive(Clone, Copy)]
enum Charge {
    /// [`group_bytes`]: a GROUP BY group.
    Group,
    /// A DISTINCT row: its encoded row length (`encode_tuple`'s two
    /// header bytes plus every field) and 48 bytes of set entry.
    Row,
}

/// The grouped-aggregation kernel: fed batch by batch, it keeps the
/// group values and aggregate states of every group seen so far.
/// DISTINCT is the same kernel grouping by every column with no
/// aggregates ([`Grouper::distinct`]).
pub(super) struct Grouper {
    group_by: Vec<Expr>,
    aggs: Vec<AggSpec>,
    charge: Charge,
    table: GroupTable,
    /// One column per GROUP BY expression, indexed by group id.
    keys: Vec<Column>,
    states: Vec<States>,
    groups: usize,
    /// Per-batch scratch: every row's key hash and group id.
    hashes: Vec<u64>,
    gids: Vec<u32>,
}

impl Grouper {
    pub(super) fn new(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Grouper {
        Grouper {
            keys: vec![Column::default(); group_by.len()],
            states: aggs.iter().map(|a| States::new(a.func)).collect(),
            group_by,
            aggs,
            charge: Charge::Group,
            table: GroupTable::new(),
            groups: 0,
            hashes: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// The DISTINCT kernel over rows of `width` columns: every column is
    /// a key, and each new row is charged as [`Charge::Row`].
    pub(super) fn distinct(width: usize) -> Grouper {
        Grouper {
            charge: Charge::Row,
            ..Grouper::new((0..width).map(Expr::col).collect(), Vec::new())
        }
    }

    /// Which of the batch's logical rows are the first of their key,
    /// after every row seen before (DISTINCT's filter). Each new key is
    /// charged to `ctx` as it is met.
    pub(super) fn first_seen(&mut self, batch: &Batch, ctx: &ExecContext) -> Result<Vec<bool>> {
        let cols = self
            .group_by
            .iter()
            .map(|e| Arg::of(e, batch))
            .collect::<Result<Vec<_>>>()?;
        let mut next = self.groups as u32;
        self.map_rows(&cols, batch.rows(), ctx)?;
        // Group ids are handed out in row order: a row is new iff it
        // takes the next id.
        Ok(self
            .gids
            .iter()
            .map(|&g| {
                let new = g == next;
                next += u32::from(new);
                new
            })
            .collect())
    }

    /// Fold one batch in. Each new group is charged to `ctx` with
    /// [`group_bytes`] before any aggregate sees its first row.
    pub(super) fn push(&mut self, batch: &Batch, ctx: &ExecContext) -> Result<()> {
        let group_cols = self
            .group_by
            .iter()
            .map(|e| Arg::of(e, batch))
            .collect::<Result<Vec<_>>>()?;
        let arg_cols = self
            .aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::CountAll => Ok(None),
                _ => Arg::of(&a.arg, batch).map(Some),
            })
            .collect::<Result<Vec<_>>>()?;
        // Pass 1: rows to group ids, stopping at a failed charge.
        let mut error = self.map_rows(&group_cols, batch.rows(), ctx).err();
        // Pass 2: each aggregate over the rows before the earliest error
        // so far, so the error that wins is the one a row-at-a-time loop
        // meets first.
        let mut limit = self.gids.len();
        for (state, arg) in self.states.iter_mut().zip(&arg_cols) {
            let gids = &self.gids[..limit];
            let folded = match arg {
                None => {
                    state.count_rows(gids);
                    Ok(())
                }
                Some(arg) => state.fold(arg, gids),
            };
            if let Err((r, e)) = folded {
                limit = r;
                error = Some(e);
            }
        }
        error.map_or(Ok(()), Err)
    }

    /// Fill `gids` with the group of each of the batch's `rows` logical
    /// rows, creating (and charging) groups on first sight. Keys are
    /// hashed a column at a time, then probed a row at a time.
    fn map_rows(&mut self, group_cols: &[Arg], rows: usize, ctx: &ExecContext) -> Result<()> {
        self.gids.clear();
        if group_cols.is_empty() {
            if rows > 0 && self.groups == 0 {
                ctx.charge(self.new_group_bytes(0, std::iter::empty()))?;
                self.add_group(std::iter::empty());
            }
            self.gids.resize(rows, 0);
            return Ok(());
        }
        self.hashes.clear();
        self.hashes.resize(rows, 0);
        for arg in group_cols {
            match arg.sel {
                None => vhash::hash_column(&mut self.hashes, &arg.col, 0..rows),
                Some(sel) => {
                    vhash::hash_column(&mut self.hashes, &arg.col, sel.iter().map(|&p| p as usize))
                }
            }
        }
        self.gids.reserve(rows);
        for r in 0..rows {
            let keys = &self.keys;
            let is_key = |g: usize| {
                group_cols
                    .iter()
                    .zip(keys)
                    .all(|(c, k)| match (&*c.col, k) {
                        (Column::Int(a, va), Column::Int(b, vb)) if va.all_valid() && vb.all_valid() => {
                            a[c.phys(r)] == b[g]
                        }
                        _ => same_key(c.get(r), k.get(g)),
                    })
            };
            let g = match self.table.find(self.hashes[r], is_key) {
                Ok(g) => g,
                Err(slot) => {
                    let values = group_cols.iter().map(|c| c.get(r));
                    let key_len = values.clone().map(|d| d.encoded_len()).sum();
                    ctx.charge(self.new_group_bytes(key_len, values.clone()))?;
                    self.add_group(values);
                    self.table.insert(slot, self.hashes[r])
                }
            };
            self.gids.push(g);
        }
        Ok(())
    }

    /// The charge for a new group whose key encodes to `key_len` bytes.
    fn new_group_bytes<'a>(&self, key_len: usize, values: impl Iterator<Item = DatumRef<'a>>) -> u64 {
        match self.charge {
            Charge::Group => group_bytes(key_len, values, self.aggs.len()),
            Charge::Row => 2 + key_len as u64 + 48,
        }
    }

    fn add_group<'a>(&mut self, values: impl Iterator<Item = DatumRef<'a>>) {
        for (dst, v) in self.keys.iter_mut().zip(values) {
            dst.push_ref(v);
        }
        for state in &mut self.states {
            state.push_group();
        }
        self.groups += 1;
    }

    /// The output columns (`group values ++ aggregate values`, one row
    /// per group in first-seen order) and their row count.
    pub(super) fn finish(mut self) -> Result<(Vec<Column>, usize)> {
        if self.group_by.is_empty() && self.groups == 0 {
            self.add_group(std::iter::empty());
        }
        let mut columns = self.keys;
        for state in self.states {
            columns.push(state.finish()?);
        }
        Ok((columns, self.groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::VectorEngine;
    use crate::record::Tuple;

    fn sales() -> Vec<Tuple> {
        // (region, amount)
        vec![
            vec![Datum::Str("eu".into()), Datum::Int(10)],
            vec![Datum::Str("us".into()), Datum::Int(20)],
            vec![Datum::Str("eu".into()), Datum::Int(30)],
            vec![Datum::Str("us".into()), Datum::Null],
            vec![Datum::Str("eu".into()), Datum::Int(2)],
        ]
    }

    /// Aggregate `input` on an engine with two-row batches, so every
    /// group spans batch boundaries.
    fn aggregate(input: Vec<Tuple>, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Result<Vec<Tuple>> {
        let e = VectorEngine {
            batch_rows: 2,
            ..Default::default()
        };
        e.hash_aggregate(e.values(input), group_by, aggs)
            .and_then(|s| e.collect(s))
    }

    fn run(group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Vec<Tuple> {
        aggregate(sales(), group_by, aggs).unwrap()
    }

    #[test]
    fn grouped_count_sum_avg() {
        let rows = run(
            vec![Expr::col(0)],
            vec![
                AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                AggSpec::new(AggFunc::Count, Expr::col(1)),
                AggSpec::new(AggFunc::Sum, Expr::col(1)),
                AggSpec::new(AggFunc::Avg, Expr::col(1)),
            ],
        );
        assert_eq!(rows.len(), 2);
        // First-seen order: eu then us.
        assert_eq!(rows[0][0], Datum::Str("eu".into()));
        assert_eq!(rows[0][1], Datum::Int(3)); // count(*)
        assert_eq!(rows[0][2], Datum::Int(3)); // count(amount)
        assert_eq!(rows[0][3], Datum::Int(42)); // sum
        assert_eq!(rows[0][4], Datum::Float(14.0)); // avg

        assert_eq!(rows[1][0], Datum::Str("us".into()));
        assert_eq!(rows[1][1], Datum::Int(2)); // count(*) includes the NULL row
        assert_eq!(rows[1][2], Datum::Int(1)); // count(amount) skips it
        assert_eq!(rows[1][3], Datum::Int(20));
    }

    #[test]
    fn min_max() {
        let rows = run(
            vec![],
            vec![
                AggSpec::new(AggFunc::Min, Expr::col(1)),
                AggSpec::new(AggFunc::Max, Expr::col(1)),
            ],
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Datum::Int(2));
        assert_eq!(rows[0][1], Datum::Int(30));
    }

    #[test]
    fn empty_input_global_aggregate() {
        let rows = aggregate(
            vec![],
            vec![],
            vec![
                AggSpec::new(AggFunc::CountAll, Expr::int(0)),
                AggSpec::new(AggFunc::Sum, Expr::col(0)),
                AggSpec::new(AggFunc::Min, Expr::col(0)),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Datum::Int(0));
        assert_eq!(rows[0][1], Datum::Null);
        assert_eq!(rows[0][2], Datum::Null);
    }

    #[test]
    fn empty_input_grouped_yields_nothing() {
        let rows = aggregate(
            vec![],
            vec![Expr::col(0)],
            vec![AggSpec::new(AggFunc::CountAll, Expr::int(0))],
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn float_sum_promotes() {
        let input = vec![vec![Datum::Int(1)], vec![Datum::Float(0.5)]];
        for group_by in [vec![], vec![Expr::int(0)]] {
            let rows = aggregate(
                input.clone(),
                group_by,
                vec![AggSpec::new(AggFunc::Sum, Expr::col(0))],
            )
            .unwrap();
            assert_eq!(rows[0].last(), Some(&Datum::Float(1.5)));
        }
    }

    #[test]
    fn sum_of_strings_errors() {
        let input = vec![vec![Datum::Str("x".into())]];
        for group_by in [vec![], vec![Expr::int(0)]] {
            let result = aggregate(
                input.clone(),
                group_by,
                vec![AggSpec::new(AggFunc::Sum, Expr::col(0))],
            );
            assert!(result.is_err());
        }
    }

    #[test]
    fn null_group_key_groups_together() {
        let input = vec![
            vec![Datum::Null, Datum::Int(1)],
            vec![Datum::Null, Datum::Int(2)],
            vec![Datum::Null, Datum::Int(3)],
        ];
        let rows = aggregate(
            input,
            vec![Expr::col(0)],
            vec![AggSpec::new(AggFunc::CountAll, Expr::int(0))],
        )
        .unwrap();
        assert_eq!(rows, vec![vec![Datum::Null, Datum::Int(3)]]);
    }
}
