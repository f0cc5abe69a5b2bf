//! External merge sort over encoded tuples.
//!
//! Paper §3.1 assigns "sorting of record sets" to the access layer. Runs
//! that exceed the configured memory budget spill to temporary run files
//! and are k-way merged back; small inputs sort entirely in memory.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::governor::ExecContext;

use crate::record::{decode_tuple, encode_tuple, Datum, Tuple};

/// Tuples between cooperative cancellation checks in the accumulate and
/// merge loops (mirrors `exec::CANCEL_QUANTUM`; kept local because this
/// module sits below `exec`).
const CANCEL_EVERY: usize = 256;

/// Disambiguates spill files created in the same instant (parallel sort
/// workers spill concurrently within one process).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Encoded bytes of `tuples`, extrapolated from at most 64 evenly
/// spaced rows so that choosing workers costs no pass over the input.
fn estimated_bytes(tuples: &[Tuple]) -> usize {
    let sample = tuples.iter().step_by(tuples.len().div_ceil(64).max(1));
    let sampled = sample.len();
    if sampled == 0 {
        return 0;
    }
    // A tuple encodes a 2-byte field count, then its fields.
    let bytes: usize = sample
        .map(|t| 2 + t.iter().map(Datum::encoded_len).sum::<usize>())
        .sum();
    bytes * tuples.len() / sampled
}

/// Sort direction per key column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (NULLs first, per `Datum::order`).
    Asc,
    /// Descending.
    Desc,
}

/// One sort key: column index + direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column index within the tuple.
    pub column: usize,
    /// Direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending key on a column.
    pub fn asc(column: usize) -> SortKey {
        SortKey {
            column,
            order: SortOrder::Asc,
        }
    }

    /// Descending key on a column.
    pub fn desc(column: usize) -> SortKey {
        SortKey {
            column,
            order: SortOrder::Desc,
        }
    }
}

/// Compare two tuples under a key list.
pub fn compare_tuples(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> std::cmp::Ordering {
    for key in keys {
        let da = a.get(key.column).unwrap_or(&Datum::Null);
        let db = b.get(key.column).unwrap_or(&Datum::Null);
        let c = da.order(db);
        let c = match key.order {
            SortOrder::Asc => c,
            SortOrder::Desc => c.reverse(),
        };
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

/// External merge sorter with a bounded in-memory budget.
pub struct ExternalSorter {
    /// Maximum bytes of tuple data held in memory before spilling.
    memory_budget: usize,
    spill_dir: PathBuf,
    /// Cancellation + memory accounting; the default context is
    /// unlimited and never cancels, so unmanaged callers pay nothing.
    ctx: ExecContext,
}

impl ExternalSorter {
    /// Sorter spilling to the system temp directory.
    pub fn new(memory_budget: usize) -> ExternalSorter {
        ExternalSorter {
            memory_budget: memory_budget.max(1),
            spill_dir: std::env::temp_dir().join("sbdms-sort-spill"),
            ctx: ExecContext::default(),
        }
    }

    /// Attach a governor context: the accumulate and merge loops become
    /// cancellation points, and in-memory run bytes are charged against
    /// the query's memory account — a failed charge spills the run
    /// early instead of failing the query (sort is the one operator
    /// that can always trade memory for disk).
    pub fn with_context(mut self, ctx: ExecContext) -> ExternalSorter {
        self.ctx = ctx;
        self
    }

    /// Sort tuples by `keys`, stable within equal keys. Statistics about
    /// spilled runs are returned alongside the data.
    pub fn sort(&self, tuples: Vec<Tuple>, keys: &[SortKey]) -> Result<SortOutput> {
        // Estimate memory as encoded size (stable, deterministic).
        let mut run: Vec<(Vec<u8>, Tuple)> = Vec::new();
        let mut run_bytes = 0usize;
        // Bytes of the current run actually reserved with the governor;
        // returned to the account whenever the run spills.
        let mut charged = 0u64;
        let mut run_files: Vec<PathBuf> = Vec::new();

        std::fs::create_dir_all(&self.spill_dir)?;
        for (i, tuple) in tuples.into_iter().enumerate() {
            if i % CANCEL_EVERY == 0 {
                self.ctx.check()?;
            }
            let enc = encode_tuple(&tuple);
            run_bytes += enc.len();
            let over_account = !self.ctx.try_charge(enc.len() as u64);
            if !over_account {
                charged += enc.len() as u64;
            }
            run.push((enc, tuple));
            if run_bytes > self.memory_budget || over_account {
                run_files.push(self.spill_run(&mut run, keys)?);
                run_bytes = 0;
                self.ctx.release(charged);
                charged = 0;
            }
        }

        if run_files.is_empty() {
            // Pure in-memory sort.
            let mut tuples: Vec<Tuple> = run.into_iter().map(|(_, t)| t).collect();
            tuples.sort_by(|a, b| compare_tuples(a, b, keys));
            return Ok(SortOutput {
                tuples,
                spilled_runs: 0,
            });
        }
        if !run.is_empty() {
            run_files.push(self.spill_run(&mut run, keys)?);
            self.ctx.release(charged);
        }

        // K-way merge of the run files.
        let spilled_runs = run_files.len();
        let mut readers: Vec<RunReader> = run_files
            .iter()
            .map(RunReader::open)
            .collect::<Result<_>>()?;
        let mut heads: Vec<Option<Tuple>> = readers
            .iter_mut()
            .map(|r| r.next_tuple())
            .collect::<Result<_>>()?;

        let mut out = Vec::new();
        loop {
            // The k-way merge is the long tail of a spilled sort; every
            // CANCEL_EVERY merged tuples is one cancellation point.
            if out.len() % CANCEL_EVERY == 0 {
                self.ctx.check()?;
            }
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(t) = head {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            compare_tuples(t, heads[b].as_ref().unwrap(), keys)
                                == std::cmp::Ordering::Less
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            let Some(i) = best else { break };
            let tuple = heads[i].take().unwrap();
            out.push(tuple);
            heads[i] = readers[i].next_tuple()?;
        }

        for f in run_files {
            let _ = std::fs::remove_file(f);
        }
        Ok(SortOutput {
            tuples: out,
            spilled_runs,
        })
    }

    /// Workers [`ExternalSorter::sort_auto`] uses for `tuples`: one while
    /// their encoded size fits the memory budget, else one per budget
    /// they fill (rounded up), capped by the cores this process may use.
    /// An input that fits sorts in memory, where splitting it costs
    /// chunk copies and a second merge for little gain; past the budget
    /// the serial sort spills, and sorting and spilling the chunks side
    /// by side wins. The A1 `ORDER BY` row measures the crossover
    /// (EXPERIMENTS §A1).
    pub fn workers_for(&self, tuples: &[Tuple]) -> usize {
        let bytes = estimated_bytes(tuples);
        if bytes <= self.memory_budget {
            return 1;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        bytes.div_ceil(self.memory_budget).min(cores)
    }

    /// Sort with as many workers as the input's size earns
    /// ([`ExternalSorter::workers_for`]). The output is exactly
    /// [`ExternalSorter::sort`]'s.
    pub fn sort_auto(&self, tuples: Vec<Tuple>, keys: &[SortKey]) -> Result<SortOutput> {
        let workers = self.workers_for(&tuples);
        self.sort_parallel(tuples, keys, workers)
    }

    /// Sort with a small worker pool: the input splits into contiguous
    /// chunks, one sorter (with a proportional share of the memory
    /// budget) per chunk, and the sorted chunks merge at the root.
    /// Equal keys preserve input order, exactly like [`ExternalSorter::sort`]:
    /// the merge takes strictly smaller heads only, so the earlier chunk
    /// wins ties. One worker is the serial sort.
    pub fn sort_parallel(
        &self,
        tuples: Vec<Tuple>,
        keys: &[SortKey],
        workers: usize,
    ) -> Result<SortOutput> {
        let workers = workers.min(tuples.len()).max(1);
        if workers == 1 {
            return self.sort(tuples, keys);
        }

        let chunk_size = tuples.len().div_ceil(workers);
        let mut chunks: Vec<Vec<Tuple>> = Vec::with_capacity(workers);
        let mut it = tuples.into_iter();
        loop {
            let chunk: Vec<Tuple> = it.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let share = (self.memory_budget / chunks.len()).max(1);

        let outputs: Vec<SortOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let worker = ExternalSorter {
                        memory_budget: share,
                        spill_dir: self.spill_dir.clone(),
                        ctx: self.ctx.clone(),
                    };
                    scope.spawn(move || worker.sort(chunk, keys))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| ServiceError::Internal("sort worker panicked".into()))?
                })
                .collect::<Result<_>>()
        })?;

        let spilled_runs = outputs.iter().map(|o| o.spilled_runs).sum();
        let mut iters: Vec<std::vec::IntoIter<Tuple>> =
            outputs.into_iter().map(|o| o.tuples.into_iter()).collect();
        let mut heads: Vec<Option<Tuple>> = iters.iter_mut().map(|i| i.next()).collect();
        let mut out = Vec::new();
        loop {
            if out.len() % CANCEL_EVERY == 0 {
                self.ctx.check()?;
            }
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(t) = head {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            compare_tuples(t, heads[b].as_ref().unwrap(), keys)
                                == std::cmp::Ordering::Less
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            let Some(i) = best else { break };
            out.push(heads[i].take().unwrap());
            heads[i] = iters[i].next();
        }
        Ok(SortOutput {
            tuples: out,
            spilled_runs,
        })
    }

    fn spill_run(&self, run: &mut Vec<(Vec<u8>, Tuple)>, keys: &[SortKey]) -> Result<PathBuf> {
        self.ctx.check()?;
        run.sort_by(|(_, a), (_, b)| compare_tuples(a, b, keys));
        let path = self.spill_dir.join(format!(
            "run-{}-{:x}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_err(|e| ServiceError::Internal(e.to_string()))?
                .as_nanos(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w = BufWriter::new(File::create(&path)?);
        for (enc, _) in run.drain(..) {
            w.write_all(&(enc.len() as u32).to_le_bytes())?;
            w.write_all(&enc)?;
        }
        w.flush()?;
        Ok(path)
    }
}

/// Result of a sort: the ordered tuples plus spill statistics.
pub struct SortOutput {
    /// The sorted tuples.
    pub tuples: Vec<Tuple>,
    /// How many runs were spilled to disk (0 = in-memory sort).
    pub spilled_runs: usize,
}

struct RunReader {
    reader: BufReader<File>,
}

impl RunReader {
    fn open(path: &PathBuf) -> Result<RunReader> {
        Ok(RunReader {
            reader: BufReader::new(File::open(path)?),
        })
    }

    fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        let mut len_buf = [0u8; 4];
        match self.reader.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        Ok(Some(decode_tuple(&buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Datum::Int(v)).collect()
    }

    #[test]
    fn in_memory_sort_asc_desc() {
        let sorter = ExternalSorter::new(1 << 20);
        let input = vec![t(&[3, 1]), t(&[1, 2]), t(&[2, 3])];
        let out = sorter.sort(input.clone(), &[SortKey::asc(0)]).unwrap();
        assert_eq!(out.spilled_runs, 0);
        assert_eq!(out.tuples, vec![t(&[1, 2]), t(&[2, 3]), t(&[3, 1])]);

        let out = sorter.sort(input, &[SortKey::desc(0)]).unwrap();
        assert_eq!(out.tuples, vec![t(&[3, 1]), t(&[2, 3]), t(&[1, 2])]);
    }

    #[test]
    fn multi_key_sort() {
        let sorter = ExternalSorter::new(1 << 20);
        let input = vec![t(&[1, 9]), t(&[1, 3]), t(&[0, 5])];
        let out = sorter
            .sort(input, &[SortKey::asc(0), SortKey::desc(1)])
            .unwrap();
        assert_eq!(out.tuples, vec![t(&[0, 5]), t(&[1, 9]), t(&[1, 3])]);
    }

    #[test]
    fn spills_with_tiny_budget() {
        let sorter = ExternalSorter::new(64);
        let input: Vec<Tuple> = (0..500).rev().map(|i| t(&[i, i * 2])).collect();
        let out = sorter.sort(input, &[SortKey::asc(0)]).unwrap();
        assert!(out.spilled_runs > 1, "tiny budget must spill multiple runs");
        assert_eq!(out.tuples.len(), 500);
        for (i, tuple) in out.tuples.iter().enumerate() {
            assert_eq!(tuple[0], Datum::Int(i as i64));
        }
    }

    #[test]
    fn nulls_sort_first() {
        let sorter = ExternalSorter::new(1 << 20);
        let input = vec![
            vec![Datum::Int(1)],
            vec![Datum::Null],
            vec![Datum::Int(0)],
        ];
        let out = sorter.sort(input, &[SortKey::asc(0)]).unwrap();
        assert_eq!(out.tuples[0], vec![Datum::Null]);
    }

    #[test]
    fn empty_and_singleton() {
        let sorter = ExternalSorter::new(16);
        assert!(sorter.sort(vec![], &[SortKey::asc(0)]).unwrap().tuples.is_empty());
        let out = sorter.sort(vec![t(&[9])], &[SortKey::asc(0)]).unwrap();
        assert_eq!(out.tuples, vec![t(&[9])]);
    }

    #[test]
    fn mixed_types_sort_by_datum_order() {
        let sorter = ExternalSorter::new(1 << 20);
        let input = vec![
            vec![Datum::Str("b".into())],
            vec![Datum::Int(5)],
            vec![Datum::Str("a".into())],
            vec![Datum::Float(2.5)],
        ];
        let out = sorter.sort(input, &[SortKey::asc(0)]).unwrap();
        // numerics (2.5 < 5) then strings.
        assert_eq!(out.tuples[0], vec![Datum::Float(2.5)]);
        assert_eq!(out.tuples[1], vec![Datum::Int(5)]);
        assert_eq!(out.tuples[2], vec![Datum::Str("a".into())]);
    }

    #[test]
    fn parallel_sort_matches_serial_and_is_stable() {
        let sorter = ExternalSorter::new(1 << 20);
        // Many duplicate keys with distinct payloads expose any stability
        // loss in the chunk merge.
        let input: Vec<Tuple> = (0..2000i64).map(|i| t(&[i * 7 % 13, i])).collect();
        let serial = sorter.sort(input.clone(), &[SortKey::asc(0)]).unwrap();
        let parallel = sorter.sort_parallel(input, &[SortKey::asc(0)], 4).unwrap();
        assert_eq!(serial.tuples, parallel.tuples);
    }

    #[test]
    fn parallel_sort_spills_under_tiny_budget() {
        let sorter = ExternalSorter::new(256);
        let input: Vec<Tuple> = (0..3000i64).rev().map(|i| t(&[i])).collect();
        let out = sorter.sort_parallel(input, &[SortKey::asc(0)], 4).unwrap();
        assert!(out.spilled_runs > 1, "tiny budget must spill in workers");
        assert_eq!(out.tuples.len(), 3000);
        for (i, tuple) in out.tuples.iter().enumerate() {
            assert_eq!(tuple[0], Datum::Int(i as i64));
        }
    }

    #[test]
    fn parallel_sort_small_input_falls_back() {
        let sorter = ExternalSorter::new(1 << 20);
        let input = vec![t(&[3]), t(&[1]), t(&[2])];
        let out = sorter.sort_parallel(input, &[SortKey::asc(0)], 8).unwrap();
        assert_eq!(out.tuples, vec![t(&[1]), t(&[2]), t(&[3])]);
    }

    #[test]
    fn auto_sort_matches_serial_across_the_crossover() {
        // Each row encodes to 2 + 9 + 9 = 20 bytes, so 200 rows fill the
        // 4 000-byte budget exactly; the sizes straddle that crossover.
        // Keys repeat every 13 rows, so ties must keep input order.
        let sorter = ExternalSorter::new(4_000);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (n, workers) in [(150i64, 1), (200, 1), (201, 2), (2_000, 10)] {
            let input: Vec<Tuple> = (0..n).map(|i| t(&[i * 7 % 13, i])).collect();
            assert_eq!(sorter.workers_for(&input), workers.min(cores), "{n} rows");
            let serial = sorter.sort(input.clone(), &[SortKey::asc(0)]).unwrap();
            let auto = sorter.sort_auto(input, &[SortKey::asc(0)]).unwrap();
            assert_eq!(auto.tuples, serial.tuples, "{n} rows");
        }
    }

    proptest! {
        #[test]
        fn prop_spilled_equals_in_memory(
            vals in proptest::collection::vec((any::<i32>(), any::<i32>()), 0..300)
        ) {
            let input: Vec<Tuple> = vals
                .iter()
                .map(|(a, b)| t(&[*a as i64, *b as i64]))
                .collect();
            let keys = [SortKey::asc(0), SortKey::asc(1)];
            let big = ExternalSorter::new(1 << 24).sort(input.clone(), &keys).unwrap();
            let small = ExternalSorter::new(128).sort(input, &keys).unwrap();
            prop_assert_eq!(big.spilled_runs, 0);
            prop_assert_eq!(big.tuples, small.tuples);
        }
    }
}
