//! Seeded input generation: the loaded data, the answers the workloads
//! must see, and every key stream, partition, rotation and schedule.
//!
//! Everything here is a pure function of the seed and the [`Scale`], so
//! the same seed always produces the same inputs. The server only ever
//! sees the SQL text built from these values.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose. Streams with different labels
    /// are independent, so adding a draw to one stream never shifts
    /// another.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Table sizes. `FULL` is what the benchmark measures; `SMOKE` is the
/// same schema at a size the self-tests build in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows in `t(k, v, pad)`.
    pub t_rows: usize,
    /// Characters in each `pad` value (sets `t`'s size in pages).
    pub pad_len: usize,
    /// Rows in the join dimension `d(dv, w)`; `v` ranges over `0..d_rows`.
    pub d_rows: usize,
    /// Rows in `acct(k, v)`.
    pub acct_rows: usize,
    /// Filter constants drawn per scan shape.
    pub scan_variants: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        t_rows: 40_000,
        pad_len: 40,
        d_rows: 1_000,
        acct_rows: 10_000,
        scan_variants: 4,
    };

    #[cfg(test)]
    pub const SMOKE: Scale = Scale {
        t_rows: 2_000,
        pad_len: 40,
        d_rows: 100,
        acct_rows: 200,
        scan_variants: 2,
    };
}

/// Zipf skew of the point-read key stream.
pub const ZIPF_THETA: f64 = 0.99;

/// The loaded data, generated from the seed.
pub struct Data {
    pub scale: Scale,
    /// `t.v` by key `k` (keys are `0..t_rows`).
    pub t_v: Vec<i64>,
    /// The `pad` text every row of `t` carries.
    pub pad: String,
    /// `d.w` by `d.dv` (`dv` is `0..d_rows`).
    pub d_w: Vec<i64>,
    /// Initial `acct.v` by key; sums to zero.
    pub acct_v0: Vec<i64>,
}

impl Data {
    pub fn generate(seed: u64, scale: Scale) -> Data {
        let mut rng = Rng::stream(seed, "data");
        let t_v = (0..scale.t_rows)
            .map(|_| rng.below(scale.d_rows as u64) as i64)
            .collect();
        let pad: String = (0..scale.pad_len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let d_w = (0..scale.d_rows).map(|_| rng.below(1000) as i64).collect();
        let mut acct_v0: Vec<i64> = (0..scale.acct_rows)
            .map(|_| rng.below(2001) as i64 - 1000)
            .collect();
        let sum: i64 = acct_v0.iter().sum();
        acct_v0[0] -= sum;
        Data {
            scale,
            t_v,
            pad,
            d_w,
            acct_v0,
        }
    }

    /// Bytes of user data loaded: 8 per integer, the text's length per
    /// string. The base of `space_amp`.
    pub fn user_bytes(&self) -> u64 {
        let t = self.t_v.len() as u64 * (16 + self.pad.len() as u64);
        let d = self.d_w.len() as u64 * 16;
        let acct = self.acct_v0.len() as u64 * 16;
        t + d + acct
    }

    /// `INSERT` statements that load every table, in load order.
    pub fn load_statements(&self, batch: usize) -> Vec<String> {
        let mut out = Vec::new();
        for chunk in (0..self.t_v.len()).collect::<Vec<_>>().chunks(batch) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|&k| format!("({k}, {}, '{}')", self.t_v[k], self.pad))
                .collect();
            out.push(format!("INSERT INTO t VALUES {}", rows.join(", ")));
        }
        for chunk in (0..self.d_w.len()).collect::<Vec<_>>().chunks(batch) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|&dv| format!("({dv}, {})", self.d_w[dv]))
                .collect();
            out.push(format!("INSERT INTO d VALUES {}", rows.join(", ")));
        }
        for chunk in (0..self.acct_v0.len()).collect::<Vec<_>>().chunks(batch) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|&k| format!("({k}, {})", self.acct_v0[k]))
                .collect();
            out.push(format!("INSERT INTO acct VALUES {}", rows.join(", ")));
        }
        out
    }
}

/// The three scan shapes `scan_mix` rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// Filtered `SUM` over `t`.
    Sum,
    /// `GROUP BY v` over a filtered `t`.
    Group,
    /// `t` ⋈ `d` on `v = dv`, then `SUM`.
    Join,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Sum, Shape::Group, Shape::Join];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Sum => "sum",
            Shape::Group => "group",
            Shape::Join => "join",
        }
    }
}

/// One scan statement and the rows it must return, sorted.
#[derive(Debug, Clone)]
pub struct ScanQuery {
    pub shape: Shape,
    pub sql: String,
    pub expected: Vec<Vec<i64>>,
}

/// The fixed set of scan statements: `scan_variants` filter constants
/// per shape, spread evenly over the value domain so every seed does the
/// same amount of work, each with its answer computed from the generated
/// data.
pub fn scan_queries(data: &Data) -> Vec<ScanQuery> {
    let (domain, variants) = (data.scale.d_rows, data.scale.scan_variants);
    Shape::ALL
        .iter()
        .flat_map(|&shape| {
            (1..=variants).map(move |i| (shape, (domain * i / (variants + 1)) as i64))
        })
        .map(|(shape, c)| scan_query(shape, c, data))
        .collect()
}

fn scan_query(shape: Shape, c: i64, data: &Data) -> ScanQuery {
    let rows = data.t_v.iter().enumerate().map(|(k, &v)| (k as i64, v));
    let (sql, expected) = match shape {
        Shape::Sum => {
            let (sum, n) = rows
                .filter(|&(_, v)| v < c)
                .fold((0, 0), |(s, n), (_, v)| (s + v, n + 1));
            (
                format!("SELECT SUM(v), COUNT(*) FROM t WHERE v < {c}"),
                vec![vec![sum, n]],
            )
        }
        Shape::Group => {
            let mut groups = std::collections::BTreeMap::<i64, (i64, i64)>::new();
            for (k, v) in rows.filter(|&(_, v)| v >= c) {
                let g = groups.entry(v).or_default();
                g.0 += 1;
                g.1 += k;
            }
            (
                format!("SELECT v, COUNT(*), SUM(k) FROM t WHERE v >= {c} GROUP BY v"),
                groups
                    .into_iter()
                    .map(|(v, (n, s))| vec![v, n, s])
                    .collect(),
            )
        }
        Shape::Join => {
            let (sum, n) = rows
                .map(|(_, v)| data.d_w[v as usize])
                .filter(|&w| w < c)
                .fold((0, 0), |(s, n), w| (s + w, n + 1));
            (
                format!("SELECT SUM(d.w), COUNT(*) FROM t JOIN d ON t.v = d.dv WHERE d.w < {c}"),
                vec![vec![sum, n]],
            )
        }
    };
    ScanQuery {
        shape,
        sql,
        expected,
    }
}

/// The scan rotation: shapes in strict round robin, and each shape's
/// filter constants in a seeded order, so every shape and constant gets
/// the same share of samples. Yields indexes into [`scan_queries`]'
/// output.
pub struct ScanRotation {
    orders: Vec<Vec<usize>>,
    step: usize,
}

impl ScanRotation {
    pub fn new(seed: u64, variants: usize) -> ScanRotation {
        let mut rng = Rng::stream(seed, "scan-rotation");
        let orders = (0..Shape::ALL.len())
            .map(|shape| {
                let mut order: Vec<usize> = (0..variants).map(|v| shape * variants + v).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        ScanRotation { orders, step: 0 }
    }
}

impl Iterator for ScanRotation {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let shapes = self.orders.len();
        let order = &self.orders[self.step % shapes];
        let query = order[(self.step / shapes) % order.len()];
        self.step += 1;
        Some(query)
    }
}

/// Point-read keys: Zipf ranks mapped through a seeded permutation, so
/// the hot keys are spread over the table's pages rather than packed
/// into its first few.
pub struct KeyStream {
    zipf: std::sync::Arc<Zipf>,
    rank_to_key: std::sync::Arc<Vec<i64>>,
    rng: Rng,
}

impl KeyStream {
    /// One stream per client; streams share the Zipf table and the
    /// permutation but draw independently.
    pub fn per_client(seed: u64, rows: usize, clients: usize) -> Vec<KeyStream> {
        let zipf = std::sync::Arc::new(Zipf::new(rows, ZIPF_THETA));
        let mut perm: Vec<i64> = (0..rows as i64).collect();
        Rng::stream(seed, "hot-keys").shuffle(&mut perm);
        let perm = std::sync::Arc::new(perm);
        (0..clients)
            .map(|c| KeyStream {
                zipf: zipf.clone(),
                rank_to_key: perm.clone(),
                rng: Rng::stream(seed, &format!("point-keys-{c}")),
            })
            .collect()
    }
}

impl Iterator for KeyStream {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        Some(self.rank_to_key[self.zipf.sample(&mut self.rng)])
    }
}

/// `acct` keys split into `clients` disjoint partitions by a seeded
/// shuffle: each write-transaction client touches only its own keys.
pub fn partitions(seed: u64, rows: usize, clients: usize) -> Vec<Vec<i64>> {
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    Rng::stream(seed, "partitions").shuffle(&mut keys);
    let mut parts = vec![Vec::new(); clients];
    for (i, k) in keys.into_iter().enumerate() {
        parts[i % clients].push(k);
    }
    for p in &mut parts {
        p.sort_unstable();
    }
    parts
}

/// Two distinct keys from one partition: the debit and credit of one
/// write transaction.
pub fn txn_pair(rng: &mut Rng, part: &[i64]) -> (i64, i64) {
    let a = rng.below(part.len() as u64) as usize;
    let mut b = rng.below(part.len() as u64 - 1) as usize;
    if b >= a {
        b += 1;
    }
    (part[a], part[b])
}

/// Open-loop send times, seconds after the start: Poisson arrivals at
/// `rate` per second.
pub struct Schedule {
    rng: Rng,
    mean_gap: f64,
    at: f64,
}

impl Schedule {
    pub fn new(seed: u64, rate: f64) -> Schedule {
        Schedule {
            rng: Rng::stream(seed, "open-loop"),
            mean_gap: 1.0 / rate,
            at: 0.0,
        }
    }
}

impl Iterator for Schedule {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.at += self.rng.exp(self.mean_gap);
        Some(self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first<I: Iterator>(it: I, n: usize) -> Vec<I::Item> {
        it.take(n).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        let scale = Scale::SMOKE;
        let (a, b) = (Data::generate(7, scale), Data::generate(7, scale));
        assert_eq!(a.t_v, b.t_v);
        assert_eq!(a.pad, b.pad);
        assert_eq!(a.d_w, b.d_w);
        assert_eq!(a.acct_v0, b.acct_v0);
        assert_eq!(a.load_statements(50), b.load_statements(50));
        let keys = |s| {
            KeyStream::per_client(s, scale.t_rows, 2)
                .into_iter()
                .map(|k| first(k, 500))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(7), keys(7));
        assert_eq!(partitions(7, 200, 2), partitions(7, 200, 2));
        assert_eq!(
            first(ScanRotation::new(7, 2), 60),
            first(ScanRotation::new(7, 2), 60)
        );
        assert_eq!(
            first(Schedule::new(7, 20.0), 60),
            first(Schedule::new(7, 20.0), 60)
        );
        let answers = |s| {
            scan_queries(&Data::generate(s, scale))
                .into_iter()
                .map(|q| q.expected)
        };
        assert!(answers(7).eq(answers(7)));
    }

    #[test]
    fn different_seeds_differ() {
        let scale = Scale::SMOKE;
        assert_ne!(Data::generate(1, scale).t_v, Data::generate(2, scale).t_v);
        let keys = |s| first(KeyStream::per_client(s, scale.t_rows, 1).remove(0), 200);
        assert_ne!(keys(1), keys(2));
        assert_ne!(partitions(1, 200, 2), partitions(2, 200, 2));
        assert_ne!(
            first(Schedule::new(1, 20.0), 20),
            first(Schedule::new(2, 20.0), 20)
        );
    }

    #[test]
    fn acct_starts_at_zero_sum_and_partitions_are_disjoint() {
        let data = Data::generate(3, Scale::SMOKE);
        assert_eq!(data.acct_v0.iter().sum::<i64>(), 0);
        let parts = partitions(3, 200, 2);
        let mut all: Vec<i64> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
        let mut rng = Rng::stream(3, "pairs");
        for _ in 0..1000 {
            let (a, b) = txn_pair(&mut rng, &parts[0]);
            assert_ne!(a, b);
            assert!(parts[0].contains(&a) && parts[0].contains(&b));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let zipf = Zipf::new(10_000, ZIPF_THETA);
        let mut rng = Rng::stream(5, "zipf");
        let hot = (0..20_000).filter(|_| zipf.sample(&mut rng) < 100).count();
        // Ranks 0..100 carry about half the mass at theta 0.99.
        assert!((8_000..12_000).contains(&hot), "hot draws: {hot}");
    }

    #[test]
    fn rotation_is_round_robin_over_shapes_and_constants() {
        let picks = first(ScanRotation::new(9, 4), 240);
        for (i, q) in picks.iter().enumerate() {
            assert_eq!(q / 4, i % 3);
        }
        for q in 0..12 {
            assert_eq!(picks.iter().filter(|&&p| p == q).count(), 20);
        }
    }

    #[test]
    fn scan_answers_are_non_empty() {
        let data = Data::generate(11, Scale::SMOKE);
        for q in scan_queries(&data) {
            assert!(!q.expected.is_empty(), "{}", q.sql);
            assert!(q.expected.iter().all(|row| row.iter().any(|&x| x != 0)));
        }
    }
}
