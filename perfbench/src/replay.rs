//! Replay of sampled units through each layer's public calls,
//! outermost first: the wire (`Client::query`), the session
//! (`Session::execute`, `Session::commit`), the parser and planner, the
//! vectorized engine (`Database::run_plan_with`), and the access layer
//! (`BTree::search`, `Table::get`, `Table::scan`). Every call is a span.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

use sbdms::access::exec::{Engine, VectorEngine};
use sbdms::access::Datum;
use sbdms::data::ast::Statement;
use sbdms::data::{parse, plan_select, Database};
use sbdms_server::Client;

use crate::gen::{Data, ScanQuery, Shape};
use crate::load::{check_answer, Failure, Unit, Workload};
use crate::trace::Tracer;

/// Repetitions of each scan shape run directly on the engine.
const SHAPE_REPS: usize = 3;

pub fn span_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Sum => "exec.sum",
        Shape::Group => "exec.group",
        Shape::Join => "exec.join",
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("replay {what}: {e}")
}

/// What the replay learned beyond its spans.
pub struct Replayed {
    /// Committed changes to `acct` the replay itself made.
    pub tally: BTreeMap<i64, i64>,
    pub btree_height: usize,
    pub scan_rows: usize,
    /// Per statement: `Session::execute` minus the parse and plan it
    /// performed (none on a plan-cache hit), microseconds.
    pub exec_self_us: Vec<f64>,
    /// Per statement: the round trip minus the in-process execution,
    /// each without the parse and plan it performed, microseconds.
    pub wire_us: Vec<f64>,
}

/// One statement's timings from both replays.
struct StmtTimes {
    roundtrip_us: f64,
    planned_on_wire: bool,
    execute_us: f64,
    planned_in_process: bool,
    parse_us: f64,
    plan_us: f64,
    select: bool,
}

impl StmtTimes {
    /// Parse and plan time a call spent, given whether it planned.
    /// Only a plan-cache hit (a SELECT that did not plan) skips parsing.
    fn front_us(&self, planned: bool) -> f64 {
        let parsed = planned || !self.select;
        parsed as u8 as f64 * self.parse_us + planned as u8 as f64 * self.plan_us
    }

    fn self_us(&self) -> f64 {
        self.execute_us - self.front_us(self.planned_in_process)
    }

    fn wire_us(&self) -> f64 {
        self.roundtrip_us - self.front_us(self.planned_on_wire) - self.self_us()
    }
}

pub struct Replay<'a> {
    pub db: &'a Arc<Database>,
    pub addr: SocketAddr,
    pub data: &'a Data,
    pub queries: &'a [ScanQuery],
    pub tracer: &'a Tracer,
    /// Changes to `acct` committed before the replay, so reads inside
    /// replayed transactions can be checked.
    pub committed: &'a BTreeMap<i64, i64>,
}

impl Replay<'_> {
    pub fn run(&self, workload: Workload, units: &[Unit]) -> Result<Replayed, String> {
        let mut tally = BTreeMap::new();
        let mut client = Client::connect(self.addr).map_err(|e| err("connect", e))?;
        let mut times = Vec::new();
        for (i, &unit) in units.iter().enumerate() {
            let stmt = i as u64;
            let wire = self.over_wire(&mut client, unit, stmt, &mut tally)?;
            let local = self.in_process(unit, stmt, &mut tally)?;
            times.extend(wire.into_iter().zip(local).map(|((rt, pw), mut t)| {
                t.roundtrip_us = rt;
                t.planned_on_wire = pw;
                t
            }));
        }
        let _ = client.close();
        let mut stmt = units.len() as u64;
        for q in self.shape_representatives() {
            self.engine_only(q, stmt)?;
            stmt += 1;
        }
        let table = self
            .db
            .table(workload.keyed_table())
            .map_err(|e| err("table", e))?;
        let scan_rows = self
            .tracer
            .span("heap.scan", None, stmt, || table.scan())
            .map_err(|e| err("heap scan", e))?
            .len();
        let btree_height = table
            .index_on("k")
            .ok_or_else(|| err("index", "no index on k"))?
            .height()
            .map_err(|e| err("btree height", e))?;
        Ok(Replayed {
            tally,
            btree_height,
            scan_rows,
            exec_self_us: times.iter().map(StmtTimes::self_us).collect(),
            wire_us: times.iter().map(StmtTimes::wire_us).collect(),
        })
    }

    fn current(&self, tally: &BTreeMap<i64, i64>, k: i64) -> i64 {
        let get = |m: &BTreeMap<i64, i64>| m.get(&k).copied().unwrap_or(0);
        self.data.acct_v0[k as usize] + get(self.committed) + get(tally)
    }

    /// The answer a statement must return, where the benchmark knows it.
    fn expected(&self, unit: Unit, tally: &BTreeMap<i64, i64>) -> Option<Vec<Vec<i64>>> {
        match unit {
            Unit::Read(k) => Some(vec![vec![self.data.t_v[k as usize]]]),
            Unit::Txn(a, _) => Some(vec![vec![self.current(tally, a)]]),
            Unit::Scan(q) => Some(self.queries[q].expected.clone()),
            Unit::Write(_) => None,
        }
    }

    /// The unit as the workload sends it, one `server.roundtrip` span per
    /// statement. Returns each statement's round trip and whether the
    /// server planned it.
    fn over_wire(
        &self,
        client: &mut Client,
        unit: Unit,
        stmt: u64,
        tally: &mut BTreeMap<i64, i64>,
    ) -> Result<Vec<(f64, bool)>, String> {
        let root = self.tracer.open();
        let expected = self.expected(unit, tally);
        let mut times = Vec::new();
        let out = self.tracer.record(root, "unit.wire", None, stmt, || {
            if unit.explicit_txn() {
                self.tracer
                    .span("server.verb", Some(root), stmt, || client.query("BEGIN"))?;
            }
            let mut first = None;
            for sql in unit.statements(self.queries) {
                let plans = self.db.plans_selected();
                let id = self.tracer.open();
                let rows = self
                    .tracer
                    .record(id, "server.roundtrip", Some(root), stmt, || {
                        client.query(&sql)
                    })?;
                times.push((self.tracer.micros_of(id), self.db.plans_selected() > plans));
                first.get_or_insert(rows.rows);
            }
            if unit.explicit_txn() {
                self.tracer
                    .span("server.verb", Some(root), stmt, || client.query("COMMIT"))?;
            }
            Ok::<_, Failure>(first.unwrap_or_default())
        });
        let rows = match out {
            Ok(rows) => rows,
            Err(Failure::Fatal(_, why)) => return Err(why),
            Err(Failure::Tolerated(e)) => {
                let _ = client.query("ROLLBACK");
                return Err(err("over the wire", e));
            }
        };
        if let Some(expected) = expected {
            check_answer(&rows, &expected, "replayed statement")?;
        }
        for (k, d) in unit.deltas() {
            *tally.entry(k).or_default() += d;
        }
        Ok(times)
    }

    /// The same unit in process, in a transaction, with every statement
    /// taken apart layer by layer.
    fn in_process(
        &self,
        unit: Unit,
        stmt: u64,
        tally: &mut BTreeMap<i64, i64>,
    ) -> Result<Vec<StmtTimes>, String> {
        let session = self.db.session();
        let expected = self.expected(unit, tally);
        session.begin().map_err(|e| err("begin", e))?;
        let mut first = None;
        let mut times = Vec::new();
        for sql in unit.statements(self.queries) {
            let plans = self.db.plans_selected();
            let id = self.tracer.open();
            let rows = self
                .tracer
                .record(id, "executor.execute", None, stmt, || session.execute(&sql))
                .map_err(|e| err("execute", e))?;
            let planned_in_process = self.db.plans_selected() > plans;
            first.get_or_insert(rows.rows);
            let (parse_us, plan_us, select) = self.layers(&sql, id, stmt)?;
            times.push(StmtTimes {
                roundtrip_us: 0.0,
                planned_on_wire: false,
                execute_us: self.tracer.micros_of(id),
                planned_in_process,
                parse_us,
                plan_us,
                select,
            });
        }
        if let Some(k) = unit.key() {
            self.access(unit, k, stmt)?;
        }
        self.tracer
            .span("txn.commit", None, stmt, || session.commit())
            .map_err(|e| err("commit", e))?;
        if let Some(expected) = expected {
            check_answer(&first.unwrap_or_default(), &expected, "replayed statement")?;
        }
        for (k, d) in unit.deltas() {
            *tally.entry(k).or_default() += d;
        }
        Ok(times)
    }

    /// Parse, plan and run one statement's parts, as children of the
    /// `executor.execute` span `parent`. Returns the parse and plan
    /// times and whether the statement is a SELECT.
    fn layers(&self, sql: &str, parent: u64, stmt: u64) -> Result<(f64, f64, bool), String> {
        let id = self.tracer.open();
        let parsed = self
            .tracer
            .record(id, "parser.parse", Some(parent), stmt, || parse(sql))
            .map_err(|e| err("parse", e))?;
        let parse_us = self.tracer.micros_of(id);
        let Statement::Select(select) = parsed else {
            return Ok((parse_us, 0.0, false));
        };
        let id = self.tracer.open();
        let planned = self
            .tracer
            .record(id, "planner.plan", Some(parent), stmt, || {
                plan_select(&select, self.db.as_ref())
            })
            .map_err(|e| err("plan", e))?;
        let plan_us = self.tracer.micros_of(id);
        self.tracer
            .span("exec.run", Some(parent), stmt, || {
                self.run_plan(&planned.plan)
            })
            .map_err(|e| err("run", e))?;
        Ok((parse_us, plan_us, true))
    }

    fn run_plan(&self, plan: &sbdms::data::Plan) -> sbdms::kernel::error::Result<Vec<Vec<Datum>>> {
        let engine = VectorEngine::default();
        engine.collect(self.db.run_plan_with(&engine, plan)?)
    }

    /// Probe the key's index entry and fetch its row.
    fn access(&self, unit: Unit, k: i64, stmt: u64) -> Result<(), String> {
        let table_name = match unit {
            Unit::Read(_) => "t",
            _ => "acct",
        };
        let table = self.db.table(table_name).map_err(|e| err("table", e))?;
        let index = table
            .index_on("k")
            .ok_or_else(|| err("index", format!("no index on {table_name}.k")))?;
        let rids = self
            .tracer
            .span("btree.probe", None, stmt, || index.search(&[Datum::Int(k)]))
            .map_err(|e| err("btree probe", e))?;
        let rid = *rids
            .first()
            .ok_or_else(|| err("btree probe", format!("key {k} not found")))?;
        let row = self
            .tracer
            .span("heap.get", None, stmt, || table.get(rid))
            .map_err(|e| err("heap get", e))?;
        if row.first() != Some(&Datum::Int(k)) {
            return Err(err("heap get", format!("row for key {k} is {row:?}")));
        }
        Ok(())
    }

    /// The first query of each shape.
    fn shape_representatives(&self) -> Vec<&ScanQuery> {
        Shape::ALL
            .iter()
            .filter_map(|&s| self.queries.iter().find(|q| q.shape == s))
            .collect()
    }

    /// Plan a scan once and run it on the vectorized engine, checking
    /// the answer.
    fn engine_only(&self, q: &ScanQuery, stmt: u64) -> Result<(), String> {
        let Statement::Select(select) = parse(&q.sql).map_err(|e| err("parse", e))? else {
            return Err(err("parse", "scan is not a SELECT"));
        };
        let planned = plan_select(&select, self.db.as_ref()).map_err(|e| err("plan", e))?;
        for _ in 0..SHAPE_REPS {
            let rows = self
                .tracer
                .span(span_name(q.shape), None, stmt, || {
                    self.run_plan(&planned.plan)
                })
                .map_err(|e| err("engine run", e))?;
            check_answer(&rows, &q.expected, q.shape.name())?;
        }
        Ok(())
    }
}
