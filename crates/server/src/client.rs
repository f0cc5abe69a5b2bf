//! Blocking wire-protocol client.
//!
//! The client is deliberately thin: connect + handshake, then one
//! request frame out / one response frame in per call. Server failures
//! come back as the same typed [`ServiceError`] an embedded caller
//! gets, recoverability intact, so retry loops written against the
//! in-process API work unchanged against the socket.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use sbdms_access::record::{Datum, Tuple};
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::value::Value;
use sbdms_kernel::wire::{read_frame, write_frame};

use crate::protocol;

/// One statement's result, as seen across the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Output column labels (SELECT only).
    pub columns: Vec<String>,
    /// Typed output rows.
    pub rows: Vec<Tuple>,
    /// Rows affected (DML) or 0.
    pub affected: usize,
    /// Whether the session has an open transaction after this statement.
    pub in_txn: bool,
}

impl QueryOutcome {
    /// Rows rendered exactly the way the slt goldens (and
    /// `slt_common::format_rows`) write them: datums joined by single
    /// spaces. The prepared-statement differential test compares these
    /// byte-for-byte against the in-process engine.
    pub fn formatted_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|row| row.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" "))
            .collect()
    }
}

/// A server-side prepared statement handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepared {
    /// Connection-local statement id.
    pub stmt: i64,
    /// Result columns the statement will produce.
    pub columns: Vec<String>,
}

/// A connected wire-protocol client. Replies are read through one
/// buffer (a frame's header and payload usually arrive in one read);
/// requests go straight to the socket, one write per frame.
pub struct Client {
    stream: BufReader<TcpStream>,
    /// Connection id the server assigned during the handshake.
    pub connection_id: u64,
}

impl Client {
    /// Connect and run the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServiceError::Storage(format!("connect: {e}")))?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream: BufReader::new(stream),
            connection_id: 0,
        };
        let reply = client.round_trip(&protocol::hello_request())?;
        let v = protocol::check_ok(&reply)?;
        client.connection_id = v
            .get("connection")
            .and_then(|c| c.as_int().ok())
            .unwrap_or(0) as u64;
        Ok(client)
    }

    /// Execute one SQL text (including `BEGIN`/`COMMIT`/`ROLLBACK`).
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome> {
        let reply = self.round_trip(&protocol::query_request(sql))?;
        Self::decode_outcome(&reply)
    }

    /// Prepare a statement server-side, warming the shared plan cache.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared> {
        let reply = self.round_trip(&protocol::prepare_request(sql))?;
        let v = protocol::check_ok(&reply)?;
        let stmt = v
            .get("stmt")
            .and_then(|s| s.as_int().ok())
            .ok_or_else(|| ServiceError::InvalidInput("prepared frame without stmt".into()))?;
        let columns = v
            .get("columns")
            .and_then(|c| c.as_list().ok())
            .unwrap_or(&[])
            .iter()
            .map(|c| c.as_str().map(str::to_string))
            .collect::<Result<Vec<_>>>()?;
        Ok(Prepared { stmt, columns })
    }

    /// Execute a previously prepared statement.
    pub fn execute(&mut self, prepared: &Prepared) -> Result<QueryOutcome> {
        self.execute_params(prepared, &[])
    }

    /// Execute a prepared statement with `params` bound, in order, to
    /// its `?` placeholders.
    pub fn execute_params(&mut self, prepared: &Prepared, params: &[Datum]) -> Result<QueryOutcome> {
        let reply = self.round_trip(&protocol::execute_request(prepared.stmt, params))?;
        Self::decode_outcome(&reply)
    }

    /// Release a prepared statement handle.
    pub fn close_statement(&mut self, prepared: Prepared) -> Result<()> {
        let reply = self.round_trip(&protocol::close_stmt_request(prepared.stmt))?;
        protocol::check_ok(&reply).map(|_| ())
    }

    /// Set or clear the session's per-statement deadline.
    pub fn set_deadline_ms(&mut self, ms: Option<u64>) -> Result<()> {
        self.set_knob("deadline_ms", ms.map(|m| Value::Int(m as i64)).unwrap_or(Value::Null))
    }

    /// Set or clear the session's per-statement operator memory cap.
    pub fn set_memory_limit(&mut self, bytes: Option<u64>) -> Result<()> {
        self.set_knob(
            "memory_limit",
            bytes.map(|b| Value::Int(b as i64)).unwrap_or(Value::Null),
        )
    }

    /// Declare whether this session accepts degraded quality under load.
    pub fn set_allow_degraded(&mut self, on: bool) -> Result<()> {
        self.set_knob("allow_degraded", Value::Bool(on))
    }

    fn set_knob(&mut self, key: &str, value: Value) -> Result<()> {
        let reply = self.round_trip(&protocol::set_request(key, value))?;
        protocol::check_ok(&reply).map(|_| ())
    }

    /// Graceful close: tell the server we are done and wait for its
    /// goodbye, so the far side distinguishes this from a dead peer.
    pub fn close(mut self) -> Result<()> {
        let reply = self.round_trip(&protocol::quit_request())?;
        protocol::check_ok(&reply).map(|_| ())
    }

    fn round_trip(&mut self, request: &Value) -> Result<Value> {
        write_frame(self.stream.get_mut(), request)?;
        read_frame(&mut self.stream)
    }

    fn decode_outcome(reply: &Value) -> Result<QueryOutcome> {
        let (columns, rows, affected, in_txn) = protocol::decode_rows(reply)?;
        Ok(QueryOutcome {
            columns,
            rows,
            affected,
            in_txn,
        })
    }
}
