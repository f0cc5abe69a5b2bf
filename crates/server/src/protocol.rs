//! Message shapes of the SQL wire protocol.
//!
//! Every message is one [`Value`] map inside one length-prefixed frame
//! (see [`sbdms_kernel::wire`]). Requests carry an `"op"` discriminator;
//! responses carry `"ok"` plus either a result payload or the typed
//! error map from [`sbdms_kernel::wire::error_value`].
//!
//! ```text
//! client                              server
//!   |-- {op:hello, version:1} --------->|
//!   |<- {ok, kind:hello, protocol:1} ---|
//!   |-- {op:query, sql:"..."} --------->|
//!   |<- {ok, kind:rows, columns, rows} -|
//!   |-- {op:prepare, sql:"..."} ------->|
//!   |<- {ok, kind:prepared, stmt:0} ----|
//!   |-- {op:execute, stmt:0, params} -->|
//!   |<- {ok, kind:rows, ...} -----------|
//!   |-- {op:quit} --------------------->|
//!   |<- {ok, kind:bye} -----------------|
//! ```
//!
//! A prepared statement may hold `?` placeholders; `execute` then
//! carries their values, in order, as the `params` list (typed like row
//! cells). Text sent with `query` has its literals lifted into
//! parameters server-side, so both forms share the plan cache's generic
//! plans.
//!
//! Rows travel typed: each datum maps onto the kernel's self-describing
//! [`Value`] (NULL/bool/int/float/string survive the round trip
//! losslessly), so the far side reconstructs the exact result an
//! in-process caller would see — the prepared-statement differential
//! test pins that byte-for-byte.

use sbdms_access::record::{Datum, Tuple};
use sbdms_data::executor::QueryResult;
use sbdms_kernel::error::{Result, ServiceError};
use sbdms_kernel::value::Value;

/// Build the client's opening handshake.
pub fn hello_request() -> Value {
    Value::map()
        .with("op", "hello")
        .with("version", sbdms_kernel::wire::PROTOCOL_VERSION)
}

/// Build a plain-SQL request.
pub fn query_request(sql: &str) -> Value {
    Value::map().with("op", "query").with("sql", sql)
}

/// Build a prepare request.
pub fn prepare_request(sql: &str) -> Value {
    Value::map().with("op", "prepare").with("sql", sql)
}

/// Build an execute-prepared request binding `params` to the
/// statement's `?` placeholders, in order.
pub fn execute_request(stmt: i64, params: &[Datum]) -> Value {
    let params: Vec<Value> = params.iter().map(datum_to_value).collect();
    Value::map()
        .with("op", "execute")
        .with("stmt", stmt)
        .with("params", Value::List(params))
}

/// The `params` of an execute request (none when absent).
pub fn request_params(request: &Value) -> Result<Vec<Datum>> {
    match request.get("params") {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(list) => list.as_list()?.iter().map(value_to_datum).collect(),
    }
}

/// Build a close-prepared request.
pub fn close_stmt_request(stmt: i64) -> Value {
    Value::map().with("op", "close_stmt").with("stmt", stmt)
}

/// Build a session-knob request. `deadline_ms` / `memory_limit` set the
/// per-statement deadline and operator memory cap; `Value::Null` clears.
pub fn set_request(key: &str, value: Value) -> Value {
    Value::map().with("op", "set").with("key", key).with("value", value)
}

/// Build the graceful-close request.
pub fn quit_request() -> Value {
    Value::map().with("op", "quit")
}

/// Wrap a server-side error as a response frame.
pub fn error_response(err: &ServiceError) -> Value {
    Value::map()
        .with("ok", false)
        .with("error", sbdms_kernel::wire::error_value(err))
}

/// The server's handshake reply.
pub fn hello_response(connection_id: u64) -> Value {
    Value::map()
        .with("ok", true)
        .with("kind", "hello")
        .with("protocol", sbdms_kernel::wire::PROTOCOL_VERSION)
        .with("connection", connection_id as i64)
}

/// A statement result as a response frame.
pub fn rows_response(result: &QueryResult, in_txn: bool) -> Value {
    let rows: Vec<Value> = result
        .rows
        .iter()
        .map(|row| Value::List(row.iter().map(datum_to_value).collect()))
        .collect();
    let columns: Vec<Value> = result.columns.iter().map(|c| Value::Str(c.clone())).collect();
    Value::map()
        .with("ok", true)
        .with("kind", "rows")
        .with("columns", Value::List(columns))
        .with("rows", Value::List(rows))
        .with("affected", result.affected as i64)
        .with("in_txn", in_txn)
}

/// A prepare result as a response frame.
pub fn prepared_response(stmt: i64, columns: &[String]) -> Value {
    let columns: Vec<Value> = columns.iter().map(|c| Value::Str(c.clone())).collect();
    Value::map()
        .with("ok", true)
        .with("kind", "prepared")
        .with("stmt", stmt)
        .with("columns", Value::List(columns))
}

/// The reply to `close_stmt`.
pub fn closed_response() -> Value {
    Value::map().with("ok", true).with("kind", "closed")
}

/// The reply to `quit`.
pub fn bye_response() -> Value {
    Value::map().with("ok", true).with("kind", "bye")
}

/// Map one datum onto the wire value model.
pub fn datum_to_value(d: &Datum) -> Value {
    match d {
        Datum::Null => Value::Null,
        Datum::Bool(b) => Value::Bool(*b),
        Datum::Int(i) => Value::Int(*i),
        Datum::Float(x) => Value::Float(*x),
        Datum::Str(s) => Value::Str(s.clone()),
    }
}

/// Reverse of [`datum_to_value`].
pub fn value_to_datum(v: &Value) -> Result<Datum> {
    Ok(match v {
        Value::Null => Datum::Null,
        Value::Bool(b) => Datum::Bool(*b),
        Value::Int(i) => Datum::Int(*i),
        Value::Float(x) => Datum::Float(*x),
        Value::Str(s) => Datum::Str(s.clone()),
        other => {
            return Err(ServiceError::InvalidInput(format!(
                "wire row cell is not a datum: {other:?}"
            )))
        }
    })
}

/// Decode a `kind:rows` response payload back into result columns and
/// typed rows. Fails with the frame's typed error if `ok` is false.
pub fn decode_rows(v: &Value) -> Result<(Vec<String>, Vec<Tuple>, usize, bool)> {
    let v = check_ok(v)?;
    let columns = v
        .get("columns")
        .and_then(|c| c.as_list().ok())
        .unwrap_or(&[])
        .iter()
        .map(|c| c.as_str().map(str::to_string))
        .collect::<Result<Vec<_>>>()?;
    let rows = v
        .get("rows")
        .and_then(|r| r.as_list().ok())
        .unwrap_or(&[])
        .iter()
        .map(|row| row.as_list()?.iter().map(value_to_datum).collect::<Result<Tuple>>())
        .collect::<Result<Vec<_>>>()?;
    let affected = v.get("affected").and_then(|a| a.as_int().ok()).unwrap_or(0) as usize;
    let in_txn = v.get("in_txn").and_then(|t| t.as_bool().ok()).unwrap_or(false);
    Ok((columns, rows, affected, in_txn))
}

/// If the response says `ok:false`, surface its typed error; otherwise
/// hand the payload back.
pub fn check_ok(v: &Value) -> Result<&Value> {
    match v.get("ok").and_then(|o| o.as_bool().ok()) {
        Some(true) => Ok(v),
        Some(false) => {
            let err = v
                .get("error")
                .map(sbdms_kernel::wire::value_to_error)
                .unwrap_or_else(|| ServiceError::Internal("error frame without error".into()));
            Err(err)
        }
        None => Err(ServiceError::InvalidInput(
            "response frame without ok field".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datums_round_trip_typed() {
        let row = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(-7),
            Datum::Float(2.5),
            Datum::Str("x y".into()),
        ];
        for d in &row {
            assert_eq!(&value_to_datum(&datum_to_value(d)).unwrap(), d);
        }
    }

    #[test]
    fn rows_response_round_trips() {
        let result = QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec![Datum::Int(1), Datum::Str("one".into())]],
            affected: 0,
        };
        let frame = rows_response(&result, true);
        let (cols, rows, affected, in_txn) = decode_rows(&frame).unwrap();
        assert_eq!(cols, result.columns);
        assert_eq!(rows, result.rows);
        assert_eq!(affected, 0);
        assert!(in_txn);
    }

    #[test]
    fn error_frames_stay_typed() {
        let err = ServiceError::SerializationConflict { reason: "lost update".into() };
        let frame = error_response(&err);
        let back = check_ok(&frame).unwrap_err();
        assert_eq!(back.code(), "conflict");
        assert!(back.is_recoverable());
    }
}
