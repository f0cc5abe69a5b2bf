//! The TCP server: one accept loop, one thread and one owned
//! [`Session`] per connection.
//!
//! Design decisions, in the order a request meets them:
//!
//! * **Connection limit before anything else.** Over
//!   [`ServerConfig::max_connections`] the server answers the handshake
//!   with a typed `overloaded` frame and closes — admission control at
//!   the door, mirroring what the query governor does per statement
//!   inside. Refusals are counted in [`ServerStats`].
//! * **`BEGIN`/`COMMIT`/`ROLLBACK` are intercepted as text**, exactly
//!   like the embedded slt runner: they are session verbs, not parsed
//!   SQL.
//! * **Prepared statements are connection-local handles over the shared
//!   plan cache.** `prepare` plans through [`Session::prepare`], which
//!   warms the same per-database cache `execute` reads, so statement
//!   handles on different connections reuse each other's plans — the
//!   differential test pins cache hits across connections. A statement
//!   with `?` placeholders gets its values with each `execute`; its
//!   one generic plan serves every connection and every value inside
//!   the plan's guards (DESIGN §4o).
//! * **Teardown rolls back.** A client that disappears mid-transaction
//!   (crash, kill -9, cable pull) must not wedge a single-writer
//!   database or leak an MVCC overlay; the handler drops its session
//!   before the thread exits, and a dropped session rolls back its open
//!   transaction. The server counts those rollbacks in [`ServerStats`].

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sbdms_access::record::Datum;
use sbdms_data::executor::Database;
use sbdms_data::session::Session;
use sbdms_kernel::error::ServiceError;
use sbdms_kernel::value::Value;
use sbdms_kernel::wire::{read_frame, write_frame};

use crate::protocol;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on concurrently served connections; further clients get
    /// a typed `overloaded` frame and an immediate close.
    pub max_connections: usize,
    /// Per-connection read timeout. A connection idle longer than this
    /// is treated as dead (and its transaction rolled back). `None`
    /// waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 1024,
            read_timeout: None,
        }
    }
}

/// Counters the server keeps about its connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served (includes finished ones).
    pub accepted: u64,
    /// Connections refused at the door for being over the limit.
    pub refused: u64,
    /// Connections currently being served.
    pub active: usize,
    /// Transactions rolled back because their connection died.
    pub teardown_rollbacks: u64,
}

struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    stop: AtomicBool,
    active: AtomicUsize,
    accepted: AtomicU64,
    refused: AtomicU64,
    teardown_rollbacks: AtomicU64,
    next_connection: AtomicU64,
}

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop; connections already being served drain on
/// their own threads.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind a loopback listener on an OS-assigned port and start
    /// serving `db`.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_on(db, cfg, "127.0.0.1:0")
    }

    /// [`Server::start`] on an explicit bind address.
    pub fn start_on(
        db: Arc<Database>,
        cfg: ServerConfig,
        bind: &str,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            cfg,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            teardown_rollbacks: AtomicU64::new(0),
            next_connection: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("sbdms-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database being served.
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Connection-lifecycle counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::Relaxed),
            teardown_rollbacks: self.shared.teardown_rollbacks.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting connections and join the accept loop. In-flight
    /// connections finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Claim a slot; refuse at the door when full. The increment
        // must happen before the spawn so a burst of accepts cannot
        // overshoot the limit.
        let claimed = shared.active.fetch_add(1, Ordering::SeqCst);
        if claimed >= shared.cfg.max_connections {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.refused.fetch_add(1, Ordering::Relaxed);
            refuse(stream, claimed);
            continue;
        }
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("sbdms-conn".into())
            .spawn(move || {
                serve_connection(stream, &conn_shared);
                conn_shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Tell an over-limit client it was shed, with the same typed frame the
/// governor uses, then close.
fn refuse(mut stream: TcpStream, in_flight: usize) {
    let err = ServiceError::Overloaded {
        in_flight: in_flight as u64,
        waiting: 0,
    };
    let _ = write_frame(&mut stream, &protocol::error_response(&err));
    let _ = stream.flush();
}

/// Serve one connection until quit, error, or disconnect. Requests are
/// read through one buffer; each reply is one write.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if shared.cfg.read_timeout.is_some() {
        let _ = stream.set_read_timeout(shared.cfg.read_timeout);
    }
    let mut conn = BufReader::new(stream);
    let connection_id = shared.next_connection.fetch_add(1, Ordering::Relaxed);
    let session = shared.db.session();

    // Handshake first: anything else on a fresh connection is a
    // protocol error.
    match read_frame(&mut conn) {
        Ok(hello) => {
            let version = hello.get("version").and_then(|v| v.as_int().ok());
            let is_hello = hello.get("op").and_then(|o| o.as_str().ok()) == Some("hello");
            let reply = if !is_hello {
                protocol::error_response(&ServiceError::InvalidInput(
                    "expected hello frame".into(),
                ))
            } else if version != Some(sbdms_kernel::wire::PROTOCOL_VERSION) {
                protocol::error_response(&ServiceError::InvalidInput(format!(
                    "unsupported protocol version {version:?} (server speaks {})",
                    sbdms_kernel::wire::PROTOCOL_VERSION
                )))
            } else {
                protocol::hello_response(connection_id)
            };
            let ok = matches!(reply.get("ok").and_then(|o| o.as_bool().ok()), Some(true));
            if write_frame(conn.get_mut(), &reply).is_err() || !ok {
                return;
            }
        }
        Err(_) => return,
    }

    let mut prepared: Vec<Option<(String, Vec<String>)>> = Vec::new();
    // A read error is a disconnect or corrupt stream: fall through to
    // teardown, whose rollback is the server's half of crash semantics.
    while let Ok(request) = read_frame(&mut conn) {
        let op = request
            .get("op")
            .and_then(|o| o.as_str().ok())
            .unwrap_or("")
            .to_string();
        let reply = match op.as_str() {
            "query" => handle_query(&session, &request),
            "prepare" => handle_prepare(&session, &request, &mut prepared),
            "execute" => handle_execute(&session, &request, &prepared),
            "close_stmt" => handle_close_stmt(&request, &mut prepared),
            "set" => handle_set(&session, &request),
            "quit" => {
                let _ = write_frame(conn.get_mut(), &protocol::bye_response());
                break;
            }
            other => protocol::error_response(&ServiceError::InvalidInput(format!(
                "unknown wire op `{other}`"
            ))),
        };
        if write_frame(conn.get_mut(), &reply).is_err() {
            break;
        }
    }

    if session.in_txn() {
        shared.teardown_rollbacks.fetch_add(1, Ordering::Relaxed);
    }
    drop(session); // rolls back the open transaction, if any
}

/// The transaction verb `sql` is, if it is one (`BEGIN`, `COMMIT` or
/// `ROLLBACK`, any case, surrounding blanks ignored).
fn txn_verb(sql: &str) -> Option<&'static str> {
    let sql = sql.trim();
    ["BEGIN", "COMMIT", "ROLLBACK"]
        .into_iter()
        .find(|verb| sql.eq_ignore_ascii_case(verb))
}

/// Run one SQL text with `params` bound to its `?` placeholders,
/// intercepting transaction verbs like the embedded runners do.
fn run_sql(session: &Session, sql: &str, params: &[Datum]) -> Result<Value, ServiceError> {
    let result = match txn_verb(sql) {
        Some("BEGIN") => session.begin().map(|_| Default::default()),
        Some("COMMIT") => session.commit().map(|_| Default::default()),
        Some(_) => session.rollback().map(|_| Default::default()),
        None => session.execute_params(sql, params),
    };
    result.map(|r| protocol::rows_response(&r, session.in_txn()))
}

fn handle_query(session: &Session, request: &Value) -> Value {
    match request.get("sql").and_then(|s| s.as_str().ok()) {
        Some(sql) => run_sql(session, sql, &[]).unwrap_or_else(|e| protocol::error_response(&e)),
        None => protocol::error_response(&ServiceError::InvalidInput(
            "query frame without sql".into(),
        )),
    }
}

fn handle_prepare(
    session: &Session,
    request: &Value,
    prepared: &mut Vec<Option<(String, Vec<String>)>>,
) -> Value {
    let Some(sql) = request.get("sql").and_then(|s| s.as_str().ok()) else {
        return protocol::error_response(&ServiceError::InvalidInput(
            "prepare frame without sql".into(),
        ));
    };
    // Transaction verbs are valid prepared statements too (they just
    // skip planning), so the REPL can prepare whole scripts.
    let columns = if txn_verb(sql).is_some() {
        Ok(Vec::new())
    } else {
        session.prepare(sql)
    };
    match columns {
        Ok(columns) => {
            let stmt = prepared.len() as i64;
            prepared.push(Some((sql.to_string(), columns.clone())));
            protocol::prepared_response(stmt, &columns)
        }
        Err(e) => protocol::error_response(&e),
    }
}

fn handle_execute(
    session: &Session,
    request: &Value,
    prepared: &[Option<(String, Vec<String>)>],
) -> Value {
    let stmt = request.get("stmt").and_then(|s| s.as_int().ok());
    let entry = stmt
        .and_then(|id| usize::try_from(id).ok())
        .and_then(|id| prepared.get(id))
        .and_then(Option::as_ref);
    let params = match protocol::request_params(request) {
        Ok(params) => params,
        Err(e) => return protocol::error_response(&e),
    };
    match entry {
        Some((sql, _)) => {
            run_sql(session, sql, &params).unwrap_or_else(|e| protocol::error_response(&e))
        }
        None => protocol::error_response(&ServiceError::InvalidInput(format!(
            "unknown prepared statement {stmt:?}"
        ))),
    }
}

/// Apply a per-session knob: statement deadline, statement memory cap,
/// or the degraded-quality contract. `Value::Null` clears.
fn handle_set(session: &Session, request: &Value) -> Value {
    let key = request.get("key").and_then(|k| k.as_str().ok()).unwrap_or("");
    let value = request.get("value").cloned().unwrap_or(Value::Null);
    let as_u64 = |v: &Value| v.as_int().ok().and_then(|n| u64::try_from(n).ok());
    match key {
        "deadline_ms" => session.set_statement_deadline_ms(as_u64(&value)),
        "memory_limit" => session.set_statement_memory_limit(as_u64(&value)),
        "allow_degraded" => {
            session.set_allow_degraded(value.as_bool().unwrap_or(false));
        }
        other => {
            return protocol::error_response(&ServiceError::InvalidInput(format!(
                "unknown session knob `{other}`"
            )))
        }
    }
    protocol::closed_response()
}

fn handle_close_stmt(
    request: &Value,
    prepared: &mut [Option<(String, Vec<String>)>],
) -> Value {
    let stmt = request.get("stmt").and_then(|s| s.as_int().ok());
    match stmt
        .and_then(|id| usize::try_from(id).ok())
        .and_then(|id| prepared.get_mut(id))
    {
        Some(slot) => {
            *slot = None;
            protocol::closed_response()
        }
        None => protocol::error_response(&ServiceError::InvalidInput(format!(
            "unknown prepared statement {stmt:?}"
        ))),
    }
}
