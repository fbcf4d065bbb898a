//! TCP listener and per-connection lifecycle: the piece that turns a
//! socket into an [`abae_query::Session`].
//!
//! Threading model: [`Server::serve`] runs a blocking accept loop and
//! hands each accepted socket to a dedicated thread (ROADMAP blesses
//! thread-per-connection as the first cut; there is no async runtime in
//! the offline build). Each connection opens one session via
//! [`Engine::session`], so accept order *is* session-id order and the
//! engine's per-session determinism contract holds over the wire.
//!
//! Message flow per connection:
//!
//! ```text
//! client                                server
//!   SSLRequest  ───────────────────────▶  (optional, any number)
//!               ◀───────────────────────  'N' (clear text only)
//!   StartupMessage(user, database…) ───▶
//!               ◀───────────────────────  AuthenticationOk
//!               ◀───────────────────────  ParameterStatus × k
//!               ◀───────────────────────  BackendKeyData(session id)
//!               ◀───────────────────────  ReadyForQuery
//!   Query("SELECT …") ─────────────────▶
//!               ◀───────────────────────  NoticeResponse × j  (anytime)
//!               ◀───────────────────────  RowDescription
//!               ◀───────────────────────  DataRow × n
//!               ◀───────────────────────  CommandComplete
//!               ◀───────────────────────  ReadyForQuery
//!   Terminate ─────────────────────────▶  (or EOF)
//! ```
//!
//! Because every connection's session shares one [`Engine`], concurrent
//! connections labeling the same `(table, predicate)` share oracle
//! invocations whenever the engine was built with the governor on
//! (`EngineBuilder::governor(true)`) — the batcher's counters are
//! readable over the wire with the `SHOW STATS` utility statement.
//!
//! A [`QueryError`] becomes an `ErrorResponse` (SQLSTATE from
//! [`sqlstate`]) followed by `ReadyForQuery` — the connection stays
//! usable. A framing-level [`WireError`] is unrecoverable (message
//! synchronization is lost): the server answers `ErrorResponse 08P01`
//! best-effort and closes.

use crate::codec::{self, Field, FrontendMessage, Startup, WireError};
use abae_query::{parse_statement, Engine, QueryError, QueryResult, Session, Statement};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// SQLSTATE code for one [`QueryError`], following Postgres conventions
/// where a close class exists (syntax error, undefined table/column/
/// object, invalid parameter value, feature not supported) and the
/// `internal_error` class for engine-side failures.
pub fn sqlstate(err: &QueryError) -> &'static str {
    match err {
        QueryError::Parse(_) => "42601",
        QueryError::UnknownTable(_) => "42P01",
        QueryError::UnresolvedPredicate { .. } => "42703",
        QueryError::UnknownProxy { .. } => "42704",
        QueryError::UnboundParameter(_) => "42P02",
        QueryError::Config(_) => "22023",
        QueryError::Unsupported(_) => "0A000",
        QueryError::Train(_) | QueryError::Table(_) | QueryError::GroupBy(_) => "XX000",
    }
}

/// SQLSTATE for protocol violations (hostile framing, unknown messages).
const PROTOCOL_VIOLATION: &str = "08P01";

/// Splits a simple-protocol query string into statements on top-level
/// `;`, respecting single-quoted strings (with `''` escaping falling out
/// naturally: each `'` toggles the in-string flag). Empty statements are
/// dropped — `;;` and trailing `;` are legal, as in Postgres.
pub fn split_statements(sql: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in sql.char_indices() {
        match c {
            '\'' => in_string = !in_string,
            ';' if !in_string => {
                out.push(&sql[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&sql[start..]);
    out.into_iter().map(str::trim).filter(|s| !s.is_empty()).collect()
}

/// A Postgres-wire server bound to a TCP address, serving one [`Engine`].
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    listener: TcpListener,
    verbose: bool,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:5433"`, or port `0` for an
    /// ephemeral port — read it back with [`Server::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(engine: Engine, addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { engine, listener, verbose: false })
    }

    /// Logs one line per connection (session id, peer, duration) to
    /// stderr. Off by default — benches and tests want silence.
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections forever on the calling thread (one spawned
    /// thread per accepted connection). Returns only on accept failure.
    pub fn serve(self) -> io::Result<()> {
        self.serve_until(None)
    }

    /// The accept loop. With a stop flag, checks it after every accept —
    /// [`ServerHandle::shutdown`] sets the flag and then self-connects to
    /// unblock the accept call.
    fn serve_until(self, stop: Option<Arc<AtomicBool>>) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst)) {
                return Ok(());
            }
            let stream = conn?;
            // Accept order is session-id order: the determinism-over-the-
            // wire contract (connection N replays session_with_id(N)).
            let session = self.engine.session();
            let verbose = self.verbose;
            let name = format!("pgwire-{}", session.id());
            let spawned = std::thread::Builder::new().name(name).spawn(move || {
                serve_connection(session, stream, verbose);
            });
            if let Err(e) = spawned {
                eprintln!("abae-server: cannot spawn connection thread: {e}");
            }
        }
        Ok(())
    }

    /// Serves on a background thread; the returned handle shuts the
    /// accept loop down on [`ServerHandle::shutdown`] or drop. In-flight
    /// connection threads are not joined — clients end them with
    /// `Terminate`.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("pgwire-accept".to_string())
            .spawn(move || {
                let _ = self.serve_until(Some(flag));
            })?;
        Ok(ServerHandle { addr, stop, join: Some(join) })
    }
}

/// Handle on a background [`Server`]: address + clean shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        let Some(join) = self.join.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop sees the flag and returns.
        let _ = TcpStream::connect(self.addr);
        let _ = join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Runs one connection start to finish, reporting nothing: a peer that
/// hangs up mid-message is routine for a server, not a failure.
fn serve_connection(session: Session, stream: TcpStream, verbose: bool) {
    let id = session.id();
    let peer = stream.peer_addr();
    // abae-lint: allow(wall_clock) -- connection-duration metric for the serve log; timing never feeds query results
    let started = std::time::Instant::now();
    let result = run_connection(session, stream);
    if verbose {
        let peer = peer.map_or_else(|_| "?".to_string(), |p| p.to_string());
        let outcome = match &result {
            Ok(()) => "closed".to_string(),
            Err(e) => format!("dropped: {e}"),
        };
        eprintln!(
            "abae-server: session {id} peer {peer} {outcome} after {:?}",
            started.elapsed()
        );
    }
}

/// Connection body: startup negotiation, greeting, then the query loop.
fn run_connection(mut session: Session, mut stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;

    // Startup phase: any number of SSL/GSS probes (answered 'N'), then a
    // protocol-3.0 startup packet, or a cancel request (no session).
    loop {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix)?;
        let len = match codec::startup_payload_len(prefix) {
            Ok(len) => len,
            Err(e) => return reject_startup(&mut stream, &e),
        };
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload)?;
        match codec::decode_startup(&payload) {
            Ok(Startup::TlsProbe) => {
                stream.write_all(b"N")?;
                stream.flush()?;
            }
            Ok(Startup::Cancel) => return Ok(()),
            Ok(Startup::Start(_params)) => break,
            Err(e) => return reject_startup(&mut stream, &e),
        }
    }

    // Greeting: auth-less, a few parameters well-behaved clients expect,
    // the session id in the key-data pid slot, then ready.
    let mut out = Vec::new();
    codec::authentication_ok(&mut out);
    codec::parameter_status(&mut out, "server_version", "13.0");
    codec::parameter_status(&mut out, "server_encoding", "UTF8");
    codec::parameter_status(&mut out, "client_encoding", "UTF8");
    codec::parameter_status(&mut out, "DateStyle", "ISO, MDY");
    codec::parameter_status(&mut out, "integer_datetimes", "on");
    codec::parameter_status(&mut out, "standard_conforming_strings", "on");
    codec::backend_key_data(&mut out, session.id() as u32, 0);
    codec::ready_for_query(&mut out);
    stream.write_all(&out)?;
    stream.flush()?;

    // Query loop: one framed frontend message at a time.
    loop {
        let mut kind = [0u8; 1];
        match stream.read_exact(&mut kind) {
            Ok(()) => {}
            // EOF between messages is a clean (if impolite) disconnect.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix)?;
        let len = match codec::frame_payload_len(prefix) {
            Ok(len) => len,
            Err(e) => return protocol_error(&mut stream, &e),
        };
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload)?;
        match codec::decode_frontend(kind[0], &payload) {
            Ok(FrontendMessage::Query(sql)) => {
                handle_query(&mut session, &sql, &mut stream)?;
                let mut out = Vec::new();
                codec::ready_for_query(&mut out);
                stream.write_all(&out)?;
                stream.flush()?;
            }
            Ok(FrontendMessage::Terminate) => return Ok(()),
            Ok(FrontendMessage::Unknown(k)) => {
                // Framing is intact (the whole frame was read), so the
                // connection survives — answer an error and stay ready.
                let mut out = Vec::new();
                codec::error_response(
                    &mut out,
                    PROTOCOL_VIOLATION,
                    &format!(
                        "unsupported frontend message {:?}; this server speaks the \
                         simple query protocol only",
                        k as char
                    ),
                );
                codec::ready_for_query(&mut out);
                stream.write_all(&out)?;
                stream.flush()?;
            }
            // A hostile payload inside a known message: sync is intact,
            // but the message is garbage — report and close.
            Err(e) => return protocol_error(&mut stream, &e),
        }
    }
}

/// Best-effort `ErrorResponse` for a startup-phase violation, then close.
fn reject_startup(stream: &mut TcpStream, err: &WireError) -> io::Result<()> {
    let mut out = Vec::new();
    codec::error_response(&mut out, PROTOCOL_VIOLATION, &format!("startup failed: {err}"));
    let _ = stream.write_all(&out);
    let _ = stream.flush();
    Ok(())
}

/// Best-effort `ErrorResponse` for a post-startup protocol violation,
/// then close — frame synchronization cannot be trusted after one.
fn protocol_error(stream: &mut TcpStream, err: &WireError) -> io::Result<()> {
    let mut out = Vec::new();
    codec::error_response(&mut out, PROTOCOL_VIOLATION, &format!("protocol violation: {err}"));
    let _ = stream.write_all(&out);
    let _ = stream.flush();
    Ok(())
}

/// How one statement failed: a query-layer error (recoverable — the rest
/// of the query string is skipped, Postgres-style, and the connection
/// stays up) or a socket error (the connection is gone).
enum StatementFailure {
    Query(QueryError),
    Io(io::Error),
}

impl From<io::Error> for StatementFailure {
    fn from(e: io::Error) -> Self {
        StatementFailure::Io(e)
    }
}

/// Answers one `Query` message (which may hold several `;`-separated
/// statements). Query-layer errors are answered in-band; only socket
/// errors propagate.
fn handle_query(session: &mut Session, sql: &str, stream: &mut TcpStream) -> io::Result<()> {
    let statements = split_statements(sql);
    if statements.is_empty() {
        let mut out = Vec::new();
        codec::empty_query_response(&mut out);
        stream.write_all(&out)?;
        return Ok(());
    }
    for stmt in statements {
        match run_statement(session, stmt, stream) {
            Ok(()) => {}
            Err(StatementFailure::Io(e)) => return Err(e),
            Err(StatementFailure::Query(e)) => {
                let mut out = Vec::new();
                codec::error_response(&mut out, sqlstate(&e), &e.to_string());
                stream.write_all(&out)?;
                // Like Postgres: an error aborts the remainder of a
                // multi-statement query string.
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Executes one statement and writes its result messages.
fn run_statement(
    session: &mut Session,
    stmt: &str,
    stream: &mut TcpStream,
) -> Result<(), StatementFailure> {
    // EXPLAIN is a frontend affordance (same contract as the CLI repl):
    // plan without spending oracle calls or advancing the RNG stream.
    let keyword = stmt.split_whitespace().next().unwrap_or("");
    if keyword.eq_ignore_ascii_case("EXPLAIN") {
        let rest = stmt[keyword.len()..].trim();
        let plan = session.explain(rest).map_err(StatementFailure::Query)?;
        let mut out = Vec::new();
        codec::row_description(&mut out, &[Field::text("QUERY PLAN")]);
        for line in plan.lines() {
            codec::data_row(&mut out, &[Some(line)]);
        }
        codec::command_complete(&mut out, "EXPLAIN");
        stream.write_all(&out)?;
        return Ok(());
    }

    // SHOW STATS is a server affordance, not engine SQL: one
    // `(stat, value)` row per engine-wide counter — sessions opened, the
    // oracle batcher's lifetime totals (shared batches, coalesced
    // requests, cache-served records), label-store hits/misses, the
    // strata cache's builds/hits/evictions/records, and the per-session
    // oracle-spend ledger. A pure read of shared counters: no
    // oracle calls, no RNG advance, so interleaving it between queries
    // cannot perturb any session's results.
    if keyword.eq_ignore_ascii_case("SHOW")
        && stmt[keyword.len()..].trim().eq_ignore_ascii_case("STATS")
    {
        let stats = session.engine().stats();
        let b = stats.batcher;
        let mut rows: Vec<(String, u64)> = vec![
            ("sessions_opened".into(), stats.sessions_opened),
            ("batcher.requests".into(), b.requests),
            ("batcher.invocations".into(), b.invocations),
            ("batcher.shared_batches".into(), b.shared_batches),
            ("batcher.coalesced_requests".into(), b.coalesced_requests),
            ("batcher.labeled_records".into(), b.labeled_records),
            ("batcher.cache_served".into(), b.cache_served),
            ("label_store.hits".into(), stats.label_hits),
            ("label_store.misses".into(), stats.label_misses),
            ("strata_cache.builds".into(), stats.strata_builds),
            ("strata_cache.hits".into(), stats.strata_hits),
            ("strata_cache.evictions".into(), stats.strata_evictions),
            ("strata_cache.records".into(), stats.strata_cached_records),
        ];
        for (id, spend) in stats.per_session_spend {
            rows.push((format!("session.{id}.oracle_spend"), spend));
        }
        let mut out = Vec::new();
        codec::row_description(&mut out, &[Field::text("stat"), Field::int8("value")]);
        for (name, value) in &rows {
            let value = value.to_string();
            codec::data_row(&mut out, &[Some(name.as_str()), Some(value.as_str())]);
        }
        codec::command_complete(&mut out, &format!("SHOW STATS {}", rows.len()));
        stream.write_all(&out)?;
        return Ok(());
    }

    // Anytime SELECTs (`UNTIL CI WIDTH`) run progressively: one
    // NoticeResponse per labeling-chunk snapshot, flushed immediately so
    // the client sees progress while the query runs, then the final rows.
    let progressive = matches!(
        parse_statement(stmt),
        Ok(Statement::Select(q)) if q.until_width.is_some()
    );
    if progressive {
        let mut notice_io: Option<io::Error> = None;
        let result = session.execute_progressive(stmt, |snap| {
            if notice_io.is_some() {
                return;
            }
            let mut line = format!("progress: {} labels", snap.budget_spent);
            if let Some(est) = snap.estimate() {
                line.push_str(&format!(", estimate {est}"));
            }
            if let Some(ci) = snap.ci() {
                line.push_str(&format!(", ci [{}, {}] width {}", ci.lo, ci.hi, ci.width()));
            }
            if snap.done {
                line.push_str(" (final)");
            }
            let mut out = Vec::new();
            codec::notice_response(&mut out, &line);
            if let Err(e) = stream.write_all(&out).and_then(|()| stream.flush()) {
                notice_io = Some(e);
            }
        });
        if let Some(e) = notice_io {
            return Err(StatementFailure::Io(e));
        }
        let result = result.map_err(StatementFailure::Query)?;
        let mut out = Vec::new();
        write_query_result(&mut out, &result);
        stream.write_all(&out)?;
        return Ok(());
    }

    // Everything else goes through the session's statement dispatcher.
    let outcome = session.run(stmt).map_err(StatementFailure::Query)?;
    let mut out = Vec::new();
    match outcome {
        abae_query::StatementOutcome::Rows(result) => write_query_result(&mut out, &result),
        abae_query::StatementOutcome::ProxyCreated(proxy) => {
            // `describe()` reports family, calibration, and training
            // spend; `psql` surfaces notices inline.
            codec::notice_response(&mut out, &proxy.describe());
            codec::command_complete(&mut out, "CREATE PROXY");
        }
        abae_query::StatementOutcome::Proxies(proxies) => {
            codec::row_description(&mut out, &[Field::text("proxy")]);
            for proxy in &proxies {
                let described = proxy.describe();
                codec::data_row(&mut out, &[Some(described.as_str())]);
            }
            codec::command_complete(&mut out, &format!("SHOW PROXIES {}", proxies.len()));
        }
    }
    stream.write_all(&out)?;
    Ok(())
}

/// Renders one float in Rust's shortest-round-trip `Display` form, which a
/// client can parse back to the bit-identical `f64` — the property the
/// wire-vs-in-process integration tests pin.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Writes a `SELECT` answer: `RowDescription` + `DataRow`s +
/// `CommandComplete`.
///
/// Scalar queries emit one row per SELECT-list aggregate with columns
/// `aggregate | estimate | ci_lo | ci_hi | ci_confidence | oracle_calls |
/// cache_hits | cache_misses`; GROUP BY queries emit one row per group
/// with `group_name` in place of `aggregate`. CI columns are NULL when the
/// query carries no CI (grouped rows without `WITH PROBABILITY`, …);
/// the oracle/cache accounting is per-query and repeats on every row.
fn write_query_result(out: &mut Vec<u8>, result: &QueryResult) {
    let accounting = [
        result.oracle_calls.to_string(),
        result.cache_hits.to_string(),
        result.cache_misses.to_string(),
    ];
    let mut nrows = 0u64;
    if let Some(groups) = &result.groups {
        codec::row_description(
            out,
            &[
                Field::text("group_name"),
                Field::float8("estimate"),
                Field::float8("ci_lo"),
                Field::float8("ci_hi"),
                Field::float8("ci_confidence"),
                Field::int8("oracle_calls"),
                Field::int8("cache_hits"),
                Field::int8("cache_misses"),
            ],
        );
        for row in groups {
            let estimate = fmt_f64(row.estimate);
            let ci = row.ci.map(|ci| [fmt_f64(ci.lo), fmt_f64(ci.hi), fmt_f64(ci.confidence)]);
            write_row(out, &row.name, &estimate, ci.as_ref(), &accounting);
            nrows += 1;
        }
    } else {
        codec::row_description(
            out,
            &[
                Field::text("aggregate"),
                Field::float8("estimate"),
                Field::float8("ci_lo"),
                Field::float8("ci_hi"),
                Field::float8("ci_confidence"),
                Field::int8("oracle_calls"),
                Field::int8("cache_hits"),
                Field::int8("cache_misses"),
            ],
        );
        for row in &result.rows {
            let label = format!("{}({})", row.func, row.expr);
            let estimate = fmt_f64(row.estimate);
            let ci = row.ci.map(|ci| [fmt_f64(ci.lo), fmt_f64(ci.hi), fmt_f64(ci.confidence)]);
            write_row(out, &label, &estimate, ci.as_ref(), &accounting);
            nrows += 1;
        }
    }
    codec::command_complete(out, &format!("SELECT {nrows}"));
}

/// One `DataRow` of the shared SELECT layout.
fn write_row(
    out: &mut Vec<u8>,
    label: &str,
    estimate: &str,
    ci: Option<&[String; 3]>,
    accounting: &[String; 3],
) {
    codec::data_row(
        out,
        &[
            Some(label),
            Some(estimate),
            ci.map(|c| c[0].as_str()),
            ci.map(|c| c[1].as_str()),
            ci.map(|c| c[2].as_str()),
            Some(accounting[0].as_str()),
            Some(accounting[1].as_str()),
            Some(accounting[2].as_str()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_top_level_semicolons_only() {
        assert_eq!(split_statements("SELECT 1"), vec!["SELECT 1"]);
        assert_eq!(split_statements("a; b ;; c;"), vec!["a", "b", "c"]);
        assert_eq!(split_statements("  ;  ; "), Vec::<&str>::new());
        assert_eq!(split_statements(""), Vec::<&str>::new());
        // `;` inside a single-quoted string does not split.
        assert_eq!(
            split_statements("SELECT AVG(x) FROM t WHERE f(a) = 'x;y'; SHOW PROXIES"),
            vec!["SELECT AVG(x) FROM t WHERE f(a) = 'x;y'", "SHOW PROXIES"]
        );
        // `''` (escaped quote) keeps toggling consistently.
        assert_eq!(
            split_statements("SELECT * FROM t WHERE f(a) = 'it''s;fine'; b"),
            vec!["SELECT * FROM t WHERE f(a) = 'it''s;fine'", "b"]
        );
    }

    #[test]
    fn sqlstates_are_stable() {
        use abae_query::parser::parse_query;
        let parse_err = parse_query("SELECT oops").unwrap_err();
        assert_eq!(sqlstate(&QueryError::Parse(parse_err)), "42601");
        assert_eq!(sqlstate(&QueryError::UnknownTable("t".into())), "42P01");
        assert_eq!(
            sqlstate(&QueryError::UnresolvedPredicate { atom: "a".into(), table: "t".into() }),
            "42703"
        );
        assert_eq!(
            sqlstate(&QueryError::UnknownProxy {
                proxy: "p".into(),
                table: "t".into(),
                available: vec![],
            }),
            "42704"
        );
        assert_eq!(sqlstate(&QueryError::UnboundParameter("ORACLE LIMIT ?")), "42P02");
        assert_eq!(sqlstate(&QueryError::Unsupported("x".into())), "0A000");
    }

    #[test]
    fn float_display_round_trips_bit_identically() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 12345.678901234567] {
            let s = fmt_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {s} -> {back}");
        }
    }
}
