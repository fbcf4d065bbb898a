//! `abae-server` — a Postgres-wire network serving layer for the ABae
//! engine, so any `psql`-speaking client can run ABAE queries.
//!
//! The server speaks the PostgreSQL **simple query protocol** (protocol
//! 3.0) over plain TCP with a thread per connection — no async runtime,
//! matching the workspace's offline/vendored-only build. The surface:
//!
//! * **Startup**: protocol-3.0 startup packet with parameter negotiation;
//!   `SSLRequest`/`GSSENCRequest` are answered `'N'` (clear text), and the
//!   server is auth-less (`AuthenticationOk` immediately).
//! * **`Query`**: one round of `RowDescription` / `DataRow` /
//!   `CommandComplete` per statement; multi-statement query strings are
//!   split on top-level `;` like a real Postgres backend.
//! * **Errors**: [`abae_query::QueryError`] maps to SQLSTATE codes on an
//!   `ErrorResponse` — the connection survives and answers the next query.
//! * **Shutdown**: `Terminate` or EOF closes the connection cleanly.
//!
//! One TCP connection maps to one [`abae_query::Session`], so the engine's
//! determinism contract survives the wire: connection *N* (in accept
//! order) replays the RNG stream of session id *N*, bit for bit — the
//! integration suite compares wire results against in-process
//! [`abae_query::Engine::session_with_id`] runs byte-for-byte.
//!
//! Statement surface (all routed through [`abae_query::Session::run`]):
//! ABAE `SELECT` (multi-aggregate and `GROUP BY`, with estimate/CI
//! columns), `CREATE PROXY`, `SHOW PROXIES`, `EXPLAIN`, and anytime
//! `UNTIL CI WIDTH` queries served progressively — one `NoticeResponse`
//! per labeling-chunk snapshot before the final rows.
//!
//! Modules: [`codec`] is the pure bytes-level message framing (hostile
//! -input-safe decode under the workspace no-panic contract), [`server`]
//! is the TCP listener and connection lifecycle, and [`client`] is the
//! minimal in-repo wire client the integration tests, the `adhoc_wire`
//! benchmark workload, and `abae-server --self-check` drive the server with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod server;

pub use client::{Column, QueryOutcome, ServerError, WireClient};
pub use codec::WireError;
pub use server::{Server, ServerHandle};
