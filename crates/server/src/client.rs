//! A minimal in-repo Postgres-wire **client** for driving `abae-server`:
//! the integration suite proves the wire format with it, the repo
//! benchmark's `adhoc_wire` workload measures serving through it, and
//! `abae-server --self-check` uses it as a built-in smoke test.
//!
//! It speaks exactly the slice of the simple query protocol the server
//! emits — startup, `Query`, `RowDescription`/`DataRow`/`CommandComplete`,
//! `ErrorResponse`/`NoticeResponse` — in the text format, and collects one
//! [`QueryOutcome`] per query round (everything up to `ReadyForQuery`).
//! It is deliberately not a general-purpose driver: no extended protocol,
//! no TLS, no authentication (the server has none).

use crate::codec::{self, WireError};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Read timeout on client sockets: generous enough for release-mode
/// queries under CI load, finite so a wedged test fails instead of
/// hanging the suite.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One column of a result set, from `RowDescription`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Postgres type OID (see [`codec::oid`]).
    pub type_oid: u32,
}

/// An `ErrorResponse` from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// SQLSTATE code (field `C`).
    pub sqlstate: String,
    /// Human-readable message (field `M`).
    pub message: String,
}

/// Everything one `Query` round returned, collected up to the trailing
/// `ReadyForQuery`. Multi-statement query strings accumulate all of their
/// rows here; `columns` describes the most recent result set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOutcome {
    /// Columns of the (last) `RowDescription`.
    pub columns: Vec<Column>,
    /// Data rows in arrival order; `None` is SQL NULL.
    pub rows: Vec<Vec<Option<String>>>,
    /// Command tags (`SELECT 3`, `CREATE PROXY`, …) in completion order.
    pub tags: Vec<String>,
    /// `NoticeResponse` messages (anytime-query progress, proxy training
    /// reports) in arrival order.
    pub notices: Vec<String>,
    /// The `ErrorResponse`, if the round errored. The connection is still
    /// usable afterwards — the server answers the next query.
    pub error: Option<ServerError>,
    /// `true` if the server answered `EmptyQueryResponse`.
    pub empty: bool,
}

impl QueryOutcome {
    /// Cell `(row, col)` parsed as `f64` (`None` for SQL NULL or out of
    /// range).
    pub fn f64(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.as_deref()?.parse().ok()
    }

    /// Cell `(row, col)` as text (`None` for SQL NULL or out of range).
    pub fn text(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col)?.as_deref()
    }
}

/// A connected wire client. One instance = one server session; drop (or
/// [`WireClient::terminate`]) ends it.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    parameters: Vec<(String, String)>,
    backend_pid: u32,
}

impl WireClient {
    /// Connects and completes the startup handshake (no SSL probe).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_opts(addr, false)
    }

    /// Connects, optionally probing SSL first the way `psql` does (the
    /// server answers `'N'` and the handshake proceeds in clear).
    pub fn connect_opts<A: ToSocketAddrs>(addr: A, probe_ssl: bool) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;

        if probe_ssl {
            let mut msg = 8u32.to_be_bytes().to_vec();
            msg.extend_from_slice(&codec::SSL_REQUEST.to_be_bytes());
            stream.write_all(&msg)?;
            let mut answer = [0u8; 1];
            stream.read_exact(&mut answer)?;
            if answer[0] != b'N' {
                return Err(bad_data(format!(
                    "expected 'N' to the SSL probe, got {:?}",
                    answer[0] as char
                )));
            }
        }

        // StartupMessage: protocol 3.0 + parameters + terminator, length
        // prefix (including itself) first.
        let mut body = codec::PROTOCOL_VERSION_3.to_be_bytes().to_vec();
        for (k, v) in [("user", "abae"), ("database", "abae")] {
            body.extend_from_slice(k.as_bytes());
            body.push(0);
            body.extend_from_slice(v.as_bytes());
            body.push(0);
        }
        body.push(0);
        let mut msg = ((body.len() + 4) as u32).to_be_bytes().to_vec();
        msg.extend_from_slice(&body);
        stream.write_all(&msg)?;
        stream.flush()?;

        // Greeting: AuthenticationOk, ParameterStatus*, BackendKeyData,
        // ReadyForQuery.
        let mut client =
            Self { stream, parameters: Vec::new(), backend_pid: 0 };
        loop {
            let (kind, payload) = client.read_message()?;
            match kind {
                b'R' => {
                    let code = be_u32(&payload, 0)?;
                    if code != 0 {
                        return Err(bad_data(format!(
                            "server demands authentication (code {code})"
                        )));
                    }
                }
                b'S' => {
                    let (key, next) = cstr(&payload, 0)?;
                    let (value, _) = cstr(&payload, next)?;
                    client.parameters.push((key, value));
                }
                b'K' => client.backend_pid = be_u32(&payload, 0)?,
                b'Z' => return Ok(client),
                b'E' => {
                    let err = decode_fields(&payload)?;
                    return Err(bad_data(format!(
                        "startup rejected: {} ({})",
                        err.message, err.sqlstate
                    )));
                }
                b'N' => {} // notices during startup: ignore
                other => {
                    return Err(bad_data(format!(
                        "unexpected message {:?} during startup",
                        other as char
                    )))
                }
            }
        }
    }

    /// `ParameterStatus` pairs the server sent at startup.
    pub fn parameters(&self) -> &[(String, String)] {
        &self.parameters
    }

    /// The pid slot of `BackendKeyData` — `abae-server` puts the session
    /// id there, which is how tests confirm the session mapping.
    pub fn backend_pid(&self) -> u32 {
        self.backend_pid
    }

    /// Sends one simple-protocol `Query` and collects everything up to
    /// `ReadyForQuery`.
    pub fn query(&mut self, sql: &str) -> io::Result<QueryOutcome> {
        let mut body = sql.as_bytes().to_vec();
        body.push(0);
        let mut msg = vec![b'Q'];
        msg.extend_from_slice(&((body.len() + 4) as u32).to_be_bytes());
        msg.extend_from_slice(&body);
        self.stream.write_all(&msg)?;
        self.stream.flush()?;

        let mut outcome = QueryOutcome::default();
        loop {
            let (kind, payload) = self.read_message()?;
            match kind {
                b'T' => outcome.columns = decode_row_description(&payload)?,
                b'D' => outcome.rows.push(decode_data_row(&payload)?),
                b'C' => {
                    let (tag, _) = cstr(&payload, 0)?;
                    outcome.tags.push(tag);
                }
                b'E' => outcome.error = Some(decode_fields(&payload)?),
                b'N' => outcome.notices.push(decode_fields(&payload)?.message),
                b'I' => outcome.empty = true,
                b'Z' => return Ok(outcome),
                b'S' => {} // parameter changes: irrelevant here
                other => {
                    return Err(bad_data(format!(
                        "unexpected message {:?} in query round",
                        other as char
                    )))
                }
            }
        }
    }

    /// Sends `Terminate` and closes.
    pub fn terminate(mut self) -> io::Result<()> {
        let msg = [b'X', 0, 0, 0, 4];
        self.stream.write_all(&msg)?;
        self.stream.flush()
    }

    /// Reads one framed backend message.
    fn read_message(&mut self) -> io::Result<(u8, Vec<u8>)> {
        let mut kind = [0u8; 1];
        self.stream.read_exact(&mut kind)?;
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        let len = codec::frame_payload_len(prefix).map_err(wire)?;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        Ok((kind[0], payload))
    }
}

/// Maps a framing error onto `io::ErrorKind::InvalidData`.
fn wire(e: WireError) -> io::Error {
    bad_data(e.to_string())
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn be_u16(buf: &[u8], pos: usize) -> io::Result<u16> {
    match buf.get(pos..pos + 2) {
        Some([a, b]) => Ok(u16::from_be_bytes([*a, *b])),
        _ => Err(bad_data("truncated u16".into())),
    }
}

fn be_u32(buf: &[u8], pos: usize) -> io::Result<u32> {
    match buf.get(pos..pos + 4) {
        Some([a, b, c, d]) => Ok(u32::from_be_bytes([*a, *b, *c, *d])),
        _ => Err(bad_data("truncated u32".into())),
    }
}

fn cstr(buf: &[u8], pos: usize) -> io::Result<(String, usize)> {
    let tail = buf.get(pos..).ok_or_else(|| bad_data("truncated string".into()))?;
    let nul = tail
        .iter()
        .position(|&b| b == 0)
        .ok_or_else(|| bad_data("unterminated string".into()))?;
    let s = std::str::from_utf8(&tail[..nul]).map_err(|_| bad_data("non-UTF-8 string".into()))?;
    Ok((s.to_string(), pos + nul + 1))
}

/// Parses `RowDescription`: count, then per field name + 18 bytes of
/// attributes (of which only the type OID matters to this client).
fn decode_row_description(payload: &[u8]) -> io::Result<Vec<Column>> {
    let nfields = be_u16(payload, 0)? as usize;
    let mut columns = Vec::with_capacity(nfields);
    let mut pos = 2;
    for _ in 0..nfields {
        let (name, next) = cstr(payload, pos)?;
        let type_oid = be_u32(payload, next + 6)?;
        columns.push(Column { name, type_oid });
        pos = next + 18;
    }
    Ok(columns)
}

/// Parses `DataRow`: count, then per value an `i32` length (−1 = NULL)
/// and that many bytes of text.
fn decode_data_row(payload: &[u8]) -> io::Result<Vec<Option<String>>> {
    let nvalues = be_u16(payload, 0)? as usize;
    let mut values = Vec::with_capacity(nvalues);
    let mut pos = 2;
    for _ in 0..nvalues {
        let len = be_u32(payload, pos)? as i32;
        pos += 4;
        if len < 0 {
            values.push(None);
            continue;
        }
        let len = len as usize;
        let raw = payload
            .get(pos..pos + len)
            .ok_or_else(|| bad_data("truncated DataRow value".into()))?;
        let text =
            std::str::from_utf8(raw).map_err(|_| bad_data("non-UTF-8 DataRow value".into()))?;
        values.push(Some(text.to_string()));
        pos += len;
    }
    Ok(values)
}

/// Parses the field list of `ErrorResponse`/`NoticeResponse` down to the
/// SQLSTATE (`C`) and message (`M`).
fn decode_fields(payload: &[u8]) -> io::Result<ServerError> {
    let mut sqlstate = String::new();
    let mut message = String::new();
    let mut pos = 0;
    loop {
        match payload.get(pos) {
            None => return Err(bad_data("unterminated response fields".into())),
            Some(0) => break,
            Some(&field) => {
                let (value, next) = cstr(payload, pos + 1)?;
                match field {
                    b'C' => sqlstate = value,
                    b'M' => message = value,
                    _ => {}
                }
                pos = next;
            }
        }
    }
    Ok(ServerError { sqlstate, message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, Field};

    fn payload_of(buf: &[u8]) -> &[u8] {
        // kind byte + 4-byte length (incl. itself) + payload
        &buf[5..]
    }

    #[test]
    fn client_decodes_what_the_server_codec_encodes() {
        let mut buf = Vec::new();
        codec::row_description(
            &mut buf,
            &[Field::text("aggregate"), Field::float8("estimate"), Field::int8("oracle_calls")],
        );
        let columns = decode_row_description(payload_of(&buf)).unwrap();
        assert_eq!(
            columns,
            vec![
                Column { name: "aggregate".into(), type_oid: codec::oid::TEXT },
                Column { name: "estimate".into(), type_oid: codec::oid::FLOAT8 },
                Column { name: "oracle_calls".into(), type_oid: codec::oid::INT8 },
            ]
        );

        let mut buf = Vec::new();
        codec::data_row(&mut buf, &[Some("AVG(links)"), Some("3.25"), None]);
        let row = decode_data_row(payload_of(&buf)).unwrap();
        assert_eq!(row, vec![Some("AVG(links)".into()), Some("3.25".into()), None]);

        let mut buf = Vec::new();
        codec::error_response(&mut buf, "42P01", "unknown table `nope`");
        let err = decode_fields(payload_of(&buf)).unwrap();
        assert_eq!(err.sqlstate, "42P01");
        assert_eq!(err.message, "unknown table `nope`");
    }

    #[test]
    fn outcome_accessors_parse_cells() {
        let outcome = QueryOutcome {
            columns: vec![],
            rows: vec![vec![Some("AVG(x)".into()), Some("1.5".into()), None]],
            ..Default::default()
        };
        assert_eq!(outcome.text(0, 0), Some("AVG(x)"));
        assert_eq!(outcome.f64(0, 1), Some(1.5));
        assert_eq!(outcome.f64(0, 2), None, "NULL cell");
        assert_eq!(outcome.f64(1, 0), None, "row out of range");
    }
}
