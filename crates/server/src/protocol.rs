//! The `graphsig serve` wire protocol: line-delimited requests, framed
//! responses. Hand-rolled — no serde, no external parser.
//!
//! # Request grammar
//!
//! One request per line. Tokens are separated by ASCII whitespace; the
//! first token is the operation, every further token is a `key=value`
//! pair. Values are percent-escaped (see [`escape`]) so they can carry
//! spaces, `=`, newlines, and arbitrary bytes:
//!
//! ```text
//! request  := op (WS key "=" value)*
//! op       := "load" | "mine" | "freq" | "stats" | "cancel" | "ping" | "shutdown" | "auth"
//! key      := [a-z_]+
//! value    := escaped token (no whitespace)
//! ```
//!
//! Every request carries `id=<token>`; the server echoes it in the
//! response so concurrent requests can be correlated (responses are
//! written in completion order, not submission order). Blank lines and
//! lines starting with `#` are ignored.
//!
//! | op | keys |
//! |---|---|
//! | `load` | `dataset=` plus `path=` *or* `gen=aids count= [seed=]` (`count` at least 20); `[format=text\|packed]` (`packed` opens a sharded store directory leniently — damaged shards are quarantined and the dataset serves degraded); `[append=true]` extends the resident dataset instead of replacing it (as a new version, which builds its own caches) |
//! | `mine` | `dataset=` `[max_pvalue=] [min_freq=] [radius=] [fsm_freq=] [threads=] [top=] [timeout_ms=] [max_steps=]` (+ fault-injection keys `sleep_ms=` / `inject=panic`, only honored when the server enables them); `threads=` is clamped to the server's core count (0 = auto) |
//! | `freq` | `dataset=` `min_support=` `[max_edges=] [max_patterns=] [threads=] [timeout_ms=] [max_steps=]` — FSG over the dataset version's one shared label-pair index; `threads=` clamped as for `mine` |
//! | `stats` | `[dataset=]` |
//! | `cancel` | `target=<request id>` |
//! | `ping` | — |
//! | `shutdown` | `[drain_ms=]` |
//! | `auth` | `token=` — authenticate a TCP connection when the server runs with `--auth-token`. Must be the first request on the connection; every other op gets `status=error code=unauthorized` until it succeeds. Stdio connections are exempt (local trust). |
//!
//! # Response framing
//!
//! One header line, then exactly `bytes=<n>` raw payload bytes:
//!
//! ```text
//! resp id=<id> op=<op> status=<ok|error|busy> (key=value)* bytes=<n>
//! <n payload bytes>
//! ```
//!
//! `status=ok` may still describe a truncated run — the `completion` field
//! carries the [`Completion`](graphsig_graph::Completion) rendering.
//! `status=busy` is the backpressure rejection (queue full; retry later).
//! `status=error` carries an `error=` field; a panicking request handler
//! reports `status=error` with the panic message — the server keeps
//! serving. `bytes=` is always the last header field.

use std::collections::HashSet;
use std::fmt;

/// Longest accepted request line (raw bytes, before unescaping). Keeps a
/// hostile client from ballooning server memory one line at a time.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A malformed request line. Never a panic: the parser is total over
/// arbitrary input (property-tested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What was wrong.
    pub message: String,
    /// Best-effort scavenged request id, so the error response can still
    /// be correlated by the client.
    pub id: Option<String>,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn err(message: impl Into<String>) -> ProtocolError {
    ProtocolError {
        message: message.into(),
        id: None,
    }
}

/// Percent-escape a value for the wire: printable ASCII except `%` passes
/// through; everything else (whitespace, `%`, controls, non-ASCII bytes)
/// becomes `%XX`. The escaped form never contains whitespace, so tokens
/// stay whitespace-delimited.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for &b in value.as_bytes() {
        if (0x21..=0x7e).contains(&b) && b != b'%' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Invert [`escape`]. Errors on dangling or non-hex `%` sequences and on
/// escapes that do not decode to valid UTF-8.
pub fn unescape(token: &str) -> Result<String, ProtocolError> {
    let bytes = token.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| err(format!("dangling escape in '{token}'")))?;
            let hex = std::str::from_utf8(hex).map_err(|_| err("non-ASCII escape"))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| err(format!("bad escape '%{hex}' in '{token}'")))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| err(format!("escape in '{token}' is not valid UTF-8")))
}

/// Budget keys shared by `mine` and `freq`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BudgetParams {
    /// Wall-clock limit, measured from *submission* (queue wait counts).
    pub timeout_ms: Option<u64>,
    /// Per-work-unit step allowance (deterministic truncation).
    pub max_steps: Option<u64>,
}

/// On-disk format of a `load path=` source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadFormat {
    /// gSpan transaction text (the default).
    #[default]
    Text,
    /// A `graphsig-store` sharded directory (`graphsig pack` output).
    Packed,
}

/// `load`: make a dataset resident (replacing any previous version, or
/// extending it when `append=true`).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRequest {
    /// Request id.
    pub id: String,
    /// Name the dataset is addressed by afterwards.
    pub dataset: String,
    /// Where the graphs come from.
    pub source: LoadSource,
    /// How to read a `path=` source.
    pub format: LoadFormat,
    /// Extend the existing resident dataset instead of replacing it.
    pub append: bool,
}

/// Data source for a [`LoadRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSource {
    /// A gSpan-format transaction file on the server's filesystem.
    Path(String),
    /// A synthetic AIDS-like database (`gen=aids count=N [seed=S]`, `N`
    /// at least [`graphsig_datagen::MIN_DATASET_SIZE`]) — demos and tests
    /// without touching disk.
    AidsLike {
        /// Number of molecules.
        count: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// `mine`: run the GraphSig pipeline on a resident dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct MineRequest {
    /// Request id.
    pub id: String,
    /// Resident dataset name.
    pub dataset: String,
    /// `max_pvalue` override.
    pub max_pvalue: Option<f64>,
    /// `min_freq` override.
    pub min_freq: Option<f64>,
    /// `radius` override.
    pub radius: Option<usize>,
    /// `fsm_freq` override.
    pub fsm_freq: Option<f64>,
    /// Worker threads for this request (0 = auto).
    pub threads: Option<usize>,
    /// Cap on rendered subgraphs (like the CLI's `--top`).
    pub top: Option<usize>,
    /// Deadline / step caps.
    pub budget: BudgetParams,
    /// Fault injection: sleep this long (cancellably) before mining.
    /// Only honored when the server runs with injection enabled.
    pub sleep_ms: Option<u64>,
    /// Fault injection: panic inside the request handler.
    pub inject_panic: bool,
}

/// `freq`: frequent-subgraph mining over the whole resident dataset using
/// the shared [`LabelPairIndex`](graphsig_graph::LabelPairIndex).
#[derive(Debug, Clone, PartialEq)]
pub struct FreqRequest {
    /// Request id.
    pub id: String,
    /// Resident dataset name.
    pub dataset: String,
    /// Absolute support threshold.
    pub min_support: usize,
    /// Pattern edge cap.
    pub max_edges: Option<usize>,
    /// Pattern count cap.
    pub max_patterns: Option<usize>,
    /// Worker threads for this request (0 = auto).
    pub threads: Option<usize>,
    /// Deadline / step caps.
    pub budget: BudgetParams,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Make a dataset resident.
    Load(LoadRequest),
    /// Mine significant subgraphs.
    Mine(MineRequest),
    /// Mine frequent subgraphs via the shared index.
    Freq(FreqRequest),
    /// Server / dataset observability.
    Stats {
        /// Request id.
        id: String,
        /// Restrict to one dataset (global counters otherwise).
        dataset: Option<String>,
    },
    /// Cancel an in-flight or queued request.
    Cancel {
        /// Request id of the cancel itself.
        id: String,
        /// Id of the request to cancel.
        target: String,
    },
    /// Liveness probe.
    Ping {
        /// Request id.
        id: String,
    },
    /// Stop accepting work, drain, then confirm and close.
    Shutdown {
        /// Request id.
        id: String,
        /// Drain deadline override (ms).
        drain_ms: Option<u64>,
    },
    /// Authenticate a TCP connection (`--auth-token` servers only).
    Auth {
        /// Request id.
        id: String,
        /// The presented token, compared byte-for-byte.
        token: String,
    },
}

impl Request {
    /// The request's correlation id.
    pub fn id(&self) -> &str {
        match self {
            Request::Load(r) => &r.id,
            Request::Mine(r) => &r.id,
            Request::Freq(r) => &r.id,
            Request::Stats { id, .. } => id,
            Request::Cancel { id, .. } => id,
            Request::Ping { id } => id,
            Request::Shutdown { id, .. } => id,
            Request::Auth { id, .. } => id,
        }
    }

    /// The operation name (echoed in the response header).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Load(_) => "load",
            Request::Mine(_) => "mine",
            Request::Freq(_) => "freq",
            Request::Stats { .. } => "stats",
            Request::Cancel { .. } => "cancel",
            Request::Ping { .. } => "ping",
            Request::Shutdown { .. } => "shutdown",
            Request::Auth { .. } => "auth",
        }
    }

    /// The resident dataset the request names, if any.
    pub(crate) fn dataset(&self) -> Option<&str> {
        match self {
            Request::Load(r) => Some(&r.dataset),
            Request::Mine(r) => Some(&r.dataset),
            Request::Freq(r) => Some(&r.dataset),
            Request::Stats { dataset, .. } => dataset.as_deref(),
            _ => None,
        }
    }
}

/// Parsed `key=value` pairs with take-and-check-leftovers access.
struct Fields {
    pairs: Vec<(String, String)>,
}

impl Fields {
    fn parse(tokens: std::str::SplitAsciiWhitespace<'_>) -> Result<Fields, ProtocolError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        // A line may carry thousands of keys: one hash probe each keeps the
        // duplicate check linear in the line.
        let mut seen = HashSet::new();
        for tok in tokens {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got '{tok}'")))?;
            if k.is_empty() || !k.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
                return Err(err(format!("bad key '{k}'")));
            }
            if !seen.insert(k) {
                return Err(err(format!("duplicate key '{k}'")));
            }
            pairs.push((k.to_string(), unescape(v)?));
        }
        Ok(Fields { pairs })
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(i).1)
    }

    fn require(&mut self, key: &str) -> Result<String, ProtocolError> {
        self.take(key)
            .ok_or_else(|| err(format!("missing required key '{key}'")))
    }

    fn take_parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, ProtocolError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| err(format!("bad value for '{key}': '{v}'"))),
        }
    }

    fn require_parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, ProtocolError> {
        let v = self.require(key)?;
        v.parse()
            .map_err(|_| err(format!("bad value for '{key}': '{v}'")))
    }

    fn take_budget(&mut self) -> Result<BudgetParams, ProtocolError> {
        Ok(BudgetParams {
            timeout_ms: self.take_parse("timeout_ms")?,
            max_steps: self.take_parse("max_steps")?,
        })
    }

    fn finish(self, op: &str) -> Result<(), ProtocolError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(err(format!("unknown key '{k}' for op '{op}'"))),
        }
    }
}

/// Parse one request line. Total over arbitrary input: any malformed line
/// yields `Err`, never a panic. Returns `Ok(None)` for blank and `#`
/// comment lines.
pub fn parse_request(line: &str) -> Result<Option<Request>, ProtocolError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(err(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    let mut tokens = line.split_ascii_whitespace();
    let op = tokens.next().unwrap_or_default();
    let mut fields = Fields::parse(tokens).map_err(|mut e| {
        // Even on a field error, scavenge an id for correlation.
        e.id = scavenge_id(line);
        e
    })?;
    let id = fields.require("id")?;
    if id.is_empty() {
        return Err(ProtocolError {
            message: "empty request id".into(),
            id: None,
        });
    }
    let with_id = |mut e: ProtocolError, id: &str| {
        e.id = Some(id.to_string());
        e
    };
    let req = (|| -> Result<Request, ProtocolError> {
        match op {
            "load" => {
                let dataset = fields.require("dataset")?;
                let path = fields.take("path");
                let gen = fields.take("gen");
                let format = match fields.take("format").as_deref() {
                    None | Some("text") => LoadFormat::Text,
                    Some("packed") => LoadFormat::Packed,
                    Some(other) => return Err(err(format!("unknown format '{other}'"))),
                };
                let append = fields.take_parse("append")?.unwrap_or(false);
                let source = match (path, gen.as_deref()) {
                    (Some(p), None) => LoadSource::Path(p),
                    (None, Some("aids")) => {
                        if format == LoadFormat::Packed {
                            return Err(err("format=packed requires a 'path' source"));
                        }
                        let count: usize = fields.require_parse("count")?;
                        let min = graphsig_datagen::MIN_DATASET_SIZE;
                        if count < min {
                            return Err(err(format!("count must be at least {min}, got {count}")));
                        }
                        LoadSource::AidsLike {
                            count,
                            seed: fields.take_parse("seed")?.unwrap_or(42),
                        }
                    }
                    (None, Some(other)) => return Err(err(format!("unknown generator '{other}'"))),
                    (Some(_), Some(_)) => {
                        return Err(err("'path' and 'gen' are mutually exclusive"))
                    }
                    (None, None) => return Err(err("load needs 'path' or 'gen'")),
                };
                fields.finish("load")?;
                Ok(Request::Load(LoadRequest {
                    id: id.clone(),
                    dataset,
                    source,
                    format,
                    append,
                }))
            }
            "mine" => {
                let r = MineRequest {
                    id: id.clone(),
                    dataset: fields.require("dataset")?,
                    max_pvalue: fields.take_parse("max_pvalue")?,
                    min_freq: fields.take_parse("min_freq")?,
                    radius: fields.take_parse("radius")?,
                    fsm_freq: fields.take_parse("fsm_freq")?,
                    threads: fields.take_parse("threads")?,
                    top: fields.take_parse("top")?,
                    budget: fields.take_budget()?,
                    sleep_ms: fields.take_parse("sleep_ms")?,
                    inject_panic: match fields.take("inject").as_deref() {
                        None => false,
                        Some("panic") => true,
                        Some(other) => return Err(err(format!("unknown injection '{other}'"))),
                    },
                };
                fields.finish("mine")?;
                Ok(Request::Mine(r))
            }
            "freq" => {
                let r = FreqRequest {
                    id: id.clone(),
                    dataset: fields.require("dataset")?,
                    min_support: fields.require_parse("min_support")?,
                    max_edges: fields.take_parse("max_edges")?,
                    max_patterns: fields.take_parse("max_patterns")?,
                    threads: fields.take_parse("threads")?,
                    budget: fields.take_budget()?,
                };
                fields.finish("freq")?;
                Ok(Request::Freq(r))
            }
            "stats" => {
                let dataset = fields.take("dataset");
                fields.finish("stats")?;
                Ok(Request::Stats {
                    id: id.clone(),
                    dataset,
                })
            }
            "cancel" => {
                let target = fields.require("target")?;
                fields.finish("cancel")?;
                Ok(Request::Cancel {
                    id: id.clone(),
                    target,
                })
            }
            "ping" => {
                fields.finish("ping")?;
                Ok(Request::Ping { id: id.clone() })
            }
            "shutdown" => {
                let drain_ms = fields.take_parse("drain_ms")?;
                fields.finish("shutdown")?;
                Ok(Request::Shutdown {
                    id: id.clone(),
                    drain_ms,
                })
            }
            "auth" => {
                let token = fields.require("token")?;
                fields.finish("auth")?;
                Ok(Request::Auth {
                    id: id.clone(),
                    token,
                })
            }
            other => Err(err(format!("unknown op '{other}'"))),
        }
    })()
    .map_err(|e| with_id(e, &id))?;
    Ok(Some(req))
}

/// Best-effort extraction of `id=` from a line that failed to parse.
fn scavenge_id(line: &str) -> Option<String> {
    for tok in line.split_ascii_whitespace().skip(1) {
        if let Some(v) = tok.strip_prefix("id=") {
            if let Ok(id) = unescape(v) {
                if !id.is_empty() {
                    return Some(id);
                }
            }
        }
    }
    None
}

/// Response status: the three-way outcome every request resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Request was served (possibly with a truncated result — see the
    /// `completion` field).
    Ok,
    /// Request failed; the `error` field says why. The server stays up.
    Error,
    /// Load shed: the bounded queue was full. Retry later.
    Busy,
}

impl Status {
    fn as_str(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Busy => "busy",
        }
    }
}

/// One framed response: header fields plus a raw payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id (or `-` when the request line carried none).
    pub id: String,
    /// Echoed operation (or `?` when unparseable).
    pub op: String,
    /// Outcome class.
    pub status: Status,
    /// Additional `key=value` header fields, in order.
    pub fields: Vec<(&'static str, String)>,
    /// Raw payload bytes (already rendered; may be empty).
    pub payload: String,
}

impl Response {
    /// A payload-less response.
    pub fn new(id: &str, op: &str, status: Status) -> Self {
        Response {
            id: id.to_string(),
            op: op.to_string(),
            status,
            fields: Vec::new(),
            payload: String::new(),
        }
    }

    /// An error response with the reason in the `error` field.
    pub fn error(id: &str, op: &str, message: impl Into<String>) -> Self {
        Response::new(id, op, Status::Error).with_field("error", message.into())
    }

    /// Append a header field (builder-style).
    pub fn with_field(mut self, key: &'static str, value: impl ToString) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Look up a header field (the server's request-log reads these back
    /// at completion time).
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Attach the payload (builder-style).
    pub fn with_payload(mut self, payload: String) -> Self {
        self.payload = payload;
        self
    }

    /// Render the full wire form: header line + `bytes=` framed payload.
    pub fn render(&self) -> String {
        let mut out = format!(
            "resp id={} op={} status={}",
            escape(&self.id),
            escape(&self.op),
            self.status.as_str()
        );
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&escape(v));
        }
        out.push_str(&format!(" bytes={}\n", self.payload.len()));
        out.push_str(&self.payload);
        out
    }
}

/// A response header parsed back from the wire (the client half, used by
/// the tests and the benchmark's client).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseHeader {
    /// Echoed request id.
    pub id: String,
    /// Echoed operation.
    pub op: String,
    /// Outcome class.
    pub status: Status,
    /// All other header fields, in wire order.
    pub fields: Vec<(String, String)>,
    /// Payload length in bytes (read exactly this many after the header).
    pub bytes: usize,
}

impl ResponseHeader {
    /// Look up a header field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a response header line (total; never panics).
pub fn parse_response_header(line: &str) -> Result<ResponseHeader, ProtocolError> {
    let mut tokens = line.trim().split_ascii_whitespace();
    if tokens.next() != Some("resp") {
        return Err(err("response must start with 'resp'"));
    }
    let mut fields = Fields::parse(tokens)?;
    let id = fields.require("id")?;
    let op = fields.require("op")?;
    let status = match fields.require("status")?.as_str() {
        "ok" => Status::Ok,
        "error" => Status::Error,
        "busy" => Status::Busy,
        other => return Err(err(format!("unknown status '{other}'"))),
    };
    let bytes: usize = fields.require_parse("bytes")?;
    Ok(ResponseHeader {
        id,
        op,
        status,
        fields: fields.pairs,
        bytes,
    })
}

/// One framed response: its header and exactly `header.bytes` of payload.
pub type Frame = (ResponseHeader, Vec<u8>);

/// Split a received byte stream into its complete `(header, payload)`
/// frames and the length of the tail after them: a header line with no
/// newline yet, or a header whose payload has not fully arrived. A frame
/// is complete only when all of its `bytes=` payload is present, so a
/// client dropped mid-response can never mistake a cut frame for a whole
/// one. Total: a complete header line that does not parse is `Err`.
pub fn parse_response_stream(buf: &[u8]) -> Result<(Vec<Frame>, usize), ProtocolError> {
    let mut frames = Vec::new();
    let mut rest = buf;
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        let line =
            std::str::from_utf8(&rest[..nl]).map_err(|_| err("response header is not UTF-8"))?;
        let header = parse_response_header(line)?;
        let body_start = nl + 1;
        let Some(body_end) = body_start
            .checked_add(header.bytes)
            .filter(|&e| e <= rest.len())
        else {
            break;
        };
        frames.push((header, rest[body_start..body_end].to_vec()));
        rest = &rest[body_end..];
    }
    Ok((frames, rest.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips() {
        for s in [
            "",
            "plain",
            "with space",
            "a=b%c\nd\t",
            "héllo→",
            "%",
            "%%2",
        ] {
            let e = escape(s);
            assert!(
                e.bytes().all(|b| (0x21..=0x7e).contains(&b)),
                "unescaped byte survives in {e:?}"
            );
            assert_eq!(unescape(&e).as_deref(), Ok(s), "roundtrip of {s:?}");
        }
    }

    #[test]
    fn unescape_rejects_bad_escapes() {
        assert!(unescape("%").is_err());
        assert!(unescape("%g1").is_err());
        assert!(unescape("abc%2").is_err());
        // A bare high escape that is not valid UTF-8.
        assert!(unescape("%FF").is_err());
    }

    #[test]
    fn parses_mine_with_all_keys() {
        let line = "mine id=7 dataset=aids max_pvalue=0.05 min_freq=0.1 radius=4 \
                    fsm_freq=0.9 threads=2 top=10 timeout_ms=500 max_steps=100";
        let Ok(Some(Request::Mine(r))) = parse_request(line) else {
            panic!("parse failed");
        };
        assert_eq!(r.id, "7");
        assert_eq!(r.dataset, "aids");
        assert_eq!(r.max_pvalue, Some(0.05));
        assert_eq!(r.budget.timeout_ms, Some(500));
        assert_eq!(r.budget.max_steps, Some(100));
        assert_eq!(r.top, Some(10));
        assert!(!r.inject_panic);
        // FSG is GraphSig's only FSM engine, so `mine` has no miner key.
        let Err(e) = parse_request("mine id=8 dataset=d backend=gspan") else {
            panic!("accepted backend= on mine");
        };
        assert_eq!(e.to_string(), "unknown key 'backend' for op 'mine'");
    }

    #[test]
    fn parses_matcher_key_on_mine_and_freq() {
        // There is one isomorphism engine, so `matcher=` is rejected like
        // any other unknown key, whatever its value; and FSG is the one
        // frequent-subgraph miner, so `freq` takes no `backend=` either.
        for (op, key, line) in [
            ("mine", "matcher", "mine id=1 dataset=d matcher=fast"),
            (
                "freq",
                "matcher",
                "freq id=2 dataset=d min_support=3 matcher=vf2",
            ),
            (
                "freq",
                "backend",
                "freq id=3 dataset=d min_support=3 backend=gspan",
            ),
        ] {
            let Err(e) = parse_request(line) else {
                panic!("accepted: {line}");
            };
            assert_eq!(e.to_string(), format!("unknown key '{key}' for op '{op}'"));
        }
    }

    #[test]
    fn parses_load_variants() {
        let Ok(Some(Request::Load(r))) = parse_request("load id=1 dataset=d path=/tmp/a%20b.txt")
        else {
            panic!();
        };
        assert_eq!(r.source, LoadSource::Path("/tmp/a b.txt".into()));
        let Ok(Some(Request::Load(r))) =
            parse_request("load id=2 dataset=d gen=aids count=50 seed=7")
        else {
            panic!();
        };
        assert_eq!(r.source, LoadSource::AidsLike { count: 50, seed: 7 });
        // The generator's floor is an error, not a silent resize.
        let small = parse_request("load id=2 dataset=d gen=aids count=19").unwrap_err();
        assert!(small.message.contains("20"), "{}", small.message);
        assert_eq!(small.id.as_deref(), Some("2"));
        assert!(parse_request("load id=2 dataset=d gen=aids count=20").is_ok());
        assert!(parse_request("load id=3 dataset=d").is_err());
        assert!(parse_request("load id=3 dataset=d path=x gen=aids count=1").is_err());
    }

    #[test]
    fn parses_load_format_and_append() {
        let Ok(Some(Request::Load(r))) = parse_request("load id=1 dataset=d path=/s/store") else {
            panic!();
        };
        assert_eq!(r.format, LoadFormat::Text);
        assert!(!r.append);
        let Ok(Some(Request::Load(r))) =
            parse_request("load id=2 dataset=d path=/s/store format=packed append=true")
        else {
            panic!();
        };
        assert_eq!(r.format, LoadFormat::Packed);
        assert!(r.append);
        assert!(parse_request("load id=3 dataset=d path=x format=csv").is_err());
        assert!(parse_request("load id=4 dataset=d path=x append=maybe").is_err());
        assert!(parse_request("load id=5 dataset=d gen=aids count=5 format=packed").is_err());
    }

    #[test]
    fn parses_auth() {
        let Ok(Some(Request::Auth { id, token })) = parse_request("auth id=1 token=s3cr%3Dt")
        else {
            panic!("parse failed");
        };
        assert_eq!(id, "1");
        assert_eq!(token, "s3cr=t");
        assert!(parse_request("auth id=1").is_err());
        assert!(parse_request("auth id=1 token=t extra=x").is_err());
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(parse_request(""), Ok(None));
        assert_eq!(parse_request("   "), Ok(None));
        assert_eq!(parse_request("# a comment"), Ok(None));
    }

    #[test]
    fn errors_carry_the_scavenged_id() {
        let e = parse_request("mine id=42 dataset=d bogus_key=1").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("42"));
        let e = parse_request("explode id=9").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("9"));
        // A threshold sweep is N `freq` calls; there is no `sweep` op.
        let e = parse_request("sweep id=3 dataset=d supports=4,2").unwrap_err();
        assert_eq!(e.to_string(), "unknown op 'sweep'");
        assert_eq!(e.id.as_deref(), Some("3"));
        let e = parse_request("mine dataset=d").unwrap_err();
        assert_eq!(e.id, None);
    }

    #[test]
    fn a_line_of_thousands_of_distinct_keys_is_rejected_in_linear_time() {
        // The longest line the protocol accepts, filled with distinct
        // 3-letter keys: a duplicate check that compares every key with
        // every earlier one makes about 60 M comparisons per line.
        let mut line = String::from("mine id=k dataset=d");
        let mut keys = 0;
        while line.len() + " aaa=1".len() <= MAX_LINE_BYTES {
            let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
            let key: String = [keys / 676, keys / 26, keys].map(letter).iter().collect();
            line.push_str(&format!(" {key}=1"));
            keys += 1;
        }
        assert!(keys > 10_000, "{keys} keys");
        let started = std::time::Instant::now();
        for _ in 0..20 {
            let e = parse_request(&line).unwrap_err();
            assert!(e.message.starts_with("unknown key "), "{e}");
        }
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_millis(500),
            "20 lines of {keys} keys took {took:?}"
        );
    }

    #[test]
    fn rejects_malformed_lines_without_panicking() {
        for line in [
            "mine",
            "mine id=",
            "mine id=1",           // missing dataset
            "freq id=1 dataset=d", // missing min_support
            "mine id=1 dataset=d radius=potato",
            "mine id=1 id=2 dataset=d",
            "cancel id=1",
            "=x id=1",
            "mine id=1 dataset=d KEY=v",
            "mine id=1 dataset=d inject=segfault",
        ] {
            assert!(parse_request(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn response_renders_and_parses_back() {
        let r = Response::new("req 1", "mine", Status::Ok)
            .with_field("completion", "complete")
            .with_field("subgraphs", 3)
            .with_payload("line one\nline two\n".into());
        let wire = r.render();
        let (header, rest) = wire.split_once('\n').unwrap();
        let h = parse_response_header(header).unwrap();
        assert_eq!(h.id, "req 1");
        assert_eq!(h.status, Status::Ok);
        assert_eq!(h.field("completion"), Some("complete"));
        assert_eq!(h.field("subgraphs"), Some("3"));
        assert_eq!(h.bytes, rest.len());
        assert_eq!(rest, "line one\nline two\n");
    }

    #[test]
    fn busy_and_error_render() {
        let b = Response::new("5", "mine", Status::Busy).with_field("queue", 4);
        assert!(b
            .render()
            .starts_with("resp id=5 op=mine status=busy queue=4 bytes=0"));
        let e = Response::error("6", "mine", "unknown dataset 'x'");
        let h = parse_response_header(e.render().lines().next().unwrap()).unwrap();
        assert_eq!(h.status, Status::Error);
        assert_eq!(h.field("error"), Some("unknown dataset 'x'"));
    }

    #[test]
    fn response_stream_splits_complete_frames_from_a_truncated_tail() {
        let full = b"resp id=1 op=ping status=ok bytes=0\n";
        let (frames, tail) = parse_response_stream(full).unwrap();
        assert_eq!((frames.len(), tail), (1, 0));
        // The header promises 10 bytes and only 5 arrived: tail, not a frame.
        let mut buf = full.to_vec();
        buf.extend_from_slice(b"resp id=2 op=mine status=ok bytes=10\n12345");
        let (frames, tail) = parse_response_stream(&buf).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(tail, buf.len() - full.len());
        // A torn header line is tail too.
        let (frames, tail) = parse_response_stream(b"resp id=3 op=pi").unwrap();
        assert_eq!((frames.len(), tail), (0, 15));
        // A complete header line that does not parse is an error.
        assert!(parse_response_stream(b"resp id=4 op=ping status=maybe bytes=0\n").is_err());
    }
}
