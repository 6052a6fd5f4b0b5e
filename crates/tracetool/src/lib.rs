//! `proteus-trace`: a decision-quality analyzer for the JSONL telemetry
//! stream emitted by the ProteusTM stack (`crates/obs`).
//!
//! The trace is the stack's flight recorder: every adaptation decision —
//! quiescence epochs, configuration switches, CUSUM alarms, EI exploration
//! steps, CV folds — is a record with a logical sequence number, and span
//! records add the hierarchy. One line decoder reads every stream (it
//! owns the header/schema contract and the counter dump); [`parse_trace`]
//! runs it over a whole file and [`watch::Watcher`] runs it incrementally.
//! The views render from the decoded records:
//!
//! * [`report`] — decision timeline, regret-to-oracle and steps-to-within-ε
//!   convergence, switch/quiescence span breakdowns, fault and crash
//!   recovery audits (plain text or `--json`).
//! * [`diff`] — a structural comparison of two traces (per-kind counts,
//!   counter deltas, first diverging record).
//! * [`perf`] — KPI windows per series, phase alignment and the
//!   self-overhead audit; [`perf::render_diff`] gates two runs window by
//!   window.
//! * [`conflicts`] — abort attribution, wasted work, hot stripes and the
//!   goodput timeline (plain text or `--json`).
//! * [`watch`] — the follow-mode dashboard, one frame per window.
//!
//! Everything is a pure function of the input bytes: same trace, same
//! report, byte for byte. That property is load-bearing — the repo's
//! determinism tests compare analyzer output across `PROTEUS_JOBS` values
//! (`crates/bench/tests/tracetool.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflicts;
pub mod diff;
pub mod json;
pub mod perf;
pub mod report;
pub mod spans;
pub mod watch;

use json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// One parsed trace record (event or span begin/end).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// 1-based line number in the source stream (for error messages).
    pub line: usize,
    /// Logical sequence number, when present.
    pub seq: Option<u64>,
    /// Event kind (`"config.switch"`, `"span.begin"`, ...).
    pub kind: String,
    /// Remaining fields, in stream order.
    pub fields: Vec<(String, JsonValue)>,
}

impl Record {
    /// First field named `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `key` as u64.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// `key` as f64 (integers widen).
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// `key` as a string slice.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Compact `k=v` rendering of all fields except `seq`/`kind`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.fields {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.display());
        }
        out
    }

    /// `(name, value)` of a counter-dump record; `None` for other kinds.
    fn counter(&self) -> Option<(&str, u64)> {
        match self.kind.as_str() {
            "counter" => Some((self.str("name")?, self.u64("value")?)),
            _ => None,
        }
    }
}

/// A fully parsed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Schema version from the `trace.meta` header.
    pub schema: u32,
    /// Event and span records, in stream order (header and trailing
    /// counter dump excluded).
    pub records: Vec<Record>,
    /// The trailing counter dump (`{"kind":"counter",...}` lines), sorted
    /// by name as written by `obs::RunGuard::finish_trace`.
    pub counters: BTreeMap<String, u64>,
}

impl Trace {
    /// Records of one kind, in stream order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Number of records of one kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// A counter from the trailing dump (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Per-kind record counts, sorted by kind.
    pub fn kind_histogram(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.kind.as_str()).or_insert(0) += 1;
        }
        out
    }
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The stream has no lines at all (e.g. a `--no-default-features`
    /// build wrote it, or the path was wrong).
    Empty,
    /// The first line is not a `trace.meta` schema header.
    MissingHeader {
        /// Kind of the first record, when it parsed at all.
        first_kind: Option<String>,
    },
    /// The header names a schema outside the supported range.
    UnsupportedSchema {
        /// Version found in the stream.
        found: u64,
        /// Newest version this binary supports (it also reads back to
        /// [`obs::MIN_SUPPORTED_SCHEMA`]).
        supported: u32,
    },
    /// A line failed to parse or lacks mandatory structure.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(
                f,
                "empty trace: no lines at all (was the emitter built \
                 without the `telemetry` feature?)"
            ),
            TraceError::MissingHeader { first_kind } => write!(
                f,
                "missing schema header: the first line must be \
                 {{\"kind\":\"trace.meta\",\"schema\":N}}, found {}",
                match first_kind {
                    Some(k) => format!("a {k:?} record"),
                    None => "an unparseable line".to_string(),
                }
            ),
            TraceError::UnsupportedSchema { found, supported } => write!(
                f,
                "unsupported trace schema {found} (this proteus-trace \
                 understands schemas {}..={supported}); re-run the \
                 analyzer from the toolchain that produced the trace",
                obs::MIN_SUPPORTED_SCHEMA
            ),
            TraceError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

/// Incremental line decoder: trace bytes in any chunking, records out.
///
/// It splits lines on `\n`, `\r\n` or a lone `\r`, skips blank lines and
/// strips a UTF-8 BOM before the header. The first line must be the
/// `trace.meta` header with a `schema` in
/// `obs::MIN_SUPPORTED_SCHEMA..=obs::SCHEMA_VERSION`; anything else is a
/// hard error, because skew between emitter and analyzer must fail loudly,
/// not produce a half-right report. Every later line must be a record with
/// a `kind`, and counter-dump lines must carry a name and a value. A
/// partial last line waits in the decoder for the rest of its bytes.
#[derive(Debug, Default)]
pub(crate) struct Decoder {
    /// Bytes after the last line terminator seen.
    partial: String,
    /// Number of the last line decoded (1-based).
    line_no: usize,
    /// The last chunk ended in `\r`, so a leading `\n` completes a CRLF.
    after_cr: bool,
    /// Schema from the header, once it has been read.
    schema: Option<u32>,
}

impl Decoder {
    /// Decode every line `chunk` completes, in stream order. The header
    /// yields no record.
    pub(crate) fn feed(&mut self, chunk: &str) -> Result<Vec<Record>, TraceError> {
        let mut records = Vec::new();
        let mut rest = chunk;
        if self.after_cr && !rest.is_empty() {
            self.after_cr = false;
            rest = rest.strip_prefix('\n').unwrap_or(rest);
        }
        while let Some(end) = rest.find(['\n', '\r']) {
            let record = if self.partial.is_empty() {
                self.decode(&rest[..end])?
            } else {
                let mut line = std::mem::take(&mut self.partial);
                line.push_str(&rest[..end]);
                self.decode(&line)?
            };
            records.extend(record);
            let cr = rest.as_bytes()[end] == b'\r';
            rest = &rest[end + 1..];
            if cr {
                self.after_cr = rest.is_empty();
                rest = rest.strip_prefix('\n').unwrap_or(rest);
            }
        }
        self.partial.push_str(rest);
        Ok(records)
    }

    fn decode(&mut self, line: &str) -> Result<Option<Record>, TraceError> {
        self.line_no += 1;
        let line_no = self.line_no;
        let line = match self.schema {
            None => line.strip_prefix('\u{feff}').unwrap_or(line),
            Some(_) => line,
        }
        .trim();
        if line.is_empty() {
            return Ok(None);
        }
        let malformed = |msg: &str| TraceError::Malformed {
            line: line_no,
            msg: msg.to_string(),
        };
        let fields = json::parse_object(line).map_err(|msg| match self.schema {
            Some(_) => malformed(&msg),
            None => TraceError::MissingHeader { first_kind: None },
        })?;
        let mut record = Record {
            line: line_no,
            seq: None,
            kind: String::new(),
            fields: Vec::with_capacity(fields.len()),
        };
        let mut kind = None;
        for (k, v) in fields {
            match k.as_str() {
                "seq" => record.seq = v.as_u64(),
                "kind" => kind = v.as_str().map(str::to_string),
                _ => record.fields.push((k, v)),
            }
        }
        if self.schema.is_none() {
            if kind.as_deref() != Some("trace.meta") {
                return Err(TraceError::MissingHeader { first_kind: kind });
            }
            let schema = record
                .u64("schema")
                .ok_or_else(|| malformed("trace.meta header lacks a numeric \"schema\" field"))?;
            if !(obs::MIN_SUPPORTED_SCHEMA as u64..=obs::SCHEMA_VERSION as u64).contains(&schema) {
                return Err(TraceError::UnsupportedSchema {
                    found: schema,
                    supported: obs::SCHEMA_VERSION,
                });
            }
            self.schema = Some(schema as u32);
            return Ok(None);
        }
        record.kind = kind.ok_or_else(|| malformed("record lacks a \"kind\" field"))?;
        if record.kind == "counter" && record.counter().is_none() {
            return Err(malformed("counter record lacks name/value"));
        }
        Ok(Some(record))
    }
}

/// Parse a whole JSONL trace with the line decoder: the header contract
/// applies, counter-dump lines fold into [`Trace::counters`], and a final
/// line without a terminator still counts. A v2 trace parses as one that
/// happens to contain no `metrics.window`/`obs.overhead` records.
pub fn parse_trace(text: &str) -> Result<Trace, TraceError> {
    let mut decoder = Decoder::default();
    let mut decoded = decoder.feed(text)?;
    decoded.extend(decoder.feed("\n")?);
    let mut trace = Trace {
        schema: decoder.schema.ok_or(TraceError::Empty)?,
        records: Vec::with_capacity(decoded.len()),
        counters: BTreeMap::new(),
    };
    for record in decoded {
        match record.counter() {
            Some((name, value)) => {
                trace.counters.insert(name.to_string(), value);
            }
            None => trace.records.push(record),
        }
    }
    Ok(trace)
}

/// Write a `-- title --` section heading.
pub(crate) fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n-- {title} --");
}

/// Write `items` comma-separated between `open` and `close`, each by `item`.
pub(crate) fn json_seq<T>(
    out: &mut String,
    open: char,
    items: impl IntoIterator<Item = T>,
    close: char,
    mut item: impl FnMut(&mut String, T),
) {
    out.push(open);
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(close);
}

/// Write a float the way the trace does: finite values as numbers,
/// non-finite ones as strings.
pub(crate) fn fnum(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        obs::encode_str(out, &v.to_string());
    }
}

/// Write `Some(v)` via `item`, `None` as `null`.
pub(crate) fn json_opt<T>(out: &mut String, v: Option<T>, item: impl FnOnce(&mut String, T)) {
    match v {
        Some(v) => item(out, v),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{trace_of, trace_text};

    #[test]
    fn parses_header_records_and_counters() {
        let text = trace_text(&[
            r#"{"seq":0,"kind":"config.switch","from":"a","to":"b"}"#,
            r#"{"seq":1,"kind":"counter","name":"tx.commit.tl2","value":7}"#,
        ]);
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.schema, obs::SCHEMA_VERSION);
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].kind, "config.switch");
        assert_eq!(trace.records[0].seq, Some(0));
        assert_eq!(trace.records[0].str("to"), Some("b"));
        assert_eq!(trace.counter("tx.commit.tl2"), 7);
        assert_eq!(trace.counter("absent"), 0);
    }

    #[test]
    fn empty_stream_is_a_clear_error() {
        assert_eq!(parse_trace(""), Err(TraceError::Empty));
        assert_eq!(parse_trace("\n\n"), Err(TraceError::Empty));
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = parse_trace("{\"seq\":0,\"kind\":\"config.switch\"}\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::MissingHeader {
                first_kind: Some("config.switch".to_string())
            }
        );
        assert!(err.to_string().contains("trace.meta"));
    }

    #[test]
    fn unknown_schema_is_rejected_with_versions() {
        let text = "{\"kind\":\"trace.meta\",\"schema\":99}\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(
            err,
            TraceError::UnsupportedSchema {
                found: 99,
                supported: obs::SCHEMA_VERSION
            }
        );
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn older_supported_schemas_still_parse() {
        // A v2 trace (previous release) must keep parsing under the v3
        // analyzer: same records, no windows, no overhead audit.
        let text = "{\"kind\":\"trace.meta\",\"schema\":2}\n\
                    {\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}\n";
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.schema, 2);
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.count_kind("metrics.window"), 0);
        // ...while pre-header schema 1 stays out of range.
        let err = parse_trace("{\"kind\":\"trace.meta\",\"schema\":1}\n").unwrap_err();
        assert!(matches!(
            err,
            TraceError::UnsupportedSchema { found: 1, .. }
        ));
    }

    #[test]
    fn crlf_and_trailing_whitespace_are_tolerated() {
        let unix = trace_text(&[r#"{"seq":0,"kind":"config.switch","to":"b"}"#]);
        let crlf = unix.replace('\n', "\r\n");
        let cr_only = unix.replace('\n', "\r");
        let padded = unix.replace("}\n", "} \t\n").replace("\n{", "\n  {");
        let bom = format!("\u{feff}{unix}");
        let want = parse_trace(&unix).unwrap();
        for (label, text) in [
            ("crlf", &crlf),
            ("cr-only", &cr_only),
            ("padded", &padded),
            ("bom", &bom),
        ] {
            let got = parse_trace(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(got.schema, want.schema, "{label}");
            assert_eq!(got.records.len(), want.records.len(), "{label}");
            assert_eq!(got.records[0].kind, "config.switch", "{label}");
        }
    }

    #[test]
    fn malformed_lines_carry_their_line_number() {
        let text = trace_text(&["not json"]);
        match parse_trace(&text).unwrap_err() {
            TraceError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn decoder_output_is_chunking_invariant() {
        // Byte-at-a-time feeding splits every CRLF pair; records, line
        // numbers and the counter line must still come out as from the
        // whole text.
        let crlf = trace_text(&[
            r#"{"seq":0,"kind":"config.switch","to":"b"}"#,
            "",
            r#"{"seq":1,"kind":"counter","name":"c","value":3}"#,
        ])
        .replace('\n', "\r\n");
        let mut whole = Decoder::default();
        let want = whole.feed(&crlf).unwrap();
        assert_eq!(want.len(), 2);
        assert_eq!((want[0].line, want[1].line), (2, 4));
        let mut bytewise = Decoder::default();
        let mut got = Vec::new();
        for c in crlf.chars() {
            got.extend(bytewise.feed(c.encode_utf8(&mut [0; 4])).unwrap());
        }
        assert_eq!(got, want);
        // A line without its terminator waits for it.
        let mut d = Decoder::default();
        assert!(d.feed(&trace_text::<&str>(&[])).unwrap().is_empty());
        assert!(d.feed("{\"kind\":\"a\"").unwrap().is_empty());
        assert_eq!(d.feed("}\r").unwrap()[0].kind, "a");
    }

    #[test]
    fn only_counter_records_fold_into_the_dump() {
        let trace = trace_of(&[r#"{"seq":0,"kind":"demo.sample","name":"x","value":3}"#]);
        assert_eq!(trace.records.len(), 1);
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn records_without_kind_and_bad_counters_are_malformed() {
        for line in [r#"{"seq":0}"#, r#"{"seq":0,"kind":"counter","name":"c"}"#] {
            match parse_trace(&trace_text(&[line])).unwrap_err() {
                TraceError::Malformed { line, .. } => assert_eq!(line, 2),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }
}

/// Trace builders shared by the unit tests of every module.
#[cfg(test)]
pub(crate) mod testutil {
    /// A trace text: the current schema header, then one line per entry.
    pub fn trace_text<S: AsRef<str>>(lines: &[S]) -> String {
        let mut text = format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
            obs::SCHEMA_VERSION
        );
        for line in lines {
            text.push_str(line.as_ref());
            text.push('\n');
        }
        text
    }

    /// [`trace_text`], parsed.
    pub fn trace_of<S: AsRef<str>>(lines: &[S]) -> crate::Trace {
        crate::parse_trace(&trace_text(lines)).unwrap()
    }
}
