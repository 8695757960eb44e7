//! Reading a [`crate::JsonlTracer`] stream back into [`TraceRecord`]s.
//!
//! The JSONL sink opens with a schema header line
//! (`{"schema":"cbp-trace","version":5}`) so consumers can reject traces
//! written by an incompatible emitter before mis-parsing thousands of
//! lines. [`JsonlReader`] checks the header, then yields one
//! `(t_us, TraceRecord)` per line; the round trip
//! `write → read → write` is byte-identical (tested).

use std::io::BufRead;

use crate::json::{self, Value};
use crate::trace::TraceRecord;

/// Schema name carried by the JSONL header line.
pub const TRACE_SCHEMA: &str = "cbp-trace";

/// Current schema version of the JSONL trace format.
///
/// Bump whenever a record variant changes shape or meaning (e.g. the
/// `dump_done.start_us` field moved from submission time to service start
/// when version 1 was introduced; version 2 added the fault-injection
/// vocabulary: `dump_fail`, `restore_fail`, `am_escalate`,
/// `replication_repair`; version 3 added the failure-domain and
/// circuit-breaker vocabulary: `node_down`, `node_up`, `partition_start`,
/// `partition_end`, `breaker_open`, `breaker_close`; version 4 added the
/// image-lifecycle vocabulary: `gc_pass`, `image_evict`, `image_spill`,
/// `no_space`; version 5 added the chunked-transfer integrity vocabulary:
/// `chunk_done`, `chunk_corrupt`, `chunk_refetch`, `resume_dump`,
/// `chain_truncate`).
pub const TRACE_SCHEMA_VERSION: u64 = 5;

/// Oldest schema version [`JsonlReader`] still accepts. Versions 2
/// through 5 only *added* vocabulary — every v1 line parses identically
/// under the v5 reader — so v1..=v4 traces remain readable.
pub const TRACE_SCHEMA_MIN_VERSION: u64 = 1;

/// The exact header line (without trailing newline) the JSONL sink emits.
pub fn schema_header() -> String {
    format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_SCHEMA_VERSION}}}")
}

/// Why reading a trace failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(String),
    /// The stream is empty or the first line is not a schema header.
    MissingHeader,
    /// The header names a different schema or an unsupported version.
    IncompatibleSchema {
        /// Schema name found in the header ("?" if absent).
        schema: String,
        /// Version found in the header (0 if absent).
        version: u64,
    },
    /// A record line failed to parse.
    Parse {
        /// 1-based line number (the header is line 1).
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::MissingHeader => write!(
                f,
                "trace is missing its schema header line (expected {})",
                schema_header()
            ),
            TraceReadError::IncompatibleSchema { schema, version } => write!(
                f,
                "incompatible trace schema {schema:?} v{version} (this reader \
                 understands {TRACE_SCHEMA:?} \
                 v{TRACE_SCHEMA_MIN_VERSION}..=v{TRACE_SCHEMA_VERSION})"
            ),
            TraceReadError::Parse { line, msg } => {
                write!(f, "trace line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

/// Maps a dynamic string onto the `&'static str` vocabulary the emitters
/// use, so a parsed [`TraceRecord`] is field-for-field identical to the
/// one that was written.
///
/// Strings outside the known vocabulary are leaked (they must live for
/// `'static`); an analyzer reads each distinct reason/device name once, so
/// the leak is bounded by the emitter's vocabulary size.
pub(crate) fn intern(s: &str) -> &'static str {
    const VOCAB: &[&str] = &[
        // preemption actions / policies / reasons
        "kill",
        "checkpoint",
        "adaptive",
        "wait",
        "policy",
        "progress-at-risk",
        "overhead-exceeds-risk",
        // eviction reasons
        "dump",
        "node-fail",
        "node-crash",
        // eviction reason for AM-escalation kills (YarnSim)
        "am-escalate",
        // fallback reasons
        "no-capacity",
        "storage-full",
        "nvram-full",
        "grace-expired",
        "dump-fail",
        "am-unresponsive",
        "breaker-open",
        "no-space",
        // restore failure classes
        "transient",
        "corrupt-image",
        "blocks-lost",
        // devices
        "hdd",
        "ssd",
        "nvm",
        "nvram",
    ];
    for v in VOCAB {
        if *v == s {
            return v;
        }
    }
    Box::leak(s.to_owned().into_boxed_str())
}

/// Streaming reader over a JSONL trace: validates the schema header at
/// construction, then iterates `(t_us, TraceRecord)` pairs.
///
/// ```
/// use cbp_telemetry::{JsonlReader, JsonlTracer, TraceRecord, Tracer};
/// let mut w = JsonlTracer::new(Vec::new());
/// w.record(5, &TraceRecord::NodeFail { node: 2 });
/// w.finish();
/// let bytes = w.into_inner();
/// let mut r = JsonlReader::new(bytes.as_slice()).unwrap();
/// let (t, rec) = r.next().unwrap().unwrap();
/// assert_eq!(t, 5);
/// assert!(matches!(rec, TraceRecord::NodeFail { node: 2 }));
/// ```
#[derive(Debug)]
pub struct JsonlReader<R: BufRead> {
    lines: std::io::Lines<R>,
    /// One-line lookahead, so a malformed *final* line (a crash-truncated
    /// trace) can be tolerated while malformed interior lines still error.
    pending: Option<std::io::Result<String>>,
    line_no: usize,
}

impl<R: BufRead> JsonlReader<R> {
    /// Wraps `input`, consuming and validating the schema header line.
    pub fn new(input: R) -> Result<Self, TraceReadError> {
        let mut lines = input.lines();
        let header = match lines.next() {
            None => return Err(TraceReadError::MissingHeader),
            Some(Err(e)) => return Err(TraceReadError::Io(e.to_string())),
            Some(Ok(line)) => line,
        };
        let v = json::parse(&header).ok_or(TraceReadError::MissingHeader)?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("?");
        let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
        if schema != TRACE_SCHEMA
            || !(TRACE_SCHEMA_MIN_VERSION..=TRACE_SCHEMA_VERSION).contains(&version)
        {
            return Err(TraceReadError::IncompatibleSchema {
                schema: schema.to_owned(),
                version,
            });
        }
        Ok(JsonlReader {
            lines,
            pending: None,
            line_no: 1,
        })
    }

    /// Decodes one record line that already parsed as JSON (`None` if it
    /// did not).
    fn decode(&self, v: Option<Value>, line: &str) -> Result<(u64, TraceRecord), TraceReadError> {
        let err = |msg: String| TraceReadError::Parse {
            line: self.line_no,
            msg,
        };
        let v = v.ok_or_else(|| err(format!("invalid JSON: {line}")))?;
        let t_us = v
            .get("t_us")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing t_us".into()))?;
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing event".into()))?;
        let rec = TraceRecord::decode(event, &v).map_err(err)?;
        Ok((t_us, rec))
    }
}

impl<R: BufRead> Iterator for JsonlReader<R> {
    type Item = Result<(u64, TraceRecord), TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.pending.take().or_else(|| self.lines.next())? {
                Ok(line) => line,
                Err(e) => return Some(Err(TraceReadError::Io(e.to_string()))),
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            // A line that is not even valid JSON *and* has nothing after it
            // is a crash-truncated final record: the writer died mid-line.
            // Tolerate it — warn and end the stream — so an analyzer can
            // still consume everything the crashed run managed to flush.
            // Malformed *interior* lines (more lines follow) still error.
            let v = json::parse(&line);
            if v.is_none() {
                self.pending = self.lines.next();
                if self.pending.is_none() {
                    eprintln!(
                        "warning: trace line {} is truncated mid-record \
                         (crash-truncated trace?); stopping here",
                        self.line_no
                    );
                    return None;
                }
            }
            return Some(self.decode(v, &line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{JsonlTracer, PreemptAction, Tracer};

    fn sample_stream() -> Vec<(u64, TraceRecord)> {
        vec![
            (
                0,
                TraceRecord::TaskSubmit {
                    task: (9 << 32) | 1, // packed YARN-style id above 2^32
                    job: 9,
                    priority: 11,
                },
            ),
            (
                3,
                TraceRecord::TaskSchedule {
                    task: (9 << 32) | 1,
                    node: 2,
                    restore: false,
                },
            ),
            (
                8,
                TraceRecord::PreemptDecision {
                    victim: (9 << 32) | 1,
                    node: 2,
                    action: PreemptAction::Checkpoint,
                    policy: "adaptive",
                    reason: "progress-at-risk",
                },
            ),
            (
                8,
                TraceRecord::DumpStart {
                    task: (9 << 32) | 1,
                    node: 2,
                    device: "hdd",
                    bytes: 1 << 30,
                    incremental: true,
                },
            ),
            (
                8,
                TraceRecord::TaskEvict {
                    task: (9 << 32) | 1,
                    node: 2,
                    reason: "dump",
                },
            ),
            (
                20,
                TraceRecord::DumpDone {
                    task: (9 << 32) | 1,
                    node: 2,
                    start_us: 10,
                },
            ),
            (
                25,
                TraceRecord::RestoreStart {
                    task: (9 << 32) | 1,
                    node: 4,
                    origin: 2,
                    device: "hdd",
                    bytes: 1 << 30,
                    remote: true,
                },
            ),
            (
                40,
                TraceRecord::RestoreDone {
                    task: (9 << 32) | 1,
                    node: 4,
                    start_us: 30,
                },
            ),
            (
                41,
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 1,
                    reason: "grace-expired",
                },
            ),
            (
                41,
                TraceRecord::DumpFail {
                    task: 7,
                    node: 1,
                    attempt: 2,
                    will_retry: false,
                },
            ),
            (
                41,
                TraceRecord::RestoreFail {
                    task: 7,
                    node: 1,
                    attempt: 0,
                    reason: "corrupt-image",
                    will_retry: true,
                },
            ),
            (
                41,
                TraceRecord::AmEscalate {
                    task: 7,
                    node: 1,
                    waited_us: 15_000_000,
                },
            ),
            (
                41,
                TraceRecord::ReplicationRepair {
                    node: 1,
                    blocks: 12,
                    bytes: 3 << 20,
                },
            ),
            (42, TraceRecord::NodeFail { node: 1 }),
            (43, TraceRecord::NodeRecover { node: 1 }),
            (44, TraceRecord::QueueDepth { pending: 12 }),
            (45, TraceRecord::NodeDown { node: 3 }),
            (
                45,
                TraceRecord::TaskEvict {
                    task: 7,
                    node: 3,
                    reason: "node-crash",
                },
            ),
            (46, TraceRecord::PartitionStart { rack: 2 }),
            (
                46,
                TraceRecord::BreakerOpen {
                    node: 3,
                    global: false,
                },
            ),
            (
                46,
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 3,
                    reason: "breaker-open",
                },
            ),
            (
                47,
                TraceRecord::BreakerClose {
                    node: 0,
                    global: true,
                },
            ),
            (48, TraceRecord::PartitionEnd { rack: 2 }),
            (
                48,
                TraceRecord::GcPass {
                    node: 3,
                    reclaimed: 2 << 30,
                    chains: 2,
                },
            ),
            (
                48,
                TraceRecord::ImageEvict {
                    task: 7,
                    node: 3,
                    bytes: 1 << 30,
                },
            ),
            (
                48,
                TraceRecord::ImageSpill {
                    task: 7,
                    node: 3,
                    origin: 1,
                    bytes: 1 << 30,
                },
            ),
            (
                48,
                TraceRecord::NoSpace {
                    task: 7,
                    node: 3,
                    wanted: 1 << 31,
                },
            ),
            (
                48,
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 3,
                    reason: "no-space",
                },
            ),
            (49, TraceRecord::NodeUp { node: 3 }),
            (
                50,
                TraceRecord::TaskFinish {
                    task: (9 << 32) | 1,
                    node: 4,
                },
            ),
        ]
    }

    fn write(stream: &[(u64, TraceRecord)]) -> Vec<u8> {
        let mut t = JsonlTracer::new(Vec::new());
        for (ts, rec) in stream {
            t.record(*ts, rec);
        }
        t.finish();
        t.into_inner()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let first = write(&sample_stream());
        let read: Vec<(u64, TraceRecord)> = JsonlReader::new(first.as_slice())
            .expect("valid header")
            .map(|r| r.expect("valid line"))
            .collect();
        assert_eq!(read.len(), sample_stream().len());
        let second = write(&read);
        assert_eq!(first, second, "write → read → write must be byte-identical");
    }

    /// One record of every kind the table declares, each field at its
    /// type's extreme (`u64::MAX` above 2^53, strings needing escapes).
    #[test]
    fn every_record_kind_round_trips_byte_identically() {
        let mut names = TraceRecord::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            TraceRecord::NAMES.len(),
            "duplicate event name"
        );
        let stream: Vec<(u64, TraceRecord)> = (0u64..)
            .zip(TraceRecord::NAMES)
            .map(|(t, &name)| {
                let rec = TraceRecord::example(name).expect("every table name has an example");
                assert_eq!(rec.name(), name);
                (t, rec)
            })
            .collect();
        let first = write(&stream);
        let read: Vec<(u64, TraceRecord)> = JsonlReader::new(first.as_slice())
            .expect("valid header")
            .map(|r| r.expect("valid line"))
            .collect();
        let read_names: Vec<&str> = read.iter().map(|(_, rec)| rec.name()).collect();
        assert_eq!(read_names, TraceRecord::NAMES);
        assert_eq!(
            write(&read),
            first,
            "write → read → write must be byte-identical"
        );
    }

    #[test]
    fn rejects_out_of_range_fields_with_line_numbers() {
        let trace = format!(
            "{}\n\
             {{\"t_us\":1,\"event\":\"node_up\",\"node\":4294967295}}\n\
             {{\"t_us\":2,\"event\":\"node_up\",\"node\":4294967296}}\n\
             {{\"t_us\":3,\"event\":\"dump_fail\",\"task\":1,\"node\":2,\
               \"attempt\":4294967296,\"will_retry\":true}}\n\
             {{\"t_us\":4,\"event\":\"task_submit\",\"task\":1,\"job\":1,\"priority\":256}}\n",
            schema_header()
        );
        let got: Vec<_> = JsonlReader::new(trace.as_bytes()).unwrap().collect();
        assert!(matches!(
            got[0],
            Ok((1, TraceRecord::NodeUp { node: u32::MAX }))
        ));
        for (i, (line, field, kind)) in [
            (3, "node", "u32"),
            (4, "attempt", "u32"),
            (5, "priority", "u8"),
        ]
        .into_iter()
        .enumerate()
        {
            match &got[i + 1] {
                Err(TraceReadError::Parse { line: l, msg }) => {
                    assert_eq!(*l, line, "{msg}");
                    assert!(
                        msg.contains(&format!("{field:?}")) && msg.ends_with(kind),
                        "line {line}: {msg}"
                    );
                }
                other => panic!("line {line}: expected a range error, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_is_first_line_and_valid_json() {
        let bytes = write(&[]);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().next(), Some(schema_header().as_str()));
        assert!(crate::json::is_valid(&schema_header()));
    }

    #[test]
    fn rejects_missing_header() {
        let no_header = b"{\"t_us\":0,\"event\":\"node_fail\",\"node\":0}\n";
        match JsonlReader::new(&no_header[..]) {
            Err(TraceReadError::IncompatibleSchema { .. }) | Err(TraceReadError::MissingHeader) => {
            }
            other => panic!("expected header rejection, got {other:?}"),
        }
        assert!(matches!(
            JsonlReader::new(&b""[..]),
            Err(TraceReadError::MissingHeader)
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":999}\n";
        match JsonlReader::new(trace.as_bytes()) {
            Err(TraceReadError::IncompatibleSchema { schema, version }) => {
                assert_eq!(schema, "cbp-trace");
                assert_eq!(version, 999);
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn accepts_v1_traces() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":1}\n\
                     {\"t_us\":7,\"event\":\"node_fail\",\"node\":3}\n";
        let mut r = JsonlReader::new(trace.as_bytes()).expect("v1 must be accepted");
        let (t, rec) = r.next().unwrap().unwrap();
        assert_eq!(t, 7);
        assert!(matches!(rec, TraceRecord::NodeFail { node: 3 }));
        assert!(r.next().is_none());
    }

    #[test]
    fn accepts_current_version() {
        let trace = format!("{}\n", schema_header());
        assert!(JsonlReader::new(trace.as_bytes()).is_ok());
    }

    #[test]
    fn accepts_v2_traces() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":2}\n\
                     {\"t_us\":9,\"event\":\"dump_fail\",\"task\":1,\"node\":2,\
                      \"attempt\":0,\"will_retry\":true}\n";
        let mut r = JsonlReader::new(trace.as_bytes()).expect("v2 must be accepted");
        let (t, rec) = r.next().unwrap().unwrap();
        assert_eq!(t, 9);
        assert!(matches!(rec, TraceRecord::DumpFail { attempt: 0, .. }));
        assert!(r.next().is_none());
    }

    #[test]
    fn accepts_v3_traces() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":3}\n\
                     {\"t_us\":11,\"event\":\"breaker_open\",\"node\":2,\
                      \"global\":false}\n";
        let mut r = JsonlReader::new(trace.as_bytes()).expect("v3 must be accepted");
        let (t, rec) = r.next().unwrap().unwrap();
        assert_eq!(t, 11);
        assert!(matches!(rec, TraceRecord::BreakerOpen { node: 2, .. }));
        assert!(r.next().is_none());
    }

    #[test]
    fn parses_v4_lifecycle_records() {
        let trace = format!(
            "{}\n\
             {{\"t_us\":1,\"event\":\"gc_pass\",\"node\":2,\"reclaimed\":64,\"chains\":1}}\n\
             {{\"t_us\":2,\"event\":\"image_evict\",\"task\":5,\"node\":2,\"bytes\":32}}\n\
             {{\"t_us\":3,\"event\":\"image_spill\",\"task\":5,\"node\":2,\"origin\":7,\"bytes\":32}}\n\
             {{\"t_us\":4,\"event\":\"no_space\",\"task\":5,\"node\":2,\"wanted\":96}}\n\
             {{\"t_us\":5,\"event\":\"dump_fallback\",\"task\":5,\"node\":2,\"reason\":\"no-space\"}}\n",
            schema_header()
        );
        let recs: Vec<(u64, TraceRecord)> = JsonlReader::new(trace.as_bytes())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert!(matches!(
            recs[0].1,
            TraceRecord::GcPass {
                node: 2,
                reclaimed: 64,
                chains: 1
            }
        ));
        assert!(matches!(recs[1].1, TraceRecord::ImageEvict { task: 5, .. }));
        assert!(matches!(
            recs[2].1,
            TraceRecord::ImageSpill { origin: 7, .. }
        ));
        assert!(matches!(recs[3].1, TraceRecord::NoSpace { wanted: 96, .. }));
        assert!(matches!(
            recs[4].1,
            TraceRecord::DumpFallback {
                reason: "no-space",
                ..
            }
        ));
    }

    #[test]
    fn rejects_future_version_naming_supported_range() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":6}\n";
        let err = JsonlReader::new(trace.as_bytes()).expect_err("v6 must be rejected");
        assert_eq!(
            err,
            TraceReadError::IncompatibleSchema {
                schema: "cbp-trace".to_string(),
                version: 6,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("v6"), "must name the found version: {msg}");
        assert!(
            msg.contains("v1") && msg.contains("v5"),
            "must name the supported range: {msg}"
        );
        // Version 0 (or a missing version field) is below the floor.
        let trace = "{\"schema\":\"cbp-trace\",\"version\":0}\n";
        assert!(matches!(
            JsonlReader::new(trace.as_bytes()),
            Err(TraceReadError::IncompatibleSchema { version: 0, .. })
        ));
    }

    #[test]
    fn parses_v5_integrity_records() {
        let trace = format!(
            "{}\n\
             {{\"t_us\":1,\"event\":\"chunk_done\",\"task\":5,\"node\":2,\"chunk\":3,\"total\":8}}\n\
             {{\"t_us\":2,\"event\":\"chunk_corrupt\",\"task\":5,\"node\":2,\"image\":9,\"chunk\":1}}\n\
             {{\"t_us\":3,\"event\":\"chunk_refetch\",\"task\":5,\"node\":2,\"chunk\":1,\"ok\":true}}\n\
             {{\"t_us\":4,\"event\":\"resume_dump\",\"task\":5,\"node\":2,\
               \"resumed_bytes\":192,\"total_bytes\":512}}\n\
             {{\"t_us\":5,\"event\":\"chain_truncate\",\"task\":5,\"node\":2,\
               \"dropped\":2,\"kept\":1}}\n",
            schema_header()
        );
        let recs: Vec<(u64, TraceRecord)> = JsonlReader::new(trace.as_bytes())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert!(matches!(
            recs[0].1,
            TraceRecord::ChunkDone {
                chunk: 3,
                total: 8,
                ..
            }
        ));
        assert!(matches!(
            recs[1].1,
            TraceRecord::ChunkCorrupt { image: 9, .. }
        ));
        assert!(matches!(
            recs[2].1,
            TraceRecord::ChunkRefetch { ok: true, .. }
        ));
        assert!(matches!(
            recs[3].1,
            TraceRecord::ResumeDump {
                resumed_bytes: 192,
                total_bytes: 512,
                ..
            }
        ));
        assert!(matches!(
            recs[4].1,
            TraceRecord::ChainTruncate {
                dropped: 2,
                kept: 1,
                ..
            }
        ));
    }

    #[test]
    fn tolerates_truncated_final_line() {
        // Simulate a crash mid-write: a full trace whose last record line is
        // chopped mid-JSON (no closing brace, no newline).
        let full = write(&sample_stream());
        let text = String::from_utf8(full).unwrap();
        let keep = sample_stream().len() - 1;
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().expect("non-empty trace");
        let truncated_tail = &last[..last.len() / 2];
        let mut bytes = lines.join("\n");
        bytes.push('\n');
        bytes.push_str(truncated_tail); // mid-record, no trailing newline
        let read: Vec<(u64, TraceRecord)> = JsonlReader::new(bytes.as_bytes())
            .expect("header intact")
            .map(|r| r.expect("interior lines intact"))
            .collect();
        assert_eq!(
            read.len(),
            keep,
            "reader must stop cleanly before the truncated final record"
        );
    }

    #[test]
    fn truncated_interior_line_still_errors() {
        let trace = format!(
            "{}\n{{\"t_us\":1,\"event\":\"node_f\n\
             {{\"t_us\":2,\"event\":\"node_fail\",\"node\":0}}\n",
            schema_header()
        );
        let mut r = JsonlReader::new(trace.as_bytes()).unwrap();
        assert!(
            matches!(r.next(), Some(Err(TraceReadError::Parse { line: 2, .. }))),
            "a malformed line with more lines after it is real corruption"
        );
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let trace = format!("{}\n{{\"t_us\":1,\"event\":\"bogus\"}}\n", schema_header());
        let mut r = JsonlReader::new(trace.as_bytes()).unwrap();
        match r.next() {
            Some(Err(TraceReadError::Parse { line, msg })) => {
                assert_eq!(line, 2);
                assert!(msg.contains("bogus"), "msg: {msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn interning_restores_static_vocabulary() {
        assert_eq!(intern("kill"), "kill");
        assert_eq!(intern("grace-expired"), "grace-expired");
        assert_eq!(intern("something-new"), "something-new");
    }
}
