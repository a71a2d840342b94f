//! A minimal structured logger for the service stack: leveled events
//! with typed key-value fields, rendered one line per event as either
//! logfmt (`ts=… level=info event=request request_id=… status=202`) or
//! JSON lines. Std-only and dependency-free like the rest of the crate.
//!
//! The logger is deliberately tiny: no global registry, no macros — the
//! owner constructs a [`Logger`] (stderr, a file, or any `Write + Send`
//! sink), shares it behind its own `Arc`, and calls [`Logger::log`].
//! Disabled levels cost one comparison; callers that must assemble
//! expensive fields should guard with [`Logger::enabled`] first.

use crate::json_escape;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (connection lifecycle, job starts).
    Debug,
    /// Normal operation (access log, job completion).
    Info,
    /// Something degraded but handled (slow requests, failed jobs).
    Warn,
    /// Something broke.
    Error,
}

impl Level {
    /// The lowercase name used in rendered lines.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name; `off` parses to `None` (logging disabled).
    pub fn parse(s: &str) -> Result<Option<Level>, String> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Ok(Some(Level::Debug)),
            "info" => Ok(Some(Level::Info)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "error" => Ok(Some(Level::Error)),
            "off" | "none" => Ok(None),
            other => Err(format!(
                "unknown log level `{other}` (use off|error|warn|info|debug)"
            )),
        }
    }
}

/// Line format of the rendered log stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// logfmt: `ts=… level=… event=… key=value …`, values quoted only
    /// when they need it.
    #[default]
    Text,
    /// One JSON object per line with the same keys.
    Json,
}

impl LogFormat {
    /// Parses a format name.
    pub fn parse(s: &str) -> Result<LogFormat, String> {
        match s.to_ascii_lowercase().as_str() {
            "text" | "logfmt" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format `{other}` (use text|json)")),
        }
    }
}

/// One field value. `From` impls cover the common cases so call sites
/// can write `("status", status.into())`.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string (quoted/escaped as the format requires).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A float (non-finite values render as 0).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u16> for Value {
    fn from(v: u16) -> Value {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

enum Target {
    Stderr,
    Sink(Box<dyn Write + Send>),
}

/// A leveled line-oriented logger writing to stderr or any owned sink.
pub struct Logger {
    /// Minimum level that renders; `None` disables everything.
    min: Option<Level>,
    format: LogFormat,
    out: Mutex<Target>,
}

impl Logger {
    /// A logger that drops every event (the zero-cost default).
    pub fn off() -> Logger {
        Logger {
            min: None,
            format: LogFormat::Text,
            out: Mutex::new(Target::Stderr),
        }
    }

    /// A logger writing to stderr.
    pub fn to_stderr(level: Level, format: LogFormat) -> Logger {
        Logger {
            min: Some(level),
            format,
            out: Mutex::new(Target::Stderr),
        }
    }

    /// A logger writing to an owned sink (a file, a test buffer). Every
    /// line is flushed so the stream is tail-able and survives
    /// process-exit paths that skip destructors.
    pub fn to_sink(level: Level, format: LogFormat, out: Box<dyn Write + Send>) -> Logger {
        Logger {
            min: Some(level),
            format,
            out: Mutex::new(Target::Sink(out)),
        }
    }

    /// Whether an event at `level` would render. Guard expensive field
    /// assembly with this.
    pub fn enabled(&self, level: Level) -> bool {
        self.min.is_some_and(|m| level >= m)
    }

    /// Emits one event as one line. Field order is preserved; `ts`
    /// (unix milliseconds), `level` and `event` always lead.
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, Value)]) {
        if !self.enabled(level) {
            return;
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_millis() as u64;
        let line = render_line(self.format, ts, level, event, fields);
        match &mut *self.out.lock().expect("log sink lock") {
            Target::Stderr => {
                let stderr = std::io::stderr();
                let mut h = stderr.lock();
                let _ = h.write_all(line.as_bytes());
            }
            Target::Sink(w) => {
                let _ = w.write_all(line.as_bytes());
                let _ = w.flush();
            }
        }
    }
}

/// Renders one line (terminated with `\n`) without writing it anywhere;
/// the format contract the tests pin down.
pub fn render_line(
    format: LogFormat,
    ts_ms: u64,
    level: Level,
    event: &str,
    fields: &[(&str, Value)],
) -> String {
    let mut s = String::with_capacity(96);
    match format {
        LogFormat::Text => {
            let _ = write!(s, "ts={ts_ms} level={} event=", level.name());
            push_logfmt_value(&mut s, event);
            for (k, v) in fields {
                let _ = write!(s, " {k}=");
                match v {
                    Value::Str(t) => push_logfmt_value(&mut s, t),
                    Value::U64(n) => {
                        let _ = write!(s, "{n}");
                    }
                    Value::F64(f) => {
                        let _ = write!(s, "{}", finite(*f));
                    }
                    Value::Bool(b) => {
                        let _ = write!(s, "{b}");
                    }
                }
            }
        }
        LogFormat::Json => {
            let _ = write!(
                s,
                "{{\"ts\":{ts_ms},\"level\":\"{}\",\"event\":\"{}\"",
                level.name(),
                json_escape(event)
            );
            for (k, v) in fields {
                let _ = write!(s, ",\"{}\":", json_escape(k));
                match v {
                    Value::Str(t) => {
                        let _ = write!(s, "\"{}\"", json_escape(t));
                    }
                    Value::U64(n) => {
                        let _ = write!(s, "{n}");
                    }
                    Value::F64(f) => {
                        let _ = write!(s, "{}", finite(*f));
                    }
                    Value::Bool(b) => {
                        let _ = write!(s, "{b}");
                    }
                }
            }
            s.push('}');
        }
    }
    s.push('\n');
    s
}

fn finite(f: f64) -> f64 {
    if f.is_finite() {
        f
    } else {
        0.0
    }
}

/// logfmt value: bare when it is simple, quoted (with `\` and `"`
/// escaped, newlines as `\n`) otherwise.
fn push_logfmt_value(out: &mut String, v: &str) {
    let simple = !v.is_empty()
        && v.bytes()
            .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'=' && b != b'\\');
    if simple {
        out.push_str(v);
        return;
    }
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` handle into a shared buffer, for asserting on output.
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn levels_order_parse_and_name() {
        assert!(Level::Debug < Level::Info && Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("WARN").unwrap(), Some(Level::Warn));
        assert_eq!(Level::parse("off").unwrap(), None);
        assert!(Level::parse("loud").is_err());
        assert_eq!(LogFormat::parse("json").unwrap(), LogFormat::Json);
        assert!(LogFormat::parse("xml").is_err());
    }

    #[test]
    fn logfmt_lines_quote_only_when_needed() {
        let line = render_line(
            LogFormat::Text,
            1700000000123,
            Level::Info,
            "request",
            &[
                ("request_id", "a1b2".into()),
                ("path", "/v1/run".into()),
                ("msg", "queue full; retry".into()),
                ("status", 429u16.into()),
                ("ok", false.into()),
            ],
        );
        assert_eq!(
            line,
            "ts=1700000000123 level=info event=request request_id=a1b2 \
             path=/v1/run msg=\"queue full; retry\" status=429 ok=false\n"
        );
    }

    #[test]
    fn json_lines_escape_and_type_fields() {
        let line = render_line(
            LogFormat::Json,
            7,
            Level::Warn,
            "job_done",
            &[
                ("error", "bad \"quote\"\nnewline".into()),
                ("wall_ms", 12u64.into()),
                ("ratio", 0.5f64.into()),
            ],
        );
        assert_eq!(
            line,
            "{\"ts\":7,\"level\":\"warn\",\"event\":\"job_done\",\
             \"error\":\"bad \\\"quote\\\"\\nnewline\",\"wall_ms\":12,\"ratio\":0.5}\n"
        );
    }

    #[test]
    fn level_filter_and_off_logger() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = Logger::to_sink(
            Level::Warn,
            LogFormat::Text,
            Box::new(Shared(Arc::clone(&buf))),
        );
        assert!(!log.enabled(Level::Info));
        assert!(log.enabled(Level::Error));
        log.log(Level::Info, "dropped", &[]);
        log.log(Level::Error, "kept", &[("n", 1u64.into())]);
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("event=kept n=1"), "{out}");

        let off = Logger::off();
        assert!(!off.enabled(Level::Error));
    }
}
