//! The rotation manifest: one append-only `manifest.jsonl` per output
//! directory, one line per closed window — the index `flowzip query`
//! walks when pointed at a rotation directory instead of a single
//! archive.
//!
//! Each line is a flat JSON object:
//!
//! ```json
//! {"type":"flowzip.window","window":0,"archive":"flowzip-20260808T120000Z-000000.fzc",
//!  "reason":"packets","cut":"drain","packets":4096,"flows":37,"bytes":18231,
//!  "dropped_packets":0,"opened_unix_ms":1786536000000,"closed_unix_ms":1786536004500,
//!  "first_ts_us":0,"last_ts_us":409500}
//! ```
//!
//! `archive` is `null` for an explicitly-empty window (a time rotation
//! that saw no packets): the window existed, nothing was stored, and the
//! manifest says so instead of leaving a gap in the sequence. `cut` is
//! always `"drain"`: every rotation closes its archive through the
//! engine's end-of-input drain, so flows straddling the boundary are
//! finalized into *this* window's archive and their remaining packets
//! open fresh flows in the next — each archive stays independently
//! decodable.

use crate::{CloseReason, ServeError, WindowSummary};
use flowzip_obs::json::JsonObject;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the manifest inside a rotation directory.
pub(crate) const MANIFEST_NAME: &str = "manifest.jsonl";

/// Appends one line per closed window to `<dir>/manifest.jsonl`,
/// flushing after each so a crash loses at most the in-flight window.
#[derive(Debug)]
pub(crate) struct ManifestWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl ManifestWriter {
    /// Opens (or creates) the manifest in `dir` for appending. The file
    /// exists from session start, so "directory served, nothing arrived
    /// yet" is distinguishable from "not a rotation directory".
    pub(crate) fn open(dir: &Path) -> Result<ManifestWriter, ServeError> {
        let path = dir.join(MANIFEST_NAME);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| ServeError::io(format!("open {}", path.display()), e))?;
        Ok(ManifestWriter { file, path })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `window` as one JSON line and flushes.
    pub(crate) fn append(&mut self, w: &WindowSummary) -> Result<(), ServeError> {
        let mut j = JsonObject::compact();
        j.str("type", "flowzip.window");
        j.num("window", w.index);
        match w.archive.as_ref().and_then(|p| p.file_name()) {
            Some(name) => j.str("archive", &name.to_string_lossy()),
            None => j.raw("archive", "null"),
        }
        j.str("reason", w.reason.as_str());
        j.str("cut", "drain");
        j.num("packets", w.packets);
        j.num("flows", w.flows);
        j.num("bytes", w.bytes);
        j.num("dropped_packets", w.dropped_packets);
        j.num("opened_unix_ms", w.opened_unix_ms);
        j.num("closed_unix_ms", w.closed_unix_ms);
        for (key, v) in [("first_ts_us", w.first_ts_us), ("last_ts_us", w.last_ts_us)] {
            match v {
                Some(v) => j.num(key, v),
                None => j.raw(key, "null"),
            }
        }
        let mut line = j.finish();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| ServeError::io(format!("append {}", self.path.display()), e))
    }
}

/// One parsed manifest line. Field meanings match the
/// [module docs](self); `archive` is `None` for an explicitly-empty
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Zero-based window sequence number.
    pub window: u64,
    /// Archive file name relative to the manifest's directory, when the
    /// window stored packets.
    pub archive: Option<String>,
    /// Why the window closed (unparsed reasons map to
    /// [`CloseReason::Eof`]-adjacent free text, so the field keeps the
    /// raw string).
    pub reason: String,
    /// Packets stored in the window's archive.
    pub packets: u64,
    /// Flows stored in the window's archive.
    pub flows: u64,
    /// Serialized archive size in bytes.
    pub bytes: u64,
    /// Packets dropped by overload while this window was open.
    pub dropped_packets: u64,
    /// Wall-clock when the window opened, Unix milliseconds.
    pub opened_unix_ms: u64,
    /// Wall-clock when the window closed, Unix milliseconds.
    pub closed_unix_ms: u64,
    /// Earliest packet capture timestamp in the window, microseconds.
    pub first_ts_us: Option<u64>,
    /// Latest packet capture timestamp in the window, microseconds.
    pub last_ts_us: Option<u64>,
}

impl ManifestEntry {
    /// The window's close reason, when it parses as one of ours.
    pub fn close_reason(&self) -> Option<CloseReason> {
        CloseReason::parse(&self.reason)
    }
}

/// Reads `<dir>/manifest.jsonl`, returning one entry per valid
/// `flowzip.window` line (other line types and malformed lines are
/// skipped — the manifest is append-only and a torn final line must not
/// poison the readable prefix).
///
/// # Errors
///
/// [`ServeError::Io`] when the manifest cannot be read at all.
pub fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, ServeError> {
    let path = dir.join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ServeError::io(format!("read {}", path.display()), e))?;
    Ok(text.lines().filter_map(parse_line).collect())
}

/// Parses one manifest line. `None` for non-window or malformed lines.
fn parse_line(line: &str) -> Option<ManifestEntry> {
    if json_str(line, "type")? != "flowzip.window" {
        return None;
    }
    Some(ManifestEntry {
        window: json_u64(line, "window")?,
        archive: json_str(line, "archive"),
        reason: json_str(line, "reason")?,
        packets: json_u64(line, "packets")?,
        flows: json_u64(line, "flows").unwrap_or(0),
        bytes: json_u64(line, "bytes").unwrap_or(0),
        dropped_packets: json_u64(line, "dropped_packets").unwrap_or(0),
        opened_unix_ms: json_u64(line, "opened_unix_ms").unwrap_or(0),
        closed_unix_ms: json_u64(line, "closed_unix_ms").unwrap_or(0),
        first_ts_us: json_u64(line, "first_ts_us"),
        last_ts_us: json_u64(line, "last_ts_us"),
    })
}

/// The raw token after `"key":` — up to the next `,` or `}` for
/// scalars, the quoted content for strings.
fn json_token<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        // Manifest strings are generated file names — no escapes.
        s.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let tok = json_token(line, key)?;
    let raw = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    if raw.trim_start().starts_with('"') {
        Some(tok.to_string())
    } else {
        None // null or numeric — not a string
    }
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_token(line, key)?.parse().ok()
}

/// The timestamped archive file name for a window:
/// `flowzip-<UTC open time>-<window index>.fzc`, e.g.
/// `flowzip-20260808T120000Z-000003.fzc`. The UTC second plus the
/// six-digit window index keeps names unique and `sort`-ordered even
/// when several windows rotate within one second.
pub(crate) fn archive_name(opened_unix_ms: u64, window: u64) -> String {
    format!(
        "flowzip-{}-{window:06}.fzc",
        utc_compact(opened_unix_ms / 1000)
    )
}

/// `YYYYmmddTHHMMSSZ` for a Unix-seconds timestamp (proleptic Gregorian,
/// no leap seconds — the same convention `date -u` uses).
fn utc_compact(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let rem = unix_secs % 86_400;
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}{m:02}{d:02}T{:02}{:02}{:02}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

/// Days-since-epoch → (year, month, day), Howard Hinnant's
/// `civil_from_days` algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_names_are_utc_stamped_and_sortable() {
        // 2026-08-08 12:00:00 UTC.
        let name = archive_name(1_786_190_400_000, 3);
        assert_eq!(name, "flowzip-20260808T120000Z-000003.fzc");
        // Epoch itself.
        assert_eq!(archive_name(0, 0), "flowzip-19700101T000000Z-000000.fzc");
        // A leap-day second.
        assert_eq!(utc_compact(951_827_696), "20000229T123456Z");
    }

    #[test]
    fn manifest_lines_round_trip_through_the_parser() {
        let line = concat!(
            "{\"type\":\"flowzip.window\",\"window\":2,",
            "\"archive\":\"flowzip-20260808T120000Z-000002.fzc\",",
            "\"reason\":\"time\",\"cut\":\"drain\",\"packets\":10,\"flows\":3,",
            "\"bytes\":991,\"dropped_packets\":4,\"opened_unix_ms\":1000,",
            "\"closed_unix_ms\":2000,\"first_ts_us\":5,\"last_ts_us\":95}"
        );
        let e = parse_line(line).unwrap();
        assert_eq!(e.window, 2);
        assert_eq!(
            e.archive.as_deref(),
            Some("flowzip-20260808T120000Z-000002.fzc")
        );
        assert_eq!(e.reason, "time");
        assert_eq!(e.close_reason(), Some(CloseReason::Time));
        assert_eq!((e.packets, e.flows, e.bytes), (10, 3, 991));
        assert_eq!(e.dropped_packets, 4);
        assert_eq!((e.first_ts_us, e.last_ts_us), (Some(5), Some(95)));

        // An explicitly-empty window: archive and timestamps are null.
        let empty = concat!(
            "{\"type\":\"flowzip.window\",\"window\":3,\"archive\":null,",
            "\"reason\":\"time\",\"cut\":\"drain\",\"packets\":0,\"flows\":0,",
            "\"bytes\":0,\"dropped_packets\":0,\"opened_unix_ms\":2000,",
            "\"closed_unix_ms\":3000,\"first_ts_us\":null,\"last_ts_us\":null}"
        );
        let e = parse_line(empty).unwrap();
        assert_eq!(e.archive, None);
        assert_eq!(e.packets, 0);
        assert_eq!((e.first_ts_us, e.last_ts_us), (None, None));

        // Junk and foreign line types are skipped, not errors.
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"type\":\"flowzip.stats\",\"seq\":1}").is_none());
    }
}
