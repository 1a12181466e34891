//! Minimal filename globbing for pre-split capture sets.
//!
//! NLANR traces ship chunked (`trace-00.tsh`, `trace-01.tsh`, …); the
//! CLI and [`MultiFileSource`](crate::MultiFileSource) accept either an
//! explicit file list or a pattern. Only the *filename* component may
//! contain wildcards — `*` (any run, including empty) and `?` (any one
//! character) — which covers every chunked-capture naming scheme without
//! pulling in a dependency. Matches come back lexicographically sorted,
//! so numbered chunks keep their capture order.

use std::path::{Path, PathBuf};

/// Does `pattern` contain glob metacharacters?
pub(crate) fn is_pattern(pattern: &str) -> bool {
    pattern.contains('*') || pattern.contains('?')
}

/// `*`/`?` filename matcher (iterative, no backtracking blow-up).
fn matches(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut mark) = (None::<usize>, 0usize);
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            mark = ni;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// Expands one path whose *filename* may hold `*`/`?`, returning the
/// sorted matches. A path with no metacharacters comes back verbatim
/// (existence is checked later, at open). Directory components must be
/// literal.
///
/// # Errors
///
/// A human-readable message when the directory cannot be listed, when a
/// wildcard sits in a directory component, or when a pattern matches
/// nothing.
pub fn expand(pattern: &str) -> Result<Vec<PathBuf>, String> {
    if !is_pattern(pattern) {
        return Ok(vec![PathBuf::from(pattern)]);
    }
    let path = Path::new(pattern);
    let file_pat = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("bad glob pattern `{pattern}`"))?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if dir.is_some_and(|d| is_pattern(&d.to_string_lossy())) {
        return Err(format!(
            "glob `{pattern}`: wildcards are only supported in the filename component"
        ));
    }
    let dir = dir.unwrap_or(Path::new("."));
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("glob `{pattern}`: list {}: {e}", dir.display()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("glob `{pattern}`: {e}"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if matches(file_pat, name) {
            // Reconstruct through the original prefix so relative
            // patterns stay relative.
            found.push(
                if path.parent().is_some_and(|p| !p.as_os_str().is_empty()) {
                    path.with_file_name(name)
                } else {
                    PathBuf::from(name)
                },
            );
        }
    }
    if found.is_empty() {
        return Err(format!("glob `{pattern}` matched no files"));
    }
    found.sort();
    Ok(found)
}

/// Expands a mixed list of literal paths and patterns, preserving the
/// argument order (each pattern's matches are sorted in place).
///
/// # Errors
///
/// The first pattern that fails to expand.
pub fn expand_all<S: AsRef<str>>(inputs: &[S]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for input in inputs {
        out.extend(expand(input.as_ref())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_names_pass_through() {
        assert!(!is_pattern("plain.tsh"));
        assert_eq!(
            expand("plain.tsh").unwrap(),
            vec![PathBuf::from("plain.tsh")]
        );
    }

    #[test]
    fn matcher_semantics() {
        assert!(matches("*", ""));
        assert!(matches("*", "anything"));
        assert!(matches("trace-??.tsh", "trace-07.tsh"));
        assert!(!matches("trace-??.tsh", "trace-7.tsh"));
        assert!(matches("*.tsh", "a.tsh"));
        assert!(!matches("*.tsh", "a.pcap"));
        assert!(matches("a*b*c", "axxbyyc"));
        assert!(!matches("a*b*c", "axxbyy"));
        assert!(matches("??", "ab"));
        assert!(!matches("??", "a"));
    }

    #[test]
    fn expansion_lists_sorted_matches() {
        let dir = std::env::temp_dir().join(format!("flowzip-glob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["t-02.tsh", "t-00.tsh", "t-01.tsh", "other.pcap"] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let pattern = dir.join("t-*.tsh");
        let found = expand(pattern.to_str().unwrap()).unwrap();
        let names: Vec<_> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["t-00.tsh", "t-01.tsh", "t-02.tsh"]);

        let err = expand(dir.join("nope-*.tsh").to_str().unwrap()).unwrap_err();
        assert!(err.contains("matched no files"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wildcard_directories_are_rejected() {
        let err = expand("ch*/trace.tsh").unwrap_err();
        assert!(err.contains("filename component"), "{err}");
    }

    #[test]
    fn zero_match_error_names_the_pattern() {
        // A pattern matching nothing must be a loud error — a silent
        // empty expansion would turn a typo into an empty archive.
        let dir = std::env::temp_dir().join(format!("flowzip-glob0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("present.tsh"), b"").unwrap();
        let pattern = dir.join("absent-??.tsh");
        let err = expand(pattern.to_str().unwrap()).unwrap_err();
        assert!(err.contains("matched no files"), "{err}");
        assert!(
            err.contains("absent-??.tsh"),
            "error names the pattern: {err}"
        );

        let err = expand_all(&[pattern.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("matched no files"), "expand_all too: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn question_marks_mixed_with_literal_segments() {
        // `?` is exactly-one-character, even adjacent to `*` and
        // literal runs.
        assert!(matches("a?c-*.t?h", "abc-01.tsh"));
        assert!(matches("a?c-*.t?h", "axc-.tzh"));
        assert!(!matches("a?c-*.t?h", "ac-01.tsh"), "? never matches empty");
        assert!(!matches("a?c-*.t?h", "abc-01.th"), "? never matches empty");
        assert!(matches("?*?", "ab"), "star may be empty between ?s");
        assert!(!matches("?*?", "a"));
        assert!(matches("chunk-?0?.tsh", "chunk-102.tsh"));
        assert!(!matches("chunk-?0?.tsh", "chunk-112.tsh"));

        let dir = std::env::temp_dir().join(format!("flowzip-globq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["t-00.tsh", "t-01.tsh", "t-001.tsh", "t-0a.tsh", "u-00.tsh"] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let pattern = dir.join("t-0?.tsh");
        let found = expand(pattern.to_str().unwrap()).unwrap();
        let names: Vec<_> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["t-00.tsh", "t-01.tsh", "t-0a.tsh"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_directory_entries_are_skipped_not_fatal() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;

        // A directory containing a filename that is not valid UTF-8 must
        // not break matching of its well-formed siblings (patterns are
        // `&str`, so a non-UTF-8 name can never match one).
        let dir = std::env::temp_dir().join(format!("flowzip-glob8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok-00.tsh"), b"").unwrap();
        let raw = OsStr::from_bytes(b"ok-\xff\xfe.tsh");
        std::fs::write(dir.join(raw), b"").unwrap();

        let pattern = dir.join("ok-*.tsh");
        let found = expand(pattern.to_str().unwrap()).unwrap();
        let names: Vec<_> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["ok-00.tsh"], "non-UTF-8 sibling skipped");
        std::fs::remove_dir_all(&dir).ok();
    }
}
