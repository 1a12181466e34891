//! Integration tests for the `flowzip` CLI binary: every subcommand, the
//! full generate → compress → decompress → synth file workflow, and error
//! handling.

use flowzip::pipeline::Sink;
use flowzip::trace::{Duration, Timestamp};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flowzip"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowzip-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_file_workflow() {
    let dir = tmpdir("workflow");
    let tsh = dir.join("web.tsh");
    let fzc = dir.join("web.fzc");
    let restored = dir.join("restored.tsh");
    let scaled = dir.join("scaled.tsh");

    // generate
    let out = bin()
        .args([
            "generate", "--flows", "300", "--secs", "20", "--seed", "7", "-o",
        ])
        .arg(&tsh)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let tsh_len = std::fs::metadata(&tsh).unwrap().len();
    assert!(tsh_len > 0);
    assert_eq!(tsh_len % 44, 0, "TSH files are 44-byte records");

    // stats
    let out = bin().arg("stats").arg(&tsh).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("300 flows"), "stats output: {text}");

    // compress
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .arg("-o")
        .arg(&fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fzc_len = std::fs::metadata(&fzc).unwrap().len();
    assert!(
        (fzc_len as f64) < tsh_len as f64 * 0.10,
        "archive {fzc_len} should be well under 10% of {tsh_len}"
    );

    // info
    let out = bin().arg("info").arg(&fzc).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("flows            : 300"),
        "info output: {text}"
    );

    // decompress
    let out = bin()
        .arg("decompress")
        .arg(&fzc)
        .arg("-o")
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::metadata(&restored).unwrap().len(),
        tsh_len,
        "same packet count → same TSH size"
    );

    // synth: scale the archive up 3x
    let out = bin()
        .args(["synth"])
        .arg(&fzc)
        .args(["--flows", "900", "--seed", "5", "-o"])
        .arg(&scaled)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let scaled_len = std::fs::metadata(&scaled).unwrap().len();
    assert!(
        scaled_len > tsh_len * 2,
        "3x flows should yield roughly 3x packets ({scaled_len} vs {tsh_len})"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_command_fails_with_usage() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_output_flag_fails() {
    let out = bin().args(["generate", "--flows", "10"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing -o"));
}

#[test]
fn corrupt_archive_is_rejected() {
    let dir = tmpdir("corrupt");
    let bad = dir.join("bad.fzc");
    std::fs::write(&bad, b"not an archive at all").unwrap();
    let out = bin().arg("info").arg(&bad).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_reported() {
    let out = bin()
        .arg("stats")
        .arg("/nonexistent/nope.tsh")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("open"));
}

/// Only a command-line mistake prints the usage text, and then only the
/// command's own section: a crafted archive or a missing file is a data
/// or I/O error, reported alone (exit 1 either way).
#[test]
fn usage_follows_command_line_mistakes_only() {
    let dir = tmpdir("usage");
    let bad = dir.join("bad.fzc");
    std::fs::write(&bad, b"FZC2 but not an archive").unwrap();
    let missing = dir.join("missing.tsh");
    let never = dir.join("never.fzc");
    let run_errors: [Vec<&std::ffi::OsStr>; 3] = [
        vec!["info".as_ref(), bad.as_os_str()],
        vec!["info".as_ref(), missing.as_os_str()],
        vec![
            "compress".as_ref(),
            missing.as_os_str(),
            "-o".as_ref(),
            never.as_os_str(),
        ],
    ];
    for args in &run_errors {
        let out = bin().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }

    let out = bin().arg("info").arg(&bad).arg("--bogus").output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown flag --bogus for info"), "{err}");
    assert!(err.contains("usage:\n  flowzip info "), "{err}");
    assert!(
        !err.contains("flowzip compress"),
        "only info's section: {err}"
    );
    assert!(!never.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every input runs on one shard unless `--threads` asks: a 2-file split
/// compresses to the same bytes with no `--threads` as with
/// `--threads 1`, whatever the host's core count.
#[test]
fn default_multi_file_compress_matches_threads_one() {
    let dir = tmpdir("default-shards");
    let whole = generate_into(&dir, "whole.tsh");
    let bytes = std::fs::read(&whole).unwrap();
    let cut = bytes.len() / 44 / 2 * 44;
    let parts = [dir.join("part-0.tsh"), dir.join("part-1.tsh")];
    std::fs::write(&parts[0], &bytes[..cut]).unwrap();
    std::fs::write(&parts[1], &bytes[cut..]).unwrap();
    let compress = |extra: &[&str], out: &PathBuf| {
        let run = bin()
            .arg("compress")
            .args(&parts)
            .args(extra)
            .arg("-o")
            .arg(out)
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    };
    let (default, one) = (dir.join("default.fzc"), dir.join("one.fzc"));
    compress(&[], &default);
    compress(&["--threads", "1"], &one);
    assert_eq!(
        std::fs::read(&default).unwrap(),
        std::fs::read(&one).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// No writer emits v1 any more, but every reader still accepts it: the
/// checked-in v1 and v2 golden fixtures hold the same archive, so `info`
/// names the layout, and `decompress` and `query -o` write byte-identical
/// TSH from both. `--format` itself is gone.
#[test]
fn checked_in_v1_and_v2_fixtures_read_identically() {
    let dir = tmpdir("fixtures");
    let mut restored = Vec::new();
    for (name, layout) in [
        ("web120_seed20050320.fzc", "format           : v1\n"),
        ("web120_seed20050320.fzc2", "format           : v2"),
    ] {
        let fzc = fixture(name);
        let out = bin().arg("info").arg(&fzc).output().unwrap();
        assert!(out.status.success(), "{name}");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains(layout), "{name}: {text}");
        assert!(text.contains("flows            : 120"), "{name}: {text}");

        let back = dir.join(format!("{name}.tsh"));
        let queried = dir.join(format!("{name}.query.tsh"));
        for (args, path) in [(["decompress", "-o"], &back), (["query", "-o"], &queried)] {
            let out = bin()
                .arg(args[0])
                .arg(&fzc)
                .arg(args[1])
                .arg(path)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{name} {}: {}",
                args[0],
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let tsh = std::fs::read(&back).unwrap();
        assert_eq!(tsh.len(), 1857 * 44, "{name}: every packet restored");
        assert_eq!(
            std::fs::read(&queried).unwrap(),
            tsh,
            "{name}: an unfiltered query is the full decode"
        );
        restored.push(tsh);
    }
    assert_eq!(
        restored[0], restored[1],
        "v1 and v2 decompress packet-identically"
    );

    // Re-compressing writes v2, one section per shard, and says so.
    let tsh = dir.join("web120_seed20050320.fzc.tsh");
    let again = dir.join("again.fzc");
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--threads", "3", "-o"])
        .arg(&again)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(v2 container, "));
    let out = bin().arg("info").arg(&again).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("format           : v2.1 (3 sections"),
        "{text}"
    );

    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--format", "v1", "-o"])
        .arg(dir.join("v1.fzc"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --format for compress"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("v1.fzc").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Multiple compress inputs stream as one ordered trace through parallel
/// readers — and the archive is byte-identical to compressing the
/// unsplit file, whatever the reader count. A quoted glob does the same.
#[test]
fn multi_file_compress_matches_single_file_archive() {
    let dir = tmpdir("multifile");
    let whole = dir.join("whole.tsh");
    let out = bin()
        .args([
            "generate", "--flows", "200", "--secs", "20", "--seed", "13", "-o",
        ])
        .arg(&whole)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Split on record boundaries into three chunks.
    let bytes = std::fs::read(&whole).unwrap();
    let records = bytes.len() / 44;
    let cut1 = records / 3 * 44;
    let cut2 = records * 2 / 3 * 44;
    let chunks = [
        (dir.join("chunk-00.tsh"), &bytes[..cut1]),
        (dir.join("chunk-01.tsh"), &bytes[cut1..cut2]),
        (dir.join("chunk-02.tsh"), &bytes[cut2..]),
    ];
    for (path, slice) in &chunks {
        std::fs::write(path, slice).unwrap();
    }

    // Reference: the unsplit file through the plain streaming path.
    let ref_fzc = dir.join("ref.fzc");
    let out = bin()
        .arg("compress")
        .arg(&whole)
        .args(["--threads", "2", "-o"])
        .arg(&ref_fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Explicit list.
    let list_fzc = dir.join("list.fzc");
    let out = bin()
        .arg("compress")
        .args(chunks.iter().map(|(p, _)| p.clone()))
        .args(["--threads", "2", "-o"])
        .arg(&list_fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("read-wait"),
        "streaming output reports the read-wait/compute split: {text}"
    );

    // Quoted glob (the CLI expands it, sorted).
    let glob_fzc = dir.join("glob.fzc");
    let out = bin()
        .arg("compress")
        .arg(dir.join("chunk-*.tsh"))
        .args(["--threads", "2", "-o"])
        .arg(&glob_fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let want = std::fs::read(&ref_fzc).unwrap();
    assert_eq!(std::fs::read(&list_fzc).unwrap(), want);
    assert_eq!(std::fs::read(&glob_fzc).unwrap(), want);

    // The unsplit file once more: still byte-identical.
    let pf_fzc = dir.join("prefetch.fzc");
    let out = bin()
        .arg("compress")
        .arg(&whole)
        .args(["--threads", "2", "-o"])
        .arg(&pf_fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&pf_fzc).unwrap(), want);

    std::fs::remove_dir_all(&dir).ok();
}

/// Mixing pcap and TSH files in one compress invocation is rejected with
/// a message naming both offenders.
#[test]
fn mixed_format_inputs_are_rejected() {
    use flowzip::prelude::*;
    use flowzip::trace::{pcap, tsh};

    let dir = tmpdir("mixedcli");
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 20,
            ..WebTrafficConfig::default()
        },
        3,
    )
    .generate();
    std::fs::write(dir.join("a.tsh"), tsh::to_bytes(&trace)).unwrap();
    std::fs::write(dir.join("b.pcap"), pcap::to_bytes(&trace)).unwrap();
    let out = bin()
        .arg("compress")
        .arg(dir.join("a.tsh"))
        .arg(dir.join("b.pcap"))
        .arg("-o")
        .arg(dir.join("out.fzc"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mixed capture formats"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `info --json` and `compress --json` emit machine-readable reports.
#[test]
fn json_output_modes() {
    let dir = tmpdir("json");
    let tsh = dir.join("web.tsh");
    let fzc = dir.join("web.fzc");
    let out = bin()
        .args([
            "generate", "--flows", "80", "--secs", "10", "--seed", "21", "-o",
        ])
        .arg(&tsh)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--threads", "2", "--json", "-o"])
        .arg(&fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["\"read_wait_secs\"", "\"compute_secs\"", "\"packets\": "] {
        assert!(text.contains(needle), "compress --json: {text}");
    }

    let out = bin().arg("info").arg(&fzc).arg("--json").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"mode\": \"info\"",
        "\"format\": \"v2\"",
        "\"sections\": 2",
        "\"flows\": 80",
        "\"dataset_bytes\"",
    ] {
        assert!(text.contains(needle), "info --json: {text}");
    }

    // decompress --json speaks the same unified schema (the satellite
    // parity requirement): one JSON object on stdout, notice on stderr.
    let restored = dir.join("restored.tsh");
    let out = bin()
        .arg("decompress")
        .arg(&fzc)
        .args(["--json", "-o"])
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"mode\": \"decompress\"",
        "\"packets\": ",
        "\"flows\": 80",
        "\"format\": \"v2\"",
        "\"elapsed_secs\": ",
        "\"output_bytes\": ",
    ] {
        assert!(text.contains(needle), "decompress --json: {text}");
    }
    assert!(
        text.trim_start().starts_with('{') && text.trim_end().ends_with('}'),
        "stdout is exactly one JSON object: {text}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("wrote"),
        "human notice moves to stderr under --json"
    );
    assert!(std::fs::metadata(&restored).unwrap().len() > 0);

    // --json on a bare single-file compress speaks the same schema,
    // engine fields included: one shard, nothing evicted.
    let bare_fzc = dir.join("bare.fzc");
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--json", "-o"])
        .arg(&bare_fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"mode\": \"compress\"",
        "\"ratio_vs_tsh\": ",
        "\"read_wait_secs\": ",
        "\"clusters\": ",
        "\"shards\": 1",
        "\"evicted_flows\": 0",
    ] {
        assert!(text.contains(needle), "bare compress --json: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--idle-timeout 0` means "no eviction": the archive is byte-identical
/// to a run without the flag, where a real timeout does evict.
#[test]
fn idle_timeout_zero_means_no_eviction() {
    use flowzip::prelude::*;
    use flowzip::trace::tsh;

    // Flows that never close, 10 ms apart: only a timeout retires them
    // before end of input.
    let mut trace = Trace::new();
    for i in 0..3_000u64 {
        trace.push(
            PacketRecord::builder()
                .src(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1), 2_000)
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .timestamp(Timestamp::from_micros(i * 10_000))
                .flags(TcpFlags::SYN)
                .build(),
        );
    }
    let dir = tmpdir("zeroidle");
    let tsh = dir.join("open.tsh");
    std::fs::write(&tsh, tsh::to_bytes(&trace)).unwrap();

    let run = |name: &str, idle: Option<&str>| {
        let fzc = dir.join(name);
        let mut cmd = bin();
        cmd.arg("compress").arg(&tsh).arg("--json");
        if let Some(secs) = idle {
            cmd.args(["--idle-timeout", secs]);
        }
        let out = cmd.arg("-o").arg(&fzc).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read(&fzc).unwrap(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };
    let (plain, _) = run("plain.fzc", None);
    let (zero, report) = run("zero.fzc", Some("0"));
    assert_eq!(zero, plain, "--idle-timeout 0 changes nothing");
    assert!(report.contains("\"evicted_flows\": 0"), "{report}");
    let (_, report) = run("one.fzc", Some("1"));
    assert!(!report.contains("\"evicted_flows\": 0"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown or misplaced flags are errors that name the flag — never
/// silently ignored, never allowed to swallow the next argument.
#[test]
fn unknown_flags_are_rejected() {
    let dir = tmpdir("badflags");
    let tsh = dir.join("a.tsh");
    let fzc = dir.join("a.fzc");
    let out = bin()
        .args(["generate", "--flows", "20", "--secs", "5", "-o"])
        .arg(&tsh)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .arg("-o")
        .arg(&fzc)
        .output()
        .unwrap();
    assert!(out.status.success());

    let expect_rejected = |args: &[&str], flag: &str, cmd: &str| {
        let out = bin().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(
            err.contains(&format!("unknown flag {flag} for {cmd}")),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage:"), "{args:?}: {err}");
    };
    let (tsh_s, fzc_s) = (tsh.to_str().unwrap(), fzc.to_str().unwrap());
    let never = dir.join("never.fzc");
    let never_s = never.to_str().unwrap();
    // A typo is not a silently ignored option…
    expect_rejected(
        &["compress", tsh_s, "-o", never_s, "--thread", "4"],
        "--thread",
        "compress",
    );
    // …an unknown flag does not eat the next one…
    expect_rejected(
        &[
            "compress",
            tsh_s,
            "-o",
            never_s,
            "--bogus",
            "--threads",
            "2",
        ],
        "--bogus",
        "compress",
    );
    // …a retired flag is named, not mis-parsed…
    expect_rejected(
        &[
            "compress",
            tsh_s,
            "-o",
            never_s,
            "--streaming",
            "--threads",
            "4",
        ],
        "--streaming",
        "compress",
    );
    // …and one command's flag is not another's.
    let restored = dir.join("a.restored");
    expect_rejected(
        &[
            "decompress",
            fzc_s,
            "-o",
            restored.to_str().unwrap(),
            "--threads",
            "9",
        ],
        "--threads",
        "decompress",
    );
    expect_rejected(&["info", fzc_s, "-o", never_s], "-o", "info");
    assert!(!never.exists() && !restored.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance pin for the CLI rewrite: the binary is a shell over
/// the `Pipeline` session API and never calls the engine's compress
/// entry points directly.
#[test]
fn cli_source_has_no_direct_engine_compress_calls() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/flowzip.rs"))
        .unwrap();
    assert!(
        !src.contains("compress_stream"),
        "src/bin/flowzip.rs still calls `compress_stream` — route it through Pipeline instead"
    );
    assert!(
        !src.contains("StreamingEngine"),
        "src/bin/flowzip.rs should not construct engines directly"
    );
    assert!(
        src.contains("Pipeline::compress") && src.contains("Pipeline::decompress"),
        "the CLI fronts the Pipeline session API"
    );
}

/// The observability acceptance pins: `--stats-interval` emits at least
/// one valid JSON-lines snapshot to stderr (even when the run is
/// shorter than the interval), `--metrics --json` embeds the final
/// registry dump, `--profile` writes chrome://tracing trace-event JSON,
/// and `--quiet` silences the stderr chatter.
#[test]
fn observability_flags() {
    use flowzip::obs::json::is_valid_json;

    let dir = tmpdir("obsflags");
    let tsh = dir.join("web.tsh");
    let out = bin()
        .args([
            "generate", "--flows", "200", "--secs", "20", "--seed", "17", "-o",
        ])
        .arg(&tsh)
        .output()
        .unwrap();
    assert!(out.status.success());

    // --stats-interval 1 on a sub-second run: the stop-time snapshot
    // still lands, as one JSON object per line on stderr.
    let fzc = dir.join("stats.fzc");
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args([
            "--threads",
            "2",
            "--idle-timeout",
            "60",
            "--stats-interval",
            "1",
            "-o",
        ])
        .arg(&fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    let stats: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with(r#"{"type":"flowzip.stats""#))
        .collect();
    assert!(!stats.is_empty(), "no stats lines on stderr: {err}");
    for line in &stats {
        assert!(is_valid_json(line), "{line}");
        for key in [
            r#""packets_per_sec":"#,
            r#""active_flows":"#,
            r#""evicted_flows":"#,
            r#""queue_depth":["#,
        ] {
            assert!(line.contains(key), "missing {key}: {line}");
        }
    }

    // --metrics --json embeds the final registry dump in the report.
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--threads", "2", "--metrics", "--json", "-o"])
        .arg(dir.join("metrics.fzc"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"metrics\": {\"counters\":{",
        "\"engine.packets\":",
        "\"stage_busy_secs\": ",
        "\"unattributed_secs\": ",
    ] {
        assert!(text.contains(needle), "--metrics --json: {text}");
    }

    // --profile writes a trace-event file chrome://tracing accepts:
    // a JSON object with a traceEvents array of complete ("X") spans.
    let trace_json = dir.join("trace.json");
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--threads", "2", "--profile"])
        .arg(&trace_json)
        .arg("-o")
        .arg(dir.join("prof.fzc"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile = std::fs::read_to_string(&trace_json).unwrap();
    assert!(is_valid_json(&profile), "{profile}");
    assert!(profile.contains("\"traceEvents\""), "{profile}");
    assert!(profile.contains("\"ph\":\"X\""), "{profile}");

    // --quiet silences the json-mode notice but not the report.
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--json", "--quiet", "-o"])
        .arg(dir.join("quiet.fzc"))
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"mode\": \"compress\""));
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("wrote"),
        "--quiet suppresses the notice"
    );

    // Contradictory levels are rejected.
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["-q", "-v", "-o"])
        .arg(dir.join("never.fzc"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("contradict"));

    std::fs::remove_dir_all(&dir).ok();
}

/// pcap input is auto-detected and streamed through `PcapReader` — the
/// archive matches what the same packets compress to from TSH.
#[test]
fn pcap_input_is_auto_detected() {
    use flowzip::prelude::*;
    use flowzip::trace::pcap;

    let dir = tmpdir("pcap");
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 120,
            duration_secs: 15.0,
            ..WebTrafficConfig::default()
        },
        11,
    )
    .generate();
    let pcap_path = dir.join("web.pcap");
    std::fs::write(&pcap_path, pcap::to_bytes(&trace)).unwrap();
    let tsh_path = dir.join("web.tsh");
    std::fs::write(&tsh_path, flowzip::trace::tsh::to_bytes(&trace)).unwrap();

    for (input, tag) in [(&pcap_path, "pcap"), (&tsh_path, "tsh")] {
        for streaming in [true, false] {
            let fzc = dir.join(format!("{tag}-{streaming}.fzc"));
            let mut cmd = bin();
            cmd.arg("compress").arg(input);
            if streaming {
                cmd.args(["--threads", "2"]);
            }
            let out = cmd.arg("-o").arg(&fzc).output().unwrap();
            assert!(
                out.status.success(),
                "{tag} streaming={streaming}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    // Same packets, same pipeline → same archive regardless of capture format.
    assert_eq!(
        std::fs::read(dir.join("pcap-true.fzc")).unwrap(),
        std::fs::read(dir.join("tsh-true.fzc")).unwrap()
    );
    assert_eq!(
        std::fs::read(dir.join("pcap-false.fzc")).unwrap(),
        std::fs::read(dir.join("tsh-false.fzc")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `stats` sniffs the capture format like `compress`: a trace's TSH and
/// pcap forms print the same flow summary.
#[test]
fn stats_reads_tsh_and_pcap_alike() {
    use flowzip::prelude::*;
    use flowzip::trace::{pcap, tsh};

    let dir = tmpdir("stats-pcap");
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 80,
            duration_secs: 10.0,
            ..WebTrafficConfig::default()
        },
        5,
    )
    .generate();
    let tsh_path = dir.join("web.tsh");
    std::fs::write(&tsh_path, tsh::to_bytes(&trace)).unwrap();
    let pcap_path = dir.join("web.pcap");
    std::fs::write(&pcap_path, pcap::to_bytes(&trace)).unwrap();

    let stats_of = |path: &PathBuf| {
        let out = bin().arg("stats").arg(path).output().unwrap();
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let from_tsh = stats_of(&tsh_path);
    assert!(from_tsh.contains("80 flows"), "{from_tsh}");
    assert!(from_tsh.contains(&format!("packets {}", trace.len())));
    assert_eq!(stats_of(&pcap_path), from_tsh);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_subcommand_prunes_and_matches_full_decode() {
    let dir = tmpdir("query");
    let tsh = dir.join("web.tsh");
    let fzc = dir.join("web.fzc");
    let hit = dir.join("hit.tsh");

    let out = bin()
        .args([
            "generate", "--flows", "250", "--secs", "30", "--seed", "11", "-o",
        ])
        .arg(&tsh)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .args(["--threads", "4", "-o"])
        .arg(&fzc)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `info` names the revision: sections carry the v2.1 metadata block.
    let out = bin().arg("info").arg(&fzc).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("v2.1 (4 sections, per-section metadata)"),
        "{text}"
    );

    // Pick a real conversation out of the archive via the library, then
    // ask the CLI for exactly that flow.
    let bytes = std::fs::read(&fzc).unwrap();
    let full = flowzip::core::Decompressor::new(flowzip::core::DecompressParams::default())
        .decompress(&flowzip::core::CompressedTrace::from_bytes(&bytes).unwrap());
    let target = full.packets()[0].tuple();
    let spec = format!(
        "{}:{}->{}:{}",
        target.src_ip, target.src_port, target.dst_ip, target.dst_port
    );
    let out = bin()
        .arg("query")
        .arg(&fzc)
        .args(["--flow", &spec, "--json", "-o"])
        .arg(&hit)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"mode\": \"query\"",
        "\"sections_total\": 4",
        "\"has_metadata\": true",
        "\"sections_scanned\"",
    ] {
        assert!(text.contains(needle), "query --json: {text}");
    }

    // The written trace is byte-identical to filtering a full decode.
    let expected: Vec<_> = full
        .packets()
        .iter()
        .filter(|p| p.tuple().same_conversation(&target))
        .cloned()
        .collect();
    assert!(!expected.is_empty());
    let expected_tsh =
        flowzip::trace::tsh::to_bytes(&flowzip::trace::Trace::from_packets(expected));
    assert_eq!(std::fs::read(&hit).unwrap(), expected_tsh);

    // Report-only mode (no -o) and human output both work.
    let out = bin()
        .arg("query")
        .arg(&fzc)
        .args(["--from", "0", "--to", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sections"), "human query output: {text}");

    // A bad flow spec is a usage error, not a panic.
    let out = bin()
        .arg("query")
        .arg(&fzc)
        .args(["--flow", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A valid archive whose one short flow starts at `(u32::MAX + 10)` s —
/// past what TSH and pcap, with their 32-bit seconds, can say. Checked
/// in as `tests/fixtures/late_timestamp.fzc` (CI smokes the binary on
/// it); re-bless with `FLOWZIP_BLESS=1 cargo test --test cli`.
fn late_timestamp_archive() -> Vec<u8> {
    use flowzip::core::{CompressedTrace, FlowRecord};
    CompressedTrace {
        short_templates: vec![vec![0, 16, 32]],
        long_templates: vec![],
        addresses: vec![Ipv4Addr::new(193, 5, 9, 1)],
        time_seq: vec![FlowRecord {
            first_ts: Timestamp::from_secs(u32::MAX as u64 + 10),
            is_long: false,
            template_idx: 0,
            addr_idx: 0,
            rtt: Duration::from_millis(40),
        }],
    }
    .to_bytes_v2()
}

/// A valid archive whose long flow's second gap overflows the clock:
/// `10 s + u64::MAX µs`.
fn overflowing_gap_archive() -> Vec<u8> {
    use flowzip::core::datasets::LongTemplate;
    use flowzip::core::{CompressedTrace, FlowRecord};
    CompressedTrace {
        short_templates: vec![],
        long_templates: vec![LongTemplate::from_entries([
            (0, Duration::ZERO),
            (16, Duration::from_micros(u64::MAX)),
            (32, Duration::from_micros(5)),
        ])],
        addresses: vec![Ipv4Addr::new(193, 5, 9, 1)],
        time_seq: vec![FlowRecord {
            first_ts: Timestamp::from_secs(10),
            is_long: true,
            template_idx: 0,
            addr_idx: 0,
            rtt: Duration::ZERO,
        }],
    }
    .to_bytes_v2()
}

/// Runs `args` expecting an ordinary error exit: status 1, `needle` on
/// stderr, no panic, and neither `out` nor its `.part` left behind.
fn assert_clean_failure(args: &[&std::ffi::OsStr], out: &std::path::Path, needle: &str) {
    std::fs::remove_file(out).ok();
    let run = bin().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!out.exists(), "{args:?} left {}", out.display());
    let part = flowzip::pipeline::Sink::partial_path(out);
    assert!(!part.exists(), "{args:?} left {}", part.display());
}

/// Crafted archives every command must reject cleanly:
/// - two v1 headers whose element counts no file could hold: a
///   2^62-entry short-template dataset (`Vec::with_capacity` overflowed)
///   and a 2^42-record time-seq (a 128 TiB allocation aborted the
///   process). The reader clamps every pre-allocation to the bytes
///   left, so each command fails on the truncated body instead;
/// - a v1 archive and its plain-v2 twin holding two flows whose
///   timestamp deltas are 1 and `u64::MAX`: the running clock
///   overflowed (a panic in debug builds, a wrap in release). The sum is
///   checked, so it is the same unsorted-time-seq error either way.
#[test]
fn crafted_v1_and_v2_archives_are_errors_not_panics() {
    let dir = tmpdir("crafted");
    let out = dir.join("out.tsh");
    for (name, needle) in [
        ("v1_capacity_overflow.fzc", "compressed trace truncated"),
        ("v1_huge_flow_count.fzc", "compressed trace truncated"),
        ("ts_overflow_v1.fzc", "time-seq dataset not sorted"),
        ("ts_overflow_v2.fzc", "time-seq dataset not sorted"),
    ] {
        let archive = fixture(name);
        let archive = archive.as_os_str();
        let o = out.as_os_str();
        for args in [
            vec!["info".as_ref(), archive],
            vec!["decompress".as_ref(), archive, "-o".as_ref(), o],
            vec!["query".as_ref(), archive],
            vec!["query".as_ref(), archive, "-o".as_ref(), o],
        ] {
            assert_clean_failure(&args, &out, needle);
            assert!(
                bin().args(&args).output().unwrap().stdout.is_empty(),
                "{args:?} printed output"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// LEB128, as the container writes its varints.
fn varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A v1 archive holding `long` as its one long-template dataset entry,
/// then one address and one long flow record; cut after `keep` bytes.
fn crafted_long_v1(long: &[u8], keep: usize) -> Vec<u8> {
    let mut b = b"FZC1\x01".to_vec();
    for count in [0, 1, 1, 1] {
        varint(count, &mut b);
    }
    b.extend_from_slice(long);
    b.extend_from_slice(&[10, 0, 0, 1, 1, 0, 1]); // address; key, addr, Δts
    b.truncate(keep);
    b
}

/// A plain v2 archive whose one section's payload is `long`, then
/// `records` (one long flow record, or none).
fn crafted_long_v2(long: &[u8], records: &[u8]) -> Vec<u8> {
    let mut b = b"FZC2\x02".to_vec();
    for count in [0, 1, 1, 1] {
        varint(count, &mut b);
    }
    b.extend_from_slice(&[10, 0, 0, 1]);
    let flows = u64::from(!records.is_empty());
    for v in [(long.len() + records.len()) as u64, flows, 1, 0, 1, 0] {
        varint(v, &mut b); // payload, flows, longs, short and address remaps
    }
    b.extend_from_slice(long);
    b.extend_from_slice(records);
    b
}

/// Long templates are parse-checked entry by entry before any output:
/// an `M` past `u16` and an entry the bytes end inside are the same
/// errors on every command, in both container revisions.
#[test]
fn crafted_long_templates_are_errors_not_panics() {
    let entries = |list: &[u64]| {
        let mut b = Vec::new();
        for &v in list {
            varint(v, &mut b);
        }
        b
    };
    // Two entries, the second's `M` is 65 536.
    let wide = entries(&[2, 5, 0, 65_536, 3]);
    // Three entries declared; the bytes end after the third's `M`.
    let cut = entries(&[3, 5, 0, 7, 300, 9]);
    let wide_msg = "template entry index 65536 out of range";
    let truncated = "compressed trace truncated";
    let dir = tmpdir("crafted-long");
    let out = dir.join("out.tsh");
    for (name, bytes, needle) in [
        ("wide_v1", crafted_long_v1(&wide, usize::MAX), wide_msg),
        ("wide_v2", crafted_long_v2(&wide, &[1, 0, 1]), wide_msg),
        ("cut_v1", crafted_long_v1(&cut, 9 + cut.len()), truncated),
        ("cut_v2", crafted_long_v2(&cut, &[]), truncated),
    ] {
        let archive = dir.join(format!("{name}.fzc"));
        std::fs::write(&archive, bytes).unwrap();
        let archive = archive.as_os_str();
        let o = out.as_os_str();
        for args in [
            vec!["info".as_ref(), archive],
            vec!["decompress".as_ref(), archive, "-o".as_ref(), o],
            vec!["query".as_ref(), archive, "-o".as_ref(), o],
        ] {
            assert_clean_failure(&args, &out, needle);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// 2 000 short flows a millisecond apart, alternating between two
/// addresses, as a v1 archive and its v2 twin — each with the *last*
/// record's address index patched to 2, one past the address dataset.
fn bad_last_record_archives() -> [(&'static str, Vec<u8>); 2] {
    use flowzip::core::{CompressedTrace, FlowRecord};
    let ct = CompressedTrace {
        short_templates: vec![vec![0, 16, 32]],
        long_templates: vec![],
        addresses: vec![Ipv4Addr::new(193, 5, 9, 1), Ipv4Addr::new(193, 5, 9, 2)],
        time_seq: (0..2_000u32)
            .map(|i| FlowRecord {
                first_ts: Timestamp::from_micros(1_000 * (u64::from(i) + 1)),
                is_long: false,
                template_idx: 0,
                addr_idx: i % 2,
                rtt: Duration::from_micros(1_280),
            })
            .collect(),
    };
    // The last record ends each record slice: key 0, address 1, Δts
    // 1 000 µs (two bytes), RTT 10 × 128 µs.
    let patch = |mut bytes: Vec<u8>, end: usize| {
        assert_eq!(bytes[end - 5..end], [0, 1, 0xE8, 0x07, 10]);
        bytes[end - 4] = 2;
        bytes
    };
    let v1 = ct.to_bytes();
    let v1_len = v1.len();
    let (v2, sizes) = ct.encode_v2();
    let v2_records_end = v2.len() - sizes.metadata as usize;
    [
        ("bad_last_v1", patch(v1, v1_len)),
        ("bad_last_v2", patch(v2, v2_records_end)),
    ]
}

/// A bad record at the very end of the time-seq data is still an
/// up-front error: every command walks the records it will read before
/// it writes a packet, so decompress and `query -o` leave no output or
/// `.part` file, and each command reports the record's index error.
#[test]
fn a_bad_last_record_fails_before_any_output() {
    let dir = tmpdir("bad-last");
    let out = dir.join("out.tsh");
    for (name, bytes) in bad_last_record_archives() {
        let archive = dir.join(format!("{name}.fzc"));
        std::fs::write(&archive, bytes).unwrap();
        let archive = archive.as_os_str();
        let o = out.as_os_str();
        for args in [
            vec!["info".as_ref(), archive],
            vec!["info".as_ref(), archive, "--json".as_ref()],
            vec!["decompress".as_ref(), archive, "-o".as_ref(), o],
            vec!["query".as_ref(), archive],
            vec!["query".as_ref(), archive, "-o".as_ref(), o],
        ] {
            assert_clean_failure(&args, &out, "address index 2 out of range");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrepresentable_timestamps_are_errors_not_panics() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/late_timestamp.fzc");
    if std::env::var_os("FLOWZIP_BLESS").is_some() {
        std::fs::write(&fixture, late_timestamp_archive()).unwrap();
    }
    assert_eq!(
        std::fs::read(&fixture).unwrap(),
        late_timestamp_archive(),
        "tests/fixtures/late_timestamp.fzc is stale — see late_timestamp_archive()"
    );

    let dir = tmpdir("late");
    let wrapped = dir.join("wrapped.fzc");
    std::fs::write(&wrapped, overflowing_gap_archive()).unwrap();
    let out = dir.join("out.cap");
    for archive in [&fixture, &wrapped] {
        // The archive itself is fine…
        let info = bin().arg("info").arg(archive).output().unwrap();
        assert!(info.status.success(), "{}", archive.display());
        // …it is the capture formats that cannot hold its packets. (The
        // overflowing gap used to wrap the clock backwards in release
        // builds and write a time-travelling trace; saturated, it lands
        // past the formats' range like the late start does.)
        for format in ["tsh", "pcap"] {
            assert_clean_failure(
                &[
                    "decompress".as_ref(),
                    archive.as_os_str(),
                    "-o".as_ref(),
                    out.as_os_str(),
                    "--out-format".as_ref(),
                    format.as_ref(),
                ],
                &out,
                "timestamp_secs",
            );
        }
        assert_clean_failure(
            &[
                "query".as_ref(),
                archive.as_os_str(),
                "-o".as_ref(),
                out.as_os_str(),
            ],
            &out,
            "timestamp_secs",
        );
        // Without -o nothing is synthesized, so there is nothing to fail.
        let count = bin().arg("query").arg(archive).output().unwrap();
        assert!(count.status.success());
        assert!(
            String::from_utf8_lossy(&count.stdout).contains("(3 packets)"),
            "{}",
            String::from_utf8_lossy(&count.stdout)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotation_directory_query_streams_every_window_into_one_output() {
    let dir = tmpdir("rotdir");
    let rot = dir.join("rot");
    std::fs::create_dir_all(&rot).unwrap();
    let mut manifest = String::new();
    let mut expected = Vec::new();
    let mut packets = 0usize;
    for (window, seed) in ["21", "22"].iter().enumerate() {
        let tsh = dir.join(format!("w{window}.tsh"));
        let name = format!("w{window}.fzc");
        let restored = dir.join(format!("w{window}.restored.tsh"));
        for args in [
            vec![
                "generate",
                "--flows",
                "150",
                "--secs",
                "10",
                "--seed",
                seed,
                "-o",
                tsh.to_str().unwrap(),
            ],
            vec![
                "compress",
                tsh.to_str().unwrap(),
                "-o",
                rot.join(&name).to_str().unwrap(),
            ],
            vec![
                "decompress",
                rot.join(&name).to_str().unwrap(),
                "-o",
                restored.to_str().unwrap(),
            ],
        ] {
            let run = bin().args(&args).output().unwrap();
            assert!(
                run.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&run.stderr)
            );
        }
        let bytes = std::fs::read(&restored).unwrap();
        packets += bytes.len() / 44;
        expected.extend(bytes);
        manifest.push_str(&format!(
            "{{\"type\":\"flowzip.window\",\"window\":{window},\"archive\":\"{name}\",\
             \"reason\":\"packets\",\"cut\":\"drain\",\"packets\":0,\"flows\":0,\"bytes\":0,\
             \"dropped_packets\":0,\"opened_unix_ms\":0,\"closed_unix_ms\":0,\
             \"first_ts_us\":null,\"last_ts_us\":null}}\n"
        ));
    }
    std::fs::write(rot.join("manifest.jsonl"), &manifest).unwrap();

    // Both windows, concatenated in manifest order, through one `.part`.
    let out = dir.join("merged.tsh");
    let run = bin()
        .arg("query")
        .arg(&rot)
        .arg("--json")
        .arg("-o")
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&run.stdout).trim(),
        format!(
            "{{\"type\":\"flowzip.query_dir\",\"windows\":2,\"packets\":{packets},\"output_bytes\":{}}}",
            expected.len()
        )
    );
    assert_eq!(std::fs::read(&out).unwrap(), expected);
    assert!(!flowzip::pipeline::Sink::partial_path(&out).exists());

    // A window that fails mid-run takes the whole output with it: the
    // windows already streamed are not left behind as a short file.
    std::fs::write(rot.join("late.fzc"), late_timestamp_archive()).unwrap();
    manifest.push_str(
        &manifest
            .lines()
            .last()
            .unwrap()
            .replace("w1.fzc", "late.fzc"),
    );
    manifest.push('\n');
    std::fs::write(rot.join("manifest.jsonl"), &manifest).unwrap();
    assert_clean_failure(
        &[
            "query".as_ref(),
            rot.as_os_str(),
            "-o".as_ref(),
            out.as_os_str(),
        ],
        &out,
        "timestamp_secs",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `query <rotation-dir> --metrics` shares one registry across the
/// windows' sessions, so its counters are the windows' sums — here a
/// 3-section v2 window and the 1-section v1 golden fixture.
#[test]
fn rotation_directory_query_metrics_sum_the_windows() {
    use flowzip::obs::json::is_valid_json;
    let dir = tmpdir("rotmetrics");
    let rot = dir.join("rot");
    std::fs::create_dir_all(&rot).unwrap();
    let tsh = dir.join("w0.tsh");
    let w0 = rot.join("w0.fzc");
    for args in [
        vec!["generate", "--flows", "120", "--secs", "10", "--seed", "5"],
        vec!["compress", tsh.to_str().unwrap(), "--threads", "3"],
    ] {
        let out = if args[0] == "generate" { &tsh } else { &w0 };
        let run = bin().args(&args).arg("-o").arg(out).output().unwrap();
        assert!(run.status.success(), "{args:?}");
    }
    std::fs::copy(fixture("web120_seed20050320.fzc"), rot.join("w1.fzc")).unwrap();
    let mut manifest = String::new();
    for (window, name) in ["w0.fzc", "w1.fzc"].iter().enumerate() {
        manifest.push_str(&format!(
            "{{\"type\":\"flowzip.window\",\"window\":{window},\"archive\":\"{name}\",\
             \"reason\":\"packets\",\"cut\":\"drain\",\"packets\":0,\"flows\":0,\"bytes\":0,\
             \"dropped_packets\":0,\"opened_unix_ms\":0,\"closed_unix_ms\":0,\
             \"first_ts_us\":null,\"last_ts_us\":null}}\n"
        ));
    }
    std::fs::write(rot.join("manifest.jsonl"), &manifest).unwrap();

    let run = bin()
        .arg("query")
        .arg(&rot)
        .args(["--json", "--metrics"])
        .output()
        .unwrap();
    assert!(run.status.success());
    let line = String::from_utf8_lossy(&run.stdout).trim().to_string();
    assert!(is_valid_json(&line), "{line}");
    assert!(
        line.starts_with("{\"type\":\"flowzip.query_dir\",\"windows\":2,"),
        "{line}"
    );
    assert!(line.contains("\"query.sections_total\":4"), "{line}");
    assert!(line.contains("\"query.sections_scanned\":4"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decompress_and_query_report_their_open_flow_peak() {
    let dir = tmpdir("peak");
    let tsh = dir.join("web.tsh");
    let fzc = dir.join("web.fzc");
    let out = dir.join("out.tsh");
    for args in [
        vec![
            "generate",
            "--flows",
            "200",
            "--secs",
            "5",
            "--seed",
            "3",
            "-o",
            tsh.to_str().unwrap(),
        ],
        vec![
            "compress",
            tsh.to_str().unwrap(),
            "-o",
            fzc.to_str().unwrap(),
        ],
    ] {
        assert!(
            bin().args(&args).output().unwrap().status.success(),
            "{args:?}"
        );
    }
    let peak_of = |stdout: &[u8]| -> u64 {
        let text = String::from_utf8_lossy(stdout);
        let rest = text
            .split("\"peak_open_flows\": ")
            .nth(1)
            .unwrap_or_else(|| panic!("no peak_open_flows in {text}"));
        rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap()]
            .parse()
            .unwrap()
    };
    let d = bin()
        .arg("decompress")
        .arg(&fzc)
        .arg("--json")
        .arg("-o")
        .arg(&out)
        .output()
        .unwrap();
    assert!(d.status.success());
    let peak = peak_of(&d.stdout);
    assert!((2..200).contains(&peak), "peak_open_flows {peak}");
    assert!(
        String::from_utf8_lossy(&d.stdout).contains("\"serialize_secs\": 0.000000"),
        "no serial tail to time"
    );
    // The same merge behind `query -o`; without -o nothing is merged.
    let q = bin()
        .arg("query")
        .arg(&fzc)
        .arg("--json")
        .arg("-o")
        .arg(&out)
        .output()
        .unwrap();
    assert_eq!(peak_of(&q.stdout), peak);
    let q = bin().arg("query").arg(&fzc).arg("--json").output().unwrap();
    assert_eq!(peak_of(&q.stdout), 0);
    // And the human line says it too.
    let q = bin()
        .arg("query")
        .arg(&fzc)
        .arg("-o")
        .arg(&out)
        .output()
        .unwrap();
    assert!(
        String::from_utf8_lossy(&q.stdout).contains(&format!("peak {peak} open flows")),
        "{}",
        String::from_utf8_lossy(&q.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Generates a small web trace into `dir/name` through the CLI.
fn generate_into(dir: &std::path::Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let out = bin()
        .args([
            "generate", "--flows", "60", "--secs", "10", "--seed", "3", "-o",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// Every file input is read in turn on the main thread, so the retired
/// reader-thread knobs are unknown flags (exit 1), not ignored words; so
/// is the retired `--batch-size`.
#[test]
fn retired_reader_flags_are_unknown() {
    let dir = tmpdir("readerflags");
    let tsh = generate_into(&dir, "a.tsh");
    let fzc = dir.join("a.fzc");
    for (flag, value) in [
        ("--readers", "2"),
        ("--prefetch-mb", "1"),
        ("--batch-size", "256"),
    ] {
        let out = bin()
            .arg("compress")
            .arg(&tsh)
            .arg("-o")
            .arg(&fzc)
            .args([flag, value])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(
            err.contains(&format!("unknown flag {flag} for compress")),
            "{flag}: {err}"
        );
        assert!(!fzc.exists());
    }
    // Batching never changes the bytes, so `serve` takes no batch size
    // either; the refusal comes before the rotation directory exists.
    let rot = dir.join("rot");
    let out = bin()
        .arg("serve")
        .arg("-o")
        .arg(&rot)
        .args(["--batch-size", "256"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown flag --batch-size for serve"), "{err}");
    assert!(!rot.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A stdout whose reader is gone (`flowzip info x.fzc --json | head -c
/// 50`) ends the run quietly — exit 141, the status of a SIGPIPE death —
/// instead of panicking with exit 101. The pipe's read end is dropped
/// before the child starts, so its first write always fails.
#[test]
fn closed_stdout_is_a_quiet_exit_not_a_panic() {
    use flowzip::core::CompressedTrace;

    let dir = tmpdir("closedout");
    let tsh = generate_into(&dir, "w.tsh");
    let fzc = dir.join("w.fzc");
    let out = bin()
        .arg("compress")
        .arg(&tsh)
        .arg("-o")
        .arg(&fzc)
        .output()
        .unwrap();
    assert!(out.status.success());
    let piped = dir.join("piped.fzc");
    let runs: [Vec<&std::ffi::OsStr>; 3] = [
        vec!["info".as_ref(), fzc.as_ref(), "--json".as_ref()],
        vec!["stats".as_ref(), tsh.as_ref()],
        vec![
            "compress".as_ref(),
            tsh.as_ref(),
            "-o".as_ref(),
            piped.as_ref(),
            "--json".as_ref(),
        ],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = bin().args(&args).stdout(writer).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(141), "{args:?}: {err}");
    }
    // The archive was complete before the report hit the closed pipe.
    let archive = CompressedTrace::from_bytes(&std::fs::read(&piped).unwrap()).unwrap();
    let want = CompressedTrace::from_bytes(&std::fs::read(&fzc).unwrap()).unwrap();
    assert_eq!(archive.packet_count(), want.packet_count());
    assert!(!Sink::partial_path(&piped).exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `decompress -o FIFO` writes into the FIFO, not over it: a reader on
/// the FIFO gets exactly the bytes `-o file` holds, and the FIFO is
/// still a FIFO afterwards. The reader waits behind a timeout, so a
/// binary that renames a scratch file over the FIFO fails the test
/// instead of hanging it.
#[cfg(unix)]
#[test]
fn decompress_into_a_fifo_writes_through_it() {
    use std::os::unix::fs::FileTypeExt;

    let dir = tmpdir("fifo");
    let tsh = generate_into(&dir, "w.tsh");
    let fzc = dir.join("w.fzc");
    let file = dir.join("restored.tsh");
    for (arg, out) in [(&tsh, &fzc), (&fzc, &file)] {
        let cmd = if out == &fzc {
            "compress"
        } else {
            "decompress"
        };
        let run = bin().arg(cmd).arg(arg).arg("-o").arg(out).output().unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let want = std::fs::read(&file).unwrap();

    let fifo = dir.join("restored.fifo");
    let made = Command::new("mkfifo").arg(&fifo).status().unwrap();
    assert!(made.success());
    let (tx, rx) = std::sync::mpsc::channel();
    let reader_path = fifo.clone();
    std::thread::spawn(move || {
        let _ = tx.send(std::fs::read(&reader_path));
    });
    let mut child = bin()
        .arg("decompress")
        .arg(&fzc)
        .arg("-o")
        .arg(&fifo)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let got = match rx.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(read) => read.unwrap(),
        Err(_) => {
            child.kill().ok();
            child.wait().ok();
            panic!("nothing arrived through the FIFO within 30 s");
        }
    };
    let status = child.wait().unwrap();
    assert!(status.success());
    assert_eq!(got, want);
    let kind = std::fs::symlink_metadata(&fifo).unwrap().file_type();
    assert!(kind.is_fifo(), "the FIFO was replaced: {kind:?}");
    assert!(!Sink::partial_path(&fifo).exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `-o /dev/stdout` with stdout redirected to a regular file, as
/// `flowzip decompress w.fzc -o /dev/stdout > out.tsh` does: the file
/// gets exactly the bytes `-o FILE` writes (the report goes to stderr),
/// and `/dev/stdout` stays what it was — it used to be renamed over.
#[cfg(target_os = "linux")]
#[test]
fn output_to_dev_stdout_redirected_into_a_file() {
    let dev_stdout = std::path::Path::new("/dev/stdout");
    let Ok(before) = std::fs::symlink_metadata(dev_stdout) else {
        return;
    };
    let dir = tmpdir("devstdout");
    let tsh = generate_into(&dir, "w.tsh");
    let fzc = dir.join("w.fzc");
    let run = bin().arg("compress").arg(&tsh).arg("-o").arg(&fzc).output();
    assert!(run.unwrap().status.success());
    for cmd in ["decompress", "query"] {
        let want = dir.join(format!("{cmd}-want.tsh"));
        let got = dir.join(format!("{cmd}-got.tsh"));
        let run = bin().arg(cmd).arg(&fzc).arg("-o").arg(&want).output();
        assert!(run.unwrap().status.success());
        let run = bin()
            .arg(cmd)
            .arg(&fzc)
            .args(["-o", "/dev/stdout"])
            .stdout(std::fs::File::create(&got).unwrap())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{cmd}: {stderr}");
        assert!(stderr.contains("wrote /dev/stdout"), "{cmd}: {stderr}");
        assert_eq!(std::fs::read(&got).unwrap(), std::fs::read(&want).unwrap());
        let after = std::fs::symlink_metadata(dev_stdout).unwrap();
        assert_eq!(after.file_type(), before.file_type(), "{cmd}");
        assert!(!Sink::partial_path(dev_stdout).exists(), "{cmd}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `-o /dev/null > /dev/null` names stdout's file but not through a
/// descriptor link: the report stays on stdout, where a timing run
/// throws it away, rather than landing on the terminal.
#[cfg(target_os = "linux")]
#[test]
fn output_to_dev_null_keeps_the_report_on_stdout() {
    let dir = tmpdir("devnull");
    let tsh = generate_into(&dir, "w.tsh");
    let fzc = dir.join("w.fzc");
    let run = bin().arg("compress").arg(&tsh).arg("-o").arg(&fzc).output();
    assert!(run.unwrap().status.success());
    let run = bin()
        .arg("decompress")
        .arg(&fzc)
        .args(["-o", "/dev/null"])
        .stdout(std::process::Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(!stderr.contains("wrote"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A capture read from a pipe (`cat w.tsh | flowzip compress
/// /dev/stdin`) compresses to the same archive as the file itself: the
/// format sniff keeps the bytes it read from a handle that cannot be
/// reopened at the same position.
#[cfg(unix)]
#[test]
fn compress_of_a_piped_input_matches_the_file() {
    use flowzip::prelude::*;
    use flowzip::trace::{pcap, tsh};
    use std::io::Write;
    use std::process::Stdio;

    let dir = tmpdir("stdin");
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 80,
            duration_secs: 10.0,
            ..WebTrafficConfig::default()
        },
        5,
    )
    .generate();
    for (tag, bytes) in [
        ("tsh", tsh::to_bytes(&trace)),
        ("pcap", pcap::to_bytes(&trace)),
    ] {
        let file = dir.join(format!("w.{tag}"));
        std::fs::write(&file, &bytes).unwrap();
        let want = dir.join(format!("{tag}-file.fzc"));
        let out = bin()
            .arg("compress")
            .arg(&file)
            .arg("-o")
            .arg(&want)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        let got = dir.join(format!("{tag}-pipe.fzc"));
        let mut child = bin()
            .args(["compress", "/dev/stdin", "-o"])
            .arg(&got)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdin = child.stdin.take().unwrap();
        let feeder = std::thread::spawn(move || {
            // A reader that gives up early closes the pipe; its error
            // is the status asserted below, not a write failure here.
            let _ = stdin.write_all(&bytes);
        });
        let out = child.wait_with_output().unwrap();
        feeder.join().unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&got).unwrap(),
            std::fs::read(&want).unwrap(),
            "{tag}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A written v2.1 archive whose `FZM1` block declares one packet more or
/// less than its records expand to — the varint changed in place, at
/// the same length — is a metadata error on every reading command.
#[test]
fn a_miscounted_metadata_block_is_an_error() {
    let dir = tmpdir("miscounted");
    let tsh = generate_into(&dir, "a.tsh");
    let fzc = dir.join("a.fzc");
    let run = bin().arg("compress").arg(&tsh).arg("-o").arg(&fzc).output();
    assert!(run.unwrap().status.success());
    let mut bytes = std::fs::read(&fzc).unwrap();
    let reader = flowzip::core::ArchiveReader::open(&bytes).unwrap();
    let sizes = reader.records(|_| true).unwrap().sizes();
    assert!(sizes.metadata > 0 && sizes.telemetry == 0, "{sizes:?}");
    // `FZM1`, then the varints version, seed and section count, then the
    // section's first and last flow start: the next varint is `packets`.
    let mut at = bytes.len() - sizes.metadata as usize;
    assert_eq!(&bytes[at..at + 4], b"FZM1");
    at += 4;
    for _ in 0..5 {
        while bytes[at] & 0x80 != 0 {
            at += 1;
        }
        at += 1;
    }
    // Its low bit: the value moves by one and keeps its length.
    bytes[at] ^= 1;
    let bad = dir.join("miscounted.fzc");
    std::fs::write(&bad, &bytes).unwrap();
    let out = dir.join("out.tsh");
    let (archive, o) = (bad.as_os_str(), out.as_os_str());
    for args in [
        vec!["info".as_ref(), archive],
        vec!["decompress".as_ref(), archive, "-o".as_ref(), o],
        vec!["query".as_ref(), archive],
        vec!["query".as_ref(), archive, "-o".as_ref(), o],
    ] {
        assert_clean_failure(&args, &out, "packet count mismatch");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs a `compress` that must fail: exit 1 with `needle`, and neither
/// `out` nor `out.part` left — then again over an existing `out`, whose
/// bytes must stay as they were.
fn assert_compress_fails_cleanly(args: &[&std::ffi::OsStr], out: &std::path::Path, needle: &str) {
    assert_clean_failure(args, out, needle);
    if !out.parent().is_some_and(std::path::Path::exists) {
        return;
    }
    std::fs::write(out, b"the previous archive").unwrap();
    let run = bin().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert_eq!(std::fs::read(out).unwrap(), b"the previous archive");
    let part = Sink::partial_path(out);
    assert!(!part.exists(), "{args:?} left {}", part.display());
}

/// A compress that fails — a capture cut mid-record, alone or as one
/// file of a glob, or an output directory that does not exist — exits 1
/// with the reader's or the writer's error and publishes nothing.
#[test]
fn a_failed_compress_leaves_no_output_and_no_part_file() {
    use flowzip::prelude::*;
    use flowzip::trace::pcap;

    let dir = tmpdir("compress-fails");
    let out = dir.join("out.fzc");
    let o = out.as_os_str();

    // A TSH capture cut mid-record.
    let tsh = generate_into(&dir, "a.tsh");
    let mut bytes = std::fs::read(&tsh).unwrap();
    bytes.truncate(bytes.len() / 44 / 2 * 44 + 20);
    let cut = dir.join("cut.tsh");
    std::fs::write(&cut, &bytes).unwrap();
    let args = ["compress".as_ref(), cut.as_os_str(), "-o".as_ref(), o];
    assert_compress_fails_cleanly(&args, &out, "truncated");

    // Eight pcap files through one glob, the sixth cut mid-record.
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 200,
            duration_secs: 20.0,
            ..WebTrafficConfig::default()
        },
        17,
    )
    .generate();
    let packets = trace.packets();
    let per_file = packets.len().div_ceil(8);
    for (i, chunk) in packets.chunks(per_file).enumerate() {
        let mut bytes = pcap::to_bytes(&Trace::from_packets(chunk.to_vec()));
        if i == 5 {
            bytes.truncate(bytes.len() - 7);
        }
        std::fs::write(dir.join(format!("part-{i:02}.pcap")), bytes).unwrap();
    }
    let glob = dir.join("part-*.pcap");
    let args = ["compress".as_ref(), glob.as_os_str(), "-o".as_ref(), o];
    assert_compress_fails_cleanly(&args, &out, "truncated");

    // An output directory that does not exist.
    let missing = dir.join("no-such-dir").join("out.fzc");
    let args = [
        "compress".as_ref(),
        tsh.as_os_str(),
        "-o".as_ref(),
        missing.as_os_str(),
    ];
    assert_compress_fails_cleanly(&args, &missing, "create");
    std::fs::remove_dir_all(&dir).ok();
}
