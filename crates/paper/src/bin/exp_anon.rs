//! **§1 motivation experiment** — the paper argues that public traces are
//! "delivered after some transformations, such as sanitization, which
//! modify some basic semantic properties (such as IP address structure)",
//! which is why researchers need methods that preserve those properties.
//!
//! This experiment makes the §1 claim measurable: replay the original
//! trace, a *prefix-preserving* anonymization of it (Crypto-PAn-style),
//! and a *naive* randomization through the radix Route kernel. The
//! prefix-preserving variant should behave like the original; the naive
//! one like the paper's random trace.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin exp_anon \
//!     [--flows 1000] [--seed N]
//! ```

use flowzip_analysis::{ks_distance, TextTable};
use flowzip_paper::route::RouteBench;
use flowzip_paper::runner::{BenchConfig, PacketProcessor};
use flowzip_paper::{original_trace, Args, DEFAULT_SEED};
use flowzip_traffic::{randomize_destinations, Anonymizer};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 1_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("building traces ({flows} flows, seed {seed})...");
    let original = original_trace(flows, 60.0, seed);
    let anonymized = Anonymizer::new(seed ^ 0xA11C).anonymize_trace(&original);
    let naive = randomize_destinations(&original, seed ^ 0xABCD);

    // One FIB built from the original's servers; since prefix-preserving
    // anonymization is a bijection on prefixes, we build the anonymized
    // replay's FIB through the same anonymizer — exactly what a provider
    // publishing an anonymized trace + anonymized table would do.
    let cfg = BenchConfig::default();
    let run = |trace: &flowzip_trace::Trace, reference: &flowzip_trace::Trace, name: &str| {
        let report = RouteBench::covering_servers(&cfg, reference).run(trace);
        eprintln!("  {name:>16}: {report}");
        report
    };

    eprintln!("replaying through the route kernel...");
    let ro = run(&original, &original, "original");
    let ra = run(&anonymized, &anonymized, "prefix-preserving");
    let rn = run(&naive, &original, "naive random");

    let acc = |r: &flowzip_paper::runner::BenchReport| {
        r.costs
            .iter()
            .map(|c| c.accesses as f64)
            .collect::<Vec<f64>>()
    };
    let base = acc(&ro);

    println!("\n§1 sanitization experiment — route kernel\n");
    let mut table = TextTable::new(&["trace", "KS(accesses) vs orig", "mean miss rate"]);
    for (name, r) in [
        ("original", &ro),
        ("prefix-preserving anon", &ra),
        ("naive randomization", &rn),
    ] {
        table.row_owned(vec![
            name.to_string(),
            format!("{:.3}", ks_distance(&base, &acc(r))),
            format!("{:.2}%", 100.0 * r.mean_miss_rate()),
        ]);
    }
    println!("{table}");
    println!(
        "reading: prefix-preserving anonymization keeps the memory-system behaviour \
         of the trace (KS near 0, miss rate unchanged) while naive randomization \
         destroys it — the §1 problem the paper's compressor is designed to avoid."
    );
}
