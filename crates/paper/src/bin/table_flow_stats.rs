//! **§3 in-text flow statistics** — "98 percent of the flows have less
//! than 51 packets. These flows comprise 75 percent of all Web packets
//! transmitted on the link and 80 percent of the bytes on average."
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin table_flow_stats \
//!     [--flows 20000] [--seed N]
//! ```

use flowzip_analysis::TextTable;
use flowzip_paper::{original_trace, Args, DEFAULT_SEED};
use flowzip_trace::FlowTable;

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 20_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating {flows} web flows (seed {seed})...");
    let trace = original_trace(flows, 120.0, seed);
    let table = FlowTable::from_trace(&trace);
    let stats = table.stats(50);

    println!(
        "\n§3 flow statistics — {} packets in {} flows\n",
        trace.len(),
        stats.flows
    );
    let mut t = TextTable::new(&["metric", "measured", "paper"]);
    t.row_owned(vec![
        "flows with < 51 packets".into(),
        format!("{:.1}%", 100.0 * stats.short_flow_fraction()),
        "98%".into(),
    ]);
    t.row_owned(vec![
        "packets carried by short flows".into(),
        format!("{:.1}%", 100.0 * stats.short_packet_fraction()),
        "75%".into(),
    ]);
    t.row_owned(vec![
        "bytes carried by short flows".into(),
        format!("{:.1}%", 100.0 * stats.short_byte_fraction()),
        "80%".into(),
    ]);
    t.row_owned(vec![
        "mean flow length (packets)".into(),
        format!("{:.2}", stats.mean_flow_len()),
        "-".into(),
    ]);
    println!("{t}");

    // Flow-length histogram head: where the mass sits.
    println!("flow-length histogram (top 12 lengths by count):");
    let mut by_count: Vec<(usize, u64)> = stats
        .length_histogram
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(n, &c)| (n, c))
        .collect();
    by_count.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let mut hist = TextTable::new(&["packets/flow", "flows", "share"]);
    for (n, c) in by_count.into_iter().take(12) {
        hist.row_owned(vec![
            n.to_string(),
            c.to_string(),
            format!("{:.1}%", 100.0 * c as f64 / stats.flows as f64),
        ]);
    }
    println!("{hist}");
}
