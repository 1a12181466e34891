//! **§2.1 flow-diversity study** — "in consequence of the huge similarity
//! among Web flows, we can group a high amount of them into few
//! clusters." Prints the cluster-size distribution: how many clusters
//! exist, how much of the traffic the biggest few absorb, and the
//! per-flow-length breakdown.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin table_clusters \
//!     [--flows 4000] [--seed N]
//! ```

use flowzip_analysis::TextTable;
use flowzip_core::{FlowAccumulator, Params, TemplateStore};
use flowzip_paper::{original_trace, Args, DEFAULT_SEED};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 4_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating {flows} web flows (seed {seed})...");
    let trace = original_trace(flows, 60.0, seed);
    let mut acc = FlowAccumulator::new(Params::paper());
    for p in &trace {
        acc.push(p);
    }
    let finished: Vec<_> = acc.flush().collect();
    let mut store = TemplateStore::new(Params::paper());
    let short: Vec<_> = finished.iter().filter(|f| f.is_short(50)).collect();
    let mut vector = Vec::new();
    for f in &short {
        f.decode_vector(&mut vector);
        store.offer(&vector);
    }

    let total = short.len() as u64;
    let mut sizes: Vec<u64> = store.templates().iter().map(|t| t.members).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));

    println!(
        "\n§2.1 flow diversity — {} short flows collapse into {} clusters\n",
        total,
        sizes.len()
    );

    let mut table = TextTable::new(&["top clusters", "flows absorbed", "share of traffic"]);
    let mut cum = 0u64;
    for k in [1usize, 2, 5, 10, 20, 50] {
        if k > sizes.len() {
            break;
        }
        cum = sizes.iter().take(k).sum();
        table.row_owned(vec![
            k.to_string(),
            cum.to_string(),
            format!("{:.1}%", 100.0 * cum as f64 / total as f64),
        ]);
    }
    table.row_owned(vec![
        format!("all {}", sizes.len()),
        total.to_string(),
        "100.0%".into(),
    ]);
    println!("{table}");
    let _ = cum;

    // Cluster size histogram: singleton clusters are the "diverse" tail.
    let singletons = sizes.iter().filter(|&&s| s == 1).count();
    println!(
        "cluster sizes: max {}, median {}, singletons {} ({:.0}% of clusters hold {:.1}% of flows)",
        sizes.first().copied().unwrap_or(0),
        sizes.get(sizes.len() / 2).copied().unwrap_or(0),
        singletons,
        100.0 * singletons as f64 / sizes.len().max(1) as f64,
        100.0 * singletons as f64 / total.max(1) as f64,
    );
    println!(
        "\n(paper §2.1: \"Web flows are not very different from each other, and many of \
         them have identical or very similar KM values\")"
    );
}
