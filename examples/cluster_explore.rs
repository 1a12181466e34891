//! Explore the flow-clustering behaviour at the heart of the method:
//! how many clusters do Web flows collapse into, what do the most popular
//! templates look like, and how does the similarity threshold change the
//! picture (§2.1 / §3).
//!
//! Run with: `cargo run --release --example cluster_explore`

use flowzip::core::characterize::{Dependence, FlagClass};
use flowzip::core::{FlowAccumulator, TemplateStore, Weights};
use flowzip::prelude::*;

fn main() {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 2_000,
            duration_secs: 60.0,
            ..WebTrafficConfig::default()
        },
        3,
    )
    .generate();

    // Accumulate flows and collect their M vectors.
    let mut acc = FlowAccumulator::new(Params::paper());
    for p in &trace {
        acc.push(p);
    }
    let flows: Vec<_> = acc.flush().collect();
    println!(
        "{} flows accumulated from {} packets",
        flows.len(),
        trace.len()
    );

    // Cluster at the paper's threshold.
    let mut store = TemplateStore::new(Params::paper());
    let mut vector = Vec::new();
    for f in flows.iter().filter(|f| f.is_short(50)) {
        f.decode_vector(&mut vector);
        store.offer(&vector);
    }
    println!(
        "short flows: {}   clusters: {}   (avg {:.1} flows/cluster)\n",
        store.matched_count() + store.inserted_count(),
        store.len(),
        (store.matched_count() + store.inserted_count()) as f64 / store.len().max(1) as f64
    );

    // The most popular templates, decoded back to human-readable form.
    let mut templates: Vec<_> = store.templates().to_vec();
    templates.sort_by_key(|t| std::cmp::Reverse(t.members));
    let weights = Weights::paper();
    println!("top 5 cluster centers:");
    for t in templates.iter().take(5) {
        let decoded: Vec<String> = t
            .vector
            .iter()
            .map(|&m| match weights.decompose(m as u32) {
                Some((f1, f2, f3)) => format!(
                    "{}{}{}",
                    f1,
                    match f2 {
                        Dependence::Dependent => "*",
                        Dependence::NotDependent => "",
                    },
                    match f3 {
                        0 => "",
                        1 => "+",
                        _ => "++",
                    }
                ),
                None => format!("?{m}"),
            })
            .collect();
        println!(
            "  {:>5} members, n={:>2}: [{}]",
            t.members,
            t.vector.len(),
            decoded.join(" ")
        );
    }
    println!("  legend: * = waited one RTT, + = 1-500 B payload, ++ = >500 B\n");

    // Sanity: the first template of every flow is a SYN.
    let syn_heads = templates
        .iter()
        .filter(|t| {
            weights
                .decompose(t.vector[0] as u32)
                .map(|(f1, _, _)| f1 == FlagClass::Syn)
                .unwrap_or(false)
        })
        .count();
    println!(
        "{} of {} cluster centers start with a SYN (flows whose open predates the trace do not)",
        syn_heads,
        templates.len()
    );

    // Threshold sweep: similarity vs cluster count.
    println!("\nsimilarity-threshold sweep (ablation of Eq. 4):");
    let mut table = TextTable::new(&["similarity", "clusters", "match rate"]);
    for sim in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let mut s = TemplateStore::new(Params {
            similarity: sim,
            ..Params::paper()
        });
        for f in flows.iter().filter(|f| f.is_short(50)) {
            f.decode_vector(&mut vector);
            s.offer(&vector);
        }
        table.row_owned(vec![
            format!("{:.0}%", sim * 100.0),
            s.len().to_string(),
            format!(
                "{:.1}%",
                100.0 * s.matched_count() as f64
                    / (s.matched_count() + s.inserted_count()).max(1) as f64
            ),
        ]);
    }
    println!("{table}");
}
