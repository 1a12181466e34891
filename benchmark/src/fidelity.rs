//! The lossy half of "correct": how far the decompressed trace's
//! per-flow statistics sit from the input's, and the recorded values
//! they must stay near.

use crate::json::Json;
use flowzip_analysis::ks_distance;
use flowzip_trace::{FlowTable, Trace};

/// Recorded when the benchmark landed; see `benchmark/README.md`.
const EXPECTED: &str = include_str!("../expected.json");

/// Gap samples kept per trace: KS over a few hundred thousand points
/// resolves 0.01 easily, and sorting millions would cost a second.
const MAX_GAP_SAMPLES: usize = 200_000;

/// Kolmogorov–Smirnov distances between input and decompressed trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Packets per flow.
    pub ks_len: f64,
    /// Flow duration.
    pub ks_dur: f64,
    /// Gap between consecutive packets of one flow.
    pub ks_gap: f64,
    /// Flows in the input, as `FlowTable` groups them.
    pub input_flows: usize,
}

struct FlowSamples {
    len: Vec<f64>,
    dur: Vec<f64>,
    gap: Vec<f64>,
}

fn samples(trace: &Trace) -> FlowSamples {
    let table = FlowTable::from_trace(trace);
    let mut s = FlowSamples {
        len: Vec::with_capacity(table.len()),
        dur: Vec::with_capacity(table.len()),
        gap: Vec::with_capacity(trace.len()),
    };
    for flow in table.flows() {
        s.len.push(flow.len() as f64);
        s.dur.push(
            flow.last_timestamp()
                .saturating_since(flow.first_timestamp())
                .as_micros() as f64,
        );
        s.gap.extend(flow.packets().windows(2).map(|w| {
            w[1].0
                .timestamp()
                .saturating_since(w[0].0.timestamp())
                .as_micros() as f64
        }));
    }
    // `FlowTable` iterates a HashMap, so fix the order before striding.
    s.gap
        .sort_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
    let stride = s.gap.len().div_ceil(MAX_GAP_SAMPLES).max(1);
    s.gap = s.gap.into_iter().step_by(stride).collect();
    s
}

pub fn measure(input: &Trace, output: &Trace) -> Fidelity {
    let (a, b) = (samples(input), samples(output));
    Fidelity {
        ks_len: ks_distance(&a.len, &b.len),
        ks_dur: ks_distance(&a.dur, &b.dur),
        ks_gap: ks_distance(&a.gap, &b.gap),
        input_flows: a.len.len(),
    }
}

/// What `expected.json` records for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Seed and scale the exact counts below were recorded at.
    pub seed: u64,
    pub scale_div: u32,
    pub packets: u64,
    pub flows: u64,
    pub ks_len: f64,
    pub ks_dur: f64,
    pub ks_gap: f64,
    /// Absolute slack on each KS value, at any seed.
    pub ks_tolerance: f64,
}

pub fn expected(workload: &str) -> Result<Expected, String> {
    let doc = Json::parse(EXPECTED)?;
    let w = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("expected.json has no workload `{workload}`"))?;
    Ok(Expected {
        seed: doc.num_at("seed")? as u64,
        scale_div: doc.num_at("scale_div")? as u32,
        ks_tolerance: doc.num_at("ks_tolerance")?,
        packets: w.num_at("packets")? as u64,
        flows: w.num_at("flows")? as u64,
        ks_len: w.num_at("ks_len")?,
        ks_dur: w.num_at("ks_dur")?,
        ks_gap: w.num_at("ks_gap")?,
    })
}

impl Expected {
    /// Fails, naming each value and its limit, when a KS distance left
    /// its band.
    pub fn check(&self, f: &Fidelity) -> Result<(), String> {
        let out: Vec<String> = [
            ("ks_len", f.ks_len, self.ks_len),
            ("ks_dur", f.ks_dur, self.ks_dur),
            ("ks_gap", f.ks_gap, self.ks_gap),
        ]
        .into_iter()
        .filter(|(_, got, want)| *got > want + self.ks_tolerance)
        .map(|(name, got, want)| format!("{name} {got:.4} > {:.4}", want + self.ks_tolerance))
        .collect();
        if out.is_empty() {
            Ok(())
        } else {
            Err(out.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Scale, WORKLOADS};

    #[test]
    fn a_trace_is_at_distance_zero_from_itself() {
        let t = workloads::generate(WORKLOADS[0], 1, Scale { div: 300 });
        let f = measure(&t, &t);
        assert_eq!((f.ks_len, f.ks_dur, f.ks_gap), (0.0, 0.0, 0.0));
        assert!(f.input_flows > 100);
    }

    #[test]
    fn expected_json_covers_every_workload() {
        for w in WORKLOADS {
            let e = expected(w.name).unwrap();
            assert!(
                e.packets > 0 && e.flows > 0 && e.ks_tolerance > 0.0,
                "{}",
                w.name
            );
        }
        assert!(expected("nope").is_err());
    }

    #[test]
    fn violations_name_the_value_out_of_band() {
        let e = Expected {
            seed: 1,
            scale_div: 3,
            packets: 1,
            flows: 1,
            ks_len: 0.1,
            ks_dur: 0.1,
            ks_gap: 0.3,
            ks_tolerance: 0.01,
        };
        let ok = Fidelity {
            ks_len: 0.105,
            ks_dur: 0.0,
            ks_gap: 0.31,
            input_flows: 1,
        };
        assert_eq!(e.check(&ok), Ok(()));
        let bad = Fidelity { ks_gap: 0.32, ..ok };
        assert!(e.check(&bad).unwrap_err().starts_with("ks_gap 0.3200"));
    }
}
