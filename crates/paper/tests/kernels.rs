//! Cross-kernel integration tests: all three kernels must expose the
//! locality difference between a Web trace and its destination-randomized
//! twin — the effect §6 of the paper builds its validation on.

use flowzip_paper::nat::NatBench;
use flowzip_paper::route::RouteBench;
use flowzip_paper::rtr::RtrBench;
use flowzip_paper::runner::{BenchConfig, BenchKind, PacketProcessor};
use flowzip_traffic::randomize_destinations;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

fn traces() -> (flowzip_trace::Trace, flowzip_trace::Trace) {
    let web = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 250,
            duration_secs: 20.0,
            ..WebTrafficConfig::default()
        },
        77,
    )
    .generate();
    let random = randomize_destinations(&web, 78);
    (web, random)
}

#[test]
fn every_kernel_detects_randomized_destinations() {
    let (web, random) = traces();
    let cfg = BenchConfig::default();

    let runs: Vec<(BenchKind, f64, f64)> = vec![
        (
            BenchKind::Route,
            RouteBench::covering_servers(&cfg, &web)
                .run(&web)
                .mean_miss_rate(),
            RouteBench::covering_servers(&cfg, &web)
                .run(&random)
                .mean_miss_rate(),
        ),
        (
            BenchKind::Nat,
            NatBench::new(&cfg).run(&web).mean_miss_rate(),
            NatBench::new(&cfg).run(&random).mean_miss_rate(),
        ),
        (
            BenchKind::Rtr,
            RtrBench::covering_servers(&cfg, &web)
                .run(&web)
                .mean_miss_rate(),
            RtrBench::covering_servers(&cfg, &web)
                .run(&random)
                .mean_miss_rate(),
        ),
    ];
    for (kind, web_miss, random_miss) in runs {
        assert!(
            random_miss > web_miss * 1.3,
            "{kind}: random trace should miss much more ({random_miss:.4} vs {web_miss:.4})"
        );
    }
}

#[test]
fn kernel_reports_are_complete_and_ordered() {
    let (web, _) = traces();
    let cfg = BenchConfig::default();
    for (kind, report) in [
        (BenchKind::Route, RouteBench::new(&cfg).run(&web)),
        (BenchKind::Nat, NatBench::new(&cfg).run(&web)),
        (BenchKind::Rtr, RtrBench::new(&cfg).run(&web)),
    ] {
        assert_eq!(report.kind, kind);
        assert_eq!(report.costs.len(), web.len());
        assert!(report.costs.iter().all(|c| c.accesses > 0));
        assert!(report.nodes_visited > 0);
        // Totals reconcile with the cache's own counters.
        let total: u64 = report.costs.iter().map(|c| c.accesses).sum();
        assert_eq!(total, report.cache.accesses);
    }
}

#[test]
fn kernel_cost_ordering_route_lt_rtr_lt_nat() {
    // NAT does translation + routing + state updates; RTR adds header
    // rewrite over a denser table; plain route is the floor.
    let (web, _) = traces();
    let cfg = BenchConfig::default();
    let route = RouteBench::new(&cfg).run(&web).mean_accesses();
    let rtr = RtrBench::new(&cfg).run(&web).mean_accesses();
    let nat = NatBench::new(&cfg).run(&web).mean_accesses();
    assert!(route < rtr, "route {route:.1} vs rtr {rtr:.1}");
    assert!(route < nat, "route {route:.1} vs nat {nat:.1}");
}
