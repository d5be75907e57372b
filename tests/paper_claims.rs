//! Paper-level claims, checked through the same experiment functions the
//! `repro` binary prints (DESIGN.md §4 maps each to a figure).
//!
//! Absolute numbers are not expected to match the paper (the substrate is
//! a calibrated simulator); the *shapes* are asserted: who wins, rough
//! factors, and where crossovers fall. EXPERIMENTS.md records the
//! paper-vs-measured values.

use ubench::geomean;

#[test]
fn section_3_1_processor_balance() {
    let data = ubench::fig5();
    // High-end: GPU wins F32 by ~1.4x on compute layers.
    assert!((1.2..1.55).contains(&data[0].mean_gpu_speedup));
    // Mid-range: the crossover — the CPU wins.
    assert!(data[1].mean_gpu_speedup < 1.0);
}

#[test]
fn figure_6_network_level_balance() {
    let data = ubench::fig6();
    // High-end: GPU faster for every network at F32.
    for (net, cpu, gpu) in &data[0].rows {
        assert!(gpu < cpu, "{net} on high-end");
    }
    // Mid-range: CPU faster for every network at F32.
    for (net, cpu, gpu) in &data[1].rows {
        assert!(cpu < gpu, "{net} on mid-range");
    }
}

#[test]
fn figure_8_dtype_preferences() {
    for soc in ubench::fig8() {
        for (net, m) in &soc.rows {
            // CPU: QUInt8 is the best CPU option; F16 gives no gain.
            assert!(m["CPU QUInt8"] < m["CPU F32"], "{net} on {}", soc.soc);
            assert!(m["CPU F16"] >= m["CPU F32"] * 0.98, "{net} on {}", soc.soc);
            // GPU: F16 is the best GPU option; QUInt8 is not faster.
            assert!(m["GPU F16"] < m["GPU F32"], "{net} on {}", soc.soc);
            assert!(m["GPU QUInt8"] >= m["GPU F16"], "{net} on {}", soc.soc);
        }
    }
}

#[test]
fn figure_12_branch_distribution_case_study() {
    let d = ubench::fig12();
    assert!(d.cooperative_ms < d.cpu_only_ms);
    assert!(d.optimal_ms < d.cooperative_ms);
}

#[test]
fn figure_16_and_18_headline_numbers() {
    let evals = ubench::evaluation();
    // Latency: positive improvement everywhere; geomeans in band.
    let geo: Vec<f64> = evals
        .iter()
        .map(|e| {
            let imps: Vec<f64> = e
                .latency_improvements()
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            assert!(imps.iter().all(|&v| v > 0.0), "{}", e.soc);
            1.0 - geomean(&imps.iter().map(|v| 1.0 - v).collect::<Vec<_>>())
        })
        .collect();
    // Paper: 30.5% (high-end) / 35.3% (mid-range). Ours: high-end lands
    // in the paper's band; mid-range is smaller (idealized l2p baseline,
    // see EXPERIMENTS.md) but clearly positive.
    assert!(
        (0.20..0.45).contains(&geo[0]),
        "high-end geomean {}",
        geo[0]
    );
    assert!(
        (0.05..0.45).contains(&geo[1]),
        "mid-range geomean {}",
        geo[1]
    );

    // Energy: μLayer at least matches the state of the art in geomean and
    // wins clearly on the biggest network.
    for e in &evals {
        let factors: Vec<f64> = e.energy_factors().into_iter().map(|(_, v)| v).collect();
        let g = geomean(&factors);
        assert!(g >= 1.0, "{}: energy geomean {g}", e.soc);
        assert!(
            factors.iter().cloned().fold(0.0f64, f64::max) > 1.2,
            "{}: no clear energy win",
            e.soc
        );
    }
}

#[test]
fn figure_17_ablation_attribution() {
    let data = ubench::fig17();
    for soc in &data {
        for (net, steps) in &soc.rows {
            // Monotone: each step never hurts (small tolerance for
            // prediction noise).
            assert!(steps[1] <= steps[0] * 1.01, "{net} on {}: +ChDist", soc.soc);
            assert!(
                steps[2] <= steps[1] * 1.01,
                "{net} on {}: +ProcQuant",
                soc.soc
            );
            assert!(steps[3] <= steps[2] * 1.01, "{net} on {}: +BrDist", soc.soc);
        }
        // GoogLeNet gains from branch distribution (the §5 target).
        let (_, googlenet) = soc
            .rows
            .iter()
            .find(|(n, _)| n == "GoogLeNet")
            .expect("GoogLeNet present");
        assert!(
            googlenet[3] < googlenet[2] * 0.995,
            "GoogLeNet gains nothing from branch distribution on {}",
            soc.soc
        );
    }
}

#[test]
fn table_1_applicability() {
    let rows = ubench::table1();
    assert_eq!(rows.len(), 5);
    for (net, app) in &rows {
        assert!(app.channel_distribution, "{net}");
        assert!(app.processor_quantization, "{net}");
        let branchy = net.starts_with("GoogLeNet") || net.starts_with("SqueezeNet");
        assert_eq!(app.branch_distribution, branchy, "{net}");
    }
}
