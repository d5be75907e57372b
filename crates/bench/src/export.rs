//! Machine-readable export of the reproduction results.
//!
//! `repro --json <dir>` writes one JSON document per figure so external
//! plotting (matplotlib, gnuplot, a notebook) can regenerate the paper's
//! charts from this reproduction's data.

use std::fs;
use std::io;
use std::path::Path;

use simcore::JsonValue;

use crate::figures;

fn eval_to_json(evals: &[figures::Evaluation], metric: &str) -> JsonValue {
    JsonValue::Arr(
        evals
            .iter()
            .map(|e| {
                JsonValue::obj(vec![
                    ("soc", JsonValue::s(e.soc.clone())),
                    (
                        "networks",
                        JsonValue::Arr(
                            e.rows
                                .iter()
                                .map(|(net, mechs)| {
                                    JsonValue::obj(vec![
                                        ("network", JsonValue::s(net.clone())),
                                        (
                                            "mechanisms",
                                            JsonValue::Arr(
                                                mechs
                                                    .iter()
                                                    .map(|m| {
                                                        JsonValue::obj(vec![
                                                            (
                                                                "label",
                                                                JsonValue::s(m.label.clone()),
                                                            ),
                                                            (
                                                                metric,
                                                                JsonValue::n(
                                                                    if metric == "latency_ms" {
                                                                        m.latency_ms
                                                                    } else {
                                                                        m.energy_mj
                                                                    },
                                                                ),
                                                            ),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Writes every latency/energy figure's data as JSON files into `dir`.
///
/// Skips the accuracy figure (fig10) unless `include_fig10` is set,
/// since it trains models for minutes.
pub fn export_all(dir: &Path, include_fig10: bool) -> io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut write = |name: &str, value: JsonValue| -> io::Result<()> {
        let path = dir.join(name);
        fs::write(&path, value.render() + "\n")?;
        written.push(name.to_string());
        Ok(())
    };

    // Table 1.
    let table1 = JsonValue::Arr(
        figures::table1()
            .into_iter()
            .map(|(net, app)| {
                JsonValue::obj(vec![
                    ("network", JsonValue::s(net)),
                    (
                        "channel_distribution",
                        JsonValue::Bool(app.channel_distribution),
                    ),
                    (
                        "processor_quantization",
                        JsonValue::Bool(app.processor_quantization),
                    ),
                    (
                        "branch_distribution",
                        JsonValue::Bool(app.branch_distribution),
                    ),
                ])
            })
            .collect(),
    );
    write("table1.json", table1)?;

    // Figure 5.
    let fig5 = JsonValue::Arr(
        figures::fig5()
            .into_iter()
            .map(|soc| {
                JsonValue::obj(vec![
                    ("soc", JsonValue::s(soc.soc)),
                    ("mean_gpu_speedup", JsonValue::n(soc.mean_gpu_speedup)),
                    (
                        "layers",
                        JsonValue::Arr(
                            soc.layers
                                .into_iter()
                                .map(|(name, cpu, gpu)| {
                                    JsonValue::obj(vec![
                                        ("layer", JsonValue::s(name)),
                                        ("cpu_ms", JsonValue::n(cpu)),
                                        ("gpu_ms", JsonValue::n(gpu)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    write("fig5.json", fig5)?;

    // Figure 6.
    let fig6 = JsonValue::Arr(
        figures::fig6()
            .into_iter()
            .map(|soc| {
                JsonValue::obj(vec![
                    ("soc", JsonValue::s(soc.soc)),
                    (
                        "networks",
                        JsonValue::Arr(
                            soc.rows
                                .into_iter()
                                .map(|(net, cpu, gpu)| {
                                    JsonValue::obj(vec![
                                        ("network", JsonValue::s(net)),
                                        ("cpu_ms", JsonValue::n(cpu)),
                                        ("gpu_ms", JsonValue::n(gpu)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    write("fig6.json", fig6)?;

    // Figure 8.
    let fig8 = JsonValue::Arr(
        figures::fig8()
            .into_iter()
            .map(|soc| {
                JsonValue::obj(vec![
                    ("soc", JsonValue::s(soc.soc)),
                    (
                        "networks",
                        JsonValue::Arr(
                            soc.rows
                                .into_iter()
                                .map(|(net, m)| {
                                    let mut pairs = vec![("network", JsonValue::s(net))];
                                    let entries: Vec<(String, JsonValue)> =
                                        m.into_iter().map(|(k, v)| (k, JsonValue::n(v))).collect();
                                    pairs.push(("normalized_latency", JsonValue::Obj(entries)));
                                    JsonValue::obj(pairs)
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    write("fig8.json", fig8)?;

    if include_fig10 {
        let fig10 = JsonValue::Arr(
            quantlab::run_figure10()
                .into_iter()
                .map(|(net, rows)| {
                    JsonValue::obj(vec![
                        ("network", JsonValue::s(net)),
                        (
                            "variants",
                            JsonValue::Arr(
                                rows.into_iter()
                                    .map(|r| {
                                        JsonValue::obj(vec![
                                            ("variant", JsonValue::s(r.variant)),
                                            ("accuracy", JsonValue::n(r.accuracy)),
                                            ("drop_pp", JsonValue::n(r.drop_pp)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        write("fig10.json", fig10)?;
    }

    // Figure 12.
    let d = figures::fig12();
    write(
        "fig12.json",
        JsonValue::obj(vec![
            ("cpu_only_ms", JsonValue::n(d.cpu_only_ms)),
            ("cooperative_ms", JsonValue::n(d.cooperative_ms)),
            ("optimal_ms", JsonValue::n(d.optimal_ms)),
        ]),
    )?;

    // Figures 16 and 18 share the evaluation sweep.
    let evals = figures::evaluation();
    write("fig16.json", eval_to_json(&evals, "latency_ms"))?;
    write("fig18.json", eval_to_json(&evals, "energy_mj"))?;

    // Figure 17.
    let fig17 = JsonValue::Arr(
        figures::fig17()
            .into_iter()
            .map(|soc| {
                JsonValue::obj(vec![
                    ("soc", JsonValue::s(soc.soc)),
                    (
                        "networks",
                        JsonValue::Arr(
                            soc.rows
                                .into_iter()
                                .map(|(net, steps)| {
                                    JsonValue::obj(vec![
                                        ("network", JsonValue::s(net)),
                                        ("layer_to_proc_ms", JsonValue::n(steps[0])),
                                        ("ch_dist_ms", JsonValue::n(steps[1])),
                                        ("proc_quant_ms", JsonValue::n(steps[2])),
                                        ("br_dist_ms", JsonValue::n(steps[3])),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    write("fig17.json", fig17)?;

    // NPU extension.
    let npu = JsonValue::Arr(
        figures::npu_extension()
            .into_iter()
            .map(|r| {
                JsonValue::obj(vec![
                    ("network", JsonValue::s(r.network)),
                    ("base_ms", JsonValue::n(r.base_ms)),
                    ("npu_ms", JsonValue::n(r.npu_ms)),
                ])
            })
            .collect(),
    );
    write("npu.json", npu)?;

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_parseable_documents() {
        let dir = std::env::temp_dir().join("ulayer-export-test");
        let _ = fs::remove_dir_all(&dir);
        let written = export_all(&dir, false).expect("export");
        assert!(written.contains(&"fig16.json".to_string()));
        assert!(!written.contains(&"fig10.json".to_string()));
        for name in &written {
            let body = fs::read_to_string(dir.join(name)).expect("read back");
            // Cheap structural sanity: balanced braces/brackets and no
            // trailing garbage.
            assert!(body.starts_with('[') || body.starts_with('{'), "{name}");
            let opens = body.matches(['{', '[']).count();
            let closes = body.matches(['}', ']']).count();
            assert_eq!(opens, closes, "{name}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
