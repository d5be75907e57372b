//! Byte pins on what the `repro` binary prints and writes.
//!
//! Each case spawns the binary in a fresh temporary directory, masks the
//! host wall-clock fields and nothing else, and hashes its stdout
//! together with every file it wrote (sorted by name). The constants are
//! the contract: a refactor of the command layer leaves them alone.
//!
//! Masked:
//! - every `wrote <path>` line (the path is a temporary directory);
//! - the `… ms wall` planner line of `serve` and `mesh`;
//! - the `Planner (ms)` and `Scratch arm (ms)` cells of `plan`'s table;
//! - the JSON fields `wall_ms`, `planner_wall_ms` and `scratch_wall_ms`.
//!
//! `measure` is timed on the host, so only its document's key set is
//! pinned. On a mismatch the test prints every case's hash, so the same
//! test run on two checkouts shows which case moved.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use simcore::JsonValue;
use testkit::fnv1a;

/// A fresh, empty temporary directory for one case.
fn scratch_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ulayer-repro-pins-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro` with `{dir}` in `args` replaced by `dir`, from `dir`,
/// and returns its stdout; panics unless it exits 0.
fn run(args: &str, dir: &Path) -> String {
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    let argv: Vec<String> = args
        .split_whitespace()
        .map(|a| a.replace("{dir}", dir_s))
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&argv)
        .current_dir(dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Masks the host wall-clock parts of stdout.
fn mask_stdout(stdout: &str) -> String {
    let mut out = String::new();
    let mut plan_table = false;
    for line in stdout.lines() {
        let masked = if line.starts_with("wrote ") {
            "wrote <masked>".to_string()
        } else if let Some(head) = line
            .strip_prefix("planner: ")
            .and_then(|_| line.strip_suffix(" ms wall"))
        {
            let cut = head.rfind(' ').expect("planner line has a wall value");
            format!("{} <wall> ms wall", &head[..cut])
        } else if line.contains("Scratch arm (ms)") {
            plan_table = true;
            line.to_string()
        } else if plan_table && line.is_empty() {
            plan_table = false;
            line.to_string()
        } else if plan_table && !line.starts_with('-') {
            // The last two cells: planner and scratch-arm wall time.
            let trimmed = line.trim_end();
            let cut = trimmed.rfind(' ').expect("scratch cell");
            let cut = trimmed[..cut].trim_end().rfind(' ').expect("planner cell");
            format!("{} <wall> <wall>", &trimmed[..cut])
        } else {
            line.to_string()
        };
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

/// Masks the wall-clock fields of a JSON document.
fn mask_json(body: &str) -> String {
    let mut s = body.to_string();
    for key in [
        "\"wall_ms\":",
        "\"planner_wall_ms\":",
        "\"scratch_wall_ms\":",
    ] {
        let mut from = 0;
        while let Some(at) = s[from..].find(key) {
            let start = from + at + key.len();
            let len = s[start..].find([',', '}']).expect("value ends the field");
            s.replace_range(start..start + len, "#");
            from = start;
        }
    }
    s
}

/// Every file the case wrote, sorted by name, masked.
fn documents(dir: &Path) -> Vec<(String, String)> {
    let mut docs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .flat_map(|p| {
            if p.is_dir() {
                documents(&p)
                    .into_iter()
                    .map(|(n, b)| (format!("{}/{n}", name(&p)), b))
                    .collect()
            } else {
                let body = std::fs::read_to_string(&p).expect("read document");
                vec![(name(&p), mask_json(&body))]
            }
        })
        .collect();
    docs.sort();
    docs
}

fn name(p: &Path) -> String {
    p.file_name()
        .expect("file name")
        .to_string_lossy()
        .into_owned()
}

/// The masked stdout and documents of one invocation, hashed.
fn pin(case: usize, args: &str) -> u64 {
    let dir = scratch_dir(&case.to_string());
    let mut text = mask_stdout(&run(args, &dir));
    for (name, body) in documents(&dir) {
        text.push_str(&format!("\0{name}\0{body}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    fnv1a(text.as_bytes())
}

/// Every key path of a JSON value (`a.b[].c`).
fn key_paths(v: &JsonValue, prefix: &str, out: &mut BTreeSet<String>) {
    match v {
        JsonValue::Obj(pairs) => {
            for (k, v) in pairs {
                let path = format!("{prefix}.{k}");
                out.insert(path.clone());
                key_paths(v, &path, out);
            }
        }
        JsonValue::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// `(command line, pin)`: every figure but the minutes-long `fig10`,
/// ci.sh's scenario smokes, and the `--json` export. `trace` was
/// re-recorded once when its metric tables lost the always-zero
/// `memory.copied_bytes` counter lines.
const PINS: &[(&str, u64)] = &[
    ("table1", 0xca1e_0e74_b50a_4a35),
    ("fig5", 0x3368_0e2c_b53e_ff56),
    ("fig6", 0x01b9_3f36_1ff2_28e8),
    ("fig8", 0x2b0a_53e5_3f7a_7437),
    ("fig12", 0x0872_f24f_3032_c360),
    ("fig16", 0x55ba_128b_1623_71c2),
    ("fig17", 0x7b4a_9dba_b699_4f94),
    ("fig18", 0xae3a_a9e2_7f20_b702),
    ("npu", 0xca88_9be2_1bfa_57ec),
    ("predictor", 0x61f9_60a2_0b31_2fef),
    ("sweeps", 0x13ac_d89c_517e_5fda),
    (
        "trace squeezenet --miniature --trace-out={dir}/trace.json",
        0x58b5_a069_18e0_e739,
    ),
    (
        "faults squeezenet --scenario=flaky-gpu --seed=42 --miniature",
        0xbbf2_d163_6b09_f341,
    ),
    (
        "serve squeezenet --arrivals=bursty --seed=42 --frames=64 --miniature \
         --trace-out={dir}/serve.json",
        0x2fe4_6320_0d25_0cfb,
    ),
    (
        "fleet squeezenet --miniature --devices=64 --frames=16 --storm=gpu-loss --seed=42 \
         --fuzz-orders=2 --out={dir}/fleet.json",
        0xc4a0_5e6d_9636_5ff4,
    ),
    (
        "fleet squeezenet --miniature --devices=64 --frames=32 --storm=none --seed=42 \
         --plan-cache=on --min-hit-rate=0.9",
        0xf584_bc3b_28c1_0325,
    ),
    (
        "mesh --nodes=4 --frames=24 --link-fault=partition --seed=42 --out={dir}/mesh.json",
        0x3cbe_0569_b4bb_794d,
    ),
    (
        "plan squeezenet --miniature --frames=64 --seed=42 --drift=calm --min-hit-rate=0.9 \
         --out={dir}/plan.json",
        0xdfd9_6aa3_ba8a_e83c,
    ),
    ("--json {dir}/json", 0x1118_b58a_4238_ba2a),
];

#[test]
fn repro_output_is_pinned() {
    let got: Vec<(&str, u64, u64)> = PINS
        .iter()
        .enumerate()
        .map(|(i, &(args, want))| (args, pin(i, args), want))
        .collect();
    let moved: Vec<&(&str, u64, u64)> = got.iter().filter(|(_, g, w)| g != w).collect();
    if !moved.is_empty() {
        for (args, g, w) in &got {
            let mark = if g == w { "  " } else { "!!" };
            eprintln!("{mark} {g:#018x} (pinned {w:#018x})  repro {args}");
        }
        panic!("{} of {} repro pins moved", moved.len(), got.len());
    }
}

#[test]
fn measure_document_key_set_is_pinned() {
    let dir = scratch_dir("measure");
    run(
        "measure squeezenet --miniature --threads=2 --repeat=1 --kernel-path=auto \
         --out={dir}/measure.json",
        &dir,
    );
    let body = std::fs::read_to_string(dir.join("measure.json")).expect("measure document");
    let _ = std::fs::remove_dir_all(&dir);
    let doc = JsonValue::parse(&body).expect("measure document parses");
    let mut keys = BTreeSet::new();
    key_paths(&doc, "", &mut keys);
    let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
    let h = fnv1a(keys.join("\n").as_bytes());
    assert_eq!(
        h, 0xb655_bec9_258d_9321,
        "measure key set moved ({h:#018x}): {keys:?}"
    );
}
