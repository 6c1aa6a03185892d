//! What the benchmark declares, and the check that `BENCHMARK.json`
//! says the same.
//!
//! The tables below are the single source inside the binary: every run
//! emits exactly these metrics, and nothing is timed until
//! `BENCHMARK.json` in the working directory lists exactly these names,
//! units and directions, within the limits of the benchmark contract.

use serde_json::Value;
use std::path::Path;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [WorkloadDecl; 5] = [
    WorkloadDecl {
        name: "live_mixed",
        why: "eight continuous queries of every operator class on a live GOES-like feed with the archive attached: every layer works at once, scan and pump hops dominate",
    },
    WorkloadDecl {
        name: "ops_kernels",
        why: "operators alone and stacked over sources held in memory: ops and exec do all the work, satsim, dsms and store none, so a kernel or driver gain shows undiluted",
    },
    WorkloadDecl {
        name: "archive_rw",
        why: "one archive written, scanned cold past the tile cache and point-read from a hot set that fits it: an encode or WAL change that buys ingest by costing replay shows in one record",
    },
    WorkloadDecl {
        name: "swarm_shared",
        why: "256 subscribers over 8 plans that share subplans, plan sharing on: fan-out, subscription tree and channel overhead dominate while scan and kernels are small",
    },
    WorkloadDecl {
        name: "oneshot_http",
        why: "sequential HTTP requests for small regions over real sockets: parse, optimize, analyze, admit, scalar run, PNG and per-request overhead dominate, sectors are tiny",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better, bound: None }
}

/// The bounds come from two noise runs on the two-core container
/// (`bench/README.md`, "Noise and baseline"): whole runs drift by 10 to
/// 20 % with the machine, the spread of ten runs reached 13 %, and the
/// medians of two sets of five differed by up to 8 %.
pub const END_TO_END: [MetricDecl; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("pts_per_s", "1/s", "higher", 0.2),
    e2e("cpu_s_per_mpts", "s/Mpt", "lower", 0.2),
    e2e("op_p50_ms", "ms", "lower", 0.2),
    e2e("op_p95_ms", "ms", "lower", 0.25),
];

pub const PER_LAYER: [MetricDecl; 81] = [
    layer("satsim.scan_vis_pts_per_s", "1/s", "higher"),
    layer("satsim.scan_ir_pts_per_s", "1/s", "higher"),
    layer("satsim.busy_share", "%", "lower"),
    layer("model.repair_pts_per_s", "1/s", "higher"),
    layer("model.repair_overhead_pct", "%", "lower"),
    layer("model.busy_share", "%", "lower"),
    layer("ops.restrict_space_pts_per_s", "1/s", "higher"),
    layer("ops.restrict_value_pts_per_s", "1/s", "higher"),
    layer("ops.restrict_time_pts_per_s", "1/s", "higher"),
    layer("ops.map_linear_pts_per_s", "1/s", "higher"),
    layer("ops.map_gamma_pts_per_s", "1/s", "higher"),
    layer("ops.stretch_frame_pts_per_s", "1/s", "higher"),
    layer("ops.compose_ndvi_pts_per_s", "1/s", "higher"),
    layer("ops.downsample4_pts_per_s", "1/s", "higher"),
    layer("ops.magnify2_pts_per_s", "1/s", "higher"),
    layer("ops.reproject_bilinear_pts_per_s", "1/s", "higher"),
    layer("ops.focal_mean3_pts_per_s", "1/s", "higher"),
    layer("ops.agg_time3_pts_per_s", "1/s", "higher"),
    layer("ops.restrict_space_pct_roofline", "%", "higher"),
    layer("ops.map_linear_pct_roofline", "%", "higher"),
    layer("ops.stretch_peak_buffer_bytes", "B", "lower"),
    layer("ops.reproject_peak_buffer_bytes", "B", "lower"),
    layer("ops.busy_share", "%", "lower"),
    layer("roofline.memcpy_gb_per_s", "GB/s", "higher"),
    layer("roofline.stream_sum_pts_per_s", "1/s", "higher"),
    layer("exec.chunked_pts_per_s", "1/s", "higher"),
    layer("exec.scalar_pts_per_s", "1/s", "higher"),
    layer("exec.morsel_w0_pts_per_s", "1/s", "higher"),
    layer("exec.morsel_w2_pts_per_s", "1/s", "higher"),
    layer("exec.morsel_w2_efficiency", "ratio", "higher"),
    layer("exec.worker_busy_share", "%", "higher"),
    layer("exec.steals", "count", "lower"),
    layer("query.parse_us", "us", "lower"),
    layer("query.optimize_us", "us", "lower"),
    layer("query.analyze_us", "us", "lower"),
    layer("query.build_us", "us", "lower"),
    layer("query.plan_cache_hit_rate", "%", "higher"),
    layer("query.busy_share", "%", "lower"),
    layer("dsms.ingest_elements", "count", "higher"),
    layer("dsms.shed_elements", "count", "lower"),
    layer("dsms.restarts", "count", "lower"),
    layer("dsms.shared_plans", "count", "lower"),
    layer("dsms.chunks_multicast", "count", "higher"),
    layer("dsms.payload_copies", "count", "lower"),
    layer("dsms.fanout_pts_per_s", "1/s", "higher"),
    layer("dsms.register_us", "us", "lower"),
    layer("dsms.http_overhead_pct", "%", "lower"),
    layer("dsms.unattributed_share", "%", "lower"),
    layer("store.ingest_pts_per_s", "1/s", "higher"),
    layer("store.replay_pts_per_s", "1/s", "higher"),
    layer("store.region_pts_per_s", "1/s", "higher"),
    layer("store.stored_bytes_per_raw_byte", "ratio", "lower"),
    layer("store.encode_stripe_mb_per_s", "MB/s", "higher"),
    layer("store.decode_stripe_mb_per_s", "MB/s", "higher"),
    layer("store.vfs_append_count", "count", "lower"),
    layer("store.vfs_append_bytes", "B", "lower"),
    layer("store.vfs_append_busy_pct", "%", "lower"),
    layer("store.vfs_sync_count", "count", "lower"),
    layer("store.vfs_sync_busy_pct", "%", "lower"),
    layer("store.vfs_read_count", "count", "lower"),
    layer("store.vfs_read_busy_pct", "%", "lower"),
    layer("store.wal_bytes", "B", "lower"),
    layer("store.segment_bytes", "B", "lower"),
    layer("store.wal_commits", "count", "lower"),
    layer("store.write_amplification", "ratio", "lower"),
    layer("store.cache_hit_rate", "%", "higher"),
    layer("store.cache_misses_per_region_query", "count", "lower"),
    layer("store.open_recovery_mb_per_s", "MB/s", "higher"),
    layer("store.busy_share", "%", "lower"),
    layer("raster.png_gray_mb_per_s", "MB/s", "higher"),
    layer("raster.png_rgb_mb_per_s", "MB/s", "higher"),
    layer("raster.png_bytes_per_pixel", "B", "lower"),
    layer("raster.busy_share", "%", "lower"),
    layer("geo.forward_ns_per_pt", "ns", "lower"),
    layer("geo.inverse_ns_per_pt", "ns", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("process.cpu_cores_used", "ratio", "lower"),
    layer("process.cpu_sys_share", "%", "lower"),
    layer("process.threads_peak", "count", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDecl> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn name_ok(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn path_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn keys_are(v: &Value, expected: &[&str]) -> bool {
    match v {
        Value::Object(entries) => {
            entries.len() == expected.len() && expected.iter().all(|k| v.get(k).is_some())
        }
        _ => false,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// A JSON number of any of the shim's three kinds.
pub fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::F64(f)) => Some(*f),
        Some(Value::U64(n)) => Some(*n as f64),
        Some(Value::I64(n)) => Some(*n as f64),
        _ => None,
    }
}

fn as_array(v: Option<&Value>) -> Option<&[Value]> {
    match v {
        Some(Value::Array(a)) => Some(a),
        _ => None,
    }
}

/// Compares one declared metric list against the binary's table.
fn check_metrics(
    section: &str,
    listed: &[Value],
    declared: &[MetricDecl],
    max: usize,
    errors: &mut Vec<String>,
) {
    if listed.is_empty() || listed.len() > max {
        errors.push(format!("{section}: {} metrics, need 1 to {max}", listed.len()));
    }
    let with_bound = declared.first().is_some_and(|d| d.bound.is_some());
    let keys: &[&str] =
        if with_bound { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    for m in listed {
        let Some(name) = as_str(m.get("name")) else {
            errors.push(format!("{section}: a metric has no name"));
            continue;
        };
        if !keys_are(m, keys) {
            errors.push(format!("{section}.{name}: keys must be exactly {keys:?}"));
        }
        if !name_ok(name) {
            errors.push(format!("{section}.{name}: name outside [A-Za-z0-9_.-]{{1,64}}"));
        }
        let unit = as_str(m.get("unit")).unwrap_or("");
        if !unit_ok(unit) {
            errors.push(format!("{section}.{name}: unit `{unit}` not allowed"));
        }
        let better = as_str(m.get("better")).unwrap_or("");
        if better != "lower" && better != "higher" {
            errors.push(format!("{section}.{name}: better must be lower or higher"));
        }
        let bound = number(m.get("bound"));
        if with_bound && !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            errors.push(format!("{section}.{name}: bound must be in (0, 0.25]"));
        }
        match declared.iter().find(|d| d.name == name) {
            None => errors.push(format!("{section}.{name}: the binary does not emit it")),
            Some(d) => {
                if d.unit != unit || d.better != better || (with_bound && d.bound != bound) {
                    errors.push(format!("{section}.{name}: differs from the binary's declaration"));
                }
            }
        }
    }
    for d in declared {
        if !listed.iter().any(|m| as_str(m.get("name")) == Some(d.name)) {
            errors.push(format!("{section}.{}: emitted by the binary but not declared", d.name));
        }
    }
}

/// Every way `text`, the content of `BENCHMARK.json` found in `root`,
/// breaks the benchmark contract or disagrees with this binary.
pub fn check(text: &str, root: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > 64 * 1024 {
        errors.push("file is larger than 64 KiB".to_string());
    }
    let doc: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    const KEYS: [&str; 6] =
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    if !keys_are(&doc, &KEYS) {
        errors.push(format!("top-level keys must be exactly {KEYS:?}"));
    }

    let paths = as_array(doc.get("paths")).unwrap_or(&[]);
    if paths.is_empty() || paths.len() > 16 {
        errors.push("paths: need 1 to 16 directories".to_string());
    }
    let mut path_names = Vec::new();
    for p in paths {
        match as_str(Some(p)) {
            Some(p) if path_ok(p) => {
                if !root.join(p).is_dir() {
                    errors.push(format!("paths: `{p}` is not a directory here"));
                }
                path_names.push(p.trim_end_matches('/'));
            }
            _ => errors.push(format!("paths: entry {p:?} is not an allowed relative path")),
        }
    }

    let command = as_array(doc.get("command")).unwrap_or(&[]);
    if command.is_empty() || command.len() > 32 {
        errors.push("command: need 1 to 32 strings".to_string());
    }
    for part in command {
        match as_str(Some(part)) {
            Some(s) if s.len() <= 200 => {
                let names_repo_file = s.contains('/') || root.join(s).exists();
                let inside = path_names
                    .iter()
                    .any(|p| s == *p || s.strip_prefix(p).is_some_and(|r| r.starts_with('/')));
                if s.starts_with('/') || s.split('/').any(|x| x == "..") {
                    errors.push(format!("command: `{s}` leaves the checkout"));
                } else if names_repo_file && !inside {
                    errors.push(format!("command: `{s}` names a file outside paths"));
                }
            }
            _ => errors.push("command: every part is a string of at most 200 characters".into()),
        }
    }

    match number(doc.get("run_seconds")) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {
            let s = s as u64;
            let runs = 4 + 22 * WORKLOADS.len() as u64;
            // Set-up passes, checks and process start on top of the
            // measured seconds; two builds of about two minutes.
            if runs * (s + 8) + 240 > 3420 {
                errors.push(format!("run_seconds: {runs} runs of {s} s do not fit 3420 s"));
            }
        }
        _ => errors.push("run_seconds: must be a whole number from 1 to 60".to_string()),
    }

    let workloads = as_array(doc.get("workloads")).unwrap_or(&[]);
    if workloads.len() != WORKLOADS.len() {
        errors.push(format!("workloads: {} listed, {} built", workloads.len(), WORKLOADS.len()));
    }
    for w in workloads {
        let name = as_str(w.get("name")).unwrap_or("");
        let why = as_str(w.get("why")).unwrap_or("");
        if !keys_are(w, &["name", "why"]) || !name_ok(name) {
            errors.push(format!("workloads.{name}: needs exactly a valid name and a why"));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errors
                .push(format!("workloads.{name}: why must be one line of at most 200 characters"));
        }
        match workload(name) {
            None => errors.push(format!("workloads.{name}: the binary has no such workload")),
            Some(d) if d.why != why => {
                errors.push(format!("workloads.{name}: why differs from the binary's"))
            }
            Some(_) => {}
        }
    }
    for d in &WORKLOADS {
        if !workloads.iter().any(|w| as_str(w.get("name")) == Some(d.name)) {
            errors.push(format!("workloads.{}: built but not declared", d.name));
        }
    }

    let e2e = as_array(doc.get("end_to_end")).unwrap_or(&[]);
    check_metrics("end_to_end", e2e, &END_TO_END, 16, &mut errors);
    let setup = e2e.iter().find(|m| as_str(m.get("name")) == Some("setup_s"));
    if !setup.is_some_and(|m| {
        as_str(m.get("unit")) == Some("s") && as_str(m.get("better")) == Some("lower")
    }) {
        errors.push("end_to_end: setup_s (unit s, better lower) is required".to_string());
    }
    let layers = as_array(doc.get("per_layer")).unwrap_or(&[]);
    check_metrics("per_layer", layers, &PER_LAYER, 128, &mut errors);

    let mut names: Vec<&str> =
        workloads.iter().chain(e2e).chain(layers).filter_map(|v| as_str(v.get("name"))).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        if pair[0] == pair[1] {
            errors.push(format!("name `{}` is used more than once", pair[0]));
        }
    }
    errors
}

/// Renders the `BENCHMARK.json` this binary expects.
pub fn render(command: &[&str], paths: &[&str], run_seconds: u64) -> String {
    let quote =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let metric = |m: &MetricDecl| match m.bound {
        Some(b) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
            m.name, m.unit, m.better
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ),
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quote(command),
        quote(paths),
        workloads.join(",\n"),
        END_TO_END.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMAND: [&str; 2] = ["cargo", "run"];

    fn root() -> std::path::PathBuf {
        // The crate directory has `src`, which stands in for a path.
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn rendered_manifest_passes() {
        let text = render(&COMMAND, &["src"], 12);
        assert_eq!(check(&text, &root()), Vec::<String>::new());
    }

    #[test]
    fn declarations_respect_the_contract_limits() {
        assert!(WORKLOADS.iter().all(|w| name_ok(w.name) && w.why.len() <= 200));
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|m| name_ok(m.name) && unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn broken_manifests_are_refused() {
        let good = render(&COMMAND, &["src"], 12);
        let cases = [
            (good.replace("\"src\"", "\"no-such-dir\""), "not a directory"),
            (good.replace("\"run_seconds\": 12", "\"run_seconds\": 61"), "run_seconds"),
            (good.replace("\"run_seconds\": 12", "\"run_seconds\": 40"), "do not fit"),
            (good.replace("\"bound\": 0.2}", "\"bound\": 0.3}"), "bound"),
            (good.replace("\"name\": \"setup_s\"", "\"name\": \"set up\""), "setup_s"),
            (good.replace("\"name\": \"trace.spans\"", "\"name\": \"trace.spam\""), "not declared"),
            (good.replace("\"unit\": \"GB/s\"", "\"unit\": \"GB per s\""), "unit"),
            (
                good.replace("\"name\": \"ops_kernels\"", "\"name\": \"live_mixed\""),
                "more than once",
            ),
            (good.replace("\"cargo\"", "\"../cargo\""), "leaves the checkout"),
            (good.replace("\"cargo\", \"run\"", "\"cargo\", \"Cargo.toml\""), "outside paths"),
            (good.replace("\"paths\"", "\"extra\": 1, \"paths\""), "top-level keys"),
            ("{".to_string(), "not JSON"),
        ];
        for (text, expect) in cases {
            let errors = check(&text, &root());
            assert!(errors.iter().any(|e| e.contains(expect)), "{expect}: {errors:?}");
        }
    }
}
