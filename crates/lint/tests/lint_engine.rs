//! Engine acceptance tests: every rule against its fixture, asserting
//! both the bad sites it must catch and the good shapes it must not
//! flag. Fixtures live in `tests/fixtures/` (not compiled as tests).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use geostreams_lint::{lint_files, Finding};

fn lint_fixture(name: &str, src: &str) -> Vec<Finding> {
    // Fixtures pose as core library sources so path-scoped rules apply.
    lint_files(&[(format!("crates/core/src/{name}"), src.to_string())])
}

fn rules_hit<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn panic_rule_catches_lib_sites_only() {
    let findings = lint_fixture("panics.rs", include_str!("fixtures/panics.rs"));
    let hits = rules_hit(&findings, "panic-in-lib");
    let fns: Vec<&str> = hits.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(fns, vec!["bad_panic", "bad_todo", "bad_unimplemented", "bad_exit"]);
}

#[test]
fn panic_rule_skips_bin_sources() {
    let findings = lint_files(&[(
        "crates/core/src/bin/tool.rs".to_string(),
        "fn main() { std::process::exit(1); }".to_string(),
    )]);
    assert!(rules_hit(&findings, "panic-in-lib").is_empty());
}

#[test]
fn lock_rule_separates_guarded_sends_from_safe_shapes() {
    let findings = lint_fixture("locks.rs", include_str!("fixtures/locks.rs"));
    let hits = rules_hit(&findings, "lock-across-blocking");
    let fns: Vec<&str> = hits.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(fns, vec!["bad_send_under_guard", "bad_transitive_block"]);
    // The transitive hit comes through the may-block fixpoint on nap().
    assert!(hits[1].message.contains("nap"));
}

#[test]
fn lock_order_rule_finds_the_abba_cycle() {
    let findings = lint_fixture("lock_order.rs", include_str!("fixtures/lock_order.rs"));
    let hits = rules_hit(&findings, "lock-order-cycle");
    assert_eq!(hits.len(), 1, "one canonical report per cycle: {hits:?}");
    assert!(hits[0].message.contains("catalog") && hits[0].message.contains("metrics"));
}

#[test]
fn lock_order_rule_ignores_non_runtime_crates() {
    let findings = lint_files(&[(
        "crates/satsim/src/lock_order.rs".to_string(),
        include_str!("fixtures/lock_order.rs").to_string(),
    )]);
    assert!(rules_hit(&findings, "lock-order-cycle").is_empty());
}

#[test]
fn growth_rule_requires_a_drain_somewhere_in_the_file() {
    let findings = lint_fixture("growth.rs", include_str!("fixtures/growth.rs"));
    let hits = rules_hit(&findings, "unbounded-growth");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert_eq!(hits[0].function, "pump");
    assert!(hits[0].message.contains("backlog"));
    // Subscription-tree hot paths are covered too; `shed_try_sub`'s
    // push is bounded by flush() and stays clean.
    assert_eq!(hits[1].function, "multicast");
    assert!(hits[1].message.contains("delivered"));
}

#[test]
fn instant_rule_only_fires_inside_chunk_loops() {
    let findings = lint_fixture("instant.rs", include_str!("fixtures/instant.rs"));
    let hits = rules_hit(&findings, "instant-in-chunk-loop");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].function, "bad_clock_per_chunk");
}

#[test]
fn atomics_rule_flags_relaxed_sites_of_mixed_fields() {
    let findings = lint_fixture("atomics.rs", include_str!("fixtures/atomics.rs"));
    let hits = rules_hit(&findings, "relaxed-strong-mix");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].function, "peek");
    assert!(hits[0].message.contains("ready"));
}

#[test]
fn findings_are_sorted_and_stable() {
    let files = vec![
        ("crates/core/src/b.rs".to_string(), "pub fn f() { panic!() }".to_string()),
        ("crates/core/src/a.rs".to_string(), "pub fn g() { todo!() }".to_string()),
    ];
    let a = lint_files(&files);
    let b = lint_files(&files);
    assert_eq!(a, b);
    assert_eq!(a[0].file, "crates/core/src/a.rs");
    assert_eq!(a[1].file, "crates/core/src/b.rs");
}

#[test]
fn thread_rule_flags_only_discarded_handles() {
    let findings = lint_fixture("threads.rs", include_str!("fixtures/threads.rs"));
    let hits = rules_hit(&findings, "detached-thread-spawn");
    let fns: Vec<&str> = hits.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(fns, vec!["bad_fire_and_forget", "bad_std_path", "bad_after_block"], "{hits:?}");
    assert!(hits[0].message.contains("JoinHandle"));
}

#[test]
fn thread_rule_ignores_non_runtime_crates() {
    // The simulator deliberately runs detached fault-injection threads;
    // the ownership discipline only binds core, dsms, and store.
    let findings = lint_files(&[(
        "crates/satsim/src/threads.rs".to_string(),
        include_str!("fixtures/threads.rs").to_string(),
    )]);
    assert!(rules_hit(&findings, "detached-thread-spawn").is_empty());
}

#[test]
fn raw_io_rule_guards_the_store_behind_vfs() {
    let src = include_str!("fixtures/store_io.rs").to_string();
    // Posed as store library code, the raw calls are violations.
    let findings = lint_files(&[("crates/store/src/store_io.rs".to_string(), src.clone())]);
    let hits = rules_hit(&findings, "raw-file-io-in-store");
    let fns: Vec<&str> = hits.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(fns, vec!["bad_std_fs", "bad_file_open", "bad_open_options"], "{hits:?}");
    // vfs.rs itself is the one allowed home for raw filesystem calls.
    let as_vfs = lint_files(&[("crates/store/src/vfs.rs".to_string(), src.clone())]);
    assert!(rules_hit(&as_vfs, "raw-file-io-in-store").is_empty());
    // Other crates are out of scope for this rule.
    let as_core = lint_files(&[("crates/core/src/store_io.rs".to_string(), src)]);
    assert!(rules_hit(&as_core, "raw-file-io-in-store").is_empty());
}

#[test]
fn scalar_pull_rule_flags_every_library_next_element_call() {
    let src = include_str!("fixtures/scalar_pull.rs").to_string();
    let findings = lint_fixture("scalar_pull.rs", &src);
    let hits = rules_hit(&findings, "scalar-pull");
    let fns: Vec<&str> = hits.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(fns, vec!["bad_sink", "bad_fill", "next_chunk"], "{hits:?}");
    // The scanner is the only simulator file on the production path.
    let as_scanner = lint_files(&[("crates/satsim/src/scanner.rs".to_string(), src.clone())]);
    assert_eq!(rules_hit(&as_scanner, "scalar-pull").len(), 3);
    let as_trace = lint_files(&[("crates/satsim/src/trace.rs".to_string(), src)]);
    assert!(rules_hit(&as_trace, "scalar-pull").is_empty());
}

#[test]
fn element_packing_rule_flags_operator_library_calls_only() {
    let src = include_str!("fixtures/element_packing.rs").to_string();
    let findings = lint_files(&[("crates/core/src/ops/buffering.rs".to_string(), src.clone())]);
    let hits = rules_hit(&findings, "element-packing");
    let fns: Vec<&str> = hits.iter().map(|f| f.function.as_str()).collect();
    assert_eq!(fns, vec!["next_chunk", "bad_drain_queue", "pack_queue"], "{hits:?}");
    // Every crate's library code is held to it: the store's replay and
    // the simulator's fault injection queue runs too.
    for path in ["crates/store/src/replay.rs", "crates/satsim/src/faults.rs"] {
        let elsewhere = lint_files(&[(path.to_string(), src.clone())]);
        assert_eq!(rules_hit(&elsewhere, "element-packing").len(), 3, "{path}");
    }
    // Only the `split2` and `tee2` sides, whose transports are element
    // sequences, still pack their elements.
    let split = lint_files(&[("crates/core/src/model/split.rs".to_string(), src)]);
    assert!(rules_hit(&split, "element-packing").is_empty());
}
