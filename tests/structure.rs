//! Structural guards: each test pins one simplification so that a later
//! change cannot quietly bring back the path it removed. Each is a plain
//! text search over the source tree, `grep -rn` style: it counts matching
//! lines. This file is skipped by every search, because it spells out the
//! very names it forbids.

use std::fs;
use std::path::Path;

const SELF: &str = "tests/structure.rs";

/// Every line under the repo-relative `roots` (files or directories, walked
/// recursively) for which `matches` holds, as `path:line: text`.
fn grep(roots: &[&str], matches: impl Fn(&str) -> bool) -> Vec<String> {
    fn walk(root: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        let path = root.join(rel);
        if path.is_dir() {
            let mut entries: Vec<String> = fs::read_dir(&path)
                .unwrap_or_else(|e| panic!("read {rel}: {e}"))
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            entries.sort();
            for name in entries {
                walk(root, &format!("{}/{name}", rel.trim_end_matches('/')), out);
            }
        } else if rel != SELF {
            let bytes = fs::read(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
            out.push((rel.to_owned(), String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for rel in roots {
        walk(root, rel, &mut files);
    }
    let mut hits = Vec::new();
    for (rel, text) in &files {
        for (i, line) in text.lines().enumerate() {
            if matches(line) {
                hits.push(format!("{rel}:{}: {line}", i + 1));
            }
        }
    }
    hits
}

/// Lines containing any of `needles`.
fn any_of<'a>(needles: &'a [&'a str]) -> impl Fn(&str) -> bool + 'a {
    move |line| needles.iter().any(|n| line.contains(n))
}

/// Asserts that no line under `roots` contains any of `needles`.
fn assert_absent(roots: &[&str], needles: &[&str]) {
    let hits = grep(roots, any_of(needles));
    assert!(
        hits.is_empty(),
        "forbidden names are back:\n{}",
        hits.join("\n")
    );
}

/// How many lines of `file` contain `needle` (`grep -c`).
fn count(file: &str, needle: &str) -> usize {
    grep(&[file], any_of(&[needle])).len()
}

/// The sorted entry names of the repo-relative directory `dir` (`ls`).
fn ls(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(dir))
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `impl(<[^>]*>)? DataPlane for`: a `DataPlane` implementation, generic
/// or not.
fn implements_data_plane(line: &str) -> bool {
    line.match_indices("impl").any(|(i, _)| {
        let rest = &line[i + 4..];
        let rest = match rest.strip_prefix('<') {
            Some(generics) => match generics.find('>') {
                Some(end) => &generics[end + 1..],
                None => return false,
            },
            None => rest,
        };
        rest.starts_with(" DataPlane for")
    })
}

#[test]
fn the_threaded_regions_share_one_data_plane() {
    let impls = grep(
        &["crates/runtime/src", "crates/dataflow/src"],
        implements_data_plane,
    );
    assert!(impls.len() <= 1, "{}", impls.join("\n"));
}

#[test]
fn the_simulator_has_one_event_engine() {
    assert_eq!(count("crates/sim/src", "struct Scheduled"), 1);
    assert_absent(&["crates/"], &["MultiEngine"]);
}

/// `run` / `run_chaos` (dedicated workers) and `multi::run_coupled`
/// (shared hosts); a coupled region is a `RegionConfig`, and every figure
/// is `all_experiments <name>`.
#[test]
fn the_simulator_has_three_run_entries_and_the_figures_one_binary() {
    assert_absent(
        &["crates/", "tests/", "examples/", "docs/"],
        &[
            "MultiConfig",
            "MultiRegionSpec",
            "fn run_multi",
            "run_with_telemetry",
        ],
    );
    assert_eq!(
        ls("crates/bench/src/bin"),
        ["all_experiments.rs", "bench_gate.rs"]
    );
}

/// No flat mirror, no borrowed `Problem` form, no dead knobs; the
/// controller reaches the solver through `fox::greedy` only (its test
/// module keeps the allocating `fox::solve` as the dense oracle), with or
/// without data. Fox is the only solver in `core::solver`; the brute-force
/// oracle is private to the property tests.
#[test]
fn the_controller_has_one_solve_path() {
    assert_absent(
        &["crates/"],
        &[
            "from_flat_parts",
            "FunctionSet",
            "flat_gen",
            "max_step_up",
            "max_step_down",
            "record_zero_rates",
            "fn rate_cap",
        ],
    );
    assert_eq!(count("crates/core/src/controller.rs", "solve_with("), 0);
    // No no-data path: outside its tests the controller never asks whether
    // a function has data, so rounds and membership changes with and
    // without it run the same bound → solve → install.
    let controller = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/controller.rs"),
    )
    .expect("read the controller");
    let (body, _) = controller
        .split_once("#[cfg(test)]")
        .expect("the controller has a test module");
    assert!(
        !body.contains("raw_len"),
        "the controller reads raw_len again"
    );
    // Idle items never share a solve with multiplicities, so the cursor
    // never waits on an overshooting heap entry.
    assert_eq!(count("crates/core/src/solver/fox.rs", "idle_due"), 0);

    assert_eq!(ls("crates/core/src/solver"), ["fox.rs", "mod.rs"]);
    let roots = ["crates/", "examples/", "tests/"];
    assert_absent(
        &roots,
        &["bisect::", "galil_megiddo", "MultiplicityUnsupported"],
    );
    let hits: Vec<String> = grep(&roots, any_of(&["brute::"]))
        .into_iter()
        .filter(|hit| !hit.starts_with("crates/core/tests/properties.rs:"))
        .collect();
    assert!(
        hits.is_empty(),
        "brute force left the property tests:\n{}",
        hits.join("\n")
    );
}

/// The length prefix is written and parsed only in `transport::frame`; a
/// region picks its transport on `RegionBuilder`, not by builder.
#[test]
fn one_frame_codec_one_region_builder() {
    // `crates/*/src`: the third path component is `src`.
    let codec: Vec<String> = grep(
        &["crates"],
        any_of(&[
            "struct FrameReader",
            "struct FrameWriter",
            "const MAX_FRAME",
        ]),
    )
    .into_iter()
    .filter(|hit| hit.split('/').nth(2) == Some("src"))
    .collect();
    assert_eq!(codec.len(), 3, "{}", codec.join("\n"));
    for hit in &codec {
        assert!(
            hit.starts_with("crates/transport/src/frame.rs:"),
            "codec outside transport::frame: {hit}"
        );
    }
    assert_absent(
        &["crates", "tests", "examples", "docs"],
        &["TcpRegionBuilder", "proxy::frame", "fn encode_into"],
    );
}

/// The wall-clock control loop is the only place a blocking rate is
/// computed (a first difference over the measured interval), with no cap
/// and no second copy; its only sleep is the `Instant` clock's.
#[test]
fn one_cadence_one_rate() {
    assert_absent(&["crates/"], &["RATE_CAP", "from_blocked_ns"]);
    assert_absent(
        &[
            "crates/proxy/src",
            "crates/runtime/src",
            "crates/dataflow/src",
        ],
        &["BlockingSampler"],
    );
    assert_eq!(count("crates/control/src/lib.rs", "thread::sleep"), 1);
}

/// Client and link sockets are registered edge-triggered once and never
/// re-registered; the listener's pause is the one interest change left.
/// There is no poll(2) backend to select.
#[test]
fn sockets_register_once() {
    assert_eq!(count("crates/proxy/src/poll_core.rs", "reregister"), 1);
    assert_absent(
        &["crates/", "tests/"],
        &["update_interest", "PollSyscall", "with_backend"],
    );
}

/// Each shard accepts on its own listener clone, shard 0 runs the
/// re-admission probes as nonblocking connects, and each shard ends its
/// own drain: no hand-off queue, no prober thread, no sleep.
#[test]
fn every_proxy_wait_is_a_poller_wait() {
    assert_absent(
        &["crates/", "tests/", "docs/"],
        &["Handoff", "HANDOFF_WAIT", "run_prober", "proxy-prober"],
    );
    assert_eq!(count("crates/proxy/src/server.rs", "thread::sleep"), 0);
    assert_eq!(count("crates/proxy/src/poll_core.rs", "thread::sleep"), 0);
}

/// `sim::Policy` is the only decision trait: the tournament's per-tuple
/// rules are one enum inside one sampled policy, and the width policies
/// are one enum.
#[test]
fn one_decision_trait() {
    assert_absent(
        &["crates/"],
        &[
            "trait Strategy",
            "SlotView",
            "StrategyPolicy",
            "trait WidthPolicy",
            "dyn WidthPolicy",
            "clone_box",
        ],
    );
}

/// A control round leaves one record, `telemetry::RoundSnapshot`, which
/// the trace's `Sample` event holds; its two metric families are bound in
/// one place; and a keyed region merges on a thread of its own instead of
/// polling.
#[test]
fn one_round_record() {
    assert_absent(
        &["crates/", "tests/", "examples/", "docs/"],
        &["SampleTrace"],
    );
    let records = grep(&["crates/"], any_of(&["struct RoundSnapshot"]));
    assert_eq!(records.len(), 1, "{}", records.join("\n"));
    assert!(
        records[0].starts_with("crates/telemetry/src/"),
        "{}",
        records[0]
    );
    for family in ["}.controller.rounds", "}.blocking_rate"] {
        let mut files: Vec<String> = grep(&["crates"], any_of(&[family]))
            .into_iter()
            .filter(|hit| hit.split('/').nth(2) == Some("src"))
            .map(|hit| hit.split(':').next().unwrap().to_owned())
            .collect();
        files.dedup();
        assert_eq!(files.len(), 1, "{family} is formatted in {files:?}");
    }
    assert_absent(&["crates/dataflow/src"], &["recv_timeout"]);
}

/// Blocked time accrues in the counter: a writer that elects to block
/// holds a span, and a read counts open spans up to now. No writer wakes
/// on a slice to charge its wait, the proxy flushes no open span, and
/// nothing resets the counter or resyncs a sampler.
#[test]
fn blocked_time_accrues_in_the_counter() {
    assert_absent(
        &["crates/", "tests/", "docs/"],
        &["WAIT_SLICE", "BLOCKED_FLUSH", "charge_blocked", "fn resync"],
    );
    assert_absent(&["crates/transport/src/chan.rs"], &["wait_timeout"]);
    assert_absent(
        &[
            "crates/transport/src/chan.rs",
            "crates/transport/src/tcp.rs",
            "crates/proxy/src",
        ],
        &["add_ns("],
    );
}

/// A blocking-rate function is its monotone fit: no dense `R + 1` table is
/// cached beside it, the clustered round pools each cluster into a fit
/// rather than a dense row, and the one dense fill — behind the allocating
/// `predicted()` — lives with the fit it expands.
#[test]
fn a_blocking_rate_function_is_its_fit() {
    assert_absent(
        &["crates/"],
        &["table_dirty", "fill_table", "cflat", "pooled_row"],
    );
    let fills = grep(&["crates/"], any_of(&["fill_predicted("]));
    assert!(!fills.is_empty(), "the dense fill is gone");
    for hit in &fills {
        assert!(
            hit.starts_with("crates/core/src/function.rs:"),
            "dense fill outside the function: {hit}"
        );
    }
}
