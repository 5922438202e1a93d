//! Per-rule fixture tests: each known-bad file under `fixtures/` is
//! linted under a *production* fake path (the fixtures' real path
//! contains `tests`, which would exempt everything) and must fire at
//! exactly the asserted lines — no more, no fewer — with the allow
//! escape demonstrably suppressing one occurrence.

use gridmtd_lint::lint_source;

/// Lints `fixtures/<name>` as if it lived at `fake_path`.
fn fired(name: &str, fake_path: &str) -> Vec<(String, usize)> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_source(fake_path, &src)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn expect(name: &str, fake_path: &str, want: &[(&str, usize)]) {
    let got = fired(name, fake_path);
    let want: Vec<(String, usize)> = want.iter().map(|&(r, l)| (r.to_string(), l)).collect();
    assert_eq!(got, want, "fixture {name} under {fake_path}");
}

#[test]
fn lock_unwrap_fixture() {
    // Fires on `.unwrap()` and `.expect(...)`; the allow on the line
    // above and the `#[cfg(test)]` block both suppress.
    expect(
        "lock_unwrap.rs",
        "crates/x/src/worker.rs",
        &[("lock-unwrap", 6), ("lock-unwrap", 10)],
    );
}

#[test]
fn raw_seed_mix_fixture() {
    // `^`, `.wrapping_add`, `.wrapping_mul` near seed-named bindings;
    // `mask ^ t` (no seed name in the statement) stays clean.
    expect(
        "raw_seed_mix.rs",
        "crates/x/src/streams.rs",
        &[
            ("raw-seed-mix", 5),
            ("raw-seed-mix", 9),
            ("raw-seed-mix", 13),
        ],
    );
    // The one module allowed to do raw seed arithmetic.
    expect("raw_seed_mix.rs", "crates/core/src/seedstream.rs", &[]);
}

#[test]
fn unordered_iter_fixture() {
    // A `for` loop, an `.keys()` chain, and a `.drain()` on hash
    // containers; keyed `.get` lookups in a slice-ordered loop stay
    // clean.
    expect(
        "unordered_iter.rs",
        "crates/x/src/report.rs",
        &[
            ("unordered-iter", 7),
            ("unordered-iter", 14),
            ("unordered-iter", 18),
        ],
    );
}

#[test]
fn float_eq_fixture() {
    // `==` / `!=` against non-zero float literals, including a negated
    // one; the `!= 0.0` sparsity idiom stays clean.
    expect(
        "float_eq.rs",
        "crates/x/src/rank.rs",
        &[("float-eq", 5), ("float-eq", 9), ("float-eq", 17)],
    );
}

#[test]
fn wallclock_fixture() {
    // `Instant::now` and `SystemTime` in a result-producing crate; the
    // measurement crates are exempt wholesale.
    expect(
        "wallclock.rs",
        "crates/x/src/pipeline.rs",
        &[("wallclock", 5), ("wallclock", 10)],
    );
    expect("wallclock.rs", "crates/bench/src/bin/timer.rs", &[]);
    expect("wallclock.rs", "crates/serve/src/loadtest.rs", &[]);
}

#[test]
fn bad_allow_fixture() {
    // A reason-less allow is a finding AND fails to suppress its
    // target; an allow naming an unknown rule is a finding too.
    expect(
        "bad_allow.rs",
        "crates/x/src/helper.rs",
        &[("bad-allow", 5), ("lock-unwrap", 6), ("bad-allow", 10)],
    );
}

#[test]
fn fixtures_under_test_paths_are_exempt() {
    // The same deliberate violations vanish when the file genuinely
    // lives in an integration-test tree.
    expect("lock_unwrap.rs", "crates/x/tests/worker.rs", &[]);
    expect("float_eq.rs", "crates/x/tests/rank.rs", &[]);
}
