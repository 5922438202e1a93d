//! The rule engine: project-specific invariants checked over the token
//! stream of one file.
//!
//! Every rule is grounded in a real incident (see `docs/ARCHITECTURE.md`
//! for the table): the poisoned-mutex session brick and the `base ^ t`
//! seed-stream collisions both shipped as silent violations that only
//! careful review caught.
//! The rules here make the reviewer's checklist executable.
//!
//! # Escape hatch
//!
//! A finding that is *known-good* is silenced with an allow comment on
//! the same line or the line above:
//!
//! ```text
//! // gridmtd-lint: allow(raw-seed-mix) -- reason the invariant holds here
//! ```
//!
//! The reason is mandatory; an allow without one (or naming an unknown
//! rule) is itself a finding (`bad-allow`) that no allow can silence.

use crate::tokens::{is_float_literal, is_zero_float, tokenize, Token, TokenKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`lock-unwrap`, …).
    pub rule: &'static str,
    /// What was matched.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// Rule ids valid in `allow(...)` comments, i.e. every rule except
/// `bad-allow` itself.
pub const ALLOWABLE_RULES: &[&str] = &[
    "lock-unwrap",
    "raw-seed-mix",
    "unordered-iter",
    "float-eq",
    "wallclock",
];

const BAD_ALLOW: &str = "bad-allow";

/// Lints one file's source text. `path` must be workspace-relative with
/// `/` separators — several rules are scoped by path (see each rule's
/// docs).
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let tokens = tokenize(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let test_lines = test_regions(&code);
    let whole_file_test = is_test_path(path);
    let in_test = |line: usize| {
        whole_file_test
            || test_lines
                .iter()
                .any(|&(start, end)| (start..=end).contains(&line))
    };

    let (allows, mut findings) = parse_allows(path, &tokens);

    rule_lock_unwrap(path, &code, &in_test, &mut findings);
    rule_raw_seed_mix(path, &code, &in_test, &mut findings);
    rule_unordered_iter(path, &code, &in_test, &mut findings);
    rule_float_eq(path, &code, &in_test, &mut findings);
    rule_wallclock(path, &code, &in_test, &mut findings);

    findings.retain(|f| {
        f.rule == BAD_ALLOW
            || !allows
                .iter()
                .any(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Whether a path is test-only by location: integration-test trees
/// (`**/tests/**`) are exempt from the determinism rules wholesale.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|part| part == "tests")
}

/// An `allow` annotation parsed from a comment.
struct Allow {
    rule: &'static str,
    line: usize,
}

/// Extracts `allow(rule, …) -- reason` annotations (introduced by the
/// `gridmtd-lint` marker comment) from comment tokens; malformed ones
/// become `bad-allow` findings.
fn parse_allows(path: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    const MARKER: &str = "gridmtd-lint:";
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for tok in tokens.iter().filter(|t| t.is_comment()) {
        let Some(rest) = tok.text.find(MARKER).map(|i| &tok.text[i + MARKER.len()..]) else {
            continue;
        };
        let rest = rest.trim_start();
        let bad = |message: String| Finding {
            file: path.to_string(),
            line: tok.line,
            rule: BAD_ALLOW,
            message,
            hint: "write `// gridmtd-lint: allow(<rule>) -- <why the invariant holds here>`",
        };
        let Some(inner) = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('('))
        else {
            findings.push(bad(format!(
                "unrecognized gridmtd-lint directive: `{}`",
                rest.lines().next().unwrap_or_default().trim()
            )));
            continue;
        };
        let Some(close) = inner.find(')') else {
            findings.push(bad("allow(...) is missing its closing parenthesis".into()));
            continue;
        };
        let (names, after) = inner.split_at(close);
        let reason = after[1..].trim_start();
        let reason = reason.strip_prefix("--").map(str::trim).unwrap_or_default();
        if reason.is_empty() {
            findings.push(bad(
                "allow(...) without a reason — append `-- <why this is sound>`".into(),
            ));
            continue;
        }
        for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match ALLOWABLE_RULES.iter().find(|r| **r == name) {
                Some(rule) => allows.push(Allow {
                    rule,
                    line: tok.line,
                }),
                None => findings.push(bad(format!("allow names unknown rule `{name}`"))),
            }
        }
    }
    (allows, findings)
}

/// Line spans covered by `#[cfg(test)]` / `#[test]` items: from the
/// attribute to the close of the item's brace block (or its `;`).
fn test_regions(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[")) {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr: Vec<&str> = Vec::new();
        while j < code.len() && depth > 0 {
            match code[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                t => attr.push(t),
            }
            j += 1;
        }
        let is_test_attr = attr.first() == Some(&"test")
            || (attr.len() >= 3 && attr[0] == "cfg" && attr[1] == "(" && attr[2] == "test");
        if !is_test_attr {
            i = j;
            continue;
        }
        let start_line = code[i].line;
        // The attributed item runs to the matching `}` of its first
        // brace block, or to a top-level `;` for block-less items.
        let mut braces = 0usize;
        let mut entered = false;
        let mut end_line = start_line;
        while j < code.len() {
            match code[j].text.as_str() {
                "{" => {
                    braces += 1;
                    entered = true;
                }
                "}" => {
                    braces = braces.saturating_sub(1);
                    if entered && braces == 0 {
                        end_line = code[j].line;
                        break;
                    }
                }
                ";" if !entered && braces == 0 => {
                    end_line = code[j].line;
                    break;
                }
                _ => {}
            }
            end_line = code[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

fn ident(tok: Option<&&Token>, name: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

fn punct(tok: Option<&&Token>, op: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Punct && t.text == op)
}

/// `lock-unwrap` — `.lock().unwrap()` / `.lock().expect(…)` outside
/// test code. A worker that panics while holding such a lock poisons
/// it, and every later request on the shared state panics at the lock
/// site: the exact session-bricking incident PR 6 fixed. Production
/// code must recover the guard via `PoisonError::into_inner` (the
/// `lock_est_ctx` / `SessionLru::lock` helpers are the pattern).
fn rule_lock_unwrap(
    path: &str,
    code: &[&Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..code.len() {
        if punct(code.get(i), ".")
            && ident(code.get(i + 1), "lock")
            && punct(code.get(i + 2), "(")
            && punct(code.get(i + 3), ")")
            && punct(code.get(i + 4), ".")
            && code
                .get(i + 5)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
        {
            let line = code[i + 5].line;
            if in_test(line) {
                continue;
            }
            findings.push(Finding {
                file: path.to_string(),
                line,
                rule: "lock-unwrap",
                message: format!(".lock().{}() panics forever once poisoned", code[i + 5].text),
                hint: "recover the guard: .lock().unwrap_or_else(std::sync::PoisonError::into_inner) — or route through the module's lock_* helper",
            });
        }
    }
}

/// How far around an operator the `raw-seed-mix` rule looks for a
/// seed-named identifier (tokens, same statement).
const SEED_WINDOW: usize = 8;

/// `raw-seed-mix` — `^`, `wrapping_add`, or `wrapping_mul` applied to a
/// seed-named binding anywhere but `core::seedstream`. Hand-rolled
/// stream derivations collide across nearby bases (`base ^ t` shares
/// streams between adjacent experiment seeds — the PR 6 regression);
/// all mixing belongs in `gridmtd_core::seedstream`.
fn rule_raw_seed_mix(
    path: &str,
    code: &[&Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    if path == "crates/core/src/seedstream.rs" {
        return;
    }
    let seedy = |t: &&Token| t.kind == TokenKind::Ident && t.text.to_lowercase().contains("seed");
    let mut fire = |line: usize, what: &str| {
        if in_test(line) {
            return;
        }
        // One finding per line is enough to force the fix.
        if findings
            .iter()
            .any(|f| f.rule == "raw-seed-mix" && f.line == line)
        {
            return;
        }
        findings.push(Finding {
            file: path.to_string(),
            line,
            rule: "raw-seed-mix",
            message: format!("raw `{what}` on a seed-named value derives collision-prone RNG streams"),
            hint: "derive stream seeds through gridmtd_core::seedstream (mix / domain), never ad-hoc xor or wrapping arithmetic",
        });
    };
    for i in 0..code.len() {
        let tok = code[i];
        let statement_window = |center: usize| {
            let lo = center.saturating_sub(SEED_WINDOW);
            let hi = (center + SEED_WINDOW + 1).min(code.len());
            (lo..hi).filter(move |&k| {
                // Stay inside the statement: a `;` or `{`/`}` between k
                // and the operator breaks the association.
                let (a, b) = if k < center { (k, center) } else { (center, k) };
                !(a..b).any(|m| matches!(code[m].text.as_str(), ";" | "{" | "}"))
            })
        };
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Punct, "^" | "^=") if statement_window(i).any(|k| seedy(&code[k])) => {
                fire(tok.line, &tok.text);
            }
            (TokenKind::Ident, "wrapping_add" | "wrapping_mul")
                if punct(code.get(i.wrapping_sub(1)), ".")
                    && statement_window(i).any(|k| seedy(&code[k])) =>
            {
                fire(tok.line, &tok.text);
            }
            _ => {}
        }
    }
}

/// Iteration-shaped methods for `unordered-iter`.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// `unordered-iter` — iterating a `HashMap` / `HashSet` in non-test
/// code. Hash iteration order varies between runs (`RandomState`) and
/// between platforms, so anything downstream of it — artifact bytes,
/// attack ensembles, parallel work splits — silently loses
/// bit-reproducibility. Use `BTreeMap`/`BTreeSet`, an order-preserving
/// `Vec`, or sort before iterating.
fn rule_unordered_iter(
    path: &str,
    code: &[&Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let is_hash_ty =
        |t: &&Token| t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet");
    // Pass 1: names bound to hash containers in this file — `let x =
    // HashMap::new()`, `x: HashMap<…>` (bindings, fields, params).
    let mut bindings: Vec<&str> = Vec::new();
    for i in 0..code.len() {
        if !is_hash_ty(&code[i]) {
            continue;
        }
        // `name : [&][mut] HashMap` (type ascription / field / param).
        let mut k = i;
        while punct(code.get(k.wrapping_sub(1)), "&") || ident(code.get(k.wrapping_sub(1)), "mut") {
            k -= 1;
        }
        if punct(code.get(k.wrapping_sub(1)), ":")
            && code
                .get(k.wrapping_sub(2))
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            bindings.push(code[k - 2].text.as_str());
        }
        // `let [mut] name … = HashMap::…` — scan back a few tokens.
        for back in 2..=6 {
            let Some(k) = i.checked_sub(back) else { break };
            if code[k].text == "let" {
                let name = code
                    .get(k + 1)
                    .filter(|t| t.text != "mut")
                    .or(code.get(k + 2));
                if let Some(name) = name.filter(|t| t.kind == TokenKind::Ident) {
                    bindings.push(name.text.as_str());
                }
                break;
            }
            if matches!(code[k].text.as_str(), ";" | "{" | "}") {
                break;
            }
        }
    }
    bindings.sort_unstable();
    bindings.dedup();
    let is_hash_expr =
        |t: &&Token| is_hash_ty(t) || bindings.binary_search(&t.text.as_str()).is_ok();

    let mut fire = |line: usize, what: String| {
        if in_test(line) {
            return;
        }
        if findings
            .iter()
            .any(|f| f.rule == "unordered-iter" && f.line == line)
        {
            return;
        }
        findings.push(Finding {
            file: path.to_string(),
            line,
            rule: "unordered-iter",
            message: what,
            hint: "hash iteration order is nondeterministic: use BTreeMap/BTreeSet, keep a Vec, or collect-and-sort first",
        });
    };

    // Pass 2: iteration over those bindings.
    for i in 0..code.len() {
        let tok = code[i];
        // `for … in <expr containing a hash binding> {`
        if tok.kind == TokenKind::Ident && tok.text == "for" {
            let mut j = i + 1;
            let mut saw_in = false;
            while j < code.len() && code[j].text != "{" && code[j].text != ";" {
                if !saw_in {
                    saw_in = ident(code.get(j), "in");
                } else if is_hash_expr(&code[j]) {
                    fire(tok.line, format!("`for` loop iterates `{}`", code[j].text));
                    break;
                }
                j += 1;
            }
        }
        // `<hash binding> . iter() …` (chains like `.clone().keys()` walk
        // back through idents / `.` / `(` / `)` / `?` / `::`).
        if tok.kind == TokenKind::Ident
            && ITER_METHODS.contains(&tok.text.as_str())
            && punct(code.get(i.wrapping_sub(1)), ".")
        {
            let mut k = i - 1;
            let mut steps = 0;
            while k > 0 && steps < 16 {
                k -= 1;
                steps += 1;
                let t = code[k];
                if is_hash_expr(&t) {
                    fire(
                        tok.line,
                        format!("`.{}()` walks `{}` in hash order", tok.text, t.text),
                    );
                    break;
                }
                let chainlike = t.kind == TokenKind::Ident
                    || matches!(t.text.as_str(), "." | "(" | ")" | "?" | "::" | "&");
                if !chainlike {
                    break;
                }
            }
        }
    }
}

/// `float-eq` — `==` / `!=` with a float operand outside tests. Exact
/// float equality silently depends on evaluation order and optimization
/// level; ranking code here must use `f64::total_cmp` and tolerance
/// checks. Comparisons against literal zero are accepted (the idiomatic
/// sparsity test, same carve-out as clippy's `float_cmp`).
fn rule_float_eq(
    path: &str,
    code: &[&Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    for i in 0..code.len() {
        let tok = code[i];
        if !(tok.kind == TokenKind::Punct && (tok.text == "==" || tok.text == "!=")) {
            continue;
        }
        // Operand scan: literal float on either side (skipping a unary
        // minus / parenthesis on the right).
        let left = code.get(i.wrapping_sub(1));
        let mut right = code.get(i + 1);
        if right.is_some_and(|t| t.text == "-" || t.text == "(") {
            right = code.get(i + 2);
        }
        let float_operand = |t: Option<&&Token>| {
            t.is_some_and(|t| {
                t.kind == TokenKind::Num && is_float_literal(&t.text) && !is_zero_float(&t.text)
            })
        };
        if !(float_operand(left) || float_operand(right)) {
            continue;
        }
        if in_test(tok.line) {
            continue;
        }
        findings.push(Finding {
            file: path.to_string(),
            line: tok.line,
            rule: "float-eq",
            message: format!("exact `{}` against a float literal", tok.text),
            hint: "compare with a tolerance ((a - b).abs() < eps) or rank via f64::total_cmp; exact equality only ever holds for 0.0",
        });
    }
}

/// Paths where `wallclock` never fires: measurement is the loadtest,
/// chaos, and bench drivers' entire job, and the server reads the
/// clock only for *operational* timing (idle reaping, request
/// deadlines) that never feeds a response body.
const WALLCLOCK_ALLOWED: &[&str] = &[
    "crates/bench/",
    "crates/serve/src/chaos.rs",
    "crates/serve/src/loadtest.rs",
    "crates/serve/src/server.rs",
];

/// `wallclock` — `Instant::now` / `SystemTime` in result-producing
/// crates. Wall-clock reads in a result path make artifacts differ
/// between runs (the scenario writers deliberately emit no timestamps)
/// and turn bit-reproducibility bugs into heisenbugs. Timing belongs in
/// `crates/bench` and the serve loadtest, which exist to measure.
fn rule_wallclock(
    path: &str,
    code: &[&Token],
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    if WALLCLOCK_ALLOWED.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for i in 0..code.len() {
        let tok = code[i];
        let hit = (ident(Some(&tok), "Instant")
            && punct(code.get(i + 1), "::")
            && ident(code.get(i + 2), "now"))
            || ident(Some(&tok), "SystemTime");
        if !hit || in_test(tok.line) {
            continue;
        }
        findings.push(Finding {
            file: path.to_string(),
            line: tok.line,
            rule: "wallclock",
            message: format!("wall-clock read (`{}`) in a result-producing crate", tok.text),
            hint: "results must be a pure function of (case, config, seed); keep timing in crates/bench or serve::loadtest",
        });
    }
}

/// Where the fault-point registry lives; [`check_fault_points`] is a
/// no-op for file sets that do not include it (sub-tree lint runs,
/// fixture corpora).
const FAULT_REGISTRY_PATH: &str = "crates/faults/src/registry.rs";

/// `fault-point` — cross-file registry discipline for fault-injection
/// points. Unlike the per-file rules this one sees the whole workspace
/// at once, and it is deliberately *not* allow-able: a point name is a
/// public contract between the code, the registry, and the chaos
/// matrix, so drift is never "known-good".
///
/// - every `point!("name")` call site must use a name registered in
///   `gridmtd_faults::registry::ALL` (a typo would compile into a
///   point that never fires — a chaos test that silently tests
///   nothing);
/// - every name must have at most one non-test call site (two sites
///   sharing a name cannot be faulted independently, and counters
///   conflate them);
/// - every registered name must have at least one non-test call site
///   (a stale registry entry makes the chaos matrix sweep a point that
///   no longer exists).
///
/// `files` holds `(workspace-relative path, source)` pairs as produced
/// by the runner.
#[must_use]
pub fn check_fault_points(files: &[(String, String)]) -> Vec<Finding> {
    let Some((_, registry_src)) = files.iter().find(|(p, _)| p == FAULT_REGISTRY_PATH) else {
        return Vec::new();
    };
    let mut findings = Vec::new();

    // The registry: string literals of the `ALL` array, in order.
    let registry_tokens = tokenize(registry_src);
    let registry: Vec<(String, usize)> = registry_literals(&registry_tokens);

    // Every `point!("name")` call site outside test code; the macro
    // definition itself (`macro_rules! point {`) has no `("` and never
    // matches.
    let mut uses: Vec<(String, String, usize)> = Vec::new(); // (name, file, line)
    for (path, src) in files {
        if is_test_path(path) {
            continue;
        }
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let test_lines = test_regions(&code);
        for i in 0..code.len() {
            if !(ident(code.get(i), "point")
                && punct(code.get(i + 1), "!")
                && punct(code.get(i + 2), "("))
            {
                continue;
            }
            let Some(arg) = code.get(i + 3).filter(|t| t.kind == TokenKind::Str) else {
                continue;
            };
            let line = arg.line;
            if test_lines
                .iter()
                .any(|&(start, end)| (start..=end).contains(&line))
            {
                continue;
            }
            let name = arg.text.trim_matches('"').to_string();
            uses.push((name, path.clone(), line));
        }
    }

    for (name, file, line) in &uses {
        if !registry.iter().any(|(n, _)| n == name) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                rule: FAULT_POINT,
                message: format!(
                    "injection point `{name}` is not in gridmtd_faults::registry::ALL"
                ),
                hint: "register the name in crates/faults/src/registry.rs (sorted) so the chaos matrix and `gridmtd chaos` exercise it",
            });
        }
        let first = uses.iter().find(|(n, _, _)| n == name);
        if first.is_some_and(|(_, f, l)| (f, l) != (file, line)) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                rule: FAULT_POINT,
                message: format!("injection point `{name}` already fires at another call site"),
                hint: "give each fragile boundary its own registered name; shared names cannot be faulted independently",
            });
        }
    }
    for (name, line) in &registry {
        if !uses.iter().any(|(n, _, _)| n == name) {
            findings.push(Finding {
                file: FAULT_REGISTRY_PATH.to_string(),
                line: *line,
                rule: FAULT_POINT,
                message: format!("registered point `{name}` has no point! call site"),
                hint: "remove the stale registry entry or add the missing gridmtd_faults::point!(...) guard",
            });
        }
    }
    findings
}

const FAULT_POINT: &str = "fault-point";

/// The `(literal, line)` entries of `registry::ALL`: string tokens
/// between the `ALL` identifier's `[` and its matching `]`.
fn registry_literals(tokens: &[Token]) -> Vec<(String, usize)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let Some(all) = code
        .iter()
        .position(|t| t.kind == TokenKind::Ident && t.text == "ALL")
    else {
        return Vec::new();
    };
    // Skip the `: &[&str]` type annotation — the literal starts after
    // the `=`.
    let Some(eq) = (all..code.len()).find(|&i| code[i].text == "=") else {
        return Vec::new();
    };
    let Some(open) = (eq..code.len()).find(|&i| code[i].text == "[") else {
        return Vec::new();
    };
    code[open..]
        .iter()
        .take_while(|t| t.text != "]")
        .filter(|t| t.kind == TokenKind::Str)
        .map(|t| (t.text.trim_matches('"').to_string(), t.line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_source(path, src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn prod(m: &Mutex<u8>) { m.lock().unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(m: &Mutex<u8>) { m.lock().unwrap(); }\n\
                   }\n";
        assert_eq!(rules_fired("crates/x/src/a.rs", src), [("lock-unwrap", 1)]);
    }

    #[test]
    fn test_attribute_functions_are_exempt() {
        let src = "#[test]\n\
                   fn t(m: &Mutex<u8>) { m.lock().unwrap(); }\n\
                   fn prod(m: &Mutex<u8>) { m.lock().expect(\"x\"); }\n";
        assert_eq!(rules_fired("crates/x/src/a.rs", src), [("lock-unwrap", 3)]);
    }

    #[test]
    fn tests_directories_are_exempt_wholesale() {
        let src = "fn t(m: &Mutex<u8>) { m.lock().unwrap(); }\n";
        assert!(rules_fired("crates/x/tests/a.rs", src).is_empty());
        assert!(rules_fired("tests/a.rs", src).is_empty());
        assert_eq!(rules_fired("crates/x/src/a.rs", src), [("lock-unwrap", 1)]);
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "// gridmtd-lint: allow(lock-unwrap) -- demo helper recovers poison upstream\n\
                   fn f(m: &Mutex<u8>) { m.lock().unwrap(); }\n\
                   fn g(m: &Mutex<u8>) { m.lock().unwrap(); }\n";
        assert_eq!(rules_fired("crates/x/src/a.rs", src), [("lock-unwrap", 3)]);
    }

    #[test]
    fn allow_without_reason_is_its_own_finding() {
        let src = "// gridmtd-lint: allow(lock-unwrap)\n\
                   fn f(m: &Mutex<u8>) { m.lock().unwrap(); }\n";
        assert_eq!(
            rules_fired("crates/x/src/a.rs", src),
            [("bad-allow", 1), ("lock-unwrap", 2)]
        );
    }

    #[test]
    fn allow_naming_unknown_rule_is_flagged() {
        let src = "// gridmtd-lint: allow(made-up-rule) -- because\nfn f() {}\n";
        assert_eq!(rules_fired("crates/x/src/a.rs", src), [("bad-allow", 1)]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "const S: &str = \".lock().unwrap()\";\n\
                   // a comment mentioning m.lock().unwrap() and HashMap.iter()\n\
                   /* SystemTime in a block comment */\n";
        assert!(rules_fired("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn hash_bindings_behind_references_are_tracked() {
        let src = "fn f(scores: &HashMap<String, f64>) -> Vec<String> {\n\
                       scores.keys().cloned().collect()\n\
                   }\n\
                   fn g(live: &mut HashSet<u64>) { live.retain(|&k| k > 0); }\n";
        assert_eq!(
            rules_fired("crates/x/src/a.rs", src),
            [("unordered-iter", 2), ("unordered-iter", 4)]
        );
    }

    fn fault_files(points: &[(&str, &str)], registry: &[&str]) -> Vec<(String, String)> {
        let mut files: Vec<(String, String)> = points
            .iter()
            .map(|(path, body)| ((*path).to_string(), (*body).to_string()))
            .collect();
        let literals = registry
            .iter()
            .map(|n| format!("    \"{n}\",\n"))
            .collect::<String>();
        files.push((
            super::FAULT_REGISTRY_PATH.to_string(),
            format!("pub const ALL: &[&str] = &[\n{literals}];\n"),
        ));
        files
    }

    #[test]
    fn fault_points_clean_when_registry_and_sites_agree() {
        let files = fault_files(
            &[(
                "crates/x/src/a.rs",
                "fn f() { if gridmtd_faults::point!(\"x.a.boom\") { } }\n",
            )],
            &["x.a.boom"],
        );
        assert!(check_fault_points(&files).is_empty());
    }

    #[test]
    fn fault_points_flag_unregistered_duplicate_and_stale() {
        let files = fault_files(
            &[
                (
                    "crates/x/src/a.rs",
                    "fn f() { if gridmtd_faults::point!(\"x.a.typo\") { } }\n\
                     fn g() { if gridmtd_faults::point!(\"x.a.boom\") { } }\n",
                ),
                (
                    "crates/x/src/b.rs",
                    "fn h() { if gridmtd_faults::point!(\"x.a.boom\") { } }\n",
                ),
            ],
            &["x.a.boom", "x.a.stale"],
        );
        let fired: Vec<(String, usize, String)> = check_fault_points(&files)
            .into_iter()
            .map(|f| (f.file, f.line, f.message))
            .collect();
        assert_eq!(fired.len(), 3, "{fired:?}");
        assert!(fired
            .iter()
            .any(|(f, l, m)| f == "crates/x/src/a.rs" && *l == 1 && m.contains("not in")));
        assert!(fired.iter().any(|(f, l, m)| f == "crates/x/src/b.rs"
            && *l == 1
            && m.contains("another call site")));
        assert!(fired
            .iter()
            .any(|(f, _, m)| f == super::FAULT_REGISTRY_PATH && m.contains("x.a.stale")));
    }

    #[test]
    fn fault_points_ignore_test_code_and_missing_registry() {
        // point! uses in tests directories or #[cfg(test)] regions are
        // harness plumbing, not injection sites.
        let files = fault_files(
            &[
                ("crates/x/src/a.rs", "fn f() { if gridmtd_faults::point!(\"x.a.boom\") { } }\n"),
                ("crates/x/tests/t.rs", "fn t() { let _ = gridmtd_faults::point!(\"x.a.boom\"); }\n"),
                (
                    "crates/x/src/c.rs",
                    "#[cfg(test)]\nmod tests {\n    fn t() { let _ = gridmtd_faults::point!(\"x.a.boom\"); }\n}\n",
                ),
            ],
            &["x.a.boom"],
        );
        assert!(check_fault_points(&files).is_empty());
        // No registry in the file set (sub-tree run): pass is a no-op.
        let orphan = vec![(
            "crates/x/src/a.rs".to_string(),
            "fn f() { if gridmtd_faults::point!(\"no.such.name\") { } }\n".to_string(),
        )];
        assert!(check_fault_points(&orphan).is_empty());
    }

    #[test]
    fn seedstream_module_is_exempt_from_seed_mix() {
        let src = "pub fn mix(seed: u64, t: u64) -> u64 { seed ^ t }\n";
        assert!(rules_fired("crates/core/src/seedstream.rs", src).is_empty());
        assert_eq!(
            rules_fired("crates/core/src/other.rs", src),
            [("raw-seed-mix", 1)]
        );
    }
}
