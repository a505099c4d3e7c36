#!/usr/bin/env python3
"""sf_lint.py — repo-specific determinism and hot-path invariant linter.

The simulator's load-bearing invariants (bit-identical results for every
SF_THREADS value and every team size the point scheduler hands a point, and under every forced
distance oracle, zero steady-state heap allocations in
Network::step(), per-endpoint/per-router PCG32 streams) are enforced dynamically by the golden byte-equality tests
and the allocator-counting hotpath_test. This linter enforces the *static*
side of the same contract — classes of bug the stock tools cannot express.
Rules (full rationale in docs/CORRECTNESS.md):

  rng            No global/platform RNG or wall-clock source outside
                 util/rng.hpp: rand()/srand()/std::mt19937/
                 std::random_device/time()/std::chrono::*_clock::now()
                 would silently break the RNG-stream discipline.
  hot-alloc      No allocating construct inside a function annotated
                 /* SF_HOT */ (the Network::step() call graph): new/malloc,
                 allocating container calls (push_back, resize, insert, …),
                 std::string construction, std::vector construction.
                 Throw statements are exempt (an exception is by definition
                 off the steady-state path).
  unordered-iter No iteration over std::unordered_map/std::unordered_set in
                 code that feeds point_seed, stats, or trajectory output
                 (src/sim, src/exp, src/analysis): hash-table iteration
                 order is an implementation detail, and double accumulation
                 in that order is platform-dependent.
  stoi           No stoi/atoi-family parsing outside the vetted readers
                 (util/spec.hpp's spec::read_integer and friends; stoi
                 accepts signs, whitespace, 0x, and silently truncates).
  float-stats    No `float` anywhere in src/: statistics must accumulate in
                 double or integer counters (float would quantize latency
                 sums long before the golden harness could notice).

Waivers, both requiring a justification:
  * inline:      <code>  // sf-lint: allow(<rule>) <why>
  * central:     scripts/sf_lint_allow.txt lines of the form
                 rule|path|line-substring|why
    Unused central entries are hard errors, so the allowlist can never go
    stale.

Exit status: 0 clean, 1 findings (printed as file:line: [rule] message),
2 internal/usage error. `--self-test` runs the checker over
tests/lint_fixtures/ and verifies every rule fires on its violating
fixture and stays silent on the clean twin.

Implementation: tokenizer + regex with scope awareness (comments and
string/char literals are blanked preserving offsets; SF_HOT function
extents and throw statements are found by brace/semicolon tracking).
libclang is NOT required — this must run anywhere CI can run python3.
"""

import argparse
import pathlib
import re
import sys

HOT_MARKER = "/* SF_HOT */"
ALLOW_RE = re.compile(r"//\s*sf-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# ---------------------------------------------------------------------------
# Tokenizer: blank comments and string/char literals, preserving offsets.
# ---------------------------------------------------------------------------


def strip_code(text):
    """Returns `text` with comments and string/char literal *contents*
    replaced by spaces (newlines kept), so rule regexes only ever match
    real code tokens at their original offsets."""
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and nxt == "*":
            j = i
            end = text.find("*/", i + 2)
            stop = n if end < 0 else end + 2
            while j < stop:
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            i = stop
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    out[j] = " "
                    if j + 1 < n and text[j + 1] != "\n":
                        out[j + 1] = " "
                    j += 2
                    continue
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_starts(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def line_of(offset, starts):
    """1-based line number of a character offset (binary search)."""
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def hot_regions(text, stripped):
    """[(start, end)] character ranges of function bodies annotated with
    /* SF_HOT */ (marker anywhere before the signature; the region is the
    brace-balanced body that follows)."""
    regions = []
    pos = 0
    while True:
        at = text.find(HOT_MARKER, pos)
        if at < 0:
            break
        pos = at + len(HOT_MARKER)
        open_brace = stripped.find("{", pos)
        if open_brace < 0:
            break
        depth = 0
        end = None
        for i in range(open_brace, len(stripped)):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i + 1
                    break
        if end is None:
            end = len(stripped)
        regions.append((at, end))
        pos = end
    return regions


def throw_ranges(stripped):
    """Character ranges of `throw …;` statements (hot-alloc exempts them:
    constructing an exception message allocates, and exceptions are by
    definition off the steady-state path)."""
    ranges = []
    for m in re.finditer(r"\bthrow\b", stripped):
        depth = 0
        end = len(stripped)
        for i in range(m.end(), len(stripped)):
            c = stripped[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == ";" and depth <= 0:
                end = i + 1
                break
        ranges.append((m.start(), end))
    return ranges


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"\b(?:std::)?(?:rand|srand|rand_r|drand48|srand48|lrand48|"
                r"mrand48|random)\s*\("),
     "global C RNG (use util/rng.hpp streams)"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic (use util/rng.hpp streams)"),
    (re.compile(r"\bstd::(?:mt19937|mt19937_64|minstd_rand0?|ranlux\w+|"
                r"knuth_b|default_random_engine)\b"),
     "std <random> engine (use util/rng.hpp streams)"),
    (re.compile(r"\bstd::(?:uniform_int_distribution|"
                r"uniform_real_distribution|bernoulli_distribution|"
                r"normal_distribution)\b"),
     "std <random> distribution (platform-varying; use Rng helpers)"),
    (re.compile(r"\b(?:std::)?time\s*\("),
     "wall clock (results must not depend on time)"),
    # Any X::now() call — catches chrono clocks reached through type
    # aliases (`using clock = std::chrono::steady_clock; clock::now()`).
    (re.compile(r"\b[\w:]+::now\s*\("),
     "wall clock (only whitelisted timing sites may read it)"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|getentropy)\s*\("),
     "platform clock/entropy source"),
]

HOT_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new in SF_HOT function"),
    (re.compile(r"\b(?:std::)?(?:malloc|calloc|realloc)\s*\("),
     "heap allocation in SF_HOT function"),
    (re.compile(r"\bmake_(?:unique|shared)\b"),
     "heap allocation in SF_HOT function"),
    (re.compile(r"\.(?:push_back|emplace_back|emplace|resize|reserve|assign|"
                r"insert|shrink_to_fit)\s*\("),
     "allocating container call in SF_HOT function"),
    (re.compile(r"\bstd::(?:string\b|to_string\b)"),
     "std::string churn in SF_HOT function"),
    (re.compile(r"\bstd::vector\s*<"),
     "std::vector construction in SF_HOT function"),
]

STOI_PATTERN = re.compile(
    r"\b(?:std::)?(?:stoi|stol|stoll|stoul|stoull|atoi|atol|atoll|strtol|"
    r"strtoll|strtoul|strtoull|sscanf)\s*\(")

FLOAT_PATTERN = re.compile(r"\bfloat\b")

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s+(\w+)\s*"
    r"[;({=]", re.S)

# Directories whose code feeds point_seed, stats, or trajectory output.
UNORDERED_SCOPE = ("src/sim/", "src/exp/", "src/analysis/")

# The one file allowed to touch RNG machinery.
RNG_HOME = "src/util/rng.hpp"


class Finding:
    def __init__(self, path, line, rule, message, text):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.text = text

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def inline_waivers(raw_lines):
    """line -> (rule, justification) for `// sf-lint: allow(rule) why`."""
    waivers = {}
    for i, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            waivers[i] = (m.group(1), m.group(2).strip())
    return waivers


def lint_file(path, rel, all_rules=False):
    """Returns (findings, errors). `rel` is the posix path used in scoping
    and diagnostics; `all_rules` disables path-based rule scoping (used by
    the fixture self-test)."""
    text = path.read_text()
    stripped = strip_code(text)
    starts = line_starts(stripped)
    raw_lines = text.split("\n")
    waivers = inline_waivers(raw_lines)
    findings = []
    errors = []

    def emit(offset, rule, message):
        ln = line_of(offset, starts)
        waiver = waivers.get(ln)
        if waiver and waiver[0] == rule:
            if not waiver[1]:
                errors.append(f"{rel}:{ln}: sf-lint allow({rule}) waiver "
                              "has no justification")
            return
        findings.append(Finding(rel, ln, rule, message,
                                raw_lines[ln - 1].strip()))

    # rng — everywhere except the RNG home itself.
    if all_rules or rel != RNG_HOME:
        for pattern, message in RNG_PATTERNS:
            for m in pattern.finditer(stripped):
                emit(m.start(), "rng", message)

    # hot-alloc — inside /* SF_HOT */ bodies, minus throw statements.
    regions = hot_regions(text, stripped)
    if regions:
        throws = throw_ranges(stripped)
        # Receivers with fixed-capacity storage are exempt from the
        # container-call patterns: anything declared InlinePath in this
        # file, plus the conventional `path` member/local (Packet::path is
        # an InlinePath). push_back on these writes a preallocated slot —
        # overflow throws, never allocates.
        # LazyRing<...> receivers are exempt too: their logical capacity is
        # fixed at wire() (overflow throws) and physical growth is the
        # sanctioned pool-backed settling path — it draws
        # slabs from the preloaded SlabPool and stops at the high-water
        # mark, with the dynamic zero-steady-state-allocation guarantee
        # enforced by tests/hotpath_test.cpp.
        # GrowRing is deliberately NOT exempt: its amortized growth is
        # allowed at exactly one audited site (the endpoint source queue),
        # which carries an explicit waiver.
        fixed_cap = set(re.findall(r"\bInlinePath\b[&\s]*(\w+)", stripped))
        fixed_cap.update(
            re.findall(r"\bLazyRing\s*<[^;{}>]*>\s*&?\s*(\w+)",
                       stripped))
        fixed_cap.add("path")

        def in_throw(offset):
            return any(s <= offset < e for s, e in throws)

        def receiver_of(offset):
            m = re.search(r"([A-Za-z_]\w*)$", stripped[:offset])
            return m.group(1) if m else ""

        for start, end in regions:
            segment = stripped[start:end]
            for pattern, message in HOT_ALLOC_PATTERNS:
                for m in pattern.finditer(segment):
                    at = start + m.start()
                    if in_throw(at):
                        continue
                    if (segment[m.start()] == "."
                            and receiver_of(at) in fixed_cap):
                        continue
                    # std::vector<T>& / <T>* is a reference to existing
                    # storage, not a construction.
                    if m.group(0).startswith("std::vector"):
                        depth = 0
                        tail = ""
                        for c in segment[m.end() - 1:]:
                            if c == "<":
                                depth += 1
                            elif c == ">":
                                depth -= 1
                                if depth == 0:
                                    continue
                            elif depth == 0 and not c.isspace():
                                tail = c
                                break
                        if tail in ("&", "*"):
                            continue
                    emit(at, "hot-alloc", message)

    # unordered-iter — only where hash order could reach output.
    if all_rules or rel.startswith(UNORDERED_SCOPE):
        names = set(UNORDERED_DECL.findall(stripped))
        for name in sorted(names):
            iter_patterns = [
                re.compile(r"for\s*\([^;)]*:\s*" + re.escape(name) + r"\b"),
                # .end()/.cend() alone is a lookup sentinel (it != m.end()),
                # not traversal — only begin-family calls indicate iteration.
                re.compile(r"\b" + re.escape(name) +
                           r"\.(?:begin|cbegin|rbegin|crbegin)\s*\("),
            ]
            for pattern in iter_patterns:
                for m in pattern.finditer(stripped):
                    emit(m.start(), "unordered-iter",
                         f"iteration over unordered container '{name}' "
                         "(hash order is nondeterministic)")

    # stoi — everywhere (the vetted helpers live in the allowlist).
    for m in STOI_PATTERN.finditer(stripped):
        emit(m.start(), "stoi",
             "stoi/atoi-family parsing (use the vetted readers in "
             "util/spec.hpp)")

    # float-stats — everywhere.
    for m in FLOAT_PATTERN.finditer(stripped):
        emit(m.start(), "float-stats",
             "float arithmetic (stats must accumulate in double or "
             "integer counters)")

    return findings, errors


# ---------------------------------------------------------------------------
# Central allowlist
# ---------------------------------------------------------------------------


def load_allowlist(path):
    entries = []
    if not path.exists():
        return entries
    for i, line in enumerate(path.read_text().split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 4 or not all(p.strip() for p in parts):
            raise SystemExit(f"{path}:{i}: allowlist entries are "
                             "rule|path|line-substring|why (4 non-empty "
                             "fields)")
        entries.append({"rule": parts[0].strip(), "path": parts[1].strip(),
                        "substr": parts[2].strip(), "why": parts[3].strip(),
                        "where": f"{path}:{i}", "used": False})
    return entries


def apply_allowlist(findings, entries):
    kept = []
    for f in findings:
        waived = False
        for e in entries:
            if (e["rule"] == f.rule and e["path"] == f.path
                    and e["substr"] in f.text):
                e["used"] = True
                waived = True
                break
        if not waived:
            kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def scan_tree(root, allowlist_path):
    files = sorted(root.glob("src/**/*.hpp")) + sorted(root.glob("src/**/*.cpp"))
    if not files:
        print(f"sf_lint: no sources under {root}/src", file=sys.stderr)
        return 2
    entries = load_allowlist(allowlist_path)
    all_findings = []
    all_errors = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        findings, errors = lint_file(path, rel)
        all_findings.extend(findings)
        all_errors.extend(errors)
    all_findings = apply_allowlist(all_findings, entries)
    for e in entries:
        if not e["used"]:
            all_errors.append(f"{e['where']}: stale allowlist entry "
                              f"({e['rule']}|{e['path']}|{e['substr']}) — "
                              "nothing matches it; delete it")
    for f in all_findings:
        print(f)
    for e in all_errors:
        print(e)
    if all_findings or all_errors:
        print(f"sf_lint: {len(all_findings)} finding(s), "
              f"{len(all_errors)} error(s) over {len(files)} files")
        return 1
    print(f"sf_lint: clean ({len(files)} files)")
    return 0


def self_test(root):
    fixtures = root / "tests" / "lint_fixtures"
    rules = ["rng", "hot-alloc", "unordered-iter", "stoi", "float-stats"]
    failures = []
    for rule in rules:
        stem = rule.replace("-", "_")
        violating = fixtures / f"{stem}_violation.cpp"
        clean = fixtures / f"{stem}_clean.cpp"
        for fixture in (violating, clean):
            if not fixture.exists():
                failures.append(f"missing fixture {fixture}")
        if failures:
            continue
        v_findings, v_errors = lint_file(
            violating, violating.relative_to(root).as_posix(), all_rules=True)
        fired = {f.rule for f in v_findings}
        if rule not in fired:
            failures.append(f"{violating.name}: rule {rule} did not fire")
        if fired - {rule}:
            failures.append(f"{violating.name}: unexpected rules fired: "
                            f"{sorted(fired - {rule})}")
        c_findings, c_errors = lint_file(
            clean, clean.relative_to(root).as_posix(), all_rules=True)
        if c_findings:
            failures.append(f"{clean.name}: should be clean but got: " +
                            "; ".join(str(f) for f in c_findings))
        for err in v_errors + c_errors:
            failures.append(err)
    # The waiver fixture: a violation with an inline justification must pass,
    # one with an empty justification must error.
    waived = fixtures / "waiver_ok.cpp"
    if waived.exists():
        findings, errors = lint_file(
            waived, waived.relative_to(root).as_posix(), all_rules=True)
        if findings or errors:
            failures.append(f"{waived.name}: inline waiver did not suppress: "
                            + "; ".join(map(str, findings + errors)))
    unjustified = fixtures / "waiver_unjustified.cpp"
    if unjustified.exists():
        findings, errors = lint_file(
            unjustified, unjustified.relative_to(root).as_posix(),
            all_rules=True)
        if not errors:
            failures.append(f"{unjustified.name}: empty waiver justification "
                            "was not rejected")
    if failures:
        for f in failures:
            print(f"sf_lint self-test FAIL: {f}")
        return 1
    print(f"sf_lint self-test: all {len(rules)} rules fire on their "
          "violating fixture and stay silent on the clean twin")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Slim Fly repo determinism/hot-path linter "
                    "(rules: docs/CORRECTNESS.md)")
    default_root = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("--root", default=str(default_root),
                        help="repository root (default: the repo containing "
                             "this script, so invocation cwd never matters)")
    parser.add_argument("--allowlist", default=None,
                        help="central allowlist "
                             "(default: <root>/scripts/sf_lint_allow.txt)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule against tests/lint_fixtures/")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    if args.self_test:
        return self_test(root)
    allowlist = (pathlib.Path(args.allowlist) if args.allowlist
                 else root / "scripts" / "sf_lint_allow.txt")
    return scan_tree(root, allowlist)


if __name__ == "__main__":
    sys.exit(main())
