#!/usr/bin/env python3
"""PpfsAnalyze — scope-aware static analysis for the ppfs simulator tree.

The original ppfs_lint was six single-line regex rules. This pass is a
real analyzer: a comment/string/raw-string-aware lexer feeds a
brace-scope tracker that classifies every scope as namespace / class /
function / lambda / control block, identifies coroutine bodies (Task<>
return type or co_await/co_yield in the direct body), and records lambda
capture lists and parameter lists. All rules run on that structure, so
multi-line `spawn(\n  [&] ...)` lambdas, nested captures, and
trailing-return-type coroutines are all seen.

Rule catalog (ten classes):

  discarded-task       A statement that calls a Task<...>-returning
                       function and drops the result. The Task destructor
                       destroys a never-started frame, so the operation
                       silently does not happen.

  spawn-ref-capture    A lambda anywhere inside a spawn(...) argument list
                       that captures by reference (or [=]/this). The
                       lambda object dies when spawn() returns; every
                       capture dangles after the first co_await. Repo
                       idiom: empty capture list with explicit parameters,
                       spawn([](T arg) -> Task<void> {...}(arg)).

  co-await-temporary   `co_await SomeType{...}` / `co_await SomeType(...)`
                       constructing an awaitable inline instead of via an
                       owning primitive's factory (sim.delay, res.acquire,
                       ev.wait).

  hot-path-std-function
                       std::function<...> in a sim/ or trace/ source — the
                       kernel hot path uses sim::SmallFn (inline storage,
                       trivially relocatable, arena-boxed overflow).

  mesh-hot-path-alloc  A heap container declared in a coroutine body in a
                       mesh source (hw/mesh.*): the per-message send path
                       is allocation-free by design (path table +
                       sim::InlineVec).

  trace-hot-path-alloc A heap container or std stream type in a hot
                       TraceScope header (trace/record|sink|span.*): these
                       are inlined into the kernel dispatch loop; records
                       stay POD, growth/formatting live in the cold .cpp.

  det-unsafe-source    [NEW] A nondeterminism source in a digest-affecting
                       directory (sim/, hw/, pfs/, prefetch/): wall-clock
                       reads (system_clock/steady_clock/...), ambient
                       randomness (rand, random_device — use sim::Rng),
                       unordered containers (iteration order is
                       implementation-defined), or pointer/smart-pointer
                       keyed ordered containers (iteration order depends
                       on allocation addresses). Any of these reaching the
                       event stream breaks bit-identical replay.

  sweep-shared-state   [NEW] Mutable state with static storage duration in
                       scenario-reachable code (sim/ hw/ pfs/ ufs/
                       prefetch/ workload/ fault/ trace/ exp/): namespace-
                       scope variables, static data members, or function-
                       local statics that are not const/constexpr/
                       thread_local. Parallel sweeps (--jobs) run
                       scenarios on a thread pool; any such state races
                       across workers and silently couples scenarios.

  ref-across-await     [NEW] A coroutine that holds a reference past a
                       suspension point: a by-reference (or this) lambda
                       capture, a reference parameter of a coroutine
                       lambda, or an rvalue-reference parameter of any
                       coroutine, used after the first co_await (or used
                       inside a loop containing one). The frame stores
                       only the reference; the referent must outlive every
                       suspension. Lvalue-reference parameters of *named*
                       coroutines are exempt — binding long-lived
                       subsystem objects (Simulation&, Disk&) is the
                       codebase's core idiom and the call sites own those
                       lifetimes.

  hot-region-alloc     [NEW] Allocation inside an annotated hot region:
                       `// ppfs::hot` ... `// ppfs::endhot` marks a region
                       (any file) where heap containers, std::function,
                       std streams, and non-placement `new` are banned.
                       This generalizes the three per-subsystem allocation
                       rules to any code the author declares hot.

  per-node-state       [NEW] A std::map / std::unordered_map keyed by
                       NodeId inside a // ppfs::hot region. Per-node
                       simulation state on a hot path belongs in a
                       sim::ShardArena indexed by node id: node ids are
                       dense [0, node_count), so a hash or tree lookup
                       per event pays pointer-chasing and allocator
                       traffic for nothing — the arena is contiguous,
                       cache-local, and allocation-free after reserve().

  token-state          [NEW] The TokenWrite grant-table state mutated
                       outside its owning subsystem. Each piece of token
                       state has exactly one writer: the manager's grant
                       table (write_granted_bytes_) in src/pfs/token.*,
                       the client's cached holdings (held_tokens_) in
                       src/pfs/client.*, and the SimCheck conservation
                       ledger (token_grants_, token_granted_bytes_) in
                       src/sim/check/audit.*. A mutation anywhere else —
                       assignment, compound assignment, increment, or a
                       mutating container call — bypasses the
                       flush-before-ack protocol and the conservation
                       audit that shadow every legitimate update.

Suppressions: `// ppfs-lint: allow(<rule>[, <rule>...])` on the finding's
line or the line above suppresses it (counted and reported separately).
Every suppression in the production tree must carry an inline
justification.

Usage:
    ppfs_lint.py [options] <dir-or-file>...
      --exclude PATH          prune a subtree (repeatable)
      --format {text,json}    json emits a machine-readable report
      --expect-violations N   invert: succeed only when >= N violations
                              are found AND every rule class fires
      --expect RULE=N         exact per-rule count (repeatable)

Exit status: 0 clean / expectations met; 1 violations / expectations
unmet; 2 usage errors — including a scan path that does not exist or
matches zero C++ sources.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}
HEADER_SUFFIXES = {".hpp", ".h", ".hh"}

ALL_RULES = [
    "discarded-task",
    "spawn-ref-capture",
    "co-await-temporary",
    "hot-path-std-function",
    "mesh-hot-path-alloc",
    "trace-hot-path-alloc",
    "det-unsafe-source",
    "sweep-shared-state",
    "ref-across-await",
    "hot-region-alloc",
    "per-node-state",
    "token-state",
]

# Task-returning names too generic to lint without type information.
AMBIGUOUS_NAMES = {"write", "read", "open", "wait", "get"}

HEAP_CONTAINERS = {"vector", "deque", "map", "unordered_map", "unordered_set",
                   "set", "list", "string"}
STREAM_TYPES = {"ostringstream", "stringstream", "ostream", "ofstream"}

DET_DIRS = {"sim", "hw", "pfs", "prefetch"}
SWEEP_DIRS = {"sim", "hw", "pfs", "ufs", "prefetch", "workload", "fault",
              "trace", "exp"}
WALLCLOCK_IDS = {"system_clock", "steady_clock", "high_resolution_clock",
                 "gettimeofday", "clock_gettime", "timespec_get"}
RAND_CALL_IDS = {"rand", "srand", "rand_r", "drand48", "lrand48"}
UNORDERED_IDS = {"unordered_map", "unordered_set", "unordered_multimap",
                 "unordered_multiset"}
ORDERED_IDS = {"map", "set", "multimap", "multiset"}

RAW_PREFIXES = ("R", "u8R", "uR", "LR", "UR")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # "id" | "num" | "str" | "chr" | "punct"
    text: str
    line: int


ALLOW_RE = re.compile(r"ppfs-lint:\s*allow\(\s*([a-z0-9_,\s-]+?)\s*\)")
# File-scope suppression for a rule whose (safe) trigger idiom saturates a
# file — e.g. test drivers that block in sim.run() while spawn-lambda ref
# params point at stack state. Stored under line key -1, which no per-line
# lookup can reach. Justification prose after the ")" is expected.
ALLOW_FILE_RE = re.compile(r"ppfs-lint:\s*allow-file\(\s*([a-z0-9_,\s-]+?)\s*\)")
# Region markers must LEAD the comment (`// ppfs::hot — optional prose`)
# so documentation that merely mentions the markers doesn't open regions.
HOT_RE = re.compile(r"^//\s*ppfs::hot\b")
ENDHOT_RE = re.compile(r"^//\s*ppfs::endhot\b")


def _scan_directives(comment: str, line: int, allow: dict, hot_marks: list) -> None:
    m = ALLOW_FILE_RE.search(comment)
    if m:
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allow.setdefault(-1, set()).update(rules)
    m = ALLOW_RE.search(comment)
    if m:
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allow.setdefault(line, set()).update(rules)
    if ENDHOT_RE.match(comment):
        hot_marks.append((line, "endhot"))
    elif HOT_RE.match(comment):
        hot_marks.append((line, "hot"))


def lex(text: str):
    """Tokenize C++ source. Returns (tokens, allow-directives, hot-marks).

    Comments are consumed (scanned for directives), string/char literals
    become single tokens — including raw strings R"delim(...)delim", whose
    bodies must never desync the lexer — and preprocessor directive lines
    (with backslash continuations) are skipped entirely so rule logic only
    ever sees real statements.
    """
    toks: list[Tok] = []
    allow: dict[int, set] = {}
    hot_marks: list = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: skip to end of line, honoring
            # backslash continuations (and not ending inside a comment).
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                seg = text[i:j].rstrip()
                line += 1
                i = j + 1
                if not seg.endswith("\\"):
                    break
            at_line_start = True
            continue
        at_line_start = False
        if c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            _scan_directives(text[i:j], line, allow, hot_marks)
            i = j
        elif c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comment = text[i:j]
            _scan_directives(comment, line, allow, hot_marks)
            line += comment.count("\n")
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("str", text[i:j], line))
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("chr", text[i:j], line))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if j < n and text[j] == '"' and word in RAW_PREFIXES:
                # Raw string literal: R"delim( ... )delim"
                k = text.find("(", j + 1)
                if k == -1 or k - (j + 1) > 16:
                    toks.append(Tok("id", word, line))
                    i = j
                    continue
                delim = text[j + 1:k]
                close = ")" + delim + '"'
                end = text.find(close, k + 1)
                end = n if end == -1 else end + len(close)
                lit = text[i:end]
                toks.append(Tok("str", lit, line))
                line += lit.count("\n")
                i = end
            else:
                toks.append(Tok("id", word, line))
                i = j
        elif c.isdigit():
            j = i + 1
            while j < n:
                ch = text[j]
                if ch.isalnum() or ch in "._":
                    j += 1
                elif ch == "'" and j + 1 < n and text[j + 1].isalnum():
                    j += 2
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            toks.append(Tok("num", text[i:j], line))
            i = j
        else:
            two = text[i:i + 2]
            if two in ("::", "->", "&&"):
                toks.append(Tok("punct", two, line))
                i += 2
            else:
                toks.append(Tok("punct", c, line))
                i += 1
    return toks, allow, hot_marks


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets.

    Raw string literals (R"delim(...)delim" and u8R/uR/LR/UR prefixes) are
    handled: their bodies — which may contain unbalanced quotes, braces,
    comment markers, anything — are blanked without desyncing the scan.
    Kept as a standalone utility (and regression-tested in the selftest);
    the analyzer itself runs on the lexer above.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            # Raw string? Look back for an R-prefix glued to this quote.
            is_raw = False
            if c == '"':
                for pfx in RAW_PREFIXES:
                    s = i - len(pfx)
                    if s >= 0 and text[s:i] == pfx and (
                            s == 0 or not (text[s - 1].isalnum() or text[s - 1] == "_")):
                        is_raw = True
                        break
            if is_raw:
                k = text.find("(", i + 1)
                if k == -1 or k - (i + 1) > 16:
                    out.append(c)
                    i += 1
                    continue
                delim = text[i + 1:k]
                close = ")" + delim + '"'
                end = text.find(close, k + 1)
                end = n if end == -1 else end + len(close)
                out.append('"' + "".join(
                    ch if ch == "\n" else " " for ch in text[i + 1:end - 1]) +
                    ('"' if end <= n and end - i >= 2 else ""))
                i = end
            else:
                j = i + 1
                while j < n and text[j] != c:
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
                i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Scope tracker
# ---------------------------------------------------------------------------

@dataclass
class Scope:
    kind: str            # file namespace class function lambda control block init
    open: int            # token index of '{' (-1 for file)
    close: int = -1      # token index of matching '}'
    parent: object = None
    name: str = ""
    params: tuple | None = None    # interior token range of (...), exclusive
    captures: tuple | None = None  # interior token range of [...], exclusive
    ret_task: bool = False
    ctrl: str = ""
    children: list = field(default_factory=list)


CONTROL_KW = {"if", "for", "while", "switch", "catch"}
CVQ = {"const", "noexcept", "mutable", "override", "final"}


def _match_back(toks, idx, close_t, open_t):
    depth = 0
    j = idx
    while j >= 0:
        t = toks[j].text
        if t == close_t:
            depth += 1
        elif t == open_t:
            depth -= 1
            if depth == 0:
                return j
        j -= 1
    return -1


def match_fwd(toks, idx, open_t, close_t, limit=None):
    depth = 0
    j = idx
    end = len(toks) if limit is None else min(len(toks), idx + limit)
    while j < end:
        t = toks[j].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return j
        j += 1
    return -1


def _ret_segment_has_task(toks, idx) -> bool:
    """Scan back from `idx` to the previous statement boundary collecting
    return-type identifiers; True when 'Task' is among them."""
    j = idx
    steps = 0
    while j >= 0 and steps < 64:
        t = toks[j]
        if t.text in (";", "{", "}", ")", "(", "]"):
            break
        if t.kind == "id" and t.text == "Task":
            return True
        j -= 1
        steps += 1
    return False


def _classify_brace(toks, i) -> Scope:
    j = i - 1
    ret_task = False
    # Absorb a trailing return type: `) [cv] -> Type... {`.
    k = j
    tail_ids = []
    TYPEISH = {"::", "<", ">", ",", "*", "&", "&&", "..."}
    while k >= 0 and (toks[k].kind in ("id", "num") or toks[k].text in TYPEISH):
        if toks[k].kind == "id":
            tail_ids.append(toks[k].text)
        k -= 1
    if k >= 0 and toks[k].text == "->":
        m2 = k - 1
        while m2 >= 0 and toks[m2].kind == "id" and toks[m2].text in CVQ:
            m2 -= 1
        if m2 >= 0 and toks[m2].text == ")":
            ret_task = "Task" in tail_ids
            j = m2
    if toks[j].kind == "id" and toks[j].text in CVQ:
        while j >= 0 and toks[j].kind == "id" and toks[j].text in CVQ:
            j -= 1
    if j < 0:
        return Scope("block", i)
    t = toks[j]

    if t.text == ")":
        p = _match_back(toks, j, ")", "(")
        if p < 0:
            return Scope("block", i)
        params = (p + 1, j)
        a = p - 1
        if a < 0:
            return Scope("block", i)
        at = toks[a]
        if at.text == "]":
            b = _match_back(toks, a, "]", "[")
            if b > 0 and toks[b - 1].text == "[":   # [[attribute]]
                return Scope("block", i)
            return Scope("lambda", i, params=params,
                         captures=(b + 1, a) if b >= 0 else None,
                         ret_task=ret_task)
        if at.kind == "id":
            if at.text in CONTROL_KW:
                return Scope("control", i, ctrl=at.text, params=params)
            sc = Scope("function", i, name=at.text, params=params,
                       ret_task=ret_task or _ret_segment_has_task(toks, a - 1))
            return sc
        if at.text == ">":
            lt = _match_back(toks, a, ">", "<")
            if lt > 0 and toks[lt - 1].kind == "id":
                return Scope("function", i, name=toks[lt - 1].text, params=params,
                             ret_task=ret_task or _ret_segment_has_task(toks, lt - 2))
        return Scope("init", i)

    if t.text == "]":
        b = _match_back(toks, j, "]", "[")
        if b >= 0 and (b == 0 or toks[b - 1].text not in (")", "]") and
                       toks[b - 1].kind != "id"):
            return Scope("lambda", i, captures=(b + 1, j), ret_task=ret_task)
        return Scope("init", i)

    if t.kind == "id":
        if t.text == "do":
            return Scope("control", i, ctrl="do")
        if t.text in ("else", "try"):
            return Scope("control", i, ctrl=t.text)
        if t.text == "namespace":
            return Scope("namespace", i)
        # Scan back to a boundary; decide namespace/class/init.
        seg_ids = []
        k = j
        steps = 0
        while k >= 0 and steps < 64:
            tk = toks[k]
            if tk.text in (";", "{", "}", ")"):
                break
            if tk.kind == "id":
                seg_ids.append(tk.text)
            k -= 1
            steps += 1
        if "namespace" in seg_ids:
            return Scope("namespace", i, name=t.text)
        if any(w in seg_ids for w in ("class", "struct", "union", "enum")):
            return Scope("class", i, name=t.text)
        return Scope("init", i)

    return Scope("block", i)


def build_scopes(toks):
    root = Scope("file", -1, close=len(toks))
    stack = [root]
    for i, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.text == "{":
            sc = _classify_brace(toks, i)
            sc.parent = stack[-1]
            stack[-1].children.append(sc)
            stack.append(sc)
        elif t.text == "}" and len(stack) > 1:
            stack[-1].close = i
            stack.pop()
    for sc in stack[1:]:
        sc.close = len(toks)
    return root


def walk_scopes(root):
    out = []
    todo = [root]
    while todo:
        sc = todo.pop()
        out.append(sc)
        todo.extend(sc.children)
    return out


def _holes(sc, kinds):
    """Token ranges of descendants whose kind is in `kinds`, not nesting
    inside another excluded descendant."""
    out = []
    todo = list(sc.children)
    while todo:
        ch = todo.pop()
        if ch.kind in kinds:
            out.append((ch.open, ch.close))
        else:
            todo.extend(ch.children)
    return sorted(out)


def region_indices(sc, ntok, exclude_kinds):
    """Token indices inside sc, excluding descendant scopes of the given
    kinds (their braces included)."""
    lo = sc.open + 1
    hi = sc.close if sc.close >= 0 else ntok
    idxs = []
    pos = lo
    for (a, b) in _holes(sc, exclude_kinds):
        if a >= hi:
            break
        idxs.extend(range(pos, max(pos, a)))
        pos = max(pos, b + 1)
    idxs.extend(range(pos, hi))
    return idxs


FUNC_KINDS = ("function", "lambda")
ALL_KINDS = ("function", "lambda", "control", "block", "init", "class",
             "namespace")


# ---------------------------------------------------------------------------
# Per-file context and reporting
# ---------------------------------------------------------------------------

@dataclass
class FileCtx:
    path: Path
    toks: list
    allow: dict
    hot_marks: list
    root: Scope
    scopes: list


class Reporter:
    def __init__(self):
        self.findings = []
        self.suppressed = []

    def emit(self, ctx: FileCtx, line: int, rule: str, msg: str) -> None:
        entry = {"file": str(ctx.path), "line": line, "rule": rule, "message": msg}
        if rule in ctx.allow.get(line, ()) or rule in ctx.allow.get(line - 1, ()):
            entry["suppression"] = "line"
            self.suppressed.append(entry)
        elif rule in ctx.allow.get(-1, ()):
            entry["suppression"] = "file"
            self.suppressed.append(entry)
        else:
            self.findings.append(entry)


def parse_file(path: Path) -> FileCtx:
    toks, allow, hot_marks = lex(path.read_text(errors="replace"))
    root = build_scopes(toks)
    return FileCtx(path, toks, allow, hot_marks, root, walk_scopes(root))


# ---------------------------------------------------------------------------
# Vocabulary: Task-returning function names
# ---------------------------------------------------------------------------

def collect_task_decls(toks) -> set:
    names = set()
    i = 0
    n = len(toks)
    while i < n - 2:
        if toks[i].kind == "id" and toks[i].text == "Task" and toks[i + 1].text == "<":
            gt = match_fwd(toks, i + 1, "<", ">", limit=64)
            if gt > 0 and gt + 2 < n and toks[gt + 1].kind == "id" and \
                    toks[gt + 2].text == "(":
                name = toks[gt + 1].text
                if name not in AMBIGUOUS_NAMES and not name.startswith("operator"):
                    names.add(name)
                i = gt + 1
                continue
        i += 1
    return names


def collect_void_decls(toks) -> set:
    """Names this file declares with a plain `void` return.

    The Task vocabulary is a union across the whole tree, so a test bed
    declaring its own `void populate(...)` must not inherit a Task-returning
    `populate` declared elsewhere — a file-local non-Task declaration
    shadows the global name for that file only.
    """
    names = set()
    for i in range(len(toks) - 2):
        if toks[i].kind == "id" and toks[i].text == "void" and \
                toks[i + 1].kind == "id" and toks[i + 2].text == "(":
            names.add(toks[i + 1].text)
    return names


# ---------------------------------------------------------------------------
# Ported rules
# ---------------------------------------------------------------------------

def check_discarded_tasks(ctx: FileCtx, task_fns: set, rep: Reporter) -> None:
    toks = ctx.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in task_fns:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        # The tokens before the name must be a bare qualifier chain
        # ((id (:: | . | ->))*) back to a statement boundary.
        j = i - 1
        chain_ids = []
        while j >= 0 and toks[j].text in ("::", ".", "->"):
            j -= 1
            if j >= 0 and toks[j].kind == "id":
                chain_ids.append(toks[j].text)
                j -= 1
            else:
                j = -2
                break
        if j == -2:
            continue
        if "std" in chain_ids:
            continue  # std::copy etc. — same name, never a ppfs Task
        if j >= 0 and toks[j].text not in (";", "{", "}", ":"):
            continue
        close = match_fwd(toks, i + 1, "(", ")")
        if close > 0 and close + 1 < n and toks[close + 1].text == ";":
            rep.emit(ctx, t.line, "discarded-task",
                     f"result of Task-returning '{t.text}()' is discarded; the "
                     f"coroutine is destroyed without ever running (co_await it, "
                     f"spawn() it, or keep the Task alive)")


def check_spawn_captures(ctx: FileCtx, rep: Reporter) -> None:
    toks = ctx.toks
    spans = []
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "spawn" and i + 1 < len(toks) and \
                toks[i + 1].text == "(":
            close = match_fwd(toks, i + 1, "(", ")")
            if close > 0:
                spans.append((i + 1, close))
    if not spans:
        return
    for sc in ctx.scopes:
        if sc.kind != "lambda" or not sc.captures:
            continue
        lo, hi = sc.captures
        if lo >= hi:
            continue
        if not any(a < lo and hi < b for (a, b) in spans):
            continue
        texts = [toks[k].text for k in range(lo, hi)]
        if "&" in texts or "&&" in texts or "this" in texts or texts == ["="]:
            cap = " ".join(texts)
            rep.emit(ctx, toks[lo].line, "spawn-ref-capture",
                     f"lambda passed to spawn() captures [{cap}]; captured state "
                     f"dangles after the first co_await — pass state as value "
                     f"parameters: spawn([](T arg) -> Task<void> {{...}}(arg))")


def check_co_await_temporaries(ctx: FileCtx, rep: Reporter) -> None:
    toks = ctx.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "co_await":
            continue
        k = i + 1
        while k + 1 < n and toks[k].kind == "id" and toks[k + 1].text == "::":
            k += 2
        if k >= n or toks[k].kind != "id" or not toks[k].text[:1].isupper():
            continue
        m = k + 1
        if m < n and toks[m].text == "<":
            gt = match_fwd(toks, m, "<", ">", limit=64)
            if gt < 0:
                continue
            m = gt + 1
        if m < n and toks[m].text in ("{", "("):
            rep.emit(ctx, t.line, "co-await-temporary",
                     f"co_await on inline temporary '{toks[k].text}'; build "
                     f"awaitables via their owning primitive's factory (sim.delay, "
                     f"res.acquire, ev.wait) so lifetimes are tied to the primitive")


def check_hot_path_std_function(ctx: FileCtx, rep: Reporter) -> None:
    if "sim" not in ctx.path.parts and "trace" not in ctx.path.parts:
        return
    toks = ctx.toks
    for i in range(len(toks) - 3):
        if toks[i].text == "std" and toks[i + 1].text == "::" and \
                toks[i + 2].text == "function" and toks[i + 3].text == "<":
            rep.emit(ctx, toks[i].line, "hot-path-std-function",
                     "std::function in a kernel hot-path source; scheduled "
                     "callbacks must use sim::SmallFn (inline small-buffer "
                     "storage, trivially relocatable, FrameArena-boxed overflow) "
                     "so queue moves stay allocation- and trampoline-free")


def _scope_is_coroutine(ctx: FileCtx, sc: Scope) -> bool:
    for k in region_indices(sc, len(ctx.toks), FUNC_KINDS):
        if ctx.toks[k].kind == "id" and ctx.toks[k].text in (
                "co_await", "co_yield", "co_return"):
            return True
    return sc.ret_task


def check_mesh_hot_path_alloc(ctx: FileCtx, rep: Reporter) -> None:
    if "hw" not in ctx.path.parts or not ctx.path.stem.startswith("mesh"):
        return
    toks = ctx.toks
    for sc in ctx.scopes:
        if sc.kind not in FUNC_KINDS:
            continue
        idxs = region_indices(sc, len(toks), FUNC_KINDS)
        if not any(toks[k].kind == "id" and toks[k].text in ("co_await", "co_yield")
                   for k in idxs):
            continue
        for k in idxs:
            if toks[k].kind == "id" and toks[k].text in HEAP_CONTAINERS and \
                    k >= 2 and toks[k - 1].text == "::" and toks[k - 2].text == "std":
                rep.emit(ctx, toks[k].line, "mesh-hot-path-alloc",
                         f"std::{toks[k].text} in a mesh coroutine body; the "
                         f"per-message send path is allocation-free by design — "
                         f"use the precomputed path table / sim::InlineVec "
                         f"instead of heap containers")


def check_trace_hot_path_alloc(ctx: FileCtx, rep: Reporter) -> None:
    if "trace" not in ctx.path.parts or ctx.path.suffix not in HEADER_SUFFIXES:
        return
    if not ctx.path.stem.startswith(("record", "sink", "span")):
        return
    toks = ctx.toks
    for k in range(2, len(toks)):
        t = toks[k]
        if t.kind != "id":
            continue
        if toks[k - 1].text != "::" or toks[k - 2].text != "std":
            continue
        if t.text in HEAP_CONTAINERS:
            what = "heap container std::"
        elif t.text in STREAM_TYPES:
            what = "stream type std::"
        else:
            continue
        rep.emit(ctx, t.line, "trace-hot-path-alloc",
                 f"{what}{t.text} in a hot trace header; record/sink/span are "
                 f"inlined into the kernel dispatch loop — keep records POD and "
                 f"push growth/formatting into the cold translation units "
                 f"(sink.cpp, export.cpp, metrics.cpp)")


# ---------------------------------------------------------------------------
# New rules
# ---------------------------------------------------------------------------

def check_det_unsafe_source(ctx: FileCtx, rep: Reporter) -> None:
    if not DET_DIRS.intersection(ctx.path.parts):
        return
    toks = ctx.toks
    n = len(toks)

    def std_qualified(k):
        return k >= 2 and toks[k - 1].text == "::" and toks[k - 2].text == "std"

    for k, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in WALLCLOCK_IDS:
            rep.emit(ctx, t.line, "det-unsafe-source",
                     f"wall-clock source '{t.text}' in a digest-affecting "
                     f"directory; host time can never reach the event stream — "
                     f"use sim.now() / SimTime")
        elif t.text in ("time", "clock") and std_qualified(k):
            rep.emit(ctx, t.line, "det-unsafe-source",
                     f"wall-clock source 'std::{t.text}' in a digest-affecting "
                     f"directory; host time can never reach the event stream — "
                     f"use sim.now() / SimTime")
        elif (t.text in RAND_CALL_IDS and k + 1 < n and toks[k + 1].text == "(") \
                or t.text == "random_device":
            rep.emit(ctx, t.line, "det-unsafe-source",
                     f"ambient randomness '{t.text}' in a digest-affecting "
                     f"directory; all stochastic behavior must flow from the "
                     f"seeded sim::Rng so replays stay bit-identical")
        elif t.text in UNORDERED_IDS and std_qualified(k):
            rep.emit(ctx, t.line, "det-unsafe-source",
                     f"std::{t.text} in a digest-affecting directory; its "
                     f"iteration order is implementation-defined (and "
                     f"address-dependent when keyed by pointer) — any iteration "
                     f"reaching the event stream breaks deterministic replay; "
                     f"use an ordered container or sorted drain")
        elif t.text in ORDERED_IDS and std_qualified(k) and k + 1 < n and \
                toks[k + 1].text == "<":
            # Pointer (or smart-pointer) keyed: inspect the first template arg.
            depth, j, bad = 0, k + 1, False
            while j < n and j < k + 64:
                x = toks[j].text
                if x == "<":
                    depth += 1
                elif x == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif depth == 1 and x == ",":
                    break
                elif depth == 1 and (x == "*" or x in ("unique_ptr", "shared_ptr")):
                    bad = True
                j += 1
            if bad:
                rep.emit(ctx, t.line, "det-unsafe-source",
                         f"pointer-keyed std::{t.text} in a digest-affecting "
                         f"directory; iteration order follows allocation "
                         f"addresses, which vary run to run — key by a stable id "
                         f"instead")


SWEEP_EXEMPT = {"const", "constexpr", "constinit", "thread_local"}


def _inside_function(sc: Scope) -> bool:
    while sc is not None:
        if sc.kind in FUNC_KINDS:
            return True
        sc = sc.parent
    return False


def check_sweep_shared_state(ctx: FileCtx, rep: Reporter) -> None:
    if not SWEEP_DIRS.intersection(ctx.path.parts):
        return
    toks = ctx.toks
    n = len(toks)

    # (a) function-local statics.
    scope_of = {}
    for sc in ctx.scopes:
        for k in region_indices(sc, n, ALL_KINDS):
            scope_of[k] = sc
    for k, t in enumerate(toks):
        if t.kind != "id" or t.text != "static":
            continue
        sc = scope_of.get(k, ctx.root)
        if not _inside_function(sc):
            continue
        prev = {toks[j].text for j in range(max(0, k - 2), k)}
        nxt, j = [], k + 1
        while j < n and j < k + 24:
            x = toks[j]
            if x.text in (";", "=", "{"):
                break
            if x.text == "(":
                nxt.append("(")
                break
            if x.kind == "id":
                nxt.append(x.text)
            j += 1
        if "(" in nxt or SWEEP_EXEMPT.intersection(prev) or \
                SWEEP_EXEMPT.intersection(nxt):
            continue
        rep.emit(ctx, t.line, "sweep-shared-state",
                 "mutable function-local static in scenario-reachable code; "
                 "parallel sweep workers (--jobs) share it — make it "
                 "const/constexpr, thread_local, or per-simulation state")

    # (b) namespace-scope variables and (c) static data members. Statements
    # split on ';' and flush at every nested-scope hole (a function or class
    # body ends the preceding declaration-ish unit), so `void f() {} int g;`
    # does not hide the global behind the function header's tokens.
    for sc in ctx.scopes:
        if sc.kind not in ("file", "namespace", "class"):
            continue
        stmt = []
        prev_k = None
        depth = 0  # () nesting; a `= {}` default arg must not split a prototype
        for k in region_indices(sc, n, ALL_KINDS):
            if prev_k is not None and k > prev_k + 1 and depth == 0:
                _flag_shared_stmt(ctx, sc, stmt, rep)
                stmt = []
            prev_k = k
            t = toks[k]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth = max(0, depth - 1)
            if t.text == ";":
                _flag_shared_stmt(ctx, sc, stmt, rep)
                stmt = []
            else:
                stmt.append(t)
        _flag_shared_stmt(ctx, sc, stmt, rep)


_SKIP_STMT_IDS = {"using", "typedef", "extern", "template", "friend",
                  "static_assert", "namespace", "class", "struct", "enum",
                  "union", "operator", "public", "private", "protected",
                  "return", "if", "for", "while", "default", "delete"}


def _flag_shared_stmt(ctx: FileCtx, sc: Scope, stmt: list, rep: Reporter) -> None:
    if not stmt:
        return
    ids = {t.text for t in stmt if t.kind == "id"}
    if _SKIP_STMT_IDS.intersection(ids) or SWEEP_EXEMPT.intersection(ids):
        return
    texts = [t.text for t in stmt]
    eq = texts.index("=") if "=" in texts else -1
    par = texts.index("(") if "(" in texts else -1
    if par >= 0 and (eq < 0 or par < eq):
        return  # function declaration
    is_member = sc.kind == "class"
    if is_member and "static" not in ids:
        return  # per-instance member: not shared across sweep workers
    # A definition needs a name: at least two tokens, last id before any '='.
    name_tok = None
    for t in (stmt[:eq] if eq >= 0 else stmt)[::-1]:
        if t.kind == "id":
            name_tok = t
            break
    if name_tok is None or len(stmt) < 2:
        return
    if eq < 0 and not is_member and stmt[-1].kind != "id":
        return
    where = "static data member" if is_member else "namespace-scope variable"
    rep.emit(ctx, stmt[0].line, "sweep-shared-state",
             f"mutable {where} '{name_tok.text}' in scenario-reachable code; "
             f"parallel sweep workers (--jobs) race on it and scenarios stop "
             f"being independent — make it const/constexpr, thread_local, or "
             f"per-simulation state")


def _split_toplevel(toks, lo, hi):
    """Split token range [lo,hi) on top-level commas (depth on () [] {} <>)."""
    parts, depth, angle, start = [], 0, 0, lo
    for k in range(lo, hi):
        x = toks[k].text
        if x in ("(", "[", "{"):
            depth += 1
        elif x in (")", "]", "}"):
            depth -= 1
        elif x == "<":
            angle += 1
        elif x == ">":
            angle = max(0, angle - 1)
        elif x == "," and depth == 0 and angle == 0:
            parts.append((start, k))
            start = k + 1
    if start < hi:
        parts.append((start, hi))
    return parts


def check_ref_across_await(ctx: FileCtx, rep: Reporter) -> None:
    toks = ctx.toks
    n = len(toks)
    for sc in ctx.scopes:
        if sc.kind not in FUNC_KINDS:
            continue
        idxs = region_indices(sc, n, FUNC_KINDS)
        awaits = [k for k in idxs
                  if toks[k].kind == "id" and toks[k].text in ("co_await", "co_yield")]
        if not awaits:
            continue
        a0 = awaits[0]

        # Hazard window: after the first co_await statement completes — or,
        # when that await sits inside a loop, from the loop's start (the
        # second iteration uses every name after a suspension).
        loop_open = None
        inner = sc
        for child in ctx.scopes:
            if child.kind == "control" and child.ctrl in ("for", "while", "do") and \
                    child.open < a0 <= child.close:
                anc = child
                within = False
                p = anc
                while p is not None:
                    if p is sc:
                        within = True
                        break
                    if p.kind in FUNC_KINDS and p is not sc:
                        break
                    p = p.parent
                if within and (loop_open is None or child.open < loop_open):
                    loop_open = child.open
        del inner
        if loop_open is not None:
            hs = loop_open
        else:
            depth = 0
            hs = sc.close
            for k in range(a0, sc.close if sc.close >= 0 else n):
                x = toks[k].text
                if x in ("(", "[", "{"):
                    depth += 1
                elif x in (")", "]", "}"):
                    depth -= 1
                elif x == ";" and depth <= 0:
                    hs = k
                    break

        hazards = []  # (name | "&" | "this", decl_line, what)
        if sc.kind == "lambda" and sc.captures:
            lo, hi = sc.captures
            for (a, b) in _split_toplevel(toks, lo, hi):
                ts = [toks[k].text for k in range(a, b)]
                if not ts:
                    continue
                if ts == ["&"]:
                    hazards.append(("&", toks[a].line, "blanket [&] capture"))
                elif ts == ["this"]:
                    hazards.append(("this", toks[a].line, "captured this"))
                elif ts[0] == "&" and len(ts) >= 2:
                    hazards.append((ts[1], toks[a].line,
                                    f"by-reference capture '&{ts[1]}'"))
        if sc.params:
            lo, hi = sc.params
            for (a, b) in _split_toplevel(toks, lo, hi):
                depth = angle = 0
                ref_kind, name = None, None
                for k in range(a, b):
                    x = toks[k].text
                    if x in ("(", "[", "{"):
                        depth += 1
                    elif x in (")", "]", "}"):
                        depth -= 1
                    elif x == "<":
                        angle += 1
                    elif x == ">":
                        angle = max(0, angle - 1)
                    elif depth == 0 and angle == 0:
                        if x == "&&":
                            ref_kind, name = "rvalue", None
                        elif x == "&":
                            ref_kind, name = ref_kind or "lvalue", None
                        elif toks[k].kind == "id" and ref_kind and name is None:
                            name = x
                        elif x == "=":
                            break
                if ref_kind is None or name is None:
                    continue
                if ref_kind == "lvalue" and sc.kind == "function":
                    continue  # named-coroutine idiom: long-lived subsystem refs
                what = ("rvalue-reference parameter" if ref_kind == "rvalue"
                        else "reference parameter")
                hazards.append((name, toks[a].line, f"{what} '{name}'"))

        if not hazards:
            continue
        use_region = [k for k in idxs if k > hs] if loop_open is None else \
                     [k for k in range(hs, sc.close if sc.close >= 0 else n)]
        kind_word = "lambda" if sc.kind == "lambda" else "named"
        for (name, line, what) in hazards:
            hit = None
            for k in use_region:
                t = toks[k]
                if t.kind != "id":
                    continue
                if name == "&":
                    if t.text not in ("co_await", "co_yield", "co_return", "return",
                                      "if", "else", "for", "while", "const", "auto"):
                        hit = t
                        break
                elif t.text == name:
                    if k > 0 and toks[k - 1].text in (".", "->"):
                        continue
                    if k + 1 < n and toks[k + 1].text == "::":
                        continue
                    hit = t
                    break
            if hit is not None:
                ctx_msg = (f"used inside a loop containing a co_await (line "
                           f"{hit.line})" if loop_open is not None else
                           f"used after a co_await (line {hit.line})")
                rep.emit(ctx, line, "ref-across-await",
                         f"{what} of a {kind_word} coroutine is {ctx_msg}; the "
                         f"frame holds only the reference, so the referent must "
                         f"outlive every suspension — pass by value, or suppress "
                         f"with an inline justification when the caller provably "
                         f"outlives this coroutine")


def check_hot_region_alloc(ctx: FileCtx, rep: Reporter) -> None:
    ranges = []
    stack = []
    for (line, kind) in ctx.hot_marks:
        if kind == "hot":
            stack.append(line)
        elif stack:
            ranges.append((stack.pop(), line))
        else:
            rep.emit(ctx, line, "hot-region-alloc",
                     "stray // ppfs::endhot with no open // ppfs::hot region")
    for line in stack:
        rep.emit(ctx, line, "hot-region-alloc",
                 "unterminated // ppfs::hot region (missing // ppfs::endhot)")
    if not ranges:
        return
    toks = ctx.toks
    n = len(toks)

    def in_hot(line):
        return any(a <= line <= b for (a, b) in ranges)

    for k, t in enumerate(toks):
        if t.kind != "id" or not in_hot(t.line):
            continue
        std_q = k >= 2 and toks[k - 1].text == "::" and toks[k - 2].text == "std"
        if std_q and t.text in HEAP_CONTAINERS:
            what = f"heap container std::{t.text}"
        elif std_q and t.text in STREAM_TYPES:
            what = f"stream type std::{t.text}"
        elif std_q and t.text == "function":
            what = "std::function"
        elif t.text == "new" and k + 1 < n and toks[k + 1].text != "(":
            what = "heap `new`"
        else:
            continue
        rep.emit(ctx, t.line, "hot-region-alloc",
                 f"{what} inside a // ppfs::hot region; hot regions are "
                 f"allocation-free by contract — use sim::InlineVec, "
                 f"sim::SmallFn, the FrameArena, or move the work to a cold "
                 f"path outside the region")


def check_per_node_state(ctx: FileCtx, rep: Reporter) -> None:
    # Hot ranges mirror check_hot_region_alloc, which owns the stray/
    # unterminated-marker diagnostics; this check only consumes the ranges.
    ranges = []
    stack = []
    for (line, kind) in ctx.hot_marks:
        if kind == "hot":
            stack.append(line)
        elif stack:
            ranges.append((stack.pop(), line))
    if not ranges:
        return
    toks = ctx.toks
    n = len(toks)

    def in_hot(line):
        return any(a <= line <= b for (a, b) in ranges)

    for k, t in enumerate(toks):
        if t.kind != "id" or not in_hot(t.line):
            continue
        if t.text not in ("map", "unordered_map"):
            continue
        if not (k >= 2 and toks[k - 1].text == "::" and toks[k - 2].text == "std"):
            continue
        if k + 1 >= n or toks[k + 1].text != "<":
            continue
        # Scan the first template argument (up to the ',' at depth 1) for a
        # NodeId key, tracking <...> depth so nested templates don't confuse
        # the argument boundary.
        depth = 0
        key_ids = []
        for j in range(k + 1, n):
            tj = toks[j]
            if tj.text == "<":
                depth += 1
            elif tj.text == ">" or tj.text == ">>":
                depth -= 2 if tj.text == ">>" else 1
                if depth <= 0:
                    break
            elif tj.text == "," and depth == 1:
                break
            elif tj.kind == "id" and depth >= 1:
                key_ids.append(tj.text)
        if "NodeId" not in key_ids:
            continue
        rep.emit(ctx, t.line, "per-node-state",
                 f"std::{t.text} keyed by NodeId inside a // ppfs::hot region; "
                 f"node ids are dense, so per-node simulation state belongs in "
                 f"a sim::ShardArena indexed by node id — contiguous, "
                 f"cache-local, and allocation-free after reserve()")


# Each token-state identifier and the path suffixes of its one legitimate
# writer. Everything else that mutates one of these bypasses the
# flush-before-ack protocol / conservation ledger.
TOKEN_STATE_OWNERS = {
    "write_granted_bytes_": ("src/pfs/token.cpp", "src/pfs/token.hpp"),
    "held_tokens_": ("src/pfs/client.cpp", "src/pfs/client.hpp"),
    "token_grants_": ("src/sim/check/audit.cpp", "src/sim/check/audit.hpp"),
    "token_granted_bytes_": ("src/sim/check/audit.cpp", "src/sim/check/audit.hpp"),
}

TOKEN_MUTATING_METHODS = {
    "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
    "pop_back", "resize", "assign", "swap",
}


def check_token_state(ctx: FileCtx, rep: Reporter) -> None:
    path = str(ctx.path).replace("\\", "/")
    toks = ctx.toks
    n = len(toks)

    def mutated_at(k: int) -> bool:
        """True when toks[k] (the state identifier) is written, not read."""
        # ++x / --x
        if k >= 2 and toks[k - 1].text in ("+", "-") and \
                toks[k - 2].text == toks[k - 1].text:
            return True
        j = k + 1
        # Step over one balanced subscript: held_tokens_[file]...
        if j < n and toks[j].text == "[":
            depth = 0
            while j < n:
                if toks[j].text == "[":
                    depth += 1
                elif toks[j].text == "]":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        if j >= n:
            return False
        t1 = toks[j].text
        t2 = toks[j + 1].text if j + 1 < n else ""
        # x = v (not x == v)
        if t1 == "=" and t2 != "=":
            return True
        # x += v and friends ("<"/">"/"!" before "=" are comparisons)
        if t1 in ("+", "-", "*", "/", "|", "&", "^", "%") and t2 == "=":
            return True
        # x++ / x--
        if t1 in ("+", "-") and t2 == t1:
            return True
        # x.push_back(...) / x[k].erase(...)
        if t1 in (".", "->") and t2 in TOKEN_MUTATING_METHODS:
            return True
        return False

    for k, t in enumerate(toks):
        if t.kind != "id":
            continue
        owners = TOKEN_STATE_OWNERS.get(t.text)
        if owners is None or path.endswith(owners):
            continue
        # A declaration (`ByteCount write_granted_bytes_ = 0;`) is preceded
        # by its type, not by an access path — the default initializer is
        # not a grant-table mutation.
        if k >= 1 and (toks[k - 1].kind == "id" or toks[k - 1].text in (">", "&", "*")):
            continue
        if not mutated_at(k):
            continue
        rep.emit(ctx, t.line, "token-state",
                 f"token grant-table state '{t.text}' mutated outside its "
                 f"owning subsystem ({' / '.join(owners)}); every legitimate "
                 f"update goes through the manager's flush-before-ack protocol "
                 f"and is shadowed by the SimCheck conservation ledger — "
                 f"out-of-band writes desynchronize both")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def gather_files(paths: list, excludes: list):
    files, errors = [], []
    exc = [Path(e).resolve() for e in excludes]

    def excluded(f: Path) -> bool:
        rf = f.resolve()
        return any(rf == e or e in rf.parents for e in exc)

    for p in paths:
        path = Path(p)
        if not path.exists():
            errors.append(f"scan path does not exist: {p}")
        elif path.is_dir():
            found = [f for f in sorted(path.rglob("*"))
                     if f.is_file() and f.suffix in CPP_SUFFIXES and not excluded(f)]
            if not found:
                errors.append(f"scan path matches zero C++ sources: {p}")
            files.extend(found)
        elif path.suffix in CPP_SUFFIXES:
            if not excluded(path):
                files.append(path)
        else:
            errors.append(f"scan path is not a C++ source: {p}")
    seen, uniq = set(), []
    for f in files:
        if f not in seen:
            seen.add(f)
            uniq.append(f)
    return uniq, errors


def analyze(files: list):
    ctxs = [parse_file(f) for f in files]

    # Task-returning vocabulary: the scanned files plus the real src tree,
    # so fixtures are linted against the same names as the codebase.
    task_fns = set()
    for ctx in ctxs:
        task_fns |= collect_task_decls(ctx.toks)
    src_root = Path(__file__).resolve().parent.parent / "src"
    if src_root.is_dir():
        scanned = {c.path.resolve() for c in ctxs}
        for f in sorted(src_root.rglob("*")):
            if f.suffix in CPP_SUFFIXES and f.resolve() not in scanned:
                toks, _, _ = lex(f.read_text(errors="replace"))
                task_fns |= collect_task_decls(toks)

    rep = Reporter()
    for ctx in ctxs:
        check_discarded_tasks(ctx, task_fns - collect_void_decls(ctx.toks), rep)
        check_spawn_captures(ctx, rep)
        check_co_await_temporaries(ctx, rep)
        check_hot_path_std_function(ctx, rep)
        check_mesh_hot_path_alloc(ctx, rep)
        check_trace_hot_path_alloc(ctx, rep)
        check_det_unsafe_source(ctx, rep)
        check_sweep_shared_state(ctx, rep)
        check_ref_across_await(ctx, rep)
        check_hot_region_alloc(ctx, rep)
        check_per_node_state(ctx, rep)
        check_token_state(ctx, rep)
    rep.findings.sort(key=lambda e: (e["file"], e["line"], e["rule"]))
    return rep


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(
        prog="ppfs_lint.py", description="PpfsAnalyze — scope-aware static "
        "analysis for the ppfs tree (see module docstring for the rule catalog)")
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--exclude", action="append", default=[], metavar="PATH",
                    help="prune this file or subtree from the scan (repeatable)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--expect-violations", type=int, default=None, metavar="N",
                    help="invert: succeed only if >= N violations spanning all "
                         "rule classes are found (fixture mode)")
    ap.add_argument("--expect", action="append", default=[], metavar="RULE=N",
                    help="exact expected count for one rule (repeatable; "
                         "fixture mode)")
    args = ap.parse_args(argv)

    expects = {}
    for spec in args.expect:
        rule, _, count = spec.partition("=")
        if rule not in ALL_RULES or not count.isdigit():
            print(f"ppfs_lint: bad --expect '{spec}' (want <rule>=<count>; "
                  f"rules: {', '.join(ALL_RULES)})", file=sys.stderr)
            return 2
        expects[rule] = int(count)

    files, errors = gather_files(args.paths, args.exclude)
    if errors or not files:
        for e in errors:
            print(f"ppfs_lint: error: {e}", file=sys.stderr)
        if not files:
            print("ppfs_lint: error: no C++ sources to scan", file=sys.stderr)
        return 2

    rep = analyze(files)
    counts = {r: 0 for r in ALL_RULES}
    for e in rep.findings:
        counts[e["rule"]] += 1

    if args.format == "json":
        print(json.dumps({
            "tool": "PpfsAnalyze",
            "files": len(files),
            "violations": rep.findings,
            "suppressed": rep.suppressed,
            "rule_counts": counts,
        }, indent=2))
    else:
        for e in rep.findings:
            print(f"{e['file']}:{e['line']}: [{e['rule']}] {e['message']}")
        file_sup: dict = {}
        for e in rep.suppressed:
            if e["suppression"] == "file":
                file_sup[(e["file"], e["rule"])] = \
                    file_sup.get((e["file"], e["rule"]), 0) + 1
            else:
                print(f"{e['file']}:{e['line']}: suppressed [{e['rule']}] "
                      f"(ppfs-lint: allow)")
        for (f, rule), cnt in sorted(file_sup.items()):
            print(f"{f}: suppressed {cnt} [{rule}] (ppfs-lint: allow-file)")

    # In JSON mode the document owns stdout; human summaries go to stderr.
    out = sys.stderr if args.format == "json" else sys.stdout

    if expects or args.expect_violations is not None:
        ok = True
        for rule, want in sorted(expects.items()):
            got = counts[rule]
            status = "OK" if got == want else "FAIL"
            if got != want:
                ok = False
            print(f"ppfs_lint: expect {rule}={want}: got {got} [{status}]", file=out)
        if args.expect_violations is not None:
            fired = sum(1 for r in ALL_RULES if counts[r] > 0)
            total_ok = len(rep.findings) >= args.expect_violations and \
                fired == len(ALL_RULES)
            ok = ok and total_ok
            print(f"ppfs_lint: {len(rep.findings)} violation(s), "
                  f"{fired}/{len(ALL_RULES)} rule classes fired — "
                  f"{'OK (expected)' if total_ok else 'FAIL (expected violations missing)'}",
                  file=out)
        return 0 if ok else 1

    if rep.findings:
        print(f"ppfs_lint: {len(rep.findings)} violation(s) in {len(files)} "
              f"file(s)", file=out)
        return 1
    extra = f", {len(rep.suppressed)} suppressed" if rep.suppressed else ""
    print(f"ppfs_lint: clean ({len(files)} files{extra})", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
