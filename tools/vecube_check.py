#!/usr/bin/env python3
"""vecube_check: project concurrency contracts as a static checker.

Encodes the rules that generic analysis (clang-tidy, -Wthread-safety)
cannot express because they are *project* invariants, not language ones.
Two backends share one rule engine:

  * AST backend — used automatically when the Python libclang binding
    (``clang.cindex``) is importable and a ``compile_commands.json`` is
    found (CMake exports one; see CMAKE_EXPORT_COMPILE_COMMANDS). It
    builds the function index and call graph from the real AST.
  * Lexer backend — a self-contained fallback with no dependencies
    beyond the standard library: comment-aware tokenizing plus
    brace-matched function extraction. It over-approximates the call
    graph (unqualified calls may match more than one definition), which
    is the safe direction for every rule here.

Both backends feed the same rule engine; the purely textual rules
(order-comment, naked-sync-primitives, detached-threads,
escape-hatch-allowlist) behave identically under either.

Rules (suppress a single line with ``// vecube-check: disable=<rule>``):

  hit-path-no-locks      No mutex acquisition, condition wait, or fill
                         wait may be *reachable* from the ViewCache hit
                         path (ViewCache::FindPinned / LookupPinned /
                         Lookup, and CurrentValue, through which every
                         hit answer reads its entry). Call-graph
                         reachability, not a per-body regex: a helper
                         that locks is flagged even if the root body
                         looks clean. Replaces the old
                         serve-lock-free-reads regex rule in vecube_lint.
  epoch-pin-raii         Epoch pins are RAII-only. EpochDomain::Acquire /
                         EpochDomain::Pin may appear only in
                         src/util/epoch.{h,cc} and
                         src/serve/view_cache.{h,cc}; every Acquire()
                         call must initialize a local Pin on the same
                         statement; the only sanctioned long-lived pin
                         member is ViewCache::ReadHandle::pin_ (the RAII
                         handle itself). Pins squirreled away in other
                         members would stall epoch reclamation forever.
  order-comment          Every line whose code mentions memory_order
                         must carry an ``order:`` justification comment
                         on the same line or within the 6 lines above.
                         Un-annotated orderings rot into cargo cult.
  no-blocking-under-shard-lock
                         Inside a scope holding a ViewCache shard mutex
                         (``MutexLock l(shard...mu)``), no blocking call:
                         no condition wait, no WaitFill, no file I/O or
                         fsync, no sleeps — and no second lock (the
                         shard tier is the innermost lock level; see
                         DESIGN.md §12).
  no-unbounded-wait      No untimed wait may be *reachable* from the
                         serving path (WaitFill, AssembleBatch, Admit,
                         the session/dynamic/range query entry points,
                         ParallelFor): no bare ``CondVar::Wait``, no
                         ``std::atomic<T>::wait`` or ``atomic_wait``, and
                         no raw futex wait with a null timeout. Every
                         wait a query can block on must be a bounded
                         slice (``WaitFor``, a timed futex wait) so
                         deadlines and cancellation are always honored
                         (DESIGN.md §13). Call-graph reachability, like
                         hit-path-no-locks.
  no-shared-scratch-on-shard-path
                         The shard hot path (ThreadedShardExecutor::
                         RunTask and the serial cascade it drives,
                         internal::ExecuteCascadeSerial) owns a private
                         per-lane ShardScratch: nothing *reachable* from
                         it may acquire a lock or a shared resource —
                         that is the whole point of the shard
                         decomposition (DESIGN.md §14), and it is the
                         route every engine cascade takes. Call-graph
                         reachability, like hit-path-no-locks.
  naked-sync-primitives  src/ outside util/sync.h may not name raw
                         std::mutex / condition_variable / lock_guard /
                         unique_lock / scoped_lock / shared_lock (or
                         include their headers): the annotated wrappers
                         in util/sync.h are the only sanctioned
                         primitives, otherwise thread-safety analysis
                         has blind spots. std::thread is allowed only in
                         util/thread_pool.{h,cc} (std::this_thread and
                         std::thread::hardware_concurrency are fine
                         anywhere).
  detached-threads       ``.detach()`` is banned in src/: a detached
                         thread outlives every shutdown contract in the
                         tree.
  escape-hatch-allowlist Every use of VECUBE_NO_THREAD_SAFETY_ANALYSIS
                         outside its definition in util/sync.h must be
                         registered in tools/thread_safety_allowlist.txt
                         with a justification.
  single-flight-in-server
                         Under src/, only src/serve/view_cache.{h,cc}
                         and src/serve/serving.{h,cc} may call the
                         ViewCache single-flight protocol (LookupOrBegin,
                         WaitFill, CompleteFill, AbortFill). Everything
                         else serves through ElementServer, so the budget
                         gate, verify_fill, bounded follower retries and
                         deadline accounting cannot be forked into a
                         second copy of the leader/follower loop.
  one-node-encoder       Under src/, only src/core/element_id.{h,cc} and
                         src/core/graph.{h,cc} may compute a dyadic
                         node's heap-order code (``(1 << level) - 1``) or
                         a dimension's ``2 * extent - 1`` node radix.
                         Everything else reads ElementId's codes and
                         encodes through ElementIndexer, so the node
                         space has one encoding and one encoder.

Usage:
  tools/vecube_check.py [--root DIR] [--backend auto|ast|lexer]
                        [--compile-commands PATH] [--list-rules]
                        [--canaries DIR] [paths...]

``--canaries DIR`` flips to self-test mode: each *.cc file under DIR
declares, in its leading comments, the virtual path it should be checked
as and the rule(s) it must trip:

  // vecube-check-as: src/serve/view_cache.cc
  // vecube-check-expect: hit-path-no-locks

The run fails unless every canary trips every expected rule — proof the
checker still has teeth.

A whole-tree run (no explicit paths) also fails when a root of a
call-graph rule (hit-path-no-locks, no-shared-scratch-on-shard-path,
no-unbounded-wait) names no function in the tree: a rename must move the
root, never quietly retire the rule.

Exits 0 when clean (or all canaries trip), 1 on findings (or a silent
canary), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = (
    "hit-path-no-locks",
    "epoch-pin-raii",
    "order-comment",
    "no-blocking-under-shard-lock",
    "no-unbounded-wait",
    "no-shared-scratch-on-shard-path",
    "naked-sync-primitives",
    "detached-threads",
    "escape-hatch-allowlist",
    "single-flight-in-server",
    "one-node-encoder",
)

DISABLE_RE = re.compile(r"//\s*vecube-check:\s*disable=([\w,-]+)")

# --- hit-path-no-locks -------------------------------------------------
HIT_PATH_ROOTS = (
    "ViewCache::FindPinned",
    "ViewCache::LookupPinned",
    "ViewCache::Lookup",
    "ViewCache::CurrentValue",
)
# Anything that acquires, waits, or blocks. The hit path may touch
# atomics and epoch pins only.
HIT_PATH_BAN_RE = re.compile(
    r"\b(?:MutexLock|WriterLock|ReaderLock)\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|(?:\.|->)\s*(?:Lock|LockShared|lock|try_lock|lock_shared)\s*\("
    r"|(?:\.|->)\s*Wait(?:For)?\s*\("
    r"|\bWaitFill\s*\("
)

# --- no-shared-scratch-on-shard-path -----------------------------------
# The per-shard hot path: one gather + the whole serial cascade, run on
# a claimed lane's private ShardScratch. Any lock (or shared-resource
# acquisition) reachable from here would serialize the shards the
# decomposition exists to keep independent (DESIGN.md §14).
SHARD_SCRATCH_ROOTS = (
    "ThreadedShardExecutor::RunTask",
    "internal::ExecuteCascadeSerial",
)
SHARD_SCRATCH_BAN_RE = re.compile(
    r"\b(?:MutexLock|WriterLock|ReaderLock)\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|(?:\.|->)\s*(?:Lock|LockShared|lock|try_lock|lock_shared)\s*\("
    r"|(?:\.|->)\s*(?:Acquire)\s*\("
)

# --- no-unbounded-wait -------------------------------------------------
# Everywhere a query can block. An untimed wait reachable from any of
# these can outlive the query's deadline; only timed slices (re-checking
# their condition, and the QueryContext, each wake) are allowed
# (DESIGN.md §13).
SERVING_WAIT_ROOTS = (
    "ViewCache::WaitFill",
    "AssemblyEngine::AssembleBatch",
    "AdmissionController::Admit",
    "AdmissionController::Drain",
    "OlapSession::Element",
    "OlapSession::Query",
    "OlapSession::RangeSum",
    "RangeEngine::RangeSum",
    "ElementServer::Serve",
    "ThreadPool::ParallelFor",
)
# Waits that take no timeout: CondVar::Wait and std::atomic<T>::wait
# (`.Wait(` / `.wait(` exactly — WaitFor( and WaitFill( do not match),
# the free atomic_wait functions, and a raw futex wait whose timeout
# argument (the one after the expected value) is null.
UNBOUNDED_WAIT_RE = re.compile(
    r"(?:\.|->)\s*[Ww]ait\s*\("
    r"|\batomic_(?:flag_)?wait(?:_explicit)?\s*\("
    r"|\bFUTEX_WAIT\w*\s*,[^,]*,\s*(?:nullptr|NULL|0)\s*[,)]"
)

# --- epoch-pin-raii ----------------------------------------------------
EPOCH_PIN_FILES = {
    "src/util/epoch.h",
    "src/util/epoch.cc",
    "src/serve/view_cache.h",
    "src/serve/view_cache.cc",
}
EPOCH_TOKEN_RE = re.compile(r"\bEpochDomain::(?:Acquire|Pin)\b")
ACQUIRE_CALL_RE = re.compile(r"\bEpochDomain::Acquire\s*\(")
ACQUIRE_RAII_RE = re.compile(
    r"\b(?:EpochDomain::)?Pin\s+\w+\s*=\s*EpochDomain::Acquire\s*\(")
PIN_MEMBER_RE = re.compile(r"\bPin\s+(\w+_)\s*[;{=]")
PIN_MEMBER_ALLOWED = {("src/serve/view_cache.h", "pin_")}

# --- order-comment -----------------------------------------------------
ORDER_WINDOW = 6  # lines above (inclusive) that may carry the comment
ORDER_TOKEN_RE = re.compile(r"\bmemory_order")
ORDER_COMMENT_RE = re.compile(r"order:")

# --- no-blocking-under-shard-lock -------------------------------------
SHARD_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*[\w.>-]*shard[\w.>-]*mu")
BLOCKING_RE = re.compile(
    r"(?:\.|->)\s*Wait(?:For)?\s*\("
    r"|\bWaitFill\s*\("
    r"|\bsleep(?:_for|_until)?\s*\("
    r"|\bstd::this_thread\b"
    r"|\b(?:fopen|fread|fwrite|fflush|fsync|fdatasync|open|read|write)\s*\("
    r"|(?:\.|->)\s*(?:Sync|Flush|Append)\s*\("
    r"|\bstd::[io]?fstream\b"
)
NESTED_LOCK_RE = re.compile(r"\b(?:MutexLock|WriterLock|ReaderLock)\s+\w+\s*\(")

# --- naked-sync-primitives / detached-threads -------------------------
SYNC_ALLOWED_FILE = "src/util/sync.h"
NAKED_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)
THREAD_ALLOWED_FILES = {"src/util/thread_pool.h", "src/util/thread_pool.cc"}
# std::thread the *type*; the nested non-spawning utilities are fine.
NAKED_THREAD_RE = re.compile(
    r"\bstd::thread\b(?!\s*::\s*(?:hardware_concurrency|id)\b)")
DETACH_RE = re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)")

# --- single-flight-in-server ------------------------------------------
SINGLE_FLIGHT_FILES = {
    "src/serve/view_cache.h",
    "src/serve/view_cache.cc",
    "src/serve/serving.h",
    "src/serve/serving.cc",
}
SINGLE_FLIGHT_RE = re.compile(
    r"\b(?:LookupOrBegin|WaitFill|CompleteFill|AbortFill)\s*\(")

# --- one-node-encoder -------------------------------------------------
ENCODER_FILES = {
    "src/core/element_id.h",
    "src/core/element_id.cc",
    "src/core/graph.h",
    "src/core/graph.cc",
}
# `<< level) - 1` (any spelling of the level operand), or
# `2 * extent - 1` (any integer suffix on the 2, any extent accessor).
HEAP_CODE_RE = re.compile(
    r"<<\s*[\w.\[\]>:-]*\blevel\w*(?:\([^)]*\))?\s*\)\s*-\s*1(?!\d)")
NODE_RADIX_RE = re.compile(
    r"\b2(?:[uU]|[uU]?[lL]{1,2})?\s*\*\s*[\w.\[\]>:-]*extent\w*"
    r"(?:\([^)]*\)|\[[^\]]*\])?\s*-\s*1(?!\d)")

# --- escape-hatch-allowlist -------------------------------------------
ESCAPE_HATCH = "VECUBE_NO_THREAD_SAFETY_ANALYSIS"
ALLOWLIST_PATH = "tools/thread_safety_allowlist.txt"

KEYWORDS = frozenset(
    "if while for switch return sizeof new delete catch alignof decltype "
    "static_cast dynamic_cast reinterpret_cast const_cast static_assert "
    "alignas noexcept throw defined assert".split())


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One file with raw lines and comment-stripped code lines."""

    def __init__(self, rel: str, text: str):
        self.rel = rel  # posix-style path relative to the repo root
        self.raw_lines = text.splitlines()
        self.code_lines = strip_comments(text)

    def code(self, lineno: int) -> str:
        return self.code_lines[lineno - 1] if \
            1 <= lineno <= len(self.code_lines) else ""

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] if \
            1 <= lineno <= len(self.raw_lines) else ""

    def suppressed(self, lineno: int, rule: str) -> bool:
        m = DISABLE_RE.search(self.raw(lineno))
        return bool(m) and rule in m.group(1).split(",")


def strip_comments(text: str) -> list:
    """Per-line code with //-comments, /* */ blocks, and string literal
    *contents* removed; line structure preserved so line numbers and
    brace matching stay addressable."""
    out = []
    i = 0
    n = len(text)
    line = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                state = "string"
                line.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                line.append("'")
                i += 1
                continue
            line.append(ch)
        elif state == "string":
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                state = "code"
                line.append('"')
        elif state == "char":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                state = "code"
                line.append("'")
        # line_comment / block_comment: drop the character.
        if state == "block_comment" and ch == "*" and nxt == "/":
            state = "code"
            i += 2
            continue
        i += 1
    out.append("".join(line))
    return out


class Function:
    def __init__(self, qualname: str, rel: str, start: int, end: int,
                 body: str):
        self.qualname = qualname           # e.g. "ViewCache::FindPinned"
        self.name = qualname.rsplit("::", 1)[-1]
        self.rel = rel
        self.start_line = start            # line of the opening brace
        self.end_line = end                # line of the closing brace
        self.body = body                   # comment-stripped body text
        self.callees = set()               # resolved Function objects


class FunctionIndex:
    """Function definitions plus a (possibly over-approximated) call
    graph. Built by either backend; consumed by the graph rules."""

    def __init__(self):
        self.functions = []                # [Function]
        self.by_name = {}                  # last component -> [Function]
        self.by_qual = {}                  # suffix-qualified -> [Function]

    def add(self, fn: Function):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)
        # Register every qualified suffix: A::B::C -> {A::B::C, B::C}.
        parts = fn.qualname.split("::")
        for k in range(len(parts) - 1):
            self.by_qual.setdefault("::".join(parts[k:]), []).append(fn)

    def resolve(self, callee: str, caller: Function) -> list:
        """All definitions a call token may bind to. Qualified names
        match by suffix; unqualified names prefer same-file definitions
        and fall back to every definition with that name (conservative
        over-approximation — safe for ban rules)."""
        if "::" in callee:
            return self.by_qual.get(callee, [])
        cands = self.by_name.get(callee, [])
        same_file = [f for f in cands if f.rel == caller.rel]
        return same_file if same_file else cands

    def link(self):
        call_re = re.compile(
            r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")
        for fn in self.functions:
            for m in call_re.finditer(fn.body):
                token = m.group(1)
                base = token.rsplit("::", 1)[-1]
                if base in KEYWORDS or token.startswith("VECUBE_"):
                    continue
                for target in self.resolve(token, fn):
                    if target is not fn:
                        fn.callees.add(target)

    def reachable(self, root_quals) -> list:
        roots = []
        for q in root_quals:
            roots.extend(self.by_qual.get(q, []))
        seen = set()
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            stack.extend(fn.callees)
        return [f for f in self.functions if id(f) in seen]


# ----------------------------------------------------------------------
# Lexer backend: brace-matched function extraction.
# ----------------------------------------------------------------------

FUNC_HEAD_RE = re.compile(
    r"(?:^|[;{}]|\n)\s*"                       # statement boundary
    r"(?:[\w:<>,&*~\s\[\]]*?\s)??"             # return type / specifiers
    r"((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(")


NAMESPACE_RE = re.compile(r"\bnamespace\s+([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\{")


def namespace_spans(text: str) -> list:
    """(body start, body end, name) of every named namespace block, in
    source order, so enclosing spans come before nested ones."""
    spans = []
    for m in NAMESPACE_RE.finditer(text):
        pos = m.end()
        depth = 1
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        spans.append((m.end(), pos, m.group(1)))
    return spans


def index_file_lexer(src: SourceFile, index: FunctionIndex):
    text = "\n".join(src.code_lines)
    namespaces = namespace_spans(text)
    for m in FUNC_HEAD_RE.finditer(text):
        name = m.group(1)
        base = name.rsplit("::", 1)[-1].lstrip("~")
        if base in KEYWORDS or name.startswith("VECUBE_"):
            continue
        # Walk the parameter list.
        pos = m.end()
        depth = 1
        while pos < len(text) and depth > 0:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
            pos += 1
        if depth != 0:
            continue
        # Skip qualifiers / annotations / a constructor init list up to
        # the body's `{` — bail at `;` (a declaration, not a definition).
        body_start = None
        paren = 0
        while pos < len(text):
            ch = text[pos]
            if paren == 0 and ch == ";":
                break
            if paren == 0 and ch == "{":
                body_start = pos
                break
            if paren == 0 and ch == "=":      # `= default` / `= delete`
                break
            if ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            pos += 1
        if body_start is None:
            continue
        # Brace-match the body.
        pos = body_start + 1
        depth = 1
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        if depth != 0:
            continue
        start_line = text.count("\n", 0, body_start) + 1
        end_line = text.count("\n", 0, pos) + 1
        # Qualify with the enclosing named namespaces, as the AST backend
        # does, so a root such as internal::ExecuteCascadeSerial resolves.
        qualname = "::".join([ns for begin, end, ns in namespaces
                              if begin <= body_start < end] + [name])
        index.add(Function(qualname, src.rel, start_line, end_line,
                           text[body_start:pos]))


# ----------------------------------------------------------------------
# AST backend (libclang). Builds the same FunctionIndex from the real
# AST; falls back to the lexer on any load/parse failure.
# ----------------------------------------------------------------------

def try_load_cindex():
    try:
        from clang import cindex  # type: ignore
        # Force an early load failure if no libclang shared object.
        cindex.Index.create()
        return cindex
    except Exception:  # pragma: no cover - environment dependent
        return None


def index_with_ast(cindex, root: Path, compile_commands: Path,
                   sources: dict) -> FunctionIndex | None:
    """Builds the function index from libclang cursors. Returns None on
    any failure so the caller can fall back to the lexer backend."""
    try:  # pragma: no cover - exercised only where libclang exists
        db = cindex.CompilationDatabase.fromDirectory(
            str(compile_commands.parent))
        index = cindex.Index.create()
        out = FunctionIndex()
        fn_kinds = {cindex.CursorKind.CXX_METHOD,
                    cindex.CursorKind.FUNCTION_DECL,
                    cindex.CursorKind.CONSTRUCTOR,
                    cindex.CursorKind.DESTRUCTOR}
        by_usr = {}

        def qualified(cursor):
            parts = []
            c = cursor
            while c is not None and c.kind != \
                    cindex.CursorKind.TRANSLATION_UNIT:
                if c.spelling:
                    parts.append(c.spelling)
                c = c.semantic_parent
            return "::".join(reversed(parts))

        def visit(cursor, rel, src):
            for child in cursor.get_children():
                loc = child.location
                if loc.file and Path(loc.file.name).resolve() != \
                        (root / rel).resolve():
                    continue
                if child.kind in fn_kinds and child.is_definition():
                    start = child.extent.start.line
                    end = child.extent.end.line
                    body = "\n".join(src.code_lines[start - 1:end])
                    fn = Function(qualified(child), rel, start, end, body)
                    out.add(fn)
                    by_usr[child.get_usr()] = fn
                visit(child, rel, src)

        for rel, src in sources.items():
            if not rel.endswith(".cc"):
                continue
            cmds = db.getCompileCommands(str(root / rel))
            args = []
            if cmds:
                args = [a for a in list(cmds[0].arguments)[1:]
                        if a not in ("-c", "-o") and not a.endswith(".o")
                        and not a.endswith(".cc")]
            tu = index.parse(str(root / rel), args=args)
            visit(tu.cursor, rel, src)
        # Edges from the AST: CALL_EXPR referenced definitions.
        out.link()  # lexical edges still apply for cross-TU calls
        return out
    except Exception:
        return None


# ----------------------------------------------------------------------
# Rules.
# ----------------------------------------------------------------------

GRAPH_RULE_ROOTS = (
    ("hit-path-no-locks", HIT_PATH_ROOTS),
    ("no-shared-scratch-on-shard-path", SHARD_SCRATCH_ROOTS),
    ("no-unbounded-wait", SERVING_WAIT_ROOTS),
)


def check_roots_resolve(index: FunctionIndex, findings: list):
    """Every root of a call-graph rule must name a function in the tree.
    reachable() skips an unknown root, so a renamed or deleted root would
    otherwise retire its share of the rule without a word."""
    script = Path(__file__).resolve()
    lines = script.read_text().splitlines()
    for rule, roots in GRAPH_RULE_ROOTS:
        for q in roots:
            if index.by_qual.get(q):
                continue
            lineno = next((i for i, text in enumerate(lines, start=1)
                           if f'"{q}"' in text), 1)
            findings.append(Finding(
                "tools/vecube_check.py", lineno, rule,
                f"root {q} resolves to no function in the tree, so the "
                "rule checks nothing from it; point the root list at the "
                "function that now holds that path"))


def check_hit_path(index: FunctionIndex, sources: dict, findings: list):
    for fn in index.reachable(HIT_PATH_ROOTS):
        src = sources.get(fn.rel)
        if src is None:
            continue
        for lineno in range(fn.start_line, fn.end_line + 1):
            if HIT_PATH_BAN_RE.search(src.code(lineno)) and \
                    not src.suppressed(lineno, "hit-path-no-locks"):
                findings.append(Finding(
                    fn.rel, lineno, "hit-path-no-locks",
                    f"blocking/locking call inside {fn.qualname}, which "
                    "is reachable from the ViewCache hit path; reads must "
                    "stay epoch-pinned and lock-free (DESIGN.md §12)"))


def check_shard_scratch(index: FunctionIndex, sources: dict,
                        findings: list):
    for fn in index.reachable(SHARD_SCRATCH_ROOTS):
        src = sources.get(fn.rel)
        if src is None:
            continue
        for lineno in range(fn.start_line, fn.end_line + 1):
            if SHARD_SCRATCH_BAN_RE.search(src.code(lineno)) and \
                    not src.suppressed(lineno,
                                       "no-shared-scratch-on-shard-path"):
                findings.append(Finding(
                    fn.rel, lineno, "no-shared-scratch-on-shard-path",
                    f"locking call inside {fn.qualname}, "
                    "which is reachable from the shard hot path; shards "
                    "must run entirely on their lane's private "
                    "ShardScratch (DESIGN.md §14)"))


def check_unbounded_wait(index: FunctionIndex, sources: dict,
                         findings: list):
    for fn in index.reachable(SERVING_WAIT_ROOTS):
        src = sources.get(fn.rel)
        if src is None:
            continue
        for lineno in range(fn.start_line, fn.end_line + 1):
            if UNBOUNDED_WAIT_RE.search(src.code(lineno)) and \
                    not src.suppressed(lineno, "no-unbounded-wait"):
                findings.append(Finding(
                    fn.rel, lineno, "no-unbounded-wait",
                    f"untimed wait inside {fn.qualname}, which is "
                    "reachable from the serving path; use a bounded "
                    "slice (WaitFor, a timed futex wait) that re-checks "
                    "its condition (DESIGN.md §13)"))


def check_epoch_pin(src: SourceFile, findings: list):
    if not src.rel.startswith("src/"):
        return
    allowed = src.rel in EPOCH_PIN_FILES
    for lineno, code in enumerate(src.code_lines, start=1):
        if not allowed and EPOCH_TOKEN_RE.search(code) and \
                not src.suppressed(lineno, "epoch-pin-raii"):
            findings.append(Finding(
                src.rel, lineno, "epoch-pin-raii",
                "EpochDomain pins may be taken only inside "
                "util/epoch and serve/view_cache; everything else reads "
                "through ViewCache::ReadHandle"))
            continue
        if allowed and src.rel.endswith(".cc") and \
                not src.rel.startswith("src/util/epoch"):
            if ACQUIRE_CALL_RE.search(code) and \
                    not ACQUIRE_RAII_RE.search(code) and \
                    not src.suppressed(lineno, "epoch-pin-raii"):
                findings.append(Finding(
                    src.rel, lineno, "epoch-pin-raii",
                    "EpochDomain::Acquire() must initialize a local "
                    "`Pin` on the same statement (RAII); pins must never "
                    "outlive the enclosing scope"))
        m = PIN_MEMBER_RE.search(code)
        if m and (src.rel, m.group(1)) not in PIN_MEMBER_ALLOWED and \
                not src.rel.startswith("src/util/epoch") and \
                not src.suppressed(lineno, "epoch-pin-raii"):
            findings.append(Finding(
                src.rel, lineno, "epoch-pin-raii",
                f"member `{m.group(1)}` stores an epoch pin beyond "
                "local scope; the only sanctioned pin member is "
                "ViewCache::ReadHandle::pin_"))


def check_order_comment(src: SourceFile, findings: list):
    if not src.rel.startswith("src/"):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if not ORDER_TOKEN_RE.search(code):
            continue
        if src.suppressed(lineno, "order-comment"):
            continue
        window = range(max(1, lineno - ORDER_WINDOW), lineno + 1)
        if any(ORDER_COMMENT_RE.search(src.raw(n)) for n in window):
            continue
        findings.append(Finding(
            src.rel, lineno, "order-comment",
            "memory_order use without an adjacent `// order:` "
            "justification (same line or within the 6 lines above)"))


def check_blocking_under_shard_lock(src: SourceFile, findings: list):
    if src.rel != "src/serve/view_cache.cc":
        return
    text = "\n".join(src.code_lines)
    # Pre-compute brace depth at the start of every line.
    depth_at = [0]
    d = 0
    for code in src.code_lines:
        d += code.count("{") - code.count("}")
        depth_at.append(d)
    for lineno, code in enumerate(src.code_lines, start=1):
        m = SHARD_LOCK_RE.search(code)
        if m is None:
            continue
        decl_depth = depth_at[lineno - 1]
        # Scan to the end of the enclosing scope.
        end = lineno
        while end < len(src.code_lines) and depth_at[end] >= decl_depth:
            end += 1
        for n in range(lineno, end + 1):
            line_code = src.code(n)
            if src.suppressed(n, "no-blocking-under-shard-lock"):
                continue
            if BLOCKING_RE.search(line_code):
                findings.append(Finding(
                    src.rel, n, "no-blocking-under-shard-lock",
                    "blocking call while holding a ViewCache shard "
                    "mutex; drop the lock first (DESIGN.md §12)"))
            elif n != lineno and NESTED_LOCK_RE.search(line_code):
                findings.append(Finding(
                    src.rel, n, "no-blocking-under-shard-lock",
                    "second lock acquired under a shard mutex; the "
                    "shard tier is the innermost lock level "
                    "(DESIGN.md §12)"))


def check_naked_sync(src: SourceFile, findings: list):
    if not src.rel.startswith("src/") or src.rel == SYNC_ALLOWED_FILE:
        return
    thread_ok = src.rel in THREAD_ALLOWED_FILES
    for lineno, code in enumerate(src.code_lines, start=1):
        if NAKED_SYNC_RE.search(code) and \
                not src.suppressed(lineno, "naked-sync-primitives"):
            findings.append(Finding(
                src.rel, lineno, "naked-sync-primitives",
                "raw standard-library synchronization primitive; use "
                "the annotated wrappers in util/sync.h (Mutex, "
                "SharedMutex, MutexLock, ReaderLock, CondVar)"))
        if not thread_ok and NAKED_THREAD_RE.search(code) and \
                not src.suppressed(lineno, "naked-sync-primitives"):
            findings.append(Finding(
                src.rel, lineno, "naked-sync-primitives",
                "std::thread outside util/thread_pool; route work "
                "through ThreadPool/ParallelFor"))


def check_detach(src: SourceFile, findings: list):
    if not src.rel.startswith("src/"):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if DETACH_RE.search(code) and \
                not src.suppressed(lineno, "detached-threads"):
            findings.append(Finding(
                src.rel, lineno, "detached-threads",
                "detached thread; every thread in the tree must be "
                "joined by an owner with a shutdown contract"))


def check_single_flight(src: SourceFile, findings: list):
    if not src.rel.startswith("src/") or src.rel in SINGLE_FLIGHT_FILES:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if SINGLE_FLIGHT_RE.search(code) and \
                not src.suppressed(lineno, "single-flight-in-server"):
            findings.append(Finding(
                src.rel, lineno, "single-flight-in-server",
                "ViewCache single-flight call outside serve/serving and "
                "serve/view_cache; serve misses through ElementServer "
                "(Serve or Resolve) instead of another leader/follower "
                "loop"))


def check_node_encoder(src: SourceFile, findings: list):
    if not src.rel.startswith("src/") or src.rel in ENCODER_FILES:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if (HEAP_CODE_RE.search(code) or NODE_RADIX_RE.search(code)) and \
                not src.suppressed(lineno, "one-node-encoder"):
            findings.append(Finding(
                src.rel, lineno, "one-node-encoder",
                "dyadic node encoding outside core/element_id and "
                "core/graph; read ElementId::code() and encode through "
                "ElementIndexer instead of another encoder copy"))


def load_allowlist(root: Path) -> dict:
    """path -> [justification]; '#' comments and blank lines skipped."""
    entries = {}
    path = root / ALLOWLIST_PATH
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        entries.setdefault(parts[0], []).append(
            parts[1] if len(parts) > 1 else "")
    return entries


def check_escape_hatches(src: SourceFile, allowlist: dict,
                         findings: list):
    if not src.rel.startswith("src/") or src.rel == SYNC_ALLOWED_FILE:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if ESCAPE_HATCH not in code:
            continue
        if src.suppressed(lineno, "escape-hatch-allowlist"):
            continue
        justs = allowlist.get(src.rel, [])
        if not justs or not any(j.strip() for j in justs):
            findings.append(Finding(
                src.rel, lineno, "escape-hatch-allowlist",
                f"{ESCAPE_HATCH} not registered (with a justification) "
                f"in {ALLOWLIST_PATH}"))


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------

def collect_sources(root: Path, paths: list) -> dict:
    """rel-posix-path -> SourceFile for every .h/.cc under src/ (or the
    explicit paths)."""
    files = []
    if paths:
        for p in paths:
            c = Path(p)
            if not c.is_absolute():
                c = root / c
            if c.is_dir():
                files.extend(sorted(f for f in c.rglob("*")
                                    if f.suffix in (".h", ".cc")))
            else:
                files.append(c)
    else:
        files = sorted(f for f in (root / "src").rglob("*")
                       if f.suffix in (".h", ".cc"))
    sources = {}
    for f in files:
        rel = f.resolve().relative_to(root.resolve()).as_posix()
        sources[rel] = SourceFile(rel, f.read_text())
    return sources


def run_rules(root: Path, sources: dict, backend: str,
              compile_commands: Path | None,
              require_roots: bool = False) -> list:
    index = None
    if backend in ("auto", "ast"):
        cindex = try_load_cindex()
        cc = compile_commands
        if cc is None:
            for cand in (root / "build" / "compile_commands.json",
                         root / "compile_commands.json"):
                if cand.exists():
                    cc = cand
                    break
        if cindex is not None and cc is not None:
            index = index_with_ast(cindex, root, cc, sources)
        if index is None and backend == "ast":
            print("vecube_check: AST backend unavailable "
                  "(need clang.cindex + compile_commands.json)",
                  file=sys.stderr)
            sys.exit(2)
    if index is None:
        index = FunctionIndex()
        for src in sources.values():
            index_file_lexer(src, index)
        index.link()

    findings: list = []
    if require_roots:
        check_roots_resolve(index, findings)
    check_hit_path(index, sources, findings)
    check_shard_scratch(index, sources, findings)
    check_unbounded_wait(index, sources, findings)
    allowlist = load_allowlist(root)
    for src in sources.values():
        check_epoch_pin(src, findings)
        check_order_comment(src, findings)
        check_blocking_under_shard_lock(src, findings)
        check_naked_sync(src, findings)
        check_detach(src, findings)
        check_escape_hatches(src, allowlist, findings)
        check_single_flight(src, findings)
        check_node_encoder(src, findings)
    return findings


CANARY_AS_RE = re.compile(r"//\s*vecube-check-as:\s*(\S+)")
CANARY_EXPECT_RE = re.compile(r"//\s*vecube-check-expect:\s*([\w,-]+)")


def run_canaries(root: Path, canary_dir: Path, backend: str) -> int:
    """Self-test: every canary must trip every rule it declares."""
    failures = 0
    canaries = sorted(canary_dir.glob("*.cc"))
    if not canaries:
        print(f"vecube_check: no canaries under {canary_dir}",
              file=sys.stderr)
        return 1
    for path in canaries:
        text = path.read_text()
        as_m = CANARY_AS_RE.search(text)
        exp_m = CANARY_EXPECT_RE.search(text)
        if not as_m or not exp_m:
            print(f"{path}: missing vecube-check-as / "
                  "vecube-check-expect directives", file=sys.stderr)
            failures += 1
            continue
        virtual = as_m.group(1)
        expected = set(exp_m.group(1).split(","))
        sources = {virtual: SourceFile(virtual, text)}
        findings = run_rules(root, sources, backend, None)
        fired = {f.rule for f in findings}
        missing = expected - fired
        if missing:
            print(f"{path.name}: expected rule(s) did not fire: "
                  f"{', '.join(sorted(missing))}", file=sys.stderr)
            failures += 1
        else:
            print(f"{path.name}: tripped {', '.join(sorted(expected))}")
    if failures:
        print(f"vecube_check: {failures} silent canary(ies) — the "
              "checker has lost teeth", file=sys.stderr)
        return 1
    print(f"vecube_check: all {len(canaries)} canaries tripped")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--backend", choices=("auto", "ast", "lexer"),
                        default="auto")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json for the AST backend")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--canaries", default=None,
                        help="run in self-test mode over this directory")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/)")
    args = parser.parse_args()

    if args.list_rules:
        print(" ".join(RULES))
        return 0

    root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parent.parent

    if args.canaries:
        cdir = Path(args.canaries)
        if not cdir.is_absolute():
            cdir = root / cdir
        return run_canaries(root, cdir, args.backend)

    sources = collect_sources(root, args.paths)
    cc = Path(args.compile_commands) if args.compile_commands else None
    # Only a whole-tree run must see every root; explicit paths and the
    # canaries check a slice of it.
    findings = run_rules(root, sources, args.backend, cc,
                         require_roots=not args.paths)
    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"vecube_check: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"vecube_check: clean ({len(sources)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
