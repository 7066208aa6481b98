"""libclang backend — semantic fact extraction over clang.cindex.

Parses every translation unit listed in the exported
compile_commands.json (plus standalone files, e.g. the negative
fixtures) and reduces the AST to model.Facts. Where the textual backend
guesses types from visible declarations, this backend reads them off the
real type system: a worker capture is typed by its declaration, a switch
by the enum declaration of its condition type.

The backend raises BackendUnavailable when python-clang or a loadable
libclang shared object is missing; the CLI then falls back to the
textual backend (or fails under --require-clang, as CI runs it).
"""

from __future__ import annotations

import glob
import os
import re
from pathlib import Path

from model import (CallSite, EnumInfo, Facts, GuardedField, LockScope,
                   RefReturn, SwitchStmt, WorkerLambda)

try:  # deferred so `import clang_backend` itself never hard-fails
    import clang.cindex as ci
except ImportError:  # pragma: no cover - exercised on machines w/o bindings
    ci = None


class BackendUnavailable(RuntimeError):
    pass


def find_libclang() -> str | None:
    """Probe for a libclang shared object, newest pinned version first.
    CQLINT_LIBCLANG overrides (CI pins it to the apt/pip-installed one)."""
    explicit = os.environ.get("CQLINT_LIBCLANG")
    if explicit:
        return explicit if Path(explicit).exists() else None
    from __init__ import PINNED_LIBCLANG  # noqa: PLC0415

    patterns = []
    for major in sorted(PINNED_LIBCLANG, reverse=True):
        patterns += [
            f"/usr/lib/llvm-{major}/lib/libclang.so*",
            f"/usr/lib/llvm-{major}/lib/libclang-{major}*.so*",
            f"/usr/lib/x86_64-linux-gnu/libclang-{major}*.so*",
        ]
    patterns.append("/usr/lib/x86_64-linux-gnu/libclang.so*")
    for pat in patterns:
        hits = sorted(glob.glob(pat))
        if hits:
            return hits[0]
    return None


def make_index() -> "ci.Index":
    if ci is None:
        raise BackendUnavailable("python3 'clang' bindings not installed")
    if not ci.Config.loaded:
        lib = find_libclang()
        if lib is None:
            raise BackendUnavailable("no libclang shared object found "
                                     "(set CQLINT_LIBCLANG)")
        ci.Config.set_library_file(lib)
    try:
        return ci.Index.create()
    except Exception as exc:  # LibclangError has varied types per version
        raise BackendUnavailable(f"libclang failed to load: {exc}") from exc


class ClangBackend:
    name = "clang"

    def __init__(self, repo: Path, paths: list[Path], compdb_dir: Path | None):
        self.repo = repo
        self.paths = paths
        self.compdb_dir = compdb_dir
        self.index = make_index()
        self._seen: set[tuple] = set()

    # ------------------------------------------------------------ driving --
    def extract(self) -> Facts:
        facts = Facts()
        compdb = None
        if self.compdb_dir is not None and ci is not None:
            try:
                compdb = ci.CompilationDatabase.fromDirectory(str(self.compdb_dir))
            except ci.CompilationDatabaseError:
                compdb = None
        wanted = {p.resolve() for p in self.paths}
        parsed: set[Path] = set()
        if compdb is not None:
            for cmd in compdb.getAllCompileCommands():
                src = Path(cmd.directory, cmd.filename).resolve()
                if src not in wanted:
                    continue
                args = self._filter_args(list(cmd.arguments))
                self._parse_into(src, args, facts)
                parsed.add(src)
        fallback_args = ["-std=c++20", f"-I{self.repo / 'src'}", "-xc++"]
        for p in sorted(wanted - parsed):
            if p.suffix in (".cpp", ".cc"):
                self._parse_into(p, fallback_args, facts)
            elif p.suffix in (".hpp", ".h") and p not in parsed:
                # Headers reached through no TU (fixtures): parse directly.
                self._parse_into(p, fallback_args + ["-xc++-header"], facts)
        return facts

    @staticmethod
    def _filter_args(args: list[str]) -> list[str]:
        out, skip = [], True  # first arg is the compiler itself
        it = iter(args)
        next(it, None)
        for a in it:
            if a in ("-c", "-o"):
                next(it, None) if a == "-o" else None
                continue
            if a.endswith((".cpp", ".cc", ".o")):
                continue
            out.append(a)
        out.append("-Wno-everything")  # diagnostics are not this tool's job
        return out

    def _parse_into(self, path: Path, args: list[str], facts: Facts) -> None:
        try:
            tu = self.index.parse(str(path), args=args)
        except ci.TranslationUnitLoadError:
            return
        self._walk_tu(tu, facts)

    # ------------------------------------------------------------ walking --
    def _rel(self, cursor) -> str | None:
        f = cursor.location.file
        if f is None:
            return None
        try:
            return Path(f.name).resolve().relative_to(self.repo).as_posix()
        except ValueError:
            return None

    def _once(self, *key) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _tokens(self, cursor) -> list[str]:
        return [t.spelling for t in cursor.get_tokens()]

    def _walk_tu(self, tu, facts: Facts) -> None:
        K = ci.CursorKind
        fn_stack: list = []    # enclosing function-ish cursors
        comp_stack: list = []  # enclosing compound statements

        def enclosing_name() -> str:
            if not fn_stack:
                return "<file scope>"
            c = fn_stack[-1]
            parent = c.semantic_parent
            if parent is not None and parent.kind in (
                    K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                return f"{parent.spelling}::{c.spelling}"
            return c.spelling or "<file scope>"

        def visit(cursor):
            rel = self._rel(cursor)
            in_fn = cursor.kind in (K.CXX_METHOD, K.FUNCTION_DECL,
                                    K.CONSTRUCTOR, K.DESTRUCTOR,
                                    K.FUNCTION_TEMPLATE)
            in_comp = cursor.kind == K.COMPOUND_STMT
            if in_fn:
                fn_stack.append(cursor)
            if in_comp:
                comp_stack.append(cursor)
            if rel is not None:
                self._on_cursor(cursor, rel, facts, fn_stack, comp_stack,
                                enclosing_name)
            for child in cursor.get_children():
                visit(child)
            if in_fn:
                fn_stack.pop()
            if in_comp:
                comp_stack.pop()

        visit(tu.cursor)

    # ------------------------------------------------------- per-cursor --
    def _on_cursor(self, c, rel: str, facts: Facts, fn_stack, comp_stack,
                   enclosing_name):
        K = ci.CursorKind
        line = c.location.line
        if c.kind == K.ENUM_DECL and c.spelling:
            variants = tuple(ch.spelling for ch in c.get_children()
                             if ch.kind == K.ENUM_CONSTANT_DECL)
            if variants and self._once("enum", c.spelling, variants):
                parent = c.semantic_parent
                qual = (f"{parent.spelling}::{c.spelling}"
                        if parent is not None and parent.kind in
                        (K.CLASS_DECL, K.STRUCT_DECL) else c.spelling)
                facts.enums.append(EnumInfo(c.spelling, qual, variants, rel, line))
        elif c.kind == K.FIELD_DECL:
            self._field(c, rel, line, facts)
        elif c.kind in (K.CXX_METHOD, K.FUNCTION_DECL) and c.is_definition():
            self._ref_return(c, rel, line, facts)
        elif c.kind == K.VAR_DECL and "LockGuard" in c.type.spelling:
            self._lock_scope(c, rel, line, facts, comp_stack)
        elif c.kind == K.CALL_EXPR and c.spelling == "run_all":
            self._workers(c, rel, facts, fn_stack, enclosing_name)
        elif c.kind == K.SWITCH_STMT:
            self._switch(c, rel, line, facts)

    def _field(self, c, rel, line, facts: Facts) -> None:
        toks = self._tokens(c)
        for i, t in enumerate(toks):
            if "GUARDED_BY" in t and i + 2 < len(toks) and toks[i + 1] == "(":
                cls = c.semantic_parent.spelling if c.semantic_parent else ""
                if self._once("guard", cls, c.spelling):
                    facts.guarded_fields.append(GuardedField(
                        cls, c.spelling, toks[i + 2], rel, line))
                break

    def _ref_return(self, c, rel, line, facts: Facts) -> None:
        T = ci.TypeKind
        if c.result_type.kind not in (T.LVALUEREFERENCE, T.RVALUEREFERENCE,
                                      T.POINTER):
            return
        K = ci.CursorKind
        names: set[str] = set()
        has_return = False

        def grab(cur):
            nonlocal has_return
            if cur.kind == K.RETURN_STMT:
                has_return = True
                for d in cur.walk_preorder():
                    if d.kind in (K.MEMBER_REF_EXPR, K.DECL_REF_EXPR) and d.spelling:
                        names.add(d.spelling)
                return
            for ch in cur.get_children():
                grab(ch)

        grab(c)
        if not has_return:
            return
        parent = c.semantic_parent
        cls = (parent.spelling if parent is not None and parent.kind in
               (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE) else "")
        if self._once("refret", cls, c.spelling, rel, line):
            facts.ref_returns.append(RefReturn(
                cls, c.spelling, c.result_type.spelling, frozenset(names),
                rel, line))

    def _lock_scope(self, c, rel, line, facts: Facts, comp_stack) -> None:
        toks = self._tokens(c)
        mutex = ""
        for i, t in enumerate(toks):
            if t in ("(", "{") and i + 1 < len(toks):
                mutex = toks[i + 1]
                break
        if not mutex or not self._once("lock", rel, line):
            return
        scope = LockScope(mutex, rel, line, line)
        # The guard lives to the end of the innermost compound statement it
        # was declared in — calls are filtered to [decl line, compound end].
        walk_root = comp_stack[-1] if comp_stack else (
            c.lexical_parent if c.lexical_parent is not None else c)
        region_end = walk_root.extent.end.line if walk_root.extent else line
        scope.end_line = max(region_end, line)
        K = ci.CursorKind
        for d in walk_root.walk_preorder():
            if d.kind != K.CALL_EXPR or not d.spelling:
                continue
            dl = d.location.line
            if dl < line or dl > scope.end_line:
                continue
            scope.calls.append(CallSite(dl, d.spelling))
            if d.spelling == "wait":
                args = list(d.get_arguments())
                if args:
                    arg_toks = self._tokens(args[0])
                    if arg_toks:
                        scope.waits.append((dl, arg_toks[0]))
        facts.lock_scopes.append(scope)

    def _workers(self, c, rel, facts: Facts, fn_stack, enclosing_name) -> None:
        if not fn_stack:
            return
        fn = fn_stack[-1]
        K = ci.CursorKind
        for lam in fn.walk_preorder():
            if lam.kind != K.LAMBDA_EXPR:
                continue
            lrel = self._rel(lam)
            if lrel is None or not self._once("lambda", lrel, lam.location.line):
                continue
            toks = self._tokens(lam)
            captures = self._capture_items(toks)
            if not captures:
                continue
            types: dict[str, str] = {}
            for cap in captures:
                if cap.startswith("&") and len(cap) > 1:
                    types[cap] = self._local_type(fn, cap[1:].strip())
            facts.worker_lambdas.append(WorkerLambda(
                lrel, lam.location.line, tuple(captures), types,
                enclosing_name()))

    @staticmethod
    def _capture_items(toks: list[str]) -> list[str]:
        if not toks or toks[0] != "[":
            return []
        depth, items, cur = 0, [], []
        for t in toks:
            if t == "[":
                depth += 1
                if depth == 1:
                    continue
            if t == "]":
                depth -= 1
                if depth == 0:
                    break
            if depth == 0:
                continue
            if t == "," and depth == 1:
                items.append(" ".join(cur))
                cur = []
            else:
                cur.append(t)
        if cur:
            items.append(" ".join(cur))
        return [i for i in (x.strip().replace("& ", "&") for x in items) if i]

    @staticmethod
    def _local_type(fn, name: str) -> str:
        K = ci.CursorKind
        for d in fn.walk_preorder():
            if d.kind in (K.VAR_DECL, K.PARM_DECL) and d.spelling == name:
                return d.type.spelling
        return ""

    def _switch(self, c, rel, line, facts: Facts) -> None:
        K = ci.CursorKind
        children = list(c.get_children())
        if len(children) < 2:
            return
        cond, body = children[0], children[-1]
        enum_decl = cond.type.get_declaration()
        if enum_decl is None or enum_decl.kind != K.ENUM_DECL:
            return
        enum_name = enum_decl.spelling
        labels: list[str] = []
        has_default, default_line, loud = False, 0, False
        for st in body.walk_preorder():
            if st.kind == K.CASE_STMT:
                head = next(iter(st.get_children()), None)
                if head is not None:
                    for d in head.walk_preorder():
                        if d.kind == K.DECL_REF_EXPR and d.spelling.startswith("k"):
                            labels.append(d.spelling)
                            break
            elif st.kind == K.DEFAULT_STMT:
                has_default = True
                default_line = st.location.line
                toks = " ".join(self._tokens(st))
                loud = bool(re.search(
                    r"\bthrow\b|\bfail\s*\(|\babort\b|unreachable", toks))
        if not labels or not self._once("switch", rel, line):
            return
        facts.switches.append(SwitchStmt(
            rel, line, enum_name, tuple(labels), has_default, loud,
            default_line))
