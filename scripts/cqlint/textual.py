"""Dependency-free fallback backend.

Extracts the model.Facts from blanked source text (lex.Source) with
regexes plus exact brace matching. Coarser than the libclang backend —
receiver types are resolved from visible declarations instead of the
real type system — but it runs anywhere Python runs, so local GCC-only
machines still get the full rule set.
"""

from __future__ import annotations

import re
from pathlib import Path

from lex import Source, parse_sig, split_commas
from model import (CallSite, EnumInfo, Facts, GuardedField, LockScope,
                   RefReturn, SwitchStmt, WorkerLambda)

ENUM_RE = re.compile(r"\benum\s+class\s+(\w+)\s*(?::[^{;]+)?\{")
VARIANT_RE = re.compile(r"\b(k[A-Z]\w*)\b")
GUARDED_RE = re.compile(r"\b([A-Za-z_]\w*)\s+CQ_(?:PT_)?GUARDED_BY\(\s*(\w+)\s*\)")
RETURN_RE = re.compile(r"\breturn\b([^;]*);")
LOCK_GUARD_RE = re.compile(
    r"\b(?:common::)?LockGuard\s+\w+\s*[({]\s*([A-Za-z_][\w.\->]*)"
)
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
WAIT_RE = re.compile(r"\b[\w.\->]*(?:\.|->)wait\s*\(\s*([A-Za-z_]\w*)")
RUN_ALL_RE = re.compile(r"\b(?:\.|->)\s*run_all\s*\(")
LAMBDA_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^()]*\))?\s*(?:mutable\b)?[^{;]*?\{")
SWITCH_RE = re.compile(r"\bswitch\s*\(")
CASE_RE = re.compile(r"\bcase\s+((?:\w+::)*)(k[A-Z]\w*)\s*:")
DEFAULT_RE = re.compile(r"\bdefault\s*:")
LOUD_DEFAULT_RE = re.compile(
    r"\bthrow\b|\bfail\s*\(|\babort\s*\(|\bunreachable\b|assert\s*\(\s*false"
)
IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")


def _match_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


class TextualBackend:
    name = "textual"

    def __init__(self, repo: Path, paths: list[Path]):
        self.repo = repo
        self.paths = paths

    def extract(self) -> Facts:
        facts = Facts()
        sources = []
        for p in self.paths:
            try:
                sources.append(Source(p.relative_to(self.repo).as_posix(),
                                      p.read_text(errors="replace")))
            except OSError:
                continue
        for src in sources:
            self._enums(src, facts)
            self._guarded(src, facts)
        for src in sources:
            self._ref_returns(src, facts)
            self._lock_scopes(src, facts)
            self._worker_lambdas(src, facts)
            self._switches(src, facts)
        return facts

    # ------------------------------------------------------------- enums --
    def _enums(self, src: Source, facts: Facts) -> None:
        for m in ENUM_RE.finditer(src.text):
            open_idx = m.end() - 1
            close = src.close_of.get(open_idx)
            if close is None:
                continue
            body = src.text[open_idx + 1 : close]
            variants = []
            for item in split_commas(body):
                vm = VARIANT_RE.match(item.strip())
                if vm:
                    variants.append(vm.group(1))
            if not variants:
                continue
            variants = tuple(variants)
            cls = src.enclosing_class(m.start())
            qualified = f"{cls}::{m.group(1)}" if cls else m.group(1)
            facts.enums.append(EnumInfo(m.group(1), qualified, variants,
                                        src.path, src.line_of(m.start())))

    # --------------------------------------------------- guarded fields --
    def _guarded(self, src: Source, facts: Facts) -> None:
        for m in GUARDED_RE.finditer(src.text):
            facts.guarded_fields.append(GuardedField(
                src.enclosing_class(m.start()), m.group(1), m.group(2),
                src.path, src.line_of(m.start())))

    # ------------------------------------------------------ ref returns --
    def _ref_returns(self, src: Source, facts: Facts) -> None:
        for open_idx, close_idx in list(src.close_of.items()):
            sig = src.function_sig_before(open_idx)
            if sig is None:
                continue
            ret, cls, name = parse_sig(sig)
            if not name or ("&" not in ret and "*" not in ret):
                continue
            if not cls:
                cls = src.enclosing_class(open_idx)
            body = src.text[open_idx:close_idx]
            names: set[str] = set()
            returns_something = False
            for rm in RETURN_RE.finditer(body):
                expr = rm.group(1)
                if expr.strip():
                    returns_something = True
                names.update(IDENT_RE.findall(expr))
            if returns_something:
                facts.ref_returns.append(RefReturn(
                    cls, name, ret, frozenset(names), src.path,
                    src.line_of(open_idx)))

    # ------------------------------------------------------ lock scopes --
    def _lock_scopes(self, src: Source, facts: Facts) -> None:
        for m in LOCK_GUARD_RE.finditer(src.text):
            blocks = src.enclosing_blocks(m.start())
            if not blocks:
                continue
            region_end = blocks[0][1]
            region = src.text[m.end() : region_end]
            base = m.end()
            scope = LockScope(m.group(1), src.path, src.line_of(m.start()),
                              src.line_of(region_end))
            for cm in CALL_RE.finditer(region):
                scope.calls.append(CallSite(src.line_of(base + cm.start()),
                                            cm.group(1)))
            # Stream construction blocks without looking like a call.
            for sm in re.finditer(r"\b([io]?fstream)\b", region):
                scope.calls.append(CallSite(src.line_of(base + sm.start()),
                                            sm.group(1)))
            for wm in WAIT_RE.finditer(region):
                scope.waits.append((src.line_of(base + wm.start()), wm.group(1)))
            facts.lock_scopes.append(scope)

    # -------------------------------------------------- worker lambdas --
    def _worker_lambdas(self, src: Source, facts: Facts) -> None:
        for m in RUN_ALL_RE.finditer(src.text):
            fn = src.enclosing_function(m.start())
            fn_sig, fn_open, fn_close = ("", 0, len(src.text)) if fn is None else fn[:3]
            _, _, fn_name = parse_sig(fn_sig) if fn_sig else ("", "", "")
            arg_open = src.text.find("(", m.end() - 1)
            arg_close = _match_paren(src.text, arg_open)
            arg = src.text[arg_open + 1 : arg_close]
            spans: list[tuple[int, int]] = [(arg_open, arg_close)]
            # A task vector handed to run_all: every lambda pushed into it
            # inside this function is a worker.
            vec = re.match(r"\s*(?:std::move\(\s*)?([A-Za-z_]\w*)", arg)
            if vec and "[" not in arg:
                push = re.compile(rf"\b{re.escape(vec.group(1))}\s*\.\s*"
                                  r"(?:emplace_back|push_back)\s*\(")
                for pm in push.finditer(src.text, fn_open, fn_close):
                    p_open = src.text.find("(", pm.end() - 1)
                    spans.append((p_open, _match_paren(src.text, p_open)))
            fn_body_before = src.text[fn_open:]
            for s_open, s_close in spans:
                span_text = src.text[s_open : s_close + 1]
                for lm in LAMBDA_RE.finditer(span_text):
                    captures = tuple(c for c in split_commas(lm.group(1)) if c)
                    if not captures:
                        continue
                    types: dict[str, str] = {}
                    for cap in captures:
                        if cap.startswith("&") and len(cap) > 1:
                            types[cap] = self._decl_type(
                                src, cap[1:].strip(), s_open + lm.start())
                    facts.worker_lambdas.append(WorkerLambda(
                        src.path, src.line_of(s_open + lm.start()), captures,
                        types, fn_name or "<file scope>"))

    def _decl_type(self, src: Source, name: str, before_idx: int) -> str:
        """Best-effort declared type of `name`, looking at declarations
        visible before `before_idx` (then anywhere in the file)."""
        decl = re.compile(
            rf"\b((?:const\s+)?[A-Za-z_][\w:]*(?:<[^;()]*>)?)\s*[&*]?\s+"
            rf"{re.escape(name)}\s*[;=({{]")
        for window in (src.text[:before_idx], src.text):
            candidates = [d for d in decl.finditer(window)
                          if d.group(1) not in ("return", "delete", "new")]
            if candidates:
                return candidates[-1].group(1)
        return ""

    # --------------------------------------------------------- switches --
    def _switches(self, src: Source, facts: Facts) -> None:
        for m in SWITCH_RE.finditer(src.text):
            cond_open = src.text.find("(", m.end() - 1)
            cond_close = _match_paren(src.text, cond_open)
            body_open = src.text.find("{", cond_close)
            if body_open < 0:
                continue
            body_close = src.close_of.get(body_open)
            if body_close is None:
                continue
            labels: list[tuple[str, str]] = []   # (enum qualifier tail, variant)
            has_default, default_idx = False, -1
            depth = 0
            i = body_open + 1
            while i < body_close:
                c = src.text[i]
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                elif depth == 0:
                    if cm := CASE_RE.match(src.text, i):
                        quals = [q for q in cm.group(1).split("::") if q]
                        labels.append((quals[-1] if quals else "", cm.group(2)))
                        i = cm.end()
                        continue
                    if (not has_default) and (dm := DEFAULT_RE.match(src.text, i)):
                        has_default, default_idx = True, i
                        i = dm.end()
                        continue
                i += 1
            enum_names = [q for q, _ in labels if q]
            if not enum_names:
                continue  # switch over char/int/etc — out of scope
            enum_name = max(set(enum_names), key=enum_names.count)
            loud = False
            if has_default:
                # Default body: up to the next depth-0 case label or the
                # switch's closing brace.
                rest = src.text[default_idx:body_close]
                nxt = CASE_RE.search(rest)
                body = rest[: nxt.start()] if nxt else rest
                loud = bool(LOUD_DEFAULT_RE.search(body))
            facts.switches.append(SwitchStmt(
                src.path, src.line_of(m.start()), enum_name,
                tuple(v for _, v in labels), has_default, loud,
                src.line_of(default_idx) if has_default else 0))
