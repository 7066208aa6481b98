"""cqlint — whole-project semantic analysis for the CQ engine.

The analyzer extracts a backend-neutral fact model from every translation
unit under src/ (see model.py) and runs the four rules in rules.py over
it. Two backends produce the facts:

  clang    libclang (clang.cindex) over the exported
           build/compile_commands.json — the authoritative backend, used
           by CI. Pinned major version: see PINNED_LIBCLANG.
  textual  a dependency-free lexer/scope-tracker fallback (textual.py)
           for machines without libclang. Same rules, same fixtures,
           slightly coarser type resolution.

Entry points:
  python3 scripts/cqlint/cqlint.py          (or scripts/run_cqlint.sh)
  python3 scripts/cqlint/cqlint.py --self-test
"""

__version__ = "1.0"

# The libclang major versions the clang backend is tested against; probe
# order in clang_backend.find_libclang(). CI installs the first entry.
PINNED_LIBCLANG = (14, 15, 16, 17, 18)
