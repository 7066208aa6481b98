"""Backend-neutral fact model.

Each backend (clang_backend.py, textual.py) reduces the tree to these
syntax facts; rules.py holds the policy that turns facts into findings.
Keeping the policy out of the backends is what lets one negative fixture
prove a rule under either backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EnumInfo:
    """One `enum class` in the project, e.g. Expr::Kind."""

    name: str                 # unqualified name ("Kind")
    qualified: str            # best-effort qualification ("Expr::Kind")
    variants: tuple[str, ...]  # ("kCompare", "kBetween", ...)
    file: str
    line: int


@dataclass
class GuardedField:
    """A field annotated CQ_GUARDED_BY(mutex)."""

    class_name: str
    field_name: str
    mutex: str
    file: str
    line: int


@dataclass
class RefReturn:
    """A method whose return type is a reference or pointer, together
    with every identifier its return statements mention."""

    class_name: str           # "" for free functions
    method: str
    ret_type: str
    returned_names: frozenset[str]
    file: str
    line: int


@dataclass
class CallSite:
    line: int
    text: str                 # callee spelling, e.g. "run_all", "sleep_for"


@dataclass
class LockScope:
    """Lexical region where a LockGuard over `mutex` is alive."""

    mutex: str
    file: str
    line: int                 # guard construction
    end_line: int
    calls: list[CallSite] = field(default_factory=list)
    #: condition-variable waits inside the region: (line, mutex argument)
    waits: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class WorkerLambda:
    """A lambda submitted (directly or via a task vector) to
    ThreadPool::run_all."""

    file: str
    line: int
    captures: tuple[str, ...]   # raw capture items: "this", "&outcomes", "=", "x = std::move(y)"
    #: declared type text for by-reference captures, resolved from the
    #: enclosing function where the backend can ("" when unknown)
    capture_types: dict[str, str]
    enclosing: str              # enclosing function, for the finding symbol


@dataclass
class SwitchStmt:
    """A switch whose case labels name project enum variants."""

    file: str
    line: int
    enum_name: str              # label qualifier tail ("Kind")
    labels: tuple[str, ...]     # variant names covered ("kCompare", ...)
    has_default: bool
    #: a default is "loud" when its body visibly refuses the value
    #: (throw / fail( / abort / unreachable) instead of swallowing it
    default_loud: bool
    default_line: int


@dataclass
class Facts:
    """Everything the rules need, for one analysis run."""

    enums: list[EnumInfo] = field(default_factory=list)
    guarded_fields: list[GuardedField] = field(default_factory=list)
    ref_returns: list[RefReturn] = field(default_factory=list)
    lock_scopes: list[LockScope] = field(default_factory=list)
    worker_lambdas: list[WorkerLambda] = field(default_factory=list)
    switches: list[SwitchStmt] = field(default_factory=list)

    def merge(self, other: "Facts") -> None:
        self.enums.extend(other.enums)
        self.guarded_fields.extend(other.guarded_fields)
        self.ref_returns.extend(other.ref_returns)
        self.lock_scopes.extend(other.lock_scopes)
        self.worker_lambdas.extend(other.worker_lambdas)
        self.switches.extend(other.switches)


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str                  # repo-relative posix path
    line: int
    symbol: str                # symbol the baseline matches against
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule}: {self.message} [{self.symbol}]"
