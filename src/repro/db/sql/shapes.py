"""The SQL front half's memo: statements keyed by *shape*.

A statement's shape is its text with every value literal replaced by
its kind (int, float or string; :func:`repro.db.sql.lexer.scan_shape`).
Statements that differ only in constants share one shape, which is how
the code-fragment cache already treats literals (runtime parameters of
the generated code). Structural numbers stay verbatim in the key:
``LIMIT``/``OFFSET`` counts and ``CHAR(n)`` widths change the plan, not
a parameter.

The first statement of a shape is parsed as usual and leaves a
:class:`Template`: the parsed statement plus its literal *slots*, each
recording which token it came from and how that token became a value
(number, negated number, ``DATE '…'`` → days, ``INTERVAL '…' DAY`` →
int). It is kept only if the scan's literals are exactly the tokens the
parser read as values, so every statement of the shape parses the same
up to those values. A later statement of the shape is only scanned: its
literal values are copied into the template's tree along the paths that
lead to slots, and everything else is shared. The binder keeps a bound form beside each
template (:class:`repro.db.plan.binder.BoundTemplate`), so the hit path
also skips binding.

The memo is a bounded LRU (:data:`MEMO_CAPACITY` shapes) shared by the
process: templates are immutable functions of their key, so sharing is
safe, and the bound forms beside them hold tables only weakly.
``Parser(sql).parse_statement()`` stays uncached: it is the referee the
tests and the SQL fuzzer check the memo against.
"""

from __future__ import annotations

import dataclasses
import datetime
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.expr import Literal
from repro.db.sql.nodes import SelectStmt

#: Shapes the memo keeps; the least recently used one goes first.
MEMO_CAPACITY = 512

_EPOCH = datetime.date(1970, 1, 1)


def literal_value(kind: str, text: str) -> Any:
    """The value of a literal token of slot ``kind``. A bad DATE or
    INTERVAL raises :class:`ValueError`, exactly as the parser meets it."""
    if kind == "int" or kind == "interval":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "date":
        return (datetime.date.fromisoformat(text) - _EPOCH).days
    return text


@dataclass
class Slot:
    """One value literal of a parsed statement.

    ``position`` is the literal's offset, ``kind`` says how its text
    became a value and ``negations`` how often a unary minus then negated
    it. ``node`` is the :class:`Literal` holding the value in the tree,
    or, for a member of an ``IN (…)`` list, the :class:`InList` whose
    ``values[member]`` holds it.
    """

    position: int
    kind: str
    node: Any
    negations: int = 0
    member: Optional[int] = None


class Template:
    """The parsed first statement of a shape and its literal slots."""

    def __init__(self, stmt: Any, slots: Sequence[Slot], has_subquery: bool):
        self.stmt = stmt
        self.slots: Tuple[Slot, ...] = tuple(slots)
        #: Folding substitutes query results, so such statements bind
        #: fresh every time.
        self.has_subquery = has_subquery
        #: The binder's bound form of this shape (None until the shape
        #: repeats, and again after its tables change).
        self.bound: Any = None
        self._recipe: Optional[Recipe] = None
        #: False until the shape repeats; the recipe stays None if a slot
        #: is missing from ``stmt`` (not expected; the memo then parses
        #: that shape fresh).
        self._compiled = False

    def instantiate(self, literals: Sequence[str]) -> Any:
        """The template statement holding a statement's literals (their
        source texts from :func:`~repro.db.sql.lexer.scan_shape`), or None
        when one does not convert (the parser then raises its error).

        A ``SELECT`` carries ``(self, inputs)`` for the binder: per slot
        the :class:`Literal` that fills it, or an IN-list member's value.
        """
        select = type(self.stmt) is SelectStmt
        if not self._compiled:  # on the shape's first repeat
            roots = _select_roots(self.stmt) if select else (self.stmt,)
            self._recipe, self._compiled = Recipe.of(roots, self.slots), True
        if self._recipe is None:
            return None
        inputs: List[Any] = []
        for slot, text in zip(self.slots, literals):
            if text[0] == "'":
                text = text[1:-1].replace("''", "'")
            try:
                value = literal_value(slot.kind, text)
            except ValueError:
                return None
            for _ in range(slot.negations):
                value = -value
            inputs.append(value if slot.member is not None else Literal(value))
        parts = self._recipe.run(inputs)
        if select:
            return SelectStmt(*parts, template=(self, tuple(inputs)))
        return parts[0]


class ShapeMemo:
    """A bounded LRU of :class:`Template`\\ s keyed by shape."""

    def __init__(self):
        self._templates: "OrderedDict[Tuple[str, ...], Template]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._templates)

    def get(self, key: Tuple[str, ...]) -> Optional[Template]:
        template = self._templates.get(key)
        if template is not None:
            self._templates.move_to_end(key)
        return template

    def put(self, key: Tuple[str, ...], template: Template) -> None:
        self._templates[key] = template
        if len(self._templates) > MEMO_CAPACITY:
            self._templates.popitem(last=False)


#: The process-wide memo behind :func:`repro.db.sql.parser.parse_statement`.
SHAPES = ShapeMemo()


# ----------------------------------------------------------------------
# Copy-on-path over the frozen statement and expression trees.
# ----------------------------------------------------------------------
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _fields(cls: type) -> Tuple[str, ...]:
    names = _FIELDS.get(cls)
    if names is None:
        names = _FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(cls) if f.init
        )
    return names


def _select_roots(stmt: SelectStmt) -> Tuple[Any, ...]:
    return tuple(getattr(stmt, n) for n in _fields(SelectStmt) if n != "template")


def _as_tuple(*items: Any) -> Tuple[Any, ...]:
    return items


class Recipe:
    """How to copy a tree with new values in its slots.

    Only the nodes on a path from a root down to a slot are rebuilt, in
    post order; every other subtree is shared with the source. Each step
    is ``(constructor, args)``, an arg being ``(True, register)`` or
    ``(False, constant)``; registers ``0..n-1`` hold the slot inputs and
    step ``k`` writes register ``n + k``.
    """

    def __init__(self, steps, outputs):
        self.steps = steps
        self.outputs = outputs

    @classmethod
    def of(cls, roots: Sequence[Any], slots: Sequence[Any]) -> Optional["Recipe"]:
        """The recipe for ``roots`` whose slot ``i`` is ``slots[i].node``
        (an :class:`InList` holding the value at ``values[member]`` when
        ``slots[i].member`` is set), or None if some slot is missing."""
        leaves: Dict[int, int] = {}
        members: Dict[int, List[Tuple[int, int]]] = {}
        for i, slot in enumerate(slots):
            if slot.member is None:
                leaves[id(slot.node)] = i
            else:
                members.setdefault(id(slot.node), []).append((slot.member, i))
        steps: List[Tuple[Any, Tuple[Tuple[bool, Any], ...]]] = []
        seen: Dict[int, Tuple[bool, Any]] = {}
        used: set = set()
        n = len(slots)

        def emit(ctor, args) -> Tuple[bool, Any]:
            steps.append((ctor, tuple(args)))
            return True, n + len(steps) - 1

        def walk(node: Any) -> Tuple[bool, Any]:
            key = id(node)
            if key in leaves:
                used.add(leaves[key])
                return True, leaves[key]
            if key in seen:
                return seen[key]
            if type(node) is tuple:
                ctor, args = _as_tuple, [walk(x) for x in node]
            elif dataclasses.is_dataclass(node) and not isinstance(node, type):
                ctor = type(node)
                args = [walk(getattr(node, name)) for name in _fields(ctor)]
                if key in members:  # an IN list: refill its value slots
                    values = [(False, v) for v in node.values]
                    for member, i in members[key]:
                        values[member] = (True, i)
                        used.add(i)
                    args[_fields(ctor).index("values")] = emit(_as_tuple, values)
            else:
                ctor, args = None, ()
            out = emit(ctor, args) if any(ref for ref, _ in args) else (False, node)
            seen[key] = out
            return out

        outputs = tuple(walk(root) for root in roots)
        if len(used) != n:
            return None
        return cls(tuple(steps), outputs)

    def run(self, inputs: Sequence[Any]) -> List[Any]:
        """The copied roots, given one input per slot: the node that
        replaces a slot's node, or the raw value of an IN-list member."""
        regs = list(inputs)
        for ctor, args in self.steps:
            regs.append(ctor(*[regs[a] if ref else a for ref, a in args]))
        return [regs[a] if ref else a for ref, a in self.outputs]
