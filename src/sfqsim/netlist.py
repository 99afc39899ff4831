"""JSIM-style netlist front end for Josephson junction circuits.

Supported grammar (line oriented, element keys case-insensitive, "*" or "#"
comment lines, inline "#" comments allowed):

    B<name> <n+> <n-> <model> [area=<v>]
    L<name> <n+> <n-> <value>
    R<name> <n+> <n-> <value>
    I<name> <n+> <n-> dc <value> | pwl(<t> <v> ...) | pulse(<t0> <amp> <width>)
    X<name> <nodes...> <subckt>
    .model <name> jj(icrit=<v>[, cap=<v>][, rn=<v>][, r0=<v>])
    .subckt <name> <ports...> ... .ends
    .tran <step> <stop> [<start>]
    .print <v(node)|phase(Bname)|i(elem)> ...

Values accept engineering suffixes f/p/n/u/m/k/meg; suffixes resolve by
decimal exponent shift, so "2.09p" is exactly the literal 2.09e-12. Node "0"
is ground. A first line that does not begin with an element key or directive
is kept as the netlist title (SPICE convention).

Every source is a PWL: "dc v" is the one point (0, v) and "pulse(t0 amp w)"
the triangle (t0, 0), (t0 + w/2, amp), (t0 + w, 0); source times must be
finite and strictly increasing. At most one .tran line is allowed. A .print
line is checked for syntax and otherwise ignored: the writers emit every
column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

GROUND = "0"

SUFFIX_EXPONENTS = {
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
    "k": 3,
    "meg": 6,
}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+))(?:[eE]([+-]?\d+))?(meg|f|p|n|u|m|k)?$",
    re.IGNORECASE,
)


class NetlistError(ValueError):
    """Parse, validation, or elaboration failure, with a line number when known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def parse_value(token: str, lineno: int | None = None) -> float:
    """Parse a numeric literal with an optional engineering suffix into SI units.

    The suffix shifts the decimal exponent before conversion, so the result
    is the float nearest the decimal literal (e.g. "2.09p" == 2.09e-12).
    Literals that overflow to infinity are rejected.
    """
    m = _VALUE_RE.match(token.strip())
    if not m:
        raise NetlistError(f"malformed value {token!r}", lineno)
    mantissa, exponent, suffix = m.groups()
    exp = int(exponent) if exponent else 0
    if suffix:
        exp += SUFFIX_EXPONENTS[suffix.lower()]
    value = float(f"{mantissa}e{exp}")
    if not math.isfinite(value):
        raise NetlistError(f"value {token!r} is not finite", lineno)
    return value


# --- source waveforms -------------------------------------------------------


@dataclass(frozen=True)
class PWL:
    points: tuple[tuple[float, float], ...]

    def value_at(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[-1][1]


# --- elements ----------------------------------------------------------------


@dataclass(frozen=True)
class Junction:
    name: str
    pos: str
    neg: str
    model: str
    area: float = 1.0


@dataclass(frozen=True)
class Inductor:
    name: str
    pos: str
    neg: str
    value: float


@dataclass(frozen=True)
class Resistor:
    name: str
    pos: str
    neg: str
    value: float


@dataclass(frozen=True)
class CurrentSource:
    name: str
    pos: str
    neg: str
    spec: PWL


@dataclass(frozen=True)
class SubcktInstance:
    name: str
    nodes: tuple[str, ...]
    subckt: str


Element = Junction | Inductor | Resistor | CurrentSource | SubcktInstance


@dataclass(frozen=True)
class JJModel:
    name: str
    icrit: float
    cap: float | None = None
    rn: float | None = None
    r0: float | None = None


@dataclass(frozen=True)
class SubcircuitDef:
    name: str
    ports: tuple[str, ...]
    elements: tuple[Element, ...]


@dataclass(frozen=True)
class Tran:
    step: float
    stop: float
    start: float = 0.0


@dataclass
class Netlist:
    title: str = ""
    elements: list[Element] = field(default_factory=list)
    models: dict[str, JJModel] = field(default_factory=dict)  # keyed lowercase
    subcircuits: dict[str, SubcircuitDef] = field(default_factory=dict)
    tran: Tran | None = None

    def element(self, name: str) -> Element:
        wanted = name.lower()
        for e in self.elements:
            if e.name.lower() == wanted:
                return e
        raise KeyError(name)

    def nodes(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.elements:
            for n in _element_nodes(e):
                if n != GROUND:
                    seen.setdefault(n)
        return list(seen)

    def is_flat(self) -> bool:
        return not any(isinstance(e, SubcktInstance) for e in self.elements)


def _element_nodes(e: Element) -> tuple[str, ...]:
    if isinstance(e, SubcktInstance):
        return e.nodes
    return (e.pos, e.neg)


# --- parsing ------------------------------------------------------------------


def _strip_comment(raw: str) -> str:
    line = raw.rstrip()
    stripped = line.lstrip()
    if stripped.startswith("*") or stripped.startswith("#"):
        return ""
    if "#" in line:
        line = line[: line.index("#")].rstrip()
    return line


def _parse_model_line(tokens: list[str], raw: str, lineno: int) -> JJModel:
    # .model <name> jj(icrit=..., cap=..., rn=..., r0=...)
    m = re.match(r"\.model\s+(\S+)\s+jj\s*\((.*)\)\s*$", raw.strip(), re.IGNORECASE)
    if not m:
        raise NetlistError("malformed .model (expected jj(...))", lineno)
    name, body = m.group(1), m.group(2)
    kwargs: dict[str, float] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise NetlistError(f"malformed model parameter {item!r}", lineno)
        key, val = item.split("=", 1)
        key = key.strip().lower()
        if key not in ("icrit", "cap", "rn", "r0"):
            raise NetlistError(f"unknown model parameter {key!r}", lineno)
        kwargs[key] = parse_value(val.strip(), lineno)
    if "icrit" not in kwargs:
        raise NetlistError("model missing icrit", lineno)
    if kwargs["icrit"] <= 0:
        raise NetlistError("non-positive icrit", lineno)
    if kwargs.get("cap", 0.0) < 0:
        raise NetlistError("negative cap", lineno)
    for r in ("rn", "r0"):
        if r in kwargs and kwargs[r] <= 0:
            raise NetlistError(f"non-positive {r}", lineno)
    return JJModel(name=name, **kwargs)


def _pwl(points, lineno: int) -> PWL:
    """The one check of every source form: finite, strictly increasing times."""
    points = tuple(points)
    times = [t for t, _ in points]
    if not all(math.isfinite(t) for t in times):
        raise NetlistError("source times must be finite", lineno)
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise NetlistError("source times must be strictly increasing", lineno)
    return PWL(points)


def _parse_source_spec(rest: str, lineno: int) -> PWL:
    text = rest.strip()
    if text.lower().startswith("dc"):
        toks = text.split()
        if len(toks) != 2:
            raise NetlistError("dc source expects one value", lineno)
        return _pwl(((0.0, parse_value(toks[1], lineno)),), lineno)
    m = re.match(r"(pwl|pulse)\s*\((.*)\)\s*$", text, re.IGNORECASE)
    if not m:
        raise NetlistError(f"malformed source spec {text!r}", lineno)
    kind, body = m.group(1).lower(), m.group(2)
    vals = [parse_value(t, lineno) for t in body.split()]
    if kind == "pulse":
        if len(vals) != 3:
            raise NetlistError("pulse expects (t0 amplitude width)", lineno)
        t0, amp, width = vals
        if width <= 0:
            raise NetlistError("non-positive pulse width", lineno)
        return _pwl(((t0, 0.0), (t0 + width / 2.0, amp), (t0 + width, 0.0)), lineno)
    if len(vals) < 2 or len(vals) % 2:
        raise NetlistError("pwl expects time/value pairs", lineno)
    return _pwl(zip(vals[0::2], vals[1::2]), lineno)


def _parse_element_line(line: str, lineno: int) -> Element:
    tokens = line.split()
    name = tokens[0]
    kind = name[0].upper()
    if kind == "B":
        if len(tokens) not in (4, 5):
            raise NetlistError("junction expects: B<name> n+ n- model [area=v]", lineno)
        area = 1.0
        if len(tokens) == 5:
            m = re.match(r"area\s*=\s*(\S+)$", tokens[4], re.IGNORECASE)
            if not m:
                raise NetlistError(f"malformed junction parameter {tokens[4]!r}", lineno)
            area = parse_value(m.group(1), lineno)
            if area <= 0:
                raise NetlistError("non-positive area", lineno)
        return Junction(name, tokens[1], tokens[2], tokens[3], area)
    if kind in ("L", "R"):
        if len(tokens) != 4:
            raise NetlistError(f"{kind}-element expects: name n+ n- value", lineno)
        value = parse_value(tokens[3], lineno)
        if value <= 0:
            raise NetlistError(f"non-positive value for {name}", lineno)
        cls = Inductor if kind == "L" else Resistor
        return cls(name, tokens[1], tokens[2], value)
    if kind == "I":
        if len(tokens) < 4:
            raise NetlistError("current source expects: I<name> n+ n- spec", lineno)
        rest = line.split(None, 3)[3]
        return CurrentSource(name, tokens[1], tokens[2], _parse_source_spec(rest, lineno))
    if kind == "X":
        if len(tokens) < 3:
            raise NetlistError("instance expects: X<name> nodes... subckt", lineno)
        return SubcktInstance(name, tuple(tokens[1:-1]), tokens[-1])
    raise NetlistError(f"unknown element key {name!r}", lineno)


def _parse_tran_line(tokens: list[str], lineno: int) -> Tran:
    if len(tokens) not in (3, 4):
        raise NetlistError(".tran expects <step> <stop> [<start>]", lineno)
    step = parse_value(tokens[1], lineno)
    stop = parse_value(tokens[2], lineno)
    start = parse_value(tokens[3], lineno) if len(tokens) == 4 else 0.0
    if not (0 <= start < stop):
        raise NetlistError(".tran requires 0 <= start < stop", lineno)
    if not (0 < step < stop):
        raise NetlistError(".tran requires 0 < step < stop", lineno)
    return Tran(step, stop, start)


_PROBE_RE = re.compile(r"^(v|phase|i)\((\S+)\)$", re.IGNORECASE)


def _check_print_line(tokens: list[str], lineno: int) -> None:
    """Syntax check only: the writers emit every column, so the probes are not kept."""
    if len(tokens) < 2:
        raise NetlistError(".print expects at least one probe", lineno)
    for tok in tokens[1:]:
        if not _PROBE_RE.match(tok):
            raise NetlistError(f"malformed probe {tok!r}", lineno)


def parse_netlist(text: str) -> Netlist:
    """Parse netlist source into a validated Netlist with all values in SI units."""
    netlist = Netlist()
    scope_names: dict[str, set[str]] = {"": set()}
    current_def: tuple[str, tuple[str, ...], list[Element]] | None = None
    first_content = True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("."):
            first_content = False
            tokens = stripped.split()
            key = tokens[0].lower()
            if key == ".model":
                model = _parse_model_line(tokens, stripped, lineno)
                if model.name.lower() in netlist.models:
                    raise NetlistError(f"duplicate model {model.name!r}", lineno)
                netlist.models[model.name.lower()] = model
            elif key == ".subckt":
                if current_def is not None:
                    raise NetlistError("nested .subckt definitions not supported", lineno)
                if len(tokens) < 3:
                    raise NetlistError(".subckt expects a name and ports", lineno)
                sub_name = tokens[1]
                if sub_name.lower() in netlist.subcircuits:
                    raise NetlistError(f"duplicate subcircuit {sub_name!r}", lineno)
                ports = tuple(tokens[2:])
                if GROUND in ports:
                    raise NetlistError("ground cannot be a subcircuit port", lineno)
                current_def = (sub_name, ports, [])
                scope_names[sub_name.lower()] = set()
            elif key == ".ends":
                if current_def is None:
                    raise NetlistError(".ends without .subckt", lineno)
                sub_name, ports, elems = current_def
                netlist.subcircuits[sub_name.lower()] = SubcircuitDef(
                    sub_name, ports, tuple(elems)
                )
                current_def = None
            elif key == ".tran":
                if netlist.tran is not None:
                    raise NetlistError("duplicate .tran", lineno)
                netlist.tran = _parse_tran_line(tokens, lineno)
            elif key == ".print":
                _check_print_line(tokens, lineno)
            elif key == ".end":
                break
            else:
                raise NetlistError(f"unknown directive {tokens[0]!r}", lineno)
            continue

        if (
            first_content
            and current_def is None
            and stripped[0].upper() not in "BLRIX"
        ):
            netlist.title = stripped
            first_content = False
            continue
        element = _parse_element_line(stripped, lineno)
        first_content = False
        scope = current_def[0].lower() if current_def else ""
        known = scope_names[scope]
        if element.name.lower() in known:
            raise NetlistError(f"duplicate element name {element.name!r}", lineno)
        known.add(element.name.lower())
        if current_def is not None:
            current_def[2].append(element)
        else:
            netlist.elements.append(element)

    if current_def is not None:
        raise NetlistError(f"unterminated .subckt {current_def[0]!r}")
    if not netlist.elements:
        raise NetlistError("no elements")

    _validate_references(netlist)
    return netlist


def _validate_references(netlist: Netlist) -> None:
    def check(elements) -> None:
        for e in elements:
            if isinstance(e, Junction) and e.model.lower() not in netlist.models:
                raise NetlistError(f"unknown model reference {e.model!r} in {e.name}")

    check(netlist.elements)
    for sub in netlist.subcircuits.values():
        check(sub.elements)


# --- flattening ----------------------------------------------------------------


def flatten(netlist: Netlist) -> Netlist:
    """Expand subcircuit instances into a single scope.

    Hierarchical nodes and element names become "inst.node"/"inst.name";
    ground stays shared. Raises on recursive instantiation and on
    instance/definition arity mismatch.
    """
    flat = Netlist(
        title=netlist.title,
        models=dict(netlist.models),
        tran=netlist.tran,
    )

    def expand(elements, prefix: str, port_map: dict[str, str], stack: tuple[str, ...]):
        def map_node(n: str) -> str:
            if n == GROUND:
                return GROUND
            if n in port_map:
                return port_map[n]
            return f"{prefix}{n}"

        for e in elements:
            if isinstance(e, SubcktInstance):
                key = e.subckt.lower()
                if key not in netlist.subcircuits:
                    raise NetlistError(f"unknown subcircuit {e.subckt!r} in {e.name}")
                if key in stack:
                    raise NetlistError(
                        f"recursive subcircuit {e.subckt!r} via instance {e.name}"
                    )
                sub = netlist.subcircuits[key]
                if len(sub.ports) != len(e.nodes):
                    raise NetlistError(
                        f"instance {e.name} passes {len(e.nodes)} nodes, "
                        f"subcircuit {sub.name} has {len(sub.ports)} ports"
                    )
                inner_map = {p: map_node(n) for p, n in zip(sub.ports, e.nodes)}
                expand(sub.elements, f"{prefix}{e.name}.", inner_map, stack + (key,))
            else:
                flat.elements.append(
                    replace(e, name=f"{prefix}{e.name}", pos=map_node(e.pos), neg=map_node(e.neg))
                )

    expand(netlist.elements, "", {}, ())
    return flat


# --- lint -----------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "warn" | "error"
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.code}: {self.message}"


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)


def lint(netlist: Netlist) -> list[Diagnostic]:
    """Static checks on an elaborated netlist.

    Reports dangling nodes, junctions with no conductive path to ground,
    unused models, missing .tran, and sources that step hard at t=0.
    """
    diags: list[Diagnostic] = []
    try:
        flat = flatten(netlist)
    except NetlistError as exc:
        return [Diagnostic("error", "elaboration", str(exc))]

    terminal_count: dict[str, int] = {}
    for e in flat.elements:
        for n in _element_nodes(e):
            if n != GROUND:
                terminal_count[n] = terminal_count.get(n, 0) + 1
    for node, count in terminal_count.items():
        if count < 2:
            diags.append(
                Diagnostic("error", "dangling-node", f"node {node} has a single connection")
            )

    # conductive-at-DC elements only; current sources do not provide a bias path
    uf = _UnionFind()
    uf.find(GROUND)
    for e in flat.elements:
        if isinstance(e, (Inductor, Resistor, Junction)):
            uf.union(e.pos, e.neg)
    ground_root = uf.find(GROUND)
    for e in flat.elements:
        if isinstance(e, Junction) and uf.find(e.pos) != ground_root:
            diags.append(
                Diagnostic(
                    "error", "floating-junction", f"{e.name} has no DC path to ground"
                )
            )

    used_models = {
        e.model.lower() for e in flat.elements if isinstance(e, Junction)
    }
    for sub in netlist.subcircuits.values():
        used_models.update(
            e.model.lower() for e in sub.elements if isinstance(e, Junction)
        )
    for key, model in netlist.models.items():
        if key not in used_models:
            diags.append(
                Diagnostic("warn", "unused-model", f"model {model.name} never referenced")
            )

    if flat.tran is None:
        diags.append(Diagnostic("warn", "missing-tran", "no .tran analysis"))

    for e in flat.elements:
        if isinstance(e, CurrentSource) and e.spec.value_at(0.0) != 0.0:
            diags.append(
                Diagnostic(
                    "warn", "hard-dc-step", f"{e.name} steps to a nonzero value at t=0"
                )
            )

    return diags
