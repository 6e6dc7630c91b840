"""Scene files: a line-oriented declarative format for engine runs.

A scene declares a base field, models (catalog names or explicit quotient
data), named cycles, maps and families, and a list of commands.  Parsing
builds every object eagerly so that name and chart errors surface with line
numbers before anything runs; commands are stored for the runner.

Grammar (one declaration per line, '#' starts a comment):

  scene    := line*
  line     := field | model | cycle | map | family | run
  field    := "field" ("rationals" | "cyclotomic" "(" INT ")")
  model    := "model" NAME "=" "catalog" CATNAME
            | "model" NAME "=" "quotient" "generators" MATRIX (";" MATRIX)*
              "invariants" POLY ("," POLY)* "upstairs" NAME ("," NAME)*
              "downstairs" NAME ("," NAME)*
  cycle    := "cycle" NAME "on" NAME "=" CYCTERM ("+" CYCTERM)*
  CYCTERM  := RAT "*" "orbit" "(" POLY ("," POLY)* ")"
            | "lift" "(" POLY ("," POLY)* ")"
  map      := "map" NAME ":" NAME "->" NAME "=" "(" POLY ("," POLY)* ")"
  family   := "family" NAME "on" NAME "param" NAME "window" RAT RAT "="
              RAT "*" "orbit" "(" POLY ("," POLY)* ")"
  run      := "run" COMMAND ARGS...

  MATRIX   := "[" ROW (";" ROW)* "]"    ROW := SCALAR ("," SCALAR)*
  FORM     := FTERM (("+"|"-") FTERM)*
  FTERM    := [EXPR "*"] "d" "(" NAME ("," NAME)* ")" | EXPR

Polynomials use infix +, -, *, / and ^ with integer and fraction literals;
`zeta` names the cyclotomic generator when the field is an extension.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .arith import QQ, CyclotomicField, Field
from .cycle import CycleFamily, DownstairsCycle, ModelMap, split_clusters
from .errors import ChartError, ParseError, SceneNameError
from .forms import DiffForm, _sort_with_sign
from .poly import Ideal, MultiPoly, RationalFn, mp_factor
from .quotient import LocalModel, build_model, catalog_model
from .group import enumerate_group


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\*|\+|-|/|\^|\(|\)|,)")


class _ExprParser:
    def __init__(self, text: str, field: Field, variables: tuple[str, ...],
                 line: int):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError(f"bad character {text[pos]!r} in expression",
                                     line)
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0
        self.field = field
        self.vars = variables
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line)

    def parse(self) -> RationalFn:
        out = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing token {self.peek()!r}", self.line)
        return out

    def expr(self) -> RationalFn:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> RationalFn:
        acc = self.power()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.power()
            if op == "*":
                acc = acc * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", self.line)
                acc = acc / rhs
        return acc

    def power(self) -> RationalFn:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            tok = self.next()
            if tok == "-":
                neg = True
                tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer, got {tok!r}",
                                 self.line)
            e = int(tok)
            one = RationalFn(MultiPoly.const(self.field, self.vars, 1))
            acc = one
            for _ in range(e):
                acc = acc * base
            if neg:
                if acc.is_zero():
                    raise ParseError("zero to a negative power", self.line)
                acc = one / acc
            return acc
        return base

    def atom(self) -> RationalFn:
        tok = self.next()
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok == "-":
            return -self.atom()
        if tok == "+":
            return self.atom()
        if tok.isdigit():
            return RationalFn(MultiPoly.const(self.field, self.vars, int(tok)))
        if tok == "zeta":
            if not self.field.is_cyclotomic:
                raise ChartError("zeta needs a cyclotomic field", self.line)
            return RationalFn(MultiPoly.const(self.field, self.vars,
                                              self.field.generator))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in self.vars:
                raise ChartError(f"variable {tok!r} not in chart {self.vars}",
                                 self.line)
            return RationalFn(MultiPoly.var(self.field, self.vars, tok))
        raise ParseError(f"unexpected token {tok!r}", self.line)


def parse_polynomial(text: str, field: Field, variables: tuple[str, ...],
                     line: int = 0) -> MultiPoly:
    rf = _ExprParser(text, field, variables, line).parse()
    if not rf.is_polynomial():
        raise ParseError("expected a polynomial, got a rational function", line)
    return rf.num * (field.one / rf.den.constant_value())


def parse_rational_fn(text: str, field: Field, variables: tuple[str, ...],
                      line: int = 0) -> RationalFn:
    return _ExprParser(text, field, variables, line).parse()


def parse_scalar(text: str, field: Field, line: int = 0):
    rf = _ExprParser(text, field, (), line).parse()
    if not rf.is_polynomial():
        raise ParseError("expected a scalar", line)
    return rf.num.constant_value() / rf.den.constant_value()


def parse_fraction(text: str, line: int = 0) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}", line)


def parse_form(text: str, field: Field, variables: tuple[str, ...],
               line: int = 0) -> DiffForm:
    """Sum of terms `coefficient * d(v1, ..., vk)` (or bare 0-form terms)."""
    parts = _split_top_level(text, "+-")
    acc = None
    for sign, part in parts:
        part = part.strip()
        if not part:
            raise ParseError("empty form term", line)
        m = re.search(r"d\s*\(([^()]*)\)\s*$", part)
        if m:
            names = [v.strip() for v in m.group(1).split(",") if v.strip()]
            idx = []
            for v in names:
                if v not in variables:
                    raise ChartError(f"variable {v!r} not in chart", line)
                idx.append(variables.index(v))
            if len(set(idx)) != len(idx):
                term = None  # repeated differential: the term is zero
            else:
                coeff_text = part[:m.start()].strip()
                if coeff_text.endswith("*"):
                    coeff_text = coeff_text[:-1].strip()
                coeff = parse_rational_fn(coeff_text, field, variables, line) \
                    if coeff_text else RationalFn(MultiPoly.const(field, variables, 1))
                sorted_idx, perm_sign = _sort_with_sign(idx)
                term = DiffForm(field, variables, len(idx),
                                {sorted_idx: coeff * perm_sign})
        else:
            coeff = parse_rational_fn(part, field, variables, line)
            term = DiffForm(field, variables, 0, {(): coeff})
        if term is None:
            continue
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        raise ParseError("empty form", line)
    return acc


def _split_top_level(text: str, seps: str):
    """Split on top-level +/- (not inside parens, not unary)."""
    out = []
    depth = 0
    current = []
    sign = 1
    prev_nonspace = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in seps and depth == 0 and prev_nonspace not in ("", "+", "-",
                                                               "*", "/", "^",
                                                               "("):
            out.append((sign, "".join(current)))
            current = []
            sign = 1 if ch == "+" else -1
        else:
            current.append(ch)
        if not ch.isspace():
            prev_nonspace = ch
    out.append((sign, "".join(current)))
    return out


# ---------------------------------------------------------------------------
# scene structure
# ---------------------------------------------------------------------------

@dataclass
class Command:
    line: int
    verb: str
    args: dict
    raw: str = ""


@dataclass
class Scene:
    field: Field
    models: dict[str, LocalModel] = dc_field(default_factory=dict)
    cycles: dict[str, tuple[str, DownstairsCycle]] = dc_field(default_factory=dict)
    maps: dict[str, ModelMap] = dc_field(default_factory=dict)
    families: dict[str, CycleFamily] = dc_field(default_factory=dict)
    commands: list[Command] = dc_field(default_factory=list)


def parse_scene(text: str) -> Scene:
    """Parse and build a scene; raises ParseError / SceneNameError /
    ChartError with line numbers on malformed input."""
    field: Field = QQ
    scene = Scene(field=field)
    field_set = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        if head == "field":
            if field_set and (scene.models or scene.cycles):
                raise ParseError("field must be declared before models", lineno)
            scene.field = _parse_field(rest, lineno)
            field_set = True
        elif head == "model":
            _parse_model(scene, rest, lineno)
        elif head == "cycle":
            _parse_cycle(scene, rest, lineno)
        elif head == "map":
            _parse_map(scene, rest, lineno)
        elif head == "family":
            _parse_family(scene, rest, lineno)
        elif head == "run":
            cmd = _parse_command(scene, rest, lineno)
            cmd.raw = rest
            scene.commands.append(cmd)
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno)
    return scene


def _parse_field(rest: str, lineno: int) -> Field:
    rest = rest.strip()
    if rest == "rationals":
        return QQ
    m = re.fullmatch(r"cyclotomic\s*\(\s*(\d+)\s*\)", rest)
    if m:
        return CyclotomicField(int(m.group(1)))
    raise ParseError(f"unknown field {rest!r}", lineno)


def _check_fresh(scene: Scene, name: str, lineno: int):
    for pool, kind in ((scene.models, "model"), (scene.cycles, "cycle"),
                       (scene.maps, "map"), (scene.families, "family")):
        if name in pool:
            raise SceneNameError(f"duplicate name {name!r} (already a {kind})",
                                 lineno)


def _parse_model(scene: Scene, rest: str, lineno: int):
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)", rest, re.S)
    if not m:
        raise ParseError("expected: model NAME = ...", lineno)
    name, spec = m.group(1), m.group(2).strip()
    _check_fresh(scene, name, lineno)
    if spec.startswith("catalog"):
        cat = spec[len("catalog"):].strip()
        try:
            model = catalog_model(cat)
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
        if model.field != scene.field:
            raise ChartError(
                f"catalog model {cat!r} needs field {model.field!r}", lineno)
        scene.models[name] = model
        return
    if spec.startswith("quotient"):
        scene.models[name] = _parse_quotient_model(scene, name, spec, lineno)
        return
    raise ParseError(f"unknown model form {spec!r}", lineno)


def _parse_quotient_model(scene, name, spec, lineno) -> LocalModel:
    m = re.fullmatch(
        r"quotient\s+generators\s+(.*?)\s+invariants\s+(.*?)\s+upstairs\s+"
        r"(.*?)(?:\s+downstairs\s+(.*))?", spec, re.S)
    if not m:
        raise ParseError(
            "expected: quotient generators ... invariants ... upstairs ... "
            "[downstairs ...]", lineno)
    gen_text, inv_text, up_text, down_text = m.groups()
    uvars = tuple(v.strip() for v in up_text.split(",") if v.strip())
    matrices = []
    for mat_text in gen_text.split(";"):
        matrices.append(_parse_matrix(mat_text.strip(), scene.field, lineno))
    group = enumerate_group(scene.field, matrices)
    thetas = [parse_polynomial(t.strip(), scene.field, uvars, lineno)
              for t in inv_text.split(",") if t.strip()]
    yvars = None
    if down_text:
        yvars = tuple(v.strip() for v in down_text.split(",") if v.strip())
    return build_model(group, thetas, uvars, yvars=yvars, name=name)


def _parse_matrix(text: str, field: Field, lineno: int):
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"matrix must be bracketed: {text!r}", lineno)
    body = text[1:-1].strip()
    rows = []
    depth = 0
    current = []
    parts = []
    for ch in body:
        if ch == "[":
            depth += 1
            if depth == 1:
                current = []
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                parts.append("".join(current))
                continue
        if depth >= 1:
            current.append(ch)
    if not parts:
        raise ParseError(f"empty matrix {text!r}", lineno)
    for row_text in parts:
        row = [parse_scalar(entry.strip(), field, lineno)
               for entry in row_text.split(",") if entry.strip()]
        rows.append(row)
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix must be square", lineno)
    return rows


def _model_of(scene: Scene, name: str, lineno: int) -> LocalModel:
    if name not in scene.models:
        raise SceneNameError(f"undefined model {name!r}", lineno)
    return scene.models[name]


def _parse_cycle(scene: Scene, rest: str, lineno: int):
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s+on\s+"
                     r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)", rest, re.S)
    if not m:
        raise ParseError("expected: cycle NAME on MODEL = ...", lineno)
    name, model_name, body = m.groups()
    _check_fresh(scene, name, lineno)
    model = _model_of(scene, model_name, lineno)
    rng = random.Random(0)
    parts = []
    for sign, chunk in _split_top_level(body, "+-"):
        if sign < 0:
            raise ParseError("cycle coefficients must be positive", lineno)
        chunk = chunk.strip()
        lift = re.fullmatch(r"lift\s*\((.*)\)", chunk, re.S)
        if lift:
            parts.extend(_lift_downstairs(model, lift.group(1), lineno, rng))
            continue
        m2 = re.fullmatch(r"(.*?)\*?\s*orbit\s*\((.*)\)", chunk, re.S)
        if not m2:
            raise ParseError(f"expected COEFF * orbit(...) or lift(...), got "
                             f"{chunk!r}", lineno)
        coeff_text = m2.group(1).strip().rstrip("*").strip()
        coeff = parse_fraction(coeff_text, lineno) if coeff_text else Fraction(1)
        gens = [parse_polynomial(g.strip(), model.field, model.uvars, lineno)
                for g in m2.group(2).split(",") if g.strip()]
        prime = Ideal(model.field, model.uvars, gens)
        if prime.is_unit():
            raise ChartError("orbit generators define the empty set", lineno)
        parts.append((prime, coeff))
    scene.cycles[name] = (model_name,
                          DownstairsCycle.from_upstairs_primes(model, parts))


def _lift_downstairs(model, text, lineno, rng):
    """Lift a downstairs ideal to its reduced upstairs cycle components.

    Every distinct orbit class receives coefficient one, no matter how many
    of its members appear among the upstairs components.
    """
    from .cycle import OrbitClass
    gens = [parse_polynomial(g.strip(), model.field, model.yvars, lineno)
            for g in text.split(",") if g.strip()]
    up = [model.pull_poly(g) for g in gens]
    up = [g for g in up if not g.is_zero()]
    ideal = Ideal(model.field, model.uvars, up)
    if ideal.is_unit():
        raise ChartError("downstairs ideal lifts to the empty set", lineno)
    gb = ideal.groebner()
    primes = []
    if len(gb) == 1 and not gb[0].is_constant():
        for factor, _ in mp_factor(gb[0]):
            primes.append(Ideal(model.field, model.uvars, [factor]))
    elif ideal.dimension() == 0:
        for cluster in split_clusters(ideal.radical_zero_dim(), rng):
            primes.append(cluster.ideal)
    else:
        raise ChartError(
            "lift supports principal or zero-dimensional downstairs ideals",
            lineno)
    parts = []
    seen = set()
    for p in primes:
        orbit = OrbitClass.of(model, p)
        if orbit.key not in seen:
            seen.add(orbit.key)
            parts.append((orbit.rep, Fraction(1)))
    return parts


def _parse_map(scene: Scene, rest: str, lineno: int):
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*"
                     r"([A-Za-z_][A-Za-z0-9_]*)\s*->\s*"
                     r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\((.*)\)", rest, re.S)
    if not m:
        raise ParseError("expected: map NAME : SRC -> DST = (poly, ...)",
                         lineno)
    name, src_name, dst_name, body = m.groups()
    _check_fresh(scene, name, lineno)
    src = _model_of(scene, src_name, lineno)
    dst = _model_of(scene, dst_name, lineno)
    comps = [parse_polynomial(c.strip(), src.field, src.uvars, lineno)
             for c in body.split(",")]
    if len(comps) != dst.n:
        raise ChartError(f"map needs {dst.n} components, got {len(comps)}",
                         lineno)
    try:
        scene.maps[name] = ModelMap(src, dst, comps, name=name)
    except ValueError as exc:
        raise ChartError(str(exc), lineno)


def _parse_family(scene: Scene, rest: str, lineno: int):
    m = re.fullmatch(
        r"([A-Za-z_][A-Za-z0-9_]*)\s+on\s+([A-Za-z_][A-Za-z0-9_]*)\s+param\s+"
        r"([A-Za-z_][A-Za-z0-9_]*)\s+window\s+(\S+)\s+(\S+)\s*=\s*(.*)",
        rest, re.S)
    if not m:
        raise ParseError(
            "expected: family NAME on MODEL param s window LO HI = ...",
            lineno)
    name, model_name, param, lo, hi, body = m.groups()
    _check_fresh(scene, name, lineno)
    model = _model_of(scene, model_name, lineno)
    if param in model.uvars:
        raise ChartError(f"parameter {param!r} collides with a chart variable",
                         lineno)
    ring = (param,) + model.uvars
    comps = []
    for sign, chunk in _split_top_level(body, "+-"):
        if sign < 0:
            raise ParseError("family coefficients must be positive", lineno)
        m2 = re.fullmatch(r"(.*?)\*?\s*orbit\s*\((.*)\)", chunk.strip(), re.S)
        if not m2:
            raise ParseError(f"expected COEFF * orbit(...), got {chunk!r}",
                             lineno)
        coeff_text = m2.group(1).strip().rstrip("*").strip()
        coeff = parse_fraction(coeff_text, lineno) if coeff_text else Fraction(1)
        gens = tuple(parse_polynomial(g.strip(), model.field, ring, lineno)
                     for g in m2.group(2).split(",") if g.strip())
        comps.append((gens, coeff))
    try:
        scene.families[name] = CycleFamily(
            model, param, comps, (parse_fraction(lo, lineno),
                                  parse_fraction(hi, lineno)))
    except ValueError as exc:
        raise ChartError(str(exc), lineno)


_CYCLE_COMMANDS = {
    "intersect": 2, "pullback": 1, "proper": 2, "show": 1,
}


def _parse_command(scene: Scene, rest: str, lineno: int) -> Command:
    tokens = rest.split()
    if not tokens:
        raise ParseError("empty run command", lineno)
    verb = tokens[0]
    args = tokens[1:]

    def want_cycle(name):
        if name not in scene.cycles:
            raise SceneNameError(f"undefined cycle {name!r}", lineno)
        return name

    def want_map(name):
        if name not in scene.maps:
            raise SceneNameError(f"undefined map {name!r}", lineno)
        return name

    def want_family_or_cycle(name):
        if name in scene.families or name in scene.cycles:
            return name
        raise SceneNameError(f"undefined family or cycle {name!r}", lineno)

    def split_into(rest_args):
        if len(rest_args) >= 2 and rest_args[-2] == "into":
            return rest_args[:-2], rest_args[-1]
        return rest_args, None

    def register(into, model_name):
        if into is None:
            return
        _check_fresh(scene, into, lineno)
        scene.cycles[into] = (model_name, None)

    def model_name_of_map(map_name, which):
        fmap = scene.maps[map_name]
        target = fmap.source if which == "source" else fmap.target
        for nm, model in scene.models.items():
            if model is target:
                return nm
        raise SceneNameError(f"map {map_name!r} endpoint is not a scene model",
                             lineno)

    if verb == "intersect":
        core, into = split_into(args)
        if len(core) != 2:
            raise ParseError("usage: run intersect X Y [into NAME]", lineno)
        x, y = want_cycle(core[0]), want_cycle(core[1])
        register(into, scene.cycles[x][0])
        return Command(lineno, verb, {"x": x, "y": y, "into": into})
    if verb in ("pullback", "show"):
        if len(args) != 1:
            raise ParseError(f"usage: run {verb} X", lineno)
        return Command(lineno, verb, {"x": want_cycle(args[0])})
    if verb == "proper":
        if len(args) != 2:
            raise ParseError("usage: run proper X Y", lineno)
        return Command(lineno, verb, {"x": want_cycle(args[0]),
                                      "y": want_cycle(args[1])})
    if verb in ("pullback_map", "push_map"):
        core, into = split_into(args)
        if len(core) != 2:
            raise ParseError(f"usage: run {verb} MAP CYCLE [into NAME]", lineno)
        mp = want_map(core[0])
        register(into, model_name_of_map(
            mp, "source" if verb == "pullback_map" else "target"))
        return Command(lineno, verb, {"map": mp, "x": want_cycle(core[1]),
                                      "into": into})
    if verb == "fproduct":
        core, into = split_into(args)
        if len(core) != 3:
            raise ParseError("usage: run fproduct MAP X Y [into NAME]", lineno)
        mp = want_map(core[0])
        register(into, model_name_of_map(mp, "source"))
        return Command(lineno, verb, {"map": mp, "x": want_cycle(core[1]),
                                      "y": want_cycle(core[2]), "into": into})
    if verb == "specialize":
        core, into = split_into(args)
        if len(core) != 3 or core[1] != "at":
            raise ParseError("usage: run specialize FAMILY at VALUE [into NAME]",
                             lineno)
        if core[0] not in scene.families:
            raise SceneNameError(f"undefined family {core[0]!r}", lineno)
        fam = scene.families[core[0]]
        model_name = next(nm for nm, model in scene.models.items()
                          if model is fam.model)
        register(into, model_name)
        return Command(lineno, verb, {"family": core[0],
                                      "value": parse_fraction(core[2], lineno),
                                      "into": into})
    if verb == "conserve":
        if len(args) < 4 or args[2] != "at":
            raise ParseError("usage: run conserve XFAM YFAM at S1 S2 ...", lineno)
        return Command(lineno, verb, {
            "x": want_family_or_cycle(args[0]),
            "y": want_family_or_cycle(args[1]),
            "samples": [parse_fraction(s, lineno) for s in args[3:]]})
    if verb in ("trace", "qpull"):
        if len(args) < 2:
            raise ParseError(f"usage: run {verb} MODEL FORM [using POLY, ...]",
                             lineno)
        model = _model_of(scene, args[0], lineno)
        chart = model.uvars if verb == "trace" else model.yvars
        body = " ".join(args[1:])
        denominators = None
        if verb == "trace" and " using " in f" {body} ":
            body, _, dens_text = body.partition(" using ")
            denominators = [parse_polynomial(d.strip(), model.field,
                                             model.yvars, lineno)
                            for d in dens_text.split(",") if d.strip()]
            if not denominators:
                raise ParseError("empty denominator list after 'using'", lineno)
            # the constant denominator is always available
            denominators.insert(0, MultiPoly.const(model.field, model.yvars, 1))
        form = parse_form(body, model.field, chart, lineno)
        return Command(lineno, verb, {"model": args[0], "form": form,
                                      "denominators": denominators})
    if verb == "direct_factor":
        if len(args) < 2:
            raise ParseError("usage: run direct_factor MODEL FORM [; FORM ...]",
                             lineno)
        model = _model_of(scene, args[0], lineno)
        forms = []
        for chunk in " ".join(args[1:]).split(";"):
            if chunk.strip():
                forms.append(parse_form(chunk.strip(), model.field,
                                        model.yvars, lineno))
        return Command(lineno, verb, {"model": args[0], "forms": forms})
    if verb == "divisor":
        core, into = split_into(args)
        if len(core) < 2:
            raise ParseError("usage: run divisor MODEL POLY [into NAME]", lineno)
        model = _model_of(scene, core[0], lineno)
        poly = parse_polynomial(" ".join(core[1:]), model.field, model.yvars,
                                lineno)
        register(into, core[0])
        return Command(lineno, verb, {"model": core[0], "poly": poly,
                                      "into": into})
    if verb == "verify":
        if not args:
            raise ParseError("usage: run verify SUITE [MODEL] [COUNT]", lineno)
        suite = args[0]
        from .verify import GLOBAL_SUITES, SUITES
        if suite in SUITES:
            if len(args) not in (2, 3):
                raise ParseError(f"usage: run verify {suite} MODEL [COUNT]",
                                 lineno)
            _model_of(scene, args[1], lineno)
            count = int(args[2]) if len(args) == 3 else 25
            return Command(lineno, verb, {"suite": suite, "model": args[1],
                                          "count": count})
        if suite in GLOBAL_SUITES:
            count = int(args[1]) if len(args) > 1 else 10
            return Command(lineno, verb, {"suite": suite, "model": None,
                                          "count": count})
        raise ParseError(f"unknown verify suite {suite!r}", lineno)
    raise ParseError(f"unknown command {verb!r}", lineno)
