"""Logic-operation metamorphosis: De Morgan expansion plus absorbed
redundant terms, mirroring the worked two-product example.

demorganize rewrites x&y into ~(~x|~y) and x|y into ~(~x&~y), bottom-up,
down to the configured operator depth from the root; nodes introduced by
the rewrite are never rewritten again in the same call. XOR is left as an
opaque leaf. Redundant terms are built only by the superset-absorption
rule (T's literal set contains some existing product term's set, so
e|T == e by absorption) - sound by construction, no solver involved.
"""

from dataclasses import dataclass, replace
from .. import nodes as n
from ..errors import NoEligibleSite, NoProductTerm, UnsupportedWidth
from .record import MutationRecord, fresh_name


@dataclass(frozen=True)
class BoolExprView:
    """Expr projection: every leaf a 1-bit Ref or constant, every operator
    in {&, |, ~, ^}. The projection is the identity on the tree, so it is
    lossless back to Expr."""
    expr: n.Expr
    support: tuple  # referenced signal names, in first-use order

    @classmethod
    def project(cls, expr: n.Expr, width_of) -> "BoolExprView":
        support = []
        for node in n.walk_expr(expr):
            if isinstance(node, n.Ref):
                w = width_of(node.name)
                if w != 1:
                    raise UnsupportedWidth(
                        f"{node.name} is {w} bits wide; boolean view needs 1")
                if node.name not in support:
                    support.append(node.name)
            elif isinstance(node, n.Literal):
                if (node.width or 1) != 1 or node.value > 1:
                    raise UnsupportedWidth(f"literal {node.value} is not 1-bit")
            elif isinstance(node, n.Unary):
                if node.op != "~":
                    raise UnsupportedWidth(f"operator {node.op} outside boolean view")
            elif isinstance(node, n.Binary):
                if node.op not in ("&", "|", "^"):
                    raise UnsupportedWidth(f"operator {node.op} outside boolean view")
            else:
                raise UnsupportedWidth(f"{type(node).__name__} outside boolean view")
        return cls(expr, tuple(support))


def _as_view(e, width_of=None):
    if isinstance(e, BoolExprView):
        return e
    return BoolExprView.project(e, width_of or (lambda name: 1))


def _not(e):
    return n.Unary("~", e)


def _demorg(e, levels):
    if isinstance(e, n.Unary):
        return replace(e, operand=_demorg(e.operand, levels))
    if isinstance(e, n.Binary) and e.op in ("&", "|") and levels >= 1:
        lhs = _demorg(e.lhs, levels - 1)
        rhs = _demorg(e.rhs, levels - 1)
        if e.op == "&":
            return _not(n.Binary("|", _not(lhs), _not(rhs)))
        return _not(n.Binary("&", _not(lhs), _not(rhs)))
    return e  # xor nodes and anything deeper than `levels` stay opaque


def demorganize(e, depth: int = 2):
    """NOR/NAND-expand conjunctions and disjunctions within `depth`
    operator levels of the root. Truth-table equal to the input."""
    if not 1 <= depth <= 8:
        raise ValueError("depth must be in 1..8")
    view = _as_view(e)
    return BoolExprView(_demorg(view.expr, depth), view.support)


def _flatten_or(e):
    if isinstance(e, n.Binary) and e.op == "|":
        return _flatten_or(e.lhs) + _flatten_or(e.rhs)
    return [e]


def _product_literals(e):
    """Ordered (name, negated) literals when e is a pure conjunction of
    (possibly negated) 1-bit refs; None otherwise."""
    if isinstance(e, n.Ref):
        return [(e.name, False)]
    if isinstance(e, n.Unary) and e.op == "~" and isinstance(e.operand, n.Ref):
        return [(e.operand.name, True)]
    if isinstance(e, n.Binary) and e.op == "&":
        lhs = _product_literals(e.lhs)
        rhs = _product_literals(e.rhs)
        if lhs is None or rhs is None:
            return None
        return lhs + rhs
    return None


def _build_conj(literals):
    terms = [(_not(n.Ref(name)) if neg else n.Ref(name)) for name, neg in literals]
    e = terms[0]
    for t in terms[1:]:
        e = n.Binary("&", e, t)
    return e


@dataclass(frozen=True)
class LogicMutationConfig:
    depth: int = 2
    inject_redundant: bool = True
    seed: int = 0
    max_extra_terms: int = 1

    def __post_init__(self):
        if not 1 <= self.depth <= 8:
            raise ValueError("depth must be in 1..8")


def _make_redundant_terms(terms, support, count):
    """Absorbed product terms: each one's literal set is a superset of some
    existing product term's literal set, so OR-ing it in changes nothing.

    Deterministic by construction: the k-th injected term strengthens the
    k-th product term (cyclically) with every support variable it misses,
    in first-use order."""
    products = [lits for lits in (_product_literals(t) for t in terms)
                if lits is not None]
    if not products:
        raise NoProductTerm("no conjunctive term to strengthen")
    out = []
    for k in range(count):
        lits = products[k % len(products)]
        present = {name for name, _ in lits}
        extras = [s for s in support if s not in present]
        out.append(list(lits) + [(v, False) for v in extras])
    return out


def inject_redundant(e, cfg: LogicMutationConfig):
    """OR in up to max_extra_terms absorbed product terms, each wrapped in
    the double-negation shape of the worked example."""
    view = _as_view(e)
    if cfg.max_extra_terms == 0:
        return view
    terms = _flatten_or(view.expr)
    expr = view.expr
    for lits in _make_redundant_terms(terms, list(view.support), cfg.max_extra_terms):
        expr = n.Binary("|", expr, _not(_not(_build_conj(lits))))
    return BoolExprView(expr, view.support)


# --- whole-module rewriting --------------------------------------------------


def _eligible(expr, width_of):
    """A view with at least one &/| node to rewrite, else None."""
    try:
        view = BoolExprView.project(expr, width_of)
    except UnsupportedWidth:
        return None
    if any(isinstance(x, n.Binary) and x.op in ("&", "|") for x in n.walk_expr(expr)):
        return view
    return None


def _rewrite_site(expr, cfg, taken, counter):
    """Decompose into named term wires, demorganize, optionally absorb
    redundant terms. Returns (new wire decls, final expr)."""
    view = _as_view(expr)
    terms = _flatten_or(view.expr)
    new_nets = []

    def bind(term_expr):
        name = fresh_name(f"term{counter[0]}", taken)
        counter[0] += 1
        taken.add(name)
        new_nets.append(n.NetDecl(name, "wire", init=term_expr))
        return n.Ref(name)

    refs = [bind(_demorg(t, cfg.depth)) for t in terms]
    cur = refs[0]
    for r in refs[1:]:
        cur = bind(_not(n.Binary("&", _not(cur), _not(r))))

    if cfg.inject_redundant and cfg.max_extra_terms > 0:
        try:
            extra_lits = _make_redundant_terms(terms, list(view.support),
                                               cfg.max_extra_terms)
        except NoProductTerm:
            extra_lits = []
        for i, lits in enumerate(extra_lits):
            extra_ref = bind(_not(_not(_build_conj(lits))))
            final = _not(n.Binary("&", _not(cur), _not(extra_ref)))
            cur = final if i == len(extra_lits) - 1 else bind(final)
    return new_nets, cur


def mutate_logic(module: n.ModuleDecl, cfg: LogicMutationConfig = None):
    """Rewrite every eligible 1-bit boolean site in the module.

    Eligible sites: continuous assigns, wire initializers, and blocking
    assigns in combinational blocks whose right-hand side projects into the
    boolean view (comb-block sites are hoisted to continuous assigns, so
    the right-hand side must not read a signal the same block writes).
    """
    cfg = cfg or LogicMutationConfig()
    width_of = _width_map(module)
    taken = set(module.declared_names())
    counter = [1]
    record = MutationRecord(strategy="logic", seed=cfg.seed)

    new_nets = []
    new_items = []
    changed = [False]

    for net in module.nets:
        view = _eligible(net.init, width_of) if net.init is not None else None
        if view is None:
            new_nets.append(net)
            continue
        decls, final = _rewrite_site(net.init, cfg, taken, counter)
        new_nets.extend(decls)
        new_nets.append(replace(net, init=final))
        record.sites.append(f"wire {net.name}")
        changed[0] = True

    for item in module.items:
        if isinstance(item, n.ContinuousAssign):
            view = _eligible(item.rhs, width_of)
            if view is None:
                new_items.append(item)
                continue
            decls, final = _rewrite_site(item.rhs, cfg, taken, counter)
            new_nets.extend(decls)
            new_items.append(replace(item, rhs=final))
            record.sites.append(f"assign {n.lvalue_base(item.lhs)}")
            changed[0] = True
        elif isinstance(item, n.ProcBlock) and isinstance(item.sensitivity, n.CombSensitivity):
            writes = n.assigned_names(item.body)

            def rw(s, _writes=writes):
                if not isinstance(s, n.BlockingAssign):
                    return s
                view = _eligible(s.rhs, width_of)
                if view is None or (set(view.support) & _writes):
                    return s
                decls, final = _rewrite_site(s.rhs, cfg, taken, counter)
                new_nets.extend(decls)
                record.sites.append(f"comb {n.lvalue_base(s.lhs)}")
                changed[0] = True
                return replace(s, rhs=final)

            new_items.append(replace(item, body=n.map_stmt(item.body, rw)))
        else:
            new_items.append(item)

    if not changed[0]:
        raise NoEligibleSite("no 1-bit boolean site with an &/| operator")

    mutant = n.ModuleDecl(module.name, module.ports, module.params,
                          tuple(new_nets), tuple(new_items), pos=module.pos)
    outputs = [p.name for p in module.ports if p.direction == "output"]
    record.with_offsets(outputs, 0)
    return mutant, record


def _width_map(module: n.ModuleDecl):
    from ..evalexpr import const_value, try_const

    params = {}
    for p in module.params:
        got = try_const(p.value, params)
        if got is not None:
            params[p.name] = got
    widths = {}
    for d in list(module.ports) + list(module.nets):
        widths[d.name] = const_value(d.msb, params) - const_value(d.lsb, params) + 1
    return lambda name: widths.get(name)
