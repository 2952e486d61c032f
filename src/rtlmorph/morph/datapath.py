"""Data-path metamorphosis: opaque always-true branches around live logic,
and single-stage multiplexer cascading.

Every opaque predicate is proven true by exhaustive evaluation over its
support before it is inserted - a hard gate, not a sampled check. Dead
else-arms only reference already-declared signals and constants, so the
mutant stays lint-clean and introduces no new state.
"""

from dataclasses import dataclass, replace
from random import Random

from .. import nodes as n
from ..errors import (
    NoEligibleBlock, NoEligibleSite, NoMuxFound, TautologyCheckFailed,
)
from .logic import _width_map
from .record import MutationRecord, fresh_name

TAUTOLOGY_WIDTH_CAP = 20

DEAD_BRANCH_LABEL = "mm_dead_branch"


@dataclass(frozen=True)
class OpaquePredicate:
    expr: n.Expr
    support: tuple  # signal names the predicate reads
    template_id: str


@dataclass(frozen=True)
class MuxSite:
    location: str  # "assign <target>" | "proc#<idx> <target>"
    selector: n.Expr
    inputs: tuple  # (then value, else value)
    result: n.Expr  # lvalue


_TEMPLATES = (
    ("xor-self", lambda s: n.Binary("==", n.Binary("^", s, s), n.Literal(0))),
    ("and-idem", lambda s: n.Binary("==", n.Binary("&", s, s), s)),
    ("le-self", lambda s: n.Binary("<=", s, s)),
    ("self-compare", lambda s: n.Binary("==", s, s)),
)


def check_tautology(pred: n.Expr, support, width_of) -> bool:
    """Exhaustive truth over every assignment to the support signals."""
    from ..evalexpr import annotate
    from ..sim import _compile_expr
    fields, total = [], 0
    for s in support:
        w = width_of(s)
        fields.append((s, total, (1 << w) - 1))
        total += w
    if total > TAUTOLOGY_WIDTH_CAP:
        return False
    widths = {}
    annotate(pred, width_of, widths)
    f = _compile_expr(pred, widths)
    env = {}
    for v in range(1 << total):
        for s, off, mask in fields:
            env[s] = (v >> off) & mask
        if f(env) != 1:
            return False
    return True


def gen_opaque_predicate(signals, seed=0) -> OpaquePredicate:
    """Instantiate a template over one of the given declarations; wide
    signals fall back to a <=20-bit slice so the check stays exhaustive."""
    decls = list(signals)
    if not decls:
        raise NoEligibleBlock("no signal to build a predicate over")
    rng = Random(seed)
    decl = decls[rng.randrange(len(decls))]
    from ..evalexpr import const_value
    width = const_value(decl.msb) - const_value(decl.lsb) + 1
    operand = n.Ref(decl.name)
    if width > TAUTOLOGY_WIDTH_CAP:
        operand = n.Slice(operand, n.Literal(TAUTOLOGY_WIDTH_CAP - 1), n.Literal(0))
        width = TAUTOLOGY_WIDTH_CAP
    template_id, build = _TEMPLATES[rng.randrange(len(_TEMPLATES))]
    pred = build(operand)
    width_of = lambda name: width if name == decl.name else None
    if not check_tautology(pred, (decl.name,), width_of):
        raise TautologyCheckFailed(f"template {template_id} over {decl.name}")
    return OpaquePredicate(pred, (decl.name,), template_id)


# --- dead branches -----------------------------------------------------------


def _random_expr(rng, pool, width_of, target_width, depth=2):
    """Seeded expression over declared signals/constants, no wider than
    the target (narrower values zero-extend on assignment)."""
    if depth == 0 or not pool or rng.random() < 0.25:
        if pool and rng.random() < 0.7:
            name = pool[rng.randrange(len(pool))]
            e = n.Ref(name)
            if width_of(name) > target_width:
                e = n.Slice(e, n.Literal(target_width - 1), n.Literal(0))
            return e
        return n.Literal(rng.randrange(1 << min(target_width, 16)), target_width)
    op = rng.choice(["&", "|", "^", "+"])
    lhs = _random_expr(rng, pool, width_of, target_width, depth - 1)
    rhs = _random_expr(rng, pool, width_of, target_width, depth - 1)
    return n.Binary(op, lhs, rhs)


def _dead_arm(targets, is_clocked, rng, pool, width_of):
    assigns = []
    for t in sorted(targets):
        rhs = _random_expr(rng, pool, width_of, width_of(t))
        cls = n.NonblockingAssign if is_clocked else n.BlockingAssign
        assigns.append(cls(n.Ref(t), rhs))
    return n.Block(tuple(assigns))


def wrap_in_dead_branch(module: n.ModuleDecl, pred: OpaquePredicate, seed=0,
                        block_index=None) -> n.ModuleDecl:
    """Move a process body under if(<tautology>); the never-taken else arm
    re-assigns the same targets from seeded junk expressions.

    Clocked blocks with an async-reset guard keep the guard outermost and
    wrap only its else arm, preserving the reset idiom for synthesis.
    """
    width_of = _width_map(module)
    rng = Random(seed)
    candidates = [i for i, item in enumerate(module.items)
                  if isinstance(item, n.ProcBlock)]
    if not candidates:
        raise NoEligibleBlock("module has no process block")
    idx = block_index if block_index is not None else candidates[rng.randrange(len(candidates))]
    if idx not in candidates:
        raise NoEligibleBlock(f"item {idx} is not a process block")
    block = module.items[idx]
    is_clocked = isinstance(block.sensitivity, n.EdgeSensitivity)

    label = fresh_name(DEAD_BRANCH_LABEL, _existing_labels(module))

    edgeish = set()
    for item in module.items:
        if isinstance(item, n.ProcBlock) and isinstance(item.sensitivity, n.EdgeSensitivity):
            edgeish |= {sig for _, sig in item.sensitivity.edges}

    def wrap(body):
        targets = n.assigned_names(body)
        if not targets:
            raise NoEligibleBlock("process assigns nothing")
        pool = sorted(set(module.declared_names()) - edgeish
                      - {p.name for p in module.params}
                      - (set() if is_clocked else targets))
        dead = _dead_arm(targets, is_clocked, rng, pool, width_of)
        return n.If(pred.expr, _as_block(body), dead, label=label)

    body = block.body
    unwrapped = body.stmts[0] if (isinstance(body, n.Block) and len(body.stmts) == 1) else body
    if is_clocked and isinstance(unwrapped, n.If) and _is_reset_guard(block, unwrapped):
        if unwrapped.else_stmt is None:
            raise NoEligibleBlock("reset-only block has no main arm")
        new_inner = replace(unwrapped, else_stmt=wrap(unwrapped.else_stmt))
        new_body = n.Block((new_inner,)) if isinstance(body, n.Block) else new_inner
    else:
        new_body = wrap(body)

    sens = block.sensitivity
    if isinstance(sens, n.CombSensitivity) and sens.signals is not None:
        # a named list must still cover everything the dead arm reads
        reads = set()
        for s in n.walk_stmts(new_body):
            for e in n.stmt_exprs(s):
                reads |= n.refs_in(e)
        reads -= n.assigned_names(new_body)
        extra = sorted(reads - set(sens.signals))
        if extra:
            sens = n.CombSensitivity(tuple(sens.signals) + tuple(extra))

    items = list(module.items)
    items[idx] = replace(block, sensitivity=sens, body=new_body)
    return replace(module, items=tuple(items))


def _as_block(s):
    return s if isinstance(s, n.Block) else n.Block((s,))


def _is_reset_guard(block, if_stmt):
    edge_sigs = {sig for _, sig in block.sensitivity.edges}
    return bool(n.refs_in(if_stmt.cond) & edge_sigs)


def _existing_labels(module):
    labels = set()
    for item in module.items:
        if isinstance(item, n.ProcBlock):
            for s in n.walk_stmts(item.body):
                if isinstance(s, n.If) and s.label:
                    labels.add(s.label)
    return labels


# --- mux cascading -----------------------------------------------------------


def find_mux_sites(module: n.ModuleDecl):
    """Ternary assigns and two-way if/else single-assign patterns.
    Async-reset guards are not data muxes and are left alone."""
    edgeish = set()
    for item in module.items:
        if isinstance(item, n.ProcBlock) and isinstance(item.sensitivity, n.EdgeSensitivity):
            edgeish |= {sig for _, sig in item.sensitivity.edges}
    sites = []
    for idx, item in enumerate(module.items):
        if isinstance(item, n.ContinuousAssign) and isinstance(item.rhs, n.Ternary):
            sites.append(MuxSite(f"assign {n.lvalue_base(item.lhs)}",
                                 item.rhs.cond,
                                 (item.rhs.then_expr, item.rhs.else_expr),
                                 item.lhs))
        elif isinstance(item, n.ProcBlock):
            for s in n.walk_stmts(item.body):
                if isinstance(s, (n.BlockingAssign, n.NonblockingAssign)) and \
                        isinstance(s.rhs, n.Ternary):
                    sites.append(MuxSite(f"proc#{idx} {n.lvalue_base(s.lhs)}",
                                         s.rhs.cond,
                                         (s.rhs.then_expr, s.rhs.else_expr),
                                         s.lhs))
                elif isinstance(s, n.If) and s.else_stmt is not None and \
                        not (n.refs_in(s.cond) & edgeish):
                    t, e = _single_assign(s.then_stmt), _single_assign(s.else_stmt)
                    if t and e and isinstance(t.lhs, n.Ref) and \
                            isinstance(e.lhs, n.Ref) and t.lhs.name == e.lhs.name:
                        sites.append(MuxSite(f"proc#{idx} {t.lhs.name}",
                                             s.cond, (t.rhs, e.rhs), t.lhs))
    return sites


def _single_assign(s):
    if isinstance(s, n.Block) and len(s.stmts) == 1:
        s = s.stmts[0]
    return s if isinstance(s, (n.BlockingAssign, n.NonblockingAssign)) else None


def cascade_mux(module: n.ModuleDecl, site: MuxSite) -> n.ModuleDecl:
    """One extra selection stage per the depicted shape: X = sel ? a : b,
    result = sel ? X : b. Output is unchanged for both selector values."""
    sites = find_mux_sites(module)
    if site not in sites:
        raise NoMuxFound(f"no mux at {site.location}")
    width_of = _width_map(module)
    x_name = fresh_name("mm_mux_stage", module.declared_names())
    target_w = width_of(n.lvalue_base(site.result))
    a, b = site.inputs
    stage = n.NetDecl(x_name, "wire", *n.make_range(target_w),
                      init=n.Ternary(site.selector, a, b))
    new_rhs = n.Ternary(site.selector, n.Ref(x_name), b)

    def rw_item(item):
        if isinstance(item, n.ContinuousAssign) and item.lhs == site.result and \
                isinstance(item.rhs, n.Ternary) and item.rhs.cond == site.selector \
                and (item.rhs.then_expr, item.rhs.else_expr) == site.inputs:
            return replace(item, rhs=new_rhs), True
        if isinstance(item, n.ProcBlock):
            hit = [False]

            def rw(s):
                if isinstance(s, (n.BlockingAssign, n.NonblockingAssign)) and \
                        s.lhs == site.result and isinstance(s.rhs, n.Ternary) and \
                        s.rhs.cond == site.selector and \
                        (s.rhs.then_expr, s.rhs.else_expr) == site.inputs and not hit[0]:
                    hit[0] = True
                    return replace(s, rhs=new_rhs)
                if isinstance(s, n.If) and s.else_stmt is not None and not hit[0]:
                    t, e = _single_assign(s.then_stmt), _single_assign(s.else_stmt)
                    if t and e and t.lhs == site.result and e.lhs == site.result and \
                            s.cond == site.selector and (t.rhs, e.rhs) == site.inputs:
                        hit[0] = True
                        return replace(s, then_stmt=replace(t, rhs=n.Ref(x_name)))
                return s

            return replace(item, body=n.map_stmt(item.body, rw)), hit[0]
        return item, False

    items = []
    done = False
    for item in module.items:
        if done:
            items.append(item)
            continue
        new_item, hit = rw_item(item)
        items.append(new_item)
        done = done or hit
    if not done:
        raise NoMuxFound(f"mux at {site.location} vanished")
    return replace(module, nets=module.nets + (stage,), items=tuple(items))


# --- composed strategy --------------------------------------------------------


@dataclass(frozen=True)
class DatapathMutationConfig:
    seed: int = 0
    cascade: bool = True
    wrap: bool = True
    max_wraps: int = 1


def mutate_datapath(module: n.ModuleDecl, cfg: DatapathMutationConfig = None):
    cfg = cfg or DatapathMutationConfig()
    rng = Random(cfg.seed)
    record = MutationRecord(strategy="datapath", seed=cfg.seed)
    out = module
    applied = False

    if cfg.cascade:
        for site in find_mux_sites(out):
            try:
                out = cascade_mux(out, site)
            except NoMuxFound:
                continue  # consumed by an earlier rewrite
            record.sites.append(f"cascade {site.location}")
            applied = True

    if cfg.wrap:
        blocks = [i for i, item in enumerate(out.items)
                  if isinstance(item, n.ProcBlock)]
        rng.shuffle(blocks)
        for idx in blocks[:cfg.max_wraps]:
            block = out.items[idx]
            avoid = set()
            if isinstance(block.sensitivity, n.CombSensitivity):
                # a comb predicate over the block's own outputs would close
                # a combinational cycle
                avoid = n.assigned_names(block.body)
            sig_pool = list(out.ports) + list(out.nets)
            pred = gen_opaque_predicate(
                [d for d in sig_pool
                 if not _is_clockish(out, d.name) and d.name not in avoid],
                seed=rng.randrange(1 << 30))
            out = wrap_in_dead_branch(out, pred, seed=rng.randrange(1 << 30),
                                      block_index=idx)
            record.sites.append(f"dead-branch proc#{idx} pred={pred.template_id}"
                                f"({','.join(pred.support)})")
            applied = True

    if not applied:
        raise NoEligibleSite("no mux to cascade and no block to wrap")
    outputs = [p.name for p in module.ports if p.direction == "output"]
    record.with_offsets(outputs, 0)
    return out, record


def _is_clockish(module, name):
    for item in module.items:
        if isinstance(item, n.ProcBlock) and isinstance(item.sensitivity, n.EdgeSensitivity):
            if any(sig == name for _, sig in item.sensitivity.edges):
                return True
    return False
