"""Timing-control-flow metamorphosis: FSM detection, pass-through state
chaining, and state splitting, all cycle-budget preserving.

The detector lifts the two-process idiom: one clocked block that
case-switches a register over symbolic constants with constant next-state
assignments (an if/else-if equality chain is normalized to the same
shape), plus combinational blocks that case over the same register for
Moore outputs. Timers are (counter == K) guards whose miss arm increments
the counter; the dwell of such a state is K+1 cycles.

Chaining inserts k pass-through states on a timer edge and reduces the
timer limit by k, so entry-to-entry cycle counts are unchanged; edge
actions move to the final hop, which fires at the same absolute cycle.
Splitting keeps the original encoding value for the first sub-state so
every incoming transition and the reset branch stay verbatim.
"""

from dataclasses import dataclass, replace
from typing import Optional

from .. import nodes as n
from ..errors import (
    AmbiguousFsm, FsmNotFound, InsufficientTimerBudget, NoApplicableSite,
    NoTimer, NoTimerOnEdge, PartitionMismatch,
)
from ..evalexpr import try_const
from .logic import _module_params, _width_map
from .record import MutationRecord, fresh_name


@dataclass(frozen=True)
class Timer:
    counter: str
    limit: int  # comparison constant; dwell = limit + 1 cycles

    @property
    def dwell(self):
        return self.limit + 1


@dataclass(frozen=True)
class Transition:
    src: str
    dst: str
    kind: str  # "timer" | "plain" | "always"
    guard: Optional[n.Expr] = None
    extra_assigns: tuple = ()


@dataclass(frozen=True)
class StateNode:
    name: str
    value: int
    label_expr: n.Expr  # how the case label is spelled (param ref or literal)
    arm_body: Optional[n.Stmt]  # verbatim body; None for synthesized states
    actions: tuple = ()  # unconditional per-cycle nonblocking assigns
    moore: tuple = ()  # ((moore block idx, verbatim arm body), ...)
    synthesized: Optional[dict] = None  # lowering recipe for new/edited states

    def moore_body(self, block_idx):
        for i, body in self.moore:
            if i == block_idx:
                return body
        return None


@dataclass(frozen=True)
class MooreBlock:
    item_index: int
    prefix: tuple  # statements before the case, verbatim
    default: Optional[n.Stmt]


@dataclass(frozen=True)
class FsmModel:
    module: n.ModuleDecl
    state_reg: str
    state_width: int
    reset_state: Optional[str]
    reset_cond: Optional[n.Expr]
    reset_stmt: Optional[n.Stmt]
    pre_case: tuple
    states: tuple
    transitions: tuple
    timers: dict
    moore_blocks: tuple
    clocked_index: int
    dirty: bool = False

    @property
    def encoding(self):
        return {s.name: s.value for s in self.states}

    def state(self, name):
        for s in self.states:
            if s.name == name:
                return s
        raise KeyError(name)


# --- detection ----------------------------------------------------------------


def _unwrap(s):
    while isinstance(s, n.Block) and len(s.stmts) == 1:
        s = s.stmts[0]
    return s


def _stmt_list(s):
    if s is None:
        return []
    if isinstance(s, n.Block):
        return list(s.stmts)
    return [s]


def _state_const(e, params):
    """(value, source expr) when e is a symbolic or literal state constant."""
    got = try_const(e, params)
    if got is None:
        return None
    return got[0]


def _eq_chain_to_arms(stmt, reg_name, params):
    """Normalize if (r == C1) ... else if (r == C2) ... to case-style arms."""
    arms = []
    default = None
    cur = stmt
    while isinstance(cur, n.If):
        c = cur.cond
        if not (isinstance(c, n.Binary) and c.op == "==" and
                isinstance(c.lhs, n.Ref) and c.lhs.name == reg_name and
                try_const(c.rhs, params) is not None):
            return None
        arms.append((c.rhs, cur.then_stmt))
        cur = _unwrap(cur.else_stmt) if cur.else_stmt is not None else None
        if cur is not None and not isinstance(cur, n.If):
            default = cur
            break
    if not arms:
        return None
    return arms, default


def _find_dispatch(main, params):
    """(reg name, [(label expr, body)], default, pre-case stmts) or None."""
    stmts = _stmt_list(_unwrap(main)) if isinstance(_unwrap(main), n.Block) else [_unwrap(main)]
    pre = []
    core = None
    for s in stmts:
        if core is None and isinstance(s, n.Case) and isinstance(s.subject, n.Ref):
            core = s
        elif core is None and isinstance(s, n.NonblockingAssign):
            pre.append(s)
        else:
            return None
    if core is not None:
        arms = []
        for arm in core.arms:
            if len(arm.labels) != 1:
                return None
            arms.append((arm.labels[0], arm.body))
        return core.subject.name, arms, core.default, tuple(pre)
    if len(stmts) == 1 and isinstance(stmts[0], n.If):
        c = stmts[0].cond
        if isinstance(c, n.Binary) and c.op == "==" and isinstance(c.lhs, n.Ref):
            got = _eq_chain_to_arms(stmts[0], c.lhs.name, params)
            if got:
                return c.lhs.name, got[0], got[1], ()
    return None


def _assigned_consts(body, reg, params):
    """Every value assigned to reg in body; None if any is non-constant."""
    out = []
    for s in n.walk_stmts(body):
        if isinstance(s, (n.NonblockingAssign, n.BlockingAssign)) and \
                isinstance(s.lhs, n.Ref) and s.lhs.name == reg:
            v = _state_const(s.rhs, params)
            if v is None:
                return None
            out.append(v)
    return out


def _parse_timer_if(s, params):
    """Timer transition shape:
    if (cnt == K) { cnt <= 0; state <= DST; extras } else { cnt <= cnt + 1 }
    Returns (counter, K, then_stmts) or None."""
    if not isinstance(s, n.If) or s.else_stmt is None:
        return None
    c = s.cond
    if not (isinstance(c, n.Binary) and c.op == "==" and isinstance(c.lhs, n.Ref)):
        return None
    k = try_const(c.rhs, params)
    if k is None:
        return None
    cnt = c.lhs.name
    els = _stmt_list(_unwrap(s.else_stmt))
    if len(els) != 1 or not isinstance(els[0], n.NonblockingAssign):
        return None
    inc = els[0]
    step = try_const(inc.rhs.rhs, params) if isinstance(inc.rhs, n.Binary) else None
    if not (isinstance(inc.lhs, n.Ref) and inc.lhs.name == cnt and
            isinstance(inc.rhs, n.Binary) and inc.rhs.op == "+" and
            isinstance(inc.rhs.lhs, n.Ref) and inc.rhs.lhs.name == cnt and
            step is not None and step[0] == 1):
        return None
    then_stmts = _stmt_list(_unwrap(s.then_stmt))
    return cnt, k[0], then_stmts


def _parse_arm(state_name, body, state_reg, params, value_to_name):
    """Split an arm into (actions, transitions, timer, trailing stmt)."""
    stmts = _stmt_list(_unwrap(body))
    actions = []
    i = 0
    while i < len(stmts) and isinstance(stmts[i], n.NonblockingAssign) and \
            n.lvalue_base(stmts[i].lhs) != state_reg:
        actions.append(stmts[i])
        i += 1
    rest = stmts[i:]
    if not rest:
        return tuple(actions), (), None
    if len(rest) != 1:
        return None
    tail = rest[0]

    timer_parse = _parse_timer_if(tail, params)
    if timer_parse is not None:
        cnt, limit, then_stmts = timer_parse
        dst = None
        extras = []
        cnt_reset_seen = False
        for s in then_stmts:
            if isinstance(s, n.NonblockingAssign) and isinstance(s.lhs, n.Ref):
                if s.lhs.name == state_reg:
                    v = _state_const(s.rhs, params)
                    if v is None or v not in value_to_name:
                        return None
                    dst = value_to_name[v]
                    continue
                if s.lhs.name == cnt and _state_const(s.rhs, params) == 0:
                    cnt_reset_seen = True
                    continue
            extras.append(s)
        if dst is None or not cnt_reset_seen:
            return None
        if any(not isinstance(s, n.NonblockingAssign) for s in extras):
            return None
        tr = Transition(state_name, dst, "timer",
                        guard=tail.cond, extra_assigns=tuple(extras))
        return tuple(actions), (tr,), Timer(cnt, limit)

    if isinstance(tail, n.NonblockingAssign) and isinstance(tail.lhs, n.Ref) and \
            tail.lhs.name == state_reg:
        v = _state_const(tail.rhs, params)
        if v is None or v not in value_to_name:
            return None
        return tuple(actions), (Transition(state_name, value_to_name[v], "always"),), None

    if isinstance(tail, n.If):
        transitions = []
        cur = tail
        while cur is not None:
            if not isinstance(cur, n.If):
                return None  # trailing unconditional else with state assign
            then_stmts = _stmt_list(_unwrap(cur.then_stmt))
            dst = None
            extras = []
            for s in then_stmts:
                if isinstance(s, n.NonblockingAssign) and isinstance(s.lhs, n.Ref) \
                        and s.lhs.name == state_reg:
                    v = _state_const(s.rhs, params)
                    if v is None or v not in value_to_name:
                        return None
                    dst = v
                elif isinstance(s, n.NonblockingAssign):
                    extras.append(s)
                else:
                    return None
            if dst is None:
                return None
            transitions.append(Transition(state_name, value_to_name[dst], "plain",
                                          guard=cur.cond, extra_assigns=tuple(extras)))
            nxt = _unwrap(cur.else_stmt) if cur.else_stmt is not None else None
            if nxt is not None and not isinstance(nxt, n.If):
                stl = _stmt_list(nxt)
                for s in stl:
                    if not (isinstance(s, n.NonblockingAssign) and
                            isinstance(s.lhs, n.Ref) and s.lhs.name == state_reg):
                        return None
                    v = _state_const(s.rhs, params)
                    if v is None or v not in value_to_name:
                        return None
                    transitions.append(Transition(state_name, value_to_name[v], "always"))
                nxt = None
            cur = nxt
        return tuple(actions), tuple(transitions), None
    return None


def _reg_usage_ok(module, state_reg, clocked_index, moore_indexes):
    """state_reg may appear only in its clocked block and as the case
    subject of the recognized moore blocks."""
    for idx, item in enumerate(module.items):
        if idx == clocked_index:
            continue
        if isinstance(item, n.ContinuousAssign):
            if state_reg in n.refs_in(item.rhs) | n.refs_in(item.lhs):
                return False
        elif isinstance(item, n.ProcBlock):
            if idx in moore_indexes:
                continue
            for s in n.walk_stmts(item.body):
                for e in n.stmt_exprs(s):
                    if state_reg in n.refs_in(e):
                        return False
        elif isinstance(item, n.InstanceDecl):
            for _, e in item.connections:
                if state_reg in n.refs_in(e):
                    return False
    return True


def _lift_moore(module, state_reg, value_to_name, clocked_index, params):
    """Recognize comb blocks casing on the state register."""
    blocks = []
    per_state = {name: {} for name in value_to_name.values()}
    for idx, item in enumerate(module.items):
        if not isinstance(item, n.ProcBlock) or idx == clocked_index:
            continue
        if not isinstance(item.sensitivity, n.CombSensitivity):
            continue
        stmts = _stmt_list(_unwrap(item.body))
        case = None
        prefix = []
        for s in stmts:
            if case is None and isinstance(s, n.Case) and \
                    isinstance(s.subject, n.Ref) and s.subject.name == state_reg:
                case = s
            elif case is None:
                if state_reg in set().union(*[n.refs_in(e) for e in n.stmt_exprs(s)] or [set()]):
                    return None
                prefix.append(s)
            else:
                return None
        if case is None:
            for s in n.walk_stmts(item.body):
                for e in n.stmt_exprs(s):
                    if state_reg in n.refs_in(e):
                        return None  # reads state outside the case idiom
            continue
        for arm in case.arms:
            if len(arm.labels) != 1:
                return None
            v = _state_const(arm.labels[0], params)
            if v is None or v not in value_to_name:
                return None
            per_state[value_to_name[v]][idx] = arm.body
        blocks.append(MooreBlock(idx, tuple(prefix), case.default))
    return tuple(blocks), per_state


def detect_fsm(module: n.ModuleDecl, state_reg: Optional[str] = None) -> FsmModel:
    """Lift the FSM idiom; raises FsmNotFound / AmbiguousFsm."""
    params = _module_params(module)
    reg_names = {d.name for d in module.nets if d.kind == "reg"}

    candidates = []
    for idx, item in enumerate(module.items):
        if not isinstance(item, n.ProcBlock) or \
                not isinstance(item.sensitivity, n.EdgeSensitivity):
            continue
        body = _unwrap(item.body)
        reset_cond = reset_stmt = None
        main = body
        edge_sigs = {sig for _, sig in item.sensitivity.edges}
        if isinstance(body, n.If) and (n.refs_in(body.cond) & edge_sigs):
            reset_cond, reset_stmt, main = body.cond, body.then_stmt, body.else_stmt
            if main is None:
                continue
        got = _find_dispatch(main, params)
        if got is None:
            continue
        reg, arms, default, pre = got
        if reg not in reg_names:
            continue  # ports or wires are not state registers
        consts = _assigned_consts(item.body, reg, params)
        if consts is None:
            continue
        candidates.append((idx, reg, arms, default, pre, reset_cond, reset_stmt))

    if state_reg is not None:
        candidates = [c for c in candidates if c[1] == state_reg]
    if not candidates:
        raise FsmNotFound(f"no state-machine idiom in {module.name}")
    if len(candidates) > 1:
        raise AmbiguousFsm([c[1] for c in candidates])

    idx, reg, arms, default, pre, reset_cond, reset_stmt = candidates[0]
    if default is not None:
        raise FsmNotFound("state dispatch with a default arm is not liftable")

    value_to_name = {}
    labels = []
    for label_expr, _ in arms:
        v = _state_const(label_expr, params)
        if v is None or v in value_to_name:
            raise FsmNotFound("state labels must be distinct constants")
        name = label_expr.name if isinstance(label_expr, n.Ref) else f"S{v}"
        value_to_name[v] = name
        labels.append((name, v, label_expr))

    moore = _lift_moore(module, reg, value_to_name, idx, params)
    if moore is None:
        raise FsmNotFound(f"{reg} is used outside the recognizable idiom")
    moore_blocks, moore_per_state = moore
    if not _reg_usage_ok(module, reg, idx,
                         {mb.item_index for mb in moore_blocks}):
        raise FsmNotFound(f"{reg} leaks outside its blocks")

    states = []
    transitions = []
    timers = {}
    for (name, value, label_expr), (_, body) in zip(labels, arms):
        parsed = _parse_arm(name, body, reg, params, value_to_name)
        if parsed is None:
            raise FsmNotFound(f"arm {name} does not fit the liftable shape")
        actions, trs, timer = parsed
        for t in trs:
            transitions.append(t)
        if timer is not None:
            timers[name] = timer
        states.append(StateNode(
            name=name, value=value, label_expr=label_expr, arm_body=body,
            actions=actions,
            moore=tuple(sorted(moore_per_state[name].items()))))

    # timer counters must belong to this block alone
    for t in timers.values():
        for jdx, item in enumerate(module.items):
            if jdx == idx or not isinstance(item, n.ProcBlock):
                continue
            if t.counter in n.assigned_names(item.body):
                raise FsmNotFound(f"timer counter {t.counter} written elsewhere")

    reset_state = None
    if reset_stmt is not None:
        consts = _assigned_consts(reset_stmt, reg, params)
        if consts:
            reset_state = value_to_name.get(consts[0])

    sw = _width_map(module, params)(reg)
    return FsmModel(
        module=module, state_reg=reg, state_width=sw,
        reset_state=reset_state, reset_cond=reset_cond, reset_stmt=reset_stmt,
        pre_case=pre, states=tuple(states), transitions=tuple(transitions),
        timers=dict(timers), moore_blocks=moore_blocks, clocked_index=idx)


# --- transforms ---------------------------------------------------------------


def _taken_names(fsm):
    return set(fsm.module.declared_names()) | {s.name for s in fsm.states}


def chain_transition(fsm: FsmModel, edge, k: int) -> FsmModel:
    """Insert k pass-through states on a timer-guarded edge; the source
    state's timer limit drops by k so total latency is unchanged."""
    src_name, dst_name = edge
    if k == 0:
        return fsm
    if k < 0:
        raise ValueError("k must be >= 0")
    timer = fsm.timers.get(src_name)
    tr = next((t for t in fsm.transitions
               if t.src == src_name and t.dst == dst_name and t.kind == "timer"), None)
    if timer is None or tr is None:
        raise NoTimerOnEdge(f"{src_name} -> {dst_name} is not timer-guarded")
    if timer.limit < k:
        raise InsufficientTimerBudget(
            f"limit {timer.limit} cannot absorb {k} pass-through cycles")

    src = fsm.state(src_name)
    taken = _taken_names(fsm)
    names = []
    for i in range(1, k + 1):
        name = fresh_name(f"{src_name}_PASS{i}", taken)
        taken.add(name)
        names.append(name)
    next_value = max(s.value for s in fsm.states) + 1

    new_states = []
    hops = names + [dst_name]
    for i, name in enumerate(names):
        last = i == len(names) - 1
        new_states.append(StateNode(
            name=name, value=next_value + i, label_expr=n.Ref(name),
            arm_body=None, actions=src.actions, moore=src.moore,
            synthesized={
                "kind": "always",
                "dst": hops[i + 1],
                "extras": tr.extra_assigns if last else (),
            }))

    edited_src = replace(src, arm_body=None, synthesized={
        "kind": "timer", "counter": timer.counter, "limit": timer.limit - k,
        "dst": names[0], "extras": (),
    })

    states = []
    for s in fsm.states:
        if s.name == src_name:
            states.append(edited_src)
            states.extend(new_states)
        else:
            states.append(s)

    transitions = [t for t in fsm.transitions if t is not tr]
    transitions.append(replace(tr, dst=names[0], extra_assigns=()))
    for i, name in enumerate(names):
        last = i == len(names) - 1
        transitions.append(Transition(name, hops[i + 1], "always",
                                      extra_assigns=tr.extra_assigns if last else ()))

    timers = dict(fsm.timers)
    timers[src_name] = Timer(timer.counter, timer.limit - k)
    return replace(fsm, states=tuple(states), transitions=tuple(transitions),
                   timers=timers, dirty=True)


_SUB_SUFFIXES = {2: ("INIT", "FINAL"), 3: ("INIT", "ACTIVE", "FINAL")}


def _sub_names(base, count, taken):
    if count in _SUB_SUFFIXES:
        suffixes = _SUB_SUFFIXES[count]
    else:
        suffixes = ["INIT"] + [f"ACTIVE{i}" for i in range(1, count - 1)] + ["FINAL"]
    out = []
    for suf in suffixes:
        name = fresh_name(f"{base}_{suf}", taken)
        taken.add(name)
        out.append(name)
    return out


def split_state(fsm: FsmModel, state_name: str, parts) -> FsmModel:
    """Subdivide a timed state into sub-states dwelling `parts` cycles each
    (sum(parts) == original dwell). Each sub-state replicates the full
    per-cycle actions and Moore outputs, so behavior is per-cycle identical."""
    parts = tuple(parts)
    timer = fsm.timers.get(state_name)
    if timer is None:
        raise NoTimer(f"{state_name} has no timer")
    if len(parts) < 2:
        raise PartitionMismatch("need at least 2 parts")
    if any(p < 1 for p in parts):
        raise PartitionMismatch("every part must dwell at least one cycle")
    if sum(parts) != timer.dwell:
        raise PartitionMismatch(
            f"parts sum to {sum(parts)}, state dwells {timer.dwell} cycles")

    old = fsm.state(state_name)
    out_tr = next(t for t in fsm.transitions
                  if t.src == state_name and t.kind == "timer")
    taken = _taken_names(fsm)
    names = _sub_names(state_name, len(parts), taken)
    next_value = max(s.value for s in fsm.states) + 1

    final_dst = names[0] if out_tr.dst == state_name else out_tr.dst
    hops = names[1:] + [final_dst]
    subs = []
    for i, (name, dwell) in enumerate(zip(names, parts)):
        value = old.value if i == 0 else next_value + (i - 1)
        last = i == len(names) - 1
        extras = out_tr.extra_assigns if last else ()
        if dwell == 1:
            recipe = {"kind": "always", "dst": hops[i], "extras": extras}
        else:
            recipe = {"kind": "timer", "counter": timer.counter,
                      "limit": dwell - 1, "dst": hops[i], "extras": extras}
        subs.append(StateNode(
            name=name, value=value, label_expr=n.Ref(name), arm_body=None,
            actions=old.actions, moore=old.moore, synthesized=recipe))

    states = []
    for s in fsm.states:
        if s.name == state_name:
            states.extend(subs)
            continue
        if s.synthesized is not None and s.synthesized.get("dst") == state_name:
            # synthesized arms name their target; verbatim arms reach the
            # first sub-state through its inherited encoding value instead
            s = replace(s, synthesized=dict(s.synthesized, dst=names[0]))
        states.append(s)

    transitions = [t for t in fsm.transitions if t.src != state_name]
    renames = {state_name: names[0]}
    transitions = [replace(t, dst=renames.get(t.dst, t.dst)) for t in transitions]
    for i, (name, dwell) in enumerate(zip(names, parts)):
        last = i == len(names) - 1
        transitions.append(Transition(
            name, hops[i], "timer" if dwell > 1 else "always",
            extra_assigns=out_tr.extra_assigns if last else ()))

    timers = {k: v for k, v in fsm.timers.items() if k != state_name}
    for name, dwell in zip(names, parts):
        if dwell > 1:
            timers[name] = Timer(timer.counter, dwell - 1)

    reset_state = names[0] if fsm.reset_state == state_name else fsm.reset_state
    return replace(fsm, states=tuple(states), transitions=tuple(transitions),
                   timers=timers, reset_state=reset_state, dirty=True)


# --- lowering -----------------------------------------------------------------


def _state_literal(value, width):
    return n.Literal(value, width, base="b")


def _synth_arm(state: StateNode, fsm, counter_width):
    recipe = state.synthesized
    name_to_expr = {s.name: s.label_expr for s in fsm.states}
    stmts = list(state.actions)
    dst_expr = name_to_expr[recipe["dst"]]
    if recipe["kind"] == "always":
        stmts.append(n.NonblockingAssign(n.Ref(fsm.state_reg), dst_expr))
        stmts.extend(recipe["extras"])
    else:
        cnt = recipe["counter"]
        then = [n.NonblockingAssign(n.Ref(cnt), n.Literal(0, counter_width, base="b")),
                n.NonblockingAssign(n.Ref(fsm.state_reg), dst_expr)]
        then.extend(recipe["extras"])
        cond = n.Binary("==", n.Ref(cnt), n.Literal(recipe["limit"], counter_width, base="d"))
        inc = n.NonblockingAssign(
            n.Ref(cnt), n.Binary("+", n.Ref(cnt), n.Literal(1, 1, base="b")))
        stmts.append(n.If(cond, n.Block(tuple(then)), n.Block((inc,))))
    return n.Block(tuple(stmts))


def lower(fsm: FsmModel, force: bool = False) -> n.ModuleDecl:
    """Rebuild the module from the model. Untouched models return the
    original module object; touched state arms are synthesized, everything
    else is re-emitted verbatim."""
    if not fsm.dirty and not force:
        return fsm.module
    module = fsm.module
    width = max(max(s.value for s in fsm.states).bit_length(), 1)
    width_of = _width_map(module)
    counter_width = _counter_width(fsm, width_of)

    params = list(module.params)
    existing_params = {p.name for p in params}
    for s in fsm.states:
        if isinstance(s.label_expr, n.Ref) and s.label_expr.name not in existing_params:
            params.append(n.ParamDecl(s.label_expr.name,
                                      _state_literal(s.value, width)))
            existing_params.add(s.label_expr.name)

    nets = []
    for d in module.nets:
        if d.name == fsm.state_reg and width_of(d.name) < width:
            nets.append(replace(d, msb=n.Literal(width - 1), lsb=n.Literal(0)))
        else:
            nets.append(d)

    arms = []
    for s in fsm.states:
        body = s.arm_body if s.synthesized is None else \
            _synth_arm(s, fsm, counter_width)
        arms.append(n.CaseArm((s.label_expr,), body))
    case = n.Case(n.Ref(fsm.state_reg), tuple(arms), None)
    main = n.Block(fsm.pre_case + (case,)) if fsm.pre_case else n.Block((case,))
    if fsm.reset_cond is not None:
        body = n.Block((n.If(fsm.reset_cond, fsm.reset_stmt, main),))
    else:
        body = main

    items = []
    for idx, item in enumerate(module.items):
        if idx == fsm.clocked_index:
            items.append(replace(item, body=body))
            continue
        mb = next((b for b in fsm.moore_blocks if b.item_index == idx), None)
        if mb is None:
            items.append(item)
            continue
        moore_arms = []
        for s in fsm.states:
            arm_body = s.moore_body(idx)
            if arm_body is None:
                continue
            moore_arms.append(n.CaseArm((s.label_expr,), arm_body))
        default = mb.default
        if default is None and len(moore_arms) < (1 << width):
            default = moore_arms[0].body  # keep the block latch-free
        moore_case = n.Case(n.Ref(fsm.state_reg), tuple(moore_arms), default)
        items.append(replace(item, body=n.Block(mb.prefix + (moore_case,))))

    return n.ModuleDecl(module.name, module.ports, tuple(params),
                        tuple(nets), tuple(items), pos=module.pos)


def _counter_width(fsm, width_of):
    counters = {t.counter for t in fsm.timers.values()}
    if not counters:
        return 1
    return max(width_of(c) for c in counters)


# --- composed strategy ----------------------------------------------------------


@dataclass(frozen=True)
class FsmMutationConfig:
    seed: int = 0
    chain_k: int = 3
    chain_edge: Optional[tuple] = None  # (src, dst); None picks the first eligible
    split_target: Optional[str] = None  # None picks the first splittable state
    split_parts: Optional[tuple] = None  # None -> (1, dwell - 1)
    do_chain: bool = True
    do_split: bool = True


def mutate_fsm(module: n.ModuleDecl, cfg: FsmMutationConfig = None):
    """Detect, chain, split, re-encode, lower. Raises FsmNotFound when the
    module has no liftable FSM and NoApplicableSite when it has one but no
    transform applies."""
    cfg = cfg or FsmMutationConfig()
    try:
        fsm = detect_fsm(module)
    except AmbiguousFsm as exc:
        fsm = detect_fsm(module, state_reg=exc.candidates[0])
    record = MutationRecord(strategy="fsm", seed=cfg.seed)
    chained_src = None

    if cfg.do_chain and cfg.chain_k > 0:
        edge = cfg.chain_edge
        if edge is None:
            for t in fsm.transitions:
                timer = fsm.timers.get(t.src)
                if t.kind == "timer" and timer and timer.limit >= cfg.chain_k:
                    edge = (t.src, t.dst)
                    break
        if edge is not None:
            fsm = chain_transition(fsm, edge, cfg.chain_k)
            chained_src = edge[0]
            record.sites.append(f"chain {edge[0]}->{edge[1]} k={cfg.chain_k}")

    if cfg.do_split:
        target = cfg.split_target
        if target is None:
            for s in fsm.states:
                timer = fsm.timers.get(s.name)
                if timer and timer.dwell >= 2 and s.name != chained_src \
                        and s.synthesized is None:
                    target = s.name
                    break
        if target is not None:
            dwell = fsm.timers[target].dwell if target in fsm.timers else 0
            parts = cfg.split_parts or (1, dwell - 1)
            fsm = split_state(fsm, target, parts)
            record.sites.append(f"split {target} parts={','.join(map(str, parts))}")

    if not fsm.dirty:
        raise NoApplicableSite("FSM found, but no timer edge to chain or split")
    mutant = lower(fsm)
    outputs = [p.name for p in module.ports if p.direction == "output"]
    record.with_offsets(outputs, 0)
    return mutant, record


# --- export ---------------------------------------------------------------------


def to_dot(fsm: FsmModel) -> str:
    """State transition graph in DOT format."""
    from ..emitter import emit_expr
    lines = ["digraph fsm {", "    rankdir=LR;"]
    for s in fsm.states:
        shape = "doublecircle" if s.name == fsm.reset_state else "circle"
        timer = fsm.timers.get(s.name)
        label = s.name if timer is None else f"{s.name}\\ndwell={timer.dwell}"
        lines.append(f'    "{s.name}" [shape={shape}, label="{label}"];')
    for t in fsm.transitions:
        if t.kind == "timer":
            label = f"{fsm.timers[t.src].counter}=={fsm.timers[t.src].limit}" \
                if t.src in fsm.timers else emit_expr(t.guard)
        elif t.guard is not None:
            label = emit_expr(t.guard)
        else:
            label = ""
        lines.append(f'    "{t.src}" -> "{t.dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
