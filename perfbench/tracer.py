"""Layer tracing for one benchmark operation, installed from outside coarsekit.

Two passes use this module, each in its own fresh interpreter:

* the span pass wraps the public functions that bound a layer.  Each call
  records a span ``[name, start, end, parent]`` in memory; the operation id
  is the process itself, since every operation runs in its own interpreter.
  Self time is a span's duration minus the time its child spans cover.
* the counts pass wraps only hot primitives (group arithmetic, sort keys,
  map and action application) with a bare counter, so that their wrappers
  never inflate the span pass's self times.

A name bound with ``from .x import y`` is a second reference to the same
function, so every module of the package that holds the original object gets
the wrapper.  A target that no longer exists is reported in ``missing`` and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
import time
import weakref
from collections import Counter, defaultdict

SPAN, COUNT = 1, 2

# public functions that bound a layer; the span is named like the function
SPAN_TARGETS = [
    "groups.ball",
    "groups.conjugacy_window",
    "families.finite_family",
    "families.member_witness",
    "families.star_family",
    "families.refines",
    "structures.membership_window",
    "maps.check_bornologous",
    "maps.check_coarsely_proper",
    "maps.surjective_equivalence_check",
    "maps.check_close",
    "maps.pullback_structure_equality",
    "actions.induced_structure_second",
    "actions.cobounded_check",
    "actions.uniformly_bornologous_action_check",
    "actions.stabilizer_window",
    "actions.point_finite_check",
    "actions.coarse_action_certificate",
    "actions.commuting_equivalence",
    "group_checks.fc_test",
    "group_checks.compare_left_right",
    "group_checks.multiplication_bornologous_check",
    "group_checks.dihedral_demo",
    "transfer.build_transfer_data",
    "transfer.compute_transfer_sets",
    "transfer.compute_cover_constant",
    "transfer.enumerate_beta_windows",
    "transfer.beta_window_check",
    "transfer.actions_commute_check",
    "cli.main",
]

# hot primitives, counted as "<name>.calls" ("__call__" counts as "call")
COUNT_TARGETS = [
    "groups.multiply",
    "groups.invert",
    "groups.sort_key",
    "groups.word_length",
    "spaces.GroupSpace.sort_key",
    "spaces.GroupSpace.window",
    "maps.MapWindow.__call__",
    "actions.Action.apply",
    "actions.Action.apply_set",
]


def count_name(target: str) -> str:
    return target.replace("__call__", "call") + ".calls"


# member_contribution is one base-class method; its span is named after the
# kind of structure it serves
CONTRIBUTION_SPANS = {
    "LeftGroupStructure": "structures.member_contribution.group",
    "RightGroupStructure": "structures.member_contribution.group",
    "PullbackStructure": "structures.member_contribution.pullback",
    "ActionInducedStructure": "actions.member_contribution.induced",
}


class _PerObject:
    """Per-object state keyed by id, dropped when the object is collected,
    so a reused id never inherits another object's state."""

    def __init__(self, factory):
        self._factory = factory
        self._state = {}

    def get(self, obj):
        key = id(obj)
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = self._factory()
            weakref.finalize(obj, self._state.pop, key, None)
        return state


def _rebind(orig, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if name != "coarsekit" and not name.startswith("coarsekit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans or counts for the one operation this interpreter runs."""

    def __init__(self, mode: int):
        self.mode = mode
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list = []
        self.counts: Counter = Counter()
        self.missing: list = []
        self._ball_max: dict = {}
        if mode == SPAN:
            self._install_spans()
        elif mode == COUNT:
            self._install_counts()
        else:
            raise ValueError(f"unknown trace mode {mode}")

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lookup(self, module: str, dotted: str):
        """``coarsekit.<module>.<dotted>``, or None.  A module this operation
        never imported is skipped quietly; a name that no longer exists is
        reported in ``missing``."""
        full = f"coarsekit.{module}"
        obj = sys.modules.get(full)
        if obj is None:
            if importlib.util.find_spec(full) is None:
                self.missing.append(f"{module}.{dotted}")
            return None
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                self.missing.append(f"{module}.{dotted}")
                return None
        return obj

    def _patch_function(self, module: str, attr: str, make) -> None:
        orig = self._lookup(module, attr)
        if orig is not None:
            _rebind(orig, make(orig))

    def _patch_method(self, module: str, dotted: str, make) -> None:
        """Wrap the method in the class and in every subclass overriding it."""
        if self._lookup(module, dotted) is None:
            return
        cls_name, meth = dotted.split(".")
        todo, seen = [self._lookup(module, cls_name)], set()
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(c.__subclasses__())
            if meth in vars(c):
                setattr(c, meth, make(vars(c)[meth]))

    # -- span pass --------------------------------------------------------

    def _install_spans(self) -> None:
        extras = {
            "groups.ball": (None, self._after_ball),
            "families.finite_family": (self._before_family, self._after_family),
            "structures.membership_window": (None, self._after_membership),
            "transfer.enumerate_beta_windows": (None, self._after_enumerate),
        }
        for name in SPAN_TARGETS:
            before, after = extras.get(name, (None, None))
            module, attr = name.split(".", 1)
            self._patch_function(
                module, attr,
                lambda fn, name=name, b=before, a=after: self._span_wrapper(fn, name, b, a),
            )
        cli = sys.modules.get("coarsekit.cli")
        for attr in [a for a in vars(cli) if a.startswith("cmd_")] if cli else []:
            self._patch_function("cli", attr, lambda fn: self._span_wrapper(fn, "cli.cmd"))
        self._install_contribution_spans()
        self._install_param_family_counts()

    def _after_ball(self, result, args, kwargs) -> None:
        self.counts["groups.ball.elements_returned"] += len(result)
        spec = result.group
        self._ball_max[spec] = max(self._ball_max.get(spec, 0), len(result))

    def _before_family(self, args, kwargs):
        # materialize the members (the call would iterate them anyway) to count them
        if len(args) > 1:
            args = (args[0], list(args[1])) + tuple(args[2:])
            members = args[1]
        else:
            kwargs = dict(kwargs, members=list(kwargs["members"]))
            members = kwargs["members"]
        self.counts["families.finite_family.members_in"] += len(members)
        return args, kwargs

    def _after_family(self, result, args, kwargs) -> None:
        self.counts["families.finite_family.members_out"] += len(result.members)

    def _after_membership(self, result, args, kwargs) -> None:
        pf, radius = _arg(args, kwargs, 1, "pf"), _arg(args, kwargs, 2, "radius")
        self.counts["structures.membership_window.radii"] += radius + 1
        self.counts["structures.membership_window.final_members"] += len(self._orig_at(pf, radius).members)

    def _after_enumerate(self, result, args, kwargs) -> None:
        self.counts["transfer.enumerate_beta_windows.tables"] += len(result)

    def _install_contribution_spans(self) -> None:
        orig = self._lookup("structures", "CoarseStructure.member_contribution")
        if orig is None:
            return
        base = self._lookup("structures", "CoarseStructure")
        seen = _PerObject(set)
        counts = self.counts

        def name(args):
            label = CONTRIBUTION_SPANS.get(type(args[0]).__name__, "structures.member_contribution.other")
            members = seen.get(args[0])
            if args[1] not in members:
                members.add(args[1])
                counts[label + ".distinct"] += 1
            return label

        base.member_contribution = self._span_wrapper(orig, name)

    def _install_param_family_counts(self) -> None:
        self._orig_at = lambda pf, r: pf.at(r)
        orig = self._lookup("families", "ParamFamily.at")
        if orig is None:
            return
        cls = self._lookup("families", "ParamFamily")
        self._orig_at = orig
        seen = _PerObject(set)
        counts = self.counts

        @functools.wraps(orig)
        def at(pf, r):
            counts["families.ParamFamily.at.calls"] += 1
            radii = seen.get(pf)
            if r not in radii:
                radii.add(r)
                counts["families.ParamFamily.at.misses"] += 1
            return orig(pf, r)

        cls.at = at

    # -- counts pass ------------------------------------------------------

    def _install_counts(self) -> None:
        for target in COUNT_TARGETS:
            module, attr = target.split(".", 1)
            make = lambda fn, name=count_name(target): self._count_wrapper(fn, name)
            if "." in attr:
                self._patch_method(module, attr, make)
            else:
                self._patch_function(module, attr, make)

    # -- one operation ----------------------------------------------------

    def run(self, call):
        """Run ``call`` under a root span ``op``; return its result."""
        return self._span_wrapper(call, "op")()

    def summary(self) -> dict:
        """Counters, and in the span pass per-name calls and self seconds."""
        if self.mode == COUNT:
            return dict(self.counts)
        out: dict = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent), cov in zip(self.spans, covered):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - cov
        out.update(self.counts)
        out["groups.ball.elements_enumerated"] = sum(self._ball_max.values())
        return dict(out)
