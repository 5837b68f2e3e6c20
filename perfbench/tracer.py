"""Spans at the boundaries between nfcrb modules, recorded from outside.

The tracer wraps every function that one nfcrb module imports from another,
in the importing module's namespace (for example `steering_stack` as bound
inside `fim`, `crb` and `oracle`, and `_assemble` as bound inside `oracle`).
Calls inside one module are not boundaries and are not wrapped. Classes and
constants are left alone. The span of a call belongs to the layer that
defines the callee; a layer's self time is its spans' durations minus the
time covered by their child spans.

Spans are kept in memory as tuples until the run ends. No file of the
package changes, and leaving the `with` block restores every binding.
"""

import inspect
import sys
import time

LAYERS = ("cli", "scene", "geometry", "steering", "fim", "crb", "approx", "oracle")

# span tuple fields
NAME, LAYER, START, END, PARENT, ITEM, ERROR, NOTE = range(8)


def _layer_of(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Installs wrappers at the module boundaries and records their spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._item = -1
        self._saved = []

    def install(self):
        """Wrap the cross-module bindings of every loaded nfcrb module."""
        for mod_name in [f"nfcrb.{layer}" for layer in LAYERS]:
            module = sys.modules[mod_name]
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__
                if home == mod_name or not home.startswith("nfcrb.") \
                        or _layer_of(home) not in LAYERS:
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, _layer_of(home)))

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def call(self, item, layer, func, *args, **kwargs):
        """Run one item's root call under a span of the given layer."""
        self._item = item
        return self._span(func.__name__, layer, func, args, kwargs)

    def _wrap(self, func, layer):
        name = func.__name__
        span = self._span
        signature = inspect.signature(func) if name in _NOTED else None

        def wrapper(*args, **kwargs):
            note = None
            if signature is not None:
                try:
                    note = _note(name, signature.bind(*args, **kwargs).arguments)
                except (KeyError, TypeError):
                    pass  # arguments this tracer cannot read count in no counter
            return span(name, layer, func, args, kwargs, note)

        wrapper.__wrapped__ = func
        return wrapper

    def _span(self, name, layer, func, args, kwargs, note=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # placeholder keeps span order = call order; filled in on exit
        self.spans.append(None)
        self._stack.append(index)
        error = None
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, layer, start, end, parent, self._item, error, note)


# functions whose arguments feed a counter
_NOTED = ("fim", "_assemble", "steering_stack", "steering_vector",
          "d_steering_location", "d_steering_velocity")


def _note(name, arguments):
    """Counter input of one fim or steering call, from its bound arguments.

    fim, _assemble: FIM entries assembled, (6Q)(6Q+1)/2.
    steering: (bytes computed, hash of the stack inputs); a call computes 5
    complex (len(m), N) arrays, one row for the single-snapshot helpers.
    """
    scene = arguments["scene"]
    if name in ("fim", "_assemble"):
        n = 6 * scene.q_count
        return n * (n + 1) // 2
    if name == "steering_stack":
        m_values = arguments.get("m_values")
        m_key = ("all",) if m_values is None else tuple(int(m) for m in m_values)
        rows = scene.snapshots if m_values is None else len(m_key)
    else:
        m_key = (int(arguments["m"]),)
        rows = 1
    geom = scene.tx if arguments["side"] == "tx" else scene.rx
    t = scene.targets[arguments["q"]]
    key = (arguments["side"], t.x, t.y, t.vx, t.vy, geom.positions.tobytes(),
           scene.carrier_hz, scene.wavelength_m, scene.lightspeed, scene.t_sym_s,
           scene.snapshots, m_key)
    return 5 * rows * geom.count * 16, hash(key)


def self_times(spans):
    """Per-span self time in ns: duration minus direct children's durations."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans):
    """Per-layer counts and self times of a traced run.

    Counts are whole numbers that repeat exactly for the same items; times
    are seconds summed over the run.
    """
    own = self_times(spans)
    m = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.self_s"] = sum(own[i] for i in mine) / 1e9

    def by_name(*names):
        return [i for i, s in enumerate(spans) if s[NAME] in names]

    m["fim.entries"] = sum(spans[i][NOTE] or 0 for i in by_name("fim", "_assemble"))

    steering = [s for s in spans if s[LAYER] == "steering" and s[NOTE] is not None]
    m["steering.bytes_computed"] = sum(s[NOTE][0] for s in steering)
    distinct = {(s[ITEM], s[NOTE][1]) for s in steering}
    m["steering.unique_frac"] = len(distinct) / len(steering) if steering else 1.0

    m["crb.full_crb_s"] = sum(own[i] for i in by_name("full_crb")) / 1e9
    m["crb.closed_form_s"] = sum(own[i] for i in by_name("closed_form_single")) / 1e9
    inversions = by_name("full_crb", "conditional_crb", "schur_target_report")
    singular = [i for i in inversions if spans[i][ERROR] == "SingularFimError"]
    m["crb.singular_frac"] = len(singular) / len(inversions) if inversions else 0.0

    approx = [s for s in spans if s[LAYER] == "approx"]
    empty = [s for s in approx if s[ERROR] in ("ApproximationDomainError", "ValueError")]
    m["approx.empty_frac"] = len(empty) / len(approx) if approx else 0.0
    return m
