"""Fisheye camera geometry, angular rotary position embeddings, and BEV lifting.

Importing the package runs none of its modules.  Each module below is
registered in `sys.modules` (and as a package attribute) unrun, and its
code runs, under its own lock, on the first use of one of its attributes,
so a command pays only for the modules it touches and a second thread
waits for the whole module instead of seeing it half run.
The `__all__` names resolve on first access through `__getattr__`.
`fishrope.cli` is the exception: it is the `python -m fishrope.cli`
entry point, which runpy must find unregistered, so it loads on import.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

_EXPORTS = {
    "angular": ("BevGrid", "BevGridSpec", "PatchGrid", "bev_angles", "patch_angles"),
    "attention": (
        "AttentionConfig",
        "ProjectionWeights",
        "TokenGrid",
        "cross_attention",
        "logit_argmax",
        "logit_matrix",
        "self_attention",
        "self_attention_jacobian",
        "tokens_from_bev",
        "tokens_from_patches",
    ),
    "camera": ("Extrinsics", "InverseLut", "KannalaBrandtCamera"),
    "errors": (
        "ConfigError",
        "DomainError",
        "EmptyAttentionError",
        "EmptyOverlapError",
        "FishropeError",
        "FormatError",
        "OutOfImageCircleError",
        "ShapeError",
    ),
    "experiments": (
        "BenchReport",
        "CheckerPattern",
        "LiftConfig",
        "LiftReport",
        "RetrievalBenchConfig",
        "bev_roundtrip",
        "retrieval_bench",
        "selfcheck",
    ),
    "rope": ("ENCODINGS", "RotaryConfig", "relative_logit"),
}

# Every module but cli (tests/test_package.py checks it).
_LAZY_MODULES = (*_EXPORTS, "formats", "fixtures", "_parallel", "_products")

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME, key=str.lower)


def _run(module) -> None:
    """Run an unrun module's code once, holding the module's lock.

    The class switches only after the code has run, so other threads wait
    for the whole module (LazyLoader before Python 3.13 switches first and
    takes no lock).  `running` lets the running thread's own reads
    through; a run that raises runs again on the next use.
    """
    spec = types.ModuleType.__getattribute__(module, "__spec__")
    state = spec.loader_state
    with state["lock"]:
        if type(module) is _Unrun and not state["running"]:
            state["running"] = True
            try:
                spec.loader.exec_module(module)
                types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
            finally:
                state["running"] = False


class _Unrun(types.ModuleType):
    """A registered module whose code has not run; any attribute use runs it."""

    def __getattribute__(self, attr):
        _run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        types.ModuleType.__delattr__(self, attr)


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader_state = {"lock": threading.RLock(), "running": False}
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Unrun
    sys.modules[spec.name] = module
    return module


for _name in _LAZY_MODULES:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
