"""Fisheye camera geometry, angular rotary position embeddings, and BEV lifting.

Importing the package runs none of its modules.  Each module below is
registered in `sys.modules` (and as a package attribute) through
`importlib.util.LazyLoader`, and its code runs on the first use of one
of its attributes, so a command pays only for the modules it touches.
The `__all__` names resolve on first access through `__getattr__`.
`fishrope.cli` is the exception: it is the `python -m fishrope.cli`
entry point, which runpy must find unregistered, so it loads on import.
"""

import importlib.util
import sys

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


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
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
