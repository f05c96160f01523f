"""Every command runs through ``cli.main`` under ``sys.setprofile``; the package functions none of them
enters are pinned, and the list may only shrink.

Functions are keyed by their code object, as the profiler sees them, and
named by their qualified name: the line of a decorated function's code
starts at its decorator, so a line number would not name it. Only named
functions count; lambdas and comprehensions are left out, as their code
objects differ between Python versions. The runs cover ``oracles``,
``stop``, ``bounds``, ``two-step`` in both norms, ``mc`` with all four
procedures and on the null config, ``plot``, ``adversary`` of both kinds,
``lazysvd`` on binary and text matrices with and without a selection
norm, ``stop`` with a threshold within the rule's margin of a residual,
and failing configs that exit 2, 3 and 4. A function that becomes
reachable leaves :data:`UNREACHED`; a new function that no command enters
either gets a run that reaches it or an entry here that says why not.
"""

import ast
import contextlib
import importlib
import inspect
import io
import itertools
import json
import operator
import pkgutil
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import svdstop
from svdstop import harness
from svdstop.cli import main
from svdstop.lazysvd import save_matrix
from svdstop.model import replication_seed, simulate_observation

SHIPPED = Path(__file__).resolve().parent.parent / "configs"

_LOWER_BOUND_ONLY = "the numeric total variation, which no command runs yet"
UNREACHED = {
    "_chisq.AccuracyError.__init__": _LOWER_BOUND_ONLY,
    "_chisq._bracket_width": _LOWER_BOUND_ONLY,
    "_chisq._cdf_error": _LOWER_BOUND_ONLY,
    "_chisq._crossing_error": _LOWER_BOUND_ONLY,
    "_chisq._find_root": _LOWER_BOUND_ONLY,
    "_chisq._ladder": _LOWER_BOUND_ONLY,
    "_chisq._logpdf_error": _LOWER_BOUND_ONLY,
    "_chisq._mixture_cdf": _LOWER_BOUND_ONLY,
    "_chisq._mixture_logpdf": _LOWER_BOUND_ONLY,
    "_chisq._mixture_terms": _LOWER_BOUND_ONLY,
    "_chisq._tv_crossing": _LOWER_BOUND_ONLY,
    "_chisq._tv_crossing.<locals>.log_ratio": _LOWER_BOUND_ONLY,
    "_chisq._weight_range": _LOWER_BOUND_ONLY,
    "lowerbound._check_tv_args": _LOWER_BOUND_ONLY,
    "lowerbound.tv_bound": _LOWER_BOUND_ONLY,
    "lowerbound.tv_numeric": _LOWER_BOUND_ONLY,
    "lazysvd.save_matrix": "the commands read matrices and never write one",
}
SMALL = {"dim": 120, "spectrum": {"p": 0.5}, "noise": {"delta": 0.05}, "signal": {"name": "smooth", "target": 25.0}}
NEAR_TIE_INDEX = 40


def package_functions() -> dict[types.CodeType, str]:
    """Every named function of the package, from its modules' namespaces: ``{code: 'module.qualname'}``.

    Each module must yield as many functions as its source has ``def`` statements, so none is missed.
    """
    found = {}

    def visit(code, name):
        found[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                visit(const, f"{name}.<locals>.{const.co_name}")

    for info in pkgutil.iter_modules(svdstop.__path__):
        module = importlib.import_module(f"svdstop.{info.name}")
        count = len(found)
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = [value] if inspect.isfunction(value) else vars(value).values() if inspect.isclass(value) else []
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                accessors = (member.fget, member.fset, member.fdel) if isinstance(member, property) else (member,)
                for function in accessors:
                    # a dataclass's generated methods are compiled from strings, not from the module
                    if inspect.isfunction(function) and function.__code__.co_filename == module.__file__:
                        visit(function.__code__, f"{info.name}.{function.__qualname__}")
        tree = ast.parse(Path(module.__file__).read_text())
        defs = sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(tree))
        assert len(found) - count == defs, f"{module.__name__}: found {len(found) - count} of {defs} functions"
    return found


def lazy_inputs(directory: Path) -> dict[str, Path]:
    """A 40x25 matrix with singular values ``i**-0.5`` in binary and text files, and noisy data for it."""
    sigmas = np.arange(1, 26, dtype=float) ** -0.5
    matrix = np.zeros((40, 25))
    matrix[:25] = np.diag(sigmas)
    rng = np.random.default_rng(0)
    paths = {"bin": directory / "A.bin", "txt": directory / "A.txt", "data": directory / "y.txt"}
    save_matrix(paths["bin"], matrix)
    save_matrix(paths["txt"], matrix)
    np.savetxt(paths["data"], matrix @ rng.standard_normal(25) + 0.05 * rng.standard_normal(40))
    return paths


def near_tie() -> tuple[np.ndarray, float, float]:
    """Replication 0's coefficients and squared norm under :data:`SMALL`, and their float residual at
    :data:`NEAR_TIE_INDEX`: a threshold there lies within the rule's margin, so only its exact test decides."""
    exp = harness.resolve_experiment(harness.config_from_mapping(SMALL))
    obs = simulate_observation(exp.image, exp.noise, replication_seed(0, 0))
    y = obs.y
    return y, obs.y_norm_sq, float(obs.y_norm_sq - np.cumsum(y * y)[NEAR_TIE_INDEX - 1])


def runs(directory: Path) -> list[tuple[list[str], int]]:
    """``(argv, exit code)`` of each command run, with the config files they read written to ``directory``."""

    def config(name, mapping):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(mapping))
        return str(path)

    def sets(*items):
        return [arg for item in items for arg in ("--set", item)]

    smooth, null, hide = (
        str(SHIPPED / f"{name}.json") for name in ("efficiency_smooth", "null_calibration", "adversary_hide")
    )
    few = sets("replications=20")
    rescue = sets("stopping.kappa=1000", "stopping.m0_mode=explicit", "stopping.m0=100", "selection.norm=weak")
    small = config("small", SMALL)
    *_, kappa = near_tie()
    inputs = lazy_inputs(directory)
    lazy = {"data": {"file": inputs["data"].name}, "noise": {"delta": 0.05}, "stopping": {"m0_mode": "zero"}}
    lazy_bin = config("lazy_bin", {**lazy, "matrix": {"file": inputs["bin"].name}})
    lazy_txt = config("lazy_txt", {**lazy, "matrix": {"file": inputs["txt"].name}})
    mc_out = directory / "mc"
    plot = config("plot", {"plot": {"csv": str(mc_out / "replications.csv")}})
    all_procedures = sets('procedures=["plain_stop","two_step_weak","two_step_strong","fixed_oracle"]')
    return [
        (["oracles", "--config", smooth], 0),
        (["stop", "--config", smooth], 0),
        (["bounds", "--config", smooth], 0),
        (["two-step", "--config", smooth], 0),
        (["two-step", "--config", small, *rescue], 0),
        (["stop", "--config", small, *sets(f"stopping.kappa={kappa!r}"), "--out", str(directory / "near_tie")], 0),
        (["mc", "--config", smooth, "--out", str(mc_out), *few, *all_procedures], 0),
        (["mc", "--config", null, *few], 0),
        (["plot", "--config", plot], 0),
        (["adversary", "--config", hide], 0),
        (["adversary", "--config", hide, *sets("adversary.kind=residual_adversary")], 0),
        (["lazysvd", "--config", lazy_bin], 0),
        (["lazysvd", "--config", lazy_txt, *sets("lazysvd.selection_norm=weak")], 0),
        (["lazysvd", "--config", lazy_txt], 0),
        (["lazysvd", "--config", lazy_bin, *sets("lazysvd.selection_norm=strong")], 0),
        # failures: an unknown command, a noise level the bounds reject, an exhausted budget, no convergence
        (["unknown", "--config", smooth], 2),
        (["bounds", "--config", smooth, *sets("noise.delta=1e-170")], 3),
        (["lazysvd", "--config", lazy_bin, *sets("lazysvd.triplet_budget=1")], 4),
        (["lazysvd", "--config", lazy_txt, *sets("lazysvd.max_iterations=1", "lazysvd.tolerance=1e-15")], 4),
    ]


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("reach")


@pytest.fixture(scope="module")
def entered(directory):
    """The code objects entered while every command runs, and the commands' exit codes against the expected."""
    plan = runs(directory)
    codes, seen = [], set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for index, (argv, _) in enumerate(plan):
            if "--out" not in argv:
                argv = [*argv, "--out", str(directory / f"out{index}")]
            sys.setprofile(profile)
            try:
                codes.append(main(argv))
            finally:
                sys.setprofile(None)
    return seen, codes, [expected for _, expected in plan]


def test_every_run_exits_as_expected(entered):
    _, codes, expected = entered
    assert codes == expected


def test_unreached_functions_are_the_pinned_ones(entered):
    seen, _, _ = entered
    unreached = {name for code, name in package_functions().items() if code not in seen}
    assert sorted(unreached - UNREACHED.keys()) == [], "functions no command enters: reach them or pin them"
    assert sorted(UNREACHED.keys() - unreached) == [], "pinned functions a command now enters: unpin them"


def test_a_near_tie_stops_at_the_exact_index(entered, directory):
    """The threshold is a float residual, so the exact residuals decide the index, which the run must keep."""
    y, y_norm_sq, kappa = near_tie()
    residuals = itertools.accumulate((Fraction(v) ** 2 for v in y.tolist()), operator.sub, initial=Fraction(y_norm_sq))
    exact = next(m for m, residual in enumerate(residuals) if residual <= Fraction(kappa))
    tau = json.loads((directory / "near_tie" / "stop.json").read_text())["outcome"]["tau"]
    assert tau == exact == NEAR_TIE_INDEX
