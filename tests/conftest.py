import sys

import numpy as np
import pytest

from entbounds.states import (
    AcinParams,
    WClass4Params,
    acin_state,
    haar_random_pure,
    wclass4_state,
)

from reference import load_script

ENSEMBLE_SEED = 20240917
ENSEMBLE_SIZE = 10_000


@pytest.fixture(scope="session")
def example1_state():
    return acin_state(AcinParams(l0=0.5, l1=0.0, l2=np.sqrt(2) / 2,
                                 l3=0.5, l4=0.0))


@pytest.fixture(scope="session")
def example2_state():
    return wclass4_state(WClass4Params(l1=3 / 4, l2=1 / 2,
                                       l3=np.sqrt(2) / 4, l4=1 / 4))


@pytest.fixture(scope="session")
def edge_spec():
    """(spec text, amplitudes) of a 2-qubit state whose squared norm lies
    within ulps of 1 + TAU_NUM: np.vdot's sum reads it inside the
    tolerance and PureState's check outside."""
    parts = ((0.38587563827090215, -0.5258691752659007),
             (0.2292776716520635, -0.15354158514320468),
             (0.47942874910395367, -0.48270923439954466),
             (0.052867254665939035, 0.18100623511309316))
    text = "qubits 2\n" + "".join(f"amp {i} {re!r} {im!r}\n"
                                  for i, (re, im) in enumerate(parts))
    return text, np.array([complex(*p) for p in parts])


@pytest.fixture(scope="session")
def haar4_ensemble():
    """Shared 4-qubit Haar ensemble for the heavyweight invariant tests."""
    return [haar_random_pure(4, ENSEMBLE_SEED, stream=i)
            for i in range(ENSEMBLE_SIZE)]


@pytest.fixture(scope="session")
def profile_script():
    """``scripts/profile.py`` as a module: its ``python_calls`` is the one
    call counter of the scripts and the tests."""
    return load_script("profile")


@pytest.fixture(scope="session")
def python_calls(profile_script):
    return profile_script.python_calls


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` wraps ``owner.name`` while the test runs and
    returns the list it appends each call's positional arguments to;
    ``record`` picks what a call appends instead, and ``calls`` names a
    list to share among spies."""
    def spy(owner, name, record=lambda *args, **kwargs: args, calls=None):
        calls = [] if calls is None else calls
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls
    return spy


@pytest.fixture
def dense_calls(spy):
    """Names of the dense reference routes of ``linalg`` (2^n x 2^n
    projectors, their partial traces and transposes, trace norms) called
    while the test runs, under whatever name a package module holds them."""
    calls = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "entbounds":
            continue
        for name in ("projector", "partial_trace", "partial_transpose",
                     "trace_norm"):
            if hasattr(module, name):
                spy(module, name, lambda *args, _name=name, **kwargs: _name,
                    calls)
    return calls
