import sys

import pytest

import geoquant.grid
import geoquant.stencil


@pytest.fixture
def no_derivative_matrix(monkeypatch):
    """Make densifying a grid operator raise.

    Both routes are blocked: every geoquant reference to
    ``derivative_matrix_1d``, and ``FirstOrderOperator.toarray``, which
    ``OperatorMatrix.dense``, ``commutator`` and ``spectrum`` go through.
    """
    def forbidden(*args, **kwargs):
        raise AssertionError("the library built a dense derivative or operator matrix")
    monkeypatch.setattr(geoquant.grid.FirstOrderOperator, "toarray", forbidden)
    original = geoquant.stencil.derivative_matrix_1d
    for name, module in list(sys.modules.items()):
        if name == "geoquant" or name.startswith("geoquant."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)


@pytest.fixture
def panel_workers(monkeypatch):
    """Set how many workers run residual panels, for states of any size.

    ``panel_workers(1)`` runs every panel serially; ``panel_workers(2)``
    hands even small states to a pool of two threads.
    """
    monkeypatch.setattr(geoquant.grid, "_PARALLEL_MIN_SIZE", 0)

    def use(workers: int) -> None:
        monkeypatch.setattr(geoquant.grid, "_worker_count", lambda: workers)
    return use
