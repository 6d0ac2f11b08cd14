"""The benchmark's tracer must still find every name it wraps in the library.

`bench/tracing.py` replaces module attributes by name, so a rename or a
dropped import in `src/` breaks only the traced benchmark run. This imports
it as the benchmark does, from `bench/` on the path, and installs it.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    wrapped = [(owner, attr) for owners, attr, _, _ in tracing.BOUNDARIES for owner in owners]
    before = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(wrapped, before))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(wrapped, before))
