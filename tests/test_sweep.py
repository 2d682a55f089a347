"""The sweep's plan and run loop: one field build per (p, m), and a spec
refused before any instance runs."""

import pytest

from tracecc import NotPrime, SweepSpec, run_sweep, sweep


def test_each_field_is_built_once(monkeypatch):
    built = []
    make_field = sweep.make_field

    def counting(p, m, modulus=None):
        built.append((p, m))
        return make_field(p, m, modulus)

    monkeypatch.setattr(sweep, "make_field", counting)
    run_sweep(SweepSpec(p_list=(3,), m_min=2, m_max=3))
    assert built == [(3, 2), (3, 3)]


@pytest.mark.parametrize(
    "spec,error",
    [
        (SweepSpec(m_min=1, m_max=2), ValueError),
        (SweepSpec(p_list=(3, 9), m_min=2, m_max=2), NotPrime),
    ],
)
def test_bad_spec_is_refused_before_any_instance(monkeypatch, spec, error):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an instance ran before the spec was validated")

    monkeypatch.setattr(sweep, "verify_first_instance", must_not_run)
    monkeypatch.setattr(sweep, "verify_second_instance", must_not_run)
    with pytest.raises(error):
        run_sweep(spec)
