# a top-level import of a Test*-named class makes pytest try to collect it,
# which under filterwarnings = error fails collection of the whole module
import pytest

from cyl.minmax import TestFunctionDescriptor


def test_descriptor_imports_by_name_and_builds():
    desc = TestFunctionDescriptor("GLUED", 0.05, t=0.4, tau=0.1, lam=1.0)
    assert (desc.variant, desc.epsilon, desc.t, desc.tau, desc.lam) == (
        "GLUED", 0.05, 0.4, 0.1, 1.0)


@pytest.mark.parametrize("variant, kwargs", [
    ("GLUED", dict(t=0.4, tau=0.1, lam=0.0)),
    ("GLUED", dict(t=0.4, tau=0.1)),
    ("INTERP", dict(t=0.4, tau=0.1, lam=1.5)),
    ("INTERP", dict(t=0.4, tau=0.1, lam=-0.25)),
    ("INTERP", dict(t=0.4, tau=0.1, lam=float("nan"))),
    ("DOUBLE", dict(t=0.4, tau=0.1)),
    ("DOUBLE", dict(t=0.4, lam=0.5)),
])
def test_descriptor_of_another_competitor_cannot_be_built(variant, kwargs):
    # a GLUED descriptor without lam = 1 was evaluated as INTERP at lam = 0
    with pytest.raises(ValueError, match=variant):
        TestFunctionDescriptor(variant, 0.05, **kwargs)
