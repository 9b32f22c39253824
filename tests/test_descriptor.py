# a top-level import of a Test*-named class makes pytest try to collect it,
# which under filterwarnings = error fails collection of the whole module
from cyl.minmax import TestFunctionDescriptor


def test_descriptor_imports_by_name_and_builds():
    desc = TestFunctionDescriptor("GLUED", 0.05, t=0.4, tau=0.1)
    assert (desc.variant, desc.epsilon, desc.t, desc.tau, desc.lam) == (
        "GLUED", 0.05, 0.4, 0.1, 0.0)
