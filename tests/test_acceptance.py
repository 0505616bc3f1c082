"""Acceptance gate: one test per criterion of inls_lab.verification.CRITERIA
(the registry `inls-lab verify` runs), built from the registry itself, so a
criterion added there is tested here with no edit.  Each test fails with
the full measured-vs-tolerance report of its criterion.
"""

from inls_lab import verification

# Test names that predate the registry loop, kept so that results stay
# comparable across versions; any other criterion's test is named after it.
NAMES = {
    "pohozaev": "test_criterion_01_stationary_identities",
    "oracle_equivalence": "test_criterion_02_solver_oracle_equivalence",
    "k_annihilation": "test_criterion_03_scaling_derivatives_annihilate",
    "k_derivative": "test_criterion_04_scaling_derivative_closed_form",
    "gn_sharpness": "test_criterion_05_interpolation_ratio_sharpness",
    "conservation": "test_criterion_06_conservation_laws",
    "virial_identity": "test_criterion_07_virial_identity_dynamics",
    "standing_wave": "test_criterion_08_standing_wave",
    "dichotomy": "test_criterion_09_dichotomy_flows",
    "frequency_scaling": "test_criterion_10_frequency_scaling",
    "assumption_checker": "test_criterion_11_assumption_checker",
    "nminus_flow": "test_criterion_12_negative_k_set_flow",
}


def _test(check):
    def test():
        results = check()
        lines = [r.report_line() for r in results]
        print("", *lines, sep="\n")
        assert all(r.passed for r in results), "\n" + "\n".join(lines)

    return test


for _name, _check in verification.CRITERIA:
    _title = NAMES.get(_name, f"test_criterion_{_name}")
    globals()[_title] = _test(_check)
    globals()[_title].__name__ = _title
