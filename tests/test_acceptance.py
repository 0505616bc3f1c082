"""Acceptance gate: every shipped criterion, one pass/fail line per check.

Each test delegates to the measurement functions in
inls_lab.verification (the same registry `inls-lab verify` runs) and
fails with the full measured-vs-tolerance report of its criterion.
"""

from inls_lab import verification


def report(results):
    lines = [r.report_line() for r in results]
    print()
    for line in lines:
        print(line)
    assert all(r.passed for r in results), "\n" + "\n".join(lines)


def test_criterion_01_stationary_identities():
    report(verification.check_pohozaev())


def test_criterion_02_solver_oracle_equivalence():
    report(verification.check_oracle_equivalence())


def test_criterion_03_scaling_derivatives_annihilate():
    report(verification.check_k_annihilation())


def test_criterion_04_scaling_derivative_closed_form():
    report(verification.check_k_derivative())


def test_criterion_05_interpolation_ratio_sharpness():
    report(verification.check_gn_sharpness())


def test_criterion_06_conservation_laws():
    report(verification.check_conservation())


def test_criterion_07_virial_identity_dynamics():
    report(verification.check_virial_identity())


def test_criterion_08_standing_wave():
    report(verification.check_standing_wave())


def test_criterion_09_dichotomy_flows():
    report(verification.check_dichotomy())


def test_criterion_10_frequency_scaling():
    report(verification.check_frequency_scaling())


def test_criterion_11_assumption_checker():
    report(verification.check_assumption_checker())


def test_criterion_12_negative_k_set_flow():
    report(verification.check_nminus_flow())
