"""The numpy-free closed forms: parameter validation, the bottom eigenvalue, sharp constants."""

import math

import pytest

from gjmslab import closed_forms, rayleigh, spectral
from gjmslab.closed_forms import SphereParams, gjms_lambda0, sharp_constant, sphere_area
from gjmslab.errors import DomainError
from gjmslab.spectral import Workspace


class TestSphereParams:
    @pytest.mark.parametrize(
        "n,m",
        [
            (math.nan, 1),
            (math.inf, 1),
            (-math.inf, 1),
            (5, math.nan),
            (5, math.inf),
            (math.nan, math.nan),
            (5.5, 1),
            (5, 1.5),
            ("5", 1),
            (None, 1),
        ],
    )
    def test_non_integer_input_is_a_domain_error(self, n, m):
        with pytest.raises(DomainError):
            SphereParams(n=n, m=m)

    @pytest.mark.parametrize("n,m", [(3, 0), (4, 2), (2, 1), (7, -1)])
    def test_outside_n_greater_than_2m_is_a_domain_error(self, n, m):
        with pytest.raises(DomainError):
            SphereParams(n=n, m=m)

    def test_integral_floats_are_accepted(self):
        assert SphereParams(n=5.0, m=2).critical_norm_exponent == 10.0

    def test_integral_floats_give_the_bits_of_the_integer_spelling(self):
        params = SphereParams(n=5.0, m=2.0)
        assert params == SphereParams(n=5, m=2)
        assert (type(params.n), type(params.m)) == (int, int)
        assert gjms_lambda0(2.0, 5) == gjms_lambda0(2, 5)
        assert sharp_constant(2.0, 5.0, 3) == sharp_constant(2, 5, 3)
        assert Workspace.shared(params, 8) is Workspace.shared(SphereParams(n=5, m=2), 8)
        fresh, expected = Workspace(params, 8), Workspace(SphereParams(n=5, m=2), 8)
        for name in ("basis", "weights", "lam"):
            assert getattr(fresh, name).tobytes() == getattr(expected, name).tobytes(), name


@pytest.mark.parametrize("n", [0, 0.5, -1, math.nan, math.inf, -math.inf])
def test_sphere_area_rejects_dimensions_outside_one_to_infinity(n):
    with pytest.raises(DomainError):
        sphere_area(n)


class TestBottomEigenvalue:
    def test_bit_identical_to_the_vectorised_gamma_ratio(self):
        pairs = [(n, m) for n in range(3, 121) for m in range(1, (n + 1) // 2) if n > 2 * m]
        assert len(pairs) == 3540
        for n, m in pairs:
            expected = float(spectral.gamma_ratio(SphereParams(n=n, m=m), 0)[0])
            assert gjms_lambda0(m, n) == expected, (n, m)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            gjms_lambda0(2, 4)


class TestSharpConstant:
    def test_value_from_lambda0_and_area(self):
        assert sharp_constant(1, 3, 4.0) == gjms_lambda0(1, 3) * sphere_area(3) ** 0.5

    @pytest.mark.parametrize("p", [1.9, 6.01, math.nan, math.inf])
    def test_exponent_outside_the_closed_range(self, p):
        with pytest.raises(DomainError):
            sharp_constant(1, 3, p)


class TestDoubleRange:
    @pytest.mark.parametrize(
        "closed_form,args",
        [
            (sphere_area, (343,)),  # Gamma(172) overflows
            (sphere_area, (1301,)),  # so does pi^651, which is evaluated first
            (gjms_lambda0, (99, 200)),  # 198! overflows as a product of floats
            (sharp_constant, (99, 200, 2.5)),
            (sharp_constant, (1, 343, 2.005)),
        ],
    )
    def test_overflow_is_a_domain_error(self, closed_form, args):
        with pytest.raises(DomainError, match="overflows a double"):
            closed_form(*args)

    def test_values_in_range_keep_their_bits(self):
        for n in range(1, 343):
            assert sphere_area(n) == sphere_area.__wrapped__(n), n
        for m in (1, 30, 60):
            assert sharp_constant(m, 200, 2.01) == sharp_constant.__wrapped__(m, 200, 2.01), m


def test_spectral_and_rayleigh_re_export_the_same_objects():
    for name in ("SphereParams", "sphere_area", "gjms_lambda0", "sharp_constant"):
        assert getattr(spectral, name) is getattr(closed_forms, name)
        assert getattr(rayleigh, name) is getattr(closed_forms, name)
