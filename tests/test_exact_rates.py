"""Exact acceptance rates of the rejection methods (a) and (b), in stdlib fractions.

A candidate joint is rho_min + span*U, span the float rho_max - rho_min
and U uniform on [0, 1). In units of span from n*rho_min, the sum of n
candidates follows the Irwin-Hall law of n uniforms, whose CDF is
F_n(x) = sum over j <= x of (-1)^j C(n, j) (x - j)^n / n!, a polynomial
that fractions evaluates exactly at the fractions of the bounds.

- Method (a) accepts a draw whose sum S rounds to zero at grid eps, that
  is |S| <= eps/2: its rate is F_n at (eps/2 - n*rho_min)/span minus F_n
  at (-eps/2 - n*rho_min)/span.
- Method (b) draws rho_2 and rho_3 and accepts when rho_1 = -(rho_2 +
  rho_3) lies in [rho_min, rho_max]: its rate is the triangular law's
  (two uniforms) mass on [-rho_max, -rho_min], 3/4 at symmetric bounds.

Both oracles ignore the rounding of the candidates and of their sum, which
moves an acceptance bound by at most about n * 2**-53 * max|rho| (4e-18 m at
n = 12, bounds +-d*pi), so a rate by less than 1e-12 of itself, far below
the binomial spread of the seeded runs they check. Each run's measured
rate k/iterations must lie within 4.5 binomial sigma of the exact rate,
sigma = sqrt(N p (1 - p)) hits for N = iterations draws at rate p; and
each method's refusal bound p_max (_refuse_hopeless) must be at least the
exact rate.
"""

import math
from fractions import Fraction

import pytest

from clarkekin import JointLayout, SamplerConfig, sample
from clarkekin import sampling

D = 1e-3
EPS = 1e-5
SIGMAS = 4.5


def irwin_hall_cdf(n: int, x: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= x) for n independent uniforms on [0, 1], exactly."""
    x = min(max(x, Fraction(0)), Fraction(n))
    terms = (Fraction((-1) ** j * math.comb(n, j)) * (x - j) ** n for j in range(math.floor(x) + 1))
    return sum(terms, Fraction(0)) / math.factorial(n)


def triangular_cdf(t: Fraction) -> Fraction:
    """P(U_1 + U_2 <= t) for two independent uniforms on [0, 1]: t^2/2, then 1 - (2 - t)^2/2, exactly."""
    t = min(max(t, Fraction(0)), Fraction(2))
    return t * t / 2 if t <= 1 else 1 - (2 - t) ** 2 / 2


def rate_a(cfg: SamplerConfig) -> Fraction:
    n, lo, span = cfg.layout.n, Fraction(cfg.rho_min), Fraction(cfg.rho_max - cfg.rho_min)
    half = Fraction(cfg.rounding_epsilon) / 2
    return irwin_hall_cdf(n, (half - n * lo) / span) - irwin_hall_cdf(n, (-half - n * lo) / span)


def rate_b(cfg: SamplerConfig) -> Fraction:
    lo, hi, span = Fraction(cfg.rho_min), Fraction(cfg.rho_max), Fraction(cfg.rho_max - cfg.rho_min)
    return triangular_cdf((-lo - 2 * lo) / span) - triangular_cdf((-hi - 2 * lo) / span)


def config(n: int, rho_min: float, rho_max: float, seed: int) -> SamplerConfig:
    return SamplerConfig(JointLayout(n=n, d=D), rho_min=rho_min, rho_max=rho_max, rounding_epsilon=EPS, seed=seed)


def measured(monkeypatch, cfg: SamplerConfig, k: int, method: str):
    """(k/iterations, iterations, p_max) of one seeded run, p_max taken from the call to _refuse_hopeless."""
    bounds = []
    refuse = sampling._refuse_hopeless

    def capture(method, p_max, *rest):
        bounds.append(p_max)
        return refuse(method, p_max, *rest)

    monkeypatch.setattr(sampling, "_refuse_hopeless", capture)
    _, stats = sample(cfg, k, method)
    assert len(bounds) == 1
    return stats.success_rate, stats.iterations, bounds[0]


def assert_binomial(k: int, iterations: int, p: float) -> None:
    sigma = math.sqrt(iterations * p * (1.0 - p))
    assert abs(k - iterations * p) <= SIGMAS * sigma, (k, iterations, p, (k - iterations * p) / sigma)


class TestOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
    def test_irwin_hall_is_a_symmetric_cdf(self, n):
        assert irwin_hall_cdf(n, Fraction(0)) == 0 and irwin_hall_cdf(n, Fraction(n)) == 1
        assert irwin_hall_cdf(n, Fraction(n, 2)) == Fraction(1, 2)
        for x in (Fraction(1, 3), Fraction(7, 5), Fraction(n, 3)):
            assert irwin_hall_cdf(n, x) + irwin_hall_cdf(n, n - x) == 1

    def test_irwin_hall_small_counts_in_closed_form(self):
        x = Fraction(3, 7)
        assert irwin_hall_cdf(1, x) == x
        assert irwin_hall_cdf(3, Fraction(1, 2)) == Fraction(1, 48)
        for t in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(13, 10), Fraction(2), Fraction(5, 2)):
            assert irwin_hall_cdf(2, t) == triangular_cdf(t)

    @pytest.mark.parametrize("bound", [1e-3, D * math.pi, 0.7])
    def test_method_b_rate_is_three_quarters_at_symmetric_bounds(self, bound):
        assert rate_b(config(3, -bound, bound, 0)) == Fraction(3, 4)

    def test_method_a_rate_at_three_joints_in_closed_form(self):
        # At n = 3 and bounds +-R the sum's density is 3/4 - (x - 3/2)^2 near its centre x = 3/2, in units
        # of span, so the rate is 3h/2 - 2h^3/3 for h = (eps/2)/span: about eps*3/(4*span), 1.19e-3 at R = d*pi.
        cfg = config(3, -D * math.pi, D * math.pi, 0)
        h = Fraction(EPS) / 2 / Fraction(2 * D * math.pi)
        assert rate_a(cfg) == 3 * h / 2 - 2 * h**3 / 3
        assert float(rate_a(cfg)) == pytest.approx(1.19e-3, abs=5e-6)


# n, rho_min, rho_max, k: the paper's symmetric bounds +-d*pi, then one asymmetric pair.
CASES_A = [(n, -D * math.pi, D * math.pi, 5000) for n in (3, 4, 5, 8, 12)] + [(5, -3e-3, 1.5e-3, 5000)]
CASES_B = [(-D * math.pi, D * math.pi, 200000), (-2e-3, 3e-3, 200000)]


@pytest.mark.parametrize("n, rho_min, rho_max, k", CASES_A)
def test_method_a_rate_is_the_irwin_hall_rate(monkeypatch, n, rho_min, rho_max, k):
    cfg = config(n, rho_min, rho_max, seed=700 + n)
    exact = rate_a(cfg)
    rate, iterations, p_max = measured(monkeypatch, cfg, k, "a")
    assert rate == k / iterations
    assert_binomial(k, iterations, float(exact))
    assert Fraction(p_max) >= exact


@pytest.mark.parametrize("rho_min, rho_max, k", CASES_B)
def test_method_b_rate_is_the_triangular_rate(monkeypatch, rho_min, rho_max, k):
    cfg = config(3, rho_min, rho_max, seed=900)
    exact = rate_b(cfg)
    rate, iterations, p_max = measured(monkeypatch, cfg, k, "b")
    assert rate == k / iterations
    assert_binomial(k, iterations, float(exact))
    # (b)'s bound is its closed-form rate widened by the candidates' rounding only.
    assert exact <= Fraction(p_max) <= exact + Fraction(2.0**-45)
