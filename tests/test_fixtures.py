import numpy as np
import pytest

from persuade.core import ValidationError, eval_utility_batch, verify_scheme
from persuade.fixtures import (FixtureId, build_fixture, parse_fixture_id,
                               verify_fixture)
from persuade.solver import bi_criteria_solve


def failed_checks(v):
    return [(n, d) for n, ok, d in v.checks if not ok]


def test_parse_fixture_id():
    fid = parse_fixture_id("example1:0.1666")
    assert fid.kind == "example1" and fid.params == (0.1666,)
    assert parse_fixture_id("prop3:2,2").params == (2.0, 2.0)
    with pytest.raises(ValidationError):
        parse_fixture_id("bogus:1")


def test_example1_references():
    eps0 = 1 / 6
    fx = build_fixture(FixtureId("example1", (eps0,)))
    assert fx.references["ex_ante_opt"] == 0.5
    assert fx.references["ex_post_opt"] == pytest.approx(0.25)
    v = verify_fixture(fx.id)
    assert v.passed, failed_checks(v)


def test_example1_rejects_bad_eps0():
    with pytest.raises(ValidationError):
        build_fixture(FixtureId("example1", (0.7,)))


@pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (3, 2)])
def test_prop3_reference_scheme(k, m):
    fx = build_fixture(FixtureId("prop3", (k, m)))
    rep = verify_scheme(fx.instance, fx.reference_scheme, tol=1e-9)
    assert rep.valid
    assert rep.utility == pytest.approx(0.75, abs=1e-12)
    assert fx.reference_scheme.size == k + m
    v = verify_fixture(fx.id)
    assert v.passed, failed_checks(v)


def test_prop3_in_19_states_verifies():
    # The full-simplex piece has volume sqrt(19)/18! < 1e-14 and is still
    # one simplex.
    fx = build_fixture(FixtureId("prop3", (19, 1)))
    assert len(fx.instance.utility.simplices[0]) == 1
    v = verify_fixture(fx.id)
    assert v.passed, failed_checks(v)


def test_prop3_support_is_k_plus_m():
    v = verify_fixture(FixtureId("prop3", (2, 1)))
    assert v.passed, failed_checks(v)
    fx = build_fixture(FixtureId("prop3", (2, 1)))
    assert fx.reference_scheme.size == 3


@pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 9, 16, 33])
def test_prop3_radius_matches_the_pairwise_loop(k):
    # The bump radius is half the least l1 distance over all pairs of the
    # interior points q_i (the bump centers) and the unit vectors, bit for
    # bit as one sum per pair gives it.
    for m in sorted({1, 2, min(3, k), k}):
        cons = build_fixture(FixtureId("prop3", (k, m))).instance.constraints
        pool = np.vstack([[c.center for c in cons], np.eye(k)])
        dists = [np.abs(pool[i] - pool[j]).sum()
                 for i in range(len(pool)) for j in range(i + 1, len(pool))]
        assert all(c.radius == 0.5 * min(dists) for c in cons)


def test_prop3_m_cannot_exceed_k():
    with pytest.raises(ValidationError):
        build_fixture(FixtureId("prop3", (2, 3)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_app_e1_pooling_ratio(m):
    v = verify_fixture(FixtureId("appE1", (m,)))
    assert v.passed, failed_checks(v)


def test_app_e1_final_scheme_is_prior():
    fx = build_fixture(FixtureId("appE1", (2,)))
    from persuade.solver import ex_ante_to_ex_post
    out = ex_ante_to_ex_post(fx.reference_scheme, fx.instance.constraints,
                             fx.instance.prior)
    assert out.size == 1
    np.testing.assert_allclose(out.support[0],
                               fx.instance.prior.weights, atol=1e-12)


def test_app_e1_m_cap():
    with pytest.raises(ValidationError):
        build_fixture(FixtureId("appE1", (5,)))


@pytest.mark.parametrize("M", [1.5, 3.0, 10.0])
def test_app_e2_gap_is_m(M):
    fx = build_fixture(FixtureId("appE2", (M,)))
    v = verify_fixture(fx.id)
    assert v.passed, failed_checks(v)
    assert fx.references["gap"] == M


def test_app_e3_gap_three():
    fx = build_fixture(FixtureId("appE3", (2,)))
    assert fx.references["gap"] == 3.0
    v = verify_fixture(fx.id)
    assert v.passed, failed_checks(v)


def test_prop3_random_valid_schemes_capped():
    # Rejection sampling over random plausible schemes: value never beats 3/4.
    from helpers import random_plausible_scheme
    rng = np.random.default_rng(42)
    fx = build_fixture(FixtureId("prop3", (2, 2)))
    inst = fx.instance
    accepted = 0
    for _ in range(300):
        scheme = random_plausible_scheme(rng, inst.prior, int(rng.integers(2, 6)))
        rep = verify_scheme(inst, scheme, tol=1e-9)
        if rep.valid:
            accepted += 1
            assert rep.utility <= 0.75 + 1e-9
    assert accepted >= 100


def test_example1_solver_end_to_end():
    fx = build_fixture(FixtureId("example1", (0.05,)))
    rep = bi_criteria_solve(fx.instance, 0.02)
    assert rep.value >= fx.references["ex_ante_opt"] - 0.02
    post = fx.instance.with_modes("ex_post")
    rep_post = bi_criteria_solve(post, 0.02)
    assert rep_post.value == pytest.approx(fx.references["ex_post_opt"], abs=0.02)
