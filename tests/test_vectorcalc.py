from hodge4d import vectorcalc as vc
from hodge4d.fields import PolyField
from hodge4d.verification import random_poly

ZERO = PolyField.zero()


def test_gradient_and_divergence(xyzt):
    x, y, z, t = xyzt
    u = x * x * y + z * t
    assert vc.gradient(u) == (2 * x * y, x * x, t)
    assert vc.divergence((x, y * y, z * t)) == 1 + 2 * y + t


def test_curl_hand_case(xyzt):
    x, y, _, _ = xyzt
    assert vc.curl((y, -x, ZERO)) == (ZERO, ZERO, PolyField.constant(-2))


def test_curl_of_gradient_vanishes(rng):
    for _ in range(50):
        u = random_poly(rng)
        assert all(c.is_zero for c in vc.curl(vc.gradient(u)))


def test_divergence_of_curl_vanishes(rng):
    for _ in range(50):
        v = tuple(random_poly(rng) for _ in range(3))
        assert vc.divergence(vc.curl(v)).is_zero


def test_cross_and_dot(xyzt):
    x, y, z, _ = xyzt
    e1 = (x * 0 + 1, x * 0, x * 0)
    e2 = (x * 0, x * 0 + 1, x * 0)
    assert vc.cross(e1, e2)[2] == 1
    assert vc.dot((x, y, z), (x, y, z)) == x * x + y * y + z * z


def test_cross_and_dot_take_scalar_components(xyzt):
    x, y, z, _ = xyzt
    assert vc.dot((x, y, z), (1, 0, 0)) == x
    assert vc.dot((1, 2, 0), (x, y, z)) == x + 2 * y
    assert vc.cross((x, y, z), (1, 0, 0)) == (ZERO, z, -y)


def test_time_derivative(xyzt):
    t = xyzt[3]
    assert vc.time_derivative(t**3, order=2) == 6 * t
