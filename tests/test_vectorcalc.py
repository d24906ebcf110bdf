from hodge4d import vectorcalc as vc
from hodge4d.fields import X, Y, Z, PolyField
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


def _component(rng):
    """A ``random_poly`` field, or one time in three a small int."""
    return rng.randint(-3, 3) if rng.random() < 1 / 3 else random_poly(rng)


def test_each_helper_equals_its_formula_in_field_operators(rng):
    # the helpers sum through fields.signed_sum; the fields' binary +, -, *
    # and diff take their own paths, so a wrong sign or term in a helper
    # shows as a mismatch
    for _ in range(50):
        u = random_poly(rng)
        v = tuple(random_poly(rng) for _ in range(3))
        a, b = ([_component(rng) for _ in range(3)] for _ in range(2))
        assert vc.divergence(v) == v[0].diff(X) + v[1].diff(Y) + v[2].diff(Z)
        assert vc.curl(v) == (
            v[2].diff(Y) - v[1].diff(Z),
            v[0].diff(Z) - v[2].diff(X),
            v[1].diff(X) - v[0].diff(Y),
        )
        assert vc.cross(a, b) == (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        assert vc.dot(a, b) == a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        assert vc.laplacian(u) == u.diff(X).diff(X) + u.diff(Y).diff(Y) + u.diff(Z).diff(Z)


def test_time_derivative(xyzt):
    t = xyzt[3]
    assert vc.time_derivative(t**3, order=2) == 6 * t
