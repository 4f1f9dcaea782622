"""Multipass loop geometry: turn counts, equivalent area, amplification."""

import dataclasses
import math

import pytest

from wvsagnac import MultipassDesign, equivalent_area, multipass_design, turns


def test_turns_known_angles():
    assert turns(25) == 5      # lcm(50, 360) = 1800
    assert turns(45) == 1      # lcm(90, 360) = 360
    assert turns(30) == 1
    assert turns(36) == 1
    assert turns(7) == 7       # lcm(14, 360) = 2520


def test_turns_rejects_domain_edges():
    for bad in (0, 90, -5, 120):
        with pytest.raises(ValueError):
            turns(bad)


def test_turns_rejects_non_integers():
    with pytest.raises(ValueError):
        turns(25.5)
    with pytest.raises(ValueError):
        turns("25")
    with pytest.raises(ValueError):
        turns(True)
    assert turns(25.0) == 5  # integral float is accepted


def test_turns_closure_property():
    # the closed path length is always a whole number of 2*theta steps
    for theta in range(1, 90):
        assert (turns(theta) * 360) % (2 * theta) == 0


def test_single_turn_iff_angle_divides_180():
    for theta in range(1, 90):
        if 360 % (2 * theta) == 0:
            assert turns(theta) == 1, f"theta={theta}"
        else:
            assert turns(theta) > 1, f"theta={theta}"


def test_equivalent_area_reference_design():
    # 36 chords of a unit-radius cell at 25 degrees: about 14 R^2
    expected = (1800 / 50) * math.sin(math.radians(65)) * math.cos(math.radians(65))
    area = equivalent_area(25, 1.0)
    assert area == pytest.approx(expected, rel=1e-12)
    assert area == pytest.approx(13.7888, abs=5e-4)
    assert area == pytest.approx(14.0, rel=0.02)


def test_equivalent_area_square_pass():
    # 45 degrees closes as the inscribed square
    assert equivalent_area(45, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_equivalent_area_scales_with_radius_squared():
    assert equivalent_area(25, 2.0) == pytest.approx(4.0 * equivalent_area(25, 1.0),
                                                     rel=1e-12)
    for theta in (7, 19, 25, 44, 61):
        base = equivalent_area(theta, 1.0)
        assert equivalent_area(theta, 3.5) == pytest.approx(3.5 ** 2 * base,
                                                            rel=1e-12)


def test_equivalent_area_rejects_bad_radius():
    with pytest.raises(ValueError):
        equivalent_area(25, 0.0)
    with pytest.raises(ValueError):
        equivalent_area(25, -1.0)
    # the area is subnormal at 1e-160 and 0.0 below: refused by name, not
    # left for a ratio to the radius squared to divide by zero or misread
    for radius in (1e-160, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="^equivalent area underflows"):
            equivalent_area(25, radius)
    assert equivalent_area(25, 1e-150) / 4e-300 == pytest.approx(3.4472, abs=5e-4)


# The amplification ratio is the area gain over the single-pass square loop
# of side 2*R (area 4*R^2), the artifact's ratio_vs_square.

def test_amplification_ratio_reference_design():
    assert equivalent_area(25, 1.0) / 4.0 == pytest.approx(3.4472, abs=5e-4)


def test_amplification_ratio_square_pass():
    assert equivalent_area(45, 1.0) / 4.0 == pytest.approx(0.5, rel=1e-12)


def test_amplification_ratio_radius_invariant():
    # the ratio divides out the radius: same value from any device size
    for radius in (0.5, 1.0, 7.0):
        ratio = equivalent_area(25, radius) / (4.0 * radius ** 2)
        assert ratio == pytest.approx(equivalent_area(25, 1.0) / 4.0, rel=1e-12)


def test_multipass_design_bundle():
    d = multipass_design(25, 2.0)
    assert d == MultipassDesign(theta_deg=25, radius_rs=2.0)
    assert (d.n_turns, d.area_equiv) == (5, equivalent_area(25, 2.0))


def test_turns_and_area_are_derived_also_under_replace():
    d = dataclasses.replace(multipass_design(25, 1.0), radius_rs=2.0)
    assert d == multipass_design(25, 2.0)
    assert dataclasses.replace(d, theta_deg=45) == multipass_design(45, 2.0)
    with pytest.raises(ValueError):
        dataclasses.replace(d, n_turns=1)  # derived, never given


def test_multipass_design_validation():
    with pytest.raises(ValueError):
        MultipassDesign(theta_deg=95, radius_rs=1.0)
    with pytest.raises(ValueError):
        MultipassDesign(theta_deg=25, radius_rs=-1.0)
    # the checks of multipass_design, also on a design built directly
    for bad in (25.5, True, "25"):
        with pytest.raises(ValueError, match="theta_deg"):
            MultipassDesign(bad, 1.0)
    assert MultipassDesign(25.0, 1.0) == multipass_design(25, 1.0)


def test_huge_radius_is_a_domain_error_not_an_overflow():
    # the square itself overflows at 1e300; at 1.3e154 the square fits but
    # the area does not
    for theta, radius in ((1, 1e300), (1, 1.3e154), (45, 1.3e154)):
        with pytest.raises(ValueError, match="radius_rs|equivalent area"):
            equivalent_area(theta, radius)
        with pytest.raises(ValueError):
            multipass_design(theta, radius)
    with pytest.raises(ValueError, match="radius_rs"):
        MultipassDesign(theta_deg=25, radius_rs=1e300)
    with pytest.raises(ValueError, match="equivalent area"):
        MultipassDesign(theta_deg=1, radius_rs=1.3e154)


def test_numpy_integers_are_integer_degrees():
    """Any integer type is accepted, numpy's included; bools never are."""
    np = pytest.importorskip("numpy")
    thetas = np.arange(5, 90, 5)
    assert [multipass_design(t, 1.0) for t in thetas] == [
        multipass_design(int(t), 1.0) for t in thetas]
    assert turns(np.int64(25)) == turns(np.uint8(25)) == 5
    assert equivalent_area(np.int32(25), 1.0) == equivalent_area(25, 1.0)
    for bad in (np.bool_(True), True, np.float64(25.5)):
        with pytest.raises(ValueError, match="theta_deg"):
            turns(bad)


def test_huge_numpy_radius_is_a_domain_error_naming_radius_rs():
    """A numpy float's square overflows to inf with a warning, not an
    OverflowError; the radius is refused by name all the same."""
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="radius_rs"):
        MultipassDesign(25, np.float64(1e200))
    with pytest.raises(ValueError, match="radius_rs"):
        multipass_design(25, np.float64(1e200))
    with pytest.raises(ValueError, match="radius_rs"):
        equivalent_area(np.int64(25), np.float64(1e200))
    assert multipass_design(25, np.float64(2.0)) == multipass_design(25, 2.0)
