import random

import pytest

from cubetri.geometry import (
    CubeLabel,
    MinkowskiLabel,
    PointConfiguration,
    ProductLabel,
    SimplexLabel,
    affine_rank,
    ambient_normalized_volume,
    cube_config,
    facet_inequalities,
    minkowski_config,
    normalized_volume,
    parse_label,
    point_count,
    product_config,
    simplex_config,
)


def test_normalized_volume_examples():
    assert normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
    assert normalized_volume([(0, 0), (2, 0), (0, 2)]) == 4
    assert normalized_volume([(0, 0), (1, 1), (2, 2)]) == 0


def test_normalized_volume_errors():
    with pytest.raises(ValueError):
        normalized_volume([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        normalized_volume([(0, 0), (1, 0, 0), (0, 1)])


def test_normalized_volume_invariances():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randrange(2, 5)
        pts = [tuple(rng.randrange(-3, 4) for _ in range(d)) for _ in range(d + 1)]
        v = normalized_volume(pts)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert normalized_volume(shuffled) == v
        t = tuple(rng.randrange(-5, 6) for _ in range(d))
        assert normalized_volume([tuple(x + dx for x, dx in zip(p, t)) for p in pts]) == v


def test_affine_rank_examples():
    assert affine_rank([(0, 0, 0)]) == 0
    assert affine_rank([(0, 0), (1, 0), (2, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    with pytest.raises(ValueError):
        affine_rank([])


def test_rank_volume_consistency():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randrange(2, 5)
        pts = [tuple(rng.randrange(0, 3) for _ in range(d)) for _ in range(d + 1)]
        assert (affine_rank(pts) == d) == (normalized_volume(pts) > 0)


def test_ambient_volumes():
    assert ambient_normalized_volume(parse_label("cube(3)xsimplex(1)")) == 24
    assert ambient_normalized_volume(parse_label("cube(2)xsimplex(2)")) == 12
    assert ambient_normalized_volume(parse_label("minkowski(cube(2),3)")) == 18
    assert ambient_normalized_volume(parse_label("cube(4)")) == 24
    assert ambient_normalized_volume(parse_label("simplex(5)")) == 1


def test_label_round_trip():
    for text in ["cube(3)", "simplex(2)", "cube(3)xsimplex(2)", "minkowski(cube(2),3)"]:
        assert str(parse_label(text)) == text
    with pytest.raises(ValueError):
        parse_label("dodecahedron")


def test_canonical_orders():
    c = cube_config(2)
    assert c.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    s = simplex_config(2)
    assert s.points == ((0, 0), (1, 0), (0, 1))
    p = product_config(cube_config(1), simplex_config(1))
    assert p.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    mk = minkowski_config(1, 2)
    assert mk.points == ((0,), (1,), (2,))
    # a product of cubes lists points exactly like the combined cube, but
    # a configuration is its label, so the two are not equal
    pc = product_config(cube_config(2), cube_config(1))
    assert pc.points == cube_config(3).points
    assert pc != cube_config(3)
    # equal labels give equal configurations
    for text in ["cube(3)", "simplex(2)", "cube(2)xsimplex(1)", "minkowski(cube(2),3)"]:
        a, b = PointConfiguration(parse_label(text)), PointConfiguration(parse_label(text))
        assert a == b and hash(a) == hash(b) and a.points == b.points
    assert pc == product_config(cube_config(2), cube_config(1))


def test_config_from_label_round_trip():
    for text in ["cube(3)", "cube(2)xsimplex(1)", "minkowski(cube(3),2)"]:
        cfg = PointConfiguration(parse_label(text))
        assert str(cfg.label) == text
        assert len(set(cfg.points)) == len(cfg.points)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CubeLabel(-1),
        lambda: SimplexLabel(-1),
        lambda: MinkowskiLabel(-1, 2),
        lambda: MinkowskiLabel(2, -1),
        lambda: cube_config(-1),
        lambda: simplex_config(-1),
        lambda: minkowski_config(2, -1),
        lambda: product_config(cube_config(2), simplex_config(-1)),
        lambda: PointConfiguration(ProductLabel(SimplexLabel(-2), CubeLabel(1))),
    ],
    ids=["cube", "simplex", "minkowski-l", "minkowski-m", "cube_config",
         "simplex_config", "minkowski_config", "product", "product-label"],
)
def test_negative_sizes_are_rejected(make):
    with pytest.raises(ValueError, match="must be >= 0"):
        make()


def test_zero_sizes_are_accepted():
    assert cube_config(0).points == ((),)
    assert simplex_config(0).points == ((),)
    assert minkowski_config(2, 0).points == ((0, 0),)


@pytest.mark.parametrize("l", range(6))
def test_a_cube_is_the_unit_box(l):
    # cube(l) is minkowski(cube(l), 1) under its own name
    cube, box = CubeLabel(l), MinkowskiLabel(l, 1)
    assert cube.m == 1
    assert PointConfiguration(cube).points == PointConfiguration(box).points
    assert point_count(cube) == point_count(box) == 2**l
    assert ambient_normalized_volume(cube) == ambient_normalized_volume(box)
    assert facet_inequalities(cube) == facet_inequalities(box)
    assert str(cube) == f"cube({l})" != str(box)
    assert parse_label(str(cube)) == cube != box
    assert PointConfiguration(cube) != PointConfiguration(box)
