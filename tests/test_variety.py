import json
from fractions import Fraction

import pytest

from voganlab import linalg
from voganlab.errors import ConfigurationError, InputError
from voganlab.variety import (
    Chain,
    build_variety,
    form_basis,
    point_variety,
    steinberg_variety,
    two_eigenvalue_variety,
    variety_from_json,
)


def test_three_grade_line_dims():
    v = build_variety([Chain(Fraction(-1), (1, 1, 1))], "gl")
    assert v.total_dim == 2
    assert v.group_dim == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_two_eigenvalue_dims(n):
    v = two_eigenvalue_variety("gl", n)
    assert v.total_dim == n * n
    assert v.group_dim == 2 * n * n


def test_single_grade_is_a_point():
    v = build_variety([Chain(Fraction(0), (3,))], "gl")
    assert v.total_dim == 0
    assert v.group_dim == 9


def test_empty_variety():
    v = point_variety()
    assert v.total_dim == 0
    assert v.group_dim == 0


def test_torus_group_dim():
    assert build_variety([Chain(Fraction(0), (1, 1, 1))], "gl").group_dim == 3


def test_two_chain_dims_add():
    a = Chain(Fraction(0), (1, 2))
    b = Chain(Fraction(-1, 2), (1, 1, 1))
    v = build_variety([a, b], "gl")
    va = build_variety([a], "gl")
    vb = build_variety([b], "gl")
    assert v.total_dim == va.total_dim + vb.total_dim
    assert v.group_dim == va.group_dim + vb.group_dim


def test_classical_two_eigenvalue_basis_is_independent():
    for family, n in [("sp-dual", 1), ("sp-dual", 3), ("so-even", 2), ("so-even", 4)]:
        v = two_eigenvalue_variety(family, n)
        basis = form_basis(n, v.symmetric_form)
        flattened = [[dict(support).get(t, 0) for t in range(n * n)] for support in basis]
        assert linalg.rank(flattened) == v.total_dim == len(basis)
        # E_ij + E_ji resp. E_ij - E_ji: the (j, i) entry mirrors the (i, j) one
        sign = 1 if v.symmetric_form else -1
        for row in flattened:
            assert all(row[j * n + i] == sign * row[i * n + j] for i in range(n) for j in range(n))


def test_classical_shape_recognition():
    v = build_variety([Chain(Fraction(-1, 2), (3, 3))], "sp-dual")
    assert v.kind == "two_eigenvalue" and v.n == 3
    v = build_variety([Chain(Fraction(-5, 2), (1,) * 6)], "sp-dual")
    assert v.kind == "steinberg" and v.n == 3
    v = build_variety([Chain(Fraction(-2), (1, 1, 2, 1, 1))], "so-even")
    assert v.kind == "steinberg" and v.n == 3


def test_unsupported_classical_shapes_name_the_options():
    with pytest.raises(ConfigurationError) as exc:
        build_variety([Chain(Fraction(0), (2, 3))], "sp-dual")
    assert "steinberg" in str(exc.value) and "two_eigenvalue" in str(exc.value)
    with pytest.raises(ConfigurationError):
        two_eigenvalue_variety("so-odd-dual", 2)
    with pytest.raises(ConfigurationError):
        steinberg_variety("so-even", 2)


def test_chain_validation():
    with pytest.raises(InputError):
        Chain(Fraction(0), (1, 0, 1))
    with pytest.raises(InputError):
        Chain(Fraction(1, 3), (1, 1))


def test_json_parsing_and_echo():
    doc = {"family": "gl", "chains": [{"offset": "-1/2", "dims": [2, 2]}]}
    v = variety_from_json(json.dumps(doc))
    assert v.total_dim == 4
    echo = v.spec_dict()
    assert echo["chains"] == [{"offset": "-1/2", "dims": [2, 2]}]
    again = variety_from_json(json.dumps(echo))
    assert again == v


def test_json_errors():
    with pytest.raises(InputError):
        variety_from_json("not json")
    with pytest.raises(InputError):
        variety_from_json(json.dumps({"chains": []}))
    with pytest.raises(InputError):
        variety_from_json(json.dumps({"family": "e8"}))
    with pytest.raises(InputError):
        variety_from_json(json.dumps({"family": "gl", "chains": [{"dims": [0]}]}))
