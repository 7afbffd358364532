"""
Graded dimension data and the varieties it generates.

An unramified parameter is recorded as a list of chains.  A chain holds the
dimensions of consecutive eigenvalue grades: ``dims[i]`` sits at true exponent
``offset + i``, so half-integer grids are shifted onto the integers with the
offset remembered (the "centered at 0" test for Arthur type uses the true
exponents).  Distinct chains are treated as having incommensurable twists:
no arrows connect them, and all orbit data factors over chains.

Three shapes of variety are supported:

* ``chain`` (family GL): V = direct sum of Hom(E_i, E_{i+1}) within each
  chain, H = product of GL(d_i).  Arrows always point from exponent e to
  exponent e + 1.
* ``steinberg`` (classical families): V = one coordinate line per simple
  root of the dual group, H = its maximal torus.
* ``two_eigenvalue`` (classical families): grades (n, n) at exponents
  -1/2, 1/2; V is the subspace of Hom(E_{-1/2}, E_{1/2}) fixed by the form.
  With the dual group SO(2n) the subspace is the antisymmetric matrices in
  the basis pairing the two isotropic summands; with Sp(2n) it is the
  symmetric matrices.  Bases are the elementary (anti)symmetric matrices
  E_ij + E_ji (i <= j) resp. E_ij - E_ji (i < j), in row-major order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, InputError

GL = "GL"
SO_EVEN = "SO_even_dual"
SP_DUAL = "Sp_dual_of_SO_odd"
SO_ODD = "SO_odd_dual_of_Sp"

FAMILY_ALIASES = {
    "gl": GL,
    "so-even": SO_EVEN,
    "sp-dual": SP_DUAL,
    "so-odd-dual": SO_ODD,
    GL: GL,
    SO_EVEN: SO_EVEN,
    SP_DUAL: SP_DUAL,
    SO_ODD: SO_ODD,
}


def canonical_family(tag: str) -> str:
    try:
        return FAMILY_ALIASES[tag]
    except KeyError:
        raise InputError(
            f"unknown family {tag!r}; expected one of gl, so-even, sp-dual, so-odd-dual"
        ) from None


@dataclass(frozen=True)
class Chain:
    """Contiguous run of grades; dims[i] lives at true exponent offset + i."""

    offset: Fraction
    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise InputError("chain dims must all be >= 1")
        object.__setattr__(self, "offset", Fraction(self.offset))
        if (2 * self.offset).denominator != 1:
            raise InputError("chain offset must be a half-integer")

    @property
    def length(self) -> int:
        return len(self.dims)

    def exponent(self, i: int) -> Fraction:
        return self.offset + i

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def arrow_dim(self) -> int:
        return sum(a * b for a, b in zip(self.dims, self.dims[1:]))

    @property
    def group_dim(self) -> int:
        return sum(d * d for d in self.dims)


@dataclass(frozen=True)
class VoganVariety:
    """A graded vector space with its symmetry group, by family and shape."""

    family: str
    kind: str  # "chain" | "steinberg" | "two_eigenvalue"
    chains: tuple[Chain, ...]
    n: int | None = None  # classical rank parameter (kind != "chain")

    # ----- dimensions ------------------------------------------------------

    @property
    def total_dim(self) -> int:
        if self.kind == "chain":
            return sum(c.arrow_dim for c in self.chains)
        if self.kind == "steinberg":
            return self.n
        # two-eigenvalue classical
        n = self.n
        if self.family == SP_DUAL:
            return n * (n + 1) // 2
        return n * (n - 1) // 2

    @property
    def group_dim(self) -> int:
        if self.kind == "chain":
            return sum(c.group_dim for c in self.chains)
        if self.kind == "steinberg":
            return self.n
        return self.n * self.n

    @property
    def symmetric_form(self) -> bool | None:
        """For classical two-eigenvalue shapes: True = symmetric matrices."""
        if self.kind != "two_eigenvalue":
            return None
        return self.family == SP_DUAL

    def arrow_spaces(self) -> list[tuple[Fraction, Fraction, tuple[int, int]]]:
        """(source exponent, target exponent, block shape) per arrow."""
        out = []
        for c in self.chains:
            for i in range(c.length - 1):
                out.append((c.exponent(i), c.exponent(i + 1), (c.dims[i + 1], c.dims[i])))
        return out

    def subspace_basis(self) -> list[list[list[int]]]:
        """Explicit basis of V inside Hom(E_low, E_high) for classical shapes."""
        if self.kind != "two_eigenvalue":
            raise InputError("subspace_basis only applies to two-eigenvalue shapes")
        n = self.n
        basis = []
        if self.symmetric_form:
            for i in range(n):
                for j in range(i, n):
                    m = [[0] * n for _ in range(n)]
                    m[i][j] = 1
                    m[j][i] = 1
                    basis.append(m)
        else:
            for i in range(n):
                for j in range(i + 1, n):
                    m = [[0] * n for _ in range(n)]
                    m[i][j] = 1
                    m[j][i] = -1
                    basis.append(m)
        return basis

    # ----- presentation ----------------------------------------------------

    def describe(self) -> str:
        parts = []
        for c in self.chains:
            lo, hi = c.exponent(0), c.exponent(c.length - 1)
            parts.append(f"dims {list(c.dims)} at exponents {lo}..{hi}")
        shape = self.kind if self.kind != "chain" else "chain"
        return f"{self.family} {shape}: " + "; ".join(parts) if parts else f"{self.family} point"

    def spec_dict(self) -> dict:
        return {
            "family": self.family,
            "kind": self.kind,
            "n": self.n,
            "chains": [
                {"offset": str(c.offset), "dims": list(c.dims)} for c in self.chains
            ],
        }


# ---------------------------------------------------------------------------
# constructors


def build_variety(chains, family: str) -> VoganVariety:
    """Assemble a variety from chain data, dispatching on the family."""
    family = canonical_family(family)
    chains = tuple(chains)
    if family == GL:
        return VoganVariety(GL, "chain", chains)
    return _recognise_classical(chains, family)


def _recognise_classical(chains: tuple[Chain, ...], family: str) -> VoganVariety:
    supported = (
        "supported classical shapes: steinberg(n) "
        "(the principal grading of the standard representation) and "
        "two_eigenvalue(n) (dims (n, n) at exponents -1/2, 1/2)"
    )
    if len(chains) != 1:
        raise ConfigurationError(f"classical families need a single chain; {supported}")
    c = chains[0]
    if len(c.dims) == 2 and c.dims[0] == c.dims[1] and c.offset == Fraction(-1, 2):
        return two_eigenvalue_variety(family, c.dims[0])
    for n in range(1, c.total + 2):
        try:
            expected = steinberg_grading(family, n)
        except InputError:
            continue
        if expected == c:
            return steinberg_variety(family, n)
    raise ConfigurationError(f"unrecognised ({family}, dims) combination; {supported}")


def steinberg_grading(family: str, n: int) -> Chain:
    """Grading of the dual group's standard representation at the principal
    (Steinberg) parameter; exponents are the pairings with the coroot sum."""
    family = canonical_family(family)
    if n < 1:
        raise InputError("n must be >= 1")
    if family == GL:
        return Chain(Fraction(-(n - 1), 2), (1,) * n)
    if family == SP_DUAL:
        return Chain(Fraction(-(2 * n - 1), 2), (1,) * (2 * n))
    if family == SO_ODD:
        return Chain(Fraction(-n), (1,) * (2 * n + 1))
    # SO_even_dual: weight 0 occurs twice
    if n < 2:
        raise InputError("SO_even_dual steinberg needs n >= 2")
    dims = (1,) * (n - 1) + (2,) + (1,) * (n - 1)
    return Chain(Fraction(-(n - 1)), dims)


def steinberg_variety(family: str, n: int) -> VoganVariety:
    family = canonical_family(family)
    if family == GL:
        return VoganVariety(GL, "chain", (steinberg_grading(GL, n),))
    if family == SO_EVEN and n < 3:
        # so(4) = sl(2) x sl(2) is not simple and behaves differently;
        # the built-in families stick to the simple range
        raise ConfigurationError("SO_even_dual steinberg is supported for n >= 3")
    return VoganVariety(family, "steinberg", (steinberg_grading(family, n),), n=n)


def two_eigenvalue_variety(family: str, n: int) -> VoganVariety:
    family = canonical_family(family)
    if n < 1:
        raise InputError("n must be >= 1")
    chain = Chain(Fraction(-1, 2), (n, n))
    if family == GL:
        return VoganVariety(GL, "chain", (chain,))
    if family == SO_ODD:
        raise ConfigurationError(
            "the odd orthogonal dual group has odd-dimensional standard "
            "representation and admits no two-eigenvalue shape"
        )
    if family == SO_EVEN and n < 2:
        raise ConfigurationError("SO_even_dual two-eigenvalue needs n >= 2")
    return VoganVariety(family, "two_eigenvalue", (chain,), n=n)


def point_variety() -> VoganVariety:
    return VoganVariety(GL, "chain", ())


# ---------------------------------------------------------------------------
# JSON interface


def variety_from_dict(doc: dict) -> VoganVariety:
    if "family" not in doc:
        raise InputError("variety spec needs a 'family' field")
    if not isinstance(doc["family"], str):
        raise InputError(f"'family' must be a string, got {doc['family']!r}")
    family = canonical_family(doc["family"])
    raw_chains = doc.get("chains", [])
    if not isinstance(raw_chains, list):
        raise InputError(f"'chains' must be a list of chain objects, got {raw_chains!r}")
    chains = []
    for rc in raw_chains:
        if not isinstance(rc, dict) or not isinstance(rc.get("dims"), list):
            raise InputError(f"bad chain entry {rc!r}: expected an object with a 'dims' list")
        bad = [d for d in rc["dims"] if not isinstance(d, int) or isinstance(d, bool)]
        if bad:
            raise InputError(f"bad chain entry {rc!r}: dims must be integers, got {bad[0]!r}")
        try:
            offset = Fraction(str(rc.get("offset", 0)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad chain entry {rc!r}: {exc}") from exc
        dims = tuple(rc["dims"])
        chains.append(Chain(offset, dims))
    return build_variety(chains, family)


def variety_from_json(text: str) -> VoganVariety:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("variety spec must be a JSON object")
    return variety_from_dict(doc)
