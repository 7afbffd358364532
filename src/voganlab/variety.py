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
  symmetric matrices.  The basis of V, and of every form space cut from it,
  is :func:`form_basis`, the one home of that coordinate convention.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import ConfigurationError, InputError

# Largest chain total (sum of dims) a spec file, --steinberg or --two-eig
# may ask for: it rejects totals such as dims [10**26] whose list sizes
# overflow.  It is no size limit, since a far smaller total spread over
# several grades still does not finish.  The size limits, on predicted orbits
# and representative cells, are the two rules of _admit, the one gate that
# every constructor passes before anything is enumerated.
MAX_CHAIN_TOTAL = 1000
MAX_ORBITS = 8192

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


def _check_total(total: int, what: str) -> None:
    """Refuse a grading of ``what`` whose dims total exceeds MAX_CHAIN_TOTAL."""
    if total > MAX_CHAIN_TOTAL:
        raise InputError(
            f"{what}: dims total {total} exceeds the limit "
            f"MAX_CHAIN_TOTAL = {MAX_CHAIN_TOTAL}"
        )


def _kept(state: tuple[tuple[int, int], ...], cap: int):
    """Every split of ``state`` ((start, count) pairs) into (kept, ended),
    both in the same form, with at most ``cap`` segments kept."""
    if not state:
        yield (), ()
        return
    (b, n), rest = state[0], state[1:]
    for c in range(min(n, cap) + 1):
        for kept, ended in _kept(rest, cap - c):
            yield ((b, c),) + kept if c else kept, ((b, n - c),) + ended if c < n else ended


def _grade_step(state: tuple[tuple[int, int], ...], i: int, d: int):
    """The moves of the grade walk over multisegments into grade i, of
    dimension d.  Of the segments open at grade i - 1 (``state``, (start,
    count) pairs), each move keeps some open and ends the rest there, and
    starts the remaining ones of the d anew: (next state, ended)."""
    for kept, ended in _kept(state, d):
        fresh = d - sum(c for _, c in kept)
        yield (kept + ((i, fresh),) if fresh else kept), ended


def chain_orbit_count(dims: tuple[int, ...], limit: int) -> tuple[int, bool]:
    """(count, exact): the number of multisegments covering ``dims``, i.e. the
    Kostant partition function of the dimension vector, which counts the
    orbits of the chain.

    Dynamic programming over the moves of :func:`_grade_step`: a state is
    the multiset of starts of the segments covering the current grade,
    weighted by the number of partial multisegments reaching it.  Every
    partial multisegment extends, so the weights of any grade bound the count
    from below; once they, or one grade's moves, pass ``limit`` the function
    stops and returns such a bound, with ``exact`` False.
    """
    paths: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for i, d in enumerate(dims):
        count = sum(paths.values())
        if count > limit:
            return count, False
        nxt: dict[tuple[tuple[int, int], ...], int] = {}
        moves = 0
        for state, ways in paths.items():
            for key, _ended in _grade_step(state, i, d):
                nxt[key] = nxt.get(key, 0) + ways
                moves += 1
                if moves > limit:
                    return sum(nxt.values()), False
        paths = nxt
    return sum(paths.values()), True


def chain_multisegments(dims: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """All multisegments covering ``dims``, each once and sorted, by the
    grade walk that :func:`chain_orbit_count` counts (:func:`_grade_step`):
    at each grade the open segments continue or end one grade below, and
    fresh ones start.  A closing grade of dimension 0 ends every segment."""
    paths = [((), ())]  # (open (start, count) pairs, segments ended so far)
    for i, d in enumerate((*dims, 0)):
        paths = [
            (nxt, done + tuple((b, i - 1) for b, n in ended for _ in range(n)))
            for state, done in paths
            for nxt, ended in _grade_step(state, i, d)
        ]
    return [tuple(sorted(done)) for _, done in paths]


def _admit(what: str, orbit_count: int, exact: bool, cells: int) -> None:
    """Refuse ``what`` with its predicted size when its orbits
    (``orbit_count``, a lower bound unless ``exact``) exceed MAX_ORBITS, or
    when they times ``cells`` exceed MAX_ORBITS**2, the cell count of the
    largest accepted chain matrix: a shape with few orbits can still have
    large representatives.  ``cells`` is a representative's: ``total_dim``
    for chain and Steinberg gradings, n**2 for the dense normal forms of a
    two-eigenvalue shape (n, n)."""
    if orbit_count > MAX_ORBITS:
        raise InputError(
            f"{what}: {'' if exact else 'at least '}{orbit_count} orbits "
            f"predicted, over MAX_ORBITS = {MAX_ORBITS}"
        )
    if orbit_count * cells > MAX_ORBITS**2:
        raise InputError(
            f"{what}: {orbit_count * cells} representative cells predicted, "
            f"over MAX_ORBITS**2 = {MAX_ORBITS**2}"
        )


@lru_cache(maxsize=None)
def form_basis(n: int, symmetric: bool) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The elementary n x n symmetric matrices E_ij + E_ji (i <= j), or
    antisymmetric ones E_ij - E_ji (i < j), in row-major order of (i, j):
    each as the (position, entry) pairs of its nonzero entries in the n x n
    layout (position i * n + j), by position.  Memoised: the two-eigenvalue
    oracles read the form space of every orbit's kernel block."""
    sign = 1 if symmetric else -1
    return tuple(
        ((i * n + j, 1),) if i == j else ((i * n + j, 1), (j * n + i, sign))
        for i in range(n) for j in range(i if symmetric else i + 1, n)
    )


def canonical_family(tag: str) -> str:
    try:
        return FAMILY_ALIASES[tag]
    except KeyError:
        raise InputError(
            f"unknown family {tag!r}; expected one of gl, so-even, sp-dual, so-odd-dual"
        ) from None


class Chain(namedtuple("Chain", "offset dims")):
    """Contiguous run of grades; dims[i] lives at true exponent offset + i.

    ``offset`` is a half-integer ``Fraction``, ``dims`` a tuple of positive
    ints.  No ``__slots__``: the instance ``__dict__`` holds the
    ``cached_property`` values."""

    def __new__(cls, offset, dims):
        if any(d < 1 for d in dims):
            raise InputError("chain dims must all be >= 1")
        offset = Fraction(offset)
        if (2 * offset).denominator != 1:
            raise InputError("chain offset must be a half-integer")
        return super().__new__(cls, offset, dims)

    @property
    def length(self) -> int:
        return len(self.dims)

    def exponent(self, i: int) -> Fraction:
        return self.offset + i

    @cached_property
    def exponent_labels(self) -> tuple[str, ...]:
        """``str(self.exponent(i))`` for every grade i, formatted once."""
        return tuple(str(self.offset + i) for i in range(self.length))

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def arrow_dim(self) -> int:
        return sum(a * b for a, b in zip(self.dims, self.dims[1:]))

    @property
    def group_dim(self) -> int:
        return sum(d * d for d in self.dims)


class VoganVariety(namedtuple("VoganVariety", "family kind chains n", defaults=(None,))):
    """A graded vector space with its symmetry group, by family and shape.

    ``kind`` is "chain", "steinberg" or "two_eigenvalue"; ``chains`` is a
    tuple of :class:`Chain`; ``n`` is the classical rank parameter (None for
    kind "chain")."""

    __slots__ = ()

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

    # ----- presentation ----------------------------------------------------

    def describe(self) -> str:
        parts = []
        for c in self.chains:
            lo, hi = c.exponent(0), c.exponent(c.length - 1)
            parts.append(f"dims {list(c.dims)} at exponents {lo}..{hi}")
        return f"{self.family} {self.kind}: " + "; ".join(parts) if parts else f"{self.family} point"

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
        count, exact = 1, True
        for t, c in enumerate(chains):
            n, n_exact = chain_orbit_count(c.dims, MAX_ORBITS)
            count, exact = count * n, exact and n_exact
            if count > MAX_ORBITS:  # a lower bound: every further chain has an orbit
                exact = exact and t == len(chains) - 1
                break
        v = VoganVariety(GL, "chain", chains)
        dims = ", ".join(str(list(c.dims)) for c in chains)
        _admit(f"chains with dims {dims}", count, exact, v.total_dim)
        return v
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
    n = c.total // 2  # the Steinberg gradings of rank n have total 2n, 2n + 1 and 2n
    try:
        expected = steinberg_grading(family, n)
    except InputError:
        expected = None
    if expected == c:
        return steinberg_variety(family, n)
    raise ConfigurationError(f"unrecognised ({family}, dims) combination; {supported}")


@lru_cache(maxsize=None)
def steinberg_grading(family: str, n: int) -> Chain:
    """Grading of the dual group's standard representation at the principal
    (Steinberg) parameter; exponents are the pairings with the coroot sum.
    Memoised: the GL shadow of every Steinberg orbit reads it."""
    family = canonical_family(family)
    if n < 1:
        raise InputError("n must be >= 1")
    total = n if family == GL else 2 * n + (family == SO_ODD)
    _check_total(total, f"steinberg grading of rank {n}")
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
    if family == SO_EVEN and n < 3:
        # so(4) = sl(2) x sl(2) is not simple and behaves differently;
        # the built-in families stick to the simple range
        raise ConfigurationError("SO_even_dual steinberg is supported for n >= 3")
    chain = steinberg_grading(family, n)
    if family == GL:
        v = VoganVariety(GL, "chain", (chain,))
    else:
        v = VoganVariety(family, "steinberg", (chain,), n=n)
    # one orbit per subset of the simple roots
    _admit(f"steinberg rank {n}", 2 ** (n - (family == GL)), True, v.total_dim)
    return v


def two_eigenvalue_variety(family: str, n: int) -> VoganVariety:
    family = canonical_family(family)
    if n < 1:
        raise InputError("n must be >= 1")
    _check_total(2 * n, f"two-eigenvalue grading ({n}, {n})")
    chain = Chain(Fraction(-1, 2), (n, n))
    if family == SO_ODD:
        raise ConfigurationError(
            "the odd orthogonal dual group has odd-dimensional standard "
            "representation and admits no two-eigenvalue shape"
        )
    if family == SO_EVEN and n < 2:
        raise ConfigurationError("SO_even_dual two-eigenvalue needs n >= 2")
    # ranks 0 .. n, the even ones on SO(2n), each with an n x n representative
    orbit_count = (n // 2 if family == SO_EVEN else n) + 1
    _admit(f"two-eigenvalue grading ({n}, {n})", orbit_count, True, n * n)
    if family == GL:
        return VoganVariety(GL, "chain", (chain,))
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
        offset = rc.get("offset", 0)
        if isinstance(offset, bool) or not isinstance(offset, (int, float, str)):
            kind = type(offset).__name__
            raise InputError(f"bad chain entry {rc!r}: offset is a {kind}, not a number or string")
        text = str(offset)
        try:  # numeric text with an exponent, which Fraction expands to 10**exponent, is a float
            offset = float(text) if "e" in text.lower() else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad chain entry {rc!r}: offset {text!r} is not a fraction") from exc
        if isinstance(offset, float):
            raise InputError(f"bad chain entry {rc!r}: offset {text!r} has an exponent")
        chain = Chain(offset, tuple(rc["dims"]))
        _check_total(chain.total, "bad chain entry")
        chains.append(chain)
    if "kind" not in doc:
        return build_variety(chains, family)
    # a spec_dict() names its shape, which the chains alone may not: the
    # sp-dual Steinberg grading of rank 1 is also the two-eigenvalue shape (1, 1)
    kind, n = doc["kind"], doc.get("n")
    if kind in ("steinberg", "two_eigenvalue"):
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"'n' must be an integer for kind {kind!r}, got {n!r}")
        v = (steinberg_variety if kind == "steinberg" else two_eigenvalue_variety)(family, n)
    else:
        v = build_variety(chains, family)
    if (v.kind, v.n, v.chains) != (kind, n, tuple(chains)):
        raise InputError(
            f"kind {kind!r} with n = {n!r} does not match the family and chains "
            "(kinds: chain, steinberg, two_eigenvalue)"
        )
    return v


def variety_from_json(text: str) -> VoganVariety:
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer literal over 4300 digits, or nesting past
    # the parser's recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("variety spec must be a JSON object")
    return variety_from_dict(doc)
