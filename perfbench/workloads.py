"""Seeded inputs, query lists and output checks of the benchmark workloads.

Every model has one semicircular generator ``s`` (variance v) and one
free-Poisson generator ``p`` (rate r) in two different families, so they
are free. Each variable is affine in them: X = c + s*alpha + p*beta with
c, alpha, beta in B = C^N, stored as their N-tuples. B is commutative and
central, so the B-valued cumulants of such variables have a closed form:

    K_1(X)           = c + r*beta
    K_n(X_1..X_n)    = v*alpha_1*alpha_2 [n = 2] + r*beta_1*...*beta_n   (n >= 2)

because mixed s/p cumulants vanish and kappa_n(s) = v [n = 2],
kappa_n(p) = r. Moments follow from the cumulants by the first-block
recursion over NC(n). The checks below use only these formulas and their
own arithmetic in B, never toepfree code, so they are independent of the
program they check.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Optional

#: Toeplitz order N of every model and series.
ORDER = 3
#: Scalar degree cap written into every model config.
DEGREE_CAP = 8

B = tuple  # an element of B = C^N: an N-tuple of Fractions


# --------------------------------------------------------------------------
# arithmetic in B, independent of toepfree
# --------------------------------------------------------------------------


def b_one() -> B:
    return (Fraction(1),) + (Fraction(0),) * (ORDER - 1)


def b_zero() -> B:
    return (Fraction(0),) * ORDER


def b_add(x: B, y: B) -> B:
    return tuple(a + b for a, b in zip(x, y))


def b_scale(c: Fraction, x: B) -> B:
    return tuple(c * a for a in x)


def b_mul(x: B, y: B) -> B:
    """Truncated convolution: entry j is sum_{k <= j} x_k y_{j-k}."""
    return tuple(
        sum((x[k] * y[j - k] for k in range(j + 1)), Fraction(0))
        for j in range(ORDER)
    )


def b_prod(factors) -> B:
    out = b_one()
    for f in factors:
        out = b_mul(out, f)
    return out


def words(s: int, degree: int):
    """All nonempty words over {1..s} of length <= degree."""
    for n in range(1, degree + 1):
        yield from product(range(1, s + 1), repeat=n)


def moment_from_cumulants(cumulant: Callable[[tuple], B]) -> Callable[[tuple], B]:
    """m(w) = sum over blocks V containing the first letter of
    K(w|V) times the moments of the gaps V leaves, memoized on subwords."""
    memo: dict[tuple, B] = {(): b_one()}
    cumulant = functools.lru_cache(maxsize=None)(cumulant)

    def m(word: tuple) -> B:
        cached = memo.get(word)
        if cached is not None:
            return cached
        n = len(word)
        total = b_zero()
        for mask in range(1 << (n - 1)):
            block = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1]
            value = cumulant(tuple(word[i] for i in block))
            if not any(value):
                continue
            for lo, hi in zip(block, block[1:] + [n]):
                value = b_mul(value, m(word[lo + 1 : hi]))
            total = b_add(total, value)
        memo[word] = total
        return total

    return m


# --------------------------------------------------------------------------
# seeded models
# --------------------------------------------------------------------------


#: Coefficients are drawn without replacement from these non-integers with
#: one-digit numerator and denominator: no two coefficients of a model are
#: equal, so no two entries merge by chance and every seed does the same
#: amount of work on numbers of the same size.
POOL = sorted({Fraction(p, q) for p in range(1, 10) for q in range(2, 10) if p % q})


class Draw:
    """Distinct seeded rationals, with a random sign unless unsigned."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._left = rng.sample(POOL, len(POOL))

    def __call__(self, signed: bool = True) -> Fraction:
        value = self._left.pop()
        return -value if signed and self._rng.random() < 0.5 else value


def _expr(terms: list[tuple[Fraction, str]]) -> str:
    """An expression string for the sum of coef*gen ('' marks a constant)."""
    parts: list[str] = []
    for coef, gen in terms:
        atom = f"{abs(coef)}*{gen}" if gen else str(abs(coef))
        if parts:
            parts.append("-" if coef < 0 else "+")
        elif coef < 0:
            atom = "-" + atom
        parts.append(atom)
    return " ".join(parts)


@dataclass(frozen=True)
class Variable:
    """X = const + s*alpha + p*beta, entrywise; ``source`` overrides the
    config entries (used for the over-cap variable, which has no closed
    form and is never checked by value)."""

    const: B
    alpha: B
    beta: B
    source: Optional[tuple[str, ...]] = None

    def entries(self) -> list[str]:
        if self.source is not None:
            return list(self.source)
        entries = []
        for j in range(ORDER):
            terms = [(self.const[j], ""), (self.alpha[j], "s"), (self.beta[j], "p")]
            entries.append(_expr([(c, g) for c, g in terms if c]))
        return entries


@dataclass(frozen=True)
class Model:
    variance: Fraction
    rate: Fraction
    variables: dict[str, Variable]

    def config(self) -> dict:
        return {
            "N": ORDER,
            "degree_cap": DEGREE_CAP,
            "families": [
                {"name": "semi", "generators": [{"id": "s", "distribution": {
                    "kind": "semicircular", "variance": str(self.variance)}}]},
                {"name": "pois", "generators": [{"id": "p", "distribution": {
                    "kind": "free_poisson", "rate": str(self.rate)}}]},
            ],
            "variables": [
                {"name": name, "entries": var.entries()}
                for name, var in self.variables.items()
            ],
        }

    def cumulant(self, names: tuple[str, ...]) -> B:
        """The closed-form B-valued cumulant K_n of the named variables."""
        vars_ = [self.variables[n] for n in names]
        out = b_scale(self.rate, b_prod(v.beta for v in vars_))
        if len(vars_) == 1:
            out = b_add(out, vars_[0].const)
        if len(vars_) == 2:
            out = b_add(out, b_scale(self.variance, b_prod(v.alpha for v in vars_)))
        return out


def _entry_pattern(draw: Draw, gens: str, affine: bool) -> Variable:
    """One coefficient per entry on the generator gens[j], plus a
    constant in every entry when ``affine``."""
    zero = Fraction(0)
    coefs = [draw() for _ in range(ORDER)]
    consts = tuple(draw() if affine else zero for _ in range(ORDER))
    alpha = tuple(c if g == "s" else zero for c, g in zip(coefs, gens))
    beta = tuple(c if g == "p" else zero for c, g in zip(coefs, gens))
    return Variable(consts, alpha, beta)


def _over_cap_variable(draw: Draw) -> Variable:
    """Its first entry is a multiple of s*p, so a degree-5 word with four
    Z letters needs a scalar word of length 9, past DEGREE_CAP; the words
    before it in the series are computed first."""
    a, b, c = (draw() for _ in range(3))
    source = (_expr([(a, "s*p")]), _expr([(b, "s")]), _expr([(c, "p")]))
    return Variable(b_zero(), b_zero(), b_zero(), source)


def cumulant_model(rng: random.Random) -> Model:
    draw = Draw(rng)
    variance, rate = draw(False), draw(False)
    return Model(variance, rate, {
        # X and Y mix both families across their entries; A and B each
        # stay inside one family, so every mixed cumulant of A, B is zero
        "X": _entry_pattern(draw, "sps", affine=False),
        "Y": _entry_pattern(draw, "psp", affine=False),
        "A": _entry_pattern(draw, "sss", affine=False),
        "B": _entry_pattern(draw, "ppp", affine=False),
        "Z": _over_cap_variable(draw),
    })


def moment_model(rng: random.Random) -> Model:
    draw = Draw(rng)
    variance, rate = draw(False), draw(False)
    return Model(variance, rate, {
        # a constant in every entry makes each chain product expand into
        # many words of every length up to the degree
        "X": _entry_pattern(draw, "sps", affine=True),
        "Y": _entry_pattern(draw, "psp", affine=True),
        "Z": _over_cap_variable(draw),
    })


# --------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason
# --------------------------------------------------------------------------


def _parse_b(values) -> B:
    return tuple(Fraction(v) for v in values)


def check_series(model: Model, names: tuple[str, ...], degree: int, out: bytes):
    """An R-transform series: exactly the nonzero closed-form cumulants."""
    obj = json.loads(out)
    if (obj["s"], obj["N"], obj["D"]) != (len(names), ORDER, degree):
        return f"series shape {obj['s'], obj['N'], obj['D']}"
    got = {tuple(c["word"]): _parse_b(c["value"]) for c in obj["coefficients"]}
    for word in words(len(names), degree):
        want = model.cumulant(tuple(names[i - 1] for i in word))
        if got.pop(word, b_zero()) != want:
            return f"coefficient at {list(word)} differs from the closed form"
    if got:
        return f"unexpected coefficients at {sorted(got)[:3]}"
    return None


def _check_table(names: tuple[str, ...], degree: int, out: bytes, want: Callable[[tuple], B]):
    """A degree-d table: every word of length d in order, zero rows
    included, each valued as ``want`` says."""
    obj = json.loads(out)
    if (obj["s"], obj["N"], obj["degree"]) != (len(names), ORDER, degree):
        return f"table shape {obj['s'], obj['N'], obj['degree']}"
    expected = [w for w in words(len(names), degree) if len(w) == degree]
    if [tuple(row["word"]) for row in obj["rows"]] != expected:
        return "table rows are not every word of the degree in order"
    for row in obj["rows"]:
        if _parse_b(row["value"]) != want(tuple(row["word"])):
            return f"{obj['query']} at {row['word']} differs from the closed form"
    return None


def check_cumulant_table(model: Model, names: tuple[str, ...], degree: int, out: bytes):
    return _check_table(
        names, degree, out, lambda w: model.cumulant(tuple(names[i - 1] for i in w))
    )


def check_moment_table(model: Model, names: tuple[str, ...], degree: int, out: bytes):
    """Moments from the closed-form cumulants by the first-block recursion."""
    m = moment_from_cumulants(
        lambda w: model.cumulant(tuple(names[i - 1] for i in w))
    )
    return _check_table(names, degree, out, m)


def check_free(out: bytes):
    """Different families are free, so check-free must find no witness."""
    obj = json.loads(out)
    if obj != {"query": "check-free", "free": True, "witness": None}:
        return f"check-free reported {obj}"
    return None


def check_rejected(code: int, out: bytes, err: bytes):
    """Over-cap query: exit 3, empty stdout, and on stderr exactly one
    line, a degree-cap error (so no traceback).

    The message text after the slug is not matched, so a rewording of
    the error keeps this check valid.
    """
    lines = err.decode(errors="replace").splitlines()
    if code != 3 or out or len(lines) != 1:
        return f"expected exit 3 with one error line, got exit {code}, {len(lines)} lines"
    if not lines[0].startswith("error: degree-cap-exceeded:"):
        return f"unexpected error line {lines[0]!r}"
    return None


# --------------------------------------------------------------------------
# the series workload's inputs
# --------------------------------------------------------------------------

SERIES_S = 2
SERIES_DEGREE = 6
#: One past the NC(n) enumeration cap that moments_from_r applies, so the
#: call is refused only after every shorter word has been summed.
OVER_CAP_SERIES_DEGREE = 11


def _series_json(s: int, degree: int, coeffs: dict[tuple, B]) -> dict:
    return {
        "s": s, "N": ORDER, "D": degree,
        "coefficients": [
            {"word": list(w), "value": [str(x) for x in v]}
            for w, v in coeffs.items()
        ],
    }


@dataclass(frozen=True)
class SeriesInputs:
    r: dict[tuple, B]          # dense R-series: every word nonzero
    lam: B                     # g(w) = lam^|w|, a dense geometric series

    def files(self) -> dict:
        g = {w: b_prod([self.lam] * len(w)) for w in self.r}
        over = {(1,): self.lam}
        return {
            "r": _series_json(SERIES_S, SERIES_DEGREE, self.r),
            "g": _series_json(SERIES_S, SERIES_DEGREE, g),
            "over_cap": _series_json(1, OVER_CAP_SERIES_DEGREE, over),
        }

    def check(self, outputs: dict):
        """moments_from_r against the first-block recursion; the round
        trip r_from_moments(moments_from_r(r)) == r; and, since every
        Kreweras complement partitions the n points, r boxtimes g equals
        lam^n times the moment coefficient at every word of length n."""
        def parse(obj):
            return {tuple(c["word"]): _parse_b(c["value"]) for c in obj["coefficients"]}

        m_got = parse(outputs["moments_from_r"])
        r_got = parse(outputs["r_from_moments"])
        b_got = parse(outputs["boxed_convolution"])
        m = moment_from_cumulants(lambda w: self.r[w])
        for word in words(SERIES_S, SERIES_DEGREE):
            want = m(word)
            if m_got.get(word, b_zero()) != want:
                return f"moments_from_r at {list(word)} differs"
            if r_got.get(word, b_zero()) != self.r[word]:
                return f"r_from_moments did not invert moments_from_r at {list(word)}"
            scaled = b_mul(b_prod([self.lam] * len(word)), want)
            if b_got.get(word, b_zero()) != scaled:
                return f"boxed_convolution at {list(word)} differs"
        return None


#: The entries of lam, in an order and with signs the seed chooses.
LAMBDA_ENTRIES = (Fraction(2, 5), Fraction(3, 7), Fraction(5, 9))


def series_inputs(rng: random.Random) -> SeriesInputs:
    """The seed chooses where each coefficient goes and its sign; the
    coefficients themselves are the same multiset for every seed (POOL,
    repeated), because the cost of exact arithmetic grows with the size
    of the numbers and every seed should do the same amount of work."""
    def signed(values):
        return [-v if rng.random() < 0.5 else v for v in values]

    index = list(words(SERIES_S, SERIES_DEGREE))
    values = (POOL * (len(index) * ORDER // len(POOL) + 1))[: len(index) * ORDER]
    rng.shuffle(values)
    values = signed(values)
    r = {w: tuple(values[ORDER * i : ORDER * (i + 1)]) for i, w in enumerate(index)}
    lam = signed(rng.sample(LAMBDA_ENTRIES, ORDER))
    return SeriesInputs(r, tuple(lam))


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path
