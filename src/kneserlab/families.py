"""k-uniform set families over [n], stored as machine-word bit vectors.

Elements are 1-based (1..n); a k-set is an int with bit i-1 set for element i.
The ground set is capped at 64 so every set is one machine word and disjointness
is a single AND.  Families are kept in canonical order (numeric on bit pattern),
so equality of families is equality of representations.  Every family holds
one sorted, read-only uint64 array, on which the member checks, membership,
equality and the subset-count table run; Python ints are made only on demand.
C([n],k) in that order has one producer, slice_masks, which alone guards its
size; the constructors cut their arrays from it.  A valid file in save_family's
shape is parsed in bulk, any fault by lines.  Every module reads its integer
and real arguments, and checks their ranges, through integer and real, which
name the field at fault.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, GuardError

MAX_GROUND_SET = 64

# slice_masks, which every slice-cut constructor reads, refuses larger slices.
ENUMERATION_GUARD = 5_000_000

# The subset-count table refuses families with over this many (member, submask)
# pairs, m * 2^k.  At the cap, 16,384 random 8-sets of [64] have 2.0M distinct
# subsets; the build peaks at ~87 MB traced and keeps 16 B per subset (~33 MB).
# Where 2^n <= m * 2^k a bincount replaces the sort, in no more room than the
# submask list: 16,384 8-sets of [22] peak at 74 MB traced (43 MB sorted).
SUBSET_TABLE_GUARD = 1 << 22
MASK64 = (1 << 64) - 1


def integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value, an int or numpy integer, as an int in lo..hi, or at least lo if
    hi is None (a hi needs a lo); else DomainError naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= value <= hi:
        raise DomainError(f"{name} {value} out of range {lo}..{hi}")
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be at least {lo}, got {value}")
    return value


def real(name: str, value, above: float) -> float:
    """value, a real, as a float that is finite and above `above`; else
    DomainError naming it.  The float is checked, so a real that rounds to
    `above`, or that overflows, is refused."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int or Fraction beyond the doubles
        number = math.inf
    if not above < number < math.inf:
        raise DomainError(f"{name} must be a finite real above {above}, got {value!r}")
    return number


@dataclass(frozen=True)
class GroundParams:
    """Ground-set size n and uniformity k, with 1 <= k <= n <= 64."""

    n: int
    k: int

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if not (1 <= self.k <= self.n):
            raise DomainError(f"need 1 <= k <= n, got n={self.n} k={self.k}")
        if self.n > MAX_GROUND_SET:
            raise DomainError(f"n={self.n} exceeds the bit-vector width cap {MAX_GROUND_SET}")

    @property
    def slice_size(self) -> int:
        """C(n,k): number of k-subsets of [n]."""
        return math.comb(self.n, self.k)

    @property
    def star_size(self) -> int:
        """C(n-1,k-1): size of a full star."""
        return math.comb(self.n - 1, self.k - 1)

    @property
    def kneser_degree(self) -> int:
        """C(n-k,k): number of k-sets disjoint from a fixed k-set."""
        return math.comb(self.n - self.k, self.k)

    @property
    def star_disjoint_degree(self) -> int:
        """C(n-k-1,k-1): sets of a star disjoint from a fixed set avoiding the centre."""
        return math.comb(self.n - self.k - 1, self.k - 1)

    def require_gap(self, op: str) -> None:
        """Raise unless n > 2k (needed by spectral and removal operations)."""
        if self.n <= 2 * self.k:
            raise DomainError(f"{op} requires n > 2k, got n={self.n} k={self.k}")


def mask_from_elements(elements: Sequence[int], n: int) -> int:
    mask = 0
    for e in elements:
        e = integer("element", e, 1, n)
        bit = 1 << (e - 1)
        if mask & bit:
            raise DomainError(f"repeated element {e}")
        mask |= bit
    return mask


def elements_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def slice_masks(n: int, k: int) -> np.ndarray:
    """All k-subset masks of [n] in increasing numeric order, as a fresh uint64
    array: the j-subsets of [m+1] are those of [m], then those of [m] one smaller
    with element m+1 added.  Only the sizes that can still reach k are built,
    largest first, each replaced once the next size up has read it.  A slice
    over ENUMERATION_GUARD sets raises GuardError before anything is made."""
    if math.comb(n, k) > ENUMERATION_GUARD:
        raise GuardError(f"C({n},{k}) is over the enumeration guard {ENUMERATION_GUARD}")
    rows = [np.zeros(1, np.uint64)] + [np.empty(0, np.uint64)] * k  # j = 0..k
    for m in range(n):
        for j in range(min(k, m + 1), max(0, k - n + m), -1):
            rows[j] = np.concatenate((rows[j], rows[j - 1] | np.uint64(1 << m)))
    return rows[k]


def enumerate_masks(n: int, k: int) -> Iterator[int]:
    """slice_masks(n, k) as ints."""
    return iter(slice_masks(n, k).tolist())


class SetFamily:
    """A distinct collection of k-subsets of [n] in canonical (numeric) order.

    Every family holds one form, its members as a sorted, read-only uint64
    array, however it was built; `members`, the tuple of ints, is read from
    it on each use.  Families are immutable, equality and repr are those of
    (params, members), and equal families hash alike.
    """

    def __init__(self, params: GroundParams, members: tuple[int, ...]) -> None:
        """Order, range and size are checked in numpy; the scalar checks name the
        fault from the first bad member on, or from the start if numpy cannot."""
        n, k = params.n, params.k
        full = (1 << n) - 1
        first = 0
        if set(map(type, members)) <= {int}:  # numpy would convert 3.0 or '3'
            try:
                arr = np.array(members, dtype=np.uint64)
            except OverflowError:
                pass
            else:
                bad = (np.bitwise_count(arr) != k) | ((arr & np.uint64(MASK64 ^ full)) != 0)
                bad[1:] |= arr[1:] <= arr[:-1]
                if not bad.any():
                    self._hold(params, arr)
                    return
                first = int(bad.argmax())
        prev = members[first - 1] if first else -1
        for m in members[first:]:
            m = integer("member", m)  # a numpy integer becomes int
            if m <= prev:
                raise DomainError("family members must be strictly increasing bit patterns")
            if m & ~full:
                raise DomainError("member uses elements beyond n")
            if m.bit_count() != k:
                raise DomainError(f"member {elements_from_mask(m)} is not a {k}-set")
            prev = m
        self._hold(params, np.array(members, dtype=np.uint64))

    def _hold(self, params: GroundParams, masks: np.ndarray) -> None:
        """Keep params and masks, made read-only, as the family's one form."""
        masks.flags.writeable = False
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_array", masks)

    @classmethod
    def from_masks(cls, params: GroundParams, masks) -> "SetFamily":
        """The family of the distinct masks, ints or numpy integers, in any order."""
        masks = list(masks)
        try:  # a set of operator.index, in C; integer only to name a fault
            ints = set(map(operator.index, masks))
        except TypeError:
            ints = {integer("mask", m) for m in masks}
        return cls(params, tuple(sorted(ints)))

    @classmethod
    def _from_sorted(cls, params: GroundParams, masks: np.ndarray) -> "SetFamily":
        """The family of masks, a fresh uint64 array of sorted, distinct masks of
        k-subsets of [n], held with no check: its caller vouches for it."""
        family = cls.__new__(cls)
        family._hold(params, masks)
        return family

    def __setattr__(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def members(self) -> tuple[int, ...]:
        """The members as ints, read afresh from the array."""
        return tuple(self._array.tolist())

    def array(self) -> np.ndarray:
        """The members as the family's own sorted, read-only uint64 array."""
        return self._array

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.params == other.params and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self.params, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"SetFamily(params={self.params!r}, members={self.members!r})"

    def __len__(self) -> int:
        return len(self._array)

    def __contains__(self, mask) -> bool:
        """One binary search of the array; a mask outside [0, 2^64), or equal to
        no int, such as a string or None, is no member."""
        try:
            if not 0 <= mask <= MASK64 or mask != (key := int(mask)):
                return False
        except TypeError:  # no order against ints
            return False
        i = self._array.searchsorted(key)
        return i < len(self._array) and self._array[i] == key

    def complement(self) -> "SetFamily":
        """Complement with respect to the full slice C([n],k)."""
        full = slice_masks(self.params.n, self.params.k)
        return SetFamily._from_sorted(
            self.params, np.setdiff1d(full, self._array, assume_unique=True))


# ── constructors ─────────────────────────────────────────────────────────

def star(params: GroundParams, centre: int) -> SetFamily:
    """All k-subsets of [n] containing the fixed element `centre`."""
    centre = integer("centre", centre, 1, params.n)
    masks = _avoiding(params.n, centre, params.k - 1) | np.uint64(1 << (centre - 1))
    return SetFamily._from_sorted(params, masks)  # adding the centre keeps the order


def antistar(params: GroundParams, avoided: int) -> SetFamily:
    """All k-subsets of [n] avoiding the fixed element `avoided`."""
    avoided = integer("avoided", avoided, 1, params.n)
    return SetFamily._from_sorted(params, _avoiding(params.n, avoided, params.k))


def _avoiding(n: int, c: int, size: int) -> np.ndarray:
    """The size-subsets of [n] avoiding c, in numeric order: those of [n-1]
    with every bit from c-1 up moved one place higher, which keeps the order."""
    masks, low = slice_masks(n - 1, size), np.uint64((1 << (c - 1)) - 1)
    return masks & low | (masks & ~low) << np.uint64(1)


def union_of_stars(params: GroundParams, centres: Sequence[int]) -> SetFamily:
    """All k-subsets meeting the centre set: the family G_S for S = centres."""
    smask = mask_from_elements(centres, params.n)
    full = slice_masks(params.n, params.k)
    return SetFamily._from_sorted(params, full[(full & np.uint64(smask)) != 0])


def random_family(params: GroundParams, m: int, seed: int) -> SetFamily:
    """m distinct k-sets sampled without replacement via a seeded shuffle."""
    total = params.slice_size
    m, seed = integer("m", m, 0, total), integer("seed", seed)
    full = slice_masks(params.n, params.k)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))
    order = rng.permutation(total)
    return SetFamily._from_sorted(  # the first m of the shuffle, in slice order
        params, full.take(np.sort(order[:m])))


_SPEC_RE = re.compile(r"^(star|antistar|union|complement-of|random|file):(.*)$")


def build_family(params: GroundParams, spec: str) -> SetFamily:
    """Build a family from a spec string.

    Accepted forms: star:<i> | antistar:<i> | union:<i1,...,is> |
    complement-of:<spec> | random:<m>:<seed> | file:<path>.
    """
    if not isinstance(spec, str):
        raise DomainError(f"family spec must be a string, got {spec!r}")
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise DomainError(f"unrecognised family spec {spec!r}")
    kind, rest = m.group(1), m.group(2)
    if kind == "star":
        return star(params, _parse_int(rest, "star centre"))
    if kind == "antistar":
        return antistar(params, _parse_int(rest, "anti-star element"))
    if kind == "union":
        centres = [_parse_int(tok, "union centre") for tok in rest.split(",") if tok != ""]
        if not centres:
            raise DomainError("union spec needs at least one centre")
        return union_of_stars(params, centres)
    if kind == "complement-of":
        return build_family(params, rest).complement()
    if kind == "random":
        parts = rest.split(":")
        if len(parts) != 2:
            raise DomainError(f"random spec must be random:<m>:<seed>, got {spec!r}")
        return random_family(params, _parse_int(parts[0], "random size"),
                             _parse_int(parts[1], "random seed"))
    if kind == "file":
        if not rest:
            raise DomainError("file spec needs a path")
        fam = load_family(Path(rest))
        if fam.params != params:
            raise DomainError(
                f"file header n={fam.params.n} k={fam.params.k} "
                f"does not match requested n={params.n} k={params.k}")
        return fam
    raise DomainError(f"unrecognised family spec {spec!r}")


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DomainError(f"bad {what}: {tok!r}") from None


# ── file format: header `n=<n> k=<k>`, one comma-separated set per line ──

_HEADER_RE = re.compile(r"^n=(\d+)\s+k=(\d+)$")
_SAVED_HEADER_RE = re.compile(rb"n=(\d+) k=(\d+)\n")  # as save_family writes it


def load_family(path: Path) -> SetFamily:
    """Read a family file; blank lines and lines starting with # are skipped.

    A valid file in save_family's shape (k elements a line) is parsed in bulk,
    its lines and their elements in any order.  Any other file, valid or not,
    goes to a line-by-line parse, which names the first bad line and the first
    fault in it.  A path that cannot be read, or a file that is not UTF-8,
    raises DomainError naming the path.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    hm = _SAVED_HEADER_RE.match(raw)
    if hm:
        params = GroundParams(int(hm.group(1)), int(hm.group(2)))
        masks = _bulk_masks(np.frombuffer(raw, np.uint8)[hm.end() - 1:], params)
        if masks is not None:  # sorted and distinct k-subsets of [n]
            # hold a copy, made now that the parse's scratch arrays are freed, so
            # it can take their place in the heap: the parsed array, made above
            # them while they were live, would keep their pages from being returned
            return SetFamily._from_sorted(params, masks.copy())
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        raise DomainError(f"{path} is not UTF-8 text") from None
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise DomainError(f"no header line in {path}")
    hm = _HEADER_RE.match(lines[0])
    if not hm:
        raise DomainError(f"first data line must be 'n=<n> k=<k>', got {lines[0]!r}")
    params = GroundParams(int(hm.group(1)), int(hm.group(2)))
    return SetFamily.from_masks(params, _line_masks(lines[1:], params.n, path))


def _bulk_masks(text: np.ndarray, params: GroundParams) -> np.ndarray | None:
    """The sorted sets of text, a newline then lines in any order, or None unless
    every line lists k distinct elements of 1..n, in any order, as 1- or 2-digit
    decimals joined by commas and ends in a newline, and no set repeats."""
    n, k = params.n, params.k
    # narrow dtypes: int64 arrays here add megabytes to the peak RSS of
    # `removal` on a large file: family
    digits = text - np.uint8(ord("0"))  # every other character wraps past 9
    seps = np.flatnonzero(digits > 9).astype(np.int32)
    lines, extra = divmod(len(seps) - 1, k)
    # every k-th separator ends a line, the last ends the text, the rest are commas
    if (extra or seps[-1] != len(text) - 1 or (text.take(seps[::k]) != ord("\n")).any()
            or np.count_nonzero(text == ord(",")) != lines * (k - 1)):
        return None
    gaps = np.diff(seps)  # token lengths plus one
    if ((gaps < 2) | (gaps > 3)).any():
        return None
    ends = seps[1:]
    # a one-digit token's tens place reads its separator, times zero
    index = digits.take(ends - 1) + 10 * digits.take(ends - 2) * (gaps == 3)
    index -= np.uint8(1)  # element - 1, where an element of 0 wraps to 255
    if (index >= n).any():
        return None
    bits = index.astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    masks = functools.reduce(operator.or_, bits.reshape(lines, k).T)  # a line's k bits, ORed
    if (np.bitwise_count(masks) != k).any():
        return None  # a repeated element
    if not (masks[1:] > masks[:-1]).all():  # save_family writes them increasing
        masks.sort()
        if (masks[1:] == masks[:-1]).any():
            return None  # a repeated set
    return masks


def _line_masks(lines: list[str], n: int, path: Path) -> list[int]:
    """The set of each line, parsed line by line; raises at the first bad one."""
    masks: list[int] = []
    seen: set[int] = set()
    for line in lines:
        elements = [_parse_int(tok.strip(), "element") for tok in line.split(",")]
        mask = mask_from_elements(elements, n)
        if mask in seen:
            raise DomainError(f"duplicate set {tuple(sorted(elements))} in {path}")
        seen.add(mask)
        masks.append(mask)
    return masks


def save_family(family: SetFamily, path: Path) -> None:
    lines = [f"n={family.params.n} k={family.params.k}"]
    lines += [",".join(map(str, elements_from_mask(m))) for m in family.members]
    Path(path).write_text("\n".join(lines) + "\n")


# ── combinatorial statistics ─────────────────────────────────────────────

class _RecentFamily:
    """What has been computed from the most recent family: per memoised
    function, its other arguments and its value.

    A call with the memo's family object is a hit by identity.  A call with
    another object compares the two families once, by one array comparison:
    if they are equal the memo is re-keyed to the new object, so that later
    calls hit by identity, and otherwise it is emptied for the new family.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.family: SetFamily | None = None
        self.values: dict = {}

    def get(self, fn, family: SetFamily, args: tuple):
        if family is not self.family:
            if self.family is None or family != self.family:
                self.values = {}
            self.family = family
        hit = self.values.get(fn)
        if hit is None or hit[0] != args:
            # through __wrapped__, which a test may replace to count the calls
            hit = self.values[fn] = args, fn.__wrapped__(family, *args)
        return hit[1]


_RECENT = _RecentFamily()


def recent_family_memo(compute):
    """Memoise compute(family, *args) for the most recent family and, per
    function, the most recent args.  Every memoised function shares the one
    family key, so a new family object is compared with the last one once."""
    @functools.wraps(compute)
    def memoised(family: SetFamily, *args):
        return _RECENT.get(memoised, family, args)

    memoised.cache_clear = _RECENT.clear  # forgets the family and every value
    return memoised


@recent_family_memo
def _subset_table(family: SetFamily) -> tuple[np.ndarray, np.ndarray, int, tuple[int, ...]]:
    """(sorted subset keys, counts, dp, degree profile) of the family."""
    m, k = len(family), family.params.k
    if m << k > SUBSET_TABLE_GUARD:
        raise GuardError(
            f"subset-count table needs {m} * 2^{k} entries, over the guard "
            f"{SUBSET_TABLE_GUARD}")
    keys, counts = _count_submasks(family.array(), k, family.params.n)
    # sum_S (-1)^|S| c_S^2 < m^2 2^k <= 2^44 ordered pairs, by int64 dot products
    ordered = int(counts @ counts) - 2 * int(counts * counts @ (np.bitwise_count(keys) & 1))
    singletons = np.uint64(1) << np.arange(family.params.n, dtype=np.uint64)
    at = np.searchsorted(keys, singletons)  # in range: the sentinel is above 2^63
    degrees = np.where(keys[at] == singletons, counts[at], 0)
    return keys, counts, ordered // 2, tuple(degrees.tolist())


def _count_submasks(masks: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct submask of one of the uint64 masks, which it only reads,
    in increasing order, then a 64-element sentinel, which no member of a
    guarded family has; and the number of masks containing each, 0 for the
    sentinel; counted by one bincount over [0, 2^n) if that is no longer than
    the submask list, else by a sort."""
    m = len(masks)
    subs = np.empty((m << k) + 1, dtype=np.uint64)
    subs[-1] = MASK64
    table = subs[:-1].reshape(1 << k, m)
    table[0] = 0
    rest = masks
    for j in range(k - 1):  # double the submasks of each member, one element at a time
        low = rest & -rest  # the lowest element left, by two's complement
        rest = rest ^ low  # not in place: masks is a family's own, read-only
        np.bitwise_or(table[:1 << j], low, out=table[1 << j:2 << j])
    np.bitwise_or(table[:1 << k - 1], rest, out=table[1 << k - 1:])  # the one element left
    if 1 << n <= m << k:  # every submask is below 2^n <= 2^22: an int64 view
        dense = np.bincount(subs[:-1].view(np.int64), minlength=(1 << n) + 1)
        dense[-1] = 1  # slot 2^n, past every submask, holds the sentinel
        keys = np.flatnonzero(dense)
        counts = dense[keys]
        keys[-1], counts[-1] = -1, 0  # -1 is the sentinel 2^64 - 1 as int64
        return keys.view(np.uint64), counts
    subs.sort()  # in place: np.unique would sort a copy
    fresh = np.ones(len(subs), dtype=bool)  # where each distinct submask starts
    np.not_equal(subs[1:], subs[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = 0
    return subs[starts], counts


def subset_counts(family: SetFamily, subsets: np.ndarray) -> np.ndarray:
    """c_S = #{A in F : S subset of A} for each uint64 mask S in subsets, found by
    binary search in the family's sorted table of every subset of a member (0
    for subsets of no member).  Every statistic of the family is read from this
    one table, which is memoised for the most recent family only."""
    keys, counts, _, _ = _subset_table(family)
    at = np.searchsorted(keys, subsets)
    return np.where(keys[at] == subsets, counts[at], 0)


def disjoint_pairs(family: SetFamily) -> int:
    """dp(F): unordered pairs {A,B} with A AND B == 0.

    By inclusion-exclusion, sum_S (-1)^|S| c_S^2 counts ordered disjoint
    pairs; it is summed in int64, which is exact under the table guard, once
    per table build.
    """
    return _subset_table(family)[2]


def sym_diff_size(f: SetFamily, g: SetFamily) -> int:
    """|F Δ G| for families over the same ground parameters."""
    if f.params != g.params:
        raise DomainError("symmetric difference needs matching (n,k)")
    return len(np.setxor1d(f.array(), g.array(), assume_unique=True))


def degree_profile(family: SetFamily) -> tuple[int, ...]:
    """d_i = number of members containing element i, for i = 1..n."""
    return _subset_table(family)[3]


def _alpha_beta(params: GroundParams, ell: int, size: int, dp: int) -> tuple[int, ...]:
    """(a, b, star, cross): alpha = a / star and beta = b / (star cross) for a
    family of size members with dp disjoint pairs at l, where star = C(n-1,k-1)
    and cross = C(n-k-1,k-1)."""
    star, cross = params.star_size, params.star_disjoint_degree
    return ell * star - size, dp - math.comb(ell, 2) * star * cross, star, cross


def excess_ratio(params: GroundParams, ell: int, size: int, dp: int) -> tuple[int, int]:
    """((2l-1) alpha + 2 beta) k/(n-2k), the excess of a family of size members
    with dp disjoint pairs at l, as (numerator, positive denominator) over
    C(n-1,k-1) C(n-k-1,k-1) (n-2k): the one definition of the excess."""
    ell = integer("ell", ell, 1)
    a, b, star, cross = _alpha_beta(params, ell, size, dp)
    return ((2 * ell - 1) * a * cross + 2 * b) * params.k, star * cross * (params.n - 2 * params.k)


@dataclass(frozen=True)
class FamilyStats:
    """The (alpha, beta) parametrisation of a family relative to l full stars.

    size = (l - alpha) * C(n-1,k-1) and
    dp   = (C(l,2) + beta) * C(n-1,k-1) * C(n-k-1,k-1), both exactly.
    """

    params: GroundParams
    ell: int
    size: int
    dp: int
    alpha: Fraction
    beta: Fraction

    @property
    def excess(self) -> Fraction:
        """((2l-1) alpha + 2 beta) k/(n-2k), as excess_ratio defines it: the bound
        on the residual norm ||f2||^2, and the removal bound over C * C(n,k)."""
        return Fraction(*excess_ratio(self.params, self.ell, self.size, self.dp))

    @property
    def precondition_limit(self) -> tuple[int, int]:
        """The largest C^2 with max(2l|alpha|, |beta|) <= (n-2k) / ((20C)^2 n), as
        (numerator, denominator); the denominator is 0 when both vanish, and
        every C meets the preconditions."""
        n, k = self.params.n, self.params.k
        a, b, star, cross = _alpha_beta(self.params, self.ell, self.size, self.dp)
        worst = max(2 * self.ell * abs(a) * cross, abs(b))  # over star * cross
        return (n - 2 * k) * star * cross, 400 * n * worst

    def removal_precondition_met(self, c_const: float) -> bool:
        """max(2l|alpha|, |beta|) <= (n-2k) / ((20C)^2 n), exactly in integers."""
        num, den = self.precondition_limit
        p, q = c_const.as_integer_ratio()  # Fraction(c_const), exactly
        return p * p * den <= num * q * q

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "k": self.params.k,
            "ell": self.ell,
            "size": self.size,
            "dp": self.dp,
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "alpha_exact": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "beta_exact": f"{self.beta.numerator}/{self.beta.denominator}",
        }


def family_stats(family: SetFamily, ell: int) -> FamilyStats:
    """Exact alpha and beta for a family at a given l (requires n > 2k)."""
    ell = integer("ell", ell, 1)
    params = family.params
    params.require_gap("family_stats")
    size = len(family)
    dp = disjoint_pairs(family)
    a, b, star, cross = _alpha_beta(params, ell, size, dp)
    return FamilyStats(params, ell, size, dp, Fraction(a, star), Fraction(b, star * cross))
