"""Group elements and word combinatorics for the free group F2 and Z^2.

Elements are plain Python values rather than wrapper objects:

* ``f2``: a reduced word over the alphabet ``a, b, A, B`` where ``A = a^-1``
  and ``B = b^-1``.  The identity is the empty string ``""``.
* ``z2``: a pair ``(i, j)`` of ints, with the generators ``a = (1, 0)`` and
  ``b = (0, 1)`` written multiplicatively.

Every function takes the group name explicitly so callers cannot mix the two
by accident.  Elements are checked once, where they enter: parse_element
and ball build them for a checked group, and the package's constructors and
entry points call check_element, which raises :class:`GroupMismatch` for an
element of the other group; the helpers here trust their callers.
"""

from itertools import islice

F2 = "f2"
Z2 = "z2"

GROUPS = (F2, Z2)

LETTERS = "abAB"
_INVERSE = {"a": "A", "b": "B", "A": "a", "B": "b"}
# lexicographic order used everywhere: a < b < A < B
_LETTER_RANK = {c: i for i, c in enumerate(LETTERS)}

# the most elements a ball or a convolution window may hold
MAX_ELEMENTS = 2_000_000


class GroupMismatch(TypeError):
    """An element of one group was passed where the other was expected."""


def check_group(group):
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}; expected one of {GROUPS}")
    return group


def identity(group):
    return "" if group == F2 else (0, 0)


def generators(group):
    """The two positive generators (a, b) of the group."""
    if group == F2:
        return ("a", "b")
    return ((1, 0), (0, 1))


def check_element(group, el):
    check_group(group)
    if group == F2:
        if not isinstance(el, str):
            raise GroupMismatch(f"f2 element must be str, got {type(el).__name__}")
        return el
    if not (isinstance(el, tuple) and len(el) == 2):
        raise GroupMismatch(f"z2 element must be an (i, j) tuple, got {el!r}")
    return el


def reduce_word(word):
    """Freely reduce a word over a, b, A, B."""
    out = []
    for c in word:
        if c not in _INVERSE:
            raise ValueError(f"invalid letter {c!r} in word {word!r}")
        if out and out[-1] == _INVERSE[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def multiply(group, g, h):
    if group == Z2:
        return (g[0] + h[0], g[1] + h[1])
    return f2_multiply(g, h)


def f2_multiply(g, h):
    """Product of two reduced f2 words."""
    # only the seam between the two reduced words can cancel
    i = len(g)
    j = 0
    while i > 0 and j < len(h) and _INVERSE[g[i - 1]] == h[j]:
        i -= 1
        j += 1
    return g[:i] + h[j:]


def inverse(group, g):
    if group == Z2:
        return (-g[0], -g[1])
    return "".join(_INVERSE[c] for c in reversed(g))


def word_length(group, g):
    if group == Z2:
        return abs(g[0]) + abs(g[1])
    return len(g)


def height(group, g):
    """Image of g under the homomorphism sending both a and b to 1."""
    if group == Z2:
        return g[0] + g[1]
    return len(g) - 2 * (g.count("A") + g.count("B"))


def sort_key(group, g):
    """Total order: word length first, then a fixed tie-break.

    For f2 the tie-break is letterwise with a < b < A < B; for z2 it is the
    plain tuple order on (i, j).
    """
    if group == Z2:
        return (abs(g[0]) + abs(g[1]), g[0], g[1])
    return (len(g), tuple(_LETTER_RANK[c] for c in g))


def _check_size(what, size):
    """Refuse a set of more than MAX_ELEMENTS elements before building it."""
    if size > MAX_ELEMENTS:
        raise WindowTooLarge(f"{what} has {size} elements (limit {MAX_ELEMENTS})")


def ball(group, radius):
    """All elements with word length <= radius, sorted by sort_key.

    |B_n| = 2 * 3^n - 1 for f2 and 2n^2 + 2n + 1 for z2, so the guard on
    MAX_ELEMENTS keeps an oversized radius from exhausting memory.
    """
    check_group(group)
    if radius < 0:
        return []
    if group == F2:
        size = 2 * 3**radius - 1
    else:
        size = 2 * radius * radius + 2 * radius + 1
    _check_size(f"ball of radius {radius} in {group}", size)
    if group == Z2:
        out = [
            (i, j)
            for i in range(-radius, radius + 1)
            for j in range(-radius + abs(i), radius - abs(i) + 1)
        ]
        out.sort(key=lambda el: sort_key(Z2, el))
        return out
    out = [""]
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for c in LETTERS:
                if w and _INVERSE[w[-1]] == c:
                    continue
                nxt.append(w + c)
        frontier = nxt
        out.extend(frontier)
    return out


def sphere(group, radius):
    """Elements of word length exactly radius."""
    return [g for g in ball(group, radius) if word_length(group, g) == radius]


_Z2_STEP = {"a": (1, 0), "b": (0, 1), "A": (-1, 0), "B": (0, -1)}


def steps(group, letters):
    """u -> (u x, u y) for the letter pair letters, "ab" or "AB": the one
    site step of every walk along the generators."""
    if group == F2:
        x, y = letters
        xi, yi = letters.swapcase()
        return lambda u: (u[:-1] if u[-1:] == xi else u + x,
                          u[:-1] if u[-1:] == yi else u + y)
    sign = 1 if letters == "ab" else -1
    return lambda u: ((u[0] + sign, u[1]), (u[0], u[1] + sign))


def cone_levels(group, root, letters="ab"):
    """Lazy walk of the monoid cone root*{x, y}*, one level per step.

    letters is the generator pair "ab" (the default, the forward cone
    root*P) or "AB" (the backward cone root*N).  Each level is a dict
    {site: number of words reaching it} in bit order: the children of the
    site at position p are at 2p (first letter) and 2p+1 (second letter).
    Free-group words give distinct sites, so level l holds 2^l sites of
    count 1.  z2 words with equal letter counts meet, so level l holds l+1
    sites counted binomial(l, k), each kept at its first position.
    """
    step = steps(group, letters)
    level = {root: 1}
    while True:
        yield level
        nxt = {}
        for s, n in level.items():
            for t in step(s):
                nxt[t] = nxt.get(t, 0) + n
        level = nxt


def cone_size(group, depth):
    """Number of sites of a monoid cone to the given depth."""
    if group == F2:
        return 2 ** (depth + 1) - 1
    return (depth + 1) * (depth + 2) // 2


def cone_sites(group, root, depth, letters="ab"):
    """Sites of the monoid cone root*{x, y}* up to the given depth,
    deduplicated, in cone_levels order (level by level, x before y); an
    oversized cone is refused before it is walked."""
    _check_size(f"cone of depth {depth} in {group}", cone_size(group, depth))
    levels = islice(cone_levels(group, root, letters), max(depth + 1, 0))
    return [s for level in levels for s in level]


def negative_monoid(group, radius):
    """Words over the inverse generators only, up to the given length.

    For f2 these are the words over A and B; for z2 the pairs with both
    coordinates <= 0.  Sorted by sort_key.
    """
    sites = cone_sites(group, identity(group), radius, "AB")
    return sorted(sites, key=lambda el: sort_key(group, el))


def format_element(group, g):
    """Serialized form: the reduced word itself (empty string = identity)
    for f2, "(i,j)" for z2."""
    if group == Z2:
        return f"({g[0]},{g[1]})"
    return g


def parse_element(group, text):
    check_group(group)
    text = text.strip()
    if group == Z2:
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"cannot parse z2 element from {text!r}")
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot parse z2 element from {text!r}")
        return (int(parts[0]), int(parts[1]))
    word = reduce_word(text)
    if word != text:
        raise ValueError(f"word {text!r} is not reduced")
    return word


class WindowTooLarge(ValueError):
    """A requested ball or window exceeds the configured element budget."""

