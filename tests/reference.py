"""Reference computations that share no code path with the package: the
numbers of a plane model taken straight from its point counts, against which
the atlas grid's running sums and the records are checked."""

from nlatlas.surfaces import H0_QUADRICS_P7


def count_numbers(a: int, counts: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(degree, sectional genus, h0(H), h0(I_S(2))) of S(a; counts) from the
    counts alone; contractions leave every H-derived number unchanged, so
    they hold for the normalized surface too.  H^2 + H.K = a^2 - 3a -
    sum (i^2 - i) n_i is even, so the halves are exact."""
    deg = a * a
    hk = -3 * a
    for i, n in enumerate(counts, start=1):
        deg -= i * i * n
        hk += i * n
    # h0(I(2)) = 36 - chi(O_S(2H)) with chi(O_S) = 1
    return deg, 1 + (deg + hk) // 2, 1 + (deg - hk) // 2, H0_QUADRICS_P7 - 1 - 2 * deg + hk
