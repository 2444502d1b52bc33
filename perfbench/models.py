"""Reference models of every benchmark input, written from their sources.

Each model recomputes what the input program returns and prints, in plain
Python, without using any part of the translator.  The kernels replay their
in-program LCGs; the ELF fixtures follow their C sources in
``examples/elf``.  A translated program is correct when its Arm run matches
the model (and the x86 run of the original binary).

Mini-C semantics the models rely on: ``int`` is 64-bit, ``char`` is
unsigned, ``print_i`` emits ``str(v)`` and ``print_f`` emits ``%.6f``.
"""

from __future__ import annotations

from typing import NamedTuple

MASK30 = 1073741823  # the kernels return ``checksum & 1073741823``


class Expected(NamedTuple):
    """A program's return value and output stream.

    Mini-C programs emit one string per ``print_*`` call; ELF programs
    write libc stdout, compared as one joined text."""

    result: int
    output: tuple[str, ...]


def _lcg(seed: int):
    while True:
        seed = (seed * 1103515245 + 12345) & 2147483647
        yield seed


def histogram(N: int) -> Expected:
    rnd = _lcg(1)
    img = [next(rnd) % 256 for _ in range(N)]
    hist = [0] * 1024
    chunk = N // 4
    for t in range(4):
        for i in range(chunk):
            hist[t * 256 + img[t * chunk + i]] += 1
    checksum = sum(v * (hist[v] + hist[256 + v] + hist[512 + v] + hist[768 + v])
                   for v in range(256))
    return Expected(checksum & MASK30, (str(checksum),))


def kmeans(N: int) -> Expected:
    rnd = _lcg(7)
    px, py = [], []
    for _ in range(N):
        px.append(float(next(rnd) % 1000) / 10.0)
        py.append(float(next(rnd) % 1000) / 10.0)
    cx = [float(25 * c) for c in range(4)]
    cy = [float(100 - 25 * c) for c in range(4)]
    assign = [0] * N
    sumx, sumy, cnt = [0.0] * 16, [0.0] * 16, [0] * 16

    def dist2(x1, y1, x2, y2):
        dx = x1 - x2
        dy = y1 - y2
        return dx * dx + dy * dy

    def nearest(x, y):
        best, bestd = 0, dist2(x, y, cx[0], cy[0])
        for c in range(1, 4):
            d = dist2(x, y, cx[c], cy[c])
            if d < bestd:
                best, bestd = c, d
        return best

    chunk = N // 4
    for _ in range(3):
        for t in range(4):
            for i in range(t * chunk, t * chunk + chunk):
                c = nearest(px[i], py[i])
                assign[i] = c
                sumx[t * 4 + c] = sumx[t * 4 + c] + px[i]
                sumy[t * 4 + c] = sumy[t * 4 + c] + py[i]
                cnt[t * 4 + c] += 1
        for c in range(4):
            sx, sy, n = 0.0, 0.0, 0
            for t in range(4):
                sx = sx + sumx[t * 4 + c]
                sy = sy + sumy[t * 4 + c]
                n += cnt[t * 4 + c]
                sumx[t * 4 + c], sumy[t * 4 + c], cnt[t * 4 + c] = 0.0, 0.0, 0
            if n > 0:
                cx[c] = sx / float(n)
                cy[c] = sy / float(n)
    checksum = sum(int(cx[c] * 100.0) + int(cy[c] * 100.0) for c in range(4))
    checksum += sum(assign)
    return Expected(checksum & MASK30, (str(checksum),))


def linear_regression(N: int) -> Expected:
    rnd = _lcg(3)
    xs, ys = [], []
    for _ in range(N):
        x = next(rnd) % 100
        xs.append(x)
        ys.append(3 * x + 7 + next(rnd) % 5)
    chunk = N // 4
    used = range(4 * chunk)
    sx = sum(xs[i] for i in used)
    sy = sum(ys[i] for i in used)
    sxx = sum(xs[i] * xs[i] for i in used)
    sxy = sum(xs[i] * ys[i] for i in used)
    n = float(N)
    slope = ((float(sxy) * n - float(sx) * float(sy))
             / (float(sxx) * n - float(sx) * float(sx)))
    intercept = (float(sy) - slope * float(sx)) / n
    checksum = int(slope * 1000.0) + int(intercept * 1000.0) + sxy
    return Expected(checksum & MASK30,
                    (f"{slope:.6f}", f"{intercept:.6f}", str(checksum)))


def matrix_multiply(DIM: int, NELEM: int) -> Expected:
    rnd = _lcg(11)
    ma, mb = [], []
    for _ in range(NELEM):
        ma.append(next(rnd) % 10)
        mb.append(next(rnd) % 10)
    mc = [0] * NELEM
    rows = DIM // 4
    for i in range(4 * rows):
        for j in range(DIM):
            mc[i * DIM + j] = sum(ma[i * DIM + k] * mb[k * DIM + j]
                                  for k in range(DIM))
    checksum = sum(mc[i] * (i & 15) for i in range(NELEM))
    return Expected(checksum & MASK30, (str(checksum),))


def string_match(N: int) -> Expected:
    rnd = _lcg(17)
    text = []
    for _ in range(N):
        if next(rnd) % 8 < 6:
            text.append(chr(97 + next(rnd) % 6))
        else:
            text.append(" ")
    hay = "".join(text)
    found = [sum(1 for i in range(N - 4) if hay[i:i + 3] == key)
             for key in ("abc", "fad", "cab", "dec")]
    checksum = sum((k + 1) * f for k, f in enumerate(found))
    return Expected(checksum & MASK30,
                    tuple(str(f) for f in found) + (str(checksum),))


def demo() -> Expected:
    g = 0
    for t in (1, 2):            # two workers: atomic_add(&g, t + 1)
        g += t + 1
    local = 3 + 4               # bump(&local, 3); bump(&local, 4)
    h = g
    g = h + 1
    return Expected(g + local - 7, ())


def locked() -> Expected:
    x, y = 1, 2                 # writer(1) under the mutex; reader only reads
    return Expected(x + y - 3, ())


def elf_memgrid() -> Expected:
    grid = [i * 3 + 1 for i in range(32)]
    cells = list(grid)
    grid[:16] = [0] * 16
    total = sum(cells) + sum(grid)
    return Expected(total & 127, (f"{total}\n",))


def elf_strings() -> Expected:
    buf = "hello world"
    n = len(buf)
    out = "match\n" + buf + "\n" + f"{n}\n"
    return Expected(n, (out,))


def elf_sum() -> Expected:
    acc, total = 7, 0
    for i in range(1, 11):
        total = (total * i + acc) - acc + i
    first = total & 0x7F
    return Expected(total & 63, (f"{total + first}\n",))
