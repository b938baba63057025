/* Compiled twin of quiddity._kernel: same contract, same search, same output.

   The search, the solve of its last two free positions and the canonical
   test of each completed cycle are derived once, in quiddity/_kernel.py,
   whose _Search class mirrors the `search` struct below, with methods
   named after its functions; the ring encoding and its formulas are
   stated in quiddity/rings.py, and mul, norm and divide below compute
   exactly those.  The last free position is solved from the factor pairs
   of x = 1 + p11 in the ball, walked on every call (the pure kernel
   memoises them and indexes them by residue).  The one before it, when
   norm(p11) exceeds the limit, takes the candidates among the lattice
   points of an ellipse, walked row by row as quiddity.rings._disc_rows
   walks them; the ball is the same walk with centre 0.  An entry ranks by
   its position among the candidates, read from a table over the box
   |a|, |b| <= isqrt(2 limit), which holds the ball since a^2 + b^2 <=
   2 norm; the table is filled once per task, as the pure kernel fills its
   rank dict, and refuses the inputs outside the contract.  A rank is the
   one test an entry needs, as a candidate is nonzero and inside the ball.
   At the tail a forced entry that is no candidate, or a rotation or
   reflection of the ranks that compares smaller, rejects the cycle before
   its window check.

   Ring elements are pairs of int64.  Every int64 product, sum, difference
   and negation is checked, and the integer square root is exact integer
   code.  The ellipse's bound 4 limit^2 norm(p11) and the squared term of
   each of its rows are 128-bit: with limit <= 17^2 and norm(p11) < 2^63
   they stay below 2^82, and their square roots below 2^41.  An overflow
   raises OverflowError instead of returning a wrong list, and the caller
   reruns that input on the pure kernel, whose integers do not overflow.
   The candidates live in a heap array sized from the input. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_DEPTH 16
#define MAXM (MAX_DEPTH + 3)

/* The ellipse's bound and squared terms; gcc and clang have 128-bit
   integers on 64-bit targets. */
__extension__ typedef __int128 wide;
__extension__ typedef unsigned __int128 uwide;

typedef struct {
    int64_t a, b;
} elem;

static const elem zero = {0, 0}, one = {1, 0};

/* The running product (p11, p12 / p21, p22) of the eta-matrices so far. */
typedef struct {
    elem p11, p12, p21, p22;
} mat;

/* A ball element, its norm, and where the next smaller norm starts. */
typedef struct {
    elem u;
    int64_t norm;
    Py_ssize_t next;
} ball_elem;

typedef struct {
    int t, m, free, npre, real;
    Py_ssize_t ncand;
    int64_t limit, box;      /* box = isqrt(2 limit) */
    const elem *pre, *cand;  /* the prefix entries and the candidates */
    elem e[MAXM];            /* the cycle being built */
    Py_ssize_t key[MAXM];    /* the rank of each entry of e */
    PyObject *results;
    Py_ssize_t *rank;        /* the rank of each element of the box, or -1 */
    /* The solve of the last two free positions. */
    Py_ssize_t nball;
    ball_elem *ball;         /* by norm, largest first */
    Py_ssize_t *hits;        /* positions of the solved candidates, last position */
    Py_ssize_t *near;        /* and at the one before it */
} search;

/* Arithmetic: 0 on success, -1 with OverflowError set. */

static int
overflow(void)
{
    PyErr_SetString(PyExc_OverflowError, "int64 overflow in the compiled search kernel");
    return -1;
}

static int
add(elem x, elem y, elem *r)
{
    if (__builtin_add_overflow(x.a, y.a, &r->a) || __builtin_add_overflow(x.b, y.b, &r->b))
        return overflow();
    return 0;
}

static int
sub(elem x, elem y, elem *r)
{
    if (__builtin_sub_overflow(x.a, y.a, &r->a) || __builtin_sub_overflow(x.b, y.b, &r->b))
        return overflow();
    return 0;
}

/* x * y = (x.a y.a - x.b y.b) + (x.a y.b + x.b y.a + t x.b y.b) omega. */
static int
mul(int t, elem x, elem y, elem *r)
{
    int64_t aa, bb, ab, ba, tbb;
    if (__builtin_mul_overflow(x.a, y.a, &aa) || __builtin_mul_overflow(x.b, y.b, &bb)
        || __builtin_mul_overflow(x.a, y.b, &ab) || __builtin_mul_overflow(x.b, y.a, &ba)
        || __builtin_mul_overflow(bb, t, &tbb)
        || __builtin_sub_overflow(aa, bb, &r->a) || __builtin_add_overflow(ab, ba, &r->b)
        || __builtin_add_overflow(r->b, tbb, &r->b))
        return overflow();
    return 0;
}

/* norm(x) = x.a^2 + t x.a x.b + x.b^2, which is never negative; -1 on error. */
static int64_t
norm(int t, elem x)
{
    int64_t aa, bb, ab, n;
    if (__builtin_mul_overflow(x.a, x.a, &aa) || __builtin_mul_overflow(x.b, x.b, &bb)
        || __builtin_mul_overflow(x.a, x.b, &ab) || __builtin_mul_overflow(ab, t, &ab)
        || __builtin_add_overflow(aa, bb, &n) || __builtin_add_overflow(n, ab, &n))
        return overflow();
    return n;
}

/* conj(y) = (y.a + t y.b) - y.b omega. */
static int
conjugate(int t, elem y, elem *r)
{
    int64_t tb;
    if (__builtin_mul_overflow(y.b, t, &tb) || __builtin_add_overflow(y.a, tb, &r->a)
        || __builtin_sub_overflow((int64_t)0, y.b, &r->b))
        return overflow();
    return 0;
}

/* Exact quotient x / y = x * conj(y) / norm(y): 1 and *r set, 0 if y does
   not divide x, -1 on error. */
static int
divide(int t, elem x, elem y, elem *r)
{
    elem conj, num;
    int64_t n = norm(t, y);
    if (n < 0)
        return -1;
    if (n == 0)
        return 0;
    if (conjugate(t, y, &conj) < 0 || mul(t, x, conj, &num) < 0)
        return -1;
    if (num.a % n != 0 || num.b % n != 0)
        return 0;
    r->a = num.a / n;
    r->b = num.b / n;
    return 1;
}

static int
is_zero(elem x)
{
    return x.a == 0 && x.b == 0;
}

/* 1 if x * y == 1, 0 if not, -1 on error. */
static int
product_is_one(int t, elem x, elem y)
{
    elem p;
    if (mul(t, x, y, &p) < 0)
        return -1;
    return p.a == 1 && p.b == 0;
}

/* Every cyclic continuant over 1..m-3 consecutive entries is nonzero:
   1 if so, 0 if not, -1 on error. */
static int
windows_nonzero(const search *s)
{
    int start, step, m = s->m;
    for (start = 0; start < m; start++) {
        elem k = s->e[start], prev = one, next;
        if (is_zero(k))
            return 0;
        for (step = 1; step < m - 3; step++) {
            if (mul(s->t, k, s->e[(start + step) % m], &next) < 0 || sub(next, prev, &next) < 0)
                return -1;
            prev = k;
            k = next;
            if (is_zero(k))
                return 0;
        }
    }
    return 1;
}

/* floor(sqrt(n)) for 0 <= n < 2^126, digit by digit in integers. */
static int64_t
isqrt_wide(wide n)
{
    uwide x = (uwide)n, r = 0, bit = (uwide)1 << 124;
    while (bit > x)
        bit >>= 2;
    for (; bit != 0; bit >>= 2) {
        if (x >= r + bit) {
            x -= r + bit;
            r = (r >> 1) + bit;
        } else {
            r >>= 1;
        }
    }
    return (int64_t)r;
}

/* floor(n / d) and ceil(n / d) for d > 0; C division truncates. */
static int64_t
floor_div(int64_t n, int64_t d)
{
    return n / d - (n % d != 0 && n < 0);
}

static int64_t
ceil_div(int64_t n, int64_t d)
{
    return n / d + (n % d != 0 && n > 0);
}

/* The rows of the pairs c = x + y omega with norm(d c - w) <= bound, for
   d >= 1, as quiddity.rings._disc_rows: y runs from first to last, and
   row y needs (4 - t^2) B^2 <= 4 bound with B = d y - w.b, so |B| <= top
   = isqrt(4 bound / (4 - t^2)); then 2d x lies within 2 w.a - t B +- r
   with r = isqrt(4 bound - (4 - t^2) B^2).  With `real` only row 0. */
typedef struct {
    int t;
    elem w;
    int64_t d, first, last;
    wide four;
} disc;

/* 0 on success, -1 on error; 0 <= bound < 2^124. */
static int
disc_init(disc *r, int t, elem w, int64_t d, wide bound, int real)
{
    int64_t top;
    *r = (disc){.t = t, .w = w, .d = d, .first = 1, .last = 0, .four = 4 * bound};
    top = isqrt_wide(r->four / (4 - t * t));
    if (__builtin_sub_overflow(w.b, top, &r->first) || __builtin_add_overflow(w.b, top, &r->last)
        || r->last == INT64_MAX)  /* so that y can step past last */
        return overflow();
    r->first = ceil_div(r->first, d);
    r->last = floor_div(r->last, d);
    if (real) {
        r->first = r->first < 0 ? 0 : r->first;
        r->last = r->last > 0 ? 0 : r->last;
    }
    return 0;
}

/* Row y: x from *lo to *hi, none when *lo > *hi.  0 on success, -1 on
   error. */
static int
disc_row(const disc *r, int64_t y, int64_t *lo, int64_t *hi)
{
    int64_t b, root, mid, tb, twice_d;
    wide sq;
    if (__builtin_mul_overflow(r->d, y, &b) || __builtin_sub_overflow(b, r->w.b, &b)
        || __builtin_mul_overflow(b, r->t, &tb) || __builtin_mul_overflow(r->w.a, 2, &mid)
        || __builtin_sub_overflow(mid, tb, &mid) || __builtin_mul_overflow(r->d, 2, &twice_d))
        return overflow();
    sq = (wide)b * b * (4 - r->t * r->t);
    root = isqrt_wide(r->four - sq);  /* |b| <= top, so sq <= four */
    if (__builtin_sub_overflow(mid, root, lo) || __builtin_add_overflow(mid, root, hi))
        return overflow();
    *lo = ceil_div(*lo, twice_d);
    *hi = floor_div(*hi, twice_d);
    return 0;
}

static int
by_norm_descending(const void *x, const void *y)
{
    int64_t p = ((const ball_elem *)x)->norm, q = ((const ball_elem *)y)->norm;
    return (p < q) - (p > q);
}

static int
by_position(const void *x, const void *y)
{
    Py_ssize_t p = *(const Py_ssize_t *)x, q = *(const Py_ssize_t *)y;
    return (p > q) - (p < q);
}

/* The nonzero elements of norm at most the limit, the disc rows of centre
   0 (with `real` only row 0), stored in ball unless it is NULL; their
   number, or -1 on error. */
static Py_ssize_t
fill_ball(const search *s, ball_elem *ball)
{
    int64_t y, lo, hi, a;
    Py_ssize_t n = 0;
    disc r;
    if (disc_init(&r, s->t, zero, 1, s->limit, s->real) < 0)
        return -1;
    for (y = r.first; y <= r.last; y++) {
        if (disc_row(&r, y, &lo, &hi) < 0)
            return -1;
        for (a = lo; a <= hi; a++) {
            if (a == 0 && y == 0)
                continue;
            if (ball != NULL)
                ball[n] = (ball_elem){{a, y}, norm(s->t, (elem){a, y}), 0};
            n++;
        }
    }
    return n;
}

/* c's slot in the rank table, or NULL when c lies outside the box. */
static Py_ssize_t *
slot(const search *s, elem c)
{
    int64_t r = s->box;
    if (c.a < -r || c.a > r || c.b < -r || c.b > r)
        return NULL;
    return &s->rank[(c.a + r) * (2 * r + 1) + c.b + r];
}

/* The position of c among the candidates, or -1 if c is none of them. */
static Py_ssize_t
rank_of(const search *s, elem c)
{
    Py_ssize_t *at = slot(s, c);
    return at != NULL ? *at : -1;
}

static int
refuse(const char *why)
{
    PyErr_SetString(PyExc_ValueError, why);
    return -1;
}

/* Fill the rank table with each candidate's position, refusing the inputs
   outside the contract with the pure kernel's ValueErrors, in its order.
   Inside the box a norm cannot overflow.  0 on success, -1 on error. */
static int
prepare_ranks(search *s)
{
    Py_ssize_t i, side, *at;
    s->box = isqrt_wide(2 * s->limit);
    side = 2 * s->box + 1;
    if ((s->rank = PyMem_New(Py_ssize_t, side * side)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < side * side; i++)
        s->rank[i] = -1;
    for (i = 0; i < s->ncand; i++) {
        if (is_zero(s->cand[i]))
            return refuse("a candidate is zero");
        if ((at = slot(s, s->cand[i])) == NULL || norm(s->t, s->cand[i]) > s->limit)
            return refuse("a candidate has norm above (n + 1)^2");
        if (*at >= 0)
            return refuse("a candidate is repeated");
        *at = i;
    }
    for (i = 0; i < s->npre; i++)
        if (rank_of(s, s->pre[i]) < 0)
            return refuse("a prefix entry is not a candidate");
    return 0;
}

/* Set up the solve of the last two free positions.  0 on success, -1 on
   error. */
static int
prepare_solve(search *s)
{
    Py_ssize_t i;
    s->real = 1;
    for (i = 0; i < s->ncand; i++)
        s->real &= s->cand[i].b == 0;
    if ((s->nball = fill_ball(s, NULL)) < 0)
        return -1;
    s->ball = PyMem_New(ball_elem, s->nball);
    s->hits = PyMem_New(Py_ssize_t, s->ncand);
    s->near = PyMem_New(Py_ssize_t, s->ncand);
    if (s->ball == NULL || s->hits == NULL || s->near == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    fill_ball(s, s->ball);
    qsort(s->ball, s->nball, sizeof *s->ball, by_norm_descending);
    for (i = s->nball - 1; i >= 0; i--)
        s->ball[i].next = i + 1 < s->nball && s->ball[i + 1].norm == s->ball[i].norm
                          ? s->ball[i + 1].next : i + 1;
    return 0;
}

/* The positions, in order, of the candidates c for the last free position
   but one whose x = 1 + p11 c + p12 has norm at most limit^2, the only c
   whose last free position can be solved.  With d = norm(p11) and w =
   -(1 + p12) conj(p11), conj(p11) x = d c - w, so these are the c with
   norm(d c - w) <= limit^2 d, walked row by row.  Their count, or -1 on
   error. */
static Py_ssize_t
solve_near(search *s, const mat *p, int64_t d)
{
    elem conj = zero, w;
    int64_t y, lo, hi, a;
    Py_ssize_t k, nhit = 0;
    disc r;
    if (conjugate(s->t, p->p11, &conj) < 0 || add(one, p->p12, &w) < 0
        || mul(s->t, w, conj, &w) < 0 || sub(zero, w, &w) < 0)
        return -1;
    if (disc_init(&r, s->t, w, d, (wide)s->limit * s->limit * d, s->real) < 0)
        return -1;
    for (y = r.first; y <= r.last; y++) {
        if (disc_row(&r, y, &lo, &hi) < 0)
            return -1;
        for (a = lo; a <= hi; a++)
            if ((k = rank_of(s, (elem){a, y})) >= 0)
                s->near[nhit++] = k;
    }
    qsort(s->near, nhit, sizeof *s->near, by_position);
    return nhit;
}

/* The positions, in order, of the candidates c for the last free position
   whose u = p11 c + p12 has a cofactor a in the ball with a u = x = 1 + p11.
   Their count, or -1 on error.  Walking the norms d of the ball from the
   largest, N(x)/d only grows, so the walk stops once it passes the limit;
   for N(x) > limit^2 that is at once. */
static Py_ssize_t
solve_last(search *s, const mat *p)
{
    elem x, a, num, c;
    int64_t nx, d;
    Py_ssize_t i, k, j, nhit = 0;
    int r;
    if (add(one, p->p11, &x) < 0)
        return -1;
    if (is_zero(x))
        return 0;
    if ((nx = norm(s->t, x)) < 0)
        return -1;
    for (i = 0; i < s->nball; i = s->ball[i].next) {
        d = s->ball[i].norm;
        if (nx / d > s->limit)
            break;
        if (nx % d != 0)
            continue;
        for (k = i; k < s->ball[i].next; k++) {
            if ((r = divide(s->t, x, s->ball[k].u, &a)) < 0)
                return -1;
            if (r == 0)
                continue;
            if (sub(s->ball[k].u, p->p12, &num) < 0 || (r = divide(s->t, num, p->p11, &c)) < 0)
                return -1;
            if (r && (j = rank_of(s, c)) >= 0)
                s->hits[nhit++] = j;
        }
    }
    qsort(s->hits, nhit, sizeof *s->hits, by_position);
    return nhit;
}

/* The ranks read from `start` in direction `dir` (1 or -1, a rotation or
   a reflection) against the ranks themselves: <0, 0 or >0. */
static int
compare_image(const search *s, int start, int dir)
{
    int k, j = start, m = s->m;
    for (k = 0; k < m; k++, j = (j + dir + m) % m)
        if (s->key[j] != s->key[k])
            return s->key[j] < s->key[k] ? -1 : 1;
    return 0;
}

/* 2m over the number of rotations and reflections of the ranks equal to
   them, or 0 when one of them is smaller. */
static int
orbit_size(const search *s)
{
    int start, dir, r, fixed = 0;
    for (start = 0; start < s->m; start++)
        for (dir = -1; dir <= 1; dir += 2) {
            if ((r = compare_image(s, start, dir)) < 0)
                return 0;
            fixed += r == 0;
        }
    return 2 * s->m / fixed;
}

/* Append (ranks, orbit size) to the results. */
static int
emit(search *s, int size)
{
    int i, rc;
    PyObject *item, *ranks = PyTuple_New(s->m);
    if (ranks == NULL)
        return -1;
    for (i = 0; i < s->m; i++) {
        PyObject *rank = PyLong_FromSsize_t(s->key[i]);
        if (rank == NULL) {
            Py_DECREF(ranks);
            return -1;
        }
        PyTuple_SET_ITEM(ranks, i, rank);
    }
    if ((item = Py_BuildValue("(Ni)", ranks, size)) == NULL)
        return -1;
    rc = PyList_Append(s->results, item);
    Py_DECREF(item);
    return rc;
}

/* Place c at position depth and extend the product p by it into q.
   1 if the branch survives, 0 if it is pruned, -1 on error.  The new p11 is
   a frieze entry, so it must not be zero. */
static int
step(search *s, int depth, const mat *p, elem c, mat *q)
{
    elem pc;
    if (mul(s->t, p->p11, c, &pc) < 0 || add(pc, p->p12, &q->p11) < 0)
        return -1;
    if (is_zero(q->p11))
        return 0;
    if (mul(s->t, p->p21, c, &pc) < 0 || add(pc, p->p22, &q->p21) < 0
        || sub(zero, p->p11, &q->p12) < 0 || sub(zero, p->p21, &q->p22) < 0)
        return -1;
    s->e[depth] = c;
    return 1;
}

/* The last three entries are forced: u = p11 at position m-1, and
   (1 - p12)/u and (1 + p21)/u on either side of it.  Each must be a
   candidate, which makes it nonzero and inside the ball; every entry
   placed before them is one. */
static int
solve_tail(search *s, const mat *p)
{
    int t = s->t, r, i, size, f = s->free;
    elem u = p->p11, a, b, num;
    if ((s->key[f + 1] = rank_of(s, u)) < 0)
        return 0;
    if (sub(one, p->p12, &num) < 0)
        return -1;
    if ((r = divide(t, num, u, &a)) <= 0)
        return r;
    if ((s->key[f] = rank_of(s, a)) < 0)
        return 0;
    if (add(one, p->p21, &num) < 0)
        return -1;
    if ((r = divide(t, num, u, &b)) <= 0)
        return r;
    if ((s->key[f + 2] = rank_of(s, b)) < 0)
        return 0;
    if ((r = product_is_one(t, s->e[f - 1], a)) != 0
        || (r = product_is_one(t, a, u)) != 0
        || (r = product_is_one(t, u, b)) != 0
        || (r = product_is_one(t, b, s->e[0])) != 0)
        return r < 0 ? -1 : 0;
    s->e[f] = a;
    s->e[f + 1] = u;
    s->e[f + 2] = b;
    for (i = 0; i < f; i++)
        s->key[i] = rank_of(s, s->e[i]);
    if ((size = orbit_size(s)) == 0)
        return 0;
    if ((r = windows_nonzero(s)) <= 0)
        return r;
    return emit(s, size);
}

/* Positions below npre take their prefix entry, so the prefix goes
   through the same pruning as the search.  The last free position takes
   only the solved candidates, and so does the one before it when
   norm(p11) exceeds the limit; otherwise its disc holds the whole ball.
   c * prev == 1 exactly when c is the inverse of the previous entry, so
   that inverse, if there is one, is found once per node with a choice
   left, and skipped. */
static int
extend(search *s, int depth, const mat *p)
{
    const elem *choice = depth < s->npre ? &s->pre[depth] : s->cand;
    const Py_ssize_t *order = NULL;
    Py_ssize_t i, nchoice = depth < s->npre ? 1 : s->ncand;
    elem inv, c;
    mat q;
    int64_t d;
    int r, has_inv = 0;
    if (depth == s->free)
        return solve_tail(s, p);
    if (depth + 1 == s->free && depth >= s->npre) {
        if ((nchoice = solve_last(s, p)) < 0)
            return -1;
        order = s->hits;
    } else if (depth + 2 == s->free && depth >= s->npre) {
        if ((d = norm(s->t, p->p11)) < 0)
            return -1;
        if (d > s->limit) {
            if ((nchoice = solve_near(s, p, d)) < 0)
                return -1;
            order = s->near;
        }
    }
    if (nchoice > 0 && depth > 0 && (has_inv = divide(s->t, one, s->e[depth - 1], &inv)) < 0)
        return -1;
    for (i = 0; i < nchoice; i++) {
        c = choice[order != NULL ? order[i] : i];
        if (has_inv && c.a == inv.a && c.b == inv.b)
            continue;
        if ((r = step(s, depth, p, c, &q)) < 0)
            return -1;
        if (r && extend(s, depth + 1, &q) < 0)
            return -1;
    }
    return 0;
}

/* A coordinate, or INT64_MAX for one beyond int64: outside the box either
   way, so a candidate is refused as outside the ball and a prefix entry as
   no candidate, as in the pure kernel. */
static int64_t
coordinate(PyObject *x)
{
    int beyond;
    long long v = PyLong_AsLongLongAndOverflow(x, &beyond);
    return beyond ? INT64_MAX : v;
}

static int
to_elem(PyObject *pair, elem *out)
{
    PyObject *seq = PySequence_Fast(pair, "a ring element must be an (a, b) pair");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != 2) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "a ring element must be an (a, b) pair");
        return -1;
    }
    out->a = coordinate(PySequence_Fast_GET_ITEM(seq, 0));
    out->b = coordinate(PySequence_Fast_GET_ITEM(seq, 1));
    Py_DECREF(seq);
    return PyErr_Occurred() ? -1 : 0;
}

PyDoc_STRVAR(search_from_prefix_doc,
"search_from_prefix(t, n, prefix, candidates)\n--\n\n"
"The canonical cycles completing `prefix`, each as (ranks, orbit size).\n\n"
"Same contract, output and ValueErrors as the pure kernel's\n"
"search_from_prefix; raises OverflowError where int64 arithmetic would\n"
"overflow.");

static PyObject *
search_from_prefix(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"t", "n", "prefix", "candidates", NULL};
    int t, n, r;
    PyObject *prefix_arg, *cand_arg, *prefix = NULL, *cands = NULL;
    elem *pool = NULL;
    Py_ssize_t i, npre, ncand;
    mat p = {one, zero, zero, one};
    search s = {.results = NULL};

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO:search_from_prefix", kwlist,
                                     &t, &n, &prefix_arg, &cand_arg))
        return NULL;
    if (t != 0 && t != 1)
        return PyErr_Format(PyExc_ValueError, "t must be 0 or 1, got %d", t);
    prefix = PySequence_Fast(prefix_arg, "prefix must be a sequence");
    if (prefix == NULL)
        return NULL;
    npre = PySequence_Fast_GET_SIZE(prefix);
    if (!(1 <= npre && npre <= n && n <= MAX_DEPTH)) {
        PyErr_SetString(PyExc_ValueError, "bad prefix length or height");
        goto done;
    }
    cands = PySequence_Fast(cand_arg, "candidates must be a sequence");
    if (cands == NULL)
        goto done;
    ncand = PySequence_Fast_GET_SIZE(cands);
    pool = PyMem_New(elem, npre + ncand);  /* the prefix entries, then the candidates */
    if (pool == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < npre + ncand; i++)
        if (to_elem(i < npre ? PySequence_Fast_GET_ITEM(prefix, i)
                             : PySequence_Fast_GET_ITEM(cands, i - npre), &pool[i]) < 0)
            goto done;

    s = (search){.t = t, .m = n + 3, .free = n, .npre = (int)npre, .ncand = ncand,
                 .limit = (int64_t)(n + 1) * (n + 1), .pre = pool, .cand = pool + npre,
                 .results = PyList_New(0)};
    if (s.results == NULL)
        goto done;
    r = prepare_ranks(&s);
    if (r == 0 && npre < n)
        r = prepare_solve(&s);
    if (r == 0)
        r = extend(&s, 0, &p);
    if (r < 0)
        Py_CLEAR(s.results);
done:
    PyMem_Free(s.ball);
    PyMem_Free(s.rank);
    PyMem_Free(s.hits);
    PyMem_Free(s.near);
    PyMem_Free(pool);
    Py_XDECREF(cands);
    Py_DECREF(prefix);
    return s.results;
}

static PyMethodDef methods[] = {
    {"search_from_prefix", (PyCFunction)(void (*)(void))search_from_prefix,
     METH_VARARGS | METH_KEYWORDS, search_from_prefix_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "quiddity._speedups",
    .m_doc = "Compiled twin of quiddity._kernel: same contract, same search, same output.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "KERNEL_KIND", "compiled") < 0
        || PyModule_AddIntConstant(mod, "MAX_DEPTH", MAX_DEPTH) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
