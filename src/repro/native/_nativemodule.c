/* Compiled inner loops for the repro library (the native engine).
 *
 * Three entry points, all operating on caller-provided contiguous int64
 * buffers (the Python wrappers in repro.sim.native / repro.baselines.ltb
 * guarantee dtype and layout, so this file never touches the NumPy C API):
 *
 *   load_banks - scatter an array into flat bank storage in row-major
 *                order, last write wins, for a mapping with a native spec
 *                (the stock linear schemes and the cyclic/block
 *                baselines), checking every offset against its bank.
 *   sweep      - walk the strided iteration domain and replay every read
 *                of the pattern through the same mapping: the
 *                uninitialized-read guard, the verify comparison and
 *                bank-conflict accounting in one pass, with no division
 *                per read (see the layout comment below).
 *   ltb_scan   - the whole per-N LTB candidate search: lexicographic
 *                odometer enumeration, residue check with Python modulo
 *                semantics, first-duplicate detection, and the
 *                comparison-charge tally the OpCounter model requires.
 *
 * Bit-identity with the scalar engines is the contract; the engine test
 * matrix and the repro.verify differential oracles enforce it.  Two
 * semantic rules are handled explicitly: C's `%` truncates toward zero
 * while Python floors (pattern deltas and transform values can be
 * negative), and sweep reports errors by chunks of `chunk` iterations, a
 * missing read anywhere in a chunk before a corruption earlier in it, so
 * the error is the same whether the caller passes the domain in one call
 * or chunk by chunk.
 *
 * sweep and ltb_scan start on 64-byte boundaries, so an edit outside them
 * (and outside the helpers they inline) cannot move their loops across
 * fetch windows.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---------------------------------------------------------------- helpers */

/* Python floor-mod for a positive modulus. */
static inline int64_t
pymod(int64_t a, int64_t n)
{
    int64_t r = a % n;
    if (r < 0)
        r += n;
    return r;
}

/* The buffers one kernel call holds; release_held frees them all on every
 * way out. */
#define MAX_HELD 20

typedef struct {
    Py_buffer views[MAX_HELD];
    int n;
} Held;

typedef struct {
    int64_t *data;
    Py_ssize_t len; /* in int64 elements */
} I64Buf;

typedef struct {
    uint8_t *data;
    Py_ssize_t len;
} U8Buf;

/* Acquire a contiguous buffer of `itemsize`-byte items into `held`; None
 * gives NULL, an error when `required`. */
static void *
hold(Held *held, PyObject *obj, int writable, int required, Py_ssize_t itemsize,
     Py_ssize_t *len, const char *name)
{
    *len = 0;
    if (obj == Py_None) {
        if (required)
            PyErr_Format(PyExc_ValueError, "%s buffer is required", name);
        return NULL;
    }
    if (held->n == MAX_HELD) {
        PyErr_SetString(PyExc_RuntimeError, "too many buffers held");
        return NULL;
    }
    Py_buffer *view = &held->views[held->n];
    if (PyObject_GetBuffer(obj, view,
                           writable ? PyBUF_CONTIG : PyBUF_CONTIG_RO) < 0)
        return NULL;
    held->n++;
    if (view->len % itemsize != 0 || (itemsize == 1 && view->itemsize != 1)) {
        PyErr_Format(PyExc_ValueError, "%s buffer is not of %zd-byte items",
                     name, itemsize);
        return NULL;
    }
    *len = view->len / itemsize;
    return view->buf;
}

/* An int64 buffer; `expect` >= 0 requires it, with that many values. */
static int
get_i64(Held *held, PyObject *obj, I64Buf *buf, int writable,
        Py_ssize_t expect, const char *name)
{
    buf->data = (int64_t *)hold(held, obj, writable, expect >= 0,
                                (Py_ssize_t)sizeof(int64_t), &buf->len, name);
    if (PyErr_Occurred())
        return -1;
    if (expect >= 0 && buf->len != expect) {
        PyErr_Format(PyExc_ValueError,
                     "%s buffer holds %zd int64 values, expected %zd", name,
                     buf->len, expect);
        return -1;
    }
    return 0;
}

/* A required byte buffer of `expect` bytes. */
static int
get_u8(Held *held, PyObject *obj, U8Buf *buf, int writable, Py_ssize_t expect,
       const char *name)
{
    buf->data = (uint8_t *)hold(held, obj, writable, 1, 1, &buf->len, name);
    if (PyErr_Occurred())
        return -1;
    if (buf->len != expect) {
        PyErr_Format(PyExc_ValueError,
                     "%s buffer holds %zd bytes, expected %zd", name, buf->len,
                     expect);
        return -1;
    }
    return 0;
}

static void
release_held(Held *held)
{
    while (held->n > 0)
        PyBuffer_Release(&held->views[--held->n]);
}

/* Mapping kinds and linear schemes a native spec names (mirrors the spec
 * builders registered with repro.native.register_native_spec). */
enum { KIND_LINEAR = 0, KIND_CYCLIC = 1, KIND_BLOCK = 2 };
enum { SCHEME_DIRECT = 0, SCHEME_TWO_LEVEL = 1, SCHEME_WIDE = 2 };

/* Status codes of load_banks and sweep (the Python wrapper turns them into
 * the scalar engine's SimulationError messages). */
enum {
    SWEEP_OK = 0,
    SWEEP_MISSING = 1,     /* a read of a slot the load never wrote */
    SWEEP_CORRUPT = 2,     /* a read whose value differs from the array */
    SWEEP_BAD_ADDRESS = 3, /* a bank or slot outside the allocation */
    LOAD_OUT_OF_RANGE = 4  /* an element's offset outside its bank's size */
};

/* ----------------------------------------------------------------- layout */

/* One mapping's address geometry.  Each kind reduces an element x of the
 * array to one integer T(x) >= 0 and splits it by a divisor D as
 * T = q * D + r, 0 <= r < D:
 *
 *   linear  T = (alpha . x) mod KN, D = N (inner banks): q is Section
 *           4.4's x_new and r picks the bank;
 *   cyclic  T = x_dim, D = N: r is the bank, q the row within it;
 *   block   T = x_dim, D = the chunk: q is the bank, r the row within it.
 *
 * The part that picks the bank is the key.  Tables over the key (N
 * entries, or one per block), built once per call, hold its bank and that
 * bank's base plus the key's share of the offset, so no read divides.  The
 * other part adds `scale` per unit, and the ravel of the coordinates other
 * than `axis` over the bank shape adds the rest.  T, its split and both
 * ravels are additive in x: a read's split is its pattern offset's plus
 * its loop offset's, with one carry of r into q and, for linear, one wrap
 * of q at K.  Both kernels take every vector relative to the array's
 * origin (the caller shifts loop and pattern offsets by the pattern's
 * minimum corner), so every coordinate lies in [0, shape).
 */
typedef struct {
    Py_ssize_t n;
    Py_ssize_t axis;       /* the coordinate T splits: n - 1 or dim */
    int64_t n_banks;
    int64_t window;        /* KN (linear), else 0 */
    int64_t split;         /* D */
    int64_t wrap;          /* q's period: K (linear), else INT64_MAX */
    int by_quotient;       /* block: q is the key and r scales */
    int64_t scale;         /* the bank-shape stride of `axis` */
    int64_t *alpha;        /* [n] alpha mod KN (linear), else NULL */
    int64_t *bank_stride;  /* [n] bank-shape strides, 0 at `axis` */
    int64_t *array_stride; /* [n] array-shape strides */
    int64_t n_keys;
    int64_t *bank_of;      /* [n_keys] the key's bank; -1 outside the banks */
    int64_t *base_of;      /* [n_keys] bank base + the key's share */
} Layout;

/* base_of for a key whose bank does not exist: every address built on it
 * is negative, so the range guards reject it. */
#define NO_SLOT (INT64_MIN / 2)

static void
layout_free(Layout *lay)
{
    free(lay->alpha);
    free(lay->bank_stride);
    free(lay->array_stride);
    free(lay->bank_of);
    free(lay->base_of);
    memset(lay, 0, sizeof(*lay));
}

/* Fill `lay` from a spec's integer fields, its alpha / bank shape / array
 * shape buffers and the banks' storage bases; sets an exception and
 * returns -1 when they do not describe one of the kinds above. */
static int
layout_init(Layout *lay, const Py_ssize_t *fields, const I64Buf *alpha,
            const I64Buf *bank_shape, const I64Buf *shape,
            const I64Buf *bases, Py_ssize_t total_slots)
{
    Py_ssize_t kind = fields[0], scheme = fields[1];
    int64_t n_banks = fields[2], inner = fields[3], window = fields[4];
    int64_t bank_ports = fields[5], inner_bank_size = fields[6];
    Py_ssize_t dim = fields[7];
    int64_t divisor = fields[8];
    Py_ssize_t n = shape->len;

    memset(lay, 0, sizeof(*lay));
    if (n < 1 || bank_shape->len != n || n_banks < 1 ||
        bases->len != n_banks) {
        PyErr_SetString(PyExc_ValueError,
                        "layout: bad shape, bank count or bank bases");
        return -1;
    }
    for (Py_ssize_t d = 0; d < n; d++) {
        if (shape->data[d] < 1 || bank_shape->data[d] < 0) {
            PyErr_SetString(PyExc_ValueError, "layout: empty array shape");
            return -1;
        }
    }
    if (kind == KIND_LINEAR) {
        if (alpha->data == NULL || alpha->len != n || inner < 1 ||
            window < inner || window % inner != 0 || window > total_slots ||
            (scheme == SCHEME_DIRECT && inner != n_banks) ||
            (scheme == SCHEME_WIDE && bank_ports < 1) ||
            scheme < SCHEME_DIRECT || scheme > SCHEME_WIDE) {
            PyErr_SetString(PyExc_ValueError,
                            "layout: incomplete linear-mapping parameters");
            return -1;
        }
        lay->axis = n - 1;
        lay->window = window;
        lay->split = inner;
        lay->wrap = window / inner;
        lay->n_keys = inner;
    } else if (kind == KIND_CYCLIC || kind == KIND_BLOCK) {
        if (divisor < 1 || dim < 0 || dim >= n) {
            PyErr_SetString(PyExc_ValueError,
                            "layout: incomplete cyclic/block parameters");
            return -1;
        }
        /* x_dim < w_dim bounds both keys: r below min(D, w_dim), q below
         * ceil(w_dim / D). */
        int64_t w = shape->data[dim];
        lay->axis = dim;
        lay->split = divisor;
        lay->wrap = INT64_MAX;
        lay->by_quotient = kind == KIND_BLOCK;
        lay->n_keys = kind == KIND_BLOCK ? (w - 1) / divisor + 1
                                         : (divisor < w ? divisor : w);
    } else {
        PyErr_Format(PyExc_ValueError, "layout: unknown mapping kind %zd",
                     kind);
        return -1;
    }
    lay->n = n;
    lay->n_banks = n_banks;

    size_t keys = (size_t)lay->n_keys;
    lay->bank_stride = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    lay->array_stride = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    lay->bank_of = (int64_t *)malloc(keys * sizeof(int64_t));
    lay->base_of = (int64_t *)malloc(keys * sizeof(int64_t));
    if (kind == KIND_LINEAR)
        lay->alpha = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (lay->bank_stride == NULL || lay->array_stride == NULL ||
        lay->bank_of == NULL || lay->base_of == NULL ||
        (kind == KIND_LINEAR && lay->alpha == NULL)) {
        PyErr_NoMemory();
        return -1;
    }
    int64_t bank_run = 1, array_run = 1;
    for (Py_ssize_t d = n - 1; d >= 0; d--) {
        lay->bank_stride[d] = bank_run;
        lay->array_stride[d] = array_run;
        bank_run *= bank_shape->data[d];
        array_run *= shape->data[d];
        if (lay->alpha != NULL)
            lay->alpha[d] = pymod(alpha->data[d], window);
    }
    lay->scale = lay->bank_stride[lay->axis];
    lay->bank_stride[lay->axis] = 0;

    for (int64_t key = 0; key < lay->n_keys; key++) {
        /* A folded linear scheme adds which inner bank's region it is. */
        int64_t bank = key, share = 0;
        if (kind == KIND_LINEAR && scheme == SCHEME_TWO_LEVEL) {
            bank = key % n_banks;
            share = (key / n_banks) * inner_bank_size;
        } else if (kind == KIND_LINEAR && scheme == SCHEME_WIDE) {
            bank = key / bank_ports;
            share = (key % bank_ports) * inner_bank_size;
        }
        if (bank < n_banks) {
            lay->bank_of[key] = bank;
            lay->base_of[key] = bases->data[bank] + share;
        } else {
            lay->bank_of[key] = -1;
            lay->base_of[key] = NO_SLOT;
        }
    }
    return 0;
}

static int64_t
ravel(const int64_t *stride, const int64_t *x, Py_ssize_t n)
{
    int64_t total = 0;
    for (Py_ssize_t d = 0; d < n; d++)
        total += stride[d] * x[d];
    return total;
}

static int64_t
volume(const int64_t *extents, Py_ssize_t n)
{
    int64_t total = 1;
    for (Py_ssize_t d = 0; d < n; d++)
        total *= extents[d];
    return total;
}

/* One vector's share of an address: T split as (q, r), and the ravels of
 * its coordinates over the bank shape (without `axis`) and over the array
 * shape. */
typedef struct {
    int64_t q, r, bank_ravel, array_ravel;
} Part;

/* The Part of a vector x with 0 <= x < shape: an element, a loop or
 * pattern offset relative to the origin, or one step.  Each alpha_d * x_d
 * is taken in 128 bits, so any such x gives the exact T. */
static Part
layout_part(const Layout *lay, const int64_t *x)
{
    int64_t t = x[lay->axis];
    if (lay->alpha != NULL) {
        t = 0;
        for (Py_ssize_t d = 0; d < lay->n; d++)
            t = (int64_t)(((__int128)lay->alpha[d] * x[d] + t) % lay->window);
    }
    Part part;
    part.q = t / lay->split;
    part.r = t % lay->split;
    part.bank_ravel = ravel(lay->bank_stride, x, lay->n);
    part.array_ravel = ravel(lay->array_stride, x, lay->n);
    return part;
}

/* The Part of the sum of two vectors whose sum lies in the array: adds, a
 * carry and a wrap, since r stays below D and q (linear) below K. */
static inline Part
part_add(const Layout *lay, const Part *a, const Part *b)
{
    Part sum;
    sum.r = a->r + b->r;
    int64_t carry = sum.r >= lay->split;
    sum.r -= lay->split & -carry;
    sum.q = a->q + b->q + carry;
    sum.q -= lay->wrap & -(int64_t)(sum.q >= lay->wrap);
    sum.bank_ravel = a->bank_ravel + b->bank_ravel;
    sum.array_ravel = a->array_ravel + b->array_ravel;
    return sum;
}

/* The flat-storage address of the element with Part `p`, and its bank in
 * *bank: -1, with a negative address, when the key names no bank. */
static inline int64_t
part_address(const Layout *lay, const Part *p, int64_t *bank)
{
    int64_t key = lay->by_quotient ? p->q : p->r;
    int64_t rest = lay->by_quotient ? p->r : p->q;
    *bank = lay->bank_of[key];
    return lay->base_of[key] + rest * lay->scale + p->bank_ravel;
}

/* ------------------------------------------------------------------- walk */

/* Row-major walk of a strided domain from the origin: axis d visits
 * k * step[d] for k < len[d].  The kernels loop over rows; a row's first
 * loop offset gets its Part from scratch, the rest by adding one innermost
 * step. */
typedef struct {
    const Layout *lay;
    const int64_t *step, *len;
    int64_t *idx;   /* [n] position of the row's next loop offset */
    int64_t *coord; /* [n] scratch */
    Part step_part; /* Part of one innermost step */
} Walk;

static void
walk_free(Walk *walk)
{
    free(walk->idx);
    free(walk->coord);
    walk->idx = walk->coord = NULL;
}

/* Position the walk at row-major index `lo`; -1 (MemoryError) on failure. */
static int
walk_init(Walk *walk, const Layout *lay, const int64_t *step,
          const int64_t *len, int64_t lo)
{
    Py_ssize_t n = lay->n;
    walk->lay = lay;
    walk->step = step;
    walk->len = len;
    walk->idx = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    walk->coord = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    if (walk->idx == NULL || walk->coord == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t d = n - 1; d >= 0; d--) {
        walk->idx[d] = lo % len[d];
        lo /= len[d];
    }
    /* One step stays in the array whenever the row has a next offset. */
    walk->coord[n - 1] = len[n - 1] > 1 ? step[n - 1] : 0;
    walk->step_part = layout_part(lay, walk->coord);
    return 0;
}

/* The Part of the loop offset at the walk's position, and how many loop
 * offsets are left in its row. */
static int64_t
walk_row(Walk *walk, Part *at)
{
    const Layout *lay = walk->lay;
    for (Py_ssize_t d = 0; d < lay->n; d++)
        walk->coord[d] = walk->idx[d] * walk->step[d];
    *at = layout_part(lay, walk->coord);
    return walk->len[lay->n - 1] - walk->idx[lay->n - 1];
}

/* Move to the start of the next row. */
static void
walk_next_row(Walk *walk)
{
    Py_ssize_t d = walk->lay->n - 1;
    walk->idx[d] = 0;
    while (--d >= 0) {
        if (++walk->idx[d] < walk->len[d])
            break;
        walk->idx[d] = 0;
    }
}

/* The spec arguments both kernels take: "(nnnnnnnnn)OOO" =
 * (kind, scheme, n_banks, inner, window, bank_ports, inner_bank_size, dim,
 * divisor), alpha (None unless linear), bank_shape, shape. */
#define LAYOUT_FORMAT "(nnnnnnnnn)OOO"
#define LAYOUT_ARGS(f, a, b, s)                                          \
    &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7], &f[8], &a, &b, \
        &s

/* ------------------------------------------------------------- load_banks */

static PyObject *
load_banks(PyObject *self, PyObject *args)
{
    Py_ssize_t fields[9];
    PyObject *alpha_o, *bank_shape_o, *shape_o, *flat_o, *bases_o, *sizes_o;
    PyObject *storage_o, *written_o, *occupancy_o;

    if (!PyArg_ParseTuple(args, LAYOUT_FORMAT "OOOOOO:load_banks",
                          LAYOUT_ARGS(fields, alpha_o, bank_shape_o, shape_o),
                          &flat_o, &bases_o, &sizes_o, &storage_o, &written_o,
                          &occupancy_o))
        return NULL;

    I64Buf alpha = {0}, bank_shape = {0}, shape = {0}, flat = {0};
    I64Buf bases = {0}, sizes = {0}, storage = {0}, occupancy = {0};
    U8Buf written = {0};
    Held held = {0};
    Layout lay = {0};
    Walk walk = {0};
    int64_t *ones = NULL;
    PyObject *result = NULL;

    if (get_i64(&held, alpha_o, &alpha, 0, -1, "alpha") < 0 ||
        get_i64(&held, bank_shape_o, &bank_shape, 0, -1, "bank_shape") < 0 ||
        get_i64(&held, shape_o, &shape, 0, -1, "shape") < 0 ||
        get_i64(&held, bases_o, &bases, 0, -1, "bases") < 0 ||
        get_i64(&held, sizes_o, &sizes, 0, bases.len, "sizes") < 0 ||
        get_i64(&held, storage_o, &storage, 1, -1, "storage") < 0 ||
        get_u8(&held, written_o, &written, 1, storage.len, "written") < 0 ||
        get_i64(&held, occupancy_o, &occupancy, 1, bases.len, "occupancy") < 0 ||
        layout_init(&lay, fields, &alpha, &bank_shape, &shape, &bases,
                    storage.len) < 0 ||
        get_i64(&held, flat_o, &flat, 0, volume(shape.data, lay.n), "flat") < 0)
        goto done;
    for (Py_ssize_t b = 0; b < lay.n_banks; b++) {
        if (bases.data[b] < 0 || sizes.data[b] < 0 ||
            bases.data[b] + sizes.data[b] > storage.len) {
            PyErr_SetString(PyExc_ValueError,
                            "load_banks: bank outside the storage buffer");
            goto done;
        }
    }

    ones = (int64_t *)malloc((size_t)lay.n * sizeof(int64_t));
    if (ones == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t d = 0; d < lay.n; d++)
        ones[d] = 1;
    if (walk_init(&walk, &lay, ones, shape.data, 0) < 0)
        goto done;

    int status = SWEEP_OK;
    int64_t i = 0, bank = -1, offset = -1;

    Py_BEGIN_ALLOW_THREADS
    /* Copies no pointer escapes to, so the loop keeps them in registers. */
    const Layout hot = lay;
    const Part step_part = walk.step_part;
    /* Row-major order, so a later element that shares a slot overwrites an
     * earlier one, exactly like the scalar load. */
    while (i < flat.len && status == SWEEP_OK) {
        Part first;
        int64_t row = walk_row(&walk, &first);
        Part at = first;
        for (; row > 0; row--, i++) {
            int64_t address = part_address(&hot, &at, &bank);
            if (bank < 0) {
                status = SWEEP_BAD_ADDRESS;
                break;
            }
            offset = address - bases.data[bank];
            if (offset >= sizes.data[bank]) {
                status = LOAD_OUT_OF_RANGE;
                break;
            }
            storage.data[address] = flat.data[i];
            occupancy.data[bank] += !written.data[address];
            written.data[address] = 1;
            at = part_add(&hot, &at, &step_part);
        }
        walk_next_row(&walk);
    }
    Py_END_ALLOW_THREADS

    result = Py_BuildValue("iLLL", status, (long long)i, (long long)bank,
                           (long long)offset);

done:
    free(ones);
    walk_free(&walk);
    layout_free(&lay);
    release_held(&held);
    return result;
}

/* ------------------------------------------------------------- accounting */

/* Per-bank conflict accounting.  A bank claimed k times in one iteration
 * serves `ports` claims a cycle, so it takes ceil(k / ports) cycles and
 * loses sum_{j>=1} max(0, k - j*ports) = q*k - ports*q*(q+1)/2 claims,
 * q = (k - 1) / ports.  Both come from tables over k = 0..m. */
typedef struct {
    Py_ssize_t m;
    int64_t *cycles_of, *failed_of; /* [m + 1] */
    int64_t *counts;                /* [n_banks], zero between charges */
    int64_t *acc, *conf;            /* the caller's per-bank totals */
} Claims;

static void
claims_free(Claims *cl)
{
    free(cl->cycles_of);
    free(cl->failed_of);
    free(cl->counts);
    cl->cycles_of = cl->failed_of = cl->counts = NULL;
}

/* -1 (MemoryError) on failure. */
static int
claims_init(Claims *cl, Py_ssize_t m, int64_t ports, int64_t n_banks,
            int64_t *acc, int64_t *conf)
{
    cl->m = m;
    cl->acc = acc;
    cl->conf = conf;
    cl->cycles_of = (int64_t *)malloc((size_t)(m + 1) * sizeof(int64_t));
    cl->failed_of = (int64_t *)malloc((size_t)(m + 1) * sizeof(int64_t));
    cl->counts = (int64_t *)calloc((size_t)n_banks, sizeof(int64_t));
    if (cl->cycles_of == NULL || cl->failed_of == NULL || cl->counts == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    cl->cycles_of[0] = cl->failed_of[0] = 0;
    for (Py_ssize_t k = 1; k <= m; k++) {
        int64_t q = (k - 1) / ports;
        cl->cycles_of[k] = q + 1;
        cl->failed_of[k] = q * k - ports * (q * (q + 1) / 2);
    }
    return 0;
}

/* Charge `weight` iterations that each read the banks `banks[0..m)` to the
 * per-bank totals; return the cycles one of them takes. */
static int64_t
charge(const Claims *cl, const int64_t *banks, int64_t weight)
{
    int64_t maxk = 0;
    for (Py_ssize_t j = 0; j < cl->m; j++) {
        int64_t k = ++cl->counts[banks[j]];
        maxk = k > maxk ? k : maxk;
    }
    /* A later read of a bank finds its count zeroed and adds nothing. */
    for (Py_ssize_t j = 0; j < cl->m; j++) {
        int64_t bank = banks[j];
        int64_t k = cl->counts[bank];
        cl->acc[bank] += weight * k;
        cl->conf[bank] += weight * cl->failed_of[k];
        cl->counts[bank] = 0;
    }
    return cl->cycles_of[maxk];
}

/* ------------------------------------------------------------------ sweep */

/* The most (r, read) cells the per-r tables may hold, 24 MiB of them.
 * Past that (a pattern of over a thousand offsets) the tables would
 * outgrow the rest of a sweep's memory, so it takes the Part arithmetic. */
#define MAX_KEY_CELLS ((int64_t)1 << 20)

/* Where r is the key (linear, cyclic), everything about a read but its
 * loop offset's q and bank-shape ravel follows from the loop offset's r.
 * Fill the table rows of one such r: each read's address, q and bank for a
 * loop offset with that r and a zero q and ravel.  A loop offset adds
 * q * scale plus its ravel to the address and wraps the sum of the q's. */
static void
key_fill(const Layout *lay, const Part *reads, Py_ssize_t m, int64_t key,
         int64_t *offset, int64_t *quotient, int64_t *bank)
{
    const Part loop = {0, key, 0, 0};
    for (Py_ssize_t j = 0; j < m; j++) {
        Part element = part_add(lay, &loop, &reads[j]);
        quotient[j] = element.q;
        offset[j] = part_address(lay, &element, &bank[j]);
    }
}

static __attribute__((aligned(64))) PyObject *
sweep(PyObject *self, PyObject *args)
{
    Py_ssize_t fields[9];
    PyObject *alpha_o, *bank_shape_o, *shape_o, *deltas_o, *step_o, *len_o;
    PyObject *bases_o, *storage_o, *written_o, *flat_o;
    PyObject *hist_o, *conf_o, *acc_o, *cycles_o, *banks_out_o, *got_o;
    Py_ssize_t m, lo, hi, chunk, ports, verify;

    if (!PyArg_ParseTuple(
            args, LAYOUT_FORMAT "OnOOnnnOOOOnnOOOOOO:sweep",
            LAYOUT_ARGS(fields, alpha_o, bank_shape_o, shape_o), &deltas_o,
            &m, &step_o, &len_o, &lo, &hi, &chunk, &bases_o, &storage_o,
            &written_o, &flat_o, &ports, &verify, &hist_o, &conf_o, &acc_o,
            &cycles_o, &banks_out_o, &got_o))
        return NULL;
    if (m < 1 || lo < 0 || hi < lo || chunk < 1 || ports < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep: m/lo/hi/chunk/ports out of range");
        return NULL;
    }
    if ((cycles_o == Py_None) != (banks_out_o == Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep: give both cycles_out and banks_out or neither");
        return NULL;
    }

    I64Buf alpha = {0}, bank_shape = {0}, shape = {0}, deltas = {0};
    I64Buf step = {0}, len = {0}, bases = {0}, storage = {0}, flat = {0};
    I64Buf hist = {0}, conf = {0}, acc = {0}, cycles = {0}, banks_out = {0};
    I64Buf got = {0};
    U8Buf written = {0};
    Held held = {0};
    Layout lay = {0};
    Walk walk = {0};
    Claims claims = {0};
    Part *reads = NULL;
    int64_t *banks = NULL, *addresses = NULL, *visits = NULL;
    int64_t *key_offset = NULL, *key_q = NULL, *key_bank = NULL;
    PyObject *result = NULL;

    if (get_i64(&held, alpha_o, &alpha, 0, -1, "alpha") < 0 ||
        get_i64(&held, bank_shape_o, &bank_shape, 0, -1, "bank_shape") < 0 ||
        get_i64(&held, shape_o, &shape, 0, -1, "shape") < 0 ||
        get_i64(&held, bases_o, &bases, 0, -1, "bases") < 0 ||
        get_i64(&held, storage_o, &storage, 0, -1, "storage") < 0 ||
        get_u8(&held, written_o, &written, 0, storage.len, "written") < 0 ||
        layout_init(&lay, fields, &alpha, &bank_shape, &shape, &bases,
                    storage.len) < 0)
        goto done;
    Py_ssize_t n = lay.n;
    if (get_i64(&held, deltas_o, &deltas, 0, m * n, "deltas") < 0 ||
        get_i64(&held, step_o, &step, 0, n, "step") < 0 ||
        get_i64(&held, len_o, &len, 0, n, "len") < 0 ||
        get_i64(&held, flat_o, &flat, 0, volume(shape.data, n), "flat") < 0 ||
        get_i64(&held, hist_o, &hist, 1, -1, "hist") < 0 ||
        get_i64(&held, conf_o, &conf, 1, lay.n_banks, "conf") < 0 ||
        get_i64(&held, acc_o, &acc, 1, lay.n_banks, "acc") < 0 ||
        get_i64(&held, cycles_o, &cycles, 1, -1, "cycles_out") < 0 ||
        get_i64(&held, banks_out_o, &banks_out, 1, -1, "banks_out") < 0 ||
        get_i64(&held, got_o, &got, 1, m, "got_out") < 0)
        goto done;
    /* Every read must land in the array: that keeps every coordinate the
     * kernel meets in [0, shape) and every array ravel inside `flat`. */
    for (Py_ssize_t d = 0; d < n; d++) {
        int64_t low = 0, high = 0;
        for (Py_ssize_t j = 0; j < m; j++) {
            int64_t c = deltas.data[j * n + d];
            low = (j == 0 || c < low) ? c : low;
            high = (j == 0 || c > high) ? c : high;
        }
        int64_t w = shape.data[d];
        if (low < 0 || high >= w || len.data[d] < 1 || len.data[d] > w ||
            step.data[d] < 1 || step.data[d] > w ||
            (len.data[d] - 1) * step.data[d] + high >= w) {
            PyErr_SetString(PyExc_ValueError,
                            "sweep: the domain reads outside the array");
            goto done;
        }
    }
    if (hi > volume(len.data, n)) {
        PyErr_SetString(PyExc_ValueError, "sweep: hi beyond the domain");
        goto done;
    }
    if (cycles.data != NULL &&
        (cycles.len != hi - lo || banks_out.len != (hi - lo) * m)) {
        PyErr_SetString(PyExc_ValueError,
                        "sweep: cycles_out or banks_out size");
        goto done;
    }

    if (claims_init(&claims, m, ports, lay.n_banks, acc.data, conf.data) < 0)
        goto done;
    if (hist.len <= claims.cycles_of[m]) {
        PyErr_SetString(PyExc_ValueError, "sweep: hist too small");
        goto done;
    }
    /* Block keys on q, so its reads take the Part arithmetic, as do those
     * of a pattern whose tables would pass MAX_KEY_CELLS; the others read
     * tables over (r, read), filled the first time an iteration has that
     * r.  Without per-iteration outputs, every iteration with one r reads
     * the same banks: count them and charge each r once at the end. */
    int keyed = !lay.by_quotient && lay.n_keys <= MAX_KEY_CELLS / m;
    int by_visits = keyed && cycles.data == NULL;
    size_t cells = keyed ? (size_t)lay.n_keys * (size_t)m : 1;
    reads = (Part *)malloc((size_t)m * sizeof(Part));
    banks = (int64_t *)malloc((size_t)m * sizeof(int64_t));
    addresses = (int64_t *)malloc((size_t)m * sizeof(int64_t));
    key_offset = (int64_t *)malloc(cells * sizeof(int64_t));
    key_q = (int64_t *)malloc(cells * sizeof(int64_t));
    key_bank = (int64_t *)malloc(cells * sizeof(int64_t));
    visits = (int64_t *)calloc(keyed ? (size_t)lay.n_keys : 1, sizeof(int64_t));
    if (reads == NULL || banks == NULL || addresses == NULL ||
        key_offset == NULL || key_q == NULL || key_bank == NULL ||
        visits == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < m; j++)
        reads[j] = layout_part(&lay, deltas.data + j * n);
    if (walk_init(&walk, &lay, step.data, len.data, lo) < 0)
        goto done;

    int status = SWEEP_OK;
    int64_t err_iter = -1, err_read = -1, first_corrupt = -1;
    int64_t total_cycles = 0, worst = 0;

    Py_BEGIN_ALLOW_THREADS
    /* Locals no pointer escapes to, so stores into the output buffers force
     * no reloads. */
    const Layout hot = lay;
    const Part step_part = walk.step_part;
    const int64_t wrap_size = hot.window != 0 ? hot.wrap * hot.scale : 0;
    const int64_t *values = storage.data, *source = flat.data;
    const uint8_t *seen = written.data;
    const uint64_t slots = (uint64_t)storage.len;
    int64_t check = verify != 0;
    int64_t stop = hi;
    int64_t i = lo;

    while (i < stop && status == SWEEP_OK) {
        Part first;
        int64_t row = walk_row(&walk, &first);
        Part at = first;
        for (; row > 0 && i < stop; row--, i++) {
            /* Keyed: a read's address is its table entry plus the loop
             * offset's base, less one period of q where the q's wrap. */
            int64_t cell = keyed ? at.r * m : 0;
            const int64_t *offset = key_offset + cell, *q = key_q + cell;
            const int64_t *iter_banks = keyed ? key_bank + cell : banks;
            int64_t base = at.q * hot.scale + at.bank_ravel;
            int64_t wraps_from = hot.wrap - at.q;
            if (keyed && visits[at.r]++ == 0)
                key_fill(&hot, reads, m, at.r, key_offset + cell, key_q + cell,
                         key_bank + cell);
            for (Py_ssize_t j = 0; !keyed && j < m; j++) {
                Part element = part_add(&hot, &at, &reads[j]);
                addresses[j] = part_address(&hot, &element, &banks[j]);
            }
            int64_t corrupt = 0;
            for (Py_ssize_t j = 0; j < m; j++) {
                int64_t address =
                    keyed ? offset[j] + base -
                                (wrap_size & -(int64_t)(q[j] >= wraps_from))
                          : addresses[j];
                if ((uint64_t)address >= slots || !seen[address]) {
                    /* A missing read outranks a corruption found earlier
                     * in its chunk (see the file comment). */
                    status = (uint64_t)address >= slots ? SWEEP_BAD_ADDRESS
                                                        : SWEEP_MISSING;
                    err_iter = i;
                    err_read = j;
                    break;
                }
                corrupt |= check & (values[address] !=
                                    source[at.array_ravel +
                                           reads[j].array_ravel]);
            }
            if (status != SWEEP_OK)
                break;
            if (corrupt) {
                /* Look on for a missing read to the end of this chunk,
                 * and keep what this iteration read for the message. */
                first_corrupt = i;
                check = 0;
                int64_t chunk_end = (i / chunk + 1) * chunk;
                stop = chunk_end < stop ? chunk_end : stop;
                for (Py_ssize_t j = 0; j < m; j++) {
                    Part element = part_add(&hot, &at, &reads[j]);
                    int64_t bank;
                    got.data[j] = values[part_address(&hot, &element, &bank)];
                }
            }
            if (!by_visits) {
                int64_t iter_cycles = charge(&claims, iter_banks, 1);
                hist.data[iter_cycles]++;
                total_cycles += iter_cycles;
                worst = iter_cycles > worst ? iter_cycles : worst;
                if (cycles.data != NULL) {
                    cycles.data[i - lo] = iter_cycles;
                    memcpy(banks_out.data + (i - lo) * m, iter_banks,
                           (size_t)m * sizeof(int64_t));
                }
            }
            at = part_add(&hot, &at, &step_part);
        }
        walk_next_row(&walk);
    }
    if (status == SWEEP_OK) {
        for (int64_t key = 0; by_visits && key < lay.n_keys; key++) {
            if (visits[key] == 0)
                continue;
            int64_t iter_cycles =
                charge(&claims, key_bank + key * m, visits[key]);
            hist.data[iter_cycles] += visits[key];
            total_cycles += visits[key] * iter_cycles;
            worst = iter_cycles > worst ? iter_cycles : worst;
        }
        if (first_corrupt >= 0) {
            status = SWEEP_CORRUPT;
            err_iter = first_corrupt;
        }
    }
    Py_END_ALLOW_THREADS

    result = Py_BuildValue("iLLLL", status, (long long)err_iter,
                           (long long)err_read, (long long)total_cycles,
                           (long long)worst);

done:
    free(reads);
    free(banks);
    free(addresses);
    free(visits);
    free(key_offset);
    free(key_q);
    free(key_bank);
    claims_free(&claims);
    walk_free(&walk);
    layout_free(&lay);
    release_held(&held);
    return result;
}

/* --------------------------------------------------------------- ltb_scan */

/* (digits . delta) mod N for one offset whose components lie in (-N, N),
 * so every product is below N^2 in magnitude.  The dot product fits int64
 * while n (N-1)^2 does; past that (only N beyond ~3.0e9 / sqrt(n)) it is
 * summed in 128 bits, which holds any N with N^n in int64.  `wide` is a
 * constant at each call site. */
static inline __attribute__((always_inline)) int64_t
ltb_residue(const int64_t *digits, const int64_t *delta, Py_ssize_t n,
            int64_t n_banks, const int wide)
{
    if (!wide) {
        int64_t value = 0;
        for (Py_ssize_t d = 0; d < n; d++)
            value += digits[d] * delta[d];
        return pymod(value, n_banks);
    }
    __int128 value = 0;
    for (Py_ssize_t d = 0; d < n; d++)
        value += (__int128)digits[d] * delta[d];
    int64_t r = (int64_t)(value % n_banks);
    return r < 0 ? r + n_banks : r;
}

/* The candidate loop over reduced offsets, from the all-zero vector in
 * `digits`; leaves the first hit in `digits` and returns whether there is
 * one.  Inlined once, with `wide` = 0: every N that needs 128-bit residues
 * is past LTB_STAMP_LIMIT. */
static inline __attribute__((always_inline)) int
ltb_search(const int64_t *reduced, Py_ssize_t m, Py_ssize_t n, int64_t n_banks,
           const int wide, int64_t *stamp, int64_t *digits, int64_t *tried_out,
           int64_t *compares_out)
{
    /* Locals, not the out-pointers: a store to `stamp` could alias them. */
    int64_t tried = 0, compares = 0;
    int found = 0;
    for (;;) {
        tried++;
        /* Residue scan with early exit at the first duplicate; the charge
         * model below only needs the stop index, not the skipped work
         * (arithmetic is charged wholesale per tried vector in Python). */
        int64_t t = m;
        for (Py_ssize_t j = 0; j < m; j++) {
            int64_t residue = ltb_residue(digits, reduced + j * n, n, n_banks, wide);
            if (stamp[residue] == tried) {
                t = j;
                break;
            }
            stamp[residue] = tried;
        }
        int64_t scan = (t < m) ? t : m - 1;
        compares += 1 + scan * (scan + 1) / 2;
        if (t == m) {
            found = 1;
            break;
        }
        /* Odometer increment, rightmost digit fastest (itertools.product
         * lexicographic order). */
        Py_ssize_t d;
        for (d = n - 1; d >= 0; d--) {
            digits[d]++;
            if (digits[d] < n_banks)
                break;
            digits[d] = 0;
        }
        if (d < 0)
            break; /* candidate space exhausted */
    }
    *tried_out = tried;
    *compares_out = compares;
    return found;
}

/* Bank counts past this take ltb_search_buffered: an N-entry stamp table
 * of int64 is 8 MiB here and grows without bound beyond. */
#define LTB_STAMP_LIMIT ((int64_t)1 << 20)

/* The candidate loop for N past LTB_STAMP_LIMIT: each residue is compared
 * with the candidate's earlier ones in the m-entry `seen`, which finds the
 * same first duplicate as the stamp table.  Every N with 128-bit dot
 * products lies past the limit, so `wide` is decided here.  Kept out of
 * ltb_scan's body so the int64 stamp loop compiles as if it were alone,
 * and cold so it stays out of the hot text as well: placed before
 * ltb_scan, its extra bytes moved the stamp loop across 32-byte fetch
 * windows, and the Table 1 scans ran 5% slower (one process alternating
 * both builds, 150 rounds). */
static __attribute__((noinline, cold)) int
ltb_search_buffered(const int64_t *reduced, Py_ssize_t m, Py_ssize_t n,
                    int64_t n_banks, int64_t *seen, int64_t *digits,
                    int64_t *tried_out, int64_t *compares_out)
{
    const uint64_t top = (uint64_t)(n_banks - 1);
    const int wide =
        top > 3037000499u || top * top > (uint64_t)INT64_MAX / (uint64_t)n;
    int64_t tried = 0, compares = 0;
    int found = 0;
    for (;;) {
        tried++;
        int64_t t = m;
        for (Py_ssize_t j = 0; j < m && t == m; j++) {
            int64_t residue =
                wide ? ltb_residue(digits, reduced + j * n, n, n_banks, 1)
                     : ltb_residue(digits, reduced + j * n, n, n_banks, 0);
            for (Py_ssize_t k = 0; k < j; k++) {
                if (seen[k] == residue) {
                    t = j;
                    break;
                }
            }
            seen[j] = residue;
        }
        int64_t scan = (t < m) ? t : m - 1;
        compares += 1 + scan * (scan + 1) / 2;
        if (t == m) {
            found = 1;
            break;
        }
        Py_ssize_t d;
        for (d = n - 1; d >= 0; d--) {
            digits[d]++;
            if (digits[d] < n_banks)
                break;
            digits[d] = 0;
        }
        if (d < 0)
            break;
    }
    *tried_out = tried;
    *compares_out = compares;
    return found;
}

static __attribute__((aligned(64))) PyObject *
ltb_scan(PyObject *self, PyObject *args)
{
    PyObject *deltas_o, *alpha_o;
    Py_ssize_t m, n, n_banks;

    if (!PyArg_ParseTuple(args, "OnnnO:ltb_scan", &deltas_o, &m, &n, &n_banks,
                          &alpha_o))
        return NULL;
    if (m < 1 || n < 1 || n_banks < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "ltb_scan: m/n/n_banks must be positive");
        return NULL;
    }

    I64Buf deltas = {0}, alpha = {0};
    Held held = {0};
    int64_t *stamp = NULL, *digits = NULL, *reduced = NULL;
    PyObject *result = NULL;

    if (get_i64(&held, deltas_o, &deltas, 0, m * n, "deltas") < 0 ||
        get_i64(&held, alpha_o, &alpha, 1, n, "alpha_out") < 0)
        goto done;

    const int buffered = n_banks > LTB_STAMP_LIMIT;
    stamp = (int64_t *)calloc((size_t)(buffered ? m : n_banks), sizeof(int64_t));
    digits = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    reduced = (int64_t *)malloc((size_t)(m * n) * sizeof(int64_t));
    if (stamp == NULL || digits == NULL || reduced == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* Offsets reduced mod N once (C's `%` keeps the sign, so a component
     * already inside (-N, N) stays as it is) leave every residue
     * unchanged, however far the pattern is translated. */
    for (Py_ssize_t i = 0; i < m * n; i++)
        reduced[i] = deltas.data[i] % n_banks;

    int found;
    int64_t tried = 0;
    int64_t compares = 0;

    Py_BEGIN_ALLOW_THREADS
    if (buffered)
        found = ltb_search_buffered(reduced, m, n, n_banks, stamp, digits,
                                    &tried, &compares);
    else
        found = ltb_search(reduced, m, n, n_banks, 0, stamp, digits, &tried,
                           &compares);
    Py_END_ALLOW_THREADS

    if (found)
        for (Py_ssize_t d = 0; d < n; d++)
            alpha.data[d] = digits[d];
    result = Py_BuildValue("iLL", found, (long long)tried,
                           (long long)compares);

done:
    free(stamp);
    free(digits);
    free(reduced);
    release_held(&held);
    return result;
}

/* ----------------------------------------------------------------- module */

static PyMethodDef native_methods[] = {
    {"load_banks", load_banks, METH_VARARGS,
     "Scatter an array into flat bank storage through a native spec."},
    {"sweep", sweep, METH_VARARGS,
     "Replay a strided sweep's reads with guards and conflict accounting."},
    {"ltb_scan", ltb_scan, METH_VARARGS,
     "Exhaustive per-N LTB transform-vector search (lexicographic first hit)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.native._native",
    "Compiled inner loops for the repro simulator and the LTB baseline.",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "ABI_VERSION", 2) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
