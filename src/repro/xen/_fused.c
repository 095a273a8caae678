/*
 * Native kernel for BatchedEngine._fused_epochs (see repro/xen/engine.py).
 *
 * fused_epochs(state, epoch, kb) runs kb epochs of the fused scalar
 * replay over a seeded _FusedState and is bitwise equal to the Python
 * loop it replaces:
 *
 *   - every float expression is evaluated in the Python operation order
 *     on IEEE doubles; the module is built with -ffp-contract=off and
 *     without fast-math, so no multiply-add is fused and nothing is
 *     reassociated;
 *   - (1.0 - f) ** shape calls libm pow, which is what CPython's
 *     float_pow calls for a base in [0, 1] and a finite shape > 0;
 *   - every Python list the loop touches is copied once into a double
 *     arena, keyed by object identity, so lists shared between VCPUs
 *     (placement-row and `overall` mirrors, warmth lists) alias here
 *     exactly as they do in Python;
 *   - only the slots Python would have assigned are written back, and
 *     only after the last epoch.
 *
 * Whenever Python could raise or take a path this kernel does not model
 * (a zero divisor, a non-positive shape, a base outside [0, 1], an entry
 * that is not a float or a small int, a malformed plan), the call
 * returns None having written nothing, and the caller runs the Python
 * loop instead.  On success it returns True.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <errno.h>
#include <math.h>

/* Integers up to 2**53 convert to double exactly, so Python's int/float
 * mixed arithmetic and comparisons agree with the converted value. */
#define EXACT_INT_MAX 9007199254740992LL

static int
as_double(PyObject *o, double *out)
{
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 1;
    }
    if (PyLong_CheckExact(o)) {
        int overflow = 0;
        long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (overflow || v > EXACT_INT_MAX || v < -EXACT_INT_MAX) {
            PyErr_Clear();
            return 0;
        }
        *out = (double)v;
        return 1;
    }
    return 0;
}

static int
as_index(PyObject *o, Py_ssize_t n, Py_ssize_t *out)
{
    Py_ssize_t v;
    if (!PyLong_CheckExact(o))
        return 0;
    v = PyLong_AsSsize_t(o);
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    if (v < 0 || v >= n)
        return 0;
    *out = v;
    return 1;
}

static int
as_bool(PyObject *o, int *out)
{
    if (o == Py_True)
        *out = 1;
    else if (o == Py_False)
        *out = 0;
    else
        return 0;
    return 1;
}

/* --- Identity-keyed arena of list slots ---------------------------- */

typedef struct {
    PyObject *list; /* borrowed: kept alive by the state and its plan */
    Py_ssize_t off;
    Py_ssize_t n;
} Reg;

typedef struct {
    Reg *regs;
    Py_ssize_t nregs, cap, total;
    double *v;
    char *dirty;
} Arena;

/* Offset of list's first slot in the arena, registering it on first
 * sight; -1 if it is not a list of at least min_len items. */
static Py_ssize_t
arena_find(Arena *a, PyObject *list, Py_ssize_t min_len)
{
    Py_ssize_t i, n;
    if (!PyList_CheckExact(list))
        return -1;
    n = PyList_GET_SIZE(list);
    if (n < min_len)
        return -1;
    for (i = 0; i < a->nregs; i++)
        if (a->regs[i].list == list)
            return a->regs[i].off;
    if (a->nregs == a->cap) {
        Py_ssize_t cap = a->cap ? 2 * a->cap : 32;
        Reg *regs = PyMem_Realloc(a->regs, cap * sizeof(Reg));
        if (regs == NULL)
            return -1;
        a->regs = regs;
        a->cap = cap;
    }
    a->regs[a->nregs].list = list;
    a->regs[a->nregs].off = a->total;
    a->regs[a->nregs].n = n;
    a->nregs++;
    a->total += n;
    return a->total - n;
}

static int
arena_load(Arena *a)
{
    Py_ssize_t r, j;
    a->v = PyMem_Malloc((a->total + 1) * sizeof(double));
    a->dirty = PyMem_Calloc(a->total + 1, 1);
    if (a->v == NULL || a->dirty == NULL)
        return 0;
    for (r = 0; r < a->nregs; r++) {
        Reg *g = &a->regs[r];
        if (PyList_GET_SIZE(g->list) != g->n)
            return 0;
        for (j = 0; j < g->n; j++)
            if (!as_double(PyList_GET_ITEM(g->list, j), &a->v[g->off + j]))
                return 0;
    }
    return 1;
}

/* Write every dirty slot back: all new floats are built first, so a
 * failed allocation leaves the lists untouched. */
static int
arena_store(Arena *a)
{
    Py_ssize_t r, j, m = 0, ndirty = 0;
    PyObject **fresh;
    for (j = 0; j < a->total; j++)
        ndirty += a->dirty[j];
    fresh = PyMem_Malloc((ndirty + 1) * sizeof(PyObject *));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return 0;
    }
    for (j = 0; j < a->total; j++) {
        if (!a->dirty[j])
            continue;
        fresh[m] = PyFloat_FromDouble(a->v[j]);
        if (fresh[m] == NULL) {
            while (m > 0)
                Py_DECREF(fresh[--m]);
            PyMem_Free(fresh);
            return 0;
        }
        m++;
    }
    m = 0;
    for (r = 0; r < a->nregs; r++) {
        Reg *g = &a->regs[r];
        for (j = 0; j < g->n; j++)
            if (a->dirty[g->off + j])
                PyList_SetItem(g->list, j, fresh[m++]);
    }
    PyMem_Free(fresh);
    return 1;
}

static void
arena_free(Arena *a)
{
    PyMem_Free(a->regs);
    PyMem_Free(a->v);
    PyMem_Free(a->dirty);
}

/* --- Plan decoding -------------------------------------------------- */

typedef struct {
    Py_ssize_t w, miss; /* arena slots */
    double share, minmr, span, shape;
    int bad;
} PlanE;

typedef struct {
    Py_ssize_t w;
    double cf;
} ChargeE;

typedef struct {
    double c, a, rp, cb, ml, ck, n2, total, d, nsl;
    Py_ssize_t row, over, mrow; /* arena offsets of 2-slot mirrors */
    int nd0, has_total;
} RowE;

enum {
    PEND, BUSY, IDONE, SUSED, BURST, BI, BR, BM, BL, BX, M0, M1, NACC
};

static const char *const ACC_NAMES[NACC] = {
    "pend", "busy", "idone", "sused", "burst",
    "bi", "br", "bm", "bl", "bx", "m0", "m1",
};

/* Interned attribute names, built once at module init. */
static PyObject *acc_attr[NACC], *plan_attr, *mbusy_attr;

/* state.plan is (flat_plan, flat_charge, rows, miss, mix_rows, reseed_w,
 * row_pairs, over_pairs, rloc, oloc, w_by_node, scalars); the loop reads
 * 0, 1, 2, 3 and 11. */
#define PLAN_LEN 12
#define NSCALARS 10

typedef struct {
    PyObject *plan;
    PyObject *acc[NACC];
    Arena arena;
    PlanE *plan_e;
    ChargeE *charge_e;
    RowE *row_e;
    Py_ssize_t nplan, ncharge, nrows;
    Py_ssize_t miss, acc_off[NACC];
    double sc[NSCALARS];
    double mbusy;
} Batch;

static void
batch_free(Batch *b)
{
    int i;
    Py_XDECREF(b->plan);
    for (i = 0; i < NACC; i++)
        Py_XDECREF(b->acc[i]);
    arena_free(&b->arena);
    PyMem_Free(b->plan_e);
    PyMem_Free(b->charge_e);
    PyMem_Free(b->row_e);
}

/* Decode state and plan into b; 0 on anything Python might treat
 * differently (the caller then falls back without writing). */
static int
batch_load(Batch *b, PyObject *state)
{
    PyObject *flat_plan, *flat_charge, *rows, *scalars, *mbusy;
    Arena *a = &b->arena;
    Py_ssize_t i, miss_len;
    int ok;

    b->plan = PyObject_GetAttr(state, plan_attr);
    if (b->plan == NULL || !PyTuple_CheckExact(b->plan)
        || PyTuple_GET_SIZE(b->plan) != PLAN_LEN)
        return 0;
    flat_plan = PyTuple_GET_ITEM(b->plan, 0);
    flat_charge = PyTuple_GET_ITEM(b->plan, 1);
    rows = PyTuple_GET_ITEM(b->plan, 2);
    scalars = PyTuple_GET_ITEM(b->plan, 11);
    if (!PyList_CheckExact(flat_plan) || !PyList_CheckExact(flat_charge)
        || !PyList_CheckExact(rows) || !PyTuple_CheckExact(scalars)
        || PyTuple_GET_SIZE(scalars) != NSCALARS)
        return 0;
    for (i = 0; i < NSCALARS; i++)
        if (!as_double(PyTuple_GET_ITEM(scalars, i), &b->sc[i]))
            return 0;

    mbusy = PyObject_GetAttr(state, mbusy_attr);
    if (mbusy == NULL)
        return 0;
    ok = as_double(mbusy, &b->mbusy);
    Py_DECREF(mbusy);
    if (!ok)
        return 0;

    b->nrows = PyList_GET_SIZE(rows);
    for (i = 0; i < NACC; i++) {
        b->acc[i] = PyObject_GetAttr(state, acc_attr[i]);
        if (b->acc[i] == NULL)
            return 0;
        b->acc_off[i] = arena_find(a, b->acc[i], b->nrows);
        if (b->acc_off[i] < 0)
            return 0;
    }
    b->miss = arena_find(a, PyTuple_GET_ITEM(b->plan, 3), b->nrows);
    if (b->miss < 0)
        return 0;
    miss_len = PyList_GET_SIZE(PyTuple_GET_ITEM(b->plan, 3));

    b->nplan = PyList_GET_SIZE(flat_plan);
    b->ncharge = PyList_GET_SIZE(flat_charge);
    b->plan_e = PyMem_Malloc((b->nplan + 1) * sizeof(PlanE));
    b->charge_e = PyMem_Malloc((b->ncharge + 1) * sizeof(ChargeE));
    b->row_e = PyMem_Malloc((b->nrows + 1) * sizeof(RowE));
    if (b->plan_e == NULL || b->charge_e == NULL || b->row_e == NULL)
        return 0;

    /* (w_l, j, pos, share, minmr, span, shape, bad) */
    for (i = 0; i < b->nplan; i++) {
        PyObject *t = PyList_GET_ITEM(flat_plan, i), *w_l;
        PlanE *e = &b->plan_e[i];
        Py_ssize_t off, j, pos;
        if (!PyTuple_CheckExact(t) || PyTuple_GET_SIZE(t) != 8)
            return 0;
        w_l = PyTuple_GET_ITEM(t, 0);
        off = arena_find(a, w_l, 0);
        if (off < 0
            || !as_index(PyTuple_GET_ITEM(t, 1), PyList_GET_SIZE(w_l), &j)
            || !as_index(PyTuple_GET_ITEM(t, 2), miss_len, &pos)
            || !as_double(PyTuple_GET_ITEM(t, 3), &e->share)
            || !as_double(PyTuple_GET_ITEM(t, 4), &e->minmr)
            || !as_double(PyTuple_GET_ITEM(t, 5), &e->span)
            || !as_double(PyTuple_GET_ITEM(t, 6), &e->shape)
            || !as_bool(PyTuple_GET_ITEM(t, 7), &e->bad))
            return 0;
        if (e->shape != 1.0 && !(e->shape > 0.0 && isfinite(e->shape)))
            return 0;
        e->w = off + j;
        e->miss = b->miss + pos;
    }

    /* (w_l, j, charge_factor) */
    for (i = 0; i < b->ncharge; i++) {
        PyObject *t = PyList_GET_ITEM(flat_charge, i), *w_l;
        ChargeE *e = &b->charge_e[i];
        Py_ssize_t off, j;
        if (!PyTuple_CheckExact(t) || PyTuple_GET_SIZE(t) != 3)
            return 0;
        w_l = PyTuple_GET_ITEM(t, 0);
        off = arena_find(a, w_l, 0);
        if (off < 0
            || !as_index(PyTuple_GET_ITEM(t, 1), PyList_GET_SIZE(w_l), &j)
            || !as_double(PyTuple_GET_ITEM(t, 2), &e->cf))
            return 0;
        e->w = off + j;
    }

    /* (c, a, row, over, rp, cb, ml, ck, n2, mrow, nd0, total, d, nsl) */
    for (i = 0; i < b->nrows; i++) {
        PyObject *t = PyList_GET_ITEM(rows, i), *total;
        RowE *e = &b->row_e[i];
        if (!PyTuple_CheckExact(t) || PyTuple_GET_SIZE(t) != 14)
            return 0;
        e->row = arena_find(a, PyTuple_GET_ITEM(t, 2), 2);
        e->over = arena_find(a, PyTuple_GET_ITEM(t, 3), 2);
        e->mrow = arena_find(a, PyTuple_GET_ITEM(t, 9), 2);
        if (e->row < 0 || e->over < 0 || e->mrow < 0
            || !as_double(PyTuple_GET_ITEM(t, 0), &e->c)
            || !as_double(PyTuple_GET_ITEM(t, 1), &e->a)
            || !as_double(PyTuple_GET_ITEM(t, 4), &e->rp)
            || !as_double(PyTuple_GET_ITEM(t, 5), &e->cb)
            || !as_double(PyTuple_GET_ITEM(t, 6), &e->ml)
            || !as_double(PyTuple_GET_ITEM(t, 7), &e->ck)
            || !as_double(PyTuple_GET_ITEM(t, 8), &e->n2)
            || !as_bool(PyTuple_GET_ITEM(t, 10), &e->nd0)
            || !as_double(PyTuple_GET_ITEM(t, 12), &e->d)
            || !as_double(PyTuple_GET_ITEM(t, 13), &e->nsl))
            return 0;
        total = PyTuple_GET_ITEM(t, 11);
        e->has_total = total != Py_None;
        e->total = 0.0;
        if (e->has_total && !as_double(total, &e->total))
            return 0;
        /* Python divides by mlp every epoch and by num_slices whenever
         * the row drifts. */
        if (e->ml == 0.0 || (e->d > 0 && e->nsl == 0.0))
            return 0;
    }
    if (b->sc[2] == 0.0 || b->sc[3] == 0.0 || b->sc[4] == 0.0)
        return 0;
    return arena_load(a);
}

/* The epoch loop, statement for statement the Python body of
 * BatchedEngine._fused_epochs.  Returns 0 (with the arena possibly
 * modified but nothing written to Python) where Python would raise. */
static int
run_epochs(Batch *b, double epoch, Py_ssize_t kb)
{
    double *v = b->arena.v;
    char *dirty = b->arena.dirty;
    const double hit_ns = b->sc[0], local_dram = b->sc[1];
    const double bw0 = b->sc[2], bw1 = b->sc[3], qpi_bw = b->sc[4];
    const double s_dram = b->sc[5], s_remote = b->sc[6];
    const double cap = b->sc[7], knee = b->sc[8], bpm = b->sc[9];
    double *miss = v + b->miss;
    double *pend = v + b->acc_off[PEND], *busy = v + b->acc_off[BUSY];
    double *idone = v + b->acc_off[IDONE], *sused = v + b->acc_off[SUSED];
    double *burst = v + b->acc_off[BURST];
    double *bi = v + b->acc_off[BI], *br = v + b->acc_off[BR];
    double *bm = v + b->acc_off[BM], *bl = v + b->acc_off[BL];
    double *bx = v + b->acc_off[BX];
    double *m0l = v + b->acc_off[M0], *m1l = v + b->acc_off[M1];
    char *pend_dirty = dirty + b->acc_off[PEND];
    double mbusy = b->mbusy;
    Py_ssize_t tt, i, n;

    for (tt = 0; tt < kb; tt++) {
        for (n = 0; n < b->nplan; n++) {
            const PlanE *e = &b->plan_e[n];
            double f = e->bad ? 1.0 : e->share * v[e->w];
            double missing;
            if (e->shape == 1.0) {
                missing = 1.0 - f;
            } else {
                double base = 1.0 - f;
                if (!(base >= 0.0 && base <= 1.0))
                    return 0;
                errno = 0;
                missing = pow(base, e->shape);
                if (errno != 0 && !(errno == ERANGE && missing == 0.0))
                    return 0;
            }
            v[e->miss] = e->minmr + e->span * missing;
        }

        double imc0 = 0.0, imc1 = 0.0, qpi_t = 0.0;
        for (i = 0; i < b->nrows; i++) {
            const RowE *e = &b->row_e[i];
            double *row = v + e->row, *over = v + e->over;
            double *mrow = v + e->mrow;
            double m0 = e->c * row[0] + e->a * over[0];
            double m1 = e->c * row[1] + e->a * over[1];
            double s = m0 + m1;
            if (s == 0.0)
                return 0;
            double x0 = m0 / s;
            double x1 = m1 / s;
            mrow[0] = x0;
            mrow[1] = x1;
            double mr = miss[i];
            double per_ref_ns = (1.0 - mr) * hit_ns + mr * local_dram;
            double stall = e->rp * per_ref_ns * e->n2 / e->ml;
            double den = e->cb + stall;
            if (den == 0.0)
                return 0;
            double rate = e->ck / den;
            double t = rate * e->rp * mr * bpm;
            double flow0 = t * x0;
            double flow1 = t * x1;
            imc0 += flow0;
            imc1 += flow1;
            if (e->nd0)
                qpi_t += flow1;
            else
                qpi_t += flow0;
        }

        double rho0 = imc0 / bw0;
        double rho1 = imc1 / bw1;
        if ((!(rho0 >= knee) && rho0 == 1.0) || (!(rho1 >= knee) && rho1 == 1.0))
            return 0;
        double factor0 = rho0 >= knee ? cap : 1.0 / (1.0 - rho0);
        double factor1 = rho1 >= knee ? cap : 1.0 / (1.0 - rho1);
        double qpi_rho = qpi_t / qpi_bw;
        if (!(qpi_rho >= knee) && qpi_rho == 1.0)
            return 0;
        double qpi_factor = qpi_rho >= knee ? cap : 1.0 / (1.0 - qpi_rho);
        double dram0 = s_dram * factor0;
        double dram1 = s_dram * factor1;
        double remote_add = s_remote * qpi_factor;

        for (i = 0; i < b->nrows; i++) {
            const RowE *e = &b->row_e[i];
            double *row = v + e->row, *over = v + e->over;
            double *mrow = v + e->mrow;
            const int nd0 = e->nd0;
            double penalty = 0.0;
            double frac = mrow[0];
            if (frac > 0)
                penalty += nd0 ? frac * dram0 : frac * (dram0 + remote_add);
            frac = mrow[1];
            if (frac > 0)
                penalty += nd0 ? frac * (dram1 + remote_add) : frac * dram1;
            double mr = miss[i];
            double per_ref_ns = (1.0 - mr) * hit_ns + mr * penalty;
            double stall = e->rp * per_ref_ns * e->n2 / e->ml;
            double den = e->cb + stall;
            if (den == 0.0)
                return 0;
            double rate = e->ck / den;

            double compute;
            double pending = pend[i];
            if (pending > 0.0) {
                double used = pending < epoch ? pending : epoch;
                pend[i] = pending - used;
                pend_dirty[i] = 1;
                compute = epoch - used;
            } else {
                compute = epoch;
            }
            busy[i] += epoch;
            mbusy += epoch;
            double done = rate * compute;
            if (e->has_total) {
                double remaining = e->total - idone[i];
                if (remaining < 0.0)
                    remaining = 0.0;
                if (remaining < done)
                    done = remaining;
            }
            double r = done * e->rp;
            double mi = r * mr;
            double a0 = mi * mrow[0];
            double a1 = mi * mrow[1];
            m0l[i] += a0;
            m1l[i] += a1;
            bi[i] += done;
            br[i] += r;
            bm[i] += mi;
            double local = nd0 ? a0 : a1;
            bl[i] += local;
            bx[i] += (a0 + a1) - local;

            idone[i] += done;
            sused[i] += epoch;
            burst[i] -= epoch;
            if (e->d > 0) {
                double d = e->d;
                double r0 = row[0];
                double r1 = row[1];
                double keep = 1.0 - d;
                double n0 = r0 * keep;
                double n1 = r1 * keep;
                if (nd0)
                    n0 = n0 + d;
                else
                    n1 = n1 + d;
                row[0] = n0;
                row[1] = n1;
                over[0] += (n0 - r0) / e->nsl;
                over[1] += (n1 - r1) / e->nsl;
                dirty[e->row] = dirty[e->row + 1] = 1;
                dirty[e->over] = dirty[e->over + 1] = 1;
            }
        }

        for (n = 0; n < b->ncharge; n++) {
            const ChargeE *e = &b->charge_e[n];
            v[e->w] = 1.0 - (1.0 - v[e->w]) * e->cf;
        }
    }

    /* Slots every epoch assigns unconditionally. */
    for (n = 0; n < b->nplan; n++)
        dirty[b->plan_e[n].miss] = 1;
    for (n = 0; n < b->ncharge; n++)
        dirty[b->charge_e[n].w] = 1;
    for (i = 0; i < b->nrows; i++) {
        Py_ssize_t mrow = b->row_e[i].mrow;
        int acc;
        dirty[mrow] = dirty[mrow + 1] = 1;
        for (acc = 0; acc < NACC; acc++)
            if (acc != PEND)
                dirty[b->acc_off[acc] + i] = 1;
    }
    b->mbusy = mbusy;
    return 1;
}

static PyObject *
fused_epochs(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Batch b;
    double epoch;
    Py_ssize_t kb;
    PyObject *result = Py_None;

    (void)module;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "fused_epochs(state, epoch, kb) takes 3 arguments");
        return NULL;
    }
    if (!PyFloat_CheckExact(args[1]) || !PyLong_CheckExact(args[2]))
        Py_RETURN_NONE;
    epoch = PyFloat_AS_DOUBLE(args[1]);
    kb = PyLong_AsSsize_t(args[2]);
    if (kb < 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    if (kb == 0)
        Py_RETURN_TRUE;

    memset(&b, 0, sizeof(b));
    if (batch_load(&b, args[0]) && run_epochs(&b, epoch, kb)) {
        /* mbusy only moves when some VCPU ran; Python then stores a
         * float, otherwise it stores back the object it read. */
        PyObject *mbusy = NULL;
        if (b.nrows > 0 && (mbusy = PyFloat_FromDouble(b.mbusy)) == NULL)
            result = NULL;
        else if (!arena_store(&b.arena))
            result = NULL;
        else if (mbusy != NULL
                 && PyObject_SetAttr(args[0], mbusy_attr, mbusy) < 0)
            result = NULL;
        else
            result = Py_True;
        Py_XDECREF(mbusy);
    }
    batch_free(&b);
    if (result == NULL)
        return NULL;
    /* A decode that stopped on a raised lookup leaves Python to raise. */
    PyErr_Clear();
    Py_INCREF(result);
    return result;
}

static PyMethodDef fused_methods[] = {
    {"fused_epochs", (PyCFunction)(void (*)(void))fused_epochs, METH_FASTCALL,
     "fused_epochs(state, epoch, kb) -> True, or None to fall back to "
     "Python\n\nRun kb epochs of the fused scalar replay over state, "
     "bitwise equal to BatchedEngine._fused_epochs."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fused_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_fused",
    .m_doc = "Native kernel for the batched engine's fused scalar replay.",
    .m_size = -1,
    .m_methods = fused_methods,
};

PyMODINIT_FUNC
PyInit__fused(void)
{
    int i;
    for (i = 0; i < NACC; i++)
        if ((acc_attr[i] = PyUnicode_InternFromString(ACC_NAMES[i])) == NULL)
            return NULL;
    plan_attr = PyUnicode_InternFromString("plan");
    mbusy_attr = PyUnicode_InternFromString("mbusy");
    if (plan_attr == NULL || mbusy_attr == NULL)
        return NULL;
    return PyModule_Create(&fused_module);
}
