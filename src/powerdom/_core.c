/* Compiled propagation engine: multi-word bitsets in flat C arrays.

   Same contract as _pycore.PropagationCore, and the same rounds: S[1] is
   N[S], and each later forcing round scans only the observed vertices in
   N[new], where new is what the round before added, and a run stops as soon
   as V is observed (the _pycore docstring gives both arguments). Vertex sets
   cross the boundary as Python ints, through int.to_bytes / int.from_bytes
   in little-endian order; a set that fits in one 64-bit word goes through
   PyLong_AsUnsignedLongLong instead, which skips the bytes object and about
   halves the call time when n <= 64. Only the public CPython API is used. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) || defined(__clang__)
#define CTZ(x) __builtin_ctzll(x)
#else
static int CTZ(uint64_t x) { int c = 0; while (!(x & 1)) { x >>= 1; c++; } return c; }
#endif

/* int.to_bytes and int.from_bytes, looked up on int itself so that an int
   subclass cannot override them */
static PyObject *int_to_bytes, *int_from_bytes, *str_little;

typedef struct {
    PyObject_HEAD
    Py_ssize_t n, W;      /* vertices, 64-bit words per set (at least 1) */
    PyObject *nbytes;     /* W * 8 as a Python int, for int.to_bytes */
    uint64_t *adj;        /* n rows of W words */
    uint64_t *cur, *nxt, *act, *tmp;  /* W words each */
} Core;

static int range_error(const char *what, Py_ssize_t n)
{
    PyErr_Format(PyExc_ValueError, "%s out of range: need 0 <= %s < 1 << n with n = %zd",
                 what, what, n);
    return -1;
}

/* Unpack a Python int into W words at out; ValueError unless 0 <= x < 1 << n. */
static int to_words(const Core *self, PyObject *x, uint64_t *out, const char *what)
{
    const Py_ssize_t n = self->n, W = self->W;
    if (!PyLong_Check(x)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s", what,
                     Py_TYPE(x)->tp_name);
        return -1;
    }
    if (W == 1) {
        unsigned long long v = PyLong_AsUnsignedLongLong(x);
        if (v == (unsigned long long)-1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                return -1;
            PyErr_Clear();
            return range_error(what, n);
        }
        out[0] = v;
    } else {
        PyObject *b = PyObject_CallFunctionObjArgs(int_to_bytes, x, self->nbytes, str_little, NULL);
        if (b == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                return -1;
            PyErr_Clear();
            return range_error(what, n);
        }
        const unsigned char *p = (const unsigned char *)PyBytes_AS_STRING(b);
        for (Py_ssize_t w = 0; w < W; w++) {
            uint64_t v = 0;
            for (int i = 7; i >= 0; i--)
                v = (v << 8) | p[w * 8 + i];
            out[w] = v;
        }
        Py_DECREF(b);
    }
    if ((n % 64 && out[W - 1] >> (n % 64)) || (n == 0 && out[0]))
        return range_error(what, n);
    return 0;
}

static PyObject *from_words(const Core *self, const uint64_t *words)
{
    if (self->W == 1)
        return PyLong_FromUnsignedLongLong(words[0]);
    PyObject *b = PyBytes_FromStringAndSize(NULL, self->W * 8);
    if (b == NULL)
        return NULL;
    unsigned char *p = (unsigned char *)PyBytes_AS_STRING(b);
    for (Py_ssize_t w = 0; w < self->W; w++)
        for (int i = 0; i < 8; i++)
            p[w * 8 + i] = (unsigned char)(words[w] >> (8 * i));
    PyObject *out = PyObject_CallFunctionObjArgs(int_from_bytes, b, str_little, NULL);
    Py_DECREF(b);
    return out;
}

/* out = N[m] = m | the neighbours of every vertex in m. */
static void closed_nbhd(const Core *self, const uint64_t *m, uint64_t *out)
{
    const Py_ssize_t W = self->W;
    memcpy(out, m, W * sizeof(uint64_t));
    for (Py_ssize_t w = 0; w < W; w++)
        for (uint64_t bits = m[w]; bits; bits &= bits - 1) {
            const uint64_t *row = self->adj + (w * 64 + CTZ(bits)) * W;
            for (Py_ssize_t t = 0; t < W; t++)
                out[t] |= row[t];
        }
}

/* 1 iff m holds all n vertices. */
static int is_full(const Core *self, const uint64_t *m)
{
    const Py_ssize_t W = self->W, r = self->n % 64;
    for (Py_ssize_t t = 0; t < W - 1; t++)
        if (~m[t])
            return 0;
    return m[W - 1] == (r ? ((uint64_t)1 << r) - 1 : ~(uint64_t)0);
}

/* Run the rounds from cur (already loaded). Append each new layer to layers
   when it is not NULL. Return the number of rounds that changed the set, or
   -1 with an exception set. */
static Py_ssize_t run(Core *self, PyObject *layers)
{
    const Py_ssize_t W = self->W;
    const size_t size = W * sizeof(uint64_t);
    uint64_t *cur = self->cur, *nxt = self->nxt, *act = self->act, *tmp = self->tmp;
    Py_ssize_t steps = 0;

    closed_nbhd(self, cur, nxt);
    memcpy(act, nxt, size);
    while (memcmp(nxt, cur, size) != 0) {
        memcpy(cur, nxt, size);
        steps++;
        if (layers != NULL) {
            PyObject *layer = from_words(self, cur);
            if (layer == NULL || PyList_Append(layers, layer) < 0) {
                Py_XDECREF(layer);
                return -1;
            }
            Py_DECREF(layer);
        }
        /* with V observed nothing is left to force: S[steps + 1] = S[steps] */
        if (is_full(self, cur))
            break;
        /* one forcing round: each active vertex with exactly one unobserved
           neighbour observes it */
        for (Py_ssize_t w = 0; w < W; w++)
            for (uint64_t bits = act[w]; bits; bits &= bits - 1) {
                const uint64_t *row = self->adj + (w * 64 + CTZ(bits)) * W;
                Py_ssize_t hit = -1;
                for (Py_ssize_t t = 0; t < W; t++) {
                    uint64_t u = row[t] & ~cur[t];
                    if (!u)
                        continue;
                    if (hit >= 0 || (u & (u - 1))) {
                        hit = -2;
                        break;
                    }
                    hit = t;
                }
                if (hit >= 0)
                    nxt[hit] |= row[hit] & ~cur[hit];
            }
        /* next round's active set: N[nxt \ cur] & nxt */
        for (Py_ssize_t t = 0; t < W; t++)
            tmp[t] = nxt[t] & ~cur[t];
        closed_nbhd(self, tmp, act);
        for (Py_ssize_t t = 0; t < W; t++)
            act[t] &= nxt[t];
    }
    return steps;
}

static PyObject *Core_fixed_point(Core *self, PyObject *start)
{
    if (to_words(self, start, self->cur, "mask") < 0)
        return NULL;
    Py_ssize_t steps = run(self, NULL);
    PyObject *final = from_words(self, self->cur);
    if (final == NULL)
        return NULL;
    return Py_BuildValue("(Nn)", final, steps);
}

static PyObject *Core_layer_masks(Core *self, PyObject *start)
{
    if (to_words(self, start, self->cur, "mask") < 0)
        return NULL;
    PyObject *layers = PyList_New(1);
    if (layers == NULL)
        return NULL;
    Py_INCREF(start);
    PyList_SET_ITEM(layers, 0, start);
    if (run(self, layers) < 0) {
        Py_DECREF(layers);
        return NULL;
    }
    return layers;
}

static void Core_dealloc(Core *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyMem_Free(self->adj);
    PyMem_Free(self->cur);
    Py_XDECREF(self->nbytes);
    tp->tp_free((PyObject *)self);
    Py_DECREF(tp);
}

static PyObject *Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"adj_masks", "n", NULL};
    PyObject *adj_masks;
    Py_ssize_t n;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "On:PropagationCore", kwlist, &adj_masks, &n))
        return NULL;
    PyObject *rows = PySequence_Fast(adj_masks, "adj_masks must be a sequence");
    if (rows == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(rows) != n) {
        PyErr_Format(PyExc_ValueError, "adj_masks has %zd rows, expected n = %zd",
                     PySequence_Fast_GET_SIZE(rows), n);
        Py_DECREF(rows);
        return NULL;
    }
    Core *self = (Core *)type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(rows);
        return NULL;
    }
    self->n = n;
    self->W = n > 0 ? (n + 63) / 64 : 1;
    self->nbytes = PyLong_FromSsize_t(self->W * 8);
    self->adj = PyMem_Calloc((size_t)(n > 0 ? n : 1) * self->W, sizeof(uint64_t));
    self->cur = PyMem_Calloc(4 * (size_t)self->W, sizeof(uint64_t));
    if (self->nbytes == NULL || self->adj == NULL || self->cur == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto fail;
    }
    self->nxt = self->cur + self->W;
    self->act = self->nxt + self->W;
    self->tmp = self->act + self->W;
    for (Py_ssize_t v = 0; v < n; v++)
        if (to_words(self, PySequence_Fast_GET_ITEM(rows, v), self->adj + v * self->W,
                     "adj_masks row") < 0)
            goto fail;
    Py_DECREF(rows);
    return (PyObject *)self;
fail:
    Py_DECREF(rows);
    Py_DECREF(self);
    return NULL;
}

static PyMethodDef Core_methods[] = {
    {"fixed_point", (PyCFunction)Core_fixed_point, METH_O,
     "Run to the fixed point; return (final mask, least l with S[l+1] == S[l])."},
    {"layer_masks", (PyCFunction)Core_layer_masks, METH_O,
     "All distinct layers S[0], S[1], ... up to the fixed point."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot Core_slots[] = {
    {Py_tp_doc, "Observation process runner bound to one graph's adjacency masks."},
    {Py_tp_new, Core_new},
    {Py_tp_dealloc, Core_dealloc},
    {Py_tp_methods, Core_methods},
    {0, NULL},
};

static PyType_Spec Core_spec = {
    "powerdom._core.PropagationCore", sizeof(Core), 0, Py_TPFLAGS_DEFAULT, Core_slots,
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core", "Compiled propagation engine.", -1, NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    int_to_bytes = PyObject_GetAttrString((PyObject *)&PyLong_Type, "to_bytes");
    int_from_bytes = PyObject_GetAttrString((PyObject *)&PyLong_Type, "from_bytes");
    str_little = PyUnicode_InternFromString("little");
    if (int_to_bytes == NULL || int_from_bytes == NULL || str_little == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    PyObject *type = PyType_FromSpec(&Core_spec);
    if (type == NULL || PyModule_AddObject(module, "PropagationCore", type) < 0) {
        Py_XDECREF(type);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
