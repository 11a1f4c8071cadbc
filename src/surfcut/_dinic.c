/* Dinic maximum flow on threaded arc arrays, the compiled kernel.
 *
 * search(n, first, to, cap, nxt, s, t) -> (value, level) is
 * _dinic_py.search in C: the same arc arrays, the same source exit once every
 * arc leaving s is saturated, the same levels by residual distance to the
 * sink, searched backwards from t until s is labelled, the same blocking-flow
 * walk down those levels, and the same forward search from s in the last
 * phase, so level[v] >= 0 exactly on the residual source side.  The two files
 * implement one algorithm and are edited together.
 *
 * The arrays are read into C ints and int64 capacities; cap is not written
 * back.  A value that does not convert raises its own TypeError or
 * OverflowError.  ValueError is raised when s == t, when a vertex, an arc or
 * an array length is out of range, or when the arc lists overlap or loop.
 * Positive capacities must sum below 2**63 (else OverflowError): a residual
 * capacity is at most the sum of an arc's and its reverse's, and the flow at
 * most the sum of all, so no int64 sum can overflow.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

/* Read the len items of seq, each an int in [lo, hi], into ints or, if that
 * is NULL, into longs; returns -1 with an exception set otherwise. */
static int
read_items(PyObject *seq, Py_ssize_t len, const char *name, long long lo,
           long long hi, int *ints, long long *longs)
{
    PyObject *fast = PySequence_Fast(seq, "the arc arrays must be sequences");
    if (fast == NULL)
        return -1;
    Py_ssize_t i;
    /* the size is read at every item: the __index__ of an item that is no
     * int runs Python code, which may resize a list */
    for (i = 0; i < len && PySequence_Fast_GET_SIZE(fast) == len; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        Py_INCREF(item);
        long long x = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if (x == -1 && PyErr_Occurred())
            goto fail;
        if (x < lo || x > hi) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %lld is out of range",
                         name, i, x);
            goto fail;
        }
        if (ints != NULL)
            ints[i] = (int)x;
        else
            longs[i] = x;
    }
    if (PySequence_Fast_GET_SIZE(fast) != len) {
        PyErr_Format(PyExc_ValueError, "%s has %zd items, expected %zd",
                     name, PySequence_Fast_GET_SIZE(fast), len);
        goto fail;
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

/* Dinic's algorithm from s to t; leaves the residual source side's levels in
 * level and returns the flow value.  queue and path hold n items each. */
static long long
dinic(int n, const int *first, const int *to, long long *cap, const int *nxt,
      int s, int t, int *level, int *cur, int *queue, int *path)
{
    long long total = 0;
    for (;;) {
        /* source exit: every arc leaving s is saturated */
        int a = first[s];
        while (a != -1 && cap[a] <= 0)
            a = nxt[a];
        for (int v = 0; v < n; v++)
            level[v] = -1;
        if (a == -1) {
            level[s] = 0;
            return total;
        }
        /* levels from the sink, stopped once the source is labelled: u gets
         * v's level plus one when the arc from u to v, the reverse of an arc
         * leaving v, has residual capacity */
        level[t] = 0;
        queue[0] = t;
        int head = 0, tail = 1;
        while (head < tail && level[s] < 0) {
            int v = queue[head++];
            int d = level[v] + 1;
            for (a = first[v]; a != -1; a = nxt[a]) {
                int u = to[a];
                if (level[u] < 0 && cap[a ^ 1] > 0) {
                    level[u] = d;
                    if (u == s)
                        break;
                    queue[tail++] = u;
                }
            }
        }
        if (level[s] < 0) {
            /* the sink is out of reach: label the residual source side */
            for (int v = 0; v < n; v++)
                level[v] = -1;
            level[s] = 0;
            queue[0] = s;
            head = 0;
            tail = 1;
            while (head < tail) {
                int u = queue[head++];
                int d = level[u] + 1;
                for (a = first[u]; a != -1; a = nxt[a]) {
                    int v = to[a];
                    if (level[v] < 0 && cap[a] > 0) {
                        level[v] = d;
                        queue[tail++] = v;
                    }
                }
            }
            return total;
        }
        /* blocking flow: one depth-first walk along arcs one level down; cur
         * keeps each vertex's next arc to try, a dead end loses its level,
         * and after each augmentation the walk backs up to the tail of the
         * first arc it saturated */
        for (int v = 0; v < n; v++)
            cur[v] = first[v];
        int depth = 0, u = s, want = level[s] - 1;
        for (;;) {
            if (u == t) {
                long long pushed = cap[path[0]];
                for (int i = 1; i < depth; i++)
                    if (cap[path[i]] < pushed)
                        pushed = cap[path[i]];
                total += pushed;
                int k = -1;
                for (int i = 0; i < depth; i++) {
                    a = path[i];
                    cap[a] -= pushed;
                    cap[a ^ 1] += pushed;
                    if (k < 0 && cap[a] == 0)
                        k = i;
                }
                u = to[path[k] ^ 1];
                want = level[u] - 1;
                depth = k;
                continue;
            }
            a = cur[u];
            while (a != -1 && !(cap[a] > 0 && level[to[a]] == want))
                a = nxt[a];
            cur[u] = a;
            if (a != -1) {
                path[depth++] = a;
                u = to[a];
                want--;
            }
            else if (depth > 0) {
                level[u] = -1;
                u = to[path[--depth] ^ 1];
                want++;
            }
            else
                break;
        }
    }
}

static PyObject *
search(PyObject *self, PyObject *args)
{
    (void)self;
    Py_ssize_t n, s, t;
    PyObject *first_obj, *to_obj, *cap_obj, *nxt_obj;
    if (!PyArg_ParseTuple(args, "nOOOOnn:search", &n, &first_obj, &to_obj,
                          &cap_obj, &nxt_obj, &s, &t))
        return NULL;
    if (s == t) {
        PyErr_SetString(PyExc_ValueError, "source equals sink");
        return NULL;
    }
    if (n < 0 || n > INT_MAX || s < 0 || s >= n || t < 0 || t >= n) {
        PyErr_SetString(PyExc_ValueError, "terminal out of range");
        return NULL;
    }
    Py_ssize_t na = PyObject_Length(to_obj);
    if (na < 0)
        return NULL;
    if (na % 2 != 0 || na > INT_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "to holds an odd or too large number of arcs");
        return NULL;
    }

    PyObject *result = NULL;
    int *ints = PyMem_New(int, 5 * n + 2 * na);
    long long *cap = PyMem_New(long long, na);
    if (ints == NULL || cap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *first = ints, *level = first + n, *cur = level + n,
        *queue = cur + n, *path = queue + n, *to = path + n, *nxt = to + na;
    if (read_items(first_obj, n, "first", -1, na - 1, first, NULL) < 0
            || read_items(to_obj, na, "to", 0, n - 1, to, NULL) < 0
            || read_items(nxt_obj, na, "nxt", -1, na - 1, nxt, NULL) < 0
            || read_items(cap_obj, na, "cap", LLONG_MIN, LLONG_MAX, NULL,
                          cap) < 0)
        goto done;
    long long positive = 0;
    for (Py_ssize_t a = 0; a < na; a++)
        if (cap[a] > 0) {
            if (cap[a] > LLONG_MAX - positive) {
                PyErr_SetString(PyExc_OverflowError,
                                "capacities sum past the int64 range");
                goto done;
            }
            positive += cap[a];
        }
    /* every walk along the arc lists ends if no arc is threaded twice */
    Py_ssize_t threaded = 0;
    for (int u = 0; u < n; u++)
        for (int a = first[u]; a != -1; a = nxt[a])
            if (++threaded > na) {
                PyErr_SetString(PyExc_ValueError,
                                "the arc lists overlap or loop");
                goto done;
            }

    long long value = dinic((int)n, first, to, cap, nxt, (int)s, (int)t,
                            level, cur, queue, path);
    PyObject *levels = PyList_New(n);
    if (levels == NULL)
        goto done;
    for (Py_ssize_t v = 0; v < n; v++) {
        PyObject *x = PyLong_FromLong(level[v]);
        if (x == NULL) {
            Py_DECREF(levels);
            goto done;
        }
        PyList_SET_ITEM(levels, v, x);
    }
    result = Py_BuildValue("(LN)", value, levels);
done:
    PyMem_Free(ints);
    PyMem_Free(cap);
    return result;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(n, first, to, cap, nxt, s, t) -> (value, level)\n\n"
     "Dinic's algorithm on threaded arc arrays, as _dinic_py.search; cap is\n"
     "left as it was.  level[v] >= 0 exactly for the vertices\n"
     "residual-reachable from s, the source side of a minimum cut."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_dinic",
    "Dinic maximum flow on threaded arc arrays, compiled kernel.", -1,
    methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__dinic(void)
{
    return PyModule_Create(&module);
}
