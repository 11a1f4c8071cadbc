/* Boykov-Kolmogorov maximum flow on threaded arc arrays, the compiled
 * kernel.
 *
 * search(n, first, to, cap, nxt, s, t) -> (value, level) is
 * _dinic_py.search in C: the same arc arrays, the same source exit, checked
 * before any growth and after every augmentation, once every arc leaving s
 * is saturated, and the same two search trees, grown once per call from s
 * and t, with one FIFO of active vertices that keep their current arcs
 * across augmentations and the same adoption of the orphans an
 * augmentation cuts off.  The call ends when no vertex is active; the
 * source tree is then exactly the residual source side, the source side of
 * the least minimum cut, so level[v] >= 0 exactly there, whatever maximum
 * flow was found.  The two files implement one algorithm and are edited
 * together.  Its augmenting paths are not shortest paths, so it has no
 * strongly polynomial bound (O(m n^2 |C|) in the paper, IEEE TPAMI 26(9),
 * 2004).  On 800 stress pairs in four families (_dinic_py's docstring names
 * them) it made 1.01-1.16x the augmenting paths of Dinic's algorithm per
 * family, 113 against 74 at worst on one pair; oracle.dinic_search keeps
 * Dinic's algorithm as the tests' reference.  The module keeps the name
 * _dinic, which predates the algorithm, so that setup.py, CI and the
 * imports stay as they are.
 *
 * The arrays are read into C ints and int64 capacities; cap is not written
 * back.  A value that does not convert raises its own TypeError or
 * OverflowError.  ValueError is raised when s == t, when a vertex, an arc or
 * an array length is out of range, or when the arc lists overlap or loop.
 * Positive capacities must sum below 2**63, else OverflowError: a residual
 * capacity is at most the sum of an arc's and its reverse's, and the flow at
 * most the sum of all, so no int64 sum can overflow.  That OverflowError is
 * the only 64-bit guard: cuttree.max_flow_on_arcs hands such a network to
 * _dinic_py on it, and checks no capacities of its own.
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

/* Put v at the back of the active FIFO, a ring of n slots, unless it waits
 * there already; its scan starts over at its first arc either way. */
static void
activate(int v, int n, const int *first, int *cur, int *queued, int *queue,
         int head, int *count)
{
    cur[v] = first[v];
    if (!queued[v]) {
        queued[v] = 1;
        queue[(head + (*count)++) % n] = v;
    }
}

/* The Boykov-Kolmogorov algorithm from s to t, as _dinic_py.search; returns
 * the flow value and leaves tree[v] > 0 exactly on the residual source side.
 * tree[v] is 1 in the source tree, -1 in the sink tree and 0 when free;
 * par[v] is the arc from v to its parent, -2 at the roots and -1 at a free
 * vertex or an orphan.  cur, queued, queue and orphans hold n items each:
 * a vertex waits in the FIFO at most once, and it is pushed on the orphan
 * stack only when its parent arc is cut, so neither holds more than n. */
static long long
bk(int n, const int *first, const int *to, long long *cap, const int *nxt,
   int s, int t, int *tree, int *par, int *cur, int *queued, int *queue,
   int *orphans)
{
    long long total = 0;
    int a = first[s];
    while (a != -1 && cap[a] <= 0)
        a = nxt[a];
    for (int v = 0; v < n; v++) {
        tree[v] = 0;
        par[v] = -1;
        queued[v] = 0;
    }
    tree[s] = 1;
    if (a == -1)                /* every arc leaving s is saturated */
        return total;
    tree[t] = -1;
    par[s] = par[t] = -2;
    int head = 0, count = 0, norphans = 0;
    activate(s, n, first, cur, queued, queue, head, &count);
    activate(t, n, first, cur, queued, queue, head, &count);
    while (count > 0) {
        int v = queue[head];
        int side = tree[v];
        /* growth: scan v's arcs from its current arc; a free vertex joins
         * v's tree, and an arc into the other tree ends the scan */
        for (a = side != 0 ? cur[v] : -1; a != -1; a = nxt[a]) {
            if (cap[side > 0 ? a : a ^ 1] <= 0)
                continue;
            int w = to[a];
            if (tree[w] == 0) {
                tree[w] = side;
                par[w] = a ^ 1;
                activate(w, n, first, cur, queued, queue, head, &count);
            }
            else if (tree[w] != side)
                break;
        }
        if (a == -1) {
            /* v is scanned, or it was freed while it waited */
            queued[v] = 0;
            head = (head + 1) % n;
            count--;
            continue;
        }
        cur[v] = a;
        /* augmentation along the bridge b from the source tree to the sink
         * tree: the bottleneck, then the push, which orphans every vertex
         * whose arc from its parent saturates */
        int b = side > 0 ? a : a ^ 1, u, e;
        long long d = cap[b];
        for (u = to[b ^ 1]; (e = par[u]) >= 0; u = to[e])
            if (cap[e ^ 1] < d)
                d = cap[e ^ 1];
        for (u = to[b]; (e = par[u]) >= 0; u = to[e])
            if (cap[e] < d)
                d = cap[e];
        total += d;
        cap[b] -= d;
        cap[b ^ 1] += d;
        for (u = to[b ^ 1]; (e = par[u]) >= 0; u = to[e]) {
            cap[e] += d;
            cap[e ^ 1] -= d;
            if (cap[e ^ 1] == 0) {
                par[u] = -1;
                orphans[norphans++] = u;
            }
        }
        for (u = to[b]; (e = par[u]) >= 0; u = to[e]) {
            cap[e] -= d;
            cap[e ^ 1] += d;
            if (cap[e] == 0) {
                par[u] = -1;
                orphans[norphans++] = u;
            }
        }
        a = first[s];
        while (a != -1 && cap[a] <= 0)
            a = nxt[a];
        if (a == -1) {          /* the source exit */
            for (int x = 0; x < n; x++)
                tree[x] = 0;
            tree[s] = 1;
            return total;
        }
        /* adoption: an orphan takes a same-tree neighbour, with a residual
         * arc on the tree's side, whose parent chain reaches the root, or
         * else it is freed, its children become orphans and the neighbours
         * that could grow into it again become active */
        while (norphans > 0) {
            u = orphans[--norphans];
            side = tree[u];
            for (a = first[u]; a != -1; a = nxt[a]) {
                int w = to[a];
                if (tree[w] != side || cap[side > 0 ? a ^ 1 : a] <= 0)
                    continue;
                int x = w;
                while (par[x] >= 0)
                    x = to[par[x]];
                if (par[x] == -2)
                    break;
            }
            if (a != -1) {
                par[u] = a;
                continue;
            }
            tree[u] = 0;
            for (a = first[u]; a != -1; a = nxt[a]) {
                int w = to[a];
                if (tree[w] != side)
                    continue;
                e = par[w];
                if (e >= 0 && to[e] == u) {
                    par[w] = -1;
                    orphans[norphans++] = w;
                }
                if (cap[side > 0 ? a ^ 1 : a] > 0)
                    activate(w, n, first, cur, queued, queue, head, &count);
            }
        }
    }
    return total;
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
    int *ints = PyMem_New(int, 7 * n + 2 * na);
    long long *cap = PyMem_New(long long, na);
    if (ints == NULL || cap == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *first = ints, *tree = first + n, *par = tree + n, *cur = par + n,
        *queued = cur + n, *queue = queued + n, *orphans = queue + n,
        *to = orphans + n, *nxt = to + na;
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

    long long value = bk((int)n, first, to, cap, nxt, (int)s, (int)t, tree,
                         par, cur, queued, queue, orphans);
    PyObject *levels = PyList_New(n);
    if (levels == NULL)
        goto done;
    for (Py_ssize_t v = 0; v < n; v++) {
        PyObject *x = PyLong_FromLong(tree[v] > 0 ? 0 : -1);
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
     "Boykov-Kolmogorov max-flow on threaded arc arrays, as\n"
     "_dinic_py.search; cap is left as it was.  level[v] >= 0 exactly for\n"
     "the vertices residual-reachable from s, the source side of the least\n"
     "minimum cut."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_dinic",
    "Boykov-Kolmogorov maximum flow on threaded arc arrays, compiled kernel.",
    -1,
    methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__dinic(void)
{
    return PyModule_Create(&module);
}
