/* Dense tableau simplex, compiled backend: ``_simplex_py._solve_chunk``'s algorithm, run
 * one program at a time. The condensed (Tucker) tableau holds the nonbasic columns and the
 * rhs, with a variable label per row and per column, and takes numpy's float operations in
 * numpy's order, so every result matches it bit for bit (build with -ffp-contract=off: a
 * fused multiply-add in the row update would round differently). Plain C, no Python or
 * numpy headers; ``_simplex_ctypes.py`` binds it. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OPTIMAL = 0, UNBOUNDED = 1 };

/* Solve B programs max c.x, A[k] x <= b, x >= 0 (every b[i] >= 0), all
 * pivoting at tol (``_simplex_py.PIVOT_TOL``). A is B x m x n, row-major;
 * b (m) and c (n) are shared by the batch. Writes status[B], obj[B] and
 * x[B x n]; an unbounded program gets objective 0 and x = 0. Returns 0, or
 * -1 when the tableau cannot be allocated. */
int simplex_maximize_batch(int64_t B, int64_t m, int64_t n, double tol, const double *A,
                           const double *b, const double *c, int64_t *status,
                           double *obj, double *x)
{
    int64_t w = n + 1;
    double *T = malloc(sizeof(double) * (m + 1) * w);
    /* the variable of each row (basis) and of each column (cols): x_j is j, slack i is n + i */
    int64_t *basis = malloc(sizeof(int64_t) * (m + n + 1)), *cols = basis + m;
    if (T == NULL || basis == NULL) {
        free(T);
        free(basis);
        return -1;
    }
    for (int64_t k = 0; k < B; k++) {
        const double *Ak = A + k * m * n;
        double *xk = x + k * n, *obj_row = T + m * w;
        for (int64_t i = 0; i < m; i++) {
            memcpy(T + i * w, Ak + i * n, sizeof(double) * n);
            T[i * w + n] = b[i];
            basis[i] = n + i;
        }
        for (int64_t j = 0; j < n; j++) {
            obj_row[j] = -c[j];
            cols[j] = j;
        }
        obj_row[n] = 0.0;
        status[k] = OPTIMAL;
        memset(xk, 0, sizeof(double) * n);

        for (;;) {
            /* entering column: the lowest variable with a reduced cost below -tol */
            int64_t col = -1, row = -1;
            for (int64_t j = 0; j < n; j++)
                if (obj_row[j] < -tol && (col < 0 || cols[j] < cols[col]))
                    col = j;
            if (col < 0)
                break;
            /* ratio test over rows with a > tol; ties go to the lowest basic variable */
            double best = 0.0;
            for (int64_t i = 0; i < m; i++) {
                double a = T[i * w + col];
                if (a > tol) {
                    double ratio = T[i * w + n] / a;
                    if (row < 0 || ratio < best || (ratio == best && basis[i] < basis[row])) {
                        row = i;
                        best = ratio;
                    }
                }
            }
            if (row < 0) {
                status[k] = UNBOUNDED;
                break;
            }
            /* pivot: column col takes the leaving variable, whose column is e_row before the
               row operations; a row with f == 0 keeps its other entries and their zero signs */
            double *p = T + row * w, piv = p[col];
            p[col] = 1.0;
            for (int64_t j = 0; j < w; j++)
                p[j] /= piv;
            for (int64_t i = 0; i <= m; i++) {
                double *r = T + i * w, f = r[col];
                if (i == row)
                    continue;
                r[col] = 0.0;
                if (f != 0.0)
                    for (int64_t j = 0; j < w; j++)
                        r[j] -= f * p[j];
            }
            int64_t leaving = basis[row];
            basis[row] = cols[col];
            cols[col] = leaving;
        }
        obj[k] = status[k] == OPTIMAL ? obj_row[n] : 0.0;
        for (int64_t i = 0; i < m && status[k] == OPTIMAL; i++)
            if (basis[i] < n)
                xk[basis[i]] = T[i * w + n];
    }
    free(T);
    free(basis);
    return 0;
}
