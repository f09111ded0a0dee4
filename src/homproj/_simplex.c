/* Dense tableau simplex, compiled backend: the full-tableau reference loop.
 *
 * Each program runs the scalar Bland's-rule loop alone; ``_simplex_py`` keeps only
 * the nonbasic columns and matches every result bit for bit (build with
 * -ffp-contract=off: a fused multiply-add in the row update would round differently).
 * Plain C, no Python or numpy headers; ``_simplex_ctypes.py`` binds it.
 */
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
    int64_t ncols = n + m, w = ncols + 1;
    double *T = malloc(sizeof(double) * (m + 1) * w);
    int64_t *basis = malloc(sizeof(int64_t) * (m + 1));
    if (T == NULL || basis == NULL) {
        free(T);
        free(basis);
        return -1;
    }
    for (int64_t k = 0; k < B; k++) {
        const double *Ak = A + k * m * n;
        double *xk = x + k * n, *obj_row = T + m * w;
        memset(T, 0, sizeof(double) * (m + 1) * w);
        for (int64_t i = 0; i < m; i++) {
            memcpy(T + i * w, Ak + i * n, sizeof(double) * n);
            T[i * w + n + i] = 1.0;
            T[i * w + ncols] = b[i];
            basis[i] = n + i;
        }
        for (int64_t j = 0; j < n; j++)
            obj_row[j] = -c[j];
        status[k] = OPTIMAL;
        obj[k] = 0.0;
        memset(xk, 0, sizeof(double) * n);

        for (;;) {
            /* entering column: the lowest index with a reduced cost below -tol */
            int64_t col = -1, row = -1;
            for (int64_t j = 0; j < ncols && col < 0; j++)
                if (obj_row[j] < -tol)
                    col = j;
            if (col < 0)
                break;
            /* ratio test over rows with a > tol; ties go to the lowest basic index */
            double best = 0.0;
            for (int64_t i = 0; i < m; i++) {
                double a = T[i * w + col];
                if (a > tol) {
                    double ratio = T[i * w + ncols] / a;
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
            /* pivot; rows with f == 0 are left alone, which keeps signed zeros */
            double *p = T + row * w, piv = p[col];
            for (int64_t j = 0; j < w; j++)
                p[j] /= piv;
            for (int64_t i = 0; i <= m; i++) {
                double *r = T + i * w, f = r[col];
                if (i == row || f == 0.0)
                    continue;
                for (int64_t j = 0; j < w; j++)
                    r[j] -= f * p[j];
                r[col] = 0.0;
            }
            basis[row] = col;
        }
        if (status[k] == OPTIMAL) {
            obj[k] = obj_row[ncols];
            for (int64_t i = 0; i < m; i++)
                if (basis[i] < n)
                    xk[basis[i]] = T[i * w + ncols];
        }
    }
    free(T);
    free(basis);
    return 0;
}
