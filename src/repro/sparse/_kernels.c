/* Block-4 ILU factorization and triangular solve over BCSR factors: one
 * call per recurrence instead of one NumPy dispatch per wavefront.
 *
 * Built by repro/sparse/native.py with
 *     cc -O2 -ffp-contract=off -shared -fPIC
 * No -march=native, no -ffast-math and no fused multiply-add: every host
 * executes the same sequence of IEEE double multiplies and adds, so a
 * solve repeats bit for bit across machines and across forked ranks.
 *
 * Layout (see repro/sparse/ilu.py): row i owns blocks rowptr[i] ..
 * rowptr[i+1]-1 with ascending block columns cols[]; diag_idx[i] is the
 * position of its diagonal block; blocks are row-major 4x4 doubles.
 */
#include <math.h>
#include <stdint.h>

#define B 4
#define BB 16

/* C = X Y */
static void gemm(double *C, const double *X, const double *Y)
{
    for (int r = 0; r < B; r++)
        for (int c = 0; c < B; c++) {
            double s = X[r * B] * Y[c];
            for (int j = 1; j < B; j++)
                s += X[r * B + j] * Y[j * B + c];
            C[r * B + c] = s;
        }
}

/* inv = A^-1 by Gauss-Jordan with partial pivoting; 1 when a pivot is
 * exactly zero (singular).  NaN/Inf never compare equal to zero, so they
 * propagate into the result as they do through LAPACK. */
static int inv4(const double *A, double *inv)
{
    double M[B][2 * B];
    for (int r = 0; r < B; r++)
        for (int c = 0; c < B; c++) {
            M[r][c] = A[r * B + c];
            M[r][B + c] = (r == c) ? 1.0 : 0.0;
        }
    for (int k = 0; k < B; k++) {
        int piv = k;
        double best = fabs(M[k][k]);
        for (int r = k + 1; r < B; r++)
            if (fabs(M[r][k]) > best) {
                best = fabs(M[r][k]);
                piv = r;
            }
        if (best == 0.0)
            return 1;
        if (piv != k)
            for (int c = 0; c < 2 * B; c++) {
                double t = M[k][c];
                M[k][c] = M[piv][c];
                M[piv][c] = t;
            }
        const double p = M[k][k];
        for (int c = 0; c < 2 * B; c++)
            M[k][c] /= p;
        for (int r = 0; r < B; r++) {
            if (r == k)
                continue;
            const double f = M[r][k];
            for (int c = 0; c < 2 * B; c++)
                M[r][c] -= f * M[k][c];
        }
    }
    for (int r = 0; r < B; r++)
        for (int c = 0; c < B; c++)
            inv[r * B + c] = M[r][B + c];
    return 0;
}

/* Row-by-row IKJ block ILU in place on the factor pattern.  vals holds the
 * matrix scattered into the pattern (fill entries zero) and leaves as L
 * (unit lower, diagonal implied) and U; diag_inv receives the inverted
 * diagonal blocks of U.  pos is an n-entry scratch, all -1 on entry and
 * again on every return.  Returns -1, or the row of a singular diagonal
 * block. */
int64_t ilu4(int64_t n, const int64_t *rowptr, const int64_t *cols,
             const int64_t *diag_idx, double *vals, double *diag_inv,
             int64_t *pos)
{
    for (int64_t i = 0; i < n; i++) {
        const int64_t lo = rowptr[i], hi = rowptr[i + 1], d = diag_idx[i];
        for (int64_t p = lo; p < hi; p++)
            pos[cols[p]] = p;
        for (int64_t p = lo; p < d; p++) {
            const int64_t k = cols[p];
            double L[BB], upd[BB];
            gemm(L, vals + p * BB, diag_inv + k * BB);
            for (int e = 0; e < BB; e++)
                vals[p * BB + e] = L[e];
            /* A_ij -= L_ik U_kj for j in (row k beyond k) ∩ row i */
            for (int64_t q = diag_idx[k] + 1; q < rowptr[k + 1]; q++) {
                const int64_t t = pos[cols[q]];
                if (t < 0)
                    continue;
                gemm(upd, L, vals + q * BB);
                for (int e = 0; e < BB; e++)
                    vals[t * BB + e] -= upd[e];
            }
        }
        const int singular = inv4(vals + d * BB, diag_inv + i * BB);
        for (int64_t p = lo; p < hi; p++)
            pos[cols[p]] = -1;
        if (singular)
            return i;
    }
    return -1;
}

/* acc -= sum_p vals[p] x[cols[p]] over blocks p0 .. p1-1, each product as
 * four column axpys (y0 first): the explicit order of
 * trsv_solve_sequential, which trsv4 reproduces bitwise.  The accumulator
 * lives in four scalars so it stays in registers across the row. */
static inline void row_sweep(double *acc, const double *vals,
                             const int64_t *cols, const double *x,
                             int64_t p0, int64_t p1)
{
    double a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
    for (int64_t p = p0; p < p1; p++) {
        const double *V = vals + p * BB;
        const double *y = x + cols[p] * B;
        const double y0 = y[0], y1 = y[1], y2 = y[2], y3 = y[3];
        a0 -= V[0] * y0;  a1 -= V[4] * y0;  a2 -= V[8] * y0;   a3 -= V[12] * y0;
        a0 -= V[1] * y1;  a1 -= V[5] * y1;  a2 -= V[9] * y1;   a3 -= V[13] * y1;
        a0 -= V[2] * y2;  a1 -= V[6] * y2;  a2 -= V[10] * y2;  a3 -= V[14] * y2;
        a0 -= V[3] * y3;  a1 -= V[7] * y3;  a2 -= V[11] * y3;  a3 -= V[15] * y3;
    }
    acc[0] = a0; acc[1] = a1; acc[2] = a2; acc[3] = a3;
}

/* x = (LU)^-1 rhs: forward substitution on unit-lower L, then backward on
 * U with the stored inverted diagonal blocks, both in place in x (rhs may
 * alias x). */
void trsv4(int64_t n, const int64_t *rowptr, const int64_t *cols,
           const int64_t *diag_idx, const double *vals,
           const double *diag_inv, const double *rhs, double *x)
{
    double acc[B];
    for (int64_t i = 0; i < n; i++) {
        for (int r = 0; r < B; r++)
            acc[r] = rhs[i * B + r];
        row_sweep(acc, vals, cols, x, rowptr[i], diag_idx[i]);
        for (int r = 0; r < B; r++)
            x[i * B + r] = acc[r];
    }
    for (int64_t i = n - 1; i >= 0; i--) {
        for (int r = 0; r < B; r++)
            acc[r] = x[i * B + r];
        row_sweep(acc, vals, cols, x, diag_idx[i] + 1, rowptr[i + 1]);
        const double *D = diag_inv + i * BB;
        for (int r = 0; r < B; r++) {
            double s = D[r * B] * acc[0];
            for (int j = 1; j < B; j++)
                s += D[r * B + j] * acc[j];
            x[i * B + r] = s;
        }
    }
}
