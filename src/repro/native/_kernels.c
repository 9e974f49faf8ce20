/* The package's compiled kernels, one translation unit: three kernel
 * families and the thread team that runs them:
 *
 *   ilu_symbolic / ilu4 / trsv4 / dep_depth
 *                  the ILU(k) level-of-fill pattern, then the block-4
 *                  factorization and triangular solve over block factors
 *                  stored in sweep order (below):
 *                  one call per recurrence instead of one NumPy dispatch
 *                  per wavefront (or one Python dict merge per row); and
 *                  the dependency depth that gives the level schedules;
 *   recon_sweep / vertex_stage / limit_sweep / limiter_stage / flux_sweep
 *                  the edge sweeps of the second-order residual and its
 *                  two per-vertex stages;
 *   jacobian_sweep / boundary_sweep
 *                  the first-order Jacobian's edge blocks and the boundary
 *                  closures of both (corner loops);
 *   team_*         the edge-thread team that runs the edge sweeps, the
 *                  Jacobian sweep and ilu4's rows on several threads, end
 *                  of this file.
 *
 * Built by repro/native/__init__.py with
 *     cc -O3 -ffp-contract=off -shared -fPIC
 * No -march=native, no -ffast-math and no fused multiply-add: every host
 * executes the same sequence of IEEE double multiplies and adds, so a
 * solve repeats bit for bit across machines and across forked ranks.
 * -O3 lets gcc vectorize loops (the 4x4 block products of ilu4), and
 * without -fassociative-math it never reorders a floating-point sum to do
 * so: any optimisation level computes the same bits, except which of two
 * NaN operands a NaN result carries (tests/test_native_builds.py).
 *
 * Factor layout, sweep order (repro/sparse/ilu.py::ILUPlan): row i's
 * strictly lower blocks sit at slots lptr[i] .. lptr[i+1]-1 (rows
 * ascending), its diagonal block at lptr[n] + i, and its strictly upper
 * blocks at uptr[i+1] .. uptr[i]-1 (rows descending), with ascending block
 * columns cols[] within every row: trsv4's forward sweep reads slots
 * 0 .. lptr[n]-1 in order and its backward sweep uptr[n] .. uptr[0]-1.
 * Blocks are row-major 4x4 doubles.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

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
 * propagate into the result.  repro/sparse/ilu.py::_gauss_jordan is the
 * batched NumPy spelling of this order (and repro/cfd/sums.py::matmul of
 * gemm's). */
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

/* ILU(fill) pattern of a sorted CSR pattern by the level-of-fill rule: the
 * IKJ merge of repro/sparse/fill.py::ilu_symbolic on a sorted linked list.
 * Row i starts as its own columns at level 0; every pivot k < i in the
 * list, ascending (fill pivots included), offers row k's entries j > k at
 * level lev(i,k) + lev(k,j) + 1, kept when <= fill, the smaller level
 * winning.  f_cols / f_levs have room for cap entries; returns the factor's
 * entry count, or -1 when a row does not fit (the caller retries with more
 * room).  Scratch: next (n + 1: the list, next[n] its head, n its end),
 * lev (n) and upper (n: where each finished row continues beyond its
 * diagonal). */
int64_t ilu_symbolic(int64_t n, const int64_t *rowptr, const int64_t *cols,
                     int64_t fill, int64_t cap, int64_t *f_rowptr,
                     int64_t *f_cols, int64_t *f_levs, int64_t *next,
                     int64_t *lev, int64_t *upper)
{
    int64_t nnz = 0;
    f_rowptr[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t count = rowptr[i + 1] - rowptr[i], tail = n;
        for (int64_t p = rowptr[i]; p < rowptr[i + 1]; p++) {
            next[tail] = cols[p];
            lev[cols[p]] = 0;
            tail = cols[p];
        }
        next[tail] = n;
        for (int64_t k = next[n]; k < i; k = next[k]) {
            const int64_t lev_ik = lev[k];
            int64_t at = k; /* last list node below the offered column */
            for (int64_t p = upper[k]; p < f_rowptr[k + 1]; p++) {
                const int64_t j = f_cols[p], l = lev_ik + f_levs[p] + 1;
                if (l > fill)
                    continue;
                while (next[at] < j)
                    at = next[at];
                if (next[at] == j) {
                    if (l < lev[j])
                        lev[j] = l;
                } else {
                    next[j] = next[at];
                    next[at] = j;
                    lev[j] = l;
                    count++;
                }
            }
        }
        if (nnz + count > cap)
            return -1;
        upper[i] = nnz;
        for (int64_t j = next[n]; j < n; j = next[j]) {
            if (j <= i)
                upper[i] = nnz + 1;
            f_cols[nnz] = j;
            f_levs[nnz] = lev[j];
            nnz++;
        }
        f_rowptr[i + 1] = nnz;
    }
    return nnz;
}

/* One row of the IKJ block ILU, in place: row i of vals becomes its L
 * blocks (unit lower, diagonal implied) and U blocks, and diag_inv[i] the
 * inverted diagonal block of U.  Reads only rows k < i of its lower part,
 * which must be final.  pos is an n-entry scratch, all -1 on entry and on
 * return.  Returns 1 when the diagonal block is singular. */
static int ilu_row(int64_t i, int64_t n, const int64_t *lptr,
                   const int64_t *uptr, const int64_t *cols, double *vals,
                   double *diag_inv, int64_t *pos)
{
    const int64_t l0 = lptr[i], l1 = lptr[i + 1], d = lptr[n] + i;
    const int64_t u0 = uptr[i + 1], u1 = uptr[i];
    for (int64_t p = l0; p < l1; p++)
        pos[cols[p]] = p;
    pos[i] = d;
    /* the row's upper run sits below the previous row's, so the upper
     * runs are a descending stream; without this prefetch, issued before
     * the updates land on the run in column order, ilu4 measured 3-13%
     * slower than on a CSR factor */
    for (int64_t p = u0; p < u1; p++) {
        pos[cols[p]] = p;
        __builtin_prefetch(vals + p * BB, 1);
        __builtin_prefetch(vals + p * BB + 8, 1);
    }
    for (int64_t p = l0; p < l1; p++) {
        const int64_t k = cols[p];
        double L[BB], upd[BB];
        gemm(L, vals + p * BB, diag_inv + k * BB);
        for (int e = 0; e < BB; e++)
            vals[p * BB + e] = L[e];
        /* A_ij -= L_ik U_kj for j in (row k beyond k) ∩ row i */
        for (int64_t q = uptr[k + 1]; q < uptr[k]; q++) {
            const int64_t t = pos[cols[q]];
            if (t < 0)
                continue;
            gemm(upd, L, vals + q * BB);
            for (int e = 0; e < BB; e++)
                vals[t * BB + e] -= upd[e];
        }
    }
    const int singular = inv4(vals + d * BB, diag_inv + i * BB);
    for (int64_t p = l0; p < l1; p++)
        pos[cols[p]] = -1;
    pos[i] = -1;
    for (int64_t p = u0; p < u1; p++)
        pos[cols[p]] = -1;
    return singular;
}

/* Row-by-row IKJ block ILU in place on the factor layout.  vals holds the
 * matrix scattered into its slots (fill slots zero) and leaves as L and U;
 * diag_inv receives the inverted diagonal blocks of U.  pos is an n-entry
 * scratch, all -1 on entry and again on every return.  Returns -1, or the
 * row of a singular diagonal block. */
int64_t ilu4(int64_t n, const int64_t *lptr, const int64_t *uptr,
             const int64_t *cols, double *vals, double *diag_inv,
             int64_t *pos)
{
    for (int64_t i = 0; i < n; i++)
        if (ilu_row(i, n, lptr, uptr, cols, vals, diag_inv, pos))
            return i;
    return -1;
}

/* acc -= sum_p vals[p] x[cols[p]] over blocks p0 .. p1-1, each product as
 * four column axpys (y0 first): the one explicit order of TRSV, which
 * trsv_solve_sequential and trsv_solve_levels (repro/sparse/trsv.py)
 * compute too, bit for bit.  The accumulator lives in four scalars so it
 * stays in registers across the row. */
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
 * alias x).  Each sweep reads its blocks as one ascending stream. */
void trsv4(int64_t n, const int64_t *lptr, const int64_t *uptr,
           const int64_t *cols, const double *vals,
           const double *diag_inv, const double *rhs, double *x)
{
    double acc[B];
    for (int64_t i = 0; i < n; i++) {
        for (int r = 0; r < B; r++)
            acc[r] = rhs[i * B + r];
        row_sweep(acc, vals, cols, x, lptr[i], lptr[i + 1]);
        for (int r = 0; r < B; r++)
            x[i * B + r] = acc[r];
    }
    for (int64_t i = n - 1; i >= 0; i--) {
        for (int r = 0; r < B; r++)
            acc[r] = x[i * B + r];
        row_sweep(acc, vals, cols, x, uptr[i + 1], uptr[i]);
        const double *D = diag_inv + i * BB;
        for (int r = 0; r < B; r++) {
            double s = D[r * B] * acc[0];
            for (int j = 1; j < B; j++)
                s += D[r * B + j] * acc[j];
            x[i * B + r] = s;
        }
    }
}

/* Dependency depth over a triangular sorted-CSR pattern in one pass: row
 * i depends on the rows cols[lo[i]] .. cols[hi[i]-1], all visited before
 * it (the lower rows when forward, ascending; the upper rows when
 * backward, descending), and
 *     depth[i] = w[i] + max(depth[j] over those rows), 0 for none,
 * with w[i] = 1 when w is NULL.  At w = 1 depth - 1 is the level of
 * repro/sparse/levels.py::level_schedule; with per-row flops it is the
 * longest path of available_parallelism.  w must be non-negative. */
void dep_depth(int64_t n, const int64_t *lo, const int64_t *hi,
               const int64_t *cols, const double *w, int64_t backward,
               double *depth)
{
    for (int64_t k = 0; k < n; k++) {
        const int64_t i = backward ? n - 1 - k : k;
        double m = 0.0;
        for (int64_t p = lo[i]; p < hi[i]; p++)
            if (depth[cols[p]] > m)
                m = depth[cols[p]];
        depth[i] = (w ? w[i] : 1.0) + m;
    }
}


/* ------------------------------------------------------------------------
 * Edge sweeps of the second-order residual.
 *
 * The arithmetic below is the C spelling of the NumPy stage functions in
 * repro/sweeps/stages.py (and repro/cfd/flux.py, repro/cfd/roe.py): every
 * sum is written in the same explicit order, so compiled == NumPy
 * bitwise (tests/test_native_residual.py).  A change here must be made
 * there too.
 *
 * Every sweep takes an edge range [lo, hi) over the caller's edge arrays
 * and optional endpoint write masks w0 / w1 (NULL = write every
 * endpoint): serial execution passes the full range and no masks, an
 * owner-writes worker its chunk and ownership masks, a rank its interior
 * or cut slice.  Additive write-out is term-major — all e0 terms in edge
 * order, then all e1 terms — which is the accumulation order of the
 * reference `np.add.at` statements, so a masked sweep leaves in every
 * written row the bits the full serial sweep leaves there.
 *
 * Vertex arrays are rows of NV states (q, res, phi, bounds, the limit
 * sweep's jump folds: NV doubles; rhs, grad: NV x ND, row-major); edge
 * arrays are rows of ND doubles.
 */
#define NV 4
#define ND 3

static inline int writes(const uint8_t *mask, int64_t e)
{
    return mask == 0 || mask[e];
}

/* np.minimum / np.maximum: NaN in either operand propagates.  No branch:
 * gcc compiles m to minsd / maxsd (b when either operand is NaN) and the
 * NaN test on a to ucomisd + cmovnp, or packs the four variables of a
 * vertex into minpd + a cmpneqpd mask select where it vectorizes the
 * fold. */
static inline double min_nan(double a, double b)
{
    const double m = a < b ? a : b;
    return a != a ? a : m;
}

static inline double max_nan(double a, double b)
{
    const double m = a > b ? a : b;
    return a != a ? a : m;
}

static inline double dot3(const double *a, const double *b)
{
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2];
}

static inline double dot4(const double *a, const double *b)
{
    return ((a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]) + a[3] * b[3];
}

/* Reconstruction sweep: the LSQ right-hand side dq (x) dx added at both
 * endpoints and each endpoint's neighbour folded into its min/max bounds,
 * from one read of q per edge end.  d0 is the midpoint minus x[e0], so
 * dx = 2 d0.  The e1 pass recomputes the contribution (same operands, same
 * bits) instead of keeping an (edges, 12) scratch. */
void recon_sweep(int64_t lo, int64_t hi, const int64_t *e0,
                 const int64_t *e1, const double *d0, const uint8_t *w0,
                 const uint8_t *w1, const double *q, double *rhs,
                 double *qmin, double *qmax)
{
    for (int end = 0; end < 2; end++) {
        const int64_t *at = end ? e1 : e0, *nbr = end ? e0 : e1;
        const uint8_t *mask = end ? w1 : w0;
        for (int64_t e = lo; e < hi; e++) {
            if (!writes(mask, e))
                continue;
            const int64_t v = at[e];
            const double *qa = q + e0[e] * NV, *qb = q + e1[e] * NV;
            const double *qn = q + nbr[e] * NV;
            double dx[ND];
            for (int i = 0; i < ND; i++)
                dx[i] = d0[e * ND + i] * 2.0;
            for (int k = 0; k < NV; k++) {
                const double dq = qb[k] - qa[k];
                for (int i = 0; i < ND; i++)
                    rhs[(v * NV + k) * ND + i] += dq * dx[i];
                qmin[v * NV + k] = min_nan(qmin[v * NV + k], qn[k]);
                qmax[v * NV + k] = max_nan(qmax[v * NV + k], qn[k]);
            }
        }
    }
}

/* Per-vertex work between the edge sweeps, rows 0 .. n-1: the gradient
 * lsq_inv . rhs, the Venkatakrishnan threshold eps2 = k^3 V, and the
 * neighbour bounds turned, in place, into the allowed jumps bound - q. */
void vertex_stage(int64_t n, const double *lsq_inv, const double *rhs,
                  const double *volumes, const double *q, double k3,
                  double *grad, double *eps2, double *qmin, double *qmax)
{
    for (int64_t v = 0; v < n; v++) {
        for (int k = 0; k < NV; k++) {
            for (int i = 0; i < ND; i++)
                grad[(v * NV + k) * ND + i] = dot3(
                    lsq_inv + (v * ND + i) * ND, rhs + (v * NV + k) * ND);
            qmax[v * NV + k] = qmax[v * NV + k] - q[v * NV + k];
            qmin[v * NV + k] = qmin[v * NV + k] - q[v * NV + k];
        }
        eps2[v] = k3 * volumes[v];
    }
}

/* Two variables of a vertex as the lanes of one vector: a GCC / Clang
 * generic vector as wide as an SSE2 or NEON register, so it lowers to
 * packed instructions with no -march (four lanes would not: gcc 12 splits
 * their comparisons into scalar ones on SSE2).  A lane operation is the
 * scalar IEEE operation, so vector code keeps the bits of scalar code
 * written in the same order.  mask2 is what a lane comparison yields: all
 * ones where it holds, zero where it does not (always, against a NaN). */
typedef double v2d __attribute__((vector_size(2 * sizeof(double))));
typedef __typeof__((v2d){0} > (v2d){0}) mask2;

static inline v2d splat2(double x)
{
    return (v2d){x, x};
}

static inline v2d load2(const double *p)
{
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* mask ? a : b per lane, by bits: exact for NaN and signed zeros. */
static inline v2d select2(mask2 mask, v2d a, v2d b)
{
    return (v2d)((mask & (mask2)a) | (~mask & (mask2)b));
}

/* Venkatakrishnan limiter values, one variable per lane: reconstructed
 * jumps d2 against the allowed jumps dmax / dmin with threshold e2;
 * np.where / np.clip semantics, NaN and signed zeros included.
 * Branch-free: the quotient is formed in every lane (and discarded where
 * |d2| is tiny) and each choice is a select on a comparison mask.  Like
 * np.clip, a clip replaces only values strictly beyond its bound, so a
 * quotient that underflows to -0.0 stays -0.0, and a NaN, which fails
 * every comparison, survives both. */
static inline v2d venkat(v2d d2, v2d dmax, v2d dmin, double e2)
{
    const v2d d1 = select2(d2 > splat2(0.0), dmax, dmin);
    const v2d num = (d1 * d1 + e2) * d2 + 2.0 * d2 * d2 * d1;
    const v2d den = d2 * (d1 * d1 + 2.0 * d2 * d2 + d1 * d2 + e2);
    const mask2 big = (d2 > splat2(1e-14)) | (d2 < splat2(-1e-14));
    const v2d val = select2(big, num / den, splat2(1.0));
    const v2d pos = select2(val < splat2(0.0), splat2(0.0), val);
    return select2(pos > splat2(1.0), splat2(1.0), pos);
}

/* Limiter sweep: the reconstructed jump d2 = grad . disp of every written
 * edge end, folded into its vertex's largest jump up (d2max) and down
 * (d2min), both of which start at 0; no division.  disp is d0 at e0 and
 * d1 at e1 (midpoint minus that end); grad is read only at written ends,
 * so a rank's rows beyond its owned vertices are never looked at.  A NaN
 * jump fails both comparisons and drops out: venkat maps it to 1.  The
 * four variables run as two vectors of two lanes; a lane's jump is its
 * dot3(grad row, disp), read from grad by columns. */
void limit_sweep(int64_t lo, int64_t hi, const int64_t *e0,
                 const int64_t *e1, const double *d0, const double *d1,
                 const uint8_t *w0, const uint8_t *w1, const double *grad,
                 double *d2max, double *d2min)
{
    for (int64_t e = lo; e < hi; e++)
        for (int end = 0; end < 2; end++) {
            if (!writes(end ? w1 : w0, e))
                continue;
            const int64_t v = (end ? e1 : e0)[e];
            const double *disp = (end ? d1 : d0) + e * ND;
            for (int k = 0; k < NV; k += 2) {
                const double *g = grad + (v * NV + k) * ND;
                v2d col[ND];
                for (int i = 0; i < ND; i++)
                    col[i] = (v2d){g[i], g[ND + i]};
                const v2d d2 = (col[0] * disp[0] + col[1] * disp[1])
                               + col[2] * disp[2];
                double *up = d2max + v * NV + k, *down = d2min + v * NV + k;
                const v2d top = load2(up), bottom = load2(down);
                const v2d up2 = select2(d2 > top, d2, top);
                const v2d down2 = select2(d2 < bottom, d2, bottom);
                memcpy(up, &up2, sizeof up2);
                memcpy(down, &down2, sizeof down2);
            }
        }
}

/* The limiter at the vertices, rows 0 .. n-1: phi = min(venkat at d2max,
 * venkat at d2min), the limit sweep's folds.  For dmax >= 0 >= dmin and
 * e2 >= 0 (the recon stage starts the bounds at q), the clipped venkat
 * never increases as |d2| grows, so this is the min over the vertex's
 * written edge ends of their own venkat values, up to venkat's rounding
 * (4.4e-16); a vertex with no written end gets 1, venkat at 0.  A NaN
 * bound or threshold propagates wherever the jump on its side is not
 * tiny. */
void limiter_stage(int64_t n, const double *dmax, const double *dmin,
                   const double *eps2, const double *d2max,
                   const double *d2min, double *phi)
{
    for (int64_t v = 0; v < n; v++)
        for (int k = 0; k < NV; k += 2) {
            const int64_t i = v * NV + k;
            const v2d amax = load2(dmax + i), amin = load2(dmin + i);
            const v2d up = venkat(load2(d2max + i), amax, amin, eps2[v]);
            const v2d down = venkat(load2(d2min + i), amax, amin, eps2[v]);
            for (int l = 0; l < 2; l++)
                phi[i + l] = min_nan(up[l], down[l]);
        }
}

/* Analytic flux F(q, S) of the artificial-compressibility system. */
static inline void pointwise_flux(const double *q, const double *s,
                                  double beta, double *f)
{
    const double theta = dot3(s, q + 1);
    f[0] = beta * theta;
    for (int i = 0; i < ND; i++)
        f[1 + i] = q[1 + i] * theta + s[i] * q[0];
}

/* dF/dq of the analytic flux, repro/cfd/jacobian.py::
 * analytic_flux_jacobian: the one C spelling, shared by the Roe dissipation
 * and the first-order Jacobian. */
static inline void flux_jacobian(const double *q, const double *s,
                                 double beta, double A[NV][NV])
{
    const double theta = dot3(s, q + 1);
    A[0][0] = 0.0;
    for (int i = 0; i < ND; i++) {
        A[0][1 + i] = beta * s[i];
        A[1 + i][0] = s[i];
        for (int j = 0; j < ND; j++)
            A[1 + i][1 + j] = q[1 + i] * s[j];
        A[1 + i][1 + i] = A[1 + i][1 + i] + theta;
    }
}

/* 0.5 |A(qa)| dq with |A| the quadratic matrix polynomial of
 * repro/cfd/roe.py::abs_flux_jacobian, products in its explicit order. */
static inline __attribute__((always_inline)) void roe_dissipation(
    const double *qa, const double *s, double beta, const double *dq,
    double *diss)
{
    const double theta = dot3(s, qa + 1), s2 = dot3(s, s);
    const double c = sqrt(theta * theta + beta * s2);
    const double c_safe = c > 0.0 ? c : 1.0;
    const double a = theta, b = theta + c, d = theta - c;
    const double fa = fabs(a), fb = fabs(b), fd = fabs(d);
    const double c2 = c_safe * c_safe;

    double A[NV][NV], Ai[NV][NV], Bi[NV][NV], Di[NV][NV];
    flux_jacobian(qa, s, beta, A);
    for (int i = 0; i < NV; i++)
        for (int j = 0; j < NV; j++) {
            const double eye = i == j ? 1.0 : 0.0;
            Ai[i][j] = A[i][j] - a * eye;
            Bi[i][j] = A[i][j] - b * eye;
            Di[i][j] = A[i][j] - d * eye;
        }
    for (int i = 0; i < NV; i++) {
        double absA[NV];
        for (int k = 0; k < NV; k++) {
            double BD = Bi[i][0] * Di[0][k], AD = Ai[i][0] * Di[0][k],
                   AB = Ai[i][0] * Bi[0][k];
            for (int j = 1; j < NV; j++) {
                BD += Bi[i][j] * Di[j][k];
                AD += Ai[i][j] * Di[j][k];
                AB += Ai[i][j] * Bi[j][k];
            }
            absA[k] = -fa * BD / c2 + fb * AD / (2.0 * c2)
                      + fd * AB / (2.0 * c2);
            if (c <= 0.0) /* zero-area face */
                absA[k] = 0.0;
        }
        diss[i] = 0.5 * dot4(absA, dq);
    }
}

/* Spectral radius |Theta| + c of the face eigen-system at the average of
 * the two states (repro/cfd/flux.py::edge_spectral_radius). */
static inline double spectral_radius(const double *ql, const double *qr,
                                     const double *s, double beta)
{
    double vel[ND];
    for (int i = 0; i < ND; i++)
        vel[i] = 0.5 * (ql[1 + i] + qr[1 + i]);
    const double theta = dot3(s, vel), s2 = dot3(s, s);
    return fabs(theta) + sqrt(theta * theta + beta * s2);
}

/* Upwind flux 0.5 (F(ql) + F(qr)) - dissipation through a face with area
 * vector s: Rusanov, or Roe when roe != 0.  Forced inline, like
 * roe_dissipation: with two call sites (edges, far-field corners) the
 * compiler otherwise pays a call per edge in flux_sweep. */
static inline __attribute__((always_inline)) void numerical_flux(
    const double *ql, const double *qr, const double *s, double beta,
    int64_t roe, double *f)
{
    double fl[NV], fr[NV], dq[NV], diss[NV];
    for (int k = 0; k < NV; k++)
        dq[k] = qr[k] - ql[k];
    pointwise_flux(ql, s, beta, fl);
    pointwise_flux(qr, s, beta, fr);
    if (roe) {
        double qa[NV];
        for (int k = 0; k < NV; k++)
            qa[k] = 0.5 * (ql[k] + qr[k]);
        roe_dissipation(qa, s, beta, dq, diss);
    } else {
        const double lam = spectral_radius(ql, qr, s, beta);
        for (int k = 0; k < NV; k++)
            diss[k] = 0.5 * lam * dq[k];
    }
    for (int k = 0; k < NV; k++)
        f[k] = 0.5 * (fl[k] + fr[k]) - diss[k];
}

/* Flux sweep: one numerical flux per edge added at e0 and subtracted at
 * e1.  With grad the states are first reconstructed to the edge midpoint,
 * q + (grad . disp) phi; grad == NULL is the first-order flux.  flux is an
 * (hi - lo, NV) scratch that carries the edge values from the e0 pass to
 * the e1 pass. */
void flux_sweep(int64_t lo, int64_t hi, const int64_t *e0, const int64_t *e1,
                const double *normals, const double *d0, const double *d1,
                const uint8_t *w0, const uint8_t *w1, const double *q,
                const double *grad, const double *phi, double beta,
                int64_t roe, double *flux, double *res)
{
    for (int64_t e = lo; e < hi; e++) {
        const int64_t v0 = e0[e], v1 = e1[e];
        double ql[NV], qr[NV];
        for (int k = 0; k < NV; k++) {
            ql[k] = q[v0 * NV + k];
            qr[k] = q[v1 * NV + k];
            if (grad) {
                ql[k] = ql[k] + dot3(grad + (v0 * NV + k) * ND, d0 + e * ND)
                                    * phi[v0 * NV + k];
                qr[k] = qr[k] + dot3(grad + (v1 * NV + k) * ND, d1 + e * ND)
                                    * phi[v1 * NV + k];
            }
        }
        double *f = flux + (e - lo) * NV;
        numerical_flux(ql, qr, normals + e * ND, beta, roe, f);
        if (writes(w0, e))
            for (int k = 0; k < NV; k++)
                res[v0 * NV + k] += f[k];
    }
    for (int64_t e = lo; e < hi; e++)
        if (writes(w1, e))
            for (int k = 0; k < NV; k++)
                res[e1[e] * NV + k] -= flux[(e - lo) * NV + k];
}


/* ------------------------------------------------------------------------
 * First-order Jacobian blocks and boundary closures.
 *
 * The C spelling of repro/cfd/jacobian.py::edge_flux_jacobians and of the
 * closure fluxes of repro/cfd/boundary.py, with the same bitwise contract
 * as the sweeps above (tests/test_native_jacobian.py).  Blocks are row-major 4x4 doubles
 * added into a BCSR value array at precomputed block slots.
 */

/* blk = 0.5 A(q) +- 0.5 lam I: one half of the linearized Rusanov flux
 * 0.5 (F_i + F_j) - 0.5 lam (q_j - q_i) with lam frozen; minus selects
 * the q_j side.  lam I is formed as lam * 1 and lam * 0, as NumPy's
 * lam * eye(4) does, so a non-finite lam poisons the same entries. */
static inline void half_jacobian(const double *q, const double *s,
                                 double beta, double lam, int minus,
                                 double *blk)
{
    double A[NV][NV];
    flux_jacobian(q, s, beta, A);
    const double on = 0.5 * (lam * 1.0), off = 0.5 * (lam * 0.0);
    for (int i = 0; i < NV; i++)
        for (int j = 0; j < NV; j++) {
            const double half_lam = i == j ? on : off;
            blk[i * NV + j] = minus ? 0.5 * A[i][j] - half_lam
                                    : 0.5 * A[i][j] + half_lam;
        }
}

/* Jacobian sweep: per edge the blocks dF/dq_i, dF/dq_j of its frozen-lam
 * Rusanov flux, added into vals at the edge's four slots — the four
 * reference np.add.at / np.subtract.at statements of NumpySweeps.jacobian:
 *     vals[slot_d0] += dFdqi;  vals[slot_ij] += dFdqj    (row e0)
 *     vals[slot_d1] -= dFdqj;  vals[slot_ji] -= dFdqi    (row e1)
 * A row's slots are written where its end of the edge is a written end,
 * except a slot of -1: a block outside the pattern, such as a subdomain's
 * coupling to a ghost column.
 * Only the diagonal blocks receive more than one term, and they receive
 * them term-major like every additive sweep: the first pass adds the e0
 * terms in edge order (and both off-diagonal blocks, one term each, while
 * dFdqi is at hand), the second the e1 terms, recomputing dFdqj (same
 * operands, same bits) instead of keeping an (edges, 16) scratch. */
void jacobian_sweep(int64_t lo, int64_t hi, const int64_t *e0,
                    const int64_t *e1, const double *normals,
                    const uint8_t *w0, const uint8_t *w1,
                    const int64_t *slot_d0, const int64_t *slot_ij,
                    const int64_t *slot_d1, const int64_t *slot_ji,
                    const double *q, double beta, double *vals)
{
    for (int64_t e = lo; e < hi; e++) {
        const int at0 = writes(w0, e), at1 = writes(w1, e);
        if (!at0 && !at1)
            continue;
        const double *ql = q + e0[e] * NV, *qr = q + e1[e] * NV;
        const double *s = normals + e * ND;
        const double lam = spectral_radius(ql, qr, s, beta);
        double dfi[BB], dfj[BB];
        half_jacobian(ql, s, beta, lam, 0, dfi);
        if (at0) {
            half_jacobian(qr, s, beta, lam, 1, dfj);
            if (slot_d0[e] >= 0) {
                double *diag = vals + slot_d0[e] * BB;
                for (int k = 0; k < BB; k++)
                    diag[k] += dfi[k];
            }
            if (slot_ij[e] >= 0) {
                double *off = vals + slot_ij[e] * BB;
                for (int k = 0; k < BB; k++)
                    off[k] += dfj[k];
            }
        }
        if (at1 && slot_ji[e] >= 0) {
            double *off = vals + slot_ji[e] * BB;
            for (int k = 0; k < BB; k++)
                off[k] -= dfi[k];
        }
    }
    for (int64_t e = lo; e < hi; e++) {
        if (!writes(w1, e) || slot_d1[e] < 0)
            continue;
        const double *ql = q + e0[e] * NV, *qr = q + e1[e] * NV;
        const double *s = normals + e * ND;
        double dfj[BB], *diag = vals + slot_d1[e] * BB;
        half_jacobian(qr, s, beta, spectral_radius(ql, qr, s, beta), 1, dfj);
        for (int k = 0; k < BB; k++)
            diag[k] -= dfj[k];
    }
}

/* Boundary sweep: one loop over the flattened corners of one boundary tag
 * (vertex verts[c], its share normals[c] of the face's area vector),
 * accumulating sequentially in corner order.  q_inf == NULL is a slip wall
 * or symmetry plane — no mass flux, so the flux is the pressure force
 * (0, S p) and its Jacobian the pressure column; otherwise the far field,
 * the numerical flux between the vertex state and the freestream q_inf and
 * the vertex-side half of its frozen-lam Rusanov linearization.  With res
 * the flux is added at res[verts[c]]; with vals the block at
 * vals[slots[c]].  Either may be NULL. */
void boundary_sweep(int64_t n, const int64_t *verts, const double *normals,
                    const double *q, const double *q_inf, double beta,
                    int64_t roe, double *res, const int64_t *slots,
                    double *vals)
{
    for (int64_t c = 0; c < n; c++) {
        const double *qi = q + verts[c] * NV, *s = normals + c * ND;
        if (res) {
            double f[NV];
            if (q_inf) {
                numerical_flux(qi, q_inf, s, beta, roe, f);
            } else {
                f[0] = 0.0;
                for (int i = 0; i < ND; i++)
                    f[1 + i] = s[i] * qi[0];
            }
            for (int k = 0; k < NV; k++)
                res[verts[c] * NV + k] += f[k];
        }
        if (vals) {
            double blk[BB] = {0.0};
            if (q_inf)
                half_jacobian(qi, s, beta,
                              spectral_radius(qi, q_inf, s, beta), 0, blk);
            else
                for (int i = 0; i < ND; i++)
                    blk[(1 + i) * NV] = s[i];
            for (int k = 0; k < BB; k++)
                vals[slots[c] * BB + k] += blk[k];
        }
    }
}


/* ------------------------------------------------------------------------
 * The edge-thread team: one persistent set of threads that runs the
 * residual's edge stages, the first-order Jacobian sweep and the numeric
 * ILU factorization above, each as one call from the owning thread.
 *
 * A job is a sequence of phases of n_threads tasks each: the parts of an
 * edge stage (one phase), or the row shares of one forward level of the
 * ILU.  Thread 0 is the caller: a team_* call publishes the job and
 * claims tasks with the helpers until the last phase is done.  Helpers
 * are threads the caller created, each sitting in team_serve(t, s) for
 * the team's life; they never leave C between jobs.  A task goes to
 * whichever thread claims it first, so no thread ever waits for a given
 * other one: a helper that is late (asleep, descheduled) leaves its task
 * to the others.  An idle thread, and one that waits for the last tasks
 * of a phase, spins for TEAM_SPIN_NS (zero when the team has more
 * threads than CPUs to run them), yielding its CPU as it goes, then
 * sleeps on the team's condition variable.  Every task writes rows no
 * other task writes (owner-writes, ILU rows) or its part's own private
 * accumulators (locked), so a row sees the same updates in the
 * same order as the serial kernel: the team computes the serial bits.
 *
 * The entries check nothing: repro/smp/parallel.py validates every
 * argument before it calls one.
 */
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <time.h>

/* How long an idle thread spins before it sleeps.  It has to outlast the
 * caller's serial work between two team jobs (the preconditioner solve
 * and the Krylov vector work between two residuals: ~1 ms on Mesh-C'
 * x0.12, ~4 ms at x0.5): a helper that sleeps pays a wake-up and a fresh
 * placement by the scheduler at the next job.  On a 2-vCPU host, 1 to
 * 30 ms gave the same solve time at x0.12 and 10 ms the best median. */
#define TEAM_SPIN_NS 10000000

enum { JOB_RECON = 1, JOB_LIMIT, JOB_FLUX, JOB_JACOBIAN, JOB_ILU };
enum { FOLD_OWNER, FOLD_LOCKED };

/* The claim word when no job has a task left to claim; else it is the
 * phase in the high half and the next task in the low half. */
#define WORK_IDLE INT64_MAX
#define TASK_MASK 0xffffffff

/* One part of an edge job: edges [lo, hi) of an edge set with optional
 * write masks, the flux sweep's (hi - lo) x NV scratch, for the locked
 * fold private accumulators of n_rows rows, and for
 * owner-writes the write masks of its Jacobian sweep over the job's full
 * edge set. */
typedef struct {
    int64_t lo, hi;
    const int64_t *e0, *e1;
    const double *normals, *d0, *d1;
    const uint8_t *w0, *w1;
    double *flux;
    double *rhs, *qmin, *qmax, *d2max, *d2min, *res;
    const uint8_t *jw0, *jw1;
} team_part;

enum { PART_FIELDS = 18 }; /* int64 words per part passed to team_create */

typedef struct {
    int64_t kind, n_phases;
    /* residual stages (the shared arrays) and the Jacobian */
    const double *q, *grad, *phi;
    double *rhs, *qmin, *qmax, *d2max, *d2min, *res, *vals;
    double beta;
    int64_t roe;
    /* the Jacobian's edge set and its (4, n_edges) block slots */
    int64_t n_edges;
    const int64_t *e0, *e1, *slots;
    const double *normals;
    /* ILU: the factor layout, its forward levels with the running work
     * of their rows, one pos row per thread */
    int64_t n;
    const int64_t *lptr, *uptr, *cols, *level_ptr, *level_rows, *work;
    double *lu, *diag_inv;
    int64_t *pos;
} team_job;

typedef struct {
    int64_t n_threads, n_rows, fold, spin_ns;
    team_part *parts;
    /* per part (per thread for the ILU): start and end of its last task */
    double *stamps;
    /* per part: the thread that ran it in the last edge job; per thread:
     * the tasks it has run since the team was created */
    int64_t *ran_by, *tasks;
    team_job job;
    _Atomic int64_t epoch, claim, done, stop, sleepers, singular;
    pthread_mutex_t mu, fold_mu;
    pthread_cond_t cv;
} team_t;

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* CLOCK_MONOTONIC in seconds: the clock of Python's time.perf_counter. */
static double now_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static inline void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

/* Return once *word != seen: spin for the team's budget, then sleep.
 * The spin yields its CPU every 64 looks, so a spinner never keeps a
 * thread that has work (this team's or another process's) off a CPU it
 * shares.  A sleeper is counted before its last look at the word, and
 * team_wake looks at the count after the change (both sequentially
 * consistent), so either the sleeper sees the change or the waker sees
 * the sleeper. */
static void team_wait(team_t *t, _Atomic int64_t *word, int64_t seen)
{
    if (atomic_load_explicit(word, memory_order_acquire) != seen)
        return;
    if (t->spin_ns > 0) {
        const int64_t deadline = now_ns() + t->spin_ns;
        for (unsigned i = 1;; i++) {
            cpu_relax();
            if (atomic_load_explicit(word, memory_order_acquire) != seen)
                return;
            if (i % 64 == 0) {
                if (now_ns() > deadline)
                    break;
                sched_yield();
            }
        }
    }
    pthread_mutex_lock(&t->mu);
    atomic_fetch_add(&t->sleepers, 1);
    while (atomic_load(word) == seen)
        pthread_cond_wait(&t->cv, &t->mu);
    atomic_fetch_sub(&t->sleepers, 1);
    pthread_mutex_unlock(&t->mu);
}

/* Wake the sleepers of team_wait after changing a word they watch. */
static void team_wake(team_t *t)
{
    if (atomic_load(&t->sleepers) > 0) {
        pthread_mutex_lock(&t->mu);
        pthread_cond_broadcast(&t->cv);
        pthread_mutex_unlock(&t->mu);
    }
}

static void fill(double *a, int64_t n, double v)
{
    for (int64_t i = 0; i < n; i++)
        a[i] = v;
}

/* The locked strategy's fold of a private accumulator into the shared
 * array: op 0 adds, 1 min-folds, 2 max-folds (np.add / np.minimum /
 * np.maximum). */
static void fold(double *out, const double *a, int64_t n, int op)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = op == 0 ? out[i] + a[i]
                 : op == 1 ? min_nan(out[i], a[i]) : max_nan(out[i], a[i]);
}

/* One residual stage or the Jacobian sweep over part s.  Owner-writes
 * sweeps straight into the shared arrays, which the caller has set to
 * their start values.  Locked sweeps into the part's private accumulators
 * reset to the fold's identity and folds them into the shared arrays
 * under the fold mutex. */
static void edge_part(team_t *t, int64_t s)
{
    const team_job *j = &t->job;
    const team_part *p = t->parts + s;
    const int own = t->fold == FOLD_OWNER;
    const int64_t n = t->n_rows * NV;
    switch (j->kind) {
    case JOB_RECON: {
        double *rhs = own ? j->rhs : p->rhs, *qmin = own ? j->qmin : p->qmin;
        double *qmax = own ? j->qmax : p->qmax;
        if (!own) {
            fill(rhs, n * ND, 0.0);
            fill(qmin, n, INFINITY);
            fill(qmax, n, -INFINITY);
        }
        recon_sweep(p->lo, p->hi, p->e0, p->e1, p->d0, p->w0, p->w1, j->q,
                    rhs, qmin, qmax);
        if (!own) {
            pthread_mutex_lock(&t->fold_mu);
            fold(j->rhs, rhs, n * ND, 0);
            fold(j->qmin, qmin, n, 1);
            fold(j->qmax, qmax, n, 2);
            pthread_mutex_unlock(&t->fold_mu);
        }
        break;
    }
    case JOB_LIMIT: {
        double *up = own ? j->d2max : p->d2max;
        double *down = own ? j->d2min : p->d2min;
        if (!own) { /* the folds start at 0, which their values never cross */
            fill(up, n, 0.0);
            fill(down, n, 0.0);
        }
        limit_sweep(p->lo, p->hi, p->e0, p->e1, p->d0, p->d1, p->w0, p->w1,
                    j->grad, up, down);
        if (!own) {
            pthread_mutex_lock(&t->fold_mu);
            fold(j->d2max, up, n, 2);
            fold(j->d2min, down, n, 1);
            pthread_mutex_unlock(&t->fold_mu);
        }
        break;
    }
    case JOB_FLUX: {
        double *res = own ? j->res : p->res;
        if (!own)
            fill(res, n, 0.0);
        flux_sweep(p->lo, p->hi, p->e0, p->e1, p->normals, p->d0, p->d1,
                   p->w0, p->w1, j->q, j->grad, j->grad ? j->phi : 0, j->beta,
                   j->roe, p->flux, res);
        if (!own) {
            pthread_mutex_lock(&t->fold_mu);
            fold(j->res, res, n, 0);
            pthread_mutex_unlock(&t->fold_mu);
        }
        break;
    }
    case JOB_JACOBIAN: {
        const int64_t m = j->n_edges, *sl = j->slots;
        jacobian_sweep(0, m, j->e0, j->e1, j->normals, p->jw0, p->jw1, sl,
                       sl + m, sl + 2 * m, sl + 3 * m, j->q, j->beta,
                       j->vals);
        break;
    }
    }
}

/* The first r in [a, b] whose running work work[r] - work[a] reaches
 * the share s / nt of the level [a, b): nondecreasing in s, a at s = 0
 * and b at s = nt, so the shares of the nt threads tile the level. */
static int64_t share_start(const int64_t *work, int64_t a, int64_t b,
                           int64_t s, int64_t nt)
{
    const int64_t base = work[a];
    const double goal = (double)(work[b] - base) * (double)s / (double)nt;
    while (a < b) {
        const int64_t m = a + (b - a) / 2;
        if ((double)(work[m] - base) < goal)
            a = m + 1;
        else
            b = m;
    }
    return a;
}

/* Share s of ILU level l: a contiguous slice of the level's rows holding
 * about 1 / n_threads of its work.  Rows of one level depend only on rows
 * of earlier levels, so each row reads final rows and computes what the
 * row-by-row ilu4 computes.  A singular block is noted and the
 * factorization runs to the end. */
static void ilu_share(team_t *t, int64_t l, int64_t s, int64_t *pos)
{
    const team_job *j = &t->job;
    const int64_t a = j->level_ptr[l], b = j->level_ptr[l + 1];
    const int64_t hi = share_start(j->work, a, b, s + 1, t->n_threads);
    for (int64_t r = share_start(j->work, a, b, s, t->n_threads); r < hi; r++)
        if (ilu_row(j->level_rows[r], j->n, j->lptr, j->uptr, j->cols,
                    j->lu, j->diag_inv, pos))
            atomic_store(&t->singular, 1);
}

/* Task k of phase ph, run by thread s.  Stamps: an edge part's own, or
 * thread s's first and last ILU share.  Every thread counts its own
 * tasks; an edge part records the thread that ran it. */
static void run_task(team_t *t, int64_t s, int64_t ph, int64_t k)
{
    const team_job *j = &t->job;
    const double t0 = now_s();
    t->tasks[s]++;
    if (j->kind == JOB_ILU) {
        ilu_share(t, ph, k, j->pos + s * j->n);
        if (t->stamps[2 * s] == 0.0)
            t->stamps[2 * s] = t0;
        t->stamps[2 * s + 1] = now_s();
    } else {
        edge_part(t, k);
        t->ran_by[k] = s;
        t->stamps[2 * k] = t0;
        t->stamps[2 * k + 1] = now_s();
    }
}

/* Claim and run tasks of the published job until none is left, and
 * return once its last phase is done.  The thread that finishes a phase's
 * last task opens the next phase.  A claim is a compare-and-swap on the
 * whole word, and a job's fields are read only after one succeeds, so a
 * thread still holding an old job's word can only ever claim a task of
 * the job that is published. */
static void run_tasks(team_t *t, int64_t s)
{
    for (;;) {
        int64_t w = atomic_load(&t->claim);
        if (w == WORK_IDLE)
            return;
        if ((w & TASK_MASK) >= t->n_threads) { /* the phase's last tasks run */
            team_wait(t, &t->claim, w);
            continue;
        }
        if (!atomic_compare_exchange_weak(&t->claim, &w, w + 1))
            continue;
        const int64_t ph = w >> 32;
        run_task(t, s, ph, w & TASK_MASK);
        if (atomic_fetch_add(&t->done, 1) == t->n_threads - 1) {
            atomic_store(&t->done, 0);
            atomic_store(&t->claim, ph + 1 < t->job.n_phases ? (ph + 1) << 32
                                                             : WORK_IDLE);
            team_wake(t);
        }
    }
}

/* Run the job in t->job: publish it, then claim its tasks with the
 * helpers until its last phase is done. */
static void team_run(team_t *t)
{
    memset(t->stamps, 0, 2 * t->n_threads * sizeof(double));
    atomic_store(&t->done, 0);
    atomic_store(&t->claim, t->job.n_phases > 0 ? 0 : WORK_IDLE);
    atomic_fetch_add(&t->epoch, 1);
    team_wake(t);
    run_tasks(t, 0);
}

/* A team of n_threads (the caller included) over edge parts given as
 * n_threads rows of PART_FIELDS int64 words (lo, hi, then the addresses
 * of e0, e1, normals, d0, d1, w0, w1, flux, rhs, qmin, qmax, d2max,
 * d2min, res, jw0, jw1; 0 for an absent one), writing vertex arrays of
 * n_rows rows.  fold is a FOLD_* strategy; spin 0 sets the spin budget
 * to zero.  stamps (2 per thread) receives the CLOCK_MONOTONIC start and
 * end of each edge part, or of each thread's ILU shares (0 for a thread
 * that ran none); ran_by (1 per part) the thread that ran each edge part;
 * tasks (1 per thread, zero on entry) the running count of each thread's
 * tasks.  NULL when out of memory. */
team_t *team_create(int64_t n_threads, int64_t n_rows, int64_t fold,
                    int64_t spin, const int64_t *parts, double *stamps,
                    int64_t *ran_by, int64_t *tasks)
{
    team_t *t = calloc(1, sizeof *t);
    if (!t || !(t->parts = calloc(n_threads, sizeof *t->parts))) {
        free(t);
        return 0;
    }
    t->n_threads = n_threads;
    t->n_rows = n_rows;
    t->fold = fold;
    t->spin_ns = spin ? TEAM_SPIN_NS : 0;
    t->stamps = stamps;
    t->ran_by = ran_by;
    t->tasks = tasks;
    for (int64_t s = 0; s < n_threads; s++) {
        const int64_t *a = parts + s * PART_FIELDS;
        team_part *p = t->parts + s;
        p->lo = a[0];
        p->hi = a[1];
        p->e0 = (const int64_t *)(intptr_t)a[2];
        p->e1 = (const int64_t *)(intptr_t)a[3];
        p->normals = (const double *)(intptr_t)a[4];
        p->d0 = (const double *)(intptr_t)a[5];
        p->d1 = (const double *)(intptr_t)a[6];
        p->w0 = (const uint8_t *)(intptr_t)a[7];
        p->w1 = (const uint8_t *)(intptr_t)a[8];
        p->flux = (double *)(intptr_t)a[9];
        p->rhs = (double *)(intptr_t)a[10];
        p->qmin = (double *)(intptr_t)a[11];
        p->qmax = (double *)(intptr_t)a[12];
        p->d2max = (double *)(intptr_t)a[13];
        p->d2min = (double *)(intptr_t)a[14];
        p->res = (double *)(intptr_t)a[15];
        p->jw0 = (const uint8_t *)(intptr_t)a[16];
        p->jw1 = (const uint8_t *)(intptr_t)a[17];
    }
    atomic_init(&t->claim, WORK_IDLE);
    pthread_mutex_init(&t->mu, 0);
    pthread_mutex_init(&t->fold_mu, 0);
    pthread_cond_init(&t->cv, 0);
    return t;
}

/* Helper s's life (1 <= s < n_threads): wait for a job to be published,
 * claim its tasks with the others; return once the team is stopped. */
void team_serve(team_t *t, int64_t s)
{
    for (int64_t seen = 0;;) {
        team_wait(t, &t->epoch, seen);
        seen = atomic_load(&t->epoch);
        if (atomic_load(&t->stop))
            return;
        run_tasks(t, s);
    }
}

/* One residual stage (1 recon, 2 limit, 3 flux) on every part, over the
 * shared arrays of repro.sweeps.schedule.ResidualArrays; grad NULL is the
 * first-order flux. */
void team_sweep(team_t *t, int64_t stage, const double *q, double *rhs,
                double *qmin, double *qmax, const double *grad,
                double *d2max, double *d2min, const double *phi, double beta,
                int64_t roe, double *res)
{
    t->job = (team_job){
        .kind = stage, .n_phases = 1, .q = q, .rhs = rhs, .qmin = qmin,
        .qmax = qmax, .grad = grad, .d2max = d2max, .d2min = d2min,
        .phi = phi, .beta = beta, .roe = roe, .res = res,
    };
    team_run(t);
}

/* The first-order Jacobian's edge blocks of edges e0 / e1 / normals
 * with block slots (4, n_edges), added into vals: every part sweeps the
 * whole edge set and writes the ends its Jacobian masks jw0 / jw1 mark. */
void team_jacobian(team_t *t, int64_t n_edges, const int64_t *e0,
                   const int64_t *e1, const double *normals,
                   const int64_t *slots, const double *q, double beta,
                   double *vals)
{
    t->job = (team_job){
        .kind = JOB_JACOBIAN, .n_phases = 1, .n_edges = n_edges, .e0 = e0,
        .e1 = e1, .normals = normals, .slots = slots, .q = q, .beta = beta,
        .vals = vals,
    };
    team_run(t);
}

/* ilu4 level by level on the team: the rows of level l are
 * level_rows[level_ptr[l] .. level_ptr[l+1]), and work[r] is the work of
 * the rows before position r (n + 1 entries); pos holds an n-entry
 * scratch per thread, all -1.  Returns 1 when a diagonal block was
 * singular (the factors are then garbage past it; ilu4 names the row),
 * else 0. */
int64_t team_ilu4(team_t *t, int64_t n, const int64_t *lptr,
                  const int64_t *uptr, const int64_t *cols,
                  int64_t n_levels, const int64_t *level_ptr,
                  const int64_t *level_rows, const int64_t *work,
                  double *vals, double *diag_inv, int64_t *pos)
{
    t->job = (team_job){
        .kind = JOB_ILU, .n_phases = n_levels, .n = n, .lptr = lptr,
        .uptr = uptr, .cols = cols, .level_ptr = level_ptr,
        .level_rows = level_rows, .work = work, .lu = vals,
        .diag_inv = diag_inv, .pos = pos,
    };
    atomic_store(&t->singular, 0);
    team_run(t);
    return atomic_load(&t->singular);
}

/* Stop the team: every helper returns from team_serve. */
void team_stop(team_t *t)
{
    atomic_store(&t->stop, 1);
    atomic_fetch_add(&t->epoch, 1);
    team_wake(t);
}

/* Release a stopped team whose helpers have all returned. */
void team_free(team_t *t)
{
    pthread_cond_destroy(&t->cv);
    pthread_mutex_destroy(&t->mu);
    pthread_mutex_destroy(&t->fold_mu);
    free(t->parts);
    free(t);
}
