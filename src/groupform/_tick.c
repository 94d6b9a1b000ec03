/* One tick of the group-formation rule, built by groupform.dynamics.
 *
 * The torus is d0 x d1 cells, row-major; a 1D torus of M cells is d0 = 1,
 * d1 = M. v holds the non-negative occupancies T(n) and is only read; out
 * receives T(n + 1). The group at (r, c) moves to
 * (r - (v[r+1, c] - v[r-1, c]), c - (v[r, c+1] - v[r, c-1])), wrapped onto
 * the torus, and groups landing on one cell merge by summing.
 */

#include <stdint.h>
#include <string.h>

/* c - g wrapped into [0, d), for 0 <= c < d. g is a difference of two
 * non-negative int64 values, so it cannot overflow; it is reduced modulo d
 * before the subtraction, so that gradients near +-2**63 never wrap. */
static inline int64_t pushed(int64_t c, int64_t g, int64_t d)
{
    if (g <= -d || g >= d)
        g %= d;
    int64_t t = c - g;
    if (t < 0)
        t += d;
    else if (t >= d)
        t -= d;
    return t;
}

/* Returns 0, or 1 if a merged group would exceed INT64_MAX; out is then
 * incomplete. */
int tick(const int64_t *v, int64_t *out, int64_t d0, int64_t d1)
{
    memset(out, 0, (size_t)(d0 * d1) * sizeof *out);
    for (int64_t r = 0; r < d0; r++) {
        const int64_t *row = v + r * d1;
        const int64_t *succ = v + (r + 1 == d0 ? 0 : r + 1) * d1;
        const int64_t *pred = v + (r == 0 ? d0 - 1 : r - 1) * d1;
        for (int64_t c = 0; c < d1; c++) {
            int64_t x = row[c];
            if (x == 0)
                continue;
            int64_t right = row[c + 1 == d1 ? 0 : c + 1];
            int64_t left = row[c == 0 ? d1 - 1 : c - 1];
            int64_t *target = out + pushed(r, succ[c] - pred[c], d0) * d1
                              + pushed(c, right - left, d1);
            if (__builtin_add_overflow(*target, x, target))
                return 1;
        }
    }
    return 0;
}
