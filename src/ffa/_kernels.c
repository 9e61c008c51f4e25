/* Compiled forms of two overhead-bound loops of the ffa package.
 *
 * Each function performs the IEEE operations of its numpy rule in the same
 * order, so its results are bitwise equal to that rule's:
 *
 *   ffa_simulate  one whole call of ffa.spiking.simulate over B rows (relu
 *                 trace, to_zero reset; plasticity under the symmetric
 *                 probability), on the lockstep path or, for a plastic
 *                 B = 1 call with tau_e >= 1/2, on the event path.  It draws
 *                 each step's uniforms through the generator's next_double,
 *                 the stream and end state of rate_encode's rng.random;
 *   ffa_adam      one step of ffa.analog.adam_step.
 *
 * numpy sums one row of a partition pairwise (pairwise_sum) but a stack of
 * rows column by column, so each row of a stack is summed left to right;
 * scipy's sparse products add the rows of W.T, or the rows' impulses, one
 * after another from 0.0.
 *
 * Build with -ffp-contract=off (a fused multiply-add rounds once where
 * numpy rounds twice) and never with -ffast-math (it reorders sums).
 * ffa/_kernels.py compiles, caches and loads this file.
 */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>

/* numpy's pairwise summation of a contiguous float64 run: eight
 * accumulators per block of at most 128 elements, halves above that. */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* numpy's axis-0 sum of the rows at offsets rows[0..count) of m: from 0.0,
 * one row after another.  Kept out of line: inlined into ffa_simulate,
 * gcc 12 made a 500-row eval call about a fifth slower (x86-64, 2 vCPUs). */
__attribute__((noinline))
static void row_sum(double *out, const double *m, const ptrdiff_t *rows, ptrdiff_t count,
                    ptrdiff_t n_out)
{
    for (ptrdiff_t j = 0; j < n_out; j++)
        out[j] = 0.0;
    for (ptrdiff_t k = 0; k < count; k++) {
        const double *row = m + rows[k];
        for (ptrdiff_t j = 0; j < n_out; j++)
            out[j] += row[j];
    }
}

/* _EventSynapses.fold: W += e * (eta * C); e *= c. */
static void fold(double *w, double *e, ptrdiff_t size, double eta, double decay,
                 double decay_sum)
{
    if (decay_sum == 0.0)
        return;
    const double scale = eta * decay_sum;
    for (ptrdiff_t k = 0; k < size; k++) {
        w[k] += e[k] * scale;
        e[k] *= decay;
    }
}

typedef double (*next_double_fn)(void *state);

/* hebbian_post of one row into post: the symmetric modulation_batch times
 * the trace.  A batch of one sums each partition pairwise, a row of a stack
 * left to right; gathered holds n_out doubles. */
static void hebbian_post(double *post, const double *tr, ptrdiff_t n_out,
                         const unsigned char *pos_mask, int positive, double epsilon,
                         int pairwise, double *gathered)
{
    const double half_eps = 0.5 * epsilon;
    double g_pos = 0.0, g_neg = 0.0;
    if (pairwise) {
        ptrdiff_t n_pos = 0;
        for (ptrdiff_t j = 0; j < n_out; j++)
            if (pos_mask[j])
                gathered[n_pos++] = tr[j] * tr[j];
        ptrdiff_t n_neg = n_pos;
        for (ptrdiff_t j = 0; j < n_out; j++)
            if (!pos_mask[j])
                gathered[n_neg++] = tr[j] * tr[j];
        g_pos += pairwise_sum(gathered, n_pos);
        g_neg += pairwise_sum(gathered + n_pos, n_out - n_pos);
    } else {
        for (ptrdiff_t j = 0; j < n_out; j++) {
            const double sq = tr[j] * tr[j];
            if (pos_mask[j])
                g_pos += sq;
            else
                g_neg += sq;
        }
    }
    const double p_pos = (g_pos + half_eps) / (g_pos + g_neg + epsilon);
    const double g_match = positive ? g_pos : g_neg;
    const double p_match = positive ? p_pos : 1.0 - p_pos;
    const double pot = (1.0 - p_match) / (g_match + half_eps);
    const double dep = -1.0 / (g_pos + g_neg + epsilon);
    for (ptrdiff_t j = 0; j < n_out; j++)
        post[j] = ((!pos_mask[j] == !positive) ? pot : dep) * tr[j];
}

/* One call of simulate over `rows` instances.  w is the presynaptic-major
 * [n_in][n_out] weights; p and cols hold the events' spike probabilities
 * and input columns, row b's at [starts[b], starts[b + 1]); next_double and
 * state are the generator's.  trace [rows][n_out] (zeroed) receives the
 * final traces.  Steps from active_start on are plastic: they use the
 * eligibility e, the layer's pos_mask, each row's polarity positive[b],
 * epsilon, tau_e and eta.  With event set (one row) they run
 * _EventSynapses, folding once the decay product drops below fold_below;
 * else each row's impulse is added at its fired inputs into impulse
 * [n_in][n_out] and the row mean is folded through e into w.  Returns 0;
 * -1 when the events do not fit, or -2 when scratch memory cannot be had,
 * having drawn and written nothing. */
int ffa_simulate(ptrdiff_t rows, ptrdiff_t n_in, ptrdiff_t n_out, ptrdiff_t nnz, ptrdiff_t steps,
                 ptrdiff_t active_start, const double *p, const ptrdiff_t *cols,
                 const ptrdiff_t *starts, double lif_decay, double threshold, double gain,
                 double mu, double *w, double *trace, const unsigned char *pos_mask,
                 const unsigned char *positive, double epsilon, double tau_e, double eta,
                 double *e, double *impulse, int event, double fold_below,
                 next_double_fn next_double, void *state)
{
    if (starts[0] != 0 || starts[rows] != nnz)
        return -1;
    for (ptrdiff_t b = 0; b < rows; b++)
        if (starts[b + 1] < starts[b] || starts[b + 1] - starts[b] > n_in)
            return -1;
    for (ptrdiff_t k = 0; k < nnz; k++)
        if (cols[k] < 0 || cols[k] >= n_in)
            return -1;
    /* potential [rows][n_out], then current, gathered and e_sum [n_out];
     * fired holds a row's W.T offsets, touched flags the impulse rows set */
    double *work = calloc((size_t)((rows + 3) * n_out), sizeof *work);
    ptrdiff_t *fired = malloc((size_t)n_in * sizeof *fired);
    unsigned char *touched = calloc((size_t)n_in, 1);
    if ((n_out && !work) || (n_in && (!fired || !touched))) { /* a size 0 may give NULL */
        free(work);
        free(fired);
        free(touched);
        return -2;
    }
    double *potential = work, *current = work + rows * n_out;
    double *gathered = current + n_out, *e_sum = gathered + n_out;
    double decay = 1.0, decay_sum = 0.0;

    for (ptrdiff_t t = 0; t < steps; t++) {
        const int plastic = t >= active_start;
        for (ptrdiff_t b = 0; b < rows; b++) {
            /* rate_encode, one uniform per event in order as rng.random draws
             * them, then the current: W.T rows in column order */
            ptrdiff_t n_fired = 0;
            for (ptrdiff_t k = starts[b]; k < starts[b + 1]; k++)
                if (next_double(state) < p[k])
                    fired[n_fired++] = cols[k] * n_out;
            row_sum(current, w, fired, n_fired, n_out);
            if (event && decay_sum != 0.0) { /* _EventSynapses.current */
                row_sum(e_sum, e, fired, n_fired, n_out);
                const double scale = eta * decay_sum;
                for (ptrdiff_t j = 0; j < n_out; j++)
                    current[j] += scale * e_sum[j];
            }

            /* lif_fire (to_zero reset) and the relu trace_step */
            double *pot = potential + b * n_out, *tr = trace + b * n_out;
            for (ptrdiff_t j = 0; j < n_out; j++) {
                pot[j] *= lif_decay;
                pot[j] += gain * current[j];
                const double spike = pot[j] >= threshold ? 1.0 : 0.0;
                if (spike != 0.0)
                    pot[j] = 0.0;
                tr[j] = mu * spike + tr[j];
            }
            if (!plastic)
                continue;

            /* current now holds the row's post factor */
            hebbian_post(current, tr, n_out, pos_mask, positive[b], epsilon, rows == 1,
                         gathered);
            if (event) { /* _EventSynapses.step */
                decay *= tau_e;
                const double a = (1.0 - tau_e) / decay, scale = eta * decay_sum;
                for (ptrdiff_t j = 0; j < n_out; j++)
                    current[j] = a * current[j];
                for (ptrdiff_t k = 0; k < n_fired; k++) {
                    double *w_row = w + fired[k], *e_row = e + fired[k];
                    for (ptrdiff_t j = 0; j < n_out; j++) {
                        e_row[j] += current[j];
                        w_row[j] -= scale * current[j];
                    }
                }
                decay_sum += decay;
                if (decay < fold_below) {
                    fold(w, e, n_in * n_out, eta, decay, decay_sum);
                    decay = 1.0;
                    decay_sum = 0.0;
                }
                continue;
            }
            /* hebbian_impulse: csc_matvecs adds the rows' posts in row order */
            for (ptrdiff_t k = 0; k < n_fired; k++) {
                double *row = impulse + fired[k];
                unsigned char *seen = touched + fired[k] / n_out;
                if (*seen) {
                    for (ptrdiff_t j = 0; j < n_out; j++)
                        row[j] += current[j];
                } else {
                    *seen = 1;
                    for (ptrdiff_t j = 0; j < n_out; j++)
                        row[j] = 0.0 + current[j];
                }
            }
        }
        if (!plastic || event)
            continue;

        /* np.divide(impulse, rows) and eligibility_step in one pass; an input
         * that fired in no row has the impulse 0.0 */
        const double count = (double)rows, zero = 0.0 / count;
        for (ptrdiff_t i = 0; i < n_in; i++) {
            const double *imp = impulse + i * n_out;
            double *e_row = e + i * n_out, *w_row = w + i * n_out;
            if (touched[i]) {
                touched[i] = 0;
                for (ptrdiff_t j = 0; j < n_out; j++) {
                    double s = imp[j] / count;
                    s -= e_row[j];
                    s *= 1.0 - tau_e;
                    e_row[j] += s;
                    w_row[j] += e_row[j] * eta;
                }
            } else {
                for (ptrdiff_t j = 0; j < n_out; j++) {
                    double s = zero - e_row[j];
                    s *= 1.0 - tau_e;
                    e_row[j] += s;
                    w_row[j] += e_row[j] * eta;
                }
            }
        }
    }
    if (event)
        fold(w, e, n_in * n_out, eta, decay, decay_sum);
    free(work);
    free(fired);
    free(touched);
    return 0;
}

/* One bias-corrected ADAM step over n elements, in adam_step's ufunc order. */
void ffa_adam(ptrdiff_t n, double *w, const double *g, double *m, double *v,
              double one_minus_b1, double one_minus_b2, double c1, double c2, double eta,
              double eps)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double a = (g[i] - m[i]) * one_minus_b1;
        m[i] += a;
        double b = (g[i] * g[i] - v[i]) * one_minus_b2;
        v[i] += b;
        a = (m[i] / c1) * eta;
        b = sqrt(v[i] / c2) + eps;
        w[i] -= a / b;
    }
}
