/* Compiled forms of three overhead-bound loops of the ffa package.
 *
 * Each function performs the IEEE operations of its numpy rule in the same
 * order, so its results are bitwise equal to that rule's:
 *
 *   ffa_online_sample  one plastic B = 1 sample of ffa.spiking.simulate on
 *                      the event path (symmetric probability, relu trace,
 *                      to_zero reset, tau_e >= 1/2);
 *   ffa_lockstep_step  one timestep of simulate's lockstep path over B rows
 *                      (relu trace, to_zero reset; plastic steps under the
 *                      symmetric probability);
 *   ffa_adam           one step of ffa.analog.adam_step.
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
 * one row after another. */
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

/* One plastic sample.  w and e are the presynaptic-major [n_in][n_out]
 * weights and eligibility; p and cols hold the nnz nonzero inputs' spike
 * probabilities and columns, and u the sample's steps * nnz uniforms, step
 * by step.  trace (zeroed) receives the final output trace.  work holds
 * 4 * n_out zeroed doubles and fired nnz offsets. */
void ffa_online_sample(ptrdiff_t n_in, ptrdiff_t n_out, ptrdiff_t nnz, ptrdiff_t steps,
                       ptrdiff_t active_start, const double *p, const ptrdiff_t *cols,
                       const double *u, const unsigned char *pos_mask, int positive,
                       double lif_decay, double threshold, double gain, double mu,
                       double epsilon, double tau_e, double eta, double fold_below,
                       double *w, double *e, double *trace, double *work, ptrdiff_t *fired)
{
    double *potential = work, *current = work + n_out, *e_sum = work + 2 * n_out;
    double *gathered = work + 3 * n_out;
    const double half_eps = 0.5 * epsilon;
    double decay = 1.0, decay_sum = 0.0;

    for (ptrdiff_t t = 0; t < steps; t++) {
        /* rate_encode, then _EventSynapses.current */
        const double *ut = u + t * nnz;
        ptrdiff_t n_fired = 0;
        for (ptrdiff_t k = 0; k < nnz; k++)
            if (ut[k] < p[k])
                fired[n_fired++] = cols[k] * n_out;
        row_sum(current, w, fired, n_fired, n_out);
        if (decay_sum != 0.0) {
            row_sum(e_sum, e, fired, n_fired, n_out);
            const double scale = eta * decay_sum;
            for (ptrdiff_t j = 0; j < n_out; j++)
                current[j] += scale * e_sum[j];
        }

        /* lif_fire (to_zero reset) and the relu trace_step */
        for (ptrdiff_t j = 0; j < n_out; j++) {
            potential[j] *= lif_decay;
            potential[j] += gain * current[j];
            const double spike = potential[j] >= threshold ? 1.0 : 0.0;
            if (spike != 0.0)
                potential[j] = 0.0;
            trace[j] = mu * spike + trace[j];
        }
        if (t < active_start)
            continue;

        /* hebbian_post: the symmetric modulation_batch times the trace */
        ptrdiff_t n_pos = 0;
        for (ptrdiff_t j = 0; j < n_out; j++)
            if (pos_mask[j])
                gathered[n_pos++] = trace[j] * trace[j];
        ptrdiff_t n_neg = n_pos;
        for (ptrdiff_t j = 0; j < n_out; j++)
            if (!pos_mask[j])
                gathered[n_neg++] = trace[j] * trace[j];
        const double g_pos = 0.0 + pairwise_sum(gathered, n_pos);
        const double g_neg = 0.0 + pairwise_sum(gathered + n_pos, n_out - n_pos);
        const double p_pos = (g_pos + half_eps) / (g_pos + g_neg + epsilon);
        const double g_match = positive ? g_pos : g_neg;
        const double p_match = positive ? p_pos : 1.0 - p_pos;
        const double pot = (1.0 - p_match) / (g_match + half_eps);
        const double dep = -1.0 / (g_pos + g_neg + epsilon);

        /* _EventSynapses.step; current now holds the update delta */
        decay *= tau_e;
        if (n_fired) {
            const double a = (1.0 - tau_e) / decay, b = eta * decay_sum;
            for (ptrdiff_t j = 0; j < n_out; j++) {
                const double modulation = (!pos_mask[j] == !positive) ? pot : dep;
                current[j] = a * (modulation * trace[j]);
            }
            for (ptrdiff_t k = 0; k < n_fired; k++) {
                double *w_row = w + fired[k], *e_row = e + fired[k];
                for (ptrdiff_t j = 0; j < n_out; j++) {
                    e_row[j] += current[j];
                    w_row[j] -= b * current[j];
                }
            }
        }
        decay_sum += decay;
        if (decay < fold_below) {
            fold(w, e, n_in * n_out, eta, decay, decay_sum);
            decay = 1.0;
            decay_sum = 0.0;
        }
    }
    fold(w, e, n_in * n_out, eta, decay, decay_sum);
}

/* One timestep of simulate's lockstep path over `rows` instances.  w is the
 * presynaptic-major [n_in][n_out] weights; p, cols and u hold the events'
 * spike probabilities, input columns and this step's uniforms, row b's at
 * [starts[b], starts[b + 1]); potential and trace [rows][n_out] carry the LIF
 * and trace state.  work holds 2 * n_out doubles and fired as many offsets
 * as the longest row has events.  A plastic step also adds each row's
 * impulse at its fired inputs into impulse [n_in][n_out], marking them in
 * touched (n_in zeroed flags, cleared again), then folds the row mean
 * through the eligibility e into w; keep is 1 - tau_e, and positive[b]
 * row b's polarity. */
void ffa_lockstep_step(ptrdiff_t rows, ptrdiff_t n_in, ptrdiff_t n_out, const double *p,
                       const ptrdiff_t *cols, const ptrdiff_t *starts, double lif_decay,
                       double threshold, double gain, double mu, double *w, double *potential,
                       double *trace, double *work, ptrdiff_t *fired,
                       const unsigned char *pos_mask, const unsigned char *positive,
                       double epsilon, double keep, double eta, double *e, double *impulse,
                       unsigned char *touched, const double *u, int plastic)
{
    double *current = work, *gathered = work + n_out;
    const double half_eps = 0.5 * epsilon;

    for (ptrdiff_t b = 0; b < rows; b++) {
        /* rate_encode, then csr_matvecs' current: W.T rows in column order */
        ptrdiff_t n_fired = 0;
        for (ptrdiff_t k = starts[b]; k < starts[b + 1]; k++)
            if (u[k] < p[k])
                fired[n_fired++] = cols[k] * n_out;
        row_sum(current, w, fired, n_fired, n_out);

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

        /* hebbian_post: the symmetric modulation_batch times the trace */
        double g_pos = 0.0, g_neg = 0.0;
        if (rows == 1) {
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
        const int pos_row = positive[b] != 0;
        const double p_pos = (g_pos + half_eps) / (g_pos + g_neg + epsilon);
        const double g_match = pos_row ? g_pos : g_neg;
        const double p_match = pos_row ? p_pos : 1.0 - p_pos;
        const double pot_f = (1.0 - p_match) / (g_match + half_eps);
        const double dep = -1.0 / (g_pos + g_neg + epsilon);
        for (ptrdiff_t j = 0; j < n_out; j++)
            current[j] = ((!pos_mask[j] == !pos_row) ? pot_f : dep) * tr[j];

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
    if (!plastic)
        return;

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
                s *= keep;
                e_row[j] += s;
                w_row[j] += e_row[j] * eta;
            }
        } else {
            for (ptrdiff_t j = 0; j < n_out; j++) {
                double s = zero - e_row[j];
                s *= keep;
                e_row[j] += s;
                w_row[j] += e_row[j] * eta;
            }
        }
    }
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
