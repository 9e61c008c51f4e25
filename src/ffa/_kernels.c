/* Compiled forms of two overhead-bound loops of the ffa package.
 *
 * Each function performs the IEEE operations of its numpy rule in the same
 * order, so its results are bitwise equal to that rule's:
 *
 *   ffa_simulate  one whole call of ffa.spiking.simulate over B rows (any
 *                 output trace and reset; plasticity under the symmetric
 *                 probability) on the lockstep path, or, with tau_e >= 1/2,
 *                 B plastic B = 1 calls on the event path, one row after
 *                 another (ffa.spiking.simulate_online).  It draws each
 *                 step's uniforms through the generator's next_double, the
 *                 stream and end state of rate_encode's rng.random;
 *   ffa_adam      one step of ffa.analog.adam_step.
 *
 * The three output traces are one line, T <- g*I + (d*(1 - h*I))*T, with
 * (g, d, h) = (mu, tau_o, 0) for li, (1, tau_o, 1) for hard_li and (mu, 1, 0)
 * for relu.  The spike I is 0.0 or 1.0, so h*I is exact, and a product with
 * 1.0 or a difference with 0.0 rounds nothing: each kind rounds exactly where
 * its trace_step does.  Each row's partition goodness is summed left to
 * right, as ffa.core.row_sums sums it; scipy's sparse products add the rows
 * of W.T, or the rows' impulses, one after another from 0.0.
 *
 * Where _EventSynapses.fold makes a dense pass over W and e, the event path
 * queues the fold instead, and applies the queued folds to an input's rows of
 * W.T and e.T just before they are next read, and to every row at the end of
 * the call.  Each element still goes through fold's two operations, with the
 * same operands and in the same order; only when they run changes.  Between
 * a fold and its application to a row nothing reads or writes that row: the
 * current and the plastic step touch only the rows of the inputs that fired,
 * and those are brought up to date first.  The bits are the dense fold's.
 *
 * Build with -ffp-contract=off and never with -ffast-math (it reorders
 * sums).  A fused multiply-add rounds once where numpy rounds twice, as it
 * would in the trace line, whose product rounds for li and hard_li.
 * ffa/_kernels.py compiles, caches and loads this file.
 */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>

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

/* The queued folds from done[i] on, in queue order, applied to input i's rows
 * of w and e: each is _EventSynapses.fold's W += e * (eta * C); e *= c. */
static void catch_up(double *w_row, double *e_row, ptrdiff_t n_out, const double *queue,
                     ptrdiff_t from, ptrdiff_t queued)
{
    for (ptrdiff_t q = from; q < queued; q++) {
        const double scale = queue[2 * q], decay = queue[2 * q + 1];
        for (ptrdiff_t j = 0; j < n_out; j++) {
            w_row[j] += e_row[j] * scale;
            e_row[j] *= decay;
        }
    }
}

/* Queue the fold _EventSynapses.fold makes of (decay, decay_sum), (eta * C, c),
 * at queue[queued] unless decay_sum is 0.0; returns the new queue length. */
static ptrdiff_t enqueue(double *queue, ptrdiff_t queued, double eta, double decay,
                         double decay_sum)
{
    if (decay_sum == 0.0)
        return queued;
    queue[2 * queued] = eta * decay_sum;
    queue[2 * queued + 1] = decay;
    return queued + 1;
}

typedef double (*next_double_fn)(void *state);

/* hebbian_post of one row into post: the symmetric modulation_batch times
 * the trace, each partition's goodness summed left to right. */
static void hebbian_post(double *post, const double *tr, ptrdiff_t n_out,
                         const unsigned char *pos_mask, int positive, double epsilon)
{
    const double half_eps = 0.5 * epsilon;
    double g_pos = 0.0, g_neg = 0.0;
    for (ptrdiff_t j = 0; j < n_out; j++) {
        const double sq = tr[j] * tr[j];
        if (pos_mask[j])
            g_pos += sq;
        else
            g_neg += sq;
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
 * [n_in][n_out] weights; p and cols hold the events' spike probabilities and
 * input columns, row b's at [starts[b], starts[b + 1]); next_double and
 * state are the generator's.  subtract selects the LIF reset and trace_g,
 * trace_d and trace_h the trace's (g, d, h); trace [rows][n_out] (zeroed)
 * receives the final traces.  Steps from active_start (0 to steps) on are
 * plastic: they use the eligibility e, the layer's pos_mask, each row's
 * polarity positive[b], epsilon, tau_e and eta.  With event set the rows run
 * one after another, each as a one-row call of its own: fresh LIF and trace
 * state, plastic steps through _EventSynapses, folding once the decay
 * product drops below fold_below and at the row's end; the folds are queued
 * and applied per input row (see above), so w and e hold the real values on
 * return.  Else the rows run in lockstep, each row's impulse is added at its
 * fired inputs into impulse [n_in][n_out] and the row mean is folded through
 * e into w.  Returns 0; -1 when the events do not fit, or -2 when scratch
 * memory cannot be had, having drawn and written nothing. */
int ffa_simulate(ptrdiff_t rows, ptrdiff_t n_in, ptrdiff_t n_out, ptrdiff_t nnz, ptrdiff_t steps,
                 ptrdiff_t active_start, const double *p, const ptrdiff_t *cols,
                 const ptrdiff_t *starts, double lif_decay, double threshold, double gain,
                 int subtract, double trace_g, double trace_d, double trace_h, double *w,
                 double *trace, const unsigned char *pos_mask,
                 const unsigned char *positive, double epsilon, double tau_e, double eta,
                 double *e, double *impulse, int event, double fold_below,
                 next_double_fn next_double, void *state)
{
    if (starts[0] != 0 || starts[rows] != nnz || active_start < 0 || active_start > steps)
        return -1;
    for (ptrdiff_t b = 0; b < rows; b++)
        if (starts[b + 1] < starts[b] || starts[b + 1] - starts[b] > n_in)
            return -1;
    for (ptrdiff_t k = 0; k < nnz; k++)
        if (cols[k] < 0 || cols[k] >= n_in)
            return -1;
    /* potential [rows][n_out], then current and e_sum [n_out]; fired holds
     * a row's W.T offsets, touched flags the impulse rows set */
    double *work = calloc((size_t)((rows + 2) * n_out), sizeof *work);
    ptrdiff_t *fired = malloc((size_t)n_in * sizeof *fired);
    unsigned char *touched = calloc((size_t)n_in, 1);
    /* the event path's folds, (eta * C, c) each, queued for at most one per plastic
     * step and one per row end; done[i] of them are applied to input i's rows */
    double *queue = NULL;
    ptrdiff_t *done = NULL;
    size_t entries = 0, bytes = 0;
    if (event && !__builtin_mul_overflow((size_t)rows, (size_t)(steps - active_start + 1),
                                         &entries)
        && !__builtin_mul_overflow(entries, 2 * sizeof *queue, &bytes)) {
        queue = malloc(bytes);
        done = calloc((size_t)n_in, sizeof *done);
    }
    if ((n_out && !work) || (n_in && (!fired || !touched))  /* a size 0 may give NULL */
        || (event && (!queue || (n_in && !done)))) {
        free(work);
        free(fired);
        free(touched);
        free(queue);
        free(done);
        return -2;
    }
    ptrdiff_t queued = 0;
    double *potential = work, *current = work + rows * n_out, *e_sum = current + n_out;
    /* the lockstep path runs all rows in one block, the event path one row
     * after another; each block starts from fresh LIF and trace state */
    const ptrdiff_t block = event ? 1 : rows;

    for (ptrdiff_t first = 0; first < rows; first += block) {
        double decay = 1.0, decay_sum = 0.0;
        for (ptrdiff_t t = 0; t < steps; t++) {
            const int plastic = t >= active_start;
            for (ptrdiff_t b = first; b < first + block; b++) {
                /* rate_encode, one uniform per event in order as rng.random draws
                 * them, then the current: W.T rows in column order */
                ptrdiff_t n_fired = 0;
                for (ptrdiff_t k = starts[b]; k < starts[b + 1]; k++)
                    if (next_double(state) < p[k])
                        fired[n_fired++] = cols[k] * n_out;
                if (event && queued && n_out) /* the fired inputs' rows, up to date */
                    for (ptrdiff_t k = 0; k < n_fired; k++) {
                        ptrdiff_t *applied = done + fired[k] / n_out;
                        catch_up(w + fired[k], e + fired[k], n_out, queue, *applied, queued);
                        *applied = queued;
                    }
                row_sum(current, w, fired, n_fired, n_out);
                if (event && decay_sum != 0.0) { /* _EventSynapses.current */
                    row_sum(e_sum, e, fired, n_fired, n_out);
                    const double scale = eta * decay_sum;
                    for (ptrdiff_t j = 0; j < n_out; j++)
                        current[j] += scale * e_sum[j];
                }

                /* lif_fire and trace_step */
                double *pot = potential + b * n_out, *tr = trace + b * n_out;
                for (ptrdiff_t j = 0; j < n_out; j++) {
                    pot[j] *= lif_decay;
                    pot[j] += gain * current[j];
                    const double spike = pot[j] >= threshold ? 1.0 : 0.0;
                    if (spike != 0.0)
                        pot[j] = subtract ? pot[j] - threshold : 0.0;
                    tr[j] = trace_g * spike + (trace_d * (1.0 - trace_h * spike)) * tr[j];
                }
                if (!plastic)
                    continue;

                /* current now holds the row's post factor */
                hebbian_post(current, tr, n_out, pos_mask, positive[b], epsilon);
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
                        queued = enqueue(queue, queued, eta, decay, decay_sum);
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
            queued = enqueue(queue, queued, eta, decay, decay_sum);
    }
    if (event && queued) /* every row, up to date */
        for (ptrdiff_t i = 0; i < n_in; i++)
            catch_up(w + i * n_out, e + i * n_out, n_out, queue, done[i], queued);
    free(work);
    free(fired);
    free(touched);
    free(queue);
    free(done);
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
