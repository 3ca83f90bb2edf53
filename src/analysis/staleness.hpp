/**
 * @file
 * Certified staleness bounds over a sensitivity profile.
 *
 * Given a SensitivityProfile built at compile time and a *new*
 * calibration snapshot, assessStaleness() answers "how far can the
 * compile-time PST estimate be off?" with a certificate, not a
 * heuristic:
 *
 *   |delta logPST| <= firstOrder + secondOrder + fpSlack
 *
 * per changed parameter, where the terms come from the exact Taylor
 * expansion of the closed-form log PST with a Lagrange remainder
 * evaluated at the worst point of the interval:
 *
 *  - error-rate parameter e with usage count c
 *    (term c * log1p(-e); first derivative -c/(1-e), second
 *    -c/(1-e)^2):
 *       firstOrder  += c * |delta| / (1 - e_old)
 *       secondOrder += c * delta^2 / (2 * (1 - e_max)^2),
 *    e_max = max(e_old, e_new) — the remainder's supremum over
 *    [e_old, e_new].
 *  - coherence parameter T1 with busy time K = busyNs/1000
 *    (term -K/T; first derivative +K/T^2, second -2K/T^3):
 *       firstOrder  += K * |delta| / T_old^2
 *       secondOrder += K * delta^2 / T_min^3,
 *    T_min = min(T_old, T_new).
 *
 * fpSlack covers the floating-point gap between the closed form and
 * the pipeline's product-form analytic PST: both accumulate one
 * rounding per operation, so the gap grows with the op count. The
 * slack is zero when *nothing* the profile depends on changed — a
 * bit-identical recompute yields a bit-identical product — so a
 * bound of exactly 0 certifies that the stored mapping and PST are
 * still exact. That is the artifact store's one reuse rule
 * (store/artifact_store.hpp): bound 0 serves unshifted, a positive
 * bound within tolerance serves shifted.
 *
 * The certificate is void (bound = +inf) when the model's premises
 * moved: gate durations changed, a touched qubit/link fell outside
 * the new snapshot, or a parameter left its valid domain
 * (error rates outside [0, 1), T1 <= 0, non-finite values).
 *
 * The assessment also carries the *exact* analytic shift
 * (deltaLogPst): serving a stale artifact multiplies its stored PST
 * by exp(deltaLogPst), which reproduces the closed form under the
 * new snapshot exactly — the bound certifies the distance to the
 * pipeline's product form, the shift removes the first-order error
 * entirely.
 *
 * T2 never enters: the PerOp coherence model charges T1 only (see
 * sim/noise_model.cpp), so a T2-only calibration change certifies
 * at bound zero, as does drift in any parameter whose usage weight
 * is zero.
 */
#ifndef VAQ_ANALYSIS_STALENESS_HPP
#define VAQ_ANALYSIS_STALENESS_HPP

#include "analysis/sensitivity.hpp"
#include "calibration/snapshot.hpp"

namespace vaq::analysis
{

/** Outcome of one staleness assessment. */
struct StalenessAssessment
{
    /** False when the certificate's premises do not hold (duration
     *  change, shape mismatch, out-of-domain parameter); bound()
     *  is +inf then. */
    bool certifiable = true;
    /** True when any parameter the profile depends on changed. */
    bool anyDelta = false;
    /** Sum of first-order terms |w_i * delta_i|. */
    double firstOrder = 0.0;
    /** Sum of Lagrange remainders (worst-case second order). */
    double secondOrder = 0.0;
    /** Floating-point headroom vs. the product-form analytic PST;
     *  zero when !anyDelta. */
    double fpSlack = 0.0;
    /** Exact closed-form shift: logPST(new) - logPST(old). */
    double deltaLogPst = 0.0;

    /** The certified bound on |delta logPST| (+inf when not
     *  certifiable). */
    double bound() const;

    /** True when the assessment certifies |delta logPST| <= tol.
     *  Never true for tol <= 0 with a void certificate. */
    bool within(double tol) const
    {
        return certifiable && bound() <= tol;
    }
};

/**
 * Assess `profile` (built against its baseline snapshot) under the
 * new snapshot `now`. Never throws: any premise violation lands in
 * certifiable = false.
 */
StalenessAssessment
assessStaleness(const SensitivityProfile &profile,
                const calibration::Snapshot &now);

} // namespace vaq::analysis

#endif // VAQ_ANALYSIS_STALENESS_HPP
