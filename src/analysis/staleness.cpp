#include "analysis/staleness.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace vaq::analysis
{

namespace
{

/** Per-op floating-point headroom. The closed form and the product
 *  form each accumulate ~1 ulp per operation; their logs disagree
 *  by O(opCount * eps * |logPST|). 1e-12 per op plus a 1e-9 floor
 *  dominates that for every circuit this repo compiles while
 *  staying ~6 orders of magnitude under a 1e-3 tolerance. */
constexpr double kFpSlackPerOp = 1e-12;
constexpr double kFpSlackFloor = 1e-9;

bool
validErrorRate(double e)
{
    return std::isfinite(e) && e >= 0.0 && e < 1.0;
}

bool
validT1(double t1_us)
{
    return std::isfinite(t1_us) && t1_us > 0.0;
}

/** Accumulates per-parameter deltas into an assessment. */
class StalenessAccumulator
{
  public:
    /** An error-rate parameter (1q, readout or 2q link error) used
     *  `count` times, moving old_e -> new_e. */
    void errorParam(double count, double old_e, double new_e);

    /** A coherence parameter: `busy_ns` of exposure on a qubit
     *  whose T1 moved old_t1_us -> new_t1_us. */
    void coherenceParam(double busy_ns, double old_t1_us,
                        double new_t1_us);

    /** Void the certificate (premise violation). */
    void uncertifiable();

    /** Final assessment; `op_count` sizes the fp headroom. */
    StalenessAssessment finish(std::size_t op_count) const;

  private:
    StalenessAssessment _result;
};

void
StalenessAccumulator::errorParam(double count, double old_e,
                                 double new_e)
{
    if (count <= 0.0 || old_e == new_e)
        return;
    _result.anyDelta = true;
    if (!validErrorRate(old_e) || !validErrorRate(new_e)) {
        _result.certifiable = false;
        return;
    }
    const double delta = new_e - old_e;
    const double worst = std::max(old_e, new_e);
    _result.firstOrder += count * std::abs(delta) / (1.0 - old_e);
    _result.secondOrder += count * delta * delta /
                           (2.0 * (1.0 - worst) * (1.0 - worst));
    _result.deltaLogPst +=
        count * (std::log1p(-new_e) - std::log1p(-old_e));
}

void
StalenessAccumulator::coherenceParam(double busy_ns,
                                     double old_t1_us,
                                     double new_t1_us)
{
    if (busy_ns <= 0.0 || old_t1_us == new_t1_us)
        return;
    _result.anyDelta = true;
    if (!validT1(old_t1_us) || !validT1(new_t1_us)) {
        _result.certifiable = false;
        return;
    }
    const double k = busy_ns / 1000.0;
    const double delta = new_t1_us - old_t1_us;
    const double t_min = std::min(old_t1_us, new_t1_us);
    _result.firstOrder +=
        k * std::abs(delta) / (old_t1_us * old_t1_us);
    _result.secondOrder +=
        k * delta * delta / (t_min * t_min * t_min);
    _result.deltaLogPst += k * (1.0 / old_t1_us - 1.0 / new_t1_us);
}

void
StalenessAccumulator::uncertifiable()
{
    _result.certifiable = false;
    _result.anyDelta = true;
}

StalenessAssessment
StalenessAccumulator::finish(std::size_t op_count) const
{
    StalenessAssessment result = _result;
    if (result.anyDelta && result.certifiable) {
        result.fpSlack =
            kFpSlackFloor +
            kFpSlackPerOp * static_cast<double>(op_count);
    }
    return result;
}

} // namespace

double
StalenessAssessment::bound() const
{
    if (!certifiable)
        return std::numeric_limits<double>::infinity();
    return firstOrder + secondOrder + fpSlack;
}

StalenessAssessment
assessStaleness(const SensitivityProfile &profile,
                const calibration::Snapshot &now)
{
    StalenessAccumulator acc;
    const calibration::GateDurations &d = now.durations;
    if (d.oneQubitNs != profile.durations.oneQubitNs ||
        d.twoQubitNs != profile.durations.twoQubitNs ||
        d.measureNs != profile.durations.measureNs)
        acc.uncertifiable();
    for (const QubitSensitivity &q : profile.qubits) {
        if (q.qubit < 0 || q.qubit >= now.numQubits()) {
            acc.uncertifiable();
            continue;
        }
        const calibration::QubitCalibration &cal =
            now.qubit(q.qubit);
        acc.errorParam(q.oneQubitGates, q.error1q, cal.error1q);
        acc.errorParam(q.measurements, q.readoutError,
                       cal.readoutError);
        acc.coherenceParam(q.busyNs, q.t1Us, cal.t1Us);
        // T2 deliberately not consulted: the PerOp coherence model
        // charges T1 only, so T2-only drift certifies at bound 0.
    }
    for (const LinkSensitivity &l : profile.links) {
        if (l.link >= now.numLinks()) {
            acc.uncertifiable();
            continue;
        }
        acc.errorParam(l.effectiveGates, l.error2q,
                       now.linkError(l.link));
    }
    return acc.finish(profile.opCount);
}

} // namespace vaq::analysis
