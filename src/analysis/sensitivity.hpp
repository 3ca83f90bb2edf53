/**
 * @file
 * Symbolic drift-sensitivity analysis of a mapped circuit.
 *
 * The compile pipeline scores a mapping with the analytic PST: the
 * product over non-barrier gates of (1 - totalErrorProb) under
 * sim::NoiseModel with CoherenceMode::PerOp (core/compile_request
 * scoring). That product has an exact closed form as a *weighted sum
 * in log space* of per-parameter usage counts:
 *
 *   log PST = sum_q n1(q)    * log1p(-error1q(q))
 *           + sum_q nMeas(q) * log1p(-readout(q))
 *           + sum_l eff(l)   * log1p(-error2q(l))
 *           - sum_q busyNs(q) / (1000 * t1Us(q))
 *
 * where n1 counts single-qubit unitaries on q, nMeas its
 * measurements, eff(l) = nCX + nCZ + 3*nSWAP over link l (a SWAP is
 * three CNOTs, Fig. 2d of the paper), and busyNs(q) is the total
 * gate time charged to q's T1 relaxation (PerOp coherence charges
 * every operand of every non-barrier gate for the gate's duration;
 * T2 is deliberately not charged — see sim/noise_model.cpp).
 *
 * Because the form is closed, every partial derivative
 * dlogPST/dparameter is one division — no recompile, no simulation.
 * Those coefficients are the certificate material for the staleness
 * bound (analysis/staleness.hpp): given a calibration delta, a
 * first-order term plus a rigorous Lagrange remainder bounds
 * |delta logPST| without touching the mapper.
 *
 * The pass reads the existing DataflowAnalysis facts (per-qubit
 * def/use chains give the per-qubit counts and busy time; one walk
 * over the gate list gives the per-link counts), so it costs
 * O(gates) after the dataflow pass the lint pipeline already ran.
 */
#ifndef VAQ_ANALYSIS_SENSITIVITY_HPP
#define VAQ_ANALYSIS_SENSITIVITY_HPP

#include <cstddef>
#include <vector>

#include "analysis/dataflow.hpp"
#include "calibration/snapshot.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::analysis
{

/** Usage counts, baseline values and first-order coefficients for
 *  one touched physical qubit. */
struct QubitSensitivity
{
    int qubit = 0;
    /** Single-qubit unitary gates on this qubit. */
    double oneQubitGates = 0.0;
    /** MEASURE gates on this qubit. */
    double measurements = 0.0;
    /** Total nanoseconds of gate time charged to this qubit's T1
     *  relaxation (every non-barrier gate touching it). */
    double busyNs = 0.0;
    /** Baseline calibration the profile was built against. */
    double error1q = 0.0;
    double readoutError = 0.0;
    double t1Us = 0.0;

    /** dlogPST/d(error1q) = -n1 / (1 - error1q). */
    double dError1q() const;
    /** dlogPST/d(readoutError) = -nMeas / (1 - readoutError). */
    double dReadout() const;
    /** dlogPST/d(t1Us) = +busyNs / (1000 * t1Us^2). */
    double dT1Us() const;
    /** |logPST| mass this qubit contributes (all three terms). */
    double contribution() const;
};

/** Usage counts, baseline value and first-order coefficient for one
 *  touched coupling link. */
struct LinkSensitivity
{
    std::size_t link = 0; ///< index into graph.links()
    int q0 = 0;           ///< link endpoints (q0 < q1)
    int q1 = 0;
    /** Effective two-qubit gates over this link:
     *  nCX + nCZ + 3 * nSWAP. */
    double effectiveGates = 0.0;
    /** Baseline two-qubit error rate. */
    double error2q = 0.0;

    /** dlogPST/d(error2q) = -eff / (1 - error2q). */
    double dError2q() const;
    /** |logPST| mass this link contributes. */
    double contribution() const;
};

/** The full symbolic profile of one mapped circuit against one
 *  calibration snapshot. */
struct SensitivityProfile
{
    /** Closed-form log PST (equals log of the pipeline's analytic
     *  PST up to floating-point reassociation). -inf when some
     *  touched parameter has error rate 1. */
    double logPst = 0.0;
    /** Non-barrier gates in the circuit (sizes the floating-point
     *  slack of the staleness certificate). */
    std::size_t opCount = 0;
    /** Gate durations the profile was built with (a duration change
     *  voids the certificate). */
    calibration::GateDurations durations;
    /** Touched qubits, ascending. */
    std::vector<QubitSensitivity> qubits;
    /** Touched links, ascending by link index. */
    std::vector<LinkSensitivity> links;

    /** exp(logPst). */
    double pst() const;
    /** Total |logPST| mass across every parameter (the denominator
     *  for dominance/fragility fractions). */
    double totalMass() const;
};

/**
 * Build the profile for the circuit `dataflow` analyzed, mapped onto
 * `graph` under `snapshot`. The circuit must be physical (operands
 * are machine qubits); every two-qubit gate must sit on a coupling
 * link and every operand inside the snapshot, or VaqError is thrown
 * (an unexecutable circuit has no PST to be sensitive about —
 * VL005/VL010 report those).
 */
SensitivityProfile
analyzeSensitivity(const DataflowAnalysis &dataflow,
                   const topology::CouplingGraph &graph,
                   const calibration::Snapshot &snapshot);

/** The closed-form log PST of a profile's usage weights and
 *  baseline values — what analyzeSensitivity() stores in logPst
 *  (also rebuilds it for a profile read back from a record). */
double closedFormLogPst(const SensitivityProfile &profile);

} // namespace vaq::analysis

#endif // VAQ_ANALYSIS_SENSITIVITY_HPP
