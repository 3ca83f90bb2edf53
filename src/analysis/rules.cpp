/**
 * @file
 * The shipped lint rules (VL001..VL013).
 *
 * Every rule reads the precomputed DataflowAnalysis facts; none
 * re-walks the gate list except where the fact itself is per-gate
 * (coupling checks, ESP accumulation). Machine-dependent rules skip
 * silently when the LintContext lacks the graph/snapshot they need,
 * so one rule set serves both logical (pre-compile) and physical
 * (post-compile) circuits.
 */
#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "analysis/rule.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/staleness.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace vaq::analysis
{

namespace
{

using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

/** VL001: a measurement is the first gate to touch its qubit. */
class MeasureUninitializedRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL001"; }
    std::string name() const override
    {
        return "measure-uninitialized";
    }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Correctness;
    }
    std::string description() const override
    {
        return "measurement of a qubit no prior gate touched; the "
               "outcome is always 0";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        for (Qubit q = 0; q < context.circuit.numQubits(); ++q) {
            const QubitChain &chain = context.dataflow.chain(q);
            if (chain.firstMeasure >= 0 &&
                chain.firstMeasure == chain.firstTouch) {
                out.push_back(make(
                    context,
                    "qubit " + std::to_string(q) +
                        " is measured without any prior gate; "
                        "the outcome is always 0",
                    chain.firstMeasure, q));
            }
        }
    }
};

/** VL002: a unitary acts on a qubit after it was measured. */
class MeasureThenReuseRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL002"; }
    std::string name() const override
    {
        return "measure-then-reuse";
    }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Correctness;
    }
    std::string description() const override
    {
        return "gate on a qubit after its measurement with no "
               "reset; later operations act on a collapsed state";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        const auto &gates = context.circuit.gates();
        for (Qubit q = 0; q < context.circuit.numQubits(); ++q) {
            const QubitChain &chain = context.dataflow.chain(q);
            if (chain.firstMeasure < 0)
                continue;
            for (const std::size_t idx : chain.touches) {
                if (static_cast<long>(idx) <= chain.firstMeasure)
                    continue;
                if (!gates[idx].isUnitary())
                    continue;
                out.push_back(make(
                    context,
                    "qubit " + std::to_string(q) + " is reused by "
                        "gate '" + circuit::gateName(
                            gates[idx].kind) +
                        "' after its measurement at gate " +
                        std::to_string(chain.firstMeasure) +
                        " without a reset",
                    static_cast<long>(idx), q));
                break; // one finding per qubit, at first reuse
            }
        }
    }
};

/** VL003: a unitary gate can never influence any measurement. */
class DeadGateRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL003"; }
    std::string name() const override { return "dead-gate"; }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Structure;
    }
    std::string description() const override
    {
        return "gate whose effect reaches no measurement (dead "
               "code under backward reachability)";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        // A circuit with no measurement at all is a building block
        // (everything would be "dead"); stay silent.
        if (context.circuit.measureCount() == 0)
            return;
        const auto &gates = context.circuit.gates();
        const std::vector<bool> &live =
            context.dataflow.liveGate();
        for (std::size_t i = 0; i < gates.size(); ++i) {
            if (live[i] || !gates[i].isUnitary())
                continue;
            out.push_back(make(
                context,
                "gate '" + circuit::gateName(gates[i].kind) +
                    "' on qubit " + std::to_string(gates[i].q0) +
                    " cannot influence any measurement",
                static_cast<long>(i), gates[i].q0,
                gates[i].isTwoQubit() ? gates[i].q1 : -1));
        }
    }
};

/** VL004: a qubit's classical bit is written twice. */
class DoubleMeasureRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL004"; }
    std::string name() const override { return "double-measure"; }
    Severity severity() const override { return Severity::Error; }
    RuleCategory category() const override
    {
        return RuleCategory::Correctness;
    }
    std::string description() const override
    {
        return "repeated measurement into the same classical bit; "
               "the later result overwrites the earlier one";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        for (Qubit q = 0; q < context.circuit.numQubits(); ++q) {
            const QubitChain &chain = context.dataflow.chain(q);
            for (std::size_t m = 1; m < chain.measures.size();
                 ++m) {
                out.push_back(make(
                    context,
                    "qubit " + std::to_string(q) +
                        " is measured again into c[" +
                        std::to_string(q) +
                        "], overwriting the result of gate " +
                        std::to_string(chain.measures[m - 1]),
                    static_cast<long>(chain.measures[m]), q));
            }
        }
    }
};

/** VL005: two-qubit gate on an uncoupled physical pair. */
class UncoupledCxRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL005"; }
    std::string name() const override { return "uncoupled-cx"; }
    Severity severity() const override { return Severity::Error; }
    RuleCategory category() const override
    {
        return RuleCategory::Correctness;
    }
    std::string description() const override
    {
        return "two-qubit gate on a pair with no coupling link; "
               "the circuit is not executable as written";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (!context.physical || context.graph == nullptr)
            return;
        const auto &gates = context.circuit.gates();
        for (std::size_t i = 0; i < gates.size(); ++i) {
            const Gate &g = gates[i];
            if (!g.isTwoQubit())
                continue;
            if (g.q0 >= context.graph->numQubits() ||
                g.q1 >= context.graph->numQubits())
                continue; // VL010 reports width problems
            if (context.graph->coupled(g.q0, g.q1))
                continue;
            out.push_back(make(
                context,
                std::string("'") + circuit::gateName(g.kind) +
                    "' on qubits " + std::to_string(g.q0) + " and " +
                    std::to_string(g.q1) +
                    ", which share no coupling link on " +
                    context.graph->name(),
                static_cast<long>(i), g.q0, g.q1));
        }
    }
};

/** VL006: SWAP the tracked permutation proves removable. */
class RedundantSwapRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL006"; }
    std::string name() const override { return "redundant-swap"; }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Structure;
    }
    std::string description() const override
    {
        return "SWAP that is a no-op under the tracked wire "
               "permutation (exchanges untouched states or cancels "
               "the previous SWAP)";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        const auto &gates = context.circuit.gates();
        for (const SwapFact &fact :
             context.dataflow.swapFacts()) {
            if (!fact.noOp())
                continue;
            const Gate &g = gates[fact.gateIndex];
            std::string why =
                fact.cancelsPrevious
                    ? "immediately undoes the previous SWAP on "
                      "the same pair"
                    : "exchanges two states no gate has touched "
                      "(|0> with |0>)";
            out.push_back(make(
                context,
                "swap on qubits " + std::to_string(g.q0) + " and " +
                    std::to_string(g.q1) + " is a no-op: " + why,
                static_cast<long>(fact.gateIndex), g.q0, g.q1));
        }
    }
};

/** VL007: gate on a dead-calibration qubit or link. */
class QuarantinedQubitRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL007"; }
    std::string name() const override
    {
        return "quarantined-qubit";
    }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Reliability;
    }
    std::string description() const override
    {
        return "gate on a qubit or link whose calibration is dead "
               "or non-finite (the batch quarantine would prune "
               "it)";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (!context.physical || context.graph == nullptr ||
            context.snapshot == nullptr)
            return;
        const topology::CouplingGraph &graph = *context.graph;
        const calibration::Snapshot &snap = *context.snapshot;
        if (snap.numQubits() != graph.numQubits() ||
            snap.numLinks() != graph.linkCount())
            return; // shape mismatch is a usage problem, not ours
        const RuleParams &params = context.params;

        const auto deadQubitReason =
            [&](int q) -> std::string {
            const calibration::QubitCalibration &cal =
                snap.qubit(q);
            if (!std::isfinite(cal.t1Us) ||
                !std::isfinite(cal.t2Us) ||
                !std::isfinite(cal.error1q) ||
                !std::isfinite(cal.readoutError))
                return "non-finite calibration";
            if (cal.error1q >= params.deadErrorThreshold)
                return "1q error " +
                       formatDouble(cal.error1q, 3);
            if (cal.readoutError >= params.deadErrorThreshold)
                return "readout error " +
                       formatDouble(cal.readoutError, 3);
            if (cal.t1Us <= params.minCoherenceUs ||
                cal.t2Us <= params.minCoherenceUs)
                return "zero coherence";
            return "";
        };

        const auto &gates = context.circuit.gates();
        std::set<int> reportedQubits;
        std::set<std::size_t> reportedLinks;
        for (std::size_t i = 0; i < gates.size(); ++i) {
            const Gate &g = gates[i];
            if (g.kind == GateKind::BARRIER)
                continue;
            for (const Qubit q : {g.q0, g.q1}) {
                if (q == circuit::kNoQubit ||
                    q >= graph.numQubits())
                    continue;
                if (reportedQubits.count(q) != 0)
                    continue;
                const std::string reason = deadQubitReason(q);
                if (reason.empty())
                    continue;
                reportedQubits.insert(q);
                out.push_back(make(
                    context,
                    "qubit " + std::to_string(q) +
                        " has dead calibration (" + reason +
                        ") but the circuit uses it",
                    static_cast<long>(i), q));
            }
            if (g.isTwoQubit() && g.q0 < graph.numQubits() &&
                g.q1 < graph.numQubits() &&
                graph.coupled(g.q0, g.q1)) {
                const std::size_t link =
                    graph.linkIndex(g.q0, g.q1);
                if (reportedLinks.count(link) != 0)
                    continue;
                const double error = snap.linkError(link);
                if (std::isfinite(error) &&
                    error < params.deadErrorThreshold)
                    continue;
                reportedLinks.insert(link);
                out.push_back(make(
                    context,
                    "link {" + std::to_string(g.q0) + "," +
                        std::to_string(g.q1) +
                        "} has dead calibration (2q error " +
                        formatDouble(error, 3) +
                        ") but the circuit routes over it",
                    static_cast<long>(i), g.q0, g.q1));
            }
        }
    }
};

/** VL008: static ESP lower bound below the reliability budget. */
class ReliabilityBudgetRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL008"; }
    std::string name() const override
    {
        return "reliability-budget";
    }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Reliability;
    }
    std::string description() const override
    {
        return "static ESP lower bound (product of per-gate "
               "success probabilities) falls below the configured "
               "budget";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (!context.physical || context.graph == nullptr ||
            context.snapshot == nullptr)
            return;
        const topology::CouplingGraph &graph = *context.graph;
        const calibration::Snapshot &snap = *context.snapshot;
        if (snap.numQubits() != graph.numQubits() ||
            snap.numLinks() != graph.linkCount())
            return;

        double esp = 1.0;
        for (const Gate &g : context.circuit.gates()) {
            if (g.kind == GateKind::BARRIER)
                continue;
            if (g.q0 >= graph.numQubits() ||
                (g.isTwoQubit() && g.q1 >= graph.numQubits()))
                return; // width problem; VL010 reports it
            if (g.kind == GateKind::MEASURE) {
                esp *= 1.0 - snap.qubit(g.q0).readoutError;
            } else if (g.isTwoQubit()) {
                if (!graph.coupled(g.q0, g.q1))
                    return; // not executable; VL005 reports it
                const double success =
                    snap.linkSuccess(graph, g.q0, g.q1);
                esp *= g.kind == GateKind::SWAP
                           ? success * success * success
                           : success;
            } else {
                esp *= 1.0 - snap.qubit(g.q0).error1q;
            }
        }
        if (esp >= context.params.minEsp)
            return;
        out.push_back(make(
            context,
            "static ESP lower bound " + formatDouble(esp, 5) +
                " is below the reliability budget " +
                formatDouble(context.params.minEsp, 5) +
                " under this calibration snapshot"));
    }
};

/** VL009: idle window long enough to decohere. */
class IdleWindowRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL009"; }
    std::string name() const override
    {
        return "idle-qubit-exceeds-window";
    }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Reliability;
    }
    std::string description() const override
    {
        return "a qubit sits idle longer than the configured "
               "fraction of its min(T1, T2) between gates";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (!context.physical || context.snapshot == nullptr)
            return;
        const calibration::Snapshot &snap = *context.snapshot;
        for (const IdleWindow &window :
             context.dataflow.idleWindows()) {
            if (window.qubit >= snap.numQubits())
                continue;
            const calibration::QubitCalibration &cal =
                snap.qubit(window.qubit);
            const double coherenceNs =
                std::min(cal.t1Us, cal.t2Us) * 1000.0;
            if (!std::isfinite(coherenceNs) || coherenceNs <= 0.0)
                continue; // dead calibration; VL007 reports it
            const double budgetNs =
                context.params.idleFraction * coherenceNs;
            if (window.nanoseconds <= budgetNs)
                continue;
            out.push_back(make(
                context,
                "qubit " + std::to_string(window.qubit) +
                    " idles for " +
                    formatDouble(window.nanoseconds, 0) +
                    " ns before gate " +
                    std::to_string(window.toGate) +
                    ", exceeding " +
                    formatDouble(context.params.idleFraction *
                                     100.0, 0) +
                    "% of its min(T1,T2) = " +
                    formatDouble(coherenceNs, 0) + " ns",
                static_cast<long>(window.toGate), window.qubit));
        }
    }
};

/** VL010: the program is wider than the machine. */
class WidthExceedsMachineRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL010"; }
    std::string name() const override
    {
        return "width-exceeds-machine";
    }
    Severity severity() const override { return Severity::Error; }
    RuleCategory category() const override
    {
        return RuleCategory::Usage;
    }
    std::string description() const override
    {
        return "the circuit needs more qubits than the target "
               "machine has";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (context.graph == nullptr)
            return;
        const int width = context.circuit.numQubits();
        const int machine = context.graph->numQubits();
        if (width <= machine)
            return;
        out.push_back(make(
            context,
            "circuit needs " + std::to_string(width) +
                " qubits but " + context.graph->name() +
                " has only " + std::to_string(machine)));
    }
};

/** Build the sensitivity profile against `snapshot`, or nullopt
 *  when the circuit is not executable there (VL005/VL010 report
 *  those cases; the sensitivity rules stay silent). */
std::optional<SensitivityProfile>
tryProfile(const LintContext &context,
           const calibration::Snapshot &snapshot)
{
    if (!context.physical || context.graph == nullptr)
        return std::nullopt;
    if (snapshot.numQubits() != context.graph->numQubits() ||
        snapshot.numLinks() != context.graph->linkCount())
        return std::nullopt;
    try {
        return analyzeSensitivity(context.dataflow, *context.graph,
                                  snapshot);
    } catch (const VaqError &) {
        return std::nullopt;
    }
}

/** VL011: the certified staleness bound between the mapping's
 *  baseline calibration and the current one exceeds tolerance. */
class StaleMappingRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL011"; }
    std::string name() const override { return "stale-mapping"; }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Reliability;
    }
    std::string description() const override
    {
        return "the certified |delta logPST| bound between the "
               "mapping's baseline calibration and the current "
               "snapshot exceeds the staleness tolerance";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (context.snapshot == nullptr ||
            context.baselineSnapshot == nullptr)
            return;
        const std::optional<SensitivityProfile> profile =
            tryProfile(context, *context.baselineSnapshot);
        if (!profile)
            return;
        const StalenessAssessment assess =
            assessStaleness(*profile, *context.snapshot);
        const double tol = context.params.stalenessTol;
        if (assess.within(tol))
            return;
        if (!assess.certifiable) {
            out.push_back(make(
                context,
                "mapping was compiled against a calibration whose "
                "model premises have since changed (gate durations "
                "or parameter domains); the staleness certificate "
                "is void — recompile"));
            return;
        }
        out.push_back(make(
            context,
            "mapping is stale: certified |delta logPST| bound " +
                formatDouble(assess.bound(), 6) +
                " exceeds the staleness tolerance " +
                formatDouble(tol, 6) +
                " (exact shift " +
                formatDouble(assess.deltaLogPst, 6) +
                "); recompile against the current calibration"));
    }
};

/** VL012: the circuit's drift-mass is concentrated on one
 *  historically high-variance link. */
class FragilePlacementRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL012"; }
    std::string name() const override
    {
        return "fragile-placement";
    }
    Severity severity() const override
    {
        return Severity::Warning;
    }
    RuleCategory category() const override
    {
        return RuleCategory::Reliability;
    }
    std::string description() const override
    {
        return "sensitivity mass is concentrated on a single "
               "coupling link whose error rate is historically "
               "high-variance; small drift there moves the whole "
               "PST estimate";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (context.snapshot == nullptr ||
            context.linkVariance == nullptr ||
            context.graph == nullptr ||
            context.linkVariance->size() !=
                context.graph->linkCount())
            return;
        const std::optional<SensitivityProfile> profile =
            tryProfile(context, *context.snapshot);
        if (!profile || profile->links.empty())
            return;
        const std::vector<double> &sigma = *context.linkVariance;

        // Drift mass of a link = |dlogPST/d(error2q)| * its
        // historical std-dev: how much PST estimate one typical
        // drift step on that link moves.
        double total = 0.0;
        std::size_t worst = 0;
        double worstMass = -1.0;
        for (std::size_t i = 0; i < profile->links.size(); ++i) {
            const LinkSensitivity &l = profile->links[i];
            const double s = sigma[l.link];
            if (!std::isfinite(s) || s < 0.0)
                return; // unusable history
            const double mass = std::abs(l.dError2q()) * s;
            total += mass;
            if (mass > worstMass) {
                worstMass = mass;
                worst = i;
            }
        }
        if (total <= 0.0)
            return;
        const double share = worstMass / total;
        if (share < context.params.fragileMassFraction)
            return;

        // Only flag links that are volatile *for this machine*:
        // above the machine-wide median link std-dev.
        std::vector<double> sorted(sigma);
        std::sort(sorted.begin(), sorted.end());
        const double median = sorted[sorted.size() / 2];
        const LinkSensitivity &l = profile->links[worst];
        if (sigma[l.link] <= median)
            return;
        out.push_back(make(
            context,
            "link {" + std::to_string(l.q0) + "," +
                std::to_string(l.q1) + "} carries " +
                formatDouble(100.0 * share, 1) +
                "% of the circuit's drift mass and its 2q error "
                "is historically volatile (std-dev " +
                formatDouble(sigma[l.link], 5) +
                " vs machine median " + formatDouble(median, 5) +
                "); prefer a placement off this link",
            -1, l.q0, l.q1));
    }
};

/** VL013: one calibration parameter dominates the error budget. */
class DominantErrorSourceRule final : public AnalysisRule
{
  public:
    std::string id() const override { return "VL013"; }
    std::string name() const override
    {
        return "dominant-error-source";
    }
    Severity severity() const override { return Severity::Info; }
    RuleCategory category() const override
    {
        return RuleCategory::Reliability;
    }
    std::string description() const override
    {
        return "a single calibration parameter accounts for most "
               "of the circuit's predicted reliability loss";
    }

    void run(const LintContext &context,
             std::vector<Diagnostic> &out) const override
    {
        if (context.snapshot == nullptr)
            return;
        const std::optional<SensitivityProfile> profile =
            tryProfile(context, *context.snapshot);
        if (!profile)
            return;
        const double total = profile->totalMass();
        if (!(total > 0.0) || !std::isfinite(total))
            return;

        // Scan parameters in a fixed order (links ascending, then
        // per-qubit error1q/readout/t1) keeping the first maximum,
        // so the pick is deterministic.
        double best = 0.0;
        std::string site;
        int q0 = -1;
        int q1 = -1;
        for (const LinkSensitivity &l : profile->links) {
            const double mass = l.contribution();
            if (mass > best) {
                best = mass;
                site = "2q error on link {" + std::to_string(l.q0) +
                       "," + std::to_string(l.q1) + "}";
                q0 = l.q0;
                q1 = l.q1;
            }
        }
        for (const QubitSensitivity &q : profile->qubits) {
            const std::string at =
                " on qubit " + std::to_string(q.qubit);
            if (q.oneQubitGates > 0.0) {
                const double mass =
                    -q.oneQubitGates * std::log1p(-q.error1q);
                if (mass > best) {
                    best = mass;
                    site = "1q error" + at;
                    q0 = q.qubit;
                    q1 = -1;
                }
            }
            if (q.measurements > 0.0) {
                const double mass =
                    -q.measurements * std::log1p(-q.readoutError);
                if (mass > best) {
                    best = mass;
                    site = "readout error" + at;
                    q0 = q.qubit;
                    q1 = -1;
                }
            }
            if (q.busyNs > 0.0) {
                const double mass = q.busyNs / (1000.0 * q.t1Us);
                if (mass > best) {
                    best = mass;
                    site = "T1 relaxation" + at;
                    q0 = q.qubit;
                    q1 = -1;
                }
            }
        }
        if (site.empty() ||
            best < context.params.dominantFraction * total)
            return;
        out.push_back(make(
            context,
            site + " accounts for " +
                formatDouble(100.0 * best / total, 1) +
                "% of the predicted reliability loss; improving "
                "that one parameter (or avoiding it) moves the "
                "whole PST",
            -1, q0, q1));
    }
};

} // namespace

void
registerBuiltinRules(RuleRegistry &registry)
{
    registry.add([] {
        return std::make_unique<MeasureUninitializedRule>();
    });
    registry.add(
        [] { return std::make_unique<MeasureThenReuseRule>(); });
    registry.add([] { return std::make_unique<DeadGateRule>(); });
    registry.add(
        [] { return std::make_unique<DoubleMeasureRule>(); });
    registry.add(
        [] { return std::make_unique<UncoupledCxRule>(); });
    registry.add(
        [] { return std::make_unique<RedundantSwapRule>(); });
    registry.add(
        [] { return std::make_unique<QuarantinedQubitRule>(); });
    registry.add(
        [] { return std::make_unique<ReliabilityBudgetRule>(); });
    registry.add([] { return std::make_unique<IdleWindowRule>(); });
    registry.add([] {
        return std::make_unique<WidthExceedsMachineRule>();
    });
    registry.add(
        [] { return std::make_unique<StaleMappingRule>(); });
    registry.add(
        [] { return std::make_unique<FragilePlacementRule>(); });
    registry.add(
        [] { return std::make_unique<DominantErrorSourceRule>(); });
}

} // namespace vaq::analysis
