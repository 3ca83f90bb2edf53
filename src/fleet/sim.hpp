/**
 * @file
 * Discrete-event fleet scheduler.
 *
 * FleetSim places a stream of compile+run jobs across heterogeneous
 * backends (fleet/backend.hpp) under a scripted chaos plan
 * (fleet/fault_plan.hpp). Everything runs in *virtual* microseconds
 * on a single logical event loop:
 *
 *  - job arrivals and retry timers,
 *  - per-machine service queues (busy-until bookkeeping),
 *  - calibration-epoch rollovers that trigger prewarm recompile
 *    bursts through each backend's artifact store (delta reuse
 *    across epochs),
 *  - fault windows from the FaultPlan.
 *
 * Robustness layer (FleetOptions::failover): per-job deadlines,
 * exponential-backoff retry with deterministic per-job jitter,
 * failover to the next-best machine by predicted PST, and a
 * per-machine circuit breaker feeding back into placement. With
 * failover off the scheduler degrades to the naive baseline — one
 * placement per job, any failure is final — which is the control arm
 * of the chaos acceptance test.
 *
 * Determinism contract: a FleetSummary is a pure function of
 * (backend specs, workload, jobs, options, plan). The event loop is
 * logically sequential (events ordered by (time, schedule-seq)),
 * compiles are deterministic, retry jitter is drawn from per-job
 * seeded streams, and wall-clock time never reaches the summary.
 * Worker threads only appear inside BatchCompiler prewarm bursts,
 * which are bit-identical for any thread count — so summaries are
 * byte-equal across FleetOptions::threads 1/4/8.
 */
#ifndef VAQ_FLEET_SIM_HPP
#define VAQ_FLEET_SIM_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sensitivity.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "fleet/backend.hpp"
#include "fleet/breaker.hpp"
#include "fleet/fault_plan.hpp"
#include "fleet/policy.hpp"
#include "fleet/stats.hpp"

namespace vaq::fleet
{

/** One job in the arrival stream. */
struct FleetJob
{
    std::uint64_t id = 0;
    std::size_t circuitIndex = 0; ///< into the workload list
    double arrivalUs = 0.0;
    double deadlineUs = 0.0; ///< absolute; 0 = no deadline
    int shots = 512;
};

/** Knobs for makeJobStream(). */
struct JobStreamParams
{
    std::size_t count = 200;
    double meanInterarrivalUs = 3000.0; ///< exponential gaps
    double relativeDeadlineUs = 60000.0;
    int shots = 512;
};

/** Seeded Poisson-ish arrival stream over `circuits` workloads. */
std::vector<FleetJob> makeJobStream(std::size_t circuits,
                                    const JobStreamParams &params,
                                    std::uint64_t seed);

/** Scheduler configuration. */
struct FleetOptions
{
    PlacementPolicy policy = PlacementPolicy::BestPst;
    /** The robustness layer: retries, failover, deadline-aware
     *  placement, circuit breakers. Off = naive baseline. */
    bool failover = true;
    /** Placement attempts per copy (first try included). */
    int maxAttempts = 5;
    /** Exponential backoff: base * factor^(attempt-1), scaled by
     *  1 + jitter * U[0,1) from the job's private stream. */
    double backoffBaseUs = 2000.0;
    double backoffFactor = 2.0;
    double backoffJitter = 0.25;
    /** Virtual cost of a fresh compile vs. an artifact-store hit,
     *  charged into the service time. */
    double compileCostUs = 400.0;
    double storeHitCostUs = 40.0;
    /** Calibration-epoch period per machine (0 = no rollovers);
     *  machines are phase-staggered. */
    double calibrationPeriodUs = 0.0;
    /** Recompile the whole workload through the artifact store
     *  after each rollover (the PR-6 delta-recompile burst). */
    bool prewarmOnRollover = true;
    /** Worker threads for prewarm bursts (summary-invariant). */
    std::size_t threads = 1;
    /** Per-backend artifact-store index bound. Keep it above
     *  workload-size x epochs: LRU eviction order under concurrent
     *  prewarm lookups is the one thread-sensitive store behavior,
     *  so the determinism contract assumes no evictions. */
    std::size_t storeEntries = 1024;
    /** Replicate policy: split into two copies when the second-best
     *  machine's predicted STPT is at least this fraction of the
     *  best (the weak copy is worth its fleet capacity). */
    double replicateThreshold = 0.5;
    std::uint64_t seed = 7;
    /**
     * Certified-staleness tolerance for reuse across calibration
     * epochs, shared by the prediction cache and the per-backend
     * artifact stores. On a calVersion bump a cached prediction
     * whose certified |delta logPST| bound (analysis/staleness.hpp)
     * is within tolerance survives — unshifted at bound 0, else with
     * its compile-time PST shifted by the exact analytic delta —
     * instead of forcing a recompile. 0 (default) keeps only the
     * bound-0 predictions.
     */
    double stalenessTol = 0.0;
    /** Compile policy every backend maps with. */
    core::PolicySpec compilePolicy{.name = "vqm"};
    BreakerOptions breaker;
    /** StatsHub publication name; empty = do not publish. */
    std::string statsName;
};

/** The fleet scheduler. Construct once, run once. */
class FleetSim
{
  public:
    FleetSim(std::vector<BackendSpec> specs,
             std::vector<circuit::Circuit> workload,
             FleetOptions options = {}, FaultPlan plan = {});

    std::size_t backendCount() const { return _backends.size(); }
    const Backend &backend(std::size_t i) const;

    /** Run the event loop over `jobs`; single-shot. */
    FleetSummary run(const std::vector<FleetJob> &jobs);

  private:
    enum class EventKind
    {
        FaultStart,
        FaultEnd,
        Rollover,
        Arrival,
        Retry,
        Finish,
    };

    struct Event
    {
        double timeUs = 0.0;
        std::uint64_t seq = 0; ///< schedule order, breaks time ties
        EventKind kind = EventKind::Arrival;
        std::size_t job = 0;
        std::size_t copy = 0;
        std::size_t machine = 0;
        std::size_t fault = 0;
        std::uint64_t generation = 0;
    };

    struct EventAfter
    {
        bool operator()(const Event &a, const Event &b) const
        {
            if (a.timeUs != b.timeUs)
                return a.timeUs > b.timeUs;
            return a.seq > b.seq;
        }
    };

    struct CopyState
    {
        static constexpr std::size_t kNoMachine =
            static_cast<std::size_t>(-1);

        std::size_t machine = kNoMachine;
        std::size_t lastFailedMachine = kNoMachine;
        std::uint64_t generation = 0;
        int attempts = 0;
        bool active = false; ///< queued or in service
        bool done = false;
        bool succeeded = false;
        bool degraded = false;
        double finishUs = 0.0;
        double pst = 0.0;
        ErrorCategory lastCategory = ErrorCategory::Internal;
        std::string lastError;
    };

    struct JobState
    {
        FleetJob spec;
        std::vector<CopyState> copies;
        bool resolved = false;
        Rng rng{0};
    };

    struct Prediction
    {
        bool ok = false;
        bool degraded = false;
        bool fromStore = false;
        double pst = 0.0;
        double trialUs = 0.0;
        ErrorCategory category = ErrorCategory::Internal;
        std::string error;
    };

    /** Cached prediction plus the material to revalidate it across
     *  calibration epochs without recompiling. */
    struct PredictionEntry
    {
        Prediction pred;
        /** Backend::calVersion the prediction is valid for. */
        std::uint64_t calVersion = 0;
        /** Sensitivity profile of the predicted mapping against its
         *  compile-time snapshot; only for clean Ok compiles. */
        bool hasProfile = false;
        analysis::SensitivityProfile profile;
        /** The compile-time PST every revalidation shifts from, so
         *  repeated rollovers never compound the shift. */
        double basePst = 0.0;
    };

    void push(Event event);
    const Prediction &predict(std::size_t circuitIdx,
                              std::size_t machineIdx);
    double serviceUsFor(const Prediction &prediction,
                        const Backend &backend, int shots,
                        double nowUs) const;
    std::vector<CandidateBackend>
    collectCandidates(const JobState &job, double nowUs,
                      ErrorCategory *lastCategory,
                      std::string *lastError);
    void placeCopy(std::size_t jobIdx, std::size_t copyIdx,
                   double nowUs);
    void copyAttemptFailed(std::size_t jobIdx, std::size_t copyIdx,
                           double nowUs, ErrorCategory category,
                           const std::string &error,
                           std::size_t machineIdx);
    void finalizeCopy(std::size_t jobIdx, std::size_t copyIdx);
    void maybeResolveJob(std::size_t jobIdx);
    void removeAssigned(std::size_t machineIdx, std::size_t jobIdx,
                        std::size_t copyIdx);
    void failAssignedCopies(std::size_t machineIdx, double nowUs,
                            ErrorCategory category,
                            const std::string &error);
    void handleArrival(const Event &event);
    void handleFinish(const Event &event);
    void handleFaultStart(const Event &event);
    void handleFaultEnd(const Event &event);
    void handleRollover(const Event &event);

    std::vector<std::unique_ptr<Backend>> _backends;
    std::vector<circuit::Circuit> _workload;
    FleetOptions _options;
    FaultPlan _plan;

    std::priority_queue<Event, std::vector<Event>, EventAfter>
        _queue;
    std::uint64_t _nextSeq = 0;
    std::vector<JobState> _jobs;
    std::size_t _unresolved = 0;
    /** (job, copy) currently queued/in-service per machine. */
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
        _assigned;
    std::vector<double> _downSinceUs;
    /** (circuit, machine) -> cached prediction. Entries outlive
     *  calVersion bumps; predict() revalidates or replaces them. */
    std::map<std::pair<std::size_t, std::size_t>, PredictionEntry>
        _predictions;
    FleetSummary _summary;
    double _latencySumUs = 0.0;
    bool _ran = false;
};

} // namespace vaq::fleet

#endif // VAQ_FLEET_SIM_HPP
