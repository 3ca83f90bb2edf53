/**
 * @file
 * Shared pieces of the libvaq benchmark runner (vaqbench): seeded
 * request streams, the vaqd child process, the HTTP load loops,
 * response checks and the result record every workload fills.
 *
 * The runner measures each layer from outside: it only calls the
 * library's public functions and reads the obs counters, spans and
 * histograms the library already emits.
 */
#ifndef VAQBENCH_COMMON_HPP
#define VAQBENCH_COMMON_HPP

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "common/json.hpp"
#include "core/compile_request.hpp"
#include "obs/metrics.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "store/artifact_store.hpp"
#include "topology/coupling_graph.hpp"

namespace vaqbench
{

using namespace vaq;
using Clock = std::chrono::steady_clock;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

double secondsSince(Clock::time_point start);
double msSince(Clock::time_point start);

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** vaqd binary (serve workloads, untraced). */
    std::string vaqd;
    /** Scratch directory inside the checkout (store dirs, logs). */
    std::string tmpDir;
};

/** Value at quantile q in [0, 1] (linear interpolation); +inf
 *  entries (failed requests) sort last. 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

/** Median of a sample (0 when empty). */
double median(std::vector<double> values);

/** One workload run: the checks' verdict plus every metric. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), printed in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Extra detail for the report line (sample counts, quartiles,
     *  counts by outcome, provenance). */
    json::Value detail = json::Value::object();
    std::vector<std::string> failures;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a failed output check (first 20 kept verbatim). */
    void fail(const std::string &why);
};

/** Peak resident set (VmHWM) of a process, MiB; 0 if unreadable. */
double peakRssMb(pid_t pid);

/// @name Seeded inputs
/// @{

/** splitmix64 finalizer: a well-mixed 64-bit hash of x. */
std::uint64_t mix64(std::uint64_t x);

/** The CompileRequest wire body the benchmark sends. */
std::string compileBody(const std::string &qasm,
                        const std::string &policy,
                        const std::string &clientId, bool lint);

/** One request of a stream, with the logical circuit the daemon
 *  will parse out of it (the QASM round trip, not the generator's
 *  object, so checks compare against exactly what was sent). */
struct StreamRequest
{
    std::string label;
    std::string policy;
    std::string body;
    circuit::Circuit logical = circuit::Circuit(1);
};

/** Requests at the head of every compile-cold stream that form one
 *  fixed set of circuits (in a seeded order). */
inline constexpr std::size_t kColdPrefix = 200;

/**
 * compile-cold request `index` of the stream for `seed`: a distinct
 * Table-1-family circuit (alu/adder with seeded inputs, bv-16 and
 * bv-20 with seeded secrets, qft-12 and qft-14 of a seeded basis
 * state, rnd-SD and rnd-LD with seeded patterns) under vqa+vqm, lint
 * on every other request. The first kColdPrefix requests are the
 * same circuits for every seed, in a seed-dependent order, so
 * pst_geomean (taken over them) compares mapping quality on identical
 * inputs; later requests walk a seed-dependent stretch of the family
 * rotation. Requests are pure functions of (seed, index) and
 * pairwise distinct.
 */
StreamRequest coldRequest(const topology::CouplingGraph &q20,
                          std::uint64_t seed, std::size_t index);

/** The serve-drift working set: small kernels, 3-8 qubits. */
std::vector<std::pair<std::string, circuit::Circuit>> serveWorkingSet();

/** Policies of the serve-drift mix. */
const std::vector<std::string> &servePolicies();

/** One scheduled serve-drift event. */
struct ServeEvent
{
    /** Scheduled send time, seconds after the load starts. */
    double at = 0.0;
    /** Index into the working set and the policy list. */
    std::size_t kernel = 0;
    std::size_t policy = 0;
};

/**
 * The serve-drift stream: Poisson arrivals at `rate` over
 * `seconds`, each a seeded (kernel, policy) draw; rounds walk a
 * seeded permutation of the working set.
 */
std::vector<ServeEvent> serveSchedule(std::uint64_t seed, double rate,
                                      double seconds);

/** Requests between calibration rollovers in serve-drift. */
inline constexpr std::size_t kRolloverEvery = 150;

/** Calibration cycles of the synthetic archive as CSV, cycle 0
 *  first (cycle 0 is vaqd's default start snapshot). */
std::vector<std::string> archiveCsv(const topology::CouplingGraph &q20,
                                    std::size_t cycles);

/** Digest of a byte sequence (FNV-1a, hex). */
std::string digest(const std::string &bytes);

/// @}

/// @name The daemon under test
/// @{

/**
 * A vaqd child process. The constructor launches it with stdout and
 * stderr redirected into `logDir`, reads the bound port from its
 * first line and polls /healthz until it answers 200; `setupSeconds`
 * is that launch-to-healthy time. The destructor stops it (SIGTERM,
 * then SIGKILL after 10 s) and reaps it.
 */
class Daemon
{
  public:
    Daemon(const std::string &binary,
           const std::vector<std::string> &args,
           const std::string &logDir);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return _port; }
    pid_t pid() const { return _pid; }
    double setupSeconds() const { return _setupSeconds; }
    /** Stop and reap; true when it exited with status 0. */
    bool stop();

    /** Kill every live child (the watchdog's last resort). */
    static void killAll();

  private:
    pid_t _pid = -1;
    int _port = 0;
    double _setupSeconds = 0.0;
};

/** vaqd's flags in every serve run: defaults plus these. */
std::vector<std::string> vaqdArgs(const std::string &storeDir);
/** The same flags as one line, for the provenance block. */
std::string vaqdFlags();

/** Exchange that never throws: transport errors become status 0
 *  with the message in the body. */
service::HttpResponse exchange(int port, const std::string &method,
                               const std::string &path,
                               const std::string &body,
                               const std::string &contentType =
                                   "application/json");

/// @}

/// @name Load loops and checks
/// @{

/** One completed exchange of a load loop. */
struct Outcome
{
    std::size_t index = 0;
    /** Latency from scheduled (open loop) or actual (closed loop)
     *  send, ms; +inf when the request failed. */
    double latencyMs = kInf;
    /** How late the send left against its schedule, ms. */
    double lateMs = 0.0;
    /** The HTTP exchange alone (connect to last byte), ms. */
    double exchangeMs = 0.0;
    /** Calibration epoch (0-based rollover count) it was sent in. */
    std::size_t epoch = 0;
    service::HttpResponse response;
};

/** Tally of outcomes by kind. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t refused429 = 0;
    std::uint64_t shed503 = 0;
    std::uint64_t otherStatus = 0;
    std::uint64_t transport = 0;

    void add(int status);
    std::uint64_t failed() const { return attempted - ok; }
    json::Value toJson() const;
};

/** What a checked response contributed. */
struct Checked
{
    bool ok = false;
    double pst = 0.0;
    bool fromStore = false;
    bool viaDelta = false;
    core::CompileResult result;
};

/**
 * Check one /v1/compile response: 200, parseable CompileResult, the
 * mapping passes core::verifyMapping against `logical` on `machine`,
 * and sim::analyticPst recomputed on the returned mapping under
 * `snapshot` equals the response's analyticPst exactly. Failures go
 * to `run`. `analyticSeconds` accumulates the recompute time.
 */
Checked checkResponse(const service::HttpResponse &response,
                      const circuit::Circuit &logical,
                      const topology::CouplingGraph &machine,
                      const calibration::Snapshot &snapshot,
                      RunResult &run, double *analyticSeconds);

/** The outcomes of one load phase, in request-index order. */
struct LoadResult
{
    std::vector<Outcome> outcomes;
    /** From the first scheduled send to the last completion. */
    double wallSeconds = 0.0;
};

/** Builds the body of request `index` (called from client threads;
 *  must be thread-safe). */
using BodyFn = std::function<std::string(std::size_t)>;

/**
 * Closed loop: `clients` threads each send request next++ to
 * POST /v1/compile and wait for the reply. A client stops issuing
 * once `seconds` have passed and `minRequests` were issued, or at
 * `maxRequests`; requests in flight complete. `onComplete`, when
 * set, runs after each completion with the count completed so far
 * (serialized).
 */
LoadResult closedLoop(int port, std::size_t clients, double seconds,
                      std::size_t minRequests, std::size_t maxRequests,
                      const BodyFn &body,
                      const std::function<void(std::size_t)> &onComplete =
                          {});

/** Median over consecutive windows of `window` values (the last
 *  partial window dropped unless it is the only one) of each
 *  window's quantile q: a percentile that one noisy stretch of a
 *  run cannot move. */
double windowedQuantile(const std::vector<double> &values,
                        std::size_t window, double q);

/**
 * Open loop over a fixed schedule (`at[i]` seconds after start) with
 * at most `senders` requests in flight. Every `rolloverEvery`
 * requests the loop drains, calls `rollover(epoch)` and resumes; the
 * requests after it keep their scheduled times, so the stall shows
 * in their latency (timed from the scheduled send).
 */
LoadResult openLoop(int port, std::size_t senders,
                    const std::vector<double> &at,
                    std::size_t rolloverEvery, const BodyFn &body,
                    const std::function<void(std::size_t)> &rollover);

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &values);

/// @}

/// @name Traced runs
/// @{

/**
 * vaqd's service stack in this process: the same CompileService,
 * store and HttpServer settings vaqd builds from its default flags
 * with `--machine q20 --store-dir DIR`. When `timed`, the handler
 * handed to HttpServer wraps CompileService::handle in a timer and
 * reports the time in an `X-Bench-Handle-Ns` response header.
 */
class InProcessDaemon
{
  public:
    InProcessDaemon(const std::string &storeDir, bool timed);
    ~InProcessDaemon();
    InProcessDaemon(const InProcessDaemon &) = delete;
    InProcessDaemon &operator=(const InProcessDaemon &) = delete;

    int port() const;
    store::ArtifactStore &store() { return *_store; }
    const topology::CouplingGraph &machine() const { return _machine; }

  private:
    topology::CouplingGraph _machine;
    std::unique_ptr<store::ArtifactStore> _store;
    std::unique_ptr<service::CompileService> _service;
    std::unique_ptr<service::HttpServer> _server;
};

/** Handler time a timed InProcessDaemon reported, ms (0 if absent). */
double handleMs(const service::HttpResponse &response);

/** Per-layer metric values by name; every declared name starts at 0
 *  so each traced workload prints the full table. */
class Layers
{
  public:
    Layers();
    double &operator[](const std::string &name);
    /** Copy into `run` as metrics, in declaration order. */
    void emit(RunResult &run) const;

  private:
    std::map<std::string, double> _values;
};

/** What the benchmark sent for one outcome of a traced load. */
struct SentRequest
{
    const std::string *body = nullptr;
    const circuit::Circuit *logical = nullptr;
    const std::string *policy = nullptr;
    /** Calibration the daemon compiled the request against. */
    const calibration::Snapshot *snapshot = nullptr;
};

/**
 * Fill the layers a served request crosses (service, decode/encode,
 * core, analysis, store, sim.analytic, the shares) from one timed
 * load against `daemon`, and run the same output checks as the
 * untraced run. `metrics` is the obs registry right after the load.
 * Replays the decode, encode, sensitivity, store lookup and store
 * record calls on the load's own requests and responses to time
 * them from outside the service.
 */
void serveLayers(const LoadResult &load,
                 const std::function<SentRequest(const Outcome &)> &sent,
                 InProcessDaemon &daemon,
                 const obs::MetricsSnapshot &metrics,
                 const Options &options, RunResult &run, Layers &layers);

/** Time to build the all-pairs reliability matrix of `snapshot`
 *  from scratch (outside the shared cache), ms. */
double matrixBuildMs(const topology::CouplingGraph &machine,
                     const calibration::Snapshot &snapshot);

/** Sum of an obs histogram's observations, seconds. */
double histogramSum(const obs::MetricsSnapshot &snapshot,
                    const std::string &name);
/** Observation count of an obs histogram. */
double histogramCount(const obs::MetricsSnapshot &snapshot,
                      const std::string &name);
/** An obs counter's value (0 when never bumped). */
double counter(const obs::MetricsSnapshot &snapshot,
               const std::string &name);

/** A fresh, empty directory under options.tmpDir. */
std::string freshDir(const Options &options, const std::string &name);

/// @}

/// @name Workloads (one file each)
/// @{
RunResult runCompileCold(const Options &options);
RunResult runServeDrift(const Options &options);
RunResult runMcPst(const Options &options);
void traceCompileCold(const Options &options, RunResult &run,
                      Layers &layers);
void traceServeDrift(const Options &options, RunResult &run,
                     Layers &layers);
void traceMcPst(const Options &options, RunResult &run, Layers &layers);
/// @}

} // namespace vaqbench

#endif // VAQBENCH_COMMON_HPP
