/**
 * @file
 * Per-compile options: the explicit replacement for the process
 * globals that used to steer a compile.
 *
 * A CompileOptions value travels with the call: through
 * Mapper::compile, BatchCompiler and IterativeRunner::runBatch, so
 * no process-wide toggle steers a compile. Default-constructed
 * options snapshot the calling thread's state (path caches on
 * unless an enclosing PathCacheScope turned them off; telemetry as
 * obs::enabled()), so `mapper.map(...)` inside a scope inherits it.
 */
#ifndef VAQ_CORE_COMPILE_OPTIONS_HPP
#define VAQ_CORE_COMPILE_OPTIONS_HPP

#include <cstddef>

#include "obs/metrics.hpp"
#include "sim/sim_engine.hpp"

namespace vaq::core
{

// Defined in compile_cache.hpp; declared here so default options
// can snapshot the thread's cache state without pulling in the
// whole cache header.
bool pathCacheEnabled();

/** Options for one compile (or one batch of compiles). */
struct CompileOptions
{
    /** Consult the shared reliability-matrix / movement-plan
     *  stores. Defaults to this thread's pathCacheEnabled(). */
    bool cacheEnabled = pathCacheEnabled();
    /** Record metrics and tracing spans for this compile (only
     *  effective while obs::enabled() is also on). */
    bool telemetryEnabled = obs::enabled();
    /** Worker threads for batch entry points; 0 = one per
     *  hardware thread. Ignored by single-circuit compiles. */
    std::size_t threads = 0;
    /** Per-trial engine for outcome-level simulation of the
     *  compiled program (sim/sim_engine.hpp): Auto takes the
     *  Pauli-frame fast path on Clifford-only circuits and the
     *  dense trajectory path otherwise. */
    sim::SimEngine simEngine = sim::SimEngine::Auto;
};

/**
 * RAII thread-local override of the path-cache toggle. Installed
 * by Mapper::compile so the layers that read pathCacheEnabled()
 * internally (allocators, the movement planner) honor the
 * per-compile CompileOptions::cacheEnabled without threading a flag
 * through every signature. Thread-local, so concurrent compiles
 * with different options never observe each other's scope.
 */
class PathCacheScope
{
  public:
    explicit PathCacheScope(bool enabled);
    ~PathCacheScope();

    PathCacheScope(const PathCacheScope &) = delete;
    PathCacheScope &operator=(const PathCacheScope &) = delete;

  private:
    int _previous;
};

} // namespace vaq::core

#endif // VAQ_CORE_COMPILE_OPTIONS_HPP
