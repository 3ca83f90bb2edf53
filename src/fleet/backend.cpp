#include "fleet/backend.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/schedule.hpp"

namespace vaq::fleet
{

Backend::Backend(BackendSpec spec, const core::PolicySpec &policy,
                 std::size_t storeEntries, BreakerOptions breaker_in,
                 double stalenessTol)
    : breaker(breaker_in),
      _spec(std::move(spec)),
      _policy(policy),
      _source(_spec.graph, _spec.synthetic, _spec.calibrationSeed),
      _pristine(_source.nextCycle()),
      _snapshot(_pristine),
      _mapper(core::makeMapper(policy)),
      _fallbacks(core::buildFallbackMappers(policy.name, 2)),
      _store(store::StoreOptions{
          .directory = "", // memory-only; the fleet is a simulation
          .maxEntries = storeEntries,
          .stalenessTol = stalenessTol})
{
    require(_spec.serviceRate > 0.0,
            "backend service rate must be positive");
    _adapter = std::make_unique<store::ArtifactCacheAdapter>(
        _store, _spec.graph, _policy);
    reinspect();
}

void
Backend::reinspect()
{
    _health = core::inspectSnapshot(
        _snapshot, _spec.graph, core::CalibrationHandling::Sanitize);
}

void
Backend::rollover()
{
    const calibration::Snapshot next = _source.nextCycle();
    ++_rollovers;
    double fraction = _spec.sparseDriftFraction;
    if (fraction >= 1.0) {
        _pristine = next;
    } else {
        // Seeded sparse blend: only a deterministic subset of the
        // machine takes the new cycle's values, so most stored
        // artifacts keep their calibration dependencies and the
        // delta-reuse path (PR 6) actually fires across epochs.
        Rng rng(_spec.calibrationSeed ^
                (0xD1B54A32D192ED03ULL * (_rollovers + 1)));
        for (std::size_t l = 0; l < _pristine.numLinks(); ++l)
            if (rng.bernoulli(fraction))
                _pristine.setLinkError(l, next.linkError(l));
        for (int q = 0; q < _pristine.numQubits(); ++q)
            if (rng.bernoulli(fraction))
                _pristine.qubit(q) = next.qubit(q);
    }
    _snapshot = _pristine; // heals injected corruption/quarantine
    ++_epoch;
    ++_calVersion;
    reinspect();
}

void
Backend::corruptCalibration(double fraction, std::uint64_t salt)
{
    Rng rng(_spec.calibrationSeed ^ 0xA5A5A5A5A5A5A5A5ULL ^
            (0x9E3779B97F4A7C15ULL * (salt + 1)));
    const int qubits = _snapshot.numQubits();
    int poisoned = 0;
    for (int q = 0; q < qubits; ++q) {
        if (!rng.bernoulli(fraction))
            continue;
        _snapshot.qubit(q).t1Us =
            std::numeric_limits<double>::quiet_NaN();
        _snapshot.qubit(q).error1q = 2.0; // out of [0,1]
        ++poisoned;
    }
    if (poisoned == 0 && qubits > 0) {
        // A corruption event always corrupts something.
        _snapshot.qubit(0).t1Us =
            std::numeric_limits<double>::quiet_NaN();
    }
    ++_calVersion;
    reinspect();
}

void
Backend::quarantineLinks(double fraction, std::uint64_t salt)
{
    Rng rng(_spec.calibrationSeed ^ 0x5A5A5A5A5A5A5A5AULL ^
            (0x9E3779B97F4A7C15ULL * (salt + 1)));
    const std::size_t links = _snapshot.numLinks();
    std::size_t first = links;
    for (std::size_t l = 0; l < links; ++l) {
        if (!rng.bernoulli(fraction))
            continue;
        // At the dead threshold, so the sanitizer prunes the link
        // with a "dead" reason.
        _snapshot.setLinkError(l, 0.99);
        if (first == links)
            first = l;
    }
    if (first == links && links > 0) {
        _snapshot.setLinkError(0, 0.99);
        first = 0;
    }
    // Dead-but-valid links pass Snapshot::validate(), and the
    // Sanitize pipeline only quarantines snapshots that fail it —
    // so punch one non-finite hole at an affected endpoint (real
    // corrupted exports pair holes with dead entries) to route the
    // snapshot through the quarantine pass.
    if (first != links) {
        const topology::PhysQubit victim =
            _spec.graph.links()[first].a;
        _snapshot.qubit(victim).t1Us =
            std::numeric_limits<double>::quiet_NaN();
    }
    ++_calVersion;
    reinspect();
}

double
Backend::latencyFactor(double nowUs) const
{
    return nowUs < _latencyUntilUs ? _latencyFactor : 1.0;
}

void
Backend::setLatencySpike(double factor, double untilUs)
{
    _latencyFactor = factor;
    _latencyUntilUs = untilUs;
}

core::CompileResult
Backend::compile(const circuit::Circuit &logical)
{
    core::CompileRequest request;
    request.policy = _policy;
    request.options.telemetryEnabled = false;
    core::CompileContext context;
    context.mapper = &_mapper;
    context.fallbacks = &_fallbacks;
    context.health = &_health;
    context.artifactCache = _adapter.get();
    core::CompileResult result = core::compileCircuit(
        logical, request, _spec.graph, _snapshot, context);
    // The service recording rule: persist fresh primary-policy Ok
    // results so the next epoch's lookups can reuse them.
    if (!result.fromStore && result.status == core::JobStatus::Ok &&
        result.attempts == 1)
        _adapter->record(logical, _snapshot, result);
    return result;
}

void
Backend::prewarm(const std::vector<circuit::Circuit> &circuits,
                 std::size_t threads)
{
    if (circuits.empty() ||
        _health.kind == core::SnapshotHealth::Kind::Rejected)
        return;
    core::BatchOptions options;
    options.compile.threads = threads == 0 ? 1 : threads;
    options.compile.telemetryEnabled = false;
    options.artifactCache = _adapter.get();
    core::BatchCompiler compiler(_mapper, _spec.graph, options);
    compiler.compileAll(circuits, {_snapshot});
}

double
Backend::trialLatencyUs(const core::MappedCircuit &mapped) const
{
    const sim::NoiseModel model(_spec.graph, _snapshot,
                                sim::CoherenceMode::PerOp);
    const sim::Schedule schedule =
        sim::scheduleCircuit(mapped.physical, model);
    return schedule.durationNs / 1000.0 / _spec.serviceRate;
}

std::vector<BackendSpec>
standardFleet(std::uint64_t seed)
{
    const auto spec = [seed](std::string name,
                             topology::CouplingGraph graph,
                             std::uint64_t salt, double rate) {
        BackendSpec s;
        s.name = std::move(name);
        s.graph = std::move(graph);
        s.calibrationSeed = seed * 4 + salt;
        s.serviceRate = rate;
        return s;
    };
    std::vector<BackendSpec> specs;
    specs.push_back(
        spec("q5-tenerife", topology::ibmQ5Tenerife(), 1, 1.2));
    specs.push_back(
        spec("q20-tokyo", topology::ibmQ20Tokyo(), 2, 1.0));
    specs.push_back(
        spec("falcon-27", topology::ibmFalcon27(), 3, 0.9));
    specs.push_back(
        spec("grid-4x4", topology::grid(4, 4), 4, 1.1));
    return specs;
}

} // namespace vaq::fleet
