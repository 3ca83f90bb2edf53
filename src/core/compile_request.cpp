#include "core/compile_request.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/cancellation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"

namespace vaq::core
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok:
        return "ok";
    case JobStatus::Degraded:
        return "degraded";
    case JobStatus::Failed:
        return "failed";
    case JobStatus::TimedOut:
        return "timed-out";
    }
    return "unknown";
}

JobStatus
jobStatusFromName(const std::string &name)
{
    if (name == "ok")
        return JobStatus::Ok;
    if (name == "degraded")
        return JobStatus::Degraded;
    if (name == "failed")
        return JobStatus::Failed;
    if (name == "timed-out")
        return JobStatus::TimedOut;
    throw VaqError("unknown job status '" + name +
                   "' (ok | degraded | failed | timed-out)");
}

const char *
calibrationHandlingName(CalibrationHandling handling)
{
    switch (handling) {
    case CalibrationHandling::Trust:
        return "trust";
    case CalibrationHandling::Validate:
        return "validate";
    case CalibrationHandling::Sanitize:
        return "sanitize";
    }
    return "unknown";
}

CalibrationHandling
calibrationHandlingFromName(const std::string &name)
{
    if (name == "trust")
        return CalibrationHandling::Trust;
    if (name == "validate")
        return CalibrationHandling::Validate;
    if (name == "sanitize")
        return CalibrationHandling::Sanitize;
    throw VaqError("unknown calibration handling '" + name +
                   "' (trust | validate | sanitize)");
}

SnapshotHealth
inspectSnapshot(const calibration::Snapshot &snapshot,
                const topology::CouplingGraph &graph,
                CalibrationHandling handling,
                const calibration::SanitizeOptions &options,
                bool telemetry)
{
    SnapshotHealth health;
    if (handling == CalibrationHandling::Trust)
        return health;
    try {
        snapshot.validate();
    } catch (const VaqError &e) {
        if (handling == CalibrationHandling::Validate) {
            health.kind = SnapshotHealth::Kind::Rejected;
            health.note = e.message();
            return health;
        }
        obs::Span sanitizeSpan("batch.sanitize", telemetry);
        calibration::SanitizedCalibration sanitized =
            calibration::sanitize(snapshot, graph, options);
        health.note = sanitized.report.summary();
        if (telemetry) {
            obs::count("calibration.quarantine.snapshots");
            obs::count("calibration.quarantine.qubits",
                       sanitized.report.qubits.size());
            obs::count("calibration.quarantine.links",
                       sanitized.report.links.size());
        }
        if (sanitized.usable) {
            health.kind = SnapshotHealth::Kind::Degraded;
            health.sanitized = std::move(sanitized);
        } else {
            health.kind = SnapshotHealth::Kind::Rejected;
            health.note +=
                "; healthy region too small to compile for";
            if (telemetry)
                obs::count("calibration.quarantine.rejected");
        }
    }
    return health;
}

std::vector<std::string>
fallbackLadder(const std::string &policy_name)
{
    // Each step drops the most expensive variability-aware
    // ingredient first: vqa+vqm -> vqm (keep reliability routing,
    // drop strongest-subgraph allocation) -> baseline (locality +
    // fewest SWAPs, the policy that cannot fail for policy reasons).
    if (policy_name.rfind("vqa", 0) == 0)
        return {"vqm", "baseline"};
    if (policy_name.rfind("vqm", 0) == 0)
        return {"baseline"};
    if (policy_name == "baseline")
        return {};
    return {"baseline"};
}

std::vector<Mapper>
buildFallbackMappers(const std::string &policy_name, int maxRetries)
{
    std::vector<Mapper> mappers;
    if (maxRetries <= 0)
        return mappers;
    const std::vector<std::string> ladder =
        fallbackLadder(policy_name);
    const std::size_t steps = std::min(
        ladder.size(), static_cast<std::size_t>(maxRetries));
    mappers.reserve(steps);
    for (std::size_t i = 0; i < steps; ++i) {
        PolicySpec spec;
        spec.name = ladder[i];
        mappers.push_back(makeMapper(spec));
    }
    return mappers;
}

namespace
{

/** Failure classes worth walking the fallback ladder for. Usage and
 *  calibration errors are deterministic: the same input fails the
 *  same way under every policy, so retrying just burns time. */
bool
retryable(ErrorCategory category)
{
    return category == ErrorCategory::Routing ||
           category == ErrorCategory::Compile ||
           category == ErrorCategory::Timeout ||
           category == ErrorCategory::Internal;
}

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

CompileResult
compileCircuit(const circuit::Circuit &logical,
               const CompileRequest &request,
               const topology::CouplingGraph &graph,
               const calibration::Snapshot &snapshot,
               const CompileContext &context)
{
    const auto start = std::chrono::steady_clock::now();
    const bool telemetry =
        request.options.telemetryEnabled && obs::enabled();

    // Resolve the shared pieces the caller did not inject. Owned
    // instances live on this frame; `context` pointers win so a
    // batch pays for them once.
    std::optional<Mapper> ownedMapper;
    if (!context.mapper)
        ownedMapper.emplace(makeMapper(request.policy));
    const Mapper &mapper =
        context.mapper ? *context.mapper : *ownedMapper;

    // failFast keeps legacy semantics end to end: an invalid
    // snapshot is rejected (and thrown), never quarantined.
    const CalibrationHandling handling =
        request.failFast &&
                request.calibration == CalibrationHandling::Sanitize
            ? CalibrationHandling::Validate
            : request.calibration;
    std::optional<SnapshotHealth> ownedHealth;
    if (!context.health)
        ownedHealth.emplace(inspectSnapshot(
            snapshot, graph, handling, request.sanitize, telemetry));
    const SnapshotHealth &health =
        context.health ? *context.health : *ownedHealth;

    CompileResult result;

    if (health.kind == SnapshotHealth::Kind::Rejected) {
        if (request.failFast)
            throw CalibrationError("snapshot rejected: " +
                                   health.note);
        result.status = JobStatus::Failed;
        result.errorCategory = ErrorCategory::Calibration;
        result.error = health.note;
        result.attempts = 0;
        result.compileMs = elapsedMs(start);
        return result;
    }

    const auto scoreAttempt = [&](const MappedCircuit &mapped) {
        if (!request.scoreResult)
            return 0.0;
        const calibration::Snapshot &effective =
            health.kind == SnapshotHealth::Kind::Degraded
                ? health.sanitized->snapshot
                : snapshot;
        const sim::NoiseModel model(graph, effective,
                                    sim::CoherenceMode::PerOp);
        return sim::analyticPst(mapped.physical, model);
    };

    // Artifact-cache lookup: a stored compile for this exact
    // (circuit, snapshot, machine, policy) key — or one whose
    // certified staleness bound under this snapshot is within the
    // store's tolerance — replaces the whole attempt loop. Only clean
    // snapshots are eligible: a quarantined machine compiles
    // against a synthesized cleaned snapshot whose content the key
    // does not describe. failFast keeps the legacy path untouched.
    ArtifactCacheHook *artifacts =
        request.failFast ? nullptr : context.artifactCache;
    if (artifacts && health.kind == SnapshotHealth::Kind::Clean) {
        std::optional<ArtifactHit> hit =
            artifacts->lookup(logical, snapshot);
        if (hit.has_value()) {
            if (telemetry) {
                obs::count("store.hits");
                if (hit->viaDelta)
                    obs::count("store.delta_reuse");
                if (hit->boundReuse)
                    obs::count("store.bound_serves");
            }
            result.viaDelta = hit->viaDelta;
            result.boundReuse = hit->boundReuse;
            result.stalenessBound = hit->stalenessBound;
            result.mapped = std::move(hit->mapped);
            // Prefer the PST recorded at store time; an artifact
            // stored by a non-scoring batch carries 0 and is
            // re-scored (deterministic — the analytic model needs
            // no sampling).
            result.analyticPst = !request.scoreResult ? 0.0
                                 : hit->analyticPst != 0.0
                                     ? hit->analyticPst
                                     : scoreAttempt(result.mapped);
            result.status = JobStatus::Ok;
            result.attempts = 0;
            result.fromStore = true;
            result.policyUsed = std::move(hit->policyUsed);
            result.mappedLintErrors = hit->mappedLintErrors;
            result.mappedLintWarnings = hit->mappedLintWarnings;
            result.compileMs = elapsedMs(start);
            return result;
        }
        if (telemetry)
            obs::count("store.misses");
    }

    const calibration::Snapshot &effective =
        health.kind == SnapshotHealth::Kind::Degraded
            ? health.sanitized->snapshot
            : snapshot;

    std::optional<analysis::Linter> ownedLinter;
    const analysis::Linter *linter = context.linter;
    if (!linter && request.lint) {
        ownedLinter.emplace(request.lintOptions);
        linter = &*ownedLinter;
    }

    if (linter) {
        // Pre-compile pass on the logical circuit. Usage findings
        // are deterministic rejections (the same circuit fails on
        // this machine under every policy), so they fail the job
        // before any compile attempt — same taxonomy bucket the
        // mapper itself would use.
        analysis::LintReport pre =
            linter->lint(logical, &graph, &effective);
        result.lintErrors = pre.errorCount();
        result.lintWarnings = pre.warningCount();
        const auto fatal = std::find_if(
            pre.diagnostics.begin(), pre.diagnostics.end(),
            [](const analysis::Diagnostic &d) {
                return d.severity == analysis::Severity::Error &&
                       d.category == analysis::RuleCategory::Usage;
            });
        const bool isFatal = fatal != pre.diagnostics.end();
        if (isFatal && request.failFast) {
            throw VaqError("lint rejected job: [" + fatal->ruleId +
                           "] " + fatal->message);
        }
        if (isFatal) {
            result.status = JobStatus::Failed;
            result.errorCategory = ErrorCategory::Usage;
            result.error =
                "[" + fatal->ruleId + "] " + fatal->message;
            result.attempts = 0;
        }
        result.diagnostics = std::move(pre.diagnostics);
        if (isFatal) {
            result.compileMs = elapsedMs(start);
            return result;
        }
    }

    std::vector<Mapper> ownedFallbacks;
    const std::vector<Mapper> *fallbacks = context.fallbacks;
    if (!fallbacks) {
        if (!request.failFast)
            ownedFallbacks = buildFallbackMappers(
                mapper.name(), request.maxRetries);
        fallbacks = &ownedFallbacks;
    }

    // One compile attempt: clean snapshots map on the full machine,
    // quarantined ones into the healthy region of the cleaned copy.
    const auto compileAttempt =
        [&](const Mapper &attemptMapper) -> MappedCircuit {
        if (health.kind != SnapshotHealth::Kind::Degraded) {
            return attemptMapper.compileRaw(logical, graph, snapshot,
                                            request.options);
        }
        const calibration::SanitizedCalibration &sanitized =
            *health.sanitized;
        if (sanitized.healthyRegion.size() <
            static_cast<std::size_t>(logical.numQubits())) {
            throw CalibrationError(
                "healthy region (" +
                std::to_string(sanitized.healthyRegion.size()) +
                " qubits) smaller than the program (" +
                std::to_string(logical.numQubits()) + ")");
        }
        return attemptMapper.mapInRegion(logical, graph,
                                         sanitized.snapshot,
                                         sanitized.healthyRegion);
    };

    const std::size_t totalAttempts =
        request.failFast ? 1 : 1 + fallbacks->size();
    for (std::size_t attempt = 0; attempt < totalAttempts;
         ++attempt) {
        const Mapper &attemptMapper =
            attempt == 0 ? mapper : (*fallbacks)[attempt - 1];
        if (telemetry && attempt > 0)
            obs::count("batch.retries");
        try {
            // Install a deadline scope only when a deadline is
            // actually requested — a request without one must not
            // mask an ambient CancellationScope the caller set up
            // (Mapper::compile historically ran under whatever
            // token was current). The budget is per job, not per
            // attempt: whatever a failed attempt burned is gone,
            // so a retry after the deadline expires cancels at its
            // first checkpoint instead of succeeding late as a
            // deceptively healthy-looking Degraded result.
            std::optional<CancellationToken> token;
            std::optional<CancellationScope> deadline;
            if (request.deadlineMs > 0.0) {
                // withDeadline requires a positive budget; an
                // exhausted one becomes a token that expires at
                // the first checkpoint.
                const double remainingMs =
                    request.deadlineMs - elapsedMs(start);
                token.emplace(CancellationToken::withDeadline(
                    std::max(remainingMs, 1e-6)));
                deadline.emplace(*token);
            }
            MappedCircuit mapped = compileAttempt(attemptMapper);
            result.analyticPst = scoreAttempt(mapped);
            result.mapped = std::move(mapped);
            result.attempts = static_cast<int>(attempt) + 1;
            result.policyUsed = attemptMapper.name();
            if (health.kind == SnapshotHealth::Kind::Degraded ||
                attempt > 0) {
                result.status = JobStatus::Degraded;
                std::string note;
                if (attempt > 0)
                    note = "fell back to policy '" +
                           attemptMapper.name() + "'";
                if (health.kind == SnapshotHealth::Kind::Degraded) {
                    if (!note.empty())
                        note += "; ";
                    note += health.note;
                }
                result.note = std::move(note);
            } else {
                result.status = JobStatus::Ok;
            }
            result.error.clear();
            break;
        } catch (const std::exception &e) {
            if (request.failFast)
                throw;
            const ErrorCategory category = categorize(e);
            result.status = category == ErrorCategory::Timeout
                                ? JobStatus::TimedOut
                                : JobStatus::Failed;
            result.errorCategory = category;
            result.error = e.what();
            result.attempts = static_cast<int>(attempt) + 1;
            if (!retryable(category))
                break;
        }
    }

    if (linter && result.ok()) {
        // Post-compile pass over the routed circuit: SWAP hygiene,
        // idle exposure, and the static reliability budget on what
        // will actually execute. Advisory only — the job already
        // compiled.
        const analysis::LintReport post = linter->lintPhysical(
            result.mapped.physical, graph, &effective);
        result.mappedLintErrors = post.errorCount();
        result.mappedLintWarnings = post.warningCount();
    }

    result.compileMs = elapsedMs(start);
    return result;
}

CompileResult
compile(const CompileRequest &request,
        const topology::CouplingGraph &graph,
        const calibration::Snapshot &snapshot,
        const CompileContext &context)
{
    return compileCircuit(request.circuit, request, graph, snapshot,
                          context);
}

} // namespace vaq::core
