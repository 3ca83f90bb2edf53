#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/rng.hpp"
#include "core/verify.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "workloads/workloads.hpp"

extern char **environ;

namespace vaqbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(at));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = at - static_cast<double>(lo);
    // A failed request (+inf) anywhere in the interpolation span
    // makes the quantile miss every limit.
    if (frac == 0.0)
        return values[lo];
    if (values[hi] == kInf)
        return kInf;
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
windowedQuantile(const std::vector<double> &values, std::size_t window,
                 double q)
{
    if (values.size() < 2 * window)
        return quantile(values, q);
    std::vector<double> perWindow;
    for (std::size_t first = 0; first + window <= values.size();
         first += window) {
        perWindow.push_back(quantile(
            std::vector<double>(values.begin() + first,
                                values.begin() + first + window),
            q));
    }
    return median(perWindow);
}

void
RunResult::metric(const std::string &name, double value,
                  const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

void
RunResult::fail(const std::string &why)
{
    correct = false;
    if (failures.size() < 20)
        failures.push_back(why);
}

double
peakRssMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::string
compileBody(const std::string &qasm, const std::string &policy,
            const std::string &clientId, bool lint)
{
    json::Value body = json::Value::object();
    body.set("clientId", json::Value::string(clientId));
    body.set("qasm", json::Value::string(qasm));
    json::Value spec = json::Value::object();
    spec.set("name", json::Value::string(policy));
    body.set("policy", std::move(spec));
    json::Value lintBlock = json::Value::object();
    lintBlock.set("enabled", json::Value::boolean(lint));
    body.set("lint", std::move(lintBlock));
    return json::write(body);
}

namespace
{

StreamRequest
makeRequest(std::string label, const circuit::Circuit &logical,
            const std::string &policy, bool lint,
            const std::string &clientId)
{
    StreamRequest request;
    request.label = std::move(label);
    request.policy = policy;
    const std::string qasm = circuit::toQasm(logical);
    request.body = compileBody(qasm, policy, clientId, lint);
    request.logical = circuit::fromQasm(qasm);
    return request;
}

/** X on every qubit set in `mask`, then the QFT: a QFT of a seeded
 *  basis state. */
circuit::Circuit
qftOfBasisState(int n, std::uint64_t mask)
{
    circuit::Circuit c(n);
    for (int q = 0; q < n; ++q) {
        if (mask & (1ULL << q))
            c.x(static_cast<circuit::Qubit>(q));
    }
    c.append(workloads::qft(n));
    return c;
}

/** Content id -> circuit: a fixed injective map, the same for every
 *  seed. Family = id % 7 in Table-1 order; the k-th member (k = id /
 *  7) draws its inputs through an odd-multiplier affine map modulo a
 *  power of two, a bijection, so distinct ids give distinct
 *  circuits. */
std::pair<std::string, circuit::Circuit>
coldContent(const topology::CouplingGraph &q20, std::uint64_t id)
{
    std::uint64_t k = id / 7;
    const auto affine = [&k](unsigned bits, std::uint64_t salt) {
        const std::uint64_t a = mix64(salt) | 1ULL;
        const std::uint64_t b = mix64(3 * salt + 1);
        return (a * k + b) & ((1ULL << bits) - 1);
    };
    switch (id % 7) {
      case 0: {
        // alu: the 4-bit adder has 512 input settings; past them the
        // family continues with wider adders.
        int bits = 4;
        while (k >= (1ULL << (2 * bits + 1))) {
            k -= 1ULL << (2 * bits + 1);
            ++bits;
        }
        const std::uint64_t v = affine(2 * bits + 1, 1);
        const std::uint64_t mask = (1ULL << bits) - 1;
        return {"alu", workloads::adder(bits, v & mask,
                                        (v >> bits) & mask,
                                        ((v >> (2 * bits)) & 1) != 0)};
      }
      case 1:
        return {"bv-16", workloads::bernsteinVazirani(16, affine(15, 2))};
      case 2:
        return {"bv-20", workloads::bernsteinVazirani(20, affine(19, 3))};
      case 3:
        return {"qft-12", qftOfBasisState(12, affine(12, 4))};
      case 4:
        return {"qft-14", qftOfBasisState(14, affine(14, 5))};
      case 5:
        return {"rnd-SD",
                workloads::randomCnot(q20, 100, 1, 2, mix64(6 + k * 7))};
      default:
        return {"rnd-LD",
                workloads::randomCnot(q20, 100, 3, 6, mix64(7 + k * 7))};
    }
}

} // namespace

StreamRequest
coldRequest(const topology::CouplingGraph &q20, std::uint64_t seed,
            std::size_t index)
{
    std::uint64_t id = 0;
    if (index < kColdPrefix) {
        std::vector<std::uint64_t> order(kColdPrefix);
        for (std::size_t i = 0; i < kColdPrefix; ++i)
            order[i] = i;
        Rng rng(mix64(seed));
        std::shuffle(order.begin(), order.end(), rng);
        id = order[index];
    } else {
        // Seeded tail: a seed-dependent stretch of ids past the
        // prefix, walked in family rotation.
        id = kColdPrefix + 7 * (mix64(seed) % 64) + (index - kColdPrefix);
    }
    auto [label, logical] = coldContent(q20, id);
    return makeRequest(std::move(label), logical, "vqa+vqm",
                       index % 2 == 1, "cold-" + std::to_string(index % 4));
}

std::vector<std::pair<std::string, circuit::Circuit>>
serveWorkingSet()
{
    std::vector<std::pair<std::string, circuit::Circuit>> set;
    for (workloads::Workload &w : workloads::q5Suite())
        set.emplace_back(w.name, std::move(w.circuit));
    for (int n : {4, 5, 6, 8})
        set.emplace_back("ghz-" + std::to_string(n), workloads::ghz(n));
    for (int n : {5, 6, 8}) {
        set.emplace_back("bv-" + std::to_string(n),
                         workloads::bernsteinVazirani(n));
    }
    set.emplace_back("qft-5", workloads::qft(5));
    set.emplace_back("grover-2", workloads::grover(2, 1));
    set.emplace_back("grover-3", workloads::grover(3, 5));
    return set;
}

const std::vector<std::string> &
servePolicies()
{
    static const std::vector<std::string> policies = {
        "baseline", "vqm", "vqa+vqm"};
    return policies;
}

std::vector<ServeEvent>
serveSchedule(std::uint64_t seed, double rate, double seconds)
{
    const std::size_t kernels = serveWorkingSet().size();
    Rng rng(mix64(seed ^ 0x5e27eULL));
    std::vector<std::size_t> order(kernels);
    std::size_t next = kernels;
    std::vector<ServeEvent> events;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        if (next == kernels) {
            for (std::size_t i = 0; i < kernels; ++i)
                order[i] = i;
            std::shuffle(order.begin(), order.end(), rng);
            next = 0;
        }
        ServeEvent event;
        event.at = t;
        event.kernel = order[next++];
        event.policy = rng.uniformInt(
            static_cast<std::uint64_t>(servePolicies().size()));
        events.push_back(event);
    }
    return events;
}

std::vector<std::string>
archiveCsv(const topology::CouplingGraph &q20, std::size_t cycles)
{
    calibration::SyntheticSource source(
        q20, calibration::SyntheticParams{}, bench::kArchiveSeed);
    std::vector<std::string> csv;
    for (std::size_t i = 0; i < cycles; ++i)
        csv.push_back(calibration::toCsv(source.nextCycle(), q20));
    return csv;
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    std::ostringstream out;
    out << std::hex << h;
    return out.str();
}

namespace
{

std::mutex gChildrenMutex;
std::vector<pid_t> gChildren;

void
forgetChild(pid_t pid)
{
    const std::lock_guard<std::mutex> lock(gChildrenMutex);
    gChildren.erase(std::remove(gChildren.begin(), gChildren.end(), pid),
                    gChildren.end());
}

} // namespace

void
Daemon::killAll()
{
    const std::lock_guard<std::mutex> lock(gChildrenMutex);
    for (const pid_t pid : gChildren) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
    }
    gChildren.clear();
}

Daemon::Daemon(const std::string &binary,
               const std::vector<std::string> &args,
               const std::string &logDir)
{
    static int launches = 0;
    const std::string log =
        logDir + "/vaqd-" + std::to_string(launches++) + ".log";
    std::vector<std::string> argvStrings = {binary};
    argvStrings.insert(argvStrings.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : argvStrings)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const auto start = Clock::now();
    const int rc = posix_spawn(&_pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        _pid = -1;
        throw std::runtime_error("cannot launch " + binary);
    }
    {
        const std::lock_guard<std::mutex> lock(gChildrenMutex);
        gChildren.push_back(_pid);
    }

    const std::string marker = "listening on 127.0.0.1:";
    while (_port == 0) {
        std::ifstream in(log);
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const std::size_t at = text.find(marker);
        if (at != std::string::npos &&
            text.find(' ', at + marker.size()) != std::string::npos) {
            _port = std::stoi(text.substr(at + marker.size()));
            break;
        }
        int status = 0;
        if (waitpid(_pid, &status, WNOHANG) == _pid) {
            forgetChild(_pid);
            _pid = -1;
            throw std::runtime_error("vaqd exited during start-up: " +
                                     text);
        }
        if (secondsSince(start) > 60.0) {
            stop();
            throw std::runtime_error("vaqd did not report its port");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    while (exchange(_port, "GET", "/healthz", "").status != 200) {
        if (secondsSince(start) > 60.0) {
            stop();
            throw std::runtime_error("vaqd never became healthy");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    _setupSeconds = secondsSince(start);
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::stop()
{
    if (_pid <= 0)
        return true;
    kill(_pid, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (waitpid(_pid, &status, WNOHANG) != _pid) {
        if (secondsSince(start) > 10.0) {
            kill(_pid, SIGKILL);
            waitpid(_pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    forgetChild(_pid);
    _pid = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<std::string>
vaqdArgs(const std::string &storeDir)
{
    return {"--machine", "q20", "--store-dir", storeDir};
}

std::string
vaqdFlags()
{
    return "--machine q20 --store-dir <fresh directory>";
}

service::HttpResponse
exchange(int port, const std::string &method, const std::string &path,
         const std::string &body, const std::string &contentType)
{
    try {
        return service::httpExchange(port, method, path, body,
                                     contentType);
    } catch (const std::exception &e) {
        service::HttpResponse failed;
        failed.status = 0;
        failed.body = e.what();
        return failed;
    }
}

void
Tally::add(int status)
{
    ++attempted;
    if (status == 200)
        ++ok;
    else if (status == 429)
        ++refused429;
    else if (status == 503)
        ++shed503;
    else if (status == 0)
        ++transport;
    else
        ++otherStatus;
}

json::Value
Tally::toJson() const
{
    json::Value v = json::Value::object();
    v.set("attempted", json::Value::number(
                           static_cast<std::int64_t>(attempted)));
    v.set("ok", json::Value::number(static_cast<std::int64_t>(ok)));
    v.set("refused_429", json::Value::number(
                             static_cast<std::int64_t>(refused429)));
    v.set("shed_503",
          json::Value::number(static_cast<std::int64_t>(shed503)));
    v.set("other_status", json::Value::number(
                              static_cast<std::int64_t>(otherStatus)));
    v.set("transport_errors", json::Value::number(
                                  static_cast<std::int64_t>(transport)));
    return v;
}

Checked
checkResponse(const service::HttpResponse &response,
              const circuit::Circuit &logical,
              const topology::CouplingGraph &machine,
              const calibration::Snapshot &snapshot, RunResult &run,
              double *analyticSeconds)
{
    Checked checked;
    if (response.status != 200)
        return checked; // counted as a failed request, not a bad output
    try {
        checked.result = core::compileResultFromJson(
            json::Cursor(json::parse(response.body, "response")));
    } catch (const std::exception &e) {
        run.fail(std::string("unparseable response: ") + e.what());
        return checked;
    }
    const core::CompileResult &result = checked.result;
    if (result.status != core::JobStatus::Ok) {
        run.fail("200 response with status " +
                 std::string(core::jobStatusName(result.status)) +
                 ": " + result.error + result.note);
        return checked;
    }
    const core::VerificationReport report =
        core::verifyMapping(result.mapped, logical, machine);
    if (!report.failure.empty()) {
        run.fail("verifyMapping: " + report.failure);
        return checked;
    }
    const auto start = Clock::now();
    const sim::NoiseModel model(machine, snapshot,
                                sim::CoherenceMode::PerOp);
    const double pst = sim::analyticPst(result.mapped.physical, model);
    if (analyticSeconds != nullptr)
        *analyticSeconds += secondsSince(start);
    if (pst != result.analyticPst) {
        std::ostringstream why;
        why.precision(17);
        why << "analyticPst mismatch: response " << result.analyticPst
            << " recomputed " << pst
            << (result.fromStore ? " (store serve)" : " (compiled)");
        run.fail(why.str());
        return checked;
    }
    checked.ok = true;
    checked.pst = pst;
    checked.fromStore = result.fromStore;
    checked.viaDelta = result.viaDelta;
    return checked;
}

LoadResult
closedLoop(int port, std::size_t clients, double seconds,
           std::size_t minRequests, std::size_t maxRequests,
           const BodyFn &body,
           const std::function<void(std::size_t)> &onComplete)
{
    std::mutex mutex;
    std::size_t next = 0;
    LoadResult load;
    const auto start = Clock::now();
    const auto client = [&] {
        for (;;) {
            std::size_t index = 0;
            {
                const std::lock_guard<std::mutex> lock(mutex);
                if (next >= maxRequests ||
                    (next >= minRequests && secondsSince(start) >= seconds))
                    return;
                index = next++;
            }
            const std::string request = body(index);
            const auto sent = Clock::now();
            Outcome outcome;
            outcome.index = index;
            outcome.response =
                exchange(port, "POST", "/v1/compile", request);
            outcome.exchangeMs = msSince(sent);
            if (outcome.response.status == 200)
                outcome.latencyMs = outcome.exchangeMs;
            const std::lock_guard<std::mutex> lock(mutex);
            load.outcomes.push_back(std::move(outcome));
            if (onComplete)
                onComplete(load.outcomes.size());
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < clients; ++i)
        threads.emplace_back(client);
    for (std::thread &thread : threads)
        thread.join();
    load.wallSeconds = secondsSince(start);
    std::sort(load.outcomes.begin(), load.outcomes.end(),
              [](const Outcome &a, const Outcome &b) {
                  return a.index < b.index;
              });
    return load;
}

LoadResult
openLoop(int port, std::size_t senders, const std::vector<double> &at,
         std::size_t rolloverEvery, const BodyFn &body,
         const std::function<void(std::size_t)> &rollover)
{
    LoadResult load;
    load.outcomes.resize(at.size());
    const auto start = Clock::now();
    for (std::size_t first = 0, epoch = 0; first < at.size();
         first += rolloverEvery, ++epoch) {
        if (epoch > 0)
            rollover(epoch);
        const std::size_t last = std::min(first + rolloverEvery, at.size());
        std::atomic<std::size_t> next{first};
        const auto sender = [&] {
            for (;;) {
                const std::size_t index = next.fetch_add(1);
                if (index >= last)
                    return;
                const std::string request = body(index);
                const auto due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(at[index]));
                // Sleep to just before the due time, then spin: timer
                // wake-ups on a busy or virtualized host run late by
                // a sizable share of a store hit's latency.
                std::this_thread::sleep_until(
                    due - std::chrono::microseconds(300));
                while (Clock::now() < due) {
                }
                Outcome &outcome = load.outcomes[index];
                outcome.index = index;
                outcome.epoch = epoch;
                const auto sent = Clock::now();
                outcome.lateMs =
                    std::chrono::duration<double, std::milli>(sent - due)
                        .count();
                outcome.response =
                    exchange(port, "POST", "/v1/compile", request);
                outcome.exchangeMs = msSince(sent);
                if (outcome.response.status == 200) {
                    outcome.latencyMs =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - due)
                            .count();
                }
            }
        };
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < senders; ++i)
            threads.emplace_back(sender);
        for (std::thread &thread : threads)
            thread.join();
    }
    load.wallSeconds = secondsSince(start);
    return load;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace vaqbench
