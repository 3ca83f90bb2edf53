/**
 * @file
 * Helpers for the artifact-store suite: a scratch directory that
 * cleans up after itself, a canned (machine, snapshot, circuit,
 * compile) fixture so every test addresses the same content, and
 * the touched-set reuse predicate as a parity oracle.
 */
#ifndef VAQ_TESTS_STORE_SUPPORT_HPP
#define VAQ_TESTS_STORE_SUPPORT_HPP

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sensitivity.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/mapper.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::test
{

/** Unique scratch directory, removed (recursively) on scope exit. */
class TempStoreDir
{
  public:
    TempStoreDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        _path = std::filesystem::temp_directory_path() /
                ("vaq_store_" + std::string(info->test_suite_name()) +
                 "_" + std::string(info->name()) + "_" +
                 std::to_string(::getpid()));
        std::filesystem::remove_all(_path);
        std::filesystem::create_directories(_path);
    }

    ~TempStoreDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(_path, ec);
    }

    const std::filesystem::path &path() const { return _path; }
    std::string str() const { return _path.string(); }

  private:
    std::filesystem::path _path;
};

/** All .vaqart records under `dir`, sorted. */
inline std::vector<std::filesystem::path>
storeRecords(const std::filesystem::path &dir)
{
    std::vector<std::filesystem::path> records;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".vaqart")
            records.push_back(entry.path());
    }
    std::sort(records.begin(), records.end());
    return records;
}

/** A small program exercising 1q, 2q, parameterized and measure
 *  gates — enough structure for layouts and touched sets to be
 *  non-trivial. */
inline circuit::Circuit
storeTestCircuit(int num_qubits = 3)
{
    circuit::Circuit c(num_qubits);
    c.h(0);
    for (int q = 1; q < num_qubits; ++q)
        c.cx(q - 1, q);
    c.rz(num_qubits - 1, 0.1234567890123456);
    for (int q = 0; q < num_qubits; ++q)
        c.measure(q);
    return c;
}

/**
 * Oracle: the touched-set reuse predicate. True iff the gate
 * durations and every calibration value of the profile's touched
 * qubits (T1, T2, 1q error, readout error) and links are unchanged
 * from `baseline` (the snapshot the profile was built against) to
 * `now`. Wherever it holds, the store must serve at bound 0.
 */
inline bool
touchedSetReusable(const analysis::SensitivityProfile &profile,
                   const calibration::Snapshot &baseline,
                   const calibration::Snapshot &now)
{
    const calibration::GateDurations &d = now.durations;
    if (d.oneQubitNs != baseline.durations.oneQubitNs ||
        d.twoQubitNs != baseline.durations.twoQubitNs ||
        d.measureNs != baseline.durations.measureNs)
        return false;
    for (const analysis::QubitSensitivity &q : profile.qubits) {
        const calibration::QubitCalibration &was =
            baseline.qubit(q.qubit);
        const calibration::QubitCalibration &is = now.qubit(q.qubit);
        if (was.t1Us != is.t1Us || was.t2Us != is.t2Us ||
            was.error1q != is.error1q ||
            was.readoutError != is.readoutError)
            return false;
    }
    for (const analysis::LinkSensitivity &l : profile.links) {
        if (baseline.linkError(l.link) != now.linkError(l.link))
            return false;
    }
    return true;
}

} // namespace vaq::test

#endif // VAQ_TESTS_STORE_SUPPORT_HPP
