#include "store/artifact.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "analysis/dataflow.hpp"
#include "analysis/sensitivity.hpp"
#include "common/hashing.hpp"

namespace vaq::store
{

namespace
{

/** 16-digit lowercase hex of a 64-bit word. */
std::string
hexWord(std::uint64_t word)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(word));
    return std::string(buf);
}

/** Doubles travel as bit patterns: exact round-trip, no locale. */
std::string
hexDouble(double value)
{
    if (value == 0.0)
        value = 0.0; // match the normalized content hashes
    return hexWord(std::bit_cast<std::uint64_t>(value));
}

/** Parse a 16-digit hex word; throws on any malformation. */
std::uint64_t
parseHexWord(const std::string &token)
{
    if (token.size() != 16)
        throw std::invalid_argument("bad hex word");
    std::uint64_t word = 0;
    for (const char c : token) {
        word <<= 4;
        if (c >= '0' && c <= '9')
            word |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            word |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            throw std::invalid_argument("bad hex digit");
    }
    return word;
}

double
parseHexDouble(const std::string &token)
{
    return std::bit_cast<double>(parseHexWord(token));
}

/** FNV-1a over a byte range (the record checksum). */
std::uint64_t
checksumBytes(const std::string &bytes)
{
    std::uint64_t h = kHashSeed;
    for (const unsigned char c : bytes)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    return h;
}

/** Reject absurd counts from damaged length fields before any
 *  allocation happens. */
constexpr std::size_t kMaxListLength = 1u << 22;

/** Line-oriented reader whose every helper throws on malformed
 *  input — parseArtifact() catches and converts to a miss. */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &text) : _in(text) {}

    /** Next line split into whitespace tokens; first token must be
     *  `tag`. Returns the remaining tokens. */
    std::vector<std::string> line(const char *tag)
    {
        std::string raw;
        if (!std::getline(_in, raw))
            throw std::invalid_argument("record truncated");
        std::istringstream fields(raw);
        std::string head;
        if (!(fields >> head) || head != tag)
            throw std::invalid_argument("unexpected record line");
        std::vector<std::string> tokens;
        std::string token;
        while (fields >> token)
            tokens.push_back(std::move(token));
        return tokens;
    }

  private:
    std::istringstream _in;
};

long
parseCount(const std::string &token, long max)
{
    std::size_t used = 0;
    const long value = std::stol(token, &used);
    if (used != token.size() || value < 0 || value > max)
        throw std::invalid_argument("count out of range");
    return value;
}

} // namespace

std::uint64_t
ArtifactKey::combined() const
{
    std::uint64_t h = hashCombine(kHashSeed, circuitHash);
    h = hashCombine(h, snapshotHash);
    h = hashCombine(h, topologyHash);
    return hashCombine(h, policyHash);
}

std::uint64_t
ArtifactKey::baseHash() const
{
    std::uint64_t h = hashCombine(kHashSeed, circuitHash);
    h = hashCombine(h, topologyHash);
    return hashCombine(h, policyHash);
}

std::string
ArtifactKey::fileName() const
{
    return hexWord(combined()) + ".vaqart";
}

std::uint64_t
policySpecHash(const core::PolicySpec &spec)
{
    std::uint64_t h = kHashSeed;
    for (const unsigned char c : spec.name)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    h = hashCombine(h, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(spec.mah)));
    return hashCombine(h, spec.seed);
}

ArtifactKey
makeArtifactKey(const circuit::Circuit &logical,
                const topology::CouplingGraph &graph,
                const calibration::Snapshot &snapshot,
                const core::PolicySpec &spec)
{
    ArtifactKey key;
    key.circuitHash = logical.contentHash();
    key.snapshotHash = snapshot.contentHash();
    key.topologyHash = graph.topologyHash();
    key.policyHash = policySpecHash(spec);
    return key;
}

CompileArtifact
makeArtifact(const core::MappedCircuit &mapped, double analytic_pst,
             std::size_t mapped_lint_errors,
             std::size_t mapped_lint_warnings,
             const topology::CouplingGraph &graph,
             const calibration::Snapshot &snapshot)
{
    CompileArtifact artifact;
    artifact.numProgQubits = mapped.initial.numProg();
    artifact.numPhysQubits = mapped.initial.numPhys();
    artifact.physical = mapped.physical;
    artifact.initialLayout = mapped.initial.progToPhys();
    artifact.finalLayout = mapped.final.progToPhys();
    artifact.insertedSwaps = mapped.insertedSwaps;
    artifact.policyUsed = mapped.policyName;
    artifact.analyticPst = analytic_pst;
    artifact.mappedLintErrors = mapped_lint_errors;
    artifact.mappedLintWarnings = mapped_lint_warnings;
    const analysis::DataflowAnalysis dataflow(mapped.physical,
                                              snapshot.durations);
    artifact.profile =
        analysis::analyzeSensitivity(dataflow, graph, snapshot);
    return artifact;
}

core::MappedCircuit
toMapped(const CompileArtifact &artifact)
{
    core::MappedCircuit mapped(artifact.numProgQubits,
                               artifact.numPhysQubits);
    mapped.physical = artifact.physical;
    for (int prog = 0; prog < artifact.numProgQubits; ++prog) {
        mapped.initial.assign(prog, artifact.initialLayout[prog]);
        mapped.final.assign(prog, artifact.finalLayout[prog]);
    }
    mapped.insertedSwaps = artifact.insertedSwaps;
    mapped.policyName = artifact.policyUsed;
    return mapped;
}

std::string
serializeArtifact(const ArtifactKey &key,
                  const CompileArtifact &artifact)
{
    std::ostringstream out;
    out << "vaqart " << kArtifactVersion << '\n';
    out << "key " << hexWord(key.circuitHash) << ' '
        << hexWord(key.snapshotHash) << ' '
        << hexWord(key.topologyHash) << ' '
        << hexWord(key.policyHash) << '\n';
    out << "shape " << artifact.numProgQubits << ' '
        << artifact.numPhysQubits << '\n';
    out << "policy "
        << (artifact.policyUsed.empty() ? "-" : artifact.policyUsed)
        << '\n';
    out << "swaps " << artifact.insertedSwaps << '\n';
    out << "pst " << hexDouble(artifact.analyticPst) << '\n';
    out << "lint " << artifact.mappedLintErrors << ' '
        << artifact.mappedLintWarnings << '\n';
    const analysis::SensitivityProfile &profile = artifact.profile;
    out << "dur " << hexDouble(profile.durations.oneQubitNs) << ' '
        << hexDouble(profile.durations.twoQubitNs) << ' '
        << hexDouble(profile.durations.measureNs) << '\n';
    out << "init";
    for (const int p : artifact.initialLayout)
        out << ' ' << p;
    out << '\n';
    out << "final";
    for (const int p : artifact.finalLayout)
        out << ' ' << p;
    out << '\n';
    out << "gates " << artifact.physical.gates().size() << '\n';
    for (const circuit::Gate &gate : artifact.physical.gates()) {
        out << "g " << circuit::gateName(gate.kind) << ' ' << gate.q0
            << ' ' << gate.q1 << ' ' << hexDouble(gate.param) << ' '
            << hexDouble(gate.param2) << ' '
            << hexDouble(gate.param3) << '\n';
    }
    out << "qdeps " << profile.qubits.size() << '\n';
    for (const analysis::QubitSensitivity &q : profile.qubits) {
        out << "q " << q.qubit << ' ' << hexDouble(q.t1Us) << ' '
            << hexDouble(q.error1q) << ' '
            << hexDouble(q.readoutError) << ' '
            << hexDouble(q.oneQubitGates) << ' '
            << hexDouble(q.measurements) << ' '
            << hexDouble(q.busyNs) << '\n';
    }
    out << "ldeps " << profile.links.size() << '\n';
    for (const analysis::LinkSensitivity &l : profile.links) {
        out << "l " << l.link << ' ' << l.q0 << ' ' << l.q1 << ' '
            << hexDouble(l.error2q) << ' '
            << hexDouble(l.effectiveGates) << '\n';
    }
    std::string payload = out.str();
    payload += "sum " + hexWord(checksumBytes(payload)) + '\n';
    return payload;
}

std::optional<std::pair<ArtifactKey, CompileArtifact>>
parseArtifact(const std::string &text)
{
    try {
        // A record always ends with a newline; a byte-for-byte
        // prefix of a record (torn write, truncated file) must
        // never parse, not even one that only lost the final '\n'.
        if (text.empty() || text.back() != '\n')
            return std::nullopt;
        // The checksum line is last; everything before it is the
        // checksummed payload. Damage anywhere — including inside
        // the sum line itself — fails here.
        const std::size_t sum_pos = text.rfind("sum ");
        if (sum_pos == std::string::npos ||
            (sum_pos != 0 && text[sum_pos - 1] != '\n'))
            return std::nullopt;
        std::istringstream sum_line(text.substr(sum_pos + 4));
        std::string sum_token;
        if (!(sum_line >> sum_token))
            return std::nullopt;
        const std::string payload = text.substr(0, sum_pos);
        if (checksumBytes(payload) != parseHexWord(sum_token))
            return std::nullopt;

        RecordReader reader(payload);
        const std::vector<std::string> version =
            reader.line("vaqart");
        if (version.size() != 1 ||
            parseCount(version[0], 1000) != kArtifactVersion)
            return std::nullopt;

        ArtifactKey key;
        const std::vector<std::string> key_tokens =
            reader.line("key");
        if (key_tokens.size() != 4)
            return std::nullopt;
        key.circuitHash = parseHexWord(key_tokens[0]);
        key.snapshotHash = parseHexWord(key_tokens[1]);
        key.topologyHash = parseHexWord(key_tokens[2]);
        key.policyHash = parseHexWord(key_tokens[3]);

        CompileArtifact artifact;
        const std::vector<std::string> shape =
            reader.line("shape");
        if (shape.size() != 2)
            return std::nullopt;
        artifact.numProgQubits = static_cast<int>(
            parseCount(shape[0], kMaxListLength));
        artifact.numPhysQubits = static_cast<int>(
            parseCount(shape[1], kMaxListLength));
        if (artifact.numProgQubits < 1 ||
            artifact.numPhysQubits < artifact.numProgQubits)
            return std::nullopt;

        const std::vector<std::string> policy =
            reader.line("policy");
        if (policy.size() != 1)
            return std::nullopt;
        artifact.policyUsed = policy[0] == "-" ? "" : policy[0];

        const std::vector<std::string> swaps =
            reader.line("swaps");
        if (swaps.size() != 1)
            return std::nullopt;
        artifact.insertedSwaps = static_cast<std::size_t>(
            parseCount(swaps[0], 1L << 40));

        const std::vector<std::string> pst = reader.line("pst");
        if (pst.size() != 1)
            return std::nullopt;
        artifact.analyticPst = parseHexDouble(pst[0]);

        const std::vector<std::string> lint = reader.line("lint");
        if (lint.size() != 2)
            return std::nullopt;
        artifact.mappedLintErrors = static_cast<std::size_t>(
            parseCount(lint[0], 1L << 40));
        artifact.mappedLintWarnings = static_cast<std::size_t>(
            parseCount(lint[1], 1L << 40));

        const std::vector<std::string> dur = reader.line("dur");
        if (dur.size() != 3)
            return std::nullopt;
        analysis::SensitivityProfile &profile = artifact.profile;
        profile.durations.oneQubitNs = parseHexDouble(dur[0]);
        profile.durations.twoQubitNs = parseHexDouble(dur[1]);
        profile.durations.measureNs = parseHexDouble(dur[2]);

        const auto parse_layout =
            [&artifact](const std::vector<std::string> &tokens) {
                std::vector<int> layout;
                layout.reserve(tokens.size());
                for (const std::string &token : tokens)
                    layout.push_back(static_cast<int>(parseCount(
                        token, artifact.numPhysQubits - 1)));
                return layout;
            };
        artifact.initialLayout = parse_layout(reader.line("init"));
        artifact.finalLayout = parse_layout(reader.line("final"));
        if (static_cast<int>(artifact.initialLayout.size()) !=
                artifact.numProgQubits ||
            static_cast<int>(artifact.finalLayout.size()) !=
                artifact.numProgQubits)
            return std::nullopt;

        const std::vector<std::string> gate_count =
            reader.line("gates");
        if (gate_count.size() != 1)
            return std::nullopt;
        const long num_gates =
            parseCount(gate_count[0], kMaxListLength);
        circuit::Circuit physical(artifact.numPhysQubits);
        for (long i = 0; i < num_gates; ++i) {
            const std::vector<std::string> g = reader.line("g");
            if (g.size() != 6)
                return std::nullopt;
            circuit::Gate gate;
            gate.kind = circuit::gateKindFromName(g[0]);
            // Operands may be the kNoQubit sentinel (-1); range
            // checking is Circuit::append's job and a throw there
            // is a miss like any other damage.
            gate.q0 = std::stoi(g[1]);
            gate.q1 = std::stoi(g[2]);
            gate.param = parseHexDouble(g[3]);
            gate.param2 = parseHexDouble(g[4]);
            gate.param3 = parseHexDouble(g[5]);
            physical.append(gate);
            if (gate.kind != circuit::GateKind::BARRIER)
                ++profile.opCount;
        }
        artifact.physical = std::move(physical);

        const std::vector<std::string> qdep_count =
            reader.line("qdeps");
        if (qdep_count.size() != 1)
            return std::nullopt;
        const long num_qdeps =
            parseCount(qdep_count[0], kMaxListLength);
        for (long i = 0; i < num_qdeps; ++i) {
            const std::vector<std::string> q = reader.line("q");
            if (q.size() != 7)
                return std::nullopt;
            analysis::QubitSensitivity record;
            record.qubit = static_cast<int>(
                parseCount(q[0], artifact.numPhysQubits - 1));
            record.t1Us = parseHexDouble(q[1]);
            record.error1q = parseHexDouble(q[2]);
            record.readoutError = parseHexDouble(q[3]);
            record.oneQubitGates = parseHexDouble(q[4]);
            record.measurements = parseHexDouble(q[5]);
            record.busyNs = parseHexDouble(q[6]);
            profile.qubits.push_back(record);
        }

        const std::vector<std::string> ldep_count =
            reader.line("ldeps");
        if (ldep_count.size() != 1)
            return std::nullopt;
        const long num_ldeps =
            parseCount(ldep_count[0], kMaxListLength);
        for (long i = 0; i < num_ldeps; ++i) {
            const std::vector<std::string> l = reader.line("l");
            if (l.size() != 5)
                return std::nullopt;
            analysis::LinkSensitivity record;
            record.link = static_cast<std::size_t>(
                parseCount(l[0], kMaxListLength));
            record.q0 = static_cast<int>(
                parseCount(l[1], artifact.numPhysQubits - 1));
            record.q1 = static_cast<int>(
                parseCount(l[2], artifact.numPhysQubits - 1));
            record.error2q = parseHexDouble(l[3]);
            record.effectiveGates = parseHexDouble(l[4]);
            profile.links.push_back(record);
        }
        profile.logPst = analysis::closedFormLogPst(profile);

        // Reconstruct the layouts once here so a damaged-but-
        // checksum-colliding record (or a record written by a buggy
        // producer) can never throw later inside a batch.
        (void)toMapped(artifact);
        return std::make_pair(key, std::move(artifact));
    }
    catch (...) {
        return std::nullopt;
    }
}

} // namespace vaq::store
