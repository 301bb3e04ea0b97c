#include "exec/checkpoint.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"

namespace rasengan::exec {

namespace {

constexpr const char *kHeader = "rasengan-checkpoint v1";

ExecError
corrupt(int line, const std::string &message)
{
    return ExecError{ErrorCode::CheckpointCorrupt,
                     "line " + std::to_string(line) + ": " + message};
}

/**
 * True when @p text is an engine state Rng::Engine reads back: its
 * state_size words, then a position of at most state_size, and
 * nothing else.  Each number is unsigned decimal.
 */
bool
validRngState(const std::string &text)
{
    std::istringstream ss(text);
    std::string token;
    size_t count = 0;
    uint64_t value = 0;
    while (ss >> token) {
        const char *end = token.data() + token.size();
        auto [ptr, ec] = std::from_chars(token.data(), end, value);
        if (ec != std::errc() || ptr != end)
            return false;
        ++count;
    }
    return count == Rng::Engine::state_size + 1 &&
           value <= Rng::Engine::state_size;
}

} // namespace

std::string
writeCheckpoint(const SegmentCheckpoint &cp)
{
    std::ostringstream os;
    os.precision(17); // max_digits10: lossless double round trip
    os << kHeader << "\n";
    os << "problem " << cp.problemId << "\n";
    os << "kind " << (cp.shotBased ? "shots" : "probs") << "\n";
    os << "segment " << cp.nextSegment << "\n";
    os << "bits " << cp.numBits << "\n";
    os << "prepurify " << cp.prePurifyFeasibleFraction << "\n";
    os << "times " << cp.times.size();
    for (double t : cp.times)
        os << " " << t;
    os << "\n";
    if (!cp.rngState.empty())
        os << "rng " << cp.rngState << "\n";
    if (cp.shotBased) {
        for (const auto &[state, n] : cp.shotEntries)
            os << "entry " << state.toString(cp.numBits) << " " << n
               << "\n";
    } else {
        for (const auto &[state, p] : cp.probEntries)
            os << "entry " << state.toString(cp.numBits) << " " << p
               << "\n";
    }
    os << "end\n";
    return os.str();
}

Expected<SegmentCheckpoint>
parseCheckpoint(const std::string &text)
{
    SegmentCheckpoint cp;
    std::istringstream stream(text);
    std::string line;
    int line_no = 0;
    bool saw_header = false;
    bool saw_end = false;
    bool saw_kind = false;

    while (std::getline(stream, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (!saw_header) {
            if (line != kHeader)
                return corrupt(line_no, "bad header");
            saw_header = true;
            continue;
        }
        std::istringstream ss(line);
        std::string keyword;
        ss >> keyword;
        if (keyword == "problem") {
            if (!(ss >> cp.problemId))
                return corrupt(line_no, "malformed problem id");
        } else if (keyword == "kind") {
            std::string kind;
            if (!(ss >> kind) || (kind != "shots" && kind != "probs"))
                return corrupt(line_no, "unknown kind");
            cp.shotBased = kind == "shots";
            saw_kind = true;
        } else if (keyword == "segment") {
            if (!(ss >> cp.nextSegment) || cp.nextSegment < 0)
                return corrupt(line_no, "malformed segment index");
        } else if (keyword == "bits") {
            if (!(ss >> cp.numBits) || cp.numBits < 1 ||
                cp.numBits > kMaxBits) {
                return corrupt(line_no, "bits out of range");
            }
        } else if (keyword == "prepurify") {
            if (!(ss >> cp.prePurifyFeasibleFraction))
                return corrupt(line_no, "malformed prepurify");
        } else if (keyword == "times") {
            size_t count = 0;
            if (!(ss >> count))
                return corrupt(line_no, "malformed times count");
            cp.times.resize(count);
            for (size_t i = 0; i < count; ++i)
                if (!(ss >> cp.times[i]))
                    return corrupt(line_no, "missing evolution time");
        } else if (keyword == "rng") {
            std::getline(ss, cp.rngState);
            if (!cp.rngState.empty() && cp.rngState.front() == ' ')
                cp.rngState.erase(0, 1);
            if (cp.rngState.empty())
                return corrupt(line_no, "empty rng state");
            if (!validRngState(cp.rngState))
                return corrupt(line_no,
                               "rng state is not " +
                                   std::to_string(Rng::Engine::state_size) +
                                   " words and a position");
        } else if (keyword == "entry") {
            std::string bits;
            if (!(ss >> bits))
                return corrupt(line_no, "malformed entry");
            if (cp.numBits == 0 ||
                static_cast<int>(bits.size()) != cp.numBits)
                return corrupt(line_no, "entry width mismatch");
            for (char ch : bits)
                if (ch != '0' && ch != '1')
                    return corrupt(line_no, "entry is not binary");
            if (!saw_kind)
                return corrupt(line_no, "entry before kind");
            if (cp.shotBased) {
                uint64_t n = 0;
                if (!(ss >> n) || n == 0)
                    return corrupt(line_no, "malformed shot count");
                cp.shotEntries.emplace_back(BitVec::fromString(bits), n);
            } else {
                double p = 0.0;
                if (!(ss >> p) || !(p > 0.0))
                    return corrupt(line_no, "malformed probability");
                cp.probEntries.emplace_back(BitVec::fromString(bits), p);
            }
        } else if (keyword == "end") {
            saw_end = true;
            break;
        } else {
            return corrupt(line_no, "unknown keyword '" + keyword + "'");
        }
    }

    if (!saw_header)
        return corrupt(1, "missing header");
    if (!saw_end)
        return corrupt(line_no, "truncated checkpoint (missing 'end')");
    if (cp.shotEntries.empty() && cp.probEntries.empty())
        return corrupt(line_no, "checkpoint has no distribution entries");
    return cp;
}

Expected<bool>
saveCheckpoint(const SegmentCheckpoint &cp, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return ExecError{ErrorCode::CheckpointCorrupt,
                             "cannot open '" + tmp + "' for writing"};
        out << writeCheckpoint(cp);
        if (!out)
            return ExecError{ErrorCode::CheckpointCorrupt,
                             "short write to '" + tmp + "'"};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return ExecError{ErrorCode::CheckpointCorrupt,
                         "cannot rename into '" + path + "'"};
    }
    return true;
}

Expected<SegmentCheckpoint>
loadCheckpoint(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return ExecError{ErrorCode::CheckpointCorrupt,
                         "cannot open '" + path + "'"};
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseCheckpoint(buf.str());
}

} // namespace rasengan::exec
