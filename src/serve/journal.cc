#include "serve/journal.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include <unistd.h>

#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/jsonl.h"

namespace rasengan::serve {

namespace {

struct JournalCounters
{
    obs::Counter &appends = obs::Registry::global().counter(
        "serve_journal_appends_total", "Records appended to the journal");
    obs::Counter &replayMalformed = obs::Registry::global().counter(
        "serve_journal_replay_malformed_total",
        "Malformed records skipped during journal replay");
};

JournalCounters &
journalCounters()
{
    static JournalCounters counters;
    return counters;
}

/** Required string field or nullptr. */
const std::string *
strField(const JsonObject &obj, const char *key)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.kind != JsonValue::Kind::String)
        return nullptr;
    return &it->second.str;
}

bool
seqField(const JsonObject &obj, uint64_t *out)
{
    auto it = obj.find("seq");
    if (it == obj.end() || it->second.kind != JsonValue::Kind::Number)
        return false;
    double v = it->second.num;
    if (v < 1.0 || v != static_cast<double>(static_cast<uint64_t>(v)))
        return false;
    *out = static_cast<uint64_t>(v);
    return true;
}

} // namespace

std::vector<const JournalJob *>
JournalReplay::pending() const
{
    std::vector<const JournalJob *> out;
    for (const JournalJob &job : jobs)
        if (!job.done && !job.shed)
            out.push_back(&job);
    return out;
}

Journal::~Journal() { close(); }

bool
Journal::open(const std::string &path, uint64_t next_seq,
              std::string *error)
{
    panic_if(file_ != nullptr, "Journal::open called twice");
    file_ = std::fopen(path.c_str(), "a+b");
    if (file_ == nullptr) {
        if (error != nullptr)
            *error = "cannot open journal " + path + " for append";
        return false;
    }
    // A crash can leave a torn final record with no newline.  End it
    // here, or the next append would be glued onto it and both would
    // replay as one malformed line.
    const bool tornTail = std::fseek(file_, -1, SEEK_END) == 0 &&
                          std::fgetc(file_) != '\n';
    std::fseek(file_, 0, SEEK_END); // a read must not run into a write
    if (tornTail) {
        std::fputc('\n', file_);
        std::fflush(file_);
        ::fdatasync(fileno(file_));
    }
    path_ = path;
    nextSeq_ = next_seq;
    return true;
}

void
Journal::appendLine(const std::string &line)
{
    // Caller holds mutex_.  Flush pushes the record into the kernel;
    // fdatasync makes it survive power loss, not just a SIGKILL.  One
    // syscall pair per record is affordable: journal appends are
    // O(jobs), job execution is O(seconds).
    panic_if(file_ == nullptr, "Journal append before open");
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    ::fdatasync(fileno(file_));
    journalCounters().appends.inc();
}

uint64_t
Journal::appendAccepted(const JobRequest &req,
                        const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t seq = nextSeq_++;
    JsonWriter w;
    w.field("type", "accepted")
        .field("seq", seq)
        .field("id", req.id)
        .field("fingerprint", fingerprint)
        .field("request", writeRequest(req));
    appendLine(w.str());
    return seq;
}

void
Journal::appendDone(uint64_t seq, const std::string &id,
                    const std::string &result_line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.field("type", "done")
        .field("seq", seq)
        .field("id", id)
        .field("result", result_line);
    appendLine(w.str());
}

void
Journal::appendShed(uint64_t seq, const std::string &id,
                    const std::string &code, const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.field("type", "shed")
        .field("seq", seq)
        .field("id", id)
        .field("code", code)
        .field("reason", reason);
    appendLine(w.str());
}

void
Journal::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) {
        std::fflush(file_);
        ::fdatasync(fileno(file_));
    }
}

void
Journal::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) {
        std::fflush(file_);
        ::fdatasync(fileno(file_));
        std::fclose(file_);
        file_ = nullptr;
    }
}

JournalReplay
Journal::replay(const std::string &path)
{
    JournalReplay replay;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        // Cold start: no journal yet is the normal first-run state.
        replay.ok = true;
        return replay;
    }

    // seq -> index into replay.jobs; ids may repeat across requests,
    // sequence numbers never do.
    std::unordered_map<uint64_t, size_t> bySeq;
    LineReader reader(in);
    LineReader::Line line;
    while (reader.next(line)) {
        if (!line.ok) {
            if (line.oversized)
                ++replay.oversizedLines;
            else if (line.hasNul)
                ++replay.malformedLines; // zero-filled crash debris
            else
                ++replay.truncatedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        JsonParseResult parsed = parseFlatJson(line.text);
        if (!parsed.ok) {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        const JsonObject &obj = parsed.object;
        const std::string *type = strField(obj, "type");
        uint64_t seq = 0;
        if (type == nullptr || !seqField(obj, &seq)) {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        if (seq >= replay.nextSeq)
            replay.nextSeq = seq + 1;

        if (*type == "accepted") {
            const std::string *id = strField(obj, "id");
            const std::string *fp = strField(obj, "fingerprint");
            const std::string *req = strField(obj, "request");
            if (id == nullptr || fp == nullptr || req == nullptr) {
                ++replay.malformedLines;
                journalCounters().replayMalformed.inc();
                continue;
            }
            JournalJob job;
            job.seq = seq;
            job.id = *id;
            job.fingerprint = *fp;
            job.requestLine = *req;
            bySeq[seq] = replay.jobs.size();
            replay.jobs.push_back(std::move(job));
            continue;
        }

        // Transition records must reference a known accepted record; a
        // dangling one means its accepted line was itself corrupt.
        auto it = bySeq.find(seq);
        if (it == bySeq.end()) {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
            continue;
        }
        JournalJob &job = replay.jobs[it->second];
        if (*type == "running") {
            // Written by older daemons; carries no replay state.
        } else if (*type == "done") {
            const std::string *result = strField(obj, "result");
            if (result == nullptr) {
                ++replay.malformedLines;
                journalCounters().replayMalformed.inc();
                continue;
            }
            job.done = true;
            job.shed = false;
            job.resultLine = *result;
        } else if (*type == "shed") {
            job.shed = true;
        } else {
            ++replay.malformedLines;
            journalCounters().replayMalformed.inc();
        }
    }
    replay.ok = true;
    return replay;
}

bool
Journal::compact(const std::string &path, std::string *error)
{
    JournalReplay replay = Journal::replay(path);
    if (!replay.ok) {
        if (error != nullptr)
            *error = replay.error;
        return false;
    }

    const std::string tmp = path + ".compact";
    {
        std::FILE *out = std::fopen(tmp.c_str(), "wb");
        if (out == nullptr) {
            if (error != nullptr)
                *error = "cannot open " + tmp + " for write";
            return false;
        }
        for (const JournalJob *job : replay.pending()) {
            JsonWriter w;
            w.field("type", "accepted")
                .field("seq", job->seq)
                .field("id", job->id)
                .field("fingerprint", job->fingerprint)
                .field("request", job->requestLine);
            std::string line = w.str();
            std::fwrite(line.data(), 1, line.size(), out);
            std::fputc('\n', out);
        }
        std::fflush(out);
        ::fdatasync(fileno(out));
        std::fclose(out);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (error != nullptr)
            *error = "cannot rename " + tmp + " over " + path;
        return false;
    }
    return true;
}

} // namespace rasengan::serve
