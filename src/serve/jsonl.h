/**
 * @file
 * Minimal flat-JSON line reader/writer for the serve request and result
 * streams.
 *
 * The request format is deliberately restricted: one JSON object per
 * line, values limited to strings, finite numbers, booleans, and null
 * -- no nested objects or arrays.  That covers every JobRequest field,
 * keeps the hand-rolled parser small enough to audit, and avoids a
 * dependency the container does not ship.  parseFlatJson reports the
 * first error with a byte offset; the writer emits keys in insertion
 * order with "%.17g" doubles, so identical results serialize to
 * identical bytes (the serve determinism check diffs whole files).
 */

#ifndef RASENGAN_SERVE_JSONL_H
#define RASENGAN_SERVE_JSONL_H

#include <cstdint>
#include <istream>
#include <map>
#include <string>

namespace rasengan::serve {

struct JsonValue
{
    enum class Kind { String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::string str;
    double num = 0.0;
    bool flag = false;
};

/** Key -> value map of one flat object (key order is irrelevant). */
using JsonObject = std::map<std::string, JsonValue>;

struct JsonParseResult
{
    bool ok = false;
    std::string error; ///< empty when ok
    size_t errorOffset = 0;
    JsonObject object;
};

/** Parse one flat JSON object line. */
JsonParseResult parseFlatJson(const std::string &line);

/**
 * Bounded, truncation-aware line reader for request streams and journal
 * replay.
 *
 * Hardens the plain getline loop against the failure modes of files
 * written by a crashed process or bytes fed by an untrusted client:
 *
 *  - a line longer than @p maxLineBytes is consumed to its newline but
 *    reported oversized (never buffered whole, so a pathological line
 *    cannot balloon memory);
 *  - a final line with no trailing newline -- the classic torn
 *    partial write -- is surfaced with `truncated = true` so replay
 *    can skip-and-count it instead of parsing half a record;
 *  - a line containing a NUL byte -- binary garbage, or a journal
 *    block zero-filled by a crash mid-fsync -- is reported with
 *    `hasNul = true` and never parsed (embedded NULs silently shorten
 *    C-string views of the text and mask trailing bytes);
 *  - empty lines are skipped and counted.
 *
 * The reader never throws and never aborts the stream early: callers
 * decide per line whether a defect is fatal (request files) or merely
 * counted (journal replay).
 */
class LineReader
{
  public:
    /** Default line-length cap: generous for inline problems, small
     *  enough that a corrupt length prefix cannot eat the heap. */
    static constexpr size_t kDefaultMaxLineBytes = 1u << 20;

    explicit LineReader(std::istream &in,
                        size_t maxLineBytes = kDefaultMaxLineBytes)
        : in_(in), maxLineBytes_(maxLineBytes)
    {
    }

    struct Line
    {
        std::string text;       ///< contents (valid when ok)
        size_t number = 0;      ///< 1-based line number in the stream
        bool ok = false;        ///< a usable, complete line
        bool oversized = false; ///< exceeded maxLineBytes; text dropped
        bool truncated = false; ///< no trailing newline (torn write)
        bool hasNul = false;    ///< contains a NUL byte; text dropped
    };

    /**
     * Read the next non-empty line.  Returns false at end of stream;
     * otherwise fills @p out (check `out.ok`: oversized/truncated lines
     * are reported, not silently skipped).
     */
    bool next(Line &out);

    size_t linesRead() const { return linesRead_; }
    size_t emptyLines() const { return emptyLines_; }
    size_t oversizedLines() const { return oversizedLines_; }
    size_t truncatedLines() const { return truncatedLines_; }
    size_t nulLines() const { return nulLines_; }

  private:
    std::istream &in_;
    size_t maxLineBytes_;
    size_t lineNumber_ = 0;
    size_t linesRead_ = 0;
    size_t emptyLines_ = 0;
    size_t oversizedLines_ = 0;
    size_t truncatedLines_ = 0;
    size_t nulLines_ = 0;
};

/** Builds one flat JSON object line, keys in call order. */
class JsonWriter
{
  public:
    JsonWriter &field(const std::string &key, const std::string &value);
    JsonWriter &field(const std::string &key, const char *value);
    JsonWriter &field(const std::string &key, double value);
    JsonWriter &field(const std::string &key, int64_t value);
    JsonWriter &field(const std::string &key, uint64_t value);
    JsonWriter &field(const std::string &key, int value);
    JsonWriter &boolean(const std::string &key, bool value);

    /** The finished single-line object (no trailing newline). */
    std::string str() const;

  private:
    void prefix(const std::string &key);
    std::string body_;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_JSONL_H
