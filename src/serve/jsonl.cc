#include "serve/jsonl.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"

namespace rasengan::serve {

namespace {

struct Cursor
{
    const std::string &s;
    size_t pos = 0;

    bool
    done() const
    {
        return pos >= s.size();
    }

    char
    peek() const
    {
        return done() ? '\0' : s[pos];
    }

    void
    skipWs()
    {
        while (!done() && std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }
};

JsonParseResult
fail(const Cursor &cur, const std::string &what)
{
    JsonParseResult r;
    r.ok = false;
    r.error = what;
    r.errorOffset = cur.pos;
    return r;
}

bool
parseString(Cursor &cur, std::string &out, std::string &err)
{
    if (cur.peek() != '"') {
        err = "expected '\"'";
        return false;
    }
    ++cur.pos;
    out.clear();
    while (!cur.done()) {
        char c = cur.s[cur.pos++];
        if (c == '"')
            return true;
        if (c == '\\') {
            if (cur.done()) {
                err = "unterminated escape";
                return false;
            }
            char e = cur.s[cur.pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                  if (cur.pos + 4 > cur.s.size()) {
                      err = "truncated \\u escape";
                      return false;
                  }
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = cur.s[cur.pos++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else {
                          err = "bad hex digit in \\u escape";
                          return false;
                      }
                  }
                  // Requests are ASCII in practice; encode BMP code
                  // points as UTF-8 and reject surrogates.
                  if (code >= 0xD800 && code <= 0xDFFF) {
                      err = "surrogate \\u escapes unsupported";
                      return false;
                  }
                  if (code < 0x80) {
                      out.push_back(static_cast<char>(code));
                  } else if (code < 0x800) {
                      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                      out.push_back(
                          static_cast<char>(0x80 | (code & 0x3F)));
                  } else {
                      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                      out.push_back(
                          static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                      out.push_back(
                          static_cast<char>(0x80 | (code & 0x3F)));
                  }
                  break;
              }
              default:
                  err = "unknown escape character";
                  return false;
            }
        } else {
            out.push_back(c);
        }
    }
    err = "unterminated string";
    return false;
}

} // namespace

JsonParseResult
parseFlatJson(const std::string &line)
{
    Cursor cur{line};
    cur.skipWs();
    if (cur.peek() != '{')
        return fail(cur, "expected '{'");
    ++cur.pos;
    JsonParseResult result;
    cur.skipWs();
    if (cur.peek() == '}') {
        ++cur.pos;
        result.ok = true;
        return result;
    }
    while (true) {
        cur.skipWs();
        std::string key, err;
        if (!parseString(cur, key, err))
            return fail(cur, "key: " + err);
        cur.skipWs();
        if (cur.peek() != ':')
            return fail(cur, "expected ':' after key \"" + key + "\"");
        ++cur.pos;
        cur.skipWs();

        JsonValue value;
        char c = cur.peek();
        if (c == '"') {
            value.kind = JsonValue::Kind::String;
            if (!parseString(cur, value.str, err))
                return fail(cur, "value of \"" + key + "\": " + err);
        } else if (c == 't' && cur.s.compare(cur.pos, 4, "true") == 0) {
            value.kind = JsonValue::Kind::Bool;
            value.flag = true;
            cur.pos += 4;
        } else if (c == 'f' && cur.s.compare(cur.pos, 5, "false") == 0) {
            value.kind = JsonValue::Kind::Bool;
            value.flag = false;
            cur.pos += 5;
        } else if (c == 'n' && cur.s.compare(cur.pos, 4, "null") == 0) {
            value.kind = JsonValue::Kind::Null;
            cur.pos += 4;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            const char *start = line.c_str() + cur.pos;
            char *end = nullptr;
            double v = std::strtod(start, &end);
            if (end == start || !std::isfinite(v))
                return fail(cur, "bad number for key \"" + key + "\"");
            value.kind = JsonValue::Kind::Number;
            value.num = v;
            cur.pos += static_cast<size_t>(end - start);
        } else if (c == '{' || c == '[') {
            return fail(cur, "nested values are not supported (key \"" +
                                 key + "\")");
        } else {
            return fail(cur, "unexpected value for key \"" + key + "\"");
        }
        result.object[key] = std::move(value);

        cur.skipWs();
        if (cur.peek() == ',') {
            ++cur.pos;
            continue;
        }
        if (cur.peek() == '}') {
            ++cur.pos;
            break;
        }
        return fail(cur, "expected ',' or '}'");
    }
    cur.skipWs();
    if (!cur.done())
        return fail(cur, "trailing bytes after object");
    result.ok = true;
    return result;
}

bool
LineReader::next(Line &out)
{
    while (true) {
        out = Line{};
        if (!in_.good())
            return false;

        // Read manually instead of std::getline so an oversized line
        // can be drained without buffering it whole.
        std::string text;
        bool sawNewline = false;
        bool oversized = false;
        bool sawNul = false;
        int c;
        while ((c = in_.get()) != std::char_traits<char>::eof()) {
            if (c == '\n') {
                sawNewline = true;
                break;
            }
            if (c == '\r')
                continue; // tolerate CRLF streams
            if (c == '\0') {
                // NUL cannot appear in a valid JSONL record; drop the
                // text now so a zero-filled journal block cannot smuggle
                // a prefix past the parser, but keep draining to the
                // newline so the stream stays framed.
                sawNul = true;
                text.clear();
                text.shrink_to_fit();
                continue;
            }
            if (!oversized && !sawNul) {
                text.push_back(static_cast<char>(c));
                if (text.size() > maxLineBytes_) {
                    oversized = true;
                    text.clear();
                    text.shrink_to_fit();
                }
            }
        }
        if (!sawNewline && text.empty() && !oversized && !sawNul)
            return false; // clean end of stream

        ++lineNumber_;
        ++linesRead_;
        out.number = lineNumber_;

        if (sawNul) {
            ++nulLines_;
            out.hasNul = true;
            if (!sawNewline) {
                ++truncatedLines_;
                out.truncated = true;
            }
            return true;
        }
        if (oversized) {
            ++oversizedLines_;
            out.oversized = true;
            return true;
        }
        if (!sawNewline) {
            // Torn final line: a crash mid-append leaves a partial
            // record with no newline.  Report it; never parse it.
            ++truncatedLines_;
            out.truncated = true;
            out.text = std::move(text);
            return true;
        }
        if (text.empty()) {
            ++emptyLines_;
            continue;
        }
        out.ok = true;
        out.text = std::move(text);
        return true;
    }
}

void
JsonWriter::prefix(const std::string &key)
{
    if (!body_.empty())
        body_ += ",";
    body_ += "\"" + obs::jsonEscape(key) + "\":";
}

JsonWriter &
JsonWriter::field(const std::string &key, const std::string &value)
{
    prefix(key);
    body_ += "\"" + obs::jsonEscape(value) + "\"";
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, const char *value)
{
    return field(key, std::string(value));
}

JsonWriter &
JsonWriter::field(const std::string &key, double value)
{
    prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, int64_t value)
{
    prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    body_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, uint64_t value)
{
    prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    body_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, int value)
{
    return field(key, static_cast<int64_t>(value));
}

JsonWriter &
JsonWriter::boolean(const std::string &key, bool value)
{
    prefix(key);
    body_ += value ? "true" : "false";
    return *this;
}

std::string
JsonWriter::str() const
{
    return "{" + body_ + "}";
}

} // namespace rasengan::serve
