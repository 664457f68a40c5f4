#include "json.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/env.hh"

namespace perf {
namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Json
    document()
    {
        Json v = value();
        skipSpace();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error(std::string("JSON: ") + what +
                                 " at byte " + std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(char c)
    {
        if (!eat(c))
            fail("unexpected character");
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    Json
    value()
    {
        skipSpace();
        if (pos_ >= s_.size())
            fail("unexpected end");
        Json v;
        const char c = s_[pos_];
        if (c == '{') {
            v.kind = Json::Kind::Object;
            ++pos_;
            if (eat('}'))
                return v;
            do {
                skipSpace();
                const std::string key = str();
                expect(':');
                v.object[key] = value();
            } while (eat(','));
            expect('}');
        } else if (c == '[') {
            v.kind = Json::Kind::Array;
            ++pos_;
            if (eat(']'))
                return v;
            do {
                v.array.push_back(value());
            } while (eat(','));
            expect(']');
        } else if (c == '"') {
            v.kind = Json::Kind::String;
            v.string = str();
        } else if (literal("true")) {
            v.kind = Json::Kind::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.kind = Json::Kind::Bool;
        } else if (literal("null")) {
            v.kind = Json::Kind::Null;
        } else {
            v.kind = Json::Kind::Number;
            v.number = num();
        }
        return v;
    }

    std::string
    str()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            fail("expected string");
        ++pos_;
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("bad escape");
                c = s_[pos_++];
                switch (c) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u': fail("\\u escapes are not supported");
                  default: break; // '"', '\\', '/'
                }
            }
            out += c;
        }
        if (pos_ >= s_.size())
            fail("unterminated string");
        ++pos_;
        return out;
    }

    double
    num()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               std::string("+-0123456789.eE").find(s_[pos_]) !=
                   std::string::npos)
            ++pos_;
        const auto d = m5::parseDouble(s_.substr(start, pos_ - start));
        if (!d)
            fail("bad number");
        return *d;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

const Json &
Json::operator[](const std::string &key) const
{
    static const Json null;
    if (kind != Kind::Object)
        return null;
    const auto it = object.find(key);
    return it == object.end() ? null : it->second;
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perf
