/**
 * @file
 * The small JSON subset the benchmark's result files use: objects,
 * arrays, strings, numbers, booleans and null.  Enough to read back
 * bench_result.json in the compare tool without a dependency.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace perf {

/** A parsed JSON value. */
struct Json
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    /** Member lookup; a Null value when absent or not an object. */
    const Json &operator[](const std::string &key) const;

    /**
     * Parse a whole document.  Throws std::runtime_error with the byte
     * offset on malformed input or trailing garbage.
     */
    static Json parse(const std::string &text);
};

/** `s` as a quoted JSON string literal. */
std::string jsonQuote(const std::string &s);

/** A number as JSON, keeping every significant digit (%.17g); NaN and
 *  infinities, which JSON cannot hold, become null. */
std::string jsonNumber(double v);

} // namespace perf
